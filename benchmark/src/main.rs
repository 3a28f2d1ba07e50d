//! The repository's end-to-end benchmark (see `README.md`).
//!
//! ```text
//! basilisk-benchmark run        [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! basilisk-benchmark trace      [--workload W] [--seed S] [--seconds N] [--quick]
//! basilisk-benchmark self-check [--sets 2] [--runs 3] [--seed S] [--seconds N] [--quick]
//! ```
//!
//! Every workload runs in a fresh child process of this same executable
//! (`child --role …`, internal): the process that measures did nothing
//! else first, and its CPU time and peak memory are the workload's alone.
//! Four more fresh processes per run only set up, for a steadier `setup_s`.

#![forbid(unsafe_code)]

mod harness;
mod metrics;
mod probe;
mod render;
mod trace;
mod workloads;

use std::collections::HashMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use basilisk::Json;

use crate::harness::{checked_oracle, median, percentile, set_up, timed_window, WARMUP_SWEEPS};
use crate::metrics::{obj, MetricDef, END_TO_END, PER_LAYER};
use crate::probe::speed_factor;
use crate::workloads::{Spec, WORKLOADS};

/// Timed window when `--seconds` is not given; `BENCHMARK.json` records
/// the same number as `run_seconds`.
const DEFAULT_SECONDS: u64 = 15;
/// `--quick`: smoke only, never for claims.
const QUICK_SECONDS: u64 = 2;
/// Whole passes every window must contain.
const MIN_PASSES: usize = 3;
/// Samples below which p95 rests on fewer than 20 observations.
const MIN_SAMPLES: usize = 400;
/// Set-ups a run takes in fresh processes beside the measuring one's.
const EXTRA_SETUPS: usize = 4;

struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument: {flag}"));
            };
            if name == "quick" {
                values.insert(name.to_string(), "1".to_string());
            } else {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                values.insert(name.to_string(), value.clone());
            }
        }
        Ok(Args { values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: not a number: {v}")),
        }
    }

    fn seconds(&self) -> Result<u64, String> {
        let default = if self.get("quick").is_some() {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        let s = self.number("seconds", default)?;
        if s == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(s)
    }

    fn workloads(&self) -> Result<Vec<&'static Spec>, String> {
        match self.get("workload") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => workloads::spec(name)
                .map(|s| vec![s])
                .ok_or(format!("unknown workload: {name}")),
        }
    }
}

// ---------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------

/// `child --role measure`: set up, then one timed window, tracing off.
/// The latency percentiles are over every timed request; the rate is
/// requests completed over the window's wall time. Every time metric is
/// reported at the reference host speed: the reading divided by the
/// slow-down the host-speed probe saw over the same stretch (`probe.rs`);
/// the readings themselves go out under `raw`. The replies are checked
/// after the window, when the oracle can no longer add to the process's
/// CPU time or peak memory.
fn child_measure(spec: &'static Spec, seed: u64, window: Duration) -> Json {
    let mut served = set_up(spec, seed);
    // Sample storage is reserved up front from the warm-up's own rate
    // (twice over), so the request loop never grows the vectors.
    let warm_rate = (WARMUP_SWEEPS * served.statements().len()) as f64 / served.warmup_s.max(1e-3);
    let reserve = (2.0 * warm_rate * window.as_secs_f64()) as usize + 2 * served.pass_len();
    let mut w = timed_window(&mut served, window, MIN_PASSES, reserve);
    let factor = speed_factor(&mut w.probe_ms);
    let outstanding = served.server().outstanding();

    let expected = checked_oracle(spec, &served.built);
    let attempted = w.observed.len();
    let failed = w.failed(&served, &expected);
    let mut sorted = w.latencies_ms;
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.50);
    let p95 = percentile(&sorted, 0.95);
    let qps = attempted as f64 / w.elapsed.as_secs_f64();
    let cpu = w.cpu_s * 1e3 / attempted as f64;
    obj(vec![
        (
            "metrics",
            obj(vec![
                ("latency_p50_ms", Json::Float(p50 / factor)),
                ("latency_p95_ms", Json::Float(p95 / factor)),
                ("throughput_qps", Json::Float(qps * factor)),
                ("cpu_ms_per_req", Json::Float(cpu / factor)),
                ("peak_rss_mb", Json::Float(w.peak_rss_mib)),
                ("setup_s", Json::Float(served.setup_s / served.setup_factor)),
            ]),
        ),
        (
            "raw",
            obj(vec![
                ("speed_factor", Json::Float(factor)),
                ("latency_p50_ms", Json::Float(p50)),
                ("latency_p95_ms", Json::Float(p95)),
                ("throughput_qps", Json::Float(qps)),
                ("cpu_ms_per_req", Json::Float(cpu)),
            ]),
        ),
        ("samples", Json::Int(sorted.len() as i64)),
        ("passes", Json::Int(w.passes as i64)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("window_s", Json::Float(w.elapsed.as_secs_f64())),
        ("arena_outstanding", Json::Int(outstanding as i64)),
    ])
}

/// `child --role setup`: set up only and report how long it took. A
/// workload's set-up lasts 0.1–1.3 s, too short for one reading to
/// repeat, so a run takes several in fresh processes.
fn child_setup(spec: &'static Spec, seed: u64) -> Json {
    let served = set_up(spec, seed);
    obj(vec![(
        "setup_s",
        Json::Float(served.setup_s / served.setup_factor),
    )])
}

fn child_main(args: &Args) -> Result<(), String> {
    let spec = *args.workloads()?.first().ok_or("child needs --workload")?;
    let seed = args.number("seed", 1)?;
    let window = Duration::from_millis(args.number("window-ms", 1000)?);
    let result = match args.get("role") {
        Some("measure") => child_measure(spec, seed, window),
        Some("setup") => child_setup(spec, seed),
        Some("trace") => trace::child_trace(spec, seed, window),
        other => return Err(format!("unknown child role: {other:?}")),
    };
    println!("{result}");
    Ok(())
}

/// Re-execute this binary as `child --role <role>` and parse the JSON
/// document on the last line of its standard output.
fn spawn_child(role: &str, spec: &Spec, seed: u64, window: Duration) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "child",
            "--role",
            role,
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
            "--window-ms",
            &window.as_millis().to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {role} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} {role} child failed: {}",
            spec.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{} {role} child printed nothing", spec.name))?;
    Json::parse(last).map_err(|e| format!("{} {role} child output: {e}", spec.name))
}

// ---------------------------------------------------------------------
// Parent: one workload, one run
// ---------------------------------------------------------------------

/// One workload's outcome in the shape the driver reads.
struct Outcome {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// In the order of `END_TO_END` / `PER_LAYER`.
    metrics: Vec<(&'static MetricDef, f64)>,
    /// Counts reported beside the metrics (samples, passes, …).
    notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn metrics_json(&self, prefix: &str) -> Vec<(String, Json)> {
        self.metrics
            .iter()
            .map(|(def, value)| {
                (
                    format!("{prefix}{}", def.name),
                    obj(vec![
                        ("value", Json::Float(*value)),
                        ("unit", Json::Str(def.unit.to_string())),
                    ]),
                )
            })
            .collect()
    }

    fn print_table(&self) {
        println!("== {} ==", self.workload);
        for (def, value) in &self.metrics {
            println!("  {:<34} {:>14.4} {}", def.name, value, def.unit);
        }
        let notes: Vec<String> = self.notes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  attempted={} failed={} correct={} {}",
            self.attempted,
            self.failed,
            self.correct,
            notes.join(" ")
        );
    }
}

fn field_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("child output lacks {key}"))
}

/// End-to-end metrics of one workload: one fresh process times the whole
/// window; `setup_s` is the median of its set-up and `EXTRA_SETUPS` more,
/// each in a fresh process of its own.
fn run_end_to_end(spec: &'static Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let window = Duration::from_secs(seconds);
    let mut setups = Vec::with_capacity(EXTRA_SETUPS + 1);
    for _ in 0..EXTRA_SETUPS {
        setups.push(field_f64(
            &spawn_child("setup", spec, seed, window)?,
            "setup_s",
        )?);
    }
    let doc = spawn_child("measure", spec, seed, window)?;
    let measured = doc.get("metrics").ok_or("child output lacks metrics")?;
    setups.push(field_f64(measured, "setup_s")?);
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let value = if def.name == "setup_s" {
                median(&mut setups)
            } else {
                field_f64(measured, def.name)?
            };
            Ok((def, value))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let attempted = field_f64(&doc, "attempted")? as u64;
    let failed = field_f64(&doc, "failed")? as u64;
    let samples = field_f64(&doc, "samples")?;
    let raw = doc.get("raw").ok_or("child output lacks raw")?;
    if (samples as usize) < MIN_SAMPLES {
        eprintln!(
            "warning: {} timed only {samples} requests (< {MIN_SAMPLES}): p95 is under-sampled",
            spec.name
        );
    }
    Ok(Outcome {
        workload: spec.name,
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        notes: vec![
            ("samples", samples),
            ("passes", field_f64(&doc, "passes")?),
            ("window_s", field_f64(&doc, "window_s")?),
            ("speed_factor", field_f64(raw, "speed_factor")?),
            ("raw_latency_p50_ms", field_f64(raw, "latency_p50_ms")?),
            ("raw_latency_p95_ms", field_f64(raw, "latency_p95_ms")?),
            ("raw_throughput_qps", field_f64(raw, "throughput_qps")?),
            ("raw_cpu_ms_per_req", field_f64(raw, "cpu_ms_per_req")?),
            ("arena_outstanding", field_f64(&doc, "arena_outstanding")?),
        ],
    })
}

/// Per-layer metrics of one workload from the traced run.
fn run_traced(spec: &'static Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let doc = spawn_child("trace", spec, seed, Duration::from_secs(seconds))?;
    let measured = doc.get("metrics").ok_or("child output lacks metrics")?;
    let metrics = PER_LAYER
        .iter()
        .map(|def| Ok((def, field_f64(measured, def.name)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let attempted = field_f64(&doc, "attempted")? as u64;
    let failed = field_f64(&doc, "failed")? as u64;
    let invariants_hold = doc.get("invariants_hold").and_then(Json::as_bool) == Some(true);
    Ok(Outcome {
        workload: spec.name,
        correct: failed == 0 && attempted > 0 && invariants_hold,
        attempted,
        failed,
        metrics,
        notes: vec![
            ("trace_spans", field_f64(&doc, "spans")?),
            ("rebind_mismatches", field_f64(&doc, "rebind_mismatches")?),
        ],
    })
}

fn run_command(args: &Args, traced: bool) -> Result<(), String> {
    let seed = args.number("seed", 1)?;
    let seconds = args.seconds()?;
    let specs = args.workloads()?;
    let single = args.get("workload").is_some();
    let mut outcomes = Vec::new();
    for spec in specs {
        let outcome = if traced {
            run_traced(spec, seed, seconds)?
        } else {
            run_end_to_end(spec, seed, seconds)?
        };
        outcome.print_table();
        outcomes.push(outcome);
    }
    // The last line is the machine-readable result. For one workload the
    // metric names are bare; for all of them, prefixed by the workload.
    let mut metrics = Vec::new();
    for o in &outcomes {
        let prefix = if single {
            String::new()
        } else {
            format!("{}.", o.workload)
        };
        metrics.extend(o.metrics_json(&prefix));
    }
    let correct = outcomes.iter().all(|o| o.correct);
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::Int(outcomes.iter().map(|o| o.attempted).sum::<u64>() as i64),
        ),
        (
            "failed",
            Json::Int(outcomes.iter().map(|o| o.failed).sum::<u64>() as i64),
        ),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{result}");
    Ok(())
}

// ---------------------------------------------------------------------
// self-check: does the benchmark agree with itself?
// ---------------------------------------------------------------------

fn self_check(args: &Args) -> Result<bool, String> {
    let sets = args.number("sets", 2)? as usize;
    let runs = args.number("runs", 3)? as usize;
    let seed = args.number("seed", 1)?;
    let seconds = args.seconds()?;
    if sets < 2 || runs < 1 {
        return Err("self-check needs --sets >= 2 and --runs >= 1".into());
    }
    let specs = args.workloads()?;
    // values[set][workload][metric] = that set's runs. Sets interleave
    // (run r of every set before run r+1 of any), so slow drift of the
    // machine lands on all sets alike.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; specs.len()]; sets];
    for r in 0..runs {
        for (set, set_values) in values.iter_mut().enumerate() {
            for (w, spec) in specs.iter().enumerate() {
                let outcome = run_end_to_end(spec, seed + r as u64, seconds)?;
                if !outcome.correct {
                    return Err(format!(
                        "{}: {} failed operations",
                        spec.name, outcome.failed
                    ));
                }
                for (m, (_, value)) in outcome.metrics.iter().enumerate() {
                    set_values[w][m].push(*value);
                }
                eprintln!("self-check: run {r} set {set} {} done", spec.name);
            }
        }
    }
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "set-min", "set-max", "rel-diff", "bound"
    );
    let mut agree = true;
    for (w, spec) in specs.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let mut medians: Vec<f64> = values.iter_mut().map(|v| median(&mut v[w][m])).collect();
            medians.sort_by(f64::total_cmp);
            let (lo, hi) = (medians[0], medians[sets - 1]);
            let rel = (hi - lo) / lo;
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let ok = rel <= bound;
            agree &= ok;
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%{}",
                spec.name,
                def.name,
                lo,
                hi,
                rel * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: basilisk-benchmark run|trace|self-check [options]");
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        // `correct` is part of the printed result; only a harness failure
        // is a non-zero exit.
        "run" => {
            let traced = args.number("trace", 0)? != 0;
            run_command(&args, traced).map(|()| true)
        }
        "trace" => run_command(&args, true).map(|()| true),
        "self-check" => self_check(&args),
        "child" => child_main(&args).map(|()| true),
        other => Err(format!("unknown command: {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("basilisk-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
