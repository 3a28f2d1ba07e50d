//! Set-up, the correctness oracle, the closed-loop request driver and the
//! process-level measurement — done once, here, for every workload.

use std::time::{Duration, Instant};

use basilisk::{
    normalize_select, Catalog, Client, Listener, PlannerKind, QuerySession, RemotePrepared,
    ServeError, Server, ServerConfig, Value, WireResponse,
};

use crate::probe::{speed_factor, HostProbe};
use crate::render::check_roundtrip;
use crate::workloads::{build, Built, Mode, Spec, Statement};

/// The three planners that must agree on every expected count.
const ORACLE_PLANNERS: [PlannerKind; 3] = [
    PlannerKind::TCombined,
    PlannerKind::BDisj,
    PlannerKind::TPushdown,
];

/// Warm-up sweeps at set-up: sweep `k` sends every statement once at
/// binding `k`, so each shape has run (and sized its arenas) twice before
/// the timed window opens.
pub const WARMUP_SWEEPS: usize = 2;

/// The timed window takes a host-speed probe reading between two requests
/// whenever this long has passed since the last one (≈ 0.7 % of the
/// window; 150 readings in 15 s).
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Probe readings taken right before and right after a set-up.
const SETUP_PROBES: usize = 16;

/// Kernel `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`.
/// It is 100 on every Linux ABI regardless of the kernel's `CONFIG_HZ`.
const USER_HZ: f64 = 100.0;

/// What a pass sends: prepared handles or per-binding ad-hoc texts.
pub enum Requests {
    Prepared(Vec<RemotePrepared>),
    AdHoc(Vec<Vec<String>>),
}

/// A booted workload: listener on loopback, one connected client, and
/// everything a pass needs.
pub struct Served {
    pub spec: &'static Spec,
    pub built: Built,
    pub listener: Listener,
    pub client: Client,
    pub requests: Requests,
    /// Data generation + table build + listener bind + prepare + warm-up,
    /// as the clock read it.
    pub setup_s: f64,
    /// The warm-up sweeps' share of `setup_s`.
    pub warmup_s: f64,
    /// Host slow-down around the set-up (`probe::speed_factor` of the
    /// readings taken right before and right after it).
    pub setup_factor: f64,
    pub probe: HostProbe,
}

impl Served {
    pub fn statements(&self) -> &[Statement] {
        &self.built.statements
    }

    /// Requests in one pass of the schedule.
    pub fn pass_len(&self) -> usize {
        self.built.statements.len() * self.spec.bindings
    }

    /// Schedule slot `i` of a pass → (statement, binding): binding-major,
    /// so a shape recurs only after every other shape has been sent.
    pub fn slot(&self, i: usize) -> (usize, usize) {
        let n = self.built.statements.len();
        (i % n, i / n)
    }

    pub fn server(&self) -> &Server {
        self.listener.server()
    }

    /// Send schedule slot `(s, b)` and wait for the reply.
    pub fn send(&mut self, s: usize, b: usize) -> Result<WireResponse, ServeError> {
        match &self.requests {
            Requests::Prepared(handles) => self
                .client
                .execute(handles[s], &self.built.statements[s].bindings[b]),
            Requests::AdHoc(texts) => self.client.sql(&texts[s][b]),
        }
    }
}

fn server_config(spec: &Spec) -> ServerConfig {
    let mut config = ServerConfig::builder()
        .contexts(2)
        .workers(spec.workers)
        .default_planner(spec.planner);
    if let Some(capacity) = spec.cache_capacity {
        config = config.cache_capacity(capacity);
    }
    config.build().expect("static sizing is valid")
}

/// Build the data, boot the listener, connect, prepare and warm up —
/// everything `setup_s` covers. The harness's own checking is no part of
/// it: callers run `checked_oracle` afterwards.
pub fn set_up(spec: &'static Spec, seed: u64) -> Served {
    let probe = HostProbe::new();
    let mut readings = probe.readings(SETUP_PROBES);
    let t0 = Instant::now();
    let built = build(spec, seed);
    let listener = built
        .db
        .listen_with("127.0.0.1:0", server_config(spec))
        .expect("bind loopback listener");
    let mut client = Client::connect(listener.local_addr()).expect("connect to listener");
    let requests = match spec.mode {
        Mode::Prepared => Requests::Prepared(
            built
                .statements
                .iter()
                .map(|st| {
                    let handle = client
                        .prepare(&st.template_text())
                        .unwrap_or_else(|e| panic!("prepare {}: {e}", st.label));
                    assert_eq!(handle.params, st.bindings[0].len(), "{}", st.label);
                    handle
                })
                .collect(),
        ),
        Mode::AdHoc => Requests::AdHoc(
            built
                .statements
                .iter()
                .map(|st| (0..spec.bindings).map(|b| st.text(b)).collect())
                .collect(),
        ),
    };
    let t1 = Instant::now();
    let mut served = Served {
        spec,
        built,
        listener,
        client,
        requests,
        setup_s: 0.0,
        warmup_s: 0.0,
        setup_factor: 0.0,
        probe,
    };
    for b in 0..WARMUP_SWEEPS {
        for s in 0..served.built.statements.len() {
            // The timed window's replies are checked; a warm-up failure
            // will repeat there and be counted.
            let _ = served.send(s, b);
        }
    }
    served.warmup_s = t1.elapsed().as_secs_f64();
    served.setup_s = t0.elapsed().as_secs_f64();
    readings.extend(served.probe.readings(SETUP_PROBES));
    served.setup_factor = speed_factor(&mut readings);
    served
}

/// The count a reply carries for `stmt`: the single `COUNT(*)` value, or
/// the number of rows returned.
pub fn observed_count(stmt: &Statement, reply: &WireResponse) -> Option<u64> {
    if !stmt.count {
        return Some(reply.row_count as u64);
    }
    match reply.columns.first()?.1.first()? {
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

pub fn session_counts(
    catalog: &Catalog,
    statements: &[Statement],
    kind: PlannerKind,
) -> Vec<Vec<u64>> {
    statements
        .iter()
        .map(|st| {
            (0..st.bindings.len())
                .map(|b| {
                    let session = QuerySession::new(catalog, st.bound(b))
                        .unwrap_or_else(|e| panic!("oracle session {}: {e}", st.label))
                        .with_workers(1);
                    let plan = session
                        .plan(kind)
                        .unwrap_or_else(|e| panic!("oracle plan {} {kind}: {e}", st.label));
                    session
                        .execute(&plan)
                        .unwrap_or_else(|e| panic!("oracle execute {} {kind}: {e}", st.label))
                        .count() as u64
                })
                .collect()
        })
        .collect()
}

/// TCombined costs several planners per statement, so its oracle run
/// prepares each shape once on a private in-process server and rebinds.
pub fn server_counts(
    catalog: &Catalog,
    statements: &[Statement],
    kind: PlannerKind,
) -> Vec<Vec<u64>> {
    let config = ServerConfig::builder()
        .contexts(2)
        .workers(1)
        .default_planner(kind)
        .build()
        .expect("static sizing is valid");
    let server = Server::new(catalog.clone(), config);
    statements
        .iter()
        .map(|st| {
            let text = st.template_text();
            let prepared = server
                .prepare(&text)
                .unwrap_or_else(|e| panic!("oracle prepare {}: {e}", st.label));
            st.bindings
                .iter()
                .map(|params| {
                    let r = server
                        .execute_prepared(&prepared, params)
                        .unwrap_or_else(|e| panic!("oracle execute {} {kind}: {e}", st.label));
                    if st.count {
                        match r.columns[0].1.value(0) {
                            Value::Int(n) => n as u64,
                            other => panic!("oracle count {}: {other}", st.label),
                        }
                    } else {
                        r.row_count as u64
                    }
                })
                .collect()
        })
        .collect()
}

/// The harness's own checks, outside every clock: statement shapes are
/// unique, the renderer is lossless on every statement and binding, and
/// the planners agree on every expected count.
pub fn checked_oracle(spec: &Spec, built: &Built) -> Vec<Vec<u64>> {
    // Two statements of one normalized shape would share one cached plan,
    // and a plan's tag maps bake in which literals imply which: rebinding
    // is only sound when every binding orders its literals alike. The
    // bindings here shift uniformly, so that holds within a statement; it
    // would not hold across two unrelated statements of one shape.
    let mut shapes = std::collections::HashSet::new();
    for st in &built.statements {
        let key = normalize_select(&st.template_text())
            .unwrap_or_else(|e| panic!("{}: {e}", st.label))
            .key;
        assert!(
            shapes.insert(key),
            "{}: statement shape is not unique",
            st.label
        );
    }
    for st in &built.statements {
        for b in 0..st.bindings.len() {
            if let Err(e) = check_roundtrip(&st.bound(b), st.count) {
                panic!("{} binding {b}: {e}", st.label);
            }
        }
    }
    oracle(spec, built)
}

/// Expected counts for every (statement, binding), computed in-process by
/// the two of TCombined / BDisj / TPushdown the server is *not* using.
/// The served planner's own answers arrive over the wire and are checked
/// against these, so all three agree on every binding or the run stops
/// here: a disagreement means there is no trusted answer to check against.
fn oracle(spec: &Spec, built: &Built) -> Vec<Vec<u64>> {
    let others: Vec<PlannerKind> = ORACLE_PLANNERS
        .into_iter()
        .filter(|k| *k != spec.planner)
        .collect();
    let catalog = built.db.catalog();
    let statements = &built.statements;
    let run = |kind: PlannerKind| {
        if kind == PlannerKind::TCombined {
            server_counts(catalog, statements, kind)
        } else {
            session_counts(catalog, statements, kind)
        }
    };
    // Two planners, two cores: nothing is being timed while the oracle
    // runs, so it may use the whole machine.
    let (a, b) = std::thread::scope(|scope| {
        let second = scope.spawn(|| run(others[1]));
        let first = run(others[0]);
        (first, second.join().expect("oracle thread"))
    });
    for (s, st) in statements.iter().enumerate() {
        for k in 0..st.bindings.len() {
            assert_eq!(
                a[s][k], b[s][k],
                "{} binding {k}: {} and {} disagree — no trusted expected count",
                st.label, others[0], others[1]
            );
        }
    }
    a
}

/// Process CPU time (user + system, all threads) in seconds.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (comm) may contain spaces; everything after its closing
    // parenthesis is space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> f64 {
        fields[field - 3]
            .parse::<u64>()
            .expect("numeric stat field") as f64
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kib / 1024.0
}

/// Percentile by nearest rank over an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// One timed window's raw outcome.
pub struct Window {
    /// Client-observed latency of every timed request, in milliseconds,
    /// in send order.
    pub latencies_ms: Vec<f64>,
    /// The count each reply carried, in send order; `None` for a non-200
    /// or a transport error.
    pub observed: Vec<Option<u64>>,
    pub passes: usize,
    /// Wall and process CPU time of the window, less what the host-speed
    /// probe took (it is single-threaded and never waits, so its wall time
    /// is its CPU time).
    pub elapsed: Duration,
    pub cpu_s: f64,
    /// The host-speed probe's readings, in milliseconds, in order.
    pub probe_ms: Vec<f64>,
    /// `VmHWM` when the window closed: set-up and serving, before the
    /// oracle's own allocations.
    pub peak_rss_mib: f64,
}

impl Window {
    /// Replies that failed or whose count differs from `expected`; slot
    /// `i` of every pass is `slot(i)` of the schedule.
    pub fn failed(&self, served: &Served, expected: &[Vec<u64>]) -> u64 {
        let pass_len = served.pass_len();
        self.observed
            .iter()
            .enumerate()
            .filter(|(i, seen)| {
                let (s, b) = served.slot(i % pass_len);
                **seen != Some(expected[s][b])
            })
            .count() as u64
    }
}

/// Drive whole passes of the schedule over the one closed-loop connection
/// until `window` has elapsed (and at least `min_passes` are done). The
/// window always ends on a pass boundary, so every run times the same mix
/// of statements. Nothing on the request path sleeps, polls a timer other
/// than the monotonic clock, or allocates sample storage. Between two
/// requests, every `PROBE_EVERY`, the host-speed probe takes a reading.
/// Replies are recorded, and checked by the caller once the clocks have
/// stopped.
pub fn timed_window(
    served: &mut Served,
    window: Duration,
    min_passes: usize,
    reserve: usize,
) -> Window {
    let pass_len = served.pass_len();
    let capacity = reserve.max(pass_len * min_passes);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(capacity);
    let mut observed: Vec<Option<u64>> = Vec::with_capacity(capacity);
    let mut probe_ms: Vec<f64> =
        Vec::with_capacity(4 * (window.as_millis() / PROBE_EVERY.as_millis()) as usize + 64);
    let mut probe_total = Duration::ZERO;
    let mut passes = 0usize;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut last_probe = t0;
    while passes < min_passes || t0.elapsed() < window {
        for i in 0..pass_len {
            let (s, b) = served.slot(i);
            let t = Instant::now();
            let reply = served.send(s, b);
            let done = Instant::now();
            latencies_ms.push((done - t).as_secs_f64() * 1e3);
            observed.push(
                reply
                    .ok()
                    .and_then(|r| observed_count(&served.built.statements[s], &r)),
            );
            if done - last_probe >= PROBE_EVERY {
                let took = served.probe.run();
                probe_ms.push(took.as_secs_f64() * 1e3);
                probe_total += took;
                last_probe = Instant::now();
            }
        }
        passes += 1;
    }
    let elapsed = t0.elapsed() - probe_total;
    let cpu_s = process_cpu_s() - cpu0 - probe_total.as_secs_f64();
    Window {
        latencies_ms,
        observed,
        passes,
        elapsed,
        cpu_s,
        probe_ms,
        peak_rss_mib: peak_rss_mib(),
    }
}
