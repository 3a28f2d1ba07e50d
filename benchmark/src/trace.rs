//! The traced run: per-layer attribution from outside the program.
//!
//! Spans are recorded by the harness around the public entry points of
//! each layer (`{name, start_us, end_us, parent, request}`), kept in
//! memory, and written to `out/<workload>.trace.json` at exit. Operator
//! spans come from the server's existing public span tree
//! (`"trace": true` on the wire, read only). End-to-end metrics are never
//! taken here: tracing changes what runs.
//!
//! Phases, each over whole passes of the workload's schedule:
//!
//! 1. **wire, untraced** — the baseline the other phases subtract from,
//!    and the window over which scheduler / arena / cache counters are
//!    differenced;
//! 2. **wire, traced** — one raw HTTP exchange per request with
//!    `"trace": true`, harness spans around encode / exchange / decode and
//!    the server's span tree hung underneath;
//! 3. **in-process** — `Server::submit` on one thread, then
//!    `wire::encode_response` + `Json::write` and `Json::parse` +
//!    `wire::parse_response` on its result;
//! 4. **components** — `parse_select`, `normalize_select`, estimator
//!    build, `QuerySession::{new, plan, execute}` per statement;
//! 5. **paper ratios** — BDisj vs TCombined and TPushConj vs BPushConj
//!    execution times per statement;
//! 6. **kernel probes** — the roofline denominators.

use std::hint::black_box;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use basilisk::{
    factor_common_conjuncts, normalize_select, parse_select, Estimator, Json, Plan, PlannerKind,
    PredicateTree, QuerySession, Request,
};
use basilisk_expr::eval::{eval_node_mask, MapProvider};
use basilisk_expr::{and, col, or, ColumnRef};
use basilisk_net::{http, wire};
use basilisk_storage::{Column, EncodedColumn};
use basilisk_types::{gather_u32_into, Bitmap, MaskArena};

use crate::harness::{
    checked_oracle, median, observed_count, percentile, server_counts, session_counts, set_up,
    Requests, Served,
};
use crate::metrics::{obj, PER_LAYER};
use crate::workloads::{rebind_probe_statements, Mode, Spec, SplitMix64};

/// Repetitions of each component / ratio measurement; the median counts.
const REPS: usize = 3;
/// Rows of the kernel-probe columns.
const PROBE_ROWS: usize = 1 << 20;

// ---------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------

struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<u32>,
    request: Option<u32>,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn begin(&mut self, name: &str, parent: Option<u32>, request: Option<u32>) -> u32 {
        let start_us = self.now_us();
        self.push(name, start_us, start_us, parent, request)
    }

    /// Close span `id`; returns its duration in milliseconds.
    fn end(&mut self, id: u32) -> f64 {
        let now = self.now_us();
        let span = &mut self.spans[id as usize];
        span.end_us = now;
        (span.end_us - span.start_us) as f64 / 1e3
    }

    fn push(
        &mut self,
        name: &str,
        start_us: u64,
        end_us: u64,
        parent: Option<u32>,
        request: Option<u32>,
    ) -> u32 {
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Time `f` under a span; returns its result and the duration in ms
    /// (at the clock's own resolution; the stored span rounds to µs).
    fn timed<T>(
        &mut self,
        name: &str,
        parent: Option<u32>,
        request: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, request);
        let t = Instant::now();
        let out = f();
        let elapsed = ms(t.elapsed());
        self.end(id);
        (out, elapsed)
    }

    fn to_json(&self, workload: &str, seed: u64) -> Json {
        let opt = |v: Option<u32>| v.map_or(Json::Null, |v| Json::Int(v as i64));
        let spans = self.spans.iter().map(|s| {
            obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("start_us", Json::Int(s.start_us as i64)),
                ("end_us", Json::Int(s.end_us as i64)),
                ("parent", opt(s.parent)),
                ("request", opt(s.request)),
            ])
        });
        obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Int(seed as i64)),
            ("spans", Json::Array(spans.collect())),
        ])
    }
}

// ---------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.50)
}

fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over `REPS` runs of `f`'s duration, in milliseconds.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    median(&mut samples)
}

/// Whole passes until `budget` has elapsed (at least one).
fn passes_within(budget: Duration, mut pass: impl FnMut()) -> usize {
    let t0 = Instant::now();
    let mut n = 0;
    while n == 0 || t0.elapsed() < budget {
        pass();
        n += 1;
    }
    n
}

// ---------------------------------------------------------------------
// Counters differenced over the untraced wire phase
// ---------------------------------------------------------------------

struct Counters {
    tasks: u64,
    steals: u64,
    busy_micros: u64,
    region_waits: u64,
    zone_skipped: u64,
    zone_scanned: u64,
    arena_fresh: u64,
}

/// Sum of the `basilisk_arena_fresh_total{shape=…}` samples: the only
/// public view that covers the idle contexts' arenas *and* the workers'.
fn arena_fresh(exposition: &str) -> u64 {
    exposition
        .lines()
        .filter(|l| l.starts_with("basilisk_arena_fresh_total"))
        .filter_map(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok())
        .sum::<f64>() as u64
}

fn counters(served: &Served) -> Counters {
    let server = served.server();
    let stats = server.stats();
    let sched = server.pool().sched_stats();
    Counters {
        tasks: sched.tasks,
        steals: sched.steals,
        busy_micros: sched.busy_micros.iter().sum(),
        region_waits: stats.region_waits,
        zone_skipped: stats.skipped_morsels_total,
        zone_scanned: stats.scanned_morsels_total,
        arena_fresh: arena_fresh(&server.metrics_prometheus()),
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

// ---------------------------------------------------------------------
// The server's span tree, read from the reply
// ---------------------------------------------------------------------

/// Per-request sums of operator self time (ms) and atom lane counts.
#[derive(Default)]
struct TreeSums {
    tagged_filter: f64,
    tagged_join: f64,
    scan: f64,
    project: f64,
    filter: f64,
    hash_join: f64,
    union: f64,
    atom: f64,
    /// Self time of every span below the root: what the tree attributes.
    attributed: f64,
    lanes_evaluated: u64,
    lanes_short_circuited: u64,
}

/// Walk one span of the reply's `"trace"` tree: record it under `parent`
/// (placed at `base_us` + its own offset) and add its self time — its
/// duration minus what its children cover — to `sums`.
fn walk_tree(
    span: &Json,
    is_root: bool,
    base_us: u64,
    parent: u32,
    request: u32,
    rec: &mut Recorder,
    sums: &mut TreeSums,
) {
    let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
    let start = span.get("start_micros").and_then(Json::as_u64).unwrap_or(0);
    let duration = span
        .get("duration_micros")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let id = rec.push(
        &format!("server.{name}"),
        base_us + start,
        base_us + start + duration,
        Some(parent),
        Some(request),
    );
    let children = span.get("children").and_then(Json::as_array).unwrap_or(&[]);
    let covered: u64 = children
        .iter()
        .map(|c| c.get("duration_micros").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    let self_ms = duration.saturating_sub(covered) as f64 / 1e3;
    if !is_root {
        sums.attributed += self_ms;
    }
    match name {
        "tagged_filter" => sums.tagged_filter += self_ms,
        "tagged_join" => sums.tagged_join += self_ms,
        "scan" => sums.scan += self_ms,
        "project" => sums.project += self_ms,
        "filter" => sums.filter += self_ms,
        "hash_join" => sums.hash_join += self_ms,
        "union" => sums.union += self_ms,
        "atom" => {
            sums.atom += self_ms;
            let attr = |key: &str| {
                span.get("attrs")
                    .and_then(|a| a.get(key))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            sums.lanes_evaluated += attr("lanes_evaluated");
            sums.lanes_short_circuited += attr("lanes_short_circuited");
        }
        _ => {}
    }
    for child in children {
        walk_tree(child, false, base_us, id, request, rec, sums);
    }
}

/// The request body of schedule slot `(s, b)` with `"trace": true`.
fn traced_request(served: &Served, s: usize, b: usize) -> (&'static str, Json) {
    let trace = ("trace", Json::Bool(true));
    match &served.requests {
        Requests::Prepared(handles) => {
            let params = served.statements()[s].bindings[b]
                .iter()
                .map(wire::encode_value);
            (
                "/v1/execute",
                obj(vec![
                    ("handle", Json::Int(handles[s].handle as i64)),
                    ("params", Json::Array(params.collect())),
                    trace,
                ]),
            )
        }
        Requests::AdHoc(texts) => (
            "/v1/sql",
            obj(vec![("sql", Json::Str(texts[s][b].clone())), trace]),
        ),
    }
}

// ---------------------------------------------------------------------
// Kernel probes
// ---------------------------------------------------------------------

struct Probes {
    or_fold_gelems_s: f64,
    cmp_gelems_s: f64,
    gather_gelems_s: f64,
    read_bw_gb_s: f64,
    decode_gelems_s: f64,
}

/// Fixed-size, seed-independent kernels run in this same process: what the
/// machine can do, for the per-request numbers to be read against.
fn kernel_probes(rec: &mut Recorder) -> Probes {
    let root = rec.begin("probes", None, None);
    let mut rng = SplitMix64::new(0xBA51_115C);
    let int_column = |rng: &mut SplitMix64| {
        Column::from_ints((0..PROBE_ROWS).map(|_| rng.below(1000) as i64).collect())
    };
    let provider = MapProvider::new(PROBE_ROWS)
        .with(ColumnRef::new("t", "a"), int_column(&mut rng))
        .with(ColumnRef::new("t", "b"), int_column(&mut rng))
        .with(ColumnRef::new("t", "c"), int_column(&mut rng));
    let arena = MaskArena::new();
    let all = Bitmap::all_set(PROBE_ROWS);
    let per_second = |elems: usize, millis: f64| elems as f64 / (millis / 1e3) / 1e9;

    // A 6-arm OR of 2-atom ANDs: 12 atom evaluations and 17 folds per row.
    let t = 300i64;
    let wide = or(vec![
        and(vec![col("t", "a").lt(t), col("t", "b").lt(t)]),
        and(vec![col("t", "b").lt(t), col("t", "c").lt(t)]),
        and(vec![col("t", "a").ge(1000 - t), col("t", "c").lt(t)]),
        and(vec![col("t", "c").ge(1000 - t), col("t", "a").lt(t)]),
        and(vec![col("t", "b").ge(1000 - t), col("t", "c").ge(1000 - t)]),
        and(vec![col("t", "a").lt(t), col("t", "c").ge(1000 - t)]),
    ]);
    let tree = PredicateTree::build(&wide);
    let (or_ms, _) = rec.timed("probe.or_fold", Some(root), None, || {
        median_ms(|| {
            let mask = eval_node_mask(&tree, tree.root(), &provider, &all, &arena)
                .expect("probe predicate evaluates");
            arena.recycle_mask(black_box(mask));
        })
    });

    let single = PredicateTree::build(&col("t", "a").lt(500i64));
    let (cmp_ms, _) = rec.timed("probe.cmp", Some(root), None, || {
        median_ms(|| {
            let mask = eval_node_mask(&single, single.root(), &provider, &all, &arena)
                .expect("probe atom evaluates");
            arena.recycle_mask(black_box(mask));
        })
    });

    let src: Vec<u32> = (0..PROBE_ROWS as u32).collect();
    let idx: Vec<u32> = (0..4 * PROBE_ROWS)
        .map(|_| rng.below(PROBE_ROWS as u64) as u32)
        .collect();
    let mut out: Vec<u32> = Vec::with_capacity(idx.len());
    let (gather_ms, _) = rec.timed("probe.gather", Some(root), None, || {
        median_ms(|| {
            out.clear();
            gather_u32_into(black_box(&src), black_box(&idx), &mut out);
            black_box(&out);
        })
    });

    // A plain read pass over 64 MiB: the bandwidth every scan is up against.
    let words: Vec<u64> = (0..(64usize << 20) / 8).map(|i| i as u64).collect();
    let (read_ms, _) = rec.timed("probe.read", Some(root), None, || {
        median_ms(|| {
            let sum = black_box(&words)
                .iter()
                .fold(0u64, |acc, w| acc.wrapping_add(*w));
            black_box(sum);
        })
    });

    let encoded = EncodedColumn::encode(&int_column(&mut rng));
    let (decode_ms, _) = rec.timed("probe.decode", Some(root), None, || {
        median_ms(|| {
            black_box(black_box(&encoded).decode());
        })
    });
    rec.end(root);
    Probes {
        or_fold_gelems_s: per_second(12 * PROBE_ROWS, or_ms),
        cmp_gelems_s: per_second(PROBE_ROWS, cmp_ms),
        gather_gelems_s: per_second(idx.len(), gather_ms),
        read_bw_gb_s: (words.len() * 8) as f64 / (read_ms / 1e3) / 1e9,
        decode_gelems_s: per_second(PROBE_ROWS, decode_ms),
    }
}

// ---------------------------------------------------------------------
// Components and the paper's ratios, per statement
// ---------------------------------------------------------------------

/// One value per statement (at binding 0), each the median of `REPS`.
#[derive(Default)]
struct Components {
    parse_ms: Vec<f64>,
    normalize_ms: Vec<f64>,
    estimator_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    /// BDisj ÷ TCombined execution time (Fig. 3a, Fig. 4).
    tagged_over_bdisj: Vec<f64>,
    /// TPushConj ÷ BPushConj on the factored form (Fig. 3d).
    tagged_overhead: Vec<f64>,
}

/// Phases 4 and 5: the SQL front end, the estimator and the planner's
/// entry points on every statement, then the two execution-time ratios
/// the paper reports. Single-threaded apart from the session's own
/// workers.
fn components(served: &Served, rec: &mut Recorder) -> Components {
    let spec = served.spec;
    let catalog = served.built.db.catalog();
    let span = rec.begin("components", None, None);
    let root = Some(span);
    let mut c = Components::default();
    let exec_ms = |session: &QuerySession, plan: &Plan| {
        median_ms(|| {
            black_box(session.execute(plan).expect("plan executes").count());
        })
    };
    for st in served.statements() {
        let text = st.text(0);
        let query = st.bound(0);
        let mut probe =
            |name: &str, f: &mut dyn FnMut()| rec.timed(name, root, None, || median_ms(f)).0;
        c.parse_ms.push(probe("sql.parse_select", &mut || {
            black_box(parse_select(black_box(&text)).expect("statement parses"));
        }));
        c.normalize_ms.push(probe("sql.normalize_select", &mut || {
            black_box(normalize_select(black_box(&text)).expect("statement normalizes"));
        }));
        c.estimator_ms.push(probe("catalog.estimator", &mut || {
            black_box(Estimator::new(catalog, &query.aliases).expect("estimator builds"));
        }));
        let (session, _) = rec.timed("plan.session_new", root, None, || {
            QuerySession::new(catalog, query.clone())
                .expect("session builds")
                .with_workers(spec.workers)
        });
        let mut plan = None;
        c.plan_ms.push(
            rec.timed("plan.plan", root, None, || {
                median_ms(|| plan = Some(session.plan(spec.planner).expect("statement plans")))
            })
            .0,
        );
        let plan = plan.expect("planned at least once");
        let own_ms = rec
            .timed("plan.execute", root, None, || exec_ms(&session, &plan))
            .0;
        c.execute_ms.push(own_ms);

        // The served planner's time is already known; plan only the others.
        let time_of = |session: &QuerySession, kind: PlannerKind| {
            session.plan(kind).ok().map(|p| exec_ms(session, &p))
        };
        rec.timed("ratio.bdisj_vs_tcombined", root, None, || {
            let of = |kind| {
                if kind == spec.planner {
                    Some(own_ms)
                } else {
                    time_of(&session, kind)
                }
            };
            if let (Some(b), Some(t)) = (of(PlannerKind::BDisj), of(PlannerKind::TCombined)) {
                c.tagged_over_bdisj.push(b / t.max(1e-6));
            }
        });
        // The factored (AND-rooted) form, where both execution models run
        // the same plan shape.
        let mut factored = query.clone();
        factored.predicate = query.predicate.as_ref().map(factor_common_conjuncts);
        rec.timed("ratio.tpushconj_vs_bpushconj", root, None, || {
            let Ok(fs) = QuerySession::new(catalog, factored) else {
                return;
            };
            let fs = fs.with_workers(spec.workers);
            if let (Some(t), Some(b)) = (
                time_of(&fs, PlannerKind::TPushConj),
                time_of(&fs, PlannerKind::BPushConj),
            ) {
                c.tagged_overhead.push(t / b.max(1e-6));
            }
        });
    }
    rec.end(span);
    c
}

// ---------------------------------------------------------------------
// The defect the JOB schedule is drawn around
// ---------------------------------------------------------------------

/// Send two statements of one normalized shape (`job_queries(42)` groups
/// 2 and 26) to one private server under the workload's planner and
/// compare with fresh BDisj sessions. The second statement rebinds the
/// first one's cached plan, whose tag maps bake in the first one's literal
/// order; while that is unsound the counts differ. Returns how many of
/// the two differ. It is a finding of the program, not a failed operation
/// of the workload (whose own schedule has no such pair), so it is
/// reported on every traced JOB run and does not gate `correct`.
fn rebind_probe(served: &Served) -> u64 {
    let Some(pair) = rebind_probe_statements(served.spec) else {
        return 0;
    };
    let catalog = served.built.db.catalog();
    let cached = server_counts(catalog, &pair, served.spec.planner);
    let fresh = session_counts(catalog, &pair, PlannerKind::BDisj);
    let mut mismatches = 0;
    for ((st, cached), fresh) in pair.iter().zip(&cached).zip(&fresh) {
        if cached != fresh {
            mismatches += 1;
            eprintln!(
                "FINDING {}: rebinding a shared cached plan is unsound: {} under {} returns {} \
                 after its shape was planned for other literals, a fresh session returns {}",
                served.spec.name, st.label, served.spec.planner, cached[0], fresh[0]
            );
        }
    }
    mismatches
}

// ---------------------------------------------------------------------
// The traced child
// ---------------------------------------------------------------------

fn out_dir() -> PathBuf {
    // `cargo run` exports the package directory; fall back to the path
    // relative to the repository root the driver runs from.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"))
        .join("out")
}

/// `child --role trace`: every per-layer metric of one workload.
pub fn child_trace(spec: &'static Spec, seed: u64, window: Duration) -> Json {
    let mut served = set_up(spec, seed);
    let expected = checked_oracle(spec, &served.built);
    let mut rec = Recorder::new();
    // The three request-driving phases share the window equally.
    let phase_budget = window.div_f64(3.0);
    let pass_len = served.pass_len();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Phase 1: wire, untraced.
    let mut wire_ms: Vec<Vec<f64>> = vec![Vec::new(); pass_len];
    let (mut hits, mut queue_wait_ms) = (0u64, Vec::new());
    let before = counters(&served);
    let t_wire = Instant::now();
    let wire_passes = passes_within(phase_budget, || {
        for (i, samples) in wire_ms.iter_mut().enumerate() {
            let (s, b) = served.slot(i);
            let t = Instant::now();
            let reply = served.send(s, b);
            samples.push(ms(t.elapsed()));
            attempted += 1;
            match reply {
                Ok(r) if observed_count(&served.statements()[s], &r) == Some(expected[s][b]) => {
                    hits += u64::from(r.cache_hit);
                    queue_wait_ms.push(r.queue_wait_micros as f64 / 1e3);
                }
                _ => failed += 1,
            }
        }
    });
    let wire_wall = t_wire.elapsed();
    let after = counters(&served);
    let wire_requests = (wire_passes * pass_len) as u64;
    let untraced: Vec<f64> = wire_ms.iter().flatten().copied().collect();

    // Phase 2: wire, traced, over a second raw connection.
    let stream = TcpStream::connect(served.listener.local_addr()).expect("connect raw client");
    stream.set_nodelay(true).expect("set nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut traced_ms = Vec::new();
    let mut unattributed = Vec::new();
    let mut per_request: Vec<TreeSums> = Vec::new();
    let mut request_id = 0u32;
    passes_within(phase_budget, || {
        for i in 0..pass_len {
            let (s, b) = served.slot(i);
            let (path, body) = traced_request(&served, s, b);
            let root = rec.begin("request", None, Some(request_id));
            let (payload, encode_ms) =
                rec.timed("client.encode", Some(root), Some(request_id), || {
                    body.to_string().into_bytes()
                });
            let exchange = rec.begin("wire.exchange", Some(root), Some(request_id));
            let exchange_start = rec.now_us();
            http::write_request(&mut writer, "POST", path, &payload).expect("write request");
            let response = http::read_response(&mut reader).expect("read response");
            rec.end(exchange);
            let (parsed, decode_ms) =
                rec.timed("client.decode", Some(root), Some(request_id), || {
                    let text = std::str::from_utf8(&response.body).ok()?;
                    let doc = Json::parse(text).ok()?;
                    wire::parse_response(&doc).ok()
                });
            let total_ms = rec.end(root);
            attempted += 1;
            let ok = response.status == 200
                && parsed.as_ref().is_some_and(|r| {
                    observed_count(&served.statements()[s], r) == Some(expected[s][b])
                });
            if !ok {
                failed += 1;
            }
            let mut sums = TreeSums::default();
            if let Some(tree) = parsed.as_ref().and_then(|r| r.trace.as_ref()) {
                walk_tree(
                    tree,
                    true,
                    exchange_start,
                    exchange,
                    request_id,
                    &mut rec,
                    &mut sums,
                );
            }
            traced_ms.push(total_ms);
            unattributed
                .push((total_ms - encode_ms - decode_ms - sums.attributed).max(0.0) / total_ms);
            per_request.push(sums);
            request_id += 1;
        }
    });
    drop((reader, writer));

    // Phase 3: in-process submit + wire codec, one thread.
    let server = std::sync::Arc::clone(served.listener.server());
    let prepared: Vec<_> = match spec.mode {
        Mode::Prepared => served
            .statements()
            .iter()
            .map(|st| {
                server
                    .prepare(&st.template_text())
                    .expect("re-prepare is a cache hit")
            })
            .collect(),
        Mode::AdHoc => Vec::new(),
    };
    let mut submit_ms: Vec<Vec<f64>> = vec![Vec::new(); pass_len];
    let (mut bind_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let (mut encode_ms, mut decode_ms, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    passes_within(phase_budget, || {
        for (i, samples) in submit_ms.iter_mut().enumerate() {
            let (s, b) = served.slot(i);
            let root = rec.begin("inproc.request", None, Some(request_id));
            let (response, submit) = rec.timed(
                "serve.submit",
                Some(root),
                Some(request_id),
                || match &served.requests {
                    Requests::Prepared(_) => server.submit(Request::prepared(
                        &prepared[s],
                        &served.statements()[s].bindings[b],
                    )),
                    Requests::AdHoc(texts) => server.submit(Request::sql(&texts[s][b])),
                },
            );
            samples.push(submit);
            attempted += 1;
            let Ok(response) = response else {
                failed += 1;
                rec.end(root);
                continue;
            };
            if response.cache_hit {
                bind_ms.push(ms(response.timings.planning));
            }
            overhead_ms.push((submit - ms(response.timings.total())).max(0.0));
            let (body, enc) = rec.timed("net.encode", Some(root), Some(request_id), || {
                let mut body = String::new();
                wire::encode_response(&response).write(&mut body);
                body
            });
            let (decoded, dec) = rec.timed("net.decode", Some(root), Some(request_id), || {
                Json::parse(&body)
                    .ok()
                    .and_then(|doc| wire::parse_response(&doc).ok())
            });
            rec.end(root);
            let ok = decoded.as_ref().is_some_and(|r| {
                observed_count(&served.statements()[s], r) == Some(expected[s][b])
            });
            if !ok {
                failed += 1;
            }
            encode_ms.push(enc);
            decode_ms.push(dec);
            bytes.push(body.len() as f64);
            request_id += 1;
        }
    });
    // Per slot: what the wire adds on top of the same request in-process.
    let wire_extra: Vec<f64> = wire_ms
        .iter()
        .zip(&submit_ms)
        .map(|(w, s)| (p50(w) - p50(s)).max(0.0))
        .collect();

    // Phases 4 and 5.
    let c = components(&served, &mut rec);

    // Phase 6.
    let probes = kernel_probes(&mut rec);

    let rebind_mismatches = rebind_probe(&served);

    let outstanding = served.server().outstanding();
    let hit_ratio = ratio(hits, wire_requests);
    let expect_hits = if spec.cache_capacity.is_some() {
        0.0
    } else {
        1.0
    };
    let invariants_hold = hit_ratio == expect_hits && outstanding == 0 && failed == 0;
    if !invariants_hold {
        eprintln!(
            "{}: invariant broken: cache_hit_ratio {hit_ratio} (want {expect_hits}), \
             arena_outstanding {outstanding}, failed {failed}",
            spec.name
        );
    }

    let tree_p50 = |f: fn(&TreeSums) -> f64| p50(&per_request.iter().map(f).collect::<Vec<_>>());
    let lanes_eval: u64 = per_request.iter().map(|t| t.lanes_evaluated).sum();
    let lanes_short: u64 = per_request.iter().map(|t| t.lanes_short_circuited).sum();
    let sql_on_path = spec.mode == Mode::AdHoc;
    let workers = spec.workers as f64;
    let value = |name: &str| -> f64 {
        match name {
            "net.wire_ms_p50" => p50(&wire_extra),
            "net.encode_ms_p50" => p50(&encode_ms),
            "net.decode_ms_p50" => p50(&decode_ms),
            "net.response_bytes_p50" => p50(&bytes),
            // Prepared requests never reach the SQL front end.
            "sql.parse_ms_p50" if sql_on_path => p50(&c.parse_ms),
            "sql.normalize_ms_p50" if sql_on_path => p50(&c.normalize_ms),
            "sql.parse_ms_p50" | "sql.normalize_ms_p50" => 0.0,
            "catalog.estimator_build_ms" => p50(&c.estimator_ms),
            "plan.plan_ms_p50" => p50(&c.plan_ms),
            "plan.plan_ms_max" => c.plan_ms.iter().copied().fold(0.0, f64::max),
            "plan.execute_ms_p50" => p50(&c.execute_ms),
            "plan.tagged_over_bdisj_geomean" => geomean(&c.tagged_over_bdisj),
            "plan.tagged_overhead_geomean" => geomean(&c.tagged_overhead),
            "serve.submit_ms_p50" => p50(&submit_ms.iter().flatten().copied().collect::<Vec<_>>()),
            "serve.bind_ms_p50" => p50(&bind_ms),
            "serve.overhead_ms_p50" => p50(&overhead_ms),
            "serve.cache_hit_ratio" => hit_ratio,
            "serve.queue_wait_ms_p50" => p50(&queue_wait_ms),
            "core.tagged_filter_self_ms" => tree_p50(|t| t.tagged_filter),
            "core.tagged_join_self_ms" => tree_p50(|t| t.tagged_join),
            "plan.scan_self_ms" => tree_p50(|t| t.scan),
            "plan.project_self_ms" => tree_p50(|t| t.project),
            "exec.filter_self_ms" => tree_p50(|t| t.filter),
            "exec.hash_join_self_ms" => tree_p50(|t| t.hash_join),
            "exec.union_self_ms" => tree_p50(|t| t.union),
            "expr.atom_self_ms" => tree_p50(|t| t.atom),
            "expr.short_circuit_ratio" => ratio(lanes_short, lanes_eval + lanes_short),
            "expr.or_fold_gelems_s" => probes.or_fold_gelems_s,
            "expr.cmp_gelems_s" => probes.cmp_gelems_s,
            "types.gather_gelems_s" => probes.gather_gelems_s,
            "types.read_bw_gb_s" => probes.read_bw_gb_s,
            "storage.build_s" => served.built.table_build_s,
            "storage.decode_gelems_s" => probes.decode_gelems_s,
            "storage.zone_skip_ratio" => ratio(
                after.zone_skipped - before.zone_skipped,
                (after.zone_skipped - before.zone_skipped)
                    + (after.zone_scanned - before.zone_scanned),
            ),
            "sched.tasks_per_req" => ratio(after.tasks - before.tasks, wire_requests),
            "sched.steals_per_req" => ratio(after.steals - before.steals, wire_requests),
            "sched.worker_busy_share" => {
                (after.busy_micros - before.busy_micros) as f64
                    / (wire_wall.as_micros() as f64 * workers)
            }
            "sched.region_waits" => (after.region_waits - before.region_waits) as f64,
            "types.arena_fresh_per_req" => {
                ratio(after.arena_fresh - before.arena_fresh, wire_requests)
            }
            "types.arena_outstanding" => outstanding as f64,
            "trace.unattributed_share" => p50(&unattributed),
            "trace.overhead_ratio" => p50(&traced_ms) / p50(&untraced).max(1e-9),
            other => unreachable!("metric {other} has no measurement"),
        }
    };
    let metrics: Vec<(String, Json)> = PER_LAYER
        .iter()
        .map(|def| (def.name.to_string(), Json::Float(value(def.name))))
        .collect();

    let dir = out_dir();
    let path = dir.join(format!("{}.trace.json", spec.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(spec.name, seed).to_string()));
    if let Err(e) = written {
        eprintln!("{}: could not write {}: {e}", spec.name, path.display());
    }
    obj(vec![
        ("metrics", Json::Object(metrics)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("invariants_hold", Json::Bool(invariants_hold)),
        ("spans", Json::Int(rec.spans.len() as i64)),
        ("rebind_mismatches", Json::Int(rebind_mismatches as i64)),
    ])
}
