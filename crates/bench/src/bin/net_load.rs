//! Loopback load harness for the HTTP/JSON wire front end.
//!
//! Boots a [`basilisk::Listener`] on an ephemeral loopback port, fans
//! `--clients` real TCP clients at it — each mixing prepared-statement
//! executions and ad-hoc SQL, tagged with its own client id so every
//! connection gets its own fairness lane — and reports client-observed
//! p50/p99/max latency plus the server's own serving stats.
//!
//! Every ad-hoc statement is followed by its `COUNT(*)` twin, whose
//! count must equal the row statement's `row_count` (twins are checked,
//! not timed).
//!
//! The CI `net-smoke` job runs this in release mode with
//! `BASILISK_THREADS=4` and a generous `--max-p99-micros` ceiling; the
//! harness exits non-zero when the ceiling is exceeded or any serving
//! invariant breaks (errors, rejections, undrained queues, leaked
//! arena buffers, a count that disagrees with its rows).
//!
//! ```text
//! net_load [--clients 8] [--requests 64] [--max-p99-micros N]
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use basilisk::{Client, Database, ServerConfig, Value};
use basilisk_bench::Args;
use basilisk_workload::{generate_imdb, generate_synthetic, ImdbConfig, SyntheticConfig};

const PREPARED_SHAPE: &str =
    "SELECT t.id FROM title t JOIN movie_info_idx mi ON t.id = mi.movie_id \
     WHERE t.production_year > 1990 OR mi.info > '7.0'";

/// The `r`-th ad-hoc statement, projecting `projection`.
fn ad_hoc(r: usize, projection: &str) -> String {
    format!(
        "SELECT {projection} FROM title t \
         WHERE t.production_year > {} OR t.title LIKE '%x{}%'",
        1950 + (r % 50),
        r % 7
    )
}

fn main() {
    let args = Args::parse();
    let clients = args.get_usize("--clients", 8);
    let requests = args.get_usize("--requests", 64);
    let max_p99_micros = args
        .get("--max-p99-micros")
        .map(|v| v.parse::<u64>().expect("bad --max-p99-micros"));

    let mut db = Database::new();
    for t in generate_synthetic(&SyntheticConfig {
        rows: 400,
        num_attrs: 3,
        ..SyntheticConfig::default()
    })
    .expect("synthetic tables")
    {
        db.register(t).expect("register");
    }
    for t in generate_imdb(&ImdbConfig {
        scale: 0.05,
        seed: 7,
    })
    .expect("imdb tables")
    {
        db.register(t).expect("register");
    }
    let listener = db
        .listen_with(
            "127.0.0.1:0",
            ServerConfig::builder()
                .contexts(clients.max(2))
                .build()
                .expect("static sizing is valid"),
        )
        .expect("bind loopback listener");
    let addr = listener.local_addr();
    println!("net_load: {clients} clients x {requests} requests against {addr}");

    // Warm the plan cache so the measured window is the steady serving
    // state, not first-statement planning.
    {
        let mut warm = Client::connect(addr).expect("warm client");
        let stmt = warm.prepare(PREPARED_SHAPE).expect("warm prepare");
        warm.execute(stmt, &[Value::Int(1990), Value::from("7.0")])
            .expect("warm execute");
        warm.sql(&ad_hoc(0, "t.id, t.title")).expect("warm sql");
        warm.sql(&ad_hoc(0, "COUNT(*)")).expect("warm count");
    }

    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr)
                    .expect("connect")
                    .with_client_id(format!("load-{c}"));
                let stmt = client.prepare(PREPARED_SHAPE).expect("prepare");
                let mut latencies = Vec::with_capacity(requests);
                let mut rows = 0usize;
                let mut count_mismatches = Vec::new();
                for r in 0..requests {
                    let t = Instant::now();
                    let ad_hoc_row = (c + r) % 2 == 1;
                    let resp = if ad_hoc_row {
                        client
                            .sql(&ad_hoc(c * requests + r, "t.id, t.title"))
                            .expect("sql")
                    } else {
                        let params = [
                            Value::Int(1950 + (r % 60) as i64),
                            Value::from(format!("{}.{}", 5 + r % 5, r % 10)),
                        ];
                        client.execute(stmt, &params).expect("execute")
                    };
                    latencies.push(t.elapsed().as_micros().min(u64::MAX as u128) as u64);
                    rows += resp.row_count;
                    if ad_hoc_row {
                        let twin = ad_hoc(c * requests + r, "COUNT(*)");
                        let counted = client.sql(&twin).expect("count sql");
                        let count = match counted.columns.first().and_then(|(_, v)| v.first()) {
                            Some(Value::Int(n)) => usize::try_from(*n).ok(),
                            _ => None,
                        };
                        if count != Some(resp.row_count) {
                            count_mismatches.push(format!(
                                "{twin}: counted {count:?}, rows {}",
                                resp.row_count
                            ));
                        }
                    }
                }
                (latencies, rows, count_mismatches)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(clients * requests);
    let mut rows = 0usize;
    let mut count_mismatches = Vec::new();
    for h in handles {
        let (l, r, m) = h.join().expect("client thread");
        latencies.extend(l);
        rows += r;
        count_mismatches.extend(m);
    }
    let wall = t0.elapsed();

    latencies.sort_unstable();
    let q = |f: f64| latencies[((latencies.len() - 1) as f64 * f) as usize];
    let (p50, p99, max) = (q(0.50), q(0.99), *latencies.last().expect("non-empty"));
    let total = latencies.len();
    println!(
        "client-side: {total} requests, {rows} rows, {:.0} req/s",
        total as f64 / wall.as_secs_f64()
    );
    println!("  p50 {p50} us   p99 {p99} us   max {max} us");

    let stats = listener.server().stats();
    println!(
        "server-side: {} executed ({} hits / {} misses), p50 {:?} p99 {:?}",
        stats.statements_executed,
        stats.cache_hits,
        stats.cache_misses,
        stats.quantile_latency(0.50),
        stats.quantile_latency(0.99),
    );
    for lane in &stats.lanes {
        println!(
            "  lane {:<10} admitted {:<5} dispatched {:<5} max_depth {}",
            lane.client, lane.admitted, lane.dispatched, lane.max_depth
        );
    }

    // Pull the Prometheus exposition and the slow-query ring over the
    // wire and validate their shape — the net-smoke job's check that
    // the observability endpoints stay well-formed under real load.
    let mut probe = Client::connect(addr).expect("metrics client");
    let metrics = probe.metrics().expect("GET /v1/metrics");
    let slow = probe.slow().expect("GET /v1/slow");

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };
    check(stats.errors == 0, "server counted errors");
    check(stats.rejected == 0, "server rejected requests");
    check(stats.queue_depth == 0, "admission queue did not drain");
    check(stats.region_waits == 0, "parallel regions waited for slots");
    check(listener.server().outstanding() == 0, "arena buffers leaked");
    for mismatch in &count_mismatches {
        check(
            false,
            &format!("COUNT(*) twin disagrees with its rows: {mismatch}"),
        );
    }
    if let Some(ceiling) = max_p99_micros {
        check(
            p99 <= ceiling,
            &format!("client p99 {p99} us exceeds ceiling {ceiling} us"),
        );
    }
    for family in [
        "basilisk_serve_statements_executed_total",
        "basilisk_serve_cache_hits_total",
        "basilisk_serve_latency_micros_bucket",
        "basilisk_serve_lane_admitted_total",
        "basilisk_sched_workers",
        "basilisk_sched_tasks_total",
        "basilisk_arena_outstanding",
    ] {
        check(
            metrics.contains(family),
            &format!("metrics exposition missing family {family}"),
        );
    }
    for line in metrics.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let well_formed = line
            .rsplit_once(' ')
            .is_some_and(|(name, value)| !name.is_empty() && value.parse::<f64>().is_ok());
        check(well_formed, &format!("malformed exposition line: {line}"));
    }
    check(
        metrics.contains(&format!(
            "basilisk_serve_statements_executed_total {}",
            stats.statements_executed
        )),
        "exposition disagrees with the stats snapshot on statements_executed",
    );
    check(
        slow.get("ok").and_then(basilisk::Json::as_bool) == Some(true)
            && slow
                .get("slow")
                .and_then(basilisk::Json::as_array)
                .is_some(),
        "slow-query document malformed",
    );
    drop(listener);
    if failed {
        std::process::exit(1);
    }
    println!("net_load: ok");
}
