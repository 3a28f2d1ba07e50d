//! # basilisk-serve — the resident serving layer
//!
//! Everything below this crate executes *one* query as fast as the
//! hardware allows; this crate is what keeps that machinery **resident**
//! and shared so a serving loop — many clients, repeated statement
//! shapes — stops paying per-request setup:
//!
//! * **One worker pool.** A [`Server`] owns a single
//!   [`WorkerPool`](basilisk_sched::WorkerPool) of parked resident
//!   threads; every request's parallel regions run on it (serialized
//!   region-at-a-time by the pool, while the serial parts of concurrent
//!   requests overlap freely). No thread is ever spawned on the request
//!   path.
//! * **Reusable execution contexts.** A pool of
//!   [`ExecContext`](basilisk_plan::ExecContext)s — session arena +
//!   deferred-result ledger — is checked out per request through a
//!   **bounded fair admission gate** ([`ServerConfig::contexts`]
//!   concurrent executions, [`ServerConfig::queue_limit`] total in
//!   flight, per-client deficit-round-robin dispatch) and swept on
//!   return, so arena steady state (`fresh() == 0`) holds across
//!   *statements*, not just across executions of one statement.
//! * **A wire-ready request surface.** [`Server::submit`] takes a
//!   [`Request`] (ad-hoc SQL or a prepared handle + params, tagged with
//!   a client id and a [`Priority`]) and returns a [`Response`] or a
//!   typed [`ServeError`] (machine-readable [`ErrorKind`], retryable
//!   flag, load snapshot on overload) — the contract the
//!   `basilisk-net` HTTP/JSON front end serializes verbatim.
//!   [`Server::sql`] / [`Server::execute_prepared`] are thin wrappers
//!   over the same path for embedded callers.
//! * **A prepared-statement plan cache.** [`Server::prepare`] normalizes
//!   literals to `?n` placeholders, plans once, and caches the parsed
//!   [`Query`](basilisk_plan::Query) + chosen
//!   [`Plan`](basilisk_plan::Plan) (tag maps included) in an LRU keyed
//!   by the normalized text; [`Server::execute_prepared`] binds fresh
//!   values and re-drives the cached plan — **zero parse, zero plan**.
//!   [`Server::sql`] normalizes its text and looks up the same cache,
//!   so a repeated shape only binds. A congruence guard re-plans the
//!   rare binding whose literal values change the predicate DAG
//!   (content interning can merge equal atoms) — before admission, so
//!   an execution context is only ever lent to a request that runs.
//! * **Observability.** [`ServeStats`] snapshots cache
//!   hits/misses/evictions, admission-queue depth and high-water mark,
//!   per-lane admission counters, and a power-of-two latency histogram.
//!   [`Server::metrics_prometheus`] renders the same numbers — plus
//!   scheduler and arena counters — in Prometheus text exposition
//!   format (the `basilisk_serve_*` / `basilisk_sched_*` /
//!   `basilisk_arena_*` families; the names are a contract, see
//!   `ROADMAP.md`). Per-request tracing is opt-in via
//!   [`Request::trace`]: the [`Response`] then carries a
//!   [`TraceSpan`](basilisk_types::TraceSpan) tree mirroring the
//!   request's phases (`parse` → `plan` → `admission_wait` →
//!   `execute`) with one child span per plan operator, including
//!   per-atom short-circuit profiles. Requests slower than
//!   [`ServerConfig::slow_threshold_micros`] land in a bounded
//!   lock-free ring ([`Server::slow_queries`], [`SlowQuery`]) with
//!   their trace attached when one was recorded.
//!
//! Concurrent output is **bit-for-bit equal** to serial single-session
//! output: requests never share mutable execution state (contexts are
//! exclusive, worker arenas belong to the pool, merges stay ordered),
//! which the repository-level soak suite (`tests/serve_concurrent.rs`)
//! pins across client counts and planner kinds.

#![forbid(unsafe_code)]

// In check builds (`--cfg basilisk_check`) the admission gate and the
// stats recorder are exposed (doc-hidden) so the `basilisk-check`
// explorer can drive the DRR protocol directly under instrumented
// schedules; normal builds keep both private.
#[cfg(not(basilisk_check))]
mod admission;
#[cfg(basilisk_check)]
#[doc(hidden)]
pub mod admission;
mod api;
mod cache;
mod server;
#[cfg(not(basilisk_check))]
mod stats;
#[cfg(basilisk_check)]
#[doc(hidden)]
pub mod stats;

pub use api::{ErrorKind, OutputColumns, Priority, Request, Response, ServeError, ServeResult};
pub use cache::Prepared;
pub use server::{Server, ServerConfig, ServerConfigBuilder};
pub use stats::{LaneStats, ServeStats, SlowQuery, LATENCY_BUCKETS};

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_catalog::Catalog;
    use basilisk_storage::TableBuilder;
    use basilisk_types::{DataType, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut b = TableBuilder::new("title")
            .column("id", DataType::Int)
            .column("year", DataType::Int)
            .column("name", DataType::Str);
        for i in 0..500i64 {
            b.push_row(vec![
                i.into(),
                (1900 + i % 120).into(),
                format!("film {}", i % 40).into(),
            ])
            .unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let mut b = TableBuilder::new("scores")
            .column("movie_id", DataType::Int)
            .column("score", DataType::Float);
        for i in 0..800i64 {
            b.push_row(vec![(i % 500).into(), ((i % 100) as f64 / 10.0).into()])
                .unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        cat
    }

    fn server() -> Server {
        Server::new(
            catalog(),
            ServerConfig::builder()
                .contexts(2)
                .workers(1)
                .build()
                .unwrap(),
        )
    }

    const Q: &str = "SELECT t.id FROM title t JOIN scores s ON t.id = s.movie_id \
                     WHERE t.year > 2000 AND s.score > 7.0 OR t.year < 1910";

    #[test]
    fn sql_hits_cache_on_repeat_and_on_same_shape() {
        let srv = server();
        let first = srv.sql(Q).unwrap();
        assert!(!first.cache_hit);
        let s = srv.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 1));
        assert_eq!(s.statements_prepared, 1);

        // Byte-identical repeat: statement-cache hit, same answer.
        let again = srv.sql(Q).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.row_count, first.row_count);

        // Same shape, different literals: normalized hit, no new plan.
        let shifted = srv
            .sql(
                "SELECT t.id FROM title t JOIN scores s ON t.id = s.movie_id \
                 WHERE t.year > 1990 AND s.score > 9.0 OR t.year < 1905",
            )
            .unwrap();
        assert!(shifted.cache_hit);
        let s = srv.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.statements_prepared, 1, "hit path does zero plan work");
        assert_eq!(s.statements_executed, 3);
        assert_eq!(srv.cached_statements(), 1);
    }

    #[test]
    fn prepare_execute_binds_params() {
        let srv = server();
        let stmt = srv.prepare(Q).unwrap();
        assert_eq!(stmt.param_count(), 3);
        let r1 = srv
            .execute_prepared(
                &stmt,
                &[Value::Int(2000), Value::Float(7.0), Value::Int(1910)],
            )
            .unwrap();
        let r2 = srv
            .execute_prepared(
                &stmt,
                &[Value::Int(1800), Value::Float(0.0), Value::Int(1800)],
            )
            .unwrap();
        assert!(r2.row_count > r1.row_count, "looser predicate, more rows");
        let s = srv.stats();
        assert_eq!(s.statements_prepared, 1, "executions planned nothing");
        // Arity errors are reported, not executed.
        assert!(srv.execute_prepared(&stmt, &[Value::Int(1)]).is_err());
        assert_eq!(srv.stats().errors, 1);
        // Same answer as the SQL path with those literals.
        let direct = srv
            .sql(
                "SELECT t.id FROM title t JOIN scores s ON t.id = s.movie_id \
                 WHERE t.year > 2000 AND s.score > 7.0 OR t.year < 1910",
            )
            .unwrap();
        assert_eq!(direct.row_count, r1.row_count);
    }

    #[test]
    fn prepare_twice_is_a_hit_and_handles_survive_eviction() {
        let srv = Server::new(
            catalog(),
            ServerConfig::builder()
                .contexts(1)
                .workers(1)
                .cache_capacity(1)
                .build()
                .unwrap(),
        );
        let a = srv
            .prepare("SELECT t.id FROM title t WHERE t.year > 2000")
            .unwrap();
        let a2 = srv
            .prepare("SELECT t.id FROM title t WHERE t.year > 1990")
            .unwrap();
        assert_eq!(a.key(), a2.key(), "same shape");
        assert_eq!(srv.stats().cache_hits, 1);
        // A second shape evicts the first (capacity 1)…
        let b = srv
            .prepare("SELECT t.id FROM title t WHERE t.year < 1920")
            .unwrap();
        assert_eq!(srv.stats().cache_evictions, 1);
        assert_eq!(srv.cached_statements(), 1);
        // …but the held handle still executes without replanning.
        let r = srv.execute_prepared(&a, &[Value::Int(2000)]).unwrap();
        assert!(r.row_count > 0);
        let r = srv.execute_prepared(&b, &[Value::Int(1920)]).unwrap();
        assert!(r.row_count > 0);
        assert_eq!(
            srv.stats().statements_prepared,
            2,
            "evictions never force a held handle to replan"
        );
    }

    #[test]
    fn value_coincident_binding_replans_safely() {
        let srv = server();
        // Template with two distinct atoms over the same column.
        let stmt = srv
            .prepare("SELECT t.id FROM title t WHERE t.year > 2000 OR t.year > 1910")
            .unwrap();
        let planned_before = srv.stats().statements_prepared;
        // Bind both parameters to the SAME value: the two atoms intern to
        // one node, the DAG changes, and the cached plan must not be
        // driven over the rebound tree.
        let r = srv
            .execute_prepared(&stmt, &[Value::Int(1950), Value::Int(1950)])
            .unwrap();
        let direct = srv
            .sql("SELECT t.id FROM title t WHERE t.year > 1950 OR t.year > 1950")
            .unwrap();
        assert_eq!(r.row_count, direct.row_count);
        assert!(
            srv.stats().statements_prepared > planned_before,
            "non-congruent binding re-planned"
        );
        // A congruent binding afterwards still reuses the cached plan.
        let planned = srv.stats().statements_prepared;
        let r = srv
            .execute_prepared(&stmt, &[Value::Int(2000), Value::Int(1910)])
            .unwrap();
        assert!(r.row_count > 0);
        assert_eq!(srv.stats().statements_prepared, planned);
    }

    /// Binding NULL into a statement planned two-valued must upgrade to
    /// a three-valued re-plan: `t.year > NULL` is unknown on every row,
    /// and only 3VL tag maps keep such rows alive for the other
    /// disjunct. The answer must match both SQL semantics and the
    /// literal-NULL text form.
    #[test]
    fn null_binding_upgrades_to_three_valued() {
        let srv = server();
        let stmt = srv
            .prepare("SELECT t.id FROM title t WHERE t.year > 2100 OR t.id < 7")
            .unwrap();
        let planned = srv.stats().statements_prepared;
        let null_bound = srv
            .execute_prepared(&stmt, &[Value::Null, Value::Int(7)])
            .unwrap();
        // year > NULL is unknown everywhere; id < 7 keeps rows 0..=6.
        assert_eq!(null_bound.row_count, 7, "unknown OR true must keep the row");
        assert!(
            !null_bound.cache_hit,
            "NULL binding cannot reuse the 2VL plan"
        );
        assert!(
            srv.stats().statements_prepared > planned,
            "NULL binding re-planned three-valued"
        );
        drop(null_bound);
        // The literal-NULL text form agrees (exercises the session-level
        // NULL-literal detection on a fresh plan).
        let direct = srv
            .sql("SELECT t.id FROM title t WHERE t.year > NULL OR t.id < 7")
            .unwrap();
        assert_eq!(direct.row_count, 7);
        drop(direct);
        // A non-NULL rebinding of the same handle still reuses the plan.
        let planned = srv.stats().statements_prepared;
        let rebound = srv
            .execute_prepared(&stmt, &[Value::Int(2100), Value::Int(7)])
            .unwrap();
        assert_eq!(rebound.row_count, 7);
        assert_eq!(srv.stats().statements_prepared, planned);
        // Live results pin their pooled columns (and a shadowed binding
        // would stay live to end of scope!); release explicitly before
        // the leak check.
        drop(rebound);
        assert_eq!(srv.outstanding(), 0);
    }

    #[test]
    fn count_star_limit_and_star_lowering() {
        let srv = server();
        let c = srv
            .sql("SELECT COUNT(*) FROM title t WHERE t.year > 2000")
            .unwrap();
        assert_eq!(c.row_count, 1);
        assert_eq!(c.columns.len(), 1);
        let star = srv.sql("SELECT * FROM title t LIMIT 7").unwrap();
        assert_eq!(star.row_count, 7);
        assert_eq!(star.columns.len(), 3, "star expanded at prepare time");
        assert_eq!(star.columns[0].1.len(), 7, "limit gathered");
        // Different LIMIT is a different shape (never a stale hit).
        let star3 = srv.sql("SELECT * FROM title t LIMIT 3").unwrap();
        assert!(!star3.cache_hit);
        assert_eq!(star3.row_count, 3);
    }

    #[test]
    fn errors_surface_and_leak_nothing() {
        let srv = server();
        assert!(srv.sql("SELECT * FROM nope").is_err());
        assert!(srv.sql("SELECT broken").is_err());
        assert!(srv.prepare("SELECT * FROM title t WHERE t.zz > 1").is_err());
        // Type error at bind time (LIKE bound to an int).
        let stmt = srv
            .prepare("SELECT t.id FROM title t WHERE t.name LIKE '%film%'")
            .unwrap();
        assert!(srv.execute_prepared(&stmt, &[Value::Int(3)]).is_err());
        // Runtime type error (string column vs int literal) — after a
        // successful prepare of a congruent shape.
        let stmt = srv
            .prepare("SELECT t.id FROM title t WHERE t.name > 'zzz'")
            .unwrap();
        assert!(srv.execute_prepared(&stmt, &[Value::Int(9)]).is_err());
        assert!(srv.stats().errors >= 4);
        assert_eq!(srv.outstanding(), 0, "error paths strand no buffers");
    }

    #[test]
    fn admission_rejects_beyond_queue_limit() {
        // queue_limit 1 with a held context: a second concurrent request
        // must be rejected, not queued forever.
        let srv = std::sync::Arc::new(Server::new(
            catalog(),
            ServerConfig::builder()
                .contexts(1)
                .queue_limit(1)
                .workers(1)
                .build()
                .unwrap(),
        ));
        // Saturate from another thread by running many queries while the
        // main thread hammers; with limit 1, at least one side must see a
        // rejection OR all succeed serially — assert the invariant that
        // rejections are counted iff they errored with "busy".
        let srv2 = std::sync::Arc::clone(&srv);
        let h = std::thread::spawn(move || {
            let mut busy = 0u64;
            for _ in 0..50 {
                match srv2.sql(Q) {
                    Ok(_) => {}
                    Err(e) => {
                        assert!(e.to_string().contains("busy"), "{e}");
                        busy += 1;
                    }
                }
            }
            busy
        });
        let mut busy = 0u64;
        for _ in 0..50 {
            match srv.sql(Q) {
                Ok(_) => {}
                Err(e) => {
                    assert!(e.to_string().contains("busy"), "{e}");
                    busy += 1;
                }
            }
        }
        busy += h.join().unwrap();
        let s = srv.stats();
        assert_eq!(s.rejected, busy, "every rejection was counted");
        assert_eq!(s.queue_depth, 0, "system drained");
        assert!(s.queue_high_water <= 1);
        assert_eq!(s.statements_executed + s.rejected, 100);
    }

    #[test]
    fn stats_latency_histogram_records_queries() {
        let srv = server();
        for _ in 0..5 {
            srv.sql(Q).unwrap();
        }
        let s = srv.stats();
        assert_eq!(s.latency_count(), 5);
        assert!(s.mean_latency() > std::time::Duration::ZERO);
        assert!(s.quantile_latency(1.0) >= s.quantile_latency(0.5));
    }

    #[test]
    fn traced_request_attaches_well_formed_span_tree() {
        let srv = server();
        let untraced = srv.sql(Q).unwrap();
        let traced = srv.submit(Request::sql(Q).trace(true)).unwrap();
        assert_eq!(
            traced.row_count, untraced.row_count,
            "tracing must not change the answer"
        );
        let root = traced.trace.as_ref().expect("trace requested");
        assert_eq!(root.name, "request");
        assert!(root.is_well_formed());
        // The cache-hit path normalizes under `parse`, then binds under
        // `plan`, waits and executes.
        let plan = root.child("plan").expect("plan span");
        assert_eq!(plan.int("cache_hit"), Some(1));
        assert_eq!(plan.int("rebind"), Some(0));
        let wait = root.child("admission_wait").expect("admission span");
        assert_eq!(wait.str_attr("lane"), Some(""));
        assert_eq!(wait.str_attr("priority"), Some("normal"));
        let exec = root.child("execute").expect("execute span");
        assert!(exec.int("rows").is_some());
        // Operator spans nest under "execute" and mirror the plan tree.
        assert!(!exec.descendants("scan").is_empty());
        let filters: Vec<_> = exec
            .descendants("tagged_filter")
            .into_iter()
            .chain(exec.descendants("filter"))
            .collect();
        assert!(!filters.is_empty(), "predicate query records filter spans");
        for f in &filters {
            assert!(!f.descendants("atom").is_empty(), "atom profiles attached");
        }

        // A cold shape records the parse span too.
        let cold = srv
            .submit(Request::sql("SELECT t.id FROM title t WHERE t.year > 1999").trace(true))
            .unwrap();
        let root = cold.trace.as_ref().unwrap();
        assert!(root.child("parse").is_some(), "cache miss parses");
        assert_eq!(root.child("plan").unwrap().int("cache_hit"), Some(0));

        // Untraced requests carry no tree.
        assert!(srv.sql(Q).unwrap().trace.is_none());
        // Live responses pin their pooled columns; release before the
        // leak check.
        drop((untraced, traced, cold));
        assert_eq!(srv.outstanding(), 0);
    }

    /// A cache miss plans under the request's one `plan` span, so a cold
    /// traced request is accounted for by its children even though
    /// planning a 4-clause DNF under TCombined is most of its time.
    #[test]
    fn cold_traced_request_plans_inside_its_plan_span() {
        let srv = server();
        let sql = "SELECT t.id FROM title t JOIN scores s ON t.id = s.movie_id \
                   WHERE (t.year > 2000 AND s.score > 7.0) OR (t.year > 1990 AND s.score > 8.5) \
                   OR (t.year < 1910 AND s.score < 1.0) OR (t.name LIKE 'film 1%' AND s.score > 9.0)";
        let cold = Request::sql(sql).planner(basilisk_plan::PlannerKind::TCombined);
        let r = srv.submit(cold.trace(true)).unwrap();
        let root = r.trace.as_ref().unwrap();
        assert!(root.is_well_formed());
        let plans: Vec<_> = root.children.iter().filter(|c| c.name == "plan").collect();
        assert_eq!(plans.len(), 1, "one plan span per request");
        assert_eq!(plans[0].int("cache_hit"), Some(0));
        assert_eq!(plans[0].int("rebind"), Some(0));
        let covered: u64 = root.children.iter().map(|c| c.duration_micros).sum();
        let outside = root.duration_micros.saturating_sub(covered);
        assert!(
            outside * 4 <= root.duration_micros,
            "{outside} of {} µs outside every child span",
            root.duration_micros
        );
    }

    /// A binding the cached plan cannot serve re-plans under the
    /// request's one `plan` span, before admission, so a traced rebound
    /// request is accounted for by its children just like a cold one.
    #[test]
    fn rebound_traced_request_replans_inside_its_plan_span() {
        let srv = server();
        let stmt = srv
            .prepare(
                "SELECT t.id FROM title t JOIN scores s ON t.id = s.movie_id \
                 WHERE (t.year > 2000 AND s.score > 7.0) OR (t.year > 1990 AND s.score > 8.5) \
                 OR (t.year < 1910 AND s.score < 1.0) OR (t.name LIKE 'film 1%' AND s.score > 9.0)",
            )
            .unwrap();
        assert_eq!(stmt.param_count(), 8);
        // `t.year > 1995` twice: the two atoms intern to one node, so the
        // cached plan's DAG no longer matches and the request re-plans.
        let params = [
            Value::Int(1995),
            Value::Float(7.0),
            Value::Int(1995),
            Value::Float(8.5),
            Value::Int(1910),
            Value::Float(1.0),
            Value::Str("film 1%".into()),
            Value::Float(9.0),
        ];
        let planned = srv.stats().statements_prepared;
        let r = srv
            .submit(Request::prepared(&stmt, &params).trace(true))
            .unwrap();
        assert!(!r.cache_hit);
        assert_eq!(srv.stats().statements_prepared, planned + 1, "re-planned");
        let root = r.trace.as_ref().unwrap();
        assert!(root.is_well_formed());
        let plans: Vec<_> = root.children.iter().filter(|c| c.name == "plan").collect();
        assert_eq!(plans.len(), 1, "one plan span per request");
        assert_eq!(plans[0].int("cache_hit"), Some(0));
        assert_eq!(plans[0].int("rebind"), Some(1));
        let covered: u64 = root.children.iter().map(|c| c.duration_micros).sum();
        let outside = root.duration_micros.saturating_sub(covered);
        assert!(
            outside * 4 <= root.duration_micros,
            "{outside} of {} µs outside every child span",
            root.duration_micros
        );
    }

    #[test]
    fn slow_query_ring_records_and_stays_bounded() {
        let srv = Server::new(
            catalog(),
            ServerConfig::builder()
                .contexts(1)
                .workers(1)
                .slow_threshold_micros(0) // record every request
                .slow_log_capacity(3)
                .build()
                .unwrap(),
        );
        for i in 0..5 {
            let traced = i % 2 == 0;
            srv.submit(Request::sql(Q).trace(traced)).unwrap();
        }
        let slow = srv.slow_queries();
        assert_eq!(slow.len(), 3, "ring keeps the newest `capacity` entries");
        // Newest first, strictly decreasing sequence numbers.
        assert!(slow.windows(2).all(|w| w[0].0 > w[1].0));
        assert_eq!(slow[0].0, 4, "five requests pushed, newest seq is 4");
        for (seq, q) in &slow {
            assert_eq!(q.statement, slow[0].1.statement, "same normalized shape");
            assert_eq!(q.priority, "normal");
            // Even requests were traced; the ring preserves the tree.
            assert_eq!(q.trace.is_some(), seq % 2 == 0);
        }
        assert!(
            srv.metrics_prometheus()
                .contains("basilisk_serve_slow_recorded_total 5"),
            "total-ever-recorded survives ring wraparound"
        );

        // The default threshold (10ms) should not trip on this tiny
        // catalog… but a u64::MAX threshold definitely never records.
        let quiet = Server::new(
            catalog(),
            ServerConfig::builder()
                .contexts(1)
                .workers(1)
                .slow_threshold_micros(u64::MAX)
                .build()
                .unwrap(),
        );
        quiet.sql(Q).unwrap();
        assert!(quiet.slow_queries().is_empty());
    }

    #[test]
    fn metrics_exposition_covers_serve_sched_and_arena() {
        let srv = server();
        for _ in 0..3 {
            srv.sql(Q).unwrap();
        }
        srv.submit(Request::sql(Q).client("alice").trace(true))
            .unwrap();
        let text = srv.metrics_prometheus();
        for family in [
            "basilisk_serve_cache_hits_total",
            "basilisk_serve_cache_misses_total",
            "basilisk_serve_statements_executed_total",
            "basilisk_serve_latency_micros_bucket",
            "basilisk_serve_latency_micros_count",
            "basilisk_serve_lane_admitted_total",
            "basilisk_sched_workers",
            "basilisk_sched_tasks_total",
            "basilisk_sched_region_wait_micros_sum",
            "basilisk_arena_outstanding",
            "basilisk_arena_fresh_total",
            "basilisk_storage_skipped_morsels_total",
            "basilisk_storage_scanned_morsels_total",
        ] {
            assert!(text.contains(family), "missing family {family}:\n{text}");
        }
        assert!(
            text.contains("basilisk_serve_lane_admitted_total{client=\"alice\"}"),
            "per-lane labels present:\n{text}"
        );
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (metric, value) = line.rsplit_once(' ').expect("name value");
            assert!(!metric.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
        }
        // Executed count round-trips through the exposition.
        assert!(text.contains(&format!(
            "basilisk_serve_statements_executed_total {}",
            srv.stats().statements_executed
        )));
    }
}
