//! The ISSUE-2/ISSUE-3 acceptance test: steady-state execution is
//! allocation-free — **including join-output index columns**.
//!
//! A `QuerySession` owns one `MaskArena` (with its `ColumnPool`); the
//! first `execute()` of a plan warms the pool and every later execution
//! must be served entirely from recycled buffers. `ArenaStats::fresh()`
//! counts pool misses — i.e. the buffer allocations the word-parallel
//! path would otherwise perform — so `fresh() == 0` across a run *is*
//! the zero-allocation proof for every mask, slice bitmap, selection
//! bitmap, index decode buffer, scan identity column, joined index
//! column and union output column on the hot path. (Value-column
//! materializations — gathered key/predicate values, projected outputs —
//! are outside the pools' scope and not claimed here.)
//!
//! Result columns escape to the caller inside `QueryOutput` and are
//! reclaimed (via `Arc::try_unwrap`) on the next `execute()` once the
//! caller drops the output — the serving loop modelled here: each
//! iteration consumes the result (extracts its tuples) and releases it.

use basilisk_catalog::Catalog;
use basilisk_expr::{and, col, or, ColumnRef};
use basilisk_plan::{PlannerKind, Query, QuerySession};
use basilisk_storage::TableBuilder;
use basilisk_types::{DataType, Value};
use basilisk_workload::{cnf_query, dnf_query, generate_synthetic, SyntheticConfig};

fn catalog(with_nulls: bool) -> Catalog {
    let mut cat = Catalog::new();
    let mut b = TableBuilder::new("title")
        .column("id", DataType::Int)
        .column("year", DataType::Int);
    for i in 0..4000i64 {
        let year = if with_nulls && i % 37 == 0 {
            Value::Null
        } else {
            Value::Int(1900 + i % 120)
        };
        b.push_row(vec![i.into(), year]).unwrap();
    }
    cat.add_table(b.finish().unwrap()).unwrap();
    let mut b = TableBuilder::new("scores")
        .column("movie_id", DataType::Int)
        .column("score", DataType::Float);
    for i in 0..6000i64 {
        b.push_row(vec![(i % 4000).into(), ((i % 100) as f64 / 10.0).into()])
            .unwrap();
    }
    cat.add_table(b.finish().unwrap()).unwrap();
    cat
}

fn filter_query() -> Query {
    Query::new(vec![("t".into(), "title".into())])
        .filter(or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("t", "id").lt(3000i64),
            ]),
            and(vec![
                col("t", "year").lt(1950i64),
                col("t", "id").gt(500i64),
            ]),
            col("t", "year").eq(1980i64),
        ]))
        .select(vec![ColumnRef::new("t", "id")])
}

fn join_query() -> Query {
    Query::new(vec![
        ("t".into(), "title".into()),
        ("mi".into(), "scores".into()),
    ])
    .join(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id"))
    .filter(or(vec![
        and(vec![
            col("t", "year").gt(2000i64),
            col("mi", "score").gt(7.0),
        ]),
        and(vec![
            col("t", "year").gt(1980i64),
            col("mi", "score").gt(8.0),
        ]),
    ]))
    .select(vec![ColumnRef::new("t", "id")])
}

/// One serving iteration: execute, extract the canonical result tuples,
/// release the `QueryOutput` (so the pool can reclaim its columns on the
/// next run).
fn serve(session: &QuerySession, plan: &basilisk_plan::Plan) -> Vec<Vec<u32>> {
    session.execute(plan).unwrap().canonical_tuples()
}

/// Run `plan` repeatedly on a fresh session; every run after the warmup
/// must perform zero fresh buffer checkouts — across **all four** pooled
/// shapes, output index columns included — while producing the identical
/// result.
fn assert_steady_state(query: Query, kind: PlannerKind) {
    let cat = catalog(false);
    let session = QuerySession::new(&cat, query).unwrap();
    let plan = session.plan(kind).unwrap();

    let first = serve(&session, &plan);
    let warmup = session.arena_stats();
    assert!(
        warmup.fresh() > 0,
        "warmup run should populate the pool ({kind})"
    );

    session.reset_arena_stats();
    let second = serve(&session, &plan);
    let steady = session.arena_stats();
    assert_eq!(
        steady.fresh(),
        0,
        "steady-state execution must be allocation-free, \
         but {kind} checked out {} fresh buffers (stats: {steady:?})",
        steady.fresh()
    );
    assert_eq!(
        steady.columns.fresh, 0,
        "join/union/select output columns must come from the pool ({kind})"
    );
    assert!(
        steady.reused() > 0,
        "steady-state execution should reuse pooled buffers ({kind})"
    );
    assert_eq!(
        first, second,
        "buffer reuse must not change results ({kind})"
    );

    // And it stays allocation-free on every further run.
    for _ in 0..3 {
        session.reset_arena_stats();
        serve(&session, &plan);
        assert_eq!(session.arena_stats().fresh(), 0, "run N stays at zero");
    }

    assert_count_steady_state(&session, &plan, first.len());
}

/// The count path draws on the same pools: once warm, counting `plan`
/// checks out nothing fresh, keeps nothing outstanding, and counts
/// `rows`.
fn assert_count_steady_state(session: &QuerySession, plan: &basilisk_plan::Plan, rows: usize) {
    assert_eq!(session.count(plan, None).unwrap(), rows);
    for _ in 0..3 {
        session.reset_arena_stats();
        assert_eq!(session.count(plan, None).unwrap(), rows);
        let stats = session.arena_stats();
        assert_eq!(
            stats.fresh(),
            0,
            "counting must be allocation-free ({stats:?})"
        );
        assert_eq!(session.arena().outstanding(), 0);
    }
}

#[test]
fn tagged_filter_pipeline_is_allocation_free_in_steady_state() {
    assert_steady_state(filter_query(), PlannerKind::TPushdown);
}

#[test]
fn tagged_filter_join_pipeline_is_allocation_free_in_steady_state() {
    assert_steady_state(join_query(), PlannerKind::TCombined);
}

#[test]
fn traditional_pipeline_is_allocation_free_in_steady_state() {
    assert_steady_state(join_query(), PlannerKind::BPushConj);
}

/// BDisj plans a filter→join→**union** pipeline (one joined clause per
/// root disjunct, deduplicated) — the union's output columns and its
/// dedup scratch must be pooled too.
#[test]
fn union_pipeline_is_allocation_free_in_steady_state() {
    assert_steady_state(join_query(), PlannerKind::BDisj);
}

/// NULL-bearing data routes tuples through the unknown slice; the extra
/// unk bitmaps must recycle just like pos/neg.
#[test]
fn three_valued_pipeline_is_allocation_free_in_steady_state() {
    let cat = catalog(true);
    let session = QuerySession::new(&cat, filter_query()).unwrap();
    let plan = session.plan(PlannerKind::TPushdown).unwrap();
    session.execute(&plan).unwrap();
    session.reset_arena_stats();
    session.execute(&plan).unwrap();
    assert_eq!(session.arena_stats().fresh(), 0);
}

/// The §5.2 synthetic DNF over Zipf joins: tagged joins over several
/// slices per side, whose per-tuple slice membership is pooled scratch
/// like everything else — rows and counts alike.
#[test]
fn synthetic_tagged_joins_are_allocation_free_in_steady_state() {
    let mut cat = Catalog::new();
    let cfg = SyntheticConfig {
        rows: 500,
        num_attrs: 3,
        ..SyntheticConfig::default()
    };
    for t in generate_synthetic(&cfg).unwrap() {
        cat.add_table(t).unwrap();
    }
    for query in [dnf_query(3, 0.3, None), cnf_query(2, 0.3, None)] {
        let session = QuerySession::new(&cat, query).unwrap().with_workers(1);
        let plan = session.plan(PlannerKind::TPushdown).unwrap();
        let rows = serve(&session, &plan).len();
        serve(&session, &plan);
        session.reset_arena_stats();
        serve(&session, &plan);
        let stats = session.arena_stats();
        assert_eq!(stats.fresh(), 0, "a join run allocated ({stats:?})");
        assert!(stats.indices.reused > 0, "membership comes from the pool");
        assert_count_steady_state(&session, &plan, rows);
    }
}

/// While the caller still holds a `QueryOutput`, its columns must stay
/// intact (deferred, not reclaimed); they return to the pool only after
/// the caller releases the result.
#[test]
fn held_results_are_not_corrupted_by_reuse() {
    let cat = catalog(false);
    let session = QuerySession::new(&cat, join_query()).unwrap();
    let plan = session.plan(PlannerKind::TCombined).unwrap();
    let held = session.execute(&plan).unwrap();
    let snapshot = held.canonical_tuples();
    // Re-execute twice while `held` is alive: the pool may allocate
    // replacements for the escaped columns, but must never reuse them.
    let again = session.execute(&plan).unwrap();
    session.execute(&plan).unwrap();
    assert_eq!(held.canonical_tuples(), snapshot);
    assert_eq!(again.canonical_tuples(), snapshot);
}

/// Different planners share the session pool: after one planner warms it,
/// a same-shaped plan from another planner also runs allocation-free only
/// if its shapes fit — at minimum it must never *grow* the pool once the
/// largest shapes are in.
#[test]
fn pool_survives_planner_switch() {
    let cat = catalog(false);
    let session = QuerySession::new(&cat, join_query()).unwrap();
    for kind in [
        PlannerKind::TPushdown,
        PlannerKind::TCombined,
        PlannerKind::TPullup,
    ] {
        let plan = session.plan(kind).unwrap();
        session.execute(&plan).unwrap();
        session.reset_arena_stats();
        session.execute(&plan).unwrap();
        assert_eq!(
            session.arena_stats().fresh(),
            0,
            "planner {kind} not allocation-free on rerun"
        );
    }
}
