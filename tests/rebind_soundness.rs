//! Rebinding a cached plan must never change a result.
//!
//! A tagged plan's tag maps bake in the implications between the
//! prepare-time literals (`year > 2011 ⇒ year > 1986`). Two statements
//! of one normalized shape share a cache entry, so a binding whose
//! literals order differently must be re-planned, not re-driven — and a
//! binding that preserves the order must stay a cache hit.

use std::fmt::Write as _;

use basilisk::{
    and, col, or, Catalog, ColumnRef, DataType, PlannerKind, Query, QuerySession, Server,
    ServerConfig, TableBuilder,
};
use basilisk_workload::{generate_imdb, job_query, ImdbConfig};
use proptest::prelude::*;

/// `query` as `SELECT COUNT(*)` text (`Expr`'s `Display` parenthesizes
/// by precedence, so the parser rebuilds the same tree).
fn count_sql(query: &Query) -> String {
    let (alias, table) = &query.aliases[0];
    let mut sql = format!("SELECT COUNT(*) FROM {table} AS {alias}");
    for ((alias, table), join) in query.aliases[1..].iter().zip(&query.joins) {
        let _ = write!(sql, " JOIN {table} AS {alias} ON {join}");
    }
    if let Some(p) = &query.predicate {
        let _ = write!(sql, " WHERE {p}");
    }
    sql
}

fn server(cat: &Catalog) -> Server {
    let config = ServerConfig::builder()
        .contexts(1)
        .workers(1)
        .default_planner(PlannerKind::TCombined)
        .build()
        .unwrap();
    Server::new(cat.clone(), config)
}

/// What a session that has never seen another binding returns.
fn fresh_count(cat: &Catalog, query: &Query) -> i64 {
    let session = QuerySession::new(cat, query.clone()).unwrap();
    let plan = session.plan(PlannerKind::BDisj).unwrap();
    session.execute(&plan).unwrap().count() as i64
}

fn served_count(srv: &Server, query: &Query) -> (i64, bool) {
    let r = srv.sql(&count_sql(query)).unwrap();
    (r.columns[0].1.as_ints().unwrap()[0], r.cache_hit)
}

/// The pair the end-to-end benchmark found (its README, finding 1):
/// `job_queries(42)` groups 2 and 26 normalize to one shape whose year
/// thresholds order differently, and the second used to be answered
/// from the first's tag maps.
#[test]
fn job_groups_2_and_26_share_a_shape_not_a_plan() {
    let mut cat = Catalog::new();
    let cfg = ImdbConfig {
        scale: 0.3,
        seed: 42,
    };
    for t in generate_imdb(&cfg).unwrap() {
        cat.add_table(t).unwrap();
    }
    let srv = server(&cat);
    let (first, second) = (job_query(2, 42).query, job_query(26, 42).query);
    assert_eq!(served_count(&srv, &first).0, fresh_count(&cat, &first));
    let (count, cache_hit) = served_count(&srv, &second);
    assert_eq!(
        srv.cached_statements(),
        1,
        "the pair is one statement shape"
    );
    assert_eq!(count, fresh_count(&cat, &second));
    assert!(!cache_hit, "a re-planned binding is not a cache hit");
}

fn years_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut b = TableBuilder::new("title")
        .column("id", DataType::Int)
        .column("year", DataType::Int);
    for i in 0..400i64 {
        b.push_row(vec![i.into(), (1950 + (i * 7) % 70).into()])
            .unwrap();
    }
    cat.add_table(b.finish().unwrap()).unwrap();
    let mut b = TableBuilder::new("scores")
        .column("movie_id", DataType::Int)
        .column("score", DataType::Int);
    for i in 0..600i64 {
        b.push_row(vec![(i % 400).into(), ((i * 13) % 100).into()])
            .unwrap();
    }
    cat.add_table(b.finish().unwrap()).unwrap();
    cat
}

/// Query 1's shape: two year thresholds, two score thresholds.
fn query1(years: [i64; 2], scores: [i64; 2]) -> Query {
    Query::new(vec![
        ("t".into(), "title".into()),
        ("s".into(), "scores".into()),
    ])
    .join(ColumnRef::new("t", "id"), ColumnRef::new("s", "movie_id"))
    .filter(or(vec![
        and(vec![
            col("t", "year").gt(years[0]),
            col("s", "score").gt(scores[0]),
        ]),
        and(vec![
            col("t", "year").gt(years[1]),
            col("s", "score").gt(scores[1]),
        ]),
    ]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of bindings of one shape through one server — in any
    /// literal order, equal literals included — returns what a fresh
    /// session returns for each.
    #[test]
    fn cached_result_equals_fresh_result_under_any_literal_order(
        bindings in proptest::collection::vec(
            (1950i64..2020, 1950i64..2020, 0i64..100, 0i64..100),
            2..6,
        ),
    ) {
        let cat = years_catalog();
        let srv = server(&cat);
        for (y0, y1, s0, s1) in bindings {
            let q = query1([y0, y1], [s0, s1]);
            prop_assert_eq!(served_count(&srv, &q).0, fresh_count(&cat, &q), "{}", count_sql(&q));
        }
    }
}

/// Shifting every literal without reordering any pair re-drives the
/// cached plan: no re-plan storm on the warm path.
#[test]
fn order_preserving_rebinds_stay_cache_hits() {
    let cat = years_catalog();
    let srv = server(&cat);
    assert!(!served_count(&srv, &query1([2000, 1980], [70, 80])).1);
    for shift in 1..8 {
        let q = query1([2000 + shift, 1980 + shift], [70 + shift, 80 + shift]);
        let (count, cache_hit) = served_count(&srv, &q);
        assert_eq!(count, fresh_count(&cat, &q));
        assert!(cache_hit, "shift {shift} keeps every literal order");
    }
    assert_eq!(srv.stats().statements_prepared, 1);
}
