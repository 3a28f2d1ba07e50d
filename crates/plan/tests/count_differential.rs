//! Count-vs-rows differential suite: [`QuerySession::count`] runs a plan
//! to its root operator and counts there — admitted-slice popcounts,
//! a root join's admitted match count, a root filter's true lanes —
//! and must return exactly the number of rows [`QuerySession::execute`]
//! returns, for every planner × {plain, encoded} storage × {serial,
//! 4 workers over 256-row morsels} × {untraced, traced}. Data: the §5.2
//! synthetic DNF/CNF joins, JOB groups, NULL-heavy columns under NULL
//! literals (Kleene logic, NULL join keys) and empty tables. Every count
//! leaves the session and worker arenas with nothing outstanding, and a
//! traced count reports the count as its root operator's `rows_out`.

use basilisk_catalog::Catalog;
use basilisk_core::TagMapStrategy;
use basilisk_expr::{and, col, not, or, ColumnRef};
use basilisk_plan::{PlannerKind, Query, QuerySession};
use basilisk_storage::{Table, TableBuilder};
use basilisk_types::{DataType, Tracer, Value};
use basilisk_workload::{
    cnf_query, dnf_query, generate_imdb, generate_synthetic, job_query, ImdbConfig, SyntheticConfig,
};

const PLANNERS: [PlannerKind; 8] = [
    PlannerKind::TPushdown,
    PlannerKind::TPullup,
    PlannerKind::TPullupJoin,
    PlannerKind::TIterPush,
    PlannerKind::TPushConj,
    PlannerKind::TCombined,
    PlannerKind::BDisj,
    PlannerKind::BPushConj,
];

/// The catalog of `tables`, stored plain or re-encoded.
fn catalog(tables: Vec<Table>, encoded: bool) -> Catalog {
    let mut cat = Catalog::new();
    for t in tables {
        cat.add_table(if encoded { t.encode().unwrap() } else { t })
            .unwrap();
    }
    cat
}

/// Count ≡ rows for `query` over `tables` under the whole lattice.
fn assert_counts_equal_rows(tables: impl Fn() -> Vec<Table>, query: &Query, ctx: &str) {
    for encoded in [false, true] {
        let cat = catalog(tables(), encoded);
        for kind in PLANNERS {
            let plan = QuerySession::new(&cat, query.clone())
                .unwrap()
                .plan(kind)
                .unwrap();
            for workers in [1, 4] {
                let session = QuerySession::new(&cat, query.clone())
                    .unwrap()
                    .with_workers(workers)
                    .with_morsel_rows(256);
                let case = format!("{ctx}: {kind}, encoded={encoded}, {workers} workers");
                let rows = session.execute(&plan).unwrap().count();
                assert_eq!(session.count(&plan, None).unwrap(), rows, "{case}");
                assert_eq!(session.arena().outstanding(), 0, "{case}: session arena");
                assert_eq!(
                    session.scheduler().outstanding(),
                    0,
                    "{case}: worker arenas"
                );

                let tracer = Tracer::new();
                let traced = session.count(&plan, Some(&tracer)).unwrap();
                assert_eq!(traced, rows, "{case}: traced");
                let root = tracer.finish();
                assert!(root.is_well_formed(), "{case}");
                let top = &root.children[0];
                assert_eq!(
                    top.int("rows_out"),
                    Some(rows as i64),
                    "{case}: {}",
                    top.name
                );
                if let Some(project) = root.child("project") {
                    assert_eq!(project.int("rows_in"), Some(rows as i64), "{case}");
                    assert_eq!(project.int("rows_out"), Some(rows as i64), "{case}");
                }
                assert_eq!(session.arena().outstanding(), 0, "{case}: traced");
            }
        }
    }
}

fn synthetic() -> Vec<Table> {
    generate_synthetic(&SyntheticConfig {
        rows: 600,
        num_attrs: 3,
        ..SyntheticConfig::default()
    })
    .unwrap()
}

#[test]
fn synthetic_dnf_and_cnf_counts_equal_rows() {
    assert_counts_equal_rows(synthetic, &dnf_query(3, 0.3, None), "dnf");
    assert_counts_equal_rows(synthetic, &dnf_query(2, 0.4, Some(0.5)), "dnf/outer");
    assert_counts_equal_rows(synthetic, &cnf_query(2, 0.3, None), "cnf");
}

#[test]
fn job_group_counts_equal_rows() {
    let imdb = || {
        generate_imdb(&ImdbConfig {
            scale: 0.03,
            seed: 42,
        })
        .unwrap()
    };
    for group in [1, 19] {
        let jq = job_query(group, 42);
        assert_counts_equal_rows(imdb, &jq.query, &format!("job/group{group}"));
    }
}

/// `title(id, year, name)` and `scores(movie_id, score)`, a third of the
/// years, a fifth of the names and a seventh of the join keys NULL;
/// `rows == 0` builds both tables empty.
fn nullable(rows: i64) -> Vec<Table> {
    let mut t = TableBuilder::new("title")
        .column("id", DataType::Int)
        .column("year", DataType::Int)
        .column("name", DataType::Str);
    for i in 0..rows {
        let year = match i % 3 {
            0 => Value::Null,
            _ => Value::Int(1900 + (i * 11) % 120),
        };
        let name = match i % 5 {
            2 => Value::Null,
            _ => Value::from(format!("name-{}", i % 13).as_str()),
        };
        t.push_row(vec![i.into(), year, name]).unwrap();
    }
    let mut s = TableBuilder::new("scores")
        .column("movie_id", DataType::Int)
        .column("score", DataType::Float);
    for i in 0..rows * 3 / 2 {
        let key = match i % 7 {
            0 => Value::Null,
            _ => Value::Int(i % (rows + 50)),
        };
        s.push_row(vec![key, (((i * 13) % 100) as f64 / 10.0).into()])
            .unwrap();
    }
    vec![t.finish().unwrap(), s.finish().unwrap()]
}

fn single_table(predicate: basilisk_expr::Expr) -> Query {
    Query::new(vec![("t".into(), "title".into())])
        .filter(predicate)
        .select(vec![ColumnRef::new("t", "id")])
}

fn joined(predicate: basilisk_expr::Expr) -> Query {
    Query::new(vec![
        ("t".into(), "title".into()),
        ("s".into(), "scores".into()),
    ])
    .join(ColumnRef::new("t", "id"), ColumnRef::new("s", "movie_id"))
    .filter(predicate)
    .select(vec![ColumnRef::new("t", "id")])
}

/// Three-valued logic: NULL columns, NULL literals (unknown on every
/// row), NOT over unknowns, and NULL join keys that never match.
#[test]
fn null_heavy_counts_equal_rows() {
    let data = || nullable(900);
    let disjunction = or(vec![
        and(vec![
            col("t", "year").gt(1990i64),
            col("t", "name").like("name-1%"),
        ]),
        col("t", "name").in_list(vec![Value::from("name-7"), Value::Null]),
        col("t", "year").gt(Value::Null),
        not(col("t", "year").lt(1930i64)),
    ]);
    assert_counts_equal_rows(data, &single_table(disjunction), "3vl/filter");
    let conjunction = and(vec![
        or(vec![col("t", "year").is_null(), col("t", "id").lt(300i64)]),
        not(col("t", "name").eq(Value::Null)),
    ]);
    assert_counts_equal_rows(data, &single_table(conjunction), "3vl/null literal");
    let join = or(vec![
        and(vec![
            col("t", "year").gt(2000i64),
            col("s", "score").gt(7.0),
        ]),
        and(vec![
            col("t", "name").like("name-2%"),
            col("s", "score").gt(Value::Null),
        ]),
        col("t", "year").lt(1905i64),
    ]);
    assert_counts_equal_rows(data, &joined(join), "3vl/join");
}

/// Zero-row tables through root joins and root filters.
#[test]
fn empty_table_counts_equal_rows() {
    let predicate = or(vec![
        col("t", "year").gt(2000i64),
        col("s", "score").gt(7.0),
    ]);
    assert_counts_equal_rows(|| nullable(0), &joined(predicate), "empty/join");
    let predicate = col("t", "year").gt(2000i64);
    assert_counts_equal_rows(|| nullable(0), &single_table(predicate), "empty/filter");
}

/// Naive tag maps (§3.1, no generalization) leave slices the projection
/// rejects at the root: a count must skip them exactly as the final
/// selection does.
#[test]
fn naive_tag_maps_count_only_admitted_slices() {
    let cat = catalog(nullable(600), false);
    let predicate = or(vec![
        and(vec![
            col("t", "year").gt(1990i64),
            col("s", "score").gt(6.0),
        ]),
        col("t", "name").like("name-3%"),
    ]);
    for query in [
        joined(predicate),
        single_table(col("t", "year").lt(1950i64)),
    ] {
        for kind in [PlannerKind::TPushdown, PlannerKind::TPullup] {
            let session = QuerySession::new(&cat, query.clone())
                .unwrap()
                .with_strategy(TagMapStrategy::Naive)
                .with_workers(1);
            let plan = session.plan(kind).unwrap();
            let rows = session.execute(&plan).unwrap().count();
            assert_eq!(session.count(&plan, None).unwrap(), rows, "{kind}");
        }
    }
}

/// A statement without a WHERE clause is a join-only traditional plan:
/// its count is the root hash join's match count.
#[test]
fn join_only_count_equals_rows() {
    let cat = catalog(nullable(700), false);
    let query = Query::new(vec![
        ("t".into(), "title".into()),
        ("s".into(), "scores".into()),
    ])
    .join(ColumnRef::new("t", "id"), ColumnRef::new("s", "movie_id"));
    for workers in [1, 4] {
        let session = QuerySession::new(&cat, query.clone())
            .unwrap()
            .with_workers(workers)
            .with_morsel_rows(256);
        let plan = session.plan(PlannerKind::TCombined).unwrap();
        let rows = session.execute(&plan).unwrap().count();
        assert!(rows > 0);
        assert_eq!(
            session.count(&plan, None).unwrap(),
            rows,
            "{workers} workers"
        );
        assert_eq!(session.arena().outstanding(), 0);
    }
}
