//! Served `COUNT(*)` statements answer from the plan's root operator, so
//! every one must equal the `row_count` of its `SELECT *` twin — ad hoc,
//! prepared, and rebound (order-preserving bindings that re-drive the
//! cached plan and order-changing ones that re-plan), traced or not,
//! under tagged and traditional planners, serial and parallel.

use basilisk_catalog::Catalog;
use basilisk_plan::PlannerKind;
use basilisk_serve::{Request, Server, ServerConfig};
use basilisk_storage::TableBuilder;
use basilisk_types::{DataType, Value};

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut b = TableBuilder::new("title")
        .column("id", DataType::Int)
        .column("year", DataType::Int)
        .column("name", DataType::Str);
    for i in 0..1500i64 {
        let year = match i % 4 {
            0 => Value::Null,
            _ => Value::Int(1950 + (i * 7) % 70),
        };
        b.push_row(vec![i.into(), year, format!("n{}", i % 11).into()])
            .unwrap();
    }
    cat.add_table(b.finish().unwrap()).unwrap();
    let mut b = TableBuilder::new("scores")
        .column("movie_id", DataType::Int)
        .column("score", DataType::Int);
    for i in 0..2500i64 {
        let key = match i % 9 {
            0 => Value::Null,
            _ => Value::Int(i % 1600),
        };
        b.push_row(vec![key, ((i * 13) % 100).into()]).unwrap();
    }
    cat.add_table(b.finish().unwrap()).unwrap();
    cat
}

/// Statement bodies after the projection, and bindings for their
/// literals in text order: the prepare-time values, an order-preserving
/// shift (a cache hit), and a reordering (a re-plan).
const STATEMENTS: [(&str, [&[i64]; 3]); 4] = [
    (
        "FROM title t WHERE t.year > 2000 OR t.id < 100",
        [&[2000, 100], &[1990, 300], &[1960, 1400]],
    ),
    (
        "FROM title t JOIN scores s ON t.id = s.movie_id \
         WHERE (t.year > 2005 AND s.score > 40) OR (t.year > 1980 AND s.score > 90)",
        [
            &[2005, 40, 1980, 90],
            &[2010, 45, 1985, 92],
            &[1960, 95, 1990, 10],
        ],
    ),
    (
        "FROM title t JOIN scores s ON t.id = s.movie_id \
         WHERE t.year > 1990 AND (s.score > 70 OR t.id < 50)",
        [&[1990, 70, 50], &[1995, 75, 60], &[2019, 1, 1500]],
    ),
    (
        "FROM title t JOIN scores s ON t.id = s.movie_id \
         WHERE s.score < 60 OR t.year IS NULL AND t.id > 1000",
        [&[60, 1000], &[61, 1001], &[99, 10]],
    ),
];

fn count_of(r: &basilisk_serve::Response) -> usize {
    assert_eq!(r.row_count, 1, "a count is one row");
    r.columns[0].1.as_ints().unwrap()[0] as usize
}

/// `body` with its integer literals replaced by `binding`, in order.
fn bound(body: &str, prepared: &[i64], binding: &[i64]) -> String {
    let mut out = String::new();
    let mut rest = body;
    for (from, to) in prepared.iter().zip(binding) {
        let at = rest.find(&from.to_string()).expect("literal in text");
        out.push_str(&rest[..at]);
        out.push_str(&to.to_string());
        rest = &rest[at + from.to_string().len()..];
    }
    out + rest
}

#[test]
fn counts_equal_their_select_star_twins() {
    let cat = catalog();
    for planner in [
        PlannerKind::TCombined,
        PlannerKind::TPushdown,
        PlannerKind::BDisj,
        PlannerKind::BPushConj,
    ] {
        for workers in [1, 3] {
            let config = ServerConfig::builder()
                .contexts(2)
                .workers(workers)
                .morsel_rows(256)
                .default_planner(planner)
                .build()
                .unwrap();
            let srv = Server::new(cat.clone(), config);
            for (body, bindings) in STATEMENTS {
                let count = srv.prepare(&format!("SELECT COUNT(*) {body}")).unwrap();
                let star = srv.prepare(&format!("SELECT * {body}")).unwrap();
                for binding in bindings {
                    let case = format!("{planner}, {workers} workers: {body} @ {binding:?}");
                    let params: Vec<Value> = binding.iter().map(|&v| Value::Int(v)).collect();
                    let rows = srv.execute_prepared(&star, &params).unwrap().row_count;
                    let prepared = srv.execute_prepared(&count, &params).unwrap();
                    assert_eq!(count_of(&prepared), rows, "prepared {case}");

                    let text = format!("SELECT COUNT(*) {}", bound(body, bindings[0], binding));
                    let traced = srv.submit(Request::sql(&text).trace(true)).unwrap();
                    assert_eq!(count_of(&traced), rows, "ad hoc traced {case}");
                    let trace = traced.trace.expect("traced request");
                    let execute = trace.child("execute").expect("execute span");
                    assert_eq!(execute.int("rows"), Some(rows as i64), "{case}");
                    let root = &execute.children[0];
                    assert_eq!(root.int("rows_out"), Some(rows as i64), "{case}");
                }
            }
            assert_eq!(srv.stats().errors, 0);
            assert_eq!(srv.outstanding(), 0, "{planner}: every arena drained");
        }
    }
}
