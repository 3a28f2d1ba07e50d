//! Plan stability: TCombined's pick is a function of the statement and
//! the catalog, never of the process's hash seed, and never of how fast
//! the planner finds it.
//!
//! * Near-tie statements (two candidate plans whose costs differ in the
//!   last bits) are planned many times in one process — every `HashMap`
//!   gets a fresh random seed, so any cost sum that walks a hash map in
//!   iteration order shows up as a second plan.
//! * A golden snapshot (`plan_snapshot.txt`) pins the chosen planner, the
//!   abstract plan and the cost bits of every JOB group of two query
//!   seeds and a spread of §5.2 cells. Planner speed-ups must leave it
//!   byte for byte unchanged. A mismatch writes the new rendering next to
//!   the build's other test output (the path is in the failure message);
//!   replace the golden file with it only for a change meant to alter
//!   picks.

use basilisk_catalog::Catalog;
use basilisk_plan::{Plan, PlannerKind, Query, QuerySession};
use basilisk_workload::{
    cnf_query, dnf_query, generate_imdb, generate_synthetic, job_queries, ImdbConfig,
    SyntheticConfig,
};

/// One line per plan: chosen planner, abstract plan, cost bits.
fn render(plan: &Plan) -> String {
    let Plan::WithPredicate(p) = plan else {
        panic!("every statement here has a predicate");
    };
    format!(
        "{:?} {:?} {:016x}",
        plan.chosen_planner(),
        p.aplan(),
        p.estimated_cost().to_bits()
    )
}

fn tcombined(cat: &Catalog, q: &Query) -> String {
    render(
        &QuerySession::new(cat, q.clone())
            .unwrap()
            .plan(PlannerKind::TCombined)
            .unwrap(),
    )
}

fn catalog(tables: Vec<basilisk_storage::Table>) -> Catalog {
    let mut cat = Catalog::new();
    for t in tables {
        cat.add_table(t).unwrap();
    }
    cat
}

fn synthetic_catalog() -> Catalog {
    catalog(
        generate_synthetic(&SyntheticConfig {
            rows: 2_000,
            seed: 1337,
            ..SyntheticConfig::default()
        })
        .unwrap(),
    )
}

fn imdb_catalog() -> Catalog {
    catalog(
        generate_imdb(&ImdbConfig {
            scale: 0.05,
            seed: 42,
        })
        .unwrap(),
    )
}

/// Plan `q` 16 times in this process; every run must pick the same plan.
fn assert_one_plan(cat: &Catalog, q: &Query, ctx: &str) {
    let first = tcombined(cat, q);
    for _ in 1..16 {
        assert_eq!(tcombined(cat, q), first, "{ctx}: a second plan");
    }
}

#[test]
fn tcombined_pick_ignores_the_hash_seed() {
    let syn = synthetic_catalog();
    for (name, q) in [
        ("DNF 3 @ 0.2", dnf_query(3, 0.2, None)),
        ("DNF 4 @ 0.2", dnf_query(4, 0.2, None)),
        ("CNF 4 @ 0.2", cnf_query(4, 0.2, None)),
    ] {
        assert_one_plan(&syn, &q, name);
    }
    let imdb = imdb_catalog();
    for g in &job_queries(42)[..2] {
        assert_one_plan(&imdb, &g.query, &format!("job(42) group {}", g.group));
    }
}

/// Every snapshot line, in a fixed order.
fn snapshot() -> String {
    let mut out = String::new();
    let imdb = imdb_catalog();
    for seed in [42, 43] {
        for g in job_queries(seed) {
            let line = tcombined(&imdb, &g.query);
            out.push_str(&format!("job({seed}) group {}: {line}\n", g.group));
        }
    }
    let syn = synthetic_catalog();
    for (form, make) in [
        ("DNF", dnf_query as fn(usize, f64, Option<f64>) -> Query),
        ("CNF", cnf_query),
    ] {
        for clauses in [2, 3, 4, 5] {
            for sel in [0.2, 0.5, 0.8] {
                for outer in [None, Some(0.5)] {
                    let line = tcombined(&syn, &make(clauses, sel, outer));
                    out.push_str(&format!(
                        "{form} {clauses} @ {sel} outer {outer:?}: {line}\n"
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn tcombined_picks_match_the_golden_snapshot() {
    let golden = include_str!("plan_snapshot.txt");
    let actual = snapshot();
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("plan_snapshot.txt");
        std::fs::write(&path, &actual).unwrap();
        let diff = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("first difference:\n  now:    {a}\n  golden: {g}"))
            .unwrap_or_else(|| "line counts differ".into());
        panic!("plans moved ({}); {diff}", path.display());
    }
}
