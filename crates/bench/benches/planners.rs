//! Microbenchmarks: planning time per planner (the paper reports planning
//! at <0.1% of runtime except when TPullup's pull-one-node search grows
//! with the clause count, Fig. 4c).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use basilisk::{Catalog, PlannerKind, QuerySession};
use basilisk_workload::{dnf_query, generate_synthetic, job_queries, SyntheticConfig};
use basilisk_workload::{generate_imdb, ImdbConfig};

fn bench_synthetic_planning(c: &mut Criterion) {
    let cfg = SyntheticConfig {
        rows: 2_000,
        num_attrs: 7,
        zipf_shape: 1.5,
        seed: 5,
    };
    let mut catalog = Catalog::new();
    for t in generate_synthetic(&cfg).unwrap() {
        catalog.add_table(t).unwrap();
    }
    let mut group = c.benchmark_group("plan_synthetic_dnf");
    group.sample_size(20);
    for clauses in [2usize, 4, 7] {
        let q = dnf_query(clauses, 0.2, None);
        let session = QuerySession::new(&catalog, q).unwrap();
        for kind in [
            PlannerKind::TPushdown,
            PlannerKind::TPullup,
            PlannerKind::TPullupJoin,
            PlannerKind::TCombined,
            PlannerKind::BDisj,
        ] {
            group.bench_with_input(BenchmarkId::new(kind.name(), clauses), &clauses, |b, _| {
                b.iter(|| session.plan(kind).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_job_planning(c: &mut Criterion) {
    let mut catalog = Catalog::new();
    for t in generate_imdb(&ImdbConfig {
        scale: 0.05,
        seed: 5,
    })
    .unwrap()
    {
        catalog.add_table(t).unwrap();
    }
    let q = &job_queries(42)[19]; // group 20, the paper's running example
    let session = QuerySession::new(&catalog, q.query.clone()).unwrap();
    let mut group = c.benchmark_group("plan_job_group20");
    group.sample_size(20);
    for kind in [
        PlannerKind::TCombined,
        PlannerKind::BDisj,
        PlannerKind::BPushConj,
    ] {
        group.bench_function(kind.name(), |b| b.iter(|| session.plan(kind).unwrap()));
    }
    group.finish();
}

/// TCombined over every group of `job_queries(43)` at IMDB scale 0.5:
/// the planning the paper counts into each query's runtime (§5.2), summed
/// over the whole JOB workload instead of one group.
fn bench_job_all_groups(c: &mut Criterion) {
    let mut catalog = Catalog::new();
    for t in generate_imdb(&ImdbConfig {
        scale: 0.5,
        seed: 42,
    })
    .unwrap()
    {
        catalog.add_table(t).unwrap();
    }
    let sessions: Vec<QuerySession> = job_queries(43)
        .into_iter()
        .map(|g| QuerySession::new(&catalog, g.query).unwrap())
        .collect();
    let mut group = c.benchmark_group("plan_job_all_groups");
    group.sample_size(10);
    group.bench_function(PlannerKind::TCombined.name(), |b| {
        b.iter(|| {
            for session in &sessions {
                black_box(session.plan(PlannerKind::TCombined).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_synthetic_planning,
    bench_job_planning,
    bench_job_all_groups
);
criterion_main!(benches);
