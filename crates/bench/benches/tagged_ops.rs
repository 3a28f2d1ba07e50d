//! Microbenchmarks: tagged operators vs their traditional counterparts on
//! identical inputs (the per-operator view of Fig. 3d's ~10% overhead).

use criterion::{criterion_group, criterion_main, Criterion};

use basilisk_catalog::Catalog;
use basilisk_core::{
    tagged_filter, tagged_join, Tag, TagMapBuilder, TagMapStrategy, TaggedRelation,
};
use basilisk_exec::{filter as plain_filter, hash_join, Emit, ExecCtx, IdxRelation, TableSet};
use basilisk_expr::{and, col, or, ColumnRef, PredicateTree};
use basilisk_types::MaskArena;
use basilisk_workload::{generate_synthetic, SyntheticConfig};

struct Fixture {
    tables: TableSet,
    tree: PredicateTree,
    rows: usize,
}

fn fixture(rows: usize) -> Fixture {
    let cfg = SyntheticConfig {
        rows,
        num_attrs: 2,
        zipf_shape: 1.5,
        seed: 99,
    };
    let mut catalog = Catalog::new();
    for t in generate_synthetic(&cfg).unwrap() {
        catalog.add_table(t).unwrap();
    }
    let aliases: Vec<(String, String)> = ["t0", "t1", "t2"]
        .iter()
        .map(|t| (t.to_string(), t.to_string()))
        .collect();
    let tables = TableSet::new(&catalog, &aliases).unwrap();
    let tree = PredicateTree::build(&or(vec![
        and(vec![col("t1", "a1").lt(0.2), col("t2", "a1").lt(0.2)]),
        and(vec![col("t1", "a2").lt(0.2), col("t2", "a2").lt(0.2)]),
    ]));
    Fixture { tables, tree, rows }
}

fn find(tree: &PredicateTree, s: &str) -> basilisk_expr::ExprId {
    tree.atom_ids()
        .into_iter()
        .find(|&id| tree.display(id) == s)
        .unwrap()
}

/// The relation of an operator asked for rows.
fn rows<R>(emitted: Emit<R>) -> R {
    match emitted {
        Emit::Rows(rel) => rel,
        Emit::Count(n) => panic!("asked for rows, got a count of {n}"),
    }
}

fn bench_filter(c: &mut Criterion) {
    let f = fixture(20_000);
    let builder = TagMapBuilder::new(&f.tree, TagMapStrategy::Generalized { use_closure: true });
    let node = find(&f.tree, "t1.a1 < 0.2");
    let map = builder.filter_map(node, &[Tag::empty()]);
    // One arena across iterations: after the first pass the pool is warm
    // and the measured loop is the allocation-free steady state.
    let arena = MaskArena::new();
    let cx = ExecCtx::serial(&arena);
    let base = TaggedRelation::base_in(IdxRelation::base_in("t1", f.rows, &arena), &arena);
    let plain_base = IdxRelation::base_in("t1", f.rows, &arena);
    let mut group = c.benchmark_group("filter_20k");
    group.sample_size(20);
    group.bench_function("tagged", |b| {
        b.iter(|| {
            let out = rows(tagged_filter(&cx, &f.tables, &base, &f.tree, &map, None).unwrap());
            let n = out.num_slices();
            out.recycle(&arena);
            n
        })
    });
    group.bench_function("traditional", |b| {
        b.iter(|| plain_filter(&cx, &f.tables, &plain_base, &f.tree, node, false).unwrap())
    });
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let f = fixture(10_000);
    let builder = TagMapBuilder::new(&f.tree, TagMapStrategy::Generalized { use_closure: true });
    // Prepare filtered tagged inputs on t1, raw base on t0.
    let n1 = find(&f.tree, "t1.a1 < 0.2");
    let n2 = find(&f.tree, "t1.a2 < 0.2");
    let mut tags = vec![Tag::empty()];
    let arena = MaskArena::new();
    let cx = ExecCtx::serial(&arena);
    let mut left = TaggedRelation::base_in(IdxRelation::base_in("t1", f.rows, &arena), &arena);
    for node in [n1, n2] {
        let m = builder.filter_map(node, &tags);
        tags = builder.filter_output_tags(&m, &tags);
        left = rows(tagged_filter(&cx, &f.tables, &left, &f.tree, &m, None).unwrap());
    }
    let right = TaggedRelation::base_in(IdxRelation::base_in("t0", f.rows, &arena), &arena);
    let jmap = builder.join_map(&tags, &[Tag::empty()]);
    let lk = ColumnRef::new("t1", "fid");
    let rk = ColumnRef::new("t0", "id");

    let plain_left = IdxRelation::base_in("t1", f.rows, &arena);
    let plain_right = IdxRelation::base_in("t0", f.rows, &arena);

    let mut group = c.benchmark_group("join_10k");
    group.sample_size(20);
    group.bench_function("tagged_selective_map", |b| {
        b.iter(|| {
            let out =
                rows(tagged_join(&cx, &f.tables, &left, &right, &lk, &rk, &jmap, None).unwrap());
            let n = out.num_tuples();
            out.recycle(&arena);
            n
        })
    });
    group.bench_function("traditional_full", |b| {
        b.iter(|| hash_join(&cx, &f.tables, &plain_left, &plain_right, &lk, &rk, false).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_filter, bench_join);
criterion_main!(benches);
