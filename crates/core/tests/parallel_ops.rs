//! Operator-level differential suite for morsel-parallel tagged
//! execution: for every worker count the parallel operators must produce
//! **identical** tagged relations — same tags, same slice bitmaps, same
//! tuple order — as the serial operators, across 3VL splits,
//! pass-through slices, ragged (non-word-aligned) tails and error paths
//! (which must strand nothing in any worker arena).

use std::sync::Arc;

use basilisk_core::{
    tagged_filter, tagged_join, tagged_select_final, TagMapBuilder, TagMapStrategy, TaggedRelation,
};
use basilisk_exec::{Emit, ExecCtx, IdxRelation, TableSet};
use basilisk_expr::{and, col, or, ColumnRef, PredicateTree};
use basilisk_sched::WorkerPool;
use basilisk_storage::{Table, TableBuilder};
use basilisk_types::{DataType, MaskArena, Value};

const ROWS: usize = 1500; // not a multiple of 64: ragged tail morsel

fn title() -> Arc<Table> {
    let mut b = TableBuilder::new("title")
        .column("id", DataType::Int)
        .column("year", DataType::Int)
        .column("name", DataType::Str);
    for i in 0..ROWS as i64 {
        // Periodic NULLs exercise the unknown slice; misaligned periods
        // exercise every word pattern.
        let year = if i % 23 == 0 {
            Value::Null
        } else {
            Value::Int(1900 + (i * 7) % 120)
        };
        b.push_row(vec![i.into(), year, format!("m{}", i % 41).into()])
            .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

fn scores() -> Arc<Table> {
    let mut b = TableBuilder::new("scores")
        .column("movie_id", DataType::Int)
        .column("score", DataType::Float);
    for i in 0..(2 * ROWS) as i64 {
        b.push_row(vec![
            (i % (ROWS as i64 + 40)).into(), // some dangling keys
            (((i * 13) % 100) as f64 / 10.0).into(),
        ])
        .unwrap();
    }
    Arc::new(b.finish().unwrap())
}

fn tset() -> TableSet {
    TableSet::from_tables(vec![("t".into(), title()), ("mi".into(), scores())])
}

fn tree() -> PredicateTree {
    PredicateTree::build(&or(vec![
        and(vec![
            col("t", "year").gt(1960i64),
            col("mi", "score").gt(4.0),
        ]),
        and(vec![
            col("t", "name").like("m1%"),
            col("mi", "score").gt(8.0),
        ]),
    ]))
}

/// The context the parallel operators run under: `pool: Some`.
fn parallel<'a>(arena: &'a MaskArena, pool: &'a WorkerPool) -> ExecCtx<'a> {
    ExecCtx {
        arena,
        pool: Some(pool),
        tracer: None,
    }
}

/// A base tagged relation drawn from `arena`.
fn base(table: &str, rows: usize, arena: &MaskArena) -> TaggedRelation {
    TaggedRelation::base_in(IdxRelation::base_in(table, rows, arena), arena)
}

/// Tags + slice row sets, in deterministic slice order.
fn fingerprint(rel: &TaggedRelation) -> Vec<(String, Vec<u32>)> {
    rel.slices()
        .iter()
        .map(|(tag, bm)| (format!("{tag:?}"), bm.to_indices()))
        .collect()
}

/// Serial vs parallel tagged filter chains: run both predicates of each
/// side as successive tagged filters (the Figure-1 shape) and compare
/// the full tag → slice map after every step, three-valued included.
#[test]
fn tagged_filter_slices_identical_across_workers() {
    let ts = tset();
    let tree = tree();
    let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true })
        .with_three_valued(true);
    let atoms: Vec<_> = tree
        .atom_ids()
        .into_iter()
        .filter(|&id| tree.atom(id).unwrap().column().table == "t")
        .collect();
    assert!(atoms.len() >= 2);

    let serial_arena = MaskArena::new();
    let mut serial_rel = base("t", ROWS, &serial_arena);
    let mut tags = vec![basilisk_core::Tag::empty()];
    let mut serial_steps = Vec::new();
    for &node in &atoms {
        let map = builder.filter_map(node, &tags);
        tags = builder.filter_output_tags(&map, &tags);
        serial_rel = rows(
            tagged_filter(
                &ExecCtx::serial(&serial_arena),
                &ts,
                &serial_rel,
                &tree,
                &map,
                None,
            )
            .unwrap(),
        );
        serial_steps.push(fingerprint(&serial_rel));
    }

    for workers in [1, 2, 3, 8] {
        let pool = WorkerPool::new(workers).with_morsel_rows(128);
        let arena = MaskArena::new();
        let mut rel = base("t", ROWS, &arena);
        let mut tags = vec![basilisk_core::Tag::empty()];
        for (step, &node) in atoms.iter().enumerate() {
            let map = builder.filter_map(node, &tags);
            tags = builder.filter_output_tags(&map, &tags);
            let cx = parallel(&arena, &pool);
            let out = rows(tagged_filter(&cx, &ts, &rel, &tree, &map, None).unwrap());
            if step + 1 == atoms.len() {
                // Counting at the root reads the same mask's admitted lanes.
                let proj = builder.projection_tags(&tags);
                let counted = tagged_filter(&cx, &ts, &rel, &tree, &map, Some(&proj)).unwrap();
                let selected = tagged_select_final(&out, &proj, &arena, true);
                let (Emit::Count(a), Emit::Count(b)) = (counted, selected) else {
                    panic!("asked for counts");
                };
                assert_eq!(a, b, "{workers} workers: the counting filter diverged");
            }
            rel = out;
            assert_eq!(
                fingerprint(&rel),
                serial_steps[step],
                "{workers} workers diverged at filter step {step}"
            );
            assert!(rel.check_mutually_exclusive());
        }
        assert_eq!(pool.outstanding(), 0, "worker arenas drained");
    }
}

/// Serial vs parallel tagged join: one filtered side each, joined under
/// the generalized tag map — joined relation tuples and tag slices must
/// be bit-for-bit identical (including tuple *order*, which ordered
/// chunk concatenation guarantees).
#[test]
fn tagged_join_identical_across_workers() {
    let ts = tset();
    let tree = tree();
    let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });

    let build_side = |cx: &ExecCtx<'_>, table: &str| -> (TaggedRelation, Vec<basilisk_core::Tag>) {
        let n = if table == "t" { ROWS } else { 2 * ROWS };
        let mut rel = base(table, n, cx.arena);
        let mut tags = vec![basilisk_core::Tag::empty()];
        for id in tree.atom_ids() {
            if tree.atom(id).unwrap().column().table != table {
                continue;
            }
            let map = builder.filter_map(id, &tags);
            tags = builder.filter_output_tags(&map, &tags);
            rel = rows(tagged_filter(cx, &ts, &rel, &tree, &map, None).unwrap());
        }
        (rel, tags)
    };

    let lk = ColumnRef::new("t", "id");
    let rk = ColumnRef::new("mi", "movie_id");

    let serial_arena = MaskArena::new();
    let serial_cx = ExecCtx::serial(&serial_arena);
    let (sl, slt) = build_side(&serial_cx, "t");
    let (sr, srt) = build_side(&serial_cx, "mi");
    let jm = builder.join_map(&slt, &srt);
    let serial = rows(tagged_join(&serial_cx, &ts, &sl, &sr, &lk, &rk, &jm, None).unwrap());
    let serial_fp = fingerprint(&serial);
    let proj = builder.projection_tags(&builder.join_output_tags(&jm));
    let admitted = tagged_select_final(&serial, &proj, &serial_arena, true);
    let Emit::Count(admitted) = admitted else {
        panic!("asked for a count");
    };
    let serial_tuples: Vec<Vec<u32>> = (0..serial.num_tuples())
        .map(|i| serial.relation().tuple(i))
        .collect();
    assert!(serial.num_tuples() > 0, "join should match something");

    for workers in [1, 2, 3, 8] {
        let pool = WorkerPool::new(workers).with_morsel_rows(128);
        let arena = MaskArena::new();
        let cx = parallel(&arena, &pool);
        let (l, lt) = build_side(&cx, "t");
        let (r, rt) = build_side(&cx, "mi");
        let jm = builder.join_map(&lt, &rt);
        let counted = tagged_join(&cx, &ts, &l, &r, &lk, &rk, &jm, Some(&proj)).unwrap();
        assert!(
            matches!(counted, Emit::Count(n) if n == admitted),
            "{workers} workers: the counting probe diverged"
        );
        let joined = rows(tagged_join(&cx, &ts, &l, &r, &lk, &rk, &jm, None).unwrap());
        assert_eq!(
            fingerprint(&joined),
            serial_fp,
            "{workers} workers: tag slices diverged"
        );
        let tuples: Vec<Vec<u32>> = (0..joined.num_tuples())
            .map(|i| joined.relation().tuple(i))
            .collect();
        assert_eq!(
            tuples, serial_tuples,
            "{workers} workers: tuple order diverged"
        );
        assert_eq!(pool.outstanding(), 0);
    }
}

/// Injected eval failure mid-parallel-filter: a type error (Str column
/// compared to an Int literal) that only surfaces inside worker tasks.
/// No buffer may be stranded in the session arena or **any** worker
/// arena.
#[test]
fn injected_eval_failure_strands_nothing_in_worker_arenas() {
    let ts = tset();
    // First disjunct healthy, second fails at evaluation time.
    let bad = PredicateTree::build(&or(vec![
        col("t", "year").gt(1950i64),
        col("t", "name").gt(5i64),
    ]));
    let builder = TagMapBuilder::new(&bad, TagMapStrategy::Generalized { use_closure: true });
    let map = builder.filter_map(bad.root(), &[basilisk_core::Tag::empty()]);

    for workers in [2, 3, 8] {
        let pool = WorkerPool::new(workers).with_morsel_rows(64);
        let arena = MaskArena::new();
        let cx = parallel(&arena, &pool);
        let input = base("t", ROWS, &arena);
        let err = tagged_filter(&cx, &ts, &input, &bad, &map, None);
        assert!(err.is_err(), "type mismatch must fail");
        input.recycle(&arena);
        assert_eq!(
            arena.outstanding(),
            0,
            "{workers} workers: session arena stranded buffers"
        );
        assert_eq!(
            pool.outstanding(),
            0,
            "{workers} workers: a worker arena stranded buffers"
        );

        // The pools still serve a healthy query afterwards.
        let good = PredicateTree::build(&or(vec![
            col("t", "year").gt(1960i64),
            col("t", "name").like("m1%"),
        ]));
        let gmap = builder_for(&good).filter_map(good.root(), &[basilisk_core::Tag::empty()]);
        let input = base("t", ROWS, &arena);
        let out = rows(tagged_filter(&cx, &ts, &input, &good, &gmap, None).unwrap());
        input.recycle(&arena);
        out.recycle(&arena);
        assert_eq!(arena.outstanding(), 0);
        assert_eq!(pool.outstanding(), 0);
    }
}

/// The relation of an operator asked for rows.
fn rows<R>(emitted: Emit<R>) -> R {
    match emitted {
        Emit::Rows(rel) => rel,
        Emit::Count(n) => panic!("asked for rows, got a count of {n}"),
    }
}

fn builder_for(tree: &PredicateTree) -> TagMapBuilder<'_> {
    TagMapBuilder::new(tree, TagMapStrategy::Generalized { use_closure: true })
}

/// Zero-row relations through the parallel operators.
#[test]
fn empty_relations_parallel() {
    let mut b = TableBuilder::new("title")
        .column("id", DataType::Int)
        .column("year", DataType::Int)
        .column("name", DataType::Str);
    // zero rows
    let empty = Arc::new(b.finish().unwrap());
    b = TableBuilder::new("scores")
        .column("movie_id", DataType::Int)
        .column("score", DataType::Float);
    let empty_scores = Arc::new(b.finish().unwrap());
    let ts = TableSet::from_tables(vec![("t".into(), empty), ("mi".into(), empty_scores)]);
    let tree = tree();
    let builder = builder_for(&tree);
    let pool = WorkerPool::new(4).with_morsel_rows(64);
    let arena = MaskArena::new();

    let map = builder.filter_map(tree.atom_ids()[0], &[basilisk_core::Tag::empty()]);
    let cx = parallel(&arena, &pool);
    let input = base("t", 0, &arena);
    let filtered = rows(tagged_filter(&cx, &ts, &input, &tree, &map, None).unwrap());
    assert_eq!(filtered.num_tuples(), 0);
    assert_eq!(filtered.num_slices(), 0);
    input.recycle(&arena);

    let jm = builder.join_map(
        &[basilisk_core::Tag::empty()],
        &[basilisk_core::Tag::empty()],
    );
    let l = base("t", 0, &arena);
    let r = base("mi", 0, &arena);
    let joined = rows(
        tagged_join(
            &cx,
            &ts,
            &l,
            &r,
            &ColumnRef::new("t", "id"),
            &ColumnRef::new("mi", "movie_id"),
            &jm,
            None,
        )
        .unwrap(),
    );
    assert_eq!(joined.num_tuples(), 0);
    l.recycle(&arena);
    r.recycle(&arena);
    filtered.recycle(&arena);
    joined.recycle(&arena);
    assert_eq!(arena.outstanding(), 0);
    assert_eq!(pool.outstanding(), 0);
}
