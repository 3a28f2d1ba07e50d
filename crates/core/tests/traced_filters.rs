//! Traced filters report the atoms they actually evaluated: the `atom`
//! spans come from the one evaluation `ExecCtx::eval_mask` runs (its
//! tally), for a bare evaluation, a tagged filter and a traditional
//! filter alike, and tracing leaves no arena buffer behind.

use std::sync::Arc;

use basilisk_core::{tagged_filter, Tag, TagMapBuilder, TagMapStrategy, TaggedRelation};
use basilisk_exec::{filter, Emit, ExecCtx, IdxRelation, TableSet};
use basilisk_expr::eval::MapProvider;
use basilisk_expr::{and, col, or, ColumnRef, PredicateTree};
use basilisk_storage::{ColumnBuilder, TableBuilder};
use basilisk_types::{Bitmap, DataType, MaskArena, TraceSpan, Tracer, Value};

/// Per atom span, in order: the atom and its
/// `[lanes_evaluated, lanes_short_circuited, true_count, unknown_count]`.
fn atoms(root: &TraceSpan) -> Vec<(String, [i64; 4])> {
    let keys = [
        "lanes_evaluated",
        "lanes_short_circuited",
        "true_count",
        "unknown_count",
    ];
    root.descendants("atom")
        .iter()
        .map(|a| {
            (
                a.str_attr("atom").unwrap().into(),
                keys.map(|k| a.int(k).unwrap()),
            )
        })
        .collect()
}

/// Run `f` on a serial context traced into a fresh tracer; return the
/// finished span tree, after checking `f` left nothing checked out.
fn traced(f: impl FnOnce(&ExecCtx<'_>)) -> TraceSpan {
    let (arena, tracer) = (MaskArena::new(), Tracer::new());
    f(&ExecCtx {
        tracer: Some(&tracer),
        ..ExecCtx::serial(&arena)
    });
    assert_eq!(arena.outstanding(), 0, "tracing is scratch-neutral");
    tracer.finish()
}

/// The paper's title years (Examples 1–4), first `n` of them.
fn titles(n: usize) -> TableSet {
    let mut b = TableBuilder::new("title").column("year", DataType::Int);
    for y in [2008i64, 2001, 1994, 1994, 1972, 1988, 2009]
        .into_iter()
        .take(n)
    {
        b.push_row(vec![y.into()]).unwrap();
    }
    TableSet::from_tables(vec![("t".into(), Arc::new(b.finish().unwrap()))])
}

#[test]
fn traced_eval_tallies_lanes_and_outcomes() {
    let tree = PredicateTree::build(&or(vec![col("t", "a").gt(5i64), col("t", "b").gt(5i64)]));
    let ints = |vals: [Option<i64>; 4]| {
        let mut b = ColumnBuilder::new(DataType::Int);
        for v in vals {
            b.push(v.map_or(Value::Null, Value::Int)).unwrap();
        }
        b.finish()
    };
    let provider = MapProvider::new(4)
        .with(
            ColumnRef::new("t", "a"),
            ints([Some(9), None, Some(1), Some(7)]),
        )
        .with(
            ColumnRef::new("t", "b"),
            ints([Some(1), Some(9), Some(1), Some(9)]),
        );
    // Select rows 0..3 only; row 3 is short-circuited.
    let sel = Bitmap::from_indices(4, 0..3);
    let root = traced(|cx| {
        let mask = cx.eval_mask(&tree, tree.root(), &provider, &sel).unwrap();
        cx.arena.recycle_mask(mask);
    });
    // One span per atom, in predicate order. Among the selected rows only
    // row 0 (9 > 5) is true for `a`, and row 1 is NULL.
    assert_eq!(
        atoms(&root),
        [
            ("t.a > 5".into(), [3, 1, 1, 1]),
            ("t.b > 5".into(), [3, 1, 1, 0])
        ]
    );
}

/// A traced tagged filter reports exactly the union it evaluated.
#[test]
fn traced_tagged_filter_atoms_cover_the_evaluated_union() {
    let ts = titles(7);
    let tree = PredicateTree::build(&or(vec![
        and(vec![
            col("t", "year").gt(2000i64),
            col("mi", "score").gt("7.0"),
        ]),
        and(vec![
            col("t", "year").gt(1980i64),
            col("mi", "score").gt("8.0"),
        ]),
    ]));
    let p1 = tree
        .atom_ids()
        .into_iter()
        .find(|&id| tree.display(id) == "t.year > 2000")
        .unwrap();
    let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
    let map = b.filter_map(p1, &[Tag::empty()]);
    let base = TaggedRelation::base_in(
        IdxRelation::base_in("t", 7, &MaskArena::new()),
        &MaskArena::new(),
    );
    let root = traced(|cx| {
        let out = rows(tagged_filter(cx, &ts, &base, &tree, &map, None).unwrap());
        out.recycle(cx.arena);
    });
    // The filter subtree is one atom; the base slice is full; 2008,
    // 2001 and 2009 are true.
    assert_eq!(atoms(&root), [("t.year > 2000".into(), [7, 0, 3, 0])]);
}

/// A traditional filter evaluates every tuple of its input.
#[test]
fn traced_filter_atoms_cover_every_tuple() {
    let ts = titles(5);
    let tree = PredicateTree::build(&or(vec![
        col("t", "year").gt(2000i64),
        col("t", "year").lt(1980i64),
    ]));
    let rel = IdxRelation::base_in("t", 5, &MaskArena::new());
    let root = traced(|cx| {
        let out = rows(filter(cx, &ts, &rel, &tree, tree.root(), false).unwrap());
        out.recycle(cx.arena);
    });
    // 2008 and 2001 for the first atom, 1972 for the second.
    assert_eq!(
        atoms(&root),
        [
            ("t.year > 2000".into(), [5, 0, 2, 0]),
            ("t.year < 1980".into(), [5, 0, 1, 0])
        ]
    );
}

/// The relation of an operator asked for rows.
fn rows<R>(emitted: Emit<R>) -> R {
    match emitted {
        Emit::Rows(rel) => rel,
        Emit::Count(n) => panic!("asked for rows, got a count of {n}"),
    }
}
