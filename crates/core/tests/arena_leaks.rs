//! Error-path leak tests for the buffer pools (ISSUE-3 satellite).
//!
//! Every operator checks buffers out of the `MaskArena` / `ColumnPool`
//! and must hand them back even when evaluation fails partway — a failed
//! execution that strands checked-out buffers would silently shrink the
//! pool and erode the allocation-free steady state one error at a time.
//! `MaskArena::outstanding()` counts checkouts not yet returned (masks,
//! bitmaps, index scratch **and** pooled columns), so "no leak" is simply
//! `outstanding() == 0` after the error unwinds.
//!
//! The injected failure is an atom over a column that does not exist:
//! the predicate tree builds fine, the first atom of the connective
//! evaluates (checking buffers out), and the second atom's column fetch
//! fails mid-fold.

use std::sync::Arc;

use basilisk_core::{tagged_filter, tagged_join, TagMapBuilder, TagMapStrategy, TaggedRelation};
use basilisk_exec::{filter as plain_filter, union_all_dedup, ExecCtx, IdxRelation, TableSet};
use basilisk_expr::{and, col, or, ColumnRef, PredicateTree};
use basilisk_storage::{Table, TableBuilder};
use basilisk_types::{DataType, MaskArena};

fn title() -> Arc<Table> {
    let mut b = TableBuilder::new("title")
        .column("id", DataType::Int)
        .column("year", DataType::Int);
    for i in 0..100i64 {
        b.push_row(vec![i.into(), (1900 + i % 120).into()]).unwrap();
    }
    Arc::new(b.finish().unwrap())
}

fn tset() -> TableSet {
    TableSet::from_tables(vec![("t".into(), title())])
}

/// A predicate whose second AND-child references a missing column, so
/// evaluation fails *after* the first child produced a pooled mask.
/// The first child must stay **mixed** over the test data (years
/// 1900–1999, so `> 1950` is true for some lanes and false for
/// others): the connective folds short-circuit a saturated morsel —
/// an all-false first conjunct would skip the broken atom entirely
/// and the evaluation would (correctly) succeed.
fn failing_tree() -> PredicateTree {
    PredicateTree::build(&or(vec![
        and(vec![
            col("t", "year").gt(1950i64),
            col("t", "no_such_column").gt(0i64),
        ]),
        col("t", "year").lt(1950i64),
    ]))
}

#[test]
fn failed_plain_filter_leaks_nothing() {
    let ts = tset();
    let tree = failing_tree();
    let arena = MaskArena::new();
    let cx = ExecCtx::serial(&arena);
    for count in [false, true] {
        let rel = IdxRelation::base_in("t", 100, &arena);
        let err = plain_filter(&cx, &ts, &rel, &tree, tree.root(), count);
        assert!(err.is_err(), "missing column must fail evaluation");
        rel.recycle(&arena);
        assert_eq!(
            arena.outstanding(),
            0,
            "mid-fold failure stranded pooled buffers (count={count})"
        );
    }
    // The pool still serves the repaired query afterwards.
    let ok_tree = PredicateTree::build(&col("t", "year").gt(2000i64));
    let rel = IdxRelation::base_in("t", 100, &arena);
    assert!(plain_filter(&cx, &ts, &rel, &ok_tree, ok_tree.root(), false).is_ok());
}

#[test]
fn failed_tagged_filter_leaks_nothing() {
    let ts = tset();
    let tree = failing_tree();
    let arena = MaskArena::new();
    let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
    // Filter on the whole (failing) conjunction's first atom sibling: use
    // the root so the fold reaches the broken atom.
    let map = builder.filter_map(tree.root(), &[basilisk_core::Tag::empty()]);
    let input = TaggedRelation::base_in(IdxRelation::base_in("t", 100, &arena), &arena);
    let before_cols = arena.stats().columns;
    let err = tagged_filter(&ExecCtx::serial(&arena), &ts, &input, &tree, &map, None);
    assert!(err.is_err());
    input.recycle(&arena);
    assert_eq!(
        arena.outstanding(),
        0,
        "failed tagged filter stranded pooled buffers"
    );
    // No column buffer was lost either: the relation's identity column
    // went back to the pool despite the error.
    assert_eq!(arena.stats().columns.fresh, before_cols.fresh);
}

#[test]
fn failed_tagged_join_leaks_nothing() {
    let ts = tset();
    let tree = PredicateTree::build(&col("t", "year").gt(2000i64));
    let arena = MaskArena::new();
    let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
    let left = TaggedRelation::base_in(IdxRelation::base_in("t", 100, &arena), &arena);
    // Second relation over the same table set (alias "t" again is fine —
    // the join key is what is broken).
    let right = TaggedRelation::base_in(IdxRelation::base_in("t", 100, &arena), &arena);
    let jm = builder.join_map(
        &[basilisk_core::Tag::empty()],
        &[basilisk_core::Tag::empty()],
    );
    let proj = builder.projection_tags(&builder.join_output_tags(&jm));
    // Key column covered by the relation but absent from the schema:
    // the key gather fails *after* the position buffers are checked out,
    // whether the join was asked for rows or for a count.
    for count in [None, Some(&proj)] {
        let err = tagged_join(
            &ExecCtx::serial(&arena),
            &ts,
            &left,
            &right,
            &ColumnRef::new("t", "no_such_column"),
            &ColumnRef::new("t", "id"),
            &jm,
            count,
        );
        assert!(err.is_err());
    }
    left.recycle(&arena);
    right.recycle(&arena);
    assert_eq!(
        arena.outstanding(),
        0,
        "failed tagged join stranded pooled buffers"
    );
}

#[test]
fn failed_union_leaks_no_pooled_columns() {
    let arena = MaskArena::new();
    // Inputs over different table sets → union fails after the output
    // columns and dedup scratch were checked out.
    let a = IdxRelation::base_in("t", 10, &arena);
    let b = IdxRelation::base_in("u", 10, &arena);
    assert!(union_all_dedup(&[a.clone(), b.clone()], &arena).is_err());
    a.recycle(&arena);
    b.recycle(&arena);
    assert_eq!(
        arena.outstanding(),
        0,
        "failed union stranded pooled buffers (MaskArena or ColumnPool)"
    );
}
