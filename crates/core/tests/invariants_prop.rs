//! Tagged-execution invariants under random filter chains, plus the §3.2
//! "Limitations" worst case.
//!
//! Invariants checked after every operator (from §2.1/§2.5):
//! * relational slices are mutually exclusive;
//! * the underlying index relation is never rewritten by filters;
//! * every slice's bitmap length matches the relation;
//! * the union of output slices is a subset of the union of input slices
//!   (filters only drop or re-label, never invent tuples).

use basilisk_core::{
    tagged_filter, tagged_select_final, Tag, TagMapBuilder, TagMapStrategy, TaggedRelation,
};
use basilisk_exec::{Emit, ExecCtx, IdxRelation, TableSet};
use basilisk_expr::{and, col, or, Expr, PredicateTree};
use basilisk_storage::{Column, Table};
use basilisk_types::MaskArena;
use proptest::prelude::*;
use std::sync::Arc;

fn table(values: &[i64]) -> TableSet {
    let cols = vec![
        ("a".to_string(), Column::from_ints(values.to_vec())),
        (
            "b".to_string(),
            Column::from_ints(values.iter().map(|v| v * 7 % 100).collect()),
        ),
        (
            "c".to_string(),
            Column::from_ints(values.iter().map(|v| v * 13 % 100).collect()),
        ),
    ];
    let t = Table::from_columns("t", cols).unwrap();
    TableSet::from_tables(vec![("t".into(), Arc::new(t))])
}

/// The relation of an operator asked for rows.
fn rows<R>(emitted: Emit<R>) -> R {
    match emitted {
        Emit::Rows(rel) => rel,
        Emit::Count(n) => panic!("asked for rows, got a count of {n}"),
    }
}

fn pred_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(|v| col("t", "a").lt(v)),
        (0i64..100).prop_map(|v| col("t", "b").ge(v)),
        (0i64..100).prop_map(|v| col("t", "c").eq(v)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Expr::And),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Expr::Or),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filter_chains_preserve_invariants(
        values in proptest::collection::vec(0i64..100, 1..120),
        pred in pred_strategy(),
    ) {
        let tables = table(&values);
        let arena = MaskArena::new();
        let tree = PredicateTree::build(&pred);
        let builder =
            TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let cx = ExecCtx::serial(&arena);
        let mut rel =
            TaggedRelation::base_in(IdxRelation::base_in("t", values.len(), &arena), &arena);
        let mut tags = vec![Tag::empty()];
        for node in tree.atom_ids() {
            let map = builder.filter_map(node, &tags);
            tags = builder.filter_output_tags(&map, &tags);
            let prev_union = rel.union_of_in(&rel.tags(), &arena);
            rel = rows(tagged_filter(&cx, &tables, &rel, &tree, &map, None).unwrap());
            // Invariants.
            prop_assert!(rel.check_mutually_exclusive());
            prop_assert_eq!(rel.num_tuples(), values.len(), "relation never rewritten");
            prop_assert!(
                rel.union_of_in(&rel.tags(), &arena).is_subset(&prev_union),
                "filters only drop or re-label"
            );
            for (tag, bm) in rel.slices() {
                prop_assert_eq!(bm.len(), values.len());
                prop_assert!(!bm.is_zero(), "empty slices are removed");
                prop_assert!(!tag.is_empty() || rel.num_slices() == 1);
            }
        }
        // Final check: projected rows equal a direct evaluation.
        let proj = builder.projection_tags(&tags);
        let selected = rows(tagged_select_final(&rel, &proj, &arena, false));
        let counted = tagged_select_final(&rel, &proj, &arena, true);
        prop_assert!(
            matches!(counted, Emit::Count(n) if n == selected.len()),
            "the admitted popcount is the selection"
        );
        let expected = rows(
            basilisk_exec::filter(
                &cx,
                &tables,
                &IdxRelation::base_in("t", values.len(), &arena),
                &tree,
                tree.root(),
                false,
            )
            .unwrap(),
        );
        let mut a = selected.col("t").unwrap().to_vec();
        let mut e = expected.col("t").unwrap().to_vec();
        a.sort_unstable();
        e.sort_unstable();
        prop_assert_eq!(a, e);
    }
}

/// The §3.2 "Limitations" case: (X1 ∨ Y1) ∧ … ∧ (Xn ∨ Yn) with filters
/// ordered X1..Xn, Y1..Yn requires 2ⁿ tags mid-pipeline — generalization
/// cannot help because no clause resolves until its Y arrives. The paper:
/// "the number of tags produced can still be exponential in the worst
/// case". Interleaving the same filters (X1 Y1 X2 Y2 …) keeps the tag
/// space linear.
#[test]
fn limitations_worst_case_tag_blowup() {
    let n = 6usize;
    let clauses: Vec<Expr> = (0..n)
        .map(|i| {
            or(vec![
                col("t", &format!("x{i}")).lt(50i64),
                col("t", &format!("y{i}")).lt(50i64),
            ])
        })
        .collect();
    let tree = PredicateTree::build(&and(clauses));
    let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
    let find = |s: String| {
        tree.atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == s)
            .unwrap()
    };

    // Degenerate order: all X first.
    let mut tags = vec![Tag::empty()];
    let mut peak_bad = 0;
    for i in 0..n {
        let map = builder.filter_map(find(format!("t.x{i} < 50")), &tags);
        tags = builder.filter_output_tags(&map, &tags);
        peak_bad = peak_bad.max(tags.len());
    }
    assert_eq!(peak_bad, 1 << n, "2^n tags after the X prefix");

    // Interleaved order: X_i immediately followed by Y_i.
    let mut tags = vec![Tag::empty()];
    let mut peak_good = 0;
    for i in 0..n {
        for name in [format!("t.x{i} < 50"), format!("t.y{i} < 50")] {
            let map = builder.filter_map(find(name), &tags);
            tags = builder.filter_output_tags(&map, &tags);
            peak_good = peak_good.max(tags.len());
        }
    }
    assert!(
        peak_good <= 3,
        "interleaving collapses each clause immediately (got {peak_good})"
    );
}
