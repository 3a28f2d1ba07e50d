//! Driver-level error-path leak suite: when one subtree of a plan fails
//! mid-execution, every *sibling* intermediate relation built before (or
//! concurrently with) the failure must still be recycled into the arena
//! that produced it — operator-level recycling (covered in
//! `core/tests/arena_leaks.rs`) is not enough if the plan walker drops a
//! finished sibling on the floor while propagating the error.
//!
//! One table over the walker: failing shape and execution model × serial
//! or pooled × untraced or traced × rows or count (a count runs the same
//! children and only asks the root to count). The pooled runs use a 4-worker pool
//! over sub-morsel tables with every join input / union child a filter
//! (not a bare scan), so untraced they actually **ship** as tasks of one
//! region — the sibling's buffers then live in a worker arena and must
//! drain through the region's discard routing — while traced they stay
//! on the coordinator.

use basilisk_catalog::Catalog;
use basilisk_core::{Tag, TagMapBuilder, TagMapStrategy};
use basilisk_exec::{ExecCtx, TableSet};
use basilisk_expr::{and, col, ColumnRef, ExprId, PredicateTree};
use basilisk_plan::{execute_tagged, execute_traditional, APlan, JoinCond, TPlan};
use basilisk_sched::WorkerPool;
use basilisk_storage::TableBuilder;
use basilisk_types::{DataType, MaskArena, Tracer};

fn tables() -> TableSet {
    let mut cat = Catalog::new();
    let mut b = TableBuilder::new("t")
        .column("id", DataType::Int)
        .column("year", DataType::Int);
    for i in 0..50i64 {
        b.push_row(vec![i.into(), (1980 + i % 40).into()]).unwrap();
    }
    cat.add_table(b.finish().unwrap()).unwrap();
    let mut b = TableBuilder::new("s").column("movie_id", DataType::Int);
    for i in 0..30i64 {
        b.push_row(vec![i.into()]).unwrap();
    }
    cat.add_table(b.finish().unwrap()).unwrap();
    TableSet::new(&cat, &[("t".into(), "t".into()), ("s".into(), "s".into())]).unwrap()
}

/// Two healthy atoms and one over a missing column: the filter
/// evaluating the third fails after its input relation was built.
fn tree() -> PredicateTree {
    PredicateTree::build(&and(vec![
        col("t", "year").gt(1990i64),
        col("s", "movie_id").gt(5i64),
        col("s", "no_such_column").gt(0i64),
    ]))
}

fn atom(tree: &PredicateTree, text: &str) -> ExprId {
    tree.atom_ids()
        .into_iter()
        .find(|&id| tree.display(id) == text)
        .unwrap()
}

/// A failing plan shape under an execution model (tagged plans have no
/// union operator, so there is no fourth case).
#[derive(Debug, Clone, Copy)]
enum Case {
    /// `filter(t) ⋈ failing-filter(s)`: the left input must be recycled.
    TaggedFailingRightSubtree,
    TraditionalFailingRightSubtree,
    /// `filter(s) ∪ failing-filter(s)`: the first child must be recycled.
    TraditionalFailingLaterUnionChild,
}

/// Run the case's plan for its rows or its count; whether it failed, as
/// it must.
fn fails(case: Case, cx: &ExecCtx<'_>, ts: &TableSet, count: bool) -> bool {
    let tree = tree();
    let (ok_t, ok_s, bad_s) = (
        atom(&tree, "t.year > 1990"),
        atom(&tree, "s.movie_id > 5"),
        atom(&tree, "s.no_such_column > 0"),
    );
    let cond = JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("s", "movie_id"));
    match case {
        Case::TraditionalFailingRightSubtree => {
            let plan = APlan::join(
                cond,
                APlan::filter(ok_t, APlan::scan("t")),
                APlan::filter(bad_s, APlan::scan("s")),
            );
            execute_traditional(cx, &plan, ts, Some(&tree), count).is_err()
        }
        Case::TraditionalFailingLaterUnionChild => {
            let plan = APlan::Union {
                children: vec![
                    APlan::filter(ok_s, APlan::scan("s")),
                    APlan::filter(bad_s, APlan::scan("s")),
                ],
            };
            execute_traditional(cx, &plan, ts, Some(&tree), count).is_err()
        }
        Case::TaggedFailingRightSubtree => {
            let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
            let base = [Tag::empty()];
            let side = |node: ExprId, alias: &str| {
                let map = b.filter_map(node, &base);
                let tags = b.filter_output_tags(&map, &base);
                let plan = TPlan::Filter {
                    node,
                    map,
                    child: Box::new(TPlan::Scan {
                        alias: alias.into(),
                    }),
                };
                (Box::new(plan), tags)
            };
            let (left, left_tags) = side(ok_t, "t");
            let (right, right_tags) = side(bad_s, "s");
            let map = b.join_map(&left_tags, &right_tags);
            let projection = b.projection_tags(&b.join_output_tags(&map));
            let plan = TPlan::Join {
                cond,
                map,
                left,
                right,
            };
            execute_tagged(cx, &plan, &projection, ts, &tree, count).is_err()
        }
    }
}

#[test]
fn failing_sibling_subtrees_leak_nothing() {
    let ts = tables();
    for case in [
        Case::TaggedFailingRightSubtree,
        Case::TraditionalFailingRightSubtree,
        Case::TraditionalFailingLaterUnionChild,
    ] {
        for (pooled, traced, count) in (0..8).map(|i| (i & 1 != 0, i & 2 != 0, i & 4 != 0)) {
            let case_name = format!("{case:?} / pooled={pooled} / traced={traced} / count={count}");
            let arena = MaskArena::new();
            let pool = WorkerPool::new(4);
            let tracer = Tracer::new();
            let cx = ExecCtx {
                arena: &arena,
                pool: pooled.then_some(&pool),
                tracer: traced.then_some(&tracer),
            };
            assert!(fails(case, &cx, &ts, count), "{case_name}: must fail");
            assert_eq!(
                arena.outstanding(),
                0,
                "{case_name}: the failing subtree stranded a sibling's buffers"
            );
            assert_eq!(
                pool.outstanding(),
                0,
                "{case_name}: a worker arena kept a shipped sibling's buffers"
            );
            // The siblings really ran as one region when — and only
            // when — the run was pooled and untraced.
            assert_eq!(
                pool.region_stats().regions,
                u64::from(pooled && !traced),
                "{case_name}: shipping"
            );
        }
    }
}
