//! The plan driver: one walker, two execution models, two outputs.
//!
//! A plan is executed by [`visit`], the only recursive traversal in this
//! module, which is generic over a [`Model`]: the model supplies the
//! node-local steps (scan / filter / join / union over its relation
//! type) and the walker owns everything around them, once —
//!
//! * **child evaluation and subtree shipping** ([`run_children`]): small
//!   serial sibling subtrees run concurrently as tasks of one parallel
//!   region; traced runs never ship (the tracer is bound to the
//!   coordinating thread);
//! * **operator spans**: `rows_in`/`rows_out`/`morsels`/`region` (a
//!   filter's `atom` children and `zone_*` attrs come from the one
//!   evaluation itself, recorded by `ExecCtx::eval_mask`);
//! * **recycling**: every intermediate relation goes back to the arena
//!   that produced it the moment its consumer has produced its output —
//!   also when a later sibling fails.
//!
//! The two models are the paper's two operator sets: [`Tagged`]
//! (`tagged_filter`/`tagged_join` over [`TaggedRelation`]s, driven by
//! tag maps) and [`Traditional`] (`filter`/`hash_join`/`union` over
//! [`IdxRelation`]s — the baseline and the differential oracle). They
//! stay separate *implementations* and share one *driver*, so a
//! tagged-vs-traditional comparison measures the operators, not two
//! interpreters.
//!
//! The two outputs are the result rows and, for a `COUNT(*)` statement,
//! only their number. Both entry points take a `count` flag: children
//! always run for rows, and only the **root operator** is asked to
//! [`Emit::Count`]. A tagged root filter or join counts the tuples it
//! routes to, or the matching pairs it lands in, an out tag the
//! projection admits; a traditional root filter or join counts its
//! mask's true lanes or its matches; a root scan or union (which needs
//! its tuples to dedup) produces its relation and counts what the final
//! selection would keep — for tagged relations the popcounts of the
//! admitted slices. The output relation is never materialized, and span
//! names and shapes stay the same: the root's `rows_out` (and, on tagged
//! plans, the `project` span's `rows_in`/`rows_out`) is the count.
//!
//! Arena discipline: every operator draws its mask/bitmap scratch from
//! the context's [`MaskArena`], and with the arena's
//! [`ColumnPool`](basilisk_types::ColumnPool) serving scan identities,
//! join outputs (`combine`) and union outputs, repeated executions of
//! one plan perform zero allocations of the pooled buffer shapes (masks,
//! bitmaps, `u32` index scratch, index columns) after warmup. Only
//! *value*-column materializations — projected outputs and gathered
//! join-key/predicate values — remain ordinary allocations (see
//! ROADMAP).

use basilisk_core::{
    tagged_filter, tagged_join, tagged_select_final, FilterTagMap, JoinTagMap, ProjectionTags,
    TaggedRelation,
};
use basilisk_exec::{filter, hash_join, union_all_dedup, Emit, ExecCtx, IdxRelation, TableSet};
use basilisk_expr::{ExprId, PredicateTree};
use basilisk_sched::{last_region_id, WorkerPool};
use basilisk_types::{BasiliskError, MaskArena, Result, SpanId, Tracer};

use crate::aplan::APlan;
use crate::cost::TPlan;
use crate::query::JoinCond;

/// One plan node as the walker sees it: its kind, the model's operator
/// payload, and its children.
enum Node<'p, M: Model + ?Sized> {
    Scan(&'p str),
    Filter(&'p M::FilterOp, &'p M::Plan),
    Join(&'p JoinCond, &'p M::JoinOp, &'p M::Plan, &'p M::Plan),
    Union(&'p [M::Plan]),
}

/// An execution model: the node-local steps [`walk`] drives. `Sync`
/// because shipped subtrees run the same model from worker threads.
trait Model: Sync {
    type Plan: Sync;
    type Rel: Send;
    type FilterOp;
    type JoinOp;
    /// Span names of the model's filter and join operators.
    const FILTER: &'static str;
    const JOIN: &'static str;

    fn tables(&self) -> &TableSet;
    fn node(plan: &Self::Plan) -> Node<'_, Self>;

    fn scan(&self, cx: &ExecCtx<'_>, alias: &str) -> Result<Self::Rel>;
    /// `count` asks the root filter or join to [`Emit::Count`] instead
    /// of building its output.
    fn filter(
        &self,
        cx: &ExecCtx<'_>,
        op: &Self::FilterOp,
        input: &Self::Rel,
        count: bool,
    ) -> Result<Emit<Self::Rel>>;
    fn join(
        &self,
        cx: &ExecCtx<'_>,
        cond: &JoinCond,
        op: &Self::JoinOp,
        left: &Self::Rel,
        right: &Self::Rel,
        count: bool,
    ) -> Result<Emit<Self::Rel>>;
    fn union(&self, cx: &ExecCtx<'_>, inputs: &[Self::Rel]) -> Result<Self::Rel>;
    /// Consume a root relation that could not count itself (a scan, a
    /// union), returning how many of its tuples the output keeps.
    fn count(&self, cx: &ExecCtx<'_>, rel: Self::Rel) -> usize;

    /// Length of the underlying index relation — what decides fan-out.
    fn rows(rel: &Self::Rel) -> usize;
    /// Live tuples — what spans report as `rows_in`/`rows_out`.
    fn tuples(rel: &Self::Rel) -> usize;
    fn recycle(rel: Self::Rel, arena: &MaskArena);
}

/// The tagged model (§2): filters re-label slices, joins dispatch through
/// tag maps, the relation is never rewritten. `projection` is the tag
/// set the final selection admits (§2.4) — what a count counts.
struct Tagged<'a> {
    tables: &'a TableSet,
    tree: &'a PredicateTree,
    projection: &'a ProjectionTags,
}

impl Model for Tagged<'_> {
    type Plan = TPlan;
    type Rel = TaggedRelation;
    type FilterOp = FilterTagMap;
    type JoinOp = JoinTagMap;
    const FILTER: &'static str = "tagged_filter";
    const JOIN: &'static str = "tagged_join";

    fn tables(&self) -> &TableSet {
        self.tables
    }

    fn node(plan: &TPlan) -> Node<'_, Self> {
        match plan {
            TPlan::Scan { alias } => Node::Scan(alias),
            TPlan::Filter { map, child, .. } => Node::Filter(&**map, &**child),
            TPlan::Join {
                cond,
                map,
                left,
                right,
            } => Node::Join(cond, &**map, &**left, &**right),
        }
    }

    fn scan(&self, cx: &ExecCtx<'_>, alias: &str) -> Result<TaggedRelation> {
        let base = IdxRelation::base_in(alias, self.tables.num_rows(alias)?, cx.arena);
        Ok(TaggedRelation::base_in(base, cx.arena))
    }

    fn filter(
        &self,
        cx: &ExecCtx<'_>,
        map: &FilterTagMap,
        input: &TaggedRelation,
        count: bool,
    ) -> Result<Emit<TaggedRelation>> {
        let admitted = count.then_some(self.projection);
        tagged_filter(cx, self.tables, input, self.tree, map, admitted)
    }

    fn join(
        &self,
        cx: &ExecCtx<'_>,
        cond: &JoinCond,
        map: &JoinTagMap,
        left: &TaggedRelation,
        right: &TaggedRelation,
        count: bool,
    ) -> Result<Emit<TaggedRelation>> {
        let (l, r) = (&cond.left, &cond.right);
        let admitted = count.then_some(self.projection);
        tagged_join(cx, self.tables, left, right, l, r, map, admitted)
    }

    fn union(&self, _: &ExecCtx<'_>, _: &[TaggedRelation]) -> Result<TaggedRelation> {
        Err(BasiliskError::Plan("tagged plans have no union".into()))
    }

    fn count(&self, cx: &ExecCtx<'_>, rel: TaggedRelation) -> usize {
        let n = emitted(
            tagged_select_final(&rel, self.projection, cx.arena, true),
            cx.arena,
        );
        rel.recycle(cx.arena);
        n
    }

    fn rows(rel: &TaggedRelation) -> usize {
        rel.num_tuples()
    }

    fn tuples(rel: &TaggedRelation) -> usize {
        rel.num_tagged_tuples()
    }

    fn recycle(rel: TaggedRelation, arena: &MaskArena) {
        rel.recycle(arena)
    }
}

/// The traditional model (§1, §5): filters keep *true* tuples, joins are
/// plain hash joins, unions deduplicate. `tree` is `None` for
/// predicate-free (join-only) plans.
struct Traditional<'a> {
    tables: &'a TableSet,
    tree: Option<&'a PredicateTree>,
}

impl Model for Traditional<'_> {
    type Plan = APlan;
    type Rel = IdxRelation;
    type FilterOp = ExprId;
    type JoinOp = ();
    const FILTER: &'static str = "filter";
    const JOIN: &'static str = "hash_join";

    fn tables(&self) -> &TableSet {
        self.tables
    }

    fn node(plan: &APlan) -> Node<'_, Self> {
        match plan {
            APlan::Scan { alias } => Node::Scan(alias),
            APlan::Filter { node, child } => Node::Filter(node, &**child),
            APlan::Join { cond, left, right } => Node::Join(cond, &(), &**left, &**right),
            APlan::Union { children } => Node::Union(children),
        }
    }

    fn scan(&self, cx: &ExecCtx<'_>, alias: &str) -> Result<IdxRelation> {
        Ok(IdxRelation::base_in(
            alias,
            self.tables.num_rows(alias)?,
            cx.arena,
        ))
    }

    fn filter(
        &self,
        cx: &ExecCtx<'_>,
        node: &ExprId,
        input: &IdxRelation,
        count: bool,
    ) -> Result<Emit<IdxRelation>> {
        filter(cx, self.tables, input, self.predicate()?, *node, count)
    }

    fn join(
        &self,
        cx: &ExecCtx<'_>,
        cond: &JoinCond,
        _: &(),
        left: &IdxRelation,
        right: &IdxRelation,
        count: bool,
    ) -> Result<Emit<IdxRelation>> {
        hash_join(cx, self.tables, left, right, &cond.left, &cond.right, count)
    }

    /// Deduplicates serially on the coordinator (the dedup table is
    /// inherently order-dependent, and its output escapes into the
    /// session arena), folding in child order over results that may have
    /// been produced concurrently — bit-for-bit the serial order.
    fn union(&self, cx: &ExecCtx<'_>, inputs: &[IdxRelation]) -> Result<IdxRelation> {
        union_all_dedup(inputs, cx.arena)
    }

    fn count(&self, cx: &ExecCtx<'_>, rel: IdxRelation) -> usize {
        emitted(Emit::Rows(rel), cx.arena)
    }

    fn rows(rel: &IdxRelation) -> usize {
        rel.len()
    }

    fn tuples(rel: &IdxRelation) -> usize {
        rel.len()
    }

    fn recycle(rel: IdxRelation, arena: &MaskArena) {
        rel.recycle(arena)
    }
}

impl<'a> Traditional<'a> {
    fn predicate(&self) -> Result<&'a PredicateTree> {
        self.tree
            .ok_or_else(|| BasiliskError::Plan("filter node in a predicate-free plan".into()))
    }
}

/// How many tuples an index-relation output holds, recycling the
/// relation if one was materialized.
fn emitted(out: Emit<IdxRelation>, arena: &MaskArena) -> usize {
    match out {
        Emit::Rows(rel) => {
            let n = rel.len();
            rel.recycle(arena);
            n
        }
        Emit::Count(n) => n,
    }
}

/// Stamp the shared operator attributes and close the span: row counts,
/// how many morsels an evaluation over `fan_rows` rows fans out into
/// (`0` for operators that never fan out), and — when it actually
/// fanned out — the id of the parallel region it ran as.
fn span_finish(
    (t, s): (&Tracer, SpanId),
    pool: Option<&WorkerPool>,
    rows_in: usize,
    rows_out: usize,
    fan_rows: usize,
) {
    t.attr(s, "rows_in", rows_in);
    t.attr(s, "rows_out", rows_out);
    match pool.filter(|p| p.would_parallelize(fan_rows)) {
        Some(p) => {
            t.attr(s, "morsels", p.morsels(fan_rows).len());
            t.attr(s, "region", last_region_id());
        }
        None => t.attr(s, "morsels", 1usize),
    }
    t.end(s);
}

/// Largest base-relation cardinality under a subtree — the size proxy
/// the shipping heuristic compares against the morsel threshold (unknown
/// aliases pessimize to `usize::MAX`, which simply keeps the subtree on
/// the coordinator; the real error surfaces when the subtree executes).
fn max_base_rows<M: Model>(m: &M, plan: &M::Plan) -> usize {
    match M::node(plan) {
        Node::Scan(alias) => m.tables().num_rows(alias).unwrap_or(usize::MAX),
        Node::Filter(_, child) => max_base_rows(m, child),
        Node::Join(_, _, left, right) => max_base_rows(m, left).max(max_base_rows(m, right)),
        Node::Union(children) => children
            .iter()
            .map(|c| max_base_rows(m, c))
            .max()
            .unwrap_or(0),
    }
}

/// Whether a subtree should be **shipped** to the pool as one
/// schedulable task: it does real work (not a bare scan, whose pooled
/// identity allocation is cheaper than a region) and it is small enough
/// that none of its operators would have fanned out morsel-parallel —
/// shipping it serial therefore *adds* parallelism (the subtree overlaps
/// its siblings and other sessions' regions) without ever taking
/// morsel-level parallelism away from a large subtree.
fn ships<M: Model>(m: &M, pool: &WorkerPool, plan: &M::Plan) -> bool {
    !matches!(M::node(plan), Node::Scan(_)) && !pool.would_parallelize(max_base_rows(m, plan))
}

/// A node's evaluated children, in child order, each beside the arena
/// that produced it: a worker's (`Some(worker)`, shipped subtrees) or
/// the session's.
struct Inputs<R> {
    homes: Vec<Option<u32>>,
    rels: Vec<R>,
}

impl<R> Inputs<R> {
    /// Hand every relation back to the arena that produced it.
    fn recycle<M: Model<Rel = R>>(self, cx: &ExecCtx<'_>) {
        for (home, rel) in self.homes.into_iter().zip(self.rels) {
            match (home, cx.pool) {
                (Some(w), Some(pool)) => pool.with_arena(w, |a| M::recycle(rel, a)),
                _ => M::recycle(rel, cx.arena),
            }
        }
    }
}

/// Evaluate a node's children.
///
/// Independent-subtree parallelism — both inputs of a join, the clauses
/// of a BDisj union: when at least two children [`ships`], those run as
/// the tasks of one region, concurrently on the pool's workers (and
/// interleaved with other sessions' regions) while this thread waits;
/// large children stay on this thread with full morsel parallelism.
/// Each shipped result's buffers live in the producing worker's arena,
/// and the task bodies run under [`ExecCtx::serial`] — a task never
/// re-enters the pool. Traced runs never ship. A failing child recycles
/// every sibling already evaluated before the error propagates.
fn run_children<M: Model>(
    m: &M,
    cx: &ExecCtx<'_>,
    children: &[&M::Plan],
) -> Result<Inputs<M::Rel>> {
    let mut slots: Vec<Option<(Option<u32>, M::Rel)>> = children.iter().map(|_| None).collect();
    if let (Some(pool), None) = (cx.pool, cx.tracer) {
        let shipped: Vec<usize> = (0..children.len())
            .filter(|&i| ships(m, pool, children[i]))
            .collect();
        if shipped.len() >= 2 {
            let results = pool.run(
                shipped.iter().map(|&i| children[i]).collect(),
                |w, child| walk(m, &ExecCtx::serial(w.arena), child),
                |a, rel| M::recycle(rel, a),
            )?;
            for (i, (w, rel)) in shipped.into_iter().zip(results) {
                slots[i] = Some((Some(w), rel));
            }
        }
    }
    let evaluated = slots
        .iter_mut()
        .zip(children)
        .try_for_each(|(slot, child)| {
            if slot.is_none() {
                *slot = Some((None, walk(m, cx, child)?));
            }
            Ok(())
        });
    let (homes, rels) = slots.into_iter().flatten().unzip();
    let done = Inputs { homes, rels };
    match evaluated {
        Ok(()) => Ok(done),
        Err(e) => {
            done.recycle::<M>(cx);
            Err(e)
        }
    }
}

/// Execute the subtree rooted at `plan` under model `m` for its rows.
fn walk<M: Model>(m: &M, cx: &ExecCtx<'_>, plan: &M::Plan) -> Result<M::Rel> {
    match visit(m, cx, plan, false)? {
        Emit::Rows(rel) => Ok(rel),
        Emit::Count(_) => unreachable!("only a count is answered with a count"),
    }
}

/// Execute the subtree rooted at `plan` under model `m`. Its children
/// run for their rows; with `count` the node itself emits only how many
/// tuples the statement's output would keep (see the module docs).
fn visit<M: Model>(m: &M, cx: &ExecCtx<'_>, plan: &M::Plan, count: bool) -> Result<Emit<M::Rel>> {
    let node = M::node(plan);
    let (name, children): (_, Vec<&M::Plan>) = match &node {
        Node::Scan(_) => ("scan", vec![]),
        Node::Filter(_, child) => (M::FILTER, vec![*child]),
        Node::Join(_, _, left, right) => (M::JOIN, vec![*left, *right]),
        Node::Union(children) => ("union", children.iter().collect()),
    };
    // The span opens **before** the children execute, so the span tree
    // mirrors the plan tree (durations are inclusive of the subtree).
    let span = cx.tracer.map(|t| (t, t.begin(name)));
    let inputs = run_children(m, cx, &children)?;
    let rels = &inputs.rels;
    let out = match &node {
        Node::Scan(alias) => m.scan(cx, alias).map(Emit::Rows),
        Node::Filter(op, _) => m.filter(cx, op, &rels[0], count),
        Node::Join(cond, op, ..) => m.join(cx, cond, op, &rels[0], &rels[1], count),
        Node::Union(_) => m.union(cx, rels).map(Emit::Rows),
    }
    .map(|out| match out {
        Emit::Rows(rel) if count => Emit::Count(m.count(cx, rel)),
        out => out,
    });
    if let Some((t, s)) = span {
        // Filters and joins fan out by their largest input; scans and
        // the (serial) union dedup never do.
        let fan_rows = match node {
            Node::Union(_) => 0,
            _ => rels.iter().map(M::rows).max().unwrap_or(0),
        };
        let rows_out = match &out {
            Ok(Emit::Rows(rel)) => M::tuples(rel),
            Ok(Emit::Count(n)) => *n,
            Err(_) => 0,
        };
        span_finish(
            (t, s),
            cx.pool,
            rels.iter().map(M::tuples).sum(),
            rows_out,
            fan_rows,
        );
    }
    inputs.recycle::<M>(cx);
    out
}

/// Execute a tagged physical plan, returning the final (projected) index
/// relation — or, with `count`, only how many tuples it holds.
///
/// With `cx.pool` every filter evaluates morsel-parallel and every join
/// probes partitioned (per relation, when it is large enough to fan
/// out), and small sibling subtrees ship as pool tasks; with `cx.tracer`
/// each operator records a span (nested to mirror the plan tree)
/// carrying `rows_in`/`rows_out`, its morsel fan-out, the parallel-region
/// id it ran as, and — for filters — one timed `atom` child span per
/// predicate atom describing what the filter's single evaluation did
/// with it. Output is bit-for-bit identical across all four
/// combinations.
pub fn execute_tagged(
    cx: &ExecCtx<'_>,
    plan: &TPlan,
    projection: &ProjectionTags,
    tables: &TableSet,
    tree: &PredicateTree,
    count: bool,
) -> Result<Emit<IdxRelation>> {
    let root = visit(
        &Tagged {
            tables,
            tree,
            projection,
        },
        cx,
        plan,
        count,
    )?;
    let span = cx.tracer.map(|t| (t, t.begin("project")));
    let (rows_in, out) = match &root {
        Emit::Rows(rel) => (
            span.map_or(0, |_| rel.num_tagged_tuples()),
            tagged_select_final(rel, projection, cx.arena, false),
        ),
        // The root already counted what this selection would keep.
        Emit::Count(n) => (*n, Emit::Count(*n)),
    };
    if let Some(span) = span {
        let rows_out = match &out {
            Emit::Rows(rel) => rel.len(),
            Emit::Count(n) => *n,
        };
        span_finish(span, None, rows_in, rows_out, 0);
    }
    if let Emit::Rows(rel) = root {
        rel.recycle(cx.arena);
    }
    Ok(out)
}

/// Execute an abstract plan under the traditional model (see
/// [`execute_tagged`] for what `cx` and `count` select; the span
/// contract is the same with `filter`/`hash_join`/`union` operator
/// names). `tree` may be `None` for a predicate-free plan; meeting a
/// filter node without one is a [`BasiliskError::Plan`].
pub fn execute_traditional(
    cx: &ExecCtx<'_>,
    plan: &APlan,
    tables: &TableSet,
    tree: Option<&PredicateTree>,
    count: bool,
) -> Result<Emit<IdxRelation>> {
    visit(&Traditional { tables, tree }, cx, plan, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{annotate_tagged, CostModel};
    use basilisk_catalog::{Catalog, Estimator};
    use basilisk_core::{TagMapBuilder, TagMapStrategy};
    use basilisk_expr::{and, col, or, ColumnRef};
    use basilisk_storage::TableBuilder;
    use basilisk_types::DataType;

    fn arena() -> MaskArena {
        MaskArena::new()
    }

    /// The rows of a plan executed for its rows.
    fn rows(out: Result<Emit<IdxRelation>>) -> IdxRelation {
        match out.unwrap() {
            Emit::Rows(rel) => rel,
            Emit::Count(n) => panic!("asked for rows, got a count of {n}"),
        }
    }

    /// The count of a plan executed for its count.
    fn counted(out: Result<Emit<IdxRelation>>) -> usize {
        match out.unwrap() {
            Emit::Count(n) => n,
            Emit::Rows(_) => panic!("asked for a count, got rows"),
        }
    }

    fn setup() -> (Catalog, TableSet, Estimator, PredicateTree) {
        let mut cat = Catalog::new();
        let mut b = TableBuilder::new("t")
            .column("id", DataType::Int)
            .column("year", DataType::Int);
        for i in 0..200i64 {
            b.push_row(vec![i.into(), (1900 + i % 120).into()]).unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let mut b = TableBuilder::new("mi")
            .column("movie_id", DataType::Int)
            .column("score", DataType::Float);
        for i in 0..300i64 {
            b.push_row(vec![(i % 200).into(), ((i % 100) as f64 / 10.0).into()])
                .unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let tables = TableSet::new(
            &cat,
            &[("t".into(), "t".into()), ("mi".into(), "mi".into())],
        )
        .unwrap();
        let est = Estimator::new(
            &cat,
            &[("t".into(), "t".into()), ("mi".into(), "mi".into())],
        )
        .unwrap();
        let e = or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("mi", "score").gt(7.0),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("mi", "score").gt(8.0),
            ]),
        ]);
        (cat, tables, est, PredicateTree::build(&e))
    }

    fn find(tree: &PredicateTree, s: &str) -> basilisk_expr::ExprId {
        tree.atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == s)
            .unwrap()
    }

    fn cond() -> JoinCond {
        JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id"))
    }

    /// Every atom pushed below the join, annotated for tagged execution.
    fn pushed(tree: &PredicateTree, est: &Estimator) -> crate::cost::TaggedAnnotation {
        let plan = APlan::join(
            cond(),
            APlan::filter(
                find(tree, "t.year > 1980"),
                APlan::filter(find(tree, "t.year > 2000"), APlan::scan("t")),
            ),
            APlan::filter(
                find(tree, "mi.score > 7"),
                APlan::filter(find(tree, "mi.score > 8"), APlan::scan("mi")),
            ),
        );
        let builder = TagMapBuilder::new(tree, TagMapStrategy::Generalized { use_closure: true });
        annotate_tagged(&plan, tree, &builder, est, &CostModel::default()).unwrap()
    }

    /// One join-of-filters plan per root clause, unioned (BDisj-style);
    /// the clauses share most matches, so the union must dedup.
    fn union_of_clauses(tree: &PredicateTree) -> APlan {
        let clause = |y: &str, s: &str| {
            APlan::join(
                cond(),
                APlan::filter(find(tree, y), APlan::scan("t")),
                APlan::filter(find(tree, s), APlan::scan("mi")),
            )
        };
        APlan::Union {
            children: vec![
                clause("t.year > 2000", "mi.score > 7"),
                clause("t.year > 1980", "mi.score > 8"),
            ],
        }
    }

    /// The whole predicate over the bare join.
    fn join_then_filter(tree: &PredicateTree) -> APlan {
        APlan::filter(
            tree.root(),
            APlan::join(cond(), APlan::scan("t"), APlan::scan("mi")),
        )
    }

    /// The golden equivalence: the same abstract pushdown plan executed
    /// tagged and a join-then-filter plan executed traditionally agree.
    #[test]
    fn tagged_equals_traditional() {
        let (_cat, tables, est, tree) = setup();
        let ann = pushed(&tree, &est);
        let a = arena();
        let cx = ExecCtx::serial(&a);
        let got = rows(execute_tagged(
            &cx,
            &ann.plan,
            &ann.projection,
            &tables,
            &tree,
            false,
        ));
        let expected = rows(execute_traditional(
            &cx,
            &join_then_filter(&tree),
            &tables,
            Some(&tree),
            false,
        ));

        let mut g: Vec<(u32, u32)> = (0..got.len())
            .map(|i| (got.col("t").unwrap()[i], got.col("mi").unwrap()[i]))
            .collect();
        let mut e: Vec<(u32, u32)> = (0..expected.len())
            .map(|i| {
                (
                    expected.col("t").unwrap()[i],
                    expected.col("mi").unwrap()[i],
                )
            })
            .collect();
        g.sort_unstable();
        e.sort_unstable();
        assert!(!g.is_empty(), "query should match something");
        assert_eq!(g, e);
    }

    /// A traced tagged run returns bit-for-bit the untraced output and
    /// records a well-formed span tree mirroring the plan: the join at
    /// the top, filter chains below, per-atom profile children on every
    /// filter span, and a final `project` span with the output count.
    #[test]
    fn traced_tagged_run_matches_untraced_and_records_spans() {
        let (_cat, tables, est, tree) = setup();
        let ann = pushed(&tree, &est);
        let a = arena();
        let cx = ExecCtx::serial(&a);
        let untraced = rows(execute_tagged(
            &cx,
            &ann.plan,
            &ann.projection,
            &tables,
            &tree,
            false,
        ));
        let tracer = Tracer::new();
        let traced_cx = ExecCtx {
            tracer: Some(&tracer),
            ..cx
        };
        let traced = rows(execute_tagged(
            &traced_cx,
            &ann.plan,
            &ann.projection,
            &tables,
            &tree,
            false,
        ));
        assert_eq!(traced.len(), untraced.len());
        for alias in ["t", "mi"] {
            let got: Vec<u32> = (0..traced.len())
                .map(|i| traced.col(alias).unwrap()[i])
                .collect();
            let want: Vec<u32> = (0..untraced.len())
                .map(|i| untraced.col(alias).unwrap()[i])
                .collect();
            assert_eq!(got, want, "traced output must be bit-for-bit untraced");
        }

        let root = tracer.finish();
        assert_eq!(root.name, "request");
        assert!(root.is_well_formed());
        let join = root.child("tagged_join").expect("top operator span");
        assert_eq!(join.descendants("scan").len(), 2);
        let filters = root.descendants("tagged_filter");
        assert_eq!(filters.len(), 4, "one span per filter operator");
        for f in &filters {
            let rows_in = f.int("rows_in").unwrap();
            let rows_out = f.int("rows_out").unwrap();
            assert!(rows_out <= rows_in);
            assert!(f.int("morsels").unwrap() >= 1);
            let atoms: Vec<_> = f.children.iter().filter(|c| c.name == "atom").collect();
            assert!(!atoms.is_empty(), "filter spans carry atom profiles");
            for at in atoms {
                assert!(at.str_attr("atom").is_some());
                let eval = at.int("lanes_evaluated").unwrap();
                assert!(at.int("true_count").unwrap() <= eval);
                assert!(at.int("lanes_short_circuited").unwrap() >= 0);
                assert!(at.int("unknown_count").unwrap() >= 0);
            }
        }
        let project = root.child("project").expect("projection span");
        assert_eq!(project.int("rows_out"), Some(traced.len() as i64));
        // Operator rows flow consistently into the final output.
        assert_eq!(join.int("rows_out"), project.int("rows_in"));
    }

    /// The traditional model's traced union path: identical output,
    /// a `union` span whose `rows_out` matches the result, and `filter`
    /// spans with full-relation atom profiles.
    #[test]
    fn traced_union_run_matches_untraced() {
        let (_cat, tables, _est, tree) = setup();
        let u = union_of_clauses(&tree);
        let a = arena();
        let cx = ExecCtx::serial(&a);
        let untraced = rows(execute_traditional(&cx, &u, &tables, Some(&tree), false));
        let tracer = Tracer::new();
        let traced_cx = ExecCtx {
            tracer: Some(&tracer),
            ..cx
        };
        let traced = rows(execute_traditional(
            &traced_cx,
            &u,
            &tables,
            Some(&tree),
            false,
        ));
        assert_eq!(traced.len(), untraced.len());

        let root = tracer.finish();
        assert!(root.is_well_formed());
        let union = root.child("union").expect("union span");
        assert_eq!(union.int("rows_out"), Some(traced.len() as i64));
        assert_eq!(union.descendants("hash_join").len(), 2);
        let filters = root.descendants("filter");
        assert_eq!(filters.len(), 4);
        for f in &filters {
            let atoms: Vec<_> = f.children.iter().filter(|c| c.name == "atom").collect();
            assert_eq!(atoms.len(), 1, "each clause filter profiles its atom");
            // Traditional filters evaluate every input lane.
            assert_eq!(atoms[0].int("lanes_short_circuited"), Some(0));
            assert_eq!(atoms[0].int("lanes_evaluated"), f.int("rows_in"));
        }
    }

    /// Union plans (BDisj-style) dedup correctly.
    #[test]
    fn union_plan_executes() {
        let (_cat, tables, _est, tree) = setup();
        let a = arena();
        let cx = ExecCtx::serial(&a);
        let got = rows(execute_traditional(
            &cx,
            &union_of_clauses(&tree),
            &tables,
            Some(&tree),
            false,
        ));
        let expected = rows(execute_traditional(
            &cx,
            &join_then_filter(&tree),
            &tables,
            Some(&tree),
            false,
        ));
        assert_eq!(got.len(), expected.len());
    }

    /// A filter node in a plan executed without a predicate tree is a
    /// typed plan error, not a panic.
    #[test]
    fn filter_without_a_predicate_tree_is_a_plan_error() {
        let (_cat, tables, _est, tree) = setup();
        let a = arena();
        for count in [false, true] {
            let err = execute_traditional(
                &ExecCtx::serial(&a),
                &join_then_filter(&tree),
                &tables,
                None,
                count,
            );
            assert!(matches!(err, Err(BasiliskError::Plan(_))));
            assert_eq!(a.outstanding(), 0, "the join below the filter was recycled");
        }
    }

    /// A count runs the plan to its root and counts there: the same
    /// number the rows path returns, for a tagged root join, a traditional
    /// root filter and a root union — with the rows path's span names,
    /// the count as the root's `rows_out`, and on tagged plans a
    /// `project` span carrying it in and out.
    #[test]
    fn counts_equal_rows_with_the_same_spans() {
        let (_cat, tables, est, tree) = setup();
        let ann = pushed(&tree, &est);
        let a = arena();
        let cx = ExecCtx::serial(&a);
        let tracer = Tracer::new();
        let traced_cx = ExecCtx {
            tracer: Some(&tracer),
            ..cx
        };

        let (plan, proj) = (&ann.plan, &ann.projection);
        let out = rows(execute_tagged(&cx, plan, proj, &tables, &tree, false));
        let want = out.len();
        out.recycle(&a);
        assert_eq!(
            counted(execute_tagged(&cx, plan, proj, &tables, &tree, true)),
            want
        );
        let n = counted(execute_tagged(&traced_cx, plan, proj, &tables, &tree, true));
        assert_eq!(n, want, "traced count equals untraced");
        let root = tracer.finish();
        assert!(root.is_well_formed());
        let join = root.child("tagged_join").expect("root operator span");
        assert_eq!(join.int("rows_out"), Some(want as i64));
        assert_eq!(root.descendants("tagged_filter").len(), 4);
        let project = root.child("project").expect("projection span");
        assert_eq!(project.int("rows_in"), Some(want as i64));
        assert_eq!(project.int("rows_out"), Some(want as i64));

        for plan in [join_then_filter(&tree), union_of_clauses(&tree)] {
            let out = rows(execute_traditional(&cx, &plan, &tables, Some(&tree), false));
            let want = out.len();
            out.recycle(&a);
            let tracer = Tracer::new();
            let traced_cx = ExecCtx {
                tracer: Some(&tracer),
                ..cx
            };
            let n = counted(execute_traditional(
                &traced_cx,
                &plan,
                &tables,
                Some(&tree),
                true,
            ));
            assert_eq!(n, want);
            let root = tracer.finish();
            assert!(root.is_well_formed());
            assert_eq!(root.children.len(), 1, "one root operator, no project");
            assert_eq!(root.children[0].int("rows_out"), Some(want as i64));
        }
        assert_eq!(a.outstanding(), 0, "counting strands nothing");
    }
}
