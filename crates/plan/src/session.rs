//! The one-stop query session: plan, execute, time.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use basilisk_catalog::{Catalog, Estimator};
use basilisk_core::{TagMapBuilder, TagMapStrategy};
use basilisk_exec::{project_in, Emit, ExecCtx, IdxRelation, TableSet};
use basilisk_expr::{ColumnRef, PredicateTree};
use basilisk_sched::WorkerPool;
use basilisk_storage::Column;
use basilisk_types::{ArenaStats, BasiliskError, MaskArena, Result, Tracer};

use crate::aplan::APlan;
use crate::cost::CostModel;
use crate::executor::{execute_tagged, execute_traditional};
use crate::join_order::greedy_join_tree;
use crate::planners::{plan as run_planner, PlannedQuery, PlannerInput, PlannerKind};
use crate::query::Query;

/// A planned query ready for (repeated) execution.
pub enum Plan {
    WithPredicate(PlannedQuery),
    /// Queries without a WHERE clause: a join-only traditional plan.
    JoinOnly(APlan),
}

impl Plan {
    pub fn estimated_cost(&self) -> f64 {
        match self {
            Plan::WithPredicate(p) => p.estimated_cost(),
            Plan::JoinOnly(_) => 0.0,
        }
    }

    /// The tagged planner that produced this plan, if any.
    pub fn chosen_planner(&self) -> Option<PlannerKind> {
        match self {
            Plan::WithPredicate(PlannedQuery::Tagged { chosen, .. }) => Some(*chosen),
            _ => None,
        }
    }
}

/// Wall-clock planning/execution split (the paper reports planning at
/// <0.1% of total except in the root-clause sweep, Fig. 4c).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTimings {
    pub planning: Duration,
    pub execution: Duration,
}

impl PlanTimings {
    pub fn total(&self) -> Duration {
        self.planning + self.execution
    }
}

/// The result rows of a query (as an index relation) plus helpers.
pub struct QueryOutput {
    pub rows: IdxRelation,
}

impl QueryOutput {
    pub fn count(&self) -> usize {
        self.rows.len()
    }

    /// Canonical sorted tuple list for result comparison in tests.
    pub fn canonical_tuples(&self) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = (0..self.rows.len())
            .map(|i| {
                // Sort columns by alias for cross-plan comparability.
                let mut named: Vec<(&String, u32)> = self
                    .rows
                    .tables()
                    .iter()
                    .zip(self.rows.cols())
                    .map(|(t, c)| (t, c[i]))
                    .collect();
                named.sort_by(|a, b| a.0.cmp(b.0));
                named.into_iter().map(|(_, v)| v).collect()
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// Whether an atom's own literal can make it evaluate to unknown
/// (comparing against NULL is unknown on every row). The serving layer
/// applies the same rule to parameter bindings: a NULL bound into a
/// statement planned two-valued forces a three-valued re-plan.
pub fn atom_has_null_literal(atom: &basilisk_expr::Atom) -> bool {
    use basilisk_types::Value;
    match atom {
        basilisk_expr::Atom::Cmp { value, .. } => matches!(value, Value::Null),
        basilisk_expr::Atom::InList { values, .. } => {
            values.iter().any(|v| matches!(v, Value::Null))
        }
        basilisk_expr::Atom::Like { .. } | basilisk_expr::Atom::IsNull { .. } => false,
    }
}

/// The reusable execution resources behind a [`QuerySession`]: the
/// session [`MaskArena`] (with its column/value pools and the deferred
/// result columns awaiting reclaim) plus a shared handle to a
/// [`WorkerPool`] — and the one place plans execute.
///
/// A context outlives any single query. Execution borrows everything it
/// reads (the plan, its tables, the predicate tree the plan's `ExprId`s
/// address), so the serving layer keeps a pool of contexts and lends one
/// to each request without moving it anywhere: warm pools, deferred
/// columns and all stay put, and arena steady state (`fresh() == 0`)
/// holds **across statements**, not just across executions of one
/// statement. Several contexts may share one `Arc<WorkerPool>`: worker
/// arenas belong to the pool, the session arena to the context, and the
/// pool serializes parallel regions internally.
pub struct ExecContext {
    arena: MaskArena,
    pool: Arc<WorkerPool>,
    /// Projected value columns still referenced by caller-held results;
    /// swept (and their buffers recycled) at the start of each execute.
    deferred_values: RefCell<Vec<Arc<Column>>>,
}

impl ExecContext {
    /// A fresh context with its own private worker pool.
    pub fn new(workers: usize) -> ExecContext {
        ExecContext::with_pool(Arc::new(WorkerPool::new(workers)))
    }

    /// A fresh context executing on a shared worker pool.
    pub fn with_pool(pool: Arc<WorkerPool>) -> ExecContext {
        ExecContext {
            arena: MaskArena::new(),
            pool,
            deferred_values: RefCell::new(Vec::new()),
        }
    }

    /// The context's buffer pool.
    pub fn arena(&self) -> &MaskArena {
        &self.arena
    }

    /// The worker pool this context executes on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Reclaim deferred result buffers whose caller-held references are
    /// gone: pooled index columns via the column pool's own deferral
    /// list, projected value columns via `Arc::try_unwrap`. Runs at the
    /// start of every execute, and the serving layer calls it when a
    /// context is returned so held results are the only thing keeping
    /// buffers out of the pools.
    pub fn sweep(&self) {
        self.arena.columns().reclaim();
        let mut deferred = self.deferred_values.borrow_mut();
        let mut still: Vec<Arc<Column>> = Vec::with_capacity(deferred.len());
        for arc in deferred.drain(..) {
            match Arc::try_unwrap(arc) {
                Ok(col) => col.recycle(&self.arena),
                Err(arc) => still.push(arc),
            }
        }
        *deferred = still;
    }

    /// Execute a planned query over `tables`. `tree` is the predicate
    /// tree the plan's `ExprId`s address (`None` only for a join-only
    /// plan). With a [`Tracer`], every plan operator records a span
    /// (nested to mirror the plan tree) with row counts, morsel fan-out,
    /// parallel-region id and per-atom evaluation profiles — see
    /// [`execute_tagged`](crate::execute_tagged); the output is
    /// bit-for-bit identical to the untraced run.
    pub fn execute(
        &self,
        plan: &Plan,
        tables: &TableSet,
        tree: Option<&PredicateTree>,
        tracer: Option<&Tracer>,
    ) -> Result<QueryOutput> {
        let rows = match self.run(plan, tables, tree, tracer, false)? {
            Emit::Rows(rows) => rows,
            Emit::Count(_) => unreachable!("only a count is answered with a count"),
        };
        // The output's index columns are pooled buffers that now escape
        // to the caller; park a handle so the pool can reclaim them via
        // `Arc::try_unwrap` once the caller releases the result.
        for col in rows.cols() {
            self.arena.columns().defer(Arc::clone(col));
        }
        Ok(QueryOutput { rows })
    }

    /// How many rows [`Self::execute`] would return, without
    /// materializing any of them: the plan runs to its root operator,
    /// which counts there (see the `executor` module docs) — a
    /// `COUNT(*)` statement's answer. The span tree under `tracer` has
    /// the same names and shape as an `execute`'s; the root operator's
    /// `rows_out` is the count.
    pub fn count(
        &self,
        plan: &Plan,
        tables: &TableSet,
        tree: Option<&PredicateTree>,
        tracer: Option<&Tracer>,
    ) -> Result<usize> {
        match self.run(plan, tables, tree, tracer, true)? {
            Emit::Count(n) => Ok(n),
            Emit::Rows(_) => unreachable!("a count is answered with a count"),
        }
    }

    /// Drive `plan` on this context for its rows or its count.
    fn run(
        &self,
        plan: &Plan,
        tables: &TableSet,
        tree: Option<&PredicateTree>,
        tracer: Option<&Tracer>,
        count: bool,
    ) -> Result<Emit<IdxRelation>> {
        // Sweep result columns deferred by earlier executions: once the
        // caller has dropped those outputs, their buffers return to the
        // pools and this run re-checks them out instead of allocating.
        self.sweep();
        let pool = &*self.pool;
        let cx = ExecCtx {
            arena: &self.arena,
            pool: (pool.workers() > 1).then_some(pool),
            tracer,
        };
        match plan {
            Plan::JoinOnly(aplan) => execute_traditional(&cx, aplan, tables, None, count),
            Plan::WithPredicate(p) => {
                let tree = tree.ok_or_else(|| {
                    BasiliskError::Plan("a predicate plan needs its predicate tree".into())
                })?;
                match p {
                    PlannedQuery::Tagged { ann, .. } => {
                        execute_tagged(&cx, &ann.plan, &ann.projection, tables, tree, count)
                    }
                    PlannedQuery::Traditional { aplan, .. } => {
                        execute_traditional(&cx, aplan, tables, Some(tree), count)
                    }
                }
            }
        }
    }

    /// Materialize `projection` for an output of [`Self::execute`]. The
    /// columns draw their typed buffers from the context's value pool
    /// and are deferred like result index columns: once the caller drops
    /// them, the next execution's sweep recycles the buffers — so a
    /// serving loop (execute → project → release) allocates nothing in
    /// steady state, value columns included.
    pub fn project(
        &self,
        tables: &TableSet,
        output: &QueryOutput,
        projection: &[ColumnRef],
    ) -> Result<Vec<(ColumnRef, Arc<Column>)>> {
        let cols = project_in(tables, &output.rows, projection, &self.arena)?;
        Ok(cols
            .into_iter()
            .map(|(cref, col)| {
                let col = Arc::new(col);
                // Every pooled column must eventually recycle (skipping
                // one would leave its checkout counted outstanding
                // forever). The list is bounded by the caller's own live
                // results: each execute sweeps released entries.
                self.deferred_values.borrow_mut().push(Arc::clone(&col));
                (cref, col)
            })
            .collect())
    }
}

/// A query bound to a catalog: statistics, table handles and the predicate
/// tree are built once; any number of planners can then be run and
/// compared on it.
///
/// The session also owns the [`MaskArena`] every execution draws its
/// buffers from: the first `execute()` warms the pool, and each
/// subsequent execution of the same (or a same-shaped) plan performs
/// zero buffer allocations — every mask, slice/selection bitmap, index
/// scratch vector **and output index column** (scan identities, joined
/// columns from `combine`, union/select outputs, via the arena's
/// [`ColumnPool`](basilisk_types::ColumnPool)) is served from the pool,
/// which [`Self::arena_stats`] proves (`fresh() == 0`). Result columns
/// escape to the caller inside [`QueryOutput`]; the session defers them
/// and reclaims their buffers on the next `execute()` once the caller
/// has dropped the output. Projected *value* columns
/// ([`Self::project`]) follow the same deferral through the arena's
/// value pool, and gathered join-key values are pooled inside the join
/// operators — so steady-state serving (execute → project → release) is
/// allocation-free end to end.
///
/// **Parallelism**: the session owns a [`WorkerPool`] of
/// [`Self::workers`] workers (default: the `BASILISK_THREADS`
/// environment variable, else the machine's available parallelism),
/// each with a private arena. With more than one worker, `execute`
/// hands the plan walker an `ExecCtx` with `pool: Some`: filters
/// evaluate per-morsel on the workers and stitch, joins probe partitioned.
/// `workers == 1` — or any relation smaller than one morsel — takes
/// today's serial path, bit for bit; parallel output is pinned equal to
/// serial output by the differential suite.
pub struct QuerySession {
    query: Query,
    tree: Option<PredicateTree>,
    est: Estimator,
    tables: TableSet,
    strategy: TagMapStrategy,
    three_valued: bool,
    ctx: ExecContext,
}

impl QuerySession {
    pub fn new(catalog: &Catalog, query: Query) -> Result<QuerySession> {
        query.validate()?;
        let est = Estimator::new(catalog, &query.aliases)?;
        let tables = TableSet::new(catalog, &query.aliases)?;
        let tree = query.predicate.as_ref().map(PredicateTree::build);
        // Three-valued tag maps are mandatory for correctness whenever a
        // predicate can evaluate to unknown: a NULL-bearing row must flow
        // into the unknown slice (§3.4) rather than be dropped, because it
        // may still satisfy the overall predicate through another
        // disjunct. Two sources of unknown: NULLs in the scanned column
        // (detected from statistics) and NULL *literals* in the predicate
        // itself (`x > NULL` is unknown on every row, NULL-free column or
        // not).
        let three_valued = match &tree {
            None => false,
            Some(t) => t.atom_ids().iter().any(|&id| {
                let atom = t.atom(id).expect("atom id");
                !matches!(atom, basilisk_expr::Atom::IsNull { .. })
                    && (atom_has_null_literal(atom)
                        || est
                            .null_frac(atom.column())
                            .map(|f| f > 0.0)
                            .unwrap_or(false))
            }),
        };
        Ok(QuerySession {
            query,
            tree,
            est,
            tables,
            strategy: TagMapStrategy::Generalized { use_closure: true },
            three_valued,
            ctx: ExecContext::new(WorkerPool::default_workers()),
        })
    }

    /// Override the tag-map strategy (ablations).
    pub fn with_strategy(mut self, strategy: TagMapStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the worker count (see the struct docs). `1` disables
    /// parallel execution entirely (`ExecCtx { pool: None }`).
    /// Replaces the worker pool, so call before executing.
    pub fn with_workers(mut self, workers: usize) -> Self {
        let rows = self.ctx.pool.morsel_rows();
        self.ctx.pool = Arc::new(WorkerPool::new(workers).with_morsel_rows(rows));
        self
    }

    /// Override the morsel granularity (rows per parallel task; must be
    /// a positive multiple of 64). Mainly for tests and benchmarks.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        let workers = self.ctx.pool.workers();
        self.ctx.pool = Arc::new(WorkerPool::new(workers).with_morsel_rows(rows));
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.ctx.pool.workers()
    }

    /// The session's worker pool (per-worker arenas included) —
    /// observability for tests and benchmarks.
    pub fn scheduler(&self) -> &WorkerPool {
        &self.ctx.pool
    }

    /// Enable three-valued tag maps (needed when the data contains NULLs).
    pub fn with_three_valued(mut self, enabled: bool) -> Self {
        self.three_valued = enabled;
        self
    }

    pub fn query(&self) -> &Query {
        &self.query
    }

    pub fn tree(&self) -> Option<&PredicateTree> {
        self.tree.as_ref()
    }

    pub fn tables(&self) -> &TableSet {
        &self.tables
    }

    /// Whether three-valued tag maps are in force (NULL-bearing columns
    /// under the predicate; see [`Self::new`]).
    pub fn three_valued(&self) -> bool {
        self.three_valued
    }

    pub fn estimator(&self) -> &Estimator {
        &self.est
    }

    /// The session's buffer pool (shared by every execution).
    pub fn arena(&self) -> &MaskArena {
        self.ctx.arena()
    }

    /// The session's execution context (arena + worker-pool handle).
    pub fn context(&self) -> &ExecContext {
        &self.ctx
    }

    /// Buffer-pool checkout counters since the last
    /// [`Self::reset_arena_stats`] — `fresh() == 0` across an `execute()`
    /// means the run was allocation-free (steady state).
    pub fn arena_stats(&self) -> ArenaStats {
        self.ctx.arena.stats()
    }

    /// Zero the pool counters (the pooled buffers stay warm).
    pub fn reset_arena_stats(&self) {
        self.ctx.arena.reset_stats()
    }

    /// Plan with the chosen planner.
    pub fn plan(&self, kind: PlannerKind) -> Result<Plan> {
        let Some(tree) = &self.tree else {
            // No predicate: any planner degenerates to the greedy join
            // tree executed traditionally.
            let leaves = self
                .query
                .aliases
                .iter()
                .map(|(alias, _)| {
                    Ok((
                        alias.clone(),
                        APlan::scan(alias.clone()),
                        self.est.rows(alias)?,
                    ))
                })
                .collect::<Result<Vec<_>>>()?;
            return Ok(Plan::JoinOnly(greedy_join_tree(
                leaves,
                &self.query.joins,
                &self.est,
            )?));
        };
        let builder = TagMapBuilder::new(tree, self.strategy).with_three_valued(self.three_valued);
        let input = PlannerInput {
            query: &self.query,
            tree,
            est: &self.est,
            builder: &builder,
            cm: &CostModel::default(),
        };
        Ok(Plan::WithPredicate(run_planner(kind, &input)?))
    }

    /// Execute a previously built plan (see [`ExecContext::execute`]).
    pub fn execute(&self, plan: &Plan) -> Result<QueryOutput> {
        self.ctx
            .execute(plan, &self.tables, self.tree.as_ref(), None)
    }

    /// Count a plan's rows without building them (see
    /// [`ExecContext::count`]).
    pub fn count(&self, plan: &Plan, tracer: Option<&Tracer>) -> Result<usize> {
        self.ctx
            .count(plan, &self.tables, self.tree.as_ref(), tracer)
    }

    /// Plan + execute, reporting the timing split.
    pub fn run(&self, kind: PlannerKind) -> Result<(QueryOutput, PlanTimings)> {
        let t0 = Instant::now();
        let plan = self.plan(kind)?;
        let planning = t0.elapsed();
        let t1 = Instant::now();
        let out = self.execute(&plan)?;
        let execution = t1.elapsed();
        Ok((
            out,
            PlanTimings {
                planning,
                execution,
            },
        ))
    }

    /// Materialize the query's projection columns for an output (see
    /// [`ExecContext::project`]).
    pub fn project(&self, output: &QueryOutput) -> Result<Vec<(ColumnRef, Arc<Column>)>> {
        self.ctx
            .project(&self.tables, output, &self.query.projection)
    }

    /// Human-readable plan rendering (EXPLAIN).
    pub fn explain(&self, plan: &Plan) -> String {
        match (plan, &self.tree) {
            (Plan::JoinOnly(aplan), _) => {
                let dummy = PredicateTree::build(&basilisk_expr::col("·", "·").is_null());
                format!(
                    "-- join-only plan (no predicate)\n{}",
                    aplan.display(&dummy)
                )
            }
            (Plan::WithPredicate(p), Some(tree)) => {
                let header = match p {
                    PlannedQuery::Tagged { chosen, ann, .. } => format!(
                        "-- tagged plan ({}), estimated cost {:.1}, {} projection tag(s)\n",
                        chosen,
                        ann.cost,
                        ann.projection.allowed.len()
                    ),
                    PlannedQuery::Traditional { cost, .. } => {
                        format!("-- traditional plan, estimated cost {cost:.1}\n")
                    }
                };
                format!("{header}{}", p.aplan().display(tree))
            }
            _ => "-- invalid plan/session pairing".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_expr::{and, col, or};
    use basilisk_storage::TableBuilder;
    use basilisk_types::DataType;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut b = TableBuilder::new("title")
            .column("id", DataType::Int)
            .column("year", DataType::Int);
        for i in 0..300i64 {
            b.push_row(vec![i.into(), (1900 + i % 120).into()]).unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let mut b = TableBuilder::new("scores")
            .column("movie_id", DataType::Int)
            .column("score", DataType::Float);
        for i in 0..500i64 {
            b.push_row(vec![(i % 300).into(), ((i % 100) as f64 / 10.0).into()])
                .unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        cat
    }

    fn query() -> Query {
        Query::new(vec![
            ("t".into(), "title".into()),
            ("mi".into(), "scores".into()),
        ])
        .join(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id"))
        .filter(or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("mi", "score").gt(7.0),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("mi", "score").gt(8.0),
            ]),
        ]))
        .select(vec![ColumnRef::new("t", "id")])
    }

    use basilisk_expr::ColumnRef;

    /// Every planner returns the same result set.
    #[test]
    fn all_planners_agree() {
        let cat = catalog();
        let session = QuerySession::new(&cat, query()).unwrap();
        let reference = session
            .execute(&session.plan(PlannerKind::BPushConj).unwrap())
            .unwrap()
            .canonical_tuples();
        assert!(!reference.is_empty());
        for kind in [
            PlannerKind::TPushdown,
            PlannerKind::TPullup,
            PlannerKind::TIterPush,
            PlannerKind::TPushConj,
            PlannerKind::TCombined,
            PlannerKind::BDisj,
        ] {
            let out = session.execute(&session.plan(kind).unwrap()).unwrap();
            assert_eq!(
                out.canonical_tuples(),
                reference,
                "planner {kind} disagrees"
            );
        }
    }

    #[test]
    fn run_reports_timings_and_project_works() {
        let cat = catalog();
        let session = QuerySession::new(&cat, query()).unwrap();
        let (out, t) = session.run(PlannerKind::TCombined).unwrap();
        assert!(out.count() > 0);
        assert!(t.total() >= t.planning);
        let cols = session.project(&out).unwrap();
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].1.len(), out.count());
    }

    #[test]
    fn no_predicate_query() {
        let cat = catalog();
        let q = Query::new(vec![
            ("t".into(), "title".into()),
            ("mi".into(), "scores".into()),
        ])
        .join(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id"));
        let session = QuerySession::new(&cat, q).unwrap();
        let plan = session.plan(PlannerKind::TCombined).unwrap();
        let out = session.execute(&plan).unwrap();
        assert_eq!(out.count(), 500, "every score row matches one title");
        assert_eq!(plan.estimated_cost(), 0.0);
        assert!(plan.chosen_planner().is_none());
        assert!(session.explain(&plan).contains("join-only"));
    }

    #[test]
    fn explain_renders() {
        let cat = catalog();
        let session = QuerySession::new(&cat, query()).unwrap();
        let plan = session.plan(PlannerKind::TCombined).unwrap();
        let text = session.explain(&plan);
        assert!(text.contains("tagged plan"), "{text}");
        assert!(text.contains("Join"), "{text}");
        assert!(plan.chosen_planner().is_some());
        let plan = session.plan(PlannerKind::BDisj).unwrap();
        let text = session.explain(&plan);
        assert!(text.contains("traditional plan"), "{text}");
        assert!(text.contains("Union"), "{text}");
    }

    /// Naive tag strategy still yields correct results (just slower).
    #[test]
    fn naive_strategy_correct() {
        let cat = catalog();
        let session = QuerySession::new(&cat, query()).unwrap();
        let reference = session
            .execute(&session.plan(PlannerKind::BPushConj).unwrap())
            .unwrap()
            .canonical_tuples();
        let naive = QuerySession::new(&cat, query())
            .unwrap()
            .with_strategy(basilisk_core::TagMapStrategy::Naive);
        let out = naive
            .execute(&naive.plan(PlannerKind::TPushdown).unwrap())
            .unwrap();
        assert_eq!(out.canonical_tuples(), reference);
    }
}
