//! The resident server: one shared worker pool, a pool of reusable
//! execution contexts, fair lane-based admission and the plan cache.
//!
//! # Request lifecycle
//!
//! ```text
//! client thread ──► Request (client tag, priority) ──► normalize
//!        ──► statement cache (plan on a miss) ──► bind params
//!        ──► congruence guard (re-plan if needed) ──► admission lane
//!        ──► DRR dispatch / context grant ──► execute on the lent context
//!        ──► project/limit ──► context return (sweep) ──► Response
//! ```
//!
//! All planning happens before admission; a context is held only while
//! the plan runs and its output is materialized. A `COUNT(*)` statement
//! takes the same path but only *counts* its plan
//! ([`ExecContext::count`]: the root operator counts, no output
//! relation is built) and answers one synthetic `count(*)` row.
//!
//! * **Admission** queues every request as a *ticket* in its client's
//!   fairness lane; a deficit-round-robin dispatcher grants contexts
//!   across lanes so no client can starve another (see the
//!   [`admission`](crate::admission) module docs). At most
//!   `queue_limit` requests may be in the system (queued + executing);
//!   beyond that, admission rejects immediately with the typed,
//!   retryable [`BasiliskError::Busy`] so clients can back off.
//! * **Contexts** ([`ExecContext`]) carry a warm session arena and a
//!   handle to the server's one [`WorkerPool`]. A context serves one
//!   request at a time and is swept on return, so arena steady state
//!   holds *across statements*: repeated traffic of cached shapes
//!   allocates nothing once each context's pools are warm.
//! * **The plan cache** keys on normalized statement text (literals →
//!   `?n`); hits bind fresh literal values into the cached template and
//!   re-drive the cached plan — zero plan work. Two guards re-plan the
//!   rare binding whose literal values change the predicate DAG itself
//!   (see
//!   [`PredicateTree::congruent_modulo_values`]) or the implications
//!   between its atoms that the plan's tag maps were built under
//!   ([`implication_signature`]).
//!
//! [`Server::submit`] is the one public entry point (a [`Request`] in, a
//! [`Response`] or typed [`ServeError`] out — what the wire layer
//! speaks); [`Server::sql`] and [`Server::execute_prepared`] are thin
//! wrappers over the same path for embedded callers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use basilisk_catalog::Catalog;
use basilisk_exec::TableSet;
use basilisk_expr::subsume::implication_signature;
use basilisk_expr::{ColumnRef, Expr, PredicateTree};
use basilisk_plan::{ExecContext, Plan, PlanTimings, PlannerKind, QuerySession};
use basilisk_sched::WorkerPool;
use basilisk_sql::{bind_params, normalize_select, Projection, SelectStmt};
use basilisk_storage::Column;
use basilisk_types::{
    BasiliskError, HistogramSnapshot, MetricsRegistry, Result, SlowLog, Tracer, Value,
};

use crate::admission::Admission;
use crate::api::{Command, Priority, Request, Response, ServeError};
use crate::cache::{PlanCache, Prepared, PreparedStatement};
use crate::stats::{ServeStats, SlowQuery, StatsRecorder};

/// Server sizing knobs. `Default` targets a small interactive server;
/// build a custom configuration through the validating
/// [`ServerConfig::builder`] (fields are checked at construction, so a
/// [`Server`] never discovers a bad sizing at first request).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    contexts: usize,
    queue_limit: usize,
    cache_capacity: usize,
    workers: Option<usize>,
    morsel_rows: Option<usize>,
    region_slots: Option<usize>,
    default_planner: PlannerKind,
    slow_log_capacity: usize,
    slow_threshold_micros: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            contexts: 4,
            queue_limit: 256,
            cache_capacity: 256,
            workers: None,
            morsel_rows: None,
            region_slots: None,
            default_planner: PlannerKind::TCombined,
            slow_log_capacity: 16,
            slow_threshold_micros: 10_000,
        }
    }
}

impl ServerConfig {
    /// Start a validating builder from the default configuration.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
            queue_limit: None,
        }
    }

    /// Number of reusable execution contexts = maximum concurrently
    /// *executing* requests.
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Maximum requests in the system (queued + executing) before
    /// admission rejects with [`BasiliskError::Busy`].
    pub fn queue_limit(&self) -> usize {
        self.queue_limit
    }

    /// Plan-cache capacity (distinct statement shapes × planner kinds).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Workers in the shared pool; `None` = the engine default
    /// (`BASILISK_THREADS`, else available parallelism).
    pub fn workers(&self) -> Option<usize> {
        self.workers
    }

    /// Morsel granularity override for the shared pool.
    pub fn morsel_rows(&self) -> Option<usize> {
        self.morsel_rows
    }

    /// Region-table size override for the shared pool; `None` = the
    /// scheduler default
    /// ([`DEFAULT_REGION_SLOTS`](basilisk_sched::DEFAULT_REGION_SLOTS)).
    /// `Some(1)` restores exclusive-region admission (one parallel
    /// region at a time) — the interleaving benchmark's baseline.
    pub fn region_slots(&self) -> Option<usize> {
        self.region_slots
    }

    /// Planner used by [`Server::sql`] / [`Server::prepare`].
    pub fn default_planner(&self) -> PlannerKind {
        self.default_planner
    }

    /// Entries the slow-query ring retains (newest win once full).
    pub fn slow_log_capacity(&self) -> usize {
        self.slow_log_capacity
    }

    /// Total-latency threshold (µs) at or above which a request is
    /// recorded into the slow-query ring; `u64::MAX` disables retention.
    pub fn slow_threshold_micros(&self) -> u64 {
        self.slow_threshold_micros
    }
}

/// Validating builder for [`ServerConfig`] (see the field accessors for
/// what each knob means). Invalid sizings fail at [`build`] time with a
/// [`BasiliskError::Plan`], not at the first request:
///
/// * `contexts >= 1` — a server with no execution contexts can serve
///   nothing;
/// * `queue_limit >= contexts` — a system bound below the context count
///   would strand idle contexts (left unset, the limit grows with the
///   context count: `max(256, contexts)`);
/// * `region_slots != Some(0)` — a zero-slot region table would
///   deadlock every parallel region.
///
/// [`build`]: ServerConfigBuilder::build
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
    /// Explicit queue limit, if any; the default scales with `contexts`.
    queue_limit: Option<usize>,
}

impl ServerConfigBuilder {
    pub fn contexts(mut self, contexts: usize) -> Self {
        self.config.contexts = contexts;
        self
    }

    pub fn queue_limit(mut self, queue_limit: usize) -> Self {
        self.queue_limit = Some(queue_limit);
        self
    }

    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.config.cache_capacity = cache_capacity;
        self
    }

    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = Some(workers);
        self
    }

    /// `None` (the default) defers to the engine default; this setter
    /// exists for callers forwarding an optional override.
    pub fn workers_opt(mut self, workers: Option<usize>) -> Self {
        self.config.workers = workers;
        self
    }

    pub fn morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.config.morsel_rows = Some(morsel_rows);
        self
    }

    pub fn region_slots(mut self, region_slots: usize) -> Self {
        self.config.region_slots = Some(region_slots);
        self
    }

    pub fn default_planner(mut self, planner: PlannerKind) -> Self {
        self.config.default_planner = planner;
        self
    }

    pub fn slow_log_capacity(mut self, capacity: usize) -> Self {
        self.config.slow_log_capacity = capacity;
        self
    }

    /// See [`ServerConfig::slow_threshold_micros`]; `0` records every
    /// request (useful in tests), `u64::MAX` disables the ring.
    pub fn slow_threshold_micros(mut self, micros: u64) -> Self {
        self.config.slow_threshold_micros = micros;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServerConfig> {
        let mut config = self.config;
        if config.contexts == 0 {
            return Err(BasiliskError::Plan(
                "server config: contexts must be >= 1".into(),
            ));
        }
        config.queue_limit = match self.queue_limit {
            Some(limit) if limit < config.contexts => {
                return Err(BasiliskError::Plan(format!(
                    "server config: queue_limit ({limit}) must be >= contexts ({})",
                    config.contexts
                )));
            }
            Some(limit) => limit,
            None => config.queue_limit.max(config.contexts),
        };
        if config.workers == Some(0) {
            return Err(BasiliskError::Plan(
                "server config: workers must be >= 1".into(),
            ));
        }
        if config.morsel_rows == Some(0) {
            return Err(BasiliskError::Plan(
                "server config: morsel_rows must be >= 1".into(),
            ));
        }
        if config.region_slots == Some(0) {
            return Err(BasiliskError::Plan(
                "server config: region_slots must be >= 1 \
                 (a zero-slot region table deadlocks every parallel region)"
                    .into(),
            ));
        }
        if config.slow_log_capacity == 0 {
            return Err(BasiliskError::Plan(
                "server config: slow_log_capacity must be >= 1 \
                 (disable retention with slow_threshold_micros = u64::MAX instead)"
                    .into(),
            ));
        }
        Ok(config)
    }
}

/// A resident Basilisk server (see the module and crate docs).
///
/// `Server` is `Send + Sync`: share one behind an `Arc` across any
/// number of client threads and call [`Server::submit`] /
/// [`Server::sql`] / [`Server::execute_prepared`] concurrently.
pub struct Server {
    catalog: Catalog,
    pool: Arc<WorkerPool>,
    gate: Arc<Admission>,
    cache: PlanCache,
    stats: Arc<StatsRecorder>,
    metrics: MetricsRegistry,
    slow: Arc<SlowLog<SlowQuery>>,
    slow_threshold_micros: u64,
    default_planner: PlannerKind,
}

impl Server {
    /// Build a server over a catalog snapshot.
    pub fn new(catalog: Catalog, config: ServerConfig) -> Server {
        let workers = config.workers.unwrap_or_else(WorkerPool::default_workers);
        let mut pool = WorkerPool::new(workers);
        if let Some(rows) = config.morsel_rows {
            pool = pool.with_morsel_rows(rows);
        }
        if let Some(slots) = config.region_slots {
            pool = pool.with_region_slots(slots);
        }
        let pool = Arc::new(pool);
        let contexts: Vec<ExecContext> = (0..config.contexts.max(1))
            .map(|_| ExecContext::with_pool(Arc::clone(&pool)))
            .collect();
        let gate = Arc::new(Admission::new(contexts, config.queue_limit));
        let stats = Arc::new(StatsRecorder::default());
        let slow = Arc::new(SlowLog::new(config.slow_log_capacity));
        let metrics = MetricsRegistry::new();
        register_collectors(&metrics, &stats, &gate, &pool, &slow);
        Server {
            catalog,
            pool,
            gate,
            cache: PlanCache::new(config.cache_capacity),
            stats,
            metrics,
            slow,
            slow_threshold_micros: config.slow_threshold_micros,
            default_planner: config.default_planner,
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Render the Prometheus text exposition page the `/v1/metrics`
    /// route serves: `basilisk_serve_*` (request counters, per-lane
    /// admission counters, the latency histogram), `basilisk_sched_*`
    /// (tasks, steals, park/notify traffic, per-worker busy time, region
    /// occupancy) and `basilisk_arena_*` (outstanding/pooled buffers,
    /// per-shape checkout counters). Metric names are a contract — see
    /// ROADMAP "Observability".
    pub fn metrics_prometheus(&self) -> String {
        self.metrics.render()
    }

    /// The metrics registry, for embedders that want to register
    /// additional collectors onto the same exposition page.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Snapshot of the slow-query ring, newest first, each entry with
    /// its monotonically increasing sequence number (see
    /// [`ServerConfig::slow_threshold_micros`]).
    pub fn slow_queries(&self) -> Vec<(u64, Arc<SlowQuery>)> {
        self.slow.snapshot()
    }

    /// The shared worker pool (per-worker arenas included).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    pub fn default_planner(&self) -> PlannerKind {
        self.default_planner
    }

    /// Counter snapshot (cache hits/misses/evictions, queue high-water,
    /// latency histogram), overlaid with the shared pool's
    /// region-occupancy counters (regions fanned out, slot waits and
    /// their µs histogram, concurrency high-water) and the admission
    /// gate's per-client lane counters.
    pub fn stats(&self) -> ServeStats {
        let mut s = self.stats.snapshot();
        let r = self.pool.region_stats();
        s.parallel_regions = r.regions;
        s.region_waits = r.waits;
        s.region_wait_total_micros = r.wait_total_micros;
        s.region_wait_buckets = r.wait_buckets;
        s.region_slots = r.slots;
        s.region_max_concurrent = r.max_concurrent;
        let mut zones = self.pool.arena_stats();
        for st in self.gate.with_free(|ctx| ctx.arena().stats()) {
            zones.merge(&st);
        }
        s.skipped_morsels_total = zones.zone_skipped_morsels;
        s.scanned_morsels_total = zones.zone_scanned_morsels;
        s.lanes = self.gate.lane_stats();
        s
    }

    /// Number of statement shapes currently cached.
    pub fn cached_statements(&self) -> usize {
        self.cache.cached_statements()
    }

    /// Sweep every idle context (reclaiming buffers of dropped results)
    /// and return the total count of still-outstanding pooled buffers
    /// across idle-context arenas and the shared pool's worker arenas.
    /// With no request in flight and every result dropped, this is zero
    /// — the leak-test invariant.
    pub fn outstanding(&self) -> usize {
        let per_ctx: usize = self
            .gate
            .with_free(|ctx| {
                ctx.sweep();
                ctx.arena().outstanding()
            })
            .into_iter()
            .sum();
        per_ctx + self.pool.outstanding()
    }

    /// The wire-ready entry point: one [`Request`] in, a [`Response`] or
    /// a typed [`ServeError`] out. Every front end — in-process callers,
    /// the `basilisk-net` HTTP/JSON listener — funnels through here; the
    /// request's client tag picks its fairness lane and its priority its
    /// deficit-round-robin cost (see the `admission` module docs).
    pub fn submit(&self, request: Request<'_>) -> std::result::Result<Response, ServeError> {
        // Tracing is opt-in per request; an untraced request pays one
        // `Option` check per recording site (the `trace_overhead_max`
        // bench gate pins the disabled path).
        let tracer = request.trace.then(Tracer::new);
        match request.command {
            Command::Sql(sql) => {
                let planner = request.planner.unwrap_or(self.default_planner);
                self.sql_inner(sql, planner, request.client, request.priority, tracer)
            }
            Command::Execute(stmt, params) => {
                self.execute_inner(stmt, params, request.client, request.priority, tracer)
            }
        }
        .map_err(ServeError::from)
    }

    /// Run a SQL statement with the default planner (a thin wrapper over
    /// the [`Server::submit`] path for embedded callers).
    pub fn sql(&self, sql: &str) -> Result<Response> {
        self.sql_with(sql, self.default_planner)
    }

    /// Run a SQL statement with an explicit planner, through the plan
    /// cache: same-shape statements with different literals skip
    /// planning and just bind.
    pub fn sql_with(&self, sql: &str, planner: PlannerKind) -> Result<Response> {
        self.sql_inner(sql, planner, "", Priority::Normal, None)
    }

    fn sql_inner(
        &self,
        sql: &str,
        planner: PlannerKind,
        client: &str,
        priority: Priority,
        tracer: Option<Tracer>,
    ) -> Result<Response> {
        let (stmt, params, cache_hit) = self.lookup(sql, planner, tracer.as_ref())?;
        self.run_statement(&stmt, &params, cache_hit, client, priority, tracer)
    }

    /// Parse, normalize and plan `sql`, returning a reusable handle.
    /// Re-preparing an already-cached shape is a cache hit and does no
    /// planning.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let (inner, _, _) = self.lookup(sql, self.default_planner, None)?;
        Ok(Prepared { inner })
    }

    /// The statement `sql` is an instance of, its literal values and
    /// whether the plan cache already held it: normalize, probe the
    /// statement LRU, and on a miss plan the shape and insert it. A
    /// traced miss plans under the request's one `plan` span, which
    /// [`Self::run_statement`] finishes after the bind.
    fn lookup(
        &self,
        sql: &str,
        planner: PlannerKind,
        tracer: Option<&Tracer>,
    ) -> Result<(Arc<PreparedStatement>, Vec<Value>, bool)> {
        let parse_span = tracer.map(|t| t.begin("parse"));
        let normalized = normalize_select(sql).inspect_err(|_| self.stats.error())?;
        if let (Some(t), Some(s)) = (tracer, parse_span) {
            t.end(s);
        }
        if let Some(stmt) = self.cache.get_statement(planner, &normalized.key) {
            self.stats.cache_hit();
            return Ok((stmt, normalized.params, true));
        }
        self.stats.cache_miss();
        if let Some(t) = tracer {
            t.begin("plan");
        }
        let stmt = self
            .plan_statement(
                normalized.key,
                normalized.params.len(),
                normalized.stmt,
                planner,
            )
            .inspect_err(|_| self.stats.error())?;
        self.stats.evicted(self.cache.put_statement(&stmt));
        Ok((stmt, normalized.params, false))
    }

    /// Execute a prepared statement with fresh parameter values — never
    /// parses, and re-plans only if the binding changes the predicate's
    /// DAG (value-coincidence; see the module docs). A thin wrapper over
    /// the [`Server::submit`] path.
    pub fn execute_prepared(&self, prepared: &Prepared, params: &[Value]) -> Result<Response> {
        self.execute_inner(prepared, params, "", Priority::Normal, None)
    }

    fn execute_inner(
        &self,
        prepared: &Prepared,
        params: &[Value],
        client: &str,
        priority: Priority,
        tracer: Option<Tracer>,
    ) -> Result<Response> {
        if params.len() != prepared.inner.param_count {
            self.stats.error();
            return Err(BasiliskError::Plan(format!(
                "statement takes {} parameter(s), {} supplied",
                prepared.inner.param_count,
                params.len()
            )));
        }
        self.run_statement(&prepared.inner, params, true, client, priority, tracer)
    }

    /// Full parse-and-plan of one statement shape (the cache-miss path).
    fn plan_statement(
        &self,
        key: String,
        param_count: usize,
        parsed: SelectStmt,
        planner: PlannerKind,
    ) -> Result<Arc<PreparedStatement>> {
        self.stats.prepared();
        let limit = parsed.limit;
        let is_count = parsed.projection == Projection::Count;
        let star = parsed.projection == Projection::Star;
        let mut query = parsed.into_query();
        if star {
            query = query.select_all(&self.catalog)?;
        }
        let session = QuerySession::new(&self.catalog, query)?;
        let plan = session.plan(planner)?;
        Ok(Arc::new(PreparedStatement {
            key,
            query: session.query().clone(),
            tree: session.tree().cloned(),
            implications: session
                .tree()
                .map(implication_signature)
                .unwrap_or_default(),
            param_count,
            chosen: plan.chosen_planner(),
            plan,
            planner,
            tables: session.tables().clone(),
            three_valued: session.three_valued(),
            limit,
            is_count,
        }))
    }

    /// Plan a statement's shape afresh for a binding its cached plan
    /// cannot serve. `QuerySession::new` re-derives the three-valued flag
    /// from the bound predicate, NULL literals included.
    fn replan(&self, stmt: &PreparedStatement, predicate: Expr) -> Result<(QuerySession, Plan)> {
        self.stats.prepared();
        let mut query = stmt.query.clone();
        query.predicate = Some(predicate);
        let session = QuerySession::new(&self.catalog, query)?;
        let plan = session.plan(stmt.planner)?;
        Ok((session, plan))
    }

    /// The one statement path: bind, build the bound tree, check that the
    /// cached plan can serve it (re-planning if not), admit, execute on
    /// the borrowed context, release. Everything that plans runs before
    /// admission, under the request's `plan` span; the context is
    /// acquired and released here and only lent in between. A statement
    /// that is not a `cache_hit` was just planned by the caller under an
    /// open `plan` span; the bind joins that span instead of opening
    /// another.
    fn run_statement(
        &self,
        stmt: &Arc<PreparedStatement>,
        params: &[Value],
        cache_hit: bool,
        client: &str,
        priority: Priority,
        tracer: Option<Tracer>,
    ) -> Result<Response> {
        let t_total = Instant::now();
        let plan_span = tracer.as_ref().map(|t| {
            if cache_hit {
                t.begin("plan")
            } else {
                t.current()
            }
        });
        let t_plan = Instant::now();
        // A statement without parameters is its own binding: the cached
        // tree is the bound tree.
        let bound = match &stmt.query.predicate {
            Some(template) if stmt.param_count > 0 => {
                Some(bind_params(template, params).inspect_err(|_| self.stats.error())?)
            }
            _ => None,
        };
        let bound_tree = bound.as_ref().map(PredicateTree::build);
        // Three reasons the cached plan may not be reusable for this
        // binding, all rare and all re-planned on the spot:
        //  * congruence — the plan addresses the prepare-time predicate
        //    DAG by node id, and a binding whose values collapse or
        //    split nodes changes the DAG;
        //  * implications — the plan's tag maps bake in which atom
        //    outcomes imply which (`year > 2011 ⇒ year > 1986`), and a
        //    binding whose literals order differently implies
        //    differently;
        //  * NULL upgrade — a NULL bound into a statement planned
        //    two-valued makes its atom evaluate to unknown on every
        //    row, which only three-valued tag maps handle (the re-plan
        //    detects the NULL literal and builds them).
        let congruent = bound_tree.as_ref().is_none_or(|b| {
            stmt.tree.as_ref().is_some_and(|a| {
                a.congruent_modulo_values(b) && implication_signature(b) == stmt.implications
            })
        });
        let null_upgrade = !stmt.three_valued && params.iter().any(|v| matches!(v, Value::Null));
        let replanned = match bound {
            Some(predicate) if !congruent || null_upgrade => Some(
                self.replan(stmt, predicate)
                    .inspect_err(|_| self.stats.error())?,
            ),
            _ => None,
        };
        let (plan, tables, tree) = match &replanned {
            Some((session, plan)) => (plan, session.tables(), session.tree()),
            None => (
                &stmt.plan,
                &stmt.tables,
                bound_tree.as_ref().or(stmt.tree.as_ref()),
            ),
        };
        let planning = t_plan.elapsed();
        let reused = cache_hit && replanned.is_none();
        if let (Some(t), Some(s)) = (tracer.as_ref(), plan_span) {
            t.attr(s, "cache_hit", i64::from(reused));
            t.attr(s, "rebind", i64::from(replanned.is_some()));
            t.end(s);
        }

        let wait_span = tracer.as_ref().map(|t| {
            let s = t.begin("admission_wait");
            t.attr(s, "lane", client);
            t.attr(s, "priority", priority.as_str());
            s
        });
        let (ctx, queue_wait) = self.gate.acquire(client, priority, &self.stats)?;
        if let (Some(t), Some(s)) = (tracer.as_ref(), wait_span) {
            t.end(s);
        }
        let result = execute(&ctx, stmt, plan, tables, tree, tracer.as_ref());
        self.gate.release(ctx, &self.stats);
        let mut r = result.inspect_err(|_| self.stats.error())?;
        r.timings.planning = planning;
        r.cache_hit = reused;
        r.queue_wait = queue_wait;
        self.stats.executed(r.timings.total());
        let trace = tracer.map(Tracer::finish);
        let total_micros = t_total.elapsed().as_micros() as u64;
        if self.slow_threshold_micros != u64::MAX && total_micros >= self.slow_threshold_micros {
            self.slow.push(SlowQuery {
                statement: stmt.key.clone(),
                client: client.to_string(),
                priority: priority.as_str(),
                row_count: r.row_count,
                cache_hit: r.cache_hit,
                queue_wait_micros: queue_wait.as_micros() as u64,
                total_micros,
                trace: trace.clone(),
            });
        }
        r.trace = trace;
        Ok(r)
    }
}

/// Run `plan` on the borrowed context and lower its output: the
/// projected rows cut to the statement's `LIMIT`, or for a
/// `COUNT(*)` one synthetic `count(*)` row (the plan runs to its root
/// operator and counts there; nothing of the output is built).
fn execute(
    ctx: &ExecContext,
    stmt: &PreparedStatement,
    plan: &Plan,
    tables: &TableSet,
    tree: Option<&PredicateTree>,
    tracer: Option<&Tracer>,
) -> Result<Response> {
    let t0 = Instant::now();
    let exec_span = tracer.map(|t| t.begin("execute"));
    let (rows, output) = if stmt.is_count {
        (ctx.count(plan, tables, tree, tracer)?, None)
    } else {
        let output = ctx.execute(plan, tables, tree, tracer)?;
        (output.count(), Some(output))
    };
    if let (Some(t), Some(s)) = (tracer, exec_span) {
        t.attr(s, "rows", rows);
        t.end(s);
    }
    let execution = t0.elapsed();
    let (columns, row_count) = match output {
        Some(output) => {
            let mut columns = ctx.project(tables, &output, &stmt.query.projection)?;
            let row_count = stmt.limit.map_or(rows, |l| l.min(rows));
            if row_count < rows {
                let keep: Vec<u32> = (0..row_count as u32).collect();
                for (_, col) in &mut columns {
                    *col = Arc::new(col.gather(&keep));
                }
            }
            (columns, row_count)
        }
        // One row, one synthetic column (LIMIT 0 still yields the
        // count row, matching SQL aggregates).
        None => (
            vec![(
                ColumnRef::new("", "count(*)"),
                Arc::new(Column::from_ints(vec![rows as i64])),
            )],
            1,
        ),
    };
    Ok(Response {
        columns,
        row_count,
        planner: stmt.planner,
        chosen: stmt.chosen,
        timings: PlanTimings {
            planning: Duration::ZERO, // set by the caller
            execution,
        },
        cache_hit: false,           // set by the caller
        queue_wait: Duration::ZERO, // set by the caller
        trace: None,                // set by the caller
    })
}

/// Wire the server's three metric sources into the registry. Collectors
/// only *read* existing lock-free counters at scrape time, so the
/// request path pays nothing for exposition.
fn register_collectors(
    metrics: &MetricsRegistry,
    stats: &Arc<StatsRecorder>,
    gate: &Arc<Admission>,
    pool: &Arc<WorkerPool>,
    slow: &Arc<SlowLog<SlowQuery>>,
) {
    let s = Arc::clone(stats);
    let g = Arc::clone(gate);
    let sl = Arc::clone(slow);
    metrics.register(move |sink| {
        let snap = s.snapshot();
        sink.counter(
            "basilisk_serve_cache_hits_total",
            "Requests served from the plan cache.",
            &[],
            snap.cache_hits,
        );
        sink.counter(
            "basilisk_serve_cache_misses_total",
            "Requests that parsed and planned.",
            &[],
            snap.cache_misses,
        );
        sink.counter(
            "basilisk_serve_cache_evictions_total",
            "Cached statements evicted by LRU pressure.",
            &[],
            snap.cache_evictions,
        );
        sink.counter(
            "basilisk_serve_statements_prepared_total",
            "Statements parsed and planned.",
            &[],
            snap.statements_prepared,
        );
        sink.counter(
            "basilisk_serve_statements_executed_total",
            "Statements executed to completion.",
            &[],
            snap.statements_executed,
        );
        sink.counter(
            "basilisk_serve_errors_total",
            "Requests that returned an error after admission.",
            &[],
            snap.errors,
        );
        sink.counter(
            "basilisk_serve_rejected_total",
            "Requests rejected at admission (queue full).",
            &[],
            snap.rejected,
        );
        sink.gauge(
            "basilisk_serve_queue_depth",
            "Requests currently queued or executing.",
            &[],
            snap.queue_depth,
        );
        sink.gauge(
            "basilisk_serve_queue_high_water",
            "Highest simultaneous queue depth observed.",
            &[],
            snap.queue_high_water,
        );
        sink.histogram(
            "basilisk_serve_latency_micros",
            "Per-query serving latency.",
            &s.latency_snapshot(),
        );
        sink.counter(
            "basilisk_serve_slow_recorded_total",
            "Requests recorded into the slow-query ring.",
            &[],
            sl.recorded(),
        );
        for lane in g.lane_stats() {
            let client: &str = &lane.client;
            sink.counter(
                "basilisk_serve_lane_admitted_total",
                "Requests admitted into the lane.",
                &[("client", client)],
                lane.admitted,
            );
            sink.counter(
                "basilisk_serve_lane_dispatched_total",
                "Requests the DRR dispatcher granted a context.",
                &[("client", client)],
                lane.dispatched,
            );
            sink.counter(
                "basilisk_serve_lane_rejected_total",
                "Requests rejected while targeting the lane.",
                &[("client", client)],
                lane.rejected,
            );
            sink.gauge(
                "basilisk_serve_lane_depth",
                "Tickets currently queued in the lane.",
                &[("client", client)],
                lane.depth,
            );
            sink.counter(
                "basilisk_serve_lane_wait_micros_total",
                "Microseconds admitted requests spent queued.",
                &[("client", client)],
                lane.wait_total_micros,
            );
        }
    });

    let p = Arc::clone(pool);
    metrics.register(move |sink| {
        let sch = p.sched_stats();
        sink.gauge(
            "basilisk_sched_workers",
            "Configured worker count of the shared pool.",
            &[],
            sch.workers,
        );
        sink.counter(
            "basilisk_sched_tasks_total",
            "Tasks executed (morsel and subtree closures).",
            &[],
            sch.tasks,
        );
        sink.counter(
            "basilisk_sched_steals_total",
            "Tasks claimed from another worker's deque.",
            &[],
            sch.steals,
        );
        sink.counter(
            "basilisk_sched_parks_total",
            "Times a resident worker parked on the work condvar.",
            &[],
            sch.parks,
        );
        sink.counter(
            "basilisk_sched_notifies_total",
            "Wakeup broadcasts issued by region publication.",
            &[],
            sch.notifies,
        );
        let workers = sch.workers as usize;
        for (i, &busy) in sch.busy_micros.iter().enumerate() {
            let label = if i < workers {
                i.to_string()
            } else {
                "inline".to_string()
            };
            sink.counter(
                "basilisk_sched_worker_busy_micros_total",
                "Busy microseconds per worker arena.",
                &[("worker", &label)],
                busy,
            );
        }
        let r = p.region_stats();
        sink.counter(
            "basilisk_sched_regions_total",
            "Parallel regions fanned out on the shared pool.",
            &[],
            r.regions,
        );
        sink.counter(
            "basilisk_sched_region_waits_total",
            "Regions that waited for a region-table slot.",
            &[],
            r.waits,
        );
        sink.histogram(
            "basilisk_sched_region_wait_micros",
            "Region-slot wait times.",
            &HistogramSnapshot::from_parts(r.wait_buckets, r.wait_total_micros),
        );
        sink.gauge(
            "basilisk_sched_region_slots",
            "Size of the pool's region table.",
            &[],
            r.slots,
        );
        sink.gauge(
            "basilisk_sched_region_max_concurrent",
            "Highest number of simultaneously live regions observed.",
            &[],
            r.max_concurrent,
        );
    });

    let p = Arc::clone(pool);
    let g = Arc::clone(gate);
    metrics.register(move |sink| {
        let mut shapes = p.arena_stats();
        let mut outstanding = p.outstanding();
        let mut pooled = p.pooled();
        for (o, pl, st) in g.with_free(|ctx| {
            (
                ctx.arena().outstanding(),
                ctx.arena().pooled(),
                ctx.arena().stats(),
            )
        }) {
            outstanding += o;
            pooled += pl;
            shapes.merge(&st);
        }
        sink.gauge(
            "basilisk_arena_outstanding",
            "Pooled buffers currently checked out (idle contexts and worker arenas).",
            &[],
            outstanding as u64,
        );
        sink.gauge(
            "basilisk_arena_pooled",
            "Buffers parked in the pools, ready for reuse.",
            &[],
            pooled as u64,
        );
        for (shape, ps) in shapes.by_shape() {
            sink.counter(
                "basilisk_arena_fresh_total",
                "Pool misses (new heap buffers) since the last reset.",
                &[("shape", shape)],
                ps.fresh as u64,
            );
            sink.counter(
                "basilisk_arena_reused_total",
                "Pool hits since the last reset.",
                &[("shape", shape)],
                ps.reused as u64,
            );
        }
        // Encoded-storage zone-map effectiveness (see ROADMAP "Storage
        // encodings"): morsels proven from min/max/null bounds alone vs
        // morsels the encoded kernels had to touch.
        sink.counter(
            "basilisk_storage_skipped_morsels_total",
            "Atom-morsels decided by zone maps without touching data.",
            &[],
            shapes.zone_skipped_morsels,
        );
        sink.counter(
            "basilisk_storage_scanned_morsels_total",
            "Atom-morsels evaluated by encoded kernels over the payload.",
            &[],
            shapes.zone_scanned_morsels,
        );
    });
}

// One server, many client threads: keep the property pinned.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<Prepared>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default() {
        let built = ServerConfig::builder().build().unwrap();
        let default = ServerConfig::default();
        assert_eq!(built.contexts(), default.contexts());
        assert_eq!(built.queue_limit(), default.queue_limit());
        assert_eq!(built.cache_capacity(), default.cache_capacity());
        assert_eq!(built.workers(), default.workers());
        assert_eq!(built.morsel_rows(), default.morsel_rows());
        assert_eq!(built.region_slots(), default.region_slots());
        assert_eq!(built.default_planner(), default.default_planner());
    }

    #[test]
    fn builder_validates_at_construction() {
        assert!(ServerConfig::builder().contexts(0).build().is_err());
        assert!(ServerConfig::builder()
            .contexts(4)
            .queue_limit(3)
            .build()
            .is_err());
        assert!(ServerConfig::builder().region_slots(0).build().is_err());
        assert!(ServerConfig::builder().workers(0).build().is_err());
        assert!(ServerConfig::builder().morsel_rows(0).build().is_err());
        // Every rejection is a Plan error (configuration, not runtime).
        match ServerConfig::builder().contexts(0).build() {
            Err(BasiliskError::Plan(m)) => assert!(m.contains("contexts"), "{m}"),
            other => panic!("expected Plan error, got {other:?}"),
        }
    }

    #[test]
    fn builder_scales_default_queue_limit_with_contexts() {
        // Unset queue_limit tracks large context pools instead of
        // failing the `queue_limit >= contexts` check.
        let c = ServerConfig::builder().contexts(1000).build().unwrap();
        assert_eq!(c.queue_limit(), 1000);
        let c = ServerConfig::builder().contexts(2).build().unwrap();
        assert_eq!(c.queue_limit(), 256, "default floor kept");
        // Explicit values are taken verbatim when valid.
        let c = ServerConfig::builder()
            .contexts(2)
            .queue_limit(2)
            .build()
            .unwrap();
        assert_eq!(c.queue_limit(), 2);
    }
}
