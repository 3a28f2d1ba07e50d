//! The top-level database object.

use std::path::Path;
use std::sync::{Arc, Mutex};

use basilisk_catalog::Catalog;
use basilisk_plan::{PlannerKind, Query, QuerySession};
use basilisk_serve::{Prepared, Server, ServerConfig};
use basilisk_sql::{parse_select, Projection};
use basilisk_storage::{LfuPageCache, Table};
use basilisk_types::{Result, Value};

use crate::result::SqlResult;

/// A Basilisk database: a catalog of registered tables plus the page cache
/// used for disk-resident tables.
///
/// SQL entry points ([`Database::sql`], [`Database::prepare`] /
/// [`Database::execute_prepared`]) run on an internal resident
/// [`Server`]: one shared worker pool, reusable execution contexts and a
/// prepared-statement plan cache, so a repeated statement shape skips
/// planning and only binds its literals. The server is a catalog
/// *snapshot*, rebuilt lazily after any registration.
pub struct Database {
    catalog: Catalog,
    cache: Arc<LfuPageCache>,
    default_planner: PlannerKind,
    /// Worker-count override for sessions this database builds; `None`
    /// defers to the engine default (`BASILISK_THREADS`, else the
    /// machine's available parallelism).
    workers: Option<usize>,
    /// The lazily built internal serving core; dropped (and rebuilt on
    /// next use) whenever the catalog or engine configuration changes.
    engine: Mutex<Option<Arc<Server>>>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// An empty database with a default-size page cache (4096 pages ≈
    /// 32 MiB).
    pub fn new() -> Database {
        Database::with_cache_pages(4096)
    }

    pub fn with_cache_pages(pages: usize) -> Database {
        Database {
            catalog: Catalog::new(),
            cache: Arc::new(LfuPageCache::new(pages)),
            default_planner: PlannerKind::TCombined,
            workers: None,
            engine: Mutex::new(None),
        }
    }

    /// Change the planner used by [`Database::sql`] (default TCombined).
    pub fn set_default_planner(&mut self, kind: PlannerKind) {
        self.default_planner = kind;
        self.invalidate_engine();
    }

    /// Set the worker count for intra-query parallelism on every session
    /// this database builds (`1` = serial execution; the default follows
    /// `BASILISK_THREADS`, else the machine's available parallelism).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = Some(workers.max(1));
        self.invalidate_engine();
    }

    /// Register an in-memory table (statistics are computed on the spot).
    pub fn register(&mut self, table: Table) -> Result<()> {
        self.catalog.add_table(table)?;
        self.invalidate_engine();
        Ok(())
    }

    /// Open a table previously saved with [`Database::save_table`] and
    /// register it (data pages stay on disk, read through the LFU cache).
    pub fn open_table(&mut self, dir: &Path) -> Result<()> {
        let table = Table::load(dir, Arc::clone(&self.cache))?;
        self.catalog.add_table(table)?;
        self.invalidate_engine();
        Ok(())
    }

    fn invalidate_engine(&mut self) {
        *self.engine.get_mut().unwrap() = None;
    }

    /// The internal serving core, built on first use. Cached plans and
    /// warm arenas live here, which is what makes repeated
    /// [`Database::sql`] calls bind-and-execute instead of
    /// parse-plan-execute.
    fn engine(&self) -> Arc<Server> {
        let mut slot = self.engine.lock().unwrap();
        Arc::clone(slot.get_or_insert_with(|| {
            // Concurrent `sql` callers on one Database execute on up to
            // `contexts` contexts; admission is effectively unbounded so
            // no caller is ever rejected (the standalone `serve()`
            // server is where backpressure policy belongs).
            let config = ServerConfig::builder()
                .contexts(2)
                .queue_limit(usize::MAX / 2)
                .workers_opt(self.workers)
                .default_planner(self.default_planner)
                .build()
                .expect("static sizing is valid");
            Arc::new(Server::new(self.catalog.clone(), config))
        }))
    }

    /// Persist a registered table to `dir`.
    pub fn save_table(&self, name: &str, dir: &Path) -> Result<()> {
        self.catalog.table(name)?.save(dir)
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn cache(&self) -> &Arc<LfuPageCache> {
        &self.cache
    }

    /// Build a planning/execution session for a programmatic [`Query`].
    pub fn session(&self, query: Query) -> Result<QuerySession> {
        let session = QuerySession::new(&self.catalog, query)?;
        Ok(match self.workers {
            Some(w) => session.with_workers(w),
            None => session,
        })
    }

    /// Parse a SQL SELECT, resolving `*` against the catalog. `LIMIT` and
    /// `COUNT(*)` are handled by [`Database::sql`]; this returns the bare
    /// logical query.
    pub fn parse(&self, sql: &str) -> Result<Query> {
        let stmt = parse_select(sql)?;
        let star = stmt.projection == Projection::Star;
        let mut query = stmt.into_query();
        if star {
            query = query.select_all(&self.catalog)?;
        }
        query.validate()?;
        Ok(query)
    }

    /// Run a SQL query with the default planner, through the internal
    /// plan cache: the first occurrence of a statement shape parses and
    /// plans, every later occurrence binds its literals into the cached
    /// plan and executes.
    pub fn sql(&self, sql: &str) -> Result<SqlResult> {
        self.sql_with(sql, self.default_planner)
    }

    /// Run a SQL query with an explicit planner (plans are cached per
    /// planner kind).
    pub fn sql_with(&self, sql: &str, kind: PlannerKind) -> Result<SqlResult> {
        Ok(SqlResult::from_serve(self.engine().sql_with(sql, kind)?))
    }

    /// Parse, normalize and plan a statement once, returning a reusable
    /// handle for [`Database::execute_prepared`]. Literals in the text
    /// become `?n` parameters in predicate walk order.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        self.engine().prepare(sql)
    }

    /// Execute a prepared statement with fresh parameter values — zero
    /// parse and zero plan work.
    pub fn execute_prepared(&self, stmt: &Prepared, params: &[Value]) -> Result<SqlResult> {
        Ok(SqlResult::from_serve(
            self.engine().execute_prepared(stmt, params)?,
        ))
    }

    /// Counter snapshot of the internal serving core (cache hits/misses/
    /// evictions, latency histogram).
    pub fn serve_stats(&self) -> basilisk_serve::ServeStats {
        self.engine().stats()
    }

    /// Build a standalone concurrent [`Server`] over a snapshot of this
    /// database's catalog, with this database's planner and worker
    /// configuration. Share it behind an `Arc` across client threads.
    pub fn serve(&self) -> Server {
        let config = ServerConfig::builder()
            .workers_opt(self.workers)
            .default_planner(self.default_planner)
            .build()
            .expect("static sizing is valid");
        self.serve_with(config)
    }

    /// [`Database::serve`] with explicit sizing.
    pub fn serve_with(&self, config: ServerConfig) -> Server {
        Server::new(self.catalog.clone(), config)
    }

    /// Serve this database over the HTTP/JSON wire protocol: build a
    /// standalone server (as [`Database::serve`]) and bind the
    /// `basilisk-net` listener to `addr` (use `"127.0.0.1:0"` for an
    /// ephemeral port; the bound address is on
    /// [`Listener::local_addr`](basilisk_net::Listener::local_addr)).
    pub fn listen(&self, addr: &str) -> std::io::Result<basilisk_net::Listener> {
        basilisk_net::Listener::bind(Arc::new(self.serve()), addr)
    }

    /// [`Database::listen`] with explicit server sizing.
    pub fn listen_with(
        &self,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<basilisk_net::Listener> {
        basilisk_net::Listener::bind(Arc::new(self.serve_with(config)), addr)
    }

    /// EXPLAIN: render the plan a planner would choose for a SQL query.
    pub fn explain(&self, sql: &str, kind: PlannerKind) -> Result<String> {
        let query = self.parse(sql)?;
        let session = self.session(query)?;
        let plan = session.plan(kind)?;
        Ok(session.explain(&plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_storage::TableBuilder;
    use basilisk_types::{DataType, Value};

    fn movie_db() -> Database {
        let mut db = Database::new();
        let mut b = TableBuilder::new("title")
            .column("id", DataType::Int)
            .column("year", DataType::Int)
            .column("name", DataType::Str);
        for (id, year, name) in [
            (1i64, 2008i64, "The Dark Knight"),
            (2, 2001, "Evolution"),
            (3, 1994, "The Shawshank Redemption"),
            (4, 1994, "Pulp Fiction"),
            (5, 1972, "The Godfather"),
            (6, 1988, "Beetlejuice"),
            (7, 2009, "Avatar"),
        ] {
            b.push_row(vec![id.into(), year.into(), name.into()])
                .unwrap();
        }
        db.register(b.finish().unwrap()).unwrap();
        let mut b = TableBuilder::new("movie_info_idx")
            .column("movie_id", DataType::Int)
            .column("score", DataType::Str);
        for (mid, s) in [
            (1i64, "9.0"),
            (3, "9.3"),
            (4, "8.9"),
            (5, "9.2"),
            (6, "7.5"),
            (7, "7.9"),
        ] {
            b.push_row(vec![mid.into(), s.into()]).unwrap();
        }
        db.register(b.finish().unwrap()).unwrap();
        db
    }

    /// Query 1 from the paper, end to end through SQL.
    #[test]
    fn query1_sql_end_to_end() {
        let db = movie_db();
        let result = db
            .sql(
                "SELECT * FROM title AS t JOIN movie_info_idx AS mi_idx \
                 ON t.id = mi_idx.movie_id \
                 WHERE (t.year > 2000 AND mi_idx.score > '7.0') \
                 OR (t.year > 1980 AND mi_idx.score > '8.0')",
            )
            .unwrap();
        // Dark Knight, Avatar (recent, >7.0) + Shawshank, Pulp Fiction
        // (post-1980, >8.0).
        assert_eq!(result.row_count, 4);
        assert_eq!(result.columns.len(), 5, "star expands all columns");
        assert!(result.chosen.is_some());
    }

    #[test]
    fn every_planner_gives_same_answer() {
        let db = movie_db();
        let sql = "SELECT t.id FROM title t JOIN movie_info_idx mi ON t.id = mi.movie_id \
                   WHERE t.year > 2000 AND mi.score > '8.0' OR t.name ILIKE '%godfather%'";
        let mut counts = Vec::new();
        for kind in [
            PlannerKind::TPushdown,
            PlannerKind::TPullup,
            PlannerKind::TIterPush,
            PlannerKind::TPushConj,
            PlannerKind::TCombined,
            PlannerKind::BDisj,
            PlannerKind::BPushConj,
        ] {
            counts.push(db.sql_with(sql, kind).unwrap().row_count);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert_eq!(counts[0], 2, "Dark Knight + The Godfather");
    }

    #[test]
    fn explain_produces_plans() {
        let db = movie_db();
        let sql = "SELECT * FROM title t JOIN movie_info_idx mi ON t.id = mi.movie_id \
                   WHERE t.year > 2000 OR mi.score > '9.0'";
        let tagged = db.explain(sql, PlannerKind::TCombined).unwrap();
        assert!(tagged.contains("tagged plan"), "{tagged}");
        let trad = db.explain(sql, PlannerKind::BDisj).unwrap();
        assert!(trad.contains("Union"), "{trad}");
    }

    #[test]
    fn save_open_roundtrip_runs_queries_from_disk() {
        let db = movie_db();
        let dir = std::env::temp_dir().join(format!("basilisk-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        db.save_table("title", &dir.join("title")).unwrap();
        db.save_table("movie_info_idx", &dir.join("mi")).unwrap();

        let mut db2 = Database::with_cache_pages(64);
        db2.open_table(&dir.join("title")).unwrap();
        db2.open_table(&dir.join("mi")).unwrap();
        let r = db2
            .sql("SELECT t.id FROM title t WHERE t.year > 2000")
            .unwrap();
        assert_eq!(r.row_count, 3);
        assert!(db2.cache().stats().misses > 0, "reads went through cache");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nulls_handled_automatically() {
        let mut db = Database::new();
        let mut b = TableBuilder::new("t")
            .column("id", DataType::Int)
            .column("note", DataType::Str)
            .column("year", DataType::Int);
        for (id, note, year) in [
            (1i64, Value::from("x"), 2005i64),
            (2, Value::Null, 2010),
            (3, Value::Null, 1990),
            (4, Value::from("co-prod"), 1990),
        ] {
            b.push_row(vec![id.into(), note, year.into()]).unwrap();
        }
        db.register(b.finish().unwrap()).unwrap();
        // Row 2 has note NULL but satisfies year > 2000: the unknown slice
        // must keep it alive (three-valued tag maps auto-enabled).
        let sql = "SELECT t.id FROM t WHERE t.note LIKE '%co%' OR t.year > 2000";
        for kind in [
            PlannerKind::TCombined,
            PlannerKind::TPushdown,
            PlannerKind::BDisj,
        ] {
            let r = db.sql_with(sql, kind).unwrap();
            assert_eq!(r.row_count, 3, "rows 1,2,4 under {kind}");
        }
    }

    #[test]
    fn errors_surface() {
        let db = movie_db();
        assert!(db.sql("SELECT * FROM nope").is_err());
        assert!(db.sql("SELECT broken").is_err());
        assert!(db.sql("SELECT * FROM title t WHERE t.zz > 1").is_err());
        let mut db2 = movie_db();
        let mut b = TableBuilder::new("title").column("id", DataType::Int);
        b.push_row(vec![1i64.into()]).unwrap();
        assert!(db2.register(b.finish().unwrap()).is_err(), "duplicate");
    }

    /// Satellite of the serving PR: identical statements must not
    /// re-parse or re-plan — the second call is bind + execute.
    #[test]
    fn repeated_sql_hits_the_plan_cache() {
        let db = movie_db();
        let sql = "SELECT t.id FROM title t WHERE t.year > 2000";
        let a = db.sql(sql).unwrap();
        let s = db.serve_stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 1));
        assert_eq!(s.statements_prepared, 1);
        let b = db.sql(sql).unwrap();
        assert_eq!(a.row_count, b.row_count);
        // Same shape, new literal: still no parse/plan.
        let c = db
            .sql("SELECT t.id FROM title t WHERE t.year > 1980")
            .unwrap();
        assert!(c.row_count >= b.row_count);
        let s = db.serve_stats();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.statements_prepared, 1, "hot path is bind + execute");
        // Registration invalidates the snapshot (fresh server, cold cache).
        let mut db = db;
        let mut t = TableBuilder::new("extra").column("x", DataType::Int);
        t.push_row(vec![1i64.into()]).unwrap();
        db.register(t.finish().unwrap()).unwrap();
        db.sql("SELECT e.x FROM extra e").unwrap();
        assert_eq!(db.serve_stats().cache_misses, 1, "rebuilt engine");
    }

    #[test]
    fn prepare_and_execute_prepared() {
        let db = movie_db();
        let stmt = db
            .prepare(
                "SELECT t.id FROM title t JOIN movie_info_idx mi ON t.id = mi.movie_id \
                 WHERE t.year > 2000 AND mi.score > '7.0' OR t.year > 1980 AND mi.score > '8.0'",
            )
            .unwrap();
        assert_eq!(stmt.param_count(), 4);
        let r = db
            .execute_prepared(
                &stmt,
                &[
                    Value::Int(2000),
                    Value::from("7.0"),
                    Value::Int(1980),
                    Value::from("8.0"),
                ],
            )
            .unwrap();
        assert_eq!(r.row_count, 4, "query 1 verbatim");
        // Same literal order as the prepared text (first year above the
        // second, first score below it), so the cached plan is re-driven.
        let r = db
            .execute_prepared(
                &stmt,
                &[
                    Value::Int(1),
                    Value::from("0"),
                    Value::Int(0),
                    Value::from("1"),
                ],
            )
            .unwrap();
        assert_eq!(r.row_count, 6, "all scored movies");
        assert_eq!(db.serve_stats().statements_prepared, 1);
    }

    #[test]
    fn standalone_server_from_database() {
        let db = movie_db();
        let srv = std::sync::Arc::new(db.serve());
        let mut handles = Vec::new();
        for _ in 0..3 {
            let srv = std::sync::Arc::clone(&srv);
            handles.push(std::thread::spawn(move || {
                srv.sql("SELECT t.id FROM title t WHERE t.year > 2000")
                    .unwrap()
                    .row_count
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 3);
        }
        assert_eq!(srv.outstanding(), 0);
    }

    #[test]
    fn default_planner_override() {
        let mut db = movie_db();
        db.set_default_planner(PlannerKind::BPushConj);
        let r = db
            .sql("SELECT t.id FROM title t WHERE t.year > 2000")
            .unwrap();
        assert_eq!(r.planner, PlannerKind::BPushConj);
        assert!(r.chosen.is_none(), "traditional plans have no subplanner");
    }
}
