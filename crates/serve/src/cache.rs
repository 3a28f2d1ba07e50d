//! The prepared-statement plan cache: one LRU keyed by the *normalized*
//! text (literals replaced by `?n`; see
//! [`basilisk_sql::normalize_select`]) plus the planner kind, holding an
//! [`Arc<PreparedStatement>`] — the parsed template, the catalog-derived
//! session parts (table set, three-valued flag), the chosen [`Plan`]
//! with its tag maps, and the prepare-time predicate tree the plan's
//! `ExprId`s address. Every SQL request lexes and normalizes its text
//! (a few hundredths of a millisecond) and then binds into the cached
//! shape.
//!
//! Eviction drops the cache's reference only: [`Prepared`] handles held
//! by clients keep their statement alive and executable (they simply no
//! longer accelerate other sessions). Capacity-pressure evictions are
//! counted for [`ServeStats`](crate::ServeStats).

use basilisk_types::sync::{Arc, Mutex};
use std::collections::HashMap;

use basilisk_exec::TableSet;
use basilisk_expr::{ExprId, PredicateTree};
use basilisk_plan::{Plan, PlannerKind, Query};
use basilisk_types::Truth;

/// One cached statement: everything needed to go from bound parameter
/// values to execution without touching the parser or a planner.
pub struct PreparedStatement {
    /// Normalized cache key (without the planner-kind prefix).
    pub(crate) key: String,
    /// The logical query template, prepare-time literals in place.
    pub(crate) query: Query,
    /// The predicate tree the cached plan's `ExprId`s address — the
    /// congruence reference for rebinding.
    pub(crate) tree: Option<PredicateTree>,
    /// `implication_signature` of `tree`: the atom implications the
    /// plan's tag maps were built under. A binding must reproduce it.
    pub(crate) implications: Vec<(ExprId, Truth, ExprId, Truth)>,
    pub(crate) param_count: usize,
    pub(crate) plan: Plan,
    pub(crate) planner: PlannerKind,
    pub(crate) chosen: Option<PlannerKind>,
    pub(crate) tables: TableSet,
    pub(crate) three_valued: bool,
    pub(crate) limit: Option<usize>,
    pub(crate) is_count: bool,
}

/// A client-held handle to a cached statement (see
/// [`Server::prepare`](crate::Server::prepare)). Cloning is cheap;
/// handles stay valid across cache evictions.
#[derive(Clone)]
pub struct Prepared {
    pub(crate) inner: Arc<PreparedStatement>,
}

impl Prepared {
    /// Number of `?n` parameters
    /// [`Server::execute_prepared`](crate::Server::execute_prepared)
    /// expects.
    pub fn param_count(&self) -> usize {
        self.inner.param_count
    }

    /// The normalized statement text this handle was prepared from.
    pub fn key(&self) -> &str {
        &self.inner.key
    }

    /// The planner the cached plan was built with.
    pub fn planner(&self) -> PlannerKind {
        self.inner.planner
    }
}

struct LruEntry<V> {
    value: V,
    stamp: u64,
}

/// A small stamp-based LRU. Capacity is bounded and modest (hundreds of
/// statements); eviction scans for the oldest stamp, which keeps the
/// structure a single `HashMap` — no order list to desynchronize.
struct Lru<V> {
    map: HashMap<String, LruEntry<V>>,
    capacity: usize,
    tick: u64,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.stamp = tick;
            &e.value
        })
    }

    /// Insert, returning how many entries were evicted (0 or 1).
    fn insert(&mut self, key: String, value: V) -> u64 {
        self.tick += 1;
        let mut evicted = 0;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                evicted = 1;
            }
        }
        self.map.insert(
            key,
            LruEntry {
                value,
                stamp: self.tick,
            },
        );
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The statement LRU (see the module docs). Thread-safe; lock scope is
/// a map probe, never a parse or a plan.
pub(crate) struct PlanCache {
    statements: Mutex<Lru<Arc<PreparedStatement>>>,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        PlanCache {
            statements: Mutex::new(Lru::new(capacity)),
        }
    }

    /// Composite key: plans depend on the planner kind too.
    fn full_key(planner: PlannerKind, key: &str) -> String {
        format!("{planner}\u{1}{key}")
    }

    pub(crate) fn get_statement(
        &self,
        planner: PlannerKind,
        key: &str,
    ) -> Option<Arc<PreparedStatement>> {
        self.statements
            .lock()
            .unwrap()
            .get(&Self::full_key(planner, key))
            .cloned()
    }

    /// Returns the number of evicted statements.
    pub(crate) fn put_statement(&self, stmt: &Arc<PreparedStatement>) -> u64 {
        self.statements
            .lock()
            .unwrap()
            .insert(Self::full_key(stmt.planner, &stmt.key), Arc::clone(stmt))
    }

    pub(crate) fn cached_statements(&self) -> usize {
        self.statements.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32> = Lru::new(2);
        assert_eq!(lru.insert("a".into(), 1), 0);
        assert_eq!(lru.insert("b".into(), 2), 0);
        // Touch a so b becomes the victim.
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.insert("c".into(), 3), 1);
        assert_eq!(lru.get("b"), None, "b evicted");
        assert_eq!(lru.get("a"), Some(&1));
        assert_eq!(lru.get("c"), Some(&3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_reinsert_same_key_is_not_an_eviction() {
        let mut lru: Lru<u32> = Lru::new(2);
        lru.insert("a".into(), 1);
        lru.insert("b".into(), 2);
        assert_eq!(lru.insert("a".into(), 10), 0, "update in place");
        assert_eq!(lru.get("a"), Some(&10));
        assert_eq!(lru.len(), 2);
    }
}
