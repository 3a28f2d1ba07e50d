//! Index relations (§2.5.1) and their evaluation plumbing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use basilisk_catalog::Catalog;
use basilisk_expr::eval::ColumnProvider;
use basilisk_expr::ColumnRef;
use basilisk_storage::{Column, Table};
use basilisk_types::{BasiliskError, Result};

/// The tables visible to one query: alias → table. Built once per query
/// from the catalog and shared by every operator.
#[derive(Clone)]
pub struct TableSet {
    tables: HashMap<String, Arc<Table>>,
}

impl TableSet {
    pub fn new(catalog: &Catalog, aliases: &[(String, String)]) -> Result<TableSet> {
        let mut tables = HashMap::with_capacity(aliases.len());
        for (alias, name) in aliases {
            if tables.insert(alias.clone(), catalog.table(name)?).is_some() {
                return Err(BasiliskError::Plan(format!("duplicate alias {alias}")));
            }
        }
        Ok(TableSet { tables })
    }

    /// Build directly from (alias, table) pairs — used by tests.
    pub fn from_tables(pairs: Vec<(String, Arc<Table>)>) -> TableSet {
        TableSet {
            tables: pairs.into_iter().collect(),
        }
    }

    pub fn table(&self, alias: &str) -> Result<&Arc<Table>> {
        self.tables
            .get(alias)
            .ok_or_else(|| BasiliskError::Plan(format!("unknown alias {alias}")))
    }

    pub fn num_rows(&self, alias: &str) -> Result<usize> {
        Ok(self.table(alias)?.num_rows())
    }

    /// Fetch the base-table column behind a [`ColumnRef`].
    pub fn column(&self, col: &ColumnRef) -> Result<basilisk_storage::ColumnHandle> {
        Ok(self.table(&col.table)?.column(&col.column)?.clone())
    }
}

/// An intermediate relation of index tuples: `cols[i][j]` is the row in
/// base table `tables[i]` contributed to tuple `j`. Filters on a relation
/// produce a new (smaller) relation; under tagged execution the relation
/// stays fixed and only bitmaps change (see `basilisk-core`).
#[derive(Clone)]
pub struct IdxRelation {
    tables: Vec<String>,
    cols: Vec<Arc<Vec<u32>>>,
    len: usize,
}

impl IdxRelation {
    /// The base relation of a table scan: identity indices `0..n`, drawn
    /// from the arena's [`ColumnPool`](basilisk_types::ColumnPool), so
    /// repeated executions of a plan re-fill one pooled buffer instead of
    /// allocating a fresh `0..n` vector per scan.
    pub fn base_in(
        alias: impl Into<String>,
        rows: usize,
        arena: &basilisk_types::MaskArena,
    ) -> IdxRelation {
        let mut ids = arena.columns().checkout(rows);
        ids.extend(0..rows as u32);
        IdxRelation {
            tables: vec![alias.into()],
            cols: vec![Arc::new(ids)],
            len: rows,
        }
    }

    /// Assemble from parts (lengths must agree).
    pub fn from_parts(tables: Vec<String>, cols: Vec<Arc<Vec<u32>>>) -> IdxRelation {
        let len = cols.first().map(|c| c.len()).unwrap_or(0);
        debug_assert!(cols.iter().all(|c| c.len() == len));
        debug_assert_eq!(tables.len(), cols.len());
        IdxRelation { tables, cols, len }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The base-table aliases covered, in column order.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    pub fn covers(&self, alias: &str) -> bool {
        self.tables.iter().any(|t| t == alias)
    }

    /// The index column for one covered table.
    pub fn col(&self, alias: &str) -> Result<&Arc<Vec<u32>>> {
        self.tables
            .iter()
            .position(|t| t == alias)
            .map(|i| &self.cols[i])
            .ok_or_else(|| BasiliskError::Exec(format!("relation does not cover alias {alias}")))
    }

    pub fn cols(&self) -> &[Arc<Vec<u32>>] {
        &self.cols
    }

    /// Keep only the tuples at `keep` (positions into this relation):
    /// every output column is checked out of the arena's
    /// [`ColumnPool`](basilisk_types::ColumnPool) and filled by the
    /// word-parallel gather kernel — allocation-free once the pool is
    /// warm. The produced columns follow the pool's `Arc`-share →
    /// `try_unwrap` reclaim lifecycle (see [`Self::recycle`]).
    pub fn select_in(&self, keep: &[u32], arena: &basilisk_types::MaskArena) -> IdxRelation {
        let cols = self
            .cols
            .iter()
            .map(|c| {
                let mut out = arena.columns().checkout(keep.len());
                basilisk_types::gather_u32_into(c, keep, &mut out);
                Arc::new(out)
            })
            .collect();
        IdxRelation {
            tables: self.tables.clone(),
            cols,
            len: keep.len(),
        }
    }

    /// Hand this relation's index columns back to the arena's column
    /// pool. Columns still `Arc`-shared with a live relation are left to
    /// that holder (its own recycle — or the result sweep — reclaims
    /// them); sole-owned buffers go straight back to the pool.
    pub fn recycle(self, arena: &basilisk_types::MaskArena) {
        for col in self.cols {
            arena.columns().recycle(col);
        }
    }

    /// Keep only the tuples whose position is set in `keep`: the bitmap is
    /// decoded once into a recycled index buffer (instead of once per
    /// column) and every column gathers through it into pooled output
    /// columns.
    pub fn select_bitmap_in(
        &self,
        keep: &basilisk_types::Bitmap,
        arena: &basilisk_types::MaskArena,
    ) -> IdxRelation {
        assert_eq!(keep.len(), self.len, "selection bitmap length mismatch");
        let mut idx = arena.indices();
        keep.indices_into(&mut idx);
        let out = self.select_in(&idx, arena);
        arena.recycle_indices(idx);
        out
    }

    /// The tuple at position `i` (row per covered table) — tests/debug.
    pub fn tuple(&self, i: usize) -> Vec<u32> {
        self.cols.iter().map(|c| c[i]).collect()
    }
}

/// A per-column slot: the gathered column once ready, guarded by its own
/// lock so exactly one thread computes while racers wait on the result
/// instead of re-gathering.
type ColumnSlot = Arc<Mutex<Option<Arc<Column>>>>;

/// A small sharded column cache: `ColumnRef → Arc<Column>` behind
/// per-shard locks, so concurrent worker threads taking the sparse
/// [`ColumnProvider::fetch_at`] path contend only when they race on the
/// *same* column. The shard lock covers only the map probe; the actual
/// gather runs under a per-column slot lock, which makes cold starts
/// thundering-herd-free: when a parallel region begins and every worker
/// asks for the same column at once, the first one gathers and the rest
/// block on the slot and share the result (errors are not cached — a
/// loser retries, hitting the same deterministic error).
struct ShardedColumnCache {
    shards: [Mutex<HashMap<ColumnRef, ColumnSlot>>; Self::SHARDS],
}

impl ShardedColumnCache {
    const SHARDS: usize = 8;

    fn new() -> Self {
        ShardedColumnCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, col: &ColumnRef) -> &Mutex<HashMap<ColumnRef, ColumnSlot>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        col.hash(&mut h);
        &self.shards[(h.finish() as usize) % Self::SHARDS]
    }

    /// Return the cached column for `col`, computing it with `gather` if
    /// absent — at most one concurrent computation per column.
    fn get_or_compute(
        &self,
        col: &ColumnRef,
        gather: impl FnOnce() -> Result<Arc<Column>>,
    ) -> Result<Arc<Column>> {
        let slot = Arc::clone(
            self.shard(col)
                .lock()
                .unwrap()
                .entry(col.clone())
                .or_default(),
        );
        let mut slot = slot.lock().unwrap();
        if let Some(c) = &*slot {
            return Ok(Arc::clone(c));
        }
        let c = gather()?;
        *slot = Some(Arc::clone(&c));
        Ok(c)
    }
}

/// [`ColumnProvider`] over an index relation: fetching `t.c` gathers
/// table `t`'s column `c` at the relation's index column for `t`.
/// Gathered columns are cached so each (predicate, column) pair touches
/// the base table once.
///
/// The caches are **sharded and `Sync`**: the morsel-parallel evaluator
/// hands one `&RelProvider` to every worker thread, so sparse
/// selections keep their page-selective `fetch_at` read path under
/// parallelism instead of being forced through a dense whole-column
/// prefetch.
pub struct RelProvider<'a> {
    tables: &'a TableSet,
    relation: &'a IdxRelation,
    cache: ShardedColumnCache,
    /// Selection-aligned columns (see [`ColumnProvider::fetch_at`]): each
    /// provider serves one operator invocation, so one selection applies
    /// to every cached entry.
    sel_cache: ShardedColumnCache,
    /// Aliases whose index column is the identity `0..n` (an unfiltered
    /// base scan) — precomputed so the per-fetch checks are O(1) even
    /// when every morsel of every worker asks.
    identity: HashMap<String, bool>,
}

impl<'a> RelProvider<'a> {
    pub fn new(tables: &'a TableSet, relation: &'a IdxRelation) -> Self {
        let identity = relation
            .tables()
            .iter()
            .map(|alias| {
                let ident = tables
                    .num_rows(alias)
                    .ok()
                    .zip(relation.col(alias).ok())
                    .is_some_and(|(n, rows)| is_identity(rows, n));
                (alias.clone(), ident)
            })
            .collect();
        RelProvider {
            tables,
            relation,
            cache: ShardedColumnCache::new(),
            sel_cache: ShardedColumnCache::new(),
            identity,
        }
    }

    fn is_identity_alias(&self, alias: &str) -> bool {
        self.identity.get(alias).copied().unwrap_or(false)
    }
}

impl ColumnProvider for RelProvider<'_> {
    fn fetch(&self, col: &ColumnRef) -> Result<Arc<Column>> {
        self.cache.get_or_compute(col, || {
            let handle = self.tables.column(col)?;
            let rows = self.relation.col(&col.table)?;
            // Base scans carry identity index columns; share the stored
            // column instead of copying it row by row.
            if self.is_identity_alias(&col.table) {
                handle.scan()
            } else {
                Ok(Arc::new(handle.gather(rows)?))
            }
        })
    }

    /// For sparse selections over copied (non-identity) or disk-backed
    /// columns, gather only the selected rows — page-selective on disk —
    /// and scatter them into a position-aligned column whose unselected
    /// lanes are invalid. This keeps the tagged filter's "fewer I/O calls"
    /// property without materializing a sub-relation.
    fn fetch_at(&self, col: &ColumnRef, sel: &basilisk_types::Bitmap) -> Result<Arc<Column>> {
        // Dense selections — or zero-copy full columns — go through the
        // shared full-column path. Density is re-derived per call (a
        // word-parallel popcount, cheap even once per morsel per atom).
        if 2 * sel.count_ones() >= sel.len() {
            return self.fetch(col);
        }
        let handle = self.tables.column(col)?;
        let zero_copy = matches!(handle, basilisk_storage::ColumnHandle::Mem(_))
            && self.is_identity_alias(&col.table);
        if zero_copy {
            return self.fetch(col);
        }
        self.sel_cache.get_or_compute(col, || {
            let rows = self.relation.col(&col.table)?;
            let subset: Vec<u32> = sel.iter_ones().map(|p| rows[p]).collect();
            let compact = handle.gather(&subset)?;
            Ok(Arc::new(scatter_aligned(&compact, sel)))
        })
    }

    /// Encoded columns are positional, so only identity-aligned aliases
    /// (unfiltered base scans, where relation row `i` *is* table row `i`)
    /// may answer — exactly the scans where zone-map skipping pays.
    fn fetch_encoded(&self, col: &ColumnRef) -> Option<Arc<basilisk_storage::EncodedColumn>> {
        if !self.is_identity_alias(&col.table) {
            return None;
        }
        match self.tables.column(col) {
            Ok(handle) => handle.encoded().cloned(),
            Err(_) => None,
        }
    }

    fn num_rows(&self) -> usize {
        self.relation.len()
    }
}

// The morsel-parallel evaluator shares one `&RelProvider` across worker
// threads; keep the property pinned at compile time.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<RelProvider<'static>>();
};

/// True when `rows` is exactly `0..table_rows` — the index column of an
/// unfiltered base scan.
fn is_identity(rows: &[u32], table_rows: usize) -> bool {
    rows.len() == table_rows && rows.iter().enumerate().all(|(i, &r)| r as usize == i)
}

/// Expand a compacted column (one value per set bit of `sel`, in bit
/// order) to a `sel.len()`-lane column where value `j` sits at the `j`-th
/// set position. Unselected lanes are invalid and default-filled; callers
/// honoring the [`ColumnProvider::fetch_at`] contract never read them.
fn scatter_aligned(compact: &Column, sel: &basilisk_types::Bitmap) -> Column {
    use basilisk_storage::{ColumnData, StrData};
    debug_assert_eq!(compact.len(), sel.count_ones());
    let n = sel.len();
    let mut validity = basilisk_types::Bitmap::new(n);
    for (j, p) in sel.iter_ones().enumerate() {
        if compact.is_valid(j) {
            validity.set(p);
        }
    }
    let data = match compact.data() {
        ColumnData::Int(v) => {
            let mut out = vec![0i64; n];
            for (j, p) in sel.iter_ones().enumerate() {
                out[p] = v[j];
            }
            ColumnData::Int(out)
        }
        ColumnData::Float(v) => {
            let mut out = vec![0.0f64; n];
            for (j, p) in sel.iter_ones().enumerate() {
                out[p] = v[j];
            }
            ColumnData::Float(out)
        }
        ColumnData::Bool(v) => {
            let mut out = vec![false; n];
            for (j, p) in sel.iter_ones().enumerate() {
                out[p] = v[j];
            }
            ColumnData::Bool(out)
        }
        ColumnData::Str(s) => {
            let mut out = StrData::with_capacity(n, s.raw().1.len());
            let mut ones = sel.iter_ones().enumerate().peekable();
            for p in 0..n {
                match ones.peek() {
                    Some(&(j, q)) if q == p => {
                        out.push(s.get(j));
                        ones.next();
                    }
                    _ => out.push(""),
                }
            }
            ColumnData::Str(out)
        }
    };
    Column::new(data, Some(validity)).expect("scatter_aligned builds consistent columns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_storage::TableBuilder;
    use basilisk_types::{DataType, MaskArena, Value};

    /// A base relation over a throwaway arena.
    fn base(alias: &str, rows: usize) -> IdxRelation {
        IdxRelation::base_in(alias, rows, &MaskArena::new())
    }

    fn table() -> Arc<Table> {
        let mut b = TableBuilder::new("t")
            .column("id", DataType::Int)
            .column("name", DataType::Str);
        for (id, name) in [(10, "a"), (20, "b"), (30, "c")] {
            b.push_row(vec![(id as i64).into(), name.into()]).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn base_relation_identity() {
        let r = base("t", 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.tables(), &["t".to_string()]);
        assert!(r.covers("t"));
        assert!(!r.covers("u"));
        assert_eq!(**r.col("t").unwrap(), vec![0, 1, 2]);
        assert!(r.col("u").is_err());
        assert_eq!(r.tuple(1), vec![1]);
    }

    #[test]
    fn select_narrows() {
        let arena = MaskArena::new();
        let r = base("t", 5).select_in(&[4, 0], &arena);
        assert_eq!(r.len(), 2);
        assert_eq!(**r.col("t").unwrap(), vec![4, 0]);
        let empty = r.select_in(&[], &arena);
        assert!(empty.is_empty());
    }

    #[test]
    fn provider_gathers_and_caches() {
        let ts = TableSet::from_tables(vec![("t".into(), table())]);
        let rel = base("t", 3).select_in(&[2, 0], &MaskArena::new());
        let p = RelProvider::new(&ts, &rel);
        let c = p.fetch(&ColumnRef::new("t", "id")).unwrap();
        assert_eq!(c.as_ints().unwrap(), &[30, 10]);
        let c2 = p.fetch(&ColumnRef::new("t", "id")).unwrap();
        assert!(Arc::ptr_eq(&c, &c2), "cached");
        assert_eq!(p.num_rows(), 2);
        assert!(p.fetch(&ColumnRef::new("u", "id")).is_err());
    }

    #[test]
    fn fetch_at_sparse_scatters_aligned() {
        use basilisk_types::Bitmap;
        let ts = TableSet::from_tables(vec![("t".into(), table())]);
        // Non-identity relation: tuples map to rows 2,0,1,2,0,1,2,0 so the
        // sparse path (selectivity < 1/2) must gather through the index
        // column, not the base table directly.
        let rel = base("t", 3).select_in(&[2, 0, 1, 2, 0, 1, 2, 0], &MaskArena::new());
        let p = RelProvider::new(&ts, &rel);
        let sel = Bitmap::from_indices(8, [1usize, 6, 7]);
        let c = p.fetch_at(&ColumnRef::new("t", "id"), &sel).unwrap();
        assert_eq!(c.len(), 8, "aligned to the relation, not compacted");
        // Selected lanes carry the right values…
        assert_eq!(c.value(1), Value::Int(10)); // row 0
        assert_eq!(c.value(6), Value::Int(30)); // row 2
        assert_eq!(c.value(7), Value::Int(10)); // row 0
                                                // …and unselected lanes are invalid, never silently wrong.
        assert!(!c.is_valid(0));
        assert!(!c.is_valid(5));
        // Strings scatter too.
        let c = p.fetch_at(&ColumnRef::new("t", "name"), &sel).unwrap();
        assert_eq!(c.value(6), Value::from("c"));
        assert!(!c.is_valid(2));
        // Cached: second call returns the same Arc.
        let again = p.fetch_at(&ColumnRef::new("t", "name"), &sel).unwrap();
        assert!(Arc::ptr_eq(&c, &again));
        // Dense selections fall back to the shared full-column path.
        let dense = Bitmap::all_set(8);
        let full = p.fetch_at(&ColumnRef::new("t", "id"), &dense).unwrap();
        assert_eq!(full.len(), 8);
        assert!(full.is_valid(0));
    }

    #[test]
    fn fetch_encoded_only_for_identity_relations() {
        let mut b = TableBuilder::new("t").column("id", DataType::Int).encoded();
        for id in 0..5i64 {
            b.push_row(vec![id.into()]).unwrap();
        }
        let t = Arc::new(b.finish().unwrap());
        let ts = TableSet::from_tables(vec![("t".into(), t)]);
        let full = base("t", 5);
        let p = RelProvider::new(&ts, &full);
        let enc = p.fetch_encoded(&ColumnRef::new("t", "id")).unwrap();
        assert_eq!(enc.len(), 5);
        // Filtered relations are not positionally aligned — no encoded view.
        let narrowed = full.select_in(&[3, 1], &MaskArena::new());
        let p = RelProvider::new(&ts, &narrowed);
        assert!(p.fetch_encoded(&ColumnRef::new("t", "id")).is_none());
        // Plain (unencoded) tables have nothing to offer either.
        let ts = TableSet::from_tables(vec![("t".into(), table())]);
        let full = base("t", 3);
        let p = RelProvider::new(&ts, &full);
        assert!(p.fetch_encoded(&ColumnRef::new("t", "id")).is_none());
    }

    #[test]
    fn tableset_lookup() {
        let ts = TableSet::from_tables(vec![("t".into(), table())]);
        assert_eq!(ts.num_rows("t").unwrap(), 3);
        assert!(ts.table("x").is_err());
        assert!(ts.column(&ColumnRef::new("t", "id")).is_ok());
        assert!(ts.column(&ColumnRef::new("t", "zz")).is_err());
    }
}
