//! Per-query buffer pool for the word-parallel execution path.
//!
//! Every operator on the tagged hot path works in terms of three scratch
//! shapes: [`TruthMask`]es (predicate evaluation), [`Bitmap`]s (slice
//! bookkeeping, selection vectors) and `Vec<u32>` index buffers (bitmap →
//! position decoding). Before the arena existed each operator allocated
//! these afresh, so `tagged_filter` → `tagged_join` pipelines paid malloc
//! on the hot path even though the buffer shapes are identical from one
//! `execute()` to the next.
//!
//! [`MaskArena`] fixes that with a checkout → evaluate → recycle
//! lifecycle:
//!
//! 1. **checkout** — [`MaskArena::mask`] / [`MaskArena::bitmap`] /
//!    [`MaskArena::indices`] pop a pooled buffer whose capacity already
//!    fits the requested length and reset it in place; only a pool miss
//!    touches the allocator.
//! 2. **evaluate** — the caller owns the buffer as a plain value (no
//!    guard lifetimes), so it can flow through operator boundaries and
//!    even live inside an intermediate `TaggedRelation`'s slice map.
//! 3. **recycle** — [`MaskArena::recycle_mask`] & friends hand the buffer
//!    back once the value is dead (an operator consumed its input, the
//!    executor dropped an intermediate).
//!
//! After one warmup execution the pool holds every shape the query needs,
//! and [`ArenaStats`] proves it: the steady-state test asserts
//! `fresh` checkouts stay at zero from the second execution on. Stats are
//! intentionally part of the public API — they are the observability hook
//! the CI allocation test and the bench harness key off. The arena also
//! carries a [`ColumnPool`] ([`MaskArena::columns`]) for the fourth hot
//! shape — the `Arc`-shared `Vec<u32>` index columns that joins, selects
//! and unions *output* — whose lifecycle (checkout → `Arc`-share →
//! `try_unwrap` reclaim) is documented on [`ColumnPool`] — plus a
//! [`ValuePool`] ([`MaskArena::values`]) for typed *value* buffers
//! (gathered join keys, projected output columns; recycled via
//! `Column::recycle` in the storage crate, with projected result columns
//! deferred by the session) and pooled [`SlotTable`]s
//! ([`MaskArena::slot_table`]) for union deduplication.
//!
//! The arena is deliberately *not* `Sync` (`RefCell`): sharing one pool
//! between threads would serialize on a lock exactly where the hot path
//! is. It **is** `Send`, though, and that is the concurrency model of the
//! morsel-parallel executor (`basilisk-sched`): every worker *owns* a
//! private arena — handed into its scoped thread by `&mut` — so the
//! checkout → evaluate → recycle lifecycle and the `fresh() == 0`
//! steady-state guarantee hold per worker without any locking. Buffers
//! must return to the arena they were checked out of (the scheduler
//! routes morsel results back to their producing worker's arena), which
//! keeps every arena's [`MaskArena::outstanding`] accounting exact.
//! Under `--cfg basilisk_check` that rule is asserted directly: every
//! mask/bitmap checkout tags the buffer's heap storage with this arena's
//! id in the check runtime's ownership registry
//! ([`crate::sync`]), and recycling a buffer into a different arena
//! panics with a replayable finding.

use std::cell::{Cell, RefCell};

use crate::bitmap::{Bitmap, WORD_BITS};
use crate::colpool::ColumnPool;
use crate::slots::SlotTable;
use crate::truthmask::TruthMask;
use crate::valpool::ValuePool;

/// Upper bound on pooled buffers per shape. A query pipeline only ever has
/// a handful of buffers live at once; the cap just keeps a pathological
/// caller from hoarding memory through the pool.
const MAX_POOLED: usize = 256;

/// Checkout counters for one buffer shape: `fresh` counts pool misses
/// (a new heap buffer was created), `reused` counts pool hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub fresh: usize,
    pub reused: usize,
}

/// Snapshot of the arena's checkout counters since the last
/// [`MaskArena::reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    pub masks: PoolStats,
    pub bitmaps: PoolStats,
    pub indices: PoolStats,
    /// `Arc`-shared output index columns (see [`crate::ColumnPool`]).
    pub columns: PoolStats,
    /// Typed value buffers — gathered key columns, projected outputs
    /// (see [`crate::ValuePool`]).
    pub values: PoolStats,
    /// Generation-stamped dedup tables (see [`crate::SlotTable`]).
    pub slot_tables: PoolStats,
    /// Atom-morsels proven whole by a zone map (no data touched) — see
    /// [`MaskArena::note_zone_skip`].
    pub zone_skipped_morsels: u64,
    /// Atom-morsels that had to evaluate data (encoded or decoded).
    pub zone_scanned_morsels: u64,
}

impl ArenaStats {
    /// Accumulate another arena's counters into this snapshot (how the
    /// metrics collectors aggregate across worker and context arenas).
    pub fn merge(&mut self, other: &ArenaStats) {
        for (a, b) in [
            (&mut self.masks, &other.masks),
            (&mut self.bitmaps, &other.bitmaps),
            (&mut self.indices, &other.indices),
            (&mut self.columns, &other.columns),
            (&mut self.values, &other.values),
            (&mut self.slot_tables, &other.slot_tables),
        ] {
            a.fresh += b.fresh;
            a.reused += b.reused;
        }
        self.zone_skipped_morsels += other.zone_skipped_morsels;
        self.zone_scanned_morsels += other.zone_scanned_morsels;
    }

    /// The per-shape counters with their stable metric label names.
    pub fn by_shape(&self) -> [(&'static str, PoolStats); 6] {
        [
            ("masks", self.masks),
            ("bitmaps", self.bitmaps),
            ("indices", self.indices),
            ("columns", self.columns),
            ("values", self.values),
            ("slot_tables", self.slot_tables),
        ]
    }

    /// Total pool misses — zero in steady state.
    pub fn fresh(&self) -> usize {
        self.masks.fresh
            + self.bitmaps.fresh
            + self.indices.fresh
            + self.columns.fresh
            + self.values.fresh
            + self.slot_tables.fresh
    }

    /// Total pool hits.
    pub fn reused(&self) -> usize {
        self.masks.reused
            + self.bitmaps.reused
            + self.indices.reused
            + self.columns.reused
            + self.values.reused
            + self.slot_tables.reused
    }
}

/// A per-query pool of fixed-capacity [`TruthMask`] / [`Bitmap`] /
/// `Vec<u32>` buffers (see the module docs for the lifecycle).
#[derive(Default)]
pub struct MaskArena {
    masks: RefCell<Vec<TruthMask>>,
    bitmaps: RefCell<Vec<Bitmap>>,
    indices: RefCell<Vec<Vec<u32>>>,
    columns: ColumnPool,
    values: ValuePool,
    slot_tables: RefCell<Vec<SlotTable>>,
    mask_fresh: Cell<usize>,
    mask_reused: Cell<usize>,
    bitmap_fresh: Cell<usize>,
    bitmap_reused: Cell<usize>,
    index_fresh: Cell<usize>,
    index_reused: Cell<usize>,
    slot_fresh: Cell<usize>,
    slot_reused: Cell<usize>,
    zone_skipped: Cell<u64>,
    zone_scanned: Cell<u64>,
    live: Cell<usize>,
    /// Identity in the `basilisk_check` buffer-ownership registry
    /// (lazily assigned; 0 = not yet registered).
    #[cfg(basilisk_check)]
    check_id: Cell<u64>,
}

impl MaskArena {
    pub fn new() -> MaskArena {
        MaskArena::default()
    }

    /// This arena's id in the check runtime's ownership registry,
    /// assigned on first checkout.
    #[cfg(basilisk_check)]
    fn check_id(&self) -> u64 {
        if self.check_id.get() == 0 {
            self.check_id.set(crate::sync::check::new_arena_id());
        }
        self.check_id.get()
    }

    /// The sibling pool for `Arc`-shared output index columns. It lives
    /// inside the arena so every operator that already threads a
    /// `&MaskArena` reaches it without new plumbing, and so
    /// [`Self::stats`] covers all four buffer shapes at once.
    pub fn columns(&self) -> &ColumnPool {
        &self.columns
    }

    /// The pool for typed *value* buffers (gathered key columns,
    /// projected outputs) — see [`ValuePool`].
    pub fn values(&self) -> &ValuePool {
        &self.values
    }

    /// Check out a [`SlotTable`] ready for a probing session over
    /// `entries` distinct values. Pooled tables keep their slot-array
    /// capacity, so repeated unions over similar cardinalities pay a
    /// generation bump instead of an O(capacity) clear.
    pub fn slot_table(&self, entries: usize) -> SlotTable {
        self.live.set(self.live.get() + 1);
        let mut table = match self.slot_tables.borrow_mut().pop() {
            Some(t) => {
                self.slot_reused.set(self.slot_reused.get() + 1);
                t
            }
            None => {
                self.slot_fresh.set(self.slot_fresh.get() + 1);
                SlotTable::new()
            }
        };
        table.begin(entries);
        table
    }

    /// Return a slot table to the pool (its capacity stays warm).
    pub fn recycle_slot_table(&self, table: SlotTable) {
        self.live.set(self.live.get().saturating_sub(1));
        let mut pool = self.slot_tables.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(table);
        }
    }

    /// Check out an all-`False` mask of `len` lanes.
    pub fn mask(&self, len: usize) -> TruthMask {
        self.live.set(self.live.get() + 1);
        let words = len.div_ceil(WORD_BITS);
        let pooled = take_fitting(&mut self.masks.borrow_mut(), words, |m| m.words_capacity());
        let m = match pooled {
            Some(mut m) => {
                self.mask_reused.set(self.mask_reused.get() + 1);
                m.reset(len);
                m
            }
            None => {
                self.mask_fresh.set(self.mask_fresh.get() + 1);
                TruthMask::new_false(len)
            }
        };
        #[cfg(basilisk_check)]
        crate::sync::check::buffer_produced(m.check_key(), self.check_id());
        m
    }

    /// Check out an all-zeros bitmap of `len` bits.
    pub fn bitmap(&self, len: usize) -> Bitmap {
        self.live.set(self.live.get() + 1);
        let words = len.div_ceil(WORD_BITS);
        let pooled = take_fitting(&mut self.bitmaps.borrow_mut(), words, |b| {
            b.words_capacity()
        });
        let b = match pooled {
            Some(mut b) => {
                self.bitmap_reused.set(self.bitmap_reused.get() + 1);
                b.reset(len);
                b
            }
            None => {
                self.bitmap_fresh.set(self.bitmap_fresh.get() + 1);
                Bitmap::new(len)
            }
        };
        #[cfg(basilisk_check)]
        crate::sync::check::buffer_produced(b.check_key(), self.check_id());
        b
    }

    /// Check out an all-ones bitmap of `len` bits.
    pub fn bitmap_ones(&self, len: usize) -> Bitmap {
        let mut b = self.bitmap(len);
        b.fill_ones();
        b
    }

    /// Check out a copy of `src`.
    pub fn bitmap_copy(&self, src: &Bitmap) -> Bitmap {
        let mut b = self.bitmap(src.len());
        b.copy_from(src);
        b
    }

    /// Check out an empty `u32` index buffer (its capacity is whatever its
    /// previous life grew it to, so steady-state pushes never reallocate).
    pub fn indices(&self) -> Vec<u32> {
        self.live.set(self.live.get() + 1);
        match self.indices.borrow_mut().pop() {
            Some(mut v) => {
                self.index_reused.set(self.index_reused.get() + 1);
                v.clear();
                v
            }
            None => {
                self.index_fresh.set(self.index_fresh.get() + 1);
                Vec::new()
            }
        }
    }

    /// Return a mask to the pool.
    pub fn recycle_mask(&self, mask: TruthMask) {
        #[cfg(basilisk_check)]
        crate::sync::check::buffer_recycled(mask.check_key(), self.check_id(), "mask");
        self.live.set(self.live.get().saturating_sub(1));
        park(&mut self.masks.borrow_mut(), mask, |m| m.words_capacity());
    }

    /// Return a bitmap to the pool.
    pub fn recycle_bitmap(&self, bitmap: Bitmap) {
        #[cfg(basilisk_check)]
        crate::sync::check::buffer_recycled(bitmap.check_key(), self.check_id(), "bitmap");
        self.live.set(self.live.get().saturating_sub(1));
        park(&mut self.bitmaps.borrow_mut(), bitmap, |b| {
            b.words_capacity()
        });
    }

    /// Return an index buffer to the pool.
    pub fn recycle_indices(&self, indices: Vec<u32>) {
        self.live.set(self.live.get().saturating_sub(1));
        let mut pool = self.indices.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(indices);
        }
    }

    /// Record one atom-morsel whose whole mask range was filled from a
    /// zone map without touching column data. The evaluator calls this on
    /// the arena it is already holding, so the counter inherits the
    /// arena's no-locking concurrency model (per-worker, merged by the
    /// same collectors that aggregate [`ArenaStats`]).
    pub fn note_zone_skip(&self) {
        self.zone_skipped.set(self.zone_skipped.get() + 1);
    }

    /// Record one atom-morsel that evaluated data (encoded kernel or
    /// decoded fallback) because its zone map could not decide it.
    pub fn note_zone_scan(&self) {
        self.zone_scanned.set(self.zone_scanned.get() + 1);
    }

    /// Checkout counters since construction or [`Self::reset_stats`].
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            masks: PoolStats {
                fresh: self.mask_fresh.get(),
                reused: self.mask_reused.get(),
            },
            bitmaps: PoolStats {
                fresh: self.bitmap_fresh.get(),
                reused: self.bitmap_reused.get(),
            },
            indices: PoolStats {
                fresh: self.index_fresh.get(),
                reused: self.index_reused.get(),
            },
            columns: self.columns.stats(),
            values: self.values.stats(),
            slot_tables: PoolStats {
                fresh: self.slot_fresh.get(),
                reused: self.slot_reused.get(),
            },
            zone_skipped_morsels: self.zone_skipped.get(),
            zone_scanned_morsels: self.zone_scanned.get(),
        }
    }

    /// Zero the checkout counters (the pools themselves stay warm) —
    /// called between executions to measure steady-state behaviour.
    pub fn reset_stats(&self) {
        self.mask_fresh.set(0);
        self.mask_reused.set(0);
        self.bitmap_fresh.set(0);
        self.bitmap_reused.set(0);
        self.index_fresh.set(0);
        self.index_reused.set(0);
        self.slot_fresh.set(0);
        self.slot_reused.set(0);
        self.zone_skipped.set(0);
        self.zone_scanned.set(0);
        self.columns.reset_stats();
        self.values.reset_stats();
    }

    /// Number of buffers currently parked in the pools.
    pub fn pooled(&self) -> usize {
        self.masks.borrow().len()
            + self.bitmaps.borrow().len()
            + self.indices.borrow().len()
            + self.slot_tables.borrow().len()
            + self.columns.pooled()
            + self.values.pooled()
    }

    /// Buffers checked out and not yet recycled (or, for result columns,
    /// deferred) across all four shapes. Returns to zero once an
    /// execution fully unwinds — including on error paths, which the
    /// leak tests pin.
    pub fn outstanding(&self) -> usize {
        self.live.get() + self.columns.outstanding() + self.values.outstanding()
    }
}

/// Park a recycled buffer. Below [`MAX_POOLED`] it joins the pool; a full
/// pool keeps the larger of the incoming buffer and its smallest one, so
/// the big buffers a pipeline re-checks out every run survive a pool
/// crowded with small ones instead of being dropped and re-allocated.
fn park<T>(pool: &mut Vec<T>, buf: T, capacity: impl Fn(&T) -> usize) {
    if pool.len() < MAX_POOLED {
        pool.push(buf);
        return;
    }
    let smallest = pool
        .iter()
        .enumerate()
        .min_by_key(|(_, b)| capacity(b))
        .map(|(i, b)| (i, capacity(b)));
    if let Some((i, cap)) = smallest {
        if cap < capacity(&buf) {
            pool[i] = buf;
        }
    }
}

/// Pop the **best-fitting** pooled buffer: the smallest capacity ≥
/// `words` (most recently recycled on ties). First-fit would let a small
/// checkout steal a big buffer and force the next big checkout to
/// allocate — best-fit keeps mixed-length pipelines (e.g. filter on a 4k
/// table feeding a join over 6k tuples) allocation-free from the second
/// run on.
fn take_fitting<T>(pool: &mut Vec<T>, words: usize, capacity: impl Fn(&T) -> usize) -> Option<T> {
    let mut best: Option<(usize, usize)> = None; // (index, capacity)
    for (i, item) in pool.iter().enumerate().rev() {
        let cap = capacity(item);
        if cap >= words && best.is_none_or(|(_, c)| cap < c) {
            best = Some((i, cap));
        }
    }
    best.map(|(i, _)| pool.swap_remove(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Truth;

    #[test]
    fn checkout_recycle_reuses_buffers() {
        let arena = MaskArena::new();
        let m = arena.mask(100);
        let b = arena.bitmap(100);
        assert_eq!(arena.stats().fresh(), 2);
        arena.recycle_mask(m);
        arena.recycle_bitmap(b);
        arena.reset_stats();

        let m = arena.mask(100);
        let b = arena.bitmap(64); // smaller fits too
        assert_eq!(arena.stats().fresh(), 0);
        assert_eq!(arena.stats().reused(), 2);
        assert_eq!(m.len(), 100);
        assert_eq!(b.len(), 64);
        assert_eq!(m.count_false(), 100, "recycled mask comes back all-false");
        assert!(b.is_zero(), "recycled bitmap comes back all-zeros");
    }

    #[test]
    fn dirty_buffers_reset_on_checkout() {
        let arena = MaskArena::new();
        let mut m = arena.mask(70);
        m.set(69, Truth::True);
        m.set(3, Truth::Unknown);
        arena.recycle_mask(m);
        let mut b = arena.bitmap_ones(70);
        assert_eq!(b.count_ones(), 70);
        b.set(0);
        arena.recycle_bitmap(b);

        let m = arena.mask(65);
        assert_eq!(m.count_false(), 65);
        let b = arena.bitmap(65);
        assert!(b.is_zero());
    }

    #[test]
    fn undersized_pool_entries_are_skipped() {
        let arena = MaskArena::new();
        // Pooled buffers are this arena's own checkouts: a foreign buffer
        // could reuse the address of one another test leaked, which the
        // `basilisk_check` ownership registry would flag.
        let small = arena.bitmap(10);
        arena.recycle_bitmap(small);
        arena.reset_stats();
        // 10 bits = 1 word; 200 bits needs 4 → miss.
        let big = arena.bitmap(200);
        assert_eq!(arena.stats().bitmaps.fresh, 1);
        arena.recycle_bitmap(big);
        // Now a 130-bit checkout fits in the 200-bit buffer.
        let mid = arena.bitmap(130);
        assert_eq!(arena.stats().bitmaps.reused, 1);
        assert_eq!(mid.len(), 130);
        // The small one is still pooled and serves small requests.
        let small = arena.bitmap(8);
        assert_eq!(arena.stats().bitmaps.reused, 2);
        assert_eq!(small.len(), 8);
    }

    #[test]
    fn indices_keep_capacity() {
        let arena = MaskArena::new();
        let mut v = arena.indices();
        v.extend(0..1000);
        let cap = v.capacity();
        arena.recycle_indices(v);
        arena.reset_stats();
        let v = arena.indices();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap, "capacity survives the pool round-trip");
        assert_eq!(arena.stats().indices.reused, 1);
    }

    #[test]
    fn copy_and_ones_checkouts() {
        let arena = MaskArena::new();
        let src = Bitmap::from_indices(130, [0usize, 64, 129]);
        let c = arena.bitmap_copy(&src);
        assert_eq!(c, src);
        let ones = arena.bitmap_ones(70);
        assert_eq!(ones.count_ones(), 70);
    }

    /// A pool full of small buffers still keeps a large one: the next
    /// large checkout reuses it instead of allocating. (Every buffer here
    /// is this arena's own checkout, as the ownership checks require.)
    #[test]
    fn full_pool_keeps_large_buffers() {
        let arena = MaskArena::new();
        let (big_b, big_m) = (arena.bitmap(1 << 20), arena.mask(1 << 20));
        let small_b: Vec<Bitmap> = (0..=MAX_POOLED).map(|_| arena.bitmap(64)).collect();
        let small_m: Vec<TruthMask> = (0..MAX_POOLED).map(|_| arena.mask(64)).collect();
        let mut small_b = small_b.into_iter();
        let spare = small_b.next().expect("one spare small bitmap");
        small_b.for_each(|b| arena.recycle_bitmap(b));
        small_m.into_iter().for_each(|m| arena.recycle_mask(m));
        assert_eq!(arena.pooled(), 2 * MAX_POOLED, "both pools are full");

        arena.recycle_bitmap(big_b);
        arena.recycle_mask(big_m);
        assert_eq!(arena.pooled(), 2 * MAX_POOLED, "the cap still holds");
        arena.reset_stats();
        let (b, m) = (arena.bitmap(1 << 20), arena.mask(1 << 20));
        assert_eq!(arena.stats().fresh(), 0, "large buffers were kept");
        arena.recycle_bitmap(b);
        arena.recycle_mask(m);

        // Full again: a buffer no larger than the smallest pooled one is
        // dropped, and the large ones stay.
        arena.recycle_bitmap(spare);
        assert_eq!(arena.pooled(), 2 * MAX_POOLED);
        arena.reset_stats();
        let b = arena.bitmap(1 << 20);
        assert_eq!(arena.stats().bitmaps.fresh, 0);
        arena.recycle_bitmap(b);
        assert_eq!(arena.outstanding(), 0);
    }

    #[test]
    fn pool_respects_cap() {
        let arena = MaskArena::new();
        for _ in 0..(MAX_POOLED + 10) {
            arena.recycle_indices(Vec::new());
        }
        assert!(arena.pooled() <= MAX_POOLED);
    }
}
