//! Vectorized three-valued evaluation of predicate-tree nodes.
//!
//! Evaluation is columnar and runs at **word granularity**: an atom is
//! evaluated over the rows selected by a [`Bitmap`] into a [`TruthMask`]
//! (two bitmaps: true lanes and unknown lanes), and connectives combine
//! child masks with whole-word bitwise Kleene identities — 64 lanes per
//! instruction. This is the execution path every engine operator uses
//! ([`eval_node_mask`] / [`eval_atom_mask`]).
//!
//! The mask path is **allocation-free in steady state**: every mask it
//! touches is checked out of the caller's [`MaskArena`], evaluated into in
//! place, and recycled as soon as a connective has folded it into its
//! accumulator. The returned mask is itself a pooled buffer — callers hand
//! it back with [`MaskArena::recycle_mask`] when done.
//!
//! Int/Float comparison atoms additionally run **branchless**: instead of
//! a per-lane `if valid { cmp } else { Unknown }` branch, the kernel packs
//! 64 comparison results into a word (`cmp → bit`), ANDs in the validity
//! word, and stores both planes with one [`TruthMask::set_word`] call —
//! see the `eval_cmp_mask` kernels.
//!
//! The original per-element path ([`eval_node`] / [`eval_atom`], producing
//! a `Vec<Truth>`) is kept as the scalar reference implementation: the
//! property suite checks the two agree lane-for-lane, and the `eval`
//! criterion bench records the speedup of the mask path over it.
//!
//! Engines provide data through [`ColumnProvider`]: the values of any
//! referenced column, aligned with the rows being evaluated — which is how
//! both the base-table path (bitmap reads) and the intermediate path
//! (index-tuple gathers, §2.5.1) plug in.
//!
//! An evaluation can also explain itself: handed an [`EvalTally`], the
//! mask path records per atom what it actually did — lanes reached, their
//! outcomes, time, zone-map verdicts — as it runs. There is no second
//! evaluator: atoms a fold saturated past, and morsels a zone map
//! decided, are reported exactly as the engine handled them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use basilisk_storage::{Column, ColumnData, EncCmpOp, EncodedColumn};
use basilisk_types::{
    ArenaStats, BasiliskError, Bitmap, MaskArena, Morsel, Result, Truth, TruthMask, Value,
};

use crate::atom::{Atom, CmpOp, ColumnRef};
use crate::like::like_match;
use crate::tree::{ExprId, NodeKind, PredicateTree};

/// Supplies column values aligned with the rows being evaluated.
pub trait ColumnProvider {
    /// Values of `col` for each row under evaluation, in row order.
    fn fetch(&self, col: &ColumnRef) -> Result<Arc<Column>>;

    /// Like [`Self::fetch`], but the caller promises to read only the
    /// positions set in `sel`. Implementations may return a column whose
    /// unselected lanes are arbitrary (but marked invalid), letting them
    /// gather — and, for disk-backed tables, read — only the selected
    /// rows. The default ignores the hint.
    fn fetch_at(&self, col: &ColumnRef, _sel: &Bitmap) -> Result<Arc<Column>> {
        self.fetch(col)
    }

    /// The encoded form of `col`, when the provider holds one whose row
    /// `i` is evaluation row `i` (zone maps are positional, so only
    /// identity-aligned relations may answer). `None` — the default —
    /// routes the atom through the decoded path.
    fn fetch_encoded(&self, _col: &ColumnRef) -> Option<Arc<EncodedColumn>> {
        None
    }

    /// Number of rows under evaluation.
    fn num_rows(&self) -> usize;
}

/// A trivial provider over pre-materialized columns (tests, samples).
pub struct MapProvider {
    columns: HashMap<ColumnRef, Arc<Column>>,
    encoded: HashMap<ColumnRef, Arc<EncodedColumn>>,
    rows: usize,
}

impl MapProvider {
    pub fn new(rows: usize) -> Self {
        MapProvider {
            columns: HashMap::new(),
            encoded: HashMap::new(),
            rows,
        }
    }

    pub fn with(mut self, col: ColumnRef, data: Column) -> Self {
        assert_eq!(data.len(), self.rows);
        self.columns.insert(col, Arc::new(data));
        self
    }

    /// Register `data` both encoded and decoded: the encoded form serves
    /// the zone-map/kernel path, the decoded one any fallback.
    pub fn with_encoded(mut self, col: ColumnRef, data: Column) -> Self {
        assert_eq!(data.len(), self.rows);
        self.encoded
            .insert(col.clone(), Arc::new(EncodedColumn::encode(&data)));
        self.columns.insert(col, Arc::new(data));
        self
    }
}

impl ColumnProvider for MapProvider {
    fn fetch(&self, col: &ColumnRef) -> Result<Arc<Column>> {
        self.columns
            .get(col)
            .cloned()
            .ok_or_else(|| BasiliskError::Schema(format!("no column {col} in provider")))
    }

    fn fetch_encoded(&self, col: &ColumnRef) -> Option<Arc<EncodedColumn>> {
        self.encoded.get(col).cloned()
    }

    fn num_rows(&self) -> usize {
        self.rows
    }
}

/// Evaluate any predicate-tree node over the provider's rows.
pub fn eval_node(
    tree: &PredicateTree,
    id: ExprId,
    provider: &impl ColumnProvider,
) -> Result<Vec<Truth>> {
    match tree.kind(id) {
        NodeKind::Atom(atom) => {
            let column = provider.fetch(atom.column())?;
            eval_atom(atom, &column)
        }
        NodeKind::Not(c) => {
            let mut v = eval_node(tree, *c, provider)?;
            for t in &mut v {
                *t = t.not();
            }
            Ok(v)
        }
        NodeKind::And(cs) => {
            let mut acc = eval_node(tree, cs[0], provider)?;
            for &c in &cs[1..] {
                let v = eval_node(tree, c, provider)?;
                for (a, b) in acc.iter_mut().zip(v) {
                    *a = a.and(b);
                }
            }
            Ok(acc)
        }
        NodeKind::Or(cs) => {
            let mut acc = eval_node(tree, cs[0], provider)?;
            for &c in &cs[1..] {
                let v = eval_node(tree, c, provider)?;
                for (a, b) in acc.iter_mut().zip(v) {
                    *a = a.or(b);
                }
            }
            Ok(acc)
        }
    }
}

/// Evaluate any predicate-tree node into a [`TruthMask`], touching only
/// the rows set in `sel`; unselected lanes come out `False`.
///
/// Atoms are evaluated at selected positions only; AND/OR combine child
/// masks as whole-word bitmap operations; NOT flips word-wise and is then
/// re-restricted to `sel` (lanes outside the selection are don't-cares and
/// must not leak in as `True`).
///
/// Every mask — the returned one included — is checked out of `arena`;
/// child masks are recycled as soon as a connective folds them in, and the
/// caller recycles the result, so repeated evaluation allocates nothing
/// once the pool is warm.
pub fn eval_node_mask(
    tree: &PredicateTree,
    id: ExprId,
    provider: &impl ColumnProvider,
    sel: &Bitmap,
    arena: &MaskArena,
) -> Result<TruthMask> {
    let all = Morsel::full(sel.len());
    eval_node_mask_morsel(tree, id, provider, sel, arena, all, None)
}

/// Morsel-granular [`eval_node_mask`]: evaluate only the rows of
/// `morsel`, producing a **morsel-length** mask whose lane `j` is row
/// `morsel.start() + j`. This is the unit of work the parallel executor
/// hands to a worker: `sel` and the provider's columns span the whole
/// relation (shared, read-only), every mask is checked out of the
/// worker's private `arena`, and because morsels are word-aligned the
/// caller merges results with [`TruthMask::stitch`] — plain word
/// concatenation over disjoint ranges.
///
/// The serial path *is* this function over [`Morsel::full`], so the two
/// agree bit-for-bit by construction. With `tally: Some`, every atom
/// this morsel reaches adds what it did to the tally (see
/// [`EvalTally`]); `None` costs one `Option` check per atom.
pub fn eval_node_mask_morsel(
    tree: &PredicateTree,
    id: ExprId,
    provider: &impl ColumnProvider,
    sel: &Bitmap,
    arena: &MaskArena,
    morsel: Morsel,
    tally: Option<&EvalTally>,
) -> Result<TruthMask> {
    let sel_words = &sel.words()[morsel.word_range()];
    let eval = |c| eval_node_mask_morsel(tree, c, provider, sel, arena, morsel, tally);
    match tree.kind(id) {
        NodeKind::Atom(atom) => {
            let traced = tally.map(|tally| (tally, Instant::now(), arena.stats()));
            let enc = provider.fetch_encoded(atom.column());
            let mask = match enc.and_then(|e| eval_atom_encoded(atom, &e, sel, arena, morsel)) {
                Some(mask) => mask,
                None => {
                    let column = provider.fetch_at(atom.column(), sel)?;
                    eval_atom_mask_morsel(atom, &column, sel, arena, morsel)?
                }
            };
            if let Some((tally, start, before)) = traced {
                tally.add(id, &mask, sel_words, start.elapsed(), before, arena.stats());
            }
            Ok(mask)
        }
        NodeKind::Not(c) => {
            let mut m = eval(*c)?;
            m.negate();
            m.restrict_to_words(sel_words);
            Ok(m)
        }
        NodeKind::And(cs) => fold(
            cs,
            eval,
            arena,
            sel_words,
            TruthMask::and_with,
            and_saturated,
        ),
        NodeKind::Or(cs) => fold(cs, eval, arena, sel_words, TruthMask::or_with, or_saturated),
    }
}

/// What one evaluation did, per atom, filled in while it runs: pass it
/// to [`eval_node_mask_morsel`] and each atom adds, for every morsel the
/// evaluation actually reaches it on, the morsel's selected lanes, the
/// `True` and `Unknown` lanes of its mask, the time it took (column fetch
/// included) and whether a zone map decided the morsel or it was
/// scanned. Lanes a fold saturated past are never added.
///
/// One slot per node of the tree, relaxed atomics: the morsel tasks of a
/// fanned-out evaluation all add into one tally through `&`, and it is
/// read once their region has retired, which orders every add first.
pub struct EvalTally {
    slots: Vec<[AtomicU64; 6]>,
}

/// One atom's share of an [`EvalTally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomCounts {
    pub lanes_evaluated: u64,
    pub true_count: u64,
    pub unknown_count: u64,
    /// Summed over morsels — on several workers, more than wall time.
    pub nanos: u64,
    /// Atom-morsels a zone map decided, and atom-morsels it scanned.
    pub zone_skips: u64,
    pub zone_scans: u64,
}

impl EvalTally {
    /// An empty tally for evaluations over `tree`.
    pub fn new(tree: &PredicateTree) -> EvalTally {
        EvalTally {
            slots: (0..tree.len()).map(|_| Default::default()).collect(),
        }
    }

    /// Add one atom-morsel; `before`/`after` bracket it on the arena
    /// that evaluated it, which counts its zone-map verdict.
    fn add(
        &self,
        id: ExprId,
        mask: &TruthMask,
        sel_words: &[u64],
        elapsed: Duration,
        before: ArenaStats,
        after: ArenaStats,
    ) {
        let lanes: u32 = sel_words.iter().map(|w| w.count_ones()).sum();
        for (counter, v) in self.slots[id.index()].iter().zip([
            u64::from(lanes),
            mask.count_true() as u64,
            mask.count_unknown() as u64,
            elapsed.as_nanos() as u64,
            after.zone_skipped_morsels - before.zone_skipped_morsels,
            after.zone_scanned_morsels - before.zone_scanned_morsels,
        ]) {
            counter.fetch_add(v, Relaxed);
        }
    }

    /// What atom `id` has added so far.
    pub fn atom(&self, id: ExprId) -> AtomCounts {
        let [lanes_evaluated, true_count, unknown_count, nanos, zone_skips, zone_scans] =
            self.slots[id.index()].each_ref().map(|c| c.load(Relaxed));
        AtomCounts {
            lanes_evaluated,
            true_count,
            unknown_count,
            nanos,
            zone_skips,
            zone_scans,
        }
    }
}

/// Every selected lane already `True`: T ∨ x ≡ T for every Kleene x, so
/// an OR fold over these lanes cannot change — later arms are dead.
fn or_saturated(acc: &TruthMask, sel_words: &[u64]) -> bool {
    let tru = acc.trues().words();
    sel_words.iter().enumerate().all(|(w, &s)| s & !tru[w] == 0)
}

/// Every selected lane already `False`: F ∧ x ≡ F for every Kleene x, so
/// an AND fold over these lanes cannot change — later arms are dead.
fn and_saturated(acc: &TruthMask, sel_words: &[u64]) -> bool {
    let (tru, unk) = (acc.trues().words(), acc.unknowns().words());
    sel_words
        .iter()
        .enumerate()
        .all(|(w, &s)| s & (tru[w] | unk[w]) == 0)
}

/// Fold a connective's children into the first child's mask, recycling
/// each child mask as soon as it is combined — and the accumulator too on
/// an error path, so failed evaluations never shrink the pool.
///
/// Between arms the fold checks `saturated`: once the accumulator has
/// absorbed the morsel (every selected lane at the connective's fixed
/// point — all-true for OR, all-false for AND), the remaining children
/// cannot change the result and are skipped. Combined with zone-map
/// pruning this is what turns a proven morsel into zero further work for
/// the rest of a disjunction's arms.
fn fold(
    children: &[ExprId],
    eval: impl Fn(ExprId) -> Result<TruthMask>,
    arena: &MaskArena,
    sel_words: &[u64],
    combine: impl Fn(&mut TruthMask, &TruthMask),
    saturated: impl Fn(&TruthMask, &[u64]) -> bool,
) -> Result<TruthMask> {
    let mut acc = eval(children[0])?;
    for &c in &children[1..] {
        if saturated(&acc, sel_words) {
            break;
        }
        match eval(c) {
            Ok(m) => {
                combine(&mut acc, &m);
                arena.recycle_mask(m);
            }
            Err(e) => {
                arena.recycle_mask(acc);
                return Err(e);
            }
        }
    }
    Ok(acc)
}

/// Fill the morsel-length `out` by evaluating `lane` (which receives
/// **relation-global** row indices) at the positions of `sel` that fall
/// inside `morsel`.
fn fill_mask_lanes(
    out: &mut TruthMask,
    sel: &Bitmap,
    morsel: Morsel,
    mut lane: impl FnMut(usize) -> Truth,
) {
    let start = morsel.start();
    out.fill_lanes_at_words(&sel.words()[morsel.word_range()], |local| {
        lane(start + local)
    });
}

/// Evaluate a base predicate over a column into a pooled [`TruthMask`],
/// touching only the rows set in `sel`.
pub fn eval_atom_mask(
    atom: &Atom,
    column: &Column,
    sel: &Bitmap,
    arena: &MaskArena,
) -> Result<TruthMask> {
    eval_atom_mask_morsel(atom, column, sel, arena, Morsel::full(sel.len()))
}

/// Morsel-granular [`eval_atom_mask`]: `column` and `sel` span the whole
/// relation, the returned mask covers only `morsel`'s rows (see
/// [`eval_node_mask_morsel`]).
pub fn eval_atom_mask_morsel(
    atom: &Atom,
    column: &Column,
    sel: &Bitmap,
    arena: &MaskArena,
    morsel: Morsel,
) -> Result<TruthMask> {
    let n = column.len();
    assert_eq!(sel.len(), n, "selection length must match column length");
    assert!(morsel.end() <= n, "morsel beyond column length");
    let mut out = arena.mask(morsel.len());
    let filled = match atom {
        Atom::IsNull { .. } => {
            // NULL-ness is always definite.
            fill_mask_lanes(&mut out, sel, morsel, |i| Truth::from(!column.is_valid(i)));
            Ok(())
        }
        Atom::Cmp { op, value, col } => {
            eval_cmp_mask(*op, value, column, sel, &mut out, morsel).map_err(|e| annotate(e, col))
        }
        Atom::Like {
            pattern,
            case_insensitive,
            col,
        } => match column.as_strs() {
            None => Err(BasiliskError::Type(format!(
                "LIKE on non-string column {col}"
            ))),
            Some(strs) => {
                fill_mask_lanes(&mut out, sel, morsel, |i| {
                    if !column.is_valid(i) {
                        Truth::Unknown
                    } else {
                        Truth::from(like_match(strs.get(i), pattern, *case_insensitive))
                    }
                });
                Ok(())
            }
        },
        Atom::InList { values, .. } => {
            let list_has_null = values.iter().any(Value::is_null);
            fill_mask_lanes(&mut out, sel, morsel, |i| {
                if !column.is_valid(i) {
                    return Truth::Unknown;
                }
                let v = column.value(i);
                if values.iter().any(|w| v.sql_eq(w) == Some(true)) {
                    Truth::True
                } else if list_has_null {
                    // x IN (…, NULL) is UNKNOWN when no non-null element
                    // matches (SQL standard).
                    Truth::Unknown
                } else {
                    Truth::False
                }
            });
            Ok(())
        }
    };
    match filled {
        Ok(()) => Ok(out),
        Err(e) => {
            arena.recycle_mask(out);
            Err(e)
        }
    }
}

/// Evaluate a base predicate against an [`EncodedColumn`] without
/// decoding: zone maps first (a morsel proven all-true / all-false /
/// all-null is filled word-at-a-time from validity and selection words
/// alone), then the encoded kernels (FOR deltas and dictionary codes
/// compared in code space).
///
/// Returns `None` when the encoded path cannot answer — a type pairing
/// with no kernel, a misaligned relation — and the caller falls through
/// to the decoded path, which also owns error reporting. By construction
/// every lane agrees bit-for-bit with [`eval_atom_mask_morsel`] over the
/// decoded column.
pub fn eval_atom_encoded(
    atom: &Atom,
    enc: &EncodedColumn,
    sel: &Bitmap,
    arena: &MaskArena,
    morsel: Morsel,
) -> Option<TruthMask> {
    if sel.len() != enc.len() || morsel.end() > enc.len() {
        return None;
    }
    let mut out = arena.mask(morsel.len());
    match atom {
        Atom::IsNull { .. } => {
            match enc.prune_is_null(morsel) {
                Some(all_null) => {
                    arena.note_zone_skip();
                    if all_null {
                        // True on every selected lane (NULL-ness is
                        // definite); no nulls leaves the checkout's
                        // all-false as-is.
                        let sel_words = &sel.words()[morsel.word_range()];
                        for (w, &s) in sel_words.iter().enumerate() {
                            if s != 0 {
                                out.set_word(w, s, 0);
                            }
                        }
                    }
                }
                None => {
                    arena.note_zone_scan();
                    enc.fill_is_null(sel, morsel, &mut out);
                }
            }
            Some(out)
        }
        Atom::Cmp { op, value, .. } => {
            if value.is_null() {
                // x OP NULL is Unknown on every selected lane; not a
                // zone-map decision, so no counter.
                enc.fill_decided(Truth::Unknown, sel, morsel, &mut out);
                return Some(out);
            }
            let op = enc_cmp_op(*op);
            if let Some(decision) = enc.prune_cmp(op, value, morsel) {
                arena.note_zone_skip();
                enc.fill_decided(decision, sel, morsel, &mut out);
                return Some(out);
            }
            if enc.fill_cmp(op, value, sel, morsel, &mut out) {
                arena.note_zone_scan();
                Some(out)
            } else {
                arena.recycle_mask(out);
                None
            }
        }
        Atom::Like {
            pattern,
            case_insensitive,
            ..
        } => {
            // Dictionary-at-a-time: the pattern runs once per distinct
            // string, lanes just look the verdict up by code.
            let ok = enc.fill_str_map(sel, morsel, &mut out, |s| {
                Truth::from(like_match(s, pattern, *case_insensitive))
            });
            if ok {
                arena.note_zone_scan();
                Some(out)
            } else {
                arena.recycle_mask(out);
                None
            }
        }
        Atom::InList { values, .. } => {
            let list_has_null = values.iter().any(Value::is_null);
            let ok = enc.fill_str_map(sel, morsel, &mut out, |s| {
                // String-vs-non-string never equates under sql_eq, so
                // only Str list elements can hit.
                let hit = values
                    .iter()
                    .any(|w| matches!(w, Value::Str(x) if x.as_str() == s));
                if hit {
                    Truth::True
                } else if list_has_null {
                    Truth::Unknown
                } else {
                    Truth::False
                }
            });
            if ok {
                arena.note_zone_scan();
                Some(out)
            } else {
                arena.recycle_mask(out);
                None
            }
        }
    }
}

fn enc_cmp_op(op: CmpOp) -> EncCmpOp {
    match op {
        CmpOp::Eq => EncCmpOp::Eq,
        CmpOp::Ne => EncCmpOp::Ne,
        CmpOp::Lt => EncCmpOp::Lt,
        CmpOp::Le => EncCmpOp::Le,
        CmpOp::Gt => EncCmpOp::Gt,
        CmpOp::Ge => EncCmpOp::Ge,
    }
}

/// Branchless compare-into-word kernel for numeric columns.
///
/// For each 64-lane word with at least one selected lane, the comparison
/// runs over *every* lane of the word with no validity branch — `test`
/// compiles to a flag-setting compare (`setcc`, and with luck a SIMD
/// compare), each result lands in its bit — then one AND with the validity
/// word and the selection word routes invalid lanes to `Unknown` and
/// unselected lanes to `False`:
///
/// ```text
/// tru = cmp & valid & sel        unk = !valid & sel
/// ```
///
/// Lanes outside the selection may hold arbitrary (but in-bounds) data —
/// e.g. the scatter-aligned columns of `fetch_at` — which is harmless:
/// their comparison bits are masked off by `sel`.
fn fill_cmp_words<T: Copy>(
    out: &mut TruthMask,
    data: &[T],
    validity: Option<&Bitmap>,
    sel: &Bitmap,
    morsel: Morsel,
    test: impl Fn(T) -> bool,
) {
    // Word-aligned morsels make the restriction free: slice the data and
    // the selection/validity word arrays to the morsel's range and run
    // the same kernel with morsel-local word indices (the serial path is
    // the full-relation morsel).
    let wr = morsel.word_range();
    let data = &data[morsel.start()..morsel.end()];
    let n = data.len();
    let sel_words = &sel.words()[wr.clone()];
    let valid_words = validity.map(|v| &v.words()[wr]);
    for (w, &sel_word) in sel_words.iter().enumerate() {
        if sel_word == 0 {
            continue; // `out` is all-false from checkout
        }
        let base = w * 64;
        let top = 64.min(n - base);
        let lanes = &data[base..base + top];
        let mut cmp = 0u64;
        for (b, &x) in lanes.iter().enumerate() {
            cmp |= (test(x) as u64) << b;
        }
        let valid = valid_words.map_or(u64::MAX, |v| v[w]);
        out.set_word(w, cmp & valid & sel_word, !valid & sel_word);
    }
}

fn eval_cmp_mask(
    op: CmpOp,
    value: &Value,
    column: &Column,
    sel: &Bitmap,
    out: &mut TruthMask,
    morsel: Morsel,
) -> Result<()> {
    // Branchless word-granular kernels for numeric columns: dispatch on
    // the operator once, then compare straight into bit positions. The
    // plain `<`/`<=`/… operators reproduce SQL comparison semantics for
    // both types (for floats, IEEE makes every NaN comparison false
    // except `!=` — exactly `cmp_partial`).
    macro_rules! kernel {
        ($data:expr, $lit:expr, $conv:expr) => {{
            let data = $data;
            let lit = $lit;
            let conv = $conv;
            let valid = column.validity();
            match op {
                CmpOp::Eq => fill_cmp_words(out, data, valid, sel, morsel, |x| conv(x) == lit),
                CmpOp::Ne => fill_cmp_words(out, data, valid, sel, morsel, |x| conv(x) != lit),
                CmpOp::Lt => fill_cmp_words(out, data, valid, sel, morsel, |x| conv(x) < lit),
                CmpOp::Le => fill_cmp_words(out, data, valid, sel, morsel, |x| conv(x) <= lit),
                CmpOp::Gt => fill_cmp_words(out, data, valid, sel, morsel, |x| conv(x) > lit),
                CmpOp::Ge => fill_cmp_words(out, data, valid, sel, morsel, |x| conv(x) >= lit),
            }
            Ok(())
        }};
    }
    // Per-lane fallback for non-numeric payloads.
    macro_rules! lanes {
        ($data:expr, $test:expr) => {{
            let data = $data;
            let test = $test;
            fill_mask_lanes(out, sel, morsel, |i| {
                if !column.is_valid(i) {
                    Truth::Unknown
                } else {
                    Truth::from(test(&data[i]))
                }
            });
            Ok(())
        }};
    }
    match (column.data(), value) {
        (_, Value::Null) => {
            // Comparing anything to NULL is always unknown (only on the
            // selected lanes; the rest stay false/no-care).
            fill_mask_lanes(out, sel, morsel, |_| Truth::Unknown);
            Ok(())
        }
        (ColumnData::Int(data), Value::Int(lit)) => kernel!(data, *lit, |x: i64| x),
        (ColumnData::Int(data), Value::Float(lit)) => kernel!(data, *lit, |x: i64| x as f64),
        (ColumnData::Float(data), Value::Float(lit)) => kernel!(data, *lit, |x: f64| x),
        (ColumnData::Float(data), Value::Int(lit)) => kernel!(data, *lit as f64, |x: f64| x),
        (ColumnData::Str(data), Value::Str(lit)) => {
            fill_mask_lanes(out, sel, morsel, |i| {
                if !column.is_valid(i) {
                    Truth::Unknown
                } else {
                    Truth::from(cmp_ord(op, data.get(i).cmp(lit.as_str())))
                }
            });
            Ok(())
        }
        (ColumnData::Bool(data), Value::Bool(lit)) => {
            let lit = *lit;
            lanes!(data, move |x: &bool| cmp_ord(op, x.cmp(&lit)))
        }
        (col_data, lit) => Err(BasiliskError::Type(format!(
            "cannot compare {} column with literal {lit}",
            col_data.data_type()
        ))),
    }
}

/// Evaluate a base predicate over a column of values.
pub fn eval_atom(atom: &Atom, column: &Column) -> Result<Vec<Truth>> {
    let n = column.len();
    match atom {
        Atom::IsNull { .. } => {
            // NULL-ness is always definite.
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(Truth::from(!column.is_valid(i)));
            }
            Ok(out)
        }
        Atom::Cmp { op, value, col } => eval_cmp(*op, value, column).map_err(|e| annotate(e, col)),
        Atom::Like {
            pattern,
            case_insensitive,
            col,
        } => {
            let strs = column
                .as_strs()
                .ok_or_else(|| BasiliskError::Type(format!("LIKE on non-string column {col}")))?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if !column.is_valid(i) {
                    out.push(Truth::Unknown);
                } else {
                    out.push(Truth::from(like_match(
                        strs.get(i),
                        pattern,
                        *case_insensitive,
                    )));
                }
            }
            Ok(out)
        }
        Atom::InList { values, .. } => {
            let list_has_null = values.iter().any(Value::is_null);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if !column.is_valid(i) {
                    out.push(Truth::Unknown);
                    continue;
                }
                let v = column.value(i);
                let hit = values.iter().any(|w| v.sql_eq(w) == Some(true));
                out.push(if hit {
                    Truth::True
                } else if list_has_null {
                    // x IN (…, NULL) is UNKNOWN when no non-null element
                    // matches (SQL standard).
                    Truth::Unknown
                } else {
                    Truth::False
                });
            }
            Ok(out)
        }
    }
}

fn annotate(e: BasiliskError, col: &ColumnRef) -> BasiliskError {
    match e {
        BasiliskError::Type(m) => BasiliskError::Type(format!("{m} (column {col})")),
        other => other,
    }
}

fn eval_cmp(op: CmpOp, value: &Value, column: &Column) -> Result<Vec<Truth>> {
    let n = column.len();
    let mut out = Vec::with_capacity(n);
    macro_rules! run {
        ($data:expr, $test:expr) => {{
            for (i, x) in $data.iter().enumerate() {
                if !column.is_valid(i) {
                    out.push(Truth::Unknown);
                } else {
                    out.push(Truth::from($test(x)));
                }
            }
        }};
    }
    match (column.data(), value) {
        (_, Value::Null) => {
            // Comparing anything to NULL is always unknown.
            out.resize(n, Truth::Unknown);
        }
        (ColumnData::Int(data), Value::Int(lit)) => {
            let lit = *lit;
            run!(data, |x: &i64| cmp_ord(op, x.cmp(&lit)));
        }
        (ColumnData::Int(data), Value::Float(lit)) => {
            let lit = *lit;
            run!(data, |x: &i64| cmp_partial(
                op,
                (*x as f64).partial_cmp(&lit)
            ));
        }
        (ColumnData::Float(data), Value::Float(lit)) => {
            let lit = *lit;
            run!(data, |x: &f64| cmp_partial(op, x.partial_cmp(&lit)));
        }
        (ColumnData::Float(data), Value::Int(lit)) => {
            let lit = *lit as f64;
            run!(data, |x: &f64| cmp_partial(op, x.partial_cmp(&lit)));
        }
        (ColumnData::Str(data), Value::Str(lit)) => {
            for i in 0..n {
                if !column.is_valid(i) {
                    out.push(Truth::Unknown);
                } else {
                    out.push(Truth::from(cmp_ord(op, data.get(i).cmp(lit.as_str()))));
                }
            }
        }
        (ColumnData::Bool(data), Value::Bool(lit)) => {
            let lit = *lit;
            run!(data, |x: &bool| cmp_ord(op, x.cmp(&lit)));
        }
        (col_data, lit) => {
            return Err(BasiliskError::Type(format!(
                "cannot compare {} column with literal {lit}",
                col_data.data_type()
            )))
        }
    }
    Ok(out)
}

#[inline]
fn cmp_ord(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

#[inline]
fn cmp_partial(op: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
    // NaN comparisons are false for every operator except `<>`.
    match ord {
        Some(o) => cmp_ord(op, o),
        None => op == CmpOp::Ne,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{and, col, not, or};
    use basilisk_storage::ColumnBuilder;
    use basilisk_types::DataType;

    fn truths(bits: &[i8]) -> Vec<Truth> {
        bits.iter()
            .map(|&b| match b {
                1 => Truth::True,
                0 => Truth::False,
                _ => Truth::Unknown,
            })
            .collect()
    }

    #[test]
    fn cmp_ints() {
        let c = Column::from_ints(vec![1990, 2001, 2008, 1980]);
        let atom = Atom::Cmp {
            col: ColumnRef::new("t", "year"),
            op: CmpOp::Gt,
            value: Value::Int(2000),
        };
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[0, 1, 1, 0]));
    }

    #[test]
    fn cmp_int_column_float_literal() {
        let c = Column::from_ints(vec![1, 2, 3]);
        let atom = Atom::Cmp {
            col: ColumnRef::new("t", "a"),
            op: CmpOp::Lt,
            value: Value::Float(2.5),
        };
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[1, 1, 0]));
    }

    #[test]
    fn cmp_strings_lexicographic() {
        let c = Column::from_strs(&["9.0", "7.5", "6.9", "8.0"]);
        let atom = Atom::Cmp {
            col: ColumnRef::new("mi_idx", "score"),
            op: CmpOp::Gt,
            value: Value::from("7.0"),
        };
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[1, 1, 0, 1]));
    }

    #[test]
    fn nulls_become_unknown() {
        let mut b = ColumnBuilder::new(DataType::Int);
        for v in [Value::Int(5), Value::Null, Value::Int(1)] {
            b.push(v).unwrap();
        }
        let c = b.finish();
        let atom = Atom::Cmp {
            col: ColumnRef::new("t", "a"),
            op: CmpOp::Gt,
            value: Value::Int(3),
        };
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[1, -1, 0]));
    }

    #[test]
    fn null_literal_always_unknown() {
        let c = Column::from_ints(vec![1, 2]);
        let atom = Atom::Cmp {
            col: ColumnRef::new("t", "a"),
            op: CmpOp::Eq,
            value: Value::Null,
        };
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[-1, -1]));
    }

    #[test]
    fn is_null_is_definite() {
        let mut b = ColumnBuilder::new(DataType::Str);
        for v in [Value::from("x"), Value::Null] {
            b.push(v).unwrap();
        }
        let c = b.finish();
        let atom = Atom::IsNull {
            col: ColumnRef::new("t", "s"),
        };
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[0, 1]));
    }

    #[test]
    fn like_and_ilike() {
        let c = Column::from_strs(&["The Godfather", "Pulp Fiction", "GODFATHER II"]);
        let atom = Atom::Like {
            col: ColumnRef::new("t", "title"),
            pattern: "%godfather%".into(),
            case_insensitive: true,
        };
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[1, 0, 1]));
        let atom = Atom::Like {
            col: ColumnRef::new("t", "title"),
            pattern: "%Godfather%".into(),
            case_insensitive: false,
        };
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[1, 0, 0]));
    }

    #[test]
    fn like_on_ints_is_type_error() {
        let c = Column::from_ints(vec![1]);
        let atom = Atom::Like {
            col: ColumnRef::new("t", "a"),
            pattern: "%x%".into(),
            case_insensitive: false,
        };
        assert!(eval_atom(&atom, &c).is_err());
    }

    #[test]
    fn in_list_with_null_element() {
        let c = Column::from_ints(vec![1, 2, 3]);
        let atom = Atom::InList {
            col: ColumnRef::new("t", "a"),
            values: vec![Value::Int(1), Value::Null],
        };
        // 1 matches → T; 2,3 don't match but NULL in list → U.
        assert_eq!(eval_atom(&atom, &c).unwrap(), truths(&[1, -1, -1]));
    }

    #[test]
    fn mismatched_types_error() {
        let c = Column::from_ints(vec![1]);
        let atom = Atom::Cmp {
            col: ColumnRef::new("t", "a"),
            op: CmpOp::Eq,
            value: Value::from("1"),
        };
        let err = eval_atom(&atom, &c).unwrap_err();
        assert!(err.to_string().contains("t.a"));
    }

    #[test]
    fn eval_node_connectives() {
        // (year > 2000 AND score > '7.0') OR (year > 1980 AND score > '8.0')
        let e = or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("t", "score").gt("7.0"),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("t", "score").gt("8.0"),
            ]),
        ]);
        let tree = PredicateTree::build(&e);
        let provider = MapProvider::new(4)
            .with(
                ColumnRef::new("t", "year"),
                Column::from_ints(vec![2008, 1994, 1972, 2001]),
            )
            .with(
                ColumnRef::new("t", "score"),
                Column::from_strs(&["9.0", "9.3", "9.2", "6.0"]),
            );
        let result = eval_node(&tree, tree.root(), &provider).unwrap();
        // 2008/9.0 → both clauses: T; 1994/9.3 → second clause: T;
        // 1972/9.2 → neither (too old): F; 2001/6.0 → score too low: F.
        assert_eq!(result, truths(&[1, 1, 0, 0]));
    }

    #[test]
    fn eval_node_not_with_unknown() {
        let e = not(col("t", "a").gt(5i64));
        let tree = PredicateTree::build(&e);
        let mut b = ColumnBuilder::new(DataType::Int);
        for v in [Value::Int(10), Value::Null, Value::Int(1)] {
            b.push(v).unwrap();
        }
        let provider = MapProvider::new(3).with(ColumnRef::new("t", "a"), b.finish());
        let result = eval_node(&tree, tree.root(), &provider).unwrap();
        assert_eq!(result, truths(&[0, -1, 1]));
    }

    #[test]
    fn encoded_eval_matches_decoded_bit_for_bit() {
        // Mixed atom kinds over int + string columns with NULLs and a
        // ragged (non-multiple-of-64) length; the encoded provider must
        // agree with the decoded one on every lane.
        let n = 100;
        let mut ints = ColumnBuilder::new(DataType::Int);
        let mut strs = ColumnBuilder::new(DataType::Str);
        for i in 0..n {
            if i % 7 == 3 {
                ints.push(Value::Null).unwrap();
            } else {
                ints.push(Value::Int((i as i64 * 37) % 50)).unwrap();
            }
            if i % 5 == 1 {
                strs.push(Value::Null).unwrap();
            } else {
                strs.push(Value::from(format!("name-{}", i % 9).as_str()))
                    .unwrap();
            }
        }
        let (ints, strs) = (ints.finish(), strs.finish());
        let e = or(vec![
            and(vec![col("t", "a").gt(25i64), col("t", "s").like("name-3%")]),
            col("t", "s").is_null(),
            col("t", "s").in_list(vec![Value::from("name-7"), Value::Null]),
        ]);
        let tree = PredicateTree::build(&e);
        let plain = MapProvider::new(n)
            .with(ColumnRef::new("t", "a"), ints.clone())
            .with(ColumnRef::new("t", "s"), strs.clone());
        let enc = MapProvider::new(n)
            .with_encoded(ColumnRef::new("t", "a"), ints)
            .with_encoded(ColumnRef::new("t", "s"), strs);
        let sel = Bitmap::from_indices(n, (0..n).filter(|i| i % 3 != 0));
        let arena = MaskArena::new();
        let want = eval_node_mask(&tree, tree.root(), &plain, &sel, &arena).unwrap();
        let got = eval_node_mask(&tree, tree.root(), &enc, &sel, &arena).unwrap();
        assert_eq!(want.to_truths(), got.to_truths());
        arena.recycle_mask(want);
        arena.recycle_mask(got);
    }

    #[test]
    fn zone_maps_skip_decided_morsels_and_count() {
        // Two 1024-row morsels: the first holds only small values, the
        // second only large ones, so `a > 100` is decided per-morsel by
        // zone bounds alone — both count as skips, no scans.
        let n = 2048;
        let vals: Vec<i64> = (0..n).map(|i| if i < 1024 { 5 } else { 500 }).collect();
        let provider = MapProvider::new(n as usize)
            .with_encoded(ColumnRef::new("t", "a"), Column::from_ints(vals));
        let e = col("t", "a").gt(100i64);
        let tree = PredicateTree::build(&e);
        let sel = Bitmap::from_indices(n as usize, 0..n as usize);
        let arena = MaskArena::new();
        let mut trues = 0;
        for m in Morsel::split(n as usize, 1024) {
            let mask = eval_node_mask_morsel(&tree, tree.root(), &provider, &sel, &arena, m, None)
                .unwrap();
            trues += mask.count_true();
            arena.recycle_mask(mask);
        }
        assert_eq!(trues, 1024);
        let stats = arena.stats();
        assert_eq!(stats.zone_skipped_morsels, 2, "both morsels zone-decided");
        assert_eq!(stats.zone_scanned_morsels, 0);
    }

    #[test]
    fn saturated_or_skips_remaining_arms() {
        // The first arm is proven all-true by zone maps; the second arm
        // references a column the provider does not have, which would
        // error if evaluated. Saturation must skip it.
        let n = 128;
        let provider = MapProvider::new(n).with_encoded(
            ColumnRef::new("t", "a"),
            Column::from_ints((0..n as i64).collect()),
        );
        let e = or(vec![col("t", "a").ge(0i64), col("t", "missing").gt(5i64)]);
        let tree = PredicateTree::build(&e);
        let sel = Bitmap::from_indices(n, 0..n);
        let arena = MaskArena::new();
        let mask = eval_node_mask(&tree, tree.root(), &provider, &sel, &arena).unwrap();
        assert_eq!(mask.count_true(), n);
        arena.recycle_mask(mask);
    }

    #[test]
    fn saturated_and_skips_remaining_arms() {
        let n = 128;
        let provider = MapProvider::new(n).with_encoded(
            ColumnRef::new("t", "a"),
            Column::from_ints((0..n as i64).collect()),
        );
        let e = and(vec![
            col("t", "a").gt(1_000_000i64),
            col("t", "missing").gt(5i64),
        ]);
        let tree = PredicateTree::build(&e);
        let sel = Bitmap::from_indices(n, 0..n);
        let arena = MaskArena::new();
        let mask = eval_node_mask(&tree, tree.root(), &provider, &sel, &arena).unwrap();
        assert_eq!(mask.count_true(), 0);
        assert_eq!(mask.count_unknown(), 0);
        arena.recycle_mask(mask);
    }

    #[test]
    fn encoded_null_literal_cmp_is_unknown_on_selected() {
        let n = 70;
        let provider = MapProvider::new(n).with_encoded(
            ColumnRef::new("t", "a"),
            Column::from_ints((0..n as i64).collect()),
        );
        let atom = Atom::Cmp {
            col: ColumnRef::new("t", "a"),
            op: CmpOp::Eq,
            value: Value::Null,
        };
        let sel = Bitmap::from_indices(n, 0..10);
        let arena = MaskArena::new();
        let enc = provider.fetch_encoded(&ColumnRef::new("t", "a")).unwrap();
        let mask = eval_atom_encoded(&atom, &enc, &sel, &arena, Morsel::full(n)).unwrap();
        assert_eq!(mask.count_unknown(), 10);
        assert_eq!(mask.count_true(), 0);
        arena.recycle_mask(mask);
    }

    #[test]
    fn unknown_propagates_through_or_per_sql() {
        let e = or(vec![col("t", "a").gt(5i64), col("t", "b").gt(5i64)]);
        let tree = PredicateTree::build(&e);
        let mut a = ColumnBuilder::new(DataType::Int);
        let mut b = ColumnBuilder::new(DataType::Int);
        // row0: a NULL, b=9 → T; row1: a NULL, b=1 → U
        a.push(Value::Null).unwrap();
        a.push(Value::Null).unwrap();
        b.push(Value::Int(9)).unwrap();
        b.push(Value::Int(1)).unwrap();
        let provider = MapProvider::new(2)
            .with(ColumnRef::new("t", "a"), a.finish())
            .with(ColumnRef::new("t", "b"), b.finish());
        let result = eval_node(&tree, tree.root(), &provider).unwrap();
        assert_eq!(result, truths(&[1, -1]));
    }
}
