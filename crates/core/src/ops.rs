//! The tagged operators (§2.2–§2.5).

use basilisk_exec::{
    combine, Emit, ExecCtx, FxHashMap, IdxRelation, JoinTable, RelProvider, TableSet,
};
use basilisk_expr::{ColumnRef, PredicateTree};
use basilisk_storage::Column;
use basilisk_types::{BasiliskError, Bitmap, MaskArena, Result};

use crate::relation::TaggedRelation;
use crate::tagmap::{FilterTagMap, JoinTagMap, ProjectionTags};

/// Tagged filter (§2.2, implementation details §2.5.2).
///
/// * The predicate is evaluated **once** over the union of all matched
///   slices' bitmaps ("fewer I/O calls to read the underlying data values
///   than evaluating the predicate expression separately for each
///   relational slice") — directly over the base relation under the union
///   selection bitmap. No sub-relation is materialized and no tuples are
///   moved; the union bitmap *is* the selection vector.
/// * The index relation is **not** modified; only the tag → bitmap map
///   changes ("even tuples which no longer belong to any relational slice
///   remain in the relation").
/// * Each evaluated slice's tuples are routed to its pos/neg/unk outputs
///   with three word-parallel bitmap intersections against the result
///   [`TruthMask`](basilisk_types::TruthMask).
/// * Slices without a matching entry pass through untouched; entries whose
///   every output was pruned drop their slice without evaluation.
///
/// All bitmaps — the union selection, the evaluation mask, and the output
/// slices themselves — are checked out of `cx.arena`; scratch is recycled
/// before returning and the output slices go back to the pool when the
/// executor consumes the returned relation (see
/// [`TaggedRelation::recycle`]).
///
/// With a pool the predicate evaluates morsel-parallel (see
/// [`ExecCtx::eval_mask`]): each worker evaluates its morsels of the
/// union-of-slices selection, the coordinator stitches the disjoint word
/// ranges back into one relation-length mask, and the per-slice
/// pos/neg/unk routing happens on the stitched mask exactly as in the
/// serial case — so output slices are bit-for-bit identical.
///
/// With `count: Some(projection)` the filter is the root of a `COUNT(*)`
/// plan and emits only how many tuples land in a slice the projection
/// admits ([`Emit::Count`]): pass-through slices are popcounted instead
/// of copied, evaluated slices are counted straight off the mask instead
/// of split into output bitmaps, and an entry none of whose outcomes is
/// admitted is dropped unevaluated, like a dead one.
pub fn tagged_filter(
    cx: &ExecCtx<'_>,
    tables: &TableSet,
    input: &TaggedRelation,
    tree: &PredicateTree,
    map: &FilterTagMap,
    count: Option<&ProjectionTags>,
) -> Result<Emit<TaggedRelation>> {
    let arena = cx.arena;
    let relation = input.relation().clone();
    let n = relation.len();
    // Rows keep every outcome the tag map names; a count only admitted ones.
    let kept =
        |tag: Option<&crate::Tag>| tag.is_some_and(|t| count.is_none_or(|p| p.allowed.contains(t)));

    // Split slices into pass-through / evaluated / dropped.
    let mut out_slices: Vec<(crate::Tag, Bitmap)> = Vec::new();
    let mut counted = 0;
    let mut evaluated: Vec<(usize, &crate::tagmap::FilterTagEntry)> = Vec::new();
    let mut union = arena.bitmap(n);
    for (i, (tag, bitmap)) in input.slices().iter().enumerate() {
        match map.entry_for(tag) {
            None if count.is_some() => {
                if kept(Some(tag)) {
                    counted += bitmap.count_ones();
                }
            }
            None => push_slice(arena, &mut out_slices, tag, arena.bitmap_copy(bitmap)),
            Some(e) if ![&e.pos, &e.neg, &e.unk].iter().any(|t| kept(t.as_ref())) => {
                // Dead entry: Precept 1 killed every branch (or, counting,
                // the projection admits none) — drop the slice without
                // touching the data.
            }
            Some(e) => {
                evaluated.push((i, e));
                union.union_with(bitmap);
            }
        }
    }

    if !union.is_zero() {
        // Evaluate once over the union, straight off the base relation.
        let provider = RelProvider::new(tables, &relation);
        let mask = match cx.eval_mask(tree, map.node, &provider, &union) {
            Ok(m) => m,
            Err(e) => {
                recycle_slices(arena, out_slices);
                arena.recycle_bitmap(union);
                return Err(e);
            }
        };

        for (slice_idx, entry) in evaluated {
            let (_, bitmap) = &input.slices()[slice_idx];
            if count.is_some() {
                // The slice's lanes split into true, unknown and the rest.
                let tru = ones_under(bitmap, mask.trues());
                let unk = ones_under(bitmap, mask.unknowns());
                let neg = bitmap.count_ones() - tru - unk;
                for (tag, lanes) in [(&entry.pos, tru), (&entry.neg, neg), (&entry.unk, unk)] {
                    if kept(tag.as_ref()) {
                        counted += lanes;
                    }
                }
                continue;
            }
            let mut pos_bm = arena.bitmap(n);
            let mut neg_bm = arena.bitmap(n);
            let mut unk_bm = arena.bitmap(n);
            mask.split_under_into(bitmap, &mut pos_bm, &mut neg_bm, &mut unk_bm);
            push_or_recycle(arena, &mut out_slices, entry.pos.as_ref(), pos_bm);
            push_or_recycle(arena, &mut out_slices, entry.neg.as_ref(), neg_bm);
            push_or_recycle(arena, &mut out_slices, entry.unk.as_ref(), unk_bm);
        }
        arena.recycle_mask(mask);
    }
    arena.recycle_bitmap(union);

    Ok(match count {
        Some(_) => Emit::Count(counted),
        None => Emit::Rows(TaggedRelation::from_slices(relation, out_slices)),
    })
}

/// How many of `slice`'s set bits are also set in `bits`.
fn ones_under(slice: &Bitmap, bits: &Bitmap) -> usize {
    let (a, b) = (slice.words(), bits.words());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Keep `bm` as the `tag` output slice, or hand it back to the pool when
/// the tag map pruned that outcome or no tuple landed in it (empty slices
/// are dropped by `from_slices` anyway; recycling here keeps the buffer).
fn push_or_recycle(
    arena: &MaskArena,
    out: &mut Vec<(crate::Tag, Bitmap)>,
    tag: Option<&crate::Tag>,
    bm: Bitmap,
) {
    match tag {
        Some(tag) if !bm.is_zero() => push_slice(arena, out, tag, bm),
        _ => arena.recycle_bitmap(bm),
    }
}

/// Push a `(tag, bitmap)` output slice, merging into an existing slice
/// with the same tag (generalization maps several inputs onto one output
/// tag). Merging here — rather than in `TaggedRelation::add_slice` — lets
/// the merged-away buffer go back to the pool instead of being dropped.
fn push_slice(
    arena: &MaskArena,
    out: &mut Vec<(crate::Tag, Bitmap)>,
    tag: &crate::Tag,
    bm: Bitmap,
) {
    match out.iter_mut().find(|(t, _)| t == tag) {
        Some((_, existing)) => {
            existing.union_with(&bm);
            arena.recycle_bitmap(bm);
        }
        None => out.push((tag.clone(), bm)),
    }
}

fn recycle_slices(arena: &MaskArena, slices: Vec<(crate::Tag, Bitmap)>) {
    for (_, bm) in slices {
        arena.recycle_bitmap(bm);
    }
}

/// Tagged hash join (§2.3, implementation §2.5.3).
///
/// One hash table is built over the union of every *participating* left
/// slice ("rather than building a separate hash table for each relational
/// slice, Basilisk builds one giant hash table for all the relational
/// slices"); hash values carry the tuple's slice so probes can dispatch
/// through the `(left-slice, right-slice) → out-tag` table. Slices without
/// any tag-map entry are discarded.
///
/// With a pool the probe is **partitioned** over the shared single-build
/// table (see [`ExecCtx::probe`]): the participating right positions are
/// split into morsel-sized chunks probed on the workers and each chunk's
/// `(left, right, out-slice)` match triples are concatenated in chunk
/// order — the order the serial probe loop emits, so the joined relation
/// and its tag slices are identical.
///
/// With `count: Some(projection)` the join is the root of a `COUNT(*)`
/// plan and emits only how many matching pairs land in an out tag the
/// projection admits ([`Emit::Count`]). The pair table then holds only
/// admitted entries, so the participating build and probe unions shrink
/// with it, and the same probe loop counts instead of recording
/// selection vectors: no `combine`, no per-tag bitmaps.
#[allow(clippy::too_many_arguments)]
pub fn tagged_join(
    cx: &ExecCtx<'_>,
    tables: &TableSet,
    left: &TaggedRelation,
    right: &TaggedRelation,
    left_key: &ColumnRef,
    right_key: &ColumnRef,
    map: &JoinTagMap,
    count: Option<&ProjectionTags>,
) -> Result<Emit<TaggedRelation>> {
    let (arena, pool) = (cx.arena, cx.pool);
    if !left.relation().covers(&left_key.table) || !right.relation().covers(&right_key.table) {
        return Err(BasiliskError::Exec(format!(
            "join keys {left_key} / {right_key} not covered by inputs"
        )));
    }

    // Resolve tag-map entries to slice indices (entries naming tags whose
    // slices are empty/absent are simply unreachable).
    let left_slot: FxHashMap<&crate::Tag, u32> = left
        .slices()
        .iter()
        .enumerate()
        .map(|(i, (t, _))| (t, i as u32))
        .collect();
    let right_slot: FxHashMap<&crate::Tag, u32> = right
        .slices()
        .iter()
        .enumerate()
        .map(|(i, (t, _))| (t, i as u32))
        .collect();

    let mut out_tags: Vec<crate::Tag> = Vec::new();
    let mut pair_to_out: FxHashMap<(u32, u32), u16> = FxHashMap::default();
    for e in &map.entries {
        // A pair whose out tag the projection rejects would be selected
        // away at the end: a count never builds, probes or matches it.
        if count.is_some_and(|p| !p.allowed.contains(&e.out)) {
            continue;
        }
        let (Some(&ls), Some(&rs)) = (left_slot.get(&e.left), right_slot.get(&e.right)) else {
            continue;
        };
        let out_idx = match out_tags.iter().position(|t| t == &e.out) {
            Some(i) => i as u16,
            None => {
                out_tags.push(e.out.clone());
                (out_tags.len() - 1) as u16
            }
        };
        pair_to_out.insert((ls, rs), out_idx);
    }

    // Participating tuples per side.
    let mut left_union = arena.bitmap(left.num_tuples());
    let mut right_union = arena.bitmap(right.num_tuples());
    for &(ls, rs) in pair_to_out.keys() {
        left_union.union_with(&left.slices()[ls as usize].1);
        right_union.union_with(&right.slices()[rs as usize].1);
    }

    // Build/probe preparation. One shared hash table over all
    // participating left slices (§2.5.3's "one giant hash table"), CSR
    // layout with typed keys: probing a key yields a contiguous slice of
    // left positions, no per-key Vec allocs, and Int keys are read as
    // `i64`s on both sides. The table keeps no reference to its key
    // column, so the build keys recycle right away.
    //
    // When both sides are big enough to fan out, the **build side ships
    // to the pool as a schedulable task**: one worker decodes the left
    // union, gathers build keys and builds the table while a second
    // gathers the probe-side keys — the two halves overlap each other
    // (and any other region in flight). Each task draws scratch from its
    // own worker arena; the build task recycles everything in-task (only
    // the interned table escapes), while the probe task's buffers come
    // back tagged with their producing worker (`probe_home`) and are
    // recycled there once the probe is done.
    let overlaps = pool.is_some_and(|p| {
        p.would_parallelize(left.num_tuples()) && p.would_parallelize(right.num_tuples())
    });
    let (table, right_positions, right_keys, probe_home) = if overlaps {
        let p = pool.expect("overlap implies a pool");
        let pair = p.run_pair(
            |ctx| {
                let mut pos = ctx.arena.indices();
                left_union.indices_into(&mut pos);
                let keys = match gather_keys(tables, left.relation(), left_key, &pos, ctx.arena) {
                    Ok(k) => k,
                    Err(e) => {
                        ctx.arena.recycle_indices(pos);
                        return Err(e);
                    }
                };
                let table = JoinTable::build(&keys, |j| pos[j]);
                keys.recycle(ctx.arena);
                ctx.arena.recycle_indices(pos);
                Ok(table)
            },
            |ctx| {
                let mut pos = ctx.arena.indices();
                right_union.indices_into(&mut pos);
                match gather_keys(tables, right.relation(), right_key, &pos, ctx.arena) {
                    Ok(keys) => Ok((pos, keys)),
                    Err(e) => {
                        ctx.arena.recycle_indices(pos);
                        Err(e)
                    }
                }
            },
            |_a, _table| {},
            |a, (pos, keys)| {
                keys.recycle(a);
                a.recycle_indices(pos);
            },
        );
        arena.recycle_bitmap(left_union);
        arena.recycle_bitmap(right_union);
        let ((_wt, table), (wp, (pos, keys))) = pair?;
        (table, pos, keys, Some(wp))
    } else {
        // Serial preparation: pooled decode buffers from the session
        // arena; the unions are dead once decoded.
        let mut left_positions = arena.indices();
        let mut right_positions = arena.indices();
        left_union.indices_into(&mut left_positions);
        right_union.indices_into(&mut right_positions);
        arena.recycle_bitmap(left_union);
        arena.recycle_bitmap(right_union);
        let keys =
            gather_keys(tables, left.relation(), left_key, &left_positions, arena).and_then(|lk| {
                match gather_keys(tables, right.relation(), right_key, &right_positions, arena) {
                    Ok(rk) => Ok((lk, rk)),
                    Err(e) => {
                        lk.recycle(arena);
                        Err(e)
                    }
                }
            });
        let (left_keys, right_keys) = match keys {
            Ok(k) => k,
            Err(e) => {
                // Failed executions must not shrink the pool.
                arena.recycle_indices(left_positions);
                arena.recycle_indices(right_positions);
                return Err(e);
            }
        };
        let table = JoinTable::build(&left_keys, |j| left_positions[j]);
        left_keys.recycle(arena);
        arena.recycle_indices(left_positions);
        (table, right_positions, right_keys, None)
    };
    // Recycle the probe-side buffers into the arena that produced them.
    let recycle_probe = |pos, keys: Column| match probe_home {
        Some(w) => pool.expect("probe_home implies a pool").with_arena(w, |a| {
            keys.recycle(a);
            a.recycle_indices(pos);
        }),
        None => {
            keys.recycle(arena);
            arena.recycle_indices(pos);
        }
    };

    // The probe half, over one contiguous chunk of participating right
    // positions; the third list is the per-tuple output-slice index,
    // widened to u32 so it can live in a pooled index buffer like the
    // selection vectors beside it. Slice membership is pooled scratch
    // too, `u32::MAX` for a tuple in no slice.
    let left_membership = left.slice_membership(arena);
    let right_membership = right.slice_membership(arena);
    let probed = cx.probe(right_positions.len(), count.is_some(), |range, out| {
        for (j, &rpos) in right_positions[range.clone()].iter().enumerate() {
            let matches = table.probe_at(&right_keys, range.start + j);
            if matches.is_empty() {
                continue;
            }
            let rs = right_membership[rpos as usize];
            for &lpos in matches {
                let ls = left_membership[lpos as usize];
                let Some(&out_idx) = pair_to_out.get(&(ls, rs)) else {
                    continue;
                };
                match out {
                    Emit::Rows([left_sel, right_sel, tuple_out]) => {
                        left_sel.push(lpos);
                        right_sel.push(rpos);
                        tuple_out.push(out_idx as u32);
                    }
                    Emit::Count(n) => *n += 1,
                }
            }
        }
    });
    recycle_probe(right_positions, right_keys);
    arena.recycle_indices(left_membership);
    arena.recycle_indices(right_membership);
    let [left_sel, right_sel, tuple_out] = match probed? {
        Emit::Rows(lists) => lists,
        Emit::Count(n) => return Ok(Emit::Count(n)),
    };

    let relation = combine(
        left.relation(),
        right.relation(),
        &left_sel,
        &right_sel,
        arena,
    );
    arena.recycle_indices(left_sel);
    arena.recycle_indices(right_sel);
    let mut bitmaps: Vec<Bitmap> = out_tags
        .iter()
        .map(|_| arena.bitmap(relation.len()))
        .collect();
    for (tuple, &out_idx) in tuple_out.iter().enumerate() {
        bitmaps[out_idx as usize].set(tuple);
    }
    arena.recycle_indices(tuple_out);
    let mut slices: Vec<(crate::Tag, Bitmap)> = Vec::with_capacity(out_tags.len());
    for (tag, bm) in out_tags.into_iter().zip(bitmaps) {
        // Empty output slices would be dropped by `from_slices`; recycle
        // their buffers instead of leaking them from the pool.
        if bm.is_zero() {
            arena.recycle_bitmap(bm);
        } else {
            slices.push((tag, bm));
        }
    }
    Ok(Emit::Rows(TaggedRelation::from_slices(relation, slices)))
}

/// Gather the key *values* at the given relation positions. The
/// positions → base-row translation runs through the word-parallel
/// gather kernel into pooled index scratch, and the materialized value
/// [`Column`] draws its buffers from the arena's value pool — the caller
/// recycles it once the build/probe consuming it is done.
fn gather_keys(
    tables: &TableSet,
    relation: &IdxRelation,
    key: &ColumnRef,
    positions: &[u32],
    arena: &MaskArena,
) -> Result<Column> {
    let idx_col = relation.col(&key.table)?;
    let mut rows = arena.indices();
    basilisk_types::gather_u32_into(idx_col, positions, &mut rows);
    let out = tables.column(key).and_then(|h| h.gather_in(&rows, arena));
    arena.recycle_indices(rows);
    out
}

/// Final tag-based selection before projection (§2.4): keep only tuples in
/// slices the projection admits. The union bitmap and the index decode
/// buffer are pooled scratch, recycled before returning.
///
/// With `count` nothing is selected or gathered: slices are mutually
/// exclusive (§2.1), so the admitted tuples number the popcounts of the
/// admitted slices, summed ([`Emit::Count`]).
pub fn tagged_select_final(
    rel: &TaggedRelation,
    allowed: &ProjectionTags,
    arena: &MaskArena,
    count: bool,
) -> Emit<IdxRelation> {
    if count {
        return Emit::Count(
            rel.slices()
                .iter()
                .filter(|(tag, _)| allowed.allowed.contains(tag))
                .map(|(_, bm)| bm.count_ones())
                .sum(),
        );
    }
    let union = rel.union_of_in(&allowed.allowed, arena);
    let out = rel.relation().select_bitmap_in(&union, arena);
    arena.recycle_bitmap(union);
    Emit::Rows(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;
    use crate::tagmap::{TagMapBuilder, TagMapStrategy};
    use basilisk_exec::{filter as plain_filter, hash_join, project_in};
    use basilisk_expr::{and, col, or, Expr, PredicateTree};
    use basilisk_storage::{Table, TableBuilder};
    use basilisk_types::{DataType, Value};
    use std::sync::Arc;

    fn arena() -> MaskArena {
        MaskArena::new()
    }

    /// A base index / tagged relation over a throwaway arena.
    fn idx(alias: &str, rows: usize) -> IdxRelation {
        IdxRelation::base_in(alias, rows, &arena())
    }

    /// `tagged_filter`, serial, over a throwaway arena.
    fn filtered(
        ts: &TableSet,
        input: &TaggedRelation,
        tree: &PredicateTree,
        map: &FilterTagMap,
    ) -> TaggedRelation {
        rows(tagged_filter(&ExecCtx::serial(&arena()), ts, input, tree, map, None).unwrap())
    }

    /// `left ⋈ right` on `t.id = mi_idx.movie_id`, serial.
    fn join_on_movie_id(
        ts: &TableSet,
        left: &TaggedRelation,
        right: &TaggedRelation,
        map: &JoinTagMap,
    ) -> TaggedRelation {
        let (lk, rk) = (
            ColumnRef::new("t", "id"),
            ColumnRef::new("mi_idx", "movie_id"),
        );
        let a = arena();
        rows(tagged_join(&ExecCtx::serial(&a), ts, left, right, &lk, &rk, map, None).unwrap())
    }

    /// The relation of an operator asked for rows.
    fn rows<R>(emitted: Emit<R>) -> R {
        match emitted {
            Emit::Rows(rel) => rel,
            Emit::Count(n) => panic!("asked for rows, got a count of {n}"),
        }
    }

    fn tagged(alias: &str, rows: usize) -> TaggedRelation {
        TaggedRelation::base_in(idx(alias, rows), &arena())
    }

    /// The exact data from the paper's Examples 1–4.
    fn title() -> Arc<Table> {
        let mut b = TableBuilder::new("title")
            .column("title", DataType::Str)
            .column("year", DataType::Int)
            .column("id", DataType::Int);
        for (t, y, id) in [
            ("The Dark Knight", 2008, 1),
            ("Evolution", 2001, 2),
            ("The Shawshank Redemption", 1994, 3),
            ("Pulp Fiction", 1994, 4),
            ("The Godfather", 1972, 5),
            ("Beetlejuice", 1988, 6),
            ("Avatar", 2009, 7),
        ] {
            b.push_row(vec![t.into(), (y as i64).into(), (id as i64).into()])
                .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn mi_idx() -> Arc<Table> {
        let mut b = TableBuilder::new("mi_idx")
            .column("score", DataType::Str)
            .column("movie_id", DataType::Int);
        for (s, mid) in [
            ("9.0", 1),
            ("9.3", 3),
            ("8.9", 4),
            ("9.2", 5),
            ("7.5", 6),
            ("7.9", 7),
        ] {
            b.push_row(vec![s.into(), (mid as i64).into()]).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn tset() -> TableSet {
        TableSet::from_tables(vec![("t".into(), title()), ("mi_idx".into(), mi_idx())])
    }

    fn query1() -> Expr {
        or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("mi_idx", "score").gt("7.0"),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("mi_idx", "score").gt("8.0"),
            ]),
        ])
    }

    fn find(tree: &PredicateTree, s: &str) -> basilisk_expr::ExprId {
        tree.atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == s)
            .unwrap()
    }

    /// The complete Figure 1 pipeline: filters on both base tables, the
    /// tagged join, the projection — verified against the paper's
    /// Examples 1–4 row sets and against traditional execution.
    #[test]
    fn figure1_full_pipeline() {
        let ts = tset();
        let tree = PredicateTree::build(&query1());
        let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let p1 = find(&tree, "t.year > 2000");
        let p2 = find(&tree, "t.year > 1980");
        let p3 = find(&tree, "mi_idx.score > '8.0'");
        let p4 = find(&tree, "mi_idx.score > '7.0'");

        // Left: title → P1 → P2.
        let mut left = tagged("t", 7);
        let mut tags = vec![Tag::empty()];
        for node in [p1, p2] {
            let m = b.filter_map(node, &tags);
            tags = b.filter_output_tags(&m, &tags);
            left = filtered(&ts, &left, &tree, &m);
            assert!(left.check_mutually_exclusive());
        }
        // Example 2: {year>2000} slice = rows {Dark Knight, Evolution,
        // Avatar} (ids 0,1,6); {…,year>1980=T} slice = rows {Shawshank,
        // Pulp Fiction, Beetlejuice} (ids 2,3,5). Godfather (1972) gone.
        assert_eq!(left.num_slices(), 2);
        assert_eq!(left.num_tagged_tuples(), 6);
        let sizes: Vec<usize> = left
            .slices()
            .iter()
            .map(|(_, bm)| bm.count_ones())
            .collect();
        assert_eq!(sizes, vec![3, 3]);
        let left_tags = tags.clone();

        // Right: mi_idx → P3 → P4.
        let mut right = tagged("mi_idx", 6);
        let mut rtags = vec![Tag::empty()];
        for node in [p3, p4] {
            let m = b.filter_map(node, &rtags);
            rtags = b.filter_output_tags(&m, &rtags);
            right = filtered(&ts, &right, &tree, &m);
        }
        // Example 3: {score>8.0} = 4 rows; {score>8.0=F, score>7.0=T} = 2.
        assert_eq!(right.num_slices(), 2);
        let sizes: Vec<usize> = right
            .slices()
            .iter()
            .map(|(_, bm)| bm.count_ones())
            .collect();
        assert_eq!(sizes, vec![4, 2]);

        // Join with tag map.
        let jm = b.join_map(&left_tags, &rtags);
        assert_eq!(jm.entries.len(), 3, "the (F,F) pairing is omitted");
        let joined = join_on_movie_id(&ts, &left, &right, &jm);
        assert!(joined.check_mutually_exclusive());

        // Example 4: output = Dark Knight(9.0), Avatar(7.9), Shawshank
        // (9.3), Pulp Fiction(8.9) — 4 tuples.
        let proj = b.projection_tags(&b.join_output_tags(&jm));
        let final_rel = rows(tagged_select_final(&joined, &proj, &arena(), false));
        assert_eq!(final_rel.len(), 4);

        // Counting at the root join sees the same four pairs without
        // materializing them — and only admitted pairs are counted.
        let count_arena = arena();
        let cx = ExecCtx::serial(&count_arena);
        let (lk, rk) = (
            ColumnRef::new("t", "id"),
            ColumnRef::new("mi_idx", "movie_id"),
        );
        let counted = tagged_join(&cx, &ts, &left, &right, &lk, &rk, &jm, Some(&proj)).unwrap();
        assert!(matches!(counted, Emit::Count(4)));
        assert_eq!(count_arena.outstanding(), 0);

        // Cross-check against the traditional engine.
        let plain_arena = arena();
        let cx = ExecCtx::serial(&plain_arena);
        let joined_plain = rows(
            hash_join(
                &cx,
                &ts,
                &idx("t", 7),
                &idx("mi_idx", 6),
                &ColumnRef::new("t", "id"),
                &ColumnRef::new("mi_idx", "movie_id"),
                false,
            )
            .unwrap(),
        );
        let expected =
            rows(plain_filter(&cx, &ts, &joined_plain, &tree, tree.root(), false).unwrap());
        assert_eq!(expected.len(), 4);
        let mut a: Vec<(u32, u32)> = (0..final_rel.len())
            .map(|i| {
                (
                    final_rel.col("t").unwrap()[i],
                    final_rel.col("mi_idx").unwrap()[i],
                )
            })
            .collect();
        let mut e: Vec<(u32, u32)> = (0..expected.len())
            .map(|i| {
                (
                    expected.col("t").unwrap()[i],
                    expected.col("mi_idx").unwrap()[i],
                )
            })
            .collect();
        a.sort_unstable();
        e.sort_unstable();
        assert_eq!(a, e);

        // Projection materializes the right values.
        let cols = project_in(
            &ts,
            &final_rel,
            &[
                ColumnRef::new("t", "title"),
                ColumnRef::new("mi_idx", "score"),
            ],
            &arena(),
        )
        .unwrap();
        assert_eq!(cols[0].1.len(), 4);
    }

    /// §2.5.2: the filter's underlying relation is untouched; only tags
    /// change. Tuples outside every slice remain in the relation.
    #[test]
    fn filter_does_not_rewrite_relation() {
        let ts = tset();
        let tree = PredicateTree::build(&query1());
        let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let p1 = find(&tree, "t.year > 2000");
        let base = tagged("t", 7);
        let m = b.filter_map(p1, &[Tag::empty()]);
        let out = filtered(&ts, &base, &tree, &m);
        assert_eq!(out.num_tuples(), 7, "relation keeps all 7 tuples");
        assert_eq!(out.num_tagged_tuples(), 7, "both outcomes kept here");
    }

    /// Slices with no matching entry pass through untouched.
    #[test]
    fn pass_through_slice() {
        let ts = tset();
        let tree = PredicateTree::build(&query1());
        let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let p1 = find(&tree, "t.year > 2000");
        let p2 = find(&tree, "t.year > 1980");

        let base = tagged("t", 7);
        let m1 = b.filter_map(p1, &[Tag::empty()]);
        let after1 = filtered(&ts, &base, &tree, &m1);
        let tags1 = b.filter_output_tags(&m1, &[Tag::empty()]);

        let m2 = b.filter_map(p2, &tags1);
        // Only the {A1=F} slice has an entry; the pos slice passes through.
        assert_eq!(m2.entries().len(), 1);
        let after2 = filtered(&ts, &after1, &tree, &m2);
        let pos_tag = m1.entries()[0].pos.as_ref().unwrap();
        assert_eq!(
            after2.slice(pos_tag),
            after1.slice(pos_tag),
            "pass-through bitmap identical"
        );
    }

    /// Dead entries (all outputs pruned) drop the slice without evaluating.
    #[test]
    fn dead_entry_removes_slice() {
        let ts = tset();
        let tree = PredicateTree::build(&col("t", "year").gt(2000i64));
        let base = tagged("t", 7);
        // Hand-build a map whose entry has no outputs.
        let map = FilterTagMap::new(
            tree.root(),
            vec![crate::tagmap::FilterTagEntry {
                input: Tag::empty(),
                pos: None,
                neg: None,
                unk: None,
            }],
        );
        let out = filtered(&ts, &base, &tree, &map);
        assert_eq!(out.num_slices(), 0);
        assert_eq!(out.num_tuples(), 7);
    }

    /// Three-valued execution end to end: NULL years flow into the unknown
    /// slice and never reach the output.
    #[test]
    fn nulls_route_to_unknown_slice() {
        let mut b = TableBuilder::new("t")
            .column("year", DataType::Int)
            .column("id", DataType::Int);
        for (y, id) in [
            (Value::Int(2005), 1i64),
            (Value::Null, 2),
            (Value::Int(1990), 3),
        ] {
            b.push_row(vec![y, id.into()]).unwrap();
        }
        let table = Arc::new(b.finish().unwrap());
        let ts = TableSet::from_tables(vec![("t".into(), table)]);
        let tree = PredicateTree::build(&col("t", "year").gt(2000i64));
        let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true })
            .with_three_valued(true);
        let m = builder.filter_map(tree.root(), &[Tag::empty()]);
        // unknown at root is dead → no unk output, no neg output.
        assert!(m.entries()[0].unk.is_none());
        assert!(m.entries()[0].neg.is_none());
        let base = tagged("t", 3);
        let out = filtered(&ts, &base, &tree, &m);
        assert_eq!(out.num_slices(), 1);
        assert_eq!(out.num_tagged_tuples(), 1, "only year=2005 survives");
    }

    /// The tagged join discards slices without entries (§2.3).
    #[test]
    fn join_discards_unmatched_slices() {
        let ts = tset();
        let tree = PredicateTree::build(&query1());
        let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let p1 = find(&tree, "t.year > 2000");

        let base_l = tagged("t", 7);
        let m = b.filter_map(p1, &[Tag::empty()]);
        let left = filtered(&ts, &base_l, &tree, &m);
        let right = tagged("mi_idx", 6);

        // Tag map joining only the pos slice with the base slice.
        let pos_tag = m.entries()[0].pos.as_ref().unwrap().clone();
        let jm = JoinTagMap {
            entries: vec![crate::tagmap::JoinTagEntry {
                left: pos_tag.clone(),
                right: Tag::empty(),
                out: pos_tag.clone(),
            }],
        };
        let joined = join_on_movie_id(&ts, &left, &right, &jm);
        // pos slice = ids {1,2,7}; mi_idx movie_ids {1,3,4,5,6,7} →
        // matches for 1 and 7 only.
        assert_eq!(joined.num_tuples(), 2);
        assert_eq!(joined.num_slices(), 1);
        assert_eq!(joined.slices()[0].0, pos_tag);
    }

    /// Join output slices sharing a tag merge (§2.3 "output relational
    /// slices which share the same tag are merged together").
    #[test]
    fn join_merges_same_out_tag() {
        let ts = tset();
        let tree = PredicateTree::build(&query1());
        let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let p1 = find(&tree, "t.year > 2000");
        let p3 = find(&tree, "mi_idx.score > '8.0'");

        let m_l = b.filter_map(p1, &[Tag::empty()]);
        let left = filtered(&ts, &tagged("t", 7), &tree, &m_l);
        let m_r = b.filter_map(p3, &[Tag::empty()]);
        let right = filtered(&ts, &tagged("mi_idx", 6), &tree, &m_r);

        let lt = b.filter_output_tags(&m_l, &[Tag::empty()]);
        let rt = b.filter_output_tags(&m_r, &[Tag::empty()]);
        let jm = b.join_map(&lt, &rt);
        // Entries (pos,pos) and (pos,neg-side) both map to {root=T}:
        // year>2000 ∧ score>8 ⇒ root, and year>2000 ∧ (score≤8) leaves
        // P4 unknown → different out tags actually; count distinct.
        let joined = join_on_movie_id(&ts, &left, &right, &jm);
        assert!(joined.check_mutually_exclusive());
        assert_eq!(
            joined.num_slices(),
            b.join_output_tags(&jm)
                .iter()
                .filter(|t| joined.slice(t).is_some())
                .count()
        );

        // Counting keeps only the pairs whose out tag the projection
        // admits: what the final selection would have kept.
        let proj = b.projection_tags(&b.join_output_tags(&jm));
        let admitted = rows(tagged_select_final(&joined, &proj, &arena(), false)).len();
        assert!(
            admitted < joined.num_tagged_tuples(),
            "some pairs undecided"
        );
        let a = arena();
        let (lk, rk) = (
            ColumnRef::new("t", "id"),
            ColumnRef::new("mi_idx", "movie_id"),
        );
        let counted = tagged_join(
            &ExecCtx::serial(&a),
            &ts,
            &left,
            &right,
            &lk,
            &rk,
            &jm,
            Some(&proj),
        );
        assert!(matches!(counted, Ok(Emit::Count(n)) if n == admitted));
        assert_eq!(a.outstanding(), 0, "a count returns every buffer");
    }

    /// Equivalence on a single-table disjunction: tagged vs plain filter.
    #[test]
    fn single_table_disjunction_equivalence() {
        let ts = tset();
        let e = or(vec![
            col("t", "year").gt(2000i64),
            col("t", "year").lt(1980i64),
        ]);
        let tree = PredicateTree::build(&e);
        let b = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let g1 = find(&tree, "t.year > 2000");
        let l1 = find(&tree, "t.year < 1980");

        let mut rel = tagged("t", 7);
        let mut tags = vec![Tag::empty()];
        for node in [g1, l1] {
            let m = b.filter_map(node, &tags);
            tags = b.filter_output_tags(&m, &tags);
            rel = filtered(&ts, &rel, &tree, &m);
        }
        let proj = b.projection_tags(&tags);
        let got = rows(tagged_select_final(&rel, &proj, &arena(), false));

        let expected = rows(
            plain_filter(
                &ExecCtx::serial(&arena()),
                &ts,
                &idx("t", 7),
                &tree,
                tree.root(),
                false,
            )
            .unwrap(),
        );
        let mut a = got.col("t").unwrap().to_vec();
        let mut e2 = expected.col("t").unwrap().to_vec();
        a.sort_unstable();
        e2.sort_unstable();
        assert_eq!(a, e2);
    }
}
