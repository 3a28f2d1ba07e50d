//! Traditional relational operators over index relations.

use std::sync::Arc;

use basilisk_expr::{ColumnRef, ExprId, PredicateTree};
use basilisk_storage::Column;
use basilisk_types::{BasiliskError, MaskArena, Result};

use crate::hash::JoinTable;
use crate::par::{probe_range, Emit, ExecCtx};
use crate::relation::{IdxRelation, RelProvider, TableSet};

/// Filter: evaluate a predicate-tree node over the relation and keep the
/// tuples where it is *true* (SQL WHERE semantics — unknown drops).
///
/// Uses the vectorized [`TruthMask`](basilisk_types::TruthMask) path, so
/// the traditional engine and the tagged engine share one evaluation
/// kernel and their benchmark comparison stays apples-to-apples —
/// morsel-parallel on `cx.pool` when the relation warrants it (see
/// [`ExecCtx::eval_mask`]), identical output either way. All scratch (the
/// all-ones selection, the result mask, the index decode buffer) comes
/// from `cx.arena` and is recycled before returning. With `count` the
/// filter only counts the mask's true lanes ([`Emit::Count`]).
pub fn filter(
    cx: &ExecCtx<'_>,
    tables: &TableSet,
    relation: &IdxRelation,
    tree: &PredicateTree,
    node: ExprId,
    count: bool,
) -> Result<Emit<IdxRelation>> {
    let arena = cx.arena;
    let provider = RelProvider::new(tables, relation);
    let sel = arena.bitmap_ones(relation.len());
    let mask = cx.eval_mask(tree, node, &provider, &sel);
    // Recycle the selection before propagating any evaluation error —
    // failed executions must not strand pooled buffers.
    arena.recycle_bitmap(sel);
    let mask = mask?;
    let out = if count {
        Emit::Count(mask.trues().count_ones())
    } else {
        Emit::Rows(relation.select_bitmap_in(mask.trues(), arena))
    };
    arena.recycle_mask(mask);
    Ok(out)
}

/// Hash equi-join of two index relations on `left_key = right_key`,
/// building on the smaller input (the paper estimates both sides and
/// picks the cheaper one).
///
/// NULL keys never match. The output covers the union of both sides'
/// tables, in left-then-right column order. One shared build table is
/// built serially; the probe runs through [`ExecCtx::probe`] —
/// partitioned over `cx.pool` when the probe side warrants it, per-chunk
/// match lists concatenated in chunk order, so output is identical to
/// the serial join. Selection vectors are pooled scratch and the output
/// columns come from the arena's column pool. With `count` the same
/// probe only counts matches ([`Emit::Count`]): no selection vectors,
/// no `combine`.
pub fn hash_join(
    cx: &ExecCtx<'_>,
    tables: &TableSet,
    left: &IdxRelation,
    right: &IdxRelation,
    left_key: &ColumnRef,
    right_key: &ColumnRef,
    count: bool,
) -> Result<Emit<IdxRelation>> {
    let arena = cx.arena;
    if !left.covers(&left_key.table) || !right.covers(&right_key.table) {
        return Err(BasiliskError::Exec(format!(
            "join keys {left_key} / {right_key} not covered by inputs"
        )));
    }
    let build_left = left.len() <= right.len();
    let (build, probe, build_key, probe_key) = if build_left {
        (left, right, left_key, right_key)
    } else {
        (right, left, right_key, left_key)
    };

    // Both fetches happen before any other arena checkout, so an error on
    // the second fetch only has the first column to return to the pool.
    let build_col = fetch_key_column(tables, build, build_key, arena)?;
    let probe_col = match fetch_key_column(tables, probe, probe_key, arena) {
        Ok(c) => c,
        Err(e) => {
            build_col.recycle(arena);
            return Err(e);
        }
    };

    // One hash table for the whole build side (§2.5.3's "one giant hash
    // table" — in the untagged engine there are no slices to share it
    // across, but the structure is identical). CSR layout with typed
    // keys: no per-key Vec allocations, no SipHash and no `Value` per row
    // on the hot path. The table keeps no reference to the key column,
    // so the build column is dead once it's built.
    let table = JoinTable::build(&build_col, |i| i as u32);
    build_col.recycle(arena);

    let probed = cx.probe(probe.len(), count, |range, out| match out {
        Emit::Rows([build_sel, probe_sel]) => probe_range(&table, &probe_col, range, |j, rows| {
            build_sel.extend_from_slice(rows);
            probe_sel.extend(std::iter::repeat_n(j, rows.len()));
        }),
        Emit::Count(n) => probe_range(&table, &probe_col, range, |_, rows| *n += rows.len()),
    });
    probe_col.recycle(arena);
    let [build_sel, probe_sel] = match probed? {
        Emit::Rows(lists) => lists,
        Emit::Count(n) => return Ok(Emit::Count(n)),
    };

    let (left_sel, right_sel) = if build_left {
        (&build_sel, &probe_sel)
    } else {
        (&probe_sel, &build_sel)
    };
    let out = combine(left, right, left_sel, right_sel, arena);
    arena.recycle_indices(build_sel);
    arena.recycle_indices(probe_sel);
    Ok(Emit::Rows(out))
}

/// Assemble the joined relation from per-side tuple selections: every
/// output index column is checked out of the arena's column pool and
/// filled with the word-parallel gather kernel
/// ([`basilisk_types::gather_u32_into`]).
pub fn combine(
    left: &IdxRelation,
    right: &IdxRelation,
    left_sel: &[u32],
    right_sel: &[u32],
    arena: &MaskArena,
) -> IdxRelation {
    debug_assert_eq!(left_sel.len(), right_sel.len());
    let mut tables = Vec::with_capacity(left.tables().len() + right.tables().len());
    let mut cols = Vec::with_capacity(tables.capacity());
    for (side, sel) in [(left, left_sel), (right, right_sel)] {
        for (t, c) in side.tables().iter().zip(side.cols()) {
            tables.push(t.clone());
            let mut out = arena.columns().checkout(sel.len());
            basilisk_types::gather_u32_into(c, sel, &mut out);
            cols.push(Arc::new(out));
        }
    }
    IdxRelation::from_parts(tables, cols)
}

/// Gather a join-key value column into pooled value buffers. The caller
/// recycles it (`Column::recycle`) once the build/probe that consumes it
/// is done, so repeated joins materialize keys allocation-free.
fn fetch_key_column(
    tables: &TableSet,
    relation: &IdxRelation,
    key: &ColumnRef,
    arena: &MaskArena,
) -> Result<Column> {
    let handle = tables.column(key)?;
    handle.gather_in(relation.col(&key.table)?, arena)
}

/// Union with duplicate elimination — the operator BDisj appends to merge
/// per-root-clause results (§5: "an additional, potentially expensive
/// union operator is also required to filter out duplicate tuples").
/// Tuples are identified by their base-table indices; inputs must cover
/// the same tables (column order may differ); first-occurrence order is
/// preserved.
///
/// Deduplication is allocation-free per row: each tuple's fixed-width
/// (`ncols × u32`) row key is written into one pooled scratch buffer,
/// FxHash-hashed, and probed against a **persistent-capacity**
/// generation-stamped slot table ([`basilisk_types::SlotTable`], pooled
/// in the arena like the join side retains its build table) that stores
/// *output row ids* — candidate equality is checked directly against the
/// already-emitted output columns, so no per-row `Vec` key is ever
/// materialized, and repeated unions skip even the O(capacity)
/// empty-slot refill. Output columns come from the arena's column pool.
pub fn union_all_dedup(inputs: &[IdxRelation], arena: &MaskArena) -> Result<IdxRelation> {
    let Some(first) = inputs.first() else {
        return Err(BasiliskError::Exec("union of zero inputs".into()));
    };
    let ref_tables: Vec<String> = first.tables().to_vec();
    let ncols = ref_tables.len();
    let total: usize = inputs.iter().map(|r| r.len()).sum();

    // Open-addressing slot table at ≤ 50% load; `begin` inside
    // `slot_table` makes the previous union's entries vanish in O(1).
    let mut slots = arena.slot_table(total);
    let mut row = arena.indices(); // fixed-width row-key scratch
    let mut out_cols: Vec<Vec<u32>> = (0..ncols)
        .map(|_| arena.columns().checkout(total))
        .collect();
    let mut emitted = 0u32;

    let mut fold = || -> Result<()> {
        for rel in inputs {
            // Map reference column order onto this input's order.
            let perm: Vec<usize> = ref_tables
                .iter()
                .map(|t| {
                    rel.tables().iter().position(|u| u == t).ok_or_else(|| {
                        BasiliskError::Exec(format!("union input missing table {t}"))
                    })
                })
                .collect::<Result<_>>()?;
            if rel.tables().len() != ncols {
                return Err(BasiliskError::Exec(
                    "union inputs cover different table sets".into(),
                ));
            }
            for i in 0..rel.len() {
                row.clear();
                row.extend(perm.iter().map(|&p| rel.cols()[p][i]));
                let mut hasher = crate::hash::FxHasher::default();
                for &v in &row {
                    std::hash::Hasher::write_u32(&mut hasher, v);
                }
                let mut slot = std::hash::Hasher::finish(&hasher) as usize & slots.mask();
                loop {
                    let Some(e) = slots.get(slot) else {
                        slots.set(slot, emitted);
                        for (c, &v) in out_cols.iter_mut().zip(&row) {
                            c.push(v);
                        }
                        emitted += 1;
                        break;
                    };
                    if out_cols.iter().zip(&row).all(|(c, &v)| c[e as usize] == v) {
                        break; // duplicate
                    }
                    slot = (slot + 1) & slots.mask();
                }
            }
        }
        Ok(())
    };
    let folded = fold();
    arena.recycle_slot_table(slots);
    arena.recycle_indices(row);
    if let Err(e) = folded {
        // Failed unions must not leak pooled output columns.
        for c in out_cols {
            arena.columns().recycle_vec(c);
        }
        return Err(e);
    }
    Ok(IdxRelation::from_parts(
        ref_tables,
        out_cols.into_iter().map(Arc::new).collect(),
    ))
}

/// Projection: materialize the requested columns' values for every tuple
/// into pooled value buffers — every output column's typed payload (and
/// validity bitmap) comes from the arena, closing the last per-execute
/// allocation on the serving path. The produced columns must
/// return through `Column::recycle` — the session defers result columns
/// and sweeps them once the caller releases the output. A failing later
/// column recycles the earlier ones before propagating.
pub fn project_in(
    tables: &TableSet,
    relation: &IdxRelation,
    columns: &[ColumnRef],
    arena: &MaskArena,
) -> Result<Vec<(ColumnRef, Column)>> {
    let mut out: Vec<(ColumnRef, Column)> = Vec::with_capacity(columns.len());
    for cref in columns {
        let gathered = tables
            .column(cref)
            .and_then(|handle| handle.gather_in(relation.col(&cref.table)?, arena));
        match gathered {
            Ok(col) => out.push((cref.clone(), col)),
            Err(e) => {
                for (_, col) in out {
                    col.recycle(arena);
                }
                return Err(e);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_expr::{and, col, or, PredicateTree};
    use basilisk_storage::{Table, TableBuilder};
    use basilisk_types::{DataType, MaskArena, Value};

    fn title() -> Arc<Table> {
        let mut b = TableBuilder::new("title")
            .column("id", DataType::Int)
            .column("year", DataType::Int);
        for (id, year) in [(1, 2008), (2, 2001), (3, 1994), (4, 1994), (5, 1972)] {
            b.push_row(vec![(id as i64).into(), (year as i64).into()])
                .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn scores() -> Arc<Table> {
        let mut b = TableBuilder::new("scores")
            .column("movie_id", DataType::Int)
            .column("score", DataType::Str);
        for (mid, s) in [(1, "9.0"), (3, "9.3"), (4, "8.9"), (5, "9.2"), (6, "7.5")] {
            b.push_row(vec![(mid as i64).into(), s.into()]).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn tset() -> TableSet {
        TableSet::from_tables(vec![("t".into(), title()), ("s".into(), scores())])
    }

    /// A base relation over a throwaway arena.
    fn base(alias: &str, rows: usize) -> IdxRelation {
        IdxRelation::base_in(alias, rows, &MaskArena::new())
    }

    /// The relation of an operator asked for rows.
    fn rows(emitted: Result<Emit<IdxRelation>>) -> IdxRelation {
        match emitted.unwrap() {
            Emit::Rows(rel) => rel,
            Emit::Count(n) => panic!("asked for rows, got a count of {n}"),
        }
    }

    /// The count of an operator asked for a count.
    fn counted(emitted: Result<Emit<IdxRelation>>) -> usize {
        match emitted.unwrap() {
            Emit::Count(n) => n,
            Emit::Rows(_) => panic!("asked for a count, got rows"),
        }
    }

    #[test]
    fn filter_keeps_true_rows() {
        let ts = tset();
        let rel = base("t", 5);
        let tree = PredicateTree::build(&col("t", "year").gt(2000i64));
        let arena = MaskArena::new();
        let out = rows(filter(
            &ExecCtx::serial(&arena),
            &ts,
            &rel,
            &tree,
            tree.root(),
            false,
        ));
        assert_eq!(out.len(), 2);
        assert_eq!(**out.col("t").unwrap(), vec![0, 1]);
    }

    #[test]
    fn filter_complex_predicate() {
        let ts = tset();
        let rel = base("t", 5);
        let e = or(vec![
            col("t", "year").gt(2000i64),
            col("t", "year").lt(1980i64),
        ]);
        let tree = PredicateTree::build(&e);
        let arena = MaskArena::new();
        let cx = ExecCtx::serial(&arena);
        let out = rows(filter(&cx, &ts, &rel, &tree, tree.root(), false));
        assert_eq!(out.len(), 3); // 2008, 2001, 1972
        assert_eq!(counted(filter(&cx, &ts, &rel, &tree, tree.root(), true)), 3);
        out.recycle(&arena);
        assert_eq!(
            arena.outstanding(),
            0,
            "a count keeps no buffer checked out"
        );
    }

    #[test]
    fn hash_join_matches_keys() {
        let ts = tset();
        let t = base("t", 5);
        let s = base("s", 5);
        let arena = MaskArena::new();
        let join = |count| {
            hash_join(
                &ExecCtx::serial(&arena),
                &ts,
                &t,
                &s,
                &ColumnRef::new("t", "id"),
                &ColumnRef::new("s", "movie_id"),
                count,
            )
        };
        let out = rows(join(false));
        // t ids 1..5 join s movie_ids {1,3,4,5,6} → 4 matches.
        assert_eq!(out.len(), 4);
        assert_eq!(counted(join(true)), 4, "counting sees the same matches");
        assert_eq!(out.tables(), &["t".to_string(), "s".to_string()]);
        // verify a concrete pair: t.id=1 ↔ s.movie_id=1
        let tcol = out.col("t").unwrap();
        let scol = out.col("s").unwrap();
        let pos = (0..out.len()).find(|&i| tcol[i] == 0).unwrap();
        assert_eq!(scol[pos], 0);
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let mut b = TableBuilder::new("l").column("k", DataType::Int);
        b.push_row(vec![Value::Null]).unwrap();
        b.push_row(vec![1i64.into()]).unwrap();
        let l = Arc::new(b.finish().unwrap());
        let mut b = TableBuilder::new("r").column("k", DataType::Int);
        b.push_row(vec![Value::Null]).unwrap();
        b.push_row(vec![1i64.into()]).unwrap();
        let r = Arc::new(b.finish().unwrap());
        let ts = TableSet::from_tables(vec![("l".into(), l), ("r".into(), r)]);
        let arena = MaskArena::new();
        for count in [false, true] {
            let out = hash_join(
                &ExecCtx::serial(&arena),
                &ts,
                &base("l", 2),
                &base("r", 2),
                &ColumnRef::new("l", "k"),
                &ColumnRef::new("r", "k"),
                count,
            );
            let n = if count { counted(out) } else { rows(out).len() };
            assert_eq!(n, 1, "only the 1=1 pair; NULL≠NULL");
        }
    }

    #[test]
    fn join_key_not_covered_errors() {
        let ts = tset();
        let t = base("t", 5);
        let s = base("s", 5);
        let arena = MaskArena::new();
        assert!(hash_join(
            &ExecCtx::serial(&arena),
            &ts,
            &t,
            &s,
            &ColumnRef::new("s", "movie_id"),
            &ColumnRef::new("t", "id"),
            false,
        )
        .is_err());
    }

    #[test]
    fn union_dedups_across_inputs() {
        let arena = MaskArena::new();
        let a = base("t", 5).select_in(&[0, 1, 2], &arena);
        let b = base("t", 5).select_in(&[2, 3], &arena);
        let u = union_all_dedup(&[a, b], &arena).unwrap();
        assert_eq!(u.len(), 4);
        let mut rows: Vec<u32> = u.col("t").unwrap().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 2, 3]);
    }

    #[test]
    fn union_handles_column_order_permutation() {
        // Build two joined relations with swapped table order.
        let ts = tset();
        let t = base("t", 5);
        let s = base("s", 5);
        let lk = ColumnRef::new("t", "id");
        let rk = ColumnRef::new("s", "movie_id");
        let arena = MaskArena::new();
        let cx = ExecCtx::serial(&arena);
        let ab = rows(hash_join(&cx, &ts, &t, &s, &lk, &rk, false));
        let ba = rows(hash_join(&cx, &ts, &s, &t, &rk, &lk, false));
        let u = union_all_dedup(&[ab.clone(), ba], &arena).unwrap();
        assert_eq!(u.len(), ab.len(), "identical content dedups fully");
    }

    #[test]
    fn union_rejects_mismatched_tables() {
        let a = base("t", 3);
        let b = base("u", 3);
        let arena = MaskArena::new();
        assert!(union_all_dedup(&[a, b], &arena).is_err());
        assert!(union_all_dedup(&[], &arena).is_err());
        assert_eq!(arena.outstanding(), 0, "failed unions leak no buffers");
    }

    /// The open-addressing dedup must agree with the obvious slow path
    /// (`HashSet<Vec<u32>>` in first-occurrence order) on randomized
    /// inputs — duplicate-heavy, multi-column, and with permuted column
    /// order between inputs.
    #[test]
    fn union_dedup_matches_slow_path_on_randomized_inputs() {
        fn xorshift(state: &mut u64) -> u64 {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        }

        fn slow_union(inputs: &[IdxRelation]) -> Vec<Vec<u32>> {
            let ref_tables = inputs[0].tables().to_vec();
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for rel in inputs {
                let perm: Vec<usize> = ref_tables
                    .iter()
                    .map(|t| rel.tables().iter().position(|u| u == t).unwrap())
                    .collect();
                for i in 0..rel.len() {
                    let tuple: Vec<u32> = perm.iter().map(|&p| rel.cols()[p][i]).collect();
                    if seen.insert(tuple.clone()) {
                        out.push(tuple);
                    }
                }
            }
            out
        }

        let arena = MaskArena::new();
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for trial in 0..20 {
            // Small value domain → lots of duplicates within and across
            // inputs; varying sizes exercise the power-of-two table.
            let domain = 1 + (xorshift(&mut state) % 40) as u32;
            let make = |state: &mut u64, n: usize, swap: bool| {
                let a: Vec<u32> = (0..n).map(|_| xorshift(state) as u32 % domain).collect();
                let b: Vec<u32> = (0..n).map(|_| xorshift(state) as u32 % domain).collect();
                let (tables, cols) = if swap {
                    (vec!["y".to_string(), "x".to_string()], vec![b, a])
                } else {
                    (vec!["x".to_string(), "y".to_string()], vec![a, b])
                };
                IdxRelation::from_parts(tables, cols.into_iter().map(Arc::new).collect())
            };
            let n1 = (xorshift(&mut state) % 200) as usize;
            let n2 = (xorshift(&mut state) % 200) as usize;
            let inputs = vec![
                make(&mut state, n1, false),
                make(&mut state, n2, trial % 2 == 0),
            ];
            let got = union_all_dedup(&inputs, &arena).unwrap();
            let got_tuples: Vec<Vec<u32>> = (0..got.len()).map(|i| got.tuple(i)).collect();
            assert_eq!(
                got_tuples,
                slow_union(&inputs),
                "trial {trial} (domain {domain}, sizes {n1}/{n2})"
            );
        }
    }

    #[test]
    fn project_materializes_values() {
        let ts = tset();
        let arena = MaskArena::new();
        let rel = base("t", 5).select_in(&[4, 0], &arena);
        let out = project_in(
            &ts,
            &rel,
            &[ColumnRef::new("t", "id"), ColumnRef::new("t", "year")],
            &arena,
        )
        .unwrap();
        assert_eq!(out[0].1.as_ints().unwrap(), &[5, 1]);
        assert_eq!(out[1].1.as_ints().unwrap(), &[1972, 2008]);
    }

    /// End-to-end Query 1 under traditional execution, all predicates
    /// applied after the join (the "no optimization" baseline of §1).
    #[test]
    fn query1_join_then_filter() {
        let ts = tset();
        let arena = MaskArena::new();
        let cx = ExecCtx::serial(&arena);
        let joined = rows(hash_join(
            &cx,
            &ts,
            &base("t", 5),
            &base("s", 5),
            &ColumnRef::new("t", "id"),
            &ColumnRef::new("s", "movie_id"),
            false,
        ));
        let q1 = or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("s", "score").gt("7.0"),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("s", "score").gt("8.0"),
            ]),
        ]);
        let tree = PredicateTree::build(&q1);
        let out = rows(filter(&cx, &ts, &joined, &tree, tree.root(), false));
        // Matches: (1,2008,9.0) via both clauses; (3,1994,9.3) and
        // (4,1994,8.9) via clause 2. Movie 5 (1972) fails both.
        assert_eq!(out.len(), 3);
    }
}
