//! The per-execution context and its morsel-parallel drivers.
//!
//! [`ExecCtx`] is what every operator — tagged or traditional — runs
//! against: the session arena, an optional [`WorkerPool`] and an optional
//! per-request [`Tracer`]. **Serial is `pool: None`, untraced is
//! `tracer: None`**; there are no `_par`/`_traced` operator twins. The
//! two drivers here are the only places an operator fans out:
//! [`ExecCtx::eval_mask`] splits a predicate evaluation into
//! [`Morsel`](basilisk_types::Morsel)s and [`ExecCtx::probe`] splits a
//! join probe into chunks, each run on the pool's workers against
//! per-worker arenas and merged **in morsel order** — word-range
//! stitching for masks (disjoint word ranges mean the merge is
//! concatenation, not re-intersection) and an in-order fold of what each
//! probe chunk [`Emit`]ted — concatenated match lists, or summed match
//! counts when the join is the root of a `COUNT(*)` plan — so parallel
//! output is indistinguishable from serial output. Both take the serial
//! kernel directly when there is no pool or the input fits one morsel,
//! which is why `workers == 1` *is* the serial engine, bit for bit.
//!
//! Arena discipline (see `basilisk-sched`): workers check scratch out of
//! *their own* arena; per-morsel results ride back to the coordinating
//! thread tagged with the producing worker id and are recycled into that
//! worker's arena after merging. The coordinator's own scratch (the
//! stitched mask, the concatenated selection vectors) comes from the
//! session arena, exactly like the serial path — which is why session
//! steady-state stats stay at `fresh() == 0` in parallel mode too.
//!
//! The context holds the `!Sync` tracer, so it cannot be captured by a
//! task closure: a task body that needs a context builds
//! [`ExecCtx::serial`] over its worker arena, which makes "tasks never
//! re-enter the pool" (ownership rule 4) a property of the types. What
//! tasks may share is a `Sync` [`EvalTally`]: a traced evaluation's
//! morsels add their per-atom counts into it, and the coordinator turns
//! it into `atom` spans once the region has retired.

use std::time::{Duration, Instant};

use basilisk_expr::eval::{eval_node_mask_morsel, ColumnProvider, EvalTally};
use basilisk_expr::{ExprId, PredicateTree};
use basilisk_sched::WorkerPool;
use basilisk_types::{Bitmap, MaskArena, Morsel, Result, Tracer, TruthMask};

use crate::hash::JoinTable;

/// What one plan execution runs against (see the module docs).
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    /// The session arena: every buffer that outlives an operator call
    /// is checked out here.
    pub arena: &'a MaskArena,
    /// `Some` fans filters and probes out over the pool's workers and
    /// lets the plan driver ship small subtrees; `None` is the serial
    /// engine.
    pub pool: Option<&'a WorkerPool>,
    /// `Some` records one span per operator on the calling thread.
    pub tracer: Option<&'a Tracer>,
}

impl<'a> ExecCtx<'a> {
    /// The serial, untraced context over `arena` — what tests, benches
    /// and shipped task bodies run against.
    pub fn serial(arena: &'a MaskArena) -> ExecCtx<'a> {
        ExecCtx {
            arena,
            pool: None,
            tracer: None,
        }
    }

    /// The pool, when a relation of `len` rows would actually fan out
    /// on it (more than one worker *and* more than one morsel).
    fn fan_out(&self, len: usize) -> Option<&'a WorkerPool> {
        self.pool.filter(|p| p.would_parallelize(len))
    }

    /// Evaluate a predicate subtree over the rows selected by `sel` into
    /// a relation-length mask checked out of the session arena — one
    /// morsel per task, stitched, when the pool and `sel` warrant it.
    ///
    /// The provider is shared by every worker (hence the `Sync` bound):
    /// [`RelProvider`](crate::RelProvider)'s sharded column cache lets
    /// sparse selections keep their page-selective `fetch_at` read path
    /// from worker threads — columns are gathered once by whichever
    /// worker asks first and shared by the rest, instead of being
    /// dense-prefetched on the coordinator.
    ///
    /// This is the one place operators evaluate predicates, so it is
    /// also the one place `atom` spans come from: a traced evaluation
    /// hands an [`EvalTally`] to the kernel (every morsel task adds into
    /// it through `&`; the tracer never leaves this thread) and then
    /// reports it under the innermost open span (`report_atoms`).
    pub fn eval_mask(
        &self,
        tree: &PredicateTree,
        id: ExprId,
        provider: &(impl ColumnProvider + Sync),
        sel: &Bitmap,
    ) -> Result<TruthMask> {
        let traced = self
            .tracer
            .map(|t| (t, EvalTally::new(tree), Instant::now()));
        let tally = traced.as_ref().map(|(_, tally, _)| tally);
        let n = sel.len();
        let out = (|| {
            let Some(pool) = self.fan_out(n) else {
                let all = Morsel::full(n);
                return eval_node_mask_morsel(tree, id, provider, sel, self.arena, all, tally);
            };
            let morsels = pool.morsels(n);
            let results = pool.run(
                morsels.clone(),
                |w, m| eval_node_mask_morsel(tree, id, provider, sel, w.arena, m, tally),
                |worker_arena, mask| worker_arena.recycle_mask(mask),
            )?;
            let mut out = self.arena.mask(n);
            for (m, (worker, mask)) in morsels.into_iter().zip(results) {
                out.stitch(m, &mask);
                pool.with_arena(worker, |a| a.recycle_mask(mask));
            }
            Ok(out)
        })();
        if let Some((t, tally, start)) = &traced {
            report_atoms(t, tree, id, n, tally, *start);
        }
        out
    }

    /// Run a join probe over `0..probe_len` and return what it emitted:
    /// `N` parallel match lists checked out of the session arena (the
    /// caller recycles them with `recycle_indices`), or with `count`
    /// only the number of matches. `probe` adds the matches of one
    /// contiguous range of probe positions to the accumulator it is
    /// handed — pushing onto [`Emit::Rows`] lists or bumping
    /// [`Emit::Count`]. Serially it runs once over the whole range,
    /// straight into the output; when the probe side fans out it runs
    /// per morsel-sized chunk into a worker-arena accumulator, and the
    /// chunks fold **in chunk order** — lists concatenate in the order
    /// the serial loop emits, counts add.
    pub fn probe<const N: usize>(
        &self,
        probe_len: usize,
        count: bool,
        probe: impl Fn(std::ops::Range<usize>, &mut Emit<[Vec<u32>; N]>) + Sync,
    ) -> Result<Emit<[Vec<u32>; N]>> {
        let start = |arena: &MaskArena| {
            if count {
                Emit::Count(0)
            } else {
                Emit::Rows(std::array::from_fn(|_| arena.indices()))
            }
        };
        let Some(pool) = self.fan_out(probe_len) else {
            let mut out = start(self.arena);
            probe(0..probe_len, &mut out);
            return Ok(out);
        };
        let chunks = pool
            .morsels(probe_len)
            .into_iter()
            .map(|m| m.start()..m.end())
            .collect();
        let results = pool.run(
            chunks,
            |w, range| {
                let mut acc = start(w.arena);
                probe(range, &mut acc);
                Ok(acc)
            },
            recycle_lists,
        )?;
        let mut out = start(self.arena);
        for (worker, chunk) in results {
            match (&mut out, &chunk) {
                (Emit::Rows(out), Emit::Rows(lists)) => {
                    for (o, l) in out.iter_mut().zip(lists) {
                        o.extend_from_slice(l);
                    }
                }
                (Emit::Count(out), Emit::Count(n)) => *out += n,
                _ => unreachable!("every chunk starts as the probe's own output"),
            }
            pool.with_arena(worker, |a| recycle_lists(a, chunk));
        }
        Ok(out)
    }
}

/// What a join or a plain filter emits. The caller chooses with the
/// operator's `count` argument: a plan's root asks for a count when its
/// statement is `COUNT(*)`, every other operator asks for rows.
#[derive(Debug)]
pub enum Emit<R> {
    /// The output relation (or, inside [`ExecCtx::probe`], the match
    /// lists it is assembled from).
    Rows(R),
    /// How many tuples that output holds. Nothing was materialized: no
    /// selection vectors, no output columns.
    Count(usize),
}

fn recycle_lists<const N: usize>(arena: &MaskArena, emitted: Emit<[Vec<u32>; N]>) {
    if let Emit::Rows(lists) = emitted {
        for l in lists {
            arena.recycle_indices(l);
        }
    }
}

/// Report a tallied evaluation of subtree `id` over `lanes` lanes, begun
/// at `start`, under the innermost open span (the evaluating operator):
/// one closed `atom` child per atom, in the order the atoms first appear
/// in the predicate, laid end to end from `start` — durations scaled
/// down when a fanned-out evaluation's workers together spent longer
/// than its wall time, so children stay inside their parent — plus the
/// summed zone-map verdicts as the parent's `zone_skips`/`zone_scans`.
/// `lanes_short_circuited` counts every lane the atom was not evaluated
/// on: outside the selection, or in a morsel a fold had saturated.
fn report_atoms(
    t: &Tracer,
    tree: &PredicateTree,
    id: ExprId,
    lanes: usize,
    tally: &EvalTally,
    start: Instant,
) {
    let atoms: Vec<_> = tree
        .atoms_under(id)
        .into_iter()
        .map(|a| (a, tally.atom(a)))
        .collect();
    let wall = start.elapsed().as_nanos();
    let spent = atoms.iter().map(|(_, c)| u128::from(c.nanos)).sum::<u128>();
    let (mut at, mut zones) = (start, [0, 0]);
    for (a, c) in atoms {
        let nanos = u128::from(c.nanos) * wall / spent.max(wall).max(1);
        let took = Duration::from_nanos(nanos as u64);
        let s = t.record("atom", at, took);
        at += took;
        t.attr(s, "atom", tree.display(a));
        t.attr(s, "lanes_evaluated", c.lanes_evaluated);
        t.attr(
            s,
            "lanes_short_circuited",
            (lanes as u64).saturating_sub(c.lanes_evaluated),
        );
        t.attr(s, "true_count", c.true_count);
        t.attr(s, "unknown_count", c.unknown_count);
        zones = [zones[0] + c.zone_skips, zones[1] + c.zone_scans];
    }
    let parent = t.current();
    t.attr(parent, "zone_skips", zones[0]);
    t.attr(parent, "zone_scans", zones[1]);
}

/// The probe half of a hash join over one contiguous range of probe
/// positions: hand `emit` every position `j` in `range` whose key has
/// matches, with the build rows that match it. Both the serial join and
/// each parallel probe task run exactly this loop, so chunked outputs
/// folded in range order equal the serial output.
pub(crate) fn probe_range(
    table: &JoinTable,
    probe_col: &basilisk_storage::Column,
    range: std::ops::Range<usize>,
    mut emit: impl FnMut(u32, &[u32]),
) {
    for j in range {
        let rows = table.probe_at(probe_col, j);
        if !rows.is_empty() {
            emit(j as u32, rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{IdxRelation, RelProvider, TableSet};
    use basilisk_expr::eval::eval_node_mask;
    use basilisk_expr::{and, col, not, or};
    use basilisk_storage::TableBuilder;
    use basilisk_types::{DataType, Value};
    use std::sync::Arc;

    fn parallel<'a>(arena: &'a MaskArena, pool: &'a WorkerPool) -> ExecCtx<'a> {
        ExecCtx {
            arena,
            pool: Some(pool),
            tracer: None,
        }
    }

    fn tset(rows: usize) -> TableSet {
        let mut b = TableBuilder::new("t")
            .column("id", DataType::Int)
            .column("year", DataType::Int)
            .column("name", DataType::Str);
        for i in 0..rows as i64 {
            let year = if i % 19 == 0 {
                Value::Null
            } else {
                Value::Int(1900 + i % 120)
            };
            b.push_row(vec![i.into(), year, format!("n{}", i % 37).into()])
                .unwrap();
        }
        TableSet::from_tables(vec![("t".into(), Arc::new(b.finish().unwrap()))])
    }

    /// The pinned differential: parallel eval over many morsels equals
    /// serial eval lane-for-lane, across connectives, NULLs, strings and
    /// a non-word-aligned tail.
    #[test]
    fn parallel_eval_equals_serial() {
        let rows = 1000; // not a multiple of 64 → ragged tail morsel
        let ts = tset(rows);
        let rel = IdxRelation::base_in("t", rows, &MaskArena::new());
        let tree = PredicateTree::build(&or(vec![
            and(vec![
                col("t", "year").gt(1980i64),
                col("t", "name").like("%3%"),
            ]),
            col("t", "year").lt(1910i64),
            not(col("t", "year").is_null()),
        ]));
        let serial_arena = MaskArena::new();
        let provider = RelProvider::new(&ts, &rel);
        let sel = Bitmap::from_indices(rows, (0..rows).filter(|i| i % 3 != 1));
        let serial = eval_node_mask(&tree, tree.root(), &provider, &sel, &serial_arena).unwrap();

        for workers in [2, 3, 8] {
            let pool = WorkerPool::new(workers).with_morsel_rows(128);
            let arena = MaskArena::new();
            let provider = RelProvider::new(&ts, &rel);
            let par = parallel(&arena, &pool)
                .eval_mask(&tree, tree.root(), &provider, &sel)
                .unwrap();
            assert_eq!(
                par.to_truths(),
                serial.to_truths(),
                "{workers} workers diverged"
            );
            arena.recycle_mask(par);
            assert_eq!(arena.outstanding(), 0);
            assert_eq!(pool.outstanding(), 0, "worker arenas drained");
        }
        serial_arena.recycle_mask(serial);
    }

    /// Single-worker pools and single-morsel relations take the serial
    /// path (no prefetch, no spawn) and still agree.
    #[test]
    fn parallel_eval_degenerate_cases() {
        let rows = 200;
        let ts = tset(rows);
        let rel = IdxRelation::base_in("t", rows, &MaskArena::new());
        let tree = PredicateTree::build(&col("t", "year").gt(1950i64));
        let sel = Bitmap::all_set(rows);
        let arena = MaskArena::new();
        let provider = RelProvider::new(&ts, &rel);
        let serial = eval_node_mask(&tree, tree.root(), &provider, &sel, &arena).unwrap();
        for pool in [
            WorkerPool::new(1).with_morsel_rows(64),
            WorkerPool::new(4), // default morsels ≫ 200 rows → one morsel
        ] {
            let provider = RelProvider::new(&ts, &rel);
            let m = parallel(&arena, &pool)
                .eval_mask(&tree, tree.root(), &provider, &sel)
                .unwrap();
            assert_eq!(m.to_truths(), serial.to_truths());
            arena.recycle_mask(m);
        }
        arena.recycle_mask(serial);
        assert_eq!(arena.outstanding(), 0);
    }

    /// A mid-evaluation type error (Str column vs Int literal) inside
    /// worker tasks must strand nothing in any arena.
    #[test]
    fn parallel_eval_error_leaks_nothing() {
        let rows = 600;
        let ts = tset(rows);
        let rel = IdxRelation::base_in("t", rows, &MaskArena::new());
        // First disjunct evaluates fine; second explodes at eval time.
        let tree = PredicateTree::build(&or(vec![
            col("t", "year").gt(1950i64),
            col("t", "name").gt(5i64),
        ]));
        let pool = WorkerPool::new(3).with_morsel_rows(64);
        let arena = MaskArena::new();
        let provider = RelProvider::new(&ts, &rel);
        let sel = Bitmap::all_set(rows);
        let err = parallel(&arena, &pool).eval_mask(&tree, tree.root(), &provider, &sel);
        assert!(err.is_err(), "type mismatch must fail evaluation");
        assert_eq!(arena.outstanding(), 0, "session arena drained");
        assert_eq!(pool.outstanding(), 0, "every worker arena drained");
    }
}
