//! Morsel-driven parallel execution for tagged plans, on a **resident**
//! worker pool with **interleaved parallel regions**.
//!
//! Basilisk's hot path is allocation-free and word-parallel *per core*;
//! this crate is how it uses more than one core. The model is
//! morsel-driven scheduling (Leis et al., SIGMOD 2014) specialized to the
//! bitmap-sliced tagged engine:
//!
//! * **Morsels** — base relations are split into fixed-size row ranges
//!   ([`Morsel`], default 64 Ki rows) aligned to the 64-bit words of every
//!   [`TruthMask`](basilisk_types::TruthMask)/
//!   [`Bitmap`](basilisk_types::Bitmap) over the relation. Alignment is
//!   what makes the merge trivial: each morsel owns a **disjoint word
//!   range**, so stitching per-morsel results into a relation-length mask
//!   is word concatenation
//!   ([`TruthMask::stitch`](basilisk_types::TruthMask::stitch)) — never a
//!   re-intersection, and never a data race.
//!
//! * **Work stealing** — [`WorkerPool::run`] distributes tasks into
//!   per-worker deques. A worker drains its own deque from the front
//!   (preserving the cache-friendly ascending row order of its block) and
//!   steals from the *back* of a victim's deque when it runs dry, so
//!   skewed morsels (one worker's rows all match, another's none) still
//!   load-balance. Results are returned in task order, which is how
//!   parallel output stays **bit-for-bit equal** to serial output:
//!   producing `results[i]` for morsel `i` commutes with who computed it.
//!
//! * **Region-tagged scheduling** — a parallel region is no longer an
//!   exclusive epoch. [`WorkerPool::run`] publishes its type-erased job
//!   into a free slot of a fixed **region table**, stamped with a
//!   monotonically increasing region id. Workers drain a *mixed* queue:
//!   each worker scans the table for regions it has not executed yet
//!   (a per-worker `seen` stamp keeps the join-once guarantee without
//!   allocation), runs the region's work-stealing body against its own
//!   arena, and moves on to the next live region. Completion accounting
//!   is **per region**: each slot counts the workers currently inside its
//!   body, and the last one out retires the slot (the body only returns
//!   once the region's deques are drained or its stop flag is set) and
//!   wakes the region's coordinator. Concurrent `run` calls from
//!   different sessions therefore fan out **simultaneously** — the only
//!   wait left is for a free slot when more regions are in flight than
//!   the table holds, and that wait is counted and timed
//!   ([`WorkerPool::region_stats`]).
//!
//! * **Resident threads** — the pool spawns its `workers` threads once,
//!   at the first region that fans out, and parks them on a condvar when
//!   the region table is empty. The coordinator publishes and waits; it
//!   never executes task bodies itself, so a session blocked in `run` is
//!   exactly a session whose region is being executed by the resident
//!   set. Waking a parked thread costs a condvar signal instead of a
//!   `clone`+`mmap`+schedule, so short parallel regions stop paying spawn
//!   cost — and because the threads persist, one pool serves regions from
//!   **many sessions over its lifetime** (the serving layer shares one
//!   `Arc<WorkerPool>` across every execution context).
//!
//! * **Per-worker arenas** — each worker *owns* a private
//!   [`MaskArena`]. Arenas are `Send` but deliberately not `Sync`; each
//!   lives behind its own `Mutex` that is only ever locked by its worker
//!   for the span of one region body (uncontended by construction) or by
//!   a coordinator recycling results between bodies. A worker that
//!   interleaves tasks from two regions still uses **one arena** — it
//!   runs one region's body to completion before claiming the next, so
//!   checkouts from different regions never interleave *within* a body,
//!   and buffers that escape a body are tagged with the producing worker
//!   id. The ownership rule every parallel operator follows:
//!
//!   1. a worker checks morsel-local buffers out of **its own** arena;
//!   2. buffers that survive the task (the per-morsel result) are
//!      returned to the caller **tagged with the producing worker id**;
//!   3. the caller stitches them into session-arena buffers and recycles
//!      each one **back into the arena it came from**
//!      ([`WorkerPool::with_arena`]), keeping every arena's
//!      [`outstanding()`](MaskArena::outstanding) accounting exact.
//!
//!   Error and discard routing is **per region**: each region's stop
//!   flag, error slot and produced-result set live on its coordinator's
//!   stack, so a failure in one region routes exactly that region's
//!   results through its caller's `discard` callback (per producing
//!   worker) while unrelated regions proceed untouched.
//!
//! `workers == 1` (or a single task) runs inline on the calling thread —
//! the serial path, exactly; a one-worker pool never spawns a thread.
//! Pools with more than one worker keep a dedicated **inline arena**
//! (index `workers`) for the single-task path, so tiny queries never
//! contend with resident workers mid-region. Dropping the pool signals
//! shutdown and joins the resident threads.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

// All lock/atomic types come from the façade, never `std::sync`
// directly (enforced by basilisk-lint): normal builds get the std
// originals re-exported at zero cost, `--cfg basilisk_check` builds get
// the schedule-exploring instrumented runtime.
use basilisk_types::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use basilisk_types::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};
use basilisk_types::{BasiliskError, Histogram, MaskArena, Result, DEFAULT_MORSEL_ROWS};

pub use basilisk_types::Morsel;

/// Default size of the region table: how many parallel regions can be in
/// flight on one pool before a new [`WorkerPool::run`] waits for a slot.
/// Sized comfortably above the serving layer's default context count so
/// slot waits are an overload signal, not steady-state behavior.
pub const DEFAULT_REGION_SLOTS: usize = 16;

/// Number of power-of-two buckets in the region slot-wait histogram:
/// bucket `i` counts waits in `[2^i, 2^(i+1))` microseconds (bucket 0
/// additionally takes sub-microsecond waits, the last bucket everything
/// slower). An alias of the shared [`basilisk_types::Histogram`] shape,
/// which also records the serving layer's latency histogram.
pub const REGION_WAIT_BUCKETS: usize = basilisk_types::HISTOGRAM_BUCKETS;

/// What a task closure sees: the executing worker's id and its private
/// arena. Buffers checked out here must either be recycled here or
/// escape inside the task's result (the caller then recycles them via
/// [`WorkerPool::with_arena`] with the result's worker id).
pub struct WorkerCtx<'a> {
    pub worker: usize,
    pub arena: &'a MaskArena,
}

/// A region's type-erased job: a pointer to a `Fn(worker, arena)` body
/// living on the coordinating caller's stack. Validity is guaranteed by
/// the region protocol — a worker only dereferences the pointer between
/// incrementing the slot's `running` count (under the scheduler lock) and
/// decrementing it, and the coordinator does not leave
/// [`WorkerPool::run`] until the slot is retired, which requires
/// `running == 0`; the pointee therefore outlives every dereference.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize, &MaskArena) + Sync));

// SAFETY: the pointee is `Sync` (shared by every worker that joins the
// region) and the region protocol bounds its lifetime; the pointer itself
// is just an address carried to the worker threads.
unsafe impl Send for Job {}

/// One entry of the region table. `id == 0` means free; live slots carry
/// the region's epoch-stamped id, its job, and the number of workers
/// currently inside its body.
struct RegionSlot {
    id: u64,
    job: Option<Job>,
    running: usize,
}

struct SchedState {
    slots: Vec<RegionSlot>,
    /// Monotonic region id allocator; never reused, so a stale per-worker
    /// `seen` stamp can never alias a new region.
    next_id: u64,
    /// Occupied slots right now.
    active: usize,
    /// High-water mark of simultaneously live regions.
    max_active: u64,
    shutdown: bool,
}

/// Lock-free counters behind [`WorkerPool::region_stats`].
struct RegionCounters {
    regions: AtomicU64,
    waits: AtomicU64,
    wait_hist: Histogram,
}

/// A point-in-time copy of the pool's region-scheduling counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionStats {
    /// Fanned-out parallel regions admitted (inline runs not counted).
    pub regions: u64,
    /// Regions that had to wait for a free region-table slot.
    pub waits: u64,
    /// Total microseconds spent waiting for a slot.
    pub wait_total_micros: u64,
    /// Power-of-two microsecond buckets of individual slot waits.
    pub wait_buckets: [u64; REGION_WAIT_BUCKETS],
    /// Size of the region table.
    pub slots: u64,
    /// Highest number of simultaneously live regions observed.
    pub max_concurrent: u64,
}

/// A point-in-time copy of the pool's execution counters (see
/// [`WorkerPool::sched_stats`]): how much work the resident set did and
/// how it was scheduled, the raw material for the `/v1/metrics`
/// `basilisk_sched_*` families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Configured worker count.
    pub workers: u64,
    /// Tasks executed (morsel and subtree closures), inline path included.
    pub tasks: u64,
    /// Tasks claimed from another worker's deque (work stealing).
    pub steals: u64,
    /// Times a resident worker parked on the work condvar. Unlike the
    /// other counters this one can still advance after `run` returns: a
    /// worker parks once it finds the region table empty, which may be
    /// after the region it served (or never joined) has retired.
    pub parks: u64,
    /// Wakeup broadcasts issued by region publication.
    pub notifies: u64,
    /// Busy microseconds per arena (index `workers` is the inline arena
    /// on multi-worker pools).
    pub busy_micros: Vec<u64>,
}

thread_local! {
    /// Region id most recently fanned out *from this thread* (a
    /// coordinator publishing a region records it here before blocking).
    /// Zero until the thread coordinates its first region.
    static LAST_REGION_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The id of the parallel region most recently fanned out by the calling
/// thread (0 before any). Region ids are pool-global, monotonically
/// increasing and never reused; the plan walker stamps them onto
/// operator trace spans right after a parallel operator returns.
pub fn last_region_id() -> u64 {
    LAST_REGION_ID.with(|c| c.get())
}

/// Lock-free execution counters behind [`WorkerPool::sched_stats`]:
/// what the pool's threads actually did, as opposed to the region
/// admission accounting in [`RegionCounters`]. All relaxed — observability
/// only, never synchronization.
struct SchedCounters {
    /// Tasks executed (morsel and subtree closures), inline path included.
    tasks: AtomicU64,
    /// Tasks claimed from another worker's deque.
    steals: AtomicU64,
    /// Times a resident worker parked on the work condvar.
    parks: AtomicU64,
    /// Wakeup broadcasts issued by region publication.
    notifies: AtomicU64,
    /// Per-arena busy time (µs inside region bodies / inline runs);
    /// index `workers` is the inline arena on multi-worker pools.
    busy_micros: Vec<AtomicU64>,
}

struct Shared {
    /// One arena per worker, plus (on multi-worker pools) a trailing
    /// inline arena at index `workers` for the single-task fast path.
    /// Each mutex is uncontended by design: locked by its worker for the
    /// span of one region body, and by coordinators only to recycle
    /// escaped buffers.
    arenas: Vec<Mutex<MaskArena>>,
    state: Mutex<SchedState>,
    /// Workers park here when the region table has nothing for them.
    work: Condvar,
    /// Coordinators park here, both for their region to retire and for a
    /// free slot when the table is full.
    done: Condvar,
    counters: SchedCounters,
}

/// Recover a guard from a poisoned lock. Pool state stays consistent
/// across a task panic (the panic is re-raised on the coordinator after
/// its region completes); poisoning would otherwise wedge every later
/// region of a shared pool.
fn relock<T>(r: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

/// Mutation-style canary for the schedule explorer (`basilisk-check`):
/// when armed, [`WorkerPool::run`] collects its per-worker results
/// *before* waiting for region retirement — the "retire-before-last-
/// result" protocol mutation. Under an explored schedule where some
/// worker has not yet published, a result is missing and the region
/// panics, which the explorer must report; a corpus that stays green
/// with the canary armed has rotted. Compiled only under
/// `--cfg basilisk_check`; normal builds keep the correct protocol with
/// no hook at all.
#[cfg(basilisk_check)]
pub mod canary {
    use basilisk_types::sync::atomic::{AtomicBool, Ordering};

    static COLLECT_BEFORE_RETIRE: AtomicBool = AtomicBool::new(false);

    /// Arm or disarm the retire-reorder mutation (global, explorer-only).
    pub fn set_collect_before_retire(on: bool) {
        COLLECT_BEFORE_RETIRE.store(on, Ordering::SeqCst);
    }

    pub(crate) fn collect_before_retire() -> bool {
        COLLECT_BEFORE_RETIRE.load(Ordering::SeqCst)
    }
}

/// Normal builds: the canary does not exist and the branch folds away.
#[cfg(not(basilisk_check))]
#[inline(always)]
fn canary_collect_early() -> bool {
    false
}

#[cfg(basilisk_check)]
fn canary_collect_early() -> bool {
    canary::collect_before_retire()
}

fn worker_main(shared: Arc<Shared>, worker: usize) {
    let slot_count = relock(shared.state.lock()).slots.len();
    // Last region id executed per slot: the allocation-free join-once
    // guard (ids are never reused, so equality is exact).
    let mut seen = vec![0u64; slot_count];
    loop {
        let (slot_idx, job) = {
            let mut st = relock(shared.state.lock());
            'claim: loop {
                if st.shutdown {
                    return;
                }
                // Scan the region table for a region this worker has not
                // joined yet; start at a worker-dependent offset so
                // concurrent regions spread across the resident set
                // instead of convoying on slot 0.
                for off in 0..slot_count {
                    let i = (worker + off) % slot_count;
                    let slot = &mut st.slots[i];
                    if slot.id != 0 && seen[i] != slot.id {
                        seen[i] = slot.id;
                        slot.running += 1;
                        break 'claim (i, slot.job.expect("published region has a job"));
                    }
                }
                shared.counters.parks.fetch_add(1, Ordering::Relaxed);
                st = relock(shared.work.wait(st));
            }
        };
        {
            // A worker's arena lock is uncontended while the body runs
            // (coordinators only touch worker arenas to recycle escaped
            // results); locking it here upholds "one arena per worker",
            // even when this worker interleaves bodies from different
            // regions back to back.
            let arena = relock(shared.arenas[worker].lock());
            let busy_start = Instant::now();
            // SAFETY: see `Job` — `running` was incremented under the
            // scheduler lock above, so the coordinator keeps the pointee
            // alive until the decrement below. The body catches its own
            // panics; the outer guard is defense in depth for the pool's
            // accounting.
            let _ =
                std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(worker, &arena) }));
            let micros = busy_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            shared.counters.busy_micros[worker].fetch_add(micros, Ordering::Relaxed);
        }
        let mut st = relock(shared.state.lock());
        let slot = &mut st.slots[slot_idx];
        slot.running -= 1;
        if slot.running == 0 {
            // The body only returns once the region's deques are drained
            // or its stop flag is set, so last-one-out retires the slot:
            // frees it for waiting submitters and wakes the region's
            // coordinator. No late join is possible — claims and this
            // retirement are serialized by the scheduler lock.
            slot.id = 0;
            slot.job = None;
            st.active -= 1;
            shared.done.notify_all();
        }
    }
}

/// A resident set of workers: parked threads, per-worker arenas, the
/// region table and the morsel configuration. See the module docs for
/// the execution model.
///
/// The pool is `Send + Sync`: wrap it in an `Arc` to share one set of
/// resident threads across sessions (the serving layer does exactly
/// this). Concurrent [`WorkerPool::run`] calls interleave — each gets its
/// own region-table slot and the resident workers drain all live regions'
/// tasks as a mixed queue.
pub struct WorkerPool {
    workers: usize,
    morsel_rows: usize,
    shared: Arc<Shared>,
    counters: RegionCounters,
    /// Resident threads, spawned lazily by the first region that fans
    /// out (so plan-only sessions and small-table pools cost nothing)
    /// and retained until drop.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Heterogeneous two-task result carrier for [`WorkerPool::run_pair`].
enum Pair<A, B> {
    A(A),
    B(B),
}

impl WorkerPool {
    /// A pool of `workers` workers (clamped to ≥ 1) with the default
    /// morsel size and region table. Construction is cheap: the resident
    /// threads are spawned by the first parallel region and parked when
    /// the region table is empty thereafter; a one-worker pool never
    /// spawns any.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        // Multi-worker pools get a trailing inline arena so the
        // single-task fast path never contends with a resident worker
        // that is mid-region.
        let arena_count = if workers > 1 { workers + 1 } else { 1 };
        let shared = Arc::new(Shared {
            arenas: (0..arena_count)
                .map(|_| Mutex::new(MaskArena::new()))
                .collect(),
            state: Mutex::new(SchedState {
                slots: (0..DEFAULT_REGION_SLOTS)
                    .map(|_| RegionSlot {
                        id: 0,
                        job: None,
                        running: 0,
                    })
                    .collect(),
                next_id: 0,
                active: 0,
                max_active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            counters: SchedCounters {
                tasks: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                notifies: AtomicU64::new(0),
                busy_micros: (0..arena_count).map(|_| AtomicU64::new(0)).collect(),
            },
        });
        WorkerPool {
            workers,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            shared,
            counters: RegionCounters {
                regions: AtomicU64::new(0),
                waits: AtomicU64::new(0),
                wait_hist: Histogram::default(),
            },
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Spawn the resident threads if this is the pool's first parallel
    /// region.
    fn ensure_resident(&self) {
        let mut handles = relock(self.handles.lock());
        if !handles.is_empty() || self.workers <= 1 {
            return;
        }
        handles.extend((0..self.workers).map(|w| {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("basilisk-worker-{w}"))
                .spawn(move || worker_main(shared, w))
                .expect("spawn resident worker thread")
        }));
    }

    /// Override the morsel granularity (must be a positive multiple of
    /// 64). Mainly for tests, which want many morsels over small tables.
    pub fn with_morsel_rows(mut self, rows: usize) -> WorkerPool {
        assert!(
            rows > 0 && rows.is_multiple_of(64),
            "morsel size must be a positive multiple of 64"
        );
        self.morsel_rows = rows;
        self
    }

    /// Override the region-table size (must be ≥ 1). A builder: call
    /// before the pool serves its first region. `1` restores the old
    /// exclusive-region admission — one parallel region at a time, every
    /// concurrent caller waiting (and counted) — which is exactly what
    /// the interleaving benchmarks use as their baseline.
    pub fn with_region_slots(self, slots: usize) -> WorkerPool {
        assert!(slots >= 1, "region table needs at least one slot");
        assert!(
            relock(self.handles.lock()).is_empty(),
            "region table must be sized before the first parallel region"
        );
        {
            let mut st = relock(self.shared.state.lock());
            st.slots = (0..slots)
                .map(|_| RegionSlot {
                    id: 0,
                    job: None,
                    running: 0,
                })
                .collect();
        }
        self
    }

    /// The worker count the engine should default to: the
    /// `BASILISK_THREADS` environment variable when set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`].
    pub fn default_workers() -> usize {
        std::env::var("BASILISK_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Split `len` rows into this pool's morsels.
    pub fn morsels(&self, len: usize) -> Vec<Morsel> {
        Morsel::split(len, self.morsel_rows)
    }

    /// Whether a relation of `len` rows would actually fan out: more than
    /// one worker *and* more than one morsel. Operators use this to take
    /// the untouched serial path otherwise.
    pub fn would_parallelize(&self, len: usize) -> bool {
        self.workers > 1 && len > self.morsel_rows
    }

    /// The arena index used by the inline (single-task / single-worker)
    /// fast path.
    fn inline_arena(&self) -> usize {
        if self.workers > 1 {
            self.workers
        } else {
            0
        }
    }

    /// Run `f` over every task, work-stealing across the pool's resident
    /// workers, and return the results **in task order**, each tagged
    /// with the id of the worker whose arena produced it.
    ///
    /// On error, every already-produced result is handed to `discard`
    /// together with **its producing worker's arena** (so pooled buffers
    /// inside results flow back to the right pool and no arena's
    /// `outstanding()` count is left dangling), remaining tasks are
    /// abandoned, and the error with the lowest task index is returned —
    /// a deterministic choice even though scheduling is not. Both the
    /// stop flag and the discard routing are private to this call's
    /// region: a failure here never perturbs other regions in flight on
    /// the same pool.
    ///
    /// With one worker or at most one task, everything runs inline on the
    /// calling thread against the inline arena — no wakeups, no region.
    ///
    /// Task closures must not call back into [`WorkerPool::run`] (or
    /// [`WorkerPool::run_pair`]) on the same pool: a body that blocks a
    /// resident worker on a nested region can deadlock the resident set.
    /// Nested work runs serially inside the task instead.
    pub fn run<T, R, F, D>(&self, tasks: Vec<T>, f: F, discard: D) -> Result<Vec<(u32, R)>>
    where
        T: Send,
        R: Send,
        F: Fn(&WorkerCtx<'_>, T) -> Result<R> + Sync,
        D: Fn(&MaskArena, R),
    {
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        if self.workers == 1 || n == 1 {
            let inline = self.inline_arena();
            let arena = relock(self.shared.arenas[inline].lock());
            let ctx = WorkerCtx {
                worker: inline,
                arena: &arena,
            };
            let counters = &self.shared.counters;
            let busy_start = Instant::now();
            let mut out = Vec::with_capacity(n);
            for task in tasks {
                counters.tasks.fetch_add(1, Ordering::Relaxed);
                match f(&ctx, task) {
                    Ok(r) => out.push((inline as u32, r)),
                    Err(e) => {
                        for (_, r) in out {
                            discard(&arena, r);
                        }
                        let micros = busy_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
                        counters.busy_micros[inline].fetch_add(micros, Ordering::Relaxed);
                        return Err(e);
                    }
                }
            }
            let micros = busy_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            counters.busy_micros[inline].fetch_add(micros, Ordering::Relaxed);
            return Ok(out);
        }

        self.ensure_resident();

        // Distribute tasks into per-worker deques in contiguous blocks:
        // worker w starts on morsels ⌊w·n/W⌋.., so its own work scans
        // ascending row ranges (cache-friendly) and thieves take from the
        // far end of a victim's block. With fewer tasks than workers the
        // tail workers start empty and immediately look for steals.
        let workers = self.workers;
        let loaded = workers.min(n);
        let deques: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            let w = i * loaded / n;
            relock(deques[w].lock()).push_back((i, task));
        }
        let deques = &deques[..];
        let stop = &AtomicBool::new(false);
        let f = &f;

        type WorkerOut<R> = (Vec<(usize, R)>, Option<(usize, BasiliskError)>);
        let counters = &self.shared.counters;
        let worker_loop = move |worker: usize, arena: &MaskArena| -> WorkerOut<R> {
            let ctx = WorkerCtx { worker, arena };
            let mut done: Vec<(usize, R)> = Vec::new();
            loop {
                if stop.load(Ordering::Relaxed) {
                    return (done, None);
                }
                // Own deque first (front: ascending order)…
                let mut claimed = relock(deques[worker].lock()).pop_front();
                // …then steal from the back of the first non-empty victim.
                if claimed.is_none() {
                    for v in 1..workers {
                        let victim = (worker + v) % workers;
                        claimed = relock(deques[victim].lock()).pop_back();
                        if claimed.is_some() {
                            counters.steals.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                let Some((idx, task)) = claimed else {
                    return (done, None);
                };
                counters.tasks.fetch_add(1, Ordering::Relaxed);
                match f(&ctx, task) {
                    Ok(r) => done.push((idx, r)),
                    Err(e) => {
                        stop.store(true, Ordering::Relaxed);
                        return (done, Some((idx, e)));
                    }
                }
            }
        };

        // Per-worker result slots; a worker writes its slot at most once
        // per region (the join-once guard), and only participants write.
        let outs: Vec<Mutex<Option<WorkerOut<R>>>> =
            (0..workers).map(|_| Mutex::new(None)).collect();
        let panicked = &AtomicUsize::new(0);
        let body = |w: usize, arena: &MaskArena| {
            // Catch task-closure panics *inside* the body so the region's
            // accounting (and the shared pool) survives; the coordinator
            // re-raises below. Task errors are `Result`s, not panics.
            match std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(w, arena))) {
                Ok(out) => *relock(outs[w].lock()) = Some(out),
                Err(_) => {
                    panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
        };

        // Publish the region: type-erase `body` and stamp it into a free
        // slot of the region table. SAFETY: the transmute only erases the
        // borrow lifetime of the trait object; the wait-for-retirement
        // below keeps `body` (and everything it captures) alive past the
        // last dereference.
        let body_ref: &(dyn Fn(usize, &MaskArena) + Sync) = &body;
        let job = Job(unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, &MaskArena) + Sync),
                *const (dyn Fn(usize, &MaskArena) + Sync + 'static),
            >(body_ref)
        });
        let (slot_idx, my_id) = {
            let mut st = relock(self.shared.state.lock());
            let mut wait_start: Option<Instant> = None;
            let slot_idx = loop {
                if let Some(i) = st.slots.iter().position(|s| s.id == 0) {
                    break i;
                }
                if wait_start.is_none() {
                    wait_start = Some(Instant::now());
                    self.counters.waits.fetch_add(1, Ordering::Relaxed);
                }
                st = relock(self.shared.done.wait(st));
            };
            if let Some(t0) = wait_start {
                let micros = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                self.counters.wait_hist.record_micros(micros);
            }
            self.counters.regions.fetch_add(1, Ordering::Relaxed);
            st.next_id += 1;
            let id = st.next_id;
            LAST_REGION_ID.with(|c| c.set(id));
            st.slots[slot_idx] = RegionSlot {
                id,
                job: Some(job),
                running: 0,
            };
            st.active += 1;
            st.max_active = st.max_active.max(st.active as u64);
            self.shared.work.notify_all();
            self.shared
                .counters
                .notifies
                .fetch_add(1, Ordering::Relaxed);
            (slot_idx, id)
        };

        let collect = |per_worker: &mut Vec<(usize, WorkerOut<R>)>| {
            for (w, slot) in outs.iter().enumerate() {
                if let Some(out) = relock(slot.lock()).take() {
                    per_worker.push((w, out));
                }
            }
        };
        let mut per_worker: Vec<(usize, WorkerOut<R>)> = Vec::with_capacity(workers);
        // Canary (check builds only): read the result slots *before* the
        // region retires — the protocol mutation the explorer must catch.
        // The retirement wait below still runs either way, so `body`,
        // `outs` and `deques` stay alive until every worker is out.
        let collected_early = canary_collect_early();
        if collected_early {
            collect(&mut per_worker);
        }

        // Wait for the last participating worker to retire the slot. Ids
        // are never reused, so `id != my_id` (freed, or freed and already
        // reused by another caller) is exactly "my region is done".
        {
            let mut st = relock(self.shared.state.lock());
            while st.slots[slot_idx].id == my_id {
                st = relock(self.shared.done.wait(st));
            }
        }
        // Worker closures don't panic on task errors (those are Results);
        // a panic inside a task closure is a real bug and surfaces here,
        // exactly like the scoped-join propagation the pool replaced.
        assert!(
            panicked.load(Ordering::Relaxed) == 0,
            "worker thread panicked"
        );

        if !collected_early {
            collect(&mut per_worker);
        }

        let mut error: Option<(usize, BasiliskError)> = None;
        for (_, (_, err)) in &mut per_worker {
            let failed_at = err.as_ref().map(|(idx, _)| *idx);
            if let Some(idx) = failed_at {
                if error.as_ref().is_none_or(|(best, _)| idx < *best) {
                    error = err.take();
                }
            }
        }
        if let Some((_, e)) = error {
            // Route every produced result back through the caller's
            // discard hook with its producing worker's arena. This is the
            // per-region half of the `outstanding() == 0` guarantee:
            // other regions' results are not here and stay untouched.
            for (w, (done, _)) in per_worker {
                let arena = relock(self.shared.arenas[w].lock());
                for (_, r) in done {
                    discard(&arena, r);
                }
            }
            return Err(e);
        }

        let mut slots: Vec<Option<(u32, R)>> = (0..n).map(|_| None).collect();
        for (w, (done, _)) in per_worker {
            for (idx, r) in done {
                debug_assert!(slots[idx].is_none(), "task {idx} produced twice");
                slots[idx] = Some((w as u32, r));
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every task produced exactly once"))
            .collect())
    }

    /// Run two *different* jobs as one two-task region and return both
    /// results, each tagged with its producing worker id — how the
    /// tagged join overlaps its build side with probe-side preparation
    /// over the same pool that runs its morsels.
    ///
    /// Ordering contract: with one worker the pair runs inline, `fa`
    /// strictly before `fb` — exactly the serial engine. In a fanned
    /// region, if both fail the error of `fa` wins (lowest task index),
    /// matching serial left-to-right evaluation. On any failure the
    /// surviving result is routed through its discard callback with the
    /// producing worker's arena, like [`WorkerPool::run`].
    ///
    /// Like `run`, the closures must not call back into the pool.
    pub fn run_pair<A, B, FA, FB, DA, DB>(
        &self,
        fa: FA,
        fb: FB,
        da: DA,
        db: DB,
    ) -> Result<((u32, A), (u32, B))>
    where
        A: Send,
        B: Send,
        FA: FnOnce(&WorkerCtx<'_>) -> Result<A> + Send,
        FB: FnOnce(&WorkerCtx<'_>) -> Result<B> + Send,
        DA: Fn(&MaskArena, A),
        DB: Fn(&MaskArena, B),
    {
        let fa = Mutex::new(Some(fa));
        let fb = Mutex::new(Some(fb));
        let mut out = self.run(
            vec![0u8, 1u8],
            |ctx, which| match which {
                0 => (relock(fa.lock()).take().expect("task 0 claimed once"))(ctx).map(Pair::A),
                _ => (relock(fb.lock()).take().expect("task 1 claimed once"))(ctx).map(Pair::B),
            },
            |arena, r| match r {
                Pair::A(a) => da(arena, a),
                Pair::B(b) => db(arena, b),
            },
        )?;
        let second = out.pop().expect("pair region returns two results");
        let first = out.pop().expect("pair region returns two results");
        match (first, second) {
            ((wa, Pair::A(a)), (wb, Pair::B(b))) => Ok(((wa, a), (wb, b))),
            _ => unreachable!("pair results come back in task order"),
        }
    }

    /// Coordinator-side access to one worker's arena — how callers
    /// recycle the pooled buffers inside a task result back into the
    /// arena that produced them (the inline arena included). Safe while
    /// regions are in flight: the lock simply blocks until that worker's
    /// current body ends.
    pub fn with_arena<R>(&self, worker: u32, f: impl FnOnce(&MaskArena) -> R) -> R {
        f(&relock(self.shared.arenas[worker as usize].lock()))
    }

    /// Sum of `outstanding()` across all worker arenas — zero whenever no
    /// parallel region is in flight, error paths included (the leak
    /// tests' invariant, now holding per region: a failed region discards
    /// its own results while concurrent regions proceed).
    pub fn outstanding(&self) -> usize {
        self.shared
            .arenas
            .iter()
            .map(|a| relock(a.lock()).outstanding())
            .sum()
    }

    /// Sum of parked buffers across all worker arenas.
    pub fn pooled(&self) -> usize {
        self.shared
            .arenas
            .iter()
            .map(|a| relock(a.lock()).pooled())
            .sum()
    }

    /// Sum of fresh checkouts across all worker arenas since the last
    /// [`Self::reset_stats`].
    pub fn fresh(&self) -> usize {
        self.shared
            .arenas
            .iter()
            .map(|a| relock(a.lock()).stats().fresh())
            .sum()
    }

    /// Per-shape checkout counters aggregated across all worker arenas
    /// (the `/v1/metrics` `basilisk_arena_*` families' raw material).
    pub fn arena_stats(&self) -> basilisk_types::ArenaStats {
        let mut total = basilisk_types::ArenaStats::default();
        for a in &self.shared.arenas {
            total.merge(&relock(a.lock()).stats());
        }
        total
    }

    /// Zero every worker arena's counters (pools stay warm).
    pub fn reset_stats(&self) {
        for a in &self.shared.arenas {
            relock(a.lock()).reset_stats();
        }
    }

    /// Snapshot the region-scheduling counters: regions admitted, slot
    /// waits (count, total time, histogram) and the concurrency
    /// high-water mark. The serving layer surfaces these as its
    /// region-occupancy stats.
    pub fn region_stats(&self) -> RegionStats {
        let (slots, max_concurrent) = {
            let st = relock(self.shared.state.lock());
            (st.slots.len() as u64, st.max_active)
        };
        let waits = self.counters.wait_hist.snapshot();
        RegionStats {
            regions: self.counters.regions.load(Ordering::Relaxed),
            waits: self.counters.waits.load(Ordering::Relaxed),
            wait_total_micros: waits.total_micros,
            wait_buckets: waits.buckets,
            slots,
            max_concurrent,
        }
    }

    /// Snapshot the execution counters: tasks run (steals separately),
    /// park/notify traffic, and per-arena busy time. The `/v1/metrics`
    /// route renders these as the `basilisk_sched_*` families.
    pub fn sched_stats(&self) -> SchedStats {
        let c = &self.shared.counters;
        SchedStats {
            workers: self.workers as u64,
            tasks: c.tasks.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            notifies: c.notifies.load(Ordering::Relaxed),
            busy_micros: c
                .busy_micros
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = relock(self.shared.state.lock());
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in relock(self.handles.lock()).drain(..) {
            let _ = h.join();
        }
    }
}

// The handoff model rests on arenas being movable into the resident
// workers and on the pool being shareable across sessions; keep both
// properties pinned at compile time.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<MaskArena>();
    assert_send::<WorkerPool>();
    assert_sync::<WorkerPool>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_types::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::new(4).with_morsel_rows(64);
        let tasks: Vec<usize> = (0..40).collect();
        let out = pool
            .run(tasks, |_ctx, t| Ok(t * 10), |_a, _r: usize| {})
            .unwrap();
        assert_eq!(out.len(), 40);
        for (i, (_w, r)) in out.iter().enumerate() {
            assert_eq!(*r, i * 10);
        }
        // Which workers actually ran is machine-dependent (on a busy or
        // single-core host, one worker can legally drain every deque by
        // stealing before the other threads are scheduled), so only the
        // worker-id *range* is pinned here; order and completeness above
        // are the real contract.
        assert!(out.iter().all(|&(w, _)| (w as usize) < pool.workers()));
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        let main_thread = std::thread::current().id();
        let out = pool
            .run(
                vec![1u32, 2, 3],
                |ctx, t| {
                    assert_eq!(std::thread::current().id(), main_thread);
                    assert_eq!(ctx.worker, 0);
                    Ok(t + 1)
                },
                |_a, _r: u32| {},
            )
            .unwrap();
        assert_eq!(
            out.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn single_task_runs_inline_even_with_many_workers() {
        let pool = WorkerPool::new(8);
        let main_thread = std::thread::current().id();
        let out = pool
            .run(
                vec![7usize],
                |ctx, t| {
                    assert_eq!(std::thread::current().id(), main_thread);
                    // The inline path owns the dedicated trailing arena,
                    // so tiny queries never contend with resident
                    // workers mid-region.
                    assert_eq!(ctx.worker, pool.workers());
                    Ok(t)
                },
                |_a, _r: usize| {},
            )
            .unwrap();
        assert_eq!(out, vec![(pool.workers() as u32, 7)]);
        // Results recycle home through the same id.
        let m = pool.with_arena(out[0].0, |a| a.mask(64));
        pool.with_arena(out[0].0, |a| a.recycle_mask(m));
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn empty_task_list() {
        let pool = WorkerPool::new(4);
        let out: Vec<(u32, ())> = pool
            .run(Vec::<()>::new(), |_, _| Ok(()), |_, _| {})
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn worker_arena_buffers_round_trip() {
        let pool = WorkerPool::new(3).with_morsel_rows(64);
        // Each task checks a mask out of its worker's arena and returns
        // it; the caller recycles into the producing arena.
        let out = pool
            .run(
                (0..12).collect::<Vec<usize>>(),
                |ctx, t| Ok(ctx.arena.mask(100 + t)),
                |a, m| a.recycle_mask(m),
            )
            .unwrap();
        assert_eq!(pool.outstanding(), 12, "12 masks live across arenas");
        for (w, m) in out {
            pool.with_arena(w, |a| a.recycle_mask(m));
        }
        assert_eq!(pool.outstanding(), 0, "all masks returned home");
        assert!(pool.pooled() >= 1);
    }

    /// Steady state per worker: when the same arena serves again (the
    /// deterministic single-worker pool), warm pools cover every
    /// checkout. (Across a multi-worker pool the *assignment* of tasks
    /// to workers is nondeterministic, so only per-arena — not global —
    /// freshness is guaranteed; the differential suite covers results.)
    #[test]
    fn warm_worker_pool_is_allocation_free() {
        let pool = WorkerPool::new(1);
        let serve = |pool: &WorkerPool| {
            let out = pool
                .run(
                    (0..5).collect::<Vec<usize>>(),
                    |ctx, t| Ok(ctx.arena.mask(100 + t)),
                    |a, m| a.recycle_mask(m),
                )
                .unwrap();
            for (w, m) in out {
                pool.with_arena(w, |a| a.recycle_mask(m));
            }
        };
        serve(&pool);
        assert!(pool.fresh() > 0, "first run warms the pool");
        pool.reset_stats();
        serve(&pool);
        assert_eq!(pool.fresh(), 0, "warm worker pool serves every checkout");
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn error_reports_lowest_index_and_discards_results() {
        let pool = WorkerPool::new(4).with_morsel_rows(64);
        let discarded = AtomicUsize::new(0);
        let err = pool
            .run(
                (0..20).collect::<Vec<usize>>(),
                |ctx, t| {
                    if t == 5 || t == 13 {
                        Err(BasiliskError::Exec(format!("boom {t}")))
                    } else {
                        Ok(ctx.arena.bitmap(64))
                    }
                },
                |a, bm| {
                    discarded.fetch_add(1, Ordering::Relaxed);
                    a.recycle_bitmap(bm);
                },
            )
            .unwrap_err();
        // Both failures may or may not be reached; the reported one must
        // be the lowest-index error among those that were.
        let msg = err.to_string();
        assert!(msg.contains("boom"), "{msg}");
        assert_eq!(
            pool.outstanding(),
            0,
            "every produced buffer was discarded into its own arena"
        );
        assert!(discarded.load(Ordering::Relaxed) <= 18);
    }

    #[test]
    fn error_on_inline_path_discards_too() {
        let pool = WorkerPool::new(1);
        let err = pool
            .run(
                vec![0usize, 1, 2],
                |ctx, t| {
                    if t == 2 {
                        Err(BasiliskError::Exec("late".into()))
                    } else {
                        Ok(ctx.arena.indices())
                    }
                },
                |a, v| a.recycle_indices(v),
            )
            .unwrap_err();
        assert!(err.to_string().contains("late"));
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn stealing_drains_a_stalled_owner() {
        // One worker's tasks are slow; the other must steal the fast ones
        // from the victim's block and everything still lands in order.
        let pool = WorkerPool::new(2).with_morsel_rows(64);
        let out = pool
            .run(
                (0..8).collect::<Vec<usize>>(),
                |_ctx, t| {
                    if t == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    Ok(t)
                },
                |_a, _r: usize| {},
            )
            .unwrap();
        let values: Vec<usize> = out.iter().map(|&(_, r)| r).collect();
        assert_eq!(values, (0..8).collect::<Vec<_>>());
    }

    /// The resident property itself: across regions, the same worker id
    /// is served by the same OS thread (no per-region spawning), and the
    /// coordinator never executes task bodies — it publishes and waits.
    #[test]
    fn resident_threads_persist_across_regions() {
        use std::collections::HashMap;
        use std::thread::ThreadId;
        let pool = WorkerPool::new(3).with_morsel_rows(64);
        let main_thread = std::thread::current().id();
        let observe = || -> HashMap<usize, ThreadId> {
            let out = pool
                .run(
                    (0..24).collect::<Vec<usize>>(),
                    |ctx, _t| {
                        // Slow tasks down slightly so every worker gets a
                        // chance to participate on busy hosts.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        Ok((ctx.worker, std::thread::current().id()))
                    },
                    |_a, _r: (usize, ThreadId)| {},
                )
                .unwrap();
            let mut map = HashMap::new();
            for (_, (w, tid)) in out {
                assert_ne!(tid, main_thread, "coordinator never runs task bodies");
                let prev = map.insert(w, tid);
                assert!(prev.is_none_or(|p| p == tid), "worker {w} switched threads");
            }
            map
        };
        let first = observe();
        let second = observe();
        for (w, tid) in &second {
            if let Some(prev) = first.get(w) {
                assert_eq!(prev, tid, "worker {w} migrated between regions");
            }
        }
    }

    /// One pool, shared by several client threads via `Arc`: regions
    /// interleave and every caller still gets its own results in task
    /// order.
    #[test]
    fn shared_pool_serves_concurrent_callers() {
        let pool = Arc::new(WorkerPool::new(3).with_morsel_rows(64));
        let mut handles = Vec::new();
        for c in 0..4u32 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _round in 0..5 {
                    let out = pool
                        .run(
                            (0..16u32).collect::<Vec<u32>>(),
                            |_ctx, t| Ok(t * 2 + c * 1000),
                            |_a, _r: u32| {},
                        )
                        .unwrap();
                    let values: Vec<u32> = out.into_iter().map(|(_, r)| r).collect();
                    assert_eq!(
                        values,
                        (0..16u32).map(|t| t * 2 + c * 1000).collect::<Vec<_>>()
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.outstanding(), 0);
    }

    /// The tentpole property: two regions from different callers are in
    /// flight *simultaneously* — their tasks rendezvous on one barrier
    /// that can only be crossed if both regions' tasks run at the same
    /// time. Under exclusive-region admission this would deadlock.
    #[test]
    fn regions_interleave_across_callers() {
        let pool = Arc::new(WorkerPool::new(4).with_morsel_rows(64));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for caller in 0..2u32 {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let out = pool
                    .run(
                        vec![0u32, 1],
                        |_ctx, t| {
                            barrier.wait();
                            Ok(caller * 10 + t)
                        },
                        |_a, _r: u32| {},
                    )
                    .unwrap();
                let values: Vec<u32> = out.into_iter().map(|(_, r)| r).collect();
                assert_eq!(values, vec![caller * 10, caller * 10 + 1]);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool.region_stats();
        assert_eq!(stats.regions, 2);
        assert_eq!(stats.max_concurrent, 2, "both regions were live at once");
        assert_eq!(stats.waits, 0, "default table never fills with 2 regions");
        assert_eq!(pool.outstanding(), 0);
    }

    /// Per-region error isolation: a failure in one region discards only
    /// that region's results; a concurrent region completes untouched and
    /// every arena settles back to `outstanding() == 0`.
    #[test]
    fn failing_region_leaves_concurrent_region_intact() {
        let pool = Arc::new(WorkerPool::new(4).with_morsel_rows(64));
        let barrier = Arc::new(Barrier::new(4));
        let ok_pool = Arc::clone(&pool);
        let ok_barrier = Arc::clone(&barrier);
        let ok = std::thread::spawn(move || {
            let out = ok_pool
                .run(
                    vec![0usize, 1],
                    |ctx, t| {
                        ok_barrier.wait();
                        Ok(ctx.arena.mask(64 + t))
                    },
                    |a, m| a.recycle_mask(m),
                )
                .unwrap();
            assert_eq!(out.len(), 2, "healthy region completed fully");
            for (w, m) in out {
                ok_pool.with_arena(w, |a| a.recycle_mask(m));
            }
        });
        let err_pool = Arc::clone(&pool);
        let err_barrier = Arc::clone(&barrier);
        let failing = std::thread::spawn(move || {
            let err = err_pool
                .run(
                    vec![0usize, 1],
                    |ctx, t| {
                        err_barrier.wait();
                        if t == 1 {
                            Err(BasiliskError::Exec("one region fails".into()))
                        } else {
                            Ok(ctx.arena.bitmap(64))
                        }
                    },
                    |a, bm| a.recycle_bitmap(bm),
                )
                .unwrap_err();
            assert!(err.to_string().contains("one region fails"));
        });
        ok.join().unwrap();
        failing.join().unwrap();
        assert_eq!(pool.outstanding(), 0, "both regions settled their arenas");
    }

    /// A one-slot region table restores exclusive admission: overlapping
    /// callers serialize, and the wait is counted and timed.
    #[test]
    fn single_slot_table_serializes_and_counts_waits() {
        let pool = Arc::new(WorkerPool::new(2).with_morsel_rows(64).with_region_slots(1));
        let entered = Arc::new(Barrier::new(2));
        let first_pool = Arc::clone(&pool);
        let first_entered = Arc::clone(&entered);
        let first = std::thread::spawn(move || {
            first_pool
                .run(
                    vec![0u32, 1],
                    |_ctx, t| {
                        if t == 0 {
                            // Hold the only slot until the main thread is
                            // provably inside its own `run` call…
                            first_entered.wait();
                            std::thread::sleep(std::time::Duration::from_millis(30));
                        }
                        Ok(t)
                    },
                    |_a, _r: u32| {},
                )
                .unwrap();
        });
        // …which cannot admit a region until the first one retires.
        entered.wait();
        pool.run(vec![0u32, 1], |_ctx, t| Ok(t), |_a, _r: u32| {})
            .unwrap();
        first.join().unwrap();
        let stats = pool.region_stats();
        assert_eq!(stats.slots, 1);
        assert_eq!(stats.regions, 2);
        assert_eq!(stats.max_concurrent, 1, "one slot admits one region");
        assert!(stats.waits >= 1, "the second region waited for the slot");
        assert!(stats.wait_total_micros > 0);
        assert_eq!(
            stats.wait_buckets.iter().sum::<u64>(),
            stats.waits,
            "every wait lands in exactly one histogram bucket"
        );
    }

    /// `run_pair` ships two heterogeneous jobs as one region: both
    /// results come back tagged, serial pools run `fa` before `fb`, and a
    /// failure routes the surviving result through its discard hook.
    #[test]
    fn run_pair_returns_both_and_discards_on_failure() {
        // Serial ordering: fa strictly before fb.
        let serial = WorkerPool::new(1);
        let order = Mutex::new(Vec::new());
        let ((_, a), (_, b)) = serial
            .run_pair(
                |_ctx| {
                    relock(order.lock()).push('a');
                    Ok(1u32)
                },
                |_ctx| {
                    relock(order.lock()).push('b');
                    Ok("two")
                },
                |_a, _r| {},
                |_a, _r| {},
            )
            .unwrap();
        assert_eq!((a, b), (1, "two"));
        assert_eq!(*relock(order.lock()), vec!['a', 'b']);

        // Parallel: results carry producing workers; buffers recycle home.
        let pool = WorkerPool::new(3).with_morsel_rows(64);
        let ((wa, ma), (wb, mb)) = pool
            .run_pair(
                |ctx| Ok(ctx.arena.mask(128)),
                |ctx| Ok(ctx.arena.mask(256)),
                |a, m| a.recycle_mask(m),
                |a, m| a.recycle_mask(m),
            )
            .unwrap();
        assert_eq!(pool.outstanding(), 2);
        pool.with_arena(wa, |a| a.recycle_mask(ma));
        pool.with_arena(wb, |a| a.recycle_mask(mb));
        assert_eq!(pool.outstanding(), 0);

        // Failure in fb discards fa's already-produced result.
        let err = pool
            .run_pair(
                |ctx| Ok(ctx.arena.indices()),
                |_ctx| -> Result<u32> { Err(BasiliskError::Exec("pair b failed".into())) },
                |a, v| a.recycle_indices(v),
                |_a, _r| {},
            )
            .unwrap_err();
        assert!(err.to_string().contains("pair b failed"));
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn default_workers_parses_env_shape() {
        // Not asserting the ambient value (the test runner may set the
        // env); just pin that the function never returns zero.
        assert!(WorkerPool::default_workers() >= 1);
    }

    #[test]
    fn morsels_and_would_parallelize() {
        let pool = WorkerPool::new(4).with_morsel_rows(128);
        assert_eq!(pool.morsels(300).len(), 3);
        assert!(pool.would_parallelize(300));
        assert!(!pool.would_parallelize(128));
        assert!(!WorkerPool::new(1).would_parallelize(1 << 20));
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn bad_morsel_size_panics() {
        let _ = WorkerPool::new(2).with_morsel_rows(100);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_region_slots_panics() {
        let _ = WorkerPool::new(2).with_region_slots(0);
    }

    /// Execution counters on the inline path: every task counted, busy
    /// time attributed to the inline arena, no fanned-region traffic.
    #[test]
    fn sched_stats_counts_inline_tasks() {
        let pool = WorkerPool::new(1);
        pool.run(
            (0..5).collect::<Vec<usize>>(),
            |_ctx, t| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(t)
            },
            |_a, _r: usize| {},
        )
        .unwrap();
        let stats = pool.sched_stats();
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.tasks, 5);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.notifies, 0, "inline runs publish no region");
        assert_eq!(stats.busy_micros.len(), 1);
        assert!(stats.busy_micros[0] > 0, "inline busy time accrues");
    }

    /// Execution counters on the fanned path: tasks counted exactly,
    /// a notify per region, busy time somewhere in the resident set, and
    /// the coordinator thread observes its region's id.
    #[test]
    fn sched_stats_and_region_id_on_fanned_runs() {
        let pool = WorkerPool::new(2).with_morsel_rows(64);
        assert_eq!(last_region_id(), 0, "no region fanned out yet");
        pool.run(
            (0..8).collect::<Vec<usize>>(),
            |_ctx, t| Ok(t),
            |_a, _r: usize| {},
        )
        .unwrap();
        let first = last_region_id();
        assert!(first >= 1, "coordinator recorded its region id");
        pool.run(
            (0..8).collect::<Vec<usize>>(),
            |_ctx, t| Ok(t),
            |_a, _r: usize| {},
        )
        .unwrap();
        assert!(last_region_id() > first, "region ids are never reused");
        let stats = pool.sched_stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.tasks, 16, "every task counted exactly once");
        assert_eq!(stats.notifies, 2, "one wakeup broadcast per region");
        assert_eq!(stats.busy_micros.len(), 3, "2 workers + inline arena");
        // Every counter but `parks` settles before the region retires;
        // a worker may still park after `run` has returned.
        let settled = |s: SchedStats| SchedStats { parks: 0, ..s };
        assert!(
            settled(pool.sched_stats()) == settled(stats),
            "snapshot is stable at rest"
        );
    }
}
