//! Real multithreaded wavefront execution.
//!
//! [`WavefrontPool`] executes a block schedule with genuine OS threads
//! through one entry point, [`WavefrontPool::try_drain`]: a work-stealing
//! **graph drain**. The [`Scheduler`] knob and the batch depth only pick
//! which graph it drains:
//!
//! * the **level graph** ([`TaskGraph::levels`]) — eager
//!   [`Scheduler::Levels`], the default: the §3.4 lowering as written, a
//!   sequential loop over wavefront levels with each level's sub-domains
//!   split into one contiguous chunk per worker. An empty *join* task
//!   waits for every chunk of a level and releases every chunk of the
//!   next: the level barrier, as two edges per task.
//! * the **sweep-extended dependence graph** ([`SweepGraph`]) — eager
//!   [`Scheduler::Dataflow`] (`k = 1`), and every batch of `k > 1`
//!   in-place sweeps whatever the knob (OPS-style: one lazy loop-chain
//!   executor, eager execution its length-1 case). Blocks are coarsened
//!   into [`TaskGraph`] tasks: chains of consecutive small blocks fuse
//!   into single scheduled units so the atomic in-degree traffic and
//!   deque locking amortize over real work ([`dataflow::dataflow_grain`]
//!   picks the fusion grain from the block count and the worker count).
//!
//! Each worker drains a ready-set of tasks and routes newly-ready ones
//! to their owner's deque ([`TaskGraph::owner`]: a level chunk's owner
//! is its chunk index, a dependence task's a contiguous shard of the
//! task index space), stealing when idle. The Release half of the
//! in-degree `fetch_sub` and the Acquire half performed by the final
//! decrementer form a happens-before chain from every predecessor's
//! buffer writes to the successor's execution — through a join, from
//! every block of one level to every block of the next (see `DESIGN.md`
//! §4c/§4g/§4j).
//!
//! The drain has one worker body at every thread count. Worker 0 runs
//! on the calling thread; workers `1..threads` are the pool's **crew**,
//! `threads − 1` OS threads spawned by the first drain that needs more
//! than one worker, parked on a condition variable between drains and
//! joined when the last clone of the pool is dropped. A drain hands the
//! crew its worker body through an epoch handoff (`Crew::run`), so an
//! execute op spawns nothing, and a lone worker never wakes the crew.
//! Idle workers inside a drain yield a few rounds, then block until a
//! push, the last task's retirement or an abort wakes them (`Park`).
//! Workers run closures over *linearized sub-domain
//! indices* with private per-worker state (the bytecode engine runs
//! `scf.execute_wavefronts` bodies with a per-thread register file and
//! statistics frame); every worker's state is merged on the calling
//! thread, and the first observed error and any worker panic propagate.

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use instencil_obs::trace::{self, TraceKind};
use instencil_obs::{LevelRecord, Obs, WavefrontRecord, WorkerRecord};
use instencil_pattern::dataflow::{
    self, BlockGraph, ScheduleBundle, Scheduler, SweepGraph, TaskGraph,
};

use crate::buffer::overlap;

/// Captured panic payload from a worker, re-raised on the calling
/// thread so the original message (e.g. the overlap checker's) survives.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A drain's worker body: `body(w)` runs worker `w` to the drain's end.
type Body<'a> = dyn Fn(usize) + Sync + 'a;

/// Idle scan rounds an empty-handed worker spends yielding before it
/// parks. Yields are near-free and keep wake-up latency at
/// scheduler-quantum scale while the wavefront pipeline is merely
/// momentarily narrow.
const SPIN_ROUNDS: u32 = 64;

/// Safety net on a parked worker's wait. Every event that can give it
/// work wakes it explicitly, so the timeout never paces a drain.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// Locks `m`, ignoring poison: nothing panics while holding these locks,
/// and a drain must still finish (and the crew still park) if a caller
/// unwound through one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-worker counters of one drain, reported at `Trace` detail: the
/// whole drain's, and a level graph's busy time and blocks per CSR level.
#[derive(Default)]
struct WorkerStats {
    total: WorkerRecord,
    levels: Vec<WorkerRecord>,
}

/// The peers idle worker `w` scans: each once, from `w + 1` wrapping, so
/// thieves spread over distinct victims instead of all probing worker 0.
fn steal_ring(w: usize, threads: usize) -> impl Iterator<Item = usize> {
    (w + 1..threads).chain(0..w)
}

/// Where a drain's idle workers block, and what wakes them.
///
/// A worker registers in `sleepers`, takes `lock`, re-checks that it
/// still has nothing to do, then waits. Whoever makes work or ends the
/// drain checks `sleepers` afterwards and signals under `lock`, so a
/// signal cannot fall between the re-check and the wait: the event
/// either lands before the re-check (which then sees it) or after the
/// registration (which the signaller then sees, `SeqCst` on both sides,
/// and waits for `lock` before signalling). With nobody registered, as
/// always at one worker, signalling costs one load.
#[derive(Default)]
struct Park {
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Park {
    /// Blocks until woken, unless `idle()` — run under the lock after
    /// registering — finds work after all.
    fn park(&self, idle_rounds: u32, idle: impl FnOnce() -> bool) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = lock(&self.lock);
        if idle() {
            let ts = trace::begin();
            drop(self.cv.wait_timeout(guard, PARK_TIMEOUT));
            trace::end(TraceKind::Park, ts, idle_rounds, 0);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes one sleeper, if any: a task was pushed onto a deque.
    fn nudge(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.lock);
            self.cv.notify_one();
        }
    }

    /// Wakes every sleeper, if any: the drain is over or aborted.
    fn wake_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.lock);
            self.cv.notify_all();
        }
    }
}

/// The pool's persistent workers, shared by every clone of the pool.
///
/// `threads` holds the spawned OS threads and doubles as the crew's
/// ownership: a drain holds it locked for its whole duration, so two
/// drains never hand the crew two bodies at once. The threads park on
/// `handoff` between drains and are joined when the crew is dropped.
#[derive(Default)]
struct Crew {
    handoff: Arc<Handoff>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// What the caller and the crew threads share.
#[derive(Default)]
struct Handoff {
    state: Mutex<Epoch>,
    /// Wakes the crew: a new epoch or shutdown.
    start: Condvar,
    /// Wakes the caller: the last crew worker returned from the body.
    done: Condvar,
    /// Crew threads alive.
    live: AtomicUsize,
}

/// One handoff, published under [`Handoff::state`].
#[derive(Default)]
struct Epoch {
    /// Bumped once per drain the crew joins.
    epoch: u64,
    /// The drain's worker body, erased to `'static` (see [`Crew::run`]).
    body: Option<BodyPtr>,
    /// Workers of this epoch, the caller's worker 0 included: crew
    /// thread `w` joins when `w < workers`.
    workers: usize,
    /// Crew workers of this epoch that have not yet returned.
    running: usize,
    /// The first panic that escaped a crew worker's body.
    panic: Option<PanicPayload>,
    shutdown: bool,
}

/// The worker body of the current epoch.
struct BodyPtr(*const Body<'static>);

// SAFETY: the pointee is `Sync`, so calling it from another thread is
// sound while it is alive, which `Crew::run` guarantees.
unsafe impl Send for BodyPtr {}

impl Crew {
    /// Claims the crew for one drain, first spawning it up to `size`
    /// threads. `None` when another drain holds it — a clone driven from
    /// another thread, or a drain nested in a block body.
    fn claim(&self, size: usize) -> Option<MutexGuard<'_, Vec<JoinHandle<()>>>> {
        let mut threads = match self.threads.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        while threads.len() < size {
            let handoff = Arc::clone(&self.handoff);
            let (w, seen) = (threads.len() + 1, lock(&handoff.state).epoch);
            handoff.live.fetch_add(1, Ordering::SeqCst);
            threads.push(thread::spawn(move || handoff.serve(w, seen)));
        }
        Some(threads)
    }

    /// Runs `body(0)` on the calling thread and `body(1..workers)` on the
    /// crew, returning once every one of them has returned. The caller
    /// holds the claim ([`Self::claim`]) on at least `workers − 1`
    /// threads. A panic that escapes a body is re-raised here, after the
    /// wait; the crew stays usable.
    fn run(&self, workers: usize, body: &Body<'_>) {
        let handoff = &self.handoff;
        // SAFETY: the crew threads call `body` through a pointer whose
        // borrow is erased to `'static`. It stays valid because this
        // function does not return — not even by unwinding, since the
        // caller's own `body(0)` runs under `catch_unwind` — before
        // `running` is back to 0, that is, before every crew thread
        // handed the pointer in this epoch has returned from calling
        // it; the pointer is cleared under the same lock before
        // returning, and a thread only reads it for an epoch it joins.
        let erased = unsafe { std::mem::transmute::<&Body<'_>, &Body<'static>>(body) };
        {
            let mut st = lock(&handoff.state);
            st.epoch += 1;
            st.body = Some(BodyPtr(erased));
            st.workers = workers;
            st.running = workers - 1;
        }
        handoff.start.notify_all();
        let own = catch_unwind(AssertUnwindSafe(|| body(0)));
        let mut st = lock(&handoff.state);
        while st.running > 0 {
            st = handoff.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.body = None;
        let escaped = st.panic.take();
        drop(st);
        if let Some(payload) = own.err().or(escaped) {
            resume_unwind(payload);
        }
    }
}

impl Handoff {
    /// Crew thread `w`'s life: park until an epoch it joins (or
    /// shutdown), run the body, report back, park again.
    fn serve(&self, w: usize, mut seen: u64) {
        loop {
            let body = {
                let mut st = lock(&self.state);
                while st.epoch == seen && !st.shutdown {
                    st = self.start.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                if st.shutdown {
                    break;
                }
                seen = st.epoch;
                match &st.body {
                    Some(body) if w < st.workers => body.0,
                    _ => continue,
                }
            };
            // SAFETY: `Crew::run` keeps `*body` alive until this thread
            // decrements `running` below.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*body)(w) }));
            let mut st = lock(&self.state);
            if let Err(payload) = outcome {
                st.panic.get_or_insert(payload);
            }
            st.running -= 1;
            if st.running == 0 {
                self.done.notify_one();
            }
        }
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        let threads = self.threads.get_mut().unwrap_or_else(PoisonError::into_inner);
        if threads.is_empty() {
            return;
        }
        lock(&self.handoff.state).shutdown = true;
        self.handoff.start.notify_all();
        for t in threads.drain(..) {
            // `serve` catches every body panic, so a join has nothing
            // to re-raise.
            let _ = t.join();
        }
    }
}

impl fmt::Debug for Crew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live = self.handoff.live.load(Ordering::Relaxed);
        f.debug_struct("Crew").field("live", &live).finish()
    }
}

/// A thread pool executing wavefront schedules on a persistent crew.
/// Clones share the crew.
#[derive(Clone, Debug)]
pub struct WavefrontPool {
    threads: usize,
    obs: Obs,
    scheduler: Scheduler,
    crew: Arc<Crew>,
}

impl WavefrontPool {
    /// Creates a pool with the given number of worker threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        Self::with_opts(threads, Obs::off(), Scheduler::Levels)
    }

    /// Creates a pool with an explicit scheduler mode that records
    /// per-level (and, at [`instencil_obs::ObsLevel::Trace`], per-worker)
    /// timings into `obs`.
    pub fn with_opts(threads: usize, obs: Obs, scheduler: Scheduler) -> Self {
        WavefrontPool {
            threads: threads.max(1),
            obs,
            scheduler,
            crew: Arc::default(),
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The observability collector this pool reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The scheduler mode this pool runs under.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// A probe of how many crew threads are alive; it outlives the pool.
    #[cfg(test)]
    pub(crate) fn live_workers(&self) -> impl Fn() -> usize {
        let handoff = Arc::clone(&self.crew.handoff);
        move || handoff.live.load(Ordering::SeqCst)
    }

    /// The coarsening grain for `graph` at this pool's worker count.
    fn grain_for(&self, graph: &BlockGraph) -> usize {
        let inner = graph.grid().last().copied().unwrap_or(1);
        dataflow::dataflow_grain(graph.num_blocks(), inner, self.threads)
    }

    /// Executes `sweeps ≥ 1` identical in-place sweeps of `bundle`'s
    /// schedule as one graph drain, with per-worker state. `work`
    /// receives `(state, sweep, block)` with flat block indices.
    ///
    /// * `sweeps == 1` under [`Scheduler::Levels`] drains the level graph
    ///   ([`ScheduleBundle::level_graph`]): each level's blocks run in
    ///   per-worker chunks, and no block of a level starts before every
    ///   block of the previous level has finished. Recorded as
    ///   `scheduler: "levels"`, one [`LevelRecord`] per level.
    /// * Otherwise it drains the sweep-extended dependence graph
    ///   ([`SweepGraph`]): node `(s, t)` is task `t` of sweep `s` (a chain
    ///   of up to `grain` consecutive blocks, [`dataflow::dataflow_grain`]),
    ///   with the intra-sweep task edges plus cross-sweep edges from
    ///   `{t} ∪ pred(t)` of sweep `s` into `(s+1, ·)`, so block `b` of
    ///   sweep `s+1` may start as soon as its own lex-forward
    ///   neighborhood of sweep `s` has retired. At
    ///   `sweeps == 1` this is eager dataflow execution. Recorded as
    ///   `scheduler: "dataflow"`, one all-blocks [`LevelRecord`]; a
    ///   batch's trace tasks carry sweep tag `s + 1`, an eager drain's 0.
    ///
    /// Finishing a task decrements each successor's in-degree; the
    /// worker that takes an in-degree to zero keeps the first such task
    /// *in hand* (work-first — it is also the lexicographically
    /// smallest, whose stripe this worker just touched) and routes the
    /// surplus to its owner ([`TaskGraph::owner`]). A join ran no blocks,
    /// so it keeps nothing in hand: chunk `c` of the next level goes to
    /// worker `c`. Cross-sweep successors are offered before intra-sweep
    /// ones, so execution descends the temporal diagonal
    /// `(t, s) → (t', s+1)` while the stripe is still cache-resident. An
    /// idle worker drains its own deque from the back (LIFO keeps the
    /// footprint warm), then steals from the front of its peers' deques
    /// in rotated ring order (`steal_ring`), then waits — `SPIN_ROUNDS`
    /// yields, then it parks until a push onto a deque, the last task's
    /// retirement or an abort wakes it — until every task has retired.
    ///
    /// Workers `1..` are the pool's crew: persistent OS threads spawned by
    /// the first drain that needs them and parked between drains, so a
    /// drain spawns nothing. A drain holds the crew until it returns; a
    /// drain that finds it held (a clone driven from another thread, or a
    /// drain nested in a block body) runs worker 0 alone on the calling
    /// thread and reports a `crew-busy` obs event.
    ///
    /// Results are bit-identical to running the blocks level by level
    /// and the sweeps back-to-back (see `DESIGN.md` §4j). In debug builds
    /// every buffer store is checked against the units the drained graph
    /// leaves unordered ([`overlap::SweepChecker`]). Each worker's state
    /// comes from `init` once per drain and is handed to `merge` on the
    /// calling thread — also the partial state of a worker that failed —
    /// so additive counters (e.g. [`crate::ExecStats`]) stay consistent.
    ///
    /// # Errors
    /// Returns the first error *observed*, which is deterministic at one
    /// thread (the earliest failing block in drain order). Tasks already
    /// running finish; no further task starts.
    ///
    /// # Panics
    /// Propagates panics from worker closures (the original payload is
    /// re-raised once every worker has stopped). The pool stays usable.
    pub fn try_drain<S, E, I, W, M>(
        &self,
        bundle: &ScheduleBundle,
        sweeps: usize,
        init: I,
        work: W,
        merge: M,
    ) -> Result<(), E>
    where
        S: Send,
        E: Send,
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize) -> Result<(), E> + Sync,
        M: FnMut(S),
    {
        if sweeps == 0 {
            return Ok(());
        }
        if sweeps == 1 && self.scheduler == Scheduler::Levels {
            let cols = bundle.wavefronts.cols();
            let checker = overlap::SweepChecker::levels(bundle.wavefronts.rows(), cols);
            let work = |s: &mut S, sweep, u: usize| work(s, sweep, cols[u] as usize);
            return self.drain(&bundle.level_graph(self.threads), checker, init, work, merge);
        }
        let graph = &bundle.graph;
        let sgraph = bundle.sweep_graph(self.grain_for(graph), sweeps);
        self.drain(&sgraph, overlap::SweepChecker::new(graph, sweeps), init, work, merge)
    }

    /// Drains `sgraph` (see [`Self::try_drain`]); `work` receives
    /// `(state, sweep, unit)`.
    fn drain<S, E, I, W, M>(
        &self,
        sgraph: &SweepGraph,
        checker: overlap::SweepChecker,
        init: I,
        work: W,
        mut merge: M,
    ) -> Result<(), E>
    where
        S: Send,
        E: Send,
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize) -> Result<(), E> + Sync,
        M: FnMut(S),
    {
        let tasks = sgraph.tasks();
        if tasks.num_units() == 0 {
            return Ok(());
        }
        let sweeps = sgraph.sweeps();
        let total = sgraph.num_nodes();
        let n_levels = tasks.level(tasks.num_tasks() - 1).map_or(0, |l| l + 1);
        let record = self.obs.enabled();
        let detail = self.obs.detail_enabled();
        // Trace sweep tag: `s + 1` inside a fused batch, 0 for an eager
        // (k = 1) drain, so eager runs keep the untagged worker lanes.
        let tag = move |sweep: usize| if sweeps > 1 { sweep as u32 + 1 } else { 0 };

        // No point running more workers than the graph can keep busy:
        // the surplus would only park until the run retires. A crew
        // another drain holds leaves this one to worker 0 alone, the
        // same body at one thread.
        let wanted = self.threads.min(tasks.width());
        let crew = if wanted > 1 { self.crew.claim(self.threads - 1) } else { None };
        if wanted > 1 && crew.is_none() {
            let why = "another drain holds the pool's workers: ran on the caller alone";
            self.obs.event("crew-busy", why);
        }
        let threads = if crew.is_some() { wanted } else { 1 };
        // A lone worker owns every level chunk.
        let owner = |t: usize| tasks.owner(t, threads).min(threads - 1);
        let indeg: Vec<AtomicU32> = (0..total)
            .map(|node| {
                let (s, t) = sgraph.split(node);
                AtomicU32::new(sgraph.in_degree(s, t))
            })
            .collect();
        let remaining = AtomicUsize::new(total);
        let deques: Vec<Mutex<std::collections::VecDeque<u32>>> = (0..threads)
            .map(|_| Mutex::new(std::collections::VecDeque::new()))
            .collect();
        // Seed each ready root on its owner's deque.
        for r in sgraph.roots() {
            deques[owner(r as usize)].lock().unwrap().push_back(r);
        }
        let abort = AtomicBool::new(false);
        let park = Park::default();
        let panic_slot: Mutex<Option<PanicPayload>> = Mutex::new(None);
        let first_err: Mutex<Option<E>> = Mutex::new(None);
        // Level graphs: when each level closed, in ns since the drain
        // started (written by the level's closing task).
        let closes: Vec<AtomicU64> = (0..if record { n_levels } else { 0 })
            .map(|_| AtomicU64::new(0))
            .collect();
        let start = record.then(Instant::now);
        let init = &init;
        let work = &work;
        let checker = &checker;

        let worker_loop = |w: usize| -> (S, WorkerStats) {
            let _tg = trace::install(self.obs.worker_tracer(w as u32));
            let mut state = init();
            let mut my_next: Option<u32> = None;
            let mut st = WorkerStats {
                levels: vec![WorkerRecord::default(); if detail { n_levels } else { 0 }],
                ..WorkerStats::default()
            };
            let mut idle_rounds = 0u32;
            loop {
                if abort.load(Ordering::Acquire) {
                    break;
                }
                // Local first: the node kept in hand, then the back of
                // the own deque (LIFO keeps the footprint warm).
                let mut node = my_next
                    .take()
                    .or_else(|| deques[w].lock().unwrap().pop_back());
                if node.is_none() {
                    // Steal from the front of a peer's deque (FIFO: take
                    // the work its owner would reach last), next peers
                    // first.
                    for (dist, other) in steal_ring(w, threads).enumerate() {
                        if let Some(t) = deques[other].lock().unwrap().pop_front() {
                            st.total.steals += 1;
                            st.total.steal_dist += dist as u64 + 1;
                            trace::instant(TraceKind::Steal, other as u32, dist as u32 + 1);
                            node = Some(t);
                            break;
                        }
                    }
                }
                let Some(nd) = node else {
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    // Bounded spin, then park: an empty scan means the
                    // pipeline is momentarily narrower than the pool,
                    // and hammering peer deque locks only slows the
                    // workers that do hold work.
                    idle_rounds += 1;
                    if idle_rounds <= SPIN_ROUNDS {
                        thread::yield_now();
                    } else {
                        park.park(idle_rounds, || {
                            remaining.load(Ordering::SeqCst) != 0
                                && !abort.load(Ordering::SeqCst)
                                && deques.iter().all(|d| d.lock().unwrap().is_empty())
                        });
                    }
                    continue;
                };
                idle_rounds = 0;
                let (sweep, task) = sgraph.split(nd as usize);
                let range = tasks.blocks_of(task);
                let chain = range.len() as u64;
                let t0 = detail.then(Instant::now);
                let ts = trace::begin();
                let mut ran = 0u64;
                let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), E> {
                    for b in range {
                        let _wg = checker.guard(sweep, b);
                        work(&mut state, sweep, b)?;
                        ran += 1;
                    }
                    Ok(())
                }));
                if chain > 0 {
                    trace::end_sweep(TraceKind::Task, ts, task as u32, ran as u32, tag(sweep));
                }
                match outcome {
                    Ok(Ok(())) => {
                        let busy = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                        st.total.busy_ns += busy;
                        st.total.blocks += ran;
                        st.total.fused += chain.saturating_sub(1);
                        if let Some(level) = tasks.level(task) {
                            if detail {
                                st.levels[level].busy_ns += busy;
                                st.levels[level].blocks += ran;
                            }
                            if let (Some(start), true) = (start, tasks.closes_level(task)) {
                                let at = start.elapsed().as_nanos() as u64;
                                closes[level].store(at, Ordering::Relaxed);
                            }
                        }
                        // Cross-sweep successors first: with the in-hand
                        // preference this descends the temporal diagonal
                        // — (t, s) hands off to (t', s+1) with t' ≤ t
                        // while the stripe is still hot — and the self
                        // edge (t, s) → (t, s+1) stays on this worker
                        // by construction of the task-keyed shard map.
                        let mut offer = |x: u32, nd: u32| {
                            // Release publishes this node's buffer writes;
                            // the decrement that reaches zero acquires the
                            // whole RMW chain, so a node runs after every
                            // predecessor's stores (the barrier's role).
                            if indeg[nd as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                                if my_next.is_none() && chain > 0 {
                                    my_next = Some(nd);
                                } else {
                                    deques[owner(x as usize)].lock().unwrap().push_back(nd);
                                    park.nudge();
                                }
                            }
                        };
                        if sweep + 1 < sweeps {
                            for &x in sgraph.cross_successors(task) {
                                offer(x, sgraph.node(sweep + 1, x as usize) as u32);
                            }
                        }
                        for &x in sgraph.intra_successors(task) {
                            offer(x, sgraph.node(sweep, x as usize) as u32);
                        }
                        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                            park.wake_all();
                        }
                    }
                    Ok(Err(e)) => {
                        st.total.blocks += ran;
                        let mut slot = first_err.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        abort.store(true, Ordering::SeqCst);
                        park.wake_all();
                    }
                    Err(payload) => {
                        st.total.blocks += ran;
                        let mut slot = panic_slot.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        abort.store(true, Ordering::SeqCst);
                        park.wake_all();
                    }
                }
            }
            (state, st)
        };

        let results: Vec<Mutex<Option<(S, WorkerStats)>>> =
            (0..threads).map(|_| Mutex::new(None)).collect();
        let body = |w: usize| *lock(&results[w]) = Some(worker_loop(w));
        match crew {
            Some(_) => self.crew.run(threads, &body),
            None => body(0),
        }
        drop(crew);
        let wall_ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let (states, stats): (Vec<S>, Vec<WorkerStats>) = results
            .into_iter()
            .filter_map(|r| r.into_inner().unwrap_or_else(PoisonError::into_inner))
            .unzip();
        states.into_iter().for_each(&mut merge);
        if let Some(payload) = panic_slot.into_inner().unwrap() {
            resume_unwind(payload);
        }
        if record {
            let closes: Vec<u64> = closes.into_iter().map(AtomicU64::into_inner).collect();
            self.flush(threads, sgraph, wall_ns, &closes, if detail { stats } else { Vec::new() });
        }
        match first_err.into_inner().unwrap() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Publishes one drain as a [`WavefrontRecord`]; `threads` is the
    /// effective worker count, `workers` empty below `Trace`. A level
    /// graph reports one [`LevelRecord`] per level it closed, its wall
    /// running from the previous level's close (or the drain's start) to
    /// its own. A dependence-graph drain has no levels to split the
    /// timeline on: one all-blocks record whose `blocks` is the per-sweep
    /// count, so report means stay per-sweep across batch depths.
    fn flush(
        &self,
        threads: usize,
        sgraph: &SweepGraph,
        wall_ns: u64,
        closes: &[u64],
        workers: Vec<WorkerStats>,
    ) {
        let tasks = sgraph.tasks();
        let (scheduler, levels) = if tasks.is_level_graph() {
            let mut blocks = vec![0u64; closes.len()];
            for t in 0..tasks.num_tasks() {
                blocks[tasks.level(t).unwrap()] += tasks.blocks_of(t).len() as u64;
            }
            let closed = (0..closes.len()).filter(|&l| blocks[l] > 0 && closes[l] > 0);
            let levels = closed.scan(0, |opened, index| {
                let workers = workers.iter().map(|st| st.levels[index].clone());
                Some(LevelRecord {
                    index,
                    blocks: blocks[index],
                    wall_ns: closes[index] - std::mem::replace(opened, closes[index]),
                    workers: workers.filter(|w| w.blocks > 0).collect(),
                })
            });
            (Scheduler::Levels, levels.collect())
        } else {
            let level = LevelRecord {
                index: 0,
                blocks: tasks.num_units() as u64,
                wall_ns,
                workers: workers.into_iter().map(|st| st.total).collect(),
            };
            (Scheduler::Dataflow, vec![level])
        };
        self.obs.record_wavefronts(WavefrontRecord {
            threads,
            scheduler: scheduler.name().to_owned(),
            sweeps: sgraph.sweeps(),
            levels,
        });
    }
}

/// Runs the `scf.execute_wavefronts` schedule whose transport arrays
/// are `(rows, cols)` `sweeps` times on `pool` — the bytecode engine's
/// dispatch (the reference interpreter walks the levels itself, with no
/// pool). `bundle` is the [`ScheduleBundle`] the `cfd.get_parallel_blocks`
/// that produced `cols` computed, carried to here by the engine with the
/// array; [`WavefrontPool::try_drain`] drains it. A `cols` with no bundle
/// (a `tensor<?xi64>` argument) has no dependence graph: each sweep
/// drains the level graph of `rows`, built for this call, and when a
/// dependence-graph drain was asked for the obs event stream says so.
///
/// # Errors
/// Returns the first error produced by `work`.
///
/// # Panics
/// Panics on a malformed CSR (`rows` not monotone from 0 to
/// `cols.len()`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_wavefronts<S, E, I, W, M>(
    pool: &WavefrontPool,
    rows: &[i64],
    cols: &[i64],
    bundle: Option<&ScheduleBundle>,
    sweeps: usize,
    init: I,
    work: W,
    mut merge: M,
) -> Result<(), E>
where
    S: Send,
    E: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> Result<(), E> + Sync,
    M: FnMut(S),
{
    if let Some(bundle) = bundle {
        return pool.try_drain(bundle, sweeps, init, |s, _, b| work(s, b), merge);
    }
    if sweeps > 1 || pool.scheduler() == Scheduler::Dataflow {
        let name = if sweeps > 1 {
            "sweep-batch-fallback"
        } else {
            "dataflow-fallback"
        };
        pool.obs().event(name, "cols not from cfd.get_parallel_blocks");
    }
    assert_eq!(rows.last(), Some(&(cols.len() as i64)), "row_ptr must end at cols.len()");
    let graph = SweepGraph::build(Arc::new(TaskGraph::levels(rows, pool.threads())), 1);
    let work = |s: &mut S, _, u: usize| work(s, cols[u] as usize);
    for _ in 0..sweeps {
        let checker = overlap::SweepChecker::levels(rows, cols);
        pool.drain(&graph, checker, &init, work, &mut merge)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the hand-written level CSR `levels` with a `usize` state
    /// per worker. It comes with no bundle, so this drains the level
    /// graph built from the rows. Returns the
    /// outcome, the merged total and the number of merged states.
    fn drain_csr(
        threads: usize,
        levels: &[&[i64]],
        work: impl Fn(&mut usize, usize) -> Result<(), String> + Sync,
    ) -> (Result<(), String>, usize, usize) {
        let mut rows = vec![0];
        rows.extend(levels.iter().scan(0, |n, l| {
            *n += l.len() as i64;
            Some(*n)
        }));
        let (mut total, mut merges) = (0, 0);
        let pool = WavefrontPool::new(threads);
        let merge = |count| {
            total += count;
            merges += 1;
        };
        let cols = levels.concat();
        let outcome = execute_wavefronts(&pool, &rows, &cols, None, 1, || 0, work, merge);
        (outcome, total, merges)
    }

    #[test]
    fn levels_are_barriers() {
        // Start/end stamps from one logical clock: no block of level
        // L + 1 may start before every block of level L has ended.
        let deps = vec![vec![-1, 0], vec![0, -1]];
        let bundle = ScheduleBundle::new(&[5, 5], &deps);
        let mut level = [0; 25];
        for (l, row) in bundle.wavefronts.levels().enumerate() {
            for &b in row {
                level[b as usize] = l;
            }
        }
        for threads in [1usize, 2, 3] {
            let clock = AtomicUsize::new(1);
            let stamps: Vec<[AtomicUsize; 2]> = (0..25).map(|_| Default::default()).collect();
            let work = |_: &mut (), _, b: usize| {
                stamps[b][0].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                stamps[b][1].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                Ok::<(), ()>(())
            };
            WavefrontPool::new(threads).try_drain(&bundle, 1, || (), work, |()| {}).unwrap();
            for (a, b) in (0..25).flat_map(|a| (0..25).map(move |b| (a, b))) {
                if level[a] < level[b] {
                    let end = stamps[a][1].load(Ordering::SeqCst);
                    let start = stamps[b][0].load(Ordering::SeqCst);
                    assert!(end < start, "threads={threads}: {b} started before {a} ended");
                }
            }
        }
    }

    #[test]
    fn single_thread_path() {
        let order = Mutex::new(Vec::new());
        let (outcome, ..) = drain_csr(1, &[&[0, 1], &[2]], |_, b| {
            order.lock().unwrap().push(b);
            Ok(())
        });
        outcome.unwrap();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn stateful_propagates_first_error_and_partial_state() {
        for threads in [1usize, 3] {
            let (outcome, total, _) = drain_csr(threads, &[&[0, 1], &[2, 3]], |count, b| {
                if b >= 2 {
                    return Err(format!("block {b} failed"));
                }
                *count += 1;
                Ok(())
            });
            let err = outcome.unwrap_err();
            assert!(err.starts_with("block "), "threads={threads}: {err}");
            // Level 0 completed before the failing level was entered.
            assert_eq!(total, 2, "threads={threads}");
        }
    }

    #[test]
    fn stateful_empty_schedule() {
        // Nothing to run: no worker starts, so nothing to merge.
        let (outcome, _, merges) = drain_csr(4, &[&[], &[]], |_, _| Ok(()));
        outcome.unwrap();
        assert_eq!(merges, 0);
    }

    #[test]
    fn executes_every_block_once() {
        // The default scheduler drains the minted level graph.
        let bundle = ScheduleBundle::new(&[4, 4], &[vec![-1i64, 0], vec![0, -1]]);
        let count = AtomicUsize::new(0);
        let seen = Mutex::new(vec![false; 16]);
        let work = |(): &mut (), _, b: usize| {
            count.fetch_add(1, Ordering::SeqCst);
            let mut seen = seen.lock().unwrap();
            assert!(!seen[b], "block {b} executed twice");
            seen[b] = true;
            Ok::<(), ()>(())
        };
        WavefrontPool::new(4).try_drain(&bundle, 1, || (), work, |()| {}).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 16);
        assert!(seen.lock().unwrap().iter().all(|&x| x));
    }

    #[test]
    fn stateful_merges_every_worker() {
        // 3 levels, 7 blocks, more workers than blocks in some levels.
        for threads in [1usize, 2, 4, 8] {
            let (outcome, total, merges) =
                drain_csr(threads, &[&[0], &[1, 2, 3], &[4, 5, 6]], |count, b| {
                    *count += b + 1;
                    Ok(())
                });
            outcome.unwrap();
            // Sum of (b+1) over b in 0..7 regardless of thread count.
            assert_eq!(total, 28, "threads={threads}");
            assert!(merges >= 1);
        }
    }

    #[test]
    fn stateful_propagates_worker_panics_with_payload() {
        // One thread included: a lone worker's panic goes through the
        // same catch, merge and re-raise as a spawned worker's.
        for threads in [1usize, 2] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let (outcome, ..) = drain_csr(threads, &[&[0, 1, 2, 3]], |_, b| {
                    if b == 1 {
                        panic!("block {b} exploded");
                    }
                    Ok(())
                });
                outcome.unwrap();
            }))
            .expect_err("worker panic must propagate");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(
                msg, "block 1 exploded",
                "threads={threads}: original payload must survive"
            );
        }
    }

    #[test]
    fn levels_record_one_level_per_wavefront_level_at_trace() {
        // 5x5 Gauss-Seidel: 9 anti-diagonal levels of widths 1..5..1.
        let obs = Obs::new(instencil_obs::ObsLevel::Trace);
        let bundle = ScheduleBundle::new(&[5, 5], &[vec![-1i64, 0], vec![0, -1]]);
        WavefrontPool::with_opts(2, obs.clone(), Scheduler::Levels)
            .try_drain(&bundle, 1, || (), |(), _, _| Ok::<(), ()>(()), |()| {})
            .unwrap();
        let w = &obs.snapshot().wavefronts[0];
        assert_eq!((w.scheduler.as_str(), w.threads, w.sweeps), ("levels", 2, 1));
        let widths: Vec<u64> = w.levels.iter().map(|l| l.blocks).collect();
        assert_eq!(widths, vec![1, 2, 3, 4, 5, 4, 3, 2, 1]);
        for (i, level) in w.levels.iter().enumerate() {
            let ran: u64 = level.workers.iter().map(|x| x.blocks).sum();
            assert_eq!((level.index, ran), (i, level.blocks), "every block attributed once");
        }
    }

    // The eager dataflow scheduler is the graph drain at k = 1; these
    // tests drain both graphs, the level graph as the second input.

    /// Every `(threads, scheduler)` pair over `threads` and both graphs.
    fn both(threads: &[usize]) -> impl Iterator<Item = (usize, Scheduler)> + '_ {
        let schedulers = [Scheduler::Dataflow, Scheduler::Levels];
        threads.iter().flat_map(move |&t| schedulers.map(|s| (t, s)))
    }

    #[test]
    fn dataflow_executes_every_block_once_and_respects_deps() {
        let bundle = ScheduleBundle::new(&[5, 5], &[vec![-1i64, 0], vec![0, -1]]);
        for (threads, scheduler) in both(&[1, 2, 4, 8]) {
            let clock = AtomicUsize::new(0);
            let starts: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
            let ends: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
            let count = AtomicUsize::new(0);
            WavefrontPool::with_opts(threads, Obs::off(), scheduler)
                .try_drain(
                    &bundle,
                    1,
                    || (),
                    |(), _, b| {
                        starts[b].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        count.fetch_add(1, Ordering::SeqCst);
                        ends[b].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        Ok::<(), ()>(())
                    },
                    |()| {},
                )
                .unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 25, "{scheduler:?} threads={threads}");
            for (b, start) in starts.iter().enumerate() {
                for &p in bundle.graph.predecessors(b) {
                    assert!(
                        ends[p as usize].load(Ordering::SeqCst) < start.load(Ordering::SeqCst),
                        "{scheduler:?} threads={threads}: pred {p} still running when {b} started"
                    );
                }
            }
        }
    }

    #[test]
    fn dataflow_merges_states_and_propagates_errors() {
        let bundle = ScheduleBundle::new(&[4, 2], &[vec![-1i64, 0]]);
        for (threads, scheduler) in both(&[1, 2, 4]) {
            let mut total = 0usize;
            WavefrontPool::with_opts(threads, Obs::off(), scheduler)
                .try_drain(
                    &bundle,
                    1,
                    || 0usize,
                    |count, _, b| {
                        *count += b + 1;
                        Ok::<(), ()>(())
                    },
                    |count| total += count,
                )
                .unwrap();
            assert_eq!(total, 36, "{scheduler:?} threads={threads}");

            let err = WavefrontPool::with_opts(threads, Obs::off(), scheduler)
                .try_drain(
                    &bundle,
                    1,
                    || (),
                    |(), _, b| {
                        if b >= 6 {
                            return Err(format!("block {b} failed"));
                        }
                        Ok(())
                    },
                    |()| {},
                )
                .unwrap_err();
            assert!(err.starts_with("block "), "{scheduler:?} threads={threads}: {err}");
        }
    }

    #[test]
    fn dataflow_propagates_worker_panics_with_payload() {
        let bundle = ScheduleBundle::new(&[3, 3], &[vec![-1i64, 0], vec![0, -1]]);
        for (threads, scheduler) in both(&[1, 3]) {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                WavefrontPool::with_opts(threads, Obs::off(), scheduler)
                    .try_drain(
                        &bundle,
                        1,
                        || (),
                        |(), _, b| {
                            if b == 4 {
                                panic!("block {b} exploded");
                            }
                            Ok::<(), ()>(())
                        },
                        |()| {},
                    )
                    .unwrap();
            }))
            .expect_err("worker panic must propagate");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, "block 4 exploded", "{scheduler:?} threads={threads}");
        }
    }

    #[test]
    fn dataflow_empty_graph_is_a_no_op() {
        // A 1-block graph with no deps degenerates but must still run.
        let bundle = ScheduleBundle::new(&[1], &[]);
        for (threads, scheduler) in both(&[4]) {
            let mut ran = 0usize;
            WavefrontPool::with_opts(threads, Obs::off(), scheduler)
                .try_drain(
                    &bundle,
                    1,
                    || (),
                    |(), _, _| Ok::<(), ()>(()),
                    |()| ran += 1,
                )
                .unwrap();
            assert!(ran >= 1, "{scheduler:?}");
        }
    }

    #[test]
    fn dataflow_fuses_chains_and_counts_blocks_not_tasks() {
        // 6x6 grid at 4 threads:
        // grain = (36 / (4*4)).clamp(1, 6) = 2, row-clipped into 18
        // tasks of 2 blocks each. The `blocks` counters must keep
        // counting *blocks* and the fusion savings must be attributed
        // to `fused`.
        let obs = Obs::new(instencil_obs::ObsLevel::Trace);
        let bundle = ScheduleBundle::new(&[6, 6], &[vec![-1i64, 0], vec![0, -1]]);
        let pool = WavefrontPool::with_opts(4, obs.clone(), Scheduler::Dataflow);
        assert_eq!(pool.grain_for(&bundle.graph), 2);
        let count = AtomicUsize::new(0);
        pool.try_drain(
            &bundle,
            1,
            || (),
            |(), _, _| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok::<(), ()>(())
            },
            |()| {},
        )
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 36);
        let rec = obs.snapshot();
        let w = &rec.wavefronts[0];
        let blocks: u64 = w.levels[0].workers.iter().map(|x| x.blocks).sum();
        let fused: u64 = w.levels[0].workers.iter().map(|x| x.fused).sum();
        let steals: u64 = w.levels[0].workers.iter().map(|x| x.steals).sum();
        let dist: u64 = w.levels[0].workers.iter().map(|x| x.steal_dist).sum();
        assert_eq!(blocks, 36, "counters count blocks, not tasks");
        assert_eq!(fused, 18, "36 blocks over 18 two-block tasks");
        assert!(dist >= steals, "every steal travels distance >= 1");
    }

    #[test]
    fn dataflow_records_steals_and_busy_at_trace() {
        let obs = Obs::new(instencil_obs::ObsLevel::Trace);
        let bundle = ScheduleBundle::new(&[6, 6], &[vec![-1i64, 0], vec![0, -1]]);
        WavefrontPool::with_opts(4, obs.clone(), Scheduler::Dataflow)
            .try_drain(
                &bundle,
                1,
                || (),
                |(), _, _| {
                    // Enough work that busy times are nonzero.
                    std::hint::black_box((0..500).sum::<u64>());
                    Ok::<(), ()>(())
                },
                |()| {},
            )
            .unwrap();
        let rec = obs.snapshot();
        assert_eq!(rec.wavefronts.len(), 1);
        let w = &rec.wavefronts[0];
        assert_eq!(w.scheduler, "dataflow");
        assert_eq!(w.levels.len(), 1, "dataflow reports one all-blocks level");
        assert_eq!(w.levels[0].blocks, 36);
        let total: u64 = w.levels[0].workers.iter().map(|x| x.blocks).sum();
        assert_eq!(total, 36, "every block attributed to exactly one worker");
        assert!(w.levels[0].wall_ns > 0);
        // k = 1 keeps the eager shape: one sweep, untagged trace tasks.
        assert_eq!(w.sweeps, 1);
        let mut tasks = rec
            .rings
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.kind == TraceKind::Task);
        assert!(
            tasks.all(|e| e.sweep == 0),
            "eager task events carry sweep tag 0"
        );
    }

    /// Drains `bundle` once on `pool`, counting the blocks run.
    fn count_blocks(pool: &WavefrontPool, bundle: &ScheduleBundle) -> usize {
        let count = AtomicUsize::new(0);
        let work = |(): &mut (), _, _| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok::<(), ()>(())
        };
        pool.try_drain(bundle, 1, || (), work, |()| {}).unwrap();
        count.into_inner()
    }

    /// The message of a caught `panic!` payload.
    fn message(payload: PanicPayload) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map_or_else(String::new, |s| (*s).to_owned()),
        }
    }

    #[test]
    fn crew_survives_block_and_body_panics() {
        let bundle = ScheduleBundle::new(&[4, 4], &[vec![-1i64, 0], vec![0, -1]]);
        for (threads, scheduler) in both(&[2, 4]) {
            let pool = WavefrontPool::with_opts(threads, Obs::off(), scheduler);
            let at = format!("{scheduler:?} threads={threads}");
            // A block panic is caught per task and re-raised on the
            // caller, eager or in the second sweep of a batch.
            for sweeps in [1, 2] {
                let err = catch_unwind(AssertUnwindSafe(|| {
                    let work = |(): &mut (), sweep, b: usize| {
                        if sweep + 1 == sweeps && b == 5 {
                            panic!("block {b} exploded");
                        }
                        Ok::<(), ()>(())
                    };
                    pool.try_drain(&bundle, sweeps, || (), work, |()| {}).unwrap();
                }))
                .expect_err("a block panic must propagate");
                assert_eq!(message(err), "block 5 exploded", "{at} sweeps={sweeps}");
                assert_eq!(count_blocks(&pool, &bundle), 16, "{at}: same pool drains again");
            }
            // A panic outside any task (the second worker's `init`) escapes
            // the worker body, on the caller or on a crew thread.
            let inits = AtomicUsize::new(0);
            let err = catch_unwind(AssertUnwindSafe(|| {
                let init = || {
                    if inits.fetch_add(1, Ordering::SeqCst) == 1 {
                        panic!("init exploded");
                    }
                };
                let work = |(): &mut (), _, _| Ok::<(), ()>(());
                pool.try_drain(&bundle, 1, init, work, |()| {}).unwrap();
            }))
            .expect_err("an escaped panic must propagate");
            assert_eq!(message(err), "init exploded", "{at}");
            assert_eq!(count_blocks(&pool, &bundle), 16, "{at}: same pool drains again");
            assert_eq!(pool.live_workers()(), threads - 1, "{at}: no crew thread died");
        }
    }

    #[test]
    fn dropping_the_pool_joins_its_crew() {
        let bundle = ScheduleBundle::new(&[4, 4], &[vec![-1i64, 0]]);
        let pool = WavefrontPool::new(4);
        let live = pool.live_workers();
        assert_eq!(live(), 0, "spawned lazily");
        assert_eq!(count_blocks(&pool, &bundle), 16);
        assert_eq!(live(), 3, "threads - 1 crew workers");
        let clone = pool.clone();
        assert_eq!(count_blocks(&clone, &bundle), 16);
        assert_eq!(live(), 3, "clones share the crew");
        drop(pool);
        assert_eq!(live(), 3, "a clone keeps the crew");
        drop(clone);
        assert_eq!(live(), 0, "the last drop joins every worker");
    }

    #[test]
    fn a_held_crew_leaves_the_drain_to_the_caller() {
        let bundle = ScheduleBundle::new(&[4, 4], &[vec![-1i64, 0], vec![0, -1]]);
        let busy = |obs: &Obs| obs.snapshot().events.iter().any(|e| e.name == "crew-busy");
        for scheduler in [Scheduler::Levels, Scheduler::Dataflow] {
            // Two clones at once from two threads: the first holds the
            // crew in block 0 until the second has finished alone.
            let obs = Obs::new(instencil_obs::ObsLevel::Summary);
            let pool = WavefrontPool::with_opts(2, obs.clone(), scheduler);
            let (started, finished) = (AtomicBool::new(false), AtomicBool::new(false));
            let clone = pool.clone();
            let (count, other) = thread::scope(|s| {
                let second = s.spawn(|| {
                    while !started.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    let n = count_blocks(&clone, &bundle);
                    finished.store(true, Ordering::SeqCst);
                    n
                });
                let count = AtomicUsize::new(0);
                let work = |(): &mut (), _, b: usize| {
                    if b == 0 {
                        started.store(true, Ordering::SeqCst);
                        while !finished.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                    }
                    count.fetch_add(1, Ordering::SeqCst);
                    Ok::<(), ()>(())
                };
                pool.try_drain(&bundle, 1, || (), work, |()| {}).unwrap();
                (count.into_inner(), second.join().unwrap())
            });
            assert_eq!((count, other), (16, 16), "{scheduler:?}");
            assert!(busy(&obs), "{scheduler:?}: the second drain reports the held crew");

            // A drain nested in a block body of a drain on the same pool.
            let obs = Obs::new(instencil_obs::ObsLevel::Summary);
            let pool = WavefrontPool::with_opts(2, obs.clone(), scheduler);
            let (outer, inner) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let work = |(): &mut (), _, b: usize| {
                if b == 0 {
                    inner.store(count_blocks(&pool, &bundle), Ordering::SeqCst);
                }
                outer.fetch_add(1, Ordering::SeqCst);
                Ok::<(), ()>(())
            };
            pool.try_drain(&bundle, 1, || (), work, |()| {}).unwrap();
            assert_eq!((outer.into_inner(), inner.into_inner()), (16, 16), "{scheduler:?}");
            assert!(busy(&obs), "{scheduler:?}: the nested drain reports the held crew");
        }
    }

    #[test]
    fn steal_ring_starts_after_the_thief() {
        // The scan must start at w+1 and wrap, not start at 0.
        assert_eq!(steal_ring(3, 8).collect::<Vec<_>>(), vec![4, 5, 6, 7, 0, 1, 2]);
        assert_eq!(steal_ring(0, 4).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn steal_ring_visits_every_peer_once() {
        for threads in [2usize, 8, 22, 44] {
            for w in 0..threads {
                let mut seen: Vec<usize> = steal_ring(w, threads).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..threads).filter(|&p| p != w).collect::<Vec<_>>());
            }
        }
    }
}
