//! Real multithreaded wavefront execution.
//!
//! [`WavefrontPool`] executes a block schedule with genuine OS threads
//! through exactly two entry points, one per synchronization discipline:
//!
//! * [`WavefrontPool::try_execute_stateful`] — **levels**, the §3.4
//!   lowering as written: a sequential loop over wavefront levels with
//!   the level's sub-domain indices split across the workers and a
//!   barrier between consecutive levels. The pool is *persistent*:
//!   workers are spawned once per run and synchronize on a lightweight
//!   [`std::sync::Barrier`], not respawned per level. This is the
//!   default scheduler and the oracle the graph drain is tested against.
//! * [`WavefrontPool::try_execute_sweep_batch`] — the **graph drain** of
//!   `k ≥ 1` in-place sweeps over the sweep-extended block dependence
//!   graph ([`SweepGraph`]); eager [`Scheduler::Dataflow`] execution is
//!   the `k = 1` chain (OPS-style: one lazy loop-chain executor, eager
//!   execution its length-1 case). Blocks are coarsened into
//!   [`TaskGraph`](instencil_pattern::dataflow::TaskGraph) tasks: chains of consecutive small blocks fuse into
//!   single scheduled units so the atomic in-degree traffic and deque
//!   locking amortize over real work (the machine model's
//!   [`Machine::dataflow_grain`] picks the fusion grain). Each worker
//!   drains a ready-set of nodes, decrements successor in-degrees with
//!   atomics, and routes newly-ready nodes to their *owning* worker's
//!   deque — ownership is a stable contiguous shard of the task index
//!   space ([`shard_owner`]), so lexicographic neighbors stay on one core
//!   across sweeps. An idle worker steals along a NUMA-near-first rotated
//!   peer order derived from the [`Machine`] topology, and backs off
//!   (bounded spin, then exponential sleep) when the whole pool runs dry.
//!   The Release half of the in-degree `fetch_sub` and the Acquire half
//!   performed by the final decrementer form a happens-before chain from
//!   every predecessor's buffer writes to the successor's execution,
//!   replacing the barrier's publication role (see `DESIGN.md`
//!   §4f/§4g/§4j).
//!
//! Each entry point has exactly one worker body, at every thread count.
//! Worker 0 runs on the calling thread inside the [`thread::scope`], so
//! a lone worker spawns nothing; it also skips the level barrier, whose
//! one-party wait would still cost a futex round trip per level. Both
//! run closures over *linearized sub-domain indices* with private
//! per-worker state (the bytecode engine runs `scf.execute_wavefronts`
//! bodies with a per-thread register file and statistics frame), merge
//! every worker's state on the calling thread, and propagate the first
//! error and any worker panic.
//!
//! [`SweepGraph`]: instencil_pattern::dataflow::SweepGraph

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use instencil_machine::topology::{xeon_6152_dual, Machine};
use instencil_obs::trace::{self, TraceKind};
use instencil_obs::{LevelRecord, Obs, WavefrontRecord, WorkerRecord};
use instencil_pattern::dataflow::{self, shard_owner, BlockGraph, ScheduleBundle, Scheduler};
use instencil_pattern::CsrWavefronts;

use crate::buffer::overlap;

/// Captured panic payload from a worker, re-raised on the calling
/// thread so the original message (e.g. the overlap checker's) survives.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Per-level obs samples a worker collects: `(level index, busy ns,
/// blocks executed)`.
type LevelSamples = Vec<(usize, u64, u64)>;

/// Idle scan rounds an empty-handed worker spends yielding before it
/// starts sleeping. Yields are near-free and keep wake-up latency at
/// scheduler-quantum scale while the wavefront pipeline is merely
/// momentarily narrow.
const SPIN_ROUNDS: u32 = 64;

/// Cap on the exponential sleep, microseconds. Bounded low: a parked
/// owner whose deque just received routed work must come back quickly,
/// or the affinity routing would lengthen the critical path.
const MAX_PARK_US: u64 = 64;

/// Per-worker counters of one dataflow run, surfaced as a
/// [`WorkerRecord`] at `Trace` detail.
#[derive(Clone, Copy, Default)]
struct WorkerStats {
    busy_ns: u64,
    blocks: u64,
    steals: u64,
    steal_dist: u64,
    fused: u64,
}

/// The process-default machine model (the paper's evaluation platform);
/// used when a pool is built without an explicit [`Machine`].
fn default_machine() -> Arc<Machine> {
    static MODEL: OnceLock<Arc<Machine>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| Arc::new(xeon_6152_dual())))
}

/// A scoped thread pool executing wavefront schedules.
#[derive(Clone, Debug)]
pub struct WavefrontPool {
    threads: usize,
    obs: Obs,
    scheduler: Scheduler,
    machine: Arc<Machine>,
}

impl WavefrontPool {
    /// Creates a pool with the given number of worker threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        Self::with_obs(threads, Obs::off())
    }

    /// Creates a pool that records per-level (and, at
    /// [`instencil_obs::ObsLevel::Trace`], per-worker) timings into `obs`.
    pub fn with_obs(threads: usize, obs: Obs) -> Self {
        Self::with_opts(threads, obs, Scheduler::Levels)
    }

    /// Creates a pool with an explicit scheduler mode, on the default
    /// machine model.
    pub fn with_opts(threads: usize, obs: Obs, scheduler: Scheduler) -> Self {
        Self::with_machine(threads, obs, scheduler, default_machine())
    }

    /// Creates a pool whose steal order and coarsening grain derive
    /// from an explicit [`Machine`] topology.
    pub fn with_machine(
        threads: usize,
        obs: Obs,
        scheduler: Scheduler,
        machine: Arc<Machine>,
    ) -> Self {
        WavefrontPool {
            threads: threads.max(1),
            obs,
            scheduler,
            machine,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The machine topology this pool schedules against.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The observability collector this pool reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The scheduler mode this pool runs under.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// Executes a fallible `work` closure over every scheduled sub-domain
    /// with per-worker state, level by level.
    ///
    /// Each worker thread gets its own state from `init` once for the
    /// whole run (the pool is persistent — workers are spawned once, and
    /// a [`Barrier`] separates consecutive levels, which is what
    /// publishes one level's buffer stores to the next; see
    /// [`crate::buffer`]). Within a level the sub-domain indices are
    /// split into contiguous chunks, one per worker. A lone worker runs
    /// the same body on the calling thread without waiting on the
    /// barrier. When the run finishes (or fails), every worker's state
    /// is handed to `merge` on the calling thread.
    ///
    /// State is always merged — including the partial state of a worker
    /// that failed — so additive counters (e.g. [`crate::ExecStats`])
    /// stay consistent. Workers already running when another worker of
    /// the same level fails are not cancelled; no further level starts
    /// after a failure.
    ///
    /// # Errors
    /// Returns the first error produced by `work` (earliest failing
    /// level, lowest worker index within it).
    ///
    /// # Panics
    /// Propagates panics from worker closures (the original payload is
    /// re-raised once every worker has parked).
    pub fn try_execute_stateful<S, E, I, W, M>(
        &self,
        schedule: &CsrWavefronts,
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
        let record = self.obs.enabled();
        let detail = self.obs.detail_enabled();
        let mut level_records: Vec<LevelRecord> = Vec::new();
        if schedule.num_blocks() == 0 {
            // Nothing to run: spawn no workers, merge no states.
            self.flush_levels(self.threads, level_records);
            return Ok(());
        }

        // Workers beyond the widest level would only ever wait at
        // barriers — clamp to the schedule's actual width.
        let max_width = schedule.levels().map(|l| l.len()).max().unwrap_or(1);
        let threads = self.threads.min(max_width.max(1));
        let n_total = schedule.num_blocks();
        let init = &init;
        let work = &work;
        // One checker per level, shared by all workers of that level
        // (a ZST vector in release builds).
        let checkers: Vec<overlap::LevelChecker> = (0..schedule.num_levels())
            .map(|_| overlap::LevelChecker::new())
            .collect();
        let barrier = Barrier::new(threads);
        // A lone worker has no peer to align with or publish to — program
        // order already separates its levels — and a one-party
        // `Barrier::wait` still costs a futex round trip per level.
        let sync = || {
            if threads > 1 {
                barrier.wait();
            }
        };
        // Index of the earliest level where a worker failed or panicked.
        // This must be a level, not a boolean: a fast worker can race
        // into level L+1 and fail there before a slow worker performs
        // its post-barrier check at level L — a boolean would make the
        // slow worker break a level early and desert the L+1 barrier.
        // Any value <= L is published before level L's end barrier, so
        // the `stop_level <= L` decision is uniform across workers.
        let stop_level = AtomicUsize::new(usize::MAX);
        let panic_slot: Mutex<Option<PanicPayload>> = Mutex::new(None);
        let first_err: Mutex<Option<(usize, usize, E)>> = Mutex::new(None);
        // Per-level wall times, written by worker 0 only.
        let walls: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());

        // The persistent worker body: iterates all levels in lockstep
        // with its peers, executing its static chunk of each level.
        // Returns the worker state plus per-level (index, busy_ns,
        // blocks) samples for the obs records.
        let worker_loop = |w: usize| -> (S, Vec<(usize, u64, u64)>) {
            let _tg = trace::install(self.obs.worker_tracer(w as u32));
            let mut state = init();
            let mut samples: Vec<(usize, u64, u64)> = Vec::new();
            for (index, level) in schedule.levels().enumerate() {
                if level.is_empty() {
                    continue;
                }
                // Start alignment: no peer enters the level before
                // worker 0 has read the clock, so the recorded wall
                // covers every worker's chunk.
                let t0 = (record && w == 0).then(Instant::now);
                if record {
                    sync();
                }
                let w0 = detail.then(Instant::now);
                let ts = trace::begin();
                let mut done = 0u64;
                let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), E> {
                    // Stable worker↔tile affinity: worker `w` executes
                    // the blocks of its contiguous flat-index shard in
                    // *every* level and every sweep. The per-level
                    // membership varies, but a given block (and its
                    // cache lines, and its recurrence-stripe neighbors)
                    // always belongs to the same worker — unlike
                    // chunking each level afresh, which reshuffled
                    // blocks across workers between levels and trashed
                    // private caches.
                    for &b in level {
                        if shard_owner(b, n_total, threads) != w {
                            continue;
                        }
                        done += 1;
                        let _wg = checkers[index].guard(b);
                        work(&mut state, b)?;
                    }
                    Ok(())
                }));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        let mut slot = first_err.lock().unwrap();
                        if slot.as_ref().is_none_or(|&(pl, pw, _)| (index, w) < (pl, pw)) {
                            *slot = Some((index, w, e));
                        }
                        stop_level.fetch_min(index, Ordering::AcqRel);
                    }
                    Err(payload) => {
                        let mut slot = panic_slot.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        stop_level.fetch_min(index, Ordering::AcqRel);
                    }
                }
                if done > 0 {
                    trace::end(TraceKind::Task, ts, index as u32, done as u32);
                }
                if detail {
                    samples.push((index, w0.map_or(0, |t| t.elapsed().as_nanos() as u64), done));
                }
                // The end-of-level barrier: publishes this level's
                // stores to the next level and lines every worker up on
                // the same stop decision.
                sync();
                if let Some(t0) = t0 {
                    walls.lock().unwrap().push((index, t0.elapsed().as_nanos() as u64));
                }
                if stop_level.load(Ordering::Acquire) <= index {
                    break;
                }
            }
            (state, samples)
        };

        let mut results: Vec<(S, LevelSamples)> = Vec::with_capacity(threads);
        thread::scope(|s| {
            let handles: Vec<_> = (1..threads)
                .map(|w| s.spawn(move || worker_loop(w)))
                .collect();
            results.push(worker_loop(0));
            for h in handles {
                // Workers catch their own panics; a join error here means
                // something escaped the protocol — re-raise it directly.
                results.push(h.join().unwrap_or_else(|p| resume_unwind(p)));
            }
        });

        if record {
            let walls = walls.into_inner().unwrap();
            for &(index, wall_ns) in &walls {
                let mut workers = Vec::new();
                if detail {
                    for (_, samples) in &results {
                        if let Some(&(_, busy_ns, blocks)) =
                            samples.iter().find(|&&(i, _, _)| i == index)
                        {
                            if blocks > 0 {
                                workers.push(WorkerRecord {
                                    busy_ns,
                                    blocks,
                                    ..WorkerRecord::default()
                                });
                            }
                        }
                    }
                }
                level_records.push(LevelRecord {
                    index,
                    blocks: schedule.level(index).len() as u64,
                    wall_ns,
                    workers,
                });
            }
        }
        for (state, _) in results {
            merge(state);
        }
        if let Some(payload) = panic_slot.into_inner().unwrap() {
            resume_unwind(payload);
        }
        self.flush_levels(threads, level_records);
        match first_err.into_inner().unwrap() {
            Some((_, _, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// The coarsening grain for `graph` under this pool's machine model
    /// and worker count.
    fn grain_for(&self, graph: &BlockGraph) -> usize {
        let inner = graph.grid().last().copied().unwrap_or(1);
        self.machine.dataflow_grain(graph.num_blocks(), inner, self.threads)
    }

    /// Executes `sweeps ≥ 1` identical in-place sweeps as one dataflow
    /// drain over the sweep-extended dependence graph
    /// ([`SweepGraph`](instencil_pattern::dataflow::SweepGraph)): node
    /// `(s, t)` is task `t` of sweep `s` (a chain of up to `grain`
    /// consecutive blocks at the machine-derived coarsening grain), with
    /// the usual intra-sweep task edges plus cross-sweep edges from
    /// `{t} ∪ pred(t)` of sweep `s` into `(s+1, ·)` — block `b` of
    /// sweep `s+1` may start as soon as its own lex-forward
    /// neighborhood of sweep `s` has retired, long before sweep `s`
    /// finishes. `work` receives `(state, sweep, block)`. At
    /// `sweeps == 1` this is eager dataflow execution: each block runs
    /// as soon as all its predecessors have finished, with no level
    /// barriers, and the run is recorded and traced as an untagged
    /// eager sweep.
    ///
    /// Always drains dataflow-style regardless of the pool's
    /// [`Scheduler`] knob (a level barrier would serialize the sweeps
    /// and defeat the batching). Finishing a node decrements each
    /// successor's in-degree; the worker that takes an in-degree to zero
    /// keeps the first such node *in hand* (work-first — it is also the
    /// lexicographically smallest, whose stripe this worker just
    /// touched) and routes the surplus to its *owner*, where ownership
    /// is the stable contiguous shard map over *task index*
    /// ([`shard_owner`] over tasks, not nodes), keeping every sweep of a
    /// stripe on the worker that owns it. Cross-sweep successors are
    /// offered before intra-sweep ones, so execution descends the
    /// temporal diagonal `(t, s) → (t', s+1)` while the stripe's working
    /// set is still cache-resident. An idle worker first drains its own
    /// deque from the back (LIFO keeps the footprint warm), then steals
    /// from the front of its peers' deques in the machine's
    /// NUMA-near-first rotated order, then backs off — `SPIN_ROUNDS`
    /// yields, then exponential sleep capped at `MAX_PARK_US` — until
    /// every node has retired. A lone worker runs this same loop on the
    /// calling thread, its own deque holding the whole ready set.
    ///
    /// Within a sweep, blocks of a task run in ascending flat order;
    /// across sweeps the cross edges reproduce the L/U in-place
    /// dependence pattern, so results are bit-identical to running the
    /// sweeps back-to-back (see `DESIGN.md` §4j). In debug builds every
    /// buffer store is checked against the sweep-qualified write
    /// intervals of concurrent nodes ([`overlap::SweepChecker`]).
    ///
    /// State and merge semantics match
    /// [`try_execute_stateful`](Self::try_execute_stateful); under
    /// concurrency "first error" is the first one *observed*, which is
    /// deterministic only at one thread.
    ///
    /// # Errors
    /// Returns the first observed error produced by `work`; remaining
    /// nodes are abandoned.
    ///
    /// # Panics
    /// Propagates panics from worker closures (original payload).
    pub fn try_execute_sweep_batch<S, E, I, W, M>(
        &self,
        bundle: &ScheduleBundle,
        sweeps: usize,
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
        let graph = &bundle.graph;
        let n = graph.num_blocks();
        if n == 0 || sweeps == 0 {
            return Ok(());
        }
        let sgraph = bundle.sweep_graph(self.grain_for(graph), sweeps);
        let n_tasks = sgraph.num_tasks();
        let total = sgraph.num_nodes();
        let record = self.obs.enabled();
        let detail = self.obs.detail_enabled();
        let checker = overlap::SweepChecker::new(graph, sweeps);
        // Trace sweep tag: `s + 1` inside a fused batch, 0 for an eager
        // (k = 1) drain, so eager runs keep the untagged worker lanes.
        let tag = move |sweep: usize| if sweeps > 1 { sweep as u32 + 1 } else { 0 };

        // The work-stealing worker loop over sweep-extended nodes.
        // Sharding is by *task* so every sweep of a stripe lands on the
        // worker whose cache already holds it. No point spawning more
        // workers than tasks: the surplus would only spin on empty deques
        // until the run retires.
        let threads = self.threads.min(n_tasks);
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
        // Seed each worker's deque with its own contiguous shard of the
        // ready roots (task indices ascend with flat block order, so
        // shard neighbors are lexicographic neighbors).
        for r in sgraph.roots() {
            deques[shard_owner(r as usize % n_tasks, n_tasks, threads)]
                .lock()
                .unwrap()
                .push_back(r);
        }
        let steal_orders: Vec<Vec<usize>> =
            (0..threads).map(|w| self.machine.steal_order(w, threads)).collect();
        let abort = AtomicBool::new(false);
        let panic_slot: Mutex<Option<PanicPayload>> = Mutex::new(None);
        let first_err: Mutex<Option<E>> = Mutex::new(None);
        let init = &init;
        let work = &work;
        let checker = &checker;
        let sgraph = &sgraph;
        let steal_orders = &steal_orders;

        let worker_loop = |w: usize| -> (S, WorkerStats) {
            let _tg = trace::install(self.obs.worker_tracer(w as u32));
            let mut state = init();
            let mut my_next: Option<u32> = None;
            let mut st = WorkerStats::default();
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
                    // the work its owner would reach last), nearest
                    // peers first.
                    for (dist, &other) in steal_orders[w].iter().enumerate() {
                        if let Some(t) = deques[other].lock().unwrap().pop_front() {
                            st.steals += 1;
                            st.steal_dist += dist as u64 + 1;
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
                    // Bounded spin, then exponential backoff: an empty
                    // scan means the pipeline is momentarily narrower
                    // than the pool, and hammering peer deque locks only
                    // slows the workers that do hold work.
                    idle_rounds += 1;
                    if idle_rounds <= SPIN_ROUNDS {
                        thread::yield_now();
                    } else {
                        let exp = u64::from(idle_rounds - SPIN_ROUNDS).min(6);
                        let ts = trace::begin();
                        thread::sleep(Duration::from_micros((1 << exp).min(MAX_PARK_US)));
                        trace::end(TraceKind::Park, ts, idle_rounds, 0);
                    }
                    continue;
                };
                idle_rounds = 0;
                let (sweep, task) = sgraph.split(nd as usize);
                let range = sgraph.tasks().blocks_of(task);
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
                trace::end_sweep(TraceKind::Task, ts, task as u32, ran as u32, tag(sweep));
                match outcome {
                    Ok(Ok(())) => {
                        if let Some(t0) = t0 {
                            st.busy_ns += t0.elapsed().as_nanos() as u64;
                        }
                        st.blocks += ran;
                        st.fused += chain - 1;
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
                                if my_next.is_none() {
                                    my_next = Some(nd);
                                } else {
                                    let owner = shard_owner(x as usize, n_tasks, threads);
                                    deques[owner].lock().unwrap().push_back(nd);
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
                        remaining.fetch_sub(1, Ordering::Release);
                    }
                    Ok(Err(e)) => {
                        st.blocks += ran;
                        let mut slot = first_err.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        abort.store(true, Ordering::Release);
                    }
                    Err(payload) => {
                        st.blocks += ran;
                        let mut slot = panic_slot.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        abort.store(true, Ordering::Release);
                    }
                }
            }
            (state, st)
        };

        let t0 = record.then(Instant::now);
        let mut results: Vec<(S, WorkerStats)> = Vec::with_capacity(threads);
        thread::scope(|s| {
            let handles: Vec<_> = (1..threads)
                .map(|w| s.spawn(move || worker_loop(w)))
                .collect();
            results.push(worker_loop(0));
            for h in handles {
                results.push(h.join().unwrap_or_else(|p| resume_unwind(p)));
            }
        });
        let wall_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let workers = detail.then(|| results.iter().map(|&(_, st)| st).collect::<Vec<_>>());
        for (state, ..) in results {
            merge(state);
        }
        if let Some(payload) = panic_slot.into_inner().unwrap() {
            resume_unwind(payload);
        }
        if record {
            self.flush_dataflow(threads, n, sweeps, wall_ns, workers);
        }
        match first_err.into_inner().unwrap() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Publishes a dataflow run as a single all-blocks level record
    /// (there are no barriers to split the timeline on). `blocks` is the
    /// per-sweep block count and `sweeps` the batch depth (1 for eager
    /// runs), so report means stay per-sweep across batch depths.
    fn flush_dataflow(
        &self,
        threads: usize,
        blocks: usize,
        sweeps: usize,
        wall_ns: u64,
        workers: Option<Vec<WorkerStats>>,
    ) {
        let workers = workers
            .unwrap_or_default()
            .into_iter()
            .map(|st| WorkerRecord {
                busy_ns: st.busy_ns,
                blocks: st.blocks,
                steals: st.steals,
                steal_dist: st.steal_dist,
                fused: st.fused,
            })
            .collect();
        self.obs.record_wavefronts(WavefrontRecord {
            threads,
            scheduler: Scheduler::Dataflow.name().to_owned(),
            sweeps,
            levels: vec![LevelRecord {
                index: 0,
                blocks: blocks as u64,
                wall_ns,
                workers,
            }],
        });
    }

    /// Publishes the accumulated per-level records as one
    /// [`WavefrontRecord`] (no-op when nothing was recorded).
    /// `threads` is the *effective* worker count after the width clamp.
    fn flush_levels(&self, threads: usize, levels: Vec<LevelRecord>) {
        if self.obs.enabled() {
            self.obs.record_wavefronts(WavefrontRecord {
                threads,
                scheduler: Scheduler::Levels.name().to_owned(),
                sweeps: 1,
                levels,
            });
        }
    }
}

/// Runs the `scf.execute_wavefronts` schedule whose transport arrays
/// are `(rows, cols)` `sweeps` times on `pool` — the bytecode engine's
/// dispatch (the reference interpreter walks the levels itself, with no
/// pool). A batch (`sweeps > 1`) or the pool's
/// [`Scheduler::Dataflow`] knob takes the graph drain
/// ([`WavefrontPool::try_execute_sweep_batch`]), recovering the
/// dependence graph from the Arc identity of `cols` (minted by
/// `cfd.get_parallel_blocks` via the schedule-bundle cache); otherwise
/// each sweep runs level by level ([`WavefrontPool::try_execute_stateful`]).
/// A `cols` the cache did not mint has no graph: it runs level by level
/// and, when a drain was asked for, says so in the obs event stream.
///
/// # Errors
/// Returns the first error produced by `work`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_wavefronts<S, E, I, W, M>(
    pool: &WavefrontPool,
    rows: &[i64],
    cols: &Arc<Vec<i64>>,
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
    let drain = sweeps > 1 || pool.scheduler() == Scheduler::Dataflow;
    let bundle = dataflow::lookup_by_cols(cols);
    if let (true, Some(bundle)) = (drain, &bundle) {
        return pool.try_execute_sweep_batch(bundle, sweeps, init, |s, _, b| work(s, b), merge);
    }
    if drain {
        let name = if sweeps > 1 {
            "sweep-batch-fallback"
        } else {
            "dataflow-fallback"
        };
        pool.obs().event(name, "cols not from schedule cache");
    }
    let owned;
    let schedule = match &bundle {
        Some(bundle) => &bundle.csr,
        None => {
            owned = CsrWavefronts::new(
                rows.iter().map(|&x| x as usize).collect(),
                cols.iter().map(|&x| x as usize).collect(),
            );
            &owned
        }
    };
    for _ in 0..sweeps {
        pool.try_execute_stateful(schedule, &init, &work, &mut merge)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use instencil_pattern::dataflow::schedule_bundle;
    use instencil_pattern::schedule::WavefrontSchedule;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Runs `work` once per scheduled block through the level pool.
    fn run_levels(pool: &WavefrontPool, csr: &CsrWavefronts, work: impl Fn(usize) + Sync) {
        pool.try_execute_stateful(
            csr,
            || (),
            |(), b| {
                work(b);
                Ok::<(), ()>(())
            },
            |()| {},
        )
        .unwrap();
    }

    #[test]
    fn executes_every_block_once() {
        let s = WavefrontSchedule::compute(&[4, 4], &[vec![-1, 0], vec![0, -1]]);
        let csr = s.into_wavefronts();
        let count = AtomicUsize::new(0);
        let seen = Mutex::new(vec![false; 16]);
        run_levels(&WavefrontPool::new(4), &csr, |b| {
            count.fetch_add(1, Ordering::SeqCst);
            let mut seen = seen.lock().unwrap();
            assert!(!seen[b], "block {b} executed twice");
            seen[b] = true;
        });
        assert_eq!(count.load(Ordering::SeqCst), 16);
        assert!(seen.lock().unwrap().iter().all(|&x| x));
    }

    #[test]
    fn levels_are_barriers() {
        // Record a per-block completion stamp; every dependence must
        // complete before its dependent starts.
        let deps = vec![vec![-1, 0], vec![0, -1]];
        let sched = WavefrontSchedule::compute(&[5, 5], &deps);
        let csr = sched.wavefronts().clone();
        let clock = AtomicUsize::new(0);
        let stamps: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
        run_levels(&WavefrontPool::new(3), &csr, |b| {
            let t = clock.fetch_add(1, Ordering::SeqCst);
            stamps[b].store(t + 1, Ordering::SeqCst);
        });
        for i in 0..5usize {
            for j in 0..5usize {
                let b = i * 5 + j;
                for d in &deps {
                    let si = i as i64 + d[0];
                    let sj = j as i64 + d[1];
                    if si >= 0 && sj >= 0 {
                        let src = (si * 5 + sj) as usize;
                        assert!(
                            stamps[src].load(Ordering::SeqCst) < stamps[b].load(Ordering::SeqCst),
                            "dep {src} finished after {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_thread_path() {
        let csr = CsrWavefronts::from_rows(vec![vec![0, 1], vec![2]]);
        let order = Mutex::new(Vec::new());
        run_levels(&WavefrontPool::new(1), &csr, |b| {
            order.lock().unwrap().push(b)
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn stateful_merges_every_worker() {
        // 3 levels, 7 blocks, more workers than blocks in some levels.
        let csr = CsrWavefronts::from_rows(vec![vec![0], vec![1, 2, 3], vec![4, 5, 6]]);
        for threads in [1usize, 2, 4, 8] {
            let mut total = 0usize;
            let mut merges = 0usize;
            WavefrontPool::new(threads)
                .try_execute_stateful(
                    &csr,
                    || 0usize,
                    |count, b| {
                        *count += b + 1;
                        Ok::<(), ()>(())
                    },
                    |count| {
                        total += count;
                        merges += 1;
                    },
                )
                .unwrap();
            // Sum of (b+1) over b in 0..7 regardless of thread count.
            assert_eq!(total, 28, "threads={threads}");
            assert!(merges >= 1);
        }
    }

    #[test]
    fn stateful_propagates_first_error_and_partial_state() {
        let csr = CsrWavefronts::from_rows(vec![vec![0, 1], vec![2, 3]]);
        for threads in [1usize, 3] {
            let mut total = 0usize;
            let err = WavefrontPool::new(threads)
                .try_execute_stateful(
                    &csr,
                    || 0usize,
                    |count, b| {
                        if b >= 2 {
                            return Err(format!("block {b} failed"));
                        }
                        *count += 1;
                        Ok(())
                    },
                    |count| total += count,
                )
                .unwrap_err();
            assert!(err.starts_with("block "), "threads={threads}: {err}");
            // Level 0 completed before the failing level was entered.
            assert_eq!(total, 2, "threads={threads}");
        }
    }

    #[test]
    fn stateful_empty_schedule() {
        let csr = CsrWavefronts::from_rows(vec![vec![], vec![]]);
        let mut merges = 0usize;
        WavefrontPool::new(4)
            .try_execute_stateful(&csr, || (), |(), _| Ok::<(), ()>(()), |()| merges += 1)
            .unwrap();
        // No level spawns workers, so nothing to merge (multi-thread path).
        assert_eq!(merges, 0);
    }

    #[test]
    fn stateful_propagates_worker_panics_with_payload() {
        // One thread included: a lone worker's panic goes through the
        // same catch, merge and re-raise as a spawned worker's.
        let csr = CsrWavefronts::from_rows(vec![vec![0, 1, 2, 3]]);
        for threads in [1usize, 2] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                WavefrontPool::new(threads)
                    .try_execute_stateful(
                        &csr,
                        || (),
                        |(), b| {
                            if b == 1 {
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
            assert_eq!(
                msg, "block 1 exploded",
                "threads={threads}: original payload must survive"
            );
        }
    }

    // The eager dataflow scheduler is the graph drain at k = 1.

    #[test]
    fn dataflow_executes_every_block_once_and_respects_deps() {
        let bundle = schedule_bundle(&[5, 5], &[vec![-1i64, 0], vec![0, -1]]);
        for threads in [1usize, 2, 4, 8] {
            let clock = AtomicUsize::new(0);
            let starts: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
            let ends: Vec<AtomicUsize> = (0..25).map(|_| AtomicUsize::new(0)).collect();
            let count = AtomicUsize::new(0);
            WavefrontPool::new(threads)
                .try_execute_sweep_batch(
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
            assert_eq!(count.load(Ordering::SeqCst), 25, "threads={threads}");
            for (b, start) in starts.iter().enumerate() {
                for &p in bundle.graph.predecessors(b) {
                    assert!(
                        ends[p as usize].load(Ordering::SeqCst) < start.load(Ordering::SeqCst),
                        "threads={threads}: pred {p} still running when {b} started"
                    );
                }
            }
        }
    }

    #[test]
    fn dataflow_merges_states_and_propagates_errors() {
        let bundle = schedule_bundle(&[4, 2], &[vec![-1i64, 0]]);
        for threads in [1usize, 2, 4] {
            let mut total = 0usize;
            WavefrontPool::new(threads)
                .try_execute_sweep_batch(
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
            assert_eq!(total, 36, "threads={threads}");

            let err = WavefrontPool::new(threads)
                .try_execute_sweep_batch(
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
            assert!(err.starts_with("block "), "threads={threads}: {err}");
        }
    }

    #[test]
    fn dataflow_propagates_worker_panics_with_payload() {
        let bundle = schedule_bundle(&[3, 3], &[vec![-1i64, 0], vec![0, -1]]);
        for threads in [1usize, 3] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                WavefrontPool::new(threads)
                    .try_execute_sweep_batch(
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
            assert_eq!(msg, "block 4 exploded", "threads={threads}");
        }
    }

    #[test]
    fn dataflow_empty_graph_is_a_no_op() {
        // A 1-block graph with no deps degenerates but must still run.
        let bundle = schedule_bundle(&[1], &[]);
        let mut ran = 0usize;
        WavefrontPool::new(4)
            .try_execute_sweep_batch(
                &bundle,
                1,
                || (),
                |(), _, _| Ok::<(), ()>(()),
                |()| ran += 1,
            )
            .unwrap();
        assert!(ran >= 1);
    }

    #[test]
    fn dataflow_fuses_chains_and_counts_blocks_not_tasks() {
        // 6x6 grid at 4 threads under the default machine model:
        // grain = (36 / (4*4)).clamp(1, 6) = 2, row-clipped into 18
        // tasks of 2 blocks each. The `blocks` counters must keep
        // counting *blocks* and the fusion savings must be attributed
        // to `fused`.
        let obs = Obs::new(instencil_obs::ObsLevel::Trace);
        let bundle = schedule_bundle(&[6, 6], &[vec![-1i64, 0], vec![0, -1]]);
        let pool = WavefrontPool::with_opts(4, obs.clone(), Scheduler::Dataflow);
        assert_eq!(pool.grain_for(&bundle.graph), 2);
        let count = AtomicUsize::new(0);
        pool.try_execute_sweep_batch(
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
        let bundle = schedule_bundle(&[6, 6], &[vec![-1i64, 0], vec![0, -1]]);
        WavefrontPool::with_opts(4, obs.clone(), Scheduler::Dataflow)
            .try_execute_sweep_batch(
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
}
