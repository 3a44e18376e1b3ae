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
//! on the calling thread inside the [`thread::scope`], so a lone worker
//! spawns nothing. Workers run closures over *linearized sub-domain
//! indices* with private per-worker state (the bytecode engine runs
//! `scf.execute_wavefronts` bodies with a per-thread register file and
//! statistics frame); every worker's state is merged on the calling
//! thread, and the first observed error and any worker panic propagate.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
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

/// Idle scan rounds an empty-handed worker spends yielding before it
/// starts sleeping. Yields are near-free and keep wake-up latency at
/// scheduler-quantum scale while the wavefront pipeline is merely
/// momentarily narrow.
const SPIN_ROUNDS: u32 = 64;

/// Cap on the exponential sleep, microseconds. Bounded low: a parked
/// owner whose deque just received routed work must come back quickly,
/// or the affinity routing would lengthen the critical path.
const MAX_PARK_US: u64 = 64;

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

/// A scoped thread pool executing wavefront schedules.
#[derive(Clone, Debug)]
pub struct WavefrontPool {
    threads: usize,
    obs: Obs,
    scheduler: Scheduler,
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
    /// in rotated ring order (`steal_ring`), then backs off —
    /// `SPIN_ROUNDS` yields, then exponential sleep capped at
    /// `MAX_PARK_US` — until every task has retired.
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
    /// re-raised once every worker has stopped).
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

        // No point spawning more workers than the graph can keep busy:
        // the surplus would only spin on empty deques until the run
        // retires.
        let threads = self.threads.min(tasks.width());
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
            deques[tasks.owner(r as usize, threads)]
                .lock()
                .unwrap()
                .push_back(r);
        }
        let abort = AtomicBool::new(false);
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
                                    let owner = tasks.owner(x as usize, threads);
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
                        st.total.blocks += ran;
                        let mut slot = first_err.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        abort.store(true, Ordering::Release);
                    }
                    Err(payload) => {
                        st.total.blocks += ran;
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

        let mut results: Vec<(S, WorkerStats)> = Vec::with_capacity(threads);
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
        let wall_ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let (states, stats): (Vec<S>, Vec<WorkerStats>) = results.into_iter().unzip();
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
