//! The analytic + discrete-event performance estimator.
//!
//! A [`RunConfig`] combines a *measured* per-point op mix
//! ([`PerPointCosts`], obtained by interpreting the actual generated code
//! on a small domain) with the workload geometry (domain, sub-domain and
//! tile sizes) and the *actual* sub-domain dependence offsets. The
//! estimator then:
//!
//! 1. computes per-point compute time from the op mix (issue-throughput
//!    model) and per-point memory time from streamed traffic under the
//!    available bandwidth (roofline: the two overlap, the max wins);
//! 2. replays the Eq. (3) wavefront schedule of the sub-domain grid level
//!    by level (`ceil(width/threads)` rounds per level), charging one
//!    barrier per level — the discrete-event part that produces the
//!    NUMA/synchronization effects of Figs. 13 and 15.

use instencil_pattern::dataflow::{dataflow_grain, BlockGraph, Scheduler};
use instencil_pattern::{Offset, WavefrontSchedule};

use crate::topology::Machine;

/// Dynamic op counts *per interior point*, measured from generated code.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerPointCosts {
    /// Scalar floating-point ops.
    pub scalar_flops: f64,
    /// Vector floating-point ops (each one lane-group wide).
    pub vector_flops: f64,
    /// Scalar loads + stores.
    pub mem_ops: f64,
    /// Vector transfers (reads + writes).
    pub vector_mem_ops: f64,
    /// Index/control ops (loop overhead proxy).
    pub control_ops: f64,
}

impl PerPointCosts {
    /// Cycles per point under the machine's issue throughput.
    pub fn cycles(&self, m: &Machine, strided_vectors: bool) -> f64 {
        let vec_cost = if strided_vectors {
            m.gather_penalty
        } else {
            1.0
        };
        self.scalar_flops / m.scalar_flops_per_cycle
            + self.vector_flops / m.vector_ops_per_cycle
            + self.mem_ops / m.mem_ops_per_cycle
            + self.vector_mem_ops * vec_cost / m.mem_ops_per_cycle
            + self.control_ops / 4.0
    }

    /// Cycles per point when the innermost loop executes as one
    /// contiguous run of `run` points per dispatch (the exec engine's
    /// run specialization): index and control work — address
    /// computation, bounds handling, opcode dispatch — is paid once per
    /// run and amortized across its points, so the per-point control
    /// share shrinks by the run length. Floating-point and memory terms
    /// are unchanged; with `run == 1` this is exactly [`Self::cycles`].
    pub fn cycles_with_run(&self, m: &Machine, strided_vectors: bool, run: usize) -> f64 {
        let control_pp = self.control_ops / 4.0;
        self.cycles(m, strided_vectors) - control_pp + control_pp / run.max(1) as f64
    }

    /// Per-point surcharge a loop pays when it does NOT run-specialize:
    /// every dynamic op goes through generic bytecode dispatch (opcode
    /// decode, operand indirection, dispatch branch) instead of a fused
    /// macro-op loop. [`Self::cycles`] models issue throughput of the
    /// *work* only; this term is the engine overhead the run path
    /// removes, and it is what made partially vectorized loops — whose
    /// bodies the specializer used to decline — slower end-to-end than
    /// their scalar siblings despite doing less arithmetic.
    pub fn generic_dispatch_cycles(&self) -> f64 {
        /// Measured on the bench host: the dispatch-heavy engine runs
        /// ~a handful of cycles per executed op over the roofline cost.
        const DISPATCH_CYCLES_PER_OP: f64 = 4.0;
        (self.scalar_flops
            + self.vector_flops
            + self.mem_ops
            + self.vector_mem_ops
            + self.control_ops)
            * DISPATCH_CYCLES_PER_OP
    }
}

/// One run-configuration of the estimator.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Spatial domain extents (interior is assumed ≈ the full domain).
    pub domain: Vec<usize>,
    /// Sub-domain sizes (outer tiling level, one per spatial dim).
    pub subdomain: Vec<usize>,
    /// Cache-tile sizes (inner level).
    pub tile: Vec<usize>,
    /// Threads used.
    pub threads: usize,
    /// Measured per-point op mix.
    pub costs: PerPointCosts,
    /// Field count `n_v`.
    pub nb_var: usize,
    /// Distinct tensors streamed per sweep (X/Y/B… — 3 for Eq. (2),
    /// fewer when fusion eliminates a global stream).
    pub streams: f64,
    /// Tensors live *inside a tile* (the §2.1 capacity rule uses 3:
    /// X, Y and B; independent of the number of global streams).
    pub live_tensors: usize,
    /// Sub-domain dependence offsets (empty ⇒ fully parallel level).
    pub deps: Vec<Offset>,
    /// Whether vector accesses are strided (wavefront vectorization) —
    /// charged the gather penalty.
    pub strided_vectors: bool,
    /// Whether the execution engine's run specialization covers this op
    /// mix, i.e. whether innermost rows execute as fused macro-op runs
    /// (control amortized over [`RunConfig::tile`]'s innermost extent)
    /// rather than per-point generic dispatch. Scalar bodies have
    /// always been eligible; vector-IR (partially vectorized) bodies
    /// are eligible since the stripe-kernel extension — before it they
    /// silently fell back to generic dispatch and paid full per-point
    /// control, which made the paper's best transformation estimate
    /// (and run) *slower* than its scalar sibling. Defaults to `true`;
    /// set `false` to model a declined loop.
    pub run_specialized: bool,
    /// Extra multiplier for partial/parallelogram tiles (Pluto paths).
    pub tile_overhead: f64,
    /// Synchronization barriers per sweep *in addition* to the wavefront
    /// levels (e.g. one between solver phases).
    pub extra_barriers: f64,
}

impl RunConfig {
    /// A baseline config with sensible defaults.
    pub fn new(domain: Vec<usize>, subdomain: Vec<usize>, tile: Vec<usize>) -> Self {
        RunConfig {
            domain,
            subdomain,
            tile,
            threads: 1,
            costs: PerPointCosts::default(),
            nb_var: 1,
            streams: 3.0,
            live_tensors: 3,
            deps: Vec::new(),
            strided_vectors: false,
            run_specialized: true,
            tile_overhead: 1.0,
            extra_barriers: 0.0,
        }
    }

    /// The innermost run length the engine's dispatch amortizes over:
    /// the innermost tile extent when the loop run-specializes (scalar
    /// *or* vector stripes — a vf-w stripe covers the same row of
    /// points per run, paying setup once for all w lanes), 1 when it
    /// declined to generic per-point dispatch.
    fn dispatch_run(&self) -> usize {
        if self.run_specialized {
            self.tile.last().copied().unwrap_or(1).max(1)
        } else {
            1
        }
    }
}

/// Result of one estimation, all in seconds (per sweep).
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeEstimate {
    /// Pure compute component of the makespan.
    pub compute_s: f64,
    /// Memory-bound component of the makespan.
    pub memory_s: f64,
    /// Synchronization (barriers between wavefront levels).
    pub sync_s: f64,
    /// Total makespan of one sweep.
    pub total_s: f64,
    /// Number of wavefront levels of the schedule.
    pub levels: usize,
}

/// Estimates the makespan of one sweep of a kernel run.
///
/// # Panics
/// Panics on rank mismatches between `domain`, `subdomain` and `tile`.
pub fn estimate_sweep(m: &Machine, cfg: &RunConfig) -> TimeEstimate {
    let k = cfg.domain.len();
    assert_eq!(cfg.subdomain.len(), k);
    assert_eq!(cfg.tile.len(), k);
    let points: f64 = cfg.domain.iter().product::<usize>() as f64;

    // --- per-point time (roofline) ---
    // The execution engine specializes contiguous innermost runs (one
    // dispatch per run, not per point), so control overhead amortizes
    // over the innermost tile extent — wide-x tiles are credited for
    // it, and vector stripe kernels earn the same credit as scalar runs
    // (a run covers the same points either way; see `dispatch_run`).
    // Declined loops instead pay generic per-op dispatch on every point
    // (redundant halo points included, hence inside the overhead
    // factor).
    let run = cfg.dispatch_run();
    let mut raw_pp = cfg.costs.cycles_with_run(m, cfg.strided_vectors, run);
    if !cfg.run_specialized {
        raw_pp += cfg.costs.generic_dispatch_cycles();
    }
    let cycles_pp = raw_pp * cfg.tile_overhead;
    let compute_pp = cycles_pp * m.cycle_s();
    // Streamed traffic: every live tensor element is moved once per sweep
    // when the tile working set fits in L2, with a reuse penalty
    // otherwise.
    let tile_points: usize = cfg.tile.iter().product();
    let footprint = tile_points * cfg.nb_var * cfg.live_tensors * 8;
    let reuse = if footprint <= m.l2_bytes { 1.0 } else { 2.0 };
    let bytes_pp = cfg.streams * cfg.nb_var as f64 * 8.0 * reuse;
    let bw = m.bandwidth(cfg.threads);
    // Per-thread compute overlaps with memory; the aggregate sweep obeys:
    //   time >= compute/threads   and   time >= bytes/bandwidth
    // applied per wavefront level below.

    // --- wavefront schedule replay ---
    let grid: Vec<usize> = cfg
        .domain
        .iter()
        .zip(&cfg.subdomain)
        .map(|(&n, &s)| n.div_ceil(s.max(1)).max(1))
        .collect();
    let schedule = WavefrontSchedule::compute(&grid, &cfg.deps);
    let block_points: f64 = points / grid.iter().product::<usize>() as f64;

    let mut compute_s = 0.0;
    let mut memory_s = 0.0;
    let mut sync_s = 0.0;
    let mut total = 0.0;
    let threads = cfg.threads.max(1) as f64;
    let barrier = m.barrier_cost(cfg.threads);
    for level in schedule.wavefronts().levels() {
        let width = level.len() as f64;
        let rounds = (width / threads).ceil();
        let level_compute = rounds * block_points * compute_pp;
        let level_memory = width * block_points * bytes_pp / bw;
        compute_s += level_compute;
        memory_s += level_memory;
        sync_s += barrier;
        // Roofline per level: compute and memory overlap, so the level
        // costs the larger of the two plus its barrier.
        total += level_compute.max(level_memory) + barrier;
    }
    total += cfg.extra_barriers * barrier;

    TimeEstimate {
        compute_s,
        memory_s,
        sync_s,
        total_s: total,
        levels: schedule.num_levels(),
    }
}

/// Per-block bookkeeping cost of the dataflow executor, in cycles: a
/// deque pop, one in-degree `fetch_sub` per successor edge, and the
/// retire-counter decrement. Replaces the per-level barrier of the
/// levels estimate.
const DATAFLOW_TASK_CYCLES: f64 = 200.0;

/// `f64` with a total order, for the event heaps of the dataflow replay.
#[derive(Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Estimates the makespan of one sweep under dataflow (point-to-point)
/// scheduling: a greedy list-scheduling replay of the block dependence
/// graph on `cfg.threads` workers. Each block costs its roofline time
/// (compute vs its bandwidth share) plus a small per-task overhead
/// (`DATAFLOW_TASK_CYCLES`); there are no per-level barriers — a block
/// starts as soon as its predecessors finish and a worker is free. This
/// is the `cycles_dataflow` capacity estimate the autotuner weighs
/// against [`estimate_sweep`].
///
/// # Panics
/// Panics on rank mismatches between `domain`, `subdomain` and `tile`.
pub fn estimate_sweep_dataflow(m: &Machine, cfg: &RunConfig) -> TimeEstimate {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let k = cfg.domain.len();
    assert_eq!(cfg.subdomain.len(), k);
    assert_eq!(cfg.tile.len(), k);
    let points: f64 = cfg.domain.iter().product::<usize>() as f64;

    // Same per-point roofline inputs as the levels estimate.
    let run = cfg.dispatch_run();
    let mut raw_pp = cfg.costs.cycles_with_run(m, cfg.strided_vectors, run);
    if !cfg.run_specialized {
        raw_pp += cfg.costs.generic_dispatch_cycles();
    }
    let cycles_pp = raw_pp * cfg.tile_overhead;
    let compute_pp = cycles_pp * m.cycle_s();
    let tile_points: usize = cfg.tile.iter().product();
    let footprint = tile_points * cfg.nb_var * cfg.live_tensors * 8;
    let reuse = if footprint <= m.l2_bytes { 1.0 } else { 2.0 };
    let bytes_pp = cfg.streams * cfg.nb_var as f64 * 8.0 * reuse;
    let threads = cfg.threads.max(1);
    let bw = m.bandwidth(threads);

    let grid: Vec<usize> = cfg
        .domain
        .iter()
        .zip(&cfg.subdomain)
        .map(|(&n, &s)| n.div_ceil(s.max(1)).max(1))
        .collect();
    let graph = BlockGraph::build(&grid, &cfg.deps);
    let n = graph.num_blocks();
    let block_points = points / n as f64;
    let block_compute = block_points * compute_pp;
    let block_bytes = block_points * bytes_pp;
    // The executor fuses chains of `grain` consecutive blocks into one
    // task (same [`dataflow_grain`] the pool uses), so the
    // deque/in-degree bookkeeping is paid once per task, not per block.
    let grain = dataflow_grain(n, grid.last().copied().unwrap_or(1), threads);
    let task_overhead = DATAFLOW_TASK_CYCLES * m.cycle_s() / grain as f64;

    // Critical-path depth of every block (= its wavefront level) and the
    // width of each level. A block's bandwidth share is the aggregate
    // divided by how many blocks run beside it — min(threads, width of
    // its level) — which is exactly the share the levels estimate grants,
    // so the two models differ only in barriers and round quantization.
    let mut depth = vec![0usize; n];
    let mut levels = 0usize;
    for b in 0..n {
        for &p in graph.predecessors(b) {
            depth[b] = depth[b].max(depth[p as usize] + 1);
        }
        levels = levels.max(depth[b] + 1);
    }
    let mut width = vec![0usize; levels];
    for &d in &depth {
        width[d] += 1;
    }
    let block_memory = |b: usize| {
        let share = bw / width[depth[b]].min(threads) as f64;
        block_bytes / share
    };

    // Greedy list scheduling: pop the earliest-ready block, run it on
    // the earliest-free worker. Because every predecessor has a smaller
    // flat index, ready times are final when pushed.
    let mut indeg: Vec<u32> = (0..n).map(|b| graph.in_degree(b)).collect();
    let mut ready_at: Vec<f64> = vec![0.0; n];
    let mut ready: BinaryHeap<Reverse<(Time, usize)>> = graph
        .roots()
        .into_iter()
        .map(|b| Reverse((Time(0.0), b as usize)))
        .collect();
    let mut workers: BinaryHeap<Reverse<Time>> = (0..threads.min(n))
        .map(|_| Reverse(Time(0.0)))
        .collect();
    let mut makespan = 0.0f64;
    let mut busy_total = 0.0f64;
    let mut memory_total = 0.0f64;
    while let Some(Reverse((Time(t_ready), b))) = ready.pop() {
        let Reverse(Time(t_free)) = workers.pop().expect("worker pool is non-empty");
        let block_time = block_compute.max(block_memory(b));
        let start = t_ready.max(t_free);
        let end = start + block_time + task_overhead;
        workers.push(Reverse(Time(end)));
        makespan = makespan.max(end);
        busy_total += block_time;
        memory_total += block_memory(b);
        for &s in graph.successors(b) {
            let s = s as usize;
            ready_at[s] = ready_at[s].max(end);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(Reverse((Time(ready_at[s]), s)));
            }
        }
    }
    makespan += cfg.extra_barriers * m.barrier_cost(threads);

    TimeEstimate {
        compute_s: busy_total.min(makespan * threads as f64),
        memory_s: memory_total,
        sync_s: n as f64 * task_overhead,
        total_s: makespan,
        levels,
    }
}

/// Fixed per-call overhead of one eager sweep dispatch, in cycles:
/// frame construction (register files, scratch-pool handoff), the
/// schedule-cache lookup, prefix tape re-execution, and worker-pool
/// setup. The sweep-batched drain pays this once per *batch* instead of
/// once per sweep — it is the dominant win on small domains where the
/// sweep itself is tens of microseconds.
const SWEEP_DISPATCH_CYCLES: f64 = 60_000.0;

/// Bookkeeping cost of one cross-sweep dependence edge of the batched
/// drain (an atomic in-degree decrement plus its share of routing), in
/// cycles. Sweeps after the first pay `tasks + transposed-edges` of
/// these; on large grids this is what makes deep batches lose.
const CROSS_EDGE_CYCLES: f64 = 24.0;

/// Streaming speedup of an L2-resident working set over DRAM: when the
/// whole domain fits in L2, sweeps after the first re-read it from
/// cache under the batched drain's temporal-diagonal traversal.
const L2_STREAM_SPEEDUP: f64 = 4.0;

/// Estimates the *per-sweep amortized* makespan when `sweeps` identical
/// in-place sweeps are drained as one batch through the sweep-extended
/// dependence graph (`sweeps == 1` is an eager sweep, including its
/// per-call dispatch overhead). Batching amortizes the fixed dispatch
/// cost (`SWEEP_DISPATCH_CYCLES`) across the batch and — when the
/// whole working set is L2-resident — serves sweeps after the first
/// from cache, but pays cross-sweep edge bookkeeping
/// (`CROSS_EDGE_CYCLES` × (tasks + transposed intra edges)) on every
/// later sweep. The argmin over depths is [`best_batch_depth`].
///
/// # Panics
/// Panics on rank mismatches between `domain`, `subdomain` and `tile`.
pub fn estimate_sweep_batched(m: &Machine, cfg: &RunConfig, sweeps: usize) -> TimeEstimate {
    let k = sweeps.max(1) as f64;
    let base = estimate_sweep_dataflow(m, cfg);
    let points: f64 = cfg.domain.iter().product::<usize>() as f64;

    let grid: Vec<usize> = cfg
        .domain
        .iter()
        .zip(&cfg.subdomain)
        .map(|(&n, &s)| n.div_ceil(s.max(1)).max(1))
        .collect();
    let graph = BlockGraph::build(&grid, &cfg.deps);
    let n = graph.num_blocks();
    let grain = dataflow_grain(n, grid.last().copied().unwrap_or(1), cfg.threads.max(1));
    // Cross-sweep edges per sweep boundary: one self edge per task plus
    // the transpose of the intra-sweep edge set (block counts divided by
    // the fusion grain approximate task counts).
    let cross_edges = (n + graph.num_edges()) as f64 / grain as f64;
    let cross_s = cross_edges * CROSS_EDGE_CYCLES * m.cycle_s();

    let dispatch_s = SWEEP_DISPATCH_CYCLES * m.cycle_s();
    // Cache credit: only the memory-bound *excess* of the sweep can
    // shrink, and only when the whole domain (not just a tile) stays
    // resident between consecutive sweeps.
    let ws_bytes = points * cfg.nb_var as f64 * cfg.live_tensors as f64 * 8.0;
    let credit = if ws_bytes <= m.l2_bytes as f64 {
        (base.memory_s - base.compute_s).max(0.0) * (1.0 - 1.0 / L2_STREAM_SPEEDUP)
    } else {
        0.0
    };

    let later = (k - 1.0) / k;
    let total = base.total_s + dispatch_s / k + cross_s * later - credit * later;
    TimeEstimate {
        compute_s: base.compute_s,
        memory_s: base.memory_s - credit * later,
        sync_s: base.sync_s + cross_s * later,
        total_s: total.max(base.compute_s),
        levels: base.levels,
    }
}

/// The batch depth (power of two in `1..=max_depth`) minimizing the
/// per-sweep amortized estimate of [`estimate_sweep_batched`]: deep on
/// small/L2-resident workloads where dispatch amortization and cache
/// reuse dominate, 1 on large grids where cross-sweep edge bookkeeping
/// outweighs the fixed savings.
pub fn best_batch_depth(m: &Machine, cfg: &RunConfig, max_depth: usize) -> usize {
    let mut best = 1usize;
    let mut best_t = f64::INFINITY;
    let mut k = 1usize;
    while k <= max_depth.max(1) {
        let t = estimate_sweep_batched(m, cfg, k).total_s;
        if t < best_t {
            best = k;
            best_t = t;
        }
        k *= 2;
    }
    best
}

/// Dispatches between [`estimate_sweep`] (levels) and
/// [`estimate_sweep_dataflow`] by scheduler mode.
pub fn estimate_sweep_scheduled(m: &Machine, cfg: &RunConfig, scheduler: Scheduler) -> TimeEstimate {
    match scheduler {
        Scheduler::Levels => estimate_sweep(m, cfg),
        Scheduler::Dataflow => estimate_sweep_dataflow(m, cfg),
    }
}

/// The paper's Fig. 15 metric: average time per cell per iteration per
/// thread, `t_cell = threads · elapsed / (iterations · cells)`.
pub fn t_cell(m: &Machine, cfg: &RunConfig, sweeps: &[RunConfig]) -> f64 {
    let cells: f64 = cfg.domain.iter().product::<usize>() as f64;
    let elapsed: f64 = sweeps.iter().map(|c| estimate_sweep(m, c).total_s).sum();
    cfg.threads as f64 * elapsed / cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::xeon_6152_dual;

    fn base_cfg(threads: usize) -> RunConfig {
        let mut cfg = RunConfig::new(vec![512, 512], vec![64, 64], vec![32, 32]);
        cfg.threads = threads;
        cfg.costs = PerPointCosts {
            scalar_flops: 6.0,
            mem_ops: 7.0,
            ..Default::default()
        };
        cfg.deps = vec![vec![-1, 0], vec![0, -1]];
        cfg
    }

    #[test]
    fn run_amortization_credits_wide_innermost_tiles() {
        let m = xeon_6152_dual();
        let costs = PerPointCosts {
            scalar_flops: 6.0,
            mem_ops: 7.0,
            control_ops: 8.0,
            ..Default::default()
        };
        // Same tile area, same op mix — only the innermost extent
        // differs. The run path pays control once per run, so the
        // wide-x tile must estimate strictly faster.
        let mut wide = RunConfig::new(vec![512, 512], vec![64, 64], vec![8, 64]);
        let mut tall = RunConfig::new(vec![512, 512], vec![64, 64], vec![64, 8]);
        wide.costs = costs;
        tall.costs = costs;
        let t_wide = estimate_sweep(&m, &wide).total_s;
        let t_tall = estimate_sweep(&m, &tall).total_s;
        assert!(
            t_wide < t_tall,
            "wide-x tile must be credited: {t_wide} vs {t_tall}"
        );
    }

    #[test]
    fn vector_stripes_earn_the_run_credit() {
        // The partial-vectorization pessimization, in model form: a
        // vf8-lowered gs5-like body does less arithmetic per point than
        // its scalar sibling, but when the engine declines to
        // run-specialize it (`run_specialized = false`, the pre-fix
        // behavior) every point pays full generic dispatch and the
        // vector plan estimates *slower* than the scalar one. With the
        // stripe-kernel path the vector body amortizes dispatch over
        // the same innermost runs as scalar code and must win.
        let m = xeon_6152_dual();
        let mut scalar = RunConfig::new(vec![512, 512], vec![64, 64], vec![8, 64]);
        scalar.costs = PerPointCosts {
            scalar_flops: 8.0,
            mem_ops: 7.0,
            control_ops: 8.0,
            ..Default::default()
        };
        let mut vector = scalar.clone();
        // Neighborhood work in 8-lane ops, a scalar recurrent chain
        // left per point, and slightly more control (stripe + tail
        // bookkeeping).
        vector.costs = PerPointCosts {
            scalar_flops: 2.0,
            vector_flops: 6.0 / 8.0,
            mem_ops: 2.0,
            vector_mem_ops: 5.0 / 8.0,
            control_ops: 10.0,
        };
        let t_scalar = estimate_sweep(&m, &scalar).total_s;
        let t_striped = estimate_sweep(&m, &vector).total_s;
        let mut declined = vector.clone();
        declined.run_specialized = false;
        let t_declined = estimate_sweep(&m, &declined).total_s;
        assert!(
            t_declined > t_scalar,
            "declined vector loop must model the pessimization: \
             {t_declined} vs scalar {t_scalar}"
        );
        assert!(
            t_striped < t_scalar,
            "stripe-specialized vector loop must beat scalar: \
             {t_striped} vs {t_scalar}"
        );
    }

    #[test]
    fn run_of_one_matches_per_point_cycles() {
        let m = xeon_6152_dual();
        let costs = PerPointCosts {
            scalar_flops: 3.0,
            mem_ops: 4.0,
            control_ops: 5.0,
            ..Default::default()
        };
        assert_eq!(costs.cycles_with_run(&m, false, 1), costs.cycles(&m, false));
        assert!(costs.cycles_with_run(&m, false, 64) < costs.cycles(&m, false));
    }

    #[test]
    fn more_threads_is_faster_until_saturation() {
        let m = xeon_6152_dual();
        // A large grid (32×32 sub-domains) so the wavefront pipeline can
        // actually feed 8 threads.
        let big = |threads| {
            let mut c = base_cfg(threads);
            c.domain = vec![2048, 2048];
            c
        };
        let t1 = estimate_sweep(&m, &big(1)).total_s;
        let t8 = estimate_sweep(&m, &big(8)).total_s;
        let t44 = estimate_sweep(&m, &big(44)).total_s;
        assert!(t8 < t1 / 4.5, "8 threads should scale well: {t1} vs {t8}");
        assert!(t44 <= t8);
    }

    #[test]
    fn vectorization_reduces_compute_time() {
        let m = xeon_6152_dual();
        let scalar = base_cfg(1);
        let mut vec = base_cfg(1);
        // Same work expressed as vector ops (8 lanes): 1/8 the op count.
        vec.costs = PerPointCosts {
            scalar_flops: 1.0,
            vector_flops: 6.0 / 8.0,
            mem_ops: 1.0,
            vector_mem_ops: 6.0 / 8.0,
            ..Default::default()
        };
        let ts = estimate_sweep(&m, &scalar).total_s;
        let tv = estimate_sweep(&m, &vec).total_s;
        assert!(tv < ts / 2.0, "vector {tv} vs scalar {ts}");
    }

    #[test]
    fn gather_penalty_hurts_strided_vectorization() {
        let m = xeon_6152_dual();
        let mut contiguous = base_cfg(1);
        contiguous.costs.vector_mem_ops = 2.0;
        let mut strided = contiguous.clone();
        strided.strided_vectors = true;
        assert!(estimate_sweep(&m, &strided).total_s > estimate_sweep(&m, &contiguous).total_s);
    }

    #[test]
    fn memory_bound_at_high_thread_counts() {
        // A light-compute, heavy-traffic kernel on a wide (dep-free)
        // schedule: 44 threads are bandwidth-limited.
        let m = xeon_6152_dual();
        let mut cfg = base_cfg(44);
        cfg.subdomain = vec![8, 8];
        cfg.deps = vec![];
        cfg.streams = 6.0;
        cfg.costs = PerPointCosts {
            scalar_flops: 1.0,
            mem_ops: 1.0,
            ..Default::default()
        };
        let e = estimate_sweep(&m, &cfg);
        assert!(e.memory_s > e.compute_s, "{e:?}");
    }

    #[test]
    fn serial_deps_limit_scaling() {
        let m = xeon_6152_dual();
        // A 1xN sub-domain grid with row deps: no parallelism at all.
        let mut serial = base_cfg(16);
        serial.subdomain = vec![512, 64];
        serial.deps = vec![vec![-1, 0], vec![-1, 1], vec![-1, -1], vec![0, -1]];
        let mut parallel = base_cfg(16);
        parallel.deps = vec![];
        let ts = estimate_sweep(&m, &serial);
        let tp = estimate_sweep(&m, &parallel);
        assert!(ts.total_s > tp.total_s, "{ts:?} vs {tp:?}");
        assert!(ts.levels > tp.levels);
    }

    #[test]
    fn barrier_cost_grows_with_levels() {
        let m = xeon_6152_dual();
        let mut few = base_cfg(8);
        few.subdomain = vec![256, 256];
        let mut many = base_cfg(8);
        many.subdomain = vec![16, 16];
        let ef = estimate_sweep(&m, &few);
        let em = estimate_sweep(&m, &many);
        assert!(em.sync_s > ef.sync_s);
    }

    #[test]
    fn dataflow_estimate_beats_levels_on_ragged_schedules() {
        // Many narrow levels at 8 threads: the levels estimate pays a
        // barrier per level plus end-of-level idle; the dataflow replay
        // pays neither, so it must come out faster.
        let m = xeon_6152_dual();
        let mut cfg = base_cfg(8);
        cfg.subdomain = vec![32, 32]; // 16x16 grid, 31 levels
        let levels = estimate_sweep(&m, &cfg);
        let dataflow = estimate_sweep_dataflow(&m, &cfg);
        assert!(
            dataflow.total_s < levels.total_s,
            "dataflow {dataflow:?} vs levels {levels:?}"
        );
        assert_eq!(dataflow.levels, levels.levels, "critical path = level count");
        assert!(dataflow.sync_s < levels.sync_s);
    }

    #[test]
    fn dataflow_estimate_scales_with_threads() {
        let m = xeon_6152_dual();
        let mut one = base_cfg(1);
        one.domain = vec![2048, 2048];
        let mut eight = base_cfg(8);
        eight.domain = vec![2048, 2048];
        let t1 = estimate_sweep_dataflow(&m, &one).total_s;
        let t8 = estimate_sweep_dataflow(&m, &eight).total_s;
        assert!(t8 < t1 / 4.0, "8 workers should scale: {t1} vs {t8}");
    }

    #[test]
    fn scheduled_dispatch_selects_the_right_model() {
        let m = xeon_6152_dual();
        let cfg = base_cfg(4);
        let l = estimate_sweep_scheduled(&m, &cfg, Scheduler::Levels);
        let d = estimate_sweep_scheduled(&m, &cfg, Scheduler::Dataflow);
        assert_eq!(l.total_s, estimate_sweep(&m, &cfg).total_s);
        assert_eq!(d.total_s, estimate_sweep_dataflow(&m, &cfg).total_s);
    }

    #[test]
    fn batching_amortizes_dispatch_on_resident_domains() {
        // A small domain whose whole working set fits L2: the fixed
        // per-call dispatch cost dominates the sweep, so deep batches
        // must estimate strictly faster per sweep and win the argmin.
        let m = xeon_6152_dual();
        let mut cfg = base_cfg(1);
        cfg.domain = vec![40, 40];
        cfg.subdomain = vec![8, 8];
        cfg.tile = vec![8, 8];
        let t1 = estimate_sweep_batched(&m, &cfg, 1).total_s;
        let t4 = estimate_sweep_batched(&m, &cfg, 4).total_s;
        assert!(t4 < t1, "batch of 4 must amortize dispatch: {t4} vs {t1}");
        assert!(best_batch_depth(&m, &cfg, 8) > 1);
    }

    #[test]
    fn batching_declines_when_cross_edges_dominate() {
        // A huge, fine-grained grid: the working set is nowhere near
        // L2-resident and every later sweep pays bookkeeping for
        // hundreds of thousands of cross-sweep edges, far more than the
        // one-off dispatch saving — the tuner must stay eager.
        let m = xeon_6152_dual();
        let mut cfg = base_cfg(1);
        cfg.domain = vec![4096, 4096];
        cfg.subdomain = vec![1, 16];
        cfg.tile = vec![1, 16];
        let t1 = estimate_sweep_batched(&m, &cfg, 1).total_s;
        let t8 = estimate_sweep_batched(&m, &cfg, 8).total_s;
        assert!(t8 > t1, "deep batch must lose here: {t8} vs {t1}");
        assert_eq!(best_batch_depth(&m, &cfg, 8), 1);
    }

    #[test]
    fn t_cell_is_per_thread_normalized() {
        let m = xeon_6152_dual();
        let cfg = base_cfg(4);
        let tc = t_cell(&m, &cfg, std::slice::from_ref(&cfg));
        assert!(tc > 0.0 && tc.is_finite());
    }
}
