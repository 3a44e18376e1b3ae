//! Dataflow (point-to-point) block scheduling — the dependence graph
//! behind the Eq. (3) wavefront relaxation.
//!
//! The wavefront schedule groups sub-domains into levels and inserts a
//! barrier between consecutive levels. That is a *relaxation* of the
//! actual block dependence graph from corner analysis (§2.3, Fig. 1): a
//! block in level `l+1` depends on at most `|deps|` blocks of lower
//! levels, not on all of them. Executing the graph directly — each block
//! starts as soon as its own predecessors finish — removes all barrier
//! idle without changing any result bit, because the set of happens-before
//! edges it enforces is a superset of the per-block data dependences the
//! levels were derived from.
//!
//! This module provides:
//!
//! * [`Scheduler`] — the knob selecting which graph an eager execution
//!   drains: the level graph or the block dependence graph;
//! * [`BlockGraph`] — CSR successor/predecessor lists plus in-degree
//!   counts over the linearized sub-domain grid, built once per
//!   `(grid, deps)`;
//! * [`TaskGraph`] — the scheduled units a pool drains: coarsened chains
//!   of the [`BlockGraph`] ([`TaskGraph::build`]), or the levels of a
//!   wavefront CSR split into per-worker chunks and joined by one empty
//!   task per barrier ([`TaskGraph::levels`]);
//! * [`ScheduleBundle`] — the wavefront CSR `cfd.get_parallel_blocks`
//!   hands to `cfd.execute_wavefronts`, with its [`BlockGraph`] and drain
//!   graphs: a plain value the engine carries from one op to the other,
//!   so which graph a drain gets depends only on its inputs;
//! * [`dataflow_grain`] — how many blocks of a row fuse into one task.

use std::sync::{Arc, Mutex};

use crate::offset::Offset;
use crate::schedule::WavefrontSchedule;

/// Which graph an eager `cfd.execute_wavefronts` drains. Batched drains
/// (`k > 1` sweeps) always run the sweep-extended dependence graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// Level-by-level execution (paper §2.3 as written): the level graph
    /// of [`TaskGraph::levels`], whose join tasks are the barriers
    /// between consecutive wavefront levels.
    #[default]
    Levels,
    /// Point-to-point execution of the block dependence graph: each
    /// block runs as soon as its own predecessors finish, on the
    /// work-stealing workers of one `thread::scope` per execute op.
    /// Bit-identical to [`Scheduler::Levels`] (enforced by `tests/engine_equiv.rs`);
    /// only wall-clock changes.
    Dataflow,
}

impl Scheduler {
    /// Stable lowercase tag used in observability records and reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Levels => "levels",
            Scheduler::Dataflow => "dataflow",
        }
    }
}

/// The block dependence graph over a linearized sub-domain grid.
///
/// Blocks are identified by their row-major flat index (the same
/// linearization as [`WavefrontSchedule`] and `cfd.tiled_loop`).
/// Successor lists are sorted ascending, which for row-major flat
/// indices *is* lexicographic order — the dataflow executor exploits
/// this to prefer the lexicographically-next successor locally and keep
/// forwarded-recurrence stripe rows hot in cache.
#[derive(Clone, Debug)]
pub struct BlockGraph {
    grid: Vec<usize>,
    /// CSR successor lists: successors of block `b` are
    /// `succ[succ_ptr[b]..succ_ptr[b + 1]]`, sorted ascending.
    succ_ptr: Vec<usize>,
    succ: Vec<u32>,
    /// CSR predecessor lists (same layout). All predecessors of `b` have
    /// flat index `< b` because every dependence offset is
    /// lexicographically negative.
    pred_ptr: Vec<usize>,
    pred: Vec<u32>,
}

impl BlockGraph {
    /// Builds the graph for `grid` under the given (lexicographically
    /// negative) dependence offsets. `O(n_blocks × |deps|)`, like the
    /// Eq. (3) sweep itself.
    ///
    /// # Panics
    /// Panics if `grid` is empty, any extent is zero, the total block
    /// count exceeds `u32::MAX`, or a dependence rank mismatches.
    pub fn build(grid: &[usize], deps: &[Offset]) -> Self {
        assert!(!grid.is_empty(), "grid must have rank >= 1");
        assert!(grid.iter().all(|&n| n > 0), "grid extents must be positive");
        for d in deps {
            assert_eq!(d.len(), grid.len(), "dependence rank mismatch");
        }
        let n: usize = grid.iter().product();
        assert!(n <= u32::MAX as usize, "block count exceeds u32 range");

        // Edges run pred -> block for each in-bounds `block + r`. Two
        // counting passes build both CSR directions without sorting; the
        // outer loop visits blocks in ascending flat order, so each
        // successor (and predecessor) list comes out ascending.
        let mut coord = vec![0i64; grid.len()];
        let mut preds_of = |flat: usize, visit: &mut dyn FnMut(usize)| {
            let mut rem = flat;
            for d in (0..grid.len()).rev() {
                coord[d] = (rem % grid[d]) as i64;
                rem /= grid[d];
            }
            'dep: for r in deps {
                let mut src = 0usize;
                for d in 0..grid.len() {
                    let c = coord[d] + r[d];
                    if c < 0 || c >= grid[d] as i64 {
                        continue 'dep;
                    }
                    src = src * grid[d] + c as usize;
                }
                visit(src);
            }
        };

        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        for (b, deg) in in_deg.iter_mut().enumerate() {
            preds_of(b, &mut |p| {
                out_deg[p] += 1;
                *deg += 1;
            });
        }
        let mut succ_ptr = vec![0usize; n + 1];
        let mut pred_ptr = vec![0usize; n + 1];
        for b in 0..n {
            succ_ptr[b + 1] = succ_ptr[b] + out_deg[b];
            pred_ptr[b + 1] = pred_ptr[b] + in_deg[b];
        }
        let mut succ = vec![0u32; succ_ptr[n]];
        let mut pred = vec![0u32; pred_ptr[n]];
        let mut succ_fill = succ_ptr.clone();
        let mut pred_fill = pred_ptr.clone();
        for b in 0..n {
            preds_of(b, &mut |p| {
                succ[succ_fill[p]] = b as u32;
                succ_fill[p] += 1;
                pred[pred_fill[b]] = p as u32;
                pred_fill[b] += 1;
            });
        }
        BlockGraph {
            grid: grid.to_vec(),
            succ_ptr,
            succ,
            pred_ptr,
            pred,
        }
    }

    /// The sub-domain grid extents.
    pub fn grid(&self) -> &[usize] {
        &self.grid
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.succ_ptr.len() - 1
    }

    /// Total number of dependence edges.
    pub fn num_edges(&self) -> usize {
        self.succ.len()
    }

    /// Successors of block `b`, ascending (= lexicographic) order.
    pub fn successors(&self, b: usize) -> &[u32] {
        &self.succ[self.succ_ptr[b]..self.succ_ptr[b + 1]]
    }

    /// Predecessors of block `b`, ascending order; all `< b`.
    pub fn predecessors(&self, b: usize) -> &[u32] {
        &self.pred[self.pred_ptr[b]..self.pred_ptr[b + 1]]
    }

    /// In-degree of block `b` (number of predecessors).
    pub fn in_degree(&self, b: usize) -> u32 {
        (self.pred_ptr[b + 1] - self.pred_ptr[b]) as u32
    }

    /// Blocks with no predecessors, ascending order.
    pub fn roots(&self) -> Vec<u32> {
        (0..self.num_blocks())
            .filter(|&b| self.in_degree(b) == 0)
            .map(|b| b as u32)
            .collect()
    }
}

/// Stable contiguous shard map: which of `workers` workers owns item
/// `i` of `n`. Consecutive flat indices land on the same worker (shards
/// are contiguous ranges of near-equal size), so lexicographic
/// neighbors — which share recurrence stripes and cache lines — stay on
/// one core across levels and sweeps. This is the worker↔tile affinity
/// map used for both deque seeding and successor routing.
pub fn shard_owner(i: usize, n: usize, workers: usize) -> usize {
    debug_assert!(i < n && workers > 0);
    (i * workers) / n
}

/// A coarsened view of a [`BlockGraph`]: consecutive blocks of one
/// innermost grid row fuse into a single scheduled *task*, executed
/// in ascending flat order.
///
/// Fusing contiguous flat ranges is dependence-safe by construction.
/// Every dependence offset is lexicographically negative, so all edges
/// run from a lower flat index to a higher one: edges *inside* a task's
/// range are honored by the task's ascending execution order, and edges
/// *between* tasks always point from a lower-ranged task to a
/// higher-ranged one — the task graph inherits acyclicity, and its
/// edge set relaxes nothing (a task waits for *all* of a predecessor
/// task, a superset of the block-level happens-before edges). Results
/// and per-block statistics are therefore bit-identical to block-level
/// execution; only scheduling overhead changes — one atomic in-degree
/// round and one deque transaction per `grain` blocks instead of per
/// block, which is what rescues wavefront-poor workloads whose blocks
/// are individually cheaper than their bookkeeping.
///
/// A *level graph* ([`TaskGraph::levels`]) is the same structure over a
/// wavefront CSR instead: its units are positions in `cols`, not flat
/// blocks.
#[derive(Debug)]
pub struct TaskGraph {
    /// Units of task `t` are the range `task_ptr[t]..task_ptr[t + 1]`
    /// (flat blocks, contiguous and row-clipped; or `cols` positions of
    /// a level graph, empty for its join tasks).
    task_ptr: Vec<u32>,
    /// CSR successor lists over tasks, ascending.
    succ_ptr: Vec<usize>,
    succ: Vec<u32>,
    /// In-degree (distinct predecessor tasks) per task.
    indeg: Vec<u32>,
    /// The fusion grain the partition was built with (0 for a level
    /// graph, whose chunks are sized per level).
    grain: usize,
    /// Level graphs only (empty otherwise): the CSR level of each task
    /// and the worker that owns it (its chunk index within the level).
    level_owner: Vec<(u32, u32)>,
}

impl TaskGraph {
    /// Partitions `graph` into tasks of up to `grain` consecutive
    /// blocks, clipped at innermost-row boundaries, and contracts the
    /// block edges onto the partition (deduplicated).
    pub fn build(graph: &BlockGraph, grain: usize) -> Self {
        let n = graph.num_blocks();
        let inner = graph.grid().last().copied().unwrap_or(1).max(1);
        let grain = grain.clamp(1, inner);
        // Row-clipped contiguous partition: every row of `inner` blocks
        // yields the same chunking, so task boundaries are periodic.
        let mut task_ptr: Vec<u32> = Vec::with_capacity(n / grain + 2);
        task_ptr.push(0);
        let mut b = 0usize;
        while b < n {
            let row_end = (b / inner + 1) * inner;
            b = (b + grain).min(row_end).min(n);
            task_ptr.push(b as u32);
        }
        let n_tasks = task_ptr.len() - 1;
        let tasks_per_row = inner.div_ceil(grain);
        let task_of = |block: usize| -> usize {
            (block / inner) * tasks_per_row + (block % inner) / grain
        };

        // Contract block edges onto tasks. Predecessor tasks of `t` are
        // collected, sorted, deduplicated; the successor CSR then fills
        // ascending because tasks are visited in ascending order.
        let mut pred_tasks: Vec<Vec<u32>> = vec![Vec::new(); n_tasks];
        for (t, preds) in pred_tasks.iter_mut().enumerate() {
            for b in task_ptr[t] as usize..task_ptr[t + 1] as usize {
                for &p in graph.predecessors(b) {
                    let tp = task_of(p as usize);
                    if tp != t {
                        debug_assert!(tp < t, "contracted edges must stay forward");
                        preds.push(tp as u32);
                    }
                }
            }
            preds.sort_unstable();
            preds.dedup();
        }
        Self::from_preds(task_ptr, &pred_tasks, grain, Vec::new())
    }

    /// The level graph of a wavefront CSR, for `workers` workers, built
    /// from its row pointer alone. Units are positions in `cols`. Each
    /// non-empty level splits into `min(workers, width)` near-equal
    /// chunks, chunk `c` owned by worker `c`. A one-chunk level feeding
    /// a one-chunk level is linked directly; otherwise an empty *join*
    /// task after the level waits for all its chunks, and every chunk of
    /// the next level waits for the join. The join is the level
    /// barrier's happens-before edge at two edges per task, not the
    /// `w_L × w_{L+1}` of a bipartite edge set. A multi-chunk last level
    /// gets a join too, so every level is closed by its last task in
    /// index order. Empty levels are skipped.
    ///
    /// # Panics
    /// Panics if `row_ptr` is empty, does not start at 0, is not
    /// monotone, or `workers` is zero.
    pub fn levels(row_ptr: &[i64], workers: usize) -> Self {
        assert!(workers > 0, "a level graph needs at least one worker");
        assert_eq!(row_ptr.first(), Some(&0), "row_ptr must start at 0");
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr must be monotone");
        let levels: Vec<(usize, usize, usize)> = (0..row_ptr.len() - 1)
            .filter(|&l| row_ptr[l] < row_ptr[l + 1])
            .map(|l| (l, row_ptr[l] as usize, row_ptr[l + 1] as usize))
            .collect();
        let chunks = |i: usize| levels.get(i).map_or(1, |&(_, lo, hi)| workers.min(hi - lo));
        let mut task_ptr = vec![0u32];
        let mut preds: Vec<Vec<u32>> = Vec::new();
        let mut level_owner = Vec::new();
        // The task closing the previous level: every task of the next
        // level waits for it.
        let mut closer: Option<u32> = None;
        for (i, &(level, lo, hi)) in levels.iter().enumerate() {
            let first = preds.len() as u32;
            for c in 0..chunks(i) {
                task_ptr.push((lo + (c + 1) * (hi - lo) / chunks(i)) as u32);
                preds.push(closer.into_iter().collect());
                level_owner.push((level as u32, c as u32));
            }
            if chunks(i) > 1 || chunks(i + 1) > 1 {
                task_ptr.push(hi as u32);
                preds.push((first..preds.len() as u32).collect());
                level_owner.push((level as u32, 0));
            }
            closer = Some(preds.len() as u32 - 1);
        }
        Self::from_preds(task_ptr, &preds, 0, level_owner)
    }

    /// Assembles the successor CSR and in-degrees from ascending
    /// per-task predecessor lists.
    fn from_preds(
        task_ptr: Vec<u32>,
        pred_tasks: &[Vec<u32>],
        grain: usize,
        level_owner: Vec<(u32, u32)>,
    ) -> Self {
        let n_tasks = task_ptr.len() - 1;
        let mut out_deg = vec![0usize; n_tasks];
        let mut indeg = vec![0u32; n_tasks];
        for (t, preds) in pred_tasks.iter().enumerate() {
            indeg[t] = preds.len() as u32;
            for &tp in preds {
                out_deg[tp as usize] += 1;
            }
        }
        let mut succ_ptr = vec![0usize; n_tasks + 1];
        for t in 0..n_tasks {
            succ_ptr[t + 1] = succ_ptr[t] + out_deg[t];
        }
        let mut succ = vec![0u32; succ_ptr[n_tasks]];
        let mut fill = succ_ptr.clone();
        for (t, preds) in pred_tasks.iter().enumerate() {
            for &tp in preds {
                succ[fill[tp as usize]] = t as u32;
                fill[tp as usize] += 1;
            }
        }
        TaskGraph {
            task_ptr,
            succ_ptr,
            succ,
            indeg,
            grain,
            level_owner,
        }
    }

    /// Number of tasks in the partition.
    pub fn num_tasks(&self) -> usize {
        self.task_ptr.len() - 1
    }

    /// Number of units (blocks, or `cols` positions) the tasks cover.
    pub fn num_units(&self) -> usize {
        self.task_ptr[self.num_tasks()] as usize
    }

    /// The unit range of task `t` (ascending execution order).
    pub fn blocks_of(&self, t: usize) -> std::ops::Range<usize> {
        self.task_ptr[t] as usize..self.task_ptr[t + 1] as usize
    }

    /// The worker of `workers` that owns task `t`: its chunk index in a
    /// level graph, else the stable contiguous shard of the task index
    /// space ([`shard_owner`]).
    pub fn owner(&self, t: usize, workers: usize) -> usize {
        match self.level_owner.get(t) {
            Some(&(_, chunk)) => chunk as usize,
            None => shard_owner(t, self.num_tasks(), workers),
        }
    }

    /// Most workers the graph can keep busy: the widest level's chunk
    /// count for a level graph, else the task count.
    pub fn width(&self) -> usize {
        let chunks = self.level_owner.iter().map(|&(_, c)| c as usize + 1).max();
        chunks.unwrap_or(self.num_tasks())
    }

    /// Whether this is a level graph ([`TaskGraph::levels`]).
    pub fn is_level_graph(&self) -> bool {
        !self.level_owner.is_empty()
    }

    /// Level graphs: the CSR level of task `t`; `None` otherwise.
    pub fn level(&self, t: usize) -> Option<usize> {
        self.level_owner.get(t).map(|&(level, _)| level as usize)
    }

    /// Level graphs: whether task `t` closes its level — the level's
    /// join, or its only task. Every other task of the level has retired
    /// by the time a closer does.
    pub fn closes_level(&self, t: usize) -> bool {
        self.level_owner.get(t + 1).map(|&(l, _)| l) != self.level_owner.get(t).map(|&(l, _)| l)
    }

    /// Successor tasks of `t`, ascending.
    pub fn successors(&self, t: usize) -> &[u32] {
        &self.succ[self.succ_ptr[t]..self.succ_ptr[t + 1]]
    }

    /// Number of distinct predecessor tasks of `t`.
    pub fn in_degree(&self, t: usize) -> u32 {
        self.indeg[t]
    }

    /// Number of distinct successor tasks of `t`.
    pub fn out_degree(&self, t: usize) -> u32 {
        (self.succ_ptr[t + 1] - self.succ_ptr[t]) as u32
    }

    /// Tasks with no predecessor tasks, ascending.
    pub fn roots(&self) -> Vec<u32> {
        (0..self.num_tasks())
            .filter(|&t| self.indeg[t] == 0)
            .map(|t| t as u32)
            .collect()
    }

    /// The fusion grain this partition was built with.
    pub fn grain(&self) -> usize {
        self.grain
    }
}

/// The sweep-extended task graph: `sweeps` identical copies of a
/// [`TaskGraph`] chained by cross-sweep dependence edges into one fused
/// DAG, so a dataflow pool can drain `k` in-place sweeps without a
/// barrier between them (OPS-style lazy loop tiling over the sweep
/// dimension).
///
/// Nodes are `(sweep, task)` pairs linearized as
/// `node = sweep * num_tasks + task`; ascending node index is a
/// topological order (intra-sweep edges point to higher tasks, cross
/// edges to the next sweep).
///
/// Cross-sweep edges follow from the Eq. (3) L/U split without any new
/// corner analysis. Within a sweep, task `t` reads the *current*-sweep
/// values of its lex-backward neighborhood (its predecessor tasks, the
/// L part) and the *previous*-sweep values of `{t}` plus its
/// lex-forward neighborhood (its successor tasks, the U part). So task
/// `t` in sweep `s+1` must wait exactly for `{t} ∪ succ_tasks(t)` of
/// sweep `s`:
///
/// * flow: the U-reads of sweep-`s` values come from `{t} ∪ succ(t)`,
///   each of which has finished its sweep-`s` write;
/// * anti: the sweep-`s` readers of `t`'s region are `t` itself,
///   `succ(t)` (U-reads after `t` wrote), and `pred(t)` (U-reads
///   *before* `t` wrote — ordered transitively through `t`'s own
///   sweep-`s` execution and the cross self-edge).
///
/// Equivalently, the cross-sweep *successors* of task `t` (the lists
/// stored here) are `{t} ∪ pred_tasks(t)` in the next sweep. The edge
/// set relaxes nothing, so batched execution is bit-identical to `k`
/// eager sweeps (enforced by `tests/engine_equiv.rs`).
#[derive(Debug)]
pub struct SweepGraph {
    tasks: Arc<TaskGraph>,
    sweeps: usize,
    /// CSR of cross-sweep successor lists: task `t` of sweep `s`
    /// releases tasks `cross[cross_ptr[t]..cross_ptr[t + 1]]` of sweep
    /// `s + 1`. Each list is `pred_tasks(t)` ascending followed by `t`
    /// itself (predecessors all precede `t`, so the list is sorted).
    cross_ptr: Vec<usize>,
    cross: Vec<u32>,
}

impl SweepGraph {
    /// Chains `sweeps` copies of `tasks` with cross-sweep edges. The
    /// cross CSR is the transpose of the intra-sweep successor CSR plus
    /// a self edge per task — `O(n_tasks + edges)`, built once and
    /// memoized per `(grain, sweeps)` by [`ScheduleBundle::sweep_graph`].
    ///
    /// # Panics
    /// Panics if `sweeps` is zero.
    pub fn build(tasks: Arc<TaskGraph>, sweeps: usize) -> Self {
        assert!(sweeps >= 1, "a sweep batch holds at least one sweep");
        // The L/U cross edges need block dependences, not barriers.
        assert!(sweeps == 1 || !tasks.is_level_graph(), "a level graph drains one sweep");
        let n = tasks.num_tasks();
        let mut cross_ptr = vec![0usize; n + 1];
        for t in 0..n {
            cross_ptr[t + 1] = cross_ptr[t] + tasks.in_degree(t) as usize + 1;
        }
        let mut cross = vec![0u32; cross_ptr[n]];
        let mut fill = cross_ptr.clone();
        for t in 0..n {
            // Transposing in ascending `t` order fills each list's
            // predecessor prefix ascending; the reserved last slot
            // takes the self edge below.
            for &s in tasks.successors(t) {
                cross[fill[s as usize]] = t as u32;
                fill[s as usize] += 1;
            }
        }
        for t in 0..n {
            cross[cross_ptr[t + 1] - 1] = t as u32;
        }
        SweepGraph {
            tasks,
            sweeps,
            cross_ptr,
            cross,
        }
    }

    /// The per-sweep task partition the batch replicates.
    pub fn tasks(&self) -> &Arc<TaskGraph> {
        &self.tasks
    }

    /// Number of sweeps fused into the DAG.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Tasks per sweep.
    pub fn num_tasks(&self) -> usize {
        self.tasks.num_tasks()
    }

    /// Total nodes (`sweeps × tasks per sweep`).
    pub fn num_nodes(&self) -> usize {
        self.sweeps * self.tasks.num_tasks()
    }

    /// Linearized node id of `(sweep, task)`.
    pub fn node(&self, sweep: usize, task: usize) -> usize {
        sweep * self.tasks.num_tasks() + task
    }

    /// Inverse of [`Self::node`]: the `(sweep, task)` pair of a node.
    pub fn split(&self, node: usize) -> (usize, usize) {
        let n = self.tasks.num_tasks();
        (node / n, node % n)
    }

    /// In-degree of `(sweep, task)`: the intra-sweep predecessor count,
    /// plus `1 + out_degree(task)` cross-sweep predecessors
    /// (`{task} ∪ succ_tasks(task)` of the previous sweep) for every
    /// sweep but the first.
    pub fn in_degree(&self, sweep: usize, task: usize) -> u32 {
        let intra = self.tasks.in_degree(task);
        if sweep == 0 {
            intra
        } else {
            intra + 1 + self.tasks.out_degree(task)
        }
    }

    /// Same-sweep successor tasks of `task`, ascending.
    pub fn intra_successors(&self, task: usize) -> &[u32] {
        self.tasks.successors(task)
    }

    /// Next-sweep successor tasks of `task` (`pred_tasks(task)`
    /// ascending, then `task` itself). Empty by construction only for
    /// graphs with zero tasks.
    pub fn cross_successors(&self, task: usize) -> &[u32] {
        &self.cross[self.cross_ptr[task]..self.cross_ptr[task + 1]]
    }

    /// Roots of the fused DAG: the sweep-0 task roots (every node of a
    /// later sweep has at least its cross self-edge pending).
    pub fn roots(&self) -> Vec<u32> {
        self.tasks.roots()
    }
}

/// Everything one `(grid, deps)` pair compiles to: the wavefront CSR in
/// its `i64` transport form, plus the block dependence graph for
/// dataflow execution and the drain graphs memoized on it.
#[derive(Debug)]
pub struct ScheduleBundle {
    /// `row_ptr` of the level CSR as handed to `cfd.execute_wavefronts`.
    pub rows: Arc<Vec<i64>>,
    /// `cols` of the level CSR (block flat indices, level-major).
    pub cols: Arc<Vec<i64>>,
    /// The dependence graph the levels were derived from.
    pub graph: Arc<BlockGraph>,
    /// Coarsened task partitions, memoized per fusion grain (the grain
    /// depends on the executing pool's worker count, so one bundle can
    /// serve several pools).
    tasks: Mutex<Vec<(usize, Arc<TaskGraph>)>>,
    /// Sweep-extended graphs, memoized per `(grain, sweeps)` the same
    /// way — batched drains re-run every batch and must not rebuild the
    /// cross-sweep CSR per call.
    sweep_graphs: Mutex<SweepGraphMemo>,
    /// One-sweep level graphs, memoized per worker count.
    level_graphs: Mutex<Vec<(usize, Arc<SweepGraph>)>>,
}

/// Memo entries of [`ScheduleBundle::sweep_graph`], keyed `(grain, sweeps)`.
type SweepGraphMemo = Vec<((usize, usize), Arc<SweepGraph>)>;

impl ScheduleBundle {
    /// Runs the Eq. (3) sweep and builds the block dependence graph of
    /// `(grid, deps)`; the drain graphs are built on first use.
    pub fn new(grid: &[usize], deps: &[Offset]) -> Self {
        let csr = WavefrontSchedule::compute(grid, deps).into_wavefronts();
        let widen = |xs: &[usize]| Arc::new(xs.iter().map(|&x| x as i64).collect());
        ScheduleBundle {
            rows: widen(csr.row_ptr()),
            cols: widen(csr.cols()),
            graph: Arc::new(BlockGraph::build(grid, deps)),
            tasks: Mutex::default(),
            sweep_graphs: Mutex::default(),
            level_graphs: Mutex::default(),
        }
    }

    /// Number of wavefront levels.
    pub fn num_levels(&self) -> usize {
        self.rows.len() - 1
    }

    /// The coarsened task partition of [`Self::graph`] for `grain`,
    /// built on first use and memoized (solver iterations re-running
    /// `cfd.execute_wavefronts` hit the memo).
    pub fn task_graph(&self, grain: usize) -> Arc<TaskGraph> {
        let mut memo = self.tasks.lock().unwrap();
        if let Some((_, hit)) = memo.iter().find(|(g, _)| *g == grain) {
            return Arc::clone(hit);
        }
        let built = Arc::new(TaskGraph::build(&self.graph, grain));
        memo.push((grain, Arc::clone(&built)));
        built
    }

    /// The sweep-extended graph fusing `sweeps` copies of the `grain`
    /// partition, built on first use and memoized per `(grain, sweeps)`
    /// (batched solver iterations hit the memo, exactly like the
    /// per-grain [`Self::task_graph`] memo they build on).
    pub fn sweep_graph(&self, grain: usize, sweeps: usize) -> Arc<SweepGraph> {
        let key = (grain, sweeps);
        let memo = self.sweep_graphs.lock().unwrap();
        if let Some((_, hit)) = memo.iter().find(|(k, _)| *k == key) {
            return Arc::clone(hit);
        }
        drop(memo);
        // Build outside the lock: task_graph takes its own lock, and the
        // cross-CSR transpose can be long enough to block other pools.
        let built = Arc::new(SweepGraph::build(self.task_graph(grain), sweeps));
        let mut memo = self.sweep_graphs.lock().unwrap();
        if let Some((_, hit)) = memo.iter().find(|(k, _)| *k == key) {
            return Arc::clone(hit);
        }
        memo.push((key, Arc::clone(&built)));
        built
    }

    /// The one-sweep drain of [`Self::rows`]' level graph for `workers`
    /// workers ([`TaskGraph::levels`]), built on first use and memoized
    /// per worker count like [`Self::sweep_graph`].
    pub fn level_graph(&self, workers: usize) -> Arc<SweepGraph> {
        let mut memo = self.level_graphs.lock().unwrap();
        if let Some((_, hit)) = memo.iter().find(|(w, _)| *w == workers) {
            return Arc::clone(hit);
        }
        let tasks = Arc::new(TaskGraph::levels(&self.rows, workers));
        let built = Arc::new(SweepGraph::build(tasks, 1));
        memo.push((workers, Arc::clone(&built)));
        built
    }
}

/// Load-balance slack the coarsener preserves: the grain never grows
/// past the point where fewer than this many tasks per worker remain.
pub const TASKS_PER_WORKER: usize = 4;

/// Coarsening grain for dataflow execution: how many consecutive blocks
/// of one innermost grid row fuse into one task, amortizing the per-task
/// in-degree and deque traffic over real work. Bounded by availability
/// (at least [`TASKS_PER_WORKER`] tasks per worker, so the pool can
/// still balance load) and clipped to the row length `inner`, so a task
/// never straddles two rows of the forwarded recurrence. The pool and
/// the cost model both use it.
pub fn dataflow_grain(n_blocks: usize, inner: usize, workers: usize) -> usize {
    let availability = n_blocks / (workers.max(1) * TASKS_PER_WORKER);
    availability.clamp(1, inner.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gs_graph_matches_hand_count() {
        // 3x3 grid, deps {(-1,0), (0,-1)}: interior blocks have 2 preds,
        // edge blocks 1, the origin 0.
        let g = BlockGraph::build(&[3, 3], &[vec![-1, 0], vec![0, -1]]);
        assert_eq!(g.num_blocks(), 9);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(1), 1); // (0,1) <- (0,0)
        assert_eq!(g.in_degree(4), 2); // (1,1) <- (0,1), (1,0)
        assert_eq!(g.successors(0), &[1, 3]);
        assert_eq!(g.predecessors(4), &[1, 3]);
        assert_eq!(g.roots(), vec![0]);
        // Edges are counted once per (pred, succ, offset): 2 offsets x
        // (3x3 minus the clipped border) = 6 + 6.
        assert_eq!(g.num_edges(), 12);
    }

    #[test]
    fn successor_lists_are_ascending() {
        let g = BlockGraph::build(&[4, 3, 2], &[vec![-1, 0, 0], vec![0, -1, 0], vec![0, 0, -1]]);
        for b in 0..g.num_blocks() {
            let s = g.successors(b);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "succ({b}) not ascending");
            let p = g.predecessors(b);
            assert!(p.windows(2).all(|w| w[0] < w[1]), "pred({b}) not ascending");
            assert!(p.iter().all(|&q| (q as usize) < b), "preds must precede {b}");
        }
    }

    #[test]
    fn graph_agrees_with_level_schedule() {
        // Every edge must cross strictly increasing levels, and in-degree
        // zero must coincide with level 0 when deps are the GS pair.
        let grid = [5, 4];
        let deps = [vec![-1, 0], vec![0, -1]];
        let g = BlockGraph::build(&grid, &deps);
        let s = WavefrontSchedule::compute(&grid, &deps);
        for b in 0..g.num_blocks() {
            for &p in g.predecessors(b) {
                assert!(s.level_of_flat(p as usize) < s.level_of_flat(b));
            }
            assert_eq!(g.in_degree(b) == 0, s.level_of_flat(b) == 0);
        }
    }

    #[test]
    fn no_deps_means_all_roots() {
        let g = BlockGraph::build(&[2, 3], &[]);
        assert_eq!(g.roots().len(), 6);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn bundle_csr_matches_direct_schedule() {
        let grid = [4usize, 4];
        let deps = vec![vec![-1i64, 0], vec![0, -1]];
        let bundle = ScheduleBundle::new(&grid, &deps);
        let direct = WavefrontSchedule::compute(&grid, &deps).into_wavefronts();
        let widen = |xs: &[usize]| xs.iter().map(|&x| x as i64).collect::<Vec<_>>();
        let want = (widen(direct.row_ptr()), widen(direct.cols()));
        assert_eq!((&*bundle.rows, &*bundle.cols), (&want.0, &want.1));
        assert_eq!(bundle.num_levels(), direct.num_levels());
    }

    #[test]
    fn shard_owner_is_contiguous_and_balanced() {
        let owners: Vec<usize> = (0..10).map(|i| shard_owner(i, 10, 4)).collect();
        // Monotone non-decreasing (contiguous shards), covers all workers,
        // and neighboring indices mostly share a worker.
        assert!(owners.windows(2).all(|w| w[0] <= w[1] && w[1] - w[0] <= 1));
        assert_eq!(owners[0], 0);
        assert_eq!(*owners.last().unwrap(), 3);
        for w in 0..4 {
            let share = owners.iter().filter(|&&o| o == w).count();
            assert!((2..=3).contains(&share), "worker {w} owns {share} of 10");
        }
    }

    #[test]
    fn task_graph_partitions_blocks_row_clipped() {
        let g = BlockGraph::build(&[3, 5], &[vec![-1, 0], vec![0, -1]]);
        let t = TaskGraph::build(&g, 2);
        // Rows of 5 cut at grain 2: 2+2+1 per row, 3 rows = 9 tasks.
        assert_eq!(t.num_tasks(), 9);
        assert_eq!(t.grain(), 2);
        let mut covered = Vec::new();
        for task in 0..t.num_tasks() {
            let r = t.blocks_of(task);
            assert!(!r.is_empty());
            assert_eq!(r.start / 5, (r.end - 1) / 5, "task straddles a row");
            covered.extend(r);
        }
        assert_eq!(covered, (0..15).collect::<Vec<_>>(), "exact partition");
    }

    #[test]
    fn task_graph_edges_cover_block_edges_and_stay_acyclic() {
        let g = BlockGraph::build(&[4, 4, 4], &[vec![-1, 0, 0], vec![0, -1, 0], vec![0, 0, -1]]);
        for grain in [1usize, 2, 3, 4, 7] {
            let t = TaskGraph::build(&g, grain);
            let task_of = |b: usize| (0..t.num_tasks()).find(|&x| t.blocks_of(x).contains(&b)).unwrap();
            // Every cross-task block edge appears as a task edge; all
            // edges point forward (ascending task index = acyclic).
            let mut indeg_check = vec![0u32; t.num_tasks()];
            for task in 0..t.num_tasks() {
                for &s in t.successors(task) {
                    assert!(s as usize > task, "edge must point forward");
                    indeg_check[s as usize] += 1;
                }
                let s = t.successors(task);
                assert!(s.windows(2).all(|w| w[0] < w[1]), "successors sorted+deduped");
            }
            for b in 0..g.num_blocks() {
                for &p in g.predecessors(b) {
                    let (tp, tb) = (task_of(p as usize), task_of(b));
                    if tp != tb {
                        assert!(
                            t.successors(tp).contains(&(tb as u32)),
                            "grain {grain}: block edge {p}->{b} lost in contraction"
                        );
                    }
                }
            }
            assert_eq!(indeg_check, (0..t.num_tasks()).map(|x| t.in_degree(x)).collect::<Vec<_>>());
            // Grain 1 must degenerate to the block graph's shape.
            if grain == 1 {
                assert_eq!(t.num_tasks(), g.num_blocks());
                assert_eq!(t.roots(), g.roots());
            }
        }
    }

    #[test]
    fn sweep_graph_edges_match_the_lu_split() {
        // 3x3 GS grid at grain 1: cross-sweep successors of task t must
        // be pred(t) ∪ {t}, cross in-degree 1 + outdeg(t), and every
        // list ascending with t last.
        let g = BlockGraph::build(&[3, 3], &[vec![-1, 0], vec![0, -1]]);
        let t = Arc::new(TaskGraph::build(&g, 1));
        let s = SweepGraph::build(Arc::clone(&t), 3);
        assert_eq!(s.sweeps(), 3);
        assert_eq!(s.num_nodes(), 27);
        for task in 0..t.num_tasks() {
            let cross = s.cross_successors(task);
            let mut want: Vec<u32> = g.predecessors(task).to_vec();
            want.push(task as u32);
            assert_eq!(cross, want.as_slice(), "cross succ of {task}");
            assert!(cross.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(s.in_degree(0, task), t.in_degree(task));
            assert_eq!(
                s.in_degree(1, task),
                t.in_degree(task) + 1 + t.out_degree(task)
            );
        }
        // Handshake: total cross out-edges == total cross in-edges.
        let out: usize = (0..t.num_tasks()).map(|x| s.cross_successors(x).len()).sum();
        let inn: usize = (0..t.num_tasks())
            .map(|x| (s.in_degree(1, x) - t.in_degree(x)) as usize)
            .sum();
        assert_eq!(out, inn);
        assert_eq!(out, t.num_tasks() + g.num_edges());
        // Roots live only in sweep 0.
        assert_eq!(s.roots(), vec![0]);
        assert_eq!(s.split(s.node(2, 5)), (2, 5));
    }

    #[test]
    fn sweep_graph_node_order_is_topological() {
        // Every edge of the fused DAG must point to a higher node id:
        // intra edges stay in-sweep toward higher tasks, cross edges
        // land in the next sweep.
        let g = BlockGraph::build(&[4, 3, 2], &[vec![-1, 0, 0], vec![0, -1, 0], vec![0, 0, -1]]);
        for grain in [1usize, 2] {
            let t = Arc::new(TaskGraph::build(&g, grain));
            let s = SweepGraph::build(Arc::clone(&t), 4);
            for sweep in 0..s.sweeps() {
                for task in 0..s.num_tasks() {
                    let me = s.node(sweep, task);
                    for &x in s.intra_successors(task) {
                        assert!(s.node(sweep, x as usize) > me);
                    }
                    if sweep + 1 < s.sweeps() {
                        for &x in s.cross_successors(task) {
                            assert!(s.node(sweep + 1, x as usize) > me);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bundle_memoizes_sweep_graphs_per_grain_and_depth() {
        let grid = [5usize, 5];
        let deps = vec![vec![-1i64, 0], vec![0, -1]];
        let bundle = ScheduleBundle::new(&grid, &deps);
        let a = bundle.sweep_graph(2, 4);
        let b = bundle.sweep_graph(2, 4);
        assert!(Arc::ptr_eq(&a, &b), "same (grain, k) must hit the memo");
        assert!(
            Arc::ptr_eq(a.tasks(), &bundle.task_graph(2)),
            "sweep graph must share the memoized task partition"
        );
        let c = bundle.sweep_graph(2, 2);
        assert_eq!(c.sweeps(), 2);
        assert!(!Arc::ptr_eq(&a, &c));
        // Level graphs: one sweep, memoized per worker count.
        let l = bundle.level_graph(2);
        assert!(Arc::ptr_eq(&l, &bundle.level_graph(2)), "same workers must hit the memo");
        assert_eq!((l.sweeps(), l.tasks().num_units()), (1, 25));
        assert!(!Arc::ptr_eq(&l, &bundle.level_graph(3)));
    }

    #[test]
    fn level_graph_chunks_levels_and_joins_barriers() {
        // Widths 1, 2, (empty), 3, 1, 1 at two workers.
        let t = TaskGraph::levels(&[0, 1, 3, 3, 6, 7, 8], 2);
        assert_eq!((t.num_tasks(), t.num_units(), t.width()), (10, 8, 2));
        let ranges: Vec<_> = (0..10).map(|x| t.blocks_of(x)).collect();
        assert_eq!(ranges, vec![0..1, 1..1, 1..2, 2..3, 3..3, 3..4, 4..6, 6..6, 6..7, 7..8]);
        let levels: Vec<_> = (0..10).map(|x| t.level(x).unwrap()).collect();
        assert_eq!(levels, vec![0, 0, 1, 1, 1, 3, 3, 3, 4, 5]);
        let owners: Vec<_> = (0..10).map(|x| t.owner(x, 2)).collect();
        assert_eq!(owners, vec![0, 0, 0, 1, 0, 0, 1, 0, 0, 0]);
        let closers: Vec<_> = (0..10).filter(|&x| t.closes_level(x)).collect();
        assert_eq!(closers, vec![1, 4, 7, 8, 9], "joins, and one-task levels");
        let succ: Vec<&[u32]> = (0..10).map(|x| t.successors(x)).collect();
        assert_eq!(succ, vec![&[1][..], &[2, 3], &[4], &[4], &[5, 6], &[7], &[7], &[8], &[9], &[]]);
        // Never the w_L x w_{L+1} bipartite edge set; one worker is a chain.
        let rows = [0, 1, 4, 9, 17, 25, 30, 32];
        let wide = TaskGraph::levels(&rows, 4);
        let edges: usize = (0..wide.num_tasks()).map(|x| wide.successors(x).len()).sum();
        assert!(edges <= 2 * wide.num_tasks());
        let chain = TaskGraph::levels(&rows, 1);
        assert_eq!(chain.num_tasks(), rows.len() - 1, "one task per level, no joins");
    }

    #[test]
    fn bundle_memoizes_task_graphs_per_grain() {
        let grid = [6usize, 6];
        let deps = vec![vec![-1i64, 0], vec![0, -1]];
        let bundle = ScheduleBundle::new(&grid, &deps);
        let a = bundle.task_graph(3);
        let b = bundle.task_graph(3);
        assert!(Arc::ptr_eq(&a, &b), "same grain must hit the memo");
        let c = bundle.task_graph(2);
        assert_eq!(c.grain(), 2);
        assert_ne!(a.num_tasks(), c.num_tasks());
    }

    #[test]
    fn dataflow_grain_amortizes_without_starving() {
        // LU-SGS shape: 125 tiny blocks, rows of 5, 8 workers.
        let g = dataflow_grain(125, 5, 8);
        assert!(g > 1, "narrow wavefronts must coarsen");
        assert!(125 / g >= 8 * TASKS_PER_WORKER, "workers keep balance slack");
        // Never straddles a row, never exceeds availability.
        assert_eq!(dataflow_grain(16_384, 128, 8), 128);
        assert_eq!(dataflow_grain(4, 2, 8), 1);
        // Degenerate inputs stay sane.
        assert_eq!(dataflow_grain(0, 0, 0), 1);
        assert_eq!(dataflow_grain(1, 1, 1), 1);
    }
}
