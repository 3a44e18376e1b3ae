//! Property test: the dataflow scheduler never runs a block before its
//! predecessors (§3.3 Eq. (3) soundness, pool edition).
//!
//! The pool orders blocks with per-edge in-degree counts decremented by
//! Release/Acquire atomics, so the ordering claim is distributed across
//! every edge of the drained graph. This test checks it
//! directly on random graphs: random 2-D/3-D grids, random
//! lexicographically-negative dependence offsets, 1/2/4/8 workers. Every
//! block execution takes start/end stamps from one shared logical clock;
//! afterwards every block must have run exactly once and every
//! predecessor's end stamp must precede its successor's start stamp. The
//! eager dataflow scheduler is the sweep drain at batch depth 1; the
//! batched drains are checked at depths 2 and 4. The levels scheduler
//! drains the level graph, whose barriers are join tasks — the same
//! random grids check that no level starts before the previous one
//! ended.

use std::sync::atomic::{AtomicU64, Ordering};

use instencil::exec::WavefrontPool;
use instencil::obs::Obs;
use instencil::pattern::dataflow::{BlockGraph, ScheduleBundle, Scheduler};
use instencil_testkit::{check_n, Rng};

/// A random grid of rank 2 or 3 with extents in `[1, 6]`.
fn random_grid(rng: &mut Rng) -> Vec<usize> {
    let rank = rng.gen_range_usize(2, 4);
    (0..rank).map(|_| rng.gen_range_usize(1, 7)).collect()
}

/// A random subset of the non-zero offsets in `{-1, 0}^k`. Every such
/// offset has `-1` as its first non-zero component, so all are
/// lexicographically negative — the shape `blockdeps` produces for
/// in-place stencils.
fn random_deps(rng: &mut Rng, rank: usize) -> Vec<Vec<i64>> {
    let mut deps = Vec::new();
    for mask in 1u32..(1 << rank) {
        if rng.gen_bool() {
            let off: Vec<i64> = (0..rank)
                .map(|d| if mask & (1 << d) != 0 { -1 } else { 0 })
                .collect();
            deps.push(off);
        }
    }
    deps
}

/// The sweep-extended graph edition: batched drains must order block
/// `b` of sweep `s+1` after its *cross-sweep* predecessors — `b` itself
/// (anti dependence: sweep `s+1` overwrites what sweep `s` wrote) and
/// every lex-forward successor of `b` (flow dependence: those blocks
/// read `b`'s old values during sweep `s`) — on top of the usual
/// intra-sweep Eq. (3) ordering, at every worker count and batch depth.
#[test]
fn sweep_batch_never_runs_a_block_before_its_cross_sweep_predecessors() {
    check_n("sweep-batch-trace-ordering", 12, |rng| {
        let grid = random_grid(rng);
        let deps = random_deps(rng, grid.len());
        let graph = BlockGraph::build(&grid, &deps);
        let n = graph.num_blocks();
        let bundle = ScheduleBundle::new(&grid, &deps);
        for threads in [1usize, 2, 4, 8] {
            for sweeps in [2usize, 4] {
                let total = n * sweeps;
                let clock = AtomicU64::new(1);
                let starts: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
                let ends: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
                let runs: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
                let pool = WavefrontPool::with_opts(threads, Obs::off(), Scheduler::Dataflow);
                pool.try_drain(
                    &bundle,
                    sweeps,
                    || (),
                    |_, s, b| {
                        let nd = s * n + b;
                        starts[nd].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                        runs[nd].fetch_add(1, Ordering::SeqCst);
                        ends[nd].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                        Ok::<(), std::convert::Infallible>(())
                    },
                    |()| {},
                )
                .expect("infallible work cannot error");
                let label = format!(
                    "grid {grid:?} deps {deps:?} threads {threads} sweeps {sweeps}"
                );
                for s in 0..sweeps {
                    for b in 0..n {
                        let nd = s * n + b;
                        assert_eq!(
                            runs[nd].load(Ordering::SeqCst),
                            1,
                            "{label}: block {b} of sweep {s} must run exactly once"
                        );
                        let start = starts[nd].load(Ordering::SeqCst);
                        for &p in graph.predecessors(b) {
                            let pred_end = ends[s * n + p as usize].load(Ordering::SeqCst);
                            assert!(
                                pred_end < start,
                                "{label}: block {b} of sweep {s} ran before its \
                                 intra-sweep predecessor {p} finished"
                            );
                        }
                        if s > 0 {
                            let self_end = ends[(s - 1) * n + b].load(Ordering::SeqCst);
                            assert!(
                                self_end < start,
                                "{label}: block {b} of sweep {s} ran before its own \
                                 sweep-{} instance finished (anti dependence)",
                                s - 1
                            );
                            for &q in graph.successors(b) {
                                let q_end =
                                    ends[(s - 1) * n + q as usize].load(Ordering::SeqCst);
                                assert!(
                                    q_end < start,
                                    "{label}: block {b} of sweep {s} ran before forward \
                                     neighbor {q} of sweep {} finished (flow dependence)",
                                    s - 1
                                );
                            }
                        }
                    }
                }
            }
        }
    });
}

/// The eager drains: the dependence graph (the dataflow scheduler, the
/// sweep drain at batch depth 1) and the level graph (the levels
/// scheduler), whose join tasks must additionally keep every block of
/// level `L + 1` from starting before every block of level `L` ended.
#[test]
fn dataflow_trace_never_runs_a_block_before_its_predecessors() {
    check_n("dataflow-trace-ordering", 24, |rng| {
        let grid = random_grid(rng);
        let deps = random_deps(rng, grid.len());
        let graph = BlockGraph::build(&grid, &deps);
        let n = graph.num_blocks();
        let bundle = ScheduleBundle::new(&grid, &deps);
        let mut level = vec![0; n];
        for (l, row) in bundle.wavefronts.levels().enumerate() {
            for &b in row {
                level[b as usize] = l;
            }
        }
        for threads in [1usize, 2, 4, 8] {
            for scheduler in [Scheduler::Dataflow, Scheduler::Levels] {
                let clock = AtomicU64::new(1);
                let starts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                let ends: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                let runs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                let pool = WavefrontPool::with_opts(threads, Obs::off(), scheduler);
                pool.try_drain(
                    &bundle,
                    1,
                    || (),
                    |_, _, b| {
                        starts[b].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                        runs[b].fetch_add(1, Ordering::SeqCst);
                        ends[b].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                        Ok::<(), std::convert::Infallible>(())
                    },
                    |()| {},
                )
                .expect("infallible work cannot error");
                let label = format!("grid {grid:?} deps {deps:?} threads {threads} {scheduler:?}");
                for b in 0..n {
                    assert_eq!(
                        runs[b].load(Ordering::SeqCst),
                        1,
                        "{label}: block {b} must run exactly once"
                    );
                    let start = starts[b].load(Ordering::SeqCst);
                    for &p in graph.predecessors(b) {
                        let pred_end = ends[p as usize].load(Ordering::SeqCst);
                        assert!(
                            pred_end < start,
                            "{label}: block {b} (start {start}) ran before its \
                             predecessor {p} finished (end {pred_end})"
                        );
                    }
                }
                if scheduler == Scheduler::Levels {
                    for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                        let end = ends[a].load(Ordering::SeqCst);
                        let start = starts[b].load(Ordering::SeqCst);
                        assert!(
                            level[a] >= level[b] || end < start,
                            "{label}: block {b} of level {} started before block {a} \
                             of level {} ended",
                            level[b],
                            level[a]
                        );
                    }
                }
            }
        }
    });
}
