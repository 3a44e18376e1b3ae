//! The debug-mode wavefront overlap checker (§3.4 safety argument).
//!
//! The run-specialized engine writes tiles through raw (non-atomic)
//! `f64` views, which is sound only because Eq. (3) scheduling makes
//! the write sets of blocks that may run concurrently disjoint. Debug
//! builds *verify* that claim at runtime: every store inside a wavefront
//! block is recorded, and when two blocks the drained graph leaves
//! unordered touch a common flat extent of one allocation the engine
//! panics naming both blocks and the extent.
//!
//! These tests drive the checker both ways with a hand-built two-block
//! module whose blocks write *overlapping* one-dimensional extents
//! (block `f` writes elements `f` and `f+1`):
//!
//! * an honest `block_stencil` (block `f` depends on block `f-1`) puts
//!   the blocks in different levels — the correct Eq. (3) schedule runs
//!   clean, and
//! * an empty `block_stencil` (a deliberate scheduling lie) puts both
//!   blocks in level 0 — debug builds must panic with
//!   `wavefront overlap: blocks 0 and 1 … flat extent [1, 1]`, under
//!   the level graph, the eager dataflow drain and a batched two-sweep
//!   drain.
//!
//! When `cfd.get_parallel_blocks` computes the schedule, the bytecode
//! engine carries its bundle with the `cols` register to the execute op:
//! the eager dataflow drain must run the dependence graph (no
//! `dataflow-fallback`) and a two-sweep batch one fused drain (no
//! `sweep-batch-fallback`). A variant takes the CSR as `tensor<?xi64>`
//! arguments instead, copies of a computed schedule: with no bundle,
//! both schedulers drain the level graph built from `rows` for the call,
//! must match the interpreter bit for bit, and are checked the same way.
//!
//! The checker lives in the bytecode engine's worker pool, which runs
//! the same worker loop at one thread as at many; the sequential
//! reference interpreter runs no pool and checks nothing. Release builds
//! compile the checker out, so the panicking halves are
//! `#[cfg(debug_assertions)]`-gated; the clean half runs everywhere.

use std::sync::Arc;

use instencil::core::ops::build_get_parallel_blocks;
use instencil::exec::ExecStats;
use instencil::ir::{attr::AttrMap, OpCode};
use instencil::pattern::dataflow::ScheduleBundle;
use instencil::prelude::*;

/// A lowered module with one `ExecuteWavefronts` op over two blocks on
/// a 1-D grid. Block `f` stores to elements `f` and `f+1` of the
/// argument buffer, so blocks 0 and 1 overlap at element 1 *iff* they
/// run in the same level. `deps` is the `block_stencil` payload over
/// shape `[3]` (offset −1, 0, +1; `-1` marks a dependence); with `None`
/// the level CSR comes in as two `tensor<?xi64>` arguments (`rows`,
/// `cols`) instead, arrays that carry no schedule bundle.
fn two_block_module(deps: Option<Vec<i8>>) -> Module {
    let mr = Type::memref_dyn(Type::F64, 1);
    let arr = Type::tensor(Type::I64, vec![None]);
    let args = if deps.is_some() { vec![mr] } else { vec![mr, arr.clone(), arr] };
    let mut fb = FuncBuilder::new("wf", args, vec![]);
    let buf = fb.arg(0);
    let (rows, cols) = match deps {
        Some(deps) => {
            let nb = fb.const_index(2);
            build_get_parallel_blocks(&mut fb, &[nb], vec![3], deps)
        }
        None => (fb.arg(1), fb.arg(2)),
    };
    let region = fb.body_mut().add_region();
    let block = fb.body_mut().add_block(region);
    let flat = fb.body_mut().add_block_arg(block, Type::Index);
    let saved = fb.insertion_block();
    fb.set_insertion_block(block);
    let one = fb.const_index(1);
    let next = fb.addi(flat, one);
    let v = fb.index_to_f64(flat);
    fb.mem_store(v, buf, &[flat]);
    fb.mem_store(v, buf, &[next]);
    fb.create(OpCode::Yield, vec![], vec![], AttrMap::new(), vec![]);
    fb.set_insertion_block(saved);
    fb.create(
        OpCode::ExecuteWavefronts,
        vec![rows, cols],
        vec![],
        AttrMap::new(),
        vec![region],
    );
    fb.ret(vec![]);

    let mut m = Module::new("overlap");
    m.push_func(fb.finish());
    m.verify().unwrap_or_else(|e| panic!("{e}\n{}", m.to_text()));
    m
}

/// Runs `two_block_module(None)` once, on copies of the CSR of a 2-block
/// grid under `deps`: on the
/// interpreter (`pool == None`) or on `(threads, scheduler)` bytecode
/// workers. Returns the buffer's bits, the statistics and whether
/// `dataflow-fallback` fired.
fn run_csr_arguments(
    m: &Module,
    deps: &[Vec<i64>],
    pool: Option<(usize, Scheduler)>,
) -> (Vec<u64>, ExecStats, bool) {
    let bundle = ScheduleBundle::new(&[2], deps);
    let b = BufferView::alloc(&[4]);
    let copy = |a: &Arc<Vec<i64>>| RtVal::I64Arr(Arc::new(a.to_vec()));
    let args = vec![RtVal::Buf(b.clone()), copy(bundle.wavefronts.rows()), copy(bundle.wavefronts.cols())];
    let obs = Obs::new(ObsLevel::Summary);
    let stats = match pool {
        None => {
            let mut interp = Interpreter::new();
            interp.call(m, "wf", args).expect("wavefront module runs");
            interp.stats
        }
        Some((threads, scheduler)) => {
            let mut engine = BytecodeEngine::compile_with_obs(m, threads, obs.clone())
                .expect("wavefront module compiles")
                .with_scheduler(scheduler);
            engine.call("wf", args).expect("wavefront module runs");
            engine.stats
        }
    };
    let fell_back = obs.snapshot().events.iter().any(|e| e.name == "dataflow-fallback");
    (b.to_vec().iter().map(|x| x.to_bits()).collect(), stats, fell_back)
}

/// Block `f` depends on block `f−1`: the honest Eq. (3) schedule,
/// serializing the two blocks into separate levels.
fn honest_deps() -> Vec<i8> {
    vec![-1, 0, 0]
}

/// No dependences at all: the scheduler is told the blocks commute and
/// puts both in level 0, which their write sets contradict.
fn lying_deps() -> Vec<i8> {
    vec![0, 0, 0]
}

fn run_interp(m: &Module) {
    let b = BufferView::alloc(&[4]);
    Interpreter::new()
        .call(m, "wf", vec![RtVal::Buf(b)])
        .expect("wavefront module runs");
}

/// One worker: the level graph's checker, on the calling thread.
fn run_bytecode(m: &Module) {
    let b = BufferView::alloc(&[4]);
    BytecodeEngine::compile(m)
        .expect("wavefront module compiles")
        .call("wf", vec![RtVal::Buf(b)])
        .expect("wavefront module runs");
}

/// The dataflow scheduler judges by reachability instead of levels: two
/// blocks may write a common extent only if one is an ancestor of the
/// other in the block dependence graph. The bundle must reach the
/// execute op, or the drain would quietly fall back to the level graph.
fn run_bytecode_dataflow(m: &Module) {
    let b = BufferView::alloc(&[4]);
    let obs = Obs::new(ObsLevel::Summary);
    BytecodeEngine::compile_with_obs(m, 2, obs.clone())
        .expect("wavefront module compiles")
        .with_scheduler(Scheduler::Dataflow)
        .call("wf", vec![RtVal::Buf(b)])
        .expect("wavefront module runs");
    let rec = obs.snapshot();
    assert!(
        rec.events.iter().all(|e| e.name != "dataflow-fallback"),
        "the schedule bundle must reach the execute op"
    );
    assert!(!rec.wavefronts.is_empty(), "the drain is recorded");
    assert!(
        rec.wavefronts.iter().all(|w| w.scheduler == "dataflow"),
        "the eager drain must run the dependence graph"
    );
}

/// A batched drain of two sweeps, checked against the sweep-extended
/// dependence graph: the blocks of both sweeps must keep the same
/// disjointness, and block `f` of sweep 1 may reuse what sweep 0 wrote
/// only when the cross-sweep edges order them.
fn run_bytecode_batched(m: &Module) {
    let b = BufferView::alloc(&[4]);
    let obs = Obs::new(ObsLevel::Summary);
    BytecodeEngine::compile_with_obs(m, 2, obs.clone())
        .expect("wavefront module compiles")
        .call_sweeps("wf", vec![RtVal::Buf(b)], 2)
        .expect("wavefront module runs");
    assert!(
        obs.snapshot()
            .events
            .iter()
            .all(|e| e.name != "sweep-batch-fallback"),
        "the two sweeps must drain as one batch"
    );
}

#[test]
fn correct_schedule_runs_clean() {
    let m = two_block_module(Some(honest_deps()));
    run_interp(&m);
    run_bytecode(&m);
}

#[test]
fn correct_schedule_runs_clean_under_dataflow() {
    // Block 1 depends on block 0, so the graph orders them and the
    // shared element-1 write is sound — the dataflow checker must agree.
    let m = two_block_module(Some(honest_deps()));
    run_bytecode_dataflow(&m);
    run_bytecode_batched(&m);
}

#[test]
fn csr_arguments_the_cache_did_not_mint_drain_the_level_graph() {
    // Honest CSR: block 1 in the level after block 0.
    let m = two_block_module(None);
    let deps = [vec![-1i64]];
    let (want, want_stats, _) = run_csr_arguments(&m, &deps, None);
    for scheduler in [Scheduler::Levels, Scheduler::Dataflow] {
        for threads in [1usize, 2] {
            let (got, stats, fell_back) = run_csr_arguments(&m, &deps, Some((threads, scheduler)));
            let label = format!("{scheduler:?} threads={threads}");
            assert_eq!((got.as_slice(), stats), (want.as_slice(), want_stats), "{label}");
            let asked = scheduler == Scheduler::Dataflow;
            assert_eq!(fell_back, asked, "{label}: only an asked-for dataflow drain falls back");
        }
    }
}

#[cfg(debug_assertions)]
mod debug_only {
    use super::*;

    /// Runs `f`, catching its panic, and asserts the message names both
    /// blocks and the exact overlapping extent.
    fn expect_overlap_panic(f: impl FnOnce() + std::panic::UnwindSafe) {
        let err = std::panic::catch_unwind(f).expect_err("mis-schedule must panic in debug");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("wavefront overlap: blocks 0 and 1"),
            "panic must name the colliding blocks, got: {msg}"
        );
        assert!(
            msg.contains("flat extent [1, 1]"),
            "panic must name the offending extent, got: {msg}"
        );
    }

    #[test]
    fn mis_schedule_panics_in_bytecode() {
        let m = two_block_module(Some(lying_deps()));
        expect_overlap_panic(move || run_bytecode(&m));
    }

    #[test]
    fn mis_schedule_panics_in_bytecode_dataflow() {
        // With no dependences both blocks are roots of the block graph
        // — unordered — yet both write element 1: the reachability
        // relation must object exactly like the level relation does.
        let m = two_block_module(Some(lying_deps()));
        expect_overlap_panic(move || run_bytecode_dataflow(&m));
    }

    #[test]
    fn mis_schedule_panics_with_csr_arguments() {
        // A lying CSR passed in as arguments (both blocks in level 0):
        // the level graph built for the call is checked like a cached one.
        for scheduler in [Scheduler::Levels, Scheduler::Dataflow] {
            for threads in [1usize, 2] {
                let m = two_block_module(None);
                expect_overlap_panic(move || {
                    run_csr_arguments(&m, &[], Some((threads, scheduler)));
                });
            }
        }
    }

    #[test]
    fn mis_schedule_panics_in_bytecode_batched() {
        let m = two_block_module(Some(lying_deps()));
        expect_overlap_panic(move || run_bytecode_batched(&m));
    }
}
