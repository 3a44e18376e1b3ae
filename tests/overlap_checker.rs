//! The debug-mode wavefront overlap checker (§3.4 safety argument).
//!
//! The run-specialized engine writes tiles through raw (non-atomic)
//! `f64` views, which is sound only because Eq. (3) scheduling makes
//! same-level block write sets disjoint. Debug builds *verify* that
//! claim at runtime: every store inside a wavefront block is recorded,
//! and when two blocks of the same level touch a common flat extent of
//! one allocation the engine panics naming both blocks and the extent.
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
//!   levels, the eager dataflow drain and a batched two-sweep drain.
//!
//! The checkers live in the bytecode engine's worker pool, which runs
//! the same worker loop at one thread as at many; the sequential
//! reference interpreter runs no pool and checks nothing. Release builds
//! compile the checker out, so the panicking halves are
//! `#[cfg(debug_assertions)]`-gated; the clean half runs everywhere.

use instencil::core::ops::build_get_parallel_blocks;
use instencil::ir::{attr::AttrMap, OpCode};
use instencil::prelude::*;

/// A lowered module with one `ExecuteWavefronts` op over two blocks on
/// a 1-D grid. Block `f` stores to elements `f` and `f+1` of the
/// argument buffer, so blocks 0 and 1 overlap at element 1 *iff* they
/// run in the same level. `deps` is the `block_stencil` payload over
/// shape `[3]` (offset −1, 0, +1; `-1` marks a dependence).
fn two_block_module(deps: Vec<i8>) -> Module {
    let mr = Type::memref_dyn(Type::F64, 1);
    let mut fb = FuncBuilder::new("wf", vec![mr], vec![]);
    let buf = fb.arg(0);
    let nb = fb.const_index(2);
    let (rows, cols) = build_get_parallel_blocks(&mut fb, &[nb], vec![3], deps);

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

/// One worker: the levels loop's checker, on the calling thread.
fn run_bytecode(m: &Module) {
    let b = BufferView::alloc(&[4]);
    BytecodeEngine::compile(m)
        .expect("wavefront module compiles")
        .call("wf", vec![RtVal::Buf(b)])
        .expect("wavefront module runs");
}

/// The dataflow scheduler replaces the per-level checker with a
/// graph-reachability checker: two blocks may write a common extent only
/// if one is an ancestor of the other in the block dependence graph.
fn run_bytecode_dataflow(m: &Module) {
    let b = BufferView::alloc(&[4]);
    BytecodeEngine::compile_with_threads(m, 2)
        .expect("wavefront module compiles")
        .with_scheduler(Scheduler::Dataflow)
        .call("wf", vec![RtVal::Buf(b)])
        .expect("wavefront module runs");
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
    let m = two_block_module(honest_deps());
    run_interp(&m);
    run_bytecode(&m);
}

#[test]
fn correct_schedule_runs_clean_under_dataflow() {
    // Block 1 depends on block 0, so the graph orders them and the
    // shared element-1 write is sound — the dataflow checker must agree.
    let m = two_block_module(honest_deps());
    run_bytecode_dataflow(&m);
    run_bytecode_batched(&m);
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
        let m = two_block_module(lying_deps());
        expect_overlap_panic(move || run_bytecode(&m));
    }

    #[test]
    fn mis_schedule_panics_in_bytecode_dataflow() {
        // With no dependences both blocks are roots of the block graph
        // — unordered — yet both write element 1: the dataflow-mode
        // reachability checker must object exactly like the per-level
        // checker does under barriers.
        let m = two_block_module(lying_deps());
        expect_overlap_panic(move || run_bytecode_dataflow(&m));
    }

    #[test]
    fn mis_schedule_panics_in_bytecode_batched() {
        let m = two_block_module(lying_deps());
        expect_overlap_panic(move || run_bytecode_batched(&m));
    }
}
