//! Every bytecode flavor is *bit-identical* to the tree-walking
//! interpreter — results and statistics.
//!
//! The bytecode compiler translates each lowered function once into flat
//! register-machine tapes, and the run-specialized engine additionally
//! collapses straight-line innermost loops into fused macro-ops
//! (`RunSpec`); the only thing either is allowed to change is wall-clock
//! time. These tests drive every §4.2 transformation preset (tr1–tr4) of
//! the SOR solver, the Euler LU-SGS solver and the gs5 bench kernel
//! through both bytecode flavors, both wavefront schedulers (per-level
//! barriers and the dataflow work-stealing pool) at 1, 2, 4 and 8 real
//! wavefront workers:
//!
//! * `BcOptions { specialize_runs: false }` — bytecode with run
//!   specialization off (every point pays full opcode dispatch),
//! * [`BcOptions::default`] — the run-specialized default engine,
//!
//! against one reference run of the sequential interpreter, and require
//!
//! * identical `f64` bit patterns in every output buffer, and
//! * identical [`ExecStats`] counters (loads, stores, flops, wavefront
//!   levels, blocks, …),
//!
//! which is the contract that lets wall-clock numbers be measured on the
//! bytecode engine while correctness arguments stay with the reference
//! interpreter. Domains whose innermost interior extent is *not* a
//! multiple of the tile width are covered explicitly: short trailing
//! runs exercise the scalar epilogue and the sub-`MIN_RUN` generic
//! fallback of the run-specialized path.

use instencil::exec::{BcOptions, ExecStats};
use instencil::ir::{CmpPred, OpCode, ValueId};
use instencil::prelude::*;
use instencil::solvers::euler::NV;
use instencil::solvers::euler_codegen::{euler_lusgs_module, euler_lusgs_sweep_module};
use instencil::solvers::gauss_seidel::sor_optimal_omega;
use instencil::solvers::lusgs::vortex_initial;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Both wavefront schedulers: per-level barriers and the dataflow
/// work-stealing pool. Every (flavor × scheduler × threads) cell must
/// reproduce the interpreter's bits and counters exactly — the dataflow
/// pool reorders *execution*, never *effects*, because Eq. (3) already
/// makes dependent blocks ordered and independent blocks disjoint.
const SCHEDULERS: [Scheduler; 2] = [Scheduler::Levels, Scheduler::Dataflow];

/// Both bytecode flavors checked against the interpreter reference.
const FLAVORS: [(&str, BcOptions); 2] = [
    (
        "bytecode",
        BcOptions {
            specialize_runs: true,
        },
    ),
    (
        "bytecode-dispatch",
        BcOptions {
            specialize_runs: false,
        },
    ),
];

/// `sweeps` calls of `func` on the sequential reference interpreter.
fn interpret(module: &Module, func: &str, args: &[RtVal], sweeps: usize) -> ExecStats {
    let mut interp = Interpreter::new();
    for _ in 0..sweeps {
        interp.call(module, func, args.to_vec()).unwrap();
    }
    interp.stats
}

/// A bytecode engine compiled with `opts`, at `threads` real workers
/// under `scheduler` (not clamped to the host, unlike a `Runner`).
fn bytecode(
    module: &Module,
    threads: usize,
    scheduler: Scheduler,
    opts: BcOptions,
) -> BytecodeEngine {
    BytecodeEngine::compile_with_opts(module, threads, Obs::off(), opts)
        .unwrap()
        .with_scheduler(scheduler)
}

fn as_args(bufs: &[BufferView]) -> Vec<RtVal> {
    bufs.iter().cloned().map(RtVal::Buf).collect()
}

/// Deterministic non-trivial initial data.
fn seeded(shape: &[usize]) -> BufferView {
    let len: usize = shape.iter().product();
    let data: Vec<f64> = (0..len)
        .map(|i| ((i * 2_654_435_761) % 1_000) as f64 * 1e-3 - 0.5)
        .collect();
    BufferView::from_data(shape, data)
}

fn assert_bits_equal(expect: &[f64], got: &[f64], what: &str) {
    assert_eq!(expect.len(), got.len(), "{what}: length mismatch");
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: bit mismatch at flat index {i}: {a:?} vs {b:?}"
        );
    }
}

/// Runs `sweeps` sweeps of `func` on freshly seeded buffers under every
/// bytecode flavor, scheduler and thread count, asserting the candidates
/// reproduce the interpreter bits and counters exactly.
fn check_all_engines(
    module: &Module,
    func: &str,
    shape: &[usize],
    n_buffers: usize,
    sweeps: usize,
    what: &str,
) {
    let fresh = || -> Vec<BufferView> { (0..n_buffers).map(|_| seeded(shape)).collect() };
    let bufs = fresh();
    let stats_i = interpret(module, func, &as_args(&bufs), sweeps);
    let expect = bufs[0].to_vec();
    for threads in THREAD_COUNTS {
        for scheduler in SCHEDULERS {
            for (name, opts) in FLAVORS {
                let bufs = fresh();
                let mut eng = bytecode(module, threads, scheduler, opts);
                eng.call_sweeps(func, as_args(&bufs), sweeps).unwrap();
                let stats_e = eng.stats;
                let label =
                    format!("{what} {name} scheduler={} threads={threads}", scheduler.name());
                assert_bits_equal(&expect, &bufs[0].to_vec(), &label);
                assert_eq!(stats_i, stats_e, "{label}: engines must count identically");
                assert!(stats_e.wavefront_levels > 0, "{label}: wavefronts expected");
            }
        }
    }
}

/// Runs `total` identical in-place sweeps with batch depth 1 (eager —
/// every chunk is a plain `Runner::call`) and with depths 2 and 4
/// (fused drains over the sweep-extended graph), asserting bit- and
/// counter-identity across both schedulers and every thread count.
/// `mk_bufs` builds a fresh deterministic buffer set per run. A
/// multi-sweep call of a non-`batchable` entry tape loops eagerly and
/// reports exactly one `sweep-batch-fallback` event; a batchable one
/// reports none.
fn check_batched_matches_eager(
    module: &Module,
    func: &str,
    mk_bufs: &dyn Fn() -> Vec<BufferView>,
    total: usize,
    batchable: bool,
    what: &str,
) {
    for threads in THREAD_COUNTS {
        for scheduler in SCHEDULERS {
            let run = |batch: usize| {
                let bufs = mk_bufs();
                let obs = Obs::new(ObsLevel::Summary);
                let mut runner =
                    Runner::with_opts(module, Engine::Bytecode, threads, scheduler, obs.clone())
                        .unwrap();
                assert_eq!(runner.engine(), Engine::Bytecode, "{what}: lowered module");
                let args: Vec<RtVal> = bufs.iter().cloned().map(RtVal::Buf).collect();
                let (mut done, mut multi_sweep_calls) = (0usize, 0usize);
                while done < total {
                    let k = batch.min(total - done);
                    runner.call_sweeps(func, args.clone(), k).unwrap();
                    done += k;
                    multi_sweep_calls += usize::from(k > 1);
                }
                let fallbacks = obs
                    .snapshot()
                    .events
                    .iter()
                    .filter(|e| e.name == "sweep-batch-fallback")
                    .count();
                let expected = if batchable { 0 } else { multi_sweep_calls };
                assert_eq!(
                    fallbacks, expected,
                    "{what} k={batch}: sweep-batch-fallback events"
                );
                (bufs[0].to_vec(), runner.stats())
            };
            let (expect, stats_eager) = run(1);
            for k in [2usize, 4] {
                let (got, stats_batched) = run(k);
                let label = format!(
                    "{what} batched k={k} scheduler={} threads={threads}",
                    scheduler.name()
                );
                assert_bits_equal(&expect, &got, &label);
                assert_eq!(
                    stats_eager, stats_batched,
                    "{label}: batching must not change counters"
                );
            }
        }
    }
}

#[test]
fn sor_batched_sweeps_match_eager() {
    let module = kernels::sor_module(1.5);
    let shape = [1usize, 17, 17];
    let compiled =
        compile(&module, &PipelineOptions::tr2(vec![4, 4], vec![2, 2])).expect("sor compiles");
    check_batched_matches_eager(
        &compiled.module,
        "sor",
        &|| vec![seeded(&shape), seeded(&shape)],
        4,
        true,
        "sor tr2",
    );
}

#[test]
fn gs5_batched_sweeps_match_eager() {
    let module = kernels::gauss_seidel_5pt_module();
    let shape = [1usize, 18, 18];
    let compiled =
        compile(&module, &PipelineOptions::tr4(vec![8, 8], vec![4, 4])).expect("gs5 compiles");
    check_batched_matches_eager(
        &compiled.module,
        "gs5",
        &|| vec![seeded(&shape), seeded(&shape)],
        4,
        true,
        "gs5 tr4",
    );
}

#[test]
fn lusgs_batched_sweeps_match_eager() {
    // Pure repeated sweeps over fixed dw/b (no per-step refills): the
    // fused batch models exactly this repeated-sweep iteration — block
    // `b` of sweep `s+1` may start as soon as its sweep-`s` forward
    // neighborhood retires, with no host code between sweeps.
    let module = euler_lusgs_module(0.05);
    let n = 10usize;
    let shape = [NV, n, n, n];
    let compiled = compile(&module, &PipelineOptions::new(vec![4, 4, 4], vec![2, 2, 2]))
        .expect("euler compiles");
    check_batched_matches_eager(
        &compiled.module,
        "euler_step",
        &|| {
            let w0 = vortex_initial(n);
            let w = BufferView::from_data(&shape, w0.data().to_vec());
            let dw = BufferView::alloc(&shape);
            let b = BufferView::alloc(&shape);
            vec![w, dw, b]
        },
        4,
        false,
        "lusgs",
    );
}

#[test]
fn sor_engines_match_on_every_preset() {
    let module = kernels::sor_module(1.5);
    let n = 17usize;
    let shape = [1, n, n];
    let presets: [(&str, PipelineOptions); 4] = [
        ("tr1", PipelineOptions::tr1(vec![4, 4], vec![2, 2])),
        ("tr2", PipelineOptions::tr2(vec![4, 4], vec![2, 2])),
        ("tr3", PipelineOptions::tr3(vec![4, 4], vec![2, 2])),
        ("tr4", PipelineOptions::tr4(vec![4, 4], vec![2, 2])),
    ];
    for (name, opts) in presets {
        let compiled = compile(&module, &opts).expect("sor compiles");
        check_all_engines(
            &compiled.module,
            "sor",
            &shape,
            2,
            3,
            &format!("sor {name}"),
        );
    }
}

#[test]
fn lusgs_engines_match() {
    let module = euler_lusgs_module(0.05);
    let n = 10usize;
    let shape = [NV, n, n, n];
    let compiled = compile(&module, &PipelineOptions::new(vec![4, 4, 4], vec![2, 2, 2]))
        .expect("euler compiles");

    // Two steps, each on fresh `dw`/`b`; the stats are the last step's.
    let run = |step: &dyn Fn(&[RtVal]) -> ExecStats| {
        let w0 = vortex_initial(n);
        let w = BufferView::from_data(&shape, w0.data().to_vec());
        let dw = BufferView::alloc(&shape);
        let b = BufferView::alloc(&shape);
        let mut stats = ExecStats::default();
        for _ in 0..2 {
            dw.fill(0.0);
            b.fill(0.0);
            stats = step(&as_args(&[w.clone(), dw.clone(), b.clone()]));
        }
        (w.to_vec(), stats)
    };

    let (expect, stats_i) = run(&|args| interpret(&compiled.module, "euler_step", args, 1));
    for threads in THREAD_COUNTS {
        for scheduler in SCHEDULERS {
            for (name, opts) in FLAVORS {
                let (got, stats_e) = run(&|args| {
                    let mut eng = bytecode(&compiled.module, threads, scheduler, opts);
                    eng.call("euler_step", args.to_vec()).unwrap();
                    eng.stats
                });
                let label =
                    format!("lusgs {name} scheduler={} threads={threads}", scheduler.name());
                assert_bits_equal(&expect, &got, &label);
                assert_eq!(stats_i, stats_e, "{label}: engines must count identically");
                assert!(stats_e.wavefront_levels > 0, "{label}: wavefronts expected");
            }
        }
    }
}

#[test]
fn gs5_engines_match_on_presets() {
    // The bench kernel of the acceptance criterion: 5-point 2D
    // Gauss-Seidel through tiling presets at every thread count.
    let module = kernels::gauss_seidel_5pt_module();
    let n = 18usize;
    let shape = [1, n, n];
    for (name, opts) in [
        ("tr1", PipelineOptions::tr1(vec![8, 8], vec![4, 4])),
        ("tr4", PipelineOptions::tr4(vec![8, 8], vec![4, 4])),
    ] {
        let compiled = compile(&module, &opts).expect("gs5 compiles");
        check_all_engines(
            &compiled.module,
            "gs5",
            &shape,
            2,
            2,
            &format!("gs5 {name}"),
        );
    }
}

#[test]
fn gs5_vectorized_engines_match() {
    // The vf-lowered inner-loop shape (vector loads/FMAs over the
    // U-neighborhood, a lane-unrolled scalar recurrence for the L-chain,
    // and a peeled scalar tail) now takes the run-specialized path too —
    // the fix for the 2.3× partial-vectorization pessimization. The
    // wide stripe kernels must reproduce the interpreter bit-for-bit
    // and counter-for-counter at every width, engine, scheduler, and
    // thread count, exactly like the scalar tapes.
    let module = kernels::gauss_seidel_5pt_module();
    let n = 18usize; // interior 16: a whole number of vf4/vf8 stripes
    let shape = [1, n, n];
    for vf in [4usize, 8] {
        let opts = PipelineOptions::tr4(vec![8, 16], vec![4, 16]).vectorize(Some(vf));
        let compiled = compile(&module, &opts).expect("vectorized gs5 compiles");
        check_all_engines(
            &compiled.module,
            "gs5",
            &shape,
            2,
            2,
            &format!("gs5 vf{vf}"),
        );
    }
}

#[test]
fn gs5_vectorized_engines_match_on_ragged_innermost_extents() {
    // Innermost interior extents that are NOT multiples of the vector
    // width: the vectorizer peels a scalar tail after the wide stripes,
    // so every sweep mixes wide macro-ops, scalar macro-ops, and (for
    // tails under MIN_RUN) generic dispatch. Bit- and stats-identity
    // must survive the mix at every thread count.
    let module = kernels::gauss_seidel_5pt_module();
    for vf in [4usize, 8] {
        for (ny, nx) in [(12usize, 20usize), (13, 17)] {
            // Interior nx-2 ∈ {18, 15}: 18 = 2·8+2 / 4·4+2, 15 = 8+7 /
            // 3·4+3 — tails of 2, 3 and 7 points across the widths.
            let shape = [1, ny, nx];
            let opts = PipelineOptions::tr4(vec![8, 16], vec![4, 16]).vectorize(Some(vf));
            let compiled = compile(&module, &opts).expect("vectorized gs5 compiles");
            check_all_engines(
                &compiled.module,
                "gs5",
                &shape,
                2,
                2,
                &format!("gs5 vf{vf} ragged {ny}x{nx}"),
            );
        }
    }
}

#[test]
fn gs5_engines_match_on_ragged_innermost_extents() {
    // Interior extents that are NOT multiples of the innermost tile
    // width: the last tile of each row is short, so the run-specialized
    // engine must take its scalar epilogue — including trailing runs
    // shorter than `MIN_RUN`, which fall back to generic dispatch
    // mid-sweep. Bit-identity must survive the mixed paths.
    let module = kernels::gauss_seidel_5pt_module();
    for (ny, nx) in [(17usize, 17usize), (18, 13), (12, 12)] {
        // Interior nx-2 ∈ {15, 11, 10}; tile x = 4 (and 8 for the last)
        // leaves trailing runs of 3, 3 and 2 points respectively.
        let shape = [1, ny, nx];
        let tile_x = if nx == 12 { 8 } else { 4 };
        let opts = PipelineOptions::tr4(vec![8, 8], vec![4, tile_x]);
        let compiled = compile(&module, &opts).expect("gs5 compiles");
        check_all_engines(
            &compiled.module,
            "gs5",
            &shape,
            2,
            2,
            &format!("gs5 ragged {ny}x{nx}"),
        );
    }
}

/// The coarsened-task dataflow executor (tiny blocks fused into chains,
/// the fix for the inverse-scaling bug) must stay bit- and
/// stats-identical to sequential levels execution.
#[test]
fn coarsened_tasks_match_levels_bitwise_across_engines_and_threads() {
    // 32 interior points / 4 → an 8x8 block grid (64 blocks, inner row
    // 8). Under the default machine model the dataflow grain is 8 at 1
    // and 2 threads, 4 at 4 and 2 at 8 — every thread count below
    // exercises genuinely fused multi-block tasks, and the engines are
    // driven directly (not through the driver) so the worker counts are
    // real even on a single-core host.
    let module = kernels::sor_module(1.5);
    let compiled = compile(&module, &PipelineOptions::new(vec![4, 4], vec![2, 2])).unwrap();
    let shape = [1usize, 34, 34];

    let fresh = || [seeded(&shape), seeded(&shape)];
    let bufs = fresh();
    let stats_ref = interpret(&compiled.module, "sor", &as_args(&bufs), 2);
    let expect = bufs[0].to_vec();
    assert!(stats_ref.wavefront_levels > 0, "wavefronts expected");
    for threads in [1usize, 2, 4, 8] {
        for (name, opts) in FLAVORS {
            let bufs = fresh();
            let mut eng = bytecode(&compiled.module, threads, Scheduler::Dataflow, opts);
            for _ in 0..2 {
                eng.call("sor", as_args(&bufs)).unwrap();
            }
            let stats = eng.stats;
            let label = format!("{name} dataflow threads={threads}");
            assert!(
                expect
                    .iter()
                    .zip(&bufs[0].to_vec())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{label}: coarsened execution changed result bits"
            );
            assert_eq!(
                stats_ref, stats,
                "{label}: coarsened execution changed the stats"
            );
        }
    }
}

/// The plan cache is keyed by how a run's accesses share allocations,
/// not by which allocations they are. `y[i] = x[i]·½ + 1` streams its
/// load while `x` and `y` live on distinct allocations; once `y` is `x`
/// shifted by one element of the same allocation, every load reads the
/// previous iteration's store. That run keeps the same cross offset
/// (`base(y) − base(x)` = 1 both times), so a key without the aliasing
/// structure would reuse the streaming plan and read stale memory. A
/// fresh allocation with the same inner geometry, on the other hand,
/// must reuse the plan. Every run is checked against the interpreter
/// bit for bit.
#[test]
fn plan_cache_key_tracks_aliasing_not_allocations() {
    let mut module = Module::new("alias");
    let m1 = Type::memref_dyn(Type::F64, 1);
    let mut fb = FuncBuilder::new("f", vec![m1.clone(), m1], vec![]);
    let (x, y) = (fb.arg(0), fb.arg(1));
    let c0 = fb.const_index(0);
    let c1 = fb.const_index(1);
    let len = fb.mem_dim(x, 0);
    fb.build_for(c0, len, c1, vec![], |fb, i, _| {
        let v = fb.mem_load(x, &[i]);
        let half = fb.const_f64(0.5);
        let one = fb.const_f64(1.0);
        let s = fb.mulf(v, half);
        let r = fb.addf(s, one);
        fb.mem_store(r, y, &[i]);
        vec![]
    });
    fb.ret(vec![]);
    module.push_func(fb.finish());
    module.verify().unwrap();

    const M: usize = 16;
    // (x, y): views [0, M) and [1, M + 1) of one or two fresh allocations.
    let views = |aliased: bool| {
        let a = seeded(&[M + 1]);
        let b = if aliased { a.clone() } else { seeded(&[M + 1]) };
        (a.subview(&[0], &[M]), b.subview(&[1], &[M]), a, b)
    };
    let obs = Obs::new(ObsLevel::Summary);
    let mut eng = BytecodeEngine::compile_with_obs(&module, 1, obs.clone()).unwrap();
    for (step, aliased, expect) in [
        ("distinct", false, (1, 0)),
        ("fresh distinct", false, (1, 1)),
        ("aliased", true, (2, 1)),
        ("fresh aliased", true, (2, 2)),
    ] {
        let (x, y, a, b) = views(aliased);
        let (xr, yr, ar, br) = views(aliased);
        let mut interp = Interpreter::new();
        interp
            .call(&module, "f", vec![RtVal::Buf(xr), RtVal::Buf(yr)])
            .unwrap();
        let before = eng.stats;
        eng.call("f", vec![RtVal::Buf(x), RtVal::Buf(y)]).unwrap();
        assert_bits_equal(&ar.to_vec(), &a.to_vec(), step);
        assert_bits_equal(&br.to_vec(), &b.to_vec(), step);
        assert_eq!(interp.stats.loads, eng.stats.loads - before.loads, "{step}");
        assert_eq!(
            interp.stats.stores,
            eng.stats.stores - before.stores,
            "{step}"
        );
        let plans = obs.report().engine;
        assert_eq!(
            (plans.plan_builds, plans.plan_reuses),
            expect,
            "{step}: (plan builds, reuses)"
        );
    }
}

/// Fused heat 3D at a geometry where every loop of a tile body reaches
/// the run-specialized rung: 64 interior columns in one x-tile of 64
/// give the vf8 loops 8 iterations per run, and 28 interior rows in
/// tiles of 12 (18 planes in tiles of 4) leave ragged last tiles, so
/// tiles bring temporaries of several shapes. The fused producer, the
/// stencil and the `T += dT` update must all specialize (no
/// `runspec-decline`), reproduce the interpreter's bits and counters at
/// 1 and 2 workers, and — at 1 worker, where one frame serves every
/// block — build no more plans than the module has loops. On
/// `[1,20,30,70]` the 68 interior columns split as 64 + 4, so runs
/// alternate between two lengths; a plan slot keyed by run length keeps
/// both, at most two builds per innermost loop.
#[test]
fn heat3d_fused_vector_rung_matches_interpreter() {
    let module = kernels::heat3d_module();
    for (name, opts, shape) in [
        (
            "tr2",
            PipelineOptions::tr2(vec![8, 12, 64], vec![4, 12, 64]),
            [1usize, 20, 30, 66],
        ),
        (
            "tr4",
            PipelineOptions::tr4(vec![8, 12, 64], vec![4, 12, 64]),
            [1, 20, 30, 66],
        ),
        (
            "tr2",
            PipelineOptions::tr2(vec![8, 12, 64], vec![4, 12, 64]),
            [1, 20, 30, 70],
        ),
        (
            "tr4",
            PipelineOptions::tr4(vec![8, 12, 64], vec![4, 12, 64]),
            [1, 20, 30, 70],
        ),
    ] {
        let fresh = || -> Vec<BufferView> { (0..3).map(|_| seeded(&shape)).collect() };
        let compiled = compile(&module, &opts).expect("heat3d compiles");
        let loops: usize = compiled
            .module
            .funcs()
            .iter()
            .map(|f| {
                let mut n = 0;
                f.body
                    .walk(|op| n += usize::from(f.body.op(op).opcode == OpCode::For));
                n
            })
            .sum();
        let innermost: usize = compiled
            .module
            .funcs()
            .iter()
            .map(|f| {
                let body = &f.body;
                let mut n = 0;
                body.walk(|op| {
                    let op = body.op(op);
                    let has_loop = |r: &instencil::ir::RegionId| {
                        let block = body.region(*r).blocks[0];
                        body.block(block).ops.iter().any(|&o| body.op(o).opcode == OpCode::For)
                    };
                    n += usize::from(op.opcode == OpCode::For && !op.regions.iter().any(has_loop));
                });
                n
            })
            .sum();
        let bufs = fresh();
        let stats_i = interpret(&compiled.module, "heat_step", &as_args(&bufs), 2);
        for threads in [1usize, 2] {
            let label = format!("heat3d fused {name} {shape:?} threads={threads}");
            let obs = Obs::new(ObsLevel::Summary);
            let mut eng =
                BytecodeEngine::compile_with_obs(&compiled.module, threads, obs.clone()).unwrap();
            let got = fresh();
            for _ in 0..2 {
                eng.call("heat_step", as_args(&got)).unwrap();
            }
            for (i, (e, g)) in bufs.iter().zip(&got).enumerate() {
                assert_bits_equal(&e.to_vec(), &g.to_vec(), &format!("{label} buffer {i}"));
            }
            assert_eq!(
                stats_i, eng.stats,
                "{label}: engines must count identically"
            );
            let report = obs.report();
            let declines: Vec<_> = report
                .events
                .iter()
                .filter(|e| e.name == "runspec-decline")
                .collect();
            assert!(declines.is_empty(), "{label}: {declines:?}");
            let (builds, reuses) = (report.engine.plan_builds, report.engine.plan_reuses);
            assert!(reuses > builds, "{label}: {builds} builds, {reuses} reuses");
            if threads == 1 {
                assert!(
                    builds <= loops as u64,
                    "{label}: {builds} builds for {loops} loops"
                );
                assert!(
                    builds <= 2 * innermost as u64,
                    "{label}: {builds} builds for {innermost} innermost loops"
                );
            }
        }
    }
}

/// The recurrence shapes of a 1-D body with a k = −1 carry that no
/// benchmark kernel produces, each run for 300 points — more than one
/// chunk of the run-specialized engine, so the carried value crosses a
/// chunk boundary. The carry sits at the chain's init (a one-lane ring),
/// at a middle link, or is read twice in one chain; the last body holds
/// two chain-stores that do not form a ring. Every body must specialize
/// and match the interpreter bit for bit and counter for counter.
#[test]
fn recurrence_shapes_match_interpreter() {
    type Body = fn(&mut FuncBuilder, [ValueId; 3], ValueId);
    fn at(fb: &mut FuncBuilder, i: ValueId, k: i64) -> ValueId {
        let c = fb.const_index(k);
        fb.subi(i, c)
    }
    let bodies: [(&str, Body); 4] = [
        ("carry at the init", |fb, [x, y, _], i| {
            // x[i] = x[i-1]·a + y[i]
            let im1 = at(fb, i, 1);
            let v = fb.mem_load(x, &[im1]);
            let a = fb.const_f64(-0.5);
            let s = fb.mulf(v, a);
            let yi = fb.mem_load(y, &[i]);
            let r = fb.addf(s, yi);
            fb.mem_store(r, x, &[i]);
        }),
        ("carry at a middle link", |fb, [x, y, _], i| {
            // x[i] = (x[i-2]·a + x[i-1]) + y[i]
            let (im2, im1) = (at(fb, i, 2), at(fb, i, 1));
            let w = fb.mem_load(x, &[im2]);
            let v = fb.mem_load(x, &[im1]);
            let a = fb.const_f64(-0.5);
            let s = fb.mulf(w, a);
            let t = fb.addf(s, v);
            let yi = fb.mem_load(y, &[i]);
            let r = fb.addf(t, yi);
            fb.mem_store(r, x, &[i]);
        }),
        ("carry read twice", |fb, [x, y, _], i| {
            // x[i] = (x[i-1]·a + x[i-1]) + y[i], two loads of x[i-1]
            let im1 = at(fb, i, 1);
            let v1 = fb.mem_load(x, &[im1]);
            let v2 = fb.mem_load(x, &[im1]);
            let a = fb.const_f64(-0.5);
            let s = fb.mulf(v1, a);
            let t = fb.addf(s, v2);
            let yi = fb.mem_load(y, &[i]);
            let r = fb.addf(t, yi);
            fb.mem_store(r, x, &[i]);
        }),
        ("two chain-stores, no ring", |fb, [x, y, z], i| {
            // x[i] = x[i-1]·a + y[i];  z[i] = z[i-1]·b + y[i]
            let im1 = at(fb, i, 1);
            let yi = fb.mem_load(y, &[i]);
            for (m, c) in [(x, -0.5), (z, 0.75)] {
                let v = fb.mem_load(m, &[im1]);
                let a = fb.const_f64(c);
                let s = fb.mulf(v, a);
                let r = fb.addf(s, yi);
                fb.mem_store(r, m, &[i]);
            }
        }),
    ];
    const N: usize = 302; // i ∈ [2, N): 300 points
    for (name, body) in bodies {
        let mut module = Module::new("recurrence");
        let m1 = Type::memref_dyn(Type::F64, 1);
        let mut fb = FuncBuilder::new("f", vec![m1.clone(), m1.clone(), m1], vec![]);
        let args = [fb.arg(0), fb.arg(1), fb.arg(2)];
        let c1 = fb.const_index(1);
        let c2 = fb.const_index(2);
        let len = fb.mem_dim(args[0], 0);
        fb.build_for(c2, len, c1, vec![], |fb, i, _| {
            body(fb, args, i);
            vec![]
        });
        fb.ret(vec![]);
        module.push_func(fb.finish());
        module.verify().unwrap();

        let fresh = || -> Vec<BufferView> { (0..3).map(|_| seeded(&[N])).collect() };
        let expect = fresh();
        let mut interp = Interpreter::new();
        interp.call(&module, "f", as_args(&expect)).unwrap();
        let obs = Obs::new(ObsLevel::Summary);
        let mut eng = BytecodeEngine::compile_with_obs(&module, 1, obs.clone()).unwrap();
        let got = fresh();
        eng.call("f", as_args(&got)).unwrap();
        for (k, (e, g)) in expect.iter().zip(&got).enumerate() {
            assert_bits_equal(&e.to_vec(), &g.to_vec(), &format!("{name}: buffer {k}"));
        }
        let (si, se) = (interp.stats, eng.stats);
        assert_eq!(
            (si.loads, si.stores, si.scalar_flops),
            (se.loads, se.stores, se.scalar_flops),
            "{name}: (loads, stores, scalar flops)"
        );
        let report = obs.report();
        let declines: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.name == "runspec-decline")
            .collect();
        assert!(declines.is_empty(), "{name}: {declines:?}");
        assert_eq!(report.engine.plan_builds, 1, "{name}: one specialized run");
    }
}

/// Plan look-ups (builds + reuses) and short-run points of the first
/// run report of `obs`.
fn run_counts(obs: &Obs) -> (u64, u64) {
    let engine = obs.report().engine;
    (engine.plan_builds + engine.plan_reuses, engine.short_run_points)
}

/// Runs `sweeps` sweeps of `func` as one `call_sweeps` batch on the
/// run-specialized engine at 1 and 2 workers and checks bits and
/// counters against as many interpreter calls; returns the plan
/// look-ups and short-run points of the 1-worker run.
fn check_batches(module: &Module, func: &str, shape: &[usize], sweeps: usize, what: &str) -> (u64, u64) {
    let fresh = || -> Vec<BufferView> { (0..2).map(|_| seeded(shape)).collect() };
    let bufs = fresh();
    let stats_i = interpret(module, func, &as_args(&bufs), sweeps);
    let mut counts = (0, 0);
    for threads in [1usize, 2] {
        let label = format!("{what} k={sweeps} threads={threads}");
        let obs = Obs::new(ObsLevel::Summary);
        let mut eng = BytecodeEngine::compile_with_obs(module, threads, obs.clone()).unwrap();
        let got = fresh();
        eng.call_sweeps(func, as_args(&got), sweeps).unwrap();
        for (i, (e, g)) in bufs.iter().zip(&got).enumerate() {
            assert_bits_equal(&e.to_vec(), &g.to_vec(), &format!("{label} buffer {i}"));
        }
        assert_eq!(stats_i, eng.stats, "{label}: engines must count identically");
        if threads == 1 {
            counts = run_counts(&obs);
        }
    }
    counts
}

/// The row nest at the benchmark's small-tile geometry: SOR and gs5
/// (scalar, vf4, vf8) at `[8,8]`/`[4,4]` and at ragged `[8,8]`/`[3,5]`,
/// on 65² and 66² grids, eager and batched, at 1 and 2 workers —
/// interior tiles run as nests, ragged and short ones row by row, and
/// every mix must reproduce the interpreter's bits and counters.
#[test]
fn row_nests_match_interpreter_on_small_tiles() {
    let kernels: [(&str, &str, Module); 2] = [
        ("sor", "sor", kernels::sor_module(1.5)),
        ("gs5", "gs5", kernels::gauss_seidel_5pt_module()),
    ];
    for (name, func, module) in &kernels {
        let vfs: &[Option<usize>] = if *name == "gs5" { &[None, Some(4), Some(8)] } else { &[None] };
        for &vf in vfs {
            for tile in [vec![4, 4], vec![3, 5]] {
                let opts = PipelineOptions::tr2(vec![8, 8], tile.clone()).vectorize(vf);
                let compiled = compile(module, &opts).expect("compiles");
                for n in [65usize, 66] {
                    for sweeps in [1usize, 3] {
                        let what = format!("{name} vf={vf:?} tile={tile:?} {n}²");
                        check_batches(&compiled.module, func, &[1, n, n], sweeps, &what);
                    }
                }
            }
        }
    }
}

/// One eager SOR sweep on 65² at `[8,8]`/`[4,4]` on one worker looks a
/// plan up once per 4-wide tile, not once per row: 63 interior columns
/// make 15 tiles of 4 points and one of 3 per tile row, 16 tile rows
/// make 240 tiles of 4-point runs (945 row runs on the per-row path),
/// and the 63 rows of the 3-wide tiles fall off the rung as short runs.
#[test]
fn sor_small_tiles_look_plans_up_once_per_tile() {
    let compiled = compile(
        &kernels::sor_module(1.5),
        &PipelineOptions::tr2(vec![8, 8], vec![4, 4]),
    )
    .expect("sor compiles");
    let (look_ups, short) = check_batches(&compiled.module, "sor", &[1, 65, 65], 1, "sor 65²");
    assert!(look_ups <= 240, "{look_ups} plan look-ups");
    assert_eq!(short, 63 * 3, "short-run points");
}

/// A 2-D nest over one allocation, `u[i, j] = f(u[r·i + s, j])` for
/// `i ∈ [0, rows)`, `j ∈ [0, cols)`: the row index is scaled in the
/// outer body, so read and write advance by different row deltas when
/// `r ≠ 1`. With `per_row`, the outer body also defines a float
/// constant, which is not integer arithmetic: the loop is no row nest.
fn strided_nest(rows: usize, r: i64, s: i64, per_row: bool) -> Module {
    let mut module = Module::new("nest");
    let m2 = Type::memref_dyn(Type::F64, 2);
    let mut fb = FuncBuilder::new("f", vec![m2], vec![]);
    let u = fb.arg(0);
    let c0 = fb.const_index(0);
    let c1 = fb.const_index(1);
    let n_rows = fb.const_index(rows as i64);
    let cols = fb.mem_dim(u, 1);
    fb.build_for(c0, n_rows, c1, vec![], |fb, i, _| {
        let (cr, cs) = (fb.const_index(r), fb.const_index(s));
        if per_row {
            fb.const_f64(2.0);
        }
        let scaled = fb.muli(i, cr);
        let src = fb.addi(scaled, cs);
        fb.build_for(c0, cols, c1, vec![], |fb, j, _| {
            let v = fb.mem_load(u, &[src, j]);
            let half = fb.const_f64(0.5);
            let one = fb.const_f64(1.0);
            let w = fb.mulf(v, half);
            let x = fb.addf(w, one);
            fb.mem_store(x, u, &[i, j]);
            vec![]
        });
        vec![]
    });
    fb.ret(vec![]);
    module.push_func(fb.finish());
    module.verify().unwrap();
    module
}

/// A nest whose read `u[2i, j]` and write `u[i, j]` share an allocation
/// but not a row delta would change its aliasing from row to row, so it
/// takes the per-row path (one plan look-up per row) and still matches
/// the interpreter; `u[i + 4, j]` shares the write's row delta and runs
/// as one nest (one look-up), unless its outer body is not integer
/// arithmetic.
#[test]
fn row_nest_declines_when_aliasing_changes_per_row() {
    const ROWS: usize = 4;
    for (r, s, per_row, look_ups) in [
        (2, 0, false, ROWS as u64),
        (1, 4, false, 1),
        (1, 4, true, ROWS as u64),
    ] {
        let module = strided_nest(ROWS, r, s, per_row);
        let shape = [2 * ROWS, 9];
        let expect = seeded(&shape);
        let mut interp = Interpreter::new();
        interp.call(&module, "f", vec![RtVal::Buf(expect.clone())]).unwrap();
        let obs = Obs::new(ObsLevel::Summary);
        let mut eng = BytecodeEngine::compile_with_obs(&module, 1, obs.clone()).unwrap();
        let got = seeded(&shape);
        eng.call("f", vec![RtVal::Buf(got.clone())]).unwrap();
        let what = format!("u[{r}i + {s}, j]");
        assert_bits_equal(&expect.to_vec(), &got.to_vec(), &what);
        assert_eq!(interp.stats, eng.stats, "{what}: engines must count identically");
        assert_eq!(run_counts(&obs).0, look_ups, "{what}: plan look-ups");
    }
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("an out-of-range access must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_default()
}

/// A nest whose last row reads one row past the buffer panics before
/// running a row, with the message the per-row path gives for the same
/// access.
#[test]
fn out_of_range_row_nest_panics_like_the_per_row_path() {
    const ROWS: usize = 4;
    let run = |per_row: bool| {
        let module = strided_nest(ROWS, 1, 1, per_row);
        panic_message(|| {
            let mut eng = BytecodeEngine::compile(&module).unwrap();
            let _ = eng.call("f", vec![RtVal::Buf(seeded(&[ROWS, 9]))]);
        })
    };
    let nest = run(false);
    assert_eq!(nest, "index [4, 0] out of bounds (dim 0: valid [0, 4))");
    assert_eq!(nest, run(true));
}

/// Number of `op` ops in every function of `module`.
fn count_ops(module: &Module, op: OpCode) -> usize {
    let mut n = 0;
    for f in module.funcs() {
        f.body.walk(|o| n += usize::from(f.body.op(o).opcode == op));
    }
    n
}

/// The `runspec-decline` events of `module` compiled for the
/// run-specialized engine.
fn decline_events(module: &Module) -> Vec<String> {
    let obs = Obs::new(ObsLevel::Summary);
    BytecodeEngine::compile_with_obs(module, 1, obs.clone()).unwrap();
    obs.report()
        .events
        .into_iter()
        .filter(|e| e.name == "runspec-decline")
        .map(|e| e.detail)
        .collect()
}

/// An innermost loop with an `scf.if` in its body cannot be served by
/// the run-specialized rung, and says so: exactly one `runspec-decline`
/// naming the guard. Its outer loop declines silently, as every outer
/// loop of a nest does.
#[test]
fn guarded_innermost_loop_is_reported() {
    let mut module = Module::new("guarded");
    let m2 = Type::memref_dyn(Type::F64, 2);
    let mut fb = FuncBuilder::new("f", vec![m2], vec![]);
    let u = fb.arg(0);
    let (c0, c1, c2) = (fb.const_index(0), fb.const_index(1), fb.const_index(2));
    let (rows, cols) = (fb.mem_dim(u, 0), fb.mem_dim(u, 1));
    fb.build_for(c0, rows, c1, vec![], |fb, i, _| {
        fb.build_for(c0, cols, c1, vec![], |fb, j, _| {
            let inside = fb.cmpi(CmpPred::Ge, j, c2);
            fb.build_if(
                inside,
                vec![],
                |fb| {
                    let v = fb.mem_load(u, &[i, j]);
                    let w = fb.addf(v, v);
                    fb.mem_store(w, u, &[i, j]);
                    vec![]
                },
                |_| vec![],
            );
            vec![]
        });
        vec![]
    });
    fb.ret(vec![]);
    module.push_func(fb.finish());
    module.verify().unwrap();
    let events = decline_events(&module);
    assert_eq!(events.len(), 1, "{events:?}");
    assert!(events[0].ends_with(": guarded body"), "{events:?}");
}

/// The configurations of the canonical IR golden table
/// (`crates/core/tests/canonical_golden.rs`): the benchmark's kernels at
/// their profile geometry × {scalar, vf4, vf8} × fuse on/off, plus the
/// production geometry of `gs5_stream`, `heat3d_fused` and
/// `sor_solve_small`.
fn golden_configs() -> Vec<(String, Module, PipelineOptions)> {
    let sor = || kernels::sor_module(sor_optimal_omega(63));
    let flat = (vec![16, 32], vec![8, 32]);
    let euler = (vec![4, 4, 8], vec![2, 2, 8]);
    let profile = [
        ("gs5", kernels::gauss_seidel_5pt_module(), flat.clone()),
        ("gs9", kernels::gauss_seidel_9pt_module(), (vec![1, 32], vec![1, 32])),
        ("gs9o2", kernels::gauss_seidel_9pt_order2_module(), flat.clone()),
        ("heat3d", kernels::heat3d_module(), (vec![4, 6, 16], vec![2, 3, 16])),
        ("sor", sor(), flat.clone()),
        ("jacobi5", kernels::jacobi_5pt_module(), flat),
        ("euler_lusgs", euler_lusgs_module(0.05), euler.clone()),
        ("euler_lusgs_sweep", euler_lusgs_sweep_module(0.05), euler),
    ];
    let mut out = Vec::new();
    for (name, module, (sub, tile)) in profile {
        for fuse in [false, true] {
            for vf in [None, Some(4), Some(8)] {
                let opts = PipelineOptions::new(sub.clone(), tile.clone())
                    .fuse(fuse)
                    .vectorize(vf);
                out.push((format!("{name} fuse={fuse} vf={vf:?}"), module.clone(), opts));
            }
        }
    }
    out.push((
        "gs5_stream".into(),
        kernels::gauss_seidel_5pt_module(),
        PipelineOptions::new(vec![128, 512], vec![64, 256]).vectorize(Some(8)),
    ));
    out.push((
        "heat3d_fused".into(),
        kernels::heat3d_module(),
        PipelineOptions::tr4(vec![8, 26, 64], vec![4, 26, 64]),
    ));
    out.push((
        "sor_solve_small".into(),
        sor(),
        PipelineOptions::tr2(vec![8, 8], vec![4, 4]),
    ));
    out
}

/// No benchmark configuration lowers to a guarded innermost loop.
#[test]
fn golden_configurations_have_no_guarded_loops() {
    for (label, module, opts) in golden_configs() {
        let compiled = compile(&module, &opts).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(count_ops(&compiled.module, OpCode::If), 0, "{label}: scf.if");
        let guarded: Vec<_> = decline_events(&compiled.module)
            .into_iter()
            .filter(|e| e.contains("guarded body"))
            .collect();
        assert!(guarded.is_empty(), "{label}: {guarded:?}");
    }
}

/// The benchmark's Euler recipe (`lusgs_euler`: 24³ interior cells,
/// sub-domain [4,4,8], tile [2,2,8], fuse, vf8). Its face iterators lower
/// to guard-free loops, so their runs reach the run-specialized rung:
/// one eager `euler_step` at 1 worker reproduces the interpreter's bits
/// and counters and makes thousands of plan look-ups. The pinned
/// short-run count is the one-face x-boundary runs (3 456) on top of the
/// sweeps' vf8 runs (12 096).
#[test]
fn lusgs_face_loops_reach_the_run_rung() {
    let n = 26usize;
    let shape = [NV, n, n, n];
    let opts = PipelineOptions::new(vec![4, 4, 8], vec![2, 2, 8])
        .fuse(true)
        .vectorize(Some(8));
    let compiled = compile(&euler_lusgs_module(0.05), &opts).expect("euler compiles");
    assert_eq!(count_ops(&compiled.module, OpCode::If), 0, "scf.if ops");
    let fresh = || {
        let w = BufferView::from_data(&shape, vortex_initial(n).data().to_vec());
        vec![w, BufferView::alloc(&shape), BufferView::alloc(&shape)]
    };
    let expect = fresh();
    let stats_i = interpret(&compiled.module, "euler_step", &as_args(&expect), 1);
    let obs = Obs::new(ObsLevel::Summary);
    let mut eng = BytecodeEngine::compile_with_obs(&compiled.module, 1, obs.clone()).unwrap();
    let got = fresh();
    eng.call("euler_step", as_args(&got)).unwrap();
    for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
        assert_bits_equal(&e.to_vec(), &g.to_vec(), &format!("euler_step buffer {i}"));
    }
    assert_eq!(stats_i, eng.stats, "engines must count identically");
    let (look_ups, short) = run_counts(&obs);
    assert!(look_ups >= 5_000, "{look_ups} plan look-ups");
    assert_eq!(short, 15_552, "short-run points");
}
