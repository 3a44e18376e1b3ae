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
use instencil::ir::{OpCode, ValueId};
use instencil::prelude::*;
use instencil::solvers::euler::NV;
use instencil::solvers::euler_codegen::euler_lusgs_module;
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
/// block — build no more plans than the module has loops.
#[test]
fn heat3d_fused_vector_rung_matches_interpreter() {
    let module = kernels::heat3d_module();
    let shape = [1usize, 20, 30, 66];
    let fresh = || -> Vec<BufferView> { (0..3).map(|_| seeded(&shape)).collect() };
    for (name, opts) in [
        (
            "tr2",
            PipelineOptions::tr2(vec![8, 12, 64], vec![4, 12, 64]),
        ),
        (
            "tr4",
            PipelineOptions::tr4(vec![8, 12, 64], vec![4, 12, 64]),
        ),
    ] {
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
        let bufs = fresh();
        let stats_i = interpret(&compiled.module, "heat_step", &as_args(&bufs), 2);
        for threads in [1usize, 2] {
            let label = format!("heat3d fused {name} threads={threads}");
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
