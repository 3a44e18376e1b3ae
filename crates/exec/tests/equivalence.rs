//! Differential testing: every compiled pipeline variant must agree
//! bitwise-tolerantly with the reference interpretation of the structured
//! `cfd` ops (the paper's Eq. 2 semantics).

use instencil_testkit::Rng;

use instencil_core::kernels;
use instencil_core::ops::build_face_iterator;
use instencil_core::pipeline::{compile, reference_module, PipelineOptions};
use instencil_core::transforms::bufferize::bufferize_module;
use instencil_core::transforms::lower::{lower_module, LowerOptions};
use instencil_exec::buffer::BufferView;
use instencil_exec::driver::run_sweeps;
use instencil_exec::{BcOptions, BytecodeEngine, Interpreter, RtVal};
use instencil_ir::{FuncBuilder, Module, Type};
use instencil_obs::Obs;

const TOL: f64 = 1e-12;

fn random_buffer(shape: &[usize], seed: u64) -> BufferView {
    let mut rng = Rng::seed_from_u64(seed);
    let len: usize = shape.iter().product();
    let data = rng.f64_vec(len, -1.0, 1.0);
    BufferView::from_data(shape, data)
}

fn assert_equivalent(
    module: &instencil_ir::Module,
    func: &str,
    shapes: &[Vec<usize>],
    opts: &PipelineOptions,
    iterations: usize,
    label: &str,
) {
    assert_equivalent_on(module, func, shapes, opts, iterations, label, None);
}

/// Like [`assert_equivalent`] but compares only the buffers listed in
/// `check` (fused pipelines legitimately leave scratch buffers — e.g. the
/// heat3d `Rhs` — untouched because producers write per-tile temps).
#[allow(clippy::too_many_arguments)]
fn assert_equivalent_on(
    module: &instencil_ir::Module,
    func: &str,
    shapes: &[Vec<usize>],
    opts: &PipelineOptions,
    iterations: usize,
    label: &str,
    check: Option<&[usize]>,
) {
    let reference = reference_module(module).unwrap();
    let compiled = compile(module, opts).unwrap();

    let ref_bufs: Vec<BufferView> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| random_buffer(s, 42 + i as u64))
        .collect();
    let cmp_bufs: Vec<BufferView> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| random_buffer(s, 42 + i as u64))
        .collect();

    run_sweeps(&reference, func, &ref_bufs, iterations).unwrap();
    run_sweeps(&compiled.module, func, &cmp_bufs, iterations)
        .unwrap_or_else(|e| panic!("{label}: lowered execution failed: {e}"));

    for (i, (r, c)) in ref_bufs.iter().zip(&cmp_bufs).enumerate() {
        if let Some(check) = check {
            if !check.contains(&i) {
                continue;
            }
        }
        let diff = r.max_abs_diff(c);
        assert!(
            diff <= TOL,
            "{label}: buffer {i} diverges by {diff:e} (opts {opts:?})"
        );
    }
}

fn all_presets(sd: Vec<usize>, tile: Vec<usize>) -> Vec<(&'static str, PipelineOptions)> {
    vec![
        ("tr1", PipelineOptions::tr1(sd.clone(), tile.clone())),
        ("tr2", PipelineOptions::tr2(sd.clone(), tile.clone())),
        (
            "tr3-vf4",
            PipelineOptions::tr3(sd.clone(), tile.clone()).vectorize(Some(4)),
        ),
        (
            "tr4-vf4",
            PipelineOptions::tr4(sd.clone(), tile.clone()).vectorize(Some(4)),
        ),
        (
            "seq-scalar",
            PipelineOptions::new(sd.clone(), tile.clone()).parallel(false),
        ),
        (
            "seq-vec8",
            PipelineOptions::new(sd, tile)
                .parallel(false)
                .vectorize(Some(8)),
        ),
    ]
}

#[test]
fn gs5_all_pipelines_match_reference() {
    let m = kernels::gauss_seidel_5pt_module();
    // 19x23: odd sizes exercise peeling and partial tiles.
    let shapes = vec![vec![1, 19, 23], vec![1, 19, 23]];
    for (label, opts) in all_presets(vec![8, 8], vec![4, 4]) {
        assert_equivalent(&m, "gs5", &shapes, &opts, 3, &format!("gs5/{label}"));
    }
}

#[test]
fn gs9_pinned_tiles_match_reference() {
    let m = kernels::gauss_seidel_9pt_module();
    let shapes = vec![vec![1, 17, 21], vec![1, 17, 21]];
    for (label, opts) in all_presets(vec![1, 8], vec![1, 4]) {
        assert_equivalent(&m, "gs9", &shapes, &opts, 3, &format!("gs9/{label}"));
    }
}

#[test]
fn gs9_order2_matches_reference() {
    let m = kernels::gauss_seidel_9pt_order2_module();
    let shapes = vec![vec![1, 21, 19], vec![1, 21, 19]];
    for (label, opts) in all_presets(vec![8, 8], vec![4, 4]) {
        assert_equivalent(&m, "gs9o2", &shapes, &opts, 2, &format!("gs9o2/{label}"));
    }
}

#[test]
fn heat3d_matches_reference_including_fusion() {
    let m = kernels::heat3d_module();
    let shapes = vec![
        vec![1, 11, 13, 15],
        vec![1, 11, 13, 15],
        vec![1, 11, 13, 15],
    ];
    for (label, opts) in all_presets(vec![4, 4, 8], vec![2, 2, 4]) {
        // Buffers 0 (T) and 1 (dT) are the solver state; buffer 2 (Rhs)
        // is scratch that fused pipelines never materialize globally.
        assert_equivalent_on(
            &m,
            "heat_step",
            &shapes,
            &opts,
            2,
            &format!("heat3d/{label}"),
            Some(&[0, 1]),
        );
    }
}

#[test]
fn backward_sweep_matches_reference() {
    let m = kernels::gauss_seidel_5pt_backward_module();
    let shapes = vec![vec![1, 15, 17], vec![1, 15, 17]];
    for (label, opts) in all_presets(vec![8, 8], vec![4, 4]) {
        assert_equivalent(
            &m,
            "gs5_back",
            &shapes,
            &opts,
            3,
            &format!("gs5back/{label}"),
        );
    }
}

#[test]
fn jacobi_matches_reference() {
    let m = kernels::jacobi_5pt_module();
    let shapes = vec![vec![1, 15, 14], vec![1, 15, 14], vec![1, 15, 14]];
    for (label, opts) in all_presets(vec![8, 8], vec![4, 4]) {
        assert_equivalent(&m, "jacobi5", &shapes, &opts, 1, &format!("jacobi/{label}"));
    }
}

#[test]
fn backward_and_forward_sweeps_differ() {
    // Sanity: the two sweep directions produce genuinely different
    // results on asymmetric data (they are different iterations).
    let fwd = kernels::gauss_seidel_5pt_module();
    let bwd = kernels::gauss_seidel_5pt_backward_module();
    let rf = reference_module(&fwd).unwrap();
    let rb = reference_module(&bwd).unwrap();
    let shapes = [vec![1usize, 12, 12], vec![1usize, 12, 12]];
    let bufs_f: Vec<BufferView> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| random_buffer(s, 7 + i as u64))
        .collect();
    let bufs_b: Vec<BufferView> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| random_buffer(s, 7 + i as u64))
        .collect();
    run_sweeps(&rf, "gs5", &bufs_f, 1).unwrap();
    run_sweeps(&rb, "gs5_back", &bufs_b, 1).unwrap();
    assert!(bufs_f[0].max_abs_diff(&bufs_b[0]) > 1e-6);
}

/// A 3-D face iterator with two variables along `axis`, whose flux mixes
/// both cells non-linearly so that any change in the order of a cell's
/// contributions shows in its bits.
fn face_module(axis: usize) -> Module {
    let t4 = Type::tensor_dyn(Type::F64, 4);
    let mut fb = FuncBuilder::new("flux", vec![t4.clone(), t4.clone()], vec![t4]);
    let (x, b0) = (fb.arg(0), fb.arg(1));
    let b = build_face_iterator(&mut fb, x, b0, axis, 2, 1, |fb, ul, ur| {
        let third = fb.const_f64(1.0 / 3.0);
        let p = fb.mulf(ul[0], ur[1]);
        let d = fb.subf(ur[0], ul[1]);
        let f0 = fb.mulf(d, third);
        let f0 = fb.addf(p, f0);
        let q = fb.mulf(ur[0], ur[0]);
        let f1 = fb.subf(q, ul[1]);
        vec![f0, f1]
    });
    fb.ret(vec![b]);
    let mut m = Module::new("flux");
    m.push_func(fb.finish());
    m
}

/// Runs `flux` once on `module` with fresh random `(X, B)` of `shape`
/// and returns `B`'s bits.
fn face_bits(shape: &[usize], run: impl FnOnce(Vec<RtVal>)) -> Vec<u64> {
    let bufs = [random_buffer(shape, 7), random_buffer(shape, 8)];
    run(bufs.iter().cloned().map(RtVal::Buf).collect());
    bufs[1].to_vec().iter().map(|v| v.to_bits()).collect()
}

/// The lowered face iterator — three guard-free loops along its axis —
/// must reproduce the structured op bit for bit: every `B` cell gets its
/// two contributions along the axis in the same order. Checked on each
/// axis, unfused, on the interpreter and on both bytecode flavors at 1
/// and 2 workers, for an untiled lowering (the window is the whole
/// interior), tiles one cell thick along the face axis (no face has
/// both cells in its window), ragged last tiles, and a window that spans
/// the face axis from one domain boundary to the other.
#[test]
fn face_iterators_match_reference_bitwise() {
    let shape = [2usize, 7, 8, 9]; // interior 5 × 6 × 7
    for axis in 0..3 {
        let module = face_module(axis);
        let reference = reference_module(&module).unwrap();
        let expect = face_bits(&shape, |args| {
            Interpreter::new().call(&reference, "flux", args).unwrap();
        });
        let with_axis = |v: usize, other: usize| -> Vec<usize> {
            (0..3).map(|d| if d == axis { v } else { other }).collect()
        };
        let untiled = lower_module(&bufferize_module(&module).unwrap(), &LowerOptions::default())
            .unwrap()
            .0;
        let mut cases = vec![("untiled", untiled)];
        for (label, sub, tile) in [
            ("tile extent 1", with_axis(2, 4), with_axis(1, 2)),
            ("ragged last tile", vec![4, 4, 4], vec![3, 3, 3]),
            ("window on the domain boundary", with_axis(8, 4), with_axis(8, 2)),
        ] {
            let opts = PipelineOptions::new(sub, tile).fuse(false);
            cases.push((label, compile(&module, &opts).unwrap().module));
        }
        for (label, lowered) in &cases {
            let what = format!("axis {axis}, {label}");
            let got = face_bits(&shape, |args| {
                Interpreter::new().call(lowered, "flux", args).unwrap();
            });
            assert!(got == expect, "{what}: interpreter bits differ");
            for specialize_runs in [true, false] {
                for threads in [1, 2] {
                    let got = face_bits(&shape, |args| {
                        let opts = BcOptions { specialize_runs };
                        BytecodeEngine::compile_with_opts(lowered, threads, Obs::off(), opts)
                            .unwrap()
                            .call("flux", args)
                            .unwrap();
                    });
                    assert!(
                        got == expect,
                        "{what}: bytecode (specialize_runs {specialize_runs}, {threads} workers) bits differ"
                    );
                }
            }
        }
    }
}
