//! The paper's §4.3 use case: a realistic implicit Euler solver using the
//! LU-SGS method, expressed end-to-end in the `cfd` dialect (Fig. 14)
//! and compiled by the generator, cross-checked against the plain-Rust
//! LU-SGS reference.
//!
//! ```text
//! cargo run --release --example euler_lusgs
//! ```
//!
//! Besides the correctness check, the example re-runs the generated
//! solver under an `ObsLevel::Trace` collector and prints the
//! wavefront-imbalance profile (per-level walls, per-worker busy/idle)
//! that EXPERIMENTS.md's LU-SGS imbalance recipe refers to.

use instencil::prelude::*;
use instencil::solvers::array::Field;
use instencil::solvers::euler::{primitive, NV};
use instencil::solvers::euler_codegen::{euler_lusgs_module, euler_module_census};
use instencil::solvers::lusgs::{lusgs_step, vortex_initial, FluxKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 12usize;
    let steps = 3usize;
    let dt = 0.05;

    // --- the Fig. 14 computational graph -------------------------------
    let module = euler_lusgs_module(dt);
    let (faces, stencils, pointwise) = euler_module_census(&module);
    println!("Fig. 14 graph: {faces} face iterators, {stencils} in-place stencils (forward+backward), {pointwise} pointwise update");

    // --- compile with the paper's §4.3 recipe ---------------------------
    // (sub-domain parallelism + fusion + cache blocking + VF=8, scaled to
    // the demo grid)
    let opts = PipelineOptions::new(vec![4, 4, 8], vec![2, 2, 8])
        .fuse(true)
        .vectorize(Some(8));
    let compiled = compile(&module, &opts)?;
    println!(
        "compiled: {} structured ops vectorized, {} scalar (face iterators stay scalar but run-specialized)",
        compiled.stats.vectorized, compiled.stats.scalar
    );

    // --- run the generated solver ---------------------------------------
    let shape = [NV, n, n, n];
    let w0 = vortex_initial(n);
    let w_gen = BufferView::from_data(&shape, w0.data().to_vec());
    let dw = BufferView::alloc(&shape);
    let b = BufferView::alloc(&shape);
    let mut interp = Interpreter::new();
    for _ in 0..steps {
        dw.fill(0.0); // ΔW starts from zero each implicit step
        b.fill(0.0); // the face iterators accumulate into B
        interp.call(
            &compiled.module,
            "euler_step",
            vec![
                RtVal::Buf(w_gen.clone()),
                RtVal::Buf(dw.clone()),
                RtVal::Buf(b.clone()),
            ],
        )?;
    }

    // --- reference -------------------------------------------------------
    let mut w_ref = vortex_initial(n);
    let mut dw_ref = Field::zeros(&[NV, n, n, n]);
    let mut rhs_ref = Field::zeros(&[NV, n, n, n]);
    for _ in 0..steps {
        lusgs_step(&mut w_ref, &mut dw_ref, &mut rhs_ref, dt, FluxKind::Rusanov);
    }

    // --- compare ----------------------------------------------------------
    let gen = w_gen.to_vec();
    let mut max_diff: f64 = 0.0;
    for (a, b) in gen.iter().zip(w_ref.data()) {
        max_diff = max_diff.max((a - b).abs());
    }
    println!("\nEuler 3D, {n}^3 cells, {steps} LU-SGS steps (dt = {dt})");
    println!("  |generated - reference| : {max_diff:.3e}");

    // Physicality of the generated solution.
    let mut min_p = f64::INFINITY;
    for i in 1..(n as i64 - 1) {
        let mut u = [0.0; NV];
        for (v, slot) in u.iter_mut().enumerate() {
            *slot = w_gen.load(&[v as i64, i, i, i]);
        }
        min_p = min_p.min(primitive(&u).p);
    }
    println!("  min pressure on diagonal: {min_p:.4} (> 0: physical)");
    assert!(
        max_diff < 1e-10,
        "generated LU-SGS must match the reference"
    );
    assert!(min_p > 0.0);
    println!("ok: generated implicit CFD solver matches the hand-written LU-SGS");

    // --- wavefront-imbalance profile (EXPERIMENTS.md recipe) -------------
    // LU-SGS wavefronts are diagonal planes of a cube: level widths ramp
    // 1, 3, 6, … up to the main diagonal and back down, so the first and
    // last levels cannot feed every worker. Re-run the generated solver
    // under a Trace collector and print where that idle time lands.
    let threads = 4usize;
    let obs = Obs::new(ObsLevel::Trace);
    let mut runner = Runner::with_obs(&compiled.module, Engine::Bytecode, threads, obs)?;
    for _ in 0..steps {
        dw.fill(0.0);
        b.fill(0.0);
        runner.call(
            "euler_step",
            vec![
                RtVal::Buf(w_gen.clone()),
                RtVal::Buf(dw.clone()),
                RtVal::Buf(b.clone()),
            ],
        )?;
    }
    let report = runner.report();
    println!("\nwavefront imbalance, {threads} threads ({steps} traced steps):");
    for group in &report.wavefronts {
        for level in &group.levels {
            let idle: u64 = level.workers.iter().map(|w| w.idle_ns).sum();
            println!(
                "  level {:>2}: {:>3} blocks, wall {:>8} ns, imbalance {:.2}, total idle {:>8} ns",
                level.index, level.blocks, level.wall_ns, level.imbalance, idle
            );
        }
    }
    Ok(())
}
