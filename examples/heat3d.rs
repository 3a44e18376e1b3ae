//! The paper's use case (d): the 3-D heat equation solved with an
//! in-place Gauss-Seidel increment (Figs. 9 and 10), run through the full
//! generated pipeline (tiling + fusion + wavefronts + vectorization) and
//! cross-checked against the plain-Rust reference solver. The geometry
//! gives every innermost loop of a fused tile at least `MIN_RUN` vf8
//! iterations, so all of them run on the run-specialized rung; the
//! example fails if the run report names a `runspec-decline` or shows no
//! reused run plan.
//!
//! ```text
//! cargo run --release --example heat3d
//! ```

use instencil::prelude::*;
use instencil::solvers::array::Field;
use instencil::solvers::heat3d::{gaussian_bump, heat3d_step};

fn field_to_buffer(f: &Field) -> BufferView {
    BufferView::from_data(f.shape(), f.data().to_vec())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 32 interior cells per axis: one x-tile of 32 is 4 vf8 iterations.
    let n = 34usize;
    let steps = 10usize;

    // --- generated pipeline: Tr4 (parallel + tiling & fusion + vect) ---
    let module = kernels::heat3d_module();
    let opts = PipelineOptions::tr4(vec![8, 16, 32], vec![4, 8, 32]);
    let compiled = compile(&module, &opts)?;

    let t_gen = field_to_buffer(&gaussian_bump(n));
    let dt_gen = BufferView::alloc(&[1, n, n, n]);
    let rhs_gen = BufferView::alloc(&[1, n, n, n]);
    let obs = Obs::new(ObsLevel::Summary);
    let mut runner = Runner::with_obs(&compiled.module, Engine::Bytecode, 1, obs)?;
    let args: Vec<RtVal> = [t_gen.clone(), dt_gen, rhs_gen]
        .into_iter()
        .map(RtVal::Buf)
        .collect();
    for _ in 0..steps {
        runner.call("heat_step", args.clone())?;
    }
    let report = runner.report();

    // --- reference: plain Rust (Fig. 9 verbatim) ------------------------
    let mut t_ref = gaussian_bump(n);
    let mut dt_ref = Field::zeros(&[1, n, n, n]);
    let mut rhs_ref = Field::zeros(&[1, n, n, n]);
    for _ in 0..steps {
        heat3d_step(&mut t_ref, &mut dt_ref, &mut rhs_ref);
    }

    // --- compare --------------------------------------------------------
    let gen = t_gen.to_vec();
    let mut max_diff: f64 = 0.0;
    for (a, b) in gen.iter().zip(t_ref.data()) {
        max_diff = max_diff.max((a - b).abs());
    }
    let peak0 = gaussian_bump(n).at(&[0, n as i64 / 2, n as i64 / 2, n as i64 / 2]);
    let peak = t_gen.load(&[0, n as i64 / 2, n as i64 / 2, n as i64 / 2]);
    println!("heat 3D, {n}^3 cells, {steps} implicit Gauss-Seidel steps");
    println!("  initial peak temperature : {peak0:.6}");
    println!("  final   peak temperature : {peak:.6}   (diffused)");
    println!("  |generated - reference|  : {max_diff:.3e}");
    println!(
        "  run plans                : {} built, {} reused",
        report.engine.plan_builds, report.engine.plan_reuses
    );
    assert!(
        max_diff < 1e-11,
        "generated pipeline must match the reference"
    );
    assert!(peak < peak0, "heat must diffuse");
    let declines: Vec<_> = report
        .events
        .iter()
        .filter(|e| e.name == "runspec-decline")
        .collect();
    assert!(
        declines.is_empty(),
        "every loop must reach the run-specialized rung: {declines:?}"
    );
    assert!(
        report.engine.plan_reuses > report.engine.plan_builds,
        "run plans must be reused across rows and tiles"
    );
    println!("ok: fused+vectorized generated code matches the Fig. 9 reference");
    Ok(())
}
