//! Quickstart: define, compile and run an in-place Gauss-Seidel stencil.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use instencil::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The kernel: the paper's 5-point Gauss-Seidel (Fig. 3) ------
    let module = kernels::gauss_seidel_5pt_module();
    println!("tensor-level IR (cfd dialect):\n");
    for line in module.to_text().lines().take(12) {
        println!("  {line}");
    }

    // --- 2. Compile: tile + wavefront-parallelize + vectorize ----------
    let opts = PipelineOptions::new(vec![16, 16], vec![8, 8])
        .parallel(true)
        .vectorize(Some(8));
    let compiled = compile(&module, &opts)?;
    println!(
        "\ncompiled: {} structured op(s) vectorized, {} scalar",
        compiled.stats.vectorized, compiled.stats.scalar
    );
    let text = compiled.module.to_text();
    println!(
        "generated IR uses: wavefronts={}, vector reads={}, scalar chain loads={}",
        text.matches("scf.execute_wavefronts").count(),
        text.matches("vector.transfer_read").count(),
        text.matches("memref.load").count(),
    );

    // --- 3. Run: a hot spot relaxing over a 64x64 plate -----------------
    // Sweeps execute on the bytecode engine by default (compiled tapes,
    // bit-identical to the reference interpreter; pick explicitly with
    // `Runner::new(&module, Engine::Interp | Engine::Bytecode, threads)`).
    let n = 64;
    let w = BufferView::alloc(&[1, n, n]);
    w.store(&[0, 32, 32], 100.0);
    let b = BufferView::alloc(&[1, n, n]);
    run_sweeps(&compiled.module, "gs5", &[w.clone(), b], 20)?;

    println!("\nafter 20 in-place sweeps:");
    println!("  center     = {:10.4}", w.load(&[0, 32, 32]));
    println!(
        "  downstream = {:10.3e}  (reached in the very first sweep!)",
        w.load(&[0, 60, 60])
    );
    println!("  upstream   = {:10.3e}", w.load(&[0, 4, 4]));

    // The hallmark of Gauss-Seidel: updates propagate through the whole
    // domain within one sweep along the traversal direction.
    assert!(w.load(&[0, 60, 60]) > 0.0);
    println!("\nok: in-place semantics verified");
    Ok(())
}
