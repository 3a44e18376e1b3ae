//! # instencil — code generation for in-place stencils
//!
//! A Rust reproduction of the CGO'23 paper *Code Generation for In-Place
//! Stencils* (Essadki, Michel, Maugars, Zinenko, Vasilache, Cohen): a
//! domain-specific code generator for iterative **in-place** stencils
//! (Gauss-Seidel, SOR, LU-SGS) built on an MLIR-like tensor-compiler
//! substrate.
//!
//! The workspace splits into layers, re-exported here:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | [`ir`] | `instencil-ir` | MLIR-like SSA IR, dialects, verifier, printer/parser, passes |
//! | [`pattern`] | `instencil-pattern` | stencil patterns, L/U sets, tiling legality, Eq. (3) wavefronts |
//! | [`core`] | `instencil-core` | the `cfd` dialect, kernels, tiling/fusion/parallelization/vectorization |
//! | [`exec`] | `instencil-exec` | buffers, interpreter (reference + lowered), bytecode engine, thread-pool wavefronts |
//! | [`machine`] | `instencil-machine` | Xeon 6152 model, roofline + wavefront estimator, autotuner |
//! | [`solvers`] | `instencil-solvers` | reference numerics: GS/SOR/Jacobi, heat 3D, Euler/Roe, LU-SGS |
//! | [`baseline`] | `instencil-baseline` | Pluto-like and elsA-like comparison systems |
//!
//! # Quickstart
//!
//! ```
//! use instencil::prelude::*;
//!
//! // 1. Pick a kernel (the paper's 5-point Gauss-Seidel).
//! let module = kernels::gauss_seidel_5pt_module();
//!
//! // 2. Compile: tiling + wavefront parallelism + partial vectorization.
//! let opts = PipelineOptions::new(vec![8, 8], vec![4, 4]).vectorize(Some(4));
//! let compiled = compile(&module, &opts)?;
//!
//! // 3. Execute on buffers (the same buffer serves X and Y: in place).
//! let w = BufferView::alloc(&[1, 20, 20]);
//! w.store(&[0, 10, 10], 1.0);
//! let b = BufferView::alloc(&[1, 20, 20]);
//! run_sweeps(&compiled.module, "gs5", &[w.clone(), b], 10)?;
//! assert!(w.load(&[0, 15, 15]) != 0.0); // in-place propagation
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub use instencil_baseline as baseline;
pub use instencil_core as core;
pub use instencil_exec as exec;
pub use instencil_ir as ir;
pub use instencil_machine as machine;
pub use instencil_obs as obs;
pub use instencil_pattern as pattern;
pub use instencil_solvers as solvers;

/// The most common imports in one place.
pub mod prelude {
    pub use instencil_core::kernels;
    pub use instencil_core::ops::{
        build_face_iterator, build_pointwise, build_stencil, PointwiseSpec, StencilSpec,
        StencilYield,
    };
    pub use instencil_core::pipeline::{compile, reference_module, Engine, PipelineOptions};
    pub use instencil_exec::buffer::BufferView;
    pub use instencil_exec::driver::{
        run_jacobi_sweeps, run_sweeps, run_until_converged, DEFAULT_SWEEP_BATCH,
    };
    pub use instencil_exec::{BytecodeEngine, Interpreter, RtVal, Runner, WavefrontPool};
    pub use instencil_obs::{Obs, ObsLevel, RunReport};
    pub use instencil_ir::{FuncBuilder, Module, Type};
    pub use instencil_machine::{autotune, estimate_sweep, xeon_6152_dual, RunConfig};
    pub use instencil_pattern::{presets, Scheduler, StencilPattern, Sweep, WavefrontSchedule};
}
