//! `instencil-exec` — execution engine for compiled stencil modules.
//!
//! Provides:
//!
//! * [`buffer::BufferView`] — n-d `f64` buffers with aliasing subviews and
//!   the shifted views used by fused per-tile temporaries;
//! * [`interp::Interpreter`] — an IR interpreter that executes both the
//!   *reference* (structured `cfd` ops, the semantic oracle) and the
//!   *lowered* (loops + vectors + wavefronts) forms of a module, while
//!   collecting dynamic [`stats::ExecStats`];
//! * [`bytecode::BytecodeEngine`] — compiles lowered modules once into
//!   flat register-machine tapes and executes them with no per-point
//!   allocation; bit-identical results and statistics to the
//!   interpreter, several times faster (the default engine for
//!   wall-clock measurements);
//! * [`parallel::WavefrontPool`] — genuinely multithreaded wavefront
//!   execution over CSR schedules (a persistent crew of parked std
//!   threads per pool, woken once per execute op);
//! * [`driver`] — sweep-loop helpers for in-place and out-of-place
//!   kernels.
//!
//! # Example: run the compiled 5-point Gauss-Seidel
//!
//! ```
//! use instencil_core::{kernels, pipeline::{compile, PipelineOptions}};
//! use instencil_exec::{buffer::BufferView, driver::run_sweeps};
//!
//! let module = kernels::gauss_seidel_5pt_module();
//! let compiled = compile(
//!     &module,
//!     &PipelineOptions::new(vec![8, 8], vec![4, 4]).vectorize(Some(4)),
//! ).unwrap();
//! let w = BufferView::alloc(&[1, 16, 16]);
//! w.fill(1.0);
//! let b = BufferView::alloc(&[1, 16, 16]);
//! run_sweeps(&compiled.module, "gs5", &[w.clone(), b], 3).unwrap();
//! assert_eq!(w.load(&[0, 8, 8]), 1.0); // fixed point of averaging ones
//! ```

pub mod buffer;
pub mod bytecode;
pub mod compile;
pub mod driver;
pub mod interp;
pub mod parallel;
pub(crate) mod runspec;
pub mod stats;
pub mod value;

pub use buffer::BufferView;
pub use bytecode::BytecodeEngine;
pub use compile::{BcCompileError, BcOptions};
pub use driver::Runner;
pub use interp::{ExecError, Interpreter};
pub use parallel::WavefrontPool;
pub use stats::ExecStats;
pub use value::RtVal;
