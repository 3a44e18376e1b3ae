//! `instencil-ir` — a compact, MLIR-inspired SSA intermediate representation.
//!
//! This crate provides the compiler substrate used by the in-place stencil
//! code generator: a multi-dialect, region-based SSA IR together with
//! builders, a verifier, a textual printer/parser and a small pass
//! infrastructure. It is a from-scratch Rust reimplementation of the subset
//! of [MLIR](https://mlir.llvm.org/) that the CGO'23 paper *Code Generation
//! for In-Place Stencils* relies on:
//!
//! * `arith` / `math` — scalar and elementwise-vector arithmetic,
//! * `scf` — structured control flow (`for`, `if`, `execute_wavefronts`),
//! * `func` — functions, calls and returns,
//! * `tensor` — immutable value-semantics arrays with slice extraction/insertion,
//! * `memref` — mutable buffers produced by bufferization,
//! * `vector` — fixed-width vector transfers and lane manipulation,
//! * `cfd` — the paper's domain-specific dialect (`cfd.stencil`,
//!   `cfd.face_iterator`, `cfd.tiled_loop`, `cfd.get_parallel_blocks`).
//!
//! The op *definitions* (opcode, operand/result arity, attribute and region
//! structure, verification rules) live here; the domain-specific
//! *transformations* (tiling, fusion, wavefront parallelization, partial
//! vectorization) live in the `instencil-core` crate, and *execution* of the
//! lowered IR lives in `instencil-exec`.
//!
//! # Example
//!
//! ```
//! use instencil_ir::{Module, FuncBuilder, Type};
//!
//! let mut module = Module::new("demo");
//! let mut fb = FuncBuilder::new("axpy", vec![Type::F64, Type::F64], vec![Type::F64]);
//! let a = fb.arg(0);
//! let x = fb.arg(1);
//! let two = fb.const_f64(2.0);
//! let ax = fb.mulf(a, x);
//! let y = fb.addf(ax, two);
//! fb.ret(vec![y]);
//! module.push_func(fb.finish());
//! assert!(module.verify().is_ok());
//! let text = module.to_text();
//! assert!(text.contains("arith.mulf"));
//! ```

pub mod attr;
pub mod body;
pub mod builder;
pub mod cse;
pub mod dce;
pub mod fold;
pub mod ids;
pub mod module;
pub mod op;
pub mod parse;
pub mod pass;
pub mod print;
pub mod types;
mod uses;
pub mod verify;

pub use attr::Attribute;
pub use body::{Body, Func, ValueDef};
pub use builder::FuncBuilder;
pub use ids::{BlockId, OpId, RegionId, ValueId};
pub use module::Module;
pub use op::{CmpPred, OpCode, Operation};
pub use pass::{Pass, PassError, PassManager};
pub use types::Type;
pub use verify::VerifyError;
