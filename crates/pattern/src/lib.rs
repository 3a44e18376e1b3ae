//! `instencil-pattern` — the stencil-pattern domain model of the CGO'23
//! paper *Code Generation for In-Place Stencils*.
//!
//! An iterative in-place stencil (Gauss-Seidel, SOR, LU-SGS) updates a
//! tensor `Y` in place: every point depends on *already updated* neighbors
//! (the **L** set, intra-iteration dependences) and on neighbors from the
//! previous iteration `X` (the **U** set) — paper Eq. (2). This crate
//! provides:
//!
//! * [`StencilPattern`] — the dense `{-1, 0, +1}` window attribute of
//!   `cfd.stencil` (paper Fig. 4), with the lexicographic validity rule
//!   (`r ≺ 0` for all `r ∈ L`), sweep reversal (LU-SGS backward sweeps) and
//!   the partial-vectorization classification of §2.4;
//! * [`tiling`] — the rectangular-tiling legality restriction of §2.1
//!   (tile size forced to 1 along the leading dimension of any `L` offset
//!   with a positive trailing component) and capacity-constrained tile-size
//!   enumeration;
//! * [`blockdeps`] — derivation of sub-domain-level dependences from the
//!   element-level pattern (§2.3, Fig. 1);
//! * [`schedule`] — the longest-path wavefront schedule of Eq. (3),
//!   produced in compressed sparse row form ([`WavefrontSchedule`]) exactly
//!   as `cfd.get_parallel_blocks` hands it to `cfd.execute_wavefronts`
//!   (§3.4);
//! * [`dataflow`] — the block dependence graph behind those levels, built
//!   in the same single pass over the grid ([`ScheduleBundle`]), and the
//!   drain graphs the wavefront pool executes.
//!
//! # Example
//!
//! ```
//! use instencil_pattern::{presets, schedule::WavefrontSchedule};
//!
//! let gs5 = presets::gauss_seidel_5pt();
//! assert_eq!(gs5.l_offsets(), vec![vec![-1, 0], vec![0, -1]]);
//! // Sub-domain dependences for 4x4 blocks of 8x8 tiles:
//! let deps = instencil_pattern::blockdeps::block_dependences(&gs5, &[8, 8]).unwrap();
//! let sched = WavefrontSchedule::compute(&[4, 4], &deps);
//! // Anti-diagonal wavefronts: 4+4-1 levels.
//! assert_eq!(sched.num_levels(), 7);
//! ```

pub mod blockdeps;
pub mod dataflow;
pub mod offset;
pub mod pattern;
pub mod presets;
pub mod schedule;
pub mod tiling;

pub use dataflow::{BlockGraph, ScheduleBundle, Scheduler};
pub use offset::{lex_compare, LexOrder, Offset};
pub use pattern::{PatternError, StencilPattern, Sweep};
pub use schedule::WavefrontSchedule;
