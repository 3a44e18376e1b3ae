//! `instencil-machine` — the simulated-hardware substrate of the
//! reproduction.
//!
//! The paper's evaluation runs on a dual-socket 44-core Xeon 6152; this
//! reproduction's host has two cores, so every thread-count sweep
//! (Figs. 11–13 and 15) is produced by the model in this crate (see
//! DESIGN.md §2 for the substitution argument):
//!
//! * [`topology`] — machine descriptions ([`topology::xeon_6152_dual`]);
//! * [`cost`] — a roofline + discrete-event estimator that replays the
//!   *actual* Eq. (3) wavefront schedules with per-point op mixes
//!   *measured from the actual generated code*;
//! * [`mod@autotune`] — capacity- and legality-constrained tile-size search
//!   (§2.1), regenerating the choices of Tables 2 and 3.
//!
//! # Example
//! ```
//! use instencil_machine::{cost::{estimate_sweep, PerPointCosts, RunConfig},
//!                         topology::xeon_6152_dual};
//! let m = xeon_6152_dual();
//! let mut cfg = RunConfig::new(vec![256, 256], vec![64, 64], vec![32, 32]);
//! cfg.threads = 8;
//! cfg.costs = PerPointCosts { scalar_flops: 6.0, mem_ops: 7.0, ..Default::default() };
//! cfg.deps = vec![vec![-1, 0], vec![0, -1]];
//! let t = estimate_sweep(&m, &cfg);
//! assert!(t.total_s > 0.0);
//! ```

pub mod autotune;
pub mod cost;
pub mod topology;

pub use autotune::{
    autotune, autotune_or_fallback, autotune_or_fallback_traced, autotune_traced, AutotuneError,
    TunedTiles,
};
pub use cost::{
    best_batch_depth, estimate_sweep, estimate_sweep_batched, estimate_sweep_dataflow,
    estimate_sweep_scheduled, t_cell, PerPointCosts, RunConfig, TimeEstimate,
};
pub use topology::{xeon_6152_dual, Machine};
