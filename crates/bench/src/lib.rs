//! `instencil-bench` — the benchmark harness regenerating every table and
//! figure of the paper's evaluation (§4).
//!
//! * [`cases`] — Table 1 workloads + Table 2 tile presets;
//! * [`profile`] — measures per-point op mixes of the actual compiled IR;
//! * [`figures`] — regenerates Tables 1–3, Figs. 8/11/12/13/15 and the
//!   Jacobi comparison through the machine model;
//! * `figures` binary — CLI entry (`cargo run -p instencil-bench --release
//!   --bin figures -- all`).
//!
//! Host timings come from the separate `benchmark/` workspace
//! (`benchmark/run.sh`), not from this crate.

pub mod cases;
pub mod figures;
pub mod profile;
