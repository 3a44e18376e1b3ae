//! Run specialization: fused inner-loop macro-ops (DESIGN.md §4f).
//!
//! The bytecode engine's generic `Instr::For` pays per-point, per-instr
//! dispatch plus a bounds check and an atomic round-trip for every load
//! and store — ~100 ns/point on the 5-point Gauss-Seidel where a
//! hand-written loop runs in single-digit nanoseconds. This module
//! closes that gap with the classic superinstruction move (Ertl &
//! Gregg) shaped by the paper's §2.4 *partial vectorization*: process a
//! whole contiguous innermost-dimension run of points in **one**
//! dispatch.
//!
//! The pipeline has a compile-time half and a run-time half, one file
//! per phase:
//!
//! * [`analyze`] (tape-compile time) recognizes a straight-line stencil
//!   point body and produces the [`RunSpec`] defined here, and
//!   recognizes a *row nest* — a loop over the rows of a tile whose
//!   body only steps run-specialized loops — producing a [`NestSpec`];
//! * [`plan`] (each time the loop executes) resolves the run's accesses
//!   and classifies every op as streamed or recurrent, into a
//!   [`plan::RunPlan`]; each loop keeps its two most recent plans,
//!   keyed by run length;
//! * [`exec`] runs that plan chunk by chunk, bit-identical to the
//!   point-by-point interpreter.
//!
//! A run is short — 4 points per row at the benchmark's `[4,4]` SOR
//! tiles — and its set-up (two probe passes, a checked resolve of every
//! access entry, a plan look-up) cost 37–50 % of such a sweep. A row
//! nest pays that set-up once per tile: the nest probes the first two
//! rows, resolves each entry once with the nest's corners
//! bounds-checked, looks each plan up once, and then runs the rows back
//! to back, advancing each base by its row delta. It declines to the
//! per-row path for fewer than two rows, inner runs shorter than
//! [`MIN_RUN`], and accesses that share an allocation with different
//! row deltas (see `BcCtx::exec_nest` in the bytecode engine).

mod analyze;
pub(crate) mod exec;
pub(crate) mod plan;

pub(crate) use analyze::{analyze, analyze_nest, NESTED_LOOP};

use crate::bytecode::{FOp, FUn, IOp};

/// Iteration-count threshold below which a run stays on the generic
/// loop (probing two iterations plus planning doesn't pay for itself).
pub(crate) const MIN_RUN: usize = 4;

/// Iterations processed per streamed chunk. Also the compile-time
/// stride between stripe rows, so streamed loops index with a constant
/// multiplier. 256 iterations × one `f64` stripe per streamed op keeps
/// the working set inside L1/L2 for realistic bodies.
pub(crate) const CHUNK: usize = 256;

/// A float operand of a run body operation, resolved at analysis time.
/// Operands of *wide* ops (lanes > 1) denote whole lane groups; scalar
/// consumers address individual lanes through [`FRef::Lane`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum FRef {
    /// A float register whose value is invariant across the run (outer
    /// definition, or produced once by the probe tape's constants).
    Inv(u32),
    /// Run-invariant value(s) in the vector register file starting at
    /// this v-slot: an in-body `ConstV` (materialized by the probe) or a
    /// vector defined outside the body. Width comes from the consumer.
    VInv(u32),
    /// The value produced by `ops[i]` of the same iteration (all lanes
    /// when `ops[i]` is wide).
    Op(u16),
    /// One lane of the wide value produced by `ops[i]` (a `VExtract`,
    /// folded away at analysis time).
    Lane(u16, u16),
}

/// One operation of the specialized run body, in original body order.
/// `lanes == 1` is the scalar case; `lanes > 1` ops process a whole
/// vector-IR lane group per iteration ("wide" ops, §2.4 partial
/// vectorization).
#[derive(Clone, Debug)]
pub(crate) enum RunOp {
    /// Load; `acc` indexes the first of `lanes` consecutive per-run
    /// access plans (lane `l` reads one element further along the
    /// innermost dimension).
    Load {
        buf: u32,
        idx: Box<[u32]>,
        acc: u16,
        lanes: u16,
    },
    /// Store of `src` (all lanes of it when wide).
    Store {
        buf: u32,
        idx: Box<[u32]>,
        src: FRef,
        acc: u16,
        lanes: u16,
    },
    Bin {
        op: FOp,
        a: FRef,
        b: FRef,
        lanes: u16,
    },
    Un {
        op: FUn,
        a: FRef,
        lanes: u16,
    },
    Fma {
        a: FRef,
        b: FRef,
        c: FRef,
        lanes: u16,
    },
    /// `VBroadcast`: replicates the scalar `a` across `lanes` lanes.
    Splat {
        a: FRef,
        lanes: u16,
    },
}

impl RunOp {
    pub(crate) fn lanes(&self) -> u16 {
        match self {
            RunOp::Load { lanes, .. }
            | RunOp::Store { lanes, .. }
            | RunOp::Bin { lanes, .. }
            | RunOp::Un { lanes, .. }
            | RunOp::Fma { lanes, .. }
            | RunOp::Splat { lanes, .. } => *lanes,
        }
    }
}

/// One pre-decoded instruction of a run's probe program — the body's
/// integer/constant subset (`const`s, affine index arithmetic,
/// `memref.dim`), flattened out of `Instr` form so executing it is a
/// dispatch over six small variants instead of the full tape
/// interpreter.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ProbeOp {
    CF { dst: u32, v: f64 },
    CI { dst: u32, v: i64 },
    /// In-body `ConstV`: fills `lanes` v-slots so plan-time [`FRef::VInv`]
    /// reads observe exactly what the generic body would have written.
    CV { off: u32, lanes: u32, v: f64 },
    Mov { dst: u32, src: u32 },
    S2F { dst: u32, src: u32 },
    Dim { dst: u32, buf: u32, dim: u32 },
    Bin { op: IOp, dst: u32, a: u32, b: u32 },
}

/// Compile-time description of a specializable innermost loop body,
/// attached to `Instr::For`.
#[derive(Clone, Debug)]
pub(crate) struct RunSpec {
    /// Loop number, unique within the compiled program: the index of
    /// this loop's plan slot in every frame's [`plan::RunScratch`], and
    /// the id its plan-cache trace events carry.
    pub slot: u32,
    /// The body's integer/constant subset in body order, run once per
    /// loop execution (at `lb`) to resolve accesses; float constants
    /// land in their registers as a side effect.
    pub probe: Box<[ProbeOp]>,
    /// The iv-dependent subset of `probe`, re-evaluated at `lb + step`
    /// to obtain the per-iteration index deltas without re-running the
    /// run-invariant majority of the program.
    pub probe_iv: Box<[ProbeOp]>,
    /// Loads, stores and float ops in body order.
    pub ops: Box<[RunOp]>,
    /// Merged access table: what the per-run resolve loop walks. Lane-
    /// unrolled scalar accesses whose indices differ only by consecutive
    /// last-dimension constants (proved by affine value-numbering at
    /// analysis time) collapse into one wide entry, so a vf-lowered body
    /// pays per-run resolution, signature comparison, and base patching
    /// per *group*, like its scalar sibling — not per unrolled lane.
    pub accs: Box<[SpecAccess]>,
    /// Per-access-op `(table entry, lane)`: op `acc` touches
    /// `tab[entry].base + lane · tab[entry].lane_stride`.
    pub acc_map: Box<[(u16, u16)]>,
    /// Index registers of every *table entry* (lane-0 member, in table
    /// order), concatenated — lets the per-run index snapshots be one
    /// tight pass instead of a re-scan of `ops`.
    pub idx_regs: Box<[u32]>,
    /// Per-iteration dynamic-stat increments of the generic body, used
    /// to bulk-account [`crate::ExecStats`] identically to
    /// point-by-point execution. Vector counters count *instructions*
    /// (not lanes), matching the interpreter and the generic engine.
    pub loads_per_iter: u64,
    pub stores_per_iter: u64,
    pub flops_per_iter: u64,
    pub index_ops_per_iter: u64,
    pub vloads_per_iter: u64,
    pub vstores_per_iter: u64,
    pub vflops_per_iter: u64,
}

/// Compile-time description of a row nest (DESIGN.md §4f), attached to
/// the outer `Instr::For`: a loop without iter args over the rows of a
/// tile whose body is integer arithmetic affine in its own induction
/// value around one or more run-specialized loops whose bounds do not
/// depend on the row, and whose access indices are affine in the row.
/// The executor then probes, resolves and looks the plan up once per
/// nest instead of once per row.
#[derive(Clone, Debug)]
pub(crate) struct NestSpec {
    /// The outer body's integer instructions in body order, run at the
    /// first two rows to obtain the inner loops' bounds and index values
    /// (the inner loops define no register these read).
    pub outer: Box<[ProbeOp]>,
    /// Index ops the outer body counts per row, bulk-added per nest.
    pub index_ops_per_row: u64,
}

/// One entry of the merged access table: the lane-0 member's index
/// registers plus the total lane count the entry covers (a genuinely
/// wide access contributes its own width; a merged group of `g`
/// accesses of width `w` at consecutive last-dim offsets covers
/// `g · w`). Resolution bounds-checks the entry's corners, which bound
/// every member cell — the same accept/panic decision the per-op
/// resolves made.
#[derive(Clone, Debug)]
pub(crate) struct SpecAccess {
    pub buf: u32,
    pub idx: Box<[u32]>,
    pub lanes: u16,
    pub store: bool,
}
