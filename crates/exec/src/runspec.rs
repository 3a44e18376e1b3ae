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
//! The pipeline has a compile-time half and a run-time half:
//!
//! * **[`analyze`]** (tape-compile time) recognizes a straight-line
//!   stencil point body — integer index arithmetic affine in the
//!   induction variable, scalar loads/stores, pure float ops — and
//!   produces a [`RunSpec`]: the body's accesses and float ops in
//!   order, plus a *probe tape* holding the body's integer/constant
//!   subset. Anything else (nested control flow, vector ops, divisions
//!   of the induction variable, …) simply stays on the generic path.
//! * **Planning** (each time the loop executes) runs the probe tape at
//!   the first two iterations to resolve every access to
//!   `base + t·delta` flat-address form, bounds-checks both run
//!   endpoints through the checked [`BufferView`] path (indices are
//!   affine in `t`, so the endpoints bound every iteration), and
//!   classifies each operation:
//!   - a load is **streamable** when no store of the body can write a
//!     location the load would have observed differently under the
//!     original point-by-point order (exact arithmetic on the
//!     base/delta pairs; any imprecision falls back to *recurrent*);
//!   - a float op is streamable when all its operands are;
//!   - stores (and everything downstream of a loop-carried load, e.g.
//!     the Gauss-Seidel west neighbour) are **recurrent**.
//! * **Execution** then runs the streamed ops one *operation at a time*
//!   over a chunk of iterations — flat `f64` stripe buffers indexed by
//!   a compile-time-constant chunk stride, exactly the loops LLVM
//!   autovectorizes — and finishes each point with the short recurrent
//!   tail in original body order. Because streamed values are
//!   bit-identical to what the sequential order would have produced
//!   (that is what the hazard analysis guarantees) and the recurrent
//!   tail *is* the sequential order, results match the interpreter
//!   bit-for-bit.
//!
//! Memory is accessed through [`TileView`] — raw non-atomic words,
//! justified by Eq. (3) schedule disjointness and policed by the
//! debug-mode [`crate::buffer::overlap`] checker.
//!
//! [`BufferView`]: crate::buffer::BufferView

use crate::buffer::TileView;
use crate::bytecode::{FOp, FUn};
use instencil_obs::trace::{self, TraceKind};

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
/// `memref.dim`), flattened out of [`Instr`] form so executing it is a
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
    /// this loop's plan slot in every frame's [`RunScratch`].
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

/// One access *op* of one run execution, resolved to flat-address form.
/// A wide access is one plan: lane `l` of iteration `t` touches
/// `base + l·lane_stride + t·delta` (hazard analysis expands the lanes
/// arithmetically instead of materializing per-lane plans — resolution
/// runs once per run per op, so plan count is what the fallback-free
/// hot path pays for).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AccessPlan {
    /// Flat address of lane 0 at iteration 0.
    pub base: isize,
    /// Flat-address step per iteration.
    pub delta: isize,
    /// Flat stride between adjacent lanes (0 for scalar accesses).
    pub lane_stride: isize,
    /// Lane count (1 for scalar accesses).
    pub lanes: u16,
    /// Raw storage handle.
    pub tile: TileView,
    /// Position of the access in `ops` (body order, for hazard
    /// direction).
    pub pos: u32,
    /// Whether this access is a store.
    pub store: bool,
}

/// Source operand of a streamed (op-at-a-time) operation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SSrc {
    /// Arena elements: iteration `t`, lane `l` reads `off + t·step + l`.
    /// Scalar stripe rows have `step == 1`; wide rows `step == lanes`;
    /// a single lane of a wide row is `off = row + lane` with the row's
    /// step (and `l == 0` at the scalar consumer). Wide consumers only
    /// ever see lane-aligned sources (`step == lanes`) or lane-constant
    /// cells (`step == 0`, `lanes` consecutive values), which is what
    /// makes the unified read formula correct for every combination.
    Row { off: u32, step: u32 },
    /// Run-invariant scalar, broadcast across iterations and lanes.
    Const(f64),
}

/// One streamed operation: writes the stripe row at element offset
/// `row` (`m·lanes` elements, lane-major within each iteration) for a
/// whole chunk.
#[derive(Clone, Debug)]
pub(crate) enum SOp {
    Load {
        row: u32,
        lanes: u16,
        /// Flat stride between adjacent lanes (innermost-dimension
        /// element stride of the tile; 1 for dense rows).
        lane_stride: isize,
        base: isize,
        delta: isize,
        tile: TileView,
        /// First access-plan index of the op's `lanes` consecutive
        /// plans, for base patching on plan-cache hits.
        acc: u16,
    },
    Bin {
        op: FOp,
        row: u32,
        lanes: u16,
        a: SSrc,
        b: SSrc,
    },
    Un {
        op: FUn,
        row: u32,
        lanes: u16,
        a: SSrc,
    },
    Fma {
        row: u32,
        lanes: u16,
        a: SSrc,
        b: SSrc,
        c: SSrc,
    },
    /// `VBroadcast`: fills each iteration's `lanes` row elements with
    /// the scalar source value of that iteration.
    Splat {
        row: u32,
        lanes: u16,
        a: SSrc,
    },
    /// A binary op whose two operands are load rows consumed by nothing
    /// else: the staging copies are skipped and both tiles are read
    /// directly in one fused pass (see [`fuse_stream_loads`]). Wide ops
    /// fuse only *dense* loads (`lane_stride == 1`, `delta == lanes`),
    /// so element `e = t·lanes + l` always reads `base + t0·delta + e·s`
    /// with `s = delta` when scalar and `s = 1` when wide.
    BinLoads {
        op: FOp,
        row: u32,
        lanes: u16,
        a_base: isize,
        a_delta: isize,
        a_tile: TileView,
        a_acc: u16,
        b_base: isize,
        b_delta: isize,
        b_tile: TileView,
        b_acc: u16,
    },
}

/// Source operand of a recurrent (point-at-a-time) operation: an arena
/// offset plus a per-iteration step — lane `l` of in-chunk iteration
/// `t` reads `off + t·step + l`. Scalar stripe rows step by 1, wide
/// rows by their lane count; recurrent values and materialized
/// constants are read at a fixed offset (step 0, wide consumers see
/// `lanes` consecutive cells). Resolving the operand kind at plan time
/// leaves no dispatch on the per-point path — each read is one indexed
/// load.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RRef {
    pub off: u32,
    pub step: u32,
}

/// One link of a fused [`ROp::Chain`]: applies `op` between the
/// running accumulator and `other`, with `acc_rhs` preserving which
/// side of the original (non-commutative) operation the accumulator
/// was on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChainLink {
    pub op: FOp,
    pub other: RRef,
    pub acc_rhs: bool,
}

/// One recurrent operation, executed in body order for every point.
/// Value-producing ops write the arena at `dst` (the vals region;
/// `lanes` consecutive cells when wide).
#[derive(Clone, Debug)]
pub(crate) enum ROp {
    Load {
        dst: u32,
        lanes: u16,
        /// Flat stride between adjacent lanes.
        lane_stride: isize,
        base: isize,
        delta: isize,
        tile: TileView,
        /// First access-plan index of the op's `lanes` plans, for base
        /// patching on plan-cache hits.
        acc: u16,
    },
    /// Steady-state replacement for a `Load` that re-reads the value
    /// stored one iteration earlier by this run's own store (offset
    /// ratio k = −1 in `hazard` terms): the arena still holds that
    /// value, so the memory round-trip is a copy.
    Carry {
        dst: u32,
        src: u32,
    },
    Store {
        src: RRef,
        lanes: u16,
        /// Flat stride between adjacent lanes.
        lane_stride: isize,
        base: isize,
        delta: isize,
        tile: TileView,
        /// First access-plan index of the op's `lanes` plans, for base
        /// patching on plan-cache hits.
        acc: u16,
    },
    Bin {
        op: FOp,
        dst: u32,
        lanes: u16,
        a: RRef,
        b: RRef,
    },
    Un {
        op: FUn,
        dst: u32,
        lanes: u16,
        a: RRef,
    },
    Fma {
        dst: u32,
        lanes: u16,
        a: RRef,
        b: RRef,
        c: RRef,
    },
    /// `VBroadcast`: writes `lanes` consecutive vals cells from the
    /// scalar source.
    Splat {
        dst: u32,
        lanes: u16,
        a: RRef,
    },
    /// A fused run of consecutive `Bin` ops threading one accumulator
    /// (each intermediate result consumed only by the next op): the
    /// accumulator lives in a register for the whole sequence and only
    /// the final value is written back — one dispatch instead of one
    /// per op. Operand order and operation order are exactly those of
    /// the unfused ops, so the result is bit-identical.
    Chain {
        dst: u32,
        init: RRef,
        links: Box<[ChainLink]>,
    },
    /// A [`ROp::Chain`] whose final value is also the source of the
    /// immediately following store: the store rides along in the same
    /// dispatch. The value is still written to `dst` — the next
    /// iteration's forwarded operands read it there.
    ChainStore {
        dst: u32,
        init: RRef,
        links: Box<[ChainLink]>,
        base: isize,
        delta: isize,
        tile: TileView,
        /// Access-plan index, for base patching on plan-cache hits.
        acc: u16,
    },
    /// The vf-lowered serial chain: `w` [`ROp::ChainStore`]s forming one
    /// lane-unrolled recurrence — lane `k`'s chain consumes lane
    /// `k − 1`'s value (lane 0 consumes lane `w − 1`'s from the previous
    /// iteration). Fused so the carried value crosses lane boundaries in
    /// a register: one dispatch per chunk instead of `w` per iteration.
    /// Lane order, operation order, and operand sides are exactly those
    /// of the unfused tape, so results stay bit-identical.
    ChainStoreW {
        lanes: Box<[WLane]>,
        /// Arena cell holding the carried value between chunks (the
        /// last lane's `dst`; lane 0's carry operand reads it).
        carry_cell: u32,
    },
}

/// One lane of a [`ROp::ChainStoreW`]: a full chain-store, plus the
/// link position whose operand is the carried value (served from the
/// running register instead of the arena).
#[derive(Clone, Debug)]
pub(crate) struct WLane {
    pub dst: u32,
    pub init: RRef,
    pub links: Box<[ChainLink]>,
    pub carry_at: u16,
    pub base: isize,
    pub delta: isize,
    pub tile: TileView,
    /// Access-plan index, for base patching on plan-cache hits.
    pub acc: u16,
}

/// Reusable per-frame run state: one [`RunPlan`] slot per specialized
/// loop of the program, indexed by [`RunSpec::slot`] (the loop number
/// the bytecode compiler assigns), plus the per-run index snapshots.
/// Lives in the register file so repeated runs (every tile row of every
/// block) reuse the allocations; cloning a frame for a wavefront worker
/// hands out *empty* scratch instead of copying plans that are only
/// valid mid-run. The engine additionally pools scratch across calls:
/// each slot's plan re-validates by run length, aliasing signature, and
/// invariant values before any cached state is trusted (and
/// [`patch_bases`] refreshes every pointer from the current frame), so a
/// warm scratch from a previous call turns the per-call cold plan build
/// into a patch-only hit. Because every loop owns its slot, the loops of
/// one tile body (a fused producer and its consumer) never evict each
/// other's plans.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    /// Index values of the probe at iteration 0 / iteration 1.
    pub idx0: Vec<i64>,
    pub idx1: Vec<i64>,
    /// Plan slots, grown on first use of a loop number.
    pub slots: Vec<RunPlan>,
    /// Plans built (cache misses) and reused (cache hits) since the
    /// engine last drained these counters into its collector.
    pub builds: u64,
    pub reuses: u64,
}

impl Clone for RunScratch {
    fn clone(&self) -> Self {
        RunScratch::default()
    }
}

/// The cached plan of one specialized loop, and the scratch that builds
/// it.
#[derive(Debug, Default)]
pub(crate) struct RunPlan {
    /// The loop failed probing or buffer resolution in this frame. The
    /// generic path is always a correct (just slower) fallback, so once a
    /// loop declines at run time it stops paying the probe + snapshot
    /// cost on every subsequent execution.
    pub declined: bool,
    /// Resolved plans of the merged access table, in table order — the
    /// per-run artifact (`pos` holds the table index). Signature
    /// comparison and base patching run over these few entries.
    pub tab: Vec<AccessPlan>,
    /// Expanded per-op access plans, indexed by
    /// `RunOp::{Load,Store}::acc` — rebuilt from `tab` only on plan
    /// cache misses (classification, forwarding, and hazard analysis
    /// consume exactly what per-op resolution used to produce). Stale
    /// on cache hits: every hit-path consumer goes through `tab`.
    pub acc: Vec<AccessPlan>,
    /// Streamed plan of the current run.
    pub stream: Vec<SOp>,
    /// Recurrent plan: `rec_first` is the faithful body tape (the
    /// forwarding analysis input — never executed); `rec_steady` is the
    /// executed tape, valid from t = 0 once `prelude` seeds the k = −1
    /// forward cells with their loads' pre-run memory values.
    pub rec_first: Vec<ROp>,
    pub rec_steady: Vec<ROp>,
    /// (cell, access-plan index) pairs: before the first chunk,
    /// `arena[cell] = tile[base]` materializes what the forwarded k = −1
    /// load would have read at t = 0.
    pub prelude: Vec<(u32, u16)>,
    /// Per-op streamed flag, stripe-row element offset, and vals-region
    /// element offset (rows are `lanes·CHUNK` elements wide, vals cells
    /// `lanes` wide, so both are prefix sums rather than plain indices).
    streamed: Vec<bool>,
    row_of: Vec<u32>,
    vals_of: Vec<u32>,
    /// Shared f64 arena: the streamed ops' stripe rows, then the
    /// per-op vals cells, then materialized constants. All recurrent
    /// operands resolve to offsets into this one slice.
    pub arena: Vec<f64>,
    /// Plan cache: the run length the current `stream`/`rec` were built
    /// for (0 = none), the per-entry aliasing signature (see
    /// [`EntrySig`]), the entries that open an allocation class
    /// (`reps`), and the materialized invariant values (from the float
    /// and vector register files). When the next run matches,
    /// classification is provably identical and only the flat bases
    /// need patching — the common case for every row of every tile.
    n: usize,
    sig: Vec<EntrySig>,
    reps: Vec<u16>,
    inv_vals: Vec<(u32, f64)>,
    inv_vvals: Vec<(u32, f64)>,
}

/// Plan-cache key of one access-table entry: `(delta, index of the first
/// entry on the same allocation, base − that entry's base, lane
/// stride)`. Every address relation the plan depends on — the hazard
/// test and the store-to-load forwarding in [`build_steady`] — compares
/// two accesses on the same allocation only, so the key pins exactly
/// those relations and nothing absolute: a fresh per-tile temporary with
/// the same geometry hits, while two views that start or stop sharing an
/// allocation change the first-entry index and miss. [`patch_bases`]
/// refreshes every absolute base and tile handle on a hit.
type EntrySig = (isize, u16, isize, isize);

/// The [`EntrySig`] of every entry of `tab`, plus the entries that are
/// the first on their allocation.
fn table_sig(tab: &[AccessPlan], sig: &mut Vec<EntrySig>, reps: &mut Vec<u16>) {
    sig.clear();
    reps.clear();
    for (i, a) in tab.iter().enumerate() {
        let first = tab[..i]
            .iter()
            .position(|r| r.tile.id() == a.tile.id())
            .unwrap_or(i);
        if first == i {
            reps.push(i as u16);
        }
        sig.push((
            a.delta,
            first as u16,
            a.base - tab[first].base,
            a.lane_stride,
        ));
    }
}

/// Classifies every op of `spec` as streamed or recurrent for a run of
/// `n` iterations and builds the execution plans into `plan` (`plan.tab`
/// must already hold this run's resolved access table). Run-invariant
/// operands are materialized from the float (`fregs`) and vector
/// (`vregs`) register files. Returns whether the cached plan was reused.
pub(crate) fn build_plan(
    spec: &RunSpec,
    n: usize,
    fregs: &[f64],
    vregs: &[f64],
    scratch: &mut RunPlan,
) -> bool {
    let ops = &spec.ops;
    if plan_cache_hit(n, fregs, vregs, scratch) {
        patch_bases(scratch, &spec.acc_map);
        return true;
    }
    let t_compile = trace::begin();
    // Expand the merged table into per-op access plans: classification,
    // forwarding, and hazard analysis below see exactly what per-op
    // resolution used to produce (the bases are the same integers —
    // lane-0 base plus the member's lane offset).
    scratch.acc.clear();
    for (pos, op) in ops.iter().enumerate() {
        let (acc, lanes, store) = match op {
            RunOp::Load { acc, lanes, .. } => (*acc, *lanes, false),
            RunOp::Store { acc, lanes, .. } => (*acc, *lanes, true),
            _ => continue,
        };
        let (t, l) = spec.acc_map[acc as usize];
        let p = &scratch.tab[t as usize];
        scratch.acc.push(AccessPlan {
            base: p.base + l as isize * p.lane_stride,
            delta: p.delta,
            lane_stride: p.lane_stride,
            lanes,
            tile: p.tile,
            pos: pos as u32,
            store,
        });
    }
    scratch.streamed.clear();
    scratch.streamed.resize(ops.len(), false);
    scratch.row_of.clear();
    scratch.row_of.resize(ops.len(), 0);
    scratch.stream.clear();
    scratch.rec_first.clear();
    scratch.rec_steady.clear();

    // Hazard classification: a load is streamable iff no store of the
    // body can hit one of its lanes' addresses "from the past" of the
    // original interleaving (see `hazard`); a float op is streamable
    // iff all its operands are.
    for i in 0..ops.len() {
        let s = match &ops[i] {
            RunOp::Load { acc, .. } => {
                let load = scratch.acc[*acc as usize];
                !scratch
                    .acc
                    .iter()
                    .any(|store| store.store && hazard(&load, store, n))
            }
            RunOp::Store { .. } => false,
            RunOp::Bin { a, b, .. } => {
                fref_streamed(*a, &scratch.streamed) && fref_streamed(*b, &scratch.streamed)
            }
            RunOp::Un { a, .. } | RunOp::Splat { a, .. } => fref_streamed(*a, &scratch.streamed),
            RunOp::Fma { a, b, c, .. } => {
                fref_streamed(*a, &scratch.streamed)
                    && fref_streamed(*b, &scratch.streamed)
                    && fref_streamed(*c, &scratch.streamed)
            }
        };
        scratch.streamed[i] = s;
    }

    // Arena layout (grow-only, element offsets): the streamed ops'
    // stripe rows (`lanes·CHUNK` elements each, plus headroom for
    // lane-varying invariant operands, which must sit *below* their
    // consumer's row for the aliasing split in the chunk loops), then
    // `lanes` vals cells per body op, then materialized scalar
    // constants. Stripes are fully written before they are read within
    // each chunk and vals/constants are rewritten below, so stale
    // contents never leak and the run-after-run case skips the memset.
    // Rows hold one chunk of iterations; short runs (narrow tiles, or
    // few vector iterations after lane division) get proportionally
    // small rows. Safe because the run length is part of the plan-cache
    // key — a cached layout is only ever reused at the same `n`.
    let chunk = CHUNK.min(n);
    let row_budget: usize = ops
        .iter()
        .enumerate()
        .filter(|(i, _)| scratch.streamed[*i])
        .map(|(_, o)| o.lanes() as usize * (chunk + 3))
        .sum();
    scratch.vals_of.clear();
    let mut v = row_budget as u32;
    for op in ops.iter() {
        scratch.vals_of.push(v);
        v += u32::from(op.lanes());
    }
    let vals_end = v as usize;
    let const_budget: usize = ops.iter().map(|o| 3 * o.lanes() as usize + 1).sum();
    let arena_len = vals_end + const_budget;
    if scratch.arena.len() < arena_len {
        scratch.arena.resize(arena_len, 0.0);
    }
    let mut next_const = vals_end;
    let mut row_cursor = 0u32;
    for (i, op) in ops.iter().enumerate() {
        if scratch.streamed[i] {
            let w = op.lanes();
            // Operand resolution may allocate lane-constant cells at
            // the row cursor; the op's own row is assigned after, so
            // every source offset stays strictly below it.
            macro_rules! s {
                ($r:expr, $w:expr) => {
                    ssrc(
                        $r,
                        $w,
                        fregs,
                        vregs,
                        &scratch.row_of,
                        ops,
                        &mut scratch.arena,
                        &mut row_cursor,
                    )
                };
            }
            let sop = match op {
                RunOp::Load { acc, lanes, .. } => {
                    let a = scratch.acc[*acc as usize];
                    SOp::Load {
                        row: 0, // patched below once the row is assigned
                        lanes: *lanes,
                        lane_stride: a.lane_stride,
                        base: a.base,
                        delta: a.delta,
                        tile: a.tile,
                        acc: *acc,
                    }
                }
                RunOp::Bin { op, a, b, lanes } => SOp::Bin {
                    op: *op,
                    row: 0,
                    lanes: *lanes,
                    a: s!(*a, *lanes),
                    b: s!(*b, *lanes),
                },
                RunOp::Un { op, a, lanes } => SOp::Un {
                    op: *op,
                    row: 0,
                    lanes: *lanes,
                    a: s!(*a, *lanes),
                },
                RunOp::Fma { a, b, c, lanes } => SOp::Fma {
                    row: 0,
                    lanes: *lanes,
                    a: s!(*a, *lanes),
                    b: s!(*b, *lanes),
                    c: s!(*c, *lanes),
                },
                RunOp::Splat { a, lanes } => SOp::Splat {
                    row: 0,
                    lanes: *lanes,
                    a: s!(*a, 1),
                },
                RunOp::Store { .. } => unreachable!("stores are never streamed"),
            };
            let row = row_cursor;
            row_cursor += u32::from(w) * chunk as u32;
            scratch.row_of[i] = row;
            let mut sop = sop;
            match &mut sop {
                SOp::Load { row: r, .. }
                | SOp::Bin { row: r, .. }
                | SOp::Un { row: r, .. }
                | SOp::Fma { row: r, .. }
                | SOp::Splat { row: r, .. } => *r = row,
                SOp::BinLoads { .. } => unreachable!("fusion runs later"),
            }
            scratch.stream.push(sop);
        } else {
            macro_rules! r {
                ($r:expr, $w:expr) => {
                    rref(
                        $r,
                        $w,
                        fregs,
                        vregs,
                        &scratch.streamed,
                        &scratch.row_of,
                        &scratch.vals_of,
                        ops,
                        &mut scratch.arena,
                        &mut next_const,
                    )
                };
            }
            let dst = scratch.vals_of[i];
            let rop = match op {
                RunOp::Load { acc, lanes, .. } => {
                    let a = scratch.acc[*acc as usize];
                    ROp::Load {
                        dst,
                        lanes: *lanes,
                        lane_stride: a.lane_stride,
                        base: a.base,
                        delta: a.delta,
                        tile: a.tile,
                        acc: *acc,
                    }
                }
                RunOp::Store { src, acc, lanes, .. } => {
                    let a = scratch.acc[*acc as usize];
                    ROp::Store {
                        src: r!(*src, *lanes),
                        lanes: *lanes,
                        lane_stride: a.lane_stride,
                        base: a.base,
                        delta: a.delta,
                        tile: a.tile,
                        acc: *acc,
                    }
                }
                RunOp::Bin { op, a, b, lanes } => ROp::Bin {
                    op: *op,
                    dst,
                    lanes: *lanes,
                    a: r!(*a, *lanes),
                    b: r!(*b, *lanes),
                },
                RunOp::Un { op, a, lanes } => ROp::Un {
                    op: *op,
                    dst,
                    lanes: *lanes,
                    a: r!(*a, *lanes),
                },
                RunOp::Fma { a, b, c, lanes } => ROp::Fma {
                    dst,
                    lanes: *lanes,
                    a: r!(*a, *lanes),
                    b: r!(*b, *lanes),
                    c: r!(*c, *lanes),
                },
                RunOp::Splat { a, lanes } => ROp::Splat {
                    dst,
                    lanes: *lanes,
                    a: r!(*a, 1),
                },
            };
            scratch.rec_first.push(rop);
        }
    }
    debug_assert!(row_cursor as usize <= row_budget);
    fuse_stream_loads(scratch);
    build_steady(scratch, n, row_budget, vals_end);
    // Record the cache signature for the next run of this loop: the run
    // length plus, per merged-table entry, the aliasing key of
    // [`EntrySig`] (per-op signatures are an affine expansion of the
    // entry signatures, so entry-level equality implies op-level
    // equality). No allocation address enters the key, so each row of
    // each fused tile, with its fresh temporary, hits.
    scratch.n = n;
    table_sig(&scratch.tab, &mut scratch.sig, &mut scratch.reps);
    scratch.inv_vals.clear();
    scratch.inv_vvals.clear();
    // Registers whose value at plan time is a literal the probe itself
    // just wrote (`CF`/`CV`, not later overwritten by `S2F`): the probe
    // reruns before every plan, so these can never drift from the
    // snapshot — recording them would re-verify a tautology on every
    // cache hit, per consumer and per lane.
    let mut fconst: HashSet<u32> = HashSet::new();
    let mut vconst: HashSet<u32> = HashSet::new();
    for p in spec.probe.iter() {
        match p {
            ProbeOp::CF { dst, .. } => {
                fconst.insert(*dst);
            }
            ProbeOp::S2F { dst, .. } => {
                fconst.remove(dst);
            }
            ProbeOp::CV { off, lanes, .. } => {
                for l in 0..*lanes {
                    vconst.insert(*off + l);
                }
            }
            _ => {}
        }
    }
    for op in ops.iter() {
        let lanes = op.lanes();
        let mut note = |r: &FRef, w: u16| match r {
            FRef::Inv(reg) => {
                if !fconst.contains(reg) {
                    scratch.inv_vals.push((*reg, fregs[*reg as usize]));
                }
            }
            FRef::VInv(off) => {
                for l in 0..u32::from(w) {
                    if !vconst.contains(&(*off + l)) {
                        scratch
                            .inv_vvals
                            .push((*off + l, vregs[(*off + l) as usize]));
                    }
                }
            }
            FRef::Op(_) | FRef::Lane(..) => {}
        };
        match op {
            RunOp::Bin { a, b, .. } => {
                note(a, lanes);
                note(b, lanes);
            }
            RunOp::Un { a, .. } => note(a, lanes),
            RunOp::Fma { a, b, c, .. } => {
                note(a, lanes);
                note(b, lanes);
                note(c, lanes);
            }
            RunOp::Store { src, .. } => note(src, lanes),
            RunOp::Splat { a, .. } => note(a, 1),
            RunOp::Load { .. } => {}
        }
    }
    // An invariant register read by several consumers needs verifying
    // once, not per consumer.
    scratch.inv_vals.sort_unstable_by_key(|&(r, _)| r);
    scratch.inv_vals.dedup_by_key(|&mut (r, _)| r);
    scratch.inv_vvals.sort_unstable_by_key(|&(r, _)| r);
    scratch.inv_vvals.dedup_by_key(|&mut (r, _)| r);
    trace::end(
        TraceKind::PlanCompile,
        t_compile,
        (spec as *const RunSpec as usize >> 4) as u32,
        n as u32,
    );
    false
}

/// Fuses `Bin(Slot(x), Slot(y))` with the loads producing rows `x` and
/// `y` into one [`SOp::BinLoads`] when this op is the rows' only
/// consumer — in the stream and in the recurrent tapes. The two staging
/// passes over the chunk disappear; the fused loop reads both tiles
/// directly, which is the same read the staging copy would have done.
fn fuse_stream_loads(scratch: &mut RunPlan) {
    // Any read touching an element of `[row, row + lanes)` consumes the
    // row (lane refs carry `row + lane` offsets; lane-constant cells
    // never alias a load's row by construction).
    let in_row = |off: u32, row: u32, lanes: u16| off >= row && off < row + u32::from(lanes);
    let rec_reads = |row: u32, lanes: u16| {
        let rr = |r: &RRef| r.step != 0 && in_row(r.off, row, lanes);
        scratch.rec_first.iter().any(|op| match op {
            ROp::Load { .. } | ROp::Carry { .. } => false,
            ROp::Store { src, .. } => rr(src),
            ROp::Bin { a, b, .. } => rr(a) || rr(b),
            ROp::Un { a, .. } | ROp::Splat { a, .. } => rr(a),
            ROp::Fma { a, b, c, .. } => rr(a) || rr(b) || rr(c),
            ROp::Chain { .. } | ROp::ChainStore { .. } | ROp::ChainStoreW { .. } => {
                unreachable!("stream fusion runs before build_steady")
            }
        })
    };
    for k in 0..scratch.stream.len() {
        let SOp::Bin {
            op,
            row,
            lanes,
            a: SSrc::Row { off: x, step: sx },
            b: SSrc::Row { off: y, step: sy },
        } = scratch.stream[k]
        else {
            continue;
        };
        // Both operands must be whole aligned rows of the same width as
        // the consumer (step == lanes and offset at a load's row start).
        if sx != u32::from(lanes) || sy != u32::from(lanes) {
            continue;
        }
        let reads = |s: &SSrc, row: u32| matches!(s, SSrc::Row { off, .. } if in_row(*off, row, lanes));
        let other_consumer = |r: u32| {
            scratch.stream.iter().enumerate().any(|(j, op)| match op {
                SOp::Load { .. } | SOp::BinLoads { .. } => false,
                SOp::Bin { a, b, .. } => j != k && (reads(a, r) || reads(b, r)),
                SOp::Un { a, .. } | SOp::Splat { a, .. } => reads(a, r),
                SOp::Fma { a, b, c, .. } => reads(a, r) || reads(b, r) || reads(c, r),
            }) || rec_reads(r, lanes)
        };
        // A wide fused load must be dense (contiguous lanes, row-major
        // advance) so the fused loop reads `m·lanes` consecutive
        // elements; scalar loads may stride arbitrarily.
        let load_of = |r: u32| {
            scratch.stream.iter().position(|op| {
                matches!(op, SOp::Load { row, lanes: ll, lane_stride, delta, .. }
                    if *row == r
                        && *ll == lanes
                        && (lanes == 1 || (*lane_stride == 1 && *delta == lanes as isize)))
            })
        };
        let (Some(la), Some(lb)) = (load_of(x), load_of(y)) else {
            continue;
        };
        if other_consumer(x) || (y != x && other_consumer(y)) {
            continue;
        }
        let SOp::Load {
            base: a_base,
            delta: a_delta,
            tile: a_tile,
            acc: a_acc,
            ..
        } = scratch.stream[la]
        else {
            unreachable!()
        };
        let SOp::Load {
            base: b_base,
            delta: b_delta,
            tile: b_tile,
            acc: b_acc,
            ..
        } = scratch.stream[lb]
        else {
            unreachable!()
        };
        scratch.stream[k] = SOp::BinLoads {
            op,
            row,
            lanes,
            a_base,
            a_delta,
            a_tile,
            a_acc,
            b_base,
            b_delta,
            b_tile,
            b_acc,
        };
        // Drop the now-unconsumed loads (their slots stay allocated,
        // simply unwritten). Remove the higher index first.
        let (hi, lo) = (la.max(lb), la.min(lb));
        scratch.stream.remove(hi);
        if hi != lo {
            scratch.stream.remove(lo);
        }
        return fuse_stream_loads(scratch); // indices shifted; rescan
    }
}

/// Whether the cached plan in `scratch` is valid for this run: same
/// length, same per-entry [`EntrySig`] (⇒ identical hazard
/// classification and forwarding), and unchanged invariant operand
/// values. The signature test needs no rescan for first entries: each
/// entry must share its allocation with the cached first entry of its
/// class at the cached offset, and the class leaders must sit on
/// pairwise distinct allocations — together exactly the cached
/// partition of the table into allocations.
fn plan_cache_hit(n: usize, fregs: &[f64], vregs: &[f64], scratch: &RunPlan) -> bool {
    let tab = &scratch.tab;
    if scratch.n != n {
        return false;
    }
    let same_class = tab
        .iter()
        .zip(&scratch.sig)
        .all(|(a, &(delta, first, off, ls))| {
            let r = &tab[first as usize];
            a.delta == delta
                && a.lane_stride == ls
                && a.tile.id() == r.tile.id()
                && a.base - r.base == off
        });
    let reps = &scratch.reps;
    if !same_class
        || reps.iter().enumerate().any(|(k, &i)| {
            reps[..k]
                .iter()
                .any(|&j| tab[j as usize].tile.id() == tab[i as usize].tile.id())
        })
    {
        return false;
    }
    scratch
        .inv_vals
        .iter()
        .all(|&(reg, v)| fregs[reg as usize].to_bits() == v.to_bits())
        && scratch
            .inv_vvals
            .iter()
            .all(|&(off, v)| vregs[off as usize].to_bits() == v.to_bits())
}

/// Rewrites the flat base addresses *and tile handles* of the cached
/// plan to this run's resolved accesses (everything else —
/// classification, slots, deltas, constants — is unchanged by
/// construction on a cache hit). Tiles must be refreshed too: the
/// signature fixes only how the accesses share allocations, not which
/// allocations they are (each fused tile brings a fresh temporary), and
/// scratch outlives single calls (the engine pools it across frames),
/// so the cached `TileView` copies may be handles to buffers that are
/// gone. After patching, every pointer the hit path dereferences comes
/// from the current frame's live buffer registers.
fn patch_bases(scratch: &mut RunPlan, map: &[(u16, u16)]) {
    let tab = &scratch.tab;
    let b = |a: u16| {
        let (t, l) = map[a as usize];
        let p = &tab[t as usize];
        (p.base + l as isize * p.lane_stride, p.tile)
    };
    for op in &mut scratch.stream {
        match op {
            SOp::Load {
                base, tile, acc: a, ..
            } => (*base, *tile) = b(*a),
            SOp::BinLoads {
                a_base,
                a_tile,
                a_acc,
                b_base,
                b_tile,
                b_acc,
                ..
            } => {
                (*a_base, *a_tile) = b(*a_acc);
                (*b_base, *b_tile) = b(*b_acc);
            }
            _ => {}
        }
    }
    // `rec_first` is never executed (analysis input only), so only the
    // steady tape's bases need patching.
    for op in &mut scratch.rec_steady {
        match op {
            ROp::Load {
                base, tile, acc: a, ..
            }
            | ROp::Store {
                base, tile, acc: a, ..
            }
            | ROp::ChainStore {
                base, tile, acc: a, ..
            } => {
                (*base, *tile) = b(*a);
            }
            ROp::ChainStoreW { lanes, .. } => {
                for lane in lanes.iter_mut() {
                    (lane.base, lane.tile) = b(lane.acc);
                }
            }
            _ => {}
        }
    }
}

#[inline]
fn fref_streamed(r: FRef, streamed: &[bool]) -> bool {
    match r {
        FRef::Inv(_) | FRef::VInv(_) => true,
        FRef::Op(j) | FRef::Lane(j, _) => streamed[j as usize],
    }
}

/// Resolves a streamed operand for a consumer of width `w`.
/// Lane-varying invariant vectors are materialized as `w` cells at the
/// row cursor — strictly below the consumer's (not yet assigned) row,
/// which keeps the `dst_row` aliasing split valid.
#[inline]
#[allow(clippy::too_many_arguments)]
fn ssrc(
    r: FRef,
    w: u16,
    fregs: &[f64],
    vregs: &[f64],
    row_of: &[u32],
    ops: &[RunOp],
    arena: &mut [f64],
    row_cursor: &mut u32,
) -> SSrc {
    match r {
        FRef::Inv(reg) => SSrc::Const(fregs[reg as usize]),
        FRef::VInv(off) => {
            let v = &vregs[off as usize..off as usize + w as usize];
            if v.iter().all(|x| x.to_bits() == v[0].to_bits()) {
                SSrc::Const(v[0])
            } else {
                let at = *row_cursor as usize;
                arena[at..at + w as usize].copy_from_slice(v);
                *row_cursor += u32::from(w);
                SSrc::Row {
                    off: at as u32,
                    step: 0,
                }
            }
        }
        FRef::Op(j) => SSrc::Row {
            off: row_of[j as usize],
            step: u32::from(ops[j as usize].lanes()),
        },
        FRef::Lane(j, lane) => SSrc::Row {
            off: row_of[j as usize] + u32::from(lane),
            step: u32::from(ops[j as usize].lanes()),
        },
    }
}

/// Resolves a recurrent operand for a consumer of width `w` to its
/// arena offset, materializing run-invariant values (replicated to `w`
/// cells for wide consumers) into the constants tail.
#[inline]
#[allow(clippy::too_many_arguments)]
fn rref(
    r: FRef,
    w: u16,
    fregs: &[f64],
    vregs: &[f64],
    streamed: &[bool],
    row_of: &[u32],
    vals_of: &[u32],
    ops: &[RunOp],
    arena: &mut [f64],
    next_const: &mut usize,
) -> RRef {
    match r {
        FRef::Inv(reg) => {
            let off = *next_const;
            *next_const += w as usize;
            arena[off..off + w as usize].fill(fregs[reg as usize]);
            RRef {
                off: off as u32,
                step: 0,
            }
        }
        FRef::VInv(voff) => {
            let off = *next_const;
            *next_const += w as usize;
            arena[off..off + w as usize]
                .copy_from_slice(&vregs[voff as usize..voff as usize + w as usize]);
            RRef {
                off: off as u32,
                step: 0,
            }
        }
        FRef::Op(j) if streamed[j as usize] => RRef {
            off: row_of[j as usize],
            step: u32::from(ops[j as usize].lanes()),
        },
        FRef::Op(j) => RRef {
            off: vals_of[j as usize],
            step: 0,
        },
        FRef::Lane(j, lane) if streamed[j as usize] => RRef {
            off: row_of[j as usize] + u32::from(lane),
            step: u32::from(ops[j as usize].lanes()),
        },
        FRef::Lane(j, lane) => RRef {
            off: vals_of[j as usize] + u32::from(lane),
            step: 0,
        },
    }
}

/// Builds the steady-state recurrent tape from `rec_first`. A scalar
/// `Load` whose address was last written by a store of this same body —
/// either one iteration earlier (k = −1) or earlier in the current
/// iteration (k = 0, store before load in body order) — re-reads a
/// value the plan already holds, so it is forwarded: its consumers are
/// repointed at the store's source operand (for k = −1 only while that
/// source has not been recomputed this iteration; a k = 0 source is
/// always already this iteration's value), or the load degrades to a
/// `Carry` copy. The steady tape is valid from t = 0: each k = −1
/// forward's source cell is pre-seeded (`prelude`) with the value its
/// load would have read from pre-run memory, so no separate
/// first-iteration execution remains.
fn build_steady(scratch: &mut RunPlan, n: usize, row_budget: usize, vals_end: usize) {
    // Body-op index owning a step-0 vals cell (None for stripe rows,
    // lane-constant cells, and the constants tail — all of which hold
    // values no recurrent op rewrites mid-iteration).
    let vals_of = &scratch.vals_of;
    let owner = |off: u32| -> Option<usize> {
        let off = off as usize;
        if off < row_budget || off >= vals_end {
            return None;
        }
        let i = vals_of.partition_point(|&v| v as usize <= off) - 1;
        Some(i)
    };
    // dst offset of a forwardable load → (store source, k).
    let mut fwd: Vec<(u32, RRef, i64)> = Vec::new();
    let mut prelude: Vec<(u32, u16)> = Vec::new();
    for op in &scratch.rec_first {
        let ROp::Load { dst, lanes: 1, acc, .. } = op else {
            continue;
        };
        let la = scratch.acc[*acc as usize];
        if la.delta == 0 {
            continue;
        }
        let d = la.delta;
        // Find the sequentially latest store hitting this load's address
        // sequence. All stores on the tile must share the load's delta
        // (conservative bail otherwise); a divisible base difference
        // identifies the aliasing ones, and among those that the
        // original interleaving orders before the load, the largest
        // (k, pos) wrote last.
        let mut best: Option<(i64, u32)> = None;
        let mut bail = false;
        for sa in scratch.acc.iter() {
            if !sa.store || sa.tile.id() != la.tile.id() {
                continue;
            }
            if sa.delta != d {
                bail = true;
                break;
            }
            // A wide store is one plan; each lane is its own address
            // sequence. (A wide winner never forwards — the scalar
            // store-source lookup below only matches `lanes: 1` — but
            // its lanes still participate in picking the latest writer,
            // which keeps a scalar store from winning incorrectly.)
            for sl in 0..sa.lanes as isize {
                let diff = la.base - (sa.base + sl * sa.lane_stride);
                if diff % d != 0 {
                    continue;
                }
                let k = (diff / d) as i64;
                let reaches = (k >= -((n as i64) - 1) && k <= -1) || (k == 0 && sa.pos < la.pos);
                if reaches && best.is_none_or(|b| (k, sa.pos) > b) {
                    best = Some((k, sa.pos));
                }
            }
        }
        if bail {
            continue;
        }
        let Some((k, spos)) = best else { continue };
        if k != -1 && k != 0 {
            continue; // writer too far back: keep the real load
        }
        // The (scalar) store op at that body position; its source.
        let src = scratch.rec_first.iter().find_map(|op| match op {
            ROp::Store { src, lanes: 1, acc, .. }
                if scratch.acc[*acc as usize].pos == spos =>
            {
                Some(*src)
            }
            _ => None,
        });
        let Some(src) = src else { continue };
        if k == -1 {
            // The previous iteration's source value must survive into
            // this one: a step-0 cell rewritten only after the load's
            // position (or never — constants/lane cells).
            if src.step != 0 {
                continue;
            }
            match owner(src.off) {
                Some(p) if p <= la.pos as usize => continue,
                _ => {}
            }
            // At t = 0 there is no previous iteration: seed the source
            // cell with the load's own t = 0 memory value before the
            // first chunk. No store of this run writes that address
            // before the original t = 0 load would have read it (the
            // aliasing store lands there at t′ = −1; any other store
            // with k′ = 0 is ordered after the load, and k′ ≥ 1 stores
            // never reach it).
            prelude.push((src.off, *acc));
        }
        fwd.push((*dst, src, k));
    }
    let fwd_of = |off: u32| fwd.iter().find(|(d, _, _)| *d == off).map(|&(_, s, k)| (s, k));
    // A consumer at body position p may read a k = −1 source directly
    // only while it still holds the previous iteration's value, i.e.
    // when the source is produced after p. k = 0 sources already hold
    // this iteration's value at every position past the store.
    let live_at = |src: RRef, k: i64, pos: usize| {
        k == 0 || src.step != 0 || owner(src.off).is_none_or(|p| p > pos)
    };
    let mut steady: Vec<ROp> = Vec::new();
    for op in &scratch.rec_first {
        let mut op = op.clone();
        let patch = |r: &mut RRef, pos: usize| {
            if r.step == 0 {
                if let Some((src, k)) = fwd_of(r.off) {
                    if live_at(src, k, pos) {
                        *r = src;
                    }
                }
            }
        };
        let pos_of_dst = |dst: u32| owner(dst).expect("recurrent dst is a vals cell");
        match &mut op {
            ROp::Load { dst, .. } => {
                if let Some((src, k)) = fwd_of(*dst) {
                    let dst = *dst;
                    // Keep a Carry if any consumer still reads vals[dst]
                    // (the redirect below was invalid for it).
                    let all_redirected = scratch.rec_first.iter().all(|c| {
                        let (refs, pos): (Vec<RRef>, usize) = match c {
                            ROp::Bin { a, b, dst, .. } => (vec![*a, *b], pos_of_dst(*dst)),
                            ROp::Un { a, dst, .. } | ROp::Splat { a, dst, .. } => {
                                (vec![*a], pos_of_dst(*dst))
                            }
                            ROp::Fma { a, b, c, dst, .. } => (vec![*a, *b, *c], pos_of_dst(*dst)),
                            ROp::Store { src, acc, .. } => {
                                (vec![*src], scratch.acc[*acc as usize].pos as usize)
                            }
                            ROp::Load { .. } | ROp::Carry { .. } => (vec![], 0),
                            ROp::Chain { .. }
                            | ROp::ChainStore { .. }
                            | ROp::ChainStoreW { .. } => {
                                unreachable!("fusion runs after build_steady")
                            }
                        };
                        refs.iter()
                            .filter(|r| r.step == 0 && r.off == dst)
                            .all(|_| live_at(src, k, pos))
                    });
                    if all_redirected {
                        continue; // load disappears from the steady tape
                    }
                    if src.step != 0 {
                        // A row-sourced k = 0 forward has no scalar cell
                        // to Carry from; keep the load for the laggards.
                        steady.push(op);
                        continue;
                    }
                    steady.push(ROp::Carry { dst, src: src.off });
                    continue;
                }
            }
            ROp::Bin { a, b, dst, .. } => {
                let pos = pos_of_dst(*dst);
                patch(a, pos);
                patch(b, pos);
            }
            ROp::Un { a, dst, .. } | ROp::Splat { a, dst, .. } => {
                let pos = pos_of_dst(*dst);
                patch(a, pos);
            }
            ROp::Fma { a, b, c, dst, .. } => {
                let pos = pos_of_dst(*dst);
                patch(a, pos);
                patch(b, pos);
                patch(c, pos);
            }
            ROp::Store { src, acc, .. } => {
                let pos = scratch.acc[*acc as usize].pos as usize;
                patch(src, pos);
            }
            ROp::Carry { .. } => {}
            ROp::Chain { .. } | ROp::ChainStore { .. } | ROp::ChainStoreW { .. } => {
                unreachable!("fusion runs after build_steady")
            }
        }
        steady.push(op);
    }
    fuse_chains(&mut steady);
    scratch.prelude = prelude;
    scratch.rec_steady = steady;
}

/// Fuses maximal runs of consecutive `Bin` ops where each op's result
/// is read exactly once, by the immediately following op, into
/// [`ROp::Chain`] superinstructions (Ertl & Gregg-style: amortize
/// dispatch over the whole dependent sequence). Intermediate arena
/// writes disappear with their only reader.
fn fuse_chains(steady: &mut Vec<ROp>) {
    let mut reads: HashMap<u32, u32> = HashMap::new();
    let mut note = |r: &RRef| {
        if r.step == 0 {
            *reads.entry(r.off).or_insert(0) += 1;
        }
    };
    for op in steady.iter() {
        match op {
            ROp::Bin { a, b, .. } => {
                note(a);
                note(b);
            }
            ROp::Un { a, .. } => note(a),
            ROp::Fma { a, b, c, .. } => {
                note(a);
                note(b);
                note(c);
            }
            ROp::Store { src, .. } => note(src),
            ROp::Splat { a, .. } => note(a),
            ROp::Carry { src, .. } => note(&RRef { off: *src, step: 0 }),
            ROp::Load { .. } => {}
            ROp::Chain { .. } | ROp::ChainStore { .. } | ROp::ChainStoreW { .. } => {
                unreachable!("fusion runs once")
            }
        }
    }
    let single_use = |off: u32| reads.get(&off).copied() == Some(1);
    let mut out: Vec<ROp> = Vec::with_capacity(steady.len());
    let mut i = 0;
    while i < steady.len() {
        let ROp::Bin {
            op,
            dst,
            lanes: 1,
            a,
            b,
        } = steady[i]
        else {
            out.push(steady[i].clone());
            i += 1;
            continue;
        };
        let mut links = vec![ChainLink {
            op,
            other: b,
            acc_rhs: false,
        }];
        let mut cur = dst;
        let mut j = i;
        while let Some(ROp::Bin {
            op: nop,
            dst: ndst,
            lanes: 1,
            a: na,
            b: nb,
        }) = steady.get(j + 1)
        {
            if !single_use(cur) {
                break;
            }
            if na.step == 0 && na.off == cur {
                links.push(ChainLink {
                    op: *nop,
                    other: *nb,
                    acc_rhs: false,
                });
            } else if nb.step == 0 && nb.off == cur {
                links.push(ChainLink {
                    op: *nop,
                    other: *na,
                    acc_rhs: true,
                });
            } else {
                break;
            }
            cur = *ndst;
            j += 1;
        }
        if j > i {
            out.push(ROp::Chain {
                dst: cur,
                init: a,
                links: links.into(),
            });
            i = j + 1;
        } else {
            out.push(steady[i].clone());
            i += 1;
        }
    }
    // Second pass: a store that immediately follows the chain producing
    // its source value rides along in the chain's dispatch.
    let mut merged: Vec<ROp> = Vec::with_capacity(out.len());
    let mut it = out.into_iter().peekable();
    while let Some(op) = it.next() {
        if let ROp::Chain { dst, init, links } = &op {
            if let Some(ROp::Store {
                src,
                lanes: 1,
                base,
                delta,
                tile,
                acc,
                ..
            }) = it.peek()
            {
                if src.step == 0 && src.off == *dst {
                    merged.push(ROp::ChainStore {
                        dst: *dst,
                        init: *init,
                        links: links.clone(),
                        base: *base,
                        delta: *delta,
                        tile: *tile,
                        acc: *acc,
                    });
                    it.next();
                    continue;
                }
            }
        }
        merged.push(op);
    }
    // Third pass: a steady tape that is nothing but `w` chain-stores
    // forming one lane-unrolled serial recurrence (the §2.4 partial
    // vectorization shape: lane k's chain consumes lane k − 1's value,
    // lane 0 consumes lane w − 1's previous-iteration value) fuses into
    // a single wide chain-store whose carry lives in a register.
    if let Some(wide) = fuse_wide_chain(&merged) {
        merged = vec![wide];
    }
    *steady = merged;
}

/// Recognizes a steady tape consisting solely of `w ≥ 2` chain-stores
/// whose only cross-references are the ring of carried values, and
/// builds the fused [`ROp::ChainStoreW`]. Returns `None` when any
/// operand besides the per-lane carry touches a chain destination (the
/// register loop would then skip an arena write some reader needs).
fn fuse_wide_chain(steady: &[ROp]) -> Option<ROp> {
    if steady.len() < 2 {
        return None;
    }
    let mut dsts = Vec::with_capacity(steady.len());
    for op in steady {
        let ROp::ChainStore { dst, links, .. } = op else {
            return None;
        };
        if links.len() > CHAIN_MAX {
            return None;
        }
        dsts.push(*dst);
    }
    let w = dsts.len();
    let is_dst = |r: &RRef| r.step == 0 && dsts.contains(&r.off);
    let mut lanes = Vec::with_capacity(w);
    for (k, op) in steady.iter().enumerate() {
        let ROp::ChainStore {
            dst,
            init,
            links,
            base,
            delta,
            tile,
            acc,
        } = op
        else {
            unreachable!()
        };
        if is_dst(init) {
            return None;
        }
        let want = dsts[(k + w - 1) % w];
        let mut carry_at = None;
        for (j, lk) in links.iter().enumerate() {
            if !is_dst(&lk.other) {
                continue;
            }
            if lk.other.off != want || carry_at.is_some() {
                return None;
            }
            carry_at = Some(j as u16);
        }
        lanes.push(WLane {
            dst: *dst,
            init: *init,
            links: links.clone(),
            carry_at: carry_at?,
            base: *base,
            delta: *delta,
            tile: *tile,
            acc: *acc,
        });
    }
    Some(ROp::ChainStoreW {
        lanes: lanes.into(),
        carry_cell: dsts[w - 1],
    })
}

/// Whether streaming `load` (reading its whole address sequence from
/// pre-run memory) could observe a different value than the original
/// point-by-point interleaving with `store`.
///
/// With equal per-iteration deltas `d`, the store of iteration `t'`
/// hits the load address of iteration `t` exactly when
/// `t' = t + (Lbase − Sbase)/d`; under the original order the load of
/// iteration `t` sees the store of iteration `t'` iff `t' < t`, or
/// `t' = t` when the store precedes the load in the body. Unequal
/// deltas over overlapping ranges are conservatively hazardous.
fn hazard(load: &AccessPlan, store: &AccessPlan, n: usize) -> bool {
    debug_assert!(store.store && !load.store);
    if load.tile.id() != store.tile.id() {
        return false;
    }
    let last = (n - 1) as isize;
    // Bounding box over all lanes and iterations (conservative for the
    // unequal-delta early-out; the modular check below is per lane
    // pair, exactly what per-lane plans used to test).
    let range = |a: &AccessPlan| {
        let span = (a.lanes as isize - 1) * a.lane_stride;
        let ends = [
            a.base,
            a.base + last * a.delta,
            a.base + span,
            a.base + last * a.delta + span,
        ];
        (*ends.iter().min().unwrap(), *ends.iter().max().unwrap())
    };
    let (llo, lhi) = range(load);
    let (slo, shi) = range(store);
    if lhi < slo || shi < llo {
        return false;
    }
    if load.delta != store.delta {
        return true;
    }
    let d = load.delta;
    if d == 0 {
        // Same single address for the whole run: the load would observe
        // every store after the first iteration.
        return true;
    }
    for ll in 0..load.lanes as isize {
        for sl in 0..store.lanes as isize {
            let diff =
                (load.base + ll * load.lane_stride) - (store.base + sl * store.lane_stride);
            if diff % d != 0 {
                continue;
            }
            let k = diff / d;
            if (k >= -last && k <= -1) || (k == 0 && store.pos < load.pos) {
                return true;
            }
        }
    }
    false
}

/// Executes the streamed plan for in-chunk iterations `[t0, t0 + m)`:
/// one operation at a time over the whole chunk, into/over stripe rows
/// of constant stride [`CHUNK`] — the loops LLVM autovectorizes.
pub(crate) fn exec_streamed(stream: &[SOp], stripe: &mut [f64], t0: usize, m: usize) {
    for op in stream {
        match op {
            SOp::Load {
                row,
                lanes,
                lane_stride,
                base,
                delta,
                tile,
                ..
            } => {
                let w = *lanes as usize;
                let start = base + t0 as isize * delta;
                let row = *row as usize;
                if w == 1 {
                    if *delta == 1 {
                        let s = start as usize;
                        for (l, o) in stripe[row..row + m].iter_mut().enumerate() {
                            *o = tile.get(s + l);
                        }
                    } else {
                        let d = *delta;
                        for (l, o) in stripe[row..row + m].iter_mut().enumerate() {
                            *o = tile.get((start + l as isize * d) as usize);
                        }
                    }
                } else if *lane_stride == 1 && *delta == w as isize {
                    // Dense wide load: the run's lanes tile memory
                    // contiguously — one flat copy of m·w elements.
                    let s = start as usize;
                    for (e, o) in stripe[row..row + m * w].iter_mut().enumerate() {
                        *o = tile.get(s + e);
                    }
                } else {
                    let (d, ls) = (*delta, *lane_stride);
                    for t in 0..m {
                        let b = start + t as isize * d;
                        for l in 0..w {
                            stripe[row + t * w + l] = tile.get((b + l as isize * ls) as usize);
                        }
                    }
                }
            }
            SOp::Bin {
                op,
                row,
                lanes,
                a,
                b,
            } => match op {
                FOp::Add => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Add.apply(x, y)),
                FOp::Sub => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Sub.apply(x, y)),
                FOp::Mul => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Mul.apply(x, y)),
                FOp::Div => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Div.apply(x, y)),
                FOp::Max => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Max.apply(x, y)),
                FOp::Min => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Min.apply(x, y)),
                FOp::Pow => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Pow.apply(x, y)),
            },
            SOp::Un { op, row, lanes, a } => match op {
                FUn::Neg => un_chunk(stripe, m, *row, *lanes, *a, |x| FUn::Neg.apply(x)),
                FUn::Sqrt => un_chunk(stripe, m, *row, *lanes, *a, |x| FUn::Sqrt.apply(x)),
                FUn::Abs => un_chunk(stripe, m, *row, *lanes, *a, |x| FUn::Abs.apply(x)),
                FUn::Exp => un_chunk(stripe, m, *row, *lanes, *a, |x| FUn::Exp.apply(x)),
            },
            SOp::BinLoads {
                op,
                row,
                lanes,
                a_base,
                a_delta,
                a_tile,
                b_base,
                b_delta,
                b_tile,
                ..
            } => {
                let w = *lanes as usize;
                let sa = a_base + t0 as isize * a_delta;
                let sb = b_base + t0 as isize * b_delta;
                let row = *row as usize;
                let out = &mut stripe[row..row + m * w];
                // Wide fused loads are dense by construction (element
                // stride 1); scalar ones stride by delta per element.
                let (da, db) = if w > 1 { (1, 1) } else { (*a_delta, *b_delta) };
                macro_rules! loop_for {
                    ($f:expr) => {
                        if (da, db) == (1, 1) {
                            let (sa, sb) = (sa as usize, sb as usize);
                            for (e, o) in out.iter_mut().enumerate() {
                                *o = $f(a_tile.get(sa + e), b_tile.get(sb + e));
                            }
                        } else {
                            for (e, o) in out.iter_mut().enumerate() {
                                let e = e as isize;
                                *o = $f(
                                    a_tile.get((sa + e * da) as usize),
                                    b_tile.get((sb + e * db) as usize),
                                );
                            }
                        }
                    };
                }
                match op {
                    FOp::Add => loop_for!(|x, y| FOp::Add.apply(x, y)),
                    FOp::Sub => loop_for!(|x, y| FOp::Sub.apply(x, y)),
                    FOp::Mul => loop_for!(|x, y| FOp::Mul.apply(x, y)),
                    FOp::Div => loop_for!(|x, y| FOp::Div.apply(x, y)),
                    FOp::Max => loop_for!(|x, y| FOp::Max.apply(x, y)),
                    FOp::Min => loop_for!(|x, y| FOp::Min.apply(x, y)),
                    FOp::Pow => loop_for!(|x, y| FOp::Pow.apply(x, y)),
                }
            }
            SOp::Fma {
                row,
                lanes,
                a,
                b,
                c,
            } => {
                let w = *lanes as usize;
                let (src, out) = dst_row(stripe, *row, m * w);
                for t in 0..m {
                    for l in 0..w {
                        out[t * w + l] = sread(src, *a, t, l)
                            .mul_add(sread(src, *b, t, l), sread(src, *c, t, l));
                    }
                }
            }
            SOp::Splat { row, lanes, a } => {
                let w = *lanes as usize;
                let (src, out) = dst_row(stripe, *row, m * w);
                match a {
                    SSrc::Const(c) => out.fill(*c),
                    SSrc::Row { off, step } => {
                        let (off, step) = (*off as usize, *step as usize);
                        for t in 0..m {
                            out[t * w..(t + 1) * w].fill(src[off + t * step]);
                        }
                    }
                }
            }
        }
    }
}

/// Reads element (in-chunk iteration `t`, lane `l`) of a streamed
/// source: `off + t·step + l`. Scalar rows have step 1; wide rows step
/// by their lane count; lane-constant cells (step 0) repeat each
/// iteration; single-lane refs into wide rows fold the lane into `off`
/// and step over it.
#[inline]
fn sread(src: &[f64], s: SSrc, t: usize, l: usize) -> f64 {
    match s {
        SSrc::Row { off, step } => src[off as usize + t * step as usize + l],
        SSrc::Const(c) => c,
    }
}

/// Splits the stripe into (everything below, destination row of `len`
/// elements). Rows are assigned in body order with operand cells
/// allocated before their consumer's row, so every source offset of an
/// op is strictly below its destination row — the split is always valid
/// and gives the chunk loops aliasing-free slices with no per-element
/// bounds checks (which is what lets LLVM vectorize them).
#[inline]
fn dst_row(stripe: &mut [f64], dst: u32, len: usize) -> (&[f64], &mut [f64]) {
    let (src, rest) = stripe.split_at_mut(dst as usize);
    (src, &mut rest[..len])
}

#[inline]
fn bin_chunk<F: Fn(f64, f64) -> f64>(
    stripe: &mut [f64],
    m: usize,
    dst: u32,
    lanes: u16,
    a: SSrc,
    b: SSrc,
    f: F,
) {
    let w = lanes as usize;
    let len = m * w;
    let (src, out) = dst_row(stripe, dst, len);
    let aligned = |s: SSrc| match s {
        SSrc::Row { step, .. } => step as usize == w,
        SSrc::Const(_) => false,
    };
    match (a, b) {
        (SSrc::Row { off: x, .. }, SSrc::Row { off: y, .. }) if aligned(a) && aligned(b) => {
            let xs = &src[x as usize..x as usize + len];
            let ys = &src[y as usize..y as usize + len];
            for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                *o = f(x, y);
            }
        }
        (SSrc::Row { off: x, .. }, SSrc::Const(c)) if aligned(a) => {
            let xs = &src[x as usize..x as usize + len];
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x, c);
            }
        }
        (SSrc::Const(c), SSrc::Row { off: y, .. }) if aligned(b) => {
            let ys = &src[y as usize..y as usize + len];
            for (o, &y) in out.iter_mut().zip(ys) {
                *o = f(c, y);
            }
        }
        (SSrc::Const(c1), SSrc::Const(c2)) => out.fill(f(c1, c2)),
        (a, b) => {
            // Misaligned source (a lane ref into a wider row, or a
            // lane-constant cell): per-element addressing.
            for t in 0..m {
                for l in 0..w {
                    out[t * w + l] = f(sread(src, a, t, l), sread(src, b, t, l));
                }
            }
        }
    }
}

#[inline]
fn un_chunk<F: Fn(f64) -> f64>(stripe: &mut [f64], m: usize, dst: u32, lanes: u16, a: SSrc, f: F) {
    let w = lanes as usize;
    let len = m * w;
    let (src, out) = dst_row(stripe, dst, len);
    match a {
        SSrc::Row { off: x, step } if step as usize == w => {
            let xs = &src[x as usize..x as usize + len];
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x);
            }
        }
        SSrc::Row { .. } => {
            for t in 0..m {
                for l in 0..w {
                    out[t * w + l] = f(sread(src, a, t, l));
                }
            }
        }
        SSrc::Const(c) => out.fill(f(c)),
    }
}

/// Executes the recurrent tail point by point for in-chunk iterations
/// `[t0, t0 + m)`, in original body order — this *is* the sequential
/// schedule, restricted to the ops that carry the loop dependence. The
/// steady tape is valid from t = 0: before the first chunk, the
/// `prelude` seeds each k = −1 forward cell with the pre-run memory
/// value its load would have read (see [`build_steady`]).
pub(crate) fn exec_recurrent(
    steady: &[ROp],
    prelude: &[(u32, u16)],
    tab: &[AccessPlan],
    map: &[(u16, u16)],
    arena: &mut [f64],
    t0: usize,
    m: usize,
) {
    if t0 == 0 {
        for &(cell, a) in prelude {
            let (t, l) = map[a as usize];
            let p = &tab[t as usize];
            arena[cell as usize] = p
                .tile
                .get((p.base + l as isize * p.lane_stride) as usize);
        }
    }
    // The dominant steady shape after forwarding and fusion is a single
    // fused chain+store; give it a loop that keeps the carried value in
    // a register instead of bouncing it through the arena.
    if let [ROp::ChainStore {
        dst,
        init,
        links,
        base,
        delta,
        tile,
        ..
    }] = steady
    {
        if chain_store_loop(arena, *dst, *init, links, *base, *delta, *tile, t0, 0, m) {
            return;
        }
    }
    // The vf-lowered shape: one wide chain-store carrying its value
    // across lane boundaries in a register.
    if let [ROp::ChainStoreW { lanes, carry_cell }] = steady {
        chain_store_loop_w(arena, lanes, *carry_cell, t0, 0, m);
        return;
    }
    for l in 0..m {
        exec_point(steady, arena, (t0 + l) as isize, l);
    }
}

/// Register-carried loop over a fused wide chain-store: `m − l0`
/// iterations × `w` lanes of serial chain evaluation, one store each,
/// with the recurrence value never leaving a register inside the loop.
/// Entered with `arena[carry_cell]` holding the previous iteration's
/// last-lane value (written by the `first` tape or the previous chunk);
/// leaves the final value there for the next chunk.
fn chain_store_loop_w(
    arena: &mut [f64],
    lanes: &[WLane],
    carry_cell: u32,
    t0: usize,
    l0: usize,
    m: usize,
) {
    let mut carry = arena[carry_cell as usize];
    for l in l0..m {
        let t = (t0 + l) as isize;
        for lane in lanes {
            let mut acc = aread(arena, lane.init, l);
            for (j, lk) in lane.links.iter().enumerate() {
                let x = if j == lane.carry_at as usize {
                    carry
                } else {
                    aread(arena, lk.other, l)
                };
                acc = if lk.acc_rhs {
                    link_apply(lk.op, x, acc)
                } else {
                    link_apply(lk.op, acc, x)
                };
            }
            let addr = (lane.base + t * lane.delta) as usize;
            #[cfg(debug_assertions)]
            crate::buffer::overlap::note_store_raw(lane.tile.id(), addr, 1);
            lane.tile.set(addr, acc);
            carry = acc;
        }
    }
    if l0 < m {
        arena[carry_cell as usize] = carry;
    }
}

#[inline]
fn exec_point(ops: &[ROp], arena: &mut [f64], t: isize, l: usize) {
    {
        for op in ops {
            match op {
                ROp::Load {
                    dst,
                    lanes,
                    lane_stride,
                    base,
                    delta,
                    tile,
                    ..
                } => {
                    let b = base + t * delta;
                    for lane in 0..*lanes as usize {
                        arena[*dst as usize + lane] =
                            tile.get((b + lane as isize * lane_stride) as usize);
                    }
                }
                ROp::Carry { dst, src } => arena[*dst as usize] = arena[*src as usize],
                ROp::Store {
                    src,
                    lanes,
                    lane_stride,
                    base,
                    delta,
                    tile,
                    ..
                } => {
                    let b = base + t * delta;
                    for lane in 0..*lanes as usize {
                        let v = areadw(arena, *src, l, lane);
                        let addr = (b + lane as isize * lane_stride) as usize;
                        #[cfg(debug_assertions)]
                        crate::buffer::overlap::note_store_raw(tile.id(), addr, 1);
                        tile.set(addr, v);
                    }
                }
                ROp::Bin {
                    op,
                    dst,
                    lanes,
                    a,
                    b,
                } => {
                    for lane in 0..*lanes as usize {
                        arena[*dst as usize + lane] =
                            op.apply(areadw(arena, *a, l, lane), areadw(arena, *b, l, lane));
                    }
                }
                ROp::Un { op, dst, lanes, a } => {
                    for lane in 0..*lanes as usize {
                        arena[*dst as usize + lane] = op.apply(areadw(arena, *a, l, lane));
                    }
                }
                ROp::Fma {
                    dst,
                    lanes,
                    a,
                    b,
                    c,
                } => {
                    for lane in 0..*lanes as usize {
                        arena[*dst as usize + lane] = areadw(arena, *a, l, lane)
                            .mul_add(areadw(arena, *b, l, lane), areadw(arena, *c, l, lane));
                    }
                }
                ROp::Splat { dst, lanes, a } => {
                    let v = aread(arena, *a, l);
                    arena[*dst as usize..*dst as usize + *lanes as usize].fill(v);
                }
                ROp::Chain { dst, init, links } => {
                    arena[*dst as usize] = chain_eval(arena, *init, links, l);
                }
                ROp::ChainStore {
                    dst,
                    init,
                    links,
                    base,
                    delta,
                    tile,
                    ..
                } => {
                    let v = chain_eval(arena, *init, links, l);
                    arena[*dst as usize] = v;
                    let addr = (base + t * delta) as usize;
                    #[cfg(debug_assertions)]
                    crate::buffer::overlap::note_store_raw(tile.id(), addr, 1);
                    tile.set(addr, v);
                }
                ROp::ChainStoreW { lanes, .. } => {
                    // Faithful unfused semantics: each lane's carry
                    // operand reads the previous lane's dst cell, which
                    // this per-point path keeps written.
                    for lane in lanes.iter() {
                        let v = chain_eval(arena, lane.init, &lane.links, l);
                        arena[lane.dst as usize] = v;
                        let addr = (lane.base + t * lane.delta) as usize;
                        #[cfg(debug_assertions)]
                        crate::buffer::overlap::note_store_raw(lane.tile.id(), addr, 1);
                        lane.tile.set(addr, v);
                    }
                }
            }
        }
    }
}

/// [`FOp::apply`] for one link of a register-carried chain loop. The
/// links of a stencil chain are adds, subtracts and multiplies; testing
/// those first keeps the serial chain off `apply`'s jump table, whose
/// one indirect branch per link made the loop's speed hinge on where the
/// linker happened to place it. Same operation, same operand order, so
/// the bits are unchanged.
#[inline(always)]
fn link_apply(op: FOp, x: f64, y: f64) -> f64 {
    match op {
        FOp::Add => x + y,
        FOp::Sub => x - y,
        FOp::Mul => x * y,
        _ => link_apply_rest(op, x, y),
    }
}

/// The remaining chain ops, kept out of line so the cases tested above
/// stay compare-and-branch instead of folding back into a jump table.
#[inline(never)]
fn link_apply_rest(op: FOp, x: f64, y: f64) -> f64 {
    op.apply(x, y)
}

/// How a chain operand is fetched inside [`chain_store_loop`]: the
/// register-carried recurrence value, a hoisted loop-invariant, or a
/// stripe row indexed by the in-chunk position.
#[derive(Clone, Copy)]
enum COperand {
    Carry,
    Inv(f64),
    Row(u32, u32),
}

const CHAIN_MAX: usize = 16;

#[inline]
fn coperand(r: RRef, dst: u32, arena: &[f64]) -> COperand {
    if r.step != 0 {
        COperand::Row(r.off, r.step)
    } else if r.off == dst {
        COperand::Carry
    } else {
        COperand::Inv(arena[r.off as usize])
    }
}

/// Specialized loop for a steady tape that is a single fused
/// chain+store. The recurrence value (the step-0 operand aliasing the
/// chain's own destination) lives in a register across iterations;
/// other step-0 operands are loop-invariant and read once. Applies the
/// exact same ops in the same order and operand sides as the generic
/// path, so results stay bit-identical. Returns false (nothing done)
/// when the chain is too long for the operand scratch table.
#[allow(clippy::too_many_arguments)]
fn chain_store_loop(
    arena: &mut [f64],
    dst: u32,
    init: RRef,
    links: &[ChainLink],
    base: isize,
    delta: isize,
    tile: TileView,
    t0: usize,
    l0: usize,
    m: usize,
) -> bool {
    if links.len() > CHAIN_MAX || l0 >= m {
        return l0 >= m;
    }
    let initk = coperand(init, dst, arena);
    let mut ops = [(FOp::Add, false, COperand::Carry); CHAIN_MAX];
    for (o, lk) in ops.iter_mut().zip(links) {
        *o = (lk.op, lk.acc_rhs, coperand(lk.other, dst, arena));
    }
    let ops = &ops[..links.len()];
    // Entered with arena[dst] holding the previous iteration's value
    // (written by the `first` tape or the previous chunk).
    let mut carry = arena[dst as usize];
    let mut addr = base + (t0 + l0) as isize * delta;
    for l in l0..m {
        let fetch = |k: COperand| match k {
            COperand::Carry => carry,
            COperand::Inv(c) => c,
            COperand::Row(o, step) => arena[o as usize + l * step as usize],
        };
        let mut acc = fetch(initk);
        for &(op, acc_rhs, k) in ops {
            let x = fetch(k);
            acc = if acc_rhs { link_apply(op, x, acc) } else { link_apply(op, acc, x) };
        }
        #[cfg(debug_assertions)]
        crate::buffer::overlap::note_store_raw(tile.id(), addr as usize, 1);
        tile.set(addr as usize, acc);
        carry = acc;
        addr += delta;
    }
    arena[dst as usize] = carry;
    true
}

#[inline]
fn chain_eval(arena: &[f64], init: RRef, links: &[ChainLink], l: usize) -> f64 {
    let mut acc = aread(arena, init, l);
    for lk in links {
        let x = aread(arena, lk.other, l);
        acc = if lk.acc_rhs {
            lk.op.apply(x, acc)
        } else {
            lk.op.apply(acc, x)
        };
    }
    acc
}

#[inline]
fn aread(arena: &[f64], r: RRef, l: usize) -> f64 {
    arena[r.off as usize + l * r.step as usize]
}

/// Lane-indexed arena read for wide recurrent operands: lane `lane` of
/// in-chunk iteration `l`. Step-0 sources hold their lanes in
/// consecutive cells; row sources interleave lanes within each
/// iteration's group.
#[inline]
fn areadw(arena: &[f64], r: RRef, l: usize, lane: usize) -> f64 {
    arena[r.off as usize + l * r.step as usize + lane]
}

use std::collections::{HashMap, HashSet};

use crate::bytecode::{IOp, Instr, Tape};

/// Executes a probe program. Returns `false` on any condition the
/// generic body would report as an error (division by zero, unset
/// buffer); the caller then falls back so the error surfaces from the
/// generic loop with exact accounting.
pub(crate) fn run_probe(
    probe: &[ProbeOp],
    i: &mut [i64],
    f: &mut [f64],
    v: &mut [f64],
    bufs: &[Option<crate::buffer::BufferView>],
) -> bool {
    for op in probe {
        match *op {
            ProbeOp::CF { dst, v: x } => f[dst as usize] = x,
            ProbeOp::CV { off, lanes, v: x } => v[off as usize..(off + lanes) as usize].fill(x),
            ProbeOp::CI { dst, v: x } => i[dst as usize] = x,
            ProbeOp::Mov { dst, src } => i[dst as usize] = i[src as usize],
            ProbeOp::S2F { dst, src } => f[dst as usize] = i[src as usize] as f64,
            ProbeOp::Dim { dst, buf, dim } => {
                let Some(b) = bufs[buf as usize].as_ref() else {
                    return false;
                };
                i[dst as usize] = b.dim(dim as usize) as i64;
            }
            ProbeOp::Bin { op, dst, a, b } => {
                let a = i[a as usize];
                let b = i[b as usize];
                i[dst as usize] = match op {
                    IOp::Add => a + b,
                    IOp::Sub => a - b,
                    IOp::Mul => a * b,
                    IOp::FloorDiv | IOp::CeilDiv | IOp::Rem if b == 0 => return false,
                    IOp::FloorDiv => a.div_euclid(b),
                    IOp::CeilDiv => (a + b - 1).div_euclid(b),
                    IOp::Rem => a.rem_euclid(b),
                    IOp::Min => a.min(b),
                    IOp::Max => a.max(b),
                };
            }
        }
    }
    true
}

/// Backward-liveness pruning of a probe program. `seed` (plus `extra`)
/// is the set of integer registers whose final values the caller still
/// reads — the merged access table's index registers, and for the main
/// probe the upward-exposed reads of the (already pruned) `probe_iv`.
/// Dropped ops are exactly the pure integer computations whose results
/// feed only merged-away unrolled lanes:
/// - float-file writes (`CF`, `CV`, `S2F`) always stay — plan building
///   snapshots those registers on cache misses;
/// - ops the generic body could fault on (`Dim` of an unset buffer,
///   euclidean division/remainder by zero) always stay, so the probe
///   declines in exactly the situations the generic loop would error;
/// - pure `CI`/`Mov`/`Add`/`Sub`/`Mul`/`Min`/`Max` survive only while
///   some kept op still reads their destination.
fn prune_probe(code: Vec<ProbeOp>, seed: &[u32], extra: &[u32]) -> Vec<ProbeOp> {
    let mut live: HashSet<u32> = seed.iter().chain(extra).copied().collect();
    let mut kept: Vec<ProbeOp> = Vec::with_capacity(code.len());
    for op in code.iter().rev() {
        let keep = match op {
            ProbeOp::CF { .. } | ProbeOp::CV { .. } | ProbeOp::S2F { .. } | ProbeOp::Dim { .. } => {
                true
            }
            ProbeOp::CI { dst, .. } | ProbeOp::Mov { dst, .. } => live.contains(dst),
            ProbeOp::Bin { op, dst, .. } => {
                live.contains(dst) || matches!(op, IOp::FloorDiv | IOp::CeilDiv | IOp::Rem)
            }
        };
        if !keep {
            continue;
        }
        match op {
            ProbeOp::CI { dst, .. } => {
                live.remove(dst);
            }
            ProbeOp::Mov { dst, src } => {
                live.remove(dst);
                live.insert(*src);
            }
            ProbeOp::Dim { dst, .. } => {
                live.remove(dst);
            }
            ProbeOp::Bin { dst, a, b, .. } => {
                live.remove(dst);
                live.insert(*a);
                live.insert(*b);
            }
            ProbeOp::S2F { src, .. } => {
                live.insert(*src);
            }
            ProbeOp::CF { .. } | ProbeOp::CV { .. } => {}
        }
        kept.push(*op);
    }
    kept.reverse();
    kept
}

/// Integer registers a probe program reads before (or without) writing
/// — the values it expects to find in the frame when it runs.
fn probe_upward_reads(code: &[ProbeOp]) -> Vec<u32> {
    let mut defined: HashSet<u32> = HashSet::new();
    let mut reads: Vec<u32> = Vec::new();
    let read = |r: u32, defined: &HashSet<u32>, reads: &mut Vec<u32>| {
        if !defined.contains(&r) {
            reads.push(r);
        }
    };
    for op in code {
        match op {
            ProbeOp::CI { dst, .. } | ProbeOp::Dim { dst, .. } => {
                defined.insert(*dst);
            }
            ProbeOp::Mov { dst, src } => {
                read(*src, &defined, &mut reads);
                defined.insert(*dst);
            }
            ProbeOp::Bin { dst, a, b, .. } => {
                read(*a, &defined, &mut reads);
                read(*b, &defined, &mut reads);
                defined.insert(*dst);
            }
            ProbeOp::S2F { src, .. } => read(*src, &defined, &mut reads),
            ProbeOp::CF { .. } | ProbeOp::CV { .. } => {}
        }
    }
    reads
}

/// Recognizes a specializable innermost loop body and builds its
/// [`RunSpec`]. Declines — with a reason suitable for a
/// `runspec-decline` observability event — when the body uses anything
/// outside the straight-line stencil subset: nested control flow,
/// vector ops, comparisons/selects, allocation, view construction,
/// float-typed induction values, or index arithmetic that is not
/// affine in `iv`.
///
/// Affinity tracking: integer registers are *linear* (affine in `iv`)
/// or *invariant*. `iv` is linear; registers defined outside the body
/// are invariant (SSA + dominance); `addi`/`subi` preserve linearity;
/// `muli` of linear × invariant stays linear (linear × linear bails);
/// division/remainder/min/max of anything linear bails. Access index
/// registers may be either class — the probe resolves their values —
/// but linearity is what justifies probing only two iterations and
/// bounds-checking only the run endpoints.
pub(crate) fn analyze(
    tape: &Tape,
    iv: u32,
    outer_consts: &HashMap<u32, i64>,
) -> Result<RunSpec, &'static str> {
    if !tape.term.is_empty() {
        return Err("body yields loop-carried values");
    }
    // Classify nested control flow up front, whatever else the tape
    // holds: an outer tile loop clamps its bounds (min/max on the
    // induction value) *before* its nested `For` appears on the tape,
    // and blaming the clamp would misname every outer loop of a nest
    // as a non-affine-arithmetic decline.
    if tape.code.iter().any(|i| {
        matches!(
            i,
            Instr::For { .. } | Instr::If { .. } | Instr::ParallelLoop { .. } | Instr::Wavefronts { .. }
        )
    }) {
        return Err("nested control flow");
    }
    let mut probe_code: Vec<ProbeOp> = Vec::new();
    let mut probe_iv_code: Vec<ProbeOp> = Vec::new();
    let mut lin: HashSet<u32> = HashSet::new();
    lin.insert(iv);
    // Affine value numbers for the integer registers: each value is
    // `(root, offset)` — root 0 is the literal-constant root (offset is
    // the value); other roots are hash-consed over (input register |
    // dim | non-foldable op), so two registers holding the *same
    // symbolic expression plus a constant* get the same root. Folding
    // wraps, which keeps number equality a sound witness for value
    // equality without replicating the probe's overflow behavior.
    let mut vn: HashMap<u32, (u32, i64)> = HashMap::new();
    let mut vn_memo: HashMap<(u8, u32, i64, u32, i64), u32> = HashMap::new();
    let mut vn_next: u32 = 1;
    macro_rules! vn_root {
        ($key:expr) => {{
            *vn_memo.entry($key).or_insert_with(|| {
                let r = vn_next;
                vn_next += 1;
                r
            })
        }};
    }
    macro_rules! vn_of {
        ($r:expr) => {{
            let r: u32 = $r;
            match vn.get(&r) {
                Some(&v) => v,
                None => {
                    // First read of an externally-defined register. One
                    // the compiler proved to hold a dominating constant
                    // (written exactly once, by a `ConstI`) numbers as
                    // that literal — its runtime value can never differ
                    // — so hoisted lane offsets fold like in-body ones.
                    // Everything else gets a fresh opaque root.
                    let v = match outer_consts.get(&r) {
                        Some(&c) => (0u32, c),
                        None => (vn_root!((0, r, 0, 0, 0)), 0i64),
                    };
                    vn.insert(r, v);
                    v
                }
            }
        }};
    }
    // Per-access index value numbers, captured at the access site
    // (indexed like the `acc` fields).
    let mut acc_vns: Vec<Box<[(u32, i64)]>> = Vec::new();
    // f-register → the value it currently holds (op result, lane of a
    // wide op, or — absent — a run-invariant register read).
    let mut fdef: HashMap<u32, FRef> = HashMap::new();
    let fref = |r: u32, fdef: &HashMap<u32, FRef>| -> FRef {
        fdef.get(&r).copied().unwrap_or(FRef::Inv(r))
    };
    // v-file start offset → (producing op position, width); absent
    // means the vector was defined outside the body (run-invariant,
    // read from the v-file at plan time: `VInv`).
    let mut vdef: HashMap<u32, (u16, u16)> = HashMap::new();
    // Maps a vector operand to its FRef, rejecting width mismatches
    // (a wide consumer of op j's row assumes j's lane interleave).
    let vref = |r: u32, w: u16, vdef: &HashMap<u32, (u16, u16)>| -> Result<FRef, &'static str> {
        match vdef.get(&r) {
            Some(&(j, jw)) if jw == w => Ok(FRef::Op(j)),
            Some(_) => Err("mixed vector widths in body"),
            None => Ok(FRef::VInv(r)),
        }
    };
    // Redefining part of an in-body vector's range can't be expressed
    // as whole-row references; exact redefinitions just replace the
    // mapping. Returns false on partial overlap.
    let clear_vrange = |off: u32, w: u16, vdef: &mut HashMap<u32, (u16, u16)>| -> bool {
        let end = off + u32::from(w);
        let partial = vdef.iter().any(|(&k, &(_, kw))| {
            let kend = k + u32::from(kw);
            k < end && off < kend && !(k == off && kw == w)
        });
        if partial {
            return false;
        }
        vdef.remove(&off);
        true
    };
    const MAX_LANES: u32 = 64;
    let lanes16 = |lanes: u32| -> Result<u16, &'static str> {
        if lanes == 0 || lanes > MAX_LANES {
            return Err("vector width exceeds the lane budget");
        }
        Ok(lanes as u16)
    };
    let mut ops: Vec<RunOp> = Vec::new();
    let mut n_acc: u16 = 0;
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut flops = 0u64;
    let mut index_ops = 0u64;
    let mut vloads = 0u64;
    let mut vstores = 0u64;
    let mut vflops = 0u64;

    for instr in &tape.code {
        if ops.len() >= u16::MAX as usize || n_acc == u16::MAX {
            return Err("op count exceeds the u16 stream budget");
        }
        match instr {
            Instr::ConstF { dst, v } => probe_code.push(ProbeOp::CF { dst: *dst, v: *v }),
            Instr::ConstI { dst, v } => {
                vn.insert(*dst, (0, *v));
                probe_code.push(ProbeOp::CI { dst: *dst, v: *v });
            }
            Instr::Dim { dst, buf, dim } => {
                let root = vn_root!((1, *buf, *dim as i64, 0, 0));
                vn.insert(*dst, (root, 0));
                probe_code.push(ProbeOp::Dim {
                    dst: *dst,
                    buf: *buf,
                    dim: *dim,
                });
            }
            Instr::MoveI { dst, src } => {
                let v = vn_of!(*src);
                vn.insert(*dst, v);
                let p = ProbeOp::Mov {
                    dst: *dst,
                    src: *src,
                };
                if lin.contains(src) {
                    lin.insert(*dst);
                    probe_iv_code.push(p);
                }
                probe_code.push(p);
            }
            Instr::SiToFp { dst, src } => {
                if lin.contains(src) {
                    // A float that varies per point without going through
                    // memory — outside the stencil subset.
                    return Err("per-point int-to-float conversion");
                }
                probe_code.push(ProbeOp::S2F {
                    dst: *dst,
                    src: *src,
                });
            }
            Instr::BinI { op, dst, a, b } => {
                index_ops += 1;
                let va = vn_of!(*a);
                let vb = vn_of!(*b);
                let dv = match (op, va, vb) {
                    (IOp::Add, (0, x), (0, y)) => (0, x.wrapping_add(y)),
                    (IOp::Add, (r, o), (0, c)) | (IOp::Add, (0, c), (r, o)) => {
                        (r, o.wrapping_add(c))
                    }
                    (IOp::Sub, (0, x), (0, y)) => (0, x.wrapping_sub(y)),
                    (IOp::Sub, (r, o), (0, c)) => (r, o.wrapping_sub(c)),
                    (IOp::Mul, (0, x), (0, y)) => (0, x.wrapping_mul(y)),
                    _ => (vn_root!((2 + *op as u8, va.0, va.1, vb.0, vb.1)), 0),
                };
                vn.insert(*dst, dv);
                let la = lin.contains(a);
                let lb = lin.contains(b);
                let dst_linear = match op {
                    IOp::Add | IOp::Sub => la || lb,
                    IOp::Mul => {
                        if la && lb {
                            return Err("index arithmetic quadratic in the induction value");
                        }
                        la || lb
                    }
                    IOp::FloorDiv | IOp::CeilDiv | IOp::Rem | IOp::Min | IOp::Max => {
                        if la || lb {
                            return Err("non-affine index arithmetic on the induction value");
                        }
                        false
                    }
                };
                let p = ProbeOp::Bin {
                    op: *op,
                    dst: *dst,
                    a: *a,
                    b: *b,
                };
                if dst_linear {
                    lin.insert(*dst);
                    probe_iv_code.push(p);
                }
                probe_code.push(p);
            }
            Instr::BinF { op, dst, a, b } => {
                flops += 1;
                let rop = RunOp::Bin {
                    op: *op,
                    a: fref(*a, &fdef),
                    b: fref(*b, &fdef),
                    lanes: 1,
                };
                fdef.insert(*dst, FRef::Op(ops.len() as u16));
                ops.push(rop);
            }
            Instr::UnF { op, dst, a } => {
                flops += 1;
                let rop = RunOp::Un {
                    op: *op,
                    a: fref(*a, &fdef),
                    lanes: 1,
                };
                fdef.insert(*dst, FRef::Op(ops.len() as u16));
                ops.push(rop);
            }
            Instr::FmaF { dst, a, b, c } => {
                flops += 1;
                let rop = RunOp::Fma {
                    a: fref(*a, &fdef),
                    b: fref(*b, &fdef),
                    c: fref(*c, &fdef),
                    lanes: 1,
                };
                fdef.insert(*dst, FRef::Op(ops.len() as u16));
                ops.push(rop);
            }
            Instr::Load { dst, buf, idx } => {
                loads += 1;
                acc_vns.push(idx.iter().map(|&r| vn_of!(r)).collect());
                let rop = RunOp::Load {
                    buf: *buf,
                    idx: idx.clone(),
                    acc: n_acc,
                    lanes: 1,
                };
                n_acc += 1;
                fdef.insert(*dst, FRef::Op(ops.len() as u16));
                ops.push(rop);
            }
            Instr::Store { src, buf, idx } => {
                stores += 1;
                acc_vns.push(idx.iter().map(|&r| vn_of!(r)).collect());
                ops.push(RunOp::Store {
                    buf: *buf,
                    idx: idx.clone(),
                    src: fref(*src, &fdef),
                    acc: n_acc,
                    lanes: 1,
                });
                n_acc += 1;
            }
            // Vector IR (the §2.4 partial-vectorization shape): vector
            // instructions become *wide* run ops over lane-interleaved
            // stripe rows. Stats counters mirror the generic engine:
            // one count per vector instruction, not per lane; extracts,
            // broadcasts, and constants count nothing.
            Instr::ConstV { off, lanes, v } => {
                if !clear_vrange(*off, lanes16(*lanes)?, &mut vdef) {
                    return Err("partial vector redefinition in body");
                }
                // Same literal every iteration — hoisted to probe time,
                // after which the v-file read (`VInv`) sees it.
                probe_code.push(ProbeOp::CV {
                    off: *off,
                    lanes: *lanes,
                    v: *v,
                });
            }
            Instr::BinV { op, dst, a, b, lanes } => {
                vflops += 1;
                let w = lanes16(*lanes)?;
                let rop = RunOp::Bin {
                    op: *op,
                    a: vref(*a, w, &vdef)?,
                    b: vref(*b, w, &vdef)?,
                    lanes: w,
                };
                if !clear_vrange(*dst, w, &mut vdef) {
                    return Err("partial vector redefinition in body");
                }
                vdef.insert(*dst, (ops.len() as u16, w));
                ops.push(rop);
            }
            Instr::UnV { op, dst, a, lanes } => {
                vflops += 1;
                let w = lanes16(*lanes)?;
                let rop = RunOp::Un {
                    op: *op,
                    a: vref(*a, w, &vdef)?,
                    lanes: w,
                };
                if !clear_vrange(*dst, w, &mut vdef) {
                    return Err("partial vector redefinition in body");
                }
                vdef.insert(*dst, (ops.len() as u16, w));
                ops.push(rop);
            }
            Instr::FmaV { dst, a, b, c, lanes } => {
                vflops += 1;
                let w = lanes16(*lanes)?;
                let rop = RunOp::Fma {
                    a: vref(*a, w, &vdef)?,
                    b: vref(*b, w, &vdef)?,
                    c: vref(*c, w, &vdef)?,
                    lanes: w,
                };
                if !clear_vrange(*dst, w, &mut vdef) {
                    return Err("partial vector redefinition in body");
                }
                vdef.insert(*dst, (ops.len() as u16, w));
                ops.push(rop);
            }
            Instr::VLoad { dst, lanes, buf, idx } => {
                vloads += 1;
                acc_vns.push(idx.iter().map(|&r| vn_of!(r)).collect());
                let w = lanes16(*lanes)?;
                let rop = RunOp::Load {
                    buf: *buf,
                    idx: idx.clone(),
                    acc: n_acc,
                    lanes: w,
                };
                n_acc += 1;
                if !clear_vrange(*dst, w, &mut vdef) {
                    return Err("partial vector redefinition in body");
                }
                vdef.insert(*dst, (ops.len() as u16, w));
                ops.push(rop);
            }
            Instr::VStore { src, lanes, buf, idx } => {
                vstores += 1;
                acc_vns.push(idx.iter().map(|&r| vn_of!(r)).collect());
                let w = lanes16(*lanes)?;
                ops.push(RunOp::Store {
                    buf: *buf,
                    idx: idx.clone(),
                    src: vref(*src, w, &vdef)?,
                    acc: n_acc,
                    lanes: w,
                });
                n_acc += 1;
            }
            Instr::VExtract { dst, src, lane } => {
                // Pure data movement, folded into the consumer's
                // operand: lane of an in-body wide op, or a v-file cell.
                let cell = *src + *lane;
                let r = match vdef
                    .iter()
                    .find(|(&k, &(_, kw))| cell >= k && cell < k + u32::from(kw))
                {
                    Some((&k, &(j, _))) => FRef::Lane(j, (cell - k) as u16),
                    None => FRef::VInv(cell),
                };
                fdef.insert(*dst, r);
            }
            Instr::VBroadcast { dst, lanes, src } => {
                let w = lanes16(*lanes)?;
                let rop = RunOp::Splat {
                    a: fref(*src, &fdef),
                    lanes: w,
                };
                if !clear_vrange(*dst, w, &mut vdef) {
                    return Err("partial vector redefinition in body");
                }
                vdef.insert(*dst, (ops.len() as u16, w));
                ops.push(rop);
            }
            Instr::SelV { .. } => return Err("vector select in body"),
            Instr::For { .. }
            | Instr::If { .. }
            | Instr::ParallelLoop { .. }
            | Instr::Wavefronts { .. } => return Err("nested control flow"),
            Instr::CmpI { .. } | Instr::CmpF { .. } | Instr::SelF { .. } | Instr::SelI { .. } => {
                return Err("compare/select in body")
            }
            Instr::Call { .. } => return Err("call in body"),
            Instr::Alloc { .. }
            | Instr::Subview { .. }
            | Instr::ShiftView { .. }
            | Instr::CopyBuf { .. }
            | Instr::GetParallelBlocks { .. } => {
                return Err("allocation or view construction in body")
            }
        }
    }
    if stores == 0 && vstores == 0 {
        return Err("no stores in body");
    }
    // Dead-code elimination. Lane-unrolled vector bodies leave dead
    // ops behind analysis — per-lane serial contributions folded into
    // extracts of *other* positions, and vector-side arithmetic feeding
    // nothing that survives. A dead op costs arena writes every
    // iteration on whichever path it lands, so strip pure float ops no
    // kept op references (loads and stores always stay: their bounds
    // and error semantics are observable; the per-iter stat counters
    // above were accumulated from the original instruction mix and are
    // unaffected). References point strictly backwards, so one reverse
    // pass reaches the fixpoint.
    let mut used = vec![false; ops.len()];
    for i in (0..ops.len()).rev() {
        if !used[i] && !matches!(ops[i], RunOp::Load { .. } | RunOp::Store { .. }) {
            continue;
        }
        let mut mark = |r: &FRef| {
            if let FRef::Op(j) | FRef::Lane(j, _) = r {
                used[*j as usize] = true;
            }
        };
        match &ops[i] {
            RunOp::Bin { a, b, .. } => {
                mark(a);
                mark(b);
            }
            RunOp::Un { a, .. } | RunOp::Splat { a, .. } => mark(a),
            RunOp::Fma { a, b, c, .. } => {
                mark(a);
                mark(b);
                mark(c);
            }
            RunOp::Store { src, .. } => mark(src),
            RunOp::Load { .. } => {}
        }
    }
    let mut remap = vec![u16::MAX; ops.len()];
    let mut kept: Vec<RunOp> = Vec::with_capacity(ops.len());
    for (i, op) in ops.into_iter().enumerate() {
        if used[i] || matches!(op, RunOp::Load { .. } | RunOp::Store { .. }) {
            remap[i] = kept.len() as u16;
            kept.push(op);
        }
    }
    for op in &mut kept {
        let fix = |r: &mut FRef| {
            if let FRef::Op(j) | FRef::Lane(j, _) = r {
                *j = remap[*j as usize];
            }
        };
        match op {
            RunOp::Bin { a, b, .. } => {
                fix(a);
                fix(b);
            }
            RunOp::Un { a, .. } | RunOp::Splat { a, .. } => fix(a),
            RunOp::Fma { a, b, c, .. } => {
                fix(a);
                fix(b);
                fix(c);
            }
            RunOp::Store { src, .. } => fix(src),
            RunOp::Load { .. } => {}
        }
    }
    let ops = kept;
    // Merged access table. Accesses in body order (DCE keeps every
    // load/store, so the k-th access op has `acc == k`); group the ones
    // whose index value numbers agree on every dimension except a
    // constant last-dimension offset, then split each group into
    // maximal chains of consecutive offsets — one table entry per
    // chain, each member addressed as `(entry, lane)`.
    struct AccGroup {
        buf: u32,
        w: u16,
        store: bool,
        key: Vec<(u32, i64)>,
        last_root: u32,
        members: Vec<(i64, usize)>,
    }
    let accesses: Vec<(u32, u16, bool, &[u32])> = ops
        .iter()
        .filter_map(|op| match op {
            RunOp::Load { buf, idx, lanes, .. } => Some((*buf, *lanes, false, &idx[..])),
            RunOp::Store { buf, idx, lanes, .. } => Some((*buf, *lanes, true, &idx[..])),
            _ => None,
        })
        .collect();
    debug_assert_eq!(accesses.len(), acc_vns.len());
    let mut groups: Vec<AccGroup> = Vec::new();
    for (a, &(buf, w, store, _)) in accesses.iter().enumerate() {
        let vns = &acc_vns[a];
        if vns.is_empty() {
            // Rank-0 access: no lane dimension to merge along.
            groups.push(AccGroup {
                buf,
                w,
                store,
                key: Vec::new(),
                last_root: u32::MAX,
                members: vec![(0, a)],
            });
            continue;
        }
        let (last_root, last_off) = vns[vns.len() - 1];
        let prefix = &vns[..vns.len() - 1];
        match groups.iter_mut().find(|g| {
            g.buf == buf
                && g.w == w
                && g.store == store
                && g.last_root == last_root
                && g.last_root != u32::MAX
                && g.key == prefix
        }) {
            Some(g) => g.members.push((last_off, a)),
            None => groups.push(AccGroup {
                buf,
                w,
                store,
                key: prefix.to_vec(),
                last_root,
                members: vec![(last_off, a)],
            }),
        }
    }
    let mut accs: Vec<SpecAccess> = Vec::new();
    let mut acc_map: Vec<(u16, u16)> = vec![(0, 0); accesses.len()];
    for g in &mut groups {
        g.members.sort_by_key(|&(off, _)| off);
        let w = g.w as i64;
        let mut i = 0;
        while i < g.members.len() {
            let start = g.members[i].0;
            let mut hi = start;
            let mut j = i;
            while j + 1 < g.members.len() {
                let next = g.members[j + 1].0;
                if (next == hi || next == hi + w) && next - start + w <= u16::MAX as i64 {
                    hi = next;
                    j += 1;
                } else {
                    break;
                }
            }
            let entry = accs.len() as u16;
            // Lane-0 member carries the entry's index registers.
            let lane0 = g.members[i..=j].iter().find(|&&(off, _)| off == start).unwrap().1;
            accs.push(SpecAccess {
                buf: g.buf,
                idx: accesses[lane0].3.to_vec().into(),
                lanes: (hi - start + w) as u16,
                store: g.store,
            });
            for &(off, a) in &g.members[i..=j] {
                acc_map[a] = (entry, (off - start) as u16);
            }
            i = j + 1;
        }
    }
    let idx_regs: Vec<u32> = accs.iter().flat_map(|a| a.idx.iter().copied()).collect();
    // Prune the probe programs down to what still matters after the
    // merge: the table entries' index registers (plus what kept ops
    // read). Integer ops that can fail at run time (divisions, dims)
    // stay regardless — the probe must decline exactly when the generic
    // body would error — as do all float-file writes, which plan
    // building snapshots on cache misses.
    let probe_iv_code = prune_probe(probe_iv_code, &idx_regs, &[]);
    let iv_inputs: Vec<u32> = probe_upward_reads(&probe_iv_code);
    let probe_code = prune_probe(probe_code, &idx_regs, &iv_inputs);
    Ok(RunSpec {
        slot: 0, // numbered by the bytecode compiler
        probe: probe_code.into(),
        probe_iv: probe_iv_code.into(),
        ops: ops.into(),
        accs: accs.into(),
        acc_map: acc_map.into(),
        idx_regs: idx_regs.into(),
        loads_per_iter: loads,
        stores_per_iter: stores,
        flops_per_iter: flops,
        index_ops_per_iter: index_ops,
        vloads_per_iter: vloads,
        vstores_per_iter: vstores,
        vflops_per_iter: vflops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stripe-kernel extension admits the vectorizer's lowered loop
    /// shape — broadcasts, aligned vector loads, lane-wise FMAs, a
    /// lane-unrolled recurrence — not *every* vector body. Lane-wise
    /// select has no macro-op, so `analyze` must still decline it, with
    /// the reason the compiler reports in its once-per-compile
    /// `runspec-decline` event.
    #[test]
    fn vector_select_still_declines() {
        let tape = Tape {
            code: vec![Instr::SelV {
                dst: 0,
                cond: 0,
                t: 0,
                e: 0,
                lanes: 4,
            }],
            term: vec![],
        };
        assert_eq!(
            analyze(&tape, 0, &HashMap::new()).err(),
            Some("vector select in body")
        );
    }

    /// Loop-invariant registers that the surrounding function loads
    /// with `ConstI` are folded to literal value numbers, which is what
    /// lets the vectorizer's per-lane `base + k` indices land in one
    /// merged access-table entry. The fold must only apply to registers
    /// the caller vouches for: an unknown register stays symbolic and
    /// the two bodies below must therefore disagree about whether their
    /// access indices coincide.
    #[test]
    fn outer_constants_fold_into_access_indices() {
        // for i { store f0 -> buf0[i + r1] } with r1 = 3 outside the
        // body; register 2 holds the address index, register 0 is `i`.
        let body = |k: u32| Tape {
            code: vec![
                Instr::BinI {
                    op: IOp::Add,
                    dst: 2,
                    a: 0,
                    b: k,
                },
                Instr::Store {
                    src: 0,
                    buf: 0,
                    idx: vec![2].into(),
                },
            ],
            term: vec![],
        };
        let consts = HashMap::from([(1u32, 3i64)]);
        let folded = analyze(&body(1), 0, &consts).expect("affine body specializes");
        let symbolic = analyze(&body(1), 0, &HashMap::new()).expect("still affine unfolded");
        // Same single access either way — the fold changes the value
        // numbers, not the admissibility of a one-store body.
        assert_eq!(folded.accs.len(), 1);
        assert_eq!(symbolic.accs.len(), 1);
    }
}
