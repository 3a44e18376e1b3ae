//! Compiled bytecode execution of lowered stencil modules.
//!
//! The tree-walking [`crate::interp::Interpreter`] re-traverses
//! `Operation` structs, clones [`crate::value::RtVal`]s (a buffer operand
//! clone is three heap allocations), and allocates per grid point. That
//! makes it a fine *semantic oracle* and a terrible *clock*. This module
//! is the clock: `compile::compile_program` translates each
//! function **once** into flat register-machine instruction tapes
//! (`Instr`) with
//!
//! * pre-resolved register slots per SSA value (typed register files — no
//!   `RtVal` boxing, no environment vector of `Option`s),
//! * pre-resolved buffer bindings (buffer-valued SSA values live in a
//!   slot table; loads borrow the view instead of cloning it),
//! * a reusable scalar/vector scratch file (vector registers are lane
//!   ranges of one flat `f64` file — no `Vec<f64>` per vector op),
//! * direct opcode dispatch over a closed `Instr` enum (no string
//!   formatting, no attribute lookups on the hot path).
//!
//! Whole tiles and wavefront blocks are driven through the tapes by
//! [`BytecodeEngine`], which mirrors the interpreter's API (including the
//! `threads` knob: `scf.execute_wavefronts` levels run on the same
//! [`WavefrontPool`]) and counts the **same** [`ExecStats`] — results and
//! statistics are bit-identical to the interpreter, which the
//! `engine_equiv` differential tests enforce for every pipeline variant.

use std::sync::{Arc, Mutex};

use instencil_ir::{CmpPred, Module};
use instencil_obs::trace::{self, TraceKind};
use instencil_obs::Obs;
use instencil_pattern::dataflow::{ScheduleBundle, Scheduler};

use crate::buffer::BufferView;
use crate::compile::{compile_program, BcCompileError, BcOptions};
use crate::interp::ExecError;
use crate::parallel::{self, WavefrontPool};
use crate::runspec::exec::{exec_recurrent, exec_streamed, run_probe};
use crate::runspec::plan::{build_plan, AccessPlan, RunPlan, RunScratch};
use crate::runspec::{self, RunSpec};
use crate::stats::ExecStats;
use crate::value::RtVal;

/// A typed register: class + slot in the class's file (vector registers
/// carry their lane-range start and width).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reg {
    /// Scalar `f64` (also `f32`).
    F(u32),
    /// Integer / index / `i1` (booleans stored as 0/1).
    I(u32),
    /// Vector: `lanes` consecutive slots of the flat vector file at `off`.
    V {
        /// First lane slot.
        off: u32,
        /// Lane count.
        lanes: u32,
    },
    /// Buffer view slot.
    B(u32),
    /// Immutable `i64` array slot (CSR schedules).
    A(u32),
}

/// A register-to-register copy (same class on both sides).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Move {
    /// Destination register.
    pub dst: Reg,
    /// Source register.
    pub src: Reg,
}

/// Scalar/vector float binary operator.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
    Pow,
}

impl FOp {
    #[inline]
    pub(crate) fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            FOp::Add => x + y,
            FOp::Sub => x - y,
            FOp::Mul => x * y,
            FOp::Div => x / y,
            FOp::Max => x.max(y),
            FOp::Min => x.min(y),
            FOp::Pow => x.powf(y),
        }
    }
}

/// Scalar/vector float unary operator.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FUn {
    Neg,
    Sqrt,
    Abs,
    Exp,
}

impl FUn {
    #[inline]
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            FUn::Neg => -x,
            FUn::Sqrt => x.sqrt(),
            FUn::Abs => x.abs(),
            FUn::Exp => x.exp(),
        }
    }
}

/// Integer binary operator (division/remainder check for zero at run
/// time, exactly like the interpreter).
#[derive(Clone, Copy, Debug)]
pub(crate) enum IOp {
    Add,
    Sub,
    Mul,
    FloorDiv,
    CeilDiv,
    Rem,
    Min,
    Max,
}

/// One dimension of a `memref.alloc` shape.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DimSpec {
    /// Statically known extent.
    Static(usize),
    /// Extent read from an integer register.
    Dyn(u32),
}

/// One bytecode instruction. Registers are plain `u32` slots into the
/// class-specific files; `Box<[...]>` operand lists are built once at
/// compile time and only *read* on the hot path.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    ConstF {
        dst: u32,
        v: f64,
    },
    ConstI {
        dst: u32,
        v: i64,
    },
    ConstV {
        off: u32,
        lanes: u32,
        v: f64,
    },
    BinF {
        op: FOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    BinV {
        op: FOp,
        dst: u32,
        a: u32,
        b: u32,
        lanes: u32,
    },
    UnF {
        op: FUn,
        dst: u32,
        a: u32,
    },
    UnV {
        op: FUn,
        dst: u32,
        a: u32,
        lanes: u32,
    },
    FmaF {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
    },
    FmaV {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        lanes: u32,
    },
    BinI {
        op: IOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    CmpI {
        pred: CmpPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    CmpF {
        pred: CmpPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    SelF {
        dst: u32,
        cond: u32,
        t: u32,
        e: u32,
    },
    SelI {
        dst: u32,
        cond: u32,
        t: u32,
        e: u32,
    },
    SelV {
        dst: u32,
        cond: u32,
        t: u32,
        e: u32,
        lanes: u32,
    },
    /// `arith.index_cast` (i64 ↔ index are both `i64` here).
    MoveI {
        dst: u32,
        src: u32,
    },
    SiToFp {
        dst: u32,
        src: u32,
    },
    For {
        lb: u32,
        ub: u32,
        step: u32,
        iv: u32,
        body: u32,
        /// Init-operand → iter-slot copies, run before the loop.
        inits: Box<[Move]>,
        /// Yield-register → iter-slot copies, run after each iteration.
        loopback: Box<[Move]>,
        /// Iter-slot → result-register copies, run after the loop.
        results: Box<[Move]>,
        /// Run specialization (DESIGN.md §4f): present when the body is
        /// a straight-line stencil point and the compiler built a
        /// [`RunSpec`] macro-op for it. The executor tries the
        /// specialized path first and falls back to the generic loop
        /// for short or unplannable runs.
        run: Option<Box<RunSpec>>,
    },
    If {
        cond: u32,
        then_body: u32,
        else_body: u32,
        then_res: Box<[Move]>,
        else_res: Box<[Move]>,
    },
    ParallelLoop {
        lb: u32,
        ub: u32,
        step: u32,
        iv: u32,
        body: u32,
    },
    Wavefronts {
        rows: u32,
        cols: u32,
        /// Integer register receiving the linearized block index.
        block: u32,
        body: u32,
    },
    GetParallelBlocks {
        dims: Box<[u32]>,
        /// Block dependences decoded from the `block_stencil` attribute at
        /// compile time (pure decode — hoisted off the execution path).
        deps: Box<[Vec<i64>]>,
        rows: u32,
        cols: u32,
        /// Slot in the engine's schedule memo (numbered program-wide).
        slot: u32,
    },
    Call {
        func: u32,
        args: Box<[Reg]>,
        results: Box<[Reg]>,
    },
    Alloc {
        dst: u32,
        dims: Box<[DimSpec]>,
    },
    Dim {
        dst: u32,
        buf: u32,
        dim: u32,
    },
    Load {
        dst: u32,
        buf: u32,
        idx: Box<[u32]>,
    },
    Store {
        src: u32,
        buf: u32,
        idx: Box<[u32]>,
    },
    Subview {
        dst: u32,
        src: u32,
        offs: Box<[u32]>,
        sizes: Box<[u32]>,
    },
    ShiftView {
        dst: u32,
        src: u32,
        shifts: Box<[u32]>,
    },
    CopyBuf {
        src: u32,
        dst: u32,
    },
    VLoad {
        dst: u32,
        lanes: u32,
        buf: u32,
        idx: Box<[u32]>,
    },
    VStore {
        src: u32,
        lanes: u32,
        buf: u32,
        idx: Box<[u32]>,
    },
    VExtract {
        dst: u32,
        src: u32,
        lane: u32,
    },
    VBroadcast {
        dst: u32,
        lanes: u32,
        src: u32,
    },
}

/// The kind of a function argument or result at the `RtVal` boundary.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RKind {
    F64,
    Int,
    Bool,
    Vec(u32),
    Buf,
    Arr,
}

/// One compiled single-block region: an instruction tape plus the
/// registers its terminator yields.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tape {
    pub code: Vec<Instr>,
    /// Registers of the terminator operands (`scf.yield` /
    /// `func.return`), in order.
    pub term: Vec<Reg>,
}

/// One function compiled to tapes. `tapes[0]` is the entry block.
#[derive(Clone, Debug)]
pub(crate) struct BcFunc {
    pub name: String,
    pub tapes: Vec<Tape>,
    /// Entry-block argument registers, with their boundary kinds.
    pub args: Vec<(RKind, Reg)>,
    /// Boundary kinds of the results (parallel to `tapes[0].term`).
    pub results: Vec<RKind>,
    /// Register file sizes.
    pub num_f: u32,
    pub num_i: u32,
    pub num_v_slots: u32,
    pub num_b: u32,
    pub num_a: u32,
}

/// A whole module compiled to bytecode.
#[derive(Clone, Debug)]
pub(crate) struct BcProgram {
    pub funcs: Vec<BcFunc>,
}

impl BcProgram {
    pub(crate) fn lookup(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }
}

/// An `i64` array register's value. The `cols` a `cfd.get_parallel_blocks`
/// wrote carries its [`ScheduleBundle`] to the execute op that drains it.
#[derive(Clone, Debug)]
struct Arr {
    data: Arc<Vec<i64>>,
    sched: Option<Arc<ScheduleBundle>>,
}

/// Per-call register files: the whole mutable state of one frame. Cloned
/// per wavefront worker (flat `memcpy`-able vectors plus a slot table of
/// buffer views — far cheaper than cloning an `RtVal` environment).
#[derive(Clone, Debug)]
pub(crate) struct Regs {
    pub(crate) f: Vec<f64>,
    pub(crate) i: Vec<i64>,
    pub(crate) v: Vec<f64>,
    pub(crate) b: Vec<Option<BufferView>>,
    a: Vec<Option<Arr>>,
    /// Reusable index scratch for scalar/vector memory access (no
    /// per-point allocation).
    scratch: Vec<i64>,
    /// Reusable run-specialization state (plans, stripes); `Clone`
    /// hands out empty scratch, so worker frames start fresh.
    rs: Box<RunScratch>,
}

impl Regs {
    fn new(func: &BcFunc) -> Self {
        Regs {
            f: vec![0.0; func.num_f as usize],
            i: vec![0; func.num_i as usize],
            v: vec![0.0; func.num_v_slots as usize],
            b: vec![None; func.num_b as usize],
            a: vec![None; func.num_a as usize],
            scratch: Vec::with_capacity(8),
            rs: Box::default(),
        }
    }

    /// Same-frame typed register copy.
    fn mv(&mut self, m: Move) {
        match (m.dst, m.src) {
            (Reg::F(d), Reg::F(s)) => self.f[d as usize] = self.f[s as usize],
            (Reg::I(d), Reg::I(s)) => self.i[d as usize] = self.i[s as usize],
            (Reg::V { off: d, lanes }, Reg::V { off: s, .. }) => {
                self.v
                    .copy_within(s as usize..(s + lanes) as usize, d as usize);
            }
            (Reg::B(d), Reg::B(s)) => self.b[d as usize] = self.b[s as usize].clone(),
            (Reg::A(d), Reg::A(s)) => self.a[d as usize] = self.a[s as usize].clone(),
            (d, s) => unreachable!("class-mismatched move {d:?} <- {s:?}"),
        }
    }

    fn buf(&self, slot: u32) -> Result<&BufferView, ExecError> {
        self.b[slot as usize]
            .as_ref()
            .ok_or_else(|| ExecError::new("use of unset buffer register"))
    }

    fn arr(&self, slot: u32) -> Result<&Arr, ExecError> {
        self.a[slot as usize]
            .as_ref()
            .ok_or_else(|| ExecError::new("use of unset i64-array register"))
    }

    fn set_rtval(&mut self, reg: Reg, kind: RKind, val: RtVal) -> Result<(), ExecError> {
        match (kind, reg, val) {
            (RKind::F64, Reg::F(d), RtVal::F64(x)) => self.f[d as usize] = x,
            (RKind::Int, Reg::I(d), RtVal::Int(x)) => self.i[d as usize] = x,
            (RKind::Bool, Reg::I(d), RtVal::Bool(x)) => self.i[d as usize] = i64::from(x),
            (RKind::Vec(lanes), Reg::V { off, .. }, RtVal::Vec(x)) => {
                if x.len() != lanes as usize {
                    return Err(ExecError::new("vector argument lane mismatch"));
                }
                self.v[off as usize..(off + lanes) as usize].copy_from_slice(&x);
            }
            (RKind::Buf, Reg::B(d), RtVal::Buf(b)) => self.b[d as usize] = Some(b),
            (RKind::Arr, Reg::A(d), RtVal::I64Arr(data)) => {
                self.a[d as usize] = Some(Arr { data, sched: None });
            }
            (_, _, other) => {
                return Err(ExecError::new(format!(
                    "argument kind mismatch: got {other:?}"
                )))
            }
        }
        Ok(())
    }

    fn get_rtval(&self, reg: Reg, kind: RKind) -> Result<RtVal, ExecError> {
        Ok(match (kind, reg) {
            (RKind::F64, Reg::F(s)) => RtVal::F64(self.f[s as usize]),
            (RKind::Int, Reg::I(s)) => RtVal::Int(self.i[s as usize]),
            (RKind::Bool, Reg::I(s)) => RtVal::Bool(self.i[s as usize] != 0),
            (RKind::Vec(lanes), Reg::V { off, .. }) => {
                RtVal::Vec(self.v[off as usize..(off + lanes) as usize].to_vec())
            }
            (RKind::Buf, Reg::B(s)) => RtVal::Buf(
                self.b[s as usize]
                    .clone()
                    .ok_or_else(|| ExecError::new("unset buffer result"))?,
            ),
            (RKind::Arr, Reg::A(s)) => RtVal::I64Arr(
                self.a[s as usize]
                    .as_ref()
                    .map(|a| Arc::clone(&a.data))
                    .ok_or_else(|| ExecError::new("unset array result"))?,
            ),
            (k, r) => return Err(ExecError::new(format!("result kind mismatch {k:?}/{r:?}"))),
        })
    }
}

/// Copies a register value across frames (caller ↔ callee of
/// `func.call`).
fn cross_move(src_regs: &Regs, src: Reg, dst_regs: &mut Regs, dst: Reg) {
    match (dst, src) {
        (Reg::F(d), Reg::F(s)) => dst_regs.f[d as usize] = src_regs.f[s as usize],
        (Reg::I(d), Reg::I(s)) => dst_regs.i[d as usize] = src_regs.i[s as usize],
        (Reg::V { off: d, lanes }, Reg::V { off: s, .. }) => {
            dst_regs.v[d as usize..(d + lanes) as usize]
                .copy_from_slice(&src_regs.v[s as usize..(s + lanes) as usize]);
        }
        (Reg::B(d), Reg::B(s)) => dst_regs.b[d as usize] = src_regs.b[s as usize].clone(),
        (Reg::A(d), Reg::A(s)) => dst_regs.a[d as usize] = src_regs.a[s as usize].clone(),
        (d, s) => unreachable!("class-mismatched cross move {d:?} <- {s:?}"),
    }
}

/// The bytecode engine: a compiled program plus the same `stats`
/// surface as [`crate::interp::Interpreter`], and a wavefront worker
/// count. Compile once, call many times.
#[derive(Debug)]
pub struct BytecodeEngine {
    program: BcProgram,
    /// Accumulated dynamic statistics (identical to the interpreter's on
    /// the same module and inputs).
    pub stats: ExecStats,
    threads: usize,
    obs: Obs,
    scheduler: Scheduler,
    /// Run-specialization scratch retired by finished frames and handed
    /// to new ones, so plan caches survive across calls: plan slots are
    /// indexed by the loop numbers of `program` (owned by this engine
    /// for the pool's whole lifetime), each plan re-validates by run
    /// length, aliasing signature, and invariant values, and a hit
    /// patches every base and tile handle from the current frame's
    /// buffers. Without pooling, every call pays one cold plan build per
    /// specialized loop — at short-run geometries that cold build is
    /// the dominant per-point cost of the wide (vf) tapes.
    #[allow(clippy::vec_box)] // boxed on purpose: frames hold `Box<RunScratch>`,
    // so pool push/pop transfers one pointer instead of moving the arena struct
    scratch_pool: Mutex<Vec<Box<RunScratch>>>,
    /// The bundle each `cfd.get_parallel_blocks` op of `program` last
    /// computed, reused while the op's grid is unchanged.
    schedules: Mutex<Vec<Option<Arc<ScheduleBundle>>>>,
}

impl BytecodeEngine {
    /// Compiles every function of `module` to bytecode (sequential
    /// wavefront execution).
    ///
    /// # Errors
    /// Returns [`BcCompileError`] when the module contains ops outside
    /// the lowered subset (e.g. structured `cfd.stencil` reference ops —
    /// those stay on the tree-walking interpreter).
    pub fn compile(module: &Module) -> Result<Self, BcCompileError> {
        Self::compile_with_threads(module, 1)
    }

    /// [`BytecodeEngine::compile`] with a wavefront worker count.
    ///
    /// # Errors
    /// See [`BytecodeEngine::compile`].
    pub fn compile_with_threads(module: &Module, threads: usize) -> Result<Self, BcCompileError> {
        Self::compile_with_obs(module, threads, Obs::off())
    }

    /// [`BytecodeEngine::compile_with_threads`] recording wavefront and
    /// schedule timings into `obs`.
    ///
    /// # Errors
    /// See [`BytecodeEngine::compile`].
    pub fn compile_with_obs(
        module: &Module,
        threads: usize,
        obs: Obs,
    ) -> Result<Self, BcCompileError> {
        Self::compile_with_opts(module, threads, obs, BcOptions::default())
    }

    /// [`BytecodeEngine::compile_with_obs`] with explicit compile
    /// options — `opts.specialize_runs = false` forces dispatch-per-point
    /// execution (the pre-§4f engine), kept for differential tests and
    /// for measuring what run specialization buys.
    ///
    /// # Errors
    /// See [`BytecodeEngine::compile`].
    pub fn compile_with_opts(
        module: &Module,
        threads: usize,
        obs: Obs,
        opts: BcOptions,
    ) -> Result<Self, BcCompileError> {
        Ok(BytecodeEngine {
            program: compile_program(module, opts, &obs)?,
            stats: ExecStats::default(),
            threads: threads.max(1),
            obs,
            scheduler: Scheduler::Levels,
            scratch_pool: Mutex::new(Vec::new()),
            schedules: Mutex::new(Vec::new()),
        })
    }

    /// Selects the wavefront scheduler mode (a pure runtime knob — the
    /// compiled program is unchanged; results are bit-identical).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The wavefront worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The wavefront scheduler mode.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// The execution context of one call: a pool over this engine's
    /// workers, and the engine's cross-call scratch and schedule memo.
    fn ctx(&self) -> BcCtx<'_> {
        BcCtx {
            program: &self.program,
            pool: WavefrontPool::with_opts(self.threads, self.obs.clone(), self.scheduler),
            scratch: &self.scratch_pool,
            schedules: &self.schedules,
        }
    }

    /// Calls a compiled function by name: [`Self::call_sweeps`] at one
    /// sweep.
    ///
    /// # Errors
    /// Fails when the function is missing, arity/kind mismatches, or a
    /// runtime check (division by zero, unset register) trips.
    pub fn call(&mut self, name: &str, args: Vec<RtVal>) -> Result<Vec<RtVal>, ExecError> {
        self.call_sweeps(name, args, 1)
    }

    /// Calls a compiled function `sweeps` times over the same arguments
    /// as one fused dataflow drain of the sweep-extended dependence
    /// graph, returning the last call's results. Semantically identical
    /// to `sweeps` back-to-back calls (buffers are updated in place
    /// through the shared views; statistics match too), but block `b` of
    /// sweep `s+1` starts as soon as its lex-forward neighborhood of
    /// sweep `s` retires — the per-call fixed costs (frame setup, pool
    /// construction, prefix re-execution, schedule lookup) are paid once
    /// per batch instead of once per sweep. One sweep is a plain call.
    ///
    /// Batching requires the entry tape to be a *pure prefix* (register
    /// arithmetic, views, `cfd.get_parallel_blocks`) ending in exactly
    /// one `scf.execute_wavefronts`; any other shape — or CSR arrays
    /// passed in as arguments, which carry no bundle — falls back to
    /// eager drains and reports a `sweep-batch-fallback` obs event.
    ///
    /// # Errors
    /// As [`Self::call`], and for zero sweeps; the first failing sweep
    /// aborts the batch.
    pub fn call_sweeps(
        &mut self,
        name: &str,
        args: Vec<RtVal>,
        sweeps: usize,
    ) -> Result<Vec<RtVal>, ExecError> {
        if sweeps == 0 {
            return Err(ExecError::new("sweep batch needs at least one sweep"));
        }
        let fi = self
            .program
            .lookup(name)
            .ok_or_else(|| ExecError::new(format!("no function `{name}`")))?;
        let mut stats = ExecStats::default();
        let out = if sweeps > 1 && batchable_wavefronts(&self.program.funcs[fi]).is_none() {
            self.obs
                .event("sweep-batch-fallback", "entry tape is not a pure wavefront sweep");
            let ctx = self.ctx();
            (1..sweeps)
                .try_for_each(|_| ctx.call(fi, args.clone(), 1, &mut stats).map(drop))
                .and_then(|()| ctx.call(fi, args, 1, &mut stats))
        } else {
            self.ctx().call(fi, args, sweeps, &mut stats)
        };
        // Merge even on error so partially executed work is accounted.
        self.stats.merge(&stats);
        out
    }
}

/// The trailing `Instr::Wavefronts` of `func`'s entry tape, when the
/// function is sweep-batchable: the wavefront sweep must be the last
/// instruction, and everything before it must be re-executable without
/// observing buffer contents — register arithmetic, constants, view
/// construction, `memref.dim`, and the (memoized, pure) schedule
/// computation. Buffer loads are excluded on purpose: a prefix that read
/// a cell the sweep overwrites would see different values on the second
/// eager call, so batching it would not be equivalent.
fn batchable_wavefronts(func: &BcFunc) -> Option<(u32, u32, u32, u32)> {
    let code = &func.tapes[0].code;
    let Some(Instr::Wavefronts {
        rows,
        cols,
        block,
        body,
    }) = code.last()
    else {
        return None;
    };
    code[..code.len() - 1]
        .iter()
        .all(|i| {
            matches!(
                i,
                Instr::ConstF { .. }
                    | Instr::ConstI { .. }
                    | Instr::ConstV { .. }
                    | Instr::BinF { .. }
                    | Instr::BinV { .. }
                    | Instr::UnF { .. }
                    | Instr::UnV { .. }
                    | Instr::FmaF { .. }
                    | Instr::FmaV { .. }
                    | Instr::BinI { .. }
                    | Instr::CmpI { .. }
                    | Instr::CmpF { .. }
                    | Instr::SelF { .. }
                    | Instr::SelI { .. }
                    | Instr::SelV { .. }
                    | Instr::MoveI { .. }
                    | Instr::SiToFp { .. }
                    | Instr::Dim { .. }
                    | Instr::GetParallelBlocks { .. }
                    | Instr::Subview { .. }
                    | Instr::ShiftView { .. }
                    | Instr::VExtract { .. }
                    | Instr::VBroadcast { .. }
            )
        })
        .then_some((*rows, *cols, *block, *body))
}

/// Read-only execution context shared by all threads.
struct BcCtx<'p> {
    program: &'p BcProgram,
    pool: WavefrontPool,
    /// The engine's cross-call [`RunScratch`] pool (see the field doc on
    /// [`BytecodeEngine`]). Frames pop a warm scratch on entry and push
    /// it back when they finish.
    #[allow(clippy::vec_box)] // see `BytecodeEngine::scratch_pool`
    scratch: &'p Mutex<Vec<Box<RunScratch>>>,
    /// The engine's schedule memo (see [`BytecodeEngine`]).
    schedules: &'p Mutex<Vec<Option<Arc<ScheduleBundle>>>>,
}

impl BcCtx<'_> {
    /// Hands a new frame a warm run scratch from the engine pool, when
    /// one is free.
    fn checkout(&self, regs: &mut Regs) {
        if let Some(rs) = self.scratch.lock().unwrap().pop() {
            regs.rs = rs;
        }
    }

    /// The bundle of `cfd.get_parallel_blocks` number `slot` on `grid`:
    /// the memoized one while the grid is unchanged, else a fresh one.
    fn schedule(&self, slot: usize, grid: &[usize], deps: &[Vec<i64>]) -> Arc<ScheduleBundle> {
        let mut memo = self.schedules.lock().expect("schedule memo poisoned by a panicked worker");
        let len = memo.len().max(slot + 1);
        memo.resize(len, None);
        match &memo[slot] {
            Some(b) if b.graph.grid() == grid => Arc::clone(b),
            _ => Arc::clone(memo[slot].insert(Arc::new(ScheduleBundle::new(grid, deps)))),
        }
    }

    /// Returns a finished frame's run scratch to the engine pool, first
    /// folding its plan-cache counters into the collector.
    fn retire(&self, regs: &mut Regs) {
        let mut rs = std::mem::take(&mut regs.rs);
        let builds = std::mem::take(&mut rs.builds);
        let reuses = std::mem::take(&mut rs.reuses);
        self.pool.obs().count_plans(builds, reuses);
        self.scratch.lock().unwrap().push(rs);
    }

    /// Builds one frame for function `fi` and runs `sweeps` sweeps in
    /// it. One sweep runs the entry tape. More sweeps need a tape that
    /// [`batchable_wavefronts`] accepts (the caller checks): the pure
    /// prefix runs once, its statistics merged `sweeps` times to match
    /// what eager re-execution would count, and the trailing
    /// `scf.execute_wavefronts` drains through the sweep-extended graph.
    fn call(
        &self,
        fi: usize,
        args: Vec<RtVal>,
        sweeps: usize,
        stats: &mut ExecStats,
    ) -> Result<Vec<RtVal>, ExecError> {
        let func = &self.program.funcs[fi];
        if args.len() != func.args.len() {
            return Err(ExecError::new(format!(
                "`{}` expects {} args, got {}",
                func.name,
                func.args.len(),
                args.len()
            )));
        }
        // Trace events emitted on the calling thread outside the
        // wavefront worker loops (plan-cache activity of straight-line
        // runs) land on the driver lane; workers install their own
        // tracers over this one for the duration of a parallel region.
        let _tracer = trace::install(self.pool.obs().worker_tracer(trace::DRIVER));
        let mut regs = Regs::new(func);
        self.checkout(&mut regs);
        for ((kind, reg), val) in func.args.iter().zip(args) {
            regs.set_rtval(*reg, *kind, val)?;
        }
        let run = if sweeps == 1 {
            self.run_tape(func, 0, &mut regs, stats)
        } else {
            let (rows, cols, block, body) =
                batchable_wavefronts(func).expect("caller checked batchability");
            let mut prefix_stats = ExecStats::default();
            let prefix_len = func.tapes[0].code.len() - 1;
            self.run_tape_prefix(func, 0, prefix_len, &mut regs, &mut prefix_stats)
                .and_then(|()| {
                    for _ in 0..sweeps {
                        stats.merge(&prefix_stats);
                    }
                    self.exec_wavefronts(func, rows, cols, block, body, sweeps, &mut regs, stats)
                })
        };
        self.retire(&mut regs);
        run?;
        func.tapes[0]
            .term
            .iter()
            .zip(&func.results)
            .map(|(&r, &k)| regs.get_rtval(r, k))
            .collect()
    }

    /// Executes one tape over the frame's registers. The inner loop is a
    /// direct match over [`Instr`] — no value boxing, no allocation.
    fn run_tape(
        &self,
        func: &BcFunc,
        tape: u32,
        regs: &mut Regs,
        stats: &mut ExecStats,
    ) -> Result<(), ExecError> {
        self.run_tape_prefix(func, tape, func.tapes[tape as usize].code.len(), regs, stats)
    }

    /// [`Self::run_tape`] over the first `count` instructions only — the
    /// sweep-batched call path runs the pure prefix of the entry tape
    /// once, then drives the trailing `Instr::Wavefronts` itself.
    #[allow(clippy::too_many_lines)]
    fn run_tape_prefix(
        &self,
        func: &BcFunc,
        tape: u32,
        count: usize,
        regs: &mut Regs,
        stats: &mut ExecStats,
    ) -> Result<(), ExecError> {
        for instr in &func.tapes[tape as usize].code[..count] {
            match instr {
                Instr::ConstF { dst, v } => regs.f[*dst as usize] = *v,
                Instr::ConstI { dst, v } => regs.i[*dst as usize] = *v,
                Instr::ConstV { off, lanes, v } => {
                    regs.v[*off as usize..(*off + *lanes) as usize].fill(*v);
                }
                Instr::BinF { op, dst, a, b } => {
                    stats.scalar_flops += 1;
                    regs.f[*dst as usize] = op.apply(regs.f[*a as usize], regs.f[*b as usize]);
                }
                Instr::BinV {
                    op,
                    dst,
                    a,
                    b,
                    lanes,
                } => {
                    stats.vector_flops += 1;
                    for l in 0..*lanes as usize {
                        regs.v[*dst as usize + l] =
                            op.apply(regs.v[*a as usize + l], regs.v[*b as usize + l]);
                    }
                }
                Instr::UnF { op, dst, a } => {
                    stats.scalar_flops += 1;
                    regs.f[*dst as usize] = op.apply(regs.f[*a as usize]);
                }
                Instr::UnV { op, dst, a, lanes } => {
                    stats.vector_flops += 1;
                    for l in 0..*lanes as usize {
                        regs.v[*dst as usize + l] = op.apply(regs.v[*a as usize + l]);
                    }
                }
                Instr::FmaF { dst, a, b, c } => {
                    stats.scalar_flops += 1;
                    regs.f[*dst as usize] =
                        regs.f[*a as usize].mul_add(regs.f[*b as usize], regs.f[*c as usize]);
                }
                Instr::FmaV {
                    dst,
                    a,
                    b,
                    c,
                    lanes,
                } => {
                    stats.vector_flops += 1;
                    for l in 0..*lanes as usize {
                        regs.v[*dst as usize + l] = regs.v[*a as usize + l]
                            .mul_add(regs.v[*b as usize + l], regs.v[*c as usize + l]);
                    }
                }
                Instr::BinI { op, dst, a, b } => {
                    stats.index_ops += 1;
                    let a = regs.i[*a as usize];
                    let b = regs.i[*b as usize];
                    regs.i[*dst as usize] = match op {
                        IOp::Add => a + b,
                        IOp::Sub => a - b,
                        IOp::Mul => a * b,
                        IOp::FloorDiv => {
                            if b == 0 {
                                return Err(ExecError::new("division by zero"));
                            }
                            a.div_euclid(b)
                        }
                        IOp::CeilDiv => {
                            if b == 0 {
                                return Err(ExecError::new("division by zero"));
                            }
                            (a + b - 1).div_euclid(b)
                        }
                        IOp::Rem => {
                            if b == 0 {
                                return Err(ExecError::new("remainder by zero"));
                            }
                            a.rem_euclid(b)
                        }
                        IOp::Min => a.min(b),
                        IOp::Max => a.max(b),
                    };
                }
                Instr::CmpI { pred, dst, a, b } => {
                    regs.i[*dst as usize] =
                        i64::from(pred.eval_int(regs.i[*a as usize], regs.i[*b as usize]));
                }
                Instr::CmpF { pred, dst, a, b } => {
                    regs.i[*dst as usize] =
                        i64::from(pred.eval_float(regs.f[*a as usize], regs.f[*b as usize]));
                }
                Instr::SelF { dst, cond, t, e } => {
                    let s = if regs.i[*cond as usize] != 0 { t } else { e };
                    regs.f[*dst as usize] = regs.f[*s as usize];
                }
                Instr::SelI { dst, cond, t, e } => {
                    let s = if regs.i[*cond as usize] != 0 { t } else { e };
                    regs.i[*dst as usize] = regs.i[*s as usize];
                }
                Instr::SelV {
                    dst,
                    cond,
                    t,
                    e,
                    lanes,
                } => {
                    let s = if regs.i[*cond as usize] != 0 { t } else { e };
                    regs.v
                        .copy_within(*s as usize..(*s + *lanes) as usize, *dst as usize);
                }
                Instr::MoveI { dst, src } => regs.i[*dst as usize] = regs.i[*src as usize],
                Instr::SiToFp { dst, src } => {
                    regs.f[*dst as usize] = regs.i[*src as usize] as f64;
                }
                Instr::For {
                    lb,
                    ub,
                    step,
                    iv,
                    body,
                    inits,
                    loopback,
                    results,
                    run,
                } => {
                    let lb = regs.i[*lb as usize];
                    let ub = regs.i[*ub as usize];
                    let step = regs.i[*step as usize];
                    if step <= 0 {
                        return Err(ExecError::new("scf.for requires a positive step"));
                    }
                    if let Some(spec) = run {
                        debug_assert!(
                            inits.is_empty() && loopback.is_empty() && results.is_empty(),
                            "run specialization requires a loop without iter args"
                        );
                        if self.exec_run(spec, lb, ub, step, *iv, regs, stats) {
                            continue;
                        }
                    }
                    for m in inits.iter() {
                        regs.mv(*m);
                    }
                    let mut i = lb;
                    while i < ub {
                        regs.i[*iv as usize] = i;
                        self.run_tape(func, *body, regs, stats)?;
                        for m in loopback.iter() {
                            regs.mv(*m);
                        }
                        i += step;
                    }
                    for m in results.iter() {
                        regs.mv(*m);
                    }
                }
                Instr::If {
                    cond,
                    then_body,
                    else_body,
                    then_res,
                    else_res,
                } => {
                    let (body, moves) = if regs.i[*cond as usize] != 0 {
                        (*then_body, then_res)
                    } else {
                        (*else_body, else_res)
                    };
                    self.run_tape(func, body, regs, stats)?;
                    for m in moves.iter() {
                        regs.mv(*m);
                    }
                }
                Instr::ParallelLoop {
                    lb,
                    ub,
                    step,
                    iv,
                    body,
                } => {
                    let lb = regs.i[*lb as usize];
                    let ub = regs.i[*ub as usize];
                    let step = regs.i[*step as usize];
                    if step <= 0 {
                        return Err(ExecError::new("scf.parallel requires a positive step"));
                    }
                    let mut i = lb;
                    while i < ub {
                        regs.i[*iv as usize] = i;
                        self.run_tape(func, *body, regs, stats)?;
                        i += step;
                    }
                }
                Instr::Wavefronts {
                    rows,
                    cols,
                    block,
                    body,
                } => {
                    self.exec_wavefronts(func, *rows, *cols, *block, *body, 1, regs, stats)?;
                }
                Instr::GetParallelBlocks {
                    dims,
                    deps,
                    rows,
                    cols,
                    slot,
                } => {
                    let grid: Vec<usize> = dims
                        .iter()
                        .map(|&r| regs.i[r as usize].max(1) as usize)
                        .collect();
                    let mut span = self.pool.obs().span("run:schedule");
                    let bundle = self.schedule(*slot as usize, &grid, deps);
                    span.note("levels", bundle.num_levels() as i64);
                    span.note("blocks", grid.iter().product::<usize>() as i64);
                    drop(span);
                    stats.schedules_computed += 1;
                    let (r, c) = (Arc::clone(&bundle.rows), Arc::clone(&bundle.cols));
                    regs.a[*rows as usize] = Some(Arr { data: r, sched: None });
                    regs.a[*cols as usize] = Some(Arr { data: c, sched: Some(bundle) });
                }
                Instr::Call {
                    func: callee_idx,
                    args,
                    results,
                } => {
                    let callee = &self.program.funcs[*callee_idx as usize];
                    let mut callee_regs = Regs::new(callee);
                    self.checkout(&mut callee_regs);
                    for (&src, (_, dst)) in args.iter().zip(&callee.args) {
                        cross_move(regs, src, &mut callee_regs, *dst);
                    }
                    let run = self.run_tape(callee, 0, &mut callee_regs, stats);
                    self.retire(&mut callee_regs);
                    run?;
                    let term = &callee.tapes[0].term;
                    for (&src, &dst) in term.iter().zip(results.iter()) {
                        cross_move(&callee_regs, src, regs, dst);
                    }
                }
                Instr::Alloc { dst, dims } => {
                    let shape: Vec<usize> = dims
                        .iter()
                        .map(|d| match d {
                            DimSpec::Static(n) => *n,
                            DimSpec::Dyn(r) => regs.i[*r as usize] as usize,
                        })
                        .collect();
                    regs.b[*dst as usize] = Some(BufferView::alloc(&shape));
                }
                Instr::Dim { dst, buf, dim } => {
                    regs.i[*dst as usize] = regs.buf(*buf)?.dim(*dim as usize) as i64;
                }
                Instr::Load { dst, buf, idx } => {
                    stats.loads += 1;
                    let b = regs.b[*buf as usize]
                        .as_ref()
                        .ok_or_else(|| ExecError::new("use of unset buffer register"))?;
                    let v = b.load_iter(idx.iter().map(|&r| regs.i[r as usize]));
                    regs.f[*dst as usize] = v;
                }
                Instr::Store { src, buf, idx } => {
                    stats.stores += 1;
                    let v = regs.f[*src as usize];
                    let b = regs.b[*buf as usize]
                        .as_ref()
                        .ok_or_else(|| ExecError::new("use of unset buffer register"))?;
                    b.store_iter(idx.iter().map(|&r| regs.i[r as usize]), v);
                }
                Instr::Subview {
                    dst,
                    src,
                    offs,
                    sizes,
                } => {
                    regs.scratch.clear();
                    for &r in offs.iter() {
                        regs.scratch.push(regs.i[r as usize]);
                    }
                    let sizes: Vec<usize> = sizes
                        .iter()
                        .map(|&r| regs.i[r as usize] as usize)
                        .collect();
                    let view = regs.buf(*src)?.subview(&regs.scratch, &sizes);
                    regs.b[*dst as usize] = Some(view);
                }
                Instr::ShiftView { dst, src, shifts } => {
                    regs.scratch.clear();
                    for &r in shifts.iter() {
                        regs.scratch.push(regs.i[r as usize]);
                    }
                    let view = regs.buf(*src)?.shift_view(&regs.scratch);
                    regs.b[*dst as usize] = Some(view);
                }
                Instr::CopyBuf { src, dst } => {
                    regs.buf(*dst)?.copy_from(regs.buf(*src)?);
                }
                Instr::VLoad {
                    dst,
                    lanes,
                    buf,
                    idx,
                } => {
                    stats.vector_loads += 1;
                    regs.scratch.clear();
                    for &r in idx.iter() {
                        regs.scratch.push(regs.i[r as usize]);
                    }
                    let b = regs.b[*buf as usize]
                        .as_ref()
                        .ok_or_else(|| ExecError::new("use of unset buffer register"))?;
                    let out = &mut regs.v[*dst as usize..(*dst + *lanes) as usize];
                    b.load_vector_into(&regs.scratch, out);
                }
                Instr::VStore {
                    src,
                    lanes,
                    buf,
                    idx,
                } => {
                    stats.vector_stores += 1;
                    regs.scratch.clear();
                    for &r in idx.iter() {
                        regs.scratch.push(regs.i[r as usize]);
                    }
                    let b = regs.b[*buf as usize]
                        .as_ref()
                        .ok_or_else(|| ExecError::new("use of unset buffer register"))?;
                    let vals = &regs.v[*src as usize..(*src + *lanes) as usize];
                    b.store_vector(&regs.scratch, vals);
                }
                Instr::VExtract { dst, src, lane } => {
                    regs.f[*dst as usize] = regs.v[(*src + *lane) as usize];
                }
                Instr::VBroadcast { dst, lanes, src } => {
                    let s = regs.f[*src as usize];
                    regs.v[*dst as usize..(*dst + *lanes) as usize].fill(s);
                }
            }
        }
        Ok(())
    }

    /// Executes one specialized run (`n` innermost-loop iterations in a
    /// single dispatch). Returns `false` — with the frame untouched
    /// apart from body-local probe registers, which the generic loop
    /// recomputes anyway — when the run is too short or cannot be
    /// planned (probe error, unset buffer); the caller then takes the
    /// generic point-by-point path, reproducing identical results,
    /// statistics, and error behavior.
    ///
    /// Out-of-range accesses panic here (at the run endpoints) instead
    /// of at the offending iteration; success paths are bit-identical.
    #[allow(clippy::too_many_arguments)]
    fn exec_run(
        &self,
        spec: &RunSpec,
        lb: i64,
        ub: i64,
        step: i64,
        iv: u32,
        regs: &mut Regs,
        stats: &mut ExecStats,
    ) -> bool {
        if ub <= lb {
            return false;
        }
        let n = ((ub - lb + step - 1) / step) as usize;
        if n < runspec::MIN_RUN {
            return false;
        }
        // Negative verdict: a loop that failed probing or buffer
        // resolution once will fail the same way every sweep (those
        // depend on the spec and the frame's buffer bindings, not on
        // n), so skip straight to the always-correct generic path
        // instead of re-paying the probe + resolve cost each run.
        let slot = spec.slot as usize;
        if regs.rs.slots.len() <= slot {
            regs.rs.slots.resize_with(slot + 1, RunPlan::default);
        }
        if regs.rs.slots[slot].declined || !Self::resolve_run(spec, n, lb, step, iv, regs) {
            regs.rs.slots[slot].declined = true;
            return false;
        }
        let rs = &mut *regs.rs;
        let plan = &mut rs.slots[slot];
        let hit = build_plan(spec, n, &regs.f, &regs.v, plan);
        *if hit { &mut rs.reuses } else { &mut rs.builds } += 1;
        if self.pool.obs().detail_enabled() {
            // Consecutive hits coalesce into one event (a tail compare,
            // no clock read), keeping the per-run Trace cost flat; the
            // compile duration itself is emitted inside `build_plan`.
            if hit {
                trace::coalesce(TraceKind::PlanHit, spec.slot);
            } else {
                trace::instant(TraceKind::PlanMiss, spec.slot, n as u32);
            }
        }
        let mut t0 = 0usize;
        while t0 < n {
            let m = (n - t0).min(runspec::CHUNK);
            exec_streamed(&plan.stream, &mut plan.arena, t0, m);
            exec_recurrent(
                &plan.rec_steady,
                &plan.prelude,
                &plan.tab,
                &spec.acc_map,
                &mut plan.arena,
                t0,
                m,
            );
            t0 += m;
        }
        let n = n as u64;
        stats.loads += spec.loads_per_iter * n;
        stats.stores += spec.stores_per_iter * n;
        stats.scalar_flops += spec.flops_per_iter * n;
        stats.index_ops += spec.index_ops_per_iter * n;
        stats.vector_loads += spec.vloads_per_iter * n;
        stats.vector_stores += spec.vstores_per_iter * n;
        stats.vector_flops += spec.vflops_per_iter * n;
        true
    }

    /// Probes the body's integer/constant subset at `lb`, then
    /// re-evaluates only its iv-dependent part at `lb + step`; the index
    /// deltas resolve every merged access-table entry to flat base at
    /// t = 0, per-iteration flat delta, and raw tile view, into the
    /// loop's slot. The probe counts no stats — the caller bulk-adds
    /// counts identical to n generic iterations. Returns `false` on a
    /// probe error (e.g. division by zero) or an unset buffer, so the
    /// generic loop raises it with exact accounting.
    ///
    /// Both run endpoints go through the checked indexing path — every
    /// per-dimension index is linear in t, so in-bounds endpoints (at
    /// lanes 0 and `lanes − 1`) bound all n iterations of every member
    /// access. The table collapses lane-unrolled access groups, so the
    /// per-run resolve/compare/patch cost is per *group*, not per
    /// unrolled op.
    fn resolve_run(spec: &RunSpec, n: usize, lb: i64, step: i64, iv: u32, regs: &mut Regs) -> bool {
        let Regs { f, i, v, b, rs, .. } = regs;
        i[iv as usize] = lb;
        if !run_probe(&spec.probe, i, f, v, b) {
            return false;
        }
        rs.idx0.clear();
        rs.idx0.extend(spec.idx_regs.iter().map(|&r| i[r as usize]));
        i[iv as usize] = lb + step;
        if !run_probe(&spec.probe_iv, i, f, v, b) {
            return false;
        }
        rs.idx1.clear();
        rs.idx1.extend(spec.idx_regs.iter().map(|&r| i[r as usize]));
        let tab = &mut rs.slots[spec.slot as usize].tab;
        tab.clear();
        let mut cursor = 0usize;
        for (ti, a) in spec.accs.iter().enumerate() {
            let Some(view) = b[a.buf as usize].as_ref() else {
                return false;
            };
            let i0 = &rs.idx0[cursor..cursor + a.idx.len()];
            let i1 = &rs.idx1[cursor..cursor + a.idx.len()];
            cursor += a.idx.len();
            let (base, delta, lane_stride) = view.resolve_run_lanes(i0, i1, n, a.lanes as usize);
            #[cfg(debug_assertions)]
            if a.store {
                crate::buffer::overlap::pin_storage(view.storage());
            }
            tab.push(AccessPlan {
                base,
                delta,
                lane_stride,
                lanes: a.lanes,
                tile: view.tile_view(),
                pos: ti as u32,
                store: a.store,
            });
        }
        true
    }

    /// `sweeps` executions of one `scf.execute_wavefronts` (1 for an
    /// eager call) through [`parallel::execute_wavefronts`] — mirrors
    /// the interpreter exactly, including how statistics are attributed:
    /// the coordinator counts levels (from the CSR row pointer, once per
    /// sweep, whichever way the blocks run); workers count the blocks
    /// they run in private frames that are merged here — so counters are
    /// scheduler-, batching- and thread-count-invariant.
    #[allow(clippy::too_many_arguments)]
    fn exec_wavefronts(
        &self,
        func: &BcFunc,
        rows: u32,
        cols: u32,
        block: u32,
        body: u32,
        sweeps: usize,
        regs: &mut Regs,
        stats: &mut ExecStats,
    ) -> Result<(), ExecError> {
        let (rows, cols) = (&regs.arr(rows)?.data, regs.arr(cols)?);
        stats.wavefront_levels += (sweeps * (rows.len() - 1)) as u64;
        // Each worker gets a clone of the register files: tape-local
        // registers are written per block but never read across blocks
        // (SSA dominance), so discarding the clones afterwards matches
        // sequential semantics.
        let base: &Regs = regs;
        parallel::execute_wavefronts(
            &self.pool,
            rows,
            &cols.data,
            cols.sched.as_deref(),
            sweeps,
            || {
                let mut r = base.clone();
                self.checkout(&mut r);
                (r, ExecStats::default())
            },
            |state: &mut (Regs, ExecStats), b| {
                let (worker_regs, worker_stats) = state;
                worker_stats.blocks_executed += 1;
                worker_regs.i[block as usize] = b as i64;
                self.run_tape(func, body, worker_regs, worker_stats)
            },
            |(mut worker_regs, worker_stats)| {
                self.retire(&mut worker_regs);
                stats.merge(&worker_stats);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instencil_ir::{FuncBuilder, Type};

    fn engine_for(build: impl FnOnce(&mut Module)) -> BytecodeEngine {
        let mut m = Module::new("t");
        build(&mut m);
        m.verify().unwrap();
        BytecodeEngine::compile(&m).unwrap()
    }

    #[test]
    fn arithmetic_and_loop() {
        let mut eng = engine_for(|m| {
            let mut fb = FuncBuilder::new("f", vec![], vec![Type::F64]);
            let c0 = fb.const_index(0);
            let c10 = fb.const_index(10);
            let c1 = fb.const_index(1);
            let acc0 = fb.const_f64(0.0);
            let r = fb.build_for(c0, c10, c1, vec![acc0], |fb, iv, iters| {
                let x = fb.index_to_f64(iv);
                vec![fb.addf(iters[0], x)]
            });
            fb.ret(vec![r[0]]);
            m.push_func(fb.finish());
        });
        let out = eng.call("f", vec![]).unwrap();
        assert_eq!(out[0].as_f64(), 45.0);
        assert_eq!(eng.stats.scalar_flops, 10);
    }

    #[test]
    fn if_and_compare() {
        let mut eng = engine_for(|m| {
            let mut fb = FuncBuilder::new("f", vec![], vec![Type::F64]);
            let a = fb.const_f64(3.0);
            let b = fb.const_f64(5.0);
            let c = fb.cmpf(CmpPred::Lt, a, b);
            let r = fb.build_if(
                c,
                vec![Type::F64],
                |fb| vec![fb.const_f64(1.0)],
                |fb| vec![fb.const_f64(-1.0)],
            );
            fb.ret(vec![r[0]]);
            m.push_func(fb.finish());
        });
        assert_eq!(eng.call("f", vec![]).unwrap()[0].as_f64(), 1.0);
    }

    #[test]
    fn memory_and_vectors() {
        let mut eng = engine_for(|m| {
            let m2 = Type::memref_dyn(Type::F64, 2);
            let mut fb = FuncBuilder::new("f", vec![m2], vec![Type::F64]);
            let buf = fb.arg(0);
            let i0 = fb.const_index(0);
            let i1 = fb.const_index(1);
            let v = fb.transfer_read(buf, &[i0, i0], 4);
            let two = fb.const_f64_vector(2.0, 4);
            let scaled = fb.mulf(v, two);
            fb.transfer_write_mem(scaled, buf, &[i1, i0]);
            let x = fb.vec_extract(scaled, 3);
            fb.ret(vec![x]);
            m.push_func(fb.finish());
        });
        let b = BufferView::from_data(&[2, 4], (0..8).map(f64::from).collect());
        let out = eng.call("f", vec![RtVal::Buf(b.clone())]).unwrap();
        assert_eq!(out[0].as_f64(), 6.0);
        assert_eq!(b.to_vec()[4..], [0.0, 2.0, 4.0, 6.0]);
        assert_eq!(eng.stats.vector_loads, 1);
        assert_eq!(eng.stats.vector_stores, 1);
        assert_eq!(eng.stats.vector_flops, 1);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut eng = engine_for(|m| {
            let mut fb = FuncBuilder::new("f", vec![], vec![Type::Index]);
            let a = fb.const_index(3);
            let z = fb.const_index(0);
            let q = fb.floordiv(a, z);
            fb.ret(vec![q]);
            m.push_func(fb.finish());
        });
        let e = eng.call("f", vec![]).unwrap_err();
        assert!(e.message.contains("division by zero"), "{e}");
    }

    #[test]
    fn missing_function_is_an_error() {
        let mut eng = engine_for(|_| {});
        assert!(eng.call("nope", vec![]).is_err());
    }

    #[test]
    fn calls_pass_arguments_and_results() {
        let mut eng = engine_for(|m| {
            let mut g = FuncBuilder::new("square", vec![Type::F64], vec![Type::F64]);
            let x = g.arg(0);
            let y = g.mulf(x, x);
            g.ret(vec![y]);
            m.push_func(g.finish());
            let mut f = FuncBuilder::new("f", vec![Type::F64, Type::F64], vec![Type::F64]);
            let a = f.arg(0);
            let b = f.arg(1);
            let sa = f.call("square", vec![a], vec![Type::F64]);
            let sb = f.call("square", vec![b], vec![Type::F64]);
            let s = f.addf(sa[0], sb[0]);
            f.ret(vec![s]);
            m.push_func(f.finish());
        });
        let out = eng
            .call("f", vec![RtVal::F64(3.0), RtVal::F64(4.0)])
            .unwrap();
        assert_eq!(out[0].as_f64(), 25.0);
        // One arity check serves the eager and the multi-sweep call.
        let eager = eng.call("f", vec![RtVal::F64(3.0)]).unwrap_err();
        let batched = eng.call_sweeps("f", vec![RtVal::F64(3.0)], 3).unwrap_err();
        assert_eq!(eager.message, "`f` expects 2 args, got 1");
        assert_eq!(batched.message, eager.message);
    }

    #[test]
    fn get_parallel_blocks_and_wavefronts() {
        let mut eng = engine_for(|m| {
            let mut fb = FuncBuilder::new("f", vec![], vec![]);
            let n = fb.const_index(3);
            let (_rows, _cols) = instencil_core::ops::build_get_parallel_blocks(
                &mut fb,
                &[n, n],
                vec![3, 3],
                vec![0, 0, 0, -1, 0, 0, 0, -1, 0],
            );
            fb.ret(vec![]);
            m.push_func(fb.finish());
        });
        eng.call("f", vec![]).unwrap();
        assert_eq!(eng.stats.schedules_computed, 1);
    }

    #[test]
    fn schedule_memo_is_per_op_per_grid_and_per_engine() {
        // `f(n)` computes the 5-point schedule of an n x n block grid.
        let mut m = Module::new("t");
        let mut fb = FuncBuilder::new("f", vec![Type::Index], vec![]);
        let n = fb.arg(0);
        let deps = vec![0, 0, 0, -1, 0, 0, 0, -1, 0];
        instencil_core::ops::build_get_parallel_blocks(&mut fb, &[n, n], vec![3, 3], deps);
        fb.ret(vec![]);
        m.push_func(fb.finish());
        m.verify().unwrap();
        // Calls `f(n)` and returns the bundle in the op's memo slot.
        let run = |eng: &mut BytecodeEngine, n| {
            eng.call("f", vec![RtVal::Int(n)]).unwrap();
            eng.schedules.lock().unwrap()[0].clone().unwrap()
        };
        let mut a = BytecodeEngine::compile(&m).unwrap();
        let first = run(&mut a, 3);
        assert!(Arc::ptr_eq(&first, &run(&mut a, 3)), "the same grid shares one bundle");
        let grown = run(&mut a, 4);
        assert!(!Arc::ptr_eq(&first, &grown), "a new grid replaces the bundle");
        assert_eq!(grown.graph.grid(), &[4, 4]);
        assert_eq!(a.stats.schedules_computed, 3, "every call counts its schedule");
        let mut b = BytecodeEngine::compile(&m).unwrap();
        assert!(!Arc::ptr_eq(&grown, &run(&mut b, 4)), "engines hold distinct bundles");
    }

    #[test]
    fn threads_knob_clamps_to_one() {
        let m = Module::new("t");
        assert_eq!(
            BytecodeEngine::compile_with_threads(&m, 0).unwrap().threads(),
            1
        );
        assert_eq!(
            BytecodeEngine::compile_with_threads(&m, 4).unwrap().threads(),
            4
        );
    }
}
