//! IR → bytecode translation.
//!
//! `compile_program` walks every function of a lowered module once and
//! emits the [`crate::bytecode`] instruction tapes the engine executes.
//! Translation is a single pre-order pass over the (single-block,
//! structured-control-flow) regions:
//!
//! * every SSA value gets one slot in a **typed register file** chosen by
//!   its static type (`f64` → scalar file, `index`/`i64`/`i1` → integer
//!   file, `vector<Nxf64>` → `N` consecutive lanes of the flat vector
//!   file, memrefs → buffer-slot table, `tensor<?xi64>` CSR schedules →
//!   array-slot table) — dominance guarantees the defining instruction
//!   runs before any use, so slots never need versioning;
//! * each region block becomes one `crate::bytecode::Tape`; structured
//!   control flow (`scf.for`/`scf.if`/`scf.parallel`/
//!   `scf.execute_wavefronts`) compiles to instructions holding tape
//!   indices plus explicit register `crate::bytecode::Move` lists for
//!   loop-carried values and branch results;
//! * attribute lookups (constants, `callee` symbols, `block_stencil`
//!   dependence decoding, `dim`/`lane` numbers) all happen **here**, so
//!   the execution loop never touches an attribute map.
//!
//! Errors split into [`BcCompileError::Unsupported`] — the module uses
//! ops outside the lowered subset (structured `cfd.stencil` reference
//! semantics, tensor-form ops), which the driver treats as "run on the
//! tree-walking interpreter instead" — and [`BcCompileError::Malformed`],
//! a genuinely broken module that neither engine could execute.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use instencil_ir::body::Block;
use instencil_ir::{Attribute, Body, Func, Module, OpCode, Operation, Type, ValueId};
use instencil_obs::Obs;
use instencil_pattern::blockdeps;

use crate::bytecode::{BcFunc, BcProgram, DimSpec, FOp, FUn, IOp, Instr, Move, RKind, Reg, Tape};
use crate::runspec;

/// Why a module could not be compiled to bytecode.
#[derive(Debug, Clone)]
pub enum BcCompileError {
    /// The module contains ops outside the lowered executable subset
    /// (e.g. structured `cfd`/`tensor` reference ops). Callers should
    /// fall back to the tree-walking interpreter.
    Unsupported(String),
    /// The module is structurally broken (bad operand classes, missing
    /// attributes); no engine could execute it.
    Malformed(String),
}

impl fmt::Display for BcCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BcCompileError::Unsupported(m) => write!(f, "bytecode-unsupported op: {m}"),
            BcCompileError::Malformed(m) => write!(f, "malformed module: {m}"),
        }
    }
}

impl Error for BcCompileError {}

fn unsupported(msg: impl Into<String>) -> BcCompileError {
    BcCompileError::Unsupported(msg.into())
}

fn malformed(msg: impl Into<String>) -> BcCompileError {
    BcCompileError::Malformed(msg.into())
}

/// Bytecode compilation options.
#[derive(Clone, Copy, Debug)]
pub struct BcOptions {
    /// Attach run-specialization macro-ops (DESIGN.md §4f) to
    /// straight-line innermost loops. On by default; turning it off
    /// yields dispatch-per-point bytecode, kept as a differential-testing
    /// comparator (it is not an [`Engine`](instencil_core::pipeline::Engine)).
    pub specialize_runs: bool,
}

impl Default for BcOptions {
    fn default() -> Self {
        BcOptions {
            specialize_runs: true,
        }
    }
}

/// Compiles every function of a module to bytecode.
///
/// Run-specialization declines (a loop that *could* have been a fused
/// macro-op but was rejected by [`runspec::analyze`]) are not errors —
/// the loop keeps the generic dispatch path — but they are exactly the
/// "bytecode ≈ dispatch, why?" cases, so each one is surfaced to `obs`
/// as a `runspec-decline` event naming the function, the loop's tape,
/// and the rejection reason.
///
/// # Errors
/// See [`BcCompileError`].
pub(crate) fn compile_program(
    module: &Module,
    opts: BcOptions,
    obs: &Obs,
) -> Result<BcProgram, BcCompileError> {
    // Callee indices resolve against module order (call targets may be
    // defined after their callers).
    let names: Vec<&str> = module.funcs().iter().map(|f| f.name.as_str()).collect();
    let (mut run_loops, mut schedules) = (0u32, 0u32);
    let funcs = module
        .funcs()
        .iter()
        .map(|f| compile_func(f, &names, opts, obs, &mut run_loops, &mut schedules))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(BcProgram { funcs })
}

/// The boundary kind of a function argument/result type.
fn rkind_of(ty: &Type) -> Result<RKind, BcCompileError> {
    Ok(match ty {
        Type::F64 | Type::F32 => RKind::F64,
        Type::I64 | Type::Index => RKind::Int,
        Type::I1 => RKind::Bool,
        Type::Vector { len, .. } => RKind::Vec(*len as u32),
        Type::MemRef { .. } => RKind::Buf,
        Type::Tensor { elem, .. } if **elem == Type::I64 => RKind::Arr,
        other => return Err(unsupported(format!("boundary type {other}"))),
    })
}

/// Per-function translation state.
struct FnCompiler<'m> {
    body: &'m Body,
    names: &'m [&'m str],
    opts: BcOptions,
    /// Register of each SSA value, assigned at its definition.
    val_reg: Vec<Option<Reg>>,
    tapes: Vec<Tape>,
    num_f: u32,
    num_i: u32,
    num_v_slots: u32,
    num_b: u32,
    num_a: u32,
    /// Loops that were eligible for run specialization but declined:
    /// `(body tape index, reason)`. [`runspec::NESTED_LOOP`] declines
    /// are not recorded — every non-innermost loop of a nest declines
    /// that way by construction, so they carry no signal.
    runspec_declines: Vec<(u32, &'static str)>,
    /// Integer registers proven to hold a compile-time constant:
    /// `ConstI` destinations. Registers are allocated one per SSA value
    /// and only iter-arg/result slots are ever re-written (by `Move`s),
    /// so a `ConstI` destination has exactly one write in the whole
    /// function and dominates every read (verified SSA input). Run-spec
    /// analysis folds these like in-body literals, which lets it merge
    /// lane-unrolled accesses whose offsets route through hoisted
    /// constants.
    const_i: HashMap<u32, i64>,
    /// Specialized loops numbered so far, program-wide: each
    /// [`runspec::RunSpec`] takes the next number as its plan slot.
    run_loops: u32,
    /// `cfd.get_parallel_blocks` ops numbered so far, program-wide (memo slots).
    schedules: u32,
}

fn compile_func(
    func: &Func,
    names: &[&str],
    opts: BcOptions,
    obs: &Obs,
    run_loops: &mut u32,
    schedules: &mut u32,
) -> Result<BcFunc, BcCompileError> {
    let body = &func.body;
    let mut c = FnCompiler {
        body,
        names,
        opts,
        val_reg: vec![None; body.num_values()],
        tapes: Vec::new(),
        num_f: 0,
        num_i: 0,
        num_v_slots: 0,
        num_b: 0,
        num_a: 0,
        runspec_declines: Vec::new(),
        const_i: HashMap::new(),
        run_loops: *run_loops,
        schedules: *schedules,
    };
    let entry = c.compile_block(body.entry_block())?;
    debug_assert_eq!(entry, 0, "entry block must be tape 0");
    *run_loops = c.run_loops;
    *schedules = c.schedules;
    let entry_args = &body.block(body.entry_block()).args;
    let args = func
        .arg_types
        .iter()
        .zip(entry_args)
        .map(|(ty, &v)| Ok((rkind_of(ty)?, c.use_reg(v)?)))
        .collect::<Result<Vec<_>, BcCompileError>>()?;
    let results = func
        .result_types
        .iter()
        .map(rkind_of)
        .collect::<Result<Vec<_>, _>>()?;
    // One event per distinct declined loop per compile — a tape
    // referenced by several `For` ops (or re-visited by nest handling)
    // still names its decline once.
    let mut seen_declines = std::collections::HashSet::new();
    for (tape, reason) in &c.runspec_declines {
        if !seen_declines.insert((*tape, *reason)) {
            continue;
        }
        obs.event(
            "runspec-decline",
            &format!("{}: loop body tape {tape}: {reason}", func.name),
        );
    }
    Ok(BcFunc {
        name: func.name.clone(),
        tapes: c.tapes,
        args,
        results,
        num_f: c.num_f,
        num_i: c.num_i,
        num_v_slots: c.num_v_slots,
        num_b: c.num_b,
        num_a: c.num_a,
    })
}

impl FnCompiler<'_> {
    /// Allocates a register of the class matching `ty`.
    fn alloc_reg(&mut self, ty: &Type) -> Result<Reg, BcCompileError> {
        Ok(match ty {
            Type::F64 | Type::F32 => {
                self.num_f += 1;
                Reg::F(self.num_f - 1)
            }
            Type::I64 | Type::Index | Type::I1 => {
                self.num_i += 1;
                Reg::I(self.num_i - 1)
            }
            Type::Vector { len, .. } => {
                let off = self.num_v_slots;
                let lanes = *len as u32;
                self.num_v_slots += lanes;
                Reg::V { off, lanes }
            }
            Type::MemRef { .. } => {
                self.num_b += 1;
                Reg::B(self.num_b - 1)
            }
            Type::Tensor { elem, .. } if **elem == Type::I64 => {
                self.num_a += 1;
                Reg::A(self.num_a - 1)
            }
            other => return Err(unsupported(format!("value of type {other}"))),
        })
    }

    /// Assigns (and returns) the register of a value at its definition.
    fn def_reg(&mut self, v: ValueId) -> Result<Reg, BcCompileError> {
        let r = self.alloc_reg(&self.body.value_type(v).clone())?;
        self.val_reg[v.index()] = Some(r);
        Ok(r)
    }

    /// Register of an already-defined value (dominance guarantees the
    /// definition was compiled first).
    fn use_reg(&self, v: ValueId) -> Result<Reg, BcCompileError> {
        self.val_reg[v.index()]
            .ok_or_else(|| malformed(format!("use of value {v} before its definition")))
    }

    fn use_f(&self, v: ValueId) -> Result<u32, BcCompileError> {
        match self.use_reg(v)? {
            Reg::F(x) => Ok(x),
            r => Err(malformed(format!("expected float register, got {r:?}"))),
        }
    }

    fn use_i(&self, v: ValueId) -> Result<u32, BcCompileError> {
        match self.use_reg(v)? {
            Reg::I(x) => Ok(x),
            r => Err(malformed(format!("expected int register, got {r:?}"))),
        }
    }

    fn use_v(&self, v: ValueId) -> Result<(u32, u32), BcCompileError> {
        match self.use_reg(v)? {
            Reg::V { off, lanes } => Ok((off, lanes)),
            r => Err(malformed(format!("expected vector register, got {r:?}"))),
        }
    }

    fn use_b(&self, v: ValueId) -> Result<u32, BcCompileError> {
        match self.use_reg(v)? {
            Reg::B(x) => Ok(x),
            r => Err(malformed(format!("expected buffer register, got {r:?}"))),
        }
    }

    fn use_a(&self, v: ValueId) -> Result<u32, BcCompileError> {
        match self.use_reg(v)? {
            Reg::A(x) => Ok(x),
            r => Err(malformed(format!("expected array register, got {r:?}"))),
        }
    }

    fn def_f(&mut self, v: ValueId) -> Result<u32, BcCompileError> {
        match self.def_reg(v)? {
            Reg::F(x) => Ok(x),
            r => Err(malformed(format!("expected float result, got {r:?}"))),
        }
    }

    fn def_i(&mut self, v: ValueId) -> Result<u32, BcCompileError> {
        match self.def_reg(v)? {
            Reg::I(x) => Ok(x),
            r => Err(malformed(format!("expected int result, got {r:?}"))),
        }
    }

    fn def_v(&mut self, v: ValueId) -> Result<(u32, u32), BcCompileError> {
        match self.def_reg(v)? {
            Reg::V { off, lanes } => Ok((off, lanes)),
            r => Err(malformed(format!("expected vector result, got {r:?}"))),
        }
    }

    fn def_b(&mut self, v: ValueId) -> Result<u32, BcCompileError> {
        match self.def_reg(v)? {
            Reg::B(x) => Ok(x),
            r => Err(malformed(format!("expected buffer result, got {r:?}"))),
        }
    }

    fn use_i_list(&self, vals: &[ValueId]) -> Result<Box<[u32]>, BcCompileError> {
        vals.iter().map(|&v| self.use_i(v)).collect()
    }

    /// `true` when the value computes on vector lanes.
    fn is_vec(&self, v: ValueId) -> bool {
        matches!(self.body.value_type(v), Type::Vector { .. })
    }

    /// Compiles the single block of `region` into a fresh tape, returning
    /// the tape index.
    fn compile_region(&mut self, region: instencil_ir::RegionId) -> Result<u32, BcCompileError> {
        self.compile_block(self.body.region(region).blocks[0])
    }

    fn compile_block(&mut self, block: instencil_ir::BlockId) -> Result<u32, BcCompileError> {
        // Reserve the tape slot first so nested regions get later ids and
        // the entry block is always tape 0.
        let tape_idx = self.tapes.len() as u32;
        self.tapes.push(Tape::default());
        let blk: &Block = self.body.block(block);
        for &arg in &blk.args {
            self.def_reg(arg)?;
        }
        let mut code = Vec::with_capacity(blk.ops.len());
        let mut term = Vec::new();
        let ops = blk.ops.clone();
        for op_id in ops {
            let op = self.body.op(op_id);
            if op.opcode.is_terminator() {
                term = op
                    .operands
                    .iter()
                    .map(|&v| self.use_reg(v))
                    .collect::<Result<Vec<_>, _>>()?;
                break;
            }
            self.compile_op(op_id, &mut code)?;
        }
        let t = &mut self.tapes[tape_idx as usize];
        t.code = code;
        t.term = term;
        Ok(tape_idx)
    }

    /// Moves from `srcs` into the registers of newly defined `dsts`.
    fn def_moves(&mut self, srcs: &[Reg], dsts: &[ValueId]) -> Result<Box<[Move]>, BcCompileError> {
        srcs.iter()
            .zip(dsts)
            .map(|(&src, &d)| {
                Ok(Move {
                    dst: self.def_reg(d)?,
                    src,
                })
            })
            .collect()
    }

    /// Moves from `srcs` into pre-existing registers of `dsts`.
    fn use_moves(&self, srcs: &[Reg], dsts: &[ValueId]) -> Result<Box<[Move]>, BcCompileError> {
        srcs.iter()
            .zip(dsts)
            .map(|(&src, &d)| {
                Ok(Move {
                    dst: self.use_reg(d)?,
                    src,
                })
            })
            .collect()
    }

    #[allow(clippy::too_many_lines)]
    fn compile_op(
        &mut self,
        op_id: instencil_ir::OpId,
        code: &mut Vec<Instr>,
    ) -> Result<(), BcCompileError> {
        let op: &Operation = self.body.op(op_id);
        match &op.opcode {
            OpCode::Constant => {
                let value = op
                    .attrs
                    .get("value")
                    .ok_or_else(|| malformed("constant without value attr"))?
                    .clone();
                let res = op.results[0];
                let ty = self.body.value_type(res).clone();
                match (&ty, &value) {
                    (Type::F64 | Type::F32, Attribute::Float(f)) => {
                        let dst = self.def_f(res)?;
                        code.push(Instr::ConstF { dst, v: *f });
                    }
                    (Type::I64 | Type::Index, Attribute::Int(i)) => {
                        let dst = self.def_i(res)?;
                        self.const_i.insert(dst, *i);
                        code.push(Instr::ConstI { dst, v: *i });
                    }
                    (Type::I1, Attribute::Bool(b)) => {
                        let dst = self.def_i(res)?;
                        self.const_i.insert(dst, i64::from(*b));
                        code.push(Instr::ConstI {
                            dst,
                            v: i64::from(*b),
                        });
                    }
                    (Type::Vector { .. }, Attribute::Float(f)) => {
                        let (off, lanes) = self.def_v(res)?;
                        code.push(Instr::ConstV { off, lanes, v: *f });
                    }
                    _ => return Err(malformed("bad constant")),
                }
            }
            OpCode::AddF
            | OpCode::SubF
            | OpCode::MulF
            | OpCode::DivF
            | OpCode::MaxF
            | OpCode::MinF
            | OpCode::PowF => {
                let fop = match op.opcode {
                    OpCode::AddF => FOp::Add,
                    OpCode::SubF => FOp::Sub,
                    OpCode::MulF => FOp::Mul,
                    OpCode::DivF => FOp::Div,
                    OpCode::MaxF => FOp::Max,
                    OpCode::MinF => FOp::Min,
                    OpCode::PowF => FOp::Pow,
                    _ => unreachable!(),
                };
                let res = op.results[0];
                if self.is_vec(res) {
                    let (a, al) = self.use_v(op.operands[0])?;
                    let (b, bl) = self.use_v(op.operands[1])?;
                    let (dst, lanes) = self.def_v(res)?;
                    if al != lanes || bl != lanes {
                        return Err(malformed("vector lane mismatch in float binop"));
                    }
                    code.push(Instr::BinV {
                        op: fop,
                        dst,
                        a,
                        b,
                        lanes,
                    });
                } else {
                    let a = self.use_f(op.operands[0])?;
                    let b = self.use_f(op.operands[1])?;
                    let dst = self.def_f(res)?;
                    code.push(Instr::BinF { op: fop, dst, a, b });
                }
            }
            OpCode::NegF | OpCode::Sqrt | OpCode::AbsF | OpCode::Exp => {
                let fun = match op.opcode {
                    OpCode::NegF => FUn::Neg,
                    OpCode::Sqrt => FUn::Sqrt,
                    OpCode::AbsF => FUn::Abs,
                    OpCode::Exp => FUn::Exp,
                    _ => unreachable!(),
                };
                let res = op.results[0];
                if self.is_vec(res) {
                    let (a, _) = self.use_v(op.operands[0])?;
                    let (dst, lanes) = self.def_v(res)?;
                    code.push(Instr::UnV {
                        op: fun,
                        dst,
                        a,
                        lanes,
                    });
                } else {
                    let a = self.use_f(op.operands[0])?;
                    let dst = self.def_f(res)?;
                    code.push(Instr::UnF { op: fun, dst, a });
                }
            }
            OpCode::Fma => {
                let res = op.results[0];
                if self.is_vec(res) {
                    let (a, _) = self.use_v(op.operands[0])?;
                    let (b, _) = self.use_v(op.operands[1])?;
                    let (c, _) = self.use_v(op.operands[2])?;
                    let (dst, lanes) = self.def_v(res)?;
                    code.push(Instr::FmaV {
                        dst,
                        a,
                        b,
                        c,
                        lanes,
                    });
                } else {
                    let a = self.use_f(op.operands[0])?;
                    let b = self.use_f(op.operands[1])?;
                    let c = self.use_f(op.operands[2])?;
                    let dst = self.def_f(res)?;
                    code.push(Instr::FmaF { dst, a, b, c });
                }
            }
            OpCode::AddI
            | OpCode::SubI
            | OpCode::MulI
            | OpCode::FloorDivSI
            | OpCode::CeilDivSI
            | OpCode::RemSI
            | OpCode::MinSI
            | OpCode::MaxSI => {
                let iop = match op.opcode {
                    OpCode::AddI => IOp::Add,
                    OpCode::SubI => IOp::Sub,
                    OpCode::MulI => IOp::Mul,
                    OpCode::FloorDivSI => IOp::FloorDiv,
                    OpCode::CeilDivSI => IOp::CeilDiv,
                    OpCode::RemSI => IOp::Rem,
                    OpCode::MinSI => IOp::Min,
                    OpCode::MaxSI => IOp::Max,
                    _ => unreachable!(),
                };
                let a = self.use_i(op.operands[0])?;
                let b = self.use_i(op.operands[1])?;
                let dst = self.def_i(op.results[0])?;
                code.push(Instr::BinI { op: iop, dst, a, b });
            }
            OpCode::CmpI(pred) => {
                let pred = *pred;
                let a = self.use_i(op.operands[0])?;
                let b = self.use_i(op.operands[1])?;
                let dst = self.def_i(op.results[0])?;
                code.push(Instr::CmpI { pred, dst, a, b });
            }
            OpCode::CmpF(pred) => {
                let pred = *pred;
                let a = self.use_f(op.operands[0])?;
                let b = self.use_f(op.operands[1])?;
                let dst = self.def_i(op.results[0])?;
                code.push(Instr::CmpF { pred, dst, a, b });
            }
            OpCode::Select => {
                let cond = self.use_i(op.operands[0])?;
                let res = op.results[0];
                match self.body.value_type(res).clone() {
                    Type::F64 | Type::F32 => {
                        let t = self.use_f(op.operands[1])?;
                        let e = self.use_f(op.operands[2])?;
                        let dst = self.def_f(res)?;
                        code.push(Instr::SelF { dst, cond, t, e });
                    }
                    Type::I64 | Type::Index | Type::I1 => {
                        let t = self.use_i(op.operands[1])?;
                        let e = self.use_i(op.operands[2])?;
                        let dst = self.def_i(res)?;
                        code.push(Instr::SelI { dst, cond, t, e });
                    }
                    Type::Vector { .. } => {
                        let (t, _) = self.use_v(op.operands[1])?;
                        let (e, _) = self.use_v(op.operands[2])?;
                        let (dst, lanes) = self.def_v(res)?;
                        code.push(Instr::SelV {
                            dst,
                            cond,
                            t,
                            e,
                            lanes,
                        });
                    }
                    other => return Err(unsupported(format!("select on {other}"))),
                }
            }
            OpCode::IndexCast => {
                let src = self.use_i(op.operands[0])?;
                let dst = self.def_i(op.results[0])?;
                code.push(Instr::MoveI { dst, src });
            }
            OpCode::SiToFp => {
                let src = self.use_i(op.operands[0])?;
                let dst = self.def_f(op.results[0])?;
                code.push(Instr::SiToFp { dst, src });
            }
            OpCode::For => {
                let lb = self.use_i(op.operands[0])?;
                let ub = self.use_i(op.operands[1])?;
                let step = self.use_i(op.operands[2])?;
                let init_regs = op.operands[3..]
                    .iter()
                    .map(|&v| self.use_reg(v))
                    .collect::<Result<Vec<_>, _>>()?;
                let region = op.regions[0];
                let results = op.results.clone();
                let body_tape = self.compile_region(region)?;
                let blk_args = self.body.block(self.body.region(region).blocks[0]).args.clone();
                let iv = match self.use_reg(blk_args[0])? {
                    Reg::I(x) => x,
                    r => return Err(malformed(format!("loop iv register {r:?}"))),
                };
                let iter_args = &blk_args[1..];
                // Init operands → iter-arg slots before the first
                // iteration; yielded registers → iter-arg slots after each
                // iteration; iter-arg slots → result registers at exit.
                let inits = self.use_moves(&init_regs, iter_args)?;
                let yielded = self.tapes[body_tape as usize].term.clone();
                let loopback = self.use_moves(&yielded, iter_args)?;
                let iter_regs = iter_args
                    .iter()
                    .map(|&v| self.use_reg(v))
                    .collect::<Result<Vec<_>, _>>()?;
                let res_moves = self.def_moves(&iter_regs, &results)?;
                // Run specialization (DESIGN.md §4f): loops without
                // iter args whose body is a straight-line stencil point
                // get a macro-op; everything else keeps the generic
                // path.
                let run = if self.opts.specialize_runs
                    && inits.is_empty()
                    && loopback.is_empty()
                    && res_moves.is_empty()
                {
                    match runspec::analyze(&self.tapes[body_tape as usize], iv, &self.const_i) {
                        Ok(spec) => {
                            let slot = self.run_loops;
                            self.run_loops += 1;
                            Some(Box::new(runspec::RunSpec { slot, ..spec }))
                        }
                        Err(reason) => {
                            if reason != runspec::NESTED_LOOP {
                                self.runspec_declines.push((body_tape, reason));
                            }
                            None
                        }
                    }
                } else if self.opts.specialize_runs {
                    self.runspec_declines
                        .push((body_tape, "loop-carried iter args"));
                    None
                } else {
                    None
                };
                // A loop over the rows of a tile whose body only steps
                // its specialized inner loops becomes a row nest.
                let nest = if self.opts.specialize_runs && run.is_none() && inits.is_empty() {
                    runspec::analyze_nest(&self.tapes, body_tape, iv).map(Box::new)
                } else {
                    None
                };
                code.push(Instr::For {
                    lb,
                    ub,
                    step,
                    iv,
                    body: body_tape,
                    inits,
                    loopback,
                    results: res_moves,
                    run,
                    nest,
                });
            }
            OpCode::If => {
                let cond = self.use_i(op.operands[0])?;
                if op.regions.len() != 2 {
                    return Err(malformed("scf.if must have then and else regions"));
                }
                let results = op.results.clone();
                let then_body = self.compile_region(op.regions[0])?;
                let else_body = self.compile_region(op.regions[1])?;
                let then_yield = self.tapes[then_body as usize].term.clone();
                let else_yield = self.tapes[else_body as usize].term.clone();
                // Result registers are defined once; both branches move
                // their yields into the same slots.
                let res_regs = results
                    .iter()
                    .map(|&r| self.def_reg(r))
                    .collect::<Result<Vec<_>, _>>()?;
                let pair = |srcs: &[Reg]| -> Box<[Move]> {
                    srcs.iter()
                        .zip(&res_regs)
                        .map(|(&src, &dst)| Move { dst, src })
                        .collect()
                };
                code.push(Instr::If {
                    cond,
                    then_body,
                    else_body,
                    then_res: pair(&then_yield),
                    else_res: pair(&else_yield),
                });
            }
            OpCode::Parallel => {
                let lb = self.use_i(op.operands[0])?;
                let ub = self.use_i(op.operands[1])?;
                let step = self.use_i(op.operands[2])?;
                let region = op.regions[0];
                let body_tape = self.compile_region(region)?;
                let arg = self.body.block(self.body.region(region).blocks[0]).args[0];
                let iv = match self.use_reg(arg)? {
                    Reg::I(x) => x,
                    r => return Err(malformed(format!("parallel iv register {r:?}"))),
                };
                code.push(Instr::ParallelLoop {
                    lb,
                    ub,
                    step,
                    iv,
                    body: body_tape,
                });
            }
            OpCode::ExecuteWavefronts => {
                let rows = self.use_a(op.operands[0])?;
                let cols = self.use_a(op.operands[1])?;
                let region = op.regions[0];
                let body_tape = self.compile_region(region)?;
                let arg = self.body.block(self.body.region(region).blocks[0]).args[0];
                let block = match self.use_reg(arg)? {
                    Reg::I(x) => x,
                    r => return Err(malformed(format!("wavefront block register {r:?}"))),
                };
                code.push(Instr::Wavefronts {
                    rows,
                    cols,
                    block,
                    body: body_tape,
                });
            }
            OpCode::CfdGetParallelBlocks => {
                let dims = self.use_i_list(&op.operands)?;
                let (shape, data) = op
                    .attrs
                    .get("block_stencil")
                    .and_then(Attribute::as_dense_i8)
                    .ok_or_else(|| malformed("get_parallel_blocks without block_stencil"))?;
                let deps: Box<[Vec<i64>]> = blockdeps::from_block_stencil(shape, data).into();
                let results = op.results.clone();
                let rows = match self.def_reg(results[0])? {
                    Reg::A(x) => x,
                    r => return Err(malformed(format!("CSR rows register {r:?}"))),
                };
                let cols = match self.def_reg(results[1])? {
                    Reg::A(x) => x,
                    r => return Err(malformed(format!("CSR cols register {r:?}"))),
                };
                code.push(Instr::GetParallelBlocks {
                    dims,
                    deps,
                    rows,
                    cols,
                    slot: self.schedules,
                });
                self.schedules += 1;
            }
            OpCode::Call => {
                let callee = op
                    .attrs
                    .get("callee")
                    .and_then(Attribute::as_str)
                    .ok_or_else(|| malformed("call without callee"))?;
                let func = self
                    .names
                    .iter()
                    .position(|n| *n == callee)
                    .ok_or_else(|| malformed(format!("call to unknown function `{callee}`")))?
                    as u32;
                let args = op
                    .operands
                    .iter()
                    .map(|&v| self.use_reg(v))
                    .collect::<Result<Box<[_]>, _>>()?;
                let results = op
                    .results
                    .clone()
                    .iter()
                    .map(|&r| self.def_reg(r))
                    .collect::<Result<Box<[_]>, _>>()?;
                code.push(Instr::Call {
                    func,
                    args,
                    results,
                });
            }
            OpCode::MemAlloc => {
                let res = op.results[0];
                let static_shape = self
                    .body
                    .value_type(res)
                    .shape()
                    .ok_or_else(|| malformed("alloc result must be shaped"))?
                    .to_vec();
                let mut dyn_iter = op.operands.clone().into_iter();
                let mut dims = Vec::with_capacity(static_shape.len());
                for d in static_shape {
                    match d {
                        Some(n) => dims.push(DimSpec::Static(n)),
                        None => {
                            let v = dyn_iter
                                .next()
                                .ok_or_else(|| malformed("alloc missing dynamic size"))?;
                            dims.push(DimSpec::Dyn(self.use_i(v)?));
                        }
                    }
                }
                let dst = self.def_b(res)?;
                code.push(Instr::Alloc {
                    dst,
                    dims: dims.into(),
                });
            }
            OpCode::MemDealloc => {}
            OpCode::MemDim => {
                let buf = self.use_b(op.operands[0])?;
                let dim = op.int_attr("dim").unwrap_or(0) as u32;
                let dst = self.def_i(op.results[0])?;
                code.push(Instr::Dim { dst, buf, dim });
            }
            OpCode::MemLoad => {
                let buf = self.use_b(op.operands[0])?;
                let idx = self.use_i_list(&op.operands[1..])?;
                let dst = self.def_f(op.results[0])?;
                code.push(Instr::Load { dst, buf, idx });
            }
            OpCode::MemStore => {
                let src = self.use_f(op.operands[0])?;
                let buf = self.use_b(op.operands[1])?;
                let idx = self.use_i_list(&op.operands[2..])?;
                code.push(Instr::Store { src, buf, idx });
            }
            OpCode::MemSubview => {
                let src = self.use_b(op.operands[0])?;
                let rank = self
                    .body
                    .value_type(op.operands[0])
                    .rank()
                    .ok_or_else(|| malformed("subview of non-shaped value"))?;
                let offs = self.use_i_list(&op.operands[1..1 + rank])?;
                let sizes = self.use_i_list(&op.operands[1 + rank..])?;
                let dst = self.def_b(op.results[0])?;
                code.push(Instr::Subview {
                    dst,
                    src,
                    offs,
                    sizes,
                });
            }
            OpCode::MemShiftView => {
                let src = self.use_b(op.operands[0])?;
                let shifts = self.use_i_list(&op.operands[1..])?;
                let dst = self.def_b(op.results[0])?;
                code.push(Instr::ShiftView { dst, src, shifts });
            }
            OpCode::MemCopy => {
                let src = self.use_b(op.operands[0])?;
                let dst = self.use_b(op.operands[1])?;
                code.push(Instr::CopyBuf { src, dst });
            }
            OpCode::VecTransferRead => {
                let buf = self.use_b(op.operands[0])?;
                let idx = self.use_i_list(&op.operands[1..])?;
                let (dst, lanes) = self.def_v(op.results[0])?;
                code.push(Instr::VLoad {
                    dst,
                    lanes,
                    buf,
                    idx,
                });
            }
            OpCode::VecTransferWrite => {
                let (src, lanes) = self.use_v(op.operands[0])?;
                let buf = self.use_b(op.operands[1])?;
                let idx = self.use_i_list(&op.operands[2..])?;
                code.push(Instr::VStore {
                    src,
                    lanes,
                    buf,
                    idx,
                });
            }
            OpCode::VecExtract => {
                let (src, lanes) = self.use_v(op.operands[0])?;
                let lane = op.int_attr("lane").unwrap_or(0) as u32;
                if lane >= lanes {
                    return Err(malformed("vector.extract lane out of range"));
                }
                let dst = self.def_f(op.results[0])?;
                code.push(Instr::VExtract { dst, src, lane });
            }
            OpCode::VecBroadcast => {
                let src = self.use_f(op.operands[0])?;
                let (dst, lanes) = self.def_v(op.results[0])?;
                code.push(Instr::VBroadcast { dst, lanes, src });
            }
            other => {
                // Structured cfd/tensor reference ops (and anything else
                // outside the lowered subset) stay on the interpreter.
                return Err(unsupported(other.name()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::BytecodeEngine;
    use instencil_core::kernels;
    use instencil_core::pipeline::reference_module;

    #[test]
    fn reference_modules_are_unsupported_not_malformed() {
        let m = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        match BytecodeEngine::compile(&m) {
            Err(BcCompileError::Unsupported(msg)) => {
                assert!(msg.contains("cfd"), "should name the structured op: {msg}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn lowered_modules_compile() {
        use instencil_core::pipeline::{compile, PipelineOptions};
        let m = kernels::gauss_seidel_5pt_module();
        for opts in [
            PipelineOptions::new(vec![4, 4], vec![2, 2]),
            PipelineOptions::new(vec![4, 4], vec![2, 2]).vectorize(Some(4)),
            PipelineOptions::new(vec![4, 4], vec![2, 2])
                .fuse(true)
                .vectorize(Some(4)),
        ] {
            let compiled = compile(&m, &opts).unwrap();
            BytecodeEngine::compile(&compiled.module).expect("lowered module compiles");
        }
    }
}
