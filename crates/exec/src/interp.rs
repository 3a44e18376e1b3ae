//! The IR interpreter.
//!
//! Executes bufferized modules at two levels:
//!
//! * **Reference level** — structured `cfd` ops (`cfd.stencil`,
//!   `cfd.face_iterator`, `linalg.pointwise`) are executed directly from
//!   their Eq. (2) semantics. This is the oracle the lowered pipelines are
//!   validated against.
//! * **Lowered level** — `scf` loops, `arith`/`math`/`vector` ops and
//!   memref accesses, including `scf.execute_wavefronts` /
//!   `cfd.get_parallel_blocks` (the wavefront schedule is computed at run
//!   time, as in the paper, and executed level by level).
//!
//! The interpreter is sequential and pool-free: `scf.execute_wavefronts`
//! walks the schedule's CSR levels in order on the calling thread — "a
//! sequential for loop iterating over groups that contains a parallel
//! for loop" (paper §3.4) with the inner loop run in place. Any
//! topological order of the Eq. (3) schedule produces the same bits, so
//! this walk is the reference that every thread count and scheduler of
//! the bytecode engine is checked against, results and [`ExecStats`]
//! alike.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use instencil_core::attrs::attr_to_pattern;
use instencil_core::ops::RegionLayout;
use instencil_ir::body::ValueDef;
use instencil_ir::{Attribute, Body, Module, OpCode, OpId, RegionId, Type, ValueId};
use instencil_pattern::{blockdeps, Sweep, WavefrontSchedule};

use crate::buffer::BufferView;
use crate::stats::ExecStats;
use crate::value::RtVal;

/// An interpretation failure.
#[derive(Debug, Clone)]
pub struct ExecError {
    /// Description of the failure.
    pub message: String,
}

impl ExecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ExecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution failed: {}", self.message)
    }
}

impl Error for ExecError {}

type Env = Vec<Option<RtVal>>;

/// The sequential reference interpreter: owns execution statistics
/// across calls.
#[derive(Debug, Default)]
pub struct Interpreter {
    /// Accumulated dynamic statistics.
    pub stats: ExecStats,
}

impl Interpreter {
    /// Creates an interpreter with zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calls a function of `module` by name.
    ///
    /// # Errors
    /// Fails when the function is missing, arity mismatches, or an op is
    /// not executable. Work done before the failure stays counted.
    pub fn call(
        &mut self,
        module: &Module,
        name: &str,
        args: Vec<RtVal>,
    ) -> Result<Vec<RtVal>, ExecError> {
        ExecCtx { module }.call(name, args, &mut self.stats)
    }
}

/// Read-only view of the module under execution.
struct ExecCtx<'m> {
    module: &'m Module,
}

impl ExecCtx<'_> {
    fn call(
        &self,
        name: &str,
        args: Vec<RtVal>,
        stats: &mut ExecStats,
    ) -> Result<Vec<RtVal>, ExecError> {
        let func = self
            .module
            .lookup(name)
            .ok_or_else(|| ExecError::new(format!("no function `{name}`")))?;
        if args.len() != func.arg_types.len() {
            return Err(ExecError::new(format!(
                "`{name}` expects {} args, got {}",
                func.arg_types.len(),
                args.len()
            )));
        }
        let body = &func.body;
        let mut env: Env = vec![None; body.num_values()];
        let entry = body.entry_block();
        self.exec_block(body, entry, &args, &mut env, stats)
    }

    /// Executes the ops of `block` with `args` bound to its block
    /// arguments; returns the terminator's operand values.
    fn exec_block(
        &self,
        body: &Body,
        block: instencil_ir::BlockId,
        args: &[RtVal],
        env: &mut Env,
        stats: &mut ExecStats,
    ) -> Result<Vec<RtVal>, ExecError> {
        let block_args = &body.block(block).args;
        if block_args.len() != args.len() {
            return Err(ExecError::new(format!(
                "block expects {} args, got {}",
                block_args.len(),
                args.len()
            )));
        }
        for (a, v) in block_args.iter().zip(args.iter()) {
            env[a.index()] = Some(v.clone());
        }
        for &op in &body.block(block).ops {
            if body.op(op).opcode.is_terminator() {
                return body
                    .op(op)
                    .operands
                    .iter()
                    .map(|v| self.value(env, *v))
                    .collect::<Result<Vec<_>, _>>();
            }
            self.exec_op(body, op, env, stats)?;
        }
        Ok(Vec::new())
    }

    fn eval_region(
        &self,
        body: &Body,
        region: RegionId,
        args: &[RtVal],
        env: &mut Env,
        stats: &mut ExecStats,
    ) -> Result<Vec<RtVal>, ExecError> {
        let block = body.region(region).blocks[0];
        self.exec_block(body, block, args, env, stats)
    }

    fn value(&self, env: &Env, v: ValueId) -> Result<RtVal, ExecError> {
        env[v.index()]
            .clone()
            .ok_or_else(|| ExecError::new(format!("use of unset value {v}")))
    }

    fn f(&self, env: &Env, v: ValueId) -> Result<f64, ExecError> {
        match self.value(env, v)? {
            RtVal::F64(x) => Ok(x),
            other => Err(ExecError::new(format!("expected f64, got {other:?}"))),
        }
    }

    fn int(&self, env: &Env, v: ValueId) -> Result<i64, ExecError> {
        match self.value(env, v)? {
            RtVal::Int(x) => Ok(x),
            other => Err(ExecError::new(format!("expected int, got {other:?}"))),
        }
    }

    fn buf(&self, env: &Env, v: ValueId) -> Result<BufferView, ExecError> {
        match self.value(env, v)? {
            RtVal::Buf(b) => Ok(b),
            other => Err(ExecError::new(format!("expected buffer, got {other:?}"))),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_op(
        &self,
        body: &Body,
        op_id: OpId,
        env: &mut Env,
        stats: &mut ExecStats,
    ) -> Result<(), ExecError> {
        let op = body.op(op_id);
        let set = |env: &mut Env, results: &[ValueId], vals: Vec<RtVal>| {
            for (r, v) in results.iter().zip(vals) {
                env[r.index()] = Some(v);
            }
        };
        match &op.opcode {
            OpCode::Constant => {
                let value = op
                    .attrs
                    .get("value")
                    .ok_or_else(|| ExecError::new("missing value"))?;
                let ty = body.value_type(op.results[0]);
                let v = match (ty, value) {
                    (Type::F64 | Type::F32, Attribute::Float(f)) => RtVal::F64(*f),
                    (Type::I64 | Type::Index, Attribute::Int(i)) => RtVal::Int(*i),
                    (Type::I1, Attribute::Bool(b)) => RtVal::Bool(*b),
                    (Type::Vector { len, .. }, Attribute::Float(f)) => RtVal::Vec(vec![*f; *len]),
                    _ => return Err(ExecError::new("bad constant")),
                };
                env[op.results[0].index()] = Some(v);
            }
            OpCode::AddF
            | OpCode::SubF
            | OpCode::MulF
            | OpCode::DivF
            | OpCode::MaxF
            | OpCode::MinF
            | OpCode::PowF => {
                let a = self.value(env, op.operands[0])?;
                let b = self.value(env, op.operands[1])?;
                let g = |x: f64, y: f64| match op.opcode {
                    OpCode::AddF => x + y,
                    OpCode::SubF => x - y,
                    OpCode::MulF => x * y,
                    OpCode::DivF => x / y,
                    OpCode::MaxF => x.max(y),
                    OpCode::MinF => x.min(y),
                    OpCode::PowF => x.powf(y),
                    _ => unreachable!(),
                };
                let out = match (a, b) {
                    (RtVal::F64(x), RtVal::F64(y)) => {
                        stats.scalar_flops += 1;
                        RtVal::F64(g(x, y))
                    }
                    (RtVal::Vec(x), RtVal::Vec(y)) => {
                        stats.vector_flops += 1;
                        RtVal::Vec(x.iter().zip(y).map(|(p, q)| g(*p, q)).collect())
                    }
                    _ => return Err(ExecError::new("mixed scalar/vector arithmetic")),
                };
                env[op.results[0].index()] = Some(out);
            }
            OpCode::NegF | OpCode::Sqrt | OpCode::AbsF | OpCode::Exp => {
                let g = |x: f64| match op.opcode {
                    OpCode::NegF => -x,
                    OpCode::Sqrt => x.sqrt(),
                    OpCode::AbsF => x.abs(),
                    OpCode::Exp => x.exp(),
                    _ => unreachable!(),
                };
                let out = match self.value(env, op.operands[0])? {
                    RtVal::F64(x) => {
                        stats.scalar_flops += 1;
                        RtVal::F64(g(x))
                    }
                    RtVal::Vec(x) => {
                        stats.vector_flops += 1;
                        RtVal::Vec(x.iter().map(|p| g(*p)).collect())
                    }
                    other => return Err(ExecError::new(format!("bad unary operand {other:?}"))),
                };
                env[op.results[0].index()] = Some(out);
            }
            OpCode::Fma => {
                let a = self.value(env, op.operands[0])?;
                let b = self.value(env, op.operands[1])?;
                let c = self.value(env, op.operands[2])?;
                let out = match (a, b, c) {
                    (RtVal::F64(x), RtVal::F64(y), RtVal::F64(z)) => {
                        stats.scalar_flops += 1;
                        RtVal::F64(x.mul_add(y, z))
                    }
                    (RtVal::Vec(x), RtVal::Vec(y), RtVal::Vec(z)) => {
                        stats.vector_flops += 1;
                        RtVal::Vec(
                            x.iter()
                                .zip(y.iter())
                                .zip(z.iter())
                                .map(|((p, q), r)| p.mul_add(*q, *r))
                                .collect(),
                        )
                    }
                    _ => return Err(ExecError::new("mixed fma operands")),
                };
                env[op.results[0].index()] = Some(out);
            }
            OpCode::AddI
            | OpCode::SubI
            | OpCode::MulI
            | OpCode::FloorDivSI
            | OpCode::CeilDivSI
            | OpCode::RemSI
            | OpCode::MinSI
            | OpCode::MaxSI => {
                let a = self.int(env, op.operands[0])?;
                let b = self.int(env, op.operands[1])?;
                stats.index_ops += 1;
                let out = match op.opcode {
                    OpCode::AddI => a + b,
                    OpCode::SubI => a - b,
                    OpCode::MulI => a * b,
                    OpCode::FloorDivSI => {
                        if b == 0 {
                            return Err(ExecError::new("division by zero"));
                        }
                        a.div_euclid(b)
                    }
                    OpCode::CeilDivSI => {
                        if b == 0 {
                            return Err(ExecError::new("division by zero"));
                        }
                        (a + b - 1).div_euclid(b)
                    }
                    OpCode::RemSI => {
                        if b == 0 {
                            return Err(ExecError::new("remainder by zero"));
                        }
                        a.rem_euclid(b)
                    }
                    OpCode::MinSI => a.min(b),
                    OpCode::MaxSI => a.max(b),
                    _ => unreachable!(),
                };
                env[op.results[0].index()] = Some(RtVal::Int(out));
            }
            OpCode::CmpI(p) => {
                let a = self.int(env, op.operands[0])?;
                let b = self.int(env, op.operands[1])?;
                env[op.results[0].index()] = Some(RtVal::Bool(p.eval_int(a, b)));
            }
            OpCode::CmpF(p) => {
                let a = self.f(env, op.operands[0])?;
                let b = self.f(env, op.operands[1])?;
                env[op.results[0].index()] = Some(RtVal::Bool(p.eval_float(a, b)));
            }
            OpCode::Select => {
                let c = match self.value(env, op.operands[0])? {
                    RtVal::Bool(b) => b,
                    other => return Err(ExecError::new(format!("select cond {other:?}"))),
                };
                let v = self.value(env, op.operands[if c { 1 } else { 2 }])?;
                env[op.results[0].index()] = Some(v);
            }
            OpCode::IndexCast => {
                let v = self.int(env, op.operands[0])?;
                env[op.results[0].index()] = Some(RtVal::Int(v));
            }
            OpCode::SiToFp => {
                let v = self.int(env, op.operands[0])?;
                env[op.results[0].index()] = Some(RtVal::F64(v as f64));
            }
            OpCode::For => {
                let lb = self.int(env, op.operands[0])?;
                let ub = self.int(env, op.operands[1])?;
                let step = self.int(env, op.operands[2])?;
                if step <= 0 {
                    return Err(ExecError::new("scf.for requires a positive step"));
                }
                let mut iters: Vec<RtVal> = op.operands[3..]
                    .iter()
                    .map(|v| self.value(env, *v))
                    .collect::<Result<_, _>>()?;
                let mut iv = lb;
                while iv < ub {
                    let mut args = vec![RtVal::Int(iv)];
                    args.extend(iters.iter().cloned());
                    iters = self.eval_region(body, op.regions[0], &args, env, stats)?;
                    iv += step;
                }
                set(env, &op.results, iters);
            }
            OpCode::If => {
                let c = match self.value(env, op.operands[0])? {
                    RtVal::Bool(b) => b,
                    other => return Err(ExecError::new(format!("if cond {other:?}"))),
                };
                let region = op.regions[if c { 0 } else { 1 }];
                let vals = self.eval_region(body, region, &[], env, stats)?;
                set(env, &op.results, vals);
            }
            OpCode::Parallel => {
                let lb = self.int(env, op.operands[0])?;
                let ub = self.int(env, op.operands[1])?;
                let step = self.int(env, op.operands[2])?;
                if step <= 0 {
                    return Err(ExecError::new("scf.parallel requires a positive step"));
                }
                let mut iv = lb;
                while iv < ub {
                    self.eval_region(body, op.regions[0], &[RtVal::Int(iv)], env, stats)?;
                    iv += step;
                }
            }
            OpCode::ExecuteWavefronts => {
                let rows = match self.value(env, op.operands[0])? {
                    RtVal::I64Arr(a) => a,
                    other => return Err(ExecError::new(format!("rows {other:?}"))),
                };
                let cols = match self.value(env, op.operands[1])? {
                    RtVal::I64Arr(a) => a,
                    other => return Err(ExecError::new(format!("cols {other:?}"))),
                };
                // Levels in order, each level's blocks in CSR order.
                // Region-local SSA values are written per block but
                // never read across blocks (dominance), so the blocks
                // share the one environment.
                stats.wavefront_levels += (rows.len() - 1) as u64;
                for level in rows.windows(2) {
                    for &block in &cols[level[0] as usize..level[1] as usize] {
                        stats.blocks_executed += 1;
                        self.eval_region(body, op.regions[0], &[RtVal::Int(block)], env, stats)?;
                    }
                }
            }
            OpCode::CfdGetParallelBlocks => {
                let grid: Vec<usize> = op
                    .operands
                    .iter()
                    .map(|v| self.int(env, *v).map(|x| x.max(1) as usize))
                    .collect::<Result<_, _>>()?;
                let (shape, data) = op
                    .attrs
                    .get("block_stencil")
                    .and_then(Attribute::as_dense_i8)
                    .ok_or_else(|| ExecError::new("missing block_stencil"))?;
                let deps = blockdeps::from_block_stencil(shape, data);
                // The reference walks the levels itself: the CSR is all
                // it needs, no dependence graph.
                let levels = WavefrontSchedule::compute(&grid, &deps);
                stats.schedules_computed += 1;
                env[op.results[0].index()] = Some(RtVal::I64Arr(Arc::clone(levels.rows())));
                env[op.results[1].index()] = Some(RtVal::I64Arr(Arc::clone(levels.cols())));
            }
            OpCode::Call => {
                let callee = op
                    .attrs
                    .get("callee")
                    .and_then(Attribute::as_str)
                    .ok_or_else(|| ExecError::new("missing callee"))?
                    .to_owned();
                let args: Vec<RtVal> = op
                    .operands
                    .iter()
                    .map(|v| self.value(env, *v))
                    .collect::<Result<_, _>>()?;
                let results = self.call(&callee, args, stats)?;
                set(env, &op.results, results);
            }
            OpCode::MemAlloc => {
                let ty = body.value_type(op.results[0]);
                let static_shape = ty
                    .shape()
                    .ok_or_else(|| ExecError::new("alloc result must be shaped"))?
                    .to_vec();
                let mut dyn_iter = op.operands.iter();
                let mut shape = Vec::with_capacity(static_shape.len());
                for d in static_shape {
                    match d {
                        Some(n) => shape.push(n),
                        None => {
                            let v = dyn_iter
                                .next()
                                .ok_or_else(|| ExecError::new("missing dynamic size"))?;
                            shape.push(self.int(env, *v)? as usize);
                        }
                    }
                }
                env[op.results[0].index()] = Some(RtVal::Buf(BufferView::alloc(&shape)));
            }
            OpCode::MemDealloc => {}
            OpCode::MemDim => {
                let b = self.buf(env, op.operands[0])?;
                let d = op.int_attr("dim").unwrap_or(0) as usize;
                env[op.results[0].index()] = Some(RtVal::Int(b.dim(d) as i64));
            }
            OpCode::MemLoad => {
                let b = self.buf(env, op.operands[0])?;
                let idx: Vec<i64> = op.operands[1..]
                    .iter()
                    .map(|v| self.int(env, *v))
                    .collect::<Result<_, _>>()?;
                stats.loads += 1;
                env[op.results[0].index()] = Some(RtVal::F64(b.load(&idx)));
            }
            OpCode::MemStore => {
                let v = self.f(env, op.operands[0])?;
                let b = self.buf(env, op.operands[1])?;
                let idx: Vec<i64> = op.operands[2..]
                    .iter()
                    .map(|x| self.int(env, *x))
                    .collect::<Result<_, _>>()?;
                stats.stores += 1;
                b.store(&idx, v);
            }
            OpCode::MemSubview => {
                let b = self.buf(env, op.operands[0])?;
                let rank = b.rank();
                let offsets: Vec<i64> = op.operands[1..1 + rank]
                    .iter()
                    .map(|v| self.int(env, *v))
                    .collect::<Result<_, _>>()?;
                let sizes: Vec<usize> = op.operands[1 + rank..]
                    .iter()
                    .map(|v| self.int(env, *v).map(|x| x as usize))
                    .collect::<Result<_, _>>()?;
                env[op.results[0].index()] = Some(RtVal::Buf(b.subview(&offsets, &sizes)));
            }
            OpCode::MemShiftView => {
                let b = self.buf(env, op.operands[0])?;
                let shifts: Vec<i64> = op.operands[1..]
                    .iter()
                    .map(|v| self.int(env, *v))
                    .collect::<Result<_, _>>()?;
                env[op.results[0].index()] = Some(RtVal::Buf(b.shift_view(&shifts)));
            }
            OpCode::MemCopy => {
                let src = self.buf(env, op.operands[0])?;
                let dst = self.buf(env, op.operands[1])?;
                dst.copy_from(&src);
            }
            OpCode::VecTransferRead => {
                let b = self.buf(env, op.operands[0])?;
                let idx: Vec<i64> = op.operands[1..]
                    .iter()
                    .map(|v| self.int(env, *v))
                    .collect::<Result<_, _>>()?;
                let lanes = match body.value_type(op.results[0]) {
                    Type::Vector { len, .. } => *len,
                    _ => return Err(ExecError::new("transfer_read result not vector")),
                };
                stats.vector_loads += 1;
                env[op.results[0].index()] = Some(RtVal::Vec(b.load_vector(&idx, lanes)));
            }
            OpCode::VecTransferWrite => {
                let v = match self.value(env, op.operands[0])? {
                    RtVal::Vec(v) => v,
                    other => return Err(ExecError::new(format!("transfer_write {other:?}"))),
                };
                let b = self.buf(env, op.operands[1])?;
                let idx: Vec<i64> = op.operands[2..]
                    .iter()
                    .map(|x| self.int(env, *x))
                    .collect::<Result<_, _>>()?;
                stats.vector_stores += 1;
                b.store_vector(&idx, &v);
            }
            OpCode::VecExtract => {
                let v = match self.value(env, op.operands[0])? {
                    RtVal::Vec(v) => v,
                    other => return Err(ExecError::new(format!("vec.extract {other:?}"))),
                };
                let lane = op.int_attr("lane").unwrap_or(0) as usize;
                env[op.results[0].index()] = Some(RtVal::F64(v[lane]));
            }
            OpCode::VecBroadcast => {
                let s = self.f(env, op.operands[0])?;
                let lanes = match body.value_type(op.results[0]) {
                    Type::Vector { len, .. } => *len,
                    _ => return Err(ExecError::new("broadcast result not vector")),
                };
                env[op.results[0].index()] = Some(RtVal::Vec(vec![s; lanes]));
            }
            OpCode::CfdStencil => self.exec_stencil_ref(body, op_id, env, stats)?,
            OpCode::LinalgPointwise => self.exec_pointwise_ref(body, op_id, env, stats)?,
            OpCode::CfdFaceIterator => self.exec_face_ref(body, op_id, env, stats)?,
            other => {
                return Err(ExecError::new(format!(
                    "op {other} is not executable (bufferize/lower the module first)"
                )))
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Reference semantics of the structured ops
    // -----------------------------------------------------------------

    fn bounds_of(
        &self,
        body: &Body,
        op_id: OpId,
        env: &Env,
        k: usize,
        margins: &[i64],
        dims_buf: &BufferView,
    ) -> Result<(Vec<i64>, Vec<i64>), ExecError> {
        let op = body.op(op_id);
        if op.attrs.get("bounded").is_some() {
            let n = op.operands.len();
            let lo: Vec<i64> = op.operands[n - 2 * k..n - k]
                .iter()
                .map(|v| self.int(env, *v))
                .collect::<Result<_, _>>()?;
            let hi: Vec<i64> = op.operands[n - k..]
                .iter()
                .map(|v| self.int(env, *v))
                .collect::<Result<_, _>>()?;
            Ok((lo, hi))
        } else {
            let lo = margins.to_vec();
            let hi: Vec<i64> = (0..k)
                .map(|d| dims_buf.dim(d + 1) as i64 - margins[d])
                .collect();
            Ok((lo, hi))
        }
    }

    fn exec_stencil_ref(
        &self,
        body: &Body,
        op_id: OpId,
        env: &mut Env,
        stats: &mut ExecStats,
    ) -> Result<(), ExecError> {
        stats.reference_ops += 1;
        let op = body.op(op_id);
        if op.attrs.get("bufferized").is_none() {
            return Err(ExecError::new("tensor-form cfd.stencil is not executable"));
        }
        let pattern = attr_to_pattern(
            op.attrs
                .get("stencil")
                .ok_or_else(|| ExecError::new("missing stencil attr"))?,
        )
        .map_err(|e| ExecError::new(e.to_string()))?;
        let nb_var = op.int_attr("nb_var").unwrap_or(1) as usize;
        let n_aux = op.int_attr("n_aux").unwrap_or(0) as usize;
        let sweep = Sweep::decode(op.int_attr("sweep").unwrap_or(1))
            .ok_or_else(|| ExecError::new("bad sweep"))?;
        let k = pattern.rank();
        let x = self.buf(env, op.operands[0])?;
        let b = self.buf(env, op.operands[1])?;
        let aux: Vec<BufferView> = (0..n_aux)
            .map(|a| self.buf(env, op.operands[2 + a]))
            .collect::<Result<_, _>>()?;
        let y = self.buf(env, op.operands[2 + n_aux])?;
        let margins: Vec<i64> = pattern.radii().iter().map(|&r| r as i64).collect();
        let (lo, hi) = self.bounds_of(body, op_id, env, k, &margins, &y)?;
        let layout = RegionLayout {
            offsets: pattern.accessed_offsets(),
            nb_var,
            n_aux,
        };
        let sign = sweep.encode();
        let region = op.regions[0];

        let extents: Vec<i64> = (0..k).map(|d| (hi[d] - lo[d]).max(0)).collect();
        let total: i64 = extents.iter().product();
        let mut tau = vec![0i64; k];
        for _ in 0..total {
            let point: Vec<i64> = (0..k)
                .map(|d| match sweep {
                    Sweep::Forward => lo[d] + tau[d],
                    Sweep::Backward => hi[d] - 1 - tau[d],
                })
                .collect();
            // Gather region arguments.
            let mut args = vec![RtVal::F64(0.0); layout.num_args()];
            for (o, r) in layout.offsets.iter().enumerate() {
                let neighbor: Vec<i64> = (0..k).map(|d| point[d] + sign * r[d]).collect();
                let from_y = pattern.value_at(r) == -1;
                for v in 0..nb_var {
                    let mut full = vec![v as i64];
                    full.extend_from_slice(&neighbor);
                    let src = if from_y { &y } else { &x };
                    stats.loads += 1;
                    args[layout.state_index(o, v)] = RtVal::F64(src.load(&full));
                    for (a, ab) in aux.iter().enumerate() {
                        stats.loads += 1;
                        args[layout.aux_index(o, a, v)] = RtVal::F64(ab.load(&full));
                    }
                }
            }
            let yields = self.eval_region(body, region, &args, env, stats)?;
            for v in 0..nb_var {
                let mut full = vec![v as i64];
                full.extend_from_slice(&point);
                stats.loads += 1;
                let mut sum = b.load(&full);
                for o in 0..layout.offsets.len() {
                    sum += yields[layout.contrib_yield_index(o, v)].as_f64();
                    stats.scalar_flops += 1;
                }
                let d = yields[layout.d_yield_index(v)].as_f64();
                stats.scalar_flops += 1;
                stats.stores += 1;
                y.store(&full, d * sum);
            }
            // Odometer over tau.
            for d in (0..k).rev() {
                tau[d] += 1;
                if tau[d] < extents[d] {
                    break;
                }
                tau[d] = 0;
            }
        }
        Ok(())
    }

    fn exec_pointwise_ref(
        &self,
        body: &Body,
        op_id: OpId,
        env: &mut Env,
        stats: &mut ExecStats,
    ) -> Result<(), ExecError> {
        stats.reference_ops += 1;
        let op = body.op(op_id);
        if op.attrs.get("bufferized").is_none() {
            return Err(ExecError::new(
                "tensor-form linalg.pointwise is not executable",
            ));
        }
        let n_ins = op.int_attr("n_ins").unwrap_or(0) as usize;
        let interior = op
            .int_array_attr("interior")
            .ok_or_else(|| ExecError::new("pointwise missing interior"))?
            .to_vec();
        let rank = interior.len();
        let k = rank - 1;
        let offsets_flat = op
            .int_array_attr("offsets")
            .ok_or_else(|| ExecError::new("pointwise missing offsets"))?
            .to_vec();
        let offsets: Vec<Vec<i64>> = offsets_flat.chunks(rank).map(<[i64]>::to_vec).collect();
        let ins: Vec<BufferView> = (0..n_ins)
            .map(|j| self.buf(env, op.operands[j]))
            .collect::<Result<_, _>>()?;
        let out = self.buf(env, op.operands[n_ins])?;
        let dims_buf = if n_ins > 0 {
            ins[0].clone()
        } else {
            out.clone()
        };
        let (wlo, whi) = self.bounds_of(body, op_id, env, k, &interior[1..], &dims_buf)?;
        // Clamp window to interior.
        let lo: Vec<i64> = (0..k).map(|d| wlo[d].max(interior[d + 1])).collect();
        let hi: Vec<i64> = (0..k)
            .map(|d| whi[d].min(dims_buf.dim(d + 1) as i64 - interior[d + 1]))
            .collect();
        let region = op.regions[0];
        let n0 = out.dim(0) as i64;
        let extents: Vec<i64> = (0..k).map(|d| (hi[d] - lo[d]).max(0)).collect();
        let total: i64 = extents.iter().product();
        for v in 0..n0 {
            let mut tau = vec![0i64; k];
            for _ in 0..total {
                let point: Vec<i64> = (0..k).map(|d| lo[d] + tau[d]).collect();
                let mut args = Vec::with_capacity(n_ins);
                for (j, buf) in ins.iter().enumerate() {
                    let off = &offsets[j];
                    let mut full = vec![v + off[0]];
                    for d in 0..k {
                        full.push(point[d] + off[d + 1]);
                    }
                    stats.loads += 1;
                    args.push(RtVal::F64(buf.load(&full)));
                }
                let yields = self.eval_region(body, region, &args, env, stats)?;
                let mut full = vec![v];
                full.extend_from_slice(&point);
                stats.stores += 1;
                out.store(&full, yields[0].as_f64());
                for d in (0..k).rev() {
                    tau[d] += 1;
                    if tau[d] < extents[d] {
                        break;
                    }
                    tau[d] = 0;
                }
            }
        }
        Ok(())
    }

    fn exec_face_ref(
        &self,
        body: &Body,
        op_id: OpId,
        env: &mut Env,
        stats: &mut ExecStats,
    ) -> Result<(), ExecError> {
        stats.reference_ops += 1;
        let op = body.op(op_id);
        if op.attrs.get("bufferized").is_none() {
            return Err(ExecError::new(
                "tensor-form cfd.face_iterator is not executable",
            ));
        }
        let axis = op.int_attr("axis").unwrap_or(0) as usize;
        let nb_var = op.int_attr("nb_var").unwrap_or(1) as usize;
        let margin = op.int_attr("margin").unwrap_or(1);
        let x = self.buf(env, op.operands[0])?;
        let b = self.buf(env, op.operands[1])?;
        let k = x.rank() - 1;
        let glo: Vec<i64> = vec![margin; k];
        let ghi: Vec<i64> = (0..k).map(|d| x.dim(d + 1) as i64 - margin).collect();
        let (wlo, whi) = self.bounds_of(body, op_id, env, k, &glo, &x)?;
        // Face loop bounds.
        let mut flo = Vec::with_capacity(k);
        let mut fhi = Vec::with_capacity(k);
        for d in 0..k {
            if d == axis {
                // Include boundary-adjacent faces (frozen ghost cells).
                flo.push((wlo[d] - 1).max(glo[d] - 1));
                fhi.push(whi[d].min(ghi[d]));
            } else {
                flo.push(wlo[d].max(glo[d]));
                fhi.push(whi[d].min(ghi[d]));
            }
        }
        let region = op.regions[0];
        let extents: Vec<i64> = (0..k).map(|d| (fhi[d] - flo[d]).max(0)).collect();
        let total: i64 = extents.iter().product();
        let mut tau = vec![0i64; k];
        for _ in 0..total {
            let left: Vec<i64> = (0..k).map(|d| flo[d] + tau[d]).collect();
            let mut right = left.clone();
            right[axis] += 1;
            let mut args = Vec::with_capacity(2 * nb_var);
            for cell in [&left, &right] {
                for v in 0..nb_var {
                    let mut full = vec![v as i64];
                    full.extend_from_slice(cell);
                    stats.loads += 1;
                    args.push(RtVal::F64(x.load(&full)));
                }
            }
            let flux = self.eval_region(body, region, &args, env, stats)?;
            if left[axis] >= wlo[axis] {
                for (v, f) in flux.iter().enumerate() {
                    let mut full = vec![v as i64];
                    full.extend_from_slice(&left);
                    let cur = b.load(&full);
                    b.store(&full, cur + f.as_f64());
                    stats.loads += 1;
                    stats.stores += 1;
                    stats.scalar_flops += 1;
                }
            }
            if right[axis] < whi[axis] {
                for (v, f) in flux.iter().enumerate() {
                    let mut full = vec![v as i64];
                    full.extend_from_slice(&right);
                    let cur = b.load(&full);
                    b.store(&full, cur - f.as_f64());
                    stats.loads += 1;
                    stats.stores += 1;
                    stats.scalar_flops += 1;
                }
            }
            for d in (0..k).rev() {
                tau[d] += 1;
                if tau[d] < extents[d] {
                    break;
                }
                tau[d] = 0;
            }
        }
        Ok(())
    }
}

/// Convenience: asserts a value is defined by an op (used in tests).
pub fn is_op_result(body: &Body, v: ValueId) -> bool {
    matches!(body.value_def(v), ValueDef::OpResult { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use instencil_ir::{FuncBuilder, Module};

    fn run_scalar_func(build: impl FnOnce(&mut FuncBuilder)) -> Vec<RtVal> {
        let mut fb = FuncBuilder::new("f", vec![], vec![Type::F64]);
        build(&mut fb);
        let mut m = Module::new("t");
        m.push_func(fb.finish());
        m.verify().unwrap();
        let mut interp = Interpreter::new();
        interp.call(&m, "f", vec![]).unwrap()
    }

    #[test]
    fn arithmetic_and_loop() {
        let out = run_scalar_func(|fb| {
            let c0 = fb.const_index(0);
            let c10 = fb.const_index(10);
            let c1 = fb.const_index(1);
            let acc0 = fb.const_f64(0.0);
            let r = fb.build_for(c0, c10, c1, vec![acc0], |fb, iv, iters| {
                let x = fb.index_to_f64(iv);
                vec![fb.addf(iters[0], x)]
            });
            fb.ret(vec![r[0]]);
        });
        assert_eq!(out[0].as_f64(), 45.0);
    }

    #[test]
    fn if_and_compare() {
        let out = run_scalar_func(|fb| {
            let a = fb.const_f64(3.0);
            let b = fb.const_f64(5.0);
            let c = fb.cmpf(instencil_ir::CmpPred::Lt, a, b);
            let r = fb.build_if(
                c,
                vec![Type::F64],
                |fb| vec![fb.const_f64(1.0)],
                |fb| vec![fb.const_f64(-1.0)],
            );
            fb.ret(vec![r[0]]);
        });
        assert_eq!(out[0].as_f64(), 1.0);
    }

    #[test]
    fn memory_and_vectors() {
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
        let mut m = Module::new("t");
        m.push_func(fb.finish());
        m.verify().unwrap();
        let b = BufferView::from_data(&[2, 4], (0..8).map(f64::from).collect());
        let mut interp = Interpreter::new();
        let out = interp.call(&m, "f", vec![RtVal::Buf(b.clone())]).unwrap();
        assert_eq!(out[0].as_f64(), 6.0);
        assert_eq!(b.to_vec()[4..], [0.0, 2.0, 4.0, 6.0]);
        assert_eq!(interp.stats.vector_loads, 1);
        assert_eq!(interp.stats.vector_stores, 1);
        assert_eq!(interp.stats.vector_flops, 1);
    }

    #[test]
    fn get_parallel_blocks_produces_csr() {
        let mut fb = FuncBuilder::new("f", vec![], vec![]);
        let n = fb.const_index(3);
        let (rows, cols) = instencil_core::ops::build_get_parallel_blocks(
            &mut fb,
            &[n, n],
            vec![3, 3],
            vec![0, 0, 0, -1, 0, 0, 0, -1, 0],
        );
        let _ = (rows, cols);
        fb.ret(vec![]);
        let mut m = Module::new("t");
        m.push_func(fb.finish());
        let mut interp = Interpreter::new();
        interp.call(&m, "f", vec![]).unwrap();
        assert_eq!(interp.stats.schedules_computed, 1);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut fb = FuncBuilder::new("f", vec![], vec![Type::Index]);
        let a = fb.const_index(3);
        let z = fb.const_index(0);
        let q = fb.floordiv(a, z);
        fb.ret(vec![q]);
        let mut m = Module::new("t");
        m.push_func(fb.finish());
        let mut interp = Interpreter::new();
        let e = interp.call(&m, "f", vec![]).unwrap_err();
        assert!(e.message.contains("division by zero"), "{e}");
    }

    #[test]
    fn missing_function_is_an_error() {
        let m = Module::new("t");
        let mut interp = Interpreter::new();
        assert!(interp.call(&m, "nope", vec![]).is_err());
    }
}
