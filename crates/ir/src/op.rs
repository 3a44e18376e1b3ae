//! Operation definitions: the opcode catalog of every dialect.
//!
//! Unlike MLIR, where dialects are dynamically registered, this IR uses a
//! closed (but easily extended) [`OpCode`] enum covering every dialect the
//! stencil generator needs: `arith`, `math`, `scf`, `func`, `tensor`,
//! `memref`, `vector`, `linalg` and the paper's `cfd` dialect. A
//! [`OpCode::Generic`] escape hatch carries unknown ops through parsing.

use std::fmt;

use crate::attr::AttrMap;
use crate::ids::{BlockId, OpId, RegionId, ValueId};

/// Comparison predicate for `arith.cmpi` / `arith.cmpf`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpPred {
    /// The textual mnemonic (`"eq"`, `"lt"`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        }
    }

    /// Parses a mnemonic produced by [`CmpPred::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "lt" => CmpPred::Lt,
            "le" => CmpPred::Le,
            "gt" => CmpPred::Gt,
            "ge" => CmpPred::Ge,
            _ => return None,
        })
    }

    /// Evaluates the predicate on two ordered integers.
    pub fn eval_int(self, a: i64, b: i64) -> bool {
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        }
    }

    /// Evaluates the predicate on two floats (ordered comparison).
    pub fn eval_float(self, a: f64, b: f64) -> bool {
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Every operation kind known to the IR, namespaced by dialect.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpCode {
    // ----- arith -----
    /// `arith.constant` — materializes a constant; payload in the `value`
    /// attribute, result type decides int/float/index.
    Constant,
    /// `arith.addf` — float/vector addition.
    AddF,
    /// `arith.subf` — float/vector subtraction.
    SubF,
    /// `arith.mulf` — float/vector multiplication.
    MulF,
    /// `arith.divf` — float/vector division.
    DivF,
    /// `arith.negf` — float/vector negation.
    NegF,
    /// `arith.maximumf` — float/vector maximum.
    MaxF,
    /// `arith.minimumf` — float/vector minimum.
    MinF,
    /// `arith.addi` — integer/index addition.
    AddI,
    /// `arith.subi` — integer/index subtraction.
    SubI,
    /// `arith.muli` — integer/index multiplication.
    MulI,
    /// `arith.floordivsi` — signed floor division.
    FloorDivSI,
    /// `arith.ceildivsi` — signed ceiling division.
    CeilDivSI,
    /// `arith.remsi` — signed remainder.
    RemSI,
    /// `arith.minsi` — signed integer minimum.
    MinSI,
    /// `arith.maxsi` — signed integer maximum.
    MaxSI,
    /// `arith.cmpi` — integer comparison; predicate in `predicate` attr.
    CmpI(CmpPred),
    /// `arith.cmpf` — float comparison; predicate in `predicate` attr.
    CmpF(CmpPred),
    /// `arith.select` — ternary select on an `i1`.
    Select,
    /// `arith.index_cast` — cast between `index` and `i64`.
    IndexCast,
    /// `arith.sitofp` — signed int to float.
    SiToFp,

    // ----- math -----
    /// `math.fma` — fused multiply-add `a*b + c` (scalar or vector).
    Fma,
    /// `math.sqrt`.
    Sqrt,
    /// `math.absf`.
    AbsF,
    /// `math.exp`.
    Exp,
    /// `math.powf`.
    PowF,

    // ----- scf -----
    /// `scf.for` — counted loop with `iter_args`: operands are
    /// `[lb, ub, step, init...]`, one region whose block takes
    /// `[iv, iter...]` and terminates with `scf.yield`.
    For,
    /// `scf.if` — conditional with optional else region; operands `[cond]`.
    If,
    /// `scf.parallel` — parallel counted loop; operands `[lb, ub, step]`,
    /// body must be side-effecting (memref semantics), no iter_args.
    Parallel,
    /// `scf.yield` — region terminator carrying loop-carried values.
    Yield,
    /// `scf.execute_wavefronts` — sequential loop over CSR wavefront rows
    /// with a parallel loop over the entries of each row; operands
    /// `[row_ptr, cols]` (two `tensor<?xi64>`), one region whose block takes
    /// the linearized block index (`index`). Synchronizes between rows.
    ExecuteWavefronts,

    // ----- func -----
    /// `func.call` — direct call; callee symbol in the `callee` attribute.
    Call,
    /// `func.return` — function terminator.
    Return,

    // ----- tensor -----
    /// `tensor.empty` — creates an uninitialized tensor; dynamic sizes as
    /// operands.
    TensorEmpty,
    /// `tensor.extract` — scalar read: operands `[tensor, indices...]`.
    TensorExtract,
    /// `tensor.insert` — scalar write producing a new tensor:
    /// operands `[scalar, tensor, indices...]`.
    TensorInsert,
    /// `tensor.extract_slice` — rectangular subview (value semantics):
    /// operands `[tensor, offsets..., sizes...]`; strides are all 1.
    TensorExtractSlice,
    /// `tensor.insert_slice` — writes a tile back:
    /// operands `[tile, dest, offsets..., sizes...]`.
    TensorInsertSlice,
    /// `tensor.dim` — dynamic dimension query; operand `[tensor]`, the
    /// dimension number in the `dim` attribute.
    TensorDim,

    // ----- memref -----
    /// `memref.alloc` — allocates a buffer; dynamic sizes as operands.
    MemAlloc,
    /// `memref.dealloc`.
    MemDealloc,
    /// `memref.load` — operands `[memref, indices...]`.
    MemLoad,
    /// `memref.store` — operands `[value, memref, indices...]`.
    MemStore,
    /// `memref.subview` — operands `[memref, offsets..., sizes...]`;
    /// produces an aliasing view with unit strides.
    MemSubview,
    /// `memref.copy` — operands `[src, dst]`.
    MemCopy,
    /// `memref.dim` — dynamic dimension query, `dim` attribute.
    MemDim,
    /// `memref.shift_view` — operands `[memref, shifts...]`; produces a
    /// view addressed in shifted coordinates: `view[i] = src[i - shift]`.
    /// Used to address halo-tile temporaries with global coordinates.
    MemShiftView,

    // ----- vector -----
    /// `vector.transfer_read` — operands `[source, indices...]`, reads a
    /// contiguous `vector<VFxf64>` starting at the indices.
    VecTransferRead,
    /// `vector.transfer_write` — operands `[vector, dest, indices...]`.
    VecTransferWrite,
    /// `vector.extract` — lane extraction, lane number in `lane` attribute.
    VecExtract,
    /// `vector.broadcast` — splats a scalar into a vector.
    VecBroadcast,

    // ----- linalg -----
    /// `linalg.pointwise` — elementwise map over an iteration domain with
    /// per-input constant offsets (generalizes `linalg.generic` with
    /// shifted identity maps, enough for finite-difference right-hand
    /// sides). Operands `[ins..., outs...]`; attrs: `n_ins`,
    /// `offsets` (flattened rank×n_ins), `interior` (IntArray margin per
    /// dim). Region block takes one scalar per input, yields one scalar
    /// per output.
    LinalgPointwise,

    // ----- cfd (the paper's dialect) -----
    /// `cfd.stencil` — one iteration of an in-place stencil (paper Eq. 2 /
    /// Fig. 3). Tensor form: operands `[X, B, aux..., Y_init]`, result
    /// `[Y]`. Bufferized form (`bufferized` unit attr): operands
    /// `[X, B, aux..., Y]` (+ `2*rank` index bounds when `bounded` is
    /// set), no results. Attrs: `stencil` (DenseI8 `{-1,0,1}` window),
    /// `nb_var` (field count), `n_aux`, `sweep` (+1 forward / −1
    /// backward). The region block takes, for each accessed offset in
    /// lexicographic order (non-zero entries plus the center), `nb_var`
    /// state scalars followed by `nb_var` scalars per aux tensor; it
    /// yields `nb_var` diagonal `D` values followed by `nb_var`
    /// contribution values per accessed offset.
    CfdStencil,
    /// `cfd.face_iterator` — finite-volume flux accumulation along one
    /// axis (`axis` attribute): operands `[X, B_init]`, result `[B]`; the
    /// region maps `[uL..., uR...]` (2·nb_var values) to `nb_var` fluxes
    /// which are added to the left cell and subtracted from the right.
    CfdFaceIterator,
    /// `cfd.tiled_loop` — explicit tiled loop nest over tensors: operands
    /// `[lbs..., ubs..., steps..., ins..., outs...]` with arity attrs
    /// `rank`, `n_ins`, `n_outs`; optional `wavefront` unit attr marks the
    /// two leading `ins` as CSR schedule tensors. Region block args:
    /// `[ivs..., in_tensors..., out_tensors...]`, terminated by
    /// `cfd.yield` of the out tensors.
    CfdTiledLoop,
    /// `cfd.get_parallel_blocks` — computes the wavefront schedule of a
    /// grid of sub-domains (paper §3.4): operands `[n_0, ..., n_{k-1}]`
    /// (index), attr `block_stencil` (DenseI8 with values in `{-1,0}`),
    /// results `[row_ptr, cols]` as `tensor<?xi64>` in CSR form.
    CfdGetParallelBlocks,
    /// `cfd.yield` — terminator of `cfd` regions.
    CfdYield,

    // ----- escape hatch -----
    /// An op unknown to the catalog, kept opaque (name retained).
    Generic(String),
}

impl OpCode {
    /// The fully qualified `dialect.op` name.
    pub fn name(&self) -> String {
        match self {
            OpCode::Constant => "arith.constant".into(),
            OpCode::AddF => "arith.addf".into(),
            OpCode::SubF => "arith.subf".into(),
            OpCode::MulF => "arith.mulf".into(),
            OpCode::DivF => "arith.divf".into(),
            OpCode::NegF => "arith.negf".into(),
            OpCode::MaxF => "arith.maximumf".into(),
            OpCode::MinF => "arith.minimumf".into(),
            OpCode::AddI => "arith.addi".into(),
            OpCode::SubI => "arith.subi".into(),
            OpCode::MulI => "arith.muli".into(),
            OpCode::FloorDivSI => "arith.floordivsi".into(),
            OpCode::CeilDivSI => "arith.ceildivsi".into(),
            OpCode::RemSI => "arith.remsi".into(),
            OpCode::MinSI => "arith.minsi".into(),
            OpCode::MaxSI => "arith.maxsi".into(),
            OpCode::CmpI(p) => format!("arith.cmpi.{}", p.mnemonic()),
            OpCode::CmpF(p) => format!("arith.cmpf.{}", p.mnemonic()),
            OpCode::Select => "arith.select".into(),
            OpCode::IndexCast => "arith.index_cast".into(),
            OpCode::SiToFp => "arith.sitofp".into(),
            OpCode::Fma => "math.fma".into(),
            OpCode::Sqrt => "math.sqrt".into(),
            OpCode::AbsF => "math.absf".into(),
            OpCode::Exp => "math.exp".into(),
            OpCode::PowF => "math.powf".into(),
            OpCode::For => "scf.for".into(),
            OpCode::If => "scf.if".into(),
            OpCode::Parallel => "scf.parallel".into(),
            OpCode::Yield => "scf.yield".into(),
            OpCode::ExecuteWavefronts => "scf.execute_wavefronts".into(),
            OpCode::Call => "func.call".into(),
            OpCode::Return => "func.return".into(),
            OpCode::TensorEmpty => "tensor.empty".into(),
            OpCode::TensorExtract => "tensor.extract".into(),
            OpCode::TensorInsert => "tensor.insert".into(),
            OpCode::TensorExtractSlice => "tensor.extract_slice".into(),
            OpCode::TensorInsertSlice => "tensor.insert_slice".into(),
            OpCode::TensorDim => "tensor.dim".into(),
            OpCode::MemAlloc => "memref.alloc".into(),
            OpCode::MemDealloc => "memref.dealloc".into(),
            OpCode::MemLoad => "memref.load".into(),
            OpCode::MemStore => "memref.store".into(),
            OpCode::MemSubview => "memref.subview".into(),
            OpCode::MemCopy => "memref.copy".into(),
            OpCode::MemDim => "memref.dim".into(),
            OpCode::MemShiftView => "memref.shift_view".into(),
            OpCode::VecTransferRead => "vector.transfer_read".into(),
            OpCode::VecTransferWrite => "vector.transfer_write".into(),
            OpCode::VecExtract => "vector.extract".into(),
            OpCode::VecBroadcast => "vector.broadcast".into(),
            OpCode::LinalgPointwise => "linalg.pointwise".into(),
            OpCode::CfdStencil => "cfd.stencil".into(),
            OpCode::CfdFaceIterator => "cfd.face_iterator".into(),
            OpCode::CfdTiledLoop => "cfd.tiled_loop".into(),
            OpCode::CfdGetParallelBlocks => "cfd.get_parallel_blocks".into(),
            OpCode::CfdYield => "cfd.yield".into(),
            OpCode::Generic(name) => name.clone(),
        }
    }

    /// Inverse of [`OpCode::name`]; unknown names become
    /// [`OpCode::Generic`].
    pub fn from_name(name: &str) -> OpCode {
        if let Some(p) = name.strip_prefix("arith.cmpi.") {
            if let Some(p) = CmpPred::from_mnemonic(p) {
                return OpCode::CmpI(p);
            }
        }
        if let Some(p) = name.strip_prefix("arith.cmpf.") {
            if let Some(p) = CmpPred::from_mnemonic(p) {
                return OpCode::CmpF(p);
            }
        }
        match name {
            "arith.constant" => OpCode::Constant,
            "arith.addf" => OpCode::AddF,
            "arith.subf" => OpCode::SubF,
            "arith.mulf" => OpCode::MulF,
            "arith.divf" => OpCode::DivF,
            "arith.negf" => OpCode::NegF,
            "arith.maximumf" => OpCode::MaxF,
            "arith.minimumf" => OpCode::MinF,
            "arith.addi" => OpCode::AddI,
            "arith.subi" => OpCode::SubI,
            "arith.muli" => OpCode::MulI,
            "arith.floordivsi" => OpCode::FloorDivSI,
            "arith.ceildivsi" => OpCode::CeilDivSI,
            "arith.remsi" => OpCode::RemSI,
            "arith.minsi" => OpCode::MinSI,
            "arith.maxsi" => OpCode::MaxSI,
            "arith.select" => OpCode::Select,
            "arith.index_cast" => OpCode::IndexCast,
            "arith.sitofp" => OpCode::SiToFp,
            "math.fma" => OpCode::Fma,
            "math.sqrt" => OpCode::Sqrt,
            "math.absf" => OpCode::AbsF,
            "math.exp" => OpCode::Exp,
            "math.powf" => OpCode::PowF,
            "scf.for" => OpCode::For,
            "scf.if" => OpCode::If,
            "scf.parallel" => OpCode::Parallel,
            "scf.yield" => OpCode::Yield,
            "scf.execute_wavefronts" => OpCode::ExecuteWavefronts,
            "func.call" => OpCode::Call,
            "func.return" => OpCode::Return,
            "tensor.empty" => OpCode::TensorEmpty,
            "tensor.extract" => OpCode::TensorExtract,
            "tensor.insert" => OpCode::TensorInsert,
            "tensor.extract_slice" => OpCode::TensorExtractSlice,
            "tensor.insert_slice" => OpCode::TensorInsertSlice,
            "tensor.dim" => OpCode::TensorDim,
            "memref.alloc" => OpCode::MemAlloc,
            "memref.dealloc" => OpCode::MemDealloc,
            "memref.load" => OpCode::MemLoad,
            "memref.store" => OpCode::MemStore,
            "memref.subview" => OpCode::MemSubview,
            "memref.copy" => OpCode::MemCopy,
            "memref.dim" => OpCode::MemDim,
            "memref.shift_view" => OpCode::MemShiftView,
            "vector.transfer_read" => OpCode::VecTransferRead,
            "vector.transfer_write" => OpCode::VecTransferWrite,
            "vector.extract" => OpCode::VecExtract,
            "vector.broadcast" => OpCode::VecBroadcast,
            "linalg.pointwise" => OpCode::LinalgPointwise,
            "cfd.stencil" => OpCode::CfdStencil,
            "cfd.face_iterator" => OpCode::CfdFaceIterator,
            "cfd.tiled_loop" => OpCode::CfdTiledLoop,
            "cfd.get_parallel_blocks" => OpCode::CfdGetParallelBlocks,
            "cfd.yield" => OpCode::CfdYield,
            other => OpCode::Generic(other.to_owned()),
        }
    }

    /// The dialect namespace prefix (`"arith"`, `"cfd"`, ...).
    pub fn dialect(&self) -> String {
        let n = self.name();
        n.split('.').next().unwrap_or("").to_owned()
    }

    /// Returns `true` for ops that terminate a block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, OpCode::Yield | OpCode::Return | OpCode::CfdYield)
    }

    /// Returns `true` for pure (side-effect free, foldable) ops.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            OpCode::Constant
                | OpCode::AddF
                | OpCode::SubF
                | OpCode::MulF
                | OpCode::DivF
                | OpCode::NegF
                | OpCode::MaxF
                | OpCode::MinF
                | OpCode::AddI
                | OpCode::SubI
                | OpCode::MulI
                | OpCode::FloorDivSI
                | OpCode::CeilDivSI
                | OpCode::RemSI
                | OpCode::MinSI
                | OpCode::MaxSI
                | OpCode::CmpI(_)
                | OpCode::CmpF(_)
                | OpCode::Select
                | OpCode::IndexCast
                | OpCode::SiToFp
                | OpCode::Fma
                | OpCode::Sqrt
                | OpCode::AbsF
                | OpCode::Exp
                | OpCode::PowF
                | OpCode::TensorExtract
                | OpCode::TensorDim
                | OpCode::VecExtract
                | OpCode::VecBroadcast
        )
    }
}

impl fmt::Display for OpCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// An operation instance: opcode + operands + results + attributes +
/// regions, residing in a block.
#[derive(Clone, Debug)]
pub struct Operation {
    /// What the op does.
    pub opcode: OpCode,
    /// SSA operands.
    pub operands: Vec<ValueId>,
    /// SSA results (their types live in the body's value table).
    pub results: Vec<ValueId>,
    /// Compile-time attributes.
    pub attrs: AttrMap,
    /// Nested regions.
    pub regions: Vec<RegionId>,
    /// The block this op belongs to.
    pub parent: BlockId,
}

impl Operation {
    /// Single result id.
    ///
    /// # Panics
    /// Panics if the op does not have exactly one result.
    pub fn result(&self) -> ValueId {
        assert_eq!(
            self.results.len(),
            1,
            "{}: expected single result",
            self.opcode
        );
        self.results[0]
    }

    /// Integer attribute accessor.
    pub fn int_attr(&self, key: &str) -> Option<i64> {
        self.attrs.get(key).and_then(crate::attr::Attribute::as_int)
    }

    /// Int-array attribute accessor.
    pub fn int_array_attr(&self, key: &str) -> Option<&[i64]> {
        self.attrs
            .get(key)
            .and_then(crate::attr::Attribute::as_int_array)
    }
}

/// Back-reference for self-identification of cloned ops.
pub type OpRef = OpId;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrip_all_static_ops() {
        let ops = [
            OpCode::Constant,
            OpCode::AddF,
            OpCode::SubF,
            OpCode::MulF,
            OpCode::DivF,
            OpCode::NegF,
            OpCode::MaxF,
            OpCode::MinF,
            OpCode::AddI,
            OpCode::SubI,
            OpCode::MulI,
            OpCode::FloorDivSI,
            OpCode::CeilDivSI,
            OpCode::RemSI,
            OpCode::MinSI,
            OpCode::MaxSI,
            OpCode::Select,
            OpCode::IndexCast,
            OpCode::SiToFp,
            OpCode::Fma,
            OpCode::Sqrt,
            OpCode::AbsF,
            OpCode::Exp,
            OpCode::PowF,
            OpCode::For,
            OpCode::If,
            OpCode::Parallel,
            OpCode::Yield,
            OpCode::ExecuteWavefronts,
            OpCode::Call,
            OpCode::Return,
            OpCode::TensorEmpty,
            OpCode::TensorExtract,
            OpCode::TensorInsert,
            OpCode::TensorExtractSlice,
            OpCode::TensorInsertSlice,
            OpCode::TensorDim,
            OpCode::MemAlloc,
            OpCode::MemDealloc,
            OpCode::MemLoad,
            OpCode::MemStore,
            OpCode::MemSubview,
            OpCode::MemCopy,
            OpCode::MemDim,
            OpCode::MemShiftView,
            OpCode::VecTransferRead,
            OpCode::VecTransferWrite,
            OpCode::VecExtract,
            OpCode::VecBroadcast,
            OpCode::LinalgPointwise,
            OpCode::CfdStencil,
            OpCode::CfdFaceIterator,
            OpCode::CfdTiledLoop,
            OpCode::CfdGetParallelBlocks,
            OpCode::CfdYield,
        ];
        for op in ops {
            assert_eq!(OpCode::from_name(&op.name()), op, "roundtrip {}", op.name());
        }
    }

    #[test]
    fn cmp_ops_roundtrip() {
        for p in [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Lt,
            CmpPred::Le,
            CmpPred::Gt,
            CmpPred::Ge,
        ] {
            let op = OpCode::CmpI(p);
            assert_eq!(OpCode::from_name(&op.name()), op);
            let op = OpCode::CmpF(p);
            assert_eq!(OpCode::from_name(&op.name()), op);
        }
    }

    #[test]
    fn unknown_becomes_generic() {
        let op = OpCode::from_name("foo.bar");
        assert_eq!(op, OpCode::Generic("foo.bar".into()));
        assert_eq!(op.name(), "foo.bar");
        assert_eq!(op.dialect(), "foo");
    }

    #[test]
    fn terminators_and_purity() {
        assert!(OpCode::Yield.is_terminator());
        assert!(OpCode::Return.is_terminator());
        assert!(OpCode::CfdYield.is_terminator());
        assert!(!OpCode::For.is_terminator());
        assert!(OpCode::AddF.is_pure());
        assert!(!OpCode::MemStore.is_pure());
        assert!(!OpCode::For.is_pure());
    }

    #[test]
    fn pred_eval() {
        assert!(CmpPred::Lt.eval_int(1, 2));
        assert!(!CmpPred::Lt.eval_int(2, 2));
        assert!(CmpPred::Ge.eval_float(2.0, 2.0));
        assert!(CmpPred::Ne.eval_float(1.0, 2.0));
    }
}
