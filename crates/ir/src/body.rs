//! Arena storage for function bodies: operations, blocks, regions, values.
//!
//! A [`Body`] owns four flat arenas. Structure is expressed through id
//! lists: a region lists its blocks, a block lists its operations and
//! arguments. Erasing an operation removes it from its block's list; the
//! arena slot becomes unreachable (a full sweep happens when a function is
//! rebuilt by a pass).

use std::collections::HashMap;
use std::fmt;

use crate::attr::AttrMap;
use crate::ids::{BlockId, OpId, RegionId, ValueId};
use crate::op::{OpCode, Operation};
use crate::types::Type;

/// Where an SSA value is defined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th result of an operation.
    OpResult {
        /// Defining op.
        op: OpId,
        /// Result position.
        index: u32,
    },
    /// The `index`-th argument of a block.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: u32,
    },
}

/// Type and definition site of an SSA value.
#[derive(Clone, Debug)]
pub struct ValueInfo {
    /// Static type.
    pub ty: Type,
    /// Definition site.
    pub def: ValueDef,
}

/// A basic block: ordered operations plus typed block arguments.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Block arguments (SSA values defined by the block).
    pub args: Vec<ValueId>,
    /// Operations in execution order; the last one must be a terminator in
    /// non-entry contexts that require one.
    pub ops: Vec<OpId>,
}

/// A region: an ordered list of blocks (single-block in this IR's
/// structured-control-flow style).
#[derive(Clone, Debug, Default)]
pub struct Region {
    /// Blocks; `blocks[0]` is the entry block.
    pub blocks: Vec<BlockId>,
}

/// Arena container for one function body.
#[derive(Clone, Default)]
pub struct Body {
    ops: Vec<Operation>,
    blocks: Vec<Block>,
    regions: Vec<Region>,
    values: Vec<ValueInfo>,
}

impl Body {
    /// Creates an empty body with a top-level region containing one empty
    /// entry block. Returns the body; the top region is region 0 and the
    /// entry block is block 0.
    pub fn new() -> Self {
        let mut b = Body::default();
        let r = b.add_region();
        b.add_block(r);
        b
    }

    /// The top-level region (always id 0).
    pub fn top_region(&self) -> RegionId {
        RegionId::from_raw(0)
    }

    /// The entry block of the top-level region.
    pub fn entry_block(&self) -> BlockId {
        self.regions[0].blocks[0]
    }

    /// Adds an empty region and returns its id.
    pub fn add_region(&mut self) -> RegionId {
        let id = RegionId::from_raw(self.regions.len() as u32);
        self.regions.push(Region::default());
        id
    }

    /// Adds an empty block to `region` and returns its id.
    pub fn add_block(&mut self, region: RegionId) -> BlockId {
        let id = BlockId::from_raw(self.blocks.len() as u32);
        self.blocks.push(Block::default());
        self.regions[region.index()].blocks.push(id);
        id
    }

    /// Appends a typed argument to `block`, returning the new value.
    pub fn add_block_arg(&mut self, block: BlockId, ty: Type) -> ValueId {
        let index = self.blocks[block.index()].args.len() as u32;
        let v = self.new_value(ty, ValueDef::BlockArg { block, index });
        self.blocks[block.index()].args.push(v);
        v
    }

    fn new_value(&mut self, ty: Type, def: ValueDef) -> ValueId {
        let id = ValueId::from_raw(self.values.len() as u32);
        self.values.push(ValueInfo { ty, def });
        id
    }

    /// Creates an operation at the end of `block` with fresh result values
    /// of the given types; returns the op id.
    pub fn create_op(
        &mut self,
        block: BlockId,
        opcode: OpCode,
        operands: Vec<ValueId>,
        result_tys: Vec<Type>,
        attrs: AttrMap,
        regions: Vec<RegionId>,
    ) -> OpId {
        let id = OpId::from_raw(self.ops.len() as u32);
        let results = result_tys
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                self.new_value(
                    ty,
                    ValueDef::OpResult {
                        op: id,
                        index: index as u32,
                    },
                )
            })
            .collect();
        self.ops.push(Operation {
            opcode,
            operands,
            results,
            attrs,
            regions,
            parent: block,
        });
        self.blocks[block.index()].ops.push(id);
        id
    }

    /// Immutable access to an operation.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Mutable access to an operation.
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        &mut self.ops[id.index()]
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Immutable access to a region.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Type of a value.
    pub fn value_type(&self, v: ValueId) -> &Type {
        &self.values[v.index()].ty
    }

    /// Definition site of a value.
    pub fn value_def(&self, v: ValueId) -> ValueDef {
        self.values[v.index()].def
    }

    /// The defining op of a value, if it is an op result.
    pub fn defining_op(&self, v: ValueId) -> Option<OpId> {
        match self.value_def(v) {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    /// Number of value slots (for iteration in verifiers).
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of op slots (including erased ones).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Removes `op` from its parent block (the arena slot remains).
    pub fn erase_op(&mut self, op: OpId) {
        let parent = self.ops[op.index()].parent;
        self.blocks[parent.index()].ops.retain(|&o| o != op);
    }

    /// Walks all operations reachable from `region` in pre-order,
    /// depth-first, calling `f` on each op id.
    pub fn walk_region(&self, region: RegionId, f: &mut impl FnMut(OpId)) {
        for &b in &self.regions[region.index()].blocks {
            for &o in &self.blocks[b.index()].ops {
                f(o);
                for &r in &self.ops[o.index()].regions {
                    self.walk_region(r, f);
                }
            }
        }
    }

    /// Walks all operations in the body (from the top region).
    pub fn walk(&self, mut f: impl FnMut(OpId)) {
        self.walk_region(self.top_region(), &mut f);
    }

    /// Collects all ops in the top region (pre-order).
    pub fn all_ops(&self) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk(|o| out.push(o));
        out
    }

    /// Finds the first op with the given opcode, searching pre-order.
    pub fn find_first(&self, opcode: &OpCode) -> Option<OpId> {
        let mut found = None;
        self.walk(|o| {
            if found.is_none() && &self.op(o).opcode == opcode {
                found = Some(o);
            }
        });
        found
    }

    /// Collects every op with the given opcode (pre-order).
    pub fn find_all(&self, opcode: &OpCode) -> Vec<OpId> {
        let mut found = Vec::new();
        self.walk(|o| {
            if &self.op(o).opcode == opcode {
                found.push(o);
            }
        });
        found
    }

    /// Deep-clones region `src_region` of `src` into `self`, remapping
    /// values through `map` (callers pre-seed `map` with captures). Returns
    /// the new region id.
    ///
    /// Values used inside the region but not defined there must already be
    /// present in `map`, otherwise this function panics (an unmapped use is
    /// a bug in the calling transformation).
    pub fn clone_region_from(
        &mut self,
        src: &Body,
        src_region: RegionId,
        map: &mut HashMap<ValueId, ValueId>,
    ) -> RegionId {
        let new_region = self.add_region();
        for &sb in &src.regions[src_region.index()].blocks {
            let nb = self.add_block(new_region);
            for &arg in &src.blocks[sb.index()].args {
                let na = self.add_block_arg(nb, src.value_type(arg).clone());
                map.insert(arg, na);
            }
            for &sop in &src.blocks[sb.index()].ops {
                self.clone_op_into(src, sop, nb, map);
            }
        }
        new_region
    }

    /// Clones a single op (with nested regions) from `src` to the end of
    /// block `dst_block` in `self`, remapping operands through `map` and
    /// recording result mappings. Returns the new op id.
    ///
    /// # Panics
    /// Panics if an operand is not present in `map` and not a value of
    /// `self` — see [`Body::clone_region_from`].
    pub fn clone_op_into(
        &mut self,
        src: &Body,
        src_op: OpId,
        dst_block: BlockId,
        map: &mut HashMap<ValueId, ValueId>,
    ) -> OpId {
        let op = src.op(src_op).clone();
        let operands: Vec<ValueId> = op
            .operands
            .iter()
            .map(|v| {
                *map.get(v).unwrap_or_else(|| {
                    panic!("clone_op_into: unmapped operand {v} of {}", op.opcode)
                })
            })
            .collect();
        let result_tys: Vec<Type> = op
            .results
            .iter()
            .map(|r| src.value_type(*r).clone())
            .collect();
        let new_op = self.create_op(
            dst_block,
            op.opcode.clone(),
            operands,
            result_tys,
            op.attrs.clone(),
            vec![],
        );
        // Map results before cloning regions (regions may not reference
        // results of their own op, but keep the order safe anyway).
        let new_results = self.op(new_op).results.clone();
        for (old, new) in op.results.iter().zip(new_results.iter()) {
            map.insert(*old, *new);
        }
        let mut new_regions = Vec::with_capacity(op.regions.len());
        for &r in &op.regions {
            new_regions.push(self.clone_region_from(src, r, map));
        }
        self.op_mut(new_op).regions = new_regions;
        new_op
    }

    /// Returns the terminator op of a block, if any.
    pub fn terminator(&self, block: BlockId) -> Option<OpId> {
        self.blocks[block.index()]
            .ops
            .last()
            .copied()
            .filter(|&o| self.op(o).opcode.is_terminator())
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Body({} ops, {} blocks, {} regions, {} values)",
            self.ops.len(),
            self.blocks.len(),
            self.regions.len(),
            self.values.len()
        )
    }
}

/// A function: signature plus a body whose entry-block arguments are the
/// function arguments.
#[derive(Clone, Debug)]
pub struct Func {
    /// Symbol name.
    pub name: String,
    /// Argument types (mirrors the entry block arguments).
    pub arg_types: Vec<Type>,
    /// Result types (mirrors the `func.return` operands).
    pub result_types: Vec<Type>,
    /// The body arena.
    pub body: Body,
}

impl Func {
    /// The `i`-th function argument value.
    pub fn arg(&self, i: usize) -> ValueId {
        let entry = self.body.entry_block();
        self.body.block(entry).args[i]
    }

    /// All function argument values.
    pub fn args(&self) -> Vec<ValueId> {
        let entry = self.body.entry_block();
        self.body.block(entry).args.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrMap;

    fn const_op(b: &mut Body, block: BlockId, v: f64) -> ValueId {
        let mut attrs = AttrMap::new();
        attrs.set("value", crate::attr::Attribute::Float(v));
        let op = b.create_op(
            block,
            OpCode::Constant,
            vec![],
            vec![Type::F64],
            attrs,
            vec![],
        );
        b.op(op).result()
    }

    #[test]
    fn build_and_walk() {
        let mut b = Body::new();
        let e = b.entry_block();
        let c1 = const_op(&mut b, e, 1.0);
        let c2 = const_op(&mut b, e, 2.0);
        let add = b.create_op(
            e,
            OpCode::AddF,
            vec![c1, c2],
            vec![Type::F64],
            AttrMap::new(),
            vec![],
        );
        let r = b.op(add).result();
        b.create_op(e, OpCode::Return, vec![r], vec![], AttrMap::new(), vec![]);
        let mut count = 0;
        b.walk(|_| count += 1);
        assert_eq!(count, 4);
        assert_eq!(b.value_type(r), &Type::F64);
        assert_eq!(b.defining_op(r), Some(add));
    }

    #[test]
    fn erase_removes_from_block() {
        let mut b = Body::new();
        let e = b.entry_block();
        let c1 = const_op(&mut b, e, 1.0);
        let def = b.defining_op(c1).unwrap();
        assert_eq!(b.block(e).ops.len(), 1);
        b.erase_op(def);
        assert!(b.block(e).ops.is_empty());
    }

    #[test]
    fn clone_region_remaps_values() {
        // Build a body with a nested region using an outer value.
        let mut b = Body::new();
        let e = b.entry_block();
        let outer = const_op(&mut b, e, 3.0);
        let region = b.add_region();
        let inner_block = b.add_block(region);
        let arg = b.add_block_arg(inner_block, Type::F64);
        let add = b.create_op(
            inner_block,
            OpCode::AddF,
            vec![arg, outer],
            vec![Type::F64],
            AttrMap::new(),
            vec![],
        );
        let add_r = b.op(add).result();
        b.create_op(
            inner_block,
            OpCode::Yield,
            vec![add_r],
            vec![],
            AttrMap::new(),
            vec![],
        );

        // Clone into a fresh body, mapping `outer` to a new constant.
        let mut dst = Body::new();
        let de = dst.entry_block();
        let new_outer = const_op(&mut dst, de, 5.0);
        let mut map = HashMap::new();
        map.insert(outer, new_outer);
        let cloned = dst.clone_region_from(&b, region, &mut map);
        let cb = dst.region(cloned).blocks[0];
        assert_eq!(dst.block(cb).args.len(), 1);
        let cloned_add = dst.block(cb).ops[0];
        assert_eq!(dst.op(cloned_add).opcode, OpCode::AddF);
        // Second operand must be the remapped outer value.
        assert_eq!(dst.op(cloned_add).operands[1], new_outer);
        // Terminator preserved.
        let term = dst.terminator(cb).unwrap();
        assert_eq!(dst.op(term).opcode, OpCode::Yield);
    }

    #[test]
    #[should_panic(expected = "unmapped operand")]
    fn clone_panics_on_unmapped_capture() {
        let mut b = Body::new();
        let e = b.entry_block();
        let outer = const_op(&mut b, e, 3.0);
        let region = b.add_region();
        let inner_block = b.add_block(region);
        b.create_op(
            inner_block,
            OpCode::Yield,
            vec![outer],
            vec![],
            AttrMap::new(),
            vec![],
        );
        let mut dst = Body::new();
        let mut map = HashMap::new();
        let _ = dst.clone_region_from(&b, region, &mut map);
    }
}
