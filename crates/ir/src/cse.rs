//! Common-subexpression elimination for pure operations.
//!
//! The stencil lowering emits the same index arithmetic (`%i + c`,
//! `%v`-constants, lane offsets) many times per point; CSE replaces a
//! pure op by an earlier one with identical `(opcode, operands, result
//! type, attributes)` that dominates it: one in front of it in its own
//! block or in any enclosing block (so constants, having no operands,
//! unify across the whole visible scope).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::attr::Attribute;
use crate::body::{Body, Func};
use crate::ids::{BlockId, OpId};
use crate::uses::{run_indexed, UseIndex};

/// Structural hash of a pure op's computation — opcode, operand ids,
/// result type and attribute payloads (floats by bit pattern) — or `None`
/// when the op is not a CSE candidate.
fn hash_of(body: &Body, op: OpId) -> Option<u64> {
    let o = body.op(op);
    if !o.opcode.is_pure() || o.results.len() != 1 || !o.regions.is_empty() {
        return None;
    }
    let mut h = DefaultHasher::new();
    o.opcode.hash(&mut h);
    o.operands.hash(&mut h);
    // A scalar `2.0 : f64` and its `vector<8xf64>` splat share everything
    // but the result type.
    body.value_type(o.results[0]).hash(&mut h);
    for (key, value) in o.attrs.iter() {
        key.hash(&mut h);
        match value {
            Attribute::Float(f) => f.to_bits().hash(&mut h),
            Attribute::Int(i) => i.hash(&mut h),
            Attribute::Bool(b) => b.hash(&mut h),
            // Never on a pure op today; `same_computation` decides.
            _ => {}
        }
    }
    Some(h.finish())
}

/// Floats compare by bit pattern (`0.0` and `-0.0` are different
/// constants, a NaN equals itself), everything else structurally.
fn same_attr(a: &Attribute, b: &Attribute) -> bool {
    match (a, b) {
        (Attribute::Float(x), Attribute::Float(y)) => x.to_bits() == y.to_bits(),
        (Attribute::Array(x), Attribute::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same_attr(a, b))
        }
        _ => a == b,
    }
}

/// Whether two CSE candidates compute the same value.
fn same_computation(body: &Body, a: OpId, b: OpId) -> bool {
    let (x, y) = (body.op(a), body.op(b));
    x.opcode == y.opcode
        && x.operands == y.operands
        && body.value_type(x.results[0]) == body.value_type(y.results[0])
        && x.attrs.len() == y.attrs.len()
        && (x.attrs.iter().zip(y.attrs.iter()))
            .all(|((ka, va), (kb, vb))| ka == kb && same_attr(va, vb))
}

/// The expressions available at the current point of the dominance-order
/// walk: `(structural hash, probe)` → representative op, where ops whose
/// hashes collide take successive probe numbers. Inserts are logged, and
/// leaving a block removes that block's inserts newest first, which keeps
/// every probe sequence gap-free — so scoping costs no map clone.
#[derive(Default)]
struct ScopedTable {
    reps: HashMap<(u64, u32), OpId>,
    log: Vec<(u64, u32)>,
}

impl ScopedTable {
    /// The representative computing the same value as `op`, or the free
    /// probe number to insert `op` at.
    fn find(&self, body: &Body, op: OpId, hash: u64) -> Result<OpId, u32> {
        let mut probe = 0;
        while let Some(&rep) = self.reps.get(&(hash, probe)) {
            if same_computation(body, rep, op) {
                return Ok(rep);
            }
            probe += 1;
        }
        Err(probe)
    }

    fn insert(&mut self, hash: u64, probe: u32, op: OpId) {
        self.reps.insert((hash, probe), op);
        self.log.push((hash, probe));
    }

    /// Forgets every insert made since the log had `mark` entries.
    fn undo_to(&mut self, mark: usize) {
        for key in self.log.drain(mark..).rev() {
            self.reps.remove(&key);
        }
    }
}

fn cse_block(
    body: &mut Body,
    uses: &mut UseIndex,
    block: BlockId,
    table: &mut ScopedTable,
) -> usize {
    let mark = table.log.len();
    let mut eliminated = 0;
    for i in 0..body.block(block).ops.len() {
        let op = body.block(block).ops[i];
        if uses.is_dead(op) {
            continue;
        }
        // Hashed after the replacements made so far: operands of a later
        // duplicate already name the representative of an earlier one.
        if let Some(hash) = hash_of(body, op) {
            match table.find(body, op, hash) {
                Ok(rep) => {
                    let (from, to) = (body.op(op).result(), body.op(rep).result());
                    uses.replace_all_uses(body, from, to);
                    uses.erase(body, op);
                    eliminated += 1;
                    continue;
                }
                Err(probe) => table.insert(hash, probe, op),
            }
        }
        // Each nested block is a scope of its own (values defined inside
        // a region must not leak out, nor into a sibling).
        for r in 0..body.op(op).regions.len() {
            let region = body.op(op).regions[r];
            for b in 0..body.region(region).blocks.len() {
                let inner = body.region(region).blocks[b];
                eliminated += cse_block(body, uses, inner, table);
            }
        }
    }
    table.undo_to(mark);
    eliminated
}

/// One dominance-order walk over an indexed body: definitions precede
/// uses, so every duplicate meets its representative in this single pass.
pub(crate) fn cse(body: &mut Body, uses: &mut UseIndex) -> usize {
    let entry = body.entry_block();
    cse_block(body, uses, entry, &mut ScopedTable::default())
}

/// Runs CSE over a function. Returns the number of eliminated operations.
pub fn cse_func(func: &mut Func) -> usize {
    run_indexed(func, &[cse])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Type;

    #[test]
    fn duplicate_constants_unified() {
        let mut fb = FuncBuilder::new("f", vec![], vec![Type::F64]);
        let a = fb.const_f64(2.0);
        let b = fb.const_f64(2.0);
        let c = fb.addf(a, b);
        fb.ret(vec![c]);
        let mut func = fb.finish();
        let n = cse_func(&mut func);
        assert_eq!(n, 1);
        let entry = func.body.entry_block();
        // One constant + add + return.
        assert_eq!(func.body.block(entry).ops.len(), 3);
        let add = func.body.block(entry).ops[1];
        let ops = &func.body.op(add).operands;
        assert_eq!(ops[0], ops[1]);
    }

    #[test]
    fn chained_duplicates_collapse_to_fixpoint() {
        let mut fb = FuncBuilder::new("f", vec![Type::F64], vec![Type::F64]);
        let x = fb.arg(0);
        let a1 = fb.const_f64(1.0);
        let a2 = fb.const_f64(1.0);
        let s1 = fb.addf(x, a1);
        let s2 = fb.addf(x, a2); // duplicate only after a1 == a2
        let out = fb.mulf(s1, s2);
        fb.ret(vec![out]);
        let mut func = fb.finish();
        let n = cse_func(&mut func);
        assert_eq!(n, 2, "constant and the revealed duplicate add");
    }

    #[test]
    fn distinct_constants_survive() {
        let mut fb = FuncBuilder::new("f", vec![], vec![Type::F64]);
        let a = fb.const_f64(1.0);
        let b = fb.const_f64(1.0 + f64::EPSILON);
        let c = fb.addf(a, b);
        fb.ret(vec![c]);
        let mut func = fb.finish();
        assert_eq!(cse_func(&mut func), 0);
    }

    #[test]
    fn region_values_do_not_leak() {
        let mut fb = FuncBuilder::new("f", vec![Type::Index], vec![]);
        let n = fb.arg(0);
        let c0 = fb.const_index(0);
        let c1 = fb.const_index(1);
        fb.build_for(c0, n, c1, vec![], |fb, iv, _| {
            let _inner = fb.addi(iv, iv);
            vec![]
        });
        // Same expression outside the loop must NOT reuse the inner one
        // (iv does not dominate here) — different operands anyway, but an
        // identical-looking op inside a second loop must not match the
        // first loop's instance either.
        fb.build_for(c0, n, c1, vec![], |fb, iv, _| {
            let _inner = fb.addi(iv, iv);
            vec![]
        });
        fb.ret(vec![]);
        let mut func = fb.finish();
        cse_func(&mut func);
        assert!(instencil_verify_ok(&func));
    }

    #[test]
    fn scopes_nest_and_siblings_do_not_see_each_other() {
        use crate::op::{CmpPred, OpCode};
        // `x + x` in both branches of an `if` and again after it: three
        // survivors, since no instance dominates another ...
        let build = |hoisted: bool| {
            let mut fb = FuncBuilder::new("f", vec![Type::F64], vec![Type::F64]);
            let x = fb.arg(0);
            if hoisted {
                fb.addf(x, x);
            }
            let c = fb.cmpf(CmpPred::Lt, x, x);
            let r = fb.build_if(
                c,
                vec![Type::F64],
                |fb| vec![fb.addf(x, x)],
                |fb| vec![fb.addf(x, x)],
            )[0];
            let after = fb.addf(x, x);
            let out = fb.mulf(r, after);
            fb.ret(vec![out]);
            fb.finish()
        };
        let mut func = build(false);
        assert_eq!(cse_func(&mut func), 0);
        assert_eq!(func.body.find_all(&OpCode::AddF).len(), 3);
        // ... and one once an instance in front of the `if` dominates all.
        let mut func = build(true);
        assert_eq!(cse_func(&mut func), 3);
        assert_eq!(func.body.find_all(&OpCode::AddF).len(), 1);
        assert!(instencil_verify_ok(&func));
    }

    fn instencil_verify_ok(f: &crate::body::Func) -> bool {
        crate::verify::verify_func(f).is_ok()
    }

    #[test]
    fn side_effecting_ops_untouched() {
        let m = Type::memref_dyn(Type::F64, 1);
        let mut fb = FuncBuilder::new("f", vec![m], vec![]);
        let buf = fb.arg(0);
        let i = fb.const_index(0);
        let a = fb.mem_load(buf, &[i]);
        let two = fb.const_f64(2.0);
        let v = fb.mulf(a, two);
        fb.mem_store(v, buf, &[i]);
        // The second load observes the store above and must stay:
        // memory ops are not pure, so CSE never touches them.
        let b = fb.mem_load(buf, &[i]);
        let w = fb.mulf(b, two);
        fb.mem_store(w, buf, &[i]);
        fb.ret(vec![]);
        let mut func = fb.finish();
        cse_func(&mut func);
        // Both loads and both stores survive (MemLoad is not pure in
        // OpCode::is_pure, so CSE never touches it).
        use crate::op::OpCode;
        assert_eq!(func.body.find_all(&OpCode::MemLoad).len(), 2);
        assert_eq!(func.body.find_all(&OpCode::MemStore).len(), 2);
    }
}
