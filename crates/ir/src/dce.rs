//! Dead code elimination for pure operations.

use crate::body::{Body, Func};
use crate::ids::OpId;
use crate::uses::{run_indexed, UseIndex};

/// A live pure op none of whose results is used.
fn removable(body: &Body, uses: &UseIndex, op: OpId) -> bool {
    let o = body.op(op);
    !uses.is_dead(op) && o.opcode.is_pure() && o.results.iter().all(|&r| uses.is_unused(r))
}

/// Worklist DCE over an indexed body: seeded once with the unused pure
/// ops; erasing one releases its operands, and a definition whose last
/// use that was joins the list.
pub(crate) fn dce(body: &mut Body, uses: &mut UseIndex) -> usize {
    let mut work = Vec::new();
    body.walk(|op| {
        if removable(body, uses, op) {
            work.push(op);
        }
    });
    let mut erased = 0;
    while let Some(op) = work.pop() {
        // `x + x` releases `x` twice, so its definition can be listed twice.
        if uses.is_dead(op) {
            continue;
        }
        uses.erase(body, op);
        erased += 1;
        let defs = body
            .op(op)
            .operands
            .iter()
            .filter_map(|&v| body.defining_op(v));
        work.extend(defs.filter(|&def| removable(body, uses, def)));
    }
    erased
}

/// Erases pure ops whose results are all unused, transitively.
/// Returns the number of erased operations.
pub fn dce_func(func: &mut Func) -> usize {
    run_indexed(func, &[dce])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::op::OpCode;
    use crate::types::Type;

    #[test]
    fn removes_unused_chain() {
        let mut fb = FuncBuilder::new("f", vec![Type::F64], vec![Type::F64]);
        let x = fb.arg(0);
        let a = fb.const_f64(1.0);
        let b = fb.mulf(x, a); // dead (only used by dead op below)
        let _c = fb.addf(b, b); // dead
        fb.ret(vec![x]);
        let mut func = fb.finish();
        let n = dce_func(&mut func);
        assert_eq!(n, 3);
        let entry = func.body.entry_block();
        assert_eq!(func.body.block(entry).ops.len(), 1); // just the return
    }

    #[test]
    fn keeps_side_effecting_ops() {
        let m = Type::memref_dyn(Type::F64, 1);
        let mut fb = FuncBuilder::new("f", vec![m], vec![]);
        let buf = fb.arg(0);
        let i = fb.const_index(0);
        let v = fb.const_f64(3.0);
        fb.mem_store(v, buf, &[i]);
        fb.ret(vec![]);
        let mut func = fb.finish();
        dce_func(&mut func);
        assert!(func.body.find_first(&OpCode::MemStore).is_some());
        // Constants feeding the store survive.
        assert!(func.body.find_first(&OpCode::Constant).is_some());
    }

    #[test]
    fn dce_inside_regions() {
        let mut fb = FuncBuilder::new("f", vec![Type::Index], vec![]);
        let n = fb.arg(0);
        let c0 = fb.const_index(0);
        let c1 = fb.const_index(1);
        fb.build_for(c0, n, c1, vec![], |fb, iv, _| {
            let _dead = fb.addi(iv, iv);
            vec![]
        });
        fb.ret(vec![]);
        let mut func = fb.finish();
        let n_erased = dce_func(&mut func);
        assert_eq!(n_erased, 1);
    }
}
