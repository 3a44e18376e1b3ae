//! Constant folding and algebraic canonicalization.
//!
//! [`fold_func`] rewrites pure operations whose operands are constants
//! into `arith.constant`, and applies identity simplifications (`x + 0`,
//! `x * 1`, `select true`, ...) until a fixed point is reached.

use std::collections::VecDeque;

use crate::attr::{AttrMap, Attribute};
use crate::body::{Body, Func};
use crate::ids::{OpId, ValueId};
use crate::op::OpCode;
use crate::types::Type;
use crate::uses::{run_indexed, UseIndex};

/// A scalar compile-time constant.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Const {
    F(f64),
    I(i64),
    B(bool),
}

fn const_of(body: &Body, v: ValueId) -> Option<Const> {
    let op = body.defining_op(v)?;
    let op = body.op(op);
    if op.opcode != OpCode::Constant {
        return None;
    }
    // Only scalar constants fold (vector splats stay).
    if !body.value_type(v).is_scalar() {
        return None;
    }
    let value = op.attrs.get("value")?;
    match body.value_type(v) {
        Type::F64 | Type::F32 => value.as_float().map(Const::F),
        Type::I64 | Type::Index => value.as_int().map(Const::I),
        Type::I1 => value.as_bool().map(Const::B),
        _ => None,
    }
}

fn make_constant(body: &mut Body, uses: &mut UseIndex, op_id: OpId, c: Const) {
    uses.drop_operands(body, op_id);
    let op = body.op_mut(op_id);
    op.opcode = OpCode::Constant;
    op.regions.clear();
    let mut attrs = AttrMap::new();
    attrs.set(
        "value",
        match c {
            Const::F(v) => Attribute::Float(v),
            Const::I(v) => Attribute::Int(v),
            Const::B(v) => Attribute::Bool(v),
        },
    );
    op.attrs = attrs;
}

fn eval(opcode: &OpCode, operands: &[Const]) -> Option<Const> {
    use Const::*;
    Some(match (opcode, operands) {
        (OpCode::AddF, [F(a), F(b)]) => F(a + b),
        (OpCode::SubF, [F(a), F(b)]) => F(a - b),
        (OpCode::MulF, [F(a), F(b)]) => F(a * b),
        (OpCode::DivF, [F(a), F(b)]) => F(a / b),
        (OpCode::NegF, [F(a)]) => F(-a),
        (OpCode::MaxF, [F(a), F(b)]) => F(a.max(*b)),
        (OpCode::MinF, [F(a), F(b)]) => F(a.min(*b)),
        (OpCode::Fma, [F(a), F(b), F(c)]) => F(a.mul_add(*b, *c)),
        (OpCode::Sqrt, [F(a)]) => F(a.sqrt()),
        (OpCode::AbsF, [F(a)]) => F(a.abs()),
        (OpCode::Exp, [F(a)]) => F(a.exp()),
        (OpCode::PowF, [F(a), F(b)]) => F(a.powf(*b)),
        (OpCode::AddI, [I(a), I(b)]) => I(a.wrapping_add(*b)),
        (OpCode::SubI, [I(a), I(b)]) => I(a.wrapping_sub(*b)),
        (OpCode::MulI, [I(a), I(b)]) => I(a.wrapping_mul(*b)),
        (OpCode::FloorDivSI, [I(a), I(b)]) if *b != 0 => I(a.div_euclid(*b)),
        (OpCode::CeilDivSI, [I(a), I(b)]) if *b != 0 => I((*a + *b - 1).div_euclid(*b)),
        (OpCode::RemSI, [I(a), I(b)]) if *b != 0 => I(a.rem_euclid(*b)),
        (OpCode::MinSI, [I(a), I(b)]) => I(*a.min(b)),
        (OpCode::MaxSI, [I(a), I(b)]) => I(*a.max(b)),
        (OpCode::CmpI(p), [I(a), I(b)]) => B(p.eval_int(*a, *b)),
        (OpCode::CmpF(p), [F(a), F(b)]) => B(p.eval_float(*a, *b)),
        (OpCode::Select, [B(c), t, f]) => {
            if *c {
                *t
            } else {
                *f
            }
        }
        (OpCode::IndexCast, [I(a)]) => I(*a),
        (OpCode::SiToFp, [I(a)]) => F(*a as f64),
        _ => return None,
    })
}

/// Identity simplification: returns the value the op's single result should
/// be replaced by, if any.
fn identity(body: &Body, op_id: OpId) -> Option<ValueId> {
    let op = body.op(op_id);
    if op.results.len() != 1 {
        return None;
    }
    let c = |i: usize| const_of(body, op.operands[i]);
    match op.opcode {
        OpCode::AddF | OpCode::SubF => match (c(0), c(1)) {
            (_, Some(Const::F(0.0))) => Some(op.operands[0]),
            (Some(Const::F(a)), _) if a == 0.0 && op.opcode == OpCode::AddF => Some(op.operands[1]),
            _ => None,
        },
        OpCode::MulF | OpCode::DivF => match (c(0), c(1)) {
            (_, Some(Const::F(1.0))) => Some(op.operands[0]),
            (Some(Const::F(a)), _) if a == 1.0 && op.opcode == OpCode::MulF => Some(op.operands[1]),
            _ => None,
        },
        OpCode::AddI | OpCode::SubI => match (c(0), c(1)) {
            (_, Some(Const::I(0))) => Some(op.operands[0]),
            (Some(Const::I(0)), _) if op.opcode == OpCode::AddI => Some(op.operands[1]),
            _ => None,
        },
        OpCode::MulI => match (c(0), c(1)) {
            (_, Some(Const::I(1))) => Some(op.operands[0]),
            (Some(Const::I(1)), _) => Some(op.operands[1]),
            _ => None,
        },
        OpCode::Select => match c(0) {
            Some(Const::B(true)) => Some(op.operands[1]),
            Some(Const::B(false)) => Some(op.operands[2]),
            _ => None,
        },
        OpCode::MinSI | OpCode::MaxSI if op.operands[0] == op.operands[1] => Some(op.operands[0]),
        _ => None,
    }
}

/// Folds constants and applies identities in `func` until fixpoint.
/// Returns the number of rewrites applied.
pub fn fold_func(func: &mut Func) -> usize {
    run_indexed(func, &[fold])
}

fn foldable(opcode: &OpCode) -> bool {
    opcode.is_pure() && *opcode != OpCode::Constant
}

/// The ops waiting to be (re)examined, each queued at most once.
struct Worklist {
    queue: VecDeque<OpId>,
    queued: Vec<bool>,
}

impl Worklist {
    fn push(&mut self, op: OpId) {
        if !std::mem::replace(&mut self.queued[op.index()], true) {
            self.queue.push_back(op);
        }
    }

    fn pop(&mut self) -> Option<OpId> {
        let op = self.queue.pop_front()?;
        self.queued[op.index()] = false;
        Some(op)
    }
}

/// Worklist fold over an indexed body. The list is seeded once with every
/// op in pre-order — definitions before uses, so a valid body reaches the
/// fixed point in that one sweep — and a rewrite re-queues the users of
/// the value it changed (a no-op while they still wait for their turn).
pub(crate) fn fold(body: &mut Body, uses: &mut UseIndex) -> usize {
    let mut work = Worklist {
        queue: VecDeque::new(),
        queued: vec![false; body.num_ops()],
    };
    body.walk(|op| {
        if foldable(&body.op(op).opcode) {
            work.push(op);
        }
    });
    let mut rewrites = 0;
    while let Some(op_id) = work.pop() {
        let op = body.op(op_id);
        if uses.is_dead(op_id) || !foldable(&op.opcode) {
            continue;
        }
        // Identity simplifications first (do not require all-const).
        if let Some(repl) = identity(body, op_id) {
            let result = op.result();
            uses.users(result).for_each(|user| work.push(user));
            uses.replace_all_uses(body, result, repl);
            uses.erase(body, op_id);
            rewrites += 1;
            continue;
        }
        // `eval` knows no op of more than three operands.
        let mut consts = [Const::B(false); 3];
        if op.operands.len() > consts.len() {
            continue;
        }
        let known = op
            .operands
            .iter()
            .zip(&mut consts)
            .all(|(&v, slot)| const_of(body, v).map(|c| *slot = c).is_some());
        if !known {
            continue;
        }
        if let Some(value) = eval(&op.opcode, &consts[..op.operands.len()]) {
            let result = op.result();
            make_constant(body, uses, op_id, value);
            uses.users(result).for_each(|user| work.push(user));
            rewrites += 1;
        }
    }
    rewrites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::op::CmpPred;

    #[test]
    fn folds_constant_tree() {
        let mut fb = FuncBuilder::new("f", vec![], vec![Type::F64]);
        let a = fb.const_f64(2.0);
        let b = fb.const_f64(3.0);
        let c = fb.mulf(a, b);
        let d = fb.const_f64(1.0);
        let e = fb.addf(c, d);
        fb.ret(vec![e]);
        let mut func = fb.finish();
        let n = fold_func(&mut func);
        assert!(n >= 2, "expected folds, got {n}");
        let def = func.body.defining_op(e).unwrap();
        assert_eq!(func.body.op(def).opcode, OpCode::Constant);
        assert_eq!(
            func.body
                .op(def)
                .attrs
                .get("value")
                .and_then(Attribute::as_float),
            Some(7.0)
        );
    }

    #[test]
    fn add_zero_identity() {
        let mut fb = FuncBuilder::new("f", vec![Type::F64], vec![Type::F64]);
        let x = fb.arg(0);
        let zero = fb.const_f64(0.0);
        let y = fb.addf(x, zero);
        fb.ret(vec![y]);
        let mut func = fb.finish();
        fold_func(&mut func);
        // The return now uses x directly.
        let entry = func.body.entry_block();
        let last = *func.body.block(entry).ops.last().unwrap();
        assert_eq!(func.body.op(last).operands, vec![x]);
    }

    #[test]
    fn select_const_condition() {
        let mut fb = FuncBuilder::new("f", vec![Type::F64, Type::F64], vec![Type::F64]);
        let a = fb.arg(0);
        let b = fb.arg(1);
        let t = fb.const_bool(false);
        let s = fb.select(t, a, b);
        fb.ret(vec![s]);
        let mut func = fb.finish();
        fold_func(&mut func);
        let entry = func.body.entry_block();
        let last = *func.body.block(entry).ops.last().unwrap();
        assert_eq!(func.body.op(last).operands, vec![b]);
    }

    #[test]
    fn integer_folds() {
        let mut fb = FuncBuilder::new("f", vec![], vec![Type::I1]);
        let a = fb.const_index(7);
        let b = fb.const_index(2);
        let q = fb.floordiv(a, b); // 3
        let r = fb.remi(a, b); // 1
        let s = fb.addi(q, r); // 4
        let four = fb.const_index(4);
        let eq = fb.cmpi(CmpPred::Eq, s, four);
        fb.ret(vec![eq]);
        let mut func = fb.finish();
        fold_func(&mut func);
        let def = func.body.defining_op(eq).unwrap();
        assert_eq!(
            func.body
                .op(def)
                .attrs
                .get("value")
                .and_then(Attribute::as_bool),
            Some(true)
        );
    }

    #[test]
    fn does_not_fold_inside_unvisited_dead_slots() {
        // Folding twice is a no-op (fixpoint reached).
        let mut fb = FuncBuilder::new("f", vec![], vec![Type::F64]);
        let a = fb.const_f64(1.5);
        let b = fb.const_f64(2.5);
        let c = fb.addf(a, b);
        fb.ret(vec![c]);
        let mut func = fb.finish();
        fold_func(&mut func);
        assert_eq!(fold_func(&mut func), 0);
    }
}
