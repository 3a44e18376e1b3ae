//! Property: canonicalization (fold + CSE + DCE) preserves semantics.
//!
//! Random scalar expression DAGs — flat, and nested in `scf.for` /
//! `scf.if` regions — are built through the public builder, evaluated by
//! the interpreter, canonicalized, re-evaluated and compared bit-for-bit
//! (the folder uses the same f64 arithmetic as the interpreter, so
//! equality is exact). Randomized via the in-tree `instencil-testkit`
//! (the workspace builds offline, without proptest).
//!
//! These run in the debug profile, where the canonicalizer also asserts
//! after each of its passes that its maintained use index equals a fresh
//! rebuild.

use instencil_testkit::{check_n, Rng};

use instencil_exec::{Interpreter, RtVal};
use instencil_ir::pass::{canonicalize_func, CanonicalizePass};
use instencil_ir::{CmpPred, FuncBuilder, Module, Pass, Type, ValueId};

#[derive(Clone, Debug)]
enum Node {
    /// One of the three function arguments.
    Arg(u8),
    /// A literal (kept in a tame range to avoid inf/nan).
    Const(i16),
    /// Binary op over two earlier nodes.
    Bin(u8, u16, u16),
    /// Unary op over an earlier node.
    Un(u8, u16),
}

fn arb_dag(rng: &mut Rng) -> Vec<Node> {
    let len = rng.gen_range_usize(1, 40);
    (0..len)
        .map(|_| match rng.gen_range_usize(0, 4) {
            0 => Node::Arg(rng.gen_range_i64(0, 3) as u8),
            1 => Node::Const(rng.gen_range_i64(-50, 50) as i16),
            2 => Node::Bin(
                rng.gen_range_i64(0, 6) as u8,
                rng.next_u64() as u16,
                rng.next_u64() as u16,
            ),
            _ => Node::Un(rng.gen_range_i64(0, 2) as u8, rng.next_u64() as u16),
        })
        .collect()
}

fn build(nodes: &[Node]) -> Module {
    let mut fb = FuncBuilder::new("f", vec![Type::F64, Type::F64, Type::F64], vec![Type::F64]);
    let mut vals: Vec<ValueId> = Vec::new();
    for node in nodes {
        let v = match node {
            Node::Arg(i) => fb.arg((*i % 3) as usize),
            Node::Const(c) => fb.const_f64(f64::from(*c) / 8.0),
            Node::Bin(op, a, b) => {
                let (x, y) = if vals.is_empty() {
                    (fb.arg(0), fb.arg(1))
                } else {
                    (
                        vals[*a as usize % vals.len()],
                        vals[*b as usize % vals.len()],
                    )
                };
                match op % 6 {
                    0 => fb.addf(x, y),
                    1 => fb.subf(x, y),
                    2 => fb.mulf(x, y),
                    3 => fb.maxf(x, y),
                    4 => fb.minf(x, y),
                    _ => {
                        let z = fb.const_f64(0.5);
                        fb.fma(x, y, z)
                    }
                }
            }
            Node::Un(op, a) => {
                let x = if vals.is_empty() {
                    fb.arg(2)
                } else {
                    vals[*a as usize % vals.len()]
                };
                match op % 2 {
                    0 => fb.negf(x),
                    _ => fb.absf(x),
                }
            }
        };
        vals.push(v);
    }
    let out = *vals.last().unwrap();
    fb.ret(vec![out]);
    let mut m = Module::new("prop");
    m.push_func(fb.finish());
    m
}

fn eval(m: &Module, args: (f64, f64, f64)) -> f64 {
    let mut interp = Interpreter::new();
    let out = interp
        .call(
            m,
            "f",
            vec![RtVal::F64(args.0), RtVal::F64(args.1), RtVal::F64(args.2)],
        )
        .expect("evaluation");
    out[0].as_f64()
}

#[test]
fn canonicalization_preserves_value() {
    check_n("canonicalization_preserves_value", 128, |rng| {
        let nodes = arb_dag(rng);
        let a = rng.gen_range_f64(-4.0, 4.0);
        let b = rng.gen_range_f64(-4.0, 4.0);
        let c = rng.gen_range_f64(-4.0, 4.0);
        let mut m = build(&nodes);
        assert!(m.verify().is_ok());
        let before = eval(&m, (a, b, c));
        CanonicalizePass.run(&mut m).unwrap();
        assert!(m.verify().is_ok(), "canonicalized module must verify");
        let after = eval(&m, (a, b, c));
        assert!(
            before == after || (before.is_nan() && after.is_nan()),
            "canonicalization changed the result: {before} vs {after}"
        );
    });
}

#[test]
fn canonicalized_modules_roundtrip_through_text() {
    check_n("canonicalized_modules_roundtrip_through_text", 128, |rng| {
        let nodes = arb_dag(rng);
        let mut m = build(&nodes);
        CanonicalizePass.run(&mut m).unwrap();
        let text = m.to_text();
        let reparsed = instencil_ir::parse::parse_module(&text).unwrap();
        assert!(reparsed.verify().is_ok());
        // Semantics preserved through text as well.
        let x = (0.75, -1.5, 2.25);
        assert_eq!(eval(&m, x), eval(&reparsed, x));
    });
}

/// A leaf every block can name: a function argument, or a literal that
/// each use materializes as its own `arith.constant`.
#[derive(Clone, Copy, Debug)]
enum Leaf {
    Arg(usize),
    Const(i16),
}

/// A binary op over two [`Leaf`]s. A program owns a small pool of these
/// and instantiates them again and again — before a region op, inside
/// its region, in a sibling region (the other branch of an `scf.if`, a
/// later loop) and after it — so scoped CSE meets duplicates at every
/// nesting relation.
type Shared = (u8, Leaf, Leaf);

/// Statements index the values visible so far (modulo their count),
/// which include region-local ones — induction variables, iter_args —
/// that must not escape their region.
///
/// No `minsi` / `maxsi`: their `min(x, x)` identity can first appear
/// *after* CSE, the one case where the pass is not idempotent.
#[derive(Debug)]
enum Stmt {
    Shared(usize),
    Local(u8, usize, usize),
    For {
        trips: i64,
        init: usize,
        body: Block,
    },
    If {
        x: usize,
        y: usize,
        then: Block,
        otherwise: Block,
    },
}

/// A few statements and which of their values the block hands on (its
/// yield, or the function's result).
#[derive(Debug)]
struct Block {
    stmts: Vec<Stmt>,
    out: usize,
}

fn arb_block(rng: &mut Rng, depth: usize) -> Block {
    let stmts = (0..rng.gen_range_usize(2, 6))
        .map(|_| {
            let mut index = || rng.next_u64() as usize;
            let kinds = if depth < 3 { 6 } else { 4 };
            match index() % kinds {
                0 | 1 => Stmt::Shared(index()),
                2 | 3 => Stmt::Local(index() as u8, index(), index()),
                4 => Stmt::For {
                    trips: (index() % 4) as i64,
                    init: index(),
                    body: arb_block(rng, depth + 1),
                },
                _ => Stmt::If {
                    x: index(),
                    y: index(),
                    then: arb_block(rng, depth + 1),
                    otherwise: arb_block(rng, depth + 1),
                },
            }
        })
        .collect();
    Block {
        stmts,
        out: rng.next_u64() as usize,
    }
}

fn emit_bin(fb: &mut FuncBuilder, op: u8, x: ValueId, y: ValueId) -> ValueId {
    match op % 5 {
        0 => fb.addf(x, y),
        1 => fb.subf(x, y),
        2 => fb.mulf(x, y),
        3 => fb.maxf(x, y),
        _ => fb.minf(x, y),
    }
}

fn emit_shared(fb: &mut FuncBuilder, shared: &[Shared], which: usize) -> ValueId {
    let (op, x, y) = shared[which % shared.len()];
    let mut leaf = |l| match l {
        Leaf::Arg(i) => fb.arg(i),
        Leaf::Const(c) => fb.const_f64(f64::from(c) / 2.0),
    };
    let (x, y) = (leaf(x), leaf(y));
    emit_bin(fb, op, x, y)
}

/// Emits `block` at the builder's insertion point; `visible` is what it
/// can see on entry. Returns the value the block hands on.
fn emit_block(
    fb: &mut FuncBuilder,
    shared: &[Shared],
    block: &Block,
    visible: &[ValueId],
) -> ValueId {
    let mut scope = visible.to_vec();
    for stmt in &block.stmts {
        let at = |i: usize| scope[i % scope.len()];
        let v = match stmt {
            Stmt::Shared(which) => emit_shared(fb, shared, *which),
            Stmt::Local(op, x, y) => emit_bin(fb, *op, at(*x), at(*y)),
            Stmt::For { trips, init, body } => {
                let lb = fb.const_index(0);
                let ub = fb.const_index(*trips);
                let step = fb.const_index(1);
                fb.build_for(lb, ub, step, vec![at(*init)], |fb, iv, iter| {
                    let mut inner = scope.clone();
                    inner.push(iter[0]);
                    inner.push(fb.index_to_f64(iv));
                    vec![emit_block(fb, shared, body, &inner)]
                })[0]
            }
            Stmt::If {
                x,
                y,
                then,
                otherwise,
            } => {
                let cond = fb.cmpf(CmpPred::Lt, at(*x), at(*y));
                fb.build_if(
                    cond,
                    vec![Type::F64],
                    |fb| vec![emit_block(fb, shared, then, &scope)],
                    |fb| vec![emit_block(fb, shared, otherwise, &scope)],
                )[0]
            }
        };
        scope.push(v);
    }
    let local = &scope[visible.len()..];
    local[block.out % local.len()]
}

/// A random `f(a, b, c) -> f64` with nested regions. It returns the sum
/// of its entry block's pick and one more round of every shared
/// expression, so duplicates *after* every region are live.
fn build_regions(rng: &mut Rng) -> Module {
    let shared: Vec<Shared> = (0..4)
        .map(|_| {
            let mut leaf = || match rng.gen_bool() {
                true => Leaf::Arg(rng.gen_range_usize(0, 3)),
                false => Leaf::Const(rng.gen_range_i64(-3, 4) as i16),
            };
            let (x, y) = (leaf(), leaf());
            (rng.next_u64() as u8, x, y)
        })
        .collect();
    let entry = arb_block(rng, 0);
    let mut fb = FuncBuilder::new("f", vec![Type::F64, Type::F64, Type::F64], vec![Type::F64]);
    let args = [fb.arg(0), fb.arg(1), fb.arg(2)];
    let mut out = emit_block(&mut fb, &shared, &entry, &args);
    for which in 0..shared.len() {
        let again = emit_shared(&mut fb, &shared, which);
        out = fb.addf(out, again);
    }
    fb.ret(vec![out]);
    let mut m = Module::new("prop");
    m.push_func(fb.finish());
    m
}

#[test]
fn region_programs_canonicalize_in_scope_and_idempotently() {
    check_n("region_programs_canonicalize", 192, |rng| {
        let mut m = build_regions(rng);
        m.verify().expect("generated module verifies");
        let args = (
            rng.gen_range_f64(-4.0, 4.0),
            rng.gen_range_f64(-4.0, 4.0),
            rng.gen_range_f64(-4.0, 4.0),
        );
        let before = eval(&m, args);
        let rewrites = canonicalize_func(&mut m.funcs_mut()[0]);
        // An inner value replacing an outer or sibling duplicate would
        // not dominate its new uses.
        m.verify().expect("no value leaked out of its region");
        let after = eval(&m, args);
        assert!(
            before.to_bits() == after.to_bits() || (before.is_nan() && after.is_nan()),
            "canonicalization changed the result: {before} vs {after}"
        );
        assert!(rewrites > 0, "every program repeats a shared expression");
        let text = m.to_text();
        assert_eq!(
            canonicalize_func(&mut m.funcs_mut()[0]),
            0,
            "not idempotent"
        );
        assert_eq!(m.to_text(), text);
    });
}
