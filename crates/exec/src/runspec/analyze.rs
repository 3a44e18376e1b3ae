//! Analysis (tape-compile time): recognizes a straight-line stencil
//! point body — integer index arithmetic affine in the induction
//! variable, scalar loads/stores, pure float ops, and the vectorizer's
//! lowered lane groups — and produces a [`RunSpec`]: the body's accesses
//! and float ops in order, the merged access table, plus a *probe tape*
//! holding the body's integer/constant subset. Anything else (nested
//! control flow, selects, divisions of the induction variable, …)
//! simply stays on the generic path.

use std::collections::{HashMap, HashSet};

use super::{FRef, NestSpec, ProbeOp, RunOp, RunSpec, SpecAccess};
use crate::bytecode::{IOp, Instr, Tape};

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

/// The decline reason of a loop whose body holds another loop: an outer
/// loop of a nest, which declines by construction and is not reported.
pub(crate) const NESTED_LOOP: &str = "nested loop";

/// Recognizes a specializable innermost loop body and builds its
/// [`RunSpec`]. Declines — with a reason suitable for a
/// `runspec-decline` observability event — when the body uses anything
/// outside the straight-line stencil subset: a nested loop
/// ([`NESTED_LOOP`]), an `scf.if` ("guarded body"), vector selects,
/// comparisons/selects, allocation, view construction, float-typed
/// induction values, or index arithmetic that is not affine in `iv`.
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
    // as a non-affine-arithmetic decline. A nested loop makes this an
    // outer loop; a guard in a loop without one is an innermost loop
    // that the rung cannot serve.
    if tape.code.iter().any(|i| {
        matches!(
            i,
            Instr::For { .. } | Instr::ParallelLoop { .. } | Instr::Wavefronts { .. }
        )
    }) {
        return Err(NESTED_LOOP);
    }
    if tape.code.iter().any(|i| matches!(i, Instr::If { .. })) {
        return Err("guarded body");
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
            | Instr::Wavefronts { .. } => unreachable!("control flow is classified up front"),
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

/// Recognizes a row nest: the loop whose body is tape `body` (induction
/// register `iv`, no iter args) qualifies when the body holds only
/// integer arithmetic (`ConstI`, `BinI`, `MoveI`, `memref.dim`) and at
/// least one run-specialized `For`, such that
/// - every integer register stays affine in `iv`: no product of two
///   row-varying values, no division, remainder, min or max of one, and
///   in the inner bodies no product of a row-varying and an
///   iteration-varying value and no int-to-float conversion of a
///   row-varying one (so every access index is affine in the row and the
///   per-iteration delta is the same on every row);
/// - every inner loop's `lb`/`ub`/`step` is invariant in `iv`.
///
/// That accesses sharing an allocation also share a row delta depends
/// on the buffers, so the executor checks it per nest. `None` leaves
/// the loop on the per-row path; it is no decline (each inner loop still
/// runs specialized), so it emits no event.
pub(crate) fn analyze_nest(tapes: &[Tape], body: u32, iv: u32) -> Option<NestSpec> {
    let tape = &tapes[body as usize];
    if !tape.term.is_empty() {
        return None;
    }
    let mut rows: HashSet<u32> = HashSet::from([iv]);
    let mut outer: Vec<ProbeOp> = Vec::new();
    let mut index_ops = 0u64;
    let mut loops = 0usize;
    for instr in &tape.code {
        if !row_affine(instr, &mut rows, &mut HashSet::new()) {
            return None;
        }
        match instr {
            Instr::ConstI { dst, v } => outer.push(ProbeOp::CI { dst: *dst, v: *v }),
            Instr::MoveI { dst, src } => outer.push(ProbeOp::Mov {
                dst: *dst,
                src: *src,
            }),
            Instr::Dim { dst, buf, dim } => outer.push(ProbeOp::Dim {
                dst: *dst,
                buf: *buf,
                dim: *dim,
            }),
            Instr::BinI { op, dst, a, b } => {
                index_ops += 1;
                outer.push(ProbeOp::Bin {
                    op: *op,
                    dst: *dst,
                    a: *a,
                    b: *b,
                });
            }
            Instr::For {
                lb,
                ub,
                step,
                iv: inner_iv,
                body,
                run: Some(_),
                ..
            } => {
                if [lb, ub, step].into_iter().any(|r| rows.contains(r)) {
                    return None;
                }
                let mut cols = HashSet::from([*inner_iv]);
                let inner = &tapes[*body as usize].code;
                if !inner.iter().all(|i| row_affine(i, &mut rows, &mut cols)) {
                    return None;
                }
                loops += 1;
            }
            _ => return None,
        }
    }
    (loops > 0).then(|| NestSpec {
        outer: outer.into(),
        index_ops_per_row: index_ops,
    })
}

/// Tracks one instruction of a row nest: `rows` holds the integer
/// registers that vary with the outer row, `cols` those that vary with
/// the inner induction value. Returns `false` when the instruction makes
/// a value non-affine in the row (see [`analyze_nest`]).
fn row_affine(instr: &Instr, rows: &mut HashSet<u32>, cols: &mut HashSet<u32>) -> bool {
    let (dst, row, col) = match instr {
        Instr::ConstI { dst, .. } | Instr::Dim { dst, .. } => (*dst, false, false),
        Instr::MoveI { dst, src } => (*dst, rows.contains(src), cols.contains(src)),
        Instr::BinI { op, dst, a, b } => {
            let (ra, rb) = (rows.contains(a), rows.contains(b));
            let (ca, cb) = (cols.contains(a), cols.contains(b));
            let affine = match op {
                IOp::Add | IOp::Sub => true,
                IOp::Mul => !((ra && (rb || cb)) || (rb && ca)),
                IOp::FloorDiv | IOp::CeilDiv | IOp::Rem | IOp::Min | IOp::Max => !(ra || rb),
            };
            if !affine {
                return false;
            }
            (*dst, ra || rb, ca || cb)
        }
        Instr::SiToFp { src, .. } => return !rows.contains(src),
        _ => return true,
    };
    for (set, on) in [(rows, row), (cols, col)] {
        if on {
            set.insert(dst);
        } else {
            set.remove(&dst);
        }
    }
    true
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
