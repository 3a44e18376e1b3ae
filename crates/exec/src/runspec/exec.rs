//! Execution (each chunk of a run): runs the streamed ops one
//! *operation at a time* over a chunk of iterations — flat `f64` stripe
//! buffers indexed by a compile-time-constant chunk stride, exactly the
//! loops LLVM autovectorizes — and finishes each point with the short
//! recurrent tail in original body order. Because streamed values are
//! bit-identical to what the sequential order would have produced (that
//! is what the plan's hazard analysis guarantees) and the recurrent tail
//! *is* the sequential order, results match the interpreter bit-for-bit.
//! A tail that is one serial chain ring runs in a register-carried loop
//! instead of point by point.
//!
//! Memory is accessed through [`TileView`] — raw non-atomic words,
//! justified by Eq. (3) schedule disjointness and policed by the
//! debug-mode [`crate::buffer::overlap`] checker.

use super::plan::{AccessPlan, RunPlan};
use super::{ProbeOp, CHUNK};
use crate::buffer::TileView;
use crate::bytecode::{FOp, FUn, IOp};

/// The address record of one planned access op: lane `l` of iteration
/// `t` touches `base + t·delta + l·lane_stride` of `tile`. `acc` is the
/// op's first access-plan index, through which the plan refreshes
/// `base` and `tile` on plan-cache hits; `row` is the base's advance per
/// row when the loop runs inside a row nest.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Addr {
    pub base: isize,
    pub delta: isize,
    pub lane_stride: isize,
    pub tile: TileView,
    pub acc: u16,
    pub row: isize,
}

/// Source operand of a streamed (op-at-a-time) operation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SSrc {
    /// Arena elements: iteration `t`, lane `l` reads `off + t·step + l`.
    /// Scalar stripe rows have `step == 1`; wide rows `step == lanes`;
    /// a single lane of a wide row is `off = row + lane` with the row's
    /// step (and `l == 0` at the scalar consumer). Wide consumers only
    /// ever see lane-aligned sources (`step == lanes`) or lane-constant
    /// cells (`step == 0`, `lanes` consecutive values), which is what
    /// makes the unified read formula correct for every combination.
    Row { off: u32, step: u32 },
    /// Run-invariant scalar, broadcast across iterations and lanes.
    Const(f64),
}

/// One streamed operation: writes the stripe row at element offset
/// `row` (`m·lanes` elements, lane-major within each iteration) for a
/// whole chunk.
#[derive(Clone, Debug)]
pub(crate) enum SOp {
    Load {
        row: u32,
        lanes: u16,
        at: Addr,
    },
    Bin {
        op: FOp,
        row: u32,
        lanes: u16,
        a: SSrc,
        b: SSrc,
    },
    Un {
        op: FUn,
        row: u32,
        lanes: u16,
        a: SSrc,
    },
    Fma {
        row: u32,
        lanes: u16,
        a: SSrc,
        b: SSrc,
        c: SSrc,
    },
    /// `VBroadcast`: fills each iteration's `lanes` row elements with
    /// the scalar source value of that iteration.
    Splat {
        row: u32,
        lanes: u16,
        a: SSrc,
    },
    /// A binary op whose two operands are load rows consumed by nothing
    /// else: the staging copies are skipped and both tiles are read
    /// directly in one fused pass (see `plan::fuse_stream_loads`). Wide
    /// ops fuse only *dense* loads (`lane_stride == 1`, `delta == lanes`),
    /// so element `e = t·lanes + l` always reads `base + t0·delta + e·s`
    /// with `s = delta` when scalar and `s = 1` when wide.
    BinLoads {
        op: FOp,
        row: u32,
        lanes: u16,
        a: Addr,
        b: Addr,
    },
}

/// Source operand of a recurrent (point-at-a-time) operation: an arena
/// offset plus a per-iteration step — lane `l` of in-chunk iteration
/// `t` reads `off + t·step + l`. Scalar stripe rows step by 1, wide
/// rows by their lane count; recurrent values and materialized
/// constants are read at a fixed offset (step 0, wide consumers see
/// `lanes` consecutive cells). Resolving the operand kind at plan time
/// leaves no dispatch on the per-point path — each read is one indexed
/// load.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RRef {
    pub off: u32,
    pub step: u32,
}

/// One link of a chain lane: applies `op` between the running
/// accumulator and `other`, with `acc_rhs` preserving which side of the
/// original (non-commutative) operation the accumulator was on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChainLink {
    pub op: FOp,
    pub other: RRef,
    pub acc_rhs: bool,
}

/// One recurrent operation, executed in body order for every point.
/// Value-producing ops write the arena at `dst` (the vals region;
/// `lanes` consecutive cells when wide).
#[derive(Clone, Debug)]
pub(crate) enum ROp {
    Load {
        dst: u32,
        lanes: u16,
        at: Addr,
    },
    /// Steady-state replacement for a `Load` that re-reads the value
    /// stored one iteration earlier by this run's own store (offset
    /// ratio k = −1 in `hazard` terms): the arena still holds that
    /// value, so the memory round-trip is a copy.
    Carry {
        dst: u32,
        src: u32,
    },
    Store {
        src: RRef,
        lanes: u16,
        at: Addr,
    },
    Bin {
        op: FOp,
        dst: u32,
        lanes: u16,
        a: RRef,
        b: RRef,
    },
    Un {
        op: FUn,
        dst: u32,
        lanes: u16,
        a: RRef,
    },
    Fma {
        dst: u32,
        lanes: u16,
        a: RRef,
        b: RRef,
        c: RRef,
    },
    /// `VBroadcast`: writes `lanes` consecutive vals cells from the
    /// scalar source.
    Splat {
        dst: u32,
        lanes: u16,
        a: RRef,
    },
    /// Fused serial chains, evaluated lane after lane (see
    /// [`ChainLane`]) — one dispatch instead of one per op. With `ring`,
    /// the lanes are the §2.4 serial recurrence unrolled `w ≥ 1` times:
    /// lane `k` consumes lane `k − 1`'s value and lane 0 the last lane's
    /// from the previous iteration, so the carried value can cross lane
    /// boundaries in a register. Lane order, operation order, and
    /// operand sides are exactly those of the unfused tape, so results
    /// stay bit-identical.
    Chain {
        lanes: Box<[ChainLane]>,
        ring: bool,
    },
}

/// One lane of an [`ROp::Chain`]: a run of consecutive `Bin` ops
/// threading one accumulator (each intermediate result consumed only by
/// the next op), kept in a register with only the final value written
/// to `dst` — and, when a store of that value immediately followed, to
/// `store` as well.
#[derive(Clone, Debug)]
pub(crate) struct ChainLane {
    pub dst: u32,
    pub init: RRef,
    pub links: Box<[ChainLink]>,
    /// Where a ring lane reads the carried value: 0 is `init`, `j + 1`
    /// is link `j` (unused outside a ring).
    pub carry_at: u16,
    pub store: Option<Addr>,
}

/// Executes one planned run of `n` iterations over the resolved access
/// table `tab`, chunk by chunk: the streamed ops over the chunk, then
/// its recurrent tail.
pub(crate) fn exec_plan(plan: &mut RunPlan, tab: &[AccessPlan], map: &[(u16, u16)], n: usize) {
    let mut t0 = 0usize;
    while t0 < n {
        let m = (n - t0).min(CHUNK);
        exec_streamed(&plan.stream, &mut plan.arena, t0, m);
        exec_recurrent(&plan.rec_steady, &plan.prelude, tab, map, &mut plan.arena, t0, m);
        t0 += m;
    }
}

/// Executes the streamed plan for in-chunk iterations `[t0, t0 + m)`:
/// one operation at a time over the whole chunk, into/over stripe rows
/// of constant stride [`CHUNK`](super::CHUNK) — the loops LLVM autovectorizes.
fn exec_streamed(stream: &[SOp], stripe: &mut [f64], t0: usize, m: usize) {
    for op in stream {
        match op {
            SOp::Load { row, lanes, at } => {
                let (w, delta, tile) = (*lanes as usize, at.delta, at.tile);
                let start = at.base + t0 as isize * delta;
                let row = *row as usize;
                if w == 1 {
                    if delta == 1 {
                        let s = start as usize;
                        for (l, o) in stripe[row..row + m].iter_mut().enumerate() {
                            *o = tile.get(s + l);
                        }
                    } else {
                        for (l, o) in stripe[row..row + m].iter_mut().enumerate() {
                            *o = tile.get((start + l as isize * delta) as usize);
                        }
                    }
                } else if at.lane_stride == 1 && delta == w as isize {
                    // Dense wide load: the run's lanes tile memory
                    // contiguously — one flat copy of m·w elements.
                    let s = start as usize;
                    for (e, o) in stripe[row..row + m * w].iter_mut().enumerate() {
                        *o = tile.get(s + e);
                    }
                } else {
                    let ls = at.lane_stride;
                    for t in 0..m {
                        let b = start + t as isize * delta;
                        for l in 0..w {
                            stripe[row + t * w + l] = tile.get((b + l as isize * ls) as usize);
                        }
                    }
                }
            }
            SOp::Bin {
                op,
                row,
                lanes,
                a,
                b,
            } => match op {
                FOp::Add => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Add.apply(x, y)),
                FOp::Sub => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Sub.apply(x, y)),
                FOp::Mul => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Mul.apply(x, y)),
                FOp::Div => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Div.apply(x, y)),
                FOp::Max => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Max.apply(x, y)),
                FOp::Min => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Min.apply(x, y)),
                FOp::Pow => bin_chunk(stripe, m, *row, *lanes, *a, *b, |x, y| FOp::Pow.apply(x, y)),
            },
            SOp::Un { op, row, lanes, a } => match op {
                FUn::Neg => un_chunk(stripe, m, *row, *lanes, *a, |x| FUn::Neg.apply(x)),
                FUn::Sqrt => un_chunk(stripe, m, *row, *lanes, *a, |x| FUn::Sqrt.apply(x)),
                FUn::Abs => un_chunk(stripe, m, *row, *lanes, *a, |x| FUn::Abs.apply(x)),
                FUn::Exp => un_chunk(stripe, m, *row, *lanes, *a, |x| FUn::Exp.apply(x)),
            },
            SOp::BinLoads {
                op,
                row,
                lanes,
                a,
                b,
            } => {
                let w = *lanes as usize;
                let sa = a.base + t0 as isize * a.delta;
                let sb = b.base + t0 as isize * b.delta;
                let row = *row as usize;
                let out = &mut stripe[row..row + m * w];
                // Wide fused loads are dense by construction (element
                // stride 1); scalar ones stride by delta per element.
                let (da, db) = if w > 1 { (1, 1) } else { (a.delta, b.delta) };
                macro_rules! loop_for {
                    ($f:expr) => {
                        if (da, db) == (1, 1) {
                            let (sa, sb) = (sa as usize, sb as usize);
                            for (e, o) in out.iter_mut().enumerate() {
                                *o = $f(a.tile.get(sa + e), b.tile.get(sb + e));
                            }
                        } else {
                            for (e, o) in out.iter_mut().enumerate() {
                                let e = e as isize;
                                *o = $f(
                                    a.tile.get((sa + e * da) as usize),
                                    b.tile.get((sb + e * db) as usize),
                                );
                            }
                        }
                    };
                }
                match op {
                    FOp::Add => loop_for!(|x, y| FOp::Add.apply(x, y)),
                    FOp::Sub => loop_for!(|x, y| FOp::Sub.apply(x, y)),
                    FOp::Mul => loop_for!(|x, y| FOp::Mul.apply(x, y)),
                    FOp::Div => loop_for!(|x, y| FOp::Div.apply(x, y)),
                    FOp::Max => loop_for!(|x, y| FOp::Max.apply(x, y)),
                    FOp::Min => loop_for!(|x, y| FOp::Min.apply(x, y)),
                    FOp::Pow => loop_for!(|x, y| FOp::Pow.apply(x, y)),
                }
            }
            SOp::Fma {
                row,
                lanes,
                a,
                b,
                c,
            } => {
                let w = *lanes as usize;
                let (src, out) = dst_row(stripe, *row, m * w);
                for t in 0..m {
                    for l in 0..w {
                        out[t * w + l] = sread(src, *a, t, l)
                            .mul_add(sread(src, *b, t, l), sread(src, *c, t, l));
                    }
                }
            }
            SOp::Splat { row, lanes, a } => {
                let w = *lanes as usize;
                let (src, out) = dst_row(stripe, *row, m * w);
                match a {
                    SSrc::Const(c) => out.fill(*c),
                    SSrc::Row { off, step } => {
                        let (off, step) = (*off as usize, *step as usize);
                        for t in 0..m {
                            out[t * w..(t + 1) * w].fill(src[off + t * step]);
                        }
                    }
                }
            }
        }
    }
}

/// Reads element (in-chunk iteration `t`, lane `l`) of a streamed
/// source: `off + t·step + l`. Scalar rows have step 1; wide rows step
/// by their lane count; lane-constant cells (step 0) repeat each
/// iteration; single-lane refs into wide rows fold the lane into `off`
/// and step over it.
#[inline]
fn sread(src: &[f64], s: SSrc, t: usize, l: usize) -> f64 {
    match s {
        SSrc::Row { off, step } => src[off as usize + t * step as usize + l],
        SSrc::Const(c) => c,
    }
}

/// Splits the stripe into (everything below, destination row of `len`
/// elements). Rows are assigned in body order with operand cells
/// allocated before their consumer's row, so every source offset of an
/// op is strictly below its destination row — the split is always valid
/// and gives the chunk loops aliasing-free slices with no per-element
/// bounds checks (which is what lets LLVM vectorize them).
#[inline]
fn dst_row(stripe: &mut [f64], dst: u32, len: usize) -> (&[f64], &mut [f64]) {
    let (src, rest) = stripe.split_at_mut(dst as usize);
    (src, &mut rest[..len])
}

#[inline]
fn bin_chunk<F: Fn(f64, f64) -> f64>(
    stripe: &mut [f64],
    m: usize,
    dst: u32,
    lanes: u16,
    a: SSrc,
    b: SSrc,
    f: F,
) {
    let w = lanes as usize;
    let len = m * w;
    let (src, out) = dst_row(stripe, dst, len);
    let aligned = |s: SSrc| match s {
        SSrc::Row { step, .. } => step as usize == w,
        SSrc::Const(_) => false,
    };
    match (a, b) {
        (SSrc::Row { off: x, .. }, SSrc::Row { off: y, .. }) if aligned(a) && aligned(b) => {
            let xs = &src[x as usize..x as usize + len];
            let ys = &src[y as usize..y as usize + len];
            for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                *o = f(x, y);
            }
        }
        (SSrc::Row { off: x, .. }, SSrc::Const(c)) if aligned(a) => {
            let xs = &src[x as usize..x as usize + len];
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x, c);
            }
        }
        (SSrc::Const(c), SSrc::Row { off: y, .. }) if aligned(b) => {
            let ys = &src[y as usize..y as usize + len];
            for (o, &y) in out.iter_mut().zip(ys) {
                *o = f(c, y);
            }
        }
        (SSrc::Const(c1), SSrc::Const(c2)) => out.fill(f(c1, c2)),
        (a, b) => {
            // Misaligned source (a lane ref into a wider row, or a
            // lane-constant cell): per-element addressing.
            for t in 0..m {
                for l in 0..w {
                    out[t * w + l] = f(sread(src, a, t, l), sread(src, b, t, l));
                }
            }
        }
    }
}

#[inline]
fn un_chunk<F: Fn(f64) -> f64>(stripe: &mut [f64], m: usize, dst: u32, lanes: u16, a: SSrc, f: F) {
    let w = lanes as usize;
    let len = m * w;
    let (src, out) = dst_row(stripe, dst, len);
    match a {
        SSrc::Row { off: x, step } if step as usize == w => {
            let xs = &src[x as usize..x as usize + len];
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = f(x);
            }
        }
        SSrc::Row { .. } => {
            for t in 0..m {
                for l in 0..w {
                    out[t * w + l] = f(sread(src, a, t, l));
                }
            }
        }
        SSrc::Const(c) => out.fill(f(c)),
    }
}

/// Executes the recurrent tail point by point for in-chunk iterations
/// `[t0, t0 + m)`, in original body order — this *is* the sequential
/// schedule, restricted to the ops that carry the loop dependence. The
/// steady tape is valid from t = 0: before the first chunk, the
/// `prelude` seeds each k = −1 forward cell with the pre-run memory
/// value its load would have read (see `plan::build_steady`).
fn exec_recurrent(
    steady: &[ROp],
    prelude: &[(u32, u16)],
    tab: &[AccessPlan],
    map: &[(u16, u16)],
    arena: &mut [f64],
    t0: usize,
    m: usize,
) {
    if t0 == 0 {
        for &(cell, a) in prelude {
            let (t, l) = map[a as usize];
            let p = &tab[t as usize];
            arena[cell as usize] = p
                .tile
                .get((p.base + l as isize * p.lane_stride) as usize);
        }
    }
    // The dominant steady shape after forwarding and fusion is one ring
    // chain — the serial recurrence, scalar (w = 1) or lane-unrolled by
    // the vectorizer (§2.4) — whose carried value stays in a register
    // instead of bouncing through the arena.
    if let [ROp::Chain { lanes, ring: true }] = steady {
        ring_loop(arena, lanes, t0, m);
        return;
    }
    for l in 0..m {
        exec_point(steady, arena, (t0 + l) as isize, l);
    }
}

/// Register-carried loop over a ring chain: `m` iterations × `w` lanes
/// of serial chain evaluation, one store each, with the carried value
/// never leaving a register inside the loop. Entered with the last
/// lane's `dst` cell holding the previous iteration's value (seeded by
/// the prelude, or left by the previous chunk); leaves the final value
/// there for the next chunk.
fn ring_loop(arena: &mut [f64], lanes: &[ChainLane], t0: usize, m: usize) {
    let carry_cell = lanes[lanes.len() - 1].dst as usize;
    let mut carry = arena[carry_cell];
    for l in 0..m {
        let t = (t0 + l) as isize;
        for lane in lanes {
            let mut acc = if lane.carry_at == 0 {
                carry
            } else {
                aread(arena, lane.init, l)
            };
            for (j, lk) in lane.links.iter().enumerate() {
                let x = if j + 1 == lane.carry_at as usize {
                    carry
                } else {
                    aread(arena, lk.other, l)
                };
                acc = if lk.acc_rhs {
                    link_apply(lk.op, x, acc)
                } else {
                    link_apply(lk.op, acc, x)
                };
            }
            if let Some(at) = &lane.store {
                put(at, t, 0, acc);
            }
            carry = acc;
        }
    }
    if m > 0 {
        arena[carry_cell] = carry;
    }
}

#[inline]
fn exec_point(ops: &[ROp], arena: &mut [f64], t: isize, l: usize) {
    for op in ops {
        match op {
            ROp::Load { dst, lanes, at } => {
                let b = at.base + t * at.delta;
                for lane in 0..*lanes as usize {
                    arena[*dst as usize + lane] =
                        at.tile.get((b + lane as isize * at.lane_stride) as usize);
                }
            }
            ROp::Carry { dst, src } => arena[*dst as usize] = arena[*src as usize],
            ROp::Store { src, lanes, at } => {
                for lane in 0..*lanes as usize {
                    put(at, t, lane, areadw(arena, *src, l, lane));
                }
            }
            ROp::Bin {
                op,
                dst,
                lanes,
                a,
                b,
            } => {
                for lane in 0..*lanes as usize {
                    arena[*dst as usize + lane] =
                        op.apply(areadw(arena, *a, l, lane), areadw(arena, *b, l, lane));
                }
            }
            ROp::Un { op, dst, lanes, a } => {
                for lane in 0..*lanes as usize {
                    arena[*dst as usize + lane] = op.apply(areadw(arena, *a, l, lane));
                }
            }
            ROp::Fma {
                dst,
                lanes,
                a,
                b,
                c,
            } => {
                for lane in 0..*lanes as usize {
                    arena[*dst as usize + lane] = areadw(arena, *a, l, lane)
                        .mul_add(areadw(arena, *b, l, lane), areadw(arena, *c, l, lane));
                }
            }
            ROp::Splat { dst, lanes, a } => {
                let v = aread(arena, *a, l);
                arena[*dst as usize..*dst as usize + *lanes as usize].fill(v);
            }
            ROp::Chain { lanes, .. } => {
                for lane in lanes.iter() {
                    let v = chain_eval(arena, lane.init, &lane.links, l);
                    arena[lane.dst as usize] = v;
                    if let Some(at) = &lane.store {
                        put(at, t, 0, v);
                    }
                }
            }
        }
    }
}

/// Stores `v` to lane `lane` of iteration `t` of a recurrent store.
#[inline(always)]
fn put(at: &Addr, t: isize, lane: usize, v: f64) {
    let addr = (at.base + t * at.delta + lane as isize * at.lane_stride) as usize;
    #[cfg(debug_assertions)]
    crate::buffer::overlap::note_store_raw(at.tile.id(), addr, 1);
    at.tile.set(addr, v);
}

/// [`FOp::apply`] for one link of a register-carried chain loop. The
/// links of a stencil chain are adds, subtracts and multiplies; testing
/// those first keeps the serial chain off `apply`'s jump table, whose
/// one indirect branch per link made the loop's speed hinge on where the
/// linker happened to place it. Same operation, same operand order, so
/// the bits are unchanged.
#[inline(always)]
fn link_apply(op: FOp, x: f64, y: f64) -> f64 {
    match op {
        FOp::Add => x + y,
        FOp::Sub => x - y,
        FOp::Mul => x * y,
        _ => link_apply_rest(op, x, y),
    }
}

/// The remaining chain ops, kept out of line so the cases tested above
/// stay compare-and-branch instead of folding back into a jump table.
#[inline(never)]
fn link_apply_rest(op: FOp, x: f64, y: f64) -> f64 {
    op.apply(x, y)
}

#[inline]
fn chain_eval(arena: &[f64], init: RRef, links: &[ChainLink], l: usize) -> f64 {
    let mut acc = aread(arena, init, l);
    for lk in links {
        let x = aread(arena, lk.other, l);
        acc = if lk.acc_rhs {
            lk.op.apply(x, acc)
        } else {
            lk.op.apply(acc, x)
        };
    }
    acc
}

#[inline]
fn aread(arena: &[f64], r: RRef, l: usize) -> f64 {
    arena[r.off as usize + l * r.step as usize]
}

/// Lane-indexed arena read for wide recurrent operands: lane `lane` of
/// in-chunk iteration `l`. Step-0 sources hold their lanes in
/// consecutive cells; row sources interleave lanes within each
/// iteration's group.
#[inline]
fn areadw(arena: &[f64], r: RRef, l: usize, lane: usize) -> f64 {
    arena[r.off as usize + l * r.step as usize + lane]
}

/// Executes a probe program. Returns `false` on any condition the
/// generic body would report as an error (division by zero, unset
/// buffer); the caller then falls back so the error surfaces from the
/// generic loop with exact accounting.
pub(crate) fn run_probe(
    probe: &[ProbeOp],
    i: &mut [i64],
    f: &mut [f64],
    v: &mut [f64],
    bufs: &[Option<crate::buffer::BufferView>],
) -> bool {
    for op in probe {
        match *op {
            ProbeOp::CF { dst, v: x } => f[dst as usize] = x,
            ProbeOp::CV { off, lanes, v: x } => v[off as usize..(off + lanes) as usize].fill(x),
            ProbeOp::CI { dst, v: x } => i[dst as usize] = x,
            ProbeOp::Mov { dst, src } => i[dst as usize] = i[src as usize],
            ProbeOp::S2F { dst, src } => f[dst as usize] = i[src as usize] as f64,
            ProbeOp::Dim { dst, buf, dim } => {
                let Some(b) = bufs[buf as usize].as_ref() else {
                    return false;
                };
                i[dst as usize] = b.dim(dim as usize) as i64;
            }
            ProbeOp::Bin { op, dst, a, b } => {
                let a = i[a as usize];
                let b = i[b as usize];
                i[dst as usize] = match op {
                    IOp::Add => a + b,
                    IOp::Sub => a - b,
                    IOp::Mul => a * b,
                    IOp::FloorDiv | IOp::CeilDiv | IOp::Rem if b == 0 => return false,
                    IOp::FloorDiv => a.div_euclid(b),
                    IOp::CeilDiv => (a + b - 1).div_euclid(b),
                    IOp::Rem => a.rem_euclid(b),
                    IOp::Min => a.min(b),
                    IOp::Max => a.max(b),
                };
            }
        }
    }
    true
}
