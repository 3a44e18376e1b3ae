//! Lowering of structured `cfd` ops to loops, with the paper's partial
//! vectorization (§2.4, §3.5, Figs. 2 and 7).
//!
//! The generated structure for a vectorized in-place stencil is exactly
//! Fig. 7:
//!
//! ```text
//! for i ... {
//!   for j = lo to lo + (N/VF)*VF step VF {      // vector chunk loop
//!     %b   = vector.transfer_read B[v, i, j]
//!     %u.. = vector.transfer_read X/Y ...        // U-pattern and
//!                                                // vectorizable L reads
//!     %temp = %b + Σ vectorizable contributions  // vector FMAs
//!     // unrolled scalar chain over the lanes (serial L offsets):
//!     y[j]   = d[0] * (temp[0] + y[j-1] + ...)
//!     y[j+1] = d[1] * (temp[1] + y[j] + ...)
//!     ...
//!   }
//!   for j = ... { scalar }                       // peeled remainder
//! }
//! ```
//!
//! An `L` offset is vectorizable iff its innermost component is `0` or
//! `≤ -VF`; contributions whose region computation depends on serial
//! arguments force a scalar fallback (the *separability* requirement,
//! checked by dataflow over the region).

use std::collections::{HashMap, HashSet};

use instencil_ir::attr::AttrMap;
use instencil_ir::{
    Body, Func, FuncBuilder, Module, OpCode, OpId, PassError, RegionId, Type, ValueId,
};
use instencil_pattern::{StencilPattern, Sweep};

use super::{rebuild_func, Expanded, OpExpander};
use crate::attrs::attr_to_pattern;
use crate::ops::RegionLayout;

/// Options of the lowering pass.
#[derive(Clone, Debug, Default)]
pub struct LowerOptions {
    /// Vector factor; `None` generates scalar loops only.
    pub vectorize: Option<usize>,
}

/// Statistics reported by the lowering pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Structured ops lowered with the partial-vectorization scheme.
    pub vectorized: usize,
    /// Structured ops lowered to scalar loops (including separability
    /// fallbacks).
    pub scalar: usize,
}

struct Lowerer {
    opts: LowerOptions,
    stats: LowerStats,
}

impl OpExpander for Lowerer {
    fn expand(
        &mut self,
        fb: &mut FuncBuilder,
        src: &Body,
        op_id: OpId,
        map: &mut HashMap<ValueId, ValueId>,
    ) -> Result<Expanded, PassError> {
        let op = src.op(op_id);
        if op.attrs.get("bufferized").is_none() {
            return Ok(Expanded::Keep);
        }
        match op.opcode {
            OpCode::CfdStencil => {
                lower_stencil(fb, src, op_id, map, &self.opts, &mut self.stats)?;
                Ok(Expanded::Replaced)
            }
            OpCode::LinalgPointwise => {
                lower_pointwise(fb, src, op_id, map, &self.opts, &mut self.stats)?;
                Ok(Expanded::Replaced)
            }
            OpCode::CfdFaceIterator => {
                lower_face_iterator(fb, src, op_id, map)?;
                self.stats.scalar += 1;
                Ok(Expanded::Replaced)
            }
            _ => Ok(Expanded::Keep),
        }
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// `(lo, hi)` bound operand lists of a bounded op.
type Bounds = (Vec<ValueId>, Vec<ValueId>);

/// Splits a bounded op's operands into `(base, lo, hi)`.
fn split_bounds(body: &Body, op_id: OpId, k: usize) -> (Vec<ValueId>, Option<Bounds>) {
    let op = body.op(op_id);
    if op.attrs.get("bounded").is_some() {
        let n = op.operands.len();
        let base = op.operands[..n - 2 * k].to_vec();
        let lo = op.operands[n - 2 * k..n - k].to_vec();
        let hi = op.operands[n - k..].to_vec();
        (base, Some((lo, hi)))
    } else {
        (op.operands.clone(), None)
    }
}

/// Inlines the single-block region at the current insertion point.
/// `args` provides the values substituted for the region block arguments;
/// returns the mapped `cfd.yield` operands.
fn inline_region(
    fb: &mut FuncBuilder,
    src: &Body,
    region: RegionId,
    args: &[ValueId],
) -> Vec<ValueId> {
    let block = src.region(region).blocks[0];
    let mut map: HashMap<ValueId, ValueId> = src
        .block(block)
        .args
        .iter()
        .copied()
        .zip(args.iter().copied())
        .collect();
    for &op in &src.block(block).ops.clone() {
        if src.op(op).opcode.is_terminator() {
            return src.op(op).operands.iter().map(|v| map[v]).collect();
        }
        let dst_block = fb.insertion_block();
        fb.body_mut().clone_op_into(src, op, dst_block, &mut map);
    }
    Vec::new()
}

/// Vector variant of [`inline_region`]: every f64 op is re-emitted with
/// `vector<VFxf64>` types (constants become splats); `args` must already
/// be vector values.
fn inline_region_vector(
    fb: &mut FuncBuilder,
    src: &Body,
    region: RegionId,
    args: &[ValueId],
    vf: usize,
) -> Vec<ValueId> {
    let block = src.region(region).blocks[0];
    let mut map: HashMap<ValueId, ValueId> = src
        .block(block)
        .args
        .iter()
        .copied()
        .zip(args.iter().copied())
        .collect();
    let vec_ty = Type::vector(Type::F64, vf);
    for &op_id in &src.block(block).ops.clone() {
        let op = src.op(op_id);
        if op.opcode.is_terminator() {
            return op.operands.iter().map(|v| map[v]).collect();
        }
        let operands: Vec<ValueId> = op.operands.iter().map(|v| map[v]).collect();
        let result_tys: Vec<Type> = op
            .results
            .iter()
            .map(|r| {
                let t = src.value_type(*r);
                if *t == Type::F64 {
                    vec_ty.clone()
                } else {
                    t.clone()
                }
            })
            .collect();
        let new_op = fb.create(
            op.opcode.clone(),
            operands,
            result_tys,
            op.attrs.clone(),
            vec![],
        );
        let new_results = fb.body().op(new_op).results.clone();
        for (old, new) in op.results.iter().zip(new_results) {
            map.insert(*old, new);
        }
    }
    Vec::new()
}

/// Per-yield sets of region block-argument indices reachable by dataflow
/// (the backward slice, computed forward). Used for the separability
/// check of §2.4.
fn yield_arg_dependences(src: &Body, region: RegionId) -> Vec<HashSet<usize>> {
    let block = src.region(region).blocks[0];
    let mut deps: HashMap<ValueId, HashSet<usize>> = HashMap::new();
    for (i, &arg) in src.block(block).args.iter().enumerate() {
        deps.insert(arg, HashSet::from([i]));
    }
    for &op_id in &src.block(block).ops {
        let op = src.op(op_id);
        if op.opcode.is_terminator() {
            return op
                .operands
                .iter()
                .map(|v| deps.get(v).cloned().unwrap_or_default())
                .collect();
        }
        let mut set = HashSet::new();
        for v in &op.operands {
            if let Some(s) = deps.get(v) {
                set.extend(s.iter().copied());
            }
        }
        for r in &op.results {
            deps.insert(*r, set.clone());
        }
    }
    Vec::new()
}

/// Emits a simple counted loop `for iv in lo..hi step s { body }` with no
/// iteration arguments.
fn emit_for(
    fb: &mut FuncBuilder,
    lo: ValueId,
    hi: ValueId,
    step: ValueId,
    body: impl FnOnce(&mut FuncBuilder, ValueId) -> Result<(), PassError>,
) -> Result<(), PassError> {
    let region = fb.body_mut().add_region();
    let block = fb.body_mut().add_block(region);
    let iv = fb.body_mut().add_block_arg(block, Type::Index);
    let saved = fb.insertion_block();
    fb.set_insertion_block(block);
    let r = body(fb, iv);
    fb.create(OpCode::Yield, vec![], vec![], AttrMap::new(), vec![]);
    fb.set_insertion_block(saved);
    fb.create(
        OpCode::For,
        vec![lo, hi, step],
        vec![],
        AttrMap::new(),
        vec![region],
    );
    r
}

// ---------------------------------------------------------------------
// Stencil lowering
// ---------------------------------------------------------------------

struct StencilCtx {
    pattern: StencilPattern,
    layout: RegionLayout,
    nb_var: usize,
    n_aux: usize,
    sweep: Sweep,
    region: RegionId,
    x: ValueId,
    b: ValueId,
    aux: Vec<ValueId>,
    y: ValueId,
    /// Memory-space bounds `[lo, hi)` per spatial dimension.
    mlo: Vec<ValueId>,
    mhi: Vec<ValueId>,
}

fn lower_stencil(
    fb: &mut FuncBuilder,
    src: &Body,
    op_id: OpId,
    map: &mut HashMap<ValueId, ValueId>,
    opts: &LowerOptions,
    stats: &mut LowerStats,
) -> Result<(), PassError> {
    let op = src.op(op_id);
    let pattern = attr_to_pattern(
        op.attrs
            .get("stencil")
            .ok_or_else(|| PassError::new("lower", "missing stencil attr"))?,
    )
    .map_err(|e| PassError::new("lower", e.to_string()))?;
    let nb_var = op.int_attr("nb_var").unwrap_or(1) as usize;
    let n_aux = op.int_attr("n_aux").unwrap_or(0) as usize;
    let sweep = Sweep::decode(op.int_attr("sweep").unwrap_or(1))
        .ok_or_else(|| PassError::new("lower", "bad sweep attr"))?;
    let k = pattern.rank();
    let (base, bounds) = split_bounds(src, op_id, k);
    let x = map[&base[0]];
    let b = map[&base[1]];
    let aux: Vec<ValueId> = base[2..2 + n_aux].iter().map(|v| map[v]).collect();
    let y = map[&base[2 + n_aux]];
    let (mlo, mhi) = match bounds {
        Some((lo, hi)) => (
            lo.iter().map(|v| map[v]).collect(),
            hi.iter().map(|v| map[v]).collect(),
        ),
        None => {
            let radii = pattern.radii();
            let mut lo = Vec::with_capacity(k);
            let mut hi = Vec::with_capacity(k);
            for (d, &r) in radii.iter().enumerate() {
                let n = fb.mem_dim(y, d + 1);
                let m = fb.const_index(r as i64);
                lo.push(m);
                hi.push(fb.subi(n, m));
            }
            (lo, hi)
        }
    };
    let layout = RegionLayout {
        offsets: pattern.accessed_offsets(),
        nb_var,
        n_aux,
    };
    let ctx = StencilCtx {
        pattern,
        layout,
        nb_var,
        n_aux,
        sweep,
        region: op.regions[0],
        x,
        b,
        aux,
        y,
        mlo,
        mhi,
    };

    let vectorize = opts
        .vectorize
        .filter(|&vf| vf > 1 && separable(src, &ctx, vf));
    if let Some(vf) = vectorize {
        stats.vectorized += 1;
        emit_stencil_loops(fb, src, &ctx, Some(vf), 0, &mut Vec::new())
    } else {
        stats.scalar += 1;
        emit_stencil_loops(fb, src, &ctx, None, 0, &mut Vec::new())
    }
}

/// Offset indices (into `layout.offsets`) that can be read as vectors:
/// `U` offsets, the center, and `L` offsets whose innermost component is
/// `0` or `≤ -VF`.
fn vectorizable_offsets(ctx: &StencilCtx, vf: usize) -> Vec<bool> {
    ctx.layout
        .offsets
        .iter()
        .map(|r| {
            if ctx.pattern.value_at(r) == -1 {
                ctx.pattern.l_offset_vectorizable(r, vf)
            } else {
                true
            }
        })
        .collect()
}

/// The §2.4 separability check: the D yields and the contributions of
/// vectorizable offsets must not depend on serial state arguments.
fn separable(src: &Body, ctx: &StencilCtx, vf: usize) -> bool {
    let deps = yield_arg_dependences(src, ctx.region);
    if deps.is_empty() {
        return false;
    }
    let vec_offsets = vectorizable_offsets(ctx, vf);
    // Allowed arg indices: every aux arg, plus state args of vectorizable
    // offsets.
    let mut allowed: HashSet<usize> = HashSet::new();
    for (o, &is_vec) in vec_offsets.iter().enumerate() {
        for v in 0..ctx.nb_var {
            if is_vec {
                allowed.insert(ctx.layout.state_index(o, v));
            }
            for a in 0..ctx.n_aux {
                allowed.insert(ctx.layout.aux_index(o, a, v));
            }
        }
    }
    let mut vector_yields: Vec<usize> = (0..ctx.nb_var)
        .map(|v| ctx.layout.d_yield_index(v))
        .collect();
    for (o, &is_vec) in vec_offsets.iter().enumerate() {
        if is_vec {
            for v in 0..ctx.nb_var {
                vector_yields.push(ctx.layout.contrib_yield_index(o, v));
            }
        }
    }
    vector_yields.iter().all(|&yi| deps[yi].is_subset(&allowed))
}

/// Recursively emits the outer loops (all spatial dims but the last when
/// vectorizing; all of them otherwise), then the innermost body.
fn emit_stencil_loops(
    fb: &mut FuncBuilder,
    src: &Body,
    ctx: &StencilCtx,
    vf: Option<usize>,
    depth: usize,
    i_vals: &mut Vec<ValueId>,
) -> Result<(), PassError> {
    let k = ctx.pattern.rank();
    let last_outer = if vf.is_some() { k - 1 } else { k };
    if depth == last_outer {
        return match vf {
            Some(vf) => emit_vectorized_inner(fb, src, ctx, vf, i_vals),
            None => {
                // Scalar innermost handled one level up; here depth == k.
                emit_point(fb, src, ctx, i_vals, None)
            }
        };
    }
    let zero = fb.const_index(0);
    let one = fb.const_index(1);
    let extent = fb.subi(ctx.mhi[depth], ctx.mlo[depth]);
    emit_for(fb, zero, extent, one, |fb, tau| {
        let i_d = match ctx.sweep {
            Sweep::Forward => fb.addi(ctx.mlo[depth], tau),
            Sweep::Backward => {
                let h = fb.subi(ctx.mhi[depth], tau);
                let one = fb.const_index(1);
                fb.subi(h, one)
            }
        };
        i_vals.push(i_d);
        let r = emit_stencil_loops(fb, src, ctx, vf, depth + 1, i_vals);
        i_vals.pop();
        r
    })
}

/// Emits the full Eq. (2) update for one point. `i_vals` holds the first
/// `k-1` (or `k`) spatial indices; `last` optionally supplies the
/// innermost index separately (vectorized remainder path).
fn emit_point(
    fb: &mut FuncBuilder,
    src: &Body,
    ctx: &StencilCtx,
    i_vals: &[ValueId],
    last: Option<ValueId>,
) -> Result<(), PassError> {
    let k = ctx.pattern.rank();
    let mut idx = i_vals.to_vec();
    if let Some(j) = last {
        idx.push(j);
    }
    assert_eq!(idx.len(), k);
    let sign = ctx.sweep.encode();
    // Load region arguments.
    let mut args = vec![ValueId::from_raw(0); ctx.layout.num_args()];
    for (o, r) in ctx.layout.offsets.clone().iter().enumerate() {
        let neighbor: Vec<ValueId> = (0..k)
            .map(|d| {
                let c = fb.const_index(sign * r[d]);
                fb.addi(idx[d], c)
            })
            .collect();
        let from_y = ctx.pattern.value_at(r) == -1;
        for v in 0..ctx.nb_var {
            let vc = fb.const_index(v as i64);
            let mut full = vec![vc];
            full.extend_from_slice(&neighbor);
            let buf = if from_y { ctx.y } else { ctx.x };
            args[ctx.layout.state_index(o, v)] = fb.mem_load(buf, &full);
            for (a, &aux_buf) in ctx.aux.iter().enumerate() {
                args[ctx.layout.aux_index(o, a, v)] = fb.mem_load(aux_buf, &full);
            }
        }
    }
    let yields = inline_region(fb, src, ctx.region, &args);
    // Combine: Y[v,i] = D[v] * (B[v,i] + Σ_o g[o][v]).
    for v in 0..ctx.nb_var {
        let vc = fb.const_index(v as i64);
        let mut full = vec![vc];
        full.extend_from_slice(&idx);
        let mut sum = fb.mem_load(ctx.b, &full);
        for o in 0..ctx.layout.offsets.len() {
            sum = fb.addf(sum, yields[ctx.layout.contrib_yield_index(o, v)]);
        }
        let y = fb.mulf(yields[ctx.layout.d_yield_index(v)], sum);
        fb.mem_store(y, ctx.y, &full);
    }
    Ok(())
}

/// Emits the Fig. 7 innermost structure: vector chunk loop with unrolled
/// serial lanes, followed by the peeled scalar remainder.
fn emit_vectorized_inner(
    fb: &mut FuncBuilder,
    src: &Body,
    ctx: &StencilCtx,
    vf: usize,
    i_vals: &[ValueId],
) -> Result<(), PassError> {
    let k = ctx.pattern.rank();
    let sign = ctx.sweep.encode();
    let vec_offsets = vectorizable_offsets(ctx, vf);
    let lo_last = ctx.mlo[k - 1];
    let hi_last = ctx.mhi[k - 1];
    let total = fb.subi(hi_last, lo_last);
    let vfc = fb.const_index(vf as i64);
    let chunks = fb.floordiv(total, vfc);
    let full = fb.muli(chunks, vfc);
    let zero = fb.const_index(0);
    let one = fb.const_index(1);

    // ----- vector chunk loop -----
    emit_for(fb, zero, full, vfc, |fb, c| {
        let jbase = match ctx.sweep {
            Sweep::Forward => fb.addi(lo_last, c),
            Sweep::Backward => {
                let h = fb.subi(hi_last, c);
                fb.subi(h, vfc)
            }
        };
        // Vector loads (state of vectorizable offsets + all aux) and dummy
        // splats for serial state args.
        let mut vec_args = vec![ValueId::from_raw(0); ctx.layout.num_args()];
        let mut dummy: Option<ValueId> = None;
        for (o, r) in ctx.layout.offsets.clone().iter().enumerate() {
            let mut neighbor: Vec<ValueId> = Vec::with_capacity(k);
            for d in 0..k - 1 {
                let cst = fb.const_index(sign * r[d]);
                neighbor.push(fb.addi(i_vals[d], cst));
            }
            let mlast = fb.const_index(sign * r[k - 1]);
            let jb = fb.addi(jbase, mlast);
            neighbor.push(jb);
            let from_y = ctx.pattern.value_at(r) == -1;
            for v in 0..ctx.nb_var {
                let vc = fb.const_index(v as i64);
                let mut full_idx = vec![vc];
                full_idx.extend_from_slice(&neighbor);
                if vec_offsets[o] {
                    let buf = if from_y { ctx.y } else { ctx.x };
                    vec_args[ctx.layout.state_index(o, v)] = fb.transfer_read(buf, &full_idx, vf);
                } else {
                    let d = *dummy.get_or_insert_with(|| fb.const_f64_vector(0.0, vf));
                    vec_args[ctx.layout.state_index(o, v)] = d;
                }
                for (a, &aux_buf) in ctx.aux.iter().enumerate() {
                    vec_args[ctx.layout.aux_index(o, a, v)] =
                        fb.transfer_read(aux_buf, &full_idx, vf);
                }
            }
        }
        let vec_yields = inline_region_vector(fb, src, ctx.region, &vec_args, vf);
        // temp[v] = B + Σ vectorizable contributions (vector form).
        let mut temp = Vec::with_capacity(ctx.nb_var);
        for v in 0..ctx.nb_var {
            let vc = fb.const_index(v as i64);
            let mut bidx = vec![vc];
            bidx.extend_from_slice(i_vals);
            bidx.push(jbase);
            let mut acc = fb.transfer_read(ctx.b, &bidx, vf);
            for (o, &is_vec) in vec_offsets.iter().enumerate() {
                if is_vec {
                    acc = fb.addf(acc, vec_yields[ctx.layout.contrib_yield_index(o, v)]);
                }
            }
            temp.push(acc);
        }
        // ----- unrolled serial lanes -----
        let lanes: Vec<usize> = match ctx.sweep {
            Sweep::Forward => (0..vf).collect(),
            Sweep::Backward => (0..vf).rev().collect(),
        };
        for lane in lanes {
            let lane_c = fb.const_index(lane as i64);
            let j = fb.addi(jbase, lane_c);
            // Lane-local argument map: serial state args are genuine
            // scalar loads (observing in-row updates); everything else is
            // a lane extraction from the vector loads.
            let mut lane_args = vec![ValueId::from_raw(0); ctx.layout.num_args()];
            for (o, r) in ctx.layout.offsets.clone().iter().enumerate() {
                for v in 0..ctx.nb_var {
                    let si = ctx.layout.state_index(o, v);
                    if vec_offsets[o] {
                        lane_args[si] = fb.vec_extract(vec_args[si], lane);
                    } else {
                        // Serial L offset: scalar load from Y.
                        let vc = fb.const_index(v as i64);
                        let mut full_idx = vec![vc];
                        for d in 0..k - 1 {
                            let cst = fb.const_index(sign * r[d]);
                            full_idx.push(fb.addi(i_vals[d], cst));
                        }
                        let cst = fb.const_index(sign * r[k - 1]);
                        full_idx.push(fb.addi(j, cst));
                        lane_args[si] = fb.mem_load(ctx.y, &full_idx);
                    }
                    for a in 0..ctx.n_aux {
                        let ai = ctx.layout.aux_index(o, a, v);
                        lane_args[ai] = fb.vec_extract(vec_args[ai], lane);
                    }
                }
            }
            let lane_yields = inline_region(fb, src, ctx.region, &lane_args);
            for v in 0..ctx.nb_var {
                let mut sum = fb.vec_extract(temp[v], lane);
                for (o, &is_vec) in vec_offsets.iter().enumerate() {
                    if !is_vec {
                        sum = fb.addf(sum, lane_yields[ctx.layout.contrib_yield_index(o, v)]);
                    }
                }
                let y = fb.mulf(lane_yields[ctx.layout.d_yield_index(v)], sum);
                let vc = fb.const_index(v as i64);
                let mut full_idx = vec![vc];
                full_idx.extend_from_slice(i_vals);
                full_idx.push(j);
                fb.mem_store(y, ctx.y, &full_idx);
            }
        }
        Ok(())
    })?;

    // ----- peeled scalar remainder -----
    emit_for(fb, full, total, one, |fb, tau| {
        let j = match ctx.sweep {
            Sweep::Forward => fb.addi(lo_last, tau),
            Sweep::Backward => {
                let h = fb.subi(hi_last, tau);
                let one = fb.const_index(1);
                fb.subi(h, one)
            }
        };
        emit_point(fb, src, ctx, i_vals, Some(j))
    })
}

// ---------------------------------------------------------------------
// Pointwise lowering
// ---------------------------------------------------------------------

fn lower_pointwise(
    fb: &mut FuncBuilder,
    src: &Body,
    op_id: OpId,
    map: &mut HashMap<ValueId, ValueId>,
    opts: &LowerOptions,
    stats: &mut LowerStats,
) -> Result<(), PassError> {
    let op = src.op(op_id);
    let n_ins = op.int_attr("n_ins").unwrap_or(0) as usize;
    let interior = op
        .int_array_attr("interior")
        .ok_or_else(|| PassError::new("lower", "pointwise missing interior"))?
        .to_vec();
    let rank = interior.len();
    let k = rank - 1;
    let offsets_flat = op
        .int_array_attr("offsets")
        .ok_or_else(|| PassError::new("lower", "pointwise missing offsets"))?
        .to_vec();
    let offsets: Vec<Vec<i64>> = offsets_flat.chunks(rank).map(<[i64]>::to_vec).collect();
    let (base, bounds) = split_bounds(src, op_id, k);
    let ins: Vec<ValueId> = base[..n_ins].iter().map(|v| map[v]).collect();
    let out = map[&base[n_ins]];
    let region = op.regions[0];

    // Effective spatial bounds: window ∩ interior. Global extents come
    // from the first input when present: in fused tiles the output is a
    // tile-sized temp view whose dims are not the global ones.
    let dims_src = if n_ins > 0 { ins[0] } else { out };
    let mut wlo = Vec::with_capacity(k);
    let mut whi = Vec::with_capacity(k);
    for d in 0..k {
        let n = fb.mem_dim(dims_src, d + 1);
        let m = fb.const_index(interior[d + 1]);
        let glo = m;
        let ghi = fb.subi(n, m);
        match &bounds {
            Some((lo, hi)) => {
                let l = map[&lo[d]];
                let h = map[&hi[d]];
                wlo.push(fb.maxsi(l, glo));
                whi.push(fb.minsi(h, ghi));
            }
            None => {
                wlo.push(glo);
                whi.push(ghi);
            }
        }
    }
    let n0 = fb.mem_dim(out, 0);
    let zero = fb.const_index(0);
    let one = fb.const_index(1);

    let vectorize = opts.vectorize.filter(|&vf| vf > 1);
    if vectorize.is_some() {
        stats.vectorized += 1;
    } else {
        stats.scalar += 1;
    }

    // Loop over the field dimension then the spatial window.
    emit_for(fb, zero, n0, one, |fb, v| {
        emit_pointwise_loops(
            fb,
            src,
            region,
            &ins,
            out,
            &offsets,
            &wlo,
            &whi,
            v,
            vectorize,
            0,
            &mut Vec::new(),
        )
    })
}

#[allow(clippy::too_many_arguments)]
fn emit_pointwise_loops(
    fb: &mut FuncBuilder,
    src: &Body,
    region: RegionId,
    ins: &[ValueId],
    out: ValueId,
    offsets: &[Vec<i64>],
    wlo: &[ValueId],
    whi: &[ValueId],
    v: ValueId,
    vf: Option<usize>,
    depth: usize,
    idx: &mut Vec<ValueId>,
) -> Result<(), PassError> {
    let k = wlo.len();
    let last_outer = if vf.is_some() { k - 1 } else { k };
    if depth == last_outer {
        if let Some(vf) = vf {
            return emit_pointwise_vec_inner(
                fb, src, region, ins, out, offsets, wlo, whi, v, vf, idx,
            );
        }
        return emit_pointwise_point(fb, src, region, ins, out, offsets, v, idx, None);
    }
    let one = fb.const_index(1);
    emit_for(fb, wlo[depth], whi[depth], one, |fb, iv| {
        idx.push(iv);
        let r = emit_pointwise_loops(
            fb,
            src,
            region,
            ins,
            out,
            offsets,
            wlo,
            whi,
            v,
            vf,
            depth + 1,
            idx,
        );
        idx.pop();
        r
    })
}

#[allow(clippy::too_many_arguments)]
fn emit_pointwise_point(
    fb: &mut FuncBuilder,
    src: &Body,
    region: RegionId,
    ins: &[ValueId],
    out: ValueId,
    offsets: &[Vec<i64>],
    v: ValueId,
    idx: &[ValueId],
    last: Option<ValueId>,
) -> Result<(), PassError> {
    let mut point = idx.to_vec();
    if let Some(j) = last {
        point.push(j);
    }
    let k = point.len();
    let mut args = Vec::with_capacity(ins.len());
    for (j, &buf) in ins.iter().enumerate() {
        let off = &offsets[j];
        let c0 = fb.const_index(off[0]);
        let mut full = vec![fb.addi(v, c0)];
        for d in 0..k {
            let c = fb.const_index(off[d + 1]);
            full.push(fb.addi(point[d], c));
        }
        args.push(fb.mem_load(buf, &full));
    }
    let yields = inline_region(fb, src, region, &args);
    let mut full = vec![v];
    full.extend_from_slice(&point);
    fb.mem_store(yields[0], out, &full);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn emit_pointwise_vec_inner(
    fb: &mut FuncBuilder,
    src: &Body,
    region: RegionId,
    ins: &[ValueId],
    out: ValueId,
    offsets: &[Vec<i64>],
    wlo: &[ValueId],
    whi: &[ValueId],
    v: ValueId,
    vf: usize,
    idx: &[ValueId],
) -> Result<(), PassError> {
    let k = wlo.len();
    let lo_last = wlo[k - 1];
    let hi_last = whi[k - 1];
    let total = fb.subi(hi_last, lo_last);
    let vfc = fb.const_index(vf as i64);
    let chunks = fb.floordiv(total, vfc);
    let full = fb.muli(chunks, vfc);
    let zero = fb.const_index(0);
    let one = fb.const_index(1);
    emit_for(fb, zero, full, vfc, |fb, c| {
        let j = fb.addi(lo_last, c);
        let mut args = Vec::with_capacity(ins.len());
        for (a, &buf) in ins.iter().enumerate() {
            let off = &offsets[a];
            let c0 = fb.const_index(off[0]);
            let mut fidx = vec![fb.addi(v, c0)];
            for d in 0..k - 1 {
                let cst = fb.const_index(off[d + 1]);
                fidx.push(fb.addi(idx[d], cst));
            }
            let cst = fb.const_index(off[k]);
            fidx.push(fb.addi(j, cst));
            args.push(fb.transfer_read(buf, &fidx, vf));
        }
        let yields = inline_region_vector(fb, src, region, &args, vf);
        let mut fidx = vec![v];
        fidx.extend_from_slice(idx);
        fidx.push(j);
        fb.transfer_write_mem(yields[0], out, &fidx);
        Ok(())
    })?;
    emit_for(fb, full, total, one, |fb, tau| {
        let j = fb.addi(lo_last, tau);
        emit_pointwise_point(fb, src, region, ins, out, offsets, v, idx, Some(j))
    })
}

// ---------------------------------------------------------------------
// Face iterator lowering
// ---------------------------------------------------------------------

fn lower_face_iterator(
    fb: &mut FuncBuilder,
    src: &Body,
    op_id: OpId,
    map: &mut HashMap<ValueId, ValueId>,
) -> Result<(), PassError> {
    let op = src.op(op_id);
    let axis = op.int_attr("axis").unwrap_or(0) as usize;
    let nb_var = op.int_attr("nb_var").unwrap_or(1) as usize;
    let margin = op.int_attr("margin").unwrap_or(1);
    let region = op.regions[0];
    // Rank from the X input: in the bounded form the trailing operands
    // are index bounds, not the output buffer.
    let k = src
        .value_type(op.operands[0])
        .rank()
        .ok_or_else(|| PassError::new("lower", "face iterator input must be shaped"))?
        - 1;
    let (base, bounds) = split_bounds(src, op_id, k);
    let x = map[&base[0]];
    let b = map[&base[1]];

    // Global interior and window bounds.
    let mut glo = Vec::with_capacity(k);
    let mut ghi = Vec::with_capacity(k);
    for d in 0..k {
        // Global extents come from X: in fused tiles B is a tile-sized
        // temp view.
        let n = fb.mem_dim(x, d + 1);
        let m = fb.const_index(margin);
        glo.push(m);
        ghi.push(fb.subi(n, m));
    }
    let (wlo, whi): (Vec<ValueId>, Vec<ValueId>) = match &bounds {
        Some((lo, hi)) => (
            lo.iter().map(|v| map[v]).collect(),
            hi.iter().map(|v| map[v]).collect(),
        ),
        None => (glo.clone(), ghi.clone()),
    };
    // Per-dimension face loop bounds.
    let one = fb.const_index(1);
    let mut flo = Vec::with_capacity(k);
    let mut fhi = Vec::with_capacity(k);
    for d in 0..k {
        if d == axis {
            // Faces span one cell beyond the window on each side so that
            // boundary-adjacent cells receive both of their fluxes (the
            // boundary cell acts as a frozen Dirichlet ghost).
            let a = fb.subi(wlo[d], one);
            let gm1 = fb.subi(glo[d], one);
            let a = fb.maxsi(a, gm1);
            let h = fb.minsi(whi[d], ghi[d]);
            flo.push(a);
            fhi.push(h);
        } else {
            flo.push(fb.maxsi(wlo[d], glo[d]));
            fhi.push(fb.minsi(whi[d], ghi[d]));
        }
    }
    // Face `f` updates its left cell iff `f ≥ wlo` and its right cell
    // iff `f < whi − 1`, so only the first and last face can fail a
    // test: `a_hi = min(max(wlo, flo), fhi)` and
    // `m_hi = max(min(whi − 1, fhi), a_hi)` split `[flo, fhi)` into
    // right-only, both-cell and left-only faces. The faces of
    // `[flo, a_hi)` at or past `whi − 1` touch no cell (they exist only
    // when the window is empty), so the right-only loop stops there.
    let last = fb.subi(whi[axis], one);
    let a = fb.maxsi(wlo[axis], flo[axis]);
    let a_hi = fb.minsi(a, fhi[axis]);
    let r_hi = fb.minsi(a_hi, last);
    let m = fb.minsi(last, fhi[axis]);
    let m_hi = fb.maxsi(m, a_hi);
    let peel = [
        (flo[axis], r_hi, Cells::Right),
        (a_hi, m_hi, Cells::Both),
        (m_hi, fhi[axis], Cells::Left),
    ];
    let nest = FaceNest {
        src,
        region,
        x,
        b,
        axis,
        nb_var,
        flo,
        fhi,
        peel,
    };
    nest.emit(fb, &mut Vec::new(), Cells::Both)
}

/// Which cells of a face receive its flux.
#[derive(Clone, Copy)]
enum Cells {
    Left,
    Right,
    Both,
}

/// A face iterator's loop nest: one loop per dimension over the faces
/// `[flo, fhi)`, except the face axis, which runs as three consecutive
/// guard-free loops (`peel`). Each of the three holds the deeper loops,
/// so the faces still run in ascending row-major order and every `B`
/// cell receives its contributions in the same order as in the
/// structured op.
struct FaceNest<'a> {
    src: &'a Body,
    region: RegionId,
    x: ValueId,
    b: ValueId,
    axis: usize,
    nb_var: usize,
    flo: Vec<ValueId>,
    fhi: Vec<ValueId>,
    peel: [(ValueId, ValueId, Cells); 3],
}

impl FaceNest<'_> {
    fn emit(
        &self,
        fb: &mut FuncBuilder,
        idx: &mut Vec<ValueId>,
        cells: Cells,
    ) -> Result<(), PassError> {
        let depth = idx.len();
        if depth == self.flo.len() {
            self.emit_face(fb, idx, cells);
            return Ok(());
        }
        let one = fb.const_index(1);
        let mut level = |fb: &mut FuncBuilder, lo, hi, cells| {
            emit_for(fb, lo, hi, one, |fb, iv| {
                idx.push(iv);
                let r = self.emit(fb, idx, cells);
                idx.pop();
                r
            })
        };
        if depth == self.axis {
            for (lo, hi, cells) in self.peel {
                level(fb, lo, hi, cells)?;
            }
            Ok(())
        } else {
            level(fb, self.flo[depth], self.fhi[depth], cells)
        }
    }

    /// The face between cell `idx` (left) and `idx + e_axis` (right):
    /// `left += flux`, `right -= flux` on the cells `cells` names.
    fn emit_face(&self, fb: &mut FuncBuilder, idx: &[ValueId], cells: Cells) {
        let one = fb.const_index(1);
        let mut right = idx.to_vec();
        right[self.axis] = fb.addi(idx[self.axis], one);
        let mut args = Vec::with_capacity(2 * self.nb_var);
        for cell in [idx, &right[..]] {
            for v in 0..self.nb_var {
                let vc = fb.const_index(v as i64);
                let mut full = vec![vc];
                full.extend_from_slice(cell);
                args.push(fb.mem_load(self.x, &full));
            }
        }
        let flux = inline_region(fb, self.src, self.region, &args);
        if matches!(cells, Cells::Left | Cells::Both) {
            self.accumulate(fb, idx, &flux, false);
        }
        if matches!(cells, Cells::Right | Cells::Both) {
            self.accumulate(fb, &right, &flux, true);
        }
    }

    /// `B[·, cell] ±= flux`, one load-add-store per variable.
    fn accumulate(&self, fb: &mut FuncBuilder, cell: &[ValueId], flux: &[ValueId], sub: bool) {
        for (v, &f) in flux.iter().enumerate() {
            let vc = fb.const_index(v as i64);
            let mut full = vec![vc];
            full.extend_from_slice(cell);
            let cur = fb.mem_load(self.b, &full);
            let nv = if sub { fb.subf(cur, f) } else { fb.addf(cur, f) };
            fb.mem_store(nv, self.b, &full);
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Lowers every structured op of a bufferized function to loops.
///
/// # Errors
/// Fails on malformed structured ops.
pub fn lower_func(func: &Func, opts: &LowerOptions) -> Result<(Func, LowerStats), PassError> {
    let mut lowerer = Lowerer {
        opts: opts.clone(),
        stats: LowerStats::default(),
    };
    let (new_func, _) = rebuild_func(
        func,
        &func.name,
        func.arg_types.clone(),
        func.result_types.clone(),
        &mut lowerer,
    )?;
    Ok((new_func, lowerer.stats))
}

/// Lowers every function of a module; returns accumulated statistics.
///
/// # Errors
/// Rejects a vector factor of 0 or 1; propagates the first per-function
/// failure.
pub fn lower_module(
    module: &Module,
    opts: &LowerOptions,
) -> Result<(Module, LowerStats), PassError> {
    if let Some(vf @ (0 | 1)) = opts.vectorize {
        return Err(PassError::new(
            "lower",
            format!("vector factor {vf} must be at least 2 (None for scalar code)"),
        ));
    }
    let mut out = Module::new(module.name.clone());
    let mut stats = LowerStats::default();
    for f in module.funcs() {
        let (nf, s) = lower_func(f, opts)?;
        stats.vectorized += s.vectorized;
        stats.scalar += s.scalar;
        out.push_func(nf);
    }
    out.verify().map_err(PassError::from)?;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::transforms::bufferize::bufferize_module;
    use crate::transforms::tile::{tile_module, TileOptions};

    fn opts2d(parallel: bool) -> TileOptions {
        TileOptions {
            subdomain: vec![32, 32],
            tile: vec![16, 16],
            parallel,
            fuse: false,
        }
    }

    #[test]
    fn scalar_lowering_produces_loops() {
        let m = bufferize_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let (l, stats) = lower_module(&m, &LowerOptions { vectorize: None }).unwrap();
        assert_eq!(
            stats,
            LowerStats {
                vectorized: 0,
                scalar: 1
            }
        );
        let f = l.lookup("gs5").unwrap();
        assert!(f.body.find_first(&OpCode::CfdStencil).is_none());
        assert_eq!(f.body.find_all(&OpCode::For).len(), 2);
        assert!(f.body.find_first(&OpCode::MemLoad).is_some());
        assert!(f.body.find_first(&OpCode::MemStore).is_some());
    }

    #[test]
    fn vectorized_lowering_matches_fig7_structure() {
        let m = bufferize_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let (l, stats) = lower_module(&m, &LowerOptions { vectorize: Some(8) }).unwrap();
        assert_eq!(stats.vectorized, 1);
        let f = l.lookup("gs5").unwrap();
        let text = instencil_ir::print::print_module(&l);
        // Vector chunk loop + peeled loop: 3 scf.for total (i, chunks,
        // peel).
        assert_eq!(f.body.find_all(&OpCode::For).len(), 3);
        assert!(text.contains("vector.transfer_read"), "{text}");
        assert!(f.body.find_all(&OpCode::VecExtract).len() >= 8);
        // Serial chain: scalar loads of Y remain in the chunk body.
        assert!(f.body.find_first(&OpCode::MemLoad).is_some());
    }

    #[test]
    fn tiled_then_lowered_verifies() {
        for (m, parallel) in [
            (kernels::gauss_seidel_5pt_module(), true),
            (kernels::gauss_seidel_5pt_module(), false),
            (kernels::gauss_seidel_9pt_order2_module(), true),
            (kernels::jacobi_5pt_module(), true),
        ] {
            let b = bufferize_module(&m).unwrap();
            let t = tile_module(&b, &opts2d(parallel)).unwrap();
            let (l, _) = lower_module(&t, &LowerOptions { vectorize: Some(4) }).unwrap();
            l.verify()
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", l.name, l.to_text()));
        }
    }

    #[test]
    fn heat3d_full_pipeline_verifies() {
        let b = bufferize_module(&kernels::heat3d_module()).unwrap();
        let opts = TileOptions {
            subdomain: vec![8, 8, 16],
            tile: vec![4, 4, 8],
            parallel: true,
            fuse: true,
        };
        let t = tile_module(&b, &opts).unwrap();
        let (l, stats) = lower_module(&t, &LowerOptions { vectorize: Some(8) }).unwrap();
        l.verify()
            .unwrap_or_else(|e| panic!("{e}\n{}", l.to_text()));
        assert!(stats.vectorized >= 2);
    }

    #[test]
    fn backward_sweep_lowering_verifies() {
        let b = bufferize_module(&kernels::gauss_seidel_5pt_backward_module()).unwrap();
        for vf in [None, Some(4)] {
            let (l, _) = lower_module(&b, &LowerOptions { vectorize: vf }).unwrap();
            l.verify()
                .unwrap_or_else(|e| panic!("{e}\n{}", l.to_text()));
        }
    }

    #[test]
    fn separability_fallback_to_scalar() {
        // A contrived kernel whose U contribution depends on a serial L
        // argument — must fall back to scalar lowering.
        use crate::ops::{build_stencil, StencilSpec, StencilYield};
        use instencil_ir::{FuncBuilder, Module, Type};
        let t3 = Type::tensor_dyn(Type::F64, 3);
        let mut fb = FuncBuilder::new("tricky", vec![t3.clone(), t3.clone()], vec![t3]);
        let w = fb.arg(0);
        let bb = fb.arg(1);
        let spec = StencilSpec::simple(instencil_pattern::presets::gauss_seidel_5pt());
        let y = build_stencil(&mut fb, w, bb, &[], w, &spec, |fb, view| {
            let d = fb.const_f64(0.2);
            // Contribution of U offset (0,1) mixes in the serial (0,-1)
            // value: not separable.
            let serial = view.state_at(&[0, -1], 0);
            let mixed = fb.addf(view.state_at(&[0, 1], 0), serial);
            let contribs = vec![
                vec![view.state(0, 0)],
                vec![serial],
                vec![view.center(0)],
                vec![mixed],
                vec![view.state(4, 0)],
            ];
            StencilYield {
                d: vec![d],
                contribs,
            }
        });
        fb.ret(vec![y]);
        let mut m = Module::new("tricky");
        m.push_func(fb.finish());
        let b = bufferize_module(&m).unwrap();
        let (_, stats) = lower_module(&b, &LowerOptions { vectorize: Some(8) }).unwrap();
        assert_eq!(
            stats,
            LowerStats {
                vectorized: 0,
                scalar: 1
            }
        );
    }

    #[test]
    fn face_iterator_lowering_verifies() {
        use crate::ops::build_face_iterator;
        use instencil_ir::{FuncBuilder, Module, Type};
        let t4 = Type::tensor_dyn(Type::F64, 4);
        let mut fb = FuncBuilder::new("flux", vec![t4.clone(), t4.clone()], vec![t4]);
        let x = fb.arg(0);
        let b0 = fb.arg(1);
        let b = build_face_iterator(&mut fb, x, b0, 1, 1, 1, |fb, ul, ur| {
            vec![fb.subf(ur[0], ul[0])]
        });
        fb.ret(vec![b]);
        let mut m = Module::new("flux");
        m.push_func(fb.finish());
        let bm = bufferize_module(&m).unwrap();
        let (l, _) = lower_module(&bm, &LowerOptions::default()).unwrap();
        l.verify()
            .unwrap_or_else(|e| panic!("{e}\n{}", l.to_text()));
        let f = l.lookup("flux").unwrap();
        assert!(f.body.find_first(&OpCode::If).is_none());
        assert!(f.body.find_first(&OpCode::CfdFaceIterator).is_none());
    }
}
