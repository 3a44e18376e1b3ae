//! Tiling, sub-domain wavefront parallelization and fusion-after-tiling
//! (paper §2.1–2.3, §3.3–3.4).
//!
//! Each bufferized structured op (`cfd.stencil`, `linalg.pointwise`,
//! `cfd.face_iterator`) is rewritten into a two-level tiled structure:
//!
//! ```text
//! %rows, %cols = cfd.get_parallel_blocks(%nb...) {block_stencil}   // §3.4
//! scf.execute_wavefronts(%rows, %cols) { ^bb(%flat):
//!   // decode %flat into sub-domain coordinates, compute its bounds
//!   scf.for %t = ... step TILE {                                   // §2.1
//!     [fused producers into a per-tile temp buffer]                // §2.2
//!     cfd.stencil {bounded} ins(...) outs(%Y) bounds(%lo, %hi)
//!   }
//! }
//! ```
//!
//! Sub-domain dependences come from the element-level stencil pattern via
//! corner analysis (Fig. 1); pointwise ops are embarrassingly parallel;
//! `cfd.face_iterator` serializes neighbors along its axis (its `±1`
//! accumulations cross tile borders).
//!
//! Fusion (§2.2) pulls the producers of the stencil's `B` tensor into the
//! tile: a temp buffer of tile size is allocated, addressed in global
//! coordinates through `memref.shift_view`, and the producer is re-emitted
//! bounded to the tile window — recomputing boundary faces redundantly
//! across tiles exactly as the paper describes.

use std::collections::{HashMap, HashSet};

use instencil_ir::attr::Attribute;
use instencil_ir::{Body, Func, FuncBuilder, Module, OpCode, OpId, PassError, Type, ValueId};
use instencil_obs::Obs;
use instencil_pattern::{blockdeps, Offset, StencilPattern, Sweep};

use super::{rebuild_func, Expanded, OpExpander};
use crate::attrs::attr_to_pattern;
use crate::ops::build_get_parallel_blocks;

/// Options of the tiling + parallelization pass.
#[derive(Clone, Debug)]
pub struct TileOptions {
    /// Sub-domain sizes (elements, one per spatial dimension) — the outer,
    /// parallelism-oriented tiling level (§2.3).
    pub subdomain: Vec<usize>,
    /// Cache-tile sizes (elements, per spatial dimension) — the inner,
    /// locality-oriented level (§2.1).
    pub tile: Vec<usize>,
    /// Emit the wavefront-parallel structure; when `false`, plain
    /// sequential tile loops are generated.
    pub parallel: bool,
    /// Fuse producers of the stencil's `B` tensor into the tile (§2.2).
    pub fuse: bool,
}

struct Info {
    /// Spatial rank (buffer rank minus the leading field dimension).
    k: usize,
    sweep: Sweep,
    /// Interior margin per spatial dimension.
    margins: Vec<i64>,
    /// Sub-domain dependence offsets.
    block_deps: Vec<Offset>,
}

/// Checks that `opts` gives one positive tile and sub-domain extent per
/// spatial dimension of a rank-`k` op.
fn check_extents(opts: &TileOptions, k: usize) -> Result<(), PassError> {
    for (what, sizes) in [("tile", &opts.tile), ("sub-domain", &opts.subdomain)] {
        if sizes.len() != k {
            return Err(PassError::new(
                "tile",
                format!("{what} sizes {sizes:?} have rank {}, the kernel {k}", sizes.len()),
            ));
        }
        if sizes.contains(&0) {
            return Err(PassError::new(
                "tile",
                format!("{what} sizes {sizes:?} must be positive"),
            ));
        }
    }
    Ok(())
}

fn op_info(body: &Body, op_id: OpId, opts: &TileOptions) -> Result<Info, PassError> {
    let op = body.op(op_id);
    let out = *op.operands.last().expect("structured op has operands");
    // For the bufferized stencil the out operand is Y (last); bounds are
    // appended later so this runs on unbounded ops only.
    let rank = body
        .value_type(out)
        .rank()
        .ok_or_else(|| PassError::new("tile", "output operand must be shaped"))?;
    let k = rank - 1;
    check_extents(opts, k)?;
    match &op.opcode {
        OpCode::CfdStencil => {
            let pattern = stencil_pattern(body, op_id)?;
            let sweep = Sweep::decode(op.int_attr("sweep").unwrap_or(1))
                .ok_or_else(|| PassError::new("tile", "bad sweep attribute"))?;
            let sd = &opts.subdomain;
            let deps = blockdeps::block_dependences(&pattern, sd).map_err(|e| {
                PassError::new("tile", format!("illegal sub-domain sizes {sd:?}: {e}"))
            })?;
            let margins = pattern.radii().iter().map(|&r| r as i64).collect();
            Ok(Info {
                k,
                sweep,
                margins,
                block_deps: deps,
            })
        }
        OpCode::LinalgPointwise => {
            let interior = op
                .int_array_attr("interior")
                .ok_or_else(|| PassError::new("tile", "pointwise missing interior"))?;
            if interior[0] != 0 {
                return Err(PassError::new(
                    "tile",
                    "field-dim interior margin must be 0",
                ));
            }
            Ok(Info {
                k,
                sweep: Sweep::Forward,
                margins: interior[1..].to_vec(),
                block_deps: vec![],
            })
        }
        OpCode::CfdFaceIterator => {
            let axis = op.int_attr("axis").unwrap_or(0) as usize;
            let margin = op.int_attr("margin").unwrap_or(1);
            let mut dep = vec![0i64; k];
            dep[axis] = -1;
            Ok(Info {
                k,
                sweep: Sweep::Forward,
                margins: vec![margin; k],
                block_deps: vec![dep],
            })
        }
        other => Err(PassError::new(
            "tile",
            format!("not a structured op: {other}"),
        )),
    }
}

fn stencil_pattern(body: &Body, op_id: OpId) -> Result<StencilPattern, PassError> {
    let attr = body
        .op(op_id)
        .attrs
        .get("stencil")
        .ok_or_else(|| PassError::new("tile", "stencil op missing pattern"))?;
    attr_to_pattern(attr).map_err(|e| PassError::new("tile", e.to_string()))
}

/// Finds, per stencil op, the producers of its `B` buffer that are legal
/// to fuse (earlier structured ops in the same block whose out buffer is
/// exactly the stencil's `B` operand, with no other readers in between).
fn fusable_producers(func: &Func) -> HashMap<OpId, Vec<OpId>> {
    let body = &func.body;
    let entry = body.entry_block();
    let ops = body.block(entry).ops.clone();
    let mut result: HashMap<OpId, Vec<OpId>> = HashMap::new();
    for (pos, &op_id) in ops.iter().enumerate() {
        let op = body.op(op_id);
        if op.opcode != OpCode::CfdStencil || op.attrs.get("bufferized").is_none() {
            continue;
        }
        let b = op.operands[1];
        let y = *op.operands.last().unwrap();
        let mut producers = Vec::new();
        let mut legal = true;
        for &cand in &ops[..pos] {
            let c = body.op(cand);
            match c.opcode {
                OpCode::LinalgPointwise | OpCode::CfdFaceIterator
                    if c.attrs.get("bufferized").is_some() && c.operands.last() == Some(&b) =>
                {
                    // Producers must not read the stencil's output buffer.
                    if c.operands[..c.operands.len() - 1].contains(&y) {
                        legal = false;
                    }
                    producers.push(cand);
                }
                _ => {
                    // Any other op touching B between producer and stencil
                    // defeats fusion.
                    if c.operands.contains(&b) {
                        legal = false;
                    }
                }
            }
        }
        if legal && !producers.is_empty() {
            result.insert(op_id, producers);
        }
    }
    result
}

struct Tiler<'a> {
    opts: &'a TileOptions,
    fused: HashMap<OpId, Vec<OpId>>,
    skip: HashSet<OpId>,
    obs: &'a Obs,
}

impl OpExpander for Tiler<'_> {
    fn expand(
        &mut self,
        fb: &mut FuncBuilder,
        src: &Body,
        op_id: OpId,
        map: &mut HashMap<ValueId, ValueId>,
    ) -> Result<Expanded, PassError> {
        if self.skip.contains(&op_id) {
            return Ok(Expanded::Replaced); // re-emitted inside the tiles
        }
        let op = src.op(op_id);
        let is_structured = matches!(
            op.opcode,
            OpCode::CfdStencil | OpCode::LinalgPointwise | OpCode::CfdFaceIterator
        );
        if !is_structured
            || op.attrs.get("bufferized").is_none()
            || op.attrs.get("bounded").is_some()
        {
            return Ok(Expanded::Keep);
        }
        let info = {
            let _s = self.obs.span("tile:pattern-extraction");
            op_info(src, op_id, self.opts)?
        };
        let fused = self.fused.get(&op_id).cloned().unwrap_or_default();
        let mut s = self.obs.span("tile:emit");
        s.note("fused_producers", fused.len() as i64);
        emit_tiled(fb, src, op_id, map, self.opts, &info, &fused)
    }
}

/// Emits the tiled (and optionally wavefront-parallel) replacement of one
/// structured op.
#[allow(clippy::too_many_arguments)]
fn emit_tiled(
    fb: &mut FuncBuilder,
    src: &Body,
    op_id: OpId,
    map: &mut HashMap<ValueId, ValueId>,
    opts: &TileOptions,
    info: &Info,
    fused: &[OpId],
) -> Result<Expanded, PassError> {
    let op = src.op(op_id).clone();
    let out = map[op.operands.last().unwrap()];
    let k = info.k;

    // Interior bounds lo_d / hi_d and traversal extents N_d.
    let mut lo = Vec::with_capacity(k);
    let mut n_tau = Vec::with_capacity(k);
    let mut hi = Vec::with_capacity(k);
    for d in 0..k {
        let n = fb.mem_dim(out, d + 1);
        let m = fb.const_index(info.margins[d]);
        let lo_d = m;
        let hi_d = fb.subi(n, m);
        let ext = fb.subi(hi_d, lo_d);
        lo.push(lo_d);
        hi.push(hi_d);
        n_tau.push(ext);
    }

    if opts.parallel {
        // Number of sub-domains per dimension.
        let mut nb = Vec::with_capacity(k);
        for (&ext, &sd_size) in n_tau.iter().zip(&opts.subdomain) {
            let sd = fb.const_index(sd_size as i64);
            nb.push(fb.ceildiv(ext, sd));
        }
        let (shape, data) = blockdeps::to_block_stencil(k, &info.block_deps);
        let (rows, cols) = build_get_parallel_blocks(fb, &nb, shape, data);
        // Wavefront region.
        let region = fb.body_mut().add_region();
        let block = fb.body_mut().add_block(region);
        let flat = fb.body_mut().add_block_arg(block, Type::Index);
        let saved = fb.insertion_block();
        fb.set_insertion_block(block);
        // Decode flat → sub-domain coordinates (row-major, last fastest).
        let mut sd_coord = vec![flat; k];
        let mut rem = flat;
        for d in (0..k).rev() {
            sd_coord[d] = fb.remi(rem, nb[d]);
            rem = fb.floordiv(rem, nb[d]);
        }
        // Sub-domain tau bounds.
        let mut sd_lo = Vec::with_capacity(k);
        let mut sd_hi = Vec::with_capacity(k);
        for d in 0..k {
            let sd_size = fb.const_index(opts.subdomain[d] as i64);
            let a = fb.muli(sd_coord[d], sd_size);
            let b = fb.addi(a, sd_size);
            let b = fb.minsi(b, n_tau[d]);
            sd_lo.push(a);
            sd_hi.push(b);
        }
        emit_tile_loops(
            fb,
            src,
            &op,
            map,
            opts,
            info,
            fused,
            &lo,
            &hi,
            &sd_lo,
            &sd_hi,
            0,
            &mut Vec::new(),
        )?;
        fb.create(
            OpCode::Yield,
            vec![],
            vec![],
            instencil_ir::attr::AttrMap::new(),
            vec![],
        );
        fb.set_insertion_block(saved);
        fb.create(
            OpCode::ExecuteWavefronts,
            vec![rows, cols],
            vec![],
            instencil_ir::attr::AttrMap::new(),
            vec![region],
        );
    } else {
        let zero = fb.const_index(0);
        let range_lo = vec![zero; k];
        emit_tile_loops(
            fb,
            src,
            &op,
            map,
            opts,
            info,
            fused,
            &lo,
            &hi,
            &range_lo,
            &n_tau.clone(),
            0,
            &mut Vec::new(),
        )?;
    }
    Ok(Expanded::Replaced)
}

/// Recursively emits the cache-tile loop nest over tau space
/// `[range_lo, range_hi)`, then the tile body.
#[allow(clippy::too_many_arguments)]
fn emit_tile_loops(
    fb: &mut FuncBuilder,
    src: &Body,
    op: &instencil_ir::Operation,
    map: &mut HashMap<ValueId, ValueId>,
    opts: &TileOptions,
    info: &Info,
    fused: &[OpId],
    lo: &[ValueId],
    hi: &[ValueId],
    range_lo: &[ValueId],
    range_hi: &[ValueId],
    depth: usize,
    tau_bounds: &mut Vec<(ValueId, ValueId)>,
) -> Result<(), PassError> {
    let k = info.k;
    if depth == k {
        return emit_tile_body(fb, src, op, map, opts, info, fused, lo, hi, tau_bounds);
    }
    let step = fb.const_index(opts.tile[depth] as i64);
    let lo_d = range_lo[depth];
    let hi_d = range_hi[depth];
    // scf.for over tile origins in tau space.
    let region = fb.body_mut().add_region();
    let block = fb.body_mut().add_block(region);
    let iv = fb.body_mut().add_block_arg(block, Type::Index);
    let saved = fb.insertion_block();
    fb.set_insertion_block(block);
    let t_end_raw = fb.addi(iv, step);
    let t_end = fb.minsi(t_end_raw, hi_d);
    tau_bounds.push((iv, t_end));
    let mut err = None;
    if let Err(e) = emit_tile_loops(
        fb,
        src,
        op,
        map,
        opts,
        info,
        fused,
        lo,
        hi,
        range_lo,
        range_hi,
        depth + 1,
        tau_bounds,
    ) {
        err = Some(e);
    }
    tau_bounds.pop();
    fb.create(
        OpCode::Yield,
        vec![],
        vec![],
        instencil_ir::attr::AttrMap::new(),
        vec![],
    );
    fb.set_insertion_block(saved);
    fb.create(
        OpCode::For,
        vec![lo_d, hi_d, step],
        vec![],
        instencil_ir::attr::AttrMap::new(),
        vec![region],
    );
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Emits the fused producers and the bounded structured op for one tile.
#[allow(clippy::too_many_arguments)]
fn emit_tile_body(
    fb: &mut FuncBuilder,
    src: &Body,
    op: &instencil_ir::Operation,
    map: &mut HashMap<ValueId, ValueId>,
    _opts: &TileOptions,
    info: &Info,
    fused: &[OpId],
    lo: &[ValueId],
    hi: &[ValueId],
    tau_bounds: &[(ValueId, ValueId)],
) -> Result<(), PassError> {
    let k = info.k;
    // Map tau bounds to memory bounds, honoring the sweep direction.
    let mut mlo = Vec::with_capacity(k);
    let mut mhi = Vec::with_capacity(k);
    for d in 0..k {
        let (ta, tb) = tau_bounds[d];
        match info.sweep {
            Sweep::Forward => {
                mlo.push(fb.addi(lo[d], ta));
                mhi.push(fb.addi(lo[d], tb));
            }
            Sweep::Backward => {
                mlo.push(fb.subi(hi[d], tb));
                mhi.push(fb.subi(hi[d], ta));
            }
        }
    }

    // Fused producers: allocate a tile-sized temp addressed in global
    // coordinates and re-emit each producer bounded to the tile window.
    let mut b_replacement: Option<(ValueId, ValueId)> = None; // (old B, view)
    if !fused.is_empty() {
        let b_old = op.operands[1];
        let b_buf = map[&b_old];
        let nv = fb.mem_dim(b_buf, 0);
        let mut sizes = vec![nv];
        for d in 0..k {
            sizes.push(fb.subi(mhi[d], mlo[d]));
        }
        let elem = fb.ty(b_buf).elem().cloned().unwrap_or(Type::F64);
        let tmp = fb.mem_alloc(Type::memref_dyn(elem, k + 1), sizes);
        let zero = fb.const_index(0);
        let mut shifts = vec![zero];
        shifts.extend_from_slice(&mlo);
        let view = fb.mem_shift_view(tmp, &shifts);
        for &producer in fused {
            let p = src.op(producer).clone();
            let mut operands: Vec<ValueId> = p.operands[..p.operands.len() - 1]
                .iter()
                .map(|v| map[v])
                .collect();
            operands.push(view);
            operands.extend_from_slice(&mlo);
            operands.extend_from_slice(&mhi);
            let mut attrs = p.attrs.clone();
            attrs.set("bounded", Attribute::Unit);
            let new_op = fb.create(p.opcode.clone(), operands, vec![], attrs, vec![]);
            let region = fb.body_mut().clone_region_from(src, p.regions[0], map);
            fb.body_mut().op_mut(new_op).regions = vec![region];
        }
        b_replacement = Some((b_old, view));
    }

    // The bounded structured op itself.
    let mut operands: Vec<ValueId> = op
        .operands
        .iter()
        .map(|v| match &b_replacement {
            Some((old, view)) if v == old => *view,
            _ => map[v],
        })
        .collect();
    operands.extend_from_slice(&mlo);
    operands.extend_from_slice(&mhi);
    let mut attrs = op.attrs.clone();
    attrs.set("bounded", Attribute::Unit);
    let new_op = fb.create(op.opcode.clone(), operands, vec![], attrs, vec![]);
    let region = fb.body_mut().clone_region_from(src, op.regions[0], map);
    fb.body_mut().op_mut(new_op).regions = vec![region];
    Ok(())
}

/// Applies tiling + parallelization (+ fusion) to one bufferized function.
///
/// # Errors
/// Fails when sub-domain or tile sizes are illegal for a stencil pattern
/// (§2.1 restriction) or ranks mismatch.
pub fn tile_func(func: &Func, opts: &TileOptions) -> Result<Func, PassError> {
    tile_func_traced(func, opts, &Obs::off())
}

/// [`tile_func`] with an observability collector: records spans for the
/// fusion analysis (`tile:fusion-analysis`), per-op pattern extraction
/// (`tile:pattern-extraction`) and tiled emission (`tile:emit`).
///
/// # Errors
/// See [`tile_func`].
pub fn tile_func_traced(func: &Func, opts: &TileOptions, obs: &Obs) -> Result<Func, PassError> {
    // Validate cache-tile legality for every stencil up front.
    let mut legality: Result<(), PassError> = Ok(());
    func.body.walk(|op_id| {
        let op = func.body.op(op_id);
        if op.opcode == OpCode::CfdStencil && legality.is_ok() {
            if let Ok(p) = stencil_pattern(&func.body, op_id) {
                legality = check_extents(opts, p.rank()).and_then(|()| {
                    blockdeps::block_dependences(&p, &opts.tile).map(drop).map_err(|e| {
                        PassError::new(
                            "tile",
                            format!("illegal cache-tile sizes {:?}: {e}", opts.tile),
                        )
                    })
                });
            }
        }
    });
    legality?;
    let fused = if opts.fuse {
        let mut s = obs.span("tile:fusion-analysis");
        let fused = fusable_producers(func);
        s.note("fused_stencils", fused.len() as i64);
        s.note(
            "fused_producers",
            fused.values().map(Vec::len).sum::<usize>() as i64,
        );
        fused
    } else {
        HashMap::new()
    };
    let skip: HashSet<OpId> = fused.values().flatten().copied().collect();
    let mut tiler = Tiler {
        opts,
        fused,
        skip,
        obs,
    };
    let (new_func, _) = rebuild_func(
        func,
        &func.name,
        func.arg_types.clone(),
        func.result_types.clone(),
        &mut tiler,
    )?;
    Ok(new_func)
}

/// Applies [`tile_func`] to every function of a module.
///
/// # Errors
/// Propagates the first per-function failure.
pub fn tile_module(module: &Module, opts: &TileOptions) -> Result<Module, PassError> {
    tile_module_traced(module, opts, &Obs::off())
}

/// [`tile_module`] with an observability collector (see
/// [`tile_func_traced`]).
///
/// # Errors
/// Propagates the first per-function failure.
pub fn tile_module_traced(
    module: &Module,
    opts: &TileOptions,
    obs: &Obs,
) -> Result<Module, PassError> {
    let mut out = Module::new(module.name.clone());
    for f in module.funcs() {
        out.push_func(tile_func_traced(f, opts, obs)?);
    }
    out.verify().map_err(PassError::from)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::transforms::bufferize::bufferize_module;

    fn opts2d() -> TileOptions {
        TileOptions {
            subdomain: vec![32, 32],
            tile: vec![16, 16],
            parallel: true,
            fuse: false,
        }
    }

    #[test]
    fn gs5_tiles_and_parallelizes() {
        let m = bufferize_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let t = tile_module(&m, &opts2d()).unwrap();
        let f = t.lookup("gs5").unwrap();
        assert!(f.body.find_first(&OpCode::CfdGetParallelBlocks).is_some());
        assert!(f.body.find_first(&OpCode::ExecuteWavefronts).is_some());
        let stencils = f.body.find_all(&OpCode::CfdStencil);
        assert_eq!(stencils.len(), 1);
        assert!(f.body.op(stencils[0]).attrs.get("bounded").is_some());
        // Bounded stencil gains 2*k index operands.
        assert_eq!(f.body.op(stencils[0]).operands.len(), 3 + 4);
    }

    #[test]
    fn gs9_large_tiles_rejected() {
        let m = bufferize_module(&kernels::gauss_seidel_9pt_module()).unwrap();
        let e = tile_module(&m, &opts2d()).unwrap_err();
        assert!(e.message.contains("illegal"), "{e}");
        // The paper's pinned 1×128 shape works.
        let legal = TileOptions {
            subdomain: vec![1, 256],
            tile: vec![1, 128],
            parallel: true,
            fuse: false,
        };
        tile_module(&m, &legal).unwrap();
    }

    #[test]
    fn sequential_tiling_has_no_wavefronts() {
        let m = bufferize_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let opts = TileOptions {
            subdomain: vec![32, 32],
            tile: vec![16, 16],
            parallel: false,
            fuse: false,
        };
        let t = tile_module(&m, &opts).unwrap();
        let f = t.lookup("gs5").unwrap();
        assert!(f.body.find_first(&OpCode::ExecuteWavefronts).is_none());
        assert_eq!(f.body.find_all(&OpCode::For).len(), 2);
    }

    #[test]
    fn heat3d_fusion_pulls_rhs_into_tile() {
        let m = bufferize_module(&kernels::heat3d_module()).unwrap();
        let opts = TileOptions {
            subdomain: vec![6, 12, 256],
            tile: vec![6, 6, 128],
            parallel: true,
            fuse: true,
        };
        let t = tile_module(&m, &opts).unwrap();
        let f = t.lookup("heat_step").unwrap();
        // The RHS producer is re-emitted inside the stencil tile: a temp
        // alloc + shift view must exist.
        assert!(f.body.find_first(&OpCode::MemAlloc).is_some());
        assert!(f.body.find_first(&OpCode::MemShiftView).is_some());
        // Three wavefront structures: fused stencil+producer, plus the
        // separate update pointwise.
        let wf = f.body.find_all(&OpCode::ExecuteWavefronts);
        assert_eq!(wf.len(), 2);
        // Without fusion: three separate wavefront structures.
        let nofuse = TileOptions {
            fuse: false,
            ..opts
        };
        let t2 = tile_module(&m, &nofuse).unwrap();
        let f2 = t2.lookup("heat_step").unwrap();
        assert_eq!(f2.body.find_all(&OpCode::ExecuteWavefronts).len(), 3);
        assert!(f2.body.find_first(&OpCode::MemShiftView).is_none());
    }

    #[test]
    fn backward_sweep_maps_bounds_through_hi() {
        let m = bufferize_module(&kernels::gauss_seidel_5pt_backward_module()).unwrap();
        let t = tile_module(&m, &opts2d()).unwrap();
        t.verify().unwrap();
        let f = t.lookup("gs5_back").unwrap();
        assert!(f.body.find_first(&OpCode::ExecuteWavefronts).is_some());
    }

    #[test]
    fn tiled_modules_verify() {
        for m in [
            kernels::gauss_seidel_5pt_module(),
            kernels::gauss_seidel_9pt_order2_module(),
            kernels::jacobi_5pt_module(),
        ] {
            let b = bufferize_module(&m).unwrap();
            let t = tile_module(&b, &opts2d()).unwrap();
            t.verify()
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", t.name, t.to_text()));
        }
    }
}
