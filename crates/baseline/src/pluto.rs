//! The Pluto baseline (§4.1): general-purpose polyhedral parallelization
//! of in-place stencils with skewed wavefronts and parallelogram tiles.
//!
//! Two configurations match the paper:
//!
//! * **C+Pluto 1** — `#pragma scop` around the *whole* kernel including
//!   the time loop: wavefronts skew across iterations, tiles are
//!   parallelograms aligned with the skew. Good locality across sweeps
//!   (time tiling) but heavy control flow, partial tiles and no effective
//!   vectorization of the in-place stencil.
//! * **C+Pluto 2** — scop around the spatial loops only: per-sweep
//!   wavefronts (like the MLIR generator) but still parallelogram tiles;
//!   crucially, Pluto is *not* subject to the rectangular §2.1 pinning
//!   restriction, which is why it can tile the 9-point kernel in both
//!   dimensions.
//!
//! The cost-model configurations are derived from *measured* scalar op
//! mixes of the same kernels; the functional component below demonstrates
//! the legality of wavefront-ordered tile execution (the transformation
//! Pluto applies) against the sequential sweep.

use instencil_machine::cost::{PerPointCosts, RunConfig};
use instencil_machine::topology::Machine;
use instencil_pattern::tiling::tile_footprint_bytes;
use instencil_pattern::StencilPattern;
use instencil_solvers::array::Field;

/// Which `#pragma scop` placement (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlutoVariant {
    /// Whole kernel (time loop included): skewed time-space tiles.
    One,
    /// Spatial loops only: per-sweep wavefronts.
    Two,
}

/// Converts a (possibly vectorized) op mix into the scalar mix Pluto's
/// generated code executes: auto-vectorizers fail on the in-place
/// dependences (§2.4), so every vector op becomes `vf` scalar ops.
pub fn scalarized(costs: &PerPointCosts, vf: usize) -> PerPointCosts {
    PerPointCosts {
        scalar_flops: costs.scalar_flops + costs.vector_flops * vf as f64,
        vector_flops: 0.0,
        mem_ops: costs.mem_ops + costs.vector_mem_ops * vf as f64,
        vector_mem_ops: 0.0,
        control_ops: costs.control_ops,
    }
}

/// Builds the Pluto run configuration from a prototype (domain, measured
/// op mix, streams) and the chosen rectangular-equivalent tile sizes.
///
/// Differences to the MLIR generator encoded here:
/// * scalar execution of the in-place stencil (no partial vectorization);
/// * the parallelogram-tile overhead (`Machine::partial_tile_overhead`)
///   for boundary/partial tiles and skew indexing;
/// * variant One: time tiling improves locality (fewer effective global
///   streams per sweep) but adds skew control flow and pipeline
///   startup (extra wavefront levels ∝ skew), modeled with additional
///   control ops and barriers;
/// * no §2.1 pinning: tiles may be rectangular in both dimensions (the
///   skewed shape legalizes them), so `deps` only carry the standard
///   lexicographic wavefront structure.
pub fn pluto_run_config(
    m: &Machine,
    variant: PlutoVariant,
    proto: &RunConfig,
    pattern: &StencilPattern,
    tile: &[usize],
    threads: usize,
    vf: usize,
) -> RunConfig {
    let mut cfg = proto.clone();
    cfg.threads = threads;
    cfg.tile = tile.to_vec();
    // Pluto parallelizes at tile granularity: sub-domains are the tiles.
    cfg.subdomain = tile.to_vec();
    // Auto-vectorizers fail only on the in-place dependences; Jacobi-style
    // out-of-place kernels vectorize fine under Pluto (§4.1).
    cfg.costs = if pattern.is_in_place() {
        scalarized(&proto.costs, vf)
    } else {
        proto.costs
    };
    cfg.tile_overhead = m.partial_tile_overhead;
    // The skewed tile shape satisfies all dependences with plain
    // anti-diagonal wavefronts regardless of the rectangular restriction.
    let k = pattern.rank();
    cfg.deps = (0..k)
        .map(|d| {
            let mut o = vec![0i64; k];
            o[d] = -1;
            o
        })
        .collect();
    if pattern.is_in_place() {
        // Diagonal dependence of the skewed space.
        cfg.deps.push(vec![-1; k]);
    } else {
        cfg.deps.clear(); // Jacobi: fully parallel tiles
    }
    match variant {
        PlutoVariant::One => {
            // Time tiling: partial reuse across sweeps reduces per-sweep
            // global traffic (about half a stream saved on the skewed
            // time-tile height), at the price of skew control flow.
            cfg.streams = (proto.streams - 0.5).max(1.0);
            cfg.costs.control_ops += 6.0;
            cfg.extra_barriers += 2.0;
        }
        PlutoVariant::Two => {
            cfg.costs.control_ops += 2.0;
        }
    }
    cfg
}

/// Autotunes Pluto tile sizes: square-ish powers of two bounded by the
/// L2 capacity rule, *without* the rectangular pinning restriction
/// (Table 3 shapes: 16×16 / 32×32-class tiles).
pub fn pluto_autotune(
    m: &Machine,
    variant: PlutoVariant,
    proto: &RunConfig,
    pattern: &StencilPattern,
    threads: usize,
    vf: usize,
) -> (Vec<usize>, f64) {
    let k = pattern.rank();
    let mut best: Option<(Vec<usize>, f64)> = None;
    let sizes: &[usize] = &[4, 8, 16, 32, 64, 128, 256];
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..k {
        let mut next = Vec::new();
        for prefix in &stack {
            for &s in sizes {
                let mut p = prefix.clone();
                p.push(s);
                next.push(p);
            }
        }
        stack = next;
    }
    for tile in stack {
        if tile.iter().zip(&proto.domain).any(|(&t, &n)| t > n) {
            continue;
        }
        // Pluto-1 time tiles keep several sweeps live: charge the time
        // height against the capacity budget.
        let live = match variant {
            PlutoVariant::One => proto.live_tensors + 1,
            PlutoVariant::Two => proto.live_tensors,
        };
        if tile_footprint_bytes(&tile, proto.nb_var, live, 8) > m.l2_bytes {
            continue;
        }
        let grid: usize = proto
            .domain
            .iter()
            .zip(&tile)
            .map(|(&n, &t)| n.div_ceil(t))
            .product();
        if grid < threads || grid > 65_536 {
            continue;
        }
        let cfg = pluto_run_config(m, variant, proto, pattern, &tile, threads, vf);
        let t = instencil_machine::cost::estimate_sweep(m, &cfg).total_s;
        if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
            best = Some((tile, t));
        }
    }
    best.expect("at least one Pluto tile candidate")
}

/// Functional check of the transformation Pluto applies: executing the
/// 5-point Gauss-Seidel *tile by tile in anti-diagonal wavefront order*
/// is equivalent to the plain lexicographic sweep. Returns the swept
/// field.
pub fn gs5_wavefront_tiled_sweep(w: &mut Field, b: &Field, tile: usize) {
    let (n1, n2) = (w.dim(1) as i64, w.dim(2) as i64);
    let t = tile.max(1) as i64;
    let nb1 = (n1 - 2 + t - 1) / t;
    let nb2 = (n2 - 2 + t - 1) / t;
    let deps = vec![vec![-1i64, 0], vec![0, -1]];
    let schedule =
        instencil_pattern::WavefrontSchedule::compute(&[nb1 as usize, nb2 as usize], &deps);
    for level in schedule.levels() {
        for &flat in level {
            let (bi, bj) = (flat / nb2, flat % nb2);
            let ilo = 1 + bi * t;
            let ihi = (ilo + t).min(n1 - 1);
            let jlo = 1 + bj * t;
            let jhi = (jlo + t).min(n2 - 1);
            for i in ilo..ihi {
                for j in jlo..jhi {
                    let s = w.at(&[0, i - 1, j])
                        + w.at(&[0, i, j - 1])
                        + w.at(&[0, i, j])
                        + w.at(&[0, i, j + 1])
                        + w.at(&[0, i + 1, j]);
                    *w.at_mut(&[0, i, j]) = (s + b.at(&[0, i, j])) / 5.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instencil_machine::topology::xeon_6152_dual;
    use instencil_pattern::presets;
    use instencil_solvers::gauss_seidel::gs5_sweep;

    fn proto() -> RunConfig {
        let mut cfg = RunConfig::new(vec![2000, 2000], vec![64, 64], vec![64, 64]);
        cfg.costs = PerPointCosts {
            scalar_flops: 2.0,
            vector_flops: 0.5,
            mem_ops: 2.0,
            vector_mem_ops: 0.6,
            ..Default::default()
        };
        cfg
    }

    #[test]
    fn scalarization_expands_vectors() {
        let s = scalarized(&proto().costs, 8);
        assert_eq!(s.vector_flops, 0.0);
        assert_eq!(s.scalar_flops, 2.0 + 0.5 * 8.0);
        assert_eq!(s.mem_ops, 2.0 + 0.6 * 8.0);
    }

    #[test]
    fn pluto_is_slower_single_threaded_than_vectorized_mlir() {
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_5pt();
        let mlir = proto();
        let pluto = pluto_run_config(&m, PlutoVariant::Two, &proto(), &p, &[16, 16], 1, 8);
        let tm = instencil_machine::cost::estimate_sweep(&m, &mlir).total_s;
        let tp = instencil_machine::cost::estimate_sweep(&m, &pluto).total_s;
        assert!(tp > 1.5 * tm, "pluto {tp} vs mlir {tm}");
    }

    #[test]
    fn pluto_autotune_produces_square_tiles() {
        let m = xeon_6152_dual();
        let p = presets::gauss_seidel_9pt();
        let (tile, _) = pluto_autotune(&m, PlutoVariant::Two, &proto(), &p, 10, 8);
        // No pinning: both extents free (the Table 3 shapes are 16–32).
        assert!(
            tile[0] > 1,
            "Pluto is free of the rectangular restriction: {tile:?}"
        );
    }

    #[test]
    fn wavefront_tiled_sweep_equals_sequential() {
        let n = 21;
        let mk = || {
            Field::from_fn(&[1, n, n], |idx| {
                ((idx[1] * 31 + idx[2] * 17) % 11) as f64 * 0.1
            })
        };
        let b = Field::from_fn(&[1, n, n], |idx| ((idx[1] + idx[2]) % 7) as f64 * 0.01);
        let mut seq = mk();
        gs5_sweep(&mut seq, &b);
        for tile in [1usize, 3, 4, 8] {
            let mut wf = mk();
            gs5_wavefront_tiled_sweep(&mut wf, &b, tile);
            assert!(
                seq.max_abs_diff(&wf) < 1e-14,
                "tile {tile}: wavefront order must preserve semantics"
            );
        }
    }

    #[test]
    fn jacobi_tiles_are_fully_parallel() {
        let m = xeon_6152_dual();
        let p = presets::jacobi_5pt();
        let cfg = pluto_run_config(&m, PlutoVariant::Two, &proto(), &p, &[16, 16], 8, 8);
        assert!(cfg.deps.is_empty());
    }
}
