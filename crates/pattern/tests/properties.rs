//! Property-based tests for the stencil-pattern domain model.
//!
//! Randomized via the in-tree `instencil-testkit` (the workspace builds
//! offline, without proptest); every case is seeded and reproducible.

use instencil_testkit::{check, check_n, Rng};

use instencil_pattern::blockdeps::{block_dependences, from_block_stencil, to_block_stencil};
use instencil_pattern::offset::{is_lex_negative, lex_compare, negate};
use instencil_pattern::schedule::WavefrontSchedule;
use instencil_pattern::tiling::{clamp_tile_sizes, is_legal_tiling, restricted_dims};
use instencil_pattern::{presets, BlockGraph, ScheduleBundle, StencilPattern};

/// A random valid 2-D pattern in a 3×3 or 5×5 window.
fn arb_pattern_2d(rng: &mut Rng) -> StencilPattern {
    loop {
        let radius = rng.gen_range_usize(1, 3);
        let extent = 2 * radius + 1;
        let n = extent * extent;
        let mut data: Vec<i8> = (0..n).map(|_| rng.gen_range_i64(-1, 2) as i8).collect();
        // Force the center to zero and L entries to be causal by zeroing
        // lexicographically non-negative -1 entries.
        let center = n / 2;
        data[center] = 0;
        for (flat, v) in data.iter_mut().enumerate() {
            if *v == -1 {
                let i = (flat / extent) as i64 - radius as i64;
                let j = (flat % extent) as i64 - radius as i64;
                if !is_lex_negative(&[i, j]) {
                    *v = 0;
                }
            }
        }
        if let Ok(p) = StencilPattern::new(vec![extent, extent], data) {
            return p;
        }
    }
}

fn arb_grid_2d(rng: &mut Rng) -> Vec<usize> {
    (0..2).map(|_| rng.gen_range_usize(1, 7)).collect()
}

/// Every constructed pattern satisfies the causality invariant.
#[test]
fn l_offsets_always_causal() {
    check("l_offsets_always_causal", |rng| {
        let p = arb_pattern_2d(rng);
        for r in p.l_offsets() {
            assert!(is_lex_negative(&r), "L offset {r:?} not causal");
        }
    });
}

/// accessed_offsets is sorted, unique, and contains the center.
#[test]
fn accessed_offsets_sorted_unique() {
    check("accessed_offsets_sorted_unique", |rng| {
        let p = arb_pattern_2d(rng);
        let acc = p.accessed_offsets();
        assert!(acc.contains(&vec![0, 0]));
        for w in acc.windows(2) {
            assert!(lex_compare(&w[0], &w[1]).is_lt());
        }
        assert_eq!(acc.len(), p.l_offsets().len() + p.u_offsets().len() + 1);
    });
}

/// Negation is an involution on offsets.
#[test]
fn negate_involution() {
    check("negate_involution", |rng| {
        let len = rng.gen_range_usize(1, 4);
        let r: Vec<i64> = (0..len).map(|_| rng.gen_range_i64(-3, 4)).collect();
        assert_eq!(negate(&negate(&r)), r);
    });
}

/// Clamped tile sizes are always legal.
#[test]
fn clamped_tiles_are_legal() {
    check("clamped_tiles_are_legal", |rng| {
        let p = arb_pattern_2d(rng);
        let t0 = rng.gen_range_usize(1, 64);
        let t1 = rng.gen_range_usize(1, 64);
        let tiles = clamp_tile_sizes(&p, &[t0, t1], &[512, 512]);
        assert!(is_legal_tiling(&p, &tiles), "clamped {tiles:?} illegal for {p:?}");
    });
}

/// Restricted dimensions really are necessary: pinning every restricted
/// dim to tile size 1 always yields a legal tiling.
#[test]
fn restriction_is_sound() {
    check("restriction_is_sound", |rng| {
        let p = arb_pattern_2d(rng);
        let restricted = restricted_dims(&p);
        let mut tiles = vec![8usize; p.rank()];
        for (d, &r) in restricted.iter().enumerate() {
            if r {
                tiles[d] = 1;
            }
        }
        assert!(is_legal_tiling(&p, &tiles));
    });
}

/// The in-grid `flat + r`, `r` in `deps` order: the dependence edges
/// into `flat`, decoded independently of the crate.
fn preds_of(flat: usize, grid: &[usize], deps: &[Vec<i64>]) -> Vec<usize> {
    let mut coord = vec![0i64; grid.len()];
    let mut rem = flat;
    for d in (0..grid.len()).rev() {
        coord[d] = (rem % grid[d]) as i64;
        rem /= grid[d];
    }
    let mut preds = Vec::new();
    'dep: for r in deps {
        let mut src = 0usize;
        for d in 0..grid.len() {
            let c = coord[d] + r[d];
            if c < 0 || c >= grid[d] as i64 {
                continue 'dep;
            }
            src = src * grid[d] + c as usize;
        }
        preds.push(src);
    }
    preds
}

/// Independent longest-dependence-path oracle: memoized top-down search
/// over the dependence DAG (`compute` uses a bottom-up lexicographic
/// sweep instead, so agreement is a genuine cross-check).
fn longest_path(
    flat: usize,
    grid: &[usize],
    deps: &[Vec<i64>],
    memo: &mut Vec<Option<usize>>,
) -> usize {
    if let Some(v) = memo[flat] {
        return v;
    }
    let best = preds_of(flat, grid, deps)
        .into_iter()
        .map(|p| longest_path(p, grid, deps, memo) + 1)
        .max()
        .unwrap_or(0);
    memo[flat] = Some(best);
    best
}

/// θ of every block, recovered from the CSR rows (block → level index).
/// Asserts the partition: every block scheduled exactly once.
fn theta_of(s: &WavefrontSchedule, n: usize) -> Vec<usize> {
    let mut theta = vec![usize::MAX; n];
    for (lvl, row) in s.levels().enumerate() {
        for &b in row {
            assert_eq!(theta[b as usize], usize::MAX, "block {b} scheduled twice");
            theta[b as usize] = lvl;
        }
    }
    assert!(
        theta.iter().all(|&t| t != usize::MAX),
        "some block never scheduled"
    );
    theta
}

/// A random grid of rank 1–3 with 1–4 distinct lex-negative offsets in
/// `{-1, 0, 1}^rank` (not derived from a stencil pattern).
fn arb_grid_and_deps(rng: &mut Rng) -> (Vec<usize>, Vec<Vec<i64>>) {
    let rank = rng.gen_range_usize(1, 4);
    let grid: Vec<usize> = (0..rank).map(|_| rng.gen_range_usize(1, 7)).collect();
    let want = rng.gen_range_usize(1, 5);
    let mut deps: Vec<Vec<i64>> = Vec::new();
    let mut attempts = 0;
    while deps.len() < want && attempts < 200 {
        attempts += 1;
        let r: Vec<i64> = (0..rank).map(|_| rng.gen_range_i64(-1, 2)).collect();
        if is_lex_negative(&r) && !deps.contains(&r) {
            deps.push(r);
        }
    }
    (grid, deps)
}

/// The Eq. (3) schedule partitions the grid, and every block's level is
/// its longest dependence path.
#[test]
fn schedule_valid_and_complete() {
    check("schedule_valid_and_complete", |rng| {
        let p = arb_pattern_2d(rng);
        let grid = arb_grid_2d(rng);
        let restricted = restricted_dims(&p);
        let tiles: Vec<usize> = restricted.iter().map(|&r| if r { 1 } else { 4 }).collect();
        let deps = block_dependences(&p, &tiles).unwrap();
        let n = grid.iter().product::<usize>();
        let theta = theta_of(&WavefrontSchedule::compute(&grid, &deps), n);
        let mut memo = vec![None; n];
        for (b, &t) in theta.iter().enumerate() {
            assert_eq!(t, longest_path(b, &grid, &deps, &mut memo), "block {b}");
        }
    });
}

/// Eq. (3) on *random grids and random lex-negative dependence sets*:
/// (i) θ is valid — every dependence that stays inside the grid crosses
/// strictly increasing levels, checked directly from the CSR encoding;
/// (ii) the level count equals `1 + longest dependence path`, computed by
/// the independent oracle above (the schedule is latency-optimal, not
/// merely legal).
#[test]
fn schedule_random_deps_valid_and_latency_optimal() {
    check_n("schedule_random_deps_valid_and_latency_optimal", 128, |rng| {
        let (grid, deps) = arb_grid_and_deps(rng);
        let n: usize = grid.iter().product();
        let s = WavefrontSchedule::compute(&grid, &deps);
        let theta = theta_of(&s, n);

        // (i) Every in-grid dependence crosses strictly increasing levels.
        for flat in 0..n {
            for src in preds_of(flat, &grid, &deps) {
                assert!(
                    theta[src] < theta[flat],
                    "deps {deps:?}: θ({src}) = {} !< θ({flat}) = {} on grid {grid:?}",
                    theta[src],
                    theta[flat]
                );
            }
        }

        // (ii) Latency optimality: level count = 1 + longest path.
        let mut memo = vec![None; n];
        let longest = (0..n)
            .map(|flat| longest_path(flat, &grid, &deps, &mut memo))
            .max()
            .unwrap();
        assert_eq!(
            s.num_levels(),
            longest + 1,
            "grid {grid:?} deps {deps:?}: schedule is not latency-optimal"
        );
    });
}

/// `ScheduleBundle::new` takes its levels and its graph from one walk of
/// the grid: the levels equal `WavefrontSchedule::compute`, the graph's
/// lists equal `BlockGraph::build` and the decoded edges (predecessors in
/// `deps` order, successors ascending), and every edge crosses strictly
/// increasing θ.
#[test]
fn bundle_levels_and_graph_match_the_separate_builds() {
    check_n("bundle_levels_and_graph_match_the_separate_builds", 128, |rng| {
        let (grid, deps) = arb_grid_and_deps(rng);
        let n: usize = grid.iter().product();
        let bundle = ScheduleBundle::new(&grid, &deps);
        let label = format!("grid {grid:?} deps {deps:?}");
        assert_eq!(bundle.wavefronts, WavefrontSchedule::compute(&grid, &deps), "{label}");
        let graph = BlockGraph::build(&grid, &deps);
        let theta = theta_of(&bundle.wavefronts, n);
        let mut succ = vec![Vec::new(); n];
        for b in 0..n {
            let preds = preds_of(b, &grid, &deps);
            for &p in &preds {
                succ[p].push(b as u32);
                assert!(theta[p] < theta[b], "{label}: edge {p} -> {b}");
            }
            let preds: Vec<u32> = preds.into_iter().map(|p| p as u32).collect();
            assert_eq!(bundle.graph.predecessors(b), preds.as_slice(), "{label}: pred({b})");
            assert_eq!(graph.predecessors(b), preds.as_slice(), "{label}: pred({b})");
        }
        for (b, want) in succ.iter().enumerate() {
            assert_eq!(bundle.graph.successors(b), want.as_slice(), "{label}: succ({b})");
            assert_eq!(graph.successors(b), want.as_slice(), "{label}: succ({b})");
        }
    });
}

/// Block-stencil attribute encoding round-trips when offsets fit in the
/// 3^k window.
#[test]
fn block_stencil_roundtrip() {
    check("block_stencil_roundtrip", |rng| {
        let p = arb_pattern_2d(rng);
        let restricted = restricted_dims(&p);
        // Tiles >= radius so every dependence reaches at most one block.
        let tiles: Vec<usize> = restricted.iter().map(|&r| if r { 1 } else { 8 }).collect();
        let deps = block_dependences(&p, &tiles).unwrap();
        if deps.iter().all(|b| b.iter().all(|&x| (-1..=1).contains(&x))) {
            let (shape, data) = to_block_stencil(p.rank(), &deps);
            assert_eq!(from_block_stencil(&shape, &data), deps);
        }
    });
}

/// Schedule latency is monotone in grid size for fixed GS deps.
#[test]
fn latency_monotone() {
    check("latency_monotone", |rng| {
        let n = rng.gen_range_usize(1, 8);
        let m = rng.gen_range_usize(1, 8);
        let deps = vec![vec![-1, 0], vec![0, -1]];
        let s1 = WavefrontSchedule::compute(&[n, m], &deps);
        let s2 = WavefrontSchedule::compute(&[n + 1, m], &deps);
        assert!(s2.num_levels() >= s1.num_levels());
    });
}

/// Deterministic regression cases alongside the properties.
#[test]
fn paper_table2_tile_restrictions() {
    // Table 2: the 9-point kernel is the only one with a pinned dimension.
    assert_eq!(
        restricted_dims(&presets::gauss_seidel_5pt()),
        vec![false, false]
    );
    assert_eq!(
        restricted_dims(&presets::gauss_seidel_9pt()),
        vec![true, false]
    );
    assert_eq!(
        restricted_dims(&presets::gauss_seidel_9pt_order2()),
        vec![false, false]
    );
    assert_eq!(
        restricted_dims(&presets::heat3d_gauss_seidel()),
        vec![false, false, false]
    );
}

#[test]
fn reversed_schedule_symmetry() {
    // The backward sweep of a symmetric pattern yields the same wavefront
    // structure on the mirrored grid.
    let p = presets::heat3d_gauss_seidel();
    let r = p.reversed().unwrap();
    let tiles = [4usize, 4, 4];
    let d1 = block_dependences(&p, &tiles).unwrap();
    let d2 = block_dependences(&r, &tiles).unwrap();
    assert_eq!(
        d1, d2,
        "symmetric pattern has identical block deps after reversal"
    );
    let s1 = WavefrontSchedule::compute(&[3, 3, 3], &d1);
    let s2 = WavefrontSchedule::compute(&[3, 3, 3], &d2);
    assert_eq!(s1.num_levels(), s2.num_levels());
}
