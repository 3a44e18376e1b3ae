//! The longest-path wavefront schedule of paper Eq. (3).
//!
//! Given a `k`-dimensional grid of sub-domains and the sub-domain
//! dependence offsets (all lexicographically negative), the optimal-latency
//! schedule maps each sub-domain `s` to
//!
//! ```text
//! θ(s) = max_{r ∈ deps, s + r valid} θ(s + r) + 1        (θ = 0 otherwise)
//! ```
//!
//! computed in lexicographic order of `s` (dependences point backward, so a
//! single sweep suffices). The complexity is `O(n_blocks × |deps|)`,
//! computed once and reused across all solver iterations (paper §2.3).
//!
//! That sweep is `walk`: the one pass over the block grid that every
//! schedule and every [`BlockGraph`](crate::BlockGraph) is built from.
//! Its levels are handed over as compressed sparse rows, exactly as
//! `cfd.get_parallel_blocks` produces them (§3.4): `rows` delimits the
//! levels, `cols` holds the linearized sub-domain indices of each level.
//! All sub-domains of one level are mutually independent; levels run in
//! order.

use std::sync::Arc;

use crate::offset::Offset;

/// Walks the block grid once in ascending flat (row-major) order and
/// returns θ of every block. For each block `b` and each in-grid
/// `p = b + r`, `r` in `deps` order, it calls `edge(p, b)` and sets
/// `θ[b] = max θ[p] + 1`. Every `r` is lexicographically negative, so
/// `p < b` and flat order is a topological order.
///
/// # Panics
/// Panics if `grid` is empty, any extent is zero, a dependence offset
/// rank differs from the grid rank, or the block count exceeds
/// `u32::MAX`.
pub(crate) fn walk(
    grid: &[usize],
    deps: &[Offset],
    mut edge: impl FnMut(usize, usize),
) -> Vec<u32> {
    assert!(!grid.is_empty(), "grid must have rank >= 1");
    assert!(grid.iter().all(|&n| n > 0), "grid extents must be positive");
    for d in deps {
        assert_eq!(d.len(), grid.len(), "dependence rank mismatch");
    }
    let n: usize = grid.iter().product();
    assert!(n <= u32::MAX as usize, "block count exceeds u32 range");
    // The flat displacement of each offset: an in-grid `b + r` is
    // `b + shift`.
    let shifts: Vec<isize> = deps
        .iter()
        .map(|r| {
            r.iter()
                .zip(grid)
                .fold(0, |acc, (&c, &e)| acc * e as isize + c as isize)
        })
        .collect();
    let mut theta = vec![0u32; n];
    // The coordinates of block `b`, advanced as an odometer.
    let mut coord = vec![0usize; grid.len()];
    for b in 0..n {
        let mut level = 0;
        'dep: for (r, &shift) in deps.iter().zip(&shifts) {
            for ((&c, &r), &e) in coord.iter().zip(r).zip(grid) {
                if !(0..e as i64).contains(&(c as i64 + r)) {
                    continue 'dep;
                }
            }
            let p = b.wrapping_add_signed(shift);
            edge(p, b);
            level = level.max(theta[p] + 1);
        }
        theta[b] = level;
        for (c, &e) in coord.iter_mut().zip(grid).rev() {
            *c += 1;
            if *c < e {
                break;
            }
            *c = 0;
        }
    }
    theta
}

/// A computed wavefront schedule: the Eq. (3) levels in the `i64` CSR
/// form `cfd.get_parallel_blocks` hands to `cfd.execute_wavefronts`.
/// Within a level, blocks are in ascending flat order.
///
/// # Example
/// ```
/// use instencil_pattern::schedule::WavefrontSchedule;
/// // 3x3 grid, Gauss-Seidel-like deps: anti-diagonal wavefronts.
/// let s = WavefrontSchedule::compute(&[3, 3], &[vec![-1, 0], vec![0, -1]]);
/// assert_eq!(s.num_levels(), 5);
/// assert_eq!(s.level(0), &[0]);
/// assert_eq!(s.level(2), &[2, 4, 6]);
/// assert_eq!(s.level(4), &[8]);
/// assert_eq!(s.max_parallelism(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WavefrontSchedule {
    /// Level `l` is `cols[rows[l]..rows[l + 1]]`.
    rows: Arc<Vec<i64>>,
    /// Block flat indices, level-major.
    cols: Arc<Vec<i64>>,
}

impl WavefrontSchedule {
    /// Computes the Eq. (3) schedule.
    ///
    /// # Panics
    /// Panics if `grid` is empty, any extent is zero, a dependence offset
    /// rank differs from the grid rank, or the block count exceeds
    /// `u32::MAX`.
    pub fn compute(grid: &[usize], deps: &[Offset]) -> Self {
        Self::from_theta(&walk(grid, deps, |_, _| {}))
    }

    /// Groups blocks by θ with a counting sort, ascending flat order
    /// within a level.
    pub(crate) fn from_theta(theta: &[u32]) -> Self {
        let num_levels = theta.iter().max().map_or(0, |&m| m as usize + 1);
        let mut rows = vec![0i64; num_levels + 1];
        for &t in theta {
            rows[t as usize + 1] += 1;
        }
        for l in 0..num_levels {
            rows[l + 1] += rows[l];
        }
        let mut fill = rows[..num_levels].to_vec();
        let mut cols = vec![0i64; theta.len()];
        for (b, &t) in theta.iter().enumerate() {
            let slot = &mut fill[t as usize];
            cols[*slot as usize] = b as i64;
            *slot += 1;
        }
        WavefrontSchedule {
            rows: Arc::new(rows),
            cols: Arc::new(cols),
        }
    }

    /// Number of wavefront levels (the schedule latency + 1).
    pub fn num_levels(&self) -> usize {
        self.rows.len() - 1
    }

    /// Total number of scheduled sub-domains.
    pub fn num_blocks(&self) -> usize {
        self.cols.len()
    }

    /// The linearized sub-domain indices of one level.
    ///
    /// # Panics
    /// Panics if `level >= num_levels()`.
    pub fn level(&self, level: usize) -> &[i64] {
        &self.cols[self.rows[level] as usize..self.rows[level + 1] as usize]
    }

    /// Iterates over levels.
    pub fn levels(&self) -> impl Iterator<Item = &[i64]> {
        (0..self.num_levels()).map(|l| self.level(l))
    }

    /// Widest level (the peak amount of parallelism available).
    pub fn max_parallelism(&self) -> usize {
        self.levels().map(<[_]>::len).max().unwrap_or(0)
    }

    /// The CSR row pointer, shared with the engines.
    pub fn rows(&self) -> &Arc<Vec<i64>> {
        &self.rows
    }

    /// The CSR columns (block flat indices), shared with the engines.
    pub fn cols(&self) -> &Arc<Vec<i64>> {
        &self.cols
    }

    /// Returns `self`. Kept only because the benchmark harness
    /// (`benchmark/src/probe.rs`) calls `compute(..).into_wavefronts()`.
    pub fn into_wavefronts(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// θ of every block, recovered from the CSR.
    fn theta(s: &WavefrontSchedule) -> Vec<usize> {
        let mut theta = vec![usize::MAX; s.num_blocks()];
        for (l, level) in s.levels().enumerate() {
            for &b in level {
                theta[b as usize] = l;
            }
        }
        theta
    }

    #[test]
    fn empty_deps_single_level() {
        let s = WavefrontSchedule::compute(&[4, 4], &[]);
        assert_eq!(s.num_levels(), 1);
        assert_eq!(s.level(0).len(), 16);
        assert_eq!(s.max_parallelism(), 16);
    }

    #[test]
    fn diagonal_wavefronts_2d() {
        let s = WavefrontSchedule::compute(&[4, 6], &[vec![-1, 0], vec![0, -1]]);
        assert_eq!(s.num_levels(), 4 + 6 - 1);
        // θ(i, j) = i + j.
        let theta = theta(&s);
        for i in 0..4 {
            for j in 0..6 {
                assert_eq!(theta[i * 6 + j], i + j);
            }
        }
    }

    #[test]
    fn diagonal_dep_only() {
        // Only (-1,-1): blocks in the same row/col are independent.
        let s = WavefrontSchedule::compute(&[3, 3], &[vec![-1, -1]]);
        assert_eq!(s.num_levels(), 3);
        let theta = theta(&s);
        assert_eq!(theta[2], 0);
        assert_eq!(theta[8], 2);
    }

    #[test]
    fn gs9_row_pinned_schedule_is_sequential_rows() {
        // Deps from the 9-point pattern at 1×T tiles include (-1, +1),
        // which serializes consecutive rows into a pipeline with skew.
        let deps = vec![vec![-1, -1], vec![-1, 0], vec![-1, 1], vec![0, -1]];
        let s = WavefrontSchedule::compute(&[4, 8], &deps);
        // With (0,-1) serializing each row, θ grows along every row.
        let theta = theta(&s);
        for i in 0..4 {
            for j in 1..8 {
                assert!(theta[i * 8 + j] > theta[i * 8 + j - 1]);
            }
        }
    }

    #[test]
    fn wavefronts_partition_the_grid() {
        let deps = vec![vec![-1, 0, 0], vec![0, -1, 0], vec![0, 0, -1]];
        let s = WavefrontSchedule::compute(&[3, 4, 5], &deps);
        assert_eq!(s.num_blocks(), 60);
        assert_eq!(s.num_levels(), 3 + 4 + 5 - 2);
        // Every block appears exactly once, ascending within a level.
        let mut seen = [false; 60];
        for level in s.levels() {
            assert!(level.windows(2).all(|w| w[0] < w[1]));
            for &b in level {
                assert!(!seen[b as usize], "block {b} scheduled twice");
                seen[b as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn walk_visits_in_grid_deps_in_order() {
        // 2x3 grid: block 4 = (1, 1) sees all three offsets in the grid,
        // block 3 = (1, 0) loses the two leaving through column 0.
        let deps = vec![vec![0, -1], vec![-1, 1], vec![-1, -1]];
        let mut edges = Vec::new();
        let theta = walk(&[2, 3], &deps, |p, b| edges.push((p, b)));
        let want = [
            (0, 1),
            (1, 2),
            (1, 3),
            (3, 4),
            (2, 4),
            (0, 4),
            (4, 5),
            (1, 5),
        ];
        assert_eq!(edges, want);
        assert_eq!(theta, vec![0, 1, 2, 2, 3, 4]);
    }
}
