//! Sample statistics of the benchmark: medians and quartiles, the tail
//! percentile rule, the geometric mean and the `n/a` rule for metrics
//! that do not exist on the host.

/// Median of `v` (`None` when empty).
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(v, n=4)` computes them (its default "exclusive"
/// method), so spreads printed here are the ones the driver computes.
/// `None` below two samples, like the Python function.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn iqr_frac(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let med = median(v)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// The percentiles a tail may be quoted at, in tenths of a percent
/// (integers, so the sample index is exact).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The tail of a timing distribution: the highest percentile of the
/// ladder that still has at least ten samples beyond it, and the sample
/// at that percentile. `None` when even the median has fewer than ten
/// samples above it (fewer than 20 samples).
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&pct| {
        // Index of the sample at the percentile: the smallest sample
        // with at least that share of all samples at or below it.
        let k = (n * pct).div_ceil(1000).max(1) - 1;
        (n >= 20 && n - 1 - k >= 10).then(|| (pct as f64 / 10.0, s[k]))
    })
}

/// Geometric mean (`None` when empty or when a value is not positive).
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() || v.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// The multi-thread pair `(per-point time at tp, scaling efficiency)`.
/// `None` — printed as `n/a`, never as a copy of the one-thread number —
/// when the `tp` request resolved to a single thread: then there is no
/// second measurement to speak of.
pub fn scaling(t1: f64, tp: f64, tp_threads: usize) -> Option<(f64, f64)> {
    (tp_threads > 1).then(|| (tp, t1 / (tp_threads as f64 * tp)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_frac(&v), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(19)), None, "p50 of 19 has only 9 beyond");
        assert_eq!(tail(&v(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&v(40)), Some((75.0, 30.0)));
        // 100 samples: p90 is sample 90, samples 91..100 lie beyond.
        assert_eq!(tail(&v(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&v(199)), Some((90.0, 180.0)));
        assert_eq!(tail(&v(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&v(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn geomean_is_the_nth_root_of_the_product() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn one_resolved_thread_gives_na_not_a_copy() {
        assert_eq!(scaling(10.0, 10.0, 1), None);
        assert_eq!(scaling(10.0, 6.25, 2), Some((6.25, 0.8)));
    }
}
