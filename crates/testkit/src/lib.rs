//! `instencil-testkit` — zero-dependency randomness and property-testing
//! helpers.
//!
//! The workspace is built and tested in fully offline environments (see
//! `ci.sh`), so the test suite cannot rely on crates.io dependencies such
//! as `rand` or `proptest`. This crate provides the small subset the
//! suite actually needs:
//!
//! * [`Rng`] — a fast, deterministic SplitMix64 generator with uniform
//!   range sampling;
//! * [`check`] — a minimal property-test runner: runs a closure over a
//!   configurable number of seeded cases and reports the failing seed so
//!   a failure reproduces deterministically.

/// Deterministic SplitMix64 pseudo-random generator.
///
/// Streams are fully determined by the seed; the same seed always yields
/// the same sequence on every platform (no platform-dependent state).
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit output (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits → uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo >= hi`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.gen_f64() * (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo >= hi`.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo >= hi`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Fair coin flip.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector of `len` uniform `f64` values in `[lo, hi)`.
    pub fn f64_vec(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.gen_range_f64(lo, hi)).collect()
    }
}

/// Default number of cases [`check`] runs per property.
pub const DEFAULT_CASES: usize = 64;

/// Minimal property-test runner: executes `prop` for `cases` seeded
/// generators. Panics (with the failing case index, which doubles as the
/// reproduction seed offset) when the property panics.
pub fn check_n(name: &str, cases: usize, mut prop: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        // Decorrelate consecutive case streams.
        let mut rng = Rng::seed_from_u64(0xC0FF_EE00 + case as u64 * 0x9E37_79B9);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut rng)));
        if let Err(e) = result {
            let msg = e
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property `{name}` failed at case {case}/{cases}: {msg}");
        }
    }
}

/// [`check_n`] with [`DEFAULT_CASES`] cases.
pub fn check(name: &str, prop: impl FnMut(&mut Rng)) {
    check_n(name, DEFAULT_CASES, prop);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = rng.gen_range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            let u = rng.gen_range_usize(5, 9);
            assert!((5..9).contains(&u));
            let i = rng.gen_range_i64(-4, 4);
            assert!((-4..4).contains(&i));
        }
    }

    #[test]
    fn unit_interval_has_spread() {
        let mut rng = Rng::seed_from_u64(3);
        let xs: Vec<f64> = (0..1000).map(|_| rng.gen_f64()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn check_reports_failing_case() {
        let r = std::panic::catch_unwind(|| {
            check_n("always-fails", 3, |_| panic!("boom"));
        });
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("always-fails"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn check_passes_quietly() {
        check("tautology", |rng| {
            let x = rng.gen_range_f64(0.0, 1.0);
            assert!((0.0..1.0).contains(&x));
        });
    }
}
