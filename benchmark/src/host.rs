//! What the host is and what it can do: the stamp written next to every
//! result, and the in-run probes (STREAM-style triad, multiply-add peak,
//! timer cost) that turn ns/point into a share of the roofline.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

use instencil::obs::Json;

use crate::stats::median;

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The multi-thread request of every workload: `min(nproc, 4)`, never
/// more threads than the host has.
pub fn tp_request() -> usize {
    nproc().min(4)
}

/// Data and unified caches of cpu0 as sysfs reports them:
/// `(level, type, bytes)`. Empty when sysfs has no cache directory.
fn caches() -> Vec<(u32, String, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_owned());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().map(|k| k * 1024),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().map(|m| m * 1024 * 1024),
                None => size.parse::<u64>(),
            },
        };
        if let (Ok(level), Ok(bytes)) = (level.parse(), bytes) {
            if kind != "Instruction" {
                out.push((level, kind, bytes));
            }
        }
    }
    out
}

/// The host block of a result file. `commit` comes from the environment
/// (`run.sh` asks git; a checkout that is not a repository says
/// `unknown`).
pub fn host_json() -> Json {
    let caches = caches()
        .into_iter()
        .map(|(level, kind, bytes)| {
            Json::Obj(vec![
                ("level".into(), Json::Num(f64::from(level))),
                ("type".into(), Json::Str(kind)),
                ("bytes".into(), Json::Num(bytes as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("caches_cpu0".into(), Json::Arr(caches)),
        (
            "commit".into(),
            Json::Str(std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "profile".into(),
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A probed rate: the medians of the first and of the second half of
/// its repetitions. The halves are the probe's own consistency check.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub first: f64,
    pub second: f64,
}

impl Probe {
    /// The rate to divide by: the mean of the halves when they agree
    /// within 10 %, `None` when they do not — then a roofline share
    /// would rest on a peak the host did not hold for one probe.
    pub fn trusted(&self) -> Option<f64> {
        let (lo, hi) = (self.first.min(self.second), self.first.max(self.second));
        (lo > 0.0 && hi / lo <= 1.10).then(|| (self.first + self.second) / 2.0)
    }

    /// The mean of the halves, trusted or not (printed as a stamp).
    pub fn mean(&self) -> f64 {
        (self.first + self.second) / 2.0
    }
}

fn halves(rates: &[f64]) -> Probe {
    let (a, b) = rates.split_at(rates.len() / 2);
    Probe {
        first: median(a).unwrap_or(0.0),
        second: median(b).unwrap_or(0.0),
    }
}

/// Number of `f64` in each array of the `gs5_stream` workload, the size
/// the triad streams at.
pub const STREAM_LEN: usize = 2050 * 2050;

/// STREAM-style triad `a = b + s·c` on one thread over three arrays of
/// `len` doubles, in GB/s counting 24 bytes per element (two reads, one
/// write; write-allocate traffic not counted, as STREAM does).
pub fn triad_gbs(len: usize) -> Probe {
    const REPS: usize = 10;
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut s = 3.0;
    let mut rates = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(&mut a);
        s += 1.0;
        // Repetition 0 faults the pages in.
        if rep > 0 {
            rates.push(24.0 * len as f64 / secs / 1e9);
        }
    }
    halves(&rates)
}

/// Multiply-add peak of one thread in GFLOP/s: independent `x·m + a`
/// chains over registers, as the same compiler flags build them (no
/// fused instruction unless the target has one), two flops per element
/// step.
pub fn fma_gflops() -> Probe {
    const LANES: usize = 32;
    const STEPS: usize = 2_000_000;
    const REPS: usize = 10;
    let mut rates = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut x = [1.0f64; LANES];
        let m = black_box(0.999_999_9 + rep as f64 * 1e-9);
        let a = black_box(1e-7);
        let t0 = Instant::now();
        for _ in 0..STEPS {
            for v in &mut x {
                *v = *v * m + a;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(x);
        rates.push(2.0 * (LANES * STEPS) as f64 / secs / 1e9);
    }
    halves(&rates)
}

/// Cost of one `Instant::now()` pair in nanoseconds (what every timed
/// sample carries on top of the work).
pub fn timer_ns() -> f64 {
    const N: usize = 100_000;
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t0.elapsed().as_secs_f64() * 1e9 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_halves_must_agree_within_ten_percent() {
        assert_eq!(
            Probe {
                first: 10.0,
                second: 10.5
            }
            .trusted(),
            Some(10.25)
        );
        assert_eq!(
            Probe {
                first: 10.0,
                second: 11.5
            }
            .trusted(),
            None
        );
        assert_eq!(
            Probe {
                first: 0.0,
                second: 0.0
            }
            .trusted(),
            None
        );
    }

    #[test]
    fn probes_measure_something() {
        assert!(triad_gbs(1 << 16).mean() > 0.0);
        assert!(timer_ns() > 0.0);
        assert!(tp_request() >= 1 && tp_request() <= 4);
    }
}
