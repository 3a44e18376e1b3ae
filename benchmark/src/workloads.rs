//! The five workloads: which kernels, at which size, compiled how, and
//! how a run's seconds are split between set-up repetitions, steady
//! sweeps and jobs. The *why* of each is in `BENCHMARK.json` and the
//! README.

use instencil::core::pipeline::PipelineOptions;

use crate::cases::{Case, Kernel, SOR_N};

pub const NAMES: [&str; 5] = [
    "gs5_stream",
    "lusgs_euler",
    "heat3d_fused",
    "sor_solve_small",
    "cold_compile",
];

/// The unit `solve_ms` times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Job {
    /// `k` sweeps as one job: one `Runner::call_sweeps(k)` where calls
    /// chain without the caller touching the arrays in between, `k`
    /// eager calls where they do not (`euler_step`).
    Sweeps(usize),
    /// One `run_until_converged` Poisson solve on a fresh seeded
    /// right-hand side.
    Solve,
}

/// How long a phase of a repetition runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Until {
    Count(usize),
    /// Share of the run's `--seconds`.
    Share(f64),
}

/// What one repetition does after its set-up chain.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub t1: Until,
    pub jobs: Until,
    pub tp: Until,
}

pub enum Mode {
    /// One case at production size: set-ups for `setup_share` of the
    /// seconds, the last of which goes on to the long steady phases.
    Steady { setup_share: f64, last: Phases },
    /// Many cases at profile scale: rounds over all of them until the
    /// seconds are used, each with the same short phases.
    Rounds { each: Phases },
}

pub struct Workload {
    pub name: &'static str,
    pub cases: Vec<Case>,
    pub job: Job,
    pub mode: Mode,
}

/// Profile-scale `(shape, sub-domain, tile)` of a kernel: the grids of
/// `crates/bench`'s `KernelCase::profile_*` and, for the Euler kernels,
/// the smallest grid with a full vf8 chunk per row.
fn profile(kernel: Kernel) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    match kernel {
        Kernel::Gs5 | Kernel::Sor | Kernel::Jacobi5 => (vec![1, 34, 66], vec![16, 32], vec![8, 32]),
        Kernel::Gs9 => (vec![1, 18, 66], vec![1, 32], vec![1, 32]),
        Kernel::Gs9o2 => (vec![1, 36, 68], vec![16, 32], vec![8, 32]),
        Kernel::Heat3d => (vec![1, 10, 12, 34], vec![4, 6, 16], vec![2, 3, 16]),
        Kernel::EulerLusgs | Kernel::EulerLusgsSweep => {
            (vec![5, 10, 10, 10], vec![4, 4, 8], vec![2, 2, 8])
        }
    }
}

fn steady_case(kernel: Kernel, opts: PipelineOptions, shape: Vec<usize>) -> Case {
    Case {
        name: kernel.name().to_owned(),
        kernel,
        opts,
        shape,
        small: profile(kernel).0,
        reset_every: None,
        checked_calls: 1,
    }
}

fn steady(setup_share: f64, t1: f64, jobs: f64, tp: f64) -> Mode {
    Mode::Steady {
        setup_share,
        last: Phases {
            t1: Until::Share(t1),
            jobs: Until::Share(jobs),
            tp: Until::Share(tp),
        },
    }
}

pub fn build(name: &str) -> Option<Workload> {
    let name = *NAMES.iter().find(|n| **n == name)?;
    Some(match name {
        "gs5_stream" => Workload {
            name,
            // Table 2 geometry for 1–10 threads on the Table 1 grid
            // (2048² interior points).
            cases: vec![steady_case(
                Kernel::Gs5,
                PipelineOptions::new(vec![128, 512], vec![64, 256]).vectorize(Some(8)),
                vec![1, 2050, 2050],
            )],
            job: Job::Sweeps(8),
            mode: steady(0.2, 0.25, 0.3, 0.25),
        },
        "lusgs_euler" => Workload {
            name,
            // The recipe of examples/euler_lusgs.rs on 24³ interior cells.
            cases: vec![Case {
                reset_every: Some(3),
                checked_calls: 3,
                ..steady_case(
                    Kernel::EulerLusgs,
                    PipelineOptions::new(vec![4, 4, 8], vec![2, 2, 8])
                        .fuse(true)
                        .vectorize(Some(8)),
                    vec![5, 26, 26, 26],
                )
            }],
            job: Job::Sweeps(3),
            mode: steady(0.15, 0.3, 0.25, 0.3),
        },
        "heat3d_fused" => Workload {
            name,
            cases: vec![steady_case(
                Kernel::Heat3d,
                PipelineOptions::tr4(vec![8, 26, 64], vec![4, 26, 64]),
                vec![1, 66, 66, 66],
            )],
            job: Job::Sweeps(8),
            mode: steady(0.15, 0.25, 0.35, 0.25),
        },
        "sor_solve_small" => Workload {
            name,
            cases: vec![steady_case(
                Kernel::Sor,
                PipelineOptions::tr2(vec![8, 8], vec![4, 4]),
                vec![1, SOR_N, SOR_N],
            )],
            job: Job::Solve,
            mode: steady(0.1, 0.1, 0.7, 0.1),
        },
        "cold_compile" => Workload {
            name,
            cases: Kernel::ALL
                .into_iter()
                .flat_map(|kernel| {
                    [None, Some(4), Some(8)].into_iter().map(move |vf| {
                        let (shape, sub, tile) = profile(kernel);
                        Case {
                            name: format!(
                                "{}/{}",
                                kernel.name(),
                                vf.map_or("scalar".into(), |v| format!("vf{v}"))
                            ),
                            kernel,
                            opts: PipelineOptions::new(sub, tile).fuse(true).vectorize(vf),
                            small: shape.clone(),
                            shape,
                            reset_every: (kernel == Kernel::EulerLusgs).then_some(3),
                            checked_calls: 1,
                        }
                    })
                })
                .collect(),
            // Few sweeps per compile, so that compiling stays the bulk
            // of a round: two at each thread count and one batch of two.
            job: Job::Sweeps(2),
            mode: Mode::Rounds {
                each: Phases {
                    t1: Until::Count(2),
                    jobs: Until::Count(1),
                    tp: Until::Count(2),
                },
            },
        },
        _ => unreachable!("every name of NAMES is built above"),
    })
}
