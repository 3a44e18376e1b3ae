//! The measurement every workload shares: one repetition of a case is
//! the set-up chain (IR build → verify → autotune → compile → bind a
//! `Runner` → first call, at one thread and at `tp` threads) followed by
//! steady sweeps at one thread, jobs, and steady sweeps at `tp` threads.
//! Every call into a layer of the program is timed from outside, through
//! the span log.

use std::collections::BTreeMap;
use std::time::Instant;

use instencil::core::pipeline::{compile, CompiledModule};
use instencil::exec::buffer::BufferView;
use instencil::exec::driver::run_until_converged;
use instencil::exec::stats::ExecStats;
use instencil::exec::Runner;
use instencil::machine::cost::PerPointCosts;
use instencil::machine::{autotune_or_fallback, xeon_6152_dual, RunConfig};
use instencil::obs::Obs;
use instencil_testkit::Rng;

use crate::cases::{all_finite, args, max_abs_err, to_buffers, Case, Kernel, Native, SOR_N};
use crate::host::tp_request;
use crate::spans::SpanLog;
use crate::workloads::{Job, Phases, Until};

/// Largest `|generated − native|` a checked result may show. The
/// generated code re-associates nothing, so the two agree to rounding;
/// `examples/euler_lusgs.rs` holds its three steps to the same bound.
pub const CHECK_TOL: f64 = 1e-10;
/// Convergence tolerance and sweep cap of a `sor_solve_small` solve.
pub const SOLVE_TOL: f64 = 1e-8;
const SOLVE_MAX_SWEEPS: usize = 10_000;
/// Cycles a time-shared repetition splits its phases into.
const CYCLES: usize = 5;

/// Everything measured on one case over all its repetitions. Times are
/// in seconds.
#[derive(Default)]
pub struct Acc {
    /// Per-stage wall of the set-up chain, one sample per repetition,
    /// keyed `layer.stage`.
    pub stage: BTreeMap<&'static str, Vec<f64>>,
    /// IR build → end of the first one-thread call, per repetition.
    pub to_first_sweep: Vec<f64>,
    /// The whole chain, `tp` runner and its first call included.
    pub setup: Vec<f64>,
    pub sweeps_t1: Vec<f64>,
    pub sweeps_tp: Vec<f64>,
    pub jobs: Vec<f64>,
    /// Sweeps each job ran (a solve reports its own count).
    pub job_sweeps: Vec<usize>,
    /// Counters of one call, from `Runner::stats` after the first call.
    pub per_call: Option<ExecStats>,
    /// Threads the `tp` request resolved to (`Runner::threads`).
    pub tp_threads: usize,
    /// Candidates the autotuner scored.
    pub autotune_candidates: usize,
    pub ops_in: usize,
    pub ops_after: usize,
    pub vectorized: usize,
    pub scalar: usize,
    pub engine_fallbacks: u64,
    pub attempted: u64,
    pub failed: u64,
    pub max_err: f64,
    /// Why operations failed, for the printed report.
    pub failures: Vec<String>,
}

impl Acc {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    fn stage(&mut self, key: &'static str, secs: f64) {
        self.stage.entry(key).or_default().push(secs);
    }
}

/// What became of a repetition's compile.
pub enum Outcome {
    Ran,
    /// The pipeline rejected the configuration (message attached); the
    /// case is listed and skipped, not failed.
    Rejected(String),
}

/// Total op count of a module: the IR size metric of the pipeline spans.
pub fn module_ops(module: &instencil::ir::Module) -> usize {
    module.funcs().iter().map(|f| f.body.num_ops()).sum()
}

/// The autotuner's input for a case: the interior domain and the op mix
/// `examples/autotune.rs` assumes before anything is compiled.
pub fn autotune_proto(case: &Case) -> RunConfig {
    let radii = case.kernel.pattern().radii();
    let domain: Vec<usize> = case.shape[1..]
        .iter()
        .zip(radii)
        .map(|(n, r)| n - 2 * r)
        .collect();
    let rank = domain.len();
    let mut proto = RunConfig::new(domain, vec![1; rank], vec![1; rank]);
    proto.nb_var = case.kernel.nb_var();
    proto.costs = PerPointCosts {
        scalar_flops: 2.0,
        vector_flops: 0.8,
        mem_ops: 2.0,
        vector_mem_ops: 0.8,
        control_ops: 2.0,
    };
    proto
}

/// One call as the user makes it: what the kernel wants done to its
/// arrays beforehand, then `Runner::call`.
pub fn step(runner: &mut Runner<'_>, kernel: Kernel, bufs: &[BufferView]) -> Result<(), String> {
    kernel.prepare(bufs);
    runner
        .call(kernel.func(), args(bufs))
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Reads a whole array out. `max_delta_update` is the one single-pass
/// reader `BufferView` has (it refreshes the snapshot it is given);
/// `to_vec` allocates per element and takes a third of a second on the
/// `gs5_stream` arrays.
pub fn read(buf: &BufferView) -> Vec<f64> {
    let mut out = vec![0.0; buf.shape().iter().product()];
    buf.max_delta_update(&mut out);
    out
}

/// A bound runner with the arrays it works on.
struct Pass<'m> {
    runner: Runner<'m>,
    bufs: Vec<BufferView>,
    /// Calls made on `bufs` since they were the seeded inputs.
    since_reset: usize,
    /// Operations whose result no check has vouched for yet.
    unvouched: u64,
}

pub struct Rep<'a> {
    pub case: &'a Case,
    /// Seeded input arrays of the case.
    pub data: &'a [Vec<f64>],
    pub index: usize,
    pub phases: Phases,
    pub job: Job,
    /// The run's `--seconds`, which `Until::Share` is a share of.
    pub seconds: f64,
    /// Draws the right-hand sides of solves.
    pub rng: &'a mut Rng,
}

impl Rep<'_> {
    fn fresh(&self, log: &mut SpanLog) -> Vec<BufferView> {
        log.time("bench", "inputs", || {
            to_buffers(&self.case.shape, self.data)
        })
        .0
    }

    /// Binds a runner at `threads` and makes the first call; on the
    /// first repetition the native solver re-computes the leading calls.
    fn bind<'m>(
        &self,
        compiled: &'m CompiledModule,
        threads: usize,
        log: &mut SpanLog,
        acc: &mut Acc,
    ) -> Option<(Pass<'m>, f64, f64)> {
        let kernel = self.case.kernel;
        let bufs = self.fresh(log);
        let (runner, t_bind) = log.time("exec", "engine_compile", || {
            Runner::with_opts(
                &compiled.module,
                compiled.options.engine,
                threads,
                compiled.options.scheduler,
                Obs::off(),
            )
        });
        acc.attempted += 1;
        let mut runner = match runner {
            Ok(r) => r,
            Err(e) => {
                acc.fail(1, format!("{}: Runner::with_opts: {e}", self.case.name));
                return None;
            }
        };
        if runner.engine() != runner.requested_engine() {
            acc.engine_fallbacks += 1;
            acc.fail(
                1,
                format!(
                    "{}: engine fell back to the interpreter: {}",
                    self.case.name,
                    runner.fallback_reason().unwrap_or("no reason given")
                ),
            );
            return None;
        }
        let (first, t_first) = log.time("exec", "first_call", || step(&mut runner, kernel, &bufs));
        if let Err(e) = first {
            acc.fail(1, format!("{}: first call: {e}", self.case.name));
            return None;
        }
        if threads == 1 && acc.per_call.is_none() {
            acc.per_call = Some(runner.stats());
        }
        if self.index == 0 {
            let calls = self.case.checked_calls;
            acc.attempted += calls as u64 - 1;
            for _ in 1..calls {
                let (r, _) = log.time("exec", "checked_call", || step(&mut runner, kernel, &bufs));
                if let Err(e) = r {
                    acc.fail(1, format!("{}: checked call: {e}", self.case.name));
                    return None;
                }
            }
            let (want, _) = log.time("solvers", "oracle", || {
                let mut native = Native::new(kernel, &self.case.shape, self.data);
                for _ in 0..calls {
                    native.step();
                }
                native.out()
            });
            let err = log
                .time("bench", "check", || {
                    max_abs_err(&read(&bufs[kernel.out()]), &want)
                })
                .0;
            acc.max_err = acc.max_err.max(err);
            if err >= CHECK_TOL {
                acc.fail(
                    calls as u64,
                    format!(
                        "{}: first {calls} call(s) at {threads} thread(s) differ from the native solver by {err:e}",
                        self.case.name
                    ),
                );
            }
        }
        let since_reset = if self.index == 0 {
            self.case.checked_calls
        } else {
            1
        };
        Some((
            Pass {
                runner,
                bufs,
                since_reset,
                unvouched: 1,
            },
            t_bind,
            t_first,
        ))
    }

    /// Checks that the pass's result array is finite. These stencils
    /// spread a non-finite value, they never lose one: a finite array
    /// vouches for every call made on it, so the check runs before the
    /// arrays are replaced and when the repetition ends, not per call.
    fn vouch(&self, pass: &mut Pass<'_>, log: &mut SpanLog, acc: &mut Acc) {
        let finite = log
            .time("bench", "check", || {
                all_finite(&read(&pass.bufs[self.case.kernel.out()]))
            })
            .0;
        if !finite {
            acc.fail(
                pass.unvouched,
                format!(
                    "{}: non-finite values after {} calls",
                    self.case.name, pass.unvouched
                ),
            );
        }
        pass.unvouched = 0;
    }

    /// Returns the arrays to the seeded inputs where the case asks for it
    /// (`k` more calls would pass its `reset_every`).
    fn reset_if_due(&self, k: usize, pass: &mut Pass<'_>, log: &mut SpanLog, acc: &mut Acc) {
        if self
            .case
            .reset_every
            .is_some_and(|every| pass.since_reset + k > every)
        {
            self.vouch(pass, log, acc);
            pass.bufs = self.fresh(log);
            pass.since_reset = 0;
        }
    }

    /// Whether a phase that has run `n` operations for `elapsed` seconds
    /// of this cycle is over.
    fn phase_done(&self, until: Until, cycles: usize, n: usize, elapsed: f64) -> bool {
        match until {
            Until::Count(c) => n >= c,
            Until::Share(s) => n >= 1 && elapsed >= s * self.seconds / cycles as f64,
        }
    }

    /// Steady sweeps on a bound runner; one sample each.
    fn sweeps(
        &self,
        pass: &mut Pass<'_>,
        until: Until,
        cycles: usize,
        log: &mut SpanLog,
        acc: &mut Acc,
    ) -> Vec<f64> {
        let kernel = self.case.kernel;
        let mut samples = Vec::new();
        let phase = Instant::now();
        while !self.phase_done(until, cycles, samples.len(), phase.elapsed().as_secs_f64()) {
            self.reset_if_due(1, pass, log, acc);
            let (r, secs) = log.time("exec", "sweep", || {
                step(&mut pass.runner, kernel, &pass.bufs)
            });
            acc.attempted += 1;
            pass.unvouched += 1;
            pass.since_reset += 1;
            if let Err(e) = r {
                acc.fail(1, format!("{}: sweep: {e}", self.case.name));
                break;
            }
            samples.push(secs);
        }
        samples
    }

    fn jobs(
        &mut self,
        compiled: &CompiledModule,
        pass: &mut Pass<'_>,
        cycles: usize,
        log: &mut SpanLog,
        acc: &mut Acc,
    ) {
        let kernel = self.case.kernel;
        let phase = Instant::now();
        let start = acc.jobs.len();
        while !self.phase_done(
            self.phases.jobs,
            cycles,
            acc.jobs.len() - start,
            phase.elapsed().as_secs_f64(),
        ) {
            acc.attempted += 1;
            let outcome = match self.job {
                Job::Sweeps(k) => {
                    self.reset_if_due(k, pass, log, acc);
                    let chained = kernel != Kernel::EulerLusgs;
                    let (r, secs) = log.time("exec", "job", || {
                        if chained {
                            let call = pass.runner.call_sweeps(kernel.func(), args(&pass.bufs), k);
                            call.map(drop).map_err(|e| e.to_string())
                        } else {
                            (0..k).try_for_each(|_| step(&mut pass.runner, kernel, &pass.bufs))
                        }
                    });
                    pass.unvouched += 1;
                    pass.since_reset += k;
                    r.map(|()| (secs, k))
                }
                Job::Solve => self.solve(compiled, log, acc),
            };
            match outcome {
                Ok((secs, sweeps)) => {
                    acc.jobs.push(secs);
                    acc.job_sweeps.push(sweeps);
                }
                Err(e) => {
                    acc.fail(1, format!("{}: job: {e}", self.case.name));
                    break;
                }
            }
        }
    }

    /// One Poisson solve on a fresh seeded problem: Dirichlet boundary
    /// values and right-hand side drawn from the run's generator, zero
    /// interior. Checked against the native SOR loop run for the same
    /// number of sweeps, which must itself have converged by then.
    fn solve(
        &mut self,
        compiled: &CompiledModule,
        log: &mut SpanLog,
        acc: &mut Acc,
    ) -> Result<(f64, usize), String> {
        let kernel = self.case.kernel;
        let (data, bufs) = log
            .time("bench", "inputs", || {
                let n = SOR_N;
                let u = (0..n * n)
                    .map(|i| {
                        let boundary = i / n == 0 || i / n == n - 1 || i % n == 0 || i % n == n - 1;
                        let v = self.rng.gen_range_f64(0.1, 1.0);
                        if boundary {
                            v
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let data = vec![u, self.rng.f64_vec(n * n, 1e-4, 1e-3)];
                let bufs = to_buffers(&self.case.shape, &data);
                (data, bufs)
            })
            .0;
        let (sweeps, secs) = log.time("exec", "solve", || {
            run_until_converged(
                &compiled.module,
                kernel.func(),
                &bufs,
                0,
                SOLVE_TOL,
                SOLVE_MAX_SWEEPS,
            )
        });
        let sweeps = sweeps.map_err(|e| e.to_string())?;
        if sweeps >= SOLVE_MAX_SWEEPS {
            return Err(format!("no convergence within {SOLVE_MAX_SWEEPS} sweeps"));
        }
        let ((want, last_delta), _) = log.time("solvers", "oracle", || {
            let mut native = Native::new(kernel, &self.case.shape, &data);
            let last = (0..sweeps).fold(f64::INFINITY, |_, _| native.step());
            (native.out(), last)
        });
        let err = log
            .time("bench", "check", || max_abs_err(&read(&bufs[0]), &want))
            .0;
        acc.max_err = acc.max_err.max(err);
        if err >= CHECK_TOL || last_delta >= SOLVE_TOL {
            return Err(format!(
                "solve differs from the native loop by {err:e} after {sweeps} sweeps (native last update {last_delta:e})"
            ));
        }
        Ok((secs, sweeps))
    }

    /// Runs the repetition, adding its samples to `acc`.
    pub fn run(&mut self, log: &mut SpanLog, acc: &mut Acc) -> Outcome {
        let case = self.case;
        let kernel = case.kernel;
        acc.attempted += 1;

        let (module, t_build) = log.time("ir", "build", || kernel.module());
        let (verified, t_verify) = log.time("ir", "verify", || module.verify());
        if let Err(e) = verified {
            acc.fail(1, format!("{}: verify: {e}", case.name));
            return Outcome::Ran;
        }
        let proto = autotune_proto(case);
        let (tuned, t_tune) = log.time("machine", "autotune", || {
            autotune_or_fallback(&xeon_6152_dual(), &kernel.pattern(), &proto, 1)
        });
        let (compiled, t_compile) = log.time("core", "compile", || compile(&module, &case.opts));
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) if self.index == 0 => {
                acc.attempted -= 1;
                return Outcome::Rejected(e.to_string());
            }
            Err(e) => {
                acc.fail(
                    1,
                    format!(
                        "{}: compile failed on repetition {}: {e}",
                        case.name, self.index
                    ),
                );
                return Outcome::Ran;
            }
        };
        acc.autotune_candidates = tuned.evaluated;
        acc.ops_in = module_ops(&module);
        acc.ops_after = module_ops(&compiled.module);
        acc.vectorized = compiled.stats.vectorized;
        acc.scalar = compiled.stats.scalar;

        let Some((mut one, t_bind1, t_first1)) = self.bind(&compiled, 1, log, acc) else {
            return Outcome::Ran;
        };
        let Some((mut many, t_bindp, t_firstp)) = self.bind(&compiled, tp_request(), log, acc)
        else {
            return Outcome::Ran;
        };
        acc.tp_threads = many.runner.threads();
        for (key, secs) in [
            ("ir.build", t_build),
            ("ir.verify", t_verify),
            ("machine.autotune", t_tune),
            ("core.compile", t_compile),
            ("exec.engine_compile", t_bind1),
            ("exec.first_call", t_first1),
        ] {
            acc.stage(key, secs);
        }
        let to_first = t_build + t_verify + t_tune + t_compile + t_bind1 + t_first1;
        acc.to_first_sweep.push(to_first);
        acc.setup.push(to_first + t_bindp + t_firstp);

        // The phases alternate in short cycles, so that each metric
        // samples the whole run and a slow spell of the host lands on all
        // of them alike.
        let cycles = if matches!(self.phases.t1, Until::Share(_)) {
            CYCLES
        } else {
            1
        };
        for _ in 0..cycles {
            let t1 = self.sweeps(&mut one, self.phases.t1, cycles, log, acc);
            acc.sweeps_t1.extend(t1);
            self.jobs(&compiled, &mut one, cycles, log, acc);
            let tp = self.sweeps(&mut many, self.phases.tp, cycles, log, acc);
            acc.sweeps_tp.extend(tp);
        }
        self.vouch(&mut one, log, acc);
        self.vouch(&mut many, log, acc);
        Outcome::Ran
    }
}
