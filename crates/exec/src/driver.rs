//! Convenience driver for iterative kernels.
//!
//! Kernels compiled by `instencil-core` perform one sweep per call and
//! mutate their argument buffers in place; [`Runner`] binds a module to
//! one of the two engines (with a wavefront worker count and a
//! [`Scheduler`] for the bytecode engine's pool), and drives
//! the iteration loop (the granularity at which the paper synchronizes
//! between Gauss-Seidel iterations). [`run_sweeps`] is a short loop over
//! it; to honor the knobs of a module's [`PipelineOptions`], pass them to
//! [`Runner::with_opts`].
//!
//! # Engine selection
//!
//! Every helper here executes through [`Runner`], which compiles the
//! module to bytecode once up front ([`Engine::Bytecode`], the default)
//! and replays the tapes each sweep. Modules outside the lowered subset
//! — reference modules with structured `cfd` ops — make bytecode
//! compilation report [`BcCompileError::Unsupported`], and the runner
//! falls back to the tree-walking [`Interpreter`]; both engines are
//! bit-identical in results and statistics, so the fallback is
//! observable as wall-clock time and — when a collector is attached via
//! [`Runner::with_obs`] — as an `engine-fallback` event surfaced in the
//! [`RunReport`] together with the compile/execute time split.
//!
//! [`PipelineOptions`]: instencil_core::pipeline::PipelineOptions

use instencil_core::pipeline::Engine;
use instencil_ir::Module;
use instencil_obs::{Obs, RunReport};
use instencil_pattern::dataflow::Scheduler;

use crate::buffer::BufferView;
use crate::bytecode::BytecodeEngine;
use crate::compile::BcCompileError;
use crate::interp::{ExecError, Interpreter};
use crate::stats::ExecStats;
use crate::value::RtVal;

/// Stable engine name used in run reports.
fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Interp => "interp",
        Engine::Bytecode => "bytecode",
    }
}

/// The engine actually bound by a [`Runner`].
#[derive(Debug)]
enum RunnerInner<'m> {
    /// Tree-walking reference interpreter.
    Interp {
        /// The module under execution.
        module: &'m Module,
        /// The interpreter instance (owns accumulated statistics).
        interp: Interpreter,
    },
    /// Compiled bytecode tapes.
    Bytecode(BytecodeEngine),
}

/// A module bound to an execution engine: bytecode when the module is in
/// the lowered subset (or when explicitly requested), the tree-walking
/// interpreter otherwise. Remembers which engine was *requested* and why
/// a fallback fired, so run reports can surface the decision.
#[derive(Debug)]
pub struct Runner<'m> {
    inner: RunnerInner<'m>,
    requested: Engine,
    fallback: Option<String>,
    obs: Obs,
}

/// Resolves the `threads` knob: `0` means "auto" — one worker per
/// available hardware thread — and any explicit request is clamped to
/// the host's available parallelism. Oversubscribing wavefront workers
/// is never useful here: the workers are CPU-bound and barrier- or
/// steal-coupled, so extra OS threads on the same cores only add
/// context-switch latency to every level/in-degree handoff (measured on
/// a single-core host: 621 -> 1174 ns/point from 1 to 8 "threads").
/// This is the single place the sentinel and the clamp are applied;
/// the engines and [`WavefrontPool`](crate::parallel::WavefrontPool)
/// run whatever count they are given, so tests can still exercise true
/// multi-worker interleavings on any host.
fn resolve_threads(threads: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads == 0 {
        host
    } else {
        threads.min(host)
    }
}

impl<'m> Runner<'m> {
    /// Binds `module` to the requested engine with a wavefront worker
    /// count. [`Engine::Bytecode`] falls back to the interpreter when
    /// the module contains ops outside the lowered subset (structured
    /// `cfd` reference ops); a *malformed* module fails on either
    /// engine, so that error is surfaced instead of masked by fallback.
    ///
    /// # Errors
    /// Returns an error only for [`BcCompileError::Malformed`] modules.
    pub fn new(module: &'m Module, engine: Engine, threads: usize) -> Result<Self, ExecError> {
        Self::with_obs(module, engine, threads, Obs::off())
    }

    /// [`Runner::new`] recording into `obs`: bytecode compilation under
    /// an `engine:compile` span, each call under `engine:execute`, the
    /// interpreter fallback as an `engine-fallback` event, and wavefront
    /// timings through the bytecode engine's pool.
    ///
    /// # Errors
    /// Returns an error only for [`BcCompileError::Malformed`] modules.
    pub fn with_obs(
        module: &'m Module,
        engine: Engine,
        threads: usize,
        obs: Obs,
    ) -> Result<Self, ExecError> {
        Self::with_opts(module, engine, threads, Scheduler::Levels, obs)
    }

    /// [`Runner::with_obs`] with an explicit wavefront [`Scheduler`].
    /// `threads == 0` means "auto": one worker per available hardware
    /// thread (resolved here, nowhere else). Both knobs drive the
    /// bytecode engine's pool; the interpreter runs sequentially.
    ///
    /// # Errors
    /// Returns an error only for [`BcCompileError::Malformed`] modules.
    pub fn with_opts(
        module: &'m Module,
        engine: Engine,
        threads: usize,
        scheduler: Scheduler,
        obs: Obs,
    ) -> Result<Self, ExecError> {
        let interp = RunnerInner::Interp {
            module,
            interp: Interpreter::new(),
        };
        let mut fallback = None;
        let inner = match engine {
            Engine::Interp => interp,
            Engine::Bytecode => {
                let compiled = {
                    let _span = obs.span("engine:compile");
                    BytecodeEngine::compile_with_obs(module, resolve_threads(threads), obs.clone())
                        .map(|e| e.with_scheduler(scheduler))
                };
                match compiled {
                    Ok(engine) => RunnerInner::Bytecode(engine),
                    Err(BcCompileError::Unsupported(what)) => {
                        let reason = format!("unsupported by bytecode: {what}");
                        obs.event("engine-fallback", &reason);
                        fallback = Some(reason);
                        interp
                    }
                    Err(e @ BcCompileError::Malformed(_)) => {
                        return Err(ExecError::new(e.to_string()))
                    }
                }
            }
        };
        Ok(Runner {
            inner,
            requested: engine,
            fallback,
            obs,
        })
    }

    /// Calls a function of the bound module by name: [`Self::call_sweeps`]
    /// at one sweep.
    ///
    /// # Errors
    /// Propagates engine failures.
    pub fn call(&mut self, name: &str, args: Vec<RtVal>) -> Result<Vec<RtVal>, ExecError> {
        self.call_sweeps(name, args, 1)
    }

    /// Calls a function `sweeps` times over the same arguments,
    /// returning the last call's results. On the bytecode engine the
    /// whole batch drains as **one** fused dataflow pass over the
    /// sweep-extended dependence graph (block `b` of sweep `s+1` starts
    /// as soon as its sweep-`s` neighborhood retires); results and
    /// statistics are bit-identical to `sweeps` eager [`Self::call`]s.
    /// The interpreter has no batched path and loops eagerly.
    ///
    /// # Errors
    /// Propagates engine failures, and fails for zero sweeps; the first
    /// failing sweep aborts.
    pub fn call_sweeps(
        &mut self,
        name: &str,
        args: Vec<RtVal>,
        sweeps: usize,
    ) -> Result<Vec<RtVal>, ExecError> {
        let _span = self.obs.span("engine:execute");
        match &mut self.inner {
            RunnerInner::Interp { module, interp } => {
                if sweeps == 0 {
                    return Err(ExecError::new("sweep batch needs at least one sweep"));
                }
                for _ in 1..sweeps {
                    interp.call(module, name, args.clone())?;
                }
                interp.call(module, name, args)
            }
            RunnerInner::Bytecode(engine) => engine.call_sweeps(name, args, sweeps),
        }
    }

    /// Statistics accumulated across calls.
    pub fn stats(&self) -> ExecStats {
        match &self.inner {
            RunnerInner::Interp { interp, .. } => interp.stats,
            RunnerInner::Bytecode(engine) => engine.stats,
        }
    }

    /// Which engine actually executes (after any fallback).
    pub fn engine(&self) -> Engine {
        match &self.inner {
            RunnerInner::Interp { .. } => Engine::Interp,
            RunnerInner::Bytecode(_) => Engine::Bytecode,
        }
    }

    /// The engine the caller asked for.
    pub fn requested_engine(&self) -> Engine {
        self.requested
    }

    /// The resolved wavefront worker count (`threads == 0` requests
    /// resolve to the available hardware parallelism); always 1 on the
    /// sequential interpreter.
    pub fn threads(&self) -> usize {
        match &self.inner {
            RunnerInner::Interp { .. } => 1,
            RunnerInner::Bytecode(engine) => engine.threads(),
        }
    }

    /// Why the runner fell back to the interpreter, when it did.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// The attached collector ([`Obs::off`] unless built via
    /// [`Runner::with_obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Builds the run report from everything the attached collector has
    /// recorded, filling in the engine section (requested/actual engine,
    /// fallback reason) and the [`ExecStats`] counters. With the
    /// collector off this is exactly [`RunReport::default`].
    pub fn report(&self) -> RunReport {
        if !self.obs.enabled() {
            return RunReport::default();
        }
        let mut report = self.obs.report();
        report.engine.requested = engine_name(self.requested).into();
        report.engine.actual = engine_name(self.engine()).into();
        report.engine.fallback_reason = self.fallback.clone();
        report.exec_stats = Some(self.stats().to_json());
        report
    }

    /// Folds everything the attached collector's per-worker event rings
    /// have recorded (plus the pass/engine spans) into Chrome/Perfetto
    /// `trace_event` JSON — load the string in `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Empty-but-valid document unless the
    /// collector is at [`ObsLevel::Trace`](instencil_obs::ObsLevel).
    pub fn chrome_trace(&self) -> String {
        let rec = self.obs.snapshot();
        let rings = instencil_obs::trace::merge_rings(&rec.rings);
        instencil_obs::trace::chrome_trace(&rings, &rec.spans).to_string()
    }
}

/// Sweeps per `call_sweeps` chunk in the sweep-driving helpers: deep
/// enough to amortize the per-call fixed cost (dispatch, register file,
/// prefix tape, schedule lookup) over a batch, shallow enough that
/// convergence checks at chunk boundaries overshoot the true stopping
/// sweep by at most 7. Every batched sweep runs at this depth: the cost
/// model computes a per-problem depth (`machine::best_batch_depth`),
/// but nothing applies it.
pub const DEFAULT_SWEEP_BATCH: usize = 8;

/// Runs `func` of `module` for `iterations` sweeps over the given
/// buffers (passed as memref arguments each sweep) on one thread of the
/// default engine, in [`Runner::call_sweeps`] chunks of
/// [`DEFAULT_SWEEP_BATCH`]. Returns
/// accumulated execution statistics. For other worker counts, engines or
/// schedulers, drive a [`Runner`].
///
/// # Errors
/// Propagates engine failures.
pub fn run_sweeps(
    module: &Module,
    func: &str,
    buffers: &[BufferView],
    iterations: usize,
) -> Result<ExecStats, ExecError> {
    let mut runner = Runner::new(module, Engine::default(), 1)?;
    let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
    for start in (0..iterations).step_by(DEFAULT_SWEEP_BATCH) {
        let k = DEFAULT_SWEEP_BATCH.min(iterations - start);
        runner.call_sweeps(func, args.clone(), k)?;
    }
    Ok(runner.stats())
}

/// Runs alternating-buffer sweeps for out-of-place kernels (Jacobi):
/// `func(X, B, Y)` with `X`/`Y` swapped every iteration. Returns the
/// buffer holding the final solution.
///
/// # Errors
/// Propagates engine failures.
pub fn run_jacobi_sweeps(
    module: &Module,
    func: &str,
    x: &BufferView,
    b: &BufferView,
    y: &BufferView,
    iterations: usize,
) -> Result<BufferView, ExecError> {
    let mut runner = Runner::new(module, Engine::default(), 1)?;
    let mut cur = x.clone();
    let mut next = y.clone();
    for _ in 0..iterations {
        runner.call(
            func,
            vec![
                RtVal::Buf(cur.clone()),
                RtVal::Buf(b.clone()),
                RtVal::Buf(next.clone()),
            ],
        )?;
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(cur)
}

/// Runs sweeps until the in-place solution stops changing: iterates
/// `func` and measures the max-norm delta of `buffers[watch]` between
/// consecutive sweeps; stops when it drops below `tol`. Returns the
/// number of sweeps executed (capped at `max_sweeps`).
///
/// On the bytecode engine, sweeps drain in [`Runner::call_sweeps`]
/// chunks of [`DEFAULT_SWEEP_BATCH`] and convergence is checked only at
/// chunk boundaries — the residual fold
/// ([`BufferView::max_delta_update`]) is fused into one pass over the
/// watched buffer per batch, so the returned count may overshoot the
/// true stopping sweep by up to `depth − 1` sweeps (extra Gauss-Seidel
/// sweeps past the fixed point are harmless: the fixed point is
/// stationary). Interpreter-bound modules keep exact per-sweep pacing.
///
/// # Errors
/// Propagates engine failures, and reports divergence: a NaN in the
/// watched buffer (or in its delta, e.g. `inf − inf`) at a convergence
/// check is an error, never "converged".
pub fn run_until_converged(
    module: &Module,
    func: &str,
    buffers: &[BufferView],
    watch: usize,
    tol: f64,
    max_sweeps: usize,
) -> Result<usize, ExecError> {
    let mut runner = Runner::new(module, Engine::default(), 1)?;
    let depth = if runner.engine() == Engine::Bytecode {
        DEFAULT_SWEEP_BATCH
    } else {
        1
    };
    let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
    let mut previous = buffers[watch].to_vec();
    let mut done = 0usize;
    while done < max_sweeps {
        let k = depth.min(max_sweeps - done);
        runner.call_sweeps(func, args.clone(), k)?;
        done += k;
        // Batch boundary: one fused pass computes the max-norm delta
        // against the last boundary and refreshes the snapshot in place.
        let delta = buffers[watch].max_delta_update(&mut previous);
        if delta.is_nan() {
            return Err(ExecError::new(format!(
                "`{func}` diverged: NaN in the watched buffer after {done} sweeps"
            )));
        }
        if delta < tol {
            return Ok(done);
        }
    }
    Ok(max_sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use instencil_core::kernels;
    use instencil_core::pipeline::{reference_module, CompiledModule};

    /// Runs `iterations` eager sweeps of `compiled` on a [`Runner`] bound
    /// to the engine, thread and scheduler knobs it was compiled with.
    fn sweep_compiled(
        compiled: &CompiledModule,
        func: &str,
        buffers: &[BufferView],
        iterations: usize,
    ) -> ExecStats {
        let o = &compiled.options;
        let mut runner = Runner::with_opts(
            &compiled.module,
            o.engine,
            o.threads,
            o.scheduler,
            Obs::off(),
        )
        .unwrap();
        for _ in 0..iterations {
            let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
            runner.call(func, args).unwrap();
        }
        runner.stats()
    }

    #[test]
    fn run_sweeps_mutates_in_place() {
        let m = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let w = BufferView::alloc(&[1, 6, 6]);
        w.store(&[0, 3, 3], 5.0); // impulse: not a fixed point of averaging
        let b = BufferView::alloc(&[1, 6, 6]);
        let before = w.to_vec();
        let stats = run_sweeps(&m, "gs5", &[w.clone(), b], 2).unwrap();
        assert_ne!(w.to_vec(), before);
        assert_eq!(stats.reference_ops, 2);
        assert!(stats.loads > 0);
    }

    #[test]
    fn reference_modules_fall_back_to_interp() {
        let m = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let mut runner = Runner::new(&m, Engine::Bytecode, 1).unwrap();
        assert_eq!(
            runner.engine(),
            Engine::Interp,
            "structured cfd ops must fall back to the tree-walker"
        );
        assert_zero_sweeps_err(&mut runner);
    }

    /// `call_sweeps(…, 0)` is an error on either engine, and runs nothing.
    fn assert_zero_sweeps_err(runner: &mut Runner<'_>) {
        let args = vec![
            RtVal::Buf(BufferView::alloc(&[1, 6, 6])),
            RtVal::Buf(BufferView::alloc(&[1, 6, 6])),
        ];
        let e = runner.call_sweeps("gs5", args, 0).unwrap_err();
        assert!(e.message.contains("needs at least one sweep"), "{e}");
        assert_eq!(runner.stats(), ExecStats::default());
    }

    #[test]
    fn lowered_modules_run_on_bytecode() {
        use instencil_core::pipeline::{compile, PipelineOptions};
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]),
        )
        .unwrap();
        let mut runner = Runner::new(&c.module, Engine::Bytecode, 1).unwrap();
        assert_eq!(runner.engine(), Engine::Bytecode);
        assert_zero_sweeps_err(&mut runner);
    }

    #[test]
    fn run_until_converged_reaches_fixed_point() {
        let m = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
        let w = BufferView::alloc(&[1, 10, 10]);
        // Boundary 1, interior 0 → converges to all-ones.
        for i in 0..10i64 {
            for j in 0..10i64 {
                if i == 0 || j == 0 || i == 9 || j == 9 {
                    w.store(&[0, i, j], 1.0);
                }
            }
        }
        let b = BufferView::alloc(&[1, 10, 10]);
        let sweeps = run_until_converged(&m, "gs5", &[w.clone(), b], 0, 1e-9, 5_000).unwrap();
        assert!(sweeps < 5_000, "must converge");
        assert!((w.load(&[0, 5, 5]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn compiled_sweeps_honor_thread_and_engine_knobs() {
        use instencil_core::pipeline::{compile, PipelineOptions};
        let m = kernels::gauss_seidel_5pt_module();
        let n = 12usize;
        let init = |_: &()| {
            let w = BufferView::alloc(&[1, n, n]);
            for i in 0..n as i64 {
                for j in 0..n as i64 {
                    w.store(&[0, i, j], ((i * 7 + j * 3) % 11) as f64 * 0.1);
                }
            }
            (w, BufferView::alloc(&[1, n, n]))
        };
        let seq = compile(
            &m,
            &PipelineOptions::new(vec![4, 4], vec![2, 2]).engine(Engine::Interp),
        )
        .unwrap();
        let par = compile(
            &m,
            &PipelineOptions::new(vec![4, 4], vec![2, 2]).threads(3),
        )
        .unwrap();
        let (ws, bs) = init(&());
        let stats_seq = sweep_compiled(&seq, "gs5", &[ws.clone(), bs], 2);
        let (wp, bp) = init(&());
        let stats_par = sweep_compiled(&par, "gs5", &[wp.clone(), bp], 2);
        assert_eq!(ws.to_vec(), wp.to_vec(), "bit-identical across engines");
        assert_eq!(stats_seq, stats_par, "engine- and thread-invariant stats");
        assert!(stats_par.wavefront_levels > 0);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        use instencil_core::pipeline::{compile, PipelineOptions};
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]).threads(0),
        )
        .unwrap();
        assert_eq!(c.options.threads, 0, "the sentinel survives compilation");
        let runner = Runner::new(&c.module, Engine::Bytecode, 0).unwrap();
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(runner.threads(), auto, "0 means one worker per hw thread");
        assert!(runner.threads() >= 1);
        // Explicit counts are clamped to the host: oversubscribed
        // wavefront workers only trade useful work for context
        // switches (see `resolve_threads`).
        let runner = Runner::new(&c.module, Engine::Bytecode, 3).unwrap();
        assert_eq!(runner.threads(), 3.min(auto));
        let runner = Runner::new(&c.module, Engine::Bytecode, auto + 7).unwrap();
        assert_eq!(runner.threads(), auto, "requests beyond the host clamp");
        // The reference interpreter is sequential whatever was asked.
        let runner = Runner::new(&c.module, Engine::Interp, 0).unwrap();
        assert_eq!(runner.threads(), 1, "the interpreter runs no pool");
    }

    #[test]
    fn compiled_dataflow_matches_levels_bitwise() {
        use instencil_core::pipeline::{compile, PipelineOptions};
        let m = kernels::gauss_seidel_5pt_module();
        let init = || {
            let w = BufferView::alloc(&[1, 14, 14]);
            for i in 0..14i64 {
                for j in 0..14i64 {
                    w.store(&[0, i, j], ((i * 5 + j * 11) % 13) as f64 * 0.25);
                }
            }
            (w, BufferView::alloc(&[1, 14, 14]))
        };
        let levels = compile(
            &m,
            &PipelineOptions::new(vec![3, 3], vec![2, 2]).threads(4),
        )
        .unwrap();
        let dataflow = compile(
            &m,
            &PipelineOptions::new(vec![3, 3], vec![2, 2])
                .threads(4)
                .scheduler(Scheduler::Dataflow),
        )
        .unwrap();
        let (wl, bl) = init();
        let stats_l = sweep_compiled(&levels, "gs5", &[wl.clone(), bl], 3);
        let (wd, bd) = init();
        let stats_d = sweep_compiled(&dataflow, "gs5", &[wd.clone(), bd], 3);
        assert_eq!(wl.to_vec(), wd.to_vec(), "bit-identical across schedulers");
        assert_eq!(stats_l, stats_d, "scheduler-invariant statistics");
        assert!(stats_d.wavefront_levels > 0);
    }

    #[test]
    fn batched_sweeps_match_eager_bitwise() {
        use instencil_core::pipeline::{compile, PipelineOptions};
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]).threads(2),
        )
        .unwrap();
        let init = || {
            let w = BufferView::alloc(&[1, 13, 13]);
            for i in 0..13i64 {
                for j in 0..13i64 {
                    w.store(&[0, i, j], ((i * 3 + j * 7) % 9) as f64 * 0.5);
                }
            }
            (w, BufferView::alloc(&[1, 13, 13]))
        };
        let sweeps = 6usize;
        let (we, be) = init();
        let mut eager = Runner::new(&c.module, Engine::Bytecode, 2).unwrap();
        for _ in 0..sweeps {
            eager
                .call("gs5", vec![RtVal::Buf(we.clone()), RtVal::Buf(be.clone())])
                .unwrap();
        }
        let (wb, bb) = init();
        let mut batched = Runner::new(&c.module, Engine::Bytecode, 2).unwrap();
        batched
            .call_sweeps("gs5", vec![RtVal::Buf(wb.clone()), RtVal::Buf(bb)], sweeps)
            .unwrap();
        assert_eq!(we.to_vec(), wb.to_vec(), "bit-identical to eager sweeps");
        assert_eq!(eager.stats(), batched.stats(), "batching-invariant stats");
    }

    #[test]
    fn run_until_converged_batches_on_bytecode() {
        use instencil_core::pipeline::{compile, PipelineOptions};
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2]),
        )
        .unwrap();
        let w = BufferView::alloc(&[1, 10, 10]);
        for i in 0..10i64 {
            for j in 0..10i64 {
                if i == 0 || j == 0 || i == 9 || j == 9 {
                    w.store(&[0, i, j], 1.0);
                }
            }
        }
        let b = BufferView::alloc(&[1, 10, 10]);
        let sweeps =
            run_until_converged(&c.module, "gs5", &[w.clone(), b], 0, 1e-9, 5_000).unwrap();
        assert!(sweeps < 5_000, "must converge");
        // Convergence is checked at batch boundaries, so the count lands
        // on a multiple of the batch depth (unless capped).
        assert_eq!(sweeps % DEFAULT_SWEEP_BATCH, 0);
        assert!((w.load(&[0, 5, 5]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nan_field_is_divergence_on_both_engines() {
        use instencil_core::pipeline::{compile, PipelineOptions};
        let sor = kernels::sor_module(1.5);
        let bytecode = compile(&sor, &PipelineOptions::tr2(vec![4, 4], vec![2, 2]))
            .unwrap()
            .module;
        let interp = reference_module(&sor).unwrap(); // structured ops: interpreter-bound
        let solve = |module: &Module, seed: f64| {
            let u = BufferView::alloc(&[1, 10, 10]);
            u.fill(seed);
            let b = BufferView::alloc(&[1, 10, 10]);
            b.fill(0.01);
            run_until_converged(module, "sor", &[u, b], 0, 1e-9, 2_000)
        };
        for (engine, module) in [("bytecode", &bytecode), ("interp", &interp)] {
            let e = solve(module, f64::NAN).expect_err("an all-NaN field must not converge");
            assert!(e.message.contains("diverged"), "{engine}: {e}");
        }
        // A finite solve is untouched: the sweep counts of the commit
        // before the NaN check.
        assert_eq!(solve(&bytecode, 0.0).unwrap(), 40);
        assert_eq!(solve(&interp, 0.0).unwrap(), 32);
    }

    #[test]
    fn jacobi_swaps_buffers() {
        let m = reference_module(&kernels::jacobi_5pt_module()).unwrap();
        let x = BufferView::alloc(&[1, 5, 5]);
        x.fill(1.0);
        let b = BufferView::alloc(&[1, 5, 5]);
        let y = BufferView::alloc(&[1, 5, 5]);
        let out = run_jacobi_sweeps(&m, "jacobi5", &x, &b, &y, 1).unwrap();
        // After one sweep the result lives in `y`.
        assert!(out.aliases(&y));
        // Interior became the 5-point average of ones = 1.0; the borders
        // of y stay zero (only the interior is written).
        assert_eq!(out.load(&[0, 2, 2]), 1.0);
        assert_eq!(out.load(&[0, 0, 0]), 0.0);
    }
}
