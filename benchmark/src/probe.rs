//! The traced run's extra measurements: per-layer numbers that the
//! end-to-end flow does not need. Everything is still taken from outside
//! the program — by timing public calls, or by reading what they return
//! (`Obs` pass spans, `RunReport`, `ExecStats`).

use std::time::Instant;

use instencil::baseline::pluto::gs5_wavefront_tiled_sweep;
use instencil::core::pipeline::{compile_with_obs, CompiledModule, Engine};
use instencil::exec::Runner;
use instencil::machine::cost::PerPointCosts;
use instencil::machine::{best_batch_depth, estimate_sweep, xeon_6152_dual};
use instencil::obs::{Obs, ObsLevel};
use instencil::pattern::blockdeps::block_dependences;
use instencil::pattern::{BlockGraph, WavefrontSchedule};
use instencil::solvers::array::Field;
use instencil_testkit::Rng;

use crate::cases::{args, interior_points, to_buffers, Case, Kernel, Native};
use crate::host::tp_request;
use crate::measure::{autotune_proto, step, Acc};
use crate::spans::SpanLog;
use crate::stats::median;

/// How a per-case value folds into the workload's number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Agg {
    /// Times and counts of one pass over all cases add up.
    Sum,
    /// Per-point times and ratios average geometrically.
    Geo,
}

pub type Items = Vec<(&'static str, Agg, Option<f64>)>;

/// Folds per-case items into one value per name. A name nobody measured
/// stays `None` (`n/a`); zeros survive a geometric fold as zero.
pub fn fold(per_case: &[Items]) -> Vec<(&'static str, Option<f64>)> {
    let mut names: Vec<(&'static str, Agg)> = Vec::new();
    for (name, agg, _) in per_case.iter().flatten() {
        if !names.iter().any(|(n, _)| n == name) {
            names.push((name, *agg));
        }
    }
    names
        .into_iter()
        .map(|(name, agg)| {
            let vals: Vec<f64> = per_case
                .iter()
                .flatten()
                .filter(|(n, _, v)| *n == name && v.is_some_and(f64::is_finite))
                .filter_map(|(_, _, v)| *v)
                .collect();
            let value = match agg {
                _ if vals.is_empty() => None,
                Agg::Sum => Some(vals.iter().sum()),
                // Equal values (a pick every case agrees on) stay exact.
                Agg::Geo if vals.iter().all(|v| *v == vals[0]) => Some(vals[0]),
                Agg::Geo => {
                    let pos: Vec<f64> = vals.iter().copied().filter(|v| *v > 0.0).collect();
                    Some(crate::stats::geomean(&pos).unwrap_or(0.0))
                }
            };
            (name, value)
        })
        .collect()
}

/// The wavefront schedule of one in-place sweep of the case: sub-domain
/// grid and block dependences as the tiler derives them.
fn schedule_inputs(case: &Case) -> Option<(Vec<usize>, Vec<Vec<i64>>)> {
    let pattern = case.kernel.pattern();
    let sub = &case.opts.subdomain[..pattern.rank()];
    let grid = case.shape[1..]
        .iter()
        .zip(pattern.radii())
        .zip(sub)
        .map(|((n, r), s)| (n - 2 * r).div_ceil(*s))
        .collect();
    Some((grid, block_dependences(&pattern, sub).ok()?))
}

/// `(blocks, levels, edges)` of the case's schedule: exact counts, cheap
/// enough for the untraced run to report too.
pub fn schedule_counts(case: &Case) -> Option<(usize, usize, usize)> {
    let (grid, deps) = schedule_inputs(case)?;
    let csr = WavefrontSchedule::compute(&grid, &deps).into_wavefronts();
    Some((
        csr.num_blocks(),
        csr.num_levels(),
        BlockGraph::build(&grid, &deps).num_edges(),
    ))
}

/// Median seconds of `reps` runs of `f` after one warm-up run.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

/// Samples of steady calls on `runner` for about `secs` seconds (5 to 30).
fn steady_samples(
    runner: &mut Runner<'_>,
    case: &Case,
    data: &[Vec<f64>],
    secs: f64,
) -> Option<Vec<f64>> {
    let mut bufs = to_buffers(&case.shape, data);
    step(runner, case.kernel, &bufs).ok()?;
    let phase = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (samples.len() < 30 && phase.elapsed().as_secs_f64() < secs) {
        if case
            .reset_every
            .is_some_and(|every| samples.len() % every == 0)
        {
            bufs = to_buffers(&case.shape, data);
        }
        let t0 = Instant::now();
        step(runner, case.kernel, &bufs).ok()?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    Some(samples)
}

fn bind<'m>(
    compiled: &'m CompiledModule,
    engine: Engine,
    threads: usize,
    obs: Obs,
) -> Option<Runner<'m>> {
    Runner::with_opts(
        &compiled.module,
        engine,
        threads,
        compiled.options.scheduler,
        obs,
    )
    .ok()
}

/// Per-layer measurements of one case. `acc` holds what the main flow
/// measured on it; `seconds` is the run's `--seconds`.
pub fn probe_case(
    case: &Case,
    data: &[Vec<f64>],
    acc: &Acc,
    seed: u64,
    seconds: f64,
    log: &mut SpanLog,
) -> Items {
    let kernel = case.kernel;
    let pattern = kernel.pattern();
    let points = case.points() as f64;
    let t1_ns = median(&acc.sweeps_t1).map(|s| s * 1e9 / points);
    let mut items: Items = Vec::new();

    // core: the pipeline's own pass spans, from a compile under a collector.
    let obs = Obs::new(ObsLevel::Trace);
    let module = kernel.module();
    let (compiled, _) = log.time("core", "compile_traced", || {
        compile_with_obs(&module, &case.opts, obs.clone())
    });
    let Ok(compiled) = compiled else {
        return items;
    };
    let spans = obs.snapshot().spans;
    for name in PASS_METRICS {
        let pass = name.strip_prefix("core.pass_ms.");
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name.strip_prefix("pass:") == pass)
            .map(|s| s.dur_ns)
            .sum();
        items.push((name, Agg::Sum, Some(ns as f64 / 1e6)));
    }
    let fused = spans
        .iter()
        .filter(|s| s.name == "tile:fusion-analysis")
        .flat_map(|s| &s.notes)
        .filter(|(k, _)| k == "fused_producers")
        .map(|(_, v)| *v)
        .sum::<i64>();
    items.push(("core.fused_producers", Agg::Sum, Some(fused as f64)));

    // pattern: the Eq. (3) schedule and the dependence graph, unmemoized.
    if let Some((grid, deps)) = schedule_inputs(case) {
        let (secs, _) = log.time("pattern", "schedule", || {
            median_secs(5, || {
                std::hint::black_box(WavefrontSchedule::compute(&grid, &deps).into_wavefronts());
                std::hint::black_box(BlockGraph::build(&grid, &deps));
            })
        });
        items.push(("pattern.schedule_ms", Agg::Sum, Some(secs * 1e3)));

        // machine: what the Xeon-6152 model says about this geometry
        // with the op mix the run counted.
        if let Some(s) = acc.per_call {
            let mut cfg = autotune_proto(case);
            cfg.subdomain = case.opts.subdomain.clone();
            cfg.tile = case.opts.tile.clone();
            cfg.deps = deps;
            cfg.costs = PerPointCosts {
                scalar_flops: s.scalar_flops as f64 / points,
                vector_flops: s.vector_flops as f64 / points,
                mem_ops: (s.loads + s.stores) as f64 / points,
                vector_mem_ops: (s.vector_loads + s.vector_stores) as f64 / points,
                control_ops: s.index_ops as f64 / points,
            };
            let m = xeon_6152_dual();
            let ((predicted, depth), _) = log.time("machine", "estimate", || {
                (
                    estimate_sweep(&m, &cfg).total_s * 1e9 / points,
                    best_batch_depth(&m, &cfg, 8),
                )
            });
            items.push(("machine.predicted_ns_per_point", Agg::Geo, Some(predicted)));
            items.push((
                "machine.predicted_over_measured",
                Agg::Geo,
                t1_ns.map(|t| predicted / t),
            ));
            items.push(("machine.batch_depth_pick", Agg::Geo, Some(depth as f64)));
        }
    }

    // exec + obs: the tp pass again, once with the collector off and once
    // at ObsLevel::Trace, to harvest the RunReport the program produces.
    let threads = tp_request();
    let off = bind(&compiled, compiled.options.engine, threads, Obs::off()).and_then(|mut r| {
        log.time("exec", "tp_untraced", || {
            steady_samples(&mut r, case, data, 0.06 * seconds)
        })
        .0
    });
    if let Some(mut traced) = bind(
        &compiled,
        compiled.options.engine,
        threads,
        Obs::new(ObsLevel::Trace),
    ) {
        let on = log
            .time("exec", "tp_traced", || {
                steady_samples(&mut traced, case, data, 0.06 * seconds)
            })
            .0;
        if kernel != Kernel::EulerLusgs {
            // Surfaces a sweep-batch-fallback event where the tape cannot batch.
            let bufs = to_buffers(&case.shape, data);
            let _ = traced.call_sweeps(kernel.func(), args(&bufs), 2);
        }
        let ((report, _text), t_render) = log.time("obs", "report", || {
            let report = traced.report();
            let text = report.to_text();
            (report, text)
        });
        if let (Some(off), Some(on)) = (&off, &on) {
            let ratio = median(on).zip(median(off)).map(|(a, b)| a / b);
            items.push(("obs.trace_overhead_ratio", Agg::Geo, ratio));
        }
        items.push(("obs.report_render_ms", Agg::Sum, Some(t_render * 1e3)));
        let dropped: u64 = report.trace.iter().map(|r| r.dropped).sum();
        items.push(("obs.ring_dropped", Agg::Sum, Some(dropped as f64)));
        let count = |name: &str| report.events.iter().filter(|e| e.name == name).count() as f64;
        items.push((
            "exec.engine_fallbacks",
            Agg::Sum,
            Some(count("engine-fallback") + acc.engine_fallbacks as f64),
        ));
        items.push((
            "exec.runspec_declines",
            Agg::Sum,
            Some(count("runspec-decline")),
        ));
        items.push((
            "exec.sweep_batch_fallbacks",
            Agg::Sum,
            Some(count("sweep-batch-fallback")),
        ));

        // Mean per-sweep worker time over the levels that carry worker detail.
        let levels = report.wavefronts.iter().flat_map(|g| &g.levels);
        let (mut busy, mut idle, mut steals, mut imb, mut blocks) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for level in levels.filter(|l| !l.workers.is_empty()) {
            for w in &level.workers {
                busy += w.busy_ns as f64;
                idle += w.idle_ns as f64;
                steals += w.steals as f64;
            }
            imb += level.imbalance * level.blocks as f64;
            blocks += level.blocks as f64;
        }
        if busy + idle > 0.0 {
            items.push((
                "exec.worker_busy_frac",
                Agg::Geo,
                Some(busy / (busy + idle)),
            ));
            items.push((
                "exec.worker_idle_frac",
                Agg::Geo,
                Some(idle / (busy + idle)),
            ));
            items.push(("exec.steals", Agg::Sum, Some(steals)));
            items.push(("exec.level_imbalance", Agg::Geo, Some(imb / blocks)));
        }
    }

    // exec: the interpreter against the bytecode engine on the small grid.
    let small_data = kernel.inputs(&case.small, &mut Rng::seed_from_u64(seed));
    let small_points = interior_points(&pattern, &case.small) as f64;
    let small_secs = |engine: Engine, reps: usize, log: &mut SpanLog| {
        let mut runner = bind(&compiled, engine, 1, Obs::off())?;
        let bufs = to_buffers(&case.small, &small_data);
        step(&mut runner, kernel, &bufs).ok()?;
        Some(
            log.time("exec", "small_grid", || {
                median_secs(reps, || drop(step(&mut runner, kernel, &bufs)))
            })
            .0,
        )
    };
    let interp = small_secs(Engine::Interp, 3, log);
    let bytecode = small_secs(compiled.options.engine, 20, log);
    items.push((
        "exec.interp_ns_per_point",
        Agg::Geo,
        interp.map(|s| s * 1e9 / small_points),
    ));
    items.push((
        "exec.bytecode_over_interp",
        Agg::Geo,
        bytecode.zip(interp).map(|(b, i)| b / i),
    ));

    // exec: the fixed cost of a call — the same kernel on a grid of one
    // block with two interior points per dimension.
    let tiny: Vec<usize> = std::iter::once(kernel.nb_var())
        .chain(pattern.radii().iter().map(|r| 2 * r + 2))
        .collect();
    let tiny_data = kernel.inputs(&tiny, &mut Rng::seed_from_u64(seed));
    if let Some(mut runner) = bind(&compiled, compiled.options.engine, 1, Obs::off()) {
        let bufs = to_buffers(&tiny, &tiny_data);
        if step(&mut runner, kernel, &bufs).is_ok() {
            let secs = log
                .time("exec", "one_block_grid", || {
                    median_secs(200, || drop(step(&mut runner, kernel, &bufs)))
                })
                .0;
            items.push(("exec.call_fixed_us", Agg::Geo, Some(secs * 1e6)));
        }
    }

    // exec: the residual fold of the convergence driver on the result array.
    let bufs = to_buffers(&case.shape, data);
    let mut prev = vec![0.0; case.shape.iter().product()];
    let fold_secs = log
        .time("exec", "residual_fold", || {
            median_secs(5, || {
                std::hint::black_box(bufs[kernel.out()].max_delta_update(&mut prev));
            })
        })
        .0;
    items.push(("exec.residual_fold_ms", Agg::Sum, Some(fold_secs * 1e3)));

    // solvers + baseline: the hand-written loops on the same grid.
    let mut native = Native::new(kernel, &case.shape, data);
    if matches!(native, Native::Loops { .. }) {
        let secs = log
            .time("solvers", "native", || {
                median_secs(3, || {
                    native.step();
                })
            })
            .0;
        items.push((
            "solvers.native_ns_per_point",
            Agg::Geo,
            Some(secs * 1e9 / points),
        ));
        items.push((
            "solvers.generated_over_native",
            Agg::Geo,
            t1_ns.map(|t| t / (secs * 1e9 / points)),
        ));
    }
    if kernel == Kernel::Gs5 {
        let mut w = Field::from_data(&case.shape, data[0].clone());
        let b = Field::from_data(&case.shape, data[1].clone());
        let tile = case.opts.tile[0];
        let secs = log
            .time("baseline", "pluto_tiled", || {
                median_secs(3, || gs5_wavefront_tiled_sweep(&mut w, &b, tile))
            })
            .0;
        items.push((
            "baseline.pluto_tiled_ns_per_point",
            Agg::Geo,
            Some(secs * 1e9 / points),
        ));
        items.push((
            "baseline.generated_over_pluto",
            Agg::Geo,
            t1_ns.map(|t| t / (secs * 1e9 / points)),
        ));
    }
    items
}

/// One metric per pipeline pass; the part after `core.pass_ms.` is the
/// pass's span name.
pub const PASS_METRICS: [&str; 6] = [
    "core.pass_ms.input-verify",
    "core.pass_ms.bufferize",
    "core.pass_ms.tile",
    "core.pass_ms.lower",
    "core.pass_ms.canonicalize",
    "core.pass_ms.final-verify",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_sums_times_and_averages_ratios_geometrically() {
        let a: Items = vec![
            ("t", Agg::Sum, Some(1.0)),
            ("r", Agg::Geo, Some(2.0)),
            ("z", Agg::Geo, Some(0.0)),
        ];
        let b: Items = vec![
            ("t", Agg::Sum, Some(2.5)),
            ("r", Agg::Geo, Some(8.0)),
            ("n", Agg::Geo, None),
        ];
        let folded = fold(&[a, b]);
        assert_eq!(folded[0], ("t", Some(3.5)));
        assert_eq!(folded[1].0, "r");
        assert!((folded[1].1.unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(folded[2], ("z", Some(0.0)));
        assert_eq!(folded[3], ("n", None), "unmeasured stays n/a");
    }
}
