//! The metric registry (names, units and directions — `BENCHMARK.json`
//! lists the same, a test holds the two together) and the arithmetic
//! that turns a run's samples into metric values.

use std::collections::BTreeMap;

use crate::cases::Case;
use crate::host::{peak_rss_mib, Probe};
use crate::measure::Acc;
use crate::probe::{schedule_counts, PASS_METRICS};
use crate::spans::{self_time_by, Rec};
use crate::stats::{geomean, iqr_frac, median, quartiles, scaling, tail};
use crate::workloads::Job;

/// A metric's name and unit. Its direction (and, end to end, its bound)
/// is fixed in `BENCHMARK.json` alone.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the generator pays; measured by the untraced run.
/// `fail_share` of the issue is not a metric here because the contract
/// wants metrics that are never 0: it is the `failed` / `attempted` pair
/// printed with every result.
pub const END_TO_END: [Def; 7] = [
    def("setup_s", "s"),
    def("sweep_ns_per_point_t1", "ns"),
    def("sweep_ns_per_point_tp", "ns"),
    def("scaling_efficiency", "ratio"),
    def("solve_ms", "ms"),
    def("compile_to_first_sweep_ms", "ms"),
    def("peak_rss_mib", "MiB"),
];

/// One layer's work, time or waste; filled by the traced run.
pub const PER_LAYER: [Def; 74] = [
    def("ir.build_ms", "ms"),
    def("ir.verify_ms", "ms"),
    def("ir.ops_in", "count"),
    def("ir.time_share", "ratio"),
    def("pattern.schedule_ms", "ms"),
    def("pattern.blocks", "count"),
    def("pattern.levels", "count"),
    def("pattern.edges", "count"),
    def("pattern.mean_blocks_per_level", "ratio"),
    def("core.compile_ms", "ms"),
    def(PASS_METRICS[0], "ms"),
    def(PASS_METRICS[1], "ms"),
    def(PASS_METRICS[2], "ms"),
    def(PASS_METRICS[3], "ms"),
    def(PASS_METRICS[4], "ms"),
    def(PASS_METRICS[5], "ms"),
    def("core.ops_after", "count"),
    def("core.vectorized_ops", "count"),
    def("core.scalar_ops", "count"),
    def("core.fused_producers", "count"),
    def("core.time_share", "ratio"),
    def("machine.autotune_ms", "ms"),
    def("machine.autotune_candidates", "count"),
    def("machine.predicted_ns_per_point", "ns"),
    def("machine.predicted_over_measured", "ratio"),
    def("machine.batch_depth_pick", "count"),
    def("machine.time_share", "ratio"),
    def("exec.engine_compile_ms", "ms"),
    def("exec.first_call_ms", "ms"),
    def("exec.first_call_excess_ms", "ms"),
    def("exec.bind_share", "ratio"),
    def("exec.steady_share", "ratio"),
    def("exec.sweep_tail_ns_per_point", "ns"),
    def("exec.sweep_tail_pct", "%"),
    def("exec.sweep_iqr_frac", "ratio"),
    def("exec.loads_per_point", "count"),
    def("exec.stores_per_point", "count"),
    def("exec.flops_per_point", "count"),
    def("exec.index_ops_per_point", "count"),
    def("exec.bytes_per_point_computed", "B"),
    def("exec.achieved_gbs_computed", "GB/s"),
    def("exec.flops_per_byte_computed", "ratio"),
    def("exec.bw_roofline_frac", "ratio"),
    def("exec.call_fixed_us", "us"),
    def("exec.batched_over_eager", "ratio"),
    def("exec.residual_fold_ms", "ms"),
    def("exec.schedules_computed", "count"),
    def("exec.blocks_executed", "count"),
    def("exec.wavefront_levels", "count"),
    def("exec.worker_busy_frac", "ratio"),
    def("exec.worker_idle_frac", "ratio"),
    def("exec.steals", "count"),
    def("exec.level_imbalance", "ratio"),
    def("exec.engine_fallbacks", "count"),
    def("exec.runspec_declines", "count"),
    def("exec.sweep_batch_fallbacks", "count"),
    def("exec.interp_ns_per_point", "ns"),
    def("exec.bytecode_over_interp", "ratio"),
    def("obs.trace_overhead_ratio", "ratio"),
    def("obs.report_render_ms", "ms"),
    def("obs.ring_dropped", "count"),
    def("solvers.native_ns_per_point", "ns"),
    def("solvers.generated_over_native", "ratio"),
    def("solvers.sweeps_to_converge", "count"),
    def("solvers.max_abs_err", "1"),
    def("baseline.pluto_tiled_ns_per_point", "ns"),
    def("baseline.generated_over_pluto", "ratio"),
    def("bench.host_triad_gbs", "GB/s"),
    def("bench.host_fma_gflops", "GFLOP/s"),
    def("bench.timer_ns", "ns"),
    def("bench.nproc", "count"),
    def("bench.threads_resolved_tp", "count"),
    def("bench.array_mib", "MiB"),
    def("bench.self_share", "ratio"),
];

/// Per-layer metrics that are counts of the program's own work and must
/// repeat exactly between two runs of one seed (`--check-repeat`). The
/// untraced run reports them too.
pub const EXACT: [&str; 17] = [
    "ir.ops_in",
    "pattern.blocks",
    "pattern.levels",
    "pattern.edges",
    "pattern.mean_blocks_per_level",
    "core.ops_after",
    "core.vectorized_ops",
    "core.scalar_ops",
    "exec.loads_per_point",
    "exec.stores_per_point",
    "exec.flops_per_point",
    "exec.index_ops_per_point",
    "exec.bytes_per_point_computed",
    "exec.schedules_computed",
    "exec.blocks_executed",
    "exec.wavefront_levels",
    "solvers.sweeps_to_converge",
];

/// A metric value with the spread of the samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind the value (0 for a single reading).
    pub n: usize,
}

impl Dist {
    fn single(value: f64) -> Dist {
        Dist {
            value,
            q1: value,
            q3: value,
            n: 0,
        }
    }

    fn of(samples: &[f64], scale: f64) -> Option<Dist> {
        let value = median(samples)? * scale;
        let (q1, q3) = quartiles(samples).map_or((value, value), |(a, b)| (a * scale, b * scale));
        Some(Dist {
            value,
            q1,
            q3,
            n: samples.len(),
        })
    }

    /// Geometric mean over cases, quartile by quartile.
    fn geo(per_case: &[Option<Dist>]) -> Option<Dist> {
        let all: Vec<Dist> = per_case.iter().copied().collect::<Option<_>>()?;
        let pick = |f: fn(&Dist) -> f64| geomean(&all.iter().map(f).collect::<Vec<_>>());
        Some(Dist {
            value: pick(|d| d.value)?,
            q1: pick(|d| d.q1)?,
            q3: pick(|d| d.q3)?,
            n: all.iter().map(|d| d.n).sum(),
        })
    }
}

/// Samples of a case's set-up chain that count for
/// `compile_to_first_sweep_ms`: repetition 1 fills the process-global
/// schedule memo tables and is left out when there are others.
fn warm(samples: &[f64]) -> &[f64] {
    if samples.len() > 1 {
        &samples[1..]
    } else {
        samples
    }
}

pub type Rows<T> = Vec<(&'static str, Option<T>)>;

/// Geometric mean over cases of the per-case median of `pick`'s samples,
/// in ns per interior point.
fn per_point(cases: &[&Case], accs: &[&Acc], pick: fn(&Acc) -> &[f64]) -> Option<Dist> {
    let per_case: Vec<Option<Dist>> = cases
        .iter()
        .zip(accs)
        .map(|(c, a)| Dist::of(pick(a), 1e9 / c.points() as f64))
        .collect();
    Dist::geo(&per_case)
}

/// The end-to-end metrics of a run over `cases` (one `Acc` each).
pub fn end_to_end(cases: &[&Case], accs: &[&Acc]) -> Rows<Dist> {
    let geo_ms = |pick: fn(&Acc) -> &[f64]| {
        Dist::geo(
            &accs
                .iter()
                .map(|a| Dist::of(pick(a), 1e3))
                .collect::<Vec<_>>(),
        )
    };
    let rounds = accs.iter().map(|a| a.setup.len()).min().unwrap_or(0);
    let setup: Vec<f64> = (0..rounds)
        .map(|r| accs.iter().map(|a| a.setup[r]).sum())
        .collect();
    let t1 = per_point(cases, accs, |a| &a.sweeps_t1);
    let tp_threads = accs.first().map_or(1, |a| a.tp_threads);
    let tp = per_point(cases, accs, |a| &a.sweeps_tp)
        .zip(t1)
        .and_then(|(tp, t1)| {
            let (_, eff) = scaling(t1.value, tp.value, tp_threads)?;
            // Quartiles of the ratio from the opposite quartiles of its parts.
            let at = |t1: f64, tp: f64| t1 / (tp_threads as f64 * tp);
            let eff = Dist {
                value: eff,
                q1: at(t1.q1, tp.q3),
                q3: at(t1.q3, tp.q1),
                n: tp.n,
            };
            Some((tp, eff))
        });
    vec![
        ("setup_s", Dist::of(&setup, 1.0)),
        ("sweep_ns_per_point_t1", t1),
        ("sweep_ns_per_point_tp", tp.map(|(tp, _)| tp)),
        ("scaling_efficiency", tp.map(|(_, eff)| eff)),
        ("solve_ms", geo_ms(|a| &a.jobs)),
        (
            "compile_to_first_sweep_ms",
            geo_ms(|a| warm(&a.to_first_sweep)),
        ),
        ("peak_rss_mib", peak_rss_mib().map(Dist::single)),
    ]
}

/// What the contract's result line carries for the two scaling metrics
/// on a host where `tp` resolves to one thread. The line must hold a
/// number for every metric, so it gets the second one-thread pass and
/// its ratio to the first; everything a person reads (the table,
/// `results.json`) says `n/a`, and `bench.threads_resolved_tp` says 1.
pub fn one_thread_fallback(cases: &[&Case], accs: &[&Acc]) -> Option<[(&'static str, f64); 2]> {
    let t1 = per_point(cases, accs, |a| &a.sweeps_t1)?.value;
    let tp = per_point(cases, accs, |a| &a.sweeps_tp)?.value;
    Some([
        ("sweep_ns_per_point_tp", tp),
        ("scaling_efficiency", t1 / tp),
    ])
}

/// The exact counts ([`EXACT`]) of a run.
pub fn exact_counts(cases: &[&Case], accs: &[&Acc], job: Job) -> Rows<f64> {
    let sum = |f: &dyn Fn(&Case, &Acc) -> Option<f64>| -> Option<f64> {
        cases.iter().zip(accs).map(|(c, a)| f(c, a)).sum()
    };
    let stat = |f: fn(&instencil::exec::ExecStats, f64) -> f64| {
        move |c: &Case, a: &Acc| {
            a.per_call
                .map(|s| f(&s, c.opts.vectorize.unwrap_or(1) as f64))
        }
    };
    let points = sum(&|c, _| Some(c.points() as f64));
    let per_point = |f: fn(&instencil::exec::ExecStats, f64) -> f64| {
        sum(&stat(f)).zip(points).map(|(s, p)| s / p)
    };
    let loads = per_point(|s, vf| s.loads as f64 + s.vector_loads as f64 * vf);
    let stores = per_point(|s, vf| s.stores as f64 + s.vector_stores as f64 * vf);
    let sched: Vec<Option<(usize, usize, usize)>> =
        cases.iter().map(|c| schedule_counts(c)).collect();
    let sched_sum = |f: fn((usize, usize, usize)) -> usize| -> Option<f64> {
        sched.iter().map(|s| s.map(|s| f(s) as f64)).sum()
    };
    let (blocks, levels) = (sched_sum(|s| s.0), sched_sum(|s| s.1));
    // A solve's sweep count depends on its right-hand side; the first
    // eight solves of a seed are the same in every run of that seed.
    let solve_sweeps = (job == Job::Solve)
        .then(|| {
            let first: Vec<f64> = accs
                .iter()
                .flat_map(|a| a.job_sweeps.iter().take(8))
                .map(|&s| s as f64)
                .collect();
            median(&first)
        })
        .flatten();
    vec![
        ("ir.ops_in", sum(&|_, a| Some(a.ops_in as f64))),
        ("pattern.blocks", blocks),
        ("pattern.levels", levels),
        ("pattern.edges", sched_sum(|s| s.2)),
        (
            "pattern.mean_blocks_per_level",
            blocks.zip(levels).map(|(b, l)| b / l),
        ),
        ("core.ops_after", sum(&|_, a| Some(a.ops_after as f64))),
        (
            "core.vectorized_ops",
            sum(&|_, a| Some(a.vectorized as f64)),
        ),
        ("core.scalar_ops", sum(&|_, a| Some(a.scalar as f64))),
        ("exec.loads_per_point", loads),
        ("exec.stores_per_point", stores),
        (
            "exec.flops_per_point",
            per_point(|s, vf| s.scalar_flops as f64 + s.vector_flops as f64 * vf),
        ),
        (
            "exec.index_ops_per_point",
            per_point(|s, _| s.index_ops as f64),
        ),
        (
            "exec.bytes_per_point_computed",
            loads.zip(stores).map(|(l, s)| 8.0 * (l + s)),
        ),
        (
            "exec.schedules_computed",
            sum(&stat(|s, _| s.schedules_computed as f64)),
        ),
        (
            "exec.blocks_executed",
            sum(&stat(|s, _| s.blocks_executed as f64)),
        ),
        (
            "exec.wavefront_levels",
            sum(&stat(|s, _| s.wavefront_levels as f64)),
        ),
        ("solvers.sweeps_to_converge", solve_sweeps),
    ]
}

/// The host's probed peaks, taken in the same run as the kernels.
pub struct HostProbes {
    pub triad: Probe,
    pub fma: Probe,
    pub timer_ns: f64,
}

/// Every per-layer metric of a traced run, in registry order. `exact`
/// are the run's [`exact_counts`], `folded` the per-case probe items
/// folded over cases, `main_recs` the spans of the main flow (set-up
/// repetitions and steady phases, no probes).
pub fn per_layer(
    cases: &[&Case],
    accs: &[&Acc],
    exact: &Rows<f64>,
    folded: &[(&'static str, Option<f64>)],
    host: &HostProbes,
    main_recs: &[Rec],
) -> Rows<f64> {
    let mut vals: BTreeMap<&'static str, Option<f64>> = BTreeMap::new();
    vals.extend(exact.iter().copied());
    vals.extend(folded.iter().copied());

    // Set-up stages: what one pass over all cases costs.
    let stage_ms = |key: &str| -> Option<f64> {
        accs.iter()
            .map(|a| median(a.stage.get(key)?).map(|s| s * 1e3))
            .sum()
    };
    for (name, key) in [
        ("ir.build_ms", "ir.build"),
        ("ir.verify_ms", "ir.verify"),
        ("machine.autotune_ms", "machine.autotune"),
        ("core.compile_ms", "core.compile"),
        ("exec.engine_compile_ms", "exec.engine_compile"),
        ("exec.first_call_ms", "exec.first_call"),
    ] {
        vals.insert(name, stage_ms(key));
    }
    let steady_ms: Option<f64> = accs
        .iter()
        .map(|a| median(&a.sweeps_t1).map(|s| s * 1e3))
        .sum();
    vals.insert(
        "exec.first_call_excess_ms",
        stage_ms("exec.first_call")
            .zip(steady_ms)
            .map(|(f, s)| f - s),
    );
    vals.insert(
        "machine.autotune_candidates",
        Some(accs.iter().map(|a| a.autotune_candidates as f64).sum()),
    );

    // Spread of the steady one-thread sweeps.
    let geo = |f: &dyn Fn(&Case, &Acc) -> Option<f64>| -> Option<f64> {
        geomean(
            &cases
                .iter()
                .zip(accs)
                .map(|(c, a)| f(c, a))
                .collect::<Option<Vec<_>>>()?,
        )
    };
    let tails: Option<Vec<(f64, f64)>> = accs.iter().map(|a| tail(&a.sweeps_t1)).collect();
    vals.insert(
        "exec.sweep_tail_pct",
        tails.and_then(|t| t.iter().map(|(pct, _)| *pct).reduce(f64::min)),
    );
    vals.insert(
        "exec.sweep_tail_ns_per_point",
        geo(&|c, a| Some(tail(&a.sweeps_t1)?.1 * 1e9 / c.points() as f64)),
    );
    vals.insert("exec.sweep_iqr_frac", geo(&|_, a| iqr_frac(&a.sweeps_t1)));
    vals.insert(
        "exec.batched_over_eager",
        geo(&|_, a| {
            let sweeps = median(&a.job_sweeps.iter().map(|&s| s as f64).collect::<Vec<_>>())?;
            Some(median(&a.jobs)? / (sweeps * median(&a.sweeps_t1)?))
        }),
    );

    // Roofline: computed bytes (every counted load and store, cache hits
    // included) over the measured time, against the probed triad.
    let t1_ns = geo(&|c, a| Some(median(&a.sweeps_t1)? * 1e9 / c.points() as f64));
    let bytes = vals["exec.bytes_per_point_computed"];
    let gbs = bytes.zip(t1_ns).map(|(b, t)| b / t);
    vals.insert("exec.achieved_gbs_computed", gbs);
    vals.insert(
        "exec.flops_per_byte_computed",
        vals["exec.flops_per_point"].zip(bytes).map(|(f, b)| f / b),
    );
    vals.insert(
        "exec.bw_roofline_frac",
        gbs.zip(host.triad.trusted()).map(|(g, t)| g / t),
    );

    vals.insert(
        "solvers.max_abs_err",
        accs.iter().map(|a| a.max_err).reduce(f64::max),
    );
    vals.insert("bench.host_triad_gbs", Some(host.triad.mean()));
    vals.insert("bench.host_fma_gflops", Some(host.fma.mean()));
    vals.insert("bench.timer_ns", Some(host.timer_ns));
    vals.insert("bench.nproc", Some(crate::host::nproc() as f64));
    vals.insert(
        "bench.threads_resolved_tp",
        accs.first().map(|a| a.tp_threads as f64),
    );
    vals.insert(
        "bench.array_mib",
        Some(cases.iter().map(|c| c.array_bytes()).sum::<usize>() as f64 / 1048576.0),
    );

    // Where the main flow's wall went: self time per layer as a share of
    // the time spent inside the program, and the benchmark's own share
    // (inputs, checks, oracle) of everything.
    let by = self_time_by(main_recs, |r| (r.layer, r.name));
    let layer = |l: &str| {
        by.iter()
            .filter(|((layer, _), _)| *layer == l)
            .map(|(_, s)| s)
            .sum::<f64>()
    };
    let named = |names: &[&str]| {
        by.iter()
            .filter(|((l, n), _)| *l == "exec" && names.contains(n))
            .map(|(_, s)| s)
            .sum::<f64>()
    };
    let program = layer("ir") + layer("core") + layer("machine") + layer("exec");
    let all: f64 = by.values().sum();
    if program > 0.0 {
        vals.insert("ir.time_share", Some(layer("ir") / program));
        vals.insert("core.time_share", Some(layer("core") / program));
        vals.insert("machine.time_share", Some(layer("machine") / program));
        vals.insert(
            "exec.bind_share",
            Some(named(&["engine_compile", "first_call"]) / program),
        );
        vals.insert(
            "exec.steady_share",
            Some(named(&["sweep", "job", "solve", "checked_call"]) / program),
        );
        vals.insert("bench.self_share", Some((all - program) / all));
    }

    PER_LAYER
        .iter()
        .map(|d| (d.name, vals.get(d.name).copied().flatten()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use instencil::obs::Json;

    #[test]
    fn benchmark_json_lists_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = json
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn exact_names_are_registered_per_layer_metrics() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }

    #[test]
    fn scaling_metrics_are_na_when_tp_resolves_to_one_thread() {
        let case = crate::workloads::build("sor_solve_small")
            .unwrap()
            .cases
            .remove(0);
        let mut acc = Acc {
            sweeps_t1: vec![1e-3; 5],
            sweeps_tp: vec![1e-3; 5],
            tp_threads: 1,
            ..Acc::default()
        };
        let value = |rows: &Rows<Dist>, name: &str| {
            rows.iter()
                .find(|r| r.0 == name)
                .unwrap()
                .1
                .map(|d| d.value)
        };
        let rows = end_to_end(&[&case], &[&acc]);
        assert!(value(&rows, "sweep_ns_per_point_t1").is_some());
        assert_eq!(value(&rows, "sweep_ns_per_point_tp"), None);
        assert_eq!(value(&rows, "scaling_efficiency"), None);
        acc.tp_threads = 2;
        let rows = end_to_end(&[&case], &[&acc]);
        assert_eq!(value(&rows, "scaling_efficiency"), Some(0.5));
    }

    #[test]
    fn the_memo_filling_first_repetition_is_left_out() {
        assert_eq!(warm(&[9.0, 1.0, 2.0]), &[1.0, 2.0]);
        assert_eq!(warm(&[9.0]), &[9.0]);
    }
}
