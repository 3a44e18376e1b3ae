//! Scheduler-trace export: run the §4.3 LU-SGS solver under
//! `ObsLevel::Trace` with both wavefront schedulers and fold the
//! per-worker event rings into Chrome/Perfetto `trace_event` JSON —
//! one lane per worker showing task spans, steal/park instants, and
//! plan-cache hit/miss/compile events (open the files in
//! <https://ui.perfetto.dev> or `chrome://tracing`).
//!
//! ```text
//! cargo run --release --example trace_export
//! ```
//!
//! Writes `results/TRACE_lusgs_dataflow.json` and
//! `results/TRACE_lusgs_levels.json`, validating each against the
//! `trace_event` shape the viewers expect, and schema-validates the
//! accompanying run report (histogram quantiles included), and checks
//! the per-level accounting: the levels run records one level row per
//! wavefront level of each execute op, the dataflow run one all-blocks
//! row. This is the EXPERIMENTS.md "dataflow vs levels, seen in
//! Perfetto" recipe.

use instencil::core::pipeline::compile;
use instencil::obs::report::validate_report_json;
use instencil::obs::trace::{self, TraceKind};
use instencil::prelude::*;
use instencil::solvers::euler::NV;
use instencil::solvers::euler_codegen::euler_lusgs_module;
use instencil::solvers::lusgs::vortex_initial;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 12usize;
    let sweeps = 3usize;
    let threads = 4usize;
    let dt = 0.05;

    // The §4.3 recipe minus vectorization: at this demo scale VF=8
    // would leave single-iteration vector runs (below `MIN_RUN`), and
    // the trace wants the plan cache exercised — scalar inner runs of 8
    // specialize, so hits and compiles both show up in the timeline.
    let module = euler_lusgs_module(dt);
    let opts = PipelineOptions::new(vec![4, 4, 8], vec![2, 2, 8]).fuse(true);
    let compiled = compile(&module, &opts)?;
    let shape = [NV, n, n, n];
    std::fs::create_dir_all("results")?;

    for scheduler in [Scheduler::Dataflow, Scheduler::Levels] {
        // A fresh collector per scheduler keeps the two timelines apart;
        // the engine is driven directly (not through the `Runner`) so the
        // worker count is exactly `threads`, host parallelism
        // notwithstanding — the trace wants one lane per worker.
        let obs = Obs::new(ObsLevel::Trace);
        let mut engine = BytecodeEngine::compile_with_obs(&compiled.module, threads, obs.clone())?
            .with_scheduler(scheduler);

        let w0 = vortex_initial(n);
        let w = BufferView::from_data(&shape, w0.data().to_vec());
        let dw = BufferView::alloc(&shape);
        let b = BufferView::alloc(&shape);
        for _ in 0..sweeps {
            dw.fill(0.0);
            b.fill(0.0);
            let _sweep = obs.span("engine:execute");
            engine.call(
                "euler_step",
                vec![
                    RtVal::Buf(w.clone()),
                    RtVal::Buf(dw.clone()),
                    RtVal::Buf(b.clone()),
                ],
            )?;
        }

        // --- run report: schema-validated JSON with quantiles ----------
        let report = RunReport::build(&obs);
        validate_report_json(&report.to_json().to_string())?;
        let sweep_hist = report
            .histograms
            .iter()
            .find(|h| h.name == "sweep_ns")
            .ok_or("report must carry the sweep_ns histogram")?;
        assert_eq!(sweep_hist.count, sweeps as u64);
        assert!(
            report
                .histograms
                .iter()
                .any(|h| h.name == "task_ns" && h.count > 0),
            "task durations must be folded into a histogram"
        );

        // --- per-level accounting ---------------------------------------
        // Levels: one record per execute op, one level row per wavefront
        // level of its schedule (the generated schedules have no empty
        // levels). Dataflow: one all-blocks row per execute op.
        let rec = obs.snapshot();
        let stats = engine.stats;
        let rows: u64 = rec.wavefronts.iter().map(|w| w.levels.len() as u64).sum();
        let blocks: u64 = rec.wavefronts.iter().flat_map(|w| &w.levels).map(|l| l.blocks).sum();
        assert!(rec.wavefronts.iter().all(|w| w.scheduler == scheduler.name()));
        assert_eq!(blocks, stats.blocks_executed, "{scheduler:?}: every block in one row");
        match scheduler {
            Scheduler::Levels => assert_eq!(
                rows, stats.wavefront_levels,
                "levels: one level record per wavefront level of each execute op"
            ),
            Scheduler::Dataflow => assert!(
                rec.wavefronts.iter().all(|w| w.levels.len() == 1),
                "dataflow: one all-blocks record per execute op"
            ),
        }

        // --- Chrome/Perfetto trace_event export ------------------------
        let rings = trace::merge_rings(&rec.rings);
        let worker_lanes = rings
            .iter()
            .filter(|r| r.worker != trace::DRIVER && !r.events.is_empty())
            .count();
        assert!(
            worker_lanes >= 2,
            "{scheduler:?}: expected multiple worker lanes, got {worker_lanes}"
        );
        let all = || rings.iter().flat_map(|r| &r.events);
        assert!(all().any(|e| e.kind == TraceKind::Task));
        assert!(
            all().any(|e| matches!(
                e.kind,
                TraceKind::PlanHit | TraceKind::PlanMiss | TraceKind::PlanCompile
            )),
            "plan-cache activity must appear in the trace"
        );

        let doc = trace::chrome_trace(&rings, &rec.spans).to_string();
        trace::validate_chrome_trace(&doc)?;
        let path = format!("results/TRACE_lusgs_{}.json", scheduler.name());
        std::fs::write(&path, &doc)?;
        let events: u64 = rings.iter().map(|r| r.events.len() as u64).sum();
        let dropped: u64 = rings.iter().map(|r| r.dropped).sum();
        println!(
            "{path}: {threads} workers ({worker_lanes} active lanes), {events} ring events, \
             {dropped} dropped, {} bytes — sweep p50/p99 {} / {} ns",
            doc.len(),
            sweep_hist.p50_ns,
            sweep_hist.p99_ns,
        );
    }

    println!("ok: both traces validate as Chrome trace_event JSON");
    Ok(())
}
