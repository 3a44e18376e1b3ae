//! Observability integration: the runner's engine-fallback event, the
//! wavefront timelines recorded through real threads, and the guarantee
//! that `ObsLevel::Off` produces the byte-identical default report.

use instencil_core::kernels;
use instencil_core::pipeline::{
    compile, reference_module, CompiledModule, Engine, PipelineOptions, Scheduler,
};
use instencil_exec::buffer::BufferView;
use instencil_exec::driver::Runner;
use instencil_exec::RtVal;
use instencil_obs::trace::TraceKind;
use instencil_obs::{Obs, ObsLevel, RunReport};

fn gs5_buffers(n: usize) -> Vec<BufferView> {
    let w = BufferView::alloc(&[1, n, n]);
    for i in 0..n as i64 {
        for j in 0..n as i64 {
            w.store(&[0, i, j], ((i * 13 + j * 7) % 17) as f64 * 0.05);
        }
    }
    vec![w, BufferView::alloc(&[1, n, n])]
}

/// A runner bound to `c`'s own collector (the one its pipeline passes
/// were recorded into) and to its engine, thread and scheduler knobs,
/// after `iterations` sweeps of `gs5` over `buffers`.
fn run_compiled<'m>(
    c: &'m CompiledModule,
    buffers: &[BufferView],
    iterations: usize,
) -> Runner<'m> {
    let o = &c.options;
    let mut runner =
        Runner::with_opts(&c.module, o.engine, o.threads, o.scheduler, c.obs.clone()).unwrap();
    for _ in 0..iterations {
        let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
        runner.call("gs5", args).unwrap();
    }
    runner
}

#[test]
fn engine_fallback_is_an_event_surfaced_in_the_report() {
    // Reference modules keep structured cfd ops, which the bytecode
    // compiler rejects as Unsupported — the runner must fall back AND
    // say so, not just silently switch engines (regression: the
    // fallback used to be observable only as wall-clock time).
    let m = reference_module(&kernels::gauss_seidel_5pt_module()).unwrap();
    let obs = Obs::new(ObsLevel::Summary);
    let mut runner = Runner::with_obs(&m, Engine::Bytecode, 1, obs.clone()).unwrap();
    assert_eq!(runner.requested_engine(), Engine::Bytecode);
    assert_eq!(runner.engine(), Engine::Interp);
    assert!(runner.fallback_reason().unwrap().contains("unsupported"));

    let buffers = gs5_buffers(8);
    let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
    runner.call("gs5", args).unwrap();

    let report = runner.report();
    assert_eq!(report.engine.requested, "bytecode");
    assert_eq!(report.engine.actual, "interp");
    assert!(report
        .engine
        .fallback_reason
        .as_deref()
        .unwrap()
        .contains("unsupported"));
    assert!(
        report
            .events
            .iter()
            .any(|e| e.name == "engine-fallback" && e.detail.contains("unsupported")),
        "fallback must be recorded as an event"
    );
    assert_eq!(report.engine.calls, 1);
    assert!(report.exec_stats.is_some());
}

#[test]
fn no_fallback_event_when_bytecode_compiles() {
    let c = compile(
        &kernels::gauss_seidel_5pt_module(),
        &PipelineOptions::new(vec![4, 4], vec![2, 2]),
    )
    .unwrap();
    let obs = Obs::new(ObsLevel::Summary);
    let runner = Runner::with_obs(&c.module, Engine::Bytecode, 1, obs).unwrap();
    assert_eq!(runner.engine(), Engine::Bytecode);
    assert!(runner.fallback_reason().is_none());
    let report = runner.report();
    assert_eq!(report.engine.fallback_reason, None);
    assert!(report.events.iter().all(|e| e.name != "engine-fallback"));
    assert!(report.engine.compile_ns > 0, "compile span must be timed");
}

#[test]
fn worker_busy_never_exceeds_level_wall() {
    // Trace-level per-worker records across real threads: each worker's
    // busy time is contained in its level's barrier-to-barrier wall.
    let c = compile(
        &kernels::gauss_seidel_5pt_module(),
        &PipelineOptions::new(vec![4, 4], vec![2, 2])
            .threads(3)
            .obs(ObsLevel::Trace),
    )
    .unwrap();
    let buffers = gs5_buffers(16);
    run_compiled(&c, &buffers, 2);
    let rec = c.obs.snapshot();
    assert!(!rec.wavefronts.is_empty(), "wavefront records must exist");
    // The runner clamps explicit thread requests to the host's
    // available parallelism (oversubscription is never useful), so the
    // recorded count is the effective one.
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workers_seen = 0usize;
    for w in &rec.wavefronts {
        assert_eq!(w.threads, 3.min(host));
        for level in &w.levels {
            assert!(!level.workers.is_empty(), "Trace records per-worker detail");
            let executed: u64 = level.workers.iter().map(|x| x.blocks).sum();
            assert_eq!(executed, level.blocks, "every block attributed to a worker");
            for worker in &level.workers {
                workers_seen += 1;
                assert!(
                    worker.busy_ns <= level.wall_ns,
                    "worker busy {} > level wall {}",
                    worker.busy_ns,
                    level.wall_ns
                );
            }
        }
    }
    assert!(workers_seen > 0);
}

#[test]
fn summary_level_skips_worker_detail_but_keeps_level_walls() {
    let c = compile(
        &kernels::gauss_seidel_5pt_module(),
        &PipelineOptions::new(vec![4, 4], vec![2, 2])
            .threads(2)
            .obs(ObsLevel::Summary),
    )
    .unwrap();
    let buffers = gs5_buffers(16);
    run_compiled(&c, &buffers, 1);
    let rec = c.obs.snapshot();
    assert!(!rec.wavefronts.is_empty());
    for w in &rec.wavefronts {
        assert!(!w.levels.is_empty());
        for level in &w.levels {
            assert!(level.workers.is_empty(), "Summary keeps no worker detail");
        }
    }
}

#[test]
fn off_produces_the_byte_identical_default_report() {
    let c = compile(
        &kernels::gauss_seidel_5pt_module(),
        &PipelineOptions::new(vec![4, 4], vec![2, 2]), // obs: Off (default)
    )
    .unwrap();
    assert!(!c.obs.enabled());
    let buffers = gs5_buffers(12);
    let report = run_compiled(&c, &buffers, 2).report();
    assert_eq!(report, RunReport::default());
    assert_eq!(
        report.to_json().to_string(),
        RunReport::default().to_json().to_string(),
        "Off must serialize byte-identically to the default report"
    );
    assert_eq!(report.to_text(), RunReport::default().to_text());
}

#[test]
fn observed_runs_match_unobserved_runs_bit_for_bit() {
    // The collector must be read-only with respect to the computation:
    // identical results and ExecStats with obs Off vs Trace.
    let opts = PipelineOptions::new(vec![4, 4], vec![2, 2]).threads(2);
    let m = kernels::gauss_seidel_5pt_module();
    let c_off = compile(&m, &opts.clone()).unwrap();
    let c_trace = compile(&m, &opts.obs(ObsLevel::Trace)).unwrap();
    let b_off = gs5_buffers(16);
    let b_trace = gs5_buffers(16);
    let s_off = run_compiled(&c_off, &b_off, 3).stats();
    let s_trace = run_compiled(&c_trace, &b_trace, 3).stats();
    assert_eq!(b_off[0].to_vec(), b_trace[0].to_vec());
    assert_eq!(s_off, s_trace, "stats are obs-invariant");
}

#[test]
fn runspec_accepts_vector_loops_without_decline_events() {
    // Run specialization now compiles the vf-lowered inner-loop shape
    // (wide stripe rows over the vector ops + scalar recurrent chain),
    // so a vf8 module reports no declines, exactly like its scalar
    // sibling. A regression back to "vector ops in body" would resurrect
    // the 2.3× partial-vectorization pessimization silently — this test
    // makes it loud.
    for vf in [None, Some(4), Some(8)] {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2])
                .vectorize(vf)
                .obs(ObsLevel::Summary),
        )
        .unwrap();
        let runner = Runner::with_obs(&c.module, Engine::Bytecode, 1, c.obs.clone()).unwrap();
        assert_eq!(runner.engine(), Engine::Bytecode);
        let rec = c.obs.snapshot();
        assert!(
            rec.events.iter().all(|e| e.name != "runspec-decline"),
            "gs5 loops at vf={vf:?} all specialize (outer loops of the nest \
             decline with suppressed noise reasons only): {:?}",
            rec.events
        );
    }
}

#[test]
fn trace_rings_record_tasks_under_both_schedulers() {
    // Trace-level runs fill per-worker event rings with level/block Task
    // spans plus plan-cache events, under both the barrier (levels) and
    // the work-stealing (dataflow) scheduler; quieter levels leave the
    // rings untouched.
    for scheduler in [Scheduler::Levels, Scheduler::Dataflow] {
        let c = compile(
            &kernels::gauss_seidel_5pt_module(),
            &PipelineOptions::new(vec![4, 4], vec![2, 2])
                .threads(2)
                .scheduler(scheduler)
                .obs(ObsLevel::Trace),
        )
        .unwrap();
        let buffers = gs5_buffers(16);
        run_compiled(&c, &buffers, 2);
        let rec = c.obs.snapshot();
        assert!(!rec.rings.is_empty(), "{scheduler:?}: rings must exist");
        let tasks: usize = rec
            .rings
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.kind == TraceKind::Task)
            .count();
        assert!(tasks > 0, "{scheduler:?}: task events recorded");
        for ring in &rec.rings {
            assert!(ring.events.len() <= ring.capacity.max(2));
            for e in &ring.events {
                if e.kind.is_span() {
                    assert!(e.dur_ns > 0, "{scheduler:?}: spans carry a duration");
                }
            }
        }
        // The report folds the rings into histograms + a merged timeline.
        let report = RunReport::build(&c.obs);
        assert!(!report.trace.is_empty());
        assert!(report
            .histograms
            .iter()
            .any(|h| h.name == "task_ns" && h.count > 0));
        // And the driver exports the same rings as a valid Chrome trace.
        let runner = Runner::with_obs(&c.module, Engine::Bytecode, 2, c.obs.clone()).unwrap();
        let doc = runner.chrome_trace();
        instencil_obs::trace::validate_chrome_trace(&doc)
            .unwrap_or_else(|e| panic!("{scheduler:?}: {e}"));
        assert!(doc.contains("\"task\""));
    }

    // Summary collects wavefront records but never fills trace rings.
    let c = compile(
        &kernels::gauss_seidel_5pt_module(),
        &PipelineOptions::new(vec![4, 4], vec![2, 2])
            .threads(2)
            .obs(ObsLevel::Summary),
    )
    .unwrap();
    let buffers = gs5_buffers(16);
    run_compiled(&c, &buffers, 1);
    assert!(c.obs.snapshot().rings.is_empty());
}

#[test]
fn report_aggregates_sweeps_at_multiple_thread_counts() {
    let c = compile(
        &kernels::gauss_seidel_5pt_module(),
        &PipelineOptions::new(vec![4, 4], vec![2, 2]).obs(ObsLevel::Trace),
    )
    .unwrap();
    let buffers = gs5_buffers(16);
    for threads in [1usize, 2] {
        let mut runner =
            Runner::with_obs(&c.module, Engine::Bytecode, threads, c.obs.clone()).unwrap();
        for _ in 0..2 {
            let args: Vec<RtVal> = buffers.iter().cloned().map(RtVal::Buf).collect();
            runner.call("gs5", args).unwrap();
        }
    }
    let report = RunReport::build(&c.obs);
    let mut threads_seen: Vec<usize> = report.wavefronts.iter().map(|g| g.threads).collect();
    threads_seen.sort_unstable();
    threads_seen.dedup();
    // Requested counts are clamped to host parallelism before they
    // reach the pool, so on a single-core host both runs land in one
    // 1-thread group (with the sweeps merged accordingly).
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut expected: Vec<usize> = [1usize, 2].iter().map(|&t| t.min(host)).collect();
    expected.dedup();
    assert_eq!(threads_seen, expected, "effective thread counts grouped");
    let total_sweeps: usize = report.wavefronts.iter().map(|g| g.sweeps).sum();
    assert_eq!(total_sweeps, 4, "sweeps aggregated across groups");
    // Pipeline passes recorded at compile time are in the same report.
    assert!(report.passes.iter().any(|p| p.name == "tile"));
    assert!(report.engine.execute_ns > 0);
}
