//! The run report: a schema-versioned, machine-readable summary of one
//! compile-and-execute session, with a human-readable text twin.
//!
//! [`RunReport::build`] folds the raw [`crate::Recorded`] stream into
//! stable sections:
//!
//! * `passes` — spans named `pass:*` (the compilation pipeline) with
//!   their op-count notes;
//! * `engine` — requested/actual engine, the fallback reason if one
//!   fired, and the compile-vs-execute wall-time split (spans named
//!   `engine:compile` / `engine:execute`);
//! * `wavefronts` — per-level wall times with per-worker busy/idle
//!   breakdowns, grouped by thread count and aggregated across sweeps;
//! * `autotune` — the candidate table with the winner marked;
//! * `exec_stats` — the dynamic `ExecStats` counters (attached by the
//!   exec layer as JSON, since this crate sits below it);
//! * `histograms` — log-linear latency distributions
//!   ([`crate::hist::LogHist`]) of per-sweep (`sweep_ns`, from
//!   `engine:execute` spans) and per-task (`task_ns`, from trace rings)
//!   durations, with p50/p90/p99 quantiles;
//! * `trace` — merged per-worker scheduler event rings
//!   ([`ObsLevel::Trace`] only; see [`crate::trace`]);
//! * `events`, `spans` — the raw streams (spans only at
//!   [`ObsLevel::Trace`]).
//!
//! The JSON schema is versioned by [`SCHEMA_VERSION`]; consumers (and
//! the CI smoke check) validate documents with
//! [`validate_report_json`], which rejects unknown or missing top-level
//! keys so schema drift fails loudly instead of silently.

use std::fmt::Write as _;

use crate::hist::LogHist;
use crate::json::Json;
use crate::trace::{TraceKind, WorkerRing};
use crate::{Obs, ObsLevel, Recorded, SpanRecord};

/// Version of the JSON report schema. Bump when adding, removing or
/// re-typing a key. (v2 added `histograms` and `trace`; v3 added the
/// per-event `sweep` tag on trace events — the batch lane of cross-sweep
/// temporal tiling — and made `wavefronts[].sweeps` count sweeps, not
/// executions; v4 added `engine.plan_builds` and `engine.plan_reuses`;
/// v5 added `engine.short_run_points`.)
pub const SCHEMA_VERSION: u32 = 5;

/// The exact top-level keys of a version-[`SCHEMA_VERSION`] report.
pub const TOP_LEVEL_KEYS: [&str; 11] = [
    "schema_version",
    "level",
    "passes",
    "engine",
    "wavefronts",
    "autotune",
    "exec_stats",
    "histograms",
    "events",
    "trace",
    "spans",
];

/// One pipeline pass (a top-level `pass:*` span).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassReport {
    /// Pass name (the span name with the `pass:` prefix stripped).
    pub name: String,
    /// Wall time, nanoseconds.
    pub wall_ns: u64,
    /// Module op count entering the pass (from the `ops_before` note).
    pub ops_before: Option<i64>,
    /// Module op count leaving the pass (from the `ops_after` note).
    pub ops_after: Option<i64>,
}

/// Engine selection and compile/execute split.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineReport {
    /// Engine the caller asked for (`"none"` when no engine ran).
    pub requested: String,
    /// Engine that actually executed (after any fallback).
    pub actual: String,
    /// Why the runner fell back, when it did.
    pub fallback_reason: Option<String>,
    /// Total `engine:compile` span time, nanoseconds.
    pub compile_ns: u64,
    /// Total `engine:execute` span time, nanoseconds.
    pub execute_ns: u64,
    /// Number of `engine:execute` spans (calls/sweeps).
    pub calls: u64,
    /// Run-specialization plans built (plan-cache misses).
    pub plan_builds: u64,
    /// Run-specialization plans reused (plan-cache hits).
    pub plan_reuses: u64,
    /// Points of run-specialized loops that ran on the generic loop
    /// because their run was shorter than the fast rung's minimum.
    pub short_run_points: u64,
}

impl Default for EngineReport {
    fn default() -> Self {
        EngineReport {
            requested: "none".into(),
            actual: "none".into(),
            fallback_reason: None,
            compile_ns: 0,
            execute_ns: 0,
            calls: 0,
            plan_builds: 0,
            plan_reuses: 0,
            short_run_points: 0,
        }
    }
}

/// One worker's aggregate within one wavefront level.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerSummary {
    /// Mean busy time per sweep, nanoseconds.
    pub busy_ns: u64,
    /// Mean idle time per sweep (level wall − busy), nanoseconds.
    pub idle_ns: u64,
    /// Mean blocks executed per sweep.
    pub blocks: u64,
    /// Mean tasks stolen from other workers per sweep (dataflow
    /// scheduler only; 0 under levels).
    pub steals: u64,
    /// Mean total steal distance per sweep (see
    /// [`instencil_obs` `WorkerRecord::steal_dist`](crate::WorkerRecord::steal_dist)).
    pub steal_dist: u64,
    /// Mean blocks per sweep executed as coarsened chain mates (see
    /// [`WorkerRecord::fused`](crate::WorkerRecord::fused)).
    pub fused: u64,
}

/// One wavefront level, aggregated across sweeps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LevelSummary {
    /// Level index within the schedule.
    pub index: usize,
    /// Blocks scheduled in this level (its width).
    pub blocks: u64,
    /// Mean wall time per sweep, nanoseconds.
    pub wall_ns: u64,
    /// Per-worker breakdown (empty below [`ObsLevel::Trace`]).
    pub workers: Vec<WorkerSummary>,
    /// Load imbalance: max worker busy over mean worker busy (1.0 =
    /// perfectly balanced; 0.0 when no worker detail was recorded).
    pub imbalance: f64,
}

/// All wavefront executions at one thread count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WavefrontGroup {
    /// Worker threads.
    pub threads: usize,
    /// Scheduler tag (`"levels"` or `"dataflow"`). Dataflow executions
    /// report as a single all-blocks level (no barriers to split on).
    pub scheduler: String,
    /// Total sweeps aggregated (a batched execution contributes its
    /// whole batch depth, an eager one contributes 1), so per-sweep
    /// means stay comparable across batch depths.
    pub sweeps: usize,
    /// Per-level aggregates.
    pub levels: Vec<LevelSummary>,
}

/// One autotune candidate in the report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CandidateReport {
    /// Cache-tile sizes.
    pub tile: Vec<usize>,
    /// Derived sub-domain sizes.
    pub subdomain: Vec<usize>,
    /// Cost-model score (estimated sweep seconds) when evaluated.
    pub score_s: Option<f64>,
    /// `"evaluated"` or the rejection reason.
    pub verdict: String,
    /// Whether this candidate won.
    pub chosen: bool,
}

/// One autotune search in the report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AutotuneReport {
    /// Problem domain searched over.
    pub domain: Vec<usize>,
    /// Thread count tuned for.
    pub threads: usize,
    /// Candidates scored by the cost model.
    pub evaluated: usize,
    /// The candidate table (winner only at [`ObsLevel::Summary`]).
    pub candidates: Vec<CandidateReport>,
}

/// One latency distribution (see [`crate::hist::LogHist`]): quantiles
/// carry at most 2^-[`crate::hist::SUB_BITS`] (≈3%) relative error.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistReport {
    /// Metric name: `"sweep_ns"` (per `engine:execute` call) or
    /// `"task_ns"` (per traced task event).
    pub name: String,
    /// Values recorded.
    pub count: u64,
    /// Smallest value, nanoseconds.
    pub min_ns: u64,
    /// Largest value, nanoseconds.
    pub max_ns: u64,
    /// Exact arithmetic mean, nanoseconds.
    pub mean_ns: f64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

impl HistReport {
    /// Extracts the report row from a histogram.
    pub fn from_hist(name: &str, h: &LogHist) -> HistReport {
        HistReport {
            name: name.to_owned(),
            count: h.count(),
            min_ns: h.min(),
            max_ns: h.max(),
            mean_ns: h.mean(),
            p50_ns: h.p50(),
            p90_ns: h.p90(),
            p99_ns: h.p99(),
        }
    }
}

/// A point event in the report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventReport {
    /// Offset from the collector epoch, nanoseconds.
    pub t_ns: u64,
    /// Event name.
    pub name: String,
    /// Detail string.
    pub detail: String,
}

/// The full run report. `Default` is the canonical empty report — what
/// any [`ObsLevel::Off`] run must produce, byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Collector level the report was recorded at.
    pub level: ObsLevel,
    /// Pipeline passes in completion order.
    pub passes: Vec<PassReport>,
    /// Engine selection and compile/execute split.
    pub engine: EngineReport,
    /// Wavefront timings grouped by thread count.
    pub wavefronts: Vec<WavefrontGroup>,
    /// Autotune searches.
    pub autotune: Vec<AutotuneReport>,
    /// Dynamic execution counters, attached by the exec layer.
    pub exec_stats: Option<Json>,
    /// Latency distributions (empty rows are omitted).
    pub histograms: Vec<HistReport>,
    /// Point events.
    pub events: Vec<EventReport>,
    /// Merged per-worker trace rings ([`ObsLevel::Trace`] only).
    pub trace: Vec<WorkerRing>,
    /// Raw span dump ([`ObsLevel::Trace`] only).
    pub spans: Vec<SpanRecord>,
}

impl Default for RunReport {
    fn default() -> Self {
        RunReport {
            schema_version: SCHEMA_VERSION,
            level: ObsLevel::Off,
            passes: Vec::new(),
            engine: EngineReport::default(),
            wavefronts: Vec::new(),
            autotune: Vec::new(),
            exec_stats: None,
            histograms: Vec::new(),
            events: Vec::new(),
            trace: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl RunReport {
    /// Builds the structured report from a collector's records. An
    /// [`ObsLevel::Off`] collector yields exactly
    /// [`RunReport::default`].
    pub fn build(obs: &Obs) -> RunReport {
        if !obs.enabled() {
            return RunReport::default();
        }
        let rec = obs.snapshot();
        let mut report = RunReport {
            level: obs.level(),
            ..RunReport::default()
        };
        report.passes = build_passes(&rec);
        report.engine = build_engine(&rec);
        report.wavefronts = build_wavefronts(&rec);
        report.autotune = rec
            .autotune
            .iter()
            .map(|t| AutotuneReport {
                domain: t.domain.clone(),
                threads: t.threads,
                evaluated: t.evaluated,
                candidates: t
                    .candidates
                    .iter()
                    .map(|c| CandidateReport {
                        tile: c.tile.clone(),
                        subdomain: c.subdomain.clone(),
                        score_s: c.score_s,
                        verdict: c.verdict.clone(),
                        chosen: c.chosen,
                    })
                    .collect(),
            })
            .collect();
        report.events = rec
            .events
            .iter()
            .map(|e| EventReport {
                t_ns: e.t_ns,
                name: e.name.clone(),
                detail: e.detail.clone(),
            })
            .collect();
        let mut sweep = LogHist::new();
        for s in rec.spans.iter().filter(|s| s.name == "engine:execute") {
            sweep.record(s.dur_ns);
        }
        let rings = crate::trace::merge_rings(&rec.rings);
        let mut task = LogHist::new();
        for e in rings.iter().flat_map(|r| &r.events) {
            if e.kind == TraceKind::Task {
                task.record(e.dur_ns);
            }
        }
        for (name, h) in [("sweep_ns", &sweep), ("task_ns", &task)] {
            if h.count() > 0 {
                report.histograms.push(HistReport::from_hist(name, h));
            }
        }
        report.trace = rings;
        if obs.level() == ObsLevel::Trace {
            report.spans = rec.spans.clone();
        }
        report
    }

    /// Serializes to the version-[`SCHEMA_VERSION`] JSON document. All
    /// top-level keys are always present ([`TOP_LEVEL_KEYS`]).
    pub fn to_json(&self) -> Json {
        let passes = self
            .passes
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&p.name)),
                    ("wall_ns".into(), Json::num(p.wall_ns as f64)),
                    ("ops_before".into(), opt_i64(p.ops_before)),
                    ("ops_after".into(), opt_i64(p.ops_after)),
                ])
            })
            .collect();
        let engine = Json::Obj(vec![
            ("requested".into(), Json::str(&self.engine.requested)),
            ("actual".into(), Json::str(&self.engine.actual)),
            (
                "fallback_reason".into(),
                self.engine
                    .fallback_reason
                    .as_ref()
                    .map_or(Json::Null, Json::str),
            ),
            (
                "compile_ns".into(),
                Json::num(self.engine.compile_ns as f64),
            ),
            (
                "execute_ns".into(),
                Json::num(self.engine.execute_ns as f64),
            ),
            ("calls".into(), Json::num(self.engine.calls as f64)),
            (
                "plan_builds".into(),
                Json::num(self.engine.plan_builds as f64),
            ),
            (
                "plan_reuses".into(),
                Json::num(self.engine.plan_reuses as f64),
            ),
            (
                "short_run_points".into(),
                Json::num(self.engine.short_run_points as f64),
            ),
        ]);
        let wavefronts = self
            .wavefronts
            .iter()
            .map(|g| {
                Json::Obj(vec![
                    ("threads".into(), Json::num(g.threads as f64)),
                    ("scheduler".into(), Json::str(&g.scheduler)),
                    ("sweeps".into(), Json::num(g.sweeps as f64)),
                    (
                        "levels".into(),
                        Json::Arr(
                            g.levels
                                .iter()
                                .map(|l| {
                                    Json::Obj(vec![
                                        ("index".into(), Json::num(l.index as f64)),
                                        ("blocks".into(), Json::num(l.blocks as f64)),
                                        ("wall_ns".into(), Json::num(l.wall_ns as f64)),
                                        ("imbalance".into(), Json::Num(l.imbalance)),
                                        (
                                            "workers".into(),
                                            Json::Arr(
                                                l.workers
                                                    .iter()
                                                    .map(|w| {
                                                        Json::Obj(vec![
                                                            (
                                                                "busy_ns".into(),
                                                                Json::num(w.busy_ns as f64),
                                                            ),
                                                            (
                                                                "idle_ns".into(),
                                                                Json::num(w.idle_ns as f64),
                                                            ),
                                                            (
                                                                "blocks".into(),
                                                                Json::num(w.blocks as f64),
                                                            ),
                                                            (
                                                                "steals".into(),
                                                                Json::num(w.steals as f64),
                                                            ),
                                                            (
                                                                "steal_dist".into(),
                                                                Json::num(w.steal_dist as f64),
                                                            ),
                                                            (
                                                                "fused".into(),
                                                                Json::num(w.fused as f64),
                                                            ),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let autotune = self
            .autotune
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("domain".into(), usize_arr(&t.domain)),
                    ("threads".into(), Json::num(t.threads as f64)),
                    ("evaluated".into(), Json::num(t.evaluated as f64)),
                    (
                        "candidates".into(),
                        Json::Arr(
                            t.candidates
                                .iter()
                                .map(|c| {
                                    Json::Obj(vec![
                                        ("tile".into(), usize_arr(&c.tile)),
                                        ("subdomain".into(), usize_arr(&c.subdomain)),
                                        (
                                            "score_s".into(),
                                            c.score_s.map_or(Json::Null, Json::Num),
                                        ),
                                        ("verdict".into(), Json::str(&c.verdict)),
                                        ("chosen".into(), Json::Bool(c.chosen)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("t_ns".into(), Json::num(e.t_ns as f64)),
                    ("name".into(), Json::str(&e.name)),
                    ("detail".into(), Json::str(&e.detail)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&h.name)),
                    ("count".into(), Json::num(h.count as f64)),
                    ("min_ns".into(), Json::num(h.min_ns as f64)),
                    ("max_ns".into(), Json::num(h.max_ns as f64)),
                    ("mean_ns".into(), Json::Num(h.mean_ns)),
                    ("p50_ns".into(), Json::num(h.p50_ns as f64)),
                    ("p90_ns".into(), Json::num(h.p90_ns as f64)),
                    ("p99_ns".into(), Json::num(h.p99_ns as f64)),
                ])
            })
            .collect();
        let trace = self
            .trace
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("worker".into(), Json::num(f64::from(r.worker))),
                    ("capacity".into(), Json::num(r.capacity as f64)),
                    ("dropped".into(), Json::num(r.dropped as f64)),
                    (
                        "events".into(),
                        Json::Arr(
                            r.events
                                .iter()
                                .map(|e| {
                                    Json::Obj(vec![
                                        ("t_ns".into(), Json::num(e.t_ns as f64)),
                                        ("dur_ns".into(), Json::num(e.dur_ns as f64)),
                                        ("kind".into(), Json::str(e.kind.name())),
                                        ("a".into(), Json::num(f64::from(e.a))),
                                        ("b".into(), Json::num(f64::from(e.b))),
                                        ("sweep".into(), Json::num(f64::from(e.sweep))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::num(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                    ),
                    ("name".into(), Json::str(&s.name)),
                    ("thread".into(), Json::str(&s.thread)),
                    ("start_ns".into(), Json::num(s.start_ns as f64)),
                    ("dur_ns".into(), Json::num(s.dur_ns as f64)),
                    (
                        "notes".into(),
                        Json::Obj(
                            s.notes
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::num(f64::from(self.schema_version)),
            ),
            ("level".into(), Json::str(self.level.name())),
            ("passes".into(), Json::Arr(passes)),
            ("engine".into(), engine),
            ("wavefronts".into(), Json::Arr(wavefronts)),
            ("autotune".into(), Json::Arr(autotune)),
            (
                "exec_stats".into(),
                self.exec_stats.clone().unwrap_or(Json::Null),
            ),
            ("histograms".into(), Json::Arr(histograms)),
            ("events".into(), Json::Arr(events)),
            ("trace".into(), Json::Arr(trace)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }

    /// Renders the human-readable text summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== run report (schema v{}, level {}) ==",
            self.schema_version,
            self.level.name()
        );
        if !self.passes.is_empty() {
            let _ = writeln!(out, "\n-- pipeline passes --");
            let _ = writeln!(out, "{:<22} {:>12} {:>9} {:>9}", "pass", "wall", "ops in", "ops out");
            for p in &self.passes {
                let _ = writeln!(
                    out,
                    "{:<22} {:>12} {:>9} {:>9}",
                    p.name,
                    fmt_ns(p.wall_ns),
                    p.ops_before.map_or("-".into(), |n| n.to_string()),
                    p.ops_after.map_or("-".into(), |n| n.to_string()),
                );
            }
        }
        let runs = self.engine.plan_builds + self.engine.plan_reuses + self.engine.short_run_points;
        if self.engine.actual != "none" || self.engine.requested != "none" || runs > 0 {
            let _ = writeln!(out, "\n-- engine --");
            let _ = writeln!(
                out,
                "requested {} -> ran {}{}",
                self.engine.requested,
                self.engine.actual,
                self.engine
                    .fallback_reason
                    .as_deref()
                    .map(|r| format!("  (fallback: {r})"))
                    .unwrap_or_default()
            );
            let _ = writeln!(
                out,
                "compile {} | execute {} over {} call(s)",
                fmt_ns(self.engine.compile_ns),
                fmt_ns(self.engine.execute_ns),
                self.engine.calls
            );
            let _ = writeln!(
                out,
                "run plans: {} built, {} reused; {} short-run point(s)",
                self.engine.plan_builds, self.engine.plan_reuses, self.engine.short_run_points
            );
        }
        for g in &self.wavefronts {
            let _ = writeln!(
                out,
                "\n-- wavefronts [{}] @ {} thread(s), {} sweep(s) (means per sweep) --",
                g.scheduler, g.threads, g.sweeps
            );
            let _ = writeln!(
                out,
                "{:>5} {:>7} {:>12} {:>10}  worker busy/idle",
                "level", "blocks", "wall", "imbalance"
            );
            for l in &g.levels {
                let workers = l
                    .workers
                    .iter()
                    .map(|w| {
                        let stolen = if w.steals > 0 {
                            format!("(+{} stolen, dist {})", w.steals, w.steal_dist)
                        } else {
                            String::new()
                        };
                        let fused = if w.fused > 0 {
                            format!("(~{} fused)", w.fused)
                        } else {
                            String::new()
                        };
                        format!("{}/{}{stolen}{fused}", fmt_ns(w.busy_ns), fmt_ns(w.idle_ns))
                    })
                    .collect::<Vec<_>>()
                    .join(" ");
                let _ = writeln!(
                    out,
                    "{:>5} {:>7} {:>12} {:>10}  {}",
                    l.index,
                    l.blocks,
                    fmt_ns(l.wall_ns),
                    if l.imbalance > 0.0 {
                        format!("{:.2}", l.imbalance)
                    } else {
                        "-".into()
                    },
                    workers
                );
            }
            let steals: u64 = g.levels.iter().flat_map(|l| &l.workers).map(|w| w.steals).sum();
            let dist: u64 = g.levels.iter().flat_map(|l| &l.workers).map(|w| w.steal_dist).sum();
            let fused: u64 = g.levels.iter().flat_map(|l| &l.workers).map(|w| w.fused).sum();
            if steals > 0 || fused > 0 {
                let mean_dist = if steals > 0 { dist as f64 / steals as f64 } else { 0.0 };
                let _ = writeln!(
                    out,
                    "totals: {steals} steal(s) (mean dist {mean_dist:.1}), {fused} fused block(s)"
                );
            }
        }
        for t in &self.autotune {
            let _ = writeln!(
                out,
                "\n-- autotune: domain {:?}, {} thread(s), {} candidate(s) scored --",
                t.domain, t.threads, t.evaluated
            );
            let _ = writeln!(
                out,
                "{:<18} {:<18} {:>12} {:<18}",
                "tile", "subdomain", "score", "verdict"
            );
            for c in &t.candidates {
                let _ = writeln!(
                    out,
                    "{:<18} {:<18} {:>12} {:<18} {}",
                    format!("{:?}", c.tile),
                    format!("{:?}", c.subdomain),
                    c.score_s.map_or("-".into(), |s| format!("{s:.3e} s")),
                    c.verdict,
                    if c.chosen { "<== chosen" } else { "" }
                );
            }
        }
        if let Some(stats) = &self.exec_stats {
            let _ = writeln!(out, "\n-- exec stats --");
            if let Json::Obj(members) = stats {
                for (k, v) in members {
                    let _ = writeln!(out, "{k:<28} {v}");
                }
            } else {
                let _ = writeln!(out, "{stats}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\n-- latency histograms --");
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "metric", "count", "p50", "p90", "p99", "max"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    h.name,
                    h.count,
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p90_ns),
                    fmt_ns(h.p99_ns),
                    fmt_ns(h.max_ns)
                );
            }
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "\n-- events --");
            for e in &self.events {
                let _ = writeln!(out, "[{:>12}] {}: {}", fmt_ns(e.t_ns), e.name, e.detail);
            }
        }
        if !self.trace.is_empty() {
            let lane_events: usize = self.trace.iter().map(|r| r.events.len()).sum();
            let dropped: u64 = self.trace.iter().map(|r| r.dropped).sum();
            let _ = writeln!(
                out,
                "\n-- trace rings: {} lane(s), {} event(s), {} dropped (full timeline in JSON) --",
                self.trace.len(),
                lane_events,
                dropped
            );
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\n({} raw spans in the JSON report)", self.spans.len());
        }
        out
    }
}

fn opt_i64(v: Option<i64>) -> Json {
    v.map_or(Json::Null, |n| Json::num(n as f64))
}

fn usize_arr(v: &[usize]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::num(x as f64)).collect())
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn build_passes(rec: &Recorded) -> Vec<PassReport> {
    rec.spans
        .iter()
        .filter_map(|s| {
            let name = s.name.strip_prefix("pass:")?;
            let note = |key: &str| s.notes.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
            Some(PassReport {
                name: name.to_owned(),
                wall_ns: s.dur_ns,
                ops_before: note("ops_before"),
                ops_after: note("ops_after"),
            })
        })
        .collect()
}

fn build_engine(rec: &Recorded) -> EngineReport {
    let mut engine = EngineReport {
        plan_builds: rec.plan_builds,
        plan_reuses: rec.plan_reuses,
        short_run_points: rec.short_run_points,
        ..EngineReport::default()
    };
    for s in &rec.spans {
        match s.name.as_str() {
            "engine:compile" => engine.compile_ns += s.dur_ns,
            "engine:execute" => {
                engine.execute_ns += s.dur_ns;
                engine.calls += 1;
            }
            _ => {}
        }
    }
    if let Some(e) = rec.events.iter().find(|e| e.name == "engine-fallback") {
        engine.fallback_reason = Some(e.detail.clone());
    }
    engine
}

fn build_wavefronts(rec: &Recorded) -> Vec<WavefrontGroup> {
    // Group executions by (threads, scheduler, level count) and average
    // per level across sweeps; block counts come from the first sweep
    // (the schedule is identical every sweep).
    #[allow(clippy::type_complexity)]
    let mut groups: Vec<(usize, &str, usize, Vec<&crate::WavefrontRecord>)> = Vec::new();
    for w in &rec.wavefronts {
        match groups.iter_mut().find(|(t, s, n, _)| {
            *t == w.threads && *s == w.scheduler && *n == w.levels.len()
        }) {
            Some((_, _, _, members)) => members.push(w),
            None => groups.push((w.threads, &w.scheduler, w.levels.len(), vec![w])),
        }
    }
    groups
        .into_iter()
        .map(|(threads, scheduler, n_levels, members)| {
            // Per-sweep means divide by the sweeps *covered*, not the
            // execution count — a k-deep batched drain is one record
            // but k sweeps of work.
            let sweeps = members.iter().map(|m| m.sweeps.max(1)).sum::<usize>();
            let levels = (0..n_levels)
                .map(|li| {
                    let first = &members[0].levels[li];
                    let wall_ns = members.iter().map(|m| m.levels[li].wall_ns).sum::<u64>()
                        / sweeps as u64;
                    let n_workers = first.workers.len();
                    let workers: Vec<WorkerSummary> = (0..n_workers)
                        .map(|wi| {
                            let busy_ns = members
                                .iter()
                                .map(|m| {
                                    m.levels[li].workers.get(wi).map_or(0, |w| w.busy_ns)
                                })
                                .sum::<u64>()
                                / sweeps as u64;
                            let blocks = members
                                .iter()
                                .map(|m| m.levels[li].workers.get(wi).map_or(0, |w| w.blocks))
                                .sum::<u64>()
                                / sweeps as u64;
                            let mean_of = |f: &dyn Fn(&crate::WorkerRecord) -> u64| {
                                members
                                    .iter()
                                    .map(|m| m.levels[li].workers.get(wi).map_or(0, f))
                                    .sum::<u64>()
                                    / sweeps as u64
                            };
                            WorkerSummary {
                                busy_ns,
                                idle_ns: wall_ns.saturating_sub(busy_ns),
                                blocks,
                                steals: mean_of(&|w| w.steals),
                                steal_dist: mean_of(&|w| w.steal_dist),
                                fused: mean_of(&|w| w.fused),
                            }
                        })
                        .collect();
                    let imbalance = if workers.is_empty() {
                        0.0
                    } else {
                        let max = workers.iter().map(|w| w.busy_ns).max().unwrap_or(0) as f64;
                        let mean = workers.iter().map(|w| w.busy_ns as f64).sum::<f64>()
                            / workers.len() as f64;
                        if mean > 0.0 {
                            max / mean
                        } else {
                            0.0
                        }
                    };
                    LevelSummary {
                        index: li,
                        blocks: first.blocks,
                        wall_ns,
                        workers,
                        imbalance,
                    }
                })
                .collect();
            WavefrontGroup {
                threads,
                scheduler: scheduler.to_owned(),
                sweeps,
                levels,
            }
        })
        .collect()
}

/// Validates a serialized report against the version-[`SCHEMA_VERSION`]
/// schema: the document must parse, be an object with *exactly* the
/// [`TOP_LEVEL_KEYS`] (unknown or missing keys are errors), carry the
/// current `schema_version`, and type-check section by section.
///
/// # Errors
/// Returns a description of the first violation.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let keys = doc.keys();
    if keys.is_empty() && !matches!(doc, Json::Obj(_)) {
        return Err("top level must be an object".into());
    }
    for expected in TOP_LEVEL_KEYS {
        if !keys.contains(&expected) {
            return Err(format!("missing top-level key `{expected}`"));
        }
    }
    for key in &keys {
        if !TOP_LEVEL_KEYS.contains(key) {
            return Err(format!("unknown top-level key `{key}`"));
        }
    }
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("schema_version must be a number")?;
    if version != f64::from(SCHEMA_VERSION) {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    let level = doc
        .get("level")
        .and_then(Json::as_str)
        .ok_or("level must be a string")?;
    if !["off", "summary", "trace"].contains(&level) {
        return Err(format!("unknown level `{level}`"));
    }
    for section in ["passes", "wavefronts", "autotune", "histograms", "events", "trace", "spans"] {
        if doc.get(section).and_then(Json::as_arr).is_none() {
            return Err(format!("`{section}` must be an array"));
        }
    }
    for (i, h) in doc.get("histograms").unwrap().as_arr().unwrap().iter().enumerate() {
        if h.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("`histograms[{i}].name` must be a string"));
        }
        for field in ["count", "min_ns", "max_ns", "mean_ns", "p50_ns", "p90_ns", "p99_ns"] {
            if h.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("`histograms[{i}].{field}` must be a number"));
            }
        }
    }
    for (i, lane) in doc.get("trace").unwrap().as_arr().unwrap().iter().enumerate() {
        for field in ["worker", "capacity", "dropped"] {
            if lane.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("`trace[{i}].{field}` must be a number"));
            }
        }
        let events = lane
            .get("events")
            .and_then(Json::as_arr)
            .ok_or(format!("`trace[{i}].events` must be an array"))?;
        for (j, e) in events.iter().enumerate() {
            for field in ["t_ns", "dur_ns", "a", "b", "sweep"] {
                if e.get(field).and_then(Json::as_f64).is_none() {
                    return Err(format!("`trace[{i}].events[{j}].{field}` must be a number"));
                }
            }
            let kind = e
                .get("kind")
                .and_then(Json::as_str)
                .ok_or(format!("`trace[{i}].events[{j}].kind` must be a string"))?;
            if TraceKind::parse(kind).is_none() {
                return Err(format!("`trace[{i}].events[{j}].kind` unknown: `{kind}`"));
            }
        }
    }
    let engine = doc.get("engine").ok_or("missing engine")?;
    if !matches!(engine, Json::Obj(_)) {
        return Err("`engine` must be an object".into());
    }
    for field in ["requested", "actual", "compile_ns", "execute_ns", "calls"] {
        if engine.get(field).is_none() {
            return Err(format!("`engine.{field}` missing"));
        }
    }
    for field in ["plan_builds", "plan_reuses", "short_run_points"] {
        if engine.get(field).and_then(Json::as_f64).is_none() {
            return Err(format!("`engine.{field}` must be a number"));
        }
    }
    match doc.get("exec_stats") {
        Some(Json::Null | Json::Obj(_)) => {}
        _ => return Err("`exec_stats` must be an object or null".into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutotuneCandidate, AutotuneTrace, LevelRecord, WavefrontRecord, WorkerRecord};

    #[test]
    fn off_collector_builds_the_default_report_byte_identically() {
        let from_off = RunReport::build(&Obs::off());
        assert_eq!(from_off, RunReport::default());
        assert_eq!(
            from_off.to_json().to_string(),
            RunReport::default().to_json().to_string(),
            "Off must serialize byte-identically to the default report"
        );
        assert_eq!(from_off.to_text(), RunReport::default().to_text());
    }

    #[test]
    fn default_report_validates() {
        validate_report_json(&RunReport::default().to_json().to_string()).unwrap();
    }

    #[test]
    fn passes_come_from_pass_spans_with_notes() {
        let obs = Obs::new(ObsLevel::Summary);
        {
            let mut s = obs.span("pass:tile");
            s.note("ops_before", 12);
            s.note("ops_after", 40);
        }
        {
            let _other = obs.span("engine:compile");
        }
        let report = obs.report();
        assert_eq!(report.passes.len(), 1);
        assert_eq!(report.passes[0].name, "tile");
        assert_eq!(report.passes[0].ops_before, Some(12));
        assert_eq!(report.passes[0].ops_after, Some(40));
        assert!(report.engine.compile_ns > 0 || report.engine.calls == 0);
    }

    #[test]
    fn wavefront_groups_aggregate_sweeps_and_derive_imbalance() {
        let obs = Obs::new(ObsLevel::Trace);
        for _ in 0..2 {
            obs.record_wavefronts(WavefrontRecord {
                threads: 2,
                scheduler: "levels".into(),
                sweeps: 1,
                levels: vec![LevelRecord {
                    index: 0,
                    blocks: 4,
                    wall_ns: 100,
                    workers: vec![
                        WorkerRecord {
                            busy_ns: 90,
                            blocks: 2,
                            ..WorkerRecord::default()
                        },
                        WorkerRecord {
                            busy_ns: 30,
                            blocks: 2,
                            ..WorkerRecord::default()
                        },
                    ],
                }],
            });
        }
        let report = obs.report();
        assert_eq!(report.wavefronts.len(), 1);
        let g = &report.wavefronts[0];
        assert_eq!((g.threads, g.sweeps), (2, 2));
        assert_eq!(g.scheduler, "levels");
        let l = &g.levels[0];
        assert_eq!(l.wall_ns, 100);
        assert_eq!(l.workers[0].busy_ns, 90);
        assert_eq!(l.workers[0].idle_ns, 10);
        assert!((l.imbalance - 1.5).abs() < 1e-9, "{}", l.imbalance);
    }

    #[test]
    fn scheduler_tag_splits_groups_and_steals_survive_to_json() {
        // Same thread count and level count, different schedulers: the
        // executions must land in separate groups, and steal counts must
        // reach the JSON worker objects.
        let obs = Obs::new(ObsLevel::Trace);
        for scheduler in ["levels", "dataflow"] {
            obs.record_wavefronts(WavefrontRecord {
                threads: 2,
                scheduler: scheduler.into(),
                sweeps: 1,
                levels: vec![LevelRecord {
                    index: 0,
                    blocks: 6,
                    wall_ns: 50,
                    workers: vec![WorkerRecord {
                        busy_ns: 40,
                        blocks: 6,
                        steals: if scheduler == "dataflow" { 3 } else { 0 },
                        steal_dist: if scheduler == "dataflow" { 4 } else { 0 },
                        fused: if scheduler == "dataflow" { 2 } else { 0 },
                    }],
                }],
            });
        }
        let report = obs.report();
        assert_eq!(report.wavefronts.len(), 2, "one group per scheduler");
        let df = report
            .wavefronts
            .iter()
            .find(|g| g.scheduler == "dataflow")
            .unwrap();
        assert_eq!(df.levels[0].workers[0].steals, 3);
        assert_eq!(df.levels[0].workers[0].steal_dist, 4);
        assert_eq!(df.levels[0].workers[0].fused, 2);
        let text = report.to_json().to_string();
        validate_report_json(&text).unwrap();
        let doc = Json::parse(&text).unwrap();
        let groups = doc.get("wavefronts").unwrap().as_arr().unwrap();
        let df_json = groups
            .iter()
            .find(|g| g.get("scheduler").and_then(Json::as_str) == Some("dataflow"))
            .expect("dataflow group in JSON");
        let worker = &df_json.get("levels").unwrap().as_arr().unwrap()[0]
            .get("workers")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(worker.get("steal_dist").and_then(Json::as_f64), Some(4.0));
        assert_eq!(worker.get("fused").and_then(Json::as_f64), Some(2.0));
        assert!(report.to_text().contains("(+3 stolen, dist 4)"));
        assert!(report.to_text().contains("(~2 fused)"));
    }

    #[test]
    fn text_renderer_pins_steal_and_fusion_telemetry_format() {
        // Pins the exact text rendering of the PR 6 worker telemetry:
        // the per-worker annotations and the per-group totals line.
        let obs = Obs::new(ObsLevel::Trace);
        obs.record_wavefronts(WavefrontRecord {
            threads: 2,
            scheduler: "dataflow".into(),
            sweeps: 1,
            levels: vec![LevelRecord {
                index: 0,
                blocks: 8,
                wall_ns: 100,
                workers: vec![
                    WorkerRecord { busy_ns: 80, blocks: 5, steals: 3, steal_dist: 4, fused: 2 },
                    WorkerRecord { busy_ns: 60, blocks: 3, steals: 1, steal_dist: 2, fused: 0 },
                ],
            }],
        });
        let text = obs.report().to_text();
        assert!(
            text.contains("(+3 stolen, dist 4)"),
            "worker 0 steal annotation missing:\n{text}"
        );
        assert!(
            text.contains("(+1 stolen, dist 2)"),
            "worker 1 steal annotation missing:\n{text}"
        );
        assert!(text.contains("(~2 fused)"), "fusion annotation missing:\n{text}");
        // Group totals: 4 steals over distance 6 → mean 1.5.
        assert!(
            text.contains("totals: 4 steal(s) (mean dist 1.5), 2 fused block(s)"),
            "group totals line missing or drifted:\n{text}"
        );
        // A levels group with no steals/fusion prints no totals line.
        let quiet = Obs::new(ObsLevel::Trace);
        quiet.record_wavefronts(WavefrontRecord {
            threads: 1,
            scheduler: "levels".into(),
            sweeps: 1,
            levels: vec![LevelRecord {
                index: 0,
                blocks: 2,
                wall_ns: 10,
                workers: vec![WorkerRecord { busy_ns: 9, blocks: 2, ..WorkerRecord::default() }],
            }],
        });
        assert!(!quiet.report().to_text().contains("totals:"));
    }

    #[test]
    fn histograms_and_trace_rings_reach_the_validated_json() {
        let obs = Obs::new(ObsLevel::Trace);
        for _ in 0..4 {
            let _sweep = obs.span("engine:execute");
        }
        {
            let mut t = obs.worker_tracer(0);
            for i in 0..3u32 {
                let st = t.begin();
                t.end(crate::TraceKind::Task, st, i, 1);
            }
            t.coalesce(crate::TraceKind::PlanHit, 5);
        }
        let report = obs.report();
        let sweep = report.histograms.iter().find(|h| h.name == "sweep_ns").unwrap();
        assert_eq!(sweep.count, 4);
        assert!(sweep.p50_ns <= sweep.p90_ns && sweep.p90_ns <= sweep.p99_ns);
        assert!(sweep.p99_ns <= sweep.max_ns);
        let task = report.histograms.iter().find(|h| h.name == "task_ns").unwrap();
        assert_eq!(task.count, 3, "only task events feed task_ns");
        assert_eq!(report.trace.len(), 1);
        assert_eq!(report.trace[0].events.len(), 4);
        let text = report.to_json().to_string();
        validate_report_json(&text).unwrap();
        let doc = Json::parse(&text).unwrap();
        let hists = doc.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(hists.len(), 2);
        assert_eq!(hists[0].get("name").and_then(Json::as_str), Some("sweep_ns"));
        assert_eq!(hists[0].get("count").and_then(Json::as_f64), Some(4.0));
        let lanes = doc.get("trace").unwrap().as_arr().unwrap();
        assert_eq!(lanes[0].get("worker").and_then(Json::as_f64), Some(0.0));
        let kinds: Vec<&str> = lanes[0]
            .get("events")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("kind").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(kinds, vec!["task", "task", "task", "plan-hit"]);
        let rendered = report.to_text();
        assert!(rendered.contains("-- latency histograms --"));
        assert!(rendered.contains("sweep_ns"));
        assert!(rendered.contains("trace rings: 1 lane(s), 4 event(s), 0 dropped"));
        // An unknown event kind in the document is rejected.
        let bad = text.replacen("\"plan-hit\"", "\"mystery\"", 1);
        assert!(validate_report_json(&bad).unwrap_err().contains("mystery"));
    }

    #[test]
    fn plan_counts_reach_json_and_text_outside_the_trace_ring() {
        // Summary level: no trace ring exists, the counts still arrive.
        let obs = Obs::new(ObsLevel::Summary);
        obs.count_runs(2, 40, 9);
        obs.count_runs(1, 7, 3);
        let report = obs.report();
        assert_eq!(
            (
                report.engine.plan_builds,
                report.engine.plan_reuses,
                report.engine.short_run_points
            ),
            (3, 47, 12)
        );
        assert!(report.trace.is_empty());
        assert!(
            report
                .to_text()
                .contains("run plans: 3 built, 47 reused; 12 short-run point(s)"),
            "{}",
            report.to_text()
        );
        let text = report.to_json().to_string();
        validate_report_json(&text).unwrap();
        let engine = Json::parse(&text).unwrap().get("engine").unwrap().clone();
        assert_eq!(engine.get("plan_builds").and_then(Json::as_f64), Some(3.0));
        assert_eq!(engine.get("plan_reuses").and_then(Json::as_f64), Some(47.0));
        assert_eq!(engine.get("short_run_points").and_then(Json::as_f64), Some(12.0));
        // A document without a count is an older-version document.
        for (key, field) in [("\"plan_reuses\":47", "plan_reuses"), ("\"short_run_points\":12", "short_run_points")] {
            let old = text.replacen(key, "\"old\":0", 1);
            assert!(validate_report_json(&old).unwrap_err().contains(field));
        }
        // Short runs alone still open the engine section of the text.
        let short_only = Obs::new(ObsLevel::Summary);
        short_only.count_runs(0, 0, 5);
        assert!(short_only.report().to_text().contains("5 short-run point(s)"));
    }

    #[test]
    fn autotune_section_keeps_the_winner_marked() {
        let obs = Obs::new(ObsLevel::Trace);
        obs.record_autotune(AutotuneTrace {
            domain: vec![64, 64],
            threads: 4,
            evaluated: 2,
            candidates: vec![
                AutotuneCandidate {
                    tile: vec![8, 8],
                    subdomain: vec![16, 16],
                    score_s: Some(2.0e-3),
                    verdict: "evaluated".into(),
                    chosen: false,
                },
                AutotuneCandidate {
                    tile: vec![8, 16],
                    subdomain: vec![16, 32],
                    score_s: Some(1.0e-3),
                    verdict: "evaluated".into(),
                    chosen: true,
                },
            ],
        });
        let report = obs.report();
        let t = &report.autotune[0];
        assert_eq!(t.candidates.iter().filter(|c| c.chosen).count(), 1);
        let text = report.to_text();
        assert!(text.contains("<== chosen"));
    }

    #[test]
    fn json_round_trips_and_validates() {
        let obs = Obs::new(ObsLevel::Trace);
        {
            let _p = obs.span("pass:bufferize");
        }
        obs.event("engine-fallback", "unsupported op");
        let mut report = obs.report();
        report.exec_stats = Some(Json::Obj(vec![("loads".into(), Json::num(7.0))]));
        let text = report.to_json().to_string();
        validate_report_json(&text).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("level").unwrap().as_str(), Some("trace"));
        assert_eq!(
            doc.get("engine")
                .unwrap()
                .get("fallback_reason")
                .unwrap()
                .as_str(),
            Some("unsupported op")
        );
    }

    #[test]
    fn validation_rejects_drifted_documents() {
        let good = RunReport::default().to_json().to_string();
        // Unknown key.
        let unknown = good.replacen("\"level\"", "\"level\":\"off\",\"bogus\"", 1);
        assert!(validate_report_json(&unknown).unwrap_err().contains("bogus"));
        // Missing key.
        let missing = RunReport::default();
        let mut doc = missing.to_json();
        if let Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| k != "wavefronts");
        }
        assert!(validate_report_json(&doc.to_string())
            .unwrap_err()
            .contains("wavefronts"));
        // Wrong version.
        let mut doc = RunReport::default().to_json();
        if let Json::Obj(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "schema_version" {
                    *v = Json::num(999.0);
                }
            }
        }
        assert!(validate_report_json(&doc.to_string())
            .unwrap_err()
            .contains("schema_version"));
        // Not JSON at all.
        assert!(validate_report_json("not json").is_err());
    }
}
