//! `instencil-obs` — in-tree tracing, profiling and run reports.
//!
//! The paper's argument rests on *where time goes*: tiling under an L2
//! budget (§2.1), fusion trade-offs (§2.2) and wavefront parallelism
//! whose efficiency is bounded by the Eq. (3) level widths (§2.3). This
//! crate makes those costs observable without any external dependency
//! (the workspace builds fully offline — no `tracing`, no `metrics`):
//!
//! * [`Obs`] — a cheaply cloneable, thread-safe collector handle behind
//!   an [`ObsLevel`] knob. `Off` is the default and is *free*: the handle
//!   holds no allocation and every record call is a single `Option`
//!   check — no clocks, no locks, no allocation on hot paths.
//! * [`Span`] — RAII-guarded hierarchical spans (monotonic-clock timed,
//!   thread-aware). Guards close on every path out of a scope, including
//!   early `?` returns, so span records are balanced by construction.
//! * [`WavefrontRecord`] — per-wavefront-level wall times plus per-worker
//!   busy time and block counts, exposing load imbalance per level.
//! * [`AutotuneTrace`] — every candidate tile vector the tuner looked
//!   at, its cost-model score or rejection verdict, and the winner.
//! * [`RunReport`] — a schema-versioned, machine-readable summary
//!   ([`RunReport::to_json`], validated by [`report::validate_report_json`])
//!   with a human-readable twin ([`RunReport::to_text`]).
//!
//! Producers live in the other crates: `instencil-core` spans its
//! pipeline passes, `instencil-exec` times wavefront levels and engine
//! compile/execute phases, `instencil-machine` records autotune
//! candidates. This crate only defines the collector and the report.

pub mod hist;
pub mod json;
pub mod report;
pub mod trace;

pub use hist::LogHist;
pub use json::Json;
pub use report::{RunReport, SCHEMA_VERSION};
pub use trace::{TraceEvent, TraceKind, WorkerRing, WorkerTracer};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much the collector records.
///
/// * `Off` — nothing; every producer call is a branch on an `Option`.
/// * `Summary` — pass spans, events, engine split, per-wavefront-level
///   wall times, and the autotune winner.
/// * `Trace` — everything in `Summary` plus per-worker busy/idle
///   breakdowns, the full autotune candidate table, and raw spans in
///   the JSON report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Record nothing (the default; near-zero overhead).
    #[default]
    Off,
    /// Aggregate timings: spans, events, level walls, autotune winner.
    Summary,
    /// Full detail: per-worker timings, all autotune candidates, raw
    /// span dump in the JSON report.
    Trace,
}

impl ObsLevel {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Summary => "summary",
            ObsLevel::Trace => "trace",
        }
    }
}

/// One completed span: a named, timed region of one thread, with an
/// optional parent (the span active on the same thread when it opened).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Collector-unique id.
    pub id: u64,
    /// Id of the span this one nested under (same thread), if any.
    pub parent: Option<u64>,
    /// Span name; pipeline passes use the `pass:` prefix, engine phases
    /// `engine:`, transform internals `tile:`.
    pub name: String,
    /// Debug rendering of the owning thread's id.
    pub thread: String,
    /// Start offset from the collector epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub dur_ns: u64,
    /// Attached integer measurements (e.g. `ops_before` / `ops_after`).
    pub notes: Vec<(String, i64)>,
}

/// A point event (e.g. an engine fallback) with a detail string.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Offset from the collector epoch, nanoseconds.
    pub t_ns: u64,
    /// Event name.
    pub name: String,
    /// Free-form detail (the fallback reason, etc.).
    pub detail: String,
}

/// Timing of one worker's chunk within one wavefront level (or, under
/// the dataflow scheduler, of one worker's whole run).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerRecord {
    /// Time the worker spent executing its blocks, nanoseconds.
    pub busy_ns: u64,
    /// Blocks the worker executed.
    pub blocks: u64,
    /// Tasks this worker stole from another worker's deque (always 0
    /// under the levels scheduler, whose shards are static).
    pub steals: u64,
    /// Total steal distance: the sum, over this worker's steals, of the
    /// victim's 1-based position in the thief's scan ring (worker `w`
    /// scans `w + 1, w + 2, …` wrapping). `steal_dist / steals` near 1
    /// means thieves found work at their ring neighbour; larger ratios
    /// mean they scanned past idle peers first.
    pub steal_dist: u64,
    /// Blocks this worker executed as a coarsened chain mate — i.e.
    /// `blocks` minus the number of scheduled tasks. 0 when the fusion
    /// grain is 1 (every task is a single block).
    pub fused: u64,
}

/// Timing of one wavefront level (one barrier-to-barrier region).
#[derive(Clone, Debug, PartialEq)]
pub struct LevelRecord {
    /// Level index within the schedule.
    pub index: usize,
    /// Blocks scheduled in this level (its width).
    pub blocks: u64,
    /// Wall time of the whole level, nanoseconds.
    pub wall_ns: u64,
    /// Per-worker breakdown ([`ObsLevel::Trace`] only; empty at
    /// `Summary`).
    pub workers: Vec<WorkerRecord>,
}

/// One `scf.execute_wavefronts` execution: every level it ran.
///
/// Under the dataflow scheduler there are no barriers, so the whole
/// execution is reported as a single [`LevelRecord`] covering all
/// blocks, tagged `scheduler == "dataflow"`.
#[derive(Clone, Debug, PartialEq)]
pub struct WavefrontRecord {
    /// Worker threads the schedule ran with.
    pub threads: usize,
    /// Scheduler tag: `"levels"` or `"dataflow"` (kept as a string so
    /// this crate stays dependency-free).
    pub scheduler: String,
    /// Sweeps this execution covered: 1 for an eager per-sweep run, `k`
    /// when a batched drain fused `k` sweeps into one DAG. Report means
    /// divide by the group's total sweep count, so per-sweep figures
    /// stay comparable across batch depths.
    pub sweeps: usize,
    /// Per-level timings.
    pub levels: Vec<LevelRecord>,
}

/// One candidate the autotuner considered.
#[derive(Clone, Debug, PartialEq)]
pub struct AutotuneCandidate {
    /// Cache-tile sizes.
    pub tile: Vec<usize>,
    /// Derived sub-domain sizes.
    pub subdomain: Vec<usize>,
    /// Cost-model score (estimated sweep seconds); `None` when the
    /// candidate was rejected before scoring.
    pub score_s: Option<f64>,
    /// `"evaluated"`, or the rejection reason
    /// (`"skip-small-inner"`, `"skip-illegal-deps"`, `"skip-grid-threads"`,
    /// `"skip-grid-large"`).
    pub verdict: String,
    /// Whether this candidate won the search.
    pub chosen: bool,
}

/// The full record of one autotuning search.
#[derive(Clone, Debug, PartialEq)]
pub struct AutotuneTrace {
    /// Problem domain searched over.
    pub domain: Vec<usize>,
    /// Thread count tuned for.
    pub threads: usize,
    /// Candidates scored by the cost model.
    pub evaluated: usize,
    /// The candidate table (winner only at [`ObsLevel::Summary`]).
    pub candidates: Vec<AutotuneCandidate>,
}

/// Everything a collector has recorded (a snapshot for report building
/// and tests).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recorded {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Point events, in emission order.
    pub events: Vec<EventRecord>,
    /// Wavefront executions, in execution order.
    pub wavefronts: Vec<WavefrontRecord>,
    /// Autotune searches, in search order.
    pub autotune: Vec<AutotuneTrace>,
    /// Flushed per-worker trace rings ([`ObsLevel::Trace`] only), one
    /// lane per worker after merging (see [`trace::merge_rings`]).
    pub rings: Vec<WorkerRing>,
    /// Run-specialization plans built (plan-cache misses).
    pub plan_builds: u64,
    /// Run-specialization plans reused (plan-cache hits).
    pub plan_reuses: u64,
    /// Points of run-specialized loops whose runs were too short for the
    /// fast rung and ran on the generic loop.
    pub short_run_points: u64,
}

struct Inner {
    level: ObsLevel,
    epoch: Instant,
    next_span: AtomicU64,
    data: Mutex<Recorded>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner").field("level", &self.level).finish()
    }
}

thread_local! {
    // Stack of (collector identity, span id) for parenting. Entries from
    // different collectors interleave safely: parent lookup scans for
    // the topmost entry of the *same* collector.
    static ACTIVE: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The collector handle. Cloning shares the underlying records (it is an
/// `Arc` internally); [`Obs::off`] (and `Default`) hold nothing at all,
/// so the disabled path allocates nothing and takes no locks.
#[derive(Clone, Debug, Default)]
pub struct Obs(Option<Arc<Inner>>);

impl Obs {
    /// A collector at the given level. [`ObsLevel::Off`] returns the
    /// no-op handle.
    pub fn new(level: ObsLevel) -> Self {
        match level {
            ObsLevel::Off => Obs(None),
            level => Obs(Some(Arc::new(Inner {
                level,
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                data: Mutex::new(Recorded::default()),
            }))),
        }
    }

    /// The no-op handle: records nothing, costs one `Option` check per
    /// producer call.
    pub fn off() -> Self {
        Obs(None)
    }

    /// Whether anything is recorded at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether per-worker / per-candidate detail is recorded.
    #[inline]
    pub fn detail_enabled(&self) -> bool {
        matches!(&self.0, Some(i) if i.level == ObsLevel::Trace)
    }

    /// The collector's level.
    pub fn level(&self) -> ObsLevel {
        self.0.as_ref().map_or(ObsLevel::Off, |i| i.level)
    }

    /// Nanoseconds since the collector epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_nanos() as u64)
    }

    /// Opens a span. The returned guard records on drop; name
    /// construction is deferred until the collector is known to be
    /// enabled.
    #[inline]
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.0 else {
            return Span { live: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let identity = Arc::as_ptr(inner) as usize;
        let parent = ACTIVE.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.iter().rev().find(|(o, _)| *o == identity).map(|&(_, id)| id);
            s.push((identity, id));
            parent
        });
        Span {
            live: Some(LiveSpan {
                obs: self.clone(),
                id,
                identity,
                parent,
                name: name.to_owned(),
                start_ns: inner.epoch.elapsed().as_nanos() as u64,
                start: Instant::now(),
                notes: Vec::new(),
            }),
        }
    }

    /// Records a point event.
    pub fn event(&self, name: &str, detail: &str) {
        let Some(inner) = &self.0 else { return };
        let t_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.data.lock().unwrap().events.push(EventRecord {
            t_ns,
            name: name.to_owned(),
            detail: detail.to_owned(),
        });
    }

    /// Records one wavefront execution (all levels of one
    /// `scf.execute_wavefronts`).
    pub fn record_wavefronts(&self, record: WavefrontRecord) {
        if let Some(inner) = &self.0 {
            inner.data.lock().unwrap().wavefronts.push(record);
        }
    }

    /// Records one autotune search.
    pub fn record_autotune(&self, trace: AutotuneTrace) {
        if let Some(inner) = &self.0 {
            inner.data.lock().unwrap().autotune.push(trace);
        }
    }

    /// Adds run-specialization counts: plan-cache misses and hits, and
    /// the points of runs too short for the fast rung. Engines count per
    /// frame and flush here when the frame finishes, so the totals are
    /// exact at every level — unlike the `plan-miss` trace events, which
    /// a full ring drops.
    pub fn count_runs(&self, builds: u64, reuses: u64, short_points: u64) {
        let Some(inner) = &self.0 else { return };
        if builds + reuses + short_points > 0 {
            let mut data = inner.data.lock().unwrap();
            data.plan_builds += builds;
            data.plan_reuses += reuses;
            data.short_run_points += short_points;
        }
    }

    /// A per-worker event ring at the default capacity
    /// ([`trace::ring_capacity`]). Inert — every call a no-op, nothing
    /// allocated — unless this collector is at [`ObsLevel::Trace`].
    /// Flushes into the collector when dropped.
    pub fn worker_tracer(&self, worker: u32) -> WorkerTracer {
        self.worker_tracer_with_capacity(worker, trace::ring_capacity())
    }

    /// [`worker_tracer`](Self::worker_tracer) with an explicit ring
    /// capacity (clamped to ≥ 2); used by wraparound tests.
    pub fn worker_tracer_with_capacity(&self, worker: u32, capacity: usize) -> WorkerTracer {
        match &self.0 {
            Some(inner) if inner.level == ObsLevel::Trace => {
                WorkerTracer::active(self.clone(), inner.epoch, worker, capacity)
            }
            _ => WorkerTracer::inert(),
        }
    }

    /// Accepts a flushed ring, merging it into the existing lane for
    /// the same worker. Lanes stay bounded: past twice the lane
    /// capacity the oldest events are evicted into the drop counter
    /// (amortized O(1) per event; the final report trims lanes down to
    /// exactly `capacity` via [`trace::merge_rings`]).
    pub(crate) fn record_ring(&self, ring: WorkerRing) {
        let Some(inner) = &self.0 else { return };
        let mut data = inner.data.lock().unwrap();
        match data.rings.iter_mut().find(|r| r.worker == ring.worker) {
            Some(lane) => {
                lane.capacity = lane.capacity.max(ring.capacity);
                lane.dropped += ring.dropped;
                lane.events.extend_from_slice(&ring.events);
                if lane.events.len() > lane.capacity * 2 {
                    let excess = lane.events.len() - lane.capacity;
                    lane.events.drain(..excess);
                    lane.dropped += excess as u64;
                }
            }
            None => data.rings.push(ring),
        }
    }

    /// Number of spans currently open on *this* thread for this
    /// collector — 0 whenever span guards are balanced.
    pub fn active_depth(&self) -> usize {
        let Some(inner) = &self.0 else { return 0 };
        let identity = Arc::as_ptr(inner) as usize;
        ACTIVE.with(|s| s.borrow().iter().filter(|(o, _)| *o == identity).count())
    }

    /// A snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Recorded {
        self.0
            .as_ref()
            .map_or_else(Recorded::default, |i| i.data.lock().unwrap().clone())
    }

    /// Builds the structured report from the current records
    /// (see [`RunReport::build`]).
    pub fn report(&self) -> RunReport {
        RunReport::build(self)
    }
}

struct LiveSpan {
    obs: Obs,
    id: u64,
    identity: usize,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    start: Instant,
    notes: Vec<(String, i64)>,
}

/// RAII span guard returned by [`Obs::span`]. Records a [`SpanRecord`]
/// when dropped; inert (zero work) when the collector is off.
pub struct Span {
    live: Option<LiveSpan>,
}

impl Span {
    /// Attaches an integer measurement to the span (no-op when
    /// disabled).
    pub fn note(&mut self, key: &str, value: i64) {
        if let Some(live) = &mut self.live {
            live.notes.push((key.to_owned(), value));
        }
    }

    /// The span id (`None` when the collector is off).
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur_ns = live.start.elapsed().as_nanos() as u64;
        ACTIVE.with(|s| {
            let mut s = s.borrow_mut();
            // Guards usually drop LIFO; remove by id to stay correct if
            // a caller holds guards in a non-stack order.
            if let Some(pos) = s
                .iter()
                .rposition(|&(o, id)| o == live.identity && id == live.id)
            {
                s.remove(pos);
            }
        });
        if let Some(inner) = &live.obs.0 {
            inner.data.lock().unwrap().spans.push(SpanRecord {
                id: live.id,
                parent: live.parent,
                name: live.name,
                thread: format!("{:?}", std::thread::current().id()),
                start_ns: live.start_ns,
                dur_ns,
                notes: live.notes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inert() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        assert!(!obs.detail_enabled());
        assert_eq!(obs.level(), ObsLevel::Off);
        let mut s = obs.span("x");
        s.note("k", 1);
        drop(s);
        obs.event("e", "d");
        obs.record_wavefronts(WavefrontRecord {
            threads: 1,
            scheduler: "levels".into(),
            sweeps: 1,
            levels: vec![],
        });
        obs.count_runs(3, 5, 2);
        assert_eq!(obs.snapshot(), Recorded::default());
        assert_eq!(obs.active_depth(), 0);
    }

    #[test]
    fn spans_nest_and_balance() {
        let obs = Obs::new(ObsLevel::Summary);
        {
            let outer = obs.span("outer");
            assert_eq!(obs.active_depth(), 1);
            {
                let inner = obs.span("inner");
                assert_eq!(obs.active_depth(), 2);
                let (o, i) = (outer.id().unwrap(), inner.id().unwrap());
                assert_ne!(o, i);
            }
            assert_eq!(obs.active_depth(), 1);
        }
        assert_eq!(obs.active_depth(), 0);
        let rec = obs.snapshot();
        assert_eq!(rec.spans.len(), 2);
        // Completion order: inner closes first.
        assert_eq!(rec.spans[0].name, "inner");
        assert_eq!(rec.spans[1].name, "outer");
        assert_eq!(rec.spans[0].parent, Some(rec.spans[1].id));
        assert_eq!(rec.spans[1].parent, None);
        assert!(rec.spans[1].dur_ns >= rec.spans[0].dur_ns);
    }

    #[test]
    fn spans_balance_on_early_return() {
        fn may_fail(obs: &Obs, fail: bool) -> Result<(), String> {
            let _guard = obs.span("work");
            if fail {
                return Err("boom".into());
            }
            Ok(())
        }
        let obs = Obs::new(ObsLevel::Trace);
        may_fail(&obs, true).unwrap_err();
        may_fail(&obs, false).unwrap();
        assert_eq!(obs.active_depth(), 0, "guards must close on ? paths");
        assert_eq!(obs.snapshot().spans.len(), 2);
    }

    #[test]
    fn two_collectors_parent_independently() {
        let a = Obs::new(ObsLevel::Summary);
        let b = Obs::new(ObsLevel::Summary);
        let _sa = a.span("a-outer");
        let _sb = b.span("b-outer");
        let sa2 = a.span("a-inner");
        drop(sa2);
        let rec = a.snapshot();
        assert_eq!(rec.spans[0].name, "a-inner");
        // Parent is a's outer span, not b's (which opened in between).
        assert_eq!(rec.spans[0].parent, _sa.id());
    }

    #[test]
    fn spans_across_threads_have_no_false_parent() {
        let obs = Obs::new(ObsLevel::Trace);
        let _outer = obs.span("main");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = obs.span("worker");
            });
        });
        let rec = obs.snapshot();
        let worker = rec.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, None, "parenting is per-thread");
    }

    #[test]
    fn notes_and_events_round_trip() {
        let obs = Obs::new(ObsLevel::Summary);
        let mut s = obs.span("pass:demo");
        s.note("ops_before", 10);
        s.note("ops_after", 7);
        drop(s);
        obs.event("engine-fallback", "unsupported op cfd.stencil");
        let rec = obs.snapshot();
        assert_eq!(
            rec.spans[0].notes,
            vec![("ops_before".into(), 10), ("ops_after".into(), 7)]
        );
        assert_eq!(rec.events[0].name, "engine-fallback");
    }

    #[test]
    fn level_gates_detail() {
        assert!(!Obs::new(ObsLevel::Summary).detail_enabled());
        assert!(Obs::new(ObsLevel::Trace).detail_enabled());
        assert!(Obs::new(ObsLevel::Summary).enabled());
    }
}
