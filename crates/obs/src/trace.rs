//! Timestamped per-worker scheduler tracing.
//!
//! The aggregate report (per-level walls, busy sums, steal counts)
//! answers *how much*; this module answers *when and where*: which
//! worker ran which task at what time, where steals landed, where the
//! runspec plan cache missed and compiled. It is built for hot worker
//! loops:
//!
//! * [`WorkerTracer`] — a fixed-capacity, allocation-free event ring.
//!   The buffer is sized once at construction; past capacity the oldest
//!   event is overwritten and a drop counter increments, so a runaway
//!   sweep can never reallocate inside a worker loop. Each tracer
//!   copies the collector's epoch [`Instant`] once at construction (one
//!   clock calibration per run); every stamp is a single monotonic read
//!   against that epoch, so all lanes share one timebase.
//! * a thread-local *current tracer* ([`install`]/[`with`]) so deep
//!   callees (the runspec plan cache, the bytecode engine's run loop)
//!   can emit events without threading a tracer handle through every
//!   signature. At [`ObsLevel::Off`](crate::ObsLevel) no tracer is ever
//!   installed and the emission helpers cost one thread-local check.
//! * [`merge_rings`] — folds flushed rings into one time-ordered lane
//!   per worker, and [`chrome_trace`] — renders lanes (plus the
//!   collector's spans) as Chrome/Perfetto `trace_event` JSON, loadable
//!   directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Event payload is two bare `u32`s (`a`, `b`) whose meaning depends on
//! [`TraceKind`] — see each variant. Consecutive plan-cache hits are
//! coalesced ([`WorkerTracer::coalesce`]) into one event with a hit
//! count in `b`, so the per-run hit path costs a tail compare instead
//! of a clock read.

use crate::{Json, Obs, SpanRecord};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Lane id used by non-worker (driver/engine) threads, serialized as
/// `4294967295` in reports and shown as the `driver` lane in Perfetto.
pub const DRIVER: u32 = u32::MAX;

/// Default per-worker ring capacity (events), overridable with the
/// `INSTENCIL_TRACE_RING` environment variable (read once per process).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// The effective ring capacity: `INSTENCIL_TRACE_RING` when set and
/// parseable (clamped to ≥ 2), else [`DEFAULT_RING_CAPACITY`].
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("INSTENCIL_TRACE_RING")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map_or(DEFAULT_RING_CAPACITY, |c| c.max(2))
    })
}

/// What a [`TraceEvent`] describes. The `a`/`b`payload fields are
/// documented per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A unit of executed work: one wavefront-level chunk under the
    /// levels scheduler (`a` = level index, `b` = blocks executed) or
    /// one coarsened task chain under dataflow (`a` = task id, `b` =
    /// blocks executed). Duration event.
    Task,
    /// A successful steal from another worker's deque. `a` = victim
    /// worker, `b` = the victim's 1-based position in the thief's scan
    /// ring (worker `w` scans `w + 1, w + 2, …` wrapping). Instant event.
    Steal,
    /// A worker blocked after the spin budget was exhausted with no
    /// runnable work, until a push, the drain's end or an abort woke it.
    /// `a` = consecutive idle rounds so far. Duration event covering the
    /// time blocked.
    Park,
    /// A runspec plan-cache hit. `a` = loop number, `b` =
    /// number of *consecutive* hits coalesced into this event.
    /// Instant event stamped at the start of the streak.
    PlanHit,
    /// A runspec plan-cache miss. `a` = loop number, `b` =
    /// run length `n`. Instant event; the rebuild itself is the
    /// [`TraceKind::PlanCompile`] duration that follows.
    PlanMiss,
    /// A plan compilation (the cache-miss rebuild). `a` = loop number,
    /// `b` = run length `n`. Duration event.
    PlanCompile,
}

impl TraceKind {
    /// Stable lower-case name used in reports and trace exports.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Task => "task",
            TraceKind::Steal => "steal",
            TraceKind::Park => "park",
            TraceKind::PlanHit => "plan-hit",
            TraceKind::PlanMiss => "plan-miss",
            TraceKind::PlanCompile => "plan-compile",
        }
    }

    /// Whether the kind carries a duration (a Perfetto `X` complete
    /// event) rather than being a point instant (`i`).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            TraceKind::Task | TraceKind::Park | TraceKind::PlanCompile
        )
    }

    /// The inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<TraceKind> {
        Some(match name {
            "task" => TraceKind::Task,
            "steal" => TraceKind::Steal,
            "park" => TraceKind::Park,
            "plan-hit" => TraceKind::PlanHit,
            "plan-miss" => TraceKind::PlanMiss,
            "plan-compile" => TraceKind::PlanCompile,
            _ => return None,
        })
    }
}

/// One timestamped event in a worker's ring. 32 bytes, `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Start offset from the collector epoch, nanoseconds.
    pub t_ns: u64,
    /// Duration in nanoseconds (0 for instant kinds).
    pub dur_ns: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-dependent payload (see [`TraceKind`]).
    pub a: u32,
    /// Kind-dependent payload (see [`TraceKind`]).
    pub b: u32,
    /// Sweep tag: 0 for work outside a sweep batch, `s + 1` for work of
    /// sweep `s` inside a fused multi-sweep drain. Tagged events land on
    /// per-sweep sub-lanes in the Perfetto export, so the temporal-
    /// tiling diagonal is visible in the timeline.
    pub sweep: u32,
}

/// A flushed ring: one worker's events in chronological order, plus the
/// exact count of events overwritten when the ring wrapped.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerRing {
    /// Worker index, or [`DRIVER`] for the non-worker lane.
    pub worker: u32,
    /// Ring capacity the events were recorded under.
    pub capacity: usize,
    /// Events overwritten because the ring was full (oldest-first
    /// eviction); `events` holds the most recent `capacity` survivors.
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

struct ActiveRing {
    obs: Obs,
    epoch: Instant,
    worker: u32,
    capacity: usize,
    buf: Vec<TraceEvent>,
    /// Next overwrite slot once the buffer is full (the oldest event).
    head: usize,
    dropped: u64,
}

impl ActiveRing {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, e: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    fn last_written_mut(&mut self) -> Option<&mut TraceEvent> {
        if self.buf.is_empty() {
            None
        } else if self.dropped == 0 {
            self.buf.last_mut()
        } else {
            let idx = if self.head == 0 { self.capacity - 1 } else { self.head - 1 };
            Some(&mut self.buf[idx])
        }
    }
}

/// A per-worker event ring bound to one collector. Created via
/// [`Obs::worker_tracer`]; inert (every call a no-op, no allocation)
/// unless the collector is at [`ObsLevel::Trace`](crate::ObsLevel).
/// Flushes its ring into the collector on drop.
pub struct WorkerTracer {
    live: Option<Box<ActiveRing>>,
}

impl WorkerTracer {
    pub(crate) fn active(obs: Obs, epoch: Instant, worker: u32, capacity: usize) -> Self {
        let capacity = capacity.max(2);
        WorkerTracer {
            live: Some(Box::new(ActiveRing {
                obs,
                epoch,
                worker,
                capacity,
                buf: Vec::with_capacity(capacity),
                head: 0,
                dropped: 0,
            })),
        }
    }

    pub(crate) fn inert() -> Self {
        WorkerTracer { live: None }
    }

    /// Whether events are actually recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.live.is_some()
    }

    /// Nanoseconds since the collector epoch (0 when inert).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.now_ns())
    }

    /// Stamps the start of a duration event (pair with
    /// [`end`](Self::end)).
    #[inline]
    pub fn begin(&self) -> u64 {
        self.now_ns()
    }

    /// Records a duration event started at `start_ns`.
    #[inline]
    pub fn end(&mut self, kind: TraceKind, start_ns: u64, a: u32, b: u32) {
        self.end_sweep(kind, start_ns, a, b, 0);
    }

    /// Records a duration event started at `start_ns`, tagged with a
    /// sweep (`sweep = s + 1` for sweep `s` of a fused batch; see
    /// [`TraceEvent::sweep`]).
    #[inline]
    pub fn end_sweep(&mut self, kind: TraceKind, start_ns: u64, a: u32, b: u32, sweep: u32) {
        let Some(l) = &mut self.live else { return };
        let dur_ns = l.now_ns().saturating_sub(start_ns);
        l.push(TraceEvent { t_ns: start_ns, dur_ns, kind, a, b, sweep });
    }

    /// Records an instant event stamped now.
    #[inline]
    pub fn instant(&mut self, kind: TraceKind, a: u32, b: u32) {
        let Some(l) = &mut self.live else { return };
        let t_ns = l.now_ns();
        l.push(TraceEvent { t_ns, dur_ns: 0, kind, a, b, sweep: 0 });
    }

    /// Records an instant event with `b = 1`, or — when the most recent
    /// event has the same `kind` and `a` — increments its `b` instead,
    /// without reading the clock. This keeps per-call streaks (plan-
    /// cache hits) at a tail-compare each instead of an event each.
    #[inline]
    pub fn coalesce(&mut self, kind: TraceKind, a: u32) {
        let Some(l) = &mut self.live else { return };
        if let Some(last) = l.last_written_mut() {
            if last.kind == kind && last.a == a {
                last.b += 1;
                return;
            }
        }
        let t_ns = l.now_ns();
        l.push(TraceEvent { t_ns, dur_ns: 0, kind, a, b: 1, sweep: 0 });
    }

    /// Events currently buffered (test hook).
    pub fn len(&self) -> usize {
        self.live.as_ref().map_or(0, |l| l.buf.len())
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten so far (test hook).
    pub fn dropped(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.dropped)
    }
}

impl Drop for WorkerTracer {
    fn drop(&mut self) {
        let Some(l) = self.live.take() else { return };
        let ActiveRing { obs, worker, capacity, mut buf, head, dropped, .. } = *l;
        if buf.is_empty() {
            return;
        }
        if dropped > 0 {
            // Rotate the wrapped buffer into chronological order:
            // `head` points at the oldest surviving event.
            buf.rotate_left(head);
        }
        obs.record_ring(WorkerRing { worker, capacity, dropped, events: buf });
    }
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerTracer>> = const { RefCell::new(None) };
}

/// Guard returned by [`install`]; restores (and flushes) on drop.
pub struct TracerGuard {
    active: bool,
    prev: Option<WorkerTracer>,
}

/// Makes `tracer` the current tracer for this thread until the returned
/// guard drops, at which point the tracer flushes its ring and any
/// previously installed tracer is restored. Installing an inert tracer
/// is a complete no-op (the thread-local is not touched), so the
/// Off/Summary cost is one branch here and one thread-local check per
/// emission helper.
pub fn install(tracer: WorkerTracer) -> TracerGuard {
    if !tracer.enabled() {
        return TracerGuard { active: false, prev: None };
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(tracer));
    TracerGuard { active: true, prev }
}

impl Drop for TracerGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        // Swap the previous tracer back in; dropping ours flushes it.
        CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), self.prev.take()));
    }
}

/// Runs `f` against the thread's current tracer, if one is installed.
#[inline]
pub fn with<R>(f: impl FnOnce(&mut WorkerTracer) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow_mut().as_mut().map(f))
}

/// [`WorkerTracer::begin`] on the current tracer (0 when none).
#[inline]
pub fn begin() -> u64 {
    with(|t| t.begin()).unwrap_or(0)
}

/// [`WorkerTracer::end`] on the current tracer.
#[inline]
pub fn end(kind: TraceKind, start_ns: u64, a: u32, b: u32) {
    with(|t| t.end(kind, start_ns, a, b));
}

/// [`WorkerTracer::end_sweep`] on the current tracer.
#[inline]
pub fn end_sweep(kind: TraceKind, start_ns: u64, a: u32, b: u32, sweep: u32) {
    with(|t| t.end_sweep(kind, start_ns, a, b, sweep));
}

/// [`WorkerTracer::instant`] on the current tracer.
#[inline]
pub fn instant(kind: TraceKind, a: u32, b: u32) {
    with(|t| t.instant(kind, a, b));
}

/// [`WorkerTracer::coalesce`] on the current tracer.
#[inline]
pub fn coalesce(kind: TraceKind, a: u32) {
    with(|t| t.coalesce(kind, a));
}

/// Folds flushed rings into one lane per worker: events merged and
/// sorted by start time, drop counters summed, and — because lanes
/// accumulate across sweeps — trimmed back down to the lane capacity
/// (oldest evicted into the drop counter) so the fixed-capacity
/// contract holds end to end. Lanes come back sorted by worker id with
/// the [`DRIVER`] lane last.
pub fn merge_rings(rings: &[WorkerRing]) -> Vec<WorkerRing> {
    let mut out: Vec<WorkerRing> = Vec::new();
    for r in rings {
        match out.iter_mut().find(|o| o.worker == r.worker) {
            Some(o) => {
                o.capacity = o.capacity.max(r.capacity);
                o.dropped += r.dropped;
                o.events.extend_from_slice(&r.events);
            }
            None => out.push(r.clone()),
        }
    }
    for o in &mut out {
        o.events.sort_by_key(|e| e.t_ns);
        if o.events.len() > o.capacity {
            let excess = o.events.len() - o.capacity;
            o.events.drain(..excess);
            o.dropped += excess as u64;
        }
    }
    out.sort_by_key(|o| o.worker);
    out
}

/// Perfetto lane (thread) name for a worker id.
pub fn lane_name(worker: u32) -> String {
    if worker == DRIVER {
        "driver".to_owned()
    } else {
        format!("worker {worker}")
    }
}

fn lane_tid(worker: u32) -> f64 {
    if worker == DRIVER {
        0.0
    } else {
        f64::from(worker) + 1.0
    }
}

fn kind_args(e: &TraceEvent) -> Json {
    let (ka, kb) = match e.kind {
        TraceKind::Task => ("task", "blocks"),
        TraceKind::Steal => ("victim", "dist"),
        TraceKind::Park => ("idle_rounds", "pad"),
        TraceKind::PlanHit => ("loop", "hits"),
        TraceKind::PlanMiss | TraceKind::PlanCompile => ("loop", "n"),
    };
    let mut members = vec![(ka.to_owned(), Json::num(e.a))];
    if e.kind != TraceKind::Park {
        members.push((kb.to_owned(), Json::num(e.b)));
    }
    if e.sweep > 0 {
        members.push(("sweep".to_owned(), Json::num(e.sweep - 1)));
    }
    Json::Obj(members)
}

/// Cap on distinct per-sweep sub-lanes a worker gets in the Perfetto
/// export; deeper sweeps fold onto the last sub-lane (the `sweep` arg
/// still disambiguates them).
const SWEEP_LANES: u32 = 16;

/// Perfetto `tid` of a ring event: the worker's base lane for untagged
/// events, a per-`(worker, sweep)` sub-lane in the 100..1000 band for
/// sweep-tagged ones (span lanes start at 1000).
fn event_tid(worker: u32, sweep: u32) -> f64 {
    if sweep == 0 {
        lane_tid(worker)
    } else {
        f64::from(100 + worker * SWEEP_LANES + (sweep - 1).min(SWEEP_LANES - 1))
    }
}

/// Renders merged rings plus the collector's spans as a Chrome/Perfetto
/// `trace_event` document (the JSON Object Format: a `traceEvents`
/// array). Each worker gets its own lane (`tid`), named via thread-name
/// metadata; duration kinds become `X` complete events, instant kinds
/// `i` events, with `ts`/`dur` in microseconds as the format requires.
/// Span records (pass/engine phases) land on per-thread lanes above
/// `tid` 1000 so the scheduler lanes stay uncluttered.
pub fn chrome_trace(rings: &[WorkerRing], spans: &[SpanRecord]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let meta = |name: String, tid: f64| {
        Json::Obj(vec![
            ("name".to_owned(), Json::str("thread_name")),
            ("ph".to_owned(), Json::str("M")),
            ("pid".to_owned(), Json::num(1)),
            ("tid".to_owned(), Json::Num(tid)),
            ("args".to_owned(), Json::Obj(vec![("name".to_owned(), Json::Str(name))])),
        ])
    };
    for r in rings {
        events.push(meta(lane_name(r.worker), lane_tid(r.worker)));
        // Sweep-tagged events get per-sweep sub-lanes under the worker,
        // named once per distinct (worker, sweep) pair seen.
        let mut sweep_lanes: Vec<u32> = Vec::new();
        for e in &r.events {
            if e.sweep > 0 && !sweep_lanes.contains(&e.sweep) {
                sweep_lanes.push(e.sweep);
                events.push(meta(
                    format!("{} sweep {}", lane_name(r.worker), e.sweep - 1),
                    event_tid(r.worker, e.sweep),
                ));
            }
        }
        for e in &r.events {
            let mut obj = vec![
                ("name".to_owned(), Json::str(e.kind.name())),
                ("ph".to_owned(), Json::str(if e.kind.is_span() { "X" } else { "i" })),
                ("ts".to_owned(), Json::Num(e.t_ns as f64 / 1000.0)),
            ];
            if e.kind.is_span() {
                obj.push(("dur".to_owned(), Json::Num(e.dur_ns as f64 / 1000.0)));
            } else {
                obj.push(("s".to_owned(), Json::str("t")));
            }
            obj.push(("pid".to_owned(), Json::num(1)));
            obj.push(("tid".to_owned(), Json::Num(event_tid(r.worker, e.sweep))));
            obj.push(("args".to_owned(), kind_args(e)));
            events.push(Json::Obj(obj));
        }
    }
    // One lane per distinct span thread, above the worker lanes.
    let mut span_threads: Vec<&str> = Vec::new();
    for s in spans {
        if !span_threads.contains(&s.thread.as_str()) {
            span_threads.push(&s.thread);
        }
    }
    for (k, t) in span_threads.iter().enumerate() {
        events.push(meta(format!("spans {t}"), 1000.0 + k as f64));
    }
    for s in spans {
        let k = span_threads.iter().position(|t| *t == s.thread).unwrap();
        let mut args: Vec<(String, Json)> =
            s.notes.iter().map(|(n, v)| (n.clone(), Json::num(*v as f64))).collect();
        args.push(("span_id".to_owned(), Json::num(s.id as f64)));
        events.push(Json::Obj(vec![
            ("name".to_owned(), Json::Str(s.name.clone())),
            ("ph".to_owned(), Json::str("X")),
            ("ts".to_owned(), Json::Num(s.start_ns as f64 / 1000.0)),
            ("dur".to_owned(), Json::Num(s.dur_ns as f64 / 1000.0)),
            ("pid".to_owned(), Json::num(1)),
            ("tid".to_owned(), Json::Num(1000.0 + k as f64)),
            ("args".to_owned(), Json::Obj(args)),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".to_owned(), Json::Arr(events)),
        ("displayTimeUnit".to_owned(), Json::str("ms")),
    ])
}

/// Structurally validates a serialized Chrome `trace_event` document:
/// a non-empty `traceEvents` array whose entries carry the fields the
/// Perfetto importer requires for their phase (`name`/`ph`/`pid`/`tid`
/// everywhere, `ts` on real events, `dur` on `X`, scope `s` on `i`).
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("`traceEvents` must be an array")?;
    if events.is_empty() {
        return Err("`traceEvents` is empty".to_owned());
    }
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: `ph` must be a string"))?;
        if e.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: `name` must be a string"));
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("event {i}: `{key}` must be a number"));
            }
        }
        match ph {
            "M" => {}
            "X" => {
                for key in ["ts", "dur"] {
                    if e.get(key).and_then(Json::as_f64).is_none() {
                        return Err(format!("event {i}: `X` needs numeric `{key}`"));
                    }
                }
            }
            "i" => {
                if e.get("ts").and_then(Json::as_f64).is_none() {
                    return Err(format!("event {i}: `i` needs numeric `ts`"));
                }
                if e.get("s").and_then(Json::as_str).is_none() {
                    return Err(format!("event {i}: `i` needs scope `s`"));
                }
            }
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsLevel;

    fn ev(t_ns: u64, kind: TraceKind, a: u32) -> TraceEvent {
        TraceEvent { t_ns, dur_ns: 0, kind, a, b: 0, sweep: 0 }
    }

    #[test]
    fn off_and_summary_tracers_are_inert() {
        for obs in [Obs::off(), Obs::new(ObsLevel::Summary)] {
            let mut t = obs.worker_tracer(0);
            assert!(!t.enabled());
            let stamp = t.begin();
            assert_eq!(stamp, 0);
            t.end(TraceKind::Task, stamp, 0, 1);
            t.instant(TraceKind::Steal, 1, 1);
            t.coalesce(TraceKind::PlanHit, 7);
            drop(t);
            assert!(obs.snapshot().rings.is_empty());
        }
    }

    #[test]
    fn trace_tracer_records_and_flushes_on_drop() {
        let obs = Obs::new(ObsLevel::Trace);
        {
            let mut t = obs.worker_tracer(3);
            assert!(t.enabled());
            let s = t.begin();
            t.end(TraceKind::Task, s, 2, 5);
            t.instant(TraceKind::Steal, 1, 2);
            assert!(obs.snapshot().rings.is_empty(), "flushes only on drop");
        }
        let rings = obs.snapshot().rings;
        assert_eq!(rings.len(), 1);
        assert_eq!(rings[0].worker, 3);
        assert_eq!(rings[0].dropped, 0);
        assert_eq!(rings[0].events.len(), 2);
        assert_eq!(rings[0].events[0].kind, TraceKind::Task);
        assert_eq!((rings[0].events[0].a, rings[0].events[0].b), (2, 5));
        assert_eq!(rings[0].events[1].kind, TraceKind::Steal);
        // Both lanes stamp against the same epoch; order is preserved.
        assert!(rings[0].events[0].t_ns <= rings[0].events[1].t_ns);
    }

    #[test]
    fn ring_wraps_overwriting_oldest_with_exact_drop_count() {
        let obs = Obs::new(ObsLevel::Trace);
        {
            let mut t = obs.worker_tracer_with_capacity(0, 4);
            for i in 0..11u32 {
                t.instant(TraceKind::Task, i, 0);
            }
            assert_eq!(t.len(), 4, "ring never grows past capacity");
            assert_eq!(t.dropped(), 7, "drop counter counts evictions exactly");
        }
        let rings = obs.snapshot().rings;
        assert_eq!(rings[0].dropped, 7);
        // The oldest 7 events were overwritten; the newest 4 survive in
        // chronological order.
        let ids: Vec<u32> = rings[0].events.iter().map(|e| e.a).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        let stamps: Vec<u64> = rings[0].events.iter().map(|e| e.t_ns).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted, "flushed ring is time-ordered");
    }

    #[test]
    fn coalesce_merges_consecutive_hits_only() {
        let obs = Obs::new(ObsLevel::Trace);
        {
            let mut t = obs.worker_tracer(0);
            t.coalesce(TraceKind::PlanHit, 10);
            t.coalesce(TraceKind::PlanHit, 10);
            t.coalesce(TraceKind::PlanHit, 10);
            t.coalesce(TraceKind::PlanHit, 11); // different spec → new event
            t.instant(TraceKind::Steal, 0, 1); // breaks the streak
            t.coalesce(TraceKind::PlanHit, 11);
        }
        let events = obs.snapshot().rings.remove(0).events;
        let hits: Vec<(u32, u32)> = events
            .iter()
            .filter(|e| e.kind == TraceKind::PlanHit)
            .map(|e| (e.a, e.b))
            .collect();
        assert_eq!(hits, vec![(10, 3), (11, 1), (11, 1)]);
    }

    #[test]
    fn coalesce_works_across_ring_wraparound() {
        let obs = Obs::new(ObsLevel::Trace);
        {
            let mut t = obs.worker_tracer_with_capacity(0, 2);
            for i in 0..5u32 {
                t.instant(TraceKind::Task, i, 0);
            }
            // The ring has wrapped; the tail is now mid-buffer. A
            // coalesce against the last written event must still merge.
            t.coalesce(TraceKind::PlanHit, 1);
            t.coalesce(TraceKind::PlanHit, 1);
        }
        let ring = obs.snapshot().rings.remove(0);
        let last = *ring.events.last().unwrap();
        assert_eq!(last.kind, TraceKind::PlanHit);
        assert_eq!(last.b, 2);
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let obs = Obs::new(ObsLevel::Trace);
        assert!(with(|_| ()).is_none());
        {
            let _outer = install(obs.worker_tracer(0));
            instant(TraceKind::Task, 1, 0);
            {
                let _inner = install(obs.worker_tracer(1));
                instant(TraceKind::Task, 2, 0);
            }
            // Inner flushed; outer restored.
            instant(TraceKind::Task, 3, 0);
        }
        assert!(with(|_| ()).is_none());
        let rings = merge_rings(&obs.snapshot().rings);
        assert_eq!(rings.len(), 2);
        assert_eq!(rings[0].worker, 0);
        let outer_ids: Vec<u32> = rings[0].events.iter().map(|e| e.a).collect();
        assert_eq!(outer_ids, vec![1, 3]);
        assert_eq!(rings[1].worker, 1);
        assert_eq!(rings[1].events[0].a, 2);
    }

    #[test]
    fn installing_inert_tracer_is_a_noop() {
        let obs = Obs::new(ObsLevel::Trace);
        let _outer = install(obs.worker_tracer(0));
        {
            // An Off-collector tracer must not displace the current one.
            let _inner = install(Obs::off().worker_tracer(1));
            instant(TraceKind::Task, 9, 0);
        }
        drop(_outer);
        let rings = obs.snapshot().rings;
        assert_eq!(rings.len(), 1);
        assert_eq!(rings[0].events[0].a, 9, "event landed on the outer tracer");
    }

    #[test]
    fn merge_rings_orders_lanes_and_events_and_caps() {
        let rings = vec![
            WorkerRing {
                worker: 1,
                capacity: 8,
                dropped: 2,
                events: vec![ev(10, TraceKind::Task, 0), ev(30, TraceKind::Task, 1)],
            },
            WorkerRing { worker: DRIVER, capacity: 8, dropped: 0, events: vec![ev(5, TraceKind::PlanMiss, 0)] },
            WorkerRing {
                worker: 1,
                capacity: 8,
                dropped: 1,
                events: vec![ev(20, TraceKind::Steal, 2)],
            },
        ];
        let merged = merge_rings(&rings);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].worker, 1);
        assert_eq!(merged[0].dropped, 3, "drop counters sum");
        let stamps: Vec<u64> = merged[0].events.iter().map(|e| e.t_ns).collect();
        assert_eq!(stamps, vec![10, 20, 30], "merged lane is time-ordered");
        assert_eq!(merged[1].worker, DRIVER, "driver lane sorts last");
        // Capacity is enforced after merging.
        let over = vec![
            WorkerRing { worker: 0, capacity: 2, dropped: 0, events: vec![ev(1, TraceKind::Task, 0), ev(2, TraceKind::Task, 1)] },
            WorkerRing { worker: 0, capacity: 2, dropped: 0, events: vec![ev(3, TraceKind::Task, 2)] },
        ];
        let capped = merge_rings(&over);
        assert_eq!(capped[0].events.len(), 2);
        assert_eq!(capped[0].dropped, 1, "evictions during merge are counted");
        assert_eq!(capped[0].events[0].t_ns, 2, "oldest evicted first");
    }

    #[test]
    fn chrome_export_is_valid_and_has_one_lane_per_worker() {
        let obs = Obs::new(ObsLevel::Trace);
        {
            let _s = obs.span("engine:execute");
            for w in 0..3u32 {
                let mut t = obs.worker_tracer(w);
                let st = t.begin();
                t.end(TraceKind::Task, st, w, 1);
                t.instant(TraceKind::Steal, (w + 1) % 3, 1);
            }
            let mut d = obs.worker_tracer(DRIVER);
            d.instant(TraceKind::PlanMiss, 42, 8);
        }
        let rec = obs.snapshot();
        let rings = merge_rings(&rec.rings);
        let doc = chrome_trace(&rings, &rec.spans);
        let text = doc.to_string();
        validate_chrome_trace(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // One thread_name metadata entry per worker lane + driver +
        // the span thread.
        let lanes: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(lanes.contains(&"worker 0"));
        assert!(lanes.contains(&"worker 2"));
        assert!(lanes.contains(&"driver"));
        assert_eq!(lanes.len(), 5);
        // Task durations export as X, steals as scoped instants.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("task")
                && e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("dur").and_then(Json::as_f64).is_some()
        }));
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("steal")
                && e.get("ph").and_then(Json::as_str) == Some("i")
                && e.get("s").and_then(Json::as_str) == Some("t")
        }));
        // The span landed on a dedicated lane.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("engine:execute")
                && e.get("tid").and_then(Json::as_f64) >= Some(1000.0)
        }));
    }

    #[test]
    fn sweep_tagged_events_get_sub_lanes_and_sweep_args() {
        let obs = Obs::new(ObsLevel::Trace);
        {
            let mut t = obs.worker_tracer(0);
            let st = t.begin();
            t.end(TraceKind::Task, st, 1, 2); // untagged: base lane
            let st = t.begin();
            t.end_sweep(TraceKind::Task, st, 3, 4, 1); // sweep 0
            let st = t.begin();
            t.end_sweep(TraceKind::Task, st, 5, 6, 3); // sweep 2
        }
        let rec = obs.snapshot();
        let rings = merge_rings(&rec.rings);
        assert_eq!(rings[0].events[1].sweep, 1);
        let text = chrome_trace(&rings, &rec.spans).to_string();
        validate_chrome_trace(&text).unwrap();
        let events = Json::parse(&text).unwrap();
        let events = events.get("traceEvents").unwrap().as_arr().unwrap();
        let lanes: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(lanes.contains(&"worker 0"));
        assert!(lanes.contains(&"worker 0 sweep 0"));
        assert!(lanes.contains(&"worker 0 sweep 2"));
        // The untagged task stays on the base lane without a sweep arg;
        // tagged ones move to distinct sub-lanes carrying it.
        let tasks: Vec<(f64, Option<f64>)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("task"))
            .map(|e| {
                (
                    e.get("tid").and_then(Json::as_f64).unwrap(),
                    e.get("args").unwrap().get("sweep").and_then(Json::as_f64),
                )
            })
            .collect();
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[0], (1.0, None));
        assert_eq!(tasks[1].1, Some(0.0));
        assert_eq!(tasks[2].1, Some(2.0));
        assert_ne!(tasks[1].0, tasks[2].0, "sweeps land on distinct lanes");
        assert!(tasks[1].0 >= 100.0 && tasks[2].0 < 1000.0, "sub-lane band");
    }

    #[test]
    fn validate_chrome_trace_rejects_malformed_documents() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // X without dur.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"t\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":1}]}"
        )
        .is_err());
        // i without scope.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"t\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":1}]}"
        )
        .is_err());
        // Valid minimal document.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"t\",\"ph\":\"X\",\"ts\":1,\"dur\":2,\"pid\":1,\"tid\":1}]}"
        )
        .is_ok());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            TraceKind::Task,
            TraceKind::Steal,
            TraceKind::Park,
            TraceKind::PlanHit,
            TraceKind::PlanMiss,
            TraceKind::PlanCompile,
        ] {
            assert_eq!(TraceKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(TraceKind::parse("nope"), None);
    }
}
