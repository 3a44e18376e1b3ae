//! Benchmark-side spans: one per call into a layer of the program,
//! recorded from outside it. Kept in memory, written at exit as Chrome
//! trace JSON; a layer's self time is its spans' duration minus the part
//! their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use instencil::obs::Json;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Rec {
    /// Layer (crate) the call went into; `bench` for the benchmark's own
    /// work (input generation, checks, probes).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start and end, nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Rec {
    /// Duration; a span that is still open has none.
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; give it back to [`SpanLog::exit`].
pub struct Token {
    start: Instant,
    idx: Option<usize>,
}

/// The span recorder. Timing through [`SpanLog::enter`] /
/// [`SpanLog::exit`] works the same whether recording is on or off, so
/// the untraced and the traced run execute the same measurement code;
/// only the traced run keeps the records.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(on: bool) -> Self {
        SpanLog {
            on,
            epoch: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Token {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.recs.push(Rec {
                layer,
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.recs.len() - 1);
            self.recs.len() - 1
        });
        Token { start, idx }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn exit(&mut self, token: Token) -> f64 {
        let end = Instant::now();
        if let Some(idx) = token.idx {
            assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
            self.recs[idx].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (end - token.start).as_secs_f64()
    }

    /// Times one call into `layer`.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let token = self.enter(layer, name);
        let out = f();
        (out, self.exit(token))
    }

    pub fn recs(&self) -> &[Rec] {
        &self.recs
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(recs: &[Rec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); recs.len()];
    for r in recs {
        if let Some(p) = r.parent {
            let lo = r.start_ns.max(recs[p].start_ns);
            let hi = r.end_ns.min(recs[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    recs.iter()
        .zip(children)
        .map(|(r, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = r.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            r.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time in seconds, keyed by `key(span)`.
pub fn self_time_by<K: Ord>(recs: &[Rec], key: impl Fn(&Rec) -> K) -> BTreeMap<K, f64> {
    let mut out = BTreeMap::new();
    for (r, ns) in recs.iter().zip(self_times(recs)) {
        *out.entry(key(r)).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// The spans as Chrome `trace_event` JSON (open in `chrome://tracing` or
/// <https://ui.perfetto.dev>): one complete event per span, microsecond
/// timestamps, the parent's index and the workload in `args`.
pub fn chrome_trace(recs: &[Rec], workload: &str) -> Json {
    let events = recs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Json::Obj(vec![
                ("name".into(), Json::str(format!("{}:{}", r.layer, r.name))),
                ("cat".into(), Json::str(r.layer)),
                ("ph".into(), Json::str("X")),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(1.0)),
                ("ts".into(), Json::Num(r.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(r.dur_ns() as f64 / 1e3)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::Num(i as f64)),
                        (
                            "parent".into(),
                            r.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload".into(), Json::str(workload)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Rec {
        Rec {
            layer: "exec",
            name: "x",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let recs = [
            rec(0, 100, None),
            rec(10, 30, Some(0)),
            rec(40, 90, Some(0)),
            rec(50, 60, Some(2)), // grandchild: only its parent loses it
        ];
        assert_eq!(self_times(&recs), vec![100 - 20 - 50, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_clipped() {
        let recs = [
            rec(100, 200, None),
            rec(110, 150, Some(0)),
            rec(140, 160, Some(0)), // overlaps the first by 10
            rec(190, 250, Some(0)), // overhangs the parent's end by 50
        ];
        assert_eq!(self_times(&recs)[0], 100 - 50 - 10);
    }

    #[test]
    fn layers_sum_their_spans_self_time() {
        let mut recs = vec![rec(0, 1_000_000_000, None), rec(0, 250_000_000, Some(0))];
        recs[0].layer = "bench";
        let by = self_time_by(&recs, |r| r.layer);
        assert_eq!(by["bench"], 0.75);
        assert_eq!(by["exec"], 0.25);
    }

    #[test]
    fn a_log_that_is_off_times_but_keeps_nothing() {
        let mut log = SpanLog::new(false);
        let (v, secs) = log.time("ir", "build", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(log.recs().is_empty());
    }

    #[test]
    fn nesting_is_recorded_and_exported() {
        let mut log = SpanLog::new(true);
        let outer = log.enter("bench", "workload");
        log.time("core", "compile", || ());
        log.exit(outer);
        assert_eq!(log.recs()[1].parent, Some(0));
        let json = chrome_trace(log.recs(), "w").to_string();
        let parsed = Json::parse(&json).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("core:compile")
        );
    }
}
