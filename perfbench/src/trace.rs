//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory and are written once, at exit, as Chrome-trace
//! JSON through the telemetry crate's exporter types, so `dsv3
//! check-trace` validates the file. Every span carries its own id, its
//! parent's id (0 for an operation's root span) and the id of the
//! operation it belongs to. Timestamps are host microseconds since the
//! tracer was created.

use dsv3_core::telemetry::{ChromeTrace, TraceEvent};
use serde_json::Value;
use std::collections::BTreeMap;
// lint:allow(D1) — the benchmark measures host time; no simulation reads this clock
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `collectives.run_round.dispatch.n16`.
    pub name: String,
    /// Unique id, from 1.
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to.
    pub op: u64,
    /// Start, since the tracer's epoch.
    pub start: Duration,
    /// End, since the tracer's epoch.
    pub end: Duration,
}

/// Times calls and, when enabled, records them as spans.
///
/// Only top-level calls (those not nested in another call) add to an
/// operation's busy time, so nesting never double-counts.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant, // lint:allow(D1) — host-time epoch of the benchmark's own spans
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open.
    open: Vec<usize>,
    depth: usize,
    op: u64,
    last_end: Duration,
    busy: Duration,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(), // lint:allow(D1) — host-time epoch of the benchmark's own spans
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            op: 0,
            last_end: Duration::ZERO,
            busy: Duration::ZERO,
        }
    }

    /// Time since the tracer was created.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Turn span recording on or off between operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start operation `name`: a root span whose children are its calls.
    pub fn begin_op(&mut self, name: &str) {
        self.op += 1;
        self.busy = Duration::ZERO;
        self.last_end = self.epoch.elapsed();
        self.open_span(name, self.last_end);
    }

    /// End the current operation and return its busy time: the summed
    /// duration of its top-level calls. The root span ends where the
    /// last call ended, so checks run after it stay outside.
    pub fn end_op(&mut self) -> Duration {
        let end = self.last_end;
        self.close_span(end);
        self.busy
    }

    /// Run `f` as a call named `name` and return its result.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Run `f` as a call named `name`; return its result and duration.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = self.epoch.elapsed();
        self.open_span(name, start);
        self.depth += 1;
        let out = f();
        self.depth -= 1;
        let end = self.epoch.elapsed();
        self.close_span(end);
        let took = end.saturating_sub(start);
        if self.depth == 0 {
            self.busy += took;
            self.last_end = end;
        }
        (out, took)
    }

    fn open_span(&mut self, name: &str, start: Duration) {
        if !self.enabled {
            self.open.push(usize::MAX);
            return;
        }
        let parent =
            self.open.iter().rev().find(|&&i| i != usize::MAX).map_or(0, |&i| self.spans[i].id);
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            op: self.op,
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close_span(&mut self, end: Duration) {
        if let Some(i) = self.open.pop() {
            if i != usize::MAX {
                self.spans[i].end = end;
            }
        }
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Median per-iteration nanoseconds of `f` over `samples` samples of
/// `iters` back-to-back calls each.
pub fn time_ns<O>(samples: u32, iters: u32, mut f: impl FnMut() -> O) -> f64 {
    let iters = iters.max(1);
    let mut clock = Tracer::new(false);
    let mut per_iter: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let ((), took) = clock.timed("", || {
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
            });
            took.as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    crate::median(&mut per_iter)
}

/// Self time of each span: its duration minus the time its direct
/// children cover. The runner is single-threaded, so siblings never
/// overlap and the cover is the sum of the children's durations.
#[must_use]
pub(crate) fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut child_time: BTreeMap<u64, Duration> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_time.entry(s.parent).or_default() += s.end.saturating_sub(s.start);
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_time.get(&s.id).copied().unwrap_or_default();
            s.end.saturating_sub(s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name, largest first.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, Duration)> {
    let mut by: BTreeMap<&str, Duration> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.name.as_str()).or_default() += t;
    }
    let mut v: Vec<(String, Duration)> = by.into_iter().map(|(n, t)| (n.to_string(), t)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The spans as a Chrome trace: one named process and thread, one
/// complete (`"X"`) event per span, categorised by its layer (the name
/// up to the first dot).
#[must_use]
pub fn chrome_trace(spans: &[Span], process: &str) -> ChromeTrace {
    let meta = |kind: &str, label: &str| TraceEvent {
        name: kind.to_string(),
        cat: "__metadata".to_string(),
        ph: "M".to_string(),
        ts: 0.0,
        dur: 0.0,
        pid: 1,
        tid: 1,
        args: BTreeMap::from([("name".to_string(), Value::Str(label.to_string()))]),
    };
    let mut events = vec![meta("process_name", process), meta("thread_name", "client")];
    events.extend(spans.iter().map(|s| TraceEvent {
        name: s.name.clone(),
        cat: s.name.split('.').next().unwrap_or("bench").to_string(),
        ph: "X".to_string(),
        ts: us(s.start),
        dur: us(s.end.saturating_sub(s.start)),
        pid: 1,
        tid: 1,
        args: BTreeMap::from([
            ("id".to_string(), Value::UInt(s.id)),
            ("op".to_string(), Value::UInt(s.op)),
            ("parent".to_string(), Value::UInt(s.parent)),
        ]),
    }));
    ChromeTrace { traceEvents: events, displayTimeUnit: "ms".to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_counts_top_level_calls_once() {
        let mut t = Tracer::new(true);
        t.begin_op("op");
        t.call("outer", || {
            std::thread::sleep(Duration::from_millis(2));
        });
        let busy = t.end_op();
        assert!(busy >= Duration::from_millis(2));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].end, spans[1].end, "root ends with its last call");
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op("op");
        let (v, took) = t.timed("call", || 7);
        assert_eq!(v, 7);
        assert_eq!(t.end_op(), took);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let ms = Duration::from_millis;
        let span = |id, parent, start, end| Span {
            name: format!("s{id}"),
            id,
            parent,
            op: 1,
            start: ms(start),
            end: ms(end),
        };
        let spans = [span(1, 0, 0, 10), span(2, 1, 1, 4), span(3, 1, 5, 9)];
        assert_eq!(self_times(&spans), vec![ms(3), ms(3), ms(4)]);
        assert_eq!(self_time_by_name(&spans)[0], ("s3".to_string(), ms(4)));
    }
}
