//! The [`Recorder`]: where instrumented simulators deposit metrics and
//! trace events.
//!
//! All storage is ordered (`BTreeMap` + append-order `Vec`), and all
//! timestamps come from the caller's simulation clock, so a recorder
//! filled by a deterministic simulation exports byte-identical JSON on
//! every run. A disabled recorder early-returns from every method: the
//! instrumented hot loops pay one branch and nothing else.
//!
//! Trace events are buffered compactly: names and categories are
//! interned `u32` symbols, the phase is an enum and the one argument an
//! event can carry has a fixed shape, so recording an event allocates
//! nothing once its strings are known. Metric maps are looked up by
//! `&str` and allocate only for a new name. [`Recorder::events`] reads
//! the buffer in place; [`Recorder::export_trace`] is the only place the
//! owned [`TraceEvent`]s of a [`ChromeTrace`] are built.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::hist::Histogram;
use crate::series::Series;
use crate::trace::{ChromeTrace, TraceEvent};

/// Default cap on buffered trace events (satellite of ISSUE 8): generous
/// enough that no current experiment comes near it, but bounded so a
/// runaway instrumentation loop degrades to dropped events + a counter
/// instead of unbounded memory growth.
pub const DEFAULT_MAX_EVENTS: usize = 4_000_000;

/// Counter bumped once per trace event dropped at the cap; surfaced in
/// `RunManifest::dropped_events`.
pub const DROPPED_EVENTS_COUNTER: &str = "telemetry.dropped_events";

/// Bucketless summary of one histogram, for metrics snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (nearest rank, within one bucket width).
    pub p50: f64,
    /// 95th percentile (within one bucket width).
    pub p95: f64,
    /// 99th percentile (within one bucket width).
    pub p99: f64,
    /// 99.9th percentile (within one bucket width).
    pub p999: f64,
}

/// Every labeled metric a [`Recorder`] accumulated, in serializable form
/// (`--metrics-out`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins point-in-time values.
    pub gauges: BTreeMap<String, f64>,
    /// Distribution summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Interned string: an index into [`Symbols::names`]. Four billion
/// distinct strings is far more than [`DEFAULT_MAX_EVENTS`] events name.
type Sym = u32;

/// Every string the trace buffer refers to, stored once.
#[derive(Debug, Clone, Default, PartialEq)]
struct Symbols {
    names: Vec<String>,
    index: BTreeMap<String, Sym>,
}

impl Symbols {
    fn get(&self, s: &str) -> Option<Sym> {
        self.index.get(s).copied()
    }

    /// The symbol of `s`, allocating only the first time `s` is seen.
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = self.get(s) {
            return sym;
        }
        let sym = self.names.len() as Sym;
        self.names.push(s.to_string());
        self.index.insert(s.to_string(), sym);
        sym
    }

    fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym as usize]
    }
}

/// Trace-event phase (the Chrome `ph` code); `Mark` is an instant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Span,
    Mark,
    Counter,
    Meta,
}

impl Phase {
    fn code(self) -> &'static str {
        match self {
            Phase::Span => "X",
            Phase::Mark => "i",
            Phase::Counter => "C",
            Phase::Meta => "M",
        }
    }
}

/// The one argument an event carries: a counter sample's `value` or a
/// metadata event's `name`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arg {
    None,
    Value(f64),
    Name(Sym),
}

/// One buffered trace event. It owns no heap memory.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    name: Sym,
    cat: Sym,
    ph: Phase,
    arg: Arg,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
}

/// A recorded trace event, read in place (see [`Recorder::events`]).
/// Its argument is only exported, by [`Recorder::export_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventView<'a> {
    /// Event name (span label, counter name, or metadata kind).
    pub name: &'a str,
    /// Category.
    pub cat: &'a str,
    /// Phase code: `"X"`, `"i"`, `"C"` or `"M"`.
    pub ph: &'static str,
    /// Timestamp, microseconds of simulation time.
    pub ts: f64,
    /// Duration, microseconds (zero for non-span events).
    pub dur: f64,
    /// Process track id.
    pub pid: u64,
    /// Thread track id.
    pub tid: u64,
}

/// The trace events recorded so far, in recording order, borrowed from
/// the [`Recorder`].
#[derive(Debug, Clone, Copy)]
pub struct Events<'a> {
    events: &'a [Event],
    symbols: &'a Symbols,
}

impl<'a> Events<'a> {
    /// How many events are buffered.
    #[must_use]
    pub fn len(self) -> usize {
        self.events.len()
    }

    /// Whether no event is buffered.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.events.is_empty()
    }

    /// Every event, in recording order.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = EventView<'a>> + ExactSizeIterator + 'a {
        let symbols = self.symbols;
        self.events.iter().map(move |e| EventView {
            name: symbols.resolve(e.name),
            cat: symbols.resolve(e.cat),
            ph: e.ph.code(),
            ts: e.ts,
            dur: e.dur,
            pid: e.pid,
            tid: e.tid,
        })
    }
}

/// Apply `f` to `map[name]`, inserting `T::default()` first if missing:
/// only a new name allocates.
fn update<T: Default>(map: &mut BTreeMap<String, T>, name: &str, f: impl FnOnce(&mut T)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// Sim-time telemetry sink: counters, gauges, histograms, and Chrome
/// trace events. See the crate docs for the determinism and disabled
/// no-op contracts.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    enabled: bool,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Series>,
    events: Vec<Event>,
    symbols: Symbols,
    /// Process label → pid, in registration order.
    pids: BTreeMap<String, u64>,
    /// (pid, thread label) → tid, in registration order per pid.
    tids: BTreeMap<(u64, Sym), u64>,
    next_pid: u64,
    next_tid: BTreeMap<u64, u64>,
    max_events: usize,
    dropped_events: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Recorder {
    /// An enabled recorder.
    #[must_use]
    pub fn new() -> Self {
        Self { enabled: true, ..Self::disabled() }
    }

    /// A disabled recorder: every method is a no-op. This is what the
    /// un-instrumented `run()` entry points pass through their traced
    /// internals, keeping the default path byte-identical.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series: BTreeMap::new(),
            events: Vec::new(),
            symbols: Symbols::default(),
            pids: BTreeMap::new(),
            tids: BTreeMap::new(),
            next_pid: 1,
            next_tid: BTreeMap::new(),
            max_events: DEFAULT_MAX_EVENTS,
            dropped_events: 0,
        }
    }

    /// Override the trace-event buffer cap (see [`DEFAULT_MAX_EVENTS`]).
    /// Events arriving past the cap are dropped, counted in
    /// [`DROPPED_EVENTS_COUNTER`] and [`Recorder::dropped_events`].
    pub fn set_max_events(&mut self, max_events: usize) {
        self.max_events = max_events;
    }

    /// Trace events dropped at the buffer cap so far.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Buffer the event `make` builds, or drop it (and account for the
    /// drop) at the cap; a dropped event interns nothing. Metric maps
    /// (counters/gauges/histograms/series) are never capped — they are
    /// bounded by label cardinality, not run length.
    fn push_event(&mut self, make: impl FnOnce(&mut Symbols) -> Event) {
        if self.events.len() >= self.max_events {
            self.dropped_events += 1;
            update(&mut self.counters, DROPPED_EVENTS_COUNTER, |c| *c += 1);
            return;
        }
        let event = make(&mut self.symbols);
        self.events.push(event);
    }

    /// Buffer a `process_name`/`thread_name` metadata event naming a track.
    fn push_meta(&mut self, kind: &str, label: &str, pid: u64, tid: u64) {
        self.push_event(|s| Event {
            name: s.intern(kind),
            cat: s.intern("__metadata"),
            ph: Phase::Meta,
            arg: Arg::Name(s.intern(label)),
            ts: 0.0,
            dur: 0.0,
            pid,
            tid,
        });
    }

    /// Whether this recorder records anything. Instrumentation sites
    /// check this before formatting labels so the disabled path never
    /// allocates.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register (or look up) a trace process track named `label`,
    /// emitting the `process_name` metadata event on first use. Returns
    /// 0 when disabled.
    pub fn process(&mut self, label: &str) -> u64 {
        if !self.enabled {
            return 0;
        }
        if let Some(&pid) = self.pids.get(label) {
            return pid;
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        self.pids.insert(label.to_string(), pid);
        self.push_meta("process_name", label, pid, 0);
        pid
    }

    /// Register (or look up) a named thread track under `pid`, emitting
    /// the `thread_name` metadata event on first use. Returns 0 when
    /// disabled.
    pub fn thread(&mut self, pid: u64, label: &str) -> u64 {
        if !self.enabled {
            return 0;
        }
        let known = self.symbols.get(label).and_then(|sym| self.tids.get(&(pid, sym)));
        if let Some(&tid) = known {
            return tid;
        }
        let next = self.next_tid.entry(pid).or_insert(1);
        let tid = *next;
        *next += 1;
        let sym = self.symbols.intern(label);
        self.tids.insert((pid, sym), tid);
        self.push_meta("thread_name", label, pid, tid);
        tid
    }

    /// Record a complete span (`"X"`): `[start_us, end_us]` on track
    /// `(pid, tid)`. Negative extents are clamped to zero duration.
    pub fn span(&mut self, pid: u64, tid: u64, cat: &str, name: &str, start_us: f64, end_us: f64) {
        if !self.enabled {
            return;
        }
        self.push_event(|s| Event {
            name: s.intern(name),
            cat: s.intern(cat),
            ph: Phase::Span,
            arg: Arg::None,
            ts: start_us,
            dur: (end_us - start_us).max(0.0),
            pid,
            tid,
        });
    }

    /// Record an instant event (`"i"`) at `ts_us`.
    pub fn instant(&mut self, pid: u64, tid: u64, cat: &str, name: &str, ts_us: f64) {
        if !self.enabled {
            return;
        }
        self.push_event(|s| Event {
            name: s.intern(name),
            cat: s.intern(cat),
            ph: Phase::Mark,
            arg: Arg::None,
            ts: ts_us,
            dur: 0.0,
            pid,
            tid,
        });
    }

    /// Record a counter sample (`"C"`): viewers render these as a
    /// stacked area chart per `(pid, name)`.
    pub fn counter_sample(&mut self, pid: u64, name: &str, ts_us: f64, value: f64) {
        if !self.enabled {
            return;
        }
        self.push_event(|s| Event {
            name: s.intern(name),
            cat: s.intern("counter"),
            ph: Phase::Counter,
            arg: Arg::Value(value),
            ts: ts_us,
            dur: 0.0,
            pid,
            tid: 0,
        });
    }

    /// Add `delta` to the counter `name`.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        update(&mut self.counters, name, |c| *c += delta);
    }

    /// Set the gauge `name` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        update(&mut self.gauges, name, |g| *g = value);
    }

    /// Record `value` into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        update(&mut self.histograms, name, |h| h.observe(value));
    }

    /// Record a `(sim-time, value)` sample into the bounded time series
    /// `name` (workspace convention: `ts_ms` is milliseconds of sim
    /// time). Series give gauges and counters a time dimension — they
    /// are what the `watch` detectors replay.
    pub fn series(&mut self, name: &str, ts_ms: f64, value: f64) {
        if !self.enabled {
            return;
        }
        update(&mut self.series, name, |s| s.record(ts_ms, value));
    }

    /// All recorded time series, keyed by name (empty when disabled).
    #[must_use]
    pub fn series_map(&self) -> &BTreeMap<String, Series> {
        &self.series
    }

    /// Read back one time series, if it exists.
    #[must_use]
    pub fn series_get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Registered trace processes, label → pid (empty when disabled).
    /// Incident attribution uses this to map an instant event's pid back
    /// to the experiment scope that emitted it.
    #[must_use]
    pub fn processes(&self) -> &BTreeMap<String, u64> {
        &self.pids
    }

    /// The accumulated counters (empty when disabled).
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Read back one histogram, if it exists.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Trace events recorded so far, read in place.
    #[must_use]
    pub fn events(&self) -> Events<'_> {
        Events { events: &self.events, symbols: &self.symbols }
    }

    /// Summarize every labeled metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    HistogramSummary {
                        count: h.count(),
                        sum: h.sum(),
                        mean: h.mean(),
                        min: h.min(),
                        max: h.max(),
                        p50: h.quantile(50.0),
                        p95: h.quantile(95.0),
                        p99: h.quantile(99.0),
                        p999: h.quantile(99.9),
                    },
                )
            })
            .collect();
        MetricsSnapshot { counters: self.counters.clone(), gauges: self.gauges.clone(), histograms }
    }

    /// Export everything recorded as a Chrome trace document: the one
    /// place the buffered events become owned [`TraceEvent`]s.
    #[must_use]
    pub fn export_trace(&self) -> ChromeTrace {
        let name = |sym| self.symbols.resolve(sym).to_string();
        let events = self.events.iter().map(|e| {
            let args = match e.arg {
                Arg::None => BTreeMap::new(),
                Arg::Value(v) => BTreeMap::from([("value".into(), serde_json::Value::Float(v))]),
                Arg::Name(sym) => {
                    BTreeMap::from([("name".into(), serde_json::Value::Str(name(sym)))])
                }
            };
            TraceEvent {
                name: name(e.name),
                cat: name(e.cat),
                ph: e.ph.code().to_string(),
                ts: e.ts,
                dur: e.dur,
                pid: e.pid,
                tid: e.tid,
                args,
            }
        });
        ChromeTrace { traceEvents: events.collect(), displayTimeUnit: "ms".to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_chrome_trace;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let pid = rec.process("engine");
        let tid = rec.thread(pid, "t");
        rec.span(pid, tid, "c", "s", 0.0, 5.0);
        rec.instant(pid, tid, "c", "i", 1.0);
        rec.counter_sample(pid, "batch", 2.0, 3.0);
        rec.counter_add("completed", 1);
        rec.gauge_set("g", 1.0);
        rec.observe("h", 2.0);
        assert_eq!(pid, 0);
        assert_eq!(tid, 0);
        assert!(rec.events().is_empty());
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
        assert!(rec.export_trace().traceEvents.is_empty());
    }

    #[test]
    fn process_and_thread_ids_are_stable() {
        let mut rec = Recorder::new();
        let a = rec.process("engine");
        let b = rec.process("requests");
        assert_ne!(a, b);
        assert_eq!(rec.process("engine"), a);
        let t1 = rec.thread(a, "crash");
        assert_eq!(rec.thread(a, "crash"), t1);
        assert_ne!(rec.thread(a, "flap"), t1);
        // Metadata events: 2 processes + 2 threads.
        assert_eq!(rec.events().len(), 4);
    }

    #[test]
    fn export_is_valid_chrome_trace() {
        let mut rec = Recorder::new();
        let pid = rec.process("netsim");
        rec.span(pid, 3, "flow", "flow3", 10.0, 40.0);
        rec.instant(pid, 0, "fault", "inject sdc", 12.0);
        rec.counter_sample(pid, "link0_util", 10.0, 0.75);
        let stats = validate_chrome_trace(&rec.export_trace().to_json()).expect("valid");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.metadata, 1);
    }

    #[test]
    fn metrics_accumulate() {
        let mut rec = Recorder::new();
        rec.counter_add("done", 2);
        rec.counter_add("done", 3);
        rec.gauge_set("util", 0.5);
        rec.gauge_set("util", 0.9);
        for v in [1.0, 2.0, 3.0, 4.0] {
            rec.observe("lat", v);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters["done"], 5);
        assert!((snap.gauges["util"] - 0.9).abs() < 1e-12);
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
        assert!(h.p50 >= 2.0 && h.p50 <= 2.0 * crate::hist::growth() * 1.000_001);
    }

    #[test]
    fn buffered_events_stay_compact() {
        assert!(std::mem::size_of::<Event>() <= 64);
    }

    #[test]
    fn negative_span_extent_clamps_to_zero_duration() {
        let mut rec = Recorder::new();
        rec.span(1, 1, "c", "s", 5.0, 3.0);
        assert_eq!(rec.events().iter().next().map(|e| e.dur), Some(0.0));
    }

    #[test]
    fn event_cap_drops_and_counts() {
        let mut rec = Recorder::new();
        rec.set_max_events(3);
        for i in 0..10 {
            rec.instant(1, 1, "c", "i", f64::from(i));
        }
        assert_eq!(rec.events().len(), 3);
        assert_eq!(rec.dropped_events(), 7);
        assert_eq!(rec.counters()[DROPPED_EVENTS_COUNTER], 7);
        // Metrics are not capped alongside events.
        rec.counter_add("done", 1);
        rec.observe("h", 1.0);
        rec.series("s", 0.0, 1.0);
        assert_eq!(rec.counters()["done"], 1);
        assert_eq!(rec.series_get("s").map(crate::series::Series::count), Some(1));
    }

    #[test]
    fn under_cap_nothing_drops() {
        let mut rec = Recorder::new();
        for i in 0..100 {
            rec.instant(1, 1, "c", "i", f64::from(i));
        }
        assert_eq!(rec.dropped_events(), 0);
        assert!(!rec.counters().contains_key(DROPPED_EVENTS_COUNTER));
    }

    #[test]
    fn series_accumulate_and_disabled_is_noop() {
        let mut rec = Recorder::new();
        rec.series("q", 0.5, 2.0);
        rec.series("q", 1.5, 4.0);
        let s = rec.series_get("q").expect("recorded");
        assert_eq!(s.count(), 2);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(rec.series_map().len(), 1);

        let mut off = Recorder::disabled();
        off.series("q", 0.5, 2.0);
        assert!(off.series_map().is_empty());
        assert_eq!(off.dropped_events(), 0);
    }

    #[test]
    fn snapshot_p999_brackets_tail() {
        let mut rec = Recorder::new();
        for i in 1..=1000 {
            rec.observe("lat", f64::from(i));
        }
        let h = &rec.snapshot().histograms["lat"];
        assert!(h.p999 >= h.p99);
        assert!(h.p999 <= h.max);
        assert!(h.p999 >= 999.0 / crate::hist::growth());
    }
}
