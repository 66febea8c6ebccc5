//! Properties of the trace export: recorded spans survive a round trip
//! through `serde_json` unchanged, and every export the recorder can
//! produce passes its own validator. The streaming writer renders the
//! same bytes as the derived `Serialize` through `serde_json`'s `Value`
//! tree, and the compact recorder exports the same trace as the
//! owned-event recorder it replaced, rebuilt here as an oracle. Plus the
//! series-downsampling invariants: whatever the bucket cap forces the
//! series to merge, the total count is exact and the per-bucket min/max
//! never escape the envelope of the raw sample stream.

use std::collections::BTreeMap;

use dsv3_telemetry::{
    validate_chrome_trace, ChromeTrace, Recorder, Series, TraceEvent, DROPPED_EVENTS_COUNTER,
};
use proptest::prelude::*;
use serde_json::Value;

/// Characters that stress the escaper: quotes, backslashes, every
/// whitespace escape, other controls, DEL and multi-byte UTF-8.
const CHARS: [char; 16] = [
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', '/', 'a', 'Z', ' ', 'é',
    '∑', '😀',
];

/// Floats whose rendering is special: non-finite (written `null`),
/// signed zero, extreme exponents and integral values (which keep `.0`).
const FLOATS: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1e300,
    -1e-300,
    1.0,
    42.0,
    0.1,
    5e-324,
    f64::MAX,
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..6)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// A special float half the time, an arbitrary one otherwise.
fn float() -> impl Strategy<Value = f64> {
    (0..2 * FLOATS.len(), -1e12f64..1e12).prop_map(|(i, x)| FLOATS.get(i).copied().unwrap_or(x))
}

/// 0, 1 or `u64::MAX` half the time, an arbitrary id otherwise.
fn id() -> impl Strategy<Value = u64> {
    (0usize..6, 0..u64::MAX).prop_map(|(i, x)| [0, 1, u64::MAX].get(i).copied().unwrap_or(x))
}

fn scalar() -> impl Strategy<Value = Value> {
    (0usize..6, -(1i64 << 62)..(1i64 << 62), id(), float(), text()).prop_map(
        |(kind, i, u, f, s)| match kind {
            0 => Value::Null,
            1 => Value::Bool(i % 2 == 0),
            2 => Value::Int(i),
            3 => Value::UInt(u),
            4 => Value::Float(f),
            _ => Value::Str(s),
        },
    )
}

/// Any `Value` variant: a scalar, or an array or object of scalars.
fn value() -> impl Strategy<Value = Value> {
    (
        0usize..4,
        scalar(),
        prop::collection::vec(scalar(), 0..3),
        prop::collection::vec((text(), scalar()), 0..3),
    )
        .prop_map(|(kind, leaf, items, entries)| match kind {
            0 | 1 => leaf,
            2 => Value::Array(items),
            _ => Value::Object(entries),
        })
}

fn trace_event() -> impl Strategy<Value = TraceEvent> {
    (
        (text(), text(), text()),
        (float(), float()),
        (id(), id()),
        prop::collection::vec((text(), value()), 0..4),
    )
        .prop_map(|((name, cat, ph), (ts, dur), (pid, tid), args)| TraceEvent {
            name,
            cat,
            ph,
            ts,
            dur,
            pid,
            tid,
            args: args.into_iter().collect(),
        })
}

/// The owned-event recorder the compact one replaced: one `TraceEvent`
/// per call, with the same track numbering and drop accounting.
struct OwnedRecorder {
    events: Vec<TraceEvent>,
    pids: BTreeMap<String, u64>,
    tids: BTreeMap<(u64, String), u64>,
    next_tid: BTreeMap<u64, u64>,
    max_events: usize,
    dropped: u64,
}

impl OwnedRecorder {
    fn new(max_events: usize) -> Self {
        Self {
            events: Vec::new(),
            pids: BTreeMap::new(),
            tids: BTreeMap::new(),
            next_tid: BTreeMap::new(),
            max_events,
            dropped: 0,
        }
    }

    fn push(
        &mut self,
        (name, cat, ph): (&str, &str, &str),
        (ts, dur): (f64, f64),
        (pid, tid): (u64, u64),
        arg: Option<(&str, Value)>,
    ) {
        if self.events.len() >= self.max_events {
            self.dropped += 1;
            return;
        }
        let args = arg.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        self.events.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            ph: ph.into(),
            ts,
            dur,
            pid,
            tid,
            args,
        });
    }

    fn process(&mut self, label: &str) -> u64 {
        if let Some(&pid) = self.pids.get(label) {
            return pid;
        }
        let pid = self.pids.len() as u64 + 1;
        self.pids.insert(label.to_string(), pid);
        self.push(
            ("process_name", "__metadata", "M"),
            (0.0, 0.0),
            (pid, 0),
            Some(("name", Value::Str(label.into()))),
        );
        pid
    }

    fn thread(&mut self, pid: u64, label: &str) -> u64 {
        if let Some(&tid) = self.tids.get(&(pid, label.to_string())) {
            return tid;
        }
        let next = self.next_tid.entry(pid).or_insert(1);
        let tid = *next;
        *next += 1;
        self.tids.insert((pid, label.to_string()), tid);
        self.push(
            ("thread_name", "__metadata", "M"),
            (0.0, 0.0),
            (pid, tid),
            Some(("name", Value::Str(label.into()))),
        );
        tid
    }
}

const LABELS: [&str; 5] = ["engine", "s/requests", "req1", "\"q\"\n", ""];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn writer_matches_serde_value_tree(
        events in prop::collection::vec(trace_event(), 0..12),
        unit in text(),
    ) {
        let trace = ChromeTrace { traceEvents: events, displayTimeUnit: unit };
        let oracle = serde_json::to_string(&trace).expect("serializes");
        prop_assert_eq!(&trace.to_json(), &oracle);
        let mut streamed = Vec::new();
        trace.write_json(&mut streamed).expect("a Vec never fails");
        prop_assert_eq!(streamed, oracle.into_bytes());
    }

    #[test]
    fn compact_recorder_exports_what_owned_events_did(
        ops in prop::collection::vec(
            (0usize..5, 0..LABELS.len(), 0u64..4, (-1e6f64..1e6, -1e6f64..1e6), float()),
            0..60,
        ),
        cap in 0usize..48,
    ) {
        // Caps of 40 and up never bind: the default cap is kept.
        let cap = if cap >= 40 { dsv3_telemetry::DEFAULT_MAX_EVENTS } else { cap };
        let mut rec = Recorder::new();
        rec.set_max_events(cap);
        let mut old = OwnedRecorder::new(cap);
        for (kind, label, id, (t0, t1), v) in ops {
            let label = LABELS[label];
            match kind {
                0 => prop_assert_eq!(rec.process(label), old.process(label)),
                1 => prop_assert_eq!(rec.thread(id, label), old.thread(id, label)),
                2 => {
                    rec.span(id, id + 1, label, "decode", t0, t1);
                    let dur = (t1 - t0).max(0.0);
                    old.push(("decode", label, "X"), (t0, dur), (id, id + 1), None);
                }
                3 => {
                    rec.instant(id, 0, "fault", label, t0);
                    old.push((label, "fault", "i"), (t0, 0.0), (id, 0), None);
                }
                _ => {
                    rec.counter_sample(id, label, t0, v);
                    let value = Some(("value", Value::Float(v)));
                    old.push((label, "counter", "C"), (t0, 0.0), (id, 0), value);
                }
            }
        }
        prop_assert_eq!(rec.dropped_events(), old.dropped);
        let dropped = rec.counters().get(DROPPED_EVENTS_COUNTER).copied();
        prop_assert_eq!(dropped, (old.dropped > 0).then_some(old.dropped));
        prop_assert_eq!(rec.processes(), &old.pids);
        let want = ChromeTrace { traceEvents: old.events, displayTimeUnit: "ms".into() };
        let got = rec.export_trace();
        // The Debug text also matches NaN samples, which `==` would not.
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        prop_assert_eq!(got.to_json(), serde_json::to_string(&want).expect("serializes"));
        // The borrowed views read the same events.
        prop_assert_eq!(rec.events().len(), want.traceEvents.len());
        for (view, owned) in rec.events().iter().zip(&want.traceEvents) {
            let owned_text = (owned.name.as_str(), owned.cat.as_str(), owned.ph.as_str());
            prop_assert_eq!((view.name, view.cat, view.ph), owned_text);
            let bits = |ts: f64, dur: f64| (ts.to_bits(), dur.to_bits());
            prop_assert_eq!(bits(view.ts, view.dur), bits(owned.ts, owned.dur));
            prop_assert_eq!((view.pid, view.tid), (owned.pid, owned.tid));
        }
    }

    #[test]
    fn recorded_spans_round_trip_through_serde_json(
        spans in prop::collection::vec(
            (0.0f64..1e9, 0.0f64..1e6, 1u64..64, 0u64..64),
            0..32,
        ),
    ) {
        let mut rec = Recorder::new();
        let pid = rec.process("engine");
        for (i, &(start, dur, _, tid)) in spans.iter().enumerate() {
            rec.span(pid, tid, "request", &format!("span{i}"), start, start + dur);
        }
        let trace = rec.export_trace();
        let json = trace.to_json();
        let back: ChromeTrace = serde_json::from_str(&json).expect("export parses");
        prop_assert_eq!(&back, &trace, "round trip must be lossless");
        let stats = validate_chrome_trace(&json).expect("export validates");
        prop_assert_eq!(stats.spans, spans.len());
        prop_assert_eq!(stats.metadata, 1);
    }

    #[test]
    fn mixed_event_exports_always_validate(
        n_spans in 0usize..16,
        n_instants in 0usize..16,
        n_counters in 0usize..16,
    ) {
        let mut rec = Recorder::new();
        let pid = rec.process("p");
        let tid = rec.thread(pid, "t");
        for i in 0..n_spans {
            rec.span(pid, tid, "c", "s", i as f64, i as f64 + 1.0);
        }
        for i in 0..n_instants {
            rec.instant(pid, tid, "c", "i", i as f64);
        }
        for i in 0..n_counters {
            rec.counter_sample(pid, "v", i as f64, i as f64 * 0.5);
        }
        let stats = validate_chrome_trace(&rec.export_trace().to_json()).expect("valid");
        prop_assert_eq!(stats.spans, n_spans);
        prop_assert_eq!(stats.instants, n_instants);
        prop_assert_eq!(stats.counters, n_counters);
        prop_assert_eq!(stats.events, n_spans + n_instants + n_counters + 2);
    }

    #[test]
    fn series_downsampling_preserves_count_and_envelope(
        samples in prop::collection::vec(
            (0.0f64..500_000.0, -1e6f64..1e6),
            1..600,
        ),
        max_buckets in 2usize..64,
    ) {
        let mut s = Series::with_max_buckets(max_buckets);
        for &(ts, v) in &samples {
            s.record(ts, v);
        }
        // The cap holds however hostile the timestamp spread.
        prop_assert!(s.len() <= max_buckets,
            "cap {} exceeded: {} buckets", max_buckets, s.len());
        // Merging buckets preserves the count exactly.
        prop_assert_eq!(s.count(), samples.len() as u64);
        let bucket_total: u64 = s.buckets().map(|(_, b)| b.count).sum();
        prop_assert_eq!(bucket_total, samples.len() as u64);
        // And the min/max envelope of the raw stream.
        let raw_min = samples.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        let raw_max = samples.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), Some(raw_min));
        prop_assert_eq!(s.max(), Some(raw_max));
        // Per-bucket aggregates stay inside the global envelope, and the
        // per-bucket sums recompose to the raw sum.
        for (_, b) in s.buckets() {
            prop_assert!(b.min >= raw_min && b.max <= raw_max);
            prop_assert!(b.min <= b.last && b.last <= b.max);
        }
        let raw_sum: f64 = samples.iter().map(|&(_, v)| v).sum();
        let bucket_sum: f64 = s.buckets().map(|(_, b)| b.sum).sum();
        prop_assert!((raw_sum - bucket_sum).abs() <= 1e-6 * (1.0 + raw_sum.abs()),
            "sum drifted: raw {} vs buckets {}", raw_sum, bucket_sum);
    }

    #[test]
    fn series_ignores_only_non_finite_samples(
        good in prop::collection::vec((0.0f64..1e6, -1e3f64..1e3), 0..100),
        bad in 0usize..20,
    ) {
        let mut s = Series::new();
        for &(ts, v) in &good {
            s.record(ts, v);
        }
        for i in 0..bad {
            s.record(f64::NAN, i as f64);
            s.record(i as f64, f64::INFINITY);
        }
        prop_assert_eq!(s.count(), good.len() as u64);
    }
}
