//! Chrome trace-event JSON: the export format and a validator.
//!
//! The emitted document is the "JSON Object Format" of the Trace Event
//! spec: `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` both load it
//! directly. Timestamps (`ts`) and durations (`dur`) are microseconds of
//! **simulation time**; `pid`/`tid` are synthetic track ids named via
//! `"M"` (metadata) events.
//!
//! [`ChromeTrace::write_json`] is the one writer: it streams the
//! document field by field into any `io::Write`, with the bytes the
//! derived `Serialize` renders through `serde_json`, but without
//! building a `serde_json::Value` tree first.

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use serde::{Deserialize, Serialize};

/// One trace event. Phases used by this workspace:
///
/// * `"X"` — complete event (span): `ts` + `dur`
/// * `"i"` — instant event
/// * `"C"` — counter sample (`args["value"]`)
/// * `"M"` — metadata (`process_name` / `thread_name`, `args["name"]`)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event name (span label, counter name, or metadata kind).
    pub name: String,
    /// Category, used by trace viewers for filtering.
    pub cat: String,
    /// Phase code (see above).
    pub ph: String,
    /// Timestamp, microseconds of simulation time.
    pub ts: f64,
    /// Duration, microseconds (zero for non-span events).
    pub dur: f64,
    /// Synthetic process id (one per instrumented component).
    pub pid: u64,
    /// Synthetic thread id (request id, flow id, fault class, ...).
    pub tid: u64,
    /// Event arguments (counter values, metadata names).
    pub args: BTreeMap<String, serde_json::Value>,
}

/// The exported document, shaped exactly like the Trace Event spec's
/// JSON Object Format (hence the non-snake-case field names).
#[allow(non_snake_case)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeTrace {
    /// All events, in recording order.
    pub traceEvents: Vec<TraceEvent>,
    /// Display unit hint for viewers (`"ms"`).
    pub displayTimeUnit: String,
}

impl ChromeTrace {
    /// Stream the document as compact JSON into `out`: fields in
    /// declaration order (`name, cat, ph, ts, dur, pid, tid, args`, then
    /// `displayTimeUnit`), numbers and escapes by `serde_json`'s rules,
    /// so the bytes are exactly `serde_json::to_string(self)`'s.
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    pub fn write_json(&self, out: &mut impl io::Write) -> io::Result<()> {
        let mut w = IoFmt { out, error: None };
        self.write_fields(&mut w).map_err(|fmt::Error| {
            w.error.take().unwrap_or_else(|| io::Error::other("trace formatting failed"))
        })
    }

    fn write_fields(&self, w: &mut impl fmt::Write) -> fmt::Result {
        use serde_json::{write_compact, write_string, Value};
        w.write_str("{\"traceEvents\":[")?;
        for (i, e) in self.traceEvents.iter().enumerate() {
            if i > 0 {
                w.write_char(',')?;
            }
            w.write_str("{\"name\":")?;
            write_string(w, &e.name)?;
            w.write_str(",\"cat\":")?;
            write_string(w, &e.cat)?;
            w.write_str(",\"ph\":")?;
            write_string(w, &e.ph)?;
            w.write_str(",\"ts\":")?;
            write_compact(w, &Value::Float(e.ts))?;
            w.write_str(",\"dur\":")?;
            write_compact(w, &Value::Float(e.dur))?;
            w.write_str(",\"pid\":")?;
            write_compact(w, &Value::UInt(e.pid))?;
            w.write_str(",\"tid\":")?;
            write_compact(w, &Value::UInt(e.tid))?;
            w.write_str(",\"args\":{")?;
            for (j, (key, value)) in e.args.iter().enumerate() {
                if j > 0 {
                    w.write_char(',')?;
                }
                write_string(w, key)?;
                w.write_char(':')?;
                write_compact(w, value)?;
            }
            w.write_str("}}")?;
        }
        w.write_str("],\"displayTimeUnit\":")?;
        write_string(w, &self.displayTimeUnit)?;
        w.write_char('}')
    }

    /// [`ChromeTrace::write_json`] into a string. A failure (which an
    /// in-memory buffer never returns) degrades to `null` rather than
    /// panicking mid-run.
    #[must_use]
    pub fn to_json(&self) -> String {
        // About 130 bytes per event in the workspace's traces.
        let mut buf = Vec::with_capacity(64 + 136 * self.traceEvents.len());
        match self.write_json(&mut buf) {
            Ok(()) => String::from_utf8(buf).unwrap_or_else(|_| String::from("null")),
            Err(_) => String::from("null"),
        }
    }
}

/// `fmt::Write` over an `io::Write`, keeping the error `fmt` discards.
struct IoFmt<'a, W> {
    out: &'a mut W,
    error: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoFmt<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// What [`validate_chrome_trace`] counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total events.
    pub events: usize,
    /// `"X"` complete events (spans).
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"C"` counter samples.
    pub counters: usize,
    /// `"M"` metadata events.
    pub metadata: usize,
}

/// Parse `json` as a Chrome trace-event document and sanity-check every
/// event: string `name`/`ph` and numeric `ts`/`pid`/`tid`, plus what
/// each phase needs — a numeric `dur` on a span (`"X"`), a numeric
/// `args.value` on a counter sample (`"C"`) and a string `args.name` on
/// a metadata event (`"M"`). Used by the CI smoke test
/// (`dsv3 check-trace`).
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let doc: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let Some(entries) = doc.as_object() else {
        return Err("top level is not a JSON object".into());
    };
    let Some(events) = entries.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v) else {
        return Err("missing \"traceEvents\" key".into());
    };
    let Some(events) = events.as_array() else {
        return Err("\"traceEvents\" is not an array".into());
    };
    let mut stats =
        TraceStats { events: events.len(), spans: 0, instants: 0, counters: 0, metadata: 0 };
    for (i, ev) in events.iter().enumerate() {
        let Some(fields) = ev.as_object() else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(serde_json::Value::Str(ph)) = get("ph") else {
            return Err(format!("event {i}: missing string \"ph\""));
        };
        if !matches!(get("name"), Some(serde_json::Value::Str(_))) {
            return Err(format!("event {i}: missing string \"name\""));
        }
        for key in ["ts", "pid", "tid"] {
            if get(key).and_then(serde_json::Value::as_f64).is_none() {
                return Err(format!("event {i}: missing numeric \"{key}\""));
            }
        }
        let arg = |name: &str| {
            get("args")
                .and_then(serde_json::Value::as_object)
                .and_then(|args| args.iter().find(|(k, _)| k == name).map(|(_, v)| v))
        };
        match ph.as_str() {
            "X" if get("dur").and_then(serde_json::Value::as_f64).is_none() => {
                return Err(format!("event {i}: span without numeric \"dur\""));
            }
            "C" if arg("value").and_then(serde_json::Value::as_f64).is_none() => {
                return Err(format!("event {i}: counter without numeric \"args.value\""));
            }
            "M" if !matches!(arg("name"), Some(serde_json::Value::Str(_))) => {
                return Err(format!("event {i}: metadata without string \"args.name\""));
            }
            "X" => stats.spans += 1,
            "i" => stats.instants += 1,
            "C" => stats.counters += 1,
            "M" => stats.metadata += 1,
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ph: &str) -> TraceEvent {
        let arg = match ph {
            "C" => Some(("value", serde_json::Value::Float(0.5))),
            "M" => Some(("name", serde_json::Value::Str("track".into()))),
            _ => None,
        };
        TraceEvent {
            name: "e".into(),
            cat: "test".into(),
            ph: ph.into(),
            ts: 1.5,
            dur: if ph == "X" { 2.0 } else { 0.0 },
            pid: 1,
            tid: 2,
            args: arg.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn doc(events: Vec<TraceEvent>) -> ChromeTrace {
        ChromeTrace { traceEvents: events, displayTimeUnit: "ms".into() }
    }

    #[test]
    fn export_validates() {
        let trace = doc(vec![event("X"), event("i"), event("C"), event("M")]);
        let stats = validate_chrome_trace(&trace.to_json()).expect("valid");
        assert_eq!(
            stats,
            TraceStats { events: 4, spans: 1, instants: 1, counters: 1, metadata: 1 }
        );
    }

    #[test]
    fn write_errors_surface() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = doc(vec![event("i")]).write_json(&mut Full).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    fn rejected(e: TraceEvent, why: &str) {
        let err = validate_chrome_trace(&doc(vec![e]).to_json()).expect_err("must be rejected");
        assert!(err.contains(why), "{err}");
    }

    #[test]
    fn span_needs_numeric_dur() {
        let mut e = event("X");
        e.dur = f64::NAN; // written as `null`
        rejected(e, "\"dur\"");
    }

    #[test]
    fn counter_needs_numeric_value() {
        let mut e = event("C");
        e.args.insert("value".into(), serde_json::Value::Str("7".into()));
        rejected(e.clone(), "\"args.value\"");
        e.args.clear();
        rejected(e, "\"args.value\"");
    }

    #[test]
    fn metadata_needs_string_name() {
        let mut e = event("M");
        e.args.insert("name".into(), serde_json::Value::UInt(3));
        rejected(e.clone(), "\"args.name\"");
        e.args.clear();
        rejected(e, "\"args.name\"");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": []}").is_ok());
    }

    #[test]
    fn events_round_trip_through_serde_json() {
        let mut e = event("C");
        e.args.insert("value".into(), serde_json::Value::Float(3.25));
        let json = serde_json::to_string(&e).expect("serializes");
        let back: TraceEvent = serde_json::from_str(&json).expect("parses");
        assert_eq!(e, back);
    }
}
