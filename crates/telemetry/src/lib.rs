//! # dsv3-telemetry — deterministic sim-time observability
//!
//! The simulators in this workspace (`dsv3-serving`, `dsv3-netsim`, the
//! fault drill) emit end-of-run aggregates; decomposing a surprising
//! TPOT number or a retention dip needs *where the time went*. This
//! crate is the observability substrate:
//!
//! - [`Recorder`] — labeled counters, gauges, and log-bucketed
//!   [`Histogram`]s, plus span/instant/counter-sample trace events. Every
//!   timestamp is **simulation time** supplied by the instrumented code
//!   (never a wall clock), so traces are byte-reproducible per seed.
//!   Events are buffered compactly (interned names, fixed-shape
//!   arguments) and read in place through [`Recorder::events`].
//! - [`ChromeTrace`] — export in the Chrome trace-event JSON format,
//!   loadable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`. [`Recorder::export_trace`] builds it, and
//!   [`ChromeTrace::write_json`], the one writer, streams it.
//! - [`RunManifest`] — experiment name, seed, config hash, crate
//!   version, and a counter snapshot, attached to instrumented reports
//!   so any artifact can be traced back to the exact run that made it.
//!
//! A **disabled** recorder ([`Recorder::disabled`]) is a strict no-op:
//! every method early-returns without allocating, formatting, or
//! branching on recorded state, so instrumented simulators produce
//! byte-identical reports with telemetry off.
//!
//! ```
//! use dsv3_telemetry::Recorder;
//!
//! let mut rec = Recorder::new();
//! let pid = rec.process("engine");
//! rec.span(pid, 7, "request", "decode", 1_000.0, 3_500.0);
//! rec.counter_add("completed", 1);
//! rec.observe("ttft_ms", 41.5);
//! let trace = rec.export_trace();
//! assert_eq!(trace.traceEvents.len(), 2); // process_name metadata + span
//! ```

#![forbid(unsafe_code)]

pub mod hist;
pub mod incident;
pub mod manifest;
pub mod recorder;
pub mod series;
pub mod trace;
pub mod watch;

pub use hist::{growth, Histogram};
pub use incident::{Alert, BlameConfig, BlameEntry, IncidentReport};
pub use manifest::{
    config_hash, manifest_wrap, validate_metrics_document, MetricsDocStats, MetricsDocument,
    RunManifest,
};
pub use recorder::{
    EventView, Events, HistogramSummary, MetricsSnapshot, Recorder, DEFAULT_MAX_EVENTS,
    DROPPED_EVENTS_COUNTER,
};
pub use series::{Series, SeriesBucket, DEFAULT_MAX_BUCKETS};
pub use trace::{validate_chrome_trace, ChromeTrace, TraceEvent, TraceStats};
pub use watch::{
    evaluate, BurnRateConfig, ChangepointConfig, MetastabilityConfig, OutlierConfig, WatchConfig,
};
