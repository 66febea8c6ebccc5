//! Registry wiring: `dsv3 <name>` prints `(e.run)(…)`'s table or JSON,
//! and perfbench times `(e.render)()`, so the two must agree. Every
//! entry's output shape and bytes are checked by the root crate's
//! `tests/golden_reports.rs`.

use dsv3_core::registry::registry;
use dsv3_core::telemetry::Recorder;

/// `(e.render)()` and `(e.run)(…).table` are the same table, for an
/// analytic and a traceable entry alike.
#[test]
fn render_is_the_plain_run_table() {
    for name in ["table1", "serving"] {
        let e = registry().into_iter().find(|e| e.name == name).expect("registered");
        assert_eq!((e.render)(), (e.run)(&mut Recorder::disabled()).table, "{name}");
    }
}

#[test]
fn serving_entry_reports_slo_percentiles() {
    let entry = registry().into_iter().find(|e| e.name == "serving").expect("serving registered");
    let json = (entry.run)(&mut Recorder::disabled()).json;
    let value = serde_json::parse(&json).expect("serving JSON parses");
    let top = value.as_object().expect("serving emits an object");
    for policy in ["unified", "disaggregated"] {
        let report = serde::field(top, policy)
            .unwrap_or_else(|_| panic!("missing {policy} report"))
            .as_object()
            .expect("report is an object");
        for metric in ["ttft_ms", "tpot_ms"] {
            let summary =
                serde::field(report, metric).expect("metric present").as_object().expect("summary");
            for p in ["p50", "p95", "p99"] {
                let v = serde::field(summary, p).expect("percentile present");
                assert!(v.as_f64().is_some(), "{policy}.{metric}.{p} not a number");
            }
        }
        assert!(
            serde::field(report, "goodput_rps").expect("goodput present").as_f64().is_some(),
            "{policy}: goodput missing"
        );
    }
}
