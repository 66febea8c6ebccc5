//! The trace writer's output is a valid Chrome trace and every child
//! span lies inside its parent.

use dsv3_core::telemetry::validate_chrome_trace;
use dsv3_perfbench::trace::{chrome_trace, Tracer};
use serde_json::Value;
use std::collections::BTreeMap;

fn arg(event: &Value, key: &str) -> Option<f64> {
    let obj = event.as_object()?;
    let args = obj.iter().find(|(k, _)| k == "args")?.1.as_object()?;
    args.iter().find(|(k, _)| k == key)?.1.as_f64()
}

fn num(event: &Value, key: &str) -> f64 {
    let obj = event.as_object().expect("event object");
    obj.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_f64()).expect("numeric field")
}

#[test]
fn synthetic_spans_write_a_valid_nested_trace() {
    let mut t = Tracer::new(true);
    for op in 0..3 {
        t.begin_op("op");
        t.call("layer.a", || {
            t_sum(op);
        });
        t.call("layer.b", || t_sum(op + 1));
        t.end_op();
    }
    t.set_enabled(false);
    t.begin_op("untraced");
    t.call("layer.c", || t_sum(1));
    t.end_op();
    assert_eq!(t.spans().len(), 9, "three ops of a root and two calls; nothing untraced");

    let json = chrome_trace(t.spans(), "synthetic").to_json();
    let stats = validate_chrome_trace(&json).expect("valid Chrome trace");
    assert_eq!(stats.spans, 9);

    let doc = serde_json::parse(&json).expect("parses");
    let events = doc
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
        .and_then(|(_, v)| v.as_array())
        .expect("traceEvents");
    let spans: Vec<&Value> = events.iter().filter(|e| arg(e, "id").is_some()).collect();
    let by_id: BTreeMap<u64, &Value> =
        spans.iter().map(|e| (arg(e, "id").expect("id") as u64, *e)).collect();
    for child in &spans {
        let parent = arg(child, "parent").expect("parent") as u64;
        if parent == 0 {
            continue;
        }
        let p = by_id[&parent];
        assert_eq!(arg(child, "op"), arg(p, "op"), "a call shares its operation's id");
        let (cs, ce) = (num(child, "ts"), num(child, "ts") + num(child, "dur"));
        let (ps, pe) = (num(p, "ts"), num(p, "ts") + num(p, "dur"));
        assert!(ps <= cs && ce <= pe + 1e-6, "child [{cs}, {ce}] outside parent [{ps}, {pe}]");
    }
}

fn t_sum(n: u64) -> u64 {
    std::hint::black_box((0..1000 * (n + 1)).sum())
}
