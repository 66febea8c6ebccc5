//! Every metric the runner can print is declared in `BENCHMARK.json`
//! with the same unit, direction and bound, and nothing is declared that
//! the runner cannot print.

use dsv3_perfbench::workloads::WORKLOADS;
use dsv3_perfbench::{end_to_end, per_layer, Decl};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    let obj = v.as_object().expect("object");
    &obj.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing key {key}")).1
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn check_section(doc: &Value, section: &str, catalog: &[Decl]) {
    let declared = field(doc, section).as_array().expect("metric list");
    let names: Vec<&str> = declared.iter().map(|m| text(field(m, "name"))).collect();
    let printed: Vec<&str> = catalog.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, printed, "{section} must list exactly the runner's metrics, in order");
    for (m, d) in declared.iter().zip(catalog) {
        assert_eq!(text(field(m, "unit")), d.unit, "{} unit", d.name);
        assert_eq!(text(field(m, "better")), d.better.as_str(), "{} direction", d.name);
        let keys = m.as_object().expect("object").len();
        match d.bound {
            Some(b) => {
                assert_eq!(field(m, "bound").as_f64(), Some(b), "{} bound", d.name);
                assert_eq!(keys, 4, "{}: name, unit, better, bound", d.name);
            }
            None => assert_eq!(keys, 3, "{}: per-layer metrics carry no bound", d.name),
        }
    }
}

#[test]
fn every_printable_metric_is_declared_with_unit_direction_and_bound() {
    let doc = benchmark_json();
    check_section(&doc, "end_to_end", &end_to_end());
    check_section(&doc, "per_layer", &per_layer());
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let mut all: Vec<String> =
        end_to_end().into_iter().chain(per_layer()).map(|d| d.name).collect();
    for name in &all {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "bad metric name {name:?}"
        );
    }
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "duplicate metric names");
    assert!(end_to_end().iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}

#[test]
fn declared_workloads_are_the_runners() {
    let doc = benchmark_json();
    let declared: Vec<&str> = field(&doc, "workloads")
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let runner: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared, runner);
}
