//! `dsv3-bench compare`: two sets of recorded runs, one verdict per
//! (workload, metric) under the bounds `BENCHMARK.json` declares.
//!
//! The rule follows the benchmark guide: a metric whose run-to-run
//! spread (quartile distance over median) is wider than its bound is
//! unresolved unless every run of the second set beats every run of the
//! first; otherwise it regressed when its median worsened by more than
//! the bound, and improved when the second set wins at least nine tenths
//! of the run pairs and the medians differ by more than the first set's
//! quartile distance.

use crate::{median, quartiles, Better};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one recorded run reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// A declared metric's comparison rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening share; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// Outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Better by the pairs rule.
    Improved,
    /// Spread wider than the bound.
    Unresolved,
    /// No bound: per-layer values, shown for attribution.
    Info,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

fn field<'v>(obj: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse one JSONL line written by `--record`.
///
/// # Errors
///
/// Describes what is missing.
pub fn parse_record(line: &str) -> Result<Record, String> {
    let doc = serde_json::parse(line).map_err(|e| format!("{e:?}"))?;
    let obj = doc.as_object().ok_or("record is not an object")?;
    let Some(Value::Str(workload)) = field(obj, "workload") else {
        return Err("record has no workload".into());
    };
    let failed = field(obj, "failed").and_then(Value::as_u64).ok_or("record has no failed")?;
    let metrics =
        field(obj, "metrics").and_then(Value::as_object).ok_or("record has no metrics")?;
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .as_object()
                .and_then(|o| field(o, "value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_, String>>()?;
    Ok(Record { workload: workload.clone(), failed, metrics })
}

/// Parse a JSONL file's contents, skipping blank lines.
///
/// # Errors
///
/// Names the first bad line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_record(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The comparison rule of every metric `BENCHMARK.json` declares.
///
/// # Errors
///
/// Describes the first malformed declaration.
pub fn parse_rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = serde_json::parse(benchmark_json).map_err(|e| format!("{e:?}"))?;
    let obj = doc.as_object().ok_or("BENCHMARK.json is not an object")?;
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let list = field(obj, section).and_then(Value::as_array).ok_or("missing metric list")?;
        for m in list {
            let m = m.as_object().ok_or("metric is not an object")?;
            let Some(Value::Str(name)) = field(m, "name") else {
                return Err(format!("{section}: metric without a name"));
            };
            let better = match field(m, "better") {
                Some(Value::Str(s)) if s == "lower" => Better::Lower,
                Some(Value::Str(s)) if s == "higher" => Better::Higher,
                _ => return Err(format!("{name}: better is neither lower nor higher")),
            };
            let bound = field(m, "bound").and_then(Value::as_f64);
            rules.insert(name.clone(), Rule { better, bound });
        }
    }
    Ok(rules)
}

/// Verdict for `b` (the change) against `a` (the baseline), run pairs
/// taken in recording order.
///
/// # Panics
///
/// Panics if either set is empty.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let (q1a, q3a) = quartiles(&mut a.to_vec());
    let (q1b, q3b) = quartiles(&mut b.to_vec());
    // Does x read better than y?
    let beats = |x: f64, y: f64| match rule.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let worsening = match rule.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| beats(y, x)).count();
    let improved = pairs > 0 && wins * 10 >= pairs * 9 && (mb - ma).abs() > q3a - q1a;
    let Some(bound) = rule.bound else {
        return if improved { Verdict::Improved } else { Verdict::Info };
    };
    let spread = ((q3a - q1a) / ma).max((q3b - q1b) / mb);
    if spread > bound {
        let separated = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if separated { Verdict::Improved } else { Verdict::Unresolved };
    }
    if worsening > bound {
        Verdict::Regressed
    } else if improved {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn by_workload(records: &[Record]) -> BTreeMap<&str, Vec<&Record>> {
    let mut m: BTreeMap<&str, Vec<&Record>> = BTreeMap::new();
    for r in records {
        m.entry(r.workload.as_str()).or_default().push(r);
    }
    m
}

/// The comparison table, and whether anything regressed.
#[must_use]
pub fn report(a: &[Record], b: &[Record], rules: &BTreeMap<String, Rule>) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<44} {:>4} {:>12} {:>23} {:>12} {:>23} {:>8}  verdict",
        "workload", "metric", "n", "median A", "quartiles A", "median B", "quartiles B", "change"
    );
    let mut regressed = false;
    let (a_by, b_by) = (by_workload(a), by_workload(b));
    for (workload, ra) in &a_by {
        let Some(rb) = b_by.get(workload) else { continue };
        let failed = |rs: &[&Record]| rs.iter().map(|r| r.failed).sum::<u64>();
        let (fa, fb) = (failed(ra), failed(rb));
        if fb > fa {
            regressed = true;
            let _ = writeln!(out, "{workload:<14} failed operations: {fa} -> {fb}  regressed");
        }
        for (name, rule) in rules {
            let values = |rs: &[&Record]| -> Vec<f64> {
                rs.iter().filter_map(|r| r.metrics.get(name).copied()).collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, *rule);
            regressed |= v == Verdict::Regressed;
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let (q1a, q3a) = quartiles(&mut va.clone());
            let (q1b, q3b) = quartiles(&mut vb.clone());
            let _ = writeln!(
                out,
                "{workload:<14} {name:<44} {:>4} {ma:>12.6} [{q1a:>10.6},{q3a:>10.6}] {mb:>12.6} \
                 [{q1b:>10.6},{q3b:>10.6}] {:>+7.2}%  {}",
                va.len().min(vb.len()),
                (mb - ma) / ma * 100.0,
                v.as_str()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule { better: Better::Lower, bound: Some(0.10) };

    #[test]
    fn same_distribution_is_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, LOWER), Verdict::Ok);
    }

    #[test]
    fn worse_median_beyond_bound_regresses() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &b, LOWER), Verdict::Regressed);
    }

    #[test]
    fn nine_in_ten_wins_beyond_the_spread_improve() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.8, 99.2, 100.1, 99.9];
        let b = a.map(|x| x * 0.95);
        assert_eq!(verdict(&a, &b, LOWER), Verdict::Improved);
        let higher = Rule { better: Better::Higher, bound: Some(0.10) };
        assert_eq!(verdict(&a, &b, higher), Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let a = [50.0, 150.0, 100.0, 60.0, 140.0];
        let b = [55.0, 145.0, 100.0, 65.0, 135.0];
        assert_eq!(verdict(&a, &b, LOWER), Verdict::Unresolved);
    }

    #[test]
    fn records_round_trip_through_the_parser() {
        let line = r#"{"workload":"deepep","seed":7,"trace":0,"correct":true,"attempted":2,"failed":0,"metrics":{"op_norm_ms":{"value":5123.5,"unit":"ms"}}}"#;
        let r = parse_record(line).expect("parses");
        assert_eq!(r.workload, "deepep");
        assert_eq!(r.metrics["op_norm_ms"], 5123.5);
        let records = [r];
        let rules = BTreeMap::from([("op_norm_ms".to_string(), LOWER)]);
        let (table, regressed) = report(&records, &records, &rules);
        assert!(!regressed);
        assert!(table.contains("deepep") && table.ends_with("ok\n"), "{table}");
    }
}
