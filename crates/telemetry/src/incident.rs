//! Alert lifecycle records and incident attribution.
//!
//! [`crate::watch`] turns recorded series into alert *episodes*
//! (pending → firing → resolved, with dwell so one noisy window never
//! pages). This module holds the resulting [`Alert`] records, correlates
//! each alert's onset with the fault/chaos/overload instant events the
//! run recorded — producing a ranked [`BlameEntry`] table per alert —
//! and renders the whole thing as a deterministic incident report (text
//! via [`IncidentReport::render`], JSON via serde).
//!
//! Attribution is deliberately simple and explainable: an instant event
//! at time `t` supports an alert with onset `o` (its pending edge) with
//! weight `exp(-(o - t) / tau)` when `t` falls inside the lookback
//! window. Repeated causes accumulate weight, so a storm of
//! `client-timeout` instants just before goodput collapses outranks a
//! single unlucky crash an aeon earlier.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::recorder::Recorder;

/// How alert onsets are correlated with recorded instant events.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlameConfig {
    /// How far before the alert onset an event may lie and still be
    /// considered a candidate cause (ms).
    pub lookback_ms: f64,
    /// Exponential-decay constant of the proximity weight (ms).
    pub tau_ms: f64,
    /// Ranked causes kept per alert (and in the report-level table).
    pub max_causes: usize,
}

impl Default for BlameConfig {
    fn default() -> Self {
        Self { lookback_ms: 30_000.0, tau_ms: 10_000.0, max_causes: 5 }
    }
}

/// One ranked cause in a blame table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlameEntry {
    /// Normalized event label (`"client-timeout"`, `"inject crash"`, ...).
    pub cause: String,
    /// Trace category of the events (`"overload"`, `"fault"`, ...).
    pub cat: String,
    /// Instants of this cause inside the lookback window.
    pub count: u64,
    /// Accumulated proximity weight (higher = more proximate cause).
    pub score: f64,
}

/// One alert episode produced by the watch detectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Experiment scope the signal belongs to (`"spike-none"`, ...).
    pub scope: String,
    /// Detector that raised it (`"burn-rate"`, `"changepoint"`,
    /// `"outlier"`, `"metastability"`).
    pub detector: String,
    /// Signal within the detector (`"goodput"`, `"queue_depth"`,
    /// `"replica3"`, ...).
    pub signal: String,
    /// `"page"` for SLO-threatening alerts, `"warn"` for anomalies.
    pub severity: String,
    /// Window start (ms) when the condition first held — the onset used
    /// for blame correlation.
    pub pending_ms: f64,
    /// Window start (ms) when the condition had held for the detector's
    /// dwell and the alert fired.
    pub firing_ms: f64,
    /// Window start (ms) when the condition had cleared for the
    /// detector's resolve dwell; `None` if still firing at end of data.
    pub resolved_ms: Option<f64>,
    /// Human-readable detector context (peak burn, peak deviation, ...).
    pub detail: String,
    /// Ranked candidate causes near the onset.
    pub blame: Vec<BlameEntry>,
}

/// The full output of one watched run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentReport {
    /// Experiment the run came from.
    pub experiment: String,
    /// Detector evaluation window (ms).
    pub window_ms: f64,
    /// Scopes that had watchable series, in order.
    pub scopes: Vec<String>,
    /// All alert episodes, ordered by (firing, scope, detector, signal).
    pub alerts: Vec<Alert>,
    /// Report-level blame: per-alert tables merged and re-ranked.
    pub blame: Vec<BlameEntry>,
    /// Episodes that reached the firing state.
    pub firing: usize,
    /// Fired episodes that also resolved.
    pub resolved: usize,
}

/// Normalize an instant-event name into a stable cause label: sequence
/// suffixes (`"heal crash #3"`) and transition arguments
/// (`"rung-degrade 0->1"`) vary per occurrence and would fragment the
/// blame table, so both are stripped.
#[must_use]
pub fn normalize_cause(name: &str) -> &str {
    let mut label = name;
    if let Some(pos) = label.rfind(" #") {
        if label[pos + 2..].chars().all(|c| c.is_ascii_digit()) && pos + 2 < label.len() {
            label = &label[..pos];
        }
    }
    if label.contains("->") {
        if let Some(first) = label.split_whitespace().next() {
            label = first;
        }
    }
    label
}

/// One instant event flattened for correlation, borrowing the
/// recorder's strings.
struct CauseEvent<'a> {
    ts_ms: f64,
    scope: &'a str,
    cause: &'a str,
    cat: &'a str,
}

/// Collect every instant event (`ph == "i"`) from the recorder, stamped
/// with the scope owning its process track. Trace timestamps are
/// microseconds; everything here is converted to ms to match series
/// time.
fn cause_events(rec: &Recorder) -> Vec<CauseEvent<'_>> {
    let pid_scope: BTreeMap<u64, &str> = rec
        .processes()
        .iter()
        .map(|(label, &pid)| (pid, label.split('/').next().unwrap_or(label)))
        .collect();
    rec.events()
        .iter()
        .filter(|ev| ev.ph == "i")
        .map(|ev| CauseEvent {
            ts_ms: ev.ts / 1000.0,
            scope: pid_scope.get(&ev.pid).copied().unwrap_or_default(),
            cause: normalize_cause(ev.name),
            cat: ev.cat,
        })
        .collect()
}

/// Blame accumulated per `(cause, cat)`: instants counted and weight.
type BlameTable<'a> = BTreeMap<(&'a str, &'a str), (u64, f64)>;

fn rank(table: BlameTable<'_>, max_causes: usize) -> Vec<BlameEntry> {
    let mut entries: Vec<BlameEntry> = table
        .into_iter()
        .map(|((cause, cat), (count, score))| BlameEntry {
            cause: cause.to_string(),
            cat: cat.to_string(),
            count,
            score,
        })
        .collect();
    entries.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.cause.cmp(&b.cause)));
    entries.truncate(max_causes);
    entries
}

/// Fill in each alert's blame table from the recorder's instant events,
/// and return the report-level merged table.
pub fn attribute(rec: &Recorder, alerts: &mut [Alert], cfg: &BlameConfig) -> Vec<BlameEntry> {
    let events = cause_events(rec);
    let mut global = BlameTable::new();
    for alert in alerts.iter_mut() {
        let onset = alert.pending_ms;
        let mut table = BlameTable::new();
        for ev in events.iter().filter(|ev| ev.scope == alert.scope) {
            if ev.ts_ms > onset || ev.ts_ms < onset - cfg.lookback_ms {
                continue;
            }
            let w = (-(onset - ev.ts_ms) / cfg.tau_ms).exp();
            for slot in [&mut table, &mut global] {
                let slot = slot.entry((ev.cause, ev.cat)).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += w;
            }
        }
        alert.blame = rank(table, cfg.max_causes);
    }
    rank(global, cfg.max_causes)
}

impl IncidentReport {
    /// Render the report as deterministic fixed-precision text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "incident report: {} (window {:.0} ms)\n",
            self.experiment, self.window_ms
        ));
        out.push_str(&format!("scopes: {}\n", self.scopes.join(", ")));
        out.push_str(&format!("alerts: {} fired, {} resolved\n", self.firing, self.resolved));
        for (i, a) in self.alerts.iter().enumerate() {
            let resolved = match a.resolved_ms {
                Some(t) => format!("resolved {t:.0} ms"),
                None => "still firing".to_string(),
            };
            out.push_str(&format!(
                "\n[{}] {} {}/{} {}\n    pending {:.0} ms, firing {:.0} ms, {}\n    {}\n",
                i + 1,
                a.scope,
                a.detector,
                a.signal,
                a.severity,
                a.pending_ms,
                a.firing_ms,
                resolved,
                a.detail,
            ));
            if !a.blame.is_empty() {
                let causes: Vec<String> = a
                    .blame
                    .iter()
                    .map(|b| {
                        format!("{} [{}] (x{}, score {:.3})", b.cause, b.cat, b.count, b.score)
                    })
                    .collect();
                out.push_str(&format!("    blame: {}\n", causes.join("; ")));
            }
        }
        if !self.blame.is_empty() {
            out.push_str("\ntop causes overall:\n");
            for b in &self.blame {
                out.push_str(&format!(
                    "  {} [{}] (x{}, score {:.3})\n",
                    b.cause, b.cat, b.count, b.score
                ));
            }
        }
        out
    }

    /// Serialize to pretty JSON (`--incidents-out`).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("null"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(scope: &str, pending_ms: f64) -> Alert {
        Alert {
            scope: scope.to_string(),
            detector: "burn-rate".to_string(),
            signal: "goodput".to_string(),
            severity: "page".to_string(),
            pending_ms,
            firing_ms: pending_ms + 5_000.0,
            resolved_ms: None,
            detail: "test".to_string(),
            blame: Vec::new(),
        }
    }

    #[test]
    fn normalizes_sequence_and_transition_labels() {
        assert_eq!(normalize_cause("heal crash #3"), "heal crash");
        assert_eq!(normalize_cause("inject straggler #12"), "inject straggler");
        assert_eq!(normalize_cause("rung-degrade 0->1"), "rung-degrade");
        assert_eq!(normalize_cause("client-timeout"), "client-timeout");
        assert_eq!(normalize_cause("fail link3"), "fail link3");
    }

    #[test]
    fn attribution_ranks_proximate_repeated_causes_first() {
        let mut rec = Recorder::new();
        let pid = rec.process("s/requests");
        let tid = rec.thread(pid, "clients");
        // One distant crash, many near timeouts (ts in µs).
        rec.instant(pid, tid, "fault", "inject crash #1", 1_000.0 * 1000.0);
        for i in 0..10 {
            rec.instant(pid, tid, "overload", "client-timeout", (28_000.0 + f64::from(i)) * 1000.0);
        }
        let mut alerts = vec![alert("s", 30_000.0)];
        let global = attribute(&rec, &mut alerts, &BlameConfig::default());
        let blame = &alerts[0].blame;
        assert_eq!(blame[0].cause, "client-timeout");
        assert_eq!(blame[0].count, 10);
        assert!(blame[0].score > blame[1].score);
        assert_eq!(blame[1].cause, "inject crash");
        assert_eq!(global[0].cause, "client-timeout");
    }

    #[test]
    fn attribution_respects_scope_and_lookback() {
        let mut rec = Recorder::new();
        let pid_a = rec.process("a/engine");
        let pid_b = rec.process("b/engine");
        rec.instant(pid_a, 0, "fault", "inject crash", 29_000.0 * 1000.0);
        rec.instant(pid_b, 0, "fault", "inject flap", 29_000.0 * 1000.0);
        // After the onset: must be ignored.
        rec.instant(pid_a, 0, "fault", "inject sdc", 31_000.0 * 1000.0);
        let mut alerts = vec![alert("a", 30_000.0)];
        attribute(&rec, &mut alerts, &BlameConfig::default());
        assert_eq!(alerts[0].blame.len(), 1);
        assert_eq!(alerts[0].blame[0].cause, "inject crash");
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let mut a = alert("s", 30_000.0);
        a.blame = vec![BlameEntry {
            cause: "client-timeout".to_string(),
            cat: "overload".to_string(),
            count: 3,
            score: 2.5,
        }];
        let report = IncidentReport {
            experiment: "overload".to_string(),
            window_ms: 5_000.0,
            scopes: vec!["s".to_string()],
            alerts: vec![a],
            blame: Vec::new(),
            firing: 1,
            resolved: 0,
        };
        let text = report.render();
        assert_eq!(text, report.render());
        assert!(text.contains("incident report: overload"));
        assert!(text.contains("burn-rate/goodput page"));
        assert!(text.contains("client-timeout [overload] (x3, score 2.500)"));
        assert!(text.contains("still firing"));
        let json = report.to_json();
        let back: IncidentReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, report);
    }
}
