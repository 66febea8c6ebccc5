//! §2.3: request-level serving simulation — unified pool vs
//! prefill/decode disaggregation under bursty load.
//!
//! Where `speed_limits` and `mtp` report single-step analytics, this
//! experiment runs whole request streams through the continuous-batching
//! engine of `dsv3-serving` and reports operator-facing SLO metrics. The
//! headline effect reproduces §2.3.1's argument for disaggregation:
//! under bursty prefill traffic the unified pool's decode p99 TPOT blows
//! up while the disaggregated pool holds steady.

use crate::report::{fmt, Table};
use dsv3_faults::{FaultPlan, FaultPlanConfig, RecoveryPolicy};
use dsv3_serving::{
    run_overload_traced, ArrivalProcess, OverloadConfig, RouterPolicy, ServingReport,
    ServingSimConfig,
};
use dsv3_telemetry::Recorder;
use serde::{Deserialize, Serialize};

/// Both policies' full reports under the same bursty workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingComparison {
    /// Mean arrival rate of the workload (requests/s).
    pub arrival_rps: f64,
    /// Interarrival squared coefficient of variation.
    pub burstiness: f64,
    /// Unified pool: prefill steals decode step time.
    pub unified: ServingReport,
    /// Disaggregated pools: isolated decode, a dedicated prefill pool
    /// sized for the prompt-heavy load.
    pub disaggregated: ServingReport,
}

/// The workload both policies face: prefill-heavy bursty traffic
/// (1K-token prompts arriving in clumps), the regime §2.3.1 argues
/// disaggregation exists for.
fn scenario(router: RouterPolicy) -> ServingSimConfig {
    let mut cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Bursty { rate_per_s: 8.0, burstiness: 32.0 },
        600,
        router,
    );
    cfg.workload.prompt.mean_tokens = 1024.0;
    cfg
}

/// The seed driving this experiment's workload.
#[must_use]
pub fn seed() -> u64 {
    scenario(RouterPolicy::Unified).workload.seed
}

/// Serialized configuration of both arms, for the run manifest.
#[must_use]
pub fn config_json() -> String {
    let unified = crate::report::json_or_null(&scenario(RouterPolicy::Unified));
    let disagg = crate::report::json_or_null(&scenario(RouterPolicy::Disaggregated {
        prefill_fraction: 0.7,
    }));
    format!("[{unified},{disagg}]")
}

/// Run both policies on the identical workload (same seed). With `rec`
/// enabled both arms trace into it under the `unified`/`disaggregated`
/// scopes, plus a telemetry-only `fault-overlay` arm — the same unified
/// bursty scenario under a seeded fault climate — whose report is
/// discarded but whose inject and heal instants land in the trace. The
/// overlay never touches the returned comparison, enforced by test.
#[must_use]
pub fn run(rec: &mut Recorder) -> ServingComparison {
    let (policy, ov) = (RecoveryPolicy::default(), OverloadConfig::disabled());
    let traced = |cfg: &ServingSimConfig, plan: &FaultPlan, rec: &mut Recorder, scope: &str| {
        run_overload_traced(cfg, plan, &policy, &ov, rec, scope).serving
    };
    let healthy = FaultPlan::healthy();
    let unified = traced(&scenario(RouterPolicy::Unified), &healthy, rec, "unified");
    let disaggregated = traced(
        &scenario(RouterPolicy::Disaggregated { prefill_fraction: 0.7 }),
        &healthy,
        rec,
        "disaggregated",
    );
    if rec.is_enabled() {
        let overlay_plan = FaultPlan::generate(&FaultPlanConfig {
            seed: seed(),
            horizon_ms: 60_000.0,
            replicas: 4,
            planes: 8,
            crash_mtbf_ms: 15_000.0,
            crash_repair_ms: 4_000.0,
            flap_mtbf_ms: 20_000.0,
            flap_repair_ms: 5_000.0,
            ..FaultPlanConfig::default()
        });
        let _ = traced(&scenario(RouterPolicy::Unified), &overlay_plan, rec, "fault-overlay");
    }
    ServingComparison { arrival_rps: 8.0, burstiness: 32.0, unified, disaggregated }
}

/// Render.
#[must_use]
pub fn render(c: &ServingComparison) -> Table {
    let mut t = Table::new(
        "§2.3: serving simulation, bursty prefill-heavy load (8 req/s, CV²=32, 1K prompts)",
        &[
            "policy",
            "TTFT p50 (ms)",
            "TTFT p99 (ms)",
            "TPOT p50 (ms)",
            "TPOT p99 (ms)",
            "goodput (req/s)",
            "SLO attain",
            "preempt",
        ],
    );
    for (name, r) in [("unified", &c.unified), ("disaggregated", &c.disaggregated)] {
        t.row(&[
            name.to_string(),
            fmt(r.ttft_ms.p50, 1),
            fmt(r.ttft_ms.p99, 1),
            fmt(r.tpot_ms.p50, 2),
            fmt(r.tpot_ms.p99, 2),
            fmt(r.goodput_rps, 2),
            fmt(r.slo_attainment, 3),
            r.preemptions.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disaggregation_beats_unified_on_decode_tail_under_bursty_prefill() {
        let c = run(&mut Recorder::disabled());
        assert!(
            c.disaggregated.tpot_ms.p99 < 0.6 * c.unified.tpot_ms.p99,
            "disaggregated decode p99 {} must clearly beat unified {}",
            c.disaggregated.tpot_ms.p99,
            c.unified.tpot_ms.p99
        );
        assert!(
            c.disaggregated.slo_attainment > c.unified.slo_attainment,
            "isolation should also win on SLO attainment"
        );
        // Both serve the full workload to completion.
        assert_eq!(c.unified.completed, 600);
        assert_eq!(c.disaggregated.completed, 600);
    }

    #[test]
    fn reports_are_deterministic() {
        assert_eq!(run(&mut Recorder::disabled()), run(&mut Recorder::disabled()));
    }

    #[test]
    fn render_has_both_policies() {
        let t = render(&run(&mut Recorder::disabled()));
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "unified");
        assert_eq!(t.rows[1][0], "disaggregated");
    }

    #[test]
    fn instrumented_run_reproduces_plain_report() {
        let mut rec = Recorder::new();
        let instrumented = run(&mut rec);
        assert_eq!(
            instrumented,
            run(&mut Recorder::disabled()),
            "telemetry and the overlay arm must not perturb"
        );
        let events = rec.events();
        assert!(events.iter().any(|e| e.ph == "X" && e.name == "decode"));
        assert!(
            events.iter().any(|e| e.ph == "i" && e.name.starts_with("inject")),
            "the fault-overlay arm must contribute fault instants"
        );
        assert!(rec.counters().contains_key("unified.completed"));
        assert!(rec.counters().contains_key("disaggregated.completed"));
    }

    #[test]
    fn instrumented_traces_are_deterministic() {
        let trace = |()| {
            let mut rec = Recorder::new();
            let _ = run(&mut rec);
            rec.export_trace().to_json()
        };
        assert_eq!(trace(()), trace(()));
    }
}
