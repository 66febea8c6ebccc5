//! §5.1.1/§6.1 dynamic: a seeded fault drill across serving,
//! collectives, and training.
//!
//! Where [`super::robustness`] studies *static* failure counts (k planes
//! down, offline GEMM audits), this drill generates a deterministic
//! `FaultPlan` timeline — replica crashes, plane flaps, stragglers, SDC
//! strikes — and drives three layers through it:
//!
//! 1. **Serving**: the continuous-batching engine under the plan, with
//!    requeue-and-re-prefill recovery and (separately) request hedging;
//!    the empty plan is checked to reproduce the healthy report
//!    byte-for-byte.
//! 2. **Collectives**: the plan's plane flaps projected onto a
//!    time-varying bandwidth-retention step function.
//! 3. **Training**: checkpoint/restart goodput simulated against Poisson
//!    failure timelines at several MTBFs, validated against the
//!    Young/Daly analytic model (the drill's acceptance bar is < 5%
//!    relative error).

use crate::report::{fmt, Table};
use dsv3_faults::{simulate_goodput, FaultPlan, FaultPlanConfig, RecoveryPolicy};
use dsv3_model::availability::AvailabilityModel;
use dsv3_serving::{
    run_overload_traced, run_with_faults, ArrivalProcess, FaultyServingReport, OverloadConfig,
    RouterPolicy, ServingReport, ServingSimConfig,
};
use dsv3_telemetry::Recorder;
use dsv3_units::s_to_ms;
use serde::{Deserialize, Serialize};

/// One MTBF point of the training-availability validation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityRow {
    /// Mean time between failures, hours.
    pub mtbf_h: f64,
    /// Young/Daly optimal checkpoint interval, seconds.
    pub interval_s: f64,
    /// Analytic goodput fraction at that interval.
    pub analytic_goodput: f64,
    /// Goodput of the discrete simulation over a seeded Poisson timeline.
    pub simulated_goodput: f64,
    /// `|simulated − analytic| / analytic`.
    pub rel_err: f64,
}

/// One step of the time-varying bandwidth-retention function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionSample {
    /// Sample time, ms.
    pub t_ms: f64,
    /// Planes down at that instant.
    pub failed_planes: usize,
    /// Surviving bandwidth fraction.
    pub retention: f64,
}

/// Everything the drill measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultDrillReport {
    /// Seed the fault plan was generated from.
    pub seed: u64,
    /// Fault events in the generated plan.
    pub plan_events: usize,
    /// Fault-free serving baseline.
    pub healthy: ServingReport,
    /// Whether `run_with_faults` under an empty plan reproduced the
    /// healthy report byte-for-byte (serialized-JSON equality).
    pub empty_plan_identical: bool,
    /// Serving under the fault plan, default recovery (retry + backoff).
    pub faulty: FaultyServingReport,
    /// Serving under the same plan with hedging enabled.
    pub hedged: FaultyServingReport,
    /// Training goodput validation across MTBFs.
    pub availability: Vec<AvailabilityRow>,
    /// Bandwidth-retention step function of the plan's plane flaps.
    pub retention: Vec<RetentionSample>,
}

/// The serving scenario every arm shares: steady Poisson load at the
/// H800 baseline, unified routing.
fn scenario() -> ServingSimConfig {
    ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 10.0 },
        500,
        RouterPolicy::Unified,
    )
}

/// The drill's fault climate: every class enabled at rates that land
/// several events of each kind inside the ~1-minute serving run.
fn plan_config(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig {
        seed,
        horizon_ms: 60_000.0,
        replicas: 4,
        planes: 8,
        crash_mtbf_ms: 15_000.0,
        crash_repair_ms: 4_000.0,
        flap_mtbf_ms: 20_000.0,
        flap_repair_ms: 5_000.0,
        straggler_mtbf_ms: 25_000.0,
        straggler_slowdown: 1.8,
        straggler_duration_ms: 3_000.0,
        sdc_mtbf_ms: 20_000.0,
        sdc_detection_rate: 0.7,
        // Link-granular faults stay disabled here; `net_chaos` owns them.
        ..FaultPlanConfig::default()
    }
}

/// The drill's default seed.
#[must_use]
pub fn seed() -> u64 {
    20_250_805
}

/// Serialized configuration of the drill, for the run manifest.
#[must_use]
pub fn config_json() -> String {
    let cfg = crate::report::json_or_null(&scenario());
    let plan = crate::report::json_or_null(&plan_config(seed()));
    format!("[{cfg},{plan}]")
}

/// Run the drill at `seed` (equal seeds → identical reports). The
/// healthy, faulty, and hedged serving arms trace into `rec` under
/// matching scopes; the empty-plan identity arm stays untraced — its
/// whole point is byte-identity with the plain engine path. Recording
/// never changes the report, enforced by test.
#[must_use]
pub fn run(seed: u64, rec: &mut Recorder) -> FaultDrillReport {
    let cfg = scenario();
    let ov = OverloadConfig::disabled();
    let mut traced = |plan: &FaultPlan, policy: &RecoveryPolicy, scope: &str| {
        let r = run_overload_traced(&cfg, plan, policy, &ov, rec, scope);
        FaultyServingReport { serving: r.serving, faults: r.faults }
    };
    let healthy = traced(&FaultPlan::healthy(), &RecoveryPolicy::default(), "healthy").serving;
    let empty = run_with_faults(&cfg, &FaultPlan::healthy(), &RecoveryPolicy::default());
    let empty_plan_identical =
        crate::report::json_or_null(&healthy) == crate::report::json_or_null(&empty.serving);

    let plan = FaultPlan::generate(&plan_config(seed));
    let faulty = traced(&plan, &RecoveryPolicy::default(), "faulty");
    let hedged = traced(&plan, &RecoveryPolicy::hedged(), "hedged");

    let availability = [1.0, 6.0, 24.0]
        .iter()
        .enumerate()
        .map(|(i, &mtbf_h)| availability_point(seed.wrapping_add(i as u64 + 1), mtbf_h))
        .collect();

    let sched = plan.flap_schedule();
    let retention = std::iter::once(0.0)
        .chain(sched.change_points_ms())
        .map(|t_ms| RetentionSample {
            t_ms,
            failed_planes: sched.failed_planes_at(t_ms).len(),
            retention: sched.retention_at(t_ms),
        })
        .collect();

    FaultDrillReport {
        seed,
        plan_events: plan.events.len(),
        healthy,
        empty_plan_identical,
        faulty,
        hedged,
        availability,
        retention,
    }
}

/// Validate one MTBF point: simulate ~2000 expected failures' worth of
/// checkpointed training over a seeded Poisson timeline and compare
/// goodput with the Young/Daly analytic expression.
fn availability_point(seed: u64, mtbf_h: f64) -> AvailabilityRow {
    let av =
        AvailabilityModel { mtbf_s: mtbf_h * 3_600.0, checkpoint_write_s: 60.0, restart_s: 180.0 };
    let interval_s = av.young_daly_interval_s();
    let horizon_s = av.mtbf_s * 2_000.0;
    // Generate the failure timeline well past the horizon so the walk
    // never runs out of failures early (which would inflate goodput).
    let timeline = FaultPlan::generate(&FaultPlanConfig {
        seed,
        horizon_ms: s_to_ms(horizon_s * 4.0),
        replicas: 1,
        planes: 1,
        crash_mtbf_ms: s_to_ms(av.mtbf_s),
        crash_repair_ms: 0.0,
        ..FaultPlanConfig::default()
    });
    // The Young/Daly interval is positive and FaultPlan timelines are
    // sorted, so the Err arms are unreachable; report a NaN row rather
    // than panicking if that invariant ever breaks upstream.
    match simulate_goodput(&av, interval_s, &timeline.crash_times_s(), horizon_s) {
        Ok(g) => AvailabilityRow {
            mtbf_h,
            interval_s,
            analytic_goodput: g.analytic_goodput,
            simulated_goodput: g.goodput,
            rel_err: (g.goodput - g.analytic_goodput).abs() / g.analytic_goodput,
        },
        Err(_) => AvailabilityRow {
            mtbf_h,
            interval_s,
            analytic_goodput: f64::NAN,
            simulated_goodput: f64::NAN,
            rel_err: f64::NAN,
        },
    }
}

/// Render.
#[must_use]
pub fn render(r: &FaultDrillReport) -> Table {
    let mut t = Table::new(
        "§5.1.1/§6.1: seeded fault drill — crashes, flaps, stragglers, SDC during a run",
        &["study", "setting", "outcome"],
    );
    t.row(&[
        "serving baseline".into(),
        "healthy, Poisson 10 req/s × 500".into(),
        format!(
            "completed {}, TPOT p99 {} ms, attain {}",
            r.healthy.completed,
            fmt(r.healthy.tpot_ms.p99, 2),
            fmt(r.healthy.slo_attainment, 3)
        ),
    ]);
    t.row(&[
        "empty-plan identity".into(),
        "run_with_faults(∅) vs run".into(),
        format!("byte-identical: {}", r.empty_plan_identical),
    ]);
    t.row(&[
        "fault drill".into(),
        format!("{} events (seed {})", r.plan_events, r.seed),
        format!(
            "crashes {}, flaps {}, stragglers {}, SDC {} ({} caught)",
            r.faulty.faults.crash_events,
            r.faulty.faults.plane_flap_events,
            r.faulty.faults.straggler_events,
            r.faulty.faults.sdc_events,
            r.faulty.faults.sdc_detected
        ),
    ]);
    t.row(&[
        "recovery: retry+backoff".into(),
        format!(
            "{} jobs lost, {} retries",
            r.faulty.faults.jobs_lost_to_crashes, r.faulty.faults.retries
        ),
        format!(
            "completed {}, rejected {}, TPOT p99 {} ms, attain {}",
            r.faulty.serving.completed,
            r.faulty.faults.rejected,
            fmt(r.faulty.serving.tpot_ms.p99, 2),
            fmt(r.faulty.serving.slo_attainment, 3)
        ),
    ]);
    t.row(&[
        "recovery: + hedging".into(),
        format!("{} hedges, {} wins", r.hedged.faults.hedges_spawned, r.hedged.faults.hedge_wins),
        format!(
            "completed {}, e2e p99 {} vs {} ms",
            r.hedged.serving.completed,
            fmt(r.hedged.serving.e2e_ms.p99, 1),
            fmt(r.faulty.serving.e2e_ms.p99, 1)
        ),
    ]);
    t.row(&[
        "plane-flap retention".into(),
        format!("{} step changes", r.retention.len().saturating_sub(1)),
        format!(
            "min retention {} ({} degraded steps)",
            fmt(r.faulty.faults.min_bandwidth_retention, 3),
            r.faulty.faults.degraded_steps
        ),
    ]);
    for a in &r.availability {
        t.row(&[
            "training goodput".into(),
            format!("MTBF {} h, τ* = {} s", fmt(a.mtbf_h, 0), fmt(a.interval_s, 0)),
            format!(
                "sim {} vs Young/Daly {} (rel err {})",
                fmt(a.simulated_goodput, 4),
                fmt(a.analytic_goodput, 4),
                fmt(a.rel_err, 4)
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_reproduces_healthy_report() {
        let r = run(seed(), &mut Recorder::disabled());
        assert!(r.empty_plan_identical, "empty FaultPlan must be a byte-for-byte no-op");
    }

    #[test]
    fn drill_exercises_every_fault_class() {
        let r = run(seed(), &mut Recorder::disabled());
        assert!(r.plan_events > 0);
        assert!(r.faulty.faults.crash_events > 0, "{:?}", r.faulty.faults);
        assert!(r.faulty.faults.plane_flap_events > 0, "{:?}", r.faulty.faults);
        assert!(r.faulty.faults.straggler_events > 0, "{:?}", r.faulty.faults);
        assert!(r.faulty.faults.sdc_events > 0, "{:?}", r.faulty.faults);
        assert!(r.faulty.faults.min_bandwidth_retention < 1.0);
    }

    #[test]
    fn faults_degrade_but_do_not_disconnect() {
        let r = run(seed(), &mut Recorder::disabled());
        let total = r.faulty.serving.completed
            + r.faulty.serving.dropped
            + r.faulty.faults.rejected
            + r.faulty.faults.unfinished;
        assert_eq!(total, r.healthy.requests, "conservation");
        assert!(
            r.faulty.serving.completed > r.healthy.requests / 2,
            "the cluster must keep serving through the drill: {}",
            r.faulty.serving.completed
        );
        assert!(
            r.faulty.serving.slo_attainment <= r.healthy.slo_attainment,
            "faults cannot improve attainment"
        );
    }

    #[test]
    fn simulated_goodput_matches_young_daly_within_5_percent() {
        let r = run(seed(), &mut Recorder::disabled());
        assert_eq!(r.availability.len(), 3);
        for a in &r.availability {
            assert!(
                a.rel_err < 0.05,
                "MTBF {} h: sim {} vs analytic {} (rel err {})",
                a.mtbf_h,
                a.simulated_goodput,
                a.analytic_goodput,
                a.rel_err
            );
        }
    }

    #[test]
    fn drill_is_deterministic_per_seed() {
        let a = run(7, &mut Recorder::disabled());
        let b = run(7, &mut Recorder::disabled());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "byte-reproducible per seed"
        );
        let c = run(8, &mut Recorder::disabled());
        assert_ne!(a.faulty, c.faulty, "different seeds produce different drills");
    }

    #[test]
    fn render_covers_all_studies() {
        let t = render(&run(seed(), &mut Recorder::disabled()));
        assert!(t.rows.len() >= 8, "rows: {}", t.rows.len());
        assert!(t.rows.iter().any(|r| r[0] == "empty-plan identity"));
        assert!(t.rows.iter().any(|r| r[0] == "training goodput"));
    }

    #[test]
    fn instrumented_drill_reproduces_plain_report_with_fault_instants() {
        let mut rec = Recorder::new();
        let instrumented = run(seed(), &mut rec);
        assert_eq!(
            serde_json::to_string(&instrumented).unwrap(),
            serde_json::to_string(&run(seed(), &mut Recorder::disabled())).unwrap(),
            "telemetry must not perturb the drill"
        );
        let events = rec.events();
        assert!(
            events.iter().any(|e| e.ph == "i" && e.name.starts_with("inject")),
            "drill trace must contain fault injections"
        );
        assert!(events.iter().any(|e| e.ph == "X" && e.name == "decode"));
        assert!(rec.counters().keys().any(|k| k.starts_with("faulty.faults.inject.")));
        assert!(rec.counters().contains_key("healthy.completed"));
    }
}
