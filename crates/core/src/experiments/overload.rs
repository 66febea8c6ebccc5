//! Overload-robust serving: admission control, the degradation ladder,
//! closed-loop clients, and reactive autoscaling under load sweeps.
//!
//! The experiment reproduces the failure mode the paper's serving
//! sections circle around without naming: *metastable overload*. A
//! closed-loop client population with timeouts and retries turns a
//! transient 2× load spike into a self-sustaining retry storm — timed-out
//! attempts leave zombie work behind, their retries re-prefill from
//! scratch, and the system stays pinned far below its healthy goodput
//! long after the spike has ended. Four policy arms then defeat it
//! incrementally:
//!
//! 1. **none** — closed-loop clients only (jitter-free backoff, the
//!    worst case): reproduces the goodput cliff past 1× load and the
//!    post-spike metastable plateau.
//! 2. **shed** — bounded admission queue, token-bucket rate limiting,
//!    and deadline-aware shedding (reject when predicted TTFT blows the
//!    SLO): the cliff flattens into a plateau at admission capacity.
//! 3. **ladder** — adds the graceful-degradation ladder (MTP off →
//!    batch/context caps → priority shedding) with dwell hysteresis.
//! 4. **ladder+autoscale** — adds reactive pool scaling with
//!    provisioning lag, so sustained overload buys real capacity while
//!    admission holds the line during the lag.
//!
//! A separate arm drives a crash-looping replica through the autoscaler's
//! circuit breaker. Capacity (the 1× anchor) is calibrated empirically
//! and pinned by test.

use crate::report::{fmt, Table};
use dsv3_faults::{Backoff, FaultEvent, FaultKind, FaultPlan, RecoveryPolicy};
use dsv3_serving::{
    run_overload, run_overload_traced, AdmissionConfig, ArrivalProcess, AutoscaleConfig,
    ClientConfig, GoodputWindow, LadderConfig, OverloadConfig, OverloadServingReport, Phase,
    RateLimitConfig, RouterPolicy, ServingSimConfig,
};
use dsv3_telemetry::Recorder;
use dsv3_units::s_to_ms;
use serde::{Deserialize, Serialize};

/// Steady-state SLO capacity of the scenario (requests/s): the largest
/// Poisson rate the disaggregated H800 baseline serves with ≥ 95% SLO
/// attainment. Calibrated empirically; `capacity_anchor_is_calibrated`
/// re-measures both sides of the knee so drift fails loudly.
pub const CAPACITY_RPS: f64 = 6.0;

/// Decode replicas every arm partitions work across.
const REPLICAS: usize = 4;

/// Goodput-timeline bucket width (ms).
const WINDOW_MS: f64 = 5_000.0;

/// Load multipliers swept against [`CAPACITY_RPS`].
const LOAD_MULTS: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0];

/// Seconds of steady arrivals per sweep point.
const STEADY_S: f64 = 45.0;

/// Spike shape: `PRE_S` at 0.9×, `SPIKE_S` at 2×, then 0.9× again for
/// `POST_S` — the post window is where metastability shows (or doesn't).
const PRE_S: f64 = 30.0;
const SPIKE_S: f64 = 30.0;
const POST_S: f64 = 120.0;

/// The four policy arms, weakest first.
const POLICIES: [&str; 4] = ["none", "shed", "ladder", "ladder+autoscale"];

/// One (policy, load-multiplier) point of the steady-load sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Policy arm name (see [`POLICIES`]).
    pub policy: String,
    /// Offered load as a multiple of [`CAPACITY_RPS`].
    pub load_mult: f64,
    /// Offered arrival rate, requests/s.
    pub offered_rps: f64,
    /// Goodput (completions within SLO per second of simulated time).
    pub goodput_rps: f64,
    /// What a robust policy should hold: `min(mult, 1) ×` the 1× anchor.
    pub target_rps: f64,
    /// Requests completed.
    pub completed: usize,
    /// Requests settled as rejected (shed past the retry budget).
    pub rejected: usize,
    /// Attempts shed by admission control (all shed classes).
    pub shed: usize,
    /// Client-side attempt timeouts.
    pub client_timeouts: usize,
    /// Client retries submitted.
    pub client_retries: usize,
    /// TTFT p99 over completed requests, ms.
    pub ttft_p99_ms: f64,
    /// Deepest degradation rung reached.
    pub max_rung: usize,
    /// Peak live decode replicas (base when autoscale is off).
    pub decode_peak: usize,
    /// Peak live prefill replicas (base when autoscale is off).
    pub prefill_peak: usize,
}

/// One policy arm of the 2×-spike study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeArm {
    /// Policy arm name.
    pub policy: String,
    /// Mean goodput during the spike itself (rps).
    pub spike_goodput_rps: f64,
    /// Mean goodput over the first post-spike minute (rps) — the
    /// metastable plateau, if the arm has one.
    pub plateau_goodput_rps: f64,
    /// Mean goodput over the second post-spike minute (rps).
    pub recovery_goodput_rps: f64,
    /// Plateau below half the healthy anchor a full minute after the
    /// spike ended: the metastable signature.
    pub metastable: bool,
    /// Second post-spike minute back within 25% of the post-spike
    /// offered load: the arm recovered.
    pub recovered: bool,
    /// Full goodput timeline in [`WINDOW_MS`] buckets.
    pub timeline: Vec<GoodputWindow>,
}

/// The crash-loop circuit-breaker arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerArm {
    /// Replica ejections the breaker performed.
    pub breaker_ejections: usize,
    /// Requests offered.
    pub requests: usize,
    /// Requests completed.
    pub completed: usize,
    /// Goodput over the arm (rps).
    pub goodput_rps: f64,
}

/// Everything the overload experiment measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadReport {
    /// Workload seed.
    pub seed: u64,
    /// The calibrated 1× anchor (rps).
    pub capacity_rps: f64,
    /// Goodput of the full stack at exactly 1× steady load — the
    /// admission-capacity baseline every robustness claim is scored
    /// against.
    pub baseline_goodput_rps: f64,
    /// The (policy × load) sweep.
    pub sweep: Vec<LoadPoint>,
    /// Policy `none` falls off a cliff past 1×: goodput at ≥ 2× below
    /// half the baseline.
    pub cliff: bool,
    /// `ladder+autoscale` holds ≥ 90% of `target_rps` at every load.
    pub robust: bool,
    /// The 2×-spike arms, one per policy.
    pub spike: Vec<SpikeArm>,
    /// The `none` spike arm shows the metastable plateau.
    pub metastable_reproduced: bool,
    /// The `ladder+autoscale` spike arm recovers post-spike.
    pub defense_recovers: bool,
    /// Crash-loop circuit-breaker arm.
    pub breaker: BreakerArm,
}

fn scenario(arrival: ArrivalProcess, requests: usize) -> ServingSimConfig {
    ServingSimConfig::h800_baseline(
        arrival,
        requests,
        RouterPolicy::Disaggregated { prefill_fraction: 0.25 },
    )
}

fn plan() -> FaultPlan {
    FaultPlan { replicas: REPLICAS, planes: 8, links: 0, events: Vec::new() }
}

fn admission() -> AdmissionConfig {
    AdmissionConfig {
        queue_cap: 256,
        deadline_headroom: 1.0,
        // A coarse storm guard at ~10 rps across 4 replicas — well above
        // capacity on purpose. The deadline predictor does the per-request
        // trimming, which leaves enough station backlog for the ladder's
        // pressure signal to see sustained overload.
        rate_limit: Some(RateLimitConfig { rate_per_s_per_replica: 2.5, burst: 24.0 }),
    }
}

fn autoscale() -> AutoscaleConfig {
    AutoscaleConfig {
        // Prefill is this scenario's bottleneck tier (disaggregated
        // station at 0.25× the unified rate), and the deadline shedder
        // caps the station backlog near the TTFT SLO — so the scale-up
        // trigger must sit well below that ceiling to ever fire.
        prefill_up_backlog_ms: 1_000.0,
        prefill_down_backlog_ms: 100.0,
        ..AutoscaleConfig::reactive(REPLICAS, REPLICAS)
    }
}

/// Build a policy arm's overload config by name.
///
/// # Panics
///
/// Panics on a name outside [`POLICIES`] (internal contract).
fn policy_config(name: &str) -> OverloadConfig {
    let mut ov = OverloadConfig {
        timeline_window_ms: WINDOW_MS,
        priority_classes: 4,
        ..OverloadConfig::disabled()
    };
    match name {
        "none" => {
            // Jitter-free backoff synchronizes the retry waves — the
            // worst-case closed-loop client population.
            ov.clients =
                Some(ClientConfig { backoff: Backoff::default(), ..ClientConfig::default() });
        }
        "shed" => {
            ov.clients = Some(ClientConfig::default());
            ov.admission = Some(admission());
        }
        "ladder" => {
            ov.clients = Some(ClientConfig::default());
            ov.admission = Some(admission());
            ov.ladder = Some(LadderConfig::default());
        }
        "ladder+autoscale" => {
            ov.clients = Some(ClientConfig::default());
            ov.admission = Some(admission());
            ov.ladder = Some(LadderConfig::default());
            ov.autoscale = Some(autoscale());
        }
        // lint:allow(P1) — POLICIES is a private constant; an unknown name is a programming error, not an input
        other => unreachable!("unknown policy arm {other}"),
    }
    ov
}

fn run_arm(
    seed: u64,
    arrival: ArrivalProcess,
    requests: usize,
    ov: &OverloadConfig,
    rec: &mut Recorder,
    scope: &str,
) -> OverloadServingReport {
    let mut cfg = scenario(arrival, requests);
    cfg.workload.seed = seed;
    run_overload_traced(&cfg, &plan(), &RecoveryPolicy::default(), ov, rec, scope)
}

fn shed_total(r: &OverloadServingReport) -> usize {
    r.overload.shed_queue_full
        + r.overload.shed_rate_limited
        + r.overload.shed_deadline
        + r.overload.shed_priority
        + r.overload.shed_context
}

/// Mean goodput (rps) over timeline windows starting in `[from_ms, to_ms)`.
fn window_mean_rps(timeline: &[GoodputWindow], from_ms: f64, to_ms: f64) -> f64 {
    let slice: Vec<&GoodputWindow> =
        timeline.iter().filter(|w| w.start_ms >= from_ms && w.start_ms < to_ms).collect();
    if slice.is_empty() {
        // The run drained before this span: the work is long done, which
        // for a goodput question means full post-drain capacity headroom.
        // Score it as the offered post-spike load so "already finished"
        // never reads as a metastable stall.
        return 0.9 * CAPACITY_RPS;
    }
    slice.iter().map(|w| w.goodput_rps).sum::<f64>() / slice.len() as f64
}

/// The experiment's default seed.
#[must_use]
pub fn seed() -> u64 {
    20_250_808
}

/// Serialized configuration for the run manifest.
#[must_use]
pub fn config_json() -> String {
    let cfg =
        crate::report::json_or_null(&scenario(ArrivalProcess::Poisson { rate_per_s: 1.0 }, 0));
    let full = crate::report::json_or_null(&policy_config("ladder+autoscale"));
    format!("[{cfg},{full}]")
}

/// Run at an explicit seed (equal seeds → identical reports).
#[must_use]
pub fn run_seeded(seed: u64) -> OverloadReport {
    run_seeded_traced(seed, &mut Recorder::disabled())
}

/// [`run_seeded`] with telemetry into `rec`: the 1× baseline and the two
/// bookend spike arms (`none`, `ladder+autoscale`) trace, plus the
/// telemetry-only `spike-storm` watchdog control arms; the sweep grid
/// stays untraced to keep traces reviewable. Recording never changes
/// the report, enforced by test.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_seeded_traced(seed: u64, rec: &mut Recorder) -> OverloadReport {
    // Anchor: the full stack at exactly 1× steady load.
    let anchor_n = (CAPACITY_RPS * STEADY_S) as usize;
    let anchor = run_arm(
        seed,
        ArrivalProcess::Poisson { rate_per_s: CAPACITY_RPS },
        anchor_n,
        &policy_config("ladder+autoscale"),
        rec,
        "baseline-1x",
    );
    let baseline_goodput_rps = anchor.serving.goodput_rps;

    // Steady-load sweep: policy × multiplier.
    let mut sweep = Vec::new();
    for policy in POLICIES {
        let ov = policy_config(policy);
        for (i, &mult) in LOAD_MULTS.iter().enumerate() {
            let rate = mult * CAPACITY_RPS;
            let n = (rate * STEADY_S) as usize;
            let r = run_arm(
                seed.wrapping_add(i as u64),
                ArrivalProcess::Poisson { rate_per_s: rate },
                n,
                &ov,
                &mut Recorder::disabled(),
                "",
            );
            sweep.push(LoadPoint {
                policy: policy.to_string(),
                load_mult: mult,
                offered_rps: rate,
                goodput_rps: r.serving.goodput_rps,
                target_rps: mult.min(1.0) * baseline_goodput_rps,
                completed: r.serving.completed,
                rejected: r.overload.rejected,
                shed: shed_total(&r),
                client_timeouts: r.overload.client_timeouts,
                client_retries: r.overload.client_retries,
                ttft_p99_ms: r.serving.ttft_ms.p99,
                max_rung: r.overload.max_rung,
                decode_peak: r.autoscale.decode_peak.max(REPLICAS),
                prefill_peak: r.autoscale.prefill_peak.max(REPLICAS),
            });
        }
    }

    // Spike study: 0.9× — 2× — 0.9×, one arm per policy.
    let pre = Phase { duration_ms: s_to_ms(PRE_S), rate_per_s: 0.9 * CAPACITY_RPS };
    let spike_ph = Phase { duration_ms: s_to_ms(SPIKE_S), rate_per_s: 2.0 * CAPACITY_RPS };
    let post = Phase { duration_ms: s_to_ms(POST_S), rate_per_s: 0.9 * CAPACITY_RPS };
    let spike_n = ((pre.duration_ms * pre.rate_per_s
        + spike_ph.duration_ms * spike_ph.rate_per_s
        + post.duration_ms * post.rate_per_s)
        / 1_000.0) as usize;
    let spike_end_ms = s_to_ms(PRE_S + SPIKE_S);
    let mut spike = Vec::new();
    for policy in POLICIES {
        let arrival = ArrivalProcess::Phased { phases: vec![pre, spike_ph, post] };
        let traced = policy == "none" || policy == "ladder+autoscale";
        let mut disabled = Recorder::disabled();
        let (arm_rec, scope): (&mut Recorder, String) =
            if traced { (rec, format!("spike-{policy}")) } else { (&mut disabled, String::new()) };
        let r = run_arm(seed, arrival, spike_n, &policy_config(policy), arm_rec, &scope);
        let plateau = window_mean_rps(&r.timeline, spike_end_ms, spike_end_ms + 60_000.0);
        let recovery =
            window_mean_rps(&r.timeline, spike_end_ms + 60_000.0, spike_end_ms + 120_000.0);
        spike.push(SpikeArm {
            policy: policy.to_string(),
            spike_goodput_rps: window_mean_rps(&r.timeline, s_to_ms(PRE_S), spike_end_ms),
            plateau_goodput_rps: plateau,
            recovery_goodput_rps: recovery,
            metastable: plateau < 0.5 * baseline_goodput_rps,
            recovered: recovery >= 0.75 * 0.9 * CAPACITY_RPS,
            timeline: r.timeline,
        });
    }

    // Watchdog control arms, traced only — the report never reads them,
    // so the plain (disabled-recorder) path does identical work and stays
    // byte-for-byte. A bare queue (queue_cap only, no deadline shedder or
    // rate limit) sized so the queue wait hovers right at the client
    // timeout puts the system on the metastable boundary: synchronized
    // (jitter-free) retry waves tip it into a self-sustaining storm,
    // while decorrelated jitter — the only difference between the two
    // arms — spreads the same retries thinly enough to drain. `dsv3
    // audit overload` must fire the metastability detector on the
    // jitter-free arms (`spike-none`, `spike-storm`) and stay silent on
    // `spike-storm-jitter`.
    if rec.is_enabled() {
        for (jitter, arm_scope) in [(false, "spike-storm"), (true, "spike-storm-jitter")] {
            let arrival = ArrivalProcess::Phased { phases: vec![pre, spike_ph, post] };
            let mut ov = OverloadConfig {
                timeline_window_ms: WINDOW_MS,
                priority_classes: 4,
                ..OverloadConfig::disabled()
            };
            ov.admission =
                Some(AdmissionConfig { queue_cap: 27, deadline_headroom: 0.0, rate_limit: None });
            ov.clients = Some(if jitter {
                ClientConfig::default()
            } else {
                ClientConfig { backoff: Backoff::default(), ..ClientConfig::default() }
            });
            let _ = run_arm(seed, arrival, spike_n, &ov, rec, arm_scope);
        }
    }

    // Crash-loop arm: replica 2 dies every 10 s; the breaker ejects it.
    let crash_events: Vec<FaultEvent> = (1..=6)
        .map(|k| FaultEvent {
            at_ms: k as f64 * 10_000.0,
            kind: FaultKind::ReplicaCrash { replica: 2, repair_ms: 2_000.0 },
        })
        .collect();
    let crash_plan = FaultPlan { replicas: REPLICAS, planes: 8, links: 0, events: crash_events };
    let mut crash_cfg = scenario(
        ArrivalProcess::Poisson { rate_per_s: CAPACITY_RPS },
        (CAPACITY_RPS * 70.0) as usize,
    );
    crash_cfg.workload.seed = seed;
    let br = run_overload(
        &crash_cfg,
        &crash_plan,
        &RecoveryPolicy::default(),
        &policy_config("ladder+autoscale"),
    );
    let breaker = BreakerArm {
        breaker_ejections: br.autoscale.breaker_ejections,
        requests: br.serving.requests,
        completed: br.serving.completed,
        goodput_rps: br.serving.goodput_rps,
    };

    let none_cliff = sweep
        .iter()
        .filter(|p| p.policy == "none" && p.load_mult >= 2.0)
        .all(|p| p.goodput_rps < 0.5 * baseline_goodput_rps);
    let robust = sweep
        .iter()
        .filter(|p| p.policy == "ladder+autoscale")
        .all(|p| p.goodput_rps >= 0.9 * p.target_rps);
    let metastable_reproduced = spike.iter().any(|a| a.policy == "none" && a.metastable);
    let defense_recovers =
        spike.iter().any(|a| a.policy == "ladder+autoscale" && a.recovered && !a.metastable);

    OverloadReport {
        seed,
        capacity_rps: CAPACITY_RPS,
        baseline_goodput_rps,
        sweep,
        cliff: none_cliff,
        robust,
        spike,
        metastable_reproduced,
        defense_recovers,
        breaker,
    }
}

/// Render.
#[must_use]
pub fn render(r: &OverloadReport) -> Table {
    let mut t = Table::new(
        "overload robustness: admission, degradation ladder, autoscaling vs retry storms",
        &["arm", "setting", "outcome"],
    );
    t.row(&[
        "anchor".into(),
        format!("full stack @ 1.0x ({} rps)", fmt(r.capacity_rps, 1)),
        format!("goodput {} rps (baseline)", fmt(r.baseline_goodput_rps, 2)),
    ]);
    for p in &r.sweep {
        t.row(&[
            format!("sweep {}", p.policy),
            format!("{}x load ({} rps)", fmt(p.load_mult, 1), fmt(p.offered_rps, 1)),
            format!(
                "goodput {} rps (target {}), shed {}, timeouts {}, rung {}, pools d{}/p{}",
                fmt(p.goodput_rps, 2),
                fmt(p.target_rps, 2),
                p.shed,
                p.client_timeouts,
                p.max_rung,
                p.decode_peak,
                p.prefill_peak
            ),
        ]);
    }
    for a in &r.spike {
        t.row(&[
            format!("spike {}", a.policy),
            "0.9x / 2.0x 30s / 0.9x".into(),
            format!(
                "spike {} rps, plateau {} rps, recovery {} rps{}{}",
                fmt(a.spike_goodput_rps, 2),
                fmt(a.plateau_goodput_rps, 2),
                fmt(a.recovery_goodput_rps, 2),
                if a.metastable { " [METASTABLE]" } else { "" },
                if a.recovered { " [recovered]" } else { "" }
            ),
        ]);
    }
    t.row(&[
        "crash-loop breaker".into(),
        "replica 2 dies 6x in 60s".into(),
        format!(
            "{} ejections, {}/{} completed, goodput {} rps",
            r.breaker.breaker_ejections,
            r.breaker.completed,
            r.breaker.requests,
            fmt(r.breaker.goodput_rps, 2)
        ),
    ]);
    t.row(&[
        "verdict".into(),
        "cliff / metastable / robust / recovers".into(),
        format!(
            "{} / {} / {} / {}",
            r.cliff, r.metastable_reproduced, r.robust, r.defense_recovers
        ),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_anchor_is_calibrated() {
        // Below the knee: near-perfect attainment. Above: collapse. If
        // engine changes move the knee, CAPACITY_RPS must move with it.
        let below = dsv3_serving::run(&scenario(
            ArrivalProcess::Poisson { rate_per_s: CAPACITY_RPS },
            (CAPACITY_RPS * STEADY_S) as usize,
        ));
        assert!(
            below.slo_attainment > 0.9,
            "at 1.0x the plain engine must hold the SLO: {}",
            below.slo_attainment
        );
        let above = dsv3_serving::run(&scenario(
            ArrivalProcess::Poisson { rate_per_s: 1.5 * CAPACITY_RPS },
            (1.5 * CAPACITY_RPS * STEADY_S) as usize,
        ));
        assert!(
            above.slo_attainment < 0.5,
            "at 1.5x the plain engine must be past the knee: {}",
            above.slo_attainment
        );
    }

    #[test]
    fn acceptance_cliff_and_metastability_reproduced() {
        let r = run_seeded(seed());
        assert!(r.cliff, "policy=none must cliff past 1x: {:#?}", r.sweep);
        assert!(
            r.metastable_reproduced,
            "the none arm must plateau below half baseline a minute after the spike: {:#?}",
            r.spike
        );
    }

    #[test]
    fn acceptance_full_stack_is_robust_and_recovers() {
        let r = run_seeded(seed());
        assert!(
            r.robust,
            "ladder+autoscale must hold 90% of target at every load: {:#?}",
            r.sweep.iter().filter(|p| p.policy == "ladder+autoscale").collect::<Vec<_>>()
        );
        assert!(r.defense_recovers, "full stack must recover post-spike: {:#?}", r.spike);
    }

    #[test]
    fn ladder_engages_under_overload_and_breaker_ejects() {
        let r = run_seeded(seed());
        assert!(
            r.sweep
                .iter()
                .any(|p| p.policy.starts_with("ladder") && p.load_mult >= 2.0 && p.max_rung >= 1),
            "deep overload must climb the ladder"
        );
        assert!(r.breaker.breaker_ejections >= 1, "crash loop must trip the breaker");
        assert!(
            r.breaker.completed >= r.breaker.requests * 9 / 10,
            "service must survive the crash loop: {:?}",
            r.breaker
        );
    }

    #[test]
    fn autoscale_buys_capacity_at_deep_overload() {
        let r = run_seeded(seed());
        let deep = |policy: &str| {
            r.sweep
                .iter()
                .find(|p| p.policy == policy && p.load_mult == 4.0)
                .map(|p| p.goodput_rps)
                .unwrap_or_default()
        };
        assert!(
            deep("ladder+autoscale") > deep("none"),
            "at 4x, the full stack must beat the unprotected arm"
        );
        assert!(
            r.sweep.iter().any(|p| p.policy == "ladder+autoscale"
                && p.load_mult >= 2.0
                && p.prefill_peak > REPLICAS),
            "sustained overload must grow the bottleneck (prefill) pool"
        );
    }

    #[test]
    fn experiment_is_deterministic_per_seed() {
        let a = run_seeded(11);
        let b = run_seeded(11);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "byte-reproducible per seed"
        );
    }

    #[test]
    fn instrumented_run_reproduces_plain_report() {
        let mut rec = Recorder::new();
        let instrumented = run_seeded_traced(seed(), &mut rec);
        assert_eq!(
            serde_json::to_string(&instrumented).unwrap(),
            serde_json::to_string(&run_seeded(seed())).unwrap(),
            "telemetry must not perturb the experiment"
        );
        let events = rec.events();
        assert!(
            events.iter().any(|e| e.ph == "i" && e.name.starts_with("shed-")),
            "trace must contain shed decisions"
        );
        assert!(
            events.iter().any(|e| e.ph == "i" && e.name == "client-timeout"),
            "trace must contain client timeouts"
        );
        assert!(
            rec.counters().keys().any(|k| k.starts_with("spike-none.ov_")),
            "overload counters must land in the trace"
        );
    }

    #[test]
    fn render_covers_every_arm() {
        let t = render(&run_seeded(seed()));
        // anchor + 24 sweep points + 4 spike arms + breaker + verdict.
        assert_eq!(t.rows.len(), 1 + POLICIES.len() * LOAD_MULTS.len() + POLICIES.len() + 2);
        assert!(t.rows.iter().any(|row| row[0] == "verdict"));
    }
}
