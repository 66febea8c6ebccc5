//! §6.1's fleet-scale resilience sweep: checkpoint tiers, recovery
//! policies, and SDC rollback from 2k to 100k GPUs.
//!
//! Composes per-component MTBFs ([`dsv3_faults::fleet`]) across fleet
//! sizes, sizes per-rank checkpoints from memtl's schedule-resolved
//! footprint (no hand-picked byte constants), and walks every
//! (fleet, policy) cell through [`dsv3_faults::simulate_resilience`].
//! Three arms:
//!
//! 1. **Validation** — the degenerate cell (one synchronous remote
//!    tier, cold restart, no SDC) against the Young/Daly analytic
//!    goodput, within the same 5% gate `fault_drill` enforces.
//! 2. **Frontier** — goodput / ETTR / wasted-work per policy:
//!    synchronous-single-tier cold restart, tiered cold restart,
//!    tiered + spare pool, tiered + elastic shrink (re-planned via
//!    `dsv3-parallel`), and tiered + spares under SDC with periodic
//!    verification replay.
//! 3. **Headline** — at ≥10k GPUs the tiered + spare-pool policy must
//!    strictly dominate cold-restart-single-tier goodput.

use crate::report::{fmt, Table};
use dsv3_faults::{
    generate_failures, simulate_resilience, simulate_resilience_traced, system_mtbf_s,
    CheckpointBytes, CheckpointStack, ComponentMtbf, FleetSpec, RecoveryKind, ResilienceConfig,
    ResilienceReport, SdcConfig, WasteBreakdown,
};
use dsv3_memtl::{checkpoint_footprint, MemPlan};
use dsv3_model::availability::AvailabilityModel;
use dsv3_model::zoo;
use dsv3_parallel::TrainStepConfig;
use dsv3_telemetry::Recorder;
use dsv3_units::bytes_to_gb;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Sweep parameters (serialized into the run manifest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSweepParams {
    /// Fleet sizes swept, GPUs.
    pub fleet_gpus: Vec<usize>,
    /// Per-component MTBF table.
    pub mtbf: ComponentMtbf,
    /// Frontier wall-clock horizon, days.
    pub horizon_days: f64,
    /// Per-rank remote-store bandwidth, GB/s.
    pub remote_gbps: f64,
    /// Cold reschedule cost, seconds.
    pub restart_s: f64,
    /// Hardware repair turnaround, seconds.
    pub repair_s: f64,
    /// Spare-node swap-in cost, seconds.
    pub provision_s: f64,
    /// Spare pool size as a fraction of the fleet (floor 4 nodes).
    pub spares_per_gpus: usize,
    /// Elastic re-plan cost, seconds.
    pub replan_s: f64,
    /// GPUs lost per failure (host granularity).
    pub gpus_per_failure: usize,
    /// Operational floor on the checkpoint interval, seconds.
    pub min_interval_s: f64,
    /// Validation-arm horizon, in system MTBFs (enough failures that
    /// the Young/Daly comparison is statistical, not anecdotal).
    pub validation_mtbfs: f64,
    /// Corruption process for the SDC arm.
    pub sdc: SdcConfig,
    /// Timeline seed.
    pub seed: u64,
}

impl Default for ResilienceSweepParams {
    fn default() -> Self {
        Self {
            fleet_gpus: vec![2_048, 16_384, 102_400],
            mtbf: ComponentMtbf::production(),
            horizon_days: 30.0,
            remote_gbps: 2.0,
            restart_s: 180.0,
            repair_s: 6.0 * 3_600.0,
            provision_s: 30.0,
            spares_per_gpus: 512,
            replan_s: 60.0,
            gpus_per_failure: 8,
            min_interval_s: 120.0,
            validation_mtbfs: 1_000.0,
            sdc: SdcConfig {
                mtbf_s: 24.0 * 3_600.0,
                detection_mean_s: 2.0 * 3_600.0,
                verify_every: 20,
                verify_cost_s: 30.0,
            },
            seed: 20_250_808,
        }
    }
}

/// Degenerate-cell agreement with the Young/Daly analytic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Fleet size, GPUs.
    pub fleet_gpus: usize,
    /// Composed system MTBF, hours.
    pub system_mtbf_h: f64,
    /// Young/Daly interval used, seconds.
    pub interval_s: f64,
    /// Analytic goodput fraction.
    pub analytic_goodput: f64,
    /// Simulated goodput fraction.
    pub simulated_goodput: f64,
    /// |sim − analytic| / analytic.
    pub rel_err: f64,
}

/// One (fleet, policy) frontier cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyPoint {
    /// Fleet size, GPUs.
    pub fleet_gpus: usize,
    /// Policy label.
    pub policy: String,
    /// Checkpoint interval used, seconds.
    pub interval_s: f64,
    /// Goodput fraction over the horizon.
    pub goodput: f64,
    /// Mean time from interrupt to regained progress, seconds.
    pub mean_ettr_s: f64,
    /// Useful work discarded across the horizon, hours.
    pub wasted_work_h: f64,
    /// Hardware failures that interrupted work.
    pub failures: usize,
    /// Rollbacks forced by detected corruption.
    pub sdc_rollbacks: usize,
    /// Spare swaps taken (spare-pool policy).
    pub spare_swaps: usize,
    /// Shrink re-plans taken (elastic policy).
    pub elastic_events: usize,
}

/// Everything the sweep measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSweepReport {
    /// Per-rank checkpoint write slice (memtl-derived), GB.
    pub ckpt_write_gb: f64,
    /// Critical-path restore read, GB.
    pub ckpt_restore_gb: f64,
    /// Degenerate-cell validation per fleet size.
    pub validation: Vec<ValidationRow>,
    /// Goodput/ETTR/wasted-work frontier, policy-major per fleet.
    pub frontier: Vec<PolicyPoint>,
}

/// Timeline seed recorded in the run manifest.
#[must_use]
pub fn seed() -> u64 {
    ResilienceSweepParams::default().seed
}

/// Serialized configuration, for the run manifest.
#[must_use]
pub fn config_json() -> String {
    crate::report::json_or_null(&ResilienceSweepParams::default())
}

/// Per-rank checkpoint traffic under the production plan: memtl's
/// weights/optimizer-shard categories, not a constant.
fn production_bytes() -> CheckpointBytes {
    let fp = checkpoint_footprint(&zoo::deepseek_v3(), &MemPlan::deepseek_v3_production());
    CheckpointBytes::from_footprint(&fp)
}

/// The healthy training grid scaled to a fleet (global batch grows with
/// the data-parallel width; per-GPU work is unchanged).
fn train_for(gpus: usize) -> TrainStepConfig {
    let mut t = TrainStepConfig::deepseek_v3(1.0);
    let scale = gpus as f64 / t.gpus as f64;
    t.tokens_per_step *= scale;
    t.gpus = gpus;
    t
}

/// Young/Daly interval for a policy's blocking write cost, floored at
/// the operational minimum.
fn interval_for(
    stack: &CheckpointStack,
    ckpt: &CheckpointBytes,
    sys_mtbf_s: f64,
    floor_s: f64,
) -> f64 {
    let write_s = stack.blocking_write_s(ckpt.write_bytes).max(1e-3);
    (2.0 * write_s * sys_mtbf_s).sqrt().max(floor_s)
}

/// The five policy arms swept per fleet size.
fn policy_arms(
    p: &ResilienceSweepParams,
    gpus: usize,
) -> Vec<(String, CheckpointStack, RecoveryKind, SdcConfig)> {
    let spares = (gpus / p.spares_per_gpus).max(4);
    vec![
        (
            "cold restart / sync single tier".into(),
            CheckpointStack::single_sync_remote(p.remote_gbps),
            RecoveryKind::ColdRestart,
            SdcConfig::disabled(),
        ),
        (
            "cold restart / tiered async".into(),
            CheckpointStack::tiered(),
            RecoveryKind::ColdRestart,
            SdcConfig::disabled(),
        ),
        (
            "spare pool / tiered async".into(),
            CheckpointStack::tiered(),
            RecoveryKind::SparePool { spares, provision_s: p.provision_s },
            SdcConfig::disabled(),
        ),
        (
            "elastic shrink / tiered async".into(),
            CheckpointStack::tiered(),
            RecoveryKind::ElasticShrink {
                replan_s: p.replan_s,
                train: Box::new(train_for(gpus)),
                ep: 64,
            },
            SdcConfig::disabled(),
        ),
        (
            "spare pool + SDC verify / tiered".into(),
            CheckpointStack::tiered(),
            RecoveryKind::SparePool { spares, provision_s: p.provision_s },
            p.sdc,
        ),
    ]
}

fn cell_config(
    p: &ResilienceSweepParams,
    ckpt: CheckpointBytes,
    stack: CheckpointStack,
    recovery: RecoveryKind,
    sdc: SdcConfig,
    sys_mtbf_s: f64,
    horizon_s: f64,
) -> ResilienceConfig {
    let interval_s = interval_for(&stack, &ckpt, sys_mtbf_s, p.min_interval_s);
    ResilienceConfig {
        interval_s,
        ckpt,
        stack,
        recovery,
        sdc,
        restart_s: p.restart_s,
        repair_s: p.repair_s,
        gpus_per_failure: p.gpus_per_failure,
        horizon_s,
        seed: p.seed,
    }
}

/// A zeroed fallback report for the unreachable Err arms (configs are
/// built from validated parameters and sorted generated timelines).
fn empty_report(tiers: usize) -> ResilienceReport {
    ResilienceReport {
        goodput: f64::NAN,
        useful_s: 0.0,
        wall_s: 0.0,
        failures: 0,
        interrupts: 0,
        absorbed: 0,
        sdc_rollbacks: 0,
        checkpoints: 0,
        verifications: 0,
        spare_swaps: 0,
        spare_exhausted: 0,
        elastic_events: 0,
        restores_by_tier: vec![0; tiers + 1],
        mean_ettr_s: f64::NAN,
        waste: WasteBreakdown::default(),
        no_fault_goodput: f64::NAN,
    }
}

/// Run the sweep. With `rec` enabled, the tiered + spare-pool arm of the
/// mid fleet traces goodput/backlog/fleet-health series, per-failure
/// instants and per-class failure counters into it under the
/// `resilience` scope. The sweep is seeded and deterministic, so an
/// unrecorded run is computed once per process and cloned thereafter
/// (every registry render shares it).
#[must_use]
pub fn run(rec: &mut Recorder) -> ResilienceSweepReport {
    static CACHE: OnceLock<ResilienceSweepReport> = OnceLock::new();
    if rec.is_enabled() {
        return sweep(rec);
    }
    CACHE.get_or_init(|| sweep(&mut Recorder::disabled())).clone()
}

fn sweep(rec: &mut Recorder) -> ResilienceSweepReport {
    let p = ResilienceSweepParams::default();
    let ckpt = production_bytes();
    let horizon_s = p.horizon_days * 86_400.0;
    // Trace the tiered + spare-pool arm of the middle fleet size: the
    // headline policy at the headline scale.
    let traced_fleet = p.fleet_gpus.get(p.fleet_gpus.len() / 2).copied();

    let mut validation = Vec::new();
    let mut frontier = Vec::new();
    for &gpus in &p.fleet_gpus {
        let spec = FleetSpec::with_gpus(gpus);
        let sys_mtbf_s = system_mtbf_s(&spec, &p.mtbf);

        // Arm 1: degenerate cell vs Young/Daly, on its own long horizon
        // measured in MTBFs so every fleet size sees enough failures.
        let stack = CheckpointStack::single_sync_remote(p.remote_gbps);
        let av = AvailabilityModel {
            mtbf_s: sys_mtbf_s,
            checkpoint_write_s: stack.blocking_write_s(ckpt.write_bytes),
            restart_s: p.restart_s + stack.tiers[0].restore_s(ckpt.restore_bytes),
        };
        let val_horizon_s = sys_mtbf_s * p.validation_mtbfs;
        let mut cfg = cell_config(
            &p,
            ckpt,
            stack,
            RecoveryKind::ColdRestart,
            SdcConfig::disabled(),
            sys_mtbf_s,
            val_horizon_s,
        );
        cfg.interval_s = av.young_daly_interval_s();
        let failures = generate_failures(&spec, &p.mtbf, p.seed, val_horizon_s * 4.0);
        let r = simulate_resilience(&cfg, &failures)
            .unwrap_or_else(|_| empty_report(cfg.stack.tiers.len()));
        let analytic = av.goodput_fraction(cfg.interval_s);
        validation.push(ValidationRow {
            fleet_gpus: gpus,
            system_mtbf_h: sys_mtbf_s / 3_600.0,
            interval_s: cfg.interval_s,
            analytic_goodput: analytic,
            simulated_goodput: r.goodput,
            rel_err: (r.goodput - analytic).abs() / analytic,
        });

        // Arm 2: the policy frontier over a common horizon and timeline.
        let failures = generate_failures(&spec, &p.mtbf, p.seed, horizon_s * 2.0);
        for (policy, stack, recovery, sdc) in policy_arms(&p, gpus) {
            let is_spare_tiered =
                matches!(recovery, RecoveryKind::SparePool { .. }) && !sdc.enabled();
            let cfg = cell_config(&p, ckpt, stack, recovery, sdc, sys_mtbf_s, horizon_s);
            let r = if rec.is_enabled() && traced_fleet == Some(gpus) && is_spare_tiered {
                simulate_resilience_traced(&cfg, &failures, rec, "resilience")
            } else {
                simulate_resilience(&cfg, &failures)
            }
            .unwrap_or_else(|_| empty_report(cfg.stack.tiers.len()));
            frontier.push(PolicyPoint {
                fleet_gpus: gpus,
                policy,
                interval_s: cfg.interval_s,
                goodput: r.goodput,
                mean_ettr_s: r.mean_ettr_s,
                wasted_work_h: r.waste.lost_work_s / 3_600.0,
                failures: r.failures,
                sdc_rollbacks: r.sdc_rollbacks,
                spare_swaps: r.spare_swaps,
                elastic_events: r.elastic_events,
            });
        }
    }

    ResilienceSweepReport {
        ckpt_write_gb: bytes_to_gb(ckpt.write_bytes),
        ckpt_restore_gb: bytes_to_gb(ckpt.restore_bytes),
        validation,
        frontier,
    }
}

/// Render.
#[must_use]
pub fn render(r: &ResilienceSweepReport) -> Table {
    let mut t = Table::new(
        "§6.1: fleet-scale resilience — tiered checkpoints, spares, elastic shrink, SDC rollback",
        &["arm", "setting", "outcome"],
    );
    t.row(&[
        "checkpoint sizing".into(),
        "memtl production plan (PP16×EP64, Z1)".into(),
        format!(
            "per-rank write {} GB, critical restore {} GB",
            fmt(r.ckpt_write_gb, 2),
            fmt(r.ckpt_restore_gb, 2)
        ),
    ]);
    for v in &r.validation {
        t.row(&[
            "validation".into(),
            format!(
                "{} GPUs, sys MTBF {} h, τ {} s",
                v.fleet_gpus,
                fmt(v.system_mtbf_h, 2),
                fmt(v.interval_s, 0)
            ),
            format!(
                "sim {}% vs Young/Daly {}% (rel err {}%)",
                fmt(v.simulated_goodput * 100.0, 2),
                fmt(v.analytic_goodput * 100.0, 2),
                fmt(v.rel_err * 100.0, 2)
            ),
        ]);
    }
    for f in &r.frontier {
        t.row(&[
            format!("{} GPUs", f.fleet_gpus),
            f.policy.clone(),
            format!(
                "goodput {}%, ETTR {} s, wasted {} h, {} fails{}{}{}",
                fmt(f.goodput * 100.0, 2),
                fmt(f.mean_ettr_s, 0),
                fmt(f.wasted_work_h, 1),
                f.failures,
                if f.sdc_rollbacks > 0 {
                    format!(", {} SDC rollbacks", f.sdc_rollbacks)
                } else {
                    String::new()
                },
                if f.spare_swaps > 0 {
                    format!(", {} swaps", f.spare_swaps)
                } else {
                    String::new()
                },
                if f.elastic_events > 0 {
                    format!(", {} shrinks", f.elastic_events)
                } else {
                    String::new()
                },
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`run`] memoizes the deterministic sweep; tests share it.
    fn report() -> ResilienceSweepReport {
        run(&mut Recorder::disabled())
    }

    #[test]
    fn degenerate_cells_agree_with_young_daly_within_five_percent() {
        let r = report();
        assert_eq!(r.validation.len(), 3);
        for v in &r.validation {
            assert!(
                v.rel_err < 0.05,
                "{} GPUs: rel err {} (sim {} vs analytic {})",
                v.fleet_gpus,
                v.rel_err,
                v.simulated_goodput,
                v.analytic_goodput
            );
        }
    }

    #[test]
    fn checkpoint_bytes_come_from_memtl_not_a_constant() {
        let r = report();
        let fp = checkpoint_footprint(&zoo::deepseek_v3(), &MemPlan::deepseek_v3_production());
        assert!((r.ckpt_write_gb - bytes_to_gb(fp.max_write_bytes)).abs() < 1e-9);
        assert!((r.ckpt_restore_gb - bytes_to_gb(fp.max_restore_bytes)).abs() < 1e-9);
        // ZeRO-1 shards the write across 128 DP lanes but the restore
        // reloads full stage weights: sub-GB writes, multi-GB restores.
        assert!(r.ckpt_write_gb > 0.1, "write slice: {}", r.ckpt_write_gb);
        assert!(r.ckpt_restore_gb > 1.0, "restore slice: {}", r.ckpt_restore_gb);
    }

    #[test]
    fn tiered_spare_pool_dominates_cold_single_tier_at_scale() {
        let r = report();
        for &gpus in &[16_384usize, 102_400] {
            let get = |policy: &str| {
                r.frontier
                    .iter()
                    .find(|f| f.fleet_gpus == gpus && f.policy.starts_with(policy))
                    .map(|f| f.goodput)
                    .unwrap_or(f64::NAN)
            };
            let cold_sync = get("cold restart / sync");
            let spare = get("spare pool / tiered");
            assert!(
                spare > cold_sync,
                "{gpus} GPUs: spare {spare} must strictly dominate cold sync {cold_sync}"
            );
        }
    }

    #[test]
    fn frontier_covers_every_policy_and_fleet() {
        let r = report();
        assert_eq!(r.frontier.len(), 3 * 5);
        let sdc_cell = r
            .frontier
            .iter()
            .find(|f| f.fleet_gpus == 102_400 && f.policy.contains("SDC"))
            .expect("SDC arm present");
        assert!(sdc_cell.sdc_rollbacks > 0, "SDC arm must exercise rollback");
        let elastic = r
            .frontier
            .iter()
            .find(|f| f.fleet_gpus == 102_400 && f.policy.contains("elastic"))
            .expect("elastic arm present");
        assert!(elastic.elastic_events > 0);
    }

    #[test]
    fn instrumented_run_equals_plain_and_feeds_watch_series() {
        let plain = report();
        let mut rec = Recorder::new();
        let traced = run(&mut rec);
        assert_eq!(plain, traced, "tracing must not perturb the sweep");
        assert!(rec.series_get("resilience.goodput").is_some());
        assert!(
            rec.counters().keys().any(|k| k.starts_with("resilience.failures.")),
            "per-class failure counters present"
        );
    }
}
