//! §2.1's memory wall, resolved over time: the training memory timeline.
//!
//! The steady-state calculator behind [`super::table1`]'s sibling analyses
//! answers what the *average* GPU holds; this experiment walks the actual
//! pipeline schedule ([`dsv3_memtl`]) and reports when each byte is live.
//! Four arms:
//!
//! 1. **Validation** — the event walker must land on the closed-form
//!    per-category curves (arXiv 2502.07846's decomposition) for the
//!    production-shaped 1F1B plan, within 5% (in practice: rounding
//!    error).
//! 2. **Plans** — naive (no recompute, 1F1B, ZeRO-1), selective-1F1B,
//!    the production DualPipe plan, and a min-memory plan (full
//!    recompute, ZeRO-3, optimizer offloaded over PCIe). The production
//!    plan fits an 80 GB H800; the naive one does not — the paper's
//!    memory-wall argument, event by event.
//! 3. **MLA vs MHA** — identical geometry, latent vs full-head
//!    attention, under no/selective recomputation.
//! 4. **Frontier** — the deepest V3-shaped model that fits N × 80 GB.

use crate::report::{fmt, Table};
use dsv3_memtl::{
    analytic_1f1b, frontier_sweep, max_rel_err, simulate, simulate_traced, FrontierQuery,
    FrontierRow, GpuSpec, MemPlan, Offload, Recompute, ScheduleKind, ZeroStage,
};
use dsv3_model::attention::Attention;
use dsv3_model::config::ModelConfig;
use dsv3_model::zoo;
use dsv3_telemetry::Recorder;
use serde::{Deserialize, Serialize};

/// Sweep parameters (serialized into the run manifest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemTimelineParams {
    /// The GPU every rank must fit.
    pub spec: GpuSpec,
    /// Fleet sizes probed by the fit-frontier search.
    pub frontier_gpus: Vec<usize>,
    /// PCIe bandwidth assumed by the min-memory plan's optimizer offload
    /// (GB/s; ≈ PCIe 4.0 ×16).
    pub offload_pcie_gbps: f64,
}

impl Default for MemTimelineParams {
    fn default() -> Self {
        Self {
            spec: GpuSpec::h800(),
            frontier_gpus: vec![16, 128, 512, 2048],
            offload_pcie_gbps: 32.0,
        }
    }
}

/// One plan arm of the comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRow {
    /// Arm label.
    pub label: String,
    /// Peak memory across ranks (GB).
    pub peak_gb: f64,
    /// Rank holding the peak.
    pub peak_rank: usize,
    /// Activation part of the peak rank (GB).
    pub peak_activation_gb: f64,
    /// Persistent floor of the peak rank (GB).
    pub floor_gb: f64,
    /// Step time including optimizer and offload penalty (seconds).
    pub step_time_s: f64,
    /// Offload PCIe penalty inside the step time (seconds).
    pub offload_penalty_s: f64,
    /// Recomputed fraction of forward work.
    pub recompute_overhead_frac: f64,
    /// Whether the peak rank fits the GPU budget.
    pub fits: bool,
}

/// MLA vs MHA at one recomputation policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttnRow {
    /// Attention mechanism label.
    pub attention: String,
    /// Recomputation policy label.
    pub recompute: String,
    /// Peak memory (GB).
    pub peak_gb: f64,
    /// Peak activation stash of the peak rank (GB).
    pub peak_activation_gb: f64,
}

/// Everything the experiment measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemTimelineReport {
    /// Largest sim-vs-closed-form relative error across every rank and
    /// category of the production-shaped 1F1B plan.
    pub analytic_max_rel_err: f64,
    /// Plan comparison, naive → min-memory.
    pub plans: Vec<PlanRow>,
    /// MLA vs MHA peaks.
    pub attention: Vec<AttnRow>,
    /// Fit frontier per fleet size.
    pub frontier: Vec<FrontierRow>,
    /// Chunk events walked by the traced production run.
    pub chunk_events: usize,
}

/// Deterministic run marker for the manifest (the walker draws no
/// randomness).
#[must_use]
pub fn seed() -> u64 {
    20_250_808
}

/// Serialized configuration, for the run manifest.
#[must_use]
pub fn config_json() -> String {
    crate::report::json_or_null(&MemTimelineParams::default())
}

fn plan_arms(p: &MemTimelineParams) -> Vec<(String, MemPlan)> {
    let production = MemPlan::deepseek_v3_production();
    vec![
        ("naive (1F1B, no recompute, Z1)".into(), MemPlan::naive()),
        (
            "1F1B + selective recompute".into(),
            MemPlan { schedule: ScheduleKind::OneFOneB, ..production },
        ),
        ("production (DualPipe, selective, Z1)".into(), production),
        (
            "min-memory (full recompute, Z3, offload)".into(),
            MemPlan {
                recompute: Recompute::Full,
                zero_stage: ZeroStage::Z3,
                offload: Offload::OptimizerCpu { pcie_gbps: p.offload_pcie_gbps },
                ..production
            },
        ),
    ]
}

fn v3_mha() -> ModelConfig {
    let mut mha = zoo::deepseek_v3();
    mha.attention = Attention::Mha { heads: 128, head_dim: 128 };
    mha.name = "V3-geometry MHA".into();
    mha
}

/// Run the experiment. The production DualPipe walk traces into `rec` —
/// per-rank processes, chunk spans on forward/backward/weight-grad
/// threads, and `act_gb`/`ws_gb`/`total_gb` counter tracks.
#[must_use]
pub fn run(rec: &mut Recorder) -> MemTimelineReport {
    let p = MemTimelineParams::default();
    let cfg = zoo::deepseek_v3();

    // Arm 1: closed-form validation on the production-shaped 1F1B plan.
    let plan_1f1b =
        MemPlan { schedule: ScheduleKind::OneFOneB, ..MemPlan::deepseek_v3_production() };
    let analytic_max_rel_err =
        max_rel_err(&simulate(&cfg, &plan_1f1b), &analytic_1f1b(&cfg, &plan_1f1b));

    // Arm 2: plan comparison. Only the production arm traces (it is the
    // timeline the Chrome trace is about).
    let mut plans = Vec::new();
    let mut chunk_events = 0;
    for (label, plan) in plan_arms(&p) {
        let traced = plan == MemPlan::deepseek_v3_production();
        let rep = if traced {
            let r = simulate_traced(&cfg, &plan, rec);
            chunk_events = r.chunk_events;
            r
        } else {
            simulate(&cfg, &plan)
        };
        let peak = &rep.ranks[rep.peak_rank];
        plans.push(PlanRow {
            label,
            peak_gb: rep.peak_gb,
            peak_rank: rep.peak_rank,
            peak_activation_gb: peak.peak_activation_gb,
            floor_gb: peak.floor_gb,
            step_time_s: rep.step_time_s,
            offload_penalty_s: rep.offload_penalty_s,
            recompute_overhead_frac: rep.recompute_overhead_frac,
            fits: rep.fits(&p.spec),
        });
    }

    // Arm 3: MLA vs MHA under each recompute policy.
    let mut attention = Vec::new();
    for (cfg, attn) in [(zoo::deepseek_v3(), "MLA"), (v3_mha(), "MHA")] {
        for (recompute, label) in [(Recompute::None, "none"), (Recompute::Selective, "selective")] {
            let rep = simulate(&cfg, &MemPlan { recompute, ..MemPlan::deepseek_v3_production() });
            attention.push(AttnRow {
                attention: attn.into(),
                recompute: label.into(),
                peak_gb: rep.peak_gb,
                peak_activation_gb: rep.ranks[rep.peak_rank].peak_activation_gb,
            });
        }
    }

    // Arm 4: fit frontier.
    let queries: Vec<FrontierQuery> =
        p.frontier_gpus.iter().map(|&gpus| FrontierQuery { gpus, spec: p.spec }).collect();
    let frontier = frontier_sweep(&cfg, &MemPlan::deepseek_v3_production(), &queries);

    MemTimelineReport { analytic_max_rel_err, plans, attention, frontier, chunk_events }
}

/// Render.
#[must_use]
pub fn render(r: &MemTimelineReport) -> Table {
    let mut t = Table::new(
        "§2.1: training memory timeline — schedule-resolved peaks, MLA vs MHA, fit frontier",
        &["arm", "detail", "outcome"],
    );
    t.row(&[
        "validation".into(),
        "sim vs closed form (1F1B)".into(),
        format!("max rel err {:.2e} across ranks × categories", r.analytic_max_rel_err),
    ]);
    for p in &r.plans {
        t.row(&[
            "plan".into(),
            p.label.clone(),
            format!(
                "peak {} GB @ rank {} (act {}, floor {}), step {} s{}, fits 80 GB: {}",
                fmt(p.peak_gb, 1),
                p.peak_rank,
                fmt(p.peak_activation_gb, 1),
                fmt(p.floor_gb, 1),
                fmt(p.step_time_s, 2),
                if p.offload_penalty_s > 0.0 {
                    format!(" (offload +{} ms)", fmt(p.offload_penalty_s * 1e3, 2))
                } else {
                    String::new()
                },
                p.fits
            ),
        ]);
    }
    for a in &r.attention {
        t.row(&[
            "attention".into(),
            format!("{} / {} recompute", a.attention, a.recompute),
            format!("peak {} GB (act {} GB)", fmt(a.peak_gb, 1), fmt(a.peak_activation_gb, 1)),
        ]);
    }
    for f in &r.frontier {
        t.row(&[
            "frontier".into(),
            format!("{} GPUs (ZeRO width {})", f.gpus, f.zero_dp),
            if f.max_layers == 0 {
                "cannot host the PP16 grid".into()
            } else {
                format!(
                    "max {} layers ≈ {} B params, peak {} GB",
                    f.max_layers,
                    fmt(f.params_b, 0),
                    fmt(f.peak_gb, 1)
                )
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_is_inside_the_acceptance_tolerance() {
        let r = run(&mut Recorder::disabled());
        assert!(r.analytic_max_rel_err < 0.05, "{}", r.analytic_max_rel_err);
    }

    #[test]
    fn production_fits_naive_does_not() {
        let r = run(&mut Recorder::disabled());
        let get =
            |needle: &str| r.plans.iter().find(|p| p.label.contains(needle)).expect("arm present");
        assert!(get("production").fits, "production peak {}", get("production").peak_gb);
        assert!(!get("naive").fits, "naive peak {}", get("naive").peak_gb);
        assert!(get("min-memory").fits);
    }

    #[test]
    fn min_memory_pays_time_for_bytes() {
        let r = run(&mut Recorder::disabled());
        let prod = r.plans.iter().find(|p| p.label.contains("production")).expect("arm");
        let min = r.plans.iter().find(|p| p.label.contains("min-memory")).expect("arm");
        assert!(min.peak_gb < prod.peak_gb);
        assert!(min.step_time_s > prod.step_time_s);
        assert!(min.offload_penalty_s > 0.0);
        assert!(min.recompute_overhead_frac > prod.recompute_overhead_frac);
    }

    #[test]
    fn frontier_includes_the_production_point() {
        let r = run(&mut Recorder::disabled());
        let prod = r.frontier.iter().find(|f| f.gpus == 2048).expect("2048-GPU row");
        assert!(prod.max_layers >= 61, "{}", prod.max_layers);
    }

    #[test]
    fn selective_recompute_cuts_both_attention_variants() {
        let r = run(&mut Recorder::disabled());
        let peak = |attn: &str, rc: &str| {
            r.attention
                .iter()
                .find(|a| a.attention == attn && a.recompute == rc)
                .expect("row")
                .peak_activation_gb
        };
        assert!(peak("MLA", "selective") < peak("MLA", "none"));
        assert!(peak("MHA", "selective") < peak("MHA", "none"));
    }

    #[test]
    fn render_covers_every_arm() {
        let r = run(&mut Recorder::disabled());
        let t = render(&r);
        assert_eq!(t.rows.len(), 1 + r.plans.len() + r.attention.len() + r.frontier.len());
    }

    #[test]
    fn instrumented_run_reproduces_plain_report_with_memory_trace() {
        let mut rec = Recorder::new();
        let instrumented = run(&mut rec);
        assert_eq!(
            serde_json::to_string(&instrumented).unwrap(),
            serde_json::to_string(&run(&mut Recorder::disabled())).unwrap(),
            "telemetry must not perturb the walk"
        );
        assert!(instrumented.chunk_events > 0);
        let events = rec.events();
        assert!(events.iter().any(|e| e.ph == "X" && e.name.starts_with('F')));
        assert!(events.iter().any(|e| e.ph == "C" && e.name == "total_gb"));
    }
}
