//! The event-driven memory timeline: live bytes per category over a step.
//!
//! The walker takes the chunk events of a pipeline schedule
//! ([`dsv3_parallel::schedule::one_f_one_b_events`] or
//! [`dsv3_parallel::dualpipe::dualpipe_events`] with throttling) and plays
//! them against a [`MemPlan`]:
//!
//! * **Forward end** — the microbatch's stash for that stage becomes live.
//! * **Backward start/end** — a one-layer recompute buffer (the dropped
//!   tensors) plus ZeRO workspaces are live for the chunk; at the end the
//!   stash is freed — entirely under 1F1B (W folded into B), or down to
//!   the weight-gradient operands under DualPipe.
//! * **WeightGrad end** — the retained operands are freed.
//! * **Optimizer** — runs after the last chunk; CPU offload empties the
//!   HBM optimizer shard but pays the PCIe round trip of the gradient
//!   shard down and the updated weight shard back up.
//!
//! Activation and workspace bytes are tracked as integers so a drained
//! timeline ends at exactly zero — the no-leak property the proptests pin.
//! Recomputation stretches the backward chunks by `ρ·f`, where `ρ` is the
//! recomputed fraction of forward work, so the same walk also yields the
//! step-time cost of trading memory for FLOPs.

use crate::footprint::{stage_footprint, StageFootprint};
use crate::plan::{GpuSpec, MemPlan, Offload, ScheduleKind, ZeroStage};
use dsv3_model::config::ModelConfig;
use dsv3_parallel::dualpipe::{dualpipe_events, stage_of_global};
use dsv3_parallel::schedule::{one_f_one_b_events, ChunkEvent, ChunkKind, ChunkTimes};
use dsv3_telemetry::Recorder;
use serde::{Deserialize, Serialize};

/// Per-rank summary of the walked timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankTimeline {
    /// Pipeline rank.
    pub rank: usize,
    /// Resident weight bytes (GB) — two stages' worth under DualPipe.
    pub weights_gb: f64,
    /// Persistent gradient bytes (GB), sharded under ZeRO ≥ 2.
    pub grads_gb: f64,
    /// HBM optimizer bytes (GB); zero when offloaded.
    pub optimizer_gb: f64,
    /// Persistent floor: weights + grads + optimizer.
    pub floor_gb: f64,
    /// Peak total (GB) over the step.
    pub peak_gb: f64,
    /// Peak activation stash (GB).
    pub peak_activation_gb: f64,
    /// Peak transient workspace (GB): recompute buffers + ZeRO gathers.
    pub peak_workspace_gb: f64,
    /// Simulation time of the total peak (seconds).
    pub peak_time_s: f64,
    /// Activation bytes still live after the last chunk — zero for a
    /// leak-free walk.
    pub end_activation_bytes: i64,
    /// Optimizer phase duration including any offload penalty (seconds).
    pub optimizer_span_s: f64,
}

/// The walked timeline of one (model, plan) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineReport {
    /// Model name.
    pub model: String,
    /// The plan that was walked.
    pub plan: MemPlan,
    /// Per-rank summaries, rank order.
    pub ranks: Vec<RankTimeline>,
    /// Peak total across ranks (GB).
    pub peak_gb: f64,
    /// Rank holding the peak.
    pub peak_rank: usize,
    /// Schedule makespan before the optimizer (seconds).
    pub compute_time_s: f64,
    /// Full step time: makespan + optimizer + offload penalty (seconds).
    pub step_time_s: f64,
    /// Largest per-rank offload penalty (seconds; zero without offload).
    pub offload_penalty_s: f64,
    /// Recomputed fraction of forward work (stretches backward by ρ·f).
    pub recompute_overhead_frac: f64,
    /// Chunk events walked.
    pub chunk_events: usize,
}

impl TimelineReport {
    /// Whether the peak rank fits the GPU.
    #[must_use]
    pub fn fits(&self, spec: &GpuSpec) -> bool {
        self.peak_gb <= spec.budget_gb()
    }
}

/// Integer per-microbatch byte quanta of one stage (exact accounting).
#[derive(Debug, Clone, Copy, Default)]
struct StageBytes {
    /// Stash per microbatch (stored × tokens).
    stash: i64,
    /// Portion of the stash retained until the W chunk.
    wgrad: i64,
    /// One-layer recompute buffer during backward.
    rc_ws: i64,
    /// One-layer weight gather during F/B chunks (ZeRO-3).
    z3_ws: i64,
    /// One-layer full gradient during the weight-grad work (ZeRO-2/3).
    z2_ws: i64,
}

fn stage_bytes(sf: &StageFootprint, plan: &MemPlan) -> StageBytes {
    let tokens = plan.tokens_per_micro as f64;
    let z3 = matches!(plan.zero_stage, ZeroStage::Z3);
    let z2 = matches!(plan.zero_stage, ZeroStage::Z2 | ZeroStage::Z3);
    StageBytes {
        stash: (sf.stored_bytes_per_token * tokens).round() as i64,
        wgrad: (sf.wgrad_bytes_per_token.min(sf.stored_bytes_per_token) * tokens).round() as i64,
        rc_ws: (sf.dropped_max_layer_bytes * tokens).round() as i64,
        z3_ws: if z3 { (sf.max_layer_params * plan.weight_bytes).round() as i64 } else { 0 },
        z2_ws: if z2 { (sf.max_layer_params * plan.grad_bytes).round() as i64 } else { 0 },
    }
}

/// One state change: at `t`, rank `rank` gains/loses bytes. Frees sort
/// before allocations at equal timestamps so instantaneous handoffs do not
/// register phantom peaks.
struct Delta {
    t: f64,
    rank: usize,
    /// 0 = free, 1 = alloc.
    pri: u8,
    act: i64,
    ws: i64,
}

/// Walk the timeline of `plan` applied to `cfg`.
///
/// # Panics
///
/// Panics if the plan is invalid for the schedule (see
/// [`MemPlan::is_valid`]) or the model has fewer layers than stages need.
#[must_use]
pub fn simulate(cfg: &ModelConfig, plan: &MemPlan) -> TimelineReport {
    simulate_traced(cfg, plan, &mut Recorder::disabled())
}

/// [`simulate`], additionally exporting the timeline to `rec`: one trace
/// process per rank with chunk spans (`fwd`/`bwd`/`wgrad` threads) and
/// `act_gb`/`ws_gb`/`total_gb` counter tracks, plus aggregate metrics.
/// With a disabled recorder this is byte-identical to [`simulate`].
#[must_use]
#[allow(clippy::too_many_lines)]
// lint:entry — memtl schedule walker (training memory timeline).
pub fn simulate_traced(cfg: &ModelConfig, plan: &MemPlan, rec: &mut Recorder) -> TimelineReport {
    assert!(plan.is_valid(), "invalid memory plan");
    assert!(cfg.layers >= 1, "model needs at least one layer");
    let pp = plan.pp;
    let dp = plan.zero_dp as f64;

    // Per-stage footprints and byte quanta.
    let stages: Vec<StageFootprint> = (0..pp).map(|s| stage_footprint(cfg, plan, s)).collect();
    let quanta: Vec<StageBytes> = stages.iter().map(|sf| stage_bytes(sf, plan)).collect();

    // Recompute overhead ρ: recomputed fraction of forward work, weighted
    // across the whole model.
    let full_total: f64 = stages.iter().map(|s| s.full_bytes_per_token).sum();
    let stored_total: f64 = stages.iter().map(|s| s.stored_bytes_per_token).sum();
    let rho = if full_total > 0.0 { (full_total - stored_total) / full_total } else { 0.0 };
    let times = ChunkTimes { b: plan.times.b + rho * plan.times.f, ..plan.times };

    // Schedule the chunks.
    let (outcome, events) = match plan.schedule {
        ScheduleKind::OneFOneB => one_f_one_b_events(pp, plan.microbatches, times),
        ScheduleKind::DualPipe => dualpipe_events(pp, plan.microbatches, times, true),
    };
    let stage_for = |e: &ChunkEvent| -> usize {
        match plan.schedule {
            ScheduleKind::OneFOneB => e.rank,
            ScheduleKind::DualPipe => stage_of_global(pp, e.rank, e.micro, plan.microbatches),
        }
    };
    // Under 1F1B the weight-gradient work runs inside B, so the stash is
    // freed whole at B end; under DualPipe the W chunk frees the retained
    // operands.
    let folded_w = matches!(plan.schedule, ScheduleKind::OneFOneB);

    // Persistent floor per rank.
    let held_stages: Vec<Vec<usize>> = (0..pp)
        .map(|r| match plan.schedule {
            ScheduleKind::OneFOneB => vec![r],
            ScheduleKind::DualPipe => {
                let mirror = pp - 1 - r;
                if mirror == r {
                    vec![r]
                } else {
                    vec![r, mirror]
                }
            }
        })
        .collect();
    let rank_params: Vec<f64> =
        held_stages.iter().map(|ss| ss.iter().map(|&s| stages[s].params).sum()).collect();
    let weights_b: Vec<f64> = rank_params
        .iter()
        .map(|p| {
            let shard = if matches!(plan.zero_stage, ZeroStage::Z3) { dp } else { 1.0 };
            p * plan.weight_bytes / shard
        })
        .collect();
    let grads_b: Vec<f64> = rank_params
        .iter()
        .map(|p| {
            let shard =
                if matches!(plan.zero_stage, ZeroStage::Z2 | ZeroStage::Z3) { dp } else { 1.0 };
            p * plan.grad_bytes / shard
        })
        .collect();
    let opt_b: Vec<f64> = rank_params
        .iter()
        .map(|p| match plan.offload {
            Offload::OptimizerCpu { .. } => 0.0,
            Offload::None => p * plan.optimizer_bytes / dp,
        })
        .collect();

    // Expand chunks into deltas.
    let mut deltas: Vec<Delta> = Vec::with_capacity(events.len() * 3);
    for e in &events {
        let s = stage_for(e);
        let q = quanta[s];
        match e.kind {
            ChunkKind::Forward => {
                if q.z3_ws > 0 {
                    deltas.push(Delta { t: e.start, rank: e.rank, pri: 1, act: 0, ws: q.z3_ws });
                    deltas.push(Delta { t: e.end, rank: e.rank, pri: 0, act: 0, ws: -q.z3_ws });
                }
                deltas.push(Delta { t: e.end, rank: e.rank, pri: 1, act: q.stash, ws: 0 });
            }
            ChunkKind::Backward => {
                // Recompute buffer + ZeRO-3 gather (+ the ZeRO-2 full
                // gradient when W is folded in).
                let ws = q.rc_ws + q.z3_ws + if folded_w { q.z2_ws } else { 0 };
                if ws > 0 {
                    deltas.push(Delta { t: e.start, rank: e.rank, pri: 1, act: 0, ws });
                    deltas.push(Delta { t: e.end, rank: e.rank, pri: 0, act: 0, ws: -ws });
                }
                let freed = if folded_w { q.stash } else { q.stash - q.wgrad };
                deltas.push(Delta { t: e.end, rank: e.rank, pri: 0, act: -freed, ws: 0 });
            }
            ChunkKind::WeightGrad => {
                if q.z2_ws > 0 {
                    deltas.push(Delta { t: e.start, rank: e.rank, pri: 1, act: 0, ws: q.z2_ws });
                    deltas.push(Delta { t: e.end, rank: e.rank, pri: 0, act: 0, ws: -q.z2_ws });
                }
                deltas.push(Delta { t: e.end, rank: e.rank, pri: 0, act: -q.wgrad, ws: 0 });
            }
        }
    }
    // Stable sort: schedule order is already deterministic, so equal keys
    // keep their insertion order.
    deltas.sort_by(|a, b| {
        a.t.total_cmp(&b.t).then_with(|| a.pri.cmp(&b.pri)).then_with(|| a.rank.cmp(&b.rank))
    });

    // Trace plumbing (labels only formatted when recording).
    let mut pids = vec![0u64; pp];
    if rec.is_enabled() {
        for (r, slot) in pids.iter_mut().enumerate() {
            let pid = rec.process(&format!("rank{r:02}"));
            *slot = pid;
            // Register thread tracks in a fixed order per rank.
            for label in ["fwd", "bwd", "wgrad"] {
                rec.thread(pid, label);
            }
        }
        for e in &events {
            let pid = pids[e.rank];
            let (tid, label) = match e.kind {
                ChunkKind::Forward => (rec.thread(pid, "fwd"), "F"),
                ChunkKind::Backward => (rec.thread(pid, "bwd"), "B"),
                ChunkKind::WeightGrad => (rec.thread(pid, "wgrad"), "W"),
            };
            rec.span(
                pid,
                tid,
                "chunk",
                &format!("{label} m{}", e.micro),
                e.start * 1e6,
                e.end * 1e6,
            );
        }
    }

    // Walk.
    let mut act = vec![0i64; pp];
    let mut ws = vec![0i64; pp];
    let mut peak_total = vec![f64::NEG_INFINITY; pp];
    let mut peak_act = vec![0i64; pp];
    let mut peak_ws = vec![0i64; pp];
    let mut peak_t = vec![0f64; pp];
    let floors: Vec<f64> = (0..pp).map(|r| (weights_b[r] + grads_b[r] + opt_b[r]) / 1e9).collect();
    for r in 0..pp {
        // The floor itself is the initial peak (and the whole story for a
        // rank that never stashes).
        peak_total[r] = floors[r];
        if rec.is_enabled() {
            rec.counter_sample(pids[r], "floor_gb", 0.0, floors[r]);
        }
    }
    for d in &deltas {
        let r = d.rank;
        act[r] += d.act;
        ws[r] += d.ws;
        let total = floors[r] + (act[r] + ws[r]) as f64 / 1e9;
        if total > peak_total[r] {
            peak_total[r] = total;
            peak_t[r] = d.t;
        }
        peak_act[r] = peak_act[r].max(act[r]);
        peak_ws[r] = peak_ws[r].max(ws[r]);
        if rec.is_enabled() {
            rec.counter_sample(pids[r], "act_gb", d.t * 1e6, act[r] as f64 / 1e9);
            rec.counter_sample(pids[r], "ws_gb", d.t * 1e6, ws[r] as f64 / 1e9);
            rec.counter_sample(pids[r], "total_gb", d.t * 1e6, total);
        }
    }

    // Optimizer phase.
    let mut last_end = vec![0f64; pp];
    for e in &events {
        last_end[e.rank] = last_end[e.rank].max(e.end);
    }
    let penalty: Vec<f64> = rank_params
        .iter()
        .map(|p| match plan.offload {
            Offload::OptimizerCpu { pcie_gbps } => {
                assert!(pcie_gbps > 0.0, "offload needs positive PCIe bandwidth");
                // Gradient shard down, updated weight shard back up.
                p / dp * (plan.grad_bytes + plan.weight_bytes) / (pcie_gbps * 1e9)
            }
            Offload::None => 0.0,
        })
        .collect();
    let mut step_time = 0f64;
    let mut ranks = Vec::with_capacity(pp);
    for r in 0..pp {
        let span = plan.optimizer_seconds + penalty[r];
        let opt_end = last_end[r] + span;
        step_time = step_time.max(opt_end);
        if rec.is_enabled() {
            let pid = pids[r];
            let tid = rec.thread(pid, "bwd");
            rec.span(pid, tid, "opt", "optimizer", last_end[r] * 1e6, opt_end * 1e6);
            rec.observe("memtl.rank_peak_gb", peak_total[r]);
        }
        ranks.push(RankTimeline {
            rank: r,
            weights_gb: weights_b[r] / 1e9,
            grads_gb: grads_b[r] / 1e9,
            optimizer_gb: opt_b[r] / 1e9,
            floor_gb: floors[r],
            peak_gb: peak_total[r],
            peak_activation_gb: peak_act[r] as f64 / 1e9,
            peak_workspace_gb: peak_ws[r] as f64 / 1e9,
            peak_time_s: peak_t[r],
            end_activation_bytes: act[r] + ws[r],
            optimizer_span_s: span,
        });
    }
    let (peak_rank, peak_gb) = ranks
        .iter()
        .map(|r| (r.rank, r.peak_gb))
        .fold((0, f64::NEG_INFINITY), |best, cur| if cur.1 > best.1 { cur } else { best });
    let max_penalty = penalty.iter().copied().fold(0.0f64, f64::max);
    if rec.is_enabled() {
        rec.counter_add("memtl.chunks", events.len() as u64);
        rec.gauge_set("memtl.peak_gb", peak_gb);
        rec.gauge_set("memtl.step_time_s", step_time);
    }
    TimelineReport {
        model: cfg.name.clone(),
        plan: *plan,
        ranks,
        peak_gb,
        peak_rank,
        compute_time_s: outcome.total_time,
        step_time_s: step_time,
        offload_penalty_s: max_penalty,
        recompute_overhead_frac: rho,
        chunk_events: events.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{MemPlan, Offload, Recompute, ScheduleKind, ZeroStage};
    use dsv3_model::zoo;

    fn small_plan() -> MemPlan {
        MemPlan { pp: 4, zero_dp: 8, microbatches: 8, ..MemPlan::deepseek_v3_production() }
    }

    #[test]
    fn production_plan_fits_but_naive_does_not() {
        // The acceptance headline: selective recomputation + DualPipe
        // keeps the peak under an H800's budget; switching off
        // recomputation blows through it.
        let cfg = zoo::deepseek_v3();
        let spec = crate::plan::GpuSpec::h800();
        let prod = simulate(&cfg, &MemPlan::deepseek_v3_production());
        assert!(prod.fits(&spec), "production peak {} GB", prod.peak_gb);
        assert!(prod.peak_gb > 25.0, "not trivially empty: {}", prod.peak_gb);
        // Exact walker work at the production plan, as BENCH_memtl.json
        // reports it: a change in chunk events is a change in the walk.
        assert_eq!(prod.chunk_events, 5_760);
        let one_f_one_b =
            MemPlan { schedule: ScheduleKind::OneFOneB, ..MemPlan::deepseek_v3_production() };
        assert_eq!(simulate(&cfg, &one_f_one_b).chunk_events, 3_840);
        let naive = simulate(&cfg, &MemPlan::naive());
        assert!(!naive.fits(&spec), "naive peak {} GB should exceed 70", naive.peak_gb);
    }

    #[test]
    fn timeline_drains_to_zero() {
        let cfg = zoo::deepseek_v3();
        for schedule in [ScheduleKind::OneFOneB, ScheduleKind::DualPipe] {
            for zero in [ZeroStage::Z1, ZeroStage::Z2, ZeroStage::Z3] {
                let plan = MemPlan { schedule, zero_stage: zero, ..small_plan() };
                let r = simulate(&cfg, &plan);
                for rank in &r.ranks {
                    assert_eq!(rank.end_activation_bytes, 0, "{schedule:?} {zero:?}");
                }
            }
        }
    }

    #[test]
    fn recompute_cuts_peak_and_stretches_backward() {
        let cfg = zoo::deepseek_v3();
        let none = simulate(&cfg, &MemPlan { recompute: Recompute::None, ..small_plan() });
        let sel = simulate(&cfg, &MemPlan { recompute: Recompute::Selective, ..small_plan() });
        let full = simulate(&cfg, &MemPlan { recompute: Recompute::Full, ..small_plan() });
        assert!(none.peak_gb > sel.peak_gb && sel.peak_gb > full.peak_gb);
        assert!(none.recompute_overhead_frac.abs() < 1e-12);
        assert!(full.recompute_overhead_frac > sel.recompute_overhead_frac);
        assert!(full.compute_time_s > sel.compute_time_s);
        assert!(sel.compute_time_s > none.compute_time_s);
    }

    #[test]
    fn zero3_shrinks_the_floor() {
        let cfg = zoo::deepseek_v3();
        let z1 = simulate(&cfg, &MemPlan { zero_stage: ZeroStage::Z1, ..small_plan() });
        let z2 = simulate(&cfg, &MemPlan { zero_stage: ZeroStage::Z2, ..small_plan() });
        let z3 = simulate(&cfg, &MemPlan { zero_stage: ZeroStage::Z3, ..small_plan() });
        let floor = |r: &TimelineReport| r.ranks[0].floor_gb;
        assert!(floor(&z1) > floor(&z2));
        assert!(floor(&z2) > floor(&z3));
    }

    #[test]
    fn offload_empties_hbm_optimizer_and_costs_step_time() {
        let cfg = zoo::deepseek_v3();
        let base = simulate(&cfg, &small_plan());
        let off = simulate(
            &cfg,
            &MemPlan { offload: Offload::OptimizerCpu { pcie_gbps: 25.0 }, ..small_plan() },
        );
        assert!(off.ranks[0].optimizer_gb.abs() < 1e-12);
        assert!(base.ranks[0].optimizer_gb > 0.0);
        assert!(off.offload_penalty_s > 0.0);
        assert!(off.step_time_s > base.step_time_s);
        // Sanity of the PCIe model: shard bytes / bandwidth.
        let halved = simulate(
            &cfg,
            &MemPlan { offload: Offload::OptimizerCpu { pcie_gbps: 12.5 }, ..small_plan() },
        );
        assert!((halved.offload_penalty_s / off.offload_penalty_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dualpipe_doubles_resident_weights() {
        let cfg = zoo::deepseek_v3();
        let one = simulate(&cfg, &MemPlan { schedule: ScheduleKind::OneFOneB, ..small_plan() });
        let dual = simulate(&cfg, &MemPlan { schedule: ScheduleKind::DualPipe, ..small_plan() });
        // Rank 0 holds stages 0 and pp−1 under DualPipe.
        let w1 = one.ranks[0].weights_gb;
        let w2 = dual.ranks[0].weights_gb;
        assert!(w2 > 1.5 * w1, "{w2} vs {w1}");
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let cfg = zoo::deepseek_v3();
        let plan = small_plan();
        let plain = simulate(&cfg, &plan);
        let mut rec = Recorder::new();
        let traced = simulate_traced(&cfg, &plan, &mut rec);
        assert_eq!(plain, traced);
        assert!(!rec.events().is_empty());
        assert!(rec.counters()["memtl.chunks"] > 0);
        // And the trace is valid Chrome JSON.
        let json = rec.export_trace().to_json();
        let stats = dsv3_telemetry::validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.spans > 0 && stats.counters > 0);
    }

    #[test]
    fn mla_vs_mha_peak_contrast() {
        // Same geometry, MHA heads instead of latent attention: the
        // no-recompute stash is larger because full K/V rows are stashed
        // per head (and there is no latent to re-expand from cheaply).
        let v3 = zoo::deepseek_v3();
        let mut mha = v3.clone();
        mha.attention = dsv3_model::attention::Attention::Mha { heads: 128, head_dim: 128 };
        mha.name = "V3-geometry MHA".into();
        let plan = MemPlan { recompute: Recompute::None, ..small_plan() };
        let a = simulate(&v3, &plan);
        let b = simulate(&mha, &plan);
        assert!(b.peak_gb > 0.0 && a.peak_gb > 0.0);
        // MLA's qk=192 expansions actually stash *more* than MHA's 128 under
        // no recompute; the latent path wins once selective recompute drops
        // the expansions. Pin the selective ordering.
        let sel = MemPlan { recompute: Recompute::Selective, ..small_plan() };
        let asel = simulate(&v3, &sel);
        let bsel = simulate(&mha, &sel);
        let act = |r: &TimelineReport| r.ranks[0].peak_activation_gb;
        assert!(act(&asel) < act(&a), "selective must cut V3's stash");
        assert!(act(&bsel) < act(&b));
    }
}
