//! The Table 4 harness: training metrics of DeepSeek-V3 on 2,048 GPUs.
//!
//! Table 4 decomposes one training step into warmup forward (1F), the steady
//! 1F1B phase, the drain backward (1B), weight-gradient tail (1W), pipeline
//! bubble, and the optimizer step, and reports throughput (tokens/day) and
//! MFU for the MPFT and MRFT fabrics. This harness rebuilds those metrics
//! from the FLOPs model plus the measured chunk-shape ratios; the fabric
//! enters through a communication-efficiency factor, which is ≈1 for both
//! MPFT and MRFT (the parity Figures 5–6 establish).

use crate::mfu::{achieved_tflops, mfu, AttnConvention};
use crate::schedule::{analytic_step_time, bubble_dualpipe, ChunkTimes};
use dsv3_model::config::ModelConfig;
use dsv3_model::zoo;
use serde::{Deserialize, Serialize};

/// Configuration of a production training step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainStepConfig {
    /// Model being trained.
    pub model: ModelConfig,
    /// Sequence length.
    pub seq: usize,
    /// Global batch in tokens per step (V3: 15360 sequences × 4096).
    pub tokens_per_step: f64,
    /// GPUs in the cluster.
    pub gpus: usize,
    /// Pipeline stages (V3: 16).
    pub pp: usize,
    /// Microbatches per step per pipeline.
    pub microbatches: usize,
    /// BF16 dense peak TFLOPS per GPU.
    pub peak_tflops: f64,
    /// Fraction of peak the compute kernels sustain while running
    /// (calibrated so the end-to-end MFU matches the measured 39%).
    pub kernel_efficiency: f64,
    /// Relative time shares of F : B : W chunks (Table 4 measures
    /// 1.13 : 1.99 : 0.48 — W is cheap because EP communication overlaps
    /// into F and B under DualPipe).
    pub fbw_ratio: (f64, f64, f64),
    /// Optimizer step seconds (measured 0.29–0.31).
    pub optimizer_seconds: f64,
    /// Fabric communication efficiency multiplier on chunk times (1.0 =
    /// perfect; MPFT and MRFT both sit at ≈1.0).
    pub comm_efficiency: f64,
}

impl TrainStepConfig {
    /// DeepSeek-V3's production configuration.
    #[must_use]
    pub fn deepseek_v3(comm_efficiency: f64) -> Self {
        Self {
            model: zoo::deepseek_v3(),
            seq: 4096,
            tokens_per_step: 15_360.0 * 4096.0,
            gpus: 2048,
            pp: 16,
            microbatches: 120,
            peak_tflops: 989.5,
            kernel_efficiency: 0.413,
            fbw_ratio: (1.13, 1.99, 0.48),
            optimizer_seconds: 0.29,
            comm_efficiency,
        }
    }
}

/// Table 4 metrics for one fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Metrics {
    /// Fabric label.
    pub fabric: String,
    /// Billions of tokens per day.
    pub tokens_per_day_b: f64,
    /// Seconds per step.
    pub time_per_step_s: f64,
    /// Warmup forward (s).
    pub f1_s: f64,
    /// Pipeline bubble (s).
    pub bubble_s: f64,
    /// Drain backward (s).
    pub b1_s: f64,
    /// Weight-gradient tail (s).
    pub w1_s: f64,
    /// Steady 1F1B phase (s).
    pub f1b1_s: f64,
    /// Optimizer (s).
    pub opt_s: f64,
    /// Achieved non-causal TFLOPS per GPU.
    pub tflops_noncausal: f64,
    /// Achieved causal TFLOPS per GPU.
    pub tflops_causal: f64,
    /// Non-causal MFU.
    pub mfu_noncausal: f64,
    /// Causal MFU.
    pub mfu_causal: f64,
}

/// Per-microbatch chunk times implied by `cfg`: the per-GPU compute seconds
/// at kernel efficiency, split by the measured F:B:W shape. This is the raw
/// material of the Table 4 decomposition, exposed so other simulators (e.g.
/// the memory timeline) can schedule the same chunks.
///
/// # Panics
///
/// Panics on degenerate configs (zero sizes, non-positive efficiency).
#[must_use]
pub fn chunk_times(cfg: &TrainStepConfig) -> ChunkTimes {
    assert!(cfg.gpus > 0 && cfg.pp > 0 && cfg.microbatches > 0, "degenerate cluster");
    assert!(cfg.kernel_efficiency > 0.0 && cfg.comm_efficiency > 0.0, "bad efficiency");
    // Total compute time per step if every GPU ran its causal-FLOPs share at
    // kernel efficiency.
    let total_flops = crate::mfu::flops_per_token(&cfg.model, cfg.seq, AttnConvention::Causal)
        * cfg.tokens_per_step;
    let per_gpu_seconds = total_flops
        / cfg.gpus as f64
        / (cfg.peak_tflops * 1e12 * cfg.kernel_efficiency * cfg.comm_efficiency);
    // Split into per-microbatch chunks by the measured F:B:W shape.
    let (rf, rb, rw) = cfg.fbw_ratio;
    let rsum = rf + rb + rw;
    let m = cfg.microbatches as f64;
    ChunkTimes {
        f: per_gpu_seconds * rf / rsum / m,
        b: per_gpu_seconds * rb / rsum / m,
        w: per_gpu_seconds * rw / rsum / m,
    }
}

/// Compute Table 4 metrics for `cfg`.
///
/// ```
/// use dsv3_parallel::trainstep::{table4, TrainStepConfig};
///
/// let m = table4("MPFT", &TrainStepConfig::deepseek_v3(1.0));
/// assert!((m.mfu_causal - 0.39).abs() < 0.02);
/// ```
///
/// # Panics
///
/// Panics on degenerate configs (zero sizes, non-positive efficiency).
#[must_use]
pub fn table4(fabric: &str, cfg: &TrainStepConfig) -> Table4Metrics {
    let times = chunk_times(cfg);
    let bubble = bubble_dualpipe(cfg.pp, times, 1.0);
    let pipeline_s = analytic_step_time(cfg.microbatches, times, bubble);
    let step_s = pipeline_s + cfg.optimizer_seconds;
    // Table 4's 1F / 1B / 1W rows: the warmup/drain phases, i.e. one
    // pipeline-depth worth of chunks.
    let f1 = times.f * (cfg.pp as f64 - 1.0);
    let b1 = times.b * (cfg.pp as f64 - 1.0);
    let w1 = times.w * (cfg.pp as f64 - 1.0);
    let f1b1 = pipeline_s - bubble - f1 - b1 - w1;
    let tokens_per_day = cfg.tokens_per_step * (86_400.0 / step_s);
    Table4Metrics {
        fabric: fabric.to_string(),
        tokens_per_day_b: tokens_per_day / 1e9,
        time_per_step_s: step_s,
        f1_s: f1,
        bubble_s: bubble,
        b1_s: b1,
        w1_s: w1,
        f1b1_s: f1b1,
        opt_s: cfg.optimizer_seconds,
        tflops_noncausal: achieved_tflops(
            &cfg.model,
            cfg.seq,
            AttnConvention::NonCausal,
            cfg.tokens_per_step,
            step_s,
            cfg.gpus,
        ),
        tflops_causal: achieved_tflops(
            &cfg.model,
            cfg.seq,
            AttnConvention::Causal,
            cfg.tokens_per_step,
            step_s,
            cfg.gpus,
        ),
        mfu_noncausal: mfu(
            &cfg.model,
            cfg.seq,
            AttnConvention::NonCausal,
            cfg.tokens_per_step,
            step_s,
            cfg.gpus,
            cfg.peak_tflops,
        ),
        mfu_causal: mfu(
            &cfg.model,
            cfg.seq,
            AttnConvention::Causal,
            cfg.tokens_per_step,
            step_s,
            cfg.gpus,
            cfg.peak_tflops,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper_shape() {
        let m = table4("MPFT", &TrainStepConfig::deepseek_v3(1.0));
        // Paper: 272.80 B tokens/day, 19.926 s/step, MFU 43.73% / 38.94%.
        assert!((m.time_per_step_s - 19.926).abs() < 1.0, "step {}", m.time_per_step_s);
        assert!((m.tokens_per_day_b - 272.8).abs() < 15.0, "tokens/day {}", m.tokens_per_day_b);
        assert!((m.mfu_causal - 0.3894).abs() < 0.02, "causal mfu {}", m.mfu_causal);
        assert!((m.mfu_noncausal - 0.4373).abs() < 0.02, "noncausal mfu {}", m.mfu_noncausal);
        assert!((m.tflops_causal - 385.0).abs() < 20.0, "causal tflops {}", m.tflops_causal);
        assert!((m.tflops_noncausal - 432.0).abs() < 22.0, "{}", m.tflops_noncausal);
    }

    #[test]
    fn mpft_equals_mrft() {
        let a = table4("MPFT", &TrainStepConfig::deepseek_v3(1.0));
        let b = table4("MRFT", &TrainStepConfig::deepseek_v3(1.0));
        assert!((a.time_per_step_s - b.time_per_step_s).abs() < 1e-12);
    }

    #[test]
    fn step_decomposition_sums() {
        let m = table4("MPFT", &TrainStepConfig::deepseek_v3(1.0));
        let sum = m.f1_s + m.b1_s + m.w1_s + m.f1b1_s + m.bubble_s + m.opt_s;
        assert!((sum - m.time_per_step_s).abs() < 1e-9);
        assert!(m.bubble_s > 0.0 && m.bubble_s < 4.0, "bubble {}", m.bubble_s);
    }

    #[test]
    fn worse_comm_slows_training() {
        let good = table4("x", &TrainStepConfig::deepseek_v3(1.0));
        let bad = table4("y", &TrainStepConfig::deepseek_v3(0.8));
        assert!(bad.time_per_step_s > good.time_per_step_s);
        assert!(bad.mfu_causal < good.mfu_causal);
    }
}
