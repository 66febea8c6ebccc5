//! Table 4: training metrics, MPFT vs MRFT.
//!
//! The fabric enters through the communication-efficiency factor; Figures
//! 5–6 establish MPFT ≈ MRFT, so both columns use efficiency 1.0 and the
//! remaining differences in the paper are run-to-run noise.

use crate::report::{fmt, Table};
pub use dsv3_parallel::trainstep::Table4Metrics as Metrics;
use dsv3_parallel::trainstep::{table4, TrainStepConfig};

/// Compute both columns.
#[must_use]
pub fn run() -> (Metrics, Metrics) {
    (
        table4("MPFT", &TrainStepConfig::deepseek_v3(1.0)),
        table4("MRFT", &TrainStepConfig::deepseek_v3(1.0)),
    )
}

/// Render like the paper.
#[must_use]
pub fn render((a, b): &(Metrics, Metrics)) -> Table {
    let mut t = Table::new("Table 4: training metrics, MPFT vs MRFT", &["Metric", "MPFT", "MRFT"]);
    let mut push = |name: &str, x: f64, y: f64, d: usize| {
        t.row(&[name.to_string(), fmt(x, d), fmt(y, d)]);
    };
    push("tokens/day (B)", a.tokens_per_day_b, b.tokens_per_day_b, 2);
    push("time/step (s)", a.time_per_step_s, b.time_per_step_s, 3);
    push("1F (s)", a.f1_s, b.f1_s, 2);
    push("bubble (s)", a.bubble_s, b.bubble_s, 2);
    push("1B (s)", a.b1_s, b.b1_s, 2);
    push("1W (s)", a.w1_s, b.w1_s, 2);
    push("1F1B (s)", a.f1b1_s, b.f1b1_s, 2);
    push("opt (s)", a.opt_s, b.opt_s, 2);
    push("TFLOPS (non-causal)", a.tflops_noncausal, b.tflops_noncausal, 0);
    push("TFLOPS (causal)", a.tflops_causal, b.tflops_causal, 0);
    push("MFU (non-causal) %", a.mfu_noncausal * 100.0, b.mfu_noncausal * 100.0, 2);
    push("MFU (causal) %", a.mfu_causal * 100.0, b.mfu_causal * 100.0, 2);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabrics_tie() {
        let (a, b) = run();
        assert_eq!(a.time_per_step_s, b.time_per_step_s);
        assert!((a.mfu_causal - 0.3894).abs() < 0.02);
    }
}
