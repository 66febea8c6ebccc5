//! §2.4: FP8 vs BF16 training accuracy at laptop scale.

use crate::report::{fmt, Table};
use dsv3_model::train::{gradient_probe, relative_loss_gap, train, Precision, TrainConfig};
use serde::{Deserialize, Serialize};

/// One backend's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Backend label.
    pub precision: String,
    /// Final eval loss.
    pub final_loss: f64,
    /// Relative gap vs the BF16 run.
    pub gap_vs_bf16: f64,
    /// Gradient fidelity under activation outliers (relative error of
    /// ∂L/∂W₁ vs f32; lower is better).
    pub gradient_error: f64,
}

/// Train all four backends on the same task.
#[must_use]
pub fn run(cfg: TrainConfig) -> Vec<Row> {
    let backends = [
        ("F32", Precision::F32),
        ("BF16", Precision::Bf16),
        ("FP8 fine-grained", Precision::Fp8Fine),
        ("FP8 per-tensor", Precision::Fp8Coarse),
    ];
    let reports: Vec<_> = backends.iter().map(|(_, p)| train(*p, cfg)).collect();
    let bf16 = reports[1].clone();
    backends
        .iter()
        .zip(&reports)
        .map(|((name, p), r)| Row {
            precision: (*name).to_string(),
            final_loss: r.final_loss,
            gap_vs_bf16: relative_loss_gap(&bf16, r),
            gradient_error: gradient_probe(*p, 1e5, 11),
        })
        .collect()
}

/// Render with the default config.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§2.4: training-accuracy comparison across precision backends",
        &["Backend", "final loss", "gap vs BF16", "grad err (outliers)"],
    );
    for r in rows {
        t.row(&[
            r.precision.clone(),
            fmt(r.final_loss, 4),
            format!("{:+.2}%", r.gap_vs_bf16 * 100.0),
            format!("{:.3}", r.gradient_error),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_fp8_tracks_bf16_and_coarse_gradients_break() {
        let rows = run(TrainConfig { steps: 150, ..TrainConfig::default() });
        let by = |n: &str| rows.iter().find(|r| r.precision.contains(n)).unwrap();
        assert!(by("fine").gap_vs_bf16.abs() < 0.15, "{}", by("fine").gap_vs_bf16);
        assert!(
            by("per-tensor").gradient_error > 2.0 * by("fine").gradient_error,
            "{} vs {}",
            by("per-tensor").gradient_error,
            by("fine").gradient_error
        );
    }
}
