//! §2.3.3: multi-token prediction speedup across acceptance rates.

use crate::report::{fmt, Table};
use dsv3_model::mtp::{expected_tokens_per_step, simulate, tps_speedup};
use serde::{Deserialize, Serialize};

/// One acceptance-rate point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Second-token acceptance rate.
    pub acceptance: f64,
    /// Analytic tokens per step.
    pub tokens_per_step: f64,
    /// Monte-Carlo tokens per step.
    pub simulated_tokens_per_step: f64,
    /// TPS speedup (2% verification overhead).
    pub speedup: f64,
}

/// Sweep the paper's 80–90% band (plus margins).
#[must_use]
pub fn run() -> Vec<Row> {
    [0.70, 0.80, 0.85, 0.90, 0.95]
        .into_iter()
        .map(|p| Row {
            acceptance: p,
            tokens_per_step: expected_tokens_per_step(p, 1),
            simulated_tokens_per_step: simulate(p, 1, 100_000, 42).tokens_per_step,
            speedup: tps_speedup(p, 1, 0.02),
        })
        .collect()
}

/// Render.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§2.3.3: MTP speculative decoding speedup (1 module)",
        &["acceptance", "tokens/step", "simulated", "TPS speedup"],
    );
    for r in rows {
        t.row(&[
            fmt(r.acceptance, 2),
            fmt(r.tokens_per_step, 3),
            fmt(r.simulated_tokens_per_step, 3),
            format!("{}x", fmt(r.speedup, 2)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_band_is_1_8x() {
        for r in super::run() {
            if (0.8..=0.9).contains(&r.acceptance) {
                assert!((1.7..2.0).contains(&r.speedup), "{}", r.speedup);
            }
            assert!((r.tokens_per_step - r.simulated_tokens_per_step).abs() < 0.02);
        }
    }
}
