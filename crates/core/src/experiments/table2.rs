//! Table 2: training compute cost per token (seq 4096).

use crate::report::{fmt, Table};
use dsv3_model::flops::training_gflops_per_token;
use dsv3_model::zoo;
use serde::{Deserialize, Serialize};

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Model label.
    pub model: String,
    /// Total parameters, billions.
    pub size_b: f64,
    /// Training GFLOPs per token.
    pub gflops_per_token: f64,
}

/// Compute the table.
#[must_use]
pub fn run() -> Vec<Row> {
    zoo::table_models()
        .into_iter()
        .map(|cfg| Row {
            size_b: dsv3_model::flops::param_counts(&cfg).total as f64 / 1e9,
            gflops_per_token: training_gflops_per_token(&cfg, 4096),
            model: cfg.name,
        })
        .collect()
}

/// Render like the paper.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table 2: training cost per token (seq 4096)",
        &["Model", "Size", "Training Cost"],
    );
    for r in rows {
        t.row(&[
            r.model.clone(),
            format!("{}B", fmt(r.size_b, 0)),
            format!("{} GFLOPS/Token", fmt(r.gflops_per_token, 0)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moe_vs_dense_shape() {
        let rows = run();
        let by = |n: &str| rows.iter().find(|r| r.model.contains(n)).unwrap().gflops_per_token;
        let v3 = by("V3");
        assert!((v3 - 250.0).abs() / 250.0 < 0.05);
        assert!((by("V2") - 155.0).abs() / 155.0 < 0.05);
        assert!(by("LLaMA") / v3 > 9.0);
        assert!(by("Qwen") > v3);
    }
}
