//! §2.2.2: local deployment decode speed, MoE vs dense.

use crate::report::{fmt, Table};
use dsv3_inference::local::{dense_70b, LocalHardware};
use dsv3_model::zoo;
use serde::{Deserialize, Serialize};

/// One (hardware, model) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Hardware label.
    pub hardware: String,
    /// Model label.
    pub model: String,
    /// Activated parameters, billions.
    pub activated_b: f64,
    /// Single-request decode TPS.
    pub tps: f64,
}

/// Evaluate the paper's scenarios.
#[must_use]
pub fn run() -> Vec<Row> {
    let hw = [LocalHardware::ai_soc_pc(), LocalHardware::ktransformers_server()];
    let models = [zoo::deepseek_v2(), zoo::deepseek_v3(), dense_70b()];
    let mut out = Vec::new();
    for h in &hw {
        for m in &models {
            out.push(Row {
                hardware: h.name.clone(),
                model: m.name.clone(),
                activated_b: dsv3_model::flops::param_counts(m).activated as f64 / 1e9,
                tps: h.tps(m),
            });
        }
    }
    out
}

/// Render.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§2.2.2: single-request decode TPS on local hardware (Q4 weights)",
        &["Hardware", "Model", "activated (B)", "TPS"],
    );
    for r in rows {
        t.row(&[r.hardware.clone(), r.model.clone(), fmt(r.activated_b, 1), fmt(r.tps, 1)]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn moe_vs_dense_shape() {
        let rows = super::run();
        let tps = |h: &str, m: &str| {
            rows.iter().find(|r| r.hardware.contains(h) && r.model.contains(m)).unwrap().tps
        };
        assert!(tps("AI-SoC", "V2") > 15.0);
        assert!(tps("AI-SoC", "Dense-70B") < 10.0);
        assert!(tps("KTransformers", "V3") > 15.0);
    }
}
