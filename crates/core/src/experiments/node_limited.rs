//! §4.3: node-limited routing — IB traffic scales with M, not top-k.

use crate::report::{fmt, Table};
use dsv3_model::moe::{route, MoeGateConfig, RoutingTally};
use dsv3_numerics::Matrix;
use serde::{Deserialize, Serialize};

/// One node-limit setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Maximum nodes (groups) per token.
    pub max_nodes: usize,
    /// Observed mean nodes touched.
    pub mean_nodes_touched: f64,
    /// Relative per-token IB time (`M·t`, normalized to the unrestricted
    /// top-k baseline of ~`top_k·t` with dedup off).
    pub ib_time_vs_no_dedup: f64,
    /// Observed expert-load imbalance (max/ideal).
    pub load_imbalance: f64,
}

/// Sweep the node limit on the V3 gate shape (256 experts / 8 groups /
/// top-8) with random sigmoid affinities. Each token's scores are drawn
/// once and routed under every limit.
#[must_use]
pub fn run(tokens: usize) -> Vec<Row> {
    let cfgs: Vec<MoeGateConfig> = (1..=8usize)
        .map(|m| MoeGateConfig { experts: 256, groups: 8, top_groups: m, top_k: 8 })
        .collect();
    let mut tallies: Vec<RoutingTally> = cfgs.iter().map(RoutingTally::new).collect();
    for i in 0..tokens {
        let scores: Vec<f32> = Matrix::random(1, 256, 1.0, 5000 + i as u64)
            .data
            .iter()
            .map(|v| 1.0 / (1.0 + (-v).exp()))
            .collect();
        for (cfg, tally) in cfgs.iter().zip(&mut tallies) {
            tally.add(&route(&scores, None, cfg));
        }
    }
    cfgs.iter()
        .zip(&tallies)
        .map(|(cfg, tally)| {
            let st = tally.stats();
            Row {
                max_nodes: cfg.top_groups,
                mean_nodes_touched: st.mean_nodes_touched,
                // Dedup sends one copy per touched node; without dedup each
                // of the top-8 experts costs one copy.
                ib_time_vs_no_dedup: st.mean_nodes_touched / 8.0,
                load_imbalance: st.load_imbalance,
            }
        })
        .collect()
}

/// Render.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§4.3: node-limited routing — deduplicated IB traffic",
        &["node limit M", "mean nodes touched", "IB time vs no-dedup", "load imbalance"],
    );
    for r in rows {
        t.row(&[
            r.max_nodes.to_string(),
            fmt(r.mean_nodes_touched, 2),
            format!("{}x", fmt(r.ib_time_vs_no_dedup, 2)),
            fmt(r.load_imbalance, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn traffic_scales_with_m() {
        let rows = super::run(500);
        for r in &rows {
            assert!(r.mean_nodes_touched <= r.max_nodes as f64 + 1e-9);
        }
        // V3's production point (M=4) halves IB traffic vs no dedup.
        let m4 = &rows[3];
        assert!(m4.ib_time_vs_no_dedup <= 0.5 + 1e-9, "{}", m4.ib_time_vs_no_dedup);
        // Monotone growth in traffic with the limit.
        for w in rows.windows(2) {
            assert!(w[1].mean_nodes_touched >= w[0].mean_nodes_touched - 0.05);
        }
    }
}
