//! §4.4/§4.5/§6: quantified payoffs of the paper's hardware suggestions.
//!
//! Each row takes one recommendation and reports the gain our models assign
//! to it on the H800 baseline: SM offload via scale-up/scale-out
//! convergence (§4.4), PCIe traffic prioritization (§4.5), hardware
//! memory-ordering (RAR, §6.4), in-network combine compression (§6.5), and
//! higher-precision accumulation (§3.1, from the GEMM experiment).

use crate::report::{fmt, Table};
use dsv3_collectives::innetwork::sm_offload_speedup;
use dsv3_inference::contention::{decode_step, IoContentionConfig};
use dsv3_netsim::ordering::{simulate, MessageGroup, OrderingMode};
use serde::{Deserialize, Serialize};

/// One recommendation's quantified payoff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Paper section.
    pub section: String,
    /// Recommendation.
    pub recommendation: String,
    /// Metric name.
    pub metric: String,
    /// Gain factor (≥ 1 = improvement).
    pub gain: f64,
}

/// Evaluate all recommendations.
#[must_use]
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    // §4.4: dedicated communication co-processor frees up to 20/132 SMs.
    rows.push(Row {
        section: "§4.4".into(),
        recommendation: "offload EP comm from SMs to a co-processor".into(),
        metric: "training compute throughput".into(),
        gain: sm_offload_speedup(132, 20),
    });
    // §4.5: PCIe traffic classes remove the KV-transfer-induced EP spike.
    let cfg = IoContentionConfig::h800_decode_step();
    let shared = decode_step(&cfg, false);
    let prio = decode_step(&cfg, true);
    rows.push(Row {
        section: "§4.5".into(),
        recommendation: "dynamic PCIe/NVLink traffic prioritization".into(),
        metric: "EP step time under KV-transfer bursts".into(),
        gain: shared.ep_time_us / prio.ep_time_us,
    });
    // §6.4: RAR removes one RTT of fence stall per notification.
    let groups = vec![MessageGroup { payload_us: 2.4, one_way_us: 3.7 }; 61];
    let fenced = simulate(&groups, OrderingMode::SenderFence);
    let rar = simulate(&groups, OrderingMode::RegionAcquireRelease);
    rows.push(Row {
        section: "§6.4".into(),
        recommendation: "hardware Region Acquire/Release ordering".into(),
        metric: "small-message notification stream time".into(),
        gain: fenced.total_us / rar.total_us,
    });
    // §6.5: native LogFMT-8 combine compression halves combine bytes.
    let base = dsv3_inference::tpot::SpeedLimitConfig::h800_ib().evaluate();
    let mut compressed = dsv3_inference::tpot::SpeedLimitConfig::h800_ib();
    compressed.combine_bytes = 1.0;
    let comp = compressed.evaluate();
    rows.push(Row {
        section: "§6.5".into(),
        recommendation: "in-network LogFMT combine compression".into(),
        metric: "decode tokens/s".into(),
        gain: comp.tokens_per_second / base.tokens_per_second,
    });
    rows
}

/// Render the summary.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§6: quantified payoffs of the paper's hardware recommendations",
        &["Section", "Recommendation", "Metric", "Gain"],
    );
    for r in rows {
        t.row(&[
            r.section.clone(),
            r.recommendation.clone(),
            r.metric.clone(),
            format!("{}x", fmt(r.gain, 2)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_recommendation_pays_off() {
        let rows = super::run();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.gain > 1.05, "{}: {}", r.recommendation, r.gain);
        }
        // SM offload lands at the 132/112 arithmetic.
        assert!((rows[0].gain - 1.1786).abs() < 0.01);
        // Combine compression is exactly 1.5×.
        assert!((rows[3].gain - 1.5).abs() < 0.01);
    }
}
