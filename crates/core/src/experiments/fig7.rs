//! Figure 7: DeepEP dispatch/combine throughput on MPFT, 16–128 GPUs.

use crate::report::{fmt, Table};
use dsv3_collectives::deepep::{deepep_point, DeepEpPoint, EpConfig};
use dsv3_collectives::{Cluster, ClusterConfig, FabricKind};

/// Run the sweep. `tokens_per_gpu` = 4096 reproduces the figure; smaller
/// values keep debug-mode tests quick (bandwidths are size-stable).
#[must_use]
pub fn run(tokens_per_gpu: usize) -> Vec<DeepEpPoint> {
    let cfg = EpConfig { tokens_per_gpu, ..EpConfig::deepseek_v3() };
    [2usize, 4, 8, 16]
        .into_iter()
        .map(|nodes| {
            let c = Cluster::new(ClusterConfig::h800(nodes, FabricKind::MultiPlane));
            deepep_point(&c, &cfg)
        })
        .collect()
}

/// Render the series.
#[must_use]
pub fn render(points: &[DeepEpPoint]) -> Table {
    let mut t = Table::new(
        "Figure 7: DeepEP per-GPU RDMA bandwidth on MPFT (GB/s)",
        &["GPUs", "dispatch (FP8)", "combine (BF16)"],
    );
    for p in points {
        t.row(&[p.gpus.to_string(), fmt(p.dispatch_gbps, 1), fmt(p.combine_gbps, 1)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_holds_up_to_128_gpus() {
        let pts = run(128);
        assert_eq!(pts.last().unwrap().gpus, 128);
        for p in &pts[1..] {
            assert!(p.dispatch_gbps > 36.0, "{} GPUs: {}", p.gpus, p.dispatch_gbps);
            assert!(p.combine_gbps > 36.0, "{} GPUs: {}", p.gpus, p.combine_gbps);
        }
    }
}
