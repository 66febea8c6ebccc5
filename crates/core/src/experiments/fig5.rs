//! Figure 5: NCCL-style all-to-all bandwidth, 32–128 GPUs, MPFT vs MRFT.

use crate::report::{fmt, Table};
use dsv3_collectives::alltoall::alltoall_pxn;
use dsv3_collectives::{Cluster, ClusterConfig, FabricKind};
use serde::{Deserialize, Serialize};

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// GPUs participating.
    pub gpus: usize,
    /// Message size per peer (bytes).
    pub bytes_per_peer: f64,
    /// MPFT bus bandwidth (GB/s).
    pub mpft_busbw: f64,
    /// MRFT bus bandwidth (GB/s).
    pub mrft_busbw: f64,
}

/// Message sizes swept (per peer).
#[must_use]
pub fn message_sizes() -> Vec<f64> {
    vec![4096.0, 65_536.0, 1_048_576.0, 8_388_608.0]
}

/// Run the sweep over 32–128 GPUs.
#[must_use]
pub fn run() -> Vec<Point> {
    let mut out = Vec::new();
    for nodes in [4usize, 8, 16] {
        let mp = Cluster::new(ClusterConfig::h800(nodes, FabricKind::MultiPlane));
        let mr = Cluster::new(ClusterConfig::h800(nodes, FabricKind::MultiRail));
        for bytes in message_sizes() {
            out.push(Point {
                gpus: nodes * 8,
                bytes_per_peer: bytes,
                mpft_busbw: alltoall_pxn(&mp, bytes).busbw_gbps,
                mrft_busbw: alltoall_pxn(&mr, bytes).busbw_gbps,
            });
        }
    }
    out
}

/// Render the series.
#[must_use]
pub fn render(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Figure 5: all-to-all bus bandwidth, MPFT vs MRFT (GB/s)",
        &["GPUs", "msg/peer", "MPFT", "MRFT"],
    );
    for p in points {
        t.row(&[
            p.gpus.to_string(),
            format!("{}", p.bytes_per_peer as u64),
            fmt(p.mpft_busbw, 1),
            fmt(p.mrft_busbw, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_and_saturation() {
        for p in run() {
            let rel = (p.mpft_busbw - p.mrft_busbw).abs() / p.mpft_busbw.max(1e-9);
            assert!(rel < 0.02, "parity at {} GPUs / {}B: {rel}", p.gpus, p.bytes_per_peer);
            if p.bytes_per_peer >= 1_048_576.0 {
                assert!(p.mpft_busbw > 30.0, "large-message busbw {}", p.mpft_busbw);
            }
        }
    }
}
