//! Figure 6: all-to-all latency vs message size (16 GPUs), MPFT vs MRFT.

use crate::report::{fmt, Table};
use dsv3_collectives::alltoall::alltoall_pxn;
use dsv3_collectives::{Cluster, ClusterConfig, FabricKind};
use serde::{Deserialize, Serialize};

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Message size per peer (bytes).
    pub bytes_per_peer: f64,
    /// MPFT completion time (µs).
    pub mpft_us: f64,
    /// MRFT completion time (µs).
    pub mrft_us: f64,
}

/// Small-message sweep.
#[must_use]
pub fn run() -> Vec<Point> {
    let mp = Cluster::new(ClusterConfig::h800(2, FabricKind::MultiPlane));
    let mr = Cluster::new(ClusterConfig::h800(2, FabricKind::MultiRail));
    [128.0, 1024.0, 8192.0, 65_536.0, 524_288.0, 1_048_576.0]
        .into_iter()
        .map(|bytes| Point {
            bytes_per_peer: bytes,
            mpft_us: alltoall_pxn(&mp, bytes).time_us,
            mrft_us: alltoall_pxn(&mr, bytes).time_us,
        })
        .collect()
}

/// Render the series.
#[must_use]
pub fn render(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Figure 6: 16-GPU all-to-all latency, MPFT vs MRFT (µs)",
        &["msg/peer", "MPFT", "MRFT"],
    );
    for p in points {
        t.row(&[format!("{}", p.bytes_per_peer as u64), fmt(p.mpft_us, 2), fmt(p.mrft_us, 2)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_floor_and_parity() {
        let pts = run();
        for p in &pts {
            assert!((p.mpft_us - p.mrft_us).abs() / p.mpft_us < 0.02, "parity");
        }
        // Small messages sit near the path-latency floor; larger ones grow.
        assert!(pts[0].mpft_us < 10.0, "{}", pts[0].mpft_us);
        assert!(pts.last().unwrap().mpft_us > 10.0 * pts[0].mpft_us);
    }
}
