//! §5.1.1 / §6.1: robustness — plane failures, routing failover, and
//! checksum-based silent-data-corruption detection.

use crate::report::{fmt, Table};
use dsv3_collectives::failures::{alltoall_with_failed_planes, expected_retention};
use dsv3_collectives::{Cluster, ClusterConfig, FabricKind};
use dsv3_numerics::integrity::{audit, inject_bit_flip, protected_matmul, IntegrityReport};
use dsv3_numerics::Matrix;
use serde::{Deserialize, Serialize};

/// Bandwidth retention under failed planes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaneFailureRow {
    /// Planes failed (of 8).
    pub failed: usize,
    /// Measured bus-bandwidth retention.
    pub retention: f64,
    /// Ideal retention (surviving fraction).
    pub ideal: f64,
}

/// Sweep plane failures on a 4-node cluster.
#[must_use]
pub fn plane_failures() -> Vec<PlaneFailureRow> {
    let c = Cluster::new(ClusterConfig::h800(4, FabricKind::MultiPlane));
    let bytes = 1024.0 * 1024.0;
    (0..=4usize)
        .map(|k| {
            let failed: Vec<usize> = (0..k).collect();
            let r = alltoall_with_failed_planes(&c, bytes, &failed);
            PlaneFailureRow {
                failed: k,
                retention: r.bandwidth_retention,
                ideal: expected_retention(8, k),
            }
        })
        .collect()
}

/// SDC detection outcome over a batch of corrupted GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdcRow {
    /// Bit position flipped.
    pub bit: u32,
    /// GEMMs audited.
    pub trials: usize,
    /// Corruptions detected *and located* exactly.
    pub located: usize,
    /// Corruptions detected but not singly locatable.
    pub detected_only: usize,
    /// Missed (sub-threshold — indistinguishable from rounding noise).
    pub missed: usize,
}

/// Inject one bit flip per GEMM across bit positions and audit.
#[must_use]
pub fn sdc_detection(trials: usize) -> Vec<SdcRow> {
    [30u32, 27, 23, 16, 8, 0]
        .into_iter()
        .map(|bit| {
            let mut located = 0;
            let mut detected_only = 0;
            let mut missed = 0;
            for seed in 0..trials {
                let a = Matrix::random(16, 32, 1.0, seed as u64 * 3 + 1);
                let b = Matrix::random(32, 12, 1.0, seed as u64 * 3 + 2);
                let (mut c, sums) = protected_matmul(&a, &b);
                let (r, col) = (seed % 16, (seed * 7) % 12);
                inject_bit_flip(&mut c, r, col, bit);
                match audit(&c, &sums) {
                    IntegrityReport::Corrupted { row, col: cc, .. } if row == r && cc == col => {
                        located += 1;
                    }
                    IntegrityReport::Clean => missed += 1,
                    _ => detected_only += 1,
                }
            }
            SdcRow { bit, trials, located, detected_only, missed }
        })
        .collect()
}

/// Render both studies.
#[must_use]
pub fn render(plane_failures: &[PlaneFailureRow]) -> Table {
    let mut t = Table::new(
        "§5.1.1/§6.1: robustness — plane-failure retention & SDC detection",
        &["Study", "setting", "outcome"],
    );
    for r in plane_failures {
        t.row(&[
            "plane failure".into(),
            format!("{}/8 planes down", r.failed),
            format!(
                "{}% bandwidth (ideal {}%)",
                fmt(r.retention * 100.0, 1),
                fmt(r.ideal * 100.0, 1)
            ),
        ]);
    }
    for r in sdc_detection(24) {
        t.row(&[
            "SDC audit".into(),
            format!("bit {} flipped", r.bit),
            format!("{}/{} located, {} missed", r.located, r.trials, r.missed),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_tracks_ideal() {
        for r in plane_failures() {
            assert!((r.retention - r.ideal).abs() < 0.07, "{} vs {}", r.retention, r.ideal);
        }
    }

    #[test]
    fn high_bits_always_caught_low_bits_harmless() {
        let rows = sdc_detection(16);
        let by = |bit: u32| rows.iter().find(|r| r.bit == bit).unwrap();
        // Exponent and high-mantissa flips: always located.
        assert_eq!(by(30).located, 16);
        assert_eq!(by(27).located, 16);
        assert_eq!(by(23).located, 16);
        // Bit 0 flips are below the rounding-noise floor: harmless misses.
        assert_eq!(by(0).missed, 16);
    }
}
