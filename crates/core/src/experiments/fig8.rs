//! Figure 8: RoCE AllGather/ReduceScatter bandwidth vs routing policy.

use crate::report::{fmt, Table};
use dsv3_collectives::ring::{allgather, reduce_scatter, Placement, RingNet};
use dsv3_topology::routing::RoutePolicy;
use serde::{Deserialize, Serialize};

/// One measured point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Collective name.
    pub collective: String,
    /// Ranks per group (the "TP dimension").
    pub tp: usize,
    /// Routing policy label.
    pub policy: String,
    /// Bus bandwidth (GB/s).
    pub busbw_gbps: f64,
}

fn policies() -> Vec<(&'static str, RoutePolicy)> {
    vec![
        ("ECMP", RoutePolicy::Ecmp { seed: 1 }),
        ("AR", RoutePolicy::Adaptive),
        ("Static", RoutePolicy::StaticBySource),
    ]
}

/// Run the sweep: strided groups on an 8-leaf RoCE fabric, TP ∈ {4, 8, 16}.
#[must_use]
pub fn run() -> Vec<Point> {
    let net = RingNet::roce(8, 8, 8);
    let bytes = 64.0 * 1024.0 * 1024.0;
    let mut out = Vec::new();
    for tp in [4usize, 8, 16] {
        let groups = 64 / tp;
        for (name, policy) in policies() {
            let ag = allgather(&net, tp, groups, bytes, Placement::Strided, policy);
            out.push(Point {
                collective: "AllGather".into(),
                tp,
                policy: name.into(),
                busbw_gbps: ag.busbw_gbps,
            });
            let rs = reduce_scatter(&net, tp, groups, bytes, Placement::Strided, policy);
            out.push(Point {
                collective: "ReduceScatter".into(),
                tp,
                policy: name.into(),
                busbw_gbps: rs.busbw_gbps,
            });
        }
    }
    out
}

/// Render the series.
#[must_use]
pub fn render(pts: &[Point]) -> Table {
    let mut t = Table::new(
        "Figure 8: RoCE collective bandwidth vs routing (GB/s)",
        &["Collective", "TP", "ECMP", "AR", "Static"],
    );
    for coll in ["AllGather", "ReduceScatter"] {
        for tp in [4usize, 8, 16] {
            let get = |policy: &str| {
                pts.iter()
                    .find(|p| p.collective == coll && p.tp == tp && p.policy == policy)
                    .map_or_else(|| String::from("-"), |p| fmt(p.busbw_gbps, 1))
            };
            t.row(&[coll.to_string(), tp.to_string(), get("ECMP"), get("AR"), get("Static")]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_routing_wins() {
        let pts = run();
        for tp in [8usize, 16] {
            let by = |policy: &str| {
                pts.iter()
                    .find(|p| p.collective == "AllGather" && p.tp == tp && p.policy == policy)
                    .unwrap()
                    .busbw_gbps
            };
            assert!(by("AR") > by("ECMP"), "tp={tp}: AR {} ECMP {}", by("AR"), by("ECMP"));
            assert!(by("Static") >= by("ECMP"), "tp={tp}");
        }
    }
}
