//! The flow-level simulator core: single-path flows on a healthy fabric.

use crate::chaos::{ChaosConfig, ChaosSim, ReroutePolicy};
use crate::maxmin::{max_min_rates, SolverWork};
use serde::{Deserialize, Serialize};

/// A unidirectional network link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Capacity in gigabytes per second.
    pub capacity_gbps: f64,
}

/// Identifier of a link within a [`FlowSim`].
pub type LinkId = usize;

/// Identifier of a flow within a [`FlowSim`].
pub type FlowId = usize;

/// Completion report of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Finish time (µs) of each flow, indexed by [`FlowId`].
    pub finish_us: Vec<f64>,
    /// Time at which the last flow finished.
    pub makespan_us: f64,
}

/// A max-min fair flow-level network simulation.
///
/// The single-path, fault-free front of [`ChaosSim`]: every flow has one
/// path, no link ever fails, and [`FlowSim::run`] runs the chaos event loop
/// with an empty schedule under [`ReroutePolicy::Stall`].
///
/// ```
/// use dsv3_netsim::{FlowSim, Link};
///
/// let mut sim = FlowSim::new(vec![Link { capacity_gbps: 50.0 }]);
/// // Two flows share the 50 GB/s link: 1 GB each takes 40 ms.
/// sim.add_flow(vec![0], 1e9, 0.0, 2.0);
/// sim.add_flow(vec![0], 1e9, 0.0, 2.0);
/// let report = sim.run();
/// assert!((report.makespan_us - 40_002.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct FlowSim {
    sim: ChaosSim,
}

impl FlowSim {
    /// New simulator over the given links.
    #[must_use]
    pub fn new(links: Vec<Link>) -> Self {
        Self { sim: ChaosSim::new(links) }
    }

    /// Number of links.
    #[must_use]
    pub fn links(&self) -> usize {
        self.sim.links()
    }

    /// Capacity of link `l` (GB/s).
    #[must_use]
    pub fn capacity(&self, l: LinkId) -> f64 {
        self.sim.links[l].capacity_gbps
    }

    /// Path of flow `f`.
    #[must_use]
    pub fn path(&self, f: FlowId) -> &[LinkId] {
        &self.sim.flows[f].paths[0]
    }

    /// Add a flow of `bytes` over `path`, departing at `start_us` with fixed
    /// path latency `latency_us` (per-hop latency + endpoint overhead, as
    /// computed by [`crate::latency`]). A zero-byte flow models a bare
    /// message whose cost is latency only. Returns the flow id.
    ///
    /// A zero-capacity link is legal: it models a *failed* (down) link, and
    /// flows crossing it are allocated rate 0 by [`FlowSim::max_min_rates`].
    /// Note that [`FlowSim::run`] itself never revives a link, so a nonzero
    /// flow whose path stays down forever cannot make progress (`run`
    /// panics); dynamic fail/heal behavior lives in [`crate::chaos`].
    ///
    /// # Panics
    ///
    /// Panics if the path references an unknown link, `bytes` is negative,
    /// a link capacity is negative, or `start_us` or `latency_us` is
    /// negative or not finite.
    pub fn add_flow(
        &mut self,
        path: Vec<LinkId>,
        bytes: f64,
        start_us: f64,
        latency_us: f64,
    ) -> FlowId {
        self.sim.add_flow(vec![path], bytes, start_us, latency_us)
    }

    /// Max-min fair rates (GB/s) for the given active flow ids.
    ///
    /// Exposed for analysis and property testing: the returned allocation
    /// never oversubscribes a link, and every flow is bottlenecked by at
    /// least one saturated link on its path.
    #[must_use]
    pub fn max_min_rates(&self, active: &[FlowId]) -> Vec<f64> {
        let paths: Vec<&[LinkId]> = active.iter().map(|&f| self.path(f)).collect();
        max_min_rates(&self.sim.links, &paths)
    }

    /// Run to completion.
    ///
    /// # Panics
    ///
    /// Panics if no flows were added, or if the active flows can make no
    /// progress (every rate is zero, e.g. on a zero-capacity link).
    pub fn run(&self) -> SimReport {
        self.run_impl().0
    }

    /// [`FlowSim::run`] plus the solver's work counters.
    pub(crate) fn run_impl(&self) -> (SimReport, SolverWork) {
        let cfg = ChaosConfig { policy: ReroutePolicy::Stall, ..ChaosConfig::default() };
        let (flows, work) = self.sim.simulate(&cfg, self.sim.solver());
        let finish_us: Vec<f64> =
            // lint:allow(P1) — with no flaps and no deadline the loop either finishes every flow or panics for lack of progress; a silent default would fabricate a makespan
            flows.iter().map(|f| f.finish_us().expect("finished")).collect();
        let makespan_us = finish_us.iter().copied().fold(0.0, f64::max);
        (SimReport { finish_us, makespan_us }, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_link(cap: f64) -> FlowSim {
        FlowSim::new(vec![Link { capacity_gbps: cap }])
    }

    #[test]
    fn single_flow_time() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 1e6, 0.0, 3.0); // 1 MB at 50 GB/s = 20 µs
        let r = sim.run();
        assert!((r.finish_us[0] - 23.0).abs() < 1e-6, "{}", r.finish_us[0]);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0);
        let r = sim.run();
        assert!((r.makespan_us - 40.0).abs() < 1e-6);
    }

    #[test]
    fn short_flow_releases_bandwidth() {
        let mut sim = one_link(100.0);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0); // long
        sim.add_flow(vec![0], 0.5e6, 0.0, 0.0); // short
        let r = sim.run();
        // Phase 1: both at 50 GB/s until short (0.5 MB) finishes at 10 µs.
        // Long has 0.5 MB left, now at 100 GB/s: +5 µs.
        assert!((r.finish_us[1] - 10.0).abs() < 1e-6, "{}", r.finish_us[1]);
        assert!((r.finish_us[0] - 15.0).abs() < 1e-6, "{}", r.finish_us[0]);
    }

    #[test]
    fn max_min_textbook_example() {
        // Links A(10), B(20). Flow1 uses A+B, flow2 uses A, flow3 uses B.
        // Max-min: A splits 5/5; flow3 gets B's remainder 15.
        let mut sim =
            FlowSim::new(vec![Link { capacity_gbps: 10.0 }, Link { capacity_gbps: 20.0 }]);
        sim.add_flow(vec![0, 1], 1.0, 0.0, 0.0);
        sim.add_flow(vec![0], 1.0, 0.0, 0.0);
        sim.add_flow(vec![1], 1.0, 0.0, 0.0);
        let rates = sim.max_min_rates(&[0, 1, 2]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
        assert!((rates[2] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn delayed_arrival() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 1e6, 100.0, 0.0);
        let r = sim.run();
        assert!((r.finish_us[0] - 120.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_flow_is_pure_latency() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 0.0, 5.0, 2.8);
        let r = sim.run();
        assert!((r.finish_us[0] - 7.8).abs() < 1e-9);
    }

    #[test]
    fn bytes_conserved_under_contention() {
        // n flows of b bytes over one c GB/s link take exactly n*b/c.
        let mut sim = one_link(40.0);
        for _ in 0..7 {
            sim.add_flow(vec![0], 2e6, 0.0, 0.0);
        }
        let r = sim.run();
        let expect = 7.0 * 2e6 / (40.0 * 1000.0);
        assert!((r.makespan_us - expect).abs() < 1e-6, "{} vs {expect}", r.makespan_us);
    }

    #[test]
    fn disjoint_flows_run_in_parallel() {
        let mut sim =
            FlowSim::new(vec![Link { capacity_gbps: 10.0 }, Link { capacity_gbps: 10.0 }]);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0);
        sim.add_flow(vec![1], 1e6, 0.0, 0.0);
        let r = sim.run();
        assert!((r.makespan_us - 100.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_path_panics() {
        let mut sim = one_link(1.0);
        sim.add_flow(vec![3], 1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "start_us must be finite and non-negative")]
    fn nan_start_panics() {
        one_link(1.0).add_flow(vec![0], 1.0, f64::NAN, 0.0);
    }

    #[test]
    #[should_panic(expected = "start_us must be finite and non-negative")]
    fn negative_start_panics() {
        one_link(1.0).add_flow(vec![0], 1.0, -1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "latency_us must be finite and non-negative")]
    fn nan_latency_panics() {
        one_link(1.0).add_flow(vec![0], 1.0, 0.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "latency_us must be finite and non-negative")]
    fn infinite_latency_panics() {
        one_link(1.0).add_flow(vec![0], 1.0, 0.0, f64::INFINITY);
    }

    #[test]
    fn staggered_arrivals_interleave() {
        let mut sim = one_link(10.0);
        sim.add_flow(vec![0], 1e6, 0.0, 0.0); // alone for 50 µs
        sim.add_flow(vec![0], 1e6, 50.0, 0.0);
        let r = sim.run();
        // f0: 50 µs alone (0.5 MB) + shares 10 GB/s for remaining 0.5 MB at
        // 5 GB/s = 100 µs -> finishes at 150. f1: 0.5 MB at 5 (100 µs), then
        // 0.5 MB at 10 (50 µs) -> 200.
        assert!((r.finish_us[0] - 150.0).abs() < 1e-6, "{}", r.finish_us[0]);
        assert!((r.finish_us[1] - 200.0).abs() < 1e-6, "{}", r.finish_us[1]);
    }
}
