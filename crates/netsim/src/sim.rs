//! The flow-level simulator core.

use crate::maxmin::{max_min_rates, MaxMinSolver, SolverWork};
use dsv3_telemetry::Recorder;
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

#[derive(Debug, Clone)]
struct FlowState {
    path: Vec<LinkId>,
    bytes_remaining: f64,
    start_us: f64,
    latency_us: f64,
    finish_us: Option<f64>,
}

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
    links: Vec<Link>,
    flows: Vec<FlowState>,
}

impl FlowSim {
    /// New simulator over the given links.
    #[must_use]
    pub fn new(links: Vec<Link>) -> Self {
        Self { links, flows: Vec::new() }
    }

    /// Number of links.
    #[must_use]
    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// Capacity of link `l` (GB/s).
    #[must_use]
    pub fn capacity(&self, l: LinkId) -> f64 {
        self.links[l].capacity_gbps
    }

    /// Path of flow `f`.
    #[must_use]
    pub fn path(&self, f: FlowId) -> &[LinkId] {
        &self.flows[f].path
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
        assert!(bytes >= 0.0, "bytes must be non-negative");
        check_times(start_us, latency_us);
        for &l in &path {
            assert!(l < self.links.len(), "unknown link {l}");
            assert!(self.links[l].capacity_gbps >= 0.0, "link {l} has negative capacity");
        }
        self.flows.push(FlowState {
            path,
            bytes_remaining: bytes,
            start_us,
            latency_us,
            finish_us: None,
        });
        self.flows.len() - 1
    }

    /// Max-min fair rates (GB/s) for the given active flow ids.
    ///
    /// Exposed for analysis and property testing: the returned allocation
    /// never oversubscribes a link, and every flow is bottlenecked by at
    /// least one saturated link on its path.
    #[must_use]
    pub fn max_min_rates(&self, active: &[FlowId]) -> Vec<f64> {
        let paths: Vec<&[LinkId]> = active.iter().map(|&f| self.flows[f].path.as_slice()).collect();
        max_min_rates(&self.links, &paths)
    }

    /// Run to completion.
    ///
    /// # Panics
    ///
    /// Panics if no flows were added.
    pub fn run(&mut self) -> SimReport {
        self.run_impl(None).0
    }

    /// [`FlowSim::run`] plus telemetry: one span per flow (named thread
    /// tracks under the `{scope}/netsim` process, transfer start to
    /// reported finish), per-link utilization counter samples at every
    /// rate-change horizon, a `{scope}.flow_us` completion-time
    /// histogram, and `{scope}.link{l}.utilization` time-average gauges.
    /// All timestamps are the simulation's native microseconds. With a
    /// disabled recorder this is exactly [`FlowSim::run`].
    ///
    /// # Panics
    ///
    /// Panics if no flows were added.
    // lint:entry — FlowSim event loop (fluid max-min flow simulation).
    pub fn run_traced(&mut self, rec: &mut Recorder, scope: &str) -> SimReport {
        if rec.is_enabled() {
            self.run_impl(Some((rec, scope))).0
        } else {
            self.run_impl(None).0
        }
    }

    pub(crate) fn run_impl(
        &mut self,
        mut tel: Option<(&mut Recorder, &str)>,
    ) -> (SimReport, SolverWork) {
        assert!(!self.flows.is_empty(), "no flows to simulate");
        const EPS: f64 = 1e-9;
        let pid = match tel.as_mut() {
            Some((rec, scope)) => rec.process(&format!("{scope}/netsim")),
            None => 0,
        };
        let mut link_bytes = vec![0f64; self.links.len()];
        let mut solver = MaxMinSolver::new(&self.links, self.flows.len());
        // Transfer-phase completion bookkeeping: a flow's data transfer runs
        // in [start, t_done]; its reported finish adds the path latency.
        let mut now = 0f64;
        loop {
            let active: Vec<FlowId> = (0..self.flows.len())
                .filter(|&f| {
                    self.flows[f].finish_us.is_none() && self.flows[f].start_us <= now + EPS
                })
                .collect();
            let pending_arrival = self
                .flows
                .iter()
                .filter(|f| f.finish_us.is_none() && f.start_us > now + EPS)
                .map(|f| f.start_us)
                .fold(f64::INFINITY, f64::min);
            if active.is_empty() {
                if pending_arrival.is_finite() {
                    now = pending_arrival;
                    continue;
                }
                break;
            }
            // Zero-byte or zero-work flows finish immediately.
            let mut finished_any = false;
            for &f in &active {
                if self.flows[f].bytes_remaining <= EPS {
                    let fl = &mut self.flows[f];
                    fl.finish_us = Some(now + fl.latency_us);
                    finished_any = true;
                }
            }
            if finished_any {
                continue;
            }
            // Arrivals join the solver; only the components they or the
            // last completions touched are re-solved.
            for &f in &active {
                if !solver.is_active(f) {
                    solver.activate(f, &self.flows[f].path);
                }
            }
            solver.solve();
            // Next event: earliest completion or next arrival.
            let mut next_done = f64::INFINITY;
            for &f in &active {
                let rate = solver.rate(f);
                if rate > 0.0 {
                    // 1 GB/s = 1e9 B / 1e6 µs = 1000 B/µs.
                    let us = self.flows[f].bytes_remaining / (rate * 1000.0);
                    next_done = next_done.min(now + us);
                }
            }
            let horizon = next_done.min(pending_arrival);
            assert!(horizon.is_finite(), "simulation cannot progress (all rates zero)");
            let dt = horizon - now;
            if let Some((rec, scope)) = tel.as_mut() {
                let mut link_rate = vec![0f64; self.links.len()];
                for &f in &active {
                    let rate = solver.rate(f);
                    for &l in &self.flows[f].path {
                        link_rate[l] += rate;
                        link_bytes[l] += rate * 1000.0 * dt;
                    }
                }
                for (l, &rate) in link_rate.iter().enumerate() {
                    let cap = self.links[l].capacity_gbps;
                    let util = if cap > 0.0 { rate / cap } else { 0.0 };
                    rec.counter_sample(pid, &format!("{scope}.link{l}.utilization"), now, util);
                }
            }
            for &f in &active {
                let moved = solver.rate(f) * 1000.0 * dt;
                let fl = &mut self.flows[f];
                fl.bytes_remaining = (fl.bytes_remaining - moved).max(0.0);
                if fl.bytes_remaining <= EPS.max(1e-6 * moved) {
                    fl.bytes_remaining = 0.0;
                    fl.finish_us = Some(horizon + fl.latency_us);
                    solver.deactivate(f);
                }
            }
            now = horizon;
        }
        let finish_us: Vec<f64> =
            // lint:allow(P1) — the progress loop above cannot exit until every flow's finish_us is set; a silent default would fabricate a makespan
            self.flows.iter().map(|f| f.finish_us.expect("finished")).collect();
        let makespan_us = finish_us.iter().copied().fold(0.0, f64::max);
        if let Some((rec, scope)) = tel.as_mut() {
            for (f, fl) in self.flows.iter().enumerate() {
                let done = fl.finish_us.unwrap_or(makespan_us);
                let tid = rec.thread(pid, &format!("flow{f}"));
                rec.span(pid, tid, "flow", &format!("flow{f}"), fl.start_us, done);
                rec.observe(&format!("{scope}.flow_us"), done - fl.start_us);
            }
            rec.counter_add(&format!("{scope}.flows"), self.flows.len() as u64);
            if makespan_us > 0.0 {
                for (l, &bytes) in link_bytes.iter().enumerate() {
                    let cap = self.links[l].capacity_gbps;
                    if cap > 0.0 {
                        rec.gauge_set(
                            &format!("{scope}.link{l}.utilization"),
                            bytes / (cap * 1000.0 * makespan_us),
                        );
                    }
                }
            }
        }
        (SimReport { finish_us, makespan_us }, solver.work)
    }
}

/// The `add_flow` time checks shared with [`crate::chaos::ChaosSim`]: a
/// NaN or infinite start would leave a flow neither pending nor active,
/// and a NaN latency would poison its finish time.
pub(crate) fn check_times(start_us: f64, latency_us: f64) {
    assert!(start_us.is_finite() && start_us >= 0.0, "start_us must be finite and non-negative");
    assert!(
        latency_us.is_finite() && latency_us >= 0.0,
        "latency_us must be finite and non-negative"
    );
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
    fn run_traced_matches_run_and_emits_flow_spans() {
        let build = || {
            let mut sim = one_link(100.0);
            sim.add_flow(vec![0], 1e6, 0.0, 0.0);
            sim.add_flow(vec![0], 0.5e6, 0.0, 0.0);
            sim
        };
        let plain = build().run();
        let mut rec = Recorder::new();
        let traced = build().run_traced(&mut rec, "net");
        assert_eq!(plain, traced);
        let spans: Vec<_> = rec.events().iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2, "one span per flow");
        assert_eq!(spans[0].name, "flow0");
        assert!((spans[0].dur - 15.0).abs() < 1e-6);
        assert_eq!(rec.counters()["net.flows"], 2);
        // Time-average utilization on the single saturated link is 1.0.
        let util = rec.snapshot().gauges["net.link0.utilization"];
        assert!((util - 1.0).abs() < 1e-6, "{util}");
        assert!(rec.histogram("net.flow_us").is_some());
        // Rate-change horizons: [0, 10) both flows, [10, 15) one — two samples.
        let samples = rec.events().iter().filter(|e| e.ph == "C").count();
        assert_eq!(samples, 2);
    }

    #[test]
    fn run_traced_disabled_records_nothing() {
        let mut sim = one_link(50.0);
        sim.add_flow(vec![0], 1e6, 0.0, 3.0);
        let mut rec = Recorder::disabled();
        let r = sim.run_traced(&mut rec, "net");
        assert!((r.finish_us[0] - 23.0).abs() < 1e-6);
        assert!(rec.events().is_empty());
        assert!(rec.counters().is_empty());
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
