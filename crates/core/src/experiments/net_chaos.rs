//! §5.1.1 dynamic: link-level chaos across candidate fabrics.
//!
//! Where [`super::fault_drill`] injects *plane*-granular faults into the
//! serving stack, this experiment attacks individual switch-to-switch
//! links and watches flows route around the damage. Each candidate
//! fabric from Table 3 — a two-plane two-layer fat-tree (MPFT), a
//! three-layer fat-tree, a SlimFly, and a Dragonfly — is materialized as
//! a directed-link [`dsv3_netsim::ChaosSim`] carrying a seeded host
//! permutation of bulk flows. A seeded fraction of trunk links then
//! fails mid-transfer, and the three [`ReroutePolicy`] arms race:
//!
//! * **Stall** (no multipathing): recovery is bounded below by the
//!   repair time — completion degrades by orders of magnitude.
//! * **StaticRehash** (oblivious ECMP re-pick): re-picks can land on
//!   other dead paths, burning the retry budget; a nonzero fraction of
//!   flows strands (§5.1.1's argument against static routing).
//! * **Adaptive**: failing over among healthy precomputed paths bounds
//!   the completion-time degradation to roughly the failed fraction of
//!   capacity on the multi-plane fabric.
//!
//! The low-diameter direct networks tell their own story: a
//! Hoffman–Singleton SlimFly has a *unique* minimal path between most
//! switch pairs (girth 5), so minimal-routing adaptivity has nothing to
//! adapt with — matching the paper's note that such fabrics lean on
//! non-minimal adaptive routing.

use crate::report::{fmt, Table};
use dsv3_netsim::chaos::{
    ChaosConfig, ChaosReport, LinkFlap, LinkSchedule, ReroutePolicy, RetransmitConfig,
};
use dsv3_netsim::{ChaosSim, FlowSim, Link};
use dsv3_telemetry::Recorder;
use dsv3_topology::dragonfly::Dragonfly;
use dsv3_topology::fattree::{LeafSpine, ThreeLayerFatTree};
use dsv3_topology::slimfly::SlimFly;
use dsv3_topology::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sweep parameters (serialized into the run manifest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetChaosParams {
    /// Hosts sampled per fabric (one flow out, one flow in, each).
    pub sample_hosts: usize,
    /// Bytes per flow.
    pub flow_bytes: f64,
    /// NIC (host↔switch) capacity, GB/s.
    pub nic_gbps: f64,
    /// Trunk (switch↔switch) capacity, GB/s.
    pub trunk_gbps: f64,
    /// Fixed path latency per flow, µs.
    pub latency_us: f64,
    /// Instant at which the chosen trunks fail, µs.
    pub fail_at_us: f64,
    /// Trunk repair time, µs (far beyond the fault-free makespan).
    pub repair_us: f64,
    /// Failed fractions of the trunk population swept per policy.
    pub fail_fractions: Vec<f64>,
    /// Retry budget before a flow strands.
    pub max_retries: u32,
    /// Equal-cost paths enumerated per plane per host pair.
    pub max_paths_per_plane: usize,
}

impl Default for NetChaosParams {
    fn default() -> Self {
        Self {
            sample_hosts: 16,
            flow_bytes: 25e6,
            nic_gbps: 40.0,
            trunk_gbps: 100.0,
            latency_us: 2.0,
            fail_at_us: 50.0,
            repair_us: 5_000.0,
            fail_fractions: vec![0.125, 0.25],
            max_retries: 2,
            max_paths_per_plane: 4,
        }
    }
}

/// One (fabric, policy, failure-fraction) arm of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetChaosRow {
    /// Fabric name.
    pub fabric: String,
    /// Reroute policy label.
    pub policy: String,
    /// Fraction of trunk links failed.
    pub fail_fraction: f64,
    /// Undirected trunk links failed (both directions die together).
    pub failed_trunks: usize,
    /// Latest completion among finished flows, µs.
    pub makespan_us: f64,
    /// `makespan / healthy makespan` of the same fabric.
    pub slowdown: f64,
    /// Flows that delivered all bytes.
    pub completed: usize,
    /// Flows stranded by retry exhaustion.
    pub stranded: usize,
    /// Total path changes.
    pub reroutes: u64,
    /// Total failed attempts.
    pub retries: u64,
    /// Bytes lost on failed links and re-sent, MB.
    pub retransmitted_mb: f64,
    /// Per-flow byte conservation (`sent ≈ delivered + lost`).
    pub bytes_balanced: bool,
}

/// Static facts about one materialized fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSummary {
    /// Fabric name.
    pub fabric: String,
    /// Independent planes.
    pub planes: usize,
    /// Directed links (trunks + NICs).
    pub links: usize,
    /// Undirected trunk links (the failure population).
    pub trunks: usize,
    /// Flows simulated.
    pub flows: usize,
    /// Fault-free makespan, µs.
    pub healthy_makespan_us: f64,
    /// Whether the fault-free chaos run is bit-identical to
    /// [`FlowSim::run`] over each flow's home path.
    pub healthy_matches_flowsim: bool,
}

/// Everything the sweep measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetChaosReport {
    /// Seed of the traffic permutation and failure draw.
    pub seed: u64,
    /// Per-fabric baselines.
    pub fabrics: Vec<FabricSummary>,
    /// Sweep rows, fabric-major then policy then fraction.
    pub rows: Vec<NetChaosRow>,
}

/// One plane of a fabric: its switch graph plus directed-link lookup
/// tables into the shared link vector.
struct Plane {
    graph: Graph,
    nic_up: BTreeMap<usize, usize>,
    nic_down: BTreeMap<usize, usize>,
    edge: BTreeMap<(usize, usize), usize>,
}

/// A materialized fabric: every switch edge becomes two directed trunk
/// links; every sampled host gets an up/down NIC pair per plane.
struct Fabric {
    name: &'static str,
    links: Vec<Link>,
    /// (forward, reverse) directed ids per undirected trunk.
    trunk_pairs: Vec<(usize, usize)>,
    hosts: Vec<usize>,
    planes: Vec<Plane>,
}

impl Fabric {
    fn build(name: &'static str, graphs: Vec<Graph>, p: &NetChaosParams) -> Self {
        let total = graphs[0].endpoints();
        assert!(graphs.iter().all(|g| g.endpoints() == total), "planes must be congruent");
        let n = p.sample_hosts.min(total);
        // Evenly spaced sample: strictly increasing (distinct) since
        // total >= n makes consecutive floors differ by >= 1.
        let hosts: Vec<usize> = (0..n).map(|i| i * total / n).collect();
        let mut links = Vec::new();
        let mut trunk_pairs = Vec::new();
        let mut planes = Vec::new();
        for graph in graphs {
            let mut edge = BTreeMap::new();
            for u in 0..graph.switches() {
                for &v in graph.neighbors(u) {
                    if u < v {
                        let fwd = links.len();
                        links.push(Link { capacity_gbps: p.trunk_gbps });
                        let rev = links.len();
                        links.push(Link { capacity_gbps: p.trunk_gbps });
                        edge.insert((u, v), fwd);
                        edge.insert((v, u), rev);
                        trunk_pairs.push((fwd, rev));
                    }
                }
            }
            let mut nic_up = BTreeMap::new();
            let mut nic_down = BTreeMap::new();
            for &h in &hosts {
                links.push(Link { capacity_gbps: p.nic_gbps });
                nic_up.insert(h, links.len() - 1);
                links.push(Link { capacity_gbps: p.nic_gbps });
                nic_down.insert(h, links.len() - 1);
            }
            planes.push(Plane { graph, nic_up, nic_down, edge });
        }
        Self { name, links, trunk_pairs, hosts, planes }
    }

    /// ECMP path set from host `a` to host `b`: per plane (starting at
    /// `home_plane`), every enumerated shortest switch route, bracketed
    /// by the hosts' NICs on that plane.
    fn path_set(
        &self,
        a: usize,
        b: usize,
        home_plane: usize,
        max_per_plane: usize,
    ) -> Vec<Vec<usize>> {
        let mut paths = Vec::new();
        for k in 0..self.planes.len() {
            let plane = &self.planes[(home_plane + k) % self.planes.len()];
            let (sa, sb) = (plane.graph.endpoint_switch(a), plane.graph.endpoint_switch(b));
            for sw in plane.graph.shortest_paths(sa, sb, max_per_plane) {
                let mut path = vec![plane.nic_up[&a]];
                for w in sw.windows(2) {
                    path.push(plane.edge[&(w[0], w[1])]);
                }
                path.push(plane.nic_down[&b]);
                paths.push(path);
            }
        }
        paths
    }

    /// Seeded ring traffic: shuffle the sampled hosts, then each sends to
    /// its successor — every host sources one flow and sinks one flow.
    fn traffic(&self, seed: u64) -> Vec<(usize, usize)> {
        let mut order = self.hosts.clone();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7065_726d)); // "perm"
        (0..order.len()).map(|i| (order[i], order[(i + 1) % order.len()])).collect()
    }

    fn chaos_sim(&self, traffic: &[(usize, usize)], p: &NetChaosParams) -> ChaosSim {
        let mut sim = ChaosSim::new(self.links.clone());
        for (i, &(a, b)) in traffic.iter().enumerate() {
            let paths = self.path_set(a, b, i % self.planes.len(), p.max_paths_per_plane);
            sim.add_flow(paths, p.flow_bytes, 0.0, p.latency_us);
        }
        sim
    }

    /// Fail a seeded `fraction` of undirected trunks (both directions) at
    /// `fail_at_us`, each repairing after `repair_us`.
    fn trunk_failures(
        &self,
        fraction: f64,
        seed: u64,
        p: &NetChaosParams,
    ) -> (LinkSchedule, usize) {
        let mut idx: Vec<usize> = (0..self.trunk_pairs.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x6564_6765)); // "edge"
        let n = ((fraction * self.trunk_pairs.len() as f64).round() as usize)
            .min(self.trunk_pairs.len());
        let mut flaps = Vec::new();
        for &i in idx.iter().take(n) {
            let (f, r) = self.trunk_pairs[i];
            for link in [f, r] {
                flaps.push(LinkFlap { link, down_at_us: p.fail_at_us, repair_us: p.repair_us });
            }
        }
        flaps.sort_by_key(|f| f.link);
        (LinkSchedule { flaps }, n)
    }
}

/// The four candidate fabrics, sized to stay fast in debug builds while
/// keeping the structural contrasts that drive the result.
fn fabrics(p: &NetChaosParams) -> Vec<Fabric> {
    let ls = LeafSpine::from_radix(8);
    vec![
        Fabric::build("mpft2", vec![ls.to_graph(), ls.to_graph()], p),
        Fabric::build("ft3", vec![ThreeLayerFatTree::new(4).to_graph()], p),
        Fabric::build("slimfly", vec![SlimFly::new(5).build()], p),
        Fabric::build("dragonfly", vec![Dragonfly { p: 1, a: 4, h: 2, groups: 9 }.build()], p),
    ]
}

fn policy_label(policy: ReroutePolicy) -> &'static str {
    match policy {
        ReroutePolicy::Stall => "stall",
        ReroutePolicy::StaticRehash { .. } => "static-rehash",
        ReroutePolicy::Adaptive => "adaptive",
    }
}

/// The sweep's default seed.
#[must_use]
pub fn seed() -> u64 {
    20_250_806
}

/// Serialized configuration, for the run manifest.
#[must_use]
pub fn config_json() -> String {
    crate::report::json_or_null(&NetChaosParams::default())
}

/// Run the sweep at `seed` (equal seeds → identical reports). Every arm
/// traces into `rec` under `{fabric}.{policy}.f{percent}` scopes
/// (fail/heal instants, per-flow spans, reroute/retransmit counters).
#[must_use]
pub fn run(seed: u64, rec: &mut Recorder) -> NetChaosReport {
    let p = NetChaosParams::default();
    let policies =
        [ReroutePolicy::Stall, ReroutePolicy::StaticRehash { seed }, ReroutePolicy::Adaptive];
    let mut fabric_rows = Vec::new();
    let mut rows = Vec::new();
    for fabric in fabrics(&p) {
        let traffic = fabric.traffic(seed);
        let sim = fabric.chaos_sim(&traffic, &p);
        let expected = vec![p.flow_bytes; traffic.len()];

        // Fault-free baseline under Stall: without failures it never
        // leaves the home path, which is exactly what FlowSim simulates
        // (Adaptive would already load-balance across the path set).
        let healthy_cfg = ChaosConfig { policy: ReroutePolicy::Stall, ..ChaosConfig::default() };
        let healthy = sim.run_traced(rec, &format!("{}.healthy", fabric.name), &healthy_cfg);
        let healthy_makespan = healthy.makespan_us;
        // Pin the fault-free path to the pre-chaos simulator: FlowSim over
        // each flow's home path must agree bit-for-bit.
        let mut flow_sim = FlowSim::new(fabric.links.clone());
        for (i, &(a, b)) in traffic.iter().enumerate() {
            let home = fabric.path_set(a, b, i % fabric.planes.len(), p.max_paths_per_plane);
            flow_sim.add_flow(home[0].clone(), p.flow_bytes, 0.0, p.latency_us);
        }
        let plain = flow_sim.run();
        let healthy_matches_flowsim = healthy.to_sim_report().is_some_and(|r| {
            r.makespan_us.to_bits() == plain.makespan_us.to_bits()
                && r.finish_us.len() == plain.finish_us.len()
                && r.finish_us.iter().zip(&plain.finish_us).all(|(a, b)| a.to_bits() == b.to_bits())
        });
        fabric_rows.push(FabricSummary {
            fabric: fabric.name.to_string(),
            planes: fabric.planes.len(),
            links: fabric.links.len(),
            trunks: fabric.trunk_pairs.len(),
            flows: traffic.len(),
            healthy_makespan_us: healthy_makespan,
            healthy_matches_flowsim,
        });

        for &policy in &policies {
            for &fraction in &p.fail_fractions {
                let (schedule, failed_trunks) = fabric.trunk_failures(fraction, seed, &p);
                let cfg = ChaosConfig {
                    schedule,
                    policy,
                    retransmit: RetransmitConfig {
                        max_retries: p.max_retries,
                        ..RetransmitConfig::default()
                    },
                    deadline_us: None,
                };
                let scope =
                    format!("{}.{}.f{:02.0}", fabric.name, policy_label(policy), fraction * 100.0);
                let r = sim.run_traced(rec, &scope, &cfg);
                rows.push(row(
                    &fabric,
                    policy,
                    fraction,
                    failed_trunks,
                    &r,
                    healthy_makespan,
                    &expected,
                ));
            }
        }
    }
    NetChaosReport { seed, fabrics: fabric_rows, rows }
}

fn row(
    fabric: &Fabric,
    policy: ReroutePolicy,
    fraction: f64,
    failed_trunks: usize,
    r: &ChaosReport,
    healthy_makespan: f64,
    expected: &[f64],
) -> NetChaosRow {
    NetChaosRow {
        fabric: fabric.name.to_string(),
        policy: policy_label(policy).to_string(),
        fail_fraction: fraction,
        failed_trunks,
        makespan_us: r.makespan_us,
        slowdown: r.makespan_us / healthy_makespan,
        completed: r.completed,
        stranded: r.stranded,
        reroutes: r.total_reroutes,
        retries: r.total_retries,
        retransmitted_mb: r.retransmitted_bytes / 1e6,
        bytes_balanced: r.bytes_balanced(expected, 1e-5),
    }
}

/// Render.
#[must_use]
pub fn render(r: &NetChaosReport) -> Table {
    let mut t = Table::new(
        "§5.1.1: link chaos — reroute policies vs failed trunk fraction per fabric",
        &["fabric", "policy", "failed", "outcome"],
    );
    for f in &r.fabrics {
        t.row(&[
            f.fabric.clone(),
            "(healthy)".into(),
            "0".into(),
            format!(
                "{} flows over {} links, makespan {} µs, FlowSim-identical: {}",
                f.flows,
                f.links,
                fmt(f.healthy_makespan_us, 1),
                f.healthy_matches_flowsim
            ),
        ]);
    }
    for row in &r.rows {
        t.row(&[
            row.fabric.clone(),
            row.policy.clone(),
            format!("{} trunks ({}%)", row.failed_trunks, fmt(row.fail_fraction * 100.0, 1)),
            format!(
                "slowdown {}×, stranded {}, reroutes {}, resent {} MB, balanced {}",
                fmt(row.slowdown, 2),
                row.stranded,
                row.reroutes,
                fmt(row.retransmitted_mb, 1),
                row.bytes_balanced
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_runs_are_bit_identical_to_flowsim() {
        let r = run(seed(), &mut Recorder::disabled());
        assert_eq!(r.fabrics.len(), 4);
        for f in &r.fabrics {
            assert!(f.healthy_matches_flowsim, "{}: chaos(∅) must equal FlowSim", f.fabric);
        }
    }

    #[test]
    fn adaptive_on_multiplane_bounds_degradation_to_failed_fraction() {
        let r = run(seed(), &mut Recorder::disabled());
        for row in r.rows.iter().filter(|w| w.fabric == "mpft2" && w.policy == "adaptive") {
            let bound = 1.0 / (1.0 - row.fail_fraction);
            assert!(
                row.slowdown <= bound + 0.35,
                "adaptive mpft2 f={}: slowdown {} vs bound {}",
                row.fail_fraction,
                row.slowdown,
                bound
            );
            assert_eq!(row.stranded, 0, "adaptive must not strand on the multi-plane fabric");
            assert!(row.reroutes > 0, "failures must actually hit flows");
        }
    }

    #[test]
    fn static_rehash_strands_flows_where_adaptive_does_not() {
        let r = run(seed(), &mut Recorder::disabled());
        let strand_total: usize =
            r.rows.iter().filter(|w| w.policy == "static-rehash").map(|w| w.stranded).sum();
        assert!(strand_total > 0, "oblivious rehash must strand somewhere in the sweep");
        let mpft_static_max = r
            .rows
            .iter()
            .filter(|w| w.fabric == "mpft2" && w.policy == "static-rehash")
            .map(|w| w.stranded)
            .max()
            .unwrap_or(0);
        let mpft_adaptive_max = r
            .rows
            .iter()
            .filter(|w| w.fabric == "mpft2" && w.policy == "adaptive")
            .map(|w| w.stranded)
            .max()
            .unwrap_or(0);
        assert!(
            mpft_static_max > mpft_adaptive_max,
            "same fabric, same failures: static {mpft_static_max} vs adaptive {mpft_adaptive_max}"
        );
    }

    #[test]
    fn stall_pays_the_repair_time() {
        let r = run(seed(), &mut Recorder::disabled());
        let p = NetChaosParams::default();
        for row in r.rows.iter().filter(|w| w.fabric == "mpft2" && w.policy == "stall") {
            assert!(
                row.makespan_us > p.repair_us,
                "stalled flows cannot finish before repair: {} µs",
                row.makespan_us
            );
            assert_eq!(row.stranded, 0, "stall waits instead of stranding (no deadline)");
        }
    }

    #[test]
    fn every_arm_conserves_bytes() {
        let r = run(seed(), &mut Recorder::disabled());
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            assert!(row.bytes_balanced, "{} {} f={}", row.fabric, row.policy, row.fail_fraction);
            assert_eq!(row.completed + row.stranded, 16, "every flow either completes or strands");
        }
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = run(7, &mut Recorder::disabled());
        let b = run(7, &mut Recorder::disabled());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "byte-reproducible per seed"
        );
    }

    #[test]
    fn render_covers_every_fabric_and_arm() {
        let r = run(seed(), &mut Recorder::disabled());
        let t = render(&r);
        assert_eq!(t.rows.len(), r.fabrics.len() + r.rows.len());
        for name in ["mpft2", "ft3", "slimfly", "dragonfly"] {
            assert!(t.rows.iter().any(|row| row[0] == name));
        }
    }

    #[test]
    fn instrumented_sweep_reproduces_plain_report_with_chaos_trace() {
        let mut rec = Recorder::new();
        let instrumented = run(seed(), &mut rec);
        assert_eq!(
            serde_json::to_string(&instrumented).unwrap(),
            serde_json::to_string(&run(seed(), &mut Recorder::disabled())).unwrap(),
            "telemetry must not perturb the sweep"
        );
        let events = rec.events();
        assert!(events.iter().any(|e| e.ph == "i" && e.name.starts_with("fail link")));
        assert!(events.iter().any(|e| e.ph == "i" && e.name.starts_with("heal link")));
        assert!(rec
            .counters()
            .keys()
            .any(|k| k.starts_with("mpft2.adaptive.") && k.ends_with(".chaos.reroutes")));
    }
}
