//! Test oracle: the global max-min re-solve the incremental
//! [`crate::maxmin::MaxMinSolver`] replaced.
//!
//! [`max_min_rates_for`] is the original progressive-filling kernel (a
//! full link scan per bottleneck) and [`run_global`] the original
//! single-path event loop, which re-solves every active flow at every
//! event. Differential tests compare the one event loop (`ChaosSim`'s,
//! which `FlowSim` runs) and its solver against both by `to_bits`.

use crate::sim::{FlowId, Link, LinkId, SimReport};

/// Progressive-filling max-min allocation over `links` for flows following
/// `paths`: each iteration scans every link for the lowest fair share
/// (strict `<`, so ties go to the lowest link id).
pub(crate) fn max_min_rates_for(links: &[Link], paths: &[&[LinkId]]) -> Vec<f64> {
    let mut rates = vec![0f64; paths.len()];
    let mut remaining_cap: Vec<f64> = links.iter().map(|l| l.capacity_gbps).collect();
    let mut unfrozen: Vec<bool> = paths.iter().map(|p| !p.is_empty()).collect();
    // Per-link index of crossing flows (positions into `paths`), plus a
    // live count of still-unfrozen flows per link.
    let mut on_link: Vec<Vec<usize>> = vec![Vec::new(); links.len()];
    let mut count = vec![0usize; links.len()];
    for (i, path) in paths.iter().enumerate() {
        for &l in *path {
            on_link[l].push(i);
            count[l] += 1;
        }
    }
    // Progressive filling: repeatedly saturate the link with the lowest
    // fair share and freeze its flows. Flows with an empty path
    // (pure-latency messages) are handled by the caller.
    loop {
        let mut bottleneck: Option<(LinkId, f64)> = None;
        for (l, &c) in count.iter().enumerate() {
            if c > 0 {
                let fair = remaining_cap[l] / c as f64;
                if bottleneck.is_none_or(|(_, bf)| fair < bf) {
                    bottleneck = Some((l, fair));
                }
            }
        }
        let Some((bl, fair)) = bottleneck else { break };
        for &i in &on_link[bl] {
            if unfrozen[i] {
                rates[i] = fair;
                unfrozen[i] = false;
                for &l in paths[i] {
                    remaining_cap[l] = (remaining_cap[l] - fair).max(0.0);
                    count[l] -= 1;
                }
            }
        }
    }
    rates
}

/// One flow of a [`run_global`] simulation, as `FlowSim::add_flow` takes it.
#[derive(Debug, Clone)]
pub(crate) struct OracleFlow {
    pub(crate) path: Vec<LinkId>,
    pub(crate) bytes: f64,
    pub(crate) start_us: f64,
    pub(crate) latency_us: f64,
}

struct FlowState {
    path: Vec<LinkId>,
    bytes_remaining: f64,
    start_us: f64,
    latency_us: f64,
    finish_us: Option<f64>,
}

/// The original single-path `FlowSim::run` loop: a global
/// [`max_min_rates_for`] re-solve over all active flows at every event.
pub(crate) fn run_global(links: &[Link], specs: &[OracleFlow]) -> SimReport {
    let mut flows: Vec<FlowState> = specs
        .iter()
        .map(|s| FlowState {
            path: s.path.clone(),
            bytes_remaining: s.bytes,
            start_us: s.start_us,
            latency_us: s.latency_us,
            finish_us: None,
        })
        .collect();
    assert!(!flows.is_empty(), "no flows to simulate");
    const EPS: f64 = 1e-9;
    let mut now = 0f64;
    loop {
        let active: Vec<FlowId> = (0..flows.len())
            .filter(|&f| flows[f].finish_us.is_none() && flows[f].start_us <= now + EPS)
            .collect();
        let pending_arrival = flows
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
            if flows[f].bytes_remaining <= EPS {
                let fl = &mut flows[f];
                fl.finish_us = Some(now + fl.latency_us);
                finished_any = true;
            }
        }
        if finished_any {
            continue;
        }
        let paths: Vec<&[LinkId]> = active.iter().map(|&f| flows[f].path.as_slice()).collect();
        let rates = max_min_rates_for(links, &paths);
        // Next event: earliest completion or next arrival.
        let mut next_done = f64::INFINITY;
        for (i, &f) in active.iter().enumerate() {
            if rates[i] > 0.0 {
                let us = flows[f].bytes_remaining / (rates[i] * 1000.0);
                next_done = next_done.min(now + us);
            }
        }
        let horizon = next_done.min(pending_arrival);
        assert!(horizon.is_finite(), "simulation cannot progress (all rates zero)");
        let dt = horizon - now;
        for (i, &f) in active.iter().enumerate() {
            let moved = rates[i] * 1000.0 * dt;
            let fl = &mut flows[f];
            fl.bytes_remaining = (fl.bytes_remaining - moved).max(0.0);
            if fl.bytes_remaining <= EPS.max(1e-6 * moved) {
                fl.bytes_remaining = 0.0;
                fl.finish_us = Some(horizon + fl.latency_us);
            }
        }
        now = horizon;
    }
    let finish_us: Vec<f64> =
        // lint:allow(P1) — the progress loop above cannot exit until every flow's finish_us is set; a silent default would fabricate a makespan
        flows.iter().map(|f| f.finish_us.expect("finished")).collect();
    let makespan_us = finish_us.iter().copied().fold(0.0, f64::max);
    SimReport { finish_us, makespan_us }
}

mod tests {
    use super::*;
    use crate::chaos::{
        ChaosConfig, ChaosReport, ChaosSim, LinkFlap, LinkSchedule, ReroutePolicy, RetransmitConfig,
    };
    use crate::maxmin::{max_min_rates, MaxMinSolver, SolverWork};
    use crate::FlowSim;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Few distinct capacities, so fair shares tie often.
    const CAPS: [f64; 4] = [10.0, 25.0, 50.0, 100.0];

    /// `groups` disjoint link groups (so flows form several components),
    /// each of 1..=4 links; with `symmetric` every link has the same
    /// capacity. `dead` is the chance a link has capacity ±0.
    fn random_links(rng: &mut StdRng, dead: f64) -> (Vec<Link>, Vec<Vec<LinkId>>) {
        let symmetric = rng.gen_bool(0.3);
        let base = CAPS[rng.gen_range(0..CAPS.len())];
        let mut links = Vec::new();
        let mut groups = Vec::new();
        for _ in 0..rng.gen_range(1..=4) {
            let mut group = Vec::new();
            for _ in 0..rng.gen_range(1..=4) {
                let cap = if rng.gen_bool(dead) {
                    // Both zeros: a `-0.0` share must tie with `+0.0`.
                    [0.0, -0.0][rng.gen_range(0..2usize)]
                } else if symmetric {
                    base
                } else {
                    CAPS[rng.gen_range(0..CAPS.len())]
                };
                group.push(links.len());
                links.push(Link { capacity_gbps: cap });
            }
            groups.push(group);
        }
        (links, groups)
    }

    /// A path of up to `max_len` links of one group (repeats allowed).
    fn random_path(rng: &mut StdRng, groups: &[Vec<LinkId>], max_len: usize) -> Vec<LinkId> {
        let group = &groups[rng.gen_range(0..groups.len())];
        (0..rng.gen_range(0..=max_len)).map(|_| group[rng.gen_range(0..group.len())]).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Random flows over `groups` for the event loops: empty paths only
    /// on zero-byte messages (a stuck flow never finishes), staggered
    /// arrivals, and tied sizes.
    fn random_flows(rng: &mut StdRng, groups: &[Vec<LinkId>]) -> Vec<OracleFlow> {
        (0..rng.gen_range(1..=24))
            .map(|_| {
                let mut path = random_path(rng, groups, 3);
                let zero = path.is_empty() || rng.gen_bool(0.1);
                if path.is_empty() && rng.gen_bool(0.5) {
                    path = random_path(rng, groups, 3);
                }
                OracleFlow {
                    path,
                    bytes: if zero {
                        0.0
                    } else {
                        [1e5, 2.5e5, 1e6, 3e6][rng.gen_range(0..4usize)]
                    },
                    start_us: [0.0, 0.0, 5.0, 12.5, 40.0][rng.gen_range(0..5usize)],
                    latency_us: [0.0, 0.5, 2.8][rng.gen_range(0..3usize)],
                }
            })
            .collect()
    }

    fn flow_sim(links: &[Link], flows: &[OracleFlow]) -> FlowSim {
        let mut sim = FlowSim::new(links.to_vec());
        for f in flows {
            sim.add_flow(f.path.clone(), f.bytes, f.start_us, f.latency_us);
        }
        sim
    }

    fn assert_reports_bit_identical(got: &ChaosReport, want: &ChaosReport) {
        let finish = |r: &ChaosReport| -> Vec<Option<u64>> {
            r.flows.iter().map(|f| f.finish_us.map(f64::to_bits)).collect()
        };
        assert_eq!(finish(got), finish(want));
        // `{:?}` prints every f64 in its shortest round-trip form, so equal
        // strings mean bit-equal floats throughout the report.
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// One-shot solves and an incrementally maintained solver both
        /// match the oracle kernel on every rate: tied shares, dead links,
        /// empty paths and disjoint components included.
        #[test]
        fn solver_matches_oracle_kernel(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (links, groups) = random_links(&mut rng, 0.15);
            let n = rng.gen_range(0..=32);
            let paths: Vec<Vec<LinkId>> =
                (0..n).map(|_| random_path(&mut rng, &groups, 4)).collect();
            let refs: Vec<&[LinkId]> = paths.iter().map(Vec::as_slice).collect();
            let want = max_min_rates_for(&links, &refs);
            prop_assert_eq!(bits(&max_min_rates(&links, &refs)), bits(&want));

            let mut solver = MaxMinSolver::new(&links, n);
            for _ in 0..12 {
                for (f, path) in paths.iter().enumerate() {
                    match (solver.is_active(f), rng.gen_bool(0.3)) {
                        (false, true) => solver.activate(f, path),
                        (true, true) => solver.deactivate(f),
                        _ => {}
                    }
                }
                solver.solve();
                let active: Vec<usize> = (0..n).filter(|&f| solver.is_active(f)).collect();
                let refs: Vec<&[LinkId]> = active.iter().map(|&f| paths[f].as_slice()).collect();
                let want = max_min_rates_for(&links, &refs);
                let got: Vec<f64> = active.iter().map(|&f| solver.rate(f)).collect();
                prop_assert_eq!(bits(&got), bits(&want), "active {:?}", active);
            }
        }

        /// The heap solver and one that finds each bottleneck by scanning
        /// the component's links, driven in lockstep through random
        /// activations and stops, do the same work: one heap pop per
        /// bottleneck step, and the same rates.
        #[test]
        fn heap_pops_once_per_bottleneck_step(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (links, groups) = random_links(&mut rng, 0.15);
            let n = rng.gen_range(0..=32);
            let paths: Vec<Vec<LinkId>> =
                (0..n).map(|_| random_path(&mut rng, &groups, 4)).collect();
            let mut heap = MaxMinSolver::new(&links, n);
            let mut scan = MaxMinSolver::scanning(&links, n);
            for _ in 0..12 {
                for (f, path) in paths.iter().enumerate() {
                    match (heap.is_active(f), rng.gen_bool(0.3)) {
                        (false, true) => {
                            heap.activate(f, path);
                            scan.activate(f, path);
                        }
                        (true, true) => {
                            heap.deactivate(f);
                            scan.deactivate(f);
                        }
                        _ => {}
                    }
                }
                heap.solve();
                scan.solve();
                prop_assert_eq!(heap.work, scan.work);
                prop_assert_eq!(bits(heap.rates()), bits(scan.rates()));
            }
        }

        /// `FlowSim::run` matches the global re-solve loop on every finish
        /// time.
        #[test]
        fn flowsim_run_matches_global_resolve(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (links, groups) = random_links(&mut rng, 0.0);
            let flows = random_flows(&mut rng, &groups);
            let got = flow_sim(&links, &flows).run();
            let want = run_global(&links, &flows);
            prop_assert_eq!(bits(&got.finish_us), bits(&want.finish_us));
            prop_assert_eq!(got.makespan_us.to_bits(), want.makespan_us.to_bits());
        }

        /// `ChaosSim::run` under random link schedules, every reroute
        /// policy and optional deadlines matches the same engine with a
        /// global oracle re-solve at every event.
        #[test]
        fn chaos_run_matches_global_resolve(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (links, groups) = random_links(&mut rng, 0.0);
            let mut sim = ChaosSim::new(links.clone());
            for f in random_flows(&mut rng, &groups) {
                let mut paths = vec![f.path];
                // Alternatives are never empty: a stuck flow never finishes.
                for _ in 0..rng.gen_range(0..3) {
                    let mut alt = random_path(&mut rng, &groups, 3);
                    while alt.is_empty() {
                        alt = random_path(&mut rng, &groups, 3);
                    }
                    paths.push(alt);
                }
                sim.add_flow(paths, f.bytes, f.start_us, f.latency_us);
            }
            let schedule = LinkSchedule {
                flaps: (0..rng.gen_range(0..6))
                    .map(|_| LinkFlap {
                        link: rng.gen_range(0..links.len()),
                        down_at_us: rng.gen_range(0.0..100.0),
                        repair_us: rng.gen_range(5.0..60.0),
                    })
                    .collect(),
            };
            for policy in [
                ReroutePolicy::Stall,
                ReroutePolicy::StaticRehash { seed },
                ReroutePolicy::Adaptive,
            ] {
                let cfg = ChaosConfig {
                    schedule: schedule.clone(),
                    policy,
                    retransmit: RetransmitConfig {
                        detect_timeout_us: 3.0,
                        backoff_base_us: 2.0,
                        inflight_window_bytes: 2e5,
                        ..RetransmitConfig::default()
                    },
                    deadline_us: rng.gen_bool(0.3).then_some(150.0),
                };
                let n = sim.flow_count();
                let run = |solver| sim.report(&cfg, &sim.simulate(&cfg, solver).0, None);
                let want = run(MaxMinSolver::global_oracle(&links, n));
                assert_reports_bit_identical(&run(MaxMinSolver::new(&links, n)), &want);
            }
        }
    }

    /// With an empty schedule, no deadline and single-path flows, the event
    /// loop reproduces the global re-solve reference bit-for-bit under every
    /// policy.
    #[test]
    fn empty_schedule_bit_identical_to_global_resolve() {
        let links: Vec<Link> =
            [40.0, 100.0, 25.0].iter().map(|&c| Link { capacity_gbps: c }).collect();
        let flows: Vec<OracleFlow> = [
            (vec![0, 1], 1e6, 0.0, 3.0),
            (vec![0], 2.5e6, 0.0, 0.5),
            (vec![1, 2], 7e5, 12.0, 1.0),
            (vec![2], 0.0, 5.0, 2.8), // pure-latency message
            (vec![0, 2], 3e6, 40.0, 0.0),
        ]
        .into_iter()
        .map(|(path, bytes, start_us, latency_us)| OracleFlow { path, bytes, start_us, latency_us })
        .collect();
        let want = run_global(&links, &flows);
        for policy in [
            ReroutePolicy::Stall,
            ReroutePolicy::StaticRehash { seed: 99 },
            ReroutePolicy::Adaptive,
        ] {
            let mut sim = ChaosSim::new(links.clone());
            for f in &flows {
                sim.add_flow(vec![f.path.clone()], f.bytes, f.start_us, f.latency_us);
            }
            let report = sim.run(&ChaosConfig { policy, ..ChaosConfig::default() });
            assert_eq!(report.stranded, 0);
            assert_eq!(report.retransmitted_bytes, 0.0);
            assert_eq!(report.total_reroutes, 0);
            let got = report.to_sim_report().expect("all complete");
            assert_eq!(bits(&got.finish_us), bits(&want.finish_us));
            assert_eq!(got.makespan_us.to_bits(), want.makespan_us.to_bits());
        }
    }

    /// A completion in one of two disjoint components re-solves only that
    /// component's flows: link 0 carries flows of 1 and 2 MB, link 1 three
    /// of 9 MB. The start solves all five; the 1 MB completion at 20 µs
    /// re-solves the one flow left on link 0; the other completions leave
    /// nothing to re-solve. A global re-solve would do 5 + 4 + 3.
    #[test]
    fn completion_resolves_only_its_component() {
        let links = [Link { capacity_gbps: 100.0 }, Link { capacity_gbps: 100.0 }];
        let mut sim = FlowSim::new(links.to_vec());
        sim.add_flow(vec![0], 1e6, 0.0, 0.0);
        sim.add_flow(vec![0], 2e6, 0.0, 0.0);
        for _ in 0..3 {
            sim.add_flow(vec![1], 9e6, 0.0, 0.0);
        }
        let (report, work) = sim.run_impl();
        assert_eq!(report.finish_us, vec![20.0, 30.0, 270.0, 270.0, 270.0]);
        assert_eq!(work, SolverWork { events: 3, solves: 2, flows_resolved: 6, heap_pops: 3 });
    }

    /// The flows of one Figure 7 DeepEP round at `nodes` nodes (seed 7), as
    /// `collectives::deepep::run_round` issues them, with the fabric's
    /// links: one flow per plane for each node pair with IB copies, one per
    /// GPU pair with NVLink copies.
    fn fig7_round(nodes: usize, copy_bytes: impl Fn(f64) -> f64) -> (Vec<Link>, Vec<OracleFlow>) {
        use dsv3_collectives::deepep::{generate_traffic, EpConfig};
        use dsv3_collectives::{Cluster, ClusterConfig, FabricKind};

        let cluster = Cluster::new(ClusterConfig::h800(nodes, FabricKind::MultiPlane));
        let ep = EpConfig { tokens_per_gpu: 1024, seed: 7, ..EpConfig::deepseek_v3() };
        let traffic = generate_traffic(&cluster, &ep);
        let locals = cluster.cfg.gpus_per_node;
        let fabric = cluster.sim();
        let links: Vec<Link> =
            (0..fabric.links()).map(|l| Link { capacity_gbps: fabric.capacity(l) }).collect();
        let mut flows = Vec::new();
        let bytes_per_copy = copy_bytes(ep.hidden as f64);
        for a in 0..nodes {
            for b in 0..nodes {
                let copies = traffic.ib_copies[a][b];
                if a != b && copies > 0 {
                    let bytes = copies as f64 * bytes_per_copy / locals as f64;
                    for plane in 0..locals {
                        let (path, latency_us) = cluster.plane_path(a, b, plane);
                        flows.push(OracleFlow { path, bytes, start_us: 0.0, latency_us });
                    }
                }
            }
        }
        for node in 0..nodes {
            for i in 0..locals {
                for j in 0..locals {
                    let copies = traffic.nvl_copies[node][i][j];
                    if i != j && copies > 0 {
                        let (path, latency_us) =
                            cluster.nvlink_path(cluster.gpu(node, i), cluster.gpu(node, j));
                        let bytes = copies as f64 * bytes_per_copy;
                        flows.push(OracleFlow { path, bytes, start_us: 0.0, latency_us });
                    }
                }
            }
        }
        (links, flows)
    }

    /// Pins the solver's work on the 4-node Figure 7 dispatch round (seed
    /// 7): a revert to global re-solves, a scope that grows, or a heap that
    /// pops more than once per bottleneck step fails here exactly rather
    /// than on timing.
    #[test]
    fn deepep_round_resolve_work_is_pinned() {
        let (links, flows) = fig7_round(4, |hidden| hidden);
        assert_eq!(flows.len(), 320);
        let (report, work) = flow_sim(&links, &flows).run_impl();
        assert_eq!(bits(&report.finish_us), bits(&run_global(&links, &flows).finish_us));
        assert_eq!(
            work,
            SolverWork { events: 202, solves: 192, flows_resolved: 5_953, heap_pops: 1_701 }
        );
        let mut chaos = ChaosSim::new(links.clone());
        for f in &flows {
            chaos.add_flow(vec![f.path.clone()], f.bytes, f.start_us, f.latency_us);
        }
        let cfg = ChaosConfig { policy: ReroutePolicy::Stall, ..ChaosConfig::default() };
        let n = flows.len();
        // Bottleneck steps counted by scanning each component's links: the
        // heap pops exactly once per step, with no stale entries.
        let (_, steps) = chaos.simulate(&cfg, MaxMinSolver::scanning(&links, n));
        assert_eq!(steps, work);
        // The same round with a global re-solve at every event.
        let (_, global) = chaos.simulate(&cfg, MaxMinSolver::global_oracle(&links, n));
        assert_eq!(
            global,
            SolverWork { events: 202, solves: 202, flows_resolved: 40_861, heap_pops: 0 }
        );
    }

    /// The seed-7 16-node Figure 7 dispatch and combine rounds (2,816 flows
    /// each) finish every flow at the bit-identical instant under the one
    /// event loop and under the global re-solve loop. Slow unoptimised:
    /// `cargo test --release -p dsv3-netsim -- --ignored`.
    #[test]
    #[ignore = "release-only: a global re-solve of 2,816 flows at every event"]
    fn deepep_16_node_rounds_match_global_resolve() {
        for scale in [1.0, 2.0] {
            let (links, flows) = fig7_round(16, |hidden| scale * hidden);
            assert_eq!(flows.len(), 2_816);
            let got = flow_sim(&links, &flows).run();
            let want = run_global(&links, &flows);
            assert_eq!(bits(&got.finish_us), bits(&want.finish_us), "copy bytes x{scale}");
        }
    }
}
