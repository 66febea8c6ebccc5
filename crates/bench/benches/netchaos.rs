//! Benchmark the flow simulator's event loop: ChaosSim on a fault-free
//! workload (the configuration `FlowSim::run` uses), ChaosSim under a
//! flapping schedule, and the full net-chaos registry sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use dsv3_core::experiments::net_chaos;
use dsv3_core::netsim::chaos::{ChaosConfig, LinkFlap, LinkSchedule, ReroutePolicy};
use dsv3_core::netsim::{ChaosSim, Link};
use dsv3_core::telemetry::Recorder;
use std::collections::BTreeSet;
use std::hint::black_box;

const LINKS: usize = 64;
const FLOWS: usize = 128;
const BYTES: f64 = 25e6;

fn links() -> Vec<Link> {
    (0..LINKS).map(|l| Link { capacity_gbps: 40.0 + (l % 5) as f64 * 20.0 }).collect()
}

/// Deterministic 3-hop paths with distinct links (a path must not cross
/// the same link twice or load accounting double-counts).
fn path(f: usize) -> Vec<usize> {
    let set: BTreeSet<usize> =
        [f % LINKS, (f * 7 + 3) % LINKS, (f * 13 + 11) % LINKS].into_iter().collect();
    set.into_iter().collect()
}

fn chaos_sim() -> ChaosSim {
    let mut sim = ChaosSim::new(links());
    for f in 0..FLOWS {
        sim.add_flow(vec![path(f)], BYTES, 0.0, 2.0);
    }
    sim
}

/// `Stall` on the home path with an empty schedule: the configuration
/// `FlowSim::run` runs the loop under.
fn fault_free() -> ChaosConfig {
    ChaosConfig { policy: ReroutePolicy::Stall, ..ChaosConfig::default() }
}

fn flapping() -> ChaosConfig {
    let flaps = (0..16)
        .map(|i| LinkFlap {
            link: (i * 11 + 5) % LINKS,
            down_at_us: 50.0 + i as f64 * 40.0,
            repair_us: 300.0,
        })
        .collect();
    ChaosConfig { schedule: LinkSchedule { flaps }, ..ChaosConfig::default() }
}

fn bench_netchaos(c: &mut Criterion) {
    println!(
        "{}",
        net_chaos::render(&net_chaos::run(net_chaos::seed(), &mut Recorder::disabled()))
    );

    let mut g = c.benchmark_group("netchaos");
    g.sample_size(10);
    g.bench_function("chaossim_128_flows_fault_free", |b| {
        let cfg = fault_free();
        b.iter(|| black_box(chaos_sim().run(&cfg)))
    });
    g.bench_function("chaossim_128_flows_flapping", |b| {
        let cfg = flapping();
        b.iter(|| black_box(chaos_sim().run(&cfg)))
    });
    g.bench_function("net_chaos_full_sweep", |b| {
        b.iter(|| black_box(net_chaos::run(net_chaos::seed(), &mut Recorder::disabled())))
    });
    g.finish();
}

criterion_group!(benches, bench_netchaos);
criterion_main!(benches);
