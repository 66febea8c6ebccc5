//! Robustness drill (§5.1.1, §6.1): one seeded fault timeline driving
//! time-varying plane flaps, serving-under-faults, spine failures, and
//! silent-data-corruption audits.
//!
//! Faults here arrive *during* the run — a `FaultPlan` generated from
//! seeded Poisson processes — instead of the static failed-plane counts
//! the original drill used.
//!
//! ```sh
//! cargo run --release --example failure_drill
//! ```

use dsv3_core::collectives::failures::alltoall_with_failed_planes;
use dsv3_core::collectives::{Cluster, ClusterConfig, FabricKind};
use dsv3_core::experiments::robustness;
use dsv3_core::faults::{FaultKind, FaultPlan, FaultPlanConfig, RecoveryPolicy};
use dsv3_core::numerics::integrity::{
    audit, correct, inject_bit_flip, protected_matmul, IntegrityReport,
};
use dsv3_core::numerics::Matrix;
use dsv3_core::serving::{run_with_faults, ArrivalProcess, RouterPolicy, ServingSimConfig};
use dsv3_core::topology::fattree::LeafSpine;
use dsv3_core::topology::routing::{
    assign_spines_with_failures, load_report, FlowSpec, RoutePolicy,
};

fn main() {
    println!("{}", robustness::render(&robustness::plane_failures()));

    // One seeded timeline drives every drill below.
    let plan = FaultPlan::generate(&FaultPlanConfig {
        seed: 42,
        horizon_ms: 60_000.0,
        replicas: 4,
        planes: 8,
        crash_mtbf_ms: 15_000.0,
        crash_repair_ms: 4_000.0,
        flap_mtbf_ms: 12_000.0,
        flap_repair_ms: 8_000.0,
        straggler_mtbf_ms: 30_000.0,
        straggler_slowdown: 1.8,
        straggler_duration_ms: 3_000.0,
        sdc_mtbf_ms: 20_000.0,
        sdc_detection_rate: 0.7,
        // Link-granular chaos stays off here; `dsv3 net-chaos` owns it.
        ..FaultPlanConfig::default()
    });
    println!("Fault plan: {} events over 60 s (seed 42):", plan.events.len());
    for e in &plan.events {
        let what = match e.kind {
            FaultKind::ReplicaCrash { replica, repair_ms } => {
                format!("replica {replica} crashes ({repair_ms:.0} ms repair)")
            }
            FaultKind::PlaneFlap { plane, repair_ms } => {
                format!("plane {plane} flaps ({repair_ms:.0} ms repair)")
            }
            FaultKind::Straggler { slowdown, duration_ms } => {
                format!("straggler x{slowdown:.1} for {duration_ms:.0} ms")
            }
            FaultKind::Sdc { detected } => {
                format!("SDC strike ({})", if detected { "caught by audit" } else { "silent" })
            }
            FaultKind::LinkFail { link, repair_ms } => {
                format!("link {link} fails ({repair_ms:.0} ms repair)")
            }
        };
        println!("  t={:>7.0} ms  {what}", e.at_ms);
    }
    println!();

    // Drill 1: the plan's flaps as a time-varying retention function,
    // measured on the 32-GPU multi-plane fabric at every change point.
    let sched = plan.flap_schedule();
    let c = Cluster::new(ClusterConfig::h800(4, FabricKind::MultiPlane));
    println!("Time-varying plane flaps (32 GPUs, 1 MB/peer all-to-all):");
    for t in std::iter::once(0.0).chain(sched.change_points_ms()) {
        let failed = sched.failed_planes_at(t);
        let r = alltoall_with_failed_planes(&c, 1024.0 * 1024.0, &failed);
        println!(
            "  t={t:>7.0} ms: {}/8 planes down, {:>5.1} GB/s busbw ({:>5.1}% retained)",
            failed.len(),
            r.degraded.busbw_gbps,
            r.bandwidth_retention * 100.0
        );
    }
    println!();

    // Drill 2: serve a live request stream straight through the timeline.
    let cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 10.0 },
        300,
        RouterPolicy::Unified,
    );
    let r = run_with_faults(&cfg, &plan, &RecoveryPolicy::hedged());
    println!("Serving through the timeline (300 requests, hedged recovery):");
    println!(
        "  completed {} / rejected {} / unfinished {}; {} jobs lost to crashes, {} retries, {} hedges ({} won)",
        r.serving.completed,
        r.faults.rejected,
        r.faults.unfinished,
        r.faults.jobs_lost_to_crashes,
        r.faults.retries,
        r.faults.hedges_spawned,
        r.faults.hedge_wins
    );
    println!(
        "  {} degraded steps (min retention {:.1}%), TPOT p99 {:.2} ms, SLO attainment {:.1}%",
        r.faults.degraded_steps,
        r.faults.min_bandwidth_retention * 100.0,
        r.serving.tpot_ms.p99,
        r.serving.slo_attainment * 100.0
    );
    println!();

    // Drill 3: spine failure under each routing policy.
    let ls = LeafSpine { leaves: 8, spines: 8, hosts_per_leaf: 8 };
    let flows: Vec<FlowSpec> = (0..64).map(|i| FlowSpec { src: i, dst: (i + 8) % 64 }).collect();
    println!("Spine-failure drill (2 of 8 spines down, shift permutation):");
    for (name, policy) in [
        ("ECMP", RoutePolicy::Ecmp { seed: 1 }),
        ("Adaptive", RoutePolicy::Adaptive),
        ("Static", RoutePolicy::StaticBySource),
    ] {
        let a = assign_spines_with_failures(&ls, &flows, policy, &[0, 1]);
        let rep = load_report(&ls, &flows, &a);
        println!(
            "  {name:<9} max link load {} ({:.0}% of ideal throughput)",
            rep.max_link_load,
            rep.throughput_fraction() * 100.0
        );
    }
    println!();

    // Drill 4: replay the plan's SDC strikes against a checksummed GEMM —
    // detected strikes are audited and repaired, silent ones get through.
    let a = Matrix::random(32, 64, 1.0, 7);
    let b = Matrix::random(64, 24, 1.0, 8);
    println!("SDC drill (checksummed 32x64x24 GEMM, strikes from the plan):");
    for (i, e) in plan.events.iter().filter(|e| matches!(e.kind, FaultKind::Sdc { .. })).enumerate()
    {
        let FaultKind::Sdc { detected } = e.kind else { unreachable!() };
        if !detected {
            println!("  t={:>7.0} ms: silent strike — corrupted result ships", e.at_ms);
            continue;
        }
        let (mut cmat, sums) = protected_matmul(&a, &b);
        inject_bit_flip(&mut cmat, (13 + i) % 32, (5 + i) % 24, 26);
        match audit(&cmat, &sums) {
            IntegrityReport::Corrupted { row, col, .. } => {
                correct(&mut cmat, &a, &b, row, col);
                println!(
                    "  t={:>7.0} ms: flip caught at ({row},{col}), recomputed; post-repair audit: {:?}",
                    e.at_ms,
                    audit(&cmat, &sums)
                );
            }
            other => println!("  t={:>7.0} ms: unexpected audit result {other:?}", e.at_ms),
        }
    }
}
