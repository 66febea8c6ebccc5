//! Benchmark the fault-injection layer: plan generation, the serving
//! engine under a fault timeline (against its healthy baseline, to price
//! the hook overhead), and the checkpoint/restart goodput walk.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsv3_core::experiments::fault_drill;
use dsv3_core::faults::{simulate_goodput, FaultPlan, FaultPlanConfig, RecoveryPolicy};
use dsv3_core::model::availability::AvailabilityModel;
use dsv3_core::serving::{run, run_with_faults, ArrivalProcess, RouterPolicy, ServingSimConfig};
use dsv3_core::telemetry::Recorder;
use std::hint::black_box;

fn drill_plan(seed: u64) -> FaultPlan {
    FaultPlan::generate(&FaultPlanConfig {
        seed,
        horizon_ms: 60_000.0,
        crash_mtbf_ms: 15_000.0,
        crash_repair_ms: 4_000.0,
        flap_mtbf_ms: 20_000.0,
        flap_repair_ms: 5_000.0,
        straggler_mtbf_ms: 25_000.0,
        sdc_mtbf_ms: 20_000.0,
        ..FaultPlanConfig::default()
    })
}

fn bench_faults(c: &mut Criterion) {
    println!(
        "{}",
        fault_drill::render(&fault_drill::run(fault_drill::seed(), &mut Recorder::disabled()))
    );

    let mut g = c.benchmark_group("faults");
    g.sample_size(10);

    g.bench_function("plan_generate_60s", |b| b.iter(|| black_box(drill_plan(7))));

    let cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 10.0 },
        300,
        RouterPolicy::Unified,
    );
    let empty = FaultPlan::healthy();
    let plan = drill_plan(7);
    g.bench_function("serve_300_healthy", |b| b.iter(|| black_box(run(&cfg))));
    g.bench_with_input(BenchmarkId::new("serve_300_with_faults", "empty"), &empty, |b, p| {
        b.iter(|| black_box(run_with_faults(&cfg, p, &RecoveryPolicy::default())))
    });
    g.bench_with_input(BenchmarkId::new("serve_300_with_faults", "drill"), &plan, |b, p| {
        b.iter(|| black_box(run_with_faults(&cfg, p, &RecoveryPolicy::hedged())))
    });

    let av = AvailabilityModel { mtbf_s: 3_600.0, checkpoint_write_s: 60.0, restart_s: 180.0 };
    let timeline = FaultPlan::generate(&FaultPlanConfig {
        seed: 3,
        horizon_ms: av.mtbf_s * 8_000.0 * 1_000.0,
        replicas: 1,
        planes: 1,
        crash_mtbf_ms: av.mtbf_s * 1_000.0,
        crash_repair_ms: 0.0,
        ..FaultPlanConfig::default()
    })
    .crash_times_s();
    let tau = av.young_daly_interval_s();
    g.bench_function("goodput_walk_2000_failures", |b| {
        b.iter(|| black_box(simulate_goodput(&av, tau, &timeline, av.mtbf_s * 2_000.0).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);
