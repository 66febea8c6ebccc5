//! Benchmark the request-level serving simulator: workload generation,
//! a full unified-pool run, and the policy-comparison experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsv3_core::experiments::serving as serving_experiment;
use dsv3_core::serving::{run, workload, ArrivalProcess, RouterPolicy, ServingSimConfig};
use dsv3_core::telemetry::Recorder;
use std::hint::black_box;

fn bench_serving(c: &mut Criterion) {
    println!("{}", serving_experiment::render(&serving_experiment::run(&mut Recorder::disabled())));

    let mut g = c.benchmark_group("serving");
    g.sample_size(10);

    let cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 12.0 },
        300,
        RouterPolicy::Unified,
    );
    g.bench_function("workload_300", |b| b.iter(|| black_box(workload::generate(&cfg.workload))));
    for rate in [6.0, 12.0, 24.0] {
        let swept = ServingSimConfig::h800_baseline(
            ArrivalProcess::Poisson { rate_per_s: rate },
            300,
            RouterPolicy::Unified,
        );
        g.bench_with_input(BenchmarkId::new("simulate_300", rate), &swept, |b, cfg| {
            b.iter(|| black_box(run(cfg)))
        });
    }
    g.bench_function("experiment_comparison", |b| {
        b.iter(|| black_box(serving_experiment::run(&mut Recorder::disabled())))
    });
    g.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
