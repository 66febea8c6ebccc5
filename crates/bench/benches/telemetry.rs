//! Benchmark the telemetry layer: a disabled recorder threaded through
//! the serving engine must cost (essentially) nothing over the plain
//! path, an enabled recorder prices the full tracing overhead, and the
//! recorder primitives themselves are measured in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use dsv3_core::serving::{
    run, run_overload_traced, ArrivalProcess, OverloadConfig, OverloadServingReport, RouterPolicy,
    ServingSimConfig,
};
use dsv3_core::telemetry::Recorder;
use dsv3_core::{faults::FaultPlan, faults::RecoveryPolicy};
use std::hint::black_box;

/// The engine's traced loop with the overload layer off: what the
/// traceable experiments run.
fn traced(
    cfg: &ServingSimConfig,
    empty: &FaultPlan,
    policy: &RecoveryPolicy,
    rec: &mut Recorder,
) -> OverloadServingReport {
    run_overload_traced(cfg, empty, policy, &OverloadConfig::disabled(), rec, "bench")
}

/// Coarse guard on the disabled-recorder contract: threading a disabled
/// recorder through the engine must not meaningfully slow it down. The
/// 2x bound is generous (measured ratio ≈ 1.0) so scheduler noise on a
/// loaded CI box cannot trip it; real regressions (accidental `format!`
/// on the disabled path) are order-of-magnitude.
fn assert_disabled_overhead_negligible(
    cfg: &ServingSimConfig,
    empty: &FaultPlan,
    policy: &RecoveryPolicy,
) {
    let iters = 20;
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        black_box(run(cfg));
    }
    let plain = t0.elapsed();
    let t1 = std::time::Instant::now();
    for _ in 0..iters {
        let mut rec = Recorder::disabled();
        black_box(traced(cfg, empty, policy, &mut rec));
    }
    let disabled = t1.elapsed();
    let ratio = disabled.as_secs_f64() / plain.as_secs_f64().max(1e-9);
    println!("disabled-recorder overhead ratio: {ratio:.3}");
    assert!(ratio < 2.0, "disabled recorder must be (near) free, measured {ratio:.3}x");
}

fn bench_telemetry(c: &mut Criterion) {
    let cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 10.0 },
        300,
        RouterPolicy::Unified,
    );
    let empty = FaultPlan::healthy();
    let policy = RecoveryPolicy::default();
    assert_disabled_overhead_negligible(&cfg, &empty, &policy);

    let mut g = c.benchmark_group("telemetry");
    g.sample_size(10);

    // The three-way comparison the disabled-recorder contract rests on:
    // plain ≈ disabled ≪ enabled is acceptable; plain ≪ disabled is not.
    g.bench_function("serve_300_plain", |b| b.iter(|| black_box(run(&cfg))));
    g.bench_function("serve_300_disabled_recorder", |b| {
        b.iter(|| {
            let mut rec = Recorder::disabled();
            black_box(traced(&cfg, &empty, &policy, &mut rec))
        })
    });
    g.bench_function("serve_300_enabled_recorder", |b| {
        b.iter(|| {
            let mut rec = Recorder::new();
            black_box(traced(&cfg, &empty, &policy, &mut rec))
        })
    });

    // Primitives: what one event costs on each path.
    g.bench_function("primitives_disabled_10k", |b| {
        b.iter(|| {
            let mut rec = Recorder::disabled();
            for i in 0..10_000u64 {
                let t = i as f64;
                rec.span(0, 0, "c", "s", t, t + 1.0);
                rec.counter_add("n", 1);
                rec.observe("h", t);
            }
            black_box(rec.events().len())
        })
    });
    g.bench_function("primitives_enabled_10k", |b| {
        b.iter(|| {
            let mut rec = Recorder::new();
            let pid = rec.process("bench");
            let tid = rec.thread(pid, "t");
            for i in 0..10_000u64 {
                let t = i as f64;
                rec.span(pid, tid, "c", "s", t, t + 1.0);
                rec.counter_add("n", 1);
                rec.observe("h", t);
            }
            black_box(rec.events().len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
