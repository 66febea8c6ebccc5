//! Regenerate and benchmark the §3 low-precision experiments.

use criterion::{criterion_group, criterion_main, Criterion};
use dsv3_core::experiments::{fp8_gemm, fp8_training, logfmt};
use dsv3_core::model::train::TrainConfig;
use dsv3_core::numerics::gemm::{gemm_fp8, Fp8GemmConfig, MainAccumulator};
use dsv3_core::numerics::logfmt::logfmt_quantize;
use dsv3_core::numerics::minifloat::Format;
use dsv3_core::numerics::Matrix;
use std::hint::black_box;

fn bench_numerics(c: &mut Criterion) {
    println!("{}", fp8_gemm::render(&fp8_gemm::run(&fp8_gemm::default_ks())));
    println!("{}", logfmt::render(&logfmt::run()));
    println!("{}", fp8_training::render(&fp8_training::run(TrainConfig::default())));

    let mut g = c.benchmark_group("numerics");
    g.sample_size(10);
    let a = Matrix::random(8, 2048, 1.0, 1);
    let b = Matrix::random(2048, 8, 1.0, 2);
    for (name, acc) in [
        ("gemm_fp8_fp22", MainAccumulator::Fp22),
        ("gemm_fp8_split_fp32", MainAccumulator::Fp32),
        ("gemm_fp8_exact", MainAccumulator::Exact),
    ] {
        g.bench_function(name, |bench| {
            bench.iter(|| {
                black_box(gemm_fp8(
                    &a,
                    &b,
                    Fp8GemmConfig { main_acc: acc, ..Fp8GemmConfig::default() },
                ))
            })
        });
    }
    let acts = logfmt::activations(8192, 3);
    g.bench_function("logfmt8_roundtrip", |b| b.iter(|| black_box(logfmt_quantize(&acts, 8))));
    g.bench_function("e4m3_quantize_8k", |b| {
        b.iter(|| {
            let mut acc = 0f64;
            for v in &acts {
                acc += Format::E4M3.quantize(f64::from(*v));
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_numerics);
criterion_main!(benches);
