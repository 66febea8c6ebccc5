//! Regenerate and benchmark Figures 5–8.

use criterion::{criterion_group, criterion_main, Criterion};
use dsv3_core::experiments::{fig5, fig6, fig7, fig8};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    println!("{}", fig5::render(&fig5::run()));
    println!("{}", fig6::render(&fig6::run()));
    // Full paper scale: 4096 tokens per GPU.
    println!("{}", fig7::render(&fig7::run(4096)));
    println!("{}", fig8::render(&fig8::run()));

    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig5_alltoall", |b| b.iter(|| black_box(fig5::run())));
    g.bench_function("fig6_latency", |b| b.iter(|| black_box(fig6::run())));
    g.bench_function("fig7_deepep", |b| b.iter(|| black_box(fig7::run(512))));
    g.bench_function("fig8_routing", |b| b.iter(|| black_box(fig8::run())));
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
