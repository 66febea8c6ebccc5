//! Regenerate and benchmark Tables 1–5.

use criterion::{criterion_group, criterion_main, Criterion};
use dsv3_core::experiments::{table1, table2, table3, table4, table5};
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    // Print each regenerated table once so `cargo bench` output contains the
    // paper's rows.
    println!("{}", table1::render(&table1::run()));
    println!("{}", table2::render(&table2::run()));
    println!("{}", table3::render(&table3::run()));
    println!("{}", table4::render(&table4::run()));
    println!("{}", table5::render(&table5::run()));

    let mut g = c.benchmark_group("tables");
    g.bench_function("table1_kv_cache", |b| b.iter(|| black_box(table1::run())));
    g.bench_function("table2_flops", |b| b.iter(|| black_box(table2::run())));
    g.bench_function("table3_topology", |b| b.iter(|| black_box(table3::run())));
    g.bench_function("table4_training", |b| b.iter(|| black_box(table4::run())));
    g.bench_function("table5_latency", |b| b.iter(|| black_box(table5::run())));
    g.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
