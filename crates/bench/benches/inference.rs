//! Regenerate and benchmark the inference-side analyses.

use criterion::{criterion_group, criterion_main, Criterion};
use dsv3_core::experiments::{local_deploy, mtp, node_limited, speed_limits};
use dsv3_core::inference::kvcache::KvCacheManager;
use dsv3_core::inference::overlap::{simulate, LayerPhases};
use dsv3_core::model::zoo;
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    println!("{}", speed_limits::render(&speed_limits::run()));
    println!("{}", mtp::render(&mtp::run()));
    println!("{}", node_limited::render(&node_limited::run(2000)));
    println!("{}", local_deploy::render(&local_deploy::run()));

    let mut g = c.benchmark_group("inference");
    g.bench_function("speed_limits", |b| b.iter(|| black_box(speed_limits::run())));
    g.bench_function("mtp_simulation", |b| {
        b.iter(|| black_box(dsv3_core::model::mtp::simulate(0.85, 1, 10_000, 7)))
    });
    g.bench_function("overlap_61_layers", |b| {
        let p = LayerPhases { attn_us: 60.0, dispatch_us: 121.0, moe_us: 40.0, combine_us: 121.0 };
        b.iter(|| black_box(simulate(61, p)))
    });
    g.bench_function("kvcache_admit_release", |b| {
        b.iter(|| {
            let mut m = KvCacheManager::new(&zoo::deepseek_v3(), 2, 40_000_000_000);
            for i in 0..100 {
                m.admit(i, 1000).unwrap();
                m.append_token(i).unwrap();
            }
            for i in 0..100 {
                m.release(i).unwrap();
            }
            black_box(m.live_requests())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
