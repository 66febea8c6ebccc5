//! Benchmark the overload-robustness layer: a fault-aware baseline run,
//! the same run through `run_overload` with every subsystem disabled
//! (the zero-cost-when-off claim), and the full admission + ladder +
//! clients + autoscale stack. Writes `BENCH_overload.json` at the repo
//! root and asserts the disabled path stays within 1.2x of the
//! baseline — the overload layer must be free when it is off.

use dsv3_bench::{time_ns, write_artifact, REPO_ROOT};
use dsv3_core::faults::{FaultPlan, RecoveryPolicy};
use dsv3_core::serving::{
    run_overload, run_with_faults, AdmissionConfig, ArrivalProcess, AutoscaleConfig, ClientConfig,
    LadderConfig, OverloadConfig, RateLimitConfig, RouterPolicy, ServingSimConfig,
};
use std::path::Path;

fn full_stack() -> OverloadConfig {
    OverloadConfig {
        admission: Some(AdmissionConfig {
            queue_cap: 256,
            deadline_headroom: 1.0,
            rate_limit: Some(RateLimitConfig { rate_per_s_per_replica: 2.5, burst: 24.0 }),
        }),
        ladder: Some(LadderConfig::default()),
        clients: Some(ClientConfig::default()),
        autoscale: Some(AutoscaleConfig::reactive(4, 4)),
        priority_classes: 4,
        timeline_window_ms: 5_000.0,
    }
}

fn main() {
    let cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 12.0 },
        300,
        RouterPolicy::Disaggregated { prefill_fraction: 0.25 },
    );
    let plan = FaultPlan { replicas: 4, planes: 8, links: 0, events: Vec::new() };
    let policy = RecoveryPolicy::default();
    let disabled = OverloadConfig::disabled();
    let full = full_stack();

    let base_ns = time_ns(5, 4, || run_with_faults(&cfg, &plan, &policy));
    let off_ns = time_ns(5, 4, || run_overload(&cfg, &plan, &policy, &disabled));
    let full_ns = time_ns(5, 4, || run_overload(&cfg, &plan, &policy, &full));
    let off_ratio = off_ns / base_ns;
    let full_ratio = full_ns / base_ns;

    let metrics = [
        ("baseline_ns", format!("{base_ns:.0}")),
        ("disabled_overload_ns", format!("{off_ns:.0}")),
        ("full_stack_ns", format!("{full_ns:.0}")),
        ("disabled_overhead_ratio", format!("{off_ratio:.3}")),
        ("full_stack_overhead_ratio", format!("{full_ratio:.3}")),
    ];
    let path = write_artifact(Path::new(REPO_ROOT), "overload", &metrics)
        .expect("write BENCH_overload.json");
    println!("wrote {}", path.display());

    assert!(
        off_ratio <= 1.2,
        "disabled overload layer must cost <= 1.2x the baseline, measured {off_ratio:.3}x"
    );
}
