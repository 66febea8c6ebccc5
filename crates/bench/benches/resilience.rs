//! Benchmark the fleet-scale resilience walker against the legacy
//! single-tier goodput simulator it generalises. Three rows: the
//! degenerate configuration (one synchronous remote tier, cold
//! restart, no SDC) on the *same* failure timeline `simulate_goodput`
//! walks, the full-feature tiered + spare-pool + SDC configuration,
//! and the fleet timeline generator itself. Writes
//! `BENCH_resilience.json` at the repo root in the shared
//! `{"bench", "metrics"}` schema and asserts the degenerate path stays
//! within 1.2x of `simulate_goodput` — the generalisation must not tax
//! the case the old API already handled.

use dsv3_bench::{time_ns, write_artifact, REPO_ROOT};
use dsv3_core::faults::{
    generate_failures, simulate_goodput, simulate_resilience, system_mtbf_s, CheckpointBytes,
    CheckpointStack, ComponentMtbf, FleetSpec, RecoveryKind, ResilienceConfig, SdcConfig,
};
use dsv3_core::model::availability::AvailabilityModel;
use std::path::Path;

fn main() {
    let spec = FleetSpec::with_gpus(16_384);
    let mtbf = ComponentMtbf::production();
    let mtbf_s = system_mtbf_s(&spec, &mtbf);
    let horizon_s = 86_400.0 * 30.0;
    let failures = generate_failures(&spec, &mtbf, 42, horizon_s);
    let times: Vec<f64> = failures.iter().map(|f| f.at_s).collect();

    // The degenerate configuration and its analytic-era equivalent walk
    // the same physics: one synchronous remote tier, cold restart, the
    // restore read folded into the restart term.
    let ckpt = CheckpointBytes { write_bytes: 30e9, restore_bytes: 30e9 };
    let stack = CheckpointStack::single_sync_remote(2.0);
    let av = AvailabilityModel {
        mtbf_s,
        checkpoint_write_s: stack.blocking_write_s(ckpt.write_bytes),
        restart_s: 180.0 + stack.tiers[0].restore_s(ckpt.restore_bytes),
    };
    let interval_s = av.young_daly_interval_s();
    let degenerate = ResilienceConfig {
        interval_s,
        ckpt,
        stack,
        recovery: RecoveryKind::ColdRestart,
        sdc: SdcConfig::disabled(),
        restart_s: 180.0,
        repair_s: 21_600.0,
        gpus_per_failure: 8,
        horizon_s,
        seed: 42,
    };
    // The full-feature path: async tiers, hot spares, SDC verification.
    let full = ResilienceConfig {
        stack: CheckpointStack::tiered(),
        recovery: RecoveryKind::SparePool { spares: 512, provision_s: 30.0 },
        sdc: SdcConfig {
            mtbf_s: 86_400.0,
            detection_mean_s: 7_200.0,
            verify_every: 20,
            verify_cost_s: 30.0,
        },
        ..degenerate.clone()
    };

    let goodput_ns = time_ns(5, 8, || simulate_goodput(&av, interval_s, &times, horizon_s));
    let degen_ns = time_ns(5, 8, || simulate_resilience(&degenerate, &failures));
    let full_ns = time_ns(5, 8, || simulate_resilience(&full, &failures));
    let gen_ns = time_ns(5, 8, || generate_failures(&spec, &mtbf, 42, horizon_s));
    let ratio = degen_ns / goodput_ns;

    let metrics = [
        ("simulate_goodput_ns", format!("{goodput_ns:.0}")),
        ("degenerate_ns", format!("{degen_ns:.0}")),
        ("tiered_spare_sdc_ns", format!("{full_ns:.0}")),
        ("generate_failures_ns", format!("{gen_ns:.0}")),
        ("degenerate_vs_goodput_ratio", format!("{ratio:.3}")),
    ];
    let path = write_artifact(Path::new(REPO_ROOT), "resilience", &metrics)
        .expect("write BENCH_resilience.json");
    println!("wrote {}", path.display());

    assert!(
        ratio <= 1.2,
        "degenerate resilience walk must cost <= 1.2x simulate_goodput, measured {ratio:.3}x"
    );
}
