//! Benchmark the observability layer around the serving engine: the
//! plain fault-aware run, the same run with a *disabled* recorder (the
//! watch-off path every production run takes), the fully traced run
//! with series recording on, and the detector evaluation itself.
//! Writes `BENCH_watch.json` at the repo root in the shared
//! `{"bench", "metrics"}` schema and asserts the disabled-recorder
//! path stays within 1.1x of the plain baseline — observability must
//! be free when it is off.

use dsv3_bench::{time_ns, write_artifact, REPO_ROOT};
use dsv3_core::faults::{FaultPlan, RecoveryPolicy};
use dsv3_core::serving::{
    run_overload_traced, run_with_faults, ArrivalProcess, ClientConfig, OverloadConfig,
    RouterPolicy, ServingSimConfig,
};
use dsv3_core::telemetry::{evaluate, Recorder, WatchConfig};
use std::path::Path;

fn main() {
    let cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 12.0 },
        300,
        RouterPolicy::Disaggregated { prefill_fraction: 0.25 },
    );
    let plan = FaultPlan { replicas: 4, planes: 8, links: 0, events: Vec::new() };
    let policy = RecoveryPolicy::default();
    // The off-path gate compares identical work: every overload feature
    // disabled, so the only difference vs `run_with_faults` is the
    // telemetry plumbing behind a disabled recorder.
    let off = OverloadConfig::disabled();
    // The traced rows use closed-loop clients so the recording carries
    // the full series family the detectors consume.
    let ov = OverloadConfig {
        clients: Some(ClientConfig::default()),
        timeline_window_ms: 5_000.0,
        ..OverloadConfig::disabled()
    };
    let mut traced = Recorder::new();
    let _ = run_overload_traced(&cfg, &plan, &policy, &ov, &mut traced, "bench");

    let base_ns = time_ns(5, 4, || run_with_faults(&cfg, &plan, &policy));
    let off_ns = time_ns(5, 4, || {
        let mut rec = Recorder::disabled();
        run_overload_traced(&cfg, &plan, &policy, &off, &mut rec, "bench")
    });
    let on_ns = time_ns(5, 4, || {
        let mut rec = Recorder::new();
        run_overload_traced(&cfg, &plan, &policy, &ov, &mut rec, "bench")
    });
    let eval_ns = time_ns(5, 4, || evaluate("bench", &traced, &WatchConfig::default()));
    let off_ratio = off_ns / base_ns;

    let metrics = [
        ("baseline_ns", format!("{base_ns:.0}")),
        ("disabled_recorder_ns", format!("{off_ns:.0}")),
        ("traced_ns", format!("{on_ns:.0}")),
        ("evaluate_ns", format!("{eval_ns:.0}")),
        ("disabled_overhead_ratio", format!("{off_ratio:.3}")),
    ];
    let path =
        write_artifact(Path::new(REPO_ROOT), "watch", &metrics).expect("write BENCH_watch.json");
    println!("wrote {}", path.display());

    assert!(
        off_ratio <= 1.1,
        "disabled observability must cost <= 1.1x the plain baseline, measured {off_ratio:.3}x"
    );
}
