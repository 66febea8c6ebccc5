//! Training memory timeline walkthrough: replay DeepSeek-V3's production
//! step, compare the memory-policy arms, and sweep the fit frontier.
//!
//! ```sh
//! cargo run --release --example memory_frontier
//! ```

use dsv3_core::experiments::mem_timeline;
use dsv3_core::memtl::{
    frontier_sweep, simulate, FrontierQuery, GpuSpec, MemPlan, Offload, Recompute, ScheduleKind,
    ZeroStage,
};
use dsv3_core::model::zoo;
use dsv3_core::telemetry::Recorder;

fn main() {
    println!("{}", mem_timeline::render(&mem_timeline::run(&mut Recorder::disabled())));

    // The production timeline, rank by rank: where the bytes live.
    let cfg = zoo::deepseek_v3();
    let rep = simulate(&cfg, &MemPlan::deepseek_v3_production());
    println!("Production DualPipe timeline (61 layers, PP16 x EP64, 120 micro x 4096 tok):");
    for r in &rep.ranks {
        println!(
            "  rank {:>2}: floor {:>5.1} GB + act peak {:>5.1} GB + ws {:>4.1} GB -> peak {:>5.1} GB @ {:>5.2} s",
            r.rank, r.floor_gb, r.peak_activation_gb, r.peak_workspace_gb, r.peak_gb, r.peak_time_s
        );
    }
    println!(
        "  step {:.2} s over {} chunk events; recompute overhead {:.1}% of forward work\n",
        rep.step_time_s,
        rep.chunk_events,
        rep.recompute_overhead_frac * 100.0
    );

    // How far offload bandwidth moves the step-time penalty.
    println!("Optimizer-state CPU offload: step-time penalty vs PCIe bandwidth:");
    let min_mem = MemPlan {
        recompute: Recompute::Full,
        zero_stage: ZeroStage::Z3,
        schedule: ScheduleKind::OneFOneB,
        ..MemPlan::deepseek_v3_production()
    };
    for pcie in [16.0f64, 32.0, 64.0, 128.0] {
        let r = simulate(
            &cfg,
            &MemPlan { offload: Offload::OptimizerCpu { pcie_gbps: pcie }, ..min_mem },
        );
        println!(
            "  {pcie:>5.0} GB/s -> +{:>6.2} ms/step (peak {:>5.1} GB; 128-way ZeRO keeps shards small)",
            r.offload_penalty_s * 1e3,
            r.peak_gb
        );
    }
    println!();

    // The frontier, finer-grained than the registry table.
    println!("Fit frontier (V3-shaped depth vs fleet size, 80 GB parts):");
    let queries: Vec<FrontierQuery> = [16, 32, 64, 128, 256, 512, 1024, 2048]
        .into_iter()
        .map(|gpus| FrontierQuery { gpus, spec: GpuSpec::h800() })
        .collect();
    for row in frontier_sweep(&cfg, &MemPlan::deepseek_v3_production(), &queries) {
        if row.max_layers == 0 {
            println!("  {:>5} GPUs: PP16 grid does not fit", row.gpus);
        } else {
            println!(
                "  {:>5} GPUs (ZeRO width {:>3}): {:>4} layers = {:>5.0}B params, peak {:>5.1} GB",
                row.gpus, row.zero_dp, row.max_layers, row.params_b, row.peak_gb
            );
        }
    }
}
