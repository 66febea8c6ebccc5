//! Hardware/model co-design sweep: how the paper's §6 recommendations move
//! the two headline metrics (training MFU, decode TPS) on the H800 baseline.
//!
//! ```sh
//! cargo run --release --example codesign_sweep
//! ```

use dsv3_core::collectives::innetwork::sm_offload_speedup;
use dsv3_core::experiments::{future_hardware, speed_limits};
use dsv3_core::inference::tpot::SpeedLimitConfig;
use dsv3_core::parallel::trainstep::{table4, TrainStepConfig};

fn main() {
    println!("{}", future_hardware::render(&future_hardware::run()));
    println!("{}", speed_limits::render_combine_formats(&speed_limits::run_combine_formats()));

    // Scale-up bandwidth sweep: where does the EP decode limit cross 10×?
    println!("Decode speed vs scale-up bandwidth (V3, 61 layers, 32 tok/device):");
    let base = SpeedLimitConfig::h800_ib().evaluate().tokens_per_second;
    for bw in [50.0f64, 100.0, 200.0, 450.0, 900.0] {
        let mut cfg = SpeedLimitConfig::h800_ib();
        cfg.bandwidth_bytes_per_s = bw * 1e9;
        let tps = cfg.evaluate().tokens_per_second;
        println!("  {bw:>5.0} GB/s -> {tps:>6.0} tok/s ({:>4.1}x H800+IB)", tps / base);
    }
    println!();

    // Training: what SM offload does to step time and MFU.
    println!("Training step with EP communication offloaded from SMs (§4.4):");
    let baseline = table4("H800 (20 SMs on comm)", &TrainStepConfig::deepseek_v3(1.0));
    let offloaded = {
        let mut cfg = TrainStepConfig::deepseek_v3(1.0);
        cfg.kernel_efficiency *= sm_offload_speedup(132, 20);
        table4("H800 + comm co-processor", &cfg)
    };
    for m in [&baseline, &offloaded] {
        println!(
            "  {:<26} {:>6.2} s/step, causal MFU {:>5.2}%, {:>6.1}B tokens/day",
            m.fabric,
            m.time_per_step_s,
            m.mfu_causal * 100.0,
            m.tokens_per_day_b
        );
    }
}
