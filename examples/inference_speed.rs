//! Inference-speed scenario (§2.3): EP speed limits, dual micro-batch
//! overlap, MTP speculative decoding, and prefill/decode disaggregation.
//!
//! ```sh
//! cargo run --release --example inference_speed
//! ```

use dsv3_core::experiments::{mtp, speed_limits};
use dsv3_core::inference::disagg::{disaggregated_tpot, unified_tpot, ServingConfig};
use dsv3_core::inference::overlap::{simulate, LayerPhases};
use dsv3_core::inference::tpot::SpeedLimitConfig;

fn main() {
    println!("{}", speed_limits::render(&speed_limits::run()));

    // What would it take to hit 100 tok/s on the H800 fleet? Sweep bandwidth.
    println!("Bandwidth sweep (61-layer V3 decode, comm-bound):");
    for bw_gbps in [50.0, 100.0, 200.0, 400.0, 900.0] {
        let mut cfg = SpeedLimitConfig::h800_ib();
        cfg.bandwidth_bytes_per_s = bw_gbps * 1e9;
        let s = cfg.evaluate();
        println!(
            "  {bw_gbps:>5.0} GB/s -> TPOT {:>6.2} ms, {:>6.0} tok/s",
            s.tpot_ms, s.tokens_per_second
        );
    }
    println!();

    // Dual micro-batch overlap (§2.3.1) on a comm-heavy decode layer.
    let phases = LayerPhases { attn_us: 60.0, dispatch_us: 121.0, moe_us: 40.0, combine_us: 121.0 };
    let o = simulate(61, phases);
    println!(
        "Dual micro-batch overlap: serial {:.2} ms, overlapped {:.2} ms ({:.2}x)\n",
        o.serial_us / 1000.0,
        o.overlapped_us / 1000.0,
        o.speedup()
    );

    println!("{}", mtp::render(&mtp::run()));

    // Prefill/decode disaggregation (§2.3.1).
    let cfg = ServingConfig::default();
    let uni = unified_tpot(&cfg);
    let dis = disaggregated_tpot(&cfg);
    println!("Prefill/decode pools (bursty prefill, 40% load):");
    println!(
        "  unified pool:       TPOT mean {:>6.0} µs, p95 {:>6.0} µs, max {:>6.0} µs",
        uni.mean_us, uni.p95_us, uni.max_us
    );
    println!(
        "  disaggregated pool: TPOT mean {:>6.0} µs, p95 {:>6.0} µs, max {:>6.0} µs",
        dis.mean_us, dis.p95_us, dis.max_us
    );
}
