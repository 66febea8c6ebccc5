//! Low-precision scenario (§3): FP8 GEMM accumulation error, LogFMT
//! communication quality, and the FP8-vs-BF16 training comparison.
//!
//! ```sh
//! cargo run --release --example fp8_training
//! ```

use dsv3_core::experiments::{fp8_gemm, fp8_training, logfmt};
use dsv3_core::model::train::TrainConfig;
use dsv3_core::numerics::logfmt::fused_codec_overhead;
use dsv3_core::numerics::minifloat::Format;

fn main() {
    // Where the FP8 formats sit.
    println!("FP8 format landscape:");
    for (name, f) in [
        ("E4M3", Format::E4M3),
        ("E5M2", Format::E5M2),
        ("E5M6", Format::E5M6),
        ("BF16", Format::BF16),
    ] {
        println!(
            "  {name:<5} max {:>9.1}, min normal {:.2e}, min subnormal {:.2e}",
            f.max_finite(),
            f.min_normal(),
            f.min_subnormal()
        );
    }
    println!();

    println!("{}", fp8_gemm::render(&fp8_gemm::run(&fp8_gemm::default_ks())));
    println!("{}", logfmt::render(&logfmt::run()));
    println!(
        "LogFMT fused-codec overhead on Hopper-class SFUs: {:.0}% (§3.2.1 reports 50-100%)\n",
        fused_codec_overhead(0.25, 0.7) * 100.0
    );
    println!("{}", fp8_training::render(&fp8_training::run(TrainConfig::default())));
}
