//! §3.2: LogFMT quality vs FP8 and BF16 on activation-shaped data.

use crate::report::{fmt, Table};
use dsv3_numerics::logfmt::logfmt_quantize;
use dsv3_numerics::metrics::{mean_bias, relative_rmse, sqnr_db};
use dsv3_numerics::minifloat::Format;
use serde::{Deserialize, Serialize};

/// One format's quality on the benchmark tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Format label.
    pub format: String,
    /// Bits per element.
    pub bits: u32,
    /// SQNR in dB (higher is better; tail-dominated on heavy-tailed data).
    pub sqnr_db: f64,
    /// RMS relative error (precision across the whole distribution —
    /// LogFMT's design target; lower is better).
    pub rel_rmse: f64,
    /// Relative mean bias (unbiasedness probe).
    pub rel_bias: f64,
}

/// Log-normal activations (the distribution LogFMT targets), per-128 tiles.
#[must_use]
pub fn activations(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            let mag = (u * 6.0 - 3.0).exp();
            let sign = if state & 4 == 0 { 1.0 } else { -1.0 };
            (sign * mag) as f32
        })
        .collect()
}

/// Tile-scaled minifloat quantization (1×128 scales, same as production).
fn minifloat_tiled(values: &[f32], format: Format) -> Vec<f32> {
    let mut out = Vec::with_capacity(values.len());
    for tile in values.chunks(128) {
        let amax = tile.iter().map(|v| v.abs() as f64).fold(0.0, f64::max);
        let scale = if amax > 0.0 { amax / format.max_finite() } else { 1.0 };
        out.extend(tile.iter().map(|&v| (format.quantize(f64::from(v) / scale) * scale) as f32));
    }
    out
}

/// Evaluate every format on the same tensor.
#[must_use]
pub fn run() -> Vec<Row> {
    let x = activations(65_536, 9);
    let mean_abs: f64 = x.iter().map(|v| f64::from(v.abs())).sum::<f64>() / x.len() as f64;
    let eval = |name: &str, bits: u32, q: Vec<f32>| Row {
        format: name.to_string(),
        bits,
        sqnr_db: sqnr_db(&x, &q),
        rel_rmse: relative_rmse(&x, &q),
        rel_bias: mean_bias(&x, &q).abs() / mean_abs,
    };
    vec![
        eval("E4M3 (1x128 scaled)", 8, minifloat_tiled(&x, Format::E4M3)),
        eval("E5M2 (1x128 scaled)", 8, minifloat_tiled(&x, Format::E5M2)),
        eval("LogFMT-8", 8, logfmt_quantize(&x, 8)),
        eval("LogFMT-10", 10, logfmt_quantize(&x, 10)),
        eval("E5M6", 12, minifloat_tiled(&x, Format::E5M6)),
        eval("BF16", 16, minifloat_tiled(&x, Format::BF16)),
    ]
}

/// Render.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§3.2: communication-format quality on log-normal activations",
        &["Format", "bits", "SQNR (dB)", "rel RMSE", "|rel bias|"],
    );
    for r in rows {
        t.row(&[
            r.format.clone(),
            r.bits.to_string(),
            fmt(r.sqnr_db, 1),
            format!("{:.2e}", r.rel_rmse),
            format!("{:.2e}", r.rel_bias),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_ordering_holds() {
        let rows = super::run();
        let by = |n: &str| rows.iter().find(|r| r.format.starts_with(n)).unwrap().rel_rmse;
        // §3.2: LogFMT-8 shows superior accuracy to E4M3 / E5M2 at 8 bits.
        assert!(by("LogFMT-8") < by("E4M3"), "{} vs {}", by("LogFMT-8"), by("E4M3"));
        assert!(by("LogFMT-8") < by("E5M2"));
        // §3.2: at n = 10 it is "similar to the BF16 combine stage".
        assert!(by("LogFMT-10") < 4.0 * by("BF16"), "{} vs {}", by("LogFMT-10"), by("BF16"));
        assert!(by("LogFMT-10") < by("LogFMT-8") / 2.0);
    }
}
