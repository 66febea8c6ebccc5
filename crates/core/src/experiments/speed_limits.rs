//! §2.3.2: EP inference speed limits across interconnect generations.

use crate::report::{fmt, Table};
use dsv3_inference::tpot::{SpeedLimit, SpeedLimitConfig};
use serde::{Deserialize, Serialize};

/// One evaluated system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// System label.
    pub system: String,
    /// Speed limit.
    pub limit: SpeedLimit,
}

/// Evaluate the paper's two systems.
#[must_use]
pub fn run() -> Vec<Row> {
    vec![
        Row {
            system: "H800 + CX7 400Gbps IB".into(),
            limit: SpeedLimitConfig::h800_ib().evaluate(),
        },
        Row {
            system: "GB200 NVL72 (900GB/s)".into(),
            limit: SpeedLimitConfig::gb200_nvl72().evaluate(),
        },
    ]
}

/// §3.2 / §6.5 extension: the same H800 system with compressed combine
/// formats (the paper tests FP8, E5M6 and LogFMT for the combine stage; with
/// native in-network compression the bandwidth saving converts directly to
/// decode speed).
#[must_use]
pub fn run_combine_formats() -> Vec<Row> {
    let formats = [
        ("combine BF16 (baseline)", 2.0),
        ("combine E5M6 (12-bit)", 1.5),
        ("combine LogFMT-10", 1.25),
        ("combine FP8 / LogFMT-8", 1.0),
    ];
    formats
        .iter()
        .map(|(name, bytes)| {
            let mut cfg = SpeedLimitConfig::h800_ib();
            cfg.combine_bytes = *bytes;
            Row { system: (*name).to_string(), limit: cfg.evaluate() }
        })
        .collect()
}

/// Render the combine-format sweep.
#[must_use]
pub fn render_combine_formats(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§6.5: decode speed limit vs combine-stage compression (H800+IB)",
        &["Combine format", "EP comm (µs)", "TPOT (ms)", "tokens/s"],
    );
    for r in rows {
        t.row(&[
            r.system.clone(),
            fmt(r.limit.comm_time_us, 2),
            fmt(r.limit.tpot_ms, 2),
            fmt(r.limit.tokens_per_second, 0),
        ]);
    }
    t
}

/// Render.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§2.3.2: theoretical EP decode speed limits",
        &["System", "EP comm (µs)", "per-layer (µs)", "TPOT (ms)", "tokens/s"],
    );
    for r in rows {
        t.row(&[
            r.system.clone(),
            fmt(r.limit.comm_time_us, 2),
            fmt(r.limit.per_layer_us, 2),
            fmt(r.limit.tpot_ms, 2),
            fmt(r.limit.tokens_per_second, 0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn both_systems_match_paper() {
        let rows = super::run();
        assert!((rows[0].limit.tpot_ms - 14.76).abs() < 0.01);
        assert!(rows[1].limit.tokens_per_second > 1190.0);
    }

    #[test]
    fn compressed_combine_speeds_decode() {
        let rows = super::run_combine_formats();
        // FP8/LogFMT-8 combine: (1+1)/(1+2) of the bytes → 1.5× the tokens/s.
        let base = rows[0].limit.tokens_per_second;
        let fp8 = rows.last().unwrap().limit.tokens_per_second;
        assert!((fp8 / base - 1.5).abs() < 0.01, "{}", fp8 / base);
        for w in rows.windows(2) {
            assert!(w[1].limit.tokens_per_second > w[0].limit.tokens_per_second);
        }
    }
}
