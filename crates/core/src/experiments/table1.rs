//! Table 1: KV cache per token (BF16) across attention designs.

use crate::report::{fmt, Table};
use dsv3_model::zoo;
use serde::{Deserialize, Serialize};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Model + attention label.
    pub model: String,
    /// KV cache per token, KB.
    pub kv_cache_kb: f64,
    /// Multiplier over DeepSeek-V3.
    pub multiplier: f64,
}

/// Compute the table.
#[must_use]
pub fn run() -> Vec<Row> {
    let models = [
        (zoo::deepseek_v3(), "DeepSeek-V3 (MLA)"),
        (zoo::qwen25_72b(), "Qwen-2.5 72B (GQA)"),
        (zoo::llama31_405b(), "LLaMA-3.1 405B (GQA)"),
    ];
    let base = models[0].0.kv_cache_kb_per_token(2);
    models
        .iter()
        .map(|(cfg, label)| {
            let kb = cfg.kv_cache_kb_per_token(2);
            Row { model: (*label).to_string(), kv_cache_kb: kb, multiplier: kb / base }
        })
        .collect()
}

/// Render like the paper.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table 1: KV cache size per token (BF16)",
        &["Model", "KV Cache Per Token", "Multiplier"],
    );
    for r in rows {
        t.row(&[
            r.model.clone(),
            format!("{} KB", fmt(r.kv_cache_kb, 3)),
            format!("{}x", fmt(r.multiplier, 2)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper() {
        let rows = run();
        assert!((rows[0].kv_cache_kb - 70.272).abs() < 1e-9);
        assert!((rows[1].kv_cache_kb - 327.680).abs() < 1e-9);
        assert!((rows[2].kv_cache_kb - 516.096).abs() < 1e-9);
        assert!((rows[1].multiplier - 4.66).abs() < 0.01);
    }
}
