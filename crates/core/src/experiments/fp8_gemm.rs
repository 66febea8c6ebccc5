//! §3.1: FP8 GEMM accumulation and quantization error.
//!
//! Sweeps the inner dimension K and compares the relative error of the
//! emulated Hopper pipeline under three main-accumulator strategies, plus
//! the per-tensor (coarse) quantization baseline.

use crate::report::Table;
use dsv3_numerics::gemm::{gemm_fp8, gemm_fp8_per_tensor, Fp8GemmConfig, MainAccumulator};
use dsv3_numerics::metrics::relative_frobenius_error;
use dsv3_numerics::minifloat::Format;
use dsv3_numerics::Matrix;
use serde::{Deserialize, Serialize};

/// One K point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Inner dimension.
    pub k: usize,
    /// Relative error, FP22 end-to-end accumulation.
    pub err_fp22: f64,
    /// Relative error, DeepGEMM split accumulation (FP32 promotion / 128).
    pub err_split_fp32: f64,
    /// Relative error, exact accumulation (pure quantization error).
    pub err_exact: f64,
    /// Relative error, per-tensor scaling (coarse) with exact accumulation.
    pub err_per_tensor: f64,
    /// Accumulation-only error of FP22 (vs the same quantized inputs with
    /// exact accumulation).
    pub acc_err_fp22: f64,
    /// Accumulation-only error of the split/FP32 strategy.
    pub acc_err_split: f64,
    /// Relative error of fine-grained scaling on *outlier-bearing*
    /// activations (one huge channel per 256).
    pub outlier_err_fine: f64,
    /// Relative error of per-tensor scaling on the same outlier data.
    pub outlier_err_per_tensor: f64,
}

/// Run the K sweep. Positive-mean operands make the accumulator grow with K
/// (the regime where FP22 visibly degrades).
#[must_use]
pub fn run(ks: &[usize]) -> Vec<Row> {
    ks.iter()
        .map(|&k| {
            let mut a = Matrix::random(4, k, 1.0, 100 + k as u64);
            let mut b = Matrix::random(k, 4, 1.0, 200 + k as u64);
            for v in a.data.iter_mut().chain(b.data.iter_mut()) {
                *v = v.abs() + 0.05;
            }
            let reference = a.matmul(&b);
            // Outlier study: tiny activations with one huge channel; judge on
            // the rows the outlier does not dominate.
            let outlier = {
                let mut ao = Matrix::random(8, 256, 5e-4, 300 + k as u64);
                ao.set(0, 0, 300.0);
                let bo = Matrix::random(256, 8, 1.0, 400 + k as u64);
                let ro = ao.matmul(&bo);
                let fine = gemm_fp8(&ao, &bo, Fp8GemmConfig::default());
                let coarse = gemm_fp8_per_tensor(&ao, &bo, Format::E4M3);
                let tail = |m: &Matrix| m.data[m.cols..].to_vec();
                (
                    relative_frobenius_error(&tail(&ro), &tail(&fine)),
                    relative_frobenius_error(&tail(&ro), &tail(&coarse)),
                )
            };
            let out =
                |acc| gemm_fp8(&a, &b, Fp8GemmConfig { main_acc: acc, ..Fp8GemmConfig::default() });
            let exact_q = out(MainAccumulator::Exact);
            let fp22 = out(MainAccumulator::Fp22);
            let split = out(MainAccumulator::Fp32);
            Row {
                k,
                err_fp22: relative_frobenius_error(&reference.data, &fp22.data),
                err_split_fp32: relative_frobenius_error(&reference.data, &split.data),
                err_exact: relative_frobenius_error(&reference.data, &exact_q.data),
                err_per_tensor: relative_frobenius_error(
                    &reference.data,
                    &gemm_fp8_per_tensor(&a, &b, Format::E4M3).data,
                ),
                acc_err_fp22: relative_frobenius_error(&exact_q.data, &fp22.data),
                acc_err_split: relative_frobenius_error(&exact_q.data, &split.data),
                outlier_err_fine: outlier.0,
                outlier_err_per_tensor: outlier.1,
            }
        })
        .collect()
}

/// Default K sweep.
#[must_use]
pub fn default_ks() -> Vec<usize> {
    vec![512, 2048, 8192, 32_768]
}

/// Render.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "§3.1: FP8 GEMM relative error vs accumulation strategy",
        &[
            "K",
            "FP22 acc",
            "split->FP32 (DeepGEMM)",
            "exact acc",
            "per-tensor scale",
            "FP22 acc-only",
            "outliers: fine",
            "outliers: per-tensor",
        ],
    );
    for r in rows {
        t.row(&[
            r.k.to_string(),
            format!("{:.2e}", r.err_fp22),
            format!("{:.2e}", r.err_split_fp32),
            format!("{:.2e}", r.err_exact),
            format!("{:.2e}", r.err_per_tensor),
            format!("{:.2e}", r.acc_err_fp22),
            format!("{:.2e}", r.outlier_err_fine),
            format!("{:.2e}", r.outlier_err_per_tensor),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn fp22_error_grows_with_k_and_split_fixes_it() {
        let rows = super::run(&[512, 8192]);
        assert!(
            rows[1].acc_err_fp22 > rows[0].acc_err_fp22,
            "fp22 accumulation error grows with K: {} vs {}",
            rows[0].acc_err_fp22,
            rows[1].acc_err_fp22
        );
        for r in &rows {
            assert!(r.acc_err_split < r.acc_err_fp22, "split beats fp22 at K={}", r.k);
            assert!(r.err_split_fp32 < 2.0 * r.err_exact + 1e-6, "split ~ quantization floor");
            assert!(
                r.outlier_err_fine < 0.3 * r.outlier_err_per_tensor,
                "fine-grained must survive outliers: {} vs {}",
                r.outlier_err_fine,
                r.outlier_err_per_tensor
            );
        }
    }
}
