//! Emulated fine-grained FP8 GEMM (the DeepGEMM computation model).
//!
//! `C = A × B` where `A` (activations, `M×K`) carries 1×128 tile scales along
//! K and `B` (weights, `K×N`) carries 128×128 block scales. For every
//! 128-long K chunk the tensor core accumulates 4 × (K=32) aligned/truncated
//! partial sums into an FP22 register; the partial result is then moved to
//! CUDA cores, multiplied by the combined dequantization scale, and added to
//! the main accumulator. The main accumulator is FP32 in the DeepGEMM
//! strategy, or FP22 when modelling "keep everything in the tensor core
//! registers" (the behaviour the paper warns about).

use crate::matrix::Matrix;
use crate::minifloat::Format;
use crate::quant::{quantize_per_tensor, BlockQuantized, TileQuantized};
use crate::tensorcore::{align_truncate_sum, MMA_K};
use crate::Fp22;
use serde::{Deserialize, Serialize};

/// Where the *scaled* per-chunk partial sums accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MainAccumulator {
    /// FP32 CUDA-core accumulation (DeepGEMM / paper's recommendation).
    Fp32,
    /// FP22 accumulation end-to-end (models low-precision-only hardware).
    Fp22,
    /// Exact f64 accumulation (oracle; isolates quantization error from
    /// accumulation error).
    Exact,
}

/// Configuration of the emulated FP8 GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fp8GemmConfig {
    /// Element storage format (E4M3 in DeepSeek-V3 training).
    pub format: Format,
    /// K-chunk length between dequantize+promote steps (128 in DeepSeek-V3).
    pub chunk: usize,
    /// Main accumulator behaviour.
    pub main_acc: MainAccumulator,
}

impl Default for Fp8GemmConfig {
    fn default() -> Self {
        Self { format: Format::E4M3, chunk: 128, main_acc: MainAccumulator::Fp32 }
    }
}

/// Result of an emulated GEMM together with its inputs' quantization.
#[derive(Debug, Clone)]
pub struct Fp8Gemm {
    /// Quantized activations.
    pub a: TileQuantized,
    /// Quantized weights.
    pub b: BlockQuantized,
    cfg: Fp8GemmConfig,
}

impl Fp8Gemm {
    /// Quantize `a` (activations) and `b` (weights) according to `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or `cfg.chunk` is 0 or not a
    /// multiple of [`MMA_K`].
    #[must_use]
    pub fn prepare(a: &Matrix, b: &Matrix, cfg: Fp8GemmConfig) -> Self {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        assert!(
            cfg.chunk > 0 && cfg.chunk.is_multiple_of(MMA_K),
            "chunk must be a positive multiple of {MMA_K}"
        );
        let qa = TileQuantized::quantize(a, cfg.format, cfg.chunk);
        let qb = BlockQuantized::quantize(b, cfg.format, cfg.chunk);
        Self { a: qa, b: qb, cfg }
    }

    /// Execute the emulated GEMM.
    ///
    /// For each (row, K-chunk) the products for all `n` columns are formed
    /// first, reading B's rows contiguously. Each column keeps its own
    /// accumulator, so every output sees the same float operations in the
    /// same order as a column-at-a-time loop.
    #[must_use]
    pub fn execute(&self) -> Matrix {
        let (m, k, n) = (self.a.rows, self.a.cols, self.b.cols);
        let chunk = self.cfg.chunk;
        let mut out = Matrix::zeros(m, n);
        // One chunk's products, column-major: column j's are contiguous.
        let mut prod = vec![0f64; chunk.min(k) * n];
        let mut acc_f32 = vec![0f32; n];
        let mut acc_fp22 = vec![Fp22::new(); n];
        let mut acc_exact = vec![0f64; n];
        for i in 0..m {
            acc_f32.fill(0.0);
            acc_fp22.fill(Fp22::new());
            acc_exact.fill(0.0);
            let a_row = &self.a.codes[i * k..(i + 1) * k];
            for c0 in (0..k).step_by(chunk) {
                let len = chunk.min(k - c0);
                for (kk, &a) in a_row[c0..c0 + len].iter().enumerate() {
                    let b_row = &self.b.codes[(c0 + kk) * n..(c0 + kk + 1) * n];
                    for (j, &b) in b_row.iter().enumerate() {
                        prod[j * len + kk] = a * b;
                    }
                }
                let a_scale = self.a.scale_at(i, c0);
                for (j, column) in prod[..len * n].chunks_exact(len).enumerate() {
                    // Tensor-core portion: FP22 accumulation of aligned,
                    // truncated 32-product sums over this chunk.
                    let mut partial = Fp22::new();
                    for sub in column.chunks(MMA_K) {
                        partial = partial + align_truncate_sum(sub);
                    }
                    // CUDA-core portion: dequantize and promote.
                    let scale = a_scale * self.b.scale_at(c0, j);
                    let scaled = partial.to_f64() * scale;
                    match self.cfg.main_acc {
                        MainAccumulator::Fp32 => acc_f32[j] += scaled as f32,
                        MainAccumulator::Fp22 => acc_fp22[j] = acc_fp22[j] + scaled,
                        MainAccumulator::Exact => acc_exact[j] += scaled,
                    }
                }
            }
            for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                let v = match self.cfg.main_acc {
                    MainAccumulator::Fp32 => f64::from(acc_f32[j]),
                    MainAccumulator::Fp22 => acc_fp22[j].to_f64(),
                    MainAccumulator::Exact => acc_exact[j],
                };
                *o = v as f32;
            }
        }
        out
    }
}

/// Convenience: quantize + execute in one call.
///
/// ```
/// use dsv3_numerics::{gemm::{gemm_fp8, Fp8GemmConfig}, Matrix};
///
/// let a = Matrix::random(4, 256, 1.0, 1);
/// let b = Matrix::random(256, 4, 1.0, 2);
/// let c = gemm_fp8(&a, &b, Fp8GemmConfig::default());
/// assert_eq!((c.rows, c.cols), (4, 4));
/// ```
#[must_use]
pub fn gemm_fp8(a: &Matrix, b: &Matrix, cfg: Fp8GemmConfig) -> Matrix {
    Fp8Gemm::prepare(a, b, cfg).execute()
}

/// Coarse baseline: per-tensor quantization of both operands, exact
/// accumulation. Isolates the benefit of fine-grained scales.
#[must_use]
pub fn gemm_fp8_per_tensor(a: &Matrix, b: &Matrix, format: Format) -> Matrix {
    let qa = quantize_per_tensor(a, format);
    let qb = quantize_per_tensor(b, format);
    qa.matmul(&qb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::relative_frobenius_error;

    #[test]
    fn small_exact_case() {
        // Values exactly representable in E4M3 with scale amax/448 chosen so
        // codes stay exact: use powers of two.
        let a = Matrix::from_vec(1, 4, vec![1.0, 2.0, 4.0, 8.0]);
        let b = Matrix::from_vec(4, 1, vec![1.0, 1.0, 1.0, 1.0]);
        let c = gemm_fp8(&a, &b, Fp8GemmConfig::default());
        assert!((f64::from(c.get(0, 0)) - 15.0).abs() < 1e-9, "{}", c.get(0, 0));
    }

    #[test]
    fn fp32_main_acc_close_to_reference() {
        let a = Matrix::random(8, 512, 1.0, 11);
        let b = Matrix::random(512, 8, 1.0, 12);
        let reference = a.matmul(&b);
        let c = gemm_fp8(&a, &b, Fp8GemmConfig::default());
        let err = relative_frobenius_error(&reference.data, &c.data);
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn accumulator_quality_ordering() {
        // Compare accumulation strategies on *identical quantized inputs*:
        // the Exact accumulator isolates quantization error, so deviations
        // from it are purely accumulation error. Positive operands make the
        // accumulator grow with K, which is where FP22's 13-bit mantissa
        // visibly loses increments.
        let mut a = Matrix::random(4, 8192, 1.0, 21);
        let mut b = Matrix::random(8192, 4, 1.0, 22);
        for v in a.data.iter_mut().chain(b.data.iter_mut()) {
            *v = v.abs() + 0.05;
        }
        let run = |acc: MainAccumulator| {
            gemm_fp8(&a, &b, Fp8GemmConfig { main_acc: acc, ..Fp8GemmConfig::default() })
        };
        let exact_q = run(MainAccumulator::Exact);
        let e_fp32 = relative_frobenius_error(&exact_q.data, &run(MainAccumulator::Fp32).data);
        let e_fp22 = relative_frobenius_error(&exact_q.data, &run(MainAccumulator::Fp22).data);
        assert!(e_fp22 > 4.0 * e_fp32, "fp22 {e_fp22} must dwarf fp32 {e_fp32}");
        // And the quantized-exact result itself stays close to the true GEMM.
        let reference = a.matmul(&b);
        let e_quant = relative_frobenius_error(&reference.data, &exact_q.data);
        assert!(e_quant < 0.05, "quantization error {e_quant}");
    }

    #[test]
    fn fine_grained_beats_per_tensor_with_outliers() {
        // The outlier forces a per-tensor scale so large that ordinary
        // activations fall below E4M3's subnormal range and flush to zero.
        let mut a = Matrix::random(8, 256, 5e-4, 31);
        a.set(0, 0, 300.0); // activation outlier
        let b = Matrix::random(256, 8, 1.0, 32);
        let reference = a.matmul(&b);
        let fine = gemm_fp8(&a, &b, Fp8GemmConfig::default());
        let coarse = gemm_fp8_per_tensor(&a, &b, Format::E4M3);
        // Judge on the rows that do NOT contain the outlier: with a single
        // per-tensor scale their activations flush below E4M3's subnormal
        // range, so the coarse result loses them entirely, while the
        // whole-matrix Frobenius norm would be masked by the outlier row.
        let tail = |m: &Matrix| m.data[m.cols..].to_vec();
        let e_fine = relative_frobenius_error(&tail(&reference), &tail(&fine));
        let e_coarse = relative_frobenius_error(&tail(&reference), &tail(&coarse));
        assert!(e_fine < 0.2 * e_coarse, "fine {e_fine} vs coarse {e_coarse}");
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn bad_chunk_panics() {
        let a = Matrix::zeros(1, 4);
        let b = Matrix::zeros(4, 1);
        let _ = gemm_fp8(&a, &b, Fp8GemmConfig { chunk: 48, ..Fp8GemmConfig::default() });
    }

    #[test]
    fn ragged_k_handled() {
        let a = Matrix::random(3, 200, 1.0, 41); // 200 = 128 + 72
        let b = Matrix::random(200, 3, 1.0, 42);
        let reference = a.matmul(&b);
        let c = gemm_fp8(&a, &b, Fp8GemmConfig::default());
        let err = relative_frobenius_error(&reference.data, &c.data);
        assert!(err < 0.05, "relative error {err}");
    }
}
