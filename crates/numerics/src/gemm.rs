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
//!
//! [`Fp8Gemm::execute`] runs the tensor-core portion on integers: FP8
//! codes are whole numbers of units of the format's smallest subnormal,
//! so a product is an exact `u64` and the per-32 alignment and truncation
//! is a shift. Its output is bit-identical to the float emulation of the
//! same steps.

use crate::fp22::pow2;
use crate::matrix::Matrix;
use crate::minifloat::Format;
use crate::quant::{quantize_per_tensor, BlockQuantized, TileQuantized};
use crate::tensorcore::{align_truncate_sum, align_truncate_sum_units, MMA_K};
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
    /// Panics if shapes are incompatible, `cfg.chunk` is 0 or not a
    /// multiple of [`MMA_K`], or `cfg.format` is wider than 8 bits or has
    /// magnitudes of 2^32 or more of its smallest subnormal (E6M1, E7M0):
    /// [`execute`](Self::execute) multiplies codes as 32-bit integers.
    #[must_use]
    pub fn prepare(a: &Matrix, b: &Matrix, cfg: Fp8GemmConfig) -> Self {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        assert!(
            cfg.chunk > 0 && cfg.chunk.is_multiple_of(MMA_K),
            "chunk must be a positive multiple of {MMA_K}"
        );
        let f = cfg.format;
        assert!(
            f.total_bits() <= 8 && f.max_finite() / f.min_subnormal() < 2f64.powi(32),
            "format must be an 8-bit one whose codes fit 32-bit integer units, not {f:?}"
        );
        let qa = TileQuantized::quantize(a, cfg.format, cfg.chunk);
        let qb = BlockQuantized::quantize(b, cfg.format, cfg.chunk);
        Self { a: qa, b: qb, cfg }
    }

    /// Execute the emulated GEMM.
    ///
    /// Codes are multiplied as integers: each is a whole number of units
    /// of the format's smallest subnormal, below 2^32, so each product is
    /// an exact `u64`, aligned and truncated by a shift. B is transposed
    /// once into such units, so that every output reads its column
    /// contiguously, and each row of A is converted as it is reached.
    /// A 32-product group that holds a code with no unit count (NaN, ±∞
    /// or a value off the format's grid) multiplies the `f64` codes and
    /// takes [`align_truncate_sum`] instead. The FP22 partials, the scales
    /// and the main accumulators are those of the column-at-a-time loop,
    /// so every output is bit-identical to it.
    #[must_use]
    pub fn execute(&self) -> Matrix {
        let (m, k, n) = (self.a.rows, self.a.cols, self.b.cols);
        let chunk = self.cfg.chunk;
        let grid = UnitGrid::new(self.cfg.format);
        // B transposed: vector `j` is column `j`.
        let mut bt = Units::default();
        bt.fill(&self.b.codes, n, k, |j, kk| kk * n + j, grid);
        let mut a_row = Units::default();
        let chunks = k.div_ceil(chunk);
        // Chunk-major B scales: chunk `t`'s scales of all `n` columns.
        let b_scales: Vec<f64> =
            (0..chunks).flat_map(|t| (0..n).map(move |j| self.b.scale_at(t * chunk, j))).collect();
        let mut out = Matrix::zeros(m, n);
        let mut a_scales = vec![0f64; chunks];
        let mut prod = [0f64; MMA_K];
        for i in 0..m {
            let a_codes = &self.a.codes[i * k..(i + 1) * k];
            a_row.fill(a_codes, 1, k, |_, kk| kk, grid);
            let (a_mag, a_negative, a_exact) = a_row.vector(0);
            for (t, s) in a_scales.iter_mut().enumerate() {
                *s = self.a.scale_at(i, t * chunk);
            }
            for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                let (b_mag, b_negative, b_exact) = bt.vector(j);
                let mut acc_f32 = 0f32;
                let mut acc_fp22 = Fp22::new();
                let mut acc_exact = 0f64;
                for (t, &a_scale) in a_scales.iter().enumerate() {
                    // Tensor-core portion: FP22 accumulation of aligned,
                    // truncated 32-product sums over this chunk.
                    let mut partial = Fp22::new();
                    for g in t * chunk / MMA_K..((t + 1) * chunk).min(k).div_ceil(MMA_K) {
                        let (k0, k1) = (g * MMA_K, ((g + 1) * MMA_K).min(k));
                        let sum = if a_exact[g] && b_exact[g] {
                            let negative = a_negative[g] ^ b_negative[g];
                            let (a, b) = (&a_mag[k0..k1], &b_mag[k0..k1]);
                            align_truncate_sum_units(a, b, negative, grid.product_exp)
                        } else {
                            for (p, kk) in prod.iter_mut().zip(k0..k1) {
                                *p = a_codes[kk] * self.b.codes[kk * n + j];
                            }
                            align_truncate_sum(&prod[..k1 - k0])
                        };
                        partial = partial + sum;
                    }
                    // CUDA-core portion: dequantize and promote.
                    let scaled = partial.to_f64() * (a_scale * b_scales[t * n + j]);
                    match self.cfg.main_acc {
                        MainAccumulator::Fp32 => acc_f32 += scaled as f32,
                        MainAccumulator::Fp22 => acc_fp22 = acc_fp22 + scaled,
                        MainAccumulator::Exact => acc_exact += scaled,
                    }
                }
                let v = match self.cfg.main_acc {
                    MainAccumulator::Fp32 => f64::from(acc_f32),
                    MainAccumulator::Fp22 => acc_fp22.to_f64(),
                    MainAccumulator::Exact => acc_exact,
                };
                *o = v as f32;
            }
        }
        out
    }
}

/// How a format's codes map to integer units: one unit is its smallest
/// subnormal, `2^exp`.
#[derive(Clone, Copy)]
struct UnitGrid {
    /// `2^-exp`: a code times this is its unit count.
    per_code: f64,
    /// The exponent of one unit of a product of two codes.
    product_exp: i32,
    /// The `f64` fraction bits below the format's mantissa, all zero in a
    /// code.
    below_mantissa: u64,
}

impl UnitGrid {
    fn new(f: Format) -> Self {
        let exp = 1 - f.bias() - f.man_bits as i32;
        Self {
            per_code: pow2(-exp),
            product_exp: 2 * exp,
            below_mantissa: (1 << (52 - f.man_bits)) - 1,
        }
    }
}

/// Vectors of codes along K as unit counts, in groups of [`MMA_K`].
#[derive(Default)]
struct Units {
    /// Codes per vector.
    len: usize,
    /// Unit count of each code's magnitude, vector after vector.
    mag: Vec<u32>,
    /// Per group: bit `k` is the sign of its code `k`.
    negative: Vec<u32>,
    /// Per group: whether every code is a whole number of units whose
    /// significand fits the format (false for NaN, ±∞ and off-grid
    /// values, whose `mag` is then meaningless).
    exact: Vec<bool>,
}

impl Units {
    /// Refill with `count` vectors of `len` codes, element `kk` of vector
    /// `v` being `codes[at(v, kk)]`, reusing the buffers.
    fn fill(
        &mut self,
        codes: &[f64],
        count: usize,
        len: usize,
        at: impl Fn(usize, usize) -> usize,
        grid: UnitGrid,
    ) {
        self.len = len;
        self.mag.clear();
        self.mag.resize(count * len, 0);
        self.negative.clear();
        self.exact.clear();
        for v in 0..count {
            let mag = &mut self.mag[v * len..(v + 1) * len];
            for (g, mag) in mag.chunks_mut(MMA_K).enumerate() {
                let (mut negative, mut exact) = (0u32, true);
                for (bit, m) in mag.iter_mut().enumerate() {
                    let code = codes[at(v, g * MMA_K + bit)];
                    let units = code.abs() * grid.per_code;
                    *m = units as u32;
                    exact &= f64::from(*m) == units && code.to_bits() & grid.below_mantissa == 0;
                    negative |= u32::from(code.is_sign_negative()) << bit;
                }
                self.negative.push(negative);
                self.exact.push(exact);
            }
        }
    }

    /// Vector `v`: its unit counts, and its groups' sign masks and
    /// exactness.
    fn vector(&self, v: usize) -> (&[u32], &[u32], &[bool]) {
        let groups = self.len.div_ceil(MMA_K);
        (
            &self.mag[v * self.len..(v + 1) * self.len],
            &self.negative[v * groups..(v + 1) * groups],
            &self.exact[v * groups..(v + 1) * groups],
        )
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
