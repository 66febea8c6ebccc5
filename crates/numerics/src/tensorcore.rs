//! Emulation of the Hopper FP8 tensor-core accumulation pipeline.
//!
//! §3.1 of the paper describes the mechanism precisely: for each group of 32
//! FP8×FP8 mantissa products, the tensor core right-shifts every product to
//! align with the maximum exponent, keeps only the highest 13 fraction bits
//! (truncating the rest), adds them, and accumulates the sum into an FP22
//! register (1/8/13). DeepGEMM works around the resulting error by promoting
//! the FP22 partial sums into FP32 CUDA-core accumulators at a fixed K
//! interval (128 in DeepSeek-V3).
//!
//! [`dot_fp8`] reproduces that pipeline for a K-length dot product under a
//! selectable [`Accumulation`] strategy, which is what the paper's E3
//! experiment (FP8 accumulation error) sweeps.

use crate::fp22::{exponent_field, exponent_of, pow2, Fp22, FP22_MANTISSA_BITS};
use serde::{Deserialize, Serialize};

/// Number of products summed by one emulated tensor-core MMA step.
pub const MMA_K: usize = 32;

/// Accumulation strategy for an FP8 GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Accumulation {
    /// Ideal hardware: every per-32 partial sum lands in an FP32 (here: f64
    /// stand-in rounded to f32) accumulator. This is the "increased
    /// accumulation precision" the paper asks future hardware for.
    Fp32,
    /// Plain Hopper behaviour: all partial sums stay in one FP22 register for
    /// the whole K extent.
    Fp22,
    /// DeepGEMM strategy: FP22 accumulation for `interval` consecutive MACs,
    /// then the partial result is promoted (added) into an FP32 accumulator
    /// and the FP22 register is reset. DeepSeek-V3 uses `interval = 128`.
    Split {
        /// Number of MACs accumulated in FP22 before promotion to FP32.
        interval: usize,
    },
}

impl Accumulation {
    /// The DeepSeek-V3 production setting (promotion every 128 MACs).
    #[must_use]
    pub fn deepseek_default() -> Self {
        Accumulation::Split { interval: 128 }
    }
}

/// One emulated tensor-core step: sum up to [`MMA_K`] exact products after
/// aligning them to the maximum exponent and truncating each to 13 fraction
/// bits.
///
/// `products` are the exact FP8×FP8 products (each FP8×FP8 product is exactly
/// representable in f64, so no rounding has happened before this point).
///
/// The sum runs in integers: with `max_e` the largest exponent, each
/// product becomes `trunc(p · 2^(13 − max_e))` units of `2^(max_e − 13)`,
/// and the unit total is scaled once at the end. That is exact. Every
/// truncated term is below 2^14 units, so 32 of them and every partial
/// sum stay below 2^19 units: a float sum of the truncated terms, in any
/// order, would be exact too, and yields the same value.
#[must_use]
pub fn align_truncate_sum(products: &[f64]) -> f64 {
    debug_assert!(products.len() <= MMA_K);
    const BITS: i32 = FP22_MANTISSA_BITS as i32;
    let max_field = products.iter().fold(0, |m, &p| m.max(exponent_field(p)));
    let max_e = max_field as i32 - 1023;
    // Outside this range the unit scale leaves the normal range or a
    // partial sum could overflow: all-zero or subnormal-only groups, huge
    // products, infinities and NaN.
    if !(BITS - 1023..=1023 - 5).contains(&max_e) {
        return align_truncate_sum_by_scaling(products);
    }
    let to_units = pow2(BITS - max_e);
    let units: i64 = products.iter().map(|&p| (p * to_units) as i64).sum();
    units as f64 * pow2(max_e - BITS)
}

/// [`align_truncate_sum`] over integer operands: the products of
/// `a[k] · b[k]` units, with bit `k` of `negative` set when product `k`
/// is negative, and one unit worth `2^unit_exp`.
///
/// Each product is an exact `u64`, so the largest exponent is the top
/// bit of their OR, and truncation to 13 fraction bits below it is one
/// right shift of every magnitude. The signed sum of the shifted terms
/// (each below 2^14) is scaled once. For operands that are the unit
/// counts of FP8 codes this equals [`align_truncate_sum`] of the codes'
/// `f64` products, bit for bit: both compute the same exact value.
#[must_use]
pub(crate) fn align_truncate_sum_units(a: &[u32], b: &[u32], negative: u32, unit_exp: i32) -> f64 {
    debug_assert!(a.len() == b.len() && a.len() <= MMA_K);
    // Bit `k` of a group, from a table rather than a shift by `k`, so the
    // sign flips compile to vector compares.
    const BIT: [u32; MMA_K] = {
        let mut bit = [0; MMA_K];
        let mut k = 0;
        while k < MMA_K {
            bit[k] = 1 << k;
            k += 1;
        }
        bit
    };
    let product = |(&a, &b): (&u32, &u32)| u64::from(a) * u64::from(b);
    let or = a.iter().zip(b).map(product).fold(0, |or, p| or | p);
    // Bits above the 14 that 13 fraction bits below the top one keep.
    let shift = (u64::BITS - or.leading_zeros()).saturating_sub(FP22_MANTISSA_BITS + 1);
    let units: i32 = a
        .iter()
        .zip(b)
        .zip(&BIT)
        .map(|(ab, &bit)| {
            let flip = -i32::from(negative & bit != 0);
            ((product(ab) >> shift) as i32 ^ flip) - flip
        })
        .sum();
    f64::from(units) * pow2(unit_exp + shift as i32)
}

/// [`align_truncate_sum`] term by term in floating point, for the groups
/// the integer path does not cover. Non-finite products pass through and
/// propagate; an all-zero group sums its signed zeros.
fn align_truncate_sum_by_scaling(products: &[f64]) -> f64 {
    let max_e =
        products.iter().filter(|p| **p != 0.0 && p.is_finite()).map(|p| exponent_of(*p)).max();
    let Some(max_e) = max_e else {
        return products.iter().sum();
    };
    let grid = max_e - FP22_MANTISSA_BITS as i32;
    let scale = pow2(grid);
    products
        .iter()
        .map(|&p| {
            if p == 0.0 || !p.is_finite() || grid < -1074 {
                p // already on a grid finer than f64's own
            } else {
                (p / scale).trunc() * scale
            }
        })
        .sum()
}

/// Emulated FP8 dot product of `a · b` with the given accumulation strategy.
///
/// Inputs are already-quantized FP8 values passed as their exact `f64`
/// values; pairing [`crate::quant`] with this function gives the full
/// fine-grained GEMM. The per-32 alignment/truncation step is applied for
/// every strategy (it is baked into the tensor core); the strategy only
/// controls where partial sums accumulate.
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths or a `Split` interval of 0.
#[must_use]
pub fn dot_fp8(a: &[f64], b: &[f64], strategy: Accumulation) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product operands must match");
    let products: Vec<f64> = a.iter().zip(b).map(|(x, y)| x * y).collect();
    dot_products(&products, strategy)
}

/// Same as [`dot_fp8`] but over precomputed exact products. Useful when the
/// caller applies per-tile dequantization scales at promotion time.
#[must_use]
pub fn dot_products(products: &[f64], strategy: Accumulation) -> f64 {
    match strategy {
        Accumulation::Fp32 => {
            let mut acc = 0f32;
            for chunk in products.chunks(MMA_K) {
                acc += align_truncate_sum(chunk) as f32;
            }
            f64::from(acc)
        }
        Accumulation::Fp22 => {
            let mut acc = Fp22::new();
            for chunk in products.chunks(MMA_K) {
                acc = acc + align_truncate_sum(chunk);
            }
            acc.to_f64()
        }
        Accumulation::Split { interval } => {
            assert!(interval > 0, "split interval must be positive");
            let mut main = 0f32;
            let mut partial = Fp22::new();
            let mut macs_in_partial = 0usize;
            for chunk in products.chunks(MMA_K) {
                partial = partial + align_truncate_sum(chunk);
                macs_in_partial += chunk.len();
                if macs_in_partial >= interval {
                    main += partial.to_f64() as f32;
                    partial = Fp22::new();
                    macs_in_partial = 0;
                }
            }
            if macs_in_partial > 0 {
                main += partial.to_f64() as f32;
            }
            f64::from(main)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minifloat::F8E4M3;

    fn q(v: &[f64]) -> Vec<f64> {
        v.iter().map(|&x| F8E4M3::from_f64(x).to_f64()).collect()
    }

    #[test]
    fn empty_dot_is_zero() {
        assert_eq!(dot_fp8(&[], &[], Accumulation::Fp22), 0.0);
    }

    #[test]
    fn exact_small_sum() {
        let a = q(&[1.0, 2.0, 3.0]);
        let b = q(&[1.0, 1.0, 1.0]);
        for s in [Accumulation::Fp32, Accumulation::Fp22, Accumulation::deepseek_default()] {
            assert_eq!(dot_fp8(&a, &b, s), 6.0);
        }
    }

    #[test]
    fn alignment_truncation_loses_small_products() {
        // One huge product and 31 tiny ones: after aligning to the huge
        // exponent and keeping 13 fraction bits, products smaller than
        // max * 2^-13 vanish.
        let mut products = vec![0.0; 32];
        products[0] = 256.0;
        for p in products.iter_mut().skip(1) {
            *p = 0.01; // 0.01 < 256 * 2^-13 = 0.03125
        }
        let s = align_truncate_sum(&products);
        assert_eq!(s, 256.0);
        let exact: f64 = products.iter().sum();
        assert!((exact - 256.31).abs() < 1e-9);
    }

    /// Deterministic varied FP8 values in (0, 1]; varied mantissas make the
    /// accumulator sums carry more fraction bits than FP22 can hold.
    fn varied(k: usize, seed: u64) -> Vec<f64> {
        (0..k)
            .map(|i| {
                let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                let u = ((h >> 33) % 1000) as f64 / 1000.0; // [0, 1)
                F8E4M3::from_f64(0.05 + 0.95 * u).to_f64()
            })
            .collect()
    }

    #[test]
    fn fp32_strategy_beats_fp22_on_long_k() {
        let k = 8192;
        let a = varied(k, 1);
        let b = varied(k, 2);
        let exact: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let fp32 = dot_fp8(&a, &b, Accumulation::Fp32);
        let fp22 = dot_fp8(&a, &b, Accumulation::Fp22);
        let err32 = (fp32 - exact).abs() / exact;
        let err22 = (fp22 - exact).abs() / exact;
        assert!(err32 < err22, "fp32 {err32} vs fp22 {err22}");
        assert!(err22 > 1e-6, "fp22 must show visible error at K={k}: {err22}");
    }

    #[test]
    fn split_recovers_most_accuracy() {
        let k = 8192;
        let a = varied(k, 3);
        let b = varied(k, 4);
        let exact: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let fp22 = (dot_fp8(&a, &b, Accumulation::Fp22) - exact).abs();
        let split = (dot_fp8(&a, &b, Accumulation::deepseek_default()) - exact).abs();
        assert!(split < fp22, "split {split} must beat fp22 {fp22}");
    }

    #[test]
    fn split_interval_one_chunk_equals_fp32ish() {
        let k = 256;
        let a = vec![1.0f64; k];
        let b = vec![0.5f64; k];
        let s32 = dot_fp8(&a, &b, Accumulation::Fp32);
        let s = dot_fp8(&a, &b, Accumulation::Split { interval: 32 });
        assert!((s32 - s).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_panic() {
        let _ = dot_fp8(&[1.0], &[1.0, 2.0], Accumulation::Fp32);
    }

    #[test]
    fn all_zero_chunk() {
        assert_eq!(align_truncate_sum(&[0.0; 32]), 0.0);
    }
}
