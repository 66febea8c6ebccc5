//! Test oracle: the scalar `log2`/`powi`/`floor`/`trunc` implementations
//! the bit-level fast paths replaced, and the differential tests that pin
//! the fast paths to them bit for bit. The code is the replaced code with
//! two changes: `Fp22` additions are spelled out as
//! [`round_to_mantissa_bits`] calls, and [`encode`] saturates ±∞ in
//! finite-only formats (it used to overflow).
//!
//! The oracle computes `2^e` with `2f64.powi(e)`, which underflows to 0
//! below `e = -1023`. So it is wrong where that matters: `exponent_of`
//! below 2^-1024, and rounding or truncation grids below 2^-1023 (a
//! result of NaN). No experiment comes near those magnitudes. There the
//! tests check the fast path against the exact definition instead.

use crate::gemm::{Fp8GemmConfig, MainAccumulator};
use crate::matrix::Matrix;
use crate::minifloat::Format;
use crate::quant::{BlockQuantized, TileQuantized};
use crate::tensorcore::MMA_K;

/// Floor of log2(|x|) for finite nonzero `x`.
pub fn exponent_of(x: f64) -> i32 {
    let mut e = x.abs().log2().floor() as i32;
    // Guard against log2 imprecision at binade edges.
    let a = x.abs();
    if 2f64.powi(e + 1) <= a {
        e += 1;
    } else if 2f64.powi(e) > a {
        e -= 1;
    }
    e
}

/// Round `x` to `bits` explicit fraction bits (round-to-nearest-even).
pub fn round_to_mantissa_bits(x: f64, bits: u32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let e = exponent_of(x);
    let scale = 2f64.powi(e - bits as i32);
    (x / scale).round_ties_even() * scale
}

/// Truncate `x` toward zero at `bits` explicit fraction bits relative to
/// the binade of `reference_exponent`.
pub fn truncate_at_exponent(x: f64, reference_exponent: i32, bits: u32) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let scale = 2f64.powi(reference_exponent - bits as i32);
    (x / scale).trunc() * scale
}

/// One emulated tensor-core step over up to [`MMA_K`] exact products.
pub fn align_truncate_sum(products: &[f64]) -> f64 {
    let max_e =
        products.iter().filter(|p| **p != 0.0 && p.is_finite()).map(|p| exponent_of(*p)).max();
    let Some(max_e) = max_e else {
        return products.iter().sum(); // all zero (or non-finite propagates)
    };
    products.iter().map(|&p| truncate_at_exponent(p, max_e, 13)).sum()
}

/// Encode `x` to the nearest code of `f` (ties to even, saturating).
pub fn encode(f: &Format, x: f64) -> u32 {
    let sign = if x.is_sign_negative() { 1u32 << (f.exp_bits + f.man_bits) } else { 0 };
    if x.is_nan() {
        return sign | f.nan_pattern();
    }
    let mag = x.abs();
    if mag == 0.0 {
        return sign;
    }
    if mag.is_infinite() {
        if f.finite_only {
            return sign | f.max_finite_pattern();
        }
        // IEEE-style formats keep infinity.
        let inf = ((1u32 << f.exp_bits) - 1) << f.man_bits;
        return sign | inf;
    }
    // Round first, then saturate: a value that rounds *down* into range
    // must not be clamped prematurely.
    let (e, frac_bits) = round_magnitude(f, mag);
    if e > f.max_biased_exp() || frac_overflows(f, e, frac_bits) {
        return sign | f.max_finite_pattern();
    }
    sign | ((e as u32) << f.man_bits) | frac_bits
}

fn frac_overflows(f: &Format, e: i32, frac: u32) -> bool {
    if e < f.max_biased_exp() {
        return false;
    }
    let mut man_max = (1u32 << f.man_bits) - 1;
    if f.finite_only {
        man_max &= !1;
    }
    frac > man_max
}

fn round_magnitude(f: &Format, mag: f64) -> (i32, u32) {
    let bias = f.bias();
    let mut e_unb = mag.log2().floor() as i32;
    if 2f64.powi(e_unb + 1) <= mag {
        e_unb += 1;
    } else if 2f64.powi(e_unb) > mag {
        e_unb -= 1;
    }
    let min_unb = 1 - bias;
    let (scale_exp, implicit_one) = if e_unb < min_unb { (min_unb, false) } else { (e_unb, true) };
    let frac = mag / 2f64.powi(scale_exp);
    let steps = (1u64 << f.man_bits) as f64;
    let units = frac * steps;
    let mut k = round_ties_even(units);
    let mut e = if implicit_one { scale_exp + bias } else { 0 };
    let full = 1u64 << f.man_bits;
    if implicit_one {
        if k >= 2 * full {
            e += 1;
            k = full;
        }
        (e, (k - full) as u32)
    } else if k >= full {
        (1, (k - full) as u32)
    } else {
        (0, k as u32)
    }
}

fn round_ties_even(x: f64) -> u64 {
    let floor = x.floor();
    let diff = x - floor;
    let f = floor as u64;
    if diff > 0.5 || (diff == 0.5 && !f.is_multiple_of(2)) {
        f + 1
    } else {
        f
    }
}

/// Decode a code of `f` to `f64`.
pub fn decode(f: &Format, bits: u32) -> f64 {
    let bits = bits & ((1u32 << f.total_bits()) - 1);
    let sign = if bits >> (f.exp_bits + f.man_bits) & 1 == 1 { -1.0 } else { 1.0 };
    let e = (bits >> f.man_bits) & ((1 << f.exp_bits) - 1);
    let m = bits & ((1 << f.man_bits) - 1);
    let bias = f.bias();
    let top = (1u32 << f.exp_bits) - 1;
    if e == top && !f.finite_only {
        if m == 0 {
            return sign * f64::INFINITY;
        }
        return f64::NAN;
    }
    if f.finite_only && e == top && m == (1 << f.man_bits) - 1 {
        return f64::NAN;
    }
    if e == 0 {
        let frac = m as f64 / (1u64 << f.man_bits) as f64;
        return sign * frac * 2f64.powi(1 - bias);
    }
    let frac = 1.0 + m as f64 / (1u64 << f.man_bits) as f64;
    sign * frac * 2f64.powi(e as i32 - bias)
}

/// The column-at-a-time emulated FP8 GEMM over prepared operands.
pub fn gemm_execute(a: &TileQuantized, b: &BlockQuantized, cfg: Fp8GemmConfig) -> Matrix {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let chunk = cfg.chunk;
    let mut out = Matrix::zeros(m, n);
    let mut prod = vec![0f64; chunk];
    for i in 0..m {
        for j in 0..n {
            let mut acc_f32 = 0f32;
            let mut acc_fp22 = 0f64;
            let mut acc_exact = 0f64;
            let mut c0 = 0usize;
            while c0 < k {
                let c1 = (c0 + chunk).min(k);
                let mut partial = 0f64;
                for (kk, p) in (c0..c1).zip(prod.iter_mut()) {
                    *p = a.codes[i * k + kk] * b.codes[kk * n + j];
                }
                for sub in prod[..c1 - c0].chunks(MMA_K) {
                    partial = round_to_mantissa_bits(partial + align_truncate_sum(sub), 13);
                }
                let scale = a.scale_at(i, c0) * b.scale_at(c0, j);
                let scaled = partial * scale;
                match cfg.main_acc {
                    MainAccumulator::Fp32 => acc_f32 += scaled as f32,
                    MainAccumulator::Fp22 => {
                        acc_fp22 = round_to_mantissa_bits(acc_fp22 + scaled, 13);
                    }
                    MainAccumulator::Exact => acc_exact += scaled,
                }
                c0 = c1;
            }
            let v = match cfg.main_acc {
                MainAccumulator::Fp32 => f64::from(acc_f32),
                MainAccumulator::Fp22 => acc_fp22,
                MainAccumulator::Exact => acc_exact,
            };
            out.set(i, j, v as f32);
        }
    }
    out
}

/// The i-j-k reference matmul with `f64` accumulation.
pub fn matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(lhs.rows, rhs.cols);
    for i in 0..lhs.rows {
        for j in 0..rhs.cols {
            let mut acc = 0f64;
            for k in 0..lhs.cols {
                acc += f64::from(lhs.get(i, k)) * f64::from(rhs.get(k, j));
            }
            out.set(i, j, acc as f32);
        }
    }
    out
}

mod tests {
    use super::*;
    use crate::fp22;
    use crate::gemm::Fp8Gemm;
    use crate::tensorcore;
    use proptest::prelude::*;

    const FORMATS: [Format; 4] = [Format::E4M3, Format::E5M2, Format::E5M6, Format::BF16];

    /// Bit equality, except that any NaN matches any NaN: NaN payloads
    /// depend on operand order, which the fast paths need not keep.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every power of two in f64, `(e, 2^e)` for e in -1074..=1023, built
    /// by doubling the smallest subnormal.
    fn powers_of_two() -> impl Iterator<Item = (i32, f64)> {
        (-1074..=1023).zip(std::iter::successors(Some(f64::from_bits(1)), |x| Some(x * 2.0)))
    }

    #[test]
    fn pow2_is_exact_over_the_whole_range() {
        for (e, x) in powers_of_two() {
            assert_eq!(fp22::pow2(e).to_bits(), x.to_bits(), "2^{e}");
            if e >= -1023 {
                // The oracle's powi is exact down to here.
                assert_eq!(fp22::pow2(e).to_bits(), 2f64.powi(e).to_bits(), "2^{e}");
            }
        }
        assert_eq!(fp22::pow2(1024), f64::INFINITY);
        assert_eq!(fp22::pow2(-1075), 0.0);
    }

    #[test]
    fn exponent_of_matches_at_every_binade_edge() {
        for (e, x) in powers_of_two() {
            assert_eq!(fp22::exponent_of(x), e, "2^{e}");
            assert_eq!(fp22::exponent_of(-x), e, "-2^{e}");
            let below = x.next_down();
            if below > 0.0 {
                assert_eq!(fp22::exponent_of(below), e - 1, "next_down(2^{e})");
            }
            if e >= -1023 {
                assert_eq!(fp22::exponent_of(x), exponent_of(x), "2^{e}");
                assert_eq!(fp22::exponent_of(below), exponent_of(below), "next_down(2^{e})");
            }
        }
    }

    #[test]
    fn decode_matches_on_every_code() {
        for f in FORMATS {
            for code in 0..1u32 << f.total_bits() {
                let (fast, slow) = (f.decode(code), decode(&f, code));
                assert_eq!(fast.to_bits(), slow.to_bits(), "{f:?} code {code:#x}");
            }
        }
    }

    /// The encode probes around `v`: itself and its f64 neighbours.
    fn around(v: f64) -> [f64; 3] {
        [v, v.next_up(), v.next_down()]
    }

    fn check_encode(f: &Format, x: f64) {
        let (fast, slow) = (f.encode(x), encode(f, x));
        assert_eq!(fast, slow, "{f:?} encode({x:e}) [bits {:#018x}]", x.to_bits());
        assert!(fast < 1 << f.total_bits(), "{f:?} encode({x:e}) = {fast:#x} is too wide");
    }

    #[test]
    fn encode_matches_at_codes_midpoints_and_extremes() {
        for f in FORMATS {
            // Nonnegative finite values in code order (codes are monotone).
            let values: Vec<f64> = (0..1u32 << (f.total_bits() - 1))
                .map(|c| f.decode(c))
                .filter(|v| v.is_finite())
                .collect();
            for pair in values.windows(2) {
                let mid = (pair[0] + pair[1]) / 2.0;
                for x in around(pair[0]).into_iter().chain(around(mid)) {
                    check_encode(&f, x);
                    check_encode(&f, -x);
                }
            }
            let max = f.max_finite();
            let extremes = [
                max,
                max.next_up(),
                max * 1.03,
                max * 2.0,
                1e300,
                f64::MAX,
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE.next_down(),
                f64::MIN_POSITIVE / 3.0,
                f64::from_bits(1),
                0.0,
                f64::INFINITY,
                f64::NAN,
            ];
            for x in extremes {
                check_encode(&f, x);
                check_encode(&f, -x);
            }
        }
    }

    /// An f64 from a category: raw bits (any class), a special value, a
    /// subnormal, or a normal number within 2^±40.
    fn arbitrary_f64() -> impl Strategy<Value = f64> {
        const SIGN_AND_FRACTION: u64 = 1 << 63 | fp22::F64_FRACTION_MASK;
        (0u8..6, 0u64..=u64::MAX).prop_map(|(kind, bits)| match kind {
            0 | 1 => f64::from_bits(bits),
            2 => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN]
                [(bits % 6) as usize],
            3 => f64::from_bits(bits & SIGN_AND_FRACTION),
            _ => {
                let field = 1023 - 40 + (bits >> 52) % 80;
                f64::from_bits(bits & SIGN_AND_FRACTION | field << 52)
            }
        })
    }

    /// An FP8 E4M3 product: a pair of non-NaN codes, one in four zero.
    fn fp8_product() -> impl Strategy<Value = f64> {
        (0u32..256, 0u32..256, 0u8..4).prop_map(|(a, b, z)| {
            let v = |c: u32| Format::E4M3.decode(if c & 0x7f == 0x7f { c - 1 } else { c });
            if z == 0 {
                0.0
            } else {
                v(a) * v(b)
            }
        })
    }

    /// The exact aligned-and-truncated sum of a finite group, from the
    /// definition: integer units of the grid `2^(max_e - 13)` (never
    /// finer than f64's own), truncated toward zero, summed exactly.
    fn exact_align_truncate_sum(products: &[f64]) -> Option<f64> {
        let max_e = products.iter().filter(|p| **p != 0.0).map(|p| fp22::exponent_of(*p)).max()?;
        let grid = (max_e - 13).max(-1074);
        let units: i128 = products
            .iter()
            .map(|&p| {
                // |p| = sig · 2^e exactly.
                let bits = p.to_bits();
                let field = fp22::exponent_field(p) as i32;
                let frac = bits & fp22::F64_FRACTION_MASK;
                let (sig, e) =
                    if field == 0 { (frac, -1074) } else { (frac | 1 << 52, field - 1075) };
                let shift = grid - e;
                let mag = if shift >= 64 {
                    0
                } else if shift >= 0 {
                    i128::from(sig >> shift)
                } else {
                    i128::from(sig) << -shift
                };
                if p < 0.0 {
                    -mag
                } else {
                    mag
                }
            })
            .sum();
        Some(units as f64 * fp22::pow2(grid))
    }

    fn check_align_truncate_sum(products: &[f64]) -> Result<(), TestCaseError> {
        let fast = tensorcore::align_truncate_sum(products);
        let max_e = products
            .iter()
            .filter(|p| **p != 0.0 && p.is_finite())
            .map(|p| fp22::exponent_of(*p))
            .max();
        if max_e.is_none_or(|e| e >= 13 - 1023) {
            // Inside the oracle's exact range.
            let slow = align_truncate_sum(products);
            prop_assert!(same(fast, slow), "{products:?}: fast {fast:e}, oracle {slow:e}");
        }
        if products.iter().all(|p| p.is_finite()) && max_e.is_none_or(|e| e <= 1023 - 5) {
            if let Some(exact) = exact_align_truncate_sum(products) {
                prop_assert!(same(fast, exact), "{products:?}: fast {fast:e}, exact {exact:e}");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn encode_matches_on_random_bit_patterns(bits in 0u64..=u64::MAX) {
            for f in FORMATS {
                let x = f64::from_bits(bits);
                let (fast, slow) = (f.encode(x), encode(&f, x));
                prop_assert_eq!(fast, slow, "{:?} encode({:e})", f, x);
                prop_assert!(fast < 1 << f.total_bits());
            }
        }

        #[test]
        fn align_truncate_sum_matches_on_fp8_products(
            products in prop::collection::vec(fp8_product(), 1..=MMA_K),
        ) {
            check_align_truncate_sum(&products)?;
        }

        #[test]
        fn align_truncate_sum_matches_on_arbitrary_f64(
            products in prop::collection::vec(arbitrary_f64(), 1..=MMA_K),
        ) {
            check_align_truncate_sum(&products)?;
        }

        #[test]
        fn round_to_mantissa_bits_matches(x in arbitrary_f64(), bits in 0u32..60) {
            let fast = fp22::round_to_mantissa_bits(x, bits);
            if !x.is_finite() || x == 0.0 || fp22::exponent_of(x) - bits as i32 >= -1023 {
                let slow = round_to_mantissa_bits(x, bits);
                prop_assert!(same(fast, slow), "round({x:e}, {bits}): {fast:e} vs {slow:e}");
            }
        }
    }

    fn bits(x: &Matrix) -> Vec<u32> {
        x.data.iter().map(|v| v.to_bits()).collect()
    }

    const ACCUMULATORS: [MainAccumulator; 3] =
        [MainAccumulator::Fp32, MainAccumulator::Fp22, MainAccumulator::Exact];

    fn check_gemm_fp8(a: &Matrix, b: &Matrix) -> Result<(), TestCaseError> {
        for main_acc in ACCUMULATORS {
            let cfg = Fp8GemmConfig { main_acc, ..Fp8GemmConfig::default() };
            let g = Fp8Gemm::prepare(a, b, cfg);
            let (fast, slow) = (g.execute(), gemm_execute(&g.a, &g.b, cfg));
            prop_assert_eq!(
                bits(&fast),
                bits(&slow),
                "{:?} {}x{}x{}",
                main_acc,
                a.rows,
                a.cols,
                b.cols
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gemm_fp8_matches_on_ragged_shapes(
            m in 1usize..5,
            k in 1usize..300,
            n in 1usize..6,
            seed in 0u64..1000,
            zero_every in 2usize..9,
        ) {
            let mut a = Matrix::random(m, k, 1.0, seed);
            let b = Matrix::random(k, n, 1.0, seed + 1);
            // ReLU-like zero runs give all-zero groups of 32.
            for (idx, v) in a.data.iter_mut().enumerate() {
                if (idx / 40) % zero_every == 0 {
                    *v = 0.0;
                }
            }
            check_gemm_fp8(&a, &b)?;
        }

        #[test]
        fn matmul_matches(m in 0usize..6, k in 0usize..40, n in 0usize..6, seed in 0u64..1000) {
            let a = Matrix::random(m, k, 1.0, seed);
            let b = Matrix::random(k, n, 3.0, seed + 1);
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&matmul(&a, &b)));
        }
    }

    #[test]
    fn gemm_fp8_matches_on_edge_shapes() {
        // K < 32, K not a multiple of 128, n = 1, and a long K.
        for (m, k, n) in [(2, 20, 3), (3, 200, 3), (4, 300, 1), (1, 1, 1), (2, 4096, 2)] {
            let a = Matrix::random(m, k, 1.0, 7 + k as u64);
            let b = Matrix::random(k, n, 1.0, 8 + k as u64);
            check_gemm_fp8(&a, &b).unwrap();
        }
    }
}
