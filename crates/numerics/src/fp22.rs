//! The FP22 accumulation register format of Hopper tensor cores.
//!
//! §3.1 of the paper: "Addition results are accumulated to FP22 registers
//! (1 sign bit, 8 exponent bits, and 13 mantissa bits)." FP22 therefore has
//! the dynamic range of `f32` but only 13 fraction bits, which is the root
//! cause of the accumulation-precision concern for large-K FP8 GEMMs.

use serde::{Deserialize, Serialize};

/// Number of explicit fraction bits kept by an FP22 register.
pub const FP22_MANTISSA_BITS: u32 = 13;

/// A value stored in a Hopper-style FP22 accumulation register.
///
/// Internally kept as an `f64` that is always exactly representable with 13
/// fraction bits (plus f32's 8-bit exponent range), so arithmetic can be
/// performed in `f64` and re-canonicalized.
///
/// ```
/// use dsv3_numerics::Fp22;
///
/// let a = Fp22::from_f64(1.0);
/// // Adding an ulp-of-f32-sized value is lost at 13 mantissa bits:
/// let b = a + 2f64.powi(-15);
/// assert_eq!(b.to_f64(), 1.0);
/// // ...but a 2^-13-sized value survives.
/// let c = a + 2f64.powi(-13);
/// assert!(c.to_f64() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Fp22(f64);

impl Fp22 {
    /// Zero register.
    #[must_use]
    pub fn new() -> Self {
        Self(0.0)
    }

    /// Round `x` into FP22 (round-to-nearest-even at 13 fraction bits,
    /// f32-like exponent range with saturation to f32's max finite binade).
    #[must_use]
    pub fn from_f64(x: f64) -> Self {
        Self(round_to_mantissa_bits(x, FP22_MANTISSA_BITS))
    }

    /// The stored value.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.0
    }
}

impl std::ops::Add<f64> for Fp22 {
    type Output = Self;

    /// `self + x`, rounded back into FP22.
    fn add(self, x: f64) -> Self {
        Self::from_f64(self.0 + x)
    }
}

impl From<f64> for Fp22 {
    fn from(x: f64) -> Self {
        Self::from_f64(x)
    }
}

impl From<Fp22> for f64 {
    fn from(x: Fp22) -> f64 {
        x.to_f64()
    }
}

impl std::fmt::Display for Fp22 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Mask of an `f64`'s 52 explicit fraction bits.
pub(crate) const F64_FRACTION_MASK: u64 = (1 << 52) - 1;

/// The 11-bit biased exponent field of `x` (0 for zero and subnormals,
/// 0x7ff for infinities and NaN).
#[inline]
pub(crate) fn exponent_field(x: f64) -> u32 {
    ((x.to_bits() >> 52) & 0x7ff) as u32
}

/// Round `x` to `bits` explicit fraction bits (round-to-nearest-even),
/// preserving the exponent. Infinities, NaN and zero pass through.
#[must_use]
pub fn round_to_mantissa_bits(x: f64, bits: u32) -> f64 {
    let field = exponent_field(x);
    if x == 0.0 || field == 0x7ff || bits >= 52 {
        return x;
    }
    if field == 0 {
        // Subnormal: exact scaling by a power of two, unless the grid is
        // finer than f64's own, which `x` already sits on.
        let grid = exponent_of(x) - bits as i32;
        if grid < -1074 {
            return x;
        }
        let scale = pow2(grid);
        return (x / scale).round_ties_even() * scale;
    }
    // Normal: round the fraction field half-to-even in the integer
    // domain. A carry out of the fraction bumps the exponent field, up to
    // the infinity pattern past the top binade.
    let drop = 52 - bits;
    let b = x.to_bits();
    let odd = (b >> drop) & 1;
    f64::from_bits((b + (1 << (drop - 1)) - 1 + odd) & !((1 << drop) - 1))
}

/// Floor of log2(|x|) for finite nonzero `x`, read from the exponent
/// field (for a subnormal, from the position of its leading fraction bit).
#[must_use]
pub fn exponent_of(x: f64) -> i32 {
    let field = exponent_field(x);
    if field == 0 {
        let fraction = x.to_bits() & F64_FRACTION_MASK;
        63 - fraction.leading_zeros() as i32 - 1074
    } else {
        field as i32 - 1023
    }
}

/// `2^e`, built from its bit pattern: exact for every `e` in
/// `-1074..=1023` (subnormal below `-1022`), `0.0` below that range and
/// `+∞` above it.
#[must_use]
pub(crate) fn pow2(e: i32) -> f64 {
    if e > 1023 {
        f64::INFINITY
    } else if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e >= -1074 {
        f64::from_bits(1 << (e + 1074))
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp22_keeps_13_bits() {
        let x = 1.0 + 2f64.powi(-13);
        assert_eq!(Fp22::from_f64(x).to_f64(), x);
        let y = 1.0 + 2f64.powi(-14);
        // Ties to even: 1.0 + 2^-14 is halfway between 1.0 and 1.0+2^-13;
        // even mantissa is 1.0.
        assert_eq!(Fp22::from_f64(y).to_f64(), 1.0);
    }

    #[test]
    fn fp22_add_small_lost() {
        let mut acc = Fp22::from_f64(4096.0);
        for _ in 0..1000 {
            acc = acc + 0.2; // 0.2 < ulp(4096)@13bits = 0.5
        }
        assert_eq!(acc.to_f64(), 4096.0, "sub-ulp additions are lost entirely");
    }

    #[test]
    fn fp32_would_not_lose_them() {
        let mut acc = 4096.0f32;
        for _ in 0..1000 {
            acc += 0.2;
        }
        assert!((f64::from(acc) - 4296.0).abs() < 1.0);
    }

    #[test]
    fn exponent_of_edges() {
        assert_eq!(exponent_of(1.0), 0);
        assert_eq!(exponent_of(0.5), -1);
        assert_eq!(exponent_of(2.0), 1);
        assert_eq!(exponent_of(-3.0), 1);
        assert_eq!(exponent_of(448.0), 8);
    }

    #[test]
    fn zero_and_specials_pass_through() {
        assert_eq!(round_to_mantissa_bits(0.0, 13), 0.0);
        assert!(round_to_mantissa_bits(f64::NAN, 13).is_nan());
        assert_eq!(round_to_mantissa_bits(f64::INFINITY, 13), f64::INFINITY);
    }
}
