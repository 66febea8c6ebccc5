//! Generic binary minifloat codec and the concrete formats used by the paper.
//!
//! A [`Format`] describes a sign/exponent/mantissa layout. [`Format::encode`]
//! converts an `f64` to the nearest representable value (round-to-nearest,
//! ties-to-even) and returns its bit pattern; [`Format::decode`] converts a
//! bit pattern back to `f64`. [`Format::quantize`], the cast through the
//! format and back that the quantizers and trainers call per element, is
//! fused: it rounds the `f64` to the format's grid without forming the
//! code, and gives exactly what `decode(encode(x))` gives. Saturating
//! behaviour on overflow is the one used by FP8 training frameworks
//! (values beyond the max finite magnitude clamp to it rather than
//! becoming infinity/NaN), which is also what DeepSeek-V3's quantizer
//! relies on.

use crate::fp22::{exponent_field, pow2, F64_FRACTION_MASK};
use serde::{Deserialize, Serialize};

/// Layout and semantics of a binary minifloat format.
///
/// The format always has one sign bit, `exp_bits` exponent bits with bias
/// `2^(exp_bits-1) - 1`, and `man_bits` mantissa bits. Subnormals are
/// supported. `finite_only` selects OCP-FP8-E4M3-style semantics where the
/// top exponent code is reused for normal values (only the all-ones
/// exponent+mantissa pattern is NaN and there is no infinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Format {
    /// Number of exponent bits.
    pub exp_bits: u32,
    /// Number of explicit mantissa (fraction) bits.
    pub man_bits: u32,
    /// If true, the top exponent code encodes normal numbers (E4M3 style);
    /// if false, it encodes infinity/NaN (IEEE style, E5M2/BF16).
    pub finite_only: bool,
}

impl Format {
    /// The OCP 8-bit E4M3 format: 4 exponent bits, 3 mantissa bits, no
    /// infinities, maximum finite value 448.
    pub const E4M3: Format = Format { exp_bits: 4, man_bits: 3, finite_only: true };
    /// The OCP 8-bit E5M2 format: 5 exponent bits, 2 mantissa bits, IEEE
    /// special values, maximum finite value 57344.
    pub const E5M2: Format = Format { exp_bits: 5, man_bits: 2, finite_only: false };
    /// The 12-bit E5M6 format mentioned in §3.2 as a candidate combine-stage
    /// precision.
    pub const E5M6: Format = Format { exp_bits: 5, man_bits: 6, finite_only: false };
    /// bfloat16: 8 exponent bits, 7 mantissa bits.
    pub const BF16: Format = Format { exp_bits: 8, man_bits: 7, finite_only: false };

    /// Total storage width in bits (including the sign bit).
    #[must_use]
    pub const fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Exponent bias.
    #[must_use]
    pub const fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    pub(crate) const fn max_biased_exp(&self) -> i32 {
        // Highest biased exponent usable for normal numbers.
        let top = (1 << self.exp_bits) - 1;
        if self.finite_only {
            top
        } else {
            top - 1
        }
    }

    /// Largest finite representable magnitude.
    #[must_use]
    pub fn max_finite(&self) -> f64 {
        self.decode(self.max_finite_pattern())
    }

    /// Smallest positive normal magnitude.
    #[must_use]
    pub fn min_normal(&self) -> f64 {
        self.decode(1 << self.man_bits)
    }

    /// Smallest positive subnormal magnitude.
    #[must_use]
    pub fn min_subnormal(&self) -> f64 {
        self.decode(1)
    }

    /// Encode `x` to the nearest representable value's bit pattern
    /// (round-to-nearest, ties-to-even; magnitudes beyond
    /// [`max_finite`](Self::max_finite) saturate to it, and so does ±∞ in
    /// a [`finite_only`](Self::finite_only) format).
    ///
    /// Rounding happens in the integer domain on the `f64`'s significand.
    /// Codes are monotone in magnitude, so one code covers both binades
    /// and subnormals: the biased exponent of the grid's binade, shifted
    /// up, plus the rounded significand (implicit bit included), whose
    /// carry bumps the exponent. Every `f64` subnormal lies far below
    /// half the smallest subnormal of the paper's formats and so rounds
    /// to a signed zero.
    #[must_use]
    pub fn encode(&self, x: f64) -> u32 {
        let bits = x.to_bits();
        let sign = ((bits >> 63) as u32) << (self.exp_bits + self.man_bits);
        let field = exponent_field(x) as i32;
        let fraction = bits & F64_FRACTION_MASK;
        if field == 0x7ff {
            return sign
                | if fraction != 0 {
                    self.nan_pattern()
                } else if self.finite_only {
                    self.max_finite_pattern()
                } else {
                    // IEEE-style formats keep infinity.
                    ((1u32 << self.exp_bits) - 1) << self.man_bits
                };
        }
        // |x| = significand · 2^scale, with the implicit bit for normals.
        let (significand, scale) =
            if field == 0 { (fraction, -1074) } else { (fraction | 1 << 52, field - 1075) };
        if significand == 0 {
            return sign;
        }
        let binade = scale + 63 - significand.leading_zeros() as i32;
        let grid_binade = binade.max(1 - self.bias());
        let man_bits = self.man_bits as i32;
        let shift = grid_binade - man_bits - scale;
        let rounded = if shift <= 0 {
            significand << -shift
        } else if shift >= 64 {
            0
        } else {
            let odd = (significand >> shift) & 1;
            (significand + (1 << (shift - 1)) - 1 + odd) >> shift
        };
        // Round first, then saturate: a value that rounds *down* into range
        // must not be clamped prematurely.
        let code = (i64::from(grid_binade + self.bias() - 1) << man_bits) + rounded as i64;
        sign | code.min(i64::from(self.max_finite_pattern())) as u32
    }

    /// Decode a bit pattern to `f64`, assembled from the code's fields:
    /// the significand (implicit bit included for normals) times a power
    /// of two, both exact. Bits above [`total_bits`](Self::total_bits)
    /// are ignored.
    #[must_use]
    pub fn decode(&self, bits: u32) -> f64 {
        let bits = bits & ((1u32 << self.total_bits()) - 1);
        let negative = bits >> (self.exp_bits + self.man_bits) & 1 == 1;
        let e = (bits >> self.man_bits) & ((1 << self.exp_bits) - 1);
        let m = bits & ((1 << self.man_bits) - 1);
        let top = (1u32 << self.exp_bits) - 1;
        if e == top && !self.finite_only {
            if m == 0 {
                return if negative { f64::NEG_INFINITY } else { f64::INFINITY };
            }
            return f64::NAN;
        }
        if self.finite_only && e == top && m == (1 << self.man_bits) - 1 {
            return f64::NAN;
        }
        // Subnormals have no implicit bit and share the lowest binade.
        let (significand, binade) = if e == 0 {
            (m, 1 - self.bias())
        } else {
            (m | 1 << self.man_bits, e as i32 - self.bias())
        };
        let mag = f64::from(significand) * pow2(binade - self.man_bits as i32);
        if negative {
            -mag
        } else {
            mag
        }
    }

    pub(crate) fn nan_pattern(&self) -> u32 {
        if self.finite_only {
            // all-ones exponent and mantissa
            (1u32 << (self.exp_bits + self.man_bits)) - 1
        } else {
            let exp = ((1u32 << self.exp_bits) - 1) << self.man_bits;
            exp | 1 // quiet-ish NaN: nonzero mantissa
        }
    }

    pub(crate) fn max_finite_pattern(&self) -> u32 {
        let e = self.max_biased_exp() as u32;
        let mut man_max = (1u32 << self.man_bits) - 1;
        if self.finite_only {
            man_max &= !1;
        }
        (e << self.man_bits) | man_max
    }

    /// Quantize `x` through the format: the value of
    /// `decode(encode(x))`, computed without the code.
    ///
    /// This is the "cast to FP8 and back" primitive used throughout the
    /// quantization and training experiments. It rounds the `f64` in
    /// place. In the normal binades it rounds the fraction field half to
    /// even in the integer domain, as
    /// [`round_to_mantissa_bits`](crate::fp22::round_to_mantissa_bits)
    /// does, then saturates at [`max_finite`](Self::max_finite). Below
    /// them the grid is the one quantum [`min_subnormal`](Self::min_subnormal):
    /// adding `2^52` quanta makes the FPU round to it, and subtracting
    /// them again is exact. The sign is kept, so a negative value that
    /// rounds to zero gives `-0.0`. Any NaN gives the canonical
    /// [`f64::NAN`], and ±∞ stays ±∞ or, in a
    /// [`finite_only`](Self::finite_only) format, saturates.
    #[must_use]
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        const SIGN: u64 = 1 << 63;
        const INFINITY: u64 = 0x7ff << 52;
        let bits = x.to_bits();
        let mag = bits & !SIGN;
        let man_bits = self.man_bits as i32;
        // The grid's smallest normal and largest finite magnitudes, as
        // `f64` bit patterns: positive floats order as their bits do.
        let min_normal = ((1 - self.bias() + 1023) as u64) << 52;
        let max_finite = ((self.max_biased_exp() - self.bias() + 1023) as u64) << 52
            | u64::from(self.max_finite_pattern() & ((1 << man_bits) - 1)) << (52 - man_bits);
        let rounded = if mag >= INFINITY {
            if mag > INFINITY {
                return f64::NAN;
            }
            if self.finite_only {
                max_finite
            } else {
                mag
            }
        } else if mag >= min_normal {
            let drop = 52 - man_bits;
            let odd = (mag >> drop) & 1;
            ((mag + (1 << (drop - 1)) - 1 + odd) & !((1 << drop) - 1)).min(max_finite)
        } else {
            let quanta = pow2(1 - self.bias() - man_bits + 52);
            ((f64::from_bits(mag) + quanta) - quanta).to_bits()
        };
        f64::from_bits(bits & SIGN | rounded)
    }

    /// Number of finite representable values (for diagnostics).
    #[must_use]
    pub fn finite_count(&self) -> u64 {
        let per_sign = ((self.max_biased_exp() as u64) << self.man_bits)
            + if self.finite_only { (1u64 << self.man_bits) - 1 } else { 1u64 << self.man_bits };
        // `per_sign` counts every finite pattern of one sign including zero;
        // +0 and -0 collapse to a single logical value.
        2 * per_sign - 1
    }
}

macro_rules! concrete_minifloat {
    ($(#[$doc:meta])* $name:ident, $store:ty, $format:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
        pub struct $name($store);

        impl $name {
            /// The format descriptor for this type.
            pub const FORMAT: Format = $format;

            /// Convert from `f32` with round-to-nearest-even and saturation.
            #[must_use]
            pub fn from_f32(x: f32) -> Self {
                Self(Self::FORMAT.encode(f64::from(x)) as $store)
            }

            /// Convert from `f64` with round-to-nearest-even and saturation.
            #[must_use]
            pub fn from_f64(x: f64) -> Self {
                Self(Self::FORMAT.encode(x) as $store)
            }

            /// Exact value as `f32`.
            #[must_use]
            pub fn to_f32(self) -> f32 {
                Self::FORMAT.decode(u32::from(self.0)) as f32
            }

            /// Exact value as `f64`.
            #[must_use]
            pub fn to_f64(self) -> f64 {
                Self::FORMAT.decode(u32::from(self.0))
            }

            /// Raw bit pattern.
            #[must_use]
            pub fn to_bits(self) -> $store {
                self.0
            }

            /// Construct from a raw bit pattern.
            #[must_use]
            pub fn from_bits(bits: $store) -> Self {
                Self(bits)
            }

            /// Largest finite value of the format.
            #[must_use]
            pub fn max_value() -> f64 {
                Self::FORMAT.max_finite()
            }
        }

        impl From<f32> for $name {
            fn from(x: f32) -> Self {
                Self::from_f32(x)
            }
        }

        impl From<$name> for f32 {
            fn from(x: $name) -> f32 {
                x.to_f32()
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }
    };
}

concrete_minifloat!(
    /// An 8-bit OCP E4M3 value (dispatch-stage FP8; max finite 448, no inf).
    F8E4M3, u8, Format::E4M3
);
concrete_minifloat!(
    /// An 8-bit OCP E5M2 value (wider range, 2 mantissa bits; max 57344).
    F8E5M2, u8, Format::E5M2
);
concrete_minifloat!(
    /// A 12-bit E5M6 value, the custom combine-stage candidate from §3.2.
    E5M6, u16, Format::E5M6
);
concrete_minifloat!(
    /// A bfloat16 value (1/8/7).
    Bf16, u16, Format::BF16
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4m3_key_values() {
        assert_eq!(Format::E4M3.max_finite(), 448.0);
        assert_eq!(Format::E4M3.min_normal(), 2f64.powi(-6));
        assert_eq!(Format::E4M3.min_subnormal(), 2f64.powi(-9));
    }

    #[test]
    fn e5m2_key_values() {
        assert_eq!(Format::E5M2.max_finite(), 57344.0);
        assert_eq!(Format::E5M2.min_normal(), 2f64.powi(-14));
        assert_eq!(Format::E5M2.min_subnormal(), 2f64.powi(-16));
    }

    #[test]
    fn bf16_matches_f32_truncation_semantics() {
        // BF16 grid values decode exactly.
        for x in [1.0f64, -2.5, 0.15625, 3.0e38, 1e-38] {
            let q = Format::BF16.quantize(x);
            let q2 = Format::BF16.quantize(q);
            assert_eq!(q, q2, "idempotent at {x}");
        }
        assert_eq!(Format::BF16.quantize(1.0), 1.0);
        assert_eq!(Format::BF16.quantize(-2.5), -2.5);
    }

    #[test]
    fn saturation_not_infinity() {
        assert_eq!(F8E4M3::from_f32(1e9).to_f64(), 448.0);
        assert_eq!(F8E4M3::from_f32(-1e9).to_f64(), -448.0);
        assert_eq!(F8E5M2::from_f32(1e9).to_f64(), 57344.0);
    }

    #[test]
    fn zero_and_sign() {
        assert_eq!(F8E4M3::from_f32(0.0).to_f64(), 0.0);
        assert_eq!(F8E4M3::from_f32(-0.0).to_f64(), 0.0);
        assert!(F8E4M3::from_f32(-0.0).to_f64().is_sign_negative());
    }

    #[test]
    fn nan_roundtrip() {
        assert!(F8E4M3::from_f32(f32::NAN).to_f64().is_nan());
        assert!(F8E5M2::from_f32(f32::NAN).to_f64().is_nan());
        assert!(Bf16::from_f32(f32::NAN).to_f64().is_nan());
    }

    #[test]
    fn e4m3_infinity_saturates_with_its_sign() {
        assert_eq!(F8E4M3::from_f32(f32::INFINITY).to_f64(), 448.0);
        assert_eq!(F8E4M3::from_f32(f32::NEG_INFINITY).to_f64(), -448.0);
        assert_eq!(Format::E4M3.encode(f64::NEG_INFINITY), 0xfe);
    }

    #[test]
    fn e5m2_keeps_infinity() {
        assert!(F8E5M2::from_f64(f64::INFINITY).to_f64().is_infinite());
        assert!(Bf16::from_f64(f64::NEG_INFINITY).to_f64() < 0.0);
    }

    #[test]
    fn round_to_nearest_even() {
        // In E4M3, between 16 and 17 (step 2 at that binade: values are
        // 16,17,... step = 2^(4-3)=2? binade [16,32) step = 16/8 = 2).
        // Representable: 16, 18, 20... midpoint 17 -> ties to even -> 16.
        assert_eq!(Format::E4M3.quantize(17.0), 16.0);
        assert_eq!(Format::E4M3.quantize(19.0), 20.0);
        // Just above midpoint rounds up.
        assert_eq!(Format::E4M3.quantize(17.0001), 18.0);
    }

    #[test]
    fn subnormal_encode_decode() {
        let tiny = 2f64.powi(-9); // E4M3 min subnormal
        assert_eq!(Format::E4M3.quantize(tiny), tiny);
        assert_eq!(Format::E4M3.quantize(tiny / 4.0), 0.0);
        assert_eq!(Format::E4M3.quantize(tiny * 3.0), tiny * 3.0);
    }

    #[test]
    fn subnormal_to_normal_promotion() {
        // Value just below min_normal rounds up into the normal range.
        let mn = Format::E4M3.min_normal();
        let x = mn - Format::E4M3.min_subnormal() / 4.0;
        let q = Format::E4M3.quantize(x);
        assert_eq!(q, mn);
    }

    #[test]
    fn all_e4m3_bit_patterns_roundtrip() {
        for bits in 0u32..=255 {
            let v = Format::E4M3.decode(bits);
            if v.is_nan() {
                continue;
            }
            let back = Format::E4M3.encode(v);
            assert_eq!(
                Format::E4M3.decode(back),
                v,
                "bits {bits:#010b} decoded to {v} then re-encoded to {back:#010b}"
            );
        }
    }

    #[test]
    fn all_e5m2_bit_patterns_roundtrip() {
        for bits in 0u32..=255 {
            let v = Format::E5M2.decode(bits);
            if v.is_nan() {
                continue;
            }
            let back = Format::E5M2.encode(v);
            assert_eq!(Format::E5M2.decode(back), v, "bits {bits:#010b}");
        }
    }

    #[test]
    fn carry_across_binade() {
        // Largest value in a binade rounds up across the binade boundary.
        // E4M3: 15.5 -> between 15 and 16; 15 and 16 both representable,
        // 15.5 ties -> 16 (even mantissa 0).
        assert_eq!(Format::E4M3.quantize(15.5), 16.0);
    }

    #[test]
    fn e5m6_wider_than_e5m2() {
        let x = 1.03;
        let e52 = (Format::E5M2.quantize(x) - x).abs();
        let e56 = (Format::E5M6.quantize(x) - x).abs();
        assert!(e56 < e52);
    }
}
