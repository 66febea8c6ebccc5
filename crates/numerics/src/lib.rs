//! Software-emulated low-precision numerics for the DeepSeek-V3 reproduction.
//!
//! The paper's low-precision findings (§3 of the ISCA '25 insights paper) are
//! properties of *arithmetic*, not of silicon: the limited FP22 accumulation
//! precision of Hopper tensor cores, the benefit of fine-grained (1×128 tile /
//! 128×128 block) quantization, and the quality of the LogFMT logarithmic
//! communication format. This crate reproduces all of them bit-accurately in
//! software:
//!
//! * [`minifloat`] — a generic binary minifloat codec plus the concrete
//!   formats used by the paper: [`minifloat::F8E4M3`], [`minifloat::F8E5M2`],
//!   [`minifloat::E5M6`] and [`minifloat::Bf16`].
//! * [`fp22`] — the FP22 (1 sign / 8 exponent / 13 mantissa) accumulation
//!   register format of Hopper tensor cores.
//! * [`tensorcore`] — an emulation of the Hopper FP8 MMA pipeline: per-32
//!   product exponent alignment with 13-bit fraction truncation, FP22 partial
//!   accumulation, and the DeepGEMM-style periodic promotion into FP32.
//! * [`quant`] — fine-grained quantization: 1×128 tile-wise scales for
//!   activations and 128×128 block-wise scales for weights.
//! * [`gemm`] — reference f32 GEMM and the emulated fine-grained FP8 GEMM.
//! * [`logfmt`] — the LogFMT-nBit logarithmic block format (§3.2).
//! * [`metrics`] — quantization/GEMM error metrics (relative error, RMSE,
//!   SQNR, bias).
//!
//! # Example
//!
//! ```
//! use dsv3_numerics::minifloat::F8E4M3;
//!
//! let x = F8E4M3::from_f32(0.33);
//! // E4M3 can represent 0.33 only approximately, but round-trips its own
//! // values exactly.
//! let y = F8E4M3::from_f32(x.to_f32());
//! assert_eq!(x.to_bits(), y.to_bits());
//! ```

#![forbid(unsafe_code)]

pub mod fp22;
pub mod gemm;
pub mod integrity;
pub mod logfmt;
pub mod matrix;
pub mod metrics;
pub mod minifloat;
#[cfg(test)]
mod oracle;
pub mod quant;
pub mod tensorcore;

pub use fp22::Fp22;
pub use matrix::Matrix;
pub use minifloat::{Bf16, E5M6, F8E4M3, F8E5M2};
