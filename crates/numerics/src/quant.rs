//! Fine-grained quantization: 1×128 tile-wise scales for activations and
//! 128×128 block-wise scales for weights (§3.1).
//!
//! Each tile/block is scaled so its absolute maximum maps to the format's
//! largest finite value, then cast element-wise. This is exactly the
//! quantization recipe DeepSeek-V3 trains with (and DeepGEMM executes).
//! The quantizers walk the matrix row slice by row slice and cast each
//! element with [`Format::quantize`] of `x / scale`.

use crate::matrix::Matrix;
use crate::minifloat::Format;
use serde::{Deserialize, Serialize};

/// Default tile length along K used by DeepSeek-V3 (1×128 activations,
/// 128×128 weights).
pub const TILE: usize = 128;

/// An activation matrix quantized with per-row 1×`tile` scales.
///
/// ```
/// use dsv3_numerics::{quant::TileQuantized, minifloat::Format, Matrix};
///
/// let m = Matrix::random(2, 256, 1.0, 7);
/// let q = TileQuantized::quantize(&m, Format::E4M3, 128);
/// assert_eq!(q.tiles_per_row(), 2);
/// let err: f32 = m.data.iter().zip(&q.dequantize().data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
/// assert!(err < 0.25);
/// ```
///
/// Row-major `rows × cols`; each row is split into `ceil(cols / tile)` tiles,
/// each with its own scale. Values are stored dequantization-ready: the exact
/// value of each FP8 code as `f64` (so GEMM emulation needs no re-decoding),
/// alongside the scale grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileQuantized {
    /// Quantized codes' exact values, in units of the tile scale.
    pub codes: Vec<f64>,
    /// Per-(row, tile) scales, row-major, `rows × n_tiles`.
    pub scales: Vec<f64>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Tile length along the column axis.
    pub tile: usize,
    /// Storage format.
    pub format: Format,
}

impl TileQuantized {
    /// Quantize `m` with 1×`tile` tiles in format `format`.
    ///
    /// # Panics
    ///
    /// Panics if `tile == 0`.
    #[must_use]
    pub fn quantize(m: &Matrix, format: Format, tile: usize) -> Self {
        assert!(tile > 0, "tile length must be positive");
        let n_tiles = m.cols.div_ceil(tile);
        let mut codes = vec![0f64; m.rows * m.cols];
        let mut scales = vec![1f64; m.rows * n_tiles];
        let fmax = format.max_finite();
        if m.cols > 0 {
            let rows = m.data.chunks_exact(m.cols).zip(codes.chunks_exact_mut(m.cols));
            for ((row, out), row_scales) in rows.zip(scales.chunks_exact_mut(n_tiles)) {
                let tiles = row.chunks(tile).zip(out.chunks_mut(tile));
                for ((xs, qs), scale) in tiles.zip(row_scales) {
                    *scale = scale_for(amax(xs), fmax);
                    quantize_into(xs, *scale, format, qs);
                }
            }
        }
        Self { codes, scales, rows: m.rows, cols: m.cols, tile, format }
    }

    /// Number of tiles per row.
    #[must_use]
    pub fn tiles_per_row(&self) -> usize {
        self.cols.div_ceil(self.tile)
    }

    /// Scale of the tile containing column `c` of row `r`.
    #[must_use]
    pub fn scale_at(&self, r: usize, c: usize) -> f64 {
        self.scales[r * self.tiles_per_row() + c / self.tile]
    }

    /// Reconstruct the dequantized matrix.
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.codes[r * self.cols + c] * self.scale_at(r, c);
                m.set(r, c, v as f32);
            }
        }
        m
    }
}

/// A weight matrix quantized with `block × block` scales (128×128 in
/// DeepSeek-V3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockQuantized {
    /// Quantized codes' exact values, in units of the block scale.
    pub codes: Vec<f64>,
    /// Per-(row-block, col-block) scales, row-major.
    pub scales: Vec<f64>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Block edge length.
    pub block: usize,
    /// Storage format.
    pub format: Format,
}

impl BlockQuantized {
    /// Quantize `m` with `block × block` blocks in format `format`.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    #[must_use]
    pub fn quantize(m: &Matrix, format: Format, block: usize) -> Self {
        assert!(block > 0, "block edge must be positive");
        let rb = m.rows.div_ceil(block);
        let cb = m.cols.div_ceil(block);
        let mut codes = vec![0f64; m.rows * m.cols];
        let mut scales = vec![1f64; rb * cb];
        let fmax = format.max_finite();
        let mut block_amax = vec![0f64; cb];
        if m.cols > 0 {
            let row_blocks = m.data.chunks(block * m.cols).zip(codes.chunks_mut(block * m.cols));
            for ((xs, qs), block_scales) in row_blocks.zip(scales.chunks_exact_mut(cb)) {
                // One pass over the block row for the amax of each block,
                // then one to quantize.
                block_amax.fill(0.0);
                for row in xs.chunks_exact(m.cols) {
                    for (a, chunk) in block_amax.iter_mut().zip(row.chunks(block)) {
                        *a = a.max(amax(chunk));
                    }
                }
                for (s, &a) in block_scales.iter_mut().zip(&block_amax) {
                    *s = scale_for(a, fmax);
                }
                for (row, out) in xs.chunks_exact(m.cols).zip(qs.chunks_exact_mut(m.cols)) {
                    let blocks = row.chunks(block).zip(out.chunks_mut(block));
                    for ((x, q), &scale) in blocks.zip(block_scales.iter()) {
                        quantize_into(x, scale, format, q);
                    }
                }
            }
        }
        Self { codes, scales, rows: m.rows, cols: m.cols, block, format }
    }

    /// Number of column blocks.
    #[must_use]
    pub fn col_blocks(&self) -> usize {
        self.cols.div_ceil(self.block)
    }

    /// Scale of the block containing `(r, c)`.
    #[must_use]
    pub fn scale_at(&self, r: usize, c: usize) -> f64 {
        self.scales[(r / self.block) * self.col_blocks() + c / self.block]
    }

    /// Reconstruct the dequantized matrix.
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.codes[r * self.cols + c] * self.scale_at(r, c);
                m.set(r, c, v as f32);
            }
        }
        m
    }
}

/// Per-tensor ("coarse") quantization: one scale for the whole matrix.
/// This is the baseline fine-grained quantization is compared against.
#[must_use]
pub fn quantize_per_tensor(m: &Matrix, format: Format) -> Matrix {
    let scale = scale_for(amax(&m.data), format.max_finite());
    let mut out = Matrix::zeros(m.rows, m.cols);
    for (o, &v) in out.data.iter_mut().zip(&m.data) {
        *o = (format.quantize(f64::from(v) / scale) * scale) as f32;
    }
    out
}

/// The largest magnitude in `xs` (0 if empty; NaN is skipped).
fn amax(xs: &[f32]) -> f64 {
    xs.iter().fold(0f64, |a, v| a.max(f64::from(v.abs())))
}

/// The scale that maps `amax` to `fmax` (1 for an all-zero group).
fn scale_for(amax: f64, fmax: f64) -> f64 {
    if amax > 0.0 {
        amax / fmax
    } else {
        1.0
    }
}

/// Quantize `xs / scale` element-wise into `out`.
fn quantize_into(xs: &[f32], scale: f64, format: Format, out: &mut [f64]) {
    for (q, &x) in out.iter_mut().zip(xs) {
        *q = format.quantize(f64::from(x) / scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32).sin() * (1.0 + c as f32 / 7.0))
    }

    #[test]
    fn tile_roundtrip_error_bounded() {
        let m = ramp(4, 300);
        let q = TileQuantized::quantize(&m, Format::E4M3, TILE);
        let d = q.dequantize();
        for r in 0..m.rows {
            for c in 0..m.cols {
                let x = f64::from(m.get(r, c));
                let y = f64::from(d.get(r, c));
                let tol = q.scale_at(r, c) * Format::E4M3.max_finite() / 16.0; // ~2^-4 rel of tile amax
                assert!((x - y).abs() <= tol, "({r},{c}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn block_roundtrip_error_bounded() {
        let m = ramp(200, 200);
        let q = BlockQuantized::quantize(&m, Format::E4M3, TILE);
        let d = q.dequantize();
        let mut max_rel = 0f64;
        for (a, b) in m.data.iter().zip(&d.data) {
            let denom = f64::from(a.abs()).max(1e-3);
            max_rel = max_rel.max(f64::from((a - b).abs()) / denom);
        }
        assert!(max_rel < 0.25, "max relative error {max_rel}");
    }

    #[test]
    fn tile_amax_is_exact() {
        // The element with the tile's max magnitude quantizes exactly to
        // ±max_finite * scale, i.e. round-trips to itself.
        let mut m = Matrix::zeros(1, 128);
        m.set(0, 5, -3.7);
        m.set(0, 100, 1.2);
        let q = TileQuantized::quantize(&m, Format::E4M3, TILE);
        let d = q.dequantize();
        // Exact up to the f32 cast of the reconstruction.
        assert!((f64::from(d.get(0, 5)) + 3.7).abs() < 1e-6);
    }

    #[test]
    fn zero_tile_is_stable() {
        let m = Matrix::zeros(3, 256);
        let q = TileQuantized::quantize(&m, Format::E4M3, TILE);
        assert!(q.dequantize().data.iter().all(|&v| v == 0.0));
        assert!(q.scales.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn fine_grained_beats_per_tensor_on_outliers() {
        // One tile holds a large outlier. Per-tensor scaling pushes the
        // small-magnitude values below E4M3's smallest subnormal (they flush
        // to zero); fine-grained tiles keep every other tile's precision.
        let mut m = ramp(8, 128);
        for v in m.data.iter_mut() {
            *v *= 5e-4;
        }
        m.set(0, 0, 400.0);
        let fine = TileQuantized::quantize(&m, Format::E4M3, TILE).dequantize();
        let coarse = quantize_per_tensor(&m, Format::E4M3);
        let err = |x: &Matrix| -> f64 {
            m.data
                .iter()
                .zip(&x.data)
                .map(|(a, b)| f64::from((a - b) * (a - b)))
                .sum::<f64>()
                .sqrt()
        };
        assert!(err(&fine) < err(&coarse) * 0.5, "fine {} coarse {}", err(&fine), err(&coarse));
    }

    #[test]
    fn ragged_edges_covered() {
        let m = ramp(5, 130); // 130 = 128 + 2 ragged tail
        let q = TileQuantized::quantize(&m, Format::E4M3, TILE);
        assert_eq!(q.tiles_per_row(), 2);
        let d = q.dequantize();
        assert_eq!(d.cols, 130);
        let m2 = ramp(130, 131);
        let b = BlockQuantized::quantize(&m2, Format::E4M3, TILE);
        assert_eq!(b.col_blocks(), 2);
        assert_eq!(b.dequantize().rows, 130);
    }
}
