//! A minimal dense row-major `f32` matrix used across the reproduction.
//!
//! This is deliberately a teaching-grade container: contiguous storage,
//! explicit indexing, an exact `f64`-accumulated reference matmul, and a
//! deterministic pseudo-random filler. It is the substrate both for the
//! numerics experiments (quantized GEMM comparisons) and for the functional
//! model components (MLA forward, MoE experts, tiny trainer).

use serde::{Deserialize, Serialize};

/// Dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Row-major element storage, `rows * cols` long.
    pub data: Vec<f32>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Build from a generator over `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Wrap an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Self { data, rows, cols }
    }

    /// Deterministic pseudo-random matrix with entries roughly N(0, scale²)
    /// (sum of uniforms), keyed by `seed`.
    #[must_use]
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let x = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x >> 11) as f64 / (1u64 << 53) as f64 // [0,1)
        };
        Self::from_fn(rows, cols, |_, _| {
            let g: f64 = (0..6).map(|_| next()).sum::<f64>() - 3.0; // ~N(0,0.5²)·2
            (g * f64::from(scale)) as f32
        })
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        if self.rows > 0 {
            for (c, col) in out.data.chunks_exact_mut(self.rows).enumerate() {
                for (o, row) in col.iter_mut().zip(self.data.chunks_exact(self.cols)) {
                    *o = row[c];
                }
            }
        }
        out
    }

    /// Reference matmul `self × rhs` with `f64` accumulation.
    ///
    /// Loops i-k-j over one row of `f64` accumulators, so `rhs` is read
    /// row by row while each output still sums its products in ascending
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let mut acc = vec![0f64; rhs.cols];
        for i in 0..self.rows {
            acc.fill(0.0);
            for (k, &a) in self.row(i).iter().enumerate() {
                let a = f64::from(a);
                for (s, &b) in acc.iter_mut().zip(rhs.row(k)) {
                    *s += a * f64::from(b);
                }
            }
            for (o, &s) in out.row_mut(i).iter_mut().zip(&acc) {
                *o = s as f32;
            }
        }
        out
    }

    /// Element-wise `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise scaling by `s`.
    #[must_use]
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|v| f64::from(*v) * f64::from(*v)).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::random(4, 4, 1.0, 7);
        let eye = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::random(3, 5, 1.0, 1);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let a = Matrix::random(8, 8, 1.0, 42);
        let b = Matrix::random(8, 8, 1.0, 42);
        let c = Matrix::random(8, 8, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_is_roughly_centered() {
        let a = Matrix::random(100, 100, 1.0, 3);
        let mean: f64 = a.data.iter().map(|v| f64::from(*v)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn rows_views() {
        let mut a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a.row(1), &[3., 4.]);
        a.row_mut(0)[1] = 9.0;
        assert_eq!(a.get(0, 1), 9.0);
    }
}
