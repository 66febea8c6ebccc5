//! Tiny trainer with pluggable precision backends (§2.4's validation
//! methodology, scaled down).
//!
//! The paper validates FP8 training by comparing against BF16 on smaller
//! models and reports a relative loss gap below 0.25%, attributing the
//! result to fine-grained quantization and high-precision accumulation. We
//! reproduce the *mechanism* at laptop scale: a two-layer MLP regression
//! task on unit-scale random inputs, trained with every GEMM routed through
//! one of four precision backends:
//!
//! * [`Precision::F32`] — float32 reference.
//! * [`Precision::Bf16`] — operands rounded to BF16.
//! * [`Precision::Fp8Fine`] — fine-grained (tile/block) FP8 with FP32
//!   promotion, i.e. the DeepGEMM recipe.
//! * [`Precision::Fp8Coarse`] — per-tensor FP8 scaling (the baseline the
//!   paper's recipe improves on).

use dsv3_numerics::gemm::{gemm_fp8, gemm_fp8_per_tensor, Fp8GemmConfig};
use dsv3_numerics::minifloat::Format;
use dsv3_numerics::Matrix;
use serde::{Deserialize, Serialize};

/// Precision backend for training GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// Full float32.
    F32,
    /// Operands rounded to BF16 before the multiply.
    Bf16,
    /// Fine-grained FP8 (1×128 / 128×128 scales, FP32 promotion).
    Fp8Fine,
    /// Per-tensor FP8 scaling.
    Fp8Coarse,
}

/// One GEMM through the selected backend.
#[must_use]
pub fn gemm(a: &Matrix, b: &Matrix, p: Precision) -> Matrix {
    match p {
        Precision::F32 => a.matmul(b),
        Precision::Bf16 => {
            let q = |m: &Matrix| {
                let data =
                    m.data.iter().map(|v| Format::BF16.quantize(f64::from(*v)) as f32).collect();
                Matrix::from_vec(m.rows, m.cols, data)
            };
            q(a).matmul(&q(b))
        }
        Precision::Fp8Fine => gemm_fp8(a, b, Fp8GemmConfig::default()),
        Precision::Fp8Coarse => gemm_fp8_per_tensor(a, b, Format::E4M3),
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Output dimension.
    pub output_dim: usize,
    /// Batch size per step.
    pub batch: usize,
    /// SGD steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f32,
    /// Data/teacher/initialization seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            input_dim: 256,
            hidden_dim: 32,
            output_dim: 4,
            batch: 16,
            steps: 300,
            lr: 0.02,
            seed: 17,
        }
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Backend used.
    pub precision: Precision,
    /// Eval loss (f32 forward on held-out data) after training.
    pub final_loss: f64,
    /// Eval loss trajectory (every 10 steps).
    pub losses: Vec<f64>,
}

/// The synthetic regression task: unit-scale random inputs, targets from a
/// fixed random teacher MLP.
struct Task {
    teacher_w1: Matrix,
    teacher_w2: Matrix,
    cfg: TrainConfig,
}

impl Task {
    fn new(cfg: TrainConfig) -> Self {
        let teacher_w1 = Matrix::random(cfg.input_dim, cfg.hidden_dim, 0.5, cfg.seed ^ 0xA);
        let teacher_w2 = Matrix::random(cfg.hidden_dim, cfg.output_dim, 0.5, cfg.seed ^ 0xB);
        Self { teacher_w1, teacher_w2, cfg }
    }

    fn batch(&self, index: u64) -> (Matrix, Matrix) {
        let x = Matrix::random(
            self.cfg.batch,
            self.cfg.input_dim,
            1.0,
            self.cfg.seed ^ (index * 2 + 1),
        );
        let y = relu(&x.matmul(&self.teacher_w1)).matmul(&self.teacher_w2);
        (x, y)
    }
}

fn relu(m: &Matrix) -> Matrix {
    Matrix::from_vec(m.rows, m.cols, m.data.iter().map(|v| v.max(0.0)).collect())
}

fn mse(pred: &Matrix, target: &Matrix) -> f64 {
    pred.data
        .iter()
        .zip(&target.data)
        .map(|(p, t)| (f64::from(*p) - f64::from(*t)).powi(2))
        .sum::<f64>()
        / pred.data.len() as f64
}

/// Adam optimizer state for one weight matrix.
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: i32,
}

impl Adam {
    fn new(len: usize) -> Self {
        Self { m: vec![0.0; len], v: vec![0.0; len], t: 0 }
    }

    fn step(&mut self, w: &mut Matrix, g: &Matrix, lr: f32) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t);
        let bc2 = 1.0 - B2.powi(self.t);
        for ((w, g), (m, v)) in
            w.data.iter_mut().zip(&g.data).zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            let g = f64::from(*g);
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let update = (*m / bc1) / ((*v / bc2).sqrt() + EPS);
            *w -= (f64::from(lr) * update) as f32;
        }
    }
}

/// Train the student MLP with the given precision backend.
///
/// Master weights and optimizer (Adam) state stay in f32/f64, as in the
/// paper's framework — only GEMMs run through the backend, so the
/// comparison isolates quantization effects.
#[must_use]
pub fn train(precision: Precision, cfg: TrainConfig) -> TrainReport {
    let task = Task::new(cfg);
    let mut w1 = Matrix::random(
        cfg.input_dim,
        cfg.hidden_dim,
        1.0 / (cfg.input_dim as f32).sqrt(),
        cfg.seed ^ 0x1,
    );
    let mut w2 = Matrix::random(
        cfg.hidden_dim,
        cfg.output_dim,
        1.0 / (cfg.hidden_dim as f32).sqrt(),
        cfg.seed ^ 0x2,
    );
    let mut opt1 = Adam::new(w1.data.len());
    let mut opt2 = Adam::new(w2.data.len());
    let (eval_x, eval_y) = task.batch(u64::MAX / 2);
    let mut losses = Vec::new();
    for step in 0..cfg.steps {
        let (x, y) = task.batch(step as u64);
        // Forward.
        let h_pre = gemm(&x, &w1, precision);
        let h = relu(&h_pre);
        let pred = gemm(&h, &w2, precision);
        // Backward (dL/dpred for MSE).
        let n = pred.data.len() as f32;
        let dy = Matrix::from_vec(
            pred.rows,
            pred.cols,
            pred.data.iter().zip(&y.data).map(|(p, t)| 2.0 * (p - t) / n).collect(),
        );
        let dw2 = gemm(&h.transpose(), &dy, precision);
        let dh = gemm(&dy, &w2.transpose(), precision);
        let dh_pre = Matrix::from_vec(
            dh.rows,
            dh.cols,
            dh.data.iter().zip(&h_pre.data).map(|(g, z)| if *z > 0.0 { *g } else { 0.0 }).collect(),
        );
        let dw1 = gemm(&x.transpose(), &dh_pre, precision);
        opt1.step(&mut w1, &dw1, cfg.lr);
        opt2.step(&mut w2, &dw2, cfg.lr);
        if step % 10 == 0 {
            let p = relu(&eval_x.matmul(&w1)).matmul(&w2);
            losses.push(mse(&p, &eval_y));
        }
    }
    let p = relu(&eval_x.matmul(&w1)).matmul(&w2);
    let final_loss = mse(&p, &eval_y);
    losses.push(final_loss);
    TrainReport { precision, final_loss, losses }
}

/// Relative loss gap of `candidate` vs `reference` (positive = worse).
#[must_use]
pub fn relative_loss_gap(reference: &TrainReport, candidate: &TrainReport) -> f64 {
    (candidate.final_loss - reference.final_loss) / reference.final_loss
}

/// Deterministic single-step probe of gradient fidelity under activation
/// outliers.
///
/// Builds one batch whose second 128-channel tile carries huge pure-noise
/// activations (magnitude `outlier_scale`), runs one forward/backward pass
/// through `precision`, and returns the relative Frobenius error of the
/// informative rows of `∂L/∂W₁` against the f32 gradient. Per-tensor FP8
/// flushes the informative tile of `xᵀ` below E4M3's subnormal range, so its
/// gradient is destroyed; 1×128 tiles keep it. This is the mechanism behind
/// the paper's fine-grained-quantization requirement, isolated from
/// optimizer noise.
#[must_use]
pub fn gradient_probe(precision: Precision, outlier_scale: f32, seed: u64) -> f64 {
    let (batch, input, hidden, output) = (16, 256, 32, 4);
    let mut x = Matrix::random(batch, input, 1.0, seed ^ 0x11);
    for r in 0..batch {
        for c in 128..input {
            let v = x.get(r, c) * outlier_scale;
            x.set(r, c, v);
        }
    }
    let w1 = Matrix::random(input, hidden, 0.1, seed ^ 0x12);
    let w2 = Matrix::random(hidden, output, 0.1, seed ^ 0x13);
    let y = Matrix::random(batch, output, 1.0, seed ^ 0x14);
    let grad_w1 = |p: Precision| -> Matrix {
        let h_pre = gemm(&x, &w1, p);
        let h = relu(&h_pre);
        let pred = gemm(&h, &w2, p);
        let n = pred.data.len() as f32;
        let dy = Matrix::from_vec(
            pred.rows,
            pred.cols,
            pred.data.iter().zip(&y.data).map(|(a, t)| 2.0 * (a - t) / n).collect(),
        );
        let dh = gemm(&dy, &w2.transpose(), p);
        let dh_pre = Matrix::from_vec(
            dh.rows,
            dh.cols,
            dh.data.iter().zip(&h_pre.data).map(|(g, z)| if *z > 0.0 { *g } else { 0.0 }).collect(),
        );
        gemm(&x.transpose(), &dh_pre, p)
    };
    let reference = grad_w1(Precision::F32);
    let candidate = grad_w1(precision);
    // Informative rows only (the outlier rows dwarf the norm otherwise).
    let rows = 128 * hidden;
    let num: f64 = reference.data[..rows]
        .iter()
        .zip(&candidate.data[..rows])
        .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = reference.data[..rows].iter().map(|a| f64::from(*a).powi(2)).sum::<f64>().sqrt();
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> TrainConfig {
        TrainConfig::default()
    }

    #[test]
    fn f32_training_converges() {
        let r = train(Precision::F32, quick_cfg());
        assert!(
            r.losses[0] > r.final_loss * 3.0,
            "loss must drop: {:?}",
            (r.losses[0], r.final_loss)
        );
    }

    #[test]
    fn bf16_close_to_f32() {
        let f32r = train(Precision::F32, quick_cfg());
        let bf = train(Precision::Bf16, quick_cfg());
        let gap = relative_loss_gap(&f32r, &bf).abs();
        assert!(gap < 0.05, "bf16 gap {gap}");
    }

    #[test]
    fn fp8_fine_close_to_bf16() {
        // The paper's claim at small scale: fine-grained FP8 with
        // high-precision accumulation trains within a fraction of a percent
        // of BF16 relative loss.
        let bf = train(Precision::Bf16, quick_cfg());
        let fp8 = train(Precision::Fp8Fine, quick_cfg());
        let gap = relative_loss_gap(&bf, &fp8);
        assert!(gap < 0.10, "fp8-fine gap {gap}");
    }

    #[test]
    fn fine_grained_gradients_beat_coarse_under_outliers() {
        let fine = gradient_probe(Precision::Fp8Fine, 1e5, 3);
        let coarse = gradient_probe(Precision::Fp8Coarse, 1e5, 3);
        assert!(fine < 0.15, "fine-grained gradient error {fine}");
        assert!(coarse > 3.0 * fine, "coarse {coarse} vs fine {fine}");
    }

    #[test]
    fn gradient_probe_clean_without_outliers() {
        // With no outliers the two quantization granularities coincide.
        let fine = gradient_probe(Precision::Fp8Fine, 1.0, 4);
        let coarse = gradient_probe(Precision::Fp8Coarse, 1.0, 4);
        assert!(fine < 0.2 && coarse < 0.2, "fine {fine} coarse {coarse}");
    }

    #[test]
    fn bf16_gradient_probe_is_tight() {
        let bf = gradient_probe(Precision::Bf16, 1e5, 5);
        assert!(bf < 0.02, "bf16 gradient error {bf}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = train(Precision::F32, quick_cfg());
        let b = train(Precision::F32, quick_cfg());
        assert_eq!(a.final_loss, b.final_loss);
    }
}
