//! Pipeline-parallel schedules: chunk and event types, event-driven 1F1B
//! (the ZB1P loop of [`crate::dualpipe`] with W folded into B) and
//! analytic bubbles.
//!
//! Chunk granularity: each microbatch contributes one forward (`f`), one
//! input-backward (`b`) and one weight-backward (`w`) chunk per stage.
//! DualPipe (reference \[29\] of the paper) overlaps a forward with a
//! backward chunk bidirectionally;
//! its bubble follows the published formula `(PP/2 − 1)·(F&B + B − 3W)`.

use serde::{Deserialize, Serialize};

/// Per-microbatch, per-stage chunk durations (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkTimes {
    /// Forward chunk.
    pub f: f64,
    /// Input-gradient backward chunk.
    pub b: f64,
    /// Weight-gradient backward chunk.
    pub w: f64,
}

impl ChunkTimes {
    /// Validation helper.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.f > 0.0 && self.b > 0.0 && self.w >= 0.0
    }
}

/// Outcome of simulating (or analytically evaluating) a schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineOutcome {
    /// Wall-clock time of one step (seconds), excluding the optimizer.
    pub total_time: f64,
    /// Idle (bubble) time of the most-idle stage (seconds).
    pub bubble_time: f64,
    /// Busy time per stage (seconds).
    pub stage_busy: Vec<f64>,
}

impl PipelineOutcome {
    /// Bubble fraction of the step.
    #[must_use]
    pub fn bubble_fraction(&self) -> f64 {
        self.bubble_time / self.total_time
    }
}

/// Kind of a scheduled pipeline chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ChunkKind {
    /// Forward pass of one microbatch through one stage.
    Forward,
    /// Input-gradient backward (includes the weight-gradient work when the
    /// schedule folds W into B, as classic 1F1B does).
    Backward,
    /// Decoupled weight-gradient chunk (ZB1P / DualPipe only).
    WeightGrad,
}

/// One scheduled chunk: microbatch `micro` runs its `kind` chunk on
/// `rank` over `[start, end]` seconds.
///
/// For bidirectional schedules the microbatch id is global across both
/// directions (`0..half` = Down, `half..micro` = Up), so `(micro, kind)`
/// uniquely identifies a chunk and a memory simulator can key per-microbatch
/// state off it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkEvent {
    /// Executing rank (= stage for unidirectional schedules).
    pub rank: usize,
    /// Global microbatch id.
    pub micro: usize,
    /// Chunk kind.
    pub kind: ChunkKind,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
}

/// Sort events by start time (rank, then micro, then kind as tiebreak) so
/// an event walker sees a deterministic global order.
pub fn sort_events(events: &mut [ChunkEvent]) {
    events.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then_with(|| a.rank.cmp(&b.rank))
            .then_with(|| a.micro.cmp(&b.micro))
            .then_with(|| a.kind.cmp(&b.kind))
    });
}

/// Event-driven 1F1B schedule: `stages` pipeline stages, `micro`
/// microbatches. Weight-gradient chunks are folded into the backward pass
/// (classic 1F1B does not split them), which makes it ZB1P with `w = 0`.
///
/// # Panics
///
/// Panics if `stages == 0`, `micro == 0`, or `times` is invalid.
#[must_use]
pub fn one_f_one_b(stages: usize, micro: usize, times: ChunkTimes) -> PipelineOutcome {
    one_f_one_b_events(stages, micro, times).0
}

/// [`one_f_one_b`], additionally returning every scheduled chunk as a
/// [`ChunkEvent`] (sorted by start time). The backward events carry the
/// combined `b + w` duration because classic 1F1B folds W into B: this is
/// the ZB1P loop on `ChunkTimes { f, b: b + w, w: 0 }`, without its
/// zero-length W chunks.
///
/// # Panics
///
/// Panics if `stages == 0`, `micro == 0`, or `times` is invalid.
#[must_use]
pub fn one_f_one_b_events(
    stages: usize,
    micro: usize,
    times: ChunkTimes,
) -> (PipelineOutcome, Vec<ChunkEvent>) {
    assert!(times.is_valid(), "invalid chunk times");
    let folded = ChunkTimes { f: times.f, b: times.b + times.w, w: 0.0 };
    let (outcome, mut events) = crate::dualpipe::zb1p_events(stages, micro, folded);
    events.retain(|e| e.kind != ChunkKind::WeightGrad);
    (outcome, events)
}

/// Analytic 1F1B bubble: `(PP − 1) · (F + B)` where B includes W.
#[must_use]
pub fn bubble_1f1b(stages: usize, times: ChunkTimes) -> f64 {
    (stages as f64 - 1.0) * (times.f + times.b + times.w)
}

/// Analytic ZB1P (zero-bubble, one-pending-W) bubble:
/// `(PP − 1) · (F + B − 2W)`.
#[must_use]
pub fn bubble_zb1p(stages: usize, times: ChunkTimes) -> f64 {
    (stages as f64 - 1.0) * (times.f + times.b - 2.0 * times.w)
}

/// Analytic DualPipe bubble: `(PP/2 − 1) · (F&B + B − 3W)`, where the
/// overlapped forward+backward chunk `F&B` is `max(f, b) + overlap_slack`
/// (perfect overlap ⇒ `max(f, b)`; we use `f + b − min(f,b)·overlap`).
#[must_use]
pub fn bubble_dualpipe(stages: usize, times: ChunkTimes, overlap: f64) -> f64 {
    assert!((0.0..=1.0).contains(&overlap), "overlap is a fraction");
    let fb = times.f + times.b - overlap * times.f.min(times.b);
    ((stages / 2) as f64 - 1.0) * (fb + times.b - 3.0 * times.w).max(0.0)
}

/// Step time for an analytic schedule: compute work plus bubble.
///
/// With `micro` microbatches each stage runs `micro` F, B and W chunks; the
/// critical path is that work plus the schedule's bubble.
#[must_use]
pub fn analytic_step_time(micro: usize, times: ChunkTimes, bubble: f64) -> f64 {
    micro as f64 * (times.f + times.b + times.w) + bubble
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: ChunkTimes = ChunkTimes { f: 1.0, b: 2.0, w: 0.5 };

    #[test]
    fn single_stage_has_no_bubble() {
        let o = one_f_one_b(1, 8, T);
        assert!((o.total_time - 8.0 * 3.5).abs() < 1e-9);
        assert!(o.bubble_time.abs() < 1e-9);
    }

    #[test]
    fn one_f_one_b_matches_analytic() {
        // Classic result: total = (M + S - 1)(f + b+w) when f == b+w is not
        // required; with f != b the sim still cannot beat the analytic
        // bubble. Check against the standard closed form for equal chunks.
        let eq = ChunkTimes { f: 2.0, b: 1.5, w: 0.5 };
        let (s, m) = (4, 16);
        let o = one_f_one_b(s, m, eq);
        let per = eq.f + eq.b + eq.w;
        let expected = (m as f64 + s as f64 - 1.0) * per;
        assert!((o.total_time - expected).abs() < 1e-9, "{} vs {expected}", o.total_time);
        assert!((o.bubble_time - bubble_1f1b(s, eq)).abs() < 1e-9);
    }

    #[test]
    fn bubble_shrinks_relative_with_more_microbatches() {
        let small = one_f_one_b(8, 8, T);
        let large = one_f_one_b(8, 64, T);
        assert!(large.bubble_fraction() < small.bubble_fraction());
    }

    #[test]
    fn schedule_respects_dependencies() {
        // Total time can never be less than the critical path of one
        // microbatch through all stages plus remaining work on the last.
        let (s, m) = (6, 3);
        let o = one_f_one_b(s, m, T);
        let critical = s as f64 * T.f + s as f64 * (T.b + T.w);
        assert!(o.total_time >= critical - 1e-9);
    }

    #[test]
    fn analytic_bubble_ordering() {
        // DualPipe < ZB1P < 1F1B for the paper's chunk shape.
        let s = 16;
        let d = bubble_dualpipe(s, T, 1.0);
        let z = bubble_zb1p(s, T);
        let o = bubble_1f1b(s, T);
        assert!(d < z, "dualpipe {d} vs zb1p {z}");
        assert!(z < o, "zb1p {z} vs 1f1b {o}");
    }

    #[test]
    fn dualpipe_overlap_helps() {
        let none = bubble_dualpipe(16, T, 0.0);
        let full = bubble_dualpipe(16, T, 1.0);
        assert!(full < none);
    }

    #[test]
    fn busy_time_conserved() {
        let (s, m) = (4, 10);
        let o = one_f_one_b(s, m, T);
        for busy in &o.stage_busy {
            assert!((busy - m as f64 * (T.f + T.b + T.w)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_stages_panics() {
        let _ = one_f_one_b(0, 1, T);
    }

    #[test]
    fn events_cover_every_chunk_exactly_once() {
        let (s, m) = (4, 10);
        let (o, ev) = one_f_one_b_events(s, m, T);
        // One F and one B event per (stage, micro); W is folded into B.
        assert_eq!(ev.len(), 2 * s * m);
        for stage in 0..s {
            for kind in [ChunkKind::Forward, ChunkKind::Backward] {
                let of_kind: Vec<_> =
                    ev.iter().filter(|e| e.rank == stage && e.kind == kind).collect();
                assert_eq!(of_kind.len(), m);
                let mut micros: Vec<_> = of_kind.iter().map(|e| e.micro).collect();
                micros.sort_unstable();
                assert_eq!(micros, (0..m).collect::<Vec<_>>());
            }
        }
        // Durations match the chunk times and nothing runs past the end.
        for e in &ev {
            let dur = match e.kind {
                ChunkKind::Forward => T.f,
                ChunkKind::Backward => T.b + T.w,
                ChunkKind::WeightGrad => T.w,
            };
            assert!((e.end - e.start - dur).abs() < 1e-9);
            assert!(e.end <= o.total_time + 1e-9);
        }
        // Sorted by start time.
        for w in ev.windows(2) {
            assert!(w[0].start <= w[1].start + 1e-12);
        }
    }

    #[test]
    fn events_respect_per_stage_serialization() {
        // No two chunks on one stage may overlap in time.
        let (_, ev) = one_f_one_b_events(6, 12, T);
        for s in 0..6 {
            let mut mine: Vec<_> = ev.iter().filter(|e| e.rank == s).collect();
            mine.sort_by(|a, b| a.start.total_cmp(&b.start));
            for w in mine.windows(2) {
                assert!(w[1].start >= w[0].end - 1e-9, "overlap on stage {s}");
            }
        }
    }

    #[test]
    fn events_wrapper_is_byte_identical_to_plain() {
        let (s, m) = (8, 24);
        let plain = one_f_one_b(s, m, T);
        let (viaev, _) = one_f_one_b_events(s, m, T);
        assert_eq!(plain, viaev);
    }

    #[test]
    fn one_f_one_b_in_flight_matches_warmup_cap() {
        // The defining 1F1B property (and what bounds activation memory):
        // stage s never holds more than min(stages - s, micro) forwards
        // whose backward has not yet run.
        let (s, m) = (6, 16);
        let (_, mut ev) = one_f_one_b_events(s, m, T);
        sort_events(&mut ev);
        let mut in_flight = vec![0i64; s];
        let mut peak = vec![0i64; s];
        for e in &ev {
            match e.kind {
                ChunkKind::Forward => in_flight[e.rank] += 1,
                ChunkKind::Backward => in_flight[e.rank] -= 1,
                ChunkKind::WeightGrad => {}
            }
            peak[e.rank] = peak[e.rank].max(in_flight[e.rank]);
        }
        for (stage, &p) in peak.iter().enumerate() {
            assert_eq!(p, (s - stage).min(m) as i64, "stage {stage}");
        }
    }
}
