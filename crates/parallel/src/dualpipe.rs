//! Event-driven bidirectional DualPipe and zero-bubble (ZB1P) schedules.
//!
//! DualPipe (reference \[29\] of the paper) halves the pipeline bubble by (a) splitting the microbatch
//! stream into two directions — rank `i` holds model stages `i` and
//! `PP−1−i`, so one half of the microbatches enters at rank 0 and the other
//! at rank `PP−1` — and (b) co-executing one forward chunk with one backward
//! chunk on a rank ("F&B overlap": attention/MoE compute of one chunk hides
//! the MoE communication of the other). ZB1P keeps the single direction but
//! decouples the weight-gradient chunks (W) and drops them into bubbles.
//!
//! These simulators schedule individual chunks under real dependency
//! constraints, complementing the closed-form bubbles in
//! [`crate::schedule`]. Both loops schedule on one per-rank core — a
//! clock, a busy-time sum and a deferred-W queue, which runs a chunk,
//! retires the deferred W chunks that fit before a dependency, and drains
//! the rest at the end of the step. Classic 1F1B is the ZB1P loop with W
//! folded into B.

use crate::schedule::{sort_events, ChunkEvent, ChunkKind, ChunkTimes, PipelineOutcome};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Direction of a microbatch stream in DualPipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Enters at rank 0, traverses stages 0..PP-1 on ranks 0..PP-1.
    Down,
    /// Enters at rank PP-1, traverses stages 0..PP-1 on ranks PP-1..0.
    Up,
}

/// Rank executing stage `v` of a direction.
#[must_use]
pub fn rank_of(stages: usize, dir: Direction, v: usize) -> usize {
    match dir {
        Direction::Down => v,
        Direction::Up => stages - 1 - v,
    }
}

/// Model stage rank `r` executes for global microbatch `g` (of `micro`
/// total): the Down stream (`g < micro/2`) runs stage `r`, the Up stream
/// runs the mirror stage `stages − 1 − r`.
#[must_use]
pub fn stage_of_global(stages: usize, rank: usize, g: usize, micro: usize) -> usize {
    if g < micro / 2 {
        rank
    } else {
        stages - 1 - rank
    }
}

/// One rank's clock (`free`), busy time and deferred weight-gradient queue
/// (global microbatch ids in B-completion order): the state both event
/// loops below schedule on.
#[derive(Clone, Default)]
struct Rank {
    free: f64,
    busy: f64,
    pending_w: VecDeque<usize>,
}

impl Rank {
    /// Runs chunk `kind` of `micro` for `dur` from the later of `dep` and
    /// the clock, deferring its W if it is a backward; returns its start
    /// and end.
    fn run(
        &mut self,
        rank: usize,
        micro: usize,
        kind: ChunkKind,
        dep: f64,
        dur: f64,
        events: &mut Vec<ChunkEvent>,
    ) -> (f64, f64) {
        let start = dep.max(self.free);
        self.free = start + dur;
        self.busy += dur;
        events.push(ChunkEvent { rank, micro, kind, start, end: self.free });
        if kind == ChunkKind::Backward {
            self.pending_w.push_back(micro);
        }
        (start, self.free)
    }

    /// Retires deferred W chunks back to back from the clock, oldest first,
    /// while `go(backlog, end of the next W)` holds.
    fn retire(
        &mut self,
        rank: usize,
        w: f64,
        events: &mut Vec<ChunkEvent>,
        go: impl Fn(usize, f64) -> bool,
    ) {
        while let Some(&micro) = self.pending_w.front() {
            if !go(self.pending_w.len(), self.free + w) {
                break;
            }
            self.pending_w.pop_front();
            let (start, end) = (self.free, self.free + w);
            events.push(ChunkEvent { rank, micro, kind: ChunkKind::WeightGrad, start, end });
            self.free = end;
            self.busy += w;
        }
    }
}

/// The step's outcome over `ranks`, and its events sorted by start time.
fn finish(ranks: &[Rank], mut events: Vec<ChunkEvent>) -> (PipelineOutcome, Vec<ChunkEvent>) {
    let total_time = ranks.iter().map(|r| r.free).fold(0.0f64, f64::max);
    let stage_busy: Vec<f64> = ranks.iter().map(|r| r.busy).collect();
    let min_busy = stage_busy.iter().copied().fold(f64::INFINITY, f64::min);
    sort_events(&mut events);
    (PipelineOutcome { total_time, bubble_time: total_time - min_busy, stage_busy }, events)
}

/// Event-driven ZB1P: 1F1B order for F and B, with decoupled W chunks
/// filling idle time (at most one W deferred per B, drained at the end).
///
/// # Panics
///
/// Panics on a degenerate pipeline or invalid chunk times.
#[must_use]
pub fn zb1p(stages: usize, micro: usize, times: ChunkTimes) -> PipelineOutcome {
    zb1p_events(stages, micro, times).0
}

/// [`zb1p`] with every scheduled chunk, sorted by start time. Each stage
/// keeps the 1F1B discipline — a warmup of `stages − s` forwards, then
/// strictly alternating B and F — and before each chunk retires the
/// deferred W chunks that fit before its dependency. Classic 1F1B is this
/// loop with W folded into B
/// ([`one_f_one_b_events`](crate::schedule::one_f_one_b_events)).
pub(crate) fn zb1p_events(
    stages: usize,
    micro: usize,
    times: ChunkTimes,
) -> (PipelineOutcome, Vec<ChunkEvent>) {
    assert!(stages > 0 && micro > 0, "degenerate pipeline");
    assert!(times.is_valid(), "invalid chunk times");
    // f_done[s][m] / b_done[s][m] completion times.
    let mut f_done = vec![vec![f64::INFINITY; micro]; stages];
    let mut b_done = f_done.clone();
    let mut next_f = vec![0usize; stages];
    let mut next_b = vec![0usize; stages];
    let mut ranks = vec![Rank::default(); stages];
    let mut events = Vec::with_capacity(3 * stages * micro);
    // Greedy rounds: every stage runs its next chunks while their
    // dependencies are met, until all backwards are done.
    loop {
        let mut progressed = false;
        for s in 0..stages {
            loop {
                let in_flight = next_f[s] - next_b[s];
                let (kind, m, dep) = if next_b[s] < micro
                    && in_flight > 0
                    && (in_flight >= (stages - s).min(micro) || next_f[s] == micro)
                {
                    // B(s, m) needs F(s, m) and B(s+1, m) below the last stage.
                    let m = next_b[s];
                    let next = if s + 1 < stages { b_done[s + 1][m] } else { f_done[s][m] };
                    (ChunkKind::Backward, m, next.max(f_done[s][m]))
                } else if next_f[s] < micro {
                    let m = next_f[s];
                    (ChunkKind::Forward, m, if s == 0 { 0.0 } else { f_done[s - 1][m] })
                } else {
                    break;
                };
                if !dep.is_finite() {
                    break;
                }
                let (dur, done, next) = if kind == ChunkKind::Backward {
                    (times.b, &mut b_done, &mut next_b)
                } else {
                    (times.f, &mut f_done, &mut next_f)
                };
                ranks[s].retire(s, times.w, &mut events, |_, end| end <= dep);
                done[s][m] = ranks[s].run(s, m, kind, dep, dur, &mut events).1;
                next[s] += 1;
                progressed = true;
            }
        }
        if next_b.iter().all(|&x| x == micro) {
            break;
        }
        assert!(progressed, "schedule deadlocked");
    }
    // Drain the remaining W chunks. The clock advances by the one product
    // `n·w`, not by `n` additions as in DualPipe: the two round differently.
    for (s, rank) in ranks.iter_mut().enumerate() {
        let (free, n) = (rank.free, rank.pending_w.len() as f64);
        for (k, mw) in rank.pending_w.drain(..).enumerate() {
            let (start, end) = (free + k as f64 * times.w, free + (k + 1) as f64 * times.w);
            events.push(ChunkEvent { rank: s, micro: mw, kind: ChunkKind::WeightGrad, start, end });
        }
        rank.free += n * times.w;
        rank.busy += n * times.w;
    }
    finish(&ranks, events)
}

/// Event-driven DualPipe: bidirectional microbatch streams with F&B
/// co-execution.
///
/// `micro` is the total microbatch count (split evenly between directions;
/// must be even). A rank co-executes one F chunk and one B chunk in
/// `max(f, b)` time when both are ready (perfect overlap — DualPipe's design
/// point, where the paired chunk's EP communication hides under the other's
/// compute). W chunks are decoupled and drain opportunistically as in ZB1P.
///
/// # Panics
///
/// Panics if `micro` is odd or smaller than `2 × stages`, or times are
/// invalid.
#[must_use]
pub fn dualpipe(stages: usize, micro: usize, times: ChunkTimes) -> PipelineOutcome {
    dualpipe_events(stages, micro, times, false).0
}

/// Largest deferred-W backlog a throttled rank tolerates before it must
/// retire one (zero-bubble schedules keep this O(1): each B's
/// weight-gradient operands stay live until its W runs).
pub const W_BACKLOG_CAP: usize = 2;

/// [`dualpipe`], additionally returning every scheduled chunk as a
/// [`ChunkEvent`] (sorted by start time).
///
/// Microbatch ids are global: `0..micro/2` for the Down stream (rank `r`
/// runs stage `r`), `micro/2..micro` for the Up stream (rank `r` runs stage
/// `stages − 1 − r`). W chunks carry the microbatch whose deferred
/// weight-gradient work they retire, in B-completion order.
///
/// With `throttle`, a rank defers the next forward of direction `d` while
/// it already holds `stages − v + 1` forwards of that direction whose
/// backward has not run (`v` = the stage it executes for `d`), and retires
/// a deferred W chunk whenever the backlog reaches
/// [`W_BACKLOG_CAP`] instead of letting all weight-gradient work slide to
/// the end of the step. The greedy unthrottled schedule lets rank 0 race
/// through all of its half of the microbatches before the first backward
/// returns — latency-optimal, but it implies an unbounded activation
/// stash, and deferring every W chunk retains every microbatch's
/// weight-gradient operands; the throttle reproduces DualPipe's published
/// memory profile (≈ PP + 1 microbatches in flight per rank across both
/// directions, O(1) retained W operands) at a small step-time cost.
///
/// # Panics
///
/// Panics if `micro` is odd or smaller than `2 × stages`, or times are
/// invalid.
#[must_use]
pub fn dualpipe_events(
    stages: usize,
    micro: usize,
    times: ChunkTimes,
    throttle: bool,
) -> (PipelineOutcome, Vec<ChunkEvent>) {
    assert!(stages > 0, "degenerate pipeline");
    assert!(
        micro.is_multiple_of(2) && micro >= 2 * stages,
        "need an even microbatch count ≥ 2·stages"
    );
    assert!(times.is_valid(), "invalid chunk times");
    let (f, b, w) = (times.f, times.b, times.w);
    let half = micro / 2;
    let dirs = [Direction::Down, Direction::Up];
    // done[dir][rank][m]
    let inf = f64::INFINITY;
    let mut f_done = [vec![vec![inf; half]; stages], vec![vec![inf; half]; stages]];
    let mut b_done = f_done.clone();
    // Per (dir, rank) progress counters.
    let mut next_f = [vec![0usize; stages], vec![0usize; stages]];
    let mut next_b = next_f.clone();
    let mut ranks = vec![Rank::default(); stages];
    let mut events: Vec<ChunkEvent> = Vec::with_capacity(3 * stages * micro);
    // Global microbatch id of direction-local microbatch `m` of stream `d`.
    let global_m = |d: usize, m: usize| if d == 0 { m } else { half + m };
    // Ready time of the next F (resp. B) of direction d on rank r, or None.
    let f_ready = |d: usize,
                   r: usize,
                   next_f: &[Vec<usize>],
                   next_b: &[Vec<usize>],
                   f_done: &[Vec<Vec<f64>>; 2]|
     -> Option<f64> {
        let v = match dirs[d] {
            Direction::Down => r,
            Direction::Up => stages - 1 - r,
        };
        let m = next_f[d][r];
        if m >= half {
            return None;
        }
        if throttle && next_f[d][r] - next_b[d][r] > stages - v {
            return None;
        }
        let dep = if v == 0 {
            0.0
        } else {
            let prev_rank = rank_of(stages, dirs[d], v - 1);
            f_done[d][prev_rank][m]
        };
        dep.is_finite().then_some(dep)
    };
    let b_ready = |d: usize,
                   r: usize,
                   next_b: &[Vec<usize>],
                   f_done: &[Vec<Vec<f64>>; 2],
                   b_done: &[Vec<Vec<f64>>; 2]|
     -> Option<f64> {
        let v = match dirs[d] {
            Direction::Down => r,
            Direction::Up => stages - 1 - r,
        };
        let m = next_b[d][r];
        if m >= half {
            return None;
        }
        let own_f = f_done[d][r][m];
        let dep = if v + 1 == stages {
            own_f
        } else {
            let nxt_rank = rank_of(stages, dirs[d], v + 1);
            b_done[d][nxt_rank][m].max(own_f)
        };
        dep.is_finite().then_some(dep)
    };

    loop {
        let mut progressed = false;
        for r in 0..stages {
            loop {
                // Memory discipline: retire a deferred W before its backlog
                // (and the per-micro operands it retains) can grow past the
                // zero-bubble bound.
                if throttle {
                    ranks[r].retire(r, w, &mut events, |n, _| n >= W_BACKLOG_CAP);
                }
                // Gather candidate F and B chunks from both directions.
                let mut best_f: Option<(usize, f64)> = None;
                let mut best_b: Option<(usize, f64)> = None;
                for d in 0..2 {
                    if let Some(t) = f_ready(d, r, &next_f, &next_b, &f_done) {
                        if best_f.is_none_or(|(_, bt)| t < bt) {
                            best_f = Some((d, t));
                        }
                    }
                    if let Some(t) = b_ready(d, r, &next_b, &f_done, &b_done) {
                        if best_b.is_none_or(|(_, bt)| t < bt) {
                            best_b = Some((d, t));
                        }
                    }
                }
                // Backward-pressure discipline: once any backward is ready,
                // pair it (or run it alone); otherwise run a forward.
                match (best_f, best_b) {
                    (Some((df, tf)), Some((db, tb))) => {
                        // Co-execute F and B for max(f, b) from when both
                        // deps and the rank are ready. The F event is pushed
                        // here, so busy time gains max(f, b) once.
                        let (mf, mb) = (next_f[df][r], next_b[db][r]);
                        let (start, end) = ranks[r].run(
                            r,
                            global_m(db, mb),
                            ChunkKind::Backward,
                            tf.max(tb),
                            f.max(b),
                            &mut events,
                        );
                        b_done[db][r][mb] = end;
                        f_done[df][r][mf] = start + f;
                        events.push(ChunkEvent {
                            rank: r,
                            micro: global_m(df, mf),
                            kind: ChunkKind::Forward,
                            start,
                            end: start + f,
                        });
                        next_f[df][r] += 1;
                        next_b[db][r] += 1;
                    }
                    (Some((d, t)), None) | (None, Some((d, t))) => {
                        // One chunk alone, after the deferred W that fit
                        // before its dependency.
                        let (kind, dur, done, next) = if best_b.is_some() {
                            (ChunkKind::Backward, b, &mut b_done, &mut next_b)
                        } else {
                            (ChunkKind::Forward, f, &mut f_done, &mut next_f)
                        };
                        let m = next[d][r];
                        ranks[r].retire(r, w, &mut events, |_, end| end <= t);
                        done[d][r][m] =
                            ranks[r].run(r, global_m(d, m), kind, t, dur, &mut events).1;
                        next[d][r] += 1;
                    }
                    (None, None) => break,
                }
                progressed = true;
            }
        }
        let done = (0..2).all(|d| (0..stages).all(|r| next_b[d][r] == half));
        if done {
            break;
        }
        assert!(progressed, "schedule deadlocked");
    }
    // Drain the remaining W chunks back-to-back on each rank.
    for (r, rank) in ranks.iter_mut().enumerate() {
        rank.retire(r, w, &mut events, |_, _| true);
    }
    finish(&ranks, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{bubble_1f1b, bubble_zb1p, one_f_one_b, one_f_one_b_events};

    const T: ChunkTimes = ChunkTimes { f: 1.0, b: 1.0, w: 0.5 };

    #[test]
    fn rank_mapping() {
        assert_eq!(rank_of(8, Direction::Down, 0), 0);
        assert_eq!(rank_of(8, Direction::Down, 7), 7);
        assert_eq!(rank_of(8, Direction::Up, 0), 7);
        assert_eq!(rank_of(8, Direction::Up, 7), 0);
    }

    #[test]
    fn zb1p_beats_1f1b() {
        let (s, m) = (8, 32);
        let zb = zb1p(s, m, T);
        let classic = one_f_one_b(s, m, T);
        assert!(zb.total_time < classic.total_time, "{} vs {}", zb.total_time, classic.total_time);
    }

    #[test]
    fn zb1p_bubble_tracks_analytic() {
        let (s, m) = (8, 64);
        let zb = zb1p(s, m, T);
        let analytic = bubble_zb1p(s, T);
        // The event-driven schedule cannot beat the analytic bound and
        // should land near it (within ~60%: the closed form is for the
        // idealized W placement).
        assert!(zb.bubble_time >= analytic * 0.4, "{} vs {analytic}", zb.bubble_time);
        assert!(zb.bubble_time <= bubble_1f1b(s, T) + 1e-9);
    }

    #[test]
    fn zb1p_work_conserved() {
        let (s, m) = (4, 12);
        let zb = zb1p(s, m, T);
        for busy in &zb.stage_busy {
            assert!((busy - m as f64 * (T.f + T.b + T.w)).abs() < 1e-9);
        }
    }

    #[test]
    fn dualpipe_beats_zb1p_and_1f1b() {
        // The second input is the PP=16 point EXPERIMENTS.md cites.
        let pp16 = ChunkTimes { f: 1.0, b: 1.0, w: 0.33 };
        for (s, m, t) in [(8, 32, T), (16, 120, pp16)] {
            let dp = dualpipe(s, m, t);
            let zb = zb1p(s, m, t);
            let classic = one_f_one_b(s, m, t);
            assert!(
                dp.total_time < zb.total_time,
                "dualpipe {} vs zb1p {}",
                dp.total_time,
                zb.total_time
            );
            assert!(dp.total_time < classic.total_time);
            if s == 16 {
                // Bit for bit: at one decimal ZB1P's exact 294.75 and
                // 1F1B's 314.55 sit on rounding ties a one-ulp change flips.
                let steps = [dp.total_time, zb.total_time, classic.total_time];
                let pinned = [247.600_000_000_001_5, 294.75, 314.550_000_000_000_3];
                assert_eq!(steps.map(f64::to_bits), pinned.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn dualpipe_overlap_bound() {
        // With perfect F&B overlap, each rank executes `micro` F and
        // `micro` B in at least micro·max(f,b) + W time.
        let (s, m) = (4, 16);
        let dp = dualpipe(s, m, T);
        let floor = m as f64 * T.f.max(T.b) + m as f64 * T.w;
        assert!(dp.total_time >= floor - 1e-9, "{} < {floor}", dp.total_time);
        // And it gets close to the floor (bubble is small).
        assert!(dp.total_time <= floor * 1.5, "{} vs {floor}", dp.total_time);
    }

    #[test]
    fn dualpipe_work_conserved_under_overlap() {
        // Busy time counts co-executed pairs once (max(f,b)), so per rank:
        // between micro·max(f,b)+micro·w (all paired) and
        // micro·(f+b+w) (never paired).
        let (s, m) = (4, 12);
        let dp = dualpipe(s, m, T);
        for busy in &dp.stage_busy {
            assert!(*busy >= m as f64 * (T.f.max(T.b) + T.w) - 1e-9);
            assert!(*busy <= m as f64 * (T.f + T.b + T.w) + 1e-9);
        }
    }

    #[test]
    fn dualpipe_scales_with_microbatches() {
        let small = dualpipe(4, 8, T);
        let large = dualpipe(4, 64, T);
        assert!(large.bubble_fraction() < small.bubble_fraction());
    }

    #[test]
    #[should_panic(expected = "even microbatch")]
    fn odd_micro_panics() {
        let _ = dualpipe(4, 9, T);
    }

    #[test]
    fn events_wrapper_is_byte_identical_to_plain() {
        let (s, m) = (8, 32);
        let plain = dualpipe(s, m, T);
        let (viaev, _) = dualpipe_events(s, m, T, false);
        assert_eq!(plain, viaev);
    }

    #[test]
    fn events_cover_every_chunk_exactly_once() {
        let (s, m) = (4, 16);
        for throttle in [false, true] {
            let (o, ev) = dualpipe_events(s, m, T, throttle);
            // Each microbatch traverses all stages: s·m chunks of each kind.
            for kind in [ChunkKind::Forward, ChunkKind::Backward, ChunkKind::WeightGrad] {
                assert_eq!(ev.iter().filter(|e| e.kind == kind).count(), s * m);
            }
            // Each rank runs exactly `m` of each kind (half per direction).
            for r in 0..s {
                for kind in [ChunkKind::Forward, ChunkKind::Backward, ChunkKind::WeightGrad] {
                    assert_eq!(ev.iter().filter(|e| e.rank == r && e.kind == kind).count(), m);
                }
            }
            for e in &ev {
                assert!(e.end <= o.total_time + 1e-9);
                assert!(e.micro < m);
            }
        }
    }

    #[test]
    fn throttle_caps_per_direction_in_flight() {
        let (s, m) = (4, 24);
        let (_, ev) = dualpipe_events(s, m, T, true);
        // Walk events in start order; per (rank, direction) the number of
        // forwards without a matching backward must stay ≤ stages − v + 1.
        let mut in_flight = vec![[0i64; 2]; s];
        for e in &ev {
            let d = usize::from(e.micro >= m / 2);
            match e.kind {
                ChunkKind::Forward => in_flight[e.rank][d] += 1,
                ChunkKind::Backward => in_flight[e.rank][d] -= 1,
                ChunkKind::WeightGrad => continue,
            }
            let v = stage_of_global(s, e.rank, e.micro, m);
            let cap = (s - v + 1) as i64;
            assert!(
                in_flight[e.rank][d] <= cap,
                "rank {} dir {d}: {} > cap {cap}",
                e.rank,
                in_flight[e.rank][d]
            );
        }
    }

    #[test]
    fn throttle_bounds_the_w_backlog() {
        let (s, m) = (4, 24);
        let (_, ev) = dualpipe_events(s, m, T, true);
        // Walk events in start order; per rank the number of backwards
        // without a retired W must stay ≤ W_BACKLOG_CAP.
        let mut backlog = vec![0i64; s];
        for e in &ev {
            match e.kind {
                ChunkKind::Backward => backlog[e.rank] += 1,
                ChunkKind::WeightGrad => backlog[e.rank] -= 1,
                ChunkKind::Forward => continue,
            }
            assert!(
                backlog[e.rank] <= W_BACKLOG_CAP as i64,
                "rank {}: backlog {}",
                e.rank,
                backlog[e.rank]
            );
            assert!(backlog[e.rank] >= 0, "W retired before its B");
        }
    }

    #[test]
    fn throttled_schedule_still_completes_all_work() {
        let (s, m) = (8, 32);
        let (o, _) = dualpipe_events(s, m, T, true);
        for busy in &o.stage_busy {
            // Work conservation: same bounds as the unthrottled variant.
            assert!(*busy >= m as f64 * (T.f.max(T.b) + T.w) - 1e-9);
            assert!(*busy <= m as f64 * (T.f + T.b + T.w) + 1e-9);
        }
        // Throttling trades step time for memory; it must stay in the same
        // ballpark as the greedy schedule.
        let greedy = dualpipe(s, m, T);
        assert!(
            o.total_time <= greedy.total_time * 1.5,
            "{} vs {}",
            o.total_time,
            greedy.total_time
        );
    }

    /// FNV-1a over the `to_bits` of every outcome and event of 1F1B, ZB1P
    /// and DualPipe (throttled and not) on stages 1–9 and micro 1–39
    /// (DualPipe: even micro ≥ 2·stages), for six chunk shapes including
    /// `w = 0`, `w > f` and non-dyadic times. Pinned from the three
    /// separate event loops that preceded the shared rank core, so any
    /// change to a chunk's placement or to the float order of a clock or
    /// busy sum fails here.
    #[test]
    fn schedules_match_pinned_digest() {
        fn mix(h: &mut u64, x: u64) {
            for byte in x.to_le_bytes() {
                *h = (*h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        fn outcome(h: &mut u64, o: &PipelineOutcome) {
            for x in [o.total_time, o.bubble_time].iter().chain(&o.stage_busy) {
                mix(h, x.to_bits());
            }
        }
        fn events(h: &mut u64, ev: &[ChunkEvent]) {
            mix(h, ev.len() as u64);
            for e in ev {
                for x in [e.rank as u64, e.micro as u64, e.kind as u64] {
                    mix(h, x);
                }
                mix(h, e.start.to_bits());
                mix(h, e.end.to_bits());
            }
        }
        let shapes = [
            ChunkTimes { f: 1.0, b: 2.0, w: 0.5 },
            ChunkTimes { f: 1.0, b: 1.0, w: 0.33 },
            ChunkTimes { f: 0.1, b: 0.3, w: 0.0 },
            ChunkTimes { f: 0.7, b: 1.3, w: 0.2 },
            ChunkTimes { f: 1.1, b: 0.9, w: 0.45 },
            ChunkTimes { f: 0.3, b: 0.2, w: 0.7 },
        ];
        let mut h = 0xcbf2_9ce4_8422_2325;
        for t in shapes {
            for s in 1..=9 {
                for m in 1..=39 {
                    let (o, ev) = one_f_one_b_events(s, m, t);
                    outcome(&mut h, &o);
                    events(&mut h, &ev);
                    outcome(&mut h, &zb1p(s, m, t));
                    if m % 2 == 0 && m >= 2 * s {
                        for throttle in [false, true] {
                            let (o, ev) = dualpipe_events(s, m, t, throttle);
                            outcome(&mut h, &o);
                            events(&mut h, &ev);
                        }
                    }
                }
            }
        }
        assert_eq!(h, 0xaec0_ab04_c8f1_d1c2);
    }

    #[test]
    fn stage_of_global_mirrors_directions() {
        assert_eq!(stage_of_global(8, 0, 0, 16), 0);
        assert_eq!(stage_of_global(8, 0, 8, 16), 7);
        assert_eq!(stage_of_global(8, 7, 0, 16), 7);
        assert_eq!(stage_of_global(8, 7, 8, 16), 0);
    }
}
