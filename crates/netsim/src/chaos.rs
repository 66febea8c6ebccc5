//! Fault-tolerant flow simulation: scheduled link failures, reroute
//! policies, and timeout/backoff retransmission (paper §5, Figures 5–8).
//!
//! [`crate::FlowSim`] assumes a healthy fabric: every flow gets one fixed
//! path at `add_flow` and no link ever fails. The paper's argument for the
//! multi-plane two-layer fat-tree is precisely about the *unhealthy* case —
//! a failed link degrades one plane while traffic fails over — so this
//! module drops the assumption:
//!
//! * [`LinkSchedule`] is a seeded, time-scheduled link up/down event
//!   stream, generalizing `collectives::failures::FlapSchedule` from whole
//!   planes to individual links. A failed link's capacity is zero for the
//!   duration, and the schedule's change points are folded into the max-min
//!   rate recomputation horizons of [`ChaosSim`].
//! * [`ReroutePolicy`] decides what an affected flow does: `Stall` (wait
//!   for repair on the same path), `StaticRehash` (oblivious re-pick over
//!   the precomputed ECMP path set — may land on another dead link), or
//!   `Adaptive` (re-pick among currently-healthy paths, least-loaded
//!   first).
//! * [`RetransmitConfig`] models recovery cost: in-flight bytes on the
//!   dead link (up to one window) are lost and re-sent after a detection
//!   timeout plus exponential backoff, under a per-flow retry budget.
//!   Flows that exhaust the budget — or miss their deadline — are
//!   *stranded* and accounted in [`ChaosReport`].
//!
//! [`ChaosSim`]'s event loop is the crate's only flow event loop:
//! [`crate::FlowSim`] is its single-path front, run with an empty schedule
//! under [`ReroutePolicy::Stall`], so the two agree by construction. The
//! loop drives the incremental max-min solver ([`crate::maxmin`]); the
//! `#[cfg(test)]` oracle checks it against a global re-solve. Its
//! per-event passes touch only live flows: the waiting ones by id and the
//! active ones through dense per-slot counters.

use crate::maxmin::{MaxMinSolver, SolverWork};
use crate::sim::{Link, LinkId};
use dsv3_telemetry::Recorder;
use dsv3_units::us_to_ms;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Identifier of a flow within a [`ChaosSim`].
pub type FlowId = usize;

const EPS: f64 = 1e-9;

/// One link-down interval: `link` is down in `[down_at_us, down_at_us +
/// repair_us)` — down-inclusive, up-exclusive, matching the repair-wins-ties
/// convention of `collectives::failures::PlaneFlap`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFlap {
    /// The failed link.
    pub link: LinkId,
    /// Failure instant (µs).
    pub down_at_us: f64,
    /// Repair duration (µs); the link is healthy again at
    /// `down_at_us + repair_us`.
    pub repair_us: f64,
}

impl LinkFlap {
    /// Instant the link comes back up.
    #[must_use]
    pub fn up_at_us(&self) -> f64 {
        self.down_at_us + self.repair_us
    }

    /// Is this flap holding its link down at time `t_us`?
    #[must_use]
    pub fn is_down_at(&self, t_us: f64) -> bool {
        self.down_at_us <= t_us && t_us < self.up_at_us()
    }
}

/// A time-scheduled stream of individual link failures.
///
/// Overlapping flaps of the same link are fine: the link is down whenever
/// *any* flap holds it down.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkSchedule {
    /// The failure intervals, in no particular order.
    pub flaps: Vec<LinkFlap>,
}

/// Seeded Poisson link-failure generator parameters for
/// [`LinkSchedule::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkChaosConfig {
    /// Number of links in the fabric (failures pick uniformly among them).
    pub links: usize,
    /// Fabric-wide mean time between link failures (µs); `INFINITY`
    /// disables generation.
    pub mtbf_us: f64,
    /// Repair duration of every generated failure (µs).
    pub repair_us: f64,
    /// Generation horizon (µs): no failures arrive after this.
    pub horizon_us: f64,
    /// RNG seed.
    pub seed: u64,
}

impl LinkSchedule {
    /// The empty (fault-free) schedule.
    #[must_use]
    pub fn healthy() -> Self {
        Self { flaps: Vec::new() }
    }

    /// True when no failures are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flaps.is_empty()
    }

    /// Fail every link in `links` at `down_at_us` for `repair_us`.
    #[must_use]
    pub fn fail_links(links: &[LinkId], down_at_us: f64, repair_us: f64) -> Self {
        Self { flaps: links.iter().map(|&link| LinkFlap { link, down_at_us, repair_us }).collect() }
    }

    /// Fail a seeded-random `fraction` of `candidates` (rounded to the
    /// nearest count) at `down_at_us` for `repair_us`. Deterministic for a
    /// fixed seed; the chosen links are sorted for stable reporting.
    #[must_use]
    pub fn fail_fraction(
        candidates: &[LinkId],
        fraction: f64,
        seed: u64,
        down_at_us: f64,
        repair_us: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        let n = ((fraction * candidates.len() as f64).round() as usize).min(candidates.len());
        let mut pool: Vec<LinkId> = candidates.to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6672_6163); // "frac"
        pool.shuffle(&mut rng);
        let mut chosen: Vec<LinkId> = pool.into_iter().take(n).collect();
        chosen.sort_unstable();
        Self::fail_links(&chosen, down_at_us, repair_us)
    }

    /// Seeded Poisson arrivals: fabric-wide exponential inter-failure times
    /// with mean `mtbf_us`, each failing a uniformly-chosen link.
    #[must_use]
    pub fn generate(cfg: &LinkChaosConfig) -> Self {
        let mut flaps = Vec::new();
        if cfg.links == 0 || !cfg.mtbf_us.is_finite() {
            return Self { flaps };
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6c69_6e6b); // "link"
        let mut t = 0.0;
        loop {
            t += exponential(&mut rng) * cfg.mtbf_us;
            if t > cfg.horizon_us {
                break;
            }
            let link = rng.gen_range(0..cfg.links);
            flaps.push(LinkFlap { link, down_at_us: t, repair_us: cfg.repair_us });
        }
        Self { flaps }
    }

    /// Is `link` down at time `t_us`?
    #[must_use]
    pub fn is_down(&self, link: LinkId, t_us: f64) -> bool {
        self.flaps.iter().any(|f| f.link == link && f.is_down_at(t_us))
    }

    /// Is every link of `path` up at time `t_us`?
    #[must_use]
    pub fn path_healthy_at(&self, path: &[LinkId], t_us: f64) -> bool {
        path.iter().all(|&l| !self.is_down(l, t_us))
    }

    /// All distinct fail/heal instants, sorted ascending.
    #[must_use]
    pub fn change_points_us(&self) -> Vec<f64> {
        let mut pts: Vec<f64> = self
            .flaps
            .iter()
            .flat_map(|f| [f.down_at_us, f.up_at_us()])
            .filter(|t| t.is_finite())
            .collect();
        pts.sort_by(f64::total_cmp);
        pts.dedup();
        pts
    }

    /// Earliest `t >= t_us` at which every link of `path` is up.
    ///
    /// Returns `t_us` itself if the path is healthy now, otherwise the first
    /// change point at which it heals. Returns `INFINITY` only if some flap
    /// never repairs (non-finite `repair_us`).
    #[must_use]
    pub fn next_healthy_at(&self, path: &[LinkId], t_us: f64) -> f64 {
        if self.path_healthy_at(path, t_us) {
            return t_us;
        }
        for cp in self.change_points_us() {
            if cp > t_us && self.path_healthy_at(path, cp) {
                return cp;
            }
        }
        f64::INFINITY
    }
}

/// What a flow does when a link on its current path fails (or when its
/// retransmit timer expires and it must pick a path again).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReroutePolicy {
    /// Keep the original path and wait for repair. Models a fabric with no
    /// multipathing: recovery time is bounded below by the repair time.
    Stall,
    /// Oblivious ECMP-style re-pick: hash (flow, attempt, seed) over the
    /// precomputed path set without consulting link health — the re-pick
    /// may land on another dead link and burn a retry on the detection
    /// timeout. This is the paper's "static routing" strawman.
    StaticRehash {
        /// Hash seed (deterministic per-fabric salt).
        seed: u64,
    },
    /// Re-pick among currently-healthy paths, choosing the one whose most
    /// loaded link carries the fewest active flows (ties to the lowest
    /// path index). If no path is healthy, wait for the earliest heal.
    #[default]
    Adaptive,
}

/// Timeout + exponential-backoff retransmission model.
///
/// When a link on an active flow's path fails, up to one
/// `inflight_window_bytes` window of the current attempt's progress is
/// lost (returned to the flow's remaining bytes and re-sent). The flow
/// waits `detect_timeout_us + backoff_delay_us(attempt)` before its next
/// attempt; after `max_retries` failed attempts it is stranded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetransmitConfig {
    /// Failure-detection timeout (µs) charged before every retry. Must be
    /// positive so retry loops always advance simulated time.
    pub detect_timeout_us: f64,
    /// First backoff delay (µs).
    pub backoff_base_us: f64,
    /// Multiplier applied per additional attempt (≥ 1).
    pub backoff_factor: f64,
    /// Backoff cap (µs).
    pub backoff_max_us: f64,
    /// Retry budget: attempt `max_retries + 1` failures strand the flow.
    pub max_retries: u32,
    /// Maximum unacknowledged bytes lost per failure (the transport
    /// window).
    pub inflight_window_bytes: f64,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        Self {
            detect_timeout_us: 100.0,
            backoff_base_us: 50.0,
            backoff_factor: 2.0,
            backoff_max_us: 5_000.0,
            max_retries: 4,
            inflight_window_bytes: 1_048_576.0,
        }
    }
}

impl RetransmitConfig {
    /// Backoff before retry attempt `attempt` (1-based):
    /// `base · factor^(attempt−1)`, capped at `backoff_max_us`. Attempt 0
    /// (the initial send) has no backoff.
    #[must_use]
    pub fn backoff_delay_us(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let mut d = self.backoff_base_us;
        for _ in 1..attempt {
            d *= self.backoff_factor;
            if d >= self.backoff_max_us {
                return self.backoff_max_us;
            }
        }
        d.min(self.backoff_max_us)
    }
}

/// Full fault configuration for one [`ChaosSim`] run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// The link up/down event stream.
    pub schedule: LinkSchedule,
    /// Reroute policy applied to every flow.
    pub policy: ReroutePolicy,
    /// Retransmission model.
    pub retransmit: RetransmitConfig,
    /// Optional per-flow deadline (µs after the flow's start): a flow not
    /// finished by `start_us + deadline_us` is aborted and stranded.
    pub deadline_us: Option<f64>,
}

/// Per-flow outcome of a chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosFlowOutcome {
    /// Completion instant (µs, includes path latency); `None` if stranded.
    pub finish_us: Option<f64>,
    /// Stranding instant (retry budget exhausted or deadline missed).
    pub stranded_us: Option<f64>,
    /// Bytes that reached the destination.
    pub delivered_bytes: f64,
    /// Bytes lost on failed links (later re-sent unless stranded first).
    pub lost_bytes: f64,
    /// Total bytes put on the wire (`delivered + lost`, modulo float
    /// completion rounding).
    pub sent_bytes: f64,
    /// Failed attempts (interruptions and dead re-picks).
    pub retries: u32,
    /// Times the flow resumed on a different path than it failed on.
    pub reroutes: u64,
    /// Index into the flow's path set it last transmitted on.
    pub final_path: usize,
}

/// Aggregate report of a [`ChaosSim`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Per-flow outcomes, indexed by [`FlowId`].
    pub flows: Vec<ChaosFlowOutcome>,
    /// Latest completion instant among finished flows (0 if none).
    pub makespan_us: f64,
    /// Flows that delivered all bytes.
    pub completed: usize,
    /// Flows aborted by retry-budget exhaustion or deadline.
    pub stranded: usize,
    /// Total bytes lost on failed links and re-sent.
    pub retransmitted_bytes: f64,
    /// Total path changes across all flows.
    pub total_reroutes: u64,
    /// Total failed attempts across all flows.
    pub total_retries: u64,
    /// Scheduled link failures (flap count).
    pub link_failures: usize,
    /// Scheduled link repairs that completed within finite time.
    pub link_repairs: usize,
}

impl ChaosReport {
    /// Project onto a [`crate::SimReport`] when every flow completed.
    ///
    /// With single-path flows, an empty schedule and no deadline the result
    /// is bit-identical to [`crate::FlowSim::run`] (which runs this loop)
    /// on the same flows under every policy.
    #[must_use]
    pub fn to_sim_report(&self) -> Option<crate::SimReport> {
        let mut finish_us = Vec::with_capacity(self.flows.len());
        for f in &self.flows {
            finish_us.push(f.finish_us?);
        }
        let makespan_us = finish_us.iter().copied().fold(0.0, f64::max);
        Some(crate::SimReport { finish_us, makespan_us })
    }

    /// Byte-conservation check: for every flow,
    /// `sent ≈ delivered + lost` and completed flows delivered all their
    /// bytes. `tol` is the relative tolerance (completion rounding).
    #[must_use]
    pub fn bytes_balanced(&self, expected_bytes: &[f64], tol: f64) -> bool {
        self.flows.iter().zip(expected_bytes).all(|(f, &bytes)| {
            let scale = f.sent_bytes.abs().max(bytes).max(1.0);
            let balanced = (f.sent_bytes - f.delivered_bytes - f.lost_bytes).abs() <= tol * scale;
            let complete_ok =
                f.finish_us.is_none() || (f.delivered_bytes - bytes).abs() <= tol * scale;
            balanced && complete_ok
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Waiting to (re)start at `until`; `pick` re-runs path selection.
    Waiting {
        until: f64,
        pick: bool,
    },
    Active,
    /// Completed at `at_us` (includes path latency).
    Done {
        at_us: f64,
    },
    /// Aborted at `at_us` (retry budget exhausted or deadline missed).
    Stranded {
        at_us: f64,
    },
}

/// One flow's immutable spec: a *set* of candidate paths (ECMP group).
#[derive(Debug, Clone)]
pub(crate) struct ChaosFlowSpec {
    pub(crate) paths: Vec<Vec<LinkId>>,
    bytes: f64,
    start_us: f64,
    latency_us: f64,
}

/// Per-flow mutable run state. While a flow is active its byte counters
/// live in the loop's [`ActiveSet`] (with the current attempt's progress,
/// which only an active flow has), and are written back here when it
/// stops.
#[derive(Debug, Clone)]
pub(crate) struct Rt {
    phase: Phase,
    /// Current index into the spec's path set.
    current: usize,
    /// Path index at the moment of the last interruption.
    path_at_fail: usize,
    remaining: f64,
    sent: f64,
    lost: f64,
    retries: u32,
    reroutes: u64,
}

impl Rt {
    /// Completion instant (µs), if the flow finished.
    pub(crate) fn finish_us(&self) -> Option<f64> {
        if let Phase::Done { at_us } = self.phase {
            Some(at_us)
        } else {
            None
        }
    }

    fn stranded_us(&self) -> Option<f64> {
        if let Phase::Stranded { at_us } = self.phase {
            Some(at_us)
        } else {
            None
        }
    }

    fn is_live(&self) -> bool {
        matches!(self.phase, Phase::Waiting { .. } | Phase::Active)
    }

    /// Start an attempt on path `idx`.
    fn activate(&mut self, idx: usize) {
        if self.retries > 0 && idx != self.path_at_fail {
            self.reroutes += 1;
        }
        self.current = idx;
        self.phase = Phase::Active;
    }

    /// Charge a failed attempt at `now`: strand the flow once its retry
    /// budget is spent, otherwise wait out the detection timeout plus
    /// backoff and re-pick a path.
    fn fail_attempt(&mut self, rc: &RetransmitConfig, now: f64) {
        self.retries += 1;
        self.phase = if self.retries > rc.max_retries {
            Phase::Stranded { at_us: now }
        } else {
            let wait = rc.detect_timeout_us + rc.backoff_delay_us(self.retries);
            Phase::Waiting { until: now + wait, pick: true }
        };
    }
}

/// The active flows' hot state in dense arrays, one slot per flow: the
/// per-event passes stream over these instead of every flow's [`Rt`].
/// Slot order is immaterial: every per-flow update is independent, and
/// the next-completion minimum does not depend on order.
#[derive(Debug)]
struct ActiveSet {
    flow: Vec<FlowId>,
    remaining: Vec<f64>,
    /// Bytes sent in the current attempt.
    attempt_sent: Vec<f64>,
    sent: Vec<f64>,
    /// Rate of each slot as of the last solve.
    rate: Vec<f64>,
}

impl ActiveSet {
    /// An empty set with room for `flows` slots.
    fn new(flows: usize) -> Self {
        Self {
            flow: Vec::with_capacity(flows),
            remaining: Vec::with_capacity(flows),
            attempt_sent: Vec::with_capacity(flows),
            sent: Vec::with_capacity(flows),
            rate: Vec::with_capacity(flows),
        }
    }

    fn len(&self) -> usize {
        self.flow.len()
    }

    /// Add flow `f`, which just started an attempt, with its counters.
    fn push(&mut self, f: FlowId, r: &Rt) {
        self.flow.push(f);
        self.remaining.push(r.remaining);
        self.attempt_sent.push(0.0);
        self.sent.push(r.sent);
        self.rate.push(0.0);
    }

    /// Write slot `i`'s counters back to its flow's `r`.
    fn store(&self, i: usize, r: &mut Rt) {
        r.remaining = self.remaining[i];
        r.sent = self.sent[i];
    }

    /// Drop the slots in `gone` (ascending); the last slots move into
    /// their places.
    fn remove(&mut self, gone: &[usize]) {
        for &i in gone.iter().rev() {
            self.flow.swap_remove(i);
            self.remaining.swap_remove(i);
            self.attempt_sent.swap_remove(i);
            self.sent.swap_remove(i);
            self.rate.swap_remove(i);
        }
    }

    /// Load every slot's rate from the solver's per-flow `rates` and
    /// return the earliest completion instant after `now` (`INFINITY` if
    /// no flow moves). The minimum runs in four independent lanes, which
    /// vectorise; it is the same value in any order.
    fn next_done(&mut self, rates: &[f64], now: f64) -> f64 {
        let n = self.len();
        let (rate, remaining) = (&mut self.rate[..n], &self.remaining[..n]);
        for (r, &f) in rate.iter_mut().zip(&self.flow) {
            *r = rates[f];
        }
        // Branch-free: the quotient of a stalled flow is computed and
        // dropped.
        let done_at = |rate: f64, remaining: f64| {
            // 1 GB/s = 1e9 B / 1e6 µs = 1000 B/µs.
            let at = now + remaining / (rate * 1000.0);
            if rate > 0.0 {
                at
            } else {
                f64::INFINITY
            }
        };
        let (rate4, rate_tail) = rate.as_chunks::<4>();
        let (remaining4, remaining_tail) = remaining.as_chunks::<4>();
        let mut lanes = [f64::INFINITY; 4];
        for (r, m) in rate4.iter().zip(remaining4) {
            lanes = std::array::from_fn(|k| lanes[k].min(done_at(r[k], m[k])));
        }
        for (&r, &m) in rate_tail.iter().zip(remaining_tail) {
            lanes[0] = lanes[0].min(done_at(r, m));
        }
        lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]))
    }

    /// Move every flow on for `dt` at its rate; `done` receives the slots
    /// (ascending) whose flows finish.
    fn advance(&mut self, dt: f64, done: &mut Vec<usize>) {
        let n = self.len();
        let rate = &self.rate[..n];
        let remaining = &mut self.remaining[..n];
        let attempt_sent = &mut self.attempt_sent[..n];
        let sent = &mut self.sent[..n];
        for i in 0..n {
            let moved = rate[i] * 1000.0 * dt;
            remaining[i] = (remaining[i] - moved).max(0.0);
            attempt_sent[i] += moved;
            sent[i] += moved;
            if remaining[i] <= EPS.max(1e-6 * moved) {
                done.push(i);
            }
        }
    }
}

/// The flow simulator's event loop, run over a possibly hostile fabric.
///
/// Flows carry a precomputed ECMP *path set* instead of a single path; a
/// [`ChaosConfig`] supplies the failure schedule, reroute policy,
/// retransmission model, and deadline. [`crate::FlowSim`] is its
/// single-path, fault-free front. `run` borrows the sim immutably, so the
/// same flow set can be replayed under many configurations.
///
/// ```
/// use dsv3_netsim::chaos::{ChaosConfig, ChaosSim, LinkSchedule, ReroutePolicy};
/// use dsv3_netsim::Link;
///
/// // Two parallel 50 GB/s links; the first dies at t=0 for good.
/// let mut sim = ChaosSim::new(vec![Link { capacity_gbps: 50.0 }; 2]);
/// sim.add_flow(vec![vec![0], vec![1]], 1e6, 0.0, 0.0);
/// let cfg = ChaosConfig {
///     schedule: LinkSchedule::fail_links(&[0], 0.0, 1e12),
///     policy: ReroutePolicy::Adaptive,
///     ..ChaosConfig::default()
/// };
/// let report = sim.run(&cfg);
/// assert_eq!(report.completed, 1); // failed over to link 1
/// ```
#[derive(Debug, Clone)]
pub struct ChaosSim {
    pub(crate) links: Vec<Link>,
    pub(crate) flows: Vec<ChaosFlowSpec>,
}

impl ChaosSim {
    /// New simulator over the given links.
    #[must_use]
    pub fn new(links: Vec<Link>) -> Self {
        Self { links, flows: Vec::new() }
    }

    /// Number of links.
    #[must_use]
    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// Number of flows.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Add a flow of `bytes` with the candidate path set `paths` (the
    /// precomputed ECMP group; index 0 is the "home" path used before any
    /// failure under `Stall`/`StaticRehash` attempt 0 hashing or as the
    /// adaptive default). Semantics of `start_us`/`latency_us` match
    /// [`crate::FlowSim::add_flow`]; zero-capacity links are legal (static
    /// dead links). Returns the flow id.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty, a path references an unknown link,
    /// `bytes` is negative, a link capacity is negative, or `start_us` or
    /// `latency_us` is negative or not finite.
    pub fn add_flow(
        &mut self,
        paths: Vec<Vec<LinkId>>,
        bytes: f64,
        start_us: f64,
        latency_us: f64,
    ) -> FlowId {
        assert!(!paths.is_empty(), "a flow needs at least one candidate path");
        assert!(bytes >= 0.0, "bytes must be non-negative");
        check_times(start_us, latency_us);
        for path in &paths {
            for &l in path {
                assert!(l < self.links.len(), "unknown link {l}");
                assert!(self.links[l].capacity_gbps >= 0.0, "link {l} has negative capacity");
            }
        }
        self.flows.push(ChaosFlowSpec { paths, bytes, start_us, latency_us });
        self.flows.len() - 1
    }

    /// Run to completion (or stranding) under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if no flows were added, the schedule references an unknown
    /// link or a non-finite instant, `cfg.retransmit.detect_timeout_us` is
    /// not positive (retry loops must advance time), `backoff_max_us` is
    /// negative or NaN (time would run backwards), or the active flows can
    /// make no progress (all rates zero, nothing to wait for).
    #[must_use]
    pub fn run(&self, cfg: &ChaosConfig) -> ChaosReport {
        let (rt, _) = self.simulate(cfg, self.solver());
        self.report(cfg, &rt, None)
    }

    /// [`ChaosSim::run`] plus telemetry: one span per flow (start to finish
    /// or stranding), `fail link{l}` / `heal link{l}` instants on a `links`
    /// thread, reroute/retry/retransmitted-bytes counters, and a
    /// `{scope}.chaos.flow_us` completion histogram. With a disabled
    /// recorder this is exactly [`ChaosSim::run`].
    ///
    /// # Panics
    ///
    /// As [`ChaosSim::run`].
    #[must_use]
    // lint:entry — ChaosSim event loop (link flaps + reroute under faults).
    pub fn run_traced(&self, rec: &mut Recorder, scope: &str, cfg: &ChaosConfig) -> ChaosReport {
        let (rt, _) = self.simulate(cfg, self.solver());
        self.report(cfg, &rt, rec.is_enabled().then_some((rec, scope)))
    }

    pub(crate) fn solver(&self) -> MaxMinSolver {
        MaxMinSolver::new(&self.links, self.flows.len())
    }

    fn validate(&self, cfg: &ChaosConfig) {
        assert!(!self.flows.is_empty(), "no flows to simulate");
        for f in &cfg.schedule.flaps {
            assert!(f.link < self.links.len(), "schedule references unknown link {}", f.link);
            assert!(
                f.down_at_us.is_finite() && f.down_at_us >= 0.0,
                "failure instants must be finite and non-negative"
            );
            assert!(f.repair_us >= 0.0, "repair duration must be non-negative");
        }
        assert!(
            cfg.retransmit.detect_timeout_us > 0.0,
            "detect_timeout_us must be positive so retries advance time"
        );
        assert!(cfg.retransmit.backoff_base_us >= 0.0, "backoff base must be non-negative");
        assert!(cfg.retransmit.backoff_factor >= 1.0, "backoff factor must be >= 1");
        assert!(cfg.retransmit.backoff_max_us >= 0.0, "backoff cap must be non-negative");
        assert!(
            cfg.retransmit.inflight_window_bytes >= 0.0,
            "in-flight window must be non-negative"
        );
        if let Some(d) = cfg.deadline_us {
            assert!(d > 0.0, "deadline must be positive");
        }
    }

    /// The event loop: every flow's final run state, plus the solver's
    /// work counters.
    pub(crate) fn simulate(
        &self,
        cfg: &ChaosConfig,
        mut solver: MaxMinSolver,
    ) -> (Vec<Rt>, SolverWork) {
        self.validate(cfg);
        let change_points = cfg.schedule.change_points_us();
        let mut rt: Vec<Rt> = self
            .flows
            .iter()
            .map(|spec| Rt {
                phase: Phase::Waiting { until: spec.start_us, pick: true },
                current: 0,
                path_at_fail: 0,
                remaining: spec.bytes,
                sent: 0.0,
                lost: 0.0,
                retries: 0,
                reroutes: 0,
            })
            .collect();
        // Link load is read only by adaptive placement.
        let adaptive = cfg.policy == ReroutePolicy::Adaptive;
        let mut link_load = vec![0u32; if adaptive { self.links.len() } else { 0 }];
        // Step 1 has work only under a deadline, a failure schedule or
        // adaptive placement; without them (every `FlowSim` run) it is
        // skipped.
        let step1_has_work = adaptive || cfg.deadline_us.is_some() || !cfg.schedule.is_empty();
        let deadline = |f: FlowId| cfg.deadline_us.map(|d| self.flows[f].start_us + d);
        // A live flow is waiting (listed by ascending id) or active; all
        // start waiting.
        let mut waiting: Vec<FlowId> = (0..self.flows.len()).collect();
        let mut active = ActiveSet::new(self.flows.len());
        // Slots leaving the active set at this step.
        let mut gone: Vec<usize> = Vec::new();
        let mut now = 0f64;
        loop {
            // 1. Per live flow: one past `start + deadline` is stranded at
            // exactly its deadline instant, and an active one whose current
            // path just lost a link is interrupted: one in-flight window of
            // the attempt's progress is lost and queued for retransmission,
            // and the flow backs off (or strands). Link load counts the flows
            // still active after that.
            if step1_has_work {
                link_load.fill(0);
                waiting.retain(|&f| match deadline(f) {
                    Some(dl) if dl <= now + EPS => {
                        rt[f].phase = Phase::Stranded { at_us: dl.max(self.flows[f].start_us) };
                        false
                    }
                    _ => true,
                });
                gone.clear();
                for i in 0..active.len() {
                    let f = active.flow[i];
                    let r = &mut rt[f];
                    if let Some(dl) = deadline(f).filter(|&dl| dl <= now + EPS) {
                        active.store(i, r);
                        solver.deactivate(f);
                        r.phase = Phase::Stranded { at_us: dl.max(self.flows[f].start_us) };
                        gone.push(i);
                        continue;
                    }
                    let path = &self.flows[f].paths[r.current];
                    if cfg.schedule.path_healthy_at(path, now) {
                        if adaptive {
                            for &l in path {
                                link_load[l] += 1;
                            }
                        }
                        continue;
                    }
                    active.store(i, r);
                    solver.deactivate(f);
                    gone.push(i);
                    let lost = cfg.retransmit.inflight_window_bytes.min(active.attempt_sent[i]);
                    r.remaining += lost;
                    r.lost += lost;
                    r.path_at_fail = r.current;
                    r.fail_attempt(&cfg.retransmit, now);
                    if r.is_live() {
                        waiting.push(f);
                    }
                }
                active.remove(&gone);
                if !waiting.is_sorted() {
                    waiting.sort_unstable();
                }
            }
            // 2. Per waiting flow, in id order: resume a due one under the
            // reroute policy (adaptive placement sees the load of the flows
            // resumed before it, so simultaneous resumes spread out
            // deterministically) and finish zero-work flows (pure-latency
            // messages) at once. A resumed flow has a healthy path and a
            // deadline after `now`, so nothing stops it before this event's
            // solve, and it joins the solver at once. Then collect the wake
            // candidates: waiting resumes, schedule change points and
            // live-flow deadlines.
            let mut finished_any = false;
            let mut next_wake =
                change_points.iter().copied().find(|&cp| cp > now + EPS).unwrap_or(f64::INFINITY);
            waiting.retain(|&f| {
                let r = &mut rt[f];
                if matches!(r.phase, Phase::Waiting { until, .. } if until <= now + EPS) {
                    self.resume(cfg, f, r, now, &mut link_load);
                }
                match r.phase {
                    Phase::Active if r.remaining <= EPS => {
                        r.remaining = 0.0;
                        r.phase = Phase::Done { at_us: now + self.flows[f].latency_us };
                        finished_any = true;
                        false
                    }
                    Phase::Active => {
                        active.push(f, r);
                        solver.activate(f, &self.flows[f].paths[r.current]);
                        false
                    }
                    Phase::Waiting { until, .. } => {
                        next_wake = next_wake.min(until);
                        true
                    }
                    Phase::Done { .. } | Phase::Stranded { .. } => false,
                }
            });
            if cfg.deadline_us.is_some() {
                for &f in waiting.iter().chain(&active.flow) {
                    if let Some(dl) = deadline(f).filter(|&dl| dl > now + EPS) {
                        next_wake = next_wake.min(dl);
                    }
                }
            }
            if finished_any {
                continue;
            }
            if active.len() == 0 {
                if next_wake.is_finite() {
                    now = next_wake;
                    continue;
                }
                break;
            }
            // 3. Max-min rates over the active flows' current paths (the
            // incremental solver re-solves only the components an
            // activation or stop touched), then advance to the nearest
            // horizon and drop the flows that finish there.
            solver.solve();
            let next_done = active.next_done(solver.rates(), now);
            let horizon = next_done.min(next_wake);
            assert!(horizon.is_finite(), "simulation cannot progress (all rates zero)");
            gone.clear();
            active.advance(horizon - now, &mut gone);
            for &i in &gone {
                let f = active.flow[i];
                let r = &mut rt[f];
                active.store(i, r);
                r.remaining = 0.0;
                r.phase = Phase::Done { at_us: horizon + self.flows[f].latency_us };
                solver.deactivate(f);
            }
            active.remove(&gone);
            now = horizon;
        }
        // Safety net: flows left waiting on a never-healing path set (all
        // repair times non-finite and no deadline) are stranded where the
        // simulation stopped making progress.
        for r in &mut rt {
            if r.is_live() {
                r.phase = Phase::Stranded { at_us: now };
            }
        }
        (rt, solver.work)
    }

    /// Resume the due waiting flow `f` under the reroute policy: it goes
    /// active, waits for a repair, or burns a retry on a dead pick.
    fn resume(&self, cfg: &ChaosConfig, f: FlowId, r: &mut Rt, now: f64, link_load: &mut [u32]) {
        let Phase::Waiting { pick, .. } = r.phase else { return };
        let paths = &self.flows[f].paths;
        match cfg.policy {
            ReroutePolicy::Stall => {
                // Never re-picks: wait out the repair on the same path.
                let idx = r.current;
                if cfg.schedule.path_healthy_at(&paths[idx], now) {
                    r.activate(idx);
                } else {
                    let heal = cfg.schedule.next_healthy_at(&paths[idx], now);
                    r.phase = Phase::Waiting { until: heal, pick: false };
                }
            }
            ReroutePolicy::StaticRehash { seed } => {
                let idx = if pick {
                    (rehash(f as u64, u64::from(r.retries), seed) % paths.len() as u64) as usize
                } else {
                    r.current
                };
                if cfg.schedule.path_healthy_at(&paths[idx], now) {
                    r.activate(idx);
                } else {
                    // Oblivious pick landed on a dead link: the detection
                    // timeout burns a retry before the next hash.
                    r.current = idx;
                    r.fail_attempt(&cfg.retransmit, now);
                }
            }
            ReroutePolicy::Adaptive => {
                // Least-loaded healthy path (max link load on the path, ties
                // to the lowest index).
                let mut best: Option<(u32, usize)> = None;
                for (idx, path) in paths.iter().enumerate() {
                    if !cfg.schedule.path_healthy_at(path, now) {
                        continue;
                    }
                    let score = path.iter().map(|&l| link_load[l]).max().unwrap_or(0);
                    if best.is_none_or(|(bs, _)| score < bs) {
                        best = Some((score, idx));
                    }
                }
                if let Some((_, idx)) = best {
                    r.activate(idx);
                    for &l in &paths[idx] {
                        link_load[l] += 1;
                    }
                } else {
                    // Whole path set dark: wait for the earliest heal.
                    let heal = paths
                        .iter()
                        .map(|p| cfg.schedule.next_healthy_at(p, now))
                        .fold(f64::INFINITY, f64::min);
                    r.phase = Phase::Waiting { until: heal, pick: true };
                }
            }
        }
    }

    /// Assemble the [`ChaosReport`] from the loop's final run state, and
    /// record the run's telemetry when `tel` is given.
    pub(crate) fn report(
        &self,
        cfg: &ChaosConfig,
        rt: &[Rt],
        tel: Option<(&mut Recorder, &str)>,
    ) -> ChaosReport {
        let flows: Vec<ChaosFlowOutcome> = rt
            .iter()
            .zip(&self.flows)
            .map(|(r, spec)| ChaosFlowOutcome {
                finish_us: r.finish_us(),
                stranded_us: r.stranded_us(),
                delivered_bytes: spec.bytes - r.remaining,
                lost_bytes: r.lost,
                sent_bytes: r.sent,
                retries: r.retries,
                reroutes: r.reroutes,
                final_path: r.current,
            })
            .collect();
        let makespan_us = flows.iter().filter_map(|f| f.finish_us).fold(0.0, f64::max);
        let report = ChaosReport {
            completed: flows.iter().filter(|f| f.finish_us.is_some()).count(),
            stranded: flows.iter().filter(|f| f.stranded_us.is_some()).count(),
            retransmitted_bytes: flows.iter().map(|f| f.lost_bytes).sum(),
            total_reroutes: flows.iter().map(|f| f.reroutes).sum(),
            total_retries: flows.iter().map(|f| u64::from(f.retries)).sum(),
            link_failures: cfg.schedule.flaps.len(),
            link_repairs: cfg.schedule.flaps.iter().filter(|f| f.up_at_us().is_finite()).count(),
            flows,
            makespan_us,
        };
        if let Some((rec, scope)) = tel {
            let pid = rec.process(&format!("{scope}/chaos"));
            let links_tid = rec.thread(pid, "links");
            for flap in &cfg.schedule.flaps {
                rec.instant(
                    pid,
                    links_tid,
                    "link",
                    &format!("fail link{}", flap.link),
                    flap.down_at_us,
                );
                if flap.up_at_us().is_finite() {
                    rec.instant(
                        pid,
                        links_tid,
                        "link",
                        &format!("heal link{}", flap.link),
                        flap.up_at_us(),
                    );
                }
            }
            // Concurrently-down link count over time, as a series for the
            // changepoint detector. Heals sort before fails at equal
            // timestamps so an instantaneous swap never overcounts.
            let mut edges: Vec<(f64, i32)> = Vec::new();
            for flap in &cfg.schedule.flaps {
                edges.push((flap.down_at_us, 1));
                if flap.up_at_us().is_finite() {
                    edges.push((flap.up_at_us(), -1));
                }
            }
            edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let series_name = format!("{scope}.links_down");
            let mut down = 0i32;
            for (us, delta) in edges {
                down += delta;
                // Series timestamps are ms; the trace above stays in µs.
                rec.series(&series_name, us_to_ms(us), f64::from(down));
            }
            for (f, out) in report.flows.iter().enumerate() {
                let spec = &self.flows[f];
                let end = out.finish_us.or(out.stranded_us).unwrap_or(report.makespan_us);
                let tid = rec.thread(pid, &format!("flow{f}"));
                let cat = if out.finish_us.is_some() { "flow" } else { "stranded" };
                rec.span(pid, tid, cat, &format!("flow{f}"), spec.start_us, end);
                if let Some(done) = out.finish_us {
                    rec.observe(&format!("{scope}.chaos.flow_us"), done - spec.start_us);
                }
            }
            rec.counter_add(&format!("{scope}.chaos.flows"), report.flows.len() as u64);
            rec.counter_add(&format!("{scope}.chaos.completed"), report.completed as u64);
            rec.counter_add(&format!("{scope}.chaos.stranded"), report.stranded as u64);
            rec.counter_add(&format!("{scope}.chaos.reroutes"), report.total_reroutes);
            rec.counter_add(&format!("{scope}.chaos.retries"), report.total_retries);
            rec.counter_add(
                &format!("{scope}.chaos.retransmitted_bytes"),
                report.retransmitted_bytes.round() as u64,
            );
            rec.counter_add(&format!("{scope}.chaos.link_failures"), report.link_failures as u64);
        }
        report
    }
}

/// The `add_flow` time checks: a NaN or infinite start would leave a flow
/// neither pending nor active, and a NaN latency would poison its finish
/// time.
fn check_times(start_us: f64, latency_us: f64) {
    assert!(start_us.is_finite() && start_us >= 0.0, "start_us must be finite and non-negative");
    assert!(
        latency_us.is_finite() && latency_us >= 0.0,
        "latency_us must be finite and non-negative"
    );
}

/// SplitMix64-style avalanche over (flow, attempt, seed) — the oblivious
/// `StaticRehash` path pick. Deterministic and attempt-varying, but blind
/// to link health.
#[must_use]
fn rehash(flow: u64, attempt: u64, seed: u64) -> u64 {
    let mut x = seed
        ^ flow.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Unit-mean exponential sample (inverse-CDF), mirroring
/// `dsv3-faults::plan`'s arrival sampling.
fn exponential(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -(1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(caps: &[f64]) -> Vec<Link> {
        caps.iter().map(|&c| Link { capacity_gbps: c }).collect()
    }

    #[test]
    fn flap_boundaries_down_inclusive_up_exclusive() {
        let f = LinkFlap { link: 0, down_at_us: 10.0, repair_us: 5.0 };
        assert!(!f.is_down_at(9.999));
        assert!(f.is_down_at(10.0));
        assert!(f.is_down_at(14.999));
        assert!(!f.is_down_at(15.0));
    }

    #[test]
    fn schedule_dedupes_overlapping_flaps_of_same_link() {
        let s = LinkSchedule {
            flaps: vec![
                LinkFlap { link: 3, down_at_us: 0.0, repair_us: 10.0 },
                LinkFlap { link: 3, down_at_us: 5.0, repair_us: 10.0 },
            ],
        };
        assert!(s.is_down(3, 7.0));
        assert!(s.is_down(3, 12.0)); // second flap still holds it
        assert!(!s.is_down(3, 15.0));
        assert_eq!(s.change_points_us(), vec![0.0, 5.0, 10.0, 15.0]);
    }

    #[test]
    fn next_healthy_at_scans_change_points() {
        let s = LinkSchedule {
            flaps: vec![
                LinkFlap { link: 0, down_at_us: 10.0, repair_us: 10.0 },
                LinkFlap { link: 1, down_at_us: 15.0, repair_us: 10.0 },
            ],
        };
        assert_eq!(s.next_healthy_at(&[0, 1], 0.0), 0.0);
        assert_eq!(s.next_healthy_at(&[0], 12.0), 20.0);
        // Path crossing both: link 0 heals at 20 but link 1 is down until 25.
        assert_eq!(s.next_healthy_at(&[0, 1], 12.0), 25.0);
        // Never-healing flap: INFINITY.
        let s2 = LinkSchedule {
            flaps: vec![LinkFlap { link: 0, down_at_us: 0.0, repair_us: f64::INFINITY }],
        };
        assert_eq!(s2.next_healthy_at(&[0], 1.0), f64::INFINITY);
    }

    #[test]
    fn backoff_caps() {
        let r = RetransmitConfig {
            backoff_base_us: 10.0,
            backoff_factor: 3.0,
            backoff_max_us: 80.0,
            ..RetransmitConfig::default()
        };
        assert_eq!(r.backoff_delay_us(0), 0.0);
        assert_eq!(r.backoff_delay_us(1), 10.0);
        assert_eq!(r.backoff_delay_us(2), 30.0);
        assert_eq!(r.backoff_delay_us(3), 80.0); // 90 capped
        assert_eq!(r.backoff_delay_us(10), 80.0);
    }

    #[test]
    fn generate_is_deterministic_and_disableable() {
        let cfg = LinkChaosConfig {
            links: 16,
            mtbf_us: 100.0,
            repair_us: 50.0,
            horizon_us: 1000.0,
            seed: 7,
        };
        let a = LinkSchedule::generate(&cfg);
        let b = LinkSchedule::generate(&cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "mtbf 100 over 1000 µs should fire");
        assert!(a.flaps.iter().all(|f| f.link < 16 && f.down_at_us <= 1000.0));
        let off = LinkSchedule::generate(&LinkChaosConfig { mtbf_us: f64::INFINITY, ..cfg });
        assert!(off.is_empty());
    }

    #[test]
    fn fail_fraction_picks_requested_count() {
        let candidates: Vec<LinkId> = (0..40).collect();
        let s = LinkSchedule::fail_fraction(&candidates, 0.25, 3, 5.0, 100.0);
        assert_eq!(s.flaps.len(), 10);
        let again = LinkSchedule::fail_fraction(&candidates, 0.25, 3, 5.0, 100.0);
        assert_eq!(s, again);
        assert!(LinkSchedule::fail_fraction(&candidates, 0.0, 3, 5.0, 100.0).is_empty());
    }

    #[test]
    fn stall_waits_out_repair_and_resends_lost_window() {
        // 100 GB/s link; 2 MB flow would finish at 20 µs. Link dies at 10
        // (1 MB delivered, 0.5 MB window lost), heals at 30.
        let mut sim = ChaosSim::new(links(&[100.0]));
        sim.add_flow(vec![vec![0]], 2e6, 0.0, 0.0);
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[0], 10.0, 20.0),
            policy: ReroutePolicy::Stall,
            retransmit: RetransmitConfig {
                detect_timeout_us: 5.0,
                backoff_base_us: 10.0,
                inflight_window_bytes: 0.5e6,
                ..RetransmitConfig::default()
            },
            deadline_us: None,
        };
        let r = sim.run(&cfg);
        // Timer expires at 10 + 5 + 10 = 25, still down -> waits to 30;
        // 1.5 MB left at 100 GB/s = 15 µs -> finish 45.
        let out = &r.flows[0];
        assert_eq!(out.finish_us, Some(45.0));
        assert_eq!(out.lost_bytes, 0.5e6);
        assert_eq!(out.retries, 1);
        assert_eq!(out.reroutes, 0, "stall never changes path");
        assert!((out.sent_bytes - 2.5e6).abs() < 1.0);
        assert!(r.bytes_balanced(&[2e6], 1e-6));
    }

    #[test]
    fn adaptive_fails_over_to_healthy_path() {
        // Path 0 dies at 10 and never heals; path 1 stays up.
        let mut sim = ChaosSim::new(links(&[100.0, 100.0]));
        sim.add_flow(vec![vec![0], vec![1]], 2e6, 0.0, 0.0);
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[0], 10.0, 1e12),
            policy: ReroutePolicy::Adaptive,
            retransmit: RetransmitConfig {
                detect_timeout_us: 5.0,
                backoff_base_us: 5.0,
                inflight_window_bytes: 0.25e6,
                ..RetransmitConfig::default()
            },
            deadline_us: None,
        };
        let r = sim.run(&cfg);
        let out = &r.flows[0];
        // Resumes on path 1 at 10 + 5 + 5 = 20 with 1 MB + 0.25 MB lost
        // window to resend: 12.5 µs -> 32.5.
        assert_eq!(out.finish_us, Some(32.5));
        assert_eq!(out.reroutes, 1);
        assert_eq!(out.final_path, 1);
        assert_eq!(r.completed, 1);
        assert!(r.bytes_balanced(&[2e6], 1e-6));
    }

    #[test]
    fn static_rehash_can_strand_on_dead_links() {
        // Every candidate path is dead for the whole run: the oblivious
        // rehash burns the retry budget and strands the flow.
        let mut sim = ChaosSim::new(links(&[50.0, 50.0]));
        sim.add_flow(vec![vec![0], vec![1]], 1e6, 0.0, 0.0);
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[0, 1], 0.0, 1e12),
            policy: ReroutePolicy::StaticRehash { seed: 1 },
            retransmit: RetransmitConfig { max_retries: 2, ..RetransmitConfig::default() },
            deadline_us: None,
        };
        let r = sim.run(&cfg);
        assert_eq!(r.completed, 0);
        assert_eq!(r.stranded, 1);
        assert_eq!(r.flows[0].retries, 3, "budget of 2 retries + stranding pick");
        assert_eq!(r.flows[0].delivered_bytes, 0.0);
    }

    #[test]
    fn stall_on_long_outage_hits_deadline() {
        let mut sim = ChaosSim::new(links(&[100.0]));
        sim.add_flow(vec![vec![0]], 2e6, 0.0, 0.0);
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[0], 10.0, 1e9),
            policy: ReroutePolicy::Stall,
            retransmit: RetransmitConfig::default(),
            deadline_us: Some(500.0),
        };
        let r = sim.run(&cfg);
        assert_eq!(r.stranded, 1);
        assert_eq!(r.flows[0].stranded_us, Some(500.0));
        assert!(r.flows[0].delivered_bytes < 2e6);
    }

    #[test]
    fn adaptive_waits_when_all_paths_dark_then_recovers() {
        // Both paths down 5..25; adaptive waits for the earliest heal.
        let mut sim = ChaosSim::new(links(&[100.0, 100.0]));
        sim.add_flow(vec![vec![0], vec![1]], 1e6, 0.0, 0.0);
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[0, 1], 5.0, 20.0),
            policy: ReroutePolicy::Adaptive,
            retransmit: RetransmitConfig {
                detect_timeout_us: 2.0,
                backoff_base_us: 1.0,
                inflight_window_bytes: 1e9,
                ..RetransmitConfig::default()
            },
            deadline_us: None,
        };
        let r = sim.run(&cfg);
        assert_eq!(r.completed, 1);
        // All 0.5 MB progress lost at 5; timer at 8, dark -> waits to 25;
        // full 1 MB resend takes 10 µs -> 35.
        assert_eq!(r.flows[0].finish_us, Some(35.0));
        assert!(r.bytes_balanced(&[1e6], 1e-6));
    }

    #[test]
    fn zero_capacity_static_link_gets_zero_rate() {
        let sim = {
            let mut s = ChaosSim::new(links(&[0.0, 50.0]));
            s.add_flow(vec![vec![0]], 1e6, 0.0, 0.0);
            s.add_flow(vec![vec![1]], 1e6, 0.0, 0.0);
            s
        };
        // Flow 0 can never progress (static dead link, no failover) — the
        // run strands it via the safety net once flow 1 completes.
        let r = sim.run(&ChaosConfig { deadline_us: Some(100.0), ..ChaosConfig::default() });
        assert_eq!(r.flows[1].finish_us, Some(20.0));
        assert!(r.flows[0].stranded_us.is_some());
    }

    #[test]
    fn traced_disabled_is_strict_noop() {
        let mut sim = ChaosSim::new(links(&[50.0]));
        sim.add_flow(vec![vec![0]], 1e6, 0.0, 0.0);
        let cfg = ChaosConfig::default();
        let plain = sim.run(&cfg);
        let mut rec = Recorder::disabled();
        let traced = sim.run_traced(&mut rec, "net", &cfg);
        assert_eq!(plain, traced);
        assert!(rec.events().is_empty());
        assert!(rec.counters().is_empty());
    }

    #[test]
    fn traced_records_fail_heal_instants_and_counters() {
        let mut sim = ChaosSim::new(links(&[100.0, 100.0]));
        sim.add_flow(vec![vec![0], vec![1]], 2e6, 0.0, 0.0);
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[0], 10.0, 40.0),
            policy: ReroutePolicy::Adaptive,
            retransmit: RetransmitConfig {
                detect_timeout_us: 5.0,
                backoff_base_us: 5.0,
                ..RetransmitConfig::default()
            },
            deadline_us: None,
        };
        let mut rec = Recorder::new();
        let traced = sim.run_traced(&mut rec, "net", &cfg);
        assert_eq!(traced, sim.run(&cfg), "tracing must not perturb the simulation");
        let instants: Vec<_> = rec.events().iter().filter(|e| e.ph == "i").collect();
        assert!(instants.iter().any(|e| e.name == "fail link0"));
        assert!(instants.iter().any(|e| e.name == "heal link0"));
        assert_eq!(rec.counters()["net.chaos.flows"], 1);
        assert_eq!(rec.counters()["net.chaos.reroutes"], 1);
        assert!(rec.counters()["net.chaos.retransmitted_bytes"] > 0);
        assert!(rec.histogram("net.chaos.flow_us").is_some());
    }

    #[test]
    fn conservation_under_repeated_flaps() {
        // A flapping link with generous retry budget: every byte is either
        // delivered or accounted as lost-and-resent.
        let mut sim = ChaosSim::new(links(&[50.0, 50.0]));
        for i in 0..4 {
            sim.add_flow(vec![vec![0], vec![1]], 2e6, f64::from(i) * 7.0, 0.5);
        }
        let cfg = ChaosConfig {
            schedule: LinkSchedule {
                flaps: vec![
                    LinkFlap { link: 0, down_at_us: 10.0, repair_us: 15.0 },
                    LinkFlap { link: 1, down_at_us: 30.0, repair_us: 15.0 },
                    LinkFlap { link: 0, down_at_us: 60.0, repair_us: 10.0 },
                ],
            },
            policy: ReroutePolicy::Adaptive,
            retransmit: RetransmitConfig {
                detect_timeout_us: 3.0,
                backoff_base_us: 2.0,
                max_retries: 10,
                inflight_window_bytes: 0.5e6,
                ..RetransmitConfig::default()
            },
            deadline_us: None,
        };
        let r = sim.run(&cfg);
        assert_eq!(r.completed, 4, "generous budget completes everything");
        assert!(r.bytes_balanced(&[2e6; 4], 1e-6));
        assert!(r.retransmitted_bytes > 0.0, "flaps mid-transfer must cost bytes");
        let rerun = sim.run(&cfg);
        assert_eq!(r, rerun, "chaos runs are deterministic");
    }

    /// Flows interrupted together resume in flow-id order, whatever order
    /// their active slots were in: flow 0's completion moves flow 2 into
    /// the first slot, yet at the joint resume flow 1 picks first and takes
    /// the idle path 0, so both flows change path.
    #[test]
    fn simultaneous_resumes_follow_flow_id_order() {
        let mut sim = ChaosSim::new(links(&[100.0, 100.0]));
        sim.add_flow(vec![vec![0], vec![1]], 1e5, 0.0, 0.0);
        for _ in 0..2 {
            sim.add_flow(vec![vec![0], vec![1]], 2e6, 0.0, 0.0);
        }
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[0, 1], 10.0, 5.0),
            policy: ReroutePolicy::Adaptive,
            retransmit: RetransmitConfig {
                detect_timeout_us: 3.0,
                backoff_base_us: 2.0,
                ..RetransmitConfig::default()
            },
            deadline_us: None,
        };
        let r = sim.run(&cfg);
        assert_eq!(r.completed, 3);
        // Placed at t=0: flow 1 on path 1, flow 2 on path 0; both resume at 15.
        assert_eq!((r.flows[1].final_path, r.flows[2].final_path), (0, 1));
        assert_eq!(r.total_reroutes, 2);
    }

    #[test]
    fn rehash_varies_by_attempt_and_seed() {
        let picks: Vec<u64> = (0..4).map(|a| rehash(3, a, 42) % 8).collect();
        assert!(picks.windows(2).any(|w| w[0] != w[1]), "attempts must vary: {picks:?}");
        assert_ne!(rehash(3, 0, 42), rehash(3, 0, 43));
        assert_ne!(rehash(3, 0, 42), rehash(4, 0, 42));
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn schedule_with_unknown_link_panics() {
        let mut sim = ChaosSim::new(links(&[50.0]));
        sim.add_flow(vec![vec![0]], 1.0, 0.0, 0.0);
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[9], 0.0, 1.0),
            ..ChaosConfig::default()
        };
        let _ = sim.run(&cfg);
    }

    /// A negative backoff cap would make `detect_timeout + backoff` negative
    /// and schedule the retry before the failure.
    #[test]
    #[should_panic(expected = "backoff cap must be non-negative")]
    fn negative_backoff_cap_panics() {
        let mut sim = ChaosSim::new(links(&[50.0, 50.0]));
        sim.add_flow(vec![vec![0], vec![0]], 1e6, 0.0, 0.0);
        let cfg = ChaosConfig {
            schedule: LinkSchedule::fail_links(&[0], 5.0, 1000.0),
            policy: ReroutePolicy::StaticRehash { seed: 1 },
            retransmit: RetransmitConfig { backoff_max_us: -500.0, ..RetransmitConfig::default() },
            deadline_us: None,
        };
        let _ = sim.run(&cfg);
    }

    #[test]
    #[should_panic(expected = "start_us must be finite and non-negative")]
    fn nan_start_panics() {
        ChaosSim::new(links(&[50.0])).add_flow(vec![vec![0]], 1.0, f64::NAN, 0.0);
    }

    #[test]
    #[should_panic(expected = "latency_us must be finite and non-negative")]
    fn negative_latency_panics() {
        ChaosSim::new(links(&[50.0])).add_flow(vec![vec![0]], 1.0, 0.0, -0.5);
    }

    #[test]
    #[should_panic(expected = "at least one candidate path")]
    fn empty_path_set_panics() {
        let mut sim = ChaosSim::new(links(&[50.0]));
        sim.add_flow(Vec::new(), 1.0, 0.0, 0.0);
    }
}
