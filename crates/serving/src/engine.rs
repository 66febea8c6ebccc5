//! Continuous-batching decode engine: a request-level discrete-event
//! simulator composing the repo's analytical substrates.
//!
//! Time advances in decode steps. Each step's duration comes from the EP
//! speed-limit model (`dsv3_inference::tpot`) evaluated at the *current*
//! batch size, so latency degrades as the batch grows exactly as §2.3.2's
//! arithmetic says it must. Admission is gated by the KV-cache manager
//! (`dsv3_inference::kvcache`): requests wait in a FIFO when the cache is
//! full, and mid-flight out-of-memory preempts the youngest request back
//! to the queue. Prefill placement follows the router policy
//! ([`crate::router::RouterPolicy`]), calibrated against
//! `dsv3_inference::disagg`. Optional MTP speculative decoding drains
//! several tokens per request per step with the acceptance-chain
//! statistics of `dsv3_model::mtp` (draft-verification compute is folded
//! into `step_overhead`, matching `mtp::tps_speedup`'s cost model).
//!
//! Faults arrive during a run through a `dsv3_faults::FaultPlan`
//! timeline: replica crashes (in-flight KV lost, requeue-and-re-prefill
//! with exponential backoff, optional hedging), plane flaps (steps run at
//! the degraded speed limit given by `collectives::failures` retention),
//! stragglers, and SDC strikes. The fault path is strictly additive: with
//! an empty plan every fault branch is dead.
//!
//! Overload robustness arrives through an [`OverloadConfig`]: admission
//! control (queue bound, token bucket, deadline predictor), a
//! graceful-degradation ladder, closed-loop clients with timeouts and
//! jittered-backoff retries, and reactive pool autoscaling — see
//! [`crate::overload`] and [`crate::autoscale`]. The overload path is
//! additive the same way: with [`OverloadConfig::disabled`] every branch
//! is dead.
//!
//! [`run_overload_traced`] is the one simulation loop. [`run_overload`]
//! runs it with a disabled recorder, [`run_with_faults`] also with the
//! overload layer disabled, and [`run`] also with an empty fault plan.
//!
//! Everything is driven by seeded RNG and ordered containers, so equal
//! configs produce byte-identical reports.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dsv3_faults::{
    bandwidth_retention, FaultDriver, FaultEvent, FaultKind, FaultPlan, Injectable, RecoveryPolicy,
};
use dsv3_inference::kvcache::{CacheError, KvCacheManager};
use dsv3_inference::SpeedLimitConfig;
use dsv3_model::zoo;
use dsv3_telemetry::Recorder;
use dsv3_units::{ms_to_s, ms_to_us};

use crate::autoscale::{AutoscaleState, AutoscaleStats};
use crate::metrics::Summary;
use crate::overload::{
    ClientConfig, GoodputWindow, LadderState, OverloadConfig, OverloadServingReport, OverloadStats,
    TokenBucket,
};
use crate::router::RouterPolicy;
use crate::workload::{self, ArrivalProcess, LengthDistribution, Request, WorkloadConfig};

/// MTP speculative-decoding parameters (§2.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MtpSpec {
    /// Draft modules chained per step.
    pub modules: usize,
    /// Per-position draft acceptance probability.
    pub acceptance: f64,
    /// Relative per-step cost of running the draft modules (the `1 + x`
    /// denominator of `dsv3_model::mtp::tps_speedup`).
    pub step_overhead: f64,
}

/// Decode-engine parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// EP speed-limit model; `tokens_per_device` is overridden each step
    /// with the live batch size.
    pub speed: SpeedLimitConfig,
    /// KV-cache byte budget of the decode pool.
    pub kv_capacity_bytes: usize,
    /// Cache element width (2 = BF16, 1 = FP8).
    pub kv_bytes_per_elem: usize,
    /// Hard cap on concurrently decoding requests.
    pub max_batch: usize,
    /// Full-pool prefill throughput, tokens per millisecond. The router
    /// policy decides how much of it prefill actually gets.
    pub prefill_tokens_per_ms: f64,
    /// Speculative decoding; `None` = plain autoregressive.
    pub mtp: Option<MtpSpec>,
    /// Safety cap on simulated decode steps (overload runs terminate with
    /// the un-served tail counted against SLO attainment).
    pub max_steps: usize,
}

/// Latency targets a request must meet to count toward goodput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// Time-to-first-token bound, ms.
    pub ttft_ms: f64,
    /// Per-token decode latency bound, ms.
    pub tpot_ms: f64,
}

/// Complete simulator input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSimConfig {
    /// Request stream.
    pub workload: WorkloadConfig,
    /// Decode engine.
    pub engine: EngineConfig,
    /// Prefill placement.
    pub router: RouterPolicy,
    /// Goodput targets.
    pub slo: SloConfig,
}

impl ServingSimConfig {
    /// H800-calibrated baseline: DeepSeek-V3 KV footprint, the §2.3.2
    /// speed limit with a compute floor at the paper's 32-token operating
    /// point, and a 4 GB KV slice so cache pressure is part of the story.
    #[must_use]
    pub fn h800_baseline(arrival: ArrivalProcess, requests: usize, router: RouterPolicy) -> Self {
        let mut speed = SpeedLimitConfig::h800_ib();
        // comp ≈ comm at 32 tokens/device: small batches hit a compute
        // floor instead of scaling comm time all the way to zero.
        speed.compute_us = 120.0;
        Self {
            workload: WorkloadConfig {
                arrival,
                requests,
                prompt: LengthDistribution {
                    mean_tokens: 512.0,
                    cv: 1.0,
                    min_tokens: 16,
                    max_tokens: 4096,
                },
                output: LengthDistribution {
                    mean_tokens: 128.0,
                    cv: 0.5,
                    min_tokens: 8,
                    max_tokens: 1024,
                },
                seed: 20250805,
            },
            engine: EngineConfig {
                speed,
                kv_capacity_bytes: 4_000_000_000,
                kv_bytes_per_elem: 2,
                max_batch: 128,
                prefill_tokens_per_ms: 16.0,
                mtp: None,
                max_steps: 2_000_000,
            },
            router,
            slo: SloConfig { ttft_ms: 2000.0, tpot_ms: 50.0 },
        }
    }
}

/// Simulator output: SLO metrics plus engine health counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests in the workload.
    pub requests: usize,
    /// Requests fully decoded.
    pub completed: usize,
    /// Requests dropped as infeasible (could never fit in the cache).
    pub dropped: usize,
    /// Mid-flight evictions back to the ready queue.
    pub preemptions: usize,
    /// Decode steps executed.
    pub decode_steps: usize,
    /// Simulated wall-clock, ms.
    pub sim_duration_ms: f64,
    /// Time to first token, per completed request.
    pub ttft_ms: Summary,
    /// Per-token decode latency, per completed request with > 1 output.
    pub tpot_ms: Summary,
    /// End-to-end latency, per completed request.
    pub e2e_ms: Summary,
    /// Decode-ready queue depth, sampled each step.
    pub queue_depth: Summary,
    /// KV-cache utilization, sampled each step.
    pub kv_utilization: Summary,
    /// Decoded tokens per second of simulated time.
    pub throughput_tokens_per_s: f64,
    /// Requests per second that met both SLOs.
    pub goodput_rps: f64,
    /// Fraction of all requests that met both SLOs.
    pub slo_attainment: f64,
}

/// Fault-path counters accumulated by [`run_with_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Replica-crash events delivered.
    pub crash_events: usize,
    /// In-flight jobs evicted (KV lost) by crashes.
    pub jobs_lost_to_crashes: usize,
    /// Requeue-and-re-prefill retries scheduled.
    pub retries: usize,
    /// Requests abandoned after exhausting the retry budget.
    pub rejected: usize,
    /// Hedge clones spawned.
    pub hedges_spawned: usize,
    /// Completions won by the hedge clone rather than the original.
    pub hedge_wins: usize,
    /// Plane-flap events delivered.
    pub plane_flap_events: usize,
    /// Decode steps run at degraded bandwidth.
    pub degraded_steps: usize,
    /// Worst bandwidth retention any step ran at (1.0 = never degraded).
    pub min_bandwidth_retention: f64,
    /// Straggler episodes delivered.
    pub straggler_events: usize,
    /// Decode steps gated by a straggler.
    pub straggler_steps: usize,
    /// SDC strikes delivered.
    pub sdc_events: usize,
    /// SDC strikes caught by the checksum audit.
    pub sdc_detected: usize,
    /// Wall clock spent recomputing audited-bad steps, ms.
    pub sdc_recompute_ms: f64,
    /// Completions whose output an undetected SDC corrupted.
    pub corrupted_completions: usize,
    /// Requests still in flight when the run terminated (step cap or an
    /// unrepairable outage).
    pub unfinished: usize,
}

impl Default for FaultStats {
    fn default() -> Self {
        Self {
            crash_events: 0,
            jobs_lost_to_crashes: 0,
            retries: 0,
            rejected: 0,
            hedges_spawned: 0,
            hedge_wins: 0,
            plane_flap_events: 0,
            degraded_steps: 0,
            min_bandwidth_retention: 1.0,
            straggler_events: 0,
            straggler_steps: 0,
            sdc_events: 0,
            sdc_detected: 0,
            sdc_recompute_ms: 0.0,
            corrupted_completions: 0,
            unfinished: 0,
        }
    }
}

/// Output of [`run_with_faults`]: the serving report plus fault counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyServingReport {
    /// The usual serving metrics (identical to [`run`]'s under an empty
    /// plan).
    pub serving: ServingReport,
    /// What the fault layer did.
    pub faults: FaultStats,
}

/// A request flowing through the engine, with its resume state.
#[derive(Debug, Clone)]
struct Job {
    req: Request,
    /// 0 = original, 1 = hedge clone.
    clone_tag: u8,
    /// Client attempt number (0 = first submission). Bumped when a
    /// closed-loop client abandons and resubmits; stale attempts still
    /// in the system are zombies the engine cancels on sight.
    attempt: u32,
    /// KV tokens this job needs on (re-)admission.
    resident_tokens: usize,
    /// Output tokens decoded so far (survives preemption).
    generated: usize,
    /// Absolute time the first output token landed.
    first_token_ms: Option<f64>,
    /// Earliest time the job may be admitted to the decode batch.
    ready_ms: f64,
    /// When this job entered the prefill stage (NaN when its next
    /// admission needs no prefill span, e.g. after a preemption).
    prefill_enter_ms: f64,
    /// When this job last joined the decode batch (NaN before).
    admitted_ms: f64,
}

impl Job {
    fn new(req: Request) -> Self {
        let resident = req.prompt_tokens;
        Self {
            req,
            clone_tag: 0,
            attempt: 0,
            resident_tokens: resident,
            generated: 0,
            first_token_ms: None,
            ready_ms: f64::INFINITY,
            prefill_enter_ms: f64::NAN,
            admitted_ms: f64::NAN,
        }
    }

    /// KV-cache key: clones and retry attempts of one request need
    /// distinct cache entries. Attempt 0 reduces to the historical
    /// `id·2 + clone_tag`, so baseline runs keep their exact BTreeMap
    /// ordering (request ids are far below 2^31 in practice).
    fn cache_id(&self) -> u64 {
        (u64::from(self.attempt) << 32) | (self.req.id * 2 + u64::from(self.clone_tag))
    }

    /// Bookkeeping index of this job's request.
    fn rid(&self) -> usize {
        self.req.id as usize
    }
}

/// Prefill station state, by router policy.
enum Prefill {
    /// Dedicated FIFO station running at a fixed rate.
    Disaggregated { station_free_ms: f64, rate: f64 },
    /// Backlog drained by stolen decode time (or at the full-pool rate
    /// while decode is idle).
    Unified { backlog: VecDeque<(Job, f64)>, rate: f64 },
}

impl Prefill {
    /// How long the prefill work already queued takes to clear.
    fn wait_ms(&self, now_ms: f64) -> f64 {
        match self {
            Prefill::Disaggregated { station_free_ms, .. } => (station_free_ms - now_ms).max(0.0),
            Prefill::Unified { backlog, rate } => backlog.iter().map(|(_, t)| t / *rate).sum(),
        }
    }
}

/// Hand a job (fresh arrival or crash requeue) to the prefill stage.
/// `at_ms` is when it enters the station — the true arrival time for new
/// requests, the retry-release time for requeues — and `tokens` is the
/// context to prefill.
fn enqueue_prefill(
    prefill: &mut Prefill,
    ready: &mut VecDeque<Job>,
    mut job: Job,
    at_ms: f64,
    tokens: f64,
) {
    job.prefill_enter_ms = at_ms;
    match prefill {
        Prefill::Disaggregated { station_free_ms, rate } => {
            let start = at_ms.max(*station_free_ms);
            let done = start + tokens / *rate;
            *station_free_ms = done;
            job.ready_ms = done;
            ready.push_back(job);
        }
        Prefill::Unified { backlog, .. } => {
            backlog.push_back((job, tokens));
        }
    }
}

/// Trace-track label of request `rid` ("req{id}", hedge clones suffixed).
fn req_label(rid: usize, clone_tag: u8) -> String {
    if clone_tag == 1 {
        format!("req{rid}.hedge")
    } else {
        format!("req{rid}")
    }
}

/// Live fault state: which resources are down right now, plus the
/// consequences queued for the engine to apply at the next step boundary.
struct FaultState {
    replicas: usize,
    planes: usize,
    /// Refcounted outage sets (overlapping faults of one resource stack).
    replica_down: BTreeMap<usize, u32>,
    plane_down: BTreeMap<usize, u32>,
    /// Active straggler episodes by event seq; the worst one gates steps.
    stragglers: BTreeMap<usize, f64>,
    /// Crashes since the engine last drained them (replica ids).
    pending_crashes: Vec<usize>,
    /// SDC strikes since the engine last drained them (detected flags).
    pending_sdc: Vec<bool>,
    stats: FaultStats,
}

impl FaultState {
    fn new(plan: &FaultPlan) -> Self {
        Self {
            replicas: plan.replicas,
            planes: plan.planes,
            replica_down: BTreeMap::new(),
            plane_down: BTreeMap::new(),
            stragglers: BTreeMap::new(),
            pending_crashes: Vec::new(),
            pending_sdc: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    fn healthy_replicas(&self) -> usize {
        self.replicas - self.replica_down.len()
    }

    fn slowdown(&self) -> f64 {
        self.stragglers.values().fold(1.0, |a, &b| a.max(b))
    }
}

impl Injectable for FaultState {
    fn inject(&mut self, seq: usize, event: &FaultEvent) {
        match event.kind {
            FaultKind::ReplicaCrash { replica, .. } => {
                *self.replica_down.entry(replica).or_insert(0) += 1;
                self.pending_crashes.push(replica);
                self.stats.crash_events += 1;
            }
            FaultKind::PlaneFlap { plane, .. } => {
                *self.plane_down.entry(plane).or_insert(0) += 1;
                self.stats.plane_flap_events += 1;
            }
            FaultKind::Straggler { slowdown, .. } => {
                self.stragglers.insert(seq, slowdown);
                self.stats.straggler_events += 1;
            }
            FaultKind::Sdc { detected } => {
                self.pending_sdc.push(detected);
                self.stats.sdc_events += 1;
                if detected {
                    self.stats.sdc_detected += 1;
                }
            }
            // Link-granular failures are a flow-simulator concern
            // (`dsv3_netsim::chaos`); the serving engine's network model is
            // plane-granular, so a single cable loss is absorbed by ECMP.
            FaultKind::LinkFail { .. } => {}
        }
    }

    fn heal(&mut self, seq: usize, event: &FaultEvent) {
        match event.kind {
            FaultKind::ReplicaCrash { replica, .. } => {
                if let Some(c) = self.replica_down.get_mut(&replica) {
                    *c -= 1;
                    if *c == 0 {
                        self.replica_down.remove(&replica);
                    }
                }
            }
            FaultKind::PlaneFlap { plane, .. } => {
                if let Some(c) = self.plane_down.get_mut(&plane) {
                    *c -= 1;
                    if *c == 0 {
                        self.plane_down.remove(&plane);
                    }
                }
            }
            FaultKind::Straggler { .. } => {
                self.stragglers.remove(&seq);
            }
            FaultKind::Sdc { .. } | FaultKind::LinkFail { .. } => {}
        }
    }
}

/// Per-request bookkeeping, one row per request id. `live` counts copies
/// (original and hedge clone) anywhere in the system; `done` flips exactly
/// once, when the request completes, drops, or is rejected.
#[derive(Clone, Default)]
struct ReqState {
    /// The request as generated (closed-loop clients only), resubmitted
    /// verbatim on retry so latency charges the client's full wait.
    info: Option<Request>,
    /// The client's current attempt; copies of older ones are zombies.
    attempt: u32,
    retries: u32,
    prev_backoff: f64,
    crash_prev_backoff: f64,
    /// The current attempt has streamed a token: safe from its timeout.
    streaming: bool,
    done: bool,
    live: u8,
    hedged: bool,
    crashes: u32,
    /// An undetected SDC corrupted this request's output.
    corrupted: bool,
    /// TTFT already sampled, by whichever copy streamed first.
    ttft_recorded: bool,
}

/// Insert `item` into a queue kept sorted by release time, after every
/// entry due at the same time: equal times release in insertion order.
fn schedule<T>(queue: &mut Vec<(f64, T)>, at: f64, item: T) {
    let pos = queue.partition_point(|(t, _)| *t <= at);
    queue.insert(pos, (at, item));
}

/// The client timed this copy's attempt out: it is a zombie.
fn zombie(job: &Job, reqs: &[ReqState], clients: Option<&ClientConfig>) -> bool {
    clients.is_some() && job.attempt != reqs[job.rid()].attempt
}

/// Cancel-on-sight check for a copy the engine touches: `cancel` once its
/// request is settled (a sibling finished, or the client gave up),
/// `cancel-zombie` once its client timed this attempt out.
fn stale(job: &Job, reqs: &[ReqState], clients: Option<&ClientConfig>) -> Option<&'static str> {
    if reqs[job.rid()].done {
        Some("cancel")
    } else if zombie(job, reqs, clients) {
        Some("cancel-zombie")
    } else {
        None
    }
}

/// Decode-queue cost of one ready slot: a smoothed step per mean output
/// token, shared across the admission cap (0 before the first step).
fn per_slot_ms(ewma_step_ms: f64, mean_tokens: f64, cap: usize) -> f64 {
    if ewma_step_ms > 0.0 {
        ewma_step_ms * mean_tokens / cap.max(1) as f64
    } else {
        0.0
    }
}

/// The goodput-timeline window `[offered, completed, good]` holding
/// `t_ms`, grown on demand.
fn window(windows: &mut Vec<[usize; 3]>, t_ms: f64, window_ms: f64) -> &mut [usize; 3] {
    let w = (t_ms / window_ms) as usize;
    if windows.len() <= w {
        windows.resize(w + 1, [0; 3]);
    }
    &mut windows[w]
}

/// Telemetry for one run: the recorder, its tracks, and the metric and
/// series names, built once per run. Every method starts with the one
/// `on` check, so a disabled recorder costs a branch per emission site.
struct Sink<'a> {
    rec: &'a mut Recorder,
    on: bool,
    scope: &'a str,
    pid_engine: u64,
    pid_req: u64,
    pid_faults: u64,
    /// Engine track of the overload layer's instants (created only when
    /// the layer is on, as are its samples and `ov_*` totals).
    tid_engine: u64,
    ov_any: bool,
    slo: SloConfig,
    /// Batch size, queue depth, KV occupancy: counter samples and series.
    samples: [String; 3],
    /// Active rung, live decode and prefill pools (overload layer only).
    pools: [String; 3],
    latency: [String; 3],
    offered: String,
    /// TTFT met, TPOT met, both met (and uncorrupted): the SLO series.
    slo_ok: [String; 3],
    replicas: Vec<String>,
    /// Request `rid`'s track tids (original, hedge clone), 0 until first
    /// registered: each label is formatted and looked up once per run.
    req_tids: Vec<[u64; 2]>,
}

impl<'a> Sink<'a> {
    fn new(rec: &'a mut Recorder, scope: &'a str, ov_any: bool, slo: SloConfig) -> Self {
        let on = rec.is_enabled();
        let (pid_engine, pid_req, pid_faults) = if on {
            (
                rec.process(&format!("{scope}/engine")),
                rec.process(&format!("{scope}/requests")),
                rec.process(&format!("{scope}/faults")),
            )
        } else {
            (0, 0, 0)
        };
        let tid_engine = if on && ov_any { rec.thread(pid_engine, "engine") } else { 0 };
        let name = |m: &str| format!("{scope}.{m}");
        Self {
            rec,
            on,
            scope,
            pid_engine,
            pid_req,
            pid_faults,
            tid_engine,
            ov_any,
            slo,
            samples: ["batch_size", "queue_depth", "kv_utilization"].map(name),
            pools: ["rung", "decode_replicas", "prefill_replicas"].map(name),
            latency: ["ttft_ms", "tpot_ms", "e2e_ms"].map(name),
            offered: name("offered"),
            slo_ok: ["slo.ttft_ok", "slo.tpot_ok", "slo.good"].map(name),
            replicas: Vec::new(),
            req_tids: Vec::new(),
        }
    }

    /// The track of request `rid` (`clone_tag` 1: its hedge clone's),
    /// registered on first use.
    fn req_tid(&mut self, rid: usize, clone_tag: u8) -> u64 {
        if self.req_tids.len() <= rid {
            self.req_tids.resize(rid + 1, [0; 2]);
        }
        let slot = &mut self.req_tids[rid][usize::from(clone_tag)];
        if *slot == 0 {
            *slot = self.rec.thread(self.pid_req, &req_label(rid, clone_tag));
        }
        *slot
    }

    /// Instant `name` on request `rid`'s track (`clone_tag` 1: the hedge
    /// clone's).
    #[inline]
    fn mark(&mut self, rid: usize, clone_tag: u8, name: &str, now_ms: f64) {
        if self.on {
            let tid = self.req_tid(rid, clone_tag);
            self.rec.instant(self.pid_req, tid, "request", name, ms_to_us(now_ms));
        }
    }

    /// Close `job`'s decode span (if it was decoding), then mark `name`.
    #[inline]
    fn close_and_mark(&mut self, job: &Job, name: &str, now_ms: f64) {
        if self.on {
            let tid = self.req_tid(job.rid(), job.clone_tag);
            if job.admitted_ms.is_finite() {
                let start = ms_to_us(job.admitted_ms);
                self.rec.span(self.pid_req, tid, "request", "decode", start, ms_to_us(now_ms));
            }
            self.rec.instant(self.pid_req, tid, "request", name, ms_to_us(now_ms));
        }
    }

    /// Instant on the engine track (overload-layer decisions).
    #[inline]
    fn engine(&mut self, cat: &str, name: impl std::fmt::Display, now_ms: f64) {
        if self.on {
            let name = name.to_string();
            self.rec.instant(self.pid_engine, self.tid_engine, cat, &name, ms_to_us(now_ms));
        }
    }

    /// A fresh arrival (client retries re-enter elsewhere), so this series
    /// is the *offered* load the metastability detector compares goodput
    /// against.
    #[inline]
    fn offered(&mut self, at_ms: f64) {
        if self.on {
            self.rec.series(&self.offered, at_ms, 1.0);
        }
    }

    /// `job` joined the batch: its prefill span (if it prefilled on the
    /// way) and its queued span.
    #[inline]
    fn admitted(&mut self, job: &Job, now_ms: f64) {
        if self.on {
            let tid = self.req_tid(job.rid(), job.clone_tag);
            let (ready, now) = (ms_to_us(job.ready_ms), ms_to_us(now_ms));
            if job.prefill_enter_ms.is_finite() {
                let enter = ms_to_us(job.prefill_enter_ms);
                self.rec.span(self.pid_req, tid, "request", "prefill", enter, ready);
            }
            self.rec.span(self.pid_req, tid, "request", "queued", ready, now);
        }
    }

    /// `job` completed: close and mark it, then sample its latencies and
    /// SLO verdicts.
    #[inline]
    fn complete(&mut self, job: &Job, now_ms: f64, ttft: f64, tpot: f64, e2e: f64, good: bool) {
        if self.on {
            self.close_and_mark(job, "complete", now_ms);
            let ok = |pass: bool| if pass { 1.0 } else { 0.0 };
            let [m_ttft, m_tpot, m_e2e] = &self.latency;
            let [s_ttft, s_tpot, s_good] = &self.slo_ok;
            self.rec.observe(m_ttft, ttft);
            self.rec.series(s_ttft, now_ms, ok(ttft <= self.slo.ttft_ms));
            if job.req.output_tokens > 1 {
                self.rec.observe(m_tpot, tpot);
                self.rec.series(s_tpot, now_ms, ok(tpot <= self.slo.tpot_ms));
            }
            self.rec.observe(m_e2e, e2e);
            self.rec.series(s_good, now_ms, ok(good));
        }
    }

    /// Per-step samples: batch, queue depth and KV occupancy; with the
    /// overload layer on, the active rung and (when autoscaling) the live
    /// pool sizes; and the active load of each of `rmap` replicas, using
    /// crash handling's index→replica mapping (for the straggler
    /// detector).
    #[inline]
    fn step(
        &mut self,
        now_ms: f64,
        samples: [f64; 3],
        rung: usize,
        pools: Option<(usize, usize)>,
        active: usize,
        rmap: usize,
    ) {
        if !self.on {
            return;
        }
        let ts = ms_to_us(now_ms);
        let (decode, prefill) = pools.unwrap_or_default();
        let ov = [rung, decode, prefill].map(|v| v as f64);
        let ov_len = if !self.ov_any {
            0
        } else if pools.is_some() {
            3
        } else {
            1
        };
        for (name, v) in
            self.samples.iter().zip(samples).chain(self.pools.iter().zip(ov).take(ov_len))
        {
            self.rec.counter_sample(self.pid_engine, name, ts, v);
            self.rec.series(name, now_ms, v);
        }
        while self.replicas.len() < rmap {
            self.replicas.push(format!("{}.replica{}.active", self.scope, self.replicas.len()));
        }
        for (r, name) in self.replicas.iter().take(rmap).enumerate() {
            let load = active / rmap + usize::from(r < active % rmap);
            self.rec.series(name, now_ms, load as f64);
        }
    }

    /// End-of-run totals: lifecycle counters and headline gauges, plus the
    /// overload layer's counters when it is on.
    fn finish(&mut self, r: &OverloadServingReport, tokens: u64) {
        if !self.on {
            return;
        }
        let (s, f, o) = (&r.serving, &r.faults, &r.overload);
        let shed = o.shed_queue_full
            + o.shed_rate_limited
            + o.shed_deadline
            + o.shed_priority
            + o.shed_context;
        let counters = [
            ("requests", s.requests),
            ("completed", s.completed),
            ("dropped", s.dropped),
            ("preemptions", s.preemptions),
            ("decode_steps", s.decode_steps),
            ("retries", f.retries),
            ("rejected", f.rejected),
            ("hedge_wins", f.hedge_wins),
        ];
        let ov_counters = [
            ("ov_offered_attempts", o.offered_attempts),
            ("ov_shed", shed),
            ("ov_client_timeouts", o.client_timeouts),
            ("ov_client_retries", o.client_retries),
            ("ov_zombies_cancelled", o.zombies_cancelled),
            ("ov_rejected", o.rejected),
            ("ov_rung_transitions", o.rung_transitions),
            ("ov_breaker_ejections", r.autoscale.breaker_ejections),
        ];
        let ov_len = if self.ov_any { ov_counters.len() } else { 0 };
        for (name, v) in counters.into_iter().chain(ov_counters.into_iter().take(ov_len)) {
            self.rec.counter_add(&format!("{}.{name}", self.scope), v as u64);
        }
        self.rec.counter_add(&format!("{}.tokens", self.scope), tokens);
        for (name, v) in [
            ("slo_attainment", s.slo_attainment),
            ("throughput_tokens_per_s", s.throughput_tokens_per_s),
            ("sim_duration_ms", s.sim_duration_ms),
        ] {
            self.rec.gauge_set(&format!("{}.{name}", self.scope), v);
        }
    }
}

/// Run the simulation to completion (or the step cap) and report.
///
/// Equivalent to [`run_with_faults`] with an empty plan — byte-for-byte.
///
/// # Panics
///
/// Same contract as [`run_overload_traced`].
#[must_use]
pub fn run(cfg: &ServingSimConfig) -> ServingReport {
    run_with_faults(cfg, &FaultPlan::healthy(), &RecoveryPolicy::default()).serving
}

/// Run the simulation under a deterministic fault timeline.
///
/// Recovery follows `policy`: a crash evicts the replica's in-flight jobs
/// (their KV is lost), each victim re-prefills its full accumulated
/// context after an exponential-backoff delay, a request is rejected once
/// it has crashed more than `max_retries` times, and (optionally) the
/// first crash of a request spawns a hedge clone — first copy to finish
/// wins, the loser is cancelled wherever it happens to be. Plane flaps
/// re-evaluate the speed limit at the degraded bandwidth retention;
/// stragglers gate steps by their slowdown; detected SDC strikes pay a
/// recompute, undetected ones corrupt the youngest active request's
/// output (completions still count, goodput does not).
///
/// # Panics
///
/// Same contract as [`run_overload_traced`].
#[must_use]
pub fn run_with_faults(
    cfg: &ServingSimConfig,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> FaultyServingReport {
    let r = run_overload(cfg, plan, policy, &OverloadConfig::disabled());
    FaultyServingReport { serving: r.serving, faults: r.faults }
}

/// Run the simulation with the overload-robustness layer active:
/// admission control, the degradation ladder, closed-loop retrying
/// clients, and reactive autoscaling, per `ov` (see [`crate::overload`]).
///
/// With [`OverloadConfig::disabled`] the serving and fault reports are
/// [`run_with_faults`]'s — every overload branch is guarded, the overload
/// layer draws from its own seeded RNG stream, and the disabled path
/// performs no extra float arithmetic on shared state.
///
/// # Panics
///
/// Same contract as [`run_overload_traced`].
#[must_use]
pub fn run_overload(
    cfg: &ServingSimConfig,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    ov: &OverloadConfig,
) -> OverloadServingReport {
    run_overload_traced(cfg, plan, policy, ov, &mut Recorder::disabled(), "")
}

/// The one simulation loop behind every entry point: [`run_overload`]
/// plus telemetry into `rec`. Every request gets a
/// prefill→queued→decode span chain (with preempt/retry/cancel/complete
/// instants) on a `{scope}/requests` track, every delivered fault an
/// instant on `{scope}/faults`, and the engine samples batch size, queue
/// depth, and KV occupancy each decode step on `{scope}/engine`. Latency
/// samples also land in `{scope}.ttft_ms`/`.tpot_ms`/`.e2e_ms`
/// histograms, and lifecycle counts in `{scope}.*` counters. With the
/// overload layer on, every shed/timeout/retry/give-up is an instant on
/// the request track, every rung transition and scale decision one on the
/// engine track, and the active rung and live pool sizes are sampled each
/// step. Timestamps are simulation milliseconds scaled to trace
/// microseconds. A disabled recorder leaves the report byte-identical —
/// enforced by test.
///
/// # Panics
///
/// Panics on degenerate configs: a zero batch cap, a non-positive
/// prefill rate, an MTP acceptance outside `[0, 1]` or a negative (or
/// NaN) MTP step overhead, or a disaggregated prefill fraction outside
/// `(0, 1)`. Also panics on an invalid `plan` (see
/// [`FaultPlan::validate`]) and on an autoscale config whose
/// `decode_base` disagrees with `plan.replicas` (the crash timeline would
/// address a pool that does not exist).
// lint:entry — the serving engine step loop (overload superset: admission,
// ladder, autoscale, retries, hedging all run under this entry).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_overload_traced(
    cfg: &ServingSimConfig,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    ov: &OverloadConfig,
    rec: &mut Recorder,
    scope: &str,
) -> OverloadServingReport {
    assert!(cfg.engine.max_batch > 0, "batch cap must be positive");
    assert!(cfg.engine.prefill_tokens_per_ms > 0.0, "prefill rate must be positive");
    if let Some(mtp) = &cfg.engine.mtp {
        assert!((0.0..=1.0).contains(&mtp.acceptance), "MTP acceptance must lie in [0, 1]");
        assert!(mtp.step_overhead >= 0.0, "MTP step overhead must be non-negative");
    }

    let total_requests = cfg.workload.requests;
    let mut arrivals = workload::generate(&cfg.workload).into_iter().peekable();
    let model = zoo::deepseek_v3();
    let mut kv =
        KvCacheManager::new(&model, cfg.engine.kv_bytes_per_elem, cfg.engine.kv_capacity_bytes);
    // Independent stream from the workload's so adding MTP never perturbs
    // the generated requests.
    let mut rng = StdRng::seed_from_u64(cfg.workload.seed ^ 0x6d74_7000);

    let mut driver = FaultDriver::new(plan);
    let mut fstate = FaultState::new(plan);

    // Overload layer: every feature is individually optional, and each
    // `None` below kills its branches dead.
    let adm = ov.admission.as_ref();
    let ladder_cfg = ov.ladder.as_ref();
    let clients = ov.clients.as_ref();
    let as_cfg = ov.autoscale.as_ref();
    let priority_classes = ov.priority_classes.max(1);
    let window_ms = ov.timeline_window_ms;
    let ov_any = !ov.is_disabled();
    if let Some(ac) = as_cfg {
        assert_eq!(
            ac.decode_base, plan.replicas,
            "autoscale decode_base must match the fault plan's replica count"
        );
    }
    let mut ostats = OverloadStats::default();
    let mut ladder = LadderState::new();
    let mut bucket = adm.and_then(|a| a.rate_limit.as_ref()).map(TokenBucket::new);
    let mut ascale = as_cfg.map(AutoscaleState::new);
    // Jitter draws come from their own stream so client backoff never
    // perturbs the MTP RNG.
    let mut jitter_rng = StdRng::seed_from_u64(cfg.workload.seed ^ 0x6f76_6a74);
    let base_prefill_rate = cfg.router.prefill_rate(cfg.engine.prefill_tokens_per_ms);

    let mut reqs = vec![ReqState::default(); total_requests];
    // Client timeouts `(rid, attempt)` and client retries waiting out
    // their backoff, both kept sorted by `schedule`: client retries and
    // fresh arrivals interleave within an iteration, so the push order
    // alone is not quite chronological.
    let mut timeouts: Vec<(f64, (usize, u32))> = Vec::new();
    let mut client_delayed: Vec<(f64, Request)> = Vec::new();

    // Goodput timeline: [offered, completed, good] per window.
    let mut windows: Vec<[usize; 3]> = Vec::new();
    // Smoothed decode-step duration: feeds the deadline predictor and
    // the ladder's pressure signal.
    let mut ewma_step_ms = 0.0f64;
    // The admission cap the previous iteration ran with (the pressure
    // estimate uses it before this iteration's value exists).
    let mut last_cap = cfg.engine.max_batch;

    let mut sink = Sink::new(rec, scope, ov_any, cfg.slo);

    let mut prefill = match cfg.router {
        RouterPolicy::Unified => {
            Prefill::Unified { backlog: VecDeque::new(), rate: base_prefill_rate }
        }
        RouterPolicy::Disaggregated { .. } => {
            Prefill::Disaggregated { station_free_ms: 0.0, rate: base_prefill_rate }
        }
    };
    let decode_slowdown = cfg.router.decode_slowdown();

    let mut ready: VecDeque<Job> = VecDeque::new();
    let mut active: Vec<Job> = Vec::new();
    // Crash victims waiting out their backoff, kept sorted by `schedule`
    // so releases are deterministic.
    let mut delayed: Vec<(f64, Job)> = Vec::new();
    let mut clock_ms = 0.0f64;

    let mut completed = 0usize;
    let mut dropped = 0usize;
    let mut preemptions = 0usize;
    let mut steps = 0usize;
    let mut idle_jumps = 0usize;
    let mut good = 0usize;
    let mut tokens_emitted = 0u64;
    let mut ttft_samples = Vec::new();
    let mut tpot_samples = Vec::new();
    let mut e2e_samples = Vec::new();
    let mut qdepth_samples = Vec::new();
    let mut kvutil_samples = Vec::new();

    // Schedule a client retry for a shed/timed-out attempt, or settle the
    // request as rejected once the retry budget is spent. A macro (not a
    // closure) because it mutably borrows half the loop state.
    macro_rules! client_retry_or_reject {
        ($cl:expr, $rid:expr, $req:expr, $now:expr) => {{
            let r = &mut reqs[$rid];
            if r.retries >= $cl.retry_budget {
                if !r.done {
                    r.done = true;
                    ostats.rejected += 1;
                    sink.mark($rid, 0, "give-up", $now);
                }
            } else {
                r.retries += 1;
                r.prev_backoff =
                    $cl.backoff.delay_ms_jittered(r.retries, r.prev_backoff, &mut jitter_rng);
                ostats.client_retries += 1;
                schedule(&mut client_delayed, $now + r.prev_backoff, $req);
            }
        }};
    }

    // Offer one submission attempt (fresh arrival or client retry) to the
    // admission gate; on admit it enters prefill, on shed the client
    // retries or the request is settled as rejected. With every overload
    // feature off this reduces exactly to a direct enqueue.
    macro_rules! submit {
        ($req:expr, $attempt:expr, $at:expr) => {{
            let req: Request = $req;
            let attempt: u32 = $attempt;
            let at: f64 = $at;
            let rid = req.id as usize;
            ostats.offered_attempts += usize::from(ov_any);
            let mut shed: Option<&'static str> = None;
            if let Some(rung) = ladder_cfg.and_then(|lc| ladder.active(lc)) {
                let prio = (req.id % u64::from(priority_classes)) as u8;
                if prio < rung.shed_below_priority {
                    ostats.shed_priority += 1;
                    shed = Some("shed-priority");
                } else if rung.context_cap_tokens > 0 && req.prompt_tokens > rung.context_cap_tokens
                {
                    ostats.shed_context += 1;
                    shed = Some("shed-context");
                }
            }
            if shed.is_none() {
                if let Some(a) = adm {
                    let queued = ready.len()
                        + match &prefill {
                            Prefill::Unified { backlog, .. } => backlog.len(),
                            Prefill::Disaggregated { .. } => 0,
                        };
                    let live_decode = ascale.as_ref().map_or(fstate.replicas, |s| s.decode_live);
                    if a.queue_cap > 0 && queued >= a.queue_cap {
                        ostats.shed_queue_full += 1;
                        shed = Some("shed-queue-full");
                    } else if let (Some(rl), Some(b)) = (a.rate_limit.as_ref(), bucket.as_mut()) {
                        if !b.try_take(rl, live_decode, at) {
                            ostats.shed_rate_limited += 1;
                            shed = Some("shed-rate-limit");
                        }
                    }
                    if shed.is_none() && a.deadline_headroom > 0.0 {
                        // Predicted TTFT = prefill completion estimate plus
                        // the decode queue ahead.
                        let prompt = req.prompt_tokens as f64;
                        let prefill_est = match &prefill {
                            Prefill::Disaggregated { station_free_ms, rate } => {
                                station_free_ms.max(at) + prompt / *rate - at
                            }
                            Prefill::Unified { backlog, rate } => {
                                (backlog.iter().map(|(_, t)| *t).sum::<f64>() + prompt) / *rate
                            }
                        };
                        let per_slot =
                            per_slot_ms(ewma_step_ms, cfg.workload.output.mean_tokens, last_cap);
                        let predicted = prefill_est + ready.len() as f64 * per_slot;
                        if predicted > a.deadline_headroom * cfg.slo.ttft_ms {
                            ostats.shed_deadline += 1;
                            shed = Some("shed-deadline");
                        }
                    }
                }
            }
            match shed {
                None => {
                    ostats.admitted_attempts += usize::from(ov_any);
                    reqs[rid].live += 1;
                    if let Some(cl) = clients {
                        schedule(&mut timeouts, at + cl.timeout_ms, (rid, attempt));
                        reqs[rid].streaming = false;
                    }
                    let mut job = Job::new(req);
                    job.attempt = attempt;
                    let tokens = job.req.prompt_tokens as f64;
                    enqueue_prefill(&mut prefill, &mut ready, job, at, tokens);
                }
                Some(label) => {
                    sink.mark(rid, 0, label, clock_ms);
                    if let Some(cl) = clients {
                        client_retry_or_reject!(cl, rid, req, clock_ms);
                    } else if !reqs[rid].done {
                        reqs[rid].done = true;
                        ostats.rejected += 1;
                    }
                }
            }
        }};
    }

    while completed + dropped + fstate.stats.rejected + ostats.rejected < total_requests
        && steps < cfg.engine.max_steps
    {
        // Closed-loop clients: fire timeouts that have come due. The
        // abandoned attempt becomes a zombie (cancelled wherever the
        // engine next touches it); the client retries after jittered
        // backoff or gives up for good.
        if let Some(cl) = clients {
            while timeouts.first().is_some_and(|&(d, _)| d <= clock_ms) {
                let (_, (rid, att)) = timeouts.remove(0);
                let r = &mut reqs[rid];
                if r.done || att != r.attempt || r.streaming {
                    continue; // settled, superseded, or already streaming
                }
                ostats.client_timeouts += 1;
                r.attempt += 1; // invalidate the in-flight attempt
                sink.mark(rid, 0, "client-timeout", clock_ms);
                let Some(req) = r.info.clone() else { continue };
                client_retry_or_reject!(cl, rid, req, clock_ms);
            }
        }

        // Deliver fault events due by now, then apply crash consequences:
        // every job on a crashed replica (position i runs on replica
        // i mod R) loses its KV and is requeued, rejected, or hedged.
        driver.poll_traced(clock_ms, &mut fstate, sink.rec, sink.pid_faults, scope);
        for replica in std::mem::take(&mut fstate.pending_crashes) {
            if let (Some(ac), Some(ast)) = (as_cfg, ascale.as_mut()) {
                if ast.on_crash(ac, replica, clock_ms) {
                    sink.engine("autoscale", "breaker-eject", clock_ms);
                }
            }
            let rmap = ascale.as_ref().map_or(fstate.replicas, |s| s.decode_live.max(1));
            let mut i = active.len();
            while i > 0 {
                i -= 1;
                if i % rmap != replica {
                    continue;
                }
                let mut victim = active.remove(i);
                // lint:allow(P1) — every active job was admitted into the cache; swallowing a release failure here would silently corrupt KV accounting
                let held = kv.release(victim.cache_id()).expect("active jobs hold cache");
                victim.resident_tokens = held;
                let id = victim.rid();
                if zombie(&victim, &reqs, clients) {
                    // The client already timed this attempt out: the crash
                    // just beat the engine to collecting the zombie. Its
                    // decode span is left open (a trace quirk the digests
                    // pin).
                    reqs[id].live -= 1;
                    ostats.zombies_cancelled += 1;
                    sink.mark(id, victim.clone_tag, "cancel-zombie", clock_ms);
                    continue;
                }
                let req = victim.req.clone();
                fstate.stats.jobs_lost_to_crashes += 1;
                sink.close_and_mark(&victim, "crash-evict", clock_ms);
                victim.admitted_ms = f64::NAN;
                let r = &mut reqs[id];
                r.crashes += 1;
                if r.crashes > policy.max_retries {
                    r.live -= 1;
                    if r.live == 0 && !r.done {
                        r.done = true;
                        fstate.stats.rejected += 1;
                        sink.mark(id, victim.clone_tag, "reject", clock_ms);
                    }
                } else {
                    fstate.stats.retries += 1;
                    // With a jitter-free policy (the default) this is
                    // exactly `delay_ms` and never touches the RNG.
                    // lint:allow(R2) — jitter_rng is a dedicated child stream seeded from the run seed; the crash-retry loop drains it in deterministic event order
                    let d = policy.backoff.delay_ms_jittered(
                        r.crashes,
                        r.crash_prev_backoff,
                        &mut jitter_rng,
                    );
                    r.crash_prev_backoff = d;
                    victim.ready_ms = f64::INFINITY;
                    schedule(&mut delayed, clock_ms + d, victim);
                }
                if policy.hedge && !r.hedged && !r.done {
                    r.hedged = true;
                    r.live += 1;
                    fstate.stats.hedges_spawned += 1;
                    let mut clone = Job::new(req);
                    clone.clone_tag = 1;
                    clone.attempt = r.attempt;
                    sink.mark(id, 1, "hedge-spawn", clock_ms);
                    let tokens = clone.req.prompt_tokens as f64;
                    enqueue_prefill(&mut prefill, &mut ready, clone, clock_ms, tokens);
                }
            }
        }

        // Release crash victims whose backoff has elapsed: they re-enter
        // prefill with their full accumulated context.
        while delayed.first().is_some_and(|(t, _)| *t <= clock_ms) {
            let (_, job) = delayed.remove(0);
            if let Some(why) = stale(&job, &reqs, clients) {
                reqs[job.rid()].live -= 1;
                // A copy whose sibling already settled the request leaves
                // without an instant (a trace quirk the digests pin).
                if why == "cancel-zombie" {
                    ostats.zombies_cancelled += 1;
                    sink.mark(job.rid(), job.clone_tag, why, clock_ms);
                }
                continue;
            }
            sink.mark(job.rid(), job.clone_tag, "retry-release", clock_ms);
            let tokens = job.resident_tokens as f64;
            enqueue_prefill(&mut prefill, &mut ready, job, clock_ms, tokens);
        }

        // Release client retries whose backoff has elapsed: they re-enter
        // through admission like any fresh arrival.
        while client_delayed.first().is_some_and(|&(t, _)| t <= clock_ms) {
            let (t, req) = client_delayed.remove(0);
            let rid = req.id as usize;
            if reqs[rid].done {
                continue; // settled while the client waited
            }
            sink.mark(rid, 0, "client-resubmit", clock_ms);
            submit!(req, reqs[rid].attempt, t);
        }

        // Hand arrived requests to the admission gate.
        while let Some(req) = arrivals.next_if(|r| r.arrival_ms <= clock_ms) {
            let at = req.arrival_ms;
            sink.offered(at);
            if window_ms > 0.0 {
                window(&mut windows, at, window_ms)[0] += 1;
            }
            if clients.is_some() {
                reqs[req.id as usize].info = Some(req.clone());
            }
            submit!(req, 0, at);
        }

        // Reactive autoscaling: land provisions that have come due, read
        // this period's signals, maybe scale. The prefill station's rate
        // tracks the live prefill pool.
        if let (Some(ac), Some(ast)) = (as_cfg, ascale.as_mut()) {
            ast.apply_due(ac, clock_ms);
            let before = ast.stats;
            ast.evaluate(ac, clock_ms, ready.len(), active.len(), prefill.wait_ms(clock_ms));
            let after = ast.stats;
            for (was, is, name) in [
                (before.decode_scale_ups, after.decode_scale_ups, "scale-up decode"),
                (before.decode_scale_downs, after.decode_scale_downs, "scale-down decode"),
                (before.prefill_scale_ups, after.prefill_scale_ups, "scale-up prefill"),
                (before.prefill_scale_downs, after.prefill_scale_downs, "scale-down prefill"),
            ] {
                if is > was {
                    sink.engine("autoscale", name, clock_ms);
                }
            }
            let pf_mult = ast.prefill_live as f64 / ac.prefill_base as f64;
            match &mut prefill {
                Prefill::Disaggregated { rate, .. } | Prefill::Unified { rate, .. } => {
                    *rate = base_prefill_rate * pf_mult;
                }
            }
        }

        // Degradation ladder: pressure is the predicted TTFT for a new
        // arrival — prefill wait plus ready-queue drain — against the
        // TTFT SLO; transitions carry hysteresis (dwell). The prefill
        // term matters in disaggregated mode, where overload piles up
        // station-side and the ready queue stays deceptively short.
        if let Some(lc) = ladder_cfg {
            let per_slot = per_slot_ms(ewma_step_ms, cfg.workload.output.mean_tokens, last_cap);
            let pressure =
                (prefill.wait_ms(clock_ms) + ready.len() as f64 * per_slot) / cfg.slo.ttft_ms;
            if let Some((from, to)) = ladder.update(lc, pressure, clock_ms) {
                ostats.rung_transitions += 1;
                ostats.max_rung = ostats.max_rung.max(to);
                let verb = if to > from { "degrade" } else { "recover" };
                sink.engine("ladder", format_args!("rung-{verb} {from}->{to}"), clock_ms);
            }
        }

        // Admit ready jobs FIFO while the batch and the cache have room;
        // crashed replicas shrink the batch cap proportionally, and an
        // active rung may shrink it further.
        let cap_batch = match ladder_cfg.and_then(|lc| ladder.active(lc)) {
            Some(rung) => {
                let capped = (cfg.engine.max_batch as f64 * rung.batch_cap_factor) as usize;
                capped.max(1)
            }
            None => cfg.engine.max_batch,
        };
        let (healthy, pool_size) = match (as_cfg, ascale.as_ref()) {
            (Some(ac), Some(ast)) => {
                let down = (0..ast.decode_live)
                    .filter(|r| fstate.replica_down.contains_key(r) || ast.is_ejected(*r, clock_ms))
                    .count();
                (ast.decode_live - down, ac.decode_base)
            }
            _ => (fstate.healthy_replicas(), fstate.replicas),
        };
        let effective_max_batch = (cap_batch * healthy).div_ceil(pool_size);
        last_cap = effective_max_batch.max(1);
        while active.len() < effective_max_batch {
            let Some(front) = ready.front() else { break };
            if let Some(why) = stale(front, &reqs, clients) {
                // Cancel on sight rather than let a settled copy or a
                // zombie hold the FIFO head.
                let Some(job) = ready.pop_front() else { break };
                reqs[job.rid()].live -= 1;
                ostats.zombies_cancelled += usize::from(why == "cancel-zombie");
                sink.mark(job.rid(), job.clone_tag, why, clock_ms);
                continue;
            }
            if front.ready_ms > clock_ms {
                break;
            }
            if front.resident_tokens + 1 > kv.capacity_tokens() {
                // Could never hold this context even alone: infeasible.
                let Some(job) = ready.pop_front() else { break };
                let r = &mut reqs[job.rid()];
                r.live -= 1;
                if r.live == 0 {
                    r.done = true;
                    dropped += 1;
                }
                sink.mark(job.rid(), job.clone_tag, "drop-infeasible", clock_ms);
                continue;
            }
            match kv.admit(front.cache_id(), front.resident_tokens) {
                Ok(()) => {
                    let Some(mut job) = ready.pop_front() else { break };
                    sink.admitted(&job, clock_ms);
                    job.prefill_enter_ms = f64::NAN;
                    job.admitted_ms = clock_ms;
                    active.push(job);
                }
                Err(CacheError::OutOfMemory { .. }) => break,
                // lint:allow(P1) — admit can only fail Duplicate/Unknown if the ready queue held two jobs with one cache id, which the id allocator forbids; continuing would double-count KV
                Err(e) => unreachable!("admission invariant: {e}"),
            }
        }

        if active.is_empty() {
            // Idle decode pool: jump to the next event.
            // With every replica down, a ready job is not an event:
            // nothing can admit it until a repair (below) lands.
            let mut next = [
                arrivals.peek().map(|r| r.arrival_ms),
                ready.front().filter(|_| healthy > 0).map(|j| j.ready_ms),
                delayed.first().map(|e| e.0),
                timeouts.first().map(|e| e.0),
                client_delayed.first().map(|e| e.0),
            ]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
            if let Some(ast) = &ascale {
                next = next.min(ast.next_wake_ms());
                // Autoscale wake-ups recur forever; cap idle spins so a
                // permanently dead pool cannot loop the clock endlessly.
                idle_jumps += 1;
                if idle_jumps > 4 * cfg.engine.max_steps + 1_000_000 {
                    break;
                }
            }
            if let Some(t) = driver.next_wake_ms() {
                next = next.min(t);
            }
            if let Prefill::Unified { backlog, rate } = &prefill {
                if let Some((_, remaining)) = backlog.front() {
                    next = next.min(clock_ms + remaining / rate);
                }
            }
            if !next.is_finite() {
                break; // nothing can ever make progress again
            }
            // While decode idles, a unified pool prefills at full rate.
            // The epsilon absorbs float residue so a near-finished head is
            // popped rather than left as an un-drainable sliver that would
            // stall the clock.
            if let Prefill::Unified { backlog, rate } = &mut prefill {
                let mut budget = (next - clock_ms) * *rate;
                let mut t = clock_ms;
                while let Some((_, remaining)) = backlog.front_mut() {
                    if *remaining > budget + 1e-9 {
                        *remaining -= budget;
                        break;
                    }
                    budget = (budget - *remaining).max(0.0);
                    t = (t + *remaining / *rate).min(next);
                    let Some((mut job, _)) = backlog.pop_front() else { break };
                    job.ready_ms = t;
                    ready.push_back(job);
                }
            }
            if ladder.level > 0 {
                ostats.degraded_ms += next - clock_ms;
            }
            clock_ms = next;
            continue;
        }

        // One decode step at the live batch size.
        steps += 1;
        let step_batch = active.len();
        let mut speed = cfg.engine.speed;
        speed.tokens_per_device = step_batch;
        if let (Some(ac), Some(ast)) = (as_cfg, ascale.as_ref()) {
            // A scaled pool spreads the batch across more (or fewer)
            // replicas than the speed model's baseline assumes.
            speed.tokens_per_device =
                (step_batch * ac.decode_base).div_ceil(ast.decode_live.max(1)).max(1);
        }
        if !fstate.plane_down.is_empty() {
            // Flapped planes shrink scale-out bandwidth; the step runs at
            // the degraded speed limit (§5.1.1 retention).
            let retention = bandwidth_retention(fstate.planes, fstate.plane_down.len());
            speed.bandwidth_bytes_per_s *= retention;
            fstate.stats.degraded_steps += 1;
            fstate.stats.min_bandwidth_retention =
                fstate.stats.min_bandwidth_retention.min(retention);
        }
        // The first ladder rung turns MTP off: no speculative draft chain,
        // no per-step draft overhead.
        let mtp_off = ladder_cfg.and_then(|lc| ladder.active(lc)).is_some_and(|r| r.disable_mtp);
        let mtp = cfg.engine.mtp.as_ref().filter(|_| !mtp_off);
        let mut dt = speed.evaluate().tpot_ms * decode_slowdown;
        if let Some(mtp) = mtp {
            dt *= 1.0 + mtp.step_overhead;
        }
        let straggle = fstate.slowdown();
        if straggle > 1.0 {
            dt *= straggle;
            fstate.stats.straggler_steps += 1;
        }
        for detected in std::mem::take(&mut fstate.pending_sdc) {
            if detected {
                // Checksum audit caught it: redo the step (§6.1).
                fstate.stats.sdc_recompute_ms += dt;
                dt += dt;
            } else if let Some(last) = active.last() {
                // Silent: the youngest request's output is now wrong.
                reqs[last.rid()].corrupted = true;
            }
        }
        if let Prefill::Unified { backlog, rate } = &mut prefill {
            // Calibrated to disagg::unified_tpot: half the outstanding
            // prefill backlog competes with this decode step.
            let backlog_ms: f64 = backlog.iter().map(|(_, t)| t / *rate).sum();
            let stolen_ms = 0.5 * backlog_ms;
            dt += stolen_ms;
            let mut budget = stolen_ms * *rate;
            let done_at = clock_ms + dt;
            while let Some((_, remaining)) = backlog.front_mut() {
                if *remaining > budget + 1e-9 {
                    *remaining -= budget;
                    break;
                }
                budget = (budget - *remaining).max(0.0);
                let Some((mut job, _)) = backlog.pop_front() else { break };
                job.ready_ms = done_at;
                ready.push_back(job);
            }
        }
        ewma_step_ms = if ewma_step_ms > 0.0 { 0.9 * ewma_step_ms + 0.1 * dt } else { dt };
        if ladder.level > 0 {
            ostats.degraded_ms += dt;
        }
        clock_ms += dt;

        // Drain tokens into each active request, oldest first.
        let mut idx = 0;
        while idx < active.len() {
            if let Some(why) = stale(&active[idx], &reqs, clients) {
                // A sibling clone finished first, or the client timed this
                // attempt out mid-decode: cancel before it emits another
                // token.
                let job = active.remove(idx);
                let _ = kv.release(job.cache_id());
                reqs[job.rid()].live -= 1;
                ostats.zombies_cancelled += usize::from(why == "cancel-zombie");
                sink.close_and_mark(&job, why, clock_ms);
                continue;
            }
            // The verified token always lands; the draft chain breaks at
            // the first rejection (§2.3.3).
            let want = 1 + mtp
                .map_or(0, |m| (0..m.modules).take_while(|_| rng.gen_bool(m.acceptance)).count());
            let id = active[idx].cache_id();
            let need = (active[idx].req.output_tokens - active[idx].generated).min(want);
            let mut emitted = 0;
            let mut dropped_self = false;
            while emitted < need {
                match kv.append_token(id) {
                    Ok(()) => emitted += 1,
                    Err(CacheError::OutOfMemory { .. }) => {
                        if active.len() - 1 > idx {
                            // Preempt the youngest request back to the
                            // queue head; it re-admits with its full
                            // accumulated context.
                            let Some(mut victim) = active.pop() else { break };
                            // lint:allow(P1) — the victim came out of `active`, so it was admitted; ignoring a release failure would leak its KV bytes forever
                            let held = kv.release(victim.cache_id()).expect("victim was admitted");
                            victim.resident_tokens = held;
                            victim.ready_ms = clock_ms;
                            sink.close_and_mark(&victim, "preempt", clock_ms);
                            victim.admitted_ms = f64::NAN;
                            ready.push_front(victim);
                            preemptions += 1;
                        } else if active.len() == 1 {
                            // Alone and still out of memory: this context
                            // can never finish. Drop it.
                            let job = active.remove(idx);
                            let _ = kv.release(job.cache_id());
                            let r = &mut reqs[job.rid()];
                            r.live -= 1;
                            if r.live == 0 {
                                r.done = true;
                                dropped += 1;
                            }
                            sink.close_and_mark(&job, "drop-oom", clock_ms);
                            dropped_self = true;
                            break;
                        } else {
                            // This request IS the youngest: stall it this
                            // step; an older request will preempt it on
                            // the next pass if pressure persists.
                            break;
                        }
                    }
                    // lint:allow(P1) — append on an active id can only fail with OutOfMemory (handled above); UnknownRequest here means the admission bookkeeping is already corrupt
                    Err(e) => unreachable!("append invariant: {e}"),
                }
            }
            if dropped_self {
                continue; // active[idx] is now the next job
            }
            if emitted > 0 {
                tokens_emitted += emitted as u64;
                let job = &mut active[idx];
                job.generated += emitted;
                let r = &mut reqs[job.rid()];
                if clients.is_some() {
                    // A streaming attempt is safe from its client timeout.
                    r.streaming = true;
                }
                if job.first_token_ms.is_none() {
                    job.first_token_ms = Some(clock_ms);
                    if !r.ttft_recorded {
                        r.ttft_recorded = true;
                        ttft_samples.push(clock_ms - job.req.arrival_ms);
                    }
                }
            }
            if active[idx].generated >= active[idx].req.output_tokens {
                let job = active.remove(idx);
                let _ = kv.release(job.cache_id());
                let r = &mut reqs[job.rid()];
                r.live -= 1;
                r.done = true;
                if job.clone_tag == 1 {
                    fstate.stats.hedge_wins += 1;
                }
                if r.corrupted {
                    fstate.stats.corrupted_completions += 1;
                }
                // lint:allow(P1) — generated >= output_tokens >= 1, and the emit loop sets first_token_ms on the first token; a fallback value would fabricate a TTFT sample
                let first = job.first_token_ms.expect("completed implies first token");
                let ttft = first - job.req.arrival_ms;
                let e2e = clock_ms - job.req.arrival_ms;
                let tpot = if job.req.output_tokens > 1 {
                    let tpot = (clock_ms - first) / (job.req.output_tokens - 1) as f64;
                    tpot_samples.push(tpot);
                    tpot
                } else {
                    0.0
                };
                e2e_samples.push(e2e);
                let is_good = ttft <= cfg.slo.ttft_ms && tpot <= cfg.slo.tpot_ms && !r.corrupted;
                good += usize::from(is_good);
                completed += 1;
                if window_ms > 0.0 {
                    let w = window(&mut windows, clock_ms, window_ms);
                    w[1] += 1;
                    w[2] += usize::from(is_good);
                }
                sink.complete(&job, clock_ms, ttft, tpot, e2e, is_good);
            } else {
                idx += 1;
            }
        }

        let kv_util = kv.utilization();
        qdepth_samples.push(ready.len() as f64);
        kvutil_samples.push(kv_util);
        if sink.on {
            let pools = ascale.as_ref().map(|s| (s.decode_live, s.prefill_live));
            let samples = [step_batch as f64, ready.len() as f64, kv_util];
            let rmap = ascale.as_ref().map_or(fstate.replicas, |s| s.decode_live.max(1));
            sink.step(clock_ms, samples, ladder.level, pools, active.len(), rmap);
        }
    }

    let mut stats = fstate.stats;
    stats.unfinished = total_requests - completed - dropped - stats.rejected - ostats.rejected;
    let sim_s = ms_to_s(clock_ms).max(f64::MIN_POSITIVE);
    let serving = ServingReport {
        requests: total_requests,
        completed,
        dropped,
        preemptions,
        decode_steps: steps,
        sim_duration_ms: clock_ms,
        ttft_ms: Summary::of(&mut ttft_samples),
        tpot_ms: Summary::of(&mut tpot_samples),
        e2e_ms: Summary::of(&mut e2e_samples),
        queue_depth: Summary::of(&mut qdepth_samples),
        kv_utilization: Summary::of(&mut kvutil_samples),
        throughput_tokens_per_s: tokens_emitted as f64 / sim_s,
        goodput_rps: good as f64 / sim_s,
        slo_attainment: good as f64 / total_requests.max(1) as f64,
    };
    let autoscale = match ascale {
        Some(mut ast) => {
            ast.stats.decode_final = ast.decode_live;
            ast.stats.prefill_final = ast.prefill_live;
            ast.stats
        }
        None => AutoscaleStats::default(),
    };
    let timeline = windows
        .iter()
        .enumerate()
        .map(|(i, &[off, comp, g])| GoodputWindow {
            start_ms: i as f64 * window_ms,
            offered: off,
            completed: comp,
            good: g,
            goodput_rps: g as f64 / ms_to_s(window_ms),
        })
        .collect();
    let report =
        OverloadServingReport { serving, faults: stats, overload: ostats, autoscale, timeline };
    sink.finish(&report, tokens_emitted);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscaleConfig;
    use crate::overload::{AdmissionConfig, ClientConfig, LadderConfig};

    fn poisson_cfg(rate: f64, requests: usize, router: RouterPolicy) -> ServingSimConfig {
        ServingSimConfig::h800_baseline(
            ArrivalProcess::Poisson { rate_per_s: rate },
            requests,
            router,
        )
    }

    /// The traced loop with the overload layer off and default recovery.
    fn traced(
        cfg: &ServingSimConfig,
        plan: &FaultPlan,
        rec: &mut Recorder,
        scope: &str,
    ) -> OverloadServingReport {
        let (policy, ov) = (RecoveryPolicy::default(), OverloadConfig::disabled());
        run_overload_traced(cfg, plan, &policy, &ov, rec, scope)
    }

    fn crash(at_ms: f64, replica: usize, repair_ms: f64) -> dsv3_faults::FaultEvent {
        dsv3_faults::FaultEvent {
            at_ms,
            kind: dsv3_faults::FaultKind::ReplicaCrash { replica, repair_ms },
        }
    }

    #[test]
    fn completes_all_requests_below_saturation() {
        let report = run(&poisson_cfg(6.0, 400, RouterPolicy::Unified));
        assert_eq!(report.completed, 400);
        assert_eq!(report.dropped, 0);
        assert!(report.slo_attainment > 0.9, "attainment {}", report.slo_attainment);
        assert!(report.tpot_ms.p50 > 0.0);
        assert!(report.ttft_ms.p50 > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = poisson_cfg(10.0, 300, RouterPolicy::Unified);
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn overload_degrades_tail_latency() {
        let calm = run(&poisson_cfg(4.0, 400, RouterPolicy::Unified));
        let slammed = run(&poisson_cfg(40.0, 400, RouterPolicy::Unified));
        assert!(
            slammed.tpot_ms.p99 > 1.5 * calm.tpot_ms.p99,
            "overload p99 {} vs calm {}",
            slammed.tpot_ms.p99,
            calm.tpot_ms.p99
        );
        assert!(slammed.e2e_ms.p99 > calm.e2e_ms.p99);
        assert!(slammed.slo_attainment < calm.slo_attainment);
    }

    #[test]
    fn kv_pressure_forces_preemption_or_queueing() {
        let mut cfg = poisson_cfg(30.0, 300, RouterPolicy::Unified);
        // Starve the cache: ~5.7k tokens ≈ a handful of requests.
        cfg.engine.kv_capacity_bytes = 400_000_000;
        let report = run(&cfg);
        assert!(report.kv_utilization.max > 0.8, "util {:?}", report.kv_utilization);
        assert!(
            report.preemptions > 0 || report.queue_depth.max > 0.0,
            "cache pressure must surface somewhere"
        );
        assert_eq!(report.completed + report.dropped, 300);
    }

    #[test]
    fn infeasible_requests_are_dropped_not_wedged() {
        let mut cfg = poisson_cfg(10.0, 50, RouterPolicy::Unified);
        cfg.engine.kv_capacity_bytes = 80_000_000; // ~1.1k tokens
        cfg.workload.prompt = LengthDistribution::fixed(2048); // never fits
        let report = run(&cfg);
        assert_eq!(report.dropped, 50);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn mtp_raises_throughput() {
        // Past the saturation knee the engine is service-limited, so the
        // ~1.8x token rate of one MTP module shows up in throughput.
        let base = poisson_cfg(40.0, 400, RouterPolicy::Unified);
        let mut with_mtp = base.clone();
        with_mtp.engine.mtp = Some(MtpSpec { modules: 1, acceptance: 0.85, step_overhead: 0.02 });
        let plain = run(&base);
        let spec = run(&with_mtp);
        assert!(
            spec.throughput_tokens_per_s > 1.3 * plain.throughput_tokens_per_s,
            "mtp {} vs plain {}",
            spec.throughput_tokens_per_s,
            plain.throughput_tokens_per_s
        );
    }

    #[test]
    fn step_cap_terminates_overload() {
        let mut cfg = poisson_cfg(500.0, 2000, RouterPolicy::Unified);
        cfg.engine.max_steps = 200;
        let report = run(&cfg);
        assert!(report.decode_steps <= 200);
        assert!(report.completed < 2000);
    }

    #[test]
    fn empty_plan_is_byte_identical_to_healthy_run() {
        for router in
            [RouterPolicy::Unified, RouterPolicy::Disaggregated { prefill_fraction: 0.25 }]
        {
            let mut cfg = poisson_cfg(12.0, 300, router);
            cfg.engine.mtp = Some(MtpSpec { modules: 1, acceptance: 0.8, step_overhead: 0.03 });
            let healthy = run(&cfg);
            let faulty = run_with_faults(&cfg, &FaultPlan::healthy(), &RecoveryPolicy::hedged());
            assert_eq!(
                serde_json::to_string(&healthy).unwrap(),
                serde_json::to_string(&faulty.serving).unwrap(),
                "empty plan must be a byte-for-byte no-op"
            );
            assert_eq!(faulty.faults.crash_events, 0);
            assert_eq!(faulty.faults.hedges_spawned, 0);
        }
    }

    #[test]
    fn crashes_requeue_and_still_complete_everything() {
        let cfg = poisson_cfg(8.0, 200, RouterPolicy::Unified);
        let plan = FaultPlan {
            replicas: 4,
            planes: 8,
            links: 0,
            events: vec![crash(2_000.0, 1, 3_000.0), crash(9_000.0, 2, 3_000.0)],
        };
        let r = run_with_faults(&cfg, &plan, &RecoveryPolicy::default());
        assert_eq!(r.faults.crash_events, 2);
        assert!(r.faults.jobs_lost_to_crashes > 0, "crashes must hit in-flight work");
        assert_eq!(r.faults.retries, r.faults.jobs_lost_to_crashes);
        assert_eq!(r.faults.rejected, 0);
        assert_eq!(r.faults.unfinished, 0);
        assert_eq!(r.serving.completed + r.serving.dropped, 200, "no request lost");
        let healthy = run(&cfg);
        assert!(
            r.serving.e2e_ms.max >= healthy.e2e_ms.max,
            "re-prefill after a crash cannot shorten the tail"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let cfg = poisson_cfg(10.0, 250, RouterPolicy::Unified);
        let plan = FaultPlan::generate(&dsv3_faults::FaultPlanConfig {
            seed: 11,
            horizon_ms: 30_000.0,
            crash_mtbf_ms: 8_000.0,
            flap_mtbf_ms: 10_000.0,
            straggler_mtbf_ms: 12_000.0,
            sdc_mtbf_ms: 15_000.0,
            ..dsv3_faults::FaultPlanConfig::default()
        });
        let a = run_with_faults(&cfg, &plan, &RecoveryPolicy::hedged());
        let b = run_with_faults(&cfg, &plan, &RecoveryPolicy::hedged());
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn exhausted_retry_budget_rejects() {
        let cfg = poisson_cfg(8.0, 60, RouterPolicy::Unified);
        // One replica, hammered: every active job dies on each crash.
        let events = (1..=40).map(|i| crash(500.0 * i as f64, 0, 100.0)).collect();
        let plan = FaultPlan { replicas: 1, planes: 8, links: 0, events };
        let policy = RecoveryPolicy { max_retries: 1, ..RecoveryPolicy::default() };
        let r = run_with_faults(&cfg, &plan, &policy);
        assert!(r.faults.rejected > 0, "retry budget must bite: {:?}", r.faults);
        assert_eq!(
            r.serving.completed + r.serving.dropped + r.faults.rejected + r.faults.unfinished,
            60,
            "conservation"
        );
    }

    #[test]
    fn hedging_spawns_clones_and_can_win() {
        let cfg = poisson_cfg(8.0, 150, RouterPolicy::Unified);
        let events = (1..=10).map(|i| crash(1_500.0 * i as f64, 0, 2_000.0)).collect();
        let plan = FaultPlan { replicas: 2, planes: 8, links: 0, events };
        let r = run_with_faults(&cfg, &plan, &RecoveryPolicy::hedged());
        assert!(r.faults.hedges_spawned > 0);
        assert!(r.faults.hedge_wins <= r.faults.hedges_spawned);
        assert_eq!(r.faults.unfinished, 0);
        assert_eq!(r.serving.completed + r.serving.dropped + r.faults.rejected, 150);
    }

    #[test]
    fn plane_flaps_slow_decode_steps() {
        let cfg = poisson_cfg(10.0, 200, RouterPolicy::Unified);
        let plan = FaultPlan {
            replicas: 1,
            planes: 8,
            links: 0,
            events: vec![
                FaultEvent {
                    at_ms: 1_000.0,
                    kind: FaultKind::PlaneFlap { plane: 2, repair_ms: 15_000.0 },
                },
                FaultEvent {
                    at_ms: 3_000.0,
                    kind: FaultKind::PlaneFlap { plane: 5, repair_ms: 15_000.0 },
                },
            ],
        };
        let r = run_with_faults(&cfg, &plan, &RecoveryPolicy::default());
        assert_eq!(r.faults.plane_flap_events, 2);
        assert!(r.faults.degraded_steps > 0);
        assert!((r.faults.min_bandwidth_retention - 6.0 / 8.0).abs() < 1e-12);
        let healthy = run(&cfg);
        assert!(
            r.serving.sim_duration_ms > healthy.sim_duration_ms,
            "degraded bandwidth must stretch the run: {} vs {}",
            r.serving.sim_duration_ms,
            healthy.sim_duration_ms
        );
    }

    #[test]
    fn stragglers_and_sdc_are_accounted() {
        let cfg = poisson_cfg(10.0, 150, RouterPolicy::Unified);
        let plan = FaultPlan {
            replicas: 1,
            planes: 8,
            links: 0,
            events: vec![
                FaultEvent {
                    at_ms: 1_000.0,
                    kind: FaultKind::Straggler { slowdown: 2.0, duration_ms: 5_000.0 },
                },
                FaultEvent { at_ms: 2_000.0, kind: FaultKind::Sdc { detected: true } },
                FaultEvent { at_ms: 2_500.0, kind: FaultKind::Sdc { detected: false } },
            ],
        };
        let r = run_with_faults(&cfg, &plan, &RecoveryPolicy::default());
        assert_eq!(r.faults.straggler_events, 1);
        assert!(r.faults.straggler_steps > 0);
        assert_eq!(r.faults.sdc_events, 2);
        assert_eq!(r.faults.sdc_detected, 1);
        assert!(r.faults.sdc_recompute_ms > 0.0);
        assert_eq!(r.faults.corrupted_completions, 1, "the silent strike corrupts one output");
        assert_eq!(r.serving.completed + r.serving.dropped, 150);
    }

    #[test]
    fn traced_run_report_is_identical_to_plain_run() {
        let cfg = poisson_cfg(10.0, 200, RouterPolicy::Unified);
        let plain = run(&cfg);
        let mut rec = Recorder::new();
        let traced = traced(&cfg, &FaultPlan::healthy(), &mut rec, "serving").serving;
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "telemetry must never perturb the simulation"
        );
        assert!(!rec.events().is_empty());
        assert_eq!(rec.counters()["serving.completed"], traced.completed as u64);
        assert_eq!(rec.histogram("serving.ttft_ms").unwrap().count(), traced.completed as u64);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let cfg = poisson_cfg(10.0, 200, RouterPolicy::Disaggregated { prefill_fraction: 0.5 });
        let mut rec = Recorder::disabled();
        let traced = traced(&cfg, &FaultPlan::healthy(), &mut rec, "serving").serving;
        assert_eq!(
            serde_json::to_string(&run(&cfg)).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
        assert!(rec.events().is_empty());
        assert!(rec.counters().is_empty());
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let cfg = poisson_cfg(10.0, 150, RouterPolicy::Unified);
        let plan = FaultPlan {
            replicas: 2,
            planes: 8,
            links: 0,
            events: vec![crash(2_000.0, 0, 3_000.0)],
        };
        let trace = |()| {
            let mut rec = Recorder::new();
            let ov = OverloadConfig::disabled();
            let _ = run_overload_traced(&cfg, &plan, &RecoveryPolicy::hedged(), &ov, &mut rec, "s");
            rec.export_trace().to_json()
        };
        assert_eq!(trace(()), trace(()), "same seed, byte-identical trace");
    }

    #[test]
    fn trace_contains_lifecycle_spans_and_fault_instants() {
        let cfg = poisson_cfg(10.0, 150, RouterPolicy::Unified);
        let plan = FaultPlan {
            replicas: 2,
            planes: 8,
            links: 0,
            events: vec![crash(2_000.0, 0, 3_000.0)],
        };
        let mut rec = Recorder::new();
        let r = traced(&cfg, &plan, &mut rec, "s");
        assert!(r.faults.jobs_lost_to_crashes > 0, "crash must land mid-flight");
        let events = rec.events();
        let spans = |name: &str| events.iter().filter(|e| e.ph == "X" && e.name == name).count();
        assert!(spans("prefill") > 0);
        assert!(spans("queued") > 0);
        assert!(spans("decode") >= r.serving.completed, "every completion closes a decode span");
        let instants = |name: &str| events.iter().filter(|e| e.ph == "i" && e.name == name).count();
        assert_eq!(instants("complete"), r.serving.completed);
        assert!(
            events.iter().any(|e| e.ph == "i" && e.name.starts_with("inject replica-crash")),
            "fault injection must appear in the serving trace"
        );
        assert!(events.iter().any(|e| e.ph == "C" && e.name == "s.batch_size"));
        // Spans never have negative extent and all timestamps are finite.
        assert!(events.iter().all(|e| e.ts.is_finite() && e.dur >= 0.0));
    }

    #[test]
    fn unrepaired_total_outage_terminates_with_unfinished() {
        let cfg = poisson_cfg(10.0, 80, RouterPolicy::Unified);
        let plan = FaultPlan {
            replicas: 1,
            planes: 8,
            links: 0,
            events: vec![crash(1_000.0, 0, f64::INFINITY)],
        };
        let policy = RecoveryPolicy { max_retries: 100, ..RecoveryPolicy::default() };
        let r = run_with_faults(&cfg, &plan, &policy);
        assert!(r.faults.unfinished > 0, "outage strands the tail: {:?}", r.faults);
        assert_eq!(
            r.serving.completed + r.serving.dropped + r.faults.rejected + r.faults.unfinished,
            80
        );
    }

    // ----- overload layer -----

    fn conservation(r: &crate::OverloadServingReport, requests: usize) {
        assert_eq!(
            r.serving.completed
                + r.serving.dropped
                + r.faults.rejected
                + r.overload.rejected
                + r.faults.unfinished,
            requests,
            "conservation: {:?} / {:?}",
            r.faults,
            r.overload
        );
    }

    #[test]
    fn disabled_overload_is_byte_identical_to_run_with_faults() {
        let plan = FaultPlan {
            replicas: 4,
            planes: 8,
            links: 0,
            events: vec![crash(400.0, 1, 600.0), crash(900.0, 2, 500.0)],
        };
        let policy = RecoveryPolicy::default();
        let ov = OverloadConfig::disabled();
        assert!(ov.is_disabled());
        for router in
            [RouterPolicy::Unified, RouterPolicy::Disaggregated { prefill_fraction: 0.25 }]
        {
            let cfg = poisson_cfg(20.0, 250, router);
            let base = run_with_faults(&cfg, &plan, &policy);
            let o = run_overload(&cfg, &plan, &policy, &ov);
            assert_eq!(o.serving, base.serving, "serving must match byte-for-byte");
            assert_eq!(o.faults, base.faults, "fault stats must match byte-for-byte");
            assert_eq!(o.overload, OverloadStats::default());
            assert!(o.timeline.is_empty());
        }
    }

    #[test]
    fn admission_queue_cap_sheds_and_conserves_requests() {
        let cfg = poisson_cfg(60.0, 300, RouterPolicy::Unified);
        let ov = OverloadConfig {
            admission: Some(AdmissionConfig {
                queue_cap: 8,
                deadline_headroom: 0.0,
                rate_limit: None,
            }),
            ..OverloadConfig::disabled()
        };
        let r = run_overload(&cfg, &FaultPlan::healthy(), &RecoveryPolicy::default(), &ov);
        assert!(r.overload.shed_queue_full > 0, "40x overload must overflow an 8-deep queue");
        assert!(r.overload.rejected > 0, "no clients: a shed attempt is a terminal reject");
        assert_eq!(
            r.overload.offered_attempts,
            r.overload.admitted_attempts
                + r.overload.shed_queue_full
                + r.overload.shed_rate_limited
                + r.overload.shed_deadline
                + r.overload.shed_priority
                + r.overload.shed_context
        );
        conservation(&r, 300);
    }

    #[test]
    fn closed_loop_clients_retry_after_shed_and_finish_the_offered_work() {
        let cfg = poisson_cfg(12.0, 200, RouterPolicy::Unified);
        let ov = OverloadConfig {
            admission: Some(AdmissionConfig {
                queue_cap: 16,
                deadline_headroom: 0.0,
                rate_limit: None,
            }),
            clients: Some(ClientConfig {
                timeout_ms: 60_000.0,
                retry_budget: 8,
                ..ClientConfig::default()
            }),
            ..OverloadConfig::disabled()
        };
        let r = run_overload(&cfg, &FaultPlan::healthy(), &RecoveryPolicy::default(), &ov);
        conservation(&r, 200);
        assert_eq!(r.serving.completed, 200, "modest load with retries completes everything");
        assert!(
            r.overload.client_retries > 0 || r.overload.shed_queue_full == 0,
            "any shed must have produced a retry: {:?}",
            r.overload
        );
    }

    #[test]
    fn client_timeouts_cancel_zombies_and_conserve() {
        // Saturating load with impatient clients: attempts time out on the
        // queue, their zombies are collected, and every request still
        // settles exactly once.
        let cfg = poisson_cfg(50.0, 250, RouterPolicy::Unified);
        let ov = OverloadConfig {
            clients: Some(ClientConfig {
                timeout_ms: 1_500.0,
                retry_budget: 2,
                ..ClientConfig::default()
            }),
            ..OverloadConfig::disabled()
        };
        let r = run_overload(&cfg, &FaultPlan::healthy(), &RecoveryPolicy::default(), &ov);
        conservation(&r, 250);
        assert!(r.overload.client_timeouts > 0, "saturation must trip client timeouts");
        assert!(r.overload.zombies_cancelled > 0, "timed-out attempts must be collected");
        assert!(r.overload.rejected > 0, "a 2-retry budget must exhaust under saturation");
    }

    #[test]
    fn ladder_degrades_under_pressure_and_recovers_when_it_drains() {
        let cfg = poisson_cfg(80.0, 400, RouterPolicy::Unified);
        let ov = OverloadConfig {
            ladder: Some(LadderConfig { dwell_ms: 200.0, ..LadderConfig::default() }),
            ..OverloadConfig::disabled()
        };
        let r = run_overload(&cfg, &FaultPlan::healthy(), &RecoveryPolicy::default(), &ov);
        conservation(&r, 400);
        assert!(r.overload.rung_transitions >= 2, "must degrade and later recover");
        assert!(r.overload.max_rung >= 1);
        assert!(r.overload.degraded_ms > 0.0);
        assert_eq!(
            r.overload.rung_transitions % 2,
            0,
            "a finite run that drains ends back at healthy"
        );
    }

    #[test]
    fn autoscale_grows_the_decode_pool_under_sustained_load() {
        let plan = FaultPlan { replicas: 4, planes: 8, links: 0, events: Vec::new() };
        let cfg = poisson_cfg(40.0, 500, RouterPolicy::Unified);
        let ov = OverloadConfig {
            autoscale: Some(AutoscaleConfig {
                provision_lag_ms: 2_000.0,
                cooldown_ms: 1_000.0,
                ..AutoscaleConfig::reactive(4, 2)
            }),
            ..OverloadConfig::disabled()
        };
        let r = run_overload(&cfg, &plan, &RecoveryPolicy::default(), &ov);
        conservation(&r, 500);
        assert!(r.autoscale.decode_scale_ups > 0, "sustained overload must order replicas");
        assert!(r.autoscale.decode_peak > 4, "ordered replicas must land: {:?}", r.autoscale);
        let baseline = run_with_faults(&cfg, &plan, &RecoveryPolicy::default());
        assert!(
            r.serving.sim_duration_ms < baseline.serving.sim_duration_ms,
            "extra capacity must drain the same work sooner: {} vs {}",
            r.serving.sim_duration_ms,
            baseline.serving.sim_duration_ms
        );
    }

    #[test]
    fn autoscale_base_must_match_the_fault_plan() {
        let cfg = poisson_cfg(10.0, 50, RouterPolicy::Unified);
        let ov = OverloadConfig {
            autoscale: Some(AutoscaleConfig::reactive(4, 2)),
            ..OverloadConfig::disabled()
        };
        let err = std::panic::catch_unwind(|| {
            run_overload(&cfg, &FaultPlan::healthy(), &RecoveryPolicy::default(), &ov)
        });
        assert!(err.is_err(), "healthy() has 1 replica, decode_base is 4: must panic");
    }

    #[test]
    #[should_panic(expected = "MTP step overhead must be non-negative")]
    fn negative_mtp_step_overhead_is_rejected() {
        let mut cfg = poisson_cfg(8.0, 50, RouterPolicy::Unified);
        cfg.engine.mtp = Some(MtpSpec { modules: 1, acceptance: 0.8, step_overhead: -3.0 });
        let _ = run(&cfg);
    }

    #[test]
    #[should_panic(expected = "MTP acceptance must lie in [0, 1]")]
    fn mtp_acceptance_above_one_is_rejected() {
        let mut cfg = poisson_cfg(8.0, 50, RouterPolicy::Unified);
        cfg.engine.mtp = Some(MtpSpec { modules: 1, acceptance: 1.5, step_overhead: 0.02 });
        let _ = run(&cfg);
    }

    #[test]
    #[should_panic(expected = "prefill fraction must lie in (0, 1)")]
    fn empty_prefill_pool_is_rejected() {
        let _ = run(&poisson_cfg(8.0, 50, RouterPolicy::Disaggregated { prefill_fraction: 0.0 }));
    }

    #[test]
    fn goodput_timeline_buckets_cover_the_run_and_count_every_arrival() {
        let cfg = poisson_cfg(30.0, 300, RouterPolicy::Unified);
        let ov = OverloadConfig { timeline_window_ms: 1_000.0, ..OverloadConfig::disabled() };
        let r = run_overload(&cfg, &FaultPlan::healthy(), &RecoveryPolicy::default(), &ov);
        assert!(!r.timeline.is_empty());
        assert_eq!(r.timeline.iter().map(|w| w.offered).sum::<usize>(), 300);
        assert_eq!(
            r.timeline.iter().map(|w| w.completed).sum::<usize>(),
            r.serving.completed,
            "every completion lands in exactly one window"
        );
        for (i, w) in r.timeline.iter().enumerate() {
            assert!(w.good <= w.completed);
            assert!((w.start_ms - i as f64 * 1_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn overload_runs_are_deterministic_per_seed() {
        let cfg = poisson_cfg(45.0, 250, RouterPolicy::Disaggregated { prefill_fraction: 0.25 });
        let plan =
            FaultPlan { replicas: 4, planes: 8, links: 0, events: vec![crash(500.0, 0, 800.0)] };
        let ov = OverloadConfig {
            admission: Some(AdmissionConfig::default()),
            ladder: Some(LadderConfig::default()),
            clients: Some(ClientConfig::default()),
            autoscale: Some(AutoscaleConfig::reactive(4, 2)),
            priority_classes: 4,
            timeline_window_ms: 2_000.0,
        };
        let a = run_overload(&cfg, &plan, &RecoveryPolicy::default(), &ov);
        let b = run_overload(&cfg, &plan, &RecoveryPolicy::default(), &ov);
        assert_eq!(a, b, "the full overload stack must stay deterministic");
        conservation(&a, 250);
    }
}
