//! Request-level serving simulator for the DeepSeek-V3 system model.
//!
//! Where `dsv3-inference` answers *per-step* questions analytically (EP
//! speed limits, KV footprints, prefill/decode pool trade-offs), this
//! crate runs whole *requests* through a continuous-batching decode
//! engine and measures what an operator would: TTFT, TPOT, end-to-end
//! latency percentiles, goodput under an SLO, queue depths, and KV-cache
//! utilization.
//!
//! Pipeline: [`workload`] generates seeded request streams (Poisson,
//! bursty, trace replay) → [`router`] places prefill (unified pool vs
//! disaggregated, §2.3.1) → [`engine`] decodes with batch-size-dependent
//! step times (§2.3.2), KV-cache admission/preemption, and optional MTP
//! speculative decoding (§2.3.3) → [`metrics`] summarizes.
//!
//! One loop, [`run_overload_traced`], runs every simulation; the other
//! entry points fix some of its inputs. Faults: [`run_with_faults`]
//! drives the engine under a deterministic `dsv3_faults::FaultPlan`
//! (replica crashes, plane flaps, stragglers, SDC) with recovery policies
//! — [`run`] is the empty plan. Overload: [`run_overload`] layers
//! [`overload`] (admission control, a graceful-degradation ladder,
//! closed-loop retrying clients) and [`autoscale`] (reactive pool scaling
//! with provisioning lag and a crash-loop circuit breaker) on the same
//! loop — retry storms and metastable overload become reproducible, then
//! defeatable; [`run_with_faults`] is [`OverloadConfig::disabled`].
//! Telemetry: [`run_overload_traced`] records into a
//! `dsv3_telemetry::Recorder`; the others pass a disabled one.
//!
//! ```
//! use dsv3_serving::{run, ArrivalProcess, RouterPolicy, ServingSimConfig};
//!
//! let cfg = ServingSimConfig::h800_baseline(
//!     ArrivalProcess::Poisson { rate_per_s: 8.0 },
//!     200,
//!     RouterPolicy::Unified,
//! );
//! let report = run(&cfg);
//! assert_eq!(report.completed + report.dropped, 200);
//! assert!(report.tpot_ms.p99 >= report.tpot_ms.p50);
//! ```

#![forbid(unsafe_code)]

pub mod autoscale;
pub mod engine;
pub mod metrics;
pub mod overload;
pub mod router;
pub mod workload;

pub use autoscale::{AutoscaleConfig, AutoscaleStats, BreakerConfig};
pub use engine::{
    run, run_overload, run_overload_traced, run_with_faults, EngineConfig, FaultStats,
    FaultyServingReport, MtpSpec, ServingReport, ServingSimConfig, SloConfig,
};
pub use metrics::{percentile, Summary};
pub use overload::{
    AdmissionConfig, ClientConfig, GoodputWindow, LadderConfig, OverloadConfig,
    OverloadServingReport, OverloadStats, RateLimitConfig, Rung,
};
pub use router::RouterPolicy;
pub use workload::{ArrivalProcess, LengthDistribution, Phase, Request, WorkloadConfig};
