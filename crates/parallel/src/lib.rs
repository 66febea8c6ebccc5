//! Parallelism and training-step models.
//!
//! §4.2 of the paper describes DeepSeek-V3's hardware-aware parallelism: no
//! tensor parallelism during training, DualPipe pipeline parallelism to
//! overlap attention/MoE compute with MoE communication, and 64-way expert
//! parallelism. Table 4 reports the per-step timing decomposition (1F,
//! 1F1B, bubble, …) and the resulting MFU. This crate implements:
//!
//! * [`schedule`] — the chunk and event types, event-driven 1F1B (ZB1P with
//!   W folded into B) and the analytic bubble formulas for 1F1B, ZB1P and
//!   DualPipe.
//! * [`dualpipe`] — the event-driven ZB1P and DualPipe simulators, both
//!   built on one per-rank scheduler core (clock, busy time, deferred-W
//!   queue).
//! * [`mfu`] — causal / non-causal TFLOPS and MFU accounting (FlashAttention
//!   vs Megatron conventions).
//! * [`trainstep`] — the Table 4 harness: compose chunk times, a schedule
//!   and an optimizer step into the paper's training metrics.
//! * [`elastic`] — shrink re-planning after GPU loss: drop data-parallel
//!   lanes, rebalance microbatches, price the degraded step time.

#![forbid(unsafe_code)]

pub mod dualpipe;
pub mod elastic;
pub mod memory;
pub mod mfu;
pub mod schedule;
pub mod trainstep;

pub use elastic::{replan_shrink, ShrinkPlan};
pub use schedule::{ChunkEvent, ChunkKind, ChunkTimes, PipelineOutcome};
pub use trainstep::{chunk_times, table4, Table4Metrics, TrainStepConfig};
