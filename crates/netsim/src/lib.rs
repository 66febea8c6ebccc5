//! Flow-level discrete-event network simulator.
//!
//! The paper's network results (Figures 5–8, Table 5, the §2.3.2 speed
//! limits) are bandwidth-sharing and latency phenomena. This crate models
//! them at flow granularity: links have capacity (GB/s) and per-hop latency;
//! flows follow fixed link paths and share capacity max-min fairly
//! (progressive filling); the simulation advances between flow arrival and
//! completion events.
//!
//! * [`sim`] — single-path flows on a healthy fabric ([`sim::FlowSim`]),
//!   a front that runs the chaos engine's event loop with no faults.
//! * [`chaos`] — the event loop itself ([`chaos::ChaosSim`]): ECMP path
//!   sets, seeded link up/down schedules, reroute policies (stall / static
//!   rehash / adaptive), and timeout + backoff retransmission (§5,
//!   Figures 5–8). Its per-event passes stream over the active flows'
//!   dense counters, and it drives one incremental max-min solver: an
//!   event re-solves only the connected components of flows it touched,
//!   each with an indexed heap that holds every link once at its current
//!   fair share, bit-identically to a global re-solve.
//! * [`latency`] — per-hop latency parameters calibrated so end-to-end 64B
//!   latencies reproduce Table 5 (IB / RoCE / NVLink, same- and cross-leaf).
//! * [`ordering`] — memory-semantic ordering: sender fences vs hardware
//!   Region Acquire/Release (§6.4).
//! * [`multiport`] — multi-port NICs with packet spraying and out-of-order
//!   placement (Figure 4).
//! * [`incast`] — many-to-one bursts vs a victim flow: shared queues vs
//!   VOQ isolation (§5.2.2).

#![forbid(unsafe_code)]

pub mod cbfc;
pub mod chaos;
pub mod incast;
pub mod latency;
mod maxmin;
pub mod multiport;
#[cfg(test)]
mod oracle;
pub mod ordering;
pub mod sim;

pub use chaos::{ChaosConfig, ChaosReport, ChaosSim, LinkSchedule, ReroutePolicy};
pub use latency::LatencyParams;
pub use sim::{FlowSim, Link, SimReport};
