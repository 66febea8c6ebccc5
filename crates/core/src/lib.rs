//! Co-design analysis core for the DeepSeek-V3 insights reproduction.
//!
//! This crate ties the substrates together and exposes **one experiment
//! runner per table and figure** of the paper (ISCA '25, "Insights into
//! DeepSeek-V3"). Each runner returns serializable result rows and can
//! render a text table mirroring the paper's presentation.
//!
//! ```
//! use dsv3_core::experiments::table1;
//!
//! let rows = table1::run();
//! assert_eq!(rows[0].model, "DeepSeek-V3 (MLA)");
//! println!("{}", table1::render(&rows));
//! ```
//!
//! Substrates are re-exported for direct use:
//! [`numerics`], [`model`], [`topology`], [`netsim`], [`collectives`],
//! [`parallel`], [`inference`], [`faults`], [`serving`], [`telemetry`].

#![forbid(unsafe_code)]

pub use dsv3_collectives as collectives;
pub use dsv3_faults as faults;
pub use dsv3_inference as inference;
pub use dsv3_lint as lint;
pub use dsv3_memtl as memtl;
pub use dsv3_model as model;
pub use dsv3_netsim as netsim;
pub use dsv3_numerics as numerics;
pub use dsv3_parallel as parallel;
pub use dsv3_serving as serving;
pub use dsv3_telemetry as telemetry;
pub use dsv3_topology as topology;
pub use dsv3_units as units;

pub mod experiments;
pub mod hardware;
pub mod registry;
pub mod report;

pub use hardware::HardwareProfile;
pub use registry::{registry, Entry, InstrumentedRun};
pub use report::Table;
