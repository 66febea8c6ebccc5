//! The experiment registry: every runnable artifact of the reproduction,
//! addressable by name.
//!
//! The `dsv3` binary is a thin shell over this table; keeping it in the
//! library lets tests drive every experiment through the same entry
//! points the CLI uses without spawning processes.
//!
//! Every entry follows one protocol. An experiment is a report function
//! that runs against a `&mut Recorder` (disabled for plain output) and a
//! renderer for that report; traceable experiments also name their seed
//! and configuration. `entry` derives everything else from that pair:
//! the text table, the JSON, the run-manifest inputs and, through the
//! recorder, the trace — all from a single run.

use crate::experiments::*;
use crate::report::Table;
use dsv3_telemetry::{IncidentReport, Recorder, WatchConfig};
use std::borrow::Borrow;

/// The outputs of one experiment run, all computed from a single
/// simulation, plus the provenance the run manifest needs.
pub struct InstrumentedRun {
    /// The text table, identical to the entry's `render`.
    pub table: Table,
    /// The JSON report.
    pub json: String,
    /// Seed the experiment ran under (`0` for analytic experiments).
    pub seed: u64,
    /// Serialized configuration, hashed into the manifest (`"null"` for
    /// analytic experiments).
    pub config_json: String,
}

/// An instrumented run plus its watchdog verdict (`dsv3 audit`).
pub struct WatchedRun {
    /// The underlying instrumented run.
    pub run: InstrumentedRun,
    /// What the detectors saw, with incident attribution.
    pub incidents: IncidentReport,
}

/// One named experiment.
pub struct Entry {
    /// CLI name (e.g. `table1`, `serving`).
    pub name: &'static str,
    /// One-line description for `dsv3 list`.
    pub about: &'static str,
    /// Whether the experiment names a seed and configuration of its own,
    /// i.e. has a simulation loop worth auditing.
    pub traceable: bool,
    /// Render the text table from one run with recording off.
    pub render: Box<dyn Fn() -> Table>,
    /// Run once into the recorder, which is disabled for plain output and
    /// enabled for `--trace-out` / `--metrics-out` / `dsv3 audit`.
    pub run: Box<dyn Fn(&mut Recorder) -> InstrumentedRun>,
}

impl Entry {
    /// Run the experiment AND evaluate the watch detectors over
    /// everything it recorded. `None` for entries with nothing to trace.
    /// The recorder must be enabled for the detectors to see any series;
    /// a disabled recorder yields an empty (but valid) report.
    pub fn run_watched(&self, rec: &mut Recorder, wcfg: &WatchConfig) -> Option<WatchedRun> {
        if !self.traceable {
            return None;
        }
        let run = (self.run)(rec);
        let incidents = dsv3_telemetry::evaluate(self.name, rec, wcfg);
        Some(WatchedRun { run, incidents })
    }

    /// Mark the entry traceable: every run reports `seed()` and
    /// `config()` for its manifest, and `dsv3 audit` can watch it.
    fn traced(self, seed: fn() -> u64, config: fn() -> String) -> Self {
        let run = self.run;
        Self {
            traceable: true,
            run: Box::new(move |rec| InstrumentedRun {
                seed: seed(),
                config_json: config(),
                ..run(rec)
            }),
            ..self
        }
    }
}

/// The one entry constructor: `report` computes the experiment's report
/// against a recorder and `render` turns it into the text table. The
/// entry is analytic (seed `0`, config `null`) until [`Entry::traced`]
/// names its seed and configuration.
fn entry<T, R>(
    name: &'static str,
    about: &'static str,
    report: fn(&mut Recorder) -> T,
    render: fn(&R) -> Table,
) -> Entry
where
    T: Borrow<R> + serde::Serialize + 'static,
    R: ?Sized + 'static,
{
    Entry {
        name,
        about,
        traceable: false,
        render: Box::new(move || render(report(&mut Recorder::disabled()).borrow())),
        run: Box::new(move |rec| {
            let r = report(rec);
            InstrumentedRun {
                table: render(r.borrow()),
                json: serde_json::to_string_pretty(&r).unwrap_or_else(|_| String::from("null")),
                seed: 0,
                config_json: String::from("null"),
            }
        }),
    }
}

/// Every experiment, in presentation order.
#[must_use]
pub fn registry() -> Vec<Entry> {
    vec![
        entry("table1", "KV cache per token (Table 1)", |_| table1::run(), table1::render),
        entry("table2", "training GFLOPs per token (Table 2)", |_| table2::run(), table2::render),
        entry("table3", "topology cost comparison (Table 3)", |_| table3::run(), table3::render),
        entry(
            "table4",
            "MPFT vs MRFT training metrics (Table 4)",
            |_| table4::run(),
            table4::render,
        ),
        entry("table5", "64B end-to-end latency (Table 5)", |_| table5::run(), table5::render),
        entry("fig5", "all-to-all bandwidth sweep (Figure 5)", |_| fig5::run(), fig5::render),
        entry("fig6", "all-to-all latency sweep (Figure 6)", |_| fig6::run(), fig6::render),
        entry("fig7", "DeepEP throughput (Figure 7)", |_| fig7::run(1024), fig7::render),
        entry("fig8", "RoCE routing-policy study (Figure 8)", |_| fig8::run(), fig8::render),
        entry(
            "speed-limits",
            "EP decode speed limits (§2.3.2)",
            |_| speed_limits::run(),
            speed_limits::render,
        ),
        entry(
            "combine-formats",
            "combine-stage compression (§6.5)",
            |_| speed_limits::run_combine_formats(),
            speed_limits::render_combine_formats,
        ),
        entry("mtp", "MTP speculative decoding (§2.3.3)", |_| mtp::run(), mtp::render),
        entry(
            "fp8-gemm",
            "FP8 accumulation error (§3.1)",
            |_| fp8_gemm::run(&fp8_gemm::default_ks()),
            fp8_gemm::render,
        ),
        entry("logfmt", "LogFMT quality (§3.2)", |_| logfmt::run(), logfmt::render),
        entry(
            "fp8-training",
            "FP8 vs BF16 training (§2.4)",
            |_| fp8_training::run(crate::model::train::TrainConfig::default()),
            fp8_training::render,
        ),
        entry(
            "node-limited",
            "node-limited routing traffic (§4.3)",
            |_| node_limited::run(2000),
            node_limited::render,
        ),
        entry(
            "local-deploy",
            "local deployment TPS (§2.2.2)",
            |_| local_deploy::run(),
            local_deploy::render,
        ),
        entry(
            "robustness",
            "plane failures & SDC detection (§6.1)",
            |_| robustness::plane_failures(),
            robustness::render,
        ),
        entry(
            "fault-drill",
            "seeded fault-injection drill (§5.1.1/§6.1)",
            |rec| fault_drill::run(fault_drill::seed(), rec),
            fault_drill::render,
        )
        .traced(fault_drill::seed, fault_drill::config_json),
        entry(
            "resilience",
            "fleet-scale resilience: tiers, spares, elastic, SDC (§6.1)",
            resilience::run,
            resilience::render,
        )
        .traced(resilience::seed, resilience::config_json),
        entry(
            "net-chaos",
            "link chaos: reroute policies vs failed fraction (§5.1.1)",
            |rec| net_chaos::run(net_chaos::seed(), rec),
            net_chaos::render,
        )
        .traced(net_chaos::seed, net_chaos::config_json),
        entry(
            "mem-timeline",
            "training memory timeline & fit frontier (§2.1)",
            mem_timeline::run,
            mem_timeline::render,
        )
        .traced(mem_timeline::seed, mem_timeline::config_json),
        entry(
            "lint",
            "workspace invariant lint (determinism/panic/vendor)",
            |_| lint::run(),
            lint::render,
        ),
        entry(
            "future-hardware",
            "hardware-recommendation payoffs (§6)",
            |_| future_hardware::run(),
            future_hardware::render,
        ),
        entry("serving", "request-level serving simulation (§2.3)", serving::run, serving::render)
            .traced(serving::seed, serving::config_json),
        entry(
            "overload",
            "overload-robust serving: admission, ladder, autoscale (§2.3)",
            |rec| overload::run_seeded_traced(overload::seed(), rec),
            overload::render,
        )
        .traced(overload::seed, overload::config_json),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_nonempty() {
        let entries = registry();
        let mut names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate experiment names");
        assert!(entries.iter().all(|e| !e.name.is_empty() && !e.about.is_empty()));
    }
}
