//! `dsv3` — command-line driver for every experiment in the reproduction.
//!
//! ```sh
//! dsv3 list                         # enumerate experiments
//! dsv3 table1                       # print one table
//! dsv3 all                          # print everything
//! dsv3 table3 --json                # machine-readable rows
//! dsv3 serving --trace-out t.json   # Chrome-trace of the simulation
//! dsv3 serving --metrics-out m.json # counters/gauges/histograms + manifest
//! dsv3 check-trace t.json           # validate an emitted trace file
//! dsv3 check-metrics m.json         # validate an emitted metrics document
//! dsv3 audit overload               # run + SLO watchdog + incident report
//! dsv3 lint                         # invariant lint; nonzero exit on errors
//! ```
//!
//! The experiment table itself lives in [`dsv3_core::registry`] so tests
//! can drive the exact same entry points. Every experiment runs once
//! through its entry's `run` against one recorder, enabled only under
//! `--trace-out`/`--metrics-out`; the table, the JSON and the telemetry
//! files all come from that run. A disabled recorder records nothing,
//! so plain output is byte-identical to pre-telemetry builds.
//!
//! All of stdout goes through `emit`: a reader that goes away early
//! (`dsv3 all | head`) ends the run cleanly instead of panicking.

use dsv3_core::registry::{registry, Entry};
use dsv3_core::telemetry::{
    manifest_wrap, validate_chrome_trace, validate_metrics_document, MetricsDocument, Recorder,
    RunManifest, WatchConfig,
};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Write to stdout. A closed pipe is a clean exit (`Err(SUCCESS)`) and
/// any other write error a failed one, so callers stop at `?` either way.
fn emit(text: std::fmt::Arguments<'_>) -> Result<(), ExitCode> {
    match std::io::stdout().lock().write_fmt(text) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Err(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `println!` through [`emit`], returning early when stdout is gone.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

fn usage(entries: &[Entry]) -> Result<(), ExitCode> {
    outln!("dsv3 — reproduce 'Insights into DeepSeek-V3' (ISCA '25)\n");
    outln!("usage: dsv3 <experiment> [--json] [--trace-out <path>] [--metrics-out <path>]");
    outln!("       dsv3 audit <experiment> [--json] [--incidents-out <path>]");
    outln!("       dsv3 all [--json] | dsv3 list");
    outln!("       dsv3 check-trace <path> | dsv3 check-metrics <path>");
    outln!("       dsv3 lint [--rules <R1,R2,..>] [--baseline <path>] [--readiness]\n");
    outln!("experiments:");
    for e in entries {
        let tag = if e.traceable { " [traceable]" } else { "" };
        outln!("  {:<16} {}{}", e.name, e.about, tag);
    }
    Ok(())
}

/// The entry called `name`; `fault_drill` finds `fault-drill` too, since
/// underscores are a natural thing to type. Unknown names print usage.
fn find<'a>(entries: &'a [Entry], name: &str) -> Result<&'a Entry, ExitCode> {
    if let Some(e) = entries.iter().find(|e| e.name.replace('-', "_") == name.replace('-', "_")) {
        return Ok(e);
    }
    eprintln!("unknown experiment '{name}'\n");
    usage(entries)?;
    Err(ExitCode::FAILURE)
}

/// Parsed command line: positional words plus the recognized flags.
struct Cli {
    positional: Vec<String>,
    json: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    incidents_out: Option<String>,
    rules: Option<String>,
    baseline: Option<String>,
    readiness: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        json: false,
        trace_out: None,
        metrics_out: None,
        incidents_out: None,
        rules: None,
        baseline: None,
        readiness: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => cli.json = true,
            "--readiness" => cli.readiness = true,
            "--rules" | "--baseline" => {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i) else {
                    return Err(format!("{flag} requires an argument"));
                };
                match flag.as_str() {
                    "--rules" => cli.rules = Some(value.clone()),
                    _ => cli.baseline = Some(value.clone()),
                }
            }
            "--trace-out" | "--metrics-out" | "--incidents-out" => {
                let flag = args[i].clone();
                i += 1;
                let Some(path) = args.get(i) else {
                    return Err(format!("{flag} requires a path argument"));
                };
                match flag.as_str() {
                    "--trace-out" => cli.trace_out = Some(path.clone()),
                    "--metrics-out" => cli.metrics_out = Some(path.clone()),
                    _ => cli.incidents_out = Some(path.clone()),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            word => cli.positional.push(word.to_string()),
        }
        i += 1;
    }
    Ok(cli)
}

fn check_trace(path: &str) -> Result<(), ExitCode> {
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("check-trace: cannot read '{path}': {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match validate_chrome_trace(&json) {
        Ok(stats) => {
            outln!(
                "{path}: valid Chrome trace — {} events ({} spans, {} instants, {} counter samples, {} metadata)",
                stats.events, stats.spans, stats.instants, stats.counters, stats.metadata
            );
            Ok(())
        }
        Err(e) => {
            eprintln!("check-trace: '{path}' is not a valid Chrome trace: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn check_metrics(path: &str) -> Result<(), ExitCode> {
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("check-metrics: cannot read '{path}': {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match validate_metrics_document(&json) {
        Ok(stats) => {
            outln!(
                "{path}: valid metrics document — {} counters, {} gauges, {} histograms, {} dropped events",
                stats.counters, stats.gauges, stats.histograms, stats.dropped_events
            );
            Ok(())
        }
        Err(e) => {
            eprintln!("check-metrics: '{path}' is not a valid metrics document: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Write the optional trace/metrics artifacts for a completed recording.
fn write_telemetry(rec: &Recorder, manifest: &RunManifest, cli: &Cli) -> Result<(), ExitCode> {
    if let Some(path) = &cli.trace_out {
        let written = std::fs::File::create(path).and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            rec.export_trace().write_json(&mut out)?;
            out.flush()
        });
        if let Err(err) = written {
            eprintln!("cannot write trace to '{path}': {err}");
            return Err(ExitCode::FAILURE);
        }
    }
    if let Some(path) = &cli.metrics_out {
        let doc = MetricsDocument { manifest: manifest.clone(), metrics: rec.snapshot() };
        let body = serde_json::to_string_pretty(&doc).expect("metrics document serializes");
        if let Err(err) = std::fs::write(path, body) {
            eprintln!("cannot write metrics to '{path}': {err}");
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}

/// Whether `--trace-out`/`--metrics-out` asked for a recording.
fn wants_telemetry(cli: &Cli) -> bool {
    cli.trace_out.is_some() || cli.metrics_out.is_some()
}

fn analytic_note(name: &str) {
    eprintln!(
        "note: '{name}' is analytic (no simulation loop); the trace will only carry metadata"
    );
}

/// Run one entry once and print its table or JSON. Under telemetry flags
/// the recorder is enabled, the trace and metrics files come from the
/// same run, and the JSON carries its run manifest.
fn run_experiment(e: &Entry, cli: &Cli) -> Result<(), ExitCode> {
    let telemetry = wants_telemetry(cli);
    if telemetry && !e.traceable {
        analytic_note(e.name);
    }
    let mut rec = if telemetry { Recorder::new() } else { Recorder::disabled() };
    let run = (e.run)(&mut rec);
    let manifest =
        telemetry.then(|| RunManifest::capture(e.name, run.seed, &run.config_json, &rec));
    if let Some(manifest) = &manifest {
        write_telemetry(&rec, manifest, cli)?;
    }
    match (cli.json, &manifest) {
        (false, _) => outln!("{}", run.table),
        (true, None) => outln!("{}", run.json),
        (true, Some(manifest)) => outln!("{}", manifest_wrap(manifest, &run.json)),
    }
    Ok(())
}

/// `dsv3 audit <experiment>`: run instrumented, evaluate the watch
/// detectors over everything recorded, and print (or export) the
/// incident report alongside the usual experiment output.
fn run_audit(e: &Entry, cli: &Cli) -> Result<(), ExitCode> {
    let mut rec = Recorder::new();
    let Some(w) = e.run_watched(&mut rec, &WatchConfig::default()) else {
        eprintln!("audit: '{}' is analytic (no simulation loop); nothing to watch", e.name);
        return Err(ExitCode::FAILURE);
    };
    let manifest = RunManifest::capture(e.name, w.run.seed, &w.run.config_json, &rec);
    write_telemetry(&rec, &manifest, cli)?;
    if let Some(path) = &cli.incidents_out {
        if let Err(err) = std::fs::write(path, w.incidents.to_json()) {
            eprintln!("cannot write incidents to '{path}': {err}");
            return Err(ExitCode::FAILURE);
        }
    }
    if cli.json {
        let report: serde_json::Value =
            serde_json::from_str(&w.run.json).unwrap_or(serde_json::Value::Null);
        let manifest_value: serde_json::Value = serde_json::to_string(&manifest)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or(serde_json::Value::Null);
        let incidents: serde_json::Value =
            serde_json::from_str(&w.incidents.to_json()).unwrap_or(serde_json::Value::Null);
        let doc = serde_json::Value::Object(vec![
            (String::from("manifest"), manifest_value),
            (String::from("report"), report),
            (String::from("incidents"), incidents),
        ]);
        outln!("{}", serde_json::to_string_pretty(&doc).unwrap_or_else(|_| String::from("null")));
    } else {
        outln!("{}", w.run.table);
        outln!("{}", w.incidents.render());
    }
    Ok(())
}

/// `dsv3 lint`: unlike the experiments it has a pass/fail verdict, so a
/// clean CI gate needs the exit code to carry it.
fn run_lint(cli: &Cli) -> Result<(), ExitCode> {
    use dsv3_core::experiments::lint;
    let opts = lint::LintOptions { rules: cli.rules.clone(), baseline: cli.baseline.clone() };
    let (report, readiness) = lint::run_with(&opts);
    let rec = Recorder::new();
    let manifest = RunManifest::capture("lint", 0, &lint::config_json(), &rec);
    if wants_telemetry(cli) {
        analytic_note("lint");
    }
    write_telemetry(&rec, &manifest, cli)?;
    if cli.readiness {
        if cli.json {
            outln!("{}", manifest_wrap(&manifest, &readiness.render_json()));
        } else {
            emit(format_args!("{}", readiness.render_text()))?;
        }
    } else if cli.json {
        let body = serde_json::to_string_pretty(&report).unwrap_or_else(|_| String::from("null"));
        outln!("{}", manifest_wrap(&manifest, &body));
    } else {
        for f in &report.findings {
            outln!("{}:{}: {}[{}]: {}", f.path, f.line, f.severity, f.rule, f.message);
        }
        outln!("{}", lint::render(&report));
    }
    if report.errors > 0 {
        Err(ExitCode::FAILURE)
    } else {
        Ok(())
    }
}

fn dispatch(args: &[String]) -> Result<(), ExitCode> {
    let entries = registry();
    let cli = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n");
            usage(&entries)?;
            return Err(ExitCode::FAILURE);
        }
    };
    if cli.incidents_out.is_some() && cli.positional.first().map(String::as_str) != Some("audit") {
        eprintln!("--incidents-out only applies to the audit subcommand");
        return Err(ExitCode::FAILURE);
    }
    match cli.positional.first().map(String::as_str) {
        None | Some("list") | Some("help") => usage(&entries),
        Some("check-trace") => match cli.positional.get(1) {
            Some(path) => check_trace(path),
            None => {
                eprintln!("check-trace requires a path argument");
                Err(ExitCode::FAILURE)
            }
        },
        Some("check-metrics") => match cli.positional.get(1) {
            Some(path) => check_metrics(path),
            None => {
                eprintln!("check-metrics requires a path argument");
                Err(ExitCode::FAILURE)
            }
        },
        Some("audit") => {
            let Some(name) = cli.positional.get(1) else {
                eprintln!("audit requires an experiment name (try 'dsv3 audit overload')");
                return Err(ExitCode::FAILURE);
            };
            run_audit(find(&entries, name)?, &cli)
        }
        Some("lint") => run_lint(&cli),
        Some("all") => {
            if wants_telemetry(&cli) {
                eprintln!("--trace-out/--metrics-out need a single experiment, not 'all'");
                return Err(ExitCode::FAILURE);
            }
            entries.iter().try_for_each(|e| run_experiment(e, &cli))
        }
        Some(name) => run_experiment(find(&entries, name)?, &cli),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
