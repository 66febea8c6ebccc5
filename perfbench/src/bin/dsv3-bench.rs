//! `dsv3-bench` — the repository benchmark (see `perfbench/README.md`).
//!
//! ```sh
//! dsv3-bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!            [--trace-out <path>] [--record <runs.jsonl>]
//! dsv3-bench bless [--workload <name>]     # rewrite the golden digests
//! dsv3-bench compare <A.jsonl> <B.jsonl> [--bench <BENCHMARK.json>]
//! dsv3-bench list
//! ```
//!
//! A run prints every metric as `name value unit` and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`.

use dsv3_core::telemetry::validate_chrome_trace;
use dsv3_core::units::s_to_ms;
use dsv3_perfbench::trace::{chrome_trace, self_time_by_name, time_ns, Tracer};
use dsv3_perfbench::workloads::{
    find, golden_path, load_golden, render_golden, seed_key, setup, Checker, Golden, Workload,
    WORKLOADS,
};
use dsv3_perfbench::{collect, Reference, RunResult, REFERENCE_NOMINAL_NS};
use dsv3_perfbench::{compare, end_to_end, json_line, median, peak_rss_mb, per_layer, probes};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Setups measured per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// Timed-phase length when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: dsv3-bench --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--trace-out <path>] [--record <runs.jsonl>]\n       \
                     dsv3-bench bless [--workload <name>]\n       \
                     dsv3-bench compare <A.jsonl> <B.jsonl> [--bench <BENCHMARK.json>]\n       \
                     dsv3-bench list";

/// Split `args` into positional words and `--flag value` pairs; `bare`
/// flags take no value.
fn parse_flags(
    args: &[String],
    valued: &[&str],
    bare: &[&str],
) -> Result<(Vec<String>, BTreeMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            let v = it.next().ok_or_else(|| format!("{a} requires a value"))?;
            flags.insert(a.clone(), v.clone());
        } else if bare.contains(&a.as_str()) {
            flags.insert(a.clone(), String::new());
        } else if a.starts_with("--") {
            return Err(format!("unknown flag '{a}'"));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn workload(name: Option<&String>) -> Result<&'static Workload, String> {
    let name = name.ok_or("--workload is required")?;
    find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("bless") => bless(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("list") => {
            for w in &WORKLOADS {
                println!("{:<14} seeds {:?}  work unit: {}", w.name, w.seeds, w.work_unit);
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("dsv3-bench: {e}\n{USAGE}");
        ExitCode::FAILURE
    })
}

/// Median wall time of [`SETUP_REPEATS`] fresh processes that each load
/// the digests, build the workload's inputs and exit: what a user pays
/// from process start to the first operation.
fn measure_setup(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut clock = Tracer::new(false);
    let seed = seed.to_string();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let (status, took) = clock.timed("setup", || {
            Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed, "--setup-only"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
        });
        let status = status.map_err(|e| format!("cannot start setup process: {e}"))?;
        if !status.success() {
            return Err(format!("setup process failed: {status}"));
        }
        times.push(took.as_secs_f64());
    }
    Ok(median(&mut times))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let valued = ["--workload", "--seed", "--seconds", "--trace", "--trace-out", "--record"];
    let (positional, flags) = parse_flags(args, &valued, &["--setup-only"])?;
    if let Some(word) = positional.first() {
        return Err(format!("unexpected argument '{word}'"));
    }
    let w = workload(flags.get("--workload"))?;
    let seed = match flags.get("--seed") {
        Some(s) => s.parse::<u64>().map_err(|_| format!("bad --seed '{s}'"))?,
        None => w.seeds[0],
    };
    let seconds = match flags.get("--seconds") {
        Some(s) => s.parse::<f64>().ok().filter(|v| v.is_finite() && *v > 0.0),
        None => Some(DEFAULT_SECONDS),
    }
    .ok_or("--seconds must be a positive number")?;
    let trace = match flags.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    if flags.contains_key("--setup-only") {
        load_golden(w)?;
        setup(w, seed)?;
        return Ok(ExitCode::SUCCESS);
    }

    let setup_s = if trace { 0.0 } else { measure_setup(w, seed)? };
    let golden = load_golden(w)?;
    let inputs = setup(w, seed)?;
    let mut checker = Checker::new(golden.get(&seed_key(w, seed)).cloned());
    if !checker.has_golden() {
        eprintln!("note: no digests for seed {seed}; checking invariants and repeatability");
    }

    // The timed phase: a closed loop with one client. A traced run runs
    // every input twice in a row, once traced and once not, in alternating
    // order: the pairs give the tracing overhead.
    let mut tracer = Tracer::new(false);
    let mut result = RunResult::default();
    let mut ops: Vec<Op> = Vec::new();
    let mut reference = Reference::default();
    let mut reference_ns = f64::INFINITY;
    let budget = Duration::from_secs_f64(seconds);
    let start = tracer.elapsed();
    loop {
        reference_ns = reference_ns.min(time_ns(3, 1, || reference.run()));
        let i = ops.len();
        let (input, traced) =
            if trace { (i / 2, (i % 2 == 1) != (i / 2 % 2 == 1)) } else { (i, false) };
        tracer.set_enabled(traced);
        tracer.begin_op(w.name);
        let out = inputs.run_op(input, &mut tracer);
        let busy = tracer.end_op();
        let problems = checker.check(&out);
        for p in &problems {
            eprintln!("op {i} failed: {p}");
        }
        result.record(&problems);
        ops.push(Op { input: input % w.cycle, traced, busy_s: busy.as_secs_f64(), work: out.work });
        let done = tracer.elapsed().saturating_sub(start) >= budget;
        if done && (!trace || ops.len().is_multiple_of(2)) {
            break;
        }
    }

    let values = if trace {
        let out =
            flags.get("--trace-out").map_or_else(|| default_trace_path(w, seed), PathBuf::from);
        let mut values = traced_values(w, seed, &mut tracer, &ops, &mut result, &out)?;
        values.push(("bench.reference_ns".into(), reference_ns));
        values
    } else {
        untraced_values(&ops, reference_ns, setup_s)?
    };
    let catalog = if trace { per_layer() } else { end_to_end() };
    collect(&catalog, &values, &mut result)?;

    print!("{}", result.lines());
    println!("{}", result.to_json());
    if let Some(path) = flags.get("--record") {
        let mut fields = vec![
            ("workload".to_string(), Value::Str(w.name.to_string())),
            ("seed".to_string(), Value::UInt(seed)),
            ("trace".to_string(), Value::UInt(u64::from(trace))),
        ];
        fields.extend(result.fields());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(file, "{}", json_line(fields)).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// One timed operation.
struct Op {
    /// Which of the workload's inputs it ran: its index modulo the cycle.
    input: usize,
    traced: bool,
    busy_s: f64,
    work: f64,
}

/// The fastest repetition of each input among `ops`, in input order
/// (see [`end_to_end`] for why the fastest).
fn fastest_per_input<'a>(ops: impl Iterator<Item = &'a Op>) -> Vec<&'a Op> {
    let mut best: BTreeMap<usize, &Op> = BTreeMap::new();
    for op in ops {
        let b = best.entry(op.input).or_insert(op);
        if op.busy_s < b.busy_s {
            *b = op;
        }
    }
    best.into_values().collect()
}

fn untraced_values(
    ops: &[Op],
    reference_ns: f64,
    setup_s: f64,
) -> Result<Vec<(String, f64)>, String> {
    let best = fastest_per_input(ops.iter());
    if best.is_empty() {
        return Err("no operation ran".into());
    }
    let scale = REFERENCE_NOMINAL_NS / reference_ns;
    let mut raw_ms: Vec<f64> = best.iter().map(|o| s_to_ms(o.busy_s)).collect();
    let mut rates: Vec<f64> = best.iter().map(|o| o.work / (o.busy_s * scale)).collect();
    let raw_ms = median(&mut raw_ms);
    eprintln!(
        "{} operations over {} inputs: {raw_ms:.3} ms raw; fastest reference pass {reference_ns:.0} ns",
        ops.len(),
        best.len()
    );
    Ok(vec![
        ("op_norm_ms".into(), raw_ms * scale),
        ("work_per_norm_s".into(), median(&mut rates)),
        ("peak_rss_mb".into(), peak_rss_mb()?),
        ("setup_s".into(), setup_s),
    ])
}

/// Median over a traced run's back-to-back pairs of the same input of
/// traced over untraced time.
fn overhead_ratio(ops: &[Op]) -> Result<f64, String> {
    let mut ratios: Vec<f64> = ops
        .chunks_exact(2)
        .map(|p| if p[0].traced { p[0].busy_s / p[1].busy_s } else { p[1].busy_s / p[0].busy_s })
        .collect();
    if ratios.is_empty() {
        return Err("a traced run needs a traced and an untraced operation".into());
    }
    Ok(median(&mut ratios))
}

fn default_trace_path(w: &Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{seed}.json", w.name))
}

fn traced_values(
    w: &Workload,
    seed: u64,
    tracer: &mut Tracer,
    ops: &[Op],
    result: &mut RunResult,
    out: &Path,
) -> Result<Vec<(String, f64)>, String> {
    tracer.set_enabled(true);
    tracer.begin_op("probes");
    let probes = probes::run_all(tracer);
    tracer.end_op();
    for p in &probes.problems {
        eprintln!("probe failed: {p}");
    }
    result.record(&probes.problems);
    let mut values = probes.values;
    values.push(("bench.trace_overhead_ratio".into(), overhead_ratio(ops)?));

    let json =
        chrome_trace(tracer.spans(), &format!("dsv3-bench {} seed {seed}", w.name)).to_json();
    validate_chrome_trace(&json)?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, json).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("trace: {} ({} spans); largest self times:", out.display(), tracer.spans().len());
    for (name, t) in self_time_by_name(tracer.spans()).iter().take(8) {
        eprintln!("  {:>10.3} ms  {name}", s_to_ms(t.as_secs_f64()));
    }
    Ok(values)
}

/// Rewrite `golden/<workload>.json` from one full input cycle at each
/// digest seed. For changes that alter outputs on purpose.
fn bless(args: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse_flags(args, &["--workload"], &[])?;
    if let Some(word) = positional.first() {
        return Err(format!("unexpected argument '{word}'"));
    }
    let targets: Vec<&Workload> = match flags.get("--workload") {
        Some(name) => vec![workload(Some(name))?],
        None => WORKLOADS.iter().collect(),
    };
    for w in targets {
        let mut golden = Golden::new();
        let seeds = if w.seeded { &w.seeds[..] } else { &w.seeds[..1] };
        for &seed in seeds {
            let inputs = setup(w, seed)?;
            let mut tracer = Tracer::new(false);
            let mut digests = BTreeMap::new();
            for i in 0..w.cycle {
                tracer.begin_op(w.name);
                let out = inputs.run_op(i, &mut tracer);
                tracer.end_op();
                if let Some(v) = out.violations.first() {
                    return Err(format!("{} seed {seed} op {i}: {v}", w.name));
                }
                for (key, d) in out.digests {
                    if digests.insert(key.clone(), d).is_some() {
                        return Err(format!("{} seed {seed}: output key {key} repeats", w.name));
                    }
                }
            }
            golden.insert(seed_key(w, seed), digests);
        }
        let path = golden_path(w);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, render_golden(w, &golden))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("blessed {} -> {}", w.name, path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let (positional, flags) = parse_flags(args, &["--bench"], &[])?;
    let [a, b] = positional.as_slice() else {
        return Err("compare takes two JSONL files".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let rules = compare::parse_rules(&read(
        flags.get("--bench").map_or("BENCHMARK.json", String::as_str),
    )?)?;
    let ra = compare::parse_records(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let rb = compare::parse_records(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    let (table, regressed) = compare::report(&ra, &rb, &rules);
    print!("{table}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
