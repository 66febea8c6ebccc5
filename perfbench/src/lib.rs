//! Host-time benchmark of the DeepSeek-V3 reproduction.
//!
//! One process runs one named workload at a seed as a closed loop with a
//! single client: each operation starts when the previous one returns.
//! Every operation's output is checked against checked-in digests (or,
//! for seeds without digests, against the invariants the workspace tests
//! use), and the run reports either the end-to-end metrics (untraced) or
//! the per-layer metrics (traced). All times are host time; simulated
//! statistics only serve as the correctness oracle.
//!
//! The metric catalog below is the single list of names the runner can
//! print; `BENCHMARK.json` at the repository root declares the same
//! names with their bounds, and a test keeps the two in step.

#![forbid(unsafe_code)]

pub mod compare;
pub mod probes;
pub mod trace;
pub mod workloads;

/// FNV-1a, 64-bit: the digest of every checked output.
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fixed CPU-bound kernel in the benchmark's own code, timed before
/// every operation: how fast the host runs at that moment. No change to
/// the program under test can move it, and it allocates nothing, so the
/// allocator cannot either.
///
/// On a shared host the speed of the same code drifts by tens of
/// percent over minutes. Dividing an operation's time by the kernel's
/// time from the same run cancels most of that drift.
#[derive(Debug, Clone)]
pub struct Reference {
    buf: Vec<f64>,
}

/// What [`Reference::run`] took, at its fastest, on the 2-core container
/// the baseline was measured on. Normalized times are scaled to it.
pub const REFERENCE_NOMINAL_NS: f64 = 230_000.0;

impl Default for Reference {
    fn default() -> Self {
        Self { buf: vec![0.0; 8192] }
    }
}

impl Reference {
    /// One pass: fill from a xorshift stream, sort, then a hash and a
    /// float recurrence over the sorted values (branches, integer
    /// multiplies and float arithmetic, like the simulators).
    pub fn run(&mut self) -> u64 {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x >> 11) as f64;
        }
        self.buf.sort_unstable_by(f64::total_cmp);
        let (mut h, mut f) = (0xcbf2_9ce4_8422_2325_u64, 0.0_f64);
        for (i, y) in self.buf.iter().enumerate() {
            h = (h ^ y.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            f = f.mul_add(0.999, y.sqrt() * i as f64);
        }
        h ^ f.to_bits()
    }
}

/// Median of `values` (mean of the middle two for an even count), as
/// Python's `statistics.median` computes it. Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method). One value gives it twice.
///
/// # Panics
///
/// Panics on an empty slice.
pub(crate) fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    values.sort_by(f64::total_cmp);
    let ld = values.len();
    if ld == 1 {
        return (values[0], values[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative after clamping j up: Python extrapolates, and so do we.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, work counts).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn decl(name: impl Into<String>, unit: &'static str, better: Better, bound: Option<f64>) -> Decl {
    Decl { name: name.into(), unit, better, bound }
}

/// Unit of `work_per_norm_s`; what one unit of work is depends on the
/// workload (see [`workloads::Workload::work_unit`]).
const WORK_RATE_UNIT: &str = "work/s";

/// The metrics an untraced run reports, on every workload.
///
/// Operations are deterministic, so the spread of one input's times
/// within a run is host interference, which only ever adds time. The
/// latency metric is therefore the fastest repetition of each input,
/// and its median over the run's inputs (with one input: the fastest
/// operation); the throughput is the same median of work over time.
/// Both are normalized: multiplied by [`REFERENCE_NOMINAL_NS`] over the
/// fastest [`Reference`] pass of the same run.
#[must_use]
pub fn end_to_end() -> Vec<Decl> {
    use Better::{Higher, Lower};
    vec![
        decl("op_norm_ms", "ms", Lower, Some(0.25)),
        decl("work_per_norm_s", WORK_RATE_UNIT, Higher, Some(0.25)),
        decl("peak_rss_mb", "MB", Lower, Some(0.20)),
        decl("setup_s", "s", Lower, Some(0.25)),
    ]
}

/// Cluster sizes (nodes) of the `deepep` workload: Figure 7's.
pub(crate) const FIG7_NODES: [usize; 4] = [2, 4, 8, 16];

/// Cluster sizes (nodes) of the DeepEP probes: Figure 7's plus 32 nodes,
/// where the flow simulator's superlinear cost shows.
pub(crate) const EP_NODES: [usize; 5] = [2, 4, 8, 16, 32];

/// Cluster sizes at which the flow simulator itself is probed.
pub(crate) const FLOWSIM_NODES: [usize; 2] = [16, 32];

/// The metrics a traced run reports, on every workload: the layer probes
/// plus the tracing overhead of the workload's own timed phase.
#[must_use]
pub fn per_layer() -> Vec<Decl> {
    use Better::Lower;
    let mut v = vec![
        decl("numerics.e4m3.encode_ns_per_elem", "ns/elem", Lower, None),
        decl("numerics.e4m3.decode_ns_per_elem", "ns/elem", Lower, None),
        decl("numerics.bf16.quantize_ns_per_elem", "ns/elem", Lower, None),
        decl("numerics.fp8_gemm.prepare_ns", "ns", Lower, None),
        decl("numerics.fp8_gemm.execute_ns", "ns", Lower, None),
        decl("numerics.fp8_gemm.ns_per_mac", "ns/mac", Lower, None),
        decl("numerics.gemm_fp8_per_tensor_ns", "ns", Lower, None),
        decl("numerics.training_macs", "count", Lower, None),
    ];
    for p in probes::PRECISIONS {
        v.push(decl(format!("model.train.{}.ms_per_step", p.0), "ms/step", Lower, None));
    }
    v.push(decl("model.gradient_probe.busy_s", "s", Lower, None));
    for n in EP_NODES {
        v.push(decl(format!("collectives.generate_traffic.n{n}.busy_s"), "s", Lower, None));
    }
    for phase in ["dispatch", "combine"] {
        for n in FIG7_NODES {
            v.push(decl(format!("collectives.run_round.{phase}.n{n}.busy_s"), "s", Lower, None));
        }
    }
    for n in EP_NODES {
        v.push(decl(format!("netsim.flows.n{n}"), "count", Lower, None));
    }
    for n in FLOWSIM_NODES {
        v.push(decl(format!("netsim.flowsim_run.n{n}.busy_s"), "s", Lower, None));
        v.push(decl(format!("netsim.max_min_rates.n{n}.ns"), "ns", Lower, None));
    }
    v.extend([
        decl("serving.workload.generate_ns", "ns", Lower, None),
        decl("serving.run.busy_s", "s", Lower, None),
        decl("serving.run.decode_steps", "count", Lower, None),
        decl("serving.run.ns_per_decode_step", "ns", Lower, None),
        decl("serving.run_with_faults.busy_s", "s", Lower, None),
        decl("serving.run_with_faults.decode_steps", "count", Lower, None),
        decl("serving.run_overload.busy_s", "s", Lower, None),
        decl("serving.run_overload.decode_steps", "count", Lower, None),
        decl("core.overload.run_seeded_traced.busy_s", "s", Lower, None),
        decl("core.overload.run_seeded.busy_s", "s", Lower, None),
        decl("telemetry.record.overhead_s", "s", Lower, None),
        decl("telemetry.evaluate.busy_s", "s", Lower, None),
        decl("telemetry.export_trace.busy_s", "s", Lower, None),
        decl("telemetry.trace_to_json.busy_s", "s", Lower, None),
        decl("telemetry.trace_events", "count", Lower, None),
        decl("telemetry.trace_bytes", "bytes", Lower, None),
    ]);
    for name in workloads::REGISTRY_REST {
        v.push(decl(format!("core.{name}.busy_s"), "s", Lower, None));
    }
    v.push(decl("bench.reference_ns", "ns", Lower, None));
    v.push(decl("bench.trace_overhead_ratio", "ratio", Lower, None));
    v
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
}

/// What one run prints: correctness tallies plus its metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Operations run, including the probe suite of a traced run.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metrics, in catalog order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Count one operation, failed when its check found `problems`.
    pub fn record(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
    }

    /// Every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The `name value unit` lines, one per metric.
    #[must_use]
    pub fn lines(&self) -> String {
        self.metrics.iter().map(|m| format!("{} {:?} {}\n", m.name, m.value, m.unit)).collect()
    }

    /// The one-line JSON result object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json_line(self.fields())
    }

    /// The result object's fields: `correct`, `attempted`, `failed` and
    /// `metrics`, in that order.
    #[must_use]
    pub fn fields(&self) -> Vec<(String, serde_json::Value)> {
        use serde_json::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]
    }
}

/// `fields` as one line of compact JSON.
#[must_use]
pub fn json_line(fields: Vec<(String, serde_json::Value)>) -> String {
    serde_json::to_string(&serde_json::Value::Object(fields))
        .unwrap_or_else(|_| String::from("null"))
}

/// Fill `result.metrics` from `values` in the order of `catalog`,
/// taking each unit from its declaration.
///
/// # Errors
///
/// Names a catalog metric that has no value, or a value that is not
/// finite or not declared.
pub fn collect(
    catalog: &[Decl],
    values: &[(String, f64)],
    result: &mut RunResult,
) -> Result<(), String> {
    for (name, _) in values {
        if !catalog.iter().any(|d| &d.name == name) {
            return Err(format!("metric {name} is not declared"));
        }
    }
    for d in catalog {
        let Some(&(_, value)) = values.iter().find(|(n, _)| n == &d.name) else {
            return Err(format!("metric {} was not measured", d.name));
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        result.metrics.push(Metric { name: d.name.clone(), value, unit: d.unit });
    }
    Ok(())
}

/// Peak resident set size of this process (Linux `VmHWM`), MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| String::from("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let mut r = RunResult::default();
        r.record(&[]);
        r.record(&["bad digest".into()]);
        collect(&[decl("x_ms", "ms", Better::Lower, Some(0.1))], &[("x_ms".into(), 1.5)], &mut r)
            .expect("declared");
        assert_eq!(
            r.to_json(),
            r#"{"correct":false,"attempted":2,"failed":1,"metrics":{"x_ms":{"value":1.5,"unit":"ms"}}}"#
        );
        assert_eq!(r.lines(), "x_ms 1.5 ms\n");
    }

    #[test]
    fn collect_rejects_missing_and_undeclared_metrics() {
        let cat = [decl("a", "s", Better::Lower, None)];
        assert!(collect(&cat, &[], &mut RunResult::default()).is_err());
        let extra = [("a".into(), 1.0), ("b".into(), 2.0)];
        assert!(collect(&cat, &extra, &mut RunResult::default()).is_err());
    }
}
