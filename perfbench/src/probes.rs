//! Layer probes: fixed-size calls into one layer's public functions,
//! timed from outside after a traced run's timed phase, so they never
//! enter the end-to-end numbers.
//!
//! The probe inputs are fixed, not seeded, so every traced run of every
//! workload reports the same per-layer metrics over the same inputs.
//! The probes are sized so that the whole suite takes a few seconds: the
//! training probes run the `fp8-train` workload's step count, and the
//! 32-node DeepEP point is probed through the flow simulator alone.

use crate::trace::{time_ns, Tracer};
use crate::workloads::{
    ep_cluster, ep_config, flow_count, training_macs, FP8_TRAIN_STEPS, REGISTRY_REST,
};
use crate::{EP_NODES, FIG7_NODES, FLOWSIM_NODES};
use dsv3_core::collectives::deepep::{generate_traffic, run_round, EpTraffic};
use dsv3_core::collectives::Cluster;
use dsv3_core::experiments::overload;
use dsv3_core::faults::{FaultPlan, FaultPlanConfig, RecoveryPolicy};
use dsv3_core::model::train::{gradient_probe, train, Precision, TrainConfig};
use dsv3_core::netsim::FlowSim;
use dsv3_core::numerics::gemm::{gemm_fp8_per_tensor, Fp8Gemm, Fp8GemmConfig};
use dsv3_core::numerics::minifloat::Format;
use dsv3_core::numerics::Matrix;
use dsv3_core::registry::registry;
use dsv3_core::serving::{
    run, run_overload, run_with_faults, workload, AdmissionConfig, ArrivalProcess, AutoscaleConfig,
    ClientConfig, LadderConfig, OverloadConfig, RouterPolicy, ServingSimConfig,
};
use dsv3_core::telemetry::{evaluate, Recorder, WatchConfig};
use dsv3_core::units::s_to_ms;
use std::hint::black_box;

/// The training backends, with their metric labels.
pub(crate) const PRECISIONS: [(&str, Precision); 4] = [
    ("f32", Precision::F32),
    ("bf16", Precision::Bf16),
    ("fp8_fine", Precision::Fp8Fine),
    ("fp8_coarse", Precision::Fp8Coarse),
];

/// Requests in the serving probes' stream.
const SERVING_REQUESTS: usize = 20_000;

/// Seed of the serving probes' stream (the engine baseline's own).
const SERVING_SEED: u64 = 20_250_805;

/// The training GEMM shape: batch × input features × hidden units.
const GEMM_SHAPE: (usize, usize, usize) = (16, 256, 32);

/// Values the probes measured, and the checks they failed.
#[derive(Debug, Default)]
pub struct Probes {
    /// `(metric name, value)` in measurement order.
    pub values: Vec<(String, f64)>,
    /// Broken invariants.
    pub problems: Vec<String>,
}

impl Probes {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Run every probe through `t`.
pub fn run_all(t: &mut Tracer) -> Probes {
    let mut p = Probes::default();
    numerics(t, &mut p);
    model(t, &mut p);
    deepep(t, &mut p);
    serving(t, &mut p);
    audit(t, &mut p);
    registry_entries(t, &mut p);
    p
}

fn numerics(t: &mut Tracer, p: &mut Probes) {
    // Magnitudes from 2^-10 to 2^9, both signs: E4M3's subnormals, normals
    // and saturation all occur.
    let xs: Vec<f64> = (0..4096)
        .map(|i| {
            let mag = (-10.0 + 19.0 * f64::from(i) / 4096.0).exp2();
            if i % 2 == 0 {
                mag
            } else {
                -mag
            }
        })
        .collect();
    let codes: Vec<u32> = (0..4096).map(|i| i % 256).collect();
    let per_elem = xs.len() as f64;
    let e4m3 = Format::E4M3;
    let ns = t.call("numerics.e4m3.encode", || {
        time_ns(5, 4, || xs.iter().fold(0u32, |acc, &x| acc ^ e4m3.encode(x)))
    });
    p.put("numerics.e4m3.encode_ns_per_elem", ns / per_elem);
    let ns = t.call("numerics.e4m3.decode", || {
        time_ns(5, 4, || codes.iter().map(|&c| e4m3.decode(c)).sum::<f64>())
    });
    p.put("numerics.e4m3.decode_ns_per_elem", ns / per_elem);
    let ns = t.call("numerics.bf16.quantize", || {
        time_ns(5, 4, || xs.iter().map(|&x| Format::BF16.quantize(x)).sum::<f64>())
    });
    p.put("numerics.bf16.quantize_ns_per_elem", ns / per_elem);

    let (m, k, n) = GEMM_SHAPE;
    let a = Matrix::random(m, k, 1.0, 0xA);
    let b = Matrix::random(k, n, 0.1, 0xB);
    let cfg = Fp8GemmConfig::default();
    let ns =
        t.call("numerics.fp8_gemm.prepare", || time_ns(5, 3, || Fp8Gemm::prepare(&a, &b, cfg)));
    p.put("numerics.fp8_gemm.prepare_ns", ns);
    let prepared = Fp8Gemm::prepare(&a, &b, cfg);
    let ns = t.call("numerics.fp8_gemm.execute", || time_ns(5, 3, || prepared.execute()));
    p.put("numerics.fp8_gemm.execute_ns", ns);
    p.put("numerics.fp8_gemm.ns_per_mac", ns / (m * k * n) as f64);
    let ns = t.call("numerics.gemm_fp8_per_tensor", || {
        time_ns(5, 3, || gemm_fp8_per_tensor(&a, &b, Format::E4M3))
    });
    p.put("numerics.gemm_fp8_per_tensor_ns", ns);
    p.put("numerics.training_macs", training_macs(&TrainConfig::default()) as f64);
}

fn model(t: &mut Tracer, p: &mut Probes) {
    let cfg = TrainConfig { steps: FP8_TRAIN_STEPS, ..TrainConfig::default() };
    for (label, precision) in PRECISIONS {
        let (r, took) = t.timed(&format!("model.train.{label}"), || train(precision, cfg));
        p.put(
            format!("model.train.{label}.ms_per_step"),
            s_to_ms(took.as_secs_f64()) / FP8_TRAIN_STEPS as f64,
        );
        p.require(r.final_loss.is_finite(), || format!("{label} probe loss {}", r.final_loss));
    }
    let ((), took) = t.timed("model.gradient_probe", || {
        for (_, precision) in PRECISIONS {
            black_box(gradient_probe(precision, 1e5, 11));
        }
    });
    p.put("model.gradient_probe.busy_s", took.as_secs_f64());
}

/// The flow simulator `run_round` builds for `traffic`, rebuilt through
/// the public cluster and simulator calls, with its flow count.
#[must_use]
fn round_sim(c: &Cluster, traffic: &EpTraffic, bytes_per_copy: f64) -> (FlowSim, usize) {
    let (nodes, locals) = (c.cfg.nodes, c.cfg.gpus_per_node);
    let mut sim = c.sim();
    let mut flows = 0;
    for a in 0..nodes {
        for b in 0..nodes {
            let copies = traffic.ib_copies[a][b];
            if a != b && copies > 0 {
                let bytes = copies as f64 * bytes_per_copy;
                for plane in 0..locals {
                    let (path, lat) = c.plane_path(a, b, plane);
                    sim.add_flow(path, bytes / locals as f64, 0.0, lat);
                    flows += 1;
                }
            }
        }
    }
    for node in 0..nodes {
        for i in 0..locals {
            for j in 0..locals {
                let copies = traffic.nvl_copies[node][i][j];
                if i != j && copies > 0 {
                    let (path, lat) = c.nvlink_path(c.gpu(node, i), c.gpu(node, j));
                    sim.add_flow(path, copies as f64 * bytes_per_copy, 0.0, lat);
                    flows += 1;
                }
            }
        }
    }
    (sim, flows)
}

fn deepep(t: &mut Tracer, p: &mut Probes) {
    let ep = ep_config(7);
    let bytes = ep.hidden as f64;
    for n in EP_NODES {
        let c = ep_cluster(n);
        let (traffic, took) =
            t.timed(&format!("collectives.generate_traffic.n{n}"), || generate_traffic(&c, &ep));
        p.put(format!("collectives.generate_traffic.n{n}.busy_s"), took.as_secs_f64());
        let flows = flow_count(&c, &traffic);
        p.put(format!("netsim.flows.n{n}"), flows as f64);
        // A 32-node round costs seconds; the flow-simulator probe below
        // covers it.
        let mut dispatch_us = None;
        if FIG7_NODES.contains(&n) {
            for (phase, scale) in [("dispatch", 1.0), ("combine", 2.0)] {
                let name = format!("collectives.run_round.{phase}.n{n}");
                let (r, took) = t.timed(&name, || run_round(&c, &traffic, scale * bytes));
                p.put(format!("{name}.busy_s"), took.as_secs_f64());
                dispatch_us = dispatch_us.or(Some(r.time_us));
            }
        }
        if FLOWSIM_NODES.contains(&n) {
            let (mut sim, built) = round_sim(&c, &traffic, bytes);
            p.require(built == flows, || format!("n{n}: rebuilt {built} flows, counted {flows}"));
            let ids: Vec<usize> = (0..built).collect();
            let ns = t.call(&format!("netsim.max_min_rates.n{n}"), || {
                time_ns(3, 1, || sim.max_min_rates(&ids))
            });
            p.put(format!("netsim.max_min_rates.n{n}.ns"), ns);
            let (r, took) = t.timed(&format!("netsim.flowsim_run.n{n}"), || sim.run());
            p.put(format!("netsim.flowsim_run.n{n}.busy_s"), took.as_secs_f64());
            if let Some(us) = dispatch_us {
                p.require(r.makespan_us.to_bits() == us.to_bits(), || {
                    format!("n{n}: rebuilt makespan {} vs run_round {us}", r.makespan_us)
                });
            }
        }
    }
}

/// The serving probes' request stream: Poisson arrivals at the
/// overload experiment's 1× capacity, disaggregated prefill.
#[must_use]
pub fn serving_config(seed: u64) -> ServingSimConfig {
    let mut cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: overload::CAPACITY_RPS },
        SERVING_REQUESTS,
        RouterPolicy::Disaggregated { prefill_fraction: 0.25 },
    );
    cfg.workload.seed = seed;
    cfg
}

fn serving(t: &mut Tracer, p: &mut Probes) {
    let cfg = serving_config(SERVING_SEED);
    let ns =
        t.call("serving.workload.generate", || time_ns(3, 1, || workload::generate(&cfg.workload)));
    p.put("serving.workload.generate_ns", ns);

    let (r, took) = t.timed("serving.run", || run(&cfg));
    p.put("serving.run.busy_s", took.as_secs_f64());
    p.put("serving.run.decode_steps", r.decode_steps as f64);
    p.put("serving.run.ns_per_decode_step", took.as_nanos() as f64 / r.decode_steps.max(1) as f64);
    p.require(r.completed + r.dropped == r.requests, || {
        format!("serving run settled {} + {} of {}", r.completed, r.dropped, r.requests)
    });

    let plan = FaultPlan::generate(&FaultPlanConfig {
        seed: 1,
        horizon_ms: 3_600_000.0,
        crash_mtbf_ms: 60_000.0,
        crash_repair_ms: 4_000.0,
        flap_mtbf_ms: 80_000.0,
        straggler_mtbf_ms: 100_000.0,
        sdc_mtbf_ms: 100_000.0,
        ..FaultPlanConfig::default()
    });
    let (f, took) = t.timed("serving.run_with_faults", || {
        run_with_faults(&cfg, &plan, &RecoveryPolicy::default())
    });
    p.put("serving.run_with_faults.busy_s", took.as_secs_f64());
    p.put("serving.run_with_faults.decode_steps", f.serving.decode_steps as f64);

    let mut twice = cfg.clone();
    twice.workload.arrival = ArrivalProcess::Poisson { rate_per_s: 2.0 * overload::CAPACITY_RPS };
    let ov = OverloadConfig {
        admission: Some(AdmissionConfig::default()),
        ladder: Some(LadderConfig::default()),
        clients: Some(ClientConfig::default()),
        autoscale: Some(AutoscaleConfig::reactive(4, 4)),
        ..OverloadConfig::disabled()
    };
    let pool = FaultPlan { replicas: 4, ..FaultPlan::healthy() };
    let (o, took) = t.timed("serving.run_overload", || {
        run_overload(&twice, &pool, &RecoveryPolicy::default(), &ov)
    });
    p.put("serving.run_overload.busy_s", took.as_secs_f64());
    p.put("serving.run_overload.decode_steps", o.serving.decode_steps as f64);
}

fn audit(t: &mut Tracer, p: &mut Probes) {
    let s = overload::seed();
    let mut rec = Recorder::new();
    let (traced, traced_took) =
        t.timed("core.overload.run_seeded_traced", || overload::run_seeded_traced(s, &mut rec));
    let (plain, plain_took) = t.timed("core.overload.run_seeded", || overload::run_seeded(s));
    p.put("core.overload.run_seeded_traced.busy_s", traced_took.as_secs_f64());
    p.put("core.overload.run_seeded.busy_s", plain_took.as_secs_f64());
    p.put("telemetry.record.overhead_s", traced_took.as_secs_f64() - plain_took.as_secs_f64());
    p.require(traced == plain, || String::from("recording changed the overload report"));
    let (_, took) =
        t.timed("telemetry.evaluate", || evaluate("overload", &rec, &WatchConfig::default()));
    p.put("telemetry.evaluate.busy_s", took.as_secs_f64());
    let (trace, took) = t.timed("telemetry.export_trace", || rec.export_trace());
    p.put("telemetry.export_trace.busy_s", took.as_secs_f64());
    let (json, took) = t.timed("telemetry.trace_to_json", || trace.to_json());
    p.put("telemetry.trace_to_json.busy_s", took.as_secs_f64());
    p.put("telemetry.trace_events", trace.traceEvents.len() as f64);
    p.put("telemetry.trace_bytes", json.len() as f64);
    p.require(rec.dropped_events() == 0, || {
        format!("recorder dropped {} events", rec.dropped_events())
    });
}

fn registry_entries(t: &mut Tracer, p: &mut Probes) {
    let entries = registry();
    for name in REGISTRY_REST {
        let Some(e) = entries.iter().find(|e| e.name == name) else {
            p.problems.push(format!("registry has no entry '{name}'"));
            continue;
        };
        let (_, took) = t.timed(&format!("core.{name}"), || (e.render)().to_string());
        p.put(format!("core.{name}.busy_s"), took.as_secs_f64());
    }
}
