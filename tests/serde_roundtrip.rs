//! Serde round-trip coverage (C-SERDE): the experiment result rows and the
//! core data structures survive JSON serialization, so downstream tooling
//! can consume `dsv3 --json` output reliably.

use dsv3_core::experiments::*;
use dsv3_core::telemetry::Recorder;
use serde::de::DeserializeOwned;
use serde::Serialize;

fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(v: &T) {
    let json = serde_json::to_string(v).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(&back, v);
}

#[test]
fn experiment_rows_roundtrip() {
    roundtrip(&table1::run());
    roundtrip(&table2::run());
    roundtrip(&table3::run());
    roundtrip(&table5::run());
    roundtrip(&speed_limits::run());
    roundtrip(&mtp::run());
    roundtrip(&node_limited::run(50));
    roundtrip(&local_deploy::run());
    roundtrip(&future_hardware::run());
}

#[test]
fn substrate_types_roundtrip() {
    use dsv3_core::model::moe::{route, MoeGateConfig};
    use dsv3_core::model::zoo;
    use dsv3_core::netsim::LatencyParams;
    use dsv3_core::numerics::minifloat::Format;
    use dsv3_core::topology::cost::CostModel;

    roundtrip(&zoo::deepseek_v3());
    roundtrip(&zoo::table_models());
    roundtrip(&Format::E4M3);
    roundtrip(&LatencyParams::INFINIBAND);
    roundtrip(&CostModel::default());
    roundtrip(&MoeGateConfig::deepseek_v3());
    let scores = vec![0.5f32; 256];
    roundtrip(&route(&scores, None, &MoeGateConfig::deepseek_v3()));
    roundtrip(&dsv3_core::HardwareProfile::h800());
    roundtrip(&dsv3_core::Table::new("t", &["a"]));
}

#[test]
fn serving_types_roundtrip() {
    use dsv3_core::inference::kvcache::CacheError;
    use dsv3_core::serving::{
        run, ArrivalProcess, LengthDistribution, MtpSpec, RouterPolicy, ServingSimConfig,
        SloConfig, Summary,
    };

    // Configs: every arrival process and router policy variant.
    let mut cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Bursty { rate_per_s: 9.0, burstiness: 4.0 },
        64,
        RouterPolicy::Disaggregated { prefill_fraction: 0.4 },
    );
    cfg.engine.mtp = Some(MtpSpec { modules: 1, acceptance: 0.85, step_overhead: 0.02 });
    roundtrip(&cfg);
    roundtrip(&ArrivalProcess::Poisson { rate_per_s: 5.0 });
    roundtrip(&ArrivalProcess::Trace { interarrival_ms: vec![5.0, 10.0, 0.5] });
    roundtrip(&RouterPolicy::Unified);
    roundtrip(&LengthDistribution::fixed(256));
    roundtrip(&SloConfig { ttft_ms: 1500.0, tpot_ms: 40.0 });
    roundtrip(&Summary::of(&mut [3.0, 1.0, 2.0]));

    // The full report (and, transitively, every Summary inside it).
    let report = run(&ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 10.0 },
        64,
        RouterPolicy::Unified,
    ));
    roundtrip(&report);
    roundtrip(&dsv3_core::experiments::serving::run(&mut Recorder::disabled()));

    // KvCacheManager-adjacent error type, all variants.
    roundtrip(&CacheError::OutOfMemory { requested: 4096, free: 128 });
    roundtrip(&CacheError::DuplicateRequest);
    roundtrip(&CacheError::UnknownRequest);
}

#[test]
fn fault_types_roundtrip() {
    use dsv3_core::collectives::failures::{FlapSchedule, PlaneFlap};
    use dsv3_core::faults::{
        simulate_goodput, Backoff, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig,
        RecoveryPolicy,
    };
    use dsv3_core::model::availability::AvailabilityModel;
    use dsv3_core::serving::{run_with_faults, ArrivalProcess, RouterPolicy, ServingSimConfig};

    // Plans: empty, generated, and every event-kind variant explicitly.
    roundtrip(&FaultPlan::healthy());
    // Every MTBF must be finite here: JSON has no Infinity, so a config
    // with a disabled (INFINITY) class is not JSON-representable.
    let cfg = FaultPlanConfig {
        seed: 11,
        horizon_ms: 30_000.0,
        crash_mtbf_ms: 8_000.0,
        flap_mtbf_ms: 10_000.0,
        straggler_mtbf_ms: 12_000.0,
        sdc_mtbf_ms: 15_000.0,
        links: 16,
        link_mtbf_ms: 9_000.0,
        ..FaultPlanConfig::default()
    };
    roundtrip(&cfg);
    roundtrip(&FaultPlan::generate(&cfg));
    for kind in [
        FaultKind::ReplicaCrash { replica: 2, repair_ms: 4_000.0 },
        FaultKind::PlaneFlap { plane: 5, repair_ms: 2_500.0 },
        FaultKind::Straggler { slowdown: 1.8, duration_ms: 3_000.0 },
        FaultKind::Sdc { detected: false },
        FaultKind::LinkFail { link: 2, repair_ms: 2_000.0 },
    ] {
        roundtrip(&FaultEvent { at_ms: 123.5, kind });
    }

    // Recovery and availability knobs.
    roundtrip(&Backoff::default());
    roundtrip(&RecoveryPolicy::hedged());
    let av = AvailabilityModel { mtbf_s: 3_600.0, checkpoint_write_s: 60.0, restart_s: 180.0 };
    roundtrip(&av);
    let goodput = simulate_goodput(&av, av.young_daly_interval_s(), &[500.0, 4_000.0], 10_000.0)
        .expect("valid interval and sorted timeline");
    roundtrip(&goodput);

    // Flap schedules from collectives::failures.
    let flap = PlaneFlap { plane: 3, down_at_ms: 100.0, repair_ms: 50.0 };
    roundtrip(&flap);
    roundtrip(&FlapSchedule { planes: 8, flaps: vec![flap] });

    // Link-granular chaos: the schedule bridge and the chaos engine's
    // config/report types, plus the net-chaos experiment report.
    use dsv3_core::netsim::chaos::{ChaosConfig, ReroutePolicy};
    use dsv3_core::netsim::{ChaosSim, Link};
    let sched = FaultPlan::generate(&cfg).link_schedule();
    assert!(!sched.is_empty(), "roundtrip config should generate link faults");
    roundtrip(&sched);
    let chaos_cfg = ChaosConfig {
        schedule: sched,
        policy: ReroutePolicy::StaticRehash { seed: 9 },
        ..ChaosConfig::default()
    };
    roundtrip(&chaos_cfg);
    // One link per schedule-addressable id (`cfg.links`), so the run
    // accepts the schedule; the flow only uses the first two.
    let mut sim = ChaosSim::new(vec![Link { capacity_gbps: 40.0 }; 16]);
    sim.add_flow(vec![vec![0], vec![1]], 1e6, 0.0, 2.0);
    roundtrip(&sim.run(&chaos_cfg));
    roundtrip(&net_chaos::run(net_chaos::seed(), &mut Recorder::disabled()));

    // The full fault-aware serving report and the fault_drill rows.
    let sim = ServingSimConfig::h800_baseline(
        ArrivalProcess::Poisson { rate_per_s: 10.0 },
        64,
        RouterPolicy::Unified,
    );
    let plan = FaultPlan::generate(&FaultPlanConfig {
        seed: 3,
        horizon_ms: 20_000.0,
        crash_mtbf_ms: 6_000.0,
        crash_repair_ms: 2_000.0,
        ..FaultPlanConfig::default()
    });
    let report = run_with_faults(&sim, &plan, &RecoveryPolicy::hedged());
    roundtrip(&report.faults);
    roundtrip(&report);
    roundtrip(&fault_drill::run(fault_drill::seed(), &mut Recorder::disabled()));
}

#[test]
fn overload_types_roundtrip() {
    use dsv3_core::faults::{Backoff, FaultPlan, RecoveryPolicy};
    use dsv3_core::serving::{
        run_overload, AdmissionConfig, ArrivalProcess, AutoscaleConfig, BreakerConfig,
        ClientConfig, LadderConfig, OverloadConfig, Phase, RateLimitConfig, RouterPolicy, Rung,
        ServingSimConfig,
    };

    // Configs: every overload knob turned on at once, plus the phased
    // arrival process the spike arms use.
    let ov = OverloadConfig {
        admission: Some(AdmissionConfig {
            queue_cap: 64,
            deadline_headroom: 1.5,
            rate_limit: Some(RateLimitConfig { rate_per_s_per_replica: 2.0, burst: 16.0 }),
        }),
        ladder: Some(LadderConfig {
            rungs: vec![Rung {
                disable_mtp: true,
                batch_cap_factor: 0.5,
                context_cap_tokens: 1_024,
                shed_below_priority: 2,
            }],
            high_pressure: 0.7,
            low_pressure: 0.2,
            dwell_ms: 1_500.0,
        }),
        clients: Some(ClientConfig {
            timeout_ms: 3_000.0,
            retry_budget: 2,
            backoff: Backoff::default().jittered(),
        }),
        autoscale: Some(AutoscaleConfig {
            breaker: Some(BreakerConfig::default()),
            ..AutoscaleConfig::reactive(4, 4)
        }),
        priority_classes: 4,
        timeline_window_ms: 5_000.0,
    };
    roundtrip(&ov);
    roundtrip(&OverloadConfig::disabled());
    roundtrip(&Phase { duration_ms: 10_000.0, rate_per_s: 12.0 });

    // The full overload report: serving + faults + overload + autoscale
    // stats and the goodput timeline, exercised with every subsystem live.
    let cfg = ServingSimConfig::h800_baseline(
        ArrivalProcess::Phased {
            phases: vec![
                Phase { duration_ms: 5_000.0, rate_per_s: 8.0 },
                Phase { duration_ms: 5_000.0, rate_per_s: 24.0 },
            ],
        },
        120,
        RouterPolicy::Disaggregated { prefill_fraction: 0.25 },
    );
    let plan = FaultPlan { replicas: 4, planes: 8, links: 0, events: Vec::new() };
    let report = run_overload(&cfg, &plan, &RecoveryPolicy::default(), &ov);
    assert!(!report.timeline.is_empty(), "windowed goodput should be recorded");
    roundtrip(&report.overload);
    roundtrip(&report.autoscale);
    roundtrip(&report);

    // The registry experiment's full report.
    roundtrip(&overload::run_seeded(overload::seed()));
}

#[test]
fn memtl_types_roundtrip() {
    use dsv3_core::memtl::{
        analytic_1f1b, largest_fitting, simulate, FrontierQuery, GpuSpec, MemPlan, Offload,
        Recompute, ScheduleKind, ZeroStage,
    };
    use dsv3_core::model::zoo;

    // Plans: the production constructor, the naive foil, and a plan with
    // every non-default knob turned (Z3, full recompute, offload, 1F1B).
    roundtrip(&MemPlan::deepseek_v3_production());
    roundtrip(&MemPlan::naive());
    let turned = MemPlan {
        zero_stage: ZeroStage::Z3,
        recompute: Recompute::Full,
        offload: Offload::OptimizerCpu { pcie_gbps: 32.0 },
        schedule: ScheduleKind::OneFOneB,
        ..MemPlan::deepseek_v3_production()
    };
    roundtrip(&turned);
    roundtrip(&GpuSpec::h800());

    // Reports: the walked timeline (per-rank rows inside), the analytic
    // curves, and a frontier row.
    let cfg = zoo::deepseek_v3();
    roundtrip(&simulate(&cfg, &turned));
    roundtrip(&analytic_1f1b(&cfg, &turned));
    let q = FrontierQuery { gpus: 128, spec: GpuSpec::h800() };
    roundtrip(&q);
    roundtrip(&largest_fitting(&cfg, &MemPlan::deepseek_v3_production(), &q));

    // The registry experiment's full report.
    roundtrip(&mem_timeline::run(&mut Recorder::disabled()));
}

#[test]
fn resilience_types_roundtrip() {
    use dsv3_core::experiments::resilience;
    use dsv3_core::faults::{
        generate_failures, simulate_resilience, CheckpointBytes, CheckpointStack, CheckpointTier,
        ComponentMtbf, FleetComponent, FleetFailure, FleetSpec, RecoveryKind, ResilienceConfig,
        ResilienceError, SdcConfig, TrainingSimError,
    };
    use dsv3_core::parallel::TrainStepConfig;

    // Tier specs: every stock tier plus both stack constructors.
    for tier in
        [CheckpointTier::device(), CheckpointTier::host_ram(), CheckpointTier::remote_store(2.0)]
    {
        roundtrip(&tier);
    }
    roundtrip(&CheckpointStack::tiered());
    roundtrip(&CheckpointStack::single_sync_remote(20.0));
    roundtrip(&CheckpointBytes { write_bytes: 0.53e9, restore_bytes: 5.73e9 });

    // Recovery policies, all variants (ElasticShrink carries the grid).
    roundtrip(&RecoveryKind::ColdRestart);
    roundtrip(&RecoveryKind::SparePool { spares: 32, provision_s: 30.0 });
    roundtrip(&RecoveryKind::ElasticShrink {
        replan_s: 60.0,
        train: Box::new(TrainStepConfig::deepseek_v3(1.0)),
        ep: 64,
    });

    // SDC knobs. Every rate must be finite here: JSON has no Infinity,
    // so the disabled() (INFINITY-MTBF) form is not JSON-representable.
    roundtrip(&SdcConfig {
        mtbf_s: 86_400.0,
        detection_mean_s: 7_200.0,
        verify_every: 20,
        verify_cost_s: 30.0,
    });

    // Fleet MTBF table, shape, and a timeline slice.
    roundtrip(&ComponentMtbf::production());
    let spec = FleetSpec::with_gpus(16_384);
    roundtrip(&spec);
    let failures = generate_failures(&spec, &ComponentMtbf::production(), 7, 86_400.0);
    assert!(!failures.is_empty(), "a day at 16k GPUs should see failures");
    roundtrip(&failures);
    for c in FleetComponent::ALL {
        roundtrip(&FleetFailure { at_s: 123.5, component: c });
    }

    // A full config and the report a real run produces.
    let cfg = ResilienceConfig {
        interval_s: 600.0,
        ckpt: CheckpointBytes { write_bytes: 0.53e9, restore_bytes: 5.73e9 },
        stack: CheckpointStack::tiered(),
        recovery: RecoveryKind::SparePool { spares: 64, provision_s: 30.0 },
        sdc: SdcConfig {
            mtbf_s: 86_400.0 * 7.0,
            detection_mean_s: 3_600.0,
            verify_every: 10,
            verify_cost_s: 30.0,
        },
        restart_s: 180.0,
        repair_s: 21_600.0,
        gpus_per_failure: 8,
        horizon_s: 86_400.0 * 7.0,
        seed: 11,
    };
    roundtrip(&cfg);
    let report = simulate_resilience(&cfg, &failures).expect("valid config");
    roundtrip(&report.waste);
    roundtrip(&report);

    // Error enums from both the legacy and the resilience walkers.
    roundtrip(&TrainingSimError::NonPositiveInterval { interval_s: -1.0 });
    roundtrip(&TrainingSimError::UnsortedTimeline { index: 3 });
    roundtrip(&ResilienceError::NonPositiveInterval { interval_s: 0.0 });
    roundtrip(&ResilienceError::InvalidStack { reason: "empty".into() });

    // The registry experiment's full sweep report.
    roundtrip(&resilience::run(&mut Recorder::disabled()));
}

#[test]
fn json_is_stable_for_known_values() {
    // A spot-check that field names stay consumer-friendly.
    let rows = table1::run();
    let json = serde_json::to_string(&rows).expect("serialize");
    assert!(json.contains("\"kv_cache_kb\":70.272"));
    assert!(json.contains("\"multiplier\":1.0"));
}
