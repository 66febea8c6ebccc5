//! End-to-end checks: every experiment runner reproduces its paper
//! artifact's *shape* (who wins, by roughly what factor, where crossovers
//! fall). These are the acceptance tests of EXPERIMENTS.md.

use dsv3_core::experiments::*;

#[test]
fn table1_kv_cache_matches_paper_exactly() {
    let rows = table1::run();
    let vals: Vec<f64> = rows.iter().map(|r| r.kv_cache_kb).collect();
    assert_eq!(vals, vec![70.272, 327.680, 516.096]);
    assert!((rows[1].multiplier - 4.66).abs() < 0.01);
    assert!((rows[2].multiplier - 7.34).abs() < 0.01);
}

#[test]
fn table2_flops_within_tolerance() {
    let rows = table2::run();
    let by = |n: &str| rows.iter().find(|r| r.model.contains(n)).unwrap();
    assert!((by("V2").gflops_per_token - 155.0).abs() / 155.0 < 0.05);
    assert!((by("V3").gflops_per_token - 250.0).abs() / 250.0 < 0.05);
    assert!((by("Qwen").gflops_per_token - 394.0).abs() / 394.0 < 0.15);
    assert!((by("LLaMA").gflops_per_token - 2448.0).abs() / 2448.0 < 0.05);
    assert!((by("V2").size_b - 236.0).abs() < 5.0);
    assert!((by("V3").size_b - 671.0).abs() < 5.0);
}

#[test]
fn table3_counts_exact_costs_close() {
    let rows = table3::run();
    let by = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
    for (name, ep, cost) in [
        ("FT2", 2048, 9.0),
        ("MPFT", 16_384, 72.0),
        ("FT3", 65_536, 491.0),
        ("SF", 32_928, 146.0),
        ("DF", 261_632, 1522.0),
    ] {
        let r = by(name);
        assert_eq!(r.endpoints, ep, "{name}");
        assert!((r.cost_musd - cost).abs() / cost < 0.02, "{name}: {} vs {cost}", r.cost_musd);
    }
    // Ordering takeaway: FT2/MPFT/SF cheapest per endpoint, then DF, then FT3.
    assert!(by("MPFT").cost_per_endpoint_kusd < by("DF").cost_per_endpoint_kusd);
    assert!(by("DF").cost_per_endpoint_kusd < by("FT3").cost_per_endpoint_kusd);
}

#[test]
fn table4_training_metrics_shape() {
    let (mpft, mrft) = table4::run();
    assert!((mpft.time_per_step_s - 19.926).abs() < 1.0);
    assert!((mpft.tokens_per_day_b - 272.8).abs() < 15.0);
    assert!((mpft.mfu_causal - 0.3894).abs() < 0.02);
    assert!((mpft.mfu_noncausal - 0.4373).abs() < 0.02);
    assert_eq!(mpft.time_per_step_s, mrft.time_per_step_s, "fabrics tie");
    let sum = mpft.f1_s + mpft.b1_s + mpft.w1_s + mpft.f1b1_s + mpft.bubble_s + mpft.opt_s;
    assert!((sum - mpft.time_per_step_s).abs() < 1e-9);
}

#[test]
fn table5_latencies_exact() {
    let rows = table5::run();
    let by = |n: &str| rows.iter().find(|r| r.link_layer == n).unwrap();
    assert!((by("InfiniBand").same_leaf_us - 2.8).abs() < 1e-9);
    assert!((by("InfiniBand").cross_leaf_us.unwrap() - 3.7).abs() < 1e-9);
    assert!((by("RoCE").same_leaf_us - 3.6).abs() < 1e-9);
    assert!((by("RoCE").cross_leaf_us.unwrap() - 5.6).abs() < 1e-9);
    assert!((by("NVLink").same_leaf_us - 3.33).abs() < 1e-9);
}

#[test]
fn fig5_mpft_mrft_parity_and_saturation() {
    for p in fig5::run() {
        let rel = (p.mpft_busbw - p.mrft_busbw).abs() / p.mpft_busbw.max(1e-9);
        assert!(rel < 0.02, "{} GPUs {}B: {rel}", p.gpus, p.bytes_per_peer);
        if p.bytes_per_peer >= 1_048_576.0 {
            assert!(p.mpft_busbw > 40.0, "{}", p.mpft_busbw);
        }
    }
}

#[test]
fn fig6_latency_parity() {
    let pts = fig6::run();
    for p in &pts {
        assert!((p.mpft_us - p.mrft_us).abs() / p.mpft_us < 0.02);
    }
    assert!(pts[0].mpft_us < 6.0, "small-message floor {}", pts[0].mpft_us);
}

#[test]
fn fig7_deepep_throughput() {
    let pts = fig7::run(512);
    for p in &pts[1..] {
        assert!(p.dispatch_gbps > 40.0, "{} GPUs: {}", p.gpus, p.dispatch_gbps);
        assert!(p.combine_gbps > 40.0, "{} GPUs: {}", p.gpus, p.combine_gbps);
    }
}

#[test]
fn fig8_routing_ordering() {
    let pts = fig8::run();
    for coll in ["AllGather", "ReduceScatter"] {
        for tp in [4usize, 8, 16] {
            let by = |pol: &str| {
                pts.iter()
                    .find(|p| p.collective == coll && p.tp == tp && p.policy == pol)
                    .unwrap()
                    .busbw_gbps
            };
            assert!(by("AR") > 1.5 * by("ECMP"), "{coll} tp={tp}");
            assert!(by("Static") >= by("ECMP"), "{coll} tp={tp}");
        }
    }
}

#[test]
fn speed_limits_match_paper() {
    let rows = speed_limits::run();
    assert!((rows[0].limit.comm_time_us - 120.96).abs() < 0.01);
    assert!((rows[0].limit.tpot_ms - 14.76).abs() < 0.01);
    assert!((rows[0].limit.tokens_per_second - 67.0).abs() < 1.0);
    assert!((rows[1].limit.comm_time_us - 6.72).abs() < 0.01);
    assert!(rows[1].limit.tokens_per_second > 1190.0);
}

#[test]
fn mtp_gives_1_8x_in_paper_band() {
    for r in mtp::run() {
        if (0.8..=0.9).contains(&r.acceptance) {
            assert!((1.7..2.0).contains(&r.speedup), "{}", r.speedup);
        }
    }
}

#[test]
fn fp8_gemm_accumulation_story() {
    let rows = fp8_gemm::run(&[512, 8192]);
    assert!(rows[1].acc_err_fp22 > rows[0].acc_err_fp22);
    for r in &rows {
        assert!(r.acc_err_split < r.acc_err_fp22);
    }
}

#[test]
fn logfmt_quality_ordering() {
    let rows = logfmt::run();
    let by = |n: &str| rows.iter().find(|r| r.format.starts_with(n)).unwrap().rel_rmse;
    assert!(by("LogFMT-8") < by("E4M3"));
    assert!(by("LogFMT-8") < by("E5M2"));
    assert!(by("LogFMT-10") < 4.0 * by("BF16"));
}

#[test]
fn node_limited_traffic_scales_with_m() {
    let rows = node_limited::run(400);
    assert!(rows[3].ib_time_vs_no_dedup <= 0.5 + 1e-9, "M=4 halves IB traffic");
    for r in &rows {
        assert!(r.mean_nodes_touched <= r.max_nodes as f64 + 1e-9);
    }
}

#[test]
fn local_deploy_moe_advantage() {
    let rows = local_deploy::run();
    let tps = |h: &str, m: &str| {
        rows.iter().find(|r| r.hardware.contains(h) && r.model.contains(m)).unwrap().tps
    };
    assert!(tps("AI-SoC", "V2") > 15.0, "MoE ~20 TPS on a PC");
    assert!(tps("AI-SoC", "Dense-70B") < 10.0, "dense 70B single digit");
}
