//! EP dispatch / combine kernels with node-limited routing (Figure 7, §4.3).
//!
//! Dispatch sends each token's activations (FP8, 1 byte/element) to the
//! nodes hosting its experts — **once per node**, deduplicated, then fanned
//! out over NVLink inside the destination node. Combine returns the expert
//! outputs (BF16, 2 bytes/element) along the reverse path. The inter-node
//! copies per token therefore scale with the number of nodes touched (`M`,
//! capped at 4 by the gate) rather than with the 8 routed experts — the
//! §4.3 bandwidth argument.

use crate::{Cluster, CollectiveReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Expert-parallel communication workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpConfig {
    /// Tokens processed per GPU (Figure 7 uses 4096).
    pub tokens_per_gpu: usize,
    /// Hidden size in elements (~7K for DeepSeek-V3).
    pub hidden: usize,
    /// Routed experts per token.
    pub top_k: usize,
    /// Maximum distinct nodes per token (the gate's node limit).
    pub max_nodes: usize,
    /// Routing seed.
    pub seed: u64,
}

impl EpConfig {
    /// DeepSeek-V3 production shape.
    #[must_use]
    pub fn deepseek_v3() -> Self {
        Self { tokens_per_gpu: 4096, hidden: 7168, top_k: 8, max_nodes: 4, seed: 7 }
    }
}

/// Aggregated EP traffic matrices for one dispatch round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpTraffic {
    /// `ib[src_node][dst_node]` = deduplicated token copies crossing IB.
    pub ib_copies: Vec<Vec<u64>>,
    /// `nvl[node][src_local][dst_local]` = intra-node token copies (both
    /// local deliveries and post-IB fan-out).
    pub nvl_copies: Vec<Vec<Vec<u64>>>,
    /// Total token→expert assignments (for conservation checks).
    pub assignments: u64,
    /// Mean nodes touched per token.
    pub mean_nodes_touched: f64,
}

/// Generate node-limited routed traffic for every token on every GPU.
///
/// Each token picks `min(max_nodes, nodes)` distinct target nodes uniformly,
/// then spreads its `top_k` experts across those nodes on uniformly chosen
/// GPUs (each GPU hosts a distinct expert group).
///
/// # Panics
///
/// Panics if `top_k < max_nodes` would leave a chosen node without experts
/// (we require `top_k ≥ max_nodes`), the config is degenerate, or a node
/// has more than 64 GPUs (the per-token GPU set is a `u64` mask).
#[must_use]
// Indices are semantic node/GPU ids shared across several nested matrices;
// iterator rewrites obscure which matrix each id addresses.
#[allow(clippy::needless_range_loop)]
pub fn generate_traffic(cluster: &Cluster, cfg: &EpConfig) -> EpTraffic {
    let nodes = cluster.cfg.nodes;
    let locals = cluster.cfg.gpus_per_node;
    assert!(cfg.top_k >= cfg.max_nodes, "top_k must cover max_nodes");
    assert!(cfg.tokens_per_gpu > 0 && cfg.hidden > 0, "degenerate workload");
    assert!(locals <= 64, "at most 64 GPUs per node, got {locals}");
    let m = cfg.max_nodes.min(nodes);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ib = vec![vec![0u64; nodes]; nodes];
    let mut nvl = vec![vec![vec![0u64; locals]; locals]; nodes];
    let all_nodes: Vec<usize> = (0..nodes).collect();
    let mut order = all_nodes.clone();
    let mut experts_on = vec![0u64; m];
    for src_node in 0..nodes {
        for src_local in 0..locals {
            for _ in 0..cfg.tokens_per_gpu {
                // Node-limited target set.
                order.copy_from_slice(&all_nodes);
                order.shuffle(&mut rng);
                let targets = &order[..m];
                // Spread top_k experts: one guaranteed per target node, the
                // rest uniform over targets.
                experts_on.fill(1);
                for _ in m..cfg.top_k {
                    experts_on[rng.gen_range(0..m)] += 1;
                }
                // Per distinct destination node: one IB copy (dedup), then
                // NVLink fan-out from the same-plane landing GPU (the source
                // GPU itself for a local target) to each expert GPU.
                for (&t, &k) in targets.iter().zip(&experts_on) {
                    if t != src_node {
                        ib[src_node][t] += 1;
                    }
                    // The token is copied once per *distinct* expert GPU on
                    // this node (two experts on one GPU share the copy).
                    let mut mask = 0u64;
                    for _ in 0..k {
                        mask |= 1 << rng.gen_range(0..locals);
                    }
                    fan_out(&mut nvl[t][src_local], mask, src_local);
                }
            }
        }
    }
    // Every token touches exactly `m` nodes and places all `top_k` experts.
    EpTraffic {
        ib_copies: ib,
        nvl_copies: nvl,
        assignments: (nodes * locals * cfg.tokens_per_gpu * cfg.top_k) as u64,
        mean_nodes_touched: m as f64,
    }
}

/// Count one NVLink copy from `src_local` to every other GPU in `mask`.
fn fan_out(row: &mut [u64], mut mask: u64, src_local: usize) {
    mask &= !(1 << src_local);
    while mask != 0 {
        row[mask.trailing_zeros() as usize] += 1;
        mask &= mask - 1;
    }
}

/// Build an [`EpTraffic`] from explicit per-token destinations (as produced
/// by a real gate): `tokens[gpu]` lists, for each token on that GPU, the
/// `(node, local_gpu)` of every routed expert. Deduplication and NVLink
/// fan-out follow the same rules as [`generate_traffic`].
///
/// # Panics
///
/// Panics if a destination is out of range or a node has more than 64 GPUs.
#[must_use]
pub fn traffic_from_routings(cluster: &Cluster, tokens: &[Vec<Vec<(usize, usize)>>]) -> EpTraffic {
    let nodes = cluster.cfg.nodes;
    let locals = cluster.cfg.gpus_per_node;
    assert_eq!(tokens.len(), cluster.cfg.gpus(), "one token list per GPU");
    assert!(locals <= 64, "at most 64 GPUs per node, got {locals}");
    let mut ib = vec![vec![0u64; nodes]; nodes];
    let mut nvl = vec![vec![vec![0u64; locals]; locals]; nodes];
    let mut assignments = 0u64;
    let mut nodes_touched_total = 0u64;
    let mut n_tokens = 0u64;
    for (gpu, per_gpu) in tokens.iter().enumerate() {
        let src_node = cluster.node_of(gpu);
        let src_local = gpu % locals;
        for dests in per_gpu {
            n_tokens += 1;
            let mut target_nodes: Vec<usize> = dests.iter().map(|&(n, _)| n).collect();
            target_nodes.sort_unstable();
            target_nodes.dedup();
            nodes_touched_total += target_nodes.len() as u64;
            for &t in &target_nodes {
                assert!(t < nodes, "node {t} out of range");
                if t != src_node {
                    ib[src_node][t] += 1;
                }
                let mut mask = 0u64;
                for &(n, l) in dests {
                    assert!(l < locals, "local gpu {l} out of range");
                    if n == t {
                        assignments += 1;
                        mask |= 1 << l;
                    }
                }
                fan_out(&mut nvl[t][src_local], mask, src_local);
            }
        }
    }
    EpTraffic {
        ib_copies: ib,
        nvl_copies: nvl,
        assignments,
        mean_nodes_touched: nodes_touched_total as f64 / n_tokens.max(1) as f64,
    }
}

/// Simulate one dispatch (or combine) round and report per-GPU bandwidth.
///
/// `bytes_per_copy` is the per-token message size: `hidden × 1` for FP8
/// dispatch, `hidden × 2` for BF16 combine (combine reverses the traffic
/// matrix, which is statistically symmetric here).
#[must_use]
pub fn run_round(cluster: &Cluster, traffic: &EpTraffic, bytes_per_copy: f64) -> CollectiveReport {
    let nodes = cluster.cfg.nodes;
    let locals = cluster.cfg.gpus_per_node;
    let mut sim = cluster.sim();
    let mut total_ib_bytes = 0f64;
    for a in 0..nodes {
        for b in 0..nodes {
            let copies = traffic.ib_copies[a][b];
            if a != b && copies > 0 {
                // DeepEP stripes a node's traffic across all its NICs/planes.
                let bytes = copies as f64 * bytes_per_copy;
                total_ib_bytes += bytes;
                for p in 0..locals {
                    let (path, lat) = cluster.plane_path(a, b, p);
                    sim.add_flow(path, bytes / locals as f64, 0.0, lat);
                }
            }
        }
    }
    for n in 0..nodes {
        for i in 0..locals {
            for j in 0..locals {
                let copies = traffic.nvl_copies[n][i][j];
                if i != j && copies > 0 {
                    let (path, lat) = cluster.nvlink_path(cluster.gpu(n, i), cluster.gpu(n, j));
                    sim.add_flow(path, copies as f64 * bytes_per_copy, 0.0, lat);
                }
            }
        }
    }
    let r = sim.run();
    let time_us = r.makespan_us;
    let per_gpu = total_ib_bytes / cluster.cfg.gpus() as f64;
    let algbw = per_gpu / (time_us * 1000.0);
    CollectiveReport { time_us, algbw_gbps: algbw, busbw_gbps: algbw }
}

/// Figure 7 point: dispatch and combine bandwidth at one cluster size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeepEpPoint {
    /// GPUs participating.
    pub gpus: usize,
    /// FP8 dispatch per-GPU IB bandwidth (GB/s).
    pub dispatch_gbps: f64,
    /// BF16 combine per-GPU IB bandwidth (GB/s).
    pub combine_gbps: f64,
}

/// Run dispatch + combine at one cluster size.
#[must_use]
pub fn deepep_point(cluster: &Cluster, cfg: &EpConfig) -> DeepEpPoint {
    let traffic = generate_traffic(cluster, cfg);
    let dispatch = run_round(cluster, &traffic, cfg.hidden as f64);
    let combine = run_round(cluster, &traffic, 2.0 * cfg.hidden as f64);
    DeepEpPoint {
        gpus: cluster.cfg.gpus(),
        dispatch_gbps: dispatch.algbw_gbps,
        combine_gbps: combine.algbw_gbps,
    }
}

/// §4.3 analysis: average inter-node copies per token with and without
/// NVLink deduplication. Without dedup every remote *expert* costs an IB
/// transfer; with dedup every remote *node* does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DedupAnalysis {
    /// Mean IB copies per token with node-limited dedup (`≈ M · (n−1)/n`).
    pub with_dedup: f64,
    /// Mean IB copies per token without dedup (`≈ top_k · (n−1)/n`).
    pub without_dedup: f64,
}

/// Compute the dedup factor for a routed traffic sample.
#[must_use]
pub fn dedup_analysis(cluster: &Cluster, cfg: &EpConfig) -> DedupAnalysis {
    let nodes = cluster.cfg.nodes as f64;
    let m = cfg.max_nodes.min(cluster.cfg.nodes) as f64;
    let remote_fraction = (nodes - 1.0) / nodes;
    // Uniform target choice: each of the M nodes is remote w.p. (n-1)/n.
    let with_dedup = m * remote_fraction;
    let without_dedup = cfg.top_k as f64 * remote_fraction;
    DedupAnalysis { with_dedup, without_dedup }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, FabricKind};

    fn cluster(nodes: usize) -> Cluster {
        Cluster::new(ClusterConfig::h800(nodes, FabricKind::MultiPlane))
    }

    fn small_cfg() -> EpConfig {
        EpConfig { tokens_per_gpu: 256, ..EpConfig::deepseek_v3() }
    }

    /// The generator before its branch-light rewrite: two `Vec` clones per
    /// token, then a scan of every expert node and every local GPU per
    /// target.
    #[allow(clippy::needless_range_loop)]
    fn generate_traffic_by_scan(cluster: &Cluster, cfg: &EpConfig) -> EpTraffic {
        let nodes = cluster.cfg.nodes;
        let locals = cluster.cfg.gpus_per_node;
        let m = cfg.max_nodes.min(nodes);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut ib = vec![vec![0u64; nodes]; nodes];
        let mut nvl = vec![vec![vec![0u64; locals]; locals]; nodes];
        let mut assignments = 0u64;
        let mut nodes_touched_total = 0u64;
        let all_nodes: Vec<usize> = (0..nodes).collect();
        for src_node in 0..nodes {
            for src_local in 0..locals {
                for _ in 0..cfg.tokens_per_gpu {
                    let mut targets = all_nodes.clone();
                    targets.shuffle(&mut rng);
                    targets.truncate(m);
                    nodes_touched_total += targets.len() as u64;
                    let mut expert_nodes: Vec<usize> = targets.clone();
                    while expert_nodes.len() < cfg.top_k {
                        expert_nodes.push(targets[rng.gen_range(0..targets.len())]);
                    }
                    for &t in &targets {
                        let landing_local = src_local;
                        if t != src_node {
                            ib[src_node][t] += 1;
                        }
                        let mut local_mask = 0u64;
                        for &en in &expert_nodes {
                            if en == t {
                                assignments += 1;
                                let expert_local = rng.gen_range(0..locals);
                                local_mask |= 1 << expert_local;
                            }
                        }
                        for expert_local in 0..locals {
                            if local_mask & (1 << expert_local) != 0 {
                                if t == src_node {
                                    if expert_local != src_local {
                                        nvl[t][src_local][expert_local] += 1;
                                    }
                                } else if expert_local != landing_local {
                                    nvl[t][landing_local][expert_local] += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        let tokens = (nodes * locals * cfg.tokens_per_gpu) as f64;
        EpTraffic {
            ib_copies: ib,
            nvl_copies: nvl,
            assignments,
            mean_nodes_touched: nodes_touched_total as f64 / tokens,
        }
    }

    fn shaped(nodes: usize, gpus_per_node: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            gpus_per_node,
            ..ClusterConfig::h800(nodes, FabricKind::MultiPlane)
        })
    }

    #[test]
    fn generate_traffic_matches_scan_oracle() {
        for nodes in 1..=17 {
            for gpus_per_node in [1, 3, 8] {
                let c = shaped(nodes, gpus_per_node);
                for max_nodes in 1..=4 {
                    for top_k in [max_nodes, 8, 13] {
                        for seed in [0, 7, 8 + nodes as u64] {
                            let cfg =
                                EpConfig { tokens_per_gpu: 5, top_k, max_nodes, seed, hidden: 1 };
                            let fast = generate_traffic(&c, &cfg);
                            let slow = generate_traffic_by_scan(&c, &cfg);
                            let at = format!("{nodes} nodes x {gpus_per_node}, {cfg:?}");
                            assert_eq!(fast, slow, "{at}");
                            assert_eq!(
                                fast.mean_nodes_touched.to_bits(),
                                slow.mean_nodes_touched.to_bits(),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 GPUs per node")]
    fn generate_traffic_rejects_wide_nodes() {
        let _ = generate_traffic(&shaped(1, 65), &small_cfg());
    }

    #[test]
    #[should_panic(expected = "at most 64 GPUs per node")]
    fn traffic_from_routings_rejects_wide_nodes() {
        let c = shaped(1, 65);
        let _ = traffic_from_routings(&c, &vec![Vec::new(); c.cfg.gpus()]);
    }

    #[test]
    fn node_limit_respected_in_traffic() {
        let c = cluster(8);
        let t = generate_traffic(&c, &small_cfg());
        assert!(t.mean_nodes_touched <= 4.0 + 1e-9);
        assert!(t.mean_nodes_touched > 3.0, "should use most of the budget");
    }

    #[test]
    fn assignments_conserved() {
        let c = cluster(4);
        let cfg = small_cfg();
        let t = generate_traffic(&c, &cfg);
        let tokens = (c.cfg.gpus() * cfg.tokens_per_gpu) as u64;
        assert_eq!(t.assignments, tokens * cfg.top_k as u64);
    }

    #[test]
    fn ib_copies_scale_with_nodes_not_experts() {
        let c = cluster(8);
        let cfg = small_cfg();
        let t = generate_traffic(&c, &cfg);
        let total_ib: u64 = t.ib_copies.iter().flatten().sum();
        let tokens = (c.cfg.gpus() * cfg.tokens_per_gpu) as f64;
        let per_token = total_ib as f64 / tokens;
        // M=4 targets, 7/8 of them remote on average: ≈ 3.5 copies/token,
        // far below the 8 an expert-per-copy scheme would need (§4.3).
        assert!((per_token - 3.5).abs() < 0.1, "copies/token {per_token}");
        assert!(per_token < cfg.top_k as f64 / 2.0);
    }

    #[test]
    fn figure7_bandwidth_saturates_nic() {
        // At 2 nodes a token's 8 experts concentrate on the single remote
        // node, so the NVLink fan-out (≈6 copies per IB copy) exceeds the
        // 160/46 bandwidth ratio and the kernel is NVLink-bound; from 4
        // nodes on, node-limited routing keeps the fan-out ratio below it
        // and the NIC saturates — Figure 7's regime.
        // 16 nodes (128 GPUs) is covered by the release-mode benches and
        // the workspace integration tests; debug unit tests stay small.
        for nodes in [4, 8] {
            let c = cluster(nodes);
            let p = deepep_point(&c, &small_cfg());
            assert!(
                p.dispatch_gbps > 0.8 * c.cfg.nic_gbps,
                "{nodes} nodes dispatch {}",
                p.dispatch_gbps
            );
            assert!(
                p.combine_gbps > 0.8 * c.cfg.nic_gbps,
                "{nodes} nodes combine {}",
                p.combine_gbps
            );
        }
        let p2 = deepep_point(&cluster(2), &small_cfg());
        assert!(p2.dispatch_gbps > 0.5 * 46.0, "2-node dispatch {}", p2.dispatch_gbps);
    }

    #[test]
    fn combine_moves_twice_the_bytes() {
        let c = cluster(4);
        let t = generate_traffic(&c, &small_cfg());
        let d = run_round(&c, &t, 7168.0);
        let co = run_round(&c, &t, 2.0 * 7168.0);
        assert!(co.time_us > 1.8 * d.time_us, "{} vs {}", co.time_us, d.time_us);
    }

    #[test]
    fn dedup_analysis_matches_sampled_traffic() {
        let c = cluster(8);
        let cfg = small_cfg();
        let a = dedup_analysis(&c, &cfg);
        assert!((a.with_dedup - 3.5).abs() < 1e-9);
        assert!((a.without_dedup - 7.0).abs() < 1e-9);
        let t = generate_traffic(&c, &cfg);
        let total_ib: u64 = t.ib_copies.iter().flatten().sum();
        let tokens = (c.cfg.gpus() * cfg.tokens_per_gpu) as f64;
        assert!((total_ib as f64 / tokens - a.with_dedup).abs() < 0.1);
    }

    #[test]
    fn two_node_cluster_caps_m() {
        let c = cluster(2);
        let t = generate_traffic(&c, &small_cfg());
        assert!(t.mean_nodes_touched <= 2.0 + 1e-9);
    }

    #[test]
    fn traffic_from_explicit_routings_matches_generator_semantics() {
        let c = cluster(2);
        // Two GPUs with one token each: token 0 goes to experts on node 1
        // (GPUs 0 and 3); token on GPU 9 stays local (node 1, GPUs 1 and 2).
        let mut tokens: Vec<Vec<Vec<(usize, usize)>>> = vec![Vec::new(); c.cfg.gpus()];
        tokens[0] = vec![vec![(1, 0), (1, 3)]];
        tokens[9] = vec![vec![(1, 1), (1, 2)]];
        let t = traffic_from_routings(&c, &tokens);
        assert_eq!(t.ib_copies[0][1], 1, "deduplicated: one IB copy for two experts");
        assert_eq!(t.ib_copies[1][0], 0);
        assert_eq!(t.assignments, 4);
        // Token 0 lands on (1,0) and fans to (1,3); token on GPU 9 (local 1)
        // fans to locals 2 only plus stays on 1.
        assert_eq!(t.nvl_copies[1][0][3], 1);
        assert_eq!(t.nvl_copies[1][1][2], 1);
        assert_eq!(t.nvl_copies[1][1][1], 0);
        assert!((t.mean_nodes_touched - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "top_k")]
    fn invalid_topk_panics() {
        let c = cluster(4);
        let cfg = EpConfig { top_k: 2, ..EpConfig::deepseek_v3() };
        let _ = generate_traffic(&c, &cfg);
    }
}
