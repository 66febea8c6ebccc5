//! The DeepSeekMoE gate with node-limited (group-limited) top-k routing.
//!
//! §4.3: the 256 routed experts are arranged into 8 groups of 32, one group
//! per node; the router algorithmically guarantees each token touches at most
//! `top_groups` (4) nodes, so the deduplicated inter-node (IB) traffic per
//! token is `M·t` with `M ≤ 4` instead of `8·t`.
//!
//! The selection procedure follows DeepSeek-V3: sigmoid affinity scores, a
//! per-group score equal to the sum of the group's top-2 expert affinities,
//! top-`top_groups` group selection, then top-`top_k` experts within the
//! surviving groups. Gate weights are the selected affinities normalized to
//! sum to 1. An optional per-expert bias implements the auxiliary-loss-free
//! load balancing (bias steers *selection* only, never the weights).

use dsv3_numerics::Matrix;
use serde::{Deserialize, Serialize};

/// Routing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoeGateConfig {
    /// Total routed experts.
    pub experts: usize,
    /// Expert groups (= nodes under the paper's deployment).
    pub groups: usize,
    /// Maximum groups (nodes) a token may touch.
    pub top_groups: usize,
    /// Routed experts selected per token.
    pub top_k: usize,
}

impl MoeGateConfig {
    /// DeepSeek-V3's production configuration: 256 experts, 8 groups,
    /// ≤4 groups, top-8.
    #[must_use]
    pub fn deepseek_v3() -> Self {
        Self { experts: 256, groups: 8, top_groups: 4, top_k: 8 }
    }

    /// Experts per group.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is not divisible by `groups`.
    #[must_use]
    pub fn experts_per_group(&self) -> usize {
        assert_eq!(self.experts % self.groups, 0, "experts must divide evenly into groups");
        self.experts / self.groups
    }

    /// Validity check used by constructors of dependent types.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.experts > 0
            && self.groups > 0
            && self.experts.is_multiple_of(self.groups)
            && self.top_groups > 0
            && self.top_groups <= self.groups
            && self.top_k > 0
            && self.top_k <= self.top_groups * (self.experts / self.groups)
    }
}

/// Result of routing one token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Routing {
    /// Selected routed expert indices (length `top_k`, unordered).
    pub experts: Vec<usize>,
    /// Normalized gate weights, aligned with `experts`.
    pub weights: Vec<f32>,
    /// Distinct groups (nodes) the token touches.
    pub groups_used: Vec<usize>,
}

impl Routing {
    /// Number of distinct nodes this token's experts live on (the `M` of
    /// §4.3).
    #[must_use]
    pub fn nodes_touched(&self) -> usize {
        self.groups_used.len()
    }
}

/// Route one token given its per-expert affinity `scores` (sigmoid outputs)
/// and optional selection `bias` (auxiliary-loss-free balancing).
///
/// ```
/// use dsv3_model::moe::{route, MoeGateConfig};
///
/// let cfg = MoeGateConfig::deepseek_v3();
/// let scores = vec![0.5f32; 256];
/// let r = route(&scores, None, &cfg);
/// assert_eq!(r.experts.len(), 8);
/// assert!(r.nodes_touched() <= 4);
/// ```
///
/// # Panics
///
/// Panics if the config is invalid, `scores.len() != experts`, or a provided
/// `bias` has the wrong length.
#[must_use]
pub fn route(scores: &[f32], bias: Option<&[f32]>, cfg: &MoeGateConfig) -> Routing {
    assert!(cfg.is_valid(), "invalid gate config {cfg:?}");
    assert_eq!(scores.len(), cfg.experts, "score vector length mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), cfg.experts, "bias length mismatch");
    }
    let epg = cfg.experts_per_group();
    let biased = |e: usize| scores[e] + bias.map_or(0.0, |b| b[e]);

    // Group score: sum of the top-2 biased affinities within the group.
    let mut group_scores: Vec<(usize, f32)> = (0..cfg.groups)
        .map(|g| {
            let (mut best, mut second) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
            for e in g * epg..(g + 1) * epg {
                let s = biased(e);
                if s > best {
                    second = best;
                    best = s;
                } else if s > second {
                    second = s;
                }
            }
            (g, best + if epg > 1 { second } else { 0.0 })
        })
        .collect();
    group_scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let allowed: Vec<usize> = group_scores[..cfg.top_groups].iter().map(|(g, _)| *g).collect();

    // Top-k experts within the allowed groups, best first: biased affinity
    // descending (`total_cmp`), ties to the lower index. The order is strict
    // and total, so selecting the best `top_k` and sorting only those equals
    // a full sort of every candidate truncated to `top_k`.
    let cmp = |a: &(f32, usize), b: &(f32, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    let mut top: Vec<(f32, usize)> =
        allowed.iter().flat_map(|g| g * epg..(g + 1) * epg).map(|e| (biased(e), e)).collect();
    top.select_nth_unstable_by(cfg.top_k - 1, cmp);
    top.truncate(cfg.top_k);
    top.sort_unstable_by(cmp);
    let experts: Vec<usize> = top.iter().map(|&(_, e)| e).collect();

    // Gate weights: *unbiased* affinities of the selected experts, normalized.
    let raw: Vec<f32> = experts.iter().map(|&e| scores[e]).collect();
    let z: f32 = raw.iter().sum::<f32>().max(1e-20);
    let weights: Vec<f32> = raw.iter().map(|r| r / z).collect();

    let mut groups_used: Vec<usize> = experts.iter().map(|e| e / epg).collect();
    groups_used.sort_unstable();
    groups_used.dedup();
    Routing { experts, weights, groups_used }
}

/// A full gate: affinity projection + balancing bias.
#[derive(Debug, Clone)]
pub struct MoeGate {
    /// Routing configuration.
    pub cfg: MoeGateConfig,
    w: Matrix,
    bias: Vec<f32>,
}

impl MoeGate {
    /// New gate for inputs of width `hidden`, deterministic in `seed`.
    #[must_use]
    pub fn new(hidden: usize, cfg: MoeGateConfig, seed: u64) -> Self {
        assert!(cfg.is_valid(), "invalid gate config {cfg:?}");
        Self {
            w: Matrix::random(hidden, cfg.experts, 1.0, seed),
            bias: vec![0.0; cfg.experts],
            cfg,
        }
    }

    /// Sigmoid affinity scores for one token.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the gate's input width.
    #[must_use]
    pub fn scores(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.w.rows, "input width mismatch");
        let logits = Matrix::from_vec(1, x.len(), x.to_vec()).matmul(&self.w);
        logits.data.iter().map(|l| 1.0 / (1.0 + (-l).exp())).collect()
    }

    /// Route one token end to end.
    #[must_use]
    pub fn route_token(&self, x: &[f32]) -> Routing {
        route(&self.scores(x), Some(&self.bias), &self.cfg)
    }

    /// Auxiliary-loss-free balancing update (§ of the V3 report): raise the
    /// bias of underloaded experts and lower overloaded ones by `gamma`,
    /// given observed per-expert token counts.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len() != experts`.
    pub fn update_bias(&mut self, loads: &[usize], gamma: f32) {
        assert_eq!(loads.len(), self.cfg.experts, "load vector length mismatch");
        let mean = loads.iter().sum::<usize>() as f32 / loads.len() as f32;
        for (b, &l) in self.bias.iter_mut().zip(loads) {
            if (l as f32) > mean {
                *b -= gamma;
            } else if (l as f32) < mean {
                *b += gamma;
            }
        }
    }

    /// Current balancing bias.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }
}

/// Aggregate routing statistics over a batch of tokens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingStats {
    /// Tokens routed.
    pub tokens: usize,
    /// Per-expert assignment counts.
    pub expert_loads: Vec<usize>,
    /// Histogram of nodes touched per token (`hist[m]` = tokens touching
    /// exactly `m` nodes; index 0 unused).
    pub nodes_touched_hist: Vec<usize>,
    /// Mean nodes touched per token (the `M` of §4.3).
    pub mean_nodes_touched: f64,
    /// Max expert load divided by the ideal balanced load.
    pub load_imbalance: f64,
}

/// Streaming accumulator behind [`RoutingStats`]: feed routings one at a
/// time, so a caller never has to keep a batch of them alive.
#[derive(Debug, Clone)]
pub struct RoutingTally {
    cfg: MoeGateConfig,
    tokens: usize,
    expert_loads: Vec<usize>,
    hist: Vec<usize>,
    total_nodes: usize,
}

impl RoutingTally {
    /// An empty tally for routings made under `cfg`.
    #[must_use]
    pub fn new(cfg: &MoeGateConfig) -> Self {
        Self {
            cfg: *cfg,
            tokens: 0,
            expert_loads: vec![0; cfg.experts],
            hist: vec![0; cfg.groups + 1],
            total_nodes: 0,
        }
    }

    /// Count one routed token.
    ///
    /// # Panics
    ///
    /// Panics if the routing names an expert or touches more groups than
    /// the tally's config has.
    pub fn add(&mut self, r: &Routing) {
        for &e in &r.experts {
            self.expert_loads[e] += 1;
        }
        let m = r.nodes_touched();
        self.hist[m] += 1;
        self.total_nodes += m;
        self.tokens += 1;
    }

    /// Statistics over every token added so far.
    ///
    /// # Panics
    ///
    /// Panics if no token has been added.
    #[must_use]
    pub fn stats(&self) -> RoutingStats {
        assert!(self.tokens > 0, "need at least one routed token");
        let tokens = self.tokens;
        let ideal = (tokens * self.cfg.top_k) as f64 / self.cfg.experts as f64;
        let max_load = self.expert_loads.iter().copied().max().unwrap_or(0) as f64;
        RoutingStats {
            tokens,
            expert_loads: self.expert_loads.clone(),
            nodes_touched_hist: self.hist.clone(),
            mean_nodes_touched: self.total_nodes as f64 / tokens as f64,
            load_imbalance: if ideal > 0.0 { max_load / ideal } else { 0.0 },
        }
    }
}

/// Compute [`RoutingStats`] for a set of per-token routings.
///
/// # Panics
///
/// Panics if `routings` is empty.
#[must_use]
pub fn routing_stats(routings: &[Routing], cfg: &MoeGateConfig) -> RoutingStats {
    let mut tally = RoutingTally::new(cfg);
    for r in routings {
        tally.add(r);
    }
    tally.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scores_from_seed(n: usize, seed: u64) -> Vec<f32> {
        Matrix::random(1, n, 1.0, seed).data.iter().map(|v| 1.0 / (1.0 + (-v).exp())).collect()
    }

    /// The gate before its select-then-sort top-k: every allowed expert is
    /// collected and fully sorted, then truncated to `top_k`.
    fn route_by_full_sort(scores: &[f32], bias: Option<&[f32]>, cfg: &MoeGateConfig) -> Routing {
        let epg = cfg.experts_per_group();
        let biased = |e: usize| scores[e] + bias.map_or(0.0, |b| b[e]);
        let mut group_scores: Vec<(usize, f32)> = (0..cfg.groups)
            .map(|g| {
                let (mut best, mut second) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
                for e in g * epg..(g + 1) * epg {
                    let s = biased(e);
                    if s > best {
                        second = best;
                        best = s;
                    } else if s > second {
                        second = s;
                    }
                }
                (g, best + if epg > 1 { second } else { 0.0 })
            })
            .collect();
        group_scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let allowed: Vec<usize> = group_scores[..cfg.top_groups].iter().map(|(g, _)| *g).collect();
        let mut candidates: Vec<usize> =
            allowed.iter().flat_map(|g| g * epg..(g + 1) * epg).collect();
        candidates.sort_by(|a, b| biased(*b).total_cmp(&biased(*a)).then(a.cmp(b)));
        let experts: Vec<usize> = candidates[..cfg.top_k].to_vec();
        let raw: Vec<f32> = experts.iter().map(|&e| scores[e]).collect();
        let z: f32 = raw.iter().sum::<f32>().max(1e-20);
        let weights: Vec<f32> = raw.iter().map(|r| r / z).collect();
        let mut groups_used: Vec<usize> = experts.iter().map(|e| e / epg).collect();
        groups_used.sort_unstable();
        groups_used.dedup();
        Routing { experts, weights, groups_used }
    }

    /// Valid gate shapes: 1–8 groups of 1–40 experts (so up to 320 experts,
    /// with DeepSeek-V3's 8 groups of 32 among them), any group limit, and
    /// any `top_k` up to every expert of the allowed groups.
    fn arb_gate() -> impl Strategy<Value = MoeGateConfig> {
        (1usize..=40, 1usize..=8).prop_flat_map(|(epg, groups)| {
            (1..=groups).prop_flat_map(move |top_groups| {
                (1..=top_groups * epg).prop_map(move |top_k| MoeGateConfig {
                    experts: epg * groups,
                    groups,
                    top_groups,
                    top_k,
                })
            })
        })
    }

    /// A small value set, so exact ties are common, plus signed zeros and
    /// NaNs of both signs (which `total_cmp` orders above +∞ / below −∞).
    const TIE_VALUES: [f32; 8] = [0.0, -0.0, 0.25, 0.5, 0.75, 1.0, f32::NAN, -f32::NAN];

    fn arb_gate_and_scores() -> impl Strategy<Value = (MoeGateConfig, Vec<f32>, Option<Vec<f32>>)> {
        arb_gate().prop_flat_map(|cfg| {
            let values = || {
                prop::collection::vec(0..TIE_VALUES.len(), cfg.experts)
                    .prop_map(|ix| ix.into_iter().map(|i| TIE_VALUES[i]).collect::<Vec<f32>>())
            };
            let bias = (0..2usize, values()).prop_map(|(on, b)| (on == 1).then_some(b));
            (Just(cfg), values(), bias)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The select-then-sort top-k picks the same experts, in the same order,
        /// as the full sort it replaced, for every gate shape, under ties,
        /// signed zeros and NaNs, with and without a bias.
        #[test]
        fn route_matches_full_sort_oracle((cfg, scores, bias) in arb_gate_and_scores()) {
            let fast = route(&scores, bias.as_deref(), &cfg);
            let slow = route_by_full_sort(&scores, bias.as_deref(), &cfg);
            prop_assert_eq!(&fast.experts, &slow.experts);
            prop_assert_eq!(&fast.groups_used, &slow.groups_used);
            let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(&fast.weights), bits(&slow.weights));
        }

        /// Routing always returns distinct experts, respects the node limit,
        /// and yields weights that sum to one.
        #[test]
        fn routing_invariants(cfg in arb_gate(), seed in 0u64..1000) {
            let r = route(&scores_from_seed(cfg.experts, seed), None, &cfg);
            prop_assert_eq!(r.experts.len(), cfg.top_k);
            let mut uniq = r.experts.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), cfg.top_k, "distinct experts");
            prop_assert!(r.nodes_touched() <= cfg.top_groups);
            let wsum: f32 = r.weights.iter().sum();
            prop_assert!((wsum - 1.0).abs() < 1e-4);
            // Every selected expert lives in a selected group.
            let epg = cfg.experts / cfg.groups;
            for &e in &r.experts {
                prop_assert!(r.groups_used.contains(&(e / epg)));
            }
        }
    }

    /// The production shape under every node limit §4.3 sweeps, with
    /// smooth scores and with tie-heavy ones, with and without a bias.
    #[test]
    fn route_matches_full_sort_oracle_at_v3_shape() {
        let ties = |seed: u64| -> Vec<f32> {
            scores_from_seed(256, seed)
                .iter()
                .map(|v| TIE_VALUES[(v.to_bits() as usize) % TIE_VALUES.len()])
                .collect()
        };
        for top_groups in 1..=8 {
            let cfg = MoeGateConfig { top_groups, ..MoeGateConfig::deepseek_v3() };
            for seed in 0..100 {
                let bias = ties(5000 + seed);
                for scores in [scores_from_seed(256, seed), ties(seed)] {
                    for b in [None, Some(&bias[..])] {
                        let fast = route(&scores, b, &cfg);
                        let slow = route_by_full_sort(&scores, b, &cfg);
                        assert_eq!(fast.experts, slow.experts);
                        assert_eq!(fast.groups_used, slow.groups_used);
                        let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                        assert_eq!(bits(&fast.weights), bits(&slow.weights));
                    }
                }
            }
        }
    }

    #[test]
    fn tally_fed_one_at_a_time_matches_routing_stats() {
        let cfg = MoeGateConfig { experts: 64, groups: 8, top_groups: 3, top_k: 6 };
        let routings: Vec<Routing> =
            (0..40).map(|i| route(&scores_from_seed(64, 900 + i), None, &cfg)).collect();
        let mut tally = RoutingTally::new(&cfg);
        for (i, r) in routings.iter().enumerate() {
            tally.add(r);
            assert_eq!(tally.stats(), routing_stats(&routings[..=i], &cfg));
        }
    }

    #[test]
    #[should_panic(expected = "at least one routed token")]
    fn empty_tally_has_no_stats() {
        let _ = RoutingTally::new(&MoeGateConfig::deepseek_v3()).stats();
    }

    #[test]
    fn routes_top_k_unique_experts() {
        let cfg = MoeGateConfig::deepseek_v3();
        let s = scores_from_seed(256, 1);
        let r = route(&s, None, &cfg);
        assert_eq!(r.experts.len(), 8);
        let mut uniq = r.experts.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "experts must be distinct");
    }

    #[test]
    fn node_limit_enforced() {
        let cfg = MoeGateConfig::deepseek_v3();
        for seed in 0..200 {
            let s = scores_from_seed(256, seed);
            let r = route(&s, None, &cfg);
            assert!(
                r.nodes_touched() <= cfg.top_groups,
                "token touched {} nodes",
                r.nodes_touched()
            );
        }
    }

    #[test]
    fn weights_normalized_and_aligned() {
        let cfg = MoeGateConfig::deepseek_v3();
        let s = scores_from_seed(256, 7);
        let r = route(&s, None, &cfg);
        assert!((r.weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Weight ordering mirrors raw score ordering.
        for w in &r.weights {
            assert!(*w > 0.0);
        }
    }

    #[test]
    fn unconstrained_routing_can_touch_more_nodes() {
        // With top_groups == groups the limiter is off; concentrated scores
        // per node boundary show the difference.
        let free = MoeGateConfig { experts: 64, groups: 8, top_groups: 8, top_k: 8 };
        let limited = MoeGateConfig { experts: 64, groups: 8, top_groups: 4, top_k: 8 };
        // One strong expert per group => free routing touches 8 nodes.
        let mut s = vec![0.01f32; 64];
        for g in 0..8 {
            s[g * 8] = 0.9;
        }
        let rf = route(&s, None, &free);
        let rl = route(&s, None, &limited);
        assert_eq!(rf.nodes_touched(), 8);
        assert!(rl.nodes_touched() <= 4);
    }

    #[test]
    fn bias_steers_selection_not_weights() {
        let cfg = MoeGateConfig { experts: 8, groups: 2, top_groups: 2, top_k: 2 };
        let s = vec![0.5, 0.49, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1];
        let no_bias = route(&s, None, &cfg);
        assert_eq!(
            {
                let mut e = no_bias.experts.clone();
                e.sort_unstable();
                e
            },
            vec![0, 1]
        );
        // Bias expert 5 heavily: it gets selected, but its *weight* comes
        // from the raw score.
        let mut bias = vec![0.0f32; 8];
        bias[5] = 10.0;
        let b = route(&s, Some(&bias), &cfg);
        assert!(b.experts.contains(&5));
        let w5 = b.weights[b.experts.iter().position(|e| *e == 5).unwrap()];
        let w0 = b.weights[b.experts.iter().position(|e| *e == 0).unwrap()];
        assert!(w5 < w0, "biased expert keeps its small raw-score weight");
    }

    #[test]
    fn gate_end_to_end_and_balancing() {
        let cfg = MoeGateConfig { experts: 32, groups: 4, top_groups: 2, top_k: 4 };
        let mut gate = MoeGate::new(16, cfg, 3);
        let tokens: Vec<Vec<f32>> =
            (0..400).map(|i| Matrix::random(1, 16, 1.0, 1000 + i).data).collect();
        let run = |g: &MoeGate| -> RoutingStats {
            let routings: Vec<Routing> = tokens.iter().map(|t| g.route_token(t)).collect();
            routing_stats(&routings, &cfg)
        };
        let before = run(&gate);
        // Several rounds of aux-free balancing must reduce imbalance.
        let mut stats = before.clone();
        for _ in 0..30 {
            gate.update_bias(&stats.expert_loads, 0.01);
            stats = run(&gate);
        }
        assert!(
            stats.load_imbalance < before.load_imbalance,
            "balancing {} -> {}",
            before.load_imbalance,
            stats.load_imbalance
        );
    }

    #[test]
    fn stats_conservation() {
        let cfg = MoeGateConfig::deepseek_v3();
        let routings: Vec<Routing> =
            (0..100).map(|i| route(&scores_from_seed(256, 500 + i), None, &cfg)).collect();
        let st = routing_stats(&routings, &cfg);
        assert_eq!(st.expert_loads.iter().sum::<usize>(), 100 * 8);
        assert_eq!(st.nodes_touched_hist.iter().sum::<usize>(), 100);
        assert!(st.mean_nodes_touched <= 4.0);
        assert!(st.mean_nodes_touched >= 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_score_len_panics() {
        let cfg = MoeGateConfig::deepseek_v3();
        let _ = route(&[0.5; 10], None, &cfg);
    }

    #[test]
    fn single_group_config() {
        let cfg = MoeGateConfig { experts: 4, groups: 1, top_groups: 1, top_k: 2 };
        let r = route(&[0.1, 0.9, 0.5, 0.2], None, &cfg);
        assert_eq!(
            {
                let mut e = r.experts.clone();
                e.sort_unstable();
                e
            },
            vec![1, 2]
        );
        assert_eq!(r.nodes_touched(), 1);
    }
}

/// One expert: a SwiGLU feed-forward block.
#[derive(Debug, Clone)]
pub struct Expert {
    w_gate: Matrix,
    w_up: Matrix,
    w_down: Matrix,
}

impl Expert {
    /// New expert with deterministic random weights.
    #[must_use]
    pub fn new(hidden: usize, intermediate: usize, seed: u64) -> Self {
        let s = 1.0 / (hidden as f32).sqrt();
        Self {
            w_gate: Matrix::random(hidden, intermediate, s, seed.wrapping_mul(3) + 1),
            w_up: Matrix::random(hidden, intermediate, s, seed.wrapping_mul(3) + 2),
            w_down: Matrix::random(
                intermediate,
                hidden,
                1.0 / (intermediate as f32).sqrt(),
                seed.wrapping_mul(3) + 3,
            ),
        }
    }

    /// SwiGLU forward for one token.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the expert's hidden size.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.w_gate.rows, "input width mismatch");
        let x = Matrix::from_vec(1, x.len(), x.to_vec());
        let gate = x.matmul(&self.w_gate);
        let up = x.matmul(&self.w_up);
        let hidden: Vec<f32> = gate.data.iter().zip(&up.data).map(|(g, u)| silu(*g) * u).collect();
        Matrix::from_vec(1, hidden.len(), hidden).matmul(&self.w_down).data
    }
}

fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// A full DeepSeekMoE layer: gate + routed experts + shared experts.
#[derive(Debug, Clone)]
pub struct MoeLayer {
    /// The router.
    pub gate: MoeGate,
    routed: Vec<Expert>,
    shared: Vec<Expert>,
}

impl MoeLayer {
    /// Build a layer with `cfg.experts` routed and `shared` shared experts.
    #[must_use]
    pub fn new(
        hidden: usize,
        intermediate: usize,
        cfg: MoeGateConfig,
        shared: usize,
        seed: u64,
    ) -> Self {
        let routed = (0..cfg.experts)
            .map(|e| Expert::new(hidden, intermediate, seed.wrapping_mul(1000) + e as u64))
            .collect();
        let shared = (0..shared)
            .map(|e| {
                Expert::new(hidden, intermediate, seed.wrapping_mul(1000) + 900_000 + e as u64)
            })
            .collect();
        Self { gate: MoeGate::new(hidden, cfg, seed), routed, shared }
    }

    /// Forward one token: shared experts always fire; routed experts are
    /// combined with the gate weights. Returns the output and the routing
    /// (for traffic/load analysis).
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, Routing) {
        let routing = self.gate.route_token(x);
        let mut out = vec![0f32; x.len()];
        for s in &self.shared {
            for (o, v) in out.iter_mut().zip(s.forward(x)) {
                *o += v;
            }
        }
        for (&e, &w) in routing.experts.iter().zip(&routing.weights) {
            for (o, v) in out.iter_mut().zip(self.routed[e].forward(x)) {
                *o += w * v;
            }
        }
        (out, routing)
    }
}

#[cfg(test)]
mod layer_tests {
    use super::*;

    fn tiny_cfg() -> MoeGateConfig {
        MoeGateConfig { experts: 16, groups: 4, top_groups: 2, top_k: 4 }
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let layer = MoeLayer::new(32, 64, tiny_cfg(), 1, 5);
        let x = Matrix::random(1, 32, 1.0, 77).data;
        let (y1, r1) = layer.forward(&x);
        let (y2, r2) = layer.forward(&x);
        assert_eq!(y1, y2);
        assert_eq!(r1, r2);
        assert_eq!(y1.len(), 32);
        assert_eq!(r1.experts.len(), 4);
    }

    #[test]
    fn output_is_convex_in_gate_weights() {
        // With weights summing to 1, scaling all routed expert outputs by a
        // common factor scales the routed contribution linearly: check the
        // routed part equals the weighted sum of individual expert outputs.
        let layer = MoeLayer::new(16, 32, tiny_cfg(), 0, 6);
        let x = Matrix::random(1, 16, 1.0, 88).data;
        let (y, r) = layer.forward(&x);
        let mut manual = vec![0f32; 16];
        for (&e, &w) in r.experts.iter().zip(&r.weights) {
            for (m, v) in manual.iter_mut().zip(layer.routed[e].forward(&x)) {
                *m += w * v;
            }
        }
        for (a, b) in y.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn shared_expert_always_contributes() {
        let with_shared = MoeLayer::new(16, 32, tiny_cfg(), 1, 7);
        let without = MoeLayer { shared: Vec::new(), ..with_shared.clone() };
        let x = Matrix::random(1, 16, 1.0, 99).data;
        let (a, _) = with_shared.forward(&x);
        let (b, _) = without.forward(&x);
        assert_ne!(a, b, "shared expert changes the output");
    }

    #[test]
    fn different_tokens_use_different_experts() {
        let layer = MoeLayer::new(32, 64, tiny_cfg(), 1, 8);
        let mut expert_sets = std::collections::HashSet::new();
        for i in 0..20 {
            let x = Matrix::random(1, 32, 1.0, 2000 + i).data;
            let (_, r) = layer.forward(&x);
            let mut e = r.experts.clone();
            e.sort_unstable();
            expert_sets.insert(e);
        }
        assert!(expert_sets.len() > 5, "routing is input-dependent: {}", expert_sets.len());
    }

    #[test]
    fn silu_properties() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(5.0) > 4.9);
        assert!(silu(-5.0) > -0.05 && silu(-5.0) < 0.0);
    }
}
