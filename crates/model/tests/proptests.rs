//! Property-based tests for the model substrate.

use dsv3_model::attention::Attention;
use dsv3_model::moe::{route, routing_stats, MoeGateConfig};
use dsv3_model::mtp::{expected_tokens_per_step, tps_speedup};
use proptest::prelude::*;

proptest! {
    /// Routing statistics conserve assignments.
    #[test]
    fn stats_conserve(seed in 0u64..200) {
        let cfg = MoeGateConfig::deepseek_v3();
        let routings: Vec<_> = (0..50)
            .map(|i| {
                let scores: Vec<f32> = dsv3_numerics::Matrix::random(1, 256, 1.0, seed * 100 + i)
                    .data
                    .iter()
                    .map(|v| 1.0 / (1.0 + (-v).exp()))
                    .collect();
                route(&scores, None, &cfg)
            })
            .collect();
        let st = routing_stats(&routings, &cfg);
        prop_assert_eq!(st.expert_loads.iter().sum::<usize>(), 50 * 8);
        prop_assert_eq!(st.nodes_touched_hist.iter().sum::<usize>(), 50);
    }

    /// KV cache bytes scale linearly in precision and layers for every
    /// attention variant.
    #[test]
    fn kv_bytes_linear(heads_pow in 0u32..4, kv_heads_pow in 0u32..4, dim_pow in 4u32..8) {
        let heads = 1usize << (heads_pow + kv_heads_pow);
        let kv_heads = 1usize << kv_heads_pow;
        let head_dim = 1usize << dim_pow;
        for a in [
            Attention::Mha { heads, head_dim },
            Attention::Gqa { heads, kv_heads, head_dim },
            Attention::Mqa { heads, head_dim },
        ] {
            prop_assert_eq!(a.kv_bytes_per_token_layer(2), 2 * a.kv_bytes_per_token_layer(1));
        }
        // GQA degenerates to MHA at kv_heads == heads and to MQA at 1.
        let gqa_full = Attention::Gqa { heads, kv_heads: heads, head_dim };
        prop_assert_eq!(
            gqa_full.kv_elems_per_token_layer(),
            Attention::Mha { heads, head_dim }.kv_elems_per_token_layer()
        );
    }

    /// MTP expectations are monotone in acceptance and bounded by 1+modules.
    #[test]
    fn mtp_monotone(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0, modules in 0usize..4) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(expected_tokens_per_step(lo, modules) <= expected_tokens_per_step(hi, modules));
        prop_assert!(expected_tokens_per_step(hi, modules) <= 1.0 + modules as f64 + 1e-12);
        prop_assert!(tps_speedup(hi, modules, 0.1) <= expected_tokens_per_step(hi, modules));
    }
}
