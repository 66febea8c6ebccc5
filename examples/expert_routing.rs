//! Interconnect-driven MoE scenario (§4): node-limited routing, NVLink
//! deduplication, aux-free load balancing, and the MLA latent cache.
//!
//! ```sh
//! cargo run --release --example expert_routing
//! ```

use dsv3_core::collectives::deepep::{dedup_analysis, EpConfig};
use dsv3_core::collectives::{Cluster, ClusterConfig, FabricKind};
use dsv3_core::experiments::node_limited;
use dsv3_core::inference::kvcache::KvCacheManager;
use dsv3_core::model::mla::{MlaDims, MlaLayer};
use dsv3_core::model::moe::{routing_stats, MoeGate, MoeGateConfig};
use dsv3_core::model::zoo;
use dsv3_core::numerics::Matrix;

fn main() {
    println!("{}", node_limited::render(&node_limited::run(2000)));

    // §4.3's bandwidth argument, quantified on the 8-node cluster.
    let cluster = Cluster::new(ClusterConfig::h800(8, FabricKind::MultiPlane));
    let a = dedup_analysis(&cluster, &EpConfig::deepseek_v3());
    println!(
        "IB copies per token: {:.2} with NVLink dedup vs {:.2} without ({:.1}x saving)\n",
        a.with_dedup,
        a.without_dedup,
        a.without_dedup / a.with_dedup
    );

    // Aux-loss-free balancing in action.
    let cfg = MoeGateConfig { experts: 64, groups: 8, top_groups: 4, top_k: 8 };
    let mut gate = MoeGate::new(32, cfg, 42);
    let tokens: Vec<Vec<f32>> =
        (0..512).map(|i| Matrix::random(1, 32, 1.0, 9000 + i).data).collect();
    for round in 0..20 {
        let routings: Vec<_> = tokens.iter().map(|t| gate.route_token(t)).collect();
        let st = routing_stats(&routings, &cfg);
        if round % 5 == 0 {
            println!(
                "balancing round {round:>2}: load imbalance {:.2}x, mean nodes touched {:.2}",
                st.load_imbalance, st.mean_nodes_touched
            );
        }
        gate.update_bias(&st.expert_loads, 0.02);
    }
    println!();

    // MLA's latent cache: identical attention output, tiny cache.
    let mut layer = MlaLayer::new(MlaDims::tiny(), 3);
    for i in 0..32 {
        let x = Matrix::random(1, layer.dims.hidden, 1.0, 100 + i).data;
        let _ = layer.decode_step(&x);
    }
    println!(
        "MLA latent cache after 32 tokens: {} B vs {} B explicit ({}x smaller)",
        layer.cache_bytes(2),
        32 * layer.dims.explicit_elems_per_token() * 2,
        layer.dims.explicit_elems_per_token() / layer.dims.latent_elems_per_token()
    );

    // Serving capacity at 40 GB of KV budget (Table 1 operationalized).
    for model in [zoo::deepseek_v3(), zoo::qwen25_72b(), zoo::llama31_405b()] {
        let mgr = KvCacheManager::new(&model, 2, 40_000_000_000);
        println!(
            "  {:<16} holds {:>9} tokens of context in 40 GB",
            model.name,
            mgr.capacity_tokens()
        );
    }
}
