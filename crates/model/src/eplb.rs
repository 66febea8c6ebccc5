//! Expert placement and load balancing for EP inference (§2.3.2).
//!
//! "To achieve the fastest possible inference speed, each device should
//! ideally perform computations for a single expert" — but real routing is
//! skewed, so the slowest (hottest) device gates the whole step. DeepSeek's
//! production answer (open-sourced as EPLB) replicates hot experts and
//! packs replicas across GPUs. This module implements greedy
//! longest-processing-time placement with optional redundant replicas and
//! quantifies the resulting load balance.

use serde::{Deserialize, Serialize};

/// A placement of (possibly replicated) experts onto GPUs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// `gpu_of[replica]` — owning GPU of each replica.
    pub gpu_of: Vec<usize>,
    /// `expert_of[replica]` — the expert each replica serves.
    pub expert_of: Vec<usize>,
    /// Per-GPU total load (expert load split evenly across its replicas).
    pub gpu_load: Vec<f64>,
}

impl Placement {
    /// Max GPU load over mean GPU load (1.0 = perfect balance).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let mean = self.gpu_load.iter().sum::<f64>() / self.gpu_load.len() as f64;
        let max = self.gpu_load.iter().copied().fold(0.0, f64::max);
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Place `loads[e]` (tokens routed to expert `e`) onto `gpus` GPUs with
/// `redundant` extra replicas granted to the hottest experts, using greedy
/// LPT (heaviest replica first onto the least-loaded GPU).
///
/// ```
/// use dsv3_model::eplb::{place, zipf_loads};
///
/// let loads = zipf_loads(64, 1.1, 100_000.0);
/// let balanced = place(&loads, 8, 16);
/// assert!(balanced.imbalance() < place(&loads, 8, 0).imbalance());
/// ```
///
/// # Panics
///
/// Panics if there are fewer expert replicas than GPUs or no experts.
#[must_use]
pub fn place(loads: &[f64], gpus: usize, redundant: usize) -> Placement {
    assert!(!loads.is_empty(), "no experts");
    assert!(gpus > 0, "no gpus");
    // Replica counts: every expert gets one; the `redundant` extra replicas
    // go to the experts with the highest per-replica load, iteratively.
    let mut replicas = vec![1usize; loads.len()];
    for _ in 0..redundant {
        let Some(hottest) = (0..loads.len()).max_by(|&a, &b| {
            (loads[a] / replicas[a] as f64).total_cmp(&(loads[b] / replicas[b] as f64))
        }) else {
            break;
        };
        replicas[hottest] += 1;
    }
    let total_replicas: usize = replicas.iter().sum();
    assert!(total_replicas >= gpus, "fewer replicas than GPUs leaves GPUs idle");
    // Build replica list with per-replica load, heaviest first.
    let mut replica_list: Vec<(usize, f64)> = Vec::with_capacity(total_replicas);
    for (e, &r) in replicas.iter().enumerate() {
        for _ in 0..r {
            replica_list.push((e, loads[e] / r as f64));
        }
    }
    replica_list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    // LPT packing.
    let mut gpu_load = vec![0f64; gpus];
    let mut gpu_of = Vec::with_capacity(total_replicas);
    let mut expert_of = Vec::with_capacity(total_replicas);
    for (e, l) in replica_list {
        let Some(g) =
            (0..gpus).min_by(|&a, &b| gpu_load[a].total_cmp(&gpu_load[b]).then(a.cmp(&b)))
        else {
            break;
        };
        gpu_load[g] += l;
        gpu_of.push(g);
        expert_of.push(e);
    }
    Placement { gpu_of, expert_of, gpu_load }
}

/// Skewed expert-load generator (Zipf-like with exponent `alpha`), scaled to
/// `total_tokens` assignments.
#[must_use]
pub fn zipf_loads(experts: usize, alpha: f64, total_tokens: f64) -> Vec<f64> {
    assert!(experts > 0, "no experts");
    let raw: Vec<f64> = (1..=experts).map(|r| (r as f64).powf(-alpha)).collect();
    let z: f64 = raw.iter().sum();
    raw.iter().map(|v| v / z * total_tokens).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_loads_balance_perfectly() {
        let loads = vec![100.0; 64];
        let p = place(&loads, 8, 0);
        assert!((p.imbalance() - 1.0).abs() < 1e-9);
        assert_eq!(p.gpu_of.len(), 64);
    }

    #[test]
    fn load_conserved() {
        let loads = zipf_loads(64, 1.0, 10_000.0);
        let p = place(&loads, 8, 8);
        let placed: f64 = p.gpu_load.iter().sum();
        assert!((placed - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn redundancy_improves_skewed_balance() {
        // (experts, Zipf exponent, tokens, GPUs); the second input is the
        // V3-sized point EXPERIMENTS.md cites.
        for (experts, alpha, tokens, gpus) in [(64, 1.2, 100_000.0, 8), (256, 1.1, 1e6, 32)] {
            let loads = zipf_loads(experts, alpha, tokens);
            let base = place(&loads, gpus, 0);
            let replicated = place(&loads, gpus, 16);
            assert!(
                replicated.imbalance() < base.imbalance(),
                "{} vs {}",
                replicated.imbalance(),
                base.imbalance()
            );
            // With generous replication the hottest GPU is within 15% of mean.
            assert!(replicated.imbalance() < 1.15, "{}", replicated.imbalance());
            if experts == 256 {
                let pair = format!("{:.3} {:.3}", base.imbalance(), replicated.imbalance());
                assert_eq!(pair, "6.609 1.004");
            }
        }
    }

    #[test]
    fn replicas_go_to_hot_experts() {
        let mut loads = vec![10.0; 16];
        loads[3] = 1000.0;
        let p = place(&loads, 4, 3);
        let replicas_of_3 = p.expert_of.iter().filter(|e| **e == 3).count();
        assert_eq!(replicas_of_3, 4, "all extra replicas serve the hot expert");
    }

    #[test]
    fn imbalance_bounds_step_time() {
        // The step time is proportional to the max GPU load; EPLB's benefit
        // is exactly the imbalance ratio.
        let loads = zipf_loads(256, 1.0, 1_000_000.0);
        let before = place(&loads, 32, 0);
        let after = place(&loads, 32, 32);
        let speedup = before.gpu_load.iter().copied().fold(0.0, f64::max)
            / after.gpu_load.iter().copied().fold(0.0, f64::max);
        assert!(speedup > 1.2, "replication speeds the step by {speedup}x");
    }

    #[test]
    #[should_panic(expected = "fewer replicas")]
    fn too_few_replicas_panics() {
        let _ = place(&[1.0, 2.0], 8, 0);
    }
}
