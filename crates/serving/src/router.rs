//! Placement policy: unified pool vs prefill/decode disaggregation.
//!
//! The request-level simulator reuses the calibration of
//! `dsv3_inference::disagg` (§2.3.1): a unified pool lets prefill bursts
//! steal decode compute (half the outstanding backlog competes with each
//! decode step), while disaggregation isolates decode at the cost of a
//! smaller decode pool whose per-step time inflates by the conservative
//! linear bound, capped at 2×.

use serde::{Deserialize, Serialize};

/// Where prefill work runs relative to the decode pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// One pool serves both phases; prefill steals decode step time.
    Unified,
    /// Dedicated prefill pool; decode pool shrinks but never sees prefill.
    Disaggregated {
        /// Fraction of GPUs moved to the prefill pool, in `(0, 1)`.
        prefill_fraction: f64,
    },
}

impl RouterPolicy {
    /// Multiplier on the decode step time from shrinking the decode pool
    /// (1.0 for the unified pool). Matches
    /// `dsv3_inference::disagg::disaggregated_tpot`'s conservative bound.
    ///
    /// # Panics
    ///
    /// Panics unless a disaggregated `prefill_fraction` lies in `(0, 1)`:
    /// at 0 the prefill pool is empty and no request ever reaches decode,
    /// at 1 no decode GPUs remain.
    #[must_use]
    pub fn decode_slowdown(&self) -> f64 {
        match self {
            RouterPolicy::Unified => 1.0,
            RouterPolicy::Disaggregated { prefill_fraction } => {
                assert!(
                    *prefill_fraction > 0.0 && *prefill_fraction < 1.0,
                    "prefill fraction must lie in (0, 1)"
                );
                (1.0 / (1.0 - prefill_fraction)).min(2.0)
            }
        }
    }

    /// Prefill throughput available to this policy, given the full pool's
    /// rate: the whole pool in the unified case (interleaved with decode),
    /// the dedicated slice otherwise.
    #[must_use]
    pub fn prefill_rate(&self, full_pool_tokens_per_ms: f64) -> f64 {
        match self {
            RouterPolicy::Unified => full_pool_tokens_per_ms,
            RouterPolicy::Disaggregated { prefill_fraction } => {
                full_pool_tokens_per_ms * prefill_fraction
            }
        }
    }

    /// Short display name.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RouterPolicy::Unified => "unified",
            RouterPolicy::Disaggregated { .. } => "disaggregated",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv3_inference::disagg::{self, ServingConfig};

    #[test]
    fn slowdown_matches_disagg_calibration() {
        let cfg = ServingConfig::default();
        let policy = RouterPolicy::Disaggregated { prefill_fraction: cfg.prefill_pool_fraction };
        let analytical = disagg::disaggregated_tpot(&cfg);
        let expected = cfg.decode_step_us * policy.decode_slowdown();
        assert!((analytical.mean_us - expected).abs() < 1e-9);
    }

    #[test]
    fn slowdown_caps_at_two() {
        let policy = RouterPolicy::Disaggregated { prefill_fraction: 0.9 };
        assert_eq!(policy.decode_slowdown(), 2.0);
        assert_eq!(RouterPolicy::Unified.decode_slowdown(), 1.0);
    }

    #[test]
    fn prefill_rate_splits_the_pool() {
        let policy = RouterPolicy::Disaggregated { prefill_fraction: 0.25 };
        assert_eq!(policy.prefill_rate(16.0), 4.0);
        assert_eq!(RouterPolicy::Unified.prefill_rate(16.0), 16.0);
    }
}
