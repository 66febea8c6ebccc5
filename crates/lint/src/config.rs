//! Lint configuration: which rules run, and where each rule simply does
//! not apply (path allowlists). Allowlists are substring matches over
//! the workspace-relative, `/`-separated path — coarse on purpose, so
//! the policy stays readable in one screen.

use crate::rules::RuleId;

/// One rule's scope: enabled + path fragments where it is exempt.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// The rule.
    pub rule: RuleId,
    /// Path fragments (substring match) where the rule does not apply.
    pub allow_paths: Vec<&'static str>,
}

/// The whole linter configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Per-rule scopes, one entry per source rule (W1/W2 are waiver
    /// hygiene and always on).
    pub rules: Vec<RuleConfig>,
    /// When set, only these rule families run (`--rules U2,F2`). Waiver
    /// hygiene findings (W1/W2) follow the filter like any other rule,
    /// and waivers naming only filtered-out rules are never reported
    /// stale.
    pub only: Option<Vec<RuleId>>,
}

/// Paths where printing, panicking, and hash collections are fine:
/// binaries own stdout, examples and tests are not library code, and
/// benches are measurement harnesses.
const BIN_EXAMPLES_TESTS: [&str; 4] = ["src/bin/", "examples/", "tests/", "/benches/"];

impl LintConfig {
    /// The repository policy. D1 exempts benches (they measure wall
    /// time by design); D3 exempts nothing — unseeded entropy is
    /// never acceptable, not even in tests. U2 additionally covers
    /// `src/bin/`: a binary that mixes ms and µs misreports results
    /// just as badly as a library would.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            rules: vec![
                RuleConfig { rule: RuleId::D1, allow_paths: vec!["/benches/"] },
                RuleConfig { rule: RuleId::D2, allow_paths: BIN_EXAMPLES_TESTS.to_vec() },
                RuleConfig { rule: RuleId::D3, allow_paths: vec![] },
                RuleConfig { rule: RuleId::D4, allow_paths: BIN_EXAMPLES_TESTS.to_vec() },
                RuleConfig { rule: RuleId::P1, allow_paths: BIN_EXAMPLES_TESTS.to_vec() },
                RuleConfig { rule: RuleId::U1, allow_paths: vec![] },
                RuleConfig { rule: RuleId::V1, allow_paths: vec![] },
                RuleConfig {
                    rule: RuleId::U2,
                    allow_paths: vec!["examples/", "tests/", "/benches/"],
                },
                RuleConfig { rule: RuleId::F2, allow_paths: BIN_EXAMPLES_TESTS.to_vec() },
                RuleConfig { rule: RuleId::R2, allow_paths: BIN_EXAMPLES_TESTS.to_vec() },
                RuleConfig { rule: RuleId::P3, allow_paths: BIN_EXAMPLES_TESTS.to_vec() },
            ],
            only: None,
        }
    }

    /// Is `rule` enabled at all under the `--rules` filter?
    #[must_use]
    pub fn enabled(&self, rule: RuleId) -> bool {
        self.only.as_ref().is_none_or(|o| o.contains(&rule))
    }

    /// Does `rule` apply to the file at `rel_path`?
    #[must_use]
    pub fn applies(&self, rule: RuleId, rel_path: &str) -> bool {
        if !self.enabled(rule) {
            return false;
        }
        match self.rules.iter().find(|r| r.rule == rule) {
            Some(rc) => !rc.allow_paths.iter().any(|frag| rel_path.contains(frag)),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlists_scope_rules_by_path() {
        let c = LintConfig::default_config();
        assert!(c.applies(RuleId::P1, "crates/serving/src/engine.rs"));
        assert!(!c.applies(RuleId::P1, "crates/serving/tests/goldens.rs"));
        assert!(!c.applies(RuleId::D4, "crates/core/src/bin/dsv3.rs"));
        assert!(!c.applies(RuleId::D1, "crates/bench/benches/watch.rs"));
        assert!(c.applies(RuleId::D1, "crates/core/src/telemetry/recorder.rs"));
        assert!(c.applies(RuleId::D3, "crates/model/tests/proptests.rs"), "D3 has no exemptions");
    }

    #[test]
    fn semantic_rules_cover_lib_and_u2_also_bins() {
        let c = LintConfig::default_config();
        assert!(c.applies(RuleId::U2, "crates/faults/src/plan.rs"));
        assert!(c.applies(RuleId::U2, "crates/core/src/bin/dsv3.rs"), "U2 covers binaries");
        assert!(!c.applies(RuleId::U2, "crates/faults/tests/goldens.rs"));
        assert!(!c.applies(RuleId::F2, "crates/core/src/bin/dsv3.rs"));
        assert!(c.applies(RuleId::P3, "crates/serving/src/engine.rs"));
        assert!(!c.applies(RuleId::R2, "crates/serving/examples/demo.rs"));
    }

    #[test]
    fn only_filter_disables_everything_else() {
        let mut c = LintConfig::default_config();
        c.only = Some(vec![RuleId::U2, RuleId::F2]);
        assert!(c.applies(RuleId::U2, "crates/faults/src/plan.rs"));
        assert!(!c.applies(RuleId::P1, "crates/faults/src/plan.rs"));
        assert!(!c.enabled(RuleId::W2));
        assert!(c.enabled(RuleId::F2));
    }
}
