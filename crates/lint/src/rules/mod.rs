//! The pluggable rule set.
//!
//! A [`Rule`] pattern-matches short token sequences over lexed
//! [`SourceFile`]s and reports [`Diagnostic`]s. Per-file checks go in
//! [`Rule::check_file`]; cross-file invariants (e.g. "all 15 paper
//! findings are covered somewhere") go in [`Rule::check_workspace`];
//! symbol-level invariants ("every MERGEABLE type has a `merge`") go in
//! [`Rule::check_index`], which receives the parsed
//! [`WorkspaceIndex`].
//!
//! | id | rule | scope | forbids |
//! |----|------|-------|---------|
//! | CBS-L06 | `finding-traceability` | `crates/analysis/src/findings` | modules citing no `F1`–`F15` ID; uncovered IDs |
//! | CBS-L09 | `atomic-ordering-audit` | library code, non-test | `Ordering::*` sites without a covering `// ORDERING:` justification; stale `ORDERING:` comments |
//! | CBS-L12 | `obs-metric-registry` | library code, non-test | metric names absent from the `METRIC_NAMES` registry; registry entries no code emits; duplicate registry entries |
//! | CBS-L13 | `mergeable-audit` | per crate | `MERGEABLE`-tagged types without a `merge` method or an associativity test |
//!
//! Everything rustc or clippy can check lives in the root `Cargo.toml`'s
//! `[workspace.lints]` table instead; the IDs of the rules that moved
//! there stay unused.

use crate::diag::Diagnostic;
use crate::index::WorkspaceIndex;
use crate::source::SourceFile;

pub mod atomic_ordering;
mod finding_trace;
mod mergeable_audit;
mod metric_registry;

pub use atomic_ordering::AtomicOrderingAudit;
pub use finding_trace::FindingTraceability;
pub use mergeable_audit::MergeableAudit;
pub use metric_registry::ObsMetricRegistry;

/// A static-analysis rule.
pub trait Rule {
    /// Kebab-case rule name, used in output.
    fn name(&self) -> &'static str;

    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;

    /// Per-file check.
    fn check_file(&self, _file: &SourceFile, _diags: &mut Vec<Diagnostic>) {}

    /// Cross-file check, run once over the whole scanned set.
    fn check_workspace(&self, _files: &[SourceFile], _diags: &mut Vec<Diagnostic>) {}

    /// Symbol-level check over the parsed per-crate index, run once.
    fn check_index(&self, _index: &WorkspaceIndex<'_>, _diags: &mut Vec<Diagnostic>) {}
}

/// Stable rule IDs, keyed by rule name. IDs are append-only: renaming
/// a rule keeps its ID, and a retired rule's ID stays unused — CBS-L01
/// to L05, L07, L08 and L10 moved to the `[workspace.lints]` table,
/// L11 (`simd-twin-parity`) went with its twins, and the suppression
/// pseudo-rules CBS-S01 to S03 went with `#[expect(lint, reason)]`.
pub const RULE_IDS: &[(&str, &str)] = &[
    ("finding-traceability", "CBS-L06"),
    ("atomic-ordering-audit", "CBS-L09"),
    ("obs-metric-registry", "CBS-L12"),
    ("mergeable-audit", "CBS-L13"),
];

/// The stable ID for a rule name (`CBS-???` for names outside the
/// table, which only fixture rules hit).
pub fn rule_id(name: &str) -> &'static str {
    RULE_IDS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("CBS-???", |(_, id)| id)
}

/// The shipped rule set, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FindingTraceability),
        Box::new(AtomicOrderingAudit),
        Box::new(ObsMetricRegistry),
        Box::new(MergeableAudit),
    ]
}

#[cfg(test)]
mod id_tests {
    use super::*;

    #[test]
    fn every_shipped_rule_has_a_stable_id() {
        for rule in all_rules() {
            assert!(
                rule_id(rule.name()) != "CBS-???",
                "rule {} missing from RULE_IDS",
                rule.name()
            );
        }
        assert_eq!(rule_id("no-such-rule"), "CBS-???");
    }

    #[test]
    fn ids_are_unique() {
        for (i, (_, a)) in RULE_IDS.iter().enumerate() {
            for (_, b) in &RULE_IDS[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
