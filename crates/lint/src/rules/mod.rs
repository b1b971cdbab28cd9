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
//! | CBS-L01 | `no-unwrap-in-lib` | library code, non-test | `.unwrap()` / `.expect(…)` |
//! | CBS-L02 | `no-panic-in-lib` | library code, non-test | `panic!` / `unimplemented!` / `todo!` / `unreachable!` |
//! | CBS-L03 | `forbid-unsafe-header` | crate roots + library code | missing `#![forbid(unsafe_code)]`; unsafe sites and `allow(unsafe_code)` without a justifying `SAFETY` comment; stale `SAFETY` comments |
//! | CBS-L04 | `pub-item-docs` | `cbs-trace`/`core`/`stats`/`obs`/`cache` src | undocumented public items |
//! | CBS-L05 | `bounded-channel` | `crates/core`/`cache` + codec paths | unbounded `mpsc::channel()` |
//! | CBS-L06 | `finding-traceability` | `crates/analysis/src/findings` | modules citing no `F1`–`F15` ID; uncovered IDs |
//! | CBS-L07 | `no-float-eq` | library code, non-test | `==`/`!=` against float literals |
//! | CBS-L08 | `no-adhoc-timing` | library code, non-test, outside `cbs-obs` | `std::time::Instant` |
//! | CBS-L09 | `atomic-ordering-audit` | library code, non-test | `Ordering::*` sites without a covering `// ORDERING:` justification; stale `ORDERING:` comments |
//! | CBS-L10 | `channel-discipline` | library code, non-test | dropped/ignored `send`/`try_send` results; channels constructed but never fed |
//! | CBS-L12 | `obs-metric-registry` | library code, non-test | metric names absent from the `METRIC_NAMES` registry; registry entries no code emits; duplicate registry entries |
//! | CBS-L13 | `mergeable-audit` | per crate | `MERGEABLE`-tagged types without a `merge` method or an associativity test |
//!
//! Suppression (`// cbs-lint: allow(rule) -- why`) is handled by the
//! engine, not by individual rules; its pseudo-rules carry IDs too
//! (CBS-S01 `malformed-suppression`, CBS-S02 `unused-suppression`,
//! CBS-S03 `suppression-justification`).

use crate::diag::Diagnostic;
use crate::index::WorkspaceIndex;
use crate::source::SourceFile;

pub mod atomic_ordering;
mod bounded_channel;
mod channel_discipline;
mod finding_trace;
mod forbid_unsafe;
mod mergeable_audit;
mod metric_registry;
mod no_adhoc_timing;
mod no_float_eq;
mod no_panic;
mod no_unwrap;
mod pub_docs;

pub use atomic_ordering::AtomicOrderingAudit;
pub use bounded_channel::BoundedChannel;
pub use channel_discipline::ChannelDiscipline;
pub use finding_trace::FindingTraceability;
pub use forbid_unsafe::ForbidUnsafeHeader;
pub use mergeable_audit::MergeableAudit;
pub use metric_registry::ObsMetricRegistry;
pub use no_adhoc_timing::NoAdhocTiming;
pub use no_float_eq::NoFloatEq;
pub use no_panic::NoPanicInLib;
pub use no_unwrap::NoUnwrapInLib;
pub use pub_docs::PubItemDocs;

/// A static-analysis rule.
pub trait Rule {
    /// Kebab-case rule name, used in output and suppressions.
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

/// Stable rule IDs, keyed by rule name. `CBS-L*` are lint rules in
/// registration order; `CBS-S*` are the engine's suppression
/// pseudo-rules. IDs are append-only: renaming a rule keeps its ID, and
/// a retired rule's ID stays unused.
pub const RULE_IDS: &[(&str, &str)] = &[
    ("no-unwrap-in-lib", "CBS-L01"),
    ("no-panic-in-lib", "CBS-L02"),
    ("forbid-unsafe-header", "CBS-L03"),
    ("pub-item-docs", "CBS-L04"),
    ("bounded-channel", "CBS-L05"),
    ("finding-traceability", "CBS-L06"),
    ("no-float-eq", "CBS-L07"),
    ("no-adhoc-timing", "CBS-L08"),
    ("atomic-ordering-audit", "CBS-L09"),
    ("channel-discipline", "CBS-L10"),
    // CBS-L11 (`simd-twin-parity`) is retired; IDs are never reused.
    ("obs-metric-registry", "CBS-L12"),
    ("mergeable-audit", "CBS-L13"),
    ("malformed-suppression", "CBS-S01"),
    ("unused-suppression", "CBS-S02"),
    ("suppression-justification", "CBS-S03"),
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
        Box::new(NoUnwrapInLib),
        Box::new(NoPanicInLib),
        Box::new(ForbidUnsafeHeader),
        Box::new(PubItemDocs),
        Box::new(BoundedChannel),
        Box::new(FindingTraceability),
        Box::new(NoFloatEq),
        Box::new(NoAdhocTiming),
        Box::new(AtomicOrderingAudit),
        Box::new(ChannelDiscipline),
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
