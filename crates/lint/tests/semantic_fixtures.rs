//! Fixture tests for the v2 semantic rules (CBS-L09, L10, L12, L13): each rule
//! fires on a planted violation AND honors one justified suppression,
//! proving the engine's suppression pass covers index- and
//! workspace-level diagnostics, not just per-file ones.
//!
//! Single-file rules lint fixture files from `tests/fixtures/`;
//! cross-file rules build their multi-file sets inline (the registry
//! and the emitting crate genuinely live in different files).

use cbs_lint::{lint_files, Diagnostic, LintRun, SourceFile};

/// Lints one fixture under a pretend path.
fn lint_fixture(path: &str, text: &str) -> LintRun {
    lint_files(vec![SourceFile::from_text(path, text)])
}

/// Sorted rule names of a run's diagnostics.
fn rules_of(run: &LintRun) -> Vec<&str> {
    let mut rules: Vec<&str> = run.diagnostics.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules
}

/// The diagnostic for `rule`, asserting there is exactly one.
fn the<'a>(run: &'a LintRun, rule: &str) -> &'a Diagnostic {
    let hits: Vec<&Diagnostic> = run.diagnostics.iter().filter(|d| d.rule == rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {rule}: {:?}",
        run.diagnostics
    );
    hits[0]
}

#[test]
fn atomic_ordering_fixture_fires_once_and_honors_suppression() {
    let run = lint_fixture(
        "crates/obs/src/ordering_dirty.rs",
        include_str!("fixtures/ordering_dirty.rs"),
    );
    assert_eq!(
        rules_of(&run),
        vec!["atomic-ordering-audit"],
        "{:?}",
        run.diagnostics
    );
    let d = the(&run, "atomic-ordering-audit");
    assert!(d.message.contains("Relaxed"), "{d:?}");
    assert!(
        run.snippet(d).expect("snippet").contains("cell.load"),
        "fires on the bare site, not the suppressed SeqCst store"
    );
}

#[test]
fn channel_discipline_fixture_fires_once_and_honors_suppression() {
    let run = lint_fixture(
        "crates/core/src/channel_dirty.rs",
        include_str!("fixtures/channel_dirty.rs"),
    );
    assert_eq!(
        rules_of(&run),
        vec!["channel-discipline"],
        "{:?}",
        run.diagnostics
    );
    let d = the(&run, "channel-discipline");
    assert!(d.message.contains("dropped"), "{d:?}");
    assert!(
        run.snippet(d).expect("snippet").contains("tx.send(1)"),
        "fires on the dropped send; the .ok() misuse stays suppressed"
    );
}

#[test]
fn metric_registry_fixture_fires_once_and_honors_suppression() {
    let names = SourceFile::from_text(
        "crates/obs/src/names.rs",
        "\
/// Fixture registry.
pub const METRIC_NAMES: &[(&str, &str)] = &[
    (\"fix.ok\", \"a documented, emitted metric\"),
];
",
    );
    let emitter = SourceFile::from_text(
        "crates/core/src/emit_dirty.rs",
        "\
fn record(r: &Registry) {
    r.counter(\"fix.ok\");
    r.counter(\"fix.rogue\");
    // cbs-lint: allow(obs-metric-registry) -- fixture: registry migration lands in the next commit
    r.counter(\"fix.waved\");
}
",
    );
    let run = lint_files(vec![names, emitter]);
    assert_eq!(
        rules_of(&run),
        vec!["obs-metric-registry"],
        "{:?}",
        run.diagnostics
    );
    let d = the(&run, "obs-metric-registry");
    assert!(d.message.contains("fix.rogue"), "{d:?}");
}

#[test]
fn mergeable_fixture_fires_once_and_honors_suppression() {
    let lib = SourceFile::from_text(
        "crates/stats/src/merge_dirty.rs",
        "\
/// Per-shard partial summary. MERGEABLE: totals add.
struct Partial {
    total: u64,
}

/// Another partial. MERGEABLE: totals add.
// cbs-lint: allow(mergeable-audit) -- fixture: merge arrives with the ROADMAP item 1 fan-out
struct Waved {
    total: u64,
}
",
    );
    let run = lint_files(vec![lib]);
    assert_eq!(
        rules_of(&run),
        vec!["mergeable-audit"],
        "{:?}",
        run.diagnostics
    );
    let d = the(&run, "mergeable-audit");
    assert!(d.message.contains("Partial"), "{d:?}");
    assert!(d.message.contains("defines `merge`"), "{d:?}");
}

#[test]
fn new_rule_diagnostics_carry_stable_ids_in_json() {
    let run = lint_fixture(
        "crates/obs/src/ordering_dirty.rs",
        include_str!("fixtures/ordering_dirty.rs"),
    );
    let json = cbs_lint::diag::to_json_array(&run.diagnostics);
    assert!(json.contains("\"id\":\"CBS-L09\""), "{json}");
}
