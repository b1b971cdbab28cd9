//! Fixture tests for the four domain rules (CBS-L06, L09, L12, L13):
//! each fires on a planted violation and stays silent on the compliant
//! code beside it, run through the full engine the way `cbs-lint` runs.
//!
//! Single-file rules lint fixture files from `tests/fixtures/` (a
//! directory the walker skips, so the workspace self-check never trips
//! over their intentional violations); cross-file rules build their
//! multi-file sets inline (the registry and the emitting crate
//! genuinely live in different files).

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
fn atomic_ordering_fixture_fires_once() {
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
        "fires on the bare site, not the justified store"
    );
}

#[test]
fn metric_registry_fixture_fires_once() {
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
fn mergeable_fixture_fires_once() {
    let lib = SourceFile::from_text(
        "crates/stats/src/merge_dirty.rs",
        "\
/// Per-shard partial summary. MERGEABLE: totals add.
struct Partial {
    total: u64,
}

/// Not tagged and without a `merge`: unconstrained.
struct Plain {
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
fn findings_modules_must_cite_and_cover() {
    // A findings module with no citation fires per-file; partial
    // coverage across the set fires once at workspace level.
    let run = lint_files(vec![
        SourceFile::from_text(
            "crates/analysis/src/findings/mod.rs",
            "//! Builders for F1, F2, F3, F4, F5, F6, F7, F8, F9, F10, F11, F12, F13, F14.\n",
        ),
        SourceFile::from_text(
            "crates/analysis/src/findings/orphan.rs",
            "//! No citation here.\n",
        ),
    ]);
    assert_eq!(
        rules_of(&run),
        vec!["finding-traceability", "finding-traceability"]
    );
    let coverage = run
        .diagnostics
        .iter()
        .find(|d| d.message.contains("cited by no findings module"))
        .expect("coverage diagnostic");
    assert!(coverage.message.contains("F15"), "{coverage:?}");
    assert!(!coverage.message.contains("F14"), "{coverage:?}");
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
