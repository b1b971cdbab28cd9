//! Workspace self-checks: the shipped source tree must stay lint
//! clean, the 15 paper findings (F1-F15) must all be traceable to a
//! findings module, and the lint canary must plant exactly the lints
//! the workspace lint table enables.
//!
//! These tests walk the real `crates/` tree plus the repository-root
//! `tests/` directory (resolved relative to this crate's manifest), so
//! they gate the same source set CI lints via `scripts/check.sh` —
//! root-level integration tests carry the cross-crate associativity
//! evidence `mergeable-audit` consults.

#![allow(clippy::expect_used, reason = "test helpers fail the test")]

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use cbs_lint::engine::lint_paths;

/// The workspace `crates/` directory, from this crate's manifest dir.
/// Canonicalized so crate attribution never sees the `../..` hop.
fn crates_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../crates")
        .canonicalize()
        .expect("crates dir exists")
}

/// The repository-root `tests/` directory.
fn tests_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests")
        .canonicalize()
        .expect("tests dir exists")
}

#[test]
fn workspace_is_lint_clean() {
    let run = lint_paths(&[crates_dir(), tests_dir()]).expect("workspace sources readable");
    assert!(
        run.files.len() > 100,
        "walk looks wrong: only {} files scanned",
        run.files.len()
    );
    let rendered: Vec<String> = run
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}:{} [{}] {}", d.file, d.line, d.col, d.rule, d.message))
        .collect();
    assert!(
        run.diagnostics.is_empty(),
        "workspace is not lint clean:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn cli_self_check_exits_zero_with_empty_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_cbs-lint"))
        .arg("--json")
        .arg(crates_dir())
        .arg(tests_dir())
        .output()
        .expect("spawn cbs-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "cbs-lint exited {:?}:\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.trim(), "[]", "expected an empty diagnostics array");
}

/// Word-bounded `F<n>` citations in a doc-comment chunk, mirroring the
/// `finding-traceability` rule's notion of a citation.
fn cited_ids(doc_text: &str) -> BTreeSet<u32> {
    doc_text
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter_map(|w| w.strip_prefix('F'))
        .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
        .filter_map(|d| d.parse().ok())
        .filter(|n| (1..=15).contains(n))
        .collect()
}

#[test]
fn all_fifteen_findings_are_cited_in_findings_modules() {
    let findings = crates_dir().join("analysis/src/findings");
    let run = lint_paths(&[findings]).expect("findings sources readable");
    assert!(!run.files.is_empty(), "findings directory missing?");
    let mut covered: BTreeSet<u32> = BTreeSet::new();
    for file in &run.files {
        for tok in file.tokens.iter().filter(|t| t.is_doc()) {
            covered.extend(cited_ids(&tok.text));
        }
    }
    let missing: Vec<String> = (1..=15u32)
        .filter(|id| !covered.contains(id))
        .map(|id| format!("F{id}"))
        .collect();
    assert!(
        missing.is_empty(),
        "paper findings {} are cited by no module under crates/analysis/src/findings",
        missing.join(", ")
    );
}

#[test]
fn lint_table_and_canary_agree() {
    let root = crates_dir().join("..");
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut table = BTreeSet::new();
    let mut tool = None;
    for line in manifest.lines().filter(|l| !l.starts_with('#')) {
        if line.starts_with('[') {
            tool = line
                .strip_prefix("[workspace.lints.")
                .and_then(|t| t.strip_suffix(']'));
        } else if let (Some(tool), Some((name, _))) = (tool, line.split_once(" = ")) {
            table.insert(match tool {
                "rust" => name.to_owned(),
                _ => format!("{tool}::{name}"),
            });
        }
    }
    let canary = fs::read_to_string(crates_dir().join("lint/src/canary.rs")).expect("canary");
    let planted: BTreeSet<String> = canary
        .split("#[expect(")
        .skip(1)
        .filter_map(|attr| attr.split("reason =").next())
        .flat_map(|lints| lints.split(','))
        .map(str::trim)
        .filter(|lint| !lint.is_empty())
        .map(str::to_owned)
        .collect();
    assert!(table.len() > 10, "lint table not found: {table:?}");
    assert_eq!(
        table, planted,
        "[workspace.lints] vs the canary's #[expect]s"
    );

    let config = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    for path in config
        .split("path = \"")
        .skip(1)
        .filter_map(|p| p.split('"').next())
    {
        assert!(
            canary.contains(&format!("{path}()")),
            "clippy.toml disallows {path}, but the canary never calls it"
        );
    }
}
