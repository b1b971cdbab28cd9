//! The lint driver: walk → lex → parse → rules (file, workspace,
//! index) → suppressions → sorted diagnostics.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::diag::Diagnostic;
use crate::index::WorkspaceIndex;
use crate::rules::all_rules;
use crate::source::{walk_rust_files, SourceFile, WalkError};
use crate::suppress;

/// The outcome of a lint run: the scanned files (for snippet
/// rendering) and the surviving diagnostics, sorted by location.
#[derive(Debug)]
pub struct LintRun {
    /// Every scanned file.
    pub files: Vec<SourceFile>,
    /// Diagnostics after suppression handling.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintRun {
    /// The source line a diagnostic points at, if the file was scanned.
    pub fn snippet(&self, d: &Diagnostic) -> Option<&str> {
        self.files
            .iter()
            .find(|f| f.path == d.file)
            .and_then(|f| f.line(d.line))
    }
}

/// Lints already-loaded files (the path of each file decides rule
/// scoping). This is the seam fixture tests drive directly.
///
/// All rule layers run first — per-file, workspace, and index — and
/// suppressions are applied afterwards to every diagnostic grouped by
/// file, so a `// cbs-lint: allow(…)` can cover cross-file findings
/// (e.g. `mergeable-audit`) exactly like per-file ones.
pub fn lint_files(files: Vec<SourceFile>) -> LintRun {
    let rules = all_rules();
    let mut diagnostics = Vec::new(); // suppression-machinery findings
    let mut raw = Vec::new();
    for file in &files {
        for rule in &rules {
            rule.check_file(file, &mut raw);
        }
    }
    for rule in &rules {
        rule.check_workspace(&files, &mut raw);
    }
    let index = WorkspaceIndex::build(&files);
    for rule in &rules {
        rule.check_index(&index, &mut raw);
    }

    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for d in raw {
        by_file.entry(d.file.clone()).or_default().push(d);
    }
    for file in &files {
        let sups = suppress::collect(file, &mut diagnostics);
        let diags = by_file.remove(file.path.as_str()).unwrap_or_default();
        diagnostics.extend(suppress::apply(file, sups, diags));
    }
    // Diagnostics pointing at paths outside the scanned set (e.g. a
    // workspace rule reporting against a synthetic location) cannot
    // be suppressed and pass through.
    for (_, rest) in by_file {
        diagnostics.extend(rest);
    }
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    LintRun { files, diagnostics }
}

/// Walks `roots` for `.rs` files and lints them.
pub fn lint_paths(roots: &[PathBuf]) -> Result<LintRun, WalkError> {
    let mut files = Vec::new();
    for path in walk_rust_files(roots)? {
        files.push(SourceFile::read(&path)?);
    }
    Ok(lint_files(files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_round_trip() {
        let src = "\
fn f() {
    // cbs-lint: allow(no-unwrap-in-lib) -- demo: value checked above
    a.unwrap();
    b.unwrap();
}
";
        let run = lint_files(vec![SourceFile::from_text("crates/core/src/x.rs", src)]);
        assert_eq!(run.diagnostics.len(), 1, "{:?}", run.diagnostics);
        assert_eq!(run.diagnostics[0].line, 4);
    }

    #[test]
    fn diagnostics_are_sorted() {
        let src = "fn f() { a.unwrap(); panic!(\"x\"); }\nfn g() { b.unwrap(); }\n";
        let run = lint_files(vec![SourceFile::from_text("crates/core/src/x.rs", src)]);
        let lines: Vec<u32> = run.diagnostics.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
