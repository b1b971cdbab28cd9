//! The lint driver: walk → lex → parse → rules (file, workspace,
//! index) → sorted diagnostics.

use std::path::PathBuf;

use crate::diag::Diagnostic;
use crate::index::WorkspaceIndex;
use crate::rules::all_rules;
use crate::source::{walk_rust_files, SourceFile, WalkError};

/// The outcome of a lint run: the scanned files (for snippet
/// rendering) and the surviving diagnostics, sorted by location.
#[derive(Debug)]
pub struct LintRun {
    /// Every scanned file.
    pub files: Vec<SourceFile>,
    /// Every diagnostic, sorted by location.
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
pub fn lint_files(files: Vec<SourceFile>) -> LintRun {
    let rules = all_rules();
    let mut diagnostics = Vec::new();
    for file in &files {
        for rule in &rules {
            rule.check_file(file, &mut diagnostics);
        }
    }
    for rule in &rules {
        rule.check_workspace(&files, &mut diagnostics);
    }
    let index = WorkspaceIndex::build(&files);
    for rule in &rules {
        rule.check_index(&index, &mut diagnostics);
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
    fn diagnostics_are_sorted() {
        // The rule reports bare sites before the stale comment above
        // them; the run comes back in line order.
        let src = "// ORDERING: covers nothing\n\nfn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\nfn g(a: &AtomicU64) { a.load(Ordering::Acquire); }\n";
        let run = lint_files(vec![SourceFile::from_text("crates/core/src/x.rs", src)]);
        let lines: Vec<u32> = run.diagnostics.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![1, 3, 4], "{:?}", run.diagnostics);
    }
}
