//! The four project conventions clippy cannot express, checked over the
//! source tree by one comment- and string-aware text scan.
//!
//! | id | scope | requires |
//! |----|-------|----------|
//! | CBS-L06 | `crates/analysis/src/findings/` | each module's docs cite a paper finding `F1`–`F15`; together they cite all 15 |
//! | CBS-L09 | library code | each atomic `Ordering::*` site has a covering `// ORDERING:` comment; each such comment covers a site |
//! | CBS-L12 | library code | each emitted metric name is in `cbs_obs::METRIC_NAMES`; each entry is emitted |
//! | CBS-L13 | per crate | a `MERGEABLE` type has a `merge` and an associativity test; each `merge` is on such a type |
//!
//! Library code is non-test code in `crates/*/src` outside `src/bin/`
//! and `src/main.rs`. Test code is a `tests/`, `benches/`, `examples/`
//! or `fuzz/` file, or an item under `#[test]` or `#[cfg(…test…)]`.
//! DESIGN.md §15 gives the coverage semantics. The clippy lint table's
//! canary (`crates/trace/src/canary.rs`) is checked here too.

#![allow(
    clippy::expect_used,
    reason = "a tree the scan cannot read fails the test"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// A comment: where it starts, whether it is a doc comment, its text.
struct Comment {
    at: usize,
    doc: bool,
    text: String,
}

/// One scanned file.
struct Source {
    path: String,
    text: String,
    /// `text` with comments and literal bodies blanked to spaces. Quotes
    /// and newlines stay, so offsets and line numbers match `text`.
    code: String,
    comments: Vec<Comment>,
    /// Matched `{`…`}` offset pairs, by opening offset.
    blocks: Vec<(usize, usize)>,
    /// Offset spans of `#[test]` and `#[cfg(…test…)]` items.
    test_spans: Vec<(usize, usize)>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The offset of the `close` byte ending a literal body that starts at
/// `i`, skipping escapes (the end of `src` if it is unterminated).
fn literal_end(src: &[u8], mut i: usize, close: u8) -> usize {
    while i < src.len() && src[i] != close {
        i += if src[i] == b'\\' { 2 } else { 1 };
    }
    i.min(src.len())
}

impl Source {
    fn new(path: &str, text: &str) -> Self {
        let src = text.as_bytes();
        let at = |i: usize| src.get(i).copied().unwrap_or(0);
        let (mut code, mut comments, mut i) = (src.to_vec(), Vec::new(), 0);
        let mut blank = |from: usize, to: usize| {
            for b in code[from..to].iter_mut().filter(|b| **b != b'\n') {
                *b = b' ';
            }
        };
        while i < src.len() {
            let (start, comment) = (i, src[i] == b'/' && matches!(at(i + 1), b'/' | b'*'));
            match (src[i], at(i + 1)) {
                (b'/', b'/') => i = text[i..].find('\n').map_or(src.len(), |n| i + n),
                (b'/', b'*') => {
                    let mut depth = 0;
                    while i < src.len() {
                        depth += match (src[i], at(i + 1)) {
                            (b'/', b'*') => 1,
                            (b'*', b'/') => -1,
                            _ => {
                                i += 1;
                                continue;
                            }
                        };
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    }
                    i = i.min(src.len());
                }
                (b'"', _) => {
                    i = literal_end(src, i + 1, b'"');
                    blank(start + 1, i);
                }
                // `'a'` and `'\n'` are char literals; `'a` alone is a lifetime.
                (b'\'', c) if !(c == b'_' || c.is_ascii_alphabetic()) || at(i + 2) == b'\'' => {
                    i = literal_end(src, i + 1, b'\'');
                    blank(start + 1, i);
                }
                (b, _) if is_ident(b) => {
                    while i < src.len() && is_ident(src[i]) {
                        i += 1;
                    }
                    // `r"…"`, `r#"…"#` and `br"…"`, but not the raw identifier `r#fn`.
                    let hashes = src[i..].iter().take_while(|&&b| b == b'#').count();
                    if matches!(&text[start..i], "r" | "br") && at(i + hashes) == b'"' {
                        let term = format!("\"{}", "#".repeat(hashes));
                        let body = i + hashes + 1;
                        let end = text[body..].find(&term).map_or(src.len(), |n| body + n);
                        blank(body, end);
                        i = (end + term.len()).min(src.len());
                    }
                    continue;
                }
                _ => {}
            }
            if comment {
                let t = &text[start..i];
                let doc = t.starts_with("//!")
                    || t.starts_with("/*!")
                    || t.starts_with("///") && !t.starts_with("////")
                    || t.starts_with("/**") && t.len() > 4;
                comments.push(Comment {
                    at: start,
                    doc,
                    text: t.to_owned(),
                });
                blank(start, i);
            } else {
                i += 1;
            }
        }
        let code = String::from_utf8(code).expect("blanking whole literals keeps UTF-8");

        let (mut stack, mut blocks) = (Vec::new(), Vec::new());
        for (i, b) in code.bytes().enumerate() {
            match b {
                b'{' => stack.push(i),
                b'}' => blocks.extend(stack.pop().map(|open| (open, i))),
                _ => {}
            }
        }
        blocks.sort_unstable();

        let mut test_spans = Vec::new();
        for (start, _) in code.match_indices("#[") {
            let mut depth = 0;
            let Some(close) = code[start + 1..].find(|c| {
                depth += i32::from(c == '[') - i32::from(c == ']');
                depth == 0
            }) else {
                continue;
            };
            let close = start + 1 + close;
            let words: Vec<&str> = code[start..close]
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .filter(|w| !w.is_empty())
                .collect();
            let test = words.first() == Some(&"test");
            if test || words.first() == Some(&"cfg") && words.contains(&"test") {
                // To the `}` of the item's body, or its `;` if it has none.
                let end = code[close..].find([';', '{']).map_or(code.len(), |n| {
                    let k = close + n;
                    blocks.iter().find(|b| b.0 == k).map_or(k, |b| b.1)
                });
                test_spans.push((start, end));
            }
        }
        let (path, text) = (path.to_owned(), text.to_owned());
        Source {
            path,
            text,
            code,
            comments,
            blocks,
            test_spans,
        }
    }

    fn line(&self, at: usize) -> usize {
        self.code[..at].matches('\n').count() + 1
    }

    /// The body of the string literal whose opening quote is at `at`.
    fn literal(&self, at: usize) -> Option<&str> {
        let body = self.code[at..].strip_prefix('"').map(|_| at + 1)?;
        Some(&self.text[body..body + self.code[body..].find('"')?])
    }

    fn is_test_path(&self) -> bool {
        ["tests/", "benches/", "examples/", "fuzz/"]
            .iter()
            .any(|seg| self.path.starts_with(seg) || self.path.contains(&format!("/{seg}")))
    }

    fn is_library(&self) -> bool {
        let p = &self.path;
        p.starts_with("crates/")
            && p.contains("/src/")
            && !p.contains("/src/bin/")
            && !p.ends_with("/src/main.rs")
            && !self.is_test_path()
    }

    fn in_test(&self, at: usize) -> bool {
        self.is_test_path() || self.test_spans.iter().any(|&(lo, hi)| lo <= at && at <= hi)
    }

    /// The crate directory of a `crates/<name>/` path; empty for root `tests/`.
    fn crate_name(&self) -> &str {
        self.path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next())
            .unwrap_or("")
    }

    /// The header gap before `at`: from past the nearest `;`, `{` or `}`.
    fn gap(&self, at: usize) -> Range<usize> {
        self.code[..at].rfind([';', '{', '}']).map_or(0, |n| n + 1)..at
    }

    /// The `{` offsets of the blocks enclosing `at`, outermost first.
    fn enclosing(&self, at: usize) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .filter(move |b| b.0 < at && at < b.1)
            .map(|b| b.0)
    }

    /// Every identifier-like word of the code, with its offset.
    fn words(&self) -> Vec<(usize, &str)> {
        let mut out: Vec<(usize, &str)> = Vec::new();
        for (i, _) in self.code.bytes().enumerate().filter(|&(_, b)| is_ident(b)) {
            match out.last_mut() {
                Some((start, word)) if *start + word.len() == i => {
                    *word = &self.code[*start..=i];
                }
                _ => out.push((i, &self.code[i..=i])),
            }
        }
        out
    }
}

/// Collects violations as `path:line: [id] message`.
fn report(out: &mut Vec<String>, f: &Source, at: usize, id: &str, message: String) {
    out.push(format!("{}:{}: [{id}] {message}", f.path, f.line(at)));
}

/// Runs the four rules over `files`; `metric_names` is the registry.
fn check(files: &[Source], metric_names: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    finding_traceability(files, &mut out);
    for f in files.iter().filter(|f| f.is_library()) {
        ordering_audit(f, &mut out);
    }
    metric_registry(files, metric_names, &mut out);
    mergeable_audit(files, &mut out);
    out
}

/// CBS-L06: each findings module cites a word-bounded `F1`–`F15` in its
/// doc comments, and together they cite all 15.
fn finding_traceability(files: &[Source], out: &mut Vec<String>) {
    let modules: Vec<&Source> = (files.iter())
        .filter(|f| f.path.starts_with("crates/analysis/src/findings/") && !f.is_test_path())
        .collect();
    let mut cited = BTreeSet::new();
    for f in &modules {
        let ids: BTreeSet<u32> = (f.comments.iter().filter(|c| c.doc))
            .flat_map(|c| c.text.split(|ch: char| !ch.is_alphanumeric() && ch != '_'))
            .filter_map(|w| w.strip_prefix('F'))
            .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            .filter_map(|d| d.parse().ok())
            .filter(|n| (1..=15).contains(n))
            .collect();
        if ids.is_empty() {
            let msg = "findings module cites no paper finding ID; add e.g. `//! … (F7)` (F1-F15)";
            report(out, f, 0, "CBS-L06", msg.to_owned());
        }
        cited.extend(ids);
    }
    let missing: Vec<String> = (1..=15)
        .filter(|n| !cited.contains(n))
        .map(|n| format!("F{n}"))
        .collect();
    let anchor = modules
        .iter()
        .find(|f| f.path.ends_with("/mod.rs"))
        .or(modules.first());
    if let (Some(anchor), false) = (anchor, missing.is_empty()) {
        let msg = format!(
            "paper findings {} are cited by no findings module",
            missing.join(", ")
        );
        report(out, anchor, 0, "CBS-L06", msg);
    }
}

/// CBS-L09: a non-doc `// ORDERING:` comment covers an atomic-ordering
/// site when it sits in the site's header gap or on the rest of its
/// line, or in the header gap of a block enclosing it. A site inside a
/// `use` is no site, and a comment covering no site is stale.
fn ordering_audit(f: &Source, out: &mut Vec<String>) {
    let marks: Vec<&Comment> = (f.comments.iter())
        .filter(|c| !c.doc && c.text.contains("ORDERING:") && !f.in_test(c.at))
        .collect();
    let mut used = vec![false; marks.len()];
    let words = f.words();
    for pair in words.windows(2) {
        let &[(at, "Ordering"), (v, variant)] = pair else {
            continue;
        };
        let atomic = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].contains(&variant);
        if !atomic || &f.code[at + 8..v] != "::" || f.in_test(at) {
            continue;
        }
        let eol = f.code[at..].find('\n').map_or(f.code.len(), |n| at + n);
        let gaps: Vec<Range<usize>> = [f.gap(at), at..eol]
            .into_iter()
            .chain(f.enclosing(at).map(|open| f.gap(open)))
            .collect();
        if words
            .iter()
            .any(|&(w, word)| word == "use" && gaps.iter().any(|g| g.contains(&w)))
        {
            continue;
        }
        let mut covered = false;
        for (c, used) in marks.iter().zip(&mut used) {
            if gaps.iter().any(|g| g.contains(&c.at)) {
                (*used, covered) = (true, true);
            }
        }
        if !covered {
            let msg = format!(
                "Ordering::{variant} needs a covering `// ORDERING:` comment \
                 (before its statement, on its line, or before an enclosing block)"
            );
            report(out, f, at, "CBS-L09", msg);
        }
    }
    for (c, _) in marks.iter().zip(used).filter(|(_, used)| !used) {
        let msg = "// ORDERING: comment does not cover any atomic ordering site";
        report(out, f, c.at, "CBS-L09", msg.to_owned());
    }
}

const REGISTRY: &str = "crates/obs/src/names.rs";

/// CBS-L12: the first argument of `.counter(`, `.gauge(`, `.histogram(`
/// or `.span(` in library code, when it is `"lit"`, `format!("lit…")` or
/// `&format!("lit…")`, is a registered name once each `{…}` reads `*`.
/// When the registry's own file is scanned, every entry must be emitted.
fn metric_registry(files: &[Source], names: &[&str], out: &mut Vec<String>) {
    // Past the whitespace at `at`, then past `prefix` if it is there.
    let skip = |f: &Source, at: usize, prefix: &str| {
        let at = at + f.code[at..].len() - f.code[at..].trim_start().len();
        at + f.code[at..]
            .strip_prefix(prefix)
            .map_or(0, |_| prefix.len())
    };
    let mut emitted = BTreeSet::new();
    for f in files.iter().filter(|f| f.is_library()) {
        for method in [".counter(", ".gauge(", ".histogram(", ".span("] {
            for (at, _) in f
                .code
                .match_indices(method)
                .filter(|&(at, _)| !f.in_test(at))
            {
                let mut arg = at + method.len();
                for prefix in ["&", "format!(", ""] {
                    arg = skip(f, arg, prefix);
                }
                let Some(name) = f.literal(arg).map(normalize) else {
                    continue;
                };
                if !names.contains(&name.as_str()) {
                    let msg = format!(
                        "metric `{name}` is not in METRIC_NAMES; register and document it in {REGISTRY}"
                    );
                    report(out, f, arg, "CBS-L12", msg);
                }
                emitted.insert(name);
            }
        }
    }
    let Some(registry) = files.iter().find(|f| f.path == REGISTRY) else {
        return;
    };
    for name in names.iter().filter(|n| !emitted.contains(**n)) {
        let mut quotes = registry.code.match_indices('"').map(|(at, _)| at);
        let at = quotes
            .find(|&q| registry.literal(q) == Some(*name))
            .unwrap_or(0);
        let msg = format!(
            "registered metric `{name}` is emitted by no scanned code; remove the stale entry"
        );
        report(out, registry, at, "CBS-L12", msg);
    }
}

/// Replaces each `{…}` interpolation with `*` and unescapes `{{`/`}}`.
fn normalize(name: &str) -> String {
    let (mut out, mut chars) = (String::new(), name.chars().peekable());
    while let Some(c) = chars.next() {
        match c {
            '{' | '}' if chars.next_if_eq(&c).is_some() => out.push(c),
            '{' => {
                chars.by_ref().find(|&c| c == '}');
                out.push('*');
            }
            c => out.push(c),
        }
    }
    out
}

/// The self type of an `impl` header (`impl<T> Trait for a::Type<T>`
/// gives `Type`), or `None` when the header is not an `impl`.
fn impl_type(header: &str) -> Option<String> {
    let (mut depth, mut flat) = (0, String::new());
    for (i, c) in header.char_indices() {
        match c {
            '<' | '[' => depth += 1,
            '>' if header[..i].ends_with('-') => {}
            '>' | ']' => depth -= 1,
            c if depth == 0 => flat.push(c),
            _ => {}
        }
    }
    let mut words = (flat.split(|c: char| !c.is_ascii_alphanumeric() && c != '_'))
        .filter(|w| !w.is_empty())
        .skip_while(|w| *w == "unsafe");
    if words.next() != Some("impl") {
        return None;
    }
    // The last word before any `where`, but none right after a `for`.
    (words.take_while(|w| *w != "where")).fold(None, |_, w| (w != "for").then(|| w.to_owned()))
}

/// CBS-L13: a `struct`/`enum` whose docs carry `MERGEABLE` has a
/// library `fn merge` in an `impl` of it in the same crate, and one test
/// file of that crate or of the root `tests/` names the type, `merge`
/// and an `*assoc*` identifier. Every library `fn merge` must sit
/// directly in an `impl` of a tagged type.
fn mergeable_audit(files: &[Source], out: &mut Vec<String>) {
    // (crate, type) -> (file, offset, tagged), first definition wins.
    let mut types: BTreeMap<(&str, &str), (&Source, usize, bool)> = BTreeMap::new();
    let mut merges: Vec<(&Source, usize, Option<String>)> = Vec::new();
    let mut evidence: Vec<(&str, BTreeSet<&str>)> = Vec::new();
    for f in files {
        let words = f.words();
        let in_tests = words
            .iter()
            .filter(|w| f.in_test(w.0))
            .map(|w| w.1)
            .collect();
        evidence.push((f.crate_name(), in_tests));
        for pair in words
            .windows(2)
            .filter(|p| f.is_library() && !f.in_test(p[0].0))
        {
            match *pair {
                [(at, "struct" | "enum"), (_, name)] => {
                    let docs = f.gap(at);
                    let tagged = (f.comments.iter())
                        .any(|c| c.doc && docs.contains(&c.at) && c.text.contains("MERGEABLE"));
                    types
                        .entry((f.crate_name(), name))
                        .or_insert((f, at, false))
                        .2 |= tagged;
                }
                [(at, "fn"), (_, "merge")] => {
                    let owner = f
                        .enclosing(at)
                        .last()
                        .and_then(|open| impl_type(&f.code[f.gap(open)]));
                    merges.push((f, at, owner));
                }
                _ => {}
            }
        }
    }
    for (&(krate, name), &(f, at, _)) in types.iter().filter(|(_, t)| t.2) {
        let law = |(c, words): &(&str, BTreeSet<&str>)| {
            (*c == krate || c.is_empty())
                && words.contains(name)
                && words.contains("merge")
                && words.iter().any(|w| w.to_lowercase().contains("assoc"))
        };
        if !merges
            .iter()
            .any(|m| m.0.crate_name() == krate && m.2.as_deref() == Some(name))
        {
            let msg = format!(
                "type `{name}` is tagged MERGEABLE but no `impl {name}` in this crate defines `merge`"
            );
            report(out, f, at, "CBS-L13", msg);
        } else if !evidence.iter().any(law) {
            let msg = format!(
                "type `{name}` is tagged MERGEABLE but no test exercises `{name}`/`merge` \
                 associativity (name the test `*_assoc*` and drive merge(merge(a,b),c) == \
                 merge(a,merge(b,c)))"
            );
            report(out, f, at, "CBS-L13", msg);
        }
    }
    for (f, at, owner) in merges {
        let owner = owner.as_deref().unwrap_or("no impl");
        if !types.get(&(f.crate_name(), owner)).is_some_and(|t| t.2) {
            let msg = format!(
                "`fn merge` on `{owner}`, whose docs lack the MERGEABLE tag: declare the merge \
                 laws (tag the type and add an associativity test) or rename the method"
            );
            report(out, f, at, "CBS-L13", msg);
        }
    }
}

/// The repository root, from this test's package (`crates/core`).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repository root")
}

/// Reads every `.rs` file under `dir` (repository-relative), skipping
/// `target`, `fixtures` and hidden directories.
fn walk(root: &Path, dir: &str, out: &mut Vec<Source>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(root.join(dir))
        .expect("readable directory")
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let rel = format!("{dir}/{name}");
        if path.is_dir() && !(name == "target" || name == "fixtures" || name.starts_with('.')) {
            walk(root, &rel, out);
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path).expect("UTF-8 source");
            out.push(Source::new(&rel, &text));
        }
    }
}

#[test]
fn workspace_is_clean() {
    let (root, mut files) = (root(), Vec::new());
    walk(&root, "crates", &mut files);
    walk(&root, "tests", &mut files);
    assert!(files.len() > 100, "walk looks wrong: {} files", files.len());
    let names: Vec<&str> = cbs_obs::METRIC_NAMES.iter().map(|n| n.0).collect();
    let violations = check(&files, &names);
    assert!(
        violations.is_empty(),
        "domain rule violations:\n{}",
        violations.join("\n")
    );
}

#[test]
fn all_fifteen_findings_are_cited_in_findings_modules() {
    let (mut files, mut violations) = (Vec::new(), Vec::new());
    walk(&root(), "crates/analysis/src/findings", &mut files);
    assert!(!files.is_empty(), "findings directory missing?");
    finding_traceability(&files, &mut violations);
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// Each row: the files (pretend path, text), how many violations the
/// rules report, and a substring of the report. `FIXTURE_NAMES` is the
/// registry; a stale-entry check runs only when a row scans `REGISTRY`.
const FIXTURE_NAMES: &[&str] = &["decode.batches", "fix.ok", "stream.shard*.requests"];
type Row = (&'static [(&'static str, &'static str)], usize, &'static str);
const X: &str = "crates/obs/src/x.rs";
const BARE: &str = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
const TAGGED: &str = "/// A running total. MERGEABLE: merging adds the totals.
pub struct Counter {
    total: u64,
}
impl Counter {
    pub fn merge(&mut self, other: &Counter) {
        self.total += other.total;
    }
}
";

fn check_rows(rows: &[Row]) {
    for (i, &(files, count, needle)) in rows.iter().enumerate() {
        let files: Vec<Source> = files.iter().map(|(p, text)| Source::new(p, text)).collect();
        let found = check(&files, FIXTURE_NAMES).join("\n");
        assert_eq!(found.lines().count(), count, "row {i}:\n{found}");
        assert!(found.contains(needle), "row {i} lacks {needle:?}:\n{found}");
    }
}

/// One `#[test]` per named list of rows.
macro_rules! fixtures {
    ($($name:ident: [$($row:expr),+])+) => {$(
        #[test]
        fn $name() { check_rows(&[$($row),+]); }
    )+};
}

fixtures! {
    // The planted violations: one per rule, beside compliant code.
    atomic_ordering_fixture_fires_once: [(&[("crates/obs/src/ordering_dirty.rs", "//! Fixture: `atomic-ordering-audit` — one bare `Ordering::*` site
//! (must fire) and one covered by an `// ORDERING:` justification.

use std::sync::atomic::{AtomicU64, Ordering};

fn bare(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

fn justified(cell: &AtomicU64) {
    // ORDERING: a reset nothing else synchronizes through.
    cell.store(0, Ordering::Relaxed);
}
")], 1, "ordering_dirty.rs:7: [CBS-L09] Ordering::Relaxed needs")]
    metric_registry_fixture_fires_once: [(&[("crates/core/src/emit_dirty.rs", "fn record(r: &Registry) {\n    r.counter(\"fix.ok\");\n    r.counter(\"fix.rogue\");\n}\n")], 1, "emit_dirty.rs:3: [CBS-L12] metric `fix.rogue` is not in METRIC_NAMES")]
    mergeable_fixture_fires_once: [(&[("crates/stats/src/merge_dirty.rs", "/// Per-shard partial summary. MERGEABLE: totals add.\nstruct Partial {\n    total: u64,\n}\n\n/// Not tagged and without a `merge`: unconstrained.\nstruct Plain {\n    total: u64,\n}\n")], 1, "type `Partial` is tagged MERGEABLE but no `impl Partial` in this crate defines `merge`")]
    findings_modules_must_cite_and_cover: [(&[("crates/analysis/src/findings/mod.rs", "//! Builders for F1, F2, F3, F4, F5, F6, F7, F8, F9, F10, F11, F12, F13, F14.\n"), ("crates/analysis/src/findings/orphan.rs", "//! No citation here.\n")], 2, "mod.rs:1: [CBS-L06] paper findings F15 are cited by no findings module")]
    // CBS-L06: only word-bounded F1-F15 in doc comments count.
    module_without_id_fires: [(&[("crates/analysis/src/findings/foo.rs", "//! No citation.\n")], 2, "foo.rs:1: [CBS-L06] findings module cites no")]
    module_with_id_passes: [(&[("crates/analysis/src/findings/foo.rs", "//! Reproduces Finding 7 (F7).\n")], 1, "findings F1, F2, F3, F4, F5, F6, F8, F9,")]
    id_in_code_or_plain_comment_does_not_count: [(&[("crates/analysis/src/findings/foo.rs", "// F7 in a plain comment\n//// F7 too\nconst F7: u32 = 7;\n")], 2, "cites no")]
    out_of_range_and_embedded_ids_ignored: [(&[("crates/analysis/src/findings/foo.rs", "//! F16 F0 XF7 F1a are all non-citations.\n")], 2, "cites no")]
    workspace_coverage_reports_missing: [(&[("crates/analysis/src/findings/a.rs", "//! F1, F2 (also F3).\n"), ("crates/analysis/src/findings/mod.rs", "//! F4-F15? cites F4 and F15.\n")], 1, "mod.rs:1: [CBS-L06] paper findings F5, F6, F7, F8, F9, F10, F11, F12, F13, F14 are")]
    // CBS-L09 coverage.
    bare_site_fires: [(&[(X, "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed)\n}\n")], 1, "x.rs:2: [CBS-L09] Ordering::Relaxed")]
    same_line_and_block_above_cover: [(&[(X, "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed) // ORDERING: a counter\n}\nfn g(a: &AtomicU64) -> u64 {\n    // ORDERING: a counter\n    a.load(Ordering::Relaxed)\n}\n")], 0, "")]
    enclosing_item_header_covers_whole_impl: [(&[(X, "// ORDERING: independent monotonic cells.
impl Counter {
    fn add(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }
    fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}
")], 0, "")]
    fn_header_covers_body_sites: [(&[(X, "impl Counter {
    // ORDERING: read-only snapshot, Relaxed suffices.
    fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
    fn add(&self) {
        self.v.fetch_add(1, Ordering::SeqCst);
    }
}
")], 1, "x.rs:7: [CBS-L09] Ordering::SeqCst")]
    stale_ordering_comment_fires: [(&[(X, "// ORDERING: justifies nothing.\nfn f() {}\n")], 1, "x.rs:1: [CBS-L09] // ORDERING: comment does not cover")]
    use_declarations_and_cmp_ordering_are_not_sites: [(&[(X, "use std::sync::atomic::Ordering::Relaxed;\nuse std::sync::atomic::{AtomicU64, Ordering::SeqCst};\nfn f(o: cmp::Ordering) -> bool { o == cmp::Ordering::Less }\n")], 0, "")]
    test_code_is_exempt: [(&[(X, "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        a.load(Ordering::Acquire);\n    }\n}\n"), ("crates/obs/src/y.rs", "#[test]\nfn t(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n")], 0, "")]
    // Test code: test and bin paths, `#[test]` and `#[cfg(…test…)]` spans.
    path_classification: [(&[("crates/obs/tests/x.rs", BARE), ("crates/obs/benches/x.rs", BARE), ("crates/obs/src/bin/x.rs", BARE), ("crates/obs/src/main.rs", BARE), (X, BARE)], 1, "crates/obs/src/x.rs:1: [CBS-L09] Ordering::Relaxed")]
    cfg_test_module_span: [(&[(X, "fn lib_code(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        a.load(Ordering::Acquire);\n    }\n}\nfn after(a: &AtomicU64) { a.load(Ordering::Release); }\n")], 2, "x.rs:10: [CBS-L09] Ordering::Release")]
    cfg_test_on_braceless_item: [(&[(X, "#[cfg(test)]\nuse std::collections::HashMap;\nfn real(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n")], 1, "x.rs:3: [CBS-L09] Ordering::SeqCst")]
    cfg_any_test_counts: [(&[(X, "#[cfg(any(test, feature = \"x\"))]\nfn helper(a: &AtomicU64) { a.load(Ordering::Relaxed); }\nfn real(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n")], 1, "x.rs:3: [CBS-L09] Ordering::SeqCst")]
    non_test_attrs_do_not_span: [(&[(X, "#[derive(Debug, Clone)]\nstruct S { x: u32 }\n#[inline]\nfn real(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n")], 1, "x.rs:4: [CBS-L09] Ordering::SeqCst")]
    // Scanner traps: a mis-scan moves a brace or hides a site.
    doc_comment_kinds: [(&[("crates/analysis/src/findings/foo.rs", "//// F1\n// F2\n/* F3 */\n/**/\nfn f() {}\n")], 2, "foo.rs:1: [CBS-L06] findings module cites no"),
        (&[("crates/analysis/src/findings/foo.rs", "//! F1\n/// F2\n/*! F3 */\n/** F4 */\nfn f() {}\n")], 1, "paper findings F5, F6, F7,"),
        (&[(X, "/// ORDERING: a doc comment is prose.\nfn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n")], 1, "Ordering::Acquire needs")]
    escaped_char_and_quote: [(&[(X, "// ORDERING: one cell.\nimpl Cell {\n    fn open() -> [char; 3] { ['}', '\\'', '\\n'] }\n    fn quote() -> (char, &'static str) { ('\"', \"a \\\" } b\") }\n    fn get(&self) -> u64 { self.v.load(Ordering::Relaxed) }\n}\n")], 0, "")]
    raw_strings_with_hashes: [(&[(X, "// ORDERING: one cell.\nimpl Cell {\n    fn raw() -> &'static str { r#\"say \"}\" // {\"# }\n    fn get(&self) -> u64 { self.v.load(Ordering::Relaxed) }\n}\n")], 0, "")]
    lifetime_vs_char: [(&[(X, "// ORDERING: one cell.\nimpl Cell {\n    fn pick<'a>(x: &'a u8) -> char { '{' }\n    fn get(&self) -> u64 { self.v.load(Ordering::Relaxed) }\n}\n")], 0, ""),
        (&[(X, "fn pick<'a>(x: &'a u8) -> &'a u8 { x }\nfn f(a: &AtomicU64) { a.load(Ordering::Release); }\n")], 1, "x.rs:2: [CBS-L09] Ordering::Release")]
    nested_block_comments: [(&[(X, "// ORDERING: one cell.\nimpl Cell {\n    /* outer /* inner */ Ordering::Relaxed } */\n    fn get(&self) -> u64 { self.v.load(Ordering::Relaxed) }\n}\n")], 0, "")]
    ordering_inside_string_is_a_string: [(&[(X, "fn text() -> &'static str { \"a \\\" Ordering::Relaxed \\\" b\" }\nfn raw() -> &'static str { r#\"Ordering::SeqCst\"# }\n")], 0, "")]
    // CBS-L12: literal and format! names; `{…}` reads `*` only in format!.
    registered_literal_and_format_sites_pass: [(&[(X, "fn f(r: &Registry, i: usize) {
    r.counter(\"decode.batches\");
    r.counter(&format!(\"stream.shard{i}.requests\"));
    r.gauge(format!(\"stream.shard{i:>8}.requests\"));
}
")], 0, "")]
    unregistered_name_fires: [(&[(X, "fn f(r: &Registry) {\n    r.gauge(\"stream.shard0.requests\");\n    r.counter(\"surprise.metric\");\n}\n")], 2, "x.rs:2: [CBS-L12] metric `stream.shard0.requests` is not")]
    normalize_handles_interpolations_and_escapes: [(&[(X, "fn f(r: &Registry) { r.span(&format!(\"odd.{{literal}}.braces\")); }\n")], 1, "metric `odd.{literal}.braces` is not")]
    test_code_sites_are_exempt: [(&[(X, "fn f(r: &Registry) { r.counter(\"fix.ok\"); }\n#[cfg(test)]\nmod tests {\n    fn t(r: &Registry) { r.counter(\"ad.hoc\"); }\n}\n")], 0, "")]
    stale_entries_fire: [(&[(REGISTRY, "pub const METRIC_NAMES: &[(&str, &str)] = &[];\n"), (X, "fn f(r: &Registry) { r.counter(\"decode.batches\"); r.histogram(\"fix.ok\"); }\n")], 1, "registered metric `stream.shard*.requests` is emitted by no scanned code")]
    // CBS-L13: evidence from the crate's tests, its cfg(test) code or root tests/.
    tagged_type_with_merge_and_assoc_test_passes: [(&[(X, TAGGED), ("crates/obs/tests/merge_props.rs", "#[test]\nfn counter_merge_is_associative() { Counter::default().merge(&b); }\n")], 0, "")]
    root_tests_supply_assoc_evidence: [(&[(X, TAGGED), ("tests/merge_laws.rs", "#[test]\nfn counter_merge_is_associative() { Counter::default().merge(&b); }\n")], 0, "")]
    tagged_type_without_assoc_test_fires: [(&[(X, TAGGED), ("crates/obs/tests/merge_props.rs", "#[test]\nfn merge_works() { Counter::default().merge(&b); }\n")], 1, "no test exercises `Counter`/`merge` associativity"),
        (&[(X, TAGGED), ("crates/stats/tests/merge_props.rs", "#[test]\nfn counter_merge_is_associative() { Counter::default().merge(&b); }\n")], 1, "associativity")]
    tagged_type_without_merge_fires: [(&[(X, "/// MERGEABLE: maxima.\npub struct Peak(u64);\nimpl Peak {\n    pub fn max(&mut self, o: &Peak) {}\n}\n"), ("crates/obs/tests/p.rs", "#[test]\nfn peak_merge_assoc() { Peak(1).merge(&Peak(2)); }\n")], 1, "x.rs:2: [CBS-L13] type `Peak` is tagged MERGEABLE but no `impl Peak`")]
    untagged_type_with_merge_method_fires_reverse_check: [(&[(X, "/// A total without declared laws.\npub struct Sneaky { v: u64 }\nimpl Sneaky {\n    pub fn merge(&mut self, o: &Sneaky) {}\n}\n")], 1, "x.rs:4: [CBS-L13] `fn merge` on `Sneaky`, whose docs lack the MERGEABLE tag")]
    untagged_types_are_unconstrained: [(&[(X, "/// A plain total.\npub struct Plain { v: u64 }\nimpl Plain {\n    pub fn add(&mut self, o: &Plain) {}\n}\n")], 0, "")]
    cfg_test_assoc_module_counts: [(&[(X, "/// MERGEABLE.\npub struct Total(u64);\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn assoc() { Total(1).merge(&Total(2)); }\n}\nimpl Total {\n    pub fn merge(&mut self, o: &Total) {}\n}\n")], 0, "")]
    cfg_test_module_idents_count_as_test_mentions: [(&[(X, TAGGED), ("crates/obs/src/y.rs", "pub fn y() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assoc(Counter::default().merge(&b)); }\n}\n")], 0, ""),
        (&[(X, TAGGED), ("crates/obs/src/y.rs", "pub fn assoc() { Counter::default().merge(&b); }\n")], 1, "no test exercises `Counter`")]
}

#[test]
fn lint_table_and_canary_agree() {
    let root = root();
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
    let canary = fs::read_to_string(root.join("crates/trace/src/canary.rs")).expect("canary");
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
