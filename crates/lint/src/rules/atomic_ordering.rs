//! `atomic-ordering-audit`: every atomic `Ordering::*` site must be
//! covered by an `// ORDERING:` justification.
//!
//! Memory orderings are the easiest concurrency decision to cargo-cult:
//! `Relaxed` copied from a counter into a flag, `SeqCst` sprinkled "to
//! be safe". Like a safety comment over an unsafe block, a
//! justification must sit next to the site, with one extra coverage
//! position, because orderings usually come in coherent per-type
//! families: a comment is covering when it sits
//!
//! 1. on the site's own line,
//! 2. in the contiguous comment/attribute block directly above the
//!    site, or
//! 3. in the block directly above any *enclosing item's* declaration
//!    (fn, impl, mod — via the item parser), so one `// ORDERING:`
//!    on an `impl Counter` justifies the whole counter protocol
//!    instead of demanding twenty copies.
//!
//! Stale `ORDERING:` comments (covering no site) are errors. Test code
//! is exempt.
//!
//! Only the five atomic variants (`Relaxed`, `Acquire`, `Release`,
//! `AcqRel`, `SeqCst`) count; `cmp::Ordering` paths never match, and
//! `use` declarations are not sites.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::parser::ItemKind;
use crate::rules::Rule;
use crate::source::SourceFile;

/// The marker an ordering justification must carry.
pub const MARKER: &str = "ORDERING:";

/// Atomic memory-ordering variants.
const VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// See module docs.
#[derive(Debug)]
pub struct AtomicOrderingAudit;

/// One `Ordering::*` use site, as reported by
/// [`ordering_sites`] (also the basis of `--ordering-inventory`).
#[derive(Debug)]
pub struct OrderingSite {
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the `Ordering` token.
    pub col: u32,
    /// The variant (`Relaxed`, …).
    pub variant: &'static str,
}

/// All atomic-ordering sites in a file, test code included (the rule
/// filters; the inventory reports everything).
pub fn ordering_sites(file: &SourceFile) -> Vec<OrderingSite> {
    let toks: Vec<_> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    for w in toks.windows(3) {
        if w[0].text != "Ordering" || w[1].text != "::" {
            continue;
        }
        let Some(&variant) = VARIANTS.iter().find(|v| **v == w[2].text) else {
            continue;
        };
        // `use …::Ordering::Relaxed;` declares, it doesn't decide.
        if file
            .enclosing_items(w[0].line)
            .last()
            .is_some_and(|i| i.kind == ItemKind::Use)
        {
            continue;
        }
        out.push(OrderingSite {
            line: w[0].line,
            col: w[0].col,
            variant,
        });
    }
    out
}

impl Rule for AtomicOrderingAudit {
    fn name(&self) -> &'static str {
        "atomic-ordering-audit"
    }

    fn description(&self) -> &'static str {
        "atomic Ordering::* sites need a covering // ORDERING: justification"
    }

    fn check_file(&self, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
        if !file.is_library_code() {
            return;
        }
        // Per-line facts: doc comments are prose and neither carry nor
        // satisfy an obligation.
        let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
        let mut ordering_lines: BTreeMap<u32, u32> = BTreeMap::new(); // line -> col
        let mut first_code: BTreeMap<u32, &str> = BTreeMap::new();
        for t in &file.tokens {
            if t.is_comment() {
                comment_lines.insert(t.line);
                if !t.is_doc() && t.text.contains(MARKER) {
                    ordering_lines.entry(t.line).or_insert(t.col);
                }
            } else {
                first_code.entry(t.line).or_insert(t.text.as_str());
            }
        }
        let attr_only = |line: u32| first_code.get(&line) == Some(&"#");

        let mut used: BTreeSet<u32> = BTreeSet::new();
        for site in ordering_sites(file) {
            if file.in_test_code(site.line) {
                continue;
            }
            let mut covered = ordering_lines.contains_key(&site.line);
            if covered {
                used.insert(site.line);
            }
            // Contiguous comment/attr block directly above the site.
            let mut l = site.line;
            while l > 1 {
                l -= 1;
                if comment_lines.contains(&l) {
                    if ordering_lines.contains_key(&l) {
                        used.insert(l);
                        covered = true;
                    }
                } else if !attr_only(l) {
                    break;
                }
            }
            // The block above each enclosing item's declaration:
            // start_line already includes the contiguous doc/attr/
            // comment run above the keyword.
            for item in file.enclosing_items(site.line) {
                for (&l, _) in ordering_lines.range(item.start_line..=item.line) {
                    used.insert(l);
                    covered = true;
                }
            }
            if !covered {
                diags.push(Diagnostic::error(
                    file.path.clone(),
                    site.line,
                    site.col,
                    self.name(),
                    format!(
                        "Ordering::{} needs a covering `// ORDERING:` comment \
                         (this line, the block above, or above the enclosing \
                         fn/impl/mod)",
                        site.variant
                    ),
                ));
            }
        }

        for (&line, &col) in &ordering_lines {
            if !used.contains(&line) && !file.in_test_code(line) {
                diags.push(Diagnostic::error(
                    file.path.clone(),
                    line,
                    col,
                    self.name(),
                    "// ORDERING: comment does not cover any atomic ordering site",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_text("crates/obs/src/x.rs", src);
        let mut d = Vec::new();
        AtomicOrderingAudit.check_file(&f, &mut d);
        d
    }

    #[test]
    fn bare_site_fires() {
        let d = run("fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed)\n}\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Relaxed"));
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn same_line_and_block_above_cover() {
        assert!(run(
            "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed) // ORDERING: monotonic counter, no sync\n}\n"
        )
        .is_empty());
        assert!(run(
            "fn f(a: &AtomicU64) -> u64 {\n    // ORDERING: monotonic counter, no sync\n    a.load(Ordering::Relaxed)\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn enclosing_item_header_covers_whole_impl() {
        let src = "\
// ORDERING: counters are independent monotonic cells; Relaxed
// everywhere because no other memory is published through them.
impl Counter {
    fn add(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }
    fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn fn_header_covers_body_sites() {
        let src = "\
impl Counter {
    // ORDERING: read-only snapshot, Relaxed suffices.
    fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
    fn add(&self) {
        self.v.fetch_add(1, Ordering::SeqCst);
    }
}
";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("SeqCst"));
    }

    #[test]
    fn stale_ordering_comment_fires() {
        let d = run("// ORDERING: justifies nothing.\nfn f() {}\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("does not cover"));
    }

    #[test]
    fn use_declarations_and_cmp_ordering_are_not_sites() {
        assert!(run("use std::sync::atomic::Ordering::Relaxed;\nfn f() {}\n").is_empty());
        assert!(run(
            "fn f(o: core::cmp::Ordering) -> bool {\n    o == core::cmp::Ordering::Less\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        a.load(Ordering::Acquire);
    }
}
";
        assert!(run(src).is_empty());
        let f = SourceFile::from_text(
            "crates/obs/tests/x.rs",
            "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n",
        );
        let mut d = Vec::new();
        AtomicOrderingAudit.check_file(&f, &mut d);
        assert!(d.is_empty());
    }

    #[test]
    fn inventory_reports_all_sites() {
        let f = SourceFile::from_text(
            "crates/obs/src/x.rs",
            "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n    a.store(1, Ordering::Release);\n}\n",
        );
        let sites = ordering_sites(&f);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].variant, "Relaxed");
        assert_eq!(sites[1].variant, "Release");
    }
}
