//! `forbid-unsafe-header`: every workspace crate root must carry
//! `#![forbid(unsafe_code)]`, and the few files that opt out must
//! justify every unsafe site.
//!
//! `#![deny(unsafe_code)]` is accepted as a root fallback, but only
//! when a justifying comment sits on the attribute's line or the line
//! above (some crates need deny-with-local-allow rather than forbid).
//!
//! Inside library files the rule then audits the opted-out surface,
//! mirroring the header's suppression machinery at item granularity:
//!
//! - every `unsafe` block / `unsafe impl` / `unsafe extern` needs a
//!   `// SAFETY:` comment on its line or in the contiguous run of
//!   comment and attribute lines directly above it (`unsafe fn`
//!   declarations are exempt — their obligation sits at call sites);
//! - every `allow(unsafe_code)` needs a justifying comment in the same
//!   positions;
//! - a `// SAFETY:` comment that covers no unsafe site is itself an
//!   error, so stale justifications cannot linger after a refactor.
//!
//! Test code is exempt throughout.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::rules::Rule;
use crate::source::SourceFile;

/// See module docs.
#[derive(Debug)]
pub struct ForbidUnsafeHeader;

/// What kind of unsafe surface a site exposes, which decides the
/// justification it needs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Site {
    /// An `unsafe` keyword (block, impl, extern): needs `// SAFETY:`.
    Keyword,
    /// An `allow(unsafe_code)` suppression: needs any comment.
    Suppress,
}

impl Rule for ForbidUnsafeHeader {
    fn name(&self) -> &'static str {
        "forbid-unsafe-header"
    }

    fn description(&self) -> &'static str {
        "crate roots must forbid unsafe_code; opted-out unsafe sites need SAFETY comments"
    }

    fn check_file(&self, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
        let is_crate_root = file.path.contains("crates/")
            && (file.path.ends_with("/src/lib.rs") || file.path.ends_with("/src/main.rs"));
        if is_crate_root {
            self.check_root_header(file, diags);
        }
        if file.is_library_code() {
            self.check_unsafe_sites(file, diags);
        }
    }
}

impl ForbidUnsafeHeader {
    fn check_root_header(&self, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
        let toks: Vec<_> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        for w in toks.windows(8) {
            let texts: Vec<&str> = w.iter().map(|t| t.text.as_str()).collect();
            if texts[0] == "#"
                && texts[1] == "!"
                && texts[2] == "["
                && (texts[3] == "forbid" || texts[3] == "deny")
                && texts[4] == "("
                && texts[5] == "unsafe_code"
                && texts[6] == ")"
                && texts[7] == "]"
            {
                if texts[3] == "forbid" {
                    return; // satisfied
                }
                // deny: require a justifying comment on this line or
                // the line above.
                let attr_line = w[0].line;
                let justified = file
                    .tokens
                    .iter()
                    .any(|t| t.is_comment() && (t.line == attr_line || t.line + 1 == attr_line));
                if justified {
                    return;
                }
                diags.push(Diagnostic::error(
                    file.path.clone(),
                    attr_line,
                    w[0].col,
                    self.name(),
                    "#![deny(unsafe_code)] needs a comment justifying why \
                     #![forbid(unsafe_code)] is not usable",
                ));
                return;
            }
        }
        diags.push(Diagnostic::error(
            file.path.clone(),
            1,
            1,
            self.name(),
            "crate root is missing #![forbid(unsafe_code)]",
        ));
    }

    fn check_unsafe_sites(&self, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
        // Per-line facts. Doc comments are prose, not justifications:
        // they neither carry a safety obligation nor satisfy one.
        let mut comment_lines: BTreeSet<u32> = BTreeSet::new();
        let mut plain_comment_lines: BTreeSet<u32> = BTreeSet::new();
        let mut safety_lines: BTreeMap<u32, u32> = BTreeMap::new(); // line -> col
        let mut first_code: BTreeMap<u32, &str> = BTreeMap::new();
        for t in &file.tokens {
            if t.is_comment() {
                comment_lines.insert(t.line);
                if !t.is_doc() {
                    plain_comment_lines.insert(t.line);
                    if t.text.contains("SAFETY:") {
                        safety_lines.entry(t.line).or_insert(t.col);
                    }
                }
            } else {
                first_code.entry(t.line).or_insert(t.text.as_str());
            }
        }
        // A line holding only attributes may sit between a site and its
        // justification (safety comment above `#[allow(unsafe_code)]`
        // above the unsafe keyword), so the upward walk steps over it.
        let attr_only = |line: u32| first_code.get(&line) == Some(&"#");

        let toks: Vec<_> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut sites: Vec<(u32, u32, Site)> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            // `unsafe fn` is a declaration: the body's operations still
            // need their own justified blocks (or the fn is itself the
            // documented contract), and call sites carry the proof.
            if t.text == "unsafe" && toks.get(i + 1).map(|n| n.text.as_str()) != Some("fn") {
                sites.push((t.line, t.col, Site::Keyword));
            }
        }
        for w in toks.windows(4) {
            if w[0].text == "allow"
                && w[1].text == "("
                && w[2].text == "unsafe_code"
                && w[3].text == ")"
            {
                sites.push((w[0].line, w[0].col, Site::Suppress));
            }
        }
        sites.sort_unstable();

        let mut used_safety: BTreeSet<u32> = BTreeSet::new();
        for &(line, col, kind) in &sites {
            if file.in_test_code(line) {
                continue;
            }
            // A trailing comment on the site's own line counts, then
            // the contiguous block of comment/attribute lines above.
            let mut justified = match kind {
                Site::Keyword => safety_lines.contains_key(&line),
                Site::Suppress => plain_comment_lines.contains(&line),
            };
            if safety_lines.contains_key(&line) {
                used_safety.insert(line);
            }
            let mut l = line;
            while l > 1 {
                l -= 1;
                if comment_lines.contains(&l) {
                    if safety_lines.contains_key(&l) {
                        used_safety.insert(l);
                        justified = true;
                    } else if kind == Site::Suppress && plain_comment_lines.contains(&l) {
                        justified = true;
                    }
                } else if !attr_only(l) {
                    break; // code or a blank line ends the block
                }
            }
            if !justified {
                let msg = match kind {
                    Site::Keyword => {
                        "unsafe code needs a `// SAFETY:` comment on the preceding lines"
                    }
                    Site::Suppress => "allow(unsafe_code) needs a justifying comment above it",
                };
                diags.push(Diagnostic::error(
                    file.path.clone(),
                    line,
                    col,
                    self.name(),
                    msg,
                ));
            }
        }

        for (&line, &col) in &safety_lines {
            if !used_safety.contains(&line) && !file.in_test_code(line) {
                diags.push(Diagnostic::error(
                    file.path.clone(),
                    line,
                    col,
                    self.name(),
                    "// SAFETY: comment does not cover any unsafe code",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_text(path, src);
        let mut d = Vec::new();
        ForbidUnsafeHeader.check_file(&f, &mut d);
        d
    }

    #[test]
    fn forbid_satisfies() {
        assert!(run(
            "crates/core/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\npub fn f() {}",
        )
        .is_empty());
    }

    #[test]
    fn missing_header_fires() {
        let d = run("crates/core/src/lib.rs", "pub fn f() {}");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "forbid-unsafe-header");
    }

    #[test]
    fn deny_needs_justification() {
        assert_eq!(
            run("crates/core/src/lib.rs", "#![deny(unsafe_code)]\n").len(),
            1
        );
        assert!(run(
            "crates/core/src/lib.rs",
            "// compat shim needs local allow(unsafe_code)\n#![deny(unsafe_code)]\n",
        )
        .is_empty());
    }

    #[test]
    fn non_root_files_skip_header_check() {
        assert!(run("crates/core/src/streaming.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn justified_simd_style_block_passes() {
        // A SAFETY comment, then an allow attribute, then the unsafe
        // expression.
        let src = "\
pub fn f() -> u64 {
    // SAFETY: AVX2 support was verified at runtime on the line above.
    #[allow(unsafe_code)]
    unsafe { g() }
}
";
        assert!(run("crates/trace/src/mmap.rs", src).is_empty());
    }

    #[test]
    fn bare_unsafe_block_fires() {
        let d = run(
            "crates/trace/src/mmap.rs",
            "pub fn f() -> u64 {\n    unsafe { g() }\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("SAFETY"));
    }

    #[test]
    fn unjustified_allow_fires() {
        let d = run(
            "crates/trace/src/mmap.rs",
            "#[allow(unsafe_code)]\nmod imp {}\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("allow(unsafe_code)"));
    }

    #[test]
    fn module_level_allow_with_comment_passes() {
        let src = "\
// allow (not forbid): the whole module is FFI, each call site is
// individually justified.
#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {}
";
        assert!(run("crates/trace/src/mmap.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_declarations_are_exempt() {
        let src = "\
/// Docs.
#[target_feature(enable = \"avx2\")]
pub unsafe fn kernel(x: u64) -> u64 {
    x
}
";
        assert!(run("crates/trace/src/mmap.rs", src).is_empty());
    }

    #[test]
    fn unsafe_impl_needs_safety() {
        let bare = "struct M;\nunsafe impl Send for M {}\n";
        assert_eq!(run("crates/trace/src/mmap.rs", bare).len(), 1);
        let ok = "struct M;\n// SAFETY: read-only pages, no interior mutability.\nunsafe impl Send for M {}\n";
        assert!(run("crates/trace/src/mmap.rs", ok).is_empty());
    }

    #[test]
    fn unused_safety_comment_fires() {
        let d = run(
            "crates/trace/src/mmap.rs",
            "// SAFETY: this justifies nothing.\npub fn f() {}\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("does not cover"));
    }

    #[test]
    fn doc_comments_are_not_safety_carriers() {
        // `SAFETY:` in prose docs is neither an obligation nor a
        // justification.
        let unused_doc = "//! Every block carries a `SAFETY:` tag.\npub fn f() {}\n";
        assert!(run("crates/trace/src/helper.rs", unused_doc).is_empty());
        let doc_above_unsafe = "/// SAFETY: docs do not justify.\nfn f() { unsafe { g() } }\n";
        assert_eq!(run("crates/trace/src/helper.rs", doc_above_unsafe).len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        unsafe { core::hint::unreachable_unchecked() }
    }
}
";
        assert!(run("crates/trace/src/mmap.rs", src).is_empty());
        assert!(run("crates/analysis/tests/x.rs", "fn f() { unsafe { g() } }\n").is_empty());
    }
}
