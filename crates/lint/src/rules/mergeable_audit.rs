//! `mergeable-audit`: types tagged `MERGEABLE` must expose `merge`
//! plus an associativity test.
//!
//! ROADMAP item 1 (agent/controller fan-out) rests on one algebraic
//! fact: partial analysis states merge lawfully, so
//! `analyze(a ++ b) == merge(analyze(a), analyze(b))`. This rule
//! enforces the contract from day one. Tagging is by doc comment —
//! write `MERGEABLE` in a struct's or enum's docs (upper-case, so
//! prose mentions don't trigger) and the index-level audit requires:
//!
//! - a `merge` method in some non-test `impl` of the type, in the
//!   same crate;
//! - a test (in one file) that mentions the type, `merge`, and an
//!   identifier containing `assoc` — the shape of an associativity
//!   proptest like `counter_merge_is_associative`. Cross-crate law
//!   tests living in the repository-root `tests/` directory (indexed
//!   under the unnamed workspace crate) count for every crate.
//!
//! The audit also runs in reverse: a library type that defines a
//! `merge` method without carrying the tag is flagged — every merge
//! in the workspace must declare (and prove) its laws, so the
//! controller fold can trust any `merge` it composes. Types with
//! neither the tag nor a `merge` method are unconstrained.

use crate::diag::Diagnostic;
use crate::index::WorkspaceIndex;
use crate::rules::Rule;

/// The doc-comment tag marking a type as mergeable.
pub const TAG: &str = "MERGEABLE";

/// See module docs.
#[derive(Debug)]
pub struct MergeableAudit;

impl Rule for MergeableAudit {
    fn name(&self) -> &'static str {
        "mergeable-audit"
    }

    fn description(&self) -> &'static str {
        "MERGEABLE-tagged types need a merge method and an associativity test"
    }

    fn check_index(&self, index: &WorkspaceIndex<'_>, diags: &mut Vec<Diagnostic>) {
        // Repository-root `tests/` files index under the unnamed crate
        // (empty key); their identifiers form a workspace-wide pool of
        // associativity evidence, because a merge law over types of
        // several crates can only be pinned from outside any single
        // crate.
        let shared: &[crate::index::TestIdents] = index
            .crates
            .get("")
            .map(|cx| cx.test_idents.as_slice())
            .unwrap_or(&[]);
        for cx in index.crates.values() {
            for (name, sites) in &cx.types {
                let lib_sites: Vec<_> = sites
                    .iter()
                    .filter(|s| s.file.is_library_code() && !s.file.in_test_code(s.item.line))
                    .collect();
                let Some(first) = lib_sites.first() else {
                    continue;
                };
                let tagged = lib_sites.iter().any(|s| s.item.doc.contains(TAG));
                let has_merge = !cx.methods_named(name, "merge").is_empty();
                if !tagged {
                    if has_merge {
                        diags.push(Diagnostic::error(
                            first.file.path.clone(),
                            first.item.line,
                            1,
                            self.name(),
                            format!(
                                "type `{name}` defines `merge` but its doc lacks the \
                                 {TAG} tag — declare the merge laws (tag the type and \
                                 add an associativity test) or rename the method"
                            ),
                        ));
                    }
                    continue;
                }
                if !has_merge {
                    diags.push(Diagnostic::error(
                        first.file.path.clone(),
                        first.item.line,
                        1,
                        self.name(),
                        format!(
                            "type `{name}` is tagged {TAG} but no `impl {name}` \
                             in this crate defines `merge`"
                        ),
                    ));
                    continue;
                }
                let mentions_law = |t: &crate::index::TestIdents| {
                    t.idents.contains(name)
                        && t.idents.contains("merge")
                        && t.idents.iter().any(|i| i.to_lowercase().contains("assoc"))
                };
                let has_assoc_test =
                    cx.test_idents.iter().any(mentions_law) || shared.iter().any(mentions_law);
                if !has_assoc_test {
                    diags.push(Diagnostic::error(
                        first.file.path.clone(),
                        first.item.line,
                        1,
                        self.name(),
                        format!(
                            "type `{name}` is tagged {TAG} but no test exercises \
                             `{name}`/`merge` associativity (name the test \
                             `*_assoc*` and drive merge(merge(a,b),c) == \
                             merge(a,merge(b,c)))"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(files: Vec<SourceFile>) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        let index = WorkspaceIndex::build(&files);
        MergeableAudit.check_index(&index, &mut d);
        d
    }

    const TAGGED: &str = "\
/// A running total. MERGEABLE: merging adds the totals.
pub struct Counter {
    total: u64,
}
impl Counter {
    pub fn merge(&mut self, other: &Counter) {
        self.total += other.total;
    }
}
";

    #[test]
    fn tagged_type_with_merge_and_assoc_test_passes() {
        let lib = SourceFile::from_text("crates/obs/src/metrics.rs", TAGGED);
        let t = SourceFile::from_text(
            "crates/obs/tests/merge_props.rs",
            "#[test]\nfn counter_merge_is_associative() {\n    let mut a = Counter::default();\n    a.merge(&b);\n}\n",
        );
        assert!(run(vec![lib, t]).is_empty());
    }

    #[test]
    fn tagged_type_without_merge_fires() {
        let lib = SourceFile::from_text(
            "crates/obs/src/metrics.rs",
            "/// MERGEABLE.\npub struct Gauge { v: u64 }\n",
        );
        let d = run(vec![lib]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("defines `merge`"));
    }

    #[test]
    fn tagged_type_without_assoc_test_fires() {
        let lib = SourceFile::from_text("crates/obs/src/metrics.rs", TAGGED);
        let t = SourceFile::from_text(
            "crates/obs/tests/merge_props.rs",
            "#[test]\nfn merge_works() { let mut a = Counter::default(); a.merge(&b); }\n",
        );
        let d = run(vec![lib, t]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("associativity"), "{d:?}");
    }

    #[test]
    fn untagged_types_are_unconstrained() {
        let lib = SourceFile::from_text(
            "crates/obs/src/metrics.rs",
            "/// Keeps a mergeable-looking total, but is not tagged.\npub struct Plain { v: u64 }\n",
        );
        assert!(run(vec![lib]).is_empty());
    }

    #[test]
    fn untagged_type_with_merge_method_fires_reverse_check() {
        let lib = SourceFile::from_text(
            "crates/obs/src/metrics.rs",
            "/// A total without declared laws.\npub struct Sneaky { v: u64 }\nimpl Sneaky {\n    pub fn merge(&mut self, other: &Sneaky) { self.v += other.v; }\n}\n",
        );
        let d = run(vec![lib]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("lacks the MERGEABLE tag"), "{d:?}");
    }

    #[test]
    fn root_tests_directory_supplies_assoc_evidence_workspace_wide() {
        // The associativity proptest lives at the repository root
        // (`tests/`), outside any `crates/<name>/` layout — it must
        // still satisfy the audit for the type's home crate.
        let lib = SourceFile::from_text("crates/obs/src/metrics.rs", TAGGED);
        let t = SourceFile::from_text(
            "tests/merge_laws.rs",
            "#[test]\nfn counter_merge_is_associative() {\n    let mut a = Counter::default();\n    a.merge(&b);\n}\n",
        );
        assert!(run(vec![lib, t]).is_empty());
    }

    #[test]
    fn cfg_test_assoc_module_counts() {
        let src = format!(
            "{TAGGED}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn assoc_law() {{ Counter::default().merge(&o); }}\n}}\n"
        );
        let lib = SourceFile::from_text("crates/obs/src/metrics.rs", &src);
        assert!(run(vec![lib]).is_empty());
    }
}
