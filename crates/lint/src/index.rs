//! Per-crate cross-file symbol index built from parsed item trees.
//!
//! The index aggregates every scanned [`SourceFile`]'s items by
//! workspace crate so cross-file rules can answer symbol questions —
//! "which types does crate X define?", "which impl blocks cover type
//! `Counter`?", "which identifiers does its test code mention?" —
//! without re-walking token streams.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::parser::{Item, ItemKind};
use crate::source::SourceFile;

/// One type (struct/enum) definition site.
#[derive(Debug, Clone, Copy)]
pub struct TypeSite<'a> {
    /// The file declaring it.
    pub file: &'a SourceFile,
    /// The parsed item.
    pub item: &'a Item,
}

/// One `impl` block.
#[derive(Debug, Clone, Copy)]
pub struct ImplSite<'a> {
    /// The file holding it.
    pub file: &'a SourceFile,
    /// The parsed `impl` item (children are its associated items).
    pub item: &'a Item,
}

/// The set of identifiers appearing in one file's *test* code.
#[derive(Debug)]
pub struct TestIdents {
    /// File path.
    pub path: String,
    /// Every identifier token inside test spans (or anywhere in a
    /// test-collateral file). Macro bodies lex as ordinary tokens, so
    /// names referenced inside `proptest!` blocks are included.
    pub idents: BTreeSet<String>,
}

/// Symbols of one workspace crate, aggregated across its files.
#[derive(Debug, Default)]
pub struct CrateIndex<'a> {
    /// Type name → definition sites.
    pub types: BTreeMap<String, Vec<TypeSite<'a>>>,
    /// All `impl` blocks.
    pub impls: Vec<ImplSite<'a>>,
    /// Per-file identifier sets drawn from test code only.
    pub test_idents: Vec<TestIdents>,
}

impl<'a> CrateIndex<'a> {
    /// Methods (fn children of impl blocks) of `type_name` with the
    /// given method name, outside test code.
    pub fn methods_named(&self, type_name: &str, method: &str) -> Vec<&Item> {
        let mut out = Vec::new();
        for imp in &self.impls {
            if imp.item.name != type_name {
                continue;
            }
            for child in &imp.item.children {
                if child.kind == ItemKind::Fn
                    && child.name == method
                    && !imp.file.in_test_code(child.line)
                {
                    out.push(child);
                }
            }
        }
        out
    }
}

/// The cross-file symbol index: one [`CrateIndex`] per workspace
/// crate (keyed by crate directory name; files outside a
/// `crates/<name>/` layout land under the empty key).
#[derive(Debug, Default)]
pub struct WorkspaceIndex<'a> {
    /// Crate name → its symbols.
    pub crates: BTreeMap<String, CrateIndex<'a>>,
}

impl<'a> WorkspaceIndex<'a> {
    /// Builds the index over every scanned file.
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut ws = WorkspaceIndex::default();
        for file in files {
            let cx = ws.crates.entry(file.crate_name.clone()).or_default();
            index_items(file, &file.items, cx);

            let mut idents = BTreeSet::new();
            for t in &file.tokens {
                if t.kind == TokenKind::Ident && file.in_test_code(t.line) {
                    idents.insert(t.text.clone());
                }
            }
            if !idents.is_empty() {
                cx.test_idents.push(TestIdents {
                    path: file.path.clone(),
                    idents,
                });
            }
        }
        ws
    }

    /// The index for `crate_name`, if any of its files were scanned.
    pub fn of(&self, crate_name: &str) -> Option<&CrateIndex<'a>> {
        self.crates.get(crate_name)
    }
}

fn index_items<'a>(file: &'a SourceFile, items: &'a [Item], cx: &mut CrateIndex<'a>) {
    for item in items {
        match item.kind {
            ItemKind::Struct | ItemKind::Enum => {
                cx.types
                    .entry(item.name.clone())
                    .or_default()
                    .push(TypeSite { file, item });
            }
            ItemKind::Impl => cx.impls.push(ImplSite { file, item }),
            ItemKind::Mod => index_items(file, &item.children, cx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Does any single file's test code in `cx` mention all of `names`?
    fn any_test_mentions_all(cx: &CrateIndex<'_>, names: &[&str]) -> bool {
        cx.test_idents
            .iter()
            .any(|t| names.iter().all(|n| t.idents.contains(*n)))
    }

    #[test]
    fn indexes_fns_types_impls_across_files() {
        let lib = SourceFile::from_text(
            "crates/demo/src/lib.rs",
            "pub struct Counter;\nimpl Counter {\n    pub fn merge(&mut self) {}\n}\nmod inner {\n    pub struct Gauge;\n    impl Gauge { pub fn merge(&mut self) {} }\n}\n",
        );
        let test = SourceFile::from_text(
            "crates/demo/tests/laws.rs",
            "#[test]\nfn law() { merge(); associative(); }\n",
        );
        let files = vec![lib, test];
        let ws = WorkspaceIndex::build(&files);
        let cx = ws.of("demo").expect("crate indexed");

        assert!(cx.types.contains_key("Counter"));
        assert_eq!(cx.methods_named("Counter", "merge").len(), 1);
        assert!(cx.methods_named("Counter", "missing").is_empty());
        // Items inside modules are indexed too.
        assert!(cx.types.contains_key("Gauge"));
        assert_eq!(cx.methods_named("Gauge", "merge").len(), 1);

        assert!(any_test_mentions_all(cx, &["merge", "associative"]));
        assert!(!any_test_mentions_all(cx, &["merge", "absent"]));
    }

    #[test]
    fn cfg_test_module_idents_count_as_test_mentions() {
        let lib = SourceFile::from_text(
            "crates/demo/src/lib.rs",
            "pub fn twin_a() {}\npub fn twin_b() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { twin_a(); twin_b(); }\n}\n",
        );
        let files = vec![lib];
        let ws = WorkspaceIndex::build(&files);
        let cx = ws.of("demo").expect("indexed");
        assert!(any_test_mentions_all(cx, &["twin_a", "twin_b"]));
    }
}
