//! Item-level recursive-descent parser over the token stream.
//!
//! This is deliberately *not* a Rust grammar: it recognises just enough
//! item structure — functions, `impl` blocks, modules, type
//! definitions, `use` declarations and doc comments — for cross-file
//! rules to reason about symbols and enclosing items. It never fails: token
//! sequences it does not understand are skipped, so a file that rustc
//! rejects still yields a best-effort item tree.
//!
//! The parser feeds [`crate::index::WorkspaceIndex`], which aggregates
//! items per crate for `mergeable-audit`, and the enclosing-item chains
//! `atomic-ordering-audit` reads.

use crate::lexer::{Token, TokenKind};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free or associated).
    Fn,
    /// `struct` or `union`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait` definition.
    Trait,
    /// `impl` block (inherent or trait).
    Impl,
    /// `mod` (inline or out-of-line).
    Mod,
    /// `use` declaration.
    Use,
    /// `const` item (not `const fn`).
    Const,
    /// `static` item.
    Static,
    /// `type` alias.
    TypeAlias,
    /// `macro_rules!` definition.
    Macro,
    /// `extern "…" { … }` block.
    ExternBlock,
}

/// One parsed item: a node in the file's item tree.
#[derive(Debug)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Declared name. For `impl` blocks this is the self type's last
    /// path segment; for `use` it is the full dotted path text; empty
    /// when no name applies (e.g. an extern block).
    pub name: String,
    /// Concatenated outer doc-comment text directly above the item.
    pub doc: String,
    /// Line of the declaring keyword (`fn`, `struct`, …).
    pub line: u32,
    /// First line of the item including attributes and doc comments.
    pub start_line: u32,
    /// Last line (closing brace or terminating `;`).
    pub end_line: u32,
    /// Nested items (mod and impl bodies; fn bodies are opaque).
    pub children: Vec<Item>,
}

impl Item {
    /// Does `line` fall inside this item (attributes included)?
    pub fn contains_line(&self, line: u32) -> bool {
        line >= self.start_line && line <= self.end_line
    }
}

/// Parses a token stream (comments included — they carry docs) into a
/// top-level item list. Never fails; unrecognised tokens are skipped.
pub fn parse_items(tokens: &[Token]) -> Vec<Item> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
    };
    p.parse_block(u32::MAX)
}

/// Returns the chain of items enclosing `line`, outermost first. Empty
/// when the line sits outside every item (e.g. between items).
pub fn enclosing_chain(items: &[Item], line: u32) -> Vec<&Item> {
    let mut chain = Vec::new();
    let mut scope = items;
    loop {
        let Some(hit) = scope.iter().find(|i| i.contains_line(line)) else {
            return chain;
        };
        chain.push(hit);
        scope = &hit.children;
    }
}

/// Modifier keywords that may precede an item's declaring keyword.
const MODIFIERS: &[&str] = &["pub", "unsafe", "async", "const", "extern", "default"];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Index of the next non-comment token at/after `from`.
    fn next_code(&self, from: usize) -> Option<usize> {
        self.toks[from..]
            .iter()
            .position(|t| !t.is_comment())
            .map(|off| from + off)
    }

    fn text(&self, idx: usize) -> &str {
        self.toks.get(idx).map_or("", |t| t.text.as_str())
    }

    /// Parses items until a closing `}` at this nesting level or EOF.
    /// `_depth_line` is unused beyond documenting intent; recursion is
    /// bounded by brace matching.
    fn parse_block(&mut self, _depth_line: u32) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            let Some(i) = self.next_code(self.pos) else {
                self.pos = self.toks.len();
                return items;
            };
            if self.text(i) == "}" {
                self.pos = i; // caller consumes the brace
                return items;
            }
            if let Some(item) = self.parse_item(i) {
                items.push(item);
            } else {
                // Unrecognised: skip one token, re-sync.
                self.pos = i + 1;
            }
        }
    }

    /// Attempts to parse one item starting at code index `start`.
    fn parse_item(&mut self, start: usize) -> Option<Item> {
        let doc = self.docs_above(start);
        let start_line = self.toks[start].line.min(self.doc_start_line(start));

        // Attributes (outer and inner) are skipped: no rule reads them.
        let mut i = start;
        loop {
            let code = self.next_code(i)?;
            if self.text(code) != "#" {
                i = code;
                break;
            }
            let after_hash = self.next_code(code + 1)?;
            let inner = self.text(after_hash) == "!";
            let open = if inner {
                self.next_code(after_hash + 1)?
            } else {
                after_hash
            };
            if self.text(open) != "[" {
                return None;
            }
            i = self.match_delim(open, "[", "]")? + 1;
        }

        // Modifiers.
        let mut saw_extern = false;
        loop {
            let t = self.text(i);
            if !MODIFIERS.contains(&t) {
                break;
            }
            match t {
                "pub" => {
                    // Optional restriction: pub(crate), pub(in path).
                    let next = self.next_code(i + 1)?;
                    if self.text(next) == "(" {
                        i = self.match_delim(next, "(", ")")? + 1;
                        i = self.next_code(i)?;
                        continue;
                    }
                }
                "const" => {
                    // `const fn` (possibly with more modifiers) is a
                    // function; anything else is a `const` item and
                    // `const` is its declaring keyword, not a modifier.
                    let next = self.next_code(i + 1)?;
                    let nt = self.text(next);
                    if nt != "fn" && !MODIFIERS.contains(&nt) {
                        break;
                    }
                }
                "extern" => {
                    saw_extern = true;
                    // Optional ABI string.
                    let next = self.next_code(i + 1)?;
                    if self.toks[next].kind == TokenKind::Str {
                        i = next;
                    }
                }
                _ => {}
            }
            i = self.next_code(i + 1)?;
        }

        let kw = self.text(i).to_owned();
        let kw_line = self.toks[i].line;
        let finish = |p: &Self, kind, name, children, end: usize| {
            Some(Item {
                kind,
                name,
                doc,
                line: kw_line,
                start_line,
                end_line: p.toks.get(end).map_or(kw_line, |t| t.end_line),
                children,
            })
        };

        match kw.as_str() {
            "fn" => {
                let name_i = self.next_code(i + 1)?;
                let name = self.text(name_i).to_owned();
                let body_open = self.fn_body_open(name_i + 1)?;
                if self.text(body_open) == ";" {
                    self.pos = body_open + 1;
                    return finish(self, ItemKind::Fn, name, Vec::new(), body_open);
                }
                let close = self.match_delim(body_open, "{", "}")?;
                self.pos = close + 1;
                finish(self, ItemKind::Fn, name, Vec::new(), close)
            }
            "struct" | "union" | "enum" | "trait" => {
                let name_i = self.next_code(i + 1)?;
                let name = self.text(name_i).to_owned();
                let kind = match kw.as_str() {
                    "enum" => ItemKind::Enum,
                    "trait" => ItemKind::Trait,
                    _ => ItemKind::Struct,
                };
                let end = self.skip_type_body(name_i + 1)?;
                self.pos = end + 1;
                finish(self, kind, name, Vec::new(), end)
            }
            "impl" => {
                let mut j = self.next_code(i + 1)?;
                if self.text(j) == "<" {
                    j = self.next_code(self.match_angle(j)? + 1)?;
                }
                // The self type is the header's last identifier before
                // the body brace (after a depth-0 `for` in trait impls).
                let mut self_ty: Option<usize> = None;
                let open;
                let mut k = j;
                loop {
                    match self.text(k) {
                        "{" => {
                            open = k;
                            break;
                        }
                        ";" => return None, // `impl Trait for Type;` — not real Rust
                        "for" => self_ty = None,
                        "<" => k = self.match_angle(k)?,
                        "(" => k = self.match_delim(k, "(", ")")?,
                        "[" => k = self.match_delim(k, "[", "]")?,
                        "where" => {
                            // Skip the where clause wholesale.
                            while self.text(k) != "{" {
                                k = match self.text(k) {
                                    "<" => self.match_angle(k)?,
                                    "(" => self.match_delim(k, "(", ")")?,
                                    _ => self.next_code(k + 1)?,
                                };
                            }
                            continue;
                        }
                        _ if self.toks[k].kind == TokenKind::Ident => self_ty = Some(k),
                        _ => {}
                    }
                    k = self.next_code(k + 1)?;
                }
                let name = self_ty.map(|x| self.text(x).to_owned()).unwrap_or_default();
                self.pos = open + 1;
                let children = self.parse_block(kw_line);
                let close = self.next_code(self.pos)?;
                self.pos = close + 1;
                finish(self, ItemKind::Impl, name, children, close)
            }
            "mod" => {
                let name_i = self.next_code(i + 1)?;
                let name = self.text(name_i).to_owned();
                let next = self.next_code(name_i + 1)?;
                if self.text(next) == ";" {
                    self.pos = next + 1;
                    return finish(self, ItemKind::Mod, name, Vec::new(), next);
                }
                if self.text(next) != "{" {
                    return None;
                }
                self.pos = next + 1;
                let children = self.parse_block(kw_line);
                let close = self.next_code(self.pos)?;
                self.pos = close + 1;
                finish(self, ItemKind::Mod, name, children, close)
            }
            "use" => {
                let mut k = self.next_code(i + 1)?;
                let mut path = String::new();
                while self.text(k) != ";" {
                    if self.text(k) == "{" {
                        let close = self.match_delim(k, "{", "}")?;
                        path.push_str(&self.flatten(k, close + 1));
                        k = self.next_code(close + 1)?;
                        continue;
                    }
                    path.push_str(self.text(k));
                    k = self.next_code(k + 1)?;
                }
                self.pos = k + 1;
                finish(self, ItemKind::Use, path, Vec::new(), k)
            }
            "const" | "static" => {
                // (`const fn` was already folded into modifiers above,
                // so reaching here means a value item.)
                let name_i = self.next_code(i + 1)?;
                // `static mut NAME` / `const _:`.
                let name_i = if self.text(name_i) == "mut" {
                    self.next_code(name_i + 1)?
                } else {
                    name_i
                };
                let name = self.text(name_i).to_owned();
                let end = self.skip_to_semi(name_i + 1)?;
                self.pos = end + 1;
                let kind = if kw == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                finish(self, kind, name, Vec::new(), end)
            }
            "type" => {
                let name_i = self.next_code(i + 1)?;
                let name = self.text(name_i).to_owned();
                let end = self.skip_to_semi(name_i + 1)?;
                self.pos = end + 1;
                finish(self, ItemKind::TypeAlias, name, Vec::new(), end)
            }
            "macro_rules" => {
                let bang = self.next_code(i + 1)?;
                let name_i = self.next_code(bang + 1)?;
                let name = self.text(name_i).to_owned();
                let open = self.next_code(name_i + 1)?;
                let close = match self.text(open) {
                    "{" => self.match_delim(open, "{", "}")?,
                    "(" => self.match_delim(open, "(", ")")?,
                    _ => return None,
                };
                self.pos = close + 1;
                finish(self, ItemKind::Macro, name, Vec::new(), close)
            }
            "{" if saw_extern => {
                let close = self.match_delim(i, "{", "}")?;
                self.pos = close + 1;
                finish(
                    self,
                    ItemKind::ExternBlock,
                    String::new(),
                    Vec::new(),
                    close,
                )
            }
            _ => None,
        }
    }

    /// Index of a function's body `{` or terminating `;`, scanning from
    /// after its name with nested delimiters matched so a `where`
    /// clause or default-arg expression can't derail it.
    fn fn_body_open(&self, mut k: usize) -> Option<usize> {
        loop {
            k = self.next_code(k)?;
            k = match self.text(k) {
                "{" | ";" => return Some(k),
                "<" => self.match_angle(k)? + 1,
                "(" => self.match_delim(k, "(", ")")? + 1,
                "[" => self.match_delim(k, "[", "]")? + 1,
                "" => return None,
                _ => k + 1,
            };
        }
    }

    /// Skips a struct/enum/trait body: `;`, `(…);`, or `{…}`. Steps
    /// over generics and a `where` clause. Returns the end index.
    fn skip_type_body(&self, mut k: usize) -> Option<usize> {
        loop {
            k = self.next_code(k)?;
            match self.text(k) {
                ";" => return Some(k),
                "{" => return self.match_delim(k, "{", "}"),
                "(" => {
                    // Tuple struct: the `;` after the paren list.
                    let close = self.match_delim(k, "(", ")")?;
                    k = self.next_code(close + 1)?;
                }
                "<" => k = self.next_code(self.match_angle(k)? + 1)?,
                "[" => k = self.next_code(self.match_delim(k, "[", "]")? + 1)?,
                "" => return None,
                _ => k = self.next_code(k + 1)?,
            }
        }
    }

    /// Skips to the `;` ending a const/static/type item, matching
    /// nested delimiters (initializer expressions may hold blocks).
    fn skip_to_semi(&self, mut k: usize) -> Option<usize> {
        loop {
            k = self.next_code(k)?;
            match self.text(k) {
                ";" => return Some(k),
                "{" => k = self.next_code(self.match_delim(k, "{", "}")? + 1)?,
                "(" => k = self.next_code(self.match_delim(k, "(", ")")? + 1)?,
                "[" => k = self.next_code(self.match_delim(k, "[", "]")? + 1)?,
                "" => return None,
                _ => k = self.next_code(k + 1)?,
            }
        }
    }

    /// Matches `open` at index `at` to its closing `close`, ignoring
    /// comments. Returns the close index.
    fn match_delim(&self, at: usize, open: &str, close: &str) -> Option<usize> {
        let mut depth = 0usize;
        let mut k = at;
        loop {
            let t = self.text(k);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            } else if t.is_empty() {
                return None;
            }
            k = self.next_code(k + 1)?;
        }
    }

    /// Matches a `<` to its `>`, tolerating shift-like sequences (the
    /// lexer emits `<` and `>` as single punct tokens, so `>>` arrives
    /// as two tokens and plain depth counting works). `->`/`=>` arrive
    /// pre-joined by the lexer and never miscount.
    fn match_angle(&self, at: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut k = at;
        loop {
            match self.text(k) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                "(" => k = self.match_delim(k, "(", ")")?,
                "[" => k = self.match_delim(k, "[", "]")?,
                ";" | "{" | "" => return None, // bailed: not generics
                _ => {}
            }
            k = self.next_code(k + 1)?;
        }
    }

    /// Flattens tokens `[from, to)` to a single spaced string
    /// (comments skipped).
    fn flatten(&self, from: usize, to: usize) -> String {
        let mut s = String::new();
        for t in &self.toks[from.min(self.toks.len())..to.min(self.toks.len())] {
            if t.is_comment() {
                continue;
            }
            if !s.is_empty()
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                && s.chars()
                    .last()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '"')
            {
                s.push(' ');
            }
            s.push_str(&t.text);
        }
        s
    }

    /// Outer doc comments in the contiguous comment run directly above
    /// the token at `start`, concatenated.
    fn docs_above(&self, start: usize) -> String {
        let mut doc_parts: Vec<&str> = Vec::new();
        let first_line = self.toks[start].line;
        let mut expect = first_line;
        for t in self.toks[..start].iter().rev() {
            if !t.is_comment() || t.end_line + 1 < expect {
                break;
            }
            expect = t.line;
            if t.kind == TokenKind::DocOuter {
                doc_parts.push(&t.text);
            }
        }
        doc_parts.reverse();
        doc_parts.join("\n")
    }

    /// First line of the doc/attr run above `start` (for `start_line`).
    fn doc_start_line(&self, start: usize) -> u32 {
        let mut line = self.toks[start].line;
        let mut expect = line;
        for t in self.toks[..start].iter().rev() {
            if !t.is_comment() || t.end_line + 1 < expect {
                break;
            }
            expect = t.line;
            line = t.line;
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        parse_items(&lex(src))
    }

    #[test]
    fn parses_fns_with_signatures() {
        let items = parse("pub fn add(a: u64, b: u64) -> u64 {\n    a + b\n}\n");
        assert_eq!(items.len(), 1);
        let f = &items[0];
        assert_eq!(f.kind, ItemKind::Fn);
        assert_eq!(f.name, "add");
        assert_eq!(f.line, 1);
        assert_eq!(f.end_line, 3);
    }

    #[test]
    fn parses_generic_fn_and_where_clause() {
        let src = "fn map<T: Clone, U>(x: Vec<T>, f: impl Fn(T) -> U) -> Vec<U>\nwhere\n    U: Default,\n{\n    vec![]\n}\n";
        let items = parse(src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "map");
        assert_eq!(items[0].end_line, 6);
    }

    #[test]
    fn parses_structs_enums_docs_attrs() {
        let src = "\
/// A counter. MERGEABLE.
#[derive(Debug, Clone)]
pub struct Counter {
    total: u64,
}

enum Op { Read, Write }

struct Unit;
struct Pair(u32, u32);
";
        let items = parse(src);
        assert_eq!(items.len(), 4);
        assert_eq!(items[0].kind, ItemKind::Struct);
        assert_eq!(items[0].name, "Counter");
        assert!(items[0].doc.contains("MERGEABLE"));
        assert_eq!(items[0].start_line, 1);
        assert_eq!(items[0].line, 3);
        assert_eq!(items[0].end_line, 5);
        assert_eq!(items[1].kind, ItemKind::Enum);
        assert_eq!(items[2].name, "Unit");
        assert_eq!(items[3].name, "Pair");
    }

    #[test]
    fn parses_impl_blocks_with_children() {
        let src = "\
impl Counter {
    pub fn merge(&mut self, other: &Counter) {}
}

impl Default for Counter {
    fn default() -> Self { Counter }
}

impl<T: Copy> From<Vec<T>> for Holder<T> {
    fn from(v: Vec<T>) -> Self { Holder(v) }
}
";
        let items = parse(src);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].name, "Counter");
        assert_eq!(items[0].children.len(), 1);
        assert_eq!(items[0].children[0].name, "merge");
        assert_eq!(items[1].name, "Counter");
        assert_eq!(items[1].children[0].name, "default");
        assert_eq!(items[2].name, "Holder");
    }

    #[test]
    fn parses_mods_uses_consts() {
        let src = "\
mod helpers;

pub mod inner {
    pub const LIMIT: usize = 8;
    static TABLE: [u8; 2] = [0, 1];
}

use std::collections::{BTreeMap, BTreeSet};
type Alias = u64;
";
        let items = parse(src);
        assert_eq!(items.len(), 4);
        assert_eq!(items[0].kind, ItemKind::Mod);
        assert_eq!(items[0].name, "helpers");
        let inner = &items[1];
        assert_eq!(inner.children.len(), 2);
        assert_eq!(inner.children[0].kind, ItemKind::Const);
        assert_eq!(inner.children[0].name, "LIMIT");
        assert_eq!(inner.children[1].kind, ItemKind::Static);
        assert_eq!(items[2].kind, ItemKind::Use);
        assert!(items[2].name.contains("BTreeMap"));
        assert_eq!(items[3].kind, ItemKind::TypeAlias);
    }

    #[test]
    fn unsafe_and_target_feature_fns() {
        let src = "\
#[target_feature(enable = \"avx2\")]
pub unsafe fn kernel(p: *const u8) -> u64 { 0 }

unsafe extern \"C\" { fn mmap() -> i32; }
";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        assert_eq!(
            (items[0].kind, items[0].name.as_str()),
            (ItemKind::Fn, "kernel")
        );
        assert_eq!(items[0].start_line, 1);
        assert_eq!(items[1].kind, ItemKind::ExternBlock);
    }

    #[test]
    fn enclosing_chain_walks_nesting() {
        let src = "\
mod outer {
    impl Thing {
        fn leaf(&self) {
            work();
        }
    }
}
";
        let items = parse(src);
        let chain = enclosing_chain(&items, 4);
        let names: Vec<&str> = chain.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "Thing", "leaf"]);
        assert!(enclosing_chain(&items, 200).is_empty());
    }

    #[test]
    fn garbage_never_panics() {
        for src in [
            "fn",
            "impl",
            "struct {",
            "fn f(",
            "pub pub pub",
            "mod m { fn g( }",
            "#[",
            "use a::",
            "macro_rules! m",
            "} } }",
            "const X",
            "impl<T for {}",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn const_fn_is_a_fn() {
        let items = parse("pub const fn id(x: u8) -> u8 { x }\nconst K: u8 = 1;\n");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert_eq!(items[0].name, "id");
        assert_eq!(items[1].kind, ItemKind::Const);
    }
}
