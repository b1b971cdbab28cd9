//! A small hand-rolled Rust lexer.
//!
//! The rule engine must never fire inside string literals or comments
//! (`let s = "don't unwrap()";` is not a violation), so every rule works
//! over this token stream instead of raw text. The lexer handles the
//! full set of Rust surface syntax that matters for that guarantee:
//!
//! * line comments (`//`), doc comments (`///`, `//!`);
//! * block comments with **nesting** (`/* /* */ */`), block doc
//!   comments (`/** .. */`, `/*! .. */`);
//! * string literals with escapes, byte strings, raw strings with any
//!   number of `#` guards (`r#".."#`), raw byte strings;
//! * char literals (including escapes) vs. lifetimes (`'a`, `'_`);
//! * raw identifiers (`r#fn`);
//! * numeric literals with underscores, base prefixes, exponents and
//!   type suffixes, each one token (`1.5e-3`, `0x1e5`, `2f64`);
//! * compound operators the rules care about (`==`, `!=`, `::`, ...).
//!
//! It is deliberately *not* a parser: rules pattern-match short token
//! sequences, which is robust enough for the lint set and keeps the
//! crate dependency-free.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (includes raw identifiers, without `r#`).
    Ident,
    /// A lifetime such as `'a` or `'_` (text includes the quote).
    Lifetime,
    /// Punctuation or operator; compound operators in
    /// [`COMPOUND_OPERATORS`] are single tokens.
    Punct,
    /// String literal of any flavor (normal, byte, raw), quotes included.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// Outer doc comment (`///` or `/** */`).
    DocOuter,
    /// Inner doc comment (`//!` or `/*! */`).
    DocInner,
    /// Non-doc comment (`//`, `/* */`).
    Comment,
}

/// Two-character operators lexed as single tokens. Everything else is
/// emitted one character at a time, which is all the rules need.
pub const COMPOUND_OPERATORS: &[&str] =
    &["==", "!=", "<=", ">=", "::", "->", "=>", "..", "&&", "||"];

/// One lexed token with its 1-based source position.
///
/// Diagnostics always point at the *start* position; the end line
/// exists so multi-line tokens (raw strings, block comments) can be
/// reasoned about precisely — e.g. a block comment that *ends* on the
/// line above an item is contiguous with it even though it *started*
/// three lines up.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Source text of the token (for comments, the full comment).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
    /// 1-based line of the token's last character (equals [`line`]
    /// except for multi-line tokens).
    ///
    /// [`line`]: Token::line
    pub end_line: u32,
}

impl Token {
    /// True for comment tokens of any flavor (doc or not).
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Comment | TokenKind::DocOuter | TokenKind::DocInner
        )
    }

    /// True for doc comments (outer or inner).
    pub fn is_doc(&self) -> bool {
        matches!(self.kind, TokenKind::DocOuter | TokenKind::DocInner)
    }
}

/// Character cursor with line/column tracking.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    /// Line of the most recently bumped character — the end line of
    /// whatever token just finished lexing.
    last_line: u32,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            last_line: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        self.last_line = self.line;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eof(&self) -> bool {
        self.pos >= self.chars.len()
    }
}

/// Lexes `src` into a token stream. Never fails: unexpected bytes are
/// emitted as single-character [`TokenKind::Punct`] tokens, and
/// unterminated literals/comments run to end of file.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut tokens = Vec::new();
    while !cur.eof() {
        let line = cur.line;
        let col = cur.col;
        let c = match cur.peek(0) {
            Some(c) => c,
            None => break,
        };
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let tok = if c == '/' && cur.peek(1) == Some('/') {
            lex_line_comment(&mut cur)
        } else if c == '/' && cur.peek(1) == Some('*') {
            lex_block_comment(&mut cur)
        } else if c == '"' {
            lex_string(&mut cur)
        } else if c == '\'' {
            lex_quote(&mut cur)
        } else if (c == 'r' || c == 'b') && starts_special_literal(&cur) {
            lex_special_literal(&mut cur)
        } else if c == '_' || c.is_alphabetic() {
            lex_ident(&mut cur)
        } else if c.is_ascii_digit() {
            lex_number(&mut cur)
        } else {
            lex_punct(&mut cur)
        };
        tokens.push(Token {
            kind: tok.0,
            text: tok.1,
            line,
            col,
            end_line: cur.last_line,
        });
    }
    tokens
}

type Lexed = (TokenKind, String);

fn lex_line_comment(cur: &mut Cursor) -> Lexed {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    // `///` is an outer doc comment, but `////…` (4+ slashes) is plain;
    // `//!` is an inner doc comment.
    let kind = if text.starts_with("//!") {
        TokenKind::DocInner
    } else if text.starts_with("///") && !text.starts_with("////") {
        TokenKind::DocOuter
    } else {
        TokenKind::Comment
    };
    (kind, text)
}

fn lex_block_comment(cur: &mut Cursor) -> Lexed {
    let mut text = String::new();
    // Opening `/*`.
    for _ in 0..2 {
        if let Some(c) = cur.bump() {
            text.push(c);
        }
    }
    let mut depth = 1usize;
    while depth > 0 && !cur.eof() {
        if cur.peek(0) == Some('/') && cur.peek(1) == Some('*') {
            depth += 1;
            text.push('/');
            text.push('*');
            cur.bump();
            cur.bump();
        } else if cur.peek(0) == Some('*') && cur.peek(1) == Some('/') {
            depth -= 1;
            text.push('*');
            text.push('/');
            cur.bump();
            cur.bump();
        } else if let Some(c) = cur.bump() {
            text.push(c);
        }
    }
    // `/** .. */` is outer doc (but the empty `/**/` is plain), and
    // `/*! .. */` is inner doc.
    let kind = if text.starts_with("/*!") {
        TokenKind::DocInner
    } else if text.starts_with("/**") && text.len() > 4 {
        TokenKind::DocOuter
    } else {
        TokenKind::Comment
    };
    (kind, text)
}

fn lex_string(cur: &mut Cursor) -> Lexed {
    let mut text = String::new();
    if let Some(c) = cur.bump() {
        text.push(c); // opening quote
    }
    while let Some(c) = cur.bump() {
        text.push(c);
        if c == '\\' {
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == '"' {
            break;
        }
    }
    (TokenKind::Str, text)
}

/// Lexes a token starting with `'`: a char literal or a lifetime.
fn lex_quote(cur: &mut Cursor) -> Lexed {
    // `'a`/`'_` not followed by a closing quote is a lifetime; `'a'`,
    // `'\n'`, `'\u{7FFF}'` are char literals.
    let next = cur.peek(1);
    let is_lifetime = match next {
        Some(c) if c == '_' || c.is_alphabetic() => cur.peek(2) != Some('\''),
        _ => false,
    };
    let mut text = String::new();
    if let Some(c) = cur.bump() {
        text.push(c); // the quote
    }
    if is_lifetime {
        while let Some(c) = cur.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        return (TokenKind::Lifetime, text);
    }
    while let Some(c) = cur.bump() {
        text.push(c);
        if c == '\\' {
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == '\'' {
            break;
        }
    }
    (TokenKind::Char, text)
}

/// Does the cursor sit on `r"`, `r#`, `b"`, `b'`, `br"` or `br#`?
fn starts_special_literal(cur: &Cursor) -> bool {
    match (cur.peek(0), cur.peek(1)) {
        (Some('r'), Some('"' | '#')) => true,
        (Some('b'), Some('"' | '\'' | 'r')) => {
            // `br` must be followed by a raw-string opener to be special;
            // otherwise `brand` is an identifier.
            if cur.peek(1) == Some('r') {
                matches!(cur.peek(2), Some('"' | '#'))
            } else {
                true
            }
        }
        _ => false,
    }
}

/// Lexes raw strings, byte strings, raw byte strings, byte chars, and
/// raw identifiers (`r#ident`).
fn lex_special_literal(cur: &mut Cursor) -> Lexed {
    let mut text = String::new();
    let first = cur.peek(0);
    if first == Some('b') {
        if let Some(c) = cur.bump() {
            text.push(c);
        }
        match cur.peek(0) {
            Some('\'') => {
                let (_, rest) = lex_quote(cur);
                text.push_str(&rest);
                return (TokenKind::Char, text);
            }
            Some('"') => {
                let (_, rest) = lex_string(cur);
                text.push_str(&rest);
                return (TokenKind::Str, text);
            }
            _ => {} // `br…` raw byte string: fall through to raw handling
        }
    }
    // At `r…`: raw string or raw identifier.
    if let Some(c) = cur.bump() {
        text.push(c); // the `r`
    }
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        text.push('#');
        cur.bump();
    }
    if cur.peek(0) != Some('"') {
        // `r#ident`: a raw identifier, not a string.
        while let Some(c) = cur.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        return (TokenKind::Ident, text);
    }
    text.push('"');
    cur.bump();
    // Body runs until `"` followed by `hashes` hash marks.
    'body: while let Some(c) = cur.bump() {
        text.push(c);
        if c == '"' {
            for ahead in 0..hashes {
                if cur.peek(ahead) != Some('#') {
                    continue 'body;
                }
            }
            for _ in 0..hashes {
                text.push('#');
                cur.bump();
            }
            break;
        }
    }
    (TokenKind::Str, text)
}

fn lex_ident(cur: &mut Cursor) -> Lexed {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '_' || c.is_alphanumeric() {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    (TokenKind::Ident, text)
}

fn lex_number(cur: &mut Cursor) -> Lexed {
    let mut text = String::new();
    let base_prefixed =
        cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'));
    if base_prefixed {
        text.push('0');
        cur.bump();
        if let Some(c) = cur.bump() {
            text.push(c);
        }
        while let Some(c) = cur.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        return (TokenKind::Num, text);
    }
    while let Some(c) = cur.peek(0) {
        if c == '_' || c.is_ascii_digit() {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    // Fractional part: `.` followed by a digit (so `1..5` and `1.max()`
    // stay integers).
    if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        text.push('.');
        cur.bump();
        while let Some(c) = cur.peek(0) {
            if c == '_' || c.is_ascii_digit() {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
    }
    // Exponent: `e`/`E`, optional sign, at least one digit.
    if matches!(cur.peek(0), Some('e' | 'E')) {
        let (sign, digit) = match cur.peek(1) {
            Some('+' | '-') => (true, cur.peek(2)),
            other => (false, other),
        };
        if digit.is_some_and(|c| c.is_ascii_digit()) {
            text.push('e');
            cur.bump();
            if sign {
                if let Some(c) = cur.bump() {
                    text.push(c);
                }
            }
            while let Some(c) = cur.peek(0) {
                if c == '_' || c.is_ascii_digit() {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
    }
    // Type suffix (`u64`, `f32`, `usize`, ...).
    if cur.peek(0).is_some_and(|c| c == '_' || c.is_alphabetic()) {
        while let Some(c) = cur.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
    }
    (TokenKind::Num, text)
}

fn lex_punct(cur: &mut Cursor) -> Lexed {
    if let (Some(a), Some(b)) = (cur.peek(0), cur.peek(1)) {
        let pair = [a, b].iter().collect::<String>();
        if COMPOUND_OPERATORS.contains(&pair.as_str()) {
            cur.bump();
            cur.bump();
            return (TokenKind::Punct, pair);
        }
    }
    let c = cur.bump().unwrap_or(' ');
    (TokenKind::Punct, c.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn main() { x.unwrap(); }");
        assert!(toks.contains(&(TokenKind::Ident, "unwrap".into())));
        assert!(toks.contains(&(TokenKind::Punct, ".".into())));
    }

    #[test]
    fn unwrap_inside_string_is_a_string() {
        let toks = lex(r#"let s = "call .unwrap() now";"#);
        assert!(toks.iter().all(|t| t.text != "unwrap"));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still outer */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokenKind::Comment);
        assert_eq!(toks[1], (TokenKind::Ident, "x".into()));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r###"let s = r#"has "quotes" and unwrap()"#;"###);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("unwrap"));
        assert!(toks
            .iter()
            .all(|t| t.kind == TokenKind::Str || t.text != "unwrap"));
    }

    #[test]
    fn lifetime_vs_char() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.iter().filter(|t| t.0 == TokenKind::Lifetime).count() == 2);
        assert!(toks.contains(&(TokenKind::Char, "'x'".into())));
    }

    #[test]
    fn escaped_char_and_quote() {
        let toks = kinds(r"let c = '\''; let n = '\n';");
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Char).count(), 2);
    }

    #[test]
    fn float_classification() {
        for src in ["1.5", "1e9", "2f64", "3", "0x1e5", "1_000", "1.5e-3"] {
            assert_eq!(kinds(src), vec![(TokenKind::Num, src.to_owned())]);
        }
    }

    #[test]
    fn range_and_method_on_int_are_not_floats() {
        let nums: Vec<String> = lex("for i in 1..5 { i.max(2); } x.0")
            .into_iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text)
            .collect();
        assert_eq!(nums, ["1", "5", "2", "0"]);
    }

    #[test]
    fn doc_comment_kinds() {
        let toks =
            kinds("//! inner\n/// outer\n//// plain\n// plain\n/*! ib */\n/** ob */\n/* pb */");
        let got: Vec<TokenKind> = toks.iter().map(|t| t.0).collect();
        assert_eq!(
            got,
            vec![
                TokenKind::DocInner,
                TokenKind::DocOuter,
                TokenKind::Comment,
                TokenKind::Comment,
                TokenKind::DocInner,
                TokenKind::DocOuter,
                TokenKind::Comment,
            ]
        );
    }

    #[test]
    fn compound_operators() {
        let toks = kinds("a == b != c :: d -> e");
        let puncts: Vec<String> = toks
            .into_iter()
            .filter(|t| t.0 == TokenKind::Punct)
            .map(|t| t.1)
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "::", "->"]);
    }

    #[test]
    fn raw_identifier() {
        let toks = kinds("let r#fn = 1;");
        assert!(toks.contains(&(TokenKind::Ident, "r#fn".into())));
    }

    #[test]
    fn byte_literals() {
        let toks = kinds(r##"let a = b"bytes"; let c = b'x'; let r = br#"raw"#;"##);
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Char).count(), 1);
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn multi_line_tokens_carry_start_and_end_positions() {
        // Raw string spanning three lines, then code on the closing
        // line: the string starts at its `r`, ends at the closing `#`,
        // and the code after it sits on the final line.
        let src = "let s = r#\"one\ntwo\nthree\"#; x.unwrap();";
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).expect("str");
        assert_eq!((s.line, s.col, s.end_line), (1, 9, 3), "{:?}", s.text);
        let x = toks.iter().find(|t| t.text == "x").expect("x");
        assert_eq!((x.line, x.col), (3, 10));
        let unwrap = toks.iter().find(|t| t.text == "unwrap").expect("unwrap");
        assert_eq!((unwrap.line, unwrap.col), (3, 12));

        // Nested block comment spanning lines: same contract.
        let toks = lex("/* a\n /* b */\n*/ y");
        assert_eq!((toks[0].line, toks[0].col, toks[0].end_line), (1, 1, 3));
        assert_eq!((toks[1].line, toks[1].col), (3, 4));
    }

    #[test]
    fn single_line_tokens_end_where_they_start() {
        let toks = lex("alpha == 1.5\nbeta");
        let ends: Vec<(u32, u32)> = toks.iter().map(|t| (t.line, t.end_line)).collect();
        assert_eq!(ends, [(1, 1), (1, 1), (1, 1), (2, 2)]);
    }
}
