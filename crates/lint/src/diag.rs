//! Structured diagnostics and their human/JSON renderings.

/// One finding: a rule fired at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// Name of the rule that fired (kebab-case).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic. Every diagnostic is an error: it fails the
    /// run.
    pub fn error(
        file: impl Into<String>,
        line: u32,
        col: u32,
        rule: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            file: file.into(),
            line,
            col,
            rule,
            message: message.into(),
        }
    }

    /// Renders as one JSON object (stable field order). The `id`
    /// field is the rule's stable identifier (`CBS-L06`, …) so CI
    /// annotations can deep-link the rule catalog (DESIGN.md §15)
    /// even if a rule is ever renamed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"id\":{},\"severity\":\"error\",\"message\":{}}}",
            json_str(&self.file),
            self.line,
            self.col,
            json_str(self.rule),
            json_str(crate::rules::rule_id(self.rule)),
            json_str(&self.message),
        )
    }
}

/// Renders a diagnostic list as a JSON array (the `--json` output).
pub fn to_json_array(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str("  ");
        out.push_str(&d.to_json());
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a diagnostic in the human-readable format, with the source
/// line and a caret when `source_line` is available.
pub fn render_human(d: &Diagnostic, source_line: Option<&str>) -> String {
    let mut out = format!(
        "error[{}]: {}\n  --> {}:{}:{}\n",
        d.rule, d.message, d.file, d.line, d.col
    );
    if let Some(src) = source_line {
        let gutter = d.line.to_string();
        let pad = " ".repeat(gutter.len());
        out.push_str(&format!("{pad} |\n{gutter} | {src}\n{pad} | "));
        out.push_str(&" ".repeat(d.col.saturating_sub(1) as usize));
        out.push_str("^\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let d = Diagnostic::error("a.rs", 1, 2, "r", "say \"hi\"\nline2");
        let j = d.to_json();
        assert!(j.contains("\\\"hi\\\""), "{j}");
        assert!(j.contains("\\n"), "{j}");
    }

    #[test]
    fn json_carries_stable_rule_id() {
        let d = Diagnostic::error("a.rs", 1, 2, "mergeable-audit", "m");
        assert!(
            d.to_json()
                .contains("\"id\":\"CBS-L13\",\"severity\":\"error\""),
            "{}",
            d.to_json()
        );
    }

    #[test]
    fn empty_array_is_flat() {
        assert_eq!(to_json_array(&[]), "[]");
    }

    #[test]
    fn human_render_has_caret_under_column() {
        let d = Diagnostic::error("a.rs", 3, 5, "atomic-ordering-audit", "msg");
        let r = render_human(&d, Some("a.load(Ordering::Relaxed);"));
        assert!(r.contains("a.rs:3:5"), "{r}");
        assert!(r.contains("    ^"), "{r}");
    }
}
