//! Diagnostic type and the two output formats: human `file:line:col` lines
//! and a machine-readable JSON report (hand-rolled — this crate has zero
//! dependencies).

use crate::inventory::Inventory;

/// One finding: where, which rule, and what to do about it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (characters).
    pub col: usize,
    /// Rule id (`no-panic`, ...) or pseudo-rule (`unused-allow`,
    /// `bad-directive`, `io-error`).
    pub rule: &'static str,
    pub message: String,
}

/// The result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    /// The serialized call graph, when the run asked for it
    /// (`--emit-callgraph`). Not part of the JSON diagnostics report.
    pub callgraph: Option<String>,
    /// The inventory of a workspace run: what no root, or only tests,
    /// reach. It never affects the exit code.
    pub inventory: Option<Inventory>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Render diagnostics as `file:line:col: rule: message` lines plus a
/// trailing summary.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&format!(
            "{}:{}:{}: {}: {}\n",
            d.file, d.line, d.col, d.rule, d.message
        ));
    }
    out.push_str(&format!(
        "sdoh-lint: {} diagnostic(s) across {} file(s) scanned\n",
        report.diagnostics.len(),
        report.files_scanned
    ));
    if let Some(inventory) = &report.inventory {
        out.push_str(&format!(
            "sdoh-lint: inventory: {} unreached, {} test-only function(s); {} unknown call(s)\n",
            inventory.unreached.len(),
            inventory.test_only.len(),
            inventory.unknown_calls
        ));
    }
    out
}

/// Render the report as JSON.
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"diagnostic_count\": {},\n",
        report.diagnostics.len()
    ));
    out.push_str("  \"diagnostics\": [");
    let mut first = true;
    for d in &report.diagnostics {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}",
            json_string(&d.file),
            d.line,
            d.col,
            json_string(d.rule),
            json_string(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escape a string for JSON output.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_report_shape() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                file: "x.rs".to_string(),
                line: 3,
                col: 7,
                rule: "no-panic",
                message: "don't".to_string(),
            }],
            files_scanned: 1,
            callgraph: None,
            inventory: Some(Inventory {
                unknown_calls: 9,
                ..Inventory::default()
            }),
        };
        let json = render_json(&report);
        assert!(json.contains("\"files_scanned\": 1"));
        assert!(json.contains("\"diagnostic_count\": 1"));
        assert!(json.contains("\"rule\": \"no-panic\""));
        let human = render_human(&report);
        assert!(human.contains("x.rs:3:7: no-panic: don't"));
        assert!(
            human.contains("inventory: 0 unreached, 0 test-only function(s); 9 unknown call(s)")
        );
    }
}
