//! The rule engine: turns one lexed source file into diagnostics.
//!
//! The engine owns the three pieces of context every rule needs:
//!
//! 1. **Significant tokens** — the token stream with comments removed, so
//!    rules can match patterns like `.` `unwrap` `(` without tripping over
//!    interleaved comments.
//! 2. **Test regions** — items annotated `#[cfg(test)]`, `#[test]`,
//!    `#[bench]` or `#[should_panic]` are marked so rules that only apply
//!    to production library code skip them. `#[cfg(not(test))]` is
//!    production code and stays in scope.
//! 3. **Allow directives** — `// sdoh-lint: allow(<rule>, "<reason>")`
//!    comments. A directive trailing code applies to its own line; a
//!    directive on a line of its own applies to the next item (through the
//!    end of its braced body or terminating `;`/`,`). Directives that
//!    suppress nothing are themselves reported (`unused-allow`), and
//!    malformed or unknown directives are reported (`bad-directive`), so
//!    the escape hatch cannot silently rot.
//! 4. **Entry markers** — `// sdoh-lint: entry(transitive-hot-path-purity,
//!    "<reason>")` on a line of its own marks the function below it
//!    ([`FnRecord::entry`](crate::parser::FnRecord::entry)), or is a
//!    `bad-directive`.

use std::collections::BTreeSet;

use crate::lexer::{lex, Token, TokenKind};
use crate::parser::{self, FileItems};
use crate::report::Diagnostic;
use crate::rules::{self, RuleId};

/// A lexed file plus the derived context rules match against.
pub struct FileView<'a> {
    source: &'a str,
    tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    sig: Vec<usize>,
    /// Parallel to `sig`: true when the token sits inside a test item.
    in_test: Vec<bool>,
}

impl<'a> FileView<'a> {
    pub fn new(source: &'a str) -> Self {
        let tokens = lex(source);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut view = FileView {
            source,
            tokens,
            in_test: vec![false; sig.len()],
            sig,
        };
        view.mark_test_regions();
        view
    }

    /// Number of significant tokens.
    pub fn sig_len(&self) -> usize {
        self.sig.len()
    }

    fn sig_tok(&self, si: usize) -> Option<&Token> {
        self.sig.get(si).and_then(|&ti| self.tokens.get(ti))
    }

    /// Text of the `si`-th significant token ("" past the end).
    pub fn sig_text(&self, si: usize) -> &str {
        self.sig_tok(si)
            .and_then(|t| self.source.get(t.start..t.end))
            .unwrap_or("")
    }

    pub fn sig_kind(&self, si: usize) -> Option<TokenKind> {
        self.sig_tok(si).map(|t| t.kind)
    }

    /// `(line, col)` of the `si`-th significant token.
    pub fn sig_pos(&self, si: usize) -> (usize, usize) {
        self.sig_tok(si).map(|t| (t.line, t.col)).unwrap_or((0, 0))
    }

    pub fn is_punct(&self, si: usize, c: char) -> bool {
        self.sig_kind(si) == Some(TokenKind::Punct)
            && self.sig_text(si).chars().eq(std::iter::once(c))
    }

    pub fn in_test(&self, si: usize) -> bool {
        self.in_test.get(si).copied().unwrap_or(false)
    }

    /// Find the significant-token index of the end of the item starting at
    /// `start`: the `}` closing the first brace block opened at bracket
    /// depth zero, or the first `;` (or, for field/variant/arm scopes, `,`)
    /// at depth zero. Returns the last token index when the file ends
    /// first, and `start` itself when the enclosing block closes
    /// immediately.
    fn item_end(&self, start: usize) -> usize {
        // Declaration items can carry commas at bracket depth zero inside
        // generic parameter lists and return types (`-> Result<A, B>`),
        // so a comma only terminates non-item scopes such as struct
        // fields, enum variants and match arms.
        let item_like = self.declaration_keyword(start).is_some();
        let mut depth = 0usize;
        let mut si = start;
        while si < self.sig.len() {
            let text = self.sig_text(si);
            match text {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    if depth == 0 {
                        // Closing the enclosing block: the item ended on the
                        // previous token.
                        return si.saturating_sub(1).max(start);
                    }
                    depth -= 1;
                    if depth == 0 && text == "}" {
                        return si;
                    }
                }
                ";" if depth == 0 => return si,
                "," if depth == 0 && !item_like => return si,
                _ => {}
            }
            si += 1;
        }
        self.sig.len().saturating_sub(1).max(start)
    }

    /// Where the keyword (`fn`, `struct`, `impl`, ...) of the declaration
    /// item at `start` is, or `None` for a field, variant, match arm or
    /// statement. Leading attributes, visibility and modifiers are skipped.
    fn declaration_keyword(&self, start: usize) -> Option<usize> {
        let mut depth = 0usize;
        // Bounded scan: prefixes (attributes, `pub(crate)`, modifier
        // chains) are short; anything longer is not a declaration header.
        for si in start..self.sig.len().min(start + 256) {
            let text = self.sig_text(si);
            match text {
                "[" | "(" => depth += 1,
                "]" | ")" => depth = depth.saturating_sub(1),
                _ if depth > 0 => {}
                // extern "C" carries a string literal before `fn`.
                _ if self.sig_kind(si) == Some(TokenKind::Str) => {}
                "#" | "pub" | "const" | "unsafe" | "async" | "extern" | "default" => {}
                "fn" | "struct" | "enum" | "trait" | "impl" | "mod" | "union" | "type"
                | "macro" | "static" => return Some(si),
                _ => return None,
            }
        }
        None
    }

    /// Mark every token belonging to a test-only item.
    fn mark_test_regions(&mut self) {
        let mut si = 0usize;
        while si < self.sig.len() {
            if self.sig_text(si) == "#" && self.sig_text(si + 1) == "[" {
                let (close, is_test) = self.classify_attribute(si + 1);
                if is_test {
                    let end = self.item_end(si);
                    for flag in self
                        .in_test
                        .iter_mut()
                        .skip(si)
                        .take(end.saturating_sub(si) + 1)
                    {
                        *flag = true;
                    }
                    si = end + 1;
                    continue;
                }
                si = close + 1;
                continue;
            }
            si += 1;
        }
    }

    /// Given the index of an attribute's `[`, return the index of its
    /// matching `]` and whether the attribute marks test-only code.
    fn classify_attribute(&self, open: usize) -> (usize, bool) {
        let mut depth = 0usize;
        let mut idents: Vec<&str> = Vec::new();
        let mut si = open;
        while si < self.sig.len() {
            let text = self.sig_text(si);
            match text {
                "[" => depth += 1,
                "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if self.sig_kind(si) == Some(TokenKind::Ident) {
                        idents.push(text);
                    }
                }
            }
            si += 1;
        }
        let first = idents.first().copied().unwrap_or("");
        let is_test = !idents.contains(&"not")
            && (first == "test"
                || first == "should_panic"
                || first == "bench"
                || (first == "cfg" && idents.contains(&"test")));
        (si, is_test)
    }
}

/// A parsed allow directive awaiting use.
pub(crate) struct Allow {
    pub(crate) rule: RuleId,
    pub(crate) reason: String,
    /// First and last source line the directive suppresses.
    pub(crate) from_line: usize,
    pub(crate) to_line: usize,
    /// Position of the directive comment itself.
    pub(crate) line: usize,
    pub(crate) col: usize,
    pub(crate) used: bool,
}

impl Allow {
    /// Whether this is a directive for `rule` scoped over the whole
    /// function span `[def_line, end_line]`.
    pub(crate) fn covers_fn(&self, rule: RuleId, def_line: usize, end_line: usize) -> bool {
        self.rule == rule && self.from_line <= def_line && end_line <= self.to_line
    }
}

/// Outcome of trying to read one comment as a directive.
enum DirectiveParse {
    NotADirective,
    Malformed(String),
    Allow { rule: RuleId, reason: String },
    Entry,
}

/// Parse `// sdoh-lint: allow(rule, "reason")` or `// sdoh-lint:
/// entry(rule, "reason")`. Doc comments (`///`, `//!`) are never
/// directives, so documentation can quote the syntax.
fn parse_directive(comment: &str) -> DirectiveParse {
    let Some(rest) = comment.strip_prefix("//") else {
        return DirectiveParse::NotADirective;
    };
    if rest.starts_with('/') || rest.starts_with('!') {
        return DirectiveParse::NotADirective;
    }
    let trimmed = rest.trim();
    let Some(body) = trimmed.strip_prefix("sdoh-lint:") else {
        return DirectiveParse::NotADirective;
    };
    let body = body.trim();
    let (keyword, args) = body.split_once('(').unwrap_or((body, ""));
    let Some(args) = args
        .strip_suffix(')')
        .filter(|_| keyword == "allow" || keyword == "entry")
    else {
        return DirectiveParse::Malformed(format!(
            "expected `allow(<rule>, \"<reason>\")` or `entry(<rule>, \"<reason>\")`, found `{body}`"
        ));
    };
    let Some((rule_name, reason_part)) = args.split_once(',') else {
        return DirectiveParse::Malformed(format!(
            "{keyword} directive needs a reason: `{keyword}(<rule>, \"<reason>\")`"
        ));
    };
    let rule_name = rule_name.trim();
    let Some(rule) = RuleId::from_name(rule_name) else {
        return DirectiveParse::Malformed(format!(
            "unknown rule `{rule_name}` (known rules: {})",
            rules::known_rule_names().join(", ")
        ));
    };
    let reason = reason_part.trim();
    let inner = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or("");
    if inner.trim().is_empty() {
        return DirectiveParse::Malformed(format!(
            "{keyword} directive needs a non-empty quoted reason"
        ));
    }
    let reason = inner.to_string();
    match keyword {
        "allow" => DirectiveParse::Allow { rule, reason },
        _ if rule == RuleId::TransitivePurity => DirectiveParse::Entry,
        _ => DirectiveParse::Malformed(format!(
            "only `{}` starts at marked entries",
            RuleId::TransitivePurity.name()
        )),
    }
}

/// One analyzed file: raw findings, allow directives, and the parsed
/// items the call-graph rules consume. Produced by [`analyze_source`],
/// consumed by `finalize`.
pub struct FileAnalysis {
    pub(crate) file: String,
    /// Findings still subject to allow directives.
    pub(crate) raw: Vec<Diagnostic>,
    /// Findings that bypass allows (`bad-directive`).
    pub(crate) direct: Vec<Diagnostic>,
    pub(crate) allows: Vec<Allow>,
    /// Parsed functions and imports for the call-graph rules.
    pub items: FileItems,
}

impl FileAnalysis {
    /// Marks a *boundary* allow used: a directive for `rule` whose scope
    /// covers a whole function span `[def_line, end_line]`. The graph
    /// traversal prunes at such functions.
    pub(crate) fn mark_boundary_allow(&mut self, rule: RuleId, def_line: usize, end_line: usize) {
        for allow in &mut self.allows {
            if allow.covers_fn(rule, def_line, end_line) {
                allow.used = true;
            }
        }
    }
}

/// Phase 1: lex, parse and run the per-file rules over one source file.
/// Allow directives are collected but not yet applied — graph rules may
/// still add findings to this file (see `finalize`).
pub fn analyze_source(
    file: &str,
    source: &str,
    enabled: &[RuleId],
    vocab: &BTreeSet<String>,
) -> FileAnalysis {
    let view = FileView::new(source);
    let mut items = parser::parse_file(file, &view);
    let mut direct: Vec<Diagnostic> = Vec::new();
    let allows = collect_directives(file, source, &view, &mut items, &mut direct);

    let mut raw: Vec<Diagnostic> = Vec::new();
    for rule in enabled {
        rules::run_rule(*rule, file, &view, &items, vocab, &mut raw);
    }

    FileAnalysis {
        file: file.to_string(),
        raw,
        direct,
        allows,
        items,
    }
}

/// Phase 3: apply allow directives, report unused allows, and sort.
/// `analyses` carries the per-file raw findings; graph-rule findings must
/// already be appended to their file's `raw` list (see `crate::graph`).
/// `audited` is the run's enabled rule set: an allow for a rule outside it
/// is left alone rather than reported as `unused-allow`, since a rule that
/// never ran can suppress nothing.
pub(crate) fn finalize(analyses: Vec<FileAnalysis>, audited: &[RuleId]) -> Vec<Diagnostic> {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for mut analysis in analyses {
        diagnostics.append(&mut analysis.direct);

        for diag in analysis.raw {
            let suppressed = analysis.allows.iter_mut().find(|a| {
                a.rule.name() == diag.rule && a.from_line <= diag.line && diag.line <= a.to_line
            });
            match suppressed {
                Some(allow) => allow.used = true,
                None => diagnostics.push(diag),
            }
        }

        for allow in &analysis.allows {
            if !allow.used && audited.contains(&allow.rule) {
                diagnostics.push(Diagnostic {
                    file: analysis.file.clone(),
                    line: allow.line,
                    col: allow.col,
                    rule: "unused-allow",
                    message: format!(
                        "allow({}, \"{}\") suppressed nothing on lines {}-{} — remove it or fix its scope",
                        allow.rule.name(),
                        allow.reason,
                        allow.from_line,
                        allow.to_line
                    ),
                });
            }
        }
    }

    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule,
            b.message.as_str(),
        ))
    });
    diagnostics
}

/// Check one source file against `enabled` rules, applying and validating
/// allow directives. `vocab` is the shared metric-name vocabulary for the
/// `metrics-vocabulary` rule. This is the single-file entry point; the
/// graph rules need the whole workspace and never fire here.
pub fn check_source(
    file: &str,
    source: &str,
    enabled: &[RuleId],
    vocab: &BTreeSet<String>,
) -> Vec<Diagnostic> {
    finalize(vec![analyze_source(file, source, enabled, vocab)], enabled)
}

/// Extract allow directives from comment tokens, computing each one's
/// suppression scope, and mark the function below each entry marker.
/// Malformed directives and markers that mark nothing become
/// `bad-directive` diagnostics immediately.
fn collect_directives(
    file: &str,
    source: &str,
    view: &FileView<'_>,
    items: &mut FileItems,
    diagnostics: &mut Vec<Diagnostic>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    let mut markers = Vec::new();
    for token in &view.tokens {
        if token.kind != TokenKind::LineComment {
            continue;
        }
        let text = source.get(token.start..token.end).unwrap_or("");
        let trailing = || {
            (0..view.sig_len()).any(|si| {
                let (line, col) = view.sig_pos(si);
                line == token.line && col < token.col
            })
        };
        let bad = |message: String| Diagnostic {
            file: file.to_string(),
            line: token.line,
            col: token.col,
            rule: "bad-directive",
            message,
        };
        match parse_directive(text) {
            DirectiveParse::NotADirective => {}
            DirectiveParse::Malformed(message) => diagnostics.push(bad(message)),
            DirectiveParse::Entry => markers.push((token.line, trailing(), bad)),
            DirectiveParse::Allow { rule, reason } => {
                let (from_line, to_line) = if trailing() {
                    (token.line, token.line)
                } else {
                    standalone_scope(view, token.line)
                };
                allows.push(Allow {
                    rule,
                    reason,
                    from_line,
                    to_line,
                    line: token.line,
                    col: token.col,
                    used: false,
                });
            }
        }
    }
    for (line, trailing, bad) in markers {
        if let Err(message) = mark_entry(view, line, trailing, &allows, items) {
            diagnostics.push(bad(message));
        }
    }
    allows
}

/// Marks the function whose item follows the entry marker on `line`, or
/// says why the marker marks none.
fn mark_entry(
    view: &FileView<'_>,
    line: usize,
    trailing: bool,
    allows: &[Allow],
    items: &mut FileItems,
) -> Result<(), String> {
    let keyword = (0..view.sig_len())
        .find(|&si| view.sig_pos(si).0 > line)
        .and_then(|start| view.declaration_keyword(start));
    let fn_line = keyword
        .filter(|&si| !trailing && view.sig_text(si) == "fn")
        .map(|si| view.sig_pos(si).0);
    let f = items
        .functions
        .iter_mut()
        .find(|f| Some(f.def_line) == fn_line && !f.in_test)
        .ok_or("an entry marker must stand on a line of its own above a non-test function")?;
    // Marked either way: the traversal then counts the boundary's allow
    // as used, and this is the one diagnostic.
    f.entry = true;
    if allows
        .iter()
        .any(|a| a.covers_fn(RuleId::TransitivePurity, f.def_line, f.end_line))
    {
        return Err(format!(
            "`{}` is also a pruning boundary: the traversal would check nothing from it",
            f.name
        ));
    }
    Ok(())
}

/// Scope of a directive on its own line: from the first significant token
/// after the directive through the end of that item.
fn standalone_scope(view: &FileView<'_>, directive_line: usize) -> (usize, usize) {
    let start = (0..view.sig_len()).find(|&si| view.sig_pos(si).0 > directive_line);
    let Some(start) = start else {
        // Nothing follows: empty scope, the allow will report as unused.
        return (directive_line + 1, directive_line);
    };
    let end = view.item_end(start);
    let (from_line, _) = view.sig_pos(start);
    let (to_line, _) = view.sig_pos(end);
    (from_line, to_line.max(from_line))
}
