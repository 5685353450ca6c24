//! The rule catalogue and the three per-file rules.
//!
//! A construct is recognised in exactly one place. Locks, allocations,
//! panicking constructs and ambient clock / entropy reads are *facts* the
//! item parser attributes to the function containing them
//! ([`crate::parser`]): `no-panic` reports every panic fact here, per file,
//! and the call-graph rules ([`crate::graph`]) report the rest where an
//! entry point reaches them. `no-narrowing-cast` and `metrics-vocabulary`
//! match the two constructs no other rule looks at — `as` casts and string
//! literals — straight off the significant-token stream. Every rule skips
//! test items: panicking, wall clocks and scratch metric names are all
//! legitimate in tests.

use std::collections::BTreeSet;

use crate::engine::FileView;
use crate::lexer::TokenKind;
use crate::parser::{FactKind, FileItems};
use crate::report::Diagnostic;

/// Identifier of one lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No panicking constructs in non-test library code.
    NoPanic,
    /// No bare `as` casts to numeric types that can lose value.
    NoNarrowingCast,
    /// Every `sdoh_*` metric-name literal must be in the shared vocabulary.
    MetricsVocabulary,
    /// Nothing reachable from the serving entry points may lock or
    /// allocate (whole-workspace call-graph rule, see [`crate::graph`]).
    TransitivePurity,
    /// No ambient wall clock or OS entropy in, or reachable from, any
    /// function of the sim-facing crates (call-graph rule).
    TransitiveDeterminism,
    /// The control-plane lock-acquisition graph must be acyclic
    /// (call-graph rule).
    LockOrder,
}

impl RuleId {
    pub const ALL: [RuleId; 6] = [
        RuleId::NoPanic,
        RuleId::NoNarrowingCast,
        RuleId::MetricsVocabulary,
        RuleId::TransitivePurity,
        RuleId::TransitiveDeterminism,
        RuleId::LockOrder,
    ];

    /// The kebab-case rule id used in diagnostics and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoPanic => "no-panic",
            RuleId::NoNarrowingCast => "no-narrowing-cast",
            RuleId::MetricsVocabulary => "metrics-vocabulary",
            RuleId::TransitivePurity => "transitive-hot-path-purity",
            RuleId::TransitiveDeterminism => "transitive-determinism",
            RuleId::LockOrder => "lock-order",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::NoPanic => "no panicking constructs in non-test library code (per file)",
            RuleId::NoNarrowingCast => {
                "no bare `as` casts to numeric types that can lose value (per file)"
            }
            RuleId::MetricsVocabulary => {
                "every sdoh_* metric-name literal must be in the shared vocabulary (per file)"
            }
            RuleId::TransitivePurity => {
                "nothing reachable from the serving entry points may lock or allocate (call graph)"
            }
            RuleId::TransitiveDeterminism => {
                "no wall clock or OS entropy in, or reachable from, any sim-facing function (call graph)"
            }
            RuleId::LockOrder => {
                "the control-plane lock-acquisition graph must be acyclic (call graph)"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// All rule names, for error messages.
pub fn known_rule_names() -> Vec<&'static str> {
    RuleId::ALL.iter().map(|r| r.name()).collect()
}

/// Run one per-file rule over a parsed file, appending diagnostics.
pub fn run_rule(
    rule: RuleId,
    file: &str,
    view: &FileView<'_>,
    items: &FileItems,
    vocab: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    match rule {
        RuleId::NoPanic => no_panic(file, items, out),
        RuleId::NoNarrowingCast => no_narrowing_cast(file, view, out),
        RuleId::MetricsVocabulary => metrics_vocabulary(file, view, vocab, out),
        // Graph rules run once per sweep over the workspace call graph,
        // not per file — see `crate::graph`.
        RuleId::TransitivePurity | RuleId::TransitiveDeterminism | RuleId::LockOrder => {}
    }
}

fn push(
    out: &mut Vec<Diagnostic>,
    file: &str,
    rule: RuleId,
    view: &FileView<'_>,
    si: usize,
    message: String,
) {
    let (line, col) = view.sig_pos(si);
    out.push(Diagnostic {
        file: file.to_string(),
        line,
        col,
        rule: rule.name(),
        message,
    });
}

/// `no-panic`: every panicking construct the parser found in a non-test
/// function body.
fn no_panic(file: &str, items: &FileItems, out: &mut Vec<Diagnostic>) {
    // The parser records no fact inside a test item, so none is filtered.
    let facts = items.functions.iter().flat_map(|f| &f.facts);
    for fact in facts.filter(|fact| fact.kind == FactKind::Panic) {
        out.push(Diagnostic {
            file: file.to_string(),
            line: fact.line,
            col: fact.col,
            rule: RuleId::NoPanic.name(),
            message: format!(
                "{} can panic in library code: return an error or use a checked accessor, or allowlist with the invariant that makes the failure impossible",
                fact.what
            ),
        });
    }
}

/// Cast targets that can lose value from some wider or differently-signed
/// source. `f64`, `u128` and `i128` are exempt: nothing in this workspace
/// is wider, and counters-to-`f64` conversions are the metrics plane's
/// documented representation.
const NARROW_TARGETS: [&str; 11] = [
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "f32",
];

fn no_narrowing_cast(file: &str, view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
    for si in 0..view.sig_len() {
        if view.in_test(si) {
            continue;
        }
        if view.sig_text(si) == "as"
            && view.sig_kind(si) == Some(TokenKind::Ident)
            && NARROW_TARGETS.contains(&view.sig_text(si + 1))
        {
            push(out, file, RuleId::NoNarrowingCast, view, si, format!(
                "bare `as {}` can truncate or re-interpret: use `From`/`TryFrom` or a checked/saturating conversion, or allowlist with why value loss is impossible",
                view.sig_text(si + 1)));
        }
    }
}

/// The prefix every exported metric name carries. Assembled so this file's
/// own literal does not itself look like a metric name.
const METRIC_PREFIX: &str = "sdoh_";

/// Does a string literal's inner text look like one of our metric names?
fn is_metric_name(inner: &str) -> bool {
    inner.len() > METRIC_PREFIX.len()
        && inner.starts_with(METRIC_PREFIX)
        && inner
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Extract the inner text of a string literal token (between the outermost
/// quotes). Returns `None` for literals with escapes, which metric names
/// never contain.
pub fn string_literal_inner(text: &str) -> Option<&str> {
    let first = text.find('"')?;
    let last = text.rfind('"')?;
    if last <= first {
        return None;
    }
    let inner = text.get(first + 1..last)?;
    if inner.contains('\\') {
        return None;
    }
    Some(inner)
}

fn metrics_vocabulary(
    file: &str,
    view: &FileView<'_>,
    vocab: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    for si in 0..view.sig_len() {
        if view.in_test(si) || view.sig_kind(si) != Some(TokenKind::Str) {
            continue;
        }
        let Some(inner) = string_literal_inner(view.sig_text(si)) else {
            continue;
        };
        if is_metric_name(inner) && !vocab.contains(inner) {
            push(out, file, RuleId::MetricsVocabulary, view, si, format!(
                "metric name `{inner}` is not in the shared vocabulary: add it, with a help string, to the tables in crates/core/src/serve/samples.rs"));
        }
    }
}
