//! Workspace walking and rule scoping: which files are scanned, which
//! per-file rules apply to each, which crates the call-graph rules scope
//! to ([`graph_config`]; where `transitive-hot-path-purity` starts is
//! marked in the sources, `// sdoh-lint: entry(..)`), and where the shared
//! metric vocabulary lives.
//!
//! The scan covers every workspace member's `src/` tree plus the umbrella
//! crate's `src/`. Exemptions, by design rather than omission:
//!
//! - `crates/compat/**` — vendored stand-ins for unavailable registry
//!   dependencies; not our code to annotate.
//! - `tests/`, `benches/`, `examples/` — panics, wall clocks and scratch
//!   metric names are all legitimate outside the library.
//! - `crates/bench/src/**` — the experiment harness: binaries that drive
//!   the stack and panic on broken environments by design. The vocabulary
//!   rule still applies there, because experiments asserting on metric
//!   names is exactly the drift the rule exists to catch.
//! - `src/**` (the umbrella crate's scenario layer) is exempt from
//!   `no-panic` only — like bench, it is attended scaffolding: it wires
//!   fixed, self-consistent topologies for examples, integration tests and
//!   experiments, where a panic on a mis-built fixture is the desired
//!   failure mode. `no-narrowing-cast` and the vocabulary rule apply: the
//!   addresses and seeds it derives are ground truth, not reporting.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{self, FileAnalysis};
use crate::graph::{self, GraphConfig};
use crate::lexer::{lex, TokenKind};
use crate::report::{Diagnostic, Report};
use crate::rules::{string_literal_inner, RuleId};

/// Path of the vocabulary module, relative to the workspace root.
pub const VOCABULARY_PATH: &str = "crates/core/src/serve/samples.rs";

/// Sim-facing crates where ambient wall clock and OS entropy are banned:
/// the simulated stack, and the experiments and analysis that run on it
/// (`secure-doh` is the umbrella crate's scenario layer).
const DETERMINISM_CRATES: [&str; 9] = [
    "netsim",
    "chaos",
    "core",
    "dns-server",
    "doh",
    "ntp",
    "bench",
    "analysis",
    "secure-doh",
];

/// Which per-file rules apply to a workspace-relative path (with `/`
/// separators).
pub fn rules_for(rel: &str) -> Vec<RuleId> {
    let mut rules = Vec::new();
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");

    // The experiment harness and the umbrella scenario layer may panic:
    // both run attended. Only the harness, whose arithmetic is reporting,
    // may cast freely: the scenario layer derives ground truth.
    if crate_name != "bench" {
        if rel.starts_with("crates/") {
            rules.push(RuleId::NoPanic);
        }
        rules.push(RuleId::NoNarrowingCast);
    }
    if rel != VOCABULARY_PATH {
        rules.push(RuleId::MetricsVocabulary);
    }
    rules
}

/// Build the metric-name vocabulary from the tables in
/// [`VOCABULARY_PATH`]: every string literal in that file that looks like
/// a metric name is vocabulary (the file's own tests pin that each row
/// also carries a non-empty help string).
pub fn vocabulary_from_source(source: &str) -> BTreeSet<String> {
    let mut vocab = BTreeSet::new();
    for token in lex(source) {
        if token.kind != TokenKind::Str {
            continue;
        }
        let Some(text) = source.get(token.start..token.end) else {
            continue;
        };
        if let Some(inner) = string_literal_inner(text) {
            if inner.starts_with("sdoh") {
                vocab.insert(inner.to_string());
            }
        }
    }
    vocab
}

/// Recursively collect `.rs` files under `dir`, sorted for deterministic
/// output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// The `src/` trees the workspace scan covers.
fn scan_roots(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut members: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() && name != "compat" {
            members.push(path.join("src"));
        }
    }
    members.sort();
    roots.extend(members);
    Ok(roots)
}

/// The files the workspace scan lints: every `.rs` file of the `src/`
/// trees `scan_roots` names, in sorted order.
pub fn source_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for scan_root in scan_roots(root)? {
        if scan_root.is_dir() {
            collect_rs_files(&scan_root, &mut files)?;
        }
    }
    Ok(files)
}

/// The files parsed only to root the inventory (see
/// [`crate::inventory`]): examples, the umbrella's and every member's
/// integration tests, and the benchmark's sources. The lint fixtures are
/// sources other tests read, not code, and are left out.
fn inventory_root_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![
        root.join("examples"),
        root.join("tests"),
        root.join("benchmark/src"),
    ];
    for member in scan_roots(root)? {
        if let Some(dir) = member.parent() {
            dirs.push(dir.join("tests"));
            dirs.push(dir.join("examples"));
        }
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs_files(dir, &mut files)?;
    }
    files.retain(|f| !f.components().any(|c| c.as_os_str() == "fixtures"));
    Ok(files)
}

/// Workspace-relative path with forward slashes.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut label = String::new();
    for comp in rel.components() {
        if !label.is_empty() {
            label.push('/');
        }
        label.push_str(&comp.as_os_str().to_string_lossy());
    }
    label
}

/// The call-graph configuration for *this* workspace: which crates must
/// stay deterministic, and which crates' locks feed the lock-order
/// analysis.
pub fn graph_config() -> GraphConfig {
    GraphConfig {
        determinism_crates: DETERMINISM_CRATES.iter().map(|c| c.to_string()).collect(),
        lock_crates: vec!["runtime".to_string()],
    }
}

/// Options for a workspace lint run.
#[derive(Debug, Default)]
pub struct LintOptions {
    /// Run only these rules (all six when `None`). The directive
    /// pseudo-rules (`unused-allow`, `bad-directive`) always run.
    pub rule_filter: Option<Vec<RuleId>>,
    /// Also serialize the call graph and the inventory (returned in
    /// [`Report::callgraph`]).
    pub emit_callgraph: bool,
}

/// Lint the whole workspace rooted at `root`.
///
/// Three phases: (1) scan every file on a scoped thread pool, running the
/// item parser and the per-file rules; (2) build the call graph and run
/// the transitive rules; (3) apply allow directives and sort by
/// `(file, line, col, rule)` so output is deterministic regardless of walk
/// order or thread interleaving.
pub fn lint_workspace_with(root: &Path, options: &LintOptions) -> Result<Report, String> {
    let vocab_path = root.join(VOCABULARY_PATH);
    let vocab_source = fs::read_to_string(&vocab_path)
        .map_err(|e| format!("cannot read vocabulary {}: {e}", vocab_path.display()))?;
    let vocab = vocabulary_from_source(&vocab_source);
    if vocab.is_empty() {
        return Err(format!(
            "vocabulary {} contains no metric names — refusing to lint against an empty vocabulary",
            vocab_path.display()
        ));
    }

    let files = source_files(root)?;

    let enabled: Vec<RuleId> = match &options.rule_filter {
        Some(filter) => filter.clone(),
        None => RuleId::ALL.to_vec(),
    };

    // Phase 1: parallel per-file analysis. Results carry their file index
    // so the merged order is the sorted file order, not thread order.
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Result<FileAnalysis, Diagnostic>)>> =
        Mutex::new(Vec::with_capacity(files.len()));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
        .min(files.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(path) = files.get(i) else { break };
                let rel = relative_label(root, path);
                let item = match fs::read_to_string(path) {
                    Ok(source) => {
                        let rules: Vec<RuleId> = rules_for(&rel)
                            .into_iter()
                            .filter(|r| enabled.contains(r))
                            .collect();
                        Ok(engine::analyze_source(&rel, &source, &rules, &vocab))
                    }
                    Err(e) => Err(Diagnostic {
                        file: rel,
                        line: 0,
                        col: 0,
                        rule: "io-error",
                        message: format!("cannot read file: {e}"),
                    }),
                };
                // A poisoned mutex only means another worker panicked while
                // pushing; the vector itself is still usable.
                let mut slot = results.lock().unwrap_or_else(|p| p.into_inner());
                slot.push((i, item));
            });
        }
    });
    let mut collected = results.into_inner().unwrap_or_else(|p| p.into_inner());
    collected.sort_by_key(|(i, _)| *i);

    let mut report = Report::default();
    let mut analyses: Vec<FileAnalysis> = Vec::with_capacity(collected.len());
    for (_, item) in collected {
        match item {
            Ok(analysis) => {
                analyses.push(analysis);
                report.files_scanned += 1;
            }
            Err(diag) => report.diagnostics.push(diag),
        }
    }

    // Phase 2: the whole-workspace call-graph rules and the inventory,
    // whose root files are parsed here and checked by no rule.
    let mut roots: Vec<FileAnalysis> = Vec::new();
    for path in inventory_root_files(root)? {
        let rel = relative_label(root, &path);
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        roots.push(engine::analyze_source(&rel, &source, &[], &vocab));
    }
    let (inventory, callgraph) = graph::run_graph_rules(
        &mut analyses,
        &roots,
        &graph_config(),
        &enabled,
        options.emit_callgraph,
    );
    report.inventory = Some(inventory);
    report.callgraph = callgraph;

    // Phase 3: allows, deterministic sort.
    report
        .diagnostics
        .extend(engine::finalize(analyses, &enabled));
    report.diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(report)
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(contents) = fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
