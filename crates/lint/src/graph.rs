//! The workspace call graph and the three transitive rules that run on
//! it: `transitive-hot-path-purity`, `transitive-determinism` and
//! `lock-order`.
//!
//! ## Call resolution
//!
//! Calls are resolved from the per-function [`CallSite`](crate::parser::CallSite)s the parser
//! extracted, through a name index built over every parsed function:
//!
//! * **Qualified paths** (`sdoh_core::check_guarantee`, `Message::decode`)
//!   resolve through the crate-alias map and the `(type, method)` index.
//! * **Bare names** (`question_hash(...)`) resolve inside the caller's
//!   crate first, then through the file's `use` imports.
//! * **`self.method(...)`** resolves against the enclosing impl type.
//! * **`param.method(...)`** resolves against the parameter's declared
//!   type when it names a workspace type; `dyn`/`impl`/generic receivers
//!   go to the *unknown bucket* — dynamic dispatch is a documented
//!   false-negative boundary (each concrete implementation must be marked
//!   as an entry of its own to be covered).
//! * **Other receivers** (field chains, call results) resolve by method
//!   name, restricted to candidates whose type is defined in the caller's
//!   crate or imported by the caller's file — a precision guard that
//!   keeps common method names (`push`, `get`) from fabricating edges
//!   into unrelated crates.
//!
//! Everything unresolved is counted in the unknown bucket and surfaced in
//! the call-graph dump, never silently dropped.
//!
//! ## Traversal boundaries
//!
//! A standalone allow directive for a transitive rule placed above a
//! function makes that function a *pruning boundary*: the traversal does
//! not enter it, and the directive is marked used. This is how cold-path
//! funnels (config application, snapshots, the coalesced miss path) are
//! documented without annotating every line below them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::engine::FileAnalysis;
use crate::inventory::Inventory;
use crate::parser::{
    crate_alias, crate_of, Callee, FactKind, FnRecord, LockEvent, ParamType, Receiver,
};
use crate::report::Diagnostic;
use crate::rules::RuleId;

/// Which crates the graph rules scope to. (Where
/// `transitive-hot-path-purity` starts is marked in the sources: see
/// [`FnRecord::entry`].)
#[derive(Clone, Debug, Default)]
pub struct GraphConfig {
    /// The sim-facing crates: every non-test function of these is an entry
    /// of `transitive-determinism`.
    pub determinism_crates: Vec<String>,
    /// Crates whose lock acquisitions feed `lock-order`.
    pub lock_crates: Vec<String>,
}

/// The built call graph: every parsed function plus resolved edges.
pub(crate) struct Graph {
    pub(crate) fns: Vec<FnRecord>,
    /// `fns[..sources]` come from the scanned `src/` trees; the rest from
    /// the inventory's root files (examples, integration tests, the
    /// benchmark), marked `in_test` so no rule ever enters them.
    pub(crate) sources: usize,
    /// Adjacency: resolved callee indices per function.
    pub(crate) edges: Vec<Vec<usize>>,
    /// Resolved targets per call site: `call_targets[f][c]` lists the
    /// candidates of the `c`-th call in function `f` (empty = unknown).
    pub(crate) call_targets: Vec<Vec<Vec<usize>>>,
    /// Functions each function names without calling (fn pointers).
    pub(crate) refs: Vec<Vec<usize>>,
    /// Functions named in `static` / `const` initializers, with whether
    /// the item is test code.
    pub(crate) static_refs: Vec<(usize, bool)>,
    /// Calls that resolved to no workspace function.
    pub(crate) unknown_calls: usize,
    /// file → index into the analyses slice.
    file_index: BTreeMap<String, usize>,
}

/// The name indices call resolution looks functions up in. All BTreeMaps
/// so iteration, and therefore every diagnostic, is deterministic.
#[derive(Default)]
struct Names<'a> {
    free: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    typed: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    methods_by_name: BTreeMap<&'a str, Vec<usize>>,
    types_by_crate: BTreeMap<&'a str, BTreeSet<&'a str>>,
    /// `use X as Y` renames of types anywhere in the workspace: `Y` → `X`,
    /// so `Y::new(..)` resolves like `X::new(..)`.
    type_aliases: BTreeMap<&'a str, &'a str>,
}

impl Graph {
    /// Builds the graph over `analyses` (the scanned sources) and `roots`
    /// (files parsed only to root the inventory).
    pub(crate) fn build(analyses: &[FileAnalysis], roots: &[FileAnalysis]) -> Graph {
        let mut fns: Vec<FnRecord> = Vec::new();
        let mut file_index: BTreeMap<String, usize> = BTreeMap::new();
        for (ai, analysis) in analyses.iter().enumerate() {
            file_index.insert(analysis.file.clone(), ai);
            fns.extend(analysis.items.functions.iter().cloned());
        }
        let sources = fns.len();
        for analysis in roots {
            fns.extend(analysis.items.functions.iter().map(|f| FnRecord {
                in_test: true,
                ..f.clone()
            }));
        }
        let all = || analyses.iter().chain(roots);
        let mut imports: BTreeMap<&str, BTreeMap<&str, &[String]>> = BTreeMap::new();
        let mut type_aliases: BTreeMap<&str, &str> = BTreeMap::new();
        for analysis in all() {
            let per_file = imports.entry(analysis.file.as_str()).or_default();
            for import in &analysis.items.imports {
                per_file.insert(import.name.as_str(), &import.path);
                match import.path.last() {
                    Some(last) if *last != import.name && is_type_like(&import.name) => {
                        type_aliases.insert(import.name.as_str(), last.as_str());
                    }
                    _ => {}
                }
            }
        }

        let mut names = Names {
            type_aliases,
            ..Names::default()
        };
        for (i, f) in fns.iter().enumerate() {
            match &f.self_type {
                Some(ty) => {
                    names
                        .typed
                        .entry((ty.as_str(), f.name.as_str()))
                        .or_default()
                        .push(i);
                    names
                        .methods_by_name
                        .entry(f.name.as_str())
                        .or_default()
                        .push(i);
                    names
                        .types_by_crate
                        .entry(f.crate_name.as_str())
                        .or_default()
                        .insert(ty.as_str());
                }
                None => names
                    .free
                    .entry((f.crate_name.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i),
            }
        }

        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        let mut call_targets: Vec<Vec<Vec<usize>>> = Vec::with_capacity(fns.len());
        let mut refs: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        let mut unknown_calls = 0usize;
        for f in &fns {
            let file_imports = imports.get(f.file.as_str());
            let mut adj: BTreeSet<usize> = BTreeSet::new();
            let mut per_call: Vec<Vec<usize>> = Vec::with_capacity(f.calls.len());
            for call in &f.calls {
                let targets = resolve(f, &call.callee, file_imports, &names, &fns);
                if targets.is_empty() {
                    unknown_calls += 1;
                }
                adj.extend(targets.iter().copied());
                per_call.push(targets);
            }
            edges.push(adj.into_iter().collect());
            call_targets.push(per_call);
            let scope = Scope::of(f);
            let named: BTreeSet<usize> = f
                .refs
                .iter()
                .flat_map(|path| resolve_path(scope, path, file_imports, &names, 0))
                .collect();
            refs.push(named.into_iter().collect());
        }
        let mut static_refs: Vec<(usize, bool)> = Vec::new();
        for analysis in all() {
            let file_imports = imports.get(analysis.file.as_str());
            let crate_name = crate_of(&analysis.file);
            let scope = Scope {
                crate_name: &crate_name,
                self_type: None,
            };
            for (path, in_test) in &analysis.items.static_refs {
                for target in resolve_path(scope, path, file_imports, &names, 0) {
                    static_refs.push((target, *in_test));
                }
            }
        }

        Graph {
            fns,
            sources,
            edges,
            call_targets,
            refs,
            static_refs,
            unknown_calls,
            file_index,
        }
    }

    /// Serializes the graph as JSON for the CI artifact: nodes, resolved
    /// edges, the unknown-call count and the inventory's two lists.
    pub(crate) fn to_json(&self, inventory: &Inventory) -> String {
        let mut out = String::from("{\n  \"nodes\": [\n");
        for (i, f) in self.fns.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"id\": {}, \"label\": {}, \"file\": {}, \"line\": {}, \"crate\": {}, \"in_test\": {}, \"facts\": {}, \"calls\": {}}}",
                i,
                crate::report::json_string(&f.label()),
                crate::report::json_string(&f.file),
                f.def_line,
                crate::report::json_string(&f.crate_name),
                f.in_test,
                f.facts.len(),
                f.calls.len(),
            ));
        }
        out.push_str("\n  ],\n  \"edges\": [\n");
        let mut first = true;
        for (i, adj) in self.edges.iter().enumerate() {
            for j in adj {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str(&format!("    [{i}, {j}]"));
            }
        }
        out.push_str(&format!(
            "\n  ],\n  \"unknown_calls\": {},\n",
            self.unknown_calls
        ));
        for (key, list) in [
            ("unreached", &inventory.unreached),
            ("test_only", &inventory.test_only),
        ] {
            out.push_str(&format!("  \"{key}\": ["));
            for (n, item) in list.iter().enumerate() {
                out.push_str(if n == 0 { "\n" } else { ",\n" });
                out.push_str(&format!(
                    "    {{\"label\": {}, \"file\": {}, \"line\": {}}}",
                    crate::report::json_string(&item.label),
                    crate::report::json_string(&item.file),
                    item.line
                ));
            }
            out.push_str(if list.is_empty() { "]" } else { "\n  ]" });
            out.push_str(if key == "unreached" { ",\n" } else { "\n}\n" });
        }
        out
    }
}

/// Whether a path segment names a type (or a trait): it starts uppercase.
pub(crate) fn is_type_like(segment: &str) -> bool {
    segment.chars().next().is_some_and(char::is_uppercase)
}

/// Where a path is resolved from: the crate it is written in and the impl
/// type `Self` stands for there.
#[derive(Clone, Copy)]
struct Scope<'a> {
    crate_name: &'a str,
    self_type: Option<&'a str>,
}

impl Scope<'_> {
    fn of(f: &FnRecord) -> Scope<'_> {
        Scope {
            crate_name: &f.crate_name,
            self_type: f.self_type.as_deref(),
        }
    }
}

/// Resolves one call site to candidate function indices (empty =
/// unknown bucket).
fn resolve(
    caller: &FnRecord,
    callee: &Callee,
    file_imports: Option<&BTreeMap<&str, &[String]>>,
    names: &Names<'_>,
    fns: &[FnRecord],
) -> Vec<usize> {
    match callee {
        Callee::Method { name, receiver } => match receiver {
            Receiver::SelfRecv => {
                let Some(ty) = caller.self_type.as_deref() else {
                    return Vec::new();
                };
                names
                    .typed
                    .get(&(ty, name.as_str()))
                    .cloned()
                    .unwrap_or_default()
            }
            Receiver::Param(param) => {
                let ty = caller
                    .params
                    .iter()
                    .find(|(p, _)| p == param)
                    .map(|(_, t)| t);
                match ty {
                    Some(ParamType::Named(t)) => names
                        .typed
                        .get(&(t.as_str(), name.as_str()))
                        .cloned()
                        .unwrap_or_default(),
                    _ => Vec::new(),
                }
            }
            Receiver::Other => {
                // Precision guard: only accept candidates whose type is
                // in scope of the caller — defined in its crate or
                // imported by name in its file.
                let empty = BTreeSet::new();
                let local_types = names
                    .types_by_crate
                    .get(caller.crate_name.as_str())
                    .unwrap_or(&empty);
                let in_scope = |ty: &str| {
                    local_types.contains(ty) || file_imports.is_some_and(|im| im.contains_key(ty))
                };
                names
                    .methods_by_name
                    .get(name.as_str())
                    .map(|candidates| {
                        candidates
                            .iter()
                            .copied()
                            .filter(|&i| {
                                fns.get(i)
                                    .and_then(|c| c.self_type.as_deref())
                                    .is_some_and(in_scope)
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            }
        },
        Callee::Path(segments) => resolve_path(Scope::of(caller), segments, file_imports, names, 0),
    }
}

/// Resolves a path call (`a::b::c(...)`), expanding through one level of
/// `use` imports. `depth` guards against pathological alias loops.
fn resolve_path(
    scope: Scope<'_>,
    segments: &[String],
    file_imports: Option<&BTreeMap<&str, &[String]>>,
    names: &Names<'_>,
    depth: usize,
) -> Vec<usize> {
    if depth > 2 {
        return Vec::new();
    }
    let Some(name) = segments.last() else {
        return Vec::new();
    };
    if segments.len() == 1 {
        // Bare call: same crate first, then expand a matching import.
        if let Some(hits) = names.free.get(&(scope.crate_name, name.as_str())) {
            return hits.clone();
        }
        if let Some(path) = file_imports.and_then(|im| im.get(name.as_str())) {
            if path.len() > 1 {
                return resolve_path(scope, path, file_imports, names, depth + 1);
            }
        }
        return Vec::new();
    }
    // Qualified: `Type::method` when the second-to-last segment is
    // type-like (`Self` is the caller's impl type, a renamed import the
    // type it renames), otherwise `module::function` rooted at a crate
    // alias.
    let qualifier = segments
        .get(segments.len().saturating_sub(2))
        .map(String::as_str)
        .unwrap_or("");
    if is_type_like(qualifier) {
        let ty = match qualifier {
            "Self" => scope.self_type.unwrap_or(qualifier),
            _ => names
                .type_aliases
                .get(qualifier)
                .copied()
                .unwrap_or(qualifier),
        };
        return names
            .typed
            .get(&(ty, name.as_str()))
            .cloned()
            .unwrap_or_default();
    }
    let root = segments.first().map(String::as_str).unwrap_or("");
    if let Some(crate_key) = crate_alias(root, scope.crate_name) {
        return names
            .free
            .get(&(crate_key.as_str(), name.as_str()))
            .cloned()
            .unwrap_or_default();
    }
    // The root may itself be an imported module name:
    // `use crate::control; ... control::apply(...)`.
    if let Some(path) = file_imports.and_then(|im| im.get(root)) {
        let mut expanded: Vec<String> = path.to_vec();
        expanded.extend(segments.iter().skip(1).cloned());
        return resolve_path(scope, &expanded, file_imports, names, depth + 1);
    }
    Vec::new()
}

/// A diagnostic produced by a graph rule, waiting to be appended to its
/// file's raw findings, plus the boundary-allow marks the traversal hit.
pub(crate) struct GraphOutcome {
    pub(crate) findings: Vec<Diagnostic>,
    /// `(file, rule, def_line, end_line)` of every pruning boundary the
    /// traversals used.
    pub(crate) boundaries: Vec<(String, RuleId, usize, usize)>,
    pub(crate) callgraph_json: Option<String>,
}

/// Runs the enabled graph rules over the analyzed workspace, appending
/// findings into each file's raw list and marking boundary allows used.
/// `roots` are the files parsed only to root the inventory. Returns the
/// inventory, and the call-graph JSON dump when requested.
pub(crate) fn run_graph_rules(
    analyses: &mut [FileAnalysis],
    roots: &[FileAnalysis],
    config: &GraphConfig,
    enabled: &[RuleId],
    emit_callgraph: bool,
) -> (Inventory, Option<String>) {
    let (inventory, outcome) = {
        let graph = Graph::build(analyses, roots);
        let inventory = crate::inventory::take(&graph);
        let mut outcome = GraphOutcome {
            findings: Vec::new(),
            boundaries: Vec::new(),
            callgraph_json: emit_callgraph.then(|| graph.to_json(&inventory)),
        };
        if enabled.contains(&RuleId::TransitivePurity) {
            transitive_purity(&graph, analyses, &mut outcome);
        }
        if enabled.contains(&RuleId::TransitiveDeterminism) {
            transitive_determinism(&graph, analyses, config, &mut outcome);
        }
        if enabled.contains(&RuleId::LockOrder) {
            lock_order(&graph, analyses, config, &mut outcome);
        }
        (inventory, outcome)
    };

    let by_file: BTreeMap<String, usize> = analyses
        .iter()
        .enumerate()
        .map(|(i, analysis)| (analysis.file.clone(), i))
        .collect();
    for diag in outcome.findings {
        if let Some(analysis) = by_file.get(&diag.file).and_then(|&ai| analyses.get_mut(ai)) {
            analysis.raw.push(diag);
        }
    }
    for (file, rule, def_line, end_line) in outcome.boundaries {
        if let Some(&ai) = by_file.get(&file) {
            if let Some(analysis) = analyses.get_mut(ai) {
                analysis.mark_boundary_allow(rule, def_line, end_line);
            }
        }
    }
    (inventory, outcome.callgraph_json)
}

/// Check a set of in-memory sources together: the per-file rules, then
/// the graph rules over the combined call graph, then allows and the
/// deterministic sort. This is the multi-file analogue of
/// [`crate::check_source`], used by the fixture tests to pin cross-crate
/// edges and lock cycles without touching the filesystem.
pub fn check_sources(
    files: &[(&str, &str)],
    enabled: &[RuleId],
    vocab: &BTreeSet<String>,
    config: &GraphConfig,
) -> Vec<Diagnostic> {
    let mut analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(rel, source)| crate::engine::analyze_source(rel, source, enabled, vocab))
        .collect();
    run_graph_rules(&mut analyses, &[], config, enabled, false);
    crate::engine::finalize(analyses, enabled)
}

/// Takes the inventory of a set of in-memory sources: each file's path
/// decides whether it is scanned or only roots the traversal
/// (`examples/`, `tests/`, `crates/*/tests/`, `benchmark/src/`). The
/// fixture tests pin each root and each exclusion with it.
pub fn inventory_of(files: &[(&str, &str)]) -> Inventory {
    let (roots, sources): (Vec<FileAnalysis>, Vec<FileAnalysis>) = files
        .iter()
        .map(|(rel, source)| crate::engine::analyze_source(rel, source, &[], &BTreeSet::new()))
        .partition(|analysis| crate::inventory::root_file_kind(&analysis.file).is_some());
    crate::inventory::take(&Graph::build(&sources, &roots))
}

/// Whether a function span is covered by a standalone allow for `rule` —
/// the read-only half of the pruning-boundary check.
fn has_boundary_allow(
    analyses: &[FileAnalysis],
    file_index: &BTreeMap<String, usize>,
    f: &FnRecord,
    rule: RuleId,
) -> bool {
    let Some(&ai) = file_index.get(&f.file) else {
        return false;
    };
    let Some(analysis) = analyses.get(ai) else {
        return false;
    };
    analysis
        .allows
        .iter()
        .any(|a| a.covers_fn(rule, f.def_line, f.end_line))
}

/// Breadth-first reachability from `entries`, pruning at boundary allows
/// for `rule`. Returns `(parent, order)`: `parent[i]` is the BFS
/// predecessor (`usize::MAX` for entries and unreached nodes), `order`
/// lists reached indices in visit order. Boundary hits are recorded in
/// `outcome` so their directives count as used.
fn reach(
    graph: &Graph,
    analyses: &[FileAnalysis],
    entries: &[usize],
    rule: RuleId,
    outcome: &mut GraphOutcome,
) -> (Vec<usize>, Vec<usize>) {
    let mut parent = vec![usize::MAX; graph.fns.len()];
    let mut seen = vec![false; graph.fns.len()];
    let mut order: Vec<usize> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in entries {
        let Some(f) = graph.fns.get(e) else { continue };
        if f.in_test {
            continue;
        }
        if has_boundary_allow(analyses, &graph.file_index, f, rule) {
            outcome
                .boundaries
                .push((f.file.clone(), rule, f.def_line, f.end_line));
            continue;
        }
        if !seen.get(e).copied().unwrap_or(true) {
            if let Some(flag) = seen.get_mut(e) {
                *flag = true;
            }
            queue.push_back(e);
            order.push(e);
        }
    }
    while let Some(i) = queue.pop_front() {
        let adjacent = graph.edges.get(i).cloned().unwrap_or_default();
        for j in adjacent {
            if seen.get(j).copied().unwrap_or(true) {
                continue;
            }
            let Some(f) = graph.fns.get(j) else { continue };
            if f.in_test {
                continue;
            }
            if has_boundary_allow(analyses, &graph.file_index, f, rule) {
                outcome
                    .boundaries
                    .push((f.file.clone(), rule, f.def_line, f.end_line));
                continue;
            }
            if let Some(flag) = seen.get_mut(j) {
                *flag = true;
            }
            if let Some(p) = parent.get_mut(j) {
                *p = i;
            }
            queue.push_back(j);
            order.push(j);
        }
    }
    (parent, order)
}

/// Renders the BFS call chain from an entry point down to `i`.
fn chain(graph: &Graph, parent: &[usize], i: usize) -> String {
    let mut labels: Vec<String> = Vec::new();
    let mut cur = i;
    // The chain is bounded by the graph size; the cap guards cycles.
    for _ in 0..graph.fns.len().saturating_add(1) {
        if let Some(f) = graph.fns.get(cur) {
            labels.push(f.label());
        }
        match parent.get(cur) {
            Some(&p) if p != usize::MAX => cur = p,
            _ => break,
        }
    }
    labels.reverse();
    labels.join(" → ")
}

/// `transitive-hot-path-purity`: no lock or allocation site may be
/// reachable from the serving entry points, the functions marked
/// `// sdoh-lint: entry(transitive-hot-path-purity, "..")`. (A panic site is
/// a `no-panic` finding wherever it sits; reporting it here again would
/// only ask for a second directive on the same line.)
fn transitive_purity(graph: &Graph, analyses: &[FileAnalysis], outcome: &mut GraphOutcome) {
    let entries: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.entry)
        .map(|(i, _)| i)
        .collect();
    report_reachable(
        graph,
        analyses,
        &entries,
        RuleId::TransitivePurity,
        "a serving entry point",
        |kind| match kind {
            FactKind::Lock => Some("locks"),
            FactKind::Alloc => Some("allocates"),
            _ => None,
        },
        outcome,
    );
}

/// `transitive-determinism`: no ambient clock or entropy read in, or
/// reachable from, any non-test function of the sim-facing crates. Every
/// function is an entry, not only the `pub` ones: a trait-impl method
/// carries no `pub`, and a private helper nothing calls yet is still code
/// a seeded campaign may run tomorrow.
fn transitive_determinism(
    graph: &Graph,
    analyses: &[FileAnalysis],
    config: &GraphConfig,
    outcome: &mut GraphOutcome,
) {
    let entries: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test && config.determinism_crates.contains(&f.crate_name))
        .map(|(i, _)| i)
        .collect();
    report_reachable(
        graph,
        analyses,
        &entries,
        RuleId::TransitiveDeterminism,
        "a sim-facing function",
        |kind| match kind {
            FactKind::Clock => Some("reads the ambient wall clock"),
            FactKind::Entropy => Some("draws ambient OS entropy"),
            _ => None,
        },
        outcome,
    );
}

/// The shared body of the two reachability rules: every fact `verb_of`
/// names, in every function reachable from `entries`, is a `rule`
/// diagnostic at the fact's own site carrying the call chain.
fn report_reachable(
    graph: &Graph,
    analyses: &[FileAnalysis],
    entries: &[usize],
    rule: RuleId,
    origin: &str,
    verb_of: impl Fn(FactKind) -> Option<&'static str>,
    outcome: &mut GraphOutcome,
) {
    let (parent, order) = reach(graph, analyses, entries, rule, outcome);
    for i in order {
        let Some(f) = graph.fns.get(i) else { continue };
        for fact in &f.facts {
            let Some(verb) = verb_of(fact.kind) else {
                continue;
            };
            outcome.findings.push(Diagnostic {
                file: f.file.clone(),
                line: fact.line,
                col: fact.col,
                rule: rule.name(),
                message: format!(
                    "{} {} and is reachable from {}; call chain: {}",
                    fact.what,
                    verb,
                    origin,
                    chain(graph, &parent, i)
                ),
            });
        }
    }
}

/// One lock currently held during the lock-order replay.
struct Held {
    lock: String,
    bound: bool,
    depth: usize,
    line: usize,
}

/// A witnessed `first → second` acquisition ordering.
#[derive(Clone)]
struct EdgeWitness {
    file: String,
    line: usize,
    col: usize,
    description: String,
}

/// `lock-order`: replay each scoped function's lock events, build the
/// ordered acquisition graph (including lock sets reached through calls),
/// and report every cycle with the conflicting chains.
fn lock_order(
    graph: &Graph,
    analyses: &[FileAnalysis],
    config: &GraphConfig,
    outcome: &mut GraphOutcome,
) {
    let in_scope = |f: &FnRecord| !f.in_test && config.lock_crates.contains(&f.crate_name);
    // Pruned functions (standalone allow(lock-order) over the whole span)
    // contribute neither acquisitions nor edges.
    let mut pruned = vec![false; graph.fns.len()];
    for (i, f) in graph.fns.iter().enumerate() {
        if in_scope(f) && has_boundary_allow(analyses, &graph.file_index, f, RuleId::LockOrder) {
            if let Some(flag) = pruned.get_mut(i) {
                *flag = true;
            }
            outcome
                .boundaries
                .push((f.file.clone(), RuleId::LockOrder, f.def_line, f.end_line));
        }
    }

    // Transitive lock sets: fixpoint of direct acquisitions plus callees'.
    let mut lock_sets: Vec<BTreeSet<String>> = graph
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut set = BTreeSet::new();
            if in_scope(f) && !pruned.get(i).copied().unwrap_or(true) {
                for event in &f.lock_events {
                    if let LockEvent::Acquire { lock, .. } = event {
                        set.insert(lock.clone());
                    }
                }
            }
            set
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..graph.fns.len() {
            let scoped = graph
                .fns
                .get(i)
                .map(|f| in_scope(f) && !pruned.get(i).copied().unwrap_or(true))
                .unwrap_or(false);
            if !scoped {
                continue;
            }
            let adjacent = graph.edges.get(i).cloned().unwrap_or_default();
            let mut additions: Vec<String> = Vec::new();
            for j in adjacent {
                if let Some(callee_set) = lock_sets.get(j) {
                    for lock in callee_set {
                        if !lock_sets.get(i).map(|s| s.contains(lock)).unwrap_or(true) {
                            additions.push(lock.clone());
                        }
                    }
                }
            }
            if let Some(set) = lock_sets.get_mut(i) {
                for lock in additions {
                    changed |= set.insert(lock);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Replay events, collecting ordered edges with first witnesses.
    let mut edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !in_scope(f) || pruned.get(i).copied().unwrap_or(true) {
            continue;
        }
        let mut held: Vec<Held> = Vec::new();
        for event in &f.lock_events {
            match event {
                LockEvent::Acquire {
                    lock,
                    bound,
                    depth,
                    line,
                    col,
                } => {
                    for h in &held {
                        let key = (h.lock.clone(), lock.clone());
                        edges.entry(key).or_insert_with(|| EdgeWitness {
                            file: f.file.clone(),
                            line: *line,
                            col: *col,
                            description: format!(
                                "{} acquires `{}` at {}:{} while holding `{}` (acquired at {}:{})",
                                f.label(),
                                lock,
                                f.file,
                                line,
                                h.lock,
                                f.file,
                                h.line
                            ),
                        });
                    }
                    held.push(Held {
                        lock: lock.clone(),
                        bound: *bound,
                        depth: *depth,
                        line: *line,
                    });
                }
                LockEvent::Call { index, .. } => {
                    if held.is_empty() {
                        continue;
                    }
                    let targets = graph
                        .call_targets
                        .get(i)
                        .and_then(|c| c.get(*index))
                        .cloned()
                        .unwrap_or_default();
                    let call_site = f.calls.get(*index);
                    for t in targets {
                        if pruned.get(t).copied().unwrap_or(true) {
                            continue;
                        }
                        let Some(callee_locks) = lock_sets.get(t) else {
                            continue;
                        };
                        let callee_label =
                            graph.fns.get(t).map(FnRecord::label).unwrap_or_default();
                        for lock in callee_locks {
                            for h in &held {
                                let key = (h.lock.clone(), lock.clone());
                                let (line, col) = call_site
                                    .map(|c| (c.line, c.col))
                                    .unwrap_or((f.def_line, 1));
                                edges.entry(key).or_insert_with(|| EdgeWitness {
                                    file: f.file.clone(),
                                    line,
                                    col,
                                    description: format!(
                                        "{} calls {} at {}:{} while holding `{}` (acquired at {}:{}); the callee's lock set includes `{}`",
                                        f.label(),
                                        callee_label,
                                        f.file,
                                        line,
                                        h.lock,
                                        f.file,
                                        h.line,
                                        lock
                                    ),
                                });
                            }
                        }
                    }
                }
                LockEvent::StatementEnd { depth } => {
                    // Unbound guards die at their own statement's `;`.
                    held.retain(|h| h.bound || h.depth != *depth);
                }
                LockEvent::BlockClose { depth } => {
                    held.retain(|h| h.depth <= *depth);
                }
            }
        }
    }

    // Cycle detection over the lock graph: strongly connected components
    // with more than one node, plus self-loops, are potential deadlocks.
    let nodes: BTreeSet<String> = edges
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    let nodes: Vec<String> = nodes.into_iter().collect();
    let index_of: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        if let (Some(&ia), Some(&ib)) = (index_of.get(a.as_str()), index_of.get(b.as_str())) {
            if let Some(list) = adj.get_mut(ia) {
                list.push(ib);
            }
        }
    }
    for component in strongly_connected(&adj) {
        let is_cycle = component.len() > 1
            || component
                .first()
                .is_some_and(|&n| adj.get(n).map(|a| a.contains(&n)).unwrap_or(false));
        if !is_cycle {
            continue;
        }
        let mut names: Vec<&str> = component
            .iter()
            .filter_map(|&n| nodes.get(n).map(String::as_str))
            .collect();
        names.sort_unstable();
        // Collect the witnesses of every edge inside the component.
        let mut witnesses: Vec<&EdgeWitness> = Vec::new();
        let mut ring = String::new();
        for (key, witness) in &edges {
            let (a, b) = (key.0.as_str(), key.1.as_str());
            if names.contains(&a) && names.contains(&b) {
                witnesses.push(witness);
                if !ring.is_empty() {
                    ring.push_str(", ");
                }
                ring.push_str(&format!("`{a}` → `{b}`"));
            }
        }
        let Some(anchor) = witnesses.first() else {
            continue;
        };
        let detail = witnesses
            .iter()
            .map(|w| w.description.as_str())
            .collect::<Vec<_>>()
            .join("; ");
        outcome.findings.push(Diagnostic {
            file: anchor.file.clone(),
            line: anchor.line,
            col: anchor.col,
            rule: "lock-order",
            message: format!(
                "lock-order cycle among {{{}}} — potential deadlock; conflicting orderings: {}; {}",
                names
                    .iter()
                    .map(|n| format!("`{n}`"))
                    .collect::<Vec<_>>()
                    .join(", "),
                ring,
                detail
            ),
        });
    }
}

/// Tarjan's strongly-connected components, iteratively, in deterministic
/// node order. Returns each component as a sorted list of node indices.
fn strongly_connected(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack: (node, next child position).
    for start in 0..n {
        if index.get(start).copied().unwrap_or(0) != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut child)) = work.last_mut() {
            if *child == 0 {
                if let (Some(iv), Some(lv)) = (index.get_mut(v), low.get_mut(v)) {
                    *iv = next_index;
                    *lv = next_index;
                }
                next_index += 1;
                stack.push(v);
                if let Some(flag) = on_stack.get_mut(v) {
                    *flag = true;
                }
            }
            let edge = adj.get(v).and_then(|a| a.get(*child)).copied();
            match edge {
                Some(w) => {
                    *child += 1;
                    if index.get(w).copied().unwrap_or(0) == usize::MAX {
                        work.push((w, 0));
                    } else if on_stack.get(w).copied().unwrap_or(false) {
                        let lw = index.get(w).copied().unwrap_or(0);
                        if let Some(lv) = low.get_mut(v) {
                            *lv = (*lv).min(lw);
                        }
                    }
                }
                None => {
                    work.pop();
                    if let Some(&(parent, _)) = work.last() {
                        let lv = low.get(v).copied().unwrap_or(0);
                        if let Some(lp) = low.get_mut(parent) {
                            *lp = (*lp).min(lv);
                        }
                    }
                    if low.get(v) == index.get(v) {
                        let mut component: Vec<usize> = Vec::new();
                        while let Some(w) = stack.pop() {
                            if let Some(flag) = on_stack.get_mut(w) {
                                *flag = false;
                            }
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        component.sort_unstable();
                        components.push(component);
                    }
                }
            }
        }
    }
    components
}
