//! The inventory: every non-test function of the scanned sources that no
//! root reaches, or that only test roots reach. It is not a rule — no
//! diagnostics, no allows, no exit code — but a list to act on: delete,
//! demote, or keep with a written reason.
//!
//! ## Roots
//!
//! * every `main`, every trait-impl and trait method (dynamic dispatch and
//!   operator traits call them where the graph cannot see), and every
//!   function a `static` / `const` initializer names (the `EXPERIMENTS`
//!   table of fn pointers);
//! * every function of `examples/` and of `benchmark/src/` — the benchmark
//!   is parsed, never built, and every call and path it writes is followed;
//! * test roots: `#[test]` and `#[cfg(test)]` functions, and every function
//!   of `tests/` and `crates/*/tests/`.
//!
//! A function is *unreached* when nothing reaches it from any root, and
//! *test-only* when only test roots do.
//!
//! ## The by-name rule
//!
//! The traversal follows resolved call edges and the functions a body
//! names without calling (`.map(parse_line)`). A call the graph could not
//! resolve (the unknown bucket) reaches, by name, every function it could
//! be: an unresolved `.name(..)` every method called `name`, an unresolved
//! `name(..)` or `module::name(..)` every function called `name`. So a
//! call through `dyn Trait`, a generic or an unnamed receiver type never
//! produces a false "nothing reaches this". Trait-impl and trait methods
//! are never listed.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{is_type_like, Graph};
use crate::parser::{Callee, FnRecord};

/// One listed function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Listed {
    /// `crate::Type::name`, as in call chains.
    pub label: String,
    pub file: String,
    pub line: usize,
}

/// The two lists and the size of the unknown bucket beside them.
#[derive(Clone, Debug, Default)]
pub struct Inventory {
    /// Reached from no root at all.
    pub unreached: Vec<Listed>,
    /// Reached only from test roots.
    pub test_only: Vec<Listed>,
    /// Calls that resolved to no workspace function.
    pub unknown_calls: usize,
}

/// The root kind of a file the scan parses only for its roots: `Some(true)`
/// for integration tests, `Some(false)` for examples and the benchmark,
/// `None` for everything else.
pub(crate) fn root_file_kind(rel: &str) -> Option<bool> {
    if rel.starts_with("examples/") || rel.starts_with("benchmark/src/") {
        return Some(false);
    }
    if rel.starts_with("tests/") {
        return Some(true);
    }
    let in_crate = rel.strip_prefix("crates/")?.split_once('/')?.1;
    if in_crate.starts_with("tests/") {
        Some(true)
    } else if in_crate.starts_with("examples/") {
        Some(false)
    } else {
        None
    }
}

/// Method names the parser reads as facts (`.lock()`, `.unwrap()`, ...)
/// rather than as calls.
const FACT_METHODS: [&str; 5] = ["lock", "to_vec", "collect", "unwrap", "expect"];

/// Takes the inventory of a built graph.
pub(crate) fn take(graph: &Graph) -> Inventory {
    let production = reach(graph, false);
    let everything = reach(graph, true);
    let mut inventory = Inventory {
        unknown_calls: graph.unknown_calls,
        ..Inventory::default()
    };
    // Roots are reached by definition, so a `main` or a trait method is
    // never listed.
    for (i, f) in graph.fns.iter().enumerate().take(graph.sources) {
        if f.in_test {
            continue;
        }
        let listed = Listed {
            label: f.label(),
            file: f.file.clone(),
            line: f.def_line,
        };
        if !everything.contains(&i) {
            inventory.unreached.push(listed);
        } else if !production.contains(&i) {
            inventory.test_only.push(listed);
        }
    }
    inventory
}

/// Whether function `i` roots the traversal; test roots only count when
/// `with_tests`.
fn is_root(graph: &Graph, i: usize, f: &FnRecord, with_tests: bool) -> bool {
    if i >= graph.sources {
        return root_file_kind(&f.file).is_some_and(|test| with_tests || !test);
    }
    if f.in_test {
        return with_tests;
    }
    f.trait_method || f.name == "main"
}

/// Everything reachable from the roots, following resolved calls, named
/// functions and, by name, the unknown bucket.
fn reach(graph: &Graph, with_tests: bool) -> BTreeSet<usize> {
    let mut any_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    // Test code and the root files are reached as roots or not at all: a
    // call never leads into them.
    for (i, f) in graph.fns.iter().enumerate().filter(|(_, f)| !f.in_test) {
        any_by_name.entry(f.name.as_str()).or_default().push(i);
        if f.self_type.is_some() {
            methods_by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }

    let mut queue: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|&(i, f)| is_root(graph, i, f, with_tests))
        .map(|(i, _)| i)
        .chain(
            graph
                .static_refs
                .iter()
                .filter(|&&(_, test)| with_tests || !test)
                .map(|&(i, _)| i),
        )
        .collect();
    let mut seen: BTreeSet<usize> = queue.iter().copied().collect();

    // The parser records these method calls as facts, not calls: every
    // method so named counts as called by name.
    let mut methods_named: BTreeSet<&str> = FACT_METHODS.into_iter().collect();
    for name in FACT_METHODS {
        queue.extend(
            methods_by_name
                .get(name)
                .into_iter()
                .flatten()
                .filter(|&&j| seen.insert(j)),
        );
    }
    let mut any_named: BTreeSet<&str> = BTreeSet::new();
    while let Some(i) = queue.pop() {
        let Some(f) = graph.fns.get(i) else { continue };
        let edges = graph.edges.get(i).into_iter().flatten();
        let refs = graph.refs.get(i).into_iter().flatten();
        let mut next: Vec<usize> = edges.chain(refs).copied().collect();
        let targets = graph.call_targets.get(i).map(Vec::as_slice).unwrap_or(&[]);
        for (call, resolved) in f.calls.iter().zip(targets) {
            if !resolved.is_empty() {
                continue;
            }
            let by_name = match &call.callee {
                Callee::Method { name, .. } if methods_named.insert(name.as_str()) => {
                    methods_by_name.get(name.as_str())
                }
                // A type-qualified path names its type; one that resolved
                // to nothing names no workspace function.
                Callee::Path(path) => match path.as_slice() {
                    [.., ty, _] if is_type_like(ty) => None,
                    [.., name] if any_named.insert(name.as_str()) => any_by_name.get(name.as_str()),
                    _ => None,
                },
                Callee::Method { .. } => None,
            };
            next.extend(by_name.into_iter().flatten());
        }
        let callable = |j: &usize| graph.fns.get(*j).is_some_and(|f| !f.in_test);
        queue.extend(
            next.into_iter()
                .filter(callable)
                .filter(|&j| seen.insert(j)),
        );
    }
    seen
}
