//! What `transitive-hot-path-purity` covers, shown on the real sources: one
//! lint run over every file the workspace scan covers, with an allocation
//! planted at the top of every non-test function. Every marked entry must
//! be reported, and nothing but plants may be: the functions reported are
//! the serving cone, which `--nocapture` prints.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use sdoh_lint::{
    analyze_source, check_sources, find_workspace_root, graph_config, source_files, RuleId,
};

const PLANT: &str = "let _ = format!(\"x\");";

#[test]
fn an_allocation_planted_in_any_per_query_function_is_reported_on_its_line() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let mut planted: Vec<(String, String)> = Vec::new();
    // (file, plant line) -> the label of the function planted there.
    let mut plants: BTreeMap<(String, usize), String> = BTreeMap::new();
    let mut entries: BTreeSet<(String, usize)> = BTreeSet::new();
    for path in source_files(&root).expect("the workspace scan lists its files") {
        let rel = path
            .strip_prefix(&root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let mut source = std::fs::read_to_string(&path).expect("source readable");
        let analysis = analyze_source(&rel, &source, &[], &BTreeSet::new());
        let mut bodies: Vec<((usize, usize), String, bool)> = analysis
            .items
            .functions
            .iter()
            .filter(|f| !f.in_test)
            .filter_map(|f| Some((f.body?, f.label(), f.entry)))
            .collect();
        bodies.sort();
        // Each plant is a line of its own below its body's `{`, so the
        // k-th plant of a file moves everything after it down k lines.
        for (k, ((line, _), label, entry)) in bodies.iter().enumerate() {
            let at = (rel.clone(), line + 1 + k);
            if *entry {
                entries.insert(at.clone());
            }
            plants.insert(at, label.clone());
        }
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(source.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        for ((line, col), _, _) in bodies.iter().rev() {
            let start = line_starts[line - 1];
            let (brace, _) = source[start..]
                .char_indices()
                .nth(col - 1)
                .expect("the brace is on its line");
            source.insert_str(start + brace + 1, &format!("\n{PLANT}"));
        }
        planted.push((rel, source));
    }
    assert!(!entries.is_empty(), "the sources mark no entry");

    let refs: Vec<(&str, &str)> = planted
        .iter()
        .map(|(rel, source)| (rel.as_str(), source.as_str()))
        .collect();
    let diagnostics = check_sources(
        &refs,
        &[RuleId::TransitivePurity],
        &BTreeSet::new(),
        &graph_config(),
    );
    let mut reached: BTreeSet<(String, usize)> = BTreeSet::new();
    for d in diagnostics {
        let at = (d.file.clone(), d.line);
        assert!(
            d.rule == "transitive-hot-path-purity" && plants.contains_key(&at),
            "reported off a plant line: {d:?}"
        );
        reached.insert(at);
    }
    let missed: Vec<&String> = entries
        .difference(&reached)
        .filter_map(|at| plants.get(at))
        .collect();
    assert!(missed.is_empty(), "marked entries not reported: {missed:?}");

    let mut labels: Vec<&str> = reached
        .iter()
        .filter_map(|at| plants.get(at).map(String::as_str))
        .collect();
    labels.sort_unstable();
    println!(
        "serving cone: {} of {} non-test functions reached from {} entries",
        reached.len(),
        plants.len(),
        entries.len()
    );
    for label in labels {
        println!("  {label}");
    }
}
