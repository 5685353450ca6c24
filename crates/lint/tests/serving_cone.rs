//! What `transitive-hot-path-purity` actually covers, shown on the real
//! sources: an allocation planted at the top of each per-query function is
//! reported on the planted line. The file-local rule that used to check
//! `runtime.rs` and `core/serve/**` line by line is gone; this is the list
//! of functions the traversal has to reach for that to have cost nothing.
//! (What it does *not* reach is listed in `RULES.md`.)

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use sdoh_lint::{check_sources, find_workspace_root, graph_config, RuleId};

const PLANT: &str = "let _ = format!(\"x\");";

/// `(file, the text that ends in the function's opening brace)` — each
/// needle must match its file exactly once.
const PER_QUERY: [(&str, &str); 16] = [
    (
        "crates/runtime/src/runtime.rs",
        "fn send(&mut self, query: Option<&QueryView<'_>>, reply: &ReplyPath, started: Instant) {",
    ),
    (
        "crates/runtime/src/runtime.rs",
        "fn serve(&mut self, wire: &[u8], reply: ReplyPath, started: Instant) {",
    ),
    (
        "crates/runtime/src/runtime.rs",
        "fn serve_query(shards: &ShardSet, wire: &[u8], reply: ReplyPath, counters: &FrontCounters) -> bool {",
    ),
    (
        "crates/runtime/src/runtime.rs",
        "fn pump_and_arm(&mut self, timer: &Timer) -> bool {",
    ),
    (
        "crates/runtime/src/runtime.rs",
        "fn answer_parked(&mut self, landed: &Landed) {",
    ),
    (
        "crates/runtime/src/runtime.rs",
        "fn udp_ceiling(query: Option<&QueryView<'_>>, limit: usize) -> usize {",
    ),
    (
        "crates/runtime/src/runtime.rs",
        "fn truncate_for_udp(query: Option<&QueryView<'_>>, out: &mut Vec<u8>) {",
    ),
    (
        "crates/runtime/src/runtime.rs",
        "fn question_route(wire: &[u8], shards: usize) -> Option<usize> {",
    ),
    (
        "crates/core/src/serve/resolver.rs",
        "fn screen<'q>(&mut self, asked: Option<QuestionRef<'q>>) -> Result<QuestionRef<'q>, Rcode> {",
    ),
    (
        "crates/core/src/serve/resolver.rs",
        "fn lookup(&mut self, key: &QueryKey<'_>, now: SimInstant) -> Option<Served<'_>> {"
    ),
    (
        "crates/core/src/serve/resolver.rs",
        "pub fn next_refresh_due(&self) -> Option<SimInstant> {",
    ),
    (
        "crates/core/src/serve/resolver.rs",
        "fn wire(self, query: &QueryView<'_>, out: &mut Vec<u8>) -> WireResult<()> {", // Served::wire
    ),
    (
        "crates/core/src/serve/resolver.rs",
        "pub fn answer_wire(&self, query: &QueryView<'_>, out: &mut Vec<u8>) -> WireResult<()> {",
    ),
    (
        "crates/core/src/serve/refresh.rs",
        "pub(crate) fn next_due(&self) -> Option<SimInstant> {",
    ),
    (
        "crates/dns-server/src/service.rs",
        "pub fn finish_do53_answer(query: &QueryView<'_>, rendered: WireResult<()>, out: &mut Vec<u8>) {",
    ),
    (
        "crates/dns-wire/src/template.rs",
        "pub fn render(&self, query: &QueryView<'_>, ttl: u32, out: &mut Vec<u8>) -> bool {",
    ),
];

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry readable").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn an_allocation_planted_in_any_per_query_function_is_reported_on_its_line() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    // The four crates a query passes through hold every entry point and
    // everything the traversal reaches from them.
    let mut paths = Vec::new();
    for member in ["runtime", "core", "dns-server", "dns-wire"] {
        collect_rs(&root.join("crates").join(member).join("src"), &mut paths);
    }
    paths.sort();
    let sources: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the root");
            (
                rel.to_string_lossy().replace('\\', "/"),
                std::fs::read_to_string(path).expect("source readable"),
            )
        })
        .collect();
    let rules = [RuleId::TransitivePurity];
    let lint = |sources: &[(String, String)]| {
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(rel, source)| (rel.as_str(), source.as_str()))
            .collect();
        check_sources(&refs, &rules, &BTreeSet::new(), &graph_config())
    };
    assert_eq!(lint(&sources), vec![], "the unplanted tree must be clean");

    for (file, needle) in PER_QUERY {
        let mut planted = sources.clone();
        let (_, source) = planted
            .iter_mut()
            .find(|(rel, _)| rel == file)
            .unwrap_or_else(|| panic!("{file} is not among the scanned sources"));
        assert_eq!(
            source.matches(needle).count(),
            1,
            "needle `{needle}` must match {file} exactly once — the function moved or \
             changed its signature; update PER_QUERY"
        );
        let at = source.find(needle).expect("counted above") + needle.len();
        let line = source[..at].lines().count() + 1;
        source.insert_str(at, &format!("\n{PLANT}"));

        let found: Vec<(String, &str, usize)> = lint(&planted)
            .into_iter()
            .map(|d| (d.file, d.rule, d.line))
            .collect();
        assert_eq!(
            found,
            vec![(file.to_string(), "transitive-hot-path-purity", line)],
            "an allocation planted after `{needle}` must be reported where it was planted"
        );
    }
}
