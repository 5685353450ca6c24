//! Fixture corpus for the lint engine: every rule has a bad snippet and an
//! allowlisted twin, and the expected diagnostics are pinned down to the
//! exact `(rule, line, col)`. A drifting lexer or scope computation shows
//! up here as a changed coordinate, not as a silently missed violation.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use sdoh_lint::rules::RuleId;
use sdoh_lint::{
    check_source, check_sources, find_workspace_root, inventory_of, rules_for,
    vocabulary_from_source, Diagnostic, GraphConfig, Inventory, Listed,
};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_vocab() -> BTreeSet<String> {
    ["sdoh_fixture_known_total".to_string()]
        .into_iter()
        .collect()
}

/// Lint one fixture with every rule enabled and return `(rule, line, col)`
/// triples in the engine's sorted order.
fn lint_fixture(name: &str) -> Vec<(&'static str, usize, usize)> {
    let path = fixture_dir().join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    check_source(name, &source, &RuleId::ALL, &fixture_vocab())
        .into_iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect()
}

/// Lint a set of fixtures as a synthetic multi-crate workspace: each entry
/// pairs the pretend workspace-relative path (which determines the crate)
/// with the fixture file holding the source.
fn lint_graph_fixtures(
    files: &[(&str, &str)],
    enabled: &[RuleId],
    config: &GraphConfig,
) -> Vec<Diagnostic> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(rel, name)| {
            let path = fixture_dir().join(name);
            let source = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
            (rel.to_string(), source)
        })
        .collect();
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, source)| (rel.as_str(), source.as_str()))
        .collect();
    check_sources(&refs, enabled, &fixture_vocab(), config)
}

fn triples(diagnostics: &[Diagnostic]) -> Vec<(&'static str, usize, usize)> {
    diagnostics
        .iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect()
}

#[test]
fn no_panic_fixture_flags_each_construct_once() {
    assert_eq!(
        lint_fixture("no_panic.rs"),
        vec![
            ("no-panic", 4, 7),  // v.unwrap()
            ("no-panic", 8, 7),  // v.expect("present")
            ("no-panic", 12, 5), // panic!("boom")
            ("no-panic", 16, 7), // xs[0]
        ],
        "trailing and standalone allows must suppress their sites, and the \
         #[cfg(test)] module must be exempt"
    );
}

#[test]
fn no_narrowing_cast_fixture_exempts_wide_targets() {
    assert_eq!(
        lint_fixture("no_narrowing_cast.rs"),
        vec![("no-narrowing-cast", 4, 7)], // x as u8
        "f64 and u128 targets are exempt, the masked cast is allowlisted"
    );
}

/// The umbrella crate's scenario layer may panic but not truncate: the
/// same cast is reported in `src/` and in a library crate, and only the
/// experiment harness may make it.
#[test]
fn a_narrowing_cast_in_the_scenario_layer_is_reported() {
    let source = std::fs::read_to_string(fixture_dir().join("no_narrowing_cast.rs"))
        .expect("fixture readable");
    let reported = |rel: &str| {
        triples(&check_source(
            rel,
            &source,
            &rules_for(rel),
            &fixture_vocab(),
        ))
    };
    for rel in ["src/scenario.rs", "crates/core/src/fleet.rs"] {
        assert_eq!(reported(rel), vec![("no-narrowing-cast", 4, 7)], "{rel}");
    }
    assert_eq!(reported("crates/bench/src/report.rs"), vec![]);
}

#[test]
fn hot_path_purity_fixture_flags_locks_and_allocation() {
    let diagnostics = lint_graph_fixtures(
        &[("crates/hot/src/lib.rs", "hot_path_purity.rs")],
        &RuleId::ALL,
        &GraphConfig::default(),
    );
    assert_eq!(
        triples(&diagnostics),
        vec![
            ("transitive-hot-path-purity", 6, 12), // mutex.lock()
            ("transitive-hot-path-purity", 11, 5), // Vec::new()
            ("transitive-hot-path-purity", 17, 5), // format!
        ],
        "the standalone allow must cover the whole cold-path function"
    );
}

#[test]
fn determinism_fixture_flags_ambient_clocks() {
    let config = GraphConfig {
        determinism_crates: vec!["dsim".to_string()],
        ..GraphConfig::default()
    };
    let diagnostics = lint_graph_fixtures(
        &[("crates/dsim/src/lib.rs", "determinism.rs")],
        &RuleId::ALL,
        &config,
    );
    assert_eq!(
        triples(&diagnostics),
        vec![
            // Reported at `Instant` / `SystemTime`, not at the `std` the
            // fully qualified path starts with.
            ("transitive-determinism", 4, 16),
            ("transitive-determinism", 8, 16),
        ],
        "the allowlisted host-clock boundary must not be flagged"
    );
}

#[test]
fn metrics_vocabulary_fixture_flags_only_unknown_names() {
    assert_eq!(
        lint_fixture("metrics_vocabulary.rs"),
        vec![("metrics-vocabulary", 5, 5)], // "sdoh_made_up_metric_total"
        "vocabulary names and allowlisted scratch names must pass"
    );
}

#[test]
fn unused_allow_is_itself_a_diagnostic() {
    assert_eq!(
        lint_fixture("unused_allow.rs"),
        vec![("unused-allow", 4, 11)],
        "an allow that suppresses nothing must be reported at the directive"
    );
}

#[test]
fn an_allow_for_a_rule_outside_the_enabled_set_is_not_reported_unused() {
    // Regression: under `--rule <name>` filtering, every allow for a rule
    // that was not run used to be reported as unused-allow — a filtered
    // run would flag hundreds of perfectly valid directives. An allow is
    // only audited when its rule was actually enabled.
    let path = fixture_dir().join("unused_allow.rs");
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    let diagnostics = check_source(
        "unused_allow.rs",
        &source,
        &[RuleId::NoNarrowingCast],
        &fixture_vocab(),
    );
    assert_eq!(
        diagnostics,
        vec![],
        "the stale allow(no-panic) must only be audited when no-panic runs"
    );
}

#[test]
fn standalone_allow_scope_survives_commas_in_generic_return_types() {
    // Regression: `item_end` once treated the depth-0 comma inside
    // `Result<Option<(u32, usize)>, String>` as the end of the allow's
    // scope, stranding the directive as unused and leaving the body's
    // indexing unsuppressed.
    assert_eq!(
        lint_fixture("generic_return_scope.rs"),
        vec![],
        "the allow must scope over the whole declaration despite the comma \
         in its return-type generics"
    );
}

#[test]
fn transitive_purity_fixture_reports_the_full_call_chain() {
    let diagnostics = lint_graph_fixtures(
        &[("crates/palpha/src/lib.rs", "transitive_purity.rs")],
        &[RuleId::TransitivePurity],
        &GraphConfig::default(),
    );
    assert_eq!(
        triples(&diagnostics),
        vec![
            ("transitive-hot-path-purity", 16, 18), // Vec::new in helper
            ("transitive-hot-path-purity", 21, 37), // std::vec::Vec::new
            ("transitive-hot-path-purity", 22, 29), // std::boxed::Box::new
        ],
        "the allocations two hops down must be reported at their own sites, \
         fully qualified or not"
    );
    assert!(
        diagnostics[0]
            .message
            .contains("palpha::serve_loop → palpha::step → palpha::helper"),
        "the diagnostic must carry the full call chain, got: {}",
        diagnostics[0].message
    );
}

#[test]
fn transitive_purity_boundary_allow_prunes_and_counts_as_used() {
    let diagnostics = lint_graph_fixtures(
        &[("crates/palpha/src/lib.rs", "transitive_purity_allowed.rs")],
        &[RuleId::TransitivePurity],
        &GraphConfig::default(),
    );
    assert_eq!(
        triples(&diagnostics),
        vec![],
        "a standalone allow over the helper must prune the traversal \
         without tripping unused-allow"
    );
}

#[test]
fn cross_crate_edge_resolves_through_the_use_import() {
    let diagnostics = lint_graph_fixtures(
        &[
            ("crates/xalpha/src/lib.rs", "cross_crate_entry.rs"),
            ("crates/xbeta/src/lib.rs", "cross_crate_callee.rs"),
        ],
        &[RuleId::TransitivePurity],
        &GraphConfig::default(),
    );
    assert_eq!(
        triples(&diagnostics),
        vec![("transitive-hot-path-purity", 4, 17)], // format! in render
        "the `use sdoh_xbeta::render` import must resolve the bare call \
         into the sibling crate"
    );
    assert_eq!(diagnostics[0].file, "crates/xbeta/src/lib.rs");
    assert!(
        diagnostics[0]
            .message
            .contains("xalpha::serve_loop → xbeta::render"),
        "the chain must cross the crate boundary, got: {}",
        diagnostics[0].message
    );
}

#[test]
fn lock_cycle_fixture_reports_one_cycle_with_every_ordering() {
    let config = GraphConfig {
        lock_crates: vec!["lockdemo".to_string()],
        ..GraphConfig::default()
    };
    let diagnostics = lint_graph_fixtures(
        &[("crates/lockdemo/src/lib.rs", "lock_cycle.rs")],
        &[RuleId::LockOrder],
        &config,
    );
    assert_eq!(
        triples(&diagnostics),
        vec![("lock-order", 10, 27)], // beta acquired while alpha is held
        "a three-lock ring must collapse to one cycle diagnostic"
    );
    let message = &diagnostics[0].message;
    for ordering in ["`alpha` → `beta`", "`beta` → `gamma`", "`gamma` → `alpha`"] {
        assert!(
            message.contains(ordering),
            "cycle message must list the ordering {ordering}, got: {message}"
        );
    }
}

#[test]
fn lock_cycle_boundary_allow_breaks_the_ring() {
    let config = GraphConfig {
        lock_crates: vec!["lockdemo".to_string()],
        ..GraphConfig::default()
    };
    let diagnostics = lint_graph_fixtures(
        &[("crates/lockdemo/src/lib.rs", "lock_cycle_allowed.rs")],
        &[RuleId::LockOrder],
        &config,
    );
    assert_eq!(
        triples(&diagnostics),
        vec![],
        "pruning one participant must leave the remaining orderings acyclic"
    );
}

#[test]
fn transitive_determinism_fixture_flags_the_reachable_clock() {
    let config = GraphConfig {
        determinism_crates: vec!["gsim".to_string()],
        ..GraphConfig::default()
    };
    let diagnostics = lint_graph_fixtures(
        &[
            ("crates/gsim/src/lib.rs", "transitive_determinism.rs"),
            ("crates/ghost/src/lib.rs", "transitive_determinism_host.rs"),
        ],
        &[RuleId::TransitiveDeterminism],
        &config,
    );
    assert_eq!(
        diagnostics
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.col))
            .collect::<Vec<_>>(),
        vec![
            ("crates/ghost/src/lib.rs", 8, 15), // Instant::now in stamp, reached from tick
            ("crates/gsim/src/lib.rs", 13, 5),  // Instant::now in a private fn
            ("crates/gsim/src/lib.rs", 20, 20), // std::time::Instant::now in a trait impl
            ("crates/gsim/src/lib.rs", 25, 6),  // SystemTime::now
            ("crates/gsim/src/lib.rs", 25, 36), // std::time::SystemTime::now
            ("crates/gsim/src/lib.rs", 29, 11), // rand::thread_rng()
            ("crates/gsim/src/lib.rs", 29, 49), // rand::rngs::OsRng
        ],
        "every spelling in every sim-facing function is reported at its \
         site, the host crate's clock only where a sim-facing function \
         reaches it (`unreached` is not)"
    );
    assert!(diagnostics
        .iter()
        .all(|d| d.rule == "transitive-determinism"));
    assert!(
        diagnostics[0].message.contains("gsim::tick → ghost::stamp"),
        "the diagnostic must carry the chain from the sim-facing entry, got: {}",
        diagnostics[0].message
    );
}

#[test]
fn transitive_determinism_boundary_allow_covers_the_entry() {
    let config = GraphConfig {
        determinism_crates: vec!["gsim".to_string()],
        ..GraphConfig::default()
    };
    let diagnostics = lint_graph_fixtures(
        &[
            (
                "crates/gsim/src/lib.rs",
                "transitive_determinism_allowed.rs",
            ),
            ("crates/ghost/src/lib.rs", "transitive_determinism_host.rs"),
        ],
        &[RuleId::TransitiveDeterminism],
        &config,
    );
    assert_eq!(
        triples(&diagnostics),
        vec![],
        "an allow over the sim-facing entry must make the whole cone a \
         documented host-clock boundary"
    );
}

/// Lints one in-memory file of crate `solo` for the purity rule alone.
fn lint_purity(source: &str) -> Vec<Diagnostic> {
    check_sources(
        &[("crates/solo/src/lib.rs", source)],
        &[RuleId::TransitivePurity],
        &fixture_vocab(),
        &GraphConfig::default(),
    )
}

#[test]
fn an_entry_marker_that_marks_no_function_fails_loudly() {
    let marker = "// sdoh-lint: entry(transitive-hot-path-purity, \"serves every query\")";
    for (source, line, col) in [
        (format!("pub fn nothing() {{}}\n{marker}\n"), 2, 1),
        (
            format!(
                "pub struct Shard;\n\n{marker}\nimpl Shard {{\n    pub fn step(&self) {{}}\n}}\n"
            ),
            3,
            1,
        ),
        (format!("pub fn step() {{}} {marker}\n"), 1, 18),
    ] {
        let diagnostics = lint_purity(&source);
        assert_eq!(
            triples(&diagnostics),
            vec![("bad-directive", line, col)],
            "a marker that starts no traversal must not make the rule vacuously pass:\n{source}"
        );
    }
    let other_rule = "// sdoh-lint: entry(no-panic, \"x\")\npub fn step() {}\n";
    assert_eq!(
        triples(&lint_purity(other_rule)),
        vec![("bad-directive", 1, 1)]
    );
}

#[test]
fn an_entry_that_is_also_a_pruning_boundary_is_a_bad_directive() {
    let source = "// sdoh-lint: entry(transitive-hot-path-purity, \"serves every query\")\n\
                  // sdoh-lint: allow(transitive-hot-path-purity, \"the miss path\")\n\
                  pub fn pump() -> Vec<u8> {\n    Vec::new()\n}\n";
    let diagnostics = lint_purity(source);
    assert_eq!(
        triples(&diagnostics),
        vec![("bad-directive", 1, 1)],
        "the traversal would check nothing from this entry"
    );
    assert!(
        diagnostics[0].message.contains("`pump`"),
        "{}",
        diagnostics[0].message
    );
}

/// Takes the inventory of fixtures laid out as a synthetic workspace (see
/// [`lint_graph_fixtures`]).
fn inventory_fixtures(files: &[(&str, &str)]) -> Inventory {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(rel, name)| {
            let path = fixture_dir().join(name);
            let source = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
            (rel.to_string(), source)
        })
        .collect();
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, source)| (rel.as_str(), source.as_str()))
        .collect();
    inventory_of(&refs)
}

/// The labels of both lists, `(unreached, test_only)`.
fn listed(inventory: &Inventory) -> (Vec<&str>, Vec<&str>) {
    fn labels(list: &[Listed]) -> Vec<&str> {
        list.iter().map(|l| l.label.as_str()).collect()
    }
    (labels(&inventory.unreached), labels(&inventory.test_only))
}

#[test]
fn inventory_lists_a_pub_fn_nothing_calls_as_unreached() {
    let inventory = inventory_fixtures(&[("crates/inv/src/lib.rs", "inventory_unreached.rs")]);
    assert_eq!(listed(&inventory), (vec!["inv::orphan"], vec![]));
    assert_eq!(inventory.unreached[0].line, 9);
}

#[test]
fn inventory_lists_a_fn_only_a_test_calls_as_test_only() {
    let inventory = inventory_fixtures(&[("crates/inv/src/lib.rs", "inventory_test_only.rs")]);
    assert_eq!(
        listed(&inventory),
        (vec![], vec!["inv::checked_only_by_tests"])
    );
}

#[test]
fn inventory_reaches_through_a_dyn_call_by_name() {
    let inventory = inventory_fixtures(&[("crates/inv/src/lib.rs", "inventory_dyn.rs")]);
    assert_eq!(
        listed(&inventory),
        (vec![], vec![]),
        "`Disk::flush` is one of the methods `store.flush()` may reach"
    );
    assert!(
        inventory.unknown_calls >= 1,
        "the dyn call is in the unknown bucket"
    );
}

#[test]
fn inventory_never_lists_a_trait_impl_method() {
    let inventory = inventory_fixtures(&[("crates/inv/src/lib.rs", "inventory_trait_impl.rs")]);
    assert_eq!(
        listed(&inventory),
        (vec![], vec![]),
        "`Drop::drop` is a root, and so is what it calls"
    );
}

#[test]
fn inventory_roots_every_name_the_benchmark_uses() {
    let inventory = inventory_fixtures(&[
        ("crates/inv/src/lib.rs", "inventory_benchmark_lib.rs"),
        ("benchmark/src/layers.rs", "inventory_benchmark_root.rs"),
    ]);
    assert_eq!(listed(&inventory), (vec![], vec![]));
    let alone = inventory_fixtures(&[("crates/inv/src/lib.rs", "inventory_benchmark_lib.rs")]);
    assert_eq!(listed(&alone), (vec!["inv::probe"], vec![]));
}

#[test]
fn inventory_roots_a_fn_pointer_in_a_static_table() {
    let inventory = inventory_fixtures(&[("crates/inv/src/lib.rs", "inventory_fn_pointer.rs")]);
    assert_eq!(listed(&inventory), (vec![], vec![]));
}

#[test]
fn sdoh_lint_is_clean_on_its_own_sources() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let vocab_source = std::fs::read_to_string(root.join(sdoh_lint::workspace::VOCABULARY_PATH))
        .expect("vocabulary module readable");
    let vocab = vocabulary_from_source(&vocab_source);
    assert!(!vocab.is_empty(), "vocabulary must not be empty");

    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&src_dir).expect("src dir readable") {
        let path = entry.expect("dir entry readable").path();
        if path.extension().map(|e| e == "rs") != Some(true) {
            continue;
        }
        let rel = format!(
            "crates/lint/src/{}",
            path.file_name().expect("file name").to_string_lossy()
        );
        let source = std::fs::read_to_string(&path).expect("source readable");
        let diagnostics = check_source(&rel, &source, &rules_for(&rel), &vocab);
        assert!(
            diagnostics.is_empty(),
            "sdoh-lint must hold itself to its own rules; found in {rel}: {diagnostics:?}"
        );
        checked += 1;
    }
    assert!(
        checked >= 9,
        "expected to self-check every module (including parser and graph), got {checked}"
    );
}
