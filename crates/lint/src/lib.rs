//! `sdoh-lint` — in-tree static analysis for the secure-DoH workspace.
//!
//! The stack's headline claims are *invariants*, not features: the serving
//! path is lock-free and allocation-free, chaos campaigns are
//! byte-identical per seed, and the security math must never silently
//! truncate. Nothing in rustc or clippy enforces any of that — a stray
//! `.lock()` or `Instant::now()` in the wrong crate would sail through CI.
//! This crate is the mechanical enforcement: a zero-dependency binary with
//! a small hand-written Rust lexer (comments, strings, raw strings,
//! lifetime-versus-char-literal disambiguation), an item-level parser that
//! is the **one detector** — it attributes every lock, allocation,
//! panicking construct and ambient clock / entropy read to the function
//! containing it — and six rules that each own one property. It runs over
//! every workspace `src/` tree in the CI `lint` job. The full catalogue —
//! motivation, allow scoping and known false-negative limits per rule —
//! lives in `crates/lint/RULES.md`.
//!
//! # Per-file rules
//!
//! | rule | scope | what it bans |
//! |------|-------|--------------|
//! | `no-panic` | all library code | `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`, `[i]` indexing in any function body (the parser's panic facts) — library code returns errors; a panic on a socket thread or the timer ends that thread for good |
//! | `no-narrowing-cast` | all library code | bare `as` to `u8`/`u16`/`u32`/`u64`/`usize`/`i8`/`i16`/`i32`/`i64`/`isize`/`f32` — the family behind two real bugs: the `as u32` divisor truncation in the former `ResolverMetrics`' mean generation latency (fixed in PR 2) and the `attempts as i32` wrap in `SpoofStrategy::success_probability` (fixed in PR 4). `f64`/`u128`/`i128` targets are exempt: nothing in the workspace is wider |
//! | `metrics-vocabulary` | everywhere except the vocabulary itself | `sdoh_*` metric-name string literals that are not in the shared vocabulary tables in `crates/core/src/serve/samples.rs` — so exporters, the registry, experiments and docs cannot drift apart on names |
//!
//! # Call-graph rules
//!
//! The three transitive rules share one whole-workspace call graph built
//! from the same parse: per-function facts and call sites, resolved
//! through `use` imports, `self`/typed-parameter/`let`-bound receivers,
//! and a conservative by-name pass scoped to the caller's crate and
//! imports. Unresolvable calls land in a counted *unknown bucket*, dumped
//! with `--emit-callgraph` — never silently dropped. Each rule starts at
//! its *entries*: for `transitive-hot-path-purity` the functions marked
//! `// sdoh-lint: entry(transitive-hot-path-purity, "<why>")` where they
//! are defined, for `transitive-determinism` every function of the crates
//! [`workspace::graph_config`] names.
//!
//! | rule | what it bans |
//! |------|--------------|
//! | `transitive-hot-path-purity` | `.lock()`, `Box::new`, `Vec::new`, `vec!`, `.to_vec()`, `format!`, `.collect()` *reachable* from the marked serving entry points — the serving path must stay lock-free and allocation-free; the diagnostic carries the full call chain |
//! | `transitive-determinism` | `Instant::now()`, `SystemTime::now()`, `OsRng`, `thread_rng`, `from_entropy`, `getrandom` in, or reachable from, any non-test function of `netsim`, `chaos`, `core`, `dns-server`, `doh`, `ntp`, `bench`, `analysis` and the umbrella `secure-doh` — sim-facing crates take time and entropy from seeded handles only, so campaigns and experiment reports stay byte-identical per seed; the wall clock is a `runtime`-only privilege |
//! | `lock-order` | cycles in the ordered lock-acquisition graph of the control plane — each cycle is reported once, with every conflicting ordering and both witnesses |
//!
//! The same graph yields the [`inventory`]: every non-test function no
//! root (a `main`, an example, the benchmark, the `EXPERIMENTS` table)
//! reaches, and every one only tests reach. It is a list to act on, not a
//! rule, and never changes the exit code.
//!
//! A standalone allow directive for a transitive rule above a function is
//! a *pruning boundary*: the traversal stops there, so one directive
//! documents a whole cold-path cone (the coalesced miss path, control
//! probes, the v0 wire codec). No construct is reported by two rules, so
//! no site ever needs two directives. An entry marker that marks no
//! non-test function, or one on a pruning boundary of its own rule, is
//! itself a diagnostic, so no marker can make the rule vacuously pass;
//! `cargo test -p sdoh-lint --test serving_cone -- --nocapture` prints
//! every function the entries reach.
//!
//! Test code (`#[cfg(test)]` items, `#[test]`/`#[bench]`/`#[should_panic]`
//! functions) is exempt from every rule except the directive checks:
//! panicking asserts, wall-clock timeouts and scratch metric names are all
//! legitimate in tests. `crates/compat/**` (vendored dependency stand-ins)
//! and `crates/bench` (the attended experiment harness; vocabulary rule
//! still applies) are exempt by configuration — see
//! [`workspace::rules_for`].
//!
//! # The escape hatch
//!
//! A violation that is *correct* — an allocation a serving entry point
//! reaches only on the control plane, an `expect` whose invariant genuinely
//! cannot fail — is allowlisted in place, with a reason:
//!
//! ```text
//! let shard = table.lookup(key); // sdoh-lint: allow(no-panic, "table is built covering every key")
//!
//! // sdoh-lint: allow(transitive-hot-path-purity, "the miss path: at most one generation per question and TTL window")
//! fn pump(&mut self) -> Option<SimInstant> { ... }
//! ```
//!
//! A directive trailing code suppresses that line only; a directive on its
//! own line suppresses the item that follows (through its braced body or
//! terminating `;`). An allow that suppresses nothing is itself an error
//! (`unused-allow`), and a malformed or unknown directive is an error
//! (`bad-directive`) — the allowlist cannot silently rot.
//!
//! # Running it
//!
//! ```text
//! cargo run -p sdoh-lint                          # human output, exit 1 on findings
//! cargo run -p sdoh-lint -- --format json         # JSON report on stdout
//! cargo run -p sdoh-lint -- --out lint.json       # human output + JSON report file
//! cargo run -p sdoh-lint -- --rule lock-order     # one rule only (repeatable)
//! cargo run -p sdoh-lint -- --list-rules          # the rule catalogue
//! cargo run -p sdoh-lint -- --emit-callgraph g.json  # dump the call graph and the inventory
//! ```
//!
//! Exit codes: `0` clean, `1` diagnostics found, `2` internal error.
//! Scanning fans out over a scoped thread pool; the report is sorted by
//! `(file, line, col, rule)`, so output is deterministic regardless of
//! thread scheduling.
//!
//! The CI `lint` job runs the binary on every push and uploads the JSON
//! report and the call-graph dump as workflow artifacts; a separate
//! nightly-toolchain `tsan` job runs the `sdoh-runtime` and `sdoh-core`
//! test suites under ThreadSanitizer (`-Zsanitizer=thread` with
//! `-Zbuild-std`), so the locks the `lock-order` rule reasons about are
//! also dynamically race-checked.

pub mod engine;
pub mod graph;
pub mod inventory;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod workspace;

pub use engine::{analyze_source, check_source};
pub use graph::{check_sources, inventory_of, GraphConfig};
pub use inventory::{Inventory, Listed};
pub use report::{render_human, render_json, Diagnostic, Report};
pub use rules::RuleId;
pub use workspace::{
    find_workspace_root, graph_config, lint_workspace_with, rules_for, source_files,
    vocabulary_from_source, LintOptions,
};
