//! Golden-file guard over `sdoh-runtime`'s public API surface.
//!
//! Scans every `src/**/*.rs` file for `pub` item declarations (functions,
//! types, traits, re-exports, fields — `pub(crate)`/`pub(super)` are
//! excluded by construction) and compares the sorted listing against
//! `tests/public_api.txt`. An API change — adding, removing or re-signing
//! anything `pub` — fails the lint gate until the golden file is updated
//! alongside it, which is exactly the review speed bump a public surface
//! deserves.
//!
//! Regenerate with `SDOH_UPDATE_PUBLIC_API=1 cargo test -p sdoh-runtime
//! --test public_api`.

use std::path::{Path, PathBuf};

/// Item keywords that open a `pub` declaration. Anything else after
/// `pub ` is a public struct field (`pub capacity: usize`), which is
/// part of the surface too.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "async", "unsafe", "const", "static", "struct", "enum", "union", "trait", "type", "use",
    "mod",
];

fn manifest_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// Walks `dir` in sorted order, scanning every `.rs` file.
fn collect(dir: &Path, relative: &str, out: &mut Vec<String>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("readable source dir")
        .map(|entry| entry.expect("readable dir entry"))
        .collect();
    entries.sort_by_key(|entry| entry.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().into_string().expect("utf-8 file name");
        let rel = if relative.is_empty() {
            name.clone()
        } else {
            format!("{relative}/{name}")
        };
        if path.is_dir() {
            collect(&path, &rel, out);
        } else if name.ends_with(".rs") {
            scan(&path, &rel, out);
        }
    }
}

/// Extracts the `pub` declarations of one source file. The scan stops at
/// the test module (`#[cfg(test)]` above `mod tests`, as the line budget
/// finds it) — by repo convention the last item of a file, and nothing in
/// it is public API. A statement compiled only in tests does not stop it.
fn scan(path: &Path, rel: &str, out: &mut Vec<String>) {
    let source = std::fs::read_to_string(path).expect("readable source file");
    let mut test_only = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if test_only && trimmed.starts_with("mod tests") {
            break;
        }
        test_only = trimmed == "#[cfg(test)]";
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let first = rest.split_whitespace().next().unwrap_or("");
        let is_item = ITEM_KEYWORDS.contains(&first);
        let is_field = !is_item && first.contains(':');
        if !is_item && !is_field {
            continue;
        }
        // Normalize to the declaration head: everything before a body.
        let head = trimmed.split('{').next().unwrap_or(trimmed).trim_end();
        out.push(format!("{rel}: {head}"));
    }
}

#[test]
fn public_api_matches_golden_file() {
    let mut surface = Vec::new();
    collect(&manifest_path("src"), "", &mut surface);
    surface.sort();
    surface.dedup();
    let actual = surface.join("\n") + "\n";

    let golden_path = manifest_path("tests/public_api.txt");
    if std::env::var_os("SDOH_UPDATE_PUBLIC_API").is_some() {
        std::fs::write(&golden_path, &actual).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual == golden {
        return;
    }

    let actual_lines: std::collections::BTreeSet<&str> = actual.lines().collect();
    let golden_lines: std::collections::BTreeSet<&str> = golden.lines().collect();
    let mut report = String::new();
    for added in actual_lines.difference(&golden_lines) {
        report.push_str(&format!("  + {added}\n"));
    }
    for removed in golden_lines.difference(&actual_lines) {
        report.push_str(&format!("  - {removed}\n"));
    }
    panic!(
        "the public API surface diverged from tests/public_api.txt:\n{report}\
         If the change is intentional, regenerate the golden file with\n\
         SDOH_UPDATE_PUBLIC_API=1 cargo test -p sdoh-runtime --test public_api"
    );
}
