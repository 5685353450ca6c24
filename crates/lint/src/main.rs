//! The `sdoh-lint` binary: lint the workspace, print a report, exit
//! nonzero on findings. See the crate docs for the rule catalogue.
//!
//! Exit codes: `0` clean, `1` diagnostics found, `2` internal error
//! (unreadable workspace, bad arguments, unwritable output file).

use std::path::PathBuf;
use std::process::ExitCode;

use sdoh_lint::{
    find_workspace_root, lint_workspace_with, render_human, render_json, LintOptions, RuleId,
};

struct Options {
    root: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
    rules: Vec<RuleId>,
    callgraph: Option<PathBuf>,
    list_rules: bool,
}

const USAGE: &str = "usage: sdoh-lint [--root <dir>] [--format human|json] [--out <file>] [--rule <name>]... [--emit-callgraph <file>] [--list-rules]\n\
  --root <dir>            workspace root (default: nearest ancestor with [workspace])\n\
  --format human|json     report format on stdout (default: human)\n\
  --out <file>            additionally write the JSON report to <file>\n\
  --rule <name>           run only this rule (repeatable; default: all rules)\n\
  --emit-callgraph <file> write the workspace call graph and the inventory as JSON to <file>\n\
  --list-rules            print the rule catalogue and exit\n\
\n\
exit codes: 0 clean, 1 diagnostics found, 2 internal error";

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        root: None,
        json: false,
        out: None,
        rules: Vec::new(),
        callgraph: None,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let value = args.next().ok_or("--root needs a value")?;
                options.root = Some(PathBuf::from(value));
            }
            "--format" => match args.next().as_deref() {
                Some("human") => options.json = false,
                Some("json") => options.json = true,
                other => return Err(format!("--format needs `human` or `json`, got {other:?}")),
            },
            "--out" => {
                let value = args.next().ok_or("--out needs a value")?;
                options.out = Some(PathBuf::from(value));
            }
            "--rule" => {
                let value = args.next().ok_or("--rule needs a rule name")?;
                let rule = RuleId::from_name(&value).ok_or_else(|| {
                    format!(
                        "unknown rule `{value}` (known rules: {})",
                        RuleId::ALL.map(|r| r.name()).join(", ")
                    )
                })?;
                options.rules.push(rule);
            }
            "--emit-callgraph" => {
                let value = args.next().ok_or("--emit-callgraph needs a value")?;
                options.callgraph = Some(PathBuf::from(value));
            }
            "--list-rules" => options.list_rules = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(options)
}

fn run() -> Result<bool, String> {
    let options = parse_args()?;
    if options.list_rules {
        for rule in RuleId::ALL {
            println!("{:<28} {}", rule.name(), rule.describe());
        }
        return Ok(true);
    }
    let root = match options.root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml found above the current directory")?
        }
    };
    let lint_options = LintOptions {
        rule_filter: (!options.rules.is_empty()).then(|| options.rules.clone()),
        emit_callgraph: options.callgraph.is_some(),
    };
    let report = lint_workspace_with(&root, &lint_options)?;
    if options.json {
        print!("{}", render_json(&report));
    } else {
        print!("{}", render_human(&report));
    }
    if let Some(out_path) = options.out {
        std::fs::write(&out_path, render_json(&report))
            .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    }
    if let (Some(path), Some(callgraph)) = (options.callgraph, &report.callgraph) {
        std::fs::write(&path, callgraph)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sdoh-lint: {message}");
            ExitCode::from(2)
        }
    }
}
