//! The two ways to run: one workload in this process (`run`, what the
//! benchmark contract calls), or every workload, each in a child process
//! of its own, merged into `benchmark/out/results.json` (`all`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::layers;
use crate::measure::{self, Metric, Outcome};
use crate::procfs::nproc;
use crate::sys::pin_to_one_cpu;
use crate::workload::Workload;

/// Measured seconds per run of `all` when `BENCHMARK.json` is not there
/// to say (`run_seconds`).
const DEFAULT_SECONDS: f64 = 25.0;
const SMOKE_SECONDS: f64 = 1.0;

/// `--flag value` pairs and bare `--flag`s.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {flag}: {v:?}"))
            })
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn metrics_json(metrics: &[Metric], with_slices: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", Json::Num(m.summary.median)),
            ("unit", Json::str(m.unit)),
        ];
        if with_slices {
            fields.push(("min", Json::Num(m.summary.min)));
            fields.push(("max", Json::Num(m.summary.max)));
            fields.push(("slices", Json::nums(&m.summary.slices)));
        }
        (m.name, Json::obj(fields))
    }))
}

/// The result object of the contract; with `detail`, every round of every
/// metric and the diagnostics as well.
fn outcome_json(outcome: &Outcome, detail: bool) -> Json {
    let mut fields = vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics, detail)),
    ];
    if detail {
        fields.push(("diagnostics", metrics_json(&outcome.diagnostics, true)));
    }
    Json::obj(fields)
}

/// `pool-bench run`: one workload, one pass, the result object as the
/// last line of standard output.
pub fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    let name = flags.value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let out_dir = PathBuf::from(flags.value("--out-dir").unwrap_or("benchmark/out"));

    // Before any thread starts, so that every one of them inherits it; the
    // count of cores is taken first.
    let cores = nproc();
    let cpu = pin_to_one_cpu();

    let outcome = if trace {
        layers::traced(workload, seed, seconds, &out_dir)
    } else {
        measure::end_to_end(workload, seed, seconds)
    }
    .map_err(|e| format!("{name}: {e}"))?;

    println!(
        "{name} seed={seed} seconds={seconds} trace={} nproc={} pinned_to_cpu={}",
        u8::from(trace),
        cores,
        cpu.map_or("none".to_string(), |cpu| cpu.to_string())
    );
    for m in outcome.metrics.iter().chain(&outcome.diagnostics) {
        if m.summary.slices.len() > 1 {
            println!(
                "  {:<44} {:>14.4} {:<6} ({:.4} .. {:.4} over {})",
                m.name,
                m.summary.median,
                m.unit,
                m.summary.min,
                m.summary.max,
                m.summary.slices.len()
            );
        } else {
            println!("  {:<44} {:>14.4} {}", m.name, m.summary.median, m.unit);
        }
    }
    for problem in &outcome.problems {
        println!("  INCORRECT: {problem}");
    }
    if let Some(path) = flags.value("--detail") {
        std::fs::write(path, outcome_json(&outcome, true).render_pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome_json(&outcome, false).render());
    Ok(ExitCode::SUCCESS)
}

fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let detail = out.join(format!(
        "{}.{}.json",
        workload.name(),
        if trace { "layers" } else { "end_to_end" }
    ));
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out)
        .arg("--detail")
        .arg(&detail)
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit());
    let status = command.status().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "{} (trace {trace}) exited with {status}",
            workload.name()
        ));
    }
    let text =
        std::fs::read_to_string(&detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

/// `pool-bench all`: every workload in its own child process — peak RSS
/// and port state start fresh each time — in `Workload::ALL` order,
/// `wide_tcp` last.
pub fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let smoke = flags.has("--smoke");
    let out = PathBuf::from(flags.value("--out-dir").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let seconds = if smoke {
        SMOKE_SECONDS
    } else {
        std::fs::read_to_string("BENCHMARK.json")
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| doc.get("run_seconds")?.as_f64())
            .unwrap_or(DEFAULT_SECONDS)
    };

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        println!("== {}: {}", workload.name(), workload.why());
        let end_to_end = child(workload, seed, seconds, false, &out)?;
        let per_layer = child(workload, seed, seconds, true, &out)?;
        for pass in [&end_to_end, &per_layer] {
            all_correct &= pass.get("correct").and_then(Json::as_bool) == Some(true);
        }
        workloads.push((
            workload.name(),
            Json::obj([("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::Num(nproc() as f64)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("pool-bench: at least one pass was incorrect; see the INCORRECT lines above");
        ExitCode::FAILURE
    })
}
