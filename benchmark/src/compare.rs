//! `pool-bench compare <a.json> <b.json>`: applies the per-metric bounds
//! of `BENCHMARK.json` to two result files, `a` the baseline.

use std::process::ExitCode;

use crate::json::Json;
use crate::stats::percentile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// One side's median is itself uncertain by more than the bound: the
    /// medians cannot tell a change of that size from noise.
    Unresolved,
    Regression,
}

/// One metric in a results file: the median of its rounds (or set-ups),
/// their first and third quartile, and how many there were. On a shared
/// host some rounds are always hit by a stall, so the spread a verdict rests
/// on is the interquartile range, as the driver's is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub low: f64,
    pub high: f64,
    pub rounds: usize,
}

impl Reading {
    pub fn of(value: f64, slices: &[f64]) -> Reading {
        let mut sorted = slices.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (low, high) = match sorted.len() {
            0 => (value, value),
            // Too few for quartiles to mean anything: the whole range.
            1..=3 => (sorted[0], sorted[sorted.len() - 1]),
            _ => (percentile(&sorted, 0.25), percentile(&sorted, 0.75)),
        };
        Reading {
            value,
            low,
            high,
            rounds: sorted.len(),
        }
    }

    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.high - self.low) / self.value.abs()
        }
    }

    /// How uncertain the median of that many rounds is, as a share of it:
    /// their spread over the square root of their number. One results file
    /// holds one run, so this stands in for the spread between runs, which
    /// it cannot be larger than.
    fn uncertainty(&self) -> f64 {
        self.spread() / (self.rounds.max(1) as f64).sqrt()
    }
}

/// By what share of `a` the reading `b` is worse (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

pub fn judge(a: Reading, b: Reading, lower_is_better: bool, bound: f64) -> Verdict {
    if a.uncertainty() > bound || b.uncertainty() > bound {
        Verdict::Unresolved
    } else if worsening(a.value, b.value, lower_is_better) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn pass<'a>(results: &'a Json, workload: &str) -> Option<&'a Json> {
    results.get("workloads")?.get(workload)?.get("end_to_end")
}

fn reading(pass: &Json, metric: &str) -> Option<Reading> {
    let m = pass.get("metrics")?.get(metric)?;
    let slices: Vec<f64> = m
        .get("slices")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some(Reading::of(m.get("value")?.as_f64()?, &slices))
}

fn fail_ratio(pass: &Json) -> Option<f64> {
    Some(pass.get("failed")?.as_f64()? / pass.get("attempted")?.as_f64()?.max(1.0))
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--benchmark" {
            benchmark = iter.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            paths.push(arg.as_str());
        }
    }
    let [a_path, b_path] = paths[..] else {
        return Err("usage: pool-bench compare <a.json> <b.json> [--benchmark <file>]".into());
    };
    let (a, b, contract) = (load(a_path)?, load(b_path)?, load(&benchmark)?);

    println!(
        "{:<12} {:<26} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "a-spread", "b", "b-spread", "worse", "bound"
    );
    let mut regressions = 0;
    for workload in contract.get("workloads").map_or(&[][..], Json::as_arr) {
        let Some(workload) = workload.get("name").and_then(Json::as_str) else {
            continue;
        };
        let (Some(pass_a), Some(pass_b)) = (pass(&a, workload), pass(&b, workload)) else {
            return Err(format!("{workload} is missing from one of the files"));
        };
        for metric in contract.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let field = |key: &str| metric.get(key).and_then(Json::as_str);
            let (Some(name), Some(better)) = (field("name"), field("better")) else {
                continue;
            };
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(ra), Some(rb)) = (reading(pass_a, name), reading(pass_b, name)) else {
                return Err(format!(
                    "{workload}/{name} is missing from one of the files"
                ));
            };
            let verdict = judge(ra, rb, better == "lower", bound);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{workload:<12} {name:<26} {:>12.4} {:>7.1}% {:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                ra.value,
                ra.spread() * 100.0,
                rb.value,
                rb.spread() * 100.0,
                worsening(ra.value, rb.value, better == "lower") * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        // Failures have no bound: any increase is a regression.
        let (fa, fb) = (fail_ratio(pass_a), fail_ratio(pass_b));
        let worse = fb > fa || pass_b.get("correct").and_then(Json::as_bool) != Some(true);
        regressions += usize::from(worse);
        println!(
            "{workload:<12} {:<26} {:>12.6} {:>8} {:>12.6} {:>8} {:>8} {:>6}  {}",
            "fail_ratio",
            fa.unwrap_or(f64::NAN),
            "",
            fb.unwrap_or(f64::NAN),
            "",
            "",
            "any",
            if worse { "REGRESSION" } else { "ok" }
        );
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("pool-bench compare: {regressions} regression(s)");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Reading {
        Reading {
            value,
            low: value * 0.99,
            high: value * 1.01,
            rounds: 4,
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 112.0, true) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 88.0, false) - 0.12).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, true) < 0.0);
        assert!(worsening(100.0, 110.0, false) < 0.0);
        assert_eq!(worsening(0.0, 5.0, true), 0.0);
    }

    #[test]
    fn spread_is_the_interquartile_range_of_the_rounds() {
        let r = Reading::of(100.0, &[100.0, 30.0, 98.0, 104.0, 500.0, 97.0, 101.0, 99.0]);
        assert_eq!((r.low, r.high, r.rounds), (97.0, 101.0, 8));
        assert!((r.spread() - 0.04).abs() < 1e-12);
        // Too few rounds for quartiles; none at all.
        assert_eq!(Reading::of(10.0, &[9.0, 12.0, 10.0]).spread(), 0.3);
        assert_eq!(Reading::of(10.0, &[]).spread(), 0.0);
    }

    #[test]
    fn verdicts() {
        // Within the bound either way.
        assert_eq!(judge(tight(100.0), tight(109.0), true, 0.10), Verdict::Ok);
        assert_eq!(judge(tight(100.0), tight(50.0), true, 0.10), Verdict::Ok);
        // Worse by more than the bound.
        assert_eq!(
            judge(tight(100.0), tight(111.0), true, 0.10),
            Verdict::Regression
        );
        assert_eq!(
            judge(tight(100.0), tight(89.0), false, 0.10),
            Verdict::Regression
        );
        // Four rounds spread by 30 %: their median is uncertain by 15 %.
        let noisy = Reading {
            value: 100.0,
            low: 80.0,
            high: 110.0,
            rounds: 4,
        };
        // The same spread over 46 rounds pins the median to 4 %.
        let many = Reading {
            rounds: 46,
            ..noisy
        };
        assert_eq!(judge(many, tight(105.0), true, 0.10), Verdict::Ok);
        assert_eq!(judge(noisy, tight(150.0), true, 0.10), Verdict::Unresolved);
        assert_eq!(judge(tight(100.0), noisy, true, 0.10), Verdict::Unresolved);
    }
}
