//! `pool-bench`: the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pool-bench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--detail <file>]
//! pool-bench all [--seed <n>] [--smoke]
//! pool-bench compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
//! ```

mod client;
mod compare;
mod deploy;
mod json;
mod layers;
mod measure;
mod procfs;
mod report;
mod stats;
mod sys;
mod trace;
mod verify;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("", &args[..]),
    };
    let result = match command {
        "run" => report::run_one(rest),
        "all" => report::run_all(rest),
        "compare" => compare::run(rest),
        _ => Err(format!(
            "usage: pool-bench run|all|compare ... (got {command:?}); see benchmark/README.md"
        )),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pool-bench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::json::Json;
    use crate::layers::PER_LAYER;
    use crate::measure::END_TO_END;
    use crate::workload::Workload;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_stay_inside_the_contract_charset() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} of {name}");
            assert!(matches!(better, "lower" | "higher"), "{name}: {better}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        assert!(!name_ok("has space") && !name_ok(".dot") && !name_ok("sl/ash"));
        assert!(Workload::ALL.iter().all(|w| name_ok(w.name())));
    }

    /// `BENCHMARK.json` is data, the tables in the code are what runs: the
    /// two must say the same.
    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |section: &str, keys: &[&str]| -> Vec<Vec<String>> {
            doc.get(section)
                .expect(section)
                .as_arr()
                .iter()
                .map(|entry| {
                    keys.iter()
                        .map(|k| entry.get(k).and_then(Json::as_str).expect(k).to_string())
                        .collect()
                })
                .collect()
        };
        let table = |rows: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            rows.iter()
                .map(|&(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
                .collect()
        };
        assert_eq!(
            listed("end_to_end", &["name", "unit", "better"]),
            table(END_TO_END)
        );
        assert_eq!(
            listed("per_layer", &["name", "unit", "better"]),
            table(PER_LAYER)
        );
        let workloads: Vec<Vec<String>> = Workload::ALL
            .iter()
            .map(|w| vec![w.name().to_string(), w.why().to_string()])
            .collect();
        assert_eq!(listed("workloads", &["name", "why"]), workloads);
        for metric in doc.get("end_to_end").expect("end_to_end").as_arr() {
            let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }
}
