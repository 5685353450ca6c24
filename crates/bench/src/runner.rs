//! `sdoh-exp`: the one command line over the experiment index — one
//! argument parser, one date stamp, one report envelope, one exit code.

use sdoh_chaos::json_string;

use crate::experiments::{Experiment, Run, EXPERIMENTS};

/// A validated command line.
#[derive(Debug)]
pub struct Invocation {
    /// The experiments to run, in index order.
    pub experiments: &'static [Experiment],
    /// `--smoke`.
    pub smoke: bool,
    /// `--seed N`; each experiment's default otherwise.
    pub seed: Option<u64>,
    /// `--out PATH`.
    pub out: Option<String>,
}

/// Parses `sdoh-exp`'s arguments (without the program name). A flag the
/// selection could not honour is an error, never a silent default.
///
/// # Errors
///
/// What is wrong with the command line, for the usage message.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut args = args.iter();
    let name = args.next().ok_or("no experiment named")?;
    let experiments = if name == "all" {
        EXPERIMENTS
    } else {
        let found = EXPERIMENTS.iter().find(|e| e.name == name);
        std::slice::from_ref(found.ok_or_else(|| format!("unknown experiment: {name}"))?)
    };
    let (mut smoke, mut seed, mut out) = (false, None, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                let parsed = value.parse::<u64>();
                seed = Some(parsed.map_err(|_| format!("--seed {value}: not a u64"))?);
            }
            "--out" => out = Some(args.next().ok_or("--out needs a path")?.clone()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if let [one] = experiments {
        if out.is_some() && !one.reports {
            return Err(format!("--out: {name} writes no report"));
        }
        if seed.is_some() && one.seed.is_none() {
            return Err(format!("--seed: {name} draws nothing"));
        }
    } else if out.is_some() {
        return Err("--out needs one experiment, not all".to_string());
    }
    Ok(Invocation {
        experiments,
        smoke,
        seed,
        out,
    })
}

const SYNOPSIS: &str = "\
usage: sdoh-exp <name>|all [--smoke] [--seed N] [--out PATH]
  --smoke     the reduced scale CI runs (E1-E10 have one scale)
  --seed N    instead of the experiment's default seed
  --out PATH  write the report (one experiment, marked *)
experiments (id, name, default seed):
";

/// The usage text: the synopsis and the experiment index.
pub fn usage() -> String {
    let mut text = String::from(SYNOPSIS);
    for e in EXPERIMENTS {
        let seed = e.seed.map_or("-".to_string(), |seed| seed.to_string());
        let mark = if e.reports { " *" } else { "" };
        text.push_str(&format!("  {:<4} {:<19} {seed}{mark}\n", e.id, e.name));
    }
    text
}

/// The report document: the header every `BENCH_<name>.json` opens with,
/// then the experiment's own members.
pub fn envelope(name: &str, recorded: &str, notes: &str, body: &str) -> String {
    format!(
        "{{\n  \"benchmark\": {},\n  \"recorded\": {},\n  \"notes\": {},\n{body}}}\n",
        json_string(name),
        json_string(recorded),
        json_string(notes)
    )
}

/// Runs `sdoh-exp` over `args` (without the program name) and returns its
/// exit code: 2 for a bad command line, 1 if any experiment reported a
/// failure or its report could not be written, 0 otherwise.
pub fn main(args: &[String]) -> i32 {
    let invocation = match parse(args) {
        Ok(invocation) => invocation,
        Err(error) => {
            eprint!("sdoh-exp: {error}\n{}", usage());
            return 2;
        }
    };
    // Date stamp of every report; overridable for reproducible output.
    let recorded =
        std::env::var("BENCH_RECORDED_DATE").unwrap_or_else(|_| "unrecorded".to_string());
    let mut code = 0;
    for experiment in invocation.experiments {
        let outcome = (experiment.run)(&Run {
            smoke: invocation.smoke,
            seed: invocation.seed.or(experiment.seed).unwrap_or_default(),
            recorded: &recorded,
        });
        for table in &outcome.tables {
            println!("{table}");
        }
        for failure in &outcome.failures {
            eprintln!("{}: {failure}", experiment.name);
            code = 1;
        }
        if let (Some(path), Some((notes, body))) = (&invocation.out, &outcome.report) {
            match std::fs::write(path, envelope(experiment.name, &recorded, notes, body)) {
                Ok(()) => println!("wrote {path}"),
                Err(error) => {
                    eprintln!("sdoh-exp: cannot write {path}: {error}");
                    code = 1;
                }
            }
        }
    }
    code
}

/// Whether `json` is balanced outside its strings and every string is
/// closed on its own line: what a report writer's quoting can get wrong.
#[cfg(test)]
pub(crate) fn well_formed(json: &str) -> bool {
    let mut open = Vec::new();
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        match c {
            '{' | '[' => open.push(c),
            '}' if open.pop() != Some('{') => return false,
            ']' if open.pop() != Some('[') => return false,
            '"' => loop {
                match chars.next() {
                    Some('\\') => drop(chars.next()),
                    Some('"') => break,
                    Some(c) if u32::from(c) >= 0x20 => {}
                    _ => return false,
                }
            },
            _ => {}
        }
    }
    open.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn command_lines_are_validated() {
        for (line, complaint) in [
            ("", "no experiment"),
            ("time_sinc", "unknown experiment"),
            ("time_sync --smok", "unknown flag"),
            ("time_sync --smoke --out", "--out needs a path"),
            ("chaos --seed", "--seed needs a value"),
            ("chaos --smoke --seed 4x", "not a u64"),
            ("chaos --seed -1", "not a u64"),
            ("fig1 --out f.json", "writes no report"),
            ("all --out f.json", "not all"),
            ("dualstack --seed 3", "draws nothing"),
        ] {
            let error = parse_line(line).expect_err(line);
            assert!(error.contains(complaint), "{line}: {error}");
        }

        let one = parse_line("chaos --seed 7 --smoke --out BENCH_chaos.json").unwrap();
        assert_eq!(one.experiments.len(), 1);
        assert_eq!(one.experiments[0].id, "E15");
        assert_eq!(
            (one.smoke, one.seed, one.out.as_deref()),
            (true, Some(7), Some("BENCH_chaos.json"))
        );
        let plain = parse_line("fig1").unwrap();
        assert_eq!(plain.experiments[0].name, "fig1");
        assert_eq!((plain.smoke, plain.seed, plain.out), (false, None, None));
        let all = parse_line("all --smoke --seed 3").unwrap();
        assert_eq!(all.experiments.len(), EXPERIMENTS.len());
        assert_eq!((all.smoke, all.seed), (true, Some(3)));
    }

    #[test]
    fn the_index_names_every_module_once_and_the_usage_lists_it() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let mut modules: Vec<String> = std::fs::read_dir(dir)
            .expect(dir)
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter_map(|file| Some(file.strip_suffix(".rs")?.to_string()))
            .filter(|module| module != "mod")
            .collect();
        modules.sort_unstable();
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        assert_eq!(names, modules, "one row per module of experiments/");
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "ids are unique");
        let usage = usage();
        for e in EXPERIMENTS {
            let listed = |line: &str| line.contains(e.id) && line.contains(e.name);
            assert!(usage.lines().any(listed), "{} is listed", e.name);
        }
    }

    #[test]
    fn notes_are_escaped_and_plain_notes_are_pasted_as_they_were() {
        let hostile = envelope("chaos", "a\"b", "say \"x\\y\"\nthen {", "  \"k\": []\n");
        assert!(well_formed(&hostile), "{hostile}");
        assert!(hostile.contains(r#""notes": "say \"x\\y\"\nthen {","#));
        assert!(!well_formed(
            "{\n  \"notes\": \"say \"x\\y\"\nthen {\",\n}\n"
        ));
        assert_eq!(
            envelope(
                "time_sync",
                "2026-01-01",
                "E13: plain.",
                "  \"matrix\": [\n  ]\n"
            ),
            "{\n  \"benchmark\": \"time_sync\",\n  \"recorded\": \"2026-01-01\",\n  \
             \"notes\": \"E13: plain.\",\n  \"matrix\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn every_report_is_well_formed_and_opens_with_the_header() {
        for experiment in EXPERIMENTS.iter().filter(|e| e.reports) {
            let outcome = (experiment.run)(&Run {
                smoke: true,
                seed: experiment.seed.unwrap_or_default(),
                recorded: "test",
            });
            assert_eq!(
                outcome.failures,
                Vec::<String>::new(),
                "{}",
                experiment.name
            );
            let (notes, body) = outcome.report.expect(experiment.name);
            let json = envelope(experiment.name, "test", &notes, &body);
            assert!(well_formed(&json), "{json}");
            let header = format!(
                "{{\n  \"benchmark\": \"{}\",\n  \"recorded\": \"test\",\n  \"notes\": \"{}",
                experiment.name, experiment.id
            );
            assert!(json.starts_with(&header), "{json}");
        }
    }
}
