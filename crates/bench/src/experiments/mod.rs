//! One module per experiment, and the index of them all: [`EXPERIMENTS`],
//! the table `sdoh-exp` runs from. A row declares an experiment — id, name,
//! default seed, whether it writes a report — and its `run` picks the smoke
//! or the full scale and returns what the runner prints and writes.

pub mod attack_probability;
pub mod chaos;
pub mod chronos_timeshift;
pub mod dualstack;
pub mod empty_answer;
pub mod fig1;
pub mod majority;
pub mod offpath;
pub mod offpath_poisoning;
pub mod overhead;
pub mod required_fraction;
pub mod time_sync;
pub mod truncation;

use std::net::IpAddr;

use sdoh_analysis::Table;
use sdoh_netsim::{OffPathSpoofer, SimAddr, SpoofStrategy};
use secure_doh::wire::{Message, MessageBuilder, Name};

/// What one invocation of the runner asks of an experiment.
pub struct Run<'a> {
    /// The reduced scale CI runs, not the full one.
    pub smoke: bool,
    /// `--seed`, or the experiment's default.
    pub seed: u64,
    /// The runner's date stamp, for a body that repeats it (E15's campaigns).
    pub recorded: &'a str,
}

/// What an experiment hands back to the runner.
#[derive(Default)]
pub struct Outcome {
    /// Printed on standard output, in order.
    pub tables: Vec<Table>,
    /// `notes` and the body (the members after the runner's header) of the
    /// report `--out` writes, if the experiment writes one.
    pub report: Option<(String, String)>,
    /// Findings that fail the run (exit 1), one stderr message each, each
    /// ending in the command that reproduces it (E15 is the one experiment
    /// that reports any).
    pub failures: Vec<String>,
}

/// One row of the experiment index.
#[derive(Debug)]
pub struct Experiment {
    /// Index id, `E13`.
    pub id: &'static str,
    /// Name on the command line, in `BENCH_<name>.json` and of its module.
    pub name: &'static str,
    /// Default seed; `None` for an experiment that draws nothing.
    pub seed: Option<u64>,
    /// Whether `run` returns a report (`--out` is an error otherwise).
    pub reports: bool,
    /// Runs the experiment at the asked scale and seed.
    pub run: fn(&Run) -> Outcome,
}

const fn exp(
    id: &'static str,
    name: &'static str,
    seed: Option<u64>,
    reports: bool,
    run: fn(&Run) -> Outcome,
) -> Experiment {
    Experiment {
        id,
        name,
        seed,
        reports,
        run,
    }
}

/// The experiment index, in id order: every experiment runs on the seeded
/// simulator, in simulated time. E1-E10 have one scale. E11 and E12
/// measured serving cost, which is `pool-bench`'s (`benchmark/`); E16 never
/// was an experiment. E17 and E18 measured the threaded runtime in host
/// time; `sdoh-runtime`'s `observability` and `loopback_e2e` tests assert
/// their claims.
pub static EXPERIMENTS: &[Experiment] = &[
    exp("E1", "fig1", Some(42), false, e1),
    exp("E2", "required_fraction", None, false, e2),
    exp("E3", "attack_probability", None, false, e3),
    exp("E4", "offpath", Some(11), false, e4),
    exp("E5", "chronos_timeshift", Some(5), false, e5),
    exp("E6", "truncation", Some(3), false, e6),
    exp("E7", "empty_answer", Some(9), false, e7),
    exp("E8", "overhead", Some(13), false, e8),
    exp("E9", "majority", Some(17), false, e9),
    exp("E10", "dualstack", None, false, e10),
    exp("E13", "time_sync", Some(13), true, e13),
    exp("E14", "offpath_poisoning", Some(14), true, e14),
    exp("E15", "chaos", Some(42), true, e15),
];

/// How a report's notes say where to get the file again.
fn reproduce(name: &str, flags: &str) -> String {
    format!("cargo run --release -p sdoh-bench --bin sdoh-exp -- {name}{flags}")
}

fn tables(tables: impl IntoIterator<Item = Table>) -> Outcome {
    Outcome {
        tables: tables.into_iter().collect(),
        ..Outcome::default()
    }
}

fn e1(run: &Run) -> Outcome {
    tables(fig1::run(run.seed))
}

fn e2(_: &Run) -> Outcome {
    tables([required_fraction::run(&[3, 5, 7, 15], 4, 0.5)])
}

fn e3(_: &Run) -> Outcome {
    tables(attack_probability::run())
}

fn e4(run: &Run) -> Outcome {
    tables([offpath::run(&[0.1, 0.25, 0.5, 0.75, 1.0], 40, run.seed)])
}

fn e5(run: &Run) -> Outcome {
    tables([chronos_timeshift::run(1000.0, run.seed)])
}

fn e6(run: &Run) -> Outcome {
    tables([truncation::run(&[2, 4, 8, 16, 32], run.seed)])
}

fn e7(run: &Run) -> Outcome {
    tables([empty_answer::run(&[3, 5, 7], run.seed)])
}

fn e8(run: &Run) -> Outcome {
    tables([overhead::run(&[1, 2, 3, 4, 5, 8, 12, 16], run.seed)])
}

fn e9(run: &Run) -> Outcome {
    tables([majority::run(3, run.seed), majority::run(5, run.seed + 2)])
}

fn e10(_: &Run) -> Outcome {
    tables([dualstack::run()])
}

fn e13(run: &Run) -> Outcome {
    let attacks = if run.smoke {
        time_sync::smoke_matrix()
    } else {
        time_sync::full_matrix()
    };
    let shift = 1000.0;
    let (table, cells) = time_sync::run(&attacks, shift, run.seed);
    let notes = format!(
        "E13: adversary (compromised DoH resolvers x off-path Do53 spoofer) x client \
         (plain SNTP, full-pool NTP, Chronos via SecureTimeClient) x pool source (single \
         resolver, distributed consensus, cached consensus front end), {} s attacker time \
         servers, one synchronization per cell ({}). Every cell's pool is checked against \
         ground truth (check_guarantee, x = 1/2) and the clock error is \
         LocalClock::offset_from_true after the sync. Reproduce with: {}",
        shift,
        if run.smoke {
            "smoke scale"
        } else {
            "full matrix"
        },
        reproduce("time_sync", " --out BENCH_time_sync.json")
    );
    Outcome {
        report: Some((notes, time_sync::report_body(&cells))),
        ..tables([table])
    }
}

fn e14(run: &Run) -> Outcome {
    let (attempts, trials): (&[u32], u64) = if run.smoke {
        (&[1, 65_536], 10)
    } else {
        (&[1, 256, 6_554, 65_536], 60)
    };
    let (sweep_table, sweep) = offpath_poisoning::run_sweep(attempts, trials, run.seed);
    let shift = 1000.0;
    let (capture_table, capture) = offpath_poisoning::run_capture(shift, run.seed);
    let notes = format!(
        "E14: Kaminsky-style birthday attacker racing forged responses against the \
         recursive resolver's plain Do53 upstream legs. Sweep: defense gradient (none / \
         random TXID / +random port / +0x20 / +bailiwick) x forged packets per query, \
         {trials} trials per cell, measured capture rate vs. the analytical birthday \
         probability over 3 raced legs. Capture: the same attacker (16-packet referral \
         forgeries, {shift} s attacker time servers) against the weak single-resolver \
         pipeline, the hardened one, and the cached DoH-consensus front end — pool \
         guarantee (x = 1/2) and LocalClock::offset_from_true after one sync. Reproduce \
         with: {}",
        reproduce("offpath_poisoning", " --out BENCH_offpath_poisoning.json")
    );
    Outcome {
        report: Some((notes, offpath_poisoning::report_body(&sweep, &capture))),
        ..tables([sweep_table, capture_table])
    }
}

/// E15 fails — each message ends in the command that reproduces it — when
/// the hardened campaign records a violation, the determinism self-check
/// fails, or the weak baseline finishes clean; the weak baseline's
/// violations are the expected detection result.
fn e15(run: &Run) -> Outcome {
    let seed = run.seed;
    let steps = if run.smoke {
        chaos::SMOKE_STEPS
    } else {
        chaos::FULL_STEPS
    };
    let (table, outcome) = chaos::run(seed, steps);
    let smoke = if run.smoke { " --smoke" } else { "" };
    let again = format!("sdoh-exp chaos --seed {seed}{smoke}");
    let mut failures = Vec::new();
    if !outcome.deterministic {
        failures.push(format!(
            "determinism self-check FAILED — two runs of seed {seed} diverged; \
             reproduce with: {again}"
        ));
    }
    if outcome.hardened.total_violations > 0 {
        let mut message = format!(
            "hardened campaign recorded {} invariant violation(s); reproduce with: {again}",
            outcome.hardened.total_violations
        );
        for violation in &outcome.hardened.violations {
            message.push_str(&format!(
                "\n  step {:06} {}: {}",
                violation.step, violation.invariant, violation.detail
            ));
        }
        failures.push(message);
    }
    if outcome.weak.ready {
        failures.push(format!(
            "weak baseline finished clean — the monitor detected nothing, which means \
             the campaign is no longer adversarial; reproduce with: {again}"
        ));
    }
    let notes = format!(
        "E15: mixed-adversary chaos campaigns (loss/duplication/reordering/latency, \
         resolver partitions, churn and inflation-compromise, clock steps, time jumps, \
         drift, persistent off-path spoofer at {} attempts) over {} one-second steps, \
         seed {}. Hardened stack = full off-path defenses + caching consensus front \
         end + SecureTimeClient/Chronos; weak baseline = predictable-id ISP resolver \
         + single-resolver pool. Invariants checked every step: pool guarantee \
         (x = 1/2), post-sync clock offset, serve/net counter monotonicity, cache-age \
         horizon, workload accounting. Reproduce with: {}",
        chaos::SPOOFER_ATTEMPTS,
        steps,
        seed,
        reproduce("chaos", &format!(" --seed {seed} --out BENCH_chaos.json"))
    );
    Outcome {
        tables: vec![table],
        report: Some((notes, chaos::report_body(&outcome, run.recorded))),
        failures,
    }
}

/// Builds the off-path spoofing adversary used by the attack experiments:
/// it targets plain-DNS queries towards the given victims, forges answers
/// for address queries under `target_domain` and points them at
/// `attacker_addresses`, succeeding with probability `p` per query.
pub fn pool_spoofer(
    p: f64,
    victims: Vec<SimAddr>,
    target_domain: Name,
    attacker_addresses: Vec<IpAddr>,
) -> OffPathSpoofer {
    OffPathSpoofer::new(
        SpoofStrategy::FixedProbability(p),
        move |query_bytes, _rng| {
            let query = Message::decode(query_bytes).ok()?;
            let question = query.question()?;
            if !question.rtype.is_address() || !question.name.is_subdomain_of(&target_domain) {
                return None;
            }
            let mut builder = MessageBuilder::response_to(&query).recursion_available(true);
            for addr in &attacker_addresses {
                builder = builder.answer_address(300, *addr);
            }
            builder.build().encode().ok()
        },
    )
    .with_targets(victims)
}

/// Attacker address block shared by the experiments.
pub fn attacker_addresses(count: usize) -> Vec<IpAddr> {
    (1..=count)
        .map(|i| {
            IpAddr::V4(std::net::Ipv4Addr::new(
                198,
                18,
                (i / 250) as u8,
                (i % 250) as u8,
            ))
        })
        .collect()
}
