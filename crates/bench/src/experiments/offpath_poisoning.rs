//! E14 — off-path poisoning of the Do53 leg: the Kaminsky-style birthday
//! attacker versus the resolver defense gradient.
//!
//! Two parts:
//!
//! * **Sweep** — attack-success probability per defense configuration
//!   (none / random TXID / +random port / +0x20 / +bailiwick) × forgery
//!   budget (packets raced per query), measured over independent trials
//!   and compared to the analytical
//!   [`SpoofStrategy::success_probability`](sdoh_netsim::SpoofStrategy)
//!   prediction for the identifier entropy each defense level exposes.
//! * **Capture punchline** — the E13-style end-to-end consequence: the
//!   weak resolver feeding a [`SingleResolverPool`] gets its NTP pool
//!   captured and its Chronos clock shifted, while the hardened resolver
//!   and the DoH-consensus pipeline keep the clock within a second under
//!   the very same attacker.

use sdoh_analysis::{fmt_probability, Table};
use sdoh_core::{attacker_controls_fraction, check_guarantee, CacheConfig, PoolConfig};
use sdoh_dns_server::{HardeningConfig, StubResolver};
use sdoh_dns_wire::Name;
use sdoh_netsim::SpoofStrategy;
use sdoh_ntp::{
    ChronosClient, ChronosConfig, ConsensusFrontEnd, LocalClock, NtpClient, SecureTimeClient,
    SingleResolverPool,
};
use secure_doh::scenario::{
    address_pool, KaminskyPayload, NtpFleetConfig, Scenario, ScenarioConfig, CLIENT_ADDR,
    ISP_RESOLVER,
};

/// The cumulative defense gradient of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseLevel {
    /// Sequential transaction ids, fixed source port, no 0x20, no
    /// bailiwick — the weak baseline.
    NoDefenses,
    /// Random transaction ids only.
    RandomTxid,
    /// Random transaction ids and ephemeral source ports.
    RandomTxidPort,
    /// Identifiers plus 0x20 mixed-case encoding.
    Plus0x20,
    /// Everything, plus bailiwick enforcement — the secure default.
    PlusBailiwick,
}

impl DefenseLevel {
    /// Every level, weakest first.
    pub const ALL: [DefenseLevel; 5] = [
        DefenseLevel::NoDefenses,
        DefenseLevel::RandomTxid,
        DefenseLevel::RandomTxidPort,
        DefenseLevel::Plus0x20,
        DefenseLevel::PlusBailiwick,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            DefenseLevel::NoDefenses => "none",
            DefenseLevel::RandomTxid => "random TXID",
            DefenseLevel::RandomTxidPort => "+ random port",
            DefenseLevel::Plus0x20 => "+ 0x20",
            DefenseLevel::PlusBailiwick => "+ bailiwick",
        }
    }

    /// The resolver configuration this level selects.
    pub fn hardening(self) -> HardeningConfig {
        match self {
            DefenseLevel::NoDefenses => HardeningConfig::predictable_ids(),
            DefenseLevel::RandomTxid => HardeningConfig::predictable_ids().randomize_txid(true),
            DefenseLevel::RandomTxidPort => HardeningConfig::predictable_ids()
                .randomize_txid(true)
                .randomize_source_port(true),
            DefenseLevel::Plus0x20 => HardeningConfig::full().enforce_bailiwick(false),
            DefenseLevel::PlusBailiwick => HardeningConfig::full(),
        }
    }

    /// Identifier entropy (bits) the attacker faces on the first raced
    /// query of a resolution and on every later ("warm-predictor") one.
    /// The first query always costs the full txid+port space because the
    /// attacker's sequential-id and port-repeat predictors have nothing
    /// to extrapolate from yet.
    fn leg_entropy_bits(self, case_bits: u8) -> (u8, u8) {
        let warm = self.hardening().identifier_entropy_bits(case_bits);
        let first = 32u8.saturating_add(if self.hardening().encode_0x20 {
            case_bits
        } else {
            0
        });
        (first, warm)
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct PoisonCell {
    /// Defense configuration of the victim resolver.
    pub defense: DefenseLevel,
    /// Forged packets the attacker races per observed query.
    pub attempts: u32,
    /// Independent trials run.
    pub trials: u64,
    /// Trials in which the attacker ended up controlling ≥ 1/2 of the
    /// resolved pool.
    pub captured: u64,
    /// `captured / trials`.
    pub measured: f64,
    /// The analytical prediction for one trial (three raced legs).
    pub analytic: f64,
}

/// Raced upstream legs of one pool resolution (root → org → ntpns).
const RACED_LEGS: u32 = 3;

/// The analytical probability that the attacker captures one resolution:
/// it wins if any raced leg accepts a forgery, with the first leg at full
/// identifier entropy and the rest against warm predictors.
pub fn analytic_trial_probability(defense: DefenseLevel, attempts: u32, case_bits: u8) -> f64 {
    let (first, warm) = defense.leg_entropy_bits(case_bits);
    let p = |bits: u8| {
        SpoofStrategy::GuessIdentifiers {
            attempts,
            entropy_bits: bits,
        }
        .success_probability()
    };
    1.0 - (1.0 - p(first)) * (1.0 - p(warm)).powi(RACED_LEGS as i32 - 1)
}

fn poison_trial(defense: DefenseLevel, attempts: u32, seed: u64) -> bool {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: 1,
        ntp_servers: 8,
        isp_hardening: defense.hardening(),
        ..ScenarioConfig::default()
    });
    let adversary = scenario.kaminsky_adversary(attempts, KaminskyPayload::DirectAnswer);
    scenario.net.set_adversary(adversary);

    let stub = StubResolver::new(ISP_RESOLVER);
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let pool = stub
        .lookup_ipv4(&mut exchanger, scenario.pool_domain())
        .unwrap_or_default();
    attacker_controls_fraction(
        &address_pool(&pool, "isp-resolver"),
        &scenario.ground_truth(),
        0.5,
    )
}

/// Runs one sweep cell: `trials` independent scenarios.
pub fn run_cell(defense: DefenseLevel, attempts: u32, trials: u64, seed: u64) -> PoisonCell {
    let mut captured = 0u64;
    for trial in 0..trials {
        if poison_trial(defense, attempts, seed + trial) {
            captured += 1;
        }
    }
    let case_bits = "pool.ntpns.org"
        .parse::<Name>()
        .expect("valid name")
        .case_entropy_bits();
    PoisonCell {
        defense,
        attempts,
        trials,
        captured,
        measured: captured as f64 / trials.max(1) as f64,
        analytic: analytic_trial_probability(defense, attempts, case_bits),
    }
}

/// Runs the full sweep and tabulates it.
pub fn run_sweep(attempts_sweep: &[u32], trials: u64, seed: u64) -> (Table, Vec<PoisonCell>) {
    let mut table = Table::new(
        "E14: off-path poisoning success vs. resolver defenses (Kaminsky birthday attacker)",
        &[
            "defenses",
            "forged packets / query",
            "measured capture rate",
            "analytic (3 raced legs)",
        ],
    );
    let mut cells = Vec::new();
    for (d, &defense) in DefenseLevel::ALL.iter().enumerate() {
        for (a, &attempts) in attempts_sweep.iter().enumerate() {
            let cell = run_cell(
                defense,
                attempts,
                trials,
                seed + (d as u64 * 100 + a as u64) * 10_000,
            );
            table.push_row([
                defense.label().to_string(),
                attempts.to_string(),
                fmt_probability(cell.measured),
                fmt_probability(cell.analytic),
            ]);
            cells.push(cell);
        }
    }
    (table, cells)
}

/// One row of the end-to-end capture punchline.
#[derive(Debug, Clone)]
pub struct CaptureCell {
    /// Which pipeline synchronized the clock.
    pub pipeline: &'static str,
    /// Size of the NTP pool the client obtained (0 = lookup failed).
    pub pool_size: usize,
    /// Whether the x ≥ 1/2 guarantee held for that pool.
    pub guarantee_holds: bool,
    /// Whether the attacker controls ≥ 1/2 of it.
    pub captured: bool,
    /// `LocalClock::offset_from_true` after one synchronization.
    pub clock_error: f64,
    /// Whether the synchronization completed at all.
    pub synced: bool,
}

fn capture_scenario(isp_hardening: HardeningConfig, shift: f64, seed: u64) -> Scenario {
    let mut scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: 3,
        ntp_servers: 16,
        attacker_time_shift: shift,
        isp_hardening,
        ..ScenarioConfig::default()
    });
    scenario.install_ntp_fleet(NtpFleetConfig::default());
    scenario.install_kaminsky_authority();
    scenario
}

fn run_capture_cell(
    pipeline: &'static str,
    scenario: &Scenario,
    use_consensus: bool,
    seed: u64,
) -> CaptureCell {
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
    let chronos = ChronosClient::new(
        ChronosConfig::default(),
        NtpClient::new(CLIENT_ADDR.with_port(123)),
        seed,
    )
    .expect("default chronos config is valid");
    let mut client = if use_consensus {
        SecureTimeClient::new(
            Box::new(ConsensusFrontEnd::new(
                scenario
                    .install_caching_frontend(PoolConfig::algorithm1(), CacheConfig::default())
                    .expect("valid cache config"),
            )),
            scenario.pool_domain().clone(),
            chronos,
        )
    } else {
        SecureTimeClient::new(
            Box::new(SingleResolverPool::new(ISP_RESOLVER)),
            scenario.pool_domain().clone(),
            chronos,
        )
    };
    let outcome = client.sync(&scenario.net, &mut exchanger, &mut clock);
    let pool = client.pool().to_vec();
    let truth = scenario.ground_truth();
    let check = check_guarantee(&address_pool(&pool, pipeline), &truth, 0.5);
    CaptureCell {
        pipeline,
        pool_size: pool.len(),
        guarantee_holds: check.holds,
        captured: attacker_controls_fraction(&address_pool(&pool, pipeline), &truth, 0.5),
        clock_error: clock.offset_from_true(),
        synced: outcome.is_ok(),
    }
}

/// Runs the three punchline pipelines under the same birthday attacker
/// (forged referrals, a modest 16-packet budget — enough to own the weak
/// resolver, hopeless against randomized identifiers).
pub fn run_capture(shift: f64, seed: u64) -> (Table, Vec<CaptureCell>) {
    let mut cells = Vec::new();

    let weak = capture_scenario(HardeningConfig::predictable_ids(), shift, seed);
    weak.net
        .set_adversary(weak.kaminsky_adversary(16, KaminskyPayload::Referral));
    cells.push(run_capture_cell(
        "weak ISP resolver / single-resolver pool",
        &weak,
        false,
        seed,
    ));

    let hardened = capture_scenario(HardeningConfig::full(), shift, seed + 1);
    hardened
        .net
        .set_adversary(hardened.kaminsky_adversary(16, KaminskyPayload::Referral));
    cells.push(run_capture_cell(
        "hardened ISP resolver / single-resolver pool",
        &hardened,
        false,
        seed + 1,
    ));

    let consensus = capture_scenario(HardeningConfig::predictable_ids(), shift, seed + 2);
    consensus
        .net
        .set_adversary(consensus.kaminsky_adversary(16, KaminskyPayload::Referral));
    cells.push(run_capture_cell(
        "DoH consensus front end (cached)",
        &consensus,
        true,
        seed + 2,
    ));

    let mut table = Table::new(
        format!("E14: end-to-end capture under the birthday attacker ({shift} s shift)"),
        &[
            "pipeline",
            "pool size",
            "guarantee",
            "captured",
            "clock error (s)",
            "synced",
        ],
    );
    for cell in &cells {
        table.push_row([
            cell.pipeline.to_string(),
            cell.pool_size.to_string(),
            if cell.guarantee_holds {
                "holds"
            } else {
                "violated"
            }
            .to_string(),
            cell.captured.to_string(),
            format!("{:+.3}", cell.clock_error),
            cell.synced.to_string(),
        ]);
    }
    (table, cells)
}

/// Serializes sweep and punchline as the body of a
/// `BENCH_offpath_poisoning.json` document (the members after the runner's
/// header).
pub fn report_body(sweep: &[PoisonCell], capture: &[CaptureCell]) -> String {
    let mut out = String::from("  \"sweep\": [\n");
    for (i, cell) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"defenses\": \"{}\",\n      \"attempts\": {},\n      \
             \"trials\": {},\n      \"captured\": {},\n      \"measured\": {:.6},\n      \
             \"analytic\": {:.6}\n    }}{}\n",
            cell.defense.label(),
            cell.attempts,
            cell.trials,
            cell.captured,
            cell.measured,
            cell.analytic,
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"capture\": [\n");
    for (i, cell) in capture.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"pipeline\": \"{}\",\n      \"pool_size\": {},\n      \
             \"guarantee_holds\": {},\n      \"captured\": {},\n      \
             \"clock_error_s\": {:.4},\n      \"synced\": {}\n    }}{}\n",
            cell.pipeline,
            cell.pool_size,
            cell.guarantee_holds,
            cell.captured,
            cell.clock_error,
            cell.synced,
            if i + 1 == capture.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_defenses_means_certain_capture() {
        let cell = run_cell(DefenseLevel::NoDefenses, 1, 4, 900);
        assert_eq!(cell.measured, 1.0, "warm predictors leave zero entropy");
        assert!(cell.analytic > 0.99);
    }

    #[test]
    fn identifier_randomization_suppresses_small_budgets() {
        // One forged packet against ≥ 16 bits practically never lands.
        for defense in [
            DefenseLevel::RandomTxid,
            DefenseLevel::RandomTxidPort,
            DefenseLevel::Plus0x20,
            DefenseLevel::PlusBailiwick,
        ] {
            let cell = run_cell(defense, 1, 4, 910);
            assert_eq!(cell.measured, 0.0, "{defense:?}");
            assert!(cell.analytic < 1e-3, "{defense:?}: {}", cell.analytic);
        }
    }

    #[test]
    fn txid_only_matches_the_birthday_analytic_at_scale() {
        // 65536 packets vs 16 bits: the analytic trial probability is
        // ~0.86; the measured rate over 40 trials must land nearby.
        let cell = run_cell(DefenseLevel::RandomTxid, 65_536, 40, 920);
        assert!(
            (cell.measured - cell.analytic).abs() < 0.25,
            "measured {} vs analytic {}",
            cell.measured,
            cell.analytic
        );
        // The same budget is hopeless once ports are randomized too.
        let ports = run_cell(DefenseLevel::RandomTxidPort, 65_536, 10, 930);
        assert_eq!(ports.measured, 0.0);
        assert!(ports.analytic < 1e-3);
    }

    #[test]
    fn capture_punchline_matches_the_acceptance_criterion() {
        let (_, cells) = run_capture(1000.0, 940);
        let weak = &cells[0];
        assert!(weak.captured, "weak pipeline pool is attacker-controlled");
        assert!(!weak.guarantee_holds);
        assert!(
            weak.clock_error >= 500.0,
            "the clock is shifted: {}",
            weak.clock_error
        );

        let hardened = &cells[1];
        assert!(!hardened.captured);
        assert!(
            !hardened.synced || hardened.clock_error.abs() < 1.0,
            "hardened: at worst a DoS, never a capture ({})",
            hardened.clock_error
        );

        let consensus = &cells[2];
        assert!(consensus.synced);
        assert!(consensus.guarantee_holds);
        assert!(!consensus.captured);
        assert!(
            consensus.clock_error.abs() < 1.0,
            "consensus clock stays honest: {}",
            consensus.clock_error
        );
    }

    #[test]
    fn tables_and_json_cover_both_parts() {
        let (table, sweep) = run_sweep(&[1], 2, 950);
        assert_eq!(table.len(), DefenseLevel::ALL.len());
        let (capture_table, capture) = run_capture(500.0, 960);
        assert_eq!(capture_table.len(), 3);
        let json = report_body(&sweep, &capture);
        assert!(json.contains("\"defenses\": \"+ bailiwick\""));
        assert!(json.contains("\"pipeline\": \"DoH consensus front end (cached)\""));
    }
}
