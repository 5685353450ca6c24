//! E4 — the off-path attack of \[1\] against plain-DNS pool generation vs.
//! the distributed DoH proposal.
//!
//! The attacker spoofs DNS answers on plain (Do53) paths with a per-query
//! success probability `p`. Against the baseline it targets the client's
//! query to its ISP resolver; against the proposal the only plain-DNS left
//! is each DoH resolver's own upstream lookup, so `p` plays the role of
//! `p_attack` per resolver and the attacker needs a majority of them.

use sdoh_analysis::{fmt_probability, Table};
use sdoh_core::{attacker_controls_fraction, AddressPool, PoolConfig};
use sdoh_dns_server::StubResolver;
use sdoh_netsim::SimAddr;
use secure_doh::scenario::{Scenario, ScenarioConfig, ISP_RESOLVER, NTPNS_SERVER};

use super::pool_spoofer;

/// One configuration of the experiment.
#[derive(Debug, Clone, Copy)]
enum Setup {
    PlainDns,
    DistributedDoh { resolvers: usize },
}

/// Runs `trials` independent scenarios per spoof-probability point and
/// reports the empirical probability that the attacker ends up controlling
/// at least half of the generated pool.
pub fn run(spoof_probabilities: &[f64], trials: u64, seed: u64) -> Table {
    let mut table = Table::new(
        "E4: off-path attacker success against pool generation (goal: >= 1/2 of the pool)",
        &[
            "per-query spoof probability",
            "plain DNS (1 resolver)",
            "distributed DoH (N=3)",
            "distributed DoH (N=5)",
            "analytic binomial tail (N=3)",
        ],
    );
    for (i, &p) in spoof_probabilities.iter().enumerate() {
        let plain = success_rate(Setup::PlainDns, p, trials, seed + i as u64 * 1000);
        let doh3 = success_rate(
            Setup::DistributedDoh { resolvers: 3 },
            p,
            trials,
            seed + i as u64 * 1000 + 300,
        );
        let doh5 = success_rate(
            Setup::DistributedDoh { resolvers: 5 },
            p,
            trials,
            seed + i as u64 * 1000 + 500,
        );
        let analytic =
            sdoh_analysis::attack_probability_exact(&sdoh_analysis::AttackModel::new(3, p, 0.5));
        table.push_row([
            format!("{p:.2}"),
            fmt_probability(plain),
            fmt_probability(doh3),
            fmt_probability(doh5),
            fmt_probability(analytic),
        ]);
    }
    table
}

fn success_rate(setup: Setup, p: f64, trials: u64, seed: u64) -> f64 {
    let mut successes = 0u64;
    for trial in 0..trials {
        if run_trial(setup, p, seed + trial) {
            successes += 1;
        }
    }
    successes as f64 / trials.max(1) as f64
}

fn run_trial(setup: Setup, p: f64, seed: u64) -> bool {
    let resolvers = match setup {
        Setup::PlainDns => 1,
        Setup::DistributedDoh { resolvers } => resolvers,
    };
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers,
        ntp_servers: 8,
        ..ScenarioConfig::default()
    });
    let truth = scenario.ground_truth();
    let attacker_pool = scenario.forged_addresses();

    // Victim paths: the client->ISP path for the baseline, every resolver's
    // upstream path to the pool-domain authoritative server for the
    // proposal (the resolvers themselves are what the attacker must beat).
    let victims: Vec<SimAddr> = match setup {
        Setup::PlainDns => vec![ISP_RESOLVER],
        Setup::DistributedDoh { .. } => vec![NTPNS_SERVER],
    };
    scenario.net.set_adversary(pool_spoofer(
        p,
        victims,
        scenario.pool_domain().clone(),
        attacker_pool,
    ));

    let pool = match setup {
        Setup::PlainDns => {
            let stub = StubResolver::new(ISP_RESOLVER);
            match stub.lookup_ipv4(&mut scenario.client_exchanger(), scenario.pool_domain()) {
                Ok(addresses) => {
                    let mut pool = AddressPool::new();
                    for addr in addresses {
                        pool.push(addr, "isp-resolver");
                    }
                    pool
                }
                Err(_) => AddressPool::new(),
            }
        }
        Setup::DistributedDoh { .. } => scenario
            .generate_pool(PoolConfig::algorithm1())
            .map(|(report, _)| report.pool)
            .unwrap_or_default(),
    };
    attacker_controls_fraction(&pool, &truth, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certain_spoofing_always_beats_plain_dns_never_beats_doh_majority() {
        // p = 1.0: the plain baseline is always captured; with independent
        // per-query spoofing of resolver upstreams the DoH pool is also
        // captured (every resolver is poisoned) — the protection comes from
        // p < 1 per resolver, tested below.
        assert_eq!(success_rate(Setup::PlainDns, 1.0, 3, 42), 1.0);

        // p = 0: nobody is captured.
        assert_eq!(success_rate(Setup::PlainDns, 0.0, 3, 43), 0.0);
        assert_eq!(
            success_rate(Setup::DistributedDoh { resolvers: 3 }, 0.0, 3, 44),
            0.0
        );
    }

    #[test]
    fn moderate_spoofing_hurts_plain_dns_much_more_than_doh() {
        // Below the honest-majority threshold (p < 1/2) the distributed
        // scheme suppresses the attack quadratically while the plain
        // baseline fails linearly. The bounds are loose enough to make the
        // statistical test robust (expected rates: plain ~0.9, DoH ~0.16).
        let trials = 40;
        let plain = success_rate(Setup::PlainDns, 0.9, trials, 7);
        let doh = success_rate(Setup::DistributedDoh { resolvers: 3 }, 0.3, trials, 8);
        assert!(
            plain > 0.6,
            "plain DNS with a 0.9 spoof rate should usually be captured ({plain})"
        );
        assert!(
            doh < 0.75,
            "DoH with p_attack = 0.3 should usually survive ({doh})"
        );
    }

    #[test]
    fn table_has_one_row_per_probability() {
        let table = run(&[0.0, 1.0], 2, 5);
        assert_eq!(table.len(), 2);
    }
}
