//! End-to-end off-path poisoning of the Do53 leg: the Kaminsky-style
//! birthday attacker versus the defense gradient of the recursive
//! resolver, through the full Figure 1 scenario.
//!
//! These are the integration-level regressions behind experiment E14: the
//! weak resolver is captured by a single well-timed forgery, identifier
//! randomization pushes the win rate to the analytical floor, and
//! bailiwick enforcement structurally blocks the referral hijack even
//! when the identifier race is lost.

use secure_doh::core::{check_guarantee, PoolConfig};
use secure_doh::dns::{HardeningConfig, ResolveError, StubResolver};
use secure_doh::scenario::{KaminskyPayload, Scenario, ScenarioConfig, ISP_RESOLVER};
use secure_doh::wire::Rcode;

fn scenario_with(isp_hardening: HardeningConfig, seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig {
        seed,
        isp_hardening,
        ..ScenarioConfig::default()
    })
}

#[test]
fn weak_resolver_is_hijacked_by_a_single_forged_referral() {
    let scenario = scenario_with(HardeningConfig::predictable_ids(), 33);
    scenario.install_kaminsky_authority();
    let adversary = scenario.kaminsky_adversary(1, KaminskyPayload::Referral);
    let stats = adversary.stats_handle();
    scenario.net.set_adversary(adversary);

    let stub = StubResolver::new(ISP_RESOLVER);
    let mut exchanger = scenario.client_exchanger();
    let addresses = stub
        .lookup_ipv4(&mut exchanger, scenario.pool_domain())
        .expect("the poisoned resolution still answers");
    let truth = scenario.ground_truth();
    assert!(!addresses.is_empty());
    assert!(
        addresses.iter().all(|a| truth.is_malicious(*a)),
        "blind glue hands the whole pool to the attacker: {addresses:?}"
    );

    let raced_before = {
        let snapshot = stats.borrow();
        assert!(snapshot.wins >= 1, "one predicted-identifier race suffices");
        assert_eq!(
            snapshot.min_entropy_bits(),
            Some(0),
            "sequential txid + fixed port leave nothing to guess"
        );
        snapshot.raced
    };

    // The poison is cached: a second lookup is served without the
    // attacker having to race again.
    let again = stub
        .lookup_ipv4(&mut exchanger, scenario.pool_domain())
        .unwrap();
    assert_eq!(again, addresses);
    assert!(
        stats.borrow().raced <= raced_before + 1,
        "cached poison needs no new upstream race"
    );
}

#[test]
fn bailiwick_enforcement_blocks_the_referral_even_with_weak_identifiers() {
    // Identifiers stay predictable — the attacker wins every race — but
    // bailiwick enforcement discards the off-zone glue, so the hijack
    // degrades to (at worst) a failed lookup, never a poisoned cache.
    let scenario = scenario_with(
        HardeningConfig::predictable_ids().enforce_bailiwick(true),
        34,
    );
    scenario.install_kaminsky_authority();
    let adversary = scenario.kaminsky_adversary(1, KaminskyPayload::Referral);
    let stats = adversary.stats_handle();
    scenario.net.set_adversary(adversary);

    let stub = StubResolver::new(ISP_RESOLVER);
    let mut exchanger = scenario.client_exchanger();
    let truth = scenario.ground_truth();
    match stub.lookup_ipv4(&mut exchanger, scenario.pool_domain()) {
        Ok(addresses) => assert!(
            addresses.iter().all(|a| !truth.is_malicious(*a)),
            "no attacker address may be served: {addresses:?}"
        ),
        Err(ResolveError::ErrorResponse(rcode)) => {
            assert_eq!(
                rcode,
                Rcode::ServFail,
                "a lost lookup is a DoS, not a capture"
            )
        }
        Err(other) => panic!("unexpected error {other:?}"),
    }
    assert!(
        stats.borrow().wins >= 1,
        "the race was won — the defense is structural, not probabilistic"
    );
}

#[test]
fn hardened_resolver_survives_a_large_forgery_budget() {
    let scenario = scenario_with(HardeningConfig::full(), 35);
    scenario.install_kaminsky_authority();
    // 65536 forged packets per query: certain capture of a txid-only
    // victim, ~2^-28 per query against 44 bits of identifier entropy.
    let adversary = scenario.kaminsky_adversary(65_536, KaminskyPayload::DirectAnswer);
    let stats = adversary.stats_handle();
    scenario.net.set_adversary(adversary);

    let stub = StubResolver::new(ISP_RESOLVER);
    let mut exchanger = scenario.client_exchanger();
    let addresses = stub
        .lookup_ipv4(&mut exchanger, scenario.pool_domain())
        .expect("the hardened resolver answers normally");
    let truth = scenario.ground_truth();
    assert_eq!(addresses.len(), scenario.config.ntp_servers);
    assert!(addresses.iter().all(|a| !truth.is_malicious(*a)));

    {
        let stats = stats.borrow();
        assert!(stats.raced >= 3, "root, org and ntpns legs all raced");
        assert_eq!(stats.wins, 0);
        assert_eq!(
            stats.min_entropy_bits(),
            Some(44),
            "16 txid + 16 port + 12 case bits on every leg"
        );
    }

    // The DoH-consensus path rides over the same attacked network and
    // keeps its guarantee (its resolvers are hardened and the attacker
    // cannot reach into the authenticated DoH legs at all).
    let (report, _) = scenario.generate_pool(PoolConfig::algorithm1()).unwrap();
    let check = check_guarantee(&report.pool, &truth, 0.5);
    assert!(check.holds);
    assert!((check.benign_fraction - 1.0).abs() < 1e-12);
}

#[test]
fn direct_answer_forgery_needs_the_identifier_race() {
    // Random txid only (the first historical defense): 65536 forged
    // packets make the per-query win probability 1 - 1/e; poisoning is
    // likely but no longer certain. With one packet it is ~2^-16.
    let scenario = scenario_with(HardeningConfig::predictable_ids().randomize_txid(true), 36);
    let adversary = scenario.kaminsky_adversary(1, KaminskyPayload::DirectAnswer);
    let stats = adversary.stats_handle();
    scenario.net.set_adversary(adversary);

    let stub = StubResolver::new(ISP_RESOLVER);
    let mut exchanger = scenario.client_exchanger();
    let addresses = stub
        .lookup_ipv4(&mut exchanger, scenario.pool_domain())
        .unwrap();
    let truth = scenario.ground_truth();
    assert!(
        addresses.iter().all(|a| !truth.is_malicious(*a)),
        "a single guess against 16 bits practically never lands"
    );
    let stats = stats.borrow();
    assert_eq!(stats.wins, 0);
    // Port prediction locks on after the first observation; txid stays 16
    // bits — the attacker's own accounting shows the residual entropy.
    assert_eq!(stats.min_entropy_bits(), Some(16));
}
