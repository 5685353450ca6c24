//! Cross-crate integration tests: the full Figure 1 pipeline from the DNS
//! wire format up to the generated pool, exercised through the simulated
//! DoH resolvers.

use secure_doh::core::{check_guarantee, CacheConfig, CachingPoolResolver, PoolConfig};
use secure_doh::dns::{DnsClient, Do53Service, StubResolver};
use secure_doh::netsim::SimAddr;
use secure_doh::scenario::{
    ResolverCompromise, Scenario, ScenarioConfig, CLIENT_ADDR, ISP_RESOLVER,
};
use secure_doh::wire::RrType;

#[test]
fn figure1_pipeline_produces_an_honest_pool() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 1001,
        resolvers: 3,
        ntp_servers: 8,
        ..ScenarioConfig::default()
    });
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let report = scenario
        .pool_generator(PoolConfig::algorithm1())
        .unwrap()
        .generate(&mut exchanger, scenario.pool_domain())
        .unwrap();

    assert_eq!(report.answered(), 3);
    assert_eq!(report.pool.len(), 24);
    assert_eq!(report.pool.unique_addresses().len(), 8);
    for info in &scenario.fleet.infos {
        assert_eq!(report.pool.slots_from(&info.name), 8);
    }
    let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
    assert!(check.holds);

    // Every DoH request travelled over the secure channel; the only plain
    // traffic is the resolvers' own iterative resolution.
    let metrics = scenario.net.metrics();
    assert_eq!(metrics.secure_requests, 3);
    assert!(metrics.plain_requests > 0);
    assert_eq!(metrics.forged_responses, 0);
}

#[test]
fn compromised_minority_never_reaches_half_the_pool() {
    for compromised in 0..=1usize {
        let scenario = Scenario::build(ScenarioConfig {
            seed: 2000 + compromised as u64,
            resolvers: 3,
            ntp_servers: 6,
            compromised: (0..compromised)
                .map(|i| (i, ResolverCompromise::ReplaceWithAttackerAddresses(6)))
                .collect(),
            ..ScenarioConfig::default()
        });
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let report = scenario
            .pool_generator(PoolConfig::algorithm1())
            .unwrap()
            .generate(&mut exchanger, scenario.pool_domain())
            .unwrap();
        let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
        assert!(
            check.holds,
            "{compromised} compromised of 3 must keep the guarantee"
        );
        assert!(check.malicious_fraction <= compromised as f64 / 3.0 + 1e-9);
    }
}

#[test]
fn compromised_majority_defeats_the_guarantee_as_the_analysis_predicts() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 3000,
        resolvers: 3,
        ntp_servers: 6,
        compromised: vec![
            (0, ResolverCompromise::ReplaceWithAttackerAddresses(6)),
            (1, ResolverCompromise::ReplaceWithAttackerAddresses(6)),
        ],
        ..ScenarioConfig::default()
    });
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let report = scenario
        .pool_generator(PoolConfig::algorithm1())
        .unwrap()
        .generate(&mut exchanger, scenario.pool_domain())
        .unwrap();
    let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
    assert!(!check.holds, "2 of 3 compromised resolvers exceed x = 1/2");
}

#[test]
fn plain_and_doh_paths_return_identical_answers_without_an_attacker() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 4000,
        resolvers: 3,
        ntp_servers: 5,
        ..ScenarioConfig::default()
    });
    let mut exchanger = scenario.net.client(CLIENT_ADDR);

    let mut plain = StubResolver::new(ISP_RESOLVER)
        .lookup_ipv4(&mut exchanger, scenario.pool_domain())
        .unwrap();
    plain.sort();

    let report = scenario
        .pool_generator(PoolConfig::algorithm1())
        .unwrap()
        .generate(&mut exchanger, scenario.pool_domain())
        .unwrap();
    let mut via_doh = report.pool.unique_addresses();
    via_doh.sort();

    assert_eq!(plain, via_doh, "backward compatibility: same answer set");
}

#[test]
fn majority_front_end_serves_unmodified_stub_resolvers() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 5000,
        resolvers: 3,
        ntp_servers: 6,
        compromised: vec![(2, ResolverCompromise::ReplaceWithAttackerAddresses(6))],
        ..ScenarioConfig::default()
    });
    let frontend = SimAddr::v4(10, 0, 0, 99, 53);
    let generator = scenario
        .pool_generator(PoolConfig::majority_resolver())
        .unwrap();
    scenario.net.register(
        frontend,
        Do53Service::new(CachingPoolResolver::new(generator, CacheConfig::uncached())),
    );

    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let truth = scenario.ground_truth();

    // A completely standard DNS client gets only corroborated addresses.
    let response = DnsClient::new(frontend)
        .query(&mut exchanger, scenario.pool_domain(), RrType::A)
        .unwrap();
    let addresses = response.answer_addresses();
    assert_eq!(addresses.len(), 6);
    assert!(addresses.iter().all(|a| !truth.is_malicious(*a)));
}
