//! Cross-crate integration tests for the attack experiments: off-path
//! spoofing, on-path rewriting, answer inflation and the Chronos end game.

use secure_doh::core::{attacker_controls_fraction, AddressPool, PoolConfig};
use secure_doh::dns::StubResolver;
use secure_doh::netsim::{OnPathMitm, SimAddr};
use secure_doh::ntp::{ChronosClient, ChronosConfig, LocalClock, NtpClient};
use secure_doh::scenario::{
    ResolverCompromise, Scenario, ScenarioConfig, CLIENT_ADDR, ISP_RESOLVER,
};
use secure_doh::wire::{Message, MessageBuilder};

fn forge_closure(
    attacker: Vec<std::net::IpAddr>,
) -> impl FnMut(&[u8], &mut secure_doh::netsim::SimRng) -> Option<Vec<u8>> {
    move |query_bytes, _rng| {
        let query = Message::decode(query_bytes).ok()?;
        let question = query.question()?;
        if !question.rtype.is_address() {
            return None;
        }
        let mut builder = MessageBuilder::response_to(&query).recursion_available(true);
        for addr in &attacker {
            builder = builder.answer_address(300, *addr);
        }
        builder.build().encode().ok()
    }
}

#[test]
fn off_path_spoofer_poisons_plain_dns_but_not_doh() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 600,
        resolvers: 3,
        ntp_servers: 8,
        ..ScenarioConfig::default()
    });
    let truth = scenario.ground_truth();
    let attacker = scenario.forged_addresses();
    scenario.net.set_adversary(
        secure_doh::netsim::OffPathSpoofer::new(
            secure_doh::netsim::SpoofStrategy::FixedProbability(1.0),
            forge_closure(attacker),
        )
        .with_targets(vec![ISP_RESOLVER]),
    );
    let mut exchanger = scenario.net.client(CLIENT_ADDR);

    // Plain path: fully captured.
    let plain = StubResolver::new(ISP_RESOLVER)
        .lookup_ipv4(&mut exchanger, scenario.pool_domain())
        .unwrap();
    let mut plain_pool = AddressPool::new();
    for a in plain {
        plain_pool.push(a, "isp");
    }
    assert!(attacker_controls_fraction(&plain_pool, &truth, 0.5));

    // DoH path: untouched.
    let report = scenario
        .pool_generator(PoolConfig::algorithm1())
        .unwrap()
        .generate(&mut exchanger, scenario.pool_domain())
        .unwrap();
    assert!(!attacker_controls_fraction(&report.pool, &truth, 0.5));
    assert!(scenario.net.metrics().forged_responses >= 1);
}

#[test]
fn on_path_mitm_rewrites_plain_dns_but_cannot_touch_doh() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 601,
        resolvers: 3,
        ntp_servers: 8,
        ..ScenarioConfig::default()
    });
    let truth = scenario.ground_truth();
    let attacker = scenario.forged_addresses();
    let mut forge = forge_closure(attacker);
    scenario.net.set_adversary(
        OnPathMitm::controlling([ISP_RESOLVER.ip, CLIENT_ADDR.ip])
            .with_response_rewriter(move |request, _response, rng| forge(request, rng)),
    );
    let mut exchanger = scenario.net.client(CLIENT_ADDR);

    let plain = StubResolver::new(ISP_RESOLVER)
        .lookup_ipv4(&mut exchanger, scenario.pool_domain())
        .unwrap();
    let mut plain_pool = AddressPool::new();
    for a in plain {
        plain_pool.push(a, "isp");
    }
    assert!(attacker_controls_fraction(&plain_pool, &truth, 0.5));

    let report = scenario
        .pool_generator(PoolConfig::algorithm1())
        .unwrap()
        .generate(&mut exchanger, scenario.pool_domain())
        .unwrap();
    assert!(
        !attacker_controls_fraction(&report.pool, &truth, 0.5),
        "the MitM controls the client's access network but cannot rewrite \
         authenticated DoH traffic"
    );
    assert!(scenario.net.metrics().replaced_responses >= 1);
}

#[test]
fn answer_inflation_cannot_take_over_a_truncated_pool() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 602,
        resolvers: 5,
        ntp_servers: 6,
        compromised: vec![
            (0, ResolverCompromise::InflateWithAttackerAddresses(64)),
            (3, ResolverCompromise::InflateWithAttackerAddresses(64)),
        ],
        ..ScenarioConfig::default()
    });
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let report = scenario
        .pool_generator(PoolConfig::algorithm1())
        .unwrap()
        .generate(&mut exchanger, scenario.pool_domain())
        .unwrap();
    assert_eq!(report.pool.len(), 30, "5 resolvers x 6 truncated slots");
    assert!(!attacker_controls_fraction(
        &report.pool,
        &scenario.ground_truth(),
        0.5
    ));
}

#[test]
fn chronos_over_the_secure_pool_survives_a_poisoned_access_network() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 603,
        resolvers: 3,
        ntp_servers: 16,
        attacker_time_shift: 500.0,
        ..ScenarioConfig::default()
    });
    let attacker = scenario.forged_addresses();
    scenario.net.set_adversary(
        secure_doh::netsim::OffPathSpoofer::new(
            secure_doh::netsim::SpoofStrategy::FixedProbability(1.0),
            forge_closure(attacker),
        )
        .with_targets(vec![ISP_RESOLVER]),
    );
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let report = scenario
        .pool_generator(PoolConfig::algorithm1())
        .unwrap()
        .generate(&mut exchanger, scenario.pool_domain())
        .unwrap();

    let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
    let mut chronos = ChronosClient::new(
        ChronosConfig::default(),
        NtpClient::new(CLIENT_ADDR.with_port(123)),
        603,
    )
    .unwrap();
    chronos
        .update(&scenario.net, &mut clock, &report.pool.addresses())
        .unwrap();
    assert!(
        clock.offset_from_true().abs() < 1.0,
        "clock stays within a second of true time, got {}",
        clock.offset_from_true()
    );
}

#[test]
fn secure_channel_rejects_impersonation_of_a_resolver() {
    use secure_doh::doh::{DohClient, ResolverDirectory};

    let scenario = Scenario::build(ScenarioConfig {
        seed: 604,
        resolvers: 1,
        ntp_servers: 4,
        ..ScenarioConfig::default()
    });
    // A different directory seed yields different pinned keys: this models a
    // client that pins the wrong key / an attacker without the private key.
    let wrong_keys = ResolverDirectory::well_known(9999);
    let impostor = wrong_keys.resolvers()[0].clone();
    let client = DohClient::new(impostor).timeout(std::time::Duration::from_millis(500));
    let mut exchanger = scenario.net.client(SimAddr::v4(192, 0, 2, 77, 4000));
    let err = client
        .query(
            &mut exchanger,
            scenario.pool_domain(),
            secure_doh::wire::RrType::A,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        secure_doh::doh::DohError::Network(_) | secure_doh::doh::DohError::ChannelAuthentication(_)
    ));
}
