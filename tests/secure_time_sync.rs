//! End-to-end secure time synchronization over the Figure 1 scenario: the
//! acceptance test for wiring DoH-consensus pools into the Chronos client.
//!
//! Under one identical adversary — a compromised DoH resolver plus an
//! off-path spoofer owning the plain Do53 leg — plain SNTP over a
//! single-resolver pool swallows the full attacker shift, while the
//! [`SecureTimeClient`] over the cached consensus front end keeps
//! `|offset_from_true| < 1 s`.

use std::time::Duration;

use secure_doh::core::{check_guarantee, CacheConfig, PoolConfig};
use secure_doh::netsim::{OffPathSpoofer, SpoofStrategy};
use secure_doh::ntp::{
    ChronosClient, ChronosConfig, LocalClock, NtpClient, NtpPoolSource, SingleResolverPool,
    TimeSyncError,
};
use secure_doh::scenario::{
    address_pool, NtpFleetConfig, ResolverCompromise, Scenario, ScenarioConfig, CLIENT_ADDR,
    ISP_RESOLVER,
};
use secure_doh::wire::{Message, MessageBuilder, Ttl};

const SHIFT: f64 = 1000.0;

/// Builds the headline adversary: resolver 0 compromised, spoofer winning
/// every race on the Do53 leg to the ISP resolver.
fn attacked_scenario(seed: u64) -> Scenario {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: 3,
        ntp_servers: 16,
        attacker_time_shift: SHIFT,
        compromised: vec![(0, ResolverCompromise::ReplaceWithAttackerAddresses(16))],
        ..ScenarioConfig::default()
    });
    let forged = scenario.forged_addresses();
    let spoofer = OffPathSpoofer::new(SpoofStrategy::FixedProbability(1.0), {
        move |query_bytes: &[u8], _rng: &mut secure_doh::netsim::SimRng| {
            let query = Message::decode(query_bytes).ok()?;
            let question = query.question()?;
            if !question.rtype.is_address() {
                return None;
            }
            let mut builder = MessageBuilder::response_to(&query).recursion_available(true);
            for addr in &forged {
                builder = builder.answer_address(300, *addr);
            }
            builder.build().encode().ok()
        }
    })
    .with_targets(vec![ISP_RESOLVER]);
    scenario.net.set_adversary(spoofer);
    scenario
}

#[test]
fn same_attack_captures_sntp_but_not_the_secure_time_client() {
    // Baseline: plain SNTP over the spoofed single-resolver pool.
    let scenario = attacked_scenario(900);
    let mut exchanger = scenario.client_exchanger();
    let spoofed = SingleResolverPool::new(ISP_RESOLVER)
        .fetch_pool(&mut exchanger, scenario.pool_domain())
        .expect("spoofed answer still parses");
    let check = check_guarantee(
        &address_pool(&spoofed.addresses, "isp"),
        &scenario.ground_truth(),
        0.5,
    );
    assert!(!check.holds, "the spoofed pool has no honest majority");
    let mut captured_clock = LocalClock::new(scenario.net.clock(), 0.0);
    NtpClient::new(CLIENT_ADDR.with_port(123))
        .synchronize_simple(&scenario.net, &mut captured_clock, &spoofed.addresses)
        .expect("the attacker's servers answer eagerly");
    assert!(
        captured_clock.offset_from_true() >= SHIFT * 0.9,
        "plain SNTP must be captured, got {}",
        captured_clock.offset_from_true()
    );

    // The proposal: SecureTimeClient over the cached consensus front end,
    // same scenario, same adversary.
    let scenario = attacked_scenario(901);
    let mut client = scenario
        .secure_time_client(
            PoolConfig::algorithm1(),
            CacheConfig::default(),
            ChronosClient::new(
                ChronosConfig::default(),
                NtpClient::new(CLIENT_ADDR.with_port(123)),
                901,
            )
            .unwrap(),
        )
        .unwrap();
    let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
    let mut exchanger = scenario.client_exchanger();
    let outcome = client
        .sync(&scenario.net, &mut exchanger, &mut clock)
        .expect("secure sync succeeds under the attack");
    let check = check_guarantee(
        &address_pool(client.pool(), "consensus"),
        &scenario.ground_truth(),
        0.5,
    );
    assert!(check.holds, "the consensus pool keeps its honest majority");
    assert_eq!(outcome.pool_size, 48);
    assert!(
        clock.offset_from_true().abs() < 1.0,
        "the secure pipeline keeps the clock: {}",
        clock.offset_from_true()
    );
}

#[test]
fn periodic_syncs_repull_per_ttl_window_and_tolerate_planted_servers() {
    // No DNS attack here; instead the published fleet itself contains a
    // bad minority plus unresponsive servers — the layer Chronos (and the
    // fixed trim guard) must absorb.
    let mut scenario = Scenario::build(ScenarioConfig {
        seed: 902,
        resolvers: 3,
        ntp_servers: 18,
        attacker_time_shift: SHIFT,
        ..ScenarioConfig::default()
    });
    scenario.install_ntp_fleet(NtpFleetConfig {
        malicious: 4,
        silent: 2,
        time_shift: Some(SHIFT),
    });
    let mut client = scenario
        .secure_time_client(
            PoolConfig::algorithm1(),
            CacheConfig::default().with_ttl(Ttl::from_secs(60)),
            ChronosClient::new(
                ChronosConfig::default(),
                NtpClient::new(CLIENT_ADDR.with_port(123)).timeout(Duration::from_millis(300)),
                902,
            )
            .unwrap(),
        )
        .unwrap();
    let mut clock = LocalClock::new(scenario.net.clock(), -20.0);
    let mut exchanger = scenario.client_exchanger();

    for round in 0..3 {
        let outcome = client
            .sync(&scenario.net, &mut exchanger, &mut clock)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(
            clock.offset_from_true().abs() < 1.0,
            "round {round}: clock off by {}",
            clock.offset_from_true()
        );
        let check = check_guarantee(
            &address_pool(client.pool(), "consensus"),
            &scenario.ground_truth(),
            0.5,
        );
        assert!(check.holds, "round {round}: {check:?}");
        if round == 0 {
            assert!(outcome.pool_refreshed);
        }
        // Step past the TTL window so the next sync re-pulls the pool.
        scenario.net.clock().advance(Duration::from_secs(90));
    }
    assert!(
        client.pool_refreshes() >= 2,
        "TTL expiry re-pulled the pool: {}",
        client.pool_refreshes()
    );
}

#[test]
fn empty_answer_compromise_is_a_time_sync_dos_not_a_capture() {
    // Every resolver answers the pool domain with an empty record set:
    // truncation reduces the pool to nothing, the sync fails, and the
    // clock is left untouched — footnote 2's DoS, surfaced end to end.
    let scenario = Scenario::build(ScenarioConfig {
        seed: 903,
        resolvers: 3,
        ntp_servers: 8,
        compromised: vec![(1, ResolverCompromise::EmptyAnswer)],
        ..ScenarioConfig::default()
    });
    let mut client = scenario
        .secure_time_client(
            PoolConfig::algorithm1(),
            CacheConfig::default(),
            ChronosClient::new(
                ChronosConfig::default(),
                NtpClient::new(CLIENT_ADDR.with_port(123)),
                903,
            )
            .unwrap(),
        )
        .unwrap();
    let mut clock = LocalClock::new(scenario.net.clock(), 3.0);
    let mut exchanger = scenario.client_exchanger();
    let err = client
        .sync(&scenario.net, &mut exchanger, &mut clock)
        .unwrap_err();
    assert!(
        matches!(err, TimeSyncError::EmptyPool | TimeSyncError::PoolFetch(_)),
        "unexpected error: {err:?}"
    );
    assert_eq!(clock.offset_from_true(), 3.0, "clock untouched by the DoS");
}
