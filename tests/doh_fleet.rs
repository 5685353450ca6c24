//! The one DoH fleet every experiment runs on, and the two worlds that
//! install it: the simulator's scenario (a recursive resolver behind every
//! DoH terminator, the DNS hierarchy behind them) and the loopback fleet
//! (every terminator answering from one shared authority).

use std::net::IpAddr;
use std::time::Duration;

use secure_doh::core::{check_guarantee, doh_sources, DohFleet, PoolConfig, SecurePoolGenerator};
use secure_doh::doh::ResolverInfo;
use secure_doh::netsim::SimAddr;
use secure_doh::runtime::{LoopbackConfig, LoopbackFleet};
use secure_doh::scenario::{ResolverCompromise, Scenario, ScenarioConfig};
use secure_doh::wire::Name;

/// How many of `addresses` are distinct.
fn distinct(addresses: &[IpAddr]) -> usize {
    let mut sorted = addresses.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[test]
fn the_blocks_are_distinct_and_apart_at_every_size() {
    for per_domain in [0, 1, 8, 249, 250, 254, 255, 300, 10_000] {
        let fleet = DohFleet::new(3, 2, per_domain, 1);
        let expected = per_domain.clamp(1, 254);
        assert_eq!(fleet.benign.len(), expected);
        assert_eq!(fleet.attacker.len(), expected.max(4) * 8);
        let all = [fleet.benign, fleet.attacker].concat();
        assert_eq!(distinct(&all), all.len(), "{per_domain}: an address twice");
    }
    let fleet = DohFleet::new(1, 3, 5, 1);
    let names: Vec<String> = fleet.domains.iter().map(Name::to_string).collect();
    assert_eq!(
        names,
        ["pool.ntpns.org.", "pool2.ntpns.org.", "pool3.ntpns.org."]
    );
    // The SOA at the apex, and five addresses per domain.
    assert_eq!(fleet.pool_zone().len(), 1 + 3 * 5);
}

/// More NTP servers than one /24 holds: the pool publishes each address
/// once, as many as the block has (254), none of them in the attacker's
/// block. The scenario wrote each address with a bare `as u8` once, so
/// 257 or more servers published duplicates.
#[test]
fn a_scenario_larger_than_its_block_publishes_each_address_once() {
    let scenario = Scenario::build(ScenarioConfig {
        ntp_servers: 300,
        ..ScenarioConfig::default()
    });
    let (benign, attacker) = (&scenario.fleet.benign, &scenario.fleet.attacker);
    assert_eq!(distinct(benign), benign.len(), "a benign address twice");
    assert_eq!(benign.len(), 254);
    assert_eq!(
        distinct(attacker),
        attacker.len(),
        "an attacker address twice"
    );
    let truth = scenario.ground_truth();
    assert!(benign.iter().all(|address| !truth.is_malicious(*address)));
}

/// The fleets the benchmark's four workloads build (`warm_hit`,
/// `cold_gen`, `mixed_churn`, `wide_tcp`, in that order), pinned at two
/// seeds to the resolvers, domains and address blocks they had before the
/// fleet was built in one place.
#[test]
fn the_workload_fleets_keep_their_resolvers_names_and_addresses() {
    let resolvers = [
        ("dns.google", SimAddr::v4(8, 8, 8, 8, 443)),
        ("cloudflare-dns.com", SimAddr::v4(1, 1, 1, 1, 443)),
        ("dns.quad9.net", SimAddr::v4(9, 9, 9, 9, 443)),
        ("doh.opendns.com", SimAddr::v4(208, 67, 222, 222, 443)),
        ("dns.adguard-dns.com", SimAddr::v4(94, 140, 14, 14, 443)),
    ];
    for seed in [1, 7] {
        let base = LoopbackConfig {
            resolvers: 3,
            pool_domains: 16,
            addresses_per_domain: 8,
            compromised: Vec::new(),
            upstream_latency: Duration::ZERO,
            seed,
        };
        let workloads = [
            base.clone(),
            LoopbackConfig {
                resolvers: 5,
                compromised: vec![4],
                ..base.clone()
            },
            LoopbackConfig {
                pool_domains: 256,
                compromised: vec![2],
                upstream_latency: Duration::from_millis(2),
                ..base.clone()
            },
            LoopbackConfig {
                addresses_per_domain: 32,
                ..base.clone()
            },
        ];
        for config in workloads {
            let fleet = LoopbackFleet::build(config.clone());
            let infos: Vec<ResolverInfo> = resolvers[..config.resolvers]
                .iter()
                .map(|&(name, addr)| ResolverInfo::new(name, addr, seed))
                .collect();
            assert_eq!(fleet.infos, infos, "{config:?}");
            let domains: Vec<String> = fleet.domains.iter().map(Name::to_string).collect();
            let mut expected = vec!["pool.ntpns.org.".to_string()];
            expected.extend((2..=config.pool_domains).map(|i| format!("pool{i}.ntpns.org.")));
            assert_eq!(domains, expected, "{config:?}");
            let block = |[a, b, c]: [u8; 3]| -> Vec<IpAddr> {
                (1..=config.addresses_per_domain)
                    .map(|host| IpAddr::from([a, b, c, u8::try_from(host).unwrap()]))
                    .collect()
            };
            assert_eq!(fleet.benign, block([203, 0, 113]), "{config:?}");
            assert_eq!(fleet.attacker, block([198, 18, 0]), "{config:?}");
        }
    }
}

/// Both worlds install the same fleet. Whichever world a generation runs
/// in, it must come to the same pool and the same guarantee verdict — for
/// an honest fleet and for each way a resolver can be compromised — or a
/// result measured in one world says nothing about the other.

#[test]
fn both_worlds_generate_the_same_pool_from_the_same_fleet() {
    let compromises = [
        None,
        Some(ResolverCompromise::ReplaceWithAttackerAddresses(8)),
        Some(ResolverCompromise::InflateWithAttackerAddresses(16)),
        Some(ResolverCompromise::EmptyAnswer),
    ];
    for compromise in compromises {
        let compromised: Vec<(usize, ResolverCompromise)> =
            compromise.iter().map(|how| (1, how.clone())).collect();
        let config = ScenarioConfig {
            resolvers: 3,
            ntp_servers: 8,
            pool_domains: 2,
            compromised: compromised.clone(),
            ..ScenarioConfig::default()
        };
        let scenario = Scenario::build(config.clone());
        let fleet = DohFleet::new(
            config.resolvers,
            config.pool_domains,
            config.ntp_servers,
            config.seed,
        );
        assert_eq!(fleet, scenario.fleet, "the scenario built another fleet");
        let loopback = LoopbackFleet::install(fleet, &compromised, Duration::ZERO);

        for pool in [PoolConfig::algorithm1(), PoolConfig::majority_resolver()] {
            for domain in &scenario.fleet.domains {
                let simulated = scenario
                    .pool_generator(pool.clone())
                    .unwrap()
                    .generate(&mut scenario.client_exchanger(), domain);
                let served = SecurePoolGenerator::new(pool.clone(), doh_sources(&loopback.infos))
                    .unwrap()
                    .generate(
                        &mut loopback.backends.exchanger(SimAddr::v4(10, 1, 0, 0, 40000)),
                        domain,
                    );
                let case = format!("{compromise:?}, {:?}, {domain}", pool.mode);
                assert_eq!(simulated, served, "{case}");
                let report = simulated.unwrap();
                let verdicts = [scenario.ground_truth(), loopback.ground_truth()]
                    .map(|truth| check_guarantee(&report.pool, &truth, 0.5));
                assert_eq!(verdicts[0], verdicts[1], "{case}");
                assert_eq!(
                    verdicts[0].holds,
                    !report.pool.is_empty(),
                    "{case}: a minority never captures the pool"
                );
            }
        }
    }
}
