//! Property-based tests on live retuning: however queries, background
//! refresh pumps, clock advances and [`CachingPoolResolver::apply_config`]
//! calls interleave, the serving layer never exposes an answer older
//! than the *maximum* of the old and new `TTL + stale window` horizons —
//! cached entries survive a reconfiguration (no flush), but the served
//! age stays bounded by the widest horizon any applied config allowed.

use std::time::Duration;

use proptest::prelude::*;

use sdoh_core::{
    AddressSource, CacheConfig, CachingPoolResolver, EntryState, PoolConfig, SecurePoolGenerator,
    StaticSource,
};
use sdoh_dns_server::QueryHandler;
use sdoh_dns_wire::{Message, Rcode, RrType, Ttl};
use sdoh_netsim::{SimAddr, SimNet};

const DOMAINS: [&str; 3] = ["pool.ntpns.org", "time.example.org", "ntp.example.net"];

#[derive(Debug, Clone)]
enum Op {
    /// Serve one query for the indexed domain.
    Query(u8),
    /// Run due background refreshes.
    Pump,
    /// Advance the virtual clock by this many seconds.
    Advance(u16),
    /// Retune the resolver to the indexed palette config.
    Apply(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..DOMAINS.len() as u8).prop_map(Op::Query),
            Just(Op::Pump),
            (1u16..120).prop_map(Op::Advance),
            (0u8..5).prop_map(Op::Apply),
        ],
        1..48,
    )
}

/// A palette of valid serving configs with very different horizons — from
/// a 5 s hard-TTL with no stale window to a 1 s TTL with a two-minute
/// stale window.
fn palette(index: u8) -> CacheConfig {
    let (ttl, stale) = match index % 5 {
        0 => (60, 30),
        1 => (5, 0),
        2 => (1, 120),
        3 => (30, 300),
        _ => (10, 5),
    };
    CacheConfig::default()
        .with_ttl(Ttl::from_secs(ttl))
        .with_stale_window(Duration::from_secs(stale))
}

fn horizon(config: &CacheConfig) -> Duration {
    config.ttl.as_duration() + config.stale_window
}

fn build_resolver(config: CacheConfig) -> CachingPoolResolver {
    let sources: Vec<Box<dyn AddressSource>> = (0..3)
        .map(|i| {
            Box::new(StaticSource::answering(
                format!("r{i}"),
                vec![format!("203.0.113.{}", i + 1).parse().unwrap()],
            )) as Box<dyn AddressSource>
        })
        .collect();
    let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
    CachingPoolResolver::new(generator, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any interleaving of queries, refresh pumps, clock advances and
    /// retunes keeps every servable (non-dead) cache entry's age
    /// within the widest `TTL + stale window` horizon seen so far, and
    /// every query is still answered.
    #[test]
    fn served_age_is_bounded_by_the_widest_applied_horizon(ops in arb_ops()) {
        let net = SimNet::new(90);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let initial = palette(0);
        let mut resolver = build_resolver(initial);
        let mut widest = horizon(&initial);
        let mut id: u16 = 0;

        for op in &ops {
            match op {
                Op::Query(domain) => {
                    id = id.wrapping_add(1);
                    let query = Message::query(
                        id,
                        DOMAINS[*domain as usize].parse().unwrap(),
                        RrType::A,
                    );
                    let response = resolver.handle_query(&mut exchanger, &query);
                    prop_assert_eq!(response.header.rcode, Rcode::NoError);
                    prop_assert!(
                        !response.answer_addresses().is_empty(),
                        "static upstreams always produce a pool"
                    );
                }
                Op::Pump => {
                    resolver.run_due_refreshes(&mut exchanger);
                }
                Op::Advance(secs) => {
                    net.clock().advance(Duration::from_secs(u64::from(*secs)));
                }
                Op::Apply(index) => {
                    let cache = palette(*index);
                    resolver.apply_config(cache, net.now());
                    widest = widest.max(horizon(&cache));
                    prop_assert_eq!(resolver.cache_config(), cache);
                }
            }
            // The invariant, checked after *every* step: nothing servable
            // is older than the widest horizon any config ever allowed.
            for probe in resolver.probe_entries(net.now()) {
                if probe.state != EntryState::Dead {
                    prop_assert!(
                        probe.age <= widest,
                        "{:?} servable at age {:?} > widest horizon {:?} (under {:?})",
                        probe.key, probe.age, widest, resolver.cache_config()
                    );
                }
            }
        }
    }

    /// The exact per-entry bound across a single transition A -> B: the
    /// stamped freshness expiry (`ttl_A`) is honored, and the stale tail
    /// is judged under B but capped by B's own generation horizon — so an
    /// entry is servable strictly before
    /// `max(ttl_A, min(ttl_A, ttl_B) + stale_B)` and dead strictly after,
    /// with no gap in between.
    #[test]
    fn transition_bound_caps_the_stale_tail_by_the_new_horizon(
        a in 0u8..5, b in 0u8..5, age in 0u64..600
    ) {
        let net = SimNet::new(91);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let first = palette(a);
        let second = palette(b);
        let mut resolver = build_resolver(first);

        let query = Message::query(1, DOMAINS[0].parse().unwrap(), RrType::A);
        resolver.handle_query(&mut exchanger, &query);
        resolver.apply_config(second, net.now());
        net.clock().advance(Duration::from_secs(age));

        let stale_tail =
            first.ttl.as_duration().min(second.ttl.as_duration()) + second.stale_window;
        let bound = first.ttl.as_duration().max(stale_tail);
        let servable = resolver
            .probe_entries(net.now())
            .iter()
            .any(|probe| probe.state != EntryState::Dead);
        if Duration::from_secs(age) > bound {
            prop_assert!(!servable, "entry aged {age}s outlived the {bound:?} bound");
        } else if Duration::from_secs(age) < bound {
            prop_assert!(servable, "entry aged {age}s inside the {bound:?} bound went dead");
        }
    }
}
