//! Acceptance tests for the pool-serving subsystem: under a simulated
//! population of clients querying a handful of domains, the caching
//! resolver performs at most one generation per distinct `(domain, TTL
//! window)` — while the uncached baseline performs one per query — and
//! every served answer still satisfies the benign-fraction guarantee.

use std::time::Duration;

use secure_doh::core::{check_guarantee, AddressPool, CacheConfig, PoolConfig};
use secure_doh::netsim::{ChannelKind, ConcurrentRequest, SimAddr};
use secure_doh::scenario::{ResolverCompromise, Scenario, ScenarioConfig, FRONTEND_ADDR};
use secure_doh::wire::{Message, Rcode, RrType, Ttl};

const CLIENTS: usize = 120;
const DOMAINS: usize = 4;
const POOL_TTL: Ttl = Ttl::from_secs(30);
const STALE_WINDOW: Duration = Duration::from_secs(30);
const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

fn build_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig {
        seed,
        resolvers: 3,
        ntp_servers: 8,
        pool_domains: DOMAINS,
        // One compromised resolver out of three: truncation keeps the
        // malicious fraction at 1/3, so x = 1/2 must hold for every served
        // answer even under compromise.
        compromised: vec![(0, ResolverCompromise::ReplaceWithAttackerAddresses(8))],
        ..ScenarioConfig::default()
    })
}

fn cache_config() -> CacheConfig {
    CacheConfig::default()
        .with_ttl(POOL_TTL)
        .with_stale_window(STALE_WINDOW)
}

/// What one [`run_load`] saw.
struct LoadStats {
    requests: usize,
    responses: usize,
    failures: usize,
    total_latency: Duration,
}

impl LoadStats {
    fn mean_latency(&self) -> Duration {
        self.total_latency / self.requests.max(1) as u32
    }
}

/// Runs `rounds` concurrent rounds of the population — `CLIENTS` distinct
/// source addresses departing at one instant, a round costing the slowest
/// exchange (client `i` queries pool domain `i % DOMAINS`) — checking the
/// guarantee of every response. `between_rounds(round)` runs after each
/// round's outcomes, off every client's query path, before the think time.
fn run_load(
    scenario: &Scenario,
    rounds: usize,
    think_time: Duration,
    mut between_rounds: impl FnMut(usize),
) -> LoadStats {
    let truth = scenario.ground_truth();
    let net = &scenario.net;
    let mut stats = LoadStats {
        requests: 0,
        responses: 0,
        failures: 0,
        total_latency: Duration::ZERO,
    };
    let mut next_id: u16 = 1;
    for round in 0..rounds {
        let batch: Vec<(SimAddr, ConcurrentRequest)> = (0..CLIENTS)
            .map(|client| {
                let query = Message::query(
                    next_id,
                    scenario.fleet.domains[client % DOMAINS].clone(),
                    RrType::A,
                );
                next_id = next_id.wrapping_add(1);
                let request = ConcurrentRequest::new(
                    FRONTEND_ADDR,
                    ChannelKind::Plain,
                    query.encode().expect("encodable query"),
                    QUERY_TIMEOUT,
                );
                (SimAddr::v4(100, 64, 0, client as u8 + 1, 40_000), request)
            })
            .collect();
        let departed = net.now();
        for outcome in net.transact_concurrent_from(batch) {
            let client = outcome.index;
            stats.requests += 1;
            stats.total_latency += outcome.completed_at.saturating_duration_since(departed);
            match outcome.result {
                Ok(_) => stats.responses += 1,
                Err(_) => stats.failures += 1,
            }
            let bytes = outcome.result.expect("every query is answered");
            let response = Message::decode(&bytes).expect("well-formed response");
            assert_eq!(response.header.rcode, Rcode::NoError, "client {client}");
            let addresses = response.answer_addresses();
            assert!(!addresses.is_empty(), "client {client} got an empty answer");
            let mut pool = AddressPool::new();
            for addr in addresses {
                pool.push(addr, "served");
            }
            let check = check_guarantee(&pool, &truth, 0.5);
            assert!(
                check.holds,
                "served answer for client {client} violates the benign-fraction \
                 guarantee: {check:?}"
            );
        }
        between_rounds(round);
        if round + 1 < rounds {
            net.clock().advance(think_time);
        }
    }
    stats
}

#[test]
fn caching_resolver_amortises_generation_across_the_population() {
    let scenario = build_scenario(1201);
    let resolver = scenario
        .install_caching_frontend(PoolConfig::algorithm1(), cache_config())
        .unwrap();

    // Phase A: three rounds inside one TTL window. Only the first query per
    // domain generates; everything else is served from the cache.
    let stats = run_load(&scenario, 3, Duration::from_secs(5), |_| {});
    assert_eq!(stats.requests, CLIENTS * 3);
    assert_eq!(stats.failures, 0);
    {
        let metrics = resolver.lock().metrics();
        assert_eq!(metrics.queries as usize, CLIENTS * 3);
        assert_eq!(
            metrics.generations as usize, DOMAINS,
            "one generation per distinct domain in the first TTL window"
        );
        assert_eq!(metrics.misses as usize, DOMAINS);
        assert_eq!(metrics.hits as usize, CLIENTS * 3 - DOMAINS);
        assert_eq!(metrics.stale_serves, 0);
    }

    // Phase B: jump past the TTL into the stale window. A full round is
    // served stale — immediately, with zero generations on the query path —
    // and the between-rounds pump regenerates all domains in the
    // background.
    scenario.net.clock().advance(Duration::from_secs(25));
    let mut refreshed = 0;
    let stats = run_load(&scenario, 1, Duration::ZERO, |_| {
        let pending = resolver.lock().snapshot().pending_refreshes;
        assert_eq!(
            pending, DOMAINS,
            "stale hits deduplicate to one refresh per domain"
        );
        let mut exchanger = scenario.client_exchanger();
        refreshed += resolver.lock().run_due_refreshes(&mut exchanger);
    });
    assert_eq!(stats.failures, 0);
    assert_eq!(refreshed, DOMAINS);
    {
        let metrics = resolver.lock().metrics();
        assert_eq!(metrics.stale_serves as usize, CLIENTS);
        assert_eq!(metrics.refreshes as usize, DOMAINS);
        assert_eq!(
            metrics.generations as usize,
            DOMAINS * 2,
            "two TTL windows, at most one generation per (domain, window)"
        );
    }

    // Phase C: the refreshed entries serve the next round fresh.
    let stats = run_load(&scenario, 1, Duration::ZERO, |_| {});
    assert_eq!(stats.failures, 0);
    let metrics = resolver.lock().metrics();
    assert_eq!(
        metrics.generations as usize,
        DOMAINS * 2,
        "no further fan-outs"
    );
    assert_eq!(
        metrics.hits as usize,
        CLIENTS * 3 - DOMAINS + CLIENTS,
        "phase C is all fresh hits"
    );
}

#[test]
fn uncached_baseline_pays_one_generation_per_query() {
    let scenario = build_scenario(1201);
    let resolver = scenario
        .install_caching_frontend(PoolConfig::algorithm1(), CacheConfig::uncached())
        .unwrap();
    let stats = run_load(&scenario, 1, Duration::ZERO, |_| {});
    assert_eq!(stats.failures, 0);
    let metrics = resolver.lock().metrics();
    assert_eq!(metrics.queries as usize, CLIENTS);
    assert_eq!(
        (metrics.generations - metrics.generation_failures) as usize,
        CLIENTS,
        "every query ran its own full generation"
    );
}

#[test]
fn cached_serving_is_cheaper_on_the_wire_and_faster_for_clients() {
    // Same population, same domains, same seed: compare the DoH traffic and
    // client latency of one round against the uncached baseline.
    let cached_scenario = build_scenario(1202);
    let cached = cached_scenario
        .install_caching_frontend(PoolConfig::algorithm1(), cache_config())
        .unwrap();
    // Warm the cache with one round, then measure a steady-state round.
    run_load(&cached_scenario, 1, Duration::ZERO, |_| {});
    cached_scenario.net.reset_metrics();
    let warm_stats = run_load(&cached_scenario, 1, Duration::ZERO, |_| {});
    let cached_doh_requests = cached_scenario.net.metrics().secure_requests;

    let uncached_scenario = build_scenario(1202);
    let uncached = uncached_scenario
        .install_caching_frontend(PoolConfig::algorithm1(), CacheConfig::uncached())
        .unwrap();
    // Give the baseline the same warm-up treatment (the DoH resolvers'
    // recursive caches fill up), then measure.
    run_load(&uncached_scenario, 1, Duration::ZERO, |_| {});
    uncached_scenario.net.reset_metrics();
    let uncached_stats = run_load(&uncached_scenario, 1, Duration::ZERO, |_| {});
    let uncached_doh_requests = uncached_scenario.net.metrics().secure_requests;

    // A steady-state cached round performs no DoH fan-out at all; the
    // uncached baseline fans out for every one of the 120 queries.
    assert_eq!(cached_doh_requests, 0);
    assert!(
        uncached_doh_requests >= (CLIENTS * 3) as u64,
        "baseline fan-out: {uncached_doh_requests} DoH requests"
    );

    // And clients feel it: a cache hit costs one front-end round trip,
    // the uncached path adds the whole distributed lookup.
    assert!(
        warm_stats.mean_latency() * 2 < uncached_stats.mean_latency(),
        "cached {:?} vs uncached {:?}",
        warm_stats.mean_latency(),
        uncached_stats.mean_latency()
    );
    // Both serve every client.
    assert_eq!(warm_stats.responses, CLIENTS);
    assert_eq!(uncached_stats.responses, CLIENTS);
    drop(cached);
    drop(uncached);
}
