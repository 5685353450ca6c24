//! Acceptance tests for the sans-IO session redesign: pool generation
//! queries the N resolvers concurrently, so a lookup costs one resolver's
//! round trips — not N times that — while producing exactly the pool the
//! sequential driver produces.

use std::time::Duration;

use secure_doh::core::{Action, PoolConfig};
use secure_doh::scenario::{Scenario, ScenarioConfig};

fn build(seed: u64, resolvers: usize) -> Scenario {
    Scenario::build(ScenarioConfig {
        seed,
        resolvers,
        ntp_servers: 8,
        link_latency: Duration::from_millis(10),
        ..ScenarioConfig::default()
    })
}

#[test]
fn three_resolver_lookup_costs_one_lookup_not_three() {
    // Reference cost: one resolver, one lookup.
    let (single_report, single_elapsed) = build(9001, 1)
        .generate_pool(PoolConfig::algorithm1())
        .unwrap();
    assert_eq!(single_report.answered(), 1);

    // Concurrent fan-out over three resolvers: the lookup completes in the
    // time of the *slowest* resolver. With uniform 10 ms links and +-2 ms
    // jitter that is within a small factor of the single-resolver lookup.
    let (concurrent_report, concurrent_elapsed) = build(9001, 3)
        .generate_pool(PoolConfig::algorithm1())
        .unwrap();
    assert_eq!(concurrent_report.answered(), 3);

    // Sequential baseline over the same three resolvers pays the sum.
    let (sequential_report, sequential_elapsed) = build(9001, 3)
        .generate_pool_sequential(PoolConfig::algorithm1())
        .unwrap();

    assert!(
        concurrent_elapsed < single_elapsed * 2,
        "3-resolver concurrent lookup ({concurrent_elapsed:?}) must cost O(one lookup) \
         ({single_elapsed:?}), not 3x"
    );
    assert!(
        sequential_elapsed > concurrent_elapsed * 2,
        "sequential ({sequential_elapsed:?}) must pay roughly 3x the concurrent \
         latency ({concurrent_elapsed:?})"
    );

    // Concurrency changes latency, never the pool.
    assert_eq!(concurrent_report.pool, sequential_report.pool);
    assert_eq!(concurrent_report.sources, sequential_report.sources);
}

#[test]
fn session_describes_the_full_fanout_before_any_io() {
    let scenario = build(9100, 3);
    let generator = scenario.pool_generator(PoolConfig::algorithm1()).unwrap();
    let mut session = generator.session(scenario.pool_domain(), 1).unwrap();

    // Sans-IO: the session hands out all three transmits up front; nothing
    // on the network has happened yet.
    let mut transmits = Vec::new();
    loop {
        match session.poll() {
            Action::Transmit(t) => transmits.push(t),
            Action::Wait => break,
            other => panic!("unexpected action before responses: {other:?}"),
        }
    }
    assert_eq!(transmits.len(), 3);
    assert_eq!(scenario.net.metrics().requests, 0, "no I/O performed yet");

    // A driver performs the exchanges and feeds the outcomes back.
    for t in transmits {
        let outcome = scenario.net.transact(
            secure_doh::scenario::CLIENT_ADDR,
            t.request.dst,
            t.request.channel,
            &t.request.payload,
            t.request.timeout,
        );
        session.handle_response(t.transaction, outcome).unwrap();
    }
    assert!(matches!(session.poll(), Action::Done));
    let report = session.finish().unwrap();
    assert_eq!(report.pool.len(), 24);
}

#[test]
fn ready_made_drivers_agree_on_the_report() {
    let scenario = build(9200, 3);
    let generator = scenario.pool_generator(PoolConfig::algorithm1()).unwrap();
    let concurrent = generator
        .generate(&mut scenario.client_exchanger(), scenario.pool_domain())
        .unwrap();

    let sequential_scenario = build(9200, 3);
    let sequential = generator
        .generate_sequential(
            &mut sequential_scenario.client_exchanger(),
            sequential_scenario.pool_domain(),
        )
        .unwrap();

    assert_eq!(concurrent, sequential);
}
