//! Multi-threaded stress test of the real-socket runtime: N client
//! threads hammer the UDP front end over loopback. Asserts that no
//! response is lost or duplicated, that per-shard metrics only ever move
//! forward, and that shutdown drains cleanly with every thread joined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sdoh_core::{CacheConfig, PoolConfig, ServeSnapshot};
use sdoh_dns_wire::{Message, Rcode, RrType, Ttl};
use sdoh_runtime::{LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 50;
const SHARDS: usize = 4;
const DOMAINS: usize = 6;

/// Every counter pair of `later` is at least `earlier`'s — metrics never
/// move backwards between two observations of the same shard.
fn assert_monotone(earlier: &ServeSnapshot, later: &ServeSnapshot, shard: usize) {
    let regressed = later.regressions(earlier);
    assert!(
        regressed.is_empty(),
        "shard {shard}: {regressed:?} went backwards"
    );
}

#[test]
fn concurrent_clients_lose_nothing_and_shutdown_is_clean() {
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 3,
        pool_domains: DOMAINS,
        addresses_per_domain: 4, // 12-record answers fit the UDP limit
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(
            SHARDS,
            PoolConfig::algorithm1(),
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(300))
                .with_stale_window(Duration::from_secs(300)),
        )
        .expect("valid config");
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let udp = runtime.udp_addr();
    let tcp = Some(runtime.tcp_addr());
    let domains = fleet.domains.clone();

    let answered = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let domains = domains.clone();
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let stub = RuntimeClient::connect(udp, tcp).expect("client socket");
                for i in 0..QUERIES_PER_CLIENT {
                    // Unique id per in-flight query of this client; the
                    // client discards responses that answer anything else,
                    // so a duplicate or crossed response would surface as
                    // a timeout here.
                    let id = (client * QUERIES_PER_CLIENT + i) as u16;
                    let domain = domains[(client + i) % domains.len()].clone();
                    let response = stub
                        .query(&Message::query(id, domain, RrType::A))
                        .unwrap_or_else(|e| panic!("client {client} query {i}: {e}"));
                    assert_eq!(response.header.id, id);
                    assert_eq!(response.header.rcode, Rcode::NoError);
                    assert_eq!(response.answer_addresses().len(), 12);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Observe mid-flight and once more near the end: per-shard counters
    // must be monotone across observations.
    std::thread::sleep(Duration::from_millis(50));
    let mid = runtime.stats();
    std::thread::sleep(Duration::from_millis(100));
    let later = runtime.stats();
    for (shard, (earlier, after)) in mid.per_shard.iter().zip(&later.per_shard).enumerate() {
        let earlier = earlier
            .as_ref()
            .expect("shard answered mid-flight snapshot");
        let after = after.as_ref().expect("shard answered later snapshot");
        assert_monotone(earlier, after, shard);
    }
    assert!(
        later.per_shard.iter().all(Option::is_some),
        "no wedged shards under load"
    );

    for worker in workers {
        worker.join().expect("client thread panicked");
    }
    let sent = (CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert_eq!(answered.load(Ordering::Relaxed), sent, "no lost responses");

    // Graceful shutdown: drains the queues, joins every runtime thread
    // (a hang here fails the test by timeout) and the final aggregate
    // accounts for every accepted query exactly once.
    let stats = runtime.shutdown();
    assert_eq!(stats.total.serve.queries, sent, "no duplicated accounting");
    assert_eq!(stats.udp_queries, sent);
    assert_eq!(
        stats.total.serve.generations as usize, DOMAINS,
        "cold burst coalesced to one generation per domain"
    );
    let serve = stats.total.serve;
    assert_eq!(
        serve.hits + serve.stale_serves + serve.negative_hits + serve.misses,
        serve.queries,
        "every query is a hit of some kind or a miss: {serve:?}"
    );
    assert!(
        serve.coalesced_waiters <= serve.misses,
        "a coalesced waiter is a miss that joined: {serve:?}"
    );
    for (shard, snapshot) in stats.per_shard.iter().enumerate() {
        let snapshot = snapshot.as_ref().expect("shard answered final snapshot");
        let earlier = later.per_shard[shard]
            .as_ref()
            .expect("shard answered later snapshot");
        assert_monotone(earlier, snapshot, shard);
        // Shard-local consistency of the final snapshot: every query the
        // shard took found one lookup outcome.
        let serve = &snapshot.serve;
        assert_eq!(
            serve.queries,
            serve.hits + serve.negative_hits + serve.stale_serves + serve.misses,
            "shard {shard} snapshot is internally consistent"
        );
    }
    let active = stats
        .per_shard
        .iter()
        .flatten()
        .filter(|s| s.serve.queries > 0)
        .count();
    assert!(active > 1, "{DOMAINS} domains only ever hit {active} shard");
}

#[test]
fn shutdown_with_queued_work_answers_before_exiting() {
    // A runtime shut down immediately after a burst must still drain the
    // queue: accepted queries are answered, not dropped.
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 3,
        pool_domains: 2,
        addresses_per_domain: 4,
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(2, PoolConfig::algorithm1(), CacheConfig::default())
        .expect("valid config");
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let client = RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr()))
        .expect("client socket");

    let response = client
        .query(&Message::query(1, fleet.domains[0].clone(), RrType::A))
        .expect("answered");
    assert_eq!(response.answer_addresses().len(), 12);

    let stats = runtime.shutdown();
    assert_eq!(stats.total.serve.queries, 1);
    // Shutting down twice is impossible by construction (shutdown consumes
    // the runtime) — the type system is the orphan-thread guard.
}
