//! Thread census of a running [`PoolRuntime`]: a runtime owns a dispatcher,
//! a TCP acceptor and one timer for all its shards — nothing else, idle or
//! under load, and as many threads with one shard as with four. Shards,
//! background refreshes, statistics and the upstream exchanges of a
//! generation have no thread of their own.
//!
//! In its own test binary so that no other test's threads are counted.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_dns_wire::{Message, RrType, Ttl};
use sdoh_runtime::{LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeConfig};

/// Domains cached, left to go stale and served stale again: the refreshes
/// of the load phase.
const STALE: usize = 4;
/// Domains first asked for during the load phase.
const COLD: usize = 28;
/// The runtime's threads, by name, whatever its shard count.
const EXPECTED: [&str; 3] = ["sdoh-dispatch", "sdoh-shard-tick", "sdoh-tcp"];

/// The `comm` of every thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// Starts a runtime of `shards` shards, takes its census idle and under
/// load, and shuts it down.
fn census(shards: usize) {
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 5,
        pool_domains: STALE + COLD,
        upstream_latency: Duration::from_millis(2),
        ..LoopbackConfig::default()
    });
    let cache = CacheConfig::default()
        .with_ttl(Ttl::from_secs(1))
        .with_stale_window(Duration::from_secs(3600));
    let shards = fleet
        .shards(shards, PoolConfig::algorithm1(), cache)
        .expect("valid config");
    let before = thread_names().len();
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    // A spawned thread exists before `start` returns; it names itself a
    // moment later, so the names are polled and the count is not.
    assert_eq!(
        thread_names().len() - before,
        EXPECTED.len(),
        "{:?}",
        thread_names()
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    let named = loop {
        let mut named: Vec<String> = thread_names()
            .into_iter()
            .filter(|name| name.starts_with("sdoh-"))
            .collect();
        named.sort();
        if named == EXPECTED || Instant::now() >= deadline {
            break named;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(named, EXPECTED);

    // Under load: every generation fans out to five resolvers over a 2 ms
    // round trip, and none of those exchanges may be a thread. The census
    // is taken over and over while a burst of cold queries and the refreshes
    // of the stale ones are in flight.
    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("client socket");
    socket.connect(runtime.udp_addr()).expect("connect");
    let send = |domain: usize| {
        let query = Message::query(domain as u16, fleet.domains[domain].clone(), RrType::A);
        socket.send(&query.encode().unwrap()).expect("send");
    };
    let mut buf = [0u8; 4096];
    for domain in 0..STALE {
        send(domain);
        socket.recv(&mut buf).expect("primed");
    }
    std::thread::sleep(Duration::from_millis(1100)); // past the 1 s TTL
    (0..STALE + COLD).for_each(send);
    socket
        .set_read_timeout(Some(Duration::from_micros(200)))
        .expect("timeout");
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut answered, mut most, mut censuses) = (0, 0, 0u32);
    let refreshed = loop {
        most = most.max(thread_names().len());
        censuses += 1;
        if socket.recv(&mut buf).is_ok() {
            answered += 1;
        }
        // The stale answers came back at once; their refreshes left as they
        // came due and land among the cold generations.
        // (Asked about only now and then: `stats` reads every shard, and
        // no census is taken meanwhile.)
        let done = answered == STALE + COLD
            && censuses % 32 == 0
            && runtime.stats().total.serve.refreshes >= STALE as u64;
        if done || Instant::now() >= deadline {
            break done;
        }
    };
    assert!(refreshed, "{answered} answers, the refreshes never ran");
    assert_eq!(
        most - before,
        EXPECTED.len(),
        "threads beyond the three named ones appeared under load ({censuses} censuses)"
    );
    runtime.shutdown();
    assert_eq!(thread_names().len(), before, "shutdown joined every thread");
}

#[test]
fn a_runtime_owns_a_dispatcher_a_tcp_acceptor_and_one_timer_whatever_its_shard_count() {
    // One after the other: each census counts only its own runtime.
    census(1);
    census(4);
}
