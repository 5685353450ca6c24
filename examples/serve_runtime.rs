//! Real sockets, real threads: the secure pool-serving stack as an actual
//! Do53 server on loopback.
//!
//! Builds an in-process DoH resolver fleet (one of three resolvers
//! compromised), starts the threaded [`PoolRuntime`] with four shards,
//! hammers it with a handful of concurrent stub clients over
//! UDP, demonstrates the TC=1 truncated-answer retry over TCP against a
//! second small-UDP-limit runtime, and prints the aggregated per-shard
//! statistics before shutting down gracefully.
//!
//! Run with: `cargo run --example serve_runtime`

use std::time::{Duration, Instant};

use secure_doh::core::{check_guarantee, AddressPool, CacheConfig, PoolConfig};
use secure_doh::runtime::{
    LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig,
};
use secure_doh::wire::{Message, RrType};

const SHARDS: usize = 4;
const CLIENTS: usize = 6;
const QUERIES_PER_CLIENT: usize = 200;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== secure pool serving over real sockets ==\n");

    // An in-process fleet: three full RFC 8484 DoH terminators over the
    // pool zone; resolver 0 replaces every answer with attacker addresses.
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 3,
        pool_domains: 4,
        addresses_per_domain: 8,
        compromised: vec![0],
        ..LoopbackConfig::default()
    });
    println!(
        "in-process DoH fleet: {} resolvers ({} compromised), {} pool domains",
        fleet.infos.len(),
        1,
        fleet.domains.len()
    );

    let shards = fleet.shards(SHARDS, PoolConfig::algorithm1(), CacheConfig::default())?;
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards)?;
    println!(
        "runtime up: udp {} / tcp {} with {} shards\n",
        runtime.udp_addr(),
        runtime.tcp_addr(),
        runtime.shard_count()
    );

    // Concurrent client threads, each a plain blocking stub resolver.
    let udp = runtime.udp_addr();
    let tcp = Some(runtime.tcp_addr());
    let domains = fleet.domains.clone();
    let truth = fleet.ground_truth();
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let domains = domains.clone();
            let truth = truth.clone();
            std::thread::spawn(move || {
                let stub = RuntimeClient::connect(udp, tcp).expect("client socket");
                for i in 0..QUERIES_PER_CLIENT {
                    let id = (client * QUERIES_PER_CLIENT + i) as u16;
                    let domain = domains[(client + i) % domains.len()].clone();
                    let response = stub
                        .query(&Message::query(id, domain, RrType::A))
                        .expect("query answered");
                    let mut pool = AddressPool::new();
                    for addr in response.answer_addresses() {
                        pool.push(addr, "served");
                    }
                    let check = check_guarantee(&pool, &truth, 0.5);
                    assert!(check.holds, "served answer violates the guarantee");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let elapsed = started.elapsed();
    let total_queries = (CLIENTS * QUERIES_PER_CLIENT) as f64;
    println!(
        "{CLIENTS} clients x {QUERIES_PER_CLIENT} queries in {:.0} ms \
         ({:.0} q/s), every answer guarantee-checked",
        elapsed.as_secs_f64() * 1000.0,
        total_queries / elapsed.as_secs_f64()
    );

    // The TC=1 → TCP retry path: a second runtime with a deliberately
    // tiny UDP payload limit truncates the ~700-byte answer, and the
    // client transparently retries the same query over TCP.
    let tiny = PoolRuntime::start(
        RuntimeConfig::default().with_udp_payload_limit(128),
        fleet.shards(1, PoolConfig::algorithm1(), CacheConfig::default())?,
    )?;
    let stub = RuntimeClient::connect(tiny.udp_addr(), Some(tiny.tcp_addr()))?
        .with_timeout(Duration::from_secs(5))?;
    let retried = stub.query(&Message::query(9999, domains[0].clone(), RrType::A))?;
    let tiny_stats = tiny.shutdown();
    println!(
        "tcp fallback: {} truncated UDP response(s), retried answer carried {} addresses\n",
        tiny_stats.truncated_responses,
        retried.answer_addresses().len()
    );

    let stats = runtime.shutdown();
    println!("final statistics (graceful shutdown):");
    println!(
        "  queries {} | generations {} | hits {} | hit ratio {:.1}% | truncated {}",
        stats.total.serve.queries,
        stats.total.serve.generations,
        stats.total.serve.hits,
        stats.total.serve.hit_ratio() * 100.0,
        stats.truncated_responses,
    );
    for (index, shard) in stats.per_shard.iter().enumerate() {
        match shard {
            Some(shard) => println!(
                "  shard {index}: {} queries, {} generations, {} cached entries",
                shard.serve.queries, shard.serve.generations, shard.entries
            ),
            None => println!("  shard {index}: unresponsive (snapshot timed out)"),
        }
    }
    println!(
        "  upstream DoH lookups: {} answered, {} failed",
        stats.total.serve.source_answers, stats.total.serve.source_failures
    );
    Ok(())
}
