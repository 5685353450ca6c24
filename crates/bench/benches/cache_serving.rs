//! Benchmarks of the pool-serving subsystem: per-query host cost of the
//! cached front end against the uncached generate-per-query baseline, and
//! a cold burst coalesced onto live flights through the stepwise entry.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdoh_core::{CacheConfig, CachingPoolResolver, PoolConfig, ServeStep};
use sdoh_dns_server::{ClientExchanger, Exchanger, QueryHandler};
use sdoh_dns_wire::{Message, RrType, Ttl};
use secure_doh::scenario::{Scenario, ScenarioConfig, CLIENT_ADDR};

const DOMAINS: usize = 4;

fn scenario() -> Scenario {
    Scenario::build(ScenarioConfig {
        seed: 3,
        resolvers: 3,
        ntp_servers: 8,
        pool_domains: DOMAINS,
        ..ScenarioConfig::default()
    })
}

fn query(id: u16, scenario: &Scenario, client: usize) -> Message {
    Message::query(
        id,
        scenario.pool_domains[client % DOMAINS].clone(),
        RrType::A,
    )
}

/// One query against the uncached baseline: a full distributed generation
/// every iteration.
fn bench_uncached_query(c: &mut Criterion) {
    let scenario = scenario();
    let mut resolver = CachingPoolResolver::new(
        scenario.pool_generator(PoolConfig::algorithm1()).unwrap(),
        CacheConfig::uncached(),
    );
    let mut id: u16 = 0;
    c.bench_function("serve/uncached_query", |b| {
        b.iter(|| {
            id = id.wrapping_add(1);
            let mut exchanger = ClientExchanger::new(&scenario.net, CLIENT_ADDR);
            resolver.handle_query(&mut exchanger, &query(id, &scenario, id as usize))
        })
    });
}

/// One query against the warm cache: the steady-state serving cost.
fn bench_cached_hit(c: &mut Criterion) {
    let scenario = scenario();
    // A TTL far beyond the measured virtual time keeps every iteration a
    // fresh hit.
    let config = CacheConfig::default()
        .with_ttl(Ttl::from_secs(u32::MAX))
        .with_stale_window(Duration::ZERO);
    let mut resolver = CachingPoolResolver::new(
        scenario.pool_generator(PoolConfig::algorithm1()).unwrap(),
        config,
    );
    let mut exchanger = ClientExchanger::new(&scenario.net, CLIENT_ADDR);
    for i in 0..DOMAINS as u16 {
        resolver.handle_query(&mut exchanger, &query(i + 1, &scenario, i as usize));
    }
    let mut id: u16 = 100;
    c.bench_function("serve/cached_hit", |b| {
        b.iter(|| {
            id = id.wrapping_add(1);
            let mut exchanger = ClientExchanger::new(&scenario.net, CLIENT_ADDR);
            resolver.handle_query(&mut exchanger, &query(id, &scenario, id as usize))
        })
    });
}

/// Serves `queries` as one burst through the stepwise entry, the way a
/// shard does: begin them all — a miss joins the flight in the air for its
/// key or opens one — then send what the flights have to send as one batch,
/// land the outcomes and answer what was parked. Returns the answers, in the
/// order they were given.
fn serve_burst(
    resolver: &mut CachingPoolResolver,
    exchanger: &mut dyn Exchanger,
    queries: &[Message],
) -> Vec<Vec<u8>> {
    let mut answers = Vec::with_capacity(queries.len());
    let mut parked = Vec::new();
    for query in queries {
        let mut out = Vec::new();
        match resolver
            .begin(exchanger, query, &mut out)
            .expect("encodable")
        {
            None => answers.push(out),
            Some(flight) => parked.push((flight, query)),
        }
    }
    let (mut tags, mut requests) = (Vec::new(), Vec::new());
    loop {
        match resolver.poll(exchanger.now()) {
            ServeStep::Transmit {
                flight,
                transaction,
                request,
            } => {
                tags.push((flight, transaction));
                requests.push(request);
            }
            ServeStep::Landed(landed) => {
                for (_, query) in parked.iter().filter(|(flight, _)| *flight == landed.flight) {
                    let mut out = Vec::new();
                    landed.answer_wire(query, &mut out).expect("encodable");
                    answers.push(out);
                }
            }
            ServeStep::Wait(_) if requests.is_empty() => return answers,
            ServeStep::Wait(_) => {
                for outcome in exchanger.exchange_all(std::mem::take(&mut requests)) {
                    let (flight, transaction) = tags[outcome.index];
                    resolver
                        .land(flight, transaction, outcome.result)
                        .expect("a tag of this batch");
                }
                tags.clear();
            }
        }
    }
}

/// A cold burst of coalesced queries: N clients, DOMAINS flights.
fn bench_coalesced_cold_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/coalesced_cold_burst");
    group.sample_size(20);
    for &clients in &[16usize, 64] {
        let scenario = scenario();
        let generator = scenario.pool_generator(PoolConfig::algorithm1()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(clients), &clients, |b, _| {
            b.iter(|| {
                // Nothing is cached, every burst is cold and every
                // iteration pays exactly DOMAINS coalesced generations.
                let mut resolver = CachingPoolResolver::new(
                    scenario.pool_generator(PoolConfig::algorithm1()).unwrap(),
                    CacheConfig::uncached(),
                );
                let queries: Vec<Message> = (0..clients)
                    .map(|i| query(i as u16 + 1, &scenario, i))
                    .collect();
                let mut exchanger = ClientExchanger::new(&scenario.net, CLIENT_ADDR);
                serve_burst(&mut resolver, &mut exchanger, &queries)
            })
        });
        let _ = generator;
    }
    group.finish();

    // Side channel: the serving economics in virtual time, printed once —
    // the quantity E11 (exp_cache_serving) tabulates in full.
    let table = sdoh_bench::cache_serving::run(&[100], 3, 3);
    for row in table.rows() {
        println!(
            "serve/economics/{}: {} queries, {} generations, {} q/gen, {} ms mean",
            row[0], row[2], row[3], row[5], row[6]
        );
    }
}

criterion_group!(
    benches,
    bench_uncached_query,
    bench_cached_hit,
    bench_coalesced_cold_burst
);
criterion_main!(benches);
