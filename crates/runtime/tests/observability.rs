//! The observability plane, end to end over real sockets: a loopback
//! runtime exports `/metrics` and `/healthz` from its stats listener; exported counters reconcile exactly with the queries a
//! real UDP client sent; cross-shard histogram merge and percentile
//! extraction behave; and the registry lints clean — every public counter
//! ships a help string (this test backs the CI counter-help lint).

use std::time::Duration;

use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_dns_wire::{Message, RrType, Ttl};
use sdoh_metrics::{http_get, parse_prometheus, HistogramSnapshot, Sample, SampleValue};
use sdoh_runtime::{
    LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig, Shard,
};

const SHARDS: usize = 4;

fn build() -> (LoopbackFleet, Vec<Shard>) {
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 3,
        pool_domains: 4,
        addresses_per_domain: 8,
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(
            SHARDS,
            PoolConfig::algorithm1(),
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(60))
                .with_stale_window(Duration::from_secs(60)),
        )
        .expect("valid config");
    (fleet, shards)
}

fn stats_config() -> RuntimeConfig {
    RuntimeConfig::default().with_stats_bind(Some(std::net::SocketAddr::from(([127, 0, 0, 1], 0))))
}

fn counter(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            SampleValue::Counter(v) => *v,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

#[test]
fn exported_counters_reconcile_with_client_ground_truth() {
    let (fleet, shards) = build();
    let runtime = PoolRuntime::start(stats_config(), shards).expect("bind loopback");
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let client =
        RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");

    let mut sent = 0u64;
    for round in 0..5 {
        for domain in &fleet.domains {
            sent += 1;
            let response = client
                .query(&Message::query(sent as u16, domain.clone(), RrType::A))
                .expect("query answered");
            assert!(!response.answer_addresses().is_empty(), "round {round}");
        }
    }

    // Scrape over real HTTP and parse the Prometheus text back.
    let scrape = http_get(stats_addr, "/metrics", Duration::from_secs(5)).expect("scrape");
    assert_eq!(scrape.status, 200);
    let samples = parse_prometheus(&scrape.body).expect("parseable exposition");

    // Exact reconciliation: every query the client sent is counted, once.
    assert_eq!(counter(&samples, "sdoh_udp_queries_total"), sent);
    assert_eq!(counter(&samples, "sdoh_serve_queries_total"), sent);
    let answered_or_missed: u64 = [
        "sdoh_serve_hits_total",
        "sdoh_serve_stale_serves_total",
        "sdoh_serve_negative_hits_total",
        "sdoh_serve_misses_total",
    ]
    .iter()
    .map(|name| counter(&samples, name))
    .sum();
    assert_eq!(answered_or_missed, sent, "every query hit or missed");
    assert!(
        counter(&samples, "sdoh_serve_coalesced_waiters_total")
            <= counter(&samples, "sdoh_serve_misses_total"),
        "a coalesced waiter is a miss that joined"
    );

    // The per-shard latency histograms merge to exactly one observation
    // per query, and the merged p99 is a plausible serving latency.
    let latency: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "sdoh_serve_latency_seconds")
        .collect();
    assert!(!latency.is_empty(), "latency histograms exported");
    let mut merged = HistogramSnapshot::default();
    for sample in &latency {
        match &sample.value {
            SampleValue::Histogram(h) => merged.merge(h),
            other => panic!("latency series is not a histogram: {other:?}"),
        }
    }
    assert_eq!(merged.count(), sent, "one latency observation per query");
    let p99 = merged.quantile(0.99).expect("non-empty histogram");
    assert!(p99 < Duration::from_secs(10), "implausible p99 {p99:?}");

    // `/metrics` is the one format: there is no JSON flavour of it.
    let json = http_get(stats_addr, "/metrics.json", Duration::from_secs(5)).expect("404");
    assert_eq!(json.status, 404);

    // Healthy instance: all shards answer, probe says ready.
    let health = http_get(stats_addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!(health.status, 200, "body: {}", health.body);
    assert!(health.body.starts_with("ok\n"));
    assert!(health.body.contains(&format!("shards {SHARDS}")));
    assert!(health.body.contains("unresponsive_shards 0"));

    // Unknown paths 404 without killing the listener.
    let missing = http_get(stats_addr, "/nope", Duration::from_secs(5)).expect("404");
    assert_eq!(missing.status, 404);

    let stats = runtime.shutdown();
    assert_eq!(stats.total.serve.queries, sent);
    // After shutdown the listener is gone.
    assert!(http_get(stats_addr, "/metrics", Duration::from_millis(300)).is_err());
}

/// The per-source outcome counters, as `/metrics` exports them, after a
/// scripted run: the four pool domains asked once each (three resolvers
/// answer each generation) and one name outside every zone (each resolver
/// refuses it, so each fails). Counted as the flights land.
#[test]
fn source_outcomes_reach_the_exposition() {
    let (fleet, shards) = build();
    let runtime = PoolRuntime::start(stats_config(), shards).expect("bind loopback");
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let client =
        RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");
    for (id, domain) in (1..).zip(&fleet.domains) {
        let response = client
            .query(&Message::query(id, domain.clone(), RrType::A))
            .expect("query answered");
        assert!(!response.answer_addresses().is_empty());
    }
    let outside = Message::query(9, "outside.example".parse().unwrap(), RrType::A);
    let refused = client.query(&outside).expect("query answered");
    assert!(refused.answer_addresses().is_empty());

    let scrape = http_get(stats_addr, "/metrics", Duration::from_secs(5)).expect("scrape");
    let samples = parse_prometheus(&scrape.body).expect("parseable exposition");
    assert_eq!(counter(&samples, "sdoh_generations_total"), 5);
    assert_eq!(counter(&samples, "sdoh_source_answers_total"), 12);
    assert_eq!(counter(&samples, "sdoh_source_failures_total"), 3);
    runtime.shutdown();
}

#[test]
fn registry_lints_clean_every_counter_has_help() {
    // The CI counter-help lint: a full runtime registry — front-door
    // counters, per-shard histograms and the serve-layer collector — must
    // not export a single series without a help string.
    let (_fleet, shards) = build();
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let missing = runtime.registry().lint();
    assert!(
        missing.is_empty(),
        "series without help strings: {missing:?}"
    );
    let samples = runtime.registry().gather();
    assert!(samples.iter().any(|s| s.name == "sdoh_udp_queries_total"));
    assert!(samples.iter().any(|s| s.name == "sdoh_serve_queries_total"));
    assert!(samples.iter().any(|s| s.name == "sdoh_unresponsive_shards"));
    assert!(samples.iter().any(|s| s.name == "sdoh_shard_wakes_total"));
    assert!(samples
        .iter()
        .any(|s| s.name == "sdoh_timer_lateness_seconds"));
    // Nothing is handed off and nothing is queued: no series says so.
    assert!(!samples
        .iter()
        .any(|s| s.name == "sdoh_queries_handed_off_total" || s.name == "sdoh_shard_queue_depth"));
    assert!(
        samples
            .iter()
            .filter(|s| s.name == "sdoh_serve_latency_seconds")
            .count()
            == SHARDS,
        "one latency histogram per shard"
    );
    runtime.shutdown();
}

#[test]
fn runtime_stats_render_as_text() {
    let (fleet, shards) = build();
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let client =
        RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");
    for (i, domain) in fleet.domains.iter().enumerate() {
        client
            .query(&Message::query(i as u16 + 1, domain.clone(), RrType::A))
            .expect("query answered");
    }
    let stats = runtime.shutdown();

    // The statistics print as their `Debug` form: every shard's snapshot
    // is there, none timed out.
    let text = format!("{stats:?}");
    assert!(text.starts_with("RuntimeStats {"), "{text}");
    assert!(text.contains(&format!("queries: {}", stats.total.serve.queries)));
    assert_eq!(stats.per_shard.len(), SHARDS);
    assert!(!text.contains("None"), "{text}");
}
