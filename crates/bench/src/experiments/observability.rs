//! E17 — the fleet observability plane, reconciled against ground truth.
//!
//! A loopback fleet of **N independent [`PoolRuntime`] instances**, each
//! with its own stats listener, is driven by client threads that keep an
//! exact record of what they sent and how long each query took. The
//! fleet aggregator then scrapes every instance's `/metrics` endpoint
//! (the same [`scrape_fleet`] path the `fleet-aggregator` binary uses)
//! and the experiment checks that the exported numbers *reconcile*:
//!
//! 1. **Counter exactness** — the fleet-aggregated `sdoh_udp_queries_total`
//!    and `sdoh_serve_queries_total` equal the number of queries the
//!    clients actually sent. Not approximately: exactly.
//! 2. **Histogram fidelity** — the merged `sdoh_serve_latency_seconds`
//!    histogram counts every query, and a histogram fed the clients'
//!    exact latencies extracts a p99 within one power-of-two bucket of
//!    the true (sorted) p99.
//! 3. **Health** — every instance reports `/healthz` 200 while alive.
//!
//! Counter reconciliation is host-independent and asserted; the p99
//! figures are host wall-clock and recorded as-is. What a latency
//! recording costs is `pool-bench`'s `metrics.histogram_record_ns` row.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sdoh_analysis::Table;
use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_metrics::{bucket_index, scrape_fleet, FleetRollup, Histogram};
use sdoh_runtime::{LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig};
use secure_doh::wire::{Message, RrType, Ttl};

/// Pool domains each instance publishes.
const DOMAINS: usize = 8;

/// Per-exchange upstream latency for the cold generations (kept small:
/// E17 is about accounting, not generation cost).
const UPSTREAM_LATENCY: Duration = Duration::from_millis(1);

/// Scrape timeout for `/metrics` and `/healthz`.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// One instance of the loopback fleet, alive for the measurement.
struct Instance {
    runtime: PoolRuntime,
    domains: Vec<secure_doh::wire::Name>,
    // Keeps the in-process DoH backends alive for the runtime's lifetime.
    _fleet: LoopbackFleet,
}

/// The measured fleet reconciliation.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Runtime instances in the fleet.
    pub instances: usize,
    /// Worker shards per instance.
    pub shards: usize,
    /// Queries the clients sent (cold sweeps + warm load), exactly.
    pub queries_sent: u64,
    /// Fleet-aggregated `sdoh_udp_queries_total`.
    pub fleet_udp_queries: u64,
    /// Fleet-aggregated `sdoh_serve_queries_total`.
    pub fleet_serve_queries: u64,
    /// Observation count of the merged serve-latency histogram.
    pub latency_observations: u64,
    /// True p99 of the client-side round-trip latencies (sorted exact
    /// values), in microseconds.
    pub exact_p99_us: f64,
    /// p99 extracted from a histogram fed those same exact latencies, in
    /// microseconds (the bucket upper bound).
    pub histogram_p99_us: f64,
    /// Bucket distance between the two p99s (0 = same bucket).
    pub p99_bucket_distance: usize,
    /// Instances whose `/healthz` returned 200 at scrape time.
    pub healthy_instances: usize,
}

/// Starts one runtime instance with a stats listener on an ephemeral
/// loopback port.
fn start_instance(shards: usize, seed: u64) -> Instance {
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 3,
        pool_domains: DOMAINS,
        addresses_per_domain: 8,
        upstream_latency: UPSTREAM_LATENCY,
        seed,
        ..LoopbackConfig::default()
    });
    let shard_set = fleet
        .shards(
            shards,
            PoolConfig::algorithm1(),
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(3600))
                .with_stale_window(Duration::from_secs(3600)),
        )
        .expect("valid configuration");
    let config = RuntimeConfig::default()
        .with_stats_bind(Some("127.0.0.1:0".parse().expect("loopback addr")));
    let runtime = PoolRuntime::start(config, shard_set).expect("bind loopback");
    let domains = fleet.domains.clone();
    Instance {
        runtime,
        domains,
        _fleet: fleet,
    }
}

/// Warms an instance (one query per domain) and then drives `clients`
/// threads of `queries_per_client` warm queries each, returning every
/// exact client-side round-trip latency. The returned count is the
/// ground truth: cold sweep + warm load.
fn drive_load(
    instance: &Instance,
    clients: usize,
    queries_per_client: usize,
) -> (u64, Vec<Duration>) {
    let udp = instance.runtime.udp_addr();
    let tcp = Some(instance.runtime.tcp_addr());

    let stub = RuntimeClient::connect(udp, tcp).expect("client socket");
    for (i, domain) in instance.domains.iter().enumerate() {
        stub.query(&Message::query(i as u16, domain.clone(), RrType::A))
            .expect("cold query answered");
    }

    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let domains = instance.domains.clone();
            std::thread::spawn(move || {
                let stub = RuntimeClient::connect(udp, tcp).expect("client socket");
                let mut latencies = Vec::with_capacity(queries_per_client);
                for i in 0..queries_per_client {
                    let id = (client * queries_per_client + i) as u16;
                    let domain = domains[(client + i) % domains.len()].clone();
                    let sent = Instant::now();
                    stub.query(&Message::query(id, domain, RrType::A))
                        .expect("warm query answered");
                    latencies.push(sent.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(clients * queries_per_client);
    for worker in workers {
        latencies.extend(worker.join().expect("client thread"));
    }
    let sent = (instance.domains.len() + clients * queries_per_client) as u64;
    (sent, latencies)
}

/// Runs the full reconciliation: `instances` runtimes under load, one
/// fleet scrape and the exact accounting checks. Panics if any exported
/// number fails to reconcile — that is the experiment's claim.
pub fn measure(
    instances: usize,
    shards: usize,
    clients: usize,
    queries_per_client: usize,
    seed: u64,
) -> FleetReport {
    assert!(
        instances >= 2,
        "E17 is a fleet experiment: need >= 2 instances"
    );
    let fleet: Vec<Instance> = (0..instances)
        .map(|i| start_instance(shards, seed + i as u64))
        .collect();
    let stats_addrs: Vec<SocketAddr> = fleet
        .iter()
        .map(|inst| inst.runtime.stats_addr().expect("stats listener bound"))
        .collect();

    let mut queries_sent = 0u64;
    let mut exact_latencies: Vec<Duration> = Vec::new();
    for instance in &fleet {
        let (sent, latencies) = drive_load(instance, clients, queries_per_client);
        queries_sent += sent;
        exact_latencies.extend(latencies);
    }

    // One aggregator pass over every instance — the same code path the
    // fleet-aggregator binary runs.
    let rollup = scrape_fleet(&stats_addrs, SCRAPE_TIMEOUT);
    let report = reconcile(&rollup, instances, shards, queries_sent, &exact_latencies);
    for instance in fleet {
        instance.runtime.shutdown();
    }
    report
}

/// Checks the rollup against the clients' ground truth.
fn reconcile(
    rollup: &FleetRollup,
    instances: usize,
    shards: usize,
    queries_sent: u64,
    exact_latencies: &[Duration],
) -> FleetReport {
    assert_eq!(
        rollup.instances_scraped(),
        instances,
        "every instance scraped"
    );
    let healthy_instances = rollup
        .health
        .iter()
        .filter(|h| h.healthy == Some(true))
        .count();
    assert_eq!(healthy_instances, instances, "every instance healthy");

    let fleet_udp_queries = rollup
        .counter_total("sdoh_udp_queries_total")
        .expect("fleet exports sdoh_udp_queries_total");
    let fleet_serve_queries = rollup
        .counter_total("sdoh_serve_queries_total")
        .expect("fleet exports sdoh_serve_queries_total");
    assert_eq!(
        fleet_udp_queries, queries_sent,
        "exported UDP query count equals client sends exactly"
    );
    assert_eq!(
        fleet_serve_queries, queries_sent,
        "exported serve count equals client sends exactly"
    );

    let merged = rollup
        .histogram_merged("sdoh_serve_latency_seconds")
        .expect("fleet exports per-shard latency histograms");
    let latency_observations = merged.count();
    assert_eq!(
        latency_observations, queries_sent,
        "every served query was observed by a latency histogram"
    );

    // Histogram p99 fidelity on ground-truth data: feed the exact
    // client-side latencies into a histogram and compare its p99 with the
    // true sorted p99. The extraction reports a bucket upper bound, so
    // the two must land in the same power-of-two bucket (distance 0; we
    // allow 1 for an exact-boundary value).
    let mut sorted = exact_latencies.to_vec();
    sorted.sort();
    let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
    let exact_p99 = sorted[rank - 1];
    let client_histogram = Histogram::new();
    for &latency in exact_latencies {
        client_histogram.record(latency);
    }
    let histogram_p99 = client_histogram
        .snapshot()
        .quantile(0.99)
        .expect("non-empty histogram");
    let p99_bucket_distance = bucket_index(histogram_p99).abs_diff(bucket_index(exact_p99));
    assert!(
        p99_bucket_distance <= 1,
        "histogram p99 ({histogram_p99:?}) within one bucket of exact p99 ({exact_p99:?})"
    );

    FleetReport {
        instances,
        shards,
        queries_sent,
        fleet_udp_queries,
        fleet_serve_queries,
        latency_observations,
        exact_p99_us: exact_p99.as_secs_f64() * 1e6,
        histogram_p99_us: histogram_p99.as_secs_f64() * 1e6,
        p99_bucket_distance,
        healthy_instances,
    }
}

/// Runs the experiment and tabulates the reconciliation.
pub fn run(
    instances: usize,
    shards: usize,
    clients: usize,
    queries_per_client: usize,
    seed: u64,
) -> (Table, FleetReport) {
    let report = measure(instances, shards, clients, queries_per_client, seed);
    let mut table = Table::new(
        "E17: fleet observability — exported metrics vs client ground truth",
        &["check", "ground truth", "exported", "verdict"],
    );
    table.push_row([
        "udp queries (fleet sum)".to_string(),
        report.queries_sent.to_string(),
        report.fleet_udp_queries.to_string(),
        verdict(report.fleet_udp_queries == report.queries_sent),
    ]);
    table.push_row([
        "serve queries (fleet sum)".to_string(),
        report.queries_sent.to_string(),
        report.fleet_serve_queries.to_string(),
        verdict(report.fleet_serve_queries == report.queries_sent),
    ]);
    table.push_row([
        "latency observations".to_string(),
        report.queries_sent.to_string(),
        report.latency_observations.to_string(),
        verdict(report.latency_observations == report.queries_sent),
    ]);
    table.push_row([
        "p99 (us)".to_string(),
        format!("{:.1}", report.exact_p99_us),
        format!("{:.1}", report.histogram_p99_us),
        format!("bucket distance {}", report.p99_bucket_distance),
    ]);
    table.push_row([
        "healthy instances".to_string(),
        report.instances.to_string(),
        report.healthy_instances.to_string(),
        verdict(report.healthy_instances == report.instances),
    ]);
    (table, report)
}

fn verdict(ok: bool) -> String {
    if ok { "exact" } else { "MISMATCH" }.to_string()
}

/// Serializes the report as the body of a `BENCH_observability.json`
/// document (the members after the runner's header).
pub fn report_body(report: &FleetReport) -> String {
    let mut out = String::from("  \"fleet\": {\n");
    out.push_str(&format!("    \"instances\": {},\n", report.instances));
    out.push_str(&format!(
        "    \"shards_per_instance\": {},\n",
        report.shards
    ));
    out.push_str(&format!("    \"queries_sent\": {},\n", report.queries_sent));
    out.push_str(&format!(
        "    \"fleet_udp_queries\": {},\n",
        report.fleet_udp_queries
    ));
    out.push_str(&format!(
        "    \"fleet_serve_queries\": {},\n",
        report.fleet_serve_queries
    ));
    out.push_str(&format!(
        "    \"latency_observations\": {},\n",
        report.latency_observations
    ));
    out.push_str(&format!(
        "    \"healthy_instances\": {}\n",
        report.healthy_instances
    ));
    out.push_str("  },\n");
    out.push_str("  \"p99\": {\n");
    out.push_str(&format!("    \"exact_us\": {:.1},\n", report.exact_p99_us));
    out.push_str(&format!(
        "    \"histogram_us\": {:.1},\n",
        report.histogram_p99_us
    ));
    out.push_str(&format!(
        "    \"bucket_distance\": {}\n",
        report.p99_bucket_distance
    ));
    out.push_str("  }\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_counters_reconcile_exactly() {
        // Smoke scale: 2 instances x 2 shards, 3 clients x 15 queries
        // each. measure() itself asserts the reconciliation; the test
        // checks the report on top.
        let (table, report) = run(2, 2, 3, 15, 17);
        assert_eq!(table.rows().len(), 5);
        assert_eq!(report.queries_sent, 2 * (DOMAINS + 3 * 15) as u64);
        assert_eq!(report.fleet_udp_queries, report.queries_sent);
        assert_eq!(report.latency_observations, report.queries_sent);
        assert!(report.p99_bucket_distance <= 1);
        assert_eq!(report.healthy_instances, 2);
    }
}
