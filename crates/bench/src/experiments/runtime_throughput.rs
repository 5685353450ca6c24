//! E12 — real-socket serving scalability: the threaded runtime over
//! loopback UDP, multi-shard against the single-shard baseline.
//!
//! Unlike E1–E11, which measure *virtual* time inside the deterministic
//! simulator, this experiment measures **host wall-clock time of real
//! I/O**: client threads send actual UDP datagrams to a
//! [`PoolRuntime`], whose worker threads
//! decode, serve from their per-shard pool caches and reply. Two phases
//! per configuration:
//!
//! 1. **Cold sweep** — one concurrent client per pool domain hits the
//!    empty cache at once, each query paying a full distributed
//!    generation against upstream DoH terminators that add a realistic
//!    per-exchange round-trip latency. A shard parks each miss while its
//!    generation is upstream and goes on to the next, so the generations
//!    overlap at *every* shard count: the sweep costs about one round
//!    trip plus the protocol work, not one round trip per domain. (It
//!    used to take N shards to overlap N generations — a worker sat out
//!    each one — and the sweep's speed-up with shards was this
//!    experiment's headline; generation time is upstream wait, not CPU,
//!    so one worker now gets the same overlap.)
//! 2. **Warm throughput** — the same clients then hammer the warm caches;
//!    every query is a hit. This measures the pure serving path
//!    (decode → shard cache → encode → send). On a multi-core host it
//!    scales with shards too; on a single-core host it is CPU-bound and
//!    flat across shard counts.
//!
//! Numbers are host-dependent (recorded ones come from the machine that
//! produced `BENCH_runtime_throughput.json`, before generations stopped
//! holding their shard); the *shape* — a cold sweep well under its round
//! trips taken one by one, at one shard as at many — is the claim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdoh_analysis::Table;
use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_runtime::{LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig};
use secure_doh::wire::{Message, RrType};

/// Pool domains the load is spread over (enough to populate every shard).
const DOMAINS: usize = 16;

/// One-way latency each in-process DoH exchange pays — the realistic
/// upstream round trip that makes generations expensive, like the
/// scenario layer's simulated links do.
const UPSTREAM_LATENCY: Duration = Duration::from_millis(5);

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Worker shard count.
    pub shards: usize,
    /// Concurrent client threads of the warm phase.
    pub clients: usize,
    /// Wall-clock time for the cold sweep: one concurrent client per
    /// domain, every query paying a generation.
    pub cold_sweep: Duration,
    /// Queries sent (and answered) in the warm phase.
    pub queries: u64,
    /// Wall-clock time for the warm phase.
    pub elapsed: Duration,
    /// Warm queries per second of host time.
    pub throughput: f64,
    /// Mean warm per-query round-trip latency in microseconds.
    pub mean_latency_us: f64,
    /// Pool generations the runtime performed (the cold-sweep misses).
    pub generations: u64,
    /// Fraction of queries served without a generation on the query path.
    pub hit_ratio: f64,
}

/// Measures one configuration: the concurrent cold sweep over every
/// domain, then `clients` threads send `queries_per_client` warm queries
/// each.
pub fn measure(
    shards: usize,
    clients: usize,
    queries_per_client: usize,
    seed: u64,
) -> ThroughputRow {
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
            // A TTL far beyond the run keeps the warm phase all cache hits.
            CacheConfig::default()
                .with_ttl(secure_doh::wire::Ttl::from_secs(3600))
                .with_stale_window(Duration::from_secs(3600)),
        )
        .expect("valid configuration");
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shard_set).expect("bind loopback");
    let udp = runtime.udp_addr();
    let tcp = runtime.tcp_addr();

    // Cold sweep: every domain queried at once against the empty cache. A
    // single shard serializes the generations; N shards overlap them.
    let cold_started = Instant::now();
    let sweepers: Vec<_> = fleet
        .domains
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, domain)| {
            std::thread::spawn(move || {
                let stub = RuntimeClient::connect(udp, tcp).expect("client socket");
                stub.query(&Message::query(i as u16, domain, RrType::A))
                    .expect("cold query answered");
            })
        })
        .collect();
    for sweeper in sweepers {
        sweeper.join().expect("sweep client");
    }
    let cold_sweep = cold_started.elapsed();

    let latency_ns = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let domains = fleet.domains.clone();
            let latency_ns = Arc::clone(&latency_ns);
            std::thread::spawn(move || {
                let stub = RuntimeClient::connect(udp, tcp).expect("client socket");
                for i in 0..queries_per_client {
                    let id = (client * queries_per_client + i) as u16;
                    let domain = domains[(client + i) % domains.len()].clone();
                    let sent = Instant::now();
                    stub.query(&Message::query(id, domain, RrType::A))
                        .expect("query answered");
                    latency_ns.fetch_add(sent.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    let elapsed = started.elapsed();
    let stats = runtime.shutdown();

    let queries = (clients * queries_per_client) as u64;
    assert_eq!(
        stats.total.serve.queries,
        queries + fleet.domains.len() as u64,
        "every sent query was served exactly once"
    );
    ThroughputRow {
        shards,
        clients,
        cold_sweep,
        queries,
        elapsed,
        throughput: queries as f64 / elapsed.as_secs_f64(),
        mean_latency_us: latency_ns.load(Ordering::Relaxed) as f64 / queries as f64 / 1000.0,
        generations: stats.total.serve.generations,
        hit_ratio: stats.total.serve.hit_ratio(),
    }
}

/// Runs the sweep over `shard_counts` and tabulates it.
pub fn run(
    shard_counts: &[usize],
    clients: usize,
    queries_per_client: usize,
    seed: u64,
) -> (Table, Vec<ThroughputRow>) {
    let mut table = Table::new(
        "E12: real-socket serving scalability over loopback UDP vs shard count",
        &[
            "shards",
            "cold sweep (ms)",
            "sweep speedup",
            "clients",
            "warm queries",
            "warm throughput (q/s)",
            "mean latency (us)",
            "generations",
            "hit ratio",
        ],
    );
    let mut rows: Vec<ThroughputRow> = Vec::new();
    for &shards in shard_counts {
        let row = measure(shards, clients, queries_per_client, seed);
        let speedup = rows
            .first()
            .map(|baseline| baseline.cold_sweep.as_secs_f64() / row.cold_sweep.as_secs_f64())
            .unwrap_or(1.0);
        table.push_row([
            row.shards.to_string(),
            format!("{:.0}", row.cold_sweep.as_secs_f64() * 1000.0),
            format!("{speedup:.1}x"),
            row.clients.to_string(),
            row.queries.to_string(),
            format!("{:.0}", row.throughput),
            format!("{:.1}", row.mean_latency_us),
            row.generations.to_string(),
            format!("{:.3}", row.hit_ratio),
        ]);
        rows.push(row);
    }
    (table, rows)
}

/// Serializes the sweep as the repo's `BENCH_*.json` shape.
pub fn to_json(rows: &[ThroughputRow], recorded: &str, notes: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"runtime_throughput\",\n");
    out.push_str(&format!("  \"recorded\": \"{recorded}\",\n"));
    out.push_str(&format!("  \"notes\": \"{notes}\",\n"));
    out.push_str("  \"throughput\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"shards\": {},\n      \"cold_sweep_ms\": {:.1},\n      \
             \"clients\": {},\n      \"warm_queries\": {},\n      \
             \"warm_elapsed_ms\": {:.1},\n      \"warm_throughput_qps\": {:.0},\n      \
             \"mean_latency_us\": {:.1},\n      \"generations\": {},\n      \
             \"hit_ratio\": {:.4}\n    }}{}\n",
            row.shards,
            row.cold_sweep.as_secs_f64() * 1000.0,
            row.clients,
            row.queries,
            row.elapsed.as_secs_f64() * 1000.0,
            row.throughput,
            row.mean_latency_us,
            row.generations,
            row.hit_ratio,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_serves_everything_and_scales_shards() {
        // Smoke scale: harness correctness plus the one host-robust
        // performance claim — the cold sweep overlaps its generations
        // (upstream wait, not CPU), with one shard as with eight.
        let (table, rows) = run(&[1, 8], 3, 20, 12);
        assert_eq!(rows.len(), 2);
        assert_eq!(table.rows().len(), 2);
        for row in &rows {
            assert_eq!(row.queries, 60);
            assert_eq!(row.generations as usize, DOMAINS, "cold-sweep misses only");
            assert!(row.hit_ratio > 0.7, "warm phase is cache-served");
            assert!(row.throughput > 0.0);
        }
        assert_eq!(rows[0].shards, 1);
        assert_eq!(rows[1].shards, 8);
        let one_by_one = UPSTREAM_LATENCY * DOMAINS as u32;
        for row in &rows {
            assert!(
                row.cold_sweep < one_by_one,
                "{} shard(s) swept {DOMAINS} cold domains in {:?}: no faster than \
                 their round trips taken one by one ({one_by_one:?})",
                row.shards,
                row.cold_sweep
            );
        }

        let json = to_json(&rows, "test", "smoke");
        assert!(json.contains("\"benchmark\": \"runtime_throughput\""));
        assert!(json.contains("\"shards\": 8"));
        assert!(json.contains("cold_sweep_ms"));
    }
}
