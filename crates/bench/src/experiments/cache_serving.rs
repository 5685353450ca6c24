//! E11 — serving at scale: the pool front end with its cache (TTL cache,
//! singleflight, stale-while-revalidate) against the same front end
//! uncached, under a client-population load.
//!
//! Under [`CacheConfig::uncached`] the [`CachingPoolResolver`] performs one
//! full distributed generation per client query, so its serving cost grows
//! linearly with traffic; with a cache it performs at most one generation
//! per `(domain, TTL window)` regardless of the client count. The table makes
//! both visible: queries-per-generation stays ~1 for the baseline and grows
//! with the population for the cached subsystem, while the mean client
//! latency drops from a full fan-out to a single front-end round trip.
//!
//! [`CachingPoolResolver`]: sdoh_core::CachingPoolResolver

use std::time::Duration;

use sdoh_analysis::Table;
use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_netsim::{ChannelKind, ClientPopulation, ConcurrentRequest, LoadDriver, LoadStats};
use secure_doh::scenario::{Scenario, ScenarioConfig, FRONTEND_ADDR};
use secure_doh::wire::{Message, RrType};

/// Pool domains the load is spread over.
const DOMAINS: usize = 4;
/// Virtual pause between load rounds.
const THINK_TIME: Duration = Duration::from_secs(2);
/// Per-query client timeout.
const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

fn build_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig {
        seed,
        resolvers: 3,
        ntp_servers: 8,
        pool_domains: DOMAINS,
        ..ScenarioConfig::default()
    })
}

/// Drives `clients` concurrent clients for `rounds` rounds against the
/// front end installed at [`FRONTEND_ADDR`], client `i` querying pool
/// domain `i % DOMAINS`.
fn drive_load(scenario: &Scenario, clients: usize, rounds: usize) -> LoadStats {
    let domains = scenario.pool_domains.clone();
    let mut next_id: u16 = 1;
    LoadDriver::new(&scenario.net, ClientPopulation::spread(clients))
        .think_time(THINK_TIME)
        .run(
            rounds,
            |_round, client, _addr| {
                let id = next_id;
                next_id = next_id.wrapping_add(1);
                let query = Message::query(id, domains[client % DOMAINS].clone(), RrType::A);
                Some(ConcurrentRequest::new(
                    FRONTEND_ADDR,
                    ChannelKind::Plain,
                    query.encode().expect("encodable query"),
                    QUERY_TIMEOUT,
                ))
            },
            |_round, _client, _result| {},
        )
}

/// Runs the cached and uncached workload per client count and tabulates
/// the serving economics.
pub fn run(client_counts: &[usize], rounds: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "E11: cached vs uncached pool serving under client-population load",
        &[
            "configuration",
            "clients",
            "queries",
            "generations",
            "DoH requests",
            "queries/generation",
            "mean latency (ms)",
            "throughput (q/s)",
        ],
    );

    for &clients in client_counts {
        // Baseline: every query runs its own generation.
        let scenario = build_scenario(seed);
        let resolver = scenario
            .install_uncached_frontend(PoolConfig::algorithm1())
            .expect("valid config");
        scenario.net.reset_metrics();
        let stats = drive_load(&scenario, clients, rounds);
        let metrics = resolver.lock().metrics();
        push_row(
            &mut table,
            &RunRow {
                configuration: "uncached baseline",
                clients,
                stats: &stats,
                queries: metrics.queries,
                generations: metrics.generations,
                doh_requests: scenario.net.metrics().secure_requests,
            },
        );

        // The serving subsystem: one generation per (domain, TTL window).
        let scenario = build_scenario(seed);
        let resolver = scenario
            .install_caching_frontend(PoolConfig::algorithm1(), CacheConfig::default())
            .expect("valid config");
        scenario.net.reset_metrics();
        let stats = drive_load(&scenario, clients, rounds);
        let metrics = resolver.lock().metrics();
        push_row(
            &mut table,
            &RunRow {
                configuration: "caching subsystem",
                clients,
                stats: &stats,
                queries: metrics.queries,
                generations: metrics.generations,
                doh_requests: scenario.net.metrics().secure_requests,
            },
        );
    }
    table
}

/// One measured configuration of the experiment, ready for tabulation.
struct RunRow<'a> {
    configuration: &'a str,
    clients: usize,
    stats: &'a LoadStats,
    queries: u64,
    generations: u64,
    doh_requests: u64,
}

fn push_row(table: &mut Table, row: &RunRow<'_>) {
    let per_generation = if row.generations == 0 {
        f64::INFINITY
    } else {
        row.queries as f64 / row.generations as f64
    };
    table.push_row([
        row.configuration.to_string(),
        row.clients.to_string(),
        row.queries.to_string(),
        row.generations.to_string(),
        row.doh_requests.to_string(),
        format!("{per_generation:.1}"),
        format!("{:.2}", row.stats.mean_latency().as_secs_f64() * 1000.0),
        format!("{:.0}", row.stats.throughput()),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_amortises_while_the_baseline_scales_linearly() {
        let table = run(&[40], 3, 7);
        let rows = table.rows();
        assert_eq!(rows.len(), 2);
        let queries: Vec<u64> = rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let generations: Vec<u64> = rows.iter().map(|r| r[3].parse().unwrap()).collect();
        // Baseline: one generation per query.
        assert_eq!(generations[0], queries[0]);
        assert_eq!(queries[0], 40 * 3);
        // Cached: one generation per domain for the whole run (the rounds
        // fit inside one TTL window).
        assert_eq!(generations[1], DOMAINS as u64);
        // The economics gap the subsystem exists for.
        assert!(generations[0] >= generations[1] * 10);
    }

    #[test]
    fn cached_latency_beats_the_baseline() {
        // The mean includes the cold first round (which pays the fan-out on
        // both sides), so the gap here is smaller than the steady-state 2x+
        // asserted by the integration test — but it must exist.
        let table = run(&[40], 2, 9);
        let rows = table.rows();
        let latency: Vec<f64> = rows.iter().map(|r| r[6].parse().unwrap()).collect();
        assert!(
            latency[1] < latency[0],
            "cached {} ms vs uncached {} ms",
            latency[1],
            latency[0]
        );
    }
}
