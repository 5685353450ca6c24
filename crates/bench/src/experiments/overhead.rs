//! E8 — the cost of the design: messages, bytes and (virtual) latency of
//! pool generation as the number of DoH resolvers grows, against the
//! single-query plain-DNS baseline.
//!
//! Since the sans-IO session redesign the client queries the N resolvers
//! **concurrently**, the way the paper's client does: the table therefore
//! reports both the concurrent latency (what the system costs) and the
//! sequential latency (what a naive one-at-a-time client would pay), making
//! the fan-out win visible — concurrent latency stays flat in N while the
//! sequential column grows linearly.

use sdoh_analysis::Table;
use sdoh_core::PoolConfig;
use sdoh_dns_server::StubResolver;
use secure_doh::scenario::{Scenario, ScenarioConfig, CLIENT_ADDR, ISP_RESOLVER};

/// Measures one pool generation per resolver count and reports transport
/// metrics plus elapsed virtual time for both fan-out modes.
pub fn run(resolver_counts: &[usize], seed: u64) -> Table {
    let mut table = Table::new(
        "E8: pool-generation overhead vs. number of DoH resolvers",
        &[
            "configuration",
            "requests",
            "bytes sent",
            "bytes received",
            "concurrent latency (ms)",
            "sequential latency (ms)",
            "pool slots",
        ],
    );

    // Baseline: one plain DNS lookup through the ISP resolver.
    {
        let scenario = Scenario::build(ScenarioConfig {
            seed,
            resolvers: 1,
            ntp_servers: 8,
            ..ScenarioConfig::default()
        });
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let start = scenario.net.now();
        let addresses = StubResolver::new(ISP_RESOLVER)
            .lookup_ipv4(&mut exchanger, scenario.pool_domain())
            .unwrap_or_default();
        let elapsed = scenario.net.clock().elapsed_since(start);
        let metrics = scenario.net.metrics();
        let latency_ms = format!("{:.1}", elapsed.as_secs_f64() * 1000.0);
        table.push_row([
            "plain DNS (baseline)".to_string(),
            metrics.requests.to_string(),
            metrics.bytes_sent.to_string(),
            metrics.bytes_received.to_string(),
            latency_ms.clone(),
            latency_ms,
            addresses.len().to_string(),
        ]);
    }

    for &n in resolver_counts {
        // Separate scenario instances with the same seed, so the two
        // fan-out modes measure identical cold-cache work.
        let build = || {
            Scenario::build(ScenarioConfig {
                seed: seed + n as u64,
                resolvers: n,
                ntp_servers: 8,
                ..ScenarioConfig::default()
            })
        };

        let concurrent_scenario = build();
        concurrent_scenario.net.reset_metrics();
        let (report, concurrent_elapsed) = concurrent_scenario
            .generate_pool(PoolConfig::algorithm1())
            .expect("concurrent generation");
        let metrics = concurrent_scenario.net.metrics();

        let sequential_scenario = build();
        sequential_scenario.net.reset_metrics();
        let (_, sequential_elapsed) = sequential_scenario
            .generate_pool_sequential(PoolConfig::algorithm1())
            .expect("sequential generation");

        table.push_row([
            format!("distributed DoH, N={n}"),
            metrics.requests.to_string(),
            metrics.bytes_sent.to_string(),
            metrics.bytes_received.to_string(),
            format!("{:.1}", concurrent_elapsed.as_secs_f64() * 1000.0),
            format!("{:.1}", sequential_elapsed.as_secs_f64() * 1000.0),
            report.pool.len().to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_with_resolver_count() {
        let table = run(&[1, 3, 5], 31);
        assert_eq!(table.len(), 4);
        let rows = table.rows();
        let requests: Vec<u64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // More resolvers means more requests.
        assert!(requests[3] > requests[2]);
        assert!(requests[2] > requests[1]);
        // The pool grows linearly with N (8 addresses each).
        assert_eq!(rows[1][6], "8");
        assert_eq!(rows[2][6], "24");
        assert_eq!(rows[3][6], "40");
    }

    #[test]
    fn concurrent_latency_is_flat_while_sequential_grows() {
        let table = run(&[1, 3, 5], 77);
        let rows = table.rows();
        let concurrent: Vec<f64> = rows.iter().map(|r| r[4].parse().unwrap()).collect();
        let sequential: Vec<f64> = rows.iter().map(|r| r[5].parse().unwrap()).collect();
        // N=5 sequential pays roughly five lookups; concurrent pays about
        // one (jitter makes it the slowest of five, slightly above N=1).
        assert!(
            sequential[3] > concurrent[3] * 3.0,
            "sequential {} vs concurrent {}",
            sequential[3],
            concurrent[3]
        );
        // The concurrent latency must not grow linearly in N: going from 1
        // to 5 resolvers costs well under 2x one lookup.
        assert!(
            concurrent[3] < concurrent[1] * 2.0,
            "N=5 concurrent {} vs N=1 {}",
            concurrent[3],
            concurrent[1]
        );
    }
}
