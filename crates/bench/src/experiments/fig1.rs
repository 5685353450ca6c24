//! E1 — Figure 1: the end-to-end system overview.

use sdoh_analysis::Table;
use sdoh_core::{check_guarantee, PoolConfig};
use sdoh_ntp::{ChronosClient, ChronosConfig, LocalClock, NtpClient};
use secure_doh::scenario::{Scenario, ScenarioConfig, CLIENT_ADDR};

/// Runs the Figure 1 flow (3 DoH resolvers, 8 NTP servers, no attacker) and
/// reports each step.
pub fn run(seed: u64) -> Vec<Table> {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: 3,
        ntp_servers: 8,
        ..ScenarioConfig::default()
    });
    let (report, generation_latency) = scenario
        .generate_pool(PoolConfig::algorithm1())
        .expect("pool generation succeeds");

    let mut per_resolver = Table::new(
        "E1: per-resolver answers for pool.ntpns.org (Fig. 1 step 2-4)",
        &["resolver", "outcome", "slots contributed"],
    );
    for (name, outcome) in &report.sources {
        per_resolver.push_row([
            name.to_string(),
            format!("{outcome:?}"),
            report.pool.slots_from(name).to_string(),
        ]);
    }

    let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
    let pool = report.pool.addresses();
    let mut clock = LocalClock::new(scenario.net.clock(), -30.0);
    let mut chronos = ChronosClient::new(
        ChronosConfig::default(),
        NtpClient::new(CLIENT_ADDR.with_port(123)),
        seed,
    )
    .expect("valid chronos config");
    let outcome = chronos.update(&scenario.net, &mut clock, &pool);

    let mut summary = Table::new(
        "E1: end-to-end summary (Fig. 1 step 5 + Chronos)",
        &["quantity", "value"],
    );
    summary.push_row(["combined pool slots", &report.pool.len().to_string()]);
    summary.push_row([
        "pool generation latency (concurrent fan-out)",
        &format!("{:.1} ms", generation_latency.as_secs_f64() * 1000.0),
    ]);
    summary.push_row([
        "truncation length",
        &format!("{:?}", report.truncate_lengths),
    ]);
    summary.push_row([
        "benign pool fraction",
        &format!("{:.3}", check.benign_fraction),
    ]);
    summary.push_row([
        "guarantee (x = 1/2)",
        if check.holds { "holds" } else { "violated" },
    ]);
    summary.push_row(["chronos outcome", &format!("{outcome:?}")]);
    summary.push_row([
        "residual clock offset (s)",
        &format!("{:+.6}", clock.offset_from_true()),
    ]);
    summary.push_row(["network metrics", &scenario.net.metrics().to_string()]);
    vec![per_resolver, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_flow_succeeds() {
        let tables = run(1);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 3, "three resolvers");
        let summary = &tables[1];
        let rows = summary.rows();
        assert_eq!(rows[0][1], "24", "3 resolvers x 8 addresses");
        assert!(rows[1][1].ends_with("ms"), "latency row: {:?}", rows[1]);
        assert_eq!(rows[4][1], "holds");
    }
}
