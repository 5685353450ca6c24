//! E5 — "in tandem with Chronos": the clock shift an attacker achieves with
//! and without secure pool generation.

use sdoh_analysis::Table;
use sdoh_core::PoolConfig;
use sdoh_dns_server::StubResolver;
use sdoh_ntp::{ChronosClient, ChronosConfig, LocalClock, NtpClient};
use secure_doh::scenario::{Scenario, ScenarioConfig, CLIENT_ADDR, ISP_RESOLVER};

use super::pool_spoofer;

/// The three end-to-end configurations compared by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeSyncSetup {
    /// Plain DNS pool + plain SNTP client.
    PlainDnsPlainNtp,
    /// Plain DNS pool + Chronos.
    PlainDnsChronos,
    /// Distributed DoH pool (Algorithm 1) + Chronos — the proposal.
    DistributedDohChronos,
}

impl TimeSyncSetup {
    fn label(self) -> &'static str {
        match self {
            TimeSyncSetup::PlainDnsPlainNtp => "plain DNS + plain NTP",
            TimeSyncSetup::PlainDnsChronos => "plain DNS + Chronos",
            TimeSyncSetup::DistributedDohChronos => "distributed DoH + Chronos",
        }
    }
}

/// Measures the clock shift the attacker achieves in each configuration
/// when it fully controls the plain-DNS path and operates time servers
/// shifted by `attacker_shift` seconds.
pub fn run(attacker_shift: f64, seed: u64) -> Table {
    let mut table = Table::new(
        format!("E5: achieved clock shift with {attacker_shift} s attacker time servers"),
        &[
            "configuration",
            "clock shift after one sync (s)",
            "pool captured",
        ],
    );
    for setup in [
        TimeSyncSetup::PlainDnsPlainNtp,
        TimeSyncSetup::PlainDnsChronos,
        TimeSyncSetup::DistributedDohChronos,
    ] {
        let (shift, captured) = run_setup(setup, attacker_shift, seed);
        table.push_row([
            setup.label().to_string(),
            format!("{shift:+.3}"),
            captured.to_string(),
        ]);
    }
    table
}

/// Runs one configuration and returns (clock shift, pool captured?).
pub fn run_setup(setup: TimeSyncSetup, attacker_shift: f64, seed: u64) -> (f64, bool) {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: 3,
        ntp_servers: 16,
        attacker_time_shift: attacker_shift,
        ..ScenarioConfig::default()
    });
    let attacker_pool = scenario.forged_addresses();
    scenario.net.set_adversary(pool_spoofer(
        1.0,
        vec![ISP_RESOLVER],
        scenario.pool_domain().clone(),
        attacker_pool,
    ));
    let truth = scenario.ground_truth();

    let pool = match setup {
        TimeSyncSetup::PlainDnsPlainNtp | TimeSyncSetup::PlainDnsChronos => {
            StubResolver::new(ISP_RESOLVER)
                .lookup_ipv4(&mut scenario.client_exchanger(), scenario.pool_domain())
                .unwrap_or_default()
        }
        TimeSyncSetup::DistributedDohChronos => scenario
            .generate_pool(PoolConfig::algorithm1())
            .map(|(report, _)| report.pool.addresses())
            .unwrap_or_default(),
    };
    let captured = {
        let mut as_pool = sdoh_core::AddressPool::new();
        for addr in &pool {
            as_pool.push(*addr, "pool");
        }
        sdoh_core::attacker_controls_fraction(&as_pool, &truth, 0.5)
    };

    let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
    match setup {
        TimeSyncSetup::PlainDnsPlainNtp => {
            let _ = NtpClient::new(CLIENT_ADDR.with_port(123)).synchronize_simple(
                &scenario.net,
                &mut clock,
                &pool,
            );
        }
        _ => {
            if let Ok(mut chronos) = ChronosClient::new(
                ChronosConfig::default(),
                NtpClient::new(CLIENT_ADDR.with_port(123)),
                seed,
            ) {
                let _ = chronos.update(&scenario.net, &mut clock, &pool);
            }
        }
    }
    (clock.offset_from_true(), captured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposal_keeps_the_clock_while_baselines_lose_it() {
        let shift = 1000.0;
        let (plain_ntp, captured1) = run_setup(TimeSyncSetup::PlainDnsPlainNtp, shift, 11);
        let (plain_chronos, captured2) = run_setup(TimeSyncSetup::PlainDnsChronos, shift, 12);
        let (doh_chronos, captured3) = run_setup(TimeSyncSetup::DistributedDohChronos, shift, 13);

        assert!(captured1 && captured2, "plain DNS pools are captured");
        assert!(!captured3, "the DoH pool is not captured");
        assert!(
            plain_ntp > shift * 0.9,
            "plain NTP fully hijacked: {plain_ntp}"
        );
        assert!(
            plain_chronos > shift * 0.5,
            "Chronos over a poisoned pool is hijacked: {plain_chronos}"
        );
        assert!(
            doh_chronos.abs() < 1.0,
            "the proposal keeps the clock within a second: {doh_chronos}"
        );
    }

    #[test]
    fn table_lists_all_three_configurations() {
        let table = run(500.0, 21);
        assert_eq!(table.len(), 3);
    }
}
