//! E2 — Section III-a: the attacker must control a fraction `x >= y` of the
//! resolvers to control a fraction `y` of the pool.

use std::net::IpAddr;

use sdoh_analysis::{fmt_percent, Table};
use sdoh_core::{
    attacker_controls_fraction, AddressSource, GroundTruth, PoolConfig, SecurePoolGenerator,
    StaticSource,
};
use sdoh_netsim::{SimAddr, SimNet};

use super::attacker_addresses;

/// For each pool size `N` and number of compromised resolvers `c`, builds
/// the Algorithm 1 pool and reports the attacker's share; the crossover sits
/// exactly at `c/N >= y`.
pub fn run(resolver_counts: &[usize], addresses_per_resolver: usize, y: f64) -> Table {
    let mut table = Table::new(
        format!("E2: attacker pool share vs. compromised resolvers (y = {y})"),
        &[
            "N resolvers",
            "compromised",
            "x = c/N",
            "attacker pool share",
            "attack succeeds (>= y)",
            "paper predicts",
        ],
    );
    for &n in resolver_counts {
        for c in 0..=n {
            let (pool_share, succeeded) = simulate(n, c, addresses_per_resolver, y);
            let x = c as f64 / n as f64;
            table.push_row([
                n.to_string(),
                c.to_string(),
                format!("{x:.3}"),
                fmt_percent(pool_share),
                succeeded.to_string(),
                (x >= y).to_string(),
            ]);
        }
    }
    table
}

fn simulate(n: usize, compromised: usize, k: usize, y: f64) -> (f64, bool) {
    let benign: Vec<IpAddr> = (0..k)
        .map(|i| IpAddr::V4(std::net::Ipv4Addr::new(203, 0, 113, i as u8 + 1)))
        .collect();
    let evil = attacker_addresses(k);
    let truth = GroundTruth::with_malicious(evil.iter().copied());

    let sources: Vec<Box<dyn AddressSource>> = (0..n)
        .map(|i| {
            let answer = if i < compromised {
                evil.clone()
            } else {
                benign.clone()
            };
            Box::new(StaticSource::answering(format!("resolver-{i}"), answer))
                as Box<dyn AddressSource>
        })
        .collect();
    let generator =
        SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).expect("valid generator");
    let net = SimNet::new(n as u64);
    let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
    let report = generator
        .generate(&mut exchanger, &"pool.ntpns.org".parse().expect("name"))
        .expect("generation");
    let share = 1.0 - report.pool.benign_fraction(|a| !truth.is_malicious(a));
    (share, attacker_controls_fraction(&report.pool, &truth, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_is_exactly_at_y() {
        let table = run(&[3, 4], 4, 0.5);
        for row in table.rows() {
            let succeeded: bool = row[4].parse().unwrap();
            let predicted: bool = row[5].parse().unwrap();
            assert_eq!(succeeded, predicted, "row {row:?}");
        }
    }

    #[test]
    fn attacker_share_equals_resolver_share() {
        let (share, _) = simulate(5, 2, 4, 0.5);
        assert!((share - 0.4).abs() < 1e-9);
        let (share, ok) = simulate(3, 3, 4, 0.5);
        assert!((share - 1.0).abs() < 1e-9);
        assert!(ok);
        let (share, ok) = simulate(3, 0, 4, 0.5);
        assert_eq!(share, 0.0);
        assert!(!ok);
    }
}
