//! E6 — footnote 2: truncation to the shortest list defeats answer
//! inflation by a compromised resolver.

use sdoh_analysis::{fmt_percent, Table};
use sdoh_core::{check_guarantee, CombinationMode, PoolConfig};
use secure_doh::scenario::{ResolverCompromise, Scenario, ScenarioConfig};

/// Sweeps the inflation factor of one compromised resolver (out of three)
/// and reports the attacker's pool share with and without truncation.
pub fn run(inflation_factors: &[usize], seed: u64) -> Table {
    let mut table = Table::new(
        "E6: answer inflation by 1 of 3 resolvers — attacker pool share",
        &[
            "extra attacker addresses",
            "with truncation (Algorithm 1)",
            "guarantee holds",
            "without truncation (ablation)",
            "guarantee holds",
        ],
    );
    for (i, &extra) in inflation_factors.iter().enumerate() {
        let with = malicious_share(extra, CombinationMode::TruncateAndCombine, seed + i as u64);
        let without = malicious_share(
            extra,
            CombinationMode::CombineWithoutTruncation,
            seed + 100 + i as u64,
        );
        table.push_row([
            extra.to_string(),
            fmt_percent(with.0),
            with.1.to_string(),
            fmt_percent(without.0),
            without.1.to_string(),
        ]);
    }
    table
}

fn malicious_share(extra: usize, mode: CombinationMode, seed: u64) -> (f64, bool) {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: 3,
        ntp_servers: 8,
        compromised: vec![(0, ResolverCompromise::InflateWithAttackerAddresses(extra))],
        ..ScenarioConfig::default()
    });
    let (report, _) = scenario
        .generate_pool(PoolConfig::default().with_mode(mode))
        .expect("generation");
    let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
    (check.malicious_fraction, check.holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_caps_the_attacker_share() {
        let (with, holds_with) = malicious_share(32, CombinationMode::TruncateAndCombine, 3);
        let (without, holds_without) =
            malicious_share(32, CombinationMode::CombineWithoutTruncation, 4);
        assert!(
            with < 1e-9,
            "truncation keeps the inflated tail out: {with}"
        );
        assert!(holds_with);
        assert!(
            without > 0.5,
            "without truncation the attacker overwhelms the pool: {without}"
        );
        assert!(!holds_without);
    }

    #[test]
    fn table_covers_every_factor() {
        let table = run(&[2, 8], 9);
        assert_eq!(table.len(), 2);
    }
}
