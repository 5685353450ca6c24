//! E9 — the majority-vote resolver mode vs. Algorithm 1 under resolver
//! compromise.

use sdoh_analysis::{fmt_percent, Table};
use sdoh_core::{check_guarantee, CombinationMode, PoolConfig};
use secure_doh::scenario::{ResolverCompromise, Scenario, ScenarioConfig};

/// For each number of compromised resolvers, compares the pools produced by
/// Algorithm 1 (truncate + combine) and by the majority vote.
pub fn run(total_resolvers: usize, seed: u64) -> Table {
    let mut table = Table::new(
        format!("E9: Algorithm 1 vs. majority vote, N = {total_resolvers}"),
        &[
            "compromised resolvers",
            "mode",
            "pool slots",
            "attacker share",
            "benign servers included",
            "guarantee (x=1/2)",
        ],
    );
    for compromised in 0..=total_resolvers {
        for mode in [
            CombinationMode::TruncateAndCombine,
            CombinationMode::MajorityVote,
        ] {
            let row = simulate(total_resolvers, compromised, mode, seed);
            table.push_row(row);
        }
    }
    table
}

fn simulate(total: usize, compromised: usize, mode: CombinationMode, seed: u64) -> [String; 6] {
    let scenario = Scenario::build(ScenarioConfig {
        seed: seed + (total * 100 + compromised) as u64,
        resolvers: total,
        ntp_servers: 8,
        compromised: (0..compromised)
            .map(|i| (i, ResolverCompromise::ReplaceWithAttackerAddresses(8)))
            .collect(),
        ..ScenarioConfig::default()
    });
    let (report, _) = scenario
        .generate_pool(PoolConfig::default().with_mode(mode))
        .expect("generation");
    let truth = scenario.ground_truth();
    let check = check_guarantee(&report.pool, &truth, 0.5);
    let benign_included = report
        .pool
        .unique_addresses()
        .iter()
        .filter(|a| !truth.is_malicious(**a))
        .count();
    [
        compromised.to_string(),
        format!("{mode:?}"),
        report.pool.len().to_string(),
        fmt_percent(check.malicious_fraction),
        format!("{benign_included}/{}", scenario.fleet.benign.len()),
        check.holds.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_vote_excludes_minority_poison_entirely() {
        let row = simulate(3, 1, CombinationMode::MajorityVote, 77);
        assert_eq!(row[3], "0.0%", "no attacker address passes the vote");
        assert_eq!(row[4], "8/8", "every benign server is corroborated");
        assert_eq!(row[5], "true");
    }

    #[test]
    fn algorithm1_bounds_minority_poison_to_its_share() {
        let row = simulate(3, 1, CombinationMode::TruncateAndCombine, 78);
        assert_eq!(row[3], "33.3%");
        assert_eq!(row[5], "true");
    }

    #[test]
    fn compromised_majority_defeats_both_modes() {
        let alg1 = simulate(3, 2, CombinationMode::TruncateAndCombine, 79);
        let vote = simulate(3, 2, CombinationMode::MajorityVote, 80);
        assert_eq!(alg1[5], "false");
        // With 2 of 3 resolvers lying consistently, their addresses win the
        // vote and the benign ones lose it.
        assert_eq!(vote[5], "false");
    }

    #[test]
    fn table_covers_all_rows() {
        let table = run(3, 81);
        assert_eq!(table.len(), 8);
    }
}
