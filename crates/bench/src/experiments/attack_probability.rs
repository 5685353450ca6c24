//! E3 — Section III-b: the probability of a successful attack is
//! `p_attack^M`, exponentially small in the number of resolvers.

use sdoh_analysis::{
    resolvers_for_security_gain, sweep_attack_probability, sweep_resolver_count, sweep_table,
    SweepPoint, Table,
};

/// The goal fraction both sweeps use: a malicious two-thirds majority.
const GOAL: f64 = 2.0 / 3.0;

/// E3a: attack probability against the number of resolvers.
fn by_resolver_count() -> Vec<SweepPoint> {
    sweep_resolver_count(&[1, 3, 5, 7, 9, 15, 31], 0.2, GOAL)
}

/// E3b: attack probability against `p_attack`, over three resolvers.
fn by_attack_probability() -> Vec<SweepPoint> {
    sweep_attack_probability(3, &[0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9], GOAL)
}

/// Regenerates the attack-probability series: sweep over the number of
/// resolvers and over `p_attack`, comparing the paper's bound, the exact
/// binomial tail and the same tail summed over the pools the serving code
/// builds (Algorithm 1 through `sdoh_core::combine`). Nothing is sampled.
pub fn run() -> Vec<Table> {
    let mut gain = Table::new(
        "E3c: resolvers needed per factor-1000 security gain (\"key size\" analogy)",
        &["p_attack", "extra resolvers for 10^-3"],
    );
    for p in [0.01, 0.1, 0.3, 0.5, 0.9] {
        gain.push_row([
            format!("{p:.2}"),
            resolvers_for_security_gain(p, 3.0).to_string(),
        ]);
    }

    vec![
        sweep_table(
            "E3a: attack probability vs. number of resolvers (p_attack = 0.2, x = 2/3)",
            &by_resolver_count(),
        ),
        sweep_table(
            "E3b: attack probability vs. p_attack (N = 3, x = 2/3; paper: p^2)",
            &by_attack_probability(),
        ),
        gain,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_three_tables_with_expected_shapes() {
        let tables = run();
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].len(), 7);
        assert_eq!(tables[1].len(), 8);
        assert_eq!(tables[2].len(), 5);
    }

    #[test]
    fn every_row_sums_the_exact_tail_over_algorithm1_pools() {
        for point in by_resolver_count().iter().chain(&by_attack_probability()) {
            assert!((point.pools - point.exact).abs() <= 1e-12, "{point:?}");
        }
    }
}
