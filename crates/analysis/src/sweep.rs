//! Parameter sweeps that regenerate the quantitative claims of Section III.

use crate::analytic::{
    attack_probability_exact, attack_probability_paper, attack_probability_pools,
};
use crate::model::AttackModel;
use crate::table::{fmt_probability, Table};

/// One point of the attack-probability sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Number of resolvers.
    pub resolvers: usize,
    /// Per-resolver attack probability.
    pub p_attack: f64,
    /// `M = ceil(x N)`, the fewest resolvers the attacker must compromise.
    pub min_compromised: usize,
    /// The paper's `p^M` bound.
    pub paper_bound: f64,
    /// Exact binomial-tail probability.
    pub exact: f64,
    /// The same probability summed over the pools Algorithm 1 builds
    /// ([`attack_probability_pools`]).
    pub pools: f64,
}

impl SweepPoint {
    fn of(model: &AttackModel) -> Self {
        SweepPoint {
            resolvers: model.resolvers,
            p_attack: model.p_attack,
            min_compromised: model.min_compromised_resolvers(),
            paper_bound: attack_probability_paper(model),
            exact: attack_probability_exact(model),
            pools: attack_probability_pools(model),
        }
    }
}

/// Sweeps the number of resolvers for a fixed `p_attack` and goal fraction.
pub fn sweep_resolver_count(
    resolver_counts: &[usize],
    p_attack: f64,
    required_pool_fraction: f64,
) -> Vec<SweepPoint> {
    resolver_counts
        .iter()
        .map(|&n| SweepPoint::of(&AttackModel::new(n, p_attack, required_pool_fraction)))
        .collect()
}

/// Sweeps `p_attack` for a fixed number of resolvers and goal fraction.
pub fn sweep_attack_probability(
    resolvers: usize,
    p_values: &[f64],
    required_pool_fraction: f64,
) -> Vec<SweepPoint> {
    p_values
        .iter()
        .map(|&p| SweepPoint::of(&AttackModel::new(resolvers, p, required_pool_fraction)))
        .collect()
}

/// Renders sweep points as a table comparing the bound, the exact value and
/// the sum over Algorithm 1's pools.
pub fn sweep_table(title: &str, points: &[SweepPoint]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "N",
            "p_attack",
            "M=ceil(xN)",
            "paper p^M",
            "exact tail",
            "Algorithm 1 pools",
        ],
    );
    for point in points {
        table.push_row([
            point.resolvers.to_string(),
            format!("{:.3}", point.p_attack),
            point.min_compromised.to_string(),
            fmt_probability(point.paper_bound),
            fmt_probability(point.exact),
            fmt_probability(point.pools),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolver_sweep_is_monotonically_safer() {
        let points = sweep_resolver_count(&[3, 5, 9, 15], 0.2, 0.5);
        assert_eq!(points.len(), 4);
        for pair in points.windows(2) {
            assert!(
                pair[1].exact <= pair[0].exact + 1e-12,
                "more resolvers must not increase the attack probability"
            );
        }
        // The pools the serving code builds agree with the exact value.
        for point in &points {
            assert!((point.pools - point.exact).abs() <= 1e-12);
        }
    }

    #[test]
    fn probability_sweep_is_monotone_in_p() {
        let points = sweep_attack_probability(5, &[0.05, 0.1, 0.3, 0.6, 0.9], 0.5);
        for pair in points.windows(2) {
            assert!(pair[1].exact >= pair[0].exact);
            assert!(pair[1].paper_bound >= pair[0].paper_bound);
        }
    }

    #[test]
    fn table_rendering_includes_all_points() {
        let points = sweep_resolver_count(&[3, 7], 0.1, 0.5);
        let table = sweep_table("E3", &points);
        assert_eq!(table.len(), 2);
        let md = table.to_markdown();
        assert!(md.contains("E3"));
        assert!(md.contains("| 3 |"));
        assert!(md.contains("| 7 |"));
    }

    #[test]
    fn the_table_prints_the_m_of_the_swept_goal() {
        // p = 0 and p = 1 leave no bound to recover M from; M is ceil(2/3 * 5)
        // = 4 for the goal swept, not the 3 of a goal of one half.
        let points = sweep_attack_probability(5, &[0.0, 1.0], 2.0 / 3.0);
        let table = sweep_table("E3", &points);
        for row in table.rows() {
            assert_eq!(row[2], "4", "{row:?}");
        }
    }
}
