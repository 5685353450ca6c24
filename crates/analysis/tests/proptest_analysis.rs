//! Property-based tests on the security-analysis functions.

use proptest::prelude::*;

use sdoh_analysis::{
    attack_probability_exact, attack_probability_paper, attack_probability_pools, binomial_pmf,
    AttackModel,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Probabilities are probabilities.
    #[test]
    fn probabilities_are_in_unit_interval(
        n in 1usize..40,
        p in 0.0f64..1.0,
        y in 0.01f64..1.0,
    ) {
        let model = AttackModel::new(n, p, y);
        let paper = attack_probability_paper(&model);
        let exact = attack_probability_exact(&model);
        prop_assert!((0.0..=1.0).contains(&paper));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&exact));
    }

    /// The paper's p^M expression never exceeds the exact binomial tail
    /// (it counts a single outcome of the tail).
    #[test]
    fn paper_bound_is_a_lower_bound(
        n in 1usize..30,
        p in 0.0f64..1.0,
        y in 0.01f64..1.0,
    ) {
        let model = AttackModel::new(n, p, y);
        prop_assert!(
            attack_probability_paper(&model) <= attack_probability_exact(&model) + 1e-9
        );
    }

    /// The exact probability is monotone in p_attack.
    #[test]
    fn exact_tail_is_monotone_in_p(
        n in 1usize..25,
        y in 0.01f64..1.0,
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = attack_probability_exact(&AttackModel::new(n, lo, y));
        let b = attack_probability_exact(&AttackModel::new(n, hi, y));
        prop_assert!(a <= b + 1e-9);
    }

    /// Requiring a larger pool fraction never makes the attack easier.
    #[test]
    fn harder_goals_are_not_easier(
        n in 1usize..25,
        p in 0.0f64..1.0,
        y1 in 0.01f64..1.0,
        y2 in 0.01f64..1.0,
    ) {
        let (lo, hi) = if y1 <= y2 { (y1, y2) } else { (y2, y1) };
        let easier = attack_probability_exact(&AttackModel::new(n, p, lo));
        let harder = attack_probability_exact(&AttackModel::new(n, p, hi));
        prop_assert!(harder <= easier + 1e-9);
    }

    /// Summed over the pools Algorithm 1 builds, the attack probability is
    /// the exact tail, for every goal in (0, 1].
    #[test]
    fn algorithm1_pools_give_the_exact_tail(
        n in 1usize..40,
        b in 1u32..100,
        a in 1u32..100,
        p in 0.0f64..1.0,
    ) {
        let model = AttackModel::new(n, p, f64::from(a.min(b)) / f64::from(b));
        let (pools, exact) = (attack_probability_pools(&model), attack_probability_exact(&model));
        prop_assert!((pools - exact).abs() <= 1e-12, "{:?}: {} vs {}", model, pools, exact);
    }

    /// The binomial pmf is non-negative and sums to one.
    #[test]
    fn binomial_pmf_is_a_distribution(n in 0usize..40, p in 0.0f64..1.0) {
        let total: f64 = (0..=n).map(|k| {
            let v = binomial_pmf(n, k, p);
            assert!(v >= 0.0);
            v
        }).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "n={n} p={p} total={total}");
    }

    /// M = ceil(x*N) is within bounds and consistent with the fraction.
    #[test]
    fn min_compromised_is_consistent(n in 1usize..100, y in 0.01f64..1.0) {
        let model = AttackModel::new(n, 0.5, y);
        let m = model.min_compromised_resolvers();
        prop_assert!(m >= 1);
        prop_assert!(m <= n);
        // Compromising m resolvers reaches the fraction; m-1 does not
        // (except when m = 1 and any single compromise suffices).
        prop_assert!(m as f64 / n as f64 >= y - 1e-9 || m == n);
        if m > 1 {
            prop_assert!(((m - 1) as f64 / n as f64) < y, "m {} of {} at {}", m, n, y);
        }
    }
}

/// The goals where a float product and the rational part ways, every
/// small-denominator goal for up to 16 resolvers, and the edges of `p`: the
/// pools Algorithm 1 builds give the exact tail on each.
#[test]
fn algorithm1_pools_give_the_exact_tail_on_a_grid() {
    let mut cases = vec![
        (25, 0.28),
        (10, 0.1),
        (100, 0.29),
        (57, 0.07),
        (31, 2.0 / 3.0),
    ];
    for n in 1..=16usize {
        for b in 1..=8u32 {
            cases.extend((1..=b).map(|a| (n, f64::from(a) / f64::from(b))));
        }
    }
    for (n, y) in cases {
        for p in [0.0, 0.01, 0.2, 0.5, 0.9, 1.0] {
            let model = AttackModel::new(n, p, y);
            let (pools, exact) = (
                attack_probability_pools(&model),
                attack_probability_exact(&model),
            );
            assert!(
                (pools - exact).abs() <= 1e-12,
                "{model:?}: {pools} vs {exact}"
            );
        }
    }
    // Outside (0, 1] the two views part, as documented.
    assert!((attack_probability_pools(&AttackModel::new(5, 0.2, 0.0)) - 1.0).abs() < 1e-12);
    assert_eq!(
        attack_probability_pools(&AttackModel::new(0, 0.2, 0.5)),
        0.0
    );
}
