//! Closed-form expressions from the paper's Section III, the exact
//! binomial tail they bound, and that tail summed over the pools the serving
//! code builds.

use std::net::{IpAddr, Ipv4Addr};

use sdoh_core::{attacker_controls_fraction, combine, GroundTruth, PoolConfig};

use crate::model::AttackModel;

/// The paper's bound (Section III-b): the probability of attacking at least
/// a fraction `x` of `N` resolvers is `p_attack ^ M` with `M = ceil(x N)`.
///
/// This is the probability of the *cheapest* successful outcome (exactly the
/// required resolvers compromised); the exact success probability is the
/// binomial tail computed by [`attack_probability_exact`], which the bound
/// approximates well for small `p_attack`.
pub fn attack_probability_paper(model: &AttackModel) -> f64 {
    let m = model.min_compromised_resolvers();
    if m == 0 {
        return 1.0;
    }
    model
        .p_attack
        .clamp(0.0, 1.0)
        .powi(i32::try_from(m).unwrap_or(i32::MAX))
}

/// Exact probability that at least `M = ceil(x N)` of `N` independently
/// compromised resolvers (each with probability `p_attack`) are compromised:
/// the upper tail of a Binomial(N, p) distribution.
pub fn attack_probability_exact(model: &AttackModel) -> f64 {
    let n = model.resolvers;
    let m = model.min_compromised_resolvers();
    if m == 0 {
        return 1.0;
    }
    let p = model.p_attack.clamp(0.0, 1.0);
    (m..=n).map(|k| binomial_pmf(n, k, p)).sum::<f64>().min(1.0)
}

/// [`attack_probability_exact`] reached through the serving code: for every
/// number `c` of compromised resolvers, `sdoh_core::combine` builds the pool
/// of `c` lists of `K` attacker addresses and `N - c` lists of `K` benign
/// ones, and the pool weighs `binomial_pmf(N, c, p)` when the attacker holds
/// at least `y` of it (`sdoh_core::attacker_controls_fraction`). For every
/// `y` in `(0, 1]` the two are equal; outside it they part (`y <= 0` counts
/// an untouched pool as held, and `N = 0` builds no pool at all).
pub fn attack_probability_pools(model: &AttackModel) -> f64 {
    let n = model.resolvers;
    let list = |first: Ipv4Addr| -> Vec<IpAddr> {
        (u32::from(first)..)
            .take(model.addresses_per_resolver.max(1))
            .map(|address| Ipv4Addr::from(address).into())
            .collect()
    };
    let (attacker, benign) = (
        list(Ipv4Addr::new(198, 18, 0, 0)),
        list(Ipv4Addr::new(203, 0, 113, 0)),
    );
    let truth = GroundTruth::with_malicious(attacker.iter().copied());
    let held = |c: usize| {
        let answers: Vec<(&str, Option<&Vec<IpAddr>>)> = (0..n)
            .map(|r| match r < c {
                true => ("compromised", Some(&attacker)),
                false => ("benign", Some(&benign)),
            })
            .collect();
        combine(&PoolConfig::algorithm1(), &answers).is_ok_and(|(pool, _)| {
            attacker_controls_fraction(&pool, &truth, model.required_pool_fraction)
        })
    };
    (0..=n)
        .filter(|&c| held(c))
        .map(|c| binomial_pmf(n, c, model.p_attack))
        .sum::<f64>()
        .min(1.0)
}

/// Probability mass of exactly `k` successes out of `n` trials with success
/// probability `p`.
pub fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    let p = p.clamp(0.0, 1.0);
    // Handle the degenerate probabilities exactly (log space would produce
    // 0 * -inf = NaN for them).
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    // Work in log space to stay stable for large n.
    let log_pmf = ln_choose(n, k) + (k as f64) * p.ln() + ((n - k) as f64) * (1.0 - p).ln();
    log_pmf.exp()
}

/// Natural log of the binomial coefficient `C(n, k)`.
pub fn ln_choose(n: usize, k: usize) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: usize) -> f64 {
    (1..=n).map(|i| (i as f64).ln()).sum()
}

/// The "asymptotic advantage" of Section III-b: how many additional
/// resolvers multiply the attacker's cost by `10^orders` assuming the paper
/// bound `p^M`.
pub fn resolvers_for_security_gain(p_attack: f64, orders_of_magnitude: f64) -> usize {
    let p = p_attack.clamp(1e-12, 1.0 - 1e-12);
    // p^dM <= 10^-orders  =>  dM >= orders * ln(10) / -ln(p)
    // A tiny tolerance keeps exact ratios (e.g. p = 0.1) from rounding up
    // because of floating-point noise.
    let needed = orders_of_magnitude * std::f64::consts::LN_10 / -p.ln() - 1e-9;
    needed.ceil() as usize // sdoh-lint: allow(no-narrowing-cast, "float-to-int as-casts saturate and map NaN to zero")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bound_three_resolvers_majority() {
        // Section III-b: with 3 resolvers and x >= 2/3, success needs 2
        // compromises, so the probability is p^2.
        let model = AttackModel::figure1_example(0.1);
        assert!((attack_probability_paper(&model) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn exact_probability_dominates_the_paper_bound() {
        for &n in &[3usize, 5, 7, 9, 15] {
            for &p in &[0.01, 0.05, 0.1, 0.3, 0.5] {
                let model = AttackModel::new(n, p, 0.5);
                let exact = attack_probability_exact(&model);
                let bound = attack_probability_paper(&model);
                assert!(
                    exact + 1e-12 >= bound,
                    "exact {exact} must be >= single-outcome bound {bound} (n={n}, p={p})"
                );
                assert!(exact <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn exact_probability_decreases_with_more_resolvers() {
        let p = 0.2;
        let mut last = 1.0;
        for n in [3usize, 7, 11, 15, 31] {
            let model = AttackModel::new(n, p, 0.5);
            let prob = attack_probability_exact(&model);
            assert!(
                prob < last,
                "probability should shrink with N: n={n} prob={prob} last={last}"
            );
            last = prob;
        }
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(5usize, 0.3), (12, 0.07), (20, 0.9)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn binomial_pmf_edge_cases() {
        assert_eq!(binomial_pmf(5, 6, 0.5), 0.0);
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 3, 0.0), 0.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert_eq!(binomial_pmf(5, 4, 1.0), 0.0);
        assert!((binomial_pmf(2, 1, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ln_choose_matches_small_cases() {
        assert!((ln_choose(5, 2).exp() - 10.0).abs() < 1e-9);
        assert!((ln_choose(10, 0).exp() - 1.0).abs() < 1e-9);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn security_gain_like_key_size() {
        // With p = 0.1, each extra compromised resolver buys one order of
        // magnitude.
        assert_eq!(resolvers_for_security_gain(0.1, 3.0), 3);
        // Smaller p needs fewer resolvers for the same gain.
        assert!(resolvers_for_security_gain(0.01, 6.0) <= 3);
        // p close to 1 needs many.
        assert!(resolvers_for_security_gain(0.9, 1.0) >= 20);
    }

    #[test]
    fn zero_required_fraction_means_trivial_attack() {
        let model = AttackModel::new(0, 0.5, 0.5);
        assert_eq!(attack_probability_paper(&model), 1.0);
        assert_eq!(attack_probability_exact(&model), 1.0);
    }
}
