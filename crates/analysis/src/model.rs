//! The attacker model of the paper's Section III.

use sdoh_core::reaches_fraction;

/// Parameters of the security analysis.
///
/// The paper assumes an attacker that compromises each DoH resolver
/// independently with probability `p_attack`, and succeeds overall when it
/// controls at least a fraction `y` of the generated server pool, which
/// (because Algorithm 1 gives every resolver the same number `K` of slots)
/// requires compromising at least a fraction `x >= y` of the resolvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackModel {
    /// Number of DoH resolvers queried (`N`).
    pub resolvers: usize,
    /// Probability that any individual resolver (or its path) is
    /// successfully attacked (`p_attack`).
    pub p_attack: f64,
    /// Fraction of the pool the attacker must control to defeat the
    /// application (`y`, e.g. 1/2 for Chronos).
    pub required_pool_fraction: f64,
    /// Number of addresses each resolver contributes after truncation
    /// (`K`); it cancels out of the analysis, and is the length of every
    /// list [`attack_probability_pools`](crate::attack_probability_pools)
    /// combines.
    pub addresses_per_resolver: usize,
}

impl AttackModel {
    /// A model with the paper's running example: 3 resolvers, majority goal.
    pub fn figure1_example(p_attack: f64) -> Self {
        AttackModel {
            resolvers: 3,
            p_attack,
            required_pool_fraction: 2.0 / 3.0,
            addresses_per_resolver: 4,
        }
    }

    /// Creates a model.
    pub fn new(resolvers: usize, p_attack: f64, required_pool_fraction: f64) -> Self {
        AttackModel {
            resolvers,
            p_attack,
            required_pool_fraction,
            addresses_per_resolver: 4,
        }
    }

    /// The fraction of resolvers the attacker must control (`x`); by the
    /// paper's Section III-a argument this equals `y`.
    pub fn required_resolver_fraction(&self) -> f64 {
        self.required_pool_fraction
    }

    /// The minimum number of resolvers the attacker must compromise,
    /// `M = ceil(x * N)` with a floor of one, compared exactly
    /// ([`reaches_fraction`]): seven of 25 resolvers make `x = 0.28`.
    pub fn min_compromised_resolvers(&self) -> usize {
        let (n, x) = (self.resolvers, self.required_resolver_fraction());
        (1..n).find(|&m| reaches_fraction(m, n, x)).unwrap_or(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_equals_y() {
        let model = AttackModel::new(5, 0.1, 0.5);
        assert_eq!(model.required_resolver_fraction(), 0.5);
    }

    #[test]
    fn minimum_compromised_resolvers() {
        // ceil(2/3 * 3) = 2 — the paper's "p^2 with only 3 resolvers".
        assert_eq!(
            AttackModel::figure1_example(0.1).min_compromised_resolvers(),
            2
        );
        assert_eq!(AttackModel::new(3, 0.1, 0.5).min_compromised_resolvers(), 2);
        assert_eq!(AttackModel::new(4, 0.1, 0.5).min_compromised_resolvers(), 2);
        assert_eq!(AttackModel::new(5, 0.1, 0.5).min_compromised_resolvers(), 3);
        assert_eq!(
            AttackModel::new(15, 0.1, 2.0 / 3.0).min_compromised_resolvers(),
            10
        );
        // Degenerate cases.
        assert_eq!(AttackModel::new(0, 0.1, 0.5).min_compromised_resolvers(), 0);
        assert_eq!(AttackModel::new(3, 0.1, 0.0).min_compromised_resolvers(), 1);
        assert_eq!(AttackModel::new(3, 0.1, 1.0).min_compromised_resolvers(), 3);
        assert_eq!(AttackModel::new(3, 0.1, 1.5).min_compromised_resolvers(), 3);
    }

    #[test]
    fn minimum_is_exact_where_the_float_product_overshoots() {
        // 0.28 * 25 = 7.000000000000001 in f64, whose ceiling is 8.
        let m = |n, y| AttackModel::new(n, 0.1, y).min_compromised_resolvers();
        assert_eq!((m(25, 0.28), m(10, 0.1), m(31, 2.0 / 3.0)), (7, 1, 21));
    }
}
