//! Monte-Carlo validation of the closed-form analysis.
//!
//! The simulation draws, for each trial, which resolvers the attacker
//! compromised (each independently with probability `p_attack`), builds the
//! pool exactly the way Algorithm 1 does (each resolver contributes `K`
//! slots; compromised resolvers contribute attacker addresses) and checks
//! whether the attacker reached its goal fraction of the pool.

use std::net::{IpAddr, Ipv4Addr};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdoh_core::{AddressPool, GroundTruth};

use crate::model::AttackModel;

/// Result of a Monte-Carlo estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloEstimate {
    /// Number of trials performed.
    pub trials: u64,
    /// Number of trials in which the attack succeeded.
    pub successes: u64,
    /// Empirical success probability.
    pub probability: f64,
    /// Half-width of a ~95% normal-approximation confidence interval.
    pub confidence_halfwidth: f64,
}

impl MonteCarloEstimate {
    fn from_counts(trials: u64, successes: u64) -> Self {
        let probability = if trials == 0 {
            0.0
        } else {
            successes as f64 / trials as f64
        };
        let variance = probability * (1.0 - probability) / trials.max(1) as f64;
        MonteCarloEstimate {
            trials,
            successes,
            probability,
            confidence_halfwidth: 1.96 * variance.sqrt(),
        }
    }

    /// Returns `true` when `value` lies within the confidence interval
    /// widened by `slack`.
    pub fn consistent_with(&self, value: f64, slack: f64) -> bool {
        (self.probability - value).abs() <= self.confidence_halfwidth + slack
    }
}

/// Estimates the probability that the attacker compromises at least
/// `M = ceil(x N)` resolvers, by direct sampling of the compromise events.
pub fn estimate_resolver_compromise(
    model: &AttackModel,
    trials: u64,
    seed: u64,
) -> MonteCarloEstimate {
    let mut rng = StdRng::seed_from_u64(seed);
    let threshold = model.min_compromised_resolvers();
    let mut successes = 0u64;
    for _ in 0..trials {
        let compromised = (0..model.resolvers)
            .filter(|_| rng.gen::<f64>() < model.p_attack)
            .count();
        // threshold == 0 means the attacker's goal is trivially reached.
        if threshold == 0 || compromised >= threshold {
            successes += 1;
        }
    }
    MonteCarloEstimate::from_counts(trials, successes)
}

/// Estimates the probability that the attacker ends up controlling at least
/// the goal fraction of the *pool built by Algorithm 1*, constructing the
/// pool explicitly each trial. This validates that the pool-level goal and
/// the resolver-level threshold coincide (Section III-a).
pub fn estimate_pool_capture(model: &AttackModel, trials: u64, seed: u64) -> MonteCarloEstimate {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = model.addresses_per_resolver.max(1);
    let mut successes = 0u64;
    for _ in 0..trials {
        let mut pool = AddressPool::new();
        let mut truth = GroundTruth::all_benign();
        for resolver in 0..model.resolvers {
            let compromised = rng.gen::<f64>() < model.p_attack;
            for slot in 0..k {
                let addr: IpAddr = if compromised {
                    let a = Ipv4Addr::new(198, 18, resolver as u8, slot as u8); // sdoh-lint: allow(no-narrowing-cast, "simulated resolver and slot counts stay below 256")
                    truth.mark_malicious(IpAddr::V4(a));
                    IpAddr::V4(a)
                } else {
                    let a = Ipv4Addr::new(203, 0, resolver as u8, slot as u8); // sdoh-lint: allow(no-narrowing-cast, "simulated resolver and slot counts stay below 256")
                    IpAddr::V4(a)
                };
                pool.push(addr, format!("resolver-{resolver}"));
            }
        }
        if sdoh_core::attacker_controls_fraction(&pool, &truth, model.required_pool_fraction) {
            successes += 1;
        }
    }
    MonteCarloEstimate::from_counts(trials, successes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::attack_probability_exact;

    #[test]
    fn estimate_matches_exact_probability() {
        let model = AttackModel::new(5, 0.3, 0.5);
        let exact = attack_probability_exact(&model);
        let estimate = estimate_resolver_compromise(&model, 20_000, 42);
        assert!(
            estimate.consistent_with(exact, 0.01),
            "estimate {} vs exact {exact}",
            estimate.probability
        );
    }

    #[test]
    fn pool_capture_matches_resolver_compromise() {
        let model = AttackModel::new(7, 0.25, 0.5);
        let a = estimate_resolver_compromise(&model, 10_000, 7);
        let b = estimate_pool_capture(&model, 10_000, 8);
        assert!(
            (a.probability - b.probability).abs() < 0.03,
            "pool-level ({}) and resolver-level ({}) views must agree",
            b.probability,
            a.probability
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let model = AttackModel::new(5, 0.2, 0.5);
        let a = estimate_resolver_compromise(&model, 1_000, 99);
        let b = estimate_resolver_compromise(&model, 1_000, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn extremes() {
        let never = AttackModel::new(5, 0.0, 0.5);
        assert_eq!(estimate_resolver_compromise(&never, 1_000, 1).successes, 0);
        let always = AttackModel::new(5, 1.0, 0.5);
        assert_eq!(
            estimate_resolver_compromise(&always, 1_000, 1).successes,
            1_000
        );
        let zero_trials = estimate_resolver_compromise(&never, 0, 1);
        assert_eq!(zero_trials.probability, 0.0);
    }

    #[test]
    fn confidence_interval_shrinks_with_trials() {
        let model = AttackModel::new(5, 0.3, 0.5);
        let small = estimate_resolver_compromise(&model, 500, 3);
        let large = estimate_resolver_compromise(&model, 50_000, 3);
        assert!(large.confidence_halfwidth < small.confidence_halfwidth);
    }
}
