//! Configuration for secure pool generation.

use crate::error::{PoolError, PoolResult};

/// How the answers from the distributed resolvers are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombinationMode {
    /// Algorithm 1 from the paper: truncate every list to the length of the
    /// shortest list and concatenate the truncated lists. Duplicates are
    /// kept and count as individual servers.
    #[default]
    TruncateAndCombine,
    /// Combine the full (untruncated) lists. This ablation removes the
    /// defence against answer inflation and exists to reproduce the attack
    /// the truncation is there to stop (footnote 2).
    CombineWithoutTruncation,
    /// The "majority DNS resolver" mode from Section II: an address is
    /// included only when a majority of resolvers returned it.
    MajorityVote,
}

/// How addresses of the two families are treated (paper footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DualStackPolicy {
    /// Query A records only.
    #[default]
    Ipv4Only,
    /// Query AAAA records only.
    Ipv6Only,
    /// Query both and require the honest-majority property for the union.
    Union,
    /// Query both and require the honest-majority property for each family
    /// separately (each family is truncated and combined on its own).
    PerFamily,
}

/// How a resolver that fails (timeout, SERVFAIL) is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Skip the resolver: the pool is built from the resolvers that
    /// answered, and `min_responses` guards how few are acceptable.
    #[default]
    Skip,
    /// Treat the failure as an empty answer list. Under Algorithm 1 this
    /// truncates the whole pool to zero — maximally conservative, maximally
    /// DoS-able.
    TreatAsEmpty,
}

/// Configuration of the secure pool generation procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// How per-resolver answers are combined.
    pub mode: CombinationMode,
    /// Dual-stack handling.
    pub dual_stack: DualStackPolicy,
    /// Failure handling.
    pub failure_policy: FailurePolicy,
    /// Minimum number of resolvers that must produce a usable answer.
    pub min_responses: usize,
    /// Fraction of resolvers that must return an address for it to pass the
    /// majority vote (only used in [`CombinationMode::MajorityVote`]);
    /// strictly-greater-than comparison, so 0.5 means "more than half".
    pub majority_threshold: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            mode: CombinationMode::TruncateAndCombine,
            dual_stack: DualStackPolicy::Ipv4Only,
            failure_policy: FailurePolicy::Skip,
            min_responses: 1,
            majority_threshold: 0.5,
        }
    }
}

impl PoolConfig {
    /// The paper's default: Algorithm 1 with `x = 1/2` over IPv4.
    pub fn algorithm1() -> Self {
        PoolConfig::default()
    }

    /// The majority-vote resolver front-end configuration.
    pub fn majority_resolver() -> Self {
        PoolConfig {
            mode: CombinationMode::MajorityVote,
            ..PoolConfig::default()
        }
    }

    /// Sets the combination mode, returning `self` for chaining.
    pub fn with_mode(mut self, mode: CombinationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the dual-stack policy, returning `self` for chaining.
    pub fn with_dual_stack(mut self, policy: DualStackPolicy) -> Self {
        self.dual_stack = policy;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::InvalidConfig`] for out-of-range fractions.
    pub fn validate(&self) -> PoolResult<()> {
        if !(0.0..1.0).contains(&self.majority_threshold) {
            return Err(PoolError::InvalidConfig(
                "majority_threshold must be within [0, 1)".into(),
            ));
        }
        if self.min_responses == 0 {
            return Err(PoolError::InvalidConfig(
                "min_responses must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = PoolConfig::algorithm1();
        assert_eq!(config.mode, CombinationMode::TruncateAndCombine);
        config.validate().unwrap();
    }

    #[test]
    fn majority_preset() {
        let config = PoolConfig::majority_resolver();
        assert_eq!(config.mode, CombinationMode::MajorityVote);
        config.validate().unwrap();
    }

    #[test]
    fn builder_chain() {
        let config = PoolConfig::default()
            .with_mode(CombinationMode::CombineWithoutTruncation)
            .with_dual_stack(DualStackPolicy::Union);
        assert_eq!(config.mode, CombinationMode::CombineWithoutTruncation);
        assert_eq!(config.dual_stack, DualStackPolicy::Union);
        config.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let config = PoolConfig {
            min_responses: 0,
            ..PoolConfig::default()
        };
        assert!(config.validate().is_err());
        let config = PoolConfig {
            majority_threshold: 1.0,
            ..PoolConfig::default()
        };
        assert!(config.validate().is_err());
    }
}
