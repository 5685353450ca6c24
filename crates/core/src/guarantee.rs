//! Checking the paper's security guarantee against ground truth.
//!
//! Section II: "for the application to be secure, this pool must include a
//! fraction of at least `x` benign servers". Experiments know which
//! addresses are attacker-controlled, so they can check whether a generated
//! pool actually satisfies the guarantee.

use std::collections::HashSet;
use std::net::IpAddr;

use crate::majority::reaches_fraction;
use crate::pool::AddressPool;

/// Ground truth about which server addresses are attacker-controlled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    malicious: HashSet<IpAddr>,
}

impl GroundTruth {
    /// Creates ground truth from a set of attacker-controlled addresses.
    pub fn with_malicious<I: IntoIterator<Item = IpAddr>>(addresses: I) -> Self {
        GroundTruth {
            malicious: addresses.into_iter().collect(),
        }
    }

    /// Marks every address in `addresses` as attacker-controlled —
    /// composing ground truth from several attacker footholds (compromised
    /// resolvers' server blocks, malicious servers planted inside an
    /// otherwise honest pool, …).
    pub fn extend_malicious<I: IntoIterator<Item = IpAddr>>(&mut self, addresses: I) {
        self.malicious.extend(addresses);
    }

    /// Returns `true` when `address` is attacker-controlled.
    pub fn is_malicious(&self, address: IpAddr) -> bool {
        self.malicious.contains(&address)
    }
}

/// The verdict on one generated pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuaranteeCheck {
    /// Fraction of pool slots held by benign servers.
    pub benign_fraction: f64,
    /// Fraction of pool slots held by attacker-controlled servers.
    pub malicious_fraction: f64,
    /// The threshold `x` the check was performed against.
    pub required_fraction: f64,
    /// Whether the pool meets the guarantee (`benign_fraction >= x`).
    pub holds: bool,
    /// Number of slots in the pool.
    pub pool_size: usize,
}

/// Checks whether `pool` contains at least a fraction `required` of benign
/// servers according to `truth`.
pub fn check_guarantee(pool: &AddressPool, truth: &GroundTruth, required: f64) -> GuaranteeCheck {
    let benign_fraction = pool.benign_fraction(|addr| !truth.is_malicious(addr));
    let holds = !pool.is_empty() && benign_fraction >= required;
    GuaranteeCheck {
        benign_fraction,
        malicious_fraction: if pool.is_empty() {
            0.0
        } else {
            1.0 - benign_fraction
        },
        required_fraction: required,
        holds,
        pool_size: pool.len(),
    }
}

/// Convenience: does the attacker control at least `y` of the pool? This is
/// the attacker's goal in the paper's Section III-a analysis. The slots are
/// counted and compared with `y` exactly ([`reaches_fraction`]), so one
/// attacker slot of ten is a tenth of the pool.
pub fn attacker_controls_fraction(pool: &AddressPool, truth: &GroundTruth, y: f64) -> bool {
    let held = pool
        .iter()
        .filter(|e| truth.is_malicious(e.address))
        .count();
    !pool.is_empty() && reaches_fraction(held, pool.len(), y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        format!("203.0.113.{last}").parse().unwrap()
    }

    fn evil(last: u8) -> IpAddr {
        format!("198.18.0.{last}").parse().unwrap()
    }

    fn pool(benign: usize, malicious: usize) -> (AddressPool, GroundTruth) {
        let mut p = AddressPool::new();
        for i in 0..benign {
            p.push(ip(i as u8 + 1), "benign-resolver");
        }
        for i in 0..malicious {
            p.push(evil(i as u8 + 1), "compromised-resolver");
        }
        let truth = GroundTruth::with_malicious((1..=malicious).map(|i| evil(i as u8)));
        (p, truth)
    }

    #[test]
    fn guarantee_holds_with_honest_majority() {
        let (p, truth) = pool(6, 3);
        let check = check_guarantee(&p, &truth, 0.5);
        assert!(check.holds);
        assert!((check.benign_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert!((check.malicious_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(check.pool_size, 9);
        assert!(!attacker_controls_fraction(&p, &truth, 0.5));
    }

    #[test]
    fn guarantee_fails_with_malicious_majority() {
        let (p, truth) = pool(2, 6);
        let check = check_guarantee(&p, &truth, 0.5);
        assert!(!check.holds);
        assert!(attacker_controls_fraction(&p, &truth, 0.5));
    }

    #[test]
    fn empty_pool_never_satisfies_the_guarantee() {
        let truth = GroundTruth::default();
        let check = check_guarantee(&AddressPool::new(), &truth, 0.5);
        assert!(!check.holds);
        assert_eq!(check.pool_size, 0);
        assert!(!attacker_controls_fraction(
            &AddressPool::new(),
            &truth,
            0.1
        ));
    }

    #[test]
    fn ground_truth_bookkeeping() {
        let mut truth = GroundTruth::default();
        assert!(!truth.is_malicious(evil(1)));
        truth.extend_malicious([evil(1)]);
        assert!(truth.is_malicious(evil(1)));
        assert!(!truth.is_malicious(ip(1)));
        truth.extend_malicious([evil(2), evil(3), evil(1)]);
        assert!(truth.is_malicious(evil(3)));
    }

    #[test]
    fn one_slot_of_ten_is_a_tenth_of_the_pool() {
        // 1 - 0.9 is 0.09999999999999998 in f64: the pool-level view used to
        // miss a goal the resolver-level view (1 of 10 resolvers) reaches.
        let (p, truth) = pool(9, 1);
        assert!(attacker_controls_fraction(&p, &truth, 0.1));
        assert!(!attacker_controls_fraction(&p, &truth, 0.11));
    }

    #[test]
    fn exact_threshold_is_satisfied() {
        let (p, truth) = pool(3, 3);
        let check = check_guarantee(&p, &truth, 0.5);
        assert!(check.holds, "exactly x benign still satisfies >= x");
    }
}
