//! Majority voting over per-resolver address lists (paper Section II), and
//! the one place a count is compared with a fraction: the vote's cutoff
//! ([`meets_threshold`], `>`), the attacker's goal and `M = ceil(x N)`
//! ([`reaches_fraction`], `>=`). One exact classification serves all three,
//! so the pool-level and resolver-level views of Section III cannot round
//! apart.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Every address of `lists` with the number of lists that contain it
/// (presence per list, not multiplicity within a list), in ascending address
/// order, as [`SortedSupport::runs`] reads them.
///
/// Each occurrence becomes one integer key of its address and its list's
/// index: an IPv4 address as `to_bits() << 32 | list` in a `u64`, an IPv6
/// address as `(to_bits(), list)`. Sorted, an address's lists are one run
/// of keys and a duplicate within a list sits next to its twin, so support
/// is the number of distinct keys in a run. The two families are sorted
/// apart and read IPv4 first, the order `IpAddr: Ord` gives, and each sort
/// compares integers instead of `(IpAddr, usize)` tuples through their
/// enum. The keys are built in one walk over the addresses: the IPv4 keys
/// have room for every address, and the IPv6 keys room for every address
/// not yet walked once the first IPv6 address turns up, so a family that
/// does not occur allocates nothing.
fn sorted_support<'a>(lists: impl Iterator<Item = &'a [IpAddr]> + Clone) -> SortedSupport {
    let mut left = lists.clone().map(<[IpAddr]>::len).sum::<usize>();
    let mut support = SortedSupport {
        v4: Vec::with_capacity(left),
        v6: Vec::new(),
    };
    for (index, list) in lists.enumerate() {
        // Lists beyond 2^32 would share an index; no vote gets near.
        let low = u64::from(u32::try_from(index).unwrap_or(u32::MAX));
        for addr in list {
            match addr {
                IpAddr::V4(v4) => support.v4.push(u64::from(v4.to_bits()) << 32 | low),
                IpAddr::V6(v6) => {
                    if support.v6.capacity() == 0 {
                        support.v6.reserve_exact(left);
                    }
                    support.v6.push((v6.to_bits(), index));
                }
            }
            left -= 1;
        }
    }
    support.v4.sort_unstable();
    support.v6.sort_unstable();
    support
}

/// The sorted keys of one vote, per family (see [`sorted_support`]).
struct SortedSupport {
    v4: Vec<u64>,
    v6: Vec<(u128, usize)>,
}

impl SortedSupport {
    /// Each address once with its support, in ascending order.
    fn runs(&self) -> impl Iterator<Item = (IpAddr, usize)> + '_ {
        let v4 = runs(&self.v4, |key| u32::try_from(key >> 32).unwrap_or(0));
        let v6 = runs(&self.v6, |(address, _)| address);
        let v4 = v4.map(|(bits, lists)| (IpAddr::V4(Ipv4Addr::from_bits(bits)), lists));
        v4.chain(v6.map(|(bits, lists)| (IpAddr::V6(Ipv6Addr::from_bits(bits)), lists)))
    }
}

/// The runs of one family's sorted keys, in one walk over them: each
/// address, as `address` reads it from a key, with the number of distinct
/// keys, that is of lists, it has.
fn runs<'k, K: Copy + PartialEq, A: PartialEq>(
    mut keys: &'k [K],
    address: impl Fn(K) -> A + 'k,
) -> impl Iterator<Item = (A, usize)> + 'k {
    std::iter::from_fn(move || {
        let (&first, rest) = keys.split_first()?;
        let at = address(first);
        let (mut run, mut lists, mut last) = (0, 1, first);
        for &key in rest.iter().take_while(|&&key| address(key) == at) {
            lists += usize::from(key != last);
            last = key;
            run += 1;
        }
        keys = rest.get(run..).unwrap_or_default();
        Some((at, lists))
    })
}

/// Returns the addresses supported by strictly more than `threshold` of the
/// `total` resolvers, in ascending address order with their support counts.
///
/// With `threshold = 0.5` this is the classic majority vote the paper
/// describes: "the majority DNS resolver only includes an address in the
/// final response, if it is given by a majority of the DoH resolvers".
///
/// The comparison `support > threshold * total` is evaluated **exactly**
/// (see [`meets_threshold`]): thresholds written as rationals — `2.0 / 3.0`,
/// `0.7` — behave as the rational they denote for every `total`, instead of
/// picking up an off-by-one where floating-point rounding lands the product
/// on the wrong side of an integer. The threshold is classified once per
/// vote; each address is then one integer comparison.
pub fn majority_vote<L: AsRef<[IpAddr]>>(
    lists: &[L],
    total: usize,
    threshold: f64,
) -> Vec<(IpAddr, usize)> {
    let ballot = vote(lists.iter().map(AsRef::as_ref), total, threshold);
    let mut elected = Vec::with_capacity(ballot.most_winners());
    elected.extend(ballot.winners());
    elected
}

/// [`majority_vote`] over lists lent one by one, so a caller holding them
/// beside other data does not gather them into a slice first. The winners
/// are read from the returned [`Ballot`], so a caller folds them into what
/// it builds without a vector of them in between.
pub(crate) fn vote<'a>(
    lists: impl Iterator<Item = &'a [IpAddr]> + Clone,
    total: usize,
    threshold: f64,
) -> Ballot {
    let cutoff = match total {
        0 => Cutoff::Never,
        _ => Cutoff::new(total, threshold),
    };
    Ballot {
        support: sorted_support(lists),
        cutoff,
    }
}

/// One vote, counted: its sorted keys and its cutoff.
pub(crate) struct Ballot {
    support: SortedSupport,
    cutoff: Cutoff,
}

impl Ballot {
    /// The addresses the vote admits with their support, ascending.
    pub(crate) fn winners(&self) -> impl Iterator<Item = (IpAddr, usize)> + '_ {
        let cutoff = self.cutoff;
        self.support
            .runs()
            .filter(move |&(_, support)| cutoff.admits(support))
    }

    /// At most how many winners there are, without a walk to count them:
    /// each holds at least the least support the cutoff admits in keys.
    pub(crate) fn most_winners(&self) -> usize {
        let least = match self.cutoff {
            Cutoff::Never => return 0,
            Cutoff::Always => 1,
            Cutoff::Product { floor, .. } => {
                usize::try_from(floor.saturating_add(1)).unwrap_or(usize::MAX)
            }
        };
        (self.support.v4.len() + self.support.v6.len()) / least
    }
}

/// Decides `support > threshold * total` exactly.
///
/// Floating-point evaluation of the product can land on the wrong side of
/// an integer — `floor(0.7 * total)` style computations are off by one for
/// some totals — so the comparison is done in integer arithmetic instead:
///
/// * when `threshold` is (up to one part in 2⁵⁰) a small rational `p/q`,
///   the intended comparison is `support * q > p * total`, evaluated in
///   `u128`. This recovers the rational the caller *wrote* (`2.0 / 3.0`,
///   `0.7`, …), which `f64` cannot represent exactly;
/// * otherwise the `f64` value itself is used exactly: every finite float
///   is the dyadic rational `m·2^e`, so `support > m·2^e·total` reduces to
///   an integer comparison after shifting.
///
/// Either way the right-hand side depends on `threshold` and `total` only,
/// so it is worked out once (the private `Cutoff`) and a vote over many
/// addresses applies it to each; this function is that rule applied to one.
pub fn meets_threshold(support: usize, total: usize, threshold: f64) -> bool {
    Cutoff::new(total, threshold).admits(support)
}

/// Decides `count >= fraction * total` exactly, by the classification
/// [`meets_threshold`] uses: the attacker's goal of holding at least a
/// fraction `y` of a pool, and `M = ceil(x N)`, the fewest of `N` resolvers
/// that make a fraction `x`. One compromised slot of ten reaches `0.1`, and
/// seven resolvers of 25 reach `0.28`, although in `f64` `1 - 0.9 < 0.1` and
/// `0.28 * 25 > 7`.
pub fn reaches_fraction(count: usize, total: usize, fraction: f64) -> bool {
    Cutoff::new(total, fraction).reaches(count)
}

/// What `threshold * total` comes to for one `threshold` and one `total`,
/// as far as integer counts can tell: its floor, and whether that is all of
/// it. A count exceeds the product exactly when it exceeds the floor, and
/// reaches it when it exceeds the floor or equals a product with no
/// fractional part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cutoff {
    /// NaN or +∞, or a product beyond any count: nothing passes.
    Never,
    /// A negative threshold: everything passes, a count of zero included.
    Always,
    /// `floor(threshold * total)`, and whether the product is an integer.
    Product { floor: u128, whole: bool },
}

impl Cutoff {
    fn new(total: usize, threshold: f64) -> Self {
        if threshold.is_nan() {
            return Cutoff::Never;
        }
        if threshold < 0.0 {
            return Cutoff::Always;
        }
        if !threshold.is_finite() {
            return Cutoff::Never;
        }
        let total = total as u128;
        if let Some((num, den)) = small_rational(threshold) {
            // num * total / den, and den >= 1.
            let (product, den) = (u128::from(num).saturating_mul(total), u128::from(den));
            let (floor, whole) = (product / den, product % den == 0);
            return Cutoff::Product { floor, whole };
        }
        // The f64 itself, exactly: mantissa * 2^exponent. The product below
        // cannot overflow: mantissa < 2^53 and total < 2^64.
        let bits = threshold.to_bits();
        let biased = u32::try_from((bits >> 52) & 0x7ff).unwrap_or(0);
        let fraction = bits & ((1u64 << 52) - 1);
        let (mantissa, exponent) = match biased {
            0 => (fraction, -1074),
            _ => (fraction | (1 << 52), i64::from(biased) - 1075),
        };
        let scaled = u128::from(mantissa) * total;
        let shift = u32::try_from(exponent.unsigned_abs()).unwrap_or(u32::MAX);
        let (floor, whole) = if exponent >= 0 {
            // scaled << shift, a whole number; past 2^128 no count gets there.
            if scaled != 0 && shift > scaled.leading_zeros() {
                return Cutoff::Never;
            }
            (scaled.checked_shl(shift).unwrap_or(0), true)
        } else {
            // scaled >> shift, whole when no set bit is shifted out.
            let floor = scaled.checked_shr(shift).unwrap_or(0);
            (floor, floor.checked_shl(shift).unwrap_or(0) == scaled)
        };
        Cutoff::Product { floor, whole }
    }

    /// `count > threshold * total`.
    fn admits(self, count: usize) -> bool {
        match self {
            Cutoff::Never => false,
            Cutoff::Always => true,
            Cutoff::Product { floor, .. } => count as u128 > floor,
        }
    }

    /// `count >= threshold * total`.
    fn reaches(self, count: usize) -> bool {
        match self {
            Cutoff::Never => false,
            Cutoff::Always => true,
            Cutoff::Product { floor, whole } => {
                let count = count as u128;
                count > floor || (whole && count == floor)
            }
        }
    }
}

/// Best small-denominator rational approximation of `t` (continued
/// fractions, denominators up to 2²⁰), accepted only when it matches `t` to
/// within one part in 2⁵⁰ — i.e. when `t` plausibly *is* that rational,
/// merely rounded through `f64`.
fn small_rational(t: f64) -> Option<(u64, u64)> {
    const MAX_DEN: u64 = 1 << 20;
    let tolerance = t.abs().max(1.0) * (0.5f64).powi(50);
    // Convergents p/q of the continued fraction of t.
    let (mut p_prev, mut q_prev): (u64, u64) = (0, 1);
    let (mut p, mut q): (u64, u64) = (1, 0);
    let mut x = t;
    for _ in 0..64 {
        let a = x.floor();
        if a > MAX_DEN as f64 {
            return None;
        }
        let a_int = a as u64; // sdoh-lint: allow(no-narrowing-cast, "a is a non-negative floor checked against MAX_DEN, and float-to-int as-casts saturate")
        let p_next = a_int.checked_mul(p)?.checked_add(p_prev)?;
        let q_next = a_int.checked_mul(q)?.checked_add(q_prev)?;
        if q_next > MAX_DEN {
            return None;
        }
        (p_prev, q_prev, p, q) = (p, q, p_next, q_next);
        if (p as f64 / q as f64 - t).abs() <= tolerance {
            return Some((p, q));
        }
        let frac = x - a;
        if frac <= 0.0 {
            return None;
        }
        x = 1.0 / frac;
    }
    None
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    use super::*;

    fn ip(last: u8) -> IpAddr {
        format!("203.0.113.{last}").parse().unwrap()
    }

    /// How many of `lists` contain each address, in ascending order.
    fn support_counts(lists: &[Vec<IpAddr>]) -> Vec<(IpAddr, usize)> {
        sorted_support(lists.iter().map(Vec::as_slice))
            .runs()
            .collect()
    }

    /// The support count the integer keys replaced: `(IpAddr, usize)`
    /// tuples sorted through their enum, deduplicated, then folded per
    /// address. Kept as the oracle of `sorted_support`.
    fn tuple_support(lists: &[Vec<IpAddr>]) -> Vec<(IpAddr, usize)> {
        let mut seen: Vec<(IpAddr, usize)> = Vec::new();
        for (index, list) in lists.iter().enumerate() {
            seen.extend(list.iter().map(|&addr| (addr, index)));
        }
        seen.sort_unstable();
        seen.dedup();
        for (_, count) in &mut seen {
            *count = 1;
        }
        seen.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += 1;
            }
            same
        });
        seen
    }

    /// Seeded random lists of IPv4, IPv6 or both, with duplicates within a
    /// list, and IPv6 addresses whose low 32 bits are an IPv4 address of
    /// the same draw: 1-40 lists, several thresholds and totals. The
    /// integer-keyed vote returns what the sort of tuples returned,
    /// address for address and support for support.
    #[test]
    fn the_integer_keyed_vote_is_the_tuple_sorted_vote() {
        let mut state = 0x05EE_D0F7_07E5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let thresholds = [0.5, 2.0 / 3.0, 0.7, 0.25, 0.0, 1.0, -1.0, f64::NAN];
        let mut cases = 0;
        for family in 0..3 {
            for lists_count in 1..=40usize {
                for _ in 0..6 {
                    // A small pool of candidates, so that lists overlap.
                    let pool: Vec<IpAddr> = (0..12)
                        .map(|i| {
                            let bits = u32::try_from(next() >> 40).unwrap() | 0xC000_0000;
                            let v4 = IpAddr::V4(Ipv4Addr::from_bits(bits));
                            let v6 = IpAddr::V6(Ipv6Addr::from_bits(
                                u128::from(bits) | u128::from(next() % 3) << 96,
                            ));
                            match (family, i % 2) {
                                (0, _) | (2, 0) => v4,
                                _ => v6,
                            }
                        })
                        .collect();
                    let lists: Vec<Vec<IpAddr>> = (0..lists_count)
                        .map(|_| {
                            let len = usize::try_from(next() % 11).unwrap();
                            (0..len)
                                .map(|_| pool[usize::try_from(next() % 12).unwrap()])
                                .collect()
                        })
                        .collect();
                    let support = tuple_support(&lists);
                    assert_eq!(support_counts(&lists), support);
                    for &threshold in &thresholds {
                        for total in [lists_count, lists_count + 1, 0] {
                            let cutoff = Cutoff::new(total, threshold);
                            let expected: Vec<(IpAddr, usize)> = support
                                .iter()
                                .copied()
                                .filter(|&(_, s)| total > 0 && cutoff.admits(s))
                                .collect();
                            assert_eq!(
                                majority_vote(&lists, total, threshold),
                                expected,
                                "{lists:?} of {total} at {threshold}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        println!("vote oracle: {cases} cases agree");
    }

    #[test]
    fn support_counts_presence_not_multiplicity() {
        let lists = vec![
            vec![ip(1), ip(1), ip(2)],
            vec![ip(1), ip(3)],
            vec![ip(2), ip(1)],
        ];
        assert_eq!(
            support_counts(&lists),
            vec![(ip(1), 3), (ip(2), 2), (ip(3), 1)],
            "duplicates within a list count once"
        );
    }

    #[test]
    fn strict_majority_with_three_resolvers() {
        let lists = vec![vec![ip(1), ip(2)], vec![ip(1), ip(3)], vec![ip(1), ip(2)]];
        let winners = majority_vote(&lists, 3, 0.5);
        let addresses: Vec<IpAddr> = winners.iter().map(|(a, _)| *a).collect();
        assert!(addresses.contains(&ip(1)), "3/3 support");
        assert!(
            addresses.contains(&ip(2)),
            "2/3 support is a strict majority"
        );
        assert!(!addresses.contains(&ip(3)), "1/3 support is not");
    }

    #[test]
    fn exactly_half_is_not_a_majority() {
        let lists = vec![vec![ip(1)], vec![ip(1)], vec![ip(2)], vec![ip(3)]];
        let winners = majority_vote(&lists, 4, 0.5);
        let addresses: Vec<IpAddr> = winners.iter().map(|(a, _)| *a).collect();
        assert!(
            !addresses.contains(&ip(1)),
            "2 of 4 is not strictly more than half"
        );
    }

    #[test]
    fn higher_threshold_is_stricter() {
        let lists = vec![vec![ip(1), ip(2)], vec![ip(1), ip(2)], vec![ip(1)]];
        let half = majority_vote(&lists, 3, 0.5);
        let two_thirds = majority_vote(&lists, 3, 2.0 / 3.0);
        assert_eq!(half.len(), 2);
        assert_eq!(two_thirds.len(), 1);
        assert_eq!(two_thirds[0].0, ip(1));
        assert_eq!(two_thirds[0].1, 3);
    }

    #[test]
    fn empty_inputs() {
        assert!(majority_vote::<Vec<IpAddr>>(&[], 0, 0.5).is_empty());
        assert!(majority_vote(&[Vec::new()], 1, 0.5).is_empty());
        assert!(support_counts(&[]).is_empty());
    }

    #[test]
    fn threshold_comparison_is_exact_for_written_rationals() {
        // 2/3 of 3 resolvers: "strictly more than 2" means 3, even though
        // f64 cannot represent 2/3 and the product 2.0/3.0 * 3.0 straddles
        // the integer.
        assert!(!meets_threshold(2, 3, 2.0 / 3.0));
        assert!(meets_threshold(3, 3, 2.0 / 3.0));
        // 0.7 of 10: 7 is not strictly more than 7.
        assert!(!meets_threshold(7, 10, 0.7));
        assert!(meets_threshold(8, 10, 0.7));
        // Exactly half of an even total never passes, at any magnitude.
        for total in [2usize, 4, 1_000, 1 << 40] {
            assert!(!meets_threshold(total / 2, total, 0.5), "total {total}");
            assert!(meets_threshold(total / 2 + 1, total, 0.5));
        }
    }

    #[test]
    fn threshold_comparison_survives_huge_totals() {
        // The old `floor(threshold * total)` evaluation loses whole units
        // once the product's floating-point error reaches integer spacing:
        // for total = 10^17 + 3 it computed "needed = 66666666666666664",
        // admitting supports four short of a strict 2/3 majority. The exact
        // comparison requires support > 2(10^17 + 3)/3 = 66666666666666668.67.
        let total = 100_000_000_000_000_003usize;
        assert!(!meets_threshold(66_666_666_666_666_668, total, 2.0 / 3.0));
        assert!(meets_threshold(66_666_666_666_666_669, total, 2.0 / 3.0));
    }

    #[test]
    fn threshold_comparison_edge_values() {
        // Degenerate thresholds keep their mathematical meaning.
        assert!(meets_threshold(1, 4, 0.0), "any support beats zero");
        assert!(!meets_threshold(0, 4, 0.0));
        assert!(!meets_threshold(4, 4, 1.0), "support cannot exceed total");
        assert!(meets_threshold(5, 4, 1.0), "unless the caller says so");
        assert!(!meets_threshold(4, 4, f64::NAN));
        assert!(!meets_threshold(4, 4, f64::INFINITY));
        assert!(meets_threshold(0, 4, f64::NEG_INFINITY));
        assert!(meets_threshold(1, 4, -0.25));
        // An arbitrary non-rational threshold falls back to the exact
        // dyadic comparison of the f64 value itself.
        let weird = 0.123_456_789_012_345_67_f64;
        assert!(meets_threshold(2, 10, weird));
        assert!(!meets_threshold(1, 10, weird));
    }

    /// `support` against `threshold * total`, compared exactly the way
    /// `meets_threshold` did before the threshold was classified once per
    /// vote: the reference the cutoff is held against. `None` for NaN.
    fn reference_cmp(support: usize, total: usize, threshold: f64) -> Option<Ordering> {
        if threshold.is_nan() {
            return None;
        }
        if threshold < 0.0 {
            return Some(Ordering::Greater);
        }
        if !threshold.is_finite() {
            return Some(Ordering::Less);
        }
        if let Some((num, den)) = small_rational(threshold) {
            let lhs = (support as u128) * u128::from(den);
            return Some(lhs.cmp(&u128::from(num).saturating_mul(total as u128)));
        }
        Some(reference_cmp_dyadic(support, total, threshold))
    }

    fn reference_cmp_dyadic(support: usize, total: usize, t: f64) -> Ordering {
        let bits = t.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exponent) = if biased == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1 << 52), biased - 1075)
        };
        let lhs = support as u128;
        let rhs = u128::from(mantissa) * (total as u128);
        if exponent >= 0 {
            if rhs == 0 {
                return lhs.cmp(&0);
            }
            if exponent >= 128 || exponent as u32 > rhs.leading_zeros() {
                return Ordering::Less;
            }
            lhs.cmp(&(rhs << exponent))
        } else {
            if lhs == 0 {
                return 0.cmp(&rhs);
            }
            let shift = -exponent;
            if shift >= 128 || shift as u32 > lhs.leading_zeros() {
                return Ordering::Greater;
            }
            (lhs << shift).cmp(&rhs)
        }
    }

    fn reference_meets_threshold(support: usize, total: usize, threshold: f64) -> bool {
        reference_cmp(support, total, threshold) == Some(Ordering::Greater)
    }

    fn reference_reaches_fraction(count: usize, total: usize, fraction: f64) -> bool {
        reference_cmp(count, total, fraction).is_some_and(Ordering::is_ge)
    }

    #[test]
    fn the_cutoff_agrees_with_the_per_address_rule_it_replaced() {
        let mut thresholds = vec![
            0.5,
            2.0 / 3.0,
            0.7,
            1.0,
            0.0,
            -0.0,
            -0.25,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::MAX,
            1e300,
            0.123_456_789_012_345_67,
        ];
        // Random finite floats of every magnitude: splitmix64 bit patterns.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        while thresholds.len() < 600 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let drawn = f64::from_bits(z ^ (z >> 31));
            if drawn.is_finite() {
                thresholds.push(drawn);
                // The same bits squeezed into [0, 2): where votes live.
                thresholds.push((z >> 11) as f64 / (1u64 << 52) as f64);
            }
        }
        for &threshold in &thresholds {
            for total in 0..=64usize {
                let cutoff = Cutoff::new(total, threshold);
                for support in 0..=total + 1 {
                    let expected = reference_meets_threshold(support, total, threshold);
                    assert_eq!(
                        cutoff.admits(support),
                        expected,
                        "{support} of {total} at {threshold:e}"
                    );
                    assert_eq!(meets_threshold(support, total, threshold), expected);
                    let reached = reference_reaches_fraction(support, total, threshold);
                    assert_eq!(cutoff.reaches(support), reached, "{support} of {total}");
                    assert_eq!(reaches_fraction(support, total, threshold), reached);
                }
            }
        }
        // Totals and supports near the top of the range, where the shifts
        // saturate.
        for &threshold in &thresholds {
            for total in [usize::MAX, usize::MAX / 3, 1 << 40] {
                for support in [0, 1, total / 2, total / 3 * 2, total - 1, total] {
                    assert_eq!(
                        meets_threshold(support, total, threshold),
                        reference_meets_threshold(support, total, threshold),
                        "{support} of {total} at {threshold:e}"
                    );
                    assert_eq!(
                        reaches_fraction(support, total, threshold),
                        reference_reaches_fraction(support, total, threshold),
                        "{support} of {total} at {threshold:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn support_is_counted_in_ascending_address_order() {
        let v6: IpAddr = "2001:db8::1".parse().unwrap();
        let lists = vec![
            vec![v6, ip(9), ip(9), ip(2)],
            vec![],
            vec![ip(2), v6],
            vec![ip(9)],
        ];
        assert_eq!(
            support_counts(&lists),
            vec![(ip(2), 2), (ip(9), 2), (v6, 2)],
            "v4 before v6, each by octets"
        );
    }
}
