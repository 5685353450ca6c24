//! Property-based tests on the invariants of Algorithm 1, the majority vote
//! and the pool/guarantee types.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;

use sdoh_core::{
    check_guarantee, majority_vote, meets_threshold, AddressPool, AddressSource, CombinationMode,
    GroundTruth, PoolConfig, SecurePoolGenerator, StaticSource,
};
use sdoh_netsim::{SimAddr, SimNet};

fn benign(i: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(203, 0, 113, i))
}

fn evil(i: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(198, 18, 0, i))
}

/// How many of `lists` contain each address (presence per list, not
/// multiplicity within a list), counted in a map: the reference the vote's
/// one sorted vector is held against.
fn support_counts(lists: &[Vec<IpAddr>]) -> BTreeMap<IpAddr, usize> {
    let mut counts = BTreeMap::new();
    for list in lists {
        let mut seen = Vec::new();
        for &addr in list {
            if !seen.contains(&addr) {
                seen.push(addr);
                *counts.entry(addr).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Per-resolver answer descriptions: `(is_compromised, answer_length)`.
fn arb_resolver_answers() -> impl Strategy<Value = Vec<(bool, usize)>> {
    proptest::collection::vec((any::<bool>(), 0usize..12), 1..8)
}

fn build_and_generate(
    answers: &[(bool, usize)],
    mode: CombinationMode,
) -> (sdoh_core::GenerationReport, GroundTruth) {
    let sources: Vec<Box<dyn AddressSource>> = answers
        .iter()
        .enumerate()
        .map(|(i, (compromised, len))| {
            let list: Vec<IpAddr> = (0..*len)
                .map(|j| {
                    if *compromised {
                        evil((i * 12 + j) as u8 % 250 + 1)
                    } else {
                        benign((j % 250) as u8 + 1)
                    }
                })
                .collect();
            Box::new(StaticSource::answering(format!("r{i}"), list)) as Box<dyn AddressSource>
        })
        .collect();
    let truth = GroundTruth::with_malicious((1..=255u8).map(evil));
    let generator =
        SecurePoolGenerator::new(PoolConfig::default().with_mode(mode), sources).unwrap();
    let net = SimNet::new(7);
    let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
    let report = generator
        .generate(&mut exchanger, &"pool.ntpns.org".parse().unwrap())
        .unwrap();
    (report, truth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Algorithm 1: every resolver contributes exactly the truncation
    /// length, so the pool size is N * min(len).
    #[test]
    fn algorithm1_pool_size_is_n_times_shortest(answers in arb_resolver_answers()) {
        let (report, _) = build_and_generate(&answers, CombinationMode::TruncateAndCombine);
        let shortest = answers.iter().map(|(_, len)| *len).min().unwrap_or(0);
        prop_assert_eq!(report.pool.len(), shortest * answers.len());
        for (i, _) in answers.iter().enumerate() {
            prop_assert_eq!(report.pool.slots_from(&format!("r{i}")), shortest);
        }
    }

    /// Algorithm 1: the attacker's share of the pool never exceeds the
    /// share of compromised resolvers (Section III-a), provided the pool is
    /// non-empty.
    #[test]
    fn attacker_share_is_bounded_by_resolver_share(answers in arb_resolver_answers()) {
        let (report, truth) = build_and_generate(&answers, CombinationMode::TruncateAndCombine);
        if !report.pool.is_empty() {
            let compromised = answers.iter().filter(|(c, _)| *c).count();
            let resolver_share = compromised as f64 / answers.len() as f64;
            let check = check_guarantee(&report.pool, &truth, 0.5);
            prop_assert!(check.malicious_fraction <= resolver_share + 1e-9,
                "pool share {} vs resolver share {}", check.malicious_fraction, resolver_share);
        }
    }

    /// The majority-vote output only contains addresses supported by a
    /// strict majority, and never an address that only compromised
    /// resolvers returned while they are a minority.
    #[test]
    fn majority_vote_requires_strict_majority(answers in arb_resolver_answers()) {
        let (report, truth) = build_and_generate(&answers, CombinationMode::MajorityVote);
        let compromised = answers.iter().filter(|(c, _)| *c).count();
        if compromised * 2 < answers.len() {
            for entry in report.pool.iter() {
                prop_assert!(!truth.is_malicious(entry.address),
                    "attacker address {} passed the vote with a compromised minority",
                    entry.address);
            }
        }
    }

    /// Benign fraction is always within [0, 1] and consistent with its
    /// complement.
    #[test]
    fn benign_fraction_is_a_fraction(
        slots in proptest::collection::vec((any::<bool>(), 1u8..200), 0..64)
    ) {
        let mut pool = AddressPool::new();
        for (is_evil, i) in &slots {
            pool.push(if *is_evil { evil(*i) } else { benign(*i) }, "r");
        }
        let truth = GroundTruth::with_malicious((1..=255u8).map(evil));
        let fraction = pool.benign_fraction(|a| !truth.is_malicious(a));
        prop_assert!((0.0..=1.0).contains(&fraction));
        let check = check_guarantee(&pool, &truth, 0.5);
        if !pool.is_empty() {
            prop_assert!((check.benign_fraction + check.malicious_fraction - 1.0).abs() < 1e-9);
        }
        prop_assert_eq!(check.pool_size, pool.len());
    }

    /// Support counts never exceed the number of lists, and majority-vote
    /// winners are a subset of the counted addresses, with the support the
    /// map counted.
    #[test]
    fn support_counts_are_bounded(
        lists in proptest::collection::vec(
            proptest::collection::vec(1u8..30, 0..10), 0..8)
    ) {
        let lists: Vec<Vec<IpAddr>> = lists
            .into_iter()
            .map(|l| l.into_iter().map(benign).collect())
            .collect();
        let counts = support_counts(&lists);
        for support in counts.values() {
            prop_assert!(*support <= lists.len());
            prop_assert!(*support >= 1);
        }
        let winners = majority_vote(&lists, lists.len(), 0.5);
        for (addr, support) in winners {
            prop_assert_eq!(counts.get(&addr), Some(&support));
            prop_assert!(support * 2 > lists.len());
        }
    }

    /// The threshold comparison matches exact-rational evaluation: for any
    /// rational threshold `num/den` handed over as `num as f64 / den as f64`
    /// and any support/total, `majority_vote` admits exactly the addresses
    /// with `support * den > num * total` — no floating-point off-by-one.
    #[test]
    fn majority_vote_matches_exact_rational_thresholds(
        lists in proptest::collection::vec(
            proptest::collection::vec(1u8..30, 0..10), 0..8),
        num in 0u64..1000,
        den in 1u64..1000,
    ) {
        let lists: Vec<Vec<IpAddr>> = lists
            .into_iter()
            .map(|l| l.into_iter().map(benign).collect())
            .collect();
        let total = lists.len();
        let threshold = num as f64 / den as f64;
        let winners = majority_vote(&lists, total, threshold);
        let counts = support_counts(&lists);
        let expected: Vec<(IpAddr, usize)> = counts
            .into_iter()
            .filter(|(_, support)| {
                (*support as u128) * u128::from(den) > u128::from(num) * (total as u128)
            })
            .collect();
        prop_assert_eq!(winners, expected, "threshold {}/{}", num, den);
    }

    /// The vote over one sorted vector is the vote it replaced: presence per
    /// list counted in a map (`support_counts` above), each address asked of
    /// `meets_threshold` — same winners, same supports, same (ascending)
    /// order — for lists with duplicates, both families, empty lists and none
    /// at all, and for thresholds that are rationals, degenerate or arbitrary
    /// bit patterns.
    #[test]
    fn majority_vote_is_support_counts_filtered_by_meets_threshold(
        lists in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 1u8..12), 0..10), 0..10),
        named in 0usize..12,
        bits in any::<u64>(),
        slack in 0usize..3,
    ) {
        let lists: Vec<Vec<IpAddr>> = lists
            .into_iter()
            .map(|list| {
                list.into_iter()
                    .map(|(v6, host)| match v6 {
                        true => IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, host.into())),
                        false => benign(host),
                    })
                    .collect()
            })
            .collect();
        let thresholds = [
            0.5,
            2.0 / 3.0,
            0.7,
            1.0,
            0.0,
            -0.25,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            (bits >> 11) as f64 / (1u64 << 53) as f64,
        ];
        let threshold = thresholds.get(named).copied().unwrap_or(f64::from_bits(bits));
        // `total` is usually the number of lists and sometimes more (sources
        // that failed count towards it).
        let total = lists.len() + slack;

        let expected: Vec<(IpAddr, usize)> = match total {
            0 => Vec::new(),
            _ => support_counts(&lists)
                .into_iter()
                .filter(|(_, support)| meets_threshold(*support, total, threshold))
                .collect(),
        };
        prop_assert_eq!(
            majority_vote(&lists, total, threshold),
            expected,
            "threshold {:e} of {}",
            threshold,
            total
        );
    }

    /// Splitting a pool by family loses no entries and unions back to the
    /// original multiset size.
    #[test]
    fn split_by_family_partitions_the_pool(
        v4 in 0usize..30, v6 in 0usize..30
    ) {
        let mut pool = AddressPool::new();
        for i in 0..v4 {
            pool.push(benign((i % 250) as u8 + 1), "a");
        }
        for i in 0..v6 {
            pool.push(format!("2001:db8::{}", i + 1).parse().unwrap(), "b");
        }
        let (p4, p6) = pool.split_by_family();
        prop_assert_eq!(p4.len(), v4);
        prop_assert_eq!(p6.len(), v6);
        prop_assert_eq!(p4.len() + p6.len(), pool.len());
    }
}
