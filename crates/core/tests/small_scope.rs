//! The paper's guarantee checked on every case of a small scope, not on
//! samples.
//!
//! [`combine`] is the one function that turns resolver answers into a pool
//! — the session serves through it — so checking it checks what is served.
//! This test enumerates every input of a bounded scope instead of drawing
//! some:
//!
//! * 1 to 6 resolvers, each in one of four roles: failed, compromised, or
//!   honest with one of two lists. That is every subset compromised and
//!   every (disjoint) subset failed, in every configuration order;
//! * honest lists from a two-address benign alphabet, of up to two
//!   addresses: `[h1]` and `[h2, h1]`;
//! * the adversary's moves up to symmetry. Every compromised resolver plays
//!   the same move, since colluding lists are the strongest attack on both
//!   properties below. The moves are distinct attacker addresses of every
//!   length from 0 to 3 (the scope plus one), duplicates, echoes of an
//!   honest address, and the empty list;
//! * both failure policies, every `min_responses` and vote thresholds of
//!   1/2 and 2/3.
//!
//! The properties, with `usable` the lists the combination counts (a
//! `TreatAsEmpty` failure is an empty one) and `m` the compromised ones
//! among them:
//!
//! * the `min_responses` gate: the combination fails exactly when fewer than
//!   `min_responses` lists are usable, and reports the resolvers that
//!   answered;
//! * `TruncateAndCombine`: attacker-held slots are at most `m` times the
//!   truncate length, and at most a fraction `m / usable` of the pool;
//! * `MajorityVote`: while `m` is not above the threshold, no address is
//!   served on compromised votes alone. The vote is also held against its
//!   definition, counted here: an address passes when more than the
//!   threshold of the usable lists contain it;
//! * `CombineWithoutTruncation` is the negative control: the check must find
//!   the inflation counterexample of experiment E6 (one resolver of three
//!   answers more addresses than the others and takes more than its third);
//! * resolver order does not matter: the cases are grouped by their
//!   multiset of resolvers, and every order of the same resolvers gets the
//!   same verdict from every check above — the gate's outcome, and each
//!   mode's pool as a multiset of addresses with its truncate length.
//!
//! The test prints its case and multiset counts. It runs in a few seconds
//! in a debug build.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use sdoh_core::{combine, CombinationMode, FailurePolicy, PoolConfig, PoolError};

const fn benign(host: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(203, 0, 113, host))
}

const fn attacker(host: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(198, 18, 0, host))
}

fn is_attacker(address: IpAddr) -> bool {
    matches!(address, IpAddr::V4(v4) if v4.octets()[..3] == [198, 18, 0])
}

const H1: IpAddr = benign(1);
const H2: IpAddr = benign(2);
const A1: IpAddr = attacker(1);
const A2: IpAddr = attacker(2);
const A3: IpAddr = attacker(3);

/// Every address any list of the scope holds, in ascending order.
const ALPHABET: [IpAddr; 5] = [A1, A2, A3, H1, H2];

const RESOLVERS: usize = 6;

/// The lists an honest resolver may answer.
const HONEST: [&[IpAddr]; 2] = [&[H1], &[H2, H1]];

/// The adversary's moves. The first is the one tried when no resolver is
/// compromised, and the one the gate is checked with.
const MOVES: [&[IpAddr]; 10] = [
    &[],
    &[A1],
    &[A1, A2],
    &[A1, A2, A3],
    &[A1, A1],
    &[A1, A1, A1],
    &[H1],
    &[H2],
    &[A1, H1],
    &[H2, A1, A2],
];

const MODES: [CombinationMode; 3] = [
    CombinationMode::TruncateAndCombine,
    CombinationMode::CombineWithoutTruncation,
    CombinationMode::MajorityVote,
];

const POLICIES: [FailurePolicy; 2] = [FailurePolicy::Skip, FailurePolicy::TreatAsEmpty];

/// Vote thresholds as the rationals `num / den` they stand for.
const THRESHOLDS: [(usize, usize); 2] = [(1, 2), (2, 3)];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Role {
    Failed,
    Compromised,
    Honest(usize),
}

/// One input of the scope: the answers, in configuration order, under one
/// failure policy.
struct Case<'a> {
    answers: &'a [(&'a str, Option<&'a [IpAddr]>)],
    policy: FailurePolicy,
    answered: usize,
    usable: usize,
    compromised: usize,
}

impl Case<'_> {
    fn config(&self, mode: CombinationMode, min_responses: usize) -> PoolConfig {
        PoolConfig {
            mode,
            failure_policy: self.policy,
            min_responses,
            ..PoolConfig::default()
        }
    }

    /// How many lists hold `address`, and whether an honest one does.
    fn support(&self, address: IpAddr) -> (usize, bool) {
        let holding = self
            .answers
            .iter()
            .filter(|(_, list)| list.is_some_and(|list| list.contains(&address)));
        let honest = holding.clone().any(|(role, _)| *role == "honest");
        (holding.count(), honest)
    }
}

impl std::fmt::Display for Case<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}:", self.policy)?;
        for (role, list) in self.answers {
            match list {
                Some(list) => write!(f, " {role} {list:?}")?,
                None => write!(f, " {role}")?,
            }
        }
        Ok(())
    }
}

/// What one combination of a case came to, as no order of the resolvers
/// may change it: the gate's error, or the pool's addresses, sorted, and
/// its truncate length.
type Verdict = Result<(Vec<IpAddr>, Option<usize>), PoolError>;

fn verdict(got: &Result<(sdoh_core::AddressPool, Option<usize>), PoolError>) -> Verdict {
    got.as_ref()
        .map(|(pool, cut)| {
            let mut addresses = pool.addresses();
            addresses.sort();
            (addresses, *cut)
        })
        .map_err(Clone::clone)
}

#[derive(Default)]
struct Tally {
    cases: usize,
    calls: usize,
    /// `CombineWithoutTruncation` pools where the attacker holds more than
    /// its share of the usable lists.
    inflations: usize,
    /// The first of them where three resolvers answer and one of them is
    /// compromised: E6's.
    e6: Option<String>,
}

/// The gate, at every `min_responses` and in every mode.
fn check_gate(case: &Case, tally: &mut Tally, verdicts: &mut Vec<Verdict>) {
    for min_responses in 1..=case.answers.len() + 1 {
        for mode in MODES {
            tally.calls += 1;
            let got = combine(&case.config(mode, min_responses), case.answers);
            verdicts.push(verdict(&got));
            if case.usable < min_responses {
                let expected = PoolError::NotEnoughResponses {
                    answered: case.answered,
                    required: min_responses,
                };
                assert_eq!(got.err(), Some(expected), "{case}, {mode:?}");
            } else {
                assert!(got.is_ok(), "{case}, {mode:?}, min {min_responses}");
            }
        }
    }
}

/// What each mode makes of the case, with `min_responses` at the number of
/// usable lists.
fn check_modes(case: &Case, tally: &mut Tally, verdicts: &mut Vec<Verdict>) {
    let (m, usable) = (case.compromised, case.usable);
    if usable == 0 {
        return;
    }
    for mode in MODES {
        let thresholds: &[(usize, usize)] = match mode {
            CombinationMode::MajorityVote => &THRESHOLDS,
            _ => &THRESHOLDS[..1],
        };
        for &(num, den) in thresholds {
            let config = PoolConfig {
                majority_threshold: num as f64 / den as f64,
                ..case.config(mode, usable)
            };
            tally.calls += 1;
            let got = combine(&config, case.answers);
            verdicts.push(verdict(&got));
            let (pool, cut) = got.expect("the gate admits the case");
            let held = pool.iter().filter(|e| is_attacker(e.address)).count();
            let over_share = held * usable > m * pool.len();
            match mode {
                CombinationMode::TruncateAndCombine => {
                    let cut = cut.expect("a truncate length");
                    assert!(held <= m * cut, "{case}: {held} slots held, cut {cut}");
                    assert!(!over_share, "{case}: {held} of {} slots held", pool.len());
                }
                CombinationMode::CombineWithoutTruncation => {
                    if over_share {
                        tally.inflations += 1;
                        if case.answered == 3 && m == 1 && tally.e6.is_none() {
                            tally.e6 = Some(format!("{case}: {held} of {} slots", pool.len()));
                        }
                    }
                }
                CombinationMode::MajorityVote => {
                    assert_eq!(cut, None);
                    let minority = m * den <= num * usable;
                    for entry in pool.iter() {
                        let (_, honest) = case.support(entry.address);
                        assert!(
                            !minority || honest,
                            "{case}: {} passes {num}/{den} on compromised votes alone",
                            entry.address
                        );
                    }
                    let expected: Vec<(IpAddr, String)> = ALPHABET
                        .iter()
                        .filter_map(|&address| {
                            let (support, _) = case.support(address);
                            (support * den > num * usable)
                                .then(|| (address, format!("majority({support}/{usable})")))
                        })
                        .collect();
                    let served: Vec<(IpAddr, String)> = pool
                        .iter()
                        .map(|e| (e.address, e.source.to_string()))
                        .collect();
                    assert_eq!(served, expected, "{case}, threshold {num}/{den}");
                }
            }
        }
    }
}

#[test]
fn the_guarantee_holds_on_every_case_of_the_small_scope() {
    let started = Instant::now();
    let mut tally = Tally::default();
    // By resolver multiset (the roles, sorted), adversary move and failure
    // policy (their indexes): the verdicts of the first order met.
    let mut by_multiset: HashMap<(Vec<Role>, usize, usize), Vec<Verdict>> = HashMap::new();
    for n in 1..=RESOLVERS {
        for code in 0..1usize << (2 * n) {
            let roles: Vec<Role> = (0..n)
                .map(|i| match (code >> (2 * i)) & 3 {
                    0 => Role::Failed,
                    1 => Role::Compromised,
                    list => Role::Honest(list - 2),
                })
                .collect();
            let moves = if roles.contains(&Role::Compromised) {
                MOVES.len()
            } else {
                1
            };
            for (index, adversary) in MOVES[..moves].iter().enumerate() {
                let answers: Vec<(&str, Option<&[IpAddr]>)> = roles
                    .iter()
                    .map(|role| match *role {
                        Role::Failed => ("failed", None),
                        Role::Compromised => ("compromised", Some(*adversary)),
                        Role::Honest(list) => ("honest", Some(HONEST[list])),
                    })
                    .collect();
                let answered = answers.iter().filter(|(_, list)| list.is_some()).count();
                let compromised = roles.iter().filter(|r| **r == Role::Compromised).count();
                for (at, policy) in POLICIES.into_iter().enumerate() {
                    let usable = match policy {
                        FailurePolicy::Skip => answered,
                        FailurePolicy::TreatAsEmpty => n,
                    };
                    let case = Case {
                        answers: &answers,
                        policy,
                        answered,
                        usable,
                        compromised,
                    };
                    tally.cases += 1;
                    let mut verdicts = Vec::new();
                    if index == 0 {
                        check_gate(&case, &mut tally, &mut verdicts);
                    }
                    check_modes(&case, &mut tally, &mut verdicts);
                    let mut multiset = roles.clone();
                    multiset.sort();
                    let first = by_multiset
                        .entry((multiset, index, at))
                        .or_insert_with(|| verdicts.clone());
                    assert_eq!(
                        *first, verdicts,
                        "{case}: another order of the same resolvers was judged otherwise"
                    );
                }
            }
        }
    }
    let multisets = by_multiset
        .keys()
        .filter(|(_, index, policy)| *index == 0 && *policy == 0)
        .count();
    println!(
        "small scope: {} cases (1..={RESOLVERS} resolvers x roles x {} adversary moves x 2 \
         failure policies) over {multisets} resolver multisets, each judged alike in every \
         order, {} combinations checked in {:.2?}; CombineWithoutTruncation \
         over-shares in {} of them, E6's: {}",
        tally.cases,
        MOVES.len(),
        tally.calls,
        started.elapsed(),
        tally.inflations,
        tally.e6.as_deref().unwrap_or("none")
    );
    assert!(
        tally.e6.is_some(),
        "the negative control found no inflation counterexample"
    );
}
