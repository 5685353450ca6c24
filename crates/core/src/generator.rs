//! The secure server-pool generation procedure (Algorithm 1 of the paper)
//! and its variants.
//!
//! [`SecurePoolGenerator`] holds the configured resolver set; the actual
//! lookup logic lives in the sans-IO [`PoolSession`](crate::PoolSession)
//! state machine, for which this type is a thin convenience driver:
//! [`SecurePoolGenerator::generate`] fans the N resolver exchanges out
//! concurrently through [`Exchanger::exchange_all`], and
//! [`SecurePoolGenerator::generate_sequential`] preserves the historical
//! one-exchange-at-a-time behaviour for comparisons.

use std::sync::Arc;

use sdoh_dns_server::Exchanger;
use sdoh_dns_wire::Name;

use crate::config::{CombinationMode, PoolConfig};
use crate::error::{PoolError, PoolResult};
use crate::pool::AddressPool;
use crate::session::{drive, drive_sequential, PoolSession};
use crate::source::AddressSource;

/// Outcome of querying one resolver during pool generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceOutcome {
    /// The resolver answered with this many addresses (possibly zero).
    Answered(usize),
    /// The resolver failed; the string describes why.
    Failed(String),
}

impl SourceOutcome {
    /// Returns `true` for the `Answered` variant.
    pub(crate) fn is_answered(&self) -> bool {
        matches!(self, SourceOutcome::Answered(_))
    }
}

/// A full record of one pool-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationReport {
    /// The generated pool.
    pub pool: AddressPool,
    /// The combination mode that was used.
    pub mode: CombinationMode,
    /// Per-resolver outcomes, in configuration order: `(name, outcome)`,
    /// each name the one its source set holds.
    pub sources: Vec<(Arc<str>, SourceOutcome)>,
    /// The truncation length applied per queried record type
    /// (`("A", len)` / `("AAAA", len)` / `("A+AAAA", len)`); empty for the
    /// majority-vote mode.
    pub truncate_lengths: Vec<(String, usize)>,
}

impl GenerationReport {
    /// Number of resolvers that produced a usable answer.
    pub fn answered(&self) -> usize {
        self.sources.iter().filter(|(_, o)| o.is_answered()).count()
    }

    /// Number of resolvers that failed.
    pub fn failed(&self) -> usize {
        self.sources.len() - self.answered()
    }
}

/// A source of a generator's set, its name copied once when the set is
/// made: every report row and pool slot naming it shares that string.
pub(crate) struct Named {
    pub(crate) name: Arc<str>,
    pub(crate) source: Box<dyn AddressSource>,
}

fn source_set(sources: Vec<Box<dyn AddressSource>>) -> Arc<[Named]> {
    let named = |source: Box<dyn AddressSource>| Named {
        name: source.source_name().into(),
        source,
    };
    sources.into_iter().map(named).collect()
}

/// The secure pool generator: a set of distributed DoH resolvers plus a
/// combination policy.
pub struct SecurePoolGenerator {
    config: PoolConfig,
    /// Shared with every session planned over it, so a session may outlive
    /// the call that opened it and [`SecurePoolGenerator::replace_sources`]
    /// never changes the set under one.
    sources: Arc<[Named]>,
}

impl SecurePoolGenerator {
    /// Creates a generator from a configuration and a set of sources.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::NoResolvers`] for an empty source list and
    /// configuration validation errors.
    pub fn new(config: PoolConfig, sources: Vec<Box<dyn AddressSource>>) -> PoolResult<Self> {
        config.validate()?;
        if sources.is_empty() {
            return Err(PoolError::NoResolvers);
        }
        Ok(SecurePoolGenerator {
            config,
            sources: source_set(sources),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// How many sources a generation asks.
    pub(crate) fn width(&self) -> usize {
        self.sources.len()
    }

    /// Replaces the upstream resolver set on a live generator — the
    /// operational response to a compromised or retired resolver. The new
    /// set takes effect from the next generation; in-flight sessions
    /// (which share the old set and keep it alive) finish over it.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::NoResolvers`] for an empty set, leaving the
    /// current set in place.
    pub fn replace_sources(&mut self, sources: Vec<Box<dyn AddressSource>>) -> PoolResult<()> {
        if sources.is_empty() {
            return Err(PoolError::NoResolvers);
        }
        self.sources = source_set(sources);
        Ok(())
    }

    /// Replaces the pool-generation configuration on a live generator,
    /// validating it first.
    ///
    /// # Errors
    ///
    /// Returns the validation error of [`PoolConfig::validate`], leaving
    /// the current configuration in place.
    pub fn set_config(&mut self, config: PoolConfig) -> PoolResult<()> {
        config.validate()?;
        self.config = config;
        Ok(())
    }

    /// Plans one lookup of `domain` as a sans-IO [`PoolSession`] without
    /// performing any I/O. `seed` feeds the deterministic DNS transaction-id
    /// stream; drivers that don't care pass any constant.
    ///
    /// # Errors
    ///
    /// Configuration validation errors (the constructor already validated,
    /// so in practice this cannot fail for a constructed generator).
    pub fn session(&self, domain: &Name, seed: u64) -> PoolResult<PoolSession> {
        PoolSession::plan(self.config.clone(), Arc::clone(&self.sources), domain, seed)
    }

    /// Runs pool generation for `domain` according to the configured
    /// dual-stack policy, querying all N resolvers **concurrently**: over a
    /// transport with in-flight concurrency (the simulator-backed
    /// exchangers), the lookup costs the slowest resolver's round trips,
    /// not the sum.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::NotEnoughResponses`] when fewer resolvers than
    /// `min_responses` produced usable answers.
    pub fn generate(
        &self,
        exchanger: &mut dyn Exchanger,
        domain: &Name,
    ) -> PoolResult<GenerationReport> {
        let mut session = self.session(domain, seed_from(exchanger))?;
        drive(&mut session, exchanger)?;
        session.finish()
    }

    /// Runs pool generation querying the resolvers **one at a time** — the
    /// pre-session behaviour, kept for latency comparisons and transports
    /// without concurrency support. Produces the same report as
    /// [`SecurePoolGenerator::generate`] whenever answers don't depend on
    /// timing.
    ///
    /// # Errors
    ///
    /// Same as [`SecurePoolGenerator::generate`].
    pub fn generate_sequential(
        &self,
        exchanger: &mut dyn Exchanger,
        domain: &Name,
    ) -> PoolResult<GenerationReport> {
        let mut session = self.session(domain, seed_from(exchanger))?;
        drive_sequential(&mut session, exchanger)?;
        session.finish()
    }
}

/// Derives the session id seed from the exchanger's randomness, keeping the
/// DNS transaction ids tied to the simulation seed.
pub(crate) fn seed_from(exchanger: &mut dyn Exchanger) -> u64 {
    (u64::from(exchanger.next_id()) << 16) | u64::from(exchanger.next_id())
}

impl std::fmt::Debug for SecurePoolGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecurePoolGenerator")
            .field("config", &self.config)
            .field("resolvers", &self.sources.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DualStackPolicy, FailurePolicy};
    use crate::source::StaticSource;
    use sdoh_netsim::{SimAddr, SimNet};
    use std::net::IpAddr;

    fn ip(last: u8) -> IpAddr {
        format!("203.0.113.{last}").parse().unwrap()
    }

    fn evil(last: u8) -> IpAddr {
        format!("198.18.0.{last}").parse().unwrap()
    }

    fn boxed(source: StaticSource) -> Box<dyn AddressSource> {
        Box::new(source)
    }

    fn run(
        config: PoolConfig,
        sources: Vec<Box<dyn AddressSource>>,
    ) -> PoolResult<GenerationReport> {
        let net = SimNet::new(1);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let generator = SecurePoolGenerator::new(config, sources)?;
        generator.generate(&mut exchanger, &"pool.ntp.org".parse().unwrap())
    }

    #[test]
    fn algorithm1_truncates_to_shortest_and_combines() {
        // Resolver lists of length 3, 2, 4 -> truncate to 2, pool of 6.
        let sources = vec![
            boxed(StaticSource::answering("r1", vec![ip(1), ip(2), ip(3)])),
            boxed(StaticSource::answering("r2", vec![ip(4), ip(5)])),
            boxed(StaticSource::answering(
                "r3",
                vec![ip(6), ip(7), ip(8), ip(9)],
            )),
        ];
        let report = run(PoolConfig::algorithm1(), sources).unwrap();
        assert_eq!(report.pool.len(), 6);
        assert_eq!(report.truncate_lengths, vec![("A".to_string(), 2)]);
        assert_eq!(report.pool.slots_from("r1"), 2);
        assert_eq!(report.pool.slots_from("r2"), 2);
        assert_eq!(report.pool.slots_from("r3"), 2);
        // Order preserved within each resolver's contribution.
        assert_eq!(report.pool.addresses()[..2], [ip(1), ip(2)]);
        assert_eq!(report.answered(), 3);
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn truncation_caps_an_inflating_attacker() {
        // The attacker controls r3 and inflates its answer with 16 addresses.
        let attacker_list: Vec<IpAddr> = (1..=16).map(evil).collect();
        let sources = vec![
            boxed(StaticSource::answering("r1", vec![ip(1), ip(2), ip(3)])),
            boxed(StaticSource::answering("r2", vec![ip(4), ip(5), ip(6)])),
            boxed(StaticSource::answering("r3", attacker_list.clone())),
        ];
        let report = run(PoolConfig::algorithm1(), sources).unwrap();
        // Truncated to 3 per resolver: the attacker controls exactly 1/3.
        assert_eq!(report.pool.len(), 9);
        let malicious_fraction = 1.0 - report.pool.benign_fraction(|a| !attacker_list.contains(&a));
        assert!((malicious_fraction - 1.0 / 3.0).abs() < 1e-12);

        // Ablation: without truncation the attacker owns the pool majority.
        let sources = vec![
            boxed(StaticSource::answering("r1", vec![ip(1), ip(2), ip(3)])),
            boxed(StaticSource::answering("r2", vec![ip(4), ip(5), ip(6)])),
            boxed(StaticSource::answering("r3", attacker_list.clone())),
        ];
        let report = run(
            PoolConfig::default().with_mode(CombinationMode::CombineWithoutTruncation),
            sources,
        )
        .unwrap();
        let malicious_fraction = 1.0 - report.pool.benign_fraction(|a| !attacker_list.contains(&a));
        assert!(malicious_fraction > 0.5);
    }

    #[test]
    fn empty_answer_truncates_everything_to_zero() {
        let sources = vec![
            boxed(StaticSource::answering("r1", vec![ip(1), ip(2)])),
            boxed(StaticSource::answering("r2", vec![])),
            boxed(StaticSource::answering("r3", vec![ip(3), ip(4)])),
        ];
        let report = run(PoolConfig::algorithm1(), sources).unwrap();
        assert!(report.pool.is_empty());
        assert_eq!(report.truncate_lengths, vec![("A".to_string(), 0)]);
    }

    #[test]
    fn failed_resolver_skipped_or_counted_empty() {
        let make = || {
            vec![
                boxed(StaticSource::answering("r1", vec![ip(1), ip(2)])),
                boxed(StaticSource::failing("r2")),
                boxed(StaticSource::answering("r3", vec![ip(3), ip(4)])),
            ]
        };
        // Default: skip the failed resolver, pool built from the other two.
        let report = run(PoolConfig::algorithm1(), make()).unwrap();
        assert_eq!(report.pool.len(), 4);
        assert_eq!(report.answered(), 2);
        assert_eq!(report.failed(), 1);

        // TreatAsEmpty: the failure truncates the pool to zero.
        let report = run(
            PoolConfig {
                failure_policy: FailurePolicy::TreatAsEmpty,
                ..PoolConfig::algorithm1()
            },
            make(),
        )
        .unwrap();
        assert!(report.pool.is_empty());
    }

    #[test]
    fn min_responses_is_enforced() {
        let sources = vec![
            boxed(StaticSource::answering("r1", vec![ip(1)])),
            boxed(StaticSource::failing("r2")),
            boxed(StaticSource::failing("r3")),
        ];
        let err = run(
            PoolConfig {
                min_responses: 2,
                ..PoolConfig::algorithm1()
            },
            sources,
        )
        .unwrap_err();
        assert_eq!(
            err,
            PoolError::NotEnoughResponses {
                answered: 1,
                required: 2
            }
        );
    }

    #[test]
    fn majority_vote_filters_unpopular_addresses() {
        let sources = vec![
            boxed(StaticSource::answering("r1", vec![ip(1), ip(2), evil(1)])),
            boxed(StaticSource::answering("r2", vec![ip(1), ip(2)])),
            boxed(StaticSource::answering("r3", vec![ip(1), ip(3)])),
        ];
        let report = run(PoolConfig::majority_resolver(), sources).unwrap();
        let addrs = report.pool.addresses();
        assert!(addrs.contains(&ip(1)));
        assert!(addrs.contains(&ip(2)));
        assert!(!addrs.contains(&ip(3)));
        assert!(!addrs.contains(&evil(1)));
        assert!(report.truncate_lengths.is_empty());
    }

    #[test]
    fn dual_stack_policies() {
        let make = || {
            vec![
                boxed(StaticSource::answering(
                    "r1",
                    vec![ip(1), "2001:db8::1".parse().unwrap()],
                )),
                boxed(StaticSource::answering(
                    "r2",
                    vec![ip(2), ip(3), "2001:db8::2".parse().unwrap()],
                )),
            ]
        };
        let v4 = run(PoolConfig::algorithm1(), make()).unwrap();
        assert!(v4.pool.addresses().iter().all(|a| a.is_ipv4()));

        let v6 = run(
            PoolConfig::algorithm1().with_dual_stack(DualStackPolicy::Ipv6Only),
            make(),
        )
        .unwrap();
        assert!(v6.pool.addresses().iter().all(|a| a.is_ipv6()));
        assert_eq!(v6.pool.len(), 2);

        let union = run(
            PoolConfig::algorithm1().with_dual_stack(DualStackPolicy::Union),
            make(),
        )
        .unwrap();
        // Per-resolver combined lists have lengths 2 and 3 -> truncate to 2.
        assert_eq!(union.pool.len(), 4);
        assert_eq!(union.truncate_lengths, vec![("A+AAAA".to_string(), 2)]);

        let per_family = run(
            PoolConfig::algorithm1().with_dual_stack(DualStackPolicy::PerFamily),
            make(),
        )
        .unwrap();
        // A truncates to 1 (2 resolvers -> 2 slots), AAAA truncates to 1 (2 slots).
        assert_eq!(per_family.pool.len(), 4);
        assert_eq!(per_family.truncate_lengths.len(), 2);
    }

    #[test]
    fn constructor_errors() {
        assert!(matches!(
            SecurePoolGenerator::new(PoolConfig::algorithm1(), vec![]),
            Err(PoolError::NoResolvers)
        ));
        let bad_config = PoolConfig {
            majority_threshold: 2.0,
            ..PoolConfig::algorithm1()
        };
        assert!(SecurePoolGenerator::new(
            bad_config,
            vec![boxed(StaticSource::answering("r", vec![ip(1)]))]
        )
        .is_err());
    }

    #[test]
    fn sources_and_config_swap_on_a_live_generator() {
        let net = SimNet::new(2);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let mut generator = SecurePoolGenerator::new(
            PoolConfig::algorithm1(),
            vec![
                boxed(StaticSource::answering("old1", vec![ip(1), ip(2)])),
                boxed(StaticSource::answering("old2", vec![ip(3), ip(4)])),
            ],
        )
        .unwrap();
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let before = generator.generate(&mut exchanger, &domain).unwrap();
        assert_eq!(&*before.sources[0].0, "old1");

        // Rejections leave the generator untouched.
        assert!(matches!(
            generator.replace_sources(vec![]),
            Err(PoolError::NoResolvers)
        ));
        let kept = generator.generate(&mut exchanger, &domain).unwrap();
        assert_eq!(kept.sources, before.sources);
        assert!(generator
            .set_config(PoolConfig {
                majority_threshold: 2.0,
                ..PoolConfig::algorithm1()
            })
            .is_err());
        assert_eq!(generator.config().min_responses, 1);

        // A valid swap takes effect from the next generation.
        generator
            .replace_sources(vec![
                boxed(StaticSource::answering("new1", vec![ip(5), ip(6)])),
                boxed(StaticSource::answering("new2", vec![ip(7), ip(8)])),
                boxed(StaticSource::answering("new3", vec![ip(9), ip(10)])),
            ])
            .unwrap();
        generator
            .set_config(PoolConfig {
                min_responses: 2,
                ..PoolConfig::algorithm1()
            })
            .unwrap();
        let after = generator.generate(&mut exchanger, &domain).unwrap();
        assert_eq!(after.sources.len(), 3);
        assert_eq!(&*after.sources[0].0, "new1");
        assert_eq!(after.pool.len(), 6);
    }

    #[test]
    fn from_directory_builds_doh_sources() {
        // A fleet's resolvers as DoH sources, the way the scenario and the
        // loopback fleet build theirs.
        let sources = crate::fleet::doh_sources(&crate::fleet::DohFleet::new(3, 1, 8, 5).infos);
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        assert!(format!("{generator:?}").contains("resolvers: 3"));
        assert_eq!(generator.config().min_responses, 1);
    }
}
