//! Ready-made loopback deployments: the [`DohFleet`] installed as
//! in-process RFC 8484 terminators, plus [`Shard`]s whose generators fan
//! out over it — what a loopback end-to-end test, a stress run or a
//! throughput experiment needs to drive a [`PoolRuntime`](crate::PoolRuntime)
//! without touching the public Internet.

use std::net::IpAddr;
use std::time::Duration;

use sdoh_core::{
    doh_sources, CacheConfig, CachingPoolResolver, DohFleet, GroundTruth, PoolConfig, PoolResult,
    ResolverCompromise, SecurePoolGenerator,
};
use sdoh_dns_wire::Name;
use sdoh_doh::{DohServerService, ResolverInfo};
use sdoh_netsim::SimAddr;

use crate::backend::BackendNet;
use crate::runtime::Shard;

/// Parameters of a loopback fleet.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// Number of DoH resolvers (the first `n` of the well-known
    /// directory).
    pub resolvers: usize,
    /// Number of pool domains the zone publishes (`pool.ntpns.org`,
    /// `pool2.ntpns.org`, …).
    pub pool_domains: usize,
    /// Benign addresses published per pool domain (clamped to 1..=254:
    /// both address blocks live in one /24 each).
    pub addresses_per_domain: usize,
    /// Indexes of resolvers that replace every pool answer with attacker
    /// addresses.
    pub compromised: Vec<usize>,
    /// Artificial upstream latency (models the DoH round trip a generation
    /// pays once for its whole fan-out, while its shard serves on; zero for
    /// raw-throughput runs).
    pub upstream_latency: Duration,
    /// Seed for the resolver directory keys.
    pub seed: u64,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        LoopbackConfig {
            resolvers: 3,
            pool_domains: 4,
            addresses_per_domain: 8,
            compromised: Vec::new(),
            upstream_latency: Duration::ZERO,
            seed: 1,
        }
    }
}

/// A built loopback fleet: the backend net plus everything needed to build
/// shards and check guarantees against it.
pub struct LoopbackFleet {
    /// The in-process endpoints (one DoH terminator per resolver).
    pub backends: BackendNet,
    /// The installed resolvers, in directory order.
    pub infos: Vec<ResolverInfo>,
    /// Every pool domain the fleet serves.
    pub domains: Vec<Name>,
    /// The benign addresses each pool domain publishes.
    pub benign: Vec<IpAddr>,
    /// The attacker addresses compromised resolvers answer with.
    pub attacker: Vec<IpAddr>,
}

impl LoopbackFleet {
    /// Builds the fleet: pool zone, DoH terminators, optional compromise.
    /// A compromised resolver answers with as many attacker addresses as a
    /// domain publishes, and the fleet knows no others.
    pub fn build(config: LoopbackConfig) -> Self {
        let mut fleet = DohFleet::new(
            config.resolvers,
            config.pool_domains,
            config.addresses_per_domain,
            config.seed,
        );
        fleet.attacker.truncate(fleet.benign.len());
        let replace = ResolverCompromise::ReplaceWithAttackerAddresses(fleet.benign.len());
        let compromised: Vec<_> = config
            .compromised
            .iter()
            .map(|&i| (i, replace.clone()))
            .collect();
        LoopbackFleet::install(fleet, &compromised, config.upstream_latency)
    }

    /// Installs `fleet` as in-process endpoints: one DoH terminator per
    /// resolver, each serving a clone of one authority, the `compromised`
    /// ones wrapped as [`DohFleet::compromise`] says.
    pub fn install(
        fleet: DohFleet,
        compromised: &[(usize, ResolverCompromise)],
        upstream_latency: Duration,
    ) -> Self {
        let authority = fleet.authority();
        let mut builder = BackendNet::builder().with_latency(upstream_latency);
        for (index, info) in fleet.infos.iter().enumerate() {
            let authority = authority.clone();
            builder = match compromised.iter().find(|(i, _)| *i == index) {
                Some((_, how)) => builder.register(
                    info.addr,
                    DohServerService::new(info.clone(), fleet.compromise(authority, how)),
                ),
                None => builder.register(info.addr, DohServerService::new(info.clone(), authority)),
            };
        }
        let DohFleet {
            infos,
            domains,
            benign,
            attacker,
        } = fleet;
        LoopbackFleet {
            backends: builder.build(),
            infos,
            domains,
            benign,
            attacker,
        }
    }

    /// Builds `count` serving shards, each with its own caching resolver
    /// over a fresh generator fanning out to this fleet.
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors.
    pub fn shards(
        &self,
        count: usize,
        pool: PoolConfig,
        cache: CacheConfig,
    ) -> PoolResult<Vec<Shard>> {
        // Two octets of shard index: distinct source addresses for up to
        // 64k shards.
        let octets = (0..=u8::MAX).flat_map(|high| (0..=u8::MAX).map(move |low| (high, low)));
        octets
            .take(count.max(1))
            .map(|(high, low)| {
                let generator = SecurePoolGenerator::new(pool.clone(), doh_sources(&self.infos))?;
                let exchanger = self
                    .backends
                    .exchanger(SimAddr::v4(10, 1, high, low, 40000));
                Ok(Shard::new(
                    CachingPoolResolver::new(generator, cache),
                    Box::new(exchanger),
                ))
            })
            .collect()
    }

    /// Ground truth for guarantee checking: the attacker addresses are
    /// malicious, everything else benign.
    pub fn ground_truth(&self) -> GroundTruth {
        GroundTruth::with_malicious(self.attacker.iter().copied())
    }
}

impl std::fmt::Debug for LoopbackFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackFleet")
            .field("resolvers", &self.infos.len())
            .field("domains", &self.domains.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fleet_of_31_resolvers_installs_31() {
        let fleet = LoopbackFleet::build(LoopbackConfig {
            resolvers: 31,
            ..LoopbackConfig::default()
        });
        assert_eq!(fleet.infos.len(), 31);
        // Every one of them is installed, and answers a generation.
        let generator =
            SecurePoolGenerator::new(PoolConfig::algorithm1(), doh_sources(&fleet.infos)).unwrap();
        let mut exchanger = fleet.backends.exchanger(SimAddr::v4(10, 1, 0, 0, 40000));
        let report = generator.generate(&mut exchanger, &fleet.domains[0]);
        assert_eq!(report.unwrap().answered(), 31);
    }
}
