//! Ready-made loopback deployments: a DoH resolver fleet as in-process
//! backends plus the shard set serving pools generated over it.
//!
//! This is the real-socket sibling of the simulator's scenario layer: it
//! wires the well-known resolver directory to full RFC 8484 terminators
//! (each answering from an authoritative pool zone, optionally poisoned)
//! and hands out [`Shard`]s whose generators fan out over that fleet —
//! everything a loopback end-to-end test, a stress run or a throughput
//! experiment needs to drive a [`PoolRuntime`](crate::PoolRuntime) without
//! touching the public Internet.

use std::net::IpAddr;
use std::time::Duration;

use sdoh_core::{
    AddressSource, CacheConfig, CachingPoolResolver, DohSource, GroundTruth, PoolConfig,
    PoolResult, SecurePoolGenerator,
};
use sdoh_dns_server::{Authority, Catalog, PoisonConfig, PoisonMode, PoisonedResolver, Zone};
use sdoh_dns_wire::Name;
use sdoh_doh::{DohMethod, DohServerService, ResolverDirectory, ResolverInfo};
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
    pub fn build(config: LoopbackConfig) -> Self {
        let domains: Vec<Name> = (0..config.pool_domains.max(1))
            .map(|i| {
                let label = if i == 0 {
                    "pool.ntpns.org".to_string()
                } else {
                    format!("pool{}.ntpns.org", i + 1)
                };
                label.parse().expect("valid name") // sdoh-lint: allow(no-panic, "the generated pool labels are statically well-formed host names")
            })
            .collect();
        let per_domain = config.addresses_per_domain.clamp(1, 254);
        let benign: Vec<IpAddr> = (1..=per_domain)
            .map(|i| IpAddr::V4(std::net::Ipv4Addr::new(203, 0, 113, i as u8))) // sdoh-lint: allow(no-narrowing-cast, "per_domain is clamped to at most 254, so i fits u8")
            .collect();
        let attacker: Vec<IpAddr> = (1..=per_domain)
            .map(|i| IpAddr::V4(std::net::Ipv4Addr::new(198, 18, 0, i as u8))) // sdoh-lint: allow(no-narrowing-cast, "per_domain is clamped to at most 254, so i fits u8")
            .collect();

        let mut zone = Zone::new("ntpns.org".parse().expect("valid")); // sdoh-lint: allow(no-panic, "the zone apex is a statically well-formed host name")
        for domain in &domains {
            for &addr in &benign {
                zone.add_address(domain.clone(), addr);
            }
        }
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        // One zone and one answer index for the whole fleet: every
        // terminator serves a clone.
        let authority = Authority::new(catalog);

        let directory = ResolverDirectory::well_known(config.seed);
        let infos = directory.take(config.resolvers);
        let mut builder = BackendNet::builder().with_latency(config.upstream_latency);
        for (index, info) in infos.iter().enumerate() {
            if config.compromised.contains(&index) {
                // A compromised resolver poisons every pool domain: one
                // wrapper over the set of them, one lookup per label of a
                // query's name however many domains the pool has.
                let handler = PoisonedResolver::new(
                    authority.clone(),
                    PoisonConfig::for_targets(
                        domains.iter().cloned(),
                        PoisonMode::ReplaceAddresses(attacker.clone()),
                    ),
                );
                builder = builder.register(info.addr, DohServerService::new(info.clone(), handler));
            } else {
                builder = builder.register(
                    info.addr,
                    DohServerService::new(info.clone(), authority.clone()),
                );
            }
        }

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
        (0..count.max(1))
            .map(|i| {
                let sources: Vec<Box<dyn AddressSource>> = self
                    .infos
                    .iter()
                    .map(|info| {
                        Box::new(DohSource::new(info.clone()).method(DohMethod::Get))
                            as Box<dyn AddressSource>
                    })
                    .collect();
                let generator = SecurePoolGenerator::new(pool.clone(), sources)?;
                // Two octets of shard index: distinct source addresses up
                // to 64k shards without u8 wrap-around.
                let exchanger = self.backends.exchanger(SimAddr::v4(
                    10,
                    1,
                    (i / 256) as u8, // sdoh-lint: allow(no-narrowing-cast, "shard counts stay far below 64k, so the high octet fits u8")
                    (i % 256) as u8, // sdoh-lint: allow(no-narrowing-cast, "the modulo keeps the low octet below 256")
                    40000,
                ));
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
        let sources = fleet
            .infos
            .iter()
            .map(|info| {
                Box::new(DohSource::new(info.clone()).method(DohMethod::Get))
                    as Box<dyn AddressSource>
            })
            .collect();
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut exchanger = fleet.backends.exchanger(SimAddr::v4(10, 1, 0, 0, 40000));
        let report = generator.generate(&mut exchanger, &fleet.domains[0]);
        assert_eq!(report.unwrap().answered(), 31);
    }
}
