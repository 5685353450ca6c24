//! The paper's one fixture, built in one place: N public DoH resolvers,
//! all answering one pool zone, a minority of them compromised. A world
//! installs a [`DohFleet`] — the simulator's scenario with a recursive
//! resolver behind each terminator, the loopback fleet with one shared
//! [`Authority`] — so both serve the same resolvers, names, addresses and
//! poisoning.

use std::net::IpAddr;

use sdoh_dns_server::{
    Authority, Catalog, PoisonConfig, PoisonMode, PoisonedResolver, QueryHandler, Zone,
};
use sdoh_dns_wire::Name;
use sdoh_doh::{ResolverDirectory, ResolverInfo};

use crate::guarantee::GroundTruth;
use crate::source::{AddressSource, DohSource};

/// What a compromised DoH resolver does, mapped onto the poisoning modes of
/// the DNS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolverCompromise {
    /// Replace every answer for the pool domain with attacker addresses.
    ReplaceWithAttackerAddresses(usize),
    /// Keep the honest answer but append this many attacker addresses
    /// (answer inflation).
    InflateWithAttackerAddresses(usize),
    /// Answer the pool domain with an empty record set.
    EmptyAnswer,
}

/// A fleet of DoH resolvers serving the pool domains of `ntpns.org`.
#[derive(Debug, Clone, PartialEq)]
pub struct DohFleet {
    /// The resolvers, the first ones of the well-known directory.
    pub infos: Vec<ResolverInfo>,
    /// `pool.ntpns.org`, `pool2.ntpns.org`, …
    pub domains: Vec<Name>,
    /// What every pool domain publishes: `203.0.113.1` on, in one /24.
    pub benign: Vec<IpAddr>,
    /// The attacker's addresses, `198.18.0.1` on: eight per benign one (at
    /// least 32), so inflation can outnumber the honest pool.
    pub attacker: Vec<IpAddr>,
}

impl DohFleet {
    /// The first `resolvers` of the directory `seed` keys, over
    /// `pool_domains` domains (at least one), each publishing `addresses`
    /// addresses (clamped to 1..=254).
    pub fn new(resolvers: usize, pool_domains: usize, addresses: usize, seed: u64) -> Self {
        let apex = pool_apex();
        let label = |i| match i {
            1 => "pool".to_string(),
            _ => format!("pool{i}"),
        };
        let per_domain = addresses.clamp(1, 254);
        DohFleet {
            infos: ResolverDirectory::well_known(seed).take(resolvers),
            // Well-formed labels: the fallback is never taken.
            domains: (1..=pool_domains.max(1))
                .map(|i| apex.child(label(i)).unwrap_or_else(|_| apex.clone()))
                .collect(),
            benign: (1..=254u8)
                .take(per_domain)
                .map(|host| IpAddr::from([203, 0, 113, host]))
                .collect(),
            attacker: (0..=u8::MAX)
                .flat_map(|net| (1..=254u8).map(move |host| IpAddr::from([198, 18, net, host])))
                .take(per_domain.max(4) * 8)
                .collect(),
        }
    }

    /// The `ntpns.org` zone with every pool domain's addresses; a world
    /// that delegates to it adds the delegation's records.
    pub fn pool_zone(&self) -> Zone {
        self.zone_of(&self.benign)
    }

    /// The `ntpns.org` zone with every pool domain publishing `addresses`:
    /// the benign ones, or those of an attacker's own authority.
    pub fn zone_of(&self, addresses: &[IpAddr]) -> Zone {
        let mut zone = Zone::new(pool_apex());
        for domain in &self.domains {
            for &address in addresses {
                zone.add_address(domain.clone(), address);
            }
        }
        zone
    }

    /// An authority serving [`DohFleet::pool_zone`]; its clones share one
    /// zone and answer index.
    pub fn authority(&self) -> Authority {
        let mut catalog = Catalog::new();
        catalog.add_zone(self.pool_zone());
        Authority::new(catalog)
    }

    /// `inner` compromised as `how` says, for every pool domain at once,
    /// answering with the first of the attacker's addresses.
    pub fn compromise<H: QueryHandler>(
        &self,
        inner: H,
        how: &ResolverCompromise,
    ) -> PoisonedResolver<H> {
        let attacker = |count: usize| self.attacker.iter().take(count.max(1)).copied().collect();
        let mode = match how {
            ResolverCompromise::ReplaceWithAttackerAddresses(count) => {
                PoisonMode::ReplaceAddresses(attacker(*count))
            }
            ResolverCompromise::InflateWithAttackerAddresses(count) => {
                PoisonMode::InflateWith(attacker(*count))
            }
            ResolverCompromise::EmptyAnswer => PoisonMode::EmptyAnswer,
        };
        let targets = PoisonConfig::for_targets(self.domains.iter().cloned(), mode);
        PoisonedResolver::new(inner, targets)
    }

    /// Ground truth: the attacker's addresses are malicious, the rest
    /// benign.
    pub fn ground_truth(&self) -> GroundTruth {
        GroundTruth::with_malicious(self.attacker.iter().copied())
    }
}

/// One [`DohSource`] per resolver of `infos`, a fleet's or part of one.
pub fn doh_sources(infos: &[ResolverInfo]) -> Vec<Box<dyn AddressSource>> {
    infos
        .iter()
        .map(|info| Box::new(DohSource::new(info.clone())) as Box<dyn AddressSource>)
        .collect()
}

/// `ntpns.org`; well-formed labels, so the fallback is never taken.
fn pool_apex() -> Name {
    Name::from_labels(["ntpns", "org"]).unwrap_or_else(|_| Name::root())
}
