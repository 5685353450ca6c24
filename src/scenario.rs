//! Ready-made simulation scenarios reproducing the paper's Figure 1 setup.
//!
//! A scenario wires together every substrate in the workspace: a DNS
//! hierarchy (root → `org.` → `ntpns.org.` with the `pool.ntpns.org` address
//! records), a fleet of public DoH resolvers each running a real recursive
//! resolver (optionally compromised), a plain "ISP" resolver for the
//! baseline, and the NTP servers the pool points at (optionally malicious).
//! Examples, integration tests and the experiment runner all build on it.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

pub use sdoh_core::ResolverCompromise;
use sdoh_core::{
    doh_sources, CacheConfig, CachingPoolResolver, DohFleet, GenerationReport, PoolConfig,
    SecurePoolGenerator,
};
use sdoh_dns_server::{
    Authority, Catalog, Do53Service, HardeningConfig, QueryHandler, RecursiveConfig,
    RecursiveResolver, Zone,
};
use sdoh_dns_wire::{Message, MessageBuilder, Name, RData, Record};
use sdoh_doh::DohServerService;
use sdoh_netsim::{BirthdaySpoofer, Ctx, LinkConfig, ObservedIdentifiers, SimAddr, SimNet};
use sdoh_ntp::{
    register_pool, ChronosClient, ConsensusFrontEnd, NtpServerConfig, NtpServerService,
    SecureTimeClient,
};

use crate::core::PoolResult;

/// Address of the simulated root name server.
pub const ROOT_SERVER: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(198, 41, 0, 4)),
    port: 53,
};

/// Address of the simulated `org.` name server.
pub const ORG_SERVER: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(199, 19, 56, 1)),
    port: 53,
};

/// Address of the simulated `ntpns.org.` name server (the `c.ntpns.org` of
/// Figure 1).
pub const NTPNS_SERVER: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(198, 51, 100, 3)),
    port: 53,
};

/// Address of the plain "ISP" resolver used by the baseline configuration.
pub const ISP_RESOLVER: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 53)),
    port: 53,
};

/// Address of the application host (the Chronos client of Figure 1).
pub const CLIENT_ADDR: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(192, 0, 2, 10)),
    port: 40000,
};

/// Address where the serving front ends (cached or uncached pool
/// resolvers) are installed by the scenario helpers.
pub const FRONTEND_ADDR: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(192, 0, 2, 53)),
    port: 53,
};

/// Address of the attacker's own name server — the destination a
/// Kaminsky-style forged referral points the victim resolver at
/// ([`Scenario::install_kaminsky_authority`]).
pub const EVIL_NS_ADDR: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(198, 18, 254, 53)),
    port: 53,
};

/// The (off-zone) host name the forged referral claims serves the pool
/// zone.
pub fn evil_ns_name() -> Name {
    "ns.evil-time.net".parse().expect("valid name")
}

/// Parameters of a Figure 1 scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Simulation seed; every random choice derives from it.
    pub seed: u64,
    /// Number of DoH resolvers installed (the first `n` of the well-known
    /// directory).
    pub resolvers: usize,
    /// Number of benign NTP servers published in `pool.ntpns.org`
    /// (clamped to 1..=254: the block is one /24).
    pub ntp_servers: usize,
    /// Number of pool domains served by the hierarchy (clamped to at least
    /// one). The first is `pool.ntpns.org`; additional ones are
    /// `pool2.ntpns.org`, `pool3.ntpns.org`, … — the "handful of domains" a
    /// serving workload spreads its queries over. Every pool domain
    /// publishes the same benign NTP fleet, and a compromised resolver
    /// poisons all of them.
    pub pool_domains: usize,
    /// Indexes of resolvers that are compromised, with their behaviour.
    pub compromised: Vec<(usize, ResolverCompromise)>,
    /// Time shift (seconds) applied by attacker-operated NTP servers.
    pub attacker_time_shift: f64,
    /// One-way link latency applied between all hosts.
    pub link_latency: Duration,
    /// Off-path defenses of the plain "ISP" resolver's Do53 leg. The
    /// secure default is every defense on;
    /// [`HardeningConfig::predictable_ids`] reproduces the weak resolver
    /// the paper's off-path attacker poisons. The DoH resolver fleet is
    /// always fully hardened.
    pub isp_hardening: HardeningConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            resolvers: 3,
            ntp_servers: 8,
            pool_domains: 1,
            compromised: Vec::new(),
            attacker_time_shift: 1000.0,
            link_latency: Duration::from_millis(10),
            isp_hardening: HardeningConfig::default(),
        }
    }
}

/// Composition of the NTP fleet serving the published pool addresses,
/// installed by [`Scenario::install_ntp_fleet`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NtpFleetConfig {
    /// How many of the published pool servers are attacker-operated
    /// (shifting reported time). These are linked into
    /// [`Scenario::ground_truth`] so every guarantee check sees them.
    pub malicious: usize,
    /// How many of the published pool servers are unresponsive (crashed or
    /// firewalled) — the situation that exercises the Chronos
    /// insufficient-samples guard.
    pub silent: usize,
    /// Time shift applied by the malicious servers; defaults to the
    /// scenario's `attacker_time_shift` when `None`.
    pub time_shift: Option<f64>,
}

/// What a winning race of the Kaminsky-style birthday attacker injects
/// ([`Scenario::kaminsky_adversary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KaminskyPayload {
    /// A forged direct answer: the raced query is answered with
    /// attacker-operated NTP addresses.
    DirectAnswer,
    /// A forged referral delegating the whole pool zone to the attacker's
    /// name server at [`EVIL_NS_ADDR`] with blind off-zone glue — the
    /// classic Kaminsky cache hijack. A resolver that trusts the glue is
    /// redirected wholesale; a bailiwick-enforcing resolver discards it.
    Referral,
}

/// A fully wired Figure 1 scenario.
pub struct Scenario {
    /// The simulated network with every service registered.
    pub net: SimNet,
    /// The DoH fleet: its resolvers, the pool domains, the benign
    /// addresses they publish (all benign after [`Scenario::build`];
    /// [`Scenario::install_ntp_fleet`] can re-register some of them as
    /// malicious or silent) and the attacker's addresses, which
    /// compromised resolvers replace or inflate answers with.
    pub fleet: DohFleet,
    /// Published pool servers currently operated by the attacker (set by
    /// [`Scenario::install_ntp_fleet`], folded into
    /// [`Scenario::ground_truth`]).
    pub pool_ntp_malicious: Vec<IpAddr>,
    /// The scenario configuration it was built from.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// The pool domain (`pool.ntpns.org.`), the fleet's first.
    pub fn pool_domain(&self) -> &Name {
        &self.fleet.domains[0]
    }

    /// Builds the scenario: DNS hierarchy, DoH resolvers, ISP resolver and
    /// NTP servers.
    pub fn build(config: ScenarioConfig) -> Self {
        let net = SimNet::new(config.seed);
        net.set_default_link(
            LinkConfig::with_latency(config.link_latency).jitter(Duration::from_millis(2)),
        );
        let fleet = DohFleet::new(
            config.resolvers,
            config.pool_domains,
            config.ntp_servers,
            config.seed,
        );
        install_dns_hierarchy(&net, fleet.pool_zone());

        // NTP servers: benign ones behind the pool records, malicious ones
        // behind the attacker addresses.
        let ntp = |addresses: &[IpAddr]| -> Vec<SimAddr> {
            addresses
                .iter()
                .map(|&ip| SimAddr::new(ip, sdoh_netsim::ports::NTP))
                .collect()
        };
        register_pool(&net, &ntp(&fleet.benign), 0, 0.0, config.seed ^ 0xA11CE);
        register_pool(
            &net,
            &ntp(&fleet.attacker),
            fleet.attacker.len(),
            config.attacker_time_shift,
            config.seed ^ 0xBAD,
        );

        // The plain ISP resolver (baseline): an honest recursive resolver
        // reachable over Do53, hardened (or not) per the configuration.
        let isp = recursive_resolver(&net, config.isp_hardening);
        net.register(ISP_RESOLVER, Do53Service::new(isp));

        let scenario = Scenario {
            net,
            fleet,
            pool_ntp_malicious: Vec::new(),
            config,
        };
        for index in 0..scenario.fleet.infos.len() {
            let how = scenario
                .config
                .compromised
                .iter()
                .find(|(i, _)| *i == index);
            scenario.install_resolver(index, how.map(|(_, how)| how));
        }
        scenario
    }

    /// (Re-)installs the DoH resolver at `index` of the fleet, replacing
    /// whatever is registered at its address: a fresh honest recursive
    /// resolver when `compromise` is `None`, otherwise one the fleet
    /// compromises ([`DohFleet::compromise`]). Build time uses this
    /// to stand the fleet up; chaos campaigns use it to churn, compromise
    /// and restore resolvers mid-run (a reinstalled resolver starts with a
    /// cold cache, like a replacement instance would).
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside the installed fleet.
    pub fn install_resolver(&self, index: usize, compromise: Option<&ResolverCompromise>) {
        let info = &self.fleet.infos[index];
        // The DoH fleet is always fully hardened.
        let recursive = recursive_resolver(&self.net, HardeningConfig::default());
        let handler: Box<dyn QueryHandler> = match compromise {
            None => Box::new(recursive),
            Some(how) => Box::new(self.fleet.compromise(recursive, how)),
        };
        self.net
            .register(info.addr, DohServerService::new(info.clone(), handler));
    }

    /// Unregisters the DoH resolver at `index` (it died); returns whether it
    /// was registered. [`Scenario::install_resolver`] revives it.
    pub fn kill_resolver(&self, index: usize) -> bool {
        self.net.unregister(self.fleet.infos[index].addr)
    }

    /// The network address of the DoH resolver at `index` of the fleet.
    pub fn resolver_addr(&self, index: usize) -> SimAddr {
        self.fleet.infos[index].addr
    }

    /// Re-registers the NTP fleet behind the **published** pool addresses:
    /// the first `fleet.malicious` servers become attacker-operated time
    /// shifters, the next `fleet.silent` stop answering, and the rest stay
    /// benign. The malicious ones are recorded in
    /// [`Scenario::pool_ntp_malicious`] and therefore show up in
    /// [`Scenario::ground_truth`], so guarantee checks and clock-error
    /// measurements stay linked to the same ground truth the DNS layer
    /// uses.
    ///
    /// This models the paper's full threat surface: even an honestly
    /// resolved pool can contain a (tolerated) bad minority, while a
    /// poisoned resolution replaces the pool wholesale.
    pub fn install_ntp_fleet(&mut self, ntp: NtpFleetConfig) {
        let shift = ntp.time_shift.unwrap_or(self.config.attacker_time_shift);
        let published = &self.fleet.benign;
        let malicious = ntp.malicious.min(published.len());
        let silent = ntp.silent.min(published.len() - malicious);
        self.pool_ntp_malicious = published[..malicious].to_vec();
        for ((index, &ip), salt) in published.iter().enumerate().zip(0u64..) {
            let config = if index < malicious {
                NtpServerConfig::malicious(shift)
            } else if index < malicious + silent {
                NtpServerConfig::silent()
            } else {
                NtpServerConfig::benign()
            };
            self.net.register(
                SimAddr::new(ip, sdoh_netsim::ports::NTP),
                NtpServerService::new(config, self.net.clock(), self.config.seed ^ 0xF1EE7 ^ salt),
            );
        }
    }

    /// A secure pool generator over this scenario's DoH resolvers.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the generator constructor.
    pub fn pool_generator(&self, config: PoolConfig) -> PoolResult<SecurePoolGenerator> {
        SecurePoolGenerator::new(config, doh_sources(&self.fleet.infos))
    }

    /// Ground truth for guarantee checking: attacker NTP addresses are
    /// malicious — plus any published pool servers the attacker operates
    /// ([`Scenario::install_ntp_fleet`]) — everything else benign.
    pub fn ground_truth(&self) -> sdoh_core::GroundTruth {
        let mut truth = self.fleet.ground_truth();
        truth.extend_malicious(self.pool_ntp_malicious.iter().copied());
        truth
    }

    /// The context of the application host of Figure 1, the exchanger
    /// its lookups send from.
    pub fn client_exchanger(&self) -> Ctx<'_> {
        self.net.client(CLIENT_ADDR)
    }

    /// Runs one secure pool generation over the scenario's DoH fleet with
    /// the paper's **concurrent fan-out** (all resolvers queried in
    /// parallel), returning the report and the elapsed virtual time.
    ///
    /// # Errors
    ///
    /// Propagates configuration and generation errors.
    pub fn generate_pool(&self, config: PoolConfig) -> PoolResult<(GenerationReport, Duration)> {
        let generator = self.pool_generator(config)?;
        let mut exchanger = self.client_exchanger();
        let start = self.net.now();
        let report = generator.generate(&mut exchanger, self.pool_domain())?;
        Ok((report, self.net.clock().elapsed_since(start)))
    }

    /// Like [`Scenario::generate_pool`] but querying the resolvers one at a
    /// time — the latency baseline the concurrent fan-out is measured
    /// against.
    ///
    /// # Errors
    ///
    /// Propagates configuration and generation errors.
    pub fn generate_pool_sequential(
        &self,
        config: PoolConfig,
    ) -> PoolResult<(GenerationReport, Duration)> {
        let generator = self.pool_generator(config)?;
        let mut exchanger = self.client_exchanger();
        let start = self.net.now();
        let report = generator.generate_sequential(&mut exchanger, self.pool_domain())?;
        Ok((report, self.net.clock().elapsed_since(start)))
    }

    /// Builds a [`CachingPoolResolver`] over this scenario's DoH fleet and
    /// registers it as a plain-DNS front end at [`FRONTEND_ADDR`]. The
    /// returned handle stays shared with the registered service, so the
    /// experiment can pump background refreshes
    /// ([`CachingPoolResolver::run_due_refreshes`]) and read
    /// [`CachingPoolResolver::metrics`] while clients query it over the
    /// network.
    ///
    /// The handle is the **thread-safe** `Arc<Mutex<_>>` (access the
    /// resolver with `.lock()`), the same sharing primitive the
    /// real-socket runtime uses — so a resolver configured inside a
    /// simulation scenario can also be handed to threaded drivers.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the generator constructor.
    pub fn install_caching_frontend(
        &self,
        pool: PoolConfig,
        cache: CacheConfig,
    ) -> PoolResult<Arc<Mutex<CachingPoolResolver>>> {
        let resolver = Arc::new(Mutex::new(CachingPoolResolver::new(
            self.pool_generator(pool)?,
            cache,
        )));
        self.net
            .register(FRONTEND_ADDR, Do53Service::new(Arc::clone(&resolver)));
        Ok(resolver)
    }

    /// Builds the end-to-end secure time-sync pipeline over this scenario:
    /// installs the caching consensus front end at [`FRONTEND_ADDR`] (so
    /// network clients share it too) and wires the same handle into a
    /// [`SecureTimeClient`] driving `chronos` — pool per TTL window,
    /// re-pulled on refresh, Chronos updates over it.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the generator constructor.
    pub fn secure_time_client(
        &self,
        pool: PoolConfig,
        cache: CacheConfig,
        chronos: ChronosClient,
    ) -> PoolResult<SecureTimeClient> {
        let frontend = self.install_caching_frontend(pool, cache)?;
        Ok(SecureTimeClient::new(
            Box::new(ConsensusFrontEnd::new(frontend)),
            self.pool_domain().clone(),
            chronos,
        ))
    }

    /// What a forged answer for a pool domain carries: as many of the
    /// attacker's addresses as the pool publishes.
    pub fn forged_addresses(&self) -> Vec<IpAddr> {
        self.fleet.attacker[..self.fleet.benign.len()].to_vec()
    }

    /// Registers the **attacker's name server** at [`EVIL_NS_ADDR`]: an
    /// authoritative copy of the pool zone answering every pool domain
    /// with attacker-operated NTP addresses. A victim resolver that
    /// follows a Kaminsky-style forged referral (blind glue) ends up
    /// asking this server and caching its poison; a bailiwick-enforcing
    /// resolver never gets here.
    pub fn install_kaminsky_authority(&self) {
        // The pool zone as the attacker publishes it: its own addresses.
        let mut zone = self.fleet.zone_of(&self.forged_addresses());
        zone.add_record(Record::new(
            "ntpns.org".parse().expect("valid"),
            86_400,
            RData::Ns(evil_ns_name()),
        ));
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        self.net
            .register(EVIL_NS_ADDR, Do53Service::new(Authority::new(catalog)));
    }

    /// Builds the paper's off-path **birthday attacker** against this
    /// scenario's Do53 legs: it races `attempts` forged responses against
    /// every plain query for the pool zone sent to the authoritative
    /// servers, guessing transaction ids, source ports and 0x20 casing as
    /// described on [`BirthdaySpoofer`]. Attach it with
    /// `scenario.net.set_adversary(...)` and keep the
    /// [`BirthdaySpoofer::stats_handle`] for accounting.
    ///
    /// [`KaminskyPayload`] selects what a winning race injects: a direct
    /// forged answer for the raced query, or a forged referral delegating
    /// the whole pool zone to [`EVIL_NS_ADDR`] (install the attacker's
    /// server with [`Scenario::install_kaminsky_authority`] first).
    pub fn kaminsky_adversary(&self, attempts: u32, payload: KaminskyPayload) -> BirthdaySpoofer {
        let zone: Name = "ntpns.org".parse().expect("valid");
        let inspect_zone = zone.clone();
        let forged_addresses = self.forged_addresses();
        BirthdaySpoofer::new(
            attempts,
            move |payload_bytes: &[u8]| {
                let query = Message::decode(payload_bytes).ok()?;
                let question = query.question()?;
                if !question.rtype.is_address() || !question.name.is_subdomain_of(&inspect_zone) {
                    return None;
                }
                Some(ObservedIdentifiers {
                    txid: query.header.id,
                    // 0x20 bits the forger cannot derive from context: only
                    // a mixed-case query carries them.
                    extra_entropy_bits: if question.name.is_canonical_lowercase() {
                        0
                    } else {
                        question.name.case_entropy_bits()
                    },
                })
            },
            move |query_bytes: &[u8], _rng| {
                let query = Message::decode(query_bytes).ok()?;
                let question = query.question()?.clone();
                let response = match payload {
                    KaminskyPayload::DirectAnswer => {
                        let mut builder = MessageBuilder::response_to(&query);
                        for addr in &forged_addresses {
                            builder =
                                builder.answer(Record::address(question.name.clone(), 300, *addr));
                        }
                        builder.build()
                    }
                    KaminskyPayload::Referral => MessageBuilder::response_to(&query)
                        .authority(Record::new(zone.clone(), 86_400, RData::Ns(evil_ns_name())))
                        .additional(Record::address(evil_ns_name(), 86_400, EVIL_NS_ADDR.ip))
                        .build(),
                };
                response.encode().ok()
            },
        )
        .with_targets(vec![ROOT_SERVER, ORG_SERVER, NTPNS_SERVER])
    }
}

/// Wraps bare addresses in an [`AddressPool`](sdoh_core::AddressPool)
/// attributed to `source` — how experiments feed pools obtained outside a
/// `GenerationReport` (a stub lookup, a served answer) into
/// [`check_guarantee`](sdoh_core::check_guarantee).
pub fn address_pool(addresses: &[IpAddr], source: &str) -> sdoh_core::AddressPool {
    let mut pool = sdoh_core::AddressPool::new();
    for &addr in addresses {
        pool.push(addr, source);
    }
    pool
}

/// A recursive resolver starting from this hierarchy's root.
fn recursive_resolver(net: &SimNet, hardening: HardeningConfig) -> RecursiveResolver {
    let config = RecursiveConfig {
        root_hints: vec![ROOT_SERVER],
        hardening,
        ..RecursiveConfig::default()
    };
    RecursiveResolver::new(config, net.clock())
}

/// Installs the root → org → ntpns.org DNS hierarchy, `ntpns.org` serving
/// the fleet's pool zone: each level delegates to the next one's name
/// server (with glue) and is served by an authority of its own.
fn install_dns_hierarchy(net: &SimNet, pool_zone: Zone) {
    let org: Name = "org".parse().expect("valid");
    let levels = [
        (
            ROOT_SERVER,
            Zone::new(Name::root()),
            "org",
            "b0.org.afilias-nst.org",
            ORG_SERVER,
        ),
        (
            ORG_SERVER,
            Zone::new(org),
            "ntpns.org",
            "c.ntpns.org",
            NTPNS_SERVER,
        ),
        (
            NTPNS_SERVER,
            pool_zone,
            "ntpns.org",
            "c.ntpns.org",
            NTPNS_SERVER,
        ),
    ];
    for (server, mut zone, child, ns, ns_server) in levels {
        let ns: Name = ns.parse().expect("valid");
        let child: Name = child.parse().expect("valid");
        zone.add_record(Record::new(child, 86_400, RData::Ns(ns.clone())));
        zone.add_record(Record::address(ns, 86_400, ns_server.ip));
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        net.register(server, Do53Service::new(Authority::new(catalog)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_core::{check_guarantee, CombinationMode};
    use sdoh_dns_server::StubResolver;

    #[test]
    fn default_scenario_serves_the_pool_domain_both_ways() {
        let scenario = Scenario::build(ScenarioConfig::default());
        let mut exchanger = scenario.net.client(CLIENT_ADDR);

        // Baseline: plain DNS through the ISP resolver.
        let stub = StubResolver::new(ISP_RESOLVER);
        let plain = stub
            .lookup_ipv4(&mut exchanger, scenario.pool_domain())
            .unwrap();
        assert_eq!(plain.len(), scenario.config.ntp_servers);

        // Proposal: Algorithm 1 over the DoH fleet.
        let generator = scenario.pool_generator(PoolConfig::algorithm1()).unwrap();
        let report = generator
            .generate(&mut exchanger, scenario.pool_domain())
            .unwrap();
        assert_eq!(
            report.pool.len(),
            scenario.config.ntp_servers * scenario.config.resolvers
        );
        let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
        assert!(check.holds);
        assert!((check.benign_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compromised_minority_keeps_the_guarantee() {
        let scenario = Scenario::build(ScenarioConfig {
            resolvers: 3,
            compromised: vec![(0, ResolverCompromise::ReplaceWithAttackerAddresses(8))],
            ..ScenarioConfig::default()
        });
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let generator = scenario.pool_generator(PoolConfig::algorithm1()).unwrap();
        let report = generator
            .generate(&mut exchanger, scenario.pool_domain())
            .unwrap();
        let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
        assert!(check.holds, "1 of 3 compromised resolvers keeps x >= 1/2");
        assert!(check.malicious_fraction <= 1.0 / 3.0 + 1e-9);
    }

    #[test]
    fn inflation_is_neutralised_by_truncation_but_not_without_it() {
        let build = || {
            Scenario::build(ScenarioConfig {
                resolvers: 3,
                compromised: vec![(1, ResolverCompromise::InflateWithAttackerAddresses(32))],
                ..ScenarioConfig::default()
            })
        };
        let scenario = build();
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let report = scenario
            .pool_generator(PoolConfig::algorithm1())
            .unwrap()
            .generate(&mut exchanger, scenario.pool_domain())
            .unwrap();
        let truth = scenario.ground_truth();
        let with_truncation = check_guarantee(&report.pool, &truth, 0.5);
        assert!(with_truncation.holds);

        let scenario = build();
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let report = scenario
            .pool_generator(
                PoolConfig::default().with_mode(CombinationMode::CombineWithoutTruncation),
            )
            .unwrap()
            .generate(&mut exchanger, scenario.pool_domain())
            .unwrap();
        let without_truncation = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
        assert!(
            !without_truncation.holds,
            "without truncation the inflated answer dominates the pool"
        );
    }

    #[test]
    fn multiple_pool_domains_are_served_and_poisoned_alike() {
        let scenario = Scenario::build(ScenarioConfig {
            pool_domains: 3,
            compromised: vec![(0, ResolverCompromise::ReplaceWithAttackerAddresses(4))],
            ..ScenarioConfig::default()
        });
        assert_eq!(scenario.fleet.domains.len(), 3);
        let generator = scenario.pool_generator(PoolConfig::algorithm1()).unwrap();
        let mut exchanger = scenario.client_exchanger();
        for domain in &scenario.fleet.domains {
            let report = generator.generate(&mut exchanger, domain).unwrap();
            let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
            assert!(check.holds, "{domain}: {check:?}");
            assert!(
                check.malicious_fraction > 0.0,
                "the compromised resolver must poison {domain} too"
            );
        }
    }

    #[test]
    fn serving_frontends_share_state_with_the_driver() {
        let scenario = Scenario::build(ScenarioConfig::default());
        let resolver = scenario
            .install_caching_frontend(PoolConfig::algorithm1(), CacheConfig::default())
            .unwrap();
        let stub = StubResolver::new(FRONTEND_ADDR);
        let mut exchanger = scenario.client_exchanger();
        let first = stub
            .lookup_ipv4(&mut exchanger, scenario.pool_domain())
            .unwrap();
        assert_eq!(first.len(), 24, "8 NTP servers x 3 resolvers");
        let again = stub
            .lookup_ipv4(&mut exchanger, scenario.pool_domain())
            .unwrap();
        assert_eq!(again, first);
        // The driver-side handle observes the queries the network served.
        let metrics = resolver.lock().metrics();
        assert_eq!(metrics.queries, 2);
        assert_eq!(metrics.generations, 1);
        assert_eq!(metrics.hits, 1);

        // Swapping in the uncached baseline replaces the registration.
        let uncached = scenario
            .install_caching_frontend(PoolConfig::algorithm1(), CacheConfig::uncached())
            .unwrap();
        let baseline = stub
            .lookup_ipv4(&mut exchanger, scenario.pool_domain())
            .unwrap();
        assert_eq!(baseline, first);
        assert_eq!(uncached.lock().metrics().generations, 1);
        assert_eq!(resolver.lock().metrics().queries, 2, "detached handle");
    }

    #[test]
    fn ntp_fleet_links_planted_servers_into_ground_truth() {
        use sdoh_ntp::{ChronosConfig, LocalClock, NtpClient};

        let mut scenario = Scenario::build(ScenarioConfig {
            ntp_servers: 18,
            ..ScenarioConfig::default()
        });
        assert!(scenario.pool_ntp_malicious.is_empty());
        scenario.install_ntp_fleet(NtpFleetConfig {
            malicious: 4,
            silent: 2,
            time_shift: Some(750.0),
        });
        assert_eq!(scenario.pool_ntp_malicious.len(), 4);
        let truth = scenario.ground_truth();
        for ip in &scenario.fleet.benign[..4] {
            assert!(truth.is_malicious(*ip), "{ip} must be ground-truth bad");
        }
        assert!(!truth.is_malicious(scenario.fleet.benign[5]));

        // The honestly resolved pool now carries a bad minority — exactly
        // what Chronos is built to tolerate.
        let report = scenario
            .pool_generator(PoolConfig::algorithm1())
            .unwrap()
            .generate(&mut scenario.client_exchanger(), scenario.pool_domain())
            .unwrap();
        let check = check_guarantee(&report.pool, &truth, 0.5);
        assert!(check.holds, "4 of 18 planted servers keep the majority");
        assert!(check.malicious_fraction > 0.0);

        let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
        let mut chronos = sdoh_ntp::ChronosClient::new(
            ChronosConfig::default(),
            NtpClient::new(CLIENT_ADDR.with_port(123)),
            77,
        )
        .unwrap();
        chronos
            .update(&scenario.net, &mut clock, &report.pool.addresses())
            .unwrap();
        assert!(
            clock.offset_from_true().abs() < 1.0,
            "planted minority tolerated: {}",
            clock.offset_from_true()
        );
    }

    #[test]
    fn secure_time_client_syncs_over_the_installed_frontend() {
        use sdoh_ntp::{ChronosClient, ChronosConfig, LocalClock, NtpClient};

        let scenario = Scenario::build(ScenarioConfig {
            ntp_servers: 16,
            ..ScenarioConfig::default()
        });
        let mut client = scenario
            .secure_time_client(
                PoolConfig::algorithm1(),
                CacheConfig::default(),
                ChronosClient::new(
                    ChronosConfig::default(),
                    NtpClient::new(CLIENT_ADDR.with_port(123)),
                    88,
                )
                .unwrap(),
            )
            .unwrap();
        let mut clock = LocalClock::new(scenario.net.clock(), -45.0);
        let mut exchanger = scenario.client_exchanger();
        let outcome = client
            .sync(&scenario.net, &mut exchanger, &mut clock)
            .unwrap();
        assert!(outcome.pool_refreshed);
        assert_eq!(outcome.pool_size, 48, "16 servers x 3 resolvers");
        assert!(
            clock.offset_from_true().abs() < 0.1,
            "clock disciplined through the pipeline: {}",
            clock.offset_from_true()
        );

        // The front end the client pulled through is the same one network
        // clients reach at FRONTEND_ADDR: the pool is already cached.
        let stub = StubResolver::new(FRONTEND_ADDR);
        let served = stub
            .lookup_ipv4(&mut exchanger, scenario.pool_domain())
            .unwrap();
        assert_eq!(served.len(), 48);
        let check = check_guarantee(
            &address_pool(&served, "frontend"),
            &scenario.ground_truth(),
            0.5,
        );
        assert!(check.holds);
    }

    #[test]
    fn empty_answer_compromise_is_a_dos_not_a_capture() {
        let scenario = Scenario::build(ScenarioConfig {
            resolvers: 3,
            compromised: vec![(2, ResolverCompromise::EmptyAnswer)],
            ..ScenarioConfig::default()
        });
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let report = scenario
            .pool_generator(PoolConfig::algorithm1())
            .unwrap()
            .generate(&mut exchanger, scenario.pool_domain())
            .unwrap();
        assert!(
            report.pool.is_empty(),
            "footnote 2: empty answers DoS the pool"
        );
        assert!(!sdoh_core::attacker_controls_fraction(
            &report.pool,
            &scenario.ground_truth(),
            0.5
        ));
    }
}
