//! End-to-end secure time synchronization: wiring consensus-generated
//! server pools into the Chronos client.
//!
//! The paper's point is that NTP is only as secure as the pool of servers
//! obtained through DNS: Chronos tolerates a bad *minority* inside its
//! pool, but a pool whose majority was poisoned at the DNS layer captures
//! even Chronos. This module closes the loop between the two halves of the
//! workspace:
//!
//! * an [`NtpPoolSource`] abstracts *where* the pool comes from — the
//!   single plain-DNS resolver of the baseline
//!   ([`SingleResolverPool`]), a direct distributed-consensus generation
//!   ([`GeneratorPool`]), or the caching consensus front end the serving
//!   subsystem exposes ([`ConsensusFrontEnd`]);
//! * [`SecureTimeClient`] owns one such source plus a [`ChronosClient`]:
//!   every [`SecureTimeClient::sync`] re-pulls the pool when its TTL window
//!   has elapsed (stale serves carry TTL zero, so the next sync re-pulls
//!   immediately after a refresh) and then drives one Chronos update over
//!   the current pool.
//!
//! The result is the paper's headline defense as an executable object: the
//! same Chronos client is hijacked when its pool arrives through one
//! spoofable Do53 leg, and keeps the clock within a second when the pool
//! arrives through the distributed-DoH consensus pipeline.

use std::net::IpAddr;
use std::sync::Arc;

use parking_lot::Mutex;

use sdoh_core::{AddressFamily, CachingPoolResolver, ResolvedPool, SecurePoolGenerator};
use sdoh_dns_server::{DnsClient, Exchanger};
use sdoh_dns_wire::{Name, Rcode, Ttl};
use sdoh_netsim::{SimAddr, SimInstant, SimNet};

use crate::chronos::{ChronosClient, ChronosOutcome};
use crate::clock::LocalClock;
use crate::error::NtpError;

/// Errors of the secure time-sync pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeSyncError {
    /// Fetching the server pool failed (transport error, SERVFAIL, failed
    /// generation).
    PoolFetch(String),
    /// The pool source answered, but with no addresses — the DoS outcome
    /// of an empty-answer compromise.
    EmptyPool,
    /// The NTP/Chronos update over the fetched pool failed.
    Ntp(NtpError),
}

impl std::fmt::Display for TimeSyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeSyncError::PoolFetch(msg) => write!(f, "pool fetch failed: {msg}"),
            TimeSyncError::EmptyPool => write!(f, "the pool source returned no addresses"),
            TimeSyncError::Ntp(e) => write!(f, "time update failed: {e}"),
        }
    }
}

impl std::error::Error for TimeSyncError {}

impl From<NtpError> for TimeSyncError {
    fn from(e: NtpError) -> Self {
        TimeSyncError::Ntp(e)
    }
}

/// Where a time client obtains its NTP server pool from.
///
/// Implementations cover the paper's three configurations: one plain-DNS
/// resolver, a direct distributed-consensus generation, and the caching
/// consensus front end.
pub trait NtpPoolSource {
    /// Fetches the current pool for `domain` with its remaining validity
    /// (a zero TTL means "usable for this sync only").
    ///
    /// # Errors
    ///
    /// Returns [`TimeSyncError::PoolFetch`] when the source cannot produce
    /// a pool at all.
    fn fetch_pool(
        &mut self,
        exchanger: &mut dyn Exchanger,
        domain: &Name,
    ) -> Result<ResolvedPool, TimeSyncError>;

    /// Human-readable name used in experiment tables and diagnostics.
    fn source_name(&self) -> &str;
}

/// The baseline pool source: one plain-DNS lookup through a single
/// recursive resolver — the spoofable Do53 leg of the paper's attacks.
#[derive(Debug, Clone)]
pub struct SingleResolverPool {
    client: DnsClient,
}

impl SingleResolverPool {
    /// Creates a source querying `resolver` over plain DNS.
    pub fn new(resolver: SimAddr) -> Self {
        SingleResolverPool {
            client: DnsClient::new(resolver).recursion_desired(true),
        }
    }
}

impl NtpPoolSource for SingleResolverPool {
    fn fetch_pool(
        &mut self,
        exchanger: &mut dyn Exchanger,
        domain: &Name,
    ) -> Result<ResolvedPool, TimeSyncError> {
        let response = self
            .client
            .query(exchanger, domain, sdoh_dns_wire::RrType::A)
            .map_err(|e| TimeSyncError::PoolFetch(e.to_string()))?;
        if response.header.rcode != Rcode::NoError {
            return Err(TimeSyncError::PoolFetch(format!(
                "resolver answered {:?}",
                response.header.rcode
            )));
        }
        Ok(ResolvedPool::from_answer(&response))
    }

    fn source_name(&self) -> &str {
        "single-resolver"
    }
}

/// A pool source running one full distributed-consensus generation per
/// fetch — the paper's client-side pipeline without a caching layer.
pub struct GeneratorPool {
    generator: SecurePoolGenerator,
    ttl: Ttl,
}

impl GeneratorPool {
    /// Creates a source around `generator`; each fetched pool is declared
    /// valid for `ttl`.
    pub fn new(generator: SecurePoolGenerator, ttl: Ttl) -> Self {
        GeneratorPool { generator, ttl }
    }
}

impl NtpPoolSource for GeneratorPool {
    fn fetch_pool(
        &mut self,
        exchanger: &mut dyn Exchanger,
        domain: &Name,
    ) -> Result<ResolvedPool, TimeSyncError> {
        let report = self
            .generator
            .generate(exchanger, domain)
            .map_err(|e| TimeSyncError::PoolFetch(e.to_string()))?;
        Ok(ResolvedPool {
            addresses: report.pool.addresses(),
            ttl: self.ttl,
        })
    }

    fn source_name(&self) -> &str {
        "distributed-consensus"
    }
}

impl std::fmt::Debug for GeneratorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneratorPool")
            .field("ttl", &self.ttl)
            .finish()
    }
}

/// The serving-subsystem pool source: the shared caching consensus front
/// end ([`CachingPoolResolver`]) of the serve layer, consumed in process
/// through its `Arc<Mutex<_>>` handle — the same handle the scenario layer
/// registers behind a Do53 service.
///
/// Fetches go through [`CachingPoolResolver::resolve_pool`], so the client
/// observes exactly what a DNS client would: fresh hits with decremented
/// TTLs, stale serves with TTL zero (plus a queued background refresh), and
/// on-demand generations on a cold cache.
#[derive(Debug, Clone)]
pub struct ConsensusFrontEnd {
    resolver: Arc<Mutex<CachingPoolResolver>>,
}

impl ConsensusFrontEnd {
    /// Wraps a shared caching front-end handle.
    pub fn new(resolver: Arc<Mutex<CachingPoolResolver>>) -> Self {
        ConsensusFrontEnd { resolver }
    }
}

impl NtpPoolSource for ConsensusFrontEnd {
    fn fetch_pool(
        &mut self,
        exchanger: &mut dyn Exchanger,
        domain: &Name,
    ) -> Result<ResolvedPool, TimeSyncError> {
        self.resolver
            .lock()
            .resolve_pool(exchanger, domain, AddressFamily::V4)
            .map_err(|e| TimeSyncError::PoolFetch(e.to_string()))
    }

    fn source_name(&self) -> &str {
        "cached-consensus"
    }
}

/// The outcome of one [`SecureTimeClient::sync`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSyncOutcome {
    /// The Chronos update that was applied.
    pub chronos: ChronosOutcome,
    /// Whether this sync re-pulled the pool (first sync, or the previous
    /// pool's TTL window had elapsed).
    pub pool_refreshed: bool,
    /// Size of the pool the update ran over.
    pub pool_size: usize,
}

/// A time-sync client that obtains its NTP server pool through a secure
/// pool source and disciplines a clock with Chronos over it.
///
/// The pool is cached client-side for exactly the TTL window its source
/// granted: a sync within the window reuses it, the first sync after the
/// window re-pulls it ("fresh pool per TTL window"). Sources that serve
/// stale pools hand out TTL zero, making the very next sync re-pull — the
/// client never outlives its source's own freshness rules.
pub struct SecureTimeClient {
    source: Box<dyn NtpPoolSource>,
    domain: Name,
    chronos: ChronosClient,
    pool: Vec<IpAddr>,
    pool_expires: Option<SimInstant>,
    pool_refreshes: u64,
    metrics: Option<TimeSyncCounters>,
}

/// The export counters of one [`SecureTimeClient`], registered via
/// [`SecureTimeClient::register_metrics`].
struct TimeSyncCounters {
    syncs: sdoh_metrics::Counter,
    failures: sdoh_metrics::Counter,
    refreshes: sdoh_metrics::Counter,
}

impl SecureTimeClient {
    /// Creates a client syncing against the pool served for `domain` by
    /// `source`.
    pub fn new(source: Box<dyn NtpPoolSource>, domain: Name, chronos: ChronosClient) -> Self {
        SecureTimeClient {
            source,
            domain,
            chronos,
            pool: Vec::new(),
            pool_expires: None,
            pool_refreshes: 0,
            metrics: None,
        }
    }

    /// Registers this client's counters into `registry`, labelled by the
    /// configured pool source: successful syncs, failed syncs (pool fetch,
    /// empty pool or Chronos rejection) and pool re-pulls. Call once per
    /// client; a second registration for the same source name panics (the
    /// registry rejects duplicate series).
    pub fn register_metrics(&mut self, registry: &sdoh_metrics::Registry) {
        let labels = [("source", self.source.source_name())];
        let counter = |(name, help): (&str, &str)| registry.counter_with(name, help, &labels);
        self.metrics = Some(TimeSyncCounters {
            syncs: counter(sdoh_core::METRIC_TIMESYNC_SYNCS),
            failures: counter(sdoh_core::METRIC_TIMESYNC_FAILURES),
            refreshes: counter(sdoh_core::METRIC_TIMESYNC_POOL_REFRESHES),
        });
    }

    /// The pool the next in-window sync would use (empty before the first
    /// sync).
    pub fn pool(&self) -> &[IpAddr] {
        &self.pool
    }

    /// How many times the pool has been (re-)pulled from the source.
    pub fn pool_refreshes(&self) -> u64 {
        self.pool_refreshes
    }

    /// The name of the configured pool source.
    pub fn source_name(&self) -> &str {
        self.source.source_name()
    }

    /// Performs one synchronization: re-pulls the pool if its TTL window
    /// has elapsed, then drives one Chronos update over it, adjusting
    /// `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSyncError::PoolFetch`] / [`TimeSyncError::EmptyPool`]
    /// when no usable pool can be obtained — the clock is left untouched —
    /// and [`TimeSyncError::Ntp`] when Chronos rejects every sampling round
    /// over the fetched pool.
    pub fn sync(
        &mut self,
        net: &SimNet,
        exchanger: &mut dyn Exchanger,
        clock: &mut LocalClock,
    ) -> Result<TimeSyncOutcome, TimeSyncError> {
        let outcome = self.sync_inner(net, exchanger, clock);
        if let Some(metrics) = &self.metrics {
            match &outcome {
                Ok(result) => {
                    metrics.syncs.inc();
                    if result.pool_refreshed {
                        metrics.refreshes.inc();
                    }
                }
                Err(_) => metrics.failures.inc(),
            }
        }
        outcome
    }

    fn sync_inner(
        &mut self,
        net: &SimNet,
        exchanger: &mut dyn Exchanger,
        clock: &mut LocalClock,
    ) -> Result<TimeSyncOutcome, TimeSyncError> {
        let now = exchanger.now();
        let expired = self.pool_expires.is_none_or(|expires| now >= expires);
        let pool_refreshed = self.pool.is_empty() || expired;
        if pool_refreshed {
            let timed = self.source.fetch_pool(exchanger, &self.domain)?;
            if timed.addresses.is_empty() {
                return Err(TimeSyncError::EmptyPool);
            }
            self.pool = timed.addresses;
            self.pool_expires = Some(now.saturating_add(timed.ttl.as_duration()));
            self.pool_refreshes += 1;
        }
        let chronos = self.chronos.update(net, clock, &self.pool)?;
        Ok(TimeSyncOutcome {
            chronos,
            pool_refreshed,
            pool_size: self.pool.len(),
        })
    }
}

impl std::fmt::Debug for SecureTimeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureTimeClient")
            .field("source", &self.source.source_name())
            .field("domain", &self.domain)
            .field("pool_size", &self.pool.len())
            .field("pool_expires", &self.pool_expires)
            .field("pool_refreshes", &self.pool_refreshes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chronos::ChronosConfig;
    use crate::client::NtpClient;
    use crate::server::register_pool;
    use sdoh_core::{AddressSource, CacheConfig, PoolConfig, SecurePoolGenerator, StaticSource};
    use sdoh_netsim::LinkConfig;
    use std::time::Duration;

    fn ntp_fleet(net: &SimNet, count: u8, malicious: usize, shift: f64) -> Vec<IpAddr> {
        let addrs: Vec<SimAddr> = (1..=count)
            .map(|i| SimAddr::v4(203, 0, 113, i, 123))
            .collect();
        register_pool(net, &addrs, malicious, shift, 99);
        addrs.iter().map(|a| a.ip).collect()
    }

    fn frontend_over(ips: &[IpAddr], ttl_secs: u32) -> Arc<Mutex<CachingPoolResolver>> {
        let sources: Vec<Box<dyn AddressSource>> = (1..=3)
            .map(|i| {
                Box::new(StaticSource::answering(format!("r{i}"), ips.to_vec()))
                    as Box<dyn AddressSource>
            })
            .collect();
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        Arc::new(Mutex::new(CachingPoolResolver::new(
            generator,
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(ttl_secs))
                .with_stale_window(Duration::from_secs(30)),
        )))
    }

    fn chronos(seed: u64) -> ChronosClient {
        ChronosClient::new(
            ChronosConfig::default(),
            NtpClient::new(SimAddr::v4(10, 0, 0, 1, 123)).timeout(Duration::from_millis(500)),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn syncs_through_the_consensus_front_end_and_honours_ttl_windows() {
        let net = SimNet::new(400);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let ips = ntp_fleet(&net, 15, 0, 0.0);
        let frontend = frontend_over(&ips, 60);
        let mut client = SecureTimeClient::new(
            Box::new(ConsensusFrontEnd::new(Arc::clone(&frontend))),
            "pool.ntpns.org".parse().unwrap(),
            chronos(400),
        );
        assert_eq!(client.source_name(), "cached-consensus");
        assert!(client.pool().is_empty());

        let mut clock = LocalClock::new(net.clock(), -30.0);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let first = client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(first.pool_refreshed);
        assert_eq!(first.pool_size, 45, "3 resolvers x 15 addresses");
        assert!(
            clock.offset_from_true().abs() < 0.1,
            "clock disciplined: {}",
            clock.offset_from_true()
        );
        assert_eq!(client.pool_refreshes(), 1);

        // Within the TTL window the pool is reused without touching the
        // front end again.
        let generations_before = frontend.lock().metrics().generations;
        net.clock().advance(Duration::from_secs(20));
        let second = client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(!second.pool_refreshed);
        assert_eq!(client.pool_refreshes(), 1);
        assert_eq!(frontend.lock().metrics().generations, generations_before);

        // Past the window the pool is re-pulled (a cache hit server-side if
        // the entry is still fresh there, a regeneration otherwise).
        net.clock().advance(Duration::from_secs(60));
        let third = client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(third.pool_refreshed);
        assert_eq!(client.pool_refreshes(), 2);
        assert!(clock.offset_from_true().abs() < 0.1);
    }

    #[test]
    fn stepped_and_drifting_clocks_stay_disciplined_across_syncs() {
        let net = SimNet::new(405);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let ips = ntp_fleet(&net, 15, 0, 0.0);
        let frontend = frontend_over(&ips, 60);
        let mut client = SecureTimeClient::new(
            Box::new(ConsensusFrontEnd::new(Arc::clone(&frontend))),
            "pool.ntpns.org".parse().unwrap(),
            chronos(405),
        );
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(clock.offset_from_true().abs() < 0.1);

        // A sim-time step past the TTL window (the whole world jumps; the
        // local offset is stored separately and is unaffected) forces the
        // next sync to re-pull the pool.
        net.clock().step(Duration::from_secs(120));
        assert_eq!(net.clock().steps(), 1);
        let refreshed = client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(refreshed.pool_refreshed, "TTL expired across the step");
        assert!(clock.offset_from_true().abs() < 0.1);

        // An operator-style step of the *local* clock is pulled back by the
        // next Chronos sync.
        clock.adjust(45.0);
        assert!(clock.offset_from_true() > 44.0);
        client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(
            clock.offset_from_true().abs() < 0.1,
            "step corrected: {}",
            clock.offset_from_true()
        );

        // Injected drift stretches advanced intervals; syncing afterwards
        // still converges because offsets are measured, not assumed.
        net.clock().set_drift(5e-4);
        net.clock().advance(Duration::from_secs(120));
        net.clock().set_drift(0.0);
        let after_drift = client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(after_drift.pool_refreshed);
        assert!(clock.offset_from_true().abs() < 0.1);
    }

    #[test]
    fn stale_serves_grant_a_zero_window_and_repull_next_sync() {
        let net = SimNet::new(401);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let ips = ntp_fleet(&net, 15, 0, 0.0);
        let frontend = frontend_over(&ips, 10);
        let mut client = SecureTimeClient::new(
            Box::new(ConsensusFrontEnd::new(Arc::clone(&frontend))),
            "pool.ntpns.org".parse().unwrap(),
            chronos(401),
        );
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        client.sync(&net, &mut exchanger, &mut clock).unwrap();

        // Enter the stale window: the fetch is served stale with TTL 0, so
        // the pool expires immediately and the next sync re-pulls again.
        net.clock().advance(Duration::from_secs(15));
        let stale = client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(stale.pool_refreshed);
        // A zero-TTL pool expires at its fetch instant (the subsequent
        // Chronos exchanges have since advanced virtual time past it).
        assert!(client.pool_expires.unwrap() <= net.now());
        assert_eq!(frontend.lock().metrics().stale_serves, 1);
        let again = client.sync(&net, &mut exchanger, &mut clock).unwrap();
        assert!(again.pool_refreshed, "zero TTL means no reuse window");
    }

    #[test]
    fn single_resolver_source_reads_answer_ttls() {
        let net = SimNet::new(402);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        // A static-zone authority standing in for the recursive resolver.
        let resolver_addr = SimAddr::v4(10, 0, 0, 53, 53);
        let mut zone = sdoh_dns_server::Zone::new("ntpns.org".parse().unwrap());
        let ips = ntp_fleet(&net, 12, 0, 0.0);
        for ip in &ips {
            zone.add_record(sdoh_dns_wire::Record::address(
                "pool.ntpns.org".parse().unwrap(),
                300,
                *ip,
            ));
        }
        let mut catalog = sdoh_dns_server::Catalog::new();
        catalog.add_zone(zone);
        net.register(
            resolver_addr,
            sdoh_dns_server::Do53Service::new(sdoh_dns_server::Authority::new(catalog)),
        );

        let mut source = SingleResolverPool::new(resolver_addr);
        assert_eq!(source.source_name(), "single-resolver");
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let pool = source
            .fetch_pool(&mut exchanger, &"pool.ntpns.org".parse().unwrap())
            .unwrap();
        assert_eq!(pool.addresses.len(), 12);
        assert_eq!(pool.ttl, Ttl::from_secs(300));

        let missing = source
            .fetch_pool(&mut exchanger, &"missing.ntpns.org".parse().unwrap())
            .unwrap_err();
        assert!(matches!(missing, TimeSyncError::PoolFetch(_)));
    }

    #[test]
    fn empty_pools_fail_the_sync_without_touching_the_clock() {
        let net = SimNet::new(403);
        struct EmptySource;
        impl NtpPoolSource for EmptySource {
            fn fetch_pool(
                &mut self,
                _exchanger: &mut dyn Exchanger,
                _domain: &Name,
            ) -> Result<ResolvedPool, TimeSyncError> {
                Ok(ResolvedPool {
                    addresses: Vec::new(),
                    ttl: Ttl::from_secs(60),
                })
            }
            fn source_name(&self) -> &str {
                "empty"
            }
        }
        let mut client = SecureTimeClient::new(
            Box::new(EmptySource),
            "pool.ntpns.org".parse().unwrap(),
            chronos(403),
        );
        let mut clock = LocalClock::new(net.clock(), 5.0);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let err = client.sync(&net, &mut exchanger, &mut clock).unwrap_err();
        assert_eq!(err, TimeSyncError::EmptyPool);
        assert_eq!(clock.offset_from_true(), 5.0, "clock untouched");
        assert!(format!("{client:?}").contains("SecureTimeClient"));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn registered_counters_track_syncs_failures_and_refreshes() {
        let net = SimNet::new(406);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let ips = ntp_fleet(&net, 15, 0, 0.0);
        let frontend = frontend_over(&ips, 60);
        let registry = sdoh_metrics::Registry::new();
        let mut client = SecureTimeClient::new(
            Box::new(ConsensusFrontEnd::new(Arc::clone(&frontend))),
            "pool.ntpns.org".parse().unwrap(),
            chronos(406),
        );
        client.register_metrics(&registry);
        assert!(registry.lint().is_empty(), "every counter carries help");

        let mut clock = LocalClock::new(net.clock(), -10.0);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        client.sync(&net, &mut exchanger, &mut clock).unwrap();
        net.clock().advance(Duration::from_secs(20));
        client.sync(&net, &mut exchanger, &mut clock).unwrap(); // in-window: no re-pull

        // Sum across the per-source label sets of one family.
        let value = |name: &str| {
            let samples: Vec<_> = registry
                .gather()
                .into_iter()
                .filter(|s| s.name == name)
                .collect();
            assert!(!samples.is_empty(), "{name} not exported");
            samples
                .into_iter()
                .map(|s| match s.value {
                    sdoh_metrics::SampleValue::Counter(v) => v,
                    other => panic!("{name} not a counter: {other:?}"),
                })
                .sum::<u64>()
        };
        assert_eq!(value("sdoh_timesync_syncs_total"), 2);
        assert_eq!(value("sdoh_timesync_pool_refreshes_total"), 1);
        assert_eq!(value("sdoh_timesync_failures_total"), 0);
        assert_eq!(
            client.pool_refreshes(),
            value("sdoh_timesync_pool_refreshes_total"),
            "exported counter matches the client's own accounting"
        );

        // A client over a source that always fails bumps only failures.
        struct EmptySource;
        impl NtpPoolSource for EmptySource {
            fn fetch_pool(
                &mut self,
                _exchanger: &mut dyn Exchanger,
                _domain: &Name,
            ) -> Result<ResolvedPool, TimeSyncError> {
                Ok(ResolvedPool {
                    addresses: Vec::new(),
                    ttl: Ttl::from_secs(60),
                })
            }
            fn source_name(&self) -> &str {
                "always-empty"
            }
        }
        let mut failing = SecureTimeClient::new(
            Box::new(EmptySource),
            "pool.ntpns.org".parse().unwrap(),
            chronos(407),
        );
        failing.register_metrics(&registry);
        failing.sync(&net, &mut exchanger, &mut clock).unwrap_err();
        assert_eq!(value("sdoh_timesync_failures_total"), 1);
        assert_eq!(value("sdoh_timesync_syncs_total"), 2, "successes unchanged");
    }

    #[test]
    fn generator_source_runs_a_generation_per_fetch() {
        let net = SimNet::new(404);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let ips = ntp_fleet(&net, 15, 0, 0.0);
        let sources: Vec<Box<dyn AddressSource>> = (1..=3)
            .map(|i| {
                Box::new(StaticSource::answering(format!("r{i}"), ips.clone()))
                    as Box<dyn AddressSource>
            })
            .collect();
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut source = GeneratorPool::new(generator, Ttl::from_secs(120));
        assert_eq!(source.source_name(), "distributed-consensus");
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let pool = source
            .fetch_pool(&mut exchanger, &"pool.ntpns.org".parse().unwrap())
            .unwrap();
        assert_eq!(pool.addresses.len(), 45);
        assert_eq!(pool.ttl, Ttl::from_secs(120));
        assert!(format!("{source:?}").contains("GeneratorPool"));
    }
}
