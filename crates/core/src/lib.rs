//! Secure server-pool generation with distributed DoH resolvers — the core
//! contribution of *"Secure Consensus Generation with Distributed DoH"*
//! (Jeitner, Shulman, Waidner; DSN-S 2020).
//!
//! Applications that need a pool of servers with an honest majority
//! (Chronos-enhanced NTP, cryptocurrency bootstrapping, …) traditionally
//! obtain it with a single plain DNS query — a single point of failure an
//! off-path attacker can poison. This crate implements the paper's
//! alternative:
//!
//! * query the pool domain through **N distributed DoH resolvers** over
//!   authenticated channels, **concurrently** — the paper's client fans the
//!   N queries out in parallel, so a lookup costs the slowest resolver's
//!   round trips, not the sum,
//! * combine the answers with **Algorithm 1** — truncate every list to the
//!   shortest list's length and concatenate
//!   ([`CombinationMode::TruncateAndCombine`]) — so that each resolver
//!   controls an equal share of the pool,
//! * or filter with a **majority vote** ([`CombinationMode::MajorityVote`])
//!   and expose the result through a standard-compatible DNS front end
//!   ([`CachingPoolResolver`] — the one front end; [`CacheConfig::uncached`]
//!   makes it run a generation per query),
//! * do either in **one pure function**, [`combine`]: the one place
//!   Algorithm 1 lives. The session serves through it, the small-scope test
//!   (`tests/small_scope.rs`) checks the guarantee on every case of a
//!   bounded scope through it, and `sdoh-analysis` computes the paper's
//!   Section III probabilities from the pools it builds,
//! * handle dual-stack lookups per the paper's footnote 1
//!   ([`DualStackPolicy`]),
//! * and check the guarantee — "the pool contains a fraction of at least
//!   `x` benign servers" — against experiment ground truth
//!   ([`check_guarantee`]).
//!
//! # Architecture: a sans-IO session plus drivers
//!
//! The lookup logic is a **sans-IO state machine**, [`PoolSession`]: it
//! *describes* the N resolver exchanges ([`Action::Transmit`]), accepts
//! their outcomes in any order ([`PoolSession::handle_response`]) and
//! combines the answers ([`PoolSession::finish`]) — it never touches a
//! transport itself. Drivers perform the described I/O:
//!
//! * [`SecurePoolGenerator::generate`] — the convenience driver; it batches
//!   every transmit through `Exchanger::exchange_all`, which the
//!   simulator-backed exchangers execute concurrently,
//! * [`SecurePoolGenerator::generate_sequential`] — one exchange at a time,
//!   the pre-session behaviour, kept for latency comparisons,
//! * [`drive`] / [`drive_sequential`] — the same two loops over an
//!   externally constructed session, for callers that want the
//!   [`SessionEvent`] progress stream or custom scheduling.
//!
//! Because answers are assembled in configuration order, the generated pool
//! is **identical for every response interleaving** — a property the test
//! suite checks over random permutations.
//!
//! # Example: Algorithm 1 over three resolvers
//!
//! ```
//! use sdoh_core::{AddressSource, PoolConfig, SecurePoolGenerator, StaticSource};
//! use sdoh_dns_server::ClientExchanger;
//! use sdoh_netsim::{SimAddr, SimNet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sources: Vec<Box<dyn AddressSource>> = vec![
//!     Box::new(StaticSource::answering("dns.google", vec!["203.0.113.1".parse()?])),
//!     Box::new(StaticSource::answering("cloudflare-dns.com", vec!["203.0.113.2".parse()?])),
//!     Box::new(StaticSource::answering("dns.quad9.net", vec!["203.0.113.1".parse()?])),
//! ];
//! let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources)?;
//!
//! let net = SimNet::new(1);
//! let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
//! let report = generator.generate(&mut exchanger, &"pool.ntp.org".parse()?)?;
//! assert_eq!(report.pool.len(), 3, "one slot per resolver after truncation");
//! # Ok(())
//! # }
//! ```
//!
//! # Serving at scale: the [`serve`] front end
//!
//! Generation is expensive by design; serving need not be.
//! [`CachingPoolResolver`] is the paper's "majority DNS resolver" — a
//! drop-in `QueryHandler` unmodified DNS clients can point at — and it
//! keeps the layer between client queries and pool generation to itself:
//!
//! * a **TTL cache** of generation reports keyed by
//!   `(domain, address family)` ([`PoolKey`]) — one map under an exact
//!   capacity bound, with negative caching of failures; a full cache
//!   evicts a dead entry, else a pool nobody asked for again, else the
//!   least recently used, so once-asked names evict one another and not
//!   the pools being served; what is cached and for how long is a
//!   [`CacheConfig`],
//! * **singleflight coalescing** — the resolver keeps a registry of its
//!   live generations, and a miss for a key that has one in flight joins it
//!   instead of launching a second fan-out,
//! * **stale-while-revalidate** — expired entries are served immediately
//!   within a stale window while a background refresh regenerates them
//!   ([`CachingPoolResolver::next_refresh_due`],
//!   [`CachingPoolResolver::run_due_refreshes`]),
//! * a **stepwise, sans-IO entry** beside the blocking `QueryHandler` one:
//!   [`CachingPoolResolver::begin`] answers what the cache can answer and
//!   parks a miss under a [`FlightId`],
//!   [`CachingPoolResolver::poll`] hands out what every live flight has to
//!   send (one batch overlaps the generations of different keys) and says
//!   which flights landed, [`CachingPoolResolver::land`] takes outcomes
//!   back in any order. The blocking entry points are these steps driven
//!   to the landing, so there is one miss path.
//!
//! Serving cost falls from one generation **per query** to one generation
//! per `(domain, TTL window)`, while every served answer still comes out
//! of a real generation — the benign-fraction guarantee is untouched.
//! In-process consumers can skip the DNS framing entirely through
//! [`CachingPoolResolver::resolve_pool`], which returns typed addresses
//! plus the remaining TTL; that is how the `sdoh-ntp` crate's
//! **secure time synchronization** pipeline (`SecureTimeClient`) pulls a
//! fresh pool per TTL window and drives Chronos over it — the paper's
//! application closing the loop over this crate's pools.
//!
//! The whole serve layer is `Send` (sources are
//! [`AddressSource: Send + Sync`](AddressSource), state is plainly owned),
//! so a resolver can be moved into a worker thread outright. That is how the
//! `sdoh-runtime` crate serves real traffic: it binds an actual UDP
//! socket, hashes each query's `(domain, address family)` onto one of N
//! worker threads, and each worker **owns** its `CachingPoolResolver`
//! shard — per-shard ownership instead of a shared lock, and the only
//! sharding there is (the cache inside a resolver is one map). The worker
//! drives the stepwise entry: a miss is parked while its generation is
//! upstream and the worker goes on answering hits; it wakes itself when a
//! round trip ends or at [`CachingPoolResolver::next_refresh_due`] (due
//! refreshes open flights like any miss,
//! [`CachingPoolResolver::begin_due_refreshes`]), and answers on-demand
//! statistics requests with a [`ServeSnapshot`]
//! ([`CachingPoolResolver::snapshot`], one consistent reading per request,
//! live generations included).
//!
//! The layer also exposes an **invariant probe surface** for fault
//! injection: [`CachingPoolResolver::probe_entries`] reports every entry's
//! age and fresh/stale/dead state at an instant, and
//! [`ServeSnapshot::regressions`] names any cumulative counter that went
//! backwards between two snapshots. The `sdoh-chaos` crate's seeded chaos
//! campaigns drive the serve + timesync stack through thousands of fault
//! steps (loss, duplication, partitions, resolver churn, clock steps) and
//! check these probes after every step: no served pool may violate the
//! benign-fraction guarantee, no counter may regress, and nothing older
//! than TTL + stale window may be served.
//!
//! ```
//! use sdoh_core::{
//!     AddressSource, CacheConfig, CachingPoolResolver, PoolConfig, SecurePoolGenerator,
//!     StaticSource,
//! };
//! use sdoh_dns_server::{ClientExchanger, QueryHandler};
//! use sdoh_dns_wire::{Message, RrType};
//! use sdoh_netsim::{SimAddr, SimNet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sources: Vec<Box<dyn AddressSource>> = vec![
//!     Box::new(StaticSource::answering("dns.google", vec!["203.0.113.1".parse()?])),
//!     Box::new(StaticSource::answering("dns.quad9.net", vec!["203.0.113.2".parse()?])),
//! ];
//! let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources)?;
//! let mut resolver = CachingPoolResolver::new(generator, CacheConfig::default());
//!
//! let net = SimNet::new(1);
//! let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
//! let query = Message::query(1, "pool.ntp.org".parse()?, RrType::A);
//! let first = resolver.handle_query(&mut exchanger, &query);   // miss: generates
//! let second = resolver.handle_query(&mut exchanger, &query);  // hit: no fan-out
//! assert_eq!(first.answer_addresses(), second.answer_addresses());
//! assert_eq!(resolver.metrics().generations, 1);
//! assert_eq!(resolver.metrics().hits, 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Example: driving a session by hand
//!
//! ```
//! use sdoh_core::{Action, AddressSource, PoolConfig, PoolSession, StaticSource};
//! use sdoh_netsim::SimInstant;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sources: Vec<Box<dyn AddressSource>> = vec![
//!     Box::new(StaticSource::answering("r1", vec!["203.0.113.1".parse()?])),
//!     Box::new(StaticSource::answering("r2", vec!["203.0.113.2".parse()?])),
//! ];
//! let mut session =
//!     PoolSession::new(PoolConfig::algorithm1(), &sources, &"pool.ntp.org".parse()?, 7)?;
//! // Static sources resolve without I/O: the session only delivers events
//! // and completes. A DoH source would yield Action::Transmit here, one
//! // per resolver, before asking the driver to wait.
//! loop {
//!     match session.poll(SimInstant::EPOCH) {
//!         Action::Deliver(event) => println!("{event:?}"),
//!         Action::Done => break,
//!         other => unreachable!("static sources never transmit: {other:?}"),
//!     }
//! }
//! assert_eq!(session.finish()?.pool.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod combine;
mod config;
mod error;
mod generator;
mod guarantee;
mod majority;
mod pool;
pub mod serve;
mod session;
mod source;

pub use combine::combine;
pub use config::{CombinationMode, DualStackPolicy, FailurePolicy, PoolConfig};
pub use error::{PoolError, PoolResult};
pub use generator::{GenerationReport, SecurePoolGenerator, SourceOutcome};
pub use guarantee::{attacker_controls_fraction, check_guarantee, GroundTruth, GuaranteeCheck};
pub use majority::{majority_vote, meets_threshold, reaches_fraction};
pub use pool::{AddressPool, PoolEntry};
pub use serve::{
    snapshot_samples, AddressFamily, CacheConfig, CacheEntryProbe, CachedPool, CachingPoolResolver,
    ConfigError, EntryState, FlightId, Landed, PoolKey, ResolvedPool, ServeMetrics, ServeSnapshot,
    ServeStep, APP_METRIC_HELP, METRIC_CONFIG_EPOCH, METRIC_DROPPED_QUERIES,
    METRIC_INVARIANT_VIOLATIONS, METRIC_SERVE_LATENCY, METRIC_SHARDS, METRIC_SHARD_ACKED_EPOCH,
    METRIC_TCP_QUERIES, METRIC_TIMESYNC_FAILURES, METRIC_TIMESYNC_POOL_REFRESHES,
    METRIC_TIMESYNC_SYNCS, METRIC_TRUNCATED_RESPONSES, METRIC_UDP_QUERIES,
    METRIC_UNRESPONSIVE_SHARDS, RUNTIME_METRIC_HELP, SERVE_COUNTER_HELP, SERVE_GAUGE_HELP,
};
pub use session::{
    drive, drive_sequential, Action, PoolSession, SessionEvent, TransactionId, Transmit,
};
pub use source::{AddressSource, DohSource, FetchError, FetchStart, PendingFetch, StaticSource};
