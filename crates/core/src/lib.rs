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
//! * a caller that wants its own scheduling plans a session
//!   ([`SecurePoolGenerator::session`]) and runs the poll loop itself, as
//!   `examples/quickstart.rs` does; what each resolver came to is the
//!   report's rows ([`GenerationReport::sources`]).
//!
//! Because answers are assembled in configuration order, the generated pool
//! is **identical for every response interleaving** — a property the test
//! suite checks over random permutations.
//!
//! # Example: Algorithm 1 over three resolvers
//!
//! ```
//! use sdoh_core::{AddressSource, PoolConfig, SecurePoolGenerator, StaticSource};
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
//! let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
//!   `(domain, address family)` ([`PoolKey`]), with negative caching and
//!   an eviction rule that keeps the pools being served; its knobs are a
//!   [`CacheConfig`],
//! * **singleflight coalescing** — a miss joins the generation in flight
//!   for its key, found by one hash in the resolver's key index,
//! * **stale-while-revalidate** — an expired entry is served at once within
//!   a stale window and queues a background refresh
//!   ([`CachingPoolResolver::has_work`],
//!   [`CachingPoolResolver::run_due_refreshes`]),
//! * a **stepwise entry** ([`CachingPoolResolver::begin`], `poll`,
//!   `arrive`, [`CachingPoolResolver::next_arrival`]) in which the resolver
//!   keeps what it has upstream and the driver only decides when to wait;
//!   the blocking entry points are the same steps, so there is one miss
//!   path ([`serve`] tells how).
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
//! so a resolver can be moved to another thread outright. That is how the
//! `sdoh-runtime` crate serves real traffic: it binds an actual UDP
//! socket, hashes each query's `(domain, address family)` onto one of N
//! shards, and each shard is data — one `CachingPoolResolver` — behind a
//! lock of its own: the only sharding there is (the cache inside a
//! resolver is one map), and no thread of its own. The thread that read a
//! query takes the shard's lock and drives the stepwise entry in place: a
//! hit is answered there, and a miss is parked while its generation is
//! upstream. The step that queued a refresh opens its flight like any
//! miss's ([`CachingPoolResolver::begin_due_refreshes`]), and one timer
//! thread steps each shard at [`CachingPoolResolver::next_arrival`], when
//! a round trip ends — the only instant a shard waits for — and a
//! statistics request reads a [`ServeSnapshot`] under the same lock
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
//! use sdoh_dns_server::QueryHandler;
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
//! let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
//! use sdoh_core::{
//!     Action, AddressSource, PoolConfig, SecurePoolGenerator, SourceOutcome, StaticSource,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sources: Vec<Box<dyn AddressSource>> = vec![
//!     Box::new(StaticSource::answering("r1", vec!["203.0.113.1".parse()?])),
//!     Box::new(StaticSource::answering("r2", vec!["203.0.113.2".parse()?])),
//! ];
//! let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources)?;
//! let mut session = generator.session(&"pool.ntp.org".parse()?, 7)?;
//! // Static sources resolve without I/O: the session is done at once. A
//! // DoH source would yield Action::Transmit here, one per resolver,
//! // before asking the driver to wait.
//! assert!(matches!(session.poll(), Action::Done));
//! let report = session.finish()?;
//! for (name, outcome) in &report.sources {
//!     assert_eq!(*outcome, SourceOutcome::Answered(1), "{name}");
//! }
//! assert_eq!(report.pool.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod combine;
mod config;
mod error;
mod fleet;
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
pub use fleet::{doh_sources, DohFleet, ResolverCompromise};
pub use generator::{GenerationReport, SecurePoolGenerator, SourceOutcome};
pub use guarantee::{attacker_controls_fraction, check_guarantee, GroundTruth, GuaranteeCheck};
pub use majority::{majority_vote, meets_threshold, reaches_fraction};
pub use pool::{AddressPool, PoolEntry};
pub use serve::{
    snapshot_samples, AddressFamily, CacheConfig, CacheEntryProbe, CachedPool, CachingPoolResolver,
    ConfigError, EntryState, FlightId, Landed, PoolKey, ResolvedPool, ServeMetrics, ServeSnapshot,
    APP_METRIC_HELP, METRIC_CONFIG_EPOCH, METRIC_DROPPED_QUERIES, METRIC_INVARIANT_VIOLATIONS,
    METRIC_SERVE_LATENCY, METRIC_SHARDS, METRIC_SHARD_ACKED_EPOCH, METRIC_TCP_QUERIES,
    METRIC_TIMER_LATENESS, METRIC_TIMESYNC_FAILURES, METRIC_TIMESYNC_POOL_REFRESHES,
    METRIC_TIMESYNC_SYNCS, METRIC_TRUNCATED_RESPONSES, METRIC_UDP_QUERIES,
    METRIC_UNRESPONSIVE_SHARDS, RUNTIME_METRIC_HELP, SERVE_GAUGE_HELP,
};
pub use session::{Action, PoolSession, TransactionId, Transmit};
pub use source::{AddressSource, DohSource, FetchError, FetchStart, StaticSource};
