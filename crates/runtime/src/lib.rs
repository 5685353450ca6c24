//! Threaded real-socket serving runtime for the secure pool-serving
//! subsystem of *"Secure Consensus Generation with Distributed DoH"*.
//!
//! Everything below this crate is sans-IO: pool generation
//! ([`sdoh_core::PoolSession`]), the serving subsystem
//! ([`sdoh_core::CachingPoolResolver`]) and the DoH stack all *describe*
//! their I/O and run equally well inside the deterministic simulator or
//! against a real transport. This crate is the second of those drivers:
//! a multi-threaded Do53 front end over `std::net` sockets.
//!
//! * [`PoolRuntime`] — binds a UDP socket (plus a TCP listener for
//!   truncated-answer retries) and routes each query by
//!   `(domain, address family)` hash to one of N shards, each a
//!   [`CachingPoolResolver`](sdoh_core::CachingPoolResolver) behind a lock
//!   of its own. A shard is a machine with one `step` entry that does no
//!   I/O: it writes its answers and acks as effects, and one function steps it
//!   under its lock and performs them — for the socket thread that read a
//!   query, for the control plane, and for the one timer thread that lands
//!   the round trips no socket thread meets (a lone flight's landing wakes
//!   it by the instant, not a timer slack after it). Statistics
//!   ([`RuntimeStats`]) are read on demand ([`PoolRuntime::stats`]), and
//!   shutdown is graceful.
//! * [`BackendNet`] — in-process upstream endpoints (full RFC 8484 DoH
//!   terminators via [`PayloadService`]) reached through `Send`
//!   [`BackendExchanger`]s, so a complete serving stack runs end-to-end
//!   over loopback without leaving the process.
//! * [`RuntimeClient`] — a real-socket stub client (UDP with TCP retry on
//!   TC=1) for tests, experiments and examples.
//!
//! Inside the crate, one host clock expressed as the workspace's instant
//! type stands in for the simulator's, so cache TTLs, stale windows and
//! the arrivals a shard waits for measure real time.
//!
//! # Observability
//!
//! Every [`PoolRuntime`] owns an [`sdoh_metrics::Registry`]
//! ([`PoolRuntime::registry`]): the front-door counters
//! (`sdoh_{udp,tcp}_queries_total`, `sdoh_truncated_responses_total`,
//! `sdoh_dropped_queries_total` for queries that found no shard, and
//! `sdoh_shard_wakes_total` for the times a socket thread moved the shard
//! timer earlier), one `sdoh_serve_latency_seconds` histogram per shard
//! (two relaxed atomic adds per query), and a scrape-time collector that
//! reads each shard's [`ServeSnapshot`](sdoh_core::ServeSnapshot) under its
//! lock and exports it through [`sdoh_core::snapshot_samples`].
//!
//! Set [`RuntimeConfig::stats_bind`] to bind the HTTP stats listener:
//! `/metrics` serves the Prometheus text exposition, `/config` the knobs
//! the control plane last published, and `/healthz` is the readiness probe — 200 while every
//! shard's snapshot is read within the health deadline, 503 with an
//! `unresponsive_shards` count otherwise, plus the pool-guarantee state
//! (generation failures / negative serves). Shards that miss a snapshot
//! deadline surface as `None` entries in [`RuntimeStats::per_shard`] and
//! are never silently counted as zeros.
//!
//! # Hot reconfiguration
//!
//! A running [`PoolRuntime`] hands out a cloneable [`ControlHandle`]
//! ([`PoolRuntime::control`]). [`ControlHandle::apply`] validates a
//! [`ConfigDelta`] (new TTLs, stale window, upstream resolver set, pool
//! hardening knobs), numbers it — an **epoch** is the control plane's
//! count of accepted deltas, a `u64` nothing below it stores — and
//! hands it to every shard **under the shard's own lock**, so a query read
//! after `apply` returns is served under the new epoch. Each shard's
//! resolver is handed the knobs
//! ([`CachingPoolResolver::apply_config`](sdoh_core::CachingPoolResolver::apply_config))
//! and the shard acks the number as it adopts them — at once, or for a
//! source or pool swap once its flights upstream have landed, with the
//! queries that arrive meanwhile deferred behind the order. Cached entries
//! are re-judged against the new knobs at lookup time, never invalidated:
//! a served answer's age stays within the larger of the two epochs'
//! `TTL + stale window`.
//! The shard set itself is fixed at [`PoolRuntime::start`].
//!
//! ```
//! use std::time::Duration;
//! use sdoh_core::{AddressSource, CacheConfig, CachingPoolResolver, PoolConfig,
//!                 SecurePoolGenerator, StaticSource};
//! use sdoh_netsim::SimAddr;
//! use sdoh_runtime::{BackendNet, ConfigDelta, PoolRuntime, RuntimeConfig, Shard};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let backends = BackendNet::builder().build();
//! let shards = (0..2)
//!     .map(|i| {
//!         let sources: Vec<Box<dyn AddressSource>> = vec![
//!             Box::new(StaticSource::answering("r1", vec!["203.0.113.1".parse().unwrap()])),
//!             Box::new(StaticSource::answering("r2", vec!["203.0.113.2".parse().unwrap()])),
//!         ];
//!         let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources)?;
//!         Ok(Shard::new(
//!             CachingPoolResolver::new(generator, CacheConfig::default()),
//!             Box::new(backends.exchanger(SimAddr::v4(10, 0, 0, i, 40000))),
//!         ))
//!     })
//!     .collect::<Result<Vec<_>, sdoh_core::PoolError>>()?;
//! let runtime = PoolRuntime::start(RuntimeConfig::default(), shards)?;
//!
//! // Flip the TTL live: epoch 0 -> 1, acked by every shard, no restart.
//! let control = runtime.control();
//! let mut cache = control.current_config();
//! cache.ttl = Duration::from_secs(2).into();
//! let receipt = control.apply(ConfigDelta::new().with_cache(cache))?;
//! assert_eq!(receipt.epoch, 1);
//! assert!(control.wait_for_epoch(receipt.epoch, Duration::from_secs(5)));
//!
//! let stats = runtime.shutdown();
//! assert_eq!(stats.config_epoch, 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Example: serving static pools over real sockets
//!
//! ```
//! use sdoh_core::{AddressSource, CacheConfig, CachingPoolResolver, PoolConfig,
//!                 SecurePoolGenerator, StaticSource};
//! use sdoh_netsim::SimAddr;
//! use sdoh_runtime::{BackendNet, PoolRuntime, RuntimeClient, RuntimeConfig, Shard};
//! use sdoh_dns_wire::{Message, RrType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let backends = BackendNet::builder().build(); // static sources: no upstreams needed
//! let shards = (0..2)
//!     .map(|i| {
//!         let sources: Vec<Box<dyn AddressSource>> = vec![
//!             Box::new(StaticSource::answering("r1", vec!["203.0.113.1".parse().unwrap()])),
//!             Box::new(StaticSource::answering("r2", vec!["203.0.113.2".parse().unwrap()])),
//!         ];
//!         let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources)?;
//!         Ok(Shard::new(
//!             CachingPoolResolver::new(generator, CacheConfig::default()),
//!             Box::new(backends.exchanger(SimAddr::v4(10, 0, 0, i, 40000))),
//!         ))
//!     })
//!     .collect::<Result<Vec<_>, sdoh_core::PoolError>>()?;
//!
//! let runtime = PoolRuntime::start(RuntimeConfig::default(), shards)?;
//! let client = RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr()))?;
//! let response = client.query(&Message::query(1, "pool.ntp.org".parse()?, RrType::A))?;
//! assert_eq!(response.answer_addresses().len(), 2);
//!
//! let stats = runtime.shutdown();
//! assert_eq!(stats.total.serve.queries, 1);
//! assert_eq!(stats.total.serve.generations, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod client;
mod clock;
mod control;
mod loopback;
mod runtime;

pub use backend::{BackendExchanger, BackendNet, BackendNetBuilder, PayloadService};
pub use client::RuntimeClient;
pub use control::{ConfigDelta, ControlHandle, EpochReceipt, SourceFactory};
pub use loopback::{LoopbackConfig, LoopbackFleet};
pub use runtime::{PoolRuntime, RuntimeConfig, RuntimeStats, Shard};
