//! NTP and Chronos: the application layer whose server pool the paper's
//! proposal secures.
//!
//! The crate provides:
//!
//! * the NTP packet format and offset/delay computation ([`NtpPacket`],
//!   [`NtpSample`]),
//! * simulated benign and malicious time servers ([`NtpServerService`],
//!   [`NtpServerConfig`], [`register_pool`]),
//! * a basic NTP client and the plain-SNTP baseline ([`NtpClient`]),
//! * a disciplined local clock ([`LocalClock`]),
//! * the **Chronos** algorithm ([`ChronosClient`]) — sampling, trimming,
//!   agreement checking and panic mode — which tolerates a minority of bad
//!   servers in the pool but, as the paper stresses, not a pool whose
//!   majority was poisoned at the DNS layer,
//! * **secure time synchronization** ([`SecureTimeClient`]) — the
//!   end-to-end pipeline wiring consensus-generated pools into Chronos.
//!
//! # Example: Chronos over an honest pool
//!
//! ```
//! use sdoh_netsim::{SimAddr, SimNet};
//! use sdoh_ntp::{register_pool, ChronosClient, ChronosConfig, LocalClock, NtpClient};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = SimNet::new(7);
//! let addrs: Vec<SimAddr> = (1..=15u8).map(|i| SimAddr::v4(203, 0, 113, i, 123)).collect();
//! register_pool(&net, &addrs, 0, 0.0, 7);
//! let pool: Vec<std::net::IpAddr> = addrs.iter().map(|a| a.ip).collect();
//!
//! let mut clock = LocalClock::new(net.clock(), 0.0);
//! let mut chronos = ChronosClient::new(
//!     ChronosConfig::default(),
//!     NtpClient::new(SimAddr::v4(10, 0, 0, 1, 123)),
//!     7,
//! )?;
//! let outcome = chronos.update(&net, &mut clock, &pool)?;
//! assert!(outcome.applied_offset.abs() < 0.1);
//! # Ok(())
//! # }
//! ```
//!
//! # Secure time synchronization
//!
//! Chronos alone is *not* the paper's defense — it only tolerates a bad
//! minority **inside** the pool DNS handed it. [`SecureTimeClient`] closes
//! the loop: it obtains its pool through a secure [`NtpPoolSource`] —
//! typically the caching consensus front end
//! ([`ConsensusFrontEnd`] over a
//! [`CachingPoolResolver`](sdoh_core::CachingPoolResolver)) — re-pulls it
//! once per TTL window, and drives Chronos updates over it. The same
//! client is captured when its pool comes from one spoofable plain-DNS
//! resolver ([`SingleResolverPool`]) and keeps the clock within a second
//! over the consensus pipeline.
//!
//! ```
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//! use sdoh_core::{
//!     AddressSource, CacheConfig, CachingPoolResolver, PoolConfig, SecurePoolGenerator,
//!     StaticSource,
//! };
//! use sdoh_netsim::{SimAddr, SimNet};
//! use sdoh_ntp::{
//!     register_pool, ChronosClient, ChronosConfig, ConsensusFrontEnd, LocalClock, NtpClient,
//!     SecureTimeClient,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Fifteen honest NTP servers, published by three (static) resolvers.
//! let net = SimNet::new(7);
//! let addrs: Vec<SimAddr> = (1..=15u8).map(|i| SimAddr::v4(203, 0, 113, i, 123)).collect();
//! register_pool(&net, &addrs, 0, 0.0, 7);
//! let ips: Vec<std::net::IpAddr> = addrs.iter().map(|a| a.ip).collect();
//! let sources: Vec<Box<dyn AddressSource>> = ["r1", "r2", "r3"]
//!     .iter()
//!     .map(|name| Box::new(StaticSource::answering(*name, ips.clone())) as Box<dyn AddressSource>)
//!     .collect();
//!
//! // The consensus front end (shared, cacheable) feeding a Chronos client.
//! let frontend = Arc::new(Mutex::new(CachingPoolResolver::new(
//!     SecurePoolGenerator::new(PoolConfig::algorithm1(), sources)?,
//!     CacheConfig::default(),
//! )));
//! let mut client = SecureTimeClient::new(
//!     Box::new(ConsensusFrontEnd::new(frontend)),
//!     "pool.ntpns.org".parse()?,
//!     ChronosClient::new(
//!         ChronosConfig::default(),
//!         NtpClient::new(SimAddr::v4(10, 0, 0, 1, 123)),
//!         7,
//!     )?,
//! );
//!
//! // One sync pulls the pool through the consensus pipeline and
//! // disciplines a clock that starts 30 seconds slow.
//! let mut clock = LocalClock::new(net.clock(), -30.0);
//! let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
//! let outcome = client.sync(&net, &mut exchanger, &mut clock)?;
//! assert!(outcome.pool_refreshed);
//! assert!(clock.offset_from_true().abs() < 0.1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chronos;
mod client;
mod clock;
mod error;
mod packet;
mod server;
mod timestamp;
mod timesync;

pub use chronos::{ChronosClient, ChronosConfig, ChronosMode, ChronosOutcome};
pub use client::NtpClient;
pub use clock::LocalClock;
pub use error::{NtpError, NtpResult};
pub use packet::{NtpMode, NtpPacket, NtpSample, PACKET_LEN};
pub use sdoh_core::ResolvedPool;
pub use server::{register_pool, NtpServerConfig, NtpServerService};
pub use timestamp::NtpTimestamp;
pub use timesync::{
    ConsensusFrontEnd, GeneratorPool, NtpPoolSource, SecureTimeClient, SingleResolverPool,
    TimeSyncError, TimeSyncOutcome,
};
