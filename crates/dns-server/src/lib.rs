//! DNS serving and resolution engines for the *Secure Consensus Generation
//! with Distributed DoH* reproduction.
//!
//! This crate provides every DNS component of the paper's Figure 1 that is
//! not the DoH transport itself:
//!
//! * authoritative zones ([`Zone`], [`Catalog`], [`Authority`]) — the
//!   `c/d/e.ntpns.org` name servers,
//! * an iterative [`RecursiveResolver`] with a TTL-respecting [`DnsCache`] —
//!   the engine behind each public DoH resolver,
//! * a [`StubResolver`] — the plain-DNS baseline the paper improves on: a
//!   client asking one (recursive) resolver over unprotected Do53,
//! * compromised-resolver behaviours ([`PoisonedResolver`], [`PoisonMode`])
//!   used by the attack experiments,
//! * adapters ([`Do53Service`], [`QueryHandler`], [`Exchanger`]) that plug
//!   all of the above into the deterministic network simulator.
//!
//! # Threat model: the Do53 leg
//!
//! The paper's premise is that the *unprotected plain-DNS leg* is what
//! lets an off-path attacker capture NTP: even when clients reach their
//! resolver over authenticated DoH, the resolver's own queries to the
//! authoritative servers travel as plain UDP. An attacker who cannot
//! observe that traffic can still race forged responses against it; a
//! forgery is accepted if it arrives first and matches every identifier
//! the resolver checks. The attack surface is therefore exactly the
//! entropy of those identifiers, plus how much a single accepted forgery
//! is allowed to poison:
//!
//! * a **weak resolver** ([`HardeningConfig::predictable_ids`]) allocates
//!   transaction ids sequentially, queries from its fixed service port and
//!   believes every record a response carries — one guessed packet hands
//!   the attacker the whole cache (the Kaminsky attack, modelled by
//!   `sdoh_netsim::BirthdaySpoofer`);
//! * a **hardened resolver** (the [`RecursiveConfig`] default) randomizes
//!   transaction ids and source ports (32 bits), encodes queries with 0x20
//!   mixed casing verified on the echo ([`DnsClient::use_0x20`], one bit
//!   per letter), and enforces **bailiwick**: answer records outside the
//!   zone of the server that supplied them are dropped, referrals must
//!   delegate within that zone, glue is trusted only for NS targets inside
//!   the delegated zone, and cached data carries an RFC 2181 credibility
//!   rank ([`Credibility`]) so glue can never displace an authoritative
//!   answer. Identifier entropy pushes the race win rate to the birthday
//!   floor; bailiwick bounds the damage of the races that are won to the
//!   single query raced.
//!
//! Configure the weak baseline only to reproduce the attack experiments:
//!
//! ```
//! use sdoh_dns_server::{HardeningConfig, RecursiveConfig};
//!
//! let hardened = RecursiveConfig::default(); // every defense on
//! assert!(hardened.hardening.enforce_bailiwick);
//!
//! let weak = RecursiveConfig {
//!     hardening: HardeningConfig::predictable_ids(),
//!     ..RecursiveConfig::default()
//! };
//! assert!(!weak.hardening.randomize_txid);
//! ```
//!
//! # Example: serving and resolving a pool domain
//!
//! ```
//! use sdoh_dns_server::{Authority, Catalog, DnsClient, Do53Service, Zone};
//! use sdoh_dns_wire::RrType;
//! use sdoh_netsim::{SimAddr, SimNet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = SimNet::new(1);
//! let server = SimAddr::v4(198, 51, 100, 53, 53);
//!
//! let mut zone = Zone::new("ntp.org".parse()?);
//! zone.add_address("pool.ntp.org".parse()?, "203.0.113.1".parse().unwrap());
//! let mut catalog = Catalog::new();
//! catalog.add_zone(zone);
//! net.register(server, Do53Service::new(Authority::new(catalog)));
//!
//! let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
//! let response = DnsClient::new(server)
//!     .query(&mut exchanger, &"pool.ntp.org".parse()?, RrType::A)?;
//! assert_eq!(response.answer_addresses().len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod authority;
mod cache;
mod catalog;
mod client;
mod error;
mod exchange;
mod handler;
mod poison;
mod recursive;
mod service;
mod stub;
mod zone;

pub use authority::Authority;
pub use cache::{CachedAnswer, Credibility, DnsCache};
pub use catalog::Catalog;
pub use client::{DnsClient, QueryIdentifiers, DEFAULT_TIMEOUT};
pub use error::{ResolveError, ResolveResult};
pub use exchange::{Departure, ExchangeOutcome, ExchangeRequest, Exchanger};
pub use handler::{FnHandler, QueryHandler};
pub use poison::{PoisonConfig, PoisonMode, PoisonedResolver};
pub use recursive::{HardeningConfig, RecursiveConfig, RecursiveResolver};
pub use service::{
    decode_do53_query, finish_do53_answer, serve_do53_payload, serve_do53_payload_into,
    write_do53_formerr, Do53Service,
};
pub use stub::StubResolver;
pub use zone::{Delegation, RecordSet, Zone, ZoneLookup};
