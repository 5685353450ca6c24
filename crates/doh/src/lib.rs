//! DNS-over-HTTPS (RFC 8484) transport for the *Secure Consensus Generation
//! with Distributed DoH* reproduction.
//!
//! The crate builds the full DoH path from scratch:
//!
//! * [`http`] — minimal HTTP semantics (methods, status codes, headers),
//! * [`h2`] — HTTP/2 framing, a static-table HPACK codec and client/server
//!   connection state machines,
//! * [`secure`] — the authenticated channel layer standing in for TLS with
//!   per-resolver pinned keys (see the module docs for the explicit
//!   non-security disclaimer),
//! * [`DohClient`] / [`DohServerService`] — the RFC 8484 client and server,
//!   the latter wrapping any [`QueryHandler`](sdoh_dns_server::QueryHandler)
//!   such as a recursive resolver,
//! * [`ResolverDirectory`] — the simulated fleet of public DoH resolvers
//!   (dns.google, cloudflare-dns.com, dns.quad9.net, …) from the paper's
//!   Figure 1.
//!
//! # Example: one DoH query
//!
//! ```
//! use sdoh_dns_server::{Authority, Catalog, Zone};
//! use sdoh_dns_wire::RrType;
//! use sdoh_doh::{DohClient, DohServerService, ResolverDirectory};
//! use sdoh_netsim::{SimAddr, SimNet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = SimNet::new(1);
//! let directory = ResolverDirectory::well_known(1);
//! let google = directory.by_name("dns.google").unwrap().clone();
//!
//! let mut zone = Zone::new("ntp.org".parse()?);
//! zone.add_address("pool.ntp.org".parse()?, "203.0.113.1".parse().unwrap());
//! let mut catalog = Catalog::new();
//! catalog.add_zone(zone);
//! net.register(google.addr, DohServerService::new(google.clone(), Authority::new(catalog)));
//!
//! let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
//! let response = DohClient::new(google)
//!     .query(&mut exchanger, &"pool.ntp.org".parse()?, RrType::A)?;
//! assert_eq!(response.answer_addresses().len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod directory;
mod error;
pub mod h2;
pub mod http;
pub mod secure;
mod server;

pub use client::{DohClient, DohMethod, DohQuestion, DNS_MESSAGE_CONTENT_TYPE, DOH_PATH};
pub use directory::{ResolverDirectory, ResolverInfo};
pub use error::{DohError, DohResult};
pub use server::DohServerService;
