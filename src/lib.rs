//! Umbrella crate for the *Secure Consensus Generation with Distributed
//! DoH* reproduction.
//!
//! Re-exports every workspace crate under one roof and provides the shared
//! [`scenario`] module used by the examples, the integration tests and the
//! experiment runner.
//!
//! | module | contents |
//! |---|---|
//! | [`wire`] | DNS wire format (messages, names, records, base64url) |
//! | [`netsim`] | deterministic network simulator and adversary models |
//! | [`dns`] | authoritative zones, caches, stub/recursive resolvers |
//! | [`doh`] | HTTP/2, secure channel, RFC 8484 DoH client and server |
//! | [`ntp`] | NTP packets, simulated time servers, Chronos |
//! | [`core`] | secure pool generation (Algorithm 1, majority mode) |
//! | [`analysis`] | Section III security analysis, exact over the pools Algorithm 1 builds |
//! | [`runtime`] | threaded real-socket Do53 serving runtime |
//! | [`metrics`] | Prometheus-style registry, exporters, stats listener |
//! | [`scenario`] | ready-made Figure 1 scenarios wiring all of the above |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sdoh_analysis as analysis;
pub use sdoh_core as core;
pub use sdoh_dns_server as dns;
pub use sdoh_dns_wire as wire;
pub use sdoh_doh as doh;
pub use sdoh_metrics as metrics;
pub use sdoh_netsim as netsim;
pub use sdoh_ntp as ntp;
pub use sdoh_runtime as runtime;

pub mod scenario;
