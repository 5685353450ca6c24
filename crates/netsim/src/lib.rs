//! Deterministic network simulator for the *Secure Consensus Generation
//! with Distributed DoH* reproduction.
//!
//! The simulator provides:
//!
//! * a virtual clock ([`SimClock`]) so that experiments are reproducible and
//!   independent of the host machine,
//! * addressable [`Service`]s reachable through synchronous request/response
//!   transactions with configurable per-link latency, jitter, loss and
//!   partitions ([`SimNet`], [`LinkConfig`]),
//! * the paper's channel dichotomy ([`ChannelKind::Plain`] vs
//!   [`ChannelKind::Secure`]): plain traffic can be forged and rewritten,
//!   secure traffic can only be dropped or delayed,
//! * adversary models ([`OffPathSpoofer`], [`OnPathMitm`]) that plug into
//!   the network and manipulate traffic in flight,
//! * deterministic randomness ([`SimRng`]) and traffic/attack [`Metrics`].
//!
//! The DNS, DoH, NTP and pool-generation crates all run on top of this
//! substrate; nothing in the workspace touches a real network.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod addr;
pub mod adversary;
mod channel;
mod link;
mod metrics;
mod network;
mod rng;
mod service;
mod time;

pub use addr::{ports, ParseSimAddrError, SimAddr};
pub use adversary::{
    Adversary, BirthdaySpoofer, BirthdayStats, Envelope, ObservedIdentifiers, OffPathSpoofer,
    OnPathMitm, RequestVerdict, ResponseVerdict, SpoofStrategy,
};
pub use channel::ChannelKind;
pub use link::LinkConfig;
pub use metrics::Metrics;
pub use network::{ConcurrentOutcome, ConcurrentRequest, Ctx, NetError, NetResult, SimNet};
pub use rng::SimRng;
pub use service::{FnService, Service, ServiceResponse, StaticService};
pub use time::{SimClock, SimInstant};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_value_types_are_debuggable() {
        let addr = SimAddr::v4(1, 2, 3, 4, 53);
        assert!(!format!("{addr:?}").is_empty());
        assert!(!format!("{:?}", LinkConfig::default()).is_empty());
        assert!(!format!("{:?}", Metrics::new()).is_empty());
        assert!(!format!("{:?}", SimNet::new(0)).is_empty());
    }
}
