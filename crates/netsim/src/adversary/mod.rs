//! Adversary models.
//!
//! The paper's threat model distinguishes attackers by *where* they sit and
//! *what* they can therefore do:
//!
//! * **off-path** attackers (e.g. the DNS cache-poisoning attacker of
//!   Jeitner et al.) cannot observe traffic; they race forged responses
//!   against genuine ones and must guess identifiers — abstractly via a
//!   configured probability ([`OffPathSpoofer`]) or concretely by sweeping
//!   transaction-id/port guesses ([`BirthdaySpoofer`]),
//! * **on-path / MitM** attackers control some links and can read, modify,
//!   replace or drop plaintext traffic crossing them, but cannot forge
//!   traffic on authenticated (secure) channels,
//! * **compromised resolvers** answer queries with attacker-chosen data;
//!   they are modelled at the resolver-service level, not here.
//!
//! An [`Adversary`] is attached to the [`SimNet`](crate::SimNet) and gets to
//! see every transaction in flight.

mod birthday;
mod offpath;
mod onpath;

pub use birthday::{BirthdaySpoofer, BirthdayStats, InspectFn, ObservedIdentifiers};
pub use offpath::{ForgeFn, OffPathSpoofer, SpoofStrategy};
pub use onpath::OnPathMitm;

use crate::addr::SimAddr;
use crate::channel::ChannelKind;
use crate::rng::SimRng;

/// A request or response payload in flight, as seen by an adversary.
#[derive(Debug, Clone, Copy)]
pub struct Envelope<'a> {
    /// Source endpoint.
    pub src: SimAddr,
    /// Destination endpoint.
    pub dst: SimAddr,
    /// Channel security property.
    pub channel: ChannelKind,
    /// Payload bytes. For secure channels an on-path adversary would only
    /// see ciphertext; the simulator still passes the plaintext but the
    /// verdict enforcement rejects tampering verdicts on secure channels.
    pub payload: &'a [u8],
}

/// What the adversary does with a request in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestVerdict {
    /// Let the request through unchanged.
    Deliver,
    /// Drop the request; the requester observes a timeout.
    Drop,
    /// Answer the request with forged bytes; the genuine destination never
    /// sees it (models a spoofed response winning the race).
    Forge(Vec<u8>),
}

/// What the adversary does with a genuine response in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseVerdict {
    /// Let the response through unchanged.
    Deliver,
    /// Drop the response; the requester observes a timeout.
    Drop,
    /// Substitute the response payload (on-path modification).
    Replace(Vec<u8>),
}

/// A network adversary observing and manipulating traffic.
///
/// The default implementations let everything through, so an implementor
/// only overrides the hooks relevant to its position in the network.
pub trait Adversary {
    /// Called for every request before it reaches its destination.
    fn on_request(&mut self, envelope: &Envelope<'_>, rng: &mut SimRng) -> RequestVerdict {
        let _ = (envelope, rng);
        RequestVerdict::Deliver
    }

    /// Called for every genuine response before it returns to the requester.
    /// `request` is the payload that elicited this response.
    fn on_response(
        &mut self,
        envelope: &Envelope<'_>,
        request: &[u8],
        rng: &mut SimRng,
    ) -> ResponseVerdict {
        let _ = (envelope, request, rng);
        ResponseVerdict::Deliver
    }

    /// Human-readable name used in diagnostics.
    fn name(&self) -> &str {
        "adversary"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_deliver() {
        struct Nop;
        impl Adversary for Nop {}
        let mut nop = Nop;
        let mut rng = SimRng::seed_from_u64(1);
        let env = Envelope {
            src: SimAddr::v4(10, 0, 0, 1, 1000),
            dst: SimAddr::v4(10, 0, 0, 2, 53),
            channel: ChannelKind::Plain,
            payload: b"query",
        };
        assert_eq!(nop.on_request(&env, &mut rng), RequestVerdict::Deliver);
        assert_eq!(
            nop.on_response(&env, b"query", &mut rng),
            ResponseVerdict::Deliver
        );
        assert_eq!(nop.name(), "adversary");
    }
}
