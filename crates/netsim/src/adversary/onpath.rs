//! On-path (man-in-the-middle) adversary controlling a subset of links.

use std::collections::HashSet;
use std::net::IpAddr;

use crate::rng::SimRng;

use super::{Adversary, Envelope, ResponseVerdict};

/// Callback rewriting a response given the request and genuine response.
pub type RewriteFn = Box<dyn FnMut(&[u8], &[u8], &mut SimRng) -> Option<Vec<u8>>>;

/// A man-in-the-middle attacker that controls the paths to a set of hosts.
///
/// On controlled paths the attacker can replace plaintext responses;
/// authenticated (secure) channels pass it untouched. This is the
/// "realistic on-path MitM attacker that controls some (but not all) of the
/// Internet paths" from the paper's conclusion.
pub struct OnPathMitm {
    controlled_hosts: HashSet<IpAddr>,
    replace: Option<RewriteFn>,
}

impl OnPathMitm {
    /// Creates an attacker controlling the paths towards `hosts`.
    pub fn controlling<I: IntoIterator<Item = IpAddr>>(hosts: I) -> Self {
        OnPathMitm {
            controlled_hosts: hosts.into_iter().collect(),
            replace: None,
        }
    }

    /// Sets a closure that rewrites plaintext responses on controlled paths.
    ///
    /// The closure receives `(request, genuine_response)` and returns the
    /// replacement payload, or `None` to leave the response alone.
    pub fn with_response_rewriter<F>(mut self, rewriter: F) -> Self
    where
        F: FnMut(&[u8], &[u8], &mut SimRng) -> Option<Vec<u8>> + 'static,
    {
        self.replace = Some(Box::new(rewriter));
        self
    }

    fn controls_path(&self, envelope: &Envelope<'_>) -> bool {
        self.controlled_hosts.contains(&envelope.dst.ip)
            || self.controlled_hosts.contains(&envelope.src.ip)
    }
}

impl std::fmt::Debug for OnPathMitm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnPathMitm")
            .field("controlled_hosts", &self.controlled_hosts)
            .finish()
    }
}

impl Adversary for OnPathMitm {
    fn on_response(
        &mut self,
        envelope: &Envelope<'_>,
        request: &[u8],
        rng: &mut SimRng,
    ) -> ResponseVerdict {
        // Integrity protection: secure channels cannot be rewritten.
        if !self.controls_path(envelope) || !envelope.channel.is_forgeable() {
            return ResponseVerdict::Deliver;
        }
        match self.replace.as_mut() {
            Some(rewriter) => rewriter(request, envelope.payload, rng)
                .map_or(ResponseVerdict::Deliver, ResponseVerdict::Replace),
            None => ResponseVerdict::Deliver,
        }
    }

    fn name(&self) -> &str {
        "on-path-mitm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SimAddr;
    use crate::adversary::RequestVerdict;
    use crate::channel::ChannelKind;

    fn env(channel: ChannelKind, dst: SimAddr) -> Envelope<'static> {
        Envelope {
            src: SimAddr::v4(10, 0, 0, 1, 5000),
            dst,
            channel,
            payload: b"response",
        }
    }

    #[test]
    fn rewrites_plain_responses_on_controlled_path() {
        let victim = SimAddr::v4(8, 8, 8, 8, 53);
        let mut mitm = OnPathMitm::controlling([victim.ip])
            .with_response_rewriter(|_req, _resp, _rng| Some(b"evil".to_vec()));
        let mut rng = SimRng::seed_from_u64(1);
        let verdict = mitm.on_response(&env(ChannelKind::Plain, victim), b"req", &mut rng);
        assert_eq!(verdict, ResponseVerdict::Replace(b"evil".to_vec()));
    }

    #[test]
    fn cannot_rewrite_secure_responses() {
        let victim = SimAddr::v4(8, 8, 8, 8, 443);
        let mut mitm = OnPathMitm::controlling([victim.ip])
            .with_response_rewriter(|_req, _resp, _rng| Some(b"evil".to_vec()));
        let mut rng = SimRng::seed_from_u64(2);
        let verdict = mitm.on_response(&env(ChannelKind::Secure, victim), b"req", &mut rng);
        assert_eq!(verdict, ResponseVerdict::Deliver);
    }

    #[test]
    fn uncontrolled_paths_untouched() {
        let victim = SimAddr::v4(8, 8, 8, 8, 53);
        let other = SimAddr::v4(9, 9, 9, 9, 53);
        let mut mitm = OnPathMitm::controlling([victim.ip])
            .with_response_rewriter(|_req, _resp, _rng| Some(b"evil".to_vec()));
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(
            mitm.on_request(&env(ChannelKind::Plain, other), &mut rng),
            RequestVerdict::Deliver
        );
        assert_eq!(
            mitm.on_response(&env(ChannelKind::Plain, other), b"req", &mut rng),
            ResponseVerdict::Deliver
        );
    }

    #[test]
    fn rewriter_can_decline() {
        let victim = SimAddr::v4(8, 8, 8, 8, 53);
        let mut mitm =
            OnPathMitm::controlling([victim.ip]).with_response_rewriter(|req, _resp, _rng| {
                if req == b"target" {
                    Some(b"evil".to_vec())
                } else {
                    None
                }
            });
        let mut rng = SimRng::seed_from_u64(6);
        assert_eq!(
            mitm.on_response(&env(ChannelKind::Plain, victim), b"other", &mut rng),
            ResponseVerdict::Deliver
        );
        assert!(matches!(
            mitm.on_response(&env(ChannelKind::Plain, victim), b"target", &mut rng),
            ResponseVerdict::Replace(_)
        ));
    }
}
