//! Channel kinds: what an adversary can do to traffic in flight.

use std::fmt;

/// Security property of the channel a payload travels over.
///
/// The distinction captures the paper's core assumption: plain DNS (Do53)
/// answers can be spoofed or modified by off-path and on-path attackers,
/// while DoH answers travel over authenticated HTTPS channels that such
/// attackers can at most drop or delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Unauthenticated datagram traffic (classic DNS over UDP, NTP).
    ///
    /// Adversaries may observe, forge, replace and drop payloads.
    Plain,
    /// Authenticated, integrity-protected stream traffic (DoH over HTTPS).
    ///
    /// Adversaries may only drop or delay payloads; forging or modifying
    /// them is detected by the secure-channel layer.
    Secure,
}

impl ChannelKind {
    /// Returns `true` if an in-path or off-path adversary can alter the
    /// payload without detection.
    pub fn is_forgeable(self) -> bool {
        matches!(self, ChannelKind::Plain)
    }
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelKind::Plain => write!(f, "plain"),
            ChannelKind::Secure => write!(f, "secure"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forgeability() {
        assert!(ChannelKind::Plain.is_forgeable());
        assert!(!ChannelKind::Secure.is_forgeable());
    }

    #[test]
    fn display() {
        assert_eq!(ChannelKind::Plain.to_string(), "plain");
        assert_eq!(ChannelKind::Secure.to_string(), "secure");
    }
}
