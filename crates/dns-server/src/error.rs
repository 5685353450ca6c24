//! Error types for DNS serving and resolution.

use std::error::Error;
use std::fmt;

use sdoh_dns_wire::{Rcode, WireError};
use sdoh_netsim::NetError;

/// Errors produced while resolving a name or serving zone data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The transport failed (timeout, unreachable endpoint, partition).
    Network(NetError),
    /// A message could not be encoded or decoded.
    Wire(WireError),
    /// The upstream server answered with a non-success response code.
    ErrorResponse(Rcode),
    /// The response did not match the query (wrong id or question), which a
    /// validating client rejects.
    Mismatched,
    /// Resolution required more steps than the configured limit (e.g. a
    /// delegation or CNAME loop).
    TooManyIterations,
    /// Every relevant record of a response fell outside the bailiwick of
    /// the server that sent it — a poisoning attempt, rejected by a
    /// hardened resolver.
    OutOfBailiwick,
    /// A zone or configuration problem made the request unanswerable.
    Configuration(String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Network(e) => write!(f, "network error: {e}"),
            ResolveError::Wire(e) => write!(f, "wire format error: {e}"),
            ResolveError::ErrorResponse(rcode) => write!(f, "upstream answered {rcode}"),
            ResolveError::Mismatched => write!(f, "response does not match query"),
            ResolveError::TooManyIterations => write!(f, "too many resolution steps"),
            ResolveError::OutOfBailiwick => {
                write!(f, "response records fall outside the server's bailiwick")
            }
            ResolveError::Configuration(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl Error for ResolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ResolveError::Network(e) => Some(e),
            ResolveError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for ResolveError {
    fn from(e: NetError) -> Self {
        ResolveError::Network(e)
    }
}

impl From<WireError> for ResolveError {
    fn from(e: WireError) -> Self {
        ResolveError::Wire(e)
    }
}

/// Result alias used throughout the crate.
pub type ResolveResult<T> = Result<T, ResolveError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let cases: Vec<ResolveError> = vec![
            ResolveError::Network(NetError::Timeout),
            ResolveError::Wire(WireError::EmptyLabel),
            ResolveError::ErrorResponse(Rcode::ServFail),
            ResolveError::Mismatched,
            ResolveError::TooManyIterations,
            ResolveError::OutOfBailiwick,
            ResolveError::Configuration("no roots".into()),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn sources_are_chained() {
        let e = ResolveError::Network(NetError::Timeout);
        assert!(e.source().is_some());
        assert!(ResolveError::Mismatched.source().is_none());
    }

    #[test]
    fn conversions() {
        let e: ResolveError = NetError::Timeout.into();
        assert_eq!(e, ResolveError::Network(NetError::Timeout));
        let e: ResolveError = WireError::EmptyLabel.into();
        assert_eq!(e, ResolveError::Wire(WireError::EmptyLabel));
    }
}
