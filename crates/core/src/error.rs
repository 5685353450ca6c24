//! Error types for secure pool generation.

use std::error::Error;
use std::fmt;

/// Errors produced while generating a server address pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// No resolvers are configured.
    NoResolvers,
    /// Fewer resolvers answered than the configuration requires.
    NotEnoughResponses {
        /// Resolvers that returned a usable answer.
        answered: usize,
        /// Minimum required by the configuration.
        required: usize,
    },
    /// Every resolver answered but the combined pool is empty (for example
    /// because one compromised resolver returned an empty list and
    /// truncation reduced everything to zero — the DoS cost the paper
    /// acknowledges in footnote 2).
    EmptyPool,
    /// The configuration is internally inconsistent.
    InvalidConfig(String),
    /// A pool generation behind the serving front end failed (the condition
    /// a DNS client would observe as SERVFAIL, possibly negatively cached).
    Generation(String),
    /// A driver misused the sans-IO session API (responded to an unknown or
    /// completed transaction, or finished with exchanges outstanding).
    Session(String),
    /// A driver responded to a transaction id the session does not know.
    UnknownTransaction(usize),
    /// A driver responded to a transaction that is not in flight.
    TransactionNotInFlight(usize),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::NoResolvers => write!(f, "no DoH resolvers configured"),
            PoolError::NotEnoughResponses { answered, required } => {
                write!(f, "only {answered} resolvers answered, {required} required")
            }
            PoolError::EmptyPool => write!(f, "the combined address pool is empty"),
            PoolError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PoolError::Generation(msg) => write!(f, "pool generation failed: {msg}"),
            PoolError::Session(msg) => write!(f, "session misuse: {msg}"),
            PoolError::UnknownTransaction(id) => {
                write!(f, "session misuse: unknown transaction {id}")
            }
            PoolError::TransactionNotInFlight(id) => {
                write!(f, "session misuse: transaction {id} is not in flight")
            }
        }
    }
}

impl Error for PoolError {}

/// Result alias for pool generation.
pub type PoolResult<T> = Result<T, PoolError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let cases = [
            PoolError::NoResolvers,
            PoolError::NotEnoughResponses {
                answered: 1,
                required: 3,
            },
            PoolError::EmptyPool,
            PoolError::InvalidConfig("x out of range".into()),
            PoolError::Generation("upstreams unreachable".into()),
            PoolError::Session("finished with exchanges outstanding".into()),
            PoolError::UnknownTransaction(7),
            PoolError::TransactionNotInFlight(7),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn is_an_error_trait_object() {
        let e: Box<dyn Error> = Box::new(PoolError::EmptyPool);
        assert!(e.source().is_none());
    }
}
