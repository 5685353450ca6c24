//! Counters collected while a simulation runs.

use std::fmt;

/// Aggregate traffic and attack counters for a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of request transactions initiated.
    pub requests: u64,
    /// Number of successful responses delivered to the requester.
    pub responses: u64,
    /// Requests that ended in a timeout (loss, drop or missing reply).
    pub timeouts: u64,
    /// Requests addressed to an endpoint with no registered service.
    pub unreachable: u64,
    /// Total request payload bytes sent.
    pub bytes_sent: u64,
    /// Total response payload bytes received.
    pub bytes_received: u64,
    /// Requests carried over plain (unauthenticated) channels.
    pub plain_requests: u64,
    /// Requests carried over secure (authenticated) channels.
    pub secure_requests: u64,
    /// Responses forged by an off-path adversary and accepted in place of the
    /// genuine response.
    pub forged_responses: u64,
    /// Genuine responses replaced in flight by an on-path adversary.
    pub replaced_responses: u64,
    /// Requests or responses dropped by an adversary.
    pub adversary_drops: u64,
    /// Plain requests duplicated in flight (the service handled the payload
    /// twice; the redundant reply was discarded).
    pub duplicated_requests: u64,
    /// Plain responses delivered out of order after an extra hold-back delay.
    pub reordered_responses: u64,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} responses={} timeouts={} forged={} replaced={} bytes_tx={} bytes_rx={}",
            self.requests,
            self.responses,
            self.timeouts,
            self.forged_responses,
            self.replaced_responses,
            self.bytes_sent,
            self.bytes_received
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_counters() {
        let m = Metrics {
            requests: 1,
            ..Metrics::new()
        };
        assert!(m.to_string().contains("requests=1"));
    }
}
