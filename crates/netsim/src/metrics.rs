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

/// Reads one counter of a [`Metrics`].
pub type MetricsField = fn(&mut Metrics) -> &mut u64;

impl Metrics {
    /// Every counter, by name, in declaration order: the one list a reader
    /// that walks them all (such as a monotonicity check) iterates.
    pub const COUNTERS: &'static [(&'static str, MetricsField)] = &[
        ("net.requests", |m| &mut m.requests),
        ("net.responses", |m| &mut m.responses),
        ("net.timeouts", |m| &mut m.timeouts),
        ("net.unreachable", |m| &mut m.unreachable),
        ("net.bytes_sent", |m| &mut m.bytes_sent),
        ("net.bytes_received", |m| &mut m.bytes_received),
        ("net.plain_requests", |m| &mut m.plain_requests),
        ("net.secure_requests", |m| &mut m.secure_requests),
        ("net.forged_responses", |m| &mut m.forged_responses),
        ("net.replaced_responses", |m| &mut m.replaced_responses),
        ("net.adversary_drops", |m| &mut m.adversary_drops),
        ("net.duplicated_requests", |m| &mut m.duplicated_requests),
        ("net.reordered_responses", |m| &mut m.reordered_responses),
    ];

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

    #[test]
    fn every_counter_row_reads_its_own_field() {
        // A distinct value through every row rebuilds the literal that
        // names every field: no row aliases another's field, none is left
        // out, and a field added without a row does not compile here.
        let mut written = Metrics::new();
        for (value, (_, field)) in (1..).zip(Metrics::COUNTERS) {
            *field(&mut written) = value;
        }
        let expected = Metrics {
            requests: 1,
            responses: 2,
            timeouts: 3,
            unreachable: 4,
            bytes_sent: 5,
            bytes_received: 6,
            plain_requests: 7,
            secure_requests: 8,
            forged_responses: 9,
            replaced_responses: 10,
            adversary_drops: 11,
            duplicated_requests: 12,
            reordered_responses: 13,
        };
        assert_eq!(written, expected);
        let mut names: Vec<&str> = Metrics::COUNTERS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metrics::COUNTERS.len());
    }
}
