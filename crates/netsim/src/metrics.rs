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

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &Metrics) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.timeouts += other.timeouts;
        self.unreachable += other.unreachable;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.plain_requests += other.plain_requests;
        self.secure_requests += other.secure_requests;
        self.forged_responses += other.forged_responses;
        self.replaced_responses += other.replaced_responses;
        self.adversary_drops += other.adversary_drops;
        self.duplicated_requests += other.duplicated_requests;
        self.reordered_responses += other.reordered_responses;
    }

    /// Fraction of requests that received any response (successfully).
    pub fn response_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.responses as f64 / self.requests as f64
        }
    }

    /// Fraction of delivered responses that were forged or replaced by an
    /// adversary.
    pub fn attack_success_rate(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            (self.forged_responses + self.replaced_responses) as f64 / self.responses as f64
        }
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
    fn merge_adds_counters() {
        let mut a = Metrics {
            requests: 3,
            responses: 2,
            bytes_sent: 100,
            ..Metrics::new()
        };
        let b = Metrics {
            requests: 5,
            responses: 4,
            forged_responses: 1,
            ..Metrics::new()
        };
        a.merge(&b);
        assert_eq!(a.requests, 8);
        assert_eq!(a.responses, 6);
        assert_eq!(a.forged_responses, 1);
        assert_eq!(a.bytes_sent, 100);
    }

    #[test]
    fn merge_adds_fault_counters() {
        let mut a = Metrics {
            duplicated_requests: 2,
            reordered_responses: 1,
            ..Metrics::new()
        };
        a.merge(&Metrics {
            duplicated_requests: 3,
            reordered_responses: 4,
            ..Metrics::new()
        });
        assert_eq!(a.duplicated_requests, 5);
        assert_eq!(a.reordered_responses, 5);
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let m = Metrics::new();
        assert_eq!(m.response_rate(), 0.0);
        assert_eq!(m.attack_success_rate(), 0.0);
    }

    #[test]
    fn rates_compute_fractions() {
        let m = Metrics {
            requests: 10,
            responses: 8,
            forged_responses: 2,
            ..Metrics::new()
        };
        assert!((m.response_rate() - 0.8).abs() < 1e-12);
        assert!((m.attack_success_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_counters() {
        let m = Metrics {
            requests: 1,
            ..Metrics::new()
        };
        assert!(m.to_string().contains("requests=1"));
    }
}
