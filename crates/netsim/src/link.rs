//! Link characteristics: latency, jitter, loss and partitions.

use std::time::Duration;

use crate::rng::SimRng;

/// Configuration of a (directed pair treated as symmetric) link between two
/// hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way latency.
    pub latency: Duration,
    /// Additional uniformly distributed one-way jitter in `[0, jitter)`.
    pub jitter: Duration,
    /// Probability that a plain datagram is lost (per direction).
    pub loss: f64,
    /// Probability that a plain request datagram is duplicated in flight:
    /// the destination service handles the payload twice and the redundant
    /// reply is discarded on the wire.
    pub duplicate: f64,
    /// Probability that a plain response datagram is reordered: it is held
    /// back by an extra delay in `[0, reorder_window)`, letting later
    /// responses overtake it within a concurrent batch.
    pub reorder: f64,
    /// Upper bound of the extra hold-back delay a reordered response
    /// suffers.
    pub reorder_window: Duration,
    /// When `true`, nothing gets through in either direction.
    pub blocked: bool,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: Duration::from_millis(10),
            jitter: Duration::from_millis(2),
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: Duration::from_millis(50),
            blocked: false,
        }
    }
}

impl LinkConfig {
    /// A symmetric link with the given one-way latency and no jitter or loss.
    pub fn with_latency(latency: Duration) -> Self {
        LinkConfig {
            latency,
            jitter: Duration::ZERO,
            ..LinkConfig::default()
        }
    }

    /// Sets the jitter bound, returning `self` for chaining.
    pub fn jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the loss probability, returning `self` for chaining.
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Sets the duplication probability, returning `self` for chaining.
    pub fn duplicate(mut self, duplicate: f64) -> Self {
        self.duplicate = duplicate.clamp(0.0, 1.0);
        self
    }

    /// Sets the reordering probability and hold-back window, returning
    /// `self` for chaining.
    pub fn reorder(mut self, reorder: f64, window: Duration) -> Self {
        self.reorder = reorder.clamp(0.0, 1.0);
        self.reorder_window = window;
        self
    }

    /// Marks the link as blocked (network partition).
    pub fn blocked(mut self) -> Self {
        self.blocked = true;
        self
    }

    /// Samples a one-way delay for a transmission over this link.
    pub fn sample_delay(&self, rng: &mut SimRng) -> Duration {
        if self.jitter.is_zero() {
            return self.latency;
        }
        let extra = rng.range_u64(0, u64::try_from(self.jitter.as_nanos()).unwrap_or(u64::MAX));
        self.latency + Duration::from_nanos(extra)
    }

    /// Samples whether a plain datagram is lost on this link.
    pub fn sample_loss(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.loss)
    }

    /// Samples whether a plain request datagram is duplicated on this link.
    /// Draws no randomness when duplication is disabled, so enabling the
    /// knob on one link leaves the random stream of every other exchange
    /// untouched.
    pub fn sample_duplicate(&self, rng: &mut SimRng) -> bool {
        self.duplicate > 0.0 && rng.chance(self.duplicate)
    }

    /// Samples the extra hold-back delay of a reordered response: `None`
    /// when the response is delivered in order (also drawing no randomness
    /// when reordering is disabled).
    pub fn sample_reorder(&self, rng: &mut SimRng) -> Option<Duration> {
        if self.reorder <= 0.0 || !rng.chance(self.reorder) {
            return None;
        }
        if self.reorder_window.is_zero() {
            return Some(Duration::ZERO);
        }
        let extra = rng.range_u64(
            0,
            u64::try_from(self.reorder_window.as_nanos()).unwrap_or(u64::MAX),
        );
        Some(Duration::from_nanos(extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_link_is_usable() {
        let cfg = LinkConfig::default();
        assert!(!cfg.blocked);
        assert_eq!(cfg.loss, 0.0);
        assert!(cfg.latency > Duration::ZERO);
    }

    #[test]
    fn builder_chain() {
        let cfg = LinkConfig::with_latency(Duration::from_millis(30))
            .jitter(Duration::from_millis(5))
            .loss(0.25);
        assert_eq!(cfg.latency, Duration::from_millis(30));
        assert_eq!(cfg.jitter, Duration::from_millis(5));
        assert_eq!(cfg.loss, 0.25);
    }

    #[test]
    fn loss_is_clamped() {
        assert_eq!(LinkConfig::default().loss(7.0).loss, 1.0);
        assert_eq!(LinkConfig::default().loss(-3.0).loss, 0.0);
    }

    #[test]
    fn sample_delay_within_bounds() {
        let cfg =
            LinkConfig::with_latency(Duration::from_millis(10)).jitter(Duration::from_millis(4));
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = cfg.sample_delay(&mut rng);
            assert!(d >= Duration::from_millis(10));
            assert!(d < Duration::from_millis(14));
        }
    }

    #[test]
    fn sample_delay_without_jitter_is_exact() {
        let cfg = LinkConfig::with_latency(Duration::from_millis(7));
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(cfg.sample_delay(&mut rng), Duration::from_millis(7));
    }

    #[test]
    fn sample_loss_respects_probability() {
        let mut rng = SimRng::seed_from_u64(3);
        let lossless = LinkConfig::default();
        assert!(!(0..100).any(|_| lossless.sample_loss(&mut rng)));
        let lossy = LinkConfig::default().loss(1.0);
        assert!((0..10).all(|_| lossy.sample_loss(&mut rng)));
    }

    #[test]
    fn blocked_builder() {
        assert!(LinkConfig::default().blocked().blocked);
    }

    #[test]
    fn duplicate_and_reorder_builders() {
        let cfg = LinkConfig::default()
            .duplicate(0.4)
            .reorder(0.2, Duration::from_millis(80));
        assert_eq!(cfg.duplicate, 0.4);
        assert_eq!(cfg.reorder, 0.2);
        assert_eq!(cfg.reorder_window, Duration::from_millis(80));
    }

    #[test]
    fn duplicate_and_reorder_are_clamped() {
        assert_eq!(LinkConfig::default().duplicate(3.0).duplicate, 1.0);
        assert_eq!(LinkConfig::default().duplicate(-1.0).duplicate, 0.0);
        assert_eq!(
            LinkConfig::default().reorder(9.0, Duration::ZERO).reorder,
            1.0
        );
        assert_eq!(
            LinkConfig::default().reorder(-9.0, Duration::ZERO).reorder,
            0.0
        );
    }

    #[test]
    fn disabled_knobs_draw_no_randomness() {
        let cfg = LinkConfig::default();
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        for _ in 0..10 {
            assert!(!cfg.sample_duplicate(&mut a));
            assert!(cfg.sample_reorder(&mut a).is_none());
        }
        // `a` drew nothing, so it still agrees with the untouched `b`.
        assert_eq!(a.gen_u16(), b.gen_u16());
    }

    #[test]
    fn sample_duplicate_respects_probability() {
        let mut rng = SimRng::seed_from_u64(4);
        let always = LinkConfig::default().duplicate(1.0);
        assert!((0..10).all(|_| always.sample_duplicate(&mut rng)));
    }

    #[test]
    fn sample_reorder_stays_within_window() {
        let cfg = LinkConfig::default().reorder(1.0, Duration::from_millis(25));
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..100 {
            let extra = cfg.sample_reorder(&mut rng).expect("reorder always fires");
            assert!(extra < Duration::from_millis(25));
        }
    }
}
