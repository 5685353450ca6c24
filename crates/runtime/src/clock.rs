//! The runtime's wall clock, expressed in the workspace's instant type.
//!
//! Everything below the runtime — the pool cache, the refresh scheduler,
//! the exchanger trait — is sans-IO and reasons about time as a
//! [`SimInstant`] handed in by the driver. Inside the simulator that
//! instant comes from the virtual [`SimClock`](sdoh_netsim::SimClock);
//! inside the real-socket runtime it comes from here: a monotonic host
//! clock anchored at runtime start, so `SimInstant::EPOCH` is "the moment
//! the runtime came up" and TTLs, stale windows and upstream round trips
//! all measure real elapsed time.

use std::time::Instant;

use sdoh_netsim::SimInstant;

/// A monotonic wall clock mapping host time onto [`SimInstant`]s.
///
/// Copies share the same epoch (the `Instant` captured at construction),
/// so every thread of a runtime observes one consistent timeline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RuntimeClock {
    start: Instant,
}

impl RuntimeClock {
    /// Creates a clock whose epoch is "now".
    pub(crate) fn new() -> Self {
        RuntimeClock {
            start: Instant::now(),
        }
    }

    /// Nanoseconds of host time elapsed since the epoch, as an instant the
    /// sans-IO layers (cache TTLs, upstream arrivals) understand.
    pub(crate) fn now(&self) -> SimInstant {
        SimInstant::from_nanos(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clock_advances_monotonically_and_copies_share_the_epoch() {
        let clock = RuntimeClock::new();
        let copy = clock;
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = copy.now();
        assert!(b > a, "time moved forward across copies");
        assert!(b.saturating_duration_since(a) >= Duration::from_millis(1));
    }
}
