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

use std::time::{Duration, Instant};

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

/// The kernel's timer slack (`/proc/self/timerslack_ns`; 0 where it cannot
/// be read): a sleep asked for `d` may end as late as `d + slack`.
pub(crate) fn timer_slack() -> Duration {
    let text = std::fs::read_to_string("/proc/self/timerslack_ns").unwrap_or_default();
    Duration::from_nanos(text.trim().parse().unwrap_or(0))
}

/// How long to sleep to wake `wait` from now. A `lone` wake (nobody shares
/// it) is led by the `slack`, so the kernel's window ends at the instant; a
/// shared one keeps the slack, which folds close wakes into one. A wait at
/// or below the slack is asked for as it is, never as 0 (no spin).
pub(crate) fn park_for(wait: Duration, slack: Duration, lone: bool) -> Duration {
    match wait.checked_sub(slack) {
        Some(led) if lone && !led.is_zero() => led,
        _ => wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The park rule as a table: a lone 2 ms wait at 50 us of slack is
    /// asked for as 1.95 ms, one that is not lone as 2 ms; a wait at or
    /// below the slack is asked for as it is, never as 0; slack 0 asks
    /// for the wait, as a plain park does. Then every wait up to three
    /// slacks: the kernel's window `[park, park + slack]` never ends
    /// before the instant, and no positive wait is asked for as 0.
    #[test]
    fn the_park_rule_leads_only_a_lone_wait_and_never_parks_for_zero() {
        let us = Duration::from_micros;
        let slack = us(50);
        let rows = [
            (us(2000), slack, true, us(1950)),
            (us(2000), slack, false, us(2000)),
            (us(51), slack, true, us(1)),
            (us(50), slack, true, us(50)),
            (us(30), slack, true, us(30)),
            (
                Duration::from_nanos(1),
                slack,
                true,
                Duration::from_nanos(1),
            ),
            (us(2000), Duration::ZERO, true, us(2000)),
            (us(2000), Duration::ZERO, false, us(2000)),
        ];
        println!("{:>10} {:>8} {:>6} {:>10}", "wait", "slack", "lone", "park");
        for (wait, slack, lone, park) in rows {
            let asked = park_for(wait, slack, lone);
            println!("{wait:>10?} {slack:>8?} {lone:>6} {asked:>10?}");
            assert_eq!(asked, park, "{wait:?} at {slack:?} of slack, lone {lone}");
        }
        let mut waits = 0;
        for nanos in (1..=3 * 50_000).step_by(7) {
            let wait = Duration::from_nanos(nanos);
            for lone in [true, false] {
                let park = park_for(wait, slack, lone);
                assert!(!park.is_zero() && park <= wait, "{wait:?}: {park:?}");
                assert!(park + slack >= wait, "{wait:?}: the window ends early");
                assert_eq!(park_for(wait, Duration::ZERO, lone), wait);
                waits += 1;
            }
        }
        println!("{waits} waits: none parks for 0, none ends before its instant");
    }
}
