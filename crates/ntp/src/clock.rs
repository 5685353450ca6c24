//! The application host's local clock: simulation time plus an adjustable
//! offset that NTP/Chronos discipline.

use sdoh_netsim::SimClock;

use crate::timestamp::NtpTimestamp;

/// A disciplined local clock.
///
/// "True time" is the simulation clock; the local clock reads true time
/// plus `offset_seconds`. NTP and Chronos adjust the offset; the residual
/// absolute offset after an attack is the headline metric of the Chronos
/// experiments.
#[derive(Debug, Clone)]
pub struct LocalClock {
    sim: SimClock,
    offset_seconds: f64,
}

impl LocalClock {
    /// Creates a clock that currently reads true time plus
    /// `initial_offset_seconds`.
    pub fn new(sim: SimClock, initial_offset_seconds: f64) -> Self {
        LocalClock {
            sim,
            offset_seconds: initial_offset_seconds,
        }
    }

    /// The current local reading as an NTP timestamp.
    pub fn now(&self) -> NtpTimestamp {
        NtpTimestamp::from_sim_time(self.sim.now(), self.offset_seconds)
    }

    /// The clock's offset from true time in seconds (positive = fast).
    pub fn offset_from_true(&self) -> f64 {
        self.offset_seconds
    }

    /// Applies a correction of `delta` seconds (what an NTP client does with
    /// the measured offset).
    pub fn adjust(&mut self, delta: f64) {
        self.offset_seconds += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn reads_track_sim_time() {
        let sim = SimClock::new();
        let clock = LocalClock::new(sim.clone(), 0.0);
        let a = clock.now();
        sim.advance(Duration::from_secs(5));
        let b = clock.now();
        assert!((b.diff_seconds(a) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn offset_shifts_reads() {
        let sim = SimClock::new();
        let fast = LocalClock::new(sim.clone(), 2.5);
        let exact = LocalClock::new(sim, 0.0);
        assert!((fast.now().diff_seconds(exact.now()) - 2.5).abs() < 1e-6);
        assert_eq!(fast.offset_from_true(), 2.5);
    }

    #[test]
    fn adjust_accumulates() {
        let sim = SimClock::new();
        let mut clock = LocalClock::new(sim, 10.0);
        clock.adjust(-10.0);
        assert!(clock.offset_from_true().abs() < 1e-9);
        clock.adjust(0.25);
        assert!((clock.offset_from_true() - 0.25).abs() < 1e-9);
    }
}
