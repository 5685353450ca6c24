//! Virtual time for deterministic simulation.
//!
//! All latency accounting in the simulator uses a [`SimClock`], a shared
//! monotonically increasing counter of nanoseconds since the start of the
//! simulation. Experiments never read the host clock, which keeps every run
//! reproducible from its seed.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// An instant of virtual time, measured in nanoseconds from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant {
    nanos: u64,
}

impl SimInstant {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimInstant = SimInstant { nanos: 0 };

    /// Creates an instant from nanoseconds since the epoch.
    pub fn from_nanos(nanos: u64) -> Self {
        SimInstant { nanos }
    }

    /// Nanoseconds since the simulation epoch.
    pub fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Seconds since the simulation epoch as a floating-point value.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// The instant `duration` after `self`, saturating on overflow.
    pub fn saturating_add(self, duration: Duration) -> SimInstant {
        SimInstant {
            nanos: self
                .nanos
                .saturating_add(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)),
        }
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimInstant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// Cloning a `SimClock` yields a handle to the same underlying time source.
///
/// # Examples
///
/// ```
/// use sdoh_netsim::SimClock;
/// use std::time::Duration;
///
/// let clock = SimClock::new();
/// let t0 = clock.now();
/// clock.advance(Duration::from_millis(20));
/// assert_eq!(clock.now().saturating_duration_since(t0), Duration::from_millis(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    state: Arc<Mutex<ClockState>>,
}

#[derive(Debug, Default)]
struct ClockState {
    now: SimInstant,
    drift_rate: f64,
    steps: u64,
}

impl SimClock {
    /// Creates a clock at the simulation epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.state.lock().now
    }

    /// Advances the clock by `duration`, scaled by any injected drift.
    pub fn advance(&self, duration: Duration) {
        let mut state = self.state.lock();
        let effective = if state.drift_rate == 0.0 {
            duration
        } else {
            // A drifting time source stretches (or compresses) every
            // elapsed interval; the rate is clamped so time never reverses.
            let scale = (1.0 + state.drift_rate).max(0.0);
            Duration::from_nanos((duration.as_nanos() as f64 * scale) as u64) // sdoh-lint: allow(no-narrowing-cast, "float-to-int as-casts saturate and map NaN to zero")
        };
        state.now = state.now.saturating_add(effective);
    }

    /// Advances the clock to `instant` if it is in the future; a clock never
    /// moves backwards.
    pub fn advance_to(&self, instant: SimInstant) {
        let mut state = self.state.lock();
        if instant > state.now {
            state.now = instant;
        }
    }

    /// Steps the clock forward by `jump` instantly — a chaos fault modelling
    /// a time-source step (VM pause, leap smear gone wrong, operator reset).
    ///
    /// Unlike [`SimClock::advance`] the jump is never scaled by drift, and
    /// each step is counted so campaigns can trace how often they fired.
    pub fn step(&self, jump: Duration) {
        let mut state = self.state.lock();
        state.now = state.now.saturating_add(jump);
        state.steps += 1;
    }

    /// Number of [`SimClock::step`] faults applied so far.
    pub fn steps(&self) -> u64 {
        self.state.lock().steps
    }

    /// Injects a drift rate: every subsequently advanced interval is scaled
    /// by `1 + rate` (e.g. `1e-4` runs the clock 100 ppm fast, negative
    /// rates run it slow; rates at or below `-1` freeze it). Zero clears
    /// the fault and restores exact nanosecond accounting.
    pub fn set_drift(&self, rate: f64) {
        self.state.lock().drift_rate = rate;
    }

    /// The currently injected drift rate.
    pub fn drift(&self) -> f64 {
        self.state.lock().drift_rate
    }

    /// Elapsed virtual time since `start`.
    pub fn elapsed_since(&self, start: SimInstant) -> Duration {
        self.now().saturating_duration_since(start)
    }

    /// Rewinds the clock to `instant`.
    ///
    /// Only the simulator core may do this: it models concurrency by running
    /// the exchanges of one batch sequentially, restarting each from the
    /// batch's departure instant. From the outside the clock stays
    /// monotonic — the batch as a whole ends at the latest completion.
    pub(crate) fn rewind_to(&self, instant: SimInstant) {
        self.state.lock().now = instant;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_epoch() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimInstant::EPOCH);
    }

    #[test]
    fn advance_accumulates() {
        let clock = SimClock::new();
        clock.advance(Duration::from_millis(5));
        clock.advance(Duration::from_micros(250));
        assert_eq!(clock.now().as_nanos(), 5_250_000);
    }

    #[test]
    fn clones_share_time() {
        let clock = SimClock::new();
        let clone = clock.clone();
        clock.advance(Duration::from_secs(1));
        assert_eq!(clone.now().as_secs_f64(), 1.0);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(10));
        clock.advance_to(SimInstant::from_nanos(5));
        assert_eq!(clock.now().as_secs_f64(), 10.0);
        clock.advance_to(SimInstant::from_nanos(11_000_000_000));
        assert_eq!(clock.now().as_secs_f64(), 11.0);
    }

    #[test]
    fn instant_arithmetic() {
        let a = SimInstant::from_nanos(1_000);
        let b = a.saturating_add(Duration::from_nanos(500));
        assert_eq!(b.as_nanos(), 1_500);
        assert_eq!(b.saturating_duration_since(a), Duration::from_nanos(500));
        assert_eq!(a.saturating_duration_since(b), Duration::ZERO);
    }

    #[test]
    fn display_formats_seconds() {
        let t = SimInstant::from_nanos(1_500_000_000);
        assert_eq!(t.to_string(), "1.500000s");
    }

    #[test]
    fn elapsed_since_tracks_clock() {
        let clock = SimClock::new();
        let start = clock.now();
        clock.advance(Duration::from_millis(42));
        assert_eq!(clock.elapsed_since(start), Duration::from_millis(42));
    }

    #[test]
    fn step_jumps_forward_and_is_counted() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(1));
        clock.step(Duration::from_secs(120));
        assert_eq!(clock.now().as_secs_f64(), 121.0);
        assert_eq!(clock.steps(), 1);
        let clone = clock.clone();
        clone.step(Duration::from_secs(1));
        assert_eq!(clock.steps(), 2, "clones share the step counter");
    }

    #[test]
    fn drift_scales_advanced_intervals() {
        let clock = SimClock::new();
        clock.set_drift(0.5);
        assert_eq!(clock.drift(), 0.5);
        clock.advance(Duration::from_secs(10));
        assert_eq!(clock.now().as_secs_f64(), 15.0, "runs 50% fast");

        clock.set_drift(-0.5);
        clock.advance(Duration::from_secs(10));
        assert_eq!(clock.now().as_secs_f64(), 20.0, "runs 50% slow");

        clock.set_drift(0.0);
        clock.advance(Duration::from_nanos(7));
        assert_eq!(
            clock.now().as_nanos(),
            20_000_000_007,
            "zero drift restores exact accounting"
        );
    }

    #[test]
    fn extreme_negative_drift_freezes_but_never_reverses() {
        let clock = SimClock::new();
        clock.advance(Duration::from_secs(5));
        clock.set_drift(-2.0);
        clock.advance(Duration::from_secs(100));
        assert_eq!(clock.now().as_secs_f64(), 5.0);
    }

    #[test]
    fn step_is_not_scaled_by_drift() {
        let clock = SimClock::new();
        clock.set_drift(1.0);
        clock.step(Duration::from_secs(10));
        assert_eq!(clock.now().as_secs_f64(), 10.0);
    }
}
