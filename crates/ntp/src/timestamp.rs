//! NTP 64-bit timestamps (RFC 5905 §6).

use std::fmt;
use std::time::Duration;

use sdoh_netsim::SimInstant;

/// Offset applied when mapping the simulation epoch onto the NTP era, so
/// that simulated timestamps look like plausible modern NTP values.
const SIM_EPOCH_IN_NTP_SECONDS: u64 = 3_900_000_000;

/// A 64-bit NTP timestamp: 32 bits of seconds since 1900-01-01 and 32 bits
/// of binary fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtpTimestamp(pub u64);

impl NtpTimestamp {
    /// The zero timestamp, used in packets for "unknown".
    pub const ZERO: NtpTimestamp = NtpTimestamp(0);

    /// The whole-seconds part.
    pub fn seconds(self) -> u32 {
        let [a, b, c, d, ..] = self.0.to_be_bytes();
        u32::from_be_bytes([a, b, c, d])
    }

    /// The fractional part.
    pub fn fraction(self) -> u32 {
        let [.., a, b, c, d] = self.0.to_be_bytes();
        u32::from_be_bytes([a, b, c, d])
    }

    /// Converts simulation time plus a floating-point offset (in seconds)
    /// into an NTP timestamp.
    pub fn from_sim_time(instant: SimInstant, offset_seconds: f64) -> Self {
        let sim_seconds = instant.as_nanos() as f64 / 1e9;
        let total = SIM_EPOCH_IN_NTP_SECONDS as f64 + sim_seconds + offset_seconds;
        NtpTimestamp::from_seconds_f64(total)
    }

    /// Builds a timestamp from an absolute number of NTP seconds.
    pub fn from_seconds_f64(seconds: f64) -> Self {
        let clamped = seconds.max(0.0);
        let whole = clamped.floor();
        let fraction = ((clamped - whole) * 4_294_967_296.0) as u64; // sdoh-lint: allow(no-narrowing-cast, "float-to-int as-casts saturate and map NaN to zero")
        NtpTimestamp(((whole as u64) << 32) | (fraction & 0xFFFF_FFFF)) // sdoh-lint: allow(no-narrowing-cast, "float-to-int as-casts saturate and map NaN to zero")
    }

    /// The timestamp as absolute NTP seconds.
    pub fn as_seconds_f64(self) -> f64 {
        self.seconds() as f64 + self.fraction() as f64 / 4_294_967_296.0
    }

    /// Signed difference `self - other` in seconds.
    pub fn diff_seconds(self, other: NtpTimestamp) -> f64 {
        self.as_seconds_f64() - other.as_seconds_f64()
    }

    /// Adds a (possibly negative) number of seconds.
    pub fn add_seconds(self, seconds: f64) -> NtpTimestamp {
        NtpTimestamp::from_seconds_f64(self.as_seconds_f64() + seconds)
    }

    /// Adds a duration.
    pub fn add_duration(self, duration: Duration) -> NtpTimestamp {
        self.add_seconds(duration.as_secs_f64())
    }
}

impl fmt::Display for NtpTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_seconds_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_roundtrip() {
        let ts = NtpTimestamp((1234 << 32) | 0x8000_0000);
        assert_eq!(ts.seconds(), 1234);
        assert_eq!(ts.fraction(), 0x8000_0000);
        assert!((ts.as_seconds_f64() - 1234.5).abs() < 1e-9);
    }

    #[test]
    fn seconds_f64_roundtrip() {
        for value in [0.0, 1.25, 3_900_000_123.456, 4_000_000_000.999] {
            let ts = NtpTimestamp::from_seconds_f64(value);
            assert!((ts.as_seconds_f64() - value).abs() < 1e-6, "value {value}");
        }
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(NtpTimestamp::from_seconds_f64(-5.0), NtpTimestamp::ZERO);
    }

    #[test]
    fn sim_time_mapping_preserves_offsets() {
        let t0 = SimInstant::from_nanos(0);
        let t1 = SimInstant::from_nanos(2_500_000_000);
        let a = NtpTimestamp::from_sim_time(t0, 0.0);
        let b = NtpTimestamp::from_sim_time(t1, 0.0);
        assert!((b.diff_seconds(a) - 2.5).abs() < 1e-6);

        let shifted = NtpTimestamp::from_sim_time(t0, 100.0);
        assert!((shifted.diff_seconds(a) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_helpers() {
        let ts = NtpTimestamp::from_seconds_f64(1000.0);
        assert!((ts.add_seconds(-1.5).as_seconds_f64() - 998.5).abs() < 1e-6);
        assert!(
            (ts.add_duration(Duration::from_millis(250)).as_seconds_f64() - 1000.25).abs() < 1e-6
        );
        assert_eq!(ts.to_string(), "1000.000000");
    }
}
