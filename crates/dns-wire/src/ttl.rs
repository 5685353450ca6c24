//! The shared TTL type.
//!
//! DNS speaks about record lifetimes in whole seconds carried as a `u32`
//! on the wire, while the simulator's caches reason in [`Duration`]s of
//! virtual time. Before [`Ttl`] existed every component picked one of the
//! two representations ad hoc (the pool front end stored a bare `u32`,
//! `DnsCache` a `Duration`), and conversions were scattered and lossy.
//! [`Ttl`] is the one type both sides share: constructed from either
//! representation, convertible to either, always saturating instead of
//! overflowing.

use std::fmt;
use std::time::Duration;

/// A DNS time-to-live: a whole number of seconds as carried in a resource
/// record, convertible losslessly to the [`Duration`]s the caches use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ttl(u32);

impl Ttl {
    /// The zero TTL ("do not cache").
    pub const ZERO: Ttl = Ttl(0);

    /// Creates a TTL of `secs` seconds.
    pub const fn from_secs(secs: u32) -> Self {
        Ttl(secs)
    }

    /// Creates a TTL from a duration, rounding down to whole seconds and
    /// saturating at the wire format's `u32` range.
    pub fn from_duration(duration: Duration) -> Self {
        Ttl(u32::try_from(duration.as_secs()).unwrap_or(u32::MAX))
    }

    /// The TTL in seconds, as carried in a resource record.
    pub const fn as_secs(self) -> u32 {
        self.0
    }

    /// The TTL as a duration of (virtual) time.
    pub const fn as_duration(self) -> Duration {
        Duration::from_secs(self.0 as u64) // sdoh-lint: allow(no-narrowing-cast, "u32 to u64 widening in a const fn, which cannot call From")
    }

    /// Returns `true` for the zero TTL.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two TTLs (how caches combine the TTLs of a record
    /// set: the set lives as long as its shortest-lived record).
    pub fn min(self, other: Ttl) -> Ttl {
        Ttl(self.0.min(other.0))
    }
}

impl From<u32> for Ttl {
    fn from(secs: u32) -> Self {
        Ttl::from_secs(secs)
    }
}

impl From<Duration> for Ttl {
    fn from(duration: Duration) -> Self {
        Ttl::from_duration(duration)
    }
}

impl From<Ttl> for Duration {
    fn from(ttl: Ttl) -> Self {
        ttl.as_duration()
    }
}

impl fmt::Display for Ttl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_roundtrip_through_duration() {
        let ttl = Ttl::from_secs(300);
        assert_eq!(ttl.as_secs(), 300);
        assert_eq!(ttl.as_duration(), Duration::from_secs(300));
        assert_eq!(Ttl::from_duration(ttl.as_duration()), ttl);
        assert_eq!(Duration::from(ttl), Duration::from_secs(300));
    }

    #[test]
    fn from_duration_rounds_down_and_saturates() {
        assert_eq!(
            Ttl::from_duration(Duration::from_millis(2_900)).as_secs(),
            2
        );
        let huge = Duration::from_secs(u64::from(u32::MAX) + 10);
        assert_eq!(Ttl::from_duration(huge).as_secs(), u32::MAX);
    }

    #[test]
    fn zero_and_min() {
        assert!(Ttl::ZERO.is_zero());
        assert!(!Ttl::from_secs(1).is_zero());
        assert_eq!(
            Ttl::from_secs(60).min(Ttl::from_secs(30)),
            Ttl::from_secs(30)
        );
    }

    #[test]
    fn conversions_and_display() {
        let ttl: Ttl = 120u32.into();
        assert_eq!(ttl, Ttl::from_secs(120));
        let ttl: Ttl = Duration::from_secs(45).into();
        assert_eq!(ttl.to_string(), "45s");
        assert!(Ttl::from_secs(10) < Ttl::from_secs(20));
    }
}
