//! Fixed-bucket log-scale latency histograms.
//!
//! The serving hot path cannot afford allocation, locking or floating-point
//! work per query, so the histogram is a fixed array of power-of-two
//! latency buckets bumped with relaxed atomics: recording one observation
//! is a handful of `fetch_add`s on cache lines owned by the recording
//! shard. Percentile extraction ([`HistogramSnapshot::quantile`]) and
//! cross-shard aggregation ([`HistogramSnapshot::merge`]) happen on
//! consistent point-in-time copies taken off the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of finite buckets: bucket `i` covers `(2^(i-1), 2^i]` µs
/// (bucket 0 covers `0..=1` µs), so the finite range tops out at
/// `2^26` µs ≈ 67 s.
pub const FINITE_BUCKETS: usize = 27;

/// Total bucket count: the finite buckets plus the overflow bucket for
/// observations beyond the largest finite bound.
pub const BUCKETS: usize = FINITE_BUCKETS + 1;

/// Upper bound of finite bucket `i` in microseconds (`2^i`).
fn bound_micros(index: usize) -> u64 {
    1u64 << index
}

/// The bucket an observation falls into: `ceil(log2(µs))`, clamped to the
/// overflow bucket. Integer-only — no float math on the hot path.
pub fn bucket_index(value: Duration) -> usize {
    let micros = u64::try_from(value.as_micros()).unwrap_or(u64::MAX);
    if micros <= 1 {
        return 0;
    }
    let index = (64 - (micros - 1).leading_zeros()) as usize; // sdoh-lint: allow(no-narrowing-cast, "64 minus leading_zeros is at most 64, far inside usize")
    index.min(FINITE_BUCKETS) // past the last finite bound: overflow
}

/// Upper bound of bucket `index` (`None` for the overflow bucket).
pub fn bucket_bound(index: usize) -> Option<Duration> {
    (index < FINITE_BUCKETS).then(|| Duration::from_micros(bound_micros(index)))
}

/// A shareable latency histogram handle.
///
/// Clones share the same underlying buckets (the handle is an `Arc`), so a
/// shard can own one clone and bump it lock-free while an exporter
/// holds another clone and snapshots it. All operations use relaxed
/// atomics: totals are exact once the writers quiesce, and during live
/// recording a snapshot may lag individual bumps by a few observations —
/// fine for an observability surface, never for an audit log.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug, Default)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one latency observation: two relaxed `fetch_add`s and an
    /// integer log2 — no allocation, no lock, no float.
    pub fn record(&self, value: Duration) {
        self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed); // sdoh-lint: allow(no-panic, "bucket_index clamps to the overflow bucket, always below BUCKETS")
        self.inner.sum_nanos.fetch_add(
            u64::try_from(value.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Takes a point-in-time copy for merging and percentile extraction.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.inner.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_nanos: self.inner.sum_nanos.load(Ordering::Relaxed),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }
}

/// An immutable point-in-time copy of a [`Histogram`], the unit of
/// cross-shard (and cross-instance) aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values in nanoseconds (saturating).
    pub sum_nanos: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum_nanos: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds `other`'s buckets into `self` — merging shard histograms into
    /// an instance histogram. Associative and commutative, so merge order
    /// never changes totals or extracted percentiles.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
    }

    /// Extracts the `q`-quantile (`0.0..=1.0`) as the upper bound of the
    /// bucket holding the rank-`ceil(q·count)` observation — the true
    /// quantile lies within that bucket, i.e. within one power-of-two
    /// bucket of the returned value. Observations in the overflow bucket
    /// report twice the largest finite bound. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count); // sdoh-lint: allow(no-narrowing-cast, "q is clamped to [0, 1], so the ceiling is at most count")
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return Some(match bucket_bound(index) {
                    Some(bound) => bound,
                    None => Duration::from_micros(bound_micros(FINITE_BUCKETS)),
                });
            }
        }
        // Unreachable in practice — rank is clamped to the total count, so
        // the loop always crosses it; the overflow bound is the defensive
        // answer.
        Some(Duration::from_micros(bound_micros(FINITE_BUCKETS)))
    }

    /// The p50 / p99 / p999 triple every latency surface reports.
    pub fn percentiles(&self) -> Option<(Duration, Duration, Duration)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.99)?,
            self.quantile(0.999)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_ceil_log2_micros() {
        assert_eq!(bucket_index(Duration::ZERO), 0);
        assert_eq!(bucket_index(Duration::from_micros(1)), 0);
        assert_eq!(bucket_index(Duration::from_micros(2)), 1);
        assert_eq!(bucket_index(Duration::from_micros(3)), 2);
        assert_eq!(bucket_index(Duration::from_micros(4)), 2);
        assert_eq!(bucket_index(Duration::from_micros(5)), 3);
        assert_eq!(bucket_index(Duration::from_millis(1)), 10);
        // Bucket bounds bracket their members.
        for micros in [1u64, 7, 100, 4096, 1_000_000] {
            let value = Duration::from_micros(micros);
            let index = bucket_index(value);
            let upper = bucket_bound(index).unwrap();
            assert!(value <= upper, "{micros}µs above its bucket bound");
            if index > 0 {
                assert!(value > bucket_bound(index - 1).unwrap());
            }
        }
        // Beyond the largest finite bound: overflow bucket.
        assert_eq!(bucket_index(Duration::from_secs(68)), FINITE_BUCKETS);
        assert_eq!(bucket_index(Duration::from_secs(1 << 40)), FINITE_BUCKETS);
    }

    #[test]
    fn record_and_snapshot_round_trip() {
        let histogram = Histogram::new();
        let writer = histogram.clone();
        writer.record(Duration::from_micros(3));
        writer.record(Duration::from_micros(900));
        writer.record(Duration::from_secs(120)); // overflow
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 3);
        assert_eq!(histogram.count(), 3);
        assert_eq!(snapshot.buckets.last(), Some(&1), "one overflow");
        assert_eq!(snapshot.buckets[bucket_index(Duration::from_micros(3))], 1);
        assert_eq!(snapshot.sum_nanos, 3_000 + 900_000 + 120_000_000_000);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let histogram = Histogram::new();
        // 99 fast observations and one slow one: p50 stays fast, p99 is
        // pulled to the fast cluster's bound, p999 reaches the outlier.
        for _ in 0..99 {
            histogram.record(Duration::from_micros(10));
        }
        histogram.record(Duration::from_millis(50));
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.quantile(0.50).unwrap(), Duration::from_micros(16));
        assert_eq!(snapshot.quantile(0.99).unwrap(), Duration::from_micros(16));
        assert_eq!(
            snapshot.quantile(0.999).unwrap(),
            bucket_bound(bucket_index(Duration::from_millis(50))).unwrap()
        );
        let (p50, p99, p999) = snapshot.percentiles().unwrap();
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(HistogramSnapshot::default().quantile(0.99), None);

        // Seeded multisets: every quantile is the bound of the bucket that
        // holds the exact rank-ceil(q·n) value of the sorted observations,
        // read from one histogram and from shards merged into one.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let bound_of = |value: Duration| {
            bucket_bound(bucket_index(value))
                .unwrap_or(Duration::from_micros(bound_micros(FINITE_BUCKETS)))
        };
        for case in 0..200 {
            let n = 1 + (next() % 2_000) as usize;
            // Log-uniform over 0 µs .. past the finite range, with every
            // fourth value on a bucket bound or one past it.
            let mut values: Vec<Duration> = (0..n)
                .map(|_| {
                    let scale = (next() % (FINITE_BUCKETS as u64 + 2)) as u32;
                    let micros = match next() % 4 {
                        0 => (1u64 << scale) + next() % 2,
                        _ => next() % (1u64 << scale).max(1),
                    };
                    Duration::from_micros(micros) + Duration::from_nanos(next() % 1_000)
                })
                .collect();
            let whole = Histogram::new();
            let shards = [Histogram::new(), Histogram::new(), Histogram::new()];
            for (i, &value) in values.iter().enumerate() {
                whole.record(value);
                shards[i % shards.len()].record(value);
            }
            let mut merged = HistogramSnapshot::default();
            for shard in &shards {
                merged.merge(&shard.snapshot());
            }
            values.sort();
            for per_mille in [500, 990, 999, 1_000] {
                let rank = (per_mille * n).div_ceil(1_000);
                let expected = bound_of(values[rank - 1]);
                let q = per_mille as f64 / 1_000.0;
                assert_eq!(
                    whole.snapshot().quantile(q),
                    Some(expected),
                    "case {case}, n {n}, q {q}"
                );
                assert_eq!(
                    merged.quantile(q),
                    Some(expected),
                    "merged: case {case}, n {n}, q {q}"
                );
            }
        }
    }

    #[test]
    fn merge_is_associative_and_commutative_across_shards() {
        // Three "shard" histograms with disjoint latency profiles, one of
        // them overflowing the finite range.
        let shard = |micros: &[u64]| {
            let histogram = Histogram::new();
            for &m in micros {
                histogram.record(Duration::from_micros(m));
            }
            histogram.snapshot()
        };
        let a = shard(&[5, 9, 13]);
        let b = shard(&[900, 1100]);
        let c = shard(&[200_000_000]); // ≈ 200 s: overflow bucket

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == c ⊕ b ⊕ a, bucket for bucket.
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        let mut reversed = c;
        reversed.merge(&b);
        reversed.merge(&a);
        assert_eq!(left, right);
        assert_eq!(left, reversed);

        // Totals, overflow and extracted percentiles survive the merge.
        assert_eq!(left.count(), 6);
        assert_eq!(left.buckets.last(), Some(&1), "one overflow");
        assert_eq!(left.sum_nanos, reversed.sum_nanos);
        assert_eq!(left.quantile(0.50).unwrap(), Duration::from_micros(16));
        assert_eq!(
            left.quantile(1.0).unwrap(),
            Duration::from_micros(bound_micros(FINITE_BUCKETS)),
            "the max lives in the overflow bucket"
        );

        // Merging an empty snapshot is the identity.
        let mut with_empty = left;
        with_empty.merge(&HistogramSnapshot::default());
        assert_eq!(with_empty, left);
    }

    #[test]
    fn overflow_quantile_reports_past_the_finite_range() {
        let histogram = Histogram::new();
        histogram.record(Duration::from_secs(3600));
        let q = histogram.snapshot().quantile(0.99).unwrap();
        assert!(q > bucket_bound(FINITE_BUCKETS - 1).unwrap());
    }
}
