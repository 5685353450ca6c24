//! Deterministic random number generation for reproducible experiments.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded random number generator handle.
///
/// Every simulation component receives its randomness from a `SimRng`
/// forked from the scenario's master seed, so that a run is fully
/// reproducible from a single `u64`.
#[derive(Debug)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent generator for a named sub-component.
    ///
    /// The derivation mixes the label into fresh seed material so that two
    /// differently named forks never produce correlated streams.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let mut seed = self.inner.gen::<u64>();
        for (i, b) in label.bytes().enumerate() {
            seed = seed
                .rotate_left(7)
                .wrapping_add(u64::from(b) << (i % 8 * 8).min(56));
        }
        SimRng::seed_from_u64(seed)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Uniform value in `[low, high)`; returns `low` when the range is empty.
    pub fn range_f64(&mut self, low: f64, high: f64) -> f64 {
        if high <= low {
            low
        } else {
            self.inner.gen_range(low..high)
        }
    }

    /// Uniform integer in `[low, high)`; returns `low` when the range is empty.
    pub fn range_u64(&mut self, low: u64, high: u64) -> u64 {
        if high <= low {
            low
        } else {
            self.inner.gen_range(low..high)
        }
    }

    /// A uniformly random `u16`, e.g. for DNS transaction identifiers.
    pub fn gen_u16(&mut self) -> u16 {
        self.inner.gen()
    }

    /// Chooses `k` distinct indices out of `0..n` (Floyd's algorithm); when
    /// `k >= n`, returns all indices in order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.inner.gen_range(0..=j);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen.sort_unstable();
        chosen
    }

    /// Shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        use rand::seq::SliceRandom;
        slice.shuffle(&mut self.inner);
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.gen_u16(), b.gen_u16());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.gen_u16() == b.gen_u16()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_deterministic_and_label_sensitive() {
        let mut parent1 = SimRng::seed_from_u64(99);
        let mut parent2 = SimRng::seed_from_u64(99);
        let mut fa = parent1.fork("alpha");
        let mut fb = parent2.fork("alpha");
        assert_eq!(fa.gen_u16(), fb.gen_u16());

        let mut parent3 = SimRng::seed_from_u64(99);
        let mut fc = parent3.fork("beta");
        let mut parent4 = SimRng::seed_from_u64(99);
        let mut fd = parent4.fork("alpha");
        assert_ne!(fc.gen_u16(), fd.gen_u16());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn range_handles_degenerate_bounds() {
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(rng.range_f64(5.0, 5.0), 5.0);
        assert_eq!(rng.range_u64(9, 3), 9);
        let v = rng.range_f64(1.0, 2.0);
        assert!((1.0..2.0).contains(&v));
    }

    #[test]
    fn sample_indices_are_distinct_and_bounded() {
        let mut rng = SimRng::seed_from_u64(21);
        let sample = rng.sample_indices(20, 7);
        assert_eq!(sample.len(), 7);
        let mut dedup = sample.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 7);
        assert!(sample.iter().all(|&i| i < 20));
        assert_eq!(rng.sample_indices(3, 10), vec![0, 1, 2]);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = SimRng::seed_from_u64(13);
        let mut data: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(data, sorted);
    }
}
