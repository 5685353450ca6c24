//! The scalar metric handle: the monotonic [`Counter`]. A gauge is a
//! sample a scrape-time collector reads from its source
//! ([`SampleValue::Gauge`](crate::SampleValue::Gauge)).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
///
/// Clones share the same cell, so the recording site keeps one handle and
/// the registry another. All operations are relaxed atomics — safe from
/// any thread, never a lock.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta` (counters only ever go up).
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let counter = Counter::new();
        let writer = counter.clone();
        writer.inc();
        writer.add(41);
        assert_eq!(counter.get(), 42);
    }
}
