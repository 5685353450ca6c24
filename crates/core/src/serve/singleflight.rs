//! Singleflight coalescing: concurrent misses for the same key share one
//! in-flight generation.
//!
//! When a burst of client queries for the same domain arrives at a cold (or
//! just-expired) cache, the naive front end launches one full distributed
//! fan-out per query — N resolver exchanges each, for work that produces
//! the identical pool. [`Singleflight`] is the registry that collapses the
//! burst: the first waiter for a key becomes the **leader** and owns the
//! flight; every later waiter for the same key is **coalesced** onto the
//! leader's flight and is answered from its result.
//!
//! The registry is pure bookkeeping (no I/O, no clock): the serving session
//! uses it to decide how many [`PoolSession`](crate::PoolSession)s a batch
//! of queries actually needs.

use std::collections::HashMap;
use std::hash::Hash;

/// How a waiter joined the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlightJoin {
    /// First waiter for the key: a new flight was opened at this index.
    Leader(usize),
    /// The key already has a flight in progress; the waiter was attached to
    /// the flight at this index.
    Coalesced(usize),
}

/// The coalescing registry: maps keys to flights and flights to waiters.
#[derive(Debug, Clone)]
pub(crate) struct Singleflight<K, W = usize> {
    flights: Vec<(K, Vec<W>)>,
    index: HashMap<K, usize>,
}

impl<K: Hash + Eq + Clone, W> Default for Singleflight<K, W> {
    fn default() -> Self {
        Singleflight {
            flights: Vec::new(), // sdoh-lint: allow(hot-path-purity, "an empty Vec::new never allocates")
            index: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq + Clone, W> Singleflight<K, W> {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Singleflight::default()
    }

    /// Attaches `waiter` to the flight for `key`, opening one if this is
    /// the first waiter.
    // sdoh-lint: allow(no-panic, "the index map only stores positions of live flights entries")
    // sdoh-lint: allow(hot-path-purity, "waiter lists grow once per coalesced miss, not per query")
    pub(crate) fn join(&mut self, key: K, waiter: W) -> FlightJoin {
        match self.index.get(&key) {
            Some(&flight) => {
                self.flights[flight].1.push(waiter);
                FlightJoin::Coalesced(flight)
            }
            None => {
                let flight = self.flights.len();
                self.index.insert(key.clone(), flight);
                self.flights.push((key, vec![waiter]));
                FlightJoin::Leader(flight)
            }
        }
    }

    /// Number of waiters that were coalesced onto an existing flight (the
    /// generations singleflight saved).
    pub(crate) fn coalesced(&self) -> u64 {
        self.flights
            .iter()
            .map(|(_, waiters)| u64::try_from(waiters.len().saturating_sub(1)).unwrap_or(u64::MAX))
            .sum()
    }

    /// The flights in creation order: each key with its waiters.
    pub(crate) fn flights(&self) -> &[(K, Vec<W>)] {
        &self.flights
    }

    /// Consumes the registry, yielding each key with its waiters.
    pub(crate) fn into_flights(self) -> Vec<(K, Vec<W>)> {
        self.flights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_waiter_leads_later_waiters_coalesce() {
        let mut flights: Singleflight<&str> = Singleflight::new();
        assert_eq!(flights.join("a", 0), FlightJoin::Leader(0));
        assert_eq!(flights.join("b", 1), FlightJoin::Leader(1));
        assert_eq!(flights.join("a", 2), FlightJoin::Coalesced(0));
        assert_eq!(flights.join("a", 3), FlightJoin::Coalesced(0));
        assert_eq!(flights.flights().len(), 2);
        assert_eq!(flights.coalesced(), 2);
        assert_eq!(flights.join("a", 4), FlightJoin::Coalesced(0));

        let flights = flights.into_flights();
        assert_eq!(flights[0].0, "a");
        assert_eq!(flights[0].1, vec![0, 2, 3, 4]);
        assert_eq!(flights[1].1, vec![1]);
    }

    #[test]
    fn empty_registry() {
        let flights: Singleflight<u32> = Singleflight::new();
        assert_eq!(flights.coalesced(), 0);
        assert!(flights.flights().is_empty());
    }
}
