//! Singleflight: the registry of a resolver's live generations.
//!
//! When a burst of client queries for the same domain arrives at a cold (or
//! just-expired) cache, the naive front end launches one full distributed
//! fan-out per query — N resolver exchanges each, for work that produces
//! the identical pool. [`Singleflight`] is what collapses the burst: the
//! first miss for a key **opens** a flight, and every later miss for that
//! key finds it and **joins** — it is answered from the leader's result
//! when the flight lands.
//!
//! The registry belongs to the resolver, not to a call: a flight stays in
//! it from the miss (or due refresh) that opened it until its last outcome
//! has landed, however many queries are begun in between. It is pure
//! bookkeeping (no I/O, no clock) and keeps flights in the order they were
//! opened, which is the order everything that walks them — departures,
//! landings, seeds — follows, so a run repeats exactly. Ids are handed out
//! in the same order, so the live list is ordered by id too, and an
//! outcome finds its flight by binary search instead of a walk.

use std::borrow::Borrow;

/// Identifies one live generation of a
/// [`CachingPoolResolver`](super::CachingPoolResolver): handed out when a
/// miss is parked, named again when the flight lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlightId(usize);

/// The live flights of one resolver, keyed by `K`, each carrying an `F`
/// (the generation's session and what landing it needs).
#[derive(Debug)]
pub(crate) struct Singleflight<K, F> {
    /// In opening order, which is id order: ids only grow, and a landing
    /// removes its flight without reordering the rest. A flight is found
    /// by id with a binary search; a key is found by walking them.
    live: Vec<(FlightId, K, F)>,
    opened: usize,
}

impl<K: PartialEq, F> Singleflight<K, F> {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        Singleflight {
            live: Vec::new(),
            opened: 0,
        }
    }

    /// Number of live flights.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// The live flight for `key` — what a miss joins instead of opening a
    /// second one. The key may be lent in any form `K` borrows as.
    pub(crate) fn find<Q: PartialEq + ?Sized>(&self, key: &Q) -> Option<FlightId>
    where
        K: Borrow<Q>,
    {
        self.live
            .iter()
            .find_map(|(id, live, _)| (live.borrow() == key).then_some(*id))
    }

    /// Opens a flight for `key`. The caller has checked [`find`]: one key,
    /// one flight.
    ///
    /// [`find`]: Singleflight::find
    pub(crate) fn open(&mut self, key: K, flight: F) -> FlightId {
        let id = FlightId(self.opened);
        self.opened += 1;
        self.live.push((id, key, flight));
        id
    }

    /// Where flight `id` is in the live list, while it is live.
    fn position(&self, id: FlightId) -> Option<usize> {
        self.live
            .binary_search_by_key(&id, |(live, _, _)| *live)
            .ok()
    }

    /// The flight `id`, while it is live.
    pub(crate) fn get_mut(&mut self, id: FlightId) -> Option<&mut F> {
        let at = self.position(id)?;
        self.live.get_mut(at).map(|(_, _, flight)| flight)
    }

    /// The live flights, in opening order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (FlightId, &mut F)> {
        self.live.iter_mut().map(|(id, _, flight)| (*id, flight))
    }

    /// Takes flight `id` out of the registry: it landed, and the next miss
    /// for its key opens a fresh one.
    pub(crate) fn land(&mut self, id: FlightId) -> Option<(K, F)> {
        let at = self.position(id)?;
        let (_, key, flight) = self.live.remove(at);
        Some((key, flight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_waiter_leads_later_waiters_coalesce() {
        let mut flights: Singleflight<&str, Vec<u32>> = Singleflight::new();
        assert_eq!(flights.find(&"a"), None);
        let a = flights.open("a", vec![0]);
        let b = flights.open("b", vec![1]);
        assert_ne!(a, b);
        // Later waiters for a live key find the leader's flight.
        for waiter in 2..5 {
            assert_eq!(flights.find(&"a"), Some(a));
            flights.get_mut(a).unwrap().push(waiter);
        }
        assert_eq!(flights.len(), 2);
        let walked: Vec<FlightId> = flights.iter_mut().map(|(id, _)| id).collect();
        assert_eq!(walked, vec![a, b], "opening order");

        assert_eq!(flights.land(a), Some(("a", vec![0, 2, 3, 4])));
        assert_eq!(flights.land(b), Some(("b", vec![1])));
    }

    #[test]
    fn a_landed_key_opens_a_fresh_flight() {
        let mut flights: Singleflight<&str, ()> = Singleflight::new();
        let first = flights.open("a", ());
        let other = flights.open("b", ());
        assert!(flights.land(first).is_some());
        // Landed: no longer joinable, no longer addressable, landed once.
        assert_eq!(flights.find(&"a"), None);
        assert!(flights.get_mut(first).is_none());
        assert_eq!(flights.land(first), None);
        // The next miss leads a new flight under a new id; the flight that
        // stayed live throughout keeps its own.
        let second = flights.open("a", ());
        assert!(second > other && other > first);
        assert_eq!(second, FlightId(2));
        assert_eq!(flights.find(&"a"), Some(second));
        assert_eq!(flights.find(&"b"), Some(other));
    }

    /// Opens and landings interleaved, landing from the front, the middle
    /// and the back: every live flight is found by its id, the walk keeps
    /// opening order, and ids keep growing across landings.
    #[test]
    fn interleaved_opens_and_landings_keep_order_and_ids() {
        let mut flights: Singleflight<u32, u32> = Singleflight::new();
        let mut model: Vec<(FlightId, u32)> = Vec::new();
        let mut next = 0;
        for round in 0..40u32 {
            for _ in 0..3 {
                let id = flights.open(next, next * 10);
                assert_eq!(id, FlightId(usize::try_from(next).unwrap()));
                model.push((id, next));
                next += 1;
            }
            // Land one of the live flights: front, middle or back in turn.
            let at = match round % 3 {
                0 => 0,
                1 => model.len() / 2,
                _ => model.len() - 1,
            };
            let (id, key) = model.remove(at);
            assert_eq!(flights.land(id), Some((key, key * 10)));
            assert_eq!(flights.land(id), None, "landed once");
            assert!(flights.get_mut(id).is_none());
            for &(id, key) in &model {
                assert_eq!(flights.get_mut(id), Some(&mut (key * 10)));
                assert_eq!(flights.find(&key), Some(id));
            }
            let walked: Vec<FlightId> = flights.iter_mut().map(|(id, _)| id).collect();
            let expected: Vec<FlightId> = model.iter().map(|(id, _)| *id).collect();
            assert_eq!(walked, expected, "opening order, which is id order");
        }
        assert_eq!(flights.len(), 80);
    }

    #[test]
    fn empty_registry() {
        let mut flights: Singleflight<u32, ()> = Singleflight::new();
        assert_eq!(flights.len(), 0);
        assert_eq!(flights.find(&7), None);
        assert!(flights.iter_mut().next().is_none());
    }
}
