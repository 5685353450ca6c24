//! The sans-IO serving session: several pool generations in one fan-out.
//!
//! A [`ServeSession`] bundles the [`PoolSession`]s of every key a serving
//! batch needs to (re)generate — cache misses coalesced by
//! [`Singleflight`](super::Singleflight) plus due background refreshes —
//! behind one poll loop. Like the underlying session it performs no I/O:
//! [`ServeSession::poll`] hands out **all transmits of all flights** before
//! first asking to wait, so its driver overlaps not only the N
//! resolver exchanges of one generation but the exchanges of *different
//! domains' generations* with each other: a cold burst over K domains costs
//! one slowest-exchange round trip, not K of them.
//!
//! [`drive_serve`] is the ready-made driver, batching everything through
//! [`Exchanger::exchange_all`] exactly like [`crate::drive`] does for a
//! single session.

use std::mem;

use sdoh_dns_server::{ExchangeRequest, Exchanger};
use sdoh_netsim::{NetResult, SimInstant};

use super::cache::PoolKey;
use crate::error::{PoolError, PoolResult};
use crate::generator::{GenerationReport, SecurePoolGenerator};
use crate::session::{Action, PoolSession, SessionEvent, TransactionId, Transmit};

/// Identifies one in-flight exchange of a serving session (a flight index
/// plus the flight's own transaction id, flattened into one handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct ServeTransactionId(usize);

/// One request a serving driver must put on the wire.
#[derive(Debug)]
pub(crate) struct ServeTransmit {
    /// Echo this back to [`ServeSession::handle_response`].
    pub(crate) transaction: ServeTransactionId,
    /// Destination, channel, payload and timeout of the exchange.
    pub(crate) request: ExchangeRequest,
}

/// A per-resolver progress event, tagged with the flight it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ServeEvent {
    /// The cache key whose generation progressed.
    pub(crate) key: PoolKey,
    /// The underlying session event.
    pub(crate) event: SessionEvent,
}

/// What a serving driver should do next.
#[derive(Debug)]
pub(crate) enum ServeAction {
    /// Send this request.
    Transmit(ServeTransmit),
    /// Everything is in flight; feed the outcomes back through
    /// [`ServeSession::handle_response`] (each exchange carries its own
    /// timeout, so an outcome always arrives).
    Wait,
    /// A resolver of one flight completed; informational.
    Deliver(ServeEvent),
    /// Every flight completed; call [`ServeSession::finish`].
    Done,
}

/// Result of one flight after [`ServeSession::finish`].
#[derive(Debug)]
pub(crate) struct FlightOutcome {
    /// The cache key the flight generated.
    pub(crate) key: PoolKey,
    /// The generation outcome.
    pub(crate) result: PoolResult<GenerationReport>,
}

struct Flight<'a> {
    key: PoolKey,
    session: PoolSession<'a>,
}

/// Sans-IO state machine bundling the generations of a serving batch.
///
/// See the module documentation for the driving protocol.
pub(crate) struct ServeSession<'a> {
    flights: Vec<Flight<'a>>,
    /// Flat transaction routing: global id -> (flight, inner id).
    routes: Vec<(usize, TransactionId)>,
}

impl<'a> ServeSession<'a> {
    /// Plans one generation per `(key, seed)` pair over `generator`'s
    /// resolver set. An empty batch is valid and completes immediately.
    ///
    /// # Errors
    ///
    /// Propagates [`PoolError`] from session construction.
    pub(crate) fn new(
        generator: &'a SecurePoolGenerator,
        batch: Vec<(PoolKey, u64)>,
    ) -> PoolResult<Self> {
        let mut flights = Vec::with_capacity(batch.len());
        for (key, seed) in batch {
            let session = generator.session(&key.domain, seed)?;
            flights.push(Flight { key, session });
        }
        Ok(ServeSession {
            flights,
            routes: Vec::new(), // sdoh-lint: allow(hot-path-purity, "an empty Vec::new never allocates")
        })
    }

    /// Advances the state machine; `now` stamps transmit deadlines.
    ///
    /// Transmits of *all* flights are handed out before the first
    /// [`ServeAction::Wait`], so a driver batching them overlaps the
    /// generations of different keys.
    pub(crate) fn poll(&mut self, now: SimInstant) -> ServeAction {
        let mut waiting = false;
        for (index, flight) in self.flights.iter_mut().enumerate() {
            match flight.session.poll(now) {
                Action::Deliver(event) => {
                    return ServeAction::Deliver(ServeEvent {
                        key: flight.key.clone(),
                        event,
                    });
                }
                Action::Transmit(Transmit {
                    transaction,
                    request,
                    ..
                }) => {
                    let global = ServeTransactionId(self.routes.len());
                    self.routes.push((index, transaction));
                    return ServeAction::Transmit(ServeTransmit {
                        transaction: global,
                        request,
                    });
                }
                Action::WaitUntil(_) => waiting = true,
                Action::Done => {}
            }
        }
        if waiting {
            ServeAction::Wait
        } else {
            ServeAction::Done
        }
    }

    /// Feeds the transport outcome of `id` back to the flight it belongs
    /// to. Outcomes may arrive in any order across flights.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownTransaction`] when `id` is unknown,
    /// [`PoolError::UnknownFlight`] when its route is stale, and the inner
    /// session's error when the exchange already completed.
    pub(crate) fn handle_response(
        &mut self,
        id: ServeTransactionId,
        outcome: NetResult<Vec<u8>>,
    ) -> PoolResult<()> {
        let &(flight, inner) = self
            .routes
            .get(id.0)
            .ok_or(PoolError::UnknownTransaction(id.0))?;
        let entry = self
            .flights
            .get_mut(flight)
            .ok_or(PoolError::UnknownFlight(flight))?;
        entry.session.handle_response(inner, outcome)
    }

    /// Completes every flight, returning the per-key outcomes in batch
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Session`] when exchanges are still outstanding
    /// (per-flight generation failures are reported inside the outcomes,
    /// not here).
    pub(crate) fn finish(self) -> PoolResult<Vec<FlightOutcome>> {
        let mut outcomes = Vec::with_capacity(self.flights.len());
        for flight in self.flights {
            if !flight.session.is_done() {
                // sdoh-lint: allow(hot-path-purity, "error formatting happens on the failure path only")
                return Err(PoolError::Session(format!(
                    "finish() called with exchanges of {} outstanding",
                    flight.key
                )));
            }
            outcomes.push(FlightOutcome {
                key: flight.key,
                result: flight.session.finish(),
            });
        }
        Ok(outcomes)
    }
}

impl std::fmt::Debug for ServeSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSession")
            .field("flights", &self.flights.len())
            .field("routes", &self.routes.len())
            .finish()
    }
}

/// Drives a serving session to completion with the transmits of **all
/// flights overlapped** through one [`Exchanger::exchange_all`] batch per
/// wait point, and returns the delivered [`ServeEvent`]s.
///
/// # Errors
///
/// Propagates [`PoolError`] from the session (transport errors are folded
/// into per-source outcomes, not returned here).
pub(crate) fn drive_serve(
    session: &mut ServeSession<'_>,
    exchanger: &mut dyn Exchanger,
) -> PoolResult<Vec<ServeEvent>> {
    // sdoh-lint: allow(hot-path-purity, "an empty Vec::new never allocates")
    let mut events: Vec<ServeEvent> = Vec::new();
    // sdoh-lint: allow(hot-path-purity, "an empty Vec::new never allocates")
    let mut ids: Vec<ServeTransactionId> = Vec::new();
    // sdoh-lint: allow(hot-path-purity, "an empty Vec::new never allocates")
    let mut requests: Vec<ExchangeRequest> = Vec::new();
    loop {
        match session.poll(exchanger.now()) {
            ServeAction::Deliver(event) => events.push(event),
            ServeAction::Transmit(transmit) => {
                ids.push(transmit.transaction);
                requests.push(transmit.request);
            }
            ServeAction::Wait => {
                if requests.is_empty() {
                    return Err(PoolError::Session(
                        "serve session waits on exchanges this driver never sent".into(),
                    ));
                }
                let outcomes = exchanger.exchange_all(mem::take(&mut requests));
                let batch_ids = mem::take(&mut ids);
                for outcome in outcomes {
                    let id = batch_ids.get(outcome.index).copied().ok_or_else(|| {
                        PoolError::Session("exchange outcome for an unsent request".into())
                    })?;
                    session.handle_response(id, outcome.result)?;
                }
            }
            ServeAction::Done => return Ok(events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use crate::serve::cache::AddressFamily;
    use crate::source::{AddressSource, StaticSource};
    use sdoh_dns_server::ClientExchanger;
    use sdoh_doh::{DohMethod, DohServerService, ResolverDirectory};
    use sdoh_netsim::{SimAddr, SimNet};

    fn ip(last: u8) -> std::net::IpAddr {
        format!("203.0.113.{last}").parse().unwrap()
    }

    fn key(domain: &str) -> PoolKey {
        PoolKey::new(domain.parse().unwrap(), AddressFamily::V4)
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let sources: Vec<Box<dyn AddressSource>> =
            vec![Box::new(StaticSource::answering("r1", vec![ip(1)]))];
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut session = ServeSession::new(&generator, Vec::new()).unwrap();
        assert!(matches!(session.poll(SimInstant::EPOCH), ServeAction::Done));
        assert!(session.finish().unwrap().is_empty());
    }

    #[test]
    fn static_flights_deliver_then_complete() {
        let sources: Vec<Box<dyn AddressSource>> = vec![
            Box::new(StaticSource::answering("r1", vec![ip(1), ip(2)])),
            Box::new(StaticSource::answering("r2", vec![ip(3), ip(4)])),
        ];
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut session =
            ServeSession::new(&generator, vec![(key("a.test"), 1), (key("b.test"), 2)]).unwrap();
        let mut exchanger_free_events = 0;
        loop {
            match session.poll(SimInstant::EPOCH) {
                ServeAction::Deliver(event) => {
                    exchanger_free_events += 1;
                    assert!(matches!(event.event, SessionEvent::SourceAnswered { .. }));
                }
                ServeAction::Done => break,
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(exchanger_free_events, 4, "2 flights x 2 sources");
        let outcomes = session.finish().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].key, key("a.test"));
        assert_eq!(outcomes[0].result.as_ref().unwrap().pool.len(), 4);
    }

    #[test]
    fn doh_flights_hand_out_all_transmits_before_waiting() {
        // Two domains over three DoH resolvers: all six exchanges must be
        // offered before the first Wait, so one batch overlaps the two
        // generations.
        let net = SimNet::new(41);
        let directory = ResolverDirectory::well_known(41);
        let infos = directory.take(3);
        let mut zone = sdoh_dns_server::Zone::new("test".parse().unwrap());
        for domain in ["a.test", "b.test"] {
            for i in 1..=2u8 {
                zone.add_address(domain.parse().unwrap(), ip(i));
            }
        }
        let mut catalog = sdoh_dns_server::Catalog::new();
        catalog.add_zone(zone);
        for info in &infos {
            net.register(
                info.addr,
                DohServerService::new(
                    info.clone(),
                    sdoh_dns_server::Authority::new(catalog.clone()),
                ),
            );
        }
        let sources: Vec<Box<dyn AddressSource>> = infos
            .iter()
            .map(|info| {
                Box::new(crate::source::DohSource::new(info.clone()).method(DohMethod::Get))
                    as Box<dyn AddressSource>
            })
            .collect();
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut session =
            ServeSession::new(&generator, vec![(key("a.test"), 7), (key("b.test"), 8)]).unwrap();

        let mut transmits = Vec::new();
        loop {
            match session.poll(net.now()) {
                ServeAction::Transmit(t) => transmits.push(t),
                ServeAction::Wait => break,
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(transmits.len(), 6, "2 flights x 3 resolvers");
        assert_eq!(
            session
                .routes
                .iter()
                .filter(|(flight, _)| *flight == 0)
                .count(),
            3,
            "half of them route to the first flight"
        );

        // Feed responses back across flights in reverse order; both reports
        // must come out right regardless.
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        for t in transmits.into_iter().rev() {
            let reply = exchanger
                .exchange(
                    t.request.dst,
                    t.request.channel,
                    &t.request.payload,
                    t.request.timeout,
                )
                .unwrap();
            session.handle_response(t.transaction, Ok(reply)).unwrap();
        }
        while let ServeAction::Deliver(_) = session.poll(net.now()) {}
        let outcomes = session.finish().unwrap();
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            assert_eq!(outcome.result.as_ref().unwrap().pool.len(), 6);
        }
    }

    #[test]
    fn drive_serve_batches_across_flights() {
        let net = SimNet::new(42);
        let directory = ResolverDirectory::well_known(42);
        let infos = directory.take(2);
        let mut zone = sdoh_dns_server::Zone::new("test".parse().unwrap());
        zone.add_address("a.test".parse().unwrap(), ip(1));
        zone.add_address("b.test".parse().unwrap(), ip(2));
        let mut catalog = sdoh_dns_server::Catalog::new();
        catalog.add_zone(zone);
        for info in &infos {
            net.register(
                info.addr,
                DohServerService::new(
                    info.clone(),
                    sdoh_dns_server::Authority::new(catalog.clone()),
                ),
            );
        }
        let sources: Vec<Box<dyn AddressSource>> = infos
            .iter()
            .map(|info| {
                Box::new(crate::source::DohSource::new(info.clone()).method(DohMethod::Get))
                    as Box<dyn AddressSource>
            })
            .collect();
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut session =
            ServeSession::new(&generator, vec![(key("a.test"), 1), (key("b.test"), 2)]).unwrap();
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let t0 = exchanger.now();
        let events = drive_serve(&mut session, &mut exchanger).unwrap();
        let elapsed = exchanger.now().saturating_duration_since(t0);
        assert_eq!(events.len(), 4, "2 flights x 2 resolvers");
        let outcomes = session.finish().unwrap();
        assert_eq!(outcomes.len(), 2);
        // Overlapped: two generations cost one batch, which is well under
        // the four sequential round trips they contain.
        let single_flight_budget = std::time::Duration::from_millis(500);
        assert!(elapsed < single_flight_budget, "elapsed {elapsed:?}");
    }

    #[test]
    fn misuse_is_reported_not_panicking() {
        let sources: Vec<Box<dyn AddressSource>> =
            vec![Box::new(StaticSource::answering("r1", vec![ip(1)]))];
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut session = ServeSession::new(&generator, vec![(key("a.test"), 1)]).unwrap();
        let err = session
            .handle_response(ServeTransactionId(99), Ok(Vec::new()))
            .unwrap_err();
        assert_eq!(err, PoolError::UnknownTransaction(99));
    }
}
