//! The [`Exchanger`] abstraction: how a resolver component sends a request
//! payload and waits for the response, independent of whether it runs
//! "outside" the simulation (driven by an experiment) or "inside" a service
//! handler (driven by another query).
//!
//! Besides the one-at-a-time [`Exchanger::exchange`], the trait offers
//! [`Exchanger::exchange_all`]: a batch of independent exchanges that a
//! capable transport performs **overlapped**: the requests depart together
//! and the batch is waited for once, so it costs the slowest exchange's
//! latency, not the sum — one wait, never one thread per request. Both
//! simulator-backed exchangers — [`ClientExchanger`] for experiment drivers
//! and [`sdoh_netsim::Ctx`] for code inside a service handler — fan batches
//! out through [`sdoh_netsim::SimNet::transact_concurrent`]; the default
//! implementation falls back to driving the batch sequentially so that any
//! custom exchanger keeps working unchanged.
//!
//! A batch also comes in two halves, for a caller with something better to
//! do than wait: [`Exchanger::depart`] sends it and hands back a
//! [`Departure`] saying when the replies can be collected, and
//! [`Exchanger::arrive`] collects them. Both default to
//! [`Exchanger::exchange_all`] — depart performs the whole batch, arrive
//! hands over what it brought back — so only a transport whose wait is real
//! time (the runtime's loopback backend) implements them, and every other
//! exchanger behaves exactly as it does through `exchange_all`.

use std::time::Duration;

use sdoh_netsim::{ChannelKind, Ctx, NetResult, SimAddr, SimInstant, SimNet};

/// One request of a batch handed to [`Exchanger::exchange_all`] — the
/// simulator's batch-request type, re-exported under the exchange
/// vocabulary.
pub use sdoh_netsim::ConcurrentRequest as ExchangeRequest;

/// Outcome of one exchange of a batch, in delivery order — the simulator's
/// batch-outcome type, re-exported under the exchange vocabulary.
pub use sdoh_netsim::ConcurrentOutcome as ExchangeOutcome;

/// A batch between its two halves: what [`Exchanger::depart`] hands back
/// and [`Exchanger::arrive`] consumes.
#[derive(Debug)]
pub struct Departure {
    ready_at: SimInstant,
    cargo: Cargo,
}

#[derive(Debug)]
enum Cargo {
    /// Sent, not collected yet.
    Requests(Vec<ExchangeRequest>),
    /// Already exchanged: the transport does not split its batches.
    Outcomes(Vec<ExchangeOutcome>),
}

impl Departure {
    /// A batch on its way whose replies can be collected from `ready_at`.
    pub fn in_flight(ready_at: SimInstant, requests: Vec<ExchangeRequest>) -> Self {
        Departure {
            ready_at,
            cargo: Cargo::Requests(requests),
        }
    }

    /// A batch that was exchanged on the spot, complete at `at`.
    pub fn arrived(at: SimInstant, outcomes: Vec<ExchangeOutcome>) -> Self {
        Departure {
            ready_at: at,
            cargo: Cargo::Outcomes(outcomes),
        }
    }

    /// The instant from which the replies can be collected with
    /// [`Exchanger::arrive`].
    pub fn ready_at(&self) -> SimInstant {
        self.ready_at
    }

    /// The outcomes: the ones the batch already carries, or what `collect`
    /// makes of its requests.
    pub fn outcomes(
        self,
        collect: impl FnOnce(Vec<ExchangeRequest>) -> Vec<ExchangeOutcome>,
    ) -> Vec<ExchangeOutcome> {
        match self.cargo {
            Cargo::Requests(requests) => collect(requests),
            Cargo::Outcomes(outcomes) => outcomes,
        }
    }
}

/// Anything able to perform a request/response exchange with an endpoint.
pub trait Exchanger {
    /// Sends `payload` to `dst` over a channel of kind `channel` and returns
    /// the response payload.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (timeouts, unreachable endpoints,
    /// partitions).
    fn exchange(
        &mut self,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>>;

    /// Like [`Exchanger::exchange`], but departing from the given
    /// **ephemeral source port** instead of the exchanger's default source.
    ///
    /// Source-port randomization is one of the classical defenses against
    /// off-path response forgery: each upstream query departing from a
    /// fresh port adds 16 bits the attacker must guess. The default
    /// implementation ignores the port and delegates to
    /// [`Exchanger::exchange`] — correct for transports where the source
    /// port is not attacker-guessable (authenticated channels, loopback
    /// backends); the simulator-backed exchangers override it so the
    /// port becomes visible to (and raceable by) the network adversary.
    ///
    /// # Errors
    ///
    /// Same as [`Exchanger::exchange`].
    fn exchange_from_port(
        &mut self,
        src_port: u16,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        let _ = src_port;
        self.exchange(dst, channel, payload, timeout)
    }

    /// Draws a fresh 16-bit identifier from the simulation randomness.
    fn next_id(&mut self) -> u16;

    /// Current virtual time as seen by this exchanger.
    fn now(&self) -> SimInstant;

    /// Performs a batch of independent exchanges, returning the outcomes in
    /// delivery order.
    ///
    /// Transports that can have several requests in flight overlap them: the
    /// batch costs the slowest exchange, not the sum. "Overlapped" means **one
    /// wait per batch** on the caller's thread — the simulator advances its
    /// clock once, the runtime's loopback transport sleeps one round trip and
    /// collects each reply in place — never one thread per request. This
    /// default keeps the one-at-a-time behaviour for exchangers without one.
    fn exchange_all(&mut self, requests: Vec<ExchangeRequest>) -> Vec<ExchangeOutcome> {
        requests
            .into_iter()
            .enumerate()
            .map(|(index, request)| {
                let result = self.exchange(
                    request.dst,
                    request.channel,
                    &request.payload,
                    request.timeout,
                );
                ExchangeOutcome {
                    index,
                    completed_at: self.now(),
                    result,
                }
            })
            .collect()
    }

    /// The send half of a batch: puts `requests` on the wire and returns at
    /// once with the [`Departure`] to collect them with — for a caller that
    /// owns its waiting, like a shard that answers cache hits while its
    /// generations are upstream. The caller waits (or does other work) until
    /// [`Departure::ready_at`] and then calls [`Exchanger::arrive`].
    ///
    /// The default performs the whole batch here, through
    /// [`Exchanger::exchange_all`], and is ready immediately: the simulator
    /// waits by advancing its clock inside the exchange, so there is nothing
    /// to hand back early, and an exchanger that knows nothing of the halves
    /// keeps its one code path.
    fn depart(&mut self, requests: Vec<ExchangeRequest>) -> Departure {
        let outcomes = self.exchange_all(requests);
        Departure::arrived(self.now(), outcomes)
    }

    /// The collect half: the outcomes of `departure`, in delivery order.
    /// It does not wait — the caller let [`Departure::ready_at`] pass, and
    /// the default has nothing left to wait for anyway.
    fn arrive(&mut self, departure: Departure) -> Vec<ExchangeOutcome> {
        departure.outcomes(|requests| self.exchange_all(requests))
    }
}

/// An [`Exchanger`] for code running outside any service: an experiment
/// driver or an example binary acting as "the application host".
#[derive(Debug, Clone, Copy)]
pub struct ClientExchanger<'a> {
    net: &'a SimNet,
    source: SimAddr,
}

impl<'a> ClientExchanger<'a> {
    /// Creates an exchanger that sends from `source`.
    pub fn new(net: &'a SimNet, source: SimAddr) -> Self {
        ClientExchanger { net, source }
    }
}

impl Exchanger for ClientExchanger<'_> {
    fn exchange(
        &mut self,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.net
            .transact(self.source, dst, channel, payload, timeout)
    }

    fn exchange_from_port(
        &mut self,
        src_port: u16,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.net.transact(
            self.source.with_port(src_port),
            dst,
            channel,
            payload,
            timeout,
        )
    }

    fn next_id(&mut self) -> u16 {
        self.net.random_id()
    }

    fn now(&self) -> SimInstant {
        self.net.now()
    }

    fn exchange_all(&mut self, requests: Vec<ExchangeRequest>) -> Vec<ExchangeOutcome> {
        self.net.transact_concurrent(self.source, requests)
    }
}

impl Exchanger for Ctx<'_> {
    fn exchange(
        &mut self,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.call(dst, channel, payload, timeout)
    }

    fn exchange_from_port(
        &mut self,
        src_port: u16,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.call_from_port(src_port, dst, channel, payload, timeout)
    }

    fn next_id(&mut self) -> u16 {
        self.random_id()
    }

    fn now(&self) -> SimInstant {
        Ctx::now(self)
    }

    fn exchange_all(&mut self, requests: Vec<ExchangeRequest>) -> Vec<ExchangeOutcome> {
        self.call_concurrent(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_netsim::{FnService, LinkConfig, ServiceResponse};

    #[test]
    fn client_exchanger_roundtrips() {
        let net = SimNet::new(5);
        let server = SimAddr::v4(192, 0, 2, 1, 53);
        net.register(
            server,
            FnService::new("echo", |_ctx, _from, _ch, p: &[u8]| {
                ServiceResponse::Reply(p.to_vec())
            }),
        );
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let reply = exchanger
            .exchange(server, ChannelKind::Plain, b"ping", Duration::from_secs(1))
            .unwrap();
        assert_eq!(reply, b"ping");
        let _ = exchanger.next_id();
        assert!(exchanger.now() > SimInstant::EPOCH);
    }

    #[test]
    fn ctx_exchanger_used_from_within_service() {
        let net = SimNet::new(6);
        let backend = SimAddr::v4(192, 0, 2, 2, 53);
        let frontend = SimAddr::v4(192, 0, 2, 3, 53);
        net.register(
            backend,
            FnService::new("echo", |_ctx, _from, _ch, p: &[u8]| {
                ServiceResponse::Reply(p.to_vec())
            }),
        );
        net.register(
            frontend,
            FnService::new("fwd", move |ctx: &mut Ctx<'_>, _from, ch, p: &[u8]| {
                let mut payload = p.to_vec();
                payload.extend_from_slice(b"-forwarded");
                match ctx.exchange(backend, ch, &payload, Duration::from_secs(1)) {
                    Ok(reply) => ServiceResponse::Reply(reply),
                    Err(_) => ServiceResponse::NoReply,
                }
            }),
        );
        let reply = net
            .transact(
                SimAddr::v4(10, 0, 0, 1, 40000),
                frontend,
                ChannelKind::Plain,
                b"hi",
                Duration::from_secs(1),
            )
            .unwrap();
        assert_eq!(reply, b"hi-forwarded");
    }

    #[test]
    fn client_exchanger_batch_overlaps_in_time() {
        let net = SimNet::new(7);
        let client = SimAddr::v4(10, 0, 0, 1, 40000);
        let servers: Vec<SimAddr> = (1..=3).map(|i| SimAddr::v4(192, 0, 2, i, 53)).collect();
        for &server in &servers {
            net.register(
                server,
                FnService::new("echo", |_ctx, _from, _ch, p: &[u8]| {
                    ServiceResponse::Reply(p.to_vec())
                }),
            );
            net.set_link(
                client.ip,
                server.ip,
                LinkConfig::with_latency(Duration::from_millis(25)),
            );
        }
        let mut exchanger = ClientExchanger::new(&net, client);
        let t0 = exchanger.now();
        let outcomes = exchanger.exchange_all(
            servers
                .iter()
                .map(|&dst| {
                    ExchangeRequest::new(
                        dst,
                        ChannelKind::Secure,
                        b"q".to_vec(),
                        Duration::from_secs(1),
                    )
                })
                .collect(),
        );
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        // Three concurrent 50 ms round trips cost 50 ms, not 150 ms.
        assert_eq!(
            exchanger.now().saturating_duration_since(t0),
            Duration::from_millis(50)
        );
    }

    /// A minimal custom exchanger: nothing but the required methods, one
    /// tick of its clock per exchange.
    struct Loopback(u64);
    impl Exchanger for Loopback {
        fn exchange(
            &mut self,
            _dst: SimAddr,
            _channel: ChannelKind,
            payload: &[u8],
            _timeout: Duration,
        ) -> NetResult<Vec<u8>> {
            self.0 += 1;
            Ok(payload.to_vec())
        }

        fn next_id(&mut self) -> u16 {
            7
        }

        fn now(&self) -> SimInstant {
            SimInstant::from_nanos(self.0)
        }
    }

    fn two_requests() -> Vec<ExchangeRequest> {
        vec![
            ExchangeRequest::new(
                SimAddr::v4(1, 1, 1, 1, 53),
                ChannelKind::Plain,
                b"a".to_vec(),
                Duration::from_secs(1),
            ),
            ExchangeRequest::new(
                SimAddr::v4(2, 2, 2, 2, 53),
                ChannelKind::Plain,
                b"b".to_vec(),
                Duration::from_secs(1),
            ),
        ]
    }

    #[test]
    fn default_exchange_all_is_sequential() {
        let mut exchanger = Loopback(0);
        let outcomes = exchanger.exchange_all(two_requests());
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].index, 0);
        assert_eq!(outcomes[1].index, 1);
        assert_eq!(outcomes[1].result.as_deref().unwrap(), b"b");
        // Sequential fallback: the second completion is strictly later.
        assert!(outcomes[1].completed_at > outcomes[0].completed_at);
    }

    #[test]
    fn default_halves_compose_to_exchange_all() {
        let mut whole = Loopback(0);
        let expected = whole.exchange_all(two_requests());

        // depart does the batch and is ready at once; arrive adds nothing.
        let mut halves = Loopback(0);
        let departure = halves.depart(two_requests());
        assert_eq!(halves.0, 2, "the default depart performed both exchanges");
        assert_eq!(departure.ready_at(), halves.now());
        let outcomes = halves.arrive(departure);
        assert_eq!(halves.0, 2, "nothing was exchanged twice");
        assert_eq!(outcomes.len(), expected.len());
        for (got, want) in outcomes.iter().zip(&expected) {
            assert_eq!(got.index, want.index);
            assert_eq!(got.completed_at, want.completed_at);
            assert_eq!(got.result, want.result);
        }

        // A batch that really is in flight is exchanged when it arrives.
        let departure = Departure::in_flight(SimInstant::from_nanos(9), two_requests());
        assert_eq!(departure.ready_at(), SimInstant::from_nanos(9));
        let outcomes = halves.arrive(departure);
        assert_eq!(halves.0, 4);
        assert_eq!(outcomes[1].result.as_deref().unwrap(), b"b");
    }
}
