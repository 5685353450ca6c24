//! In-process backends: the upstream endpoints a runtime's pool
//! generations talk to without leaving the process.
//!
//! A real deployment would fan pool generations out to public DoH
//! resolvers over the Internet. The runtime's loopback configuration —
//! end-to-end tests, the throughput experiment, the example binary — keeps
//! the full protocol stack (secure envelope, HTTP/2, RFC 8484, DNS wire)
//! but terminates it in-process: a [`BackendNet`] maps resolver addresses
//! to [`PayloadService`] endpoints, and each shard reaches them through
//! a [`BackendExchanger`], a `Send` implementation of the
//! workspace's [`Exchanger`] transport abstraction driven by the host
//! clock instead of the simulator's virtual one.
//!
//! # Send half, collect half, and who waits
//!
//! An exchange is two steps: wait the net's round trip, then serve the
//! request **in place, on the caller's thread**. The requests of a batch
//! depart together, so the batch waits that round trip *once* and then
//! collects its replies one after the other: a generation's fan-out over N
//! resolvers is data plus one timed wait, never a thread. The two steps are
//! the two halves of the [`Exchanger`] contract: [`Exchanger::depart`] keeps
//! the requests and stamps the instant the round trip will be over,
//! [`Exchanger::arrive`] serves them. Neither waits. The wait belongs to
//! the caller: a shard's resolver keeps its departures and says when the
//! earliest is ready (`CachingPoolResolver::next_arrival`), and the shard
//! arms the runtime's timer with that instant and answers cache hits in
//! the meantime; [`Exchanger::exchange_all`] — the blocking form the
//! resolver's blocking entry points and the simulator-shaped callers use —
//! is the same two halves around one sleep.
//!
//! # The net ends at its endpoints
//!
//! An endpoint answers from what it holds. The exchanger it is handed
//! while it serves refuses every upstream call with
//! [`NetError::Unreachable`]: no endpoint waits on another, so a batch's
//! one wait is all the latency it pays, and no endpoint lock is ever taken
//! under another. Every registrant — [`LoopbackFleet`](crate::LoopbackFleet)'s
//! terminators over an authority or a poisoned resolver — calls nobody.
//! Endpoints sit behind one mutex each (never a registry-wide lock), so
//! two shards only contend when they query the *same* upstream resolver
//! at the same instant — mirroring how independent sockets to distinct
//! servers behave.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sdoh_dns_server::{Departure, ExchangeOutcome, ExchangeRequest, Exchanger, QueryHandler};
use sdoh_doh::DohServerService;
use sdoh_netsim::{ChannelKind, NetError, NetResult, SimAddr, SimInstant, SimRng};

use crate::clock::{park_for, timer_slack, RuntimeClock};

/// An endpoint reachable inside a [`BackendNet`]: takes one request
/// payload, returns the reply payload (`None` models a dropped request —
/// the caller observes [`NetError::Timeout`]).
///
/// The `exchanger` parameter is the endpoint's way upstream, and a backend
/// net has none: every call through it fails with
/// [`NetError::Unreachable`] (see "The net ends at its endpoints").
pub trait PayloadService: Send {
    /// Handles one request payload addressed to this endpoint.
    fn serve(
        &mut self,
        exchanger: &mut dyn Exchanger,
        channel: ChannelKind,
        payload: &[u8],
    ) -> Option<Vec<u8>>;

    /// Human-readable name used in diagnostics.
    fn service_name(&self) -> &str {
        "payload-service"
    }
}

/// A full RFC 8484 DoH terminator as an in-process endpoint: the loopback
/// stand-in for one public resolver of the paper's fleet.
impl<H: QueryHandler + Send> PayloadService for DohServerService<H> {
    fn serve(
        &mut self,
        exchanger: &mut dyn Exchanger,
        channel: ChannelKind,
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        self.serve_payload(exchanger, channel, payload)
    }

    fn service_name(&self) -> &str {
        "doh-server"
    }
}

struct Inner {
    endpoints: HashMap<SimAddr, Mutex<Box<dyn PayloadService>>>,
    /// Artificial round trip, waited outside any endpoint lock so it
    /// delays the caller without serializing the endpoint.
    latency: Duration,
    clock: RuntimeClock,
    /// The kernel's timer slack, which leads each wait for a round trip.
    slack: Duration,
    ids: AtomicU64,
}

/// Builder for a [`BackendNet`]: register endpoints, then freeze.
pub struct BackendNetBuilder {
    endpoints: HashMap<SimAddr, Mutex<Box<dyn PayloadService>>>,
    latency: Duration,
}

impl BackendNetBuilder {
    /// Registers `service` at `addr`, replacing any previous registration.
    pub fn register(mut self, addr: SimAddr, service: impl PayloadService + 'static) -> Self {
        self.endpoints.insert(addr, Mutex::new(Box::new(service)));
        self
    }

    /// Adds an artificial latency, emulating a network round trip: waited
    /// once per exchange or batch, before any endpoint lock is taken.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Freezes the registry into a shareable [`BackendNet`].
    pub fn build(self) -> BackendNet {
        BackendNet {
            inner: Arc::new(Inner {
                endpoints: self.endpoints,
                latency: self.latency,
                clock: RuntimeClock::new(),
                slack: timer_slack(),
                ids: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
            }),
        }
    }
}

/// The frozen, thread-safe registry of in-process endpoints. Cloning is
/// cheap (an `Arc` bump); all clones share the endpoints and the clock.
#[derive(Clone)]
pub struct BackendNet {
    inner: Arc<Inner>,
}

impl BackendNet {
    /// Starts building a backend net.
    pub fn builder() -> BackendNetBuilder {
        BackendNetBuilder {
            endpoints: HashMap::new(),
            latency: Duration::ZERO,
        }
    }

    /// Creates an exchanger sending from `source` — one per shard;
    /// the exchanger is `Send` and owns no endpoint state.
    pub fn exchanger(&self, source: SimAddr) -> BackendExchanger {
        BackendExchanger {
            net: self.clone(),
            source,
            ids: SimRng::seed_from_u64(self.inner.ids.fetch_add(0x632B_E5AB, Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for BackendNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendNet")
            .field("endpoints", &self.inner.endpoints.len())
            .field("latency", &self.inner.latency)
            .finish()
    }
}

/// A `Send` [`Exchanger`] over a [`BackendNet`]: what a runtime shard
/// hands to its `CachingPoolResolver` so generations and background
/// refreshes reach the in-process resolver fleet.
pub struct BackendExchanger {
    net: BackendNet,
    /// The address it sends from, for diagnostics.
    source: SimAddr,
    /// Transaction ids; seeded per exchanger from the net's counter, so two
    /// shards never walk the same id sequence.
    ids: SimRng,
}

impl BackendExchanger {
    /// The network half of an exchange, for a caller with nothing else to
    /// do: sleeps until `ready_at`, the end of a round trip that began one
    /// latency earlier — once, however many requests travel together — and
    /// never less: collecting early would cut the round trip short.
    fn wait_until(&self, ready_at: SimInstant) {
        let mut wait = ready_at.saturating_duration_since(self.now());
        while !wait.is_zero() {
            std::thread::sleep(park_for(wait, self.net.inner.slack, true));
            wait = ready_at.saturating_duration_since(self.now());
        }
    }

    /// When a round trip that begins now is over.
    fn round_trip_end(&self) -> SimInstant {
        self.now().saturating_add(self.net.inner.latency)
    }

    /// The endpoint half of an exchange: serves one request in place,
    /// handing the endpoint the net's end ([`NoUpstream`]).
    fn deliver(&self, dst: SimAddr, channel: ChannelKind, payload: &[u8]) -> NetResult<Vec<u8>> {
        let inner = &self.net.inner;
        let endpoint = inner
            .endpoints
            .get(&dst)
            .ok_or(NetError::Unreachable(dst))?;
        let reply = endpoint
            .lock()
            .serve(&mut NoUpstream(inner.clock), channel, payload);
        reply.ok_or(NetError::Timeout)
    }
}

impl Exchanger for BackendExchanger {
    fn exchange(
        &mut self,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        _timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.wait_until(self.round_trip_end());
        self.deliver(dst, channel, payload)
    }

    fn next_id(&mut self) -> u16 {
        self.ids.gen_u16()
    }

    fn now(&self) -> SimInstant {
        self.net.inner.clock.now()
    }

    /// Performs the batch as **one round trip**: the requests depart
    /// together, the caller waits the net's latency once and collects the
    /// replies in place — the real-transport counterpart of the simulator's
    /// overlapped fan-out: a generation over N resolvers costs one upstream
    /// round trip, not the sum, and no thread. The two halves around one
    /// sleep; a caller with better things to do than sleep calls the halves.
    fn exchange_all(&mut self, requests: Vec<ExchangeRequest>) -> Vec<ExchangeOutcome> {
        let departure = self.depart(requests);
        self.wait_until(departure.ready_at());
        self.arrive(departure)
    }

    /// The send half: the requests are on their way and can be collected
    /// one round trip from now. Returns at once.
    fn depart(&mut self, requests: Vec<ExchangeRequest>) -> Departure {
        Departure::in_flight(self.round_trip_end(), requests)
    }

    /// The collect half: serves each request in place, on this thread, in
    /// request order (= completion order, like the simulator's outcomes).
    /// It does not wait: called before [`Departure::ready_at`] it cuts the
    /// emulated round trip short, nothing worse.
    fn arrive(&mut self, departure: Departure) -> Vec<ExchangeOutcome> {
        departure.outcomes(|requests| {
            requests
                .into_iter()
                .enumerate()
                .map(|(index, request)| ExchangeOutcome {
                    index,
                    result: self.deliver(request.dst, request.channel, &request.payload),
                    completed_at: self.now(),
                })
                .collect()
        })
    }
}

impl std::fmt::Debug for BackendExchanger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendExchanger")
            .field("net", &self.net)
            .field("source", &self.source)
            .finish()
    }
}

/// The exchanger an endpoint is handed while it serves: the net's end,
/// where every upstream call is refused as unreachable.
struct NoUpstream(RuntimeClock);

impl Exchanger for NoUpstream {
    fn exchange(
        &mut self,
        dst: SimAddr,
        _channel: ChannelKind,
        _payload: &[u8],
        _timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        Err(NetError::Unreachable(dst))
    }

    fn next_id(&mut self) -> u16 {
        0
    }

    fn now(&self) -> SimInstant {
        self.0.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl PayloadService for Echo {
        fn serve(
            &mut self,
            _exchanger: &mut dyn Exchanger,
            _channel: ChannelKind,
            payload: &[u8],
        ) -> Option<Vec<u8>> {
            Some(payload.to_vec())
        }
    }

    #[test]
    fn dispatch_reaches_endpoints_and_reports_unreachable() {
        let echo_addr = SimAddr::v4(192, 0, 2, 1, 443);
        let net = BackendNet::builder().register(echo_addr, Echo).build();
        let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        let reply = exchanger
            .exchange(
                echo_addr,
                ChannelKind::Secure,
                b"ping",
                Duration::from_secs(1),
            )
            .unwrap();
        assert_eq!(reply, b"ping");
        let err = exchanger
            .exchange(
                SimAddr::v4(192, 0, 2, 9, 443),
                ChannelKind::Secure,
                b"ping",
                Duration::from_secs(1),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::Unreachable(_)));
        assert!(exchanger.now() >= SimInstant::EPOCH);
        assert_ne!(exchanger.next_id(), exchanger.next_id());
    }

    /// Calls `upstream` while it serves — once alone, then in a batch with
    /// an address nobody registered — records what the calls came to, and
    /// echoes.
    struct CallsUpstream {
        upstream: SimAddr,
        refusals: Arc<Mutex<Vec<NetResult<Vec<u8>>>>>,
    }
    impl PayloadService for CallsUpstream {
        fn serve(
            &mut self,
            exchanger: &mut dyn Exchanger,
            channel: ChannelKind,
            payload: &[u8],
        ) -> Option<Vec<u8>> {
            let alone = exchanger.exchange(self.upstream, channel, payload, Duration::ZERO);
            let batch = exchanger.exchange_all(vec![
                ExchangeRequest::new(self.upstream, channel, payload.to_vec(), Duration::ZERO),
                ExchangeRequest::new(nowhere(), channel, payload.to_vec(), Duration::ZERO),
            ]);
            let mut refusals = self.refusals.lock();
            refusals.push(alone);
            refusals.extend(batch.into_iter().map(|outcome| outcome.result));
            Some(payload.to_vec())
        }
    }

    /// An address no endpoint is registered at.
    fn nowhere() -> SimAddr {
        SimAddr::v4(192, 0, 2, 99, 443)
    }

    #[test]
    fn an_endpoint_calling_upstream_is_refused_and_its_batch_completes() {
        // One endpoint calls another of the net, one calls itself (the
        // cycle a re-entrant dispatch had to cut): both are refused as
        // unreachable, neither blocks, and the batch around them completes.
        let echo = SimAddr::v4(192, 0, 2, 1, 443);
        let caller = SimAddr::v4(192, 0, 2, 2, 443);
        let selfish = SimAddr::v4(192, 0, 2, 3, 443);
        let refusals = Arc::new(Mutex::new(Vec::new()));
        let calling = |upstream| CallsUpstream {
            upstream,
            refusals: Arc::clone(&refusals),
        };
        let net = BackendNet::builder()
            .with_latency(Duration::from_millis(1))
            .register(echo, Echo)
            .register(caller, calling(echo))
            .register(selfish, calling(selfish))
            .build();
        let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        let outcomes = exchanger.exchange_all(
            [caller, echo, selfish, nowhere()]
                .into_iter()
                .zip(1u8..)
                .map(|(dst, tag)| {
                    ExchangeRequest::new(dst, ChannelKind::Secure, vec![tag], Duration::ZERO)
                })
                .collect(),
        );
        let results: Vec<_> = outcomes.into_iter().map(|outcome| outcome.result).collect();
        assert_eq!(
            results,
            vec![
                Ok(vec![1]),
                Ok(vec![2]),
                Ok(vec![3]),
                Err(NetError::Unreachable(nowhere()))
            ]
        );
        assert_eq!(
            *refusals.lock(),
            vec![
                Err(NetError::Unreachable(echo)),
                Err(NetError::Unreachable(echo)),
                Err(NetError::Unreachable(nowhere())),
                Err(NetError::Unreachable(selfish)),
                Err(NetError::Unreachable(selfish)),
                Err(NetError::Unreachable(nowhere())),
            ],
            "every upstream call of an endpoint is refused, the rest of the batch is served"
        );
    }

    /// Echoes, and records the thread that served it.
    struct ServedOn(Arc<Mutex<Vec<std::thread::ThreadId>>>);
    impl PayloadService for ServedOn {
        fn serve(
            &mut self,
            _exchanger: &mut dyn Exchanger,
            _channel: ChannelKind,
            payload: &[u8],
        ) -> Option<Vec<u8>> {
            self.0.lock().push(std::thread::current().id());
            Some(payload.to_vec())
        }
    }

    #[test]
    fn a_batch_is_served_on_the_callers_thread_in_request_order() {
        let served_on = Arc::new(Mutex::new(Vec::new()));
        let servers: Vec<SimAddr> = (1..=5).map(|i| SimAddr::v4(192, 0, 2, i, 443)).collect();
        let mut builder = BackendNet::builder().with_latency(Duration::from_millis(1));
        for &server in &servers {
            builder = builder.register(server, ServedOn(Arc::clone(&served_on)));
        }
        let mut exchanger = builder.build().exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        let outcomes = exchanger.exchange_all(
            servers
                .iter()
                .zip(0u8..)
                .map(|(&dst, i)| {
                    ExchangeRequest::new(dst, ChannelKind::Secure, vec![i], Duration::ZERO)
                })
                .collect(),
        );
        assert_eq!(
            *served_on.lock(),
            vec![std::thread::current().id(); servers.len()],
            "every exchange of the batch runs on the caller's thread"
        );
        // Completion order is request order, each reply under its index.
        for (at, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.index, at);
            assert_eq!(outcome.result.as_deref(), Ok(&[at as u8][..]));
        }
    }

    #[test]
    fn two_departures_arrive_in_ready_order_each_waited_for_once() {
        // What a shard's pumps do with the halves: two batches leave 1 ms
        // apart over a 20 ms round trip, the caller waits for each `ready_at`
        // itself, and collecting is serving — in place, on this thread.
        const LATENCY: Duration = Duration::from_millis(20);
        let served_on = Arc::new(Mutex::new(Vec::new()));
        let echo = SimAddr::v4(192, 0, 2, 1, 443);
        let net = BackendNet::builder()
            .with_latency(LATENCY)
            .register(echo, ServedOn(Arc::clone(&served_on)))
            .build();
        let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        let request = |dst, tag: u8| {
            ExchangeRequest::new(dst, ChannelKind::Secure, vec![tag], Duration::ZERO)
        };

        // Judged by the clock values the halves themselves produce, so a
        // stalled host can only make the waits shorter, never fail them.
        let started = std::time::Instant::now();
        let first = exchanger.depart(vec![request(echo, 1), request(echo, 2)]);
        let departing = started.elapsed();
        std::thread::sleep(Duration::from_millis(1));
        let second = exchanger.depart(vec![request(echo, 3)]);
        assert!(
            departing < LATENCY,
            "departing does not wait: {departing:?}"
        );
        assert!(
            second.ready_at() >= first.ready_at().saturating_add(Duration::from_millis(1)),
            "each stamped one round trip after it left"
        );
        assert!(
            served_on.lock().is_empty(),
            "nothing is served before arrive"
        );

        // The caller's wait, once per departure, in `ready_at` order.
        let (mut waits, mut replies) = (Vec::new(), Vec::new());
        for departure in [first, second] {
            let wait = departure
                .ready_at()
                .saturating_duration_since(exchanger.now());
            std::thread::sleep(wait);
            waits.push(wait);
            let arriving = std::time::Instant::now();
            replies.push(exchanger.arrive(departure));
            let arriving = arriving.elapsed();
            assert!(
                arriving < LATENCY,
                "arriving does not wait again: {arriving:?}"
            );
        }
        assert!(started.elapsed() >= LATENCY);
        assert!(
            waits[1] < LATENCY / 2,
            "the second round trip overlapped the first: waits {waits:?}"
        );
        assert_eq!(replies[0][0].result.as_deref(), Ok(&[1u8][..]));
        assert_eq!(replies[0][1].result.as_deref(), Ok(&[2u8][..]));
        assert_eq!(replies[1][0].result.as_deref(), Ok(&[3u8][..]));
        assert_eq!(
            *served_on.lock(),
            vec![std::thread::current().id(); 3],
            "every request was served on the caller's thread"
        );
    }

    /// An endpoint that records when, on the net's clock, it served.
    struct ServedAt(Arc<Mutex<Vec<SimInstant>>>);
    impl PayloadService for ServedAt {
        fn serve(
            &mut self,
            exchanger: &mut dyn Exchanger,
            _channel: ChannelKind,
            payload: &[u8],
        ) -> Option<Vec<u8>> {
            self.0.lock().push(exchanger.now());
            Some(payload.to_vec())
        }
    }

    /// The blocking batch's sleeps are led by the timer slack, and still
    /// none ends before its round trip is over: over many 2 ms round trips,
    /// `wait_until` returns no earlier than the `ready_at` it was handed,
    /// and `exchange_all` serves no request before one round trip after it
    /// was called.
    #[test]
    fn a_blocking_batch_is_never_collected_before_its_round_trip_is_over() {
        const LATENCY: Duration = Duration::from_millis(2);
        let served_at = Arc::new(Mutex::new(Vec::new()));
        let echo = SimAddr::v4(192, 0, 2, 1, 443);
        let net = BackendNet::builder()
            .with_latency(LATENCY)
            .register(echo, ServedAt(Arc::clone(&served_at)))
            .build();
        let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        let request = || ExchangeRequest::new(echo, ChannelKind::Secure, vec![1], Duration::ZERO);
        for _ in 0..25 {
            let departure = exchanger.depart(vec![request()]);
            exchanger.wait_until(departure.ready_at());
            let early = departure
                .ready_at()
                .saturating_duration_since(exchanger.now());
            assert!(early.is_zero(), "woke {early:?} before its ready_at");
            exchanger.arrive(departure);

            let asked = exchanger.now();
            assert!(exchanger.exchange_all(vec![request()])[0].result.is_ok());
            let served = served_at.lock().pop().expect("served");
            let early = asked
                .saturating_add(LATENCY)
                .saturating_duration_since(served);
            assert!(
                early.is_zero(),
                "served {early:?} before its round trip was over"
            );
        }
    }

    #[test]
    fn exchange_all_overlaps_upstream_latency() {
        let servers: Vec<SimAddr> = (1..=3).map(|i| SimAddr::v4(192, 0, 2, i, 443)).collect();
        let mut builder = BackendNet::builder().with_latency(Duration::from_millis(30));
        for &server in &servers {
            builder = builder.register(server, Echo);
        }
        let net = builder.build();
        let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        // Judged against the same three exchanges issued one after the
        // other in the same run — a slow host stretches both sides — and
        // over a few rounds, so one scheduling stall cannot fail it.
        let mut rounds = Vec::new();
        for _ in 0..3 {
            let started = std::time::Instant::now();
            let outcomes = exchanger.exchange_all(
                servers
                    .iter()
                    .map(|&dst| {
                        ExchangeRequest::new(
                            dst,
                            ChannelKind::Secure,
                            b"q".to_vec(),
                            Duration::ZERO,
                        )
                    })
                    .collect(),
            );
            let overlapped = started.elapsed();
            assert_eq!(outcomes.len(), 3);
            assert!(outcomes.iter().all(|o| o.result.is_ok()));

            let started = std::time::Instant::now();
            for &dst in &servers {
                exchanger
                    .exchange(dst, ChannelKind::Secure, b"q", Duration::ZERO)
                    .unwrap();
            }
            let sequential = started.elapsed();
            rounds.push((overlapped, sequential));
            // Three concurrent 30 ms round trips cost ~30 ms, not ~90 ms.
            if overlapped.as_secs_f64() < 0.6 * sequential.as_secs_f64() {
                return;
            }
        }
        panic!("upstream latency never overlapped; (overlapped, sequential) per round: {rounds:?}");
    }

    #[test]
    fn exchangers_cross_threads() {
        let echo = SimAddr::v4(192, 0, 2, 1, 443);
        let net = BackendNet::builder().register(echo, Echo).build();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, i, 40000));
                std::thread::spawn(move || {
                    exchanger
                        .exchange(echo, ChannelKind::Secure, &[i], Duration::from_secs(1))
                        .unwrap()
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.join().unwrap(), vec![i as u8]);
        }
    }
}
