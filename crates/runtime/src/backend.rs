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
//! the caller: a shard arms the runtime's timer with the earliest
//! `ready_at` of its departures and answers cache hits in the meantime; [`Exchanger::exchange_all`] — the blocking form, which
//! nested endpoints and the simulator-shaped callers use — is the same two
//! halves around one sleep. What that gives up is overlap *below* a batch
//! — an endpoint that made a latency-bearing upstream call while serving
//! would have those waits summed across the batch — and nothing in tree
//! nests one: [`BackendNetBuilder::with_latency`] has one caller,
//! [`LoopbackFleet`](crate::LoopbackFleet), whose endpoints answer from an
//! authoritative zone and call nobody.
//!
//! Endpoints sit behind one mutex each (never a registry-wide lock), so
//! two shards only contend when they query the *same* upstream resolver
//! at the same instant — mirroring how independent sockets to distinct
//! servers behave. The mutexes are not re-entrant, so an exchanger carries
//! the chain of endpoints being served above it and refuses to re-enter one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sdoh_dns_server::{Departure, ExchangeOutcome, ExchangeRequest, Exchanger, QueryHandler};
use sdoh_doh::DohServerService;
use sdoh_netsim::{ChannelKind, NetError, NetResult, SimAddr, SimInstant};

use crate::clock::RuntimeClock;

/// Nested-dispatch ceiling mirroring the simulator's routing-loop guard.
const MAX_DEPTH: usize = 8;

/// An endpoint reachable inside a [`BackendNet`]: takes one request
/// payload, returns the reply payload (`None` models a dropped request —
/// the caller observes [`NetError::Timeout`]).
///
/// The `exchanger` parameter lets an endpoint make upstream calls of its
/// own through the same backend net (a recursive resolver behind a DoH
/// terminator, for instance).
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

    /// The wall clock shared by every exchanger of this net.
    pub fn clock(&self) -> RuntimeClock {
        self.inner.clock
    }

    /// Creates an exchanger sending from `source` — one per shard;
    /// the exchanger is `Send` and owns no endpoint state.
    pub fn exchanger(&self, source: SimAddr) -> BackendExchanger {
        BackendExchanger {
            net: self.clone(),
            chain: [source; MAX_DEPTH],
            depth: 0,
            id_state: self.inner.ids.fetch_add(0x632B_E5AB, Ordering::Relaxed) | 1,
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
    /// The endpoints being served above this exchanger, outermost first in
    /// `chain[..depth]` — the re-entry detector that keeps a dispatch cycle
    /// from deadlocking on an endpoint mutex its own caller holds.
    chain: [SimAddr; MAX_DEPTH],
    depth: usize,
    /// xorshift state for transaction ids; seeded per exchanger so two
    /// shards never walk the same id sequence.
    id_state: u64,
}

impl BackendExchanger {
    /// The network half of an exchange, for a caller with nothing else to
    /// do: sleeps until `ready_at`, the end of a round trip that began one
    /// latency earlier — once, however many requests travel together.
    fn wait_until(&self, ready_at: SimInstant) {
        let wait = ready_at.saturating_duration_since(self.now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    /// When a round trip that begins now is over.
    fn round_trip_end(&self) -> SimInstant {
        self.now().saturating_add(self.net.inner.latency)
    }

    /// The endpoint half of an exchange: serves one request in place,
    /// handing the endpoint a nested exchanger whose chain ends in `dst`.
    fn deliver(&self, dst: SimAddr, channel: ChannelKind, payload: &[u8]) -> NetResult<Vec<u8>> {
        let mut chain = self.chain;
        // No slot left for `dst` is the depth guard.
        *chain.get_mut(self.depth).ok_or(NetError::TooDeep)? = dst;
        let endpoint = self
            .net
            .inner
            .endpoints
            .get(&dst)
            .ok_or(NetError::Unreachable(dst))?;
        // A request that leads back to an endpoint this chain is already
        // serving would deadlock on a lock its own caller holds. (Another
        // chain contending for the endpoint still blocks, as intended.)
        if self.chain.iter().take(self.depth).any(|&held| held == dst) {
            return Err(NetError::TooDeep);
        }
        let mut nested = BackendExchanger {
            net: self.net.clone(),
            chain,
            depth: self.depth + 1,
            id_state: self.net.inner.ids.fetch_add(0x632B_E5AB, Ordering::Relaxed) | 1,
        };
        let reply = endpoint.lock().serve(&mut nested, channel, payload);
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
        let mut x = self.id_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.id_state = x;
        (x >> 24) as u16 // sdoh-lint: allow(no-narrowing-cast, "intentionally takes 16 bits of the mixed xorshift state")
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
    /// emulated round trip short, nothing worse. (Latency nested under an
    /// endpoint would sum; the module doc says why nothing in tree nests.)
    fn arrive(&mut self, departure: Departure) -> Vec<ExchangeOutcome> {
        departure.outcomes(|requests| {
            requests
                .into_iter()
                .enumerate()
                .map(|(index, request)| {
                    let result = self.deliver(request.dst, request.channel, &request.payload);
                    ExchangeOutcome {
                        index,
                        completed_at: self.now(),
                        result,
                    }
                })
                .collect()
        })
    }
}

impl std::fmt::Debug for BackendExchanger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendExchanger")
            .field("net", &self.net)
            .field("depth", &self.depth)
            .finish()
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

    /// Forwards to another endpoint through the nested exchanger.
    struct Forward(SimAddr);
    impl PayloadService for Forward {
        fn serve(
            &mut self,
            exchanger: &mut dyn Exchanger,
            channel: ChannelKind,
            payload: &[u8],
        ) -> Option<Vec<u8>> {
            exchanger
                .exchange(self.0, channel, payload, Duration::from_secs(1))
                .ok()
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

    #[test]
    fn nested_dispatch_works_and_cycles_are_cut() {
        let echo = SimAddr::v4(192, 0, 2, 1, 443);
        let hop = SimAddr::v4(192, 0, 2, 2, 443);
        let loopy = SimAddr::v4(192, 0, 2, 3, 443);
        let net = BackendNet::builder()
            .register(echo, Echo)
            .register(hop, Forward(echo))
            .register(loopy, Forward(loopy))
            .build();
        let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        let reply = exchanger
            .exchange(hop, ChannelKind::Secure, b"via", Duration::from_secs(1))
            .unwrap();
        assert_eq!(reply, b"via");
        // A self-forwarding endpoint terminates via the re-entry detector
        // instead of deadlocking; the endpoint's inner failure surfaces as
        // a timeout at the caller.
        let err = exchanger
            .exchange(loopy, ChannelKind::Secure, b"x", Duration::from_secs(1))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    /// Fans out to its two targets with a batched `exchange_all` and
    /// replies with the first successful payload.
    struct BatchFanout(SimAddr, SimAddr);
    impl PayloadService for BatchFanout {
        fn serve(
            &mut self,
            exchanger: &mut dyn Exchanger,
            channel: ChannelKind,
            payload: &[u8],
        ) -> Option<Vec<u8>> {
            let outcomes = exchanger.exchange_all(vec![
                ExchangeRequest::new(self.0, channel, payload.to_vec(), Duration::ZERO),
                ExchangeRequest::new(self.1, channel, payload.to_vec(), Duration::ZERO),
            ]);
            outcomes.into_iter().find_map(|o| o.result.ok())
        }
    }

    #[test]
    fn batched_cycles_error_instead_of_deadlocking() {
        // The fan-out endpoint batches to [echo, itself]: the self-request
        // is served through the nested exchanger, whose chain already ends
        // in the fan-out endpoint, and must fail with the re-entry error
        // rather than block on the endpoint mutex the chain already holds.
        let echo = SimAddr::v4(192, 0, 2, 1, 443);
        let fanout = SimAddr::v4(192, 0, 2, 2, 443);
        let net = BackendNet::builder()
            .register(echo, Echo)
            .register(fanout, BatchFanout(echo, fanout))
            .build();
        let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        let reply = exchanger
            .exchange(fanout, ChannelKind::Secure, b"hi", Duration::from_secs(1))
            .unwrap();
        assert_eq!(reply, b"hi", "the echo half of the batch still answers");
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

        // The collect half carries the re-entry chain: a cycle is cut there
        // as it is in a blocking exchange, not deadlocked on.
        let loopy = SimAddr::v4(192, 0, 2, 2, 443);
        let net = BackendNet::builder()
            .register(loopy, Forward(loopy))
            .build();
        let mut exchanger = net.exchanger(SimAddr::v4(10, 0, 0, 1, 40000));
        let departure = exchanger.depart(vec![request(loopy, 9)]);
        assert_eq!(
            exchanger.arrive(departure)[0].result,
            Err(NetError::Timeout)
        );
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
