//! In-process backends: the upstream endpoints a runtime's pool
//! generations talk to without leaving the process.
//!
//! A real deployment would fan pool generations out to public DoH
//! resolvers over the Internet. The runtime's loopback configuration —
//! end-to-end tests, the throughput experiment, the example binary — keeps
//! the full protocol stack (secure envelope, HTTP/2, RFC 8484, DNS wire)
//! but terminates it in-process: a [`BackendNet`] maps resolver addresses
//! to [`PayloadService`] endpoints, and each worker thread reaches them
//! through a [`BackendExchanger`], a `Send` implementation of the
//! workspace's [`Exchanger`] transport abstraction driven by the host
//! clock instead of the simulator's virtual one.
//!
//! Endpoints sit behind one mutex each (never a registry-wide lock), so
//! two shards only contend when they query the *same* upstream resolver
//! at the same instant — mirroring how independent sockets to distinct
//! servers behave.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sdoh_dns_server::{ExchangeOutcome, ExchangeRequest, Exchanger, QueryHandler};
use sdoh_doh::DohServerService;
use sdoh_netsim::{ChannelKind, NetError, NetResult, SimAddr, SimInstant};

use crate::clock::RuntimeClock;

/// Nested-dispatch ceiling mirroring the simulator's routing-loop guard.
const MAX_DEPTH: usize = 8;

std::thread_local! {
    /// Endpoints the current thread is serving right now, outermost first —
    /// the re-entry detector that keeps a dispatch cycle from deadlocking
    /// on an endpoint mutex the thread already holds.
    static IN_FLIGHT: std::cell::RefCell<Vec<SimAddr>> = const { std::cell::RefCell::new(Vec::new()) };
}

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
    /// Artificial one-way latency added before each dispatch (applied
    /// outside any endpoint lock, so it delays the caller without
    /// serializing the endpoint).
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

    /// Adds an artificial per-exchange latency, emulating a network round
    /// trip (the sleep happens before the endpoint lock is taken).
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

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.inner.endpoints.len()
    }

    /// Creates an exchanger sending from `source` — one per worker thread;
    /// the exchanger is `Send` and owns no endpoint state.
    pub fn exchanger(&self, source: SimAddr) -> BackendExchanger {
        BackendExchanger {
            net: self.clone(),
            _source: source,
            depth: 0,
            id_state: self.inner.ids.fetch_add(0x632B_E5AB, Ordering::Relaxed) | 1,
        }
    }

    fn dispatch(
        &self,
        depth: usize,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
    ) -> NetResult<Vec<u8>> {
        if depth >= MAX_DEPTH {
            return Err(NetError::TooDeep);
        }
        if !self.inner.latency.is_zero() {
            std::thread::sleep(self.inner.latency);
        }
        let endpoint = self
            .inner
            .endpoints
            .get(&dst)
            .ok_or(NetError::Unreachable(dst))?;
        // Endpoint mutexes are not re-entrant: a dispatch chain that leads
        // back to an endpoint this same thread is already serving would
        // deadlock on its own lock. The thread-local in-flight stack
        // detects exactly that case (cross-thread contention on a popular
        // endpoint still blocks normally, as intended).
        let re_entered = IN_FLIGHT.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.contains(&dst) {
                true
            } else {
                stack.push(dst);
                false
            }
        });
        if re_entered {
            return Err(NetError::TooDeep);
        }
        let mut nested = BackendExchanger {
            net: self.clone(),
            _source: dst,
            depth: depth + 1,
            id_state: self.inner.ids.fetch_add(0x632B_E5AB, Ordering::Relaxed) | 1,
        };
        let reply = endpoint.lock().serve(&mut nested, channel, payload);
        IN_FLIGHT.with(|stack| {
            stack.borrow_mut().pop();
        });
        reply.ok_or(NetError::Timeout)
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

/// A `Send` [`Exchanger`] over a [`BackendNet`]: what a runtime worker
/// thread hands to its `CachingPoolResolver` so generations and background
/// refreshes reach the in-process resolver fleet.
pub struct BackendExchanger {
    net: BackendNet,
    _source: SimAddr,
    depth: usize,
    /// xorshift state for transaction ids; seeded per exchanger so two
    /// workers never walk the same id sequence.
    id_state: u64,
}

impl Exchanger for BackendExchanger {
    fn exchange(
        &mut self,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        _timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.net.dispatch(self.depth, dst, channel, payload)
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

    /// Performs the batch **concurrently**, one thread per exchange — the
    /// real-transport counterpart of the simulator's overlapped fan-out:
    /// a generation over N resolvers costs the slowest upstream round
    /// trip, not the sum. Outcomes come back in completion order, like the
    /// simulator's.
    fn exchange_all(&mut self, requests: Vec<ExchangeRequest>) -> Vec<ExchangeOutcome> {
        if requests.len() <= 1 {
            // No overlap to win; skip the thread spawn.
            return requests
                .into_iter()
                .enumerate()
                .map(|(index, request)| ExchangeOutcome {
                    index,
                    result: self.exchange(
                        request.dst,
                        request.channel,
                        &request.payload,
                        request.timeout,
                    ),
                    completed_at: self.now(),
                })
                .collect();
        }
        let net = &self.net;
        let depth = self.depth;
        // The re-entry detector is thread-local; the batch threads must
        // inherit this thread's in-flight endpoint stack, or a dispatch
        // cycle through a batched fan-out would sail past the detector
        // and deadlock on a mutex this thread already holds.
        let in_flight: Vec<SimAddr> = IN_FLIGHT.with(|stack| stack.borrow().clone());
        let mut outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .into_iter()
                .enumerate()
                .map(|(index, request)| {
                    let in_flight = in_flight.clone();
                    scope.spawn(move || {
                        IN_FLIGHT.with(|stack| *stack.borrow_mut() = in_flight);
                        let result =
                            net.dispatch(depth, request.dst, request.channel, &request.payload);
                        ExchangeOutcome {
                            index,
                            completed_at: net.clock().now(),
                            result,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("exchange thread panicked")) // sdoh-lint: allow(no-panic, "re-raising a worker thread panic is the only sound response")
                .collect::<Vec<_>>()
        });
        outcomes.sort_by_key(|outcome| outcome.completed_at);
        outcomes
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
        assert_eq!(net.endpoint_count(), 1);
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
        // runs on a batch thread, which must inherit the caller chain's
        // in-flight stack and fail with the re-entry error rather than
        // block on the endpoint mutex the chain already holds.
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
