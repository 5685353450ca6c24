//! The simulated network: registration of services, transactions between
//! endpoints, latency/loss accounting and adversary enforcement.

use std::cell::RefCell;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::net::IpAddr;
use std::rc::Rc;
use std::time::Duration;

use crate::addr::SimAddr;
use crate::adversary::{Adversary, Envelope, RequestVerdict, ResponseVerdict};
use crate::channel::ChannelKind;
use crate::link::LinkConfig;
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::service::{Service, ServiceResponse};
use crate::time::{SimClock, SimInstant};

/// Maximum depth of nested transactions (e.g. stub → recursive → authoritative).
const MAX_DEPTH: usize = 32;

/// Errors a requester can observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No response arrived within the timeout (loss, adversarial drop or a
    /// silent service).
    Timeout,
    /// No service is registered at the destination address.
    Unreachable(SimAddr),
    /// The destination is unreachable because the link is administratively
    /// blocked (partition).
    Partitioned,
    /// Nested transactions exceeded the depth limit (routing loop).
    TooDeep,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Timeout => write!(f, "request timed out"),
            NetError::Unreachable(addr) => write!(f, "no service listening at {addr}"),
            NetError::Partitioned => write!(f, "link is blocked"),
            NetError::TooDeep => write!(f, "nested transaction depth limit exceeded"),
        }
    }
}

impl Error for NetError {}

/// Result alias for network transactions.
pub type NetResult<T> = Result<T, NetError>;

/// One request of a concurrent batch ([`Ctx::call_concurrent`]).
#[derive(Debug, Clone)]
pub struct ConcurrentRequest {
    /// Destination endpoint.
    pub dst: SimAddr,
    /// Channel kind the request travels over.
    pub channel: ChannelKind,
    /// Request payload.
    pub payload: Vec<u8>,
    /// Per-exchange timeout.
    pub timeout: Duration,
}

impl ConcurrentRequest {
    /// Convenience constructor.
    pub fn new(dst: SimAddr, channel: ChannelKind, payload: Vec<u8>, timeout: Duration) -> Self {
        ConcurrentRequest {
            dst,
            channel,
            payload,
            timeout,
        }
    }
}

/// Outcome of one exchange of a concurrent batch, tagged with the index it
/// was submitted under and the virtual instant its response arrived (or its
/// timeout expired).
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// Position of the request in the submitted batch.
    pub index: usize,
    /// Virtual time at which this exchange completed.
    pub completed_at: SimInstant,
    /// The response payload or transport error.
    pub result: NetResult<Vec<u8>>,
}

type SharedService = Rc<RefCell<dyn Service>>;

struct NetState {
    services: HashMap<SimAddr, SharedService>,
    links: HashMap<(IpAddr, IpAddr), LinkConfig>,
    default_link: LinkConfig,
    adversary: Option<Box<dyn Adversary>>,
    rng: SimRng,
    metrics: Metrics,
}

/// The simulated network.
///
/// A `SimNet` is deliberately single-threaded: all behaviour, including the
/// adversary, is driven deterministically from the seed, so experiment
/// results are reproducible bit for bit.
///
/// # Examples
///
/// ```
/// use sdoh_netsim::{ChannelKind, FnService, ServiceResponse, SimAddr, SimNet};
/// use std::time::Duration;
///
/// let net = SimNet::new(7);
/// let server = SimAddr::v4(192, 0, 2, 1, 53);
/// net.register(server, FnService::new("echo", |_ctx, _from, _ch, payload: &[u8]| {
///     ServiceResponse::Reply(payload.to_vec())
/// }));
///
/// let client = SimAddr::v4(198, 51, 100, 1, 40000);
/// let reply = net
///     .transact(client, server, ChannelKind::Plain, b"hello", Duration::from_secs(1))
///     .unwrap();
/// assert_eq!(reply, b"hello");
/// ```
pub struct SimNet {
    clock: SimClock,
    state: RefCell<NetState>,
}

impl SimNet {
    /// Creates a network with the given randomness seed.
    pub fn new(seed: u64) -> Self {
        SimNet {
            clock: SimClock::new(),
            state: RefCell::new(NetState {
                services: HashMap::new(),
                links: HashMap::new(),
                default_link: LinkConfig::default(),
                adversary: None,
                rng: SimRng::seed_from_u64(seed),
                metrics: Metrics::new(),
            }),
        }
    }

    /// A handle to the virtual clock shared by the whole simulation.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Sets the link configuration used when no per-pair entry exists.
    pub fn set_default_link(&self, config: LinkConfig) {
        self.state.borrow_mut().default_link = config;
    }

    /// Sets the (symmetric) link configuration between two hosts.
    pub fn set_link(&self, a: IpAddr, b: IpAddr, config: LinkConfig) {
        let mut state = self.state.borrow_mut();
        state.links.insert(order(a, b), config);
    }

    /// Registers a service at an address, replacing any previous registration.
    pub fn register<S: Service + 'static>(&self, addr: SimAddr, service: S) {
        self.state
            .borrow_mut()
            .services
            .insert(addr, Rc::new(RefCell::new(service)));
    }

    /// Removes the service at `addr`, if any; returns whether one existed.
    pub fn unregister(&self, addr: SimAddr) -> bool {
        self.state.borrow_mut().services.remove(&addr).is_some()
    }

    /// Attaches an adversary observing all traffic (replacing any previous one).
    pub fn set_adversary<A: Adversary + 'static>(&self, adversary: A) {
        self.state.borrow_mut().adversary = Some(Box::new(adversary));
    }

    /// Detaches the adversary, returning whether one was attached.
    pub fn clear_adversary(&self) -> bool {
        self.state.borrow_mut().adversary.take().is_some()
    }

    /// Snapshot of the traffic counters.
    pub fn metrics(&self) -> Metrics {
        self.state.borrow().metrics
    }

    /// Resets the traffic counters to zero.
    pub fn reset_metrics(&self) {
        self.state.borrow_mut().metrics = Metrics::new();
    }

    /// Draws a fresh random 16-bit identifier (e.g. DNS transaction id) from
    /// the simulation's deterministic randomness.
    pub fn random_id(&self) -> u16 {
        self.state.borrow_mut().rng.gen_u16()
    }

    /// Performs a request/response transaction from `src` to `dst`.
    ///
    /// The call is synchronous: the destination service runs immediately
    /// (possibly issuing nested transactions of its own) and virtual time is
    /// advanced by the sampled link delays.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unreachable`] when nothing listens at `dst`,
    /// [`NetError::Partitioned`] when the link is blocked, and
    /// [`NetError::Timeout`] for loss, adversarial drops, silent services or
    /// elapsed time exceeding `timeout`.
    pub fn transact(
        &self,
        src: SimAddr,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.transact_at_depth(src, dst, channel, payload, timeout, 0)
    }

    /// The context of an application host at `source`, outside any
    /// service: an experiment driver, an example binary or a test acting
    /// as the client. Its transactions are [`SimNet::transact`]'s, and its
    /// batches run concurrently ([`Ctx::call_concurrent`]).
    pub fn client(&self, source: SimAddr) -> Ctx<'_> {
        Ctx {
            net: self,
            local: source,
            depth: 0,
        }
    }

    /// Like [`Ctx::call_concurrent`], but each request departs from its own
    /// source address — a whole *population* of clients sending at the
    /// same instant. The batch's elapsed virtual time is the maximum of the
    /// individual exchanges; outcomes come back in delivery order. The
    /// clock caveat of [`Ctx::call_concurrent`] applies: a single service
    /// handling several exchanges of one batch observes their arrival
    /// instants out of order across invocations.
    pub fn transact_concurrent_from(
        &self,
        requests: Vec<(SimAddr, ConcurrentRequest)>,
    ) -> Vec<ConcurrentOutcome> {
        self.transact_concurrent_at_depth(requests, 0)
    }

    fn transact_concurrent_at_depth(
        &self,
        requests: Vec<(SimAddr, ConcurrentRequest)>,
        depth: usize,
    ) -> Vec<ConcurrentOutcome> {
        let departed = self.clock.now();
        let mut outcomes: Vec<ConcurrentOutcome> = requests
            .into_iter()
            .enumerate()
            .map(|(index, (src, request))| {
                // Each in-flight exchange starts from the shared departure
                // instant; running them one at a time only serialises the
                // *randomness* draws, not the virtual time.
                self.clock.rewind_to(departed);
                let result = self.transact_at_depth(
                    src,
                    request.dst,
                    request.channel,
                    &request.payload,
                    request.timeout,
                    depth,
                );
                ConcurrentOutcome {
                    index,
                    completed_at: self.clock.now(),
                    result,
                }
            })
            .collect();
        let batch_end = outcomes
            .iter()
            .map(|o| o.completed_at)
            .max()
            .unwrap_or(departed);
        self.clock.advance_to(batch_end);
        outcomes.sort_by_key(|o| (o.completed_at, o.index));
        outcomes
    }

    fn link_for(&self, a: IpAddr, b: IpAddr) -> LinkConfig {
        let state = self.state.borrow();
        state
            .links
            .get(&order(a, b))
            .copied()
            .unwrap_or(state.default_link)
    }

    fn transact_at_depth(
        &self,
        src: SimAddr,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
        depth: usize,
    ) -> NetResult<Vec<u8>> {
        if depth > MAX_DEPTH {
            return Err(NetError::TooDeep);
        }
        let started = self.clock.now();
        let link = self.link_for(src.ip, dst.ip);

        {
            let mut state = self.state.borrow_mut();
            state.metrics.requests += 1;
            state.metrics.bytes_sent += byte_count(payload);
            match channel {
                ChannelKind::Plain => state.metrics.plain_requests += 1,
                ChannelKind::Secure => state.metrics.secure_requests += 1,
            }
        }

        if link.blocked {
            self.clock.advance(timeout);
            self.state.borrow_mut().metrics.timeouts += 1;
            return Err(NetError::Partitioned);
        }

        // Forward-path loss. Secure channels model a reliable transport that
        // retransmits, costing extra latency instead of failing outright.
        let forward_lost = {
            let mut state = self.state.borrow_mut();
            link.sample_loss(&mut state.rng)
        };
        if forward_lost {
            if channel == ChannelKind::Plain {
                self.clock.advance(timeout);
                self.state.borrow_mut().metrics.timeouts += 1;
                return Err(NetError::Timeout);
            } else {
                let retransmit = {
                    let mut state = self.state.borrow_mut();
                    link.sample_delay(&mut state.rng)
                };
                self.clock.advance(retransmit);
            }
        }

        let forward_delay = {
            let mut state = self.state.borrow_mut();
            link.sample_delay(&mut state.rng)
        };
        self.clock.advance(forward_delay);

        // Adversary request hook.
        let request_verdict = {
            let mut state = self.state.borrow_mut();
            let NetState { adversary, rng, .. } = &mut *state;
            match adversary.as_mut() {
                Some(adv) => adv.on_request(
                    &Envelope {
                        src,
                        dst,
                        channel,
                        payload,
                    },
                    rng,
                ),
                None => RequestVerdict::Deliver,
            }
        };

        match request_verdict {
            RequestVerdict::Deliver => {}
            RequestVerdict::Drop => {
                self.clock.advance(timeout);
                let mut state = self.state.borrow_mut();
                state.metrics.timeouts += 1;
                state.metrics.adversary_drops += 1;
                return Err(NetError::Timeout);
            }
            RequestVerdict::Forge(forged) => {
                let return_delay = {
                    let mut state = self.state.borrow_mut();
                    link.sample_delay(&mut state.rng)
                };
                self.clock.advance(return_delay);
                let mut state = self.state.borrow_mut();
                state.metrics.responses += 1;
                state.metrics.forged_responses += 1;
                state.metrics.bytes_received += byte_count(&forged);
                return Ok(forged);
            }
        }

        // Deliver to the destination service.
        let service = {
            let state = self.state.borrow();
            state.services.get(&dst).cloned()
        };
        let service = match service {
            Some(s) => s,
            None => {
                self.state.borrow_mut().metrics.unreachable += 1;
                return Err(NetError::Unreachable(dst));
            }
        };

        // Forward-path duplication: a second copy of a plain datagram also
        // reaches the service (side effects included) but its reply is
        // redundant and discarded on the wire. Secure (stream) transports
        // deduplicate, so duplication never fires there.
        let duplicated = channel == ChannelKind::Plain && {
            let mut state = self.state.borrow_mut();
            link.sample_duplicate(&mut state.rng)
        };

        let response = {
            let mut ctx = Ctx {
                net: self,
                local: dst,
                depth: depth + 1,
            };
            // A service transacting with itself (directly or via a loop) would
            // re-enter its own handler; treat that as the request going
            // unanswered rather than supporting re-entrancy.
            match service.try_borrow_mut() {
                Ok(mut svc) => svc.handle(&mut ctx, src, channel, payload),
                Err(_) => ServiceResponse::NoReply,
            }
        };

        if duplicated {
            self.state.borrow_mut().metrics.duplicated_requests += 1;
            // The duplicate is processed "alongside" the genuine exchange:
            // rewind the clock afterwards so shadow processing never delays
            // the requester's view of the round trip.
            let resume_at = self.clock.now();
            let mut ctx = Ctx {
                net: self,
                local: dst,
                depth: depth + 1,
            };
            if let Ok(mut svc) = service.try_borrow_mut() {
                let _ = svc.handle(&mut ctx, src, channel, payload);
            }
            self.clock.rewind_to(resume_at);
        }

        let genuine = match response {
            ServiceResponse::Reply(bytes) => bytes,
            ServiceResponse::NoReply => {
                self.clock.advance(timeout);
                self.state.borrow_mut().metrics.timeouts += 1;
                return Err(NetError::Timeout);
            }
        };

        // Adversary response hook.
        let response_verdict = {
            let mut state = self.state.borrow_mut();
            let NetState { adversary, rng, .. } = &mut *state;
            match adversary.as_mut() {
                Some(adv) => adv.on_response(
                    &Envelope {
                        src: dst,
                        dst: src,
                        channel,
                        payload: &genuine,
                    },
                    payload,
                    rng,
                ),
                None => ResponseVerdict::Deliver,
            }
        };

        let delivered = match response_verdict {
            ResponseVerdict::Deliver => genuine,
            ResponseVerdict::Drop => {
                self.clock.advance(timeout);
                let mut state = self.state.borrow_mut();
                state.metrics.timeouts += 1;
                state.metrics.adversary_drops += 1;
                return Err(NetError::Timeout);
            }
            ResponseVerdict::Replace(replacement) => {
                self.state.borrow_mut().metrics.replaced_responses += 1;
                replacement
            }
        };

        // Return-path loss.
        let return_lost = {
            let mut state = self.state.borrow_mut();
            link.sample_loss(&mut state.rng)
        };
        if return_lost && channel == ChannelKind::Plain {
            self.clock.advance(timeout);
            self.state.borrow_mut().metrics.timeouts += 1;
            return Err(NetError::Timeout);
        }

        let return_delay = {
            let mut state = self.state.borrow_mut();
            link.sample_delay(&mut state.rng)
        };
        self.clock.advance(return_delay);

        // Return-path reordering: the response datagram is held back by an
        // extra delay within the link's reorder window, letting later
        // responses overtake it inside a concurrent batch. Stream transports
        // deliver in order, so only plain datagrams reorder.
        if channel == ChannelKind::Plain {
            let held_back = {
                let mut state = self.state.borrow_mut();
                link.sample_reorder(&mut state.rng)
            };
            if let Some(extra) = held_back {
                self.clock.advance(extra);
                self.state.borrow_mut().metrics.reordered_responses += 1;
            }
        }

        if self.clock.elapsed_since(started) > timeout {
            self.state.borrow_mut().metrics.timeouts += 1;
            return Err(NetError::Timeout);
        }

        let mut state = self.state.borrow_mut();
        state.metrics.responses += 1;
        state.metrics.bytes_received += byte_count(&delivered);
        Ok(delivered)
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("SimNet")
            .field("services", &state.services.len())
            .field("links", &state.links.len())
            .field("now", &self.clock.now())
            .finish()
    }
}

/// A payload's length as the traffic counters take it.
fn byte_count(payload: &[u8]) -> u64 {
    u64::try_from(payload.len()).unwrap_or(u64::MAX)
}

fn order(a: IpAddr, b: IpAddr) -> (IpAddr, IpAddr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Execution context handed to a [`Service`] while it handles a request,
/// or built by [`SimNet::client`] for an application host outside any
/// service.
///
/// It exposes its host's own address, the virtual clock and the ability
/// to issue transactions, nested ones inside a service (e.g. a recursive
/// resolver querying authoritative name servers).
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    net: &'a SimNet,
    local: SimAddr,
    depth: usize,
}

impl<'a> Ctx<'a> {
    /// Address the handled request was delivered to.
    pub fn local_addr(&self) -> SimAddr {
        self.local
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.net.now()
    }

    /// Draws a random 16-bit identifier from the simulation randomness.
    pub fn random_id(&self) -> u16 {
        self.net.random_id()
    }

    /// Issues a nested transaction originating from this service.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`SimNet::transact`], plus
    /// [`NetError::TooDeep`] when services keep calling each other.
    pub fn call(
        &mut self,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.net
            .transact_at_depth(self.local, dst, channel, payload, timeout, self.depth)
    }

    /// Issues a nested transaction from an **ephemeral source port** on
    /// this service's host instead of its registered service port.
    ///
    /// This is how a hardened resolver randomizes the source port of its
    /// upstream queries: an off-path adversary observing the request
    /// envelope sees a different `src.port` per query and must guess it to
    /// forge an acceptable response, whereas [`Ctx::call`] always departs
    /// from the (well-known, predictable) service port.
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::call`].
    pub fn call_from_port(
        &mut self,
        src_port: u16,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        self.net.transact_at_depth(
            self.local.with_port(src_port),
            dst,
            channel,
            payload,
            timeout,
            self.depth,
        )
    }

    /// Issues a batch of transactions that all depart from this host at the
    /// current instant and run **concurrently**: the batch's elapsed
    /// virtual time is the *maximum* of the individual exchanges, not their
    /// sum, so a service fanning out to N backends pays the slowest
    /// backend's latency.
    ///
    /// Outcomes are returned in delivery order — sorted by each exchange's
    /// completion instant (ties broken by submission index). Which exchange
    /// finishes first depends on the sampled link delays, so the
    /// interleaving is deterministic in the simulation seed.
    ///
    /// **Caveat for clock-reading services:** the exchanges of a batch are
    /// executed one after another with the clock rewound to the departure
    /// instant between them. A service handling exchange *k* therefore sees
    /// the virtual time of *its own* request's arrival (departure plus its
    /// link delay) — correct for concurrent requests — but a single service
    /// handling several exchanges of one batch may observe those arrival
    /// instants out of order across invocations. Per-exchange timestamps
    /// remain self-consistent; cross-exchange monotonicity within a batch
    /// is not guaranteed (it isn't for real parallel requests either, but a
    /// service accumulating "last seen time" state would notice).
    pub fn call_concurrent(&mut self, requests: Vec<ConcurrentRequest>) -> Vec<ConcurrentOutcome> {
        let requests = requests.into_iter().map(|r| (self.local, r)).collect();
        self.net.transact_concurrent_at_depth(requests, self.depth)
    }
}

impl fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("local", &self.local)
            .field("depth", &self.depth)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{OffPathSpoofer, OnPathMitm, SpoofStrategy};
    use crate::service::{FnService, StaticService};

    fn echo_service() -> impl Service {
        FnService::new("echo", |_ctx, _from, _ch, payload: &[u8]| {
            ServiceResponse::Reply(payload.to_vec())
        })
    }

    const TIMEOUT: Duration = Duration::from_secs(2);

    #[test]
    fn basic_transaction_roundtrips() {
        let net = SimNet::new(1);
        let server = SimAddr::v4(192, 0, 2, 1, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(server, echo_service());
        let reply = net
            .transact(client, server, ChannelKind::Plain, b"ping", TIMEOUT)
            .unwrap();
        assert_eq!(reply, b"ping");
        let metrics = net.metrics();
        assert_eq!(metrics.requests, 1);
        assert_eq!(metrics.responses, 1);
        assert!(net.now() > SimInstant::EPOCH, "latency advanced the clock");
    }

    #[test]
    fn unreachable_destination_errors() {
        let net = SimNet::new(2);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        let ghost = SimAddr::v4(203, 0, 113, 9, 53);
        let err = net
            .transact(client, ghost, ChannelKind::Plain, b"ping", TIMEOUT)
            .unwrap_err();
        assert_eq!(err, NetError::Unreachable(ghost));
        assert_eq!(net.metrics().unreachable, 1);
    }

    #[test]
    fn silent_service_times_out() {
        let net = SimNet::new(3);
        let server = SimAddr::v4(192, 0, 2, 2, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(server, StaticService::silent());
        let err = net
            .transact(client, server, ChannelKind::Plain, b"ping", TIMEOUT)
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert_eq!(net.metrics().timeouts, 1);
    }

    #[test]
    fn blocked_link_partitions() {
        let net = SimNet::new(4);
        let server = SimAddr::v4(192, 0, 2, 3, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(server, echo_service());
        net.set_link(client.ip, server.ip, LinkConfig::default().blocked());
        let err = net
            .transact(client, server, ChannelKind::Plain, b"ping", TIMEOUT)
            .unwrap_err();
        assert_eq!(err, NetError::Partitioned);
    }

    #[test]
    fn total_loss_times_out_plain_but_not_secure() {
        let net = SimNet::new(5);
        let server = SimAddr::v4(192, 0, 2, 4, 443);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(server, echo_service());
        net.set_link(client.ip, server.ip, LinkConfig::default().loss(1.0));

        let plain = net.transact(client, server, ChannelKind::Plain, b"x", TIMEOUT);
        assert_eq!(plain.unwrap_err(), NetError::Timeout);

        // Secure (stream) transport retransmits through loss.
        let secure = net.transact(client, server, ChannelKind::Secure, b"x", TIMEOUT);
        assert_eq!(secure.unwrap(), b"x");
    }

    #[test]
    fn nested_calls_work_and_depth_is_limited() {
        let net = SimNet::new(6);
        let frontend = SimAddr::v4(192, 0, 2, 10, 53);
        let backend = SimAddr::v4(192, 0, 2, 11, 53);
        net.register(backend, echo_service());
        net.register(
            frontend,
            FnService::new(
                "proxy",
                move |ctx: &mut Ctx<'_>, _from, ch, payload: &[u8]| match ctx
                    .call(backend, ch, payload, TIMEOUT)
                {
                    Ok(reply) => ServiceResponse::Reply(reply),
                    Err(_) => ServiceResponse::NoReply,
                },
            ),
        );
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        let reply = net
            .transact(client, frontend, ChannelKind::Plain, b"nested", TIMEOUT)
            .unwrap();
        assert_eq!(reply, b"nested");
        assert_eq!(net.metrics().requests, 2);

        // A service calling itself forever must hit the depth limit, not
        // overflow the stack. Use a longer timeout budget so the depth limit
        // (not the elapsed virtual time) is what stops it.
        let looper = SimAddr::v4(192, 0, 2, 12, 53);
        net.register(
            looper,
            FnService::new(
                "loop",
                move |ctx: &mut Ctx<'_>, _from, ch, payload: &[u8]| match ctx.call(
                    looper,
                    ch,
                    payload,
                    Duration::from_secs(3600),
                ) {
                    Ok(reply) => ServiceResponse::Reply(reply),
                    Err(_) => ServiceResponse::NoReply,
                },
            ),
        );
        let err = net
            .transact(
                client,
                looper,
                ChannelKind::Plain,
                b"loop",
                Duration::from_secs(3600),
            )
            .unwrap_err();
        assert_eq!(err, NetError::Timeout, "loop collapses into a timeout");
    }

    #[test]
    fn offpath_spoofer_forges_only_plain() {
        let net = SimNet::new(7);
        let resolver = SimAddr::v4(8, 8, 8, 8, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(resolver, echo_service());
        net.set_adversary(OffPathSpoofer::new(
            SpoofStrategy::FixedProbability(1.0),
            |_q, _rng| Some(b"forged".to_vec()),
        ));

        let plain = net
            .transact(client, resolver, ChannelKind::Plain, b"query", TIMEOUT)
            .unwrap();
        assert_eq!(plain, b"forged");
        assert_eq!(net.metrics().forged_responses, 1);

        let secure = net
            .transact(client, resolver, ChannelKind::Secure, b"query", TIMEOUT)
            .unwrap();
        assert_eq!(secure, b"query");
        assert_eq!(net.metrics().forged_responses, 1);
    }

    #[test]
    fn onpath_mitm_replaces_plain_only() {
        let net = SimNet::new(8);
        let resolver = SimAddr::v4(9, 9, 9, 9, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(resolver, echo_service());
        net.set_adversary(
            OnPathMitm::controlling([resolver.ip])
                .with_response_rewriter(|_req, _resp, _rng| Some(b"rewritten".to_vec())),
        );

        let plain = net
            .transact(client, resolver, ChannelKind::Plain, b"query", TIMEOUT)
            .unwrap();
        assert_eq!(plain, b"rewritten");
        assert_eq!(net.metrics().replaced_responses, 1);

        let secure = net
            .transact(client, resolver, ChannelKind::Secure, b"query", TIMEOUT)
            .unwrap();
        assert_eq!(secure, b"query");
    }

    #[test]
    fn adversary_can_be_cleared() {
        let net = SimNet::new(9);
        let resolver = SimAddr::v4(9, 9, 9, 9, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(resolver, echo_service());
        net.set_adversary(OffPathSpoofer::new(
            SpoofStrategy::FixedProbability(1.0),
            |_q, _rng| Some(b"forged".to_vec()),
        ));
        assert!(net.clear_adversary());
        assert!(!net.clear_adversary());
        let reply = net
            .transact(client, resolver, ChannelKind::Plain, b"query", TIMEOUT)
            .unwrap();
        assert_eq!(reply, b"query");
    }

    #[test]
    fn latency_configuration_is_respected() {
        let net = SimNet::new(10);
        let server = SimAddr::v4(192, 0, 2, 20, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(server, echo_service());
        net.set_link(
            client.ip,
            server.ip,
            LinkConfig::with_latency(Duration::from_millis(25)),
        );
        let t0 = net.now();
        net.transact(client, server, ChannelKind::Plain, b"x", TIMEOUT)
            .unwrap();
        let elapsed = net.now().saturating_duration_since(t0);
        assert_eq!(elapsed, Duration::from_millis(50), "25 ms each way");
    }

    #[test]
    fn timeout_exceeded_by_slow_link() {
        let net = SimNet::new(11);
        let server = SimAddr::v4(192, 0, 2, 21, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(server, echo_service());
        net.set_link(
            client.ip,
            server.ip,
            LinkConfig::with_latency(Duration::from_millis(900)),
        );
        let err = net
            .transact(
                client,
                server,
                ChannelKind::Plain,
                b"x",
                Duration::from_millis(100),
            )
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn register_unregister_lifecycle() {
        let net = SimNet::new(12);
        let addr = SimAddr::v4(192, 0, 2, 30, 53);
        assert!(!net.unregister(addr));
        net.register(addr, StaticService::replying(b"ok".to_vec()));
        assert!(net.unregister(addr));
        assert!(!net.unregister(addr));
    }

    #[test]
    fn concurrent_batch_costs_the_slowest_exchange() {
        let net = SimNet::new(20);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        let servers: Vec<SimAddr> = (1..=3).map(|i| SimAddr::v4(192, 0, 2, i, 53)).collect();
        for (i, &server) in servers.iter().enumerate() {
            net.register(server, echo_service());
            net.set_link(
                client.ip,
                server.ip,
                LinkConfig::with_latency(Duration::from_millis(10 * (i as u64 + 1))),
            );
        }
        let t0 = net.now();
        let outcomes = net.client(client).call_concurrent(
            servers
                .iter()
                .map(|&dst| ConcurrentRequest {
                    dst,
                    channel: ChannelKind::Plain,
                    payload: b"ping".to_vec(),
                    timeout: TIMEOUT,
                })
                .collect(),
        );
        // 10/20/30 ms one-way latency: the batch ends when the slowest
        // round trip (60 ms) completes, not after 20+40+60 ms.
        assert_eq!(
            net.now().saturating_duration_since(t0),
            Duration::from_millis(60)
        );
        // Delivery order follows per-exchange completion instants.
        let order: Vec<usize> = outcomes.iter().map(|o| o.index).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert!(outcomes
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
        assert_eq!(net.metrics().requests, 3);
    }

    #[test]
    fn concurrent_timeout_does_not_stall_the_batch() {
        let net = SimNet::new(21);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        let fast = SimAddr::v4(192, 0, 2, 1, 53);
        let dead = SimAddr::v4(192, 0, 2, 2, 53);
        net.register(fast, echo_service());
        net.register(dead, StaticService::silent());
        net.set_link(
            client.ip,
            fast.ip,
            LinkConfig::with_latency(Duration::from_millis(5)),
        );
        let t0 = net.now();
        let outcomes = net.client(client).call_concurrent(vec![
            ConcurrentRequest {
                dst: dead,
                channel: ChannelKind::Plain,
                payload: b"x".to_vec(),
                timeout: Duration::from_millis(100),
            },
            ConcurrentRequest {
                dst: fast,
                channel: ChannelKind::Plain,
                payload: b"x".to_vec(),
                timeout: Duration::from_millis(100),
            },
        ]);
        // The fast exchange is delivered first even though it was submitted
        // second; the batch ends when the timeout expires.
        assert_eq!(outcomes[0].index, 1);
        assert!(outcomes[0].result.is_ok());
        assert_eq!(outcomes[1].result, Err(NetError::Timeout));
        // The batch ends when the timed-out exchange gives up (its forward
        // link delay plus the full timeout window), not after the sum of
        // both exchanges.
        let elapsed = net.now().saturating_duration_since(t0);
        assert!(elapsed >= Duration::from_millis(100));
        assert!(elapsed < Duration::from_millis(150), "elapsed {elapsed:?}");
    }

    #[test]
    fn empty_concurrent_batch_is_a_no_op() {
        let net = SimNet::new(22);
        let t0 = net.now();
        let outcomes = net
            .client(SimAddr::v4(10, 0, 0, 1, 40000))
            .call_concurrent(Vec::new());
        assert!(outcomes.is_empty());
        assert_eq!(net.now(), t0);
    }

    #[test]
    fn nested_concurrent_calls_respect_depth() {
        let net = SimNet::new(23);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        let frontend = SimAddr::v4(192, 0, 2, 10, 53);
        let backends: Vec<SimAddr> = (1..=3)
            .map(|i| SimAddr::v4(192, 0, 2, 100 + i, 53))
            .collect();
        for &b in &backends {
            net.register(b, echo_service());
        }
        let fan_out = backends.clone();
        net.register(
            frontend,
            FnService::new("fanout", move |ctx: &mut Ctx<'_>, _from, ch, p: &[u8]| {
                let outcomes = ctx.call_concurrent(
                    fan_out
                        .iter()
                        .map(|&dst| ConcurrentRequest {
                            dst,
                            channel: ch,
                            payload: p.to_vec(),
                            timeout: TIMEOUT,
                        })
                        .collect(),
                );
                let mut combined = Vec::new();
                for outcome in outcomes {
                    if let Ok(bytes) = outcome.result {
                        combined.extend_from_slice(&bytes);
                    }
                }
                ServiceResponse::Reply(combined)
            }),
        );
        let reply = net
            .transact(client, frontend, ChannelKind::Plain, b"ab", TIMEOUT)
            .unwrap();
        assert_eq!(reply, b"ababab");
        assert_eq!(net.metrics().requests, 4);
    }

    #[test]
    fn duplicated_request_is_handled_twice_but_answered_once() {
        use std::cell::Cell;

        let net = SimNet::new(30);
        let server = SimAddr::v4(192, 0, 2, 50, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        let hits = Rc::new(Cell::new(0u32));
        let recorder = Rc::clone(&hits);
        net.register(
            server,
            FnService::new("count", move |_ctx, _from, _ch, payload: &[u8]| {
                recorder.set(recorder.get() + 1);
                ServiceResponse::Reply(payload.to_vec())
            }),
        );
        net.set_link(
            client.ip,
            server.ip,
            LinkConfig::with_latency(Duration::from_millis(10)).duplicate(1.0),
        );
        let t0 = net.now();
        let reply = net
            .transact(client, server, ChannelKind::Plain, b"q", TIMEOUT)
            .unwrap();
        assert_eq!(reply, b"q");
        assert_eq!(hits.get(), 2, "the service saw the payload twice");
        let metrics = net.metrics();
        assert_eq!(metrics.requests, 1);
        assert_eq!(
            metrics.responses, 1,
            "the client still got exactly one reply"
        );
        assert_eq!(metrics.duplicated_requests, 1);
        assert_eq!(
            net.now().saturating_duration_since(t0),
            Duration::from_millis(20),
            "shadow processing of the duplicate does not delay the genuine exchange"
        );
    }

    #[test]
    fn secure_channels_do_not_duplicate() {
        use std::cell::Cell;

        let net = SimNet::new(31);
        let server = SimAddr::v4(192, 0, 2, 51, 443);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        let hits = Rc::new(Cell::new(0u32));
        let recorder = Rc::clone(&hits);
        net.register(
            server,
            FnService::new("count", move |_ctx, _from, _ch, payload: &[u8]| {
                recorder.set(recorder.get() + 1);
                ServiceResponse::Reply(payload.to_vec())
            }),
        );
        net.set_link(client.ip, server.ip, LinkConfig::default().duplicate(1.0));
        net.transact(client, server, ChannelKind::Secure, b"q", TIMEOUT)
            .unwrap();
        assert_eq!(hits.get(), 1);
        assert_eq!(net.metrics().duplicated_requests, 0);
    }

    #[test]
    fn reordered_response_is_held_back_and_counted() {
        let net = SimNet::new(32);
        let server = SimAddr::v4(192, 0, 2, 52, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(server, echo_service());
        net.set_link(
            client.ip,
            server.ip,
            LinkConfig::with_latency(Duration::from_millis(10))
                .reorder(1.0, Duration::from_millis(40)),
        );
        let t0 = net.now();
        net.transact(client, server, ChannelKind::Plain, b"x", TIMEOUT)
            .unwrap();
        let elapsed = net.now().saturating_duration_since(t0);
        assert!(elapsed >= Duration::from_millis(20));
        assert!(elapsed < Duration::from_millis(60), "elapsed {elapsed:?}");
        assert_eq!(net.metrics().reordered_responses, 1);

        // Streams deliver in order: a secure exchange is never held back.
        let t1 = net.now();
        net.transact(client, server, ChannelKind::Secure, b"x", TIMEOUT)
            .unwrap();
        assert_eq!(
            net.now().saturating_duration_since(t1),
            Duration::from_millis(20)
        );
        assert_eq!(net.metrics().reordered_responses, 1);
    }

    #[test]
    fn reordering_flips_concurrent_delivery_order() {
        let net = SimNet::new(33);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        let held = SimAddr::v4(192, 0, 2, 1, 53);
        let steady = SimAddr::v4(192, 0, 2, 2, 53);
        net.register(held, echo_service());
        net.register(steady, echo_service());
        net.set_link(
            client.ip,
            held.ip,
            LinkConfig::with_latency(Duration::from_millis(10))
                .reorder(1.0, Duration::from_millis(100)),
        );
        net.set_link(
            client.ip,
            steady.ip,
            LinkConfig::with_latency(Duration::from_millis(10)),
        );
        let outcomes = net.client(client).call_concurrent(
            [held, steady]
                .iter()
                .map(|&dst| ConcurrentRequest {
                    dst,
                    channel: ChannelKind::Plain,
                    payload: b"ping".to_vec(),
                    timeout: TIMEOUT,
                })
                .collect(),
        );
        // Both exchanges share a 10 ms one-way latency, but the first one's
        // response is held back inside the reorder window, so the second
        // request's reply overtakes it.
        assert_eq!(outcomes[0].index, 1, "steady response delivered first");
        assert_eq!(outcomes[1].index, 0);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert_eq!(net.metrics().reordered_responses, 1);
    }

    #[test]
    fn metrics_reset() {
        let net = SimNet::new(13);
        let server = SimAddr::v4(192, 0, 2, 40, 53);
        let client = SimAddr::v4(198, 51, 100, 1, 40000);
        net.register(server, echo_service());
        net.transact(client, server, ChannelKind::Plain, b"x", TIMEOUT)
            .unwrap();
        assert_eq!(net.metrics().requests, 1);
        net.reset_metrics();
        assert_eq!(net.metrics().requests, 0);
    }

    #[test]
    fn error_display() {
        assert!(NetError::Timeout.to_string().contains("timed out"));
        assert!(NetError::Unreachable(SimAddr::v4(1, 2, 3, 4, 5))
            .to_string()
            .contains("1.2.3.4:5"));
    }
}
