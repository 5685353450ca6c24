//! The threaded real-socket serving runtime: [`PoolRuntime`].
//!
//! ```text
//!               UDP datagrams                TCP (truncated retries)
//!              ┌─────▼──────┐                  ┌──────▼──────┐
//!              │ dispatcher │                  │ tcp acceptor│
//!              └─────┬──────┘                  └──────┬──────┘
//!        hash(qname, qtype) ──────────────────────────┘
//!   ┌─────▼────┐ ┌───▼──────┐ ┌────▼─────┐  the reading thread steps the
//!   │ shard 0  │ │ shard 1  │ │ shard N-1│  shard under its lock and
//!   │ machine  │ │ machine  │ │ machine  │  performs the effects; control
//!   └─────▲────┘ └────▲─────┘ └────▲─────┘  plane and timer step it alike
//!         └───── timer: lands what no socket thread meets
//! ```
//!
//! A shard is one [`CachingPoolResolver`] and one `Send` exchanger behind a
//! lock of its own — data, not a thread. Queries are routed by `(domain,
//! address family)` hash over the shards [`PoolRuntime::start`] was handed,
//! so every key is cached by one shard for the life of the runtime and
//! singleflight works per shard. The shard count partitions the cache; the
//! runtime's threads are the two that read sockets and one timer for all
//! shards (plus the stats listener, when configured), idle or loaded.
//!
//! # One entry, one place its effects are performed
//!
//! A shard changes only through `ShardMachine::step`: a query, a control
//! order or nothing (a timer pass) in, the next instant anything is due
//! out. The machine does no I/O but its exchanger's. Its **effects** — each
//! answer's octets, reply path, start and truncation, and the epoch it
//! adopted — are performed by one function, `ShardSet::step`, under the
//! shard's lock: `send_to` or the TCP connection's channel, the latency
//! histogram, the truncation counter, the ack, then the timer's alarm. A
//! step hands its effects out twice, once its item's are written and once
//! it has pumped, so a query's answer leaves before the step lands what
//! is due. The socket threads, the control plane, the timer and shutdown
//! all step shards through it; a test steps a machine by hand and reads
//! its effects.
//!
//! # The hit path and the miss path
//!
//! A query is read where it lies ([`QueryView`]), once, by the socket thread
//! that received it: the view picks the shard and is handed to its step,
//! which runs the closing half of the shared Do53 core
//! ([`finish_do53_answer`]) after the resolver's first step
//! ([`begin`](CachingPoolResolver::begin)).
//! A hit renders a header, the echoed question and a TTL in front of an
//! answer section encoded when the pool was cached, and allocates nothing
//! (`core/tests/alloc_budget.rs`). A UDP answer longer than its client can
//! receive (its OPT payload size, 512 without one, capped by the configured
//! limit) is replaced by an empty TC=1 response, and the client retries
//! over the TCP listener on the same port.
//!
//! A miss opens a **flight** for its key (or joins the live one), and its
//! octets are **parked** on it, in a buffer of their own among the
//! flight's waiters. What is upstream is the resolver's: the shard only
//! decides when to wait. Every step ends by **pumping**, and a step pays
//! only for its own item: one that meets no order waiting and leaves the
//! resolver nothing to do before its next arrival
//! ([`CachingPoolResolver::has_work`]: no flight opened and not yet
//! departed, no refresh queued) compares that arrival
//! ([`CachingPoolResolver::next_arrival`]) with one reading of the clock
//! and, with nothing due, is done — a cached hit costs the same however
//! many flights are upstream. Any other step pumps in full, visiting only
//! what has work: the resolver collects the batches that are due
//! ([`CachingPoolResolver::arrive`]), the refreshes stale serves queued
//! open flights, the queries parked on each landed flight — and no others
//! — are answered, and the flights just opened or reached by an outcome
//! depart what they have to send as one batch
//! ([`CachingPoolResolver::poll`], through the exchanger's send half). A
//! zero round trip lands within the step, and
//! queries that never pause cannot starve the flights: a round trip that
//! is over is landed by the next step that finds it due.
//!
//! * *The timer.* A shard's alarm is the instant its last step returned:
//!   the resolver's next arrival, the only instant a shard waits for — a
//!   queued refresh is due at once and opens in the step that queued it.
//!   One timer thread waits (`park_timeout`, a futex) until the earliest
//!   alarm over all shards, held in one atomic on the wall clock, and
//!   steps each shard whose alarm is due. The kernel ends a park up to its
//!   timer slack late, folding close wakes into one: with one flight
//!   upstream over all shards nobody shares the wake, so the timer asks for
//!   the alarm less the slack, and a wake before it lands nothing and parks
//!   for the rest. A step that moves its shard's alarm earlier moves the
//!   timer down and unparks it; a query's step that leaves the alarm and
//!   the flights where they were touches neither the timer nor the
//!   clock, and the timer's own steps always re-arm.
//!   Alarms are converted to the wall clock from the shard's own exchanger
//!   clock, so a shard on a simulated clock keeps working.
//! * *Who waits for landings.* Nobody, under a lock. A control order that
//!   swaps the source set or the pool configuration while flights are
//!   upstream waits on the shard: queries that arrive meanwhile are
//!   deferred behind it, in a queue of their own, and the first step that
//!   finds nothing upstream adopts the order and serves them in arrival
//!   order, so nothing the old set generated is cached after the ack. The
//!   queries parked on flights stay where they are. Only
//!   [`PoolRuntime::shutdown`] sleeps out the last round trips, between
//!   steps, once the socket threads and the timer are joined.
//!
//! A transport without the two halves takes their blocking defaults, and
//! whichever thread steps sits out each round trip. The socket threads
//! block in `recv_from` / `accept` and back off from errors; `shutdown`
//! wakes each with one throw-away message.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::fd::OwnedFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use sdoh_core::{
    snapshot_samples, CachingPoolResolver, ConfigError, FlightId, Landed, ServeSnapshot,
};
use sdoh_dns_server::{finish_do53_answer, write_do53_formerr, Exchanger};
use sdoh_dns_wire::{Header, QueryView};
use sdoh_metrics::http::wake_addr;
use sdoh_metrics::{
    render_prometheus, Counter, Histogram, HttpResponse, Registry, Sample, SampleValue, StatsServer,
};
use sdoh_netsim::SimInstant;

use crate::clock::{park_for, timer_slack};
use crate::control::{ControlHandle, EpochOrder};

/// How long a stats aggregation waits for each shard's lock before marking
/// the shard unresponsive (a wedged shard must not wedge the exporter). A
/// shard's lock is held for one step at a time, so a miss means a transport
/// whose `depart` blocks, never an upstream that is slow.
const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(5);

/// The shorter deadline `/healthz` probes shards with: a readiness check
/// has to answer promptly even when a shard is wedged.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a snapshot waits between two tries of a busy shard's lock; not
/// led by the timer slack, it lasts ~100 us on a 2-vCPU Linux host.
const SNAPSHOT_POLL: Duration = Duration::from_micros(50);

/// How long a socket loop stays away from a socket that just returned an
/// error, so a persistent one (descriptor exhaustion) cannot spin it.
const ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// How long a TCP connection may leave a read or a write of its without
/// progress before it is dropped. The one connection served at a time holds
/// back the next for up to this long per read or write that makes no
/// progress, and for as long as it keeps making progress.
const TCP_IO_BUDGET: Duration = Duration::from_secs(2);

/// How long a TCP connection waits for a shard to answer its query before
/// it is dropped: a miss's answer waits for its flight to land, so this is
/// the longest one query holds back the next connection once it is read.
const TCP_ANSWER_WAIT: Duration = Duration::from_secs(10);

/// The timer thread's name. `pool-bench` attributes a runtime thread's CPU
/// by its name, and counts a thread outside `sdoh-dispatch`, `sdoh-shard-*`,
/// `sdoh-tcp`, `sdoh-refresh` and `sdoh-stats` as the harness's: under any
/// other prefix the timer's landings would vanish from the server's CPU per
/// query. Fifteen bytes, the longest name Linux keeps.
const TIMER_THREAD: &str = "sdoh-shard-tick";

/// Configuration of a [`PoolRuntime`]: where it listens and how much it puts
/// in a datagram. What the runtime does is not configurable here — the TCP
/// fallback is always bound (a truncated pool has no other way out) and
/// every query's latency is recorded.
///
/// Non-exhaustive: build it from [`RuntimeConfig::default`] with the
/// `with_*` builder methods so future knobs aren't breaking changes.
/// [`RuntimeConfig::validate`] (also run by [`PoolRuntime::start`])
/// rejects values that would misbehave at runtime.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RuntimeConfig {
    /// Address to bind the UDP socket (and the TCP listener) on. Port 0
    /// picks an ephemeral port free on both sides; read it back from
    /// [`PoolRuntime::udp_addr`].
    pub bind: SocketAddr,
    /// Largest UDP response payload served without truncation, whatever
    /// the client advertises (a client without an OPT record is served at
    /// most 512 bytes). Larger answers are replaced by an empty TC=1
    /// response so the client retries over TCP.
    pub udp_payload_limit: usize,
    /// Address to bind the HTTP stats listener on (`/metrics`, `/config`,
    /// `/healthz`); `None` disables it. Port 0 picks an
    /// ephemeral port; read it back from [`PoolRuntime::stats_addr`].
    pub stats_bind: Option<SocketAddr>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            udp_payload_limit: 1232,
            stats_bind: None,
        }
    }
}

impl RuntimeConfig {
    /// Sets the UDP/TCP bind address.
    pub fn with_bind(mut self, bind: SocketAddr) -> Self {
        self.bind = bind;
        self
    }

    /// Sets the UDP truncation threshold (must be non-zero).
    pub fn with_udp_payload_limit(mut self, limit: usize) -> Self {
        self.udp_payload_limit = limit;
        self
    }

    /// Sets the HTTP stats listener bind address (`None` disables it).
    pub fn with_stats_bind(mut self, bind: Option<SocketAddr>) -> Self {
        self.stats_bind = bind;
        self
    }

    /// Validates the runtime knobs: a zero payload limit would truncate
    /// every answer.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Zero`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.udp_payload_limit == 0 {
            return Err(ConfigError::Zero("udp_payload_limit"));
        }
        Ok(())
    }
}

/// One serving shard: a caching resolver plus the exchanger its
/// generations and refreshes go out through, stepped by whichever runtime
/// thread holds the shard's lock — which is why the serve layer is `Send`.
pub struct Shard {
    resolver: CachingPoolResolver,
    exchanger: Box<dyn Exchanger + Send>,
}

impl Shard {
    /// Pairs a resolver with its upstream exchanger.
    pub fn new(resolver: CachingPoolResolver, exchanger: Box<dyn Exchanger + Send>) -> Self {
        Shard {
            resolver,
            exchanger,
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("resolver", &self.resolver)
            .finish()
    }
}

/// Front-door counters kept by the socket threads and `ShardSet::step`, as
/// registry [`Counter`] handles: the same bumps feed [`RuntimeStats`] and
/// `/metrics`.
#[derive(Debug)]
pub(crate) struct FrontCounters {
    udp_received: Counter,
    tcp_received: Counter,
    truncated: Counter,
    dropped: Counter,
    /// Steps of a query that moved the shard timer earlier.
    wakes: Counter,
}

impl FrontCounters {
    fn register(registry: &Registry) -> FrontCounters {
        let counter = |(name, help): (&str, &str)| registry.counter(name, help);
        FrontCounters {
            udp_received: counter(sdoh_core::METRIC_UDP_QUERIES),
            tcp_received: counter(sdoh_core::METRIC_TCP_QUERIES),
            truncated: counter(sdoh_core::METRIC_TRUNCATED_RESPONSES),
            dropped: counter(sdoh_core::METRIC_DROPPED_QUERIES),
            wakes: counter(vocabulary_row("sdoh_shard_wakes_total")),
        }
    }
}

/// The shared vocabulary's `(name, help)` row for one of the runtime's
/// metrics that has no constant of its own (an unknown name gets no help,
/// which the registry's lint reports).
fn vocabulary_row(name: &'static str) -> (&'static str, &'static str) {
    let help = sdoh_core::RUNTIME_METRIC_HELP
        .iter()
        .find(|(row, _)| *row == name)
        .map_or("", |(_, help)| *help);
    (name, help)
}

/// A gauge sample.
fn gauge((name, help): (&str, &str), labels: Vec<(String, String)>, value: f64) -> Sample {
    Sample {
        name: name.to_string(),
        help: help.to_string(),
        labels,
        value: SampleValue::Gauge(value),
    }
}

/// One aggregated statistics observation of a running [`PoolRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// Snapshot of every shard, in shard order. `None` for a shard whose lock
    /// stayed taken past the snapshot deadline — a wedged shard (a transport
    /// blocking in `depart`), never a slow upstream, whose generations in
    /// flight [`ServeSnapshot::live_generations`] counts — never zeros. Any
    /// `None` means `total` undercounts and `/healthz` reports the instance
    /// unready.
    pub per_shard: Vec<Option<ServeSnapshot>>,
    /// The fleet-wide aggregate of the *responsive* shards.
    pub total: ServeSnapshot,
    /// Datagrams accepted by the UDP dispatcher.
    pub udp_queries: u64,
    /// Queries accepted over the TCP fallback listener.
    pub tcp_queries: u64,
    /// UDP responses truncated to TC=1 because they exceeded the payload
    /// limit.
    pub truncated_responses: u64,
    /// Accepted queries that found no shard to serve them — zero during
    /// normal operation, reconfigurations included. Queries a shard sheds
    /// under overload will be counted here too.
    pub dropped_queries: u64,
    /// The config epoch published when the snapshot was taken.
    pub config_epoch: u64,
    /// Runtime uptime when the snapshot was taken.
    pub taken_at: SimInstant,
}

/// Where an answer goes.
pub(crate) enum ReplyPath {
    /// `send_to` on the shared UDP socket; an answer longer than the client
    /// can receive is truncated to TC=1.
    Udp(SocketAddr),
    /// Over the TCP connection's channel, appended to the buffer it lent.
    Tcp(mpsc::Sender<Vec<u8>>, Vec<u8>),
}

/// What a shard's lock guards: the machine, and the alarm and flights its
/// step last armed (`None`: the timer does not wait for the shard).
struct ShardState {
    machine: ShardMachine,
    alarm: Option<SimInstant>,
    flights: usize,
}

/// One shard: its state behind its one lock, and its own ways out.
struct ShardCell {
    state: Mutex<ShardState>,
    /// Every answered query's latency, recorded as its answer leaves.
    latency: Histogram,
    /// The epoch this shard last adopted, read by the control plane.
    acked: AtomicU64,
}

impl ShardCell {
    /// The hold [`ShardSet::step`] takes on a shard for one step; a thread that
    /// finds it taken waits.
    // sdoh-lint: allow(transitive-hot-path-purity, "the shard's own lock: held for one step at a time, and nobody sleeps under it (shutdown sleeps out the last round trips between its steps), so a query waits for at most the step ahead of it")
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock()
    }

    /// The shard's snapshot, read under its lock: tried until `deadline`,
    /// `None` if the lock stayed taken that long.
    fn snapshot(&self, deadline: Instant) -> Option<ServeSnapshot> {
        loop {
            if let Some(state) = self.state.try_lock() {
                return Some(state.machine.resolver.snapshot());
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(SNAPSHOT_POLL);
        }
    }
}

/// The one alarm clock of all shards, on the wall clock as nanoseconds since
/// `origin` (`u64::MAX`: never).
struct Timer {
    origin: Instant,
    /// Each shard's alarm, written under its lock, read without it.
    due: Vec<AtomicU64>,
    /// Each shard's flights upstream, published with its `due`.
    flights: Vec<AtomicUsize>,
    /// When the timer thread wakes: no later than any `due` while it waits,
    /// moved down by whoever arms a shard earlier, raised only by the timer,
    /// which folds every `due` back in after each pass.
    next: AtomicU64,
    /// The kernel's timer slack, read once: see [`park_for`].
    slack: Duration,
    /// How long after `next` each pass that steps a shard woke.
    lateness: Histogram,
    /// The timer thread, unparked when `next` moves down (none in tests
    /// that drive [`ShardSet::land_due`] themselves).
    thread: OnceLock<Thread>,
}

impl Timer {
    fn new(shards: usize, registry: &Registry) -> Timer {
        let (name, help) = sdoh_core::METRIC_TIMER_LATENESS;
        Timer {
            origin: Instant::now(),
            due: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            flights: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            next: AtomicU64::new(u64::MAX),
            slack: timer_slack(),
            lateness: registry.histogram_with(name, help, &[]),
            thread: OnceLock::new(),
        }
    }

    /// Whether one flight is upstream over all shards: nobody shares its wake.
    fn lone(&self) -> bool {
        let flights = self.flights.iter().map(|n| n.load(Ordering::SeqCst));
        flights.sum::<usize>() == 1
    }

    /// `at` as nanoseconds since the origin.
    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets shard `index`'s alarm `wait` from now (`None`: no alarm) and its
    /// `flights`. When the alarm moved `earlier` and that brings the timer's
    /// instant down, the timer is unparked to wait again; `unpark` keeps a
    /// token, so the wake-up is not lost if the timer is between its check
    /// and its park.
    fn arm(&self, index: usize, wait: Option<Duration>, earlier: bool, flights: usize) {
        let at = wait
            .and_then(|wait| Instant::now().checked_add(wait))
            .map_or(u64::MAX, |at| self.nanos(at));
        if let Some(count) = self.flights.get(index) {
            count.store(flights, Ordering::SeqCst);
        }
        if let Some(due) = self.due.get(index) {
            due.store(at, Ordering::SeqCst);
        }
        if earlier && self.next.fetch_min(at, Ordering::SeqCst) > at {
            self.unpark();
        }
    }

    fn unpark(&self) {
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }
}

/// The runtime's shards, in shard order, the ways out their steps share
/// and the timer that lands what no socket thread meets. Shared by every
/// runtime thread and the control plane.
pub(crate) struct ShardSet {
    cells: Vec<ShardCell>,
    timer: Timer,
    udp: UdpSocket,
    counters: FrontCounters,
}

impl ShardSet {
    /// `shards`, their counters and histograms in `registry`.
    fn new(shards: Vec<Shard>, limit: usize, udp: UdpSocket, registry: &Registry) -> ShardSet {
        let counters = FrontCounters::register(registry);
        let (name, help) = sdoh_core::METRIC_SERVE_LATENCY;
        ShardSet {
            timer: Timer::new(shards.len(), registry),
            cells: shards
                .into_iter()
                .enumerate()
                .map(|(index, shard)| ShardCell {
                    state: Mutex::new(ShardState {
                        machine: ShardMachine::new(shard, limit),
                        alarm: None,
                        flights: 0,
                    }),
                    latency: registry.histogram_with(name, help, &[("shard", &index.to_string())]),
                    acked: AtomicU64::new(0),
                })
                .collect(),
            udp,
            counters,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// The epoch each shard last adopted, in shard order.
    pub(crate) fn acked_epochs(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|cell| cell.acked.load(Ordering::Acquire))
            .collect()
    }

    /// **The** way a shard changes: steps shard `index` with `item` under its
    /// lock, performs the effects under the same hold as the step hands them
    /// out — a query's answer before the step goes on to what is due — then
    /// arms the timer with the next due instant on the wall clock (the
    /// machine's clock read first, so never before the alarm) and its flights.
    /// A query whose step moved the alarm earlier counts in
    /// `sdoh_shard_wakes_total`. Returns the wait it armed: how long until the
    /// next round trip upstream is over (`None`: none, no shard, or a query
    /// step that moved neither alarm nor flights and armed nothing).
    fn step(&self, index: usize, item: Option<Item<'_>>) -> Option<Duration> {
        let cell = self.cells.get(index)?;
        let query = matches!(item, Some(Item::Query { .. }));
        let mut guard = ShardCell::lock(cell);
        let state: &mut ShardState = &mut guard;
        let machine: &mut ShardMachine = &mut state.machine;
        let due = machine.step(item, &mut |effects| self.perform(cell, effects));
        let flights = machine.resolver.live_generations();
        if query && due == state.alarm && flights == state.flights {
            // Neither the alarm nor the flights moved (a hit, or a miss that
            // joined a flight): the timer waits for the alarm already, and
            // neither its atomics nor the clock are touched.
            // The timer's own steps re-arm: on a clock that lags the wall
            // clock, one that landed nothing puts the alarm back ahead.
            return None;
        }
        let now = machine.exchanger.now();
        let earlier = due.is_some_and(|due| state.alarm.is_none_or(|alarm| due < alarm));
        state.alarm = due;
        state.flights = flights;
        let wait = due.map(|due| due.saturating_duration_since(now));
        self.timer.arm(index, wait, earlier, flights);
        if earlier && query {
            self.counters.wakes.inc();
        }
        wait
    }

    /// Performs what shard `cell`'s step wrote, and empties `effects` for the
    /// rest of the step: stores the epoch it adopted, then per answer records
    /// its latency, counts a truncation and sends it, keeping its buffer for
    /// an answer to come.
    fn perform(&self, cell: &ShardCell, effects: &mut Effects) {
        if let Some(epoch) = effects.adopted.take() {
            cell.acked.store(epoch, Ordering::Release);
        }
        let Effects { answers, spare, .. } = effects;
        for answer in answers.drain(..) {
            // Histogram recording is two relaxed fetch_adds on this shard's
            // own cache lines — no lock, no allocation.
            cell.latency.record(answer.started.elapsed());
            if answer.truncated {
                self.counters.truncated.inc();
            }
            match answer.reply {
                ReplyPath::Udp(peer) => {
                    if !answer.octets.is_empty() {
                        let _ = self.udp.send_to(&answer.octets, peer);
                    }
                }
                ReplyPath::Tcp(answers, mut lent) => {
                    lent.extend_from_slice(&answer.octets);
                    let _ = answers.send(lent);
                }
            }
            spare.push(answer.octets);
        }
    }

    /// Hands each shard in turn its order, in shard order: see "Who waits
    /// for landings" in the module doc for when it is adopted.
    pub(crate) fn reconfigure(&self, orders: impl IntoIterator<Item = EpochOrder>) {
        for (index, order) in orders.into_iter().enumerate() {
            self.step(index, Some(Item::Order(Box::new(order))));
        }
    }

    /// One pass of the timer: steps every shard whose alarm is due at `now`
    /// (a shard on a simulated clock lands what its own clock says is due),
    /// and folds every shard's next alarm into the instant the timer waits for.
    /// Returns whether it stepped a shard.
    fn land_due(&self, now: Instant) -> bool {
        let timer = &self.timer;
        timer.next.store(u64::MAX, Ordering::SeqCst);
        let now = timer.nanos(now);
        let mut stepped = false;
        for (index, due) in timer.due.iter().enumerate() {
            if due.load(Ordering::SeqCst) <= now {
                self.step(index, None);
                stepped = true;
            }
            timer
                .next
                .fetch_min(due.load(Ordering::SeqCst), Ordering::SeqCst);
        }
        stepped
    }

    /// Every shard's [`ServeSnapshot`] (`None`: its lock was not free by
    /// `timeout`) and the total of those read.
    fn snapshots(&self, timeout: Duration) -> (Vec<Option<ServeSnapshot>>, ServeSnapshot) {
        let deadline = Instant::now() + timeout;
        let per_shard: Vec<Option<ServeSnapshot>> = self
            .cells
            .iter()
            .map(|cell| cell.snapshot(deadline))
            .collect();
        let mut total = ServeSnapshot::default();
        for snapshot in per_shard.iter().flatten() {
            total.absorb(snapshot);
        }
        (per_shard, total)
    }
}

/// The timer thread: waits until the earliest alarm over all shards — with
/// none armed, for centuries or until a socket thread arms one — and lands
/// what is due, recording how late it woke; a lone flight's park is led by
/// the slack. It takes no lock of its own, only each due shard's.
// sdoh-lint: entry(transitive-hot-path-purity, "lands every round trip no socket thread meets")
fn timer_loop(shards: &ShardSet, stop: &AtomicBool) {
    let timer = &shards.timer;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        let (next, at) = (timer.next.load(Ordering::SeqCst), timer.nanos(now));
        match next.saturating_sub(at) {
            0 => {
                if shards.land_due(now) {
                    timer.lateness.record(Duration::from_nanos(at - next));
                }
            }
            wait => {
                let park = park_for(Duration::from_nanos(wait), timer.slack, timer.lone());
                std::thread::park_timeout(park);
            }
        }
    }
}

/// The running threaded front end. Dropping it without calling
/// [`PoolRuntime::shutdown`] aborts the process threads ungracefully
/// (detached); always shut down explicitly.
pub struct PoolRuntime {
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    control: ControlHandle,
    /// The dispatcher, the TCP acceptor and the timer.
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    clock: crate::clock::RuntimeClock,
    registry: Registry,
    stats_server: Option<StatsServer>,
}

impl PoolRuntime {
    /// Binds the sockets and spawns the dispatcher, TCP and timer threads.
    /// The runtime serves exactly `shards` until it shuts down; their
    /// number partitions the cache and adds no thread.
    ///
    /// # Errors
    ///
    /// Propagates socket binding/configuration failures: an explicit
    /// port taken on either side fails at once, port 0 only after several
    /// picks all had their TCP side taken. `shards` must be non-empty and
    /// [`RuntimeConfig::validate`] must pass.
    pub fn start(config: RuntimeConfig, shards: Vec<Shard>) -> std::io::Result<PoolRuntime> {
        // The runtime-level config epoch starts from the first shard's
        // cache knobs (shards are normally built homogeneous); epoch 0.
        let first_cache_config = match shards.first() {
            Some(shard) => shard.resolver.cache_config(),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "a runtime needs at least one shard",
                ))
            }
        };
        config.validate().map_err(|err| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, err.to_string())
        })?;
        let (udp, tcp) = bind_front_door(config.bind, || UdpSocket::bind(config.bind))?;
        let tcp = passed_on(tcp, TCP_IO_BUDGET)?;
        let udp_addr = udp.local_addr()?;
        let tcp_addr = tcp.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let registry = Registry::new();
        let clock = crate::clock::RuntimeClock::new();

        let shards = ShardSet::new(shards, config.udp_payload_limit, udp, &registry);
        let shards = Arc::new(shards);
        let control = ControlHandle::new(Arc::clone(&shards), first_cache_config);

        // The serve-layer counters live inside the shards; a scrape-time
        // collector reads fresh snapshots under the shards' locks and
        // renders them through the shared serve vocabulary, plus the
        // control-plane epoch gauges.
        {
            let control = control.clone();
            registry.register_collector(Box::new(move || {
                let shards = control.shards();
                let (per_shard, total) = shards.snapshots(SNAPSHOT_TIMEOUT);
                let mut samples = snapshot_samples(&total, &[]);
                samples.push(gauge(
                    sdoh_core::METRIC_SHARDS,
                    Vec::new(),
                    shards.len() as f64,
                ));
                samples.push(gauge(
                    sdoh_core::METRIC_UNRESPONSIVE_SHARDS,
                    Vec::new(),
                    count_unresponsive(&per_shard) as f64,
                ));
                samples.push(gauge(
                    sdoh_core::METRIC_CONFIG_EPOCH,
                    Vec::new(),
                    control.current_epoch() as f64,
                ));
                for (index, acked) in control.acked_epochs().into_iter().enumerate() {
                    samples.push(gauge(
                        sdoh_core::METRIC_SHARD_ACKED_EPOCH,
                        vec![("shard".to_string(), index.to_string())],
                        acked as f64,
                    ));
                }
                samples
            }));
        }

        let stats_server = match config.stats_bind {
            Some(bind) => {
                let scrape_registry = registry.clone();
                let scrape_control = control.clone();
                let handler: sdoh_metrics::Handler = Arc::new(move |path| match path {
                    "/metrics" => {
                        HttpResponse::ok_text(render_prometheus(&scrape_registry.gather()))
                    }
                    "/config" => HttpResponse::ok_json(scrape_control.config_json()),
                    "/healthz" => healthz(scrape_control.shards()),
                    _ => HttpResponse::text(404, "not found\n"),
                });
                Some(StatsServer::start(bind, handler)?)
            }
            None => None,
        };

        // Three threads, whatever the shard count (plus the optional stats
        // listener above): the timer first, so that a socket thread's first
        // unpark reaches it, then the dispatcher and the TCP acceptor.
        let spawn = |name: &str, run: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new().name(name.into()).spawn(run)
        };
        let (set, halt) = (Arc::clone(&shards), Arc::clone(&stop));
        let timer = spawn(TIMER_THREAD, Box::new(move || timer_loop(&set, &halt)))?;
        let _ = shards.timer.thread.set(timer.thread().clone());
        let (set, halt) = (Arc::clone(&shards), Arc::clone(&stop));
        let dispatcher = spawn(
            "sdoh-dispatch",
            Box::new(move || dispatcher_loop(&set, &halt)),
        )?;
        let (set, halt) = (Arc::clone(&shards), Arc::clone(&stop));
        let run = move || tcp_loop(&tcp, &set, &halt);
        let acceptor = spawn("sdoh-tcp", Box::new(run))?;
        let threads = vec![timer, dispatcher, acceptor];

        Ok(PoolRuntime {
            udp_addr,
            tcp_addr,
            control,
            threads,
            stop,
            clock,
            registry,
            stats_server,
        })
    }

    /// The bound UDP address clients send queries to.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The bound TCP fallback address: the port of
    /// [`PoolRuntime::udp_addr`], where a client retries a truncated answer.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The bound stats-listener address (`None` when
    /// [`RuntimeConfig::stats_bind`] was `None`).
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.stats_server.as_ref().map(|server| server.addr())
    }

    /// The metrics registry this runtime exports: the front-door counters,
    /// per-shard serving-latency histograms and the serve-layer snapshot
    /// collector. Clone it to register additional application metrics
    /// (e.g. time-sync or chaos counters) on the same `/metrics` endpoint.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of serving shards (cache partitions): the shards the runtime
    /// was started with.
    pub fn shard_count(&self) -> usize {
        self.control.shards().len()
    }

    /// The control plane of this runtime: hot reconfiguration
    /// ([`ControlHandle::apply`]). Cloneable; hold it on an operator
    /// thread while the runtime serves.
    pub fn control(&self) -> ControlHandle {
        self.control.clone()
    }

    /// **The** statistics accessor: takes an on-demand aggregate right
    /// now, reading every shard's [`ServeSnapshot`] under its lock and
    /// merging them. Each shard's snapshot is internally consistent; shards
    /// are sampled at slightly different instants (one after the other).
    pub fn stats(&self) -> RuntimeStats {
        let shards = self.control.shards();
        let (per_shard, total) = shards.snapshots(SNAPSHOT_TIMEOUT);
        let counters = &shards.counters;
        RuntimeStats {
            per_shard,
            total,
            udp_queries: counters.udp_received.get(),
            tcp_queries: counters.tcp_received.get(),
            truncated_responses: counters.truncated.get(),
            dropped_queries: counters.dropped.get(),
            config_epoch: self.control.current_epoch(),
            taken_at: self.clock.now(),
        }
    }

    /// Graceful shutdown: stop accepting traffic, land what every shard has
    /// upstream, take the final aggregate and join every thread. Returns the
    /// final statistics; [`RuntimeStats::config_epoch`] is the final epoch.
    pub fn shutdown(mut self) -> RuntimeStats {
        // 1. Stop the socket threads, the timer and the stats listener (so
        //    no scrape races the landing): no new query reaches a shard.
        //    Each socket thread blocks on its socket and is woken by one
        //    throw-away message.
        let shards = self.control.shards();
        self.stop.store(true, Ordering::SeqCst);
        let _ = shards.udp.send_to(&[], wake_addr(self.udp_addr));
        let _ = TcpStream::connect_timeout(&wake_addr(self.tcp_addr), Duration::from_secs(1));
        shards.timer.unpark();
        if let Some(mut server) = self.stats_server.take() {
            server.shutdown();
        }
        for handle in std::mem::take(&mut self.threads) {
            let _ = handle.join();
        }
        // 2. Every shard lands what it has upstream, sleeping out the last
        //    round trips between its steps — nobody is left to wait for it —
        //    so the numbers include every accepted query and every
        //    generation begun. A step before the round trip is over (a sleep
        //    led by the slack) lands nothing and returns the rest.
        for index in 0..shards.len() {
            while let Some(wait) = shards.step(index, None) {
                std::thread::sleep(park_for(wait, shards.timer.slack, true));
            }
        }
        self.stats()
    }
}

impl std::fmt::Debug for PoolRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolRuntime")
            .field("udp_addr", &self.udp_addr)
            .field("tcp_addr", &self.tcp_addr)
            .field("shards", &self.shard_count())
            .field("epoch", &self.control.current_epoch())
            .finish()
    }
}

/// How many ephemeral ports a port-0 start tries before giving up.
const EPHEMERAL_BIND_ATTEMPTS: usize = 8;

/// Binds the classic Do53 pair: a UDP socket from `pick_udp` and a TCP
/// listener on the same address and port number.
///
/// With port 0 the OS picks the number for the UDP side alone, and the
/// TCP side of that number may be taken (another listener, or TIME_WAIT
/// leftovers of an earlier one): the pick is then repeated, a bounded
/// number of times. An explicit port is the operator's choice and fails
/// fast.
fn bind_front_door(
    bind: SocketAddr,
    mut pick_udp: impl FnMut() -> std::io::Result<UdpSocket>,
) -> std::io::Result<(UdpSocket, TcpListener)> {
    let attempts = if bind.port() == 0 {
        EPHEMERAL_BIND_ATTEMPTS
    } else {
        1
    };
    // Rejected picks stay bound until a pair is found, so the OS cannot
    // hand the same number out again.
    let mut rejected = Vec::with_capacity(attempts);
    loop {
        let udp = pick_udp()?;
        match TcpListener::bind(udp.local_addr()?) {
            Ok(listener) => return Ok((udp, listener)),
            Err(e)
                if e.kind() == std::io::ErrorKind::AddrInUse && rejected.len() + 1 < attempts =>
            {
                rejected.push(udp);
            }
            Err(e) => return Err(e),
        }
    }
}

/// `listener`, set once with what each connection it accepts inherits:
/// `budget` for each read and write (an idle `accept` too, which returns
/// `WouldBlock`) and `TCP_NODELAY`, through a stream lent its descriptor.
fn passed_on(listener: TcpListener, budget: Duration) -> std::io::Result<TcpListener> {
    let stream = TcpStream::from(OwnedFd::from(listener));
    stream.set_read_timeout(Some(budget))?;
    stream.set_write_timeout(Some(budget))?;
    stream.set_nodelay(true)?;
    Ok(TcpListener::from(OwnedFd::from(stream)))
}

/// Shards that missed the snapshot deadline.
fn count_unresponsive(per_shard: &[Option<ServeSnapshot>]) -> usize {
    per_shard.iter().filter(|s| s.is_none()).count()
}

/// The `/healthz` readiness probe: 200 when every shard's snapshot was
/// read within the health deadline, 503 otherwise, with shard liveness and
/// the pool-guarantee state (generation failures, negative serves).
fn healthz(shards: &ShardSet) -> HttpResponse {
    let (per_shard, total) = shards.snapshots(HEALTH_TIMEOUT);
    let unresponsive = count_unresponsive(&per_shard);
    let ready = unresponsive == 0;
    let body = format!(
        "{}\nshards {}\nunresponsive_shards {}\ncache_entries {}\npending_refreshes {}\n\
         live_generations {}\ngeneration_failures {}\nnegative_hits {}\nguarantee_degraded {}\n",
        if ready { "ok" } else { "unready" },
        per_shard.len(),
        unresponsive,
        total.entries,
        total.pending_refreshes,
        total.live_generations,
        total.serve.generation_failures,
        total.serve.negative_hits,
        total.serve.generation_failures > 0,
    );
    HttpResponse::text(if ready { 200 } else { 503 }, body)
}

/// The shard `query` is served by: a hash of its question's name — hashed
/// as [`NameRef`](sdoh_dns_wire::NameRef) defines name equality, the one the
/// cache key compares by, so a name routes alike in any case and however it
/// is spelled — and its type, so every `(domain, address family)` key is
/// one shard's. A query that did not parse, or asks nothing, goes to shard
/// 0, which answers it as the Do53 core does.
fn route(query: Option<&QueryView<'_>>, shards: usize) -> usize {
    let Some(question) = query.and_then(QueryView::question) else {
        return 0;
    };
    let mut hasher = DefaultHasher::new();
    question.name.hash(&mut hasher);
    hasher.write_u16(question.rtype.code());
    let shards = u64::try_from(shards.max(1)).unwrap_or(u64::MAX);
    usize::try_from(hasher.finish() % shards).unwrap_or(0)
}

// sdoh-lint: entry(transitive-hot-path-purity, "steps a shard with each UDP query through `ShardSet::step`; the TCP thread steps through the same function, so it needs no marker of its own")
fn dispatcher_loop(shards: &ShardSet, stop: &AtomicBool) {
    let mut buf = [0u8; 4096];
    loop {
        let received = shards.udp.recv_from(&mut buf);
        // `shutdown` wakes this blocking receive with an empty datagram:
        // what arrives once `stop` is set is neither counted nor routed.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match received {
            Ok((len, peer)) => {
                shards.counters.udp_received.inc();
                // recv_from wrote `len <= buf.len()` bytes.
                let Some(wire) = buf.get(..len) else {
                    continue;
                };
                if !serve_query(shards, wire, ReplyPath::Udp(peer)) {
                    shards.counters.dropped.inc();
                }
            }
            // An error (a signal, ICMP feedback) is not about the next datagram.
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Answers one query a socket thread read, from its receive buffer, through
/// [`ShardSet::step`] on the shard its question routes to. The query is
/// parsed here, once: the route and the step read the same view.
/// `false` when no shard took it.
fn serve_query(shards: &ShardSet, wire: &[u8], reply: ReplyPath) -> bool {
    let started = Instant::now();
    let query = QueryView::parse(wire).ok();
    let index = route(query.as_ref(), shards.len());
    shards.step(
        index,
        Some(Item::Query {
            wire,
            query: query.as_ref(),
            reply,
            started,
        }),
    );
    index < shards.len()
}

fn tcp_loop(listener: &TcpListener, shards: &ShardSet, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        // `shutdown` wakes this blocking accept with a connection of its
        // own: what is accepted once `stop` is set is not served.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Connections are handled inline: the TCP path only exists
                // as the fallback for truncated answers, so one connection
                // at a time keeps the thread budget fixed. The next waits
                // up to `TCP_IO_BUDGET` per read or write of this one that
                // makes no progress (`passed_on`), up to `TCP_ANSWER_WAIT`
                // per query not answered yet, and for as long as this one
                // makes progress. What removes the hold-up is non-blocking
                // connections polled by this one thread, not a thread per
                // connection (ROADMAP item 3b).
                let _ = serve_framed(stream, shards);
            }
            // The listener's read budget ran out with nobody connecting.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            // An error (a reset in the backlog, a signal) is not about the
            // next connection: leaving would strand every truncated pool.
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Serves RFC 1035 4.2.2 length-prefixed queries from any byte stream until
/// the peer closes (or a read times out), each through [`serve_query`] as
/// the dispatcher serves its. Octets are read into one buffer per
/// connection, as many as a read returns: a length and its query that
/// arrive together take one read, and octets read past a query wait there
/// for the next. An answer leaves behind its length in one write: with
/// `TCP_NODELAY` set, each write is a segment of its own.
///
/// Answers come back over one channel per connection — a hit's before
/// [`serve_query`] returns, a miss's when its flight lands — one query out
/// at a time, each appended to the one frame buffer the connection lends
/// with its query, behind room for its length. A query not answered within
/// [`TCP_ANSWER_WAIT`] ends the connection and drops the channel, so a late
/// answer is never read as the next query's.
fn serve_framed(mut stream: impl Read + Write, shards: &ShardSet) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel();
    // `inbox[..filled]` is what was read and not yet served; it grows to
    // hold the longest frame the peer sends.
    let (mut inbox, mut filled, mut framed) = (vec![0u8; 512], 0, Vec::new());
    loop {
        // Reads until the inbox holds a whole frame: its length, then as
        // many octets. Ending before a length is the connection done;
        // ending inside a frame is an error.
        let frame = loop {
            let declared = match inbox.get(..filled) {
                Some([hi, lo, ..]) => Some(2 + usize::from(u16::from_be_bytes([*hi, *lo]))),
                _ => None,
            };
            if let Some(frame) = declared {
                if filled >= frame {
                    break frame;
                }
                if inbox.len() < frame {
                    inbox.resize(frame, 0);
                }
            }
            match stream.read(inbox.get_mut(filled..).unwrap_or_default()) {
                Ok(0) if declared.is_none() => return Ok(()),
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(read) => filled += read,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) if declared.is_none() => return Ok(()),
                Err(e) => return Err(e),
            }
        };
        shards.counters.tcp_received.inc();
        let wire = inbox.get(2..frame).unwrap_or_default();
        framed.clear();
        framed.extend_from_slice(&[0, 0]);
        let reply = ReplyPath::Tcp(tx.clone(), std::mem::take(&mut framed));
        if !serve_query(shards, wire, reply) {
            shards.counters.dropped.inc();
            return Ok(());
        }
        inbox.copy_within(frame..filled, 0);
        filled -= frame;
        framed = match rx.recv_timeout(TCP_ANSWER_WAIT) {
            Ok(bytes) => bytes,
            Err(_) => return Ok(()),
        };
        // The Do53 core answers SERVFAIL in place of a response over
        // 65 535 bytes, so this holds; a truncated frame would be corruption.
        let (Ok(len), Some(prefix)) = (
            u16::try_from(framed.len().saturating_sub(2)),
            framed.get_mut(..2),
        ) else {
            return Ok(());
        };
        prefix.copy_from_slice(&len.to_be_bytes());
        stream.write_all(&framed)?;
    }
}

/// What a shard is stepped with (a timer pass: nothing).
enum Item<'a> {
    /// A query's octets and the view read from them (`None`: they did not
    /// parse), handed to its shard at `started`.
    Query {
        wire: &'a [u8],
        query: Option<&'a QueryView<'a>>,
        reply: ReplyPath,
        started: Instant,
    },
    Order(Box<EpochOrder>),
}

/// A query waiting on the shard — on a flight, or behind a control order —
/// its octets in a buffer of its own.
struct Waiter {
    octets: Vec<u8>,
    reply: ReplyPath,
    started: Instant,
}

/// One answer a step wrote, in the buffer it was rendered in, and whether
/// it is the TC=1 stand-in for one too long for its UDP client.
struct Answer {
    octets: Vec<u8>,
    reply: ReplyPath,
    started: Instant,
    truncated: bool,
}

/// What a step hands [`ShardSet::step`] to perform — the answers written,
/// in order, and the epoch adopted last — and the buffers answers are
/// rendered in.
#[derive(Default)]
struct Effects {
    udp_payload_limit: usize,
    /// Where the next answer is rendered.
    response: Vec<u8>,
    answers: Vec<Answer>,
    /// The buffers of answers performed, for the next to be rendered in.
    spare: Vec<Vec<u8>>,
    adopted: Option<u64>,
}

impl Effects {
    /// Takes the rendered response as the answer to `query` (`None`: one
    /// that never decoded). A UDP answer longer than `query`'s sender can
    /// receive becomes the TC=1 response.
    fn answer(&mut self, query: Option<&QueryView<'_>>, reply: ReplyPath, started: Instant) {
        // An answer that fits every client needs no look at the query.
        let truncated = matches!(reply, ReplyPath::Udp(_))
            && self.response.len() > self.udp_payload_limit.min(CLASSIC_UDP_PAYLOAD)
            && self.response.len() > udp_ceiling(query, self.udp_payload_limit);
        if truncated {
            truncate_for_udp(query, &mut self.response);
        }
        let next = self.spare.pop().unwrap_or_default();
        self.answers.push(Answer {
            octets: std::mem::replace(&mut self.response, next),
            reply,
            started,
            truncated,
        });
    }
}

/// A shard: the resolver (which keeps its own batches upstream), the
/// queries parked on its flights, and the control orders not adopted yet. It
/// changes only through [`step`](ShardMachine::step), which writes what it
/// means to send or publish into its [`Effects`].
struct ShardMachine {
    resolver: CachingPoolResolver,
    exchanger: Box<dyn Exchanger + Send>,
    /// The queries parked on each live flight, in arrival order, flights in
    /// opening order (ids only grow): a landing finds its own flight's list
    /// by binary search and takes it, touching no one else's.
    parked: VecDeque<(FlightId, Vec<Waiter>)>,
    /// The queries deferred behind an order not adopted yet, in arrival
    /// order: adopting the order drains this and nothing else.
    deferred: Vec<Waiter>,
    /// Emptied waiter lists and query buffers, for the next to park: parking
    /// and landing allocate nothing once they have grown.
    spare_lists: Vec<Vec<Waiter>>,
    spare_octets: Vec<Vec<u8>>,
    /// Control orders not adopted yet, in epoch order: the first waits for
    /// the flights upstream to land, and every query behind it is deferred.
    orders: Vec<EpochOrder>,
    /// What the last step left, until the next begins.
    effects: Effects,
}

impl ShardMachine {
    fn new(shard: Shard, udp_payload_limit: usize) -> ShardMachine {
        ShardMachine {
            resolver: shard.resolver,
            exchanger: shard.exchanger,
            parked: VecDeque::new(),
            deferred: Vec::new(),
            spare_lists: Vec::new(),
            spare_octets: Vec::new(),
            orders: Vec::new(),
            effects: Effects {
                udp_payload_limit,
                ..Effects::default()
            },
        }
    }

    /// **The** entry: serves the query or takes the order, then
    /// [`pump`](ShardMachine::pump)s. Its effects replace the last step's,
    /// and are handed to `perform` twice: once the item's are written, so
    /// a query's answer does not wait for what is due, and at the end.
    fn step(
        &mut self,
        item: Option<Item<'_>>,
        perform: &mut impl FnMut(&mut Effects),
    ) -> Option<SimInstant> {
        self.effects.answers.clear();
        self.effects.adopted = None;
        match item {
            Some(Item::Query {
                wire,
                query,
                reply,
                started,
            }) => {
                self.serve(wire, query, reply, started);
                perform(&mut self.effects);
            }
            Some(Item::Order(order)) => self.orders.push(*order),
            None => {}
        }
        let due = self.pump();
        perform(&mut self.effects);
        due
    }

    /// The one serve function: `query`, the view read from `wire` where it
    /// lies, through the shared Do53 core — the simulated `Do53Service`'s
    /// wire behaviour by construction — around the resolver's first step;
    /// octets that did not parse are answered FORMERR. A miss is parked
    /// under its flight; behind an order not adopted yet, every query is
    /// deferred.
    fn serve(
        &mut self,
        wire: &[u8],
        query: Option<&QueryView<'_>>,
        reply: ReplyPath,
        started: Instant,
    ) {
        if !self.orders.is_empty() {
            let waiter = self.waiter(wire, reply, started);
            return self.deferred.push(waiter);
        }
        let effects = &mut self.effects;
        let Some(query) = query else {
            write_do53_formerr(wire, &mut effects.response);
            return effects.answer(None, reply, started);
        };
        effects.response.clear();
        let begun = self
            .resolver
            .begin(self.exchanger.as_mut(), query, &mut effects.response);
        match begun {
            Ok(Some(flight)) => self.park(flight, wire, reply, started),
            answered => {
                finish_do53_answer(query, answered.map(drop), &mut effects.response);
                effects.answer(Some(query), reply, started);
            }
        }
    }

    /// A query waiting on the shard, its octets copied into a spare buffer.
    fn waiter(&mut self, wire: &[u8], reply: ReplyPath, started: Instant) -> Waiter {
        let mut octets = self.spare_octets.pop().unwrap_or_default();
        octets.clear();
        octets.extend_from_slice(wire);
        Waiter {
            octets,
            reply,
            started,
        }
    }

    /// Parks a query on `flight`, behind the queries already waiting on it.
    fn park(&mut self, flight: FlightId, wire: &[u8], reply: ReplyPath, started: Instant) {
        let waiter = self.waiter(wire, reply, started);
        match self.parked.binary_search_by_key(&flight, |(id, _)| *id) {
            Ok(at) => {
                if let Some((_, waiters)) = self.parked.get_mut(at) {
                    waiters.push(waiter);
                }
            }
            Err(at) => {
                let mut waiters = self.spare_lists.pop().unwrap_or_default();
                waiters.push(waiter);
                // A path call: the lint's by-name pass would take a method
                // call named `insert` for `Registry::insert`.
                VecDeque::insert(&mut self.parked, at, (flight, waiters));
            }
        }
    }

    /// Everything due **now**. With no order waiting and nothing for the
    /// resolver to do before its next arrival
    /// ([`CachingPoolResolver::has_work`]: no flight opened and not yet
    /// departed, no refresh queued) — a cache hit, a miss that joined a live
    /// flight, the timer's step before a round trip is over — the pump
    /// compares the resolver's earliest arrival with one reading of the
    /// clock (none with nothing upstream) and, if nothing is due, returns:
    /// it visits no flight, no batch and no waiter, however many are
    /// upstream. Otherwise
    /// the resolver lands the batches whose round trip is over, the queued
    /// refreshes open, the queries parked on what landed are answered, what
    /// the flights with work have to send departs as one batch, and the orders
    /// that may be are adopted — repeated while anything is already due, so
    /// a zero round trip lands before another query can join its flight.
    /// Returns the resolver's next arrival, the next instant anything is
    /// due, if any.
    // sdoh-lint: allow(transitive-hot-path-purity, "the miss path, at the end of every step: past the first check only with a flight opened and not departed, an arrival due, a refresh queued or an order waiting, at most one generation per (question, TTL window), whose fan-out dwarfs the one request buffer a batch takes (its tags reuse the resolver's); a cache hit returns at the first check, after one clock reading, whatever is upstream")
    fn pump(&mut self) -> Option<SimInstant> {
        let quiet = self.orders.is_empty() && !self.resolver.has_work();
        let wake = self.resolver.next_arrival();
        if quiet && wake.is_none_or(|at| at > self.exchanger.now()) {
            return wake;
        }
        loop {
            self.resolver.arrive(self.exchanger.as_mut());
            // No refresh leaves under the old set while an order waits for
            // its flights to land: the refreshes stay queued until the
            // step that adopts it.
            if self.orders.is_empty() {
                self.resolver.begin_due_refreshes(self.exchanger.as_mut());
            }
            while let Some(landed) = self.resolver.poll(self.exchanger.as_mut()) {
                self.answer_parked(&landed);
            }
            if self.adopt_orders() {
                // What the deferred queries began leaves in the next turn.
                continue;
            }
            let wake = self.resolver.next_arrival();
            if wake.is_none_or(|at| at > self.exchanger.now()) {
                return wake;
            }
        }
    }

    /// Answers the queries parked on the flight that `landed`, in arrival
    /// order — each read where it lies in its own buffer, through the
    /// closing half of the Do53 core. The other flights' waiters are neither
    /// visited nor moved.
    // sdoh-lint: entry(transitive-hot-path-purity, "behind `pump`'s pruning boundary, yet the way out of every parked miss")
    fn answer_parked(&mut self, landed: &Landed) {
        // A refresh's flight has nobody waiting on it.
        let found = self
            .parked
            .binary_search_by_key(&landed.flight, |(id, _)| *id);
        let Some((_, mut waiters)) = found.ok().and_then(|at| self.parked.remove(at)) else {
            return;
        };
        let effects = &mut self.effects;
        for waiter in waiters.drain(..) {
            // The octets parsed when the query was parked.
            if let Ok(query) = QueryView::parse(&waiter.octets) {
                let rendered = landed.answer_wire(&query, &mut effects.response);
                finish_do53_answer(&query, rendered, &mut effects.response);
                effects.answer(Some(&query), waiter.reply, waiter.started);
            }
            self.spare_octets.push(waiter.octets);
        }
        self.spare_lists.push(waiters);
    }

    /// Adopts the waiting orders, in epoch order — a source or pool swap
    /// only once nothing is upstream, so nothing the old set generated is
    /// cached after its ack — then, once none waits, serves the queries
    /// deferred behind them, in arrival order. The queries parked on flights
    /// stay where they are. `true` when it adopted one.
    fn adopt_orders(&mut self) -> bool {
        let mut adopted = false;
        while let Some(order) = self.orders.first() {
            let lands_first = order.sources.is_some() || order.pool.is_some();
            if lands_first && self.resolver.next_arrival().is_some() {
                return adopted;
            }
            let mut order = self.orders.remove(0);
            if let Some(sources) = order.sources.take() {
                // Checked non-empty by ControlHandle::apply.
                let _ = self.resolver.generator_mut().replace_sources(sources);
            }
            if let Some(pool) = &order.pool {
                // Pre-validated by ControlHandle::apply.
                let _ = self.resolver.generator_mut().set_config(pool.clone());
            }
            let now = self.exchanger.now();
            self.resolver.apply_config(order.cache, now);
            self.effects.adopted = Some(order.epoch);
            adopted = true;
        }
        if adopted {
            let mut deferred = std::mem::take(&mut self.deferred);
            for waiter in deferred.drain(..) {
                let query = QueryView::parse(&waiter.octets).ok();
                // What it opens departs in the pump's next turn.
                self.serve(&waiter.octets, query.as_ref(), waiter.reply, waiter.started);
                self.spare_octets.push(waiter.octets);
            }
            // No order waits any more, so nobody was deferred meanwhile.
            self.deferred = deferred;
        }
        adopted
    }
}

/// The longest datagram a client that said nothing about itself must
/// accept (RFC 1035 4.2.1).
const CLASSIC_UDP_PAYLOAD: usize = 512;

/// The longest UDP answer `query`'s sender can receive: the payload size
/// its OPT record advertises — [`CLASSIC_UDP_PAYLOAD`] without one, and
/// never less (RFC 6891 6.2.5) — capped by the operator's `limit`.
fn udp_ceiling(query: Option<&QueryView<'_>>, limit: usize) -> usize {
    let advertised = query
        .and_then(QueryView::payload_size)
        .map_or(CLASSIC_UDP_PAYLOAD, usize::from);
    limit.min(advertised.max(CLASSIC_UDP_PAYLOAD))
}

/// Replaces an oversized UDP answer in `out` by the empty TC=1 response:
/// echo of the query's id and question with the truncation bit set, no
/// records — the standard "retry over TCP" signal, written from the query
/// where it lies. Nothing is sent for a query that never decoded.
fn truncate_for_udp(query: Option<&QueryView<'_>>, out: &mut Vec<u8>) {
    out.clear();
    if let Some(query) = query {
        let truncated = Header {
            truncated: true,
            ..Header::response_to(query.header())
        };
        let _ = query.write_response(truncated, 0, [], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ConfigDelta;
    use crate::{LoopbackConfig, LoopbackFleet};
    use sdoh_core::{doh_sources, CacheConfig, PoolConfig};
    use sdoh_dns_server::{Departure, ExchangeOutcome, ExchangeRequest, QueryHandler};
    use sdoh_dns_wire::{Message, Name, Rcode, RrType, Ttl};
    use sdoh_netsim::{ChannelKind, NetResult, SimAddr};
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicUsize;

    /// The shard `wire` routes to among `shards`, as [`serve_query`] routes
    /// it.
    fn shard_for(wire: &[u8], shards: usize) -> usize {
        route(QueryView::parse(wire).ok().as_ref(), shards)
    }

    fn query_wire(domain: &str, rtype: sdoh_dns_wire::RrType) -> Vec<u8> {
        Message::query(7, domain.parse().unwrap(), rtype)
            .encode()
            .unwrap()
    }

    #[test]
    fn sharding_is_stable_and_family_aware() {
        let a1 = query_wire("pool.ntp.org", sdoh_dns_wire::RrType::A);
        let a2 = query_wire("POOL.NTP.ORG", sdoh_dns_wire::RrType::A);
        let aaaa = query_wire("pool.ntp.org", sdoh_dns_wire::RrType::Aaaa);
        // Same key, same shard, for any shard count; case-insensitive.
        for shards in 1..=16 {
            assert_eq!(shard_for(&a1, shards), shard_for(&a2, shards));
        }
        // The two families of one domain are distinct keys: with enough
        // shard counts they must land apart at least once.
        assert!(
            (2..=16).any(|n| shard_for(&a1, n) != shard_for(&aaaa, n)),
            "family never separated the shard choice"
        );
        // Malformed input routes to shard 0 instead of panicking.
        assert_eq!(shard_for(b"", 8), 0);
        assert_eq!(shard_for(&[0u8; 12], 8), 0);
        // A question whose name is a pointer: id 0x0178 reads as the label
        // "x" and the flags' first octet as the terminating zero. It is the
        // key `x`/A, spelled otherwise, and routes with it.
        let pointed = [
            0x01, b'x', 0x00, 0x00, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x00, 0, 1, 0, 1,
        ];
        let whole = query_wire("x", RrType::A);
        for shards in 1..=16 {
            assert_eq!(shard_for(&pointed, shards), shard_for(&whole, shards));
        }
        // Nor does a pointer that does not point backwards parse: shard 0.
        let mut forward = pointed;
        forward[13] = 12;
        assert_eq!(shard_for(&forward, 8), 0);
    }

    #[test]
    fn question_hash_spreads_domains() {
        let shards = 8;
        let hit: std::collections::HashSet<usize> = (0..64)
            .map(|i| {
                shard_for(
                    &query_wire(&format!("pool{i}.ntpns.org"), sdoh_dns_wire::RrType::A),
                    shards,
                )
            })
            .collect();
        assert!(
            hit.len() > shards / 2,
            "64 domains hit {} shards",
            hit.len()
        );
    }

    /// A UDP pick whose TCP side this test holds. Tests run in parallel and
    /// bind ephemeral ports of their own, so a pick whose TCP side someone
    /// else took first is skipped, not an error.
    fn squat(any: SocketAddr) -> std::io::Result<(UdpSocket, TcpListener)> {
        loop {
            let udp = UdpSocket::bind(any)?;
            if let Ok(listener) = TcpListener::bind(udp.local_addr()?) {
                return Ok((udp, listener));
            }
        }
    }

    #[test]
    fn port_zero_start_repicks_when_the_tcp_side_is_taken() {
        let any = SocketAddr::from(([127, 0, 0, 1], 0));
        // Whoever holds the TCP side of the first pick, holds it for the
        // whole bind.
        let mut squatter = None;
        let mut picks = Vec::new();
        let (udp, tcp) = bind_front_door(any, || {
            let udp = if picks.is_empty() {
                let (udp, listener) = squat(any)?;
                squatter = Some(listener);
                udp
            } else {
                UdpSocket::bind(any)?
            };
            picks.push(udp.local_addr()?.port());
            Ok(udp)
        })
        .expect("a second pick finds a free pair");
        assert_eq!(picks.len(), 2, "one rejected pick, one accepted");
        assert_ne!(picks[0], picks[1]);
        assert_eq!(udp.local_addr().unwrap().port(), picks[1]);
        assert_eq!(tcp.local_addr().unwrap(), udp.local_addr().unwrap());

        // An explicit port whose TCP side is taken fails fast, no re-pick.
        let taken = squatter.as_ref().unwrap().local_addr().unwrap();
        let mut tries = 0;
        let err = bind_front_door(taken, || {
            tries += 1;
            UdpSocket::bind(taken)
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert_eq!(tries, 1);

        // Port 0 gives up after a bounded number of picks.
        let mut squatters = Vec::new();
        let mut tries = 0;
        let err = bind_front_door(any, || {
            tries += 1;
            let (udp, listener) = squat(any)?;
            squatters.push(listener);
            Ok(udp)
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert_eq!(tries, EPHEMERAL_BIND_ATTEMPTS);
    }

    /// `n` shards of `fleet` behind `ShardSet::step`, with no thread of
    /// their own; the tests ask over the TCP reply path.
    fn open_shards(fleet: &LoopbackFleet, n: usize, cache: CacheConfig) -> ShardSet {
        open(fleet.shards(n, PoolConfig::algorithm1(), cache).unwrap())
    }

    /// [`open_shards`] over shards already built.
    fn open(shards: Vec<Shard>) -> ShardSet {
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        ShardSet::new(shards, 1232, udp, &Registry::new())
    }

    /// `fleet`'s shards on a clock the test moves, one per entry of `rtts`:
    /// each of a shard's round trips takes its `rtt` of `clock`, so nothing
    /// upstream lands before the test says the round trip is over.
    fn stepped(
        fleet: &LoopbackFleet,
        cache: CacheConfig,
        clock: &sdoh_netsim::SimClock,
        rtts: &[Duration],
    ) -> Vec<Shard> {
        let shards = fleet
            .shards(rtts.len(), PoolConfig::algorithm1(), cache)
            .unwrap();
        shards
            .into_iter()
            .zip(rtts)
            .map(|(shard, &rtt)| {
                let stepped = Stepped {
                    inner: shard.exchanger,
                    clock: clock.clone(),
                    rtt,
                };
                Shard::new(shard.resolver, Box::new(stepped))
            })
            .collect()
    }

    /// A shard's way upstream whose time is a [`sdoh_netsim::SimClock`]:
    /// the fleet's exchanger, with its batches ready one `rtt` of that clock
    /// after they depart.
    struct Stepped {
        inner: Box<dyn Exchanger + Send>,
        clock: sdoh_netsim::SimClock,
        rtt: Duration,
    }

    impl Exchanger for Stepped {
        fn exchange(
            &mut self,
            dst: SimAddr,
            channel: ChannelKind,
            payload: &[u8],
            timeout: Duration,
        ) -> NetResult<Vec<u8>> {
            self.inner.exchange(dst, channel, payload, timeout)
        }

        fn next_id(&mut self) -> u16 {
            self.inner.next_id()
        }

        fn now(&self) -> SimInstant {
            self.clock.now()
        }

        fn depart(&mut self, requests: Vec<ExchangeRequest>) -> Departure {
            Departure::in_flight(self.clock.now().saturating_add(self.rtt), requests)
        }

        fn arrive(&mut self, departure: Departure) -> Vec<ExchangeOutcome> {
            self.inner.arrive(departure)
        }
    }

    /// What a shard asked of its way upstream: clock readings, departures
    /// and collections.
    #[derive(Default)]
    struct Calls {
        now: AtomicUsize,
        depart: AtomicUsize,
        arrive: AtomicUsize,
    }

    impl Calls {
        /// The three counts, and back to zero.
        fn take(&self) -> [usize; 3] {
            [&self.now, &self.depart, &self.arrive].map(|count| count.swap(0, Ordering::SeqCst))
        }
    }

    /// A shard's way upstream that counts what is asked of it in `calls`.
    struct Counted {
        inner: Box<dyn Exchanger + Send>,
        calls: Arc<Calls>,
    }

    impl Exchanger for Counted {
        fn exchange(
            &mut self,
            dst: SimAddr,
            channel: ChannelKind,
            payload: &[u8],
            timeout: Duration,
        ) -> NetResult<Vec<u8>> {
            self.inner.exchange(dst, channel, payload, timeout)
        }

        fn next_id(&mut self) -> u16 {
            self.inner.next_id()
        }

        fn now(&self) -> SimInstant {
            self.calls.now.fetch_add(1, Ordering::SeqCst);
            self.inner.now()
        }

        fn depart(&mut self, requests: Vec<ExchangeRequest>) -> Departure {
            self.calls.depart.fetch_add(1, Ordering::SeqCst);
            self.inner.depart(requests)
        }

        fn arrive(&mut self, departure: Departure) -> Vec<ExchangeOutcome> {
            self.calls.arrive.fetch_add(1, Ordering::SeqCst);
            self.inner.arrive(departure)
        }
    }

    /// Each of `shards` as the machine `ShardSet::step` steps.
    fn machines(shards: Vec<Shard>) -> Vec<ShardMachine> {
        shards
            .into_iter()
            .map(|shard| ShardMachine::new(shard, 1232))
            .collect()
    }

    /// The one machine of `fleet`'s first shard, on the host clock.
    fn machine(fleet: &LoopbackFleet, cache: CacheConfig) -> ShardMachine {
        let shards = fleet.shards(1, PoolConfig::algorithm1(), cache).unwrap();
        machines(shards).remove(0)
    }

    /// Steps `machine` with `item`, its effects left for the test to read.
    fn step(machine: &mut ShardMachine, item: Option<Item<'_>>) -> Option<SimInstant> {
        machine.step(item, &mut |_| {})
    }

    /// Steps `machine` with `wire`, asked over UDP.
    fn ask(machine: &mut ShardMachine, wire: &[u8]) -> Option<SimInstant> {
        let query = QueryView::parse(wire).ok();
        let item = Item::Query {
            wire,
            query: query.as_ref(),
            reply: ReplyPath::Udp(SocketAddr::from(([127, 0, 0, 1], 5353))),
            started: Instant::now(),
        };
        step(machine, Some(item))
    }

    /// The answers `machine`'s last step wrote, in the order written.
    fn written(machine: &ShardMachine) -> Vec<Message> {
        let answers = &machine.effects.answers;
        answers
            .iter()
            .map(|answer| Message::decode(&answer.octets).unwrap())
            .collect()
    }

    /// How many queries wait on `machine`'s flights, and their octets.
    fn parked(machine: &ShardMachine) -> (usize, usize) {
        let waiters = machine.parked.iter().flat_map(|(_, waiters)| waiters);
        let octets = waiters.clone().map(|waiter| waiter.octets.len()).sum();
        (waiters.count(), octets)
    }

    /// Where each query parked on a shard's flights lies, flight by flight
    /// in arrival order, with its octets.
    type Placement = BTreeMap<FlightId, Vec<(usize, Vec<u8>)>>;

    /// `machine`'s [`Placement`]: a step that moves or rewrites anyone's
    /// octets changes it.
    fn placement(machine: &ShardMachine) -> Placement {
        let lie = |waiter: &Waiter| (waiter.octets.as_ptr().addr(), waiter.octets.clone());
        machine
            .parked
            .iter()
            .map(|(flight, waiters)| (*flight, waiters.iter().map(lie).collect()))
            .collect()
    }

    /// How many octets of the queries parked both `before` and `after` lie
    /// elsewhere, or read otherwise, `after`.
    fn moved_octets(before: &Placement, after: &Placement) -> usize {
        let pairs = after.iter().flat_map(|(flight, now)| {
            let then = before.get(flight).into_iter().flatten();
            now.iter().zip(then)
        });
        pairs
            .filter(|(now, then)| now != then)
            .map(|(_, then)| then.1.len())
            .sum()
    }

    /// Shard `index`, held.
    fn hold(shards: &ShardSet, index: usize) -> MutexGuard<'_, ShardState> {
        ShardCell::lock(&shards.cells[index])
    }

    /// A wall-clock instant past every alarm: the timer pass it is handed
    /// steps every armed shard, which lands what its own clock says is due.
    fn whenever() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    fn a_query(id: u16, domain: &Name) -> Vec<u8> {
        Message::query(id, domain.clone(), RrType::A)
            .encode()
            .unwrap()
    }

    /// The first `n` of `fleet`'s domains whose queries route to shard
    /// `index` of `shards`.
    fn routed_to(fleet: &LoopbackFleet, index: usize, shards: usize, n: usize) -> Vec<&Name> {
        let routed: Vec<&Name> = fleet
            .domains
            .iter()
            .filter(|domain| shard_for(&a_query(0, domain), shards) == index)
            .take(n)
            .collect();
        assert_eq!(routed.len(), n, "too few domains route to shard {index}");
        routed
    }

    /// The ids of the answers waiting on `answers`, in the order sent.
    fn answered(answers: &mpsc::Receiver<Vec<u8>>) -> Vec<u16> {
        answers
            .try_iter()
            .map(|wire| Message::decode(&wire).unwrap().header.id)
            .collect()
    }

    #[test]
    fn accept_errors_do_not_end_the_tcp_loop() {
        // Shut down for reading through a stream lent its descriptor, the
        // listener fails every `accept` at once (`EINVAL`): an error that is
        // not about the next connection, as a reset in the backlog is.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let lent = TcpStream::from(OwnedFd::from(listener.try_clone().unwrap()));
        lent.shutdown(std::net::Shutdown::Read).unwrap();
        let failed = listener.accept().map(drop).unwrap_err();
        assert_ne!(failed.kind(), std::io::ErrorKind::WouldBlock);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let shards = Arc::new(open_shards(&fleet, 1, CacheConfig::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let (task, loop_task) = mpsc::channel();
        let acceptor = {
            let (shards, stop) = (Arc::clone(&shards), Arc::clone(&stop));
            std::thread::spawn(move || {
                task.send(std::fs::read_link("/proc/thread-self")).unwrap();
                tcp_loop(&listener, &shards, &stop);
            })
        };
        // Each failed accept backs off: the loop's thread sleeps (a
        // voluntary context switch) where a spinning one would not.
        let status = std::path::Path::new("/proc").join(loop_task.recv().unwrap().unwrap());
        let sleeps = || {
            let status = std::fs::read_to_string(status.join("status")).unwrap();
            let line = status
                .lines()
                .find(|line| line.starts_with("voluntary_ctxt"));
            let count = line.and_then(|line| line.split_whitespace().nth(1));
            count.unwrap().parse::<u64>().unwrap()
        };
        let before = sleeps();
        std::thread::sleep(ERROR_BACKOFF * 50);
        let backed_off = sleeps() - before;
        assert!(
            backed_off >= 5,
            "{backed_off} back-offs in 50 failed accepts' time"
        );
        assert!(!acceptor.is_finished(), "the errors did not end the loop");
        // It leaves when told to, at its next failed accept.
        stop.store(true, Ordering::SeqCst);
        acceptor.join().unwrap();
        assert_eq!(shards.counters.tcp_received.get(), 0);
    }

    #[test]
    fn an_accepted_stream_carries_the_options_set_on_its_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let listener = passed_on(listener, TCP_IO_BUDGET).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert_eq!(stream.read_timeout().unwrap(), Some(TCP_IO_BUDGET));
        assert_eq!(stream.write_timeout().unwrap(), Some(TCP_IO_BUDGET));
        assert!(stream.nodelay().unwrap());
    }

    #[test]
    fn an_idle_accept_is_a_tick_and_the_next_connection_is_served() {
        const IDLE: Duration = Duration::from_millis(30);
        let listener = passed_on(TcpListener::bind("127.0.0.1:0").unwrap(), IDLE).unwrap();
        let addr = listener.local_addr().unwrap();
        let started = Instant::now();
        let idle = listener.accept().map(drop).unwrap_err();
        assert_eq!(idle.kind(), std::io::ErrorKind::WouldBlock);
        assert!(started.elapsed() >= IDLE, "the read budget bounds accept");
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let shards = Arc::new(open_shards(&fleet, 1, CacheConfig::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (shards, stop) = (Arc::clone(&shards), Arc::clone(&stop));
            std::thread::spawn(move || tcp_loop(&listener, &shards, &stop))
        };
        // Several idle accepts later a query over the listener is answered.
        std::thread::sleep(IDLE * 4);
        let mut stream = TcpStream::connect(addr).unwrap();
        let wire = a_query(9, &fleet.domains[0]);
        let len = u16::try_from(wire.len()).unwrap().to_be_bytes();
        stream.write_all(&[&len[..], &wire].concat()).unwrap();
        let mut len = [0u8; 2];
        stream.read_exact(&mut len).unwrap();
        let mut framed = vec![0u8; usize::from(u16::from_be_bytes(len))];
        stream.read_exact(&mut framed).unwrap();
        assert_eq!(Message::decode(&framed).unwrap().header.id, 9);
        drop(stream);
        stop.store(true, Ordering::SeqCst);
        acceptor.join().unwrap();
    }

    /// A stream that reads from a script, at most `chunk` octets a read,
    /// counts its reads and keeps every write apart.
    struct Recorded {
        script: std::io::Cursor<Vec<u8>>,
        chunk: usize,
        reads: usize,
        writes: Vec<Vec<u8>>,
    }

    impl Recorded {
        fn new(script: Vec<u8>) -> Self {
            Recorded {
                script: std::io::Cursor::new(script),
                chunk: usize::MAX,
                reads: 0,
                writes: Vec::new(),
            }
        }

        /// Each write as the one answer it frames, behind its length.
        fn answers(&self) -> Vec<Message> {
            let answer = |write: &Vec<u8>| {
                let len = usize::from(u16::from_be_bytes([write[0], write[1]]));
                assert_eq!(len, write.len() - 2, "its length in front");
                Message::decode(&write[2..]).unwrap()
            };
            self.writes.iter().map(answer).collect()
        }
    }

    impl Read for Recorded {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let len = buf.len().min(self.chunk);
            self.script.read(&mut buf[..len])
        }
    }

    impl Write for Recorded {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `wire` behind its RFC 1035 length prefix.
    fn framed(wire: &[u8]) -> Vec<u8> {
        let len = u16::try_from(wire.len()).unwrap().to_be_bytes();
        [&len[..], wire].concat()
    }

    #[test]
    fn a_tcp_answer_leaves_in_one_write() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let shards = open_shards(&fleet, 1, CacheConfig::default());
        // A pool, then a query cut short; then the peer closes.
        let mut malformed = a_query(2, &fleet.domains[1]);
        malformed.truncate(15);
        let mut stream =
            Recorded::new([framed(&a_query(1, &fleet.domains[0])), framed(&malformed)].concat());
        serve_framed(&mut stream, &shards).unwrap();
        assert_eq!(stream.writes.len(), 2, "each answer one write");
        let answers = stream.answers();
        assert_eq!(answers[0].header.id, 1);
        assert_eq!(answers[0].answer_addresses().len(), 24);
        assert_eq!(
            (answers[1].header.id, answers[1].header.rcode),
            (2, Rcode::FormErr)
        );
        assert_eq!(shards.counters.tcp_received.get(), 2);
    }

    /// What `serve_framed` makes of `script` read at most `chunk` octets at
    /// a time: the ids of the answers it wrote, each in one write behind
    /// its length, and the reads it made.
    fn framed_reads(script: Vec<u8>, chunk: usize) -> (Vec<u16>, usize) {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let shards = open_shards(&fleet, 1, CacheConfig::default());
        let mut stream = Recorded::new(script);
        stream.chunk = chunk;
        serve_framed(&mut stream, &shards).unwrap();
        let ids = stream.answers().iter().map(|a| a.header.id).collect();
        let received = shards.counters.tcp_received.get();
        assert_eq!(received, stream.writes.len() as u64);
        (ids, stream.reads)
    }

    /// A length and its query that arrive together are read together: one
    /// read, and one more that finds the peer gone. It took three reads.
    #[test]
    fn a_whole_tcp_frame_takes_one_read() {
        let domain = &LoopbackFleet::build(LoopbackConfig::default()).domains[0];
        assert_eq!(
            framed_reads(framed(&a_query(1, domain)), usize::MAX),
            (vec![1], 2)
        );
    }

    /// A frame that arrives an octet at a time is served once its last
    /// octet is in, and the next where it follows.
    #[test]
    fn a_tcp_frame_in_one_octet_reads_is_served() {
        let domains = LoopbackFleet::build(LoopbackConfig::default()).domains;
        let script = [
            framed(&a_query(1, &domains[0])),
            framed(&a_query(2, &domains[1])),
        ]
        .concat();
        let octets = script.len();
        assert_eq!(framed_reads(script, 1), (vec![1, 2], octets + 1));
    }

    /// Two frames in one read: the second waits in the buffer and is
    /// served after the first, without another read.
    #[test]
    fn two_tcp_frames_in_one_read_are_served_in_order() {
        let domains = LoopbackFleet::build(LoopbackConfig::default()).domains;
        let script = [
            framed(&a_query(1, &domains[0])),
            framed(&a_query(2, &domains[1])),
        ]
        .concat();
        assert_eq!(framed_reads(script, usize::MAX), (vec![1, 2], 2));
    }

    /// The longest frame a length can declare, 65 535 octets, grows the
    /// buffer to hold it: read in two reads, and answered.
    #[test]
    fn a_65_535_octet_tcp_frame_is_served() {
        let domain = &LoopbackFleet::build(LoopbackConfig::default()).domains[0];
        let mut query = a_query(7, domain);
        query.resize(65_535, 0);
        assert_eq!(framed_reads(framed(&query), usize::MAX), (vec![7], 3));
    }

    /// Two queries written back to back on one connection, for keys of two
    /// different shards, each a miss parked until a round trip of the
    /// test's clock is over: each gets its own answer, in the order asked,
    /// and the second is read only once the first is answered.
    #[test]
    fn pipelined_tcp_queries_get_their_own_answers_in_order() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 8,
            ..LoopbackConfig::default()
        });
        let clock = sdoh_netsim::SimClock::new();
        let shards = open(stepped(&fleet, CacheConfig::default(), &clock, &[RTT, RTT]));
        // The first asked goes to the second shard, the second to the first.
        let asked = [
            a_query(1, routed_to(&fleet, 1, 2, 1)[0]),
            a_query(2, routed_to(&fleet, 0, 2, 1)[0]),
        ];
        let mut stream = Recorded::new([framed(&asked[0]), framed(&asked[1])].concat());
        // The test plays the timer: each round trip is over once the clock
        // has moved, and the pass after that lands it.
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    clock.advance(RTT);
                    shards.land_due(whenever());
                    std::thread::yield_now();
                }
            });
            serve_framed(&mut stream, &shards).unwrap();
            done.store(true, Ordering::SeqCst);
        });
        let answers = stream.answers();
        let ids: Vec<u16> = answers.iter().map(|answer| answer.header.id).collect();
        assert_eq!(ids, [1, 2], "each query's own answer, in order");
        for (answer, wire) in answers.iter().zip(&asked) {
            assert!(answer.answers_query(&Message::decode(wire).unwrap()));
            assert_eq!(answer.answer_addresses().len(), 24);
        }
        assert_eq!(shards.counters.tcp_received.get(), 2);
    }

    #[test]
    fn a_query_to_a_busy_shard_is_answered_once_it_is_free() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let shards = &open_shards(&fleet, 1, CacheConfig::default());
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16| {
            serve_query(
                shards,
                &a_query(id, &fleet.domains[0]),
                ReplyPath::Tcp(reply.clone(), Vec::new()),
            )
        };

        // The test holds the shard: the socket thread waits for its lock,
        // and nobody can serve the query yet.
        let busy = hold(shards, 0);
        std::thread::scope(|scope| {
            let socket_thread = scope.spawn(|| ask(1));
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                answers.try_recv().is_err(),
                "served while the shard was busy"
            );
            assert!(!socket_thread.is_finished(), "gave up on the busy shard");
            drop(busy);
            assert!(socket_thread.join().unwrap());
        });
        // Answered by the thread that read it, before its call returned.
        let first = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(first.header.id, 1);
        assert_eq!(first.answer_addresses().len(), 24);
        // The next query (a hit now) is answered the same way.
        assert!(ask(2));
        let second = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(second.header.id, 2);

        let snapshot = hold(shards, 0).machine.resolver.snapshot();
        assert_eq!((snapshot.serve.queries, snapshot.serve.hits), (2, 1));
        assert_eq!(snapshot.serve.generations, 1);
    }

    /// Through the control plane: `apply` steps the order into the shard
    /// under its lock, and the ack is read as soon as `apply` returns.
    #[test]
    fn a_query_read_after_apply_returns_is_served_under_the_new_epoch() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let shards = open(stepped(&fleet, CacheConfig::default(), &clock, &[RTT]));
        let control = ControlHandle::new(Arc::new(shards), CacheConfig::default());
        let shards = control.shards();
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: &Name| {
            let tcp = ReplyPath::Tcp(reply.clone(), Vec::new());
            assert!(serve_query(shards, &a_query(id, domain), tcp));
        };
        let land = || {
            clock.advance(RTT);
            shards.land_due(whenever());
        };
        let (warm, cold, colder) = (&fleet.domains[0], &fleet.domains[1], &fleet.domains[2]);

        // A cache-only order needs no landing: adopted and acked before
        // `apply` returns, with a flight upstream.
        ask(1, warm);
        let cache = CacheConfig::default().with_ttl(Ttl::from_secs(7));
        let receipt = control.apply(ConfigDelta::new().with_cache(cache)).unwrap();
        assert_eq!(control.acked_epochs(), [receipt.epoch]);
        land();
        assert_eq!(answered(&answers), [1]);
        ask(2, warm);
        let hit = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(hit.header.id, 2);
        assert!(
            hit.answers.iter().all(|record| record.ttl == 7),
            "served under the new TTL"
        );

        // A source swap with a flight upstream waits for it to land, and
        // every query read meanwhile waits behind the order: the hit too.
        ask(3, cold);
        let honest = fleet.infos[1..].to_vec();
        let receipt = control
            .apply(ConfigDelta::new().with_sources(Arc::new(move |_shard| doh_sources(&honest))))
            .unwrap();
        assert_eq!(
            control.acked_epochs(),
            [1],
            "the old set's flight is upstream"
        );
        ask(4, warm);
        ask(5, colder);
        assert!(answers.try_recv().is_err(), "a query overtook the order");
        {
            let machine = &hold(shards, 0).machine;
            assert_eq!((parked(machine).0, machine.deferred.len()), (1, 2));
        }
        // The old set's flight lands, the order is adopted, and the queries
        // behind it are served in arrival order: the hit at once, the miss
        // by the new set, one round trip later.
        land();
        assert_eq!(control.acked_epochs(), [receipt.epoch]);
        let landed: Vec<Message> = answers
            .try_iter()
            .map(|wire| Message::decode(&wire).unwrap())
            .collect();
        let ids: Vec<u16> = landed.iter().map(|answer| answer.header.id).collect();
        assert_eq!(ids, [3, 4]);
        assert_eq!(
            landed[0].answer_addresses().len(),
            24,
            "the set it left with"
        );
        land();
        let new = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(new.header.id, 5);
        assert_eq!(new.answer_addresses().len(), 16, "two honest resolvers");
        assert!(new
            .answer_addresses()
            .iter()
            .all(|address| fleet.benign.contains(address)));
    }

    /// A source swap that would leave a shard without resolvers is refused
    /// before anything is published. It used to be acked by every shard,
    /// the emptied one keeping its old set.
    #[test]
    fn a_source_swap_that_empties_a_shard_is_refused() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let rtts = [Duration::ZERO, Duration::ZERO];
        let shards = open(stepped(&fleet, CacheConfig::default(), &clock, &rtts));
        let control = ControlHandle::new(Arc::new(shards), CacheConfig::default());
        let infos = fleet.infos.clone();
        let delta = ConfigDelta::new().with_sources(Arc::new(move |shard| {
            doh_sources(if shard == 1 { &[] } else { &infos })
        }));
        match control.apply(delta) {
            Err(sdoh_core::ConfigError::Invalid { field, .. }) => assert_eq!(field, "sources"),
            other => panic!("a set empty for shard 1 was not refused: {other:?}"),
        }
        assert_eq!(control.current_epoch(), 0);
        assert_eq!(control.acked_epochs(), [0, 0]);
    }

    #[test]
    fn a_zero_rtt_miss_served_in_place_is_answered_before_the_call_returns() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let mut machine = machine(&fleet, CacheConfig::default());
        let due = ask(&mut machine, &a_query(1, &fleet.domains[0]));
        // Departed, landed and answered in one step, which leaves nothing
        // for the timer.
        let answer = written(&machine).remove(0);
        assert_eq!(answer.header.id, 1);
        assert_eq!(answer.answer_addresses().len(), 24);
        assert_eq!(due, None);
        assert!(machine.parked.is_empty() && machine.resolver.next_arrival().is_none());
        let snapshot = machine.resolver.snapshot();
        assert_eq!((snapshot.serve.misses, snapshot.serve.generations), (1, 1));

        // Through the driver, under one hold of the lock: answered before
        // `serve_query` returns, with no alarm armed and no wake counted.
        let shards = open_shards(&fleet, 1, CacheConfig::default());
        let (reply, answers) = mpsc::channel();
        let (wire, tcp) = (
            a_query(1, &fleet.domains[0]),
            ReplyPath::Tcp(reply, Vec::new()),
        );
        assert!(serve_query(&shards, &wire, tcp));
        let answer = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(answer.header.id, 1);
        assert_eq!(answer.answer_addresses().len(), 24);
        assert_eq!(shards.counters.wakes.get(), 0);
        assert_eq!(shards.timer.next.load(Ordering::SeqCst), u64::MAX);
        let state = hold(&shards, 0);
        assert!(state.machine.parked.is_empty());
        assert_eq!(state.machine.resolver.next_arrival(), None);
        assert_eq!(state.alarm, None);
        let snapshot = state.machine.resolver.snapshot();
        assert_eq!((snapshot.serve.misses, snapshot.serve.generations), (1, 1));
    }

    #[test]
    fn the_timer_lands_what_no_socket_thread_meets_earliest_first() {
        const LATER: Duration = Duration::from_millis(2);
        const EARLIER: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 12,
            ..LoopbackConfig::default()
        });
        let clock = sdoh_netsim::SimClock::new();
        let shards = &open(stepped(
            &fleet,
            CacheConfig::default(),
            &clock,
            &[LATER, EARLIER],
        ));
        let (timer, wakes) = (&shards.timer, &shards.counters.wakes);
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: &Name| {
            assert!(serve_query(
                shards,
                &a_query(id, domain),
                ReplyPath::Tcp(reply.clone(), Vec::new())
            ));
        };
        let alarms = || [hold(shards, 0).alarm, hold(shards, 1).alarm];
        let due = |index: usize| timer.due[index].load(Ordering::SeqCst);
        let next = || timer.next.load(Ordering::SeqCst);
        let (late, early) = (routed_to(&fleet, 0, 2, 1), routed_to(&fleet, 1, 2, 2));

        // The later alarm is set first: it arms the timer, and its flight is
        // the only one upstream.
        ask(1, late[0]);
        assert!(timer.lone());
        assert_eq!(wakes.get(), 1);
        assert_eq!(alarms(), [Some(clock.now().saturating_add(LATER)), None]);
        assert_eq!(next(), due(0));
        // The earlier one second: it moves the timer down, and two flights
        // are upstream over the two shards.
        ask(2, early[0]);
        assert!(!timer.lone());
        assert_eq!(wakes.get(), 2);
        let alarm = Some(clock.now().saturating_add(EARLIER));
        assert_eq!(alarms()[1], alarm);
        assert_eq!(next(), due(0).min(due(1)));
        // A second miss in the same round trip is due no earlier: the
        // timer does not move, and nothing is counted.
        let before = next();
        ask(3, early[1]);
        assert_eq!(wakes.get(), 2);
        assert_eq!(alarms()[1], alarm);
        assert_eq!(next(), before);
        let upstream = hold(shards, 1).machine.resolver.snapshot();
        assert_eq!(upstream.live_generations, 2, "two flights, two batches");
        assert!(
            answers.try_recv().is_err(),
            "a miss is answered when it lands"
        );

        // No socket traffic from here on: the timer alone lands both
        // flights, the earlier first.
        clock.advance(EARLIER);
        shards.land_due(whenever());
        assert_eq!(answered(&answers), [2, 3]);
        assert_eq!(
            alarms(),
            [Some(clock.now().saturating_add(LATER - EARLIER)), None]
        );
        assert_eq!((next(), due(1)), (due(0), u64::MAX));
        clock.advance(LATER - EARLIER);
        shards.land_due(whenever());
        assert_eq!(answered(&answers), [1]);
        assert_eq!(alarms(), [None, None]);
        assert_eq!(next(), u64::MAX, "nothing left to wait for");
        assert_eq!(wakes.get(), 2);
    }

    /// A lone flight, and the passes of the timer around its instant. One
    /// miss publishes one flight upstream, and a second miss on another key
    /// clears that, though its batch is due with the first and leaves the
    /// alarm where it was. A timer pass 1 ns before the alarm's wall-clock
    /// instant steps no shard; one at the instant steps the shard, which
    /// lands nothing while its own clock is 1 ns short of the round trip,
    /// and lands the flight at the instant that step re-armed.
    #[test]
    fn a_lone_flight_is_published_and_is_landed_at_its_instant_not_before() {
        const RTT: Duration = Duration::from_millis(2);
        const NS: Duration = Duration::from_nanos(1);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let shards = &open(stepped(&fleet, CacheConfig::default(), &clock, &[RTT]));
        let timer = &shards.timer;
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: &Name| {
            let tcp = ReplyPath::Tcp(reply.clone(), Vec::new());
            assert!(serve_query(shards, &a_query(id, domain), tcp));
        };
        let due = || timer.origin + Duration::from_nanos(timer.due[0].load(Ordering::SeqCst));
        let flights = || timer.flights[0].load(Ordering::SeqCst);

        ask(1, &fleet.domains[0]);
        assert!(timer.lone());
        clock.advance(RTT - NS);
        let instant = due();
        assert!(
            !shards.land_due(instant - NS),
            "1 ns early: no shard stepped"
        );
        assert!(shards.land_due(instant));
        assert!(
            answers.try_recv().is_err(),
            "1 ns short on the shard's clock"
        );
        assert!(timer.lone());
        clock.advance(NS);
        assert!(shards.land_due(due()));
        assert_eq!(answered(&answers), [1], "landed at the instant");
        assert_eq!((flights(), timer.lone()), (0, false));

        ask(2, &fleet.domains[1]);
        let (alarm, wakes) = (hold(shards, 0).alarm, shards.counters.wakes.get());
        assert!(timer.lone());
        ask(3, &fleet.domains[2]);
        assert_eq!(
            (hold(shards, 0).alarm, shards.counters.wakes.get()),
            (alarm, wakes)
        );
        assert_eq!((flights(), timer.lone()), (2, false));
        clock.advance(RTT);
        assert!(shards.land_due(due()));
        assert_eq!(answered(&answers), [2, 3]);
        assert_eq!(flights(), 0);
    }

    /// The timer steps a shard whose own clock lags the wall clock: the
    /// wall-clock alarm has gone off, but on the shard's clock the round
    /// trip is not over. The step lands nothing and leaves the shard's
    /// alarm where it was, and still re-arms the timer, putting the alarm
    /// back ahead on the wall clock — left in the past, it would bring the
    /// timer straight back to the shard, over and over, until the shard's
    /// clock caught up.
    #[test]
    fn a_timer_step_before_the_shards_own_clock_is_due_puts_the_alarm_back_ahead() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let shards = &open(stepped(&fleet, CacheConfig::default(), &clock, &[RTT]));
        let timer = &shards.timer;
        let (reply, answers) = mpsc::channel();
        let miss = a_query(1, &fleet.domains[0]);
        assert!(serve_query(
            shards,
            &miss,
            ReplyPath::Tcp(reply, Vec::new())
        ));
        let alarm = hold(shards, 0).alarm;
        assert_eq!(alarm, Some(clock.now().saturating_add(RTT)));

        // The wall clock passes the alarm; the shard's clock stands still.
        std::thread::sleep(RTT * 3);
        let gone_off = timer.nanos(Instant::now());
        assert!(timer.due[0].load(Ordering::SeqCst) <= gone_off);
        shards.land_due(Instant::now());
        assert!(answers.try_recv().is_err(), "nothing landed");
        assert_eq!(hold(shards, 0).alarm, alarm, "the shard's alarm stays");
        let due = timer.due[0].load(Ordering::SeqCst);
        assert!(
            due > gone_off,
            "the wall-clock alarm is back ahead, not {}ns behind",
            gone_off - due
        );
        assert_eq!(timer.next.load(Ordering::SeqCst), due, "the timer waits");
    }

    #[test]
    fn queries_parked_on_flights_that_land_apart_keep_their_own_octets() {
        const RTT: Duration = Duration::from_millis(2);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let shards = stepped(&fleet, CacheConfig::default(), &clock, &[RTT]);
        let mut machine = machines(shards).remove(0);
        let (first, second) = (&fleet.domains[0], &fleet.domains[1]);
        let shouted: Name = second.to_string().to_uppercase().parse().unwrap();
        let asked = [
            a_query(1, first),
            a_query(2, second),
            a_query(3, first),
            a_query(4, &shouted),
        ];
        // Two flights, departing half a round trip apart, each with two
        // queries parked on it in arrival order 1, 2, 3, 4.
        for (at, wire) in asked.iter().enumerate() {
            if at == 1 {
                clock.advance(RTT / 2);
            }
            ask(&mut machine, wire);
            assert!(written(&machine).is_empty());
        }
        assert_eq!(parked(&machine), (4, asked.iter().map(Vec::len).sum()));

        // The first flight lands: its queries are answered, and the second
        // flight's wait on.
        clock.advance(RTT / 2);
        step(&mut machine, None);
        let mut answered = written(&machine);
        assert_eq!(parked(&machine), (2, asked[1].len() + asked[3].len()));
        clock.advance(RTT / 2);
        step(&mut machine, None);
        answered.extend(written(&machine));
        assert_eq!(parked(&machine), (0, 0));

        // Each answer echoes its own query, spelling included.
        let ids: Vec<u16> = answered.iter().map(|answer| answer.header.id).collect();
        assert_eq!(ids, [1, 3, 2, 4]);
        for answer in &answered {
            let query = Message::decode(&asked[usize::from(answer.header.id) - 1]).unwrap();
            assert!(answer.answers_query(&query));
            let (echoed, sent) = (answer.question().unwrap(), query.question().unwrap());
            assert!(echoed.name.eq_case_exact(&sent.name));
            assert_eq!(answer.answer_addresses().len(), 24);
        }
    }

    /// Caches `domain` in `machine` through the blocking entry point.
    fn prime(machine: &mut ShardMachine, domain: &Name) {
        let query = Message::query(0, domain.clone(), RrType::A);
        let primed = machine
            .resolver
            .handle_query(machine.exchanger.as_mut(), &query);
        assert_eq!(primed.answer_addresses().len(), 24);
    }

    /// Stamps the entries of `machine`'s cache that `expire` picks as
    /// expired, on the way out of its cache and back in: their next query
    /// is a stale hit.
    fn expire(machine: &mut ShardMachine, expire: impl Fn(&sdoh_core::PoolKey) -> bool) {
        let now = machine.exchanger.now();
        for (key, mut cached) in machine.resolver.extract_entries(expire) {
            cached.expires_at = cached.generated_at;
            assert!(machine.resolver.install_entry(key, cached, now));
        }
    }

    #[test]
    fn a_round_trip_that_is_over_is_landed_by_the_next_hit_served_in_place() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let shards = stepped(&fleet, CacheConfig::default(), &clock, &[RTT]);
        let mut machine = machines(shards).remove(0);
        let (cold, warm) = (&fleet.domains[0], &fleet.domains[1]);
        prime(&mut machine, warm);

        // Nobody steps the timer: the miss waits upstream, and its step
        // leaves an alarm where there was none (`ShardSet::step` counts a
        // wake).
        let due = ask(&mut machine, &a_query(1, cold));
        assert!(written(&machine).is_empty());
        assert_eq!(due, Some(clock.now().saturating_add(RTT)));
        clock.advance(RTT);
        // The next query is a hit, and its step does what is due: the miss
        // is answered behind it, in the same step, which leaves no alarm
        // (no wake: the miss's own, and no more). The hit's answer is handed
        // out to be sent before the step lands anything.
        let mut performed: Vec<Vec<u16>> = Vec::new();
        let hit_wire = a_query(2, warm);
        let hit_view = QueryView::parse(&hit_wire).ok();
        let hit = Item::Query {
            wire: &hit_wire,
            query: hit_view.as_ref(),
            reply: ReplyPath::Udp(SocketAddr::from(([127, 0, 0, 1], 5353))),
            started: Instant::now(),
        };
        let due = machine.step(Some(hit), &mut |effects| {
            let answers = effects.answers.drain(..);
            performed.push(
                answers
                    .map(|answer| Message::decode(&answer.octets).unwrap().header.id)
                    .collect(),
            );
        });
        assert_eq!(performed, [[2], [1]]);
        assert_eq!(due, None);
        assert!(machine.parked.is_empty() && machine.resolver.next_arrival().is_none());
        let snapshot = machine.resolver.snapshot();
        assert_eq!((snapshot.serve.hits, snapshot.serve.generations), (1, 2));
    }

    #[test]
    fn misses_and_refreshes_met_in_place_are_finished_by_the_timer() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 8,
            ..LoopbackConfig::default()
        });
        let cache = CacheConfig::default()
            .with_ttl(Ttl::from_secs(60))
            .with_stale_window(Duration::from_secs(3600));
        let clock = sdoh_netsim::SimClock::new();
        let mut machines = machines(stepped(&fleet, cache, &clock, &[RTT, RTT]));
        let (cold_domain, stale_domain) = (&fleet.domains[0], &fleet.domains[1]);
        // One shard has the stale domain cached, stamped as expired: its
        // next query is a stale hit.
        prime(&mut machines[1], stale_domain);
        expire(&mut machines[1], |_| true);
        clock.advance(RTT);

        // The miss parks, its batch leaves in the step that served it, and
        // the step leaves an alarm for its round trip.
        let due = ask(&mut machines[0], &a_query(1, cold_domain));
        let cold = &machines[0];
        assert_eq!(cold.parked.len(), 1);
        assert_eq!(
            cold.resolver.next_arrival(),
            Some(clock.now().saturating_add(RTT))
        );
        assert_eq!(due, Some(clock.now().saturating_add(RTT)));
        assert!(written(cold).is_empty(), "a miss is answered when it lands");
        // The stale hit is answered in its step, and its refresh departs
        // the same way: the other shard's alarm is set.
        let due = ask(&mut machines[1], &a_query(2, stale_domain));
        let stale = written(&machines[1]).remove(0);
        assert_eq!(stale.header.id, 2);
        assert!(stale.answers.iter().all(|record| record.ttl == 0));
        let refresh = machines[1].resolver.next_arrival();
        assert_eq!(refresh, Some(clock.now().saturating_add(RTT)));
        assert_eq!(due, Some(clock.now().saturating_add(RTT)));

        // Once the round trip is over, the timer's steps land the
        // generation and the refresh; the miss is answered from its landing.
        clock.advance(RTT);
        step(&mut machines[0], None);
        step(&mut machines[1], None);
        let miss = written(&machines[0]).remove(0);
        assert_eq!(miss.header.id, 1);
        assert_eq!(miss.answer_addresses().len(), 24);
        let snapshot = machines[0].resolver.snapshot();
        assert_eq!((snapshot.serve.misses, snapshot.serve.generations), (1, 1));
        let snapshot = machines[1].resolver.snapshot();
        assert_eq!(snapshot.serve.stale_serves, 1);
        assert_eq!(snapshot.serve.refreshes, 1);
        assert_eq!(snapshot.serve.generations, 2);
        assert_eq!(snapshot.live_generations, 0);
    }

    /// A cached hit while F flights are upstream, F = 1, 16, 256: its step
    /// reads the shard's clock twice — the cache lookup, and the pump's one
    /// look at the earliest arrival, the only reading beside the lookup and
    /// the latency histogram's — departs and collects nothing, and leaves
    /// the alarm, the timer's atomics and the wake count as they were.
    #[test]
    fn a_hit_with_flights_upstream_leaves_them_and_the_timer_alone() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 257,
            ..LoopbackConfig::default()
        });
        let (warm, cold) = fleet.domains.split_first().unwrap();
        for flights in [1, 16, 256] {
            let clock = sdoh_netsim::SimClock::new();
            let calls = Arc::new(Calls::default());
            let shard = stepped(&fleet, CacheConfig::default(), &clock, &[RTT]).remove(0);
            let counted = Counted {
                inner: shard.exchanger,
                calls: Arc::clone(&calls),
            };
            let shards = &open(vec![Shard::new(shard.resolver, Box::new(counted))]);
            prime(&mut hold(shards, 0).machine, warm);
            let (reply, answers) = mpsc::channel();
            let ask = |id: usize, domain: &Name| {
                let tcp = ReplyPath::Tcp(reply.clone(), Vec::new());
                let wire = a_query(u16::try_from(id).unwrap(), domain);
                assert!(serve_query(shards, &wire, tcp));
            };
            // Each miss opens its flight, and its step departs it.
            for (id, domain) in cold.iter().take(flights).enumerate() {
                ask(id + 1, domain);
            }
            let upstream = hold(shards, 0).machine.resolver.snapshot();
            assert_eq!(upstream.live_generations, flights);
            assert_eq!(calls.take()[1], flights, "one batch per flight");
            let timer = &shards.timer;
            let armed = || {
                let due = timer.due[0].load(Ordering::SeqCst);
                let next = timer.next.load(Ordering::SeqCst);
                let published = timer.flights[0].load(Ordering::SeqCst);
                (
                    due,
                    next,
                    published,
                    hold(shards, 0).alarm,
                    shards.counters.wakes.get(),
                )
            };
            let before = armed();
            assert!(before.3.is_some());
            assert_eq!(before.2, flights, "each miss published its flight");

            ask(0, warm);
            assert_eq!(answered(&answers), [0], "the hit, answered in its step");
            let [now, depart, arrive] = calls.take();
            println!(
                "a hit with {flights} flights upstream: {now} clock readings, {depart} \
                 departures, {arrive} collections, timer untouched: {}",
                armed() == before
            );
            assert_eq!(
                (now, depart, arrive),
                (2, 0, 0),
                "{flights} flights upstream"
            );
            assert_eq!(armed(), before, "the timer is left alone");
            let upstream = hold(shards, 0).machine.resolver.snapshot();
            assert_eq!(
                (upstream.live_generations, upstream.serve.hits),
                (flights, 1)
            );
        }
    }

    /// A flight with three waiters lands beside P = 0 or 1 000 queries
    /// parked on eight other flights, its waiters asked among theirs: the
    /// landing answers its three, in arrival order, and every other query's
    /// octets stay where they lay.
    #[test]
    fn a_landing_answers_its_own_waiters_and_moves_no_one_elses_octets() {
        const RTT: Duration = Duration::from_millis(2);
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 9,
            ..LoopbackConfig::default()
        });
        let (own, others) = fleet.domains.split_first().unwrap();
        for parked_beside in [0, 1000] {
            let clock = sdoh_netsim::SimClock::new();
            let shards = stepped(&fleet, CacheConfig::default(), &clock, &[RTT]);
            let mut machine = machines(shards).remove(0);
            // Its flight departs half a round trip before the others'.
            ask(&mut machine, &a_query(1, own));
            clock.advance(RTT / 2);
            let mut id = 100;
            for waiter in [2, 3] {
                for _ in 0..parked_beside / 2 {
                    let domain = &others[usize::from(id) % others.len()];
                    ask(&mut machine, &a_query(id, domain));
                    id += 1;
                }
                ask(&mut machine, &a_query(waiter, own));
            }
            assert_eq!(parked(&machine).0, parked_beside + 3);
            let before = placement(&machine);

            clock.advance(RTT / 2);
            step(&mut machine, None);
            let ids: Vec<u16> = written(&machine).iter().map(|a| a.header.id).collect();
            assert_eq!(ids, [1, 2, 3], "its own three, in arrival order");
            let after = placement(&machine);
            let moved = moved_octets(&before, &after);
            println!(
                "a landing of 3 waiters beside {parked_beside}: {} answered, {moved} octets \
                 of the others moved",
                ids.len()
            );
            assert_eq!(parked(&machine).0, parked_beside);
            assert_eq!(moved, 0);
            let mut others_before = before;
            others_before.pop_first();
            assert_eq!(
                after, others_before,
                "the other flights' waiters, untouched"
            );
        }
    }

    /// A cache-only order applied while flights are upstream is adopted at
    /// once and moves none of their waiters' octets; the waiters are
    /// answered, flight by flight in arrival order, under the new TTL.
    #[test]
    fn a_cache_only_order_leaves_the_parked_waiters_alone() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let shards = open(stepped(&fleet, CacheConfig::default(), &clock, &[RTT]));
        let control = ControlHandle::new(Arc::new(shards), CacheConfig::default());
        let shards = control.shards();
        let (reply, answers) = mpsc::channel();
        for (id, domain) in [(1, 0), (2, 1), (3, 0), (4, 1)] {
            let tcp = ReplyPath::Tcp(reply.clone(), Vec::new());
            let wire = a_query(id, &fleet.domains[domain]);
            assert!(serve_query(shards, &wire, tcp));
        }
        let before = placement(&hold(shards, 0).machine);
        assert_eq!(before.values().map(Vec::len).collect::<Vec<_>>(), [2, 2]);

        let cache = CacheConfig::default().with_ttl(Ttl::from_secs(7));
        let receipt = control.apply(ConfigDelta::new().with_cache(cache)).unwrap();
        assert_eq!(control.acked_epochs(), [receipt.epoch], "adopted at once");
        let after = placement(&hold(shards, 0).machine);
        assert_eq!(moved_octets(&before, &after), 0);
        assert_eq!(after, before);

        clock.advance(RTT);
        shards.land_due(whenever());
        let landed: Vec<Message> = answers
            .try_iter()
            .map(|wire| Message::decode(&wire).unwrap())
            .collect();
        let ids: Vec<u16> = landed.iter().map(|answer| answer.header.id).collect();
        assert_eq!(ids, [1, 3, 2, 4], "each flight's waiters in arrival order");
        for answer in &landed {
            assert_eq!(answer.answer_addresses().len(), 24);
            assert!(answer.answers.iter().all(|record| record.ttl == 7));
        }
    }

    #[test]
    fn a_malformed_query_is_answered_with_its_own_id() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let mut machine = machine(&fleet, CacheConfig::default());
        // Id 0xBEEF, RD set, one question announced and cut short.
        let mut wire = a_query(0xBEEF, &"pool.ntpns.org".parse().unwrap());
        wire.truncate(15);
        ask(&mut machine, &wire);
        let formerr = written(&machine).remove(0);
        assert_eq!(formerr.header.rcode, Rcode::FormErr);
        assert_eq!(formerr.header.id, 0xBEEF, "the stub matches it by id");
        assert!(formerr.header.recursion_desired);
    }

    #[test]
    fn refresh_runs_while_the_shard_queue_never_empties() {
        // Every step deals with what is due after its query, not only the
        // timer's when a wait runs out. The shard is handed queries back to
        // back, with no timer step in between: a stale serve of B, whose
        // refresh leaves on a 1 ms round trip, then far more hits on A than
        // fit into a millisecond, then B again. Only the pump at the end of
        // each hit's step can have landed the refresh by then.
        const HITS: usize = 20_000;
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 2,
            upstream_latency: Duration::from_millis(1),
            ..LoopbackConfig::default()
        });
        let cache = CacheConfig::default()
            .with_ttl(Ttl::from_secs(60))
            .with_stale_window(Duration::from_secs(3600));
        let mut machine = machine(&fleet, cache);
        // Both cached; B stamped as expired.
        for domain in &fleet.domains {
            prime(&mut machine, domain);
        }
        expire(&mut machine, |key| key.domain == fleet.domains[1]);

        let mut answers = Vec::new();
        let mut asked = |id: u16, domain: usize| {
            ask(&mut machine, &a_query(id, &fleet.domains[domain]));
            answers.extend(written(&machine));
        };
        asked(1, 1);
        (0..HITS).for_each(|_| asked(2, 0));
        asked(3, 1);

        assert_eq!(answers.len(), HITS + 2, "every hit served in its step");
        let (stale, again) = (&answers[0], &answers[HITS + 1]);
        assert_eq!((stale.header.id, again.header.id), (1, 3));
        assert!(stale.answers.iter().all(|r| r.ttl == 0), "B served stale");
        assert!(
            again.answers.iter().all(|r| r.ttl >= 1),
            "B was refreshed while the queries never paused"
        );
        let snapshot = machine.resolver.snapshot();
        assert_eq!(snapshot.serve.stale_serves, 1);
        assert_eq!(snapshot.serve.refreshes, 1);
        assert_eq!(snapshot.serve.generations, 3);
        assert_eq!(snapshot.live_generations, 0);
    }

    #[test]
    fn truncation_echoes_question_with_tc() {
        let wire = query_wire("pool.ntp.org", RrType::A);
        let query = QueryView::parse(&wire).unwrap();
        let mut out = vec![0xEE; 2000];
        truncate_for_udp(Some(&query), &mut out);
        let tc = Message::decode(&out).unwrap();
        assert!(tc.header.truncated);
        assert!(tc.header.response);
        assert_eq!(tc.header.id, 7);
        assert!(tc.answers.is_empty());
        assert_eq!(tc.question().unwrap().name.to_string(), "pool.ntp.org.");
        // A datagram that never decoded has no question to echo.
        truncate_for_udp(None, &mut out);
        assert!(out.is_empty());
    }
}
