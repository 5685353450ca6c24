//! The threaded real-socket serving runtime: [`PoolRuntime`].
//!
//! ```text
//!               UDP datagrams                TCP (truncated retries)
//!              ┌─────▼──────┐                  ┌──────▼──────┐
//!              │ dispatcher │                  │ tcp acceptor│
//!              └─────┬──────┘                  └──────┬──────┘
//!        hash(qname, qtype) ──────────────────────────┘
//!   ┌─────▼────┐ ┌───▼──────┐ ┌────▼─────┐  the reading thread takes the
//!   │ shard 0  │ │ shard 1  │ │ shard N-1│  shard's lock, serves, pumps;
//!   │ resolver │ │ resolver │ │ resolver │  control plane and statistics
//!   └─────▲────┘ └────▲─────┘ └────▲─────┘  take the same lock
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
//! # The hit path
//!
//! The thread that read a query takes the owning shard's lock — waiting
//! for it, if another thread holds it for its own serve and pump — and
//! answers from its receive buffer through the shard's one serve function:
//! the query read where it lies ([`QueryView`]), the two halves of the
//! shared Do53 core ([`decode_do53_query`], [`finish_do53_answer`]) around
//! the resolver's first step ([`begin`](CachingPoolResolver::begin)),
//! rendered into the one response buffer the shard keeps. A cached pool's
//! answer section was encoded when it entered the cache, so a hit writes a
//! header, the echoed question and a TTL, and allocates nothing
//! (`core/tests/alloc_budget.rs`). A UDP answer longer than its client can
//! receive (its OPT payload size, 512 without one, capped by the configured
//! limit) is replaced by an empty TC=1 response, and the client retries
//! over the TCP listener on the same port.
//!
//! # The miss path
//!
//! A generation is data the shard owns. `begin` either answers or opens a
//! **flight** for the key (or joins the live one) and the serving thread
//! **parks** the query's octets under it, in one buffer the shard keeps,
//! and lets go of the shard. Whoever holds the shard then **pumps** it:
//! batches whose round trip is over are collected ([`Exchanger::arrive`])
//! and landed, due refreshes open flights of their own, every query parked
//! on a landed flight is answered, and what the live flights have to send
//! departs as one batch ([`Exchanger::depart`]). A zero round trip lands
//! before the lock is let go; a stream of queries that never pauses cannot
//! starve the flights, since every serve is followed by a pump.
//!
//! * *The timer.* A shard's alarm is the instant its last pump returned.
//!   One timer thread waits (`park_timeout`, a futex) until the earliest
//!   alarm over all shards, held in one atomic on the wall clock, and pumps
//!   each shard whose alarm is due. A socket thread whose pump moves its
//!   shard's alarm earlier moves the timer down and unparks it; anything
//!   later the timer meets on its own. Alarms are converted to the wall
//!   clock under the shard's lock from the shard's own exchanger clock, so
//!   a shard on a simulated clock keeps working.
//! * *Who waits for landings.* Nobody, under a lock, while the socket
//!   threads run. A control order that swaps the source set or the pool
//!   configuration while flights are upstream waits on the shard: queries
//!   that arrive meanwhile park behind it with no flight, and the first
//!   pump that finds nothing upstream adopts and acks the order and serves
//!   them in arrival order, so nothing the old set generated is cached
//!   after the ack. Only [`PoolRuntime::shutdown`] sleeps out the last
//!   round trips, once the socket threads and the timer are joined.
//!
//! A transport without the two halves takes their blocking defaults, and
//! whichever thread pumps sits out each round trip. The socket threads
//! block in `recv_from` / `accept` and back off from errors; `shutdown`
//! wakes each with one throw-away message.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use sdoh_core::{
    snapshot_samples, CachingPoolResolver, ConfigError, FlightId, Landed, ServeSnapshot, ServeStep,
    TransactionId,
};
use sdoh_dns_server::{decode_do53_query, finish_do53_answer, Departure, Exchanger};
use sdoh_dns_wire::{Header, QueryView, MAX_NAME_LEN};
use sdoh_metrics::http::wake_addr;
use sdoh_metrics::{
    render_json, render_prometheus, Counter, Histogram, HttpResponse, Registry, Sample,
    SampleValue, StatsServer,
};
use sdoh_netsim::SimInstant;

use crate::control::{ControlHandle, EpochOrder};

/// How long a stats aggregation waits for each shard's lock before marking
/// the shard unresponsive (a wedged shard must not wedge the exporter). A
/// shard's lock is held for one serve and one pump at a time, so a miss
/// means a transport whose `depart` blocks, never an upstream that is slow.
const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(5);

/// The shorter deadline `/healthz` probes shards with: a readiness check
/// has to answer promptly even when a shard is wedged.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a snapshot waits between two tries of a busy shard's lock.
const SNAPSHOT_POLL: Duration = Duration::from_micros(50);

/// How long a socket loop stays away from a socket that just returned an
/// error, so a persistent one (descriptor exhaustion) cannot spin it.
const ERROR_BACKOFF: Duration = Duration::from_millis(1);

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
    /// Address to bind the HTTP stats listener on (`/metrics`,
    /// `/metrics.json`, `/healthz`); `None` disables it. Port 0 picks an
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
/// generations and refreshes go out through, served by whichever runtime
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

/// Front-door counters kept by the socket threads, as registry [`Counter`]
/// handles: the same bumps feed [`RuntimeStats`] and `/metrics`.
#[derive(Debug)]
pub(crate) struct FrontCounters {
    udp_received: Counter,
    tcp_received: Counter,
    truncated: Counter,
    dropped: Counter,
    /// Pumps of a socket thread that moved the shard timer earlier.
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
    /// flight [`ServeSnapshot::live_generations`] counts — never zeros.
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

impl RuntimeStats {
    /// Shards that missed the snapshot deadline (their `per_shard` entry
    /// is `None`). Non-zero means `total` undercounts and `/healthz`
    /// reports the instance unready.
    pub fn unresponsive_shards(&self) -> usize {
        count_unresponsive(&self.per_shard)
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "runtime stats @ {:.1}s: epoch={} udp={} tcp={} truncated={} dropped={} \
             shards={} unresponsive={}",
            self.taken_at.as_nanos() as f64 / 1e9,
            self.config_epoch,
            self.udp_queries,
            self.tcp_queries,
            self.truncated_responses,
            self.dropped_queries,
            self.per_shard.len(),
            self.unresponsive_shards(),
        )?;
        writeln!(
            f,
            "  total: queries={} hits={} stale={} neg={} misses={} coalesced={} \
             generations={} failures={} refreshes={} hit_ratio={:.1}% entries={} pending={} \
             live={}",
            self.total.serve.queries,
            self.total.serve.hits,
            self.total.serve.stale_serves,
            self.total.serve.negative_hits,
            self.total.serve.misses,
            self.total.serve.coalesced_waiters,
            self.total.serve.generations,
            self.total.serve.generation_failures,
            self.total.serve.refreshes,
            self.total.serve.hit_ratio() * 100.0,
            self.total.entries,
            self.total.pending_refreshes,
            self.total.live_generations,
        )?;
        for (index, shard) in self.per_shard.iter().enumerate() {
            match shard {
                Some(snapshot) => writeln!(
                    f,
                    "  shard {index}: queries={} hits={} misses={} generations={} entries={}",
                    snapshot.serve.queries,
                    snapshot.serve.hits,
                    snapshot.serve.misses,
                    snapshot.serve.generations,
                    snapshot.entries,
                )?,
                None => writeln!(f, "  shard {index}: unresponsive (snapshot timed out)")?,
            }
        }
        Ok(())
    }
}

pub(crate) enum ReplyPath {
    /// Answer with `send_to` on the shared UDP socket; responses longer
    /// than the client can receive are truncated to TC=1.
    Udp(SocketAddr),
    /// Hand the full response back to the TCP connection handler.
    Tcp(mpsc::Sender<Vec<u8>>),
}

/// One shard's state behind its one lock.
struct ShardCell {
    worker: Mutex<Worker>,
}

impl ShardCell {
    /// The hold every runtime thread takes on a shard, for one serve, order
    /// or timer landing and the pump after it; a thread that finds it taken
    /// waits.
    // sdoh-lint: allow(transitive-hot-path-purity, "the shard's own lock: held for one serve and one pump at a time, and nobody sleeps under it while the socket threads run (shutdown lands the last round trips only after joining them), so a query waits for at most the serve and pump ahead of it")
    fn lock(&self) -> MutexGuard<'_, Worker> {
        self.worker.lock()
    }

    /// The shard's snapshot, read under its lock: tried until `deadline`,
    /// `None` if the lock stayed taken that long.
    fn snapshot(&self, deadline: Instant) -> Option<ServeSnapshot> {
        loop {
            if let Some(worker) = self.worker.try_lock() {
                return Some(worker.resolver.snapshot());
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
    /// When the timer thread wakes: no later than any `due` while it waits,
    /// moved down by whoever arms a shard earlier, raised only by the timer,
    /// which folds every `due` back in after each pass.
    next: AtomicU64,
    /// The timer thread, unparked when `next` moves down (none in tests
    /// that drive [`ShardSet::land_due`] themselves).
    thread: OnceLock<Thread>,
}

impl Timer {
    fn new(shards: usize) -> Timer {
        Timer {
            origin: Instant::now(),
            due: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            next: AtomicU64::new(u64::MAX),
            thread: OnceLock::new(),
        }
    }

    /// `at` as nanoseconds since the origin.
    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets shard `index`'s alarm `wait` from now (`None`: no alarm). When
    /// the alarm moved `earlier` and that brings the timer's instant down,
    /// the timer is unparked to wait again; `unpark` keeps a token, so the
    /// wake-up is not lost if the timer is between its check and its park.
    fn arm(&self, index: usize, wait: Option<Duration>, earlier: bool) {
        let at = wait
            .and_then(|wait| Instant::now().checked_add(wait))
            .map_or(u64::MAX, |at| self.nanos(at));
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

/// The runtime's shards, in shard order, and the timer that lands what no
/// socket thread meets. Shared by every runtime thread and the control
/// plane.
pub(crate) struct ShardSet {
    cells: Vec<ShardCell>,
    timer: Timer,
}

impl ShardSet {
    fn new(workers: Vec<Worker>) -> ShardSet {
        ShardSet {
            timer: Timer::new(workers.len()),
            cells: workers
                .into_iter()
                .map(|worker| ShardCell {
                    worker: Mutex::new(worker),
                })
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Hands `order` to every shard in turn, under its lock, and pumps it:
    /// see "Who waits for landings" in the module doc for when it is adopted.
    pub(crate) fn reconfigure(&self, order: &Arc<EpochOrder>) {
        for cell in &self.cells {
            let mut guard = ShardCell::lock(cell);
            let worker: &mut Worker = &mut guard;
            worker.orders.push(Arc::clone(order));
            worker.pump_and_arm(&self.timer);
        }
    }

    /// One pass of the timer: pumps every shard whose alarm is due at `now`
    /// (a shard on a simulated clock lands what its own clock says is due),
    /// and folds every shard's next alarm into the instant the timer waits for.
    fn land_due(&self, now: Instant) {
        let timer = &self.timer;
        timer.next.store(u64::MAX, Ordering::SeqCst);
        let now = timer.nanos(now);
        for (cell, due) in self.cells.iter().zip(&timer.due) {
            if due.load(Ordering::SeqCst) <= now {
                let mut guard = ShardCell::lock(cell);
                let worker: &mut Worker = &mut guard;
                worker.pump_and_arm(timer);
            }
            timer
                .next
                .fetch_min(due.load(Ordering::SeqCst), Ordering::SeqCst);
        }
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
/// what is due. It takes no lock of its own, only each due shard's.
fn timer_loop(shards: &ShardSet, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        let next = shards.timer.next.load(Ordering::SeqCst);
        match next.saturating_sub(shards.timer.nanos(now)) {
            0 => shards.land_due(now),
            wait => std::thread::park_timeout(Duration::from_nanos(wait)),
        }
    }
}

/// The running threaded front end. Dropping it without calling
/// [`PoolRuntime::shutdown`] aborts the process threads ungracefully
/// (detached); always shut down explicitly.
pub struct PoolRuntime {
    udp: Arc<UdpSocket>,
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    control: ControlHandle,
    /// The dispatcher, the TCP acceptor and the timer.
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    counters: Arc<FrontCounters>,
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
        let udp = Arc::new(udp);
        let udp_addr = udp.local_addr()?;
        let tcp_addr = tcp.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let registry = Registry::new();
        let counters = Arc::new(FrontCounters::register(&registry));
        let clock = crate::clock::RuntimeClock::new();

        let acked: Vec<Arc<AtomicU64>> = shards.iter().map(|_| Arc::default()).collect();
        let workers = shards
            .into_iter()
            .zip(&acked)
            .enumerate()
            .map(|(index, (shard, acked))| {
                let (name, help) = sdoh_core::METRIC_SERVE_LATENCY;
                let outbox = Outbox {
                    socket: Arc::clone(&udp),
                    udp_payload_limit: config.udp_payload_limit,
                    counters: Arc::clone(&counters),
                    latency: registry.histogram_with(name, help, &[("shard", &index.to_string())]),
                    response: Vec::with_capacity(config.udp_payload_limit),
                };
                Worker::new(index, shard, outbox, Arc::clone(acked))
            })
            .collect();
        let shards = Arc::new(ShardSet::new(workers));
        let control = ControlHandle::new(Arc::clone(&shards), acked, first_cache_config);

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
                    "/metrics.json" => {
                        HttpResponse::ok_json(render_json(&scrape_registry.gather()))
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
        let count = Arc::clone(&counters);
        let socket = Arc::clone(&udp);
        let run = move || dispatcher_loop(&socket, &set, &halt, &count);
        let dispatcher = spawn("sdoh-dispatch", Box::new(run))?;
        let (set, halt) = (Arc::clone(&shards), Arc::clone(&stop));
        let count = Arc::clone(&counters);
        let run = move || tcp_loop(&tcp, &set, &halt, &count);
        let acceptor = spawn("sdoh-tcp", Box::new(run))?;
        let threads = vec![timer, dispatcher, acceptor];

        Ok(PoolRuntime {
            udp,
            udp_addr,
            tcp_addr,
            control,
            threads,
            stop,
            counters,
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
        let (per_shard, total) = self.control.shards().snapshots(SNAPSHOT_TIMEOUT);
        RuntimeStats {
            per_shard,
            total,
            udp_queries: self.counters.udp_received.get(),
            tcp_queries: self.counters.tcp_received.get(),
            truncated_responses: self.counters.truncated.get(),
            dropped_queries: self.counters.dropped.get(),
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
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.udp.send_to(&[], wake_addr(self.udp_addr));
        let _ = TcpStream::connect_timeout(&wake_addr(self.tcp_addr), Duration::from_secs(1));
        self.control.shards().timer.unpark();
        if let Some(mut server) = self.stats_server.take() {
            server.shutdown();
        }
        for handle in std::mem::take(&mut self.threads) {
            let _ = handle.join();
        }
        // 2. Every shard lands what it has upstream, sleeping out the last
        //    round trips under its lock — nobody is left to wait for it —
        //    so the numbers include every accepted query and every
        //    generation begun.
        for cell in &self.control.shards().cells {
            ShardCell::lock(cell).land_everything();
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

/// Routes a wire-format query to its shard: hash of the lowercased qname
/// labels and the qtype — the runtime-level mirror of the cache's
/// `(domain, address family)` key, computed without decoding (or
/// allocating) the full message. Malformed or question-less queries go to
/// shard 0, which produces the proper error response.
fn shard_for(wire: &[u8], shards: usize) -> usize {
    question_route(wire, shards).unwrap_or(0)
}

/// The most compression pointers a routed name may follow (each strictly
/// backwards, so the walk ends anyway; this bounds its cost).
const ROUTE_POINTER_HOPS: usize = 64;

/// Routes `(qname lowercase, qtype)` straight from the wire, following
/// compression pointers as the decoder does (only backwards, a bounded
/// number of times): a name spelled through a pointer routes with the same
/// name written whole. `None` without a parseable first question.
fn question_route(wire: &[u8], shards: usize) -> Option<usize> {
    if wire.len() < 12 {
        return None;
    }
    let qdcount = u16::from_be_bytes([*wire.get(4)?, *wire.get(5)?]);
    if qdcount == 0 {
        return None;
    }
    // The name's labels lowercased, each followed by a dot, gathered where
    // the hasher takes them in one write.
    let mut dotted = [0u8; MAX_NAME_LEN];
    let mut filled = 0;
    let mut i = 12usize;
    // Where the question's name ends: past its terminating zero, or past
    // the first pointer it follows. The qtype comes next.
    let mut end = None;
    let mut hops = 0;
    loop {
        let len = usize::from(*wire.get(i)?);
        if len == 0 {
            end.get_or_insert(i + 1);
            break;
        }
        if len & 0xC0 == 0xC0 {
            let target = ((len & 0x3F) << 8) | usize::from(*wire.get(i + 1)?);
            hops += 1;
            if target >= i || hops > ROUTE_POINTER_HOPS {
                return None;
            }
            end.get_or_insert(i + 2);
            i = target;
            continue;
        }
        if len & 0xC0 != 0 {
            // 0x40 / 0x80 label types are not supported.
            return None;
        }
        let label = wire.get(i + 1..i + 1 + len)?;
        let slot = dotted.get_mut(filled..filled + len + 1)?;
        for (lowered, byte) in slot.iter_mut().zip(label) {
            *lowered = byte.to_ascii_lowercase();
        }
        *slot.last_mut()? = b'.';
        filled += len + 1;
        i += 1 + len;
    }
    let end = end?;
    let mut hasher = DefaultHasher::new();
    hasher.write(dotted.get(..filled)?);
    hasher.write_u16(u16::from_be_bytes([*wire.get(end)?, *wire.get(end + 1)?]));
    let shards = u64::try_from(shards.max(1)).ok()?;
    usize::try_from(hasher.finish() % shards).ok()
}

fn dispatcher_loop(
    socket: &UdpSocket,
    shards: &ShardSet,
    stop: &AtomicBool,
    counters: &FrontCounters,
) {
    let mut buf = [0u8; 4096];
    loop {
        let received = socket.recv_from(&mut buf);
        // `shutdown` wakes this blocking receive with an empty datagram:
        // what arrives once `stop` is set is neither counted nor routed.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match received {
            Ok((len, peer)) => {
                counters.udp_received.inc();
                // recv_from wrote `len <= buf.len()` bytes.
                let Some(wire) = buf.get(..len) else {
                    continue;
                };
                if !serve_query(shards, wire, ReplyPath::Udp(peer), counters) {
                    counters.dropped.inc();
                }
            }
            // An error (a signal, ICMP feedback) is not about the next datagram.
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Answers one query a socket thread read, from its receive buffer: takes
/// the owning shard's lock, serves ([`Worker::serve`]) and pumps under the
/// same hold ([`Worker::pump_and_arm`]), counting in `sdoh_shard_wakes_total`
/// a pump that moved the timer earlier. `false` when no shard took it.
fn serve_query(shards: &ShardSet, wire: &[u8], reply: ReplyPath, counters: &FrontCounters) -> bool {
    let Some(cell) = shards.cells.get(shard_for(wire, shards.len())) else {
        return false;
    };
    let mut guard = ShardCell::lock(cell);
    let worker: &mut Worker = &mut guard;
    worker.serve(wire, reply, Instant::now());
    if worker.pump_and_arm(&shards.timer) {
        counters.wakes.inc();
    }
    true
}

fn tcp_loop(
    listener: &TcpListener,
    shards: &ShardSet,
    stop: &AtomicBool,
    counters: &FrontCounters,
) {
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
                // at a time keeps the thread budget fixed. A silent client
                // holds the next one back until its read times out; what
                // removes that is non-blocking connections polled by this
                // one thread, not a thread per connection (ROADMAP item 3b).
                let set = stream
                    .set_read_timeout(Some(Duration::from_secs(2)))
                    .and_then(|()| stream.set_nodelay(true));
                if set.is_ok() {
                    let _ = serve_framed(stream, shards, counters);
                }
            }
            // An error (a reset in the backlog, a signal) is not about the
            // next connection: leaving would strand every truncated pool.
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Serves RFC 1035 4.2.2 length-prefixed queries from any byte stream until
/// the peer closes (or a read times out), each through [`serve_query`] as
/// the dispatcher serves its. Query frames are read into one buffer per
/// connection, and an answer leaves behind its length in one write: with
/// `TCP_NODELAY` set, each write is a segment of its own.
///
/// Answers come back over one channel per connection — a hit's before
/// [`serve_query`] returns, a miss's when its flight lands — one query out
/// at a time. A timed-out query ends the connection and drops the channel,
/// so a late answer is never read as the next query's.
fn serve_framed(
    mut stream: impl Read + Write,
    shards: &ShardSet,
    counters: &FrontCounters,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel();
    let (mut wire, mut framed) = (Vec::new(), Vec::new());
    loop {
        let mut len_buf = [0u8; 2];
        if stream.read_exact(&mut len_buf).is_err() {
            return Ok(()); // EOF or idle: connection done.
        }
        wire.resize(usize::from(u16::from_be_bytes(len_buf)), 0);
        stream.read_exact(&mut wire)?;
        counters.tcp_received.inc();
        if !serve_query(shards, &wire, ReplyPath::Tcp(tx.clone()), counters) {
            counters.dropped.inc();
            return Ok(());
        }
        let response = match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(bytes) => bytes,
            Err(_) => return Ok(()),
        };
        // The Do53 core answers SERVFAIL in place of a response over
        // 65 535 bytes, so this holds; a truncated frame would be corruption.
        let Ok(len) = u16::try_from(response.len()) else {
            return Ok(());
        };
        framed.clear();
        framed.extend_from_slice(&len.to_be_bytes());
        framed.extend_from_slice(&response);
        stream.write_all(&framed)?;
    }
}

/// A query waiting on the shard, its octets in the shard's parked octets.
struct Parked {
    /// The flight whose landing answers it; `None` for a query deferred
    /// behind a control order the shard has not adopted yet.
    flight: Option<FlightId>,
    /// Where the query's octets are in the shard's parked octets.
    octets: Range<usize>,
    reply: ReplyPath,
    /// When the shard took the query.
    started: Instant,
}

/// One batch upstream: the send half's receipt and, by request index, the
/// flight and transaction each outcome lands under.
struct Upstream {
    departure: Departure,
    tags: Vec<(FlightId, TransactionId)>,
}

/// The way out of a shard: the one buffer every response of the shard is
/// rendered into, and what sending it takes.
struct Outbox {
    socket: Arc<UdpSocket>,
    udp_payload_limit: usize,
    counters: Arc<FrontCounters>,
    latency: Histogram,
    response: Vec<u8>,
}

impl Outbox {
    /// Sends the rendered response along `reply` (nothing, if the buffer is
    /// empty) and records the query's latency, once, as its answer leaves.
    /// A UDP answer longer than `query`'s sender can receive becomes the
    /// TC=1 response.
    fn send(&mut self, query: Option<&QueryView<'_>>, reply: &ReplyPath, started: Instant) {
        // Histogram recording is two relaxed fetch_adds on this shard's own
        // cache lines — no lock, no allocation.
        self.latency.record(started.elapsed());
        match reply {
            ReplyPath::Udp(peer) => {
                // An answer this short fits every client; anything longer
                // depends on what the query advertised.
                let fits_any_client = self.udp_payload_limit.min(CLASSIC_UDP_PAYLOAD);
                if self.response.len() > fits_any_client
                    && self.response.len() > udp_ceiling(query, self.udp_payload_limit)
                {
                    self.counters.truncated.inc();
                    truncate_for_udp(query, &mut self.response);
                }
                if !self.response.is_empty() {
                    let _ = self.socket.send_to(&self.response, peer);
                }
            }
            ReplyPath::Tcp(tx) => {
                // The connection handler owns its answer; the next render
                // grows the buffer back.
                let _ = tx.send(std::mem::take(&mut self.response));
            }
        }
    }
}

/// A shard's state, in its [`ShardCell`]: the resolver, its way out, the
/// queries parked and the batches upstream that make a generation data, its
/// alarm, and the control orders it has not adopted yet.
struct Worker {
    index: usize,
    resolver: CachingPoolResolver,
    exchanger: Box<dyn Exchanger + Send>,
    outbox: Outbox,
    /// In arrival order: the order a flight's waiters, and the queries
    /// deferred behind an order, are answered in.
    parked: Vec<Parked>,
    /// The octets of the parked queries, in the same order: one buffer the
    /// shard keeps, so parking a miss allocates nothing once it has grown.
    parked_octets: Vec<u8>,
    /// In departure order.
    upstream: Vec<Upstream>,
    /// When the shard next has something due: what its last pump returned.
    /// `None`: nothing, and the timer does not wait for it.
    alarm: Option<SimInstant>,
    /// Control orders not adopted yet, in epoch order: the first waits for
    /// the flights upstream to land, and every query behind it is deferred.
    orders: Vec<Arc<EpochOrder>>,
    /// The epoch this shard last adopted, read by the control plane.
    acked: Arc<AtomicU64>,
}

impl Worker {
    fn new(index: usize, shard: Shard, outbox: Outbox, acked: Arc<AtomicU64>) -> Worker {
        Worker {
            index,
            resolver: shard.resolver,
            exchanger: shard.exchanger,
            outbox,
            parked: Vec::new(),
            parked_octets: Vec::new(),
            upstream: Vec::new(),
            alarm: None,
            orders: Vec::new(),
            acked,
        }
    }

    /// The one serve function, whichever thread holds the shard: takes the
    /// query read where it lies in `wire` (at `started`) through the shared
    /// Do53 core — the simulated `Do53Service`'s wire behaviour by
    /// construction — around the resolver's first step. What the cache can
    /// answer is answered now; a miss is parked under its flight, and behind
    /// an order not adopted yet every query is parked with no flight.
    fn serve(&mut self, wire: &[u8], reply: ReplyPath, started: Instant) {
        if !self.orders.is_empty() {
            return self.park(None, wire, reply, started);
        }
        let Some(query) = decode_do53_query(wire, false, &mut self.outbox.response) else {
            return self.outbox.send(None, &reply, started);
        };
        let begun = self
            .resolver
            .begin(self.exchanger.as_mut(), &query, &mut self.outbox.response);
        match begun {
            Ok(Some(flight)) => self.park(Some(flight), wire, reply, started),
            answered => {
                finish_do53_answer(&query, answered.map(drop), &mut self.outbox.response);
                self.outbox.send(Some(&query), &reply, started);
            }
        }
    }

    /// Parks a query, its octets copied into the shard's parked octets.
    fn park(&mut self, flight: Option<FlightId>, wire: &[u8], reply: ReplyPath, started: Instant) {
        let at = self.parked_octets.len();
        self.parked_octets.extend_from_slice(wire);
        self.parked.push(Parked {
            flight,
            octets: at..self.parked_octets.len(),
            reply,
            started,
        });
    }

    /// Everything due **now**: lands the batches whose round trip is over,
    /// opens the refreshes that came due, answers the queries parked on what
    /// landed, sends what the live flights have to send as one batch, and
    /// adopts the orders that may be — repeated while anything is already
    /// due, so a zero round trip lands before another query can join its
    /// flight. Returns the next instant anything is due, if any.
    // sdoh-lint: allow(transitive-hot-path-purity, "the miss path, pumped after every query a socket thread serves, by the timer and by the control plane: past the first check only with a flight live, a refresh queued or an order waiting, at most one generation per (question, TTL window), whose fan-out dwarfs these buffers; a shard of cache hits returns at the first check")
    fn pump(&mut self) -> Option<SimInstant> {
        if self.upstream.is_empty()
            && self.parked.is_empty()
            && self.orders.is_empty()
            && self.resolver.next_refresh_due().is_none()
        {
            return None;
        }
        loop {
            let now = self.exchanger.now();
            while let Some(due) = self
                .upstream
                .iter()
                .position(|batch| batch.departure.ready_at() <= now)
            {
                let Upstream { departure, tags } = self.upstream.remove(due);
                for outcome in self.exchanger.arrive(departure) {
                    // The tags are this shard's own, so their flights take
                    // the outcomes.
                    if let Some(&(flight, transaction)) = tags.get(outcome.index) {
                        let _ = self.resolver.land(flight, transaction, outcome.result);
                    }
                }
            }
            // No refresh leaves under the old set while an order waits for
            // its flights to land.
            if self.orders.is_empty() {
                self.resolver.begin_due_refreshes(self.exchanger.as_mut());
            }
            let now = self.exchanger.now();
            let (mut tags, mut requests) = (Vec::new(), Vec::new());
            let next_refresh = loop {
                match self.resolver.poll(now) {
                    ServeStep::Transmit {
                        flight,
                        transaction,
                        request,
                    } => {
                        tags.push((flight, transaction));
                        requests.push(request);
                    }
                    ServeStep::Landed(landed) => self.answer_parked(&landed),
                    ServeStep::Wait(next_refresh) => break next_refresh,
                }
            };
            if !requests.is_empty() {
                let departure = self.exchanger.depart(requests);
                self.upstream.push(Upstream { departure, tags });
            }
            if self.adopt_orders() {
                // What the deferred queries began leaves in the next turn.
                continue;
            }
            let next_refresh = next_refresh.filter(|_| self.orders.is_empty());
            let wake = self.next_arrival().into_iter().chain(next_refresh).min();
            if wake.is_none_or(|at| at > self.exchanger.now()) {
                return wake;
            }
        }
    }

    /// Answers every query parked on the flight that `landed`, in arrival
    /// order, from the landed report — each read where it lies in the
    /// parked octets, through the closing half of the Do53 core and the
    /// same way out as an answer from the cache — then closes the gaps the
    /// answered queries left in the parked octets.
    fn answer_parked(&mut self, landed: &Landed) {
        let outbox = &mut self.outbox;
        let octets = &self.parked_octets;
        self.parked.retain(|parked| {
            if parked.flight != Some(landed.flight) {
                return true;
            }
            // The octets parsed when the query was parked.
            let wire = octets.get(parked.octets.clone()).unwrap_or_default();
            if let Ok(query) = QueryView::parse(wire) {
                let rendered = landed.answer_wire(&query, &mut outbox.response);
                finish_do53_answer(&query, rendered, &mut outbox.response);
                outbox.send(Some(&query), &parked.reply, parked.started);
            }
            false
        });
        let mut kept = 0;
        for parked in &mut self.parked {
            let len = parked.octets.len();
            self.parked_octets.copy_within(parked.octets.clone(), kept);
            parked.octets = kept..kept + len;
            kept += len;
        }
        self.parked_octets.truncate(kept);
    }

    /// Adopts and acks the waiting orders, in epoch order — a source or pool
    /// swap only once nothing is upstream, so nothing the old set generated
    /// is cached after its ack — then serves the queries deferred behind
    /// them, in arrival order. `true` when it adopted one.
    fn adopt_orders(&mut self) -> bool {
        let mut adopted = false;
        while let Some(order) = self.orders.first() {
            let lands_first = order.sources.is_some() || order.pool.is_some();
            if lands_first && !self.upstream.is_empty() {
                return adopted;
            }
            let order = self.orders.remove(0);
            if let Some(factory) = &order.sources {
                // An empty per-shard set is rejected by the generator: the
                // shard keeps its current sources.
                let _ = self
                    .resolver
                    .generator_mut()
                    .replace_sources(factory(self.index));
            }
            if let Some(pool) = &order.pool {
                // Pre-validated by ControlHandle::apply.
                let _ = self.resolver.generator_mut().set_config(pool.clone());
            }
            let now = self.exchanger.now();
            self.resolver.apply_config(order.cache, now);
            self.acked.store(order.epoch, Ordering::Release);
            adopted = true;
        }
        if adopted {
            let parked = std::mem::take(&mut self.parked);
            let octets = std::mem::take(&mut self.parked_octets);
            for parked in parked {
                let wire = octets.get(parked.octets).unwrap_or_default();
                match parked.flight {
                    Some(flight) => self.park(Some(flight), wire, parked.reply, parked.started),
                    None => self.serve(wire, parked.reply, parked.started),
                }
            }
        }
        adopted
    }

    /// [`pump`](Worker::pump), then sets the shard's alarm to what it
    /// returned and arms the timer with it, converted to the wall clock from
    /// the shard's own clock (read first, so never before the alarm). `true`
    /// when the alarm moved earlier, or was set where there was none.
    fn pump_and_arm(&mut self, timer: &Timer) -> bool {
        let due = self.pump();
        if due.is_none() && self.alarm.is_none() {
            // Unarmed before and after (a hit): no shared atomic to touch.
            return false;
        }
        let earlier = due.is_some_and(|due| self.alarm.is_none_or(|alarm| due < alarm));
        self.alarm = due;
        let wait = due.map(|due| due.saturating_duration_since(self.exchanger.now()));
        timer.arm(self.index, wait, earlier);
        earlier
    }

    /// Lands every flight, adopts every order and answers everything parked,
    /// sleeping out the round trips still upstream: the shard's shutdown,
    /// once no other thread is left to wait for its lock.
    fn land_everything(&mut self) {
        while self.pump().is_some() {
            let Some(ready_at) = self.next_arrival() else {
                // Only a refresh queued for later is left: not a flight.
                return;
            };
            std::thread::sleep(ready_at.saturating_duration_since(self.exchanger.now()));
        }
    }

    /// When the earliest round trip upstream is over.
    fn next_arrival(&self) -> Option<SimInstant> {
        self.upstream
            .iter()
            .map(|batch| batch.departure.ready_at())
            .min()
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
    use sdoh_core::{AddressSource, CacheConfig, DohSource, PoolConfig};
    use sdoh_dns_server::{ExchangeOutcome, ExchangeRequest, QueryHandler};
    use sdoh_dns_wire::{Message, Name, Rcode, RrType, Ttl};
    use sdoh_doh::DohMethod;
    use sdoh_netsim::{ChannelKind, NetResult, SimAddr};

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
        // A pointer that does not point backwards routes nowhere.
        let mut forward = pointed;
        forward[13] = 12;
        assert_eq!(question_route(&forward, 8), None);
        // One write of the gathered name hashes as a write per octet did.
        for (name, rtype) in [("pool.ntp.org", RrType::A), ("A.b-C.example", RrType::Aaaa)] {
            let mut hasher = DefaultHasher::new();
            for label in name.split('.') {
                for byte in label.bytes() {
                    hasher.write_u8(byte.to_ascii_lowercase());
                }
                hasher.write_u8(b'.');
            }
            hasher.write_u16(rtype.code());
            let wire = query_wire(name, rtype);
            for shards in 1..=16u64 {
                let expected = usize::try_from(hasher.finish() % shards).unwrap();
                assert_eq!(shard_for(&wire, shards as usize), expected, "{name}");
            }
        }
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

    /// `n` shards of `fleet` behind a control plane, with no thread of their
    /// own: the test drives serve, pump and the timer. UDP answers would
    /// leave through a socket nobody reads; the tests ask over the TCP reply
    /// path.
    fn open_shards(fleet: &LoopbackFleet, n: usize, cache: CacheConfig) -> ControlHandle {
        open(fleet.shards(n, PoolConfig::algorithm1(), cache).unwrap())
    }

    /// [`open_shards`] on a clock the test moves, one shard per entry of
    /// `rtts`: each of a shard's round trips takes its `rtt` of `clock`, so
    /// nothing upstream lands before the test says the round trip is over.
    fn stepped_shards(
        fleet: &LoopbackFleet,
        cache: CacheConfig,
        clock: &sdoh_netsim::SimClock,
        rtts: &[Duration],
    ) -> ControlHandle {
        let shards = fleet
            .shards(rtts.len(), PoolConfig::algorithm1(), cache)
            .unwrap();
        open(
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
                .collect(),
        )
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

    /// [`open_shards`] over shards already built.
    fn open(shards: Vec<Shard>) -> ControlHandle {
        let socket = Arc::new(UdpSocket::bind("127.0.0.1:0").unwrap());
        let counters = Arc::new(FrontCounters::register(&Registry::new()));
        let acked: Vec<Arc<AtomicU64>> = shards.iter().map(|_| Arc::default()).collect();
        let cache = shards[0].resolver.cache_config();
        let workers = shards
            .into_iter()
            .zip(&acked)
            .enumerate()
            .map(|(index, (shard, acked))| {
                let outbox = Outbox {
                    socket: Arc::clone(&socket),
                    udp_payload_limit: 1232,
                    counters: Arc::clone(&counters),
                    latency: Histogram::new(),
                    response: Vec::new(),
                };
                Worker::new(index, shard, outbox, Arc::clone(acked))
            })
            .collect();
        ControlHandle::new(Arc::new(ShardSet::new(workers)), acked, cache)
    }

    /// Shard `index`, held.
    fn hold(shards: &ShardSet, index: usize) -> MutexGuard<'_, Worker> {
        ShardCell::lock(&shards.cells[index])
    }

    /// A wall-clock instant past every alarm: the timer pass it is handed
    /// pumps every armed shard, which lands what its own clock says is due.
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
        // A non-blocking listener makes `accept` fail for as long as nobody
        // connects — a stand-in for the errors a blocking one returns now
        // and then (a connection aborted in the backlog, a signal).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let control = open_shards(&fleet, 1, CacheConfig::default());
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(FrontCounters::register(&Registry::new()));
        let acceptor = {
            let (control, stop, counters) =
                (control.clone(), Arc::clone(&stop), Arc::clone(&counters));
            std::thread::spawn(move || tcp_loop(&listener, control.shards(), &stop, &counters))
        };
        // Several back-offs' worth of failed accepts later a query over the
        // listener still reaches the shard, and its answer the client.
        std::thread::sleep(ERROR_BACKOFF * 5);
        let mut stream = TcpStream::connect(addr).unwrap();
        let wire = a_query(9, &fleet.domains[0]);
        let len = u16::try_from(wire.len()).unwrap().to_be_bytes();
        stream.write_all(&[&len[..], &wire].concat()).unwrap();
        let mut len = [0u8; 2];
        stream.read_exact(&mut len).unwrap();
        let mut framed = vec![0u8; usize::from(u16::from_be_bytes(len))];
        stream.read_exact(&mut framed).unwrap();
        let answer = Message::decode(&framed).unwrap();
        assert_eq!(answer.header.id, 9);
        assert_eq!(answer.answer_addresses().len(), 24);
        assert_eq!(counters.tcp_received.get(), 1);
        // It leaves when told to, woken the way `shutdown` wakes it.
        drop(stream);
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        acceptor.join().unwrap();
    }

    /// A stream that reads from a script and keeps every write apart.
    struct Recorded {
        script: std::io::Cursor<Vec<u8>>,
        writes: Vec<Vec<u8>>,
    }

    impl Read for Recorded {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.script.read(buf)
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
        let control = open_shards(&fleet, 1, CacheConfig::default());
        let counters = FrontCounters::register(&Registry::new());
        // A pool, then a query cut short; then the peer closes.
        let mut malformed = a_query(2, &fleet.domains[1]);
        malformed.truncate(15);
        let mut stream = Recorded {
            script: std::io::Cursor::new(
                [framed(&a_query(1, &fleet.domains[0])), framed(&malformed)].concat(),
            ),
            writes: Vec::new(),
        };
        serve_framed(&mut stream, control.shards(), &counters).unwrap();
        assert_eq!(stream.writes.len(), 2, "each answer one write");
        let answers: Vec<Message> = stream
            .writes
            .iter()
            .map(|write| {
                let len = usize::from(u16::from_be_bytes([write[0], write[1]]));
                assert_eq!(len, write.len() - 2, "its length in front");
                Message::decode(&write[2..]).unwrap()
            })
            .collect();
        assert_eq!(answers[0].header.id, 1);
        assert_eq!(answers[0].answer_addresses().len(), 24);
        assert_eq!(
            (answers[1].header.id, answers[1].header.rcode),
            (2, Rcode::FormErr)
        );
        assert_eq!(counters.tcp_received.get(), 2);
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
        let control = stepped_shards(&fleet, CacheConfig::default(), &clock, &[RTT, RTT]);
        // The first asked goes to the second shard, the second to the first.
        let asked = [
            a_query(1, routed_to(&fleet, 1, 2, 1)[0]),
            a_query(2, routed_to(&fleet, 0, 2, 1)[0]),
        ];
        let counters = FrontCounters::register(&Registry::new());
        let mut stream = Recorded {
            script: std::io::Cursor::new([framed(&asked[0]), framed(&asked[1])].concat()),
            writes: Vec::new(),
        };
        // The test plays the timer: each round trip is over once the clock
        // has moved, and the pass after that lands it.
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    clock.advance(RTT);
                    control.shards().land_due(whenever());
                    std::thread::yield_now();
                }
            });
            serve_framed(&mut stream, control.shards(), &counters).unwrap();
            done.store(true, Ordering::SeqCst);
        });
        let answers: Vec<Message> = stream
            .writes
            .iter()
            .map(|write| Message::decode(&write[2..]).unwrap())
            .collect();
        let ids: Vec<u16> = answers.iter().map(|answer| answer.header.id).collect();
        assert_eq!(ids, [1, 2], "each query's own answer, in order");
        for (answer, wire) in answers.iter().zip(&asked) {
            assert!(answer.answers_query(&Message::decode(wire).unwrap()));
            assert_eq!(answer.answer_addresses().len(), 24);
        }
        assert_eq!(counters.tcp_received.get(), 2);
    }

    #[test]
    fn a_query_to_a_busy_shard_is_answered_once_it_is_free() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let control = open_shards(&fleet, 1, CacheConfig::default());
        let shards = control.shards();
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16| {
            let wire = a_query(id, &fleet.domains[0]);
            serve_query(shards, &wire, ReplyPath::Tcp(reply.clone()), &counters)
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

        let snapshot = hold(shards, 0).resolver.snapshot();
        assert_eq!((snapshot.serve.queries, snapshot.serve.hits), (2, 1));
        assert_eq!(snapshot.serve.generations, 1);
    }

    #[test]
    fn a_query_read_after_apply_returns_is_served_under_the_new_epoch() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let control = stepped_shards(&fleet, CacheConfig::default(), &clock, &[RTT]);
        let shards = control.shards();
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: &Name| {
            let tcp = ReplyPath::Tcp(reply.clone());
            assert!(serve_query(shards, &a_query(id, domain), tcp, &counters));
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
            .apply(ConfigDelta::new().with_sources(Arc::new(move |_shard| {
                honest
                    .iter()
                    .map(|info| {
                        Box::new(DohSource::new(info.clone()).method(DohMethod::Get))
                            as Box<dyn AddressSource>
                    })
                    .collect()
            })))
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
            let worker = hold(shards, 0);
            let deferred = worker.parked.iter().filter(|p| p.flight.is_none()).count();
            assert_eq!((worker.parked.len(), deferred), (3, 2));
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

    #[test]
    fn a_zero_rtt_miss_served_in_place_is_answered_before_the_call_returns() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let control = open_shards(&fleet, 1, CacheConfig::default());
        let shards = control.shards();
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let wire = a_query(1, &fleet.domains[0]);
        assert!(serve_query(shards, &wire, ReplyPath::Tcp(reply), &counters));
        // Departed, landed and answered under one hold of the lock.
        let answer = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(answer.header.id, 1);
        assert_eq!(answer.answer_addresses().len(), 24);
        assert_eq!(counters.wakes.get(), 0);
        assert_eq!(shards.timer.next.load(Ordering::SeqCst), u64::MAX);
        let worker = hold(shards, 0);
        assert!(worker.parked.is_empty() && worker.upstream.is_empty());
        assert_eq!(worker.alarm, None);
        let snapshot = worker.resolver.snapshot();
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
        let control = stepped_shards(&fleet, CacheConfig::default(), &clock, &[LATER, EARLIER]);
        let shards = control.shards();
        let timer = &shards.timer;
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: &Name| {
            let tcp = ReplyPath::Tcp(reply.clone());
            assert!(serve_query(shards, &a_query(id, domain), tcp, &counters));
        };
        let alarms = || [hold(shards, 0).alarm, hold(shards, 1).alarm];
        let due = |index: usize| timer.due[index].load(Ordering::SeqCst);
        let next = || timer.next.load(Ordering::SeqCst);
        let (late, early) = (routed_to(&fleet, 0, 2, 1), routed_to(&fleet, 1, 2, 2));

        // The later alarm is set first: it arms the timer.
        ask(1, late[0]);
        assert_eq!(counters.wakes.get(), 1);
        assert_eq!(alarms(), [Some(clock.now().saturating_add(LATER)), None]);
        assert_eq!(next(), due(0));
        // The earlier one second: it moves the timer down.
        ask(2, early[0]);
        assert_eq!(counters.wakes.get(), 2);
        let alarm = Some(clock.now().saturating_add(EARLIER));
        assert_eq!(alarms()[1], alarm);
        assert_eq!(next(), due(0).min(due(1)));
        // A second miss in the same round trip is due no earlier: the
        // timer does not move, and nothing is counted.
        let before = next();
        ask(3, early[1]);
        assert_eq!(counters.wakes.get(), 2);
        assert_eq!(alarms()[1], alarm);
        assert_eq!(next(), before);
        assert_eq!(hold(shards, 1).upstream.len(), 2);
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
        assert_eq!(counters.wakes.get(), 2);
    }

    #[test]
    fn queries_parked_on_flights_that_land_apart_keep_their_own_octets() {
        const RTT: Duration = Duration::from_millis(2);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let control = stepped_shards(&fleet, CacheConfig::default(), &clock, &[RTT]);
        let shards = control.shards();
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
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
            let tcp = ReplyPath::Tcp(reply.clone());
            assert!(serve_query(shards, wire, tcp, &counters));
        }
        let parked_len = |worker: &Worker| (worker.parked.len(), worker.parked_octets.len());
        assert_eq!(
            parked_len(&hold(shards, 0)),
            (4, asked.iter().map(Vec::len).sum())
        );

        // The first flight lands: its queries are answered, and the second
        // flight's octets close up behind them.
        clock.advance(RTT / 2);
        hold(shards, 0).pump();
        assert_eq!(
            parked_len(&hold(shards, 0)),
            (2, asked[1].len() + asked[3].len())
        );
        clock.advance(RTT / 2);
        hold(shards, 0).pump();
        assert_eq!(parked_len(&hold(shards, 0)), (0, 0));

        // Each answer echoes its own query, spelling included.
        let answered: Vec<Message> = answers
            .try_iter()
            .map(|wire| Message::decode(&wire).unwrap())
            .collect();
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

    #[test]
    fn a_round_trip_that_is_over_is_landed_by_the_next_hit_served_in_place() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let control = stepped_shards(&fleet, CacheConfig::default(), &clock, &[RTT]);
        let shards = control.shards();
        let (cold, warm) = (&fleet.domains[0], &fleet.domains[1]);
        {
            let mut guard = hold(shards, 0);
            let worker: &mut Worker = &mut guard;
            let query = Message::query(0, warm.clone(), RrType::A);
            let primed = worker
                .resolver
                .handle_query(worker.exchanger.as_mut(), &query);
            assert_eq!(primed.answer_addresses().len(), 24);
        }
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: &Name| {
            let tcp = ReplyPath::Tcp(reply.clone());
            assert!(serve_query(shards, &a_query(id, domain), tcp, &counters));
        };

        // Nobody runs the timer: the miss waits upstream.
        ask(1, cold);
        assert!(answers.try_recv().is_err());
        clock.advance(RTT);
        // The next query is a hit, and whoever holds the shard does what is
        // due: the miss is answered behind it, before the call returns.
        ask(2, warm);
        assert_eq!(answered(&answers), [2, 1]);
        assert_eq!(counters.wakes.get(), 1, "the miss's own, and no more");
        let worker = hold(shards, 0);
        assert!(worker.parked.is_empty() && worker.upstream.is_empty());
        let snapshot = worker.resolver.snapshot();
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
        let control = stepped_shards(&fleet, cache, &clock, &[RTT, RTT]);
        let shards = control.shards();
        let (cold_domain, stale_domain) =
            (routed_to(&fleet, 0, 2, 1)[0], routed_to(&fleet, 1, 2, 1)[0]);
        // One shard has the stale domain cached, stamped as expired on the
        // way out of its cache and back in: its next query is a stale hit.
        {
            let mut guard = hold(shards, 1);
            let worker: &mut Worker = &mut guard;
            let query = Message::query(0, stale_domain.clone(), RrType::A);
            let primed = worker
                .resolver
                .handle_query(worker.exchanger.as_mut(), &query);
            assert_eq!(primed.answer_addresses().len(), 24);
            let now = worker.exchanger.now();
            for (key, mut cached) in worker.resolver.extract_entries(|_| true) {
                cached.expires_at = cached.generated_at;
                assert!(worker.resolver.install_entry(key, cached, now));
            }
        }
        clock.advance(RTT);
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();

        // The miss parks, its batch leaves from the socket thread, and the
        // timer is armed for its round trip.
        let wire = a_query(1, cold_domain);
        let tcp = ReplyPath::Tcp(reply.clone());
        assert!(serve_query(shards, &wire, tcp, &counters));
        {
            let worker = hold(shards, 0);
            assert_eq!((worker.parked.len(), worker.upstream.len()), (1, 1));
        }
        assert_eq!(counters.wakes.get(), 1);
        assert!(
            answers.try_recv().is_err(),
            "a miss is answered when it lands"
        );
        // The stale hit is answered before `serve_query` returns, and its
        // refresh departs the same way: the other shard's alarm is armed.
        let wire = a_query(2, stale_domain);
        let tcp = ReplyPath::Tcp(reply);
        assert!(serve_query(shards, &wire, tcp, &counters));
        let stale = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(stale.header.id, 2);
        assert!(stale.answers.iter().all(|record| record.ttl == 0));
        assert_eq!(hold(shards, 1).upstream.len(), 1);
        assert_eq!(counters.wakes.get(), 2);

        // Once the round trip is over, the timer lands the generation and
        // the refresh; the miss is answered from its landing.
        clock.advance(RTT);
        shards.land_due(whenever());
        let miss = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(miss.header.id, 1);
        assert_eq!(miss.answer_addresses().len(), 24);
        let snapshot = hold(shards, 0).resolver.snapshot();
        assert_eq!((snapshot.serve.misses, snapshot.serve.generations), (1, 1));
        let snapshot = hold(shards, 1).resolver.snapshot();
        assert_eq!(snapshot.serve.stale_serves, 1);
        assert_eq!(snapshot.serve.refreshes, 1);
        assert_eq!(snapshot.serve.generations, 2);
        assert_eq!(snapshot.live_generations, 0);
    }

    #[test]
    fn a_malformed_query_is_answered_with_its_own_id() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let control = open_shards(&fleet, 1, CacheConfig::default());
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        // Id 0xBEEF, RD set, one question announced and cut short.
        let mut wire = a_query(0xBEEF, &"pool.ntpns.org".parse().unwrap());
        wire.truncate(15);
        assert!(serve_query(
            control.shards(),
            &wire,
            ReplyPath::Tcp(reply),
            &counters
        ));
        let formerr = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(formerr.header.rcode, Rcode::FormErr);
        assert_eq!(formerr.header.id, 0xBEEF, "the stub matches it by id");
        assert!(formerr.header.recursion_desired);
    }

    #[test]
    fn refresh_runs_while_the_shard_queue_never_empties() {
        // Whoever serves a query deals with what is due after it, not only
        // the timer when a wait runs out. The shard is handed queries back
        // to back, with no pause for the timer to take its lock in: a stale
        // serve of B, whose refresh leaves on a 1 ms round trip, then far
        // more hits on A than fit into a millisecond, then B again. Only the
        // pump after each hit can have landed the refresh by then.
        const HITS: usize = 20_000;
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 2,
            upstream_latency: Duration::from_millis(1),
            ..LoopbackConfig::default()
        });
        let cache = CacheConfig::default()
            .with_ttl(Ttl::from_secs(60))
            .with_stale_window(Duration::from_secs(3600));
        let control = open_shards(&fleet, 1, cache);
        let shards = control.shards();
        // Both cached; B stamped as expired on the way out and back in.
        {
            let mut guard = hold(shards, 0);
            let worker: &mut Worker = &mut guard;
            for domain in &fleet.domains {
                let query = Message::query(0, domain.clone(), RrType::A);
                let primed = worker
                    .resolver
                    .handle_query(worker.exchanger.as_mut(), &query);
                assert_eq!(primed.answer_addresses().len(), 24);
            }
            let now = worker.exchanger.now();
            for (key, mut cached) in worker
                .resolver
                .extract_entries(|key| key.domain == fleet.domains[1])
            {
                cached.expires_at = cached.generated_at;
                assert!(worker.resolver.install_entry(key, cached, now));
            }
        }

        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: usize| {
            let wire = a_query(id, &fleet.domains[domain]);
            let tcp = ReplyPath::Tcp(reply.clone());
            assert!(serve_query(shards, &wire, tcp, &counters));
        };
        ask(1, 1);
        (0..HITS).for_each(|_| ask(2, 0));
        ask(3, 1);

        let answers: Vec<Message> = answers
            .try_iter()
            .map(|wire| Message::decode(&wire).unwrap())
            .collect();
        assert_eq!(answers.len(), HITS + 2, "every hit served in place");
        let (stale, again) = (&answers[0], &answers[HITS + 1]);
        assert_eq!((stale.header.id, again.header.id), (1, 3));
        assert!(stale.answers.iter().all(|r| r.ttl == 0), "B served stale");
        assert!(
            again.answers.iter().all(|r| r.ttl >= 1),
            "B was refreshed while the queries never paused"
        );
        let snapshot = hold(shards, 0).resolver.snapshot();
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
