//! The threaded real-socket serving runtime: [`PoolRuntime`].
//!
//! # Architecture
//!
//! ```text
//!               UDP datagrams                TCP (truncated retries)
//!                    │                                │
//!              ┌─────▼──────┐                  ┌──────▼──────┐
//!              │ dispatcher │                  │ tcp acceptor│
//!              └─────┬──────┘                  └──────┬──────┘
//!        hash(qname, qtype) ──────────────────────────┘
//!         ┌──────────┼─────────────┐   idle shard: served in place, under its lock
//!   ┌─────▼────┐ ┌───▼──────┐ ┌────▼─────┐ busy shard: a copy on its worker's queue
//!   │ shard 0  │ │ shard 1  │ │ shard N-1│ ◄── Snapshot / Reconfigure
//!   │ resolver │ │ resolver │ │ resolver │     items, on demand, over the
//!   │ + worker │ │ + worker │ │ + worker │     same queue as handed-off queries
//!   └──────────┘ └──────────┘ └──────────┘
//! ```
//!
//! Each shard is one [`CachingPoolResolver`] and one `Send` exchanger in a
//! cell behind a lock of its own, plus a worker thread. No lock is shared
//! between shards. The shard set is the one [`PoolRuntime::start`] was
//! handed, for the life of the runtime, and queries are routed by
//! `(domain, address family)` hash over it: every key always lands on the
//! same shard, which is the only one ever to cache it, and singleflight
//! coalescing keeps working per shard. The worker holds its shard's lock
//! for one item of its queue at a time, and keeps the shard's alarm: it
//! blocks on its queue while the shard has nothing upstream and nothing
//! queued for refresh, and otherwise wakes when the next round trip ends
//! or the resolver's
//! [`next_refresh_due`](CachingPoolResolver::next_refresh_due) has come
//! (see `worker_loop`). Upstream exchanges have no thread either:
//! what the shard's live generations have to send leaves as one batch
//! through the send half of the transport ([`Exchanger::depart`]) and is
//! collected by whichever thread holds the shard when its round trip is
//! over ([`Exchanger::arrive`]) — the diagram is the thread census, idle or
//! loaded. Statistics are taken on demand: [`PoolRuntime::stats`],
//! `/metrics` and `/healthz` each ask the shards for a [`ServeSnapshot`]
//! when they are called, and a shard answers between the items of its
//! queue whatever it has upstream.
//!
//! # The hit path
//!
//! The thread that read a query answers it. A socket thread that finds the
//! owning shard idle — its lock free and nothing queued to it — serves the
//! query from its receive buffer under that lock: no copy, no queue, no
//! wake-up. A shard that is busy (its worker is taking an item, landing
//! flights, or sleeping out the round trips before a source swap) or has
//! anything queued is handed an owned copy on its worker's queue, behind
//! everything already there, so no query overtakes a queued control item;
//! a socket thread never waits for a shard. Either way the query goes
//! through the shard's one serve function: read where it lies — validated
//! once, its header, question and EDNS payload size lent from its octets
//! ([`QueryView`]) — and answered through the two halves of the shared
//! Do53 core ([`decode_do53_query`], [`finish_do53_answer`]) around the
//! resolver's first step ([`begin`](CachingPoolResolver::begin), which
//! renders what
//! [`handle_query_wire`](sdoh_dns_server::QueryHandler::handle_query_wire)
//! renders) into the **one response buffer the shard keeps**. For a cached
//! pool that is a copy: the resolver encoded the answer section when the
//! generation entered its cache (see [`sdoh_core::serve`]), the cache is
//! probed with the name the query lends, and per hit only the header, the
//! echoed question and the TTL are written — no `Message` is built, no name
//! is copied, and a hit allocates nothing (`core/tests/alloc_budget.rs`
//! counts it). SERVFAILs, rejections and the few queries a template cannot
//! answer byte for byte are written from the query where it lies too
//! ([`QueryView::write_response`]) into the same buffer; there is no second
//! serve function and no switch.
//!
//! A response longer than the client can receive — the payload size its
//! query's OPT record advertised, 512 bytes without one, and never more
//! than the configured UDP payload limit; judged on the rendered length —
//! is replaced by an empty TC=1 message written from the query; clients
//! retry over the TCP listener bound to the same port number (RFC 1035
//! length-prefixed framing), and the connection handler takes the
//! buffer's contents with it.
//!
//! # The miss path
//!
//! A generation is a piece of data the shard owns, not a call its worker
//! sits inside. The resolver's first step
//! ([`begin`](CachingPoolResolver::begin)) either answers — everything
//! above — or opens a **flight** for the key (or finds the one already
//! live: concurrent misses for a key share it) and hands back its id; the
//! serving thread **parks** the query's octets — in one buffer the shard
//! keeps, so a miss allocates nothing once it has grown — its reply path
//! and its start time under that id and lets go of the shard. Hits, other
//! misses, and snapshots are served while the flight is upstream; a parked
//! query is read where it lies again when its flight lands.
//!
//! Whoever holds the shard does what is due. A socket thread that served a
//! query in place pumps the shard under the same hold of its lock, as the
//! worker does after each item: a zero round trip departs, lands and is
//! answered before the lock is let go, and with a real round trip the
//! socket thread sends the batch and the landing falls to whoever holds the
//! shard when it comes due.
//!
//! * *The alarm.* The shard keeps the instant its worker will next wake on
//!   its own: the worker waits on its queue with `recv_timeout` until the
//!   earliest round-trip end or refresh due that its last pump returned,
//!   with `recv()` when there is none (no alarm), and not at all when
//!   something is already due. A socket thread whose pump returns an
//!   instant earlier than the alarm — or any instant, when there is none —
//!   moves the alarm there and queues one `Wake`; anything later the worker
//!   meets on its own, so a second miss in the same round trip queues
//!   nothing. Two drivers, one serve and one pump, each honouring the wake
//!   the pump returns.
//! * *Land before take.* What is due is dealt with **after each item the
//!   worker takes, before it waits for the next** (under the same hold of
//!   the shard's lock), not only when the wait times out: batches whose
//!   round trip is over are collected and their outcomes landed, refreshes that came
//!   due open flights of their own (a refresh is a flight like any other:
//!   it leaves when it is due, and the stale serves that overlap it do not
//!   queue it again), every query parked on a flight that landed is
//!   answered from the landed report — rendered through the closing half
//!   of the same Do53 core, truncated by what *its* query advertised, one
//!   latency observation when it leaves — and what the live flights have
//!   to send departs as one batch. A queue that never runs empty cannot
//!   starve the flights, and a zero round trip lands in the same turn:
//!   no second query ever finds such a flight to join.
//! * *Who waits for landings.* Two items first land every live flight,
//!   sleeping out the round trips still upstream: a `Reconfigure` that
//!   swaps the source set or the pool configuration (so nothing generated
//!   under the old one is cached after the epoch is acked), and `Shutdown`
//!   (so every parked client is answered and the final statistics count
//!   every generation). `Snapshot` does not wait.
//!
//! A transport that knows nothing of the two halves takes their defaults —
//! `depart` performs the whole batch, blocking — and whichever thread pumps
//! the shard sits out each round trip, a socket thread serving in place
//! included: such a transport serves, but it is no way to serve fast.
//!
//! Both socket threads block in `recv_from` / `accept` and poll nothing —
//! as does the stats listener, when one is configured, in its own
//! `accept`: a lone client's TCP retry is accepted when it arrives, and an
//! error from either call is backed off from, never a reason to leave.
//! [`PoolRuntime::shutdown`] sets the stop flag, wakes each with one
//! throw-away message (an empty datagram, a connection never served), and
//! hands every worker a `Shutdown` item behind whatever its queue still
//! holds: the worker answers it with its last snapshot once it has landed
//! what it had upstream, and every thread is joined.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
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

/// How long a stats aggregation waits for each shard before marking it
/// unresponsive (a wedged worker must not wedge the exporter). A shard
/// answers between the items of its queue whatever it has upstream, so a
/// miss means a worker that is stuck, never an upstream that is slow.
const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(5);

/// The shorter deadline `/healthz` probes shards with: a readiness check
/// has to answer promptly even when a worker is wedged.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a socket loop stays away from a socket that just returned an
/// error, so a persistent one (descriptor exhaustion) cannot spin it.
const ERROR_BACKOFF: Duration = Duration::from_millis(1);

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
/// generations and refreshes go out through. Both move into the shard's
/// worker thread at [`PoolRuntime::start`] — which is exactly why the
/// whole serve layer is `Send`.
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

/// Front-door counters kept by the socket threads (everything behind the
/// dispatch point is counted per shard in [`ServeSnapshot`]s). The cells
/// are registry [`Counter`] handles, so the same bumps feed both
/// [`RuntimeStats`] and the `/metrics` exposition.
#[derive(Debug)]
pub(crate) struct FrontCounters {
    udp_received: Counter,
    tcp_received: Counter,
    truncated: Counter,
    dropped: Counter,
    /// Queries queued to a busy shard's worker rather than served in place.
    handed_off: Counter,
    /// `Wake` items a socket thread queued: its pump moved the shard's
    /// alarm earlier.
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
            handed_off: counter(vocabulary_row("sdoh_queries_handed_off_total")),
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

/// `sdoh_shard_queue_depth{shard}`: what each shard has queued and its
/// worker has not yet taken, read at the call.
fn queue_depth_gauges(shards: &[ShardTx]) -> impl Iterator<Item = Sample> + '_ {
    shards.iter().enumerate().map(|(index, shard)| {
        gauge(
            vocabulary_row("sdoh_shard_queue_depth"),
            vec![("shard".to_string(), index.to_string())],
            shard.cell.queued.load(Ordering::Acquire) as f64,
        )
    })
}

/// One aggregated statistics observation of a running [`PoolRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// Snapshot of every shard, in shard order. `None` for shards that did
    /// not answer the snapshot request within the timeout — a wedged
    /// worker, never a slow upstream (a shard with generations in flight
    /// answers between them and says how many in
    /// [`ServeSnapshot::live_generations`]) — never silently folded into
    /// the totals as zeros.
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
    /// Accepted queries that could not be handed to a shard worker — zero
    /// during normal operation, reconfigurations included.
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

pub(crate) enum WorkItem {
    /// Serve one wire-format query and reply along the given path: a query
    /// a socket thread found the shard busy for.
    Query { wire: Vec<u8>, reply: ReplyPath },
    /// Nothing to take: a socket thread's pump left the shard something
    /// due before the alarm its worker sleeps towards (or blocks without),
    /// and the pump after every item sets the new one. Not counted in
    /// [`ShardCell::queued`] (see [`ShardTx::wake`]).
    Wake,
    /// Report a consistent snapshot of this shard's state.
    Snapshot(mpsc::Sender<(usize, ServeSnapshot)>),
    /// Adopt a new config epoch and ack its number into the slot.
    Reconfigure {
        order: Arc<EpochOrder>,
        ack: Arc<AtomicU64>,
    },
    /// Land what is upstream, report the final snapshot and exit.
    Shutdown(mpsc::Sender<(usize, ServeSnapshot)>),
}

pub(crate) enum ReplyPath {
    /// Answer with `send_to` on the shared UDP socket; responses longer
    /// than the client can receive are truncated to TC=1.
    Udp(SocketAddr),
    /// Hand the full response back to the TCP connection handler.
    Tcp(mpsc::Sender<Vec<u8>>),
}

/// One shard's state behind its one lock, and the count of what is queued
/// to its worker.
pub(crate) struct ShardCell {
    worker: Mutex<Worker>,
    /// Items sent to the worker's queue and not yet taken, `Wake`s aside
    /// (no item is ordered behind one). It rises in
    /// [`ShardTx::send`] before the item is sent, and falls only under the
    /// lock, as the worker takes an item: read under the lock, zero means
    /// no queued item is overtaken by serving in place. The lock orders
    /// that read after every fall (each made under an earlier hold), and
    /// an `Acquire` read that happens after a rise (`AcqRel`) sees it.
    queued: AtomicUsize,
}

impl ShardCell {
    /// The worker thread's hold on its shard: one item, and the pump after
    /// it, at a time.
    // sdoh-lint: allow(transitive-hot-path-purity, "the shard's own lock: its worker holds it for one item at a time, and a socket thread only ever try_locks it, so no query waits on it")
    fn lock(&self) -> MutexGuard<'_, Worker> {
        self.worker.lock()
    }
}

/// The runtime's handle on one shard: its worker's queue and its cell.
#[derive(Clone)]
pub(crate) struct ShardTx {
    tx: mpsc::Sender<WorkItem>,
    cell: Arc<ShardCell>,
}

impl ShardTx {
    /// Puts `worker` in a cell of its own: the handle, and the queue its
    /// thread takes from.
    fn open(worker: Worker) -> (ShardTx, mpsc::Receiver<WorkItem>) {
        let (tx, rx) = mpsc::channel();
        let cell = Arc::new(ShardCell {
            worker: Mutex::new(worker),
            queued: AtomicUsize::new(0),
        });
        (ShardTx { tx, cell }, rx)
    }

    /// Queues `item` behind everything already queued to the shard, counted
    /// until its worker takes it. `false` once the worker is gone.
    pub(crate) fn send(&self, item: WorkItem) -> bool {
        self.cell.queued.fetch_add(1, Ordering::AcqRel);
        self.tx.send(item).is_ok()
    }

    /// Queues a `Wake`, uncounted: a query served in place may overtake it,
    /// since the pump it asks for is one that query's server has just run.
    /// `false` once the worker is gone.
    fn wake(&self) -> bool {
        self.tx.send(WorkItem::Wake).is_ok()
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
    service_handles: Vec<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    counters: Arc<FrontCounters>,
    clock: crate::clock::RuntimeClock,
    registry: Registry,
    stats_server: Option<StatsServer>,
}

impl PoolRuntime {
    /// Binds the sockets and spawns the worker, dispatcher and TCP
    /// threads. One worker thread per entry of `shards`: the runtime serves
    /// exactly these shards until it shuts down.
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

        // Each shard in its cell, with a worker thread of its own.
        let mut senders = Vec::with_capacity(shards.len());
        let mut worker_handles = Vec::with_capacity(shards.len());
        for (index, shard) in shards.into_iter().enumerate() {
            let (name, help) = sdoh_core::METRIC_SERVE_LATENCY;
            let outbox = Outbox {
                socket: Arc::clone(&udp),
                udp_payload_limit: config.udp_payload_limit,
                counters: Arc::clone(&counters),
                latency: registry.histogram_with(name, help, &[("shard", &index.to_string())]),
                response: Vec::with_capacity(config.udp_payload_limit),
            };
            let (tx, rx) = ShardTx::open(Worker::new(index, shard, outbox));
            let cell = Arc::clone(&tx.cell);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("sdoh-shard-{index}"))
                    .spawn(move || worker_loop(&cell, rx))?,
            );
            senders.push(tx);
        }
        let control = ControlHandle::new(senders, first_cache_config);

        // The serve-layer counters live inside the shards; a scrape-time
        // collector fetches fresh snapshots over the work queues and
        // renders them through the shared serve vocabulary, plus the
        // control-plane epoch gauges and each shard's queue depth.
        {
            let control = control.clone();
            registry.register_collector(Box::new(move || {
                let shards = control.shards();
                // Read before the snapshot requests join the queues.
                let depths: Vec<Sample> = queue_depth_gauges(shards).collect();
                let (per_shard, total) =
                    aggregate_shards(shards, SNAPSHOT_TIMEOUT, WorkItem::Snapshot);
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
                samples.extend(depths);
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

        // Dispatcher + TCP: two service threads besides the shard
        // workers (and the optional stats-HTTP listener above), each with
        // its own copy of the shard handles.
        let mut service_handles = Vec::with_capacity(2);
        {
            let socket = Arc::clone(&udp);
            let shards = control.shards().to_vec();
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            service_handles.push(
                std::thread::Builder::new()
                    .name("sdoh-dispatch".into())
                    .spawn(move || dispatcher_loop(socket, shards, stop, counters))?,
            );
        }
        {
            let shards = control.shards().to_vec();
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            service_handles.push(
                std::thread::Builder::new()
                    .name("sdoh-tcp".into())
                    .spawn(move || tcp_loop(tcp, shards, stop, counters))?,
            );
        }

        Ok(PoolRuntime {
            udp,
            udp_addr,
            tcp_addr,
            control,
            service_handles,
            worker_handles,
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

    /// Number of serving shards (worker threads): the shards the runtime
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
    /// now, asking every shard for a [`ServeSnapshot`] and merging them.
    /// Each shard's snapshot is internally consistent; shards are sampled
    /// at slightly different instants (they answer between queries).
    pub fn stats(&self) -> RuntimeStats {
        take_stats(
            self.control.shards(),
            WorkItem::Snapshot,
            &self.counters,
            self.control.current_epoch(),
            self.clock.now(),
        )
    }

    /// Graceful shutdown: stop accepting traffic, drain the worker queues,
    /// take the final aggregate and join every thread. Returns the final
    /// statistics; [`RuntimeStats::config_epoch`] is the final epoch.
    pub fn shutdown(mut self) -> RuntimeStats {
        // 1. Stop the socket threads (and the stats listener, so no
        //    scrape races the drain); no new work enters the queues. Each
        //    blocks on its socket and is woken by one throw-away message.
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.udp.send_to(&[], wake_addr(self.udp_addr));
        let _ = TcpStream::connect_timeout(&wake_addr(self.tcp_addr), Duration::from_secs(1));
        if let Some(mut server) = self.stats_server.take() {
            server.shutdown();
        }
        for handle in self.service_handles {
            let _ = handle.join();
        }
        // 2. Every shard gets a Shutdown item. It queues *behind* any
        //    remaining queries, and a worker answers it with its last
        //    snapshot after landing what it has upstream, so the numbers
        //    include every accepted query and every generation it began.
        let stats = take_stats(
            self.control.shards(),
            WorkItem::Shutdown,
            &self.counters,
            self.control.current_epoch(),
            self.clock.now(),
        );
        for handle in self.worker_handles {
            let _ = handle.join();
        }
        stats
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

/// Sends one reply-channel item to every worker and gathers the
/// `(shard index, T)` replies until `timeout`: one slot per worker, in
/// shard order. A shard that does not answer in time — wedged, or already
/// shut down — comes back as `None`, never as a silently-zero default.
fn ask_shards<T>(
    workers: &[ShardTx],
    timeout: Duration,
    request: impl Fn(mpsc::Sender<(usize, T)>) -> WorkItem,
) -> Vec<Option<T>> {
    let (tx, replies) = mpsc::channel();
    let requested = workers
        .iter()
        .filter(|shard| shard.send(request(tx.clone())))
        .count();
    let mut gathered: Vec<Option<T>> = (0..workers.len()).map(|_| None).collect();
    let deadline = Instant::now() + timeout;
    for _ in 0..requested {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match replies.recv_timeout(remaining) {
            Ok((index, reply)) => {
                if let Some(slot) = gathered.get_mut(index) {
                    *slot = Some(reply);
                }
            }
            Err(_) => break,
        }
    }
    gathered
}

/// The one statistics aggregation: every shard's [`ServeSnapshot`] (see
/// [`ask_shards`] for `None`) and the total of the responsive ones.
fn aggregate_shards(
    workers: &[ShardTx],
    timeout: Duration,
    request: fn(mpsc::Sender<(usize, ServeSnapshot)>) -> WorkItem,
) -> (Vec<Option<ServeSnapshot>>, ServeSnapshot) {
    let per_shard = ask_shards(workers, timeout, request);
    let mut total = ServeSnapshot::default();
    for snapshot in per_shard.iter().flatten() {
        total.absorb(snapshot);
    }
    (per_shard, total)
}

/// Shards that missed the snapshot deadline.
fn count_unresponsive(per_shard: &[Option<ServeSnapshot>]) -> usize {
    per_shard.iter().filter(|s| s.is_none()).count()
}

fn take_stats(
    workers: &[ShardTx],
    request: fn(mpsc::Sender<(usize, ServeSnapshot)>) -> WorkItem,
    counters: &FrontCounters,
    config_epoch: u64,
    taken_at: SimInstant,
) -> RuntimeStats {
    let (per_shard, total) = aggregate_shards(workers, SNAPSHOT_TIMEOUT, request);
    RuntimeStats {
        per_shard,
        total,
        udp_queries: counters.udp_received.get(),
        tcp_queries: counters.tcp_received.get(),
        truncated_responses: counters.truncated.get(),
        dropped_queries: counters.dropped.get(),
        config_epoch,
        taken_at,
    }
}

/// The `/healthz` readiness probe: 200 when every shard answered its
/// snapshot within the (short) health deadline, 503 otherwise. The body
/// reports shard liveness plus the pool-guarantee state — generation
/// failures mean some queries were answered from negatively-cached
/// failures rather than fresh secure generations.
fn healthz(shards: &[ShardTx]) -> HttpResponse {
    let (per_shard, total) = aggregate_shards(shards, HEALTH_TIMEOUT, WorkItem::Snapshot);
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

/// Routes `(qname lowercase, qtype)` straight from the wire. `None` when
/// there is no parseable first question.
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
    loop {
        let len = usize::from(*wire.get(i)?);
        if len == 0 {
            i += 1;
            break;
        }
        if len & 0xC0 != 0 {
            // Compression pointers don't appear in well-formed questions.
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
    let mut hasher = DefaultHasher::new();
    hasher.write(dotted.get(..filled)?);
    hasher.write_u16(u16::from_be_bytes([*wire.get(i)?, *wire.get(i + 1)?]));
    let shards = u64::try_from(shards.max(1)).ok()?;
    usize::try_from(hasher.finish() % shards).ok()
}

fn dispatcher_loop(
    socket: Arc<UdpSocket>,
    shards: Vec<ShardTx>,
    stop: Arc<AtomicBool>,
    counters: Arc<FrontCounters>,
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
                let delivered = shards
                    .get(shard_for(wire, shards.len()))
                    .is_some_and(|shard| {
                        serve_or_hand_off(shard, wire, ReplyPath::Udp(peer), &counters)
                    });
                if !delivered {
                    counters.dropped.inc();
                }
            }
            // An error (a signal, ICMP feedback) is not about the next datagram.
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Answers one query a socket thread read, through the owning shard's one
/// serve function ([`Worker::serve`]). When the shard is idle — its lock
/// free and nothing queued to it — the calling thread serves the query in
/// place, from the buffer it was read into: no copy, no queue, no wake-up.
/// Otherwise the shard's worker is handed an owned copy on its queue,
/// behind everything queued there. A socket thread never waits for a
/// shard, and no query overtakes an item queued before it.
///
/// Serving in place, the thread then does what is due under the same hold
/// of the lock ([`Worker::pump_in_place`]): a zero round trip is answered
/// before this returns, a real one departs. The worker is woken — counted
/// in `sdoh_shard_wakes_total` — only when that leaves something due before
/// its alarm. `false` when the shard's worker is gone.
fn serve_or_hand_off(
    shard: &ShardTx,
    wire: &[u8],
    reply: ReplyPath,
    counters: &FrontCounters,
) -> bool {
    let cell = &shard.cell;
    if cell.queued.load(Ordering::Acquire) == 0 {
        if let Some(mut guard) = cell.worker.try_lock() {
            // Read again under the lock, where it only falls.
            if cell.queued.load(Ordering::Acquire) == 0 {
                let worker: &mut Worker = &mut guard;
                worker.serve(wire, reply);
                let wake = worker.pump_in_place();
                drop(guard);
                if !wake {
                    return true;
                }
                counters.wakes.inc();
                return shard.wake();
            }
        }
    }
    counters.handed_off.inc();
    // sdoh-lint: allow(transitive-hot-path-purity, "the busy fallback: the owned copy is the queue hand-off, one alloc per query a busy shard is handed")
    let wire = wire.to_vec();
    shard.send(WorkItem::Query { wire, reply })
}

fn tcp_loop(
    listener: TcpListener,
    shards: Vec<ShardTx>,
    stop: Arc<AtomicBool>,
    counters: Arc<FrontCounters>,
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
                let _ = serve_tcp_connection(stream, &shards, &counters);
            }
            // An error (a reset in the backlog, a signal) is not about the
            // next connection: leaving would strand every truncated pool.
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Serves RFC 1035 4.2.2 length-prefixed queries until the peer closes
/// (or a read times out). Queries are routed over the same shards as the
/// dispatcher's, and served in place or handed off as its are.
fn serve_tcp_connection(
    stream: TcpStream,
    shards: &[ShardTx],
    counters: &FrontCounters,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_nodelay(true)?;
    serve_framed(stream, shards, counters)
}

/// The loop of [`serve_tcp_connection`] over any byte stream. Query frames
/// are read into one buffer per connection, and an answer leaves behind its
/// length in one write: with `TCP_NODELAY` set, each write is a segment of
/// its own.
///
/// Answers come back over one channel per connection — one served in place
/// is already there when [`serve_or_hand_off`] returns — and one query is
/// out at a time. A timed-out query ends the connection and drops the
/// channel with it, so an answer that comes late can never be read as the
/// next query's. A shard answers every query it takes — and `shutdown`
/// stops this thread before the shards — so a query a shard dropped
/// unanswered would wait out the timeout rather than fail at once, the one
/// thing a channel per query would do better.
fn serve_framed(
    mut stream: impl Read + Write,
    shards: &[ShardTx],
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
        let delivered = shards
            .get(shard_for(&wire, shards.len()))
            .is_some_and(|shard| {
                serve_or_hand_off(shard, &wire, ReplyPath::Tcp(tx.clone()), counters)
            });
        if !delivered {
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

/// A query whose generation is upstream: everything answering it takes.
/// Its octets sit in the shard's buffer of parked octets, and are read
/// where they lie again when the flight lands.
struct Parked {
    flight: FlightId,
    /// Where the query's octets are in the shard's parked octets.
    octets: Range<usize>,
    reply: ReplyPath,
    /// When the shard took the query: in place, or off its queue.
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
    /// empty) and records the query's latency: one observation per query,
    /// made when its answer leaves — at once for what the cache answered,
    /// at the landing for a parked miss. `query` is the datagram read
    /// where it lies; a UDP answer longer than its sender can receive
    /// becomes the TC=1 response.
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

/// A shard's state: the resolver, its way out, and the two lists that make
/// a generation a piece of data — the queries parked on live flights and
/// the batches upstream. It lives in the shard's [`ShardCell`]: whoever
/// holds the cell's lock serves through it.
struct Worker {
    index: usize,
    resolver: CachingPoolResolver,
    exchanger: Box<dyn Exchanger + Send>,
    outbox: Outbox,
    /// In arrival order: the order a flight's waiters are answered in.
    parked: Vec<Parked>,
    /// The octets of the parked queries, in the same order: one buffer the
    /// shard keeps, so parking a miss allocates nothing once it has grown.
    parked_octets: Vec<u8>,
    /// In departure order.
    upstream: Vec<Upstream>,
    /// When the worker thread next wakes on its own: what its last pump
    /// returned, or an earlier instant a socket thread's pump moved it to
    /// (and queued a `Wake` for). `None`: it blocks on its queue.
    alarm: Option<SimInstant>,
}

impl Worker {
    fn new(index: usize, shard: Shard, outbox: Outbox) -> Worker {
        Worker {
            index,
            resolver: shard.resolver,
            exchanger: shard.exchanger,
            outbox,
            parked: Vec::new(),
            parked_octets: Vec::new(),
            upstream: Vec::new(),
            alarm: None,
        }
    }

    /// Takes one query through the shared Do53 core — identical wire
    /// behaviour to the simulated `Do53Service` by construction — around the
    /// resolver's first step, reading it where it lies in `wire`: what the
    /// cache can answer is answered now, a miss is parked under its flight
    /// for the pump that follows to send, its octets copied into the
    /// shard's parked octets. The one serve function, whichever thread
    /// holds the shard.
    fn serve(&mut self, wire: &[u8], reply: ReplyPath) {
        let started = Instant::now();
        let Some(query) = decode_do53_query(wire, false, &mut self.outbox.response) else {
            return self.outbox.send(None, &reply, started);
        };
        let begun = self
            .resolver
            .begin(self.exchanger.as_mut(), &query, &mut self.outbox.response);
        match begun {
            Ok(Some(flight)) => {
                let at = self.parked_octets.len();
                self.parked_octets.extend_from_slice(wire);
                self.parked.push(Parked {
                    flight,
                    octets: at..self.parked_octets.len(),
                    reply,
                    started,
                });
            }
            answered => {
                finish_do53_answer(&query, answered.map(drop), &mut self.outbox.response);
                self.outbox.send(Some(&query), &reply, started);
            }
        }
    }

    /// Everything the shard's flights need done that is due **now**: lands
    /// the batches whose round trip is over, opens the refreshes that came
    /// due, answers the queries parked on what landed and sends what the
    /// live flights have to send — as one batch, so generations of different
    /// keys share a round trip. It repeats while anything is already due: a
    /// zero round trip lands in the same turn, before another query can join
    /// its flight. Returns the next instant anything is due — the earliest
    /// round trip's end or queued refresh — and `None` when nothing is.
    // sdoh-lint: allow(transitive-hot-path-purity, "the miss path, pumped by worker_loop after every item and by serve_or_hand_off after every query served in place: past the first check only with a flight live or a refresh queued, at most one generation per (question, TTL window), whose fan-out dwarfs these buffers; a shard of cache hits returns at the first check")
    fn pump(&mut self) -> Option<SimInstant> {
        if self.upstream.is_empty()
            && self.parked.is_empty()
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
                    // The tags are this worker's own, so their flights take
                    // the outcomes.
                    if let Some(&(flight, transaction)) = tags.get(outcome.index) {
                        let _ = self.resolver.land(flight, transaction, outcome.result);
                    }
                }
            }
            self.resolver.begin_due_refreshes(self.exchanger.as_mut());
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
            if parked.flight != landed.flight {
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

    /// [`pump`](Worker::pump) for a thread other than the worker's. `true`
    /// when what is left is due before the alarm — or anything is, with no
    /// alarm set — which then moves there: the worker must be woken to
    /// meet it. Anything later it meets on its own.
    fn pump_in_place(&mut self) -> bool {
        let due = self.pump();
        let earlier = due.is_some_and(|due| self.alarm.is_none_or(|alarm| due < alarm));
        if earlier {
            self.alarm = due;
        }
        earlier
    }

    /// Lands every live flight and answers everything parked, sleeping out
    /// the round trips still upstream — what an item that ends an order (a
    /// source set or pool configuration swapped, the shard shut down) does
    /// first, so that nothing generated under the old order arrives under
    /// the new one. One round trip, at operator cadence.
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

    /// Takes one item off the shard's queue. `Break` once the shard has
    /// shut down.
    fn handle(&mut self, item: WorkItem) -> ControlFlow<()> {
        match item {
            WorkItem::Query { wire, reply } => self.serve(&wire, reply),
            WorkItem::Wake => {}
            WorkItem::Snapshot(tx) => {
                let _ = tx.send((self.index, self.resolver.snapshot()));
            }
            WorkItem::Reconfigure { order, ack } => {
                if order.sources.is_some() || order.pool.is_some() {
                    // The ack says "nothing this shard caches from now on
                    // came from the old set": what the old set still has
                    // upstream lands first.
                    self.land_everything();
                }
                if let Some(factory) = &order.sources {
                    // An empty per-shard set is rejected by the generator:
                    // the shard keeps its current sources.
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
                ack.store(order.epoch, Ordering::Release);
            }
            WorkItem::Shutdown(tx) => {
                self.land_everything();
                let _ = tx.send((self.index, self.resolver.snapshot()));
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }
}

/// One shard's thread: takes its queue in order and keeps the shard's
/// alarm. A miss does not hold it: the query is parked under its flight and
/// the shard is free again, and a socket thread that serves in place does
/// what is due itself (see "The miss path" in the module doc). It holds the
/// shard's lock once per item: it takes the item, deals with what is due,
/// and sets the alarm to the next instant anything is. With nothing
/// upstream and nothing queued for refresh there is no alarm and it blocks
/// on the queue — an idle or all-fresh shard makes no timed wake-ups.
/// Otherwise it waits no longer than the alarm, or until a socket thread
/// queues a `Wake` because it moved the alarm earlier, and deals with what
/// is due *after every item*: a landing happens after the timeout *and*
/// after any item that finishes past it, so a queue that never runs empty
/// cannot starve the flights or the refreshes.
fn worker_loop(cell: &ShardCell, rx: mpsc::Receiver<WorkItem>) {
    let mut wait = None;
    loop {
        // `None`: disconnected — every sender is gone. `Some(None)`: the
        // wait timed out.
        let taken = match wait {
            None => rx.recv().ok().map(Some),
            Some(wait) => match rx.recv_timeout(wait) {
                Ok(item) => Some(Some(item)),
                Err(mpsc::RecvTimeoutError::Timeout) => Some(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => None,
            },
        };
        let mut guard = ShardCell::lock(cell);
        let worker: &mut Worker = &mut guard;
        let flow = match taken {
            Some(Some(item)) => {
                if !matches!(item, WorkItem::Wake) {
                    cell.queued.fetch_sub(1, Ordering::AcqRel);
                }
                worker.handle(item)
            }
            Some(None) => ControlFlow::Continue(()),
            None => {
                worker.land_everything();
                ControlFlow::Break(())
            }
        };
        if flow.is_break() {
            return;
        }
        worker.alarm = worker.pump();
        wait = worker
            .alarm
            .map(|due| due.saturating_duration_since(worker.exchanger.now()));
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
    use crate::control::EpochOrder;
    use crate::{LoopbackConfig, LoopbackFleet};
    use sdoh_core::{CacheConfig, PoolConfig};
    use sdoh_dns_server::{ExchangeOutcome, ExchangeRequest, QueryHandler};
    use sdoh_dns_wire::{Message, Name, Rcode, RrType, Ttl};
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

    /// `n` shards of `fleet`, each in its cell behind a queue nobody takes
    /// from yet. UDP answers would leave through a socket nobody reads; the
    /// tests ask over the TCP reply path.
    fn open_shards(
        fleet: &LoopbackFleet,
        n: usize,
        cache: CacheConfig,
    ) -> Vec<(ShardTx, mpsc::Receiver<WorkItem>)> {
        open(fleet.shards(n, PoolConfig::algorithm1(), cache).unwrap())
    }

    /// [`open_shards`] on a clock the test moves: each round trip takes
    /// `rtt` of `clock`, so nothing upstream lands before the test says
    /// the round trip is over.
    fn stepped_shards(
        fleet: &LoopbackFleet,
        n: usize,
        cache: CacheConfig,
        clock: &sdoh_netsim::SimClock,
        rtt: Duration,
    ) -> Vec<(ShardTx, mpsc::Receiver<WorkItem>)> {
        let shards = fleet.shards(n, PoolConfig::algorithm1(), cache).unwrap();
        open(
            shards
                .into_iter()
                .map(|shard| {
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
    fn open(shards: Vec<Shard>) -> Vec<(ShardTx, mpsc::Receiver<WorkItem>)> {
        let socket = Arc::new(UdpSocket::bind("127.0.0.1:0").unwrap());
        let counters = Arc::new(FrontCounters::register(&Registry::new()));
        shards
            .into_iter()
            .enumerate()
            .map(|(index, shard)| {
                let outbox = Outbox {
                    socket: Arc::clone(&socket),
                    udp_payload_limit: 1232,
                    counters: Arc::clone(&counters),
                    latency: Histogram::new(),
                    response: Vec::new(),
                };
                ShardTx::open(Worker::new(index, shard, outbox))
            })
            .collect()
    }

    /// One shard of a default fleet, for tests that play its worker.
    fn one_shard() -> (ShardTx, mpsc::Receiver<WorkItem>) {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        open_shards(&fleet, 1, CacheConfig::default()).remove(0)
    }

    fn a_query(id: u16, domain: &Name) -> Vec<u8> {
        Message::query(id, domain.clone(), RrType::A)
            .encode()
            .unwrap()
    }

    /// What the scrape would export as the shard's `sdoh_shard_queue_depth`.
    fn queue_depth(shard: &ShardTx) -> SampleValue {
        let gauges: Vec<Sample> = queue_depth_gauges(std::slice::from_ref(shard)).collect();
        assert_eq!(gauges.len(), 1);
        assert_eq!(gauges[0].name, "sdoh_shard_queue_depth");
        gauges[0].value.clone()
    }

    /// Runs `shard`'s worker on a thread of its own until it is told to
    /// shut down; the join hands back its last snapshot.
    fn run_worker(
        shard: &ShardTx,
        rx: mpsc::Receiver<WorkItem>,
    ) -> impl FnOnce() -> ServeSnapshot + '_ {
        let worker = {
            let cell = Arc::clone(&shard.cell);
            std::thread::spawn(move || worker_loop(&cell, rx))
        };
        move || {
            let (last, snapshot) = mpsc::channel();
            assert!(shard.send(WorkItem::Shutdown(last)));
            worker.join().unwrap();
            snapshot.recv().unwrap().1
        }
    }

    #[test]
    fn accept_errors_do_not_end_the_tcp_loop() {
        // A non-blocking listener makes `accept` fail for as long as nobody
        // connects — a stand-in for the errors a blocking one returns now
        // and then (a connection aborted in the backlog, a signal).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (shard, rx) = one_shard();
        // The test plays the shard's worker: it holds the shard, so the
        // query is handed to the queue it reads.
        let _busy = ShardCell::lock(&shard.cell);
        let shards = vec![shard.clone()];
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(FrontCounters::register(&Registry::new()));
        let acceptor = {
            let (stop, counters) = (Arc::clone(&stop), Arc::clone(&counters));
            std::thread::spawn(move || tcp_loop(listener, shards, stop, counters))
        };
        // Several back-offs' worth of failed accepts later a query over the
        // listener still reaches the shard queue, and its answer the client.
        std::thread::sleep(ERROR_BACKOFF * 5);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0, 2, 0xAB, 0xCD]).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(WorkItem::Query {
                wire,
                reply: ReplyPath::Tcp(reply),
            }) => {
                assert_eq!(wire, [0xAB, 0xCD]);
                reply.send(vec![0xEF]).unwrap();
            }
            _ => panic!("the query never reached the shard queue"),
        }
        let mut framed = [0u8; 3];
        stream.read_exact(&mut framed).unwrap();
        assert_eq!(framed, [0, 1, 0xEF]);
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

    #[test]
    fn a_tcp_answer_leaves_in_one_write() {
        let (shard, rx) = one_shard();
        // Held by this thread, the shard is busy for `serve_framed` too: the
        // queries go to the queue the thread below plays the worker on.
        let _busy = ShardCell::lock(&shard.cell);
        let counters = FrontCounters::register(&Registry::new());
        // Two queries, then the peer closes.
        let mut stream = Recorded {
            script: std::io::Cursor::new(vec![0, 2, 0xAB, 0xCD, 0, 1, 0x01]),
            writes: Vec::new(),
        };
        let worker = std::thread::spawn(move || {
            for answer in [vec![0xEF; 3], vec![0x11; 300]] {
                let Ok(WorkItem::Query {
                    reply: ReplyPath::Tcp(reply),
                    ..
                }) = rx.recv()
                else {
                    panic!("a TCP query reaches the shard queue");
                };
                reply.send(answer).unwrap();
            }
        });
        serve_framed(&mut stream, std::slice::from_ref(&shard), &counters).unwrap();
        worker.join().unwrap();
        assert_eq!(
            stream.writes,
            [
                [&[0, 3][..], &[0xEF; 3]].concat(),
                [&[1, 44][..], &[0x11; 300]].concat(),
            ],
            "each answer one write, its length in front"
        );
        assert_eq!(counters.tcp_received.get(), 2);
        assert_eq!(counters.handed_off.get(), 2);
    }

    /// Two queries written back to back on one connection, for keys of two
    /// different shards: each gets its own answer, in the order asked, and
    /// the second is read only once the first is answered.
    #[test]
    fn pipelined_tcp_queries_get_their_own_answers_in_order() {
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 8,
            ..LoopbackConfig::default()
        });
        let mut shards = open_shards(&fleet, 2, CacheConfig::default());
        let (second, second_queue) = shards.pop().unwrap();
        let (first, first_queue) = shards.pop().unwrap();
        // Both held by this thread: each query goes to the queue a thread
        // below plays its shard's worker on.
        let _busy = (ShardCell::lock(&first.cell), ShardCell::lock(&second.cell));
        // Each answer is its query reversed.
        let worker = |queue: mpsc::Receiver<WorkItem>| {
            std::thread::spawn(move || {
                let Ok(WorkItem::Query {
                    wire,
                    reply: ReplyPath::Tcp(reply),
                }) = queue.recv()
                else {
                    panic!("a TCP query reaches the shard queue");
                };
                reply.send(wire.iter().rev().copied().collect()).unwrap();
            })
        };
        let workers = [worker(first_queue), worker(second_queue)];
        let query = |index: usize, id: u16| {
            let domain = fleet
                .domains
                .iter()
                .find(|domain| shard_for(&a_query(id, domain), 2) == index)
                .expect("some domain routes to each shard");
            a_query(id, domain)
        };
        // The first asked goes to the second shard, the second to the first.
        let asked = [query(1, 1), query(0, 2)];
        let counters = FrontCounters::register(&Registry::new());
        let framed = |wire: &[u8]| {
            let len = u16::try_from(wire.len()).unwrap().to_be_bytes();
            [&len[..], wire].concat()
        };
        let mut stream = Recorded {
            script: std::io::Cursor::new([framed(&asked[0]), framed(&asked[1])].concat()),
            writes: Vec::new(),
        };
        serve_framed(&mut stream, &[first.clone(), second.clone()], &counters).unwrap();
        for worker in workers {
            worker.join().unwrap();
        }
        let reversed = |wire: &[u8]| framed(&wire.iter().rev().copied().collect::<Vec<u8>>());
        assert_eq!(
            stream.writes,
            [reversed(&asked[0]), reversed(&asked[1])],
            "each query's own answer, in order"
        );
        assert_eq!(counters.tcp_received.get(), 2);
    }

    #[test]
    fn a_query_to_a_busy_shard_is_handed_off_and_answered_once_it_is_free() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let (shard, rx) = open_shards(&fleet, 1, CacheConfig::default()).remove(0);
        let stop = run_worker(&shard, rx);
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16| {
            let wire = a_query(id, &fleet.domains[0]);
            serve_or_hand_off(&shard, &wire, ReplyPath::Tcp(reply.clone()), &counters)
        };

        // The test holds the shard: the query is handed to the worker's
        // queue, and nobody can serve it yet.
        let busy = ShardCell::lock(&shard.cell);
        assert!(ask(1));
        assert_eq!(counters.handed_off.get(), 1);
        assert_eq!(queue_depth(&shard), SampleValue::Gauge(1.0));
        assert!(
            answers.try_recv().is_err(),
            "served while the shard was busy"
        );
        drop(busy);
        let first = Message::decode(&answers.recv().unwrap()).unwrap();
        assert_eq!(first.header.id, 1);
        assert_eq!(first.answer_addresses().len(), 24);
        // Once the worker has let go of the shard it took the query under,
        // nothing is queued and the shard is idle: the next query (a hit
        // now) is answered before `serve_or_hand_off` returns.
        drop(ShardCell::lock(&shard.cell));
        assert_eq!(queue_depth(&shard), SampleValue::Gauge(0.0));
        assert!(ask(2));
        let second = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(second.header.id, 2);
        assert_eq!(counters.handed_off.get(), 1, "the fallback path only");

        let snapshot = stop();
        assert_eq!((snapshot.serve.queries, snapshot.serve.hits), (2, 1));
        assert_eq!(snapshot.serve.generations, 1);
    }

    #[test]
    fn a_queued_reconfigure_is_not_overtaken() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let (shard, rx) = open_shards(&fleet, 1, CacheConfig::default()).remove(0);
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        // Nobody runs the worker yet: the new TTL stays queued.
        let ack = Arc::new(AtomicU64::new(0));
        let order = EpochOrder {
            epoch: 1,
            cache: CacheConfig::default().with_ttl(Ttl::from_secs(7)),
            pool: None,
            sources: None,
        };
        assert!(shard.send(WorkItem::Reconfigure {
            order: Arc::new(order),
            ack: Arc::clone(&ack),
        }));
        // The shard's lock is free, but something is queued: the query
        // queues behind it instead of starting in place.
        let wire = a_query(1, &fleet.domains[0]);
        assert!(serve_or_hand_off(
            &shard,
            &wire,
            ReplyPath::Tcp(reply),
            &counters
        ));
        assert_eq!(counters.handed_off.get(), 1);
        assert_eq!(queue_depth(&shard), SampleValue::Gauge(2.0));
        assert!(
            ShardCell::lock(&shard.cell).parked.is_empty(),
            "the query started in place"
        );

        let (last, _) = mpsc::channel();
        assert!(shard.send(WorkItem::Shutdown(last)));
        worker_loop(&shard.cell, rx);
        assert_eq!(ack.load(Ordering::Acquire), 1);
        let answer = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(answer.answer_addresses().len(), 24);
        assert!(
            answer.answers.iter().all(|record| record.ttl == 7),
            "served under the new TTL"
        );
    }

    #[test]
    fn a_zero_rtt_miss_served_in_place_is_answered_before_the_call_returns() {
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let (shard, rx) = open_shards(&fleet, 1, CacheConfig::default()).remove(0);
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let wire = a_query(1, &fleet.domains[0]);
        assert!(serve_or_hand_off(
            &shard,
            &wire,
            ReplyPath::Tcp(reply),
            &counters
        ));
        // Departed, landed and answered under one hold of the lock.
        let answer = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(answer.header.id, 1);
        assert_eq!(answer.answer_addresses().len(), 24);
        assert_eq!(queue_depth(&shard), SampleValue::Gauge(0.0));
        assert_eq!((counters.wakes.get(), counters.handed_off.get()), (0, 0));
        assert!(rx.try_recv().is_err(), "nothing queued for the worker");
        let worker = ShardCell::lock(&shard.cell);
        assert!(worker.parked.is_empty() && worker.upstream.is_empty());
        assert_eq!(worker.alarm, None);
        let snapshot = worker.resolver.snapshot();
        assert_eq!((snapshot.serve.misses, snapshot.serve.generations), (1, 1));
    }

    #[test]
    fn a_miss_upstream_wakes_the_worker_once_and_a_second_miss_not_at_all() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let (shard, rx) = stepped_shards(&fleet, 1, CacheConfig::default(), &clock, RTT).remove(0);
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: &Name| {
            let tcp = ReplyPath::Tcp(reply.clone());
            assert!(serve_or_hand_off(
                &shard,
                &a_query(id, domain),
                tcp,
                &counters
            ));
        };

        // The socket thread sends the batch; its round trip ends after the
        // alarm of a worker that blocks on its queue: one `Wake`.
        ask(1, &fleet.domains[0]);
        assert_eq!(counters.wakes.get(), 1);
        {
            let worker = ShardCell::lock(&shard.cell);
            assert_eq!((worker.parked.len(), worker.upstream.len()), (1, 1));
            assert_eq!(worker.alarm, Some(clock.now().saturating_add(RTT)));
        }
        // A second key, before the worker has run: served in place past the
        // queued `Wake`, and due no earlier than the alarm, so no second.
        ask(2, &fleet.domains[1]);
        assert_eq!(counters.wakes.get(), 1);
        assert_eq!(counters.handed_off.get(), 0);
        assert_eq!(queue_depth(&shard), SampleValue::Gauge(0.0));
        {
            let worker = ShardCell::lock(&shard.cell);
            assert_eq!((worker.parked.len(), worker.upstream.len()), (2, 2));
        }
        assert!(
            answers.try_recv().is_err(),
            "a miss is answered when it lands"
        );

        // The worker runs; once the round trip is over, it lands both.
        let stop = run_worker(&shard, rx);
        clock.advance(RTT);
        let mut ids: Vec<u16> = (0..2)
            .map(|_| {
                let answer = Message::decode(&answers.recv().unwrap()).unwrap();
                assert_eq!(answer.answer_addresses().len(), 24);
                answer.header.id
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 2]);
        let snapshot = stop();
        assert_eq!((snapshot.serve.misses, snapshot.serve.generations), (2, 2));
        assert_eq!(counters.wakes.get(), 1);
    }

    #[test]
    fn queries_parked_on_flights_that_land_apart_keep_their_own_octets() {
        const RTT: Duration = Duration::from_millis(2);
        let fleet = LoopbackFleet::build(LoopbackConfig::default());
        let clock = sdoh_netsim::SimClock::new();
        let (shard, _rx) = stepped_shards(&fleet, 1, CacheConfig::default(), &clock, RTT).remove(0);
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
            assert!(serve_or_hand_off(&shard, wire, tcp, &counters));
        }
        let parked_len = |worker: &Worker| (worker.parked.len(), worker.parked_octets.len());
        assert_eq!(
            parked_len(&ShardCell::lock(&shard.cell)),
            (4, asked.iter().map(Vec::len).sum())
        );

        // The first flight lands: its queries are answered, and the second
        // flight's octets close up behind them.
        clock.advance(RTT / 2);
        ShardCell::lock(&shard.cell).pump();
        assert_eq!(
            parked_len(&ShardCell::lock(&shard.cell)),
            (2, asked[1].len() + asked[3].len())
        );
        clock.advance(RTT / 2);
        ShardCell::lock(&shard.cell).pump();
        assert_eq!(parked_len(&ShardCell::lock(&shard.cell)), (0, 0));

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
        let (shard, _rx) = stepped_shards(&fleet, 1, CacheConfig::default(), &clock, RTT).remove(0);
        let (cold, warm) = (&fleet.domains[0], &fleet.domains[1]);
        {
            let mut guard = ShardCell::lock(&shard.cell);
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
            assert!(serve_or_hand_off(
                &shard,
                &a_query(id, domain),
                tcp,
                &counters
            ));
        };

        // Nobody runs the worker: the miss waits upstream.
        ask(1, cold);
        assert!(answers.try_recv().is_err());
        clock.advance(RTT);
        // The next query served in place is a hit, and whoever holds the
        // shard does what is due: the miss is answered behind it, before
        // the call returns.
        ask(2, warm);
        let ids: Vec<u16> = answers
            .try_iter()
            .map(|wire| Message::decode(&wire).unwrap().header.id)
            .collect();
        assert_eq!(ids, [2, 1]);
        assert_eq!(counters.wakes.get(), 1, "the miss's own, and no more");
        assert_eq!(counters.handed_off.get(), 0);
        let worker = ShardCell::lock(&shard.cell);
        assert!(worker.parked.is_empty() && worker.upstream.is_empty());
        let snapshot = worker.resolver.snapshot();
        assert_eq!((snapshot.serve.hits, snapshot.serve.generations), (1, 2));
    }

    #[test]
    fn misses_and_refreshes_met_in_place_are_finished_by_the_worker() {
        const RTT: Duration = Duration::from_millis(1);
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 2,
            ..LoopbackConfig::default()
        });
        let cache = CacheConfig::default()
            .with_ttl(Ttl::from_secs(60))
            .with_stale_window(Duration::from_secs(3600));
        let clock = sdoh_netsim::SimClock::new();
        let mut shards = stepped_shards(&fleet, 2, cache, &clock, RTT);
        let (stale_shard, stale_rx) = shards.pop().unwrap();
        let (miss_shard, miss_rx) = shards.pop().unwrap();
        let (cold_domain, stale_domain) = (&fleet.domains[0], &fleet.domains[1]);
        // One shard has the stale domain cached, stamped as expired on the
        // way out of its cache and back in: its next query is a stale hit.
        {
            let mut guard = ShardCell::lock(&stale_shard.cell);
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

        // Neither worker runs yet, so both shards are idle. The miss parks
        // in place, its batch leaves from the socket thread, and its worker,
        // blocked on its queue, is woken once.
        let wire = a_query(1, cold_domain);
        let tcp = ReplyPath::Tcp(reply.clone());
        assert!(serve_or_hand_off(&miss_shard, &wire, tcp, &counters));
        {
            let worker = ShardCell::lock(&miss_shard.cell);
            assert_eq!((worker.parked.len(), worker.upstream.len()), (1, 1));
        }
        assert_eq!(counters.wakes.get(), 1);
        assert!(
            answers.try_recv().is_err(),
            "a miss is answered when it lands"
        );
        // The stale hit is answered before `serve_or_hand_off` returns, and
        // its refresh departs the same way: a second wake, for a second
        // worker.
        let wire = a_query(2, stale_domain);
        let tcp = ReplyPath::Tcp(reply);
        assert!(serve_or_hand_off(&stale_shard, &wire, tcp, &counters));
        let stale = Message::decode(&answers.try_recv().unwrap()).unwrap();
        assert_eq!(stale.header.id, 2);
        assert!(stale.answers.iter().all(|record| record.ttl == 0));
        assert_eq!(ShardCell::lock(&stale_shard.cell).upstream.len(), 1);
        assert_eq!(counters.wakes.get(), 2);
        assert_eq!(counters.handed_off.get(), 0, "both served in place");

        // Woken, the workers land the generation and the refresh once their
        // round trip is over; the miss is answered from its landing.
        let stop_miss = run_worker(&miss_shard, miss_rx);
        let stop_stale = run_worker(&stale_shard, stale_rx);
        clock.advance(RTT);
        let miss = Message::decode(&answers.recv().unwrap()).unwrap();
        assert_eq!(miss.header.id, 1);
        assert_eq!(miss.answer_addresses().len(), 24);
        let snapshot = stop_miss();
        assert_eq!((snapshot.serve.misses, snapshot.serve.generations), (1, 1));
        let snapshot = stop_stale();
        assert_eq!(snapshot.serve.stale_serves, 1);
        assert_eq!(snapshot.serve.refreshes, 1);
        assert_eq!(snapshot.serve.generations, 2);
        assert_eq!(snapshot.live_generations, 0);
    }

    #[test]
    fn a_malformed_query_is_answered_with_its_own_id() {
        let (shard, _rx) = one_shard();
        let counters = FrontCounters::register(&Registry::new());
        let (reply, answers) = mpsc::channel();
        // Id 0xBEEF, RD set, one question announced and cut short.
        let mut wire = a_query(0xBEEF, &"pool.ntpns.org".parse().unwrap());
        wire.truncate(15);
        assert!(serve_or_hand_off(
            &shard,
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
        // The worker deals with what is due after each item it takes, not
        // only when a wait times out. Its queue is filled before it starts
        // and so is never empty until the last item is taken: a stale serve
        // of B, whose refresh leaves on a 1 ms round trip, then far more
        // hits on A than fit into a millisecond, then B again. Only the
        // check between items can have landed the refresh by then.
        const HITS: usize = 20_000;
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 2,
            upstream_latency: Duration::from_millis(1),
            ..LoopbackConfig::default()
        });
        let cache = CacheConfig::default()
            .with_ttl(Ttl::from_secs(60))
            .with_stale_window(Duration::from_secs(3600));
        let (shard, rx) = open_shards(&fleet, 1, cache).remove(0);
        // Both cached; B stamped as expired on the way out and back in.
        {
            let mut guard = ShardCell::lock(&shard.cell);
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

        let (reply, answers) = mpsc::channel();
        let ask = |id: u16, domain: usize| {
            assert!(shard.send(WorkItem::Query {
                wire: a_query(id, &fleet.domains[domain]),
                reply: ReplyPath::Tcp(reply.clone()),
            }));
        };
        ask(1, 1);
        (0..HITS).for_each(|_| ask(2, 0));
        ask(3, 1);
        let (last, snapshot) = mpsc::channel();
        assert!(shard.send(WorkItem::Shutdown(last)));
        worker_loop(&shard.cell, rx);

        let answers: Vec<Message> = answers
            .try_iter()
            .map(|wire| Message::decode(&wire).unwrap())
            .collect();
        assert_eq!(answers.len(), HITS + 2);
        let (stale, again) = (&answers[0], &answers[HITS + 1]);
        assert_eq!((stale.header.id, again.header.id), (1, 3));
        assert!(stale.answers.iter().all(|r| r.ttl == 0), "B served stale");
        assert!(
            again.answers.iter().all(|r| r.ttl >= 1),
            "B was refreshed while the queue was never empty"
        );
        let (_, snapshot) = snapshot.try_recv().expect("the last snapshot");
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
