//! The runtime control plane: [`ControlHandle`], [`ConfigDelta`] and live
//! shard rescale.
//!
//! A running [`PoolRuntime`](crate::PoolRuntime) hands out a cloneable
//! [`ControlHandle`]. [`ControlHandle::apply`] validates a [`ConfigDelta`],
//! numbers it — an **epoch** is a `u64` that only this module counts, one
//! per accepted operation — and fans it to every shard worker **through
//! the worker's existing work queue** — the same FIFO a query joins when
//! its shard is busy. A socket thread serves a query in place only when
//! nothing is queued to the shard, a count it reads under the shard's lock
//! and that falls only there, as the worker takes an item: no query
//! overtakes a queued epoch, so the switch happens-after every query
//! already accepted under the old epoch and before every query accepted
//! once it is queued. Each worker acks the epoch number into its own
//! atomic slot as it takes the item; the `/metrics` gauges
//! `sdoh_config_epoch` and `sdoh_shard_acked_epoch{shard}` expose the
//! propagation, and [`ControlHandle::wait_for_epoch`] blocks on it. The
//! resolvers are handed the knobs, never the number.
//!
//! [`ControlHandle::rescale`] changes the number of serving shards while
//! queries keep flowing, and it is **one path for every pair of widths**:
//! spawn the workers the new width is missing, put the members of the new
//! route table on the new epoch (a fresh worker's first item), queue the
//! new ring at every worker of the *old* table, publish the new table — a
//! shard that leaves stops receiving new queries there and then — and wait
//! for every worker of the old table to confirm. The ring is queued first
//! so that a worker takes it before any query routed under the new table.
//! What a worker does with the ring it decides from its own
//! index: it extracts every cache entry the ring assigns elsewhere and
//! forwards it to its new owner (stamps intact — see
//! [`CachingPoolResolver::install_entry`](sdoh_core::CachingPoolResolver::install_entry)),
//! and if the ring no longer reaches its index it owns nothing and forwards
//! everything. Survivors of a shrink re-home too: `hash % shards` moves
//! keys among them whenever the new width does not divide the old one.
//! Every worker keeps the last ring it was handed, and a query a socket
//! thread routed under an older table can still reach it: whatever such a
//! query caches for a key the ring assigns elsewhere goes to its owner the
//! same way, so no key is cached by two shards. A worker that left never
//! just exits: it lingers in retired mode, still answering any stray query
//! routed under the old table (immediately forwarding whatever that
//! generated), and terminates only when the last sender to its queue is
//! dropped — so a rescale drops **zero** queries by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sdoh_core::{AddressSource, CacheConfig, CacheEntryProbe, ConfigError, PoolConfig};

use crate::runtime::{ask, ask_shards, spawn_worker, Shard, ShardTx, WorkItem, WorkerContext};

/// Builds one shard's upstream source set, by shard index — how a
/// [`ConfigDelta`] carries a new resolver set to N workers when
/// [`AddressSource`]s are not cloneable (each worker needs its own
/// exchanger-bound instances).
pub type SourceFactory = Arc<dyn Fn(usize) -> Vec<Box<dyn AddressSource>> + Send + Sync>;

/// A requested change to the live serving configuration: the fields to
/// change, everything else carried over from the current epoch. Applied
/// with [`ControlHandle::apply`].
#[derive(Clone, Default)]
#[non_exhaustive]
pub struct ConfigDelta {
    pub(crate) cache: Option<CacheConfig>,
    pub(crate) pool: Option<PoolConfig>,
    pub(crate) sources: Option<SourceFactory>,
}

impl ConfigDelta {
    /// An empty delta (applying it still advances the epoch).
    pub fn new() -> Self {
        ConfigDelta::default()
    }

    /// Replace the cache/serving knobs (TTL, stale window, negative TTL,
    /// capacity).
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Replace the pool-generation configuration (combination mode,
    /// hardening knobs, `min_responses`, …).
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Replace the upstream resolver set. The factory is called once per
    /// shard with the shard index and must return a non-empty set; a shard
    /// handed an empty set keeps its current sources.
    pub fn with_sources(mut self, sources: SourceFactory) -> Self {
        self.sources = Some(sources);
        self
    }
}

impl std::fmt::Debug for ConfigDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConfigDelta")
            .field("cache", &self.cache)
            .field("pool", &self.pool)
            .field("sources", &self.sources.as_ref().map(|_| "<factory>"))
            .finish()
    }
}

/// Receipt of an accepted control operation: the epoch the fleet is
/// converging to and the shard count it was fanned out to. Workers ack
/// asynchronously — observe propagation via
/// [`ControlHandle::acked_epochs`] / [`ControlHandle::wait_for_epoch`] or
/// the `sdoh_shard_acked_epoch` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EpochReceipt {
    /// The newly published epoch number.
    pub epoch: u64,
    /// Shards the epoch was fanned out to.
    pub shards: usize,
}

/// The epoch fan-out order a worker receives over its queue: the number to
/// ack and the knobs to serve under from then on.
pub(crate) struct EpochOrder {
    pub(crate) epoch: u64,
    pub(crate) cache: CacheConfig,
    pub(crate) pool: Option<PoolConfig>,
    pub(crate) sources: Option<SourceFactory>,
}

/// The live routing table: one shard handle (its queue and its cell) plus
/// one acked-epoch slot per shard, in shard order.
pub(crate) struct RouteTable {
    pub(crate) senders: Vec<ShardTx>,
    pub(crate) acked: Vec<Arc<AtomicU64>>,
}

/// Shared routing state. The dispatcher keeps a local copy of the shard
/// handles and re-reads the table only when the version counter moved —
/// routing costs one atomic load per packet, never the table's lock.
pub(crate) struct RouteState {
    pub(crate) version: AtomicU64,
    pub(crate) table: Mutex<RouteTable>,
}

impl RouteState {
    pub(crate) fn new(table: RouteTable) -> RouteState {
        RouteState {
            version: AtomicU64::new(0),
            table: Mutex::new(table),
        }
    }

    /// A snapshot of the current shard handles.
    // sdoh-lint: allow(transitive-hot-path-purity, "a socket thread reaches this only through RouteCopy, once per published rescale (the version moved), never per query")
    pub(crate) fn senders(&self) -> Vec<ShardTx> {
        self.table.lock().senders.clone()
    }

    /// Swaps in a new table and bumps the version so dispatchers reload.
    pub(crate) fn publish(&self, table: RouteTable) {
        *self.table.lock() = table;
        self.version.fetch_add(1, Ordering::Release);
    }
}

/// A socket thread's copy of the shard handles: the table is read under
/// its lock only when the version moved since the copy was taken, so a
/// query costs one atomic load, never that lock or a clone.
pub(crate) struct RouteCopy<'r> {
    routes: &'r RouteState,
    version: u64,
    senders: Vec<ShardTx>,
}

impl<'r> RouteCopy<'r> {
    pub(crate) fn new(routes: &'r RouteState) -> Self {
        // The version first: a table published between the two reads is
        // then reloaded once more, never missed.
        let version = routes.version.load(Ordering::Acquire);
        RouteCopy {
            routes,
            version,
            senders: routes.senders(),
        }
    }

    /// The shard handles of the latest published table.
    pub(crate) fn current(&mut self) -> &[ShardTx] {
        let version = self.routes.version.load(Ordering::Acquire);
        if version != self.version {
            self.senders = self.routes.senders();
            self.version = version;
        }
        &self.senders
    }
}

/// How long a rescale waits for the handoff acknowledgements of the
/// pre-existing workers before returning anyway (the handoff itself has
/// completed or will complete; only the confirmation is late).
const RESCALE_TIMEOUT: Duration = Duration::from_secs(10);

pub(crate) struct ControlInner {
    pub(crate) routes: Arc<RouteState>,
    /// The published cache knobs, as of [`ControlInner::epoch`].
    pub(crate) config: Mutex<CacheConfig>,
    pub(crate) epoch: Arc<AtomicU64>,
    /// Serializes apply/rescale against each other (never against serving).
    op_lock: Mutex<()>,
    pub(crate) ctx: WorkerContext,
    pub(crate) worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The control plane of a running [`PoolRuntime`](crate::PoolRuntime):
/// hot reconfiguration ([`ControlHandle::apply`]) and live shard rescale
/// ([`ControlHandle::rescale`]). Cloneable and `Send` — hold it on an
/// operator thread while the runtime serves. See the module docs for the
/// propagation model.
#[derive(Clone)]
pub struct ControlHandle {
    pub(crate) inner: Arc<ControlInner>,
}

impl ControlHandle {
    pub(crate) fn new(
        routes: Arc<RouteState>,
        config: CacheConfig,
        ctx: WorkerContext,
        worker_handles: Vec<JoinHandle<()>>,
    ) -> ControlHandle {
        ControlHandle {
            inner: Arc::new(ControlInner {
                routes,
                epoch: Arc::new(AtomicU64::new(0)),
                config: Mutex::new(config),
                op_lock: Mutex::new(()),
                ctx,
                worker_handles: Mutex::new(worker_handles),
            }),
        }
    }

    /// The currently published config epoch.
    pub fn current_epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// The currently published cache knobs.
    pub fn current_config(&self) -> CacheConfig {
        *self.inner.config.lock()
    }

    /// The epoch each shard last acked, in shard order. A shard whose
    /// entry lags [`ControlHandle::current_epoch`] has not yet processed
    /// the fan-out item in its queue.
    pub fn acked_epochs(&self) -> Vec<u64> {
        self.inner
            .routes
            .table
            .lock()
            .acked
            .iter()
            .map(|slot| slot.load(Ordering::Acquire))
            .collect()
    }

    /// Number of serving shards currently routed to.
    pub fn shard_count(&self) -> usize {
        self.inner.routes.table.lock().senders.len()
    }

    /// Blocks until every shard has acked at least `epoch` (true) or the
    /// timeout passed (false).
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let acked = self.acked_epochs();
            if !acked.is_empty() && acked.iter().all(|&e| e >= epoch) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Publishes the next config epoch carrying `delta` and fans it to
    /// every shard through its work queue. Returns immediately with the
    /// receipt; workers adopt the epoch in their next loop iteration
    /// (observe via [`ControlHandle::wait_for_epoch`]).
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of validating the delta's cache or pool
    /// configuration; nothing is published on error.
    pub fn apply(&self, delta: ConfigDelta) -> Result<EpochReceipt, ConfigError> {
        let _op = self.inner.op_lock.lock();
        if let Some(cache) = &delta.cache {
            cache.validate()?;
        }
        if let Some(pool) = &delta.pool {
            pool.validate().map_err(|err| ConfigError::Invalid {
                field: "pool",
                reason: err.to_string(),
            })?;
        }
        let order = Arc::new(EpochOrder {
            epoch: self.current_epoch() + 1,
            cache: delta.cache.unwrap_or_else(|| self.current_config()),
            pool: delta.pool,
            sources: delta.sources,
        });
        let shards = {
            let table = self.inner.routes.table.lock();
            order_epoch(&order, &table.senders, &table.acked);
            table.senders.len()
        };
        Ok(self.publish_epoch(&order, shards))
    }

    /// Changes the number of serving shards to `shards` while queries keep
    /// flowing, re-routing the hash ring and handing every cache entry the
    /// new ring assigns elsewhere — from shards that leave and among those
    /// that stay — to its new owner with stamps intact. `factory` builds
    /// each **added** shard (called with its shard index; not called at
    /// all when shrinking). The rescale publishes a fresh epoch (same
    /// knobs) so the transition is observable through the epoch gauges; it
    /// returns once every worker of the old table has confirmed its
    /// hand-off, and by then every moved entry is queued at its new owner
    /// ahead of any later query.
    ///
    /// Serve counters are owned per shard: a retiring shard's cumulative
    /// serve metrics leave the aggregate with it. The front-door counters
    /// (`sdoh_udp_queries_total`, `sdoh_dropped_queries_total`, …) are
    /// global and unaffected.
    ///
    /// # Errors
    ///
    /// `shards == 0` and worker-spawn failures. The route table is only
    /// published after every new worker spawned successfully.
    pub fn rescale(
        &self,
        shards: usize,
        mut factory: impl FnMut(usize) -> Shard,
    ) -> std::io::Result<EpochReceipt> {
        if shards == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a runtime needs at least one shard",
            ));
        }
        let _op = self.inner.op_lock.lock();
        let order = Arc::new(EpochOrder {
            epoch: self.current_epoch() + 1,
            cache: self.current_config(),
            pool: None,
            sources: None,
        });
        let (old_senders, mut acked) = {
            let table = self.inner.routes.table.lock();
            (table.senders.clone(), table.acked.clone())
        };

        // The new table: the old one cut to the new width, plus a fresh
        // worker for every index it does not reach.
        let mut senders = old_senders.clone();
        senders.truncate(shards);
        acked.truncate(shards);
        for index in senders.len()..shards {
            let (shard, handle) = spawn_worker(&self.inner.ctx, index, factory(index))?;
            self.inner.worker_handles.lock().push(handle);
            senders.push(shard);
            acked.push(Arc::new(AtomicU64::new(0)));
        }
        let ring = Arc::new(senders.clone());
        order_epoch(&order, &senders, &acked);

        // Every worker that held keys under the old ring re-homes what the
        // new one moved; which of them stay is theirs to read off the ring.
        // The ring is queued before the table is published, so a query
        // routed under the new table reaches a worker of the old one only
        // after it took the ring — in place, nothing is queued; handed off,
        // the query queues behind it — and a worker never judges a key by a
        // ring older than its query's. A confirmation that misses the
        // deadline is not an error — the hand-off items are already queued
        // FIFO before anything that could depend on them.
        let rehashed = ask(&old_senders, |done| WorkItem::Rehash {
            ring: ring.clone(),
            done,
        });
        self.inner.routes.publish(RouteTable { senders, acked });
        rehashed.gather(RESCALE_TIMEOUT);

        Ok(self.publish_epoch(&order, shards))
    }

    /// Probes every cache entry of every shard (see
    /// [`CachingPoolResolver::probe_entries`](sdoh_core::CachingPoolResolver::probe_entries)):
    /// `(shard index, probes)` for each shard that answered within
    /// `timeout`. Invariant checks use this to assert that no key is
    /// cached by two shards at once after a rescale.
    // sdoh-lint: allow(transitive-hot-path-purity, "operator-facing control op: probes shards over the control channel on demand, never on the query path")
    pub fn probe_entries(&self, timeout: Duration) -> Vec<(usize, Vec<CacheEntryProbe>)> {
        ask_shards(&self.inner.routes.senders(), timeout, WorkItem::Probe)
            .into_iter()
            .enumerate()
            .filter_map(|(index, probes)| Some((index, probes?)))
            .collect()
    }

    /// The `/config` document: current epoch, shard count, per-shard acked
    /// epochs and the published cache knobs, as JSON.
    pub(crate) fn config_json(&self) -> String {
        let (epoch, cache) = {
            let config = self.inner.config.lock();
            (self.current_epoch(), *config)
        };
        let acked = self.acked_epochs();
        let mut acked_json = String::from("[");
        for (i, epoch) in acked.iter().enumerate() {
            if i > 0 {
                acked_json.push_str(", ");
            }
            acked_json.push_str(&epoch.to_string());
        }
        acked_json.push(']');
        format!(
            "{{\"epoch\": {}, \"shards\": {}, \"acked_epochs\": {}, \"cache\": \
             {{\"capacity\": {}, \"ttl_seconds\": {}, \"stale_window_seconds\": {}, \
             \"negative_ttl_seconds\": {}}}}}",
            epoch,
            acked.len(),
            acked_json,
            cache.capacity,
            cache.ttl.as_duration().as_secs_f64(),
            cache.stale_window.as_secs_f64(),
            cache.negative_ttl.as_duration().as_secs_f64(),
        )
    }

    /// Records a fanned-out order as the published state.
    fn publish_epoch(&self, order: &EpochOrder, shards: usize) -> EpochReceipt {
        // The number moves under the knobs' lock, so `/config` never pairs
        // one epoch's number with another's knobs.
        let mut config = self.inner.config.lock();
        *config = order.cache;
        self.inner.epoch.store(order.epoch, Ordering::Release);
        EpochReceipt {
            epoch: order.epoch,
            shards,
        }
    }
}

impl std::fmt::Debug for ControlHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlHandle")
            .field("epoch", &self.current_epoch())
            .field("shards", &self.shard_count())
            .finish()
    }
}

/// Queues `order` at every worker of a table, each with its own ack slot.
fn order_epoch(order: &Arc<EpochOrder>, senders: &[ShardTx], acked: &[Arc<AtomicU64>]) {
    for (shard, ack) in senders.iter().zip(acked) {
        shard.send(WorkItem::Reconfigure {
            order: order.clone(),
            ack: ack.clone(),
        });
    }
}
