//! The runtime control plane: [`ControlHandle`] and [`ConfigDelta`].
//!
//! A running [`PoolRuntime`](crate::PoolRuntime) hands out a cloneable
//! [`ControlHandle`]. [`ControlHandle::apply`] validates a [`ConfigDelta`],
//! numbers it — an **epoch** is a `u64` that only this module counts, one
//! per accepted delta — and fans it to every shard worker **through the
//! worker's existing work queue** — the same FIFO a query joins when its
//! shard is busy. A socket thread serves a query in place only when
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
//! The shard set is fixed at [`PoolRuntime::start`](crate::PoolRuntime::start):
//! an epoch changes what the shards serve under, never how many there are
//! or which keys each one owns, so every key keeps the one shard its
//! queries are routed to for the life of the runtime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sdoh_core::{AddressSource, CacheConfig, ConfigError, PoolConfig};

use crate::runtime::{ShardTx, WorkItem};

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

pub(crate) struct ControlInner {
    /// The runtime's shards, in shard order, as it was started with them.
    shards: Vec<ShardTx>,
    /// The epoch each shard last acked, in shard order.
    acked: Vec<Arc<AtomicU64>>,
    /// The published cache knobs, as of `epoch`. [`ControlHandle::apply`]
    /// holds it from validation to publication, so deltas are numbered one
    /// at a time and `/config` never pairs one epoch's number with
    /// another's knobs.
    config: Mutex<CacheConfig>,
    epoch: AtomicU64,
}

/// The control plane of a running [`PoolRuntime`](crate::PoolRuntime):
/// hot reconfiguration ([`ControlHandle::apply`]) and its propagation.
/// Cloneable and `Send` — hold it on an operator thread while the runtime
/// serves. See the module docs for the propagation model.
#[derive(Clone)]
pub struct ControlHandle {
    inner: Arc<ControlInner>,
}

impl ControlHandle {
    pub(crate) fn new(shards: Vec<ShardTx>, config: CacheConfig) -> ControlHandle {
        // Workers serve under epoch 0 from construction.
        let acked = shards.iter().map(|_| Arc::new(AtomicU64::new(0))).collect();
        ControlHandle {
            inner: Arc::new(ControlInner {
                shards,
                acked,
                config: Mutex::new(config),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// The runtime's shards, in shard order.
    pub(crate) fn shards(&self) -> &[ShardTx] {
        &self.inner.shards
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
            .acked
            .iter()
            .map(|slot| slot.load(Ordering::Acquire))
            .collect()
    }

    /// Blocks until every shard has acked at least `epoch` (true) or the
    /// timeout passed (false).
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.acked_epochs().iter().all(|&e| e >= epoch) {
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
        let mut config = self.inner.config.lock();
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
            cache: delta.cache.unwrap_or(*config),
            pool: delta.pool,
            sources: delta.sources,
        });
        for (shard, ack) in self.inner.shards.iter().zip(&self.inner.acked) {
            shard.send(WorkItem::Reconfigure {
                order: order.clone(),
                ack: ack.clone(),
            });
        }
        *config = order.cache;
        self.inner.epoch.store(order.epoch, Ordering::Release);
        Ok(EpochReceipt {
            epoch: order.epoch,
            shards: self.inner.shards.len(),
        })
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
}

impl std::fmt::Debug for ControlHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlHandle")
            .field("epoch", &self.current_epoch())
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}
