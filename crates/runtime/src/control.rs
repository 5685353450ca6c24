//! The runtime control plane: [`ControlHandle`] and [`ConfigDelta`].
//!
//! [`ControlHandle::apply`] validates a [`ConfigDelta`], numbers it — an
//! **epoch** is a `u64` only this module counts, one per accepted delta —
//! and hands it to every shard in turn **under the shard's own lock**, the
//! one its queries are served under: the order is a step of the shard's
//! machine, through the same `ShardSet::step` as a query. An order that
//! changes only the cache knobs is adopted and acked there and then. One
//! that swaps the source set or the pool configuration while flights are
//! upstream waits on the shard until they have landed, so nothing the old
//! set generated is cached after the ack, and the queries that reach the
//! shard meanwhile are deferred behind it. Either way a query read after
//! `apply` returns is served under the new epoch, and no lock is held
//! across a round trip. The shard's step acks the epoch it adopted into the
//! shard's own atomic slot (the `sdoh_shard_acked_epoch{shard}` gauges,
//! [`ControlHandle::wait_for_epoch`]); the resolvers are handed the knobs,
//! never the number. The shard set is fixed at
//! [`PoolRuntime::start`](crate::PoolRuntime::start).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sdoh_core::{AddressSource, CacheConfig, ConfigError, PoolConfig};

use crate::runtime::ShardSet;

/// Builds one shard's upstream source set, by shard index — how a
/// [`ConfigDelta`] carries a new resolver set to N shards when
/// [`AddressSource`]s are not cloneable (each shard needs its own
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

    /// Replace the upstream resolver set. [`ControlHandle::apply`] calls
    /// the factory once per shard with the shard index, and refuses the
    /// delta if any shard would be handed an empty set.
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
/// converging to and the shard count it was handed to. Observe the acks via
/// [`ControlHandle::acked_epochs`] / [`ControlHandle::wait_for_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EpochReceipt {
    /// The newly published epoch number.
    pub epoch: u64,
    /// Shards the epoch was fanned out to.
    pub shards: usize,
}

/// The epoch order a shard is handed under its lock: the number to ack and
/// the knobs to serve under from then on, its own source set among them.
pub(crate) struct EpochOrder {
    pub(crate) epoch: u64,
    pub(crate) cache: CacheConfig,
    pub(crate) pool: Option<PoolConfig>,
    pub(crate) sources: Option<Vec<Box<dyn AddressSource>>>,
}

pub(crate) struct ControlInner {
    /// The runtime's shards, as it was started with them.
    shards: Arc<ShardSet>,
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
    pub(crate) fn new(shards: Arc<ShardSet>, config: CacheConfig) -> ControlHandle {
        ControlHandle {
            inner: Arc::new(ControlInner {
                shards,
                config: Mutex::new(config),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// The runtime's shards.
    pub(crate) fn shards(&self) -> &ShardSet {
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
    /// entry lags [`ControlHandle::current_epoch`] is still landing the
    /// flights an order waits for.
    pub fn acked_epochs(&self) -> Vec<u64> {
        self.inner.shards.acked_epochs()
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

    /// Publishes the next config epoch carrying `delta` and hands it to
    /// every shard under its lock. Returns with the receipt once every
    /// shard holds the order: every query read from then on is served under
    /// it. A shard adopts a source or pool swap once the flights it has
    /// upstream have landed (observe via [`ControlHandle::wait_for_epoch`]).
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of validating the delta's cache or pool
    /// configuration, or `Invalid` for `sources` when its factory hands
    /// some shard an empty set; nothing is published on error.
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
        let shards = self.inner.shards.len();
        let sources: Vec<Option<_>> = match &delta.sources {
            Some(factory) => (0..shards)
                .map(|index| match factory(index) {
                    set if set.is_empty() => Err(ConfigError::Invalid {
                        field: "sources",
                        reason: format!("shard {index} would have no resolvers"),
                    }),
                    set => Ok(Some(set)),
                })
                .collect::<Result<_, _>>()?,
            None => (0..shards).map(|_| None).collect(),
        };
        let epoch = self.current_epoch() + 1;
        let cache = delta.cache.unwrap_or(*config);
        self.inner
            .shards
            .reconfigure(sources.into_iter().map(|sources| EpochOrder {
                epoch,
                cache,
                pool: delta.pool.clone(),
                sources,
            }));
        *config = cache;
        self.inner.epoch.store(epoch, Ordering::Release);
        Ok(EpochReceipt { epoch, shards })
    }

    /// The `/config` document: current epoch, shard count, per-shard acked
    /// epochs and the published cache knobs, as JSON.
    pub(crate) fn config_json(&self) -> String {
        let (epoch, cache) = {
            let config = self.inner.config.lock();
            (self.current_epoch(), *config)
        };
        // A list of numbers prints as its JSON array.
        let acked = self.acked_epochs();
        format!(
            "{{\"epoch\": {}, \"shards\": {}, \"acked_epochs\": {:?}, \"cache\": \
             {{\"capacity\": {}, \"ttl_seconds\": {}, \"stale_window_seconds\": {}, \
             \"negative_ttl_seconds\": {}}}}}",
            epoch,
            acked.len(),
            acked,
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
