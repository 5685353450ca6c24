//! The TTL pool cache.
//!
//! `PoolCache` stores [`GenerationReport`]s keyed by
//! `(domain, address family)` so that the expensive distributed generation
//! runs once per TTL window instead of once per client query. It is one
//! map under an exact capacity bound (see "Eviction" below), with
//! **negative caching** of generation failures
//! (a failed fan-out is remembered briefly instead of being retried by
//! every queued client), and a **stale window** after expiry during which
//! an entry is still served while a refresh regenerates it
//! (stale-while-revalidate). It is owned by one resolver and takes no
//! lock: a deployment shards by giving each shard its own resolver, behind
//! the shard's lock.
//!
//! Beside each successful report the cache keeps its answer section in
//! wire form (an [`AnswerTemplate`], built once when the entry is inserted
//! or installed), and a lookup lends both out instead of cloning either —
//! see the [module documentation](super) for how the front end serves it.
//!
//! The cache is sans-IO like the rest of the crate: it never reads a clock.
//! Every operation takes `now` explicitly, so it composes with the
//! simulator's virtual time and with any driver's notion of "now".
//!
//! # Eviction
//!
//! A new key arriving at a full cache evicts the minimum of
//! `(alive, re-asked, last used)`: an entry past every serving window
//! first, then a pool nobody has asked for again since it entered the
//! cache, then the least recently used. A miss costs N upstream exchanges,
//! and most names are asked for once: under recency alone every such name
//! pushes out a pool that was being asked for, so a Zipf tail — or anybody
//! scanning `capacity` cold names — flushes the hot set. One bit per entry
//! ([`CachedPool::reasked`]) makes the newcomers evict one another
//! instead. It is set by a lookup that hits and by nothing else, belongs
//! to the pool rather than the generation (a refresh inherits it, a shard
//! hand-off carries it), and needs no ageing of its own: an entry nobody
//! asks for within `ttl + stale_window` is dead, and dead entries go
//! first. Every rank is distinct, so which entry goes is a function of the
//! cache's history alone — never of the map's iteration order.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use sdoh_dns_wire::{AnswerTemplate, Name, NameRef, QuestionRef, RrType, Ttl};
use sdoh_netsim::SimInstant;

use crate::generator::GenerationReport;

/// The address family of a cached pool — the second half of the cache key.
///
/// A pool generated for A queries and one generated for AAAA queries are
/// distinct cache entries even under dual-stack generation policies,
/// matching the front end's behaviour of filtering the served answer to the
/// queried family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressFamily {
    /// IPv4 (`A` queries).
    V4,
    /// IPv6 (`AAAA` queries).
    V6,
}

impl AddressFamily {
    /// The family an address query of `rtype` asks for; `None` for
    /// non-address types.
    pub fn of(rtype: RrType) -> Option<Self> {
        match rtype {
            RrType::A => Some(AddressFamily::V4),
            RrType::Aaaa => Some(AddressFamily::V6),
            _ => None,
        }
    }

    /// The record type serving this family.
    pub fn rtype(self) -> RrType {
        match self {
            AddressFamily::V4 => RrType::A,
            AddressFamily::V6 => RrType::Aaaa,
        }
    }
}

/// Cache key of a generated pool: the pool domain plus the queried family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolKey {
    /// The pool domain the generation looked up.
    pub domain: Name,
    /// The address family the clients asked for.
    pub family: AddressFamily,
}

impl PoolKey {
    /// Creates a key.
    pub fn new(domain: Name, family: AddressFamily) -> Self {
        PoolKey { domain, family }
    }
}

/// A cache key as a query lends it: the name asked for, where it lies in
/// the query, and the family. A lookup, a flight search and a stale serve
/// find the [`PoolKey`] it stands for by it (`PoolKey: Borrow<dyn
/// LentKey>`), so serving a query copies no name; only a miss makes the
/// owned key, for the flight it opens.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueryKey<'q> {
    domain: NameRef<'q>,
    family: AddressFamily,
}

impl<'q> QueryKey<'q> {
    /// The key a DNS question maps to; `None` for non-address questions.
    pub(crate) fn for_question(question: QuestionRef<'q>) -> Option<Self> {
        AddressFamily::of(question.rtype).map(|family| QueryKey {
            domain: question.name,
            family,
        })
    }
}

impl From<QueryKey<'_>> for PoolKey {
    fn from(key: QueryKey<'_>) -> PoolKey {
        key.to_key()
    }
}

/// What a pool key is compared and hashed by, whoever holds it — a
/// [`PoolKey`], or a [`QueryKey`] lending a query's name — exactly as
/// `PoolKey` derives them: the name, then the family.
pub(crate) trait LentKey {
    fn domain(&self) -> NameRef<'_>;
    fn family(&self) -> AddressFamily;

    /// The owned key: the name copied once.
    fn to_key(&self) -> PoolKey {
        PoolKey::new(self.domain().to_name(), self.family())
    }
}

impl LentKey for PoolKey {
    fn domain(&self) -> NameRef<'_> {
        self.domain.as_name_ref()
    }

    fn family(&self) -> AddressFamily {
        self.family
    }
}

impl LentKey for QueryKey<'_> {
    fn domain(&self) -> NameRef<'_> {
        self.domain
    }

    fn family(&self) -> AddressFamily {
        self.family
    }
}

impl PartialEq for dyn LentKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.domain() == other.domain() && self.family() == other.family()
    }
}

impl Eq for dyn LentKey + '_ {}

impl Hash for dyn LentKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        #[cfg(test)]
        super::tests::visits::key();
        self.domain().hash(state);
        self.family().hash(state);
    }
}

/// Hashed as it lends itself, so that a lent key finds its owned one.
impl Hash for PoolKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn LentKey).hash(state);
    }
}

impl<'a> Borrow<dyn LentKey + 'a> for PoolKey {
    fn borrow(&self) -> &(dyn LentKey + 'a) {
        self
    }
}

impl std::fmt::Display for PoolKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.domain, self.family.rtype())
    }
}

/// A configuration rejected by fallible validation — returned by
/// [`CacheConfig::validate`] and the runtime-side config validators
/// instead of panicking or silently misbehaving later.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A knob that must be non-zero was zero (the field is named).
    Zero(&'static str),
    /// A cross-field constraint was violated.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// Why the combination is rejected.
        reason: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero(field) => write!(f, "configuration field `{field}` must not be zero"),
            ConfigError::Invalid { field, reason } => {
                write!(f, "invalid configuration field `{field}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The serving knobs of a [`CachingPoolResolver`](super::CachingPoolResolver):
/// how much it caches and for how long.
///
/// Non-exhaustive so future serving knobs aren't breaking changes: build
/// it from [`CacheConfig::default`] with the `with_*` methods, and gate
/// operator input through [`CacheConfig::validate`] (a control plane does,
/// before it hands the knobs to
/// [`apply_config`](super::CachingPoolResolver::apply_config)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheConfig {
    /// Number of entries the cache may hold — an exact bound, kept by
    /// evicting a dead entry, else one never asked for again, else the
    /// least recently used (a once-asked name must not cost a hot pool its
    /// place; see [`CachedPool::reasked`]).
    pub capacity: usize,
    /// Lifetime of a successfully generated pool; doubles as the answer TTL
    /// budget the front end serves from.
    pub ttl: Ttl,
    /// How long past expiry an entry may still be served while a background
    /// refresh regenerates it. Zero disables stale-while-revalidate.
    pub stale_window: Duration,
    /// Lifetime of a cached generation *failure* (negative caching).
    /// Negative entries have no stale window.
    pub negative_ttl: Ttl,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            ttl: Ttl::from_secs(60),
            stale_window: Duration::from_secs(60),
            negative_ttl: Ttl::from_secs(5),
        }
    }
}

impl CacheConfig {
    /// The uncached front end: zero TTL, stale window and negative TTL, so
    /// nothing is ever stored and every query runs its own generation
    /// (answers carry TTL 0 — usable now, not cacheable onward).
    pub fn uncached() -> Self {
        CacheConfig::default()
            .with_ttl(Ttl::ZERO)
            .with_stale_window(Duration::ZERO)
            .with_negative_ttl(Ttl::ZERO)
    }

    /// Sets the capacity, returning `self` for chaining.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the pool TTL, returning `self` for chaining.
    pub fn with_ttl(mut self, ttl: impl Into<Ttl>) -> Self {
        self.ttl = ttl.into();
        self
    }

    /// Sets the stale window, returning `self` for chaining.
    pub fn with_stale_window(mut self, window: Duration) -> Self {
        self.stale_window = window;
        self
    }

    /// Sets the negative TTL, returning `self` for chaining.
    pub fn with_negative_ttl(mut self, ttl: impl Into<Ttl>) -> Self {
        self.negative_ttl = ttl.into();
        self
    }

    /// Rejects configurations that would misbehave at runtime: a cache
    /// with zero capacity cannot hold a single entry. (The cache itself
    /// clamps it to 1; this is for the caller that would rather tell its
    /// operator.)
    ///
    /// # Errors
    ///
    /// [`ConfigError::Zero`] naming the zero field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity == 0 {
            return Err(ConfigError::Zero("capacity"));
        }
        Ok(())
    }
}

/// A cached generation outcome: what a lookup lends out, and what
/// [`extract_entries`](super::CachingPoolResolver::extract_entries) hands
/// out and [`install_entry`](super::CachingPoolResolver::install_entry)
/// takes back.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPool {
    /// The generation outcome: a report, or the error string of a failed
    /// generation (negative entry).
    pub value: Result<GenerationReport, String>,
    /// When the generation that produced this entry completed.
    pub generated_at: SimInstant,
    /// When the entry stops being fresh.
    pub expires_at: SimInstant,
    /// Whether the pool has been asked for again since it entered the
    /// cache: set by a lookup that hits, inherited by a regeneration,
    /// carried by a hand-off. Eviction takes entries without it first.
    pub reasked: bool,
}

impl CachedPool {
    /// The fresh lifetime remaining at `now` (zero once expired) — what a
    /// TTL-decrementing front end serves.
    pub fn remaining(&self, now: SimInstant) -> Ttl {
        Ttl::from_duration(self.expires_at.saturating_duration_since(now))
    }

    /// Liveness at `now` under the **current** config.
    fn state(&self, config: &CacheConfig, now: SimInstant) -> EntryState {
        if now < self.expires_at {
            EntryState::Fresh
        } else if self.value.is_ok() && now < self.keep_until(config) {
            EntryState::Stale
        } else {
            EntryState::Dead
        }
    }

    /// The instant past which the entry serves no purpose under the
    /// **current** config: successful generations may still be served
    /// through the stale window, negative entries die at expiry.
    ///
    /// Stale serving is bounded both by the stamped expiry plus the
    /// current stale window and by the current `ttl + stale_window`
    /// horizon measured from generation. For a constant config the two
    /// bounds coincide (entries are stamped `generated_at + ttl`); across
    /// a config-epoch change the cap guarantees nothing is ever served
    /// older than the **maximum** of the old and new horizons.
    fn keep_until(&self, config: &CacheConfig) -> SimInstant {
        if self.value.is_ok() {
            let by_stamp = self.expires_at.saturating_add(config.stale_window);
            let by_horizon = self
                .generated_at
                .saturating_add(config.ttl.as_duration() + config.stale_window);
            by_stamp.min(by_horizon)
        } else {
            self.expires_at
        }
    }
}

/// Liveness of a probed cache entry at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Within its TTL: served directly.
    Fresh,
    /// Past its TTL but within the stale window: served while a refresh
    /// regenerates it (successful generations only).
    Stale,
    /// Past every serving window; lingering until purged or evicted.
    Dead,
}

/// Diagnostic view of one cache entry, produced by
/// [`CachingPoolResolver::probe_entries`](super::CachingPoolResolver::probe_entries).
///
/// Invariant monitors (e.g. the `sdoh-chaos` campaign runner) use probes to
/// assert that the cache never serves a pool older than TTL plus the stale
/// window: every serve must be explainable by an entry whose `state` allows
/// it at the probed instant.
#[derive(Debug, Clone)]
pub struct CacheEntryProbe {
    /// The entry's cache key.
    pub key: PoolKey,
    /// `true` for a cached generation *failure* (negative entry).
    pub negative: bool,
    /// Time since the entry was generated.
    pub age: Duration,
    /// TTL budget left before expiry (zero once expired).
    pub remaining: Ttl,
    /// Whether the entry is fresh, stale-but-servable, or dead.
    pub state: EntryState,
}

/// A usable entry, lent out by [`PoolCache::get`] for the duration of one
/// serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CacheHit<'a> {
    /// The cached outcome and its stamps.
    pub(crate) pool: &'a CachedPool,
    /// The pool's answer section in wire form; `None` for a negative entry.
    pub(crate) answer: Option<&'a AnswerTemplate>,
}

/// Outcome of a cache lookup at a given instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CacheLookup<'a> {
    /// The entry is within its TTL.
    Fresh(CacheHit<'a>),
    /// The entry is past its TTL but within the stale window: serve it,
    /// then refresh it under its key, as the cache holds it. Only
    /// successful generations go stale; expired negative entries are
    /// misses.
    Stale(CacheHit<'a>, &'a PoolKey),
    /// No usable entry.
    Miss,
}

/// Operational counters of a resolver's pool cache: what happened to its
/// entries. What a lookup found is counted once, by the resolver that
/// served it ([`ServeMetrics`](super::ServeMetrics)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room: dead entries first, then pools never
    /// asked for again, then the least recently used — so the tail of
    /// once-asked names evicts itself, not the pools being served.
    pub evictions: u64,
    /// The subset of `evictions` that took a still-servable pool somebody
    /// had asked for again: zero while the cache only absorbs a tail or a
    /// scan, moving once the working set exceeds `capacity`.
    pub reasked_evictions: u64,
    /// Entries dropped because they were expired beyond use.
    pub expirations: u64,
}

/// The pre-encoded answer section serving `report`'s pool to queries of
/// `family`.
pub(super) fn answer_template(family: AddressFamily, report: &GenerationReport) -> AnswerTemplate {
    AnswerTemplate::for_addresses(
        family.rtype(),
        report.pool.iter().map(|entry| entry.address),
    )
}

#[derive(Debug, Clone)]
struct Entry {
    cached: CachedPool,
    /// Built from the report when the entry enters the cache; `None` for
    /// a negative entry.
    template: Option<AnswerTemplate>,
    /// Monotone access stamp: the recency half of the eviction rank.
    last_used: u64,
}

impl Entry {
    fn new(key: &PoolKey, cached: CachedPool, last_used: u64) -> Entry {
        Entry {
            template: cached
                .value
                .as_ref()
                .ok()
                .map(|report| answer_template(key.family, report)),
            cached,
            last_used,
        }
    }

    fn hit(&self) -> CacheHit<'_> {
        CacheHit {
            pool: &self.cached,
            answer: self.template.as_ref(),
        }
    }
}

/// The capacity-bounded, TTL- and stale-window-aware pool cache.
///
/// See the module documentation for the design.
#[derive(Debug)]
pub(crate) struct PoolCache {
    config: CacheConfig,
    entries: HashMap<PoolKey, Entry>,
    tick: u64,
    metrics: CacheMetrics,
}

impl PoolCache {
    /// Creates a cache from a configuration (capacity is clamped to at
    /// least 1).
    pub(crate) fn new(config: CacheConfig) -> Self {
        PoolCache {
            config,
            entries: HashMap::new(),
            tick: 0,
            metrics: CacheMetrics::default(),
        }
    }

    /// The configuration the cache currently runs under.
    pub(crate) fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The entry bound, never exceeded: the configured capacity, clamped to
    /// at least 1.
    fn capacity(&self) -> usize {
        self.config.capacity.max(1)
    }

    /// Number of entries currently stored (including entries that have
    /// expired but not yet been dropped).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Snapshot of the operational counters.
    pub(crate) fn metrics(&self) -> CacheMetrics {
        self.metrics
    }

    /// Looks up `key` at virtual time `now`.
    ///
    /// A fresh entry is a hit; an expired *successful* entry within the
    /// stale window is returned as [`CacheLookup::Stale`] (the caller
    /// serves it and schedules a refresh); anything older — and any expired
    /// negative entry — is dropped and reported as a miss. A hit lends the
    /// entry out (a stale one its key too); nothing is cloned, and a key
    /// lent by a query finds it as its owned key would.
    pub(crate) fn get(&mut self, key: &(dyn LentKey + '_), now: SimInstant) -> CacheLookup<'_> {
        self.tick += 1;
        // Judge and stamp first, lend second: a borrow that may be handed
        // back to the caller cannot also cover the removal of a dead entry.
        let state = self.entries.get_mut(key).map(|entry| {
            let state = entry.cached.state(&self.config, now);
            if state != EntryState::Dead {
                entry.last_used = self.tick;
                entry.cached.reasked = true;
            }
            state
        });
        let hit = match state {
            Some(EntryState::Fresh | EntryState::Stale) => self.entries.get_key_value(key),
            Some(EntryState::Dead) => {
                self.entries.remove(key);
                self.metrics.expirations += 1;
                None
            }
            None => None,
        };
        let Some((key, entry)) = hit else {
            return CacheLookup::Miss;
        };
        if state == Some(EntryState::Fresh) {
            CacheLookup::Fresh(entry.hit())
        } else {
            CacheLookup::Stale(entry.hit(), key)
        }
    }

    /// Probes every entry at instant `now`, without touching eviction
    /// state or counters.
    ///
    /// The result is sorted by key (domain, then family) so that a probe of
    /// the same cache state is byte-identical across processes — the map
    /// iterates in a process-random order. This is the invariant surface
    /// chaos campaigns monitor after every step.
    pub(crate) fn probe(&self, now: SimInstant) -> Vec<CacheEntryProbe> {
        let mut probes: Vec<CacheEntryProbe> = self
            .entries
            .iter()
            .map(|(key, entry)| CacheEntryProbe {
                key: key.clone(),
                negative: entry.cached.value.is_err(),
                age: now.saturating_duration_since(entry.cached.generated_at),
                remaining: entry.cached.remaining(now),
                state: entry.cached.state(&self.config, now),
            })
            .collect();
        probes.sort_by_key(|p| p.key.to_string());
        probes
    }

    /// How long an outcome generated now would be kept: successful
    /// generations live for the configured TTL, failures for the negative
    /// TTL.
    fn lifetime_of(&self, value: &Result<GenerationReport, String>) -> Ttl {
        match value {
            Ok(_) => self.config.ttl,
            Err(_) => self.config.negative_ttl,
        }
    }

    /// Whether [`insert`](PoolCache::insert) would store `value`: a zero
    /// lifetime keeps nothing, so a caller holding the only copy need not
    /// make a second one to offer it.
    pub(crate) fn keeps(&self, value: &Result<GenerationReport, String>) -> bool {
        !self.lifetime_of(value).is_zero()
    }

    /// Stores a generation outcome for `key` produced at `now` and lends
    /// the stored entry back, as a lookup would; a zero lifetime (see
    /// [`keeps`](PoolCache::keeps)) stores nothing and returns `None`.
    /// A regeneration inherits the resident entry's re-asked bit: cleared,
    /// the next landing miss would evict the pool in the instant after its
    /// own refresh.
    pub(crate) fn insert(
        &mut self,
        key: PoolKey,
        value: Result<GenerationReport, String>,
        now: SimInstant,
    ) -> Option<CacheHit<'_>> {
        let lifetime = self.lifetime_of(&value);
        if lifetime.is_zero() {
            return None;
        }
        self.tick += 1;
        self.make_room_for(&key, now);
        let cached = CachedPool {
            value,
            generated_at: now,
            expires_at: now.saturating_add(lifetime.as_duration()),
            reasked: self.reasked(&key),
        };
        let entry = Entry::new(&key, cached, self.tick);
        self.metrics.insertions += 1;
        let stored = self.entries.entry(key).insert_entry(entry).into_mut();
        Some(stored.hit())
    }

    /// Whether the entry `key` holds now has been asked for again: what its
    /// replacement inherits — the bit belongs to the pool, not to the
    /// generation. `false` for a key the cache does not hold.
    fn reasked(&self, key: &PoolKey) -> bool {
        self.entries
            .get(key)
            .is_some_and(|resident| resident.cached.reasked)
    }

    /// Keeps the capacity bound across the insertion of `key`: a new key
    /// arriving at a full cache evicts one entry first.
    fn make_room_for(&mut self, key: &PoolKey, now: SimInstant) {
        if !self.entries.contains_key(key) && self.entries.len() >= self.capacity() {
            self.evict_one(now);
        }
    }

    /// Evicts the entry of least rank `(alive, re-asked, last used)`: one
    /// past any use first, then one nobody came back for, then the least
    /// recently used. Stamps are unique, so the minimum is — whatever order
    /// the map yields its entries in.
    fn evict_one(&mut self, now: SimInstant) {
        let victim = self
            .entries
            .iter()
            .map(|(key, entry)| {
                let alive = now < entry.cached.keep_until(&self.config);
                ((alive, entry.cached.reasked, entry.last_used), key)
            })
            .min_by_key(|(rank, _)| *rank);
        if let Some(((alive, reasked, _), key)) = victim {
            let key = key.clone();
            self.entries.remove(&key);
            self.metrics.evictions += 1;
            self.metrics.reasked_evictions += u64::from(alive && reasked);
        }
    }

    /// Adopts a new config epoch's knobs **in place**: TTL, stale window,
    /// negative TTL and capacity change for every subsequent operation
    /// while each cached entry keeps the expiry it was stamped with at
    /// insert (stale serving of old entries is additionally capped by the
    /// new `ttl + stale_window` horizon — see `CachedPool::keep_until`).
    /// When the capacity shrank, surplus entries are evicted immediately,
    /// dead entries first.
    pub(crate) fn apply_config(&mut self, config: CacheConfig, now: SimInstant) {
        self.config = config;
        while self.entries.len() > self.capacity() {
            self.evict_one(now);
        }
    }

    /// Removes and returns every entry whose key matches `predicate`,
    /// with its generation/expiry stamps and re-asked bit intact — what
    /// [`CachingPoolResolver::extract_entries`](super::CachingPoolResolver::extract_entries)
    /// hands out. Results are sorted by key so an extraction is
    /// deterministic across processes. Touches neither eviction state nor
    /// the lookup counters.
    pub(crate) fn extract_matching(
        &mut self,
        mut predicate: impl FnMut(&PoolKey) -> bool,
    ) -> Vec<(PoolKey, CachedPool)> {
        let keys: Vec<PoolKey> = self
            .entries
            .keys()
            .filter(|key| predicate(key))
            .cloned()
            .collect();
        let mut extracted: Vec<(PoolKey, CachedPool)> = keys
            .into_iter()
            .filter_map(|key| {
                let entry = self.entries.remove(&key)?;
                Some((key, entry.cached))
            })
            .collect();
        extracted.sort_by_key(|(key, _)| key.to_string());
        extracted
    }

    /// Installs an extracted entry, **preserving** its original generation
    /// and expiry stamps and its re-asked bit (the wire-form answer is
    /// rebuilt from the report) — what
    /// [`CachingPoolResolver::install_entry`](super::CachingPoolResolver::install_entry)
    /// does: an entry installed into a full cache without its bit would be
    /// the first the next scan evicts. Returns `false` (dropping the
    /// entry) when it is already past every serving window at `now`, or
    /// when an existing entry for the key is at least as fresh — so a key
    /// is never owned by two entries and an install never clobbers a newer
    /// generation. The capacity bound is enforced exactly as on insert.
    pub(crate) fn install(
        &mut self,
        key: PoolKey,
        mut cached: CachedPool,
        now: SimInstant,
    ) -> bool {
        self.tick += 1;
        if now >= cached.keep_until(&self.config) {
            return false;
        }
        let superseded = self
            .entries
            .get(&key)
            .is_some_and(|existing| existing.cached.expires_at >= cached.expires_at);
        if superseded {
            return false;
        }
        cached.reasked |= self.reasked(&key);
        self.make_room_for(&key, now);
        let entry = Entry::new(&key, cached, self.tick);
        self.entries.insert(key, entry);
        self.metrics.insertions += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CombinationMode;
    use crate::pool::AddressPool;
    use sdoh_dns_wire::Question;

    fn key(domain: &str) -> PoolKey {
        PoolKey::new(domain.parse().unwrap(), AddressFamily::V4)
    }

    fn report(last: u8) -> GenerationReport {
        let mut pool = AddressPool::new();
        pool.push(format!("203.0.113.{last}").parse().unwrap(), "r1");
        GenerationReport {
            pool,
            mode: CombinationMode::TruncateAndCombine,
            sources: vec![("r1".into(), crate::generator::SourceOutcome::Answered(1))],
            truncate_lengths: vec![("A".into(), 1)],
        }
    }

    fn at(secs: u64) -> SimInstant {
        SimInstant::from_nanos(secs * 1_000_000_000)
    }

    fn is_miss(lookup: CacheLookup<'_>) -> bool {
        matches!(lookup, CacheLookup::Miss)
    }

    fn peek(cache: &PoolCache, key: &PoolKey) -> Option<CachedPool> {
        cache.entries.get(key).map(|entry| entry.cached.clone())
    }

    fn test_config() -> CacheConfig {
        CacheConfig::default()
            .with_ttl(Ttl::from_secs(60))
            .with_stale_window(Duration::from_secs(30))
            .with_negative_ttl(Ttl::from_secs(5))
    }

    #[test]
    fn fresh_then_stale_then_miss() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("pool.ntp.org"), Ok(report(1)), at(0));

        match cache.get(&key("pool.ntp.org"), at(59)) {
            CacheLookup::Fresh(hit) => {
                assert_eq!(hit.pool.value.as_ref().unwrap().pool.len(), 1);
                assert_eq!(hit.pool.remaining(at(59)), Ttl::from_secs(1));
                assert_eq!(hit.answer.unwrap().len(), 1);
            }
            other => panic!("expected fresh, got {other:?}"),
        }
        match cache.get(&key("pool.ntp.org"), at(75)) {
            CacheLookup::Stale(hit, _) => {
                assert_eq!(hit.pool.generated_at, at(0));
                assert_eq!(hit.pool.remaining(at(75)), Ttl::ZERO);
            }
            other => panic!("expected stale, got {other:?}"),
        }
        assert!(is_miss(cache.get(&key("pool.ntp.org"), at(91))));
        assert_eq!(cache.len(), 0, "expired entry was dropped");
        assert_eq!(cache.metrics().expirations, 1);
    }

    #[test]
    fn probe_reports_age_state_and_sorted_keys() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("b.pool.test"), Ok(report(1)), at(0));
        cache.insert(key("a.pool.test"), Ok(report(2)), at(10));
        cache.insert(key("c.pool.test"), Err("fan-out failed".into()), at(70));

        // At t=74 (ttl 60, stale window 30): "a" (generated at 10) and "b"
        // (generated at 0) are past their TTL but inside the stale window;
        // the negative "c" still has a second of its 5 s negative TTL left.
        let before = cache.metrics();
        let probes = cache.probe(at(74));
        assert_eq!(probes.len(), 3);
        let names: Vec<String> = probes.iter().map(|p| p.key.to_string()).collect();
        assert_eq!(
            names,
            vec!["a.pool.test./A", "b.pool.test./A", "c.pool.test./A"],
            "probes are sorted by key for cross-process determinism"
        );
        assert_eq!(probes[0].state, EntryState::Stale);
        assert_eq!(probes[0].age, Duration::from_secs(64));
        assert_eq!(probes[0].remaining, Ttl::ZERO);
        assert!(!probes[0].negative);
        assert_eq!(probes[1].state, EntryState::Stale);
        assert_eq!(probes[1].age, Duration::from_secs(74));
        assert_eq!(probes[2].state, EntryState::Fresh);
        assert!(probes[2].negative);
        assert_eq!(probes[2].remaining, Ttl::from_secs(1));

        // Past every window, everything is dead (negative entries have no
        // stale window).
        let probes = cache.probe(at(200));
        assert!(probes.iter().all(|p| p.state == EntryState::Dead));

        // Probing touches neither eviction state nor counters.
        assert_eq!(cache.metrics(), before);
    }

    #[test]
    fn negative_entries_have_no_stale_window() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("dead.test"), Err("not enough responses".into()), at(0));
        match cache.get(&key("dead.test"), at(4)) {
            CacheLookup::Fresh(hit) => {
                assert!(hit.pool.value.is_err());
                assert!(hit.answer.is_none(), "a failure has no answer section");
            }
            other => panic!("expected fresh negative, got {other:?}"),
        }
        // One second past the negative TTL: a miss, not a stale serve.
        assert!(is_miss(cache.get(&key("dead.test"), at(6))));
    }

    #[test]
    fn families_are_distinct_keys() {
        let mut cache = PoolCache::new(test_config());
        let v4 = PoolKey::new("dual.test".parse().unwrap(), AddressFamily::V4);
        let v6 = PoolKey::new("dual.test".parse().unwrap(), AddressFamily::V6);
        cache.insert(v4.clone(), Ok(report(1)), at(0));
        assert!(!is_miss(cache.get(&v4, at(1))));
        assert!(is_miss(cache.get(&v6, at(1))));
        assert_eq!(format!("{v4}"), "dual.test./A");
    }

    #[test]
    fn lru_eviction_keeps_the_recently_used_entry() {
        let config = test_config().with_capacity(2);
        let mut cache = PoolCache::new(config);
        cache.insert(key("a.test"), Ok(report(1)), at(0));
        cache.insert(key("b.test"), Ok(report(2)), at(1));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(!is_miss(cache.get(&key("a.test"), at(2))));
        cache.insert(key("c.test"), Ok(report(3)), at(3));
        assert_eq!(cache.len(), 2);
        assert!(!is_miss(cache.get(&key("a.test"), at(4))));
        assert!(is_miss(cache.get(&key("b.test"), at(4))));
        assert_eq!(cache.metrics().evictions, 1);
    }

    #[test]
    fn eviction_prefers_dead_entries_over_lru() {
        let config = test_config().with_capacity(2);
        let mut cache = PoolCache::new(config);
        // `live` carries the oldest LRU stamp, but `old` (inserted at t=0)
        // is past TTL + stale window by t=120: eviction must pick the dead
        // entry over the least recently used one.
        cache.insert(key("live.test"), Ok(report(2)), at(100));
        cache.insert(key("old.test"), Ok(report(1)), at(0));
        cache.insert(key("new.test"), Ok(report(3)), at(120));
        assert!(is_miss(cache.get(&key("old.test"), at(120))));
        assert!(!is_miss(cache.get(&key("live.test"), at(120))));
        assert!(!is_miss(cache.get(&key("new.test"), at(120))));
        assert_eq!(cache.metrics().evictions, 1);
    }

    #[test]
    fn expired_negative_entries_are_preferred_eviction_victims() {
        // A negative entry has no stale window: once past its (short) TTL
        // it is unusable and must be evicted before any live entry, even
        // though the dead-check for positive entries uses TTL + stale.
        let config = test_config().with_capacity(2);
        let mut cache = PoolCache::new(config);
        cache.insert(key("dead.test"), Err("boom".into()), at(0)); // unusable after t=5
        cache.insert(key("live.test"), Ok(report(1)), at(6));
        cache.insert(key("new.test"), Ok(report(2)), at(6));
        assert!(!is_miss(cache.get(&key("live.test"), at(7))));
        assert!(!is_miss(cache.get(&key("new.test"), at(7))));
        assert!(is_miss(cache.get(&key("dead.test"), at(7))));
    }

    #[test]
    fn capacity_is_an_exact_global_lru_bound() {
        let mut cache = PoolCache::new(test_config().with_capacity(16));
        let host = |i: usize| key(&format!("host{i}.test"));
        for i in 0..16 {
            cache.insert(host(i), Ok(report(1)), at(0));
        }
        // Known recency: everything but hosts 3, 7, 8 and 12 is touched
        // after the fill, so exactly those four are least recently used.
        let cold = [3, 7, 8, 12];
        for i in (0..16).filter(|i| !cold.contains(i)) {
            assert!(!is_miss(cache.get(&host(i), at(1))));
        }
        for i in 16..20 {
            cache.insert(host(i), Ok(report(1)), at(2));
            assert_eq!(cache.len(), 16, "after inserting host{i}");
        }
        assert_eq!(cache.metrics().evictions, 4);
        for i in 0..20 {
            assert_eq!(
                peek(&cache, &host(i)).is_none(),
                cold.contains(&i),
                "host{i}"
            );
        }
    }

    fn reasked(cache: &PoolCache, key: &PoolKey) -> bool {
        peek(cache, key).is_some_and(|cached| cached.reasked)
    }

    #[test]
    fn a_reasked_entry_outlives_more_recent_newcomers() {
        let mut cache = PoolCache::new(test_config().with_capacity(2));
        cache.insert(key("hot.test"), Ok(report(1)), at(0));
        assert!(!is_miss(cache.get(&key("hot.test"), at(1))));
        // Every newcomer is more recent than `hot`, and none was asked for
        // again: they evict one another.
        for i in 0..8 {
            cache.insert(key(&format!("cold{i}.test")), Ok(report(2)), at(2));
            assert!(peek(&cache, &key("hot.test")).is_some(), "after cold{i}");
        }
        let metrics = cache.metrics();
        assert_eq!((metrics.evictions, metrics.reasked_evictions), (7, 0));

        // Once the survivor is re-asked too, the working set exceeds the
        // capacity: recency decides among equals, and the counter says so.
        assert!(!is_miss(cache.get(&key("cold7.test"), at(3))));
        cache.insert(key("third.test"), Ok(report(3)), at(4));
        assert!(peek(&cache, &key("hot.test")).is_none());
        let metrics = cache.metrics();
        assert_eq!((metrics.evictions, metrics.reasked_evictions), (8, 1));
    }

    #[test]
    fn only_a_hit_sets_the_reasked_bit() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("a.test"), Ok(report(1)), at(0));
        cache.probe(at(1));
        assert!(is_miss(cache.get(&key("other.test"), at(1))));
        assert!(!reasked(&cache, &key("a.test")), "insert, probe, a miss");
        // A second generation of a pool nobody asked for is still that.
        cache.insert(key("a.test"), Ok(report(2)), at(2));
        assert!(!reasked(&cache, &key("a.test")), "insert over insert");

        assert!(!is_miss(cache.get(&key("a.test"), at(3))));
        assert!(reasked(&cache, &key("a.test")), "a fresh hit");
        cache.insert(key("b.test"), Ok(report(1)), at(0));
        assert!(matches!(
            cache.get(&key("b.test"), at(70)),
            CacheLookup::Stale(..)
        ));
        assert!(reasked(&cache, &key("b.test")), "a stale hit");
    }

    #[test]
    fn a_regeneration_inherits_the_reasked_bit() {
        let mut cache = PoolCache::new(test_config().with_capacity(2));
        cache.insert(key("hot.test"), Ok(report(1)), at(0));
        assert!(!is_miss(cache.get(&key("hot.test"), at(1))));
        cache.insert(key("cold.test"), Ok(report(2)), at(2));
        // The refresh of `hot` lands; the bit is the pool's, not the
        // generation's, so the next landing miss takes `cold`.
        cache.insert(key("hot.test"), Ok(report(3)), at(70));
        assert!(reasked(&cache, &key("hot.test")));
        cache.insert(key("new.test"), Ok(report(4)), at(71));
        assert_eq!(peek(&cache, &key("hot.test")).unwrap().generated_at, at(70));
        assert!(peek(&cache, &key("cold.test")).is_none());
    }

    #[test]
    fn a_handoff_carries_the_reasked_bit() {
        let mut donor = PoolCache::new(test_config());
        donor.insert(key("hot.test"), Ok(report(1)), at(0));
        donor.insert(key("cold.test"), Ok(report(2)), at(0));
        assert!(!is_miss(donor.get(&key("hot.test"), at(1))));

        // A full receiver: its own re-asked entry and its own filler.
        let mut receiver = PoolCache::new(test_config().with_capacity(2));
        receiver.insert(key("resident.test"), Ok(report(3)), at(0));
        receiver.insert(key("filler.test"), Ok(report(4)), at(0));
        assert!(!is_miss(receiver.get(&key("resident.test"), at(1))));
        for (k, cached) in donor.extract_matching(|_| true) {
            assert!(receiver.install(k, cached, at(2)));
        }
        // `cold` arrived first (sorted by key) and took the filler's place;
        // `hot` then took `cold`'s — never the resident's.
        assert!(reasked(&receiver, &key("hot.test")));
        assert!(reasked(&receiver, &key("resident.test")));
        assert_eq!(receiver.len(), 2);
        assert_eq!(receiver.metrics().reasked_evictions, 0);

        // Installing over a less fresh resident keeps the resident's bit.
        let newer = CachedPool {
            value: Ok(report(5)),
            generated_at: at(10),
            expires_at: at(70),
            reasked: false,
        };
        assert!(receiver.install(key("resident.test"), newer, at(11)));
        assert!(reasked(&receiver, &key("resident.test")));
    }

    #[test]
    fn shrinking_to_one_keeps_the_reasked_entry() {
        let mut cache = PoolCache::new(test_config().with_capacity(8));
        for i in 0..8 {
            cache.insert(key(&format!("host{i}.test")), Ok(report(1)), at(0));
        }
        assert!(!is_miss(cache.get(&key("host2.test"), at(1))));
        // The most recent entry is not the one somebody came back for.
        cache.insert(key("host7.test"), Ok(report(2)), at(2));
        cache.apply_config(test_config().with_capacity(1), at(3));
        assert_eq!(cache.len(), 1);
        assert!(peek(&cache, &key("host2.test")).is_some());
        assert_eq!(cache.metrics().reasked_evictions, 0);
    }

    #[test]
    fn eviction_is_a_function_of_history_not_of_map_order() {
        // Two dead entries in a full map: each `HashMap` is seeded apart,
        // so a rule that took the first dead entry the iterator yields
        // would split these 32 caches between `dead0` and `dead1`.
        for round in 0..32 {
            let mut cache = PoolCache::new(test_config().with_capacity(4));
            cache.insert(key("dead0.test"), Ok(report(1)), at(0));
            cache.insert(key("dead1.test"), Ok(report(2)), at(1));
            cache.insert(key("live0.test"), Ok(report(3)), at(100));
            cache.insert(key("live1.test"), Ok(report(4)), at(101));
            cache.insert(key("new.test"), Ok(report(5)), at(120));
            let left: Vec<String> = cache
                .probe(at(120))
                .iter()
                .map(|probe| probe.key.domain.to_string())
                .collect();
            assert_eq!(
                left,
                ["dead1.test.", "live0.test.", "live1.test.", "new.test."],
                "round {round}: the dead entry of oldest rank goes"
            );
        }
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut cache = PoolCache::new(test_config().with_capacity(0));
        cache.insert(key("a.test"), Ok(report(1)), at(0));
        cache.insert(key("b.test"), Ok(report(2)), at(0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_ttl_skips_insertion() {
        let mut cache = PoolCache::new(test_config().with_ttl(Ttl::ZERO));
        cache.insert(key("a.test"), Ok(report(1)), at(0));
        assert_eq!(cache.len(), 0);
        let mut cache = PoolCache::new(test_config().with_negative_ttl(Ttl::ZERO));
        cache.insert(key("a.test"), Err("boom".into()), at(0));
        assert_eq!(cache.len(), 0);
        let mut cache = PoolCache::new(CacheConfig::uncached());
        cache.insert(key("a.test"), Ok(report(1)), at(0));
        cache.insert(key("b.test"), Err("boom".into()), at(0));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn apply_config_retunes_knobs_without_touching_entries() {
        let mut cache = PoolCache::new(test_config());
        cache.insert(key("pool.ntp.org"), Ok(report(1)), at(0));
        let stamped = peek(&cache, &key("pool.ntp.org")).unwrap().expires_at;

        // New epoch: longer stale window, same TTL. The entry keeps its
        // stamped expiry but the new stale window applies to it at once.
        cache.apply_config(
            test_config().with_stale_window(Duration::from_secs(90)),
            at(10),
        );
        assert_eq!(
            peek(&cache, &key("pool.ntp.org")).unwrap().expires_at,
            stamped
        );
        match cache.get(&key("pool.ntp.org"), at(100)) {
            CacheLookup::Stale(..) => {}
            other => panic!("stale under the widened window, got {other:?}"),
        }
    }

    #[test]
    fn apply_config_shrinking_capacity_evicts_immediately() {
        let mut cache = PoolCache::new(test_config().with_capacity(8));
        for i in 0..8 {
            cache.insert(key(&format!("host{i}.test")), Ok(report(1)), at(0));
        }
        cache.apply_config(test_config().with_capacity(3), at(1));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.metrics().evictions, 5);
        // And the new bound holds for subsequent inserts.
        cache.insert(key("extra.test"), Ok(report(2)), at(2));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn stale_serving_is_capped_by_the_new_horizon() {
        // Old epoch: ttl 60, stale 0. New epoch: ttl 1, stale 120. The
        // naive bound (stamped expiry + new stale) would allow serving an
        // old entry at age 180 — beyond BOTH epochs' ttl+stale horizons.
        // The horizon cap limits it to min(60, 1) + 120 = age 121.
        let mut cache = PoolCache::new(test_config().with_stale_window(Duration::ZERO));
        cache.insert(key("pool.ntp.org"), Ok(report(1)), at(0));
        cache.apply_config(
            test_config()
                .with_ttl(Ttl::from_secs(1))
                .with_stale_window(Duration::from_secs(120)),
            at(30),
        );
        match cache.get(&key("pool.ntp.org"), at(59)) {
            CacheLookup::Fresh(_) => {}
            other => panic!("still fresh by its stamp, got {other:?}"),
        }
        match cache.get(&key("pool.ntp.org"), at(100)) {
            CacheLookup::Stale(..) => {}
            other => panic!("within the capped window, got {other:?}"),
        }
        assert!(
            is_miss(cache.get(&key("pool.ntp.org"), at(122))),
            "age 122 exceeds the max of the old (60) and new (121) horizons"
        );
    }

    #[test]
    fn extract_and_install_preserve_stamps() {
        let mut donor = PoolCache::new(test_config());
        donor.insert(key("a.test"), Ok(report(1)), at(5));
        donor.insert(key("b.test"), Ok(report(2)), at(10));
        donor.insert(key("dead.test"), Err("boom".into()), at(0));

        let moved = donor.extract_matching(|k| k.domain.to_string().starts_with('a'));
        assert_eq!(moved.len(), 1);
        assert_eq!(donor.len(), 2);

        let mut receiver = PoolCache::new(test_config());
        for (k, cached) in moved {
            assert!(receiver.install(k, cached, at(20)));
        }
        let adopted = peek(&receiver, &key("a.test")).unwrap();
        assert_eq!(adopted.generated_at, at(5));
        assert_eq!(adopted.expires_at, at(65), "expiry stamp preserved");

        // Installing a dead entry is refused...
        let all = donor.extract_matching(|_| true);
        assert_eq!(all.len(), 2);
        assert_eq!(donor.len(), 0);
        let (dead_key, dead) = all
            .iter()
            .find(|(k, _)| k.domain.to_string().starts_with("dead"))
            .cloned()
            .unwrap();
        assert!(!receiver.install(dead_key.clone(), dead, at(20)));
        assert!(peek(&receiver, &dead_key).is_none());

        // ...and so is clobbering an at-least-as-fresh existing entry.
        let stale_twin = CachedPool {
            value: Ok(report(9)),
            generated_at: at(0),
            expires_at: at(60),
            reasked: false,
        };
        assert!(!receiver.install(key("a.test"), stale_twin, at(20)));
        assert_eq!(peek(&receiver, &key("a.test")).unwrap().expires_at, at(65));
    }

    #[test]
    fn validate_rejects_zero_structural_knobs() {
        assert_eq!(
            test_config().with_capacity(0).validate(),
            Err(ConfigError::Zero("capacity"))
        );
        assert_eq!(test_config().validate(), Ok(()));
    }

    #[test]
    fn invalid_variant_displays_reason() {
        let err = ConfigError::Invalid {
            field: "refresh_interval",
            reason: "stale window configured but the refresh pump is disabled".into(),
        };
        assert!(err.to_string().contains("refresh_interval"));
        assert!(err.to_string().contains("stale window"));
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn for_question_maps_address_types_only() {
        let key = |rtype| {
            let question = Question::new("pool.ntp.org".parse().unwrap(), rtype);
            QueryKey::for_question(question.as_question_ref()).map(|key| key.family)
        };
        assert_eq!(key(RrType::A), Some(AddressFamily::V4));
        assert_eq!(key(RrType::Aaaa), Some(AddressFamily::V6));
        assert_eq!(key(RrType::Txt), None);
        assert_eq!(AddressFamily::V4.rtype(), RrType::A);
        assert_eq!(AddressFamily::V6.rtype(), RrType::Aaaa);
    }

    #[test]
    fn a_lent_key_finds_the_entry_of_its_owned_key() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |key: &dyn LentKey| {
            let mut hasher = DefaultHasher::new();
            key.hash(&mut hasher);
            hasher.finish()
        };
        let owned = key("Pool.NTP.org");
        let asked = Question::new("pOOL.ntp.ORG".parse().unwrap(), RrType::A);
        let lent = QueryKey::for_question(asked.as_question_ref()).unwrap();
        let mut derived = DefaultHasher::new();
        owned.hash(&mut derived);
        assert_eq!(hash(&lent), derived.finish(), "the derived hash");
        assert_eq!(hash(&lent), hash(&owned));
        assert!(&lent as &dyn LentKey == &owned as &dyn LentKey);
        assert_eq!(lent.to_key(), owned);

        let mut cache = PoolCache::new(CacheConfig::default());
        cache.insert(owned, Ok(report(1)), at(0));
        assert!(!is_miss(cache.get(&lent, at(1))));
        let aaaa = Question::new("pool.ntp.org".parse().unwrap(), RrType::Aaaa);
        let other = QueryKey::for_question(aaaa.as_question_ref()).unwrap();
        assert!(is_miss(cache.get(&other, at(1))));
    }
}
