//! The DNS front end: [`CachingPoolResolver`].
//!
//! The paper proposes deploying the mechanism "without changing the DNS
//! infrastructure, offering a standard-compatible DNS-resolver interface".
//! `CachingPoolResolver` is that interface: it answers ordinary A/AAAA
//! queries from unmodified stub resolvers by running distributed DoH pool
//! generation underneath and returning the combined (or majority-filtered)
//! addresses as a plain DNS response.
//!
//! Running a full generation for **every** client query would make serving
//! cost scale linearly with client traffic, so queries are answered from
//! the pool cache, cold bursts are coalesced so concurrent misses for one
//! domain share a single fan-out ([`CachingPoolResolver::serve_batch`]),
//! and expired entries within the stale window are served immediately while
//! a background refresh — pumped by the driver via
//! [`CachingPoolResolver::run_due_refreshes`], scheduled sans-IO through
//! [`CachingPoolResolver::next_refresh_due`] — regenerates the pool off the
//! query path. The amortised cost of serving a domain drops from one
//! generation per query to one generation per TTL window; the
//! generation-per-query front end is the same resolver under
//! [`CacheConfig::uncached`].
//!
//! Every answer still comes out of a real [`GenerationReport`] produced by
//! the paper's secure generation procedure, so the benign-fraction
//! guarantee of served pools is exactly the guarantee of the underlying
//! generation — caching changes *when* pools are generated, never *what*
//! is served.

use std::sync::Arc;
use std::time::Duration;

use sdoh_dns_server::{Exchanger, QueryHandler};
use sdoh_dns_wire::{
    AnswerTemplate, Message, MessageBuilder, Question, Rcode, Record, RrType, Ttl, WireResult,
};

use super::cache::{
    answer_template, AddressFamily, CacheConfig, CacheLookup, CacheMetrics, CachedPool, PoolCache,
    PoolKey,
};
use super::epoch::ServeConfig;
use super::refresh::RefreshScheduler;
use super::session::{drive_serve, ServeSession};
use super::singleflight::Singleflight;
use crate::generator::{seed_from, GenerationReport, SecurePoolGenerator};
use crate::session::SessionEvent;
use sdoh_netsim::SimInstant;

/// Operational counters of a [`CachingPoolResolver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Address queries received (after protocol-level rejection).
    pub queries: u64,
    /// Queries rejected before lookup (no question / non-address type).
    pub rejected: u64,
    /// Queries answered from a fresh cache entry.
    pub hits: u64,
    /// Queries answered from a stale entry while a refresh was queued
    /// (stale-while-revalidate).
    pub stale_serves: u64,
    /// Queries answered SERVFAIL from a cached generation failure without
    /// re-running the fan-out (negative caching).
    pub negative_hits: u64,
    /// Queries that found no usable entry and triggered (or joined) a
    /// generation.
    pub misses: u64,
    /// Misses that attached to another query's in-flight generation instead
    /// of launching their own (singleflight).
    pub coalesced_waiters: u64,
    /// Pool generations actually performed (demand misses + refreshes).
    pub generations: u64,
    /// Generations that failed and were negatively cached.
    pub generation_failures: u64,
    /// Background refresh generations performed.
    pub refreshes: u64,
    /// Per-resolver lookups that produced a usable answer, across all
    /// generations.
    pub source_answers: u64,
    /// Per-resolver lookups that failed, across all generations.
    pub source_failures: u64,
    /// Virtual time the most recent generation batch took.
    pub last_generation_latency: Duration,
    /// Total virtual time spent generating pools.
    pub total_generation_latency: Duration,
}

impl ServeMetrics {
    /// Fraction of address queries served without a generation on the query
    /// path (fresh + stale + negative hits).
    pub fn hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        (self.hits + self.stale_serves + self.negative_hits) as f64 / self.queries as f64
    }

    /// Adds `other`'s counters into `self` — aggregating the metrics of
    /// several serving shards into one fleet-wide view. Counters and the
    /// total latency sum; `last_generation_latency` keeps the largest value
    /// (the slowest shard's most recent batch).
    pub fn absorb(&mut self, other: &ServeMetrics) {
        self.queries += other.queries;
        self.rejected += other.rejected;
        self.hits += other.hits;
        self.stale_serves += other.stale_serves;
        self.negative_hits += other.negative_hits;
        self.misses += other.misses;
        self.coalesced_waiters += other.coalesced_waiters;
        self.generations += other.generations;
        self.generation_failures += other.generation_failures;
        self.refreshes += other.refreshes;
        self.source_answers += other.source_answers;
        self.source_failures += other.source_failures;
        self.last_generation_latency = self
            .last_generation_latency
            .max(other.last_generation_latency);
        self.total_generation_latency += other.total_generation_latency;
    }
}

/// One **consistent** observation of a [`CachingPoolResolver`]'s state,
/// taken by [`CachingPoolResolver::snapshot`].
///
/// All four readings come from the same `&self` borrow, so no query can be
/// counted in one field but not yet in another — the invariants between the
/// counters (e.g. `serve.hits == cache.hits` for a resolver that only ever
/// went through `handle_query`) hold within a snapshot. This is what a
/// runtime should take once per statistics request instead of reading the
/// metrics field by field across several calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// The serving counters ([`CachingPoolResolver::metrics`]).
    pub serve: ServeMetrics,
    /// The cache-level counters ([`CachingPoolResolver::cache_metrics`]).
    pub cache: CacheMetrics,
    /// Entries currently cached (including not-yet-purged expired ones).
    pub entries: usize,
    /// Background refreshes currently queued.
    pub pending_refreshes: usize,
}

impl ServeSnapshot {
    /// Adds `other` into `self`, aggregating per-shard snapshots into one
    /// fleet-wide snapshot.
    pub fn absorb(&mut self, other: &ServeSnapshot) {
        self.serve.absorb(&other.serve);
        self.cache.absorb(&other.cache);
        self.entries += other.entries;
        self.pending_refreshes += other.pending_refreshes;
    }

    /// Names of the monotone counters that *decreased* between `earlier`
    /// and `self` — empty for any legal pair of successive snapshots of the
    /// same resolver.
    ///
    /// `entries` and `pending_refreshes` are gauges and legitimately shrink;
    /// `serve.last_generation_latency` is a latest-value reading. Every
    /// other field is a cumulative counter, and a regression means state was
    /// lost or observed inconsistently — the monotonicity invariant chaos
    /// campaigns check after every step.
    // sdoh-lint: allow(hot-path-purity, "monotonicity check is the chaos-monitor surface, never the serving path")
    pub fn regressions(&self, earlier: &ServeSnapshot) -> Vec<&'static str> {
        let pairs: [(&'static str, u64, u64); 18] = [
            ("serve.queries", earlier.serve.queries, self.serve.queries),
            (
                "serve.rejected",
                earlier.serve.rejected,
                self.serve.rejected,
            ),
            ("serve.hits", earlier.serve.hits, self.serve.hits),
            (
                "serve.stale_serves",
                earlier.serve.stale_serves,
                self.serve.stale_serves,
            ),
            (
                "serve.negative_hits",
                earlier.serve.negative_hits,
                self.serve.negative_hits,
            ),
            ("serve.misses", earlier.serve.misses, self.serve.misses),
            (
                "serve.coalesced_waiters",
                earlier.serve.coalesced_waiters,
                self.serve.coalesced_waiters,
            ),
            (
                "serve.generations",
                earlier.serve.generations,
                self.serve.generations,
            ),
            (
                "serve.generation_failures",
                earlier.serve.generation_failures,
                self.serve.generation_failures,
            ),
            (
                "serve.refreshes",
                earlier.serve.refreshes,
                self.serve.refreshes,
            ),
            (
                "serve.source_answers",
                earlier.serve.source_answers,
                self.serve.source_answers,
            ),
            (
                "serve.source_failures",
                earlier.serve.source_failures,
                self.serve.source_failures,
            ),
            ("cache.hits", earlier.cache.hits, self.cache.hits),
            (
                "cache.stale_hits",
                earlier.cache.stale_hits,
                self.cache.stale_hits,
            ),
            ("cache.misses", earlier.cache.misses, self.cache.misses),
            (
                "cache.insertions",
                earlier.cache.insertions,
                self.cache.insertions,
            ),
            (
                "cache.evictions",
                earlier.cache.evictions,
                self.cache.evictions,
            ),
            (
                "cache.expirations",
                earlier.cache.expirations,
                self.cache.expirations,
            ),
        ];
        let mut regressed: Vec<&'static str> = pairs
            .into_iter()
            .filter_map(|(name, before, after)| (after < before).then_some(name))
            .collect();
        if self.serve.total_generation_latency < earlier.serve.total_generation_latency {
            regressed.push("serve.total_generation_latency");
        }
        regressed
    }
}

/// Builds the DNS response serving `report`'s pool for `question`,
/// returning only addresses of the queried family (even when the generator
/// is configured for dual-stack union) with the given answer TTL.
fn pool_response(
    query: &Message,
    question: &Question,
    report: &GenerationReport,
    ttl: Ttl,
) -> Message {
    let mut builder = MessageBuilder::response_to(query).recursion_available(true);
    for entry in report.pool.iter() {
        let matches_family = match question.rtype {
            RrType::A => entry.address.is_ipv4(),
            RrType::Aaaa => entry.address.is_ipv6(),
            _ => false,
        };
        if matches_family {
            builder = builder.answer(Record::address(
                question.name.clone(),
                ttl.as_secs(),
                entry.address,
            ));
        }
    }
    builder.build()
}

/// What one query is answered with, before it takes the caller's form.
enum Served<'a> {
    /// Refused at the protocol level; the response is already built.
    Rejected(Message),
    /// A pool, lent by the cache entry (or the generation) it came from.
    Pool {
        question: &'a Question,
        report: &'a GenerationReport,
        /// The cache entry's pre-encoded answer; `None` straight out of a
        /// generation.
        template: Option<&'a AnswerTemplate>,
        ttl: Ttl,
    },
    /// A failed generation, possibly remembered: SERVFAIL.
    Failure,
}

impl<'a> Served<'a> {
    /// A pool fresh out of a generation on the query path.
    fn generated(question: &'a Question, report: &'a GenerationReport, ttl: Ttl) -> Self {
        Served::Pool {
            question,
            report,
            template: None,
            ttl,
        }
    }

    /// The answer as a [`Message`].
    fn message(self, query: &Message) -> Message {
        match self {
            Served::Rejected(response) => response,
            Served::Pool {
                question,
                report,
                ttl,
                ..
            } => pool_response(query, question, report, ttl),
            Served::Failure => Message::error_response(query, Rcode::ServFail),
        }
    }

    /// The answer in wire form: a pool is rendered from its pre-encoded
    /// answer section (built here when the generation never reached the
    /// cache), and only what the template cannot reproduce byte for byte
    /// goes through the [`Message`].
    fn wire(self, query: &Message, out: &mut Vec<u8>) -> WireResult<()> {
        if let Served::Pool {
            question,
            report,
            template,
            ttl,
        } = &self
        {
            let rendered = match template {
                Some(template) => template.render(query, ttl.as_secs(), out),
                None => AddressFamily::of(question.rtype).is_some_and(|family| {
                    answer_template(family, report).render(query, ttl.as_secs(), out)
                }),
            };
            if rendered {
                return Ok(());
            }
        }
        self.message(query).encode_into(out)
    }
}

/// A DNS query handler serving secure pools through the caching subsystem.
///
/// See the module documentation for the serving model.
pub struct CachingPoolResolver {
    generator: SecurePoolGenerator,
    cache: PoolCache,
    refresh: RefreshScheduler,
    metrics: ServeMetrics,
    serve_config: Arc<ServeConfig>,
}

impl CachingPoolResolver {
    /// Wraps a generator in the serving subsystem.
    pub fn new(generator: SecurePoolGenerator, config: CacheConfig) -> Self {
        CachingPoolResolver {
            generator,
            cache: PoolCache::new(config),
            refresh: RefreshScheduler::new(),
            metrics: ServeMetrics::default(),
            serve_config: Arc::new(ServeConfig::initial(config)),
        }
    }

    /// Adopts a new config epoch: the cache knobs are retuned at once
    /// (entries keep their stamps, stale serving stays bounded by the max
    /// of the old and new horizons; a shrunken capacity evicts the surplus
    /// immediately) and the epoch becomes this resolver's
    /// [`current_epoch`].
    ///
    /// This is the per-shard half of hot reconfiguration: a control plane
    /// validates the new knobs once into an `Arc<ServeConfig>` and hands
    /// the same `Arc` to every shard's resolver through its work queue.
    ///
    /// [`current_epoch`]: CachingPoolResolver::current_epoch
    pub fn apply_config(&mut self, config: Arc<ServeConfig>, now: SimInstant) {
        self.cache.apply_config(*config.cache(), now);
        self.serve_config = config;
    }

    /// The epoch number of the config this resolver last adopted (0 until
    /// the first [`apply_config`](CachingPoolResolver::apply_config)).
    pub fn current_epoch(&self) -> u64 {
        self.serve_config.epoch()
    }

    /// The config epoch this resolver currently serves under.
    pub fn serve_config(&self) -> &Arc<ServeConfig> {
        &self.serve_config
    }

    /// Access to the underlying generator.
    pub fn generator(&self) -> &SecurePoolGenerator {
        &self.generator
    }

    /// Mutable access to the underlying generator — how a control plane
    /// swaps the upstream resolver set or the pool-generation config on a
    /// live shard (see [`SecurePoolGenerator::replace_sources`] and
    /// [`SecurePoolGenerator::set_config`]).
    pub fn generator_mut(&mut self) -> &mut SecurePoolGenerator {
        &mut self.generator
    }

    /// Removes and returns every cache entry whose key matches `predicate`,
    /// with generation/expiry stamps intact, cancelling any queued refresh
    /// for a moved key (its new owner will re-queue one on its own stale
    /// serve). The handoff half of a live shard rescale: a retiring shard
    /// extracts the entries it no longer owns and forwards them to their
    /// new owners for [`install_entry`](CachingPoolResolver::install_entry).
    pub fn extract_entries(
        &mut self,
        predicate: impl FnMut(&PoolKey) -> bool,
    ) -> Vec<(PoolKey, CachedPool)> {
        let moved = self.cache.extract_matching(predicate);
        for (key, _) in &moved {
            self.refresh.cancel(key);
        }
        moved
    }

    /// Adopts an entry handed off by another shard: stamps are preserved
    /// (the wire-form answer is rebuilt from the report), dead-on-arrival
    /// entries are dropped, and an existing at-least-as-fresh entry wins —
    /// so a key is never owned by two entries and a handoff never clobbers
    /// a newer generation. Returns whether the entry was installed.
    pub fn install_entry(&mut self, key: PoolKey, cached: CachedPool, now: SimInstant) -> bool {
        self.cache.install(key, cached, now)
    }

    /// Probes every cache entry at instant `now`, sorted by key, without
    /// touching LRU state or counters: the per-entry age/liveness surface
    /// invariant monitors check.
    // sdoh-lint: allow(transitive-hot-path-purity, "control-plane probe: runs only for WorkItem::Probe maintenance items, never per query")
    pub fn probe_entries(&self, now: SimInstant) -> Vec<super::cache::CacheEntryProbe> {
        self.cache.probe(now)
    }

    /// Snapshot of the serving counters.
    pub fn metrics(&self) -> ServeMetrics {
        self.metrics
    }

    /// Snapshot of the cache-level counters.
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.cache.metrics()
    }

    /// Takes one cheap, **consistent** reading of every serving counter:
    /// the serve metrics, the cache metrics, the entry count and the
    /// pending-refresh count, all under a single borrow. See
    /// [`ServeSnapshot`] for why a statistics reader should prefer this
    /// over field-by-field reads.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            serve: self.metrics,
            cache: self.cache.metrics(),
            entries: self.cache.len(),
            pending_refreshes: self.refresh.len(),
        }
    }

    /// The earliest queued refresh deadline — the instant a driver should
    /// wake up and call [`CachingPoolResolver::run_due_refreshes`] (`None`
    /// when nothing is queued). Composes with `WaitUntil`-style scheduling
    /// over the simulator's virtual clock.
    pub fn next_refresh_due(&self) -> Option<SimInstant> {
        self.refresh.next_due()
    }

    /// Number of refreshes currently queued.
    pub fn pending_refreshes(&self) -> usize {
        self.refresh.len()
    }

    /// Runs every refresh whose deadline has passed as one overlapped
    /// generation batch, off any client's query path. Returns how many
    /// refreshes ran.
    pub fn run_due_refreshes(&mut self, exchanger: &mut dyn Exchanger) -> usize {
        let due = self.refresh.take_due(exchanger.now());
        if due.is_empty() {
            return 0;
        }
        let count = due.len();
        self.generate_batch(exchanger, due, true);
        count
    }

    /// Serves a batch of client queries that arrived together, coalescing
    /// concurrent misses for the same key onto one generation
    /// (singleflight) and overlapping the generations of distinct keys in
    /// one fan-out. Responses come back in query order.
    // sdoh-lint: allow(hot-path-purity, "per-batch coalescing buffers are the singleflight design; sized by the batch, not per hit")
    // sdoh-lint: allow(no-panic, "waiter indices come from enumerate() over the same queries slice; screened questions always map to a pool key")
    pub fn serve_batch(
        &mut self,
        exchanger: &mut dyn Exchanger,
        queries: &[Message],
    ) -> Vec<Message> {
        let now = exchanger.now();
        let mut responses: Vec<Option<Message>> = vec![None; queries.len()];
        let mut flights: Singleflight<PoolKey> = Singleflight::new();
        for (index, query) in queries.iter().enumerate() {
            let question = match self.screen(query) {
                Ok(question) => question,
                Err(response) => {
                    responses[index] = Some(response);
                    continue;
                }
            };
            let key = PoolKey::for_question(question).expect("screened address question");
            match self.lookup(&key, question, now) {
                Some(served) => responses[index] = Some(served.message(query)),
                None => {
                    flights.join(key, index);
                }
            }
        }
        self.metrics.coalesced_waiters += flights.coalesced();
        let keys: Vec<PoolKey> = flights.flights().iter().map(|(k, _)| k.clone()).collect();
        let results = self.generate_batch(exchanger, keys, false);
        let ttl = self.cache.config().ttl;
        for ((_, waiters), (_, result)) in flights.into_flights().iter().zip(&results) {
            for &waiter in waiters {
                let query = &queries[waiter];
                let served = match (result, query.question()) {
                    (Ok(report), Some(question)) => Served::generated(question, report, ttl),
                    _ => Served::Failure,
                };
                responses[waiter] = Some(served.message(query));
            }
        }
        responses
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }

    /// Validates the protocol-level shape of a query, counting rejections.
    fn screen<'q>(&mut self, query: &'q Message) -> Result<&'q Question, Message> {
        let Some(question) = query.question() else {
            self.metrics.rejected += 1;
            return Err(Message::error_response(query, Rcode::FormErr));
        };
        if !question.rtype.is_address() {
            self.metrics.rejected += 1;
            return Err(Message::error_response(query, Rcode::NotImp));
        }
        self.metrics.queries += 1;
        Ok(question)
    }

    /// Serves a query from the cache if possible, lending the entry out;
    /// `None` means the caller must generate (a miss). A stale hit is
    /// served at once with a zero TTL — clients may use it now but must
    /// not cache it onward — and a refresh is queued for `now`.
    fn lookup<'a>(
        &'a mut self,
        key: &PoolKey,
        question: &'a Question,
        now: SimInstant,
    ) -> Option<Served<'a>> {
        let (hit, ttl) = match self.cache.get(key, now) {
            CacheLookup::Fresh(hit) => {
                match hit.pool.value {
                    Ok(_) => self.metrics.hits += 1,
                    Err(_) => self.metrics.negative_hits += 1,
                }
                (hit, hit.pool.remaining(now))
            }
            CacheLookup::Stale(hit) => {
                self.metrics.stale_serves += 1;
                self.refresh.schedule(key.clone(), now);
                (hit, Ttl::ZERO)
            }
            CacheLookup::Miss => {
                self.metrics.misses += 1;
                return None;
            }
        };
        Some(match &hit.pool.value {
            Ok(report) => Served::Pool {
                question,
                report,
                template: hit.answer,
                ttl,
            },
            Err(_) => Served::Failure,
        })
    }

    /// Answers a query from the cache or, on a miss, by generating on the
    /// query path; `form` turns what was served into the caller's form (a
    /// [`Message`] or wire bytes), so both forms share every counter bump.
    fn serve<R>(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &Message,
        form: impl FnOnce(Served<'_>) -> R,
    ) -> R {
        let question = match self.screen(query) {
            Ok(question) => question,
            Err(response) => return form(Served::Rejected(response)),
        };
        let Some(key) = PoolKey::for_question(question) else {
            // screen() only passes address-type questions, which always
            // map to a pool key; answer the theoretical gap gracefully.
            return form(Served::Failure);
        };
        if let Some(served) = self.lookup(&key, question, exchanger.now()) {
            return form(served);
        }
        // sdoh-lint: allow(hot-path-purity, "single-key miss: the generation fan-out dwarfs this one-element batch")
        let results = self.generate_batch(exchanger, vec![key], false);
        form(match results.first() {
            Some((_, Ok(report))) => Served::generated(question, report, self.cache.config().ttl),
            _ => Served::Failure,
        })
    }

    /// Runs one overlapped generation per key, feeding outcomes into the
    /// cache (failures become negative entries) and the metrics. Returns
    /// the per-key outcomes in batch order.
    // sdoh-lint: allow(hot-path-purity, "generation is the miss path: the source fan-out dwarfs these per-batch buffers")
    // sdoh-lint: allow(transitive-hot-path-purity, "coalesced miss path: at most one generation per (question, TTL window) enters here and cache hits never do; E16 moves generation onto its own event loop")
    fn generate_batch(
        &mut self,
        exchanger: &mut dyn Exchanger,
        keys: Vec<PoolKey>,
        is_refresh: bool,
    ) -> Vec<(PoolKey, Result<GenerationReport, String>)> {
        if keys.is_empty() {
            return Vec::new();
        }
        let batch: Vec<(PoolKey, u64)> = keys
            .into_iter()
            .map(|key| {
                let seed = seed_from(exchanger);
                (key, seed)
            })
            .collect();
        let started = exchanger.now();
        let CachingPoolResolver {
            generator,
            cache,
            metrics,
            refresh,
            serve_config: _,
        } = self;
        let keys: Vec<PoolKey> = batch.iter().map(|(key, _)| key.clone()).collect();
        let outcome = ServeSession::new(generator, batch).and_then(|mut session| {
            let events = drive_serve(&mut session, exchanger)?;
            for event in &events {
                match event.event {
                    SessionEvent::SourceAnswered { .. } => metrics.source_answers += 1,
                    SessionEvent::SourceFailed { .. } => metrics.source_failures += 1,
                }
            }
            session.finish()
        });
        let now = exchanger.now();
        let elapsed = now.saturating_duration_since(started);
        metrics.last_generation_latency = elapsed;
        metrics.total_generation_latency += elapsed;
        let results: Vec<(PoolKey, Result<GenerationReport, String>)> = match outcome {
            Ok(outcomes) => outcomes
                .into_iter()
                .map(|o| (o.key, o.result.map_err(|e| e.to_string())))
                .collect(),
            // A session-protocol error dooms the whole batch: every key is
            // negatively cached so queued clients fail fast instead of
            // re-driving a broken session.
            Err(err) => keys
                .into_iter()
                .map(|key| (key, Err(err.to_string())))
                .collect(),
        };
        for (key, value) in &results {
            metrics.generations += 1;
            if is_refresh {
                metrics.refreshes += 1;
            }
            if value.is_err() {
                metrics.generation_failures += 1;
            }
            cache.insert(key.clone(), value.clone(), now);
            // The entry was just regenerated: a refresh still queued for it
            // (its stale serve happened before this demand-path generation)
            // would only duplicate the fan-out.
            refresh.cancel(key);
        }
        results
    }
}

/// A pool resolved straight through the serving subsystem, without DNS
/// message framing — what an in-process application (a secure time-sync
/// client, a bootstrap component) consumes from the front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedPool {
    /// The served pool addresses, in answer order.
    pub addresses: Vec<std::net::IpAddr>,
    /// Remaining time the caller may use this pool before re-pulling it
    /// (zero for a stale serve: usable now, but not a moment longer).
    pub ttl: Ttl,
}

impl ResolvedPool {
    /// Extracts a pool from a successful DNS answer: the answer-section
    /// addresses in order, valid for the **smallest** answer TTL. The one
    /// place answer records become a typed pool, shared by every consumer
    /// that turns DNS messages into pools.
    pub fn from_answer(message: &Message) -> ResolvedPool {
        ResolvedPool {
            addresses: message.answer_addresses(),
            ttl: message
                .answers
                .iter()
                .map(|record| Ttl::from_secs(record.ttl))
                .min()
                .unwrap_or(Ttl::ZERO),
        }
    }
}

impl CachingPoolResolver {
    /// Resolves the current pool for `domain` and `family` through the full
    /// serving path — fresh cache hit, stale serve with a queued background
    /// refresh, or an on-demand generation — exactly as a network query
    /// would, but handing back typed addresses plus the remaining TTL
    /// instead of a wire message. In-process consumers (e.g. a secure
    /// time-sync client holding the shared front-end handle) use this to
    /// honour the same TTL windows as every DNS client of the resolver.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Generation`](crate::PoolError::Generation) when
    /// the serving path answers with an error (a failed — possibly
    /// negatively cached — generation).
    pub fn resolve_pool(
        &mut self,
        exchanger: &mut dyn Exchanger,
        domain: &sdoh_dns_wire::Name,
        family: super::AddressFamily,
    ) -> crate::PoolResult<ResolvedPool> {
        let query = Message::query(exchanger.next_id(), domain.clone(), family.rtype());
        let response = self.handle_query(exchanger, &query);
        if response.header.rcode != Rcode::NoError {
            // sdoh-lint: allow(hot-path-purity, "error formatting happens on the failure path only")
            return Err(crate::PoolError::Generation(format!(
                "serving front end answered {:?} for {domain}",
                response.header.rcode
            )));
        }
        Ok(ResolvedPool::from_answer(&response))
    }
}

impl QueryHandler for CachingPoolResolver {
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        self.serve(exchanger, query, |served| served.message(query))
    }

    fn handle_query_wire(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &Message,
        out: &mut Vec<u8>,
    ) -> WireResult<()> {
        self.serve(exchanger, query, |served| served.wire(query, out))
    }

    fn handler_name(&self) -> &str {
        "caching-pool-resolver"
    }
}

impl std::fmt::Debug for CachingPoolResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingPoolResolver")
            .field("generator", &self.generator)
            .field("cache_entries", &self.cache.len())
            .field("pending_refreshes", &self.refresh.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use crate::source::{AddressSource, StaticSource};
    use sdoh_dns_server::{ClientExchanger, DnsClient, Do53Service, StubResolver};
    use sdoh_netsim::{SimAddr, SimNet};
    use std::net::IpAddr;

    fn ip(last: u8) -> IpAddr {
        format!("203.0.113.{last}").parse().unwrap()
    }

    fn resolver(config: CacheConfig) -> CachingPoolResolver {
        resolver_in_mode(PoolConfig::algorithm1(), config)
    }

    fn resolver_in_mode(pool: PoolConfig, config: CacheConfig) -> CachingPoolResolver {
        let sources: Vec<Box<dyn AddressSource>> = vec![
            Box::new(StaticSource::answering("r1", vec![ip(1), ip(2)])),
            Box::new(StaticSource::answering("r2", vec![ip(2), ip(3)])),
            Box::new(StaticSource::answering("r3", vec![ip(2), ip(1)])),
        ];
        CachingPoolResolver::new(SecurePoolGenerator::new(pool, sources).unwrap(), config)
    }

    fn dead_fleet_resolver(config: CacheConfig) -> CachingPoolResolver {
        let sources: Vec<Box<dyn AddressSource>> = vec![
            Box::new(StaticSource::failing("dead1")),
            Box::new(StaticSource::failing("dead2")),
        ];
        let pool = PoolConfig::algorithm1().with_min_responses(2);
        CachingPoolResolver::new(SecurePoolGenerator::new(pool, sources).unwrap(), config)
    }

    fn test_config() -> CacheConfig {
        CacheConfig::default()
            .with_ttl(Ttl::from_secs(60))
            .with_stale_window(Duration::from_secs(30))
            .with_negative_ttl(Ttl::from_secs(5))
    }

    fn query(id: u16, domain: &str) -> Message {
        Message::query(id, domain.parse().unwrap(), RrType::A)
    }

    #[test]
    fn repeat_queries_cost_one_generation() {
        let net = SimNet::new(80);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        let first = resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        assert_eq!(first.answer_addresses().len(), 6);
        for i in 2..=10 {
            let response = resolver.handle_query(&mut exchanger, &query(i, "pool.ntp.org"));
            assert_eq!(response.answer_addresses(), first.answer_addresses());
        }
        let metrics = resolver.metrics();
        assert_eq!(metrics.queries, 10);
        assert_eq!(metrics.generations, 1);
        assert_eq!(metrics.misses, 1);
        assert_eq!(metrics.hits, 9);
        assert!((metrics.hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn served_ttl_decrements_with_entry_age() {
        let net = SimNet::new(81);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        let fresh = resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        assert!(fresh.answers.iter().all(|r| r.ttl == 60));
        net.clock().advance(Duration::from_secs(25));
        let aged = resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert!(aged.answers.iter().all(|r| r.ttl == 35));
    }

    #[test]
    fn stale_window_serves_immediately_and_refreshes_in_background() {
        let net = SimNet::new(82);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        assert_eq!(resolver.next_refresh_due(), None);

        // Past the TTL, within the stale window.
        net.clock().advance(Duration::from_secs(75));
        let before = net.now();
        let stale = resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert_eq!(net.now(), before, "stale serve performed no exchange");
        assert_eq!(stale.answer_addresses().len(), 6);
        assert!(stale.answers.iter().all(|r| r.ttl == 0));
        assert_eq!(resolver.metrics().stale_serves, 1);
        assert_eq!(resolver.metrics().generations, 1, "not on the query path");
        assert_eq!(resolver.next_refresh_due(), Some(before));
        assert_eq!(resolver.pending_refreshes(), 1);

        // The background pump regenerates; the next query is a fresh hit.
        assert_eq!(resolver.run_due_refreshes(&mut exchanger), 1);
        let metrics = resolver.metrics();
        assert_eq!(metrics.generations, 2);
        assert_eq!(metrics.refreshes, 1);
        let fresh = resolver.handle_query(&mut exchanger, &query(3, "pool.ntp.org"));
        assert_eq!(fresh.answer_addresses().len(), 6);
        assert_eq!(resolver.metrics().hits, 1);
        assert_eq!(resolver.run_due_refreshes(&mut exchanger), 0);
    }

    #[test]
    fn demand_regeneration_cancels_the_queued_refresh() {
        // A stale serve queues a refresh; if the entry then ages past the
        // stale window before any pump runs, the next query regenerates on
        // the miss path — and the queued refresh must be dropped, not run
        // as a duplicate fan-out against the already-fresh entry.
        let net = SimNet::new(88);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        net.clock().advance(Duration::from_secs(75));
        resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert_eq!(resolver.pending_refreshes(), 1, "stale serve queued it");
        net.clock().advance(Duration::from_secs(20));
        resolver.handle_query(&mut exchanger, &query(3, "pool.ntp.org"));
        assert_eq!(resolver.metrics().generations, 2, "miss-path regeneration");
        assert_eq!(resolver.pending_refreshes(), 0, "queued refresh cancelled");
        assert_eq!(resolver.run_due_refreshes(&mut exchanger), 0);
        assert_eq!(resolver.metrics().generations, 2);
        assert_eq!(resolver.metrics().refreshes, 0);
    }

    #[test]
    fn expiry_past_stale_window_regenerates_on_the_query_path() {
        let net = SimNet::new(83);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        net.clock().advance(Duration::from_secs(91));
        resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        let metrics = resolver.metrics();
        assert_eq!(metrics.generations, 2);
        assert_eq!(metrics.misses, 2);
        assert_eq!(metrics.stale_serves, 0);
    }

    #[test]
    fn failures_are_negatively_cached() {
        let net = SimNet::new(84);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = dead_fleet_resolver(test_config());

        let first = resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        assert_eq!(first.header.rcode, Rcode::ServFail);
        let second = resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert_eq!(second.header.rcode, Rcode::ServFail);
        let metrics = resolver.metrics();
        assert_eq!(metrics.generations, 1, "failure answered from the cache");
        assert_eq!(metrics.generation_failures, 1);
        assert_eq!(metrics.negative_hits, 1);

        // Past the negative TTL the fan-out is retried.
        net.clock().advance(Duration::from_secs(6));
        resolver.handle_query(&mut exchanger, &query(3, "pool.ntp.org"));
        assert_eq!(resolver.metrics().generations, 2);
    }

    #[test]
    fn serve_batch_coalesces_concurrent_misses() {
        let net = SimNet::new(85);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        let queries: Vec<Message> = vec![
            query(1, "a.ntp.org"),
            query(2, "b.ntp.org"),
            query(3, "a.ntp.org"),
            query(4, "a.ntp.org"),
            query(5, "b.ntp.org"),
        ];
        let responses = resolver.serve_batch(&mut exchanger, &queries);
        assert_eq!(responses.len(), 5);
        assert!(responses.iter().all(|r| r.answer_addresses().len() == 6));
        // Same key, same flight, same pool.
        assert_eq!(
            responses[0].answer_addresses(),
            responses[2].answer_addresses()
        );
        let metrics = resolver.metrics();
        assert_eq!(metrics.queries, 5);
        assert_eq!(metrics.generations, 2, "two distinct keys");
        assert_eq!(metrics.coalesced_waiters, 3);
        assert_eq!(metrics.misses, 5);

        // A second batch is all cache hits.
        let responses = resolver.serve_batch(&mut exchanger, &queries);
        assert_eq!(responses.len(), 5);
        let metrics = resolver.metrics();
        assert_eq!(metrics.generations, 2);
        assert_eq!(metrics.hits, 5);
    }

    #[test]
    fn protocol_level_rejections_never_reach_the_cache() {
        let net = SimNet::new(86);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        let txt = Message::query(1, "pool.ntp.org".parse().unwrap(), RrType::Txt);
        assert_eq!(
            resolver.handle_query(&mut exchanger, &txt).header.rcode,
            Rcode::NotImp
        );
        let empty = Message::new();
        assert_eq!(
            resolver.handle_query(&mut exchanger, &empty).header.rcode,
            Rcode::FormErr
        );
        let batch = resolver.serve_batch(&mut exchanger, &[txt]);
        assert_eq!(batch[0].header.rcode, Rcode::NotImp);
        assert_eq!(resolver.metrics().rejected, 3);
        assert_eq!(resolver.metrics().queries, 0);
        assert_eq!(resolver.handler_name(), "caching-pool-resolver");
        assert!(format!("{resolver:?}").contains("CachingPoolResolver"));
    }

    #[test]
    fn uncached_majority_mode_filters_the_uncorroborated_address() {
        let net = SimNet::new(71);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver =
            resolver_in_mode(PoolConfig::majority_resolver(), CacheConfig::uncached());
        for id in 1..=3 {
            let response = resolver.handle_query(&mut exchanger, &query(id, "pool.ntp.org"));
            let addrs = response.answer_addresses();
            assert!(addrs.contains(&ip(1)), "2/3 resolvers returned .1");
            assert!(addrs.contains(&ip(2)), "3/3 resolvers returned .2");
            assert!(!addrs.contains(&ip(3)), "1/3 resolvers returned .3");
        }
        let metrics = resolver.metrics();
        assert_eq!(metrics.queries, 3);
        assert_eq!(metrics.generations, 3, "one generation per query");
        assert_eq!(metrics.generation_failures, 0);
    }

    #[test]
    fn uncached_front_end_works_behind_a_standard_stub_resolver() {
        // Backward compatibility: an unmodified stub resolver pointed at the
        // front end on port 53 just works.
        let net = SimNet::new(74);
        let frontend_addr = SimAddr::v4(10, 0, 0, 53, 53);
        let resolver = Arc::new(parking_lot::Mutex::new(resolver(CacheConfig::uncached())));
        net.register(frontend_addr, Do53Service::new(Arc::clone(&resolver)));

        let stub = StubResolver::new(frontend_addr);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let domain: sdoh_dns_wire::Name = "pool.ntp.org".parse().unwrap();
        let addrs = stub.lookup_ipv4(&mut exchanger, &domain).unwrap();
        assert_eq!(addrs.len(), 6, "3 resolvers x 2 addresses each");

        // The answer TTL is the configured one: zero, usable now and not
        // cacheable onward, because the front end itself caches nothing.
        let response = DnsClient::new(frontend_addr)
            .query(&mut exchanger, &domain, RrType::A)
            .unwrap();
        assert!(response.header.recursion_available);
        assert_eq!(response.answers.len(), 6);
        assert!(response.answers.iter().all(|r| r.ttl == 0));
        let metrics = resolver.lock().metrics();
        assert_eq!(metrics.queries, 2);
        assert_eq!(metrics.generations, 2, "one generation per query");
    }

    #[test]
    fn uncached_dead_fleet_is_servfail_every_time() {
        let net = SimNet::new(73);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = dead_fleet_resolver(CacheConfig::uncached());
        for id in 1..=2 {
            let response = resolver.handle_query(&mut exchanger, &query(id, "pool.ntp.org"));
            assert_eq!(response.header.rcode, Rcode::ServFail);
        }
        let metrics = resolver.metrics();
        assert_eq!(metrics.queries, 2);
        assert_eq!(metrics.generations, 2, "nothing remembered: one per query");
        assert_eq!(metrics.generation_failures, 2);
        assert_eq!(metrics.negative_hits, 0);
    }

    #[test]
    fn serve_layer_is_send() {
        // The real-socket runtime moves a whole resolver (generator,
        // cache, scheduler, metrics) into a worker thread; this must stay
        // a compile-time guarantee.
        fn assert_send<T: Send>() {}
        assert_send::<CachingPoolResolver>();
        assert_send::<SecurePoolGenerator>();
        assert_send::<PoolCache>();
        assert_send::<RefreshScheduler>();
        assert_send::<Singleflight<PoolKey>>();
        assert_send::<ServeMetrics>();
        assert_send::<super::super::ServeSnapshot>();
    }

    #[test]
    fn snapshot_is_one_consistent_reading() {
        let net = SimNet::new(90);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        let snapshot = resolver.snapshot();
        assert_eq!(snapshot.serve, resolver.metrics());
        assert_eq!(snapshot.cache, resolver.cache_metrics());
        assert_eq!(snapshot.entries, 1);
        assert_eq!(snapshot.pending_refreshes, 0);
        // Within one snapshot the cross-counter invariants hold exactly.
        assert_eq!(snapshot.serve.hits, snapshot.cache.hits);
        assert_eq!(snapshot.serve.misses, snapshot.cache.misses);

        let mut total = super::super::ServeSnapshot::default();
        total.absorb(&snapshot);
        total.absorb(&snapshot);
        assert_eq!(total.serve.queries, 2 * snapshot.serve.queries);
        assert_eq!(total.cache.hits, 2 * snapshot.cache.hits);
        assert_eq!(total.entries, 2);
    }

    #[test]
    fn coalesced_waiters_of_a_failed_generation_all_get_servfail() {
        // The singleflight failure path: a cold burst for one domain with a
        // failing backend must run exactly ONE generation, answer every
        // coalesced waiter SERVFAIL, and leave a negative entry behind so
        // follow-up queries fail fast without another fan-out.
        let net = SimNet::new(91);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = dead_fleet_resolver(test_config());

        let queries: Vec<Message> = (1..=5).map(|i| query(i, "dead.ntp.org")).collect();
        let responses = resolver.serve_batch(&mut exchanger, &queries);
        assert_eq!(responses.len(), 5);
        for (q, response) in queries.iter().zip(&responses) {
            assert_eq!(response.header.rcode, Rcode::ServFail);
            assert!(response.answers_query(q), "response matches its query");
        }
        let metrics = resolver.metrics();
        assert_eq!(metrics.generations, 1, "one flight for the whole burst");
        assert_eq!(metrics.generation_failures, 1);
        assert_eq!(metrics.coalesced_waiters, 4);
        assert_eq!(metrics.misses, 5);

        // The failure is negatively cached: the next query is answered from
        // the cache without a second generation attempt.
        let again = resolver.handle_query(&mut exchanger, &query(6, "dead.ntp.org"));
        assert_eq!(again.header.rcode, Rcode::ServFail);
        let metrics = resolver.metrics();
        assert_eq!(metrics.generations, 1);
        assert_eq!(metrics.negative_hits, 1);
    }

    #[test]
    fn resolve_pool_follows_the_serving_path() {
        use super::super::AddressFamily;
        let net = SimNet::new(92);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        let domain: sdoh_dns_wire::Name = "pool.ntp.org".parse().unwrap();

        let first = resolver
            .resolve_pool(&mut exchanger, &domain, AddressFamily::V4)
            .unwrap();
        assert_eq!(first.addresses.len(), 6);
        assert_eq!(first.ttl, Ttl::from_secs(60));
        // A wire query and the typed lookup serve the same cache entry.
        let wire = resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        assert_eq!(wire.answer_addresses(), first.addresses);
        assert_eq!(resolver.metrics().generations, 1);

        // The TTL decrements with entry age like every served answer.
        net.clock().advance(Duration::from_secs(25));
        let aged = resolver
            .resolve_pool(&mut exchanger, &domain, AddressFamily::V4)
            .unwrap();
        assert_eq!(aged.ttl, Ttl::from_secs(35));
        assert_eq!(aged.addresses, first.addresses);

        // A stale serve hands back TTL zero and queues the refresh.
        net.clock().advance(Duration::from_secs(50));
        let stale = resolver
            .resolve_pool(&mut exchanger, &domain, AddressFamily::V4)
            .unwrap();
        assert_eq!(stale.ttl, Ttl::ZERO);
        assert_eq!(resolver.pending_refreshes(), 1);
    }

    #[test]
    fn resolve_pool_surfaces_generation_failures() {
        use super::super::AddressFamily;
        let net = SimNet::new(93);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = dead_fleet_resolver(test_config());
        let err = resolver
            .resolve_pool(
                &mut exchanger,
                &"dead.ntp.org".parse().unwrap(),
                AddressFamily::V4,
            )
            .unwrap_err();
        assert!(matches!(err, crate::PoolError::Generation(_)), "{err:?}");
    }

    #[test]
    fn snapshot_regressions_name_decreasing_counters() {
        let mut earlier = ServeSnapshot::default();
        earlier.serve.queries = 10;
        earlier.cache.hits = 5;
        earlier.entries = 7;
        earlier.pending_refreshes = 2;

        let mut later = earlier;
        later.serve.queries = 12;
        later.entries = 0; // gauges may shrink
        later.pending_refreshes = 0;
        assert!(later.regressions(&earlier).is_empty());

        later.serve.queries = 9;
        later.cache.hits = 4;
        assert_eq!(
            later.regressions(&earlier),
            vec!["serve.queries", "cache.hits"]
        );
    }

    #[test]
    fn probe_entries_follow_served_state() {
        let net = SimNet::new(95);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        let query = Message::query(7, "pool.ntp.org".parse().unwrap(), RrType::A);
        resolver.handle_query(&mut exchanger, &query);
        let probes = resolver.probe_entries(net.now());
        assert_eq!(probes.len(), 1);
        assert_eq!(probes[0].state, super::super::EntryState::Fresh);
        assert!(!probes[0].negative);
        assert!(probes[0].age <= Duration::from_secs(1));
    }

    #[test]
    fn apply_config_retunes_a_live_resolver() {
        let net = SimNet::new(96);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        assert_eq!(resolver.current_epoch(), 0);
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));

        // New epoch: widen the stale window. The already-cached entry is
        // untouched but the new window applies to it immediately.
        let next = ServeConfig::initial(test_config())
            .next(test_config().with_stale_window(Duration::from_secs(300)))
            .unwrap();
        resolver.apply_config(Arc::new(next), net.now());
        assert_eq!(resolver.current_epoch(), 1);
        assert_eq!(
            resolver.serve_config().cache().stale_window,
            Duration::from_secs(300)
        );

        // Age 100 was past the old stale horizon (60+30); under the new
        // epoch it is a stale serve — no generation on the query path.
        net.clock().advance(Duration::from_secs(100));
        let stale = resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert!(stale.answers.iter().all(|r| r.ttl == 0));
        assert_eq!(resolver.metrics().stale_serves, 1);
        assert_eq!(resolver.metrics().generations, 1);
    }

    #[test]
    fn extracted_entries_install_on_a_new_owner() {
        let net = SimNet::new(97);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut donor = resolver(test_config());
        donor.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        // Queue a refresh on the donor so the handoff has one to cancel.
        net.clock().advance(Duration::from_secs(75));
        donor.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert_eq!(donor.pending_refreshes(), 1);

        let moved = donor.extract_entries(|_| true);
        assert_eq!(moved.len(), 1);
        assert_eq!(donor.snapshot().entries, 0);
        assert_eq!(donor.pending_refreshes(), 0, "refresh moved with the key");

        let mut receiver = resolver(test_config());
        for (key, cached) in moved {
            assert!(receiver.install_entry(key, cached, net.now()));
        }
        // The receiver serves the handed-off entry (stale at this age)
        // without a generation of its own.
        let served = receiver.handle_query(&mut exchanger, &query(3, "pool.ntp.org"));
        assert_eq!(served.answer_addresses().len(), 6);
        assert_eq!(receiver.metrics().generations, 0);
        assert_eq!(receiver.metrics().stale_serves, 1);
    }

    /// Two identical resolvers on identically seeded simulations: `wire`
    /// answers through `handle_query_wire`, `message` through
    /// `handle_query` + `encode` — the path every answer took before the
    /// pre-encoded one existed.
    struct Twins {
        nets: [SimNet; 2],
        wire: CachingPoolResolver,
        message: CachingPoolResolver,
        out: Vec<u8>,
    }

    impl Twins {
        fn new(build: impl Fn() -> CachingPoolResolver) -> Self {
            Twins {
                nets: [SimNet::new(98), SimNet::new(98)],
                wire: build(),
                message: build(),
                out: Vec::new(),
            }
        }

        fn advance(&self, secs: u64) {
            for net in &self.nets {
                net.clock().advance(Duration::from_secs(secs));
            }
        }

        fn each(&mut self, f: impl Fn(&mut CachingPoolResolver, &mut ClientExchanger)) {
            let client = SimAddr::v4(10, 0, 0, 1, 40000);
            f(
                &mut self.wire,
                &mut ClientExchanger::new(&self.nets[0], client),
            );
            f(
                &mut self.message,
                &mut ClientExchanger::new(&self.nets[1], client),
            );
        }

        /// Serves `query` on both twins, asserts the two forms and every
        /// counter agree, and hands back the decoded answer.
        fn serve(&mut self, query: &Message) -> Message {
            let client = SimAddr::v4(10, 0, 0, 1, 40000);
            let mut exchanger = ClientExchanger::new(&self.nets[0], client);
            self.wire
                .handle_query_wire(&mut exchanger, query, &mut self.out)
                .unwrap();
            let mut exchanger = ClientExchanger::new(&self.nets[1], client);
            let response = self.message.handle_query(&mut exchanger, query);
            assert_eq!(self.out, response.encode().unwrap(), "{query}");
            assert_eq!(self.wire.snapshot(), self.message.snapshot());
            assert_eq!(
                self.wire.next_refresh_due(),
                self.message.next_refresh_due()
            );
            response
        }
    }

    #[test]
    fn wire_answers_count_the_ttl_down_and_go_stale_like_messages() {
        let mut twins = Twins::new(|| resolver(test_config()));
        let ttls =
            |response: &Message| -> Vec<u32> { response.answers.iter().map(|r| r.ttl).collect() };
        let miss = twins.serve(&query(1, "pool.ntp.org"));
        assert_eq!(ttls(&miss), vec![60; 6], "a miss serves the configured TTL");
        // Fresh: what is left of the entry's lifetime.
        twins.advance(25);
        let aged = twins.serve(&query(2, "Pool.NTP.org"));
        assert_eq!(ttls(&aged), vec![35; 6]);
        assert_eq!(
            aged.question().unwrap().name.to_string(),
            "Pool.NTP.org.",
            "the question is echoed as asked"
        );
        twins.advance(34);
        assert_eq!(ttls(&twins.serve(&query(3, "pool.ntp.org"))), vec![1; 6]);
        assert_eq!(twins.wire.metrics().hits, 2);
        // Stale: TTL zero, and the refresh is queued.
        twins.advance(16);
        let stale = twins.serve(&query(4, "pool.ntp.org"));
        assert_eq!(ttls(&stale), vec![0; 6]);
        assert_eq!(twins.wire.metrics().stale_serves, 1);
        assert_eq!(twins.wire.pending_refreshes(), 1);
        assert_eq!(twins.wire.metrics().generations, 1);
        // The pump regenerates; the next answer is fresh again.
        twins.each(|resolver, exchanger| {
            assert_eq!(resolver.run_due_refreshes(exchanger), 1);
        });
        assert_eq!(ttls(&twins.serve(&query(5, "pool.ntp.org"))), vec![60; 6]);
        assert_eq!(twins.wire.metrics().hits, 3);
        assert_eq!(twins.wire.metrics().refreshes, 1);
        // Past every window: a miss on the query path.
        twins.advance(200);
        assert_eq!(ttls(&twins.serve(&query(6, "pool.ntp.org"))), vec![60; 6]);
        assert_eq!(twins.wire.metrics().misses, 2);
    }

    #[test]
    fn wire_answers_to_remembered_failures_are_servfail() {
        let mut twins = Twins::new(|| dead_fleet_resolver(test_config()));
        for id in 1..=3 {
            let response = twins.serve(&query(id, "dead.ntp.org"));
            assert_eq!(response.header.rcode, Rcode::ServFail);
            assert!(!response.header.recursion_available);
            assert!(response.answers.is_empty());
        }
        let metrics = twins.wire.metrics();
        assert_eq!(metrics.generations, 1, "the failure was remembered");
        assert_eq!(metrics.negative_hits, 2);
        assert_eq!(metrics.hits, 0);
    }

    #[test]
    fn wire_answers_outside_the_template_take_the_message_path() {
        let mut twins = Twins::new(|| resolver(test_config()));
        twins.serve(&query(1, "pool.ntp.org"));

        // EDNS never showed in the response: still the cached pool.
        let mut edns = query(2, "pool.ntp.org");
        edns.set_edns(sdoh_dns_wire::Edns::with_payload_size(4096));
        let response = twins.serve(&edns);
        assert_eq!(response.answers.len(), 6);
        assert!(response.additionals.is_empty());

        // Two questions: the first is answered, both are echoed.
        let mut two = query(3, "pool.ntp.org");
        two.questions
            .push(Question::new("other.ntp.org".parse().unwrap(), RrType::A));
        let response = twins.serve(&two);
        assert_eq!(response.questions.len(), 2);
        assert_eq!(response.answers.len(), 6);

        // The root name leaves nothing for owner names to point at.
        let root = Message::query(4, sdoh_dns_wire::Name::root(), RrType::A);
        assert_eq!(twins.serve(&root).answers.len(), 6, "a miss");
        let response = twins.serve(&root);
        assert_eq!(response.answers.len(), 6, "a hit");
        assert!(response.answers.iter().all(|r| r.name.is_root()));

        // Rejections never reach the cache.
        let txt = Message::query(5, "pool.ntp.org".parse().unwrap(), RrType::Txt);
        assert_eq!(twins.serve(&txt).header.rcode, Rcode::NotImp);
        assert_eq!(twins.serve(&Message::new()).header.rcode, Rcode::FormErr);

        let metrics = twins.wire.metrics();
        assert_eq!(metrics.hits, 3);
        assert_eq!(metrics.misses, 2);
        assert_eq!(metrics.rejected, 2);
    }

    #[test]
    fn wire_answers_follow_a_new_config_epoch() {
        let mut twins = Twins::new(|| resolver(test_config()));
        twins.serve(&query(1, "pool.ntp.org"));
        let next = Arc::new(
            ServeConfig::initial(test_config())
                .next(test_config().with_ttl(Ttl::from_secs(300)))
                .unwrap(),
        );
        let now = twins.nets[0].now();
        twins.each(|resolver, _| resolver.apply_config(next.clone(), now));

        // The cached entry keeps the expiry it was stamped with…
        twins.advance(10);
        let kept = twins.serve(&query(2, "pool.ntp.org"));
        assert!(kept.answers.iter().all(|r| r.ttl == 50));
        // …and the next generation is served under the new TTL.
        let fresh = twins.serve(&query(3, "time.ntp.org"));
        assert!(fresh.answers.iter().all(|r| r.ttl == 300));
        twins.advance(100);
        let aged = twins.serve(&query(4, "time.ntp.org"));
        assert!(aged.answers.iter().all(|r| r.ttl == 200));
    }

    #[test]
    fn wire_answers_survive_a_cache_handoff() {
        let mut donors = Twins::new(|| resolver(test_config()));
        donors.serve(&query(1, "pool.ntp.org"));
        donors.advance(20);
        let now = donors.nets[0].now();

        // Handed to a new owner, the entry answers with its stamps intact.
        let mut owners = Twins::new(|| resolver(test_config()));
        owners.advance(20);
        for (donor, owner) in [
            (&mut donors.wire, &mut owners.wire),
            (&mut donors.message, &mut owners.message),
        ] {
            for (key, cached) in donor.extract_entries(|_| true) {
                assert!(owner.install_entry(key, cached, now));
            }
        }
        let served = owners.serve(&query(2, "pool.ntp.org"));
        assert_eq!(served.answers.len(), 6);
        assert!(served.answers.iter().all(|r| r.ttl == 40));
        assert_eq!(owners.wire.metrics().hits, 1);
        assert_eq!(owners.wire.metrics().generations, 0);

        // Stamped as expired on the way through (what pool-bench does to
        // make stale entries): a stale serve, TTL zero, refresh queued.
        owners.each(|resolver, _| {
            for (key, mut cached) in resolver.extract_entries(|_| true) {
                cached.expires_at = cached.generated_at;
                assert!(resolver.install_entry(key, cached, now));
            }
        });
        let stale = owners.serve(&query(3, "pool.ntp.org"));
        assert_eq!(stale.answer_addresses(), served.answer_addresses());
        assert!(stale.answers.iter().all(|r| r.ttl == 0));
        assert_eq!(owners.wire.metrics().stale_serves, 1);
        assert_eq!(owners.wire.pending_refreshes(), 1);
    }

    #[test]
    fn uncached_pools_are_rendered_the_same_way() {
        // TTL zero: nothing is ever cached, every answer is a generation.
        let mut twins = Twins::new(|| resolver(test_config().with_ttl(Ttl::ZERO)));
        for id in 1..=3 {
            let response = twins.serve(&query(id, "pool.ntp.org"));
            assert_eq!(response.answers.len(), 6);
            assert!(response.answers.iter().all(|r| r.ttl == 0));
        }
        assert_eq!(twins.wire.metrics().generations, 3);
        assert_eq!(twins.wire.snapshot().entries, 0);
    }

    #[test]
    fn a_pool_too_large_for_any_dns_message_is_answered_servfail() {
        // 4200 A records are 67 200 bytes of answer section: neither the
        // template nor the `Message` encoder produces it, as a miss or as
        // a cached hit, so a front end never holds a response longer than
        // a 16-bit frame can carry.
        let block = |tag: u8| -> Vec<IpAddr> {
            (0..1400u16)
                .map(|i| IpAddr::from([10, tag, i.to_be_bytes()[0], i.to_be_bytes()[1]]))
                .collect()
        };
        let sources: Vec<Box<dyn AddressSource>> = vec![
            Box::new(StaticSource::answering("r1", block(1))),
            Box::new(StaticSource::answering("r2", block(2))),
            Box::new(StaticSource::answering("r3", block(3))),
        ];
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut resolver = CachingPoolResolver::new(generator, test_config());
        let net = SimNet::new(99);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut out = Vec::new();
        for id in 1..=2 {
            let wire = query(id, "pool.ntp.org").encode().unwrap();
            sdoh_dns_server::serve_do53_payload_into(
                &mut resolver,
                &mut exchanger,
                &wire,
                false,
                &mut out,
            );
            assert!(out.len() <= sdoh_dns_wire::MAX_MESSAGE_SIZE);
            let response = Message::decode(&out).unwrap();
            assert_eq!(response.header.id, id);
            assert_eq!(response.header.rcode, Rcode::ServFail);
            assert!(response.answers.is_empty());
        }
        assert_eq!(resolver.metrics().generations, 1);
        assert_eq!(resolver.metrics().hits, 1, "the oversized pool is cached");
    }

    mod properties {
        use super::super::{answer_template, pool_response, AddressFamily};
        use crate::config::CombinationMode;
        use crate::generator::GenerationReport;
        use crate::pool::AddressPool;
        use proptest::prelude::*;
        use sdoh_dns_wire::{Message, Name, Opcode, RrType, Ttl};
        use std::net::IpAddr;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The pre-encoded answer and the `Message` built and encoded
            /// per query are the same bytes: any pool (either family,
            /// both, none; up to 96 slots), id, RD bit, opcode, 0x20
            /// casing of the question and TTL.
            #[test]
            fn rendered_answer_equals_the_encoded_message(
                slots in proptest::collection::vec((0u8..3, any::<[u8; 16]>()), 0..97),
                header in (any::<u16>(), any::<bool>(), 0u8..16),
                casing in any::<u64>(),
                aaaa in any::<bool>(),
                ttl in any::<u32>(),
            ) {
                let mut pool = AddressPool::new();
                for (kind, bytes) in &slots {
                    // Two in three slots of the first family, so mixed,
                    // single-family and empty answers all come up.
                    let address = if *kind == 0 {
                        IpAddr::from(*bytes)
                    } else {
                        IpAddr::from([bytes[0], bytes[1], bytes[2], bytes[3]])
                    };
                    pool.push(address, "r");
                }
                let report = GenerationReport {
                    pool,
                    mode: CombinationMode::TruncateAndCombine,
                    sources: Vec::new(),
                    truncate_lengths: Vec::new(),
                };
                let (id, rd, opcode) = header;
                let rtype = if aaaa { RrType::Aaaa } else { RrType::A };
                let name: Name = "pool-7.ntpns.example.org".parse().unwrap();
                let mut query = Message::query(id, name.with_mixed_case(casing), rtype);
                query.header.recursion_desired = rd;
                query.header.opcode = Opcode::from(opcode);
                let question = query.question().unwrap();

                let expected = pool_response(&query, question, &report, Ttl::from_secs(ttl))
                    .encode()
                    .unwrap();
                let family = AddressFamily::of(rtype).unwrap();
                let mut rendered = vec![0xEE; 7];
                prop_assert!(answer_template(family, &report).render(&query, ttl, &mut rendered));
                prop_assert_eq!(rendered, expected);
            }
        }
    }

    #[test]
    fn families_cache_separately() {
        let net = SimNet::new(87);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        let a = Message::query(1, "pool.ntp.org".parse().unwrap(), RrType::A);
        let aaaa = Message::query(2, "pool.ntp.org".parse().unwrap(), RrType::Aaaa);
        resolver.handle_query(&mut exchanger, &a);
        let v6 = resolver.handle_query(&mut exchanger, &aaaa);
        // IPv4-only generation: the AAAA answer is empty but still cached
        // under its own key.
        assert!(v6.answer_addresses().is_empty());
        assert_eq!(resolver.metrics().generations, 2);
        assert_eq!(resolver.snapshot().entries, 2);
    }
}
