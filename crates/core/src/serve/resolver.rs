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
//! the pool cache, concurrent misses for one domain join the generation
//! already in flight for it (the resolver's registry of live flights), and
//! expired entries within the stale window are served immediately while
//! a background refresh — pumped by the driver via
//! [`CachingPoolResolver::run_due_refreshes`], scheduled sans-IO through
//! [`CachingPoolResolver::next_refresh_due`] — regenerates the pool off the
//! query path. The amortised cost of serving a domain drops from one
//! generation per query to one generation per TTL window; the
//! generation-per-query front end is the same resolver under
//! [`CacheConfig::uncached`].
//!
//! A generation is a piece of data the resolver owns, not a call it sits
//! inside: [`CachingPoolResolver::begin`] answers what the cache can answer
//! and parks a miss under a [`FlightId`], [`CachingPoolResolver::poll`] says
//! what must be sent and which flights have landed, and
//! [`CachingPoolResolver::land`] takes each outcome back — no I/O in any of
//! them, so the driver decides what happens while exchanges are upstream.
//! The blocking entry points (`handle_query`, `handle_query_wire`,
//! `run_due_refreshes`, `resolve_pool`) are those same steps driven through
//! [`Exchanger::exchange_all`] until the flight lands: there is one miss
//! path.
//!
//! Every answer still comes out of a real [`GenerationReport`] produced by
//! the paper's secure generation procedure, so the benign-fraction
//! guarantee of served pools is exactly the guarantee of the underlying
//! generation — caching changes *when* pools are generated, never *what*
//! is served.

use std::time::Duration;

use sdoh_dns_server::{ExchangeRequest, Exchanger, QueryHandler};
use sdoh_dns_wire::{
    AnswerTemplate, Message, MessageBuilder, Question, Rcode, Record, RrType, Ttl, WireResult,
};

use super::cache::{
    answer_template, CacheConfig, CacheLookup, CacheMetrics, CachedPool, PoolCache, PoolKey,
};
use super::refresh::RefreshScheduler;
use super::singleflight::{FlightId, Singleflight};
use crate::error::{PoolError, PoolResult};
use crate::generator::{seed_from, GenerationReport, SecurePoolGenerator};
use crate::session::{Action, PoolSession, SessionEvent, TransactionId};
use sdoh_netsim::{NetResult, SimInstant};

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
    /// Misses that attached to a generation already in flight instead of
    /// launching their own (singleflight) — a subset of `misses`.
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
    /// Virtual time the most recently landed generation took.
    pub last_generation_latency: Duration,
    /// Total virtual time generations spent in flight (summed per
    /// generation: flights that overlap each count their own).
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
    /// (the slowest shard's most recent generation).
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
/// All five readings come from the same `&self` borrow, so no query can be
/// counted in one field but not yet in another — the invariants between the
/// counters (e.g. `serve.hits == cache.hits` for a resolver that only ever
/// went through `handle_query`) hold within a snapshot. This is what a
/// runtime should take once per statistics request instead of reading the
/// metrics field by field across several calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// The serving counters ([`CachingPoolResolver::metrics`]).
    pub serve: ServeMetrics,
    /// The cache-level counters.
    pub cache: CacheMetrics,
    /// Entries currently cached (including not-yet-purged expired ones).
    pub entries: usize,
    /// Background refreshes currently queued.
    pub pending_refreshes: usize,
    /// Generations currently in flight: opened by a miss or a due refresh,
    /// not landed yet. What a shard that is "slow" is waiting for.
    pub live_generations: usize,
}

impl ServeSnapshot {
    /// Adds `other` into `self`, aggregating per-shard snapshots into one
    /// fleet-wide snapshot.
    pub fn absorb(&mut self, other: &ServeSnapshot) {
        self.serve.absorb(&other.serve);
        self.cache.absorb(&other.cache);
        self.entries += other.entries;
        self.pending_refreshes += other.pending_refreshes;
        self.live_generations += other.live_generations;
    }

    /// Names of the monotone counters that *decreased* between `earlier`
    /// and `self` — empty for any legal pair of successive snapshots of the
    /// same resolver.
    ///
    /// `entries`, `pending_refreshes` and `live_generations` are gauges and
    /// legitimately shrink;
    /// `serve.last_generation_latency` is a latest-value reading. Every
    /// other field is a cumulative counter, and a regression means state was
    /// lost or observed inconsistently — the monotonicity invariant chaos
    /// campaigns check after every step.
    pub fn regressions(&self, earlier: &ServeSnapshot) -> Vec<&'static str> {
        let pairs: [(&'static str, u64, u64); 19] = [
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
                "cache.reasked_evictions",
                earlier.cache.reasked_evictions,
                self.cache.reasked_evictions,
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
    /// A pool, lent by the cache entry (or the landed generation) it came
    /// from together with its pre-encoded answer.
    Pool {
        question: &'a Question,
        report: &'a GenerationReport,
        template: &'a AnswerTemplate,
        ttl: Ttl,
    },
    /// A failed generation, possibly remembered: SERVFAIL.
    Failure,
}

impl Served<'_> {
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
    /// answer section, and only what the template cannot reproduce byte for
    /// byte goes through the [`Message`].
    fn wire(self, query: &Message, out: &mut Vec<u8>) -> WireResult<()> {
        if let Served::Pool { template, ttl, .. } = &self {
            if template.render(query, ttl.as_secs(), out) {
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
    /// The generations in flight, one per key.
    flights: Singleflight<PoolKey, Flight>,
    metrics: ServeMetrics,
}

/// One live generation: the per-generation machine plus what landing it
/// needs to know.
struct Flight {
    session: PoolSession<'static>,
    started: SimInstant,
    /// Opened by the refresh scheduler, not by a query.
    refresh: bool,
}

/// What [`CachingPoolResolver::poll`] asks of its driver.
#[derive(Debug)]
pub enum ServeStep {
    /// Put `request` on the wire and hand its outcome, under the same
    /// flight and transaction, to [`CachingPoolResolver::land`].
    Transmit {
        /// The flight the exchange belongs to.
        flight: FlightId,
        /// The exchange within the flight.
        transaction: TransactionId,
        /// Destination, channel, payload and timeout.
        request: ExchangeRequest,
    },
    /// A flight landed: answer every query parked under
    /// [`Landed::flight`].
    Landed(Landed),
    /// Nothing to send and nothing landed: only outcomes still upstream
    /// move a flight. The instant is the earliest queued refresh — when
    /// [`CachingPoolResolver::begin_due_refreshes`] next has work.
    Wait(Option<SimInstant>),
}

/// A finished generation, as the queries parked on it see it: already in
/// the cache (or remembered as a failure), and kept here so that they are
/// answered from **this** report — a zero TTL or an uncached front end has
/// nothing to look up.
#[derive(Debug)]
pub struct Landed {
    /// The flight that landed, as [`CachingPoolResolver::begin`] named it.
    pub flight: FlightId,
    result: Result<GenerationReport, String>,
    /// A pool's answer section, pre-encoded for the family the flight's key
    /// asks for — once, however many queries were parked.
    template: Option<AnswerTemplate>,
    ttl: Ttl,
}

impl Landed {
    fn served<'a>(&'a self, query: &'a Message) -> Served<'a> {
        match (&self.result, &self.template, query.question()) {
            (Ok(report), Some(template), Some(question)) => Served::Pool {
                question,
                report,
                template,
                ttl: self.ttl,
            },
            _ => Served::Failure,
        }
    }

    /// Renders the answer to `query` — one that was parked on this flight —
    /// into `out`: the pool under the configured TTL, or SERVFAIL for a
    /// generation that failed.
    ///
    /// # Errors
    ///
    /// The response's encoding error; `out` is left empty.
    pub fn answer_wire(&self, query: &Message, out: &mut Vec<u8>) -> WireResult<()> {
        self.served(query).wire(query, out)
    }
}

/// How [`CachingPoolResolver::begin_with`] left a query.
enum Begun<R> {
    /// Answered on the spot, in the caller's form.
    Answered(R),
    /// A miss: parked on this flight until it lands.
    Parked(FlightId),
}

impl CachingPoolResolver {
    /// Wraps a generator in the serving subsystem.
    pub fn new(generator: SecurePoolGenerator, config: CacheConfig) -> Self {
        CachingPoolResolver {
            generator,
            cache: PoolCache::new(config),
            refresh: RefreshScheduler::new(),
            flights: Singleflight::new(),
            metrics: ServeMetrics::default(),
        }
    }

    /// Retunes the serving knobs at once: entries keep their stamps, stale
    /// serving stays bounded by the max of the old and new horizons, and a
    /// shrunken capacity evicts the surplus immediately.
    ///
    /// This is the per-shard half of hot reconfiguration: a control plane
    /// validates the new knobs once ([`CacheConfig::validate`]) and hands
    /// the same value to every shard's resolver through its work queue.
    pub fn apply_config(&mut self, config: CacheConfig, now: SimInstant) {
        self.cache.apply_config(config, now);
    }

    /// The serving knobs this resolver currently serves under.
    pub fn cache_config(&self) -> CacheConfig {
        *self.cache.config()
    }

    /// Mutable access to the underlying generator — how a control plane
    /// swaps the upstream resolver set or the pool-generation config on a
    /// live shard (see [`SecurePoolGenerator::replace_sources`] and
    /// [`SecurePoolGenerator::set_config`]).
    pub fn generator_mut(&mut self) -> &mut SecurePoolGenerator {
        &mut self.generator
    }

    /// Removes and returns every cache entry whose key matches `predicate`,
    /// with generation/expiry stamps and re-asked bit intact, cancelling
    /// any queued refresh for a moved key (its new owner will re-queue one
    /// on its own stale serve). The handoff half of a live shard rescale: a retiring shard
    /// extracts the entries it no longer owns and forwards them to their
    /// new owners for [`install_entry`](CachingPoolResolver::install_entry).
    /// A generation in flight for a moved key is not part of the hand-off:
    /// it lands here, answers the queries parked on it and caches its pool
    /// here — so a driver that must not keep the key lands its flights
    /// first, or extracts again afterwards.
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

    /// Adopts an entry handed off by another shard: stamps and re-asked
    /// bit are preserved (the wire-form answer is rebuilt from the
    /// report, and a hot pool stays ranked above the receiver's once-asked
    /// entries), dead-on-arrival entries are dropped, and an existing
    /// at-least-as-fresh entry wins — so a key is never owned by two
    /// entries and a handoff never clobbers a newer generation. Returns
    /// whether the entry was installed.
    pub fn install_entry(&mut self, key: PoolKey, cached: CachedPool, now: SimInstant) -> bool {
        self.cache.install(key, cached, now)
    }

    /// Probes every cache entry at instant `now`, sorted by key, without
    /// touching eviction state or counters: the per-entry age/liveness
    /// surface invariant monitors check.
    // sdoh-lint: allow(transitive-hot-path-purity, "control-plane probe: runs only for WorkItem::Probe maintenance items, never per query")
    pub fn probe_entries(&self, now: SimInstant) -> Vec<super::cache::CacheEntryProbe> {
        self.cache.probe(now)
    }

    /// Snapshot of the serving counters.
    pub fn metrics(&self) -> ServeMetrics {
        self.metrics
    }

    /// Takes one cheap, **consistent** reading of every serving counter:
    /// the serve metrics, the cache metrics, the entry count, the
    /// pending-refresh count and the live generations, all under a single
    /// borrow. See
    /// [`ServeSnapshot`] for why a statistics reader should prefer this
    /// over field-by-field reads.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            serve: self.metrics,
            cache: self.cache.metrics(),
            entries: self.cache.len(),
            pending_refreshes: self.refresh.len(),
            live_generations: self.flights.len(),
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
        let opened = self.begin_due_refreshes(exchanger);
        if opened > 0 {
            self.drive(exchanger, None);
        }
        opened
    }

    /// First step of serving `query` without blocking: whatever the cache
    /// can answer — a fresh or stale hit, a remembered failure, a
    /// protocol-level rejection — is rendered into `out` exactly as
    /// [`handle_query_wire`](QueryHandler::handle_query_wire) renders it,
    /// and `None` comes back. A miss joins the generation in flight for its
    /// key, or opens one, and comes back as the [`FlightId`] to park the
    /// query under: `out` is untouched, and the answer is
    /// [`Landed::answer_wire`] once [`poll`](CachingPoolResolver::poll)
    /// reports the flight landed. Only `exchanger`'s clock and randomness
    /// are used.
    ///
    /// Do not call the blocking entry points while queries are parked: they
    /// drive every live flight and keep its landing to themselves.
    ///
    /// # Errors
    ///
    /// The encoding error of an answer given on the spot; `out` is left
    /// empty.
    pub fn begin(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &Message,
        out: &mut Vec<u8>,
    ) -> WireResult<Option<FlightId>> {
        match self.begin_with(exchanger, query, |served| served.wire(query, out)) {
            Begun::Answered(rendered) => rendered.map(|()| None),
            Begun::Parked(flight) => Ok(Some(flight)),
        }
    }

    /// The other way a flight opens: one for every queued refresh that is
    /// due, in scheduling order — a key whose generation is already in
    /// flight is being refreshed by it. Returns how many flights were
    /// opened; [`poll`](CachingPoolResolver::poll) hands out their
    /// transmits with everyone else's. Only `exchanger`'s clock and
    /// randomness are used.
    pub fn begin_due_refreshes(&mut self, exchanger: &mut dyn Exchanger) -> usize {
        let mut opened = 0;
        for key in self.refresh.take_due(exchanger.now()) {
            if self.flights.find(&key).is_none() && self.open_flight(exchanger, key, true).is_some()
            {
                opened += 1;
            }
        }
        opened
    }

    /// Second step: advances the live flights, in opening order, to the
    /// next thing their driver must do — see [`ServeStep`]. Call it until it
    /// says [`ServeStep::Wait`]: every transmit of every live flight is
    /// handed out before that, so a driver that sends them as one batch
    /// overlaps not only the N exchanges of a generation but the
    /// generations of different keys. `now` stamps transmit deadlines and
    /// what lands.
    pub fn poll(&mut self, now: SimInstant) -> ServeStep {
        let mut done = None;
        'flights: for (id, flight) in self.flights.iter_mut() {
            loop {
                match flight.session.poll(now) {
                    Action::Deliver(SessionEvent::SourceAnswered { .. }) => {
                        self.metrics.source_answers += 1;
                    }
                    Action::Deliver(SessionEvent::SourceFailed { .. }) => {
                        self.metrics.source_failures += 1;
                    }
                    Action::Transmit(transmit) => {
                        return ServeStep::Transmit {
                            flight: id,
                            transaction: transmit.transaction,
                            request: transmit.request,
                        };
                    }
                    Action::WaitUntil(_) => continue 'flights,
                    Action::Done => {
                        done = Some(id);
                        break 'flights;
                    }
                }
            }
        }
        let Some((id, (key, flight))) = done.and_then(|id| Some((id, self.flights.land(id)?)))
        else {
            return ServeStep::Wait(self.refresh.next_due());
        };
        let result = flight.session.finish().map_err(|e| e.to_string());
        let template = self.record_generation(key, &result, flight.refresh, flight.started, now);
        ServeStep::Landed(Landed {
            flight: id,
            result,
            template,
            ttl: self.cache.config().ttl,
        })
    }

    /// Third step: hands the transport outcome of one transmitted exchange
    /// back to its flight. Outcomes may arrive in any order, within a
    /// flight and across flights; the next [`poll`](CachingPoolResolver::poll)
    /// reports the flights they completed, in opening order.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownFlight`] when `flight` is not live, and the
    /// session's error when `transaction` is unknown or already completed.
    /// The flight is left as it was.
    pub fn land(
        &mut self,
        flight: FlightId,
        transaction: TransactionId,
        outcome: NetResult<Vec<u8>>,
    ) -> PoolResult<()> {
        self.flights
            .get_mut(flight)
            .ok_or(PoolError::UnknownFlight(flight.number()))?
            .session
            .handle_response(transaction, outcome)
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
    /// not cache it onward — and a refresh is queued for `now`, unless the
    /// key's generation is already in flight.
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
                if self.flights.find(key).is_none() {
                    self.refresh.schedule(key.clone(), now);
                }
                (hit, Ttl::ZERO)
            }
            CacheLookup::Miss => {
                self.metrics.misses += 1;
                return None;
            }
        };
        Some(match (&hit.pool.value, hit.answer) {
            (Ok(report), Some(template)) => Served::Pool {
                question,
                report,
                template,
                ttl,
            },
            _ => Served::Failure,
        })
    }

    /// [`begin`](CachingPoolResolver::begin) in the caller's form: `form`
    /// turns what was served into a [`Message`] or wire bytes, so both forms
    /// share every counter bump.
    fn begin_with<R>(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &Message,
        form: impl FnOnce(Served<'_>) -> R,
    ) -> Begun<R> {
        let question = match self.screen(query) {
            Ok(question) => question,
            Err(response) => return Begun::Answered(form(Served::Rejected(response))),
        };
        let Some(key) = PoolKey::for_question(question) else {
            // screen() only passes address-type questions, which always
            // map to a pool key; answer the theoretical gap gracefully.
            return Begun::Answered(form(Served::Failure));
        };
        if let Some(served) = self.lookup(&key, question, exchanger.now()) {
            return Begun::Answered(form(served));
        }
        if let Some(flight) = self.flights.find(&key) {
            self.metrics.coalesced_waiters += 1;
            return Begun::Parked(flight);
        }
        match self.open_flight(exchanger, key, false) {
            Some(flight) => Begun::Parked(flight),
            // The generation failed before its first exchange, and is
            // remembered like any other failure.
            None => Begun::Answered(form(Served::Failure)),
        }
    }

    /// Answers a query from the cache or, on a miss, by driving its flight
    /// to its landing on the query path: the blocking form of the steps.
    fn serve<R>(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &Message,
        mut form: impl FnMut(Served<'_>) -> R,
    ) -> R {
        let flight = match self.begin_with(exchanger, query, &mut form) {
            Begun::Answered(answer) => return answer,
            Begun::Parked(flight) => flight,
        };
        match self.drive(exchanger, Some(flight)) {
            Some(landed) => form(landed.served(query)),
            // A driver elsewhere holds the flight's outcomes.
            None => form(Served::Failure),
        }
    }

    /// Plans the generation of `key` and registers it as a live flight.
    /// `None` when the plan itself failed: that is a generation too, landed
    /// on the spot.
    // sdoh-lint: allow(transitive-hot-path-purity, "the miss path: one generation per (question, TTL window) is planned here, and its fan-out dwarfs the plan; cache hits never enter")
    fn open_flight(
        &mut self,
        exchanger: &mut dyn Exchanger,
        key: PoolKey,
        refresh: bool,
    ) -> Option<FlightId> {
        let seed = seed_from(exchanger);
        let started = exchanger.now();
        match self.generator.session(&key.domain, seed) {
            Ok(session) => Some(self.flights.open(
                key,
                Flight {
                    session,
                    started,
                    refresh,
                },
            )),
            Err(err) => {
                self.record_generation(key, &Err(err.to_string()), refresh, started, started);
                None
            }
        }
    }

    /// Books one finished generation: the counters, the cache entry (a
    /// failure becomes a negative one) and the refresh it makes redundant.
    /// The result is copied only for a cache that keeps it. Returns a
    /// pool's answer section in wire form, encoded once per landing: the
    /// cache entry's when there is one, built here otherwise.
    fn record_generation(
        &mut self,
        key: PoolKey,
        result: &Result<GenerationReport, String>,
        refresh: bool,
        started: SimInstant,
        now: SimInstant,
    ) -> Option<AnswerTemplate> {
        let elapsed = now.saturating_duration_since(started);
        self.metrics.last_generation_latency = elapsed;
        self.metrics.total_generation_latency += elapsed;
        self.metrics.generations += 1;
        if refresh {
            self.metrics.refreshes += 1;
        }
        if result.is_err() {
            self.metrics.generation_failures += 1;
        }
        // The entry is being regenerated: a refresh still queued for it
        // (its stale serve happened before this demand-path generation)
        // would only duplicate the fan-out.
        self.refresh.cancel(&key);
        if self.cache.keeps(result) {
            let stored = self.cache.insert(key, result.clone(), now)?;
            stored.answer.cloned()
        } else {
            let report = result.as_ref().ok()?;
            Some(answer_template(key.family, report))
        }
    }

    /// The blocking driver of the steps: sends what the live flights have to
    /// send as one [`Exchanger::exchange_all`] batch per wait point, lands
    /// the outcomes, and returns when `awaited` has landed — or, with
    /// nothing awaited, when nothing is left to send.
    // sdoh-lint: allow(transitive-hot-path-purity, "the miss path on the query path: a blocking caller pays its generation here, its fan-out dwarfing these buffers; cache hits never enter")
    fn drive(
        &mut self,
        exchanger: &mut dyn Exchanger,
        awaited: Option<FlightId>,
    ) -> Option<Landed> {
        let mut tags: Vec<(FlightId, TransactionId)> = Vec::new();
        let mut requests: Vec<ExchangeRequest> = Vec::new();
        loop {
            match self.poll(exchanger.now()) {
                ServeStep::Transmit {
                    flight,
                    transaction,
                    request,
                } => {
                    tags.push((flight, transaction));
                    requests.push(request);
                }
                ServeStep::Landed(landed) => {
                    if Some(landed.flight) == awaited {
                        return Some(landed);
                    }
                }
                ServeStep::Wait(_) => {
                    if requests.is_empty() {
                        return None;
                    }
                    for outcome in exchanger.exchange_all(std::mem::take(&mut requests)) {
                        // The tags are this loop's own, so their flights
                        // take the outcomes.
                        if let Some(&(flight, transaction)) = tags.get(outcome.index) {
                            let _ = self.land(flight, transaction, outcome.result);
                        }
                    }
                    tags.clear();
                }
            }
        }
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
            .field("live_generations", &self.flights.len())
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
    use std::sync::Arc;

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
        let pool = PoolConfig {
            min_responses: 2,
            ..PoolConfig::algorithm1()
        };
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

    /// In which order a stepwise driver hands a batch's outcomes back.
    #[derive(Debug, Clone, Copy)]
    enum Landing {
        /// As the transport delivered them.
        Delivery,
        /// Last delivered first: across flights and within each.
        Reverse,
        /// Every second one first, then the rest: interleaves flights.
        Interleaved,
    }

    impl Landing {
        fn order<T>(self, outcomes: Vec<T>) -> Vec<T> {
            match self {
                Landing::Delivery => outcomes,
                Landing::Reverse => outcomes.into_iter().rev().collect(),
                Landing::Interleaved => {
                    let (mut odd, mut even) = (Vec::new(), Vec::new());
                    for (at, outcome) in outcomes.into_iter().enumerate() {
                        if at % 2 == 1 { &mut odd } else { &mut even }.push(outcome);
                    }
                    odd.extend(even);
                    odd
                }
            }
        }
    }

    /// A stepwise driver over `exchange_all`: polls until the resolver has
    /// nothing left to send, putting each wait point's transmits on the
    /// wire as one batch and landing the outcomes in the given order.
    /// Returns what landed, in landing order.
    fn land_everything(
        resolver: &mut CachingPoolResolver,
        exchanger: &mut dyn Exchanger,
        landing: Landing,
    ) -> Vec<Landed> {
        let mut landed = Vec::new();
        let (mut tags, mut requests) = (Vec::new(), Vec::new());
        loop {
            match resolver.poll(exchanger.now()) {
                ServeStep::Transmit {
                    flight,
                    transaction,
                    request,
                } => {
                    tags.push((flight, transaction));
                    requests.push(request);
                }
                ServeStep::Landed(flight) => landed.push(flight),
                ServeStep::Wait(_) if requests.is_empty() => return landed,
                ServeStep::Wait(_) => {
                    let outcomes = exchanger.exchange_all(std::mem::take(&mut requests));
                    for outcome in landing.order(outcomes) {
                        let (flight, transaction) = tags[outcome.index];
                        resolver.land(flight, transaction, outcome.result).unwrap();
                    }
                    tags.clear();
                }
            }
        }
    }

    /// Serves `queries` as one burst, the stepwise way: begin them all,
    /// then land what was parked. Responses come back in query order.
    fn serve_burst(
        resolver: &mut CachingPoolResolver,
        exchanger: &mut dyn Exchanger,
        queries: &[Message],
    ) -> Vec<Message> {
        let mut out = Vec::new();
        let mut responses: Vec<Option<Message>> = vec![None; queries.len()];
        let mut parked = Vec::new();
        for (at, query) in queries.iter().enumerate() {
            match resolver.begin(exchanger, query, &mut out).unwrap() {
                None => responses[at] = Some(Message::decode(&out).unwrap()),
                Some(flight) => parked.push((flight, at)),
            }
        }
        for landed in land_everything(resolver, exchanger, Landing::Delivery) {
            for &(_, at) in parked.iter().filter(|(flight, _)| *flight == landed.flight) {
                landed.answer_wire(&queries[at], &mut out).unwrap();
                responses[at] = Some(Message::decode(&out).unwrap());
            }
        }
        responses
            .into_iter()
            .map(|response| response.expect("every query answered"))
            .collect()
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
    fn a_burst_coalesces_concurrent_misses_onto_one_flight_per_key() {
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
        let responses = serve_burst(&mut resolver, &mut exchanger, &queries);
        assert_eq!(responses.len(), 5);
        assert!(responses.iter().all(|r| r.answer_addresses().len() == 6));
        for (query, response) in queries.iter().zip(&responses) {
            assert!(response.answers_query(query), "each waiter gets its own id");
        }
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

        // A second burst is all cache hits.
        let responses = serve_burst(&mut resolver, &mut exchanger, &queries);
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
        let mut out = Vec::new();
        assert_eq!(resolver.begin(&mut exchanger, &txt, &mut out), Ok(None));
        assert_eq!(Message::decode(&out).unwrap().header.rcode, Rcode::NotImp);
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
        assert_send::<Singleflight<PoolKey, Flight>>();
        assert_send::<Landed>();
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
        assert_eq!(snapshot.cache, resolver.cache.metrics());
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
        let responses = serve_burst(&mut resolver, &mut exchanger, &queries);
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
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));

        // Widen the stale window. The already-cached entry is untouched but
        // the new window applies to it immediately.
        let widened = test_config().with_stale_window(Duration::from_secs(300));
        resolver.apply_config(widened, net.now());
        assert_eq!(resolver.cache_config(), widened);

        // Age 100 was past the old stale horizon (60+30); under the new
        // knobs it is a stale serve — no generation on the query path.
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
        let next = test_config().with_ttl(Ttl::from_secs(300));
        let now = twins.nets[0].now();
        twins.each(|resolver, _| resolver.apply_config(next, now));

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

    /// The domains of a [`doh_world`].
    const WORLD: [&str; 4] = ["a.test", "b.test", "c.test", "d.test"];

    /// A simulated net with three DoH resolvers over a zone publishing two
    /// addresses for each of [`WORLD`], `registered` of them reachable, and
    /// a front end fanning out to all three: real exchanges, with latency
    /// and randomness drawn from the seeded net.
    fn doh_world(
        seed: u64,
        registered: usize,
        pool: PoolConfig,
        cache: CacheConfig,
    ) -> (SimNet, CachingPoolResolver) {
        use sdoh_dns_server::{Authority, Catalog, Zone};
        let net = SimNet::new(seed);
        let infos = sdoh_doh::ResolverDirectory::well_known(seed).take(3);
        let mut zone = Zone::new("test".parse().unwrap());
        for domain in WORLD {
            for last in 1..=2 {
                zone.add_address(domain.parse().unwrap(), ip(last));
            }
        }
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        for info in infos.iter().take(registered) {
            net.register(
                info.addr,
                sdoh_doh::DohServerService::new(info.clone(), Authority::new(catalog.clone())),
            );
        }
        let sources: Vec<Box<dyn AddressSource>> = infos
            .iter()
            .map(|info| {
                Box::new(crate::source::DohSource::new(info.clone())) as Box<dyn AddressSource>
            })
            .collect();
        let generator = SecurePoolGenerator::new(pool, sources).unwrap();
        (net, CachingPoolResolver::new(generator, cache))
    }

    fn client(net: &SimNet) -> ClientExchanger<'_> {
        ClientExchanger::new(net, SimAddr::v4(10, 0, 0, 1, 40000))
    }

    /// Every transmit the live flights hand out before they wait.
    fn transmits(
        resolver: &mut CachingPoolResolver,
        now: SimInstant,
    ) -> Vec<(FlightId, TransactionId, ExchangeRequest)> {
        let mut out = Vec::new();
        loop {
            match resolver.poll(now) {
                ServeStep::Transmit {
                    flight,
                    transaction,
                    request,
                } => out.push((flight, transaction, request)),
                ServeStep::Wait(_) => return out,
                ServeStep::Landed(landed) => panic!("nothing was landed yet: {landed:?}"),
            }
        }
    }

    /// Performs `sent` one exchange at a time, in the order given, landing
    /// each outcome as it comes back.
    fn exchange_and_land(
        resolver: &mut CachingPoolResolver,
        exchanger: &mut dyn Exchanger,
        sent: impl IntoIterator<Item = (FlightId, TransactionId, ExchangeRequest)>,
    ) {
        for (flight, transaction, request) in sent {
            let reply = exchanger.exchange(
                request.dst,
                request.channel,
                &request.payload,
                request.timeout,
            );
            resolver.land(flight, transaction, reply).unwrap();
        }
    }

    #[test]
    fn live_flights_hand_out_all_transmits_before_waiting() {
        // Two cold domains over three DoH resolvers: all six exchanges are
        // offered before the first Wait, so one batch overlaps the two
        // generations — and their outcomes may come back in any order.
        let (net, mut resolver) = doh_world(41, 3, PoolConfig::algorithm1(), test_config());
        let mut exchanger = client(&net);
        let mut out = Vec::new();
        let a = resolver
            .begin(&mut exchanger, &query(1, "a.test"), &mut out)
            .unwrap()
            .expect("a miss");
        let b = resolver
            .begin(&mut exchanger, &query(2, "b.test"), &mut out)
            .unwrap()
            .expect("a miss");
        assert!(out.is_empty(), "a parked query is not answered yet");
        assert_eq!(resolver.snapshot().live_generations, 2);

        let sent = transmits(&mut resolver, net.now());
        assert_eq!(sent.len(), 6, "2 flights x 3 resolvers");
        assert_eq!(sent.iter().filter(|(flight, ..)| *flight == a).count(), 3);
        assert!(matches!(resolver.poll(net.now()), ServeStep::Wait(None)));

        // Last sent, first landed: across the flights and within each.
        exchange_and_land(&mut resolver, &mut exchanger, sent.into_iter().rev());
        // They land in the order they opened, whatever order that was.
        let landed = land_everything(&mut resolver, &mut exchanger, Landing::Delivery);
        let order: Vec<FlightId> = landed.iter().map(|landed| landed.flight).collect();
        assert_eq!(order, vec![a, b]);
        for (landed, query) in landed.iter().zip([query(1, "a.test"), query(2, "b.test")]) {
            landed.answer_wire(&query, &mut out).unwrap();
            let answer = Message::decode(&out).unwrap();
            assert!(answer.answers_query(&query));
            assert_eq!(answer.answer_addresses().len(), 6);
        }
        let metrics = resolver.metrics();
        assert_eq!((metrics.generations, metrics.source_answers), (2, 6));
        assert_eq!(resolver.snapshot().live_generations, 0);
        assert_eq!(resolver.snapshot().entries, 2);
    }

    #[test]
    fn a_miss_joins_the_live_flight_and_a_landed_key_opens_a_fresh_one() {
        // TTL zero: nothing is cached, so only a *live* flight is shared.
        let (net, mut resolver) = doh_world(
            42,
            3,
            PoolConfig::algorithm1(),
            test_config().with_ttl(Ttl::ZERO),
        );
        let mut exchanger = client(&net);
        let mut out = Vec::new();
        let mut begin = |resolver: &mut CachingPoolResolver, id: u16| {
            resolver
                .begin(&mut client(&net), &query(id, "a.test"), &mut out)
                .unwrap()
                .expect("nothing is ever cached")
        };
        let first = begin(&mut resolver, 1);
        // Joined before anything was sent, and again with it upstream.
        assert_eq!(begin(&mut resolver, 2), first);
        let sent = transmits(&mut resolver, net.now());
        assert_eq!(begin(&mut resolver, 3), first);
        assert!(
            transmits(&mut resolver, net.now()).is_empty(),
            "a join sends nothing"
        );
        exchange_and_land(&mut resolver, &mut exchanger, sent);
        // Still live until polled: the outcomes are in, the landing is not.
        assert_eq!(begin(&mut resolver, 4), first);
        let landed = land_everything(&mut resolver, &mut exchanger, Landing::Delivery);
        assert_eq!(landed.len(), 1);
        assert_eq!(landed[0].flight, first);
        let metrics = resolver.metrics();
        assert_eq!((metrics.misses, metrics.coalesced_waiters), (4, 3));
        assert_eq!((metrics.generations, metrics.source_answers), (1, 3));

        // Landed: the next miss for the key leads a flight of its own.
        let second = begin(&mut resolver, 5);
        assert_ne!(second, first);
        assert_eq!(resolver.metrics().coalesced_waiters, 3);
        assert_eq!(
            land_everything(&mut resolver, &mut exchanger, Landing::Delivery).len(),
            1
        );
        assert_eq!(resolver.metrics().generations, 2);
    }

    #[test]
    fn land_refuses_what_it_does_not_know() {
        let (net, mut resolver) = doh_world(43, 3, PoolConfig::algorithm1(), test_config());
        let mut exchanger = client(&net);
        let flight = resolver
            .begin(&mut exchanger, &query(1, "a.test"), &mut Vec::new())
            .unwrap()
            .unwrap();
        let sent = transmits(&mut resolver, net.now());
        let (_, transaction, _) = sent[0];
        let landed = land_everything(&mut resolver, &mut exchanger, Landing::Delivery);
        assert_eq!(landed.len(), 0, "its transmits were handed out above");
        // Delivered twice: refused, and the flight is none the worse.
        resolver.land(flight, transaction, Ok(Vec::new())).unwrap();
        assert!(matches!(
            resolver.land(flight, transaction, Ok(Vec::new())),
            Err(PoolError::TransactionNotInFlight(_))
        ));
        for &(flight, transaction, _) in &sent[1..] {
            resolver.land(flight, transaction, Ok(Vec::new())).unwrap();
        }
        let landed = land_everything(&mut resolver, &mut exchanger, Landing::Delivery);
        assert_eq!(landed.len(), 1, "three undecodable replies: it failed");
        // Landed flights take nothing more.
        assert_eq!(
            resolver.land(flight, transaction, Ok(Vec::new())),
            Err(PoolError::UnknownFlight(flight.number()))
        );
        assert_eq!(resolver.metrics().generation_failures, 1);
    }

    #[test]
    fn a_refresh_in_flight_is_not_queued_again_and_a_miss_joins_it() {
        // Stale window 30 s after a 60 s TTL.
        let (net, mut resolver) = doh_world(44, 3, PoolConfig::algorithm1(), test_config());
        let mut exchanger = client(&net);
        let mut out = Vec::new();
        resolver.handle_query(&mut exchanger, &query(1, "a.test"));
        net.clock().advance(Duration::from_secs(70));
        assert_eq!(
            resolver.begin(&mut exchanger, &query(2, "a.test"), &mut out),
            Ok(None)
        );
        assert_eq!(resolver.pending_refreshes(), 1, "the stale serve queued it");
        assert_eq!(resolver.begin_due_refreshes(&mut exchanger), 1);
        let sent = transmits(&mut resolver, net.now());
        assert_eq!(sent.len(), 3);
        assert_eq!(resolver.pending_refreshes(), 0);

        // Stale serves that overlap the refresh do not queue another...
        assert_eq!(
            resolver.begin(&mut exchanger, &query(3, "a.test"), &mut out),
            Ok(None)
        );
        assert_eq!(resolver.metrics().stale_serves, 2);
        assert_eq!(resolver.pending_refreshes(), 0);
        assert_eq!(resolver.begin_due_refreshes(&mut exchanger), 0);
        // ...and a query that finds the entry gone past its stale window
        // joins the refresh instead of opening a second generation.
        net.clock().advance(Duration::from_secs(25));
        let joined = resolver
            .begin(&mut exchanger, &query(4, "a.test"), &mut out)
            .unwrap()
            .expect("a miss");
        assert_eq!(joined, sent[0].0);
        assert_eq!(resolver.metrics().coalesced_waiters, 1);

        exchange_and_land(&mut resolver, &mut exchanger, sent);
        let landed = land_everything(&mut resolver, &mut exchanger, Landing::Delivery);
        assert_eq!(landed.len(), 1);
        landed[0]
            .answer_wire(&query(4, "a.test"), &mut out)
            .unwrap();
        assert_eq!(Message::decode(&out).unwrap().answer_addresses().len(), 6);
        let metrics = resolver.metrics();
        assert_eq!((metrics.generations, metrics.refreshes), (2, 1));
    }

    #[test]
    fn extracting_a_key_with_a_live_flight_leaves_the_flight_to_land() {
        let (net, mut resolver) = doh_world(45, 3, PoolConfig::algorithm1(), test_config());
        let mut exchanger = client(&net);
        resolver.handle_query(&mut exchanger, &query(1, "a.test"));
        net.clock().advance(Duration::from_secs(70));
        resolver.handle_query(&mut exchanger, &query(2, "a.test"));
        assert_eq!(resolver.begin_due_refreshes(&mut exchanger), 1);
        // The entry moves away with its refresh upstream.
        let moved = resolver.extract_entries(|_| true);
        assert_eq!(moved.len(), 1);
        assert_eq!(resolver.snapshot().entries, 0);
        assert_eq!(resolver.snapshot().live_generations, 1);
        // The flight lands where it took off, and is what a second
        // extraction hands on.
        let landed = land_everything(&mut resolver, &mut exchanger, Landing::Delivery);
        assert_eq!(landed.len(), 1);
        assert_eq!(resolver.snapshot().live_generations, 0);
        assert_eq!(resolver.extract_entries(|_| true).len(), 1);
    }

    #[test]
    fn a_source_swap_mid_flight_lands_on_the_old_set() {
        let (net, mut resolver) = doh_world(46, 3, PoolConfig::algorithm1(), test_config());
        let mut exchanger = client(&net);
        let mut out = Vec::new();
        resolver
            .begin(&mut exchanger, &query(1, "a.test"), &mut out)
            .unwrap()
            .expect("a miss");
        let one: Vec<Box<dyn AddressSource>> =
            vec![Box::new(StaticSource::answering("only", vec![ip(9)]))];
        resolver.generator_mut().replace_sources(one).unwrap();
        // The flight left over three resolvers and comes back over them.
        let landed = land_everything(&mut resolver, &mut exchanger, Landing::Reverse);
        landed[0]
            .answer_wire(&query(1, "a.test"), &mut out)
            .unwrap();
        assert_eq!(Message::decode(&out).unwrap().answer_addresses().len(), 6);
        assert_eq!(resolver.metrics().source_answers, 3);
        // The next generation runs over the new set.
        let next = resolver.handle_query(&mut exchanger, &query(2, "b.test"));
        assert_eq!(next.answer_addresses(), vec![ip(9)]);
    }

    #[test]
    fn a_refresh_batch_still_costs_one_round_trip() {
        // Four keys stale together: `run_due_refreshes` opens four flights
        // and their twelve exchanges share one `exchange_all` batch.
        let (net, mut resolver) = doh_world(47, 3, PoolConfig::algorithm1(), test_config());
        let mut exchanger = client(&net);
        let started = net.now();
        resolver.handle_query(&mut exchanger, &query(1, WORLD[0]));
        let one_generation = net.now().saturating_duration_since(started);
        for (id, domain) in (2..).zip(&WORLD[1..]) {
            resolver.handle_query(&mut exchanger, &query(id, domain));
        }
        net.clock().advance(Duration::from_secs(70));
        for (id, domain) in (10..).zip(WORLD) {
            resolver.handle_query(&mut exchanger, &query(id, domain));
        }
        assert_eq!(resolver.pending_refreshes(), 4);
        let started = net.now();
        assert_eq!(resolver.run_due_refreshes(&mut exchanger), 4);
        let batch = net.now().saturating_duration_since(started);
        assert!(
            batch < one_generation * 2,
            "{batch:?} vs {one_generation:?}"
        );
        let metrics = resolver.metrics();
        assert_eq!((metrics.refreshes, metrics.source_answers), (4, 24));
        assert_eq!(resolver.run_due_refreshes(&mut exchanger), 0);
    }

    mod properties {
        use super::super::{answer_template, pool_response};
        use super::{client, doh_world, land_everything, query, test_config, Landing, WORLD};
        use crate::config::CombinationMode;
        use crate::config::PoolConfig;
        use crate::generator::GenerationReport;
        use crate::pool::AddressPool;
        use crate::serve::AddressFamily;
        use proptest::prelude::*;
        use sdoh_dns_server::QueryHandler;
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

            /// Stepwise and blocking are one path: the same queries, clock
            /// advances and refresh pumps through `handle_query_wire` /
            /// `run_due_refreshes` on one resolver and through begin / poll
            /// / land on its twin (identically seeded nets, real DoH
            /// exchanges, a cache small enough to evict) give byte-identical
            /// answers and equal counters — whatever order the outcomes of a
            /// batch are landed in, across flights and within them.
            #[test]
            fn stepwise_and_blocking_serve_the_same_bytes(
                ops in proptest::collection::vec((0u8..6, any::<u16>()), 1..40),
                seed in any::<u64>(),
                landing in 0u8..3,
                dead in any::<bool>(),
            ) {
                let landing = [Landing::Delivery, Landing::Reverse, Landing::Interleaved]
                    [usize::from(landing)];
                // A dead fleet: two of three resolvers unreachable, two
                // answers required — every generation fails and is
                // remembered for five seconds.
                let (registered, pool) = if dead {
                    (1, PoolConfig {
            min_responses: 2,
            ..PoolConfig::algorithm1()
        })
                } else {
                    (3, PoolConfig::algorithm1())
                };
                let cache = test_config().with_capacity(3);
                let (blocking_net, mut blocking) = doh_world(seed, registered, pool.clone(), cache);
                let (stepwise_net, mut stepwise) = doh_world(seed, registered, pool, cache);
                let (mut expected, mut out) = (Vec::new(), Vec::new());
                for (at, (kind, param)) in ops.into_iter().enumerate() {
                    match kind {
                        // Queries dominate, like real traffic.
                        0..=3 => {
                            let domain = WORLD[usize::from(param) % WORLD.len()];
                            let query = query(at as u16, domain);
                            blocking
                                .handle_query_wire(&mut client(&blocking_net), &query, &mut expected)
                                .unwrap();
                            let mut exchanger = client(&stepwise_net);
                            if let Some(flight) =
                                stepwise.begin(&mut exchanger, &query, &mut out).unwrap()
                            {
                                let landed = land_everything(&mut stepwise, &mut exchanger, landing);
                                prop_assert_eq!(landed.len(), 1);
                                prop_assert_eq!(landed[0].flight, flight);
                                landed[0].answer_wire(&query, &mut out).unwrap();
                            }
                            prop_assert_eq!(&out, &expected);
                        }
                        4 => {
                            let secs = std::time::Duration::from_secs(u64::from(param % 45));
                            blocking_net.clock().advance(secs);
                            stepwise_net.clock().advance(secs);
                        }
                        _ => {
                            let ran = blocking.run_due_refreshes(&mut client(&blocking_net));
                            let mut exchanger = client(&stepwise_net);
                            prop_assert_eq!(stepwise.begin_due_refreshes(&mut exchanger), ran);
                            let landed = land_everything(&mut stepwise, &mut exchanger, landing);
                            prop_assert_eq!(landed.len(), ran);
                        }
                    }
                    // Every counter: which entry a full cache evicts is
                    // a function of its history, so even the split between
                    // `evictions` and `expirations` is the same.
                    prop_assert_eq!(stepwise.snapshot(), blocking.snapshot());
                    prop_assert_eq!(stepwise.next_refresh_due(), blocking.next_refresh_due());
                    prop_assert_eq!(stepwise_net.now(), blocking_net.now());
                }
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
