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
//! already in flight for it (found in the resolver's key index), and
//! expired entries within the stale window are served immediately while
//! a background refresh — queued by the stale serve, due at once, and
//! opened by the driver via [`CachingPoolResolver::begin_due_refreshes`]
//! (or [`CachingPoolResolver::run_due_refreshes`]) — regenerates the pool
//! off the query path. The amortised cost of serving a domain drops from one
//! generation per query to one generation per TTL window; the
//! generation-per-query front end is the same resolver under
//! [`CacheConfig::uncached`].
//!
//! A generation is a piece of data the resolver owns, not a call it sits
//! inside, and so is what it has upstream: [`CachingPoolResolver::begin`],
//! [`CachingPoolResolver::poll`] and [`CachingPoolResolver::arrive`] never
//! wait, and the blocking entry points are the same steps, each batch
//! completed inside the call through [`Exchanger::exchange_all`] (see the
//! [module documentation](super), "The miss path").
//!
//! Every answer still comes out of a real [`GenerationReport`] produced by
//! the paper's secure generation procedure, so the benign-fraction
//! guarantee of served pools is exactly the guarantee of the underlying
//! generation — caching changes *when* pools are generated, never *what*
//! is served.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use sdoh_dns_server::{Departure, ExchangeRequest, Exchanger, QueryHandler};
use sdoh_dns_wire::{
    AnswerTemplate, Header, Message, MessageBuilder, NameRef, QueryView, Question, QuestionRef,
    Rcode, Record, RrType, Ttl, WireResult,
};

use super::cache::{
    answer_template, AddressFamily, CacheConfig, CacheLookup, CacheMetrics, CachedPool, LentKey,
    PoolCache, PoolKey, QueryKey,
};
use super::samples::{GENERATION_SECONDS, SERVE_COUNTERS};
use crate::generator::{seed_from, GenerationReport, SecurePoolGenerator};
use crate::session::{Action, PoolSession, TransactionId};
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
}

/// One **consistent** observation of a [`CachingPoolResolver`]'s state,
/// taken by [`CachingPoolResolver::snapshot`].
///
/// All five readings come from the same `&self` borrow, so no query can be
/// counted in one field but not yet in another — the invariants between the
/// counters (e.g. `serve.queries` equals the sum of hits, negative hits,
/// stale serves and misses) hold within a snapshot. This is what a runtime
/// should take once per statistics request instead of reading the metrics
/// field by field across several calls.
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
    /// fleet-wide snapshot. Counters, gauges and the total latency sum;
    /// `serve.last_generation_latency` keeps the largest value (the slowest
    /// shard's most recent generation).
    pub fn absorb(&mut self, other: &ServeSnapshot) {
        let mut other = *other;
        for (_, _, field) in SERVE_COUNTERS {
            *field(self) += *field(&mut other);
        }
        self.serve.last_generation_latency = self
            .serve
            .last_generation_latency
            .max(other.serve.last_generation_latency);
        self.serve.total_generation_latency += other.serve.total_generation_latency;
        self.entries += other.entries;
        self.pending_refreshes += other.pending_refreshes;
        self.live_generations += other.live_generations;
    }

    /// Metric names of the monotone counters that *decreased* between
    /// `earlier` and `self` — empty for any legal pair of successive
    /// snapshots of the same resolver.
    ///
    /// `entries`, `pending_refreshes` and `live_generations` are gauges and
    /// legitimately shrink;
    /// `serve.last_generation_latency` is a latest-value reading. Every
    /// other field is a cumulative counter, and a regression means state was
    /// lost or observed inconsistently — the monotonicity invariant chaos
    /// campaigns check after every step.
    pub fn regressions(&self, earlier: &ServeSnapshot) -> Vec<&'static str> {
        let (mut now, mut then) = (*self, *earlier);
        let mut regressed: Vec<&'static str> = SERVE_COUNTERS
            .iter()
            .filter(|(_, _, field)| *field(&mut now) < *field(&mut then))
            .map(|(name, _, _)| *name)
            .collect();
        if self.serve.total_generation_latency < earlier.serve.total_generation_latency {
            regressed.push(GENERATION_SECONDS.0);
        }
        regressed
    }
}

/// The addresses of `report`'s pool a query of `rtype` is answered with:
/// only those of the queried family (even when the generator is configured
/// for dual-stack union), in pool order.
fn pool_addresses(
    report: &GenerationReport,
    rtype: RrType,
) -> impl Iterator<Item = std::net::IpAddr> + '_ {
    report
        .pool
        .iter()
        .map(|entry| entry.address)
        .filter(move |address| match rtype {
            RrType::A => address.is_ipv4(),
            RrType::Aaaa => address.is_ipv6(),
            _ => false,
        })
}

/// Builds the DNS response serving `report`'s pool for `query`'s question
/// with the given answer TTL.
fn pool_response(query: &Message, report: &GenerationReport, ttl: Ttl) -> Message {
    let mut builder = MessageBuilder::response_to(query).recursion_available(true);
    if let Some(question) = query.question() {
        for address in pool_addresses(report, question.rtype) {
            builder = builder.answer(Record::address(
                question.name.clone(),
                ttl.as_secs(),
                address,
            ));
        }
    }
    builder.build()
}

/// What one query is answered with, before it takes the caller's form.
enum Served<'a> {
    /// Refused at the protocol level, with this response code.
    Rejected(Rcode),
    /// A pool, lent by the cache entry (or the landed generation) it came
    /// from together with its pre-encoded answer.
    Pool {
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
            Served::Rejected(rcode) => Message::error_response(query, rcode),
            Served::Pool { report, ttl, .. } => pool_response(query, report, ttl),
            Served::Failure => Message::error_response(query, Rcode::ServFail),
        }
    }

    /// The answer in wire form, written from the query where it lies: a
    /// pool is rendered from its pre-encoded answer section, and what the
    /// template cannot reproduce byte for byte — an error, a query of
    /// several questions or of the root — is written by the view
    /// ([`QueryView::write_response`]). Either way the bytes are
    /// [`Served::message`]'s, encoded, and no `Message` is built.
    fn wire(self, query: &QueryView<'_>, out: &mut Vec<u8>) -> WireResult<()> {
        let response = Header::response_to(query.header());
        let rcode = match self {
            Served::Pool {
                report,
                template,
                ttl,
            } => {
                if template.render(query, ttl.as_secs(), out) {
                    return Ok(());
                }
                let rtype = query.question().map_or(RrType::A, |q| q.rtype);
                let answered = Header {
                    recursion_available: true,
                    ..response
                };
                let addresses = pool_addresses(report, rtype);
                return query.write_response(answered, ttl.as_secs(), addresses, out);
            }
            Served::Rejected(rcode) => rcode,
            Served::Failure => Rcode::ServFail,
        };
        query.write_response(Header { rcode, ..response }, 0, [], out)
    }
}

/// Identifies one live generation of a [`CachingPoolResolver`], from the
/// miss parked on it to its landing. Ids grow in opening order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlightId(usize);

/// A DNS query handler serving secure pools through the caching subsystem.
///
/// See the module documentation for the serving model.
pub struct CachingPoolResolver {
    generator: SecurePoolGenerator,
    cache: PoolCache,
    /// What each key has upstream, found by one hash from a lent name.
    /// Beside the cache: a cold key has no entry there, and a hit never
    /// looks here. Never iterated.
    keys: HashMap<PoolKey, Upstream>,
    flights: Flights,
    /// The first id `poll` has not reached yet.
    unpolled: usize,
    /// The flights an outcome reached since they were polled, last first.
    reached: Vec<FlightId>,
    /// The refreshes stale serves queued, in queueing order, and how many
    /// are not cancelled since.
    refreshes: Vec<PoolKey>,
    queued: usize,
    metrics: ServeMetrics,
    /// The batches upstream, in due order.
    upstream: VecDeque<Batch>,
    /// The next batch, gathered until it departs: its requests, and by
    /// request index the flight and transaction each outcome lands under.
    /// The tags reuse the widest landed batch's buffer.
    requests: Vec<ExchangeRequest>,
    tags: Vec<(FlightId, TransactionId)>,
}

/// A key's live flight and place in the refresh queue, while either is.
#[derive(Default)]
struct Upstream {
    flight: Option<FlightId>,
    refresh: Option<usize>,
}

/// One batch upstream: the send half's receipt and, by request index, the
/// flight and transaction each outcome lands under.
struct Batch {
    departure: Departure,
    tags: Vec<(FlightId, TransactionId)>,
}

impl Batch {
    /// When its replies can be collected.
    fn ready_at(&self) -> SimInstant {
        #[cfg(test)]
        super::tests::visits::batch();
        self.departure.ready_at()
    }
}

/// The live flights, found by id with no search: ids grow in opening
/// order, and flight `id` sits `id - first` places from the front.
#[derive(Default)]
struct Flights {
    /// A landed flight's place stays empty until every older one's is.
    places: VecDeque<Option<Flight>>,
    first: usize,
    live: usize,
}

impl Flights {
    /// The id the next flight opens under.
    fn next(&self) -> FlightId {
        FlightId(self.first + self.places.len())
    }

    fn open(&mut self, flight: Flight) {
        self.places.push_back(Some(flight));
        self.live += 1;
    }

    fn place(&mut self, id: FlightId) -> Option<&mut Option<Flight>> {
        #[cfg(test)]
        super::tests::visits::flight();
        self.places.get_mut(id.0.checked_sub(self.first)?)
    }

    /// Takes flight `id` out, and the emptied places off the front.
    fn land(&mut self, id: FlightId) -> Option<Flight> {
        let flight = self.place(id)?.take()?;
        self.live -= 1;
        while self.places.pop_front_if(|place| place.is_none()).is_some() {
            self.first += 1;
        }
        Some(flight)
    }
}

/// One live generation: the per-generation machine, what landing it needs.
struct Flight {
    session: PoolSession,
    started: SimInstant,
    /// Opened for a queued refresh, not by a query.
    refresh: bool,
    /// With the name its session lends, the key of its index entry.
    family: AddressFamily,
}

impl LentKey for Flight {
    fn domain(&self) -> NameRef<'_> {
        self.session.domain()
    }

    fn family(&self) -> AddressFamily {
        self.family
    }
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
    /// What a query parked on this flight is answered with: the pool, or
    /// SERVFAIL for a generation that failed (or a query without a
    /// question, which never parks).
    fn served(&self, asked: bool) -> Served<'_> {
        match (&self.result, &self.template, asked) {
            (Ok(report), Some(template), true) => Served::Pool {
                report,
                template,
                ttl: self.ttl,
            },
            _ => Served::Failure,
        }
    }

    /// Renders the answer to `query` — one that was parked on this flight,
    /// read where its octets lie — into `out`: the pool under the
    /// configured TTL, or SERVFAIL for a generation that failed.
    ///
    /// # Errors
    ///
    /// The response's encoding error; `out` is left empty.
    pub fn answer_wire(&self, query: &QueryView<'_>, out: &mut Vec<u8>) -> WireResult<()> {
        self.served(query.question().is_some()).wire(query, out)
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
            keys: HashMap::new(),
            flights: Flights::default(),
            unpolled: 0,
            reached: Vec::new(),
            refreshes: Vec::new(),
            queued: 0,
            metrics: ServeMetrics::default(),
            upstream: VecDeque::new(),
            requests: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Retunes the serving knobs at once: entries keep their stamps, stale
    /// serving stays bounded by the max of the old and new horizons, and a
    /// shrunken capacity evicts the surplus immediately.
    ///
    /// This is the per-shard half of hot reconfiguration: a control plane
    /// validates the new knobs once ([`CacheConfig::validate`]) and hands
    /// the same value to every shard's resolver under the shard's lock.
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
    /// any queued refresh for an extracted key (the cache that installs it
    /// re-queues one on its own stale serve). Its callers are the
    /// benchmark's serve-layer timings and tests, which stamp an entry
    /// stale and hand it back through
    /// [`install_entry`](CachingPoolResolver::install_entry). A generation
    /// in flight for an extracted key is not part of the extraction: it
    /// lands here, answers the queries parked on it and caches its pool
    /// here.
    pub fn extract_entries(
        &mut self,
        predicate: impl FnMut(&PoolKey) -> bool,
    ) -> Vec<(PoolKey, CachedPool)> {
        let moved = self.cache.extract_matching(predicate);
        for (key, _) in &moved {
            match self.keys.get_mut(key) {
                Some(Upstream { flight: None, .. }) => drop(self.release(key)),
                Some(upstream) => self.queued -= usize::from(upstream.refresh.take().is_some()),
                None => {}
            }
        }
        moved
    }

    /// Adopts an entry [`extract_entries`](CachingPoolResolver::extract_entries)
    /// handed out, from this cache or another: stamps and re-asked bit are
    /// preserved (the wire-form answer is rebuilt from the report, and a
    /// hot pool stays ranked above the receiver's once-asked entries),
    /// dead-on-arrival entries are dropped, and an existing
    /// at-least-as-fresh entry wins — so a key is never owned by two
    /// entries and an install never clobbers a newer generation. Its
    /// callers are the benchmark's serve-layer timings and tests. Returns
    /// whether the entry was installed.
    pub fn install_entry(&mut self, key: PoolKey, cached: CachedPool, now: SimInstant) -> bool {
        self.cache.install(key, cached, now)
    }

    /// Probes every cache entry at instant `now`, sorted by key, without
    /// touching eviction state or counters: the per-entry age/liveness
    /// surface invariant monitors check.
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
            pending_refreshes: self.queued,
            live_generations: self.live_generations(),
        }
    }

    /// [`ServeSnapshot::live_generations`], read alone.
    pub fn live_generations(&self) -> usize {
        self.flights.live
    }

    /// Whether a driver has anything to do before it may wait until
    /// [`next_arrival`](CachingPoolResolver::next_arrival): a queued refresh
    /// to open (a stale serve queues one, due at once:
    /// [`begin_due_refreshes`](CachingPoolResolver::begin_due_refreshes) or
    /// [`run_due_refreshes`](CachingPoolResolver::run_due_refreshes) opens
    /// it), or a flight opened since the last
    /// [`poll`](CachingPoolResolver::poll) reached it, whose requests are
    /// still to depart. A step that answered from the cache, joined a live
    /// flight or was answered on the spot leaves it as it was.
    // sdoh-lint: entry(transitive-hot-path-purity, "behind `ShardMachine::pump`'s pruning boundary, yet its first check asks this at the end of every step, cache hits included")
    pub fn has_work(&self) -> bool {
        self.unpolled < self.flights.next().0 || self.queued > 0
    }

    /// When the earliest batch upstream can be collected with
    /// [`arrive`](CachingPoolResolver::arrive) — the instant a driver that
    /// owns its waiting waits until — or `None` when nothing is upstream.
    /// The first of the batches, kept in due order: asking walks nothing.
    // sdoh-lint: entry(transitive-hot-path-purity, "behind `ShardMachine::pump`'s pruning boundary, yet its first check holds this against one clock reading at the end of every step, cache hits included")
    pub fn next_arrival(&self) -> Option<SimInstant> {
        self.upstream.front().map(Batch::ready_at)
    }

    /// Runs every queued refresh as one overlapped generation batch, off
    /// any client's query path. Returns how many refreshes ran.
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
    /// The query is lent, read where its octets lie: a hit copies no name
    /// and builds no message, and only a miss that opens a flight makes an
    /// owned copy of the name, for the key it stores.
    ///
    /// Do not call the blocking entry points while queries are parked: they
    /// drive every live flight and keep its landing to themselves, and a
    /// flight whose batch `poll` departed lands only once it is due.
    ///
    /// # Errors
    ///
    /// The encoding error of an answer given on the spot; `out` is left
    /// empty.
    // sdoh-lint: entry(transitive-hot-path-purity, "the step every query a shard serves is answered through, cache hits included")
    pub fn begin(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &QueryView<'_>,
        out: &mut Vec<u8>,
    ) -> WireResult<Option<FlightId>> {
        match self.begin_with(exchanger, query.question(), |served| {
            served.wire(query, out)
        }) {
            Begun::Answered(rendered) => rendered.map(|()| None),
            Begun::Parked(flight) => Ok(Some(flight)),
        }
    }

    /// The other way a flight opens: one for every queued refresh, in
    /// queueing order — a key whose generation is already in flight is
    /// being refreshed by it. Returns how many flights were opened;
    /// [`poll`](CachingPoolResolver::poll) departs their requests with
    /// everyone else's. Only `exchanger`'s clock and randomness are used.
    pub fn begin_due_refreshes(&mut self, exchanger: &mut dyn Exchanger) -> usize {
        // Taken whole, and its buffer handed back empty (opening a flight
        // queues nothing), so a stale serve queues without allocating.
        let mut due = std::mem::take(&mut self.refreshes);
        let mut opened = 0;
        for (at, key) in due.drain(..).enumerate() {
            // A cancelled refresh's key no longer names its place.
            let queued = self.keys.get_mut(&key).filter(|up| up.refresh == Some(at));
            let Some(upstream) = queued else { continue };
            upstream.refresh = None;
            self.queued -= 1;
            if upstream.flight.is_none() && self.open_flight(exchanger, key, true).is_some() {
                opened += 1;
            }
        }
        self.refreshes = due;
        opened
    }

    /// Second step: polls the flights with work — opened, or reached by an
    /// outcome, since the last poll — in opening order, and reports the
    /// first whose exchanges are all in as [`Landed`]: answer every query
    /// parked under [`Landed::flight`]. Call it until it says `None`, which
    /// means wait: on the way there what they have to send departs as one
    /// batch through `exchanger`'s send half ([`Exchanger::depart`]), which
    /// overlaps not only the N exchanges of a generation but the
    /// generations of different keys, and only the batches upstream move a
    /// flight, from [`next_arrival`](CachingPoolResolver::next_arrival) on.
    /// `exchanger`'s clock stamps what lands.
    pub fn poll(&mut self, exchanger: &mut dyn Exchanger) -> Option<Landed> {
        self.advance(exchanger, |exchanger, requests| exchanger.depart(requests))
    }

    /// Third step: collects the batches due at `exchanger`'s clock, off the
    /// front of the due-ordered queue, through its collect half
    /// ([`Exchanger::arrive`]), and hands each outcome to its flight, in any
    /// order; the next [`poll`](CachingPoolResolver::poll) reports the
    /// flights they completed, in opening order. Returns whether a batch
    /// arrived. With nothing upstream it reads no clock, and with nothing
    /// due it returns after one reading.
    pub fn arrive(&mut self, exchanger: &mut dyn Exchanger) -> bool {
        let Some(first) = self.upstream.front() else {
            return false;
        };
        let now = exchanger.now();
        if first.ready_at() > now {
            return false;
        }
        while let Some(Batch { departure, tags }) =
            self.upstream.pop_front_if(|batch| batch.ready_at() <= now)
        {
            for outcome in exchanger.arrive(departure) {
                // The tags are the resolver's own, and a flight is live
                // until its last outcome is in.
                let Some(&(id, transaction)) = tags.get(outcome.index) else {
                    continue;
                };
                if let Some(flight) = self.flights.place(id).and_then(Option::as_mut) {
                    let _ = flight.session.handle_response(transaction, outcome.result);
                    self.reached.push(id);
                }
            }
            if self.tags.is_empty() && tags.capacity() > self.tags.capacity() {
                self.tags = tags;
                self.tags.clear();
            }
        }
        self.reached.sort_unstable_by(|a, b| b.cmp(a));
        self.reached.dedup();
        true
    }

    /// [`poll`](CachingPoolResolver::poll), with `send` as the way a batch
    /// departs.
    fn advance(
        &mut self,
        exchanger: &mut dyn Exchanger,
        send: fn(&mut dyn Exchanger, Vec<ExchangeRequest>) -> Departure,
    ) -> Option<Landed> {
        loop {
            // A flight an outcome reached was polled before, so its id is
            // below every flight not polled yet: this is id order.
            let id = match self.reached.pop() {
                Some(id) => id,
                None if self.unpolled < self.flights.next().0 => FlightId(self.unpolled),
                None => break,
            };
            self.unpolled = self.unpolled.max(id.0 + 1);
            let Some(flight) = self.flights.place(id).and_then(Option::as_mut) else {
                continue;
            };
            loop {
                match flight.session.poll() {
                    Action::Transmit(transmit) => {
                        if self.requests.is_empty() {
                            // Sized for the widest batch yet and at least
                            // one generation's fan-out: one allocation for
                            // the requests, none for reused tags.
                            let width = self.tags.capacity().max(self.generator.width());
                            self.requests.reserve_exact(width);
                            self.tags.reserve_exact(width);
                        }
                        self.tags.push((id, transmit.transaction));
                        self.requests.push(transmit.request);
                    }
                    Action::Wait => break,
                    Action::Done => return self.land(id, exchanger.now()),
                }
            }
        }
        // Every flight with work was polled: what they had to send leaves
        // now, in due order behind the batches upstream.
        if !self.requests.is_empty() {
            let departure = send(exchanger, std::mem::take(&mut self.requests));
            let batch = Batch {
                departure,
                tags: std::mem::take(&mut self.tags),
            };
            let ready = batch.ready_at();
            let at = match self.upstream.back() {
                Some(last) if last.ready_at() > ready => self
                    .upstream
                    .partition_point(|ahead| ahead.ready_at() <= ready),
                _ => self.upstream.len(),
            };
            self.upstream.insert(at, batch);
        }
        None
    }

    /// Takes flight `id` out and books its generation.
    fn land(&mut self, id: FlightId, now: SimInstant) -> Option<Landed> {
        let flight = self.flights.land(id)?;
        let key = self.release(&flight).unwrap_or_else(|| flight.to_key());
        // What each source came to, per pass, read once the flight lands.
        let (answered, failed) = flight.session.outcome_counts();
        self.metrics.source_answers += answered;
        self.metrics.source_failures += failed;
        let result = flight.session.finish().map_err(|e| e.to_string());
        let template = self.record_generation(key, &result, flight.refresh, flight.started, now);
        Some(Landed {
            flight: id,
            result,
            template,
            ttl: self.cache.config().ttl,
        })
    }

    /// Takes `key`'s entry out of the index — its flight landed, or never
    /// opened — and cancels its queued refresh, a fan-out for nothing.
    fn release(&mut self, key: &dyn LentKey) -> Option<PoolKey> {
        let (key, upstream) = self.keys.remove_entry(key)?;
        self.queued -= usize::from(upstream.refresh.is_some());
        Some(key)
    }

    /// Validates the protocol-level shape of a query — its first question,
    /// as `asked` lends it — counting rejections.
    fn screen<'q>(&mut self, asked: Option<QuestionRef<'q>>) -> Result<QuestionRef<'q>, Rcode> {
        let Some(question) = asked else {
            self.metrics.rejected += 1;
            return Err(Rcode::FormErr);
        };
        if !question.rtype.is_address() {
            self.metrics.rejected += 1;
            return Err(Rcode::NotImp);
        }
        self.metrics.queries += 1;
        Ok(question)
    }

    /// Serves a query from the cache if possible, lending the entry out;
    /// `None` means the caller must generate (a miss). A stale hit is
    /// served at once with a zero TTL — clients may use it now but must
    /// not cache it onward — and a refresh of the entry's key is queued,
    /// unless one is queued already or the key's generation is in flight.
    fn lookup(&mut self, key: &QueryKey<'_>, now: SimInstant) -> Option<Served<'_>> {
        let (hit, ttl) = match self.cache.get(key, now) {
            CacheLookup::Fresh(hit) => {
                match hit.pool.value {
                    Ok(_) => self.metrics.hits += 1,
                    Err(_) => self.metrics.negative_hits += 1,
                }
                (hit, hit.pool.remaining(now))
            }
            CacheLookup::Stale(hit, stored) => {
                self.metrics.stale_serves += 1;
                if !self.keys.contains_key(stored) {
                    let refresh = Some(self.refreshes.len());
                    self.keys.insert(
                        stored.clone(),
                        Upstream {
                            flight: None,
                            refresh,
                        },
                    );
                    self.refreshes.push(stored.clone());
                    self.queued += 1;
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
                report,
                template,
                ttl,
            },
            _ => Served::Failure,
        })
    }

    /// [`begin`](CachingPoolResolver::begin) in the caller's form: `form`
    /// turns what was served into a [`Message`] or wire bytes, so both forms
    /// share every counter bump. `asked` is the query's first question,
    /// lent.
    fn begin_with<R>(
        &mut self,
        exchanger: &mut dyn Exchanger,
        asked: Option<QuestionRef<'_>>,
        form: impl FnOnce(Served<'_>) -> R,
    ) -> Begun<R> {
        let question = match self.screen(asked) {
            Ok(question) => question,
            Err(rcode) => return Begun::Answered(form(Served::Rejected(rcode))),
        };
        let Some(key) = QueryKey::for_question(question) else {
            // screen() only passes address-type questions, which always
            // map to a pool key; answer the theoretical gap gracefully.
            return Begun::Answered(form(Served::Failure));
        };
        if let Some(served) = self.lookup(&key, exchanger.now()) {
            return Begun::Answered(form(served));
        }
        let live = self.keys.get(&key as &dyn LentKey);
        if let Some(flight) = live.and_then(|upstream| upstream.flight) {
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
        asked: Option<QuestionRef<'_>>,
        mut form: impl FnMut(Served<'_>) -> R,
    ) -> R {
        let flight = match self.begin_with(exchanger, asked, &mut form) {
            Begun::Answered(answer) => return answer,
            Begun::Parked(flight) => flight,
        };
        match self.drive(exchanger, Some(flight)) {
            Some(landed) => form(landed.served(asked.is_some())),
            // Its batch left through `poll` and is not due yet.
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
        key: impl Into<PoolKey>,
        refresh: bool,
    ) -> Option<FlightId> {
        // The one copy of the name a miss makes, for the index and then the
        // cache (a refresh's key is the queue's).
        let key = key.into();
        let seed = seed_from(exchanger);
        let started = exchanger.now();
        match self.generator.session(&key.domain, seed) {
            Ok(session) => {
                let (id, family) = (self.flights.next(), key.family);
                self.keys.entry(key).or_default().flight = Some(id);
                self.flights.open(Flight {
                    session,
                    started,
                    refresh,
                    family,
                });
                Some(id)
            }
            Err(err) => {
                self.release(&key);
                self.record_generation(key, &Err(err.to_string()), refresh, started, started);
                None
            }
        }
    }

    /// Books one finished generation: the counters and the cache entry (a
    /// failure becomes a negative one). The result is copied only for a
    /// cache that keeps it. Returns a
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
        if self.cache.keeps(result) {
            let stored = self.cache.insert(key, result.clone(), now)?;
            stored.answer.cloned()
        } else {
            let report = result.as_ref().ok()?;
            Some(answer_template(key.family, report))
        }
    }

    /// The blocking driver of the steps: each batch departs completed
    /// ([`complete`]) and arrives at once, until `awaited` has landed — or,
    /// with nothing awaited, until nothing is left upstream.
    // sdoh-lint: allow(transitive-hot-path-purity, "the miss path on the query path: a blocking caller pays its generation here, its fan-out dwarfing these buffers; cache hits never enter")
    fn drive(
        &mut self,
        exchanger: &mut dyn Exchanger,
        awaited: Option<FlightId>,
    ) -> Option<Landed> {
        loop {
            match self.advance(exchanger, complete) {
                Some(landed) if Some(landed.flight) == awaited => return Some(landed),
                Some(_) => {}
                None if self.arrive(exchanger) => {}
                None => return None,
            }
        }
    }
}

/// How a batch departs from the blocking entry points: performed whole
/// through [`Exchanger::exchange_all`], inside the call, and ready as it
/// returns — whatever halves the exchanger has.
fn complete(exchanger: &mut dyn Exchanger, requests: Vec<ExchangeRequest>) -> Departure {
    let outcomes = exchanger.exchange_all(requests);
    Departure::arrived(exchanger.now(), outcomes)
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
    // sdoh-lint: entry(transitive-hot-path-purity, "the blocking entry point, reached through `dyn QueryHandler`, which call resolution does not follow")
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        let asked = query.question().map(Question::as_question_ref);
        self.serve(exchanger, asked, |served| served.message(query))
    }

    // sdoh-lint: entry(transitive-hot-path-purity, "the blocking wire entry point, reached through `dyn QueryHandler`, which call resolution does not follow")
    fn handle_query_wire(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &QueryView<'_>,
        out: &mut Vec<u8>,
    ) -> WireResult<Option<u32>> {
        self.serve(exchanger, query.question(), |served| {
            served.wire(query, out)
        })
        .map(|()| None)
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
            .field("pending_refreshes", &self.queued)
            .field("live_generations", &self.flights.live)
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use crate::fleet::{doh_sources, DohFleet};
    use crate::serve::tests::visits;
    use crate::source::{AddressSource, StaticSource};
    use sdoh_dns_server::{DnsClient, Do53Service, ExchangeOutcome, StubResolver};
    use sdoh_netsim::{Ctx, SimAddr, SimNet};
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

    /// An owned query's octets, for the steps that read a query where it
    /// lies.
    struct Lent(Vec<u8>);

    impl Lent {
        fn view(&self) -> QueryView<'_> {
            QueryView::parse(&self.0).unwrap()
        }
    }

    fn lent(query: &Message) -> Lent {
        Lent(query.encode().unwrap())
    }

    fn query(id: u16, domain: &str) -> Message {
        Message::query(id, domain.parse().unwrap(), RrType::A)
    }

    /// In which order [`Split`] hands a batch's outcomes back.
    #[derive(Debug, Clone, Copy)]
    enum Order {
        /// As the transport delivered them.
        Delivery,
        /// Last delivered first: across flights and within each.
        Reverse,
        /// Every second one first, then the rest: interleaves flights.
        Interleaved,
        /// As delivered, each followed by an empty reply under the same
        /// index, and then one under an index no request had.
        Garbled,
    }

    /// A way upstream with split halves over a simulated net, as a shard
    /// has: `depart` performs the batch on the net at once, but the clock
    /// the resolver reads stays where it was until [`Split::wait`], so the
    /// batch stays upstream across polls; `arrive` hands the outcomes back
    /// in `order`. The net sees every exchange as a blocking call makes it.
    struct Split<'n> {
        net: Ctx<'n>,
        order: Order,
        /// The net's clock as of the last wait.
        now: SimInstant,
        /// The width of each batch that departed, in departure order.
        departed: Vec<usize>,
    }

    impl<'n> Split<'n> {
        fn new(net: &'n SimNet, order: Order) -> Self {
            Split {
                net: client(net),
                order,
                now: net.now(),
                departed: Vec::new(),
            }
        }

        /// Waits until every batch departed so far is due.
        fn wait(&mut self) {
            self.now = self.net.now();
        }

        /// Drives `resolver` as a shard does — lands what is due, polls
        /// until it waits, waits until the next arrival — until nothing is
        /// upstream. Returns what landed, in landing order.
        fn drain(&mut self, resolver: &mut CachingPoolResolver) -> Vec<Landed> {
            let mut landed = Vec::new();
            loop {
                resolver.arrive(self);
                while let Some(flight) = resolver.poll(self) {
                    landed.push(flight);
                }
                if resolver.next_arrival().is_none() {
                    return landed;
                }
                self.wait();
            }
        }
    }

    impl Exchanger for Split<'_> {
        fn exchange(
            &mut self,
            dst: SimAddr,
            channel: sdoh_netsim::ChannelKind,
            payload: &[u8],
            timeout: Duration,
        ) -> sdoh_netsim::NetResult<Vec<u8>> {
            self.net.exchange(dst, channel, payload, timeout)
        }

        fn next_id(&mut self) -> u16 {
            self.net.next_id()
        }

        fn now(&self) -> SimInstant {
            self.now
        }

        fn depart(&mut self, requests: Vec<ExchangeRequest>) -> Departure {
            self.departed.push(requests.len());
            let outcomes = self.net.exchange_all(requests);
            Departure::arrived(self.net.now(), outcomes)
        }

        fn arrive(&mut self, departure: Departure) -> Vec<ExchangeOutcome> {
            let outcomes = departure.outcomes(|_| Vec::new());
            match self.order {
                Order::Delivery => outcomes,
                Order::Reverse => outcomes.into_iter().rev().collect(),
                Order::Interleaved => {
                    let (mut odd, mut even) = (Vec::new(), Vec::new());
                    for (at, outcome) in outcomes.into_iter().enumerate() {
                        if at % 2 == 1 { &mut odd } else { &mut even }.push(outcome);
                    }
                    odd.extend(even);
                    odd
                }
                Order::Garbled => {
                    let empty = |index| ExchangeOutcome {
                        index,
                        completed_at: self.now,
                        result: Ok(Vec::new()),
                    };
                    let unsent = outcomes.len();
                    let mut garbled = Vec::new();
                    for outcome in outcomes {
                        let index = outcome.index;
                        garbled.extend([outcome, empty(index)]);
                    }
                    garbled.push(empty(unsent));
                    garbled
                }
            }
        }
    }

    /// Serves `queries` as one burst, the stepwise way: begin them all,
    /// then land what was parked. Responses come back in query order.
    fn serve_burst(
        resolver: &mut CachingPoolResolver,
        net: &SimNet,
        queries: &[Message],
    ) -> Vec<Message> {
        let mut upstream = Split::new(net, Order::Delivery);
        let mut out = Vec::new();
        let mut responses: Vec<Option<Message>> = vec![None; queries.len()];
        let mut parked = Vec::new();
        for (at, query) in queries.iter().enumerate() {
            match resolver
                .begin(&mut upstream, &lent(query).view(), &mut out)
                .unwrap()
            {
                None => responses[at] = Some(Message::decode(&out).unwrap()),
                Some(flight) => parked.push((flight, at)),
            }
        }
        for landed in upstream.drain(resolver) {
            for &(_, at) in parked.iter().filter(|(flight, _)| *flight == landed.flight) {
                landed
                    .answer_wire(&lent(&queries[at]).view(), &mut out)
                    .unwrap();
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        assert_eq!(resolver.snapshot().pending_refreshes, 0);

        // Past the TTL, within the stale window.
        net.clock().advance(Duration::from_secs(75));
        let before = net.now();
        let stale = resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert_eq!(net.now(), before, "stale serve performed no exchange");
        assert_eq!(stale.answer_addresses().len(), 6);
        assert!(stale.answers.iter().all(|r| r.ttl == 0));
        assert_eq!(resolver.metrics().stale_serves, 1);
        assert_eq!(resolver.metrics().generations, 1, "not on the query path");
        assert_eq!(resolver.snapshot().pending_refreshes, 1, "due at once");

        // The background pump regenerates; the next query is a fresh hit.
        assert_eq!(resolver.run_due_refreshes(&mut exchanger), 1);
        assert_eq!(resolver.snapshot().pending_refreshes, 0);
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        net.clock().advance(Duration::from_secs(75));
        resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert_eq!(
            resolver.snapshot().pending_refreshes,
            1,
            "stale serve queued it"
        );
        net.clock().advance(Duration::from_secs(20));
        resolver.handle_query(&mut exchanger, &query(3, "pool.ntp.org"));
        assert_eq!(resolver.metrics().generations, 2, "miss-path regeneration");
        assert_eq!(
            resolver.snapshot().pending_refreshes,
            0,
            "queued refresh cancelled"
        );
        assert_eq!(resolver.run_due_refreshes(&mut exchanger), 0);
        assert_eq!(resolver.metrics().generations, 2);
        assert_eq!(resolver.metrics().refreshes, 0);
    }

    #[test]
    fn expiry_past_stale_window_regenerates_on_the_query_path() {
        let net = SimNet::new(83);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        let mut resolver = resolver(test_config());
        let queries: Vec<Message> = vec![
            query(1, "a.ntp.org"),
            query(2, "b.ntp.org"),
            query(3, "a.ntp.org"),
            query(4, "a.ntp.org"),
            query(5, "b.ntp.org"),
        ];
        let responses = serve_burst(&mut resolver, &net, &queries);
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
        let responses = serve_burst(&mut resolver, &net, &queries);
        assert_eq!(responses.len(), 5);
        let metrics = resolver.metrics();
        assert_eq!(metrics.generations, 2);
        assert_eq!(metrics.hits, 5);
    }

    #[test]
    fn protocol_level_rejections_never_reach_the_cache() {
        let net = SimNet::new(86);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        assert_eq!(
            resolver.begin(&mut exchanger, &lent(&txt).view(), &mut out),
            Ok(None)
        );
        assert_eq!(Message::decode(&out).unwrap().header.rcode, Rcode::NotImp);
        assert_eq!(resolver.metrics().rejected, 3);
        assert_eq!(resolver.metrics().queries, 0);
        assert_eq!(resolver.handler_name(), "caching-pool-resolver");
        assert!(format!("{resolver:?}").contains("CachingPoolResolver"));
    }

    #[test]
    fn uncached_majority_mode_filters_the_uncorroborated_address() {
        let net = SimNet::new(71);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        // The real-socket runtime keeps a whole resolver (generator,
        // cache, refresh queue, metrics) behind a shard's lock, stepped by
        // whichever thread holds it; this must stay a compile-time
        // guarantee.
        fn assert_send<T: Send>() {}
        assert_send::<CachingPoolResolver>();
        assert_send::<SecurePoolGenerator>();
        assert_send::<PoolCache>();
        assert_send::<Flight>();
        assert_send::<Landed>();
        assert_send::<ServeMetrics>();
        assert_send::<super::super::ServeSnapshot>();
    }

    #[test]
    fn snapshot_is_one_consistent_reading() {
        let net = SimNet::new(90);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = resolver(test_config());
        resolver.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        resolver.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        let snapshot = resolver.snapshot();
        assert_eq!(snapshot.serve, resolver.metrics());
        assert_eq!(snapshot.cache, resolver.cache.metrics());
        assert_eq!(snapshot.entries, 1);
        assert_eq!(snapshot.pending_refreshes, 0);
        // Within one snapshot the cross-counter invariants hold exactly:
        // every query found one lookup outcome.
        let serve = snapshot.serve;
        assert_eq!((serve.hits, serve.misses), (1, 1));
        assert_eq!(
            serve.queries,
            serve.hits + serve.negative_hits + serve.stale_serves + serve.misses
        );
        assert_eq!(snapshot.cache.insertions, 1);

        let mut total = super::super::ServeSnapshot::default();
        total.absorb(&snapshot);
        total.absorb(&snapshot);
        assert_eq!(total.serve.queries, 2 * snapshot.serve.queries);
        assert_eq!(total.cache.insertions, 2 * snapshot.cache.insertions);
        assert_eq!(total.entries, 2);
    }

    #[test]
    fn coalesced_waiters_of_a_failed_generation_all_get_servfail() {
        // The singleflight failure path: a cold burst for one domain with a
        // failing backend must run exactly ONE generation, answer every
        // coalesced waiter SERVFAIL, and leave a negative entry behind so
        // follow-up queries fail fast without another fan-out.
        let net = SimNet::new(91);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let mut resolver = dead_fleet_resolver(test_config());

        let queries: Vec<Message> = (1..=5).map(|i| query(i, "dead.ntp.org")).collect();
        let responses = serve_burst(&mut resolver, &net, &queries);
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        assert_eq!(resolver.snapshot().pending_refreshes, 1);
    }

    #[test]
    fn resolve_pool_surfaces_generation_failures() {
        use super::super::AddressFamily;
        let net = SimNet::new(93);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        earlier.cache.insertions = 5;
        earlier.entries = 7;
        earlier.pending_refreshes = 2;

        let mut later = earlier;
        later.serve.queries = 12;
        later.entries = 0; // gauges may shrink
        later.pending_refreshes = 0;
        assert!(later.regressions(&earlier).is_empty());

        later.serve.queries = 9;
        later.cache.insertions = 4;
        assert_eq!(
            later.regressions(&earlier),
            vec!["sdoh_serve_queries_total", "sdoh_cache_insertions_total"]
        );
    }

    #[test]
    fn probe_entries_follow_served_state() {
        let net = SimNet::new(95);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let mut donor = resolver(test_config());
        donor.handle_query(&mut exchanger, &query(1, "pool.ntp.org"));
        // Queue a refresh on the donor so the handoff has one to cancel.
        net.clock().advance(Duration::from_secs(75));
        donor.handle_query(&mut exchanger, &query(2, "pool.ntp.org"));
        assert_eq!(donor.snapshot().pending_refreshes, 1);

        let moved = donor.extract_entries(|_| true);
        assert_eq!(moved.len(), 1);
        assert_eq!(donor.snapshot().entries, 0);
        assert_eq!(
            donor.snapshot().pending_refreshes,
            0,
            "refresh moved with the key"
        );

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

        fn each(&mut self, f: impl Fn(&mut CachingPoolResolver, &mut Ctx)) {
            let client = SimAddr::v4(10, 0, 0, 1, 40000);
            f(&mut self.wire, &mut self.nets[0].client(client));
            f(&mut self.message, &mut self.nets[1].client(client));
        }

        /// Serves `query` on both twins, asserts the two forms and every
        /// counter agree, and hands back the decoded answer.
        fn serve(&mut self, query: &Message) -> Message {
            let client = SimAddr::v4(10, 0, 0, 1, 40000);
            let mut exchanger = self.nets[0].client(client);
            self.wire
                .handle_query_wire(&mut exchanger, &lent(query).view(), &mut self.out)
                .unwrap();
            let mut exchanger = self.nets[1].client(client);
            let response = self.message.handle_query(&mut exchanger, query);
            assert_eq!(self.out, response.encode().unwrap(), "{query}");
            assert_eq!(self.wire.snapshot(), self.message.snapshot());
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
        assert_eq!(twins.wire.snapshot().pending_refreshes, 1);
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
        assert_eq!(owners.wire.snapshot().pending_refreshes, 1);
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
        // 17 answers of 256 A records, each as long as one answer may be,
        // are 69 632 bytes of answer section: neither the template nor the
        // `Message` encoder produces it, as a miss or as a cached hit, so a
        // front end never holds a response longer than a 16-bit frame can
        // carry.
        let sources: Vec<Box<dyn AddressSource>> = (1..=17u8)
            .map(|tag| {
                let block = (0..=255u8).map(|i| IpAddr::from([10, tag, 0, i])).collect();
                Box::new(StaticSource::answering(format!("r{tag}"), block))
                    as Box<dyn AddressSource>
            })
            .collect();
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut resolver = CachingPoolResolver::new(generator, test_config());
        let net = SimNet::new(99);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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

    /// The domains of a [`doh_world`], its fleet's pool domains.
    const WORLD: [&str; 4] = [
        "pool.ntpns.org",
        "pool2.ntpns.org",
        "pool3.ntpns.org",
        "pool4.ntpns.org",
    ];

    /// A simulated net with a fleet of three DoH resolvers whose pool zone
    /// publishes two addresses for each of [`WORLD`], `registered` of them
    /// reachable, and a front end fanning out to all three: real
    /// exchanges, with latency and randomness drawn from the seeded net.
    fn doh_world(
        seed: u64,
        registered: usize,
        pool: PoolConfig,
        cache: CacheConfig,
    ) -> (SimNet, CachingPoolResolver) {
        let net = SimNet::new(seed);
        let fleet = DohFleet::new(3, WORLD.len(), 2, seed);
        let authority = fleet.authority();
        for info in fleet.infos.iter().take(registered) {
            net.register(
                info.addr,
                sdoh_doh::DohServerService::new(info.clone(), authority.clone()),
            );
        }
        let generator = SecurePoolGenerator::new(pool, doh_sources(&fleet.infos)).unwrap();
        (net, CachingPoolResolver::new(generator, cache))
    }

    fn client(net: &SimNet) -> Ctx<'_> {
        net.client(SimAddr::v4(10, 0, 0, 1, 40000))
    }

    /// What each source came to is counted once per (pass, source), as the
    /// flight lands: one generation under each dual-stack policy over a
    /// fleet of three, one resolver answering an A and an AAAA record, one
    /// answering an empty list (the name does not exist in its zone) and
    /// one unreachable. The numbers are the ones the session's event stream
    /// counted before the session counted them itself.
    #[test]
    fn source_outcomes_are_counted_per_pass_as_the_flight_lands() {
        use crate::config::DualStackPolicy;
        use sdoh_dns_server::{Authority, Catalog, Zone};
        for (policy, expected) in [
            (DualStackPolicy::Ipv4Only, (2, 1)),
            (DualStackPolicy::Union, (2, 1)),
            (DualStackPolicy::PerFamily, (4, 2)),
        ] {
            let net = SimNet::new(47);
            let fleet = DohFleet::new(3, 1, 1, 47);
            let mut pool_zone = fleet.pool_zone();
            pool_zone.add_address(fleet.domains[0].clone(), "2001:db8::1".parse().unwrap());
            let mut elsewhere = Zone::new("ntpns.org".parse().unwrap());
            elsewhere.add_address("elsewhere.ntpns.org".parse().unwrap(), ip(2));
            for (info, zone) in fleet.infos.iter().zip([pool_zone, elsewhere]) {
                let mut catalog = Catalog::new();
                catalog.add_zone(zone);
                net.register(
                    info.addr,
                    sdoh_doh::DohServerService::new(info.clone(), Authority::new(catalog)),
                );
            }
            let config = PoolConfig::algorithm1().with_dual_stack(policy);
            let generator = SecurePoolGenerator::new(config, doh_sources(&fleet.infos)).unwrap();
            let mut resolver = CachingPoolResolver::new(generator, test_config());
            let answer = resolver.handle_query(&mut client(&net), &query(1, WORLD[0]));
            assert_eq!(answer.header.rcode, Rcode::NoError, "{policy:?}");
            let metrics = resolver.metrics();
            assert_eq!(metrics.generations, 1);
            assert_eq!(
                (metrics.source_answers, metrics.source_failures),
                expected,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn live_flights_hand_out_all_transmits_before_waiting() {
        // Two cold domains over three DoH resolvers: all six exchanges
        // depart as one batch at the first Wait, so it overlaps the two
        // generations — and their outcomes may come back in any order.
        let (net, mut resolver) = doh_world(41, 3, PoolConfig::algorithm1(), test_config());
        let mut upstream = Split::new(&net, Order::Reverse);
        let mut out = Vec::new();
        let a = resolver
            .begin(&mut upstream, &lent(&query(1, WORLD[0])).view(), &mut out)
            .unwrap()
            .expect("a miss");
        let b = resolver
            .begin(&mut upstream, &lent(&query(2, WORLD[1])).view(), &mut out)
            .unwrap()
            .expect("a miss");
        assert!(out.is_empty(), "a parked query is not answered yet");
        assert_eq!(resolver.snapshot().live_generations, 2);
        assert_eq!(
            resolver.next_arrival(),
            None,
            "nothing departs before a poll"
        );

        assert!(resolver.poll(&mut upstream).is_none());
        assert_eq!(upstream.departed, [6], "2 flights x 3 resolvers, one batch");
        // Upstream until its round trip is over, and sent once.
        assert!(resolver.next_arrival() > Some(upstream.now()));
        assert!(!resolver.arrive(&mut upstream));
        assert!(resolver.poll(&mut upstream).is_none());
        assert_eq!(upstream.departed, [6]);

        // Last sent, first landed: across the flights and within each. They
        // land in the order they opened, whatever order that was.
        let landed = upstream.drain(&mut resolver);
        let order: Vec<FlightId> = landed.iter().map(|landed| landed.flight).collect();
        assert_eq!(order, vec![a, b]);
        for (landed, query) in landed.iter().zip([query(1, WORLD[0]), query(2, WORLD[1])]) {
            landed.answer_wire(&lent(&query).view(), &mut out).unwrap();
            let answer = Message::decode(&out).unwrap();
            assert!(answer.answers_query(&query));
            assert_eq!(answer.answer_addresses().len(), 6);
        }
        let metrics = resolver.metrics();
        assert_eq!((metrics.generations, metrics.source_answers), (2, 6));
        assert_eq!(resolver.snapshot().live_generations, 0);
        assert_eq!(resolver.snapshot().entries, 2);
        assert_eq!(resolver.next_arrival(), None);
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
        let mut upstream = Split::new(&net, Order::Delivery);
        let mut out = Vec::new();
        let mut begin = |resolver: &mut CachingPoolResolver, upstream: &mut Split, id: u16| {
            resolver
                .begin(upstream, &lent(&query(id, WORLD[0])).view(), &mut out)
                .unwrap()
                .expect("nothing is ever cached")
        };
        let first = begin(&mut resolver, &mut upstream, 1);
        // Joined before anything departed, and again with it upstream.
        assert_eq!(begin(&mut resolver, &mut upstream, 2), first);
        assert!(resolver.poll(&mut upstream).is_none());
        assert_eq!(begin(&mut resolver, &mut upstream, 3), first);
        assert!(resolver.poll(&mut upstream).is_none());
        assert_eq!(upstream.departed, [3], "a join sends nothing");
        upstream.wait();
        assert!(resolver.arrive(&mut upstream));
        // Still live until polled: the outcomes are in, the landing is not.
        assert_eq!(begin(&mut resolver, &mut upstream, 4), first);
        let landed = upstream.drain(&mut resolver);
        assert_eq!(landed.len(), 1);
        assert_eq!(landed[0].flight, first);
        let metrics = resolver.metrics();
        assert_eq!((metrics.misses, metrics.coalesced_waiters), (4, 3));
        assert_eq!((metrics.generations, metrics.source_answers), (1, 3));

        // Landed: the next miss for the key leads a flight of its own.
        let second = begin(&mut resolver, &mut upstream, 5);
        assert_ne!(second, first);
        assert_eq!(resolver.metrics().coalesced_waiters, 3);
        assert_eq!(upstream.drain(&mut resolver).len(), 1);
        assert_eq!(resolver.metrics().generations, 2);
    }

    /// A miss that opens a flight leaves work until a poll departs its
    /// requests; a miss that joins a live flight, and an arrival, leave
    /// `has_work` as it was (an arrival is awaited by `next_arrival`).
    #[test]
    fn only_an_opened_flight_not_yet_departed_leaves_work() {
        let (net, mut resolver) = doh_world(
            42,
            3,
            PoolConfig::algorithm1(),
            test_config().with_ttl(Ttl::ZERO),
        );
        let mut upstream = Split::new(&net, Order::Delivery);
        let mut out = Vec::new();
        let mut begin = |resolver: &mut CachingPoolResolver, upstream: &mut Split, id: u16| {
            resolver
                .begin(upstream, &lent(&query(id, WORLD[0])).view(), &mut out)
                .unwrap()
        };
        assert!(!resolver.has_work());
        let first = begin(&mut resolver, &mut upstream, 1);
        assert!(first.is_some() && resolver.has_work(), "opened");
        assert_eq!(begin(&mut resolver, &mut upstream, 2), first);
        assert!(resolver.has_work(), "a join departs nothing");
        assert!(resolver.poll(&mut upstream).is_none());
        assert!(!resolver.has_work(), "departed");
        assert_eq!(begin(&mut resolver, &mut upstream, 3), first);
        assert!(!resolver.has_work(), "joined with the flight upstream");
        upstream.wait();
        assert!(resolver.arrive(&mut upstream));
        assert!(!resolver.has_work(), "arrived, for the next poll to land");
        assert_eq!(upstream.drain(&mut resolver).len(), 1);
        assert!(!resolver.has_work());
    }

    #[test]
    fn an_arrival_takes_only_what_its_batch_sent() {
        // Each reply arrives twice, the second time empty, and one more
        // under an index nobody sent: a transaction takes its first
        // outcome, and an outcome the batch's tags do not name is dropped.
        let (net, mut resolver) = doh_world(43, 3, PoolConfig::algorithm1(), test_config());
        let mut upstream = Split::new(&net, Order::Garbled);
        let mut out = Vec::new();
        let flight = resolver
            .begin(&mut upstream, &lent(&query(1, WORLD[0])).view(), &mut out)
            .unwrap()
            .expect("a miss");
        let landed = upstream.drain(&mut resolver);
        assert_eq!(landed.len(), 1);
        assert_eq!(landed[0].flight, flight);
        landed[0]
            .answer_wire(&lent(&query(1, WORLD[0])).view(), &mut out)
            .unwrap();
        assert_eq!(Message::decode(&out).unwrap().answer_addresses().len(), 6);
        let metrics = resolver.metrics();
        assert_eq!((metrics.source_answers, metrics.source_failures), (3, 0));
        assert_eq!(metrics.generation_failures, 0);
        assert_eq!(upstream.departed, [3]);
    }

    #[test]
    fn a_refresh_in_flight_is_not_queued_again_and_a_miss_joins_it() {
        // Stale window 30 s after a 60 s TTL.
        let (net, mut resolver) = doh_world(44, 3, PoolConfig::algorithm1(), test_config());
        let mut out = Vec::new();
        resolver.handle_query(&mut client(&net), &query(1, WORLD[0]));
        net.clock().advance(Duration::from_secs(70));
        let mut upstream = Split::new(&net, Order::Interleaved);
        assert_eq!(
            resolver.begin(&mut upstream, &lent(&query(2, WORLD[0])).view(), &mut out),
            Ok(None)
        );
        assert_eq!(
            resolver.snapshot().pending_refreshes,
            1,
            "the stale serve queued it"
        );
        assert_eq!(resolver.begin_due_refreshes(&mut upstream), 1);
        assert!(resolver.poll(&mut upstream).is_none());
        assert_eq!(upstream.departed, [3]);
        assert_eq!(resolver.snapshot().pending_refreshes, 0);

        // Stale serves that overlap the refresh do not queue another...
        assert_eq!(
            resolver.begin(&mut upstream, &lent(&query(3, WORLD[0])).view(), &mut out),
            Ok(None)
        );
        assert_eq!(resolver.metrics().stale_serves, 2);
        assert_eq!(resolver.snapshot().pending_refreshes, 0);
        assert_eq!(resolver.begin_due_refreshes(&mut upstream), 0);
        // ...and a query that finds the entry gone past its stale window
        // joins the refresh instead of opening a second generation.
        net.clock().advance(Duration::from_secs(25));
        upstream.wait();
        let joined = resolver
            .begin(&mut upstream, &lent(&query(4, WORLD[0])).view(), &mut out)
            .unwrap()
            .expect("a miss");
        assert_eq!(resolver.metrics().coalesced_waiters, 1);

        let landed = upstream.drain(&mut resolver);
        assert_eq!(landed.len(), 1);
        assert_eq!(landed[0].flight, joined);
        landed[0]
            .answer_wire(&lent(&query(4, WORLD[0])).view(), &mut out)
            .unwrap();
        assert_eq!(Message::decode(&out).unwrap().answer_addresses().len(), 6);
        let metrics = resolver.metrics();
        assert_eq!((metrics.generations, metrics.refreshes), (2, 1));
    }

    #[test]
    fn a_stampede_of_stale_serves_queues_one_refresh_that_lands_once() {
        let (net, mut resolver) = doh_world(48, 3, PoolConfig::algorithm1(), test_config());
        let mut out = Vec::new();
        resolver.handle_query(&mut client(&net), &query(1, WORLD[0]));
        net.clock().advance(Duration::from_secs(70));
        let mut upstream = Split::new(&net, Order::Delivery);
        for id in 2..=9 {
            assert_eq!(
                resolver.begin(&mut upstream, &lent(&query(id, WORLD[0])).view(), &mut out),
                Ok(None)
            );
        }
        assert_eq!(resolver.metrics().stale_serves, 8);
        assert_eq!(
            resolver.snapshot().pending_refreshes,
            1,
            "eight stale serves of one key queue it once"
        );
        assert_eq!(resolver.begin_due_refreshes(&mut upstream), 1);
        assert_eq!(resolver.snapshot().pending_refreshes, 0);
        let landed = upstream.drain(&mut resolver);
        assert_eq!(landed.len(), 1);
        assert_eq!(upstream.departed, [3], "one fan-out");
        let metrics = resolver.metrics();
        assert_eq!((metrics.generations, metrics.refreshes), (2, 1));
        assert_eq!(resolver.begin_due_refreshes(&mut upstream), 0);
    }

    #[test]
    fn extracting_a_key_with_a_live_flight_leaves_the_flight_to_land() {
        let (net, mut resolver) = doh_world(45, 3, PoolConfig::algorithm1(), test_config());
        let mut exchanger = client(&net);
        resolver.handle_query(&mut exchanger, &query(1, WORLD[0]));
        net.clock().advance(Duration::from_secs(70));
        resolver.handle_query(&mut exchanger, &query(2, WORLD[0]));
        let mut upstream = Split::new(&net, Order::Delivery);
        assert_eq!(resolver.begin_due_refreshes(&mut upstream), 1);
        // The entry moves away with its refresh upstream.
        assert!(resolver.poll(&mut upstream).is_none());
        let moved = resolver.extract_entries(|_| true);
        assert_eq!(moved.len(), 1);
        assert_eq!(resolver.snapshot().entries, 0);
        assert_eq!(resolver.snapshot().live_generations, 1);
        // The flight lands where it took off, and is what a second
        // extraction hands on.
        let landed = upstream.drain(&mut resolver);
        assert_eq!(landed.len(), 1);
        assert_eq!(resolver.snapshot().live_generations, 0);
        assert_eq!(resolver.extract_entries(|_| true).len(), 1);
    }

    #[test]
    fn a_source_swap_mid_flight_lands_on_the_old_set() {
        let (net, mut resolver) = doh_world(46, 3, PoolConfig::algorithm1(), test_config());
        let mut upstream = Split::new(&net, Order::Reverse);
        let mut out = Vec::new();
        resolver
            .begin(&mut upstream, &lent(&query(1, WORLD[0])).view(), &mut out)
            .unwrap()
            .expect("a miss");
        assert!(resolver.poll(&mut upstream).is_none());
        let one: Vec<Box<dyn AddressSource>> =
            vec![Box::new(StaticSource::answering("only", vec![ip(9)]))];
        resolver.generator_mut().replace_sources(one).unwrap();
        // The flight left over three resolvers and comes back over them.
        let landed = upstream.drain(&mut resolver);
        landed[0]
            .answer_wire(&lent(&query(1, WORLD[0])).view(), &mut out)
            .unwrap();
        assert_eq!(Message::decode(&out).unwrap().answer_addresses().len(), 6);
        assert_eq!(resolver.metrics().source_answers, 3);
        // The next generation runs over the new set.
        let next = resolver.handle_query(&mut client(&net), &query(2, WORLD[1]));
        assert_eq!(next.answer_addresses(), vec![ip(9)]);
    }

    /// How long a [`Held`] batch is upstream.
    const HELD_RTT: Duration = Duration::from_millis(2);

    /// A way upstream whose batches are due [`HELD_RTT`] after they depart,
    /// on a clock the test moves, and come back as timeouts: what a step
    /// visits does not depend on what the exchanges said.
    struct Held {
        now: SimInstant,
        ids: u16,
    }

    impl Exchanger for Held {
        fn exchange(
            &mut self,
            dst: SimAddr,
            _: sdoh_netsim::ChannelKind,
            _: &[u8],
            _: Duration,
        ) -> sdoh_netsim::NetResult<Vec<u8>> {
            Err(sdoh_netsim::NetError::Unreachable(dst))
        }

        fn next_id(&mut self) -> u16 {
            self.ids = self.ids.wrapping_add(1);
            self.ids
        }

        fn now(&self) -> SimInstant {
            self.now
        }

        fn depart(&mut self, requests: Vec<ExchangeRequest>) -> Departure {
            Departure::in_flight(self.now.saturating_add(HELD_RTT), requests)
        }

        fn arrive(&mut self, departure: Departure) -> Vec<ExchangeOutcome> {
            let completed_at = self.now;
            departure.outcomes(|requests| {
                (0..requests.len())
                    .map(|index| ExchangeOutcome {
                        index,
                        completed_at,
                        result: Err(sdoh_netsim::NetError::Timeout),
                    })
                    .collect()
            })
        }
    }

    /// What a step visits with F = 1, 16, 256 and 4 096 flights upstream,
    /// each its own batch, the last opened due first: a cached hit, a stale
    /// serve, a miss that opens its flight (with the poll that departs it),
    /// a miss that joins the last flight, the arrival of its batch and the
    /// landing it completes each visit the same few flights, keys and
    /// batches, whatever F is. A hit hashes its key in the cache alone: the
    /// key index sits beside the cache, and the hit path never reaches it.
    #[test]
    fn a_step_visits_its_own_flights_keys_and_batches_whatever_is_upstream() {
        use crate::config::CombinationMode;
        use crate::pool::AddressPool;
        let fleet = DohFleet::new(3, 1, 2, 49);
        let epoch = SimInstant::EPOCH;
        let mut pool = AddressPool::new();
        pool.push(ip(1), "r1");
        let report = GenerationReport {
            pool,
            mode: CombinationMode::TruncateAndCombine,
            sources: Vec::new(),
            truncate_lengths: Vec::new(),
        };
        let mut counted = Vec::new();
        for upstream in [1, 16, 256, 4096] {
            let sources = doh_sources(&fleet.infos);
            let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
            let mut resolver = CachingPoolResolver::new(generator, test_config());
            // One pool fresh, one past its TTL within the stale window.
            let fresh = epoch.saturating_add(Duration::from_secs(60));
            for (domain, expires_at) in [("warm.example", fresh), ("stale.example", epoch)] {
                let key = PoolKey::new(domain.parse().unwrap(), AddressFamily::V4);
                let cached = CachedPool {
                    value: Ok(report.clone()),
                    generated_at: epoch,
                    expires_at,
                    reasked: false,
                };
                assert!(resolver.install_entry(key, cached, epoch));
            }
            let mut held = Held { now: epoch, ids: 0 };
            let mut out = Vec::new();
            let mut begin = |resolver: &mut CachingPoolResolver, held: &mut Held, domain: &str| {
                let wire = lent(&query(1, domain));
                resolver.begin(held, &wire.view(), &mut out).unwrap()
            };
            let mut last = None;
            for index in 0..upstream {
                held.now = epoch.saturating_add(Duration::from_nanos(upstream - index));
                last = begin(&mut resolver, &mut held, &format!("cold{index}.example"));
                assert!(last.is_some() && resolver.poll(&mut held).is_none());
            }
            held.now = epoch.saturating_add(Duration::from_nanos(upstream + 1));
            visits::take();
            assert_eq!(begin(&mut resolver, &mut held, "warm.example"), None);
            let hit = visits::take();
            assert_eq!(begin(&mut resolver, &mut held, "stale.example"), None);
            let stale = visits::take();
            assert!(begin(&mut resolver, &mut held, "opened.example").is_some());
            assert!(resolver.poll(&mut held).is_none());
            let opened = visits::take();
            let joined = format!("cold{}.example", upstream - 1);
            assert_eq!(begin(&mut resolver, &mut held, &joined), last);
            let joined = visits::take();
            held.now = epoch.saturating_add(HELD_RTT + Duration::from_nanos(1));
            assert!(resolver.arrive(&mut held));
            let arrival = visits::take();
            let landed = resolver.poll(&mut held).expect("its outcomes are all in");
            let landing = visits::take();
            assert_eq!(Some(landed.flight), last);
            let snapshot = resolver.snapshot();
            let metrics = snapshot.serve;
            assert_eq!(
                snapshot.live_generations,
                usize::try_from(upstream).unwrap()
            );
            assert_eq!((metrics.hits, metrics.stale_serves), (1, 1));
            assert_eq!((metrics.coalesced_waiters, metrics.generations), (1, 1));
            let steps = [hit, stale, opened, joined, arrival, landing];
            println!(
                "{upstream} flights upstream, [flights, keys, batches] visited: hit {hit:?}, \
                 stale serve {stale:?}, opened miss {opened:?}, joined miss {joined:?}, \
                 arrival {arrival:?}, landing {landing:?}"
            );
            counted.push(steps);
        }
        assert!(counted.iter().all(|steps| *steps == counted[0]));
        assert!(counted[0].iter().flatten().all(|&visits| visits <= 4));
        assert_eq!(counted[0][0], [0, 2, 0], "a hit visits nothing upstream");
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
        assert_eq!(resolver.snapshot().pending_refreshes, 4);
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
        use super::super::{answer_template, pool_addresses, pool_response};
        use super::{client, doh_world, lent, query, test_config, Order, Split, WORLD};
        use crate::config::CombinationMode;
        use crate::config::PoolConfig;
        use crate::generator::GenerationReport;
        use crate::pool::AddressPool;
        use crate::serve::AddressFamily;
        use proptest::prelude::*;
        use sdoh_dns_server::QueryHandler;
        use sdoh_dns_wire::{Header, Message, Name, Opcode, RrType, Ttl};
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
                let expected = pool_response(&query, &report, Ttl::from_secs(ttl))
                    .encode()
                    .unwrap();
                let family = AddressFamily::of(rtype).unwrap();
                let lent = lent(&query);
                let mut rendered = vec![0xEE; 7];
                prop_assert!(answer_template(family, &report).render(&lent.view(), ttl, &mut rendered));
                prop_assert_eq!(&rendered, &expected);
                // What the view writes when no template fits is the same.
                let answered = Header {
                    recursion_available: true,
                    ..Header::response_to(&query.header)
                };
                let addresses = pool_addresses(&report, rtype);
                lent.view().write_response(answered, ttl, addresses, &mut rendered).unwrap();
                prop_assert_eq!(rendered, expected);
            }

            /// Stepwise and blocking are one path: the same queries, clock
            /// advances and refresh pumps through `handle_query_wire` /
            /// `run_due_refreshes` on one resolver and through begin / poll
            /// / arrive over split halves on its twin (identically seeded
            /// nets, real DoH exchanges, a cache small enough to evict) give
            /// byte-identical answers and equal counters — whatever order
            /// the outcomes of a batch arrive in, across flights and within
            /// them.
            #[test]
            fn stepwise_and_blocking_serve_the_same_bytes(
                ops in proptest::collection::vec((0u8..6, any::<u16>()), 1..40),
                seed in any::<u64>(),
                order in 0u8..3,
                dead in any::<bool>(),
            ) {
                let order = [Order::Delivery, Order::Reverse, Order::Interleaved]
                    [usize::from(order)];
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
                                .handle_query_wire(&mut client(&blocking_net), &lent(&query).view(), &mut expected)
                                .unwrap();
                            let mut upstream = Split::new(&stepwise_net, order);
                            if let Some(flight) =
                                stepwise.begin(&mut upstream, &lent(&query).view(), &mut out).unwrap()
                            {
                                let landed = upstream.drain(&mut stepwise);
                                prop_assert_eq!(landed.len(), 1);
                                prop_assert_eq!(landed[0].flight, flight);
                                landed[0].answer_wire(&lent(&query).view(), &mut out).unwrap();
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
                            let mut upstream = Split::new(&stepwise_net, order);
                            prop_assert_eq!(stepwise.begin_due_refreshes(&mut upstream), ran);
                            let landed = upstream.drain(&mut stepwise);
                            prop_assert_eq!(landed.len(), ran);
                        }
                    }
                    // Every counter: which entry a full cache evicts is
                    // a function of its history, so even the split between
                    // `evictions` and `expirations` is the same.
                    prop_assert_eq!(stepwise.snapshot(), blocking.snapshot());
                    prop_assert_eq!(stepwise_net.now(), blocking_net.now());
                }
            }
        }
    }

    #[test]
    fn families_cache_separately() {
        let net = SimNet::new(87);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
