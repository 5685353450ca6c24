//! Heap allocations of one generation, counted — no timing involved.
//!
//! A generation that does no I/O is bookkeeping: which source answered
//! what, which addresses win, whose name each pool slot carries. It should
//! allocate what it keeps — the report's rows, the pool and its labels —
//! and what it reads into, and nothing on the way there. Six counts hold
//! that, all exact and repeating on every run (the test prints them):
//!
//! * a majority `generate` over five sources with ready answers, held at
//!   exactly 8: the session's transactions and its one answer buffer
//!   (grown once, sized on the first answer), the vote's keys, the pool
//!   and its one label, the report's rows and the lists lent to the vote
//!   (18 while each source's list was cloned into a vector of its own and
//!   each row copied its source's name, 20 while the driver collected the
//!   session's progress events nobody read, 21 while each vote label was
//!   formatted into a `String` before its `Arc`, 83 while every name, list
//!   and label was copied per use);
//! * an Algorithm-1 `generate` over the same five lists, held at exactly
//!   8: its truncate label is one `String` the type's name is written
//!   into, and every slot a source fills shares the name its source set
//!   holds (22 while each list was cloned, each row and each contributor's
//!   provenance copied the name, and the session queued an event per
//!   source; 27 while the label was joined from a `Vec` of one `String`
//!   per type, each type's name a `String` of its own first, and the
//!   driver collected its event list);
//! * one uncached query over N in-process DoH terminators, the last one
//!   poisoned, under the majority vote — at N = 5 the `cold_gen` query of
//!   the benchmark, read where it lies and answered by `handle_query_wire`
//!   — with the answer verified. It costs exactly `A + B·N` at N = 3, 5,
//!   15 and 31 (the paper's E2 and E3a counts), `A` = 12 and `B` = 2. Per
//!   resolver: the exchange's two payloads (`doh/tests/alloc_budget.rs`);
//!   every reply is read into the session's one answer buffer, the reply's
//!   read borrows the question the session encoded, and the report row
//!   shares the name the source set holds (`B` was 4 while each reply's
//!   addresses were a vector of their own and each row copied its
//!   source's name, 5 while the session boxed the client's state as `dyn
//!   Any`). Per query: the question encoded once for all N, inline, every
//!   answer rendered from a template — the poisoned one's, or the honest
//!   authority's answer index — from the query where it lies, one copy of
//!   the name for the key the miss stores, the batch's request buffer
//!   (sized for N at once; its tags reuse the buffer of the batch that
//!   landed before), the answer buffer (sized on the first answer for all
//!   N), the rest the generation's own bookkeeping and the rendered answer.
//!   Nothing grows faster than N, nor with the flights upstream: at N = 5
//!   beside 256 flights of other names the query costs the same 22 (the
//!   key index finds and stores its key by one hash each). History at
//!   N = 5: 22 now; 23 while each
//!   blocking call gathered its batch's tags in a buffer of its own; 33
//!   while each reply's addresses and each row's name were copies of their
//!   own; 38
//!   when the slope was stated; 40 while the blocking driver grew its
//!   batch buffers by doubling (2 per doubling, so `2⌈log2 N⌉` more) and the
//!   default `exchange_all` collected the outcomes into the requests'
//!   buffer (a shrinking reallocation whenever `64·N` octets were not a
//!   multiple of 48); 41 while each vote label was formatted into a
//!   `String` first, 56 while each terminator decoded its query into an
//!   owned `Message` and each client kept its stream list on the heap, 60
//!   while each honest authority walked its zone and compressed the answer
//!   against an offset list of its own, 89 while the poisoned resolver
//!   built and encoded a `Message` and the client kept its question, query
//!   and compression offsets on the heap, 179 while both ends of an
//!   exchange built and copied HTTP messages, 333 while each source decoded
//!   its answer into an owned `Message` and each authority cloned the
//!   records it answered with, 525 before names were lent and header fields
//!   shared a buffer;
//! * answering the queries parked on one landed flight: each costs the
//!   same as the first, because the landing encoded the pool's answer
//!   section once and every waiter renders from it (at the parent each
//!   waiter encoded its own);
//! * a cached hit as the front door serves it — the query read where it
//!   lies, then `begin` into a warm buffer — allocates nothing (3 while
//!   the front door decoded an owned `Message`, a name and a question
//!   vector, and the cache key cloned the name). It also catches a heap
//!   clone `sdoh-lint`'s purity rule cannot see: the rule does not know
//!   that `Name::clone` allocates.
//! * the same hit while 16 flights are upstream, each its own batch, with
//!   what a shard asks the resolver after it — whether it has work before
//!   its next arrival, and whether that arrival is due — allocates nothing
//!   either;
//! * a stale serve that queues its key's refresh copies the key twice,
//!   exactly: into the key index, which says the refresh is queued, and
//!   into the refresh queue, which keeps the order refreshes open in (the
//!   refresh then opens on the queue's copy and copies nothing). At the
//!   parent the serve copied it once and the refresh again.
//!
//! A second test holds bytes, not blocks: a majority generation whose
//! first source answers 4 000 addresses may hold at most three times that
//! answer's own bytes more, at its peak, than the same generation with
//! every source answering the eight honest addresses, at N = 5 and 31.
//! It holds 69 638 and 76 078 bytes (honest: 2 432 and 12 288): the answer
//! is past the 256-address ceiling, so its source fails as the session
//! settles it, and the bytes are the answer read and dropped. It held
//! 159 280 and 122 360 while only a DoH reply was held to the ceiling and
//! this static answer's 4 000 addresses reached the vote, and 426 928 and
//! 2 178 976 while the first answer reserved room for every open slot as
//! if each answered as many.
//!
//! Only the measuring thread's blocks are counted: the test harness's main
//! thread takes a few of its own while the test runs, at no fixed moment,
//! and counted with the rest they made a count vary from run to run; so
//! did another test's thread measuring at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::IpAddr;
use std::time::Duration;

use sdoh_core::{
    doh_sources, AddressSource, CacheConfig, CachingPoolResolver, DohFleet, PoolConfig,
    ResolverCompromise, SecurePoolGenerator, StaticSource,
};
use sdoh_dns_server::{Departure, ExchangeRequest, Exchanger, QueryHandler};
use sdoh_dns_wire::{Message, Name, QueryView, RrType, Ttl};
use sdoh_doh::DohServerService;
use sdoh_netsim::{ChannelKind, NetError, NetResult, SimAddr, SimInstant};

thread_local! {
    /// Whether this thread's allocations count: only the measuring thread's
    /// do, so a block the test harness's own thread takes meanwhile (its
    /// channel wait registers a waker, at no fixed moment) is never counted,
    /// nor one another test's thread takes.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Blocks handed out or moved while counting.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes held now, and the most held, since the measurement began.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counts `blocks` new blocks and `bytes` more held if this thread is
/// measuring.
fn count(blocks: usize, bytes: isize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.with(|count| count.set(count.get() + blocks));
        let live = LIVE.with(|live| {
            live.set(live.get() + bytes);
            live.get()
        });
        PEAK.with(|peak| peak.set(peak.get().max(live)));
    }
}

/// The system allocator, counting every block it hands out or moves.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|counting| counting.set(true));
    let out = work();
    COUNTING.with(|counting| counting.set(false));
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The most bytes held at once while `work` runs, over what was held
/// when it began.
fn peak_bytes_of<T>(work: impl FnOnce() -> T) -> (usize, T) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    let (_, out) = allocations_of(work);
    (PEAK.with(Cell::get) as usize, out)
}

fn benign(host: u8) -> IpAddr {
    IpAddr::from([203, 0, 113, host])
}

fn attacker(host: u8) -> IpAddr {
    IpAddr::from([198, 18, 0, host])
}

/// Five DoH terminators in one process, reached by address: the fleet of
/// the benchmark's `cold_gen` without sockets or threads.
struct Fleet {
    endpoints: Vec<(SimAddr, DohServerService<Box<dyn QueryHandler + Send>>)>,
}

impl Exchanger for Fleet {
    fn exchange(
        &mut self,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        _: Duration,
    ) -> NetResult<Vec<u8>> {
        // An authority answers from its zone: nothing goes further upstream.
        let mut upstream = Fleet {
            endpoints: Vec::new(),
        };
        let (_, service) = self
            .endpoints
            .iter_mut()
            .find(|(addr, _)| *addr == dst)
            .ok_or(NetError::Unreachable(dst))?;
        service
            .serve_payload(&mut upstream, channel, payload)
            .ok_or(NetError::Timeout)
    }

    fn next_id(&mut self) -> u16 {
        7
    }

    fn now(&self) -> SimInstant {
        SimInstant::EPOCH
    }
}

/// A way upstream whose batches stay there: each is ready a second after
/// the epoch, and the clock stands at the epoch.
struct Upstream;

impl Exchanger for Upstream {
    fn exchange(
        &mut self,
        dst: SimAddr,
        _: ChannelKind,
        _: &[u8],
        _: Duration,
    ) -> NetResult<Vec<u8>> {
        Err(NetError::Unreachable(dst))
    }

    fn next_id(&mut self) -> u16 {
        7
    }

    fn now(&self) -> SimInstant {
        SimInstant::EPOCH
    }

    fn depart(&mut self, requests: Vec<ExchangeRequest>) -> Departure {
        Departure::in_flight(
            SimInstant::EPOCH.saturating_add(Duration::from_secs(1)),
            requests,
        )
    }
}

/// A fleet of `n`, its last resolver answering the attacker's addresses,
/// and the sources that reach it.
fn doh_fleet(n: usize) -> (Fleet, Vec<Box<dyn AddressSource>>) {
    let fleet = DohFleet::new(n, 1, 8, 1);
    // One zone for the fleet, as `LoopbackFleet` shares it.
    let authority = fleet.authority();
    let poisoned = ResolverCompromise::ReplaceWithAttackerAddresses(8);
    let endpoints = fleet
        .infos
        .iter()
        .enumerate()
        .map(|(index, info)| {
            let handler: Box<dyn QueryHandler + Send> = if index == n - 1 {
                Box::new(fleet.compromise(authority.clone(), &poisoned))
            } else {
                Box::new(authority.clone())
            };
            (info.addr, DohServerService::new(info.clone(), handler))
        })
        .collect();
    (Fleet { endpoints }, doh_sources(&fleet.infos))
}

fn static_sources() -> Vec<Box<dyn AddressSource>> {
    (0..5)
        .map(|index| {
            let list = if index == 4 {
                (1..=8).map(attacker).collect()
            } else {
                (1..=8).map(benign).collect()
            };
            Box::new(StaticSource::answering(format!("static-{index}"), list))
                as Box<dyn AddressSource>
        })
        .collect()
}

/// The resolver counts an uncached query is counted at: the benchmark's
/// five, and the paper's 3, 15 and 31 (E2, E3a).
const RESOLVER_COUNTS: [usize; 4] = [3, 5, 15, 31];

/// An uncached query over N resolvers allocates `A + B·N` times.
const A: usize = 12;
const B: usize = 2;

/// A five-source majority generation over ready answer lists.
const MAJORITY: usize = 8;

/// A five-source Algorithm-1 generation over ready answer lists.
const ALGORITHM1: usize = 8;

/// The allocations of one uncached query over a fleet of `n`, its last
/// resolver poisoned, under the majority vote, with `upstream` flights of
/// other names upstream (each its own batch, staying there), after one
/// query has warmed the buffers; the answer is verified.
fn uncached_query(pool: &Name, n: usize, upstream: usize) -> usize {
    let expected: Vec<IpAddr> = (1..=8).map(benign).collect();
    let (mut fleet, sources) = doh_fleet(n);
    let mut resolver = CachingPoolResolver::new(
        SecurePoolGenerator::new(PoolConfig::majority_resolver(), sources).unwrap(),
        CacheConfig::uncached(),
    );
    let query = Message::query(77, pool.clone(), RrType::A);
    let wire = query.encode().unwrap();
    let mut out = Vec::with_capacity(512);
    for index in 0..upstream {
        let held = format!("held{index}.ntpns.org").parse().unwrap();
        let held = Message::query(1, held, RrType::A).encode().unwrap();
        let miss = resolver.begin(&mut Upstream, &QueryView::parse(&held).unwrap(), &mut out);
        assert!(miss.unwrap().is_some(), "a miss opens its flight");
        assert!(resolver.poll(&mut Upstream).is_none(), "and departs it");
    }
    let lent = QueryView::parse(&wire).unwrap();
    resolver
        .handle_query_wire(&mut fleet, &lent, &mut out)
        .unwrap();
    out.clear();
    let (count, _) = allocations_of(|| {
        let lent = QueryView::parse(&wire).unwrap();
        resolver
            .handle_query_wire(&mut fleet, &lent, &mut out)
            .unwrap()
    });
    let answer = Message::decode(&out).unwrap();
    assert!(answer.answers_query(&query));
    assert_eq!(
        answer.answer_addresses(),
        expected,
        "the attacker is outvoted at N = {n}"
    );
    assert_eq!(resolver.metrics().generations, 2);
    assert_eq!(resolver.metrics().source_answers, 2 * n as u64);
    assert_eq!(resolver.live_generations(), upstream);
    count
}

/// Flights upstream beside the uncached query at N = 5: its key is found
/// and stored by one hash each, so they cost it no allocation.
const FLIGHTS_BESIDE: usize = 256;

#[test]
fn a_generation_stays_within_its_allocation_budgets() {
    let pool: Name = "pool.ntpns.org".parse().unwrap();
    let expected: Vec<IpAddr> = (1..=8).map(benign).collect();
    let mut nowhere = Fleet {
        endpoints: Vec::new(),
    };

    // (a) Session, vote and report over five ready answer lists.
    let generator =
        SecurePoolGenerator::new(PoolConfig::majority_resolver(), static_sources()).unwrap();
    let (generation, report) = allocations_of(|| generator.generate(&mut nowhere, &pool).unwrap());
    assert_eq!(report.pool.addresses(), expected);
    assert_eq!(report.answered(), 5);

    // (a') The same five lists under Algorithm 1: truncated to the shortest
    // and concatenated, the cut labelled with the type it was made for.
    let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), static_sources()).unwrap();
    let (algorithm1, report) = allocations_of(|| generator.generate(&mut nowhere, &pool).unwrap());
    assert_eq!(report.pool.len(), 40);
    assert_eq!(report.truncate_lengths, vec![("A".to_string(), 8)]);

    // (b) The benchmark's cold query: nothing cached, N exchanges, vote.
    let uncached: Vec<(usize, usize)> = RESOLVER_COUNTS
        .iter()
        .map(|&n| (n, uncached_query(&pool, n, 0)))
        .collect();
    let beside = uncached_query(&pool, 5, FLIGHTS_BESIDE);
    let mut out = Vec::with_capacity(512);

    // (c) One flight, four waiters: whether or not the cache keeps the
    // pool, the landing encodes its answer section once.
    let mut per_waiter = Vec::new();
    for cache in [
        CacheConfig::uncached(),
        CacheConfig::default().with_ttl(Ttl::from_secs(60)),
    ] {
        let generator =
            SecurePoolGenerator::new(PoolConfig::majority_resolver(), static_sources()).unwrap();
        let mut resolver = CachingPoolResolver::new(generator, cache);
        let waiters: Vec<Message> = (1..=4)
            .map(|id| Message::query(id, pool.clone(), RrType::A))
            .collect();
        let octets: Vec<Vec<u8>> = waiters.iter().map(|q| q.encode().unwrap()).collect();
        let flights: Vec<_> = octets
            .iter()
            .map(|wire| {
                let query = QueryView::parse(wire).unwrap();
                resolver.begin(&mut nowhere, &query, &mut out).unwrap()
            })
            .collect();
        assert!(flights[0].is_some() && flights.iter().all(|flight| *flight == flights[0]));
        assert_eq!(resolver.metrics().coalesced_waiters, 3);
        let Some(landed) = resolver.poll(&mut nowhere) else {
            panic!("ready answers land on the first poll");
        };
        let counts: Vec<usize> = waiters
            .iter()
            .zip(&octets)
            .map(|(query, wire)| {
                out.clear();
                let lent = QueryView::parse(wire).unwrap();
                let (count, ()) = allocations_of(|| landed.answer_wire(&lent, &mut out).unwrap());
                let answer = Message::decode(&out).unwrap();
                assert!(answer.answers_query(query));
                assert_eq!(answer.answer_addresses(), expected);
                count
            })
            .collect();
        assert!(
            counts.iter().all(|count| *count == counts[0]),
            "every waiter costs what the first did: {counts:?}"
        );
        per_waiter.push(counts[0]);
    }

    // (d) A cached hit, as the front door serves it: the query read where
    // it lies, and the resolver's first step into a warm buffer.
    let generator =
        SecurePoolGenerator::new(PoolConfig::majority_resolver(), static_sources()).unwrap();
    let mut resolver = CachingPoolResolver::new(generator, CacheConfig::default());
    let first = Message::query(1, pool.clone(), RrType::A).encode().unwrap();
    let miss = resolver
        .begin(&mut nowhere, &QueryView::parse(&first).unwrap(), &mut out)
        .unwrap();
    assert!(miss.is_some(), "a cold cache misses");
    assert!(resolver.poll(&mut nowhere).is_some());
    // Asked in another spelling: the lent name finds the entry all the same.
    let hit_wire = Message::query(2, "POOL.ntpns.ORG".parse().unwrap(), RrType::A)
        .encode()
        .unwrap();
    out.clear();
    let (hit, begun) = allocations_of(|| {
        let query = QueryView::parse(&hit_wire).unwrap();
        resolver.begin(&mut nowhere, &query, &mut out).unwrap()
    });
    assert_eq!(begun, None, "answered from the cache");
    assert_eq!(resolver.metrics().hits, 1);
    let answer = Message::decode(&out).unwrap();
    assert!(answer.answers_query(&Message::decode(&hit_wire).unwrap()));
    assert_eq!(answer.answer_addresses(), expected);

    // (e) The hit again, in another resolver that has 16 flights upstream:
    // its DoH sources' batches depart and stay there.
    let (mut fleet, sources) = doh_fleet(5);
    let generator = SecurePoolGenerator::new(PoolConfig::majority_resolver(), sources).unwrap();
    let mut resolver = CachingPoolResolver::new(generator, CacheConfig::default());
    let primed = resolver.handle_query(&mut fleet, &Message::query(1, pool.clone(), RrType::A));
    assert_eq!(primed.answer_addresses(), expected);
    for index in 2..18 {
        let cold = Message::query(
            1,
            format!("pool{index}.ntpns.org").parse().unwrap(),
            RrType::A,
        );
        let wire = cold.encode().unwrap();
        let miss = resolver.begin(&mut Upstream, &QueryView::parse(&wire).unwrap(), &mut out);
        assert!(miss.unwrap().is_some(), "a miss opens its flight");
        assert!(resolver.poll(&mut Upstream).is_none(), "and departs it");
    }
    assert_eq!(resolver.snapshot().live_generations, 16);
    out.clear();
    let (upstream_hit, begun) = allocations_of(|| {
        let query = QueryView::parse(&hit_wire).unwrap();
        let begun = resolver.begin(&mut Upstream, &query, &mut out).unwrap();
        // What a shard's pump asks after a hit: no work, nothing due.
        let due = resolver.has_work()
            || resolver
                .next_arrival()
                .is_some_and(|at| at <= Upstream.now());
        (begun, due)
    });
    assert_eq!(begun, (None, false), "answered from the cache, nothing due");
    assert_eq!(resolver.metrics().hits, 1);
    assert_eq!(Message::decode(&out).unwrap().answer_addresses(), expected);

    // (f) Stale serves, two pools past their TTL: the first sizes the
    // refresh queue and the key index, the second is counted.
    let generator =
        SecurePoolGenerator::new(PoolConfig::majority_resolver(), static_sources()).unwrap();
    let mut resolver = CachingPoolResolver::new(generator, CacheConfig::default());
    let stale: Vec<Vec<u8>> = ["stale1.ntpns.org", "stale2.ntpns.org"]
        .iter()
        .map(|name| {
            let query = Message::query(3, name.parse().unwrap(), RrType::A);
            query.encode().unwrap()
        })
        .collect();
    for wire in &stale {
        let query = QueryView::parse(wire).unwrap();
        assert!(resolver
            .begin(&mut nowhere, &query, &mut out)
            .unwrap()
            .is_some());
        assert!(resolver.poll(&mut nowhere).is_some());
    }
    for (key, mut cached) in resolver.extract_entries(|_| true) {
        cached.expires_at = nowhere.now();
        assert!(resolver.install_entry(key, cached, nowhere.now()));
    }
    let mut stale_serve = |wire: &[u8]| {
        out.clear();
        allocations_of(|| {
            let query = QueryView::parse(wire).unwrap();
            resolver.begin(&mut nowhere, &query, &mut out).unwrap()
        })
    };
    assert_eq!(
        stale_serve(&stale[0]).1,
        None,
        "served stale from the cache"
    );
    let (stale_serve, begun) = stale_serve(&stale[1]);
    assert_eq!(begun, None, "served stale from the cache");
    assert_eq!(resolver.metrics().stale_serves, 2);
    assert_eq!(resolver.snapshot().pending_refreshes, 2);

    println!(
        "allocations: static majority generation {generation}, static Algorithm-1 generation \
         {algorithm1}, uncached query by N {uncached:?} (a = {A}, b = {B}), at N = 5 with \
         {FLIGHTS_BESIDE} flights upstream {beside}, per parked waiter \
         {per_waiter:?} (uncached, cached), cached hit {hit}, cached hit with 16 flights \
         upstream {upstream_hit}, stale serve queueing its refresh {stale_serve}"
    );
    assert_eq!(
        generation, MAJORITY,
        "a five-source majority generation allocated {generation} times, not {MAJORITY}"
    );
    assert_eq!(
        algorithm1, ALGORITHM1,
        "a five-source Algorithm-1 generation allocated {algorithm1} times, not {ALGORITHM1}"
    );
    for &(n, count) in &uncached {
        assert_eq!(
            count,
            A + B * n,
            "one uncached query over {n} resolvers allocated {count} times, not {A} + {B}·{n}"
        );
    }
    assert_eq!(
        beside,
        A + B * 5,
        "an uncached query beside {FLIGHTS_BESIDE} flights allocated {beside} times"
    );
    assert_eq!(hit, 0, "a cached hit allocated {hit} times");
    assert_eq!(
        upstream_hit, 0,
        "a cached hit with 16 flights upstream allocated {upstream_hit} times"
    );
    assert!(
        per_waiter.iter().all(|count| *count == 0),
        "rendering a parked waiter's answer allocated: {per_waiter:?}"
    );
    assert_eq!(
        stale_serve, 2,
        "a stale serve queueing its refresh allocated {stale_serve} times"
    );
}

/// What a resolver that answers first with a long list costs a majority
/// generation over `n` static sources: peak live bytes with source 0
/// answering `hostile` distinct attacker addresses and the others the
/// eight benign ones, against all `n` answering the eight. The pool is the
/// eight either way.
fn hostile_first_answer(n: usize, hostile: usize) -> (usize, usize) {
    let pool: Name = "pool.ntpns.org".parse().unwrap();
    let expected: Vec<IpAddr> = (1..=8).map(benign).collect();
    let mut nowhere = Fleet {
        endpoints: Vec::new(),
    };
    let mut peak = |first: Vec<IpAddr>| {
        let sources = (0..n)
            .map(|index| {
                let list = if index == 0 {
                    first.clone()
                } else {
                    expected.clone()
                };
                Box::new(StaticSource::answering(format!("static-{index}"), list))
                    as Box<dyn AddressSource>
            })
            .collect();
        let generator = SecurePoolGenerator::new(PoolConfig::majority_resolver(), sources).unwrap();
        let (peak, report) = peak_bytes_of(|| generator.generate(&mut nowhere, &pool).unwrap());
        assert_eq!(report.pool.addresses(), expected, "N = {n}");
        peak
    };
    let honest = peak(expected.clone());
    let flood = (0..hostile)
        .map(|i| IpAddr::from([198, 18, (i / 256) as u8, (i % 256) as u8]))
        .collect();
    (honest, peak(flood))
}

/// A hostile first answer holds at most [`HOSTILE_FACTOR`] times its own
/// bytes more than an honest generation does, at N = 5 and N = 31.
const HOSTILE_FACTOR: usize = 3;

/// The addresses the hostile first answer carries.
const HOSTILE_ANSWER: usize = 4_000;

#[test]
fn a_hostile_first_answer_sizes_nothing_but_itself() {
    let own = HOSTILE_ANSWER * std::mem::size_of::<IpAddr>();
    for n in [5, 31] {
        let (honest, hostile) = hostile_first_answer(n, HOSTILE_ANSWER);
        println!(
            "peak live bytes at N = {n}: honest {honest}, first answer of {HOSTILE_ANSWER} \
             addresses {hostile} (its own {own})"
        );
        assert!(
            hostile <= honest + HOSTILE_FACTOR * own,
            "N = {n}: {hostile} bytes held, above {honest} + {HOSTILE_FACTOR} x {own}"
        );
    }
}
