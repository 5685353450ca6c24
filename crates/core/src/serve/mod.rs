//! The pool front end: one resolver over one cache.
//!
//! Secure pool generation is expensive by design — every lookup fans out to
//! N DoH resolvers and cross-validates the answers. This module is the
//! paper's "majority DNS resolver": the standard-compatible front end that
//! serves those pools to unmodified DNS clients, and the layer that keeps
//! serving them cheap under heavy client traffic:
//!
//! * [`CachingPoolResolver`] — the `QueryHandler` front end, with
//!   [`ServeMetrics`] (hits, misses, coalesced waiters, stale serves,
//!   refreshes, …) and a [`ServeSnapshot`] that also says how many
//!   generations are in flight. Everything below is its private machinery; what it
//!   caches and for how long is a [`CacheConfig`], and
//!   [`CacheConfig::uncached`] is the generation-per-query front end.
//! * a **TTL cache** of [`GenerationReport`]s keyed by
//!   `(domain, address family)` ([`PoolKey`]): one map under an exact
//!   capacity bound, with negative caching of generation failures and a
//!   stale window. A full cache evicts a dead entry, else a pool nobody
//!   has asked for again since it entered ([`CachedPool::reasked`]), else
//!   the least recently used: a miss costs N upstream exchanges, so a
//!   once-asked name must not push out a pool that is being asked for. A
//!   deployment shards by giving each shard its own resolver, never
//!   inside one.
//! * **singleflight coalescing** — a miss for a key whose generation is in
//!   flight joins it instead of launching its own fan-out; what each key
//!   has upstream (its flight, a queued refresh) sits in an index beside
//!   the cache, found by one hash from the name a query lends,
//! * **stale-while-revalidate** — an expired entry within the stale window
//!   is served immediately and its key queued for a background refresh,
//!   which regenerates the pool off the query path
//!   ([`CachingPoolResolver::has_work`],
//!   [`CachingPoolResolver::begin_due_refreshes`]). A queued refresh is
//!   due at once: there is no refresh deadline, and the only instant a
//!   driver waits for is [`CachingPoolResolver::next_arrival`]. A refresh is
//!   a flight like any other, so the stale serves and misses that overlap
//!   it neither queue nor open a second one,
//! * a **stepwise entry** ([`CachingPoolResolver::begin`],
//!   [`CachingPoolResolver::poll`], [`CachingPoolResolver::arrive`]) that
//!   makes a generation, and what it has upstream, a piece of data instead
//!   of a call: see "The miss path" below.
//!
//! Serving cost drops from one generation per query to one generation per
//! `(domain, TTL window)` while every served answer still comes from a real
//! generation, preserving the paper's benign-fraction guarantee.
//!
//! # The miss path
//!
//! A miss opens a **flight**: one [`PoolSession`](crate::PoolSession) — the
//! per-generation sans-IO machine — registered under its key until its last
//! outcome has landed. `begin` parks the query under the flight's
//! [`FlightId`] (or under the flight already live for the key); `poll`
//! polls the flights with work — opened, or reached by an outcome, since
//! the last poll — in opening order, reports each flight whose exchanges
//! are all in as [`Landed`] — counted, cached (a failure negatively), its
//! queued refresh cancelled, and carrying the report its parked queries are
//! answered from — and, when it first says `None` (wait), departs what they
//! had to send as one batch through the exchanger's send half, so a cold
//! burst over K domains costs one round trip, not K. The batches upstream
//! are kept in due order: `arrive` takes the due ones off the front,
//! through the collect half, and feeds each outcome to its flight (found by
//! id), in any order; [`CachingPoolResolver::next_arrival`] is the front,
//! and [`CachingPoolResolver::has_work`] whether anything must be done
//! before then (a flight opened and not yet departed, or a refresh queued).
//! Each step visits only its own flights, keys and batches: a cache hit
//! pays nothing for the flights upstream, and a miss, a stale serve, an
//! arrival or a landing costs the same however many are upstream. Each
//! request of a batch is tagged with its flight and transaction, kept
//! beside the batch's receipt, so an outcome always lands where it belongs
//! and no tag leaves the crate. A driver keeps nothing of what is upstream:
//! it only decides when to wait.
//!
//! The blocking entry points — `handle_query`, `handle_query_wire`,
//! [`CachingPoolResolver::run_due_refreshes`],
//! [`CachingPoolResolver::resolve_pool`] — are `begin` (or
//! [`CachingPoolResolver::begin_due_refreshes`]) followed by the same
//! `poll` and `arrive` until the flight lands, except that each batch
//! departs completed, inside the call, through
//! [`Exchanger::exchange_all`](sdoh_dns_server::Exchanger::exchange_all):
//! the simulator drives the very steps a runtime shard takes — from the
//! thread that read the query and from its timer — and there is one miss
//! path.
//!
//! # The hit path
//!
//! Re-serving a cached pool is the common case by far, and successive
//! answers for one key differ only in id, RD bit, the spelling of the
//! question and the TTL. So the answer is encoded **once per generation,
//! not once per hit**:
//!
//! * *Built when an entry enters the cache* (a generation's insert, or
//!   [`CachingPoolResolver::install_entry`]): an
//!   [`AnswerTemplate`](sdoh_dns_wire::AnswerTemplate) — the records of
//!   the key's address family in wire form, stored beside the report.
//! * *Patched per hit*: the query is read where it lies
//!   ([`QueryView`](sdoh_dns_wire::QueryView)), the cache is probed with
//!   the name it lends, the lookup lends the entry out (nothing is cloned),
//!   and the front end's
//!   [`handle_query_wire`](sdoh_dns_server::QueryHandler::handle_query_wire)
//!   copies the template into the caller's buffer behind a fresh header
//!   and the echoed question, stamping the TTL — the remaining lifetime
//!   for a fresh hit, zero for a stale one. A hit allocates nothing. A pool
//!   that never reached the cache (a miss under a zero TTL) is rendered the
//!   same way from a template built on the spot, so every pool answer has
//!   one renderer.
//! * *Written from the view* is everything else on the wire path:
//!   rejections and SERVFAILs, and whatever the template cannot reproduce
//!   byte for byte (a query without exactly one question, the root name, a
//!   response over 64 KiB), through
//!   [`QueryView::write_response`](sdoh_dns_wire::QueryView::write_response).
//!   The [`Message`](sdoh_dns_wire::Message) path (build the response, then
//!   encode it) is for callers that want a `Message` — `handle_query`,
//!   [`CachingPoolResolver::resolve_pool`].
//!
//! Both forms run the same lookup, so hits, stale serves, negative hits,
//! misses, the eviction rank (recency and the re-asked bit) and the refresh
//! queue move identically whichever one answered.
//!
//! # Retuning a live resolver
//!
//! The knobs are read per query, never copied at construction, so
//! [`CachingPoolResolver::apply_config`] retunes TTLs, stale window,
//! negative caching and capacity on a resolver that is serving — given a
//! [`CacheConfig`], nothing else. Entries keep the expiry they were stamped
//! with at insert, but stale serving is bounded by **both** the stamped
//! expiry plus the *current* stale window and the current
//! `ttl + stale_window` horizon measured from generation, so across a
//! change every served answer's age is capped at the **maximum of the old
//! and new horizons** — the invariant the chaos campaigns and
//! `proptest_reconfig` check. Which change came when is not this layer's
//! business: an *epoch* is a number the control plane that fans the knobs
//! out counts (`sdoh-runtime`'s `ControlHandle`), and a resolver is told
//! the knobs, not the number.
//!
//! [`GenerationReport`]: crate::GenerationReport

mod cache;
mod resolver;
mod samples;

pub use cache::{
    AddressFamily, CacheConfig, CacheEntryProbe, CacheMetrics, CachedPool, ConfigError, EntryState,
    PoolKey,
};
pub use resolver::{
    CachingPoolResolver, FlightId, Landed, ResolvedPool, ServeMetrics, ServeSnapshot,
};
pub use samples::{
    snapshot_samples, APP_METRIC_HELP, METRIC_CONFIG_EPOCH, METRIC_DROPPED_QUERIES,
    METRIC_INVARIANT_VIOLATIONS, METRIC_SERVE_LATENCY, METRIC_SHARDS, METRIC_SHARD_ACKED_EPOCH,
    METRIC_TCP_QUERIES, METRIC_TIMER_LATENESS, METRIC_TIMESYNC_FAILURES,
    METRIC_TIMESYNC_POOL_REFRESHES, METRIC_TIMESYNC_SYNCS, METRIC_TRUNCATED_RESPONSES,
    METRIC_UDP_QUERIES, METRIC_UNRESPONSIVE_SHARDS, RUNTIME_METRIC_HELP, SERVE_GAUGE_HELP,
};

#[cfg(test)]
mod tests {
    /// What a resolver step visits, per thread so that each test counts its
    /// own: flights by their look-ups by id, keys by their hashes (the
    /// cache's and the key index's alike), batches by the readings of their
    /// due instant.
    pub(crate) mod visits {
        use std::cell::Cell;

        thread_local! {
            static COUNTS: Cell<[usize; 3]> = const { Cell::new([0; 3]) };
        }

        fn count(at: usize) {
            COUNTS.with(|counts| {
                let mut now = counts.get();
                now[at] += 1;
                counts.set(now);
            });
        }

        /// The flights, keys and batches visited since the last call.
        pub(crate) fn take() -> [usize; 3] {
            COUNTS.with(|counts| counts.replace([0; 3]))
        }

        pub(crate) fn flight() {
            count(0);
        }

        pub(crate) fn key() {
            count(1);
        }

        pub(crate) fn batch() {
            count(2);
        }
    }
}
