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
//!   refreshes, …). Everything below is its private machinery; what it
//!   caches and for how long is a [`CacheConfig`], and
//!   [`CacheConfig::uncached`] is the generation-per-query front end.
//! * a **TTL cache** of [`GenerationReport`]s keyed by
//!   `(domain, address family)` ([`PoolKey`]): one map under an exact
//!   LRU capacity bound, with negative caching of generation failures and
//!   a stale window. A deployment shards by giving each worker its own
//!   resolver, never inside one.
//! * **singleflight coalescing** — concurrent misses for the same key
//!   share one in-flight generation instead of each launching its own
//!   fan-out ([`CachingPoolResolver::serve_batch`]),
//! * **stale-while-revalidate** — an expired entry within the stale window
//!   is served immediately while a background refresh regenerates the pool
//!   off the query path ([`CachingPoolResolver::next_refresh_due`],
//!   [`CachingPoolResolver::run_due_refreshes`]),
//! * a sans-IO serve session driving the generations of a whole serving
//!   batch as one overlapped fan-out (scheduled via `poll()`/`WaitUntil`,
//!   so it composes with the simulator's virtual clock).
//!
//! Serving cost drops from one generation per query to one generation per
//! `(domain, TTL window)` while every served answer still comes from a real
//! generation, preserving the paper's benign-fraction guarantee.
//!
//! # The hit path
//!
//! Re-serving a cached pool is the common case by far, and successive
//! answers for one key differ only in id, RD bit, the spelling of the
//! question and the TTL. So the answer is encoded **once per generation,
//! not once per hit**:
//!
//! * *Built when an entry enters the cache* (a generation's insert, or
//!   [`CachingPoolResolver::install_entry`] on a shard hand-off): an
//!   [`AnswerTemplate`](sdoh_dns_wire::AnswerTemplate) — the records of
//!   the key's address family in wire form, stored beside the report.
//! * *Patched per hit*: the cache lookup lends the entry out (nothing is
//!   cloned), and the front end's
//!   [`handle_query_wire`](sdoh_dns_server::QueryHandler::handle_query_wire)
//!   copies the template into the caller's buffer behind a fresh header
//!   and the echoed question, stamping the TTL — the remaining lifetime
//!   for a fresh hit, zero for a stale one. A pool that never reached the
//!   cache (a miss under a zero TTL) is rendered the same way from a
//!   template built on the spot, so every pool answer has one renderer.
//! * *The [`Message`](sdoh_dns_wire::Message) path* (build the response,
//!   then encode it) remains for everything else: rejections and
//!   SERVFAILs, whatever the template cannot reproduce byte for byte (a
//!   query without exactly one question, the root name, a response over
//!   64 KiB), and callers that want a `Message` — `handle_query`,
//!   [`CachingPoolResolver::serve_batch`],
//!   [`CachingPoolResolver::resolve_pool`].
//!
//! Both forms run the same lookup, so hits, stale serves, negative hits,
//! misses, the LRU tick and the refresh queue move identically whichever
//! one answered.
//!
//! [`GenerationReport`]: crate::GenerationReport

mod cache;
mod epoch;
mod refresh;
mod resolver;
mod samples;
mod session;
mod singleflight;

pub use cache::{
    AddressFamily, CacheConfig, CacheEntryProbe, CacheMetrics, CachedPool, EntryState, PoolKey,
};
pub use epoch::{ConfigError, ServeConfig};
pub use resolver::{CachingPoolResolver, ResolvedPool, ServeMetrics, ServeSnapshot};
pub use samples::{
    snapshot_samples, APP_METRIC_HELP, METRIC_CONFIG_EPOCH, METRIC_DROPPED_QUERIES,
    METRIC_INVARIANT_VIOLATIONS, METRIC_SERVE_LATENCY, METRIC_SHARDS, METRIC_SHARD_ACKED_EPOCH,
    METRIC_TCP_QUERIES, METRIC_TIMESYNC_FAILURES, METRIC_TIMESYNC_POOL_REFRESHES,
    METRIC_TIMESYNC_SYNCS, METRIC_TRUNCATED_RESPONSES, METRIC_UDP_QUERIES,
    METRIC_UNRESPONSIVE_SHARDS, RUNTIME_METRIC_HELP, SERVE_COUNTER_HELP, SERVE_GAUGE_HELP,
};
