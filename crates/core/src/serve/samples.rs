//! The serve layer's export vocabulary: [`ServeSnapshot`] → metric
//! [`Sample`]s.
//!
//! This module is the single source of truth for the metric names and help
//! strings of every serving counter — the runtime's `/metrics` endpoint
//! and the experiments both speak this vocabulary, so a counter renamed
//! here renames everywhere (and the CI help-string lint checks this table,
//! not scattered call sites).

use sdoh_metrics::{Sample, SampleValue};

use super::resolver::ServeSnapshot;

/// One monotone serving counter: its metric name, its help text and the
/// [`ServeSnapshot`] field it reads.
pub(super) type ServeCounter = (
    &'static str,
    &'static str,
    fn(&mut ServeSnapshot) -> &mut u64,
);

/// Every monotone counter of a [`ServeSnapshot`], in export order: the one
/// list [`snapshot_samples`], [`ServeSnapshot::absorb`] and
/// [`ServeSnapshot::regressions`] walk, so a counter is named once.
pub(super) const SERVE_COUNTERS: &[ServeCounter] = &[
    (
        "sdoh_serve_queries_total",
        "Address queries received by the serving layer (after protocol-level rejection).",
        |s| &mut s.serve.queries,
    ),
    (
        "sdoh_serve_rejected_total",
        "Queries rejected before lookup (no question or non-address type).",
        |s| &mut s.serve.rejected,
    ),
    (
        "sdoh_serve_hits_total",
        "Queries answered from a fresh cache entry.",
        |s| &mut s.serve.hits,
    ),
    (
        "sdoh_serve_stale_serves_total",
        "Queries answered from a stale entry while a background refresh was queued.",
        |s| &mut s.serve.stale_serves,
    ),
    (
        "sdoh_serve_negative_hits_total",
        "Queries answered SERVFAIL from a cached generation failure (negative caching).",
        |s| &mut s.serve.negative_hits,
    ),
    (
        "sdoh_serve_misses_total",
        "Queries that found no usable entry and triggered (or joined) a generation.",
        |s| &mut s.serve.misses,
    ),
    (
        "sdoh_serve_coalesced_waiters_total",
        "Misses that attached to another query's in-flight generation (singleflight).",
        |s| &mut s.serve.coalesced_waiters,
    ),
    (
        "sdoh_generations_total",
        "Pool generations performed (demand misses plus background refreshes).",
        |s| &mut s.serve.generations,
    ),
    (
        "sdoh_generation_failures_total",
        "Pool generations that failed and were negatively cached.",
        |s| &mut s.serve.generation_failures,
    ),
    (
        "sdoh_refreshes_total",
        "Background refresh generations performed off the query path.",
        |s| &mut s.serve.refreshes,
    ),
    (
        "sdoh_source_answers_total",
        "Per-resolver lookups that produced a usable answer, across all generations.",
        |s| &mut s.serve.source_answers,
    ),
    (
        "sdoh_source_failures_total",
        "Per-resolver lookups that failed, across all generations.",
        |s| &mut s.serve.source_failures,
    ),
    (
        "sdoh_cache_insertions_total",
        "Cache entries inserted.",
        |s| &mut s.cache.insertions,
    ),
    (
        "sdoh_cache_evictions_total",
        "Cache entries evicted to make room: dead entries first, then pools never asked for \
         again, then the least recently used.",
        |s| &mut s.cache.evictions,
    ),
    (
        "sdoh_cache_reasked_evictions_total",
        "Evictions that took a servable pool somebody had asked for again. Evictions without \
         these are a tail or a scan of once-asked names being absorbed; with them the working \
         set exceeds the capacity.",
        |s| &mut s.cache.reasked_evictions,
    ),
    (
        "sdoh_cache_expirations_total",
        "Cache entries dropped because they were expired beyond use.",
        |s| &mut s.cache.expirations,
    ),
];

// ---------------------------------------------------------------------
// Metrics exported outside the serve layer. They live here — in the same
// vocabulary module as the serve tables — because this file is the single
// source of truth the `metrics-vocabulary` lint holds every exporter to: a
// metric-name literal anywhere else in the workspace must appear in this
// file with a help string, or `sdoh-lint` rejects it as drift.
// ---------------------------------------------------------------------

/// Front door: datagrams accepted by the UDP dispatcher.
pub const METRIC_UDP_QUERIES: (&str, &str) = (
    "sdoh_udp_queries_total",
    "Datagrams accepted by the UDP dispatcher.",
);
/// Front door: queries accepted over the TCP fallback listener.
pub const METRIC_TCP_QUERIES: (&str, &str) = (
    "sdoh_tcp_queries_total",
    "Queries accepted over the TCP fallback listener.",
);
/// Front door: UDP responses truncated to TC=1.
pub const METRIC_TRUNCATED_RESPONSES: (&str, &str) = (
    "sdoh_truncated_responses_total",
    "UDP responses truncated to TC=1 because they exceeded the payload limit.",
);
/// Front door: accepted queries that found no shard to serve them.
pub const METRIC_DROPPED_QUERIES: (&str, &str) = (
    "sdoh_dropped_queries_total",
    "Accepted queries that found no shard to serve them \
     (zero during normal operation, reconfigurations included).",
);
/// Hot path: per-query serving latency histogram, labelled by shard.
pub const METRIC_SERVE_LATENCY: (&str, &str) = (
    "sdoh_serve_latency_seconds",
    "Wall-clock latency of serving one query on its shard, from the moment \
     the socket thread that read it starts serving it (before parse, route and \
     the wait for the shard's lock) until its answer is ready to leave (the send \
     itself is not timed).",
);
/// Hot path: how late the shard timer woke, per timer pass that steps a shard.
pub const METRIC_TIMER_LATENESS: (&str, &str) = (
    "sdoh_timer_lateness_seconds",
    "How long after the earliest alarm the shard timer woke, per pass that steps a shard.",
);
/// Control plane: serving shards of this instance.
pub const METRIC_SHARDS: (&str, &str) = (
    "sdoh_shards",
    "Serving shards of this instance (each a resolver behind a lock of its own).",
);
/// Control plane: shards that missed the latest snapshot deadline.
pub const METRIC_UNRESPONSIVE_SHARDS: (&str, &str) = (
    "sdoh_unresponsive_shards",
    "Shards that missed the latest snapshot deadline (their lock held past it).",
);
/// Control plane: the most recently published config epoch.
pub const METRIC_CONFIG_EPOCH: (&str, &str) = (
    "sdoh_config_epoch",
    "The config epoch most recently published by the control plane.",
);
/// Control plane: the config epoch each shard last acknowledged.
pub const METRIC_SHARD_ACKED_EPOCH: (&str, &str) = (
    "sdoh_shard_acked_epoch",
    "The config epoch this shard last acknowledged.",
);
/// Chaos: invariant breaches recorded by the campaign monitor.
pub const METRIC_INVARIANT_VIOLATIONS: (&str, &str) = (
    "sdoh_invariant_violations_total",
    "Invariant breaches recorded by the chaos campaign monitor \
     (guarantee, clock, monotonicity, cache age, accounting).",
);
/// Time sync: successful Chronos updates.
pub const METRIC_TIMESYNC_SYNCS: (&str, &str) = (
    "sdoh_timesync_syncs_total",
    "Successful time synchronizations (Chronos accepted an update).",
);
/// Time sync: failed synchronizations.
pub const METRIC_TIMESYNC_FAILURES: (&str, &str) = (
    "sdoh_timesync_failures_total",
    "Failed time synchronizations (pool fetch, empty pool or Chronos rejection).",
);
/// Time sync: pool re-pulls after a TTL window elapsed.
pub const METRIC_TIMESYNC_POOL_REFRESHES: (&str, &str) = (
    "sdoh_timesync_pool_refreshes_total",
    "NTP server pool re-pulls after a TTL window elapsed.",
);

/// `(name, help)` rows of the front-door and control-plane metrics
/// exported by `sdoh-runtime` (in addition to the serve tables above).
pub const RUNTIME_METRIC_HELP: &[(&str, &str)] = &[
    METRIC_UDP_QUERIES,
    METRIC_TCP_QUERIES,
    METRIC_TRUNCATED_RESPONSES,
    METRIC_DROPPED_QUERIES,
    METRIC_SERVE_LATENCY,
    METRIC_TIMER_LATENESS,
    METRIC_SHARDS,
    METRIC_UNRESPONSIVE_SHARDS,
    METRIC_CONFIG_EPOCH,
    METRIC_SHARD_ACKED_EPOCH,
    (
        "sdoh_shard_wakes_total",
        "Times a socket thread moved the shard timer earlier: serving a query \
         left its shard something due before the shard's alarm.",
    ),
];

/// `(name, help)` rows of the application-layer metrics: the secure time
/// client and the chaos invariant monitor.
pub const APP_METRIC_HELP: &[(&str, &str)] = &[
    METRIC_INVARIANT_VIOLATIONS,
    METRIC_TIMESYNC_SYNCS,
    METRIC_TIMESYNC_FAILURES,
    METRIC_TIMESYNC_POOL_REFRESHES,
];

/// `(name, help)` rows of every gauge exported from a [`ServeSnapshot`].
pub const SERVE_GAUGE_HELP: &[(&str, &str)] = &[
    (
        "sdoh_cache_entries",
        "Entries currently cached (including not-yet-purged expired ones).",
    ),
    (
        "sdoh_pending_refreshes",
        "Background refreshes currently queued.",
    ),
    (
        "sdoh_live_generations",
        "Pool generations currently in flight (opened by a miss or a due refresh, not landed yet).",
    ),
    (
        "sdoh_serve_hit_ratio",
        "Fraction of address queries served without a generation on the query path.",
    ),
    (
        "sdoh_last_generation_seconds",
        "Virtual time the most recently landed generation took, in seconds.",
    ),
    GENERATION_SECONDS,
];

/// The one monotone reading of a [`ServeSnapshot`] that is not a count:
/// exported as a gauge, watched by [`ServeSnapshot::regressions`] too.
pub(super) const GENERATION_SECONDS: (&str, &str) = (
    "sdoh_generation_seconds_total",
    "Total virtual time generations spent in flight, in seconds.",
);

/// Renders one [`ServeSnapshot`] as export samples under the given label
/// set (e.g. `&[]` for an instance aggregate, `[("shard", "3")]` for one
/// shard). Counter values come straight from the snapshot's cumulative
/// fields, so successive scrapes of a live resolver are monotone.
pub fn snapshot_samples(snapshot: &ServeSnapshot, labels: &[(&str, &str)]) -> Vec<Sample> {
    let mut fields = *snapshot;
    let gauges: [f64; 6] = [
        snapshot.entries as f64,
        snapshot.pending_refreshes as f64,
        snapshot.live_generations as f64,
        snapshot.serve.hit_ratio(),
        snapshot.serve.last_generation_latency.as_secs_f64(),
        snapshot.serve.total_generation_latency.as_secs_f64(),
    ];
    let owned_labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let sample = |name: &str, help: &str, value| Sample {
        name: name.to_string(),
        help: help.to_string(),
        labels: owned_labels.clone(),
        value,
    };
    let mut samples = Vec::with_capacity(SERVE_COUNTERS.len() + gauges.len());
    for (name, help, field) in SERVE_COUNTERS {
        let value = SampleValue::Counter(*field(&mut fields));
        samples.push(sample(name, help, value));
    }
    for ((name, help), value) in SERVE_GAUGE_HELP.iter().zip(gauges) {
        samples.push(sample(name, help, SampleValue::Gauge(value)));
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn every_snapshot_field_exports_with_help() {
        let mut snapshot = ServeSnapshot::default();
        snapshot.serve.queries = 10;
        snapshot.serve.hits = 7;
        snapshot.serve.misses = 3;
        snapshot.serve.generations = 3;
        snapshot.cache.insertions = 3;
        snapshot.entries = 3;
        snapshot.live_generations = 2;
        snapshot.serve.total_generation_latency = Duration::from_millis(1500);

        let samples = snapshot_samples(&snapshot, &[("shard", "2")]);
        assert_eq!(samples.len(), SERVE_COUNTERS.len() + SERVE_GAUGE_HELP.len());
        for sample in &samples {
            assert!(!sample.help.trim().is_empty(), "{} lacks help", sample.name);
            assert_eq!(sample.labels, vec![("shard".to_string(), "2".to_string())]);
        }
        let by_name = |name: &str| match samples.iter().find(|sample| sample.name == name) {
            Some(sample) => sample.value.clone(),
            None => panic!("no sample named `{name}`"),
        };
        assert_eq!(
            by_name("sdoh_serve_queries_total"),
            SampleValue::Counter(10)
        );
        assert_eq!(by_name("sdoh_serve_hits_total"), SampleValue::Counter(7));
        assert_eq!(by_name("sdoh_generations_total"), SampleValue::Counter(3));
        assert_eq!(by_name("sdoh_cache_entries"), SampleValue::Gauge(3.0));
        assert_eq!(by_name("sdoh_live_generations"), SampleValue::Gauge(2.0));
        assert_eq!(by_name("sdoh_serve_hit_ratio"), SampleValue::Gauge(0.7));
        assert_eq!(
            by_name("sdoh_generation_seconds_total"),
            SampleValue::Gauge(1.5)
        );
    }

    #[test]
    fn vocabulary_names_are_unique_and_valid() {
        let mut names: Vec<&str> = SERVE_COUNTERS
            .iter()
            .map(|(name, _, _)| *name)
            .chain(
                SERVE_GAUGE_HELP
                    .iter()
                    .chain(RUNTIME_METRIC_HELP)
                    .chain(APP_METRIC_HELP)
                    .map(|(name, _)| *name),
            )
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names in vocabulary");
        for name in names {
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{name} is not a valid metric name"
            );
        }
    }

    #[test]
    fn every_counter_row_reads_its_own_field() {
        // A distinct value through every row: a row that aliases another
        // row's field overwrites it, and the export shows the loss.
        let mut snapshot = ServeSnapshot::default();
        for (value, (_, _, field)) in (1..).zip(SERVE_COUNTERS) {
            *field(&mut snapshot) = value;
        }
        let samples = snapshot_samples(&snapshot, &[]);
        for (value, (name, _, _)) in (1..).zip(SERVE_COUNTERS) {
            let sample = samples.iter().find(|sample| sample.name == *name);
            assert_eq!(
                sample.map(|sample| &sample.value),
                Some(&SampleValue::Counter(value)),
                "{name}"
            );
        }
        // Absorbing a snapshot into its copy doubles every row.
        let mut doubled = snapshot;
        doubled.absorb(&snapshot);
        for (value, (name, _, field)) in (1..).zip(SERVE_COUNTERS) {
            assert_eq!(*field(&mut doubled), 2 * value, "{name}");
        }
        // Lowering any one row is a regression of exactly that row.
        assert!(snapshot.regressions(&snapshot).is_empty());
        for (name, _, field) in SERVE_COUNTERS {
            let mut lowered = snapshot;
            *field(&mut lowered) -= 1;
            assert_eq!(lowered.regressions(&snapshot), vec![*name]);
        }
        let mut lowered = snapshot;
        lowered.serve.total_generation_latency = Duration::from_millis(1);
        snapshot.serve.total_generation_latency = Duration::from_millis(2);
        assert_eq!(lowered.regressions(&snapshot), vec![GENERATION_SECONDS.0]);
    }
}
