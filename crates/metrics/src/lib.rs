//! # sdoh-metrics — the runtime's observability plane
//!
//! A lock-light metrics layer for the secure-DoH runtime: recording sites
//! hold atomic handles ([`Counter`], [`Gauge`], [`Histogram`]) and never
//! take a lock; the [`Registry`]'s mutex is touched only at registration
//! and scrape time. Latency histograms use fixed power-of-two buckets so
//! recording an observation on the serving hot path is two relaxed
//! `fetch_add`s and an integer log2 — no allocation, no float.
//!
//! On top of the registry sit:
//!
//! * the exporters — [`render_prometheus`] (text exposition) and
//!   [`render_json`], plus [`parse_prometheus`] for reading an exposition
//!   back into samples;
//! * a tiny HTTP stats listener ([`StatsServer`]) serving `/metrics`,
//!   `/metrics.json` and `/healthz` from a runtime, with [`http_get`] as
//!   the matching scrape client.
//!
//! ```
//! use sdoh_metrics::{Registry, render_prometheus};
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let queries = registry.counter("queries_total", "Queries served.");
//! let latency = registry.histogram_with("serve_latency_seconds", "Per-query latency.", &[]);
//! queries.inc();
//! latency.record(Duration::from_micros(120));
//!
//! let text = render_prometheus(&registry.gather());
//! assert!(text.contains("queries_total 1"));
//! let p99 = latency.snapshot().quantile(0.99).unwrap();
//! assert!(p99 >= Duration::from_micros(120)); // within one bucket above
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod histogram;
pub mod http;
pub mod metric;
pub mod registry;

pub use export::{parse_prometheus, render_json, render_prometheus, ParseError};
pub use histogram::{bucket_bound, Histogram, HistogramSnapshot, BUCKETS, FINITE_BUCKETS};
pub use http::{http_get, Handler, HttpBody, HttpResponse, StatsServer};
pub use metric::{Counter, Gauge};
pub use registry::{
    find_sample, Collector, MetricKind, Registry, Sample, SampleMissing, SampleValue,
};
