//! The metrics registry: named, labelled, help-annotated metric families.
//!
//! Recording stays lock-free — handles returned by registration are
//! atomics shared with the recording site — and the registry's own lock is
//! touched only at registration and scrape time (*lock-light*): the hot
//! path never sees it.

use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metric::{Counter, Gauge};

/// What kind of time series a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Free-moving scalar.
    Gauge,
    /// Bucketed latency distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A sample's value.
///
/// The histogram variant is an order of magnitude larger than the scalar
/// ones, but samples exist only on the scrape path (gather/render/parse),
/// never per query, so the footprint is irrelevant and boxing would only
/// add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One scraped time series: a metric name, its metadata, one label set and
/// the current value. The unit both exporters render and
/// [`parse_prometheus`](crate::parse_prometheus) reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric family name (`snake_case`, e.g. `sdoh_queries_total`).
    pub name: String,
    /// Help string shown in the Prometheus exposition.
    pub help: String,
    /// Label pairs identifying this series within the family.
    pub labels: Vec<(String, String)>,
    /// The current value.
    pub value: SampleValue,
}

impl Sample {
    /// The sample's kind, implied by its value.
    pub fn kind(&self) -> MetricKind {
        match self.value {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Error of [`find_sample`]: the requested metric name is absent from a
/// sample set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleMissing {
    /// The name that was looked up.
    pub name: String,
}

impl std::fmt::Display for SampleMissing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no sample named `{}` in the scrape", self.name)
    }
}

impl std::error::Error for SampleMissing {}

/// Finds the first sample with the given family name, reporting which
/// name was missing instead of panicking — the lookup exporters, tests
/// and reconcilers should use rather than `unwrap_or_else(|| panic!(...))`.
pub fn find_sample<'a>(samples: &'a [Sample], name: &str) -> Result<&'a Sample, SampleMissing> {
    samples
        .iter()
        .find(|sample| sample.name == name)
        .ok_or_else(|| SampleMissing {
            name: name.to_string(),
        })
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registered {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A collector is polled at scrape time for samples the registry does not
/// own directly — e.g. the serving shards' snapshot counters, which live
/// inside worker threads and are fetched over a channel per scrape.
pub type Collector = Box<dyn Fn() -> Vec<Sample> + Send + Sync>;

/// The registry. Cheap to clone (handles share one store); `Send + Sync`.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Default)]
struct Inner {
    metrics: Vec<Registered>,
    collectors: Vec<Collector>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The store lock, recovering from poisoning: a panic in one
    /// registration (a programmer error, by contract) must not wedge every
    /// later scrape.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a counter without labels. See [`Registry::counter_with`].
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers a labelled counter and returns the recording handle.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or a duplicate `(name, labels)`
    /// registration — both programmer errors. An empty help string is
    /// accepted but flagged by [`Registry::lint`].
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let counter = Counter::new();
        self.insert(name, help, labels, Metric::Counter(counter.clone()));
        counter
    }

    /// Registers a gauge without labels.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers a labelled gauge and returns the recording handle.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let gauge = Gauge::new();
        self.insert(name, help, labels, Metric::Gauge(gauge.clone()));
        gauge
    }

    /// Registers a labelled histogram and returns the recording handle.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let histogram = Histogram::new();
        self.insert(name, help, labels, Metric::Histogram(histogram.clone()));
        histogram
    }

    /// Registers a scrape-time collector (see [`Collector`]).
    pub fn register_collector(&self, collector: Collector) {
        self.lock().collectors.push(collector);
    }

    fn insert(&self, name: &str, help: &str, labels: &[(&str, &str)], metric: Metric) {
        assert!(
            valid_metric_name(name),
            "invalid metric name {name:?}: use [a-zA-Z_][a-zA-Z0-9_]*"
        );
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(
                    valid_metric_name(k),
                    "invalid label name {k:?} on metric {name:?}"
                );
                (k.to_string(), v.to_string())
            })
            .collect();
        let mut inner = self.lock();
        assert!(
            !inner
                .metrics
                .iter()
                .any(|m| m.name == name && m.labels == labels),
            "metric {name:?} with labels {labels:?} registered twice"
        );
        inner.metrics.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            metric,
        });
    }

    /// Takes one scrape: every owned metric's current value plus every
    /// collector's output, sorted by `(name, labels)` so renderings are
    /// deterministic.
    pub fn gather(&self) -> Vec<Sample> {
        let inner = self.lock();
        let mut samples: Vec<Sample> = inner
            .metrics
            .iter()
            .map(|registered| Sample {
                name: registered.name.clone(),
                help: registered.help.clone(),
                labels: registered.labels.clone(),
                value: match &registered.metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        for collector in &inner.collectors {
            samples.extend(collector());
        }
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        samples
    }

    /// Lints the registry (and one gathered scrape, covering collectors):
    /// returns the names of series whose help string is empty. CI runs this
    /// against the full runtime registry so every public counter ships with
    /// operator-readable documentation.
    pub fn lint(&self) -> Vec<String> {
        let mut missing: Vec<String> = self
            .gather()
            .iter()
            .filter(|sample| sample.help.trim().is_empty())
            .map(|sample| sample.name.clone())
            .collect();
        missing.dedup();
        missing
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("metrics", &inner.metrics.len())
            .field("collectors", &inner.collectors.len())
            .finish()
    }
}

/// Prometheus metric/label name shape.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn gather_reflects_live_handles_and_sorts() {
        let registry = Registry::new();
        let queries = registry.counter("queries_total", "Queries served.");
        let depth = registry.gauge("queue_depth", "Work items queued.");
        let latency = registry.histogram_with("latency_seconds", "Serve latency.", &[]);
        queries.add(3);
        depth.set(2.0);
        latency.record(Duration::from_micros(100));

        let samples = registry.gather();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].name, "latency_seconds");
        assert_eq!(samples[0].kind(), MetricKind::Histogram);
        assert_eq!(samples[1].value, SampleValue::Counter(3));
        assert_eq!(samples[2].value, SampleValue::Gauge(2.0));
        assert!(registry.lint().is_empty());
    }

    #[test]
    fn labels_distinguish_series_and_duplicates_panic() {
        let registry = Registry::new();
        let a = registry.counter_with(
            "shard_queries_total",
            "Per-shard queries.",
            &[("shard", "0")],
        );
        let b = registry.counter_with(
            "shard_queries_total",
            "Per-shard queries.",
            &[("shard", "1")],
        );
        a.inc();
        b.add(2);
        let samples = registry.gather();
        assert_eq!(
            samples[0].labels,
            vec![("shard".to_string(), "0".to_string())]
        );
        assert_eq!(samples[0].value, SampleValue::Counter(1));
        assert_eq!(samples[1].value, SampleValue::Counter(2));

        let duplicate = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.counter_with("shard_queries_total", "again", &[("shard", "0")])
        }));
        assert!(duplicate.is_err(), "duplicate series must panic");
        let bad_name = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.counter("0bad", "help")
        }));
        assert!(bad_name.is_err(), "invalid name must panic");
    }

    #[test]
    fn collectors_feed_the_scrape_and_the_lint() {
        let registry = Registry::new();
        registry.register_collector(Box::new(|| {
            vec![Sample {
                name: "collected_total".to_string(),
                help: String::new(), // deliberately missing
                labels: Vec::new(),
                value: SampleValue::Counter(9),
            }]
        }));
        let samples = registry.gather();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].value, SampleValue::Counter(9));
        assert_eq!(registry.lint(), vec!["collected_total".to_string()]);
    }

    #[test]
    fn find_sample_reports_the_missing_name_instead_of_panicking() {
        let registry = Registry::new();
        registry.counter("present_total", "here").inc();
        let samples = registry.gather();
        assert_eq!(
            find_sample(&samples, "present_total").map(|s| s.value.clone()),
            Ok(SampleValue::Counter(1))
        );
        let missing = find_sample(&samples, "absent_total");
        assert_eq!(
            missing,
            Err(SampleMissing {
                name: "absent_total".to_string()
            })
        );
        assert_eq!(
            missing.map(|_| ()).unwrap_err().to_string(),
            "no sample named `absent_total` in the scrape"
        );
    }
}
