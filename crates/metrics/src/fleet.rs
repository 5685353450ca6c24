//! Fleet-wide rollups: aggregate scrapes from N runtime instances.
//!
//! The fleet aggregator polls each instance's `/metrics` endpoint, parses
//! the Prometheus text back into [`Sample`]s ([`crate::parse_prometheus`])
//! and folds them into one [`FleetRollup`]: counters summed, histograms
//! merged bucket-wise (gauges are averaged — they are levels, not
//! totals), plus a per-instance health table. [`scrape_fleet`] is the
//! network-facing wrapper the `fleet-aggregator` binary and the
//! `observability` experiment (E17, `sdoh-exp observability`) use.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

use crate::export::{parse_prometheus, render_prometheus};
use crate::http::http_get;
use crate::registry::{Sample, SampleValue};

/// One instance's contribution to a fleet rollup.
#[derive(Debug, Clone)]
pub struct InstanceScrape {
    /// How the instance is identified in rollups (address, name, …).
    pub instance: String,
    /// Parsed samples from the instance's `/metrics`, if the scrape
    /// succeeded.
    pub samples: Option<Vec<Sample>>,
    /// `/healthz` verdict: `Some(true)` healthy, `Some(false)` degraded,
    /// `None` unreachable/not probed.
    pub healthy: Option<bool>,
    /// Human-readable detail (health body or scrape error).
    pub detail: String,
}

/// One row of the per-instance health table.
#[derive(Debug, Clone)]
pub struct InstanceHealth {
    /// Instance identifier.
    pub instance: String,
    /// Whether the scrape produced samples.
    pub scraped: bool,
    /// `/healthz` verdict (see [`InstanceScrape::healthy`]).
    pub healthy: Option<bool>,
    /// Number of series the instance exported.
    pub series: usize,
    /// Health body or error detail.
    pub detail: String,
}

/// The fleet-wide aggregate of a set of instance scrapes.
#[derive(Debug, Clone)]
pub struct FleetRollup {
    /// Merged series: counters summed, histograms bucket-merged, gauges
    /// averaged over the instances that exported them.
    pub samples: Vec<Sample>,
    /// Per-instance health table, in scrape order.
    pub health: Vec<InstanceHealth>,
}

impl FleetRollup {
    /// Instances that produced samples.
    pub fn instances_scraped(&self) -> usize {
        self.health.iter().filter(|h| h.scraped).count()
    }

    /// The summed value of a counter family across the fleet (all label
    /// sets), or `None` if no instance exported it.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0u64;
        for sample in &self.samples {
            if sample.name == name {
                if let SampleValue::Counter(v) = sample.value {
                    found = true;
                    total += v;
                }
            }
        }
        found.then_some(total)
    }

    /// The merged histogram for `name` across all label sets, or `None`.
    pub fn histogram_merged(&self, name: &str) -> Option<crate::HistogramSnapshot> {
        let mut merged: Option<crate::HistogramSnapshot> = None;
        for sample in &self.samples {
            if sample.name == name {
                if let SampleValue::Histogram(h) = &sample.value {
                    merged.get_or_insert_with(Default::default).merge(h);
                }
            }
        }
        merged
    }

    /// Renders the rollup as a Prometheus exposition plus a commented
    /// health table — the `fleet-aggregator` binary's output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# Fleet rollup: ");
        out.push_str(&format!(
            "{}/{} instances scraped\n",
            self.instances_scraped(),
            self.health.len()
        ));
        for row in &self.health {
            out.push_str(&format!(
                "# instance {} scraped={} healthy={} series={} {}\n",
                row.instance,
                row.scraped,
                match row.healthy {
                    Some(true) => "yes",
                    Some(false) => "no",
                    None => "unknown",
                },
                row.series,
                row.detail.replace('\n', " ").trim()
            ));
        }
        out.push_str(&render_prometheus(&self.samples));
        out
    }
}

/// Folds instance scrapes into a [`FleetRollup`].
///
/// Series are keyed by `(name, labels)`: counters sum, histograms merge
/// bucket-wise, gauges average across the instances that exported the
/// series (a fleet-level queue depth is the mean depth, not the sum of
/// unrelated levels). Kind mismatches across instances keep the first
/// kind seen and ignore the conflicting sample.
pub fn aggregate(scrapes: &[InstanceScrape]) -> FleetRollup {
    // Same trade-off as `SampleValue`: the histogram variant dominates the
    // size, but folding happens once per scrape, not per query.
    #[allow(clippy::large_enum_variant)]
    #[derive(Clone)]
    enum Folded {
        Counter(u64),
        Gauge { sum: f64, n: u64 },
        Histogram(crate::HistogramSnapshot),
    }
    /// One series' identity across instances: metric name plus label set.
    type SeriesKey = (String, Vec<(String, String)>);
    let mut folded: BTreeMap<SeriesKey, (String, Folded)> = BTreeMap::new();
    let mut health = Vec::new();

    for scrape in scrapes {
        let series = scrape.samples.as_ref().map(|s| s.len()).unwrap_or(0);
        health.push(InstanceHealth {
            instance: scrape.instance.clone(),
            scraped: scrape.samples.is_some(),
            healthy: scrape.healthy,
            series,
            detail: scrape.detail.clone(),
        });
        let Some(samples) = &scrape.samples else {
            continue;
        };
        for sample in samples {
            let key = (sample.name.clone(), sample.labels.clone());
            match folded.get_mut(&key) {
                None => {
                    let value = match &sample.value {
                        SampleValue::Counter(v) => Folded::Counter(*v),
                        SampleValue::Gauge(v) => Folded::Gauge { sum: *v, n: 1 },
                        SampleValue::Histogram(h) => Folded::Histogram(*h),
                    };
                    folded.insert(key, (sample.help.clone(), value));
                }
                Some((help, value)) => {
                    if help.trim().is_empty() {
                        *help = sample.help.clone();
                    }
                    match (value, &sample.value) {
                        (Folded::Counter(total), SampleValue::Counter(v)) => *total += v,
                        (Folded::Gauge { sum, n }, SampleValue::Gauge(v)) => {
                            *sum += v;
                            *n += 1;
                        }
                        (Folded::Histogram(merged), SampleValue::Histogram(h)) => merged.merge(h),
                        _ => {} // kind conflict: keep the first kind seen
                    }
                }
            }
        }
    }

    let samples = folded
        .into_iter()
        .map(|((name, labels), (help, value))| Sample {
            name,
            help,
            labels,
            value: match value {
                Folded::Counter(v) => SampleValue::Counter(v),
                Folded::Gauge { sum, n } => SampleValue::Gauge(sum / n.max(1) as f64),
                Folded::Histogram(h) => SampleValue::Histogram(h),
            },
        })
        .collect();
    FleetRollup { samples, health }
}

/// Scrapes `/metrics` and `/healthz` from each address and aggregates.
/// Unreachable instances appear in the health table with `scraped:
/// false`; they never abort the rollup.
pub fn scrape_fleet(addrs: &[SocketAddr], timeout: Duration) -> FleetRollup {
    let scrapes: Vec<InstanceScrape> = addrs
        .iter()
        .map(|&addr| {
            let instance = addr.to_string();
            let healthy = http_get(addr, "/healthz", timeout)
                .ok()
                .map(|reply| reply.status == 200);
            match http_get(addr, "/metrics", timeout) {
                Ok(reply) if reply.status == 200 => match parse_prometheus(&reply.body) {
                    Ok(samples) => InstanceScrape {
                        instance,
                        samples: Some(samples),
                        healthy,
                        detail: String::new(),
                    },
                    Err(e) => InstanceScrape {
                        instance,
                        samples: None,
                        healthy,
                        detail: e.to_string(),
                    },
                },
                Ok(reply) => InstanceScrape {
                    instance,
                    samples: None,
                    healthy,
                    detail: format!("http {}", reply.status),
                },
                Err(e) => InstanceScrape {
                    instance,
                    samples: None,
                    healthy,
                    detail: e.to_string(),
                },
            }
        })
        .collect();
    aggregate(&scrapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn instance(name: &str, queries: u64, micros: &[u64]) -> InstanceScrape {
        let registry = Registry::new();
        registry
            .counter("sdoh_queries_total", "Queries received.")
            .add(queries);
        registry
            .gauge("sdoh_cache_entries", "Entries cached.")
            .set(10.0);
        let h = registry.histogram("sdoh_serve_latency_seconds", "Serve latency.");
        for &m in micros {
            h.record(Duration::from_micros(m));
        }
        InstanceScrape {
            instance: name.to_string(),
            samples: Some(registry.gather()),
            healthy: Some(true),
            detail: String::new(),
        }
    }

    #[test]
    fn counters_sum_gauges_average_histograms_merge() {
        let down = InstanceScrape {
            instance: "c".to_string(),
            samples: None,
            healthy: None,
            detail: "connection refused".to_string(),
        };
        let rollup = aggregate(&[
            instance("a", 100, &[10, 10, 500]),
            instance("b", 40, &[20]),
            down,
        ]);
        assert_eq!(rollup.counter_total("sdoh_queries_total"), Some(140));
        assert_eq!(rollup.counter_total("missing"), None);
        let merged = rollup
            .histogram_merged("sdoh_serve_latency_seconds")
            .unwrap();
        assert_eq!(merged.count(), 4);
        let gauge = rollup
            .samples
            .iter()
            .find(|s| s.name == "sdoh_cache_entries")
            .unwrap();
        assert_eq!(gauge.value, SampleValue::Gauge(10.0));

        assert_eq!(rollup.instances_scraped(), 2);
        assert_eq!(rollup.health.len(), 3);
        assert!(!rollup.health[2].scraped);
        let rendered = rollup.render();
        assert!(rendered.contains("# Fleet rollup: 2/3 instances scraped"));
        assert!(rendered.contains("# instance c scraped=false healthy=unknown"));
        assert!(rendered.contains("sdoh_queries_total 140"));
    }

    #[test]
    fn rollup_survives_a_prometheus_round_trip() {
        // A rollup rendered by one aggregator can be consumed by another:
        // render → parse → aggregate over one "instance" is lossless for
        // counters and histogram buckets.
        let rollup = aggregate(&[instance("a", 7, &[100, 200])]);
        let reparsed = parse_prometheus(&render_prometheus(&rollup.samples)).unwrap();
        let again = aggregate(&[InstanceScrape {
            instance: "rollup".to_string(),
            samples: Some(reparsed),
            healthy: Some(true),
            detail: String::new(),
        }]);
        assert_eq!(again.counter_total("sdoh_queries_total"), Some(7));
        assert_eq!(
            again
                .histogram_merged("sdoh_serve_latency_seconds")
                .unwrap()
                .buckets,
            rollup
                .histogram_merged("sdoh_serve_latency_seconds")
                .unwrap()
                .buckets
        );
    }

    #[test]
    fn scrape_fleet_marks_unreachable_instances() {
        // Port 1 on localhost: nothing listens there.
        let rollup = scrape_fleet(
            &[SocketAddr::from(([127, 0, 0, 1], 1))],
            Duration::from_millis(100),
        );
        assert_eq!(rollup.instances_scraped(), 0);
        assert_eq!(rollup.health.len(), 1);
        assert!(!rollup.health[0].detail.is_empty());
    }
}
