//! Rendering and parsing the one export format:
//!
//! * [`render_prometheus`] — the Prometheus text exposition format
//!   (`# HELP`/`# TYPE` headers, cumulative `_bucket{le=…}` histogram
//!   series with `_sum`/`_count`, label escaping);
//! * [`parse_prometheus`] — the inverse of [`render_prometheus`]: a
//!   scraper reads a `/metrics` body back into samples and re-assembles
//!   the histogram snapshots for merging.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::histogram::{bucket_bound, HistogramSnapshot, BUCKETS};
use crate::registry::{MetricKind, Sample, SampleValue};

/// Renders one scrape in the Prometheus text exposition format.
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for sample in samples {
        if last_family != Some(sample.name.as_str()) {
            if !sample.help.trim().is_empty() {
                out.push_str(&format!(
                    "# HELP {} {}\n",
                    sample.name,
                    escape_help(&sample.help)
                ));
            }
            out.push_str(&format!(
                "# TYPE {} {}\n",
                sample.name,
                sample.kind().as_str()
            ));
            last_family = Some(sample.name.as_str());
        }
        match &sample.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {v}\n",
                    sample.name,
                    render_labels(&sample.labels, None)
                ));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {v}\n",
                    sample.name,
                    render_labels(&sample.labels, None)
                ));
            }
            SampleValue::Histogram(snapshot) => {
                let mut cumulative = 0u64;
                for (index, count) in snapshot.buckets.iter().enumerate() {
                    cumulative += count;
                    let le = match bucket_bound(index) {
                        Some(bound) => format_seconds(bound),
                        None => "+Inf".to_string(),
                    };
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        sample.name,
                        render_labels(&sample.labels, Some(&le))
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    sample.name,
                    render_labels(&sample.labels, None),
                    Duration::from_nanos(snapshot.sum_nanos).as_secs_f64()
                ));
                out.push_str(&format!(
                    "{}_count{} {cumulative}\n",
                    sample.name,
                    render_labels(&sample.labels, None)
                ));
            }
        }
    }
    out
}

/// A parse failure of [`parse_prometheus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The offending line (1-based) and what was wrong with it.
    pub detail: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prometheus parse error: {}", self.detail)
    }
}

impl std::error::Error for ParseError {}

/// Parses a Prometheus text exposition back into [`Sample`]s — what a
/// scrape of `/metrics` is read with. Counter/gauge kinds come from the `# TYPE`
/// headers; `_bucket`/`_sum`/`_count` series of a histogram family are
/// re-assembled into [`HistogramSnapshot`]s (the bucket layout is this
/// crate's own, so `le` bounds map back onto bucket indexes exactly).
pub fn parse_prometheus(text: &str) -> Result<Vec<Sample>, ParseError> {
    let mut kinds: BTreeMap<String, MetricKind> = BTreeMap::new();
    let mut helps: BTreeMap<String, String> = BTreeMap::new();
    let mut scalars: Vec<Sample> = Vec::new();
    // (family, labels-without-le) -> partially assembled histogram.
    let mut histograms: BTreeMap<(String, Vec<(String, String)>), PartialHistogram> =
        BTreeMap::new();

    for (number, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return Err(error(number, "malformed TYPE line"));
            };
            let kind = match kind {
                "counter" => MetricKind::Counter,
                "gauge" => MetricKind::Gauge,
                "histogram" => MetricKind::Histogram,
                other => return Err(error(number, &format!("unknown metric type {other:?}"))),
            };
            kinds.insert(name.to_string(), kind);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if let Some((name, help)) = rest.split_once(' ') {
                helps.insert(name.to_string(), help.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }

        let (series, labels, value) = parse_series_line(line)
            .ok_or_else(|| error(number, &format!("malformed sample line {line:?}")))?;

        // Histogram component series?
        let family_of = |suffix: &str| -> Option<String> {
            let family = series.strip_suffix(suffix)?;
            (kinds.get(family) == Some(&MetricKind::Histogram)).then(|| family.to_string())
        };
        if let Some(family) = family_of("_bucket") {
            let mut le = None;
            let rest: Vec<(String, String)> = labels
                .into_iter()
                .filter(|(k, v)| {
                    if k == "le" {
                        le = Some(v.clone());
                        false
                    } else {
                        true
                    }
                })
                .collect();
            let le = le.ok_or_else(|| error(number, "_bucket series without le label"))?;
            let cumulative = as_count(value);
            let partial = histograms.entry((family, rest)).or_default();
            let index = bucket_index_for_le(&le)
                .ok_or_else(|| error(number, &format!("unknown bucket bound le={le:?}")))?;
            if let Some(slot) = partial.cumulative.get_mut(index) {
                *slot = Some(cumulative);
            }
        } else if let Some(family) = family_of("_sum") {
            histograms.entry((family, labels)).or_default().sum_seconds = value;
        } else if let Some(family) = family_of("_count") {
            histograms.entry((family, labels)).or_default().count = Some(as_count(value));
        } else {
            let kind = kinds.get(&series).copied().unwrap_or(MetricKind::Gauge);
            scalars.push(Sample {
                help: helps.get(&series).cloned().unwrap_or_default(),
                name: series,
                labels,
                value: match kind {
                    MetricKind::Counter => SampleValue::Counter(as_count(value)),
                    _ => SampleValue::Gauge(value),
                },
            });
        }
    }

    let mut samples = scalars;
    for ((family, labels), partial) in histograms {
        let snapshot = partial.finish().map_err(|detail| ParseError {
            detail: format!("histogram {family}: {detail}"),
        })?;
        samples.push(Sample {
            help: helps.get(&family).cloned().unwrap_or_default(),
            name: family,
            labels,
            value: SampleValue::Histogram(snapshot),
        });
    }
    samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    Ok(samples)
}

/// A counter value parsed from exposition text. Float-to-int `as` casts
/// saturate at the integer range and map NaN to zero, so any parsed value
/// converts without surprises.
fn as_count(value: f64) -> u64 {
    value as u64 // sdoh-lint: allow(no-narrowing-cast, "float-to-int as-casts saturate and map NaN to zero")
}

fn error(line_number: usize, detail: &str) -> ParseError {
    ParseError {
        detail: format!("line {}: {detail}", line_number + 1),
    }
}

#[derive(Default)]
struct PartialHistogram {
    cumulative: [Option<u64>; BUCKETS],
    sum_seconds: f64,
    count: Option<u64>,
}

impl PartialHistogram {
    fn finish(self) -> Result<HistogramSnapshot, String> {
        let mut buckets = [0u64; BUCKETS];
        let mut previous = 0u64;
        for (index, slot) in self.cumulative.iter().enumerate() {
            let cumulative = slot.ok_or_else(|| format!("missing bucket {index}"))?;
            let delta = cumulative
                .checked_sub(previous)
                .ok_or_else(|| format!("non-cumulative bucket {index}"))?;
            if let Some(bucket) = buckets.get_mut(index) {
                *bucket = delta;
            }
            previous = cumulative;
        }
        if let Some(count) = self.count {
            if count != previous {
                return Err(format!("count {count} != +Inf bucket {previous}"));
            }
        }
        Ok(HistogramSnapshot {
            buckets,
            sum_nanos: as_count((self.sum_seconds * 1e9).round()),
        })
    }
}

/// Parts of one exposition line: name, label pairs, value.
type ParsedSeries = (String, Vec<(String, String)>, f64);

/// `name{labels} value` → parts. `None` on malformed lines.
fn parse_series_line(line: &str) -> Option<ParsedSeries> {
    let (name_and_labels, value) = line.rsplit_once(' ')?;
    let value: f64 = value.trim().parse().ok()?;
    let name_and_labels = name_and_labels.trim();
    if let Some((name, rest)) = name_and_labels.split_once('{') {
        let body = rest.strip_suffix('}')?;
        let mut labels = Vec::new();
        for pair in split_label_pairs(body) {
            if pair.is_empty() {
                continue;
            }
            let (key, quoted) = pair.split_once('=')?;
            let unquoted = quoted.strip_prefix('"')?.strip_suffix('"')?;
            labels.push((key.trim().to_string(), unescape_label(unquoted)));
        }
        Some((name.to_string(), labels, value))
    } else {
        Some((name_and_labels.to_string(), Vec::new(), value))
    }
}

/// Splits `k1="v1",k2="v2"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Vec<String> {
    let mut pairs = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            current.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                current.push(c);
                escaped = true;
            }
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => {
                pairs.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.is_empty() {
        pairs.push(current);
    }
    pairs
}

/// The bucket index whose rendered `le` equals `le` (`+Inf` → overflow).
fn bucket_index_for_le(le: &str) -> Option<usize> {
    if le == "+Inf" {
        return Some(BUCKETS - 1);
    }
    (0..BUCKETS - 1)
        .find(|&index| bucket_bound(index).is_some_and(|bound| format_seconds(bound) == le))
}

fn format_seconds(duration: Duration) -> String {
    format!("{}", duration.as_secs_f64())
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("{key}=\"{}\"", escape_label(value)));
        first = false;
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn unescape_label(value: &str) -> String {
    let mut out = String::new();
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn escape_help(value: &str) -> String {
    value.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn scrape() -> Vec<Sample> {
        let registry = Registry::new();
        let queries = registry.counter_with(
            "sdoh_queries_total",
            "Queries received.",
            &[("instance", "a")],
        );
        registry.register_collector(Box::new(|| {
            vec![Sample {
                name: "sdoh_pending_refreshes".to_string(),
                help: "Refreshes queued.".to_string(),
                labels: Vec::new(),
                value: SampleValue::Gauge(3.0),
            }]
        }));
        let latency = registry.histogram_with(
            "sdoh_serve_latency_seconds",
            "Per-query serve latency.",
            &[("shard", "0")],
        );
        queries.add(12);
        for micros in [5u64, 5, 90, 90, 90, 2000] {
            latency.record(Duration::from_micros(micros));
        }
        registry.gather()
    }

    #[test]
    fn prometheus_rendering_has_headers_buckets_and_escaping() {
        let text = render_prometheus(&scrape());
        assert!(text.contains("# HELP sdoh_queries_total Queries received.\n"));
        assert!(text.contains("# TYPE sdoh_queries_total counter\n"));
        assert!(text.contains("sdoh_queries_total{instance=\"a\"} 12\n"));
        assert!(text.contains("# TYPE sdoh_serve_latency_seconds histogram\n"));
        assert!(text.contains("sdoh_serve_latency_seconds_bucket{shard=\"0\",le=\"+Inf\"} 6\n"));
        assert!(text.contains("sdoh_serve_latency_seconds_count{shard=\"0\"} 6\n"));
        assert!(text.contains("sdoh_pending_refreshes 3\n"));

        let weird = vec![Sample {
            name: "weird".to_string(),
            help: "multi\nline".to_string(),
            labels: vec![("path".to_string(), "a\"b\\c".to_string())],
            value: SampleValue::Counter(1),
        }];
        let text = render_prometheus(&weird);
        assert!(text.contains("# HELP weird multi\\nline\n"));
        assert!(text.contains("weird{path=\"a\\\"b\\\\c\"} 1\n"));
    }

    #[test]
    fn prometheus_round_trips_through_the_parser() {
        let samples = scrape();
        let parsed = parse_prometheus(&render_prometheus(&samples)).unwrap();
        assert_eq!(parsed.len(), samples.len());
        for (original, reparsed) in samples.iter().zip(&parsed) {
            assert_eq!(original.name, reparsed.name);
            assert_eq!(original.labels, reparsed.labels);
            match (&original.value, &reparsed.value) {
                (SampleValue::Counter(a), SampleValue::Counter(b)) => assert_eq!(a, b),
                (SampleValue::Gauge(a), SampleValue::Gauge(b)) => assert_eq!(a, b),
                (SampleValue::Histogram(a), SampleValue::Histogram(b)) => {
                    assert_eq!(a.buckets, b.buckets);
                    assert_eq!(a.count(), b.count());
                    // The sum travels as seconds; nanosecond rounding only.
                    assert!(a.sum_nanos.abs_diff(b.sum_nanos) < 1000);
                }
                other => panic!("kind changed in round trip: {other:?}"),
            }
        }

        let escaped = vec![Sample {
            name: "weird".to_string(),
            help: String::new(),
            labels: vec![("path".to_string(), "a\"b\\c,d".to_string())],
            value: SampleValue::Gauge(1.5),
        }];
        let reparsed = parse_prometheus(&render_prometheus(&escaped)).unwrap();
        assert_eq!(reparsed[0].labels, escaped[0].labels);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_prometheus("# TYPE x wat\n").is_err());
        assert!(parse_prometheus("# TYPE h histogram\nh_bucket{shard=\"0\"} 3\n").is_err());
        assert!(parse_prometheus("just words\n").is_err());
        // Unknown le bound on a declared histogram family.
        assert!(parse_prometheus("# TYPE h histogram\nh_bucket{le=\"0.33\"} 3\n").is_err());
    }
}
