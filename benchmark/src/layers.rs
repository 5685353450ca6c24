//! The traced run: where the time of a workload goes, layer by layer.
//!
//! Four parts, all driven from outside the program:
//!
//! 1. a loaded pass like the end-to-end one, with the per-thread CPU
//!    ledger, the runtime's own counters and the client-side tails;
//! 2. short loaded phases alternating between that runtime and a second
//!    one with the tracing wrappers installed in its upstream side, to
//!    price the tracing itself;
//! 3. the **replay**: a seeded sample of the workload's queries, one at a
//!    time, through a harness-driven shadow of the serving path —
//!    `Message::decode` → `CachingPoolResolver::handle_query` →
//!    `Message::encode`, and once more through `serve_do53_payload` —
//!    over traced upstreams with the workload's own latency;
//! 4. the **lab**: each layer's operations in isolation over a traced,
//!    zero-latency copy of the workload's fleet, plus a few plain timing
//!    loops for the layers below any wrapper (h2, HPACK, the sealed
//!    channel, the majority vote, the metrics registry).
//!
//! Every `*_ns` figure is a median over spans (or timing samples).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdoh_core::{majority_vote, CacheConfig, CachingPoolResolver, ServeMetrics};
use sdoh_dns_server::{serve_do53_payload, Exchanger, QueryHandler};
use sdoh_dns_wire::{Message, RrType, Ttl};
use sdoh_doh::h2::{hpack, ClientConnection, ServerConnection};
use sdoh_doh::http::{Request, Response};
use sdoh_doh::{secure, DohClient, DohMethod, DNS_MESSAGE_CONTENT_TYPE, DOH_PATH};
use sdoh_metrics::{render_prometheus, Histogram};
use sdoh_runtime::{LoopbackFleet, RuntimeStats};

use crate::client::{open_loop, Client, Echo, OpenLoop};
use crate::deploy::{generator, traced_backends, traced_exchanger, Deployment, Ports};
use crate::measure::{check_exact, run_phase, warmup_length, Buffers, Metric, Outcome, Phase};
use crate::procfs::{nproc, Ledger, SERVER_GROUPS};
use crate::stats::{median, percentile};
use crate::trace::{self_times, write_jsonl, Span, Tracer};
use crate::workload::{client_rng, DomainPicker, Spec, Workload};

/// Every per-layer metric of the traced run: `(name, unit, better)`. The
/// prefix is the layer (crate or module) the number belongs to.
/// `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("runtime.cpu_dispatch_us_per_query", "us", "lower"),
    ("runtime.cpu_shard_us_per_query", "us", "lower"),
    ("runtime.cpu_tcp_us_per_query", "us", "lower"),
    ("runtime.cpu_refresh_stats_us_per_query", "us", "lower"),
    ("runtime.cpu_unnamed_us_per_query", "us", "lower"),
    ("runtime.runq_wait_dispatch_us_per_query", "us", "lower"),
    ("runtime.runq_wait_shard_us_per_query", "us", "lower"),
    ("runtime.runq_wait_tcp_us_per_query", "us", "lower"),
    (
        "runtime.runq_wait_refresh_stats_us_per_query",
        "us",
        "lower",
    ),
    ("runtime.udp_rtt_1c_us", "us", "lower"),
    ("runtime.front_door_us", "us", "lower"),
    ("runtime.tcp_leg_rtt_us", "us", "lower"),
    ("runtime.backend_exchange_ns", "ns", "lower"),
    ("runtime.backend_exchange_all_ns", "ns", "lower"),
    ("runtime.start_ms", "ms", "lower"),
    ("runtime.shutdown_ms", "ms", "lower"),
    ("runtime.stats_call_us", "us", "lower"),
    ("runtime.start_retries", "count", "lower"),
    ("runtime.udp_queries", "count", "higher"),
    ("runtime.tcp_queries", "count", "lower"),
    ("runtime.truncated_responses", "count", "lower"),
    ("runtime.dropped_queries", "count", "lower"),
    ("core_serve.hit_ns", "ns", "lower"),
    ("core_serve.stale_hit_ns", "ns", "lower"),
    ("core_serve.miss_self_ns", "ns", "lower"),
    ("core_serve.refresh_batch_ns", "ns", "lower"),
    ("core_serve.hit_ratio", "ratio", "higher"),
    ("core_serve.upstream_per_query", "count", "lower"),
    ("core_serve.generations", "count", "lower"),
    ("core_serve.refreshes", "count", "lower"),
    ("core_serve.stale_serves", "count", "lower"),
    ("core_serve.evictions", "count", "lower"),
    ("core_serve.coalesced_waiters", "count", "higher"),
    ("core.generate_ns", "ns", "lower"),
    ("core.generate_self_ns", "ns", "lower"),
    ("core.majority_vote_ns", "ns", "lower"),
    ("doh.client_exchange_ns", "ns", "lower"),
    ("doh.server_serve_ns", "ns", "lower"),
    ("doh.h2_get_exchange_ns", "ns", "lower"),
    ("doh.hpack_roundtrip_ns", "ns", "lower"),
    ("doh.secure_seal_open_ns", "ns", "lower"),
    ("dns_server.serve_payload_ns", "ns", "lower"),
    ("dns_server.serve_payload_self_ns", "ns", "lower"),
    ("dns_server.authority_answer_ns", "ns", "lower"),
    ("dns_wire.decode_query_ns", "ns", "lower"),
    ("dns_wire.encode_response_ns", "ns", "lower"),
    ("dns_wire.decode_response_ns", "ns", "lower"),
    ("dns_wire.response_bytes", "bytes", "lower"),
    ("metrics.histogram_record_ns", "ns", "lower"),
    ("metrics.render_prometheus_us", "us", "lower"),
    ("client.p99_us", "us", "lower"),
    ("client.p999_us", "us", "lower"),
    ("client.max_us", "us", "lower"),
    ("client.samples", "count", "higher"),
    ("client.cpu_us_per_query", "us", "lower"),
    ("client.fail_ratio", "ratio", "lower"),
    ("client.open_p50_us", "us", "lower"),
    ("client.open_p99_us", "us", "lower"),
    ("client.open_late_max_us", "us", "lower"),
    ("client.open_lost", "count", "lower"),
    ("os.udp_echo_rtt_us", "us", "lower"),
    ("host.slowness", "ratio", "lower"),
    ("host.steal_ratio", "ratio", "lower"),
    ("host.nproc", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.span_sum_error_ratio", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
];

/// Collects the per-layer values by name; `finish` puts them in the order
/// of [`PER_LAYER`] and insists that every one was measured.
#[derive(Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn finish(self, problems: &mut Vec<String>) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = self.0.get(name).copied().unwrap_or_else(|| {
                    problems.push(format!("per-layer metric {name} was not measured"));
                    0.0
                });
                Metric::value(name, unit, value)
            })
            .collect()
    }
}

/// Median ns per call of `op`, over `samples` timings of `batch` calls.
fn time_ns(samples: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..samples.max(3))
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                op();
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_call)
}

/// Median over the spans called `name` of `ns`, which holds one figure per
/// span (its duration, or its self time); 0 when there is no such span.
fn span_median(spans: &[Span], ns: &[u64], name: &str) -> f64 {
    let of_name: Vec<f64> = spans
        .iter()
        .zip(ns)
        .filter(|(span, _)| span.name == name)
        .map(|(_, &ns)| ns as f64)
        .collect();
    median(&of_name)
}

fn durations(spans: &[Span]) -> Vec<u64> {
    spans.iter().map(Span::duration_ns).collect()
}

/// Median of `count` one-at-a-time probes in µs; a `None` is a failed
/// query.
fn probe(
    count: usize,
    attempted: &mut u64,
    failed: &mut u64,
    mut one: impl FnMut() -> Option<f64>,
) -> f64 {
    let mut samples: Vec<f64> = Vec::with_capacity(count);
    for _ in 0..count {
        *attempted += 1;
        match one() {
            Some(us) => samples.push(us),
            None => *failed += 1,
        }
    }
    samples.sort_by(f64::total_cmp);
    percentile(&samples, 0.5)
}

/// Iteration counts shrink with short runs (`--smoke`), never below a
/// handful.
fn scaled(count: usize, seconds: f64) -> usize {
    ((count as f64 * (seconds / 20.0).min(1.0)) as usize).max(5)
}

/// Medians over a truncated set of spans would be medians of the early
/// part of the run.
fn check_nothing_dropped(tracer: &Tracer, problems: &mut Vec<String>) {
    if tracer.dropped() > 0 {
        problems.push(format!("the span sink overflowed by {}", tracer.dropped()));
    }
}

/// Which kind of serve a `handle_query` call turned out to be, from the
/// resolver's own counters before and after it.
fn serve_kind(before: &ServeMetrics, after: &ServeMetrics) -> &'static str {
    if after.misses > before.misses {
        "core_serve.miss"
    } else if after.stale_serves > before.stale_serves {
        "core_serve.stale_hit"
    } else if after.hits > before.hits {
        "core_serve.hit"
    } else {
        "core_serve.other"
    }
}

/// Serves `query` through `resolver` inside a span named after what the
/// serve turned out to be.
fn traced_serve(
    tracer: &Tracer,
    resolver: &mut CachingPoolResolver,
    exchanger: &mut dyn Exchanger,
    query: &Message,
) -> Message {
    let before = resolver.metrics();
    let open = tracer.begin();
    let response = resolver.handle_query(exchanger, query);
    let kind = serve_kind(&before, &resolver.metrics());
    tracer.end(open, kind);
    response
}

/// Part 3. Returns the replay's spans and how many replayed answers
/// failed verification, out of how many.
fn replay(
    spec: &Spec,
    deployment: &Deployment,
    seed: u64,
    length: Duration,
    problems: &mut Vec<String>,
) -> (Vec<Span>, u64, u64) {
    let fleet = &deployment.fleet;
    let tracer = Tracer::new(1 << 20);
    let net = traced_backends(fleet, spec, &tracer);
    // Two shadows fed the same queries: one taken apart call by call, one
    // through the program's own `serve_do53_payload`.
    let mut apart = shadow_resolver(fleet, spec, spec.cache);
    let mut whole = shadow_resolver(fleet, spec, spec.cache);
    let mut apart_exchanger = traced_exchanger(&net, 0, &tracer);
    let mut whole_exchanger = traced_exchanger(&net, 1, &tracer);
    let wires = deployment.verifier.query_wires();
    let picker = DomainPicker::new(wires.len(), spec.zipf);
    let mut rng = client_rng(seed, 7);
    let (mut attempted, mut failed) = (0, 0);
    let deadline = Instant::now() + length;
    let mut pumped = Instant::now();
    while Instant::now() < deadline && attempted < 50_000 {
        let domain = picker.pick(&mut rng);
        let id = rng.gen_u16();
        let mut wire = wires[domain].clone();
        wire[..2].copy_from_slice(&id.to_be_bytes());
        tracer.next_request();

        let query = tracer.span("dns_wire.decode_query", || Message::decode(&wire));
        let answer = query.ok().and_then(|query| {
            let response = traced_serve(&tracer, &mut apart, &mut apart_exchanger, &query);
            let bytes = tracer.span("dns_wire.encode_response", || response.encode().ok());
            // `serve_do53_payload` frees both messages before it returns;
            // taken apart, that is a step of its own.
            tracer.span("dns_wire.drop_messages", move || drop((query, response)));
            bytes
        });
        let whole_answer = tracer.span("dns_server.serve_payload", || {
            serve_do53_payload(&mut whole, &mut whole_exchanger, &wire, false)
        });
        for answer in [answer, whole_answer] {
            attempted += 1;
            let fine = answer.is_some_and(|a| deployment.verifier.check(domain, id, &a).is_ok());
            failed += u64::from(!fine);
        }
        // The runtime's refresh thread ticks every 50 ms; so does the
        // shadow.
        if pumped.elapsed() >= Duration::from_millis(50) {
            pumped = Instant::now();
            tracer.next_request();
            tracer.span("core_serve.refresh_batch", || {
                apart.run_due_refreshes(&mut apart_exchanger)
            });
            whole.run_due_refreshes(&mut whole_exchanger);
        }
    }
    check_nothing_dropped(&tracer, problems);
    (tracer.drain(), attempted, failed)
}

/// From the replay: the serve-path medians and how well the parts add up
/// to the whole.
fn replay_values(spans: &[Span], values: &mut Values) {
    #[derive(Default, Clone, Copy)]
    struct Request {
        /// decode + serve + encode.
        calls: u64,
        /// Freeing the two messages.
        drops: u64,
        whole: u64,
    }
    let mut requests: HashMap<u32, Request> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent == 0) {
        let request = requests.entry(span.request).or_default();
        match span.name {
            "dns_server.serve_payload" => request.whole = span.duration_ns(),
            "dns_wire.drop_messages" => request.drops = span.duration_ns(),
            "dns_wire.decode_query" | "dns_wire.encode_response" => {
                request.calls += span.duration_ns();
            }
            name if name.starts_with("core_serve.") && name != "core_serve.refresh_batch" => {
                request.calls += span.duration_ns();
            }
            _ => {}
        }
    }
    let complete: Vec<Request> = requests
        .into_values()
        .filter(|r| r.whole > 0 && r.calls > 0)
        .collect();
    let of = |f: &dyn Fn(&Request) -> f64| median(&complete.iter().map(f).collect::<Vec<f64>>());
    let whole = of(&|r| r.whole as f64);
    let durations = durations(spans);
    for (metric, span) in [
        ("dns_wire.decode_query_ns", "dns_wire.decode_query"),
        ("dns_wire.encode_response_ns", "dns_wire.encode_response"),
    ] {
        values.set(metric, span_median(spans, &durations, span));
    }
    values.set("dns_server.serve_payload_ns", whole);
    // What `serve_do53_payload` costs beyond the three calls it makes:
    // mostly freeing the query and the response.
    values.set(
        "dns_server.serve_payload_self_ns",
        of(&|r| r.whole as f64 - r.calls as f64),
    );
    values.set(
        "trace.span_sum_error_ratio",
        if whole > 0.0 {
            (of(&|r| (r.calls + r.drops) as f64) / whole - 1.0).abs()
        } else {
            1.0
        },
    );
}

/// A harness-driven resolver over the fleet's resolvers, as a shard's.
fn shadow_resolver(fleet: &LoopbackFleet, spec: &Spec, cache: CacheConfig) -> CachingPoolResolver {
    CachingPoolResolver::new(
        generator(fleet, spec).expect("the workload's pool config is valid"),
        cache,
    )
}

/// Part 4, the traced half: each layer's operations in isolation over a
/// zero-latency traced copy of the fleet. Returns the spans and whether
/// every scenario did what it was built to do.
fn lab(spec: &Spec, fleet: &LoopbackFleet, seconds: f64, problems: &mut Vec<String>) -> Vec<Span> {
    let tracer = Tracer::new(1 << 20);
    let spec = Spec {
        fleet: sdoh_runtime::LoopbackConfig {
            upstream_latency: Duration::ZERO,
            ..spec.fleet.clone()
        },
        ..spec.clone()
    };
    let net = traced_backends(fleet, &spec, &tracer);
    let mut exchanger = traced_exchanger(&net, 0, &tracer);
    let domains = &fleet.domains;
    let queries: Vec<Message> = domains
        .iter()
        .map(|d| Message::query(1, d.clone(), RrType::A))
        .collect();

    // One DoH exchange: client half, transport, terminator, authority.
    let client = DohClient::new(fleet.infos[0].clone()).method(DohMethod::Get);
    for i in 0..scaled(300, seconds) {
        tracer.next_request();
        let answered = tracer.span("doh.client_exchange", || {
            client.query(&mut exchanger, &domains[i % domains.len()], RrType::A)
        });
        if answered.map_or(true, |m| m.answer_addresses().is_empty()) {
            problems.push("lab: a DoH exchange came back empty".into());
            break;
        }
    }

    // One generation: session, fan-out to every resolver, combination.
    let pools = generator(fleet, &spec).expect("the workload's pool config is valid");
    for i in 0..scaled(200, seconds) {
        tracer.next_request();
        let report = tracer.span("core.generate", || {
            pools.generate(&mut exchanger, &domains[i % domains.len()])
        });
        if report.map_or(true, |r| r.pool.is_empty()) {
            problems.push("lab: a generation produced no pool".into());
            break;
        }
    }

    // The serve layer's three outcomes, each from a cache built to
    // produce only that outcome.
    let forever = CacheConfig::default()
        .with_ttl(Ttl::from_secs(3600))
        .with_stale_window(Duration::from_secs(3600));
    let never = forever
        .with_ttl(Ttl::ZERO)
        .with_stale_window(Duration::ZERO)
        .with_negative_ttl(Ttl::ZERO);
    // A zero TTL is never cached, so stale entries are made by stamping
    // fresh ones as expired through the public hand-off interface.
    fn expire(resolver: &mut CachingPoolResolver, now: sdoh_netsim::SimInstant) {
        for (key, mut cached) in resolver.extract_entries(|_| true) {
            cached.expires_at = cached.generated_at;
            resolver.install_entry(key, cached, now);
        }
    }
    let mut serve = |cache: CacheConfig, count: usize, stale_rounds: usize| -> ServeMetrics {
        let mut resolver = shadow_resolver(fleet, &spec, cache);
        for query in &queries {
            resolver.handle_query(&mut exchanger, query);
        }
        let primed = resolver.metrics();
        if stale_rounds > 0 {
            expire(&mut resolver, exchanger.now());
        }
        for i in 0..count {
            tracer.next_request();
            traced_serve(
                &tracer,
                &mut resolver,
                &mut exchanger,
                &queries[i % queries.len()],
            );
        }
        for _ in 0..stale_rounds {
            expire(&mut resolver, exchanger.now());
            for query in &queries {
                tracer.next_request();
                traced_serve(&tracer, &mut resolver, &mut exchanger, query);
            }
            tracer.next_request();
            tracer.span("core_serve.refresh_batch", || {
                resolver.run_due_refreshes(&mut exchanger)
            });
        }
        let mut done = resolver.metrics();
        done.hits -= primed.hits;
        done.stale_serves -= primed.stale_serves;
        done.misses -= primed.misses;
        done
    };
    let hits = scaled(5000, seconds);
    if serve(forever, hits, 0).hits != hits as u64 {
        problems.push("lab: the hit scenario did not only hit".into());
    }
    let stales = scaled(2000, seconds);
    let rounds = scaled(10, seconds);
    let stale = serve(forever, stales, rounds);
    if stale.stale_serves != (stales + rounds * queries.len()) as u64
        || stale.refreshes != (rounds * queries.len()) as u64
    {
        problems.push("lab: the stale scenario did not only serve stale and refresh".into());
    }
    let misses = scaled(200, seconds);
    if serve(never, misses, 0).misses != misses as u64 {
        problems.push("lab: the miss scenario did not only miss".into());
    }
    check_nothing_dropped(&tracer, problems);
    tracer.drain()
}

/// From the lab's spans.
fn lab_values(spans: &[Span], values: &mut Values) {
    let (durations, selfs) = (durations(spans), self_times(spans));
    for (metric, span) in [
        ("doh.client_exchange_ns", "doh.client_exchange"),
        ("doh.server_serve_ns", "doh.server_serve"),
        (
            "dns_server.authority_answer_ns",
            "dns_server.authority_answer",
        ),
        ("runtime.backend_exchange_ns", "runtime.backend_exchange"),
        (
            "runtime.backend_exchange_all_ns",
            "runtime.backend_exchange_all",
        ),
        ("core.generate_ns", "core.generate"),
        ("core_serve.hit_ns", "core_serve.hit"),
        ("core_serve.stale_hit_ns", "core_serve.stale_hit"),
        ("core_serve.refresh_batch_ns", "core_serve.refresh_batch"),
    ] {
        values.set(metric, span_median(spans, &durations, span));
    }
    for (metric, span) in [
        ("core.generate_self_ns", "core.generate"),
        ("core_serve.miss_self_ns", "core_serve.miss"),
    ] {
        values.set(metric, span_median(spans, &selfs, span));
    }
}

/// Part 4, the plain half: the layers no wrapper reaches.
fn bare_loops(
    spec: &Spec,
    fleet: &LoopbackFleet,
    answer: &[u8],
    seconds: f64,
    values: &mut Values,
) {
    let n = scaled(200, seconds);
    // The vote over what the workload's resolvers would each return.
    let lists: Vec<Vec<std::net::IpAddr>> = (0..spec.fleet.resolvers)
        .map(|r| {
            if spec.fleet.compromised.contains(&r) {
                fleet.attacker.clone()
            } else {
                fleet.benign.clone()
            }
        })
        .collect();
    values.set(
        "core.majority_vote_ns",
        time_ns(n, 20, || {
            std::hint::black_box(majority_vote(
                std::hint::black_box(&lists),
                lists.len(),
                spec.pool.majority_threshold,
            ));
        }),
    );

    // One RFC 8484 GET over fresh h2 connections, both ends.
    let info = &fleet.infos[0];
    let query_wire = Message::query(0, fleet.domains[0].clone(), RrType::A)
        .encode()
        .expect("a pool query encodes");
    let request = Request::get(
        info.name.clone(),
        format!(
            "{DOH_PATH}?dns={}",
            sdoh_dns_wire::base64url::encode(&query_wire)
        ),
    )
    .with_header("accept", DNS_MESSAGE_CONTENT_TYPE);
    let response = Response::ok(DNS_MESSAGE_CONTENT_TYPE, answer.to_vec());
    values.set(
        "doh.h2_get_exchange_ns",
        time_ns(n, 10, || {
            let mut client = ClientConnection::new();
            let stream = client.send_request(&request);
            let mut server = ServerConnection::new();
            let requests = server
                .receive(&client.take_output())
                .expect("h2 request decodes");
            server.send_response(requests[0].0, &response);
            let responses = client
                .receive(&server.take_output())
                .expect("h2 response decodes");
            assert_eq!(responses[0].0, stream);
            std::hint::black_box(responses);
        }),
    );

    let headers: Vec<(String, String)> = [
        (":method", "GET"),
        (":scheme", "https"),
        (":authority", info.name.as_str()),
        (":path", request.path.as_str()),
        ("accept", DNS_MESSAGE_CONTENT_TYPE),
    ]
    .iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    values.set(
        "doh.hpack_roundtrip_ns",
        time_ns(n, 50, || {
            let block = hpack::encode(std::hint::black_box(&headers));
            std::hint::black_box(hpack::decode(&block).expect("hpack block decodes"));
        }),
    );

    // The sealed channel around a reply the size of this workload's.
    values.set(
        "doh.secure_seal_open_ns",
        time_ns(n, 10, || {
            let record = secure::seal(&info.key, secure::SEQ_SERVER, std::hint::black_box(answer));
            std::hint::black_box(
                secure::open(&info.key, secure::SEQ_SERVER, &record).expect("record opens"),
            );
        }),
    );

    values.set(
        "dns_wire.decode_response_ns",
        time_ns(n, 20, || {
            std::hint::black_box(Message::decode(std::hint::black_box(answer)).expect("decodes"));
        }),
    );
    values.set("dns_wire.response_bytes", answer.len() as f64);

    let histogram = Histogram::new();
    let mut value = Duration::from_nanos(1);
    values.set(
        "metrics.histogram_record_ns",
        time_ns(n, 1000, || {
            value += Duration::from_nanos(997);
            histogram.record(std::hint::black_box(value));
        }),
    );
}

/// The runtime's own counters over an interval.
fn counter_delta(before: &RuntimeStats, after: &RuntimeStats, values: &mut Values) -> (u64, u64) {
    let serve = |s: &RuntimeStats| s.total.serve;
    let (b, a) = (serve(before), serve(after));
    let queries = (a.queries - b.queries).max(1);
    let hits =
        (a.hits + a.stale_serves + a.negative_hits) - (b.hits + b.stale_serves + b.negative_hits);
    values.set("core_serve.hit_ratio", hits as f64 / queries as f64);
    values.set(
        "core_serve.upstream_per_query",
        ((a.source_answers + a.source_failures) - (b.source_answers + b.source_failures)) as f64
            / queries as f64,
    );
    values.set(
        "core_serve.generations",
        (a.generations - b.generations) as f64,
    );
    values.set("core_serve.refreshes", (a.refreshes - b.refreshes) as f64);
    values.set(
        "core_serve.stale_serves",
        (a.stale_serves - b.stale_serves) as f64,
    );
    values.set(
        "core_serve.coalesced_waiters",
        (a.coalesced_waiters - b.coalesced_waiters) as f64,
    );
    values.set(
        "core_serve.evictions",
        (after.total.cache.evictions - before.total.cache.evictions) as f64,
    );
    let tcp = after.tcp_queries - before.tcp_queries;
    let truncated = after.truncated_responses - before.truncated_responses;
    values.set(
        "runtime.udp_queries",
        (after.udp_queries - before.udp_queries) as f64,
    );
    values.set("runtime.tcp_queries", tcp as f64);
    values.set("runtime.truncated_responses", truncated as f64);
    values.set(
        "runtime.dropped_queries",
        (after.dropped_queries - before.dropped_queries) as f64,
    );
    (tcp, truncated)
}

/// The thread ledger of the busy loaded phase, read `before` and `after`
/// it.
fn ledger_values(phase: &Phase, before: &Ledger, after: &Ledger, values: &mut Values) {
    const CPU: [&str; 4] = [
        "runtime.cpu_dispatch_us_per_query",
        "runtime.cpu_shard_us_per_query",
        "runtime.cpu_tcp_us_per_query",
        "runtime.cpu_refresh_stats_us_per_query",
    ];
    const WAIT: [&str; 4] = [
        "runtime.runq_wait_dispatch_us_per_query",
        "runtime.runq_wait_shard_us_per_query",
        "runtime.runq_wait_tcp_us_per_query",
        "runtime.runq_wait_refresh_stats_us_per_query",
    ];
    for (i, &group) in SERVER_GROUPS.iter().enumerate() {
        let (run, wait) = after.group_since(before, group);
        values.set(CPU[i], phase.per_query_us(run as f64));
        values.set(WAIT[i], phase.per_query_us(wait as f64));
    }
    values.set(
        "runtime.cpu_unnamed_us_per_query",
        phase.per_query_us(after.unnamed_ns_since(before) as f64),
    );
    // The client's own count: the `bench-*` group of the ledger holds its
    // calibrations and the echo thread as well.
    values.set(
        "client.cpu_us_per_query",
        phase.per_query_us(phase.0.client_cpu_ns as f64),
    );
    values.set("host.steal_ratio", after.steal_ratio_since(before));
    values.set("host.nproc", nproc() as f64);
}

/// The loaded runtime, now unloaded: one client, one query at a time.
/// Returns the medians of the UDP leg and of the bare echo, in µs.
fn unloaded_values(
    deployment: &Deployment,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    values: &mut Values,
    attempted: &mut u64,
    failed: &mut u64,
) -> std::io::Result<(f64, f64)> {
    let mut prober = Client::new(
        deployment.runtime.udp_addr(),
        Arc::clone(&deployment.verifier),
        spec.zipf,
        seed,
        8,
    )?;
    // Each probe of the runtime is paired with a ping of a bare echo
    // thread, so both medians see the same host: on a virtual machine the
    // cost of waking an idle core moves by tens of µs from one second to
    // the next, and the ledger subtracts one median from the other.
    let mut echo = Echo::start()?;
    let mut echo_us = Vec::new();
    let udp_rtt = probe(scaled(3000, seconds), attempted, failed, || {
        let domain = prober.next_domain();
        let (us, len) = prober.probe_udp(domain)?;
        echo_us.extend(echo.rtt_us(len));
        Some(us)
    });
    let echo = median(&echo_us);
    let tcp_rtt = probe(scaled(300, seconds), attempted, failed, || {
        let domain = prober.next_domain();
        prober.probe_tcp(domain)
    });
    values.set("runtime.udp_rtt_1c_us", udp_rtt);
    values.set("runtime.tcp_leg_rtt_us", tcp_rtt);
    values.set("os.udp_echo_rtt_us", echo);
    values.set(
        "runtime.stats_call_us",
        time_ns(scaled(50, seconds), 1, || {
            std::hint::black_box(deployment.runtime.stats());
        }) / 1e3,
    );
    values.set(
        "metrics.render_prometheus_us",
        time_ns(scaled(30, seconds), 1, || {
            std::hint::black_box(render_prometheus(&deployment.runtime.registry().gather()));
        }) / 1e3,
    );
    Ok((udp_rtt, echo))
}

/// The client-side tails of the one-in-flight loaded phase.
fn tail_values(phase: &Phase, values: &mut Values) {
    values.set("client.p99_us", phase.latency_us(0.99));
    values.set("client.p999_us", phase.latency_us(0.999));
    values.set("client.max_us", phase.latency_us(1.0));
    values.set("client.samples", phase.0.latencies.len() as f64);
}

pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> std::io::Result<Outcome> {
    let spec = workload.spec(seed);
    let mut ports = Ports::new(seed);
    let mut values = Values::default();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Part 1: loaded, tracing off.
    let deployment = Deployment::up(&spec, seed, &mut ports, None)?;
    values.set("runtime.start_ms", deployment.start_ms);
    values.set("runtime.start_retries", f64::from(deployment.start_retries));
    // The loaded phases are few and far between: each allocates its own
    // sample memory, and they keep their own count of queries. They
    // calibrate like the end-to-end run's, but only to put the host's
    // speed on record: every per-layer figure is as the clock read it.
    let (mut loaded_attempted, mut loaded_failed) = (0u64, 0u64);
    let mut slowness = Vec::new();
    let mut loaded = |deployment: &Deployment, length: Duration, window: usize| {
        let phase = run_phase(
            deployment,
            &spec,
            length,
            window,
            true,
            &mut Buffers::default(),
        );
        loaded_attempted += phase.attempted();
        loaded_failed += phase.0.failed;
        slowness.extend_from_slice(&phase.0.slowness);
        phase
    };
    loaded(&deployment, warmup_length(seconds) / 2, spec.window);
    let quarter = Duration::from_secs_f64(seconds * 0.15);
    let unhurried = loaded(&deployment, quarter, 1);
    tail_values(&unhurried, &mut values);
    let unhurried_qps = unhurried.qps();
    let (stats_before, ledger_before) = (deployment.runtime.stats(), Ledger::read());
    let plain = loaded(&deployment, quarter, spec.window);
    let (ledger_after, stats_after) = (Ledger::read(), deployment.runtime.stats());
    ledger_values(&plain, &ledger_before, &ledger_after, &mut values);
    let (tcp, truncated) = counter_delta(&stats_before, &stats_after, &mut values);
    check_exact(
        &spec,
        plain.0.ok,
        plain.0.tcp_retries,
        values.0["core_serve.upstream_per_query"],
        &mut problems,
    );
    if tcp != truncated || (!spec.via_tcp && tcp != 0) {
        problems.push(format!(
            "runtime counted {tcp} TCP queries and {truncated} truncated answers"
        ));
    }

    let (udp_rtt, echo) = unloaded_values(
        &deployment,
        &spec,
        seed,
        seconds,
        &mut values,
        &mut attempted,
        &mut failed,
    )?;

    // Open loop at half the closed-loop rate: the baseline for a later
    // open-loop harness. Only where every query is a hit.
    let open = if workload == Workload::WarmHit {
        let pass = open_loop(
            deployment.runtime.udp_addr(),
            Arc::clone(&deployment.verifier),
            unhurried_qps / 2.0,
            Duration::from_secs_f64(seconds * 0.15),
            seed,
        )?;
        attempted += pass.wrong;
        failed += pass.wrong;
        pass
    } else {
        OpenLoop::default()
    };
    values.set("client.open_p50_us", open.p50_us);
    values.set("client.open_p99_us", open.p99_us);
    values.set("client.open_late_max_us", open.late_max_us);
    values.set("client.open_lost", open.lost as f64);

    // A full answer as the client sees it, for the loops that need one.
    let answer = {
        let query = Message::query(1, deployment.fleet.domains[0].clone(), RrType::A);
        let mut shadow = shadow_resolver(&deployment.fleet, &spec, spec.cache);
        let mut exchanger = deployment
            .fleet
            .backends
            .exchanger(sdoh_netsim::SimAddr::v4(10, 1, 0, 9, 40_000));
        shadow
            .handle_query(&mut exchanger, &query)
            .encode()
            .expect("a pool answer encodes")
    };

    // Part 3 and 4 use the fleet's lists but their own traced upstreams.
    let (replay_spans, replay_attempted, replay_failed) = replay(
        &spec,
        &deployment,
        seed,
        Duration::from_secs_f64(seconds * 0.1),
        &mut problems,
    );
    attempted += replay_attempted;
    failed += replay_failed;
    replay_values(&replay_spans, &mut values);
    let lab_spans = lab(&spec, &deployment.fleet, seconds, &mut problems);
    lab_values(&lab_spans, &mut values);
    bare_loops(&spec, &deployment.fleet, &answer, seconds, &mut values);
    values.set(
        "runtime.front_door_us",
        udp_rtt - echo - values.0["dns_server.serve_payload_ns"] / 1e3,
    );

    // Part 2: a second runtime with the wrappers installed, then short
    // phases alternating between the two, so that drift of the host hits
    // both sides alike.
    let load_tracer = Tracer::new(1 << 20);
    let wrapped = Deployment::up(&spec, seed, &mut ports, Some(&load_tracer))?;
    loaded(&wrapped, warmup_length(seconds) / 2, spec.window);
    let (mut plain_qps, mut wrapped_qps) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (side, qps) in [(&deployment, &mut plain_qps), (&wrapped, &mut wrapped_qps)] {
            let length = Duration::from_secs_f64(seconds * 0.05);
            qps.push(loaded(side, length, spec.window).qps());
        }
    }
    attempted += loaded_attempted;
    failed += loaded_failed;
    values.set("host.slowness", median(&slowness));
    wrapped.down();
    values.set("runtime.shutdown_ms", deployment.down());
    values.set(
        "trace.overhead_ratio",
        1.0 - median(&wrapped_qps) / median(&plain_qps),
    );
    values.set("trace.spans", (replay_spans.len() + lab_spans.len()) as f64);
    values.set("client.fail_ratio", failed as f64 / attempted.max(1) as f64);

    std::fs::create_dir_all(out_dir)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(
        out_dir.join(format!("trace-{}.jsonl", workload.name())),
    )?);
    write_jsonl(&mut file, "replay", &replay_spans)?;
    write_jsonl(&mut file, "lab", &lab_spans)?;
    file.flush()?;

    if failed > 0 {
        problems.push(format!("{failed} of {attempted} queries failed"));
    }
    let metrics = values.finish(&mut problems);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        diagnostics: Vec::new(),
        problems,
    })
}
