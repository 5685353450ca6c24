//! E18 — the reconfiguration blackout window, measured from the client.
//!
//! A loopback [`PoolRuntime`] serves real UDP clients that timestamp
//! every round trip against a shared origin. Mid-load the control plane
//! runs the full PR-8 sequence — a [`ConfigDelta`] (new TTL/stale
//! window plus a hardened pool config), a 4 → 8 shard grow, an 8 → 4
//! shrink — and the experiment reconstructs, for each transition, the
//! **blackout window**: the worst client-observed latency of any query
//! in flight while the transition propagated (from the control call
//! until every shard acked the new epoch).
//!
//! The claim under test is the control plane's design premise: epochs
//! fan out through the workers' existing queues and rescales re-route
//! the hash ring without ever stopping the dispatcher, so there is no
//! stop-the-world moment. Concretely:
//!
//! 1. **Zero drops** — every query sent during every transition is
//!    answered (a drop would surface as a client timeout), and the
//!    runtime's `sdoh_dropped_queries_total` stays 0.
//! 2. **Bounded blackout** — the widest blackout window across the
//!    three transitions stays within `BLACKOUT_BUDGET` (500 ms): a
//!    reconfiguration is never an outage a client would notice.
//! 3. **Observable epochs** — the final `/metrics` scrape reports
//!    `sdoh_config_epoch` 3 (apply, grow, shrink) with every live
//!    shard's acked gauge converged.
//!
//! Latencies are host wall-clock and recorded as-is; the assertions are
//! the drop count, the epoch accounting and the blackout budget.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdoh_analysis::Table;
use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_metrics::{http_get, parse_prometheus, SampleValue};
use sdoh_runtime::{
    ConfigDelta, LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig, Shard,
};
use secure_doh::wire::{Message, RrType, Ttl};

/// Pool domains the runtime publishes.
const DOMAINS: usize = 8;

/// Serving shards before the grow and after the shrink.
const SHARDS: usize = 4;

/// Serving shards between the grow and the shrink.
const SHARDS_PEAK: usize = 8;

/// Per-exchange upstream latency for cold generations (small: E18 is
/// about the serving path, not generation cost).
const UPSTREAM_LATENCY: Duration = Duration::from_millis(1);

/// Scrape timeout for `/metrics`.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long each transition waits for every shard to ack its epoch.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// The widest latency any in-flight query may see across a transition.
const BLACKOUT_BUDGET: Duration = Duration::from_millis(500);

/// One timestamped client round trip: start offset from the measurement
/// origin, and the observed latency.
#[derive(Debug, Clone, Copy)]
struct Rtt {
    start: Duration,
    latency: Duration,
}

/// One control-plane transition, reconstructed from the client record.
#[derive(Debug, Clone, Copy)]
pub struct TransitionWindow {
    /// Control call start until every shard acked the epoch, in
    /// microseconds — the propagation window.
    pub ack_us: f64,
    /// Worst client-observed latency of any query in flight during the
    /// propagation window, in microseconds. 0 if no query overlapped.
    pub blackout_us: f64,
    /// Queries in flight at any point of the propagation window.
    pub queries_in_window: u64,
}

/// The measured blackout report.
#[derive(Debug, Clone)]
pub struct ReconfigReport {
    /// Serving shards before the grow / after the shrink.
    pub shards_initial: usize,
    /// Serving shards between the grow and the shrink.
    pub shards_peak: usize,
    /// Loader threads.
    pub clients: usize,
    /// Queries the clients sent and had answered, exactly.
    pub queries_sent: u64,
    /// `sdoh_dropped_queries_total` at shutdown (asserted 0).
    pub dropped_queries: u64,
    /// Config epoch at shutdown (asserted 3: apply, grow, shrink).
    pub final_epoch: u64,
    /// `BLACKOUT_BUDGET` in ms.
    pub blackout_budget_ms: f64,
    /// p99 client latency of the steady state before any transition, in
    /// microseconds.
    pub baseline_p99_us: f64,
    /// The [`ConfigDelta`] transition (TTL, stale window, pool).
    pub apply: TransitionWindow,
    /// The 4 → 8 shard grow.
    pub grow: TransitionWindow,
    /// The 8 → 4 shard shrink.
    pub shrink: TransitionWindow,
    /// Widest blackout across the three transitions, in microseconds.
    pub widest_blackout_us: f64,
    /// `widest_blackout_us` within the budget.
    pub within_budget: bool,
}

/// Runs the full measurement: a loopback runtime under `clients` loader
/// threads, the apply → grow → shrink sequence with `settle` of steady
/// load around each transition, and the blackout reconstruction.
/// Panics if a query is dropped, the epoch accounting is off, or the
/// widest blackout exceeds `BLACKOUT_BUDGET` — those are the
/// experiment's claims.
pub fn measure(clients: usize, settle: Duration, seed: u64) -> ReconfigReport {
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 3,
        pool_domains: DOMAINS,
        addresses_per_domain: 8,
        compromised: vec![0],
        upstream_latency: UPSTREAM_LATENCY,
        seed,
    });
    let shards = fleet
        .shards(
            SHARDS,
            PoolConfig::algorithm1(),
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(60))
                .with_stale_window(Duration::from_secs(60)),
        )
        .expect("valid configuration");
    let config = RuntimeConfig::default()
        .with_stats_bind(Some("127.0.0.1:0".parse().expect("loopback addr")));
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let control = runtime.control();
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let udp = runtime.udp_addr();
    let tcp = Some(runtime.tcp_addr());

    // Loader threads: every round trip timestamped against the shared
    // origin; a dropped query surfaces as a client timeout and fails the
    // run.
    let origin = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<std::thread::JoinHandle<Vec<Rtt>>> = (0..clients)
        .map(|thread| {
            let stop = stop.clone();
            let domains = fleet.domains.clone();
            std::thread::spawn(move || {
                let client = RuntimeClient::connect(udp, tcp).expect("client socket");
                let mut id: u16 = (thread as u16).wrapping_mul(8192);
                let mut record = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    for domain in &domains {
                        id = id.wrapping_add(1);
                        let start = origin.elapsed();
                        let sent = Instant::now();
                        let response = client
                            .query(&Message::query(id, domain.clone(), RrType::A))
                            .expect("no query may be dropped during reconfiguration");
                        assert!(
                            !response.answer_addresses().is_empty(),
                            "served answers stay non-empty through every transition"
                        );
                        record.push(Rtt {
                            start,
                            latency: sent.elapsed(),
                        });
                    }
                }
                record
            })
        })
        .collect();
    std::thread::sleep(settle);

    // Transition 1: the full config delta — fresh TTL/stale window and a
    // hardened pool config — fanned out mid-load.
    let delta = ConfigDelta::new()
        .with_cache(
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(2))
                .with_stale_window(Duration::from_secs(10)),
        )
        .with_pool(PoolConfig::algorithm1().with_min_responses(2));
    let (apply_span, apply_epoch) = transition(origin, || {
        let receipt = control.apply(delta).expect("valid delta");
        assert!(
            control.wait_for_epoch(receipt.epoch, ACK_TIMEOUT),
            "every shard acked epoch {} while serving",
            receipt.epoch
        );
        receipt.epoch
    });
    assert_eq!(apply_epoch, 1, "the delta published epoch 1");
    std::thread::sleep(settle);

    // Transition 2: grow 4 -> 8 shards mid-load.
    let mut spare: Vec<Option<Shard>> = fleet
        .shards(
            SHARDS_PEAK,
            PoolConfig::algorithm1().with_min_responses(2),
            control.current_config(),
        )
        .expect("valid configuration")
        .into_iter()
        .map(Some)
        .collect();
    let (grow_span, grow_epoch) = transition(origin, || {
        let receipt = control
            .rescale(SHARDS_PEAK, |index| {
                spare[index].take().expect("fresh shard")
            })
            .expect("grow rescale");
        assert!(control.wait_for_epoch(receipt.epoch, ACK_TIMEOUT));
        receipt.epoch
    });
    assert_eq!(grow_epoch, 2, "the grow published epoch 2");
    std::thread::sleep(settle);

    // Transition 3: shrink 8 -> 4 mid-load; retirees hand their entries
    // to the survivors and linger for stray in-flight queries.
    let (shrink_span, shrink_epoch) = transition(origin, || {
        let receipt = control
            .rescale(SHARDS, |_| unreachable!("shrinking builds no shards"))
            .expect("shrink rescale");
        assert!(control.wait_for_epoch(receipt.epoch, ACK_TIMEOUT));
        receipt.epoch
    });
    assert_eq!(shrink_epoch, 3, "the shrink published epoch 3");
    std::thread::sleep(settle);

    // The epoch gauges converged before shutdown.
    let scrape = http_get(stats_addr, "/metrics", SCRAPE_TIMEOUT).expect("scrape /metrics");
    let samples = parse_prometheus(&scrape.body).expect("parseable exposition");
    let epoch_gauge: Vec<f64> = samples
        .iter()
        .filter(|s| s.name == "sdoh_config_epoch")
        .map(|s| match s.value {
            SampleValue::Gauge(v) => v,
            ref other => panic!("sdoh_config_epoch is not a gauge: {other:?}"),
        })
        .collect();
    assert_eq!(epoch_gauge, vec![3.0], "/metrics exports the final epoch");

    stop.store(true, Ordering::Relaxed);
    let mut rtts: Vec<Rtt> = Vec::new();
    for loader in loaders {
        rtts.extend(loader.join().expect("loader thread"));
    }
    let stats = runtime.shutdown();
    assert_eq!(
        stats.dropped_queries, 0,
        "zero dropped queries across apply + grow + shrink"
    );
    assert_eq!(stats.config_epoch, 3, "apply, grow, shrink: three epochs");
    assert_eq!(
        stats.udp_queries,
        rtts.len() as u64,
        "the front door counted every client send"
    );

    // Steady-state baseline: queries that completed before the first
    // transition began.
    let baseline: Vec<Duration> = rtts
        .iter()
        .filter(|rtt| rtt.start + rtt.latency < apply_span.0)
        .map(|rtt| rtt.latency)
        .collect();
    let baseline_p99_us = p99_us(&baseline);

    let apply = window(&rtts, apply_span);
    let grow = window(&rtts, grow_span);
    let shrink = window(&rtts, shrink_span);
    let widest_blackout_us = apply
        .blackout_us
        .max(grow.blackout_us)
        .max(shrink.blackout_us);
    let budget_us = BLACKOUT_BUDGET.as_secs_f64() * 1e6;
    assert!(
        widest_blackout_us <= budget_us,
        "widest blackout {widest_blackout_us:.0} us exceeds the budget ({budget_us:.0} us)"
    );

    ReconfigReport {
        shards_initial: SHARDS,
        shards_peak: SHARDS_PEAK,
        clients,
        queries_sent: rtts.len() as u64,
        dropped_queries: stats.dropped_queries,
        final_epoch: stats.config_epoch,
        blackout_budget_ms: BLACKOUT_BUDGET.as_secs_f64() * 1e3,
        baseline_p99_us,
        apply,
        grow,
        shrink,
        widest_blackout_us,
        within_budget: widest_blackout_us <= budget_us,
    }
}

/// Runs `op` and returns its propagation span (start offset, end offset
/// from the origin) alongside its result. The span covers the control
/// call *and* the wait until every shard acked — the whole period a
/// query could observe the transition.
fn transition<T>(origin: Instant, op: impl FnOnce() -> T) -> ((Duration, Duration), T) {
    let start = origin.elapsed();
    let result = op();
    let end = origin.elapsed();
    ((start, end), result)
}

/// Reconstructs a [`TransitionWindow`] from the client record: every
/// query whose in-flight interval overlapped the span.
fn window(rtts: &[Rtt], span: (Duration, Duration)) -> TransitionWindow {
    let (start, end) = span;
    let overlapping: Vec<Duration> = rtts
        .iter()
        .filter(|rtt| rtt.start < end && rtt.start + rtt.latency > start)
        .map(|rtt| rtt.latency)
        .collect();
    let blackout = overlapping.iter().copied().max().unwrap_or(Duration::ZERO);
    TransitionWindow {
        ack_us: (end - start).as_secs_f64() * 1e6,
        blackout_us: blackout.as_secs_f64() * 1e6,
        queries_in_window: overlapping.len() as u64,
    }
}

/// p99 of exact latencies, in microseconds (0 for an empty slice).
fn p99_us(latencies: &[Duration]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort();
    let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

/// Runs the experiment and tabulates the blackout reconstruction.
pub fn run(clients: usize, settle: Duration, seed: u64) -> (Table, ReconfigReport) {
    let report = measure(clients, settle, seed);
    let mut table = Table::new(
        "E18: hot reconfiguration — blackout window per transition",
        &[
            "transition",
            "propagation",
            "blackout",
            "in flight",
            "verdict",
        ],
    );
    let budget_us = report.blackout_budget_ms * 1e3;
    for (label, t) in [
        ("apply delta (epoch 1)", &report.apply),
        ("grow 4 -> 8 (epoch 2)", &report.grow),
        ("shrink 8 -> 4 (epoch 3)", &report.shrink),
    ] {
        table.push_row([
            label.to_string(),
            format!("{:.0} us", t.ack_us),
            format!("{:.0} us", t.blackout_us),
            t.queries_in_window.to_string(),
            if t.blackout_us <= budget_us {
                "within budget".to_string()
            } else {
                "OVER BUDGET".to_string()
            },
        ]);
    }
    table.push_row([
        "baseline p99".to_string(),
        "-".to_string(),
        format!("{:.0} us", report.baseline_p99_us),
        report.queries_sent.to_string(),
        "steady state".to_string(),
    ]);
    table.push_row([
        "widest blackout".to_string(),
        format!("budget {:.0} ms", report.blackout_budget_ms),
        format!("{:.0} us", report.widest_blackout_us),
        format!("dropped {}", report.dropped_queries),
        if report.within_budget {
            "within budget".to_string()
        } else {
            "OVER BUDGET".to_string()
        },
    ]);
    (table, report)
}

/// Serializes the report as the body of a `BENCH_reconfig.json` document
/// (the members after the runner's header).
pub fn report_body(report: &ReconfigReport) -> String {
    let transition = |t: &TransitionWindow| {
        format!(
            "{{\"propagation_us\": {:.0}, \"blackout_us\": {:.0}, \"queries_in_window\": {}}}",
            t.ack_us, t.blackout_us, t.queries_in_window
        )
    };
    let mut out = String::from("  \"load\": {\n");
    out.push_str(&format!("    \"clients\": {},\n", report.clients));
    out.push_str(&format!(
        "    \"shards\": \"{} -> {} -> {}\",\n",
        report.shards_initial, report.shards_peak, report.shards_initial
    ));
    out.push_str(&format!("    \"queries_sent\": {},\n", report.queries_sent));
    out.push_str(&format!(
        "    \"dropped_queries\": {},\n",
        report.dropped_queries
    ));
    out.push_str(&format!("    \"final_epoch\": {},\n", report.final_epoch));
    out.push_str(&format!(
        "    \"baseline_p99_us\": {:.0}\n",
        report.baseline_p99_us
    ));
    out.push_str("  },\n");
    out.push_str("  \"transitions\": {\n");
    out.push_str(&format!("    \"apply\": {},\n", transition(&report.apply)));
    out.push_str(&format!("    \"grow\": {},\n", transition(&report.grow)));
    out.push_str(&format!("    \"shrink\": {}\n", transition(&report.shrink)));
    out.push_str("  },\n");
    out.push_str("  \"blackout\": {\n");
    out.push_str(&format!(
        "    \"widest_us\": {:.0},\n",
        report.widest_blackout_us
    ));
    out.push_str(&format!(
        "    \"blackout_budget_ms\": {:.0},\n",
        report.blackout_budget_ms
    ));
    out.push_str(&format!(
        "    \"within_budget\": {}\n",
        report.within_budget
    ));
    out.push_str("  }\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_stays_within_one_stats_interval() {
        // Smoke scale: 2 clients, 150 ms of steady load around each
        // transition. measure() itself asserts the zero-drop, epoch and
        // budget claims; the test checks the report.
        let (table, report) = run(2, Duration::from_millis(150), 18);
        assert_eq!(table.rows().len(), 5);
        assert!(report.queries_sent > 0);
        assert_eq!(report.dropped_queries, 0);
        assert_eq!(report.final_epoch, 3);
        assert!(report.within_budget);
        assert!(report.widest_blackout_us <= report.blackout_budget_ms * 1e3);
        assert!(
            report.apply.queries_in_window
                + report.grow.queries_in_window
                + report.shrink.queries_in_window
                > 0,
            "load overlapped at least one transition"
        );
    }
}
