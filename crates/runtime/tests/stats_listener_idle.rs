//! The stats listener blocks in `accept`: with `stats_bind` set and nobody
//! scraping, its thread makes no timed wake-ups (it polled every 10 ms
//! once — about 30 voluntary context switches over the window below), a
//! scrape is still answered, and `shutdown` wakes it even when it is bound
//! on the unspecified address.
#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::time::Duration;

use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_metrics::http::wake_addr;
use sdoh_metrics::http_get;
use sdoh_runtime::{LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeConfig};

/// `voluntary_ctxt_switches` of this process's thread named `comm`.
fn voluntary_switches(comm: &str) -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .find(|status| status.lines().next() == Some(&format!("Name:\t{comm}")))
        .and_then(|status| {
            let line = status
                .lines()
                .find(|line| line.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or_else(|| panic!("no thread named {comm}"))
}

#[test]
fn an_idle_stats_listener_makes_no_wake_ups_and_still_answers_and_stops() {
    let fleet = LoopbackFleet::build(LoopbackConfig::default());
    let shards = fleet
        .shards(1, PoolConfig::algorithm1(), CacheConfig::default())
        .expect("valid config");
    let unspecified = SocketAddr::from(([0, 0, 0, 0], 0));
    let config = RuntimeConfig::default().with_stats_bind(Some(unspecified));
    let runtime = PoolRuntime::start(config, shards).expect("bind");
    let stats_addr = wake_addr(runtime.stats_addr().expect("stats listener"));

    // The first scrape also proves the thread has named itself and is in
    // its loop before the quiet window starts.
    let scrape = http_get(stats_addr, "/healthz", Duration::from_secs(2)).expect("scrape");
    assert_eq!(scrape.status, 200);
    let before = voluntary_switches("sdoh-stats");
    std::thread::sleep(Duration::from_millis(300));
    let woken = voluntary_switches("sdoh-stats") - before;
    assert!(
        woken <= 1,
        "the idle stats listener woke {woken} times in 300 ms"
    );

    let scrape = http_get(stats_addr, "/metrics", Duration::from_secs(2)).expect("scrape");
    assert_eq!(scrape.status, 200);
    runtime.shutdown();
    assert!(http_get(stats_addr, "/metrics", Duration::from_millis(200)).is_err());
}
