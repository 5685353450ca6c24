//! Thread census of a running [`PoolRuntime`]: a default two-shard runtime
//! owns a dispatcher, a TCP acceptor and one worker per shard — nothing
//! else. Background refreshes and statistics have no thread of their own.
//!
//! In its own test binary so that no other test's threads are counted.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_runtime::{LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeConfig};

/// The `comm` of every thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn a_default_runtime_owns_one_thread_per_shard_plus_dispatcher_and_tcp() {
    let fleet = LoopbackFleet::build(LoopbackConfig::default());
    let shards = fleet
        .shards(2, PoolConfig::algorithm1(), CacheConfig::default())
        .expect("valid config");
    let before = thread_names().len();
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    // A spawned thread exists before `start` returns; it names itself a
    // moment later, so the names are polled and the count is not.
    assert_eq!(thread_names().len() - before, 4, "{:?}", thread_names());
    let expected = ["sdoh-dispatch", "sdoh-shard-0", "sdoh-shard-1", "sdoh-tcp"];
    let deadline = Instant::now() + Duration::from_secs(5);
    let census = loop {
        let mut named: Vec<String> = thread_names()
            .into_iter()
            .filter(|name| name.starts_with("sdoh-"))
            .collect();
        named.sort();
        if named == expected || Instant::now() >= deadline {
            break named;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(census, expected);
    runtime.shutdown();
    assert_eq!(thread_names().len(), before, "shutdown joined every thread");
}
