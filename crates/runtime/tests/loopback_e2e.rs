//! Loopback end-to-end proof of the real-socket runtime: real UDP clients
//! query a [`PoolRuntime`], which generates pools through full in-process
//! RFC 8484 DoH terminators — one of them compromised — and every served
//! answer satisfies the paper's benign-fraction guarantee. Also exercises
//! the TCP fallback for truncated answers and the off-query-path
//! background refresh.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sdoh_core::{
    check_guarantee, AddressPool, AddressSource, CacheConfig, DohSource, GroundTruth, PoolConfig,
};
use sdoh_dns_server::Exchanger;
use sdoh_dns_wire::{Edns, Message, Rcode, RrType, Ttl};
use sdoh_doh::DohMethod;
use sdoh_metrics::{http_get, parse_prometheus, SampleValue};
use sdoh_runtime::{
    ConfigDelta, LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig,
    RuntimeStats, Shard,
};

const SHARDS: usize = 4;

fn build(compromised: Vec<usize>, ttl: Ttl, stale: Duration) -> (LoopbackFleet, Vec<Shard>) {
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: 3,
        pool_domains: 4,
        addresses_per_domain: 8,
        compromised,
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(
            SHARDS,
            PoolConfig::algorithm1(),
            CacheConfig::default()
                .with_ttl(ttl)
                .with_stale_window(stale),
        )
        .expect("valid config");
    (fleet, shards)
}

fn assert_guarantee(response: &Message, truth: &GroundTruth) {
    assert_eq!(response.header.rcode, Rcode::NoError);
    let addresses = response.answer_addresses();
    assert!(!addresses.is_empty(), "empty answer");
    let mut pool = AddressPool::new();
    for addr in addresses {
        pool.push(addr, "served");
    }
    let check = check_guarantee(&pool, truth, 0.5);
    assert!(check.holds, "guarantee violated: {check:?}");
}

#[test]
fn udp_clients_get_guaranteed_pools_from_in_process_doh() {
    // One of three upstream resolvers is compromised: truncation caps its
    // share of every pool at 1/3, so the x = 1/2 guarantee must hold for
    // every answer the runtime serves over the real socket.
    let (fleet, shards) = build(vec![0], Ttl::from_secs(60), Duration::from_secs(60));
    let truth = fleet.ground_truth();
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    assert_eq!(runtime.shard_count(), SHARDS);
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr()).expect("client");

    let mut id: u16 = 0;
    for round in 0..3 {
        for domain in &fleet.domains {
            id += 1;
            let response = client
                .query(&Message::query(id, domain.clone(), RrType::A))
                .expect("query answered");
            assert_guarantee(&response, &truth);
            assert_eq!(
                response.answer_addresses().len(),
                24,
                "8 addresses x 3 resolvers, round {round}"
            );
        }
    }

    let stats = runtime.shutdown();
    assert_eq!(stats.total.serve.queries, 12);
    assert_eq!(
        stats.total.serve.generations, 4,
        "one generation per domain, everything else cache hits"
    );
    assert_eq!(stats.total.serve.hits, 8);
    assert_eq!(stats.udp_queries, 12);
    // Distinct domains spread across more than one shard-owned cache.
    let active = stats
        .per_shard
        .iter()
        .flatten()
        .filter(|s| s.serve.queries > 0)
        .count();
    assert!(active > 1, "4 domains served by {active} shard(s)");
    assert_eq!(stats.unresponsive_shards(), 0);
    for shard in stats.per_shard.iter().flatten() {
        assert_eq!(shard.serve.queries, shard.cache.hits + shard.cache.misses);
    }
}

#[test]
fn oversized_udp_answers_fall_back_to_tcp() {
    let (fleet, shards) = build(Vec::new(), Ttl::from_secs(60), Duration::from_secs(60));
    let truth = fleet.ground_truth();
    // A 24-record answer is ~700 bytes; a 128-byte limit forces TC=1.
    let config = RuntimeConfig::default().with_udp_payload_limit(128);
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr()).expect("client");

    // The client follows the TC signal transparently: the answer it
    // returns is the full TCP response.
    let response = client
        .query(&Message::query(9, fleet.domains[0].clone(), RrType::A))
        .expect("query answered");
    assert!(!response.header.truncated);
    assert_eq!(response.answer_addresses().len(), 24);
    assert_guarantee(&response, &truth);

    // Direct TCP works too and serves from the now-warm cache.
    let tcp_response = client
        .query_tcp(&Message::query(10, fleet.domains[0].clone(), RrType::A))
        .expect("tcp query answered");
    assert_eq!(tcp_response.answer_addresses().len(), 24);

    let stats = runtime.shutdown();
    assert!(stats.truncated_responses >= 1, "the TC path was exercised");
    assert!(stats.tcp_queries >= 2, "retry + direct tcp");
    assert_eq!(
        stats.total.serve.generations, 1,
        "TC retry was served from cache, not regenerated"
    );
}

#[test]
fn shutdown_reaches_socket_threads_bound_on_the_unspecified_address() {
    // Both socket threads block on their sockets; `shutdown` has to wake
    // them over loopback when the runtime listens on every address — and
    // what wakes them is not a query.
    let (fleet, shards) = build(Vec::new(), Ttl::from_secs(60), Duration::from_secs(60));
    let config = RuntimeConfig::default().with_bind(([0, 0, 0, 0], 0).into());
    let runtime = PoolRuntime::start(config, shards).expect("bind every address");
    let port = runtime.udp_addr().port();
    let client = RuntimeClient::connect(([127, 0, 0, 1], port).into(), None).expect("client");
    client
        .query(&Message::query(1, fleet.domains[0].clone(), RrType::A))
        .expect("query answered");
    let stats = runtime.shutdown();
    assert_eq!((stats.udp_queries, stats.tcp_queries), (1, 0));
}

/// Closes `stream` with a reset instead of a FIN (`SO_LINGER` 0, which std
/// cannot set): what the server's listener sees from a client that gives
/// up on a connection it has only just made.
#[cfg(target_os = "linux")]
fn close_with_reset(stream: std::net::TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const [i32; 2], len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = [1i32, 0]; // struct linger { l_onoff, l_linger }
                            // SAFETY: `stream` owns an open socket for the whole call, and `value`
                            // points to a live `struct linger` (two C ints, 8 bytes) the kernel
                            // only reads.
    let status = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, &linger, 8) };
    assert_eq!(status, 0, "SO_LINGER");
    drop(stream);
}

#[test]
#[cfg(target_os = "linux")]
fn a_client_that_resets_its_connection_does_not_end_the_tcp_fallback() {
    let (fleet, shards) = build(Vec::new(), Ttl::from_secs(60), Duration::from_secs(60));
    let config = RuntimeConfig::default().with_udp_payload_limit(128);
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let tcp_addr = runtime.tcp_addr().expect("tcp enabled");
    for _ in 0..3 {
        close_with_reset(std::net::TcpStream::connect(tcp_addr).expect("connect"));
    }
    // Whatever the acceptor made of those, the next truncated answer is
    // still retried over TCP and served in full.
    let client = RuntimeClient::connect(runtime.udp_addr(), Some(tcp_addr)).expect("client");
    let response = client
        .query(&Message::query(9, fleet.domains[0].clone(), RrType::A))
        .expect("TCP retry answered");
    assert_eq!(response.answer_addresses().len(), 24);
    let stats = runtime.shutdown();
    assert_eq!(stats.truncated_responses, 1);
    assert_eq!(stats.tcp_queries, 1, "the resets carried no query");
}

#[test]
fn every_answer_of_a_cold_burst_keeps_the_guarantee_in_one_round_trip_each() {
    // Five resolvers, one compromised, majority vote, a 2 ms upstream
    // round trip, 32 domains with nothing cached, all asked at once: 32
    // generations of five exchanges each, on one shard — so a fan-out that
    // paid its five round trips one by one could not beat the clock below.
    const DOMAINS: usize = 32;
    const RESOLVERS: usize = 5;
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: RESOLVERS,
        pool_domains: DOMAINS,
        compromised: vec![RESOLVERS - 1],
        upstream_latency: Duration::from_millis(2),
        ..LoopbackConfig::default()
    });
    let truth = fleet.ground_truth();
    let shards = fleet
        .shards(1, PoolConfig::majority_resolver(), CacheConfig::uncached())
        .expect("valid config");
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("client socket");
    socket.connect(runtime.udp_addr()).expect("connect");
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut exchanger = fleet
        .backends
        .exchanger(sdoh_netsim::SimAddr::v4(10, 9, 9, 9, 40000));

    // Judged against the same 160 exchanges made one round trip after the
    // other in the same run — a slow host stretches both sides — and over a
    // few rounds, so one scheduling stall cannot fail it. (The sequential
    // side sends no DoH request, so it waits but does none of the protocol
    // work: it errs in the burst's disfavour.)
    let mut rounds = Vec::new();
    while rounds.len() < 3 {
        let started = std::time::Instant::now();
        for (id, domain) in (0u16..).zip(&fleet.domains) {
            let query = Message::query(id, domain.clone(), RrType::A);
            socket.send(&query.encode().unwrap()).expect("send");
        }
        let mut buf = [0u8; 4096];
        for _ in 0..DOMAINS {
            let len = socket.recv(&mut buf).expect("every query is answered");
            let answer = Message::decode(&buf[..len]).expect("well-formed answer");
            assert_guarantee(&answer, &truth);
            let mut served = answer.answer_addresses();
            served.sort();
            assert_eq!(
                served, fleet.benign,
                "the compromised resolver was outvoted"
            );
        }
        let burst = started.elapsed();

        let started = std::time::Instant::now();
        for _ in 0..DOMAINS {
            for info in &fleet.infos {
                let _ = exchanger.exchange(
                    info.addr,
                    sdoh_netsim::ChannelKind::Secure,
                    b"not a DoH request",
                    Duration::ZERO,
                );
            }
        }
        let sequential = started.elapsed();
        rounds.push((burst, sequential));
        if burst * 2 < sequential {
            break;
        }
    }

    let stats = runtime.shutdown();
    let generations = (DOMAINS * rounds.len()) as u64;
    assert_eq!(stats.total.serve.generations, generations);
    assert_eq!(
        stats.total.serve.source_answers,
        RESOLVERS as u64 * generations
    );
    assert_eq!(stats.total.serve.source_failures, 0);
    let (burst, sequential) = rounds[rounds.len() - 1];
    assert!(
        burst * 2 < sequential,
        "a burst never took under half of its exchanges made one by one; \
         (burst, sequential) per round: {rounds:?}"
    );
}

#[test]
fn udp_truncation_follows_what_the_client_advertised() {
    // One domain whose pool is 3 resolvers x `per_resolver` addresses,
    // served under the default 1232-byte operator limit.
    let start = |per_resolver: usize| {
        let fleet = LoopbackFleet::build(LoopbackConfig {
            pool_domains: 1,
            addresses_per_domain: per_resolver,
            ..LoopbackConfig::default()
        });
        let shards = fleet
            .shards(1, PoolConfig::algorithm1(), CacheConfig::default())
            .expect("valid config");
        let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
        (fleet, runtime)
    };
    // One datagram out, one back: what a client that never retries sees.
    let exchange = |runtime: &PoolRuntime, query: &Message| {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("client socket");
        socket
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        socket
            .send_to(&query.encode().unwrap(), runtime.udp_addr())
            .expect("send");
        let mut buf = [0u8; 4096];
        let (len, _) = socket.recv_from(&mut buf).expect("answer");
        (len, Message::decode(&buf[..len]).expect("decodable answer"))
    };
    let with_opt = |id: u16, domain: &sdoh_dns_wire::Name, payload: u16| {
        let mut query = Message::query(id, domain.clone(), RrType::A);
        query.set_edns(Edns::with_payload_size(payload));
        query
    };

    // 39 addresses: a 656-byte answer, between 512 and the operator limit.
    let (fleet, runtime) = start(13);
    let domain = &fleet.domains[0];
    // A pre-EDNS stub may drop anything over 512 bytes: TC=1, no records.
    let (len, plain) = exchange(&runtime, &Message::query(1, domain.clone(), RrType::A));
    assert!(
        plain.header.truncated,
        "no OPT: 512 is all the client takes"
    );
    assert!(plain.answers.is_empty());
    assert!(len <= 512);
    // The same query advertising 1232 bytes gets the whole pool.
    let (len, whole) = exchange(&runtime, &with_opt(2, domain, 1232));
    assert!(!whole.header.truncated);
    assert_eq!(whole.answer_addresses().len(), 39);
    assert!((513..=1232).contains(&len), "{len} bytes");
    // An advertisement below 512 is read as 512 (RFC 6891 6.2.5).
    let (_, tiny) = exchange(&runtime, &with_opt(3, domain, 100));
    assert!(tiny.header.truncated);
    // The stub that follows TC=1 still gets every address, over TCP.
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr()).expect("client");
    let retried = client
        .query(&Message::query(4, domain.clone(), RrType::A))
        .expect("query answered");
    assert_eq!(retried.answer_addresses().len(), 39);
    let stats = runtime.shutdown();
    assert_eq!(stats.truncated_responses, 3, "ids 1, 3 and 4");
    assert_eq!(stats.tcp_queries, 1);

    // 78 addresses: 1280 bytes, over the operator limit whatever the
    // client advertises.
    let (fleet, runtime) = start(26);
    let (_, capped) = exchange(&runtime, &with_opt(5, &fleet.domains[0], 4096));
    assert!(capped.header.truncated, "the operator's limit still caps");
    assert!(capped.answers.is_empty());
    assert_eq!(runtime.shutdown().truncated_responses, 1);
}

#[test]
fn background_refresh_runs_off_the_query_path() {
    // Tiny TTL + wide stale window: after the TTL expires, queries are
    // served stale (TTL 0) immediately while the shard's worker
    // regenerates in the background, off its own timer (no other traffic
    // wakes it here).
    let (fleet, shards) = build(Vec::new(), Ttl::from_secs(2), Duration::from_secs(3600));
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr()).expect("client");
    let domain = fleet.domains[0].clone();

    let first = client
        .query(&Message::query(1, domain.clone(), RrType::A))
        .expect("cold query");
    assert!(first.answers.iter().all(|r| r.ttl >= 1), "fresh TTL served");

    std::thread::sleep(Duration::from_millis(2300)); // past the 2 s TTL
    let stale = client
        .query(&Message::query(2, domain.clone(), RrType::A))
        .expect("stale query");
    assert_eq!(stale.answer_addresses().len(), 24, "stale but served");
    assert!(
        stale.answers.iter().all(|r| r.ttl == 0),
        "stale TTL is zero"
    );

    // Give the worker a few coalescing windows, then expect a fresh hit.
    std::thread::sleep(Duration::from_millis(300));
    let fresh = client
        .query(&Message::query(3, domain.clone(), RrType::A))
        .expect("refreshed query");
    assert!(fresh.answers.iter().all(|r| r.ttl >= 1), "refreshed entry");

    let stats: RuntimeStats = runtime.shutdown();
    assert_eq!(stats.total.serve.stale_serves, 1);
    assert!(
        stats.total.serve.refreshes >= 1,
        "the worker regenerated in the background: {:?}",
        stats.total.serve
    );
    assert_eq!(stats.total.serve.queries, 3);
}

#[test]
fn refresh_runs_while_the_shard_queue_never_empties() {
    // One shard. A stale serve of domain B is followed, in the same burst
    // of datagrams, by five cold queries and then B again. Each cold query
    // costs a generation of at least one 20 ms upstream round trip, so the
    // worker's queue holds the rest of the burst from the stale serve until
    // it takes "B again" at least 100 ms later: it never finds the queue
    // empty and never waits out its refresh timer. The refresh came due
    // 50 ms in; only the check the worker makes between items can have run
    // it by the time B is served again.
    const COLD: usize = 5;
    let fleet = LoopbackFleet::build(LoopbackConfig {
        pool_domains: 1 + COLD,
        upstream_latency: Duration::from_millis(20),
        ..LoopbackConfig::default()
    });
    let cache = CacheConfig::default()
        .with_ttl(Ttl::from_secs(2))
        .with_stale_window(Duration::from_secs(3600));
    let shards = fleet
        .shards(1, PoolConfig::algorithm1(), cache)
        .expect("valid config");
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("client socket");
    socket.connect(runtime.udp_addr()).expect("connect");
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let send = |id: u16, domain: usize| {
        let query = Message::query(id, fleet.domains[domain].clone(), RrType::A);
        socket.send(&query.encode().unwrap()).expect("send");
    };
    let receive = || {
        let mut buf = [0u8; 4096];
        let len = socket.recv(&mut buf).expect("every query is answered");
        Message::decode(&buf[..len]).expect("well-formed answer")
    };

    send(1, 0);
    assert!(receive().answers.iter().all(|r| r.ttl >= 1), "B cached");
    std::thread::sleep(Duration::from_millis(2100)); // past the 2 s TTL

    send(2, 0);
    (1..=COLD).for_each(|domain| send(10, domain));
    send(3, 0);
    // One dispatcher, one shard: answers come back in query order.
    let stale = receive();
    assert_eq!(stale.header.id, 2);
    assert!(stale.answers.iter().all(|r| r.ttl == 0), "B served stale");
    for _ in 0..COLD {
        assert_eq!(receive().header.id, 10);
    }
    let again = receive();
    assert_eq!(again.header.id, 3);
    assert!(
        again.answers.iter().all(|r| r.ttl >= 1),
        "B was refreshed while the queue was never empty"
    );

    let stats = runtime.shutdown();
    assert_eq!(stats.total.serve.stale_serves, 1);
    assert_eq!(stats.total.serve.refreshes, 1);
    assert_eq!(stats.total.serve.generations, 2 + COLD as u64);
}

#[test]
fn reconfiguration_and_rescale_under_load_drop_nothing() {
    // The control-plane e2e: while real UDP clients hammer the runtime,
    // apply a full config delta (TTL + stale window, pool hardening, a
    // smaller upstream resolver set) and rescale 4 -> 8 -> 4 shards. Not
    // one query may be dropped, every answer must satisfy the x = 1/2
    // guarantee, the epoch transitions must be visible through the
    // /metrics gauges, and afterwards no cache key may live on two shards.
    let (fleet, shards) = build(vec![0], Ttl::from_secs(60), Duration::from_secs(60));
    let truth = Arc::new(fleet.ground_truth());
    let config = RuntimeConfig::default()
        .with_stats_bind(Some(std::net::SocketAddr::from(([127, 0, 0, 1], 0))));
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let control = runtime.control();
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let udp = runtime.udp_addr();
    let tcp = runtime.tcp_addr();

    // Three loader threads; every query must come back (a drop surfaces
    // as a client timeout) and every answer must hold the guarantee.
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<std::thread::JoinHandle<u64>> = (0..3)
        .map(|thread| {
            let stop = stop.clone();
            let truth = truth.clone();
            let domains = fleet.domains.clone();
            std::thread::spawn(move || {
                let client = RuntimeClient::connect(udp, tcp).expect("client");
                let mut id: u16 = (thread as u16) * 16384;
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for domain in &domains {
                        id = id.wrapping_add(1);
                        let response = client
                            .query(&Message::query(id, domain.clone(), RrType::A))
                            .expect("no query may be dropped during reconfiguration");
                        assert_guarantee(&response, &truth);
                        sent += 1;
                    }
                }
                sent
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    // The full delta, mid-load: flip the TTL and stale window, harden the
    // pool config, and drop the compromised upstream from the resolver
    // set (new generations fan out to the two honest resolvers only).
    let honest: Vec<_> = fleet.infos[1..].to_vec();
    let delta = ConfigDelta::new()
        .with_cache(
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(2))
                .with_stale_window(Duration::from_secs(10)),
        )
        .with_pool(PoolConfig::algorithm1().with_min_responses(2))
        .with_sources(Arc::new(move |_shard| {
            honest
                .iter()
                .map(|info| {
                    Box::new(DohSource::new(info.clone()).method(DohMethod::Get))
                        as Box<dyn AddressSource>
                })
                .collect()
        }));
    let receipt = control.apply(delta).expect("valid delta");
    assert_eq!(receipt.epoch, 1);
    assert_eq!(receipt.shards, SHARDS);
    assert!(
        control.wait_for_epoch(receipt.epoch, Duration::from_secs(10)),
        "shards acked the new epoch while serving: {:?}",
        control.acked_epochs()
    );

    // Grow 4 -> 8 mid-load: pre-built shards take indices 4..8.
    let mut spare: Vec<Option<Shard>> = fleet
        .shards(
            8,
            PoolConfig::algorithm1().with_min_responses(2),
            *control.current_config().cache(),
        )
        .expect("valid config")
        .into_iter()
        .map(Some)
        .collect();
    let receipt = control
        .rescale(8, |index| spare[index].take().expect("fresh shard"))
        .expect("grow rescale");
    assert_eq!(receipt.shards, 8);
    assert_eq!(control.shard_count(), 8);
    assert!(control.wait_for_epoch(receipt.epoch, Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(150));

    // The epoch transition is observable through the /metrics gauges:
    // the published epoch and all eight per-shard acked-epoch gauges.
    let scrape = http_get(stats_addr, "/metrics", Duration::from_secs(5)).expect("scrape");
    let samples = parse_prometheus(&scrape.body).expect("parseable exposition");
    let gauge = |name: &str| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                SampleValue::Gauge(v) => v,
                ref other => panic!("{name} is not a gauge: {other:?}"),
            })
            .collect()
    };
    let expected = receipt.epoch as f64;
    assert_eq!(gauge("sdoh_config_epoch"), vec![expected]);
    let acked = gauge("sdoh_shard_acked_epoch");
    assert_eq!(acked.len(), 8, "one acked gauge per live shard");
    assert!(
        acked.iter().all(|&epoch| epoch == expected),
        "every shard acked epoch {expected}: {acked:?}"
    );
    let config_doc = http_get(stats_addr, "/config", Duration::from_secs(5)).expect("/config");
    assert_eq!(config_doc.status, 200);
    assert!(config_doc
        .body
        .contains(&format!("\"epoch\": {}", receipt.epoch)));
    assert!(config_doc.body.contains("\"shards\": 8"));

    // Shrink back 8 -> 4 mid-load: retirees hand entries to survivors and
    // linger for stray in-flight queries.
    let receipt = control
        .rescale(4, |_| unreachable!("shrinking builds no shards"))
        .expect("shrink rescale");
    assert_eq!(receipt.shards, 4);
    assert_eq!(control.shard_count(), 4);
    assert!(control.wait_for_epoch(receipt.epoch, Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(150));

    // No cache key is owned by two shards at once after the rescales.
    let probes = control.probe_entries(Duration::from_secs(5));
    assert_eq!(probes.len(), 4, "every live shard answered the probe");
    let mut seen = std::collections::HashSet::new();
    for (shard, entries) in &probes {
        for probe in entries {
            assert!(
                seen.insert(probe.key.clone()),
                "{} cached by shard {shard} and another shard at once",
                probe.key
            );
        }
    }

    stop.store(true, Ordering::Relaxed);
    let sent: u64 = loaders.into_iter().map(|h| h.join().expect("loader")).sum();
    assert!(sent > 0, "the loaders actually ran");

    let stats = runtime.shutdown();
    assert_eq!(
        stats.dropped_queries, 0,
        "zero dropped queries across apply + grow + shrink"
    );
    assert_eq!(stats.config_epoch, 3, "apply, grow, shrink: three epochs");
    assert_eq!(
        stats.udp_queries, sent,
        "the front door counted every query"
    );
    // Serve counters are owned per shard: the queries shards 4..7 served
    // between the grow and the shrink retired with their workers, so the
    // aggregate covers the four survivors only.
    assert!(
        stats.total.serve.queries <= sent,
        "surviving shards served {} of {sent}",
        stats.total.serve.queries
    );
    assert!(stats.total.serve.queries > 0);
}

#[test]
fn clock_syncs_through_the_real_socket_runtime() {
    // The paper's pipeline, with the DNS leg over real sockets: a stub
    // obtains its NTP pool from the threaded runtime via actual loopback
    // UDP (consensus-generated behind the scenes, one of three upstream
    // resolvers compromised), then disciplines a clock with Chronos over
    // that pool against a simulated server fleet whose malicious members
    // are exactly the fleet's ground truth.
    use sdoh_netsim::{LinkConfig, SimAddr, SimNet};
    use sdoh_ntp::{
        register_pool, ChronosClient, ChronosConfig, LocalClock, NtpClient, NtpServerConfig,
        NtpServerService,
    };

    let (fleet, shards) = build(vec![1], Ttl::from_secs(300), Duration::from_secs(300));
    let truth = fleet.ground_truth();
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let client = RuntimeClient::connect(runtime.udp_addr(), runtime.tcp_addr()).expect("client");

    // The DNS leg: a real UDP round trip to the serving runtime.
    let response = client
        .query(&Message::query(1, fleet.domains[0].clone(), RrType::A))
        .expect("pool query over loopback UDP");
    assert_guarantee(&response, &truth);
    let pool = response.answer_addresses();
    assert_eq!(pool.len(), 24, "8 addresses x 3 resolvers");

    // The NTP leg: time servers behind those addresses — honest ones for
    // the published fleet, 1000 s shifters for the attacker block the
    // compromised resolver injected.
    let net = SimNet::new(77);
    net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
    let benign_addrs: Vec<SimAddr> = fleet
        .benign
        .iter()
        .map(|&ip| SimAddr::new(ip, sdoh_netsim::ports::NTP))
        .collect();
    register_pool(&net, &benign_addrs, 0, 0.0, 77);
    for &ip in &fleet.attacker {
        net.register(
            SimAddr::new(ip, sdoh_netsim::ports::NTP),
            NtpServerService::new(NtpServerConfig::malicious(1000.0), net.clock(), 78),
        );
    }

    let mut clock = LocalClock::new(net.clock(), -30.0);
    let mut chronos = ChronosClient::new(
        ChronosConfig::default(),
        NtpClient::new(SimAddr::v4(10, 0, 0, 1, 123)),
        79,
    )
    .expect("valid chronos config");
    chronos
        .update(&net, &mut clock, &pool)
        .expect("chronos update over the served pool");
    assert!(
        clock.offset_from_true().abs() < 1.0,
        "the runtime-served pool's bad minority is tolerated: {}",
        clock.offset_from_true()
    );

    let stats = runtime.shutdown();
    assert_eq!(stats.total.serve.queries, 1);
    assert_eq!(stats.total.serve.generations, 1);
}
