//! Loopback end-to-end proof of the real-socket runtime: real UDP clients
//! query a [`PoolRuntime`], which generates pools through full in-process
//! RFC 8484 DoH terminators — one of them compromised — and every served
//! answer satisfies the paper's benign-fraction guarantee. Also exercises
//! the TCP fallback for truncated answers, the off-query-path background
//! refresh, and what a generation that does not hold its shard is for: hits
//! answered while a miss is upstream, misses sharing a flight or a round
//! trip, statistics, shutdown and reconfiguration with flights live.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sdoh_core::{
    check_guarantee, doh_sources, AddressPool, CacheConfig, ConfigError, DohFleet, GroundTruth,
    PoolConfig,
};
use sdoh_dns_wire::{Edns, Message, Rcode, RrType, Ttl};
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
    let client =
        RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");

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
    assert!(stats.per_shard.iter().all(Option::is_some));
    for shard in stats.per_shard.iter().flatten() {
        let serve = &shard.serve;
        assert_eq!(
            serve.queries,
            serve.hits + serve.negative_hits + serve.stale_serves + serve.misses
        );
    }
}

#[test]
fn oversized_udp_answers_fall_back_to_tcp() {
    let (fleet, shards) = build(Vec::new(), Ttl::from_secs(60), Duration::from_secs(60));
    let truth = fleet.ground_truth();
    // A 24-record answer is ~700 bytes; a 128-byte limit forces TC=1.
    let config = RuntimeConfig::default().with_udp_payload_limit(128);
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let client =
        RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");

    // The client follows the TC signal transparently: the answer it
    // returns is the full TCP response.
    let response = client
        .query(&Message::query(9, fleet.domains[0].clone(), RrType::A))
        .expect("query answered");
    assert!(!response.header.truncated);
    assert_eq!(response.answer_addresses().len(), 24);
    assert_guarantee(&response, &truth);

    let stats = runtime.shutdown();
    assert!(stats.truncated_responses >= 1, "the TC path was exercised");
    assert!(stats.tcp_queries >= 1, "the TC retry went over TCP");
    assert_eq!(
        stats.total.serve.generations, 1,
        "TC retry was served from cache, not regenerated"
    );
}

/// The paper's largest resolver count (E3a sweeps N to 31) through the
/// runtime, with as many of the 31 compromised as the guarantee `x = 1/2`
/// tolerates: 15, every other resolver, named and synthetic ones alike.
/// Truncate-and-combine serves every resolver's eight addresses, a pool of
/// 248 that no UDP answer holds: each query takes TC=1 to the TCP listener
/// and its TCP answer is checked. The majority vote serves the eight that
/// 16 of 31 resolvers agree on, over UDP.
#[test]
fn thirty_one_resolvers_keep_the_guarantee_on_every_answer() {
    const N: usize = 31;
    let tolerated = (N - 1) / 2;
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: N,
        compromised: (0..N).step_by(2).take(tolerated).collect(),
        ..LoopbackConfig::default()
    });
    let truth = fleet.ground_truth();
    let queries = fleet.domains.len() as u64;
    for (pool, served, over_tcp) in [
        (PoolConfig::algorithm1(), 8 * N, queries),
        (PoolConfig::majority_resolver(), 8, 0),
    ] {
        let shards = fleet
            .shards(2, pool.clone(), CacheConfig::default())
            .expect("valid config");
        let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
        let client =
            RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");
        for (id, domain) in (1..).zip(&fleet.domains) {
            let response = client
                .query(&Message::query(id, domain.clone(), RrType::A))
                .expect("query answered");
            assert_guarantee(&response, &truth);
            assert_eq!(response.answer_addresses().len(), served, "{:?}", pool.mode);
        }
        let stats = runtime.shutdown();
        println!(
            "N = {N}, {tolerated} compromised, {:?}: {queries} answers of {served} addresses, \
             guarantee held on each; {} truncated over UDP, {} answered over TCP",
            pool.mode, stats.truncated_responses, stats.tcp_queries
        );
        assert_eq!(stats.total.serve.generations, queries);
        assert_eq!(stats.truncated_responses, over_tcp, "{:?}", pool.mode);
        assert_eq!(stats.tcp_queries, over_tcp, "{:?}", pool.mode);
    }
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
    let tcp_addr = runtime.tcp_addr();
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

/// One length-prefixed query over TCP and its answer, read within `budget`.
fn tcp_exchange(
    stream: &mut std::net::TcpStream,
    query: &[u8],
    budget: Duration,
) -> std::io::Result<Message> {
    use std::io::{Read, Write};
    stream.set_read_timeout(Some(budget))?;
    let mut framed = u16::try_from(query.len()).unwrap().to_be_bytes().to_vec();
    framed.extend_from_slice(query);
    stream.write_all(&framed)?;
    let mut len = [0u8; 2];
    stream.read_exact(&mut len)?;
    let mut answer = vec![0; usize::from(u16::from_be_bytes(len))];
    stream.read_exact(&mut answer)?;
    Ok(Message::decode(&answer).expect("a DNS answer"))
}

#[test]
fn a_tcp_client_that_never_reads_does_not_wedge_the_fallback() {
    // 600-address answers (~10 KB each): a client that pipelines queries
    // and never reads its answers fills its receive buffer and the
    // server's send buffer, and the server's write of the next answer
    // stalls. The kernel may let it trickle on for a while (each send
    // that moves an octet starts the 2 s budget again), so B gets a
    // generous bound; without a write budget it waits for ever.
    let fleet = LoopbackFleet::build(LoopbackConfig {
        addresses_per_domain: 200,
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(2, PoolConfig::algorithm1(), CacheConfig::default())
        .expect("valid config");
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let query = Message::query(5, fleet.domains[0].clone(), RrType::A)
        .encode()
        .unwrap()
        .to_vec();

    let mut framed = u16::try_from(query.len()).unwrap().to_be_bytes().to_vec();
    framed.extend_from_slice(&query);
    let silent = std::net::TcpStream::connect(runtime.tcp_addr()).expect("connect A");
    let mut writer = silent.try_clone().expect("clone A");
    let pipelined = std::thread::spawn(move || {
        use std::io::Write;
        let mut sent = 0u64;
        // Ends when the server drops the connection, or when the test
        // shuts it down.
        while writer.write_all(&framed).is_ok() {
            sent += 1;
        }
        sent
    });
    std::thread::sleep(Duration::from_secs(1));

    let mut other = std::net::TcpStream::connect(runtime.tcp_addr()).expect("connect B");
    let asked = std::time::Instant::now();
    let answered = tcp_exchange(&mut other, &query, Duration::from_secs(15));
    let waited = asked.elapsed();
    // Unblock the server however the exchange went, so that it can stop:
    // A's writer is stopped, and A closed with answers unread is reset.
    let _ = silent.shutdown(std::net::Shutdown::Both);
    let sent = pipelined.join().expect("writer");
    drop(silent);
    runtime.shutdown();

    let answer = answered.unwrap_or_else(|error| {
        panic!("B unanswered after {waited:?} behind {sent} pipelined queries: {error}")
    });
    assert_eq!(answer.answer_addresses().len(), 600);
}

#[test]
fn every_answer_of_a_cold_burst_keeps_the_guarantee_in_one_round_trip_each() {
    // Five resolvers, one compromised, majority vote, a 50 ms upstream
    // round trip, 32 domains with nothing cached, all asked at once: 32
    // generations of five exchanges each, on ONE shard. The shard parks each
    // miss and goes on to the next, so the 32 fan-outs leave together and
    // the burst costs about one round trip — not the 32 a shard that sat
    // out each generation would pay, whatever it did inside one. (50 ms,
    // because an unoptimised build spends about that long computing the 160
    // exchanges: against a shorter round trip the clock below would measure
    // the protocol work, not the waiting.)
    const DOMAINS: usize = 32;
    const RESOLVERS: usize = 5;
    const LATENCY: Duration = Duration::from_millis(50);
    let fleet = LoopbackFleet::build(LoopbackConfig {
        resolvers: RESOLVERS,
        pool_domains: DOMAINS,
        compromised: vec![RESOLVERS - 1],
        upstream_latency: LATENCY,
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

    // Judged against 32 sleeps of the latency made in the same run — what
    // the round trips alone cost a shard that takes them one by one; a host
    // that oversleeps stretches both sides — and over a few rounds, so one
    // scheduling stall cannot fail it. The burst has to come in under four
    // round trips, an eighth of that.
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
            std::thread::sleep(LATENCY);
        }
        let one_by_one = started.elapsed();
        rounds.push((burst, one_by_one));
        if burst * 8 < one_by_one {
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
    let (burst, one_by_one) = rounds[rounds.len() - 1];
    assert!(
        burst * 8 < one_by_one,
        "a burst of {DOMAINS} never came in under four round trips; \
         (burst, {DOMAINS} round trips one by one) per round: {rounds:?}"
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
    let client =
        RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");
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
    // served stale (TTL 0) immediately while the shard regenerates in the
    // background, landed by the shard timer (no other traffic meets it
    // here).
    let (fleet, shards) = build(Vec::new(), Ttl::from_secs(2), Duration::from_secs(3600));
    let runtime = PoolRuntime::start(RuntimeConfig::default(), shards).expect("bind loopback");
    let client =
        RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");
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

    // The refresh left when it came due; give it time to land on any host,
    // then expect a fresh hit.
    std::thread::sleep(Duration::from_millis(300));
    let fresh = client
        .query(&Message::query(3, domain.clone(), RrType::A))
        .expect("refreshed query");
    assert!(fresh.answers.iter().all(|r| r.ttl >= 1), "refreshed entry");

    let stats: RuntimeStats = runtime.shutdown();
    assert_eq!(stats.total.serve.stale_serves, 1);
    assert!(
        stats.total.serve.refreshes >= 1,
        "the shard regenerated in the background: {:?}",
        stats.total.serve
    );
    assert_eq!(stats.total.serve.queries, 3);
}

/// The longest a client may wait for any answer while the control plane
/// applies a delta: a reconfiguration is never an outage a client would
/// notice.
const BLACKOUT_BUDGET: Duration = Duration::from_millis(500);

/// Scrapes `/metrics` and asserts the published epoch and one acked-epoch
/// gauge per shard, every one at `epoch`.
fn assert_epoch_gauges(stats_addr: std::net::SocketAddr, epoch: u64, shards: usize) {
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
    let expected = epoch as f64;
    assert_eq!(gauge("sdoh_config_epoch"), vec![expected]);
    let acked = gauge("sdoh_shard_acked_epoch");
    assert_eq!(acked.len(), shards, "one acked gauge per shard");
    assert!(
        acked.iter().all(|&acked_epoch| acked_epoch == expected),
        "every shard acked epoch {expected}: {acked:?}"
    );
}

#[test]
fn reconfiguration_under_load_drops_nothing() {
    // The control-plane e2e: while real UDP clients hammer the runtime,
    // apply a full config delta (TTL + stale window, pool hardening, a
    // smaller upstream resolver set). Not one query may be dropped or wait
    // out the blackout budget, every answer must satisfy the x = 1/2
    // guarantee, and the epoch transition must be visible through the
    // /metrics gauges and the /config document.
    //
    // Every control item meets live flights: an exchange takes 3 ms, and 32
    // domains asked for in turn over caches of four entries a shard never
    // hit, so each loader always has a generation upstream.
    let fleet = LoopbackFleet::build(LoopbackConfig {
        pool_domains: 32,
        compromised: vec![0],
        upstream_latency: Duration::from_millis(3),
        ..LoopbackConfig::default()
    });
    let churning = CacheConfig::default().with_capacity(4);
    let shards = fleet
        .shards(SHARDS, PoolConfig::algorithm1(), churning)
        .expect("valid config");
    let truth = Arc::new(fleet.ground_truth());
    let config = RuntimeConfig::default()
        .with_stats_bind(Some(std::net::SocketAddr::from(([127, 0, 0, 1], 0))));
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let control = runtime.control();
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let udp = runtime.udp_addr();
    let tcp = Some(runtime.tcp_addr());

    // Three loader threads; every query must come back within the
    // blackout budget (a drop, or a transition that stalls a query past
    // it, surfaces as a client timeout) and every answer must hold the
    // guarantee.
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<std::thread::JoinHandle<u64>> = (0..3)
        .map(|thread| {
            let stop = stop.clone();
            let truth = truth.clone();
            let domains = fleet.domains.clone();
            std::thread::spawn(move || {
                let client = RuntimeClient::connect(udp, tcp)
                    .and_then(|client| client.with_timeout(BLACKOUT_BUDGET))
                    .expect("client");
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
            churning
                .with_ttl(Ttl::from_secs(2))
                .with_stale_window(Duration::from_secs(10)),
        )
        .with_pool(PoolConfig {
            min_responses: 2,
            ..PoolConfig::algorithm1()
        })
        .with_sources(Arc::new(move |_shard| doh_sources(&honest)));
    let receipt = control.apply(delta).expect("valid delta");
    assert_eq!(receipt.epoch, 1);
    assert_eq!(receipt.shards, SHARDS);
    assert!(
        control.wait_for_epoch(receipt.epoch, Duration::from_secs(10)),
        "shards acked the new epoch while serving: {:?}",
        control.acked_epochs()
    );
    // The loaders keep asking under the new epoch.
    std::thread::sleep(Duration::from_millis(150));

    // The epoch transition is observable through the /metrics gauges:
    // the published epoch and every per-shard acked-epoch gauge.
    assert_epoch_gauges(stats_addr, receipt.epoch, SHARDS);
    let config_doc = http_get(stats_addr, "/config", Duration::from_secs(5)).expect("/config");
    assert_eq!(config_doc.status, 200);
    assert!(config_doc
        .body
        .contains(&format!("\"epoch\": {}", receipt.epoch)));
    assert!(config_doc.body.contains(&format!("\"shards\": {SHARDS}")));

    stop.store(true, Ordering::Relaxed);
    let sent: u64 = loaders.into_iter().map(|h| h.join().expect("loader")).sum();
    assert!(sent > 0, "the loaders actually ran");

    let stats = runtime.shutdown();
    assert_eq!(
        stats.dropped_queries, 0,
        "zero dropped queries across apply"
    );
    assert_eq!(stats.config_epoch, 1);
    assert_eq!(
        stats.udp_queries, sent,
        "the front door counted every query"
    );
    assert_eq!(
        stats.total.serve.queries, sent,
        "the shards served every query"
    );
    assert!(
        stats.total.serve.misses * 2 > stats.total.serve.queries,
        "the control items met live flights: {:?}",
        stats.total.serve
    );
}

#[test]
fn a_rejected_delta_publishes_nothing() {
    // Operator input is validated where it arrives, before anything is
    // numbered or fanned out: a rejected delta leaves the epoch, every
    // shard's ack, the published knobs and the `/config` document as they
    // were, and an accepted one moves the epoch by exactly one.
    let (_fleet, shards) = build(Vec::new(), Ttl::from_secs(60), Duration::from_secs(60));
    let config = RuntimeConfig::default()
        .with_stats_bind(Some(std::net::SocketAddr::from(([127, 0, 0, 1], 0))));
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let control = runtime.control();
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let published = || {
        let document = http_get(stats_addr, "/config", Duration::from_secs(5)).expect("/config");
        (
            control.current_epoch(),
            control.acked_epochs(),
            control.current_config(),
            document.body,
        )
    };
    let before = published();
    assert_eq!((before.0, &before.1), (0, &vec![0; SHARDS]));

    let retuned = CacheConfig::default().with_ttl(Ttl::from_secs(5));
    let no_room = ConfigDelta::new().with_cache(retuned.with_capacity(0));
    assert_eq!(
        control.apply(no_room).unwrap_err(),
        ConfigError::Zero("capacity")
    );
    assert_eq!(published(), before);

    // Valid knobs beside an invalid pool configuration go nowhere either.
    let no_quorum = ConfigDelta::new()
        .with_cache(retuned)
        .with_pool(PoolConfig {
            min_responses: 0,
            ..PoolConfig::algorithm1()
        });
    match control.apply(no_quorum).unwrap_err() {
        ConfigError::Invalid { field, reason } => {
            assert_eq!(field, "pool");
            assert!(reason.contains("min_responses"), "{reason}");
        }
        other => panic!("an invalid pool configuration was reported as {other:?}"),
    }
    assert_eq!(published(), before);

    let receipt = control
        .apply(ConfigDelta::new().with_cache(retuned))
        .expect("valid delta");
    assert_eq!(receipt.epoch, before.0 + 1);
    assert!(control.wait_for_epoch(receipt.epoch, Duration::from_secs(10)));
    let after = published();
    assert_eq!((after.0, &after.1), (1, &vec![1; SHARDS]));
    assert_eq!(after.2, retuned);
    assert!(after.3.contains("\"epoch\": 1"), "{}", after.3);
    assert!(after.3.contains("\"ttl_seconds\": 5"), "{}", after.3);
    assert_eq!(runtime.shutdown().config_epoch, 1);
}

/// One shard over three resolvers, resolver 0 compromised, every upstream
/// exchange taking `latency`; plus a client socket connected to it.
fn one_shard(
    latency: Duration,
    pool_domains: usize,
    cache: CacheConfig,
) -> (LoopbackFleet, PoolRuntime, std::net::UdpSocket) {
    let fleet = LoopbackFleet::build(LoopbackConfig {
        pool_domains,
        compromised: vec![0],
        upstream_latency: latency,
        ..LoopbackConfig::default()
    });
    let shards = fleet
        .shards(1, PoolConfig::algorithm1(), cache)
        .expect("valid config");
    let config = RuntimeConfig::default()
        .with_stats_bind(Some(std::net::SocketAddr::from(([127, 0, 0, 1], 0))));
    let runtime = PoolRuntime::start(config, shards).expect("bind loopback");
    let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("client socket");
    socket.connect(runtime.udp_addr()).expect("connect");
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    (fleet, runtime, socket)
}

fn send(socket: &std::net::UdpSocket, id: u16, domain: &sdoh_dns_wire::Name) {
    let query = Message::query(id, domain.clone(), RrType::A);
    socket.send(&query.encode().unwrap()).expect("send");
}

fn receive(socket: &std::net::UdpSocket) -> Message {
    let mut buf = [0u8; 4096];
    let len = socket.recv(&mut buf).expect("every query is answered");
    Message::decode(&buf[..len]).expect("well-formed answer")
}

/// Polls `stats` until the shard has begun `queries` queries (a datagram
/// sent is not yet a query the dispatcher has read).
fn await_begun(runtime: &PoolRuntime, queries: u64) -> RuntimeStats {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = runtime.stats();
        if stats.total.serve.queries >= queries {
            return stats;
        }
        assert!(std::time::Instant::now() < deadline, "{stats:?}");
        std::thread::yield_now();
    }
}

#[test]
fn hits_do_not_wait_for_a_miss() {
    // A is cached, B is not, an upstream round trip takes 300 ms. One cold
    // query for B, then twenty for A, one datagram after the other: the
    // shard parks B and answers the hits while B's generation is upstream.
    // (A shard that sits inside the generation answers all twenty after B.)
    const LATENCY: Duration = Duration::from_millis(300);
    let (fleet, runtime, socket) = one_shard(LATENCY, 2, CacheConfig::default());
    let truth = fleet.ground_truth();
    let (a, b) = (&fleet.domains[0], &fleet.domains[1]);
    send(&socket, 1000, a);
    assert_guarantee(&receive(&socket), &truth);

    let started = std::time::Instant::now();
    send(&socket, 2000, b);
    (1..=20).for_each(|id| send(&socket, id, a));
    for _ in 0..20 {
        let hit = receive(&socket);
        assert!(
            (1..=20).contains(&hit.header.id),
            "answer {} came before the hits",
            hit.header.id
        );
        assert_guarantee(&hit, &truth);
    }
    let hits_answered = started.elapsed();
    let miss = receive(&socket);
    let miss_answered = started.elapsed();
    assert_eq!(miss.header.id, 2000);
    assert_guarantee(&miss, &truth);
    assert!(
        hits_answered < Duration::from_millis(100),
        "the hits took {hits_answered:?} with a {LATENCY:?} miss upstream"
    );
    assert!(miss_answered >= LATENCY, "{miss_answered:?}");

    let stats = runtime.shutdown();
    assert_eq!(stats.total.serve.hits, 20);
    assert_eq!(stats.total.serve.misses, 2);
    assert_eq!(stats.total.serve.generations, 2);
}

#[test]
fn concurrent_misses_for_one_key_share_one_flight() {
    // Eight queries for one cold key in one burst, 100 ms upstream: the
    // first opens the flight, seven join it, one generation answers all.
    const LATENCY: Duration = Duration::from_millis(100);
    let (fleet, runtime, socket) = one_shard(LATENCY, 1, CacheConfig::default());
    let truth = fleet.ground_truth();
    (1..=8).for_each(|id| send(&socket, id, &fleet.domains[0]));
    let answers: Vec<Message> = (0..8).map(|_| receive(&socket)).collect();
    let mut ids: Vec<u16> = answers.iter().map(|answer| answer.header.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=8).collect::<Vec<u16>>(), "each its own id");
    for answer in &answers {
        assert_guarantee(answer, &truth);
        assert_eq!(answer.answer_addresses(), answers[0].answer_addresses());
    }
    let serve = runtime.shutdown().total.serve;
    assert_eq!(serve.generations, 1);
    assert_eq!(serve.source_answers, fleet.infos.len() as u64);
    assert_eq!((serve.misses, serve.coalesced_waiters), (8, 7));
    assert_eq!(serve.queries, 8);

    // The same burst against resolvers nobody runs: one attempt, eight
    // SERVFAILs, one negative entry that answers the ninth query.
    // The next three resolvers of a wider fleet: the backends never
    // installed them.
    let wider = DohFleet::new(6, 1, 8, 1);
    let unreachable = doh_sources(&wider.infos[fleet.infos.len()..]);
    let generator =
        sdoh_core::SecurePoolGenerator::new(PoolConfig::algorithm1(), unreachable).expect("valid");
    let shard = Shard::new(
        sdoh_core::CachingPoolResolver::new(generator, CacheConfig::default()),
        Box::new(
            fleet
                .backends
                .exchanger(sdoh_netsim::SimAddr::v4(10, 1, 0, 0, 40000)),
        ),
    );
    let runtime = PoolRuntime::start(RuntimeConfig::default(), vec![shard]).expect("bind");
    socket.connect(runtime.udp_addr()).expect("connect");
    (1..=8).for_each(|id| send(&socket, id, &fleet.domains[0]));
    for _ in 0..8 {
        let answer = receive(&socket);
        assert_eq!(answer.header.rcode, Rcode::ServFail);
        assert!((1..=8).contains(&answer.header.id));
    }
    send(&socket, 9, &fleet.domains[0]);
    assert_eq!(receive(&socket).header.rcode, Rcode::ServFail);
    let total = runtime.shutdown().total;
    assert_eq!(total.serve.generations, 1, "{:?}", total.serve);
    assert_eq!(total.serve.generation_failures, 1);
    assert_eq!((total.serve.misses, total.serve.coalesced_waiters), (8, 7));
    assert_eq!(total.serve.negative_hits, 1);
    assert_eq!(total.entries, 1, "the failure is remembered once");
}

#[test]
fn a_shard_with_a_generation_upstream_answers_stats_and_health() {
    // 500 ms upstream. While the one cold query is parked, the shard says
    // so — promptly, through every statistics surface — instead of going
    // quiet until the generation is over.
    const LATENCY: Duration = Duration::from_millis(500);
    let (fleet, runtime, socket) = one_shard(LATENCY, 1, CacheConfig::default());
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    send(&socket, 1, &fleet.domains[0]);
    let sent = std::time::Instant::now();
    await_begun(&runtime, 1);

    let asked = std::time::Instant::now();
    let stats = runtime.stats();
    let answered_in = asked.elapsed();
    assert!(answered_in < Duration::from_millis(100), "{answered_in:?}");
    assert!(stats.per_shard.iter().all(Option::is_some));
    // (Unless the host stalled for the whole half second, the flight is
    // still upstream; a reading taken after it landed proves nothing.)
    if sent.elapsed() < LATENCY {
        assert_eq!(stats.total.live_generations, 1);
        assert_eq!(stats.total.serve.generations, 0, "still upstream");
    }

    let health = http_get(stats_addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!(health.status, 200, "body: {}", health.body);
    let scrape = http_get(stats_addr, "/metrics", Duration::from_secs(5)).expect("scrape");
    let samples = parse_prometheus(&scrape.body).expect("parseable exposition");
    let live = samples
        .iter()
        .find(|sample| sample.name == "sdoh_live_generations")
        .expect("the gauge is exported");
    if sent.elapsed() < LATENCY {
        assert_eq!(live.value, SampleValue::Gauge(1.0));
    }

    assert_guarantee(&receive(&socket), &fleet.ground_truth());
    let stats = runtime.shutdown();
    assert_eq!(stats.total.live_generations, 0);
    assert_eq!(stats.total.serve.generations, 1);
}

#[test]
fn shutdown_lands_what_is_upstream() {
    // Shut down with a generation upstream: the parked client still gets
    // its answer, and the final statistics count the generation.
    let (fleet, runtime, socket) = one_shard(Duration::from_millis(100), 1, CacheConfig::default());
    send(&socket, 7, &fleet.domains[0]);
    await_begun(&runtime, 1);
    let stats = runtime.shutdown();
    let answer = receive(&socket);
    assert_eq!(answer.header.id, 7);
    assert_guarantee(&answer, &fleet.ground_truth());
    assert_eq!(stats.total.serve.queries, 1);
    assert_eq!(stats.total.serve.generations, 1);
    assert_eq!(stats.total.live_generations, 0);
    assert!(stats.per_shard.iter().all(Option::is_some));
}

#[test]
fn a_source_swap_lands_the_flights_of_the_old_set_first() {
    // A cold query is upstream over all three resolvers when the operator
    // drops the compromised one. The flight keeps the set it left with —
    // 24 addresses, not 16 — and the shard acks the new epoch only once it
    // has landed: what it generates afterwards comes from the new set.
    let (fleet, runtime, socket) = one_shard(Duration::from_millis(100), 2, CacheConfig::default());
    let control = runtime.control();
    send(&socket, 1, &fleet.domains[0]);
    await_begun(&runtime, 1);
    let honest: Vec<_> = fleet.infos[1..].to_vec();
    let receipt = control
        .apply(ConfigDelta::new().with_sources(Arc::new(move |_shard| doh_sources(&honest))))
        .expect("valid delta");
    let old = receive(&socket);
    assert_eq!(old.header.id, 1);
    assert_eq!(old.answer_addresses().len(), 24, "the set it left with");
    assert!(control.wait_for_epoch(receipt.epoch, Duration::from_secs(10)));
    send(&socket, 2, &fleet.domains[1]);
    let new = receive(&socket);
    assert_eq!(new.answer_addresses().len(), 16, "two honest resolvers");
    assert!(new
        .answer_addresses()
        .iter()
        .all(|address| fleet.benign.contains(address)));
    runtime.shutdown();
}

#[test]
fn keys_that_go_stale_together_are_refreshed_once_each_within_a_round_trip() {
    // Eight keys expire at the same moment under a steady stream of queries
    // for them, 2 ms upstream. Each refresh leaves when its first stale
    // serve queues it and is not queued again by the stale serves that
    // overlap it, so the keys are stale for about a round trip — not for a
    // collecting window plus the time the shard spends inside the batch.
    const KEYS: usize = 8;
    let cache = CacheConfig::default()
        .with_ttl(Ttl::from_secs(1))
        .with_stale_window(Duration::from_secs(3600));
    let (fleet, runtime, socket) = one_shard(Duration::from_millis(2), KEYS, cache);
    for (id, domain) in (0u16..).zip(&fleet.domains) {
        send(&socket, id, domain);
        assert!(receive(&socket).answers.iter().all(|r| r.ttl >= 1));
    }
    std::thread::sleep(Duration::from_millis(1050)); // past the 1 s TTL

    // One query in flight at a time, the keys in turn, for 400 ms: long
    // enough for every refresh, short of the next expiry.
    let started = std::time::Instant::now();
    let mut asked = 0u64;
    while started.elapsed() < Duration::from_millis(400) {
        send(&socket, asked as u16, &fleet.domains[asked as usize % KEYS]);
        assert_eq!(receive(&socket).answer_addresses().len(), 24);
        asked += 1;
    }
    let streamed = started.elapsed();

    let serve = runtime.shutdown().total.serve;
    assert_eq!(serve.refreshes, KEYS as u64, "{serve:?}");
    assert_eq!(serve.generations, 2 * KEYS as u64);
    let stale = serve.stale_serves;
    assert!(stale >= KEYS as u64, "every key was served stale once");
    // What this stream asks in 25 ms: half of what a 50 ms collecting
    // window alone admitted, and many times a 2 ms round trip.
    let in_25_ms = asked * 25 / streamed.as_millis() as u64;
    assert!(
        stale <= KEYS as u64 + in_25_ms,
        "{stale} stale serves; the stream asks {in_25_ms} queries in 25 ms"
    );
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
    let client =
        RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr())).expect("client");

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
