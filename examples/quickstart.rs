//! Quickstart: the paper's Figure 1 end to end, driven through the sans-IO
//! session API.
//!
//! Builds the simulated Internet (root/org/ntpns.org DNS hierarchy, three
//! public DoH resolvers, eight NTP servers), plans one secure pool lookup
//! as a [`PoolSession`](secure_doh::core::PoolSession), performs the N
//! resolver exchanges **concurrently** (the lookup costs the slowest
//! resolver, not the sum), hands the generated pool to Chronos to
//! synchronise a clock that starts 30 seconds off, serves the pool to a
//! whole population of stub clients through the caching front end
//! ([`CachingPoolResolver`](secure_doh::core::CachingPoolResolver)) — one
//! generation, many answers — and closes by taking the very same stack
//! **out of the simulator**: a threaded real-socket runtime
//! ([`PoolRuntime`](secure_doh::runtime::PoolRuntime)) serving the pool
//! over an actual loopback UDP socket. A final seeded chaos campaign
//! ([`run_campaign`](sdoh_chaos::run_campaign)) throws the whole
//! mixed-adversary fault vocabulary at the hardened stack and asserts
//! zero invariant violations.
//!
//! Run with: `cargo run --example quickstart`

use secure_doh::core::{check_guarantee, Action, CacheConfig, PoolConfig, SessionEvent};
use secure_doh::dns::{ExchangeRequest, Exchanger, StubResolver};
use secure_doh::ntp::{ChronosClient, ChronosConfig, LocalClock, NtpClient};
use secure_doh::scenario::{Scenario, ScenarioConfig, CLIENT_ADDR, FRONTEND_ADDR};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 0: build the simulated Internet of Figure 1.
    let scenario = Scenario::build(ScenarioConfig {
        seed: 42,
        resolvers: 3,
        ntp_servers: 8,
        ..ScenarioConfig::default()
    });
    println!("== Secure Consensus Generation with Distributed DoH: quickstart ==\n");
    println!(
        "installed {} DoH resolvers: {}",
        scenario.resolver_infos.len(),
        scenario
            .resolver_infos
            .iter()
            .map(|r| r.name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Step 0.5: why the Do53 leg needs hardening. The ISP resolver ships
    // with the secure defaults (randomized transaction ids and source
    // ports, 0x20 mixed-case queries, bailiwick enforcement), so a
    // Kaminsky-style birthday attacker racing 65536 forged referrals
    // against every upstream query still resolves nothing: each race
    // faces ~44 bits of identifier entropy, and even a won race could
    // only hijack with off-zone glue that bailiwick enforcement discards.
    // `HardeningConfig::predictable_ids()` in `ScenarioConfig::isp_hardening`
    // reproduces the weak resolver the paper attacks (experiment E14).
    {
        use secure_doh::scenario::{KaminskyPayload, ISP_RESOLVER};
        scenario.install_kaminsky_authority();
        let adversary = scenario.kaminsky_adversary(65_536, KaminskyPayload::Referral);
        let attack_stats = adversary.stats_handle();
        scenario.net.set_adversary(adversary);
        let mut exchanger = scenario.client_exchanger();
        let served =
            StubResolver::new(ISP_RESOLVER).lookup_ipv4(&mut exchanger, &scenario.pool_domain)?;
        let truth = scenario.ground_truth();
        assert!(served.iter().all(|a| !truth.is_malicious(*a)));
        let stats = attack_stats.borrow();
        println!(
            "\nhardened Do53 leg: birthday attacker raced {} queries \
             ({} forged packets, >= {} identifier bits each) and won {}",
            stats.raced,
            stats.forged_packets,
            stats.min_entropy_bits().unwrap_or(0),
            stats.wins
        );
        drop(stats);
        scenario.net.clear_adversary();
    }

    // Steps 1-5: plan the lookup as a sans-IO session. The session hands
    // out every resolver exchange as a `Transmit` *before* asking to wait,
    // which is what lets the driver overlap them: one batch through
    // `exchange_all` costs the slowest resolver's round trips.
    let generator = scenario.pool_generator(PoolConfig::algorithm1())?;
    let mut exchanger = scenario.client_exchanger();
    let mut session = generator.session(&scenario.pool_domain, 42)?;
    let started = scenario.net.now();

    println!("\npool domain: {}", scenario.pool_domain);
    let mut ids: Vec<secure_doh::core::TransactionId> = Vec::new();
    let mut requests: Vec<ExchangeRequest> = Vec::new();
    let report = loop {
        match session.poll(exchanger.now()) {
            Action::Transmit(transmit) => {
                println!(
                    "  -> query {} over DoH",
                    session.source_name(transmit.source)
                );
                ids.push(transmit.transaction);
                requests.push(transmit.request);
            }
            Action::WaitUntil(_) => {
                // Everything is in flight: perform the whole batch
                // concurrently and feed the responses back in completion
                // order.
                let outcomes = exchanger.exchange_all(std::mem::take(&mut requests));
                let batch_ids = std::mem::take(&mut ids);
                for outcome in outcomes {
                    session.handle_response(batch_ids[outcome.index], outcome.result)?;
                }
            }
            Action::Deliver(SessionEvent::SourceAnswered {
                source, addresses, ..
            }) => println!(
                "  <- {} answered with {addresses} addresses",
                session.source_name(source)
            ),
            Action::Deliver(SessionEvent::SourceFailed { source, error, .. }) => {
                println!("  <- {} failed: {error}", session.source_name(source))
            }
            Action::Done => break session.finish()?,
        }
    };
    let elapsed = scenario.net.clock().elapsed_since(started);

    println!(
        "truncation length: {:?}, combined pool of {} slots",
        report.truncate_lengths,
        report.pool.len()
    );
    println!(
        "concurrent fan-out finished in {:.1} ms of virtual time \
         (one lookup's round trips, not {}x)",
        elapsed.as_secs_f64() * 1000.0,
        scenario.resolver_infos.len()
    );

    let check = check_guarantee(&report.pool, &scenario.ground_truth(), 0.5);
    println!(
        "benign fraction {:.2} (required {:.2}) -> guarantee {}",
        check.benign_fraction,
        check.required_fraction,
        if check.holds { "HOLDS" } else { "VIOLATED" }
    );

    // Step 6: run Chronos over the generated pool.
    let pool = report.pool.addresses();
    let mut clock = LocalClock::new(scenario.net.clock(), -30.0);
    let mut chronos = ChronosClient::new(
        ChronosConfig::default(),
        NtpClient::new(CLIENT_ADDR.with_port(123)),
        42,
    )?;
    println!(
        "\nlocal clock starts {:+.3} s from true time",
        clock.offset_from_true()
    );
    let outcome = chronos.update(&scenario.net, &mut clock, &pool)?;
    println!(
        "chronos update: mode {:?}, applied offset {:+.3} s over {} samples",
        outcome.mode, outcome.applied_offset, outcome.samples_used
    );
    println!(
        "local clock now {:+.6} s from true time",
        clock.offset_from_true()
    );

    // Step 7: serve the pool at scale. The caching front end answers a
    // whole population of unmodified stub clients from one generation per
    // TTL window instead of fanning out for every query.
    let resolver =
        scenario.install_caching_frontend(PoolConfig::algorithm1(), CacheConfig::default())?;
    let stub = StubResolver::new(FRONTEND_ADDR);
    for _ in 0..20 {
        let addrs = stub.lookup_ipv4(&mut exchanger, &scenario.pool_domain)?;
        assert_eq!(addrs.len(), report.pool.len());
    }
    let metrics = resolver.lock().metrics();
    println!(
        "\ncaching front end: {} queries served by {} generation(s) \
         ({} cache hits, hit ratio {:.0}%)",
        metrics.queries,
        metrics.generations,
        metrics.hits,
        metrics.hit_ratio() * 100.0
    );

    // Step 7.5: close the loop — the secure time-sync client. Instead of
    // hand-feeding Chronos a pool (step 6), `SecureTimeClient` owns the
    // pipeline: it pulls its pool through the very front end installed in
    // step 7 (re-pulling once per TTL window) and drives Chronos over it.
    use secure_doh::ntp::{ConsensusFrontEnd, SecureTimeClient};
    let mut time_client = SecureTimeClient::new(
        Box::new(ConsensusFrontEnd::new(resolver.clone())),
        scenario.pool_domain.clone(),
        ChronosClient::new(
            ChronosConfig::default(),
            NtpClient::new(CLIENT_ADDR.with_port(123)),
            43,
        )?,
    );
    let mut app_clock = LocalClock::new(scenario.net.clock(), -12.0);
    let sync = time_client.sync(&scenario.net, &mut exchanger, &mut app_clock)?;
    println!(
        "\nsecure time-sync client ({}): pool of {} ({}), clock {:+.3} s -> {:+.6} s",
        time_client.source_name(),
        sync.pool_size,
        if sync.pool_refreshed {
            "freshly pulled"
        } else {
            "within TTL window"
        },
        -12.0,
        app_clock.offset_from_true()
    );

    println!("\nnetwork metrics: {}", scenario.net.metrics());

    // Step 8: leave the simulator — the same serving stack over real
    // sockets. The threaded runtime binds a UDP socket on loopback,
    // shards the pool cache into partitions the socket threads serve under
    // one lock each and generates pools through in-process DoH
    // terminators; a real stub client queries it.
    use secure_doh::runtime::{
        LoopbackConfig, LoopbackFleet, PoolRuntime, RuntimeClient, RuntimeConfig,
    };
    let fleet = LoopbackFleet::build(LoopbackConfig::default());
    let shards = fleet.shards(2, PoolConfig::algorithm1(), CacheConfig::default())?;
    let runtime = PoolRuntime::start(
        RuntimeConfig::default().with_stats_bind(Some("127.0.0.1:0".parse()?)),
        shards,
    )?;
    let stub = RuntimeClient::connect(runtime.udp_addr(), Some(runtime.tcp_addr()))?;
    for id in 0..10u16 {
        let response = stub.query(&secure_doh::wire::Message::query(
            id,
            fleet.domains[0].clone(),
            secure_doh::wire::RrType::A,
        ))?;
        assert_eq!(response.answer_addresses().len(), 24);
    }

    // Step 8.25: hot reconfiguration. The running runtime hands out a
    // control handle; applying a config delta validates and publishes the
    // next config epoch and hands it to every shard under the same lock
    // its queries are served under. Cached entries survive the switch —
    // the wider stale window below judges them from now on — and not a
    // single query stops flowing while it propagates.
    use secure_doh::runtime::ConfigDelta;
    let control = runtime.control();
    let receipt = control.apply(
        ConfigDelta::new().with_cache(
            CacheConfig::default()
                .with_ttl(secure_doh::wire::Ttl::from_secs(30))
                .with_stale_window(std::time::Duration::from_secs(300)),
        ),
    )?;
    control.wait_for_epoch(receipt.epoch, std::time::Duration::from_secs(5));
    println!(
        "\nhot reconfiguration: stale window flipped live to 300 s, \
         config epoch {} acked by {} shard(s), cache untouched",
        control.current_epoch(),
        control.acked_epochs().len()
    );

    // Step 8.5: the observability plane. The runtime exported everything
    // it just did on its stats listener — scrape it the way Prometheus
    // would and read the counters and the serving-latency percentiles
    // back out of the text exposition (one histogram per shard, merged).
    use secure_doh::metrics::{http_get, parse_prometheus, HistogramSnapshot, SampleValue};
    let stats_addr = runtime.stats_addr().expect("stats listener bound");
    let scrape_timeout = std::time::Duration::from_secs(2);
    let scrape = http_get(stats_addr, "/metrics", scrape_timeout)?;
    let mut served = 0;
    let mut latency = HistogramSnapshot::default();
    for sample in parse_prometheus(&scrape.body)? {
        match (sample.name.as_str(), &sample.value) {
            ("sdoh_serve_queries_total", SampleValue::Counter(count)) => served += count,
            ("sdoh_serve_latency_seconds", SampleValue::Histogram(shard)) => latency.merge(shard),
            _ => {}
        }
    }
    let (p50, p99, _) = latency.percentiles().expect("non-empty histogram");
    let health = http_get(stats_addr, "/healthz", scrape_timeout)?;
    println!(
        "\nobservability: /metrics reports {} queries served, \
         p50 <= {:?}, p99 <= {:?}; /healthz {}",
        served,
        p50,
        p99,
        if health.status == 200 {
            "ready"
        } else {
            "unready"
        }
    );
    assert_eq!(served, 10);

    let stats = runtime.shutdown();
    println!(
        "real-socket runtime ({} loopback shards): {} queries, {} generation(s), \
         hit ratio {:.0}%",
        stats.per_shard.len(),
        stats.total.serve.queries,
        stats.total.serve.generations,
        stats.total.serve.hit_ratio() * 100.0
    );

    // Step 9: prove the whole stack holds up under fire — a short seeded
    // chaos campaign. The fault scheduler throws degraded links,
    // partitions, resolver churn and compromise, clock trouble and a
    // persistent off-path spoofer at the hardened stack while an
    // invariant monitor re-checks the paper's guarantees every step; the
    // same seed always replays the identical campaign.
    use sdoh_chaos::{run_campaign, CampaignConfig};
    let campaign = CampaignConfig::hardened(42, 60).with_persistent_spoofer(64);
    let report = run_campaign(&campaign);
    println!(
        "\nchaos campaign (seed {}, {} steps, {} faults): {}/{} queries answered, \
         {} syncs, max |offset| {:.4} s -> {} violations ({})",
        report.seed,
        report.steps,
        report.faults_applied.values().sum::<u64>(),
        report.queries_answered,
        report.queries_issued,
        report.syncs,
        report.max_abs_offset_after_sync,
        report.total_violations,
        if report.ready { "READY" } else { "NOT READY" }
    );
    assert!(report.ready);
    Ok(())
}
