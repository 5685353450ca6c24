//! E13 — end-to-end secure time synchronization: the attack matrix.
//!
//! Sweeps **adversary** (compromised DoH resolver count × off-path
//! spoofer on the plain Do53 leg) × **client** (plain SNTP, full-pool
//! average NTP, Chronos via [`SecureTimeClient`]) × **pool source**
//! (single plain-DNS resolver, direct distributed consensus, the cached
//! consensus front end) and records, for every cell, the pool's guarantee
//! check and the clock error after one synchronization.
//!
//! The matrix reproduces the paper's headline result: a poisoned pool
//! captures *every* client — plain SNTP outright, and even Chronos, whose
//! trimmed sampling cannot survive a malicious majority — while the
//! consensus pipeline keeps the pool's honest majority and the clock
//! within a second under the same attack. The spoofer only reaches the
//! plain Do53 leg to the ISP resolver; the consensus front end runs on the
//! client's host (loopback) and fans out over authenticated DoH channels,
//! which is exactly the paper's deployment model.

use sdoh_analysis::Table;
use sdoh_core::{check_guarantee, CacheConfig, PoolConfig};
use sdoh_dns_wire::Ttl;
use sdoh_ntp::{
    ChronosClient, ChronosConfig, ConsensusFrontEnd, GeneratorPool, LocalClock, NtpClient,
    NtpPoolSource, SecureTimeClient, SingleResolverPool,
};
use secure_doh::scenario::{
    address_pool, NtpFleetConfig, ResolverCompromise, Scenario, ScenarioConfig, CLIENT_ADDR,
    ISP_RESOLVER,
};

use super::pool_spoofer;

/// Where the client's NTP pool comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolSourceKind {
    /// One plain-DNS lookup through the ISP resolver (spoofable Do53 leg).
    SingleResolver,
    /// Direct distributed-consensus generation over the DoH fleet.
    DistributedConsensus,
    /// The caching consensus front end of the serving subsystem.
    CachedConsensus,
}

impl PoolSourceKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            PoolSourceKind::SingleResolver => "single resolver",
            PoolSourceKind::DistributedConsensus => "distributed consensus",
            PoolSourceKind::CachedConsensus => "cached consensus",
        }
    }
}

/// Which time client synchronizes over the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// Plain SNTP: trust the first responsive server.
    PlainSntp,
    /// Average of every responsive server, no trimming.
    FullPoolNtp,
    /// Chronos via [`SecureTimeClient`].
    Chronos,
}

impl ClientKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ClientKind::PlainSntp => "plain SNTP",
            ClientKind::FullPoolNtp => "full-pool NTP",
            ClientKind::Chronos => "Chronos",
        }
    }
}

/// One adversary configuration of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackCase {
    /// DoH resolvers (out of [`RESOLVERS`]) answering with attacker
    /// addresses.
    pub compromised_resolvers: usize,
    /// Whether the off-path spoofer races forged answers on the Do53 leg
    /// to the ISP resolver (success probability 1 — the worst case).
    pub spoofer: bool,
}

/// One measured cell of the matrix.
#[derive(Debug, Clone)]
pub struct TimeSyncCell {
    /// Pool source of this cell.
    pub source: PoolSourceKind,
    /// Time client of this cell.
    pub client: ClientKind,
    /// Adversary of this cell.
    pub attack: AttackCase,
    /// Size of the pool the client obtained (0 = fetch failed / DoS).
    pub pool_size: usize,
    /// Benign fraction of that pool per ground truth.
    pub benign_fraction: f64,
    /// Whether the pool satisfies the x >= 1/2 guarantee.
    pub guarantee_holds: bool,
    /// Whether the attacker controls at least half the pool.
    pub captured: bool,
    /// `LocalClock::offset_from_true` after one synchronization.
    pub clock_error: f64,
    /// Whether the synchronization completed at all (a failed sync leaves
    /// the clock untouched — a DoS, not a capture).
    pub synced: bool,
}

/// DoH resolvers installed per scenario.
pub const RESOLVERS: usize = 3;
/// Benign NTP servers published in the pool domain.
pub const NTP_SERVERS: usize = 16;

fn build_scenario(attack: AttackCase, shift: f64, seed: u64) -> Scenario {
    let compromised = (0..attack.compromised_resolvers.min(RESOLVERS))
        .map(|i| {
            (
                i,
                ResolverCompromise::ReplaceWithAttackerAddresses(NTP_SERVERS),
            )
        })
        .collect();
    let mut scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: RESOLVERS,
        ntp_servers: NTP_SERVERS,
        attacker_time_shift: shift,
        compromised,
        ..ScenarioConfig::default()
    });
    // The published fleet itself is honest here; the attack surface under
    // test is the DNS path. (install_ntp_fleet keeps ground truth linked
    // if a variant wants planted servers too.)
    scenario.install_ntp_fleet(NtpFleetConfig::default());
    if attack.spoofer {
        let forged = scenario.forged_addresses();
        scenario.net.set_adversary(pool_spoofer(
            1.0,
            vec![ISP_RESOLVER],
            scenario.pool_domain().clone(),
            forged,
        ));
    }
    scenario
}

fn pool_source(scenario: &Scenario, kind: PoolSourceKind) -> Box<dyn NtpPoolSource> {
    match kind {
        PoolSourceKind::SingleResolver => Box::new(SingleResolverPool::new(ISP_RESOLVER)),
        PoolSourceKind::DistributedConsensus => Box::new(GeneratorPool::new(
            scenario
                .pool_generator(PoolConfig::algorithm1())
                .expect("valid pool config"),
            Ttl::from_secs(300),
        )),
        PoolSourceKind::CachedConsensus => Box::new(ConsensusFrontEnd::new(
            scenario
                .install_caching_frontend(PoolConfig::algorithm1(), CacheConfig::default())
                .expect("valid cache config"),
        )),
    }
}

/// Runs one cell of the matrix: build the scenario, obtain the pool
/// through the given source, synchronize once with the given client, and
/// measure pool guarantee plus clock error against ground truth.
pub fn run_cell(
    source: PoolSourceKind,
    client: ClientKind,
    attack: AttackCase,
    shift: f64,
    seed: u64,
) -> TimeSyncCell {
    let scenario = build_scenario(attack, shift, seed);
    let truth = scenario.ground_truth();
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
    let ntp = NtpClient::new(CLIENT_ADDR.with_port(123));

    let (pool, synced) = match client {
        ClientKind::Chronos => {
            // The real subsystem: SecureTimeClient owns the source, pulls
            // the pool per TTL window and drives Chronos over it.
            let chronos = ChronosClient::new(ChronosConfig::default(), ntp, seed)
                .expect("default chronos config is valid");
            let mut time_client = SecureTimeClient::new(
                pool_source(&scenario, source),
                scenario.pool_domain().clone(),
                chronos,
            );
            let outcome = time_client.sync(&scenario.net, &mut exchanger, &mut clock);
            (time_client.pool().to_vec(), outcome.is_ok())
        }
        ClientKind::PlainSntp | ClientKind::FullPoolNtp => {
            let fetched = pool_source(&scenario, source)
                .fetch_pool(&mut exchanger, scenario.pool_domain())
                .map(|timed| timed.addresses)
                .unwrap_or_default();
            let outcome = match client {
                ClientKind::PlainSntp => ntp
                    .synchronize_simple(&scenario.net, &mut clock, &fetched)
                    .map(|_| ()),
                _ => ntp
                    .synchronize_pool_average(&scenario.net, &mut clock, &fetched)
                    .map(|_| ()),
            };
            (fetched, outcome.is_ok())
        }
    };

    let check = check_guarantee(&address_pool(&pool, source.label()), &truth, 0.5);
    TimeSyncCell {
        source,
        client,
        attack,
        pool_size: pool.len(),
        benign_fraction: check.benign_fraction,
        guarantee_holds: check.holds,
        captured: sdoh_core::attacker_controls_fraction(
            &address_pool(&pool, source.label()),
            &truth,
            0.5,
        ),
        clock_error: clock.offset_from_true(),
        synced,
    }
}

/// Runs the full matrix over `attacks` and tabulates it.
pub fn run(attacks: &[AttackCase], shift: f64, seed: u64) -> (Table, Vec<TimeSyncCell>) {
    let mut table = Table::new(
        format!("E13: end-to-end time sync under attack ({shift} s attacker servers)"),
        &[
            "pool source",
            "client",
            "compromised resolvers",
            "spoofer",
            "pool size",
            "benign fraction",
            "guarantee",
            "captured",
            "clock error (s)",
            "synced",
        ],
    );
    let mut cells = Vec::new();
    for &attack in attacks {
        for source in [
            PoolSourceKind::SingleResolver,
            PoolSourceKind::DistributedConsensus,
            PoolSourceKind::CachedConsensus,
        ] {
            for client in [
                ClientKind::PlainSntp,
                ClientKind::FullPoolNtp,
                ClientKind::Chronos,
            ] {
                let cell = run_cell(source, client, attack, shift, seed);
                table.push_row([
                    source.label().to_string(),
                    client.label().to_string(),
                    format!("{}/{}", attack.compromised_resolvers, RESOLVERS),
                    attack.spoofer.to_string(),
                    cell.pool_size.to_string(),
                    format!("{:.2}", cell.benign_fraction),
                    if cell.guarantee_holds {
                        "holds"
                    } else {
                        "violated"
                    }
                    .to_string(),
                    cell.captured.to_string(),
                    format!("{:+.3}", cell.clock_error),
                    cell.synced.to_string(),
                ]);
                cells.push(cell);
            }
        }
    }
    (table, cells)
}

/// The attack cases of the full experiment.
pub fn full_matrix() -> Vec<AttackCase> {
    vec![
        AttackCase {
            compromised_resolvers: 0,
            spoofer: false,
        },
        AttackCase {
            compromised_resolvers: 0,
            spoofer: true,
        },
        AttackCase {
            compromised_resolvers: 1,
            spoofer: true,
        },
        AttackCase {
            compromised_resolvers: 2,
            spoofer: true,
        },
    ]
}

/// The single attack case the CI smoke run exercises: one compromised
/// resolver plus the Do53 spoofer — the paper's headline configuration.
pub fn smoke_matrix() -> Vec<AttackCase> {
    vec![AttackCase {
        compromised_resolvers: 1,
        spoofer: true,
    }]
}

/// Serializes the matrix as the body of a `BENCH_time_sync.json` document
/// (the members after the runner's header).
pub fn report_body(cells: &[TimeSyncCell]) -> String {
    let mut out = String::from("  \"matrix\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"pool_source\": \"{}\",\n      \"client\": \"{}\",\n      \
             \"compromised_resolvers\": {},\n      \"spoofer\": {},\n      \
             \"pool_size\": {},\n      \"benign_fraction\": {:.4},\n      \
             \"guarantee_holds\": {},\n      \"captured\": {},\n      \
             \"clock_error_s\": {:.4},\n      \"synced\": {}\n    }}{}\n",
            cell.source.label(),
            cell.client.label(),
            cell.attack.compromised_resolvers,
            cell.attack.spoofer,
            cell.pool_size,
            cell.benign_fraction,
            cell.guarantee_holds,
            cell.captured,
            cell.clock_error,
            cell.synced,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHIFT: f64 = 1000.0;

    fn headline_attack() -> AttackCase {
        AttackCase {
            compromised_resolvers: 1,
            spoofer: true,
        }
    }

    #[test]
    fn poisoned_single_resolver_captures_every_client() {
        // The acceptance criterion's first half: with the Do53 leg spoofed,
        // the single-resolver pool is fully attacker-controlled and plain
        // SNTP swallows the whole shift...
        let sntp = run_cell(
            PoolSourceKind::SingleResolver,
            ClientKind::PlainSntp,
            headline_attack(),
            SHIFT,
            13,
        );
        assert!(sntp.captured, "the spoofed pool is attacker-controlled");
        assert!(!sntp.guarantee_holds);
        assert!(
            sntp.clock_error >= SHIFT * 0.9,
            "plain SNTP is hijacked outright: {}",
            sntp.clock_error
        );
        // ...and even Chronos cannot survive a pool whose majority is bad.
        let chronos = run_cell(
            PoolSourceKind::SingleResolver,
            ClientKind::Chronos,
            headline_attack(),
            SHIFT,
            13,
        );
        assert!(chronos.captured);
        assert!(
            chronos.clock_error >= SHIFT * 0.5,
            "a poisoned pool captures even Chronos: {}",
            chronos.clock_error
        );
    }

    #[test]
    fn cached_consensus_chronos_keeps_the_clock_under_the_same_attack() {
        // The acceptance criterion's second half: the SecureTimeClient over
        // the cached consensus pipeline, same adversary.
        let cell = run_cell(
            PoolSourceKind::CachedConsensus,
            ClientKind::Chronos,
            headline_attack(),
            SHIFT,
            13,
        );
        assert!(cell.synced);
        assert!(cell.guarantee_holds, "1 of 3 compromised keeps x >= 1/2");
        assert!(!cell.captured);
        assert_eq!(cell.pool_size, NTP_SERVERS * RESOLVERS);
        assert!(
            cell.clock_error.abs() < 1.0,
            "|offset_from_true| stays under a second: {}",
            cell.clock_error
        );
    }

    #[test]
    fn consensus_collapses_once_the_resolver_majority_is_compromised() {
        let cell = run_cell(
            PoolSourceKind::CachedConsensus,
            ClientKind::Chronos,
            AttackCase {
                compromised_resolvers: 2,
                spoofer: true,
            },
            SHIFT,
            14,
        );
        assert!(
            !cell.guarantee_holds,
            "2 of 3 compromised resolvers break the honest majority"
        );
        assert!(
            cell.clock_error.abs() >= SHIFT * 0.5 || !cell.synced,
            "a broken guarantee loses the clock: {}",
            cell.clock_error
        );
    }

    #[test]
    fn benign_matrix_synchronises_everywhere() {
        let benign = AttackCase {
            compromised_resolvers: 0,
            spoofer: false,
        };
        for source in [
            PoolSourceKind::SingleResolver,
            PoolSourceKind::DistributedConsensus,
            PoolSourceKind::CachedConsensus,
        ] {
            let cell = run_cell(source, ClientKind::Chronos, benign, SHIFT, 15);
            assert!(cell.synced, "{source:?}");
            assert!(cell.guarantee_holds);
            assert!(
                cell.clock_error.abs() < 1.0,
                "{source:?}: {}",
                cell.clock_error
            );
        }
    }

    #[test]
    fn table_and_json_cover_the_matrix() {
        let (table, cells) = run(&smoke_matrix(), 500.0, 21);
        assert_eq!(table.rows().len(), 9, "3 sources x 3 clients");
        assert_eq!(cells.len(), 9);
        let json = report_body(&cells);
        assert!(json.contains("\"pool_source\": \"cached consensus\""));
        assert!(json.contains("clock_error_s"));
    }
}
