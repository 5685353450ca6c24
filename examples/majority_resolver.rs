//! The backward-compatible "majority DNS resolver" front end (Section II).
//!
//! Runs the front end (`CachingPoolResolver`) in majority-vote mode as an
//! ordinary DNS service on port 53 and queries it with an unmodified stub
//! resolver, with one of the three upstream DoH resolvers compromised. The
//! compromised resolver's fabricated addresses never reach the client
//! because no other resolver corroborates them. The answer TTL is the
//! cache TTL: a pool handed out for 300 s is also served from the cache
//! for 300 s.
//!
//! Run with: `cargo run --example majority_resolver`

use secure_doh::core::{CacheConfig, CachingPoolResolver, PoolConfig};
use secure_doh::dns::{Do53Service, StubResolver};
use secure_doh::netsim::SimAddr;
use secure_doh::scenario::{ResolverCompromise, Scenario, ScenarioConfig, CLIENT_ADDR};
use secure_doh::wire::Ttl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One of the three DoH resolvers replaces answers for the pool domain
    // with attacker addresses.
    let scenario = Scenario::build(ScenarioConfig {
        seed: 9,
        resolvers: 3,
        ntp_servers: 6,
        compromised: vec![(1, ResolverCompromise::ReplaceWithAttackerAddresses(6))],
        ..ScenarioConfig::default()
    });

    // Install the majority resolver as a plain DNS service the rest of the
    // host's software can point at (e.g. via /etc/resolv.conf).
    let frontend_addr = SimAddr::v4(10, 0, 0, 99, 53);
    let generator = scenario.pool_generator(PoolConfig::majority_resolver())?;
    scenario.net.register(
        frontend_addr,
        Do53Service::new(CachingPoolResolver::new(
            generator,
            CacheConfig::default().with_ttl(Ttl::from_secs(300)),
        )),
    );

    println!("== Majority DNS resolver front end ==\n");
    println!(
        "compromised upstream resolver: {}",
        scenario.fleet.infos[1].name
    );

    let stub = StubResolver::new(frontend_addr);
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let addresses = stub.lookup_ipv4(&mut exchanger, scenario.pool_domain())?;

    let truth = scenario.ground_truth();
    println!(
        "\nstub resolver received {} addresses for {}:",
        addresses.len(),
        scenario.pool_domain()
    );
    for addr in &addresses {
        println!(
            "  {addr}  [{}]",
            if truth.is_malicious(*addr) {
                "ATTACKER"
            } else {
                "benign"
            }
        );
    }
    let malicious = addresses.iter().filter(|a| truth.is_malicious(**a)).count();
    println!(
        "\n{malicious} attacker addresses passed the majority vote (expected 0); \
         {}/{} benign pool servers were corroborated by a majority of resolvers.",
        addresses.len() - malicious,
        scenario.fleet.benign.len()
    );
    assert_eq!(malicious, 0, "attacker addresses passed the majority vote");
    Ok(())
}
