//! Off-path attack demonstration (the motivation of the paper).
//!
//! An off-path attacker races forged DNS responses against the genuine ones
//! (the attack of "The Impact of DNS Insecurity on Time", DSN 2020). The
//! plain-DNS baseline hands the attacker the whole NTP pool; the same
//! attacker achieves nothing against the DoH-based pool generation because
//! the channels are authenticated.
//!
//! Run with: `cargo run --example offpath_attack_demo`

use secure_doh::core::{check_guarantee, AddressPool, PoolConfig};
use secure_doh::dns::StubResolver;
use secure_doh::netsim::{OffPathSpoofer, SpoofStrategy};
use secure_doh::scenario::{Scenario, ScenarioConfig, CLIENT_ADDR, ISP_RESOLVER};
use secure_doh::wire::{Message, MessageBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 7,
        resolvers: 3,
        ntp_servers: 8,
        ..ScenarioConfig::default()
    });
    let attacker_addresses = scenario.forged_addresses();
    let truth = scenario.ground_truth();

    // Attach an off-path spoofer sitting near the victim's access network:
    // it races forged responses to the client's queries towards its ISP
    // resolver (the attack of [1]) and answers with attacker-controlled NTP
    // servers. It cannot touch the authenticated DoH channels.
    let forged_pool = attacker_addresses.clone();
    let spoofer = OffPathSpoofer::new(
        SpoofStrategy::FixedProbability(1.0),
        move |query_bytes, _rng| {
            let query = Message::decode(query_bytes).ok()?;
            let question = query.question()?;
            if !question.rtype.is_address() {
                return None;
            }
            let mut builder = MessageBuilder::response_to(&query).recursion_available(true);
            for addr in &forged_pool {
                builder = builder.answer_address(300, *addr);
            }
            builder.build().encode().ok()
        },
    )
    .with_targets(vec![ISP_RESOLVER]);
    scenario.net.set_adversary(spoofer);

    println!("== Off-path attacker vs. pool generation ==\n");

    // Baseline: plain DNS through the ISP resolver.
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let stub = StubResolver::new(ISP_RESOLVER);
    let plain_addresses = stub.lookup_ipv4(&mut exchanger, scenario.pool_domain())?;
    let mut plain_pool = AddressPool::new();
    for addr in &plain_addresses {
        plain_pool.push(*addr, "isp-resolver");
    }
    let plain_check = check_guarantee(&plain_pool, &truth, 0.5);
    println!(
        "plain DNS baseline : {} addresses, benign fraction {:.2} -> guarantee {}",
        plain_pool.len(),
        plain_check.benign_fraction,
        if plain_check.holds {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );

    // The proposal: Algorithm 1 over three DoH resolvers, same attacker.
    let generator = scenario.pool_generator(PoolConfig::algorithm1())?;
    let report = generator.generate(&mut exchanger, scenario.pool_domain())?;
    let doh_check = check_guarantee(&report.pool, &truth, 0.5);
    println!(
        "distributed DoH    : {} addresses, benign fraction {:.2} -> guarantee {}",
        report.pool.len(),
        doh_check.benign_fraction,
        if doh_check.holds { "HOLDS" } else { "VIOLATED" }
    );
    assert!(!plain_check.holds, "the plain baseline was not poisoned");
    assert!(
        doh_check.holds,
        "the attacker broke the DoH pool's guarantee"
    );

    let metrics = scenario.net.metrics();
    println!(
        "\nforged responses accepted on plain channels: {}",
        metrics.forged_responses
    );
    println!(
        "secure-channel requests (untouched by the attacker): {}",
        metrics.secure_requests
    );
    Ok(())
}
