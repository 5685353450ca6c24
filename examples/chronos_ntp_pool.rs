//! Chronos in tandem with secure pool generation (Sections I, IV and V).
//!
//! Compares the clock shift an attacker achieves in three configurations:
//!
//! 1. plain DNS pool generation + plain SNTP (fully hijacked),
//! 2. plain DNS pool generation + Chronos (hijacked via the poisoned pool),
//! 3. distributed DoH pool generation + Chronos (the paper's proposal).
//!
//! Run with: `cargo run --example chronos_ntp_pool`

use secure_doh::core::PoolConfig;
use secure_doh::dns::StubResolver;
use secure_doh::netsim::{OffPathSpoofer, SpoofStrategy};
use secure_doh::ntp::{ChronosClient, ChronosConfig, LocalClock, NtpClient};
use secure_doh::scenario::{Scenario, ScenarioConfig, CLIENT_ADDR, ISP_RESOLVER};
use secure_doh::wire::{Message, MessageBuilder};

const ATTACKER_SHIFT: f64 = 1000.0;

fn build_attacked_scenario(seed: u64) -> Scenario {
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: 3,
        ntp_servers: 16,
        attacker_time_shift: ATTACKER_SHIFT,
        ..ScenarioConfig::default()
    });
    // The off-path attacker sits near the victim's access network and
    // poisons the plain DNS answers from the client's ISP resolver,
    // pointing the client at its own NTP servers. DoH channels to the
    // public resolvers are out of its reach.
    let forged = scenario.forged_addresses();
    let spoofer = OffPathSpoofer::new(
        SpoofStrategy::FixedProbability(1.0),
        move |query_bytes, _rng| {
            let query = Message::decode(query_bytes).ok()?;
            let question = query.question()?;
            if !question.rtype.is_address() {
                return None;
            }
            let mut builder = MessageBuilder::response_to(&query).recursion_available(true);
            for addr in &forged {
                builder = builder.answer_address(300, *addr);
            }
            builder.build().encode().ok()
        },
    )
    .with_targets(vec![ISP_RESOLVER]);
    scenario.net.set_adversary(spoofer);
    scenario
}

/// Whether a clock `offset` s from true time is the attacker's whole shift,
/// to the millisecond.
fn took_the_full_shift(offset: f64) -> bool {
    (offset - ATTACKER_SHIFT).abs() < 0.001
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Maximum clock shift achieved by the attacker ({ATTACKER_SHIFT} s time-shift servers) ==\n");

    // Configuration 1: plain DNS + plain SNTP.
    {
        let scenario = build_attacked_scenario(100);
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let pool =
            StubResolver::new(ISP_RESOLVER).lookup_ipv4(&mut exchanger, scenario.pool_domain())?;
        let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
        let ntp = NtpClient::new(CLIENT_ADDR.with_port(123));
        ntp.synchronize_simple(&scenario.net, &mut clock, &pool)?;
        println!(
            "plain DNS + plain NTP      : clock shifted by {:+10.3} s",
            clock.offset_from_true()
        );
        assert!(took_the_full_shift(clock.offset_from_true()));
    }

    // Configuration 2: plain DNS + Chronos.
    {
        let scenario = build_attacked_scenario(200);
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let pool =
            StubResolver::new(ISP_RESOLVER).lookup_ipv4(&mut exchanger, scenario.pool_domain())?;
        let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
        let mut chronos = ChronosClient::new(
            ChronosConfig::default(),
            NtpClient::new(CLIENT_ADDR.with_port(123)),
            200,
        )?;
        let outcome = chronos.update(&scenario.net, &mut clock, &pool);
        println!(
            "plain DNS + Chronos        : clock shifted by {:+10.3} s ({:?})",
            clock.offset_from_true(),
            outcome.map(|o| o.mode)
        );
        assert!(took_the_full_shift(clock.offset_from_true()));
    }

    // Configuration 3: distributed DoH + Chronos (the proposal).
    {
        let scenario = build_attacked_scenario(300);
        let mut exchanger = scenario.net.client(CLIENT_ADDR);
        let report = scenario
            .pool_generator(PoolConfig::algorithm1())?
            .generate(&mut exchanger, scenario.pool_domain())?;
        let pool = report.pool.addresses();
        let mut clock = LocalClock::new(scenario.net.clock(), 0.0);
        let mut chronos = ChronosClient::new(
            ChronosConfig::default(),
            NtpClient::new(CLIENT_ADDR.with_port(123)),
            300,
        )?;
        let outcome = chronos.update(&scenario.net, &mut clock, &pool)?;
        println!(
            "distributed DoH + Chronos  : clock shifted by {:+10.3} s ({:?})",
            clock.offset_from_true(),
            outcome.mode
        );
        let offset = clock.offset_from_true();
        assert!(
            offset.abs() < 0.001,
            "the proposal's clock moved {offset} s"
        );
    }

    println!("\nThe proposal keeps the clock within milliseconds while both plain-DNS configurations hand the attacker the full {ATTACKER_SHIFT} s shift.");
    Ok(())
}
