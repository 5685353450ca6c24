//! Property tests of the sans-IO session's core invariant: delivering the
//! resolver responses in **any permutation order** produces a pool
//! identical to the sequential driver's — determinism and
//! order-independence of the concurrent fan-out.

use proptest::prelude::*;

use sdoh_core::{doh_sources, Action, DohFleet, DualStackPolicy, PoolConfig, SecurePoolGenerator};
use sdoh_dns_server::{Authority, Catalog};
use sdoh_doh::DohServerService;
use sdoh_netsim::{SimAddr, SimNet};

/// Deterministic permutation of `0..n` from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    sdoh_netsim::SimRng::seed_from_u64(seed).shuffle(&mut order);
    order
}

/// Builds a simulation with a fleet of `resolvers` DoH servers, its pool
/// domain publishing six IPv4 addresses and one IPv6 address; resolver 0
/// is left unregistered (so its exchange times out) when `first_dead` is
/// set.
fn build_net(seed: u64, resolvers: usize, first_dead: bool) -> (SimNet, DohFleet) {
    let net = SimNet::new(seed);
    let fleet = DohFleet::new(resolvers, 1, 6, seed);
    let mut zone = fleet.pool_zone();
    zone.add_address(fleet.domains[0].clone(), "2001:db8::7".parse().unwrap());
    let mut catalog = Catalog::new();
    catalog.add_zone(zone);
    let authority = Authority::new(catalog);
    for info in fleet.infos.iter().skip(usize::from(first_dead)) {
        net.register(
            info.addr,
            DohServerService::new(info.clone(), authority.clone()),
        );
    }
    (net, fleet)
}

/// Drives a session by hand: performs every transmit in plan order, then
/// feeds the collected outcomes back in the given permutation.
fn run_permuted(
    config: PoolConfig,
    net: &SimNet,
    fleet: &DohFleet,
    session_seed: u64,
    perm_seed: u64,
) -> sdoh_core::PoolResult<sdoh_core::GenerationReport> {
    let mut session = SecurePoolGenerator::new(config, doh_sources(&fleet.infos))?
        .session(&fleet.domains[0], session_seed)?;

    let mut transmits = Vec::new();
    while let Action::Transmit(t) = session.poll() {
        transmits.push(t);
    }

    let client = SimAddr::v4(10, 0, 0, 1, 40000);
    let outcomes: Vec<_> = transmits
        .iter()
        .map(|t| {
            net.transact(
                client,
                t.request.dst,
                t.request.channel,
                &t.request.payload,
                t.request.timeout,
            )
        })
        .collect();

    for &position in &permutation(transmits.len(), perm_seed) {
        session
            .handle_response(transmits[position].transaction, outcomes[position].clone())
            .expect("valid transaction");
    }
    assert!(matches!(session.poll(), Action::Done));
    session.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm 1: every delivery permutation produces exactly the pool
    /// the sequential driver produces, slot for slot and source for source.
    #[test]
    fn any_delivery_order_matches_the_sequential_driver(
        resolvers in 1usize..5,
        net_seed in any::<u64>(),
        session_seed in any::<u64>(),
        perm_seed in any::<u64>(),
        first_dead in any::<bool>(),
    ) {
        let config = PoolConfig::algorithm1();

        let (reference_net, fleet) = build_net(net_seed, resolvers, first_dead);
        let generator =
            SecurePoolGenerator::new(config.clone(), doh_sources(&fleet.infos)).unwrap();
        let mut exchanger =
            reference_net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let sequential = generator.generate_sequential(&mut exchanger, &fleet.domains[0]);

        let (permuted_net, fleet) = build_net(net_seed, resolvers, first_dead);
        let permuted = run_permuted(config, &permuted_net, &fleet, session_seed, perm_seed);

        // Errors (a lone resolver being dead yields NotEnoughResponses)
        // must match too, not only successful reports.
        prop_assert_eq!(&permuted, &sequential);
        if first_dead {
            if let Ok(report) = &permuted {
                prop_assert_eq!(report.failed(), 1, "the dead resolver must be reported");
            }
        }
    }

    /// The invariant holds for dual-stack union lookups too, where each
    /// source contributes two interleavable transactions (A and AAAA).
    #[test]
    fn union_lookups_are_order_independent(
        resolvers in 1usize..4,
        net_seed in any::<u64>(),
        perm_seed in any::<u64>(),
    ) {
        let config = PoolConfig::algorithm1().with_dual_stack(DualStackPolicy::Union);

        let (reference_net, fleet) = build_net(net_seed, resolvers, false);
        let generator =
            SecurePoolGenerator::new(config.clone(), doh_sources(&fleet.infos)).unwrap();
        let mut exchanger =
            reference_net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let sequential = generator
            .generate_sequential(&mut exchanger, &fleet.domains[0])
            .unwrap();

        let (permuted_net, fleet) = build_net(net_seed, resolvers, false);
        let permuted = run_permuted(config, &permuted_net, &fleet, 99, perm_seed).unwrap();

        prop_assert_eq!(permuted, sequential);
    }
}
