//! Adversarial resolver-cache suite: the regression tests for the four
//! classical poisoning vectors the hardened resolver closes, plus a
//! property test that nothing out of bailiwick is ever cached.
//!
//! Every test also exercises the weak
//! ([`HardeningConfig::predictable_ids`]) baseline to document that the
//! vulnerability is still reproducible on demand — that is what the E14
//! attack experiments measure.

use std::cell::Cell;
use std::net::IpAddr;
use std::rc::Rc;

use proptest::prelude::*;

use sdoh_dns_server::{
    Authority, Catalog, Credibility, Do53Service, FnHandler, HardeningConfig, RecursiveConfig,
    RecursiveResolver, ResolveError, Zone,
};
use sdoh_dns_wire::{Message, MessageBuilder, Name, RData, Rcode, Record, RrType};
use sdoh_netsim::{Ctx, SimAddr, SimNet};

const ROOT: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(198, 41, 0, 4)),
    port: 53,
};
const HONEST_NS: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(192, 0, 2, 53)),
    port: 53,
};
const EVIL_NS: SimAddr = SimAddr {
    ip: IpAddr::V4(std::net::Ipv4Addr::new(198, 18, 254, 1)),
    port: 53,
};

fn resolver(net: &SimNet, hardening: HardeningConfig) -> RecursiveResolver {
    RecursiveResolver::new(
        RecursiveConfig {
            root_hints: vec![ROOT],
            hardening,
            ..RecursiveConfig::default()
        },
        net.clock(),
    )
}

fn client(net: &SimNet) -> Ctx<'_> {
    net.client(SimAddr::v4(10, 0, 0, 1, 40000))
}

fn a_record(name: &str, addr: &str) -> Record {
    Record::address(name.parse().unwrap(), 300, addr.parse().unwrap())
}

/// Registers an honest root that delegates `example.` to [`HONEST_NS`]
/// with proper in-zone glue.
fn install_honest_root(net: &SimNet) {
    let mut root_zone = Zone::new(Name::root());
    root_zone.add_record(Record::new(
        "example".parse().unwrap(),
        86_400,
        RData::Ns("ns.example".parse().unwrap()),
    ));
    root_zone.add_record(Record::new(
        "ns.example".parse().unwrap(),
        86_400,
        RData::A("192.0.2.53".parse().unwrap()),
    ));
    let mut catalog = Catalog::new();
    catalog.add_zone(root_zone);
    net.register(ROOT, Do53Service::new(Authority::new(catalog)));
}

/// The attacker's name server: answers every address query with its own
/// addresses and counts how often it was consulted.
fn install_evil_server(net: &SimNet) -> Rc<Cell<u64>> {
    let queries = Rc::new(Cell::new(0u64));
    let seen = Rc::clone(&queries);
    net.register(
        EVIL_NS,
        Do53Service::new(FnHandler::new("evil", move |_ex, query: &Message| {
            seen.set(seen.get() + 1);
            let name = query.question().unwrap().name.clone();
            MessageBuilder::response_to(query)
                .authoritative(true)
                .answer(Record::address(name, 300, "198.18.0.99".parse().unwrap()))
                .build()
        })),
    );
    queries
}

// ---------------------------------------------------------------------------
// Satellite bugfix 1: out-of-bailiwick answer records
// ---------------------------------------------------------------------------

/// An authoritative server for `example.` that appends an A record for an
/// unrelated victim name to every answer.
fn install_poisoning_example_server(net: &SimNet) {
    net.register(
        HONEST_NS,
        Do53Service::new(FnHandler::new("poisoner", |_ex, query: &Message| {
            let name = query.question().unwrap().name.clone();
            MessageBuilder::response_to(query)
                .authoritative(true)
                .answer(Record::address(name, 300, "192.0.2.80".parse().unwrap()))
                // The poison: an answer record for a name this server has
                // no authority over.
                .answer(a_record("time.victim.net", "198.18.0.66"))
                .build()
        })),
    );
}

#[test]
fn out_of_bailiwick_answer_records_are_neither_returned_nor_cached() {
    let net = SimNet::new(201);
    install_honest_root(&net);
    install_poisoning_example_server(&net);

    let mut hardened = resolver(&net, HardeningConfig::full());
    let response = hardened
        .resolve(
            &mut client(&net),
            &"www.example".parse().unwrap(),
            RrType::A,
        )
        .unwrap();
    assert_eq!(response.answer_addresses().len(), 1);
    assert!(
        response
            .answers
            .iter()
            .all(|r| r.name == "www.example".parse::<Name>().unwrap()),
        "victim record must not be returned: {response}"
    );
    let victim: Name = "time.victim.net".parse().unwrap();
    assert!(
        hardened
            .cache()
            .iter()
            .all(|(name, _, answer)| *name != victim
                && answer.records.iter().all(|r| r.name != victim)),
        "victim record must not be cached"
    );
}

#[test]
fn weak_baseline_reproduces_answer_section_poisoning() {
    let net = SimNet::new(202);
    install_honest_root(&net);
    install_poisoning_example_server(&net);

    let mut weak = resolver(&net, HardeningConfig::predictable_ids());
    let response = weak
        .resolve(
            &mut client(&net),
            &"www.example".parse().unwrap(),
            RrType::A,
        )
        .unwrap();
    let victim: Name = "time.victim.net".parse().unwrap();
    assert!(
        response.answers.iter().any(|r| r.name == victim),
        "the weak baseline swallows the appended record"
    );
    assert!(
        weak.cache()
            .iter()
            .any(|(_, _, answer)| answer.records.iter().any(|r| r.name == victim)),
        "and caches it"
    );
}

// ---------------------------------------------------------------------------
// Satellite bugfix 2: blind glue
// ---------------------------------------------------------------------------

/// A root that delegates `example.` and attaches **forged glue**: either
/// an additional record for an unrelated name, or glue for an off-zone NS
/// target — both pointing at the attacker.
fn install_root_with_forged_glue(net: &SimNet, offzone_target: bool) {
    net.register(
        ROOT,
        Do53Service::new(FnHandler::new(
            "forging-root",
            move |_ex, query: &Message| {
                let name = query.question().unwrap().name.clone();
                // Address queries for NS hosts are answered directly (the
                // re-resolution path a hardened resolver takes).
                if name == "ns.example".parse::<Name>().unwrap()
                    || name == "ns.offsite.net".parse::<Name>().unwrap()
                {
                    return MessageBuilder::response_to(query)
                        .authoritative(true)
                        .answer(Record::address(name, 300, "192.0.2.53".parse().unwrap()))
                        .build();
                }
                let (ns_target, glue_name) = if offzone_target {
                    // NS target outside the delegated zone, glue matching it.
                    ("ns.offsite.net", "ns.offsite.net")
                } else {
                    // In-zone NS target, glue for a completely unrelated name.
                    ("ns.example", "unrelated.other.net")
                };
                MessageBuilder::response_to(query)
                    .authority(Record::new(
                        "example".parse().unwrap(),
                        86_400,
                        RData::Ns(ns_target.parse().unwrap()),
                    ))
                    .additional(Record::address(
                        glue_name.parse().unwrap(),
                        86_400,
                        EVIL_NS.ip,
                    ))
                    .build()
            },
        )),
    );
}

fn install_honest_example_server(net: &SimNet) {
    let mut zone = Zone::new("example".parse().unwrap());
    zone.add_record(a_record("www.example", "192.0.2.80"));
    zone.add_record(a_record("ns.example", "192.0.2.53"));
    let mut catalog = Catalog::new();
    catalog.add_zone(zone);
    net.register(HONEST_NS, Do53Service::new(Authority::new(catalog)));
}

#[test]
fn glue_for_unrelated_names_is_discarded_and_ns_target_re_resolved() {
    let net = SimNet::new(203);
    install_root_with_forged_glue(&net, false);
    install_honest_example_server(&net);
    let evil_queries = install_evil_server(&net);

    let mut hardened = resolver(&net, HardeningConfig::full());
    let response = hardened
        .resolve(
            &mut client(&net),
            &"www.example".parse().unwrap(),
            RrType::A,
        )
        .unwrap();
    assert_eq!(
        response.answer_addresses(),
        vec!["192.0.2.80".parse::<IpAddr>().unwrap()],
        "resolution goes through the honest server"
    );
    assert_eq!(evil_queries.get(), 0, "the attacker is never contacted");
}

#[test]
fn glue_for_offzone_ns_targets_is_discarded() {
    let net = SimNet::new(204);
    install_root_with_forged_glue(&net, true);
    // The off-zone NS host genuinely resolves to the honest server.
    install_honest_example_server(&net);
    let evil_queries = install_evil_server(&net);

    let mut hardened = resolver(&net, HardeningConfig::full());
    let response = hardened
        .resolve(
            &mut client(&net),
            &"www.example".parse().unwrap(),
            RrType::A,
        )
        .unwrap();
    assert_eq!(
        response.answer_addresses(),
        vec!["192.0.2.80".parse::<IpAddr>().unwrap()]
    );
    assert_eq!(evil_queries.get(), 0);
}

#[test]
fn weak_baseline_follows_blind_glue_to_the_attacker() {
    for offzone in [false, true] {
        let net = SimNet::new(205 + u64::from(offzone));
        install_root_with_forged_glue(&net, offzone);
        install_honest_example_server(&net);
        let evil_queries = install_evil_server(&net);

        let mut weak = resolver(&net, HardeningConfig::predictable_ids());
        let response = weak
            .resolve(
                &mut client(&net),
                &"www.example".parse().unwrap(),
                RrType::A,
            )
            .unwrap();
        assert_eq!(
            response.answer_addresses(),
            vec!["198.18.0.99".parse::<IpAddr>().unwrap()],
            "blind glue hands the lookup to the attacker (offzone={offzone})"
        );
        assert!(evil_queries.get() > 0);
    }
}

// ---------------------------------------------------------------------------
// Satellite bugfix 3: mid-chain NXDOMAIN caching key
// ---------------------------------------------------------------------------

/// Hierarchy with two zones: `example.` holds a CNAME pointing into
/// `other.`, where the target does not exist.
fn install_cname_chain_hierarchy(net: &SimNet) {
    let other_ns = SimAddr::v4(192, 0, 2, 54, 53);
    let mut root_zone = Zone::new(Name::root());
    for (zone, ns, addr) in [
        ("example", "ns.example", HONEST_NS),
        ("other", "ns.other", other_ns),
    ] {
        root_zone.add_record(Record::new(
            zone.parse().unwrap(),
            86_400,
            RData::Ns(ns.parse().unwrap()),
        ));
        root_zone.add_record(Record::address(ns.parse().unwrap(), 86_400, addr.ip));
    }
    let mut catalog = Catalog::new();
    catalog.add_zone(root_zone);
    net.register(ROOT, Do53Service::new(Authority::new(catalog)));

    let mut example = Zone::new("example".parse().unwrap());
    example.add_record(Record::new(
        "alias.example".parse().unwrap(),
        300,
        RData::Cname("gone.other".parse().unwrap()),
    ));
    let mut catalog = Catalog::new();
    catalog.add_zone(example);
    net.register(HONEST_NS, Do53Service::new(Authority::new(catalog)));

    let mut zone = Zone::new("other".parse().unwrap());
    for (owner, rdata) in [
        ("other", RData::Ns("ns.other".parse().unwrap())),
        ("ns.other", RData::A("192.0.2.54".parse().unwrap())),
        ("www.other", RData::A("192.0.2.90".parse().unwrap())),
    ] {
        zone.add_record(Record::new(owner.parse().unwrap(), 300, rdata));
    }
    let mut catalog = Catalog::new();
    catalog.add_zone(zone);
    net.register(other_ns, Do53Service::new(Authority::new(catalog)));
}

#[test]
fn midchain_nxdomain_is_cached_under_the_cname_target() {
    let net = SimNet::new(207);
    install_cname_chain_hierarchy(&net);

    let mut resolver = resolver(&net, HardeningConfig::full());
    let mut exchanger = client(&net);
    let response = resolver
        .resolve(&mut exchanger, &"alias.example".parse().unwrap(), RrType::A)
        .unwrap();
    assert_eq!(response.header.rcode, Rcode::NxDomain);
    assert!(
        response.answers.iter().any(|r| r.rtype() == RrType::Cname),
        "the CNAME survives in the chain answer"
    );

    // The negative entry belongs to the name that does not exist — the
    // CNAME target — so a direct lookup is answered from the cache alone.
    let requests_before = net.metrics().requests;
    let direct = resolver
        .resolve(&mut exchanger, &"gone.other".parse().unwrap(), RrType::A)
        .unwrap();
    assert_eq!(direct.header.rcode, Rcode::NxDomain);
    assert_eq!(
        net.metrics().requests,
        requests_before,
        "mid-chain NXDOMAIN must be negative-cached under the CNAME target"
    );

    // Sibling names in the healthy zone still resolve.
    let www = resolver
        .resolve(&mut exchanger, &"www.other".parse().unwrap(), RrType::A)
        .unwrap();
    assert_eq!(www.answer_addresses().len(), 1);
}

// ---------------------------------------------------------------------------
// Credibility ranking: glue can never displace an authoritative answer
// ---------------------------------------------------------------------------

/// A root whose referral for `www.example` carries glue that tries to
/// overwrite the (previously cached, authoritative) address of
/// `ns.example` with the attacker's.
fn install_overwriting_root(net: &SimNet) {
    net.register(
        ROOT,
        Do53Service::new(FnHandler::new("overwriter", move |_ex, query: &Message| {
            let name = query.question().unwrap().name.clone();
            if name == "ns.example".parse::<Name>().unwrap() {
                return MessageBuilder::response_to(query)
                    .authoritative(true)
                    .answer(Record::address(name, 3600, "192.0.2.53".parse().unwrap()))
                    .build();
            }
            MessageBuilder::response_to(query)
                .authority(Record::new(
                    "example".parse().unwrap(),
                    86_400,
                    RData::Ns("ns.example".parse().unwrap()),
                ))
                // In-zone glue — routable, but pointing at the attacker.
                .additional(Record::address(
                    "ns.example".parse().unwrap(),
                    86_400,
                    EVIL_NS.ip,
                ))
                .build()
        })),
    );
}

#[test]
fn referral_glue_cannot_overwrite_a_cached_authoritative_answer() {
    let net = SimNet::new(208);
    install_overwriting_root(&net);
    install_evil_server(&net);

    let mut resolver = resolver(&net, HardeningConfig::full());
    let mut exchanger = client(&net);

    // Step 1: the authoritative address of ns.example enters the cache.
    let honest = resolver
        .resolve(&mut exchanger, &"ns.example".parse().unwrap(), RrType::A)
        .unwrap();
    assert_eq!(
        honest.answer_addresses(),
        vec!["192.0.2.53".parse::<IpAddr>().unwrap()]
    );
    let ns_name: Name = "ns.example".parse().unwrap();
    assert_eq!(
        resolver.cache().credibility_of(&ns_name, RrType::A),
        Some(Credibility::AuthoritativeAnswer)
    );

    // Step 2: a later referral carries glue pointing ns.example at the
    // attacker. The glue may route *this* lookup (that is all glue is
    // for), but the cached authoritative answer must survive.
    let _ = resolver.resolve(&mut exchanger, &"www.example".parse().unwrap(), RrType::A);
    assert_eq!(
        resolver.cache().credibility_of(&ns_name, RrType::A),
        Some(Credibility::AuthoritativeAnswer),
        "glue-grade data must not displace the authoritative entry"
    );
    let requests_before = net.metrics().requests;
    let still_honest = resolver
        .resolve(&mut exchanger, &ns_name, RrType::A)
        .unwrap();
    assert_eq!(
        still_honest.answer_addresses(),
        vec!["192.0.2.53".parse::<IpAddr>().unwrap()]
    );
    assert_eq!(net.metrics().requests, requests_before, "served from cache");
}

// ---------------------------------------------------------------------------
// Forged-referral rejection
// ---------------------------------------------------------------------------

#[test]
fn out_of_bailiwick_delegations_are_rejected_outright() {
    // A malicious `example.` server tries to delegate `com.` (outside its
    // bailiwick) to the attacker.
    let net = SimNet::new(209);
    install_honest_root(&net);
    net.register(
        HONEST_NS,
        Do53Service::new(FnHandler::new("rogue-delegator", |_ex, query: &Message| {
            MessageBuilder::response_to(query)
                .authority(Record::new(
                    "com".parse().unwrap(),
                    86_400,
                    RData::Ns("ns.evil.com".parse().unwrap()),
                ))
                .additional(Record::address(
                    "ns.evil.com".parse().unwrap(),
                    86_400,
                    EVIL_NS.ip,
                ))
                .build()
        })),
    );
    let evil_queries = install_evil_server(&net);

    let mut hardened = resolver(&net, HardeningConfig::full());
    let err = hardened
        .resolve(
            &mut client(&net),
            &"www.example".parse().unwrap(),
            RrType::A,
        )
        .unwrap_err();
    assert_eq!(err, ResolveError::OutOfBailiwick);
    assert_eq!(evil_queries.get(), 0);

    let weak = SimNet::new(210);
    install_honest_root(&weak);
    // (Same rogue server on the weak net.)
    weak.register(
        HONEST_NS,
        Do53Service::new(FnHandler::new("rogue-delegator", |_ex, query: &Message| {
            MessageBuilder::response_to(query)
                .authority(Record::new(
                    "com".parse().unwrap(),
                    86_400,
                    RData::Ns("ns.evil.com".parse().unwrap()),
                ))
                .additional(Record::address(
                    "ns.evil.com".parse().unwrap(),
                    86_400,
                    EVIL_NS.ip,
                ))
                .build()
        })),
    );
    let evil_queries = install_evil_server(&weak);
    let mut weak_resolver = resolver(&weak, HardeningConfig::predictable_ids());
    let response = weak_resolver
        .resolve(
            &mut client(&weak),
            &"www.example".parse().unwrap(),
            RrType::A,
        )
        .unwrap();
    assert_eq!(
        response.answer_addresses(),
        vec!["198.18.0.99".parse::<IpAddr>().unwrap()],
        "the weak resolver follows the rogue delegation"
    );
    assert!(evil_queries.get() > 0);
}

// ---------------------------------------------------------------------------
// Mutually-referring glueless delegations must not recurse unboundedly
// ---------------------------------------------------------------------------

#[test]
fn mutual_glueless_referrals_error_instead_of_overflowing_the_stack() {
    // The root delegates a.test to a name server inside b.test and
    // b.test to a name server inside a.test, never with usable glue:
    // every referral forces a nested NS-address resolution. Without a
    // nesting cap this recursses one stack frame per referral until the
    // process aborts — an off-path attacker can force it with forged
    // glueless referrals. It must surface as TooManyIterations instead.
    for hardening in [HardeningConfig::full(), HardeningConfig::predictable_ids()] {
        let net = SimNet::new(211);
        net.register(
            ROOT,
            Do53Service::new(FnHandler::new("mutual-root", |_ex, query: &Message| {
                let name = query.question().unwrap().name.clone();
                let (zone, ns_target) = if name.is_subdomain_of(&"a.test".parse().unwrap()) {
                    ("a.test", "ns.b.test")
                } else {
                    ("b.test", "ns.a.test")
                };
                MessageBuilder::response_to(query)
                    .authority(Record::new(
                        zone.parse().unwrap(),
                        86_400,
                        RData::Ns(ns_target.parse().unwrap()),
                    ))
                    .build()
            })),
        );
        let mut resolver = resolver(&net, hardening);
        let err = resolver
            .resolve(&mut client(&net), &"www.a.test".parse().unwrap(), RrType::A)
            .unwrap_err();
        assert_eq!(err, ResolveError::TooManyIterations, "{hardening:?}");
    }
}

// ---------------------------------------------------------------------------
// Property: no cached record ever leaves the supplying server's bailiwick
// ---------------------------------------------------------------------------

/// One junk record the malicious `example.` server injects somewhere.
#[derive(Debug, Clone)]
struct Injection {
    /// Owner name of the injected record.
    name: Name,
    /// 0 = answer, 1 = authority, 2 = additional.
    section: u8,
    /// Whether the record is a CNAME (to the victim) instead of an A.
    cname: bool,
}

fn arb_injection() -> impl Strategy<Value = Injection> {
    (
        prop_oneof![
            // In-zone junk: allowed to be cached (the server owns it).
            proptest::string::string_regex("[a-z]{1,8}\\.example").unwrap(),
            // Out-of-zone poison: must never survive.
            proptest::string::string_regex("[a-z]{1,8}\\.attacker\\.net").unwrap(),
            Just("time.victim.net".to_string()),
        ],
        0u8..3,
        any::<bool>(),
    )
        .prop_map(|(name, section, cname)| Injection {
            name: name.parse().unwrap(),
            section,
            cname,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_records_never_leave_the_bailiwick(
        injections in proptest::collection::vec(arb_injection(), 0..6),
        answer_honestly in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let net = SimNet::new(1000 + seed);
        install_honest_root(&net);
        let injections_for_server = injections.clone();
        net.register(
            HONEST_NS,
            Do53Service::new(FnHandler::new("junk-injector", move |_ex, query: &Message| {
                let name = query.question().unwrap().name.clone();
                let mut builder = MessageBuilder::response_to(query).authoritative(true);
                if answer_honestly {
                    builder = builder.answer(Record::address(
                        name,
                        300,
                        "192.0.2.80".parse().unwrap(),
                    ));
                }
                for injection in &injections_for_server {
                    let record = if injection.cname {
                        Record::new(
                            injection.name.clone(),
                            300,
                            RData::Cname("time.victim.net".parse().unwrap()),
                        )
                    } else {
                        Record::address(
                            injection.name.clone(),
                            300,
                            "198.18.0.99".parse().unwrap(),
                        )
                    };
                    builder = match injection.section {
                        0 => builder.answer(record),
                        1 => builder.authority(record),
                        _ => builder.additional(record),
                    };
                }
                builder.build()
            })),
        );

        let mut hardened = resolver(&net, HardeningConfig::full());
        // The outcome may be Ok or Err (junk can make the response bogus);
        // the invariant is about what lands in the cache either way.
        let _ = hardened.resolve(
            &mut client(&net),
            &"www.example".parse().unwrap(),
            RrType::A,
        );

        let example: Name = "example".parse().unwrap();
        for (key, _, answer) in hardened.cache().iter() {
            prop_assert!(
                key.is_subdomain_of(&example),
                "cache key {key} escaped the bailiwick"
            );
            for record in &answer.records {
                prop_assert!(
                    record.name.is_subdomain_of(&example),
                    "cached record {} escaped the bailiwick (key {key})",
                    record.name
                );
            }
        }
    }
}
