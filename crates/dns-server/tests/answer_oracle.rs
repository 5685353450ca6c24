//! The authority's wire answer against its owned answer, and both against
//! the builder the owned answer was before the zone walk was shared.
//!
//! `Authority::handle_query_wire` writes the response from zone records
//! where they lie; it must be `handle_query(..).encode()` byte for byte, for
//! every outcome of a zone lookup and behind every wrapper a deployment puts
//! around an authority. The same holds for a poisoned resolver, whose
//! replacement answers are rendered from a template, in every mode. Each
//! test prints how many pairs it compared.

use std::net::IpAddr;
use std::sync::Arc;

use parking_lot::Mutex;
use sdoh_dns_server::{
    Authority, Catalog, ClientExchanger, PoisonConfig, PoisonMode, PoisonedResolver, QueryHandler,
    Zone, ZoneLookup,
};
use sdoh_dns_wire::{
    Edns, Message, MessageBuilder, Name, Opcode, Question, RData, Rcode, Record, RrType,
};
use sdoh_netsim::{SimAddr, SimNet};

/// Longest CNAME chain the authority follows, as it documents.
const MAX_CNAME_CHAIN: usize = 8;

fn catalog() -> Catalog {
    let origin: Name = "ntpns.org".parse().unwrap();
    let name = |n: &str| -> Name { n.parse().unwrap() };
    let at = |owner: &str| -> Name {
        match owner {
            "@" => origin.clone(),
            _ => name(&format!("{owner}.ntpns.org")),
        }
    };
    let a = |ip: &str| RData::A(ip.parse().unwrap());
    let cname = |target: &str| RData::Cname(name(target));
    let mut zone = Zone::new(origin.clone());
    for (owner, rdata) in [
        ("@", RData::Ns(name("c.ntpns.org"))),
        ("c", a("198.51.100.3")),
        ("pool", a("203.0.113.1")),
        ("pool", a("203.0.113.2")),
        ("pool", a("203.0.113.3")),
        (
            "pool",
            RData::Txt(vec![b"pool".to_vec(), b"of".to_vec(), b"three".to_vec()]),
        ),
        ("Mixed", a("203.0.113.9")),
        ("alias", cname("pool.ntpns.org")),
        ("alias2", cname("alias.ntpns.org")),
        ("extern", cname("www.example.com")),
        ("loop1", cname("loop2.ntpns.org")),
        ("loop2", cname("loop1.ntpns.org")),
        ("*.wild", a("192.0.2.99")),
        ("*.wild", a("192.0.2.98")),
        ("walias", cname("x.wild.ntpns.org")),
        ("child", RData::Ns(name("ns.child.ntpns.org"))),
        ("child", RData::Ns(name("ns2.elsewhere.example"))),
        ("ns.child", a("198.51.100.99")),
        ("ns.child", RData::Aaaa("2001:db8::99".parse().unwrap())),
        ("calias", cname("host.child.ntpns.org")),
        ("x.deep", a("198.51.100.7")),
        ("poisoned", a("203.0.113.50")),
    ] {
        assert!(zone.add_record(Record::new(at(owner), 300, rdata)));
    }
    let mut catalog = Catalog::new();
    catalog.add_zone(zone);
    catalog
}

/// `Authority::answer` as it was before the walk was shared: a builder fed
/// from each lookup, records cloned in, a wildcard's renamed.
fn reference_answer(catalog: &Catalog, query: &Message) -> Message {
    if query.header.opcode != Opcode::Query {
        return Message::error_response(query, Rcode::NotImp);
    }
    let Some(question) = query.question() else {
        return Message::error_response(query, Rcode::FormErr);
    };
    let Some(zone) = catalog.find(&question.name) else {
        return Message::error_response(query, Rcode::Refused);
    };
    let mut builder = MessageBuilder::response_to(query).authoritative(true);
    let mut current = question.name.clone();
    let mut chain = 0;
    loop {
        match zone.lookup(&current, question.rtype) {
            ZoneLookup::Answer(records) => {
                for record in records.iter() {
                    builder = builder.answer(record.clone());
                }
                return builder.build();
            }
            ZoneLookup::Wildcard(records) => {
                for record in records.iter() {
                    let mut synthesized = record.clone();
                    synthesized.name = current.clone();
                    builder = builder.answer(synthesized);
                }
                return builder.build();
            }
            ZoneLookup::Cname(cname) => {
                let target = cname
                    .rdata
                    .target_name()
                    .cloned()
                    .unwrap_or_else(|| current.clone());
                builder = builder.answer(cname.clone());
                chain += 1;
                if chain > MAX_CNAME_CHAIN || !zone.contains(&target) {
                    return builder.build();
                }
                current = target;
            }
            ZoneLookup::Delegation(cut) => {
                let mut referral = MessageBuilder::response_to(query).authoritative(false);
                for ns in cut.ns_records() {
                    referral = referral.authority(ns.clone());
                }
                for glue in cut.glue() {
                    referral = referral.additional(glue.clone());
                }
                return referral.build();
            }
            ZoneLookup::NoRecords => {
                if let Some(soa) = zone.soa() {
                    builder = builder.authority(soa.clone());
                }
                return builder.build();
            }
            ZoneLookup::NxDomain => {
                builder = builder.rcode(Rcode::NxDomain);
                if let Some(soa) = zone.soa() {
                    builder = builder.authority(soa.clone());
                }
                return builder.build();
            }
        }
    }
}

/// One query per outcome a lookup can end on, plus what a query itself can
/// vary: case, opcode, question count, RD, EDNS.
fn queries() -> Vec<(&'static str, Message)> {
    let ask = |name: &str, rtype| Message::query(0x5353, name.parse().unwrap(), rtype);
    let mut cases = vec![
        ("exact match", ask("pool.ntpns.org", RrType::A)),
        ("exact match, TXT", ask("pool.ntpns.org", RrType::Txt)),
        ("exact match, ANY", ask("pool.ntpns.org", RrType::Any)),
        ("mixed-case question", ask("PoOl.NtPnS.oRg", RrType::A)),
        ("mixed-case owner", ask("mixed.NTPNS.org", RrType::A)),
        ("CNAME chain in zone", ask("alias.ntpns.org", RrType::A)),
        ("two-link CNAME chain", ask("alias2.ntpns.org", RrType::A)),
        ("CNAME asked for", ask("alias.ntpns.org", RrType::Cname)),
        ("CNAME out of zone", ask("extern.ntpns.org", RrType::A)),
        ("CNAME loop", ask("loop1.ntpns.org", RrType::A)),
        ("wildcard", ask("anything.wild.ntpns.org", RrType::A)),
        ("wildcard, deeper", ask("a.b.wild.ntpns.org", RrType::A)),
        (
            "wildcard through a CNAME",
            ask("walias.ntpns.org", RrType::A),
        ),
        (
            "wildcard NODATA",
            ask("anything.wild.ntpns.org", RrType::Aaaa),
        ),
        (
            "delegation with glue",
            ask("host.child.ntpns.org", RrType::A),
        ),
        ("delegation at the cut", ask("child.ntpns.org", RrType::A)),
        (
            "delegation through a CNAME",
            ask("calias.ntpns.org", RrType::A),
        ),
        ("NODATA", ask("pool.ntpns.org", RrType::Aaaa)),
        (
            "NODATA at an empty non-terminal",
            ask("deep.ntpns.org", RrType::A),
        ),
        ("NXDOMAIN", ask("missing.ntpns.org", RrType::A)),
        ("SOA at the apex", ask("ntpns.org", RrType::Soa)),
        ("REFUSED", ask("www.example.com", RrType::A)),
        ("poisoned target", ask("poisoned.ntpns.org", RrType::A)),
    ];
    let mut notimp = ask("pool.ntpns.org", RrType::A);
    notimp.header.opcode = Opcode::Update;
    cases.push(("NOTIMP", notimp));
    let mut formerr = ask("pool.ntpns.org", RrType::A);
    formerr.questions.clear();
    cases.push(("FORMERR", formerr));
    let mut two = ask("pool.ntpns.org", RrType::A);
    two.questions
        .push(Question::new("alias.ntpns.org".parse().unwrap(), RrType::A));
    cases.push(("two questions", two));
    let mut plain = ask("pool.ntpns.org", RrType::A);
    plain.header.recursion_desired = false;
    plain.header.checking_disabled = true;
    cases.push(("RD clear, CD set", plain));
    let mut edns = ask("alias.ntpns.org", RrType::A);
    edns.set_edns(Edns::with_payload_size(1232));
    cases.push(("EDNS in the query", edns));
    cases
}

#[test]
fn the_wire_answer_is_the_encoded_answer_for_every_outcome() {
    let catalog = catalog();
    let net = SimNet::new(1);
    let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 1000));
    let poisoned = || {
        PoisonedResolver::new(
            Authority::new(catalog.clone()),
            PoisonConfig::new(
                "poisoned.ntpns.org".parse().unwrap(),
                PoisonMode::ReplaceAddresses(vec!["198.18.0.1".parse().unwrap()]),
            ),
        )
    };
    let mut handlers: Vec<(&str, Box<dyn QueryHandler>)> = vec![
        ("authority", Box::new(Authority::new(catalog.clone()))),
        ("poisoned resolver", Box::new(poisoned())),
        (
            "shared authority",
            Box::new(Arc::new(Mutex::new(Authority::new(catalog.clone())))),
        ),
        (
            "boxed poisoned resolver",
            Box::new(Box::new(poisoned()) as Box<dyn QueryHandler>),
        ),
    ];

    let authority = Authority::new(catalog.clone());
    let queries = queries();
    let mut compared = 0;
    let mut wire = Vec::new();
    for (case, query) in &queries {
        let reference = reference_answer(&catalog, query);
        assert_eq!(authority.answer(query), reference, "{case}");
        authority.answer_into(query, &mut wire).unwrap();
        assert_eq!(wire, reference.encode().unwrap(), "{case}");

        for (handler_name, handler) in &mut handlers {
            handler
                .handle_query_wire(&mut exchanger, query, &mut wire)
                .unwrap();
            let encoded = handler
                .handle_query(&mut exchanger, query)
                .encode()
                .unwrap();
            assert_eq!(wire, encoded, "{case} through the {handler_name}");
            compared += 1;
        }
    }

    // The wildcard's records answer under the name asked, not `*.wild`.
    let (_, wildcard) = queries
        .iter()
        .find(|(case, _)| *case == "wildcard")
        .unwrap();
    let wildcard = authority.answer(wildcard);
    assert_eq!(wildcard.answers.len(), 2);
    assert!(wildcard
        .answers
        .iter()
        .all(|r| r.name == "anything.wild.ntpns.org".parse().unwrap()));

    println!(
        "answer oracle: {} queries x {} handlers = {compared} wire answers equal to the \
         encoded owned answer, and the authority's equal to the reference builder's",
        queries.len(),
        handlers.len()
    );
}

/// The poisoned resolver's wire answer against its owned answer: every
/// `PoisonMode`, address lists of either family, of both and of none, A,
/// AAAA and TXT questions, names at, below, beside and outside the target,
/// and the query shapes a template cannot render. The resolver answering on
/// the wire path and the one answering owned count the same poisoned
/// queries, query by query.
#[test]
fn the_poisoned_wire_answer_is_the_encoded_answer_in_every_mode() {
    let catalog = catalog();
    let net = SimNet::new(1);
    let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 1000));
    let v4 = |host: u8| IpAddr::from([198, 18, 0, host]);
    let v6 = |host: u16| IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0x66, host]);
    let lists: Vec<Vec<IpAddr>> = vec![
        Vec::new(),
        vec![v4(1)],
        (1..=8).map(v4).collect(),
        vec![v6(1), v6(2)],
        vec![v4(1), v6(1), v4(2)],
        vec![v6(3), v4(3)],
    ];
    let mut modes = vec![
        PoisonMode::EmptyAnswer,
        PoisonMode::NxDomain,
        PoisonMode::ServFail,
    ];
    for list in &lists {
        modes.push(PoisonMode::ReplaceAddresses(list.clone()));
        modes.push(PoisonMode::InflateWith(list.clone()));
    }

    let target: Name = "pool.ntpns.org".parse().unwrap();
    let ask = |name: &str, rtype| Message::query(0x0D0E, name.parse().unwrap(), rtype);
    let mut queries = Vec::new();
    for name in [
        "pool.ntpns.org",
        "PoOl.NtPnS.oRg",
        "deeper.pool.ntpns.org",
        "alias.ntpns.org",
        "ntpns.org",
        "www.example.com",
    ] {
        for rtype in [RrType::A, RrType::Aaaa, RrType::Txt] {
            queries.push(ask(name, rtype));
        }
    }
    let mut notimp = ask("pool.ntpns.org", RrType::A);
    notimp.header.opcode = Opcode::Update;
    let mut formerr = ask("pool.ntpns.org", RrType::A);
    formerr.questions.clear();
    let mut two = ask("pool.ntpns.org", RrType::A);
    two.questions
        .push(Question::new("alias.ntpns.org".parse().unwrap(), RrType::A));
    let mut plain = ask("pool.ntpns.org", RrType::Aaaa);
    plain.header.recursion_desired = false;
    plain.header.checking_disabled = true;
    let mut edns = ask("pool.ntpns.org", RrType::A);
    edns.set_edns(Edns::with_payload_size(1232));
    queries.extend([
        notimp,
        formerr,
        two,
        plain,
        edns,
        Message::query(3, Name::root(), RrType::A),
    ]);

    let mut compared = 0;
    let mut wire = Vec::new();
    for mode in &modes {
        for ttl in [300, 0] {
            // Alone, and stacked over a wrapper poisoning another name, as a
            // compromised resolver of a fleet poisons each pool domain.
            let poisoned = |inner: Box<dyn QueryHandler>| {
                let mut config = PoisonConfig::new(target.clone(), mode.clone());
                config.ttl = ttl;
                PoisonedResolver::new(inner, config)
            };
            let stacked = || {
                let other = PoisonConfig::new(
                    "alias.ntpns.org".parse().unwrap(),
                    PoisonMode::ReplaceAddresses(vec![v4(200)]),
                );
                Box::new(PoisonedResolver::new(
                    Authority::new(catalog.clone()),
                    other,
                ))
            };
            for (mut on_wire, mut owned) in [
                (
                    poisoned(Box::new(Authority::new(catalog.clone()))),
                    poisoned(Box::new(Authority::new(catalog.clone()))),
                ),
                (poisoned(stacked()), poisoned(stacked())),
            ] {
                for query in &queries {
                    on_wire
                        .handle_query_wire(&mut exchanger, query, &mut wire)
                        .unwrap();
                    let encoded = owned.handle_query(&mut exchanger, query).encode().unwrap();
                    assert_eq!(wire, encoded, "{mode:?} ttl {ttl}: {:?}", query.questions);
                    assert_eq!(
                        on_wire.poisoned_queries(),
                        owned.poisoned_queries(),
                        "{mode:?}: {:?}",
                        query.questions
                    );
                    compared += 1;
                }
                assert!(owned.poisoned_queries() > 0, "{mode:?}");
            }
        }
    }
    println!(
        "poisoned answer oracle: {} modes x 2 TTLs x 2 stackings x {} queries = {compared} wire \
         answers equal to the encoded owned answer, poisoned queries counted alike",
        modes.len(),
        queries.len()
    );
}
