//! The authority's wire answer against its owned answer, and both against
//! the builder the owned answer was before the zone walk was shared.
//!
//! `Authority::handle_query_wire` writes the response from zone records
//! where they lie; it must be `handle_query(..).encode()` byte for byte, for
//! every outcome of a zone lookup and behind every wrapper a deployment puts
//! around an authority. The same holds for a poisoned resolver, whose
//! replacement answers are rendered from a template, in every mode, and for
//! the authority's answer index, which must render exactly the queries the
//! walk would answer with an indexed RRset and refuse every other. A
//! compromised resolver poisons a set of targets with one wrapper, and
//! that answers byte for byte — and counts — what a stack of one wrapper
//! per target did. The wire path reads each query where it lies in its
//! encoding (`QueryView`). Each test prints how many pairs it compared.

use std::net::IpAddr;
use std::sync::Arc;

use parking_lot::Mutex;
use sdoh_dns_server::{
    Authority, Catalog, PoisonConfig, PoisonMode, PoisonedResolver, QueryHandler, Zone, ZoneLookup,
};
use sdoh_dns_wire::{
    Edns, Message, MessageBuilder, MessageView, Name, Opcode, QueryView, Question, RData, Rcode,
    Record, RrClass, RrType,
};
use sdoh_netsim::{Ctx, SimAddr, SimNet};

/// Longest CNAME chain the authority follows, as it documents.
const MAX_CNAME_CHAIN: usize = 8;

/// `handler`'s wire answer to `query`, read where it lies in its encoding
/// as a front door reads it, into `out`; the TTL it reports.
fn wire_answer(
    handler: &mut dyn QueryHandler,
    exchanger: &mut Ctx,
    query: &Message,
    out: &mut Vec<u8>,
) -> Option<u32> {
    let octets = query.encode().unwrap();
    let lent = QueryView::parse(&octets).unwrap();
    handler.handle_query_wire(exchanger, &lent, out).unwrap()
}

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
    let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 1000));
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
        let octets = query.encode().unwrap();
        authority
            .answer_into(&QueryView::parse(&octets).unwrap(), &mut wire)
            .unwrap();
        assert_eq!(wire, reference.encode().unwrap(), "{case}");

        for (handler_name, handler) in &mut handlers {
            wire_answer(handler.as_mut(), &mut exchanger, query, &mut wire);
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
    let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 1000));
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
                    wire_answer(&mut on_wire, &mut exchanger, query, &mut wire);
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

/// A catalog built to tempt the answer index: a child zone holding an
/// owner its parent also holds, address records occluded by a zone cut, a
/// name that exists only through a wildcard, RRsets whose TTLs or classes
/// differ, owners of one family and of both.
fn index_catalog() -> Catalog {
    let name = |n: &str| -> Name { n.parse().unwrap() };
    let record = |owner: &str, ttl, rdata| Record::new(name(owner), ttl, rdata);
    let a = |ip: &str| RData::A(ip.parse().unwrap());
    let aaaa = |ip: &str| RData::Aaaa(ip.parse().unwrap());
    let mut parent = Zone::new(name("ntpns.org"));
    let mut chaos = record("classes.ntpns.org", 300, a("192.0.2.41"));
    chaos.rclass = RrClass::Ch;
    for record in [
        record("pool.ntpns.org", 300, a("203.0.113.1")),
        record("pool.ntpns.org", 300, a("203.0.113.2")),
        record("pool.ntpns.org", 300, a("203.0.113.3")),
        record("dual.ntpns.org", 60, a("203.0.113.4")),
        record("dual.ntpns.org", 120, aaaa("2001:db8::4")),
        record("v6only.ntpns.org", 30, aaaa("2001:db8::6")),
        record("ttls.ntpns.org", 300, a("192.0.2.31")),
        record("ttls.ntpns.org", 60, a("192.0.2.32")),
        record("classes.ntpns.org", 300, a("192.0.2.40")),
        chaos,
        // Shadowed by the child zone below, which answers for it.
        record("www.sub.ntpns.org", 300, a("192.0.2.50")),
        record("sub.ntpns.org", 300, a("192.0.2.51")),
        // A cut, with an address record below it: a referral answers.
        record("cut.ntpns.org", 300, RData::Ns(name("ns.cut.ntpns.org"))),
        record("ns.cut.ntpns.org", 300, a("198.51.100.53")),
        record("host.cut.ntpns.org", 300, a("192.0.2.60")),
        record("*.wild.ntpns.org", 300, a("192.0.2.70")),
        record("alias.ntpns.org", 300, RData::Cname(name("pool.ntpns.org"))),
    ] {
        assert!(parent.add_record(record));
    }
    let mut child = Zone::new(name("sub.ntpns.org"));
    for record in [
        record("www.sub.ntpns.org", 600, a("198.51.100.80")),
        record("www.sub.ntpns.org", 600, a("198.51.100.81")),
    ] {
        assert!(child.add_record(record));
    }
    [parent, child].into_iter().collect()
}

/// The authority's wire answer through its answer index against the walk:
/// each case is a query and whether the index must answer it. An indexed
/// answer reports its TTL, which is the least TTL of the answer's records;
/// a refused one reports none and is written by the walk. Either way the
/// bytes are `handle_query(..).encode()`'s, behind every wrapper, and each
/// wrapper passes the TTL through.
#[test]
fn the_answer_index_answers_only_what_the_walk_answers_alike() {
    let catalog = index_catalog();
    let net = SimNet::new(1);
    let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 1000));
    let ask = |name: &str, rtype| Message::query(0x1DE5, name.parse().unwrap(), rtype);
    let with = |name: &str, rtype, change: fn(&mut Message)| {
        let mut query = ask(name, rtype);
        change(&mut query);
        query
    };
    let cases = [
        ("exact match", ask("pool.ntpns.org", RrType::A), true),
        ("mixed-case qname", ask("PoOl.NtPnS.oRg", RrType::A), true),
        (
            "dual-stack owner, A",
            ask("dual.ntpns.org", RrType::A),
            true,
        ),
        (
            "dual-stack owner, AAAA",
            ask("dual.ntpns.org", RrType::Aaaa),
            true,
        ),
        (
            "AAAA-only owner",
            ask("v6only.ntpns.org", RrType::Aaaa),
            true,
        ),
        (
            "AAAA-only owner asked for A (NODATA)",
            ask("v6only.ntpns.org", RrType::A),
            false,
        ),
        (
            "child zone over a parent owner",
            ask("www.sub.ntpns.org", RrType::A),
            true,
        ),
        (
            "child zone apex over a parent owner",
            ask("sub.ntpns.org", RrType::A),
            false,
        ),
        (
            "address records below a cut",
            ask("host.cut.ntpns.org", RrType::A),
            false,
        ),
        (
            "glue below a cut",
            ask("ns.cut.ntpns.org", RrType::A),
            false,
        ),
        (
            "name only a wildcard holds",
            ask("x.wild.ntpns.org", RrType::A),
            false,
        ),
        (
            "RRset whose TTLs differ",
            ask("ttls.ntpns.org", RrType::A),
            false,
        ),
        (
            "RRset with a record outside IN",
            ask("classes.ntpns.org", RrType::A),
            false,
        ),
        ("CNAME chain", ask("alias.ntpns.org", RrType::A), false),
        ("NXDOMAIN", ask("missing.ntpns.org", RrType::A), false),
        (
            "TXT at an indexed owner",
            ask("pool.ntpns.org", RrType::Txt),
            false,
        ),
        (
            "ANY at an indexed owner",
            ask("pool.ntpns.org", RrType::Any),
            false,
        ),
        (
            "opcode STATUS",
            with("pool.ntpns.org", RrType::A, |q| {
                q.header.opcode = Opcode::Status
            }),
            false,
        ),
        (
            "opcode UPDATE",
            with("pool.ntpns.org", RrType::A, |q| {
                q.header.opcode = Opcode::Update
            }),
            false,
        ),
        (
            "two questions",
            with("pool.ntpns.org", RrType::A, |q| {
                q.questions
                    .push(Question::new("dual.ntpns.org".parse().unwrap(), RrType::A));
            }),
            false,
        ),
        (
            "no question",
            with("pool.ntpns.org", RrType::A, |q| q.questions.clear()),
            false,
        ),
        (
            "OPT record in the query",
            with("pool.ntpns.org", RrType::A, |q| {
                q.set_edns(Edns::with_payload_size(1232));
            }),
            true,
        ),
        (
            "RD clear, CD and AD set",
            with("pool.ntpns.org", RrType::A, |q| {
                q.header.recursion_desired = false;
                q.header.checking_disabled = true;
                q.header.authentic_data = true;
            }),
            true,
        ),
        (
            "question class CH",
            with("pool.ntpns.org", RrType::A, |q| {
                q.questions[0].rclass = RrClass::Ch;
            }),
            true,
        ),
    ];

    let poisoned = || {
        PoisonedResolver::new(
            Authority::new(catalog.clone()),
            PoisonConfig::new(
                "elsewhere.ntpns.org".parse().unwrap(),
                PoisonMode::ReplaceAddresses(vec!["198.18.0.1".parse().unwrap()]),
            ),
        )
    };
    let authority = Authority::new(catalog.clone());
    let mut handlers: Vec<(&str, Box<dyn QueryHandler>)> = vec![
        ("authority", Box::new(authority.clone())),
        (
            "shared authority",
            Box::new(Arc::new(Mutex::new(authority.clone()))),
        ),
        ("poisoned resolver, off its target", Box::new(poisoned())),
        (
            "boxed poisoned resolver",
            Box::new(Box::new(poisoned()) as Box<dyn QueryHandler>),
        ),
    ];

    let mut compared = 0;
    let mut indexed = 0;
    let mut wire = Vec::new();
    for (case, query, from_index) in &cases {
        assert_eq!(
            authority.answer(query),
            reference_answer(&catalog, query),
            "{case}"
        );
        for (handler_name, handler) in &mut handlers {
            let ttl = wire_answer(handler.as_mut(), &mut exchanger, query, &mut wire);
            let encoded = handler
                .handle_query(&mut exchanger, query)
                .encode()
                .unwrap();
            assert_eq!(wire, encoded, "{case} through the {handler_name}");
            assert_eq!(
                ttl.is_some(),
                *from_index,
                "{case} through the {handler_name}: answered from the index"
            );
            if let Some(ttl) = ttl {
                assert_eq!(Some(ttl), MessageView::least_answer_ttl(&wire), "{case}");
                indexed += 1;
            }
            compared += 1;
        }
    }
    println!(
        "answer index oracle: {} queries x {} handlers = {compared} wire answers equal to the \
         encoded owned answer, {indexed} of them rendered from the index with its TTL",
        cases.len(),
        handlers.len()
    );
}

/// One layer of a stack of poisoning wrappers, shared so that its count
/// can be read.
type Layer = Arc<Mutex<PoisonedResolver<Box<dyn QueryHandler + Send>>>>;

/// One wrapper over a set of targets against the stack of one wrapper per
/// target it replaced, for targets none of which lies below another (as a
/// fleet's pool domains): every `PoisonMode` — a replacement of one family,
/// of the other and of both, inflation, an empty answer, NXDOMAIN and
/// SERVFAIL — asked for each target, a subdomain of one, a sibling that is
/// none, the apex, a target spelled in mixed case, and the family a list
/// does not hold. Both forms answer through `handle_query` and the wire
/// path alike, byte for byte, and count the same poisoned queries: the
/// stack's layers summed.
#[test]
fn one_wrapper_over_a_target_set_answers_what_a_stack_of_wrappers_did() {
    let catalog = catalog();
    let net = SimNet::new(1);
    let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 1000));
    let v4 = |host: u8| IpAddr::from([198, 18, 0, host]);
    let v6 = |host: u16| IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0x66, host]);
    let modes = [
        PoisonMode::ReplaceAddresses((1..=4).map(v4).collect()),
        PoisonMode::ReplaceAddresses(vec![v6(1), v6(2)]),
        PoisonMode::ReplaceAddresses(vec![v4(1), v6(1), v4(2)]),
        PoisonMode::InflateWith(vec![v4(9), v6(9)]),
        PoisonMode::EmptyAnswer,
        PoisonMode::NxDomain,
        PoisonMode::ServFail,
    ];
    let targets: Vec<Name> = ["pool.ntpns.org", "poisoned.ntpns.org", "c.ntpns.org"]
        .iter()
        .map(|name| name.parse().unwrap())
        .collect();
    let mut queries = Vec::new();
    for name in [
        "pool.ntpns.org",
        "poisoned.ntpns.org",
        "c.ntpns.org",
        "deeper.pool.ntpns.org",
        "PoIsOnEd.NtPnS.oRg",
        "alias.ntpns.org",
        "x.deep.ntpns.org",
        "ntpns.org",
        "www.example.com",
    ] {
        for rtype in [RrType::A, RrType::Aaaa] {
            queries.push(Message::query(0x5E7, name.parse().unwrap(), rtype));
        }
    }

    let mut compared = 0;
    let mut answer = Vec::new();
    let mut stacked_answer = Vec::new();
    for mode in &modes {
        let mut set = PoisonedResolver::new(
            Authority::new(catalog.clone()),
            PoisonConfig::for_targets(targets.iter().cloned(), mode.clone()),
        );
        // The stack, each layer shared so that its count can be read.
        let mut layers: Vec<Layer> = Vec::new();
        let mut stack: Box<dyn QueryHandler + Send> = Box::new(Authority::new(catalog.clone()));
        for target in &targets {
            let layer = Arc::new(Mutex::new(PoisonedResolver::new(
                stack,
                PoisonConfig::new(target.clone(), mode.clone()),
            )));
            layers.push(Arc::clone(&layer));
            stack = Box::new(layer);
        }
        let stacked_count = |layers: &[Layer]| {
            layers
                .iter()
                .map(|layer| layer.lock().poisoned_queries())
                .sum::<u64>()
        };
        for query in &queries {
            let owned = set.handle_query(&mut exchanger, query).encode().unwrap();
            let stacked = stack.handle_query(&mut exchanger, query).encode().unwrap();
            assert_eq!(owned, stacked, "{mode:?}: {:?}", query.questions);
            let ttl = wire_answer(&mut set, &mut exchanger, query, &mut answer);
            let stacked_ttl =
                wire_answer(stack.as_mut(), &mut exchanger, query, &mut stacked_answer);
            assert_eq!(answer, owned, "{mode:?} on the wire: {:?}", query.questions);
            assert_eq!(stacked_answer, owned, "{mode:?}: {:?}", query.questions);
            assert_eq!(ttl, stacked_ttl, "{mode:?}: {:?}", query.questions);
            assert_eq!(
                set.poisoned_queries(),
                stacked_count(&layers),
                "{mode:?}: {:?}",
                query.questions
            );
            compared += 1;
        }
        // Each target, its subdomain and its mixed-case spelling, in both
        // families, on both paths.
        assert_eq!(set.poisoned_queries(), 2 * 2 * 5, "{mode:?}");
    }
    println!(
        "poisoning by set: {} modes x {} queries = {compared} cases, one wrapper over {} targets \
         equal to the stack of {} wrappers on both paths, poisoned queries counted alike",
        modes.len(),
        queries.len(),
        targets.len(),
        targets.len()
    );
}
