//! The authority's wire answer against its owned answer, and both against
//! the builder the owned answer was before the zone walk was shared.
//!
//! `Authority::handle_query_wire` writes the response from zone records
//! where they lie; it must be `handle_query(..).encode()` byte for byte, for
//! every outcome of a zone lookup and behind every wrapper a deployment puts
//! around an authority. The test prints how many (query, handler) pairs it
//! compared.

use std::sync::Arc;

use parking_lot::Mutex;
use sdoh_dns_server::{
    parse_zone, Authority, Catalog, ClientExchanger, PoisonConfig, PoisonMode, PoisonedResolver,
    QueryHandler, ZoneLookup,
};
use sdoh_dns_wire::{Edns, Message, MessageBuilder, Name, Opcode, Question, Rcode, RrType};
use sdoh_netsim::{SimAddr, SimNet};

/// Longest CNAME chain the authority follows, as it documents.
const MAX_CNAME_CHAIN: usize = 8;

fn catalog() -> Catalog {
    let origin: Name = "ntpns.org".parse().unwrap();
    let zone = parse_zone(
        &origin,
        r#"
$TTL 300
@        IN SOA ns1 hostmaster 1 7200 900 1209600 300
@        IN NS  c.ntpns.org.
c        IN A   198.51.100.3
pool     IN A   203.0.113.1
pool     IN A   203.0.113.2
pool     IN A   203.0.113.3
pool     IN TXT "pool of three"
Mixed    IN A   203.0.113.9
alias    IN CNAME pool
alias2   IN CNAME alias
extern   IN CNAME www.example.com.
loop1    IN CNAME loop2
loop2    IN CNAME loop1
*.wild   IN A   192.0.2.99
*.wild   IN A   192.0.2.98
walias   IN CNAME x.wild
child    IN NS  ns.child.ntpns.org.
child    IN NS  ns2.elsewhere.example.
ns.child IN A   198.51.100.99
ns.child IN AAAA 2001:db8::99
calias   IN CNAME host.child
x.deep   IN A   198.51.100.7
poisoned IN A   203.0.113.50
"#,
    )
    .unwrap();
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
