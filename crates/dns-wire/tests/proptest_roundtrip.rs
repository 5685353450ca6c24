//! Property-based tests: arbitrary DNS messages survive an encode/decode
//! round trip, and the decoder never panics on arbitrary input.
//!
//! `view_oracle_agrees_with_decode` holds [`MessageView`] against
//! [`Message::decode`] and against the decoder `Message::decode` was before
//! the view — each section read in turn with the public readers — over the
//! round-trip corpus, seeded mutations of it and hand-built hostile
//! packets — the walk that collects addresses as it validates, the one-step
//! least TTL and the echo check against a query's own octets included —
//! and [`QueryView`], the query a server reads where it lies, against the
//! same decode: what it lends (header, first question spelled as asked,
//! EDNS payload size) and every response written from it (an error, an
//! address answer, a template's render) byte for byte what the decoded
//! message builds and encodes. It prints how many inputs it checked.

use std::net::{Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

mod common {
    pub mod mutate;
}
use common::mutate::{self, pick};

use sdoh_dns_wire::{
    addresses_of_type, base64url, AnswerTemplate, Edns, EdnsOption, Header, Message,
    MessageBuilder, MessageView, Mx, Name, Opcode, QueryView, QueryWire, Question, RData, Rcode,
    Record, RrClass, RrType, Soa, Srv, WireError, WireReader,
};

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9][a-zA-Z0-9-]{0,20}").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..5).prop_map(|labels| {
        if labels.is_empty() {
            Name::root()
        } else {
            Name::from_labels(labels.iter().map(|l| l.as_bytes())).unwrap()
        }
    })
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..4)
            .prop_map(RData::Txt),
        (arb_name(), arb_name(), any::<u32>())
            .prop_map(|(m, r, s)| { RData::Soa(Soa::new(m, r, s)) }),
        proptest::collection::vec(any::<u8>(), 0..48)
            .prop_map(|data| RData::Unknown { rtype: 4242, data }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, rdata)| Record {
        name,
        rclass: sdoh_dns_wire::RrClass::In,
        ttl,
        rdata,
    })
}

fn arb_rrtype() -> impl Strategy<Value = RrType> {
    prop_oneof![
        Just(RrType::A),
        Just(RrType::Aaaa),
        Just(RrType::Ns),
        Just(RrType::Txt),
        Just(RrType::Any),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        arb_name(),
        arb_rrtype(),
        proptest::collection::vec(arb_record(), 0..6),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(
            |(id, response, rd, qname, qtype, answers, authorities, additionals)| Message {
                header: Header {
                    id,
                    response,
                    opcode: Opcode::Query,
                    recursion_desired: rd,
                    rcode: Rcode::NoError,
                    ..Header::default()
                },
                questions: vec![Question::new(qname, qtype)],
                answers,
                authorities,
                additionals,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let encoded = msg.encode().unwrap();
        let decoded = Message::decode(&encoded).unwrap();
        let mut normalized = msg.clone();
        normalized.normalize_counts();
        prop_assert_eq!(decoded, normalized);
    }

    #[test]
    fn reencode_is_stable(msg in arb_message()) {
        let once = msg.encode().unwrap();
        let decoded = Message::decode(&once).unwrap();
        let twice = decoded.encode().unwrap();
        let decoded2 = Message::decode(&twice).unwrap();
        prop_assert_eq!(decoded, decoded2);
    }

    #[test]
    fn decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&data);
    }

    #[test]
    fn name_parse_display_roundtrip(labels in proptest::collection::vec(arb_label(), 1..5)) {
        let text = labels.join(".");
        let name: Name = text.parse().unwrap();
        let redisplayed = name.to_string();
        let reparsed: Name = redisplayed.parse().unwrap();
        prop_assert_eq!(name, reparsed);
    }

    #[test]
    fn base64url_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let encoded = base64url::encode(&data);
        prop_assert!(!encoded.contains('='));
        prop_assert_eq!(base64url::decode(&encoded).unwrap(), data);
    }

    #[test]
    fn base64url_decode_never_panics(s in "[ -~]{0,64}") {
        let _ = base64url::decode(&s);
    }

    #[test]
    fn answer_addresses_counts_address_records(msg in arb_message()) {
        let expected = msg
            .answers
            .iter()
            .filter(|r| matches!(r.rdata, RData::A(_) | RData::Aaaa(_)))
            .count();
        prop_assert_eq!(msg.answer_addresses().len(), expected);
    }
}

/// What `Message::decode` did before the view: each section read in turn,
/// then the trailing-octet check.
fn sequential_decode(data: &[u8]) -> Result<Message, WireError> {
    let mut r = WireReader::new(data);
    let header = Header::decode(&mut r)?;
    let mut message = Message {
        header,
        ..Message::default()
    };
    for _ in 0..header.question_count {
        message.questions.push(Question::decode(&mut r)?);
    }
    for (count, section) in [
        (header.answer_count, &mut message.answers),
        (header.authority_count, &mut message.authorities),
        (header.additional_count, &mut message.additionals),
    ] {
        for _ in 0..count {
            section.push(Record::decode(&mut r)?);
        }
    }
    if !r.is_at_end() {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(message)
}

/// A header with the given section counts, then `body`.
fn packet(counts: [u16; 4], body: &[u8]) -> Vec<u8> {
    let mut out = vec![0x12, 0x34, 0x81, 0x80];
    for count in counts {
        out.extend_from_slice(&count.to_be_bytes());
    }
    out.extend_from_slice(body);
    out
}

/// A name of `wire_len` octets on the wire: 63-octet labels, a shorter last
/// one making up the rest, and the terminating zero.
fn long_name(wire_len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut left = wire_len - 1;
    while left > 0 {
        let label = left.min(64) - 1;
        out.push(label as u8);
        out.extend(std::iter::repeat_n(b'a', label));
        left -= label + 1;
    }
    out.push(0);
    out
}

/// Hostile packets the corpus would take long to stumble on.
fn hostile_packets() -> Vec<Vec<u8>> {
    let a_record = |rdlength: u16, rdata: &[u8]| {
        let mut body = vec![0xC0, 0x0C, 0, 1, 0, 1, 0, 0, 0, 60];
        body.extend_from_slice(&rdlength.to_be_bytes());
        body.extend_from_slice(rdata);
        body
    };
    let question = [1, b'q', 0, 0, 1, 0, 1];
    let with_question =
        |counts: [u16; 4], records: &[u8]| packet(counts, &[&question[..], records].concat());
    let mut packets = vec![
        Vec::new(),
        vec![0; 11],
        packet([0; 4], &[]),
        // A pointer back to the label before it: a loop.
        packet([1, 0, 0, 0], &[1, b'a', 0xC0, 12, 0, 1, 0, 1]),
        // A pointer to itself and one forward.
        packet([1, 0, 0, 0], &[0xC0, 12, 0, 1, 0, 1]),
        packet([1, 0, 0, 0], &[0xC0, 20, 0, 1, 0, 1, 0, 0]),
        // A pointer cut short, and a label type this decoder rejects.
        packet([1, 0, 0, 0], &[1, b'a', 0xC0]),
        packet([1, 0, 0, 0], &[0x41, b'a', 0, 0, 1, 0, 1]),
        // Names of 255 (the most) and 256 octets.
        packet([1, 0, 0, 0], &[long_name(255), vec![0, 1, 0, 1]].concat()),
        packet([1, 0, 0, 0], &[long_name(256), vec![0, 1, 0, 1]].concat()),
        // 256 octets only once a pointer is followed.
        packet(
            [2, 0, 0, 0],
            &[
                long_name(250),
                vec![
                    0, 1, 0, 1, 2, b'x', b'y', 3, b'z', b'z', b'z', 0xC0, 12, 0, 1, 0, 1,
                ],
            ]
            .concat(),
        ),
        // Address rdata a little short or long, with and without octets
        // after it.
        with_question([1, 1, 0, 0], &a_record(4, &[192, 0, 2, 1])),
        with_question([1, 1, 0, 0], &a_record(3, &[192, 0, 2])),
        with_question(
            [1, 2, 0, 0],
            &[a_record(3, &[192, 0, 2]), a_record(4, &[1, 2, 3, 4])].concat(),
        ),
        with_question([1, 1, 0, 0], &a_record(5, &[192, 0, 2, 1, 9])),
        with_question([1, 1, 0, 0], &a_record(9, &[192, 0, 2, 1])),
        // Octets after the last section; sections the counts overstate.
        with_question(
            [1, 1, 0, 0],
            &[a_record(4, &[192, 0, 2, 1]), vec![0]].concat(),
        ),
        with_question([1, 3, 0, 0], &a_record(4, &[192, 0, 2, 1])),
        // A TXT string running past its RDLENGTH, an OPT option cut short.
        with_question(
            [1, 1, 0, 0],
            &[0xC0, 0x0C, 0, 16, 0, 1, 0, 0, 0, 60, 0, 3, 5, b'a', b'b'],
        ),
        with_question(
            [1, 0, 0, 1],
            &[0, 0, 41, 4, 0xD0, 0, 0, 0, 0, 0, 3, 0, 10, 0],
        ),
    ];
    // Records of every decoded type, compressed against each other.
    let query = Message::query(9, "mail.example".parse().unwrap(), RrType::Mx);
    let mut typed = Message::response_to(&query);
    typed
        .add_answer(Record::new(
            "mail.example".parse().unwrap(),
            60,
            RData::Mx(Mx::new(10, "mx.mail.example".parse().unwrap())),
        ))
        .add_answer(Record::new(
            "_dns._udp.example".parse().unwrap(),
            60,
            RData::Srv(Srv::new(1, 2, 53, "ns.example".parse().unwrap())),
        ))
        .add_answer(Record::address(
            "ns.example".parse().unwrap(),
            60,
            "2001:db8::53".parse().unwrap(),
        ));
    typed.set_edns(Edns {
        options: vec![
            EdnsOption::padding(6),
            EdnsOption::new(EdnsOption::COOKIE, vec![7; 8]),
        ],
        ..Edns::with_payload_size(1232)
    });
    packets.push(typed.encode().unwrap());
    packets
}

/// One seeded mutation of a well-formed message: a bit, an octet, a length
/// field, a pointer field, a cut, octets appended or a stretch repeated.
fn mutate(wire: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut out = wire.to_vec();
    match rng.below(7) {
        0 => mutate::flip_bit(&mut out, rng),
        1 => mutate::replace_octet(&mut out, rng),
        2 => {
            // A section count or an RDLENGTH.
            let view = MessageView::parse(wire).unwrap();
            let mut fields: Vec<usize> = vec![4, 6, 8, 10];
            fields.extend(
                view.answers()
                    .chain(view.authorities())
                    .chain(view.additionals())
                    .map(|record| record.rdata.as_ptr() as usize - wire.as_ptr() as usize - 2),
            );
            let at = fields[pick(rng, fields.len())];
            mutate::move_field(&mut out, at, 2, rng);
        }
        3 => {
            // A compression pointer aimed anywhere, or one planted.
            let pointers: Vec<usize> = (12..out.len().saturating_sub(1))
                .filter(|&at| out[at] & 0xC0 == 0xC0)
                .collect();
            let at = if pointers.is_empty() {
                12 + pick(rng, out.len().saturating_sub(13).max(1))
            } else {
                pointers[pick(rng, pointers.len())]
            };
            let target = pick(rng, out.len() + 4) as u16;
            let field = (0xC000 | target).to_be_bytes();
            for (offset, octet) in field.into_iter().enumerate() {
                match out.get_mut(at + offset) {
                    Some(slot) => *slot = octet,
                    None => out.push(octet),
                }
            }
        }
        4 => mutate::cut(&mut out, rng),
        5 => mutate::append(&mut out, rng),
        _ => mutate::repeat(&mut out, rng),
    }
    out
}

#[test]
fn view_oracle_agrees_with_decode() {
    let rtypes = [
        RrType::A,
        RrType::Aaaa,
        RrType::Ns,
        RrType::Cname,
        RrType::Mx,
        RrType::Txt,
        RrType::Srv,
        RrType::Opt,
        RrType::Any,
        RrType::Unknown(4242),
    ];
    let mut rng = TestRng::deterministic("view_oracle_agrees_with_decode");
    let mut inputs = hostile_packets();
    for _ in 0..600 {
        let wire = arb_message().new_value(&mut rng).encode().unwrap();
        for _ in 0..8 {
            inputs.push(mutate(&wire, &mut rng));
        }
        inputs.push(wire);
    }

    let mut accepted = 0;
    for input in &inputs {
        let reference = sequential_decode(input);
        let decoded = Message::decode(input);
        let view = MessageView::parse(input);
        assert_eq!(decoded, reference, "{input:02x?}");
        // The walk that collects addresses as it validates accepts and
        // rejects what the plain walk does, and collects what decode holds.
        for rtype in rtypes {
            let mut addresses = Vec::new();
            let collected = MessageView::parse_addresses(input, rtype, &mut addresses);
            match (&collected, &decoded) {
                (Ok(_), Ok(message)) => {
                    assert_eq!(addresses, addresses_of_type(message, rtype), "{input:02x?}");
                }
                (Err(rejected), Err(error)) => assert_eq!(rejected, error, "{input:02x?}"),
                _ => panic!("collecting {collected:?} but decode {decoded:?} on {input:02x?}"),
            }
        }
        match (&QueryView::parse(input), &decoded) {
            (Err(rejected), Err(error)) => assert_eq!(rejected, error, "{input:02x?}"),
            (Ok(query), Ok(message)) => query_view_agrees(query, message, input),
            (query, _) => panic!("query view {query:?} but decode {decoded:?} on {input:02x?}"),
        }
        match (&view, &decoded) {
            (Err(rejected), Err(error)) => assert_eq!(rejected, error, "{input:02x?}"),
            (Ok(view), Ok(message)) => {
                accepted += 1;
                assert_eq!(view.to_message().as_ref(), Ok(message));
                assert_eq!(view.header(), &message.header);
                // Stepping over what was validated finds the same records.
                assert_eq!(
                    MessageView::least_answer_ttl(input),
                    message.answers.iter().map(|record| record.ttl).min()
                );
                let records = view.answers().chain(view.authorities());
                assert_eq!(
                    records.chain(view.additionals()).count(),
                    message.answers.len() + message.authorities.len() + message.additionals.len()
                );
                // A client's own query octets, held against the echo: the
                // first question's, and one asking another type.
                if let Some(question) = message.question() {
                    let query = QueryWire::new(7, &question.name, question.rtype).unwrap();
                    let same = question.rclass == RrClass::In;
                    assert_eq!(view.echoes(&query), same, "{input:02x?}");
                    let other = QueryWire::new(7, &question.name, RrType::Unknown(4243)).unwrap();
                    assert!(!view.echoes(&other), "{input:02x?}");
                }
                for (lent, owned) in [
                    (view.answers(), &message.answers),
                    (view.authorities(), &message.authorities),
                    (view.additionals(), &message.additionals),
                ] {
                    let lent: Vec<_> = lent
                        .map(|r| (r.rtype, r.rclass, r.ttl, r.ip_addr()))
                        .collect();
                    let owned: Vec<_> = owned
                        .iter()
                        .map(|r| (r.rtype(), r.rclass, r.ttl, r.ip_addr()))
                        .collect();
                    assert_eq!(lent, owned, "{input:02x?}");
                }
            }
            _ => panic!("view {view:?} but decode {decoded:?} on {input:02x?}"),
        }
    }
    println!(
        "view oracle: {} inputs ({accepted} accepted, {} rejected), view, query view, decode \
         and the sequential reference agree on every one",
        inputs.len(),
        inputs.len() - accepted
    );
    assert!(accepted > inputs.len() / 10 && accepted < inputs.len());
}

/// What a server reads from `query` is what it reads from the decoded
/// `message`, and what it writes from the view is what it builds from the
/// message and encodes.
fn query_view_agrees(query: &QueryView<'_>, message: &Message, input: &[u8]) {
    assert_eq!(query.header(), &message.header, "{input:02x?}");
    match (query.question(), message.question()) {
        (Some(lent), Some(owned)) => {
            assert!(
                lent.name.to_name().eq_case_exact(&owned.name),
                "{input:02x?}"
            );
            assert_eq!((lent.rtype, lent.rclass), (owned.rtype, owned.rclass));
        }
        (None, None) => {}
        (lent, owned) => panic!("question {lent:?} but decoded {owned:?} on {input:02x?}"),
    }
    let advertised = message.edns().map(|edns| edns.payload_size);
    assert_eq!(query.payload_size(), advertised, "{input:02x?}");

    let mut out = vec![0xEE];
    let mut written = |header: Header, addresses: &[std::net::IpAddr]| {
        query
            .write_response(header, 60, addresses.iter().copied(), &mut out)
            .map(|()| out.clone())
    };
    for rcode in [Rcode::ServFail, Rcode::FormErr, Rcode::NotImp] {
        let header = Header {
            rcode,
            ..Header::response_to(query.header())
        };
        let owned = Message::error_response(message, rcode).encode();
        assert_eq!(written(header, &[]), owned, "{rcode} on {input:02x?}");
    }
    let truncated = Header {
        truncated: true,
        ..Header::response_to(query.header())
    };
    let mut tc = Message::response_to(message);
    tc.header.truncated = true;
    assert_eq!(written(truncated, &[]), tc.encode(), "{input:02x?}");

    let addresses = [
        std::net::IpAddr::from([203, 0, 113, 1]),
        std::net::IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, 1]),
        std::net::IpAddr::from([203, 0, 113, 2]),
    ];
    let answered = Header {
        recursion_available: true,
        ..Header::response_to(query.header())
    };
    let mut builder = MessageBuilder::response_to(message).recursion_available(true);
    for address in addresses {
        builder = builder.answer_address(60, address);
    }
    let built = builder.build();
    assert_eq!(
        written(answered, &addresses),
        built.encode(),
        "{input:02x?}"
    );

    // A template renders what it can reproduce, and that is the answer of
    // its family built and encoded.
    for rtype in [RrType::A, RrType::Aaaa] {
        let template = AnswerTemplate::for_addresses(rtype, addresses);
        let mut rendered = Vec::new();
        if template.render(query, 60, &mut rendered) {
            let mut builder = MessageBuilder::response_to(message).recursion_available(true);
            for address in addresses {
                if address.is_ipv4() == (rtype == RrType::A) {
                    builder = builder.answer_address(60, address);
                }
            }
            assert_eq!(Ok(rendered), builder.build().encode(), "{input:02x?}");
        } else {
            assert!(rendered.is_empty());
            assert!(
                message.questions.len() != 1 || message.questions[0].name.is_root(),
                "a one-question query the template refused: {input:02x?}"
            );
        }
    }
}
