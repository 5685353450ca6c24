//! The h2 oracle: the lent walk both DoH ends read through
//! (`ServerConnection::serve`, `ClientConnection::response`) held against
//! the owned `receive` field for field — over generated requests and
//! responses, framed plainly and dressed (padded and prioritised frames,
//! bodies in several DATA frames, control frames between), seeded bit,
//! octet, length-field and stream-field mutations of them, and the owned
//! receive fed the same octets in pieces — and the octets each DoH end
//! writes held against what `send_request` / `send_response` write for the
//! same message. Messages carry a `content-length` that is their body's,
//! one that is not, or none, so the two walks are held together on RFC 7540
//! §8.1.2.6's rule too. Run with `--nocapture`, each half prints how many
//! cases it checked.

#[cfg(test)]
#[path = "../../../dns-wire/tests/common/mutate.rs"]
mod mutate;

#[cfg(test)]
mod tests {
    use std::net::IpAddr;
    use std::time::Duration;

    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use sdoh_dns_server::{Authority, Catalog, Exchanger, Zone};
    use sdoh_dns_wire::{base64url, Message, Name, RrType};
    use sdoh_netsim::{ChannelKind, NetError, NetResult, SimAddr, SimInstant};

    use super::mutate::{self, pick};
    use crate::h2::connection::{Body, RequestHead, ResponseHead};
    use crate::h2::frame::{self, flags, FrameType};
    use crate::h2::{ClientConnection, Frame, H2Error, ServerConnection, CONNECTION_PREFACE};
    use crate::http::{Request, Response, StatusCode};
    use crate::secure::{self, SecureEnvelope};
    use crate::{DohClient, DohMethod, DohQuestion, DohServerService, ResolverInfo};
    use crate::{DNS_MESSAGE_CONTENT_TYPE, DOH_PATH};

    /// A message as both walks can tell it: its stream, its pseudo-header
    /// values, its regular fields (names lowercased, as the owned copy keeps
    /// them) and its body.
    #[derive(Debug, PartialEq)]
    struct Seen {
        stream_id: u32,
        pseudo: Vec<String>,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
    }

    fn fields<'a>(headers: impl Iterator<Item = (&'a str, &'a str)>) -> Vec<(String, String)> {
        headers
            .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
            .collect()
    }

    fn owned_request((stream_id, request): &(u32, Request)) -> Seen {
        Seen {
            stream_id: *stream_id,
            pseudo: vec![
                request.method.as_str().into(),
                request.path.clone(),
                request.authority.clone(),
                request.scheme.to_string(),
            ],
            headers: fields(request.headers.iter()),
            body: request.body.clone(),
        }
    }

    fn lent_request(stream_id: u32, head: &RequestHead<'_>, body: &[u8]) -> Seen {
        Seen {
            stream_id,
            pseudo: vec![
                head.method.as_str().into(),
                head.path.into(),
                head.authority.into(),
                head.scheme.unwrap_or("https").into(),
            ],
            headers: fields(head.headers()),
            body: body.to_vec(),
        }
    }

    fn owned_response((stream_id, response): &(u32, Response)) -> Seen {
        Seen {
            stream_id: *stream_id,
            pseudo: vec![response.status.as_u16().to_string()],
            headers: fields(response.headers.iter()),
            body: response.body.clone(),
        }
    }

    fn lent_response(stream_id: u32, (head, body): &(ResponseHead<'_>, Body<'_>)) -> Seen {
        Seen {
            stream_id,
            pseudo: vec![head.status.as_u16().to_string()],
            headers: fields(head.headers()),
            body: body.octets().to_vec(),
        }
    }

    fn text(pattern: &str, rng: &mut TestRng) -> String {
        proptest::string::string_regex(pattern)
            .unwrap()
            .new_value(rng)
    }

    fn octets(most: usize, rng: &mut TestRng) -> Vec<u8> {
        proptest::collection::vec(any::<u8>(), 0..most).new_value(rng)
    }

    /// A few regular fields, names lowercase as HTTP/2 sends them.
    fn extra_fields(rng: &mut TestRng) -> Vec<(String, String)> {
        (0..rng.below(4))
            .map(|_| (text("[a-z][a-z0-9-]{0,12}", rng), text("[ -~]{0,24}", rng)))
            .collect()
    }

    fn arb_request(rng: &mut TestRng) -> Request {
        let authority = text("[a-z0-9.-]{0,20}", rng);
        let mut request = if rng.below(2) == 0 {
            Request::get(
                authority,
                format!("/dns-query?dns={}", text("[A-Za-z0-9_-]{0,40}", rng)),
            )
        } else {
            let body = octets(300, rng);
            let length = content_length(body.len(), rng);
            let request = Request::post(authority, "/dns-query", body)
                .with_header("content-type", DNS_MESSAGE_CONTENT_TYPE);
            match length {
                Some(length) => request.with_header("content-length", &length),
                None => request,
            }
        };
        for (name, value) in extra_fields(rng) {
            request = request.with_header(&name, &value);
        }
        request
    }

    /// A `content-length` for a body of `len` octets, or none: mostly the
    /// truth, sometimes one off either way or not a number.
    fn content_length(len: usize, rng: &mut TestRng) -> Option<String> {
        match rng.below(8) {
            0 | 1 => None,
            2 => Some((len + 1).to_string()),
            3 => Some(len.saturating_sub(1).to_string()),
            4 => Some(format!("{len}x")),
            _ => Some(len.to_string()),
        }
    }

    fn arb_response(rng: &mut TestRng) -> Response {
        let status = [200, 204, 301, 404, 418, 500][pick(rng, 6)];
        let mut response = Response::new(StatusCode(status));
        response.body = octets(300, rng);
        if let Some(length) = content_length(response.body.len(), rng) {
            response = response.with_header("content-length", &length);
        }
        for (name, value) in extra_fields(rng) {
            response = response.with_header(&name, &value);
        }
        response
    }

    /// Writes one frame, its payload behind an optional pad length and
    /// priority fields and before the padding, and notes where it starts.
    #[allow(clippy::too_many_arguments)]
    fn put_frame(
        out: &mut Vec<u8>,
        starts: &mut Vec<usize>,
        frame_type: FrameType,
        frame_flags: u8,
        stream_id: u32,
        padding: Option<u8>,
        prioritised: bool,
        payload: &[u8],
    ) {
        let mut lead = Vec::new();
        let mut frame_flags = frame_flags;
        if let Some(pad) = padding {
            frame_flags |= flags::PADDED;
            lead.push(pad);
        }
        if prioritised {
            frame_flags |= flags::PRIORITY;
            lead.extend_from_slice(&[0x80, 0, 0, 3, 15]);
        }
        let trail = vec![0; usize::from(padding.unwrap_or(0))];
        starts.push(out.len());
        let length = lead.len() + payload.len() + trail.len();
        frame::put_header(out, length, frame_type, frame_flags, stream_id);
        out.extend_from_slice(&lead);
        out.extend_from_slice(payload);
        out.extend_from_slice(&trail);
    }

    /// The frames of `plain` (behind its first `preface` octets) written
    /// again as a deployed peer may write them: HEADERS padded and
    /// prioritised or not, a body in one to three DATA frames, each padded
    /// or not, and now and then a control frame between. Returns the octets
    /// and where each frame starts.
    fn dress(plain: &[u8], preface: usize, rng: &mut TestRng) -> (Vec<u8>, Vec<usize>) {
        let mut out = plain[..preface].to_vec();
        let mut starts = Vec::new();
        let mut rest = &plain[preface..];
        let padding = |rng: &mut TestRng| (rng.below(2) == 0).then(|| rng.below(8) as u8);
        while let Some((frame, used)) = Frame::decode(rest).unwrap() {
            rest = &rest[used..];
            if rng.below(6) == 0 {
                starts.push(out.len());
                match rng.below(3) {
                    0 => Frame::Ping {
                        ack: false,
                        data: [1; 8],
                    },
                    1 => Frame::WindowUpdate {
                        stream_id: 0,
                        increment: 1000,
                    },
                    _ => Frame::Unknown {
                        frame_type: 0xFA,
                        stream_id: 1,
                        payload: vec![7; 3],
                    },
                }
                .encode(&mut out);
            }
            match frame {
                Frame::Headers {
                    stream_id,
                    end_stream,
                    block,
                    ..
                } => {
                    let end = if end_stream { flags::END_STREAM } else { 0 };
                    let pad = padding(rng);
                    let prioritised = rng.below(2) == 0;
                    put_frame(
                        &mut out,
                        &mut starts,
                        FrameType::Headers,
                        flags::END_HEADERS | end,
                        stream_id,
                        pad,
                        prioritised,
                        &block,
                    );
                }
                Frame::Data {
                    stream_id,
                    end_stream,
                    data,
                } => {
                    let mut cuts: Vec<usize> = (0..rng.below(3))
                        .map(|_| pick(rng, data.len() + 1))
                        .collect();
                    cuts.sort_unstable();
                    let ends: Vec<usize> = cuts.iter().copied().chain([data.len()]).collect();
                    let mut from = 0;
                    for (i, &to) in ends.iter().enumerate() {
                        let last = i + 1 == ends.len();
                        let end = if last && end_stream {
                            flags::END_STREAM
                        } else {
                            0
                        };
                        let pad = padding(rng);
                        put_frame(
                            &mut out,
                            &mut starts,
                            FrameType::Data,
                            end,
                            stream_id,
                            pad,
                            false,
                            &data[from..to],
                        );
                        from = to;
                    }
                }
                other => {
                    starts.push(out.len());
                    other.encode(&mut out);
                }
            }
        }
        (out, starts)
    }

    /// One seeded mutation: a bit, an octet, a frame's length or stream
    /// field, a cut, octets appended or a stretch repeated.
    fn mutated(input: &[u8], starts: &[usize], rng: &mut TestRng) -> Vec<u8> {
        let mut out = input.to_vec();
        match rng.below(6) {
            0 => mutate::flip_bit(&mut out, rng),
            1 => mutate::replace_octet(&mut out, rng),
            2 if !starts.is_empty() => {
                let at = starts[pick(rng, starts.len())];
                if rng.below(2) == 0 {
                    mutate::move_field(&mut out, at, 3, rng);
                } else {
                    mutate::move_field(&mut out, at + 5, 4, rng);
                }
            }
            3 => mutate::cut(&mut out, rng),
            4 => mutate::append(&mut out, rng),
            _ => mutate::repeat(&mut out, rng),
        }
        out
    }

    /// `input` cut into pieces at one to three seeded offsets, or into
    /// single octets.
    fn pieces<'a>(input: &'a [u8], rng: &mut TestRng) -> Vec<&'a [u8]> {
        if rng.below(8) == 0 {
            return input.chunks(1).collect();
        }
        let mut cuts: Vec<usize> = (0..=rng.below(3))
            .map(|_| pick(rng, input.len() + 1))
            .collect();
        cuts.sort_unstable();
        let starts = std::iter::once(0).chain(cuts.iter().copied());
        let ends = cuts.iter().copied().chain([input.len()]);
        starts
            .zip(ends)
            .map(|(from, to)| &input[from..to])
            .collect()
    }

    /// The owned receive over `pieces`: what completed until the first
    /// error, and that error.
    fn in_pieces<M>(
        pieces: &[&[u8]],
        mut receive: impl FnMut(&[u8]) -> Result<Vec<M>, H2Error>,
    ) -> (Vec<M>, Option<H2Error>) {
        let mut completed = Vec::new();
        for piece in pieces {
            match receive(piece) {
                Ok(messages) => completed.extend(messages),
                Err(error) => return (completed, Some(error)),
            }
        }
        (completed, None)
    }

    /// Holds the lent walk of `input` at a server against the owned one,
    /// whole and in pieces; returns whether the octets were accepted.
    fn check_requests(input: &[u8], rng: &mut TestRng) -> bool {
        let owned = ServerConnection::new().receive(input);
        let mut lent = Vec::new();
        let walked = ServerConnection::new().serve(input, |_, stream_id, head, body| {
            lent.push(lent_request(stream_id, head, body));
        });
        let mut server = ServerConnection::new();
        let (completed, failed) = in_pieces(&pieces(input, rng), |piece| server.receive(piece));
        match (&owned, walked) {
            (Ok(requests), Ok(())) => {
                let owned: Vec<Seen> = requests.iter().map(owned_request).collect();
                assert_eq!(owned, lent, "{input:02x?}");
                assert_eq!(failed, None, "{input:02x?}");
                assert_eq!(&completed, requests, "{input:02x?}");
                true
            }
            (Err(error), Err(walk_error)) => {
                assert_eq!(*error, walk_error, "{input:02x?}");
                assert_eq!(failed.as_ref(), Some(error), "{input:02x?}");
                false
            }
            (owned, walked) => panic!("owned {owned:?} but lent {walked:?} on {input:02x?}"),
        }
    }

    /// A client that sent `requests` requests, on streams 1, 3, ...
    fn client_with(requests: usize) -> ClientConnection {
        let mut client = ClientConnection::new();
        for _ in 0..requests {
            client.send_request(&Request::get("dns.example", "/dns-query"));
        }
        client
    }

    /// Holds the lent walk of `input` at a client with `streams` requests
    /// out against the owned one, whole and in pieces; returns whether the
    /// octets were accepted.
    fn check_responses(input: &[u8], streams: usize, rng: &mut TestRng) -> bool {
        let owned = client_with(streams).receive(input);
        let mut client = client_with(streams);
        let (completed, failed) = in_pieces(&pieces(input, rng), |piece| client.receive(piece));
        for stream_id in (1..).step_by(2).take(streams) {
            let lent = client_with(streams).response(input, stream_id);
            match (&owned, lent) {
                (Ok(responses), Ok(lent)) => {
                    let owned = responses
                        .iter()
                        .find(|(id, _)| *id == stream_id)
                        .map(owned_response);
                    let lent = lent.map(|response| lent_response(stream_id, &response));
                    assert_eq!(owned, lent, "{input:02x?}");
                }
                (Err(error), Err(lent_error)) => assert_eq!(*error, lent_error, "{input:02x?}"),
                (owned, lent) => panic!("owned {owned:?} but lent {lent:?} on {input:02x?}"),
            }
        }
        match &owned {
            Ok(responses) => {
                assert_eq!(failed, None, "{input:02x?}");
                assert_eq!(&completed, responses, "{input:02x?}");
                true
            }
            Err(error) => {
                assert_eq!(failed.as_ref(), Some(error), "{input:02x?}");
                false
            }
        }
    }

    #[test]
    fn h2_oracle_lent_walk_agrees_with_receive() {
        let mut rng = TestRng::deterministic("h2_oracle_lent_walk_agrees_with_receive");
        let (mut inputs, mut accepted) = (0, 0);
        for _ in 0..300 {
            // Requests on streams 1, 3, ... of one connection.
            let mut client = ClientConnection::new();
            for _ in 0..=rng.below(3) {
                client.send_request(&arb_request(&mut rng));
            }
            let plain = client.take_output();
            let (dressed, starts) = dress(&plain, CONNECTION_PREFACE.len(), &mut rng);
            let mut cases = vec![plain, dressed.clone()];
            cases.extend((0..8).map(|_| mutated(&dressed, &starts, &mut rng)));
            for input in &cases {
                inputs += 1;
                accepted += usize::from(check_requests(input, &mut rng));
            }

            // Responses to them, in any order, some not sent.
            let streams = 1 + pick(&mut rng, 3);
            let mut server = ServerConnection::new();
            let mut ids: Vec<u32> = (1..).step_by(2).take(streams).collect();
            ids.rotate_left(pick(&mut rng, streams));
            ids.truncate(1 + pick(&mut rng, streams));
            for stream_id in ids {
                server.send_response(stream_id, &arb_response(&mut rng));
            }
            let plain = server.take_output();
            let (dressed, starts) = dress(&plain, 0, &mut rng);
            let mut cases = vec![plain, dressed.clone()];
            cases.extend((0..8).map(|_| mutated(&dressed, &starts, &mut rng)));
            for input in &cases {
                inputs += 1;
                accepted += usize::from(check_responses(input, streams, &mut rng));
            }
        }
        println!(
            "h2 oracle: {inputs} inputs ({accepted} accepted, {} rejected), the lent walk and \
             the owned receive, whole and in pieces, agree on every one",
            inputs - accepted
        );
        assert!(accepted > inputs / 4 && accepted < inputs);
    }

    /// The authority answers from its zone and never goes upstream.
    struct NoUpstream;

    impl Exchanger for NoUpstream {
        fn exchange(
            &mut self,
            dst: SimAddr,
            _: ChannelKind,
            _: &[u8],
            _: Duration,
        ) -> NetResult<Vec<u8>> {
            Err(NetError::Unreachable(dst))
        }

        fn next_id(&mut self) -> u16 {
            0
        }

        fn now(&self) -> SimInstant {
            SimInstant::EPOCH
        }
    }

    /// The plaintext of a sealed payload.
    fn opened(info: &ResolverInfo, payload: &[u8], seq: u64) -> Vec<u8> {
        let (_, record) = SecureEnvelope::split(payload).unwrap();
        secure::open(&info.key, seq, record).unwrap()
    }

    fn sealed(info: &ResolverInfo, plain: &[u8]) -> Vec<u8> {
        let mut payload = SecureEnvelope::begin(&info.name);
        let record_at = payload.len();
        payload.extend_from_slice(plain);
        secure::seal_in_place(&info.key, secure::SEQ_CLIENT, &mut payload, record_at);
        payload
    }

    #[test]
    fn h2_oracle_doh_ends_write_what_send_request_and_send_response_write() {
        let mut zone = Zone::new("ntpns.org".parse().unwrap());
        for host in 1..=8 {
            zone.add_address(
                "pool.ntpns.org".parse().unwrap(),
                IpAddr::from([203, 0, 113, host]),
            );
        }
        zone.add_address("a.ntpns.org".parse().unwrap(), IpAddr::from([192, 0, 2, 1]));
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        let authority = Authority::new(catalog.clone());
        let info = ResolverInfo::new("dns.example", SimAddr::v4(192, 0, 2, 1, 443), 7);
        let mut service = DohServerService::new(info.clone(), Authority::new(catalog));
        let mut messages = 0;

        // Every answer outcome, and names whose queries leave 0, 1 and 2
        // octets over a base64url group.
        let names = [
            "pool.ntpns.org",
            "a.ntpns.org",
            "ab.ntpns.org",
            "abc.ntpns.org",
            "missing.ntpns.org",
            "outside.example",
        ];
        for name in names {
            let name: Name = name.parse().unwrap();
            for (method, id) in [(DohMethod::Get, 0), (DohMethod::Post, 0x1234)] {
                let client = DohClient::new(info.clone()).method(method);
                let question = DohQuestion::new(&name, RrType::A).unwrap();
                let transmit = client.begin_query(id, &question);
                let query = Message::query(id, name.clone(), RrType::A)
                    .encode()
                    .unwrap();
                let request = match method {
                    DohMethod::Get => Request::get(
                        info.name.clone(),
                        format!("{DOH_PATH}?dns={}", base64url::encode(&query)),
                    )
                    .with_header("accept", DNS_MESSAGE_CONTENT_TYPE),
                    DohMethod::Post => Request::post(info.name.clone(), DOH_PATH, query.to_vec())
                        .with_header("accept", DNS_MESSAGE_CONTENT_TYPE)
                        .with_header("content-type", DNS_MESSAGE_CONTENT_TYPE),
                };
                let mut owned = ClientConnection::new();
                owned.send_request(&request);
                let sent = opened(&info, &transmit.payload, secure::SEQ_CLIENT);
                assert_eq!(sent, owned.take_output(), "{name} {method:?}");

                let mut reply = service
                    .serve_payload(&mut NoUpstream, ChannelKind::Secure, &transmit.payload)
                    .unwrap();
                let answer = authority.answer(&Message::decode(&query).unwrap());
                let ttl = answer.answers.iter().map(|r| r.ttl).min().unwrap_or(0);
                let response =
                    Response::ok(DNS_MESSAGE_CONTENT_TYPE, answer.encode().unwrap().to_vec())
                        .with_header("cache-control", &format!("max-age={ttl}"));
                let mut server = ServerConnection::new();
                let requests = server.receive(&sent).unwrap();
                assert_eq!(requests.len(), 1);
                server.send_response(requests[0].0, &response);
                let answered = opened(&info, &reply, secure::SEQ_SERVER);
                assert_eq!(answered, server.take_output(), "{name} {method:?}");
                assert_eq!(
                    client.finish_query(&question, id, &mut reply).unwrap(),
                    answer
                );
                messages += 2;
            }
        }

        // Requests the terminator refuses, answered with a bare status.
        let query = Message::query(9, "pool.ntpns.org".parse().unwrap(), RrType::A)
            .encode()
            .unwrap()
            .to_vec();
        let refused = [
            (Request::get("dns.example", "/resolve?dns=AAAB"), 404),
            (Request::get("dns.example", "/dns-query?dns=%%%"), 400),
            (Request::get("dns.example", "/dns-query"), 400),
            (
                Request::post("dns.example", DOH_PATH, query)
                    .with_header("content-type", "text/plain"),
                415,
            ),
            (
                Request::post("dns.example", DOH_PATH, vec![1, 2, 3])
                    .with_header("content-type", DNS_MESSAGE_CONTENT_TYPE),
                400,
            ),
        ];
        for (request, status) in refused {
            let mut owned = ClientConnection::new();
            owned.send_request(&request);
            let sent = owned.take_output();
            let reply = service
                .serve_payload(&mut NoUpstream, ChannelKind::Secure, &sealed(&info, &sent))
                .unwrap();
            let mut server = ServerConnection::new();
            let requests = server.receive(&sent).unwrap();
            server.send_response(requests[0].0, &Response::new(StatusCode(status)));
            let answered = opened(&info, &reply, secure::SEQ_SERVER);
            assert_eq!(answered, server.take_output(), "{status}");
            messages += 1;
        }
        println!(
            "h2 oracle: {messages} DoH messages written octet for octet as send_request / \
             send_response write them"
        );
    }
}
