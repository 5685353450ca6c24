//! Property-based tests on the DoH transport stack: HPACK, HTTP/2 framing
//! and the secure channel survive arbitrary inputs and round trips.

use proptest::prelude::*;

use sdoh_doh::h2::{hpack, ClientConnection, Frame, ServerConnection, CONNECTION_PREFACE};
use sdoh_doh::http::{Method, Request, Response, StatusCode};
use sdoh_doh::secure::{self, SecretKey};

fn arb_header_name() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9-]{0,12}").unwrap()
}

fn arb_header_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~&&[^\"]]{0,24}").unwrap()
}

const DNS_MESSAGE: &str = "application/dns-message";

type Requests = Vec<(u32, Request)>;
type Responses = Vec<(u32, Response)>;

/// The octets of one POST request (a DATA frame included) and of the
/// response to it, each with what one `receive` call makes of them.
fn one_exchange() -> ((Vec<u8>, Requests), (Vec<u8>, Responses)) {
    let mut client = ClientConnection::new();
    let request = Request::post("dns.example", "/dns-query", (0..=60).collect())
        .with_header("content-type", DNS_MESSAGE);
    client.send_request(&request);
    let request_octets = client.take_output();

    let mut server = ServerConnection::new();
    let requests = server.receive(&request_octets).unwrap();
    assert_eq!(requests, vec![(1, request)]);
    let response =
        Response::ok(DNS_MESSAGE, (100..=180).collect()).with_header("cache-control", "max-age=7");
    server.send_response(1, &response);
    let response_octets = server.take_output();

    let responses = client.receive(&response_octets).unwrap();
    assert_eq!(responses, vec![(1, response)]);
    ((request_octets, requests), (response_octets, responses))
}

/// Feeds `octets` cut at `cuts` to a fresh server.
fn serve_in_pieces(octets: &[u8], cuts: &[usize]) -> Requests {
    let mut server = ServerConnection::new();
    pieces(octets, cuts)
        .flat_map(|piece| server.receive(piece).unwrap())
        .collect()
}

/// Feeds `octets` cut at `cuts` to a client that has one request out.
fn answer_in_pieces(octets: &[u8], cuts: &[usize]) -> Responses {
    let mut client = ClientConnection::new();
    client.send_request(&Request::get("dns.example", "/dns-query"));
    pieces(octets, cuts)
        .flat_map(|piece| client.receive(piece).unwrap())
        .collect()
}

fn pieces<'a>(octets: &'a [u8], cuts: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    let starts = std::iter::once(0).chain(cuts.iter().copied());
    let ends = cuts.iter().copied().chain(std::iter::once(octets.len()));
    starts.zip(ends).map(|(start, end)| &octets[start..end])
}

/// However a transport cuts the octets of a request or a response — at
/// every offset (inside the preface, a 9-octet frame header, the header
/// block, the DATA payload) and into single octets — the receiver completes
/// the messages one call completes.
#[test]
fn fragmented_delivery_completes_the_same_messages() {
    let ((request_octets, requests), (response_octets, responses)) = one_exchange();
    // The cuts below land where the comment above says they do.
    assert!(request_octets.len() > CONNECTION_PREFACE.len() + 9 + 61);
    assert!(response_octets.len() > 9 + 81);

    for cut in 0..=request_octets.len() {
        assert_eq!(
            serve_in_pieces(&request_octets, &[cut]),
            requests,
            "cut at {cut}"
        );
    }
    let every: Vec<usize> = (1..request_octets.len()).collect();
    assert_eq!(serve_in_pieces(&request_octets, &every), requests);

    for cut in 0..=response_octets.len() {
        assert_eq!(
            answer_in_pieces(&response_octets, &[cut]),
            responses,
            "cut at {cut}"
        );
    }
    let every: Vec<usize> = (1..response_octets.len()).collect();
    assert_eq!(answer_in_pieces(&response_octets, &every), responses);
}

/// Many requests queued on one connection and sent as one flight: streams
/// 1, 3, 5, … in order, and every response comes back on the stream of the
/// request it answers.
#[test]
fn many_requests_share_one_connection() {
    const N: u32 = 40;
    let mut client = ClientConnection::new();
    let mut server = ServerConnection::new();

    let sent: Vec<(u32, Request)> = (0..N)
        .map(|i| {
            let request = if i % 2 == 0 {
                Request::get("dns.example", format!("/dns-query?dns=q{i}"))
                    .with_header("accept", DNS_MESSAGE)
            } else {
                Request::post("dns.example", "/dns-query", format!("q{i}").into_bytes())
                    .with_header("content-type", DNS_MESSAGE)
            };
            (client.send_request(&request), request)
        })
        .collect();
    let ids: Vec<u32> = sent.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..N).map(|i| 2 * i + 1).collect::<Vec<_>>());

    let received = server.receive(&client.take_output()).unwrap();
    assert_eq!(received, sent);
    for (id, request) in &received {
        let asked = match request.method {
            Method::Get => request.query_param("dns").unwrap().as_bytes(),
            Method::Post => &request.body,
        };
        let body = [b"answer to ", asked].concat();
        server.send_response(*id, &Response::ok(DNS_MESSAGE, body));
    }

    let responses = client.receive(&server.take_output()).unwrap();
    assert!(client.is_established());
    assert_eq!(responses.len(), sent.len());
    for ((id, response), (sent_id, _)) in responses.iter().zip(&sent) {
        assert_eq!(id, sent_id);
        assert_eq!(response.status, StatusCode::OK);
        let expected = format!("answer to q{}", (id - 1) / 2);
        assert_eq!(response.body, expected.as_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// HPACK round-trips arbitrary (lowercase-named) header lists.
    #[test]
    fn hpack_roundtrip(headers in proptest::collection::vec(
        (arb_header_name(), arb_header_value()), 0..12))
    {
        let block = hpack::encode(&headers);
        prop_assert_eq!(hpack::decode(&block).unwrap(), headers);
    }

    /// The HPACK decoder never panics on arbitrary bytes.
    #[test]
    fn hpack_decoder_never_panics(block in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = hpack::decode(&block);
    }

    /// HTTP/2 frames round-trip and the decoder never panics on noise.
    #[test]
    fn data_frames_roundtrip(
        stream_id in 1u32..0x7FFF_0000,
        end_stream in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = Frame::Data { stream_id, end_stream, data };
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let (decoded, used) = Frame::decode(&buf).unwrap().unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn frame_decoder_never_panics(noise in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Frame::decode(&noise);
    }

    /// A full request/response exchange preserves method, path, authority,
    /// headers, bodies and status.
    #[test]
    fn http2_exchange_roundtrip(
        path_suffix in "[a-zA-Z0-9_-]{0,24}",
        body in proptest::collection::vec(any::<u8>(), 0..256),
        status in 200u16..600,
        use_post in any::<bool>(),
    ) {
        let path = format!("/dns-query?dns={path_suffix}");
        let request = if use_post {
            Request::post("dns.example", path.clone(), body.clone())
                .with_header("content-type", "application/dns-message")
        } else {
            Request::get("dns.example", path.clone())
        };
        let mut client = ClientConnection::new();
        let mut server = ServerConnection::new();
        let sid = client.send_request(&request);
        let requests = server.receive(&client.take_output()).unwrap();
        prop_assert_eq!(requests.len(), 1);
        let (rid, received) = &requests[0];
        prop_assert_eq!(*rid, sid);
        prop_assert_eq!(&received.path, &path);
        prop_assert_eq!(&received.authority, "dns.example");
        if use_post {
            prop_assert_eq!(&received.body, &body);
        }

        let response = Response::new(StatusCode::from(status));
        server.send_response(*rid, &response);
        let responses = client.receive(&server.take_output()).unwrap();
        prop_assert_eq!(responses.len(), 1);
        prop_assert_eq!(responses[0].1.status.as_u16(), status);
    }

    /// The secure channel round-trips arbitrary payloads and rejects any
    /// single-byte tampering.
    #[test]
    fn secure_channel_roundtrip_and_tamper_detection(
        seed in any::<u64>(),
        label in "[a-z.]{1,20}",
        seq in 0u64..4,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        flip in any::<(usize, u8)>(),
    ) {
        let key = SecretKey::derive(seed, &label);
        let sealed = secure::seal(&key, seq, &payload);
        prop_assert_eq!(secure::open(&key, seq, &sealed).unwrap(), payload);

        let (pos, bit) = flip;
        if !sealed.is_empty() && bit != 0 {
            let mut tampered = sealed.clone();
            let idx = pos % tampered.len();
            tampered[idx] ^= bit;
            prop_assert!(secure::open(&key, seq, &tampered).is_err());
        }
    }

    /// A record of any length opens only whole: not cut short anywhere, not
    /// with an octet more before its tag. Sealing in place behind a prefix
    /// builds the record `seal` builds.
    #[test]
    fn secure_record_rejects_truncation_and_extension(
        seed in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<usize>(),
        extra in any::<(usize, u8)>(),
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let key = SecretKey::derive(seed, "dns.example");
        let sealed = secure::seal(&key, secure::SEQ_SERVER, &payload);
        prop_assert!(secure::open(&key, secure::SEQ_SERVER, &sealed[..cut % sealed.len()]).is_err());

        let (at, octet) = extra;
        let mut extended = sealed.clone();
        extended.insert(at % (payload.len() + 1), octet);
        prop_assert!(secure::open(&key, secure::SEQ_SERVER, &extended).is_err());

        let mut buf = [prefix.as_slice(), &payload].concat();
        secure::seal_in_place(&key, secure::SEQ_SERVER, &mut buf, prefix.len());
        prop_assert_eq!(&buf[..prefix.len()], prefix.as_slice());
        prop_assert_eq!(&buf[prefix.len()..], sealed.as_slice());
    }

    /// Envelopes round-trip and the parser never panics on noise.
    #[test]
    fn envelope_roundtrip_and_robustness(
        name in "[a-z0-9.-]{1,30}",
        record in proptest::collection::vec(any::<u8>(), 0..128),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let envelope = secure::SecureEnvelope { server_name: name, record };
        let encoded = envelope.encode();
        prop_assert_eq!(secure::SecureEnvelope::decode(&encoded).unwrap(), envelope);
        let _ = secure::SecureEnvelope::decode(&noise);
    }
}
