//! The DNS-over-HTTPS server service (RFC 8484).
//!
//! The core processing path ([`DohServerService::serve_payload`]) is
//! generic over the [`Exchanger`] the wrapped handler uses for upstream
//! queries, so the same service instance can terminate DoH traffic on a
//! simulated endpoint (the [`Service`] impl, where the exchanger is the
//! simulator's `Ctx`) **or** serve as an in-process backend of the
//! real-socket runtime, where the exchanger is whatever the runtime
//! provides.
//!
//! The query is read where it lies — in the buffer a GET's `dns=`
//! parameter is decoded into, or in the POST body — and lent to the
//! handler ([`QueryView`]): no `Message` is built for it. The answer's
//! head is mostly constant: a 200's `:status` and `content-type` are one
//! block encoded at compile time (`OK_HEAD`), and its `content-length` and
//! `max-age` are digits written where they go, without `fmt`. A status
//! that refuses a request goes through the field writer.

use sdoh_dns_server::{Exchanger, QueryHandler};
use sdoh_dns_wire::{base64url, MessageView, QueryView};
use sdoh_netsim::{ChannelKind, Ctx, Service, ServiceResponse, SimAddr};

use crate::client::{DNS_MESSAGE_CONTENT_TYPE, DOH_PATH};
use crate::directory::ResolverInfo;
use crate::error::DohResult;
use crate::h2::{RequestHead, ServerConnection};
use crate::http::{self, Method, StatusCode};
use crate::secure::{self, SecureEnvelope};

/// A DoH endpoint: terminates the secure channel and HTTP/2, validates the
/// RFC 8484 exchange and hands the DNS query to a [`QueryHandler`]
/// (typically a recursive resolver, possibly a poisoned one in attack
/// experiments).
#[derive(Debug)]
pub struct DohServerService<H> {
    identity: ResolverInfo,
    handler: H,
    queries_served: u64,
    /// Buffers kept from one payload to the next: the last client record
    /// opened (its plaintext in place), the last GET's query decoded out of
    /// its `dns=` parameter, and the last answer the handler wrote.
    opened: Vec<u8>,
    query: Vec<u8>,
    answer: Vec<u8>,
}

impl<H: QueryHandler> DohServerService<H> {
    /// Creates a DoH service with the given identity (name + pinned key)
    /// and query handler.
    pub fn new(identity: ResolverInfo, handler: H) -> Self {
        DohServerService {
            identity,
            handler,
            queries_served: 0,
            opened: Vec::new(),
            query: Vec::new(),
            answer: Vec::new(),
        }
    }

    /// Number of DNS queries answered so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Access to the wrapped handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Terminates one secure-channel payload: decodes the envelope and the
    /// HTTP/2 stream, answers every RFC 8484 request through the wrapped
    /// handler (which performs any upstream queries via `exchanger`) and
    /// returns the sealed reply payload. `None` mirrors the wire behaviour
    /// of a DoH endpoint that won't answer — a plaintext connection attempt
    /// or a malformed secure record is silently dropped, and the peer
    /// observes a timeout.
    ///
    /// This is the transport-independent entry point: the simulator's
    /// [`Service`] impl calls it with the simulation `Ctx`, a real-socket
    /// runtime calls it with its own exchanger.
    pub fn serve_payload(
        &mut self,
        exchanger: &mut dyn Exchanger,
        channel: ChannelKind,
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        // A DoH endpoint only speaks over the secure channel; plaintext
        // connection attempts are ignored (no listener on port 443/tcp
        // without TLS).
        if channel != ChannelKind::Secure {
            return None;
        }
        let mut opened = std::mem::take(&mut self.opened);
        let reply = self.process(exchanger, payload, &mut opened).ok();
        self.opened = opened;
        reply
    }

    /// [`DohServerService::serve_payload`] on the secure channel; the
    /// record is opened in `opened`, a buffer of the service's lent for the
    /// call.
    fn process(
        &mut self,
        exchanger: &mut dyn Exchanger,
        payload: &[u8],
        opened: &mut Vec<u8>,
    ) -> DohResult<Vec<u8>> {
        let (server_name, record) = SecureEnvelope::split(payload)?;
        if server_name != self.identity.name {
            return Err(crate::error::DohError::ChannelAuthentication(format!(
                "client addressed {server_name} but this endpoint is {}",
                self.identity.name
            )));
        }
        // The payload is the transport's, so the record is deciphered in a
        // buffer of the service's, reused from one payload to the next.
        opened.clear();
        opened.extend_from_slice(record);
        let client_h2 = secure::open_in_place(&self.identity.key, secure::SEQ_CLIENT, opened)?;

        // The reply is one buffer from the envelope header to the record
        // tag, as the request was (`DohClient::begin_query`); each request
        // is read where it lies in the opened record and answered straight
        // into it.
        let reply = SecureEnvelope::begin(&self.identity.name);
        let record_at = reply.len();
        let mut connection = ServerConnection::with_output(reply);
        connection.serve(client_h2, |connection, stream_id, head, body| {
            let answered = self.answer_query(exchanger, head, body);
            write_response(connection, stream_id, answered, &self.answer);
        })?;
        let mut reply = connection.take_output();
        secure::seal_in_place(
            &self.identity.key,
            secure::SEQ_SERVER,
            &mut reply,
            record_at,
        );
        Ok(reply)
    }

    /// The DNS answer to one RFC 8484 request, written into the service's
    /// answer buffer, and its answer records' least TTL (0 for an answer
    /// without any); or the status that refuses the request.
    fn answer_query(
        &mut self,
        exchanger: &mut dyn Exchanger,
        head: &RequestHead<'_>,
        body: &[u8],
    ) -> Result<u32, StatusCode> {
        // The path and its query string apart, in one scan.
        let (path, parameters) = head.path.split_once('?').unwrap_or((head.path, ""));
        if path != DOH_PATH {
            return Err(StatusCode::NOT_FOUND);
        }
        let query_wire = match head.method {
            Method::Get => {
                let encoded = http::param(parameters, "dns").ok_or(StatusCode::BAD_REQUEST)?;
                base64url::decode_into(encoded, &mut self.query)
                    .map_err(|_| StatusCode::BAD_REQUEST)?;
                self.query.as_slice()
            }
            Method::Post => match head.content_type {
                Some(ct) if ct.eq_ignore_ascii_case(DNS_MESSAGE_CONTENT_TYPE) => body,
                _ => return Err(StatusCode::UNSUPPORTED_MEDIA_TYPE),
            },
        };
        if query_wire.len() > sdoh_dns_wire::MAX_MESSAGE_SIZE {
            return Err(StatusCode::PAYLOAD_TOO_LARGE);
        }
        let query = QueryView::parse(query_wire).map_err(|_| StatusCode::BAD_REQUEST)?;
        self.queries_served += 1;
        let ttl = self
            .handler
            .handle_query_wire(exchanger, &query, &mut self.answer)
            .map_err(|_| StatusCode::INTERNAL_SERVER_ERROR)?;
        // A TTL the handler does not report is read where it wrote the
        // records, in one step up to the end of the answer section.
        Ok(ttl
            .or_else(|| MessageView::least_answer_ttl(&self.answer))
            .unwrap_or(0))
    }
}

/// A 200's fields ahead of its length, HPACK-encoded as the field writer
/// encodes them: `:status: 200` (static entry 8) and `content-type:
/// application/dns-message` (a literal without indexing: its name's length
/// and name, its value's length and value).
const OK_HEAD: &[u8] = b"\x88\x00\x0ccontent-type\x17application/dns-message";

/// Writes the response to a request on `stream_id`: for an `answered` TTL,
/// a 200 carrying `answer` — [`OK_HEAD`], then its `content-length` and
/// `cache-control: max-age=` that TTL, their digits written where they go —
/// or the status that refused the request, bodiless, through the field
/// writer.
fn write_response(
    connection: &mut ServerConnection,
    stream_id: u32,
    answered: Result<u32, StatusCode>,
    answer: &[u8],
) {
    let mut response = connection.respond(stream_id);
    match answered {
        Ok(min_ttl) => {
            response
                .encoded(OK_HEAD)
                .field_decimal(
                    "content-length",
                    "",
                    u64::try_from(answer.len()).unwrap_or(u64::MAX),
                )
                .field_decimal("cache-control", "max-age=", u64::from(min_ttl));
            response.body(answer);
        }
        Err(status) => {
            response.field_fmt(":status", format_args!("{}", status.as_u16()));
            response.body(&[]);
        }
    }
}

impl<H: QueryHandler> Service for DohServerService<H> {
    fn handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        _from: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
    ) -> ServiceResponse {
        match self.serve_payload(ctx, channel, payload) {
            Some(reply) => ServiceResponse::Reply(reply),
            None => ServiceResponse::NoReply,
        }
    }

    fn name(&self) -> &str {
        "doh-server"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DohClient, DohMethod};
    use crate::directory::ResolverDirectory;
    use crate::h2::{hpack, ClientConnection, Frame, CONNECTION_PREFACE};
    use crate::http::Request;
    use sdoh_dns_server::{Authority, Catalog, PoisonConfig, PoisonMode, PoisonedResolver, Zone};
    use sdoh_dns_wire::{Message, Name, RData, Record, RrType};
    use sdoh_netsim::SimNet;
    use std::time::Duration;

    fn authority() -> Authority {
        let mut zone = Zone::new("example.org".parse().unwrap());
        zone.add_address(
            "www.example.org".parse().unwrap(),
            "192.0.2.80".parse().unwrap(),
        );
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        Authority::new(catalog)
    }

    fn setup() -> (SimNet, ResolverInfo) {
        let net = SimNet::new(21);
        let info = ResolverDirectory::well_known(21).resolvers()[1].clone();
        net.register(info.addr, DohServerService::new(info.clone(), authority()));
        (net, info)
    }

    #[test]
    fn serves_get_and_post() {
        let (net, info) = setup();
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 7, 50000));
        for method in [DohMethod::Get, DohMethod::Post] {
            let client = DohClient::new(info.clone()).method(method);
            let response = client
                .query(
                    &mut exchanger,
                    &"www.example.org".parse().unwrap(),
                    RrType::A,
                )
                .unwrap();
            assert_eq!(response.answer_addresses().len(), 1);
        }
    }

    #[test]
    fn ignores_plaintext_connections() {
        let (net, info) = setup();
        let err = net
            .transact(
                SimAddr::v4(10, 0, 0, 7, 50000),
                info.addr,
                ChannelKind::Plain,
                b"GET /dns-query",
                Duration::from_millis(300),
            )
            .unwrap_err();
        assert_eq!(err, sdoh_netsim::NetError::Timeout);
    }

    #[test]
    fn rejects_wrong_server_name() {
        let (net, info) = setup();
        // Client pins the right key but addresses the wrong name.
        let mut wrong = info.clone();
        wrong.name = "dns.evil.example".to_string();
        let client = DohClient::new(wrong).timeout(Duration::from_millis(500));
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 7, 50000));
        let err = client
            .query(
                &mut exchanger,
                &"www.example.org".parse().unwrap(),
                RrType::A,
            )
            .unwrap_err();
        assert!(matches!(err, crate::error::DohError::Network(_)));
    }

    #[test]
    fn counts_queries_and_exposes_handler() {
        let info = ResolverDirectory::well_known(3).resolvers()[0].clone();
        let service = DohServerService::new(info, authority());
        assert_eq!(service.queries_served(), 0);
        assert_eq!(Service::name(&service), "doh-server");
    }

    /// What a fresh service answers to a record carrying `frames` behind
    /// the preface, sealed as its clients seal them, and how many queries it
    /// served doing so.
    fn serve_frames(frames: &[Frame]) -> (Option<Vec<u8>>, u64) {
        let net = SimNet::new(22);
        let info = ResolverDirectory::well_known(22).resolvers()[0].clone();
        let mut service = DohServerService::new(info.clone(), authority());
        let mut h2 = Vec::new();
        h2.extend_from_slice(CONNECTION_PREFACE);
        for frame in frames {
            frame.encode(&mut h2);
        }
        let mut payload = SecureEnvelope::begin(&info.name);
        let record_at = payload.len();
        payload.extend_from_slice(&h2);
        secure::seal_in_place(&info.key, secure::SEQ_CLIENT, &mut payload, record_at);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 7, 50000));
        let reply = service.serve_payload(&mut exchanger, ChannelKind::Secure, &payload);
        (reply, service.queries_served())
    }

    /// An RFC 8484 GET for `www.example.org` in a HEADERS frame.
    fn doh_get(stream_id: u32) -> Frame {
        let query = Message::query(0, "www.example.org".parse().unwrap(), RrType::A);
        let path = format!(
            "{DOH_PATH}?dns={}",
            base64url::encode(&query.encode().unwrap())
        );
        let fields = [(":method", "GET"), (":scheme", "https"), (":path", &path)];
        Frame::Headers {
            stream_id,
            end_stream: true,
            end_headers: true,
            block: hpack::encode(&fields.map(|(name, value)| (name.into(), value.into()))),
        }
    }

    #[test]
    fn a_get_on_stream_1_is_answered() {
        let (reply, served) = serve_frames(&[doh_get(1)]);
        assert!(reply.is_some());
        assert_eq!(served, 1);
    }

    /// RFC 7540 §5.1.1, §6.2: it used to be answered.
    #[test]
    fn a_get_on_stream_0_is_not_answered() {
        assert_eq!(serve_frames(&[doh_get(0)]), (None, 0));
    }

    /// §5.1.1: a client's streams are odd. It used to be answered.
    #[test]
    fn a_get_on_stream_2_is_not_answered() {
        assert_eq!(serve_frames(&[doh_get(2)]), (None, 0));
    }

    /// §5.1, §6.1: DATA on an idle stream is a connection error. It used to
    /// be answered, the DATA taken for the GET's body.
    #[test]
    fn a_get_behind_data_on_its_idle_stream_is_not_answered() {
        let data = Frame::Data {
            stream_id: 1,
            end_stream: false,
            data: b"smuggled".to_vec(),
        };
        assert_eq!(serve_frames(&[data, doh_get(1)]), (None, 0));
    }

    /// RFC 7540 §8.1.2.6: a POST whose `content-length` is not its body's
    /// length is malformed. It used to be answered.
    #[test]
    fn a_post_whose_body_is_not_its_content_length_is_not_answered() {
        let query = Message::query(9, "www.example.org".parse().unwrap(), RrType::A)
            .encode()
            .unwrap();
        let post = |length: usize| {
            let length = length.to_string();
            let fields = [
                (":method", "POST"),
                (":scheme", "https"),
                (":path", DOH_PATH),
                ("content-type", DNS_MESSAGE_CONTENT_TYPE),
                ("content-length", &length),
            ];
            let head = Frame::Headers {
                stream_id: 1,
                end_stream: false,
                end_headers: true,
                block: hpack::encode(&fields.map(|(name, value)| (name.into(), value.into()))),
            };
            let body = Frame::Data {
                stream_id: 1,
                end_stream: true,
                data: query.to_vec(),
            };
            serve_frames(&[head, body])
        };
        let (reply, served) = post(query.len());
        assert!(reply.is_some());
        assert_eq!(served, 1);
        assert_eq!(post(query.len() + 1), (None, 0));
        assert_eq!(post(query.len() - 1), (None, 0));
    }

    /// The `cache-control` value and the body of `service`'s answer to a
    /// GET for `name`/`rtype`, read through the owned h2 client.
    fn max_age_and_body(
        service: &mut DohServerService<Box<dyn QueryHandler>>,
        info: &ResolverInfo,
        name: &str,
        rtype: RrType,
    ) -> (String, Vec<u8>) {
        let query = Message::query(0, name.parse().unwrap(), rtype)
            .encode()
            .unwrap();
        let path = format!("{DOH_PATH}?dns={}", base64url::encode(&query));
        let mut client = ClientConnection::new();
        client.send_request(&Request::get(info.name.clone(), path));
        let mut payload = SecureEnvelope::begin(&info.name);
        let record_at = payload.len();
        payload.extend_from_slice(&client.take_output());
        secure::seal_in_place(&info.key, secure::SEQ_CLIENT, &mut payload, record_at);
        let net = SimNet::new(23);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 7, 50000));
        let reply = service
            .serve_payload(&mut exchanger, ChannelKind::Secure, &payload)
            .unwrap();
        let (_, record) = SecureEnvelope::split(&reply).unwrap();
        let answered = secure::open(&info.key, secure::SEQ_SERVER, record).unwrap();
        let (_, response) = client.receive(&answered).unwrap().pop().unwrap();
        let max_age = response.headers.get("cache-control").unwrap().to_string();
        (max_age, response.body)
    }

    /// `max-age` is the least TTL of the answer's records, or 0 without
    /// any, whoever wrote the answer: the authority's answer index, a
    /// poisoned resolver's template, or the authority's zone walk.
    #[test]
    fn max_age_is_the_least_answer_ttl_for_every_kind_of_answer() {
        let name = |n: &str| -> Name { n.parse().unwrap() };
        let a = |ip: &str| RData::A(ip.parse().unwrap());
        let mut zone = Zone::new(name("ntpns.org"));
        for record in [
            Record::new(name("pool.ntpns.org"), 90, a("203.0.113.1")),
            Record::new(name("pool.ntpns.org"), 90, a("203.0.113.2")),
            Record::new(
                name("alias.ntpns.org"),
                600,
                RData::Cname(name("pool.ntpns.org")),
            ),
            Record::new(name("ttls.ntpns.org"), 300, a("192.0.2.1")),
            Record::new(name("ttls.ntpns.org"), 60, a("192.0.2.2")),
        ] {
            assert!(zone.add_record(record));
        }
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        let authority = Authority::new(catalog);
        let mut config = PoisonConfig::new(
            name("pool.ntpns.org"),
            PoisonMode::ReplaceAddresses(vec!["198.18.0.1".parse().unwrap()]),
        );
        config.ttl = 45;
        let info = ResolverDirectory::well_known(23).resolvers()[0].clone();
        let handlers: [Box<dyn QueryHandler>; 2] = [
            Box::new(authority.clone()),
            Box::new(PoisonedResolver::new(authority, config)),
        ];
        let cases = [
            // (handler, name, what writes the answer, its max-age)
            (0, "pool.ntpns.org", "the answer index", 90),
            (1, "pool.ntpns.org", "the poisoned template", 45),
            (0, "alias.ntpns.org", "the walk, a CNAME chain", 90),
            (0, "ttls.ntpns.org", "the walk, TTLs that differ", 60),
            (0, "missing.ntpns.org", "the walk, NXDOMAIN", 0),
            (1, "missing.ntpns.org", "the walk behind the wrapper", 0),
        ];
        let mut services = handlers.map(|handler| DohServerService::new(info.clone(), handler));
        for (handler, name, writer, expected) in cases {
            let (max_age, body) = max_age_and_body(&mut services[handler], &info, name, RrType::A);
            let least = MessageView::least_answer_ttl(&body).unwrap_or(0);
            assert_eq!(max_age, format!("max-age={least}"), "{name} from {writer}");
            assert_eq!(least, expected, "{name} from {writer}");
        }
    }

    /// The response the terminator wrote field by field before its 200 head
    /// was encoded once: the oracle [`write_response`] is held against.
    fn written_response(answered: Result<u32, StatusCode>, answer: &[u8]) -> Vec<u8> {
        let mut connection = ServerConnection::new();
        let mut response = connection.respond(1);
        match answered {
            Ok(min_ttl) => {
                response
                    .field(":status", "200")
                    .field("content-type", DNS_MESSAGE_CONTENT_TYPE)
                    .field_fmt("content-length", format_args!("{}", answer.len()))
                    .field_fmt("cache-control", format_args!("max-age={min_ttl}"));
                response.body(answer);
            }
            Err(status) => {
                response.field_fmt(":status", format_args!("{}", status.as_u16()));
                response.body(&[]);
            }
        }
        connection.take_output()
    }

    /// Every response the terminator writes — a 200 and each status it
    /// refuses a request with, across content lengths and TTLs whose digits
    /// grow by one and the largest each takes — is octet for octet what the
    /// field writer writes. Run with `--nocapture`, it prints how many.
    #[test]
    fn the_preencoded_response_head_is_the_written_head() {
        let statuses = [
            StatusCode::OK,
            StatusCode::BAD_REQUEST,
            StatusCode::NOT_FOUND,
            StatusCode::PAYLOAD_TOO_LARGE,
            StatusCode::UNSUPPORTED_MEDIA_TYPE,
            StatusCode::INTERNAL_SERVER_ERROR,
        ];
        let mut cases = 0;
        for status in statuses {
            for length in [0, 9, 10, 99, 100, 65_535] {
                let answer = vec![0x5A; length];
                for ttl in [0, 9, 10, u32::MAX] {
                    let answered = if status == StatusCode::OK {
                        Ok(ttl)
                    } else {
                        Err(status)
                    };
                    let mut connection = ServerConnection::new();
                    write_response(&mut connection, 1, answered, &answer);
                    assert_eq!(
                        connection.take_output(),
                        written_response(answered, &answer),
                        "{status:?} {length} {ttl}"
                    );
                    cases += 1;
                }
            }
        }
        println!("response heads: {cases} written octet for octet as the field writer writes them");
    }
}
