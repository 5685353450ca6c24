//! The DNS-over-HTTPS client (RFC 8484).
//!
//! A request is mostly octets that never change. Those that are the same on
//! every exchange with one resolver — the envelope header, the h2 preface
//! and SETTINGS frame, and the request's `:method`, `:scheme`,
//! `:authority` and `accept` fields (plus `:path` and `content-type` under
//! POST) — are written once, when the client is made, by the connection's
//! field writer ([`RequestFrames`]). Those that are the same for every
//! resolver a generation asks — the query under id 0 and, for a GET, the
//! `:path` field carrying its base64url — are written once per question
//! ([`DohQuestion`]). A request copies the two, closes its HEADERS frame
//! (a POST puts its own id into a copy of the query and sends it as the
//! body) and seals the record where it lies. What comes back is checked
//! in full: the envelope's name, the record's tag, every frame, the
//! status, the content type, the id and the echoed question. The client
//! keeps nothing per query between the halves: the caller lends the
//! question again, with the id it asked under, and the h2 connection the
//! request left is made again when the reply is read.

use std::net::IpAddr;
use std::time::Duration;

use sdoh_dns_server::{ExchangeRequest, Exchanger};
use sdoh_dns_wire::{base64url, Message, MessageView, Name, Opcode, QueryWire, Rcode, RrType};
use sdoh_netsim::ChannelKind;

use crate::directory::ResolverInfo;
use crate::error::{DohError, DohResult};
use crate::h2::hpack::{self, Sink};
use crate::h2::{ClientConnection, RequestFrames};
use crate::secure::{self, SecureEnvelope};

/// The media type DoH exchanges use.
pub const DNS_MESSAGE_CONTENT_TYPE: &str = "application/dns-message";
/// The well-known DoH path.
pub const DOH_PATH: &str = "/dns-query";
/// What stands between the path and a GET's base64url query.
const PARAMETER: &str = "?dns=";

/// The longest `:path` field a question writes: a literal's first octet,
/// the name's length octet and the name, up to three octets of value
/// length (any value under 16 511 octets) and the value, the longest
/// query's base64url behind the path and the parameter.
const PATH_FIELD_MAX: usize = 2
    + ":path".len()
    + 3
    + DOH_PATH.len()
    + PARAMETER.len()
    + base64url::encoded_len(QueryWire::MAX_LEN);

/// Which RFC 8484 method the client uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DohMethod {
    /// `GET` with the base64url-encoded query in the `dns` parameter.
    #[default]
    Get,
    /// `POST` with the query as the request body.
    Post,
}

/// A question encoded once for every DoH exchange that asks it: the query
/// under id 0, which a GET sends (RFC 8484 §4.1) and a POST sends under an
/// id of its own, and the HPACK `:path` field carrying that query's
/// base64url, which every GET sends as it is. A pool generation encodes
/// each of its questions once and lends it to every source; both are held
/// inline, so encoding one allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct DohQuestion {
    query: QueryWire,
    path: PathField,
}

impl DohQuestion {
    /// Encodes the question for `name` and `rtype` in the IN class.
    ///
    /// # Errors
    ///
    /// [`DohError::Wire`] for a name the query cannot carry (longer than a
    /// name can be).
    pub fn new(name: &Name, rtype: RrType) -> DohResult<Self> {
        let query = QueryWire::new(0, name, rtype)?;
        let octets = query.as_bytes();
        let len = DOH_PATH.len() + PARAMETER.len() + base64url::encoded_len(octets.len());
        let mut path = PathField::default();
        hpack::encode_literal_with(&mut path, ":path", len, |out| {
            out.put(DOH_PATH.as_bytes());
            out.put(PARAMETER.as_bytes());
            base64url::encode_into(octets, |quad| out.put(quad));
        });
        Ok(DohQuestion { query, path })
    }

    /// The type the question asks for.
    pub fn rtype(&self) -> RrType {
        self.query.rtype()
    }

    /// The name the question asks for, lent from its encoding.
    pub fn name(&self) -> sdoh_dns_wire::NameRef<'_> {
        self.query.name()
    }
}

/// A GET's `:path` field, written inline.
#[derive(Debug, Clone, Copy)]
struct PathField {
    octets: [u8; PATH_FIELD_MAX],
    len: usize,
}

impl Default for PathField {
    fn default() -> Self {
        PathField {
            octets: [0; PATH_FIELD_MAX],
            len: 0,
        }
    }
}

impl PathField {
    fn as_bytes(&self) -> &[u8] {
        self.octets.get(..self.len).unwrap_or_default()
    }
}

/// The field is sized for the longest query, so every write fits.
impl Sink for PathField {
    fn put(&mut self, v: &[u8]) {
        if let Some(into) = self.octets.get_mut(self.len..self.len + v.len()) {
            into.copy_from_slice(v);
            self.len += v.len();
        }
    }
}

/// A DoH client bound to one resolver.
///
/// Each query opens a fresh HTTP/2 connection over the secure channel, which
/// keeps the client stateless and the failure model per-query. The octets
/// every request to the resolver shares are written once, here (the module
/// doc). Measured on one core of a 2-vCPU host (release build), writing and
/// sealing one GET request from them and a question encoded beforehand
/// takes ~0.13 us, where writing it field by field took ~0.35-0.43 us; the
/// preface and SETTINGS frames are 69 of the ~480 octets an exchange seals
/// (186 out, 296 back for `dns.example`). A connection kept per resolver
/// would save little (ROADMAP's Deferred entry "a persistent connection per
/// resolver" has the figures).
#[derive(Debug, Clone)]
pub struct DohClient {
    resolver: ResolverInfo,
    method: DohMethod,
    timeout: Duration,
    /// Every request's octets but the question's: see `begin_query`.
    request: RequestFrames,
    /// Where a request's record starts, behind the envelope header.
    record_at: usize,
}

impl DohClient {
    /// Creates a client for the given resolver using the GET method.
    pub fn new(resolver: ResolverInfo) -> Self {
        let (request, record_at) = request_frames(&resolver, DohMethod::Get);
        DohClient {
            resolver,
            method: DohMethod::Get,
            timeout: Duration::from_secs(3),
            request,
            record_at,
        }
    }

    /// Selects the RFC 8484 method.
    pub fn method(mut self, method: DohMethod) -> Self {
        (self.request, self.record_at) = request_frames(&self.resolver, method);
        self.method = method;
        self
    }

    /// Sets the per-query timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Performs one DoH query and returns the decoded DNS response.
    ///
    /// This is the blocking convenience wrapper over the sans-IO halves
    /// [`DohClient::begin_query`] / [`DohClient::finish_query`].
    ///
    /// # Errors
    ///
    /// Returns [`DohError`] for transport failures, secure-channel
    /// authentication failures, HTTP/2 protocol errors, non-200 statuses,
    /// wrong content types and undecodable DNS payloads.
    pub fn query(
        &self,
        exchanger: &mut dyn Exchanger,
        name: &Name,
        rtype: RrType,
    ) -> DohResult<Message> {
        let question = DohQuestion::new(name, rtype)?;
        let id = match self.method {
            DohMethod::Get => 0,
            DohMethod::Post => exchanger.next_id(),
        };
        let transmit = self.begin_query(id, &question);
        let mut reply = exchanger.exchange(
            transmit.dst,
            transmit.channel,
            &transmit.payload,
            transmit.timeout,
        )?;
        self.finish_query(&question, id, &mut reply)
    }

    /// Sans-IO first half of a query: builds everything that must go on the
    /// wire without performing any exchange.
    ///
    /// Returns what a driver must put on the wire: the resolver endpoint,
    /// [`ChannelKind::Secure`], and the sealed envelope carrying the HTTP/2
    /// request as the payload; the caller owns the transport. Nothing
    /// else is kept: the reply is read by [`DohClient::finish_query`] (or
    /// [`DohClient::finish_addresses`]) against the same `id` and the same
    /// `question`, which the caller lends again, so a driver may keep any
    /// number of queries in flight with no state of the client's per query.
    ///
    /// `id` is the DNS transaction id; per RFC 8484 §4.1 a GET asks under
    /// id 0 (cache friendliness) whatever `id` is, and a POST under `id`.
    ///
    /// The request is the octets the client wrote when it was made, the
    /// question's `:path` field (a GET's) between them, its HEADERS frame
    /// closed and a POST's query behind it: octet for octet what writing
    /// each field would write (`tests::the_spliced_request_is_the_written_request`).
    pub fn begin_query(&self, id: u16, question: &DohQuestion) -> ExchangeRequest {
        let post;
        let (path, body): (&[u8], &[u8]) = match self.method {
            DohMethod::Get => (question.path.as_bytes(), &[]),
            DohMethod::Post => {
                post = question.query.with_id(id);
                (&[], post.as_bytes())
            }
        };
        // One buffer from the envelope header to the record's 8-octet tag,
        // the record sealed where it lies.
        let mut payload = self.request.write(path, body, 8);
        secure::seal_in_place(
            &self.resolver.key,
            secure::SEQ_CLIENT,
            &mut payload,
            self.record_at,
        );
        ExchangeRequest::new(
            self.resolver.addr,
            ChannelKind::Secure,
            payload,
            self.timeout,
        )
    }

    /// Sans-IO second half of a query: authenticates, decodes and validates
    /// the reply bytes produced by the exchange [`DohClient::begin_query`]
    /// described for `id` and `question`, and returns the DNS response —
    /// the checks of [`DohClient::finish_addresses`], then the owned copy.
    ///
    /// # Errors
    ///
    /// Same error surface as [`DohClient::query`], minus the transport
    /// errors (the driver owns those).
    pub fn finish_query(
        &self,
        question: &DohQuestion,
        id: u16,
        reply: &mut [u8],
    ) -> DohResult<Message> {
        Ok(self.finish_with(question, id, reply, None, |answer| answer.to_message())??)
    }

    /// The second half of an address source's query: the reply's checks,
    /// and the response code; the addresses of the type asked for are
    /// appended to `addresses`, in answer order, read where they lie on the
    /// walk that validates the answer. `reply` is opened where it lies (it
    /// holds plaintext afterwards).
    ///
    /// # Errors
    ///
    /// As [`DohClient::finish_query`]; what was appended before the error
    /// is the caller's to drop.
    pub fn finish_addresses(
        &self,
        question: &DohQuestion,
        id: u16,
        reply: &mut [u8],
        addresses: &mut Vec<IpAddr>,
    ) -> DohResult<Rcode> {
        self.finish_with(question, id, reply, Some(addresses), |answer| {
            answer.header().rcode
        })
    }

    /// The one validation chain of a reply, with `read` as its ending:
    /// `reply` is opened where it lies, the envelope must name this
    /// resolver, the HTTP/2 response on the request stream must be a 200 of
    /// type `application/dns-message` whose `content-length`, if it gives
    /// one, is its body's, that body one well-formed DNS message — its
    /// addresses of the asked type appended to `addresses` on the walk
    /// that validates it — and that message a response to the query — QR
    /// set, the query's opcode and id (0 under GET) and `question` echoed.
    /// `read` then sees the message where it lies.
    fn finish_with<T>(
        &self,
        question: &DohQuestion,
        id: u16,
        reply: &mut [u8],
        addresses: Option<&mut Vec<IpAddr>>,
        read: impl FnOnce(&MessageView<'_>) -> T,
    ) -> DohResult<T> {
        let id = match self.method {
            DohMethod::Get => 0,
            DohMethod::Post => id,
        };
        let (server_name, record) = SecureEnvelope::split(reply)?;
        if server_name != self.resolver.name {
            return Err(DohError::ChannelAuthentication(format!(
                "expected {} but the channel authenticated as {server_name}",
                self.resolver.name
            )));
        }
        let record_at = reply.len() - record.len();
        let server_h2 = secure::open_in_place(
            &self.resolver.key,
            secure::SEQ_SERVER,
            reply.get_mut(record_at..).unwrap_or_default(),
        )?;
        // The state every request leaves its connection in: the preface,
        // SETTINGS and one request sent on the first stream.
        let (mut connection, stream_id) = ClientConnection::first_request_sent();
        let (head, body) = connection
            .response(server_h2, stream_id)?
            .ok_or_else(|| DohError::Protocol("no response on the request stream".into()))?;

        if !head.status.is_success() {
            return Err(DohError::HttpStatus(head.status.as_u16()));
        }
        match head.content_type {
            Some(ct) if ct.eq_ignore_ascii_case(DNS_MESSAGE_CONTENT_TYPE) => {}
            other => {
                return Err(DohError::Protocol(format!(
                    "unexpected content type {other:?}"
                )))
            }
        }
        let query = &question.query;
        let answer = match addresses {
            Some(addresses) => {
                MessageView::parse_addresses(body.octets(), query.rtype(), addresses)?
            }
            None => MessageView::parse(body.octets())?,
        };
        // What a plain DNS client checks too (`Message::answers_query`): a
        // reflected query is not an answer, however well it echoes.
        let header = answer.header();
        if !header.response || header.opcode != Opcode::Query || header.id != id {
            return Err(DohError::Protocol(
                "the reply is not a response to the query".into(),
            ));
        }
        if !answer.echoes(query) {
            return Err(DohError::Protocol(
                "response question does not match query".into(),
            ));
        }
        Ok(read(&answer))
    }
}

/// The octets every request to `resolver` by `method` shares, written by
/// the field writer, and where its record starts: a GET's fields around the
/// `:path` field each question brings, a POST's all of them.
fn request_frames(resolver: &ResolverInfo, method: DohMethod) -> (RequestFrames, usize) {
    let prefix = SecureEnvelope::begin(&resolver.name);
    let record_at = prefix.len();
    let request = match method {
        DohMethod::Get => RequestFrames::new(
            prefix,
            |request| {
                request
                    .field(":method", "GET")
                    .field(":scheme", "https")
                    .field(":authority", &resolver.name);
            },
            |request| {
                request.field("accept", DNS_MESSAGE_CONTENT_TYPE);
            },
        ),
        DohMethod::Post => RequestFrames::new(
            prefix,
            |request| {
                request
                    .field(":method", "POST")
                    .field(":scheme", "https")
                    .field(":authority", &resolver.name)
                    .field(":path", DOH_PATH)
                    .field("accept", DNS_MESSAGE_CONTENT_TYPE)
                    .field("content-type", DNS_MESSAGE_CONTENT_TYPE);
            },
            |_| {},
        ),
    };
    (request, record_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::ResolverDirectory;
    use crate::server::DohServerService;
    use sdoh_dns_server::{Authority, Catalog, Zone};
    use sdoh_netsim::{SimAddr, SimNet};

    fn pool_authority() -> Authority {
        let mut zone = Zone::new("ntp.org".parse().unwrap());
        for i in 1..=4u8 {
            zone.add_address(
                "pool.ntp.org".parse().unwrap(),
                format!("203.0.113.{i}").parse().unwrap(),
            );
        }
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        Authority::new(catalog)
    }

    fn setup() -> (SimNet, ResolverInfo) {
        let net = SimNet::new(11);
        let directory = ResolverDirectory::well_known(11);
        let info = directory.resolvers()[0].clone();
        net.register(
            info.addr,
            DohServerService::new(info.clone(), pool_authority()),
        );
        (net, info)
    }

    #[test]
    fn get_query_end_to_end() {
        let (net, info) = setup();
        let client = DohClient::new(info);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let response = client
            .query(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(response.answer_addresses().len(), 4);
        assert_eq!(net.metrics().secure_requests, 1);
        assert_eq!(net.metrics().plain_requests, 0);
    }

    #[test]
    fn post_query_end_to_end() {
        let (net, info) = setup();
        let client = DohClient::new(info).method(DohMethod::Post);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let response = client
            .query(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(response.answer_addresses().len(), 4);
    }

    #[test]
    fn wrong_key_is_rejected_by_server() {
        let (net, info) = setup();
        let mut rogue = info.clone();
        rogue.key = crate::secure::SecretKey::derive(999, "attacker");
        let client = DohClient::new(rogue);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let err = client
            .query(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap_err();
        // The server cannot authenticate the client's record and answers
        // with nothing useful; the client sees a transport/authentication
        // failure rather than a forged answer.
        assert!(matches!(
            err,
            DohError::Network(_) | DohError::ChannelAuthentication(_)
        ));
    }

    #[test]
    fn nonexistent_name_returns_nxdomain_message() {
        let (net, info) = setup();
        let client = DohClient::new(info);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let response = client
            .query(
                &mut exchanger,
                &"missing.ntp.org".parse().unwrap(),
                RrType::A,
            )
            .unwrap();
        assert_eq!(response.header.rcode, sdoh_dns_wire::Rcode::NxDomain);
    }

    #[test]
    fn unreachable_resolver_is_a_network_error() {
        let net = SimNet::new(12);
        let directory = ResolverDirectory::well_known(12);
        let info = directory.resolvers()[0].clone();
        let client = DohClient::new(info).timeout(Duration::from_millis(500));
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let err = client
            .query(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap_err();
        assert!(matches!(err, DohError::Network(_)));
    }

    /// RFC 7540 §8.1.2.6: a sealed 200 whose `content-length` is not its
    /// body's length is malformed, and the exchange fails. It used to be
    /// taken as the answer.
    #[test]
    fn a_reply_that_lies_about_its_length_fails_the_exchange() {
        use crate::h2::ServerConnection;
        use crate::http::Response;

        let info = ResolverDirectory::well_known(11).resolvers()[0].clone();
        let client = DohClient::new(info.clone());
        let name: Name = "pool.ntp.org".parse().unwrap();
        let answer = pool_authority()
            .answer(&Message::query(0, name.clone(), RrType::A))
            .encode()
            .unwrap();
        let reply = |length: usize| {
            let mut connection = ServerConnection::with_output(SecureEnvelope::begin(&info.name));
            let response = Response::ok(DNS_MESSAGE_CONTENT_TYPE, answer.to_vec())
                .with_header("content-length", &length.to_string());
            connection.send_response(1, &response);
            let mut reply = connection.take_output();
            let record_at = SecureEnvelope::begin(&info.name).len();
            secure::seal_in_place(&info.key, secure::SEQ_SERVER, &mut reply, record_at);
            reply
        };
        let finish = |length: usize| {
            let question = DohQuestion::new(&name, RrType::A).unwrap();
            client.begin_query(0, &question);
            client.finish_query(&question, 0, &mut reply(length))
        };
        assert_eq!(finish(answer.len()).unwrap().answer_addresses().len(), 4);
        for length in [answer.len() + 1, answer.len() - 1, 0] {
            let err = finish(length).unwrap_err();
            assert!(matches!(err, DohError::Http2(_)), "{length}: {err:?}");
        }
    }

    #[test]
    fn builder_accessors() {
        let directory = ResolverDirectory::well_known(1);
        let info = directory.resolvers()[0].clone();
        let client = DohClient::new(info.clone())
            .method(DohMethod::Post)
            .timeout(Duration::from_secs(9));
        assert_eq!(client.resolver.name, info.name);
        assert_eq!(client.method, DohMethod::Post);
        assert_eq!(client.timeout, Duration::from_secs(9));
    }

    /// The request `begin_query` wrote field by field before a client wrote
    /// its shared octets once: the oracle a spliced request is held
    /// against. The sealed payload, the connection it leaves, and the id
    /// and the query the answer is checked against.
    fn written_request(
        client: &DohClient,
        id: u16,
        name: &Name,
        rtype: RrType,
    ) -> (Vec<u8>, ClientConnection, u16, QueryWire) {
        use crate::http::Method;

        let id = match client.method {
            DohMethod::Get => 0,
            DohMethod::Post => id,
        };
        let query = QueryWire::new(id, name, rtype).unwrap();
        let payload = SecureEnvelope::begin(&client.resolver.name);
        let record_at = payload.len();
        let mut connection = ClientConnection::with_output(payload);
        let (_, mut request) = connection.open_stream();
        let method = match client.method {
            DohMethod::Get => Method::Get,
            DohMethod::Post => Method::Post,
        };
        request
            .field(":method", method.as_str())
            .field(":scheme", "https")
            .field(":authority", &client.resolver.name);
        match client.method {
            DohMethod::Get => {
                let octets = query.as_bytes();
                let len = DOH_PATH.len() + PARAMETER.len() + base64url::encoded_len(octets.len());
                request
                    .field_with(":path", len, |out| {
                        out.extend_from_slice(DOH_PATH.as_bytes());
                        out.extend_from_slice(PARAMETER.as_bytes());
                        base64url::encode_into(octets, |quad| out.extend_from_slice(quad));
                    })
                    .field("accept", DNS_MESSAGE_CONTENT_TYPE);
                request.body(&[]);
            }
            DohMethod::Post => {
                request
                    .field(":path", DOH_PATH)
                    .field("accept", DNS_MESSAGE_CONTENT_TYPE)
                    .field("content-type", DNS_MESSAGE_CONTENT_TYPE);
                request.body(query.as_bytes());
            }
        }
        let mut payload = connection.take_output();
        secure::seal_in_place(
            &client.resolver.key,
            secure::SEQ_CLIENT,
            &mut payload,
            record_at,
        );
        (payload, connection, id, query)
    }

    /// A name of `len` wire octets, its labels as long as they go; none has
    /// 2.
    fn name_of(len: usize) -> Option<Name> {
        let mut left = len.checked_sub(1).filter(|&left| left != 1)?;
        let mut labels = Vec::new();
        while left > 0 {
            let mut label = left.min(64) - 1;
            if left - (label + 1) == 1 {
                label -= 1;
            }
            labels.push(vec![b'a' + (labels.len() % 26) as u8; label]);
            left -= label + 1;
        }
        Some(Name::from_labels(labels).unwrap())
    }

    /// The request spliced from the client's shared octets and the
    /// question's is octet for octet the one the field writer writes, and
    /// the connection the reply is read on and the query it is checked
    /// against are the ones the field writer leaves: every directory resolver, GET and POST, A and AAAA, several
    /// ids, and names of every wire length from 1 to 253 octets — across
    /// the `:path` value's HPACK length outgrowing its 7-bit prefix (127)
    /// and the HEADERS frame outgrowing one length octet (255). Run with
    /// `--nocapture`, it prints how many requests it held together.
    #[test]
    fn the_spliced_request_is_the_written_request() {
        let names: Vec<Name> = (1..=253).filter_map(name_of).collect();
        assert_eq!(names.len(), 252);
        let (mut cases, mut long_paths, mut long_frames) = (0, 0, 0);
        for resolver in ResolverDirectory::well_known(40).resolvers() {
            for method in [DohMethod::Get, DohMethod::Post] {
                let client = DohClient::new(resolver.clone()).method(method);
                for name in &names {
                    assert_eq!(name_of(name.wire_len()).as_ref(), Some(name));
                    for rtype in [RrType::A, RrType::Aaaa] {
                        let question = DohQuestion::new(name, rtype).unwrap();
                        for id in [0, 1, 0xBEEF, 0xFFFF] {
                            let transmit = client.begin_query(id, &question);
                            let (payload, connection, id, query) =
                                written_request(&client, id, name, rtype);
                            assert_eq!(transmit.payload, payload, "{name} {rtype} {id}");
                            // What the reply is read against: the lent
                            // question under the id the request carried,
                            // and the connection the finish half makes.
                            assert_eq!(question.query.with_id(id).as_bytes(), query.as_bytes());
                            let (made, stream_id) = ClientConnection::first_request_sent();
                            assert_eq!(stream_id, 1);
                            assert_eq!(format!("{made:?}"), format!("{connection:?}"));
                            // The HEADERS frame's length, behind the envelope
                            // header, the 24-octet preface and the 21-octet
                            // SETTINGS frame.
                            let (_, record) = SecureEnvelope::split(&payload).unwrap();
                            let plain = secure::open(&resolver.key, secure::SEQ_CLIENT, record);
                            let length = plain.unwrap()[45..48]
                                .iter()
                                .fold(0, |length, &octet| length << 8 | usize::from(octet));
                            long_frames += usize::from(length > 255);
                            let path = DOH_PATH.len()
                                + PARAMETER.len()
                                + base64url::encoded_len(query.as_bytes().len());
                            long_paths += usize::from(method == DohMethod::Get && path >= 127);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(long_paths > 0 && long_paths < cases / 2, "{long_paths}");
        assert!(long_frames > 0 && long_frames < cases, "{long_frames}");
        println!(
            "spliced requests: {cases} written octet for octet as the field writer writes \
             them ({long_paths} GET paths past HPACK's 127 prefix, {long_frames} HEADERS \
             frames over 255 octets)"
        );
    }
}
