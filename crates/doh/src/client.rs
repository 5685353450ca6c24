//! The DNS-over-HTTPS client (RFC 8484).

use std::net::IpAddr;
use std::time::Duration;

use bytes::BufMut;
use sdoh_dns_server::Exchanger;
use sdoh_dns_wire::{base64url, Message, MessageView, Name, Opcode, QueryWire, Rcode, RrType};
use sdoh_netsim::ChannelKind;

use crate::directory::ResolverInfo;
use crate::error::{DohError, DohResult};
use crate::h2::ClientConnection;
use crate::http::Method;
use crate::secure::{self, SecureEnvelope};

/// The media type DoH exchanges use.
pub const DNS_MESSAGE_CONTENT_TYPE: &str = "application/dns-message";
/// The well-known DoH path.
pub const DOH_PATH: &str = "/dns-query";

/// Which RFC 8484 method the client uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DohMethod {
    /// `GET` with the base64url-encoded query in the `dns` parameter.
    #[default]
    Get,
    /// `POST` with the query as the request body.
    Post,
}

/// A DoH client bound to one resolver.
///
/// Each query opens a fresh HTTP/2 connection over the secure channel, which
/// keeps the client stateless and the failure model per-query. Measured on
/// one core of a 2-vCPU host (release build), an address source's exchange
/// with an in-process terminator over an 8-address zone takes ~2.9 us, of
/// which the two connection constructors are ~0.06 us; the preface and
/// SETTINGS frames are 69 of the ~480 octets it seals (186 out, 296 back
/// for `dns.example`). A connection kept per resolver would save little
/// (ROADMAP item 6 has the figures).
#[derive(Debug, Clone)]
pub struct DohClient {
    resolver: ResolverInfo,
    method: DohMethod,
    timeout: Duration,
}

impl DohClient {
    /// Creates a client for the given resolver using the GET method.
    pub fn new(resolver: ResolverInfo) -> Self {
        DohClient {
            resolver,
            method: DohMethod::Get,
            timeout: Duration::from_secs(3),
        }
    }

    /// Selects the RFC 8484 method.
    pub fn method(mut self, method: DohMethod) -> Self {
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
        let id = match self.method {
            DohMethod::Get => 0,
            DohMethod::Post => exchanger.next_id(),
        };
        let (transmit, prepared) = self.begin_query(id, name, rtype)?;
        let mut reply = exchanger.exchange(
            transmit.dst,
            transmit.channel,
            &transmit.payload,
            transmit.timeout,
        )?;
        self.finish_query(prepared, &mut reply)
    }

    /// Sans-IO first half of a query: builds everything that must go on the
    /// wire without performing any exchange.
    ///
    /// Returns the [`DohTransmit`] describing the bytes to send and the
    /// [`PreparedDohQuery`] holding the connection state needed to decode
    /// the eventual reply with [`DohClient::finish_query`]. A driver may
    /// keep any number of prepared queries in flight concurrently.
    ///
    /// `id` is the DNS transaction id; per RFC 8484 §4.1 pass 0 for GET
    /// (cache friendliness) and a random id for POST.
    ///
    /// # Errors
    ///
    /// Returns [`DohError::Wire`] when the query cannot be encoded.
    pub fn begin_query(
        &self,
        id: u16,
        name: &Name,
        rtype: RrType,
    ) -> DohResult<(DohTransmit, PreparedDohQuery)> {
        // RFC 8484 §4.1: use DNS id 0 with GET for cache friendliness.
        let id = match self.method {
            DohMethod::Get => 0,
            DohMethod::Post => id,
        };
        // The octets `Message::query(id, name, rtype).encode()` writes,
        // held inline: sent, and kept to check the answer's echo against.
        let query = QueryWire::new(id, name, rtype)?;
        // One buffer from the envelope header to the record tag: the
        // connection queues its frames behind the header, the request's
        // fields written straight from the resolver name and the query, and
        // the record is sealed where they lie.
        let payload = SecureEnvelope::begin(&self.resolver.name);
        let record_at = payload.len();
        let mut connection = ClientConnection::with_output(payload);
        let (stream_id, mut request) = connection.open_stream();
        let method = match self.method {
            DohMethod::Get => Method::Get,
            DohMethod::Post => Method::Post,
        };
        request
            .field(":method", method.as_str())
            .field(":scheme", "https")
            .field(":authority", &self.resolver.name);
        match self.method {
            DohMethod::Get => {
                // The path's text is written into the header block where it
                // goes, the query's base64url behind its prefix.
                const PARAMETER: &str = "?dns=";
                let octets = query.as_bytes();
                let len = DOH_PATH.len() + PARAMETER.len() + base64url::encoded_len(octets.len());
                request
                    .field_with(":path", len, |out| {
                        out.put_slice(DOH_PATH.as_bytes());
                        out.put_slice(PARAMETER.as_bytes());
                        base64url::encode_into(octets, out);
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
            &self.resolver.key,
            secure::SEQ_CLIENT,
            &mut payload,
            record_at,
        );
        Ok((
            DohTransmit::new(
                self.resolver.addr,
                ChannelKind::Secure,
                payload,
                self.timeout,
            ),
            PreparedDohQuery {
                connection,
                stream_id,
                id,
                query,
            },
        ))
    }

    /// Sans-IO second half of a query: authenticates, decodes and validates
    /// the reply bytes produced by the exchange described by the matching
    /// [`DohTransmit`], and returns the DNS response — the checks of
    /// [`DohClient::finish_addresses`], then the owned copy.
    ///
    /// # Errors
    ///
    /// Same error surface as [`DohClient::query`], minus the transport
    /// errors (the driver owns those).
    pub fn finish_query(&self, prepared: PreparedDohQuery, reply: &mut [u8]) -> DohResult<Message> {
        Ok(self.finish_with(prepared, reply, None, |answer| answer.to_message())??)
    }

    /// The second half of an address source's query: the reply's checks,
    /// and the response code and the addresses of the type asked for, in
    /// answer order, read where they lie on the walk that validates the
    /// answer. `reply` is opened where it lies (it holds plaintext
    /// afterwards).
    ///
    /// # Errors
    ///
    /// As [`DohClient::finish_query`].
    pub fn finish_addresses(
        &self,
        prepared: PreparedDohQuery,
        reply: &mut [u8],
    ) -> DohResult<(Rcode, Vec<IpAddr>)> {
        let mut addresses = Vec::new();
        let rcode = self.finish_with(prepared, reply, Some(&mut addresses), |answer| {
            answer.header().rcode
        })?;
        Ok((rcode, addresses))
    }

    /// The one validation chain of a reply, with `read` as its ending:
    /// `reply` is opened where it lies, the envelope must name this
    /// resolver, the HTTP/2 response on the request stream must be a 200 of
    /// type `application/dns-message` whose `content-length`, if it gives
    /// one, is its body's, that body one well-formed DNS message — its
    /// addresses of the asked type collected into `addresses` on the walk
    /// that validates it — and that message a response to the query — QR
    /// set, the query's opcode and id (0 under GET) and its question
    /// echoed. `read` then sees the message where it lies.
    fn finish_with<T>(
        &self,
        prepared: PreparedDohQuery,
        reply: &mut [u8],
        addresses: Option<&mut Vec<IpAddr>>,
        read: impl FnOnce(&MessageView<'_>) -> T,
    ) -> DohResult<T> {
        let PreparedDohQuery {
            mut connection,
            stream_id,
            id,
            query,
        } = prepared;

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
        if !answer.echoes(&query) {
            return Err(DohError::Protocol(
                "response question does not match query".into(),
            ));
        }
        Ok(read(&answer))
    }
}

/// Everything a driver must put on the wire for one DoH query — the
/// simulator's batch-request type re-exported under the DoH vocabulary
/// (`dst` is the resolver endpoint, `channel` always
/// [`ChannelKind::Secure`], `payload` the sealed envelope carrying the
/// HTTP/2 request). The caller owns the transport.
pub use sdoh_netsim::ConcurrentRequest as DohTransmit;

/// In-flight state of one DoH query between [`DohClient::begin_query`] and
/// [`DohClient::finish_query`] (or [`DohClient::finish_addresses`]): the
/// HTTP/2 client connection, the stream the request went out on, and the
/// id and the query's octets to validate the response against.
#[derive(Debug)]
pub struct PreparedDohQuery {
    connection: ClientConnection,
    stream_id: u32,
    id: u16,
    query: QueryWire,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::ResolverDirectory;
    use crate::server::DohServerService;
    use sdoh_dns_server::{Authority, Catalog, ClientExchanger, Zone};
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
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 50000));
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
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 50000));
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
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 50000));
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
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 50000));
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
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 50000));
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
            let (_, prepared) = client.begin_query(0, &name, RrType::A).unwrap();
            client.finish_query(prepared, &mut reply(length))
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
}
