//! The DNS-over-HTTPS server service (RFC 8484).
//!
//! The core processing path ([`DohServerService::serve_payload`]) is
//! generic over the [`Exchanger`] the wrapped handler uses for upstream
//! queries, so the same service instance can terminate DoH traffic on a
//! simulated endpoint (the [`Service`] impl, where the exchanger is the
//! simulator's `Ctx`) **or** serve as an in-process backend of the
//! real-socket runtime, where the exchanger is whatever the runtime
//! provides.

use sdoh_dns_server::{Exchanger, QueryHandler};
use sdoh_dns_wire::{base64url, Message, MessageView};
use sdoh_netsim::{ChannelKind, Ctx, Service, ServiceResponse, SimAddr};

use crate::client::{DNS_MESSAGE_CONTENT_TYPE, DOH_PATH};
use crate::directory::ResolverInfo;
use crate::error::DohResult;
use crate::h2::ServerConnection;
use crate::http::{Method, Request, Response, StatusCode};
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
    /// The last client record opened, its plaintext in place.
    opened: Vec<u8>,
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

    /// Mutable access to the wrapped handler.
    pub fn handler_mut(&mut self) -> &mut H {
        &mut self.handler
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
        self.process(exchanger, payload).ok()
    }

    fn process(&mut self, exchanger: &mut dyn Exchanger, payload: &[u8]) -> DohResult<Vec<u8>> {
        let (server_name, record) = SecureEnvelope::split(payload)?;
        if server_name != self.identity.name {
            return Err(crate::error::DohError::ChannelAuthentication(format!(
                "client addressed {server_name} but this endpoint is {}",
                self.identity.name
            )));
        }
        // The payload is the transport's, so the record is deciphered in a
        // buffer of the service's, reused from one payload to the next.
        self.opened.clear();
        self.opened.extend_from_slice(record);
        let client_h2 =
            secure::open_in_place(&self.identity.key, secure::SEQ_CLIENT, &mut self.opened)?;

        // The reply is one buffer from the envelope header to the record
        // tag, as the request was (`DohClient::begin_query`).
        let reply = SecureEnvelope::begin(&self.identity.name);
        let record_at = reply.len();
        let mut connection = ServerConnection::with_output(reply);
        let requests = connection.receive(client_h2)?;
        for (stream_id, request) in requests {
            let response = self.handle_http(exchanger, &request);
            connection.send_response(stream_id, &response);
        }
        let mut reply = connection.take_output();
        secure::seal_in_place(
            &self.identity.key,
            secure::SEQ_SERVER,
            &mut reply,
            record_at,
        );
        Ok(reply)
    }

    fn handle_http(&mut self, exchanger: &mut dyn Exchanger, request: &Request) -> Response {
        if request.path_without_query() != DOH_PATH {
            return Response::new(StatusCode::NOT_FOUND);
        }
        let query_wire: Vec<u8> = match request.method {
            Method::Get => match request.query_param("dns") {
                Some(encoded) => match base64url::decode(encoded) {
                    Ok(bytes) => bytes,
                    Err(_) => return Response::new(StatusCode::BAD_REQUEST),
                },
                None => return Response::new(StatusCode::BAD_REQUEST),
            },
            Method::Post => {
                match request.headers.get("content-type") {
                    Some(ct) if ct.eq_ignore_ascii_case(DNS_MESSAGE_CONTENT_TYPE) => {}
                    _ => return Response::new(StatusCode::UNSUPPORTED_MEDIA_TYPE),
                }
                request.body.clone()
            }
        };
        if query_wire.len() > sdoh_dns_wire::MAX_MESSAGE_SIZE {
            return Response::new(StatusCode::PAYLOAD_TOO_LARGE);
        }
        let query = match Message::decode(&query_wire) {
            Ok(message) => message,
            Err(_) => return Response::new(StatusCode::BAD_REQUEST),
        };
        self.queries_served += 1;
        let mut answer = Vec::with_capacity(512);
        if self
            .handler
            .handle_query_wire(exchanger, &query, &mut answer)
            .is_err()
        {
            return Response::new(StatusCode::INTERNAL_SERVER_ERROR);
        }
        // The answer records' least TTL, read where the handler wrote them
        // (0 for an answer without any, or octets too short to hold them).
        let min_ttl = MessageView::locate(&answer)
            .ok()
            .and_then(|written| written.answers().map(|record| record.ttl).min())
            .unwrap_or(0);
        let mut response = Response::ok(DNS_MESSAGE_CONTENT_TYPE, answer);
        response
            .headers
            .set_display("cache-control", format_args!("max-age={min_ttl}"));
        response
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
    use sdoh_dns_server::{Authority, Catalog, ClientExchanger, Zone};
    use sdoh_dns_wire::RrType;
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
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 7, 50000));
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
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 7, 50000));
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
        let mut service = DohServerService::new(info, authority());
        assert_eq!(service.queries_served(), 0);
        assert_eq!(service.handler().catalog().len(), 1);
        service
            .handler_mut()
            .catalog_mut()
            .add_zone(Zone::new("added.test".parse().unwrap()));
        assert_eq!(service.handler().catalog().len(), 2);
        assert_eq!(Service::name(&service), "doh-server");
    }
}
