//! Adapters exposing [`QueryHandler`]s as Do53 endpoints: the
//! transport-independent wire termination ([`serve_do53_payload`]) plus
//! the simulated network service built on it ([`Do53Service`]).

use sdoh_dns_wire::{Header, Message, Rcode, WireReader, WireResult};
use sdoh_netsim::{ChannelKind, Ctx, Service, ServiceResponse, SimAddr};

use crate::exchange::Exchanger;
use crate::handler::QueryHandler;

/// Terminates one classic-DNS wire payload against `handler`: decode the
/// query, answer it in wire form (upstream lookups go through
/// `exchanger`). `None` means "send nothing" — a malformed query under
/// `drop_malformed`, or the (theoretical) failure to encode even an error
/// response; the peer observes a timeout.
///
/// This is the shared core of every Do53 front end: the simulator's
/// [`Do53Service`] calls it with the simulation `Ctx` as the exchanger, a
/// real-socket runtime calls [`serve_do53_payload_into`] with its own
/// exchanger and buffer — mirroring how the DoH layer splits
/// `serve_payload` from its service adapter.
pub fn serve_do53_payload(
    handler: &mut dyn QueryHandler,
    exchanger: &mut dyn Exchanger,
    payload: &[u8],
    drop_malformed: bool,
) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(512);
    serve_do53_payload_into(handler, exchanger, payload, drop_malformed, &mut out);
    (!out.is_empty()).then_some(out)
}

/// [`serve_do53_payload`] into a caller-owned buffer: `out` is replaced by
/// the response, or left empty for "send nothing". Returns the decoded
/// query (`None` when the payload was malformed) for front ends that go on
/// to reframe the answer, e.g. truncate it for UDP.
///
/// The two halves around the handler call — [`decode_do53_query`] and
/// [`finish_do53_answer`] — are public for a front end that cannot answer
/// in one call (a shard that parks a cache miss and answers it when its
/// generation lands): it runs the same halves around its own handler steps.
pub fn serve_do53_payload_into(
    handler: &mut dyn QueryHandler,
    exchanger: &mut dyn Exchanger,
    payload: &[u8],
    drop_malformed: bool,
    out: &mut Vec<u8>,
) -> Option<Message> {
    let query = decode_do53_query(payload, drop_malformed, out)?;
    let rendered = handler.handle_query_wire(exchanger, &query, out);
    finish_do53_answer(&query, rendered, out);
    Some(query)
}

/// The decode half of the Do53 core. `out` is cleared; a payload that does
/// not decode is answered there — a best-effort FORMERR, or nothing under
/// `drop_malformed` — and `None` comes back. The FORMERR carries the id,
/// opcode and RD bit of the payload's header when all 12 octets of it
/// arrived (RFC 1035 4.1.1), so the client that sent it can match it.
pub fn decode_do53_query(
    payload: &[u8],
    drop_malformed: bool,
    out: &mut Vec<u8>,
) -> Option<Message> {
    out.clear();
    let Ok(query) = Message::decode(payload) else {
        if !drop_malformed {
            // Best effort FORMERR with an empty question section.
            let mut response = Message::new();
            if let Ok(header) = Header::decode(&mut WireReader::new(payload)) {
                response.header = Header::response_to(&header);
            }
            response.header.response = true;
            response.header.rcode = Rcode::FormErr;
            let _ = response.encode_into(out);
        }
        return None;
    };
    Some(query)
}

/// The closing half of the Do53 core: `rendered` is what writing the answer
/// to `query` into `out` came to; one that failed to encode is replaced by
/// SERVFAIL (and `out` left empty if even that does not encode).
pub fn finish_do53_answer(query: &Message, rendered: WireResult<()>, out: &mut Vec<u8>) {
    if rendered.is_err() {
        let _ = Message::error_response(query, Rcode::ServFail).encode_into(out);
    }
}

/// A classic DNS service: decodes query bytes, hands the message to a
/// [`QueryHandler`] and encodes the response.
#[derive(Debug)]
pub struct Do53Service<H> {
    handler: H,
}

impl<H: QueryHandler> Do53Service<H> {
    /// Creates a DNS service around the given handler.
    pub fn new(handler: H) -> Self {
        Do53Service { handler }
    }

    /// Access to the wrapped handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }
}

impl<H: QueryHandler> Service for Do53Service<H> {
    fn handle(
        &mut self,
        ctx: &mut Ctx<'_>,
        _from: SimAddr,
        _channel: ChannelKind,
        payload: &[u8],
    ) -> ServiceResponse {
        match serve_do53_payload(&mut self.handler, ctx, payload, false) {
            Some(bytes) => ServiceResponse::Reply(bytes),
            None => ServiceResponse::NoReply,
        }
    }

    fn name(&self) -> &str {
        "do53"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::Authority;
    use crate::catalog::Catalog;
    use crate::zone::Zone;
    use sdoh_dns_wire::RrType;
    use sdoh_netsim::SimNet;
    use std::time::Duration;

    fn service() -> Do53Service<Authority> {
        let mut zone = Zone::new("example.org".parse().unwrap());
        zone.add_address(
            "www.example.org".parse().unwrap(),
            "192.0.2.80".parse().unwrap(),
        );
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        Do53Service::new(Authority::new(catalog))
    }

    #[test]
    fn answers_well_formed_queries() {
        let net = SimNet::new(7);
        let addr = SimAddr::v4(198, 51, 100, 53, 53);
        net.register(addr, service());
        let query = Message::query(3, "www.example.org".parse().unwrap(), RrType::A);
        let reply = net
            .transact(
                SimAddr::v4(10, 0, 0, 1, 40000),
                addr,
                ChannelKind::Plain,
                &query.encode().unwrap(),
                Duration::from_secs(1),
            )
            .unwrap();
        let response = Message::decode(&reply).unwrap();
        assert_eq!(response.answer_addresses().len(), 1);
        assert!(response.answers_query(&query));
    }

    #[test]
    fn malformed_query_gets_formerr() {
        let net = SimNet::new(8);
        let addr = SimAddr::v4(198, 51, 100, 53, 53);
        net.register(addr, service());
        let reply = net
            .transact(
                SimAddr::v4(10, 0, 0, 1, 40000),
                addr,
                ChannelKind::Plain,
                b"garbage",
                Duration::from_secs(1),
            )
            .unwrap();
        let response = Message::decode(&reply).unwrap();
        assert_eq!(response.header.rcode, Rcode::FormErr);
    }

    #[test]
    fn a_formerr_echoes_the_header_that_arrived() {
        // A query whose question is cut short: id 0xBEEF, RD set, one
        // question announced, three octets of it sent.
        let mut cut = Message::query(0xBEEF, "www.example.org".parse().unwrap(), RrType::A)
            .encode()
            .unwrap();
        cut.truncate(15);
        let mut out = Vec::new();
        assert!(decode_do53_query(&cut, false, &mut out).is_none());
        let formerr = Message::decode(&out).unwrap();
        assert_eq!(formerr.header.rcode, Rcode::FormErr);
        assert!(formerr.header.response);
        assert_eq!(formerr.header.id, 0xBEEF, "the stub matches it by id");
        assert!(formerr.header.recursion_desired);
        assert!(formerr.questions.is_empty());
        // Under 12 octets there is no header to echo.
        assert!(decode_do53_query(&cut[..11], false, &mut out).is_none());
        let formerr = Message::decode(&out).unwrap();
        assert_eq!(
            (formerr.header.id, formerr.header.rcode),
            (0, Rcode::FormErr)
        );
    }

    /// Answers in wire form with bytes no `Message` encodes to.
    struct Canned;

    impl QueryHandler for Canned {
        fn handle_query(&mut self, _: &mut dyn Exchanger, query: &Message) -> Message {
            Message::error_response(query, Rcode::Refused)
        }

        fn handle_query_wire(
            &mut self,
            _: &mut dyn Exchanger,
            _: &Message,
            out: &mut Vec<u8>,
        ) -> sdoh_dns_wire::WireResult<()> {
            out.clear();
            out.extend_from_slice(b"canned");
            Ok(())
        }
    }

    #[test]
    fn payloads_are_answered_through_the_wire_form_of_the_handler() {
        let net = SimNet::new(10);
        let mut exchanger =
            crate::exchange::ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 1000));
        let query = Message::query(3, "www.example.org".parse().unwrap(), RrType::A);
        let wire = query.encode().unwrap();

        // A handler's own wire form is what goes out, behind every
        // forwarding wrapper.
        let mut boxed: Box<dyn QueryHandler> = Box::new(Canned);
        let mut locked = std::sync::Arc::new(parking_lot::Mutex::new(Canned));
        let handlers: [&mut dyn QueryHandler; 3] = [&mut Canned, &mut boxed, &mut locked];
        for handler in handlers {
            let reply = serve_do53_payload(handler, &mut exchanger, &wire, false);
            assert_eq!(reply.as_deref(), Some(&b"canned"[..]));
        }

        // Without one, it is the message, encoded.
        let mut authority = service().handler;
        let mut out = b"left over".to_vec();
        let decoded =
            serve_do53_payload_into(&mut authority, &mut exchanger, &wire, false, &mut out);
        assert_eq!(decoded, Some(query.clone()));
        assert_eq!(out, authority.answer(&query).encode().unwrap());

        // Malformed payloads have no query to hand back.
        let decoded =
            serve_do53_payload_into(&mut authority, &mut exchanger, b"junk", false, &mut out);
        assert_eq!(decoded, None);
        assert_eq!(Message::decode(&out).unwrap().header.rcode, Rcode::FormErr);
        serve_do53_payload_into(&mut authority, &mut exchanger, b"junk", true, &mut out);
        assert!(out.is_empty());
        assert_eq!(
            serve_do53_payload(&mut authority, &mut exchanger, b"junk", true),
            None
        );
    }

    #[test]
    fn handler_accessors() {
        let svc = service();
        assert_eq!(Service::name(&svc), "do53");
    }
}
