//! The [`QueryHandler`] trait: anything that can turn a DNS query message
//! into a response message, possibly by querying other servers.

use sdoh_dns_wire::{Message, QueryView, WireResult};

use crate::authority::Authority;
use crate::exchange::Exchanger;

/// A DNS query-answering component.
///
/// Authoritative servers answer from zone data, recursive resolvers answer
/// by iterating over the delegation tree, forwarders answer by asking an
/// upstream resolver, and compromised resolvers answer with whatever the
/// attacker configured.
pub trait QueryHandler {
    /// Produces a response for `query`, using `exchanger` for any upstream
    /// queries this handler needs to make.
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message;

    /// Answers `query` straight in wire form, replacing the contents of
    /// `out` — what [`serve_do53_payload`](crate::serve_do53_payload) calls,
    /// and `sdoh-doh`'s `DohServerService` for every DoH request. The query
    /// is lent: read where it lies in the octets it arrived in
    /// ([`QueryView`]), never decoded into a [`Message`] on the way here. A
    /// handler that can write its answer from the view (pre-encoded answers,
    /// an [`Authority`] answering from its index) overrides this; the
    /// default decodes the owned copy for [`handle_query`] and encodes what
    /// it returns, for a handler with no wire path. Either way the bytes
    /// must equal `handle_query(&query.to_message()?)` encoded.
    ///
    /// Returns the least TTL of the answer's answer records when the
    /// handler knows it without reading `out` back — a pre-encoded answer
    /// with one TTL for all its records — and `None` when it does not; a
    /// caller wanting the TTL then reads it from `out`. A wrapper that
    /// forwards the query passes the inner handler's value through.
    ///
    /// # Errors
    ///
    /// The response's encoding error; `out` is left empty.
    ///
    /// [`handle_query`]: QueryHandler::handle_query
    fn handle_query_wire(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &QueryView<'_>,
        out: &mut Vec<u8>,
    ) -> WireResult<Option<u32>> {
        let query = query.to_message()?;
        self.handle_query(exchanger, &query)
            .encode_into(out)
            .map(|()| None)
    }

    /// Human-readable name used in diagnostics.
    fn handler_name(&self) -> &str {
        "query-handler"
    }
}

impl<H: QueryHandler + ?Sized> QueryHandler for Box<H> {
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        (**self).handle_query(exchanger, query)
    }

    fn handle_query_wire(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &QueryView<'_>,
        out: &mut Vec<u8>,
    ) -> WireResult<Option<u32>> {
        (**self).handle_query_wire(exchanger, query, out)
    }

    fn handler_name(&self) -> &str {
        (**self).handler_name()
    }
}

/// The shared handler: lets the same component be registered as a network
/// service *and* kept on the driver's side of the simulation, and crosses
/// threads, which the real-socket serving runtime requires.
///
/// Each query locks the handler for the duration of `handle_query`, so a
/// handler shared between a registered service and a driver (or between a
/// serving thread and a stats thread) serializes its queries. A handler
/// transitively querying itself would deadlock; none of the in-tree
/// handlers re-enter themselves.
impl<H: QueryHandler> QueryHandler for std::sync::Arc<parking_lot::Mutex<H>> {
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        self.lock().handle_query(exchanger, query)
    }

    fn handle_query_wire(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &QueryView<'_>,
        out: &mut Vec<u8>,
    ) -> WireResult<Option<u32>> {
        self.lock().handle_query_wire(exchanger, query, out)
    }

    fn handler_name(&self) -> &str {
        "shared-query-handler"
    }
}

impl QueryHandler for Authority {
    fn handle_query(&mut self, _exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        self.answer(query)
    }

    fn handle_query_wire(
        &mut self,
        _exchanger: &mut dyn Exchanger,
        query: &QueryView<'_>,
        out: &mut Vec<u8>,
    ) -> WireResult<Option<u32>> {
        self.answer_into(query, out)
    }

    fn handler_name(&self) -> &str {
        "authority"
    }
}

/// A handler built from a closure, convenient for tests and for modelling
/// arbitrarily misbehaving servers.
pub struct FnHandler<F> {
    name: String,
    f: F,
}

impl<F> FnHandler<F>
where
    F: FnMut(&mut dyn Exchanger, &Message) -> Message,
{
    /// Creates a handler from a closure.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnHandler {
            name: name.into(),
            f,
        }
    }
}

impl<F> QueryHandler for FnHandler<F>
where
    F: FnMut(&mut dyn Exchanger, &Message) -> Message,
{
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        (self.f)(exchanger, query)
    }

    fn handler_name(&self) -> &str {
        &self.name
    }
}

impl<F> std::fmt::Debug for FnHandler<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnHandler")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::zone::Zone;
    use sdoh_dns_wire::{Rcode, RrType};
    use sdoh_netsim::{SimAddr, SimNet};

    #[test]
    fn authority_is_a_query_handler() {
        let mut catalog = Catalog::new();
        let mut zone = Zone::new("example.org".parse().unwrap());
        zone.add_address(
            "www.example.org".parse().unwrap(),
            "192.0.2.80".parse().unwrap(),
        );
        catalog.add_zone(zone);
        let mut authority = Authority::new(catalog);
        assert_eq!(authority.handler_name(), "authority");

        let net = SimNet::new(1);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 1000));
        let query = Message::query(9, "www.example.org".parse().unwrap(), RrType::A);
        let response = authority.handle_query(&mut exchanger, &query);
        assert_eq!(response.answer_addresses().len(), 1);
    }

    #[test]
    fn arc_mutex_handler_is_shared_and_send() {
        let mut catalog = Catalog::new();
        let mut zone = Zone::new("example.org".parse().unwrap());
        zone.add_address(
            "www.example.org".parse().unwrap(),
            "192.0.2.80".parse().unwrap(),
        );
        catalog.add_zone(zone);
        let shared = std::sync::Arc::new(parking_lot::Mutex::new(Authority::new(catalog)));
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&shared);

        let mut handle = std::sync::Arc::clone(&shared);
        assert_eq!(handle.handler_name(), "shared-query-handler");
        let net = SimNet::new(3);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 1000));
        let query = Message::query(9, "www.example.org".parse().unwrap(), RrType::A);
        let response = handle.handle_query(&mut exchanger, &query);
        assert_eq!(response.answer_addresses().len(), 1);
        // The original handle observes the state the clone served through.
        assert_eq!(shared.lock().handler_name(), "authority");
    }

    #[test]
    fn fn_handler_wraps_closures() {
        let mut handler = FnHandler::new("servfail", |_ex: &mut dyn Exchanger, q: &Message| {
            Message::error_response(q, Rcode::ServFail)
        });
        assert_eq!(handler.handler_name(), "servfail");
        let net = SimNet::new(2);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 1000));
        let query = Message::query(1, "x.test".parse().unwrap(), RrType::A);
        let response = handler.handle_query(&mut exchanger, &query);
        assert_eq!(response.header.rcode, Rcode::ServFail);
        assert!(!format!("{handler:?}").is_empty());
    }
}
