//! A low-level DNS client: sends one query to one server and validates the
//! response the way a standard stub or recursive resolver would.

use std::time::Duration;

use sdoh_dns_wire::{Message, Name, Rcode, RrType};
use sdoh_netsim::{ChannelKind, SimAddr};

use crate::error::{ResolveError, ResolveResult};
use crate::exchange::{ExchangeRequest, Exchanger};

/// Default query timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(3);

/// A classic ("Do53") DNS client talking to a single server address.
///
/// The client performs the checks a real resolver performs on a response:
/// the transaction id must match, the message must be a response, and the
/// question section must echo the query. These are exactly the checks an
/// off-path attacker must defeat by guessing.
#[derive(Debug, Clone)]
pub struct DnsClient {
    server: SimAddr,
    channel: ChannelKind,
    timeout: Duration,
    recursion_desired: bool,
    use_0x20: bool,
}

/// The attacker-guessable identifiers of one upstream query, chosen by the
/// caller: a hardened resolver randomizes all of them, a weak one keeps
/// them predictable. Used with [`DnsClient::query_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryIdentifiers {
    /// The DNS transaction id the response must echo.
    pub txid: u16,
    /// Ephemeral source port to send from; `None` keeps the exchanger's
    /// default (fixed, predictable) source.
    pub source_port: Option<u16>,
    /// Seed for 0x20 mixed-case query encoding; `None` sends the name in
    /// its canonical case. Only honored when the client has
    /// [`DnsClient::use_0x20`] enabled.
    pub case_seed: Option<u64>,
}

impl QueryIdentifiers {
    /// Draws a fresh 0x20 case seed (32 random bits) from the exchanger's
    /// identifier randomness — the one derivation both [`DnsClient::query`]
    /// and the hardened recursive resolver use.
    pub fn draw_case_seed(exchanger: &mut dyn Exchanger) -> u64 {
        u64::from(exchanger.next_id()) << 16 | u64::from(exchanger.next_id())
    }
}

impl DnsClient {
    /// Creates a client for the given server using a plain (UDP-like)
    /// channel.
    pub fn new(server: SimAddr) -> Self {
        DnsClient {
            server,
            channel: ChannelKind::Plain,
            timeout: DEFAULT_TIMEOUT,
            recursion_desired: true,
            use_0x20: false,
        }
    }

    /// Sets the channel kind used for queries.
    pub fn channel(mut self, channel: ChannelKind) -> Self {
        self.channel = channel;
        self
    }

    /// Sets the query timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets whether queries request recursion (RD bit).
    pub fn recursion_desired(mut self, rd: bool) -> Self {
        self.recursion_desired = rd;
        self
    }

    /// Enables DNS 0x20 mixed-case query encoding: queries are sent with
    /// pseudo-random letter casing and [`DnsClient::finish_query`] rejects
    /// responses whose echoed question does not match the casing
    /// **exactly** ([`ResolveError::Mismatched`]) — forcing an off-path
    /// forger to guess one extra bit per letter of the name.
    pub fn use_0x20(mut self, enabled: bool) -> Self {
        self.use_0x20 = enabled;
        self
    }

    /// The server this client queries.
    pub fn server(&self) -> SimAddr {
        self.server
    }

    /// Sends a single query and returns the validated response message.
    ///
    /// This is the blocking convenience wrapper over the sans-IO halves
    /// [`DnsClient::begin_query`] / [`DnsClient::finish_query`].
    ///
    /// # Errors
    ///
    /// Returns [`ResolveError::Network`] for transport failures,
    /// [`ResolveError::Mismatched`] when the response does not match the
    /// query, and [`ResolveError::ErrorResponse`] for SERVFAIL/REFUSED/
    /// NOTIMP answers. NXDOMAIN and NODATA are *not* errors: the caller
    /// inspects the returned message.
    pub fn query(
        &self,
        exchanger: &mut dyn Exchanger,
        name: &Name,
        rtype: RrType,
    ) -> ResolveResult<Message> {
        let txid = exchanger.next_id();
        let case_seed = self
            .use_0x20
            .then(|| QueryIdentifiers::draw_case_seed(exchanger));
        self.query_with(
            exchanger,
            name,
            rtype,
            QueryIdentifiers {
                txid,
                source_port: None,
                case_seed,
            },
        )
    }

    /// Sends a single query with **caller-chosen identifiers** — the
    /// entry point hardened resolvers use to randomize the transaction
    /// id, source port and query casing of their upstream queries (and
    /// weak baselines use to keep them predictable).
    ///
    /// # Errors
    ///
    /// Same as [`DnsClient::query`].
    pub fn query_with(
        &self,
        exchanger: &mut dyn Exchanger,
        name: &Name,
        rtype: RrType,
        identifiers: QueryIdentifiers,
    ) -> ResolveResult<Message> {
        let cased;
        let query_name = match identifiers.case_seed {
            Some(seed) if self.use_0x20 => {
                cased = name.with_mixed_case(seed);
                &cased
            }
            _ => name,
        };
        let (request, prepared) = self.begin_query(identifiers.txid, query_name, rtype)?;
        let reply_bytes = match identifiers.source_port {
            Some(port) => exchanger.exchange_from_port(
                port,
                request.dst,
                request.channel,
                &request.payload,
                request.timeout,
            )?,
            None => exchanger.exchange(
                request.dst,
                request.channel,
                &request.payload,
                request.timeout,
            )?,
        };
        self.finish_query(prepared, &reply_bytes)
    }

    /// Sans-IO first half of a query: encodes the wire request without
    /// performing any exchange. `id` becomes the DNS transaction id the
    /// response must echo.
    ///
    /// # Errors
    ///
    /// Returns [`ResolveError::Wire`] when the query cannot be encoded.
    pub fn begin_query(
        &self,
        id: u16,
        name: &Name,
        rtype: RrType,
    ) -> ResolveResult<(ExchangeRequest, PreparedDnsQuery)> {
        let mut query = Message::query(id, name.clone(), rtype);
        query.header.recursion_desired = self.recursion_desired;
        let wire = query.encode()?;
        Ok((
            ExchangeRequest::new(self.server, self.channel, wire, self.timeout),
            PreparedDnsQuery { query },
        ))
    }

    /// Sans-IO second half of a query: decodes `reply_bytes` and validates
    /// it the way a standard resolver would (id echo, response bit, question
    /// echo, acceptable rcode).
    ///
    /// # Errors
    ///
    /// Same as [`DnsClient::query`], minus transport errors.
    pub fn finish_query(
        &self,
        prepared: PreparedDnsQuery,
        reply_bytes: &[u8],
    ) -> ResolveResult<Message> {
        let response = Message::decode(reply_bytes)?;
        if !response.answers_query(&prepared.query) {
            return Err(ResolveError::Mismatched);
        }
        if self.use_0x20 {
            // 0x20 verification: the echoed question must match the query
            // name's letter casing exactly, not just case-insensitively.
            let case_ok = match (response.question(), prepared.query.question()) {
                (Some(echoed), Some(sent)) => echoed.name.eq_case_exact(&sent.name),
                _ => false,
            };
            if !case_ok {
                return Err(ResolveError::Mismatched);
            }
        }
        match response.header.rcode {
            Rcode::NoError | Rcode::NxDomain => Ok(response),
            other => Err(ResolveError::ErrorResponse(other)),
        }
    }
}

/// In-flight state of one plain-DNS query between [`DnsClient::begin_query`]
/// and [`DnsClient::finish_query`].
#[derive(Debug, Clone)]
pub struct PreparedDnsQuery {
    query: Message,
}

impl PreparedDnsQuery {
    /// The DNS query this prepared exchange will resolve.
    pub fn query(&self) -> &Message {
        &self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::Authority;
    use crate::catalog::Catalog;
    use crate::exchange::ClientExchanger;
    use crate::service::Do53Service;
    use crate::zone::Zone;
    use sdoh_netsim::SimNet;

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

    #[test]
    fn query_roundtrip_over_simnet() {
        let net = SimNet::new(42);
        let server = SimAddr::v4(198, 51, 100, 53, 53);
        net.register(server, Do53Service::new(pool_authority()));
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));

        let client = DnsClient::new(server);
        let response = client
            .query(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(response.answer_addresses().len(), 4);
    }

    #[test]
    fn refused_is_an_error() {
        let net = SimNet::new(43);
        let server = SimAddr::v4(198, 51, 100, 53, 53);
        net.register(server, Do53Service::new(pool_authority()));
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));

        let client = DnsClient::new(server);
        let err = client
            .query(
                &mut exchanger,
                &"www.example.com".parse().unwrap(),
                RrType::A,
            )
            .unwrap_err();
        assert_eq!(err, ResolveError::ErrorResponse(Rcode::Refused));
    }

    #[test]
    fn nxdomain_is_not_an_error() {
        let net = SimNet::new(44);
        let server = SimAddr::v4(198, 51, 100, 53, 53);
        net.register(server, Do53Service::new(pool_authority()));
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));

        let client = DnsClient::new(server);
        let response = client
            .query(&mut exchanger, &"nope.ntp.org".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(response.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn unreachable_server_is_a_network_error() {
        let net = SimNet::new(45);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let client = DnsClient::new(SimAddr::v4(192, 0, 2, 99, 53)).timeout(Duration::from_secs(1));
        let err = client
            .query(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap_err();
        assert!(matches!(err, ResolveError::Network(_)));
    }

    #[test]
    fn builder_setters() {
        let client = DnsClient::new(SimAddr::v4(1, 1, 1, 1, 53))
            .channel(ChannelKind::Secure)
            .timeout(Duration::from_millis(500))
            .recursion_desired(false)
            .use_0x20(true);
        assert_eq!(client.server(), SimAddr::v4(1, 1, 1, 1, 53));
        assert_eq!(client.timeout, Duration::from_millis(500));
        assert!(!client.recursion_desired);
        assert_eq!(client.channel, ChannelKind::Secure);
        assert!(client.use_0x20);
    }

    #[test]
    fn x20_roundtrips_against_a_case_echoing_server() {
        let net = SimNet::new(46);
        let server = SimAddr::v4(198, 51, 100, 53, 53);
        net.register(server, Do53Service::new(pool_authority()));
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));

        let client = DnsClient::new(server).use_0x20(true);
        let response = client
            .query(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(response.answer_addresses().len(), 4);
    }

    #[test]
    fn x20_rejects_a_case_normalizing_forgery() {
        use sdoh_netsim::{FnService, ServiceResponse};

        // A forger that knows the name only in its canonical lowercase
        // form: it echoes the txid but rewrites the question to lowercase.
        let net = SimNet::new(47);
        let server = SimAddr::v4(198, 51, 100, 54, 53);
        net.register(
            server,
            FnService::new("lowercasing-forger", |_ctx, _from, _ch, payload: &[u8]| {
                let query = Message::decode(payload).unwrap();
                let mut response = Message::response_to(&query);
                response.questions[0].name = query
                    .question()
                    .unwrap()
                    .name
                    .to_lowercase_string()
                    .parse()
                    .unwrap();
                response.add_answer(sdoh_dns_wire::Record::address(
                    response.questions[0].name.clone(),
                    300,
                    "198.18.0.1".parse().unwrap(),
                ));
                ServiceResponse::Reply(response.encode().unwrap())
            }),
        );
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));

        // Find a seed whose casing is not all-lowercase (overwhelmingly
        // likely; the loop guards against an unlucky simulation seed).
        let name: Name = "pool.ntp.org".parse().unwrap();
        let client = DnsClient::new(server).use_0x20(true);
        let mut rejected = false;
        for _ in 0..4 {
            match client.query(&mut exchanger, &name, RrType::A) {
                Err(ResolveError::Mismatched) => {
                    rejected = true;
                    break;
                }
                Ok(_) => continue, // casing came out all-lowercase; retry
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(rejected, "lowercased echo must fail 0x20 verification");

        // The same forgery passes once 0x20 verification is off.
        let lax = DnsClient::new(server);
        assert!(lax.query(&mut exchanger, &name, RrType::A).is_ok());
    }

    #[test]
    fn query_with_sends_from_the_requested_ephemeral_port() {
        use sdoh_netsim::{FnService, ServiceResponse};
        use std::cell::Cell;
        use std::rc::Rc;

        let net = SimNet::new(48);
        let server = SimAddr::v4(198, 51, 100, 55, 53);
        let seen_port = Rc::new(Cell::new(0u16));
        let seen = Rc::clone(&seen_port);
        net.register(
            server,
            FnService::new(
                "port-recorder",
                move |_ctx, from: SimAddr, _ch, p: &[u8]| {
                    seen.set(from.port);
                    let query = Message::decode(p).unwrap();
                    ServiceResponse::Reply(Message::response_to(&query).encode().unwrap())
                },
            ),
        );
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let client = DnsClient::new(server);

        client
            .query_with(
                &mut exchanger,
                &"pool.ntp.org".parse().unwrap(),
                RrType::A,
                QueryIdentifiers {
                    txid: 77,
                    source_port: Some(61234),
                    case_seed: None,
                },
            )
            .unwrap();
        assert_eq!(seen_port.get(), 61234);

        client
            .query(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(seen_port.get(), 40000, "default source port untouched");
    }
}
