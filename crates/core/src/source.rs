//! Address sources: the per-resolver lookup abstraction Algorithm 1 fans
//! out over.
//!
//! A source is the two sans-IO halves of one lookup:
//! [`AddressSource::start_fetch`] *describes* the exchange and
//! [`AddressSource::handle_response`] decodes its outcome, so a session
//! driver can keep many lookups from many sources in flight concurrently
//! ([`crate::PoolSession`]). Nothing is carried between the halves but
//! what the session keeps anyway: the question it lends to both and the
//! transaction id it drew. Both halves append what they read to the one
//! answer buffer the session lends them.

use std::net::IpAddr;

use sdoh_dns_server::ExchangeRequest;
use sdoh_dns_wire::{Rcode, RrType};
use sdoh_doh::{DohClient, DohMethod, DohQuestion, ResolverInfo};
use sdoh_netsim::NetResult;

/// Why one resolver failed to produce an address list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// The transport failed (timeout, unreachable, partition).
    Transport(String),
    /// The resolver answered with an error response code.
    ErrorResponse(String),
    /// The answer could not be parsed or validated.
    Protocol(String),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Transport(msg) => write!(f, "transport failure: {msg}"),
            FetchError::ErrorResponse(msg) => write!(f, "error response: {msg}"),
            FetchError::Protocol(msg) => write!(f, "protocol failure: {msg}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// How one fetch begins: either an exchange the driver must perform, or an
/// immediately available answer (static/test sources).
#[derive(Debug)]
pub enum FetchStart {
    /// Perform this exchange and hand the outcome to
    /// [`AddressSource::handle_response`].
    Transmit(ExchangeRequest),
    /// The lookup resolved without any network traffic: its addresses were
    /// appended to the buffer [`AddressSource::start_fetch`] was lent, or
    /// it failed.
    Immediate(Result<(), FetchError>),
}

/// A single source of address lists — one DoH resolver, one plain resolver,
/// or a test stub.
///
/// Sources are `Send + Sync`: a [`SecurePoolGenerator`](crate::SecurePoolGenerator)
/// (and everything layered on it, up to the serving subsystem) sits behind
/// a shard's lock in a real-socket runtime, stepped by whichever thread
/// holds the lock, and shares its source set with the sessions it has in
/// flight, which outlive the call that opened them.
/// Sources built from plain configuration data (all the in-tree ones)
/// satisfy the bounds for free; a source sharing state with its test must
/// use `Arc`/atomics instead of `Rc`/`Cell`.
pub trait AddressSource: Send + Sync {
    /// A stable, human-readable identifier (used for provenance in the
    /// generated pool). A generator copies it once, when its source set is
    /// made.
    fn source_name(&self) -> &str;

    /// Sans-IO first half of one lookup: describes the exchange needed to
    /// resolve the address records `question` asks for — encoded once, for
    /// every source of the generation to ask. `id` is the transaction id to
    /// use if the source's protocol needs one. A source that answers
    /// without I/O appends its addresses to `answers`.
    fn start_fetch(&self, question: &DohQuestion, id: u16, answers: &mut Vec<IpAddr>)
        -> FetchStart;

    /// Sans-IO second half: reads the transport outcome of the exchange
    /// [`AddressSource::start_fetch`] described for the same `question`
    /// and `id`, which the caller lends again, appending the addresses to
    /// `answers` — the one buffer a generation reads every answer into.
    ///
    /// # Errors
    ///
    /// Returns [`FetchError`] when the transport failed or the reply is
    /// invalid; what was appended before is the caller's to drop. An
    /// *empty answer* is not an error (it is the empty-answer case
    /// Algorithm 1 must handle).
    fn handle_response(
        &self,
        question: &DohQuestion,
        id: u16,
        outcome: NetResult<Vec<u8>>,
        answers: &mut Vec<IpAddr>,
    ) -> Result<(), FetchError>;
}

/// The most addresses one answer may carry, from any source (the session
/// checks it as each fetch settles), and the most octets a DoH reply may
/// take (its source checks that before reading it); past either, the
/// answer fails its source. The largest DoH reply an experiment, test or
/// workload here sends carries 200 addresses (the stalled TCP client of
/// `runtime/tests/loopback_e2e.rs`); one of 256 AAAA records takes under
/// half the octets.
pub(crate) const MAX_REPLY_ADDRESSES: usize = 256;
/// See [`MAX_REPLY_ADDRESSES`].
pub(crate) const MAX_REPLY_OCTETS: usize = 16 * 1024;

/// An [`AddressSource`] backed by a DoH resolver (the paper's design).
#[derive(Debug, Clone)]
pub struct DohSource {
    client: DohClient,
    name: String,
}

impl DohSource {
    /// Creates a source for the given public resolver using the GET method.
    pub fn new(info: ResolverInfo) -> Self {
        DohSource {
            name: info.name.clone(),
            client: DohClient::new(info),
        }
    }

    /// Selects the RFC 8484 method used for queries.
    pub fn method(mut self, method: DohMethod) -> Self {
        self.client = self.client.method(method);
        self
    }
}

fn doh_error(e: sdoh_doh::DohError) -> FetchError {
    match e {
        sdoh_doh::DohError::Network(err) => FetchError::Transport(err.to_string()),
        sdoh_doh::DohError::HttpStatus(code) => {
            FetchError::ErrorResponse(format!("http status {code}"))
        }
        other => FetchError::Protocol(other.to_string()),
    }
}

impl AddressSource for DohSource {
    fn source_name(&self) -> &str {
        &self.name
    }

    fn start_fetch(&self, question: &DohQuestion, id: u16, _: &mut Vec<IpAddr>) -> FetchStart {
        FetchStart::Transmit(self.client.begin_query(id, question))
    }

    /// The reply's checks and the addresses of the asked type are
    /// `DohClient::finish_addresses`': read where they lie in the answer, on
    /// the walk that validates it, into `answers`, unless the reply is
    /// longer than `MAX_REPLY_OCTETS`. How many addresses one answer may
    /// carry the session checks, for every source alike.
    fn handle_response(
        &self,
        question: &DohQuestion,
        id: u16,
        outcome: NetResult<Vec<u8>>,
        answers: &mut Vec<IpAddr>,
    ) -> Result<(), FetchError> {
        let mut reply = outcome.map_err(|e| FetchError::Transport(e.to_string()))?;
        if reply.len() > MAX_REPLY_OCTETS {
            return Err(FetchError::Protocol("octets past the ceiling".into()));
        }
        let rcode = self
            .client
            .finish_addresses(question, id, &mut reply, answers)
            .map_err(doh_error)?;
        if rcode != Rcode::NoError && rcode != Rcode::NxDomain {
            return Err(FetchError::ErrorResponse(rcode.to_string()));
        }
        Ok(())
    }
}

/// A source with a fixed answer, used in unit tests and analytical
/// experiments where the DNS/DoH transport is not the variable under study.
#[derive(Debug, Clone)]
pub struct StaticSource {
    name: String,
    v4: Vec<IpAddr>,
    v6: Vec<IpAddr>,
    fail: bool,
}

impl StaticSource {
    /// A source that always returns the given IPv4 addresses.
    pub fn answering(name: impl Into<String>, addresses: Vec<IpAddr>) -> Self {
        let (v4, v6) = addresses.into_iter().partition(|a| a.is_ipv4());
        StaticSource {
            name: name.into(),
            v4,
            v6,
            fail: false,
        }
    }

    /// A source that always fails with a transport error.
    pub fn failing(name: impl Into<String>) -> Self {
        StaticSource {
            name: name.into(),
            v4: Vec::new(),
            v6: Vec::new(),
            fail: true,
        }
    }
}

impl AddressSource for StaticSource {
    fn source_name(&self) -> &str {
        &self.name
    }

    fn start_fetch(&self, question: &DohQuestion, _: u16, answers: &mut Vec<IpAddr>) -> FetchStart {
        if self.fail {
            return FetchStart::Immediate(Err(FetchError::Transport(
                "static source configured to fail".into(),
            )));
        }
        answers.extend_from_slice(match question.rtype() {
            RrType::Aaaa => &self.v6,
            _ => &self.v4,
        });
        FetchStart::Immediate(Ok(()))
    }

    fn handle_response(
        &self,
        _: &DohQuestion,
        _: u16,
        _: NetResult<Vec<u8>>,
        _: &mut Vec<IpAddr>,
    ) -> Result<(), FetchError> {
        Err(FetchError::Protocol(
            "static sources never have in-flight exchanges".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_dns_server::{Authority, Catalog, Exchanger, FnHandler, Zone};
    use sdoh_dns_wire::{Message, MessageBuilder};
    use sdoh_doh::{DohServerService, ResolverDirectory};
    use sdoh_netsim::{SimAddr, SimNet};

    fn pool_zone_catalog() -> Catalog {
        let mut zone = Zone::new("ntp.org".parse().unwrap());
        for i in 1..=3u8 {
            zone.add_address(
                "pool.ntp.org".parse().unwrap(),
                format!("203.0.113.{i}").parse().unwrap(),
            );
        }
        zone.add_address(
            "pool.ntp.org".parse().unwrap(),
            "2001:db8::5".parse().unwrap(),
        );
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        catalog
    }

    /// One lookup of `pool.ntp.org` through the two halves, the exchange
    /// performed in between, the question and the id lent to both.
    fn lookup(
        source: &dyn AddressSource,
        exchanger: &mut dyn Exchanger,
        rtype: RrType,
    ) -> Result<Vec<IpAddr>, FetchError> {
        let question = DohQuestion::new(&"pool.ntp.org".parse().unwrap(), rtype).unwrap();
        let id = exchanger.next_id();
        let mut answers = Vec::new();
        match source.start_fetch(&question, id, &mut answers) {
            FetchStart::Immediate(result) => result,
            FetchStart::Transmit(request) => {
                let outcome = exchanger.exchange(
                    request.dst,
                    request.channel,
                    &request.payload,
                    request.timeout,
                );
                source.handle_response(&question, id, outcome, &mut answers)
            }
        }
        .map(|()| answers)
    }

    /// The question the session lends to a reply's read is what every
    /// reply is held against: an answer that echoes another name, one
    /// under another id, and the query reflected back each make a failed
    /// source, though each carries an address record. The same resolver
    /// answering honestly is read.
    #[test]
    fn the_lent_question_guards_every_reply() {
        let other: sdoh_dns_wire::Name = "other.ntp.org".parse().unwrap();
        let forged: IpAddr = "198.18.0.1".parse().unwrap();
        type Reply = fn(&Message, &sdoh_dns_wire::Name, IpAddr) -> Message;
        let honest: Reply = |query, _, address| {
            MessageBuilder::response_to(query)
                .answer_address(60, address)
                .build()
        };
        let another_name: Reply = |query, other, address| {
            let asked = Message::query(query.header.id, other.clone(), RrType::A);
            MessageBuilder::response_to(&asked)
                .answer_address(60, address)
                .build()
        };
        let another_id: Reply = |query, _, address| {
            let mut reply = MessageBuilder::response_to(query)
                .answer_address(60, address)
                .build();
            reply.header.id = query.header.id.wrapping_add(1);
            reply
        };
        let reflected: Reply = |query, _, address| {
            let mut reply = query.clone();
            reply.add_answer(
                MessageBuilder::response_to(query)
                    .answer_address(60, address)
                    .build()
                    .answers
                    .remove(0),
            );
            reply.normalize_counts();
            reply
        };
        let cases: [(&str, DohMethod, Reply, bool); 6] = [
            ("honest GET", DohMethod::Get, honest, true),
            ("honest POST", DohMethod::Post, honest, true),
            (
                "GET echoing another name",
                DohMethod::Get,
                another_name,
                false,
            ),
            ("POST under another id", DohMethod::Post, another_id, false),
            ("reflected GET", DohMethod::Get, reflected, false),
            ("reflected POST", DohMethod::Post, reflected, false),
        ];
        for (index, (case, method, reply, read)) in cases.into_iter().enumerate() {
            let seed = 70 + u64::try_from(index).unwrap();
            let net = SimNet::new(seed);
            let info = ResolverDirectory::well_known(seed).resolvers()[0].clone();
            let other = other.clone();
            let handler =
                FnHandler::new("scripted", move |_: &mut dyn Exchanger, query: &Message| {
                    reply(query, &other, forged)
                });
            net.register(info.addr, DohServerService::new(info.clone(), handler));
            let source = DohSource::new(info).method(method);
            let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
            match lookup(&source, &mut exchanger, RrType::A) {
                Ok(addresses) => assert!(read && addresses == [forged], "{case}: {addresses:?}"),
                Err(err) => assert!(
                    !read && matches!(err, FetchError::Protocol(_)),
                    "{case}: {err}"
                ),
            }
        }
    }

    #[test]
    fn doh_source_fetches_addresses() {
        let net = SimNet::new(61);
        let info = ResolverDirectory::well_known(61).resolvers()[0].clone();
        net.register(
            info.addr,
            DohServerService::new(info.clone(), Authority::new(pool_zone_catalog())),
        );
        let source = DohSource::new(info).method(DohMethod::Post);
        assert_eq!(source.source_name(), "dns.google");
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let v4 = lookup(&source, &mut exchanger, RrType::A).unwrap();
        assert_eq!(v4.len(), 3);
        let v6 = lookup(&source, &mut exchanger, RrType::Aaaa).unwrap();
        assert_eq!(v6.len(), 1);
    }

    /// A resolver reflecting the request — QR clear, no answer, the question
    /// echoed — has not answered. Taken for an empty answer, it truncated
    /// Algorithm 1's whole pool to nothing, where a failed source is
    /// skipped.
    #[test]
    fn a_reflected_query_is_a_failed_source_not_an_empty_answer() {
        let net = SimNet::new(65);
        let fleet = crate::DohFleet::new(3, 1, 3, 65);
        let authority = fleet.authority();
        for (index, info) in fleet.infos.iter().enumerate() {
            if index == 1 {
                let mirror = FnHandler::new("mirror", |_: &mut dyn Exchanger, query: &Message| {
                    query.clone()
                });
                net.register(info.addr, DohServerService::new(info.clone(), mirror));
            } else {
                net.register(
                    info.addr,
                    DohServerService::new(info.clone(), authority.clone()),
                );
            }
        }
        let sources = crate::doh_sources(&fleet.infos);
        let generator =
            crate::SecurePoolGenerator::new(crate::PoolConfig::algorithm1(), sources).unwrap();
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let report = generator
            .generate(&mut exchanger, &fleet.domains[0])
            .unwrap();
        assert!(
            matches!(report.sources[1].1, crate::SourceOutcome::Failed(_)),
            "{:?}",
            report.sources
        );
        assert_eq!(report.answered(), 2);
        assert_eq!(report.pool.len(), 6, "three addresses from each answer");
    }

    /// A reply may carry up to [`MAX_REPLY_ADDRESSES`] addresses of
    /// either family; one more fails its source as the generation's
    /// session settles it, and a reply longer than [`MAX_REPLY_OCTETS`]
    /// fails it unread.
    #[test]
    fn a_reply_past_the_ceiling_fails_its_source() {
        use crate::config::{DualStackPolicy, PoolConfig};
        let net = SimNet::new(66);
        let info = ResolverDirectory::well_known(66).resolvers()[0].clone();
        let source = DohSource::new(info.clone());
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let pool: sdoh_dns_wire::Name = "pool.ntp.org".parse().unwrap();
        for count in [MAX_REPLY_ADDRESSES, MAX_REPLY_ADDRESSES + 1] {
            let mut zone = Zone::new("ntp.org".parse().unwrap());
            for host in (1..=u16::MAX).take(count) {
                let [high, low] = host.to_be_bytes();
                zone.add_address(pool.clone(), IpAddr::from([198, 18, high, low]));
                zone.add_address(
                    pool.clone(),
                    IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, host]),
                );
            }
            let mut catalog = Catalog::new();
            catalog.add_zone(zone);
            net.register(
                info.addr,
                DohServerService::new(info.clone(), Authority::new(catalog)),
            );
            for (rtype, family) in [
                (RrType::A, DualStackPolicy::Ipv4Only),
                (RrType::Aaaa, DualStackPolicy::Ipv6Only),
            ] {
                // Read whole by the source, and judged by the session.
                let read = lookup(&source, &mut exchanger, rtype).map(|list| list.len());
                assert_eq!(read, Ok(count), "{rtype}");
                let sources: Vec<Box<dyn AddressSource>> = vec![
                    Box::new(source.clone()),
                    Box::new(StaticSource::answering("static", Vec::new())),
                ];
                let config = PoolConfig::algorithm1().with_dual_stack(family);
                let report = crate::SecurePoolGenerator::new(config, sources)
                    .unwrap()
                    .generate(&mut exchanger, &pool)
                    .unwrap();
                let past = FetchError::Protocol("addresses past the ceiling".into());
                let expected = if count > MAX_REPLY_ADDRESSES {
                    crate::SourceOutcome::Failed(past.to_string())
                } else {
                    crate::SourceOutcome::Answered(count)
                };
                assert_eq!(report.sources[0].1, expected, "{rtype}");
            }
        }
        let question = DohQuestion::new(&pool, RrType::A).unwrap();
        for octets in [MAX_REPLY_OCTETS, MAX_REPLY_OCTETS + 1] {
            let read = source.handle_response(&question, 0, Ok(vec![0; octets]), &mut Vec::new());
            // Zeros are no DoH reply: at the ceiling they are read, and
            // refused for what they are.
            let past = FetchError::Protocol("octets past the ceiling".into());
            assert!(matches!(read, Err(FetchError::Protocol(_))), "{read:?}");
            assert_eq!(read == Err(past), octets > MAX_REPLY_OCTETS, "{read:?}");
        }
    }

    #[test]
    fn doh_source_reports_transport_failure() {
        let net = SimNet::new(62);
        let info = ResolverDirectory::well_known(62).resolvers()[0].clone();
        let source = DohSource::new(info);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 50000));
        let err = lookup(&source, &mut exchanger, RrType::A).unwrap_err();
        assert!(matches!(err, FetchError::Transport(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn static_source_modes() {
        let answered = |source: &StaticSource, rtype| {
            let question = DohQuestion::new(&"x.test".parse().unwrap(), rtype).unwrap();
            let mut answers = Vec::new();
            match source.start_fetch(&question, 0, &mut answers) {
                FetchStart::Immediate(result) => result.map(|()| answers),
                FetchStart::Transmit(_) => panic!("a static source transmits nothing"),
            }
        };
        let source = StaticSource::answering(
            "stub",
            vec![
                "198.51.100.1".parse().unwrap(),
                "2001:db8::9".parse().unwrap(),
            ],
        );
        assert_eq!(answered(&source, RrType::A).unwrap().len(), 1);
        assert_eq!(answered(&source, RrType::Aaaa).unwrap().len(), 1);
        assert!(answered(&StaticSource::failing("dead"), RrType::A).is_err());
    }
}
