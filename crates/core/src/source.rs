//! Address sources: the per-resolver lookup abstraction Algorithm 1 fans
//! out over.
//!
//! A source exposes two layers:
//!
//! * the blocking [`AddressSource::fetch`], which drives one lookup to
//!   completion over an [`Exchanger`] — convenient for tests and simple
//!   callers, and
//! * the sans-IO halves [`AddressSource::start_fetch`] /
//!   [`AddressSource::handle_response`], which *describe* the exchange so a
//!   session driver can keep many lookups from many sources in flight
//!   concurrently ([`crate::PoolSession`]).
//!
//! `fetch` is a provided method implemented on top of the sans-IO halves,
//! so a source only implements the non-blocking form.

use std::any::Any;
use std::net::IpAddr;

use sdoh_dns_server::{ExchangeRequest, Exchanger};
use sdoh_dns_wire::{Name, Rcode, RrType};
use sdoh_doh::{DohClient, DohMethod, ResolverInfo};
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

/// Opaque per-source state carried between [`AddressSource::start_fetch`]
/// and [`AddressSource::handle_response`].
///
/// Each source stashes whatever it needs to decode the eventual reply (a
/// DoH source keeps its HTTP/2 connection and expected question in here);
/// drivers just hand the value back untouched.
#[derive(Debug)]
pub struct PendingFetch(Box<dyn Any + Send>);

impl PendingFetch {
    /// Wraps source-private in-flight state. `Send`, like the sources: a
    /// resolver owns the sessions of its live generations and moves into a
    /// worker thread whole.
    pub fn new<T: Any + Send>(state: T) -> Self {
        PendingFetch(Box::new(state))
    }

    /// Recovers the in-flight state; `None` when the pending value belongs
    /// to a different source type (a driver bug).
    pub fn downcast<T: Any>(self) -> Option<T> {
        self.0.downcast::<T>().ok().map(|b| *b)
    }
}

/// How one fetch begins: either an exchange the driver must perform, or an
/// immediately available answer (static/test sources).
#[derive(Debug)]
pub enum FetchStart {
    /// Perform this exchange and hand the outcome to
    /// [`AddressSource::handle_response`].
    Transmit {
        /// What to put on the wire.
        request: ExchangeRequest,
        /// State to return with the reply.
        pending: PendingFetch,
    },
    /// The lookup resolved without any network traffic.
    Immediate(Result<Vec<IpAddr>, FetchError>),
}

/// A single source of address lists — one DoH resolver, one plain resolver,
/// or a test stub.
///
/// Sources are `Send + Sync`: a [`SecurePoolGenerator`](crate::SecurePoolGenerator)
/// (and everything layered on it, up to the serving subsystem) moves into a
/// worker thread of a real-socket runtime, and shares its source set with
/// the sessions it has in flight, which outlive the call that opened them.
/// Sources built from plain configuration data (all the in-tree ones)
/// satisfy the bounds for free; a source sharing state with its test must
/// use `Arc`/atomics instead of `Rc`/`Cell`.
pub trait AddressSource: Send + Sync {
    /// A stable, human-readable identifier (used for provenance in the
    /// generated pool). The source owns it; a session lends it out.
    fn source_name(&self) -> &str;

    /// Sans-IO first half of one lookup: describes the exchange needed to
    /// resolve the address records of `rtype` for `domain`. `id` is the
    /// transaction id to use if the source's protocol needs one.
    fn start_fetch(&self, domain: &Name, rtype: RrType, id: u16) -> FetchStart;

    /// Sans-IO second half: decodes the transport outcome of the exchange
    /// described by [`AddressSource::start_fetch`] into an address list.
    ///
    /// # Errors
    ///
    /// Returns [`FetchError`] when the transport failed or the reply is
    /// invalid; an *empty list* is not an error (it is the empty-answer case
    /// Algorithm 1 must handle).
    fn handle_response(
        &self,
        pending: PendingFetch,
        outcome: NetResult<Vec<u8>>,
    ) -> Result<Vec<IpAddr>, FetchError>;

    /// Looks up the address records of `rtype` (A or AAAA) for `domain`,
    /// returning them in answer order. Blocking convenience driver over the
    /// sans-IO halves.
    ///
    /// # Errors
    ///
    /// Returns [`FetchError`] when the lookup fails; an *empty list* is not
    /// an error (it is the empty-answer case Algorithm 1 must handle).
    fn fetch(
        &self,
        exchanger: &mut dyn Exchanger,
        domain: &Name,
        rtype: RrType,
    ) -> Result<Vec<IpAddr>, FetchError> {
        match self.start_fetch(domain, rtype, exchanger.next_id()) {
            FetchStart::Immediate(result) => result,
            FetchStart::Transmit { request, pending } => {
                let outcome = exchanger.exchange(
                    request.dst,
                    request.channel,
                    &request.payload,
                    request.timeout,
                );
                self.handle_response(pending, outcome)
            }
        }
    }
}

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

    fn start_fetch(&self, domain: &Name, rtype: RrType, id: u16) -> FetchStart {
        match self.client.begin_query(id, domain, rtype) {
            // DohTransmit and ExchangeRequest are both re-exports of the
            // simulator's batch-request type, so the transmit passes through.
            Ok((transmit, prepared)) => FetchStart::Transmit {
                request: transmit,
                pending: PendingFetch::new(prepared),
            },
            Err(e) => FetchStart::Immediate(Err(doh_error(e))),
        }
    }

    /// The reply's checks and the addresses of the asked type are
    /// `DohClient::finish_addresses`': read where they lie in the answer, on
    /// the walk that validates it.
    fn handle_response(
        &self,
        pending: PendingFetch,
        outcome: NetResult<Vec<u8>>,
    ) -> Result<Vec<IpAddr>, FetchError> {
        let prepared = pending
            .downcast::<sdoh_doh::PreparedDohQuery>()
            .ok_or_else(|| FetchError::Protocol("mismatched pending fetch state".into()))?;
        let mut reply = outcome.map_err(|e| FetchError::Transport(e.to_string()))?;
        let (rcode, addresses) = self
            .client
            .finish_addresses(prepared, &mut reply)
            .map_err(doh_error)?;
        if rcode != Rcode::NoError && rcode != Rcode::NxDomain {
            return Err(FetchError::ErrorResponse(rcode.to_string()));
        }
        Ok(addresses)
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

    fn start_fetch(&self, _domain: &Name, rtype: RrType, _id: u16) -> FetchStart {
        if self.fail {
            return FetchStart::Immediate(Err(FetchError::Transport(
                "static source configured to fail".into(),
            )));
        }
        FetchStart::Immediate(Ok(match rtype {
            RrType::Aaaa => self.v6.clone(),
            _ => self.v4.clone(),
        }))
    }

    fn handle_response(
        &self,
        _pending: PendingFetch,
        _outcome: NetResult<Vec<u8>>,
    ) -> Result<Vec<IpAddr>, FetchError> {
        Err(FetchError::Protocol(
            "static sources never have in-flight exchanges".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_dns_server::{Authority, Catalog, ClientExchanger, FnHandler, Zone};
    use sdoh_dns_wire::Message;
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
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 50000));
        let v4 = source
            .fetch(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap();
        assert_eq!(v4.len(), 3);
        let v6 = source
            .fetch(
                &mut exchanger,
                &"pool.ntp.org".parse().unwrap(),
                RrType::Aaaa,
            )
            .unwrap();
        assert_eq!(v6.len(), 1);
    }

    /// A resolver reflecting the request — QR clear, no answer, the question
    /// echoed — has not answered. Taken for an empty answer, it truncated
    /// Algorithm 1's whole pool to nothing, where a failed source is
    /// skipped.
    #[test]
    fn a_reflected_query_is_a_failed_source_not_an_empty_answer() {
        let net = SimNet::new(65);
        let mut sources: Vec<Box<dyn AddressSource>> = Vec::new();
        for (index, info) in ResolverDirectory::well_known(65)
            .take(3)
            .into_iter()
            .enumerate()
        {
            if index == 1 {
                let mirror = FnHandler::new("mirror", |_: &mut dyn Exchanger, query: &Message| {
                    query.clone()
                });
                net.register(info.addr, DohServerService::new(info.clone(), mirror));
            } else {
                let authority = Authority::new(pool_zone_catalog());
                net.register(info.addr, DohServerService::new(info.clone(), authority));
            }
            sources.push(Box::new(DohSource::new(info)));
        }
        let generator =
            crate::SecurePoolGenerator::new(crate::PoolConfig::algorithm1(), sources).unwrap();
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 50000));
        let report = generator
            .generate(&mut exchanger, &"pool.ntp.org".parse().unwrap())
            .unwrap();
        assert!(
            matches!(report.sources[1].1, crate::SourceOutcome::Failed(_)),
            "{:?}",
            report.sources
        );
        assert_eq!(report.answered(), 2);
        assert_eq!(report.pool.len(), 6, "three addresses from each answer");
    }

    #[test]
    fn doh_source_reports_transport_failure() {
        let net = SimNet::new(62);
        let info = ResolverDirectory::well_known(62).resolvers()[0].clone();
        let source = DohSource::new(info);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 50000));
        let err = source
            .fetch(&mut exchanger, &"pool.ntp.org".parse().unwrap(), RrType::A)
            .unwrap_err();
        assert!(matches!(err, FetchError::Transport(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn static_source_modes() {
        let net = SimNet::new(64);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let source = StaticSource::answering(
            "stub",
            vec![
                "198.51.100.1".parse().unwrap(),
                "2001:db8::9".parse().unwrap(),
            ],
        );
        assert_eq!(
            source
                .fetch(&mut exchanger, &"x.test".parse().unwrap(), RrType::A)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            source
                .fetch(&mut exchanger, &"x.test".parse().unwrap(), RrType::Aaaa)
                .unwrap()
                .len(),
            1
        );
        let failing = StaticSource::failing("dead");
        assert!(failing
            .fetch(&mut exchanger, &"x.test".parse().unwrap(), RrType::A)
            .is_err());
    }
}
