//! A stub resolver: what an application host uses to look names up through
//! a single configured recursive resolver.
//!
//! This is the *baseline* the paper improves on: a plain DNS lookup through
//! one resolver, acceptable to an off-path attacker who wins the response
//! race.

use std::net::IpAddr;
use std::time::Duration;

use sdoh_dns_wire::{Name, Rcode, RrType};
use sdoh_netsim::{ChannelKind, SimAddr};

use crate::client::DnsClient;
use crate::error::{ResolveError, ResolveResult};
use crate::exchange::Exchanger;

/// A stub resolver bound to one upstream recursive resolver.
#[derive(Debug, Clone)]
pub struct StubResolver {
    client: DnsClient,
}

impl StubResolver {
    /// Creates a stub resolver using the given recursive resolver over a
    /// plain channel (classic `/etc/resolv.conf` behaviour).
    pub fn new(resolver: SimAddr) -> Self {
        StubResolver {
            client: DnsClient::new(resolver).recursion_desired(true),
        }
    }

    /// Switches the transport channel (e.g. to model DNS over a secure
    /// channel to the same resolver).
    pub fn channel(mut self, channel: ChannelKind) -> Self {
        self.client = self.client.channel(channel);
        self
    }

    /// Sets the query timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.client = self.client.timeout(timeout);
        self
    }

    /// The configured recursive resolver.
    pub fn resolver(&self) -> SimAddr {
        self.client.server()
    }

    /// Looks up IPv4 addresses for `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ResolveError::ErrorResponse`] with [`Rcode::NxDomain`] when
    /// the name does not exist, and transport errors otherwise.
    pub fn lookup_ipv4(
        &self,
        exchanger: &mut dyn Exchanger,
        name: &Name,
    ) -> ResolveResult<Vec<IpAddr>> {
        let response = self.client.query(exchanger, name, RrType::A)?;
        if response.header.rcode == Rcode::NxDomain {
            return Err(ResolveError::ErrorResponse(Rcode::NxDomain));
        }
        Ok(response.answer_addresses())
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

    fn setup() -> (SimNet, SimAddr) {
        let net = SimNet::new(55);
        let resolver_addr = SimAddr::v4(10, 0, 0, 53, 53);
        let mut zone = Zone::new("ntp.org".parse().unwrap());
        for i in 1..=3u8 {
            zone.add_address(
                "pool.ntp.org".parse().unwrap(),
                format!("203.0.113.{i}").parse().unwrap(),
            );
        }
        zone.add_address(
            "pool.ntp.org".parse().unwrap(),
            "2001:db8::1".parse().unwrap(),
        );
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        // The authority doubles as a "recursive" resolver for this test.
        net.register(resolver_addr, Do53Service::new(Authority::new(catalog)));
        (net, resolver_addr)
    }

    #[test]
    fn lookup_both_families() {
        let (net, resolver) = setup();
        let stub = StubResolver::new(resolver);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let v4 = stub
            .lookup_ipv4(&mut exchanger, &"pool.ntp.org".parse().unwrap())
            .unwrap();
        assert_eq!(v4.len(), 3);
        assert!(v4.iter().all(|a| a.is_ipv4()));
    }

    #[test]
    fn nxdomain_is_an_error_for_stubs() {
        let (net, resolver) = setup();
        let stub = StubResolver::new(resolver);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let err = stub
            .lookup_ipv4(&mut exchanger, &"missing.ntp.org".parse().unwrap())
            .unwrap_err();
        assert_eq!(err, ResolveError::ErrorResponse(Rcode::NxDomain));
    }

    #[test]
    fn builder_setters() {
        let stub = StubResolver::new(SimAddr::v4(9, 9, 9, 9, 53))
            .channel(ChannelKind::Secure)
            .timeout(Duration::from_millis(750));
        assert_eq!(stub.resolver(), SimAddr::v4(9, 9, 9, 9, 53));
    }
}
