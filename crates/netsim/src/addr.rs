//! Simulated endpoint addresses.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr};
use std::str::FromStr;

/// The address of a simulated endpoint: an IP address and a port.
///
/// The simulator reuses real [`IpAddr`] values so that addresses flowing
/// through DNS answers can be dialed directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimAddr {
    /// IP address of the node.
    pub ip: IpAddr,
    /// Port the service listens on.
    pub port: u16,
}

impl SimAddr {
    /// Creates an address from an IP and port.
    pub fn new(ip: IpAddr, port: u16) -> Self {
        SimAddr { ip, port }
    }

    /// Creates an IPv4 address from octets and a port, convenient in tests.
    pub fn v4(a: u8, b: u8, c: u8, d: u8, port: u16) -> Self {
        SimAddr {
            ip: IpAddr::V4(Ipv4Addr::new(a, b, c, d)),
            port,
        }
    }

    /// The same host with a different port.
    pub fn with_port(self, port: u16) -> Self {
        SimAddr { ip: self.ip, port }
    }
}

impl fmt::Display for SimAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ip {
            IpAddr::V4(ip) => write!(f, "{ip}:{}", self.port),
            IpAddr::V6(ip) => write!(f, "[{ip}]:{}", self.port),
        }
    }
}

/// Error returned when parsing a [`SimAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSimAddrError;

impl fmt::Display for ParseSimAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulated address syntax")
    }
}

impl std::error::Error for ParseSimAddrError {}

impl FromStr for SimAddr {
    type Err = ParseSimAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sock: std::net::SocketAddr = s.parse().map_err(|_| ParseSimAddrError)?;
        Ok(SimAddr {
            ip: sock.ip(),
            port: sock.port(),
        })
    }
}

impl From<std::net::SocketAddr> for SimAddr {
    fn from(s: std::net::SocketAddr) -> Self {
        SimAddr {
            ip: s.ip(),
            port: s.port(),
        }
    }
}

/// Well-known port numbers used across the simulation.
pub mod ports {
    /// Classic DNS over UDP/TCP ("Do53").
    pub const DNS: u16 = 53;
    /// HTTPS, used by DNS-over-HTTPS.
    pub const HTTPS: u16 = 443;
    /// Network Time Protocol.
    pub const NTP: u16 = 123;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_v4_and_v6() {
        let v4 = SimAddr::v4(192, 0, 2, 1, 53);
        assert_eq!(v4.to_string(), "192.0.2.1:53");
        let v6 = SimAddr::new("2001:db8::1".parse().unwrap(), 443);
        assert_eq!(v6.to_string(), "[2001:db8::1]:443");
    }

    #[test]
    fn parse_roundtrip() {
        let addr: SimAddr = "198.51.100.7:443".parse().unwrap();
        assert_eq!(addr, SimAddr::v4(198, 51, 100, 7, 443));
        assert!("not-an-address".parse::<SimAddr>().is_err());
    }

    #[test]
    fn with_port_changes_only_port() {
        let addr = SimAddr::v4(10, 0, 0, 1, 53);
        let https = addr.with_port(ports::HTTPS);
        assert_eq!(https.ip, addr.ip);
        assert_eq!(https.port, 443);
    }

    #[test]
    fn socketaddr_conversion() {
        let sock: std::net::SocketAddr = "127.0.0.1:8080".parse().unwrap();
        let addr = SimAddr::from(sock);
        assert_eq!(addr.port, 8080);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimAddr::v4(1, 1, 1, 1, 443);
        let b = SimAddr::v4(8, 8, 8, 8, 443);
        assert!(a < b);
    }
}
