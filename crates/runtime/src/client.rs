//! A minimal real-socket DNS client for querying a [`PoolRuntime`]:
//! UDP first, TCP retry on truncation — what a standards-following stub
//! resolver does. Used by the end-to-end tests, the stress test, the
//! throughput experiment and the example binaries.
//!
//! [`PoolRuntime`]: crate::PoolRuntime

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

use sdoh_dns_wire::Message;

/// A blocking Do53 client over real sockets.
#[derive(Debug)]
pub struct RuntimeClient {
    socket: UdpSocket,
    server: SocketAddr,
    tcp_server: Option<SocketAddr>,
    timeout: Duration,
}

fn invalid(err: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string())
}

impl RuntimeClient {
    /// Creates a client for the runtime at `server` (UDP), with `tcp` as
    /// the truncation-fallback target — pass `Some` of
    /// [`PoolRuntime::tcp_addr`](crate::PoolRuntime::tcp_addr).
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn connect(server: SocketAddr, tcp: Option<SocketAddr>) -> std::io::Result<Self> {
        // Bind the unspecified address of the server's family so the
        // client reaches runtimes on v6 loopback or non-loopback binds.
        let bind: SocketAddr = if server.is_ipv6() {
            (std::net::Ipv6Addr::UNSPECIFIED, 0).into()
        } else {
            (std::net::Ipv4Addr::UNSPECIFIED, 0).into()
        };
        let socket = UdpSocket::bind(bind)?;
        let timeout = Duration::from_secs(5);
        socket.set_read_timeout(Some(timeout))?;
        Ok(RuntimeClient {
            socket,
            server,
            tcp_server: tcp,
            timeout,
        })
    }

    /// Sets the per-query timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn with_timeout(mut self, timeout: Duration) -> std::io::Result<Self> {
        self.socket.set_read_timeout(Some(timeout))?;
        self.timeout = timeout;
        Ok(self)
    }

    /// Performs one query: UDP, then a TCP retry if the response came back
    /// truncated (TC=1) and a TCP target is configured. Responses whose id
    /// doesn't match the query are discarded (late arrivals from earlier
    /// timed-out queries), not returned.
    ///
    /// # Errors
    ///
    /// I/O errors, timeouts, and undecodable responses.
    pub fn query(&self, query: &Message) -> std::io::Result<Message> {
        let wire = query.encode().map_err(invalid)?;
        self.socket.send_to(&wire, self.server)?;
        let mut buf = [0u8; 4096];
        let start = std::time::Instant::now();
        loop {
            if start.elapsed() > self.timeout {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "no matching response within the timeout",
                ));
            }
            let (len, peer) = self.socket.recv_from(&mut buf)?;
            if peer != self.server {
                continue;
            }
            let response = match Message::decode(buf.get(..len).unwrap_or(&[])) {
                Ok(response) => response,
                Err(_) => continue,
            };
            if !response.answers_query(query) {
                continue;
            }
            if response.header.truncated {
                // A TC=1 response carries no records by design; without a
                // TCP target the real answer is unreachable, and handing
                // the empty echo back as a success would read as "the
                // pool is empty".
                return match self.tcp_server {
                    Some(tcp) => self.query_tcp_at(tcp, query, &wire),
                    None => Err(invalid(
                        "response was truncated and no TCP fallback is configured",
                    )),
                };
            }
            return Ok(response);
        }
    }

    /// Performs one query directly over TCP (RFC 1035 length-prefixed).
    ///
    /// # Errors
    ///
    /// I/O errors, timeouts, a missing TCP target, and undecodable
    /// responses.
    pub fn query_tcp(&self, query: &Message) -> std::io::Result<Message> {
        let tcp = self.tcp_server.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::Unsupported, "no TCP target configured")
        })?;
        let wire = query.encode().map_err(invalid)?;
        self.query_tcp_at(tcp, query, &wire)
    }

    fn query_tcp_at(
        &self,
        tcp: SocketAddr,
        query: &Message,
        wire: &[u8],
    ) -> std::io::Result<Message> {
        let mut stream = TcpStream::connect_timeout(&tcp, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        let len = u16::try_from(wire.len()).map_err(invalid)?;
        stream.write_all(&len.to_be_bytes())?;
        stream.write_all(wire)?;
        let mut len_buf = [0u8; 2];
        stream.read_exact(&mut len_buf)?;
        let mut response_wire = vec![0u8; usize::from(u16::from_be_bytes(len_buf))];
        stream.read_exact(&mut response_wire)?;
        let response = Message::decode(&response_wire).map_err(invalid)?;
        if !response.answers_query(query) {
            return Err(invalid("TCP response does not answer the query"));
        }
        Ok(response)
    }
}
