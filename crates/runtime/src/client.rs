//! A minimal real-socket DNS client for querying a [`PoolRuntime`]:
//! UDP first, TCP retry on truncation — what a standards-following stub
//! resolver does. Used by the end-to-end tests, the stress test and the
//! example binaries.
//!
//! [`PoolRuntime`]: crate::PoolRuntime

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

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
    std::io::Error::new(ErrorKind::InvalidData, err.to_string())
}

fn timed_out() -> std::io::Error {
    std::io::Error::new(
        ErrorKind::TimedOut,
        "no matching response within the timeout",
    )
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
    /// timed-out queries), not returned, and do not extend the timeout.
    ///
    /// # Errors
    ///
    /// I/O errors, undecodable responses, and [`ErrorKind::TimedOut`] when
    /// no matching UDP response arrives within the timeout.
    pub fn query(&self, query: &Message) -> std::io::Result<Message> {
        let wire = query.encode().map_err(invalid)?;
        self.socket.send_to(&wire, self.server)?;
        let mut buf = [0u8; 4096];
        let deadline = Instant::now() + self.timeout;
        loop {
            // Each wait gets only the time left, so a stream of datagrams
            // that answer nothing cannot stretch the timeout.
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(timed_out());
            }
            self.socket.set_read_timeout(Some(left))?;
            let (len, peer) = match self.socket.recv_from(&mut buf) {
                Ok(received) => received,
                // An expired read timeout reads `WouldBlock` on Unix and
                // `TimedOut` on Windows.
                Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(timed_out())
                }
                Err(err) => return Err(err),
            };
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
            std::io::Error::new(ErrorKind::Unsupported, "no TCP target configured")
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

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_dns_wire::RrType;

    #[test]
    fn a_datagram_that_answers_nothing_does_not_extend_the_timeout() {
        // The peer sends one datagram that does not answer the query (the
        // query itself, its id flipped) 250 ms into a 300 ms timeout, then
        // nothing. The query must give up at the timeout, as `TimedOut`,
        // not wait a full timeout again after the stray datagram.
        let timeout = Duration::from_millis(300);
        let server = UdpSocket::bind("127.0.0.1:0").expect("server socket");
        let server_addr = server.local_addr().expect("server address");
        let peer = std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            let (len, client) = server.recv_from(&mut buf).expect("the query arrives");
            std::thread::sleep(Duration::from_millis(250));
            let stray = buf.get_mut(..len).expect("received within the buffer");
            stray[0] ^= 0xFF;
            server.send_to(stray, client).expect("stray datagram sent");
        });
        let client = RuntimeClient::connect(server_addr, None)
            .and_then(|client| client.with_timeout(timeout))
            .expect("client socket");
        let query = Message::query(7, "pool.example".parse().expect("name"), RrType::A);
        let start = Instant::now();
        let err = client.query(&query).expect_err("nobody answers the query");
        let elapsed = start.elapsed();
        peer.join().expect("peer thread");
        assert_eq!(err.kind(), ErrorKind::TimedOut, "{err}");
        assert!(
            elapsed < timeout * 3 / 2,
            "gave up after {elapsed:?} on a {timeout:?} timeout"
        );
    }
}
