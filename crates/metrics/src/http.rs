//! A tiny HTTP/1.x stats listener and the matching client helper.
//!
//! [`StatsServer`] is deliberately minimal: one accept thread that blocks
//! in `accept` (no timed wake-ups while nobody scrapes), blocking handling
//! of one short-lived request per connection, a handler closure mapping
//! request paths to `(status, content-type, body)`. It exists to
//! serve `/metrics`, `/config` and `/healthz` from a runtime — not
//! to be a web framework. [`http_get`] is the matching one-shot client the
//! runtime's tests and the quickstart example scrape with.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A response from a [`StatsServer`] handler: status code, content type
/// and body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code (200, 404, 503, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A 200 with a plain-text body.
    pub fn ok_text(body: impl Into<String>) -> Self {
        HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4".to_string(),
            body: body.into(),
        }
    }

    /// A 200 with a JSON body.
    pub fn ok_json(body: impl Into<String>) -> Self {
        HttpResponse {
            status: 200,
            content_type: "application/json".to_string(),
            body: body.into(),
        }
    }

    /// An arbitrary-status plain-text response (404, 503, …).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain".to_string(),
            body: body.into(),
        }
    }
}

/// Maps a request path (e.g. `/metrics`) to a response.
pub type Handler = Arc<dyn Fn(&str) -> HttpResponse + Send + Sync>;

/// The stats listener: binds a TCP socket, answers GETs via the handler.
pub struct StatsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl StatsServer {
    /// Binds `bind` (use port 0 for an ephemeral port) and starts serving.
    pub fn start(bind: SocketAddr, handler: Handler) -> std::io::Result<StatsServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("sdoh-stats".to_string())
            .spawn(move || accept_loop(listener, handler, stop_flag))?;
        Ok(StatsServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop — woken out of its blocking `accept` by one
    /// throw-away connection — and joins the thread.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        let _ = handle.join();
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for StatsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Where a `shutdown` reaches a socket bound on `bound` to wake the thread
/// blocked on it: loopback of the same family when that is the unspecified
/// address.
pub fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => bound.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => bound.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    bound
}

fn accept_loop(listener: TcpListener, handler: Handler, stop: Arc<AtomicBool>) {
    loop {
        let accepted = listener.accept();
        // `shutdown` wakes this blocking accept with a connection of its
        // own: what is accepted once `stop` is set is not served.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            // Stats requests are tiny; handle inline rather than spawning
            // per connection.
            Ok((stream, _)) => {
                let _ = handle_connection(stream, &handler);
            }
            // An error (a reset in the backlog, a signal) is not about the
            // next connection.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, handler: &Handler) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 4096];
    let mut request = Vec::new();
    // Read until the end of the request head (stats GETs carry no body).
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(buf.get(..n).unwrap_or(&[]));
        if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > 16 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&request);
    let response = match parse_request_path(&head) {
        Some(path) => handler(&path),
        None => HttpResponse::text(400, "bad request\n"),
    };
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Status",
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason,
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

fn parse_request_path(head: &str) -> Option<String> {
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    (method == "GET").then(|| path.split('?').next().unwrap_or(path).to_string())
}

/// The body returned by [`http_get`], with its status code.
#[derive(Debug, Clone)]
pub struct HttpBody {
    /// HTTP status code of the reply.
    pub status: u16,
    /// Reply body.
    pub body: String,
}

/// One-shot HTTP GET against a stats listener: how the runtime's tests and
/// the quickstart example scrape `/metrics` and `/healthz`.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<HttpBody> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    let (head, body) = reply.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no header/body separator")
    })?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    Ok(HttpBody {
        status,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    #[test]
    fn serves_paths_through_the_handler() {
        let handler: Handler = Arc::new(|path| match path {
            "/metrics" => HttpResponse::ok_text("queries_total 5\n"),
            "/healthz" => HttpResponse::text(503, "degraded\n"),
            _ => HttpResponse::text(404, "not found\n"),
        });
        let mut server = StatsServer::start(local(0), handler).unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0);

        let metrics = http_get(addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(metrics.status, 200);
        assert_eq!(metrics.body, "queries_total 5\n");
        // Query strings are stripped before dispatch.
        let with_query = http_get(addr, "/metrics?x=1", Duration::from_secs(2)).unwrap();
        assert_eq!(with_query.status, 200);
        let health = http_get(addr, "/healthz", Duration::from_secs(2)).unwrap();
        assert_eq!(health.status, 503);
        assert_eq!(health.body, "degraded\n");
        let missing = http_get(addr, "/nope", Duration::from_secs(2)).unwrap();
        assert_eq!(missing.status, 404);

        server.shutdown();
        // After shutdown the port stops answering (connect or read fails).
        assert!(http_get(addr, "/metrics", Duration::from_millis(200)).is_err());
    }

    #[test]
    fn rejects_non_get_requests() {
        let handler: Handler = Arc::new(|_| HttpResponse::ok_text("ok"));
        let server = StatsServer::start(local(0), handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    }
}
