//! HTTP/2 connection state machines.
//!
//! Both ends are byte-level state machines: callers feed received bytes in
//! with `receive` and pull bytes to transmit out with `take_output`, which
//! makes the connections trivially portable onto the synchronous simulated
//! transport (and onto a real socket, if one ever existed here).
//!
//! Simplifications relative to a production stack, all documented: flow
//! control windows are parsed but never enforced (DoH messages are far below
//! the default 64 KiB window), CONTINUATION frames are not emitted (header
//! blocks fit in one frame), and priorities are ignored.

use std::collections::hash_map::{Entry, HashMap};

use bytes::BytesMut;

use crate::http::{Headers, Method, Request, Response, StatusCode};

use super::error::H2Error;
use super::frame::{Frame, CONNECTION_PREFACE};
use super::hpack;

/// SETTINGS identifiers this implementation announces.
mod settings_id {
    /// SETTINGS_MAX_CONCURRENT_STREAMS.
    pub const MAX_CONCURRENT_STREAMS: u16 = 0x3;
    /// SETTINGS_INITIAL_WINDOW_SIZE.
    pub const INITIAL_WINDOW_SIZE: u16 = 0x4;
}

#[derive(Debug, Default)]
struct PartialMessage {
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    headers_complete: bool,
    ended: bool,
}

/// The client half of an HTTP/2 connection.
#[derive(Debug)]
pub struct ClientConnection {
    next_stream_id: u32,
    out: BytesMut,
    in_buf: Vec<u8>,
    streams: HashMap<u32, PartialMessage>,
    peer_settings_received: bool,
    goaway: Option<u32>,
}

impl Default for ClientConnection {
    fn default() -> Self {
        Self::new()
    }
}

impl ClientConnection {
    /// Creates a client connection; the preface and initial SETTINGS frame
    /// are queued for transmission immediately.
    pub fn new() -> Self {
        let mut out = BytesMut::new();
        out.extend_from_slice(CONNECTION_PREFACE);
        Frame::Settings {
            ack: false,
            params: vec![
                (settings_id::MAX_CONCURRENT_STREAMS, 100),
                (settings_id::INITIAL_WINDOW_SIZE, 65_535),
            ],
        }
        .encode(&mut out);
        ClientConnection {
            next_stream_id: 1,
            out,
            in_buf: Vec::new(),
            streams: HashMap::new(),
            peer_settings_received: false,
            goaway: None,
        }
    }

    /// Returns `true` once the server's SETTINGS frame has been received.
    pub fn is_established(&self) -> bool {
        self.peer_settings_received
    }

    /// Returns the GOAWAY error code if the server closed the connection.
    pub fn goaway(&self) -> Option<u32> {
        self.goaway
    }

    /// Queues a request and returns the stream id it was assigned.
    pub fn send_request(&mut self, request: &Request) -> u32 {
        let stream_id = self.next_stream_id;
        self.next_stream_id += 2;

        let mut header_list: Vec<(String, String)> = vec![
            (":method".into(), request.method.as_str().to_string()),
            (":scheme".into(), request.scheme.clone()),
            (":authority".into(), request.authority.clone()),
            (":path".into(), request.path.clone()),
        ];
        header_list.extend(
            request
                .headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string())),
        );
        let block = hpack::encode(&header_list);
        let has_body = !request.body.is_empty();
        Frame::Headers {
            stream_id,
            end_stream: !has_body,
            end_headers: true,
            block,
        }
        .encode(&mut self.out);
        if has_body {
            Frame::Data {
                stream_id,
                end_stream: true,
                data: request.body.clone(),
            }
            .encode(&mut self.out);
        }
        self.streams.insert(stream_id, PartialMessage::default());
        stream_id
    }

    /// Drains the bytes queued for transmission to the server.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out).into()
    }

    /// Feeds bytes received from the server, returning every response that
    /// completed.
    ///
    /// # Errors
    ///
    /// Returns framing, HPACK and protocol errors.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Vec<(u32, Response)>, H2Error> {
        self.in_buf.extend_from_slice(bytes);
        let mut completed = Vec::new();
        loop {
            match Frame::decode(&self.in_buf)? {
                None => break,
                Some((frame, consumed)) => {
                    self.in_buf.drain(..consumed);
                    self.process_frame(frame, &mut completed)?;
                }
            }
        }
        Ok(completed)
    }

    fn process_frame(
        &mut self,
        frame: Frame,
        completed: &mut Vec<(u32, Response)>,
    ) -> Result<(), H2Error> {
        // Only the stream a HEADERS or DATA frame belongs to can have been
        // completed by it.
        let touched = match frame {
            Frame::Settings { ack, .. } => {
                if !ack {
                    self.peer_settings_received = true;
                    Frame::Settings {
                        ack: true,
                        params: vec![],
                    }
                    .encode(&mut self.out);
                }
                None
            }
            Frame::Ping { ack, data } => {
                if !ack {
                    Frame::Ping { ack: true, data }.encode(&mut self.out);
                }
                None
            }
            Frame::Headers {
                stream_id,
                end_stream,
                end_headers,
                block,
            } => {
                if !end_headers {
                    return Err(H2Error::Protocol(
                        "continuation frames are not supported".into(),
                    ));
                }
                let stream = self.streams.entry(stream_id).or_default();
                stream.headers = hpack::decode(&block)?;
                stream.headers_complete = true;
                stream.ended = end_stream;
                Some(stream_id)
            }
            Frame::Data {
                stream_id,
                end_stream,
                data,
            } => {
                let stream = self.streams.entry(stream_id).or_default();
                stream.body.extend_from_slice(&data);
                stream.ended = stream.ended || end_stream;
                Some(stream_id)
            }
            Frame::WindowUpdate { .. } | Frame::Unknown { .. } => None,
            Frame::RstStream { stream_id, .. } => {
                self.streams.remove(&stream_id);
                None
            }
            Frame::GoAway { error_code, .. } => {
                self.goaway = Some(error_code);
                None
            }
        };

        if let Some((id, message)) = touched.and_then(|id| take_finished(&mut self.streams, id)) {
            completed.push((id, response_from_parts(message)?));
        }
        Ok(())
    }
}

/// The server half of an HTTP/2 connection.
#[derive(Debug)]
pub struct ServerConnection {
    preface_consumed: bool,
    out: BytesMut,
    in_buf: Vec<u8>,
    streams: HashMap<u32, PartialMessage>,
}

impl Default for ServerConnection {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerConnection {
    /// Creates a server connection; the server's SETTINGS frame is queued
    /// immediately.
    pub fn new() -> Self {
        let mut out = BytesMut::new();
        Frame::Settings {
            ack: false,
            params: vec![(settings_id::MAX_CONCURRENT_STREAMS, 128)],
        }
        .encode(&mut out);
        ServerConnection {
            preface_consumed: false,
            out,
            in_buf: Vec::new(),
            streams: HashMap::new(),
        }
    }

    /// Feeds bytes received from the client, returning every request that
    /// completed.
    ///
    /// # Errors
    ///
    /// Returns [`H2Error::UnexpectedPreface`] when the connection does not
    /// start with the HTTP/2 preface, plus framing and HPACK errors.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Vec<(u32, Request)>, H2Error> {
        self.in_buf.extend_from_slice(bytes);
        if !self.preface_consumed {
            if self.in_buf.len() < CONNECTION_PREFACE.len() {
                return Ok(Vec::new());
            }
            if self.in_buf.get(..CONNECTION_PREFACE.len()) != Some(CONNECTION_PREFACE) {
                return Err(H2Error::UnexpectedPreface);
            }
            self.in_buf.drain(..CONNECTION_PREFACE.len());
            self.preface_consumed = true;
        }

        let mut completed = Vec::new();
        loop {
            match Frame::decode(&self.in_buf)? {
                None => break,
                Some((frame, consumed)) => {
                    self.in_buf.drain(..consumed);
                    self.process_frame(frame, &mut completed)?;
                }
            }
        }
        Ok(completed)
    }

    /// Queues a response on the given stream.
    pub fn send_response(&mut self, stream_id: u32, response: &Response) {
        let mut header_list: Vec<(String, String)> =
            vec![(":status".into(), response.status.as_u16().to_string())];
        header_list.extend(
            response
                .headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string())),
        );
        let block = hpack::encode(&header_list);
        let has_body = !response.body.is_empty();
        Frame::Headers {
            stream_id,
            end_stream: !has_body,
            end_headers: true,
            block,
        }
        .encode(&mut self.out);
        if has_body {
            Frame::Data {
                stream_id,
                end_stream: true,
                data: response.body.clone(),
            }
            .encode(&mut self.out);
        }
    }

    /// Drains the bytes queued for transmission to the client.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out).into()
    }

    fn process_frame(
        &mut self,
        frame: Frame,
        completed: &mut Vec<(u32, Request)>,
    ) -> Result<(), H2Error> {
        // Only the stream a HEADERS or DATA frame belongs to can have been
        // completed by it.
        let touched = match frame {
            Frame::Settings { ack, .. } => {
                if !ack {
                    Frame::Settings {
                        ack: true,
                        params: vec![],
                    }
                    .encode(&mut self.out);
                }
                None
            }
            Frame::Ping { ack, data } => {
                if !ack {
                    Frame::Ping { ack: true, data }.encode(&mut self.out);
                }
                None
            }
            Frame::Headers {
                stream_id,
                end_stream,
                end_headers,
                block,
            } => {
                if !end_headers {
                    return Err(H2Error::Protocol(
                        "continuation frames are not supported".into(),
                    ));
                }
                let stream = self.streams.entry(stream_id).or_default();
                stream.headers = hpack::decode(&block)?;
                stream.headers_complete = true;
                stream.ended = end_stream;
                Some(stream_id)
            }
            Frame::Data {
                stream_id,
                end_stream,
                data,
            } => {
                let stream = self.streams.entry(stream_id).or_default();
                stream.body.extend_from_slice(&data);
                stream.ended = stream.ended || end_stream;
                Some(stream_id)
            }
            Frame::WindowUpdate { .. } | Frame::Unknown { .. } => None,
            Frame::RstStream { stream_id, .. } => {
                self.streams.remove(&stream_id);
                None
            }
            Frame::GoAway { .. } => None,
        };

        if let Some((id, message)) = touched.and_then(|id| take_finished(&mut self.streams, id)) {
            completed.push((id, request_from_parts(message)?));
        }
        Ok(())
    }
}

/// Removes stream `id` and returns its message if the message is complete.
fn take_finished(
    streams: &mut HashMap<u32, PartialMessage>,
    id: u32,
) -> Option<(u32, PartialMessage)> {
    match streams.entry(id) {
        Entry::Occupied(stream) if stream.get().headers_complete && stream.get().ended => {
            Some(stream.remove_entry())
        }
        _ => None,
    }
}

fn response_from_parts(parts: PartialMessage) -> Result<Response, H2Error> {
    let mut status = None;
    let mut headers = Headers::new();
    for (name, value) in &parts.headers {
        if name == ":status" {
            status = value.parse::<u16>().ok();
        } else if !name.starts_with(':') {
            headers.append(name, value);
        }
    }
    let status = status.ok_or_else(|| H2Error::Protocol("response without :status".into()))?;
    Ok(Response {
        status: StatusCode::from(status),
        headers,
        body: parts.body,
    })
}

fn request_from_parts(parts: PartialMessage) -> Result<Request, H2Error> {
    let mut method = None;
    let mut path = None;
    let mut authority = String::new();
    let mut scheme = "https".to_string();
    let mut headers = Headers::new();
    for (name, value) in &parts.headers {
        match name.as_str() {
            ":method" => method = Method::from_token(value),
            ":path" => path = Some(value.clone()),
            ":authority" => authority = value.clone(),
            ":scheme" => scheme = value.clone(),
            _ if !name.starts_with(':') => headers.append(name, value),
            _ => {}
        }
    }
    Ok(Request {
        method: method.ok_or_else(|| H2Error::Protocol("request without :method".into()))?,
        path: path.ok_or_else(|| H2Error::Protocol("request without :path".into()))?,
        authority,
        scheme,
        headers,
        body: parts.body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(request: Request, respond: impl Fn(&Request) -> Response) -> Response {
        let mut client = ClientConnection::new();
        let mut server = ServerConnection::new();

        let stream_id = client.send_request(&request);
        let client_bytes = client.take_output();

        let requests = server.receive(&client_bytes).unwrap();
        assert_eq!(requests.len(), 1);
        let (sid, received_request) = &requests[0];
        assert_eq!(*sid, stream_id);
        let response = respond(received_request);
        server.send_response(*sid, &response);
        let server_bytes = server.take_output();

        let responses = client.receive(&server_bytes).unwrap();
        assert!(client.is_established());
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].0, stream_id);
        responses[0].1.clone()
    }

    #[test]
    fn get_request_roundtrip() {
        let request = Request::get("dns.google", "/dns-query?dns=AAAB")
            .with_header("accept", "application/dns-message");
        let response = exchange(request, |req| {
            assert_eq!(req.method, Method::Get);
            assert_eq!(req.authority, "dns.google");
            assert_eq!(req.query_param("dns"), Some("AAAB"));
            assert_eq!(req.headers.get("accept"), Some("application/dns-message"));
            Response::ok("application/dns-message", vec![1, 2, 3])
        });
        assert_eq!(response.status, StatusCode::OK);
        assert_eq!(response.body, vec![1, 2, 3]);
        assert_eq!(
            response.headers.get("content-type"),
            Some("application/dns-message")
        );
    }

    #[test]
    fn post_request_carries_body() {
        let request = Request::post("cloudflare-dns.com", "/dns-query", vec![9u8; 40])
            .with_header("content-type", "application/dns-message");
        let response = exchange(request, |req| {
            assert_eq!(req.method, Method::Post);
            assert_eq!(req.body.len(), 40);
            Response::ok("application/dns-message", req.body.clone())
        });
        assert_eq!(response.body.len(), 40);
    }

    #[test]
    fn multiple_streams_on_one_connection() {
        let mut client = ClientConnection::new();
        let mut server = ServerConnection::new();

        let r1 = client.send_request(&Request::get("dns.google", "/dns-query?dns=X"));
        let r2 = client.send_request(&Request::get("dns.google", "/dns-query?dns=Y"));
        assert_ne!(r1, r2);
        assert_eq!(r1 % 2, 1, "client streams are odd-numbered");

        let requests = server.receive(&client.take_output()).unwrap();
        assert_eq!(requests.len(), 2);
        for (sid, req) in &requests {
            let marker = req.query_param("dns").unwrap().as_bytes().to_vec();
            server.send_response(*sid, &Response::ok("application/dns-message", marker));
        }
        let responses = client.receive(&server.take_output()).unwrap();
        assert_eq!(responses.len(), 2);
        let bodies: Vec<Vec<u8>> = responses.iter().map(|(_, r)| r.body.clone()).collect();
        assert!(bodies.contains(&b"X".to_vec()));
        assert!(bodies.contains(&b"Y".to_vec()));
    }

    #[test]
    fn server_rejects_missing_preface() {
        let mut server = ServerConnection::new();
        let mut bogus = BytesMut::new();
        Frame::Settings {
            ack: false,
            params: vec![],
        }
        .encode(&mut bogus);
        // 24+ bytes that are not the preface.
        let mut noise = vec![0u8; 30];
        noise[..bogus.len().min(30)].copy_from_slice(&bogus[..bogus.len().min(30)]);
        assert!(matches!(
            server.receive(&noise),
            Err(H2Error::UnexpectedPreface)
        ));
    }

    #[test]
    fn partial_delivery_is_reassembled() {
        let mut client = ClientConnection::new();
        let mut server = ServerConnection::new();
        client.send_request(&Request::get("dns.quad9.net", "/dns-query?dns=Q"));
        let bytes = client.take_output();

        // Deliver the client bytes one octet at a time.
        let mut requests = Vec::new();
        for b in &bytes {
            requests.extend(server.receive(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(requests.len(), 1);
    }

    #[test]
    fn ping_is_acknowledged() {
        let mut client = ClientConnection::new();
        let mut server = ServerConnection::new();
        server.receive(&client.take_output()).unwrap();

        let mut ping = BytesMut::new();
        Frame::Ping {
            ack: false,
            data: [7u8; 8],
        }
        .encode(&mut ping);
        client.receive(&ping).unwrap();
        let out = client.take_output();
        let (frame, _) = Frame::decode(&out).unwrap().unwrap();
        match frame {
            Frame::Ping { ack, data } => {
                assert!(ack);
                assert_eq!(data, [7u8; 8]);
            }
            other => panic!("expected ping ack, got {other:?}"),
        }
    }

    #[test]
    fn goaway_is_recorded() {
        let mut client = ClientConnection::new();
        let mut goaway = BytesMut::new();
        Frame::GoAway {
            last_stream_id: 0,
            error_code: 2,
        }
        .encode(&mut goaway);
        client.receive(&goaway).unwrap();
        assert_eq!(client.goaway(), Some(2));
    }
}
