//! HTTP/2 connection state machines.
//!
//! Both ends are byte-level state machines: callers feed received bytes in
//! with `receive` and pull bytes to transmit out with `take_output`, which
//! makes the connections trivially portable onto the synchronous simulated
//! transport (and onto a real socket, if one ever existed here).
//!
//! # Who owns which buffer
//!
//! * **Output** belongs to the connection until `take_output` hands it
//!   over, whole. Frames are written where they go: `send_request` /
//!   `send_response` put a frame header down, encode the HPACK fields
//!   behind it and set its length; no header list, header block or frame
//!   is built on the side. `with_output` starts the connection behind
//!   octets the caller already wrote (the DoH ends pass their envelope
//!   header), so one buffer carries a payload from its first octet to the
//!   record tag.
//! * **Input** stays the caller's. `receive` walks the frames of the slice
//!   it is given and copies out only what outlives the call: a message's
//!   strings and body, and the tail of a frame the slice ended inside,
//!   which waits in the connection for the next call.
//! * **A message's header fields** are one buffer of the message's own
//!   ([`Headers`]: every name and value back to back, plus their end
//!   offsets): a decoded block is appended to it field by field, straight
//!   from the block's octets or the static table, and `send` walks it
//!   straight into the output. `:status` is its digits on the stack and
//!   `:scheme` is borrowed when it is `https` — neither is a `String` on
//!   its way from one buffer to the other.
//! * **Streams** with a message under way sit in a vector, looked up by
//!   scanning: a DoH connection carries one, and a handful at most.
//!
//! Simplifications relative to a production stack, all documented: the
//! peer's SETTINGS are checked and acknowledged but not applied, so flow
//! control windows are never enforced (DoH messages are far below the
//! default 64 KiB window), CONTINUATION frames are not emitted (header
//! blocks fit in one frame), and stream priorities are parsed and dropped
//! (PRIORITY frames as well as the priority fields of a HEADERS frame), as
//! is padding.

use std::borrow::Cow;
use std::io::Write as _;

use bytes::{BufMut, BytesMut};

use crate::http::{Headers, Method, Request, Response, StatusCode};

use super::error::H2Error;
use super::frame::{self, flags, Frame, FrameType, RawFrame, CONNECTION_PREFACE};
use super::hpack;

/// SETTINGS identifiers this implementation announces.
mod settings_id {
    /// SETTINGS_MAX_CONCURRENT_STREAMS.
    pub const MAX_CONCURRENT_STREAMS: u16 = 0x3;
    /// SETTINGS_INITIAL_WINDOW_SIZE.
    pub const INITIAL_WINDOW_SIZE: u16 = 0x4;
}

/// The message an end receives: a response at the client, a request at the
/// server.
trait Inbound: Sized {
    /// Builds the message, its body still empty, from a header block.
    fn from_fields(fields: hpack::Fields<'_>) -> Result<Self, H2Error>;

    /// The message with the body its stream carried.
    fn with_body(self, body: Vec<u8>) -> Self;
}

/// What has arrived of the message on one stream.
#[derive(Debug)]
struct Partial<M> {
    head: Option<M>,
    body: Vec<u8>,
    ended: bool,
}

impl<M> Default for Partial<M> {
    fn default() -> Self {
        Partial {
            head: None,
            body: Vec::new(),
            ended: false,
        }
    }
}

/// The state both ends share: the output queue, the received octets not yet
/// consumed and the streams with a message under way.
#[derive(Debug)]
struct Core<M> {
    out: BytesMut,
    /// What the peer has to send before its first frame and has not yet:
    /// the connection preface at the server, nothing at the client.
    preface: &'static [u8],
    /// The tail of a frame (or of the preface) that the last `receive`
    /// ended inside.
    pending: Vec<u8>,
    /// The streams with a message under way, by id, in arrival order.
    streams: Vec<(u32, Partial<M>)>,
    peer_settings_received: bool,
    /// The peer's SETTINGS still wants its acknowledgement: written ahead of
    /// the next frame this end queues, or when the output is taken.
    settings_ack_owed: bool,
    goaway: Option<u32>,
}

impl<M: Inbound> Core<M> {
    fn new(out: Vec<u8>, preface: &'static [u8]) -> Self {
        Core {
            out: out.into(),
            preface,
            pending: Vec::new(),
            streams: Vec::new(),
            peer_settings_received: false,
            settings_ack_owed: false,
            goaway: None,
        }
    }

    /// The output queue, an owed SETTINGS acknowledgement written first.
    /// On the wire the ack is where it always was, before the next frame;
    /// an end that queues nothing more (a client holding its response)
    /// writes none.
    fn output(&mut self) -> &mut BytesMut {
        if std::mem::take(&mut self.settings_ack_owed) {
            frame::put_settings(&mut self.out, flags::ACK, &[]);
        }
        &mut self.out
    }

    fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(self.output()).into()
    }

    /// Queues one message: a HEADERS frame holding `fields`, then `body` in
    /// a DATA frame unless it is empty.
    fn send<'a>(
        &mut self,
        stream_id: u32,
        fields: impl IntoIterator<Item = (&'a str, &'a str)>,
        body: &[u8],
    ) {
        let end_stream = if body.is_empty() {
            flags::END_STREAM
        } else {
            0
        };
        let out = self.output();
        let header_at = out.len();
        frame::put_header(
            out,
            0,
            FrameType::Headers,
            flags::END_HEADERS | end_stream,
            stream_id,
        );
        for (name, value) in fields {
            hpack::encode_field(out, name, value);
        }
        frame::close_frame(out, header_at);
        if !body.is_empty() {
            frame::put_header(
                out,
                body.len(),
                FrameType::Data,
                flags::END_STREAM,
                stream_id,
            );
            out.put_slice(body);
        }
    }

    fn receive(&mut self, bytes: &[u8]) -> Result<Vec<(u32, M)>, H2Error> {
        let mut completed = Vec::new();
        if self.pending.is_empty() {
            let consumed = self.walk(bytes, &mut completed)?;
            self.pending
                .extend_from_slice(bytes.get(consumed..).unwrap_or_default());
        } else {
            let mut input = std::mem::take(&mut self.pending);
            input.extend_from_slice(bytes);
            let consumed = self.walk(&input, &mut completed)?;
            input.drain(..consumed);
            self.pending = input;
        }
        Ok(completed)
    }

    /// Processes the preface and every complete frame at the front of
    /// `input` and returns how many octets that was.
    fn walk(&mut self, input: &[u8], completed: &mut Vec<(u32, M)>) -> Result<usize, H2Error> {
        let mut rest = input;
        if !self.preface.is_empty() {
            let Some((preface, frames)) = rest.split_at_checked(self.preface.len()) else {
                return Ok(0);
            };
            if preface != self.preface {
                return Err(H2Error::UnexpectedPreface);
            }
            self.preface = &[];
            rest = frames;
        }
        while let Some((raw, consumed)) = RawFrame::parse(rest)? {
            rest = rest.get(consumed..).unwrap_or_default();
            if let Some(id) = self.process_frame(raw)? {
                if let Some(message) = self.take_finished(id) {
                    completed.push((id, message));
                }
            }
        }
        Ok(input.len() - rest.len())
    }

    /// What has arrived on stream `id`, which is opened if this is its first
    /// frame. (`None` is never seen: a vector just pushed to has a last
    /// element.)
    fn stream(&mut self, id: u32) -> Option<&mut Partial<M>> {
        let stream = match self.streams.iter().position(|(open, _)| *open == id) {
            Some(at) => self.streams.get_mut(at),
            None => {
                self.streams.push((id, Partial::default()));
                self.streams.last_mut()
            }
        };
        stream.map(|(_, partial)| partial)
    }

    /// Removes stream `id` and returns its message if the message is
    /// complete.
    fn take_finished(&mut self, id: u32) -> Option<M> {
        let at = self
            .streams
            .iter()
            .position(|(open, stream)| *open == id && stream.ended && stream.head.is_some())?;
        let (_, Partial { head, body, .. }) = self.streams.remove(at);
        head.map(|head| head.with_body(body))
    }

    /// Applies one frame and names the stream it may have completed: only
    /// the stream a HEADERS or DATA frame belongs to can have been.
    fn process_frame(&mut self, raw: RawFrame<'_>) -> Result<Option<u32>, H2Error> {
        match raw.frame_type {
            FrameType::Headers => {
                if !raw.end_headers() {
                    return Err(H2Error::Protocol(
                        "continuation frames are not supported".into(),
                    ));
                }
                let head = M::from_fields(hpack::Fields::new(raw.payload))?;
                if let Some(stream) = self.stream(raw.stream_id) {
                    stream.head = Some(head);
                    stream.ended = raw.end_stream();
                }
                return Ok(Some(raw.stream_id));
            }
            FrameType::Data => {
                if let Some(stream) = self.stream(raw.stream_id) {
                    stream.body.extend_from_slice(raw.payload);
                    stream.ended = stream.ended || raw.end_stream();
                }
                return Ok(Some(raw.stream_id));
            }
            // The peer's parameters are not applied (see the module doc),
            // so they are not copied out either; `parse` checked the shape.
            FrameType::Settings => {
                if raw.flags & flags::ACK == 0 {
                    self.peer_settings_received = true;
                    self.settings_ack_owed = true;
                }
                return Ok(None);
            }
            _ => {}
        }
        match raw.to_frame()? {
            Frame::Ping { ack: false, data } => {
                Frame::Ping { ack: true, data }.encode(self.output())
            }
            Frame::RstStream { stream_id, .. } => {
                self.streams.retain(|(id, _)| *id != stream_id);
            }
            Frame::GoAway { error_code, .. } => self.goaway = Some(error_code),
            _ => {}
        }
        Ok(None)
    }
}

/// The client half of an HTTP/2 connection.
#[derive(Debug)]
pub struct ClientConnection {
    next_stream_id: u32,
    core: Core<Response>,
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
        Self::with_output(Vec::new())
    }

    /// As [`ClientConnection::new`], queueing behind the octets `out`
    /// already holds: [`ClientConnection::take_output`] returns them first.
    pub fn with_output(out: Vec<u8>) -> Self {
        let mut core = Core::new(out, &[]);
        core.out.put_slice(CONNECTION_PREFACE);
        frame::put_settings(
            &mut core.out,
            0,
            &[
                (settings_id::MAX_CONCURRENT_STREAMS, 100),
                (settings_id::INITIAL_WINDOW_SIZE, 65_535),
            ],
        );
        ClientConnection {
            next_stream_id: 1,
            core,
        }
    }

    /// Returns `true` once the server's SETTINGS frame has been received.
    pub fn is_established(&self) -> bool {
        self.core.peer_settings_received
    }

    /// Returns the GOAWAY error code if the server closed the connection.
    pub fn goaway(&self) -> Option<u32> {
        self.core.goaway
    }

    /// Queues a request and returns the stream id it was assigned.
    pub fn send_request(&mut self, request: &Request) -> u32 {
        let stream_id = self.next_stream_id;
        self.next_stream_id += 2;
        let pseudo = [
            (":method", request.method.as_str()),
            (":scheme", request.scheme.as_ref()),
            (":authority", request.authority.as_str()),
            (":path", request.path.as_str()),
        ];
        self.core.send(
            stream_id,
            pseudo.into_iter().chain(request.headers.iter()),
            &request.body,
        );
        stream_id
    }

    /// Drains the bytes queued for transmission to the server.
    pub fn take_output(&mut self) -> Vec<u8> {
        self.core.take_output()
    }

    /// Feeds bytes received from the server, returning every response that
    /// completed.
    ///
    /// # Errors
    ///
    /// Returns framing, HPACK and protocol errors.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Vec<(u32, Response)>, H2Error> {
        self.core.receive(bytes)
    }
}

/// The server half of an HTTP/2 connection.
#[derive(Debug)]
pub struct ServerConnection {
    core: Core<Request>,
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
        Self::with_output(Vec::new())
    }

    /// As [`ServerConnection::new`], queueing behind the octets `out`
    /// already holds: [`ServerConnection::take_output`] returns them first.
    pub fn with_output(out: Vec<u8>) -> Self {
        let mut core = Core::new(out, CONNECTION_PREFACE);
        frame::put_settings(
            &mut core.out,
            0,
            &[(settings_id::MAX_CONCURRENT_STREAMS, 128)],
        );
        ServerConnection { core }
    }

    /// Feeds bytes received from the client, returning every request that
    /// completed.
    ///
    /// # Errors
    ///
    /// Returns [`H2Error::UnexpectedPreface`] when the connection does not
    /// start with the HTTP/2 preface, plus framing and HPACK errors.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Vec<(u32, Request)>, H2Error> {
        self.core.receive(bytes)
    }

    /// Queues a response on the given stream.
    pub fn send_response(&mut self, stream_id: u32, response: &Response) {
        // The code's digits (three for any real status, five at most for a
        // u16), written on the stack.
        let mut digits = [0u8; 5];
        let mut unwritten = digits.as_mut_slice();
        let _ = write!(unwritten, "{}", response.status.as_u16());
        let unwritten = unwritten.len();
        let status = digits
            .get(..digits.len() - unwritten)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .unwrap_or_default();
        self.core.send(
            stream_id,
            [(":status", status)]
                .into_iter()
                .chain(response.headers.iter()),
            &response.body,
        );
    }

    /// Drains the bytes queued for transmission to the client.
    pub fn take_output(&mut self) -> Vec<u8> {
        self.core.take_output()
    }
}

impl Inbound for Response {
    fn from_fields(fields: hpack::Fields<'_>) -> Result<Self, H2Error> {
        let mut status = None;
        let mut headers = Headers::new();
        for field in fields {
            let (name, value) = field?;
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
            body: Vec::new(),
        })
    }

    fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }
}

impl Inbound for Request {
    fn from_fields(fields: hpack::Fields<'_>) -> Result<Self, H2Error> {
        let mut method = None;
        let mut path = None;
        let mut authority = String::new();
        let mut scheme = None;
        let mut headers = Headers::new();
        for field in fields {
            let (name, value) = field?;
            match name {
                ":method" => method = Method::from_token(value),
                ":path" => path = Some(value.to_string()),
                ":authority" => authority = value.to_string(),
                ":scheme" => {
                    scheme = Some(match value {
                        "https" => Cow::Borrowed("https"),
                        other => Cow::Owned(other.to_string()),
                    })
                }
                _ if !name.starts_with(':') => headers.append(name, value),
                _ => {}
            }
        }
        Ok(Request {
            method: method.ok_or_else(|| H2Error::Protocol("request without :method".into()))?,
            path: path.ok_or_else(|| H2Error::Protocol("request without :path".into()))?,
            authority,
            scheme: scheme.unwrap_or(Cow::Borrowed("https")),
            headers,
            body: Vec::new(),
        })
    }

    fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }
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

    /// Deployed clients send the priority fields; some pad. Both used to be
    /// read as header block.
    #[test]
    fn padded_and_prioritised_request_is_served() {
        let mut client = ClientConnection::new();
        client.send_request(&Request::post(
            "dns.google",
            "/dns-query",
            b"query".to_vec(),
        ));
        let plain = client.take_output();

        // The same octets with HEADERS padded and prioritised, DATA padded.
        let mut dressed = plain[..CONNECTION_PREFACE.len()].to_vec();
        let mut rest = &plain[CONNECTION_PREFACE.len()..];
        while let Some((raw, consumed)) = RawFrame::parse(rest).unwrap() {
            let (lead, trail, extra_flags): (&[u8], &[u8], u8) = match raw.frame_type {
                FrameType::Headers => (
                    &[4, 0, 0, 0, 0, 200],
                    &[0; 4],
                    flags::PADDED | flags::PRIORITY,
                ),
                FrameType::Data => (&[4], &[0; 4], flags::PADDED),
                _ => (&[], &[], 0),
            };
            let mut frame = BytesMut::new();
            frame::put_header(
                &mut frame,
                lead.len() + raw.payload.len() + trail.len(),
                raw.frame_type,
                raw.flags | extra_flags,
                raw.stream_id,
            );
            dressed.extend_from_slice(&frame);
            dressed.extend_from_slice(&[lead, raw.payload, trail].concat());
            rest = &rest[consumed..];
        }
        assert_eq!(dressed.len(), plain.len() + 10 + 5);

        let mut server = ServerConnection::new();
        let expected = ServerConnection::new().receive(&plain).unwrap();
        assert_eq!(expected.len(), 1);
        assert_eq!(expected[0].1.body, b"query");
        assert_eq!(server.receive(&dressed).unwrap(), expected);
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

    /// Every frame of an output, decoded.
    fn frames(mut bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while let Some((frame, consumed)) = Frame::decode(bytes).unwrap() {
            frames.push(frame);
            bytes = &bytes[consumed..];
        }
        frames
    }

    #[test]
    fn a_settings_ack_goes_out_once_ahead_of_the_next_frame() {
        let ack = Frame::Settings {
            ack: true,
            params: vec![],
        };
        let mut client = ClientConnection::new();
        let mut server = ServerConnection::new();
        client.send_request(&Request::get("dns.google", "/dns-query?dns=Q"));
        let requests = server.receive(&client.take_output()).unwrap();
        server.send_response(requests[0].0, &Response::ok("text/plain", b"a".to_vec()));
        let reply = frames(&server.take_output());
        assert!(matches!(reply[0], Frame::Settings { ack: false, .. }));
        assert_eq!(reply[1], ack, "acknowledged before the response");
        assert!(matches!(reply[2], Frame::Headers { .. }));
        assert_eq!(reply.iter().filter(|frame| **frame == ack).count(), 1);

        // The client owes one too, and writes it only if it writes again.
        let mut server = ServerConnection::new();
        client.receive(&server.take_output()).unwrap();
        assert_eq!(frames(&client.take_output()), [ack]);
        assert!(client.take_output().is_empty());
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
