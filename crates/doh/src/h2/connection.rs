//! HTTP/2 connection state machines.
//!
//! Both ends are byte-level state machines: callers feed received bytes in
//! with `receive` and pull bytes to transmit out with `take_output`, which
//! makes the connections trivially portable onto the synchronous simulated
//! transport (and onto a real socket, if one ever existed here).
//!
//! # One walk
//!
//! Received octets are read by one walker, `Walk::next_part`. It checks the
//! preface, parses each frame where it lies, applies the connection's own
//! frames (SETTINGS, PING; a GOAWAY is read and ignored) and the stream
//! rules of RFC 7540 §5.1, and hands out what belongs to a message as a
//! [`Part`] borrowed from the input: a head, a body's octets, a reset. A
//! head is read by the walk, in one pass over its block, into whatever the
//! caller reads heads as (the [`Head`] it asks for): its pseudo-header
//! fields and the regular fields an end needs (`content-type`,
//! `content-length`) in the lent [`RequestHead`] / [`ResponseHead`], every
//! field in the owned copy. The stream rules are connection errors
//! (`PROTOCOL_ERROR`, §5.1, §5.1.1,
//! §6.1, §6.2, §8.1.2.6):
//!
//! * nothing arrives on stream 0;
//! * a HEADERS frame opens a stream only where the peer may open one — at a
//!   server, a client's odd identifier above every one it opened before; a
//!   server opens none at a client, which takes heads only on the streams
//!   it opened;
//! * DATA arrives only on a stream whose head did, and a second HEADERS
//!   frame on such a stream is its trailers, which must end it (their fields
//!   are checked and dropped);
//! * a head's `content-length` is digits, one value however often it is
//!   given, and the sum of the stream's DATA payloads.
//!
//! The owned `receive` of both ends is that walk plus a copy into a
//! [`Request`] / [`Response`]; the DoH ends read the parts where they lie.
//!
//! # Who owns which buffer
//!
//! * **Output** belongs to the connection until `take_output` hands it
//!   over, whole. Frames are written where they go: a message is an
//!   [`Outgoing`] — its HEADERS frame header put down first, each field
//!   HPACK-encoded behind it as it is given (a `&str`, digits formatted on
//!   the stack, or octets a closure writes, like a DoH GET's base64url
//!   query), then the frame closed and the body's DATA frame written behind
//!   it. `send_request` / `send_response` feed one from a `Request` /
//!   `Response`; the DoH ends feed theirs from the resolver name, the query
//!   and the answer, and build no HTTP object. The DoH client writes the
//!   octets its requests share once, with the same writer, and copies each
//!   request from them ([`RequestFrames`]); the terminator writes a 200's
//!   constant fields from one pre-encoded block ([`Outgoing::encoded`]). `with_output` starts the
//!   connection behind octets the caller already wrote (the DoH ends pass
//!   their envelope header), so one buffer carries a payload from its first
//!   octet to the record tag.
//! * **Input** stays the caller's. The walk lends each part from the slice
//!   it is given: a DoH end reads the fields and the body where they lie in
//!   the opened record (a body that arrives in two DATA frames or more is
//!   the one thing copied, see [`Body`]). The owned `receive` copies out
//!   what outlives the call: a message's strings and body, and the tail of a
//!   frame the slice ended inside, which waits in the connection for the
//!   next call.
//! * **A received message's header fields** are one buffer of the
//!   message's own ([`Headers`]: every name and value back to back, plus
//!   their end offsets), appended to field by field straight from the
//!   block's octets or the static table.
//! * **Streams** a message is arriving on sit in a vector, looked up by
//!   scanning: a DoH connection carries one, and a handful at most. A GET
//!   arriving at a server, one HEADERS frame that ends its stream, never
//!   enters it.
//!
//! Simplifications relative to a production stack, all documented: the
//! peer's SETTINGS are checked and acknowledged but not applied, so flow
//! control windows are never enforced (DoH messages are far below the
//! default 64 KiB window), CONTINUATION frames are not emitted (header
//! blocks fit in one frame) and not accepted, and stream priorities are
//! parsed and dropped (PRIORITY frames as well as the priority fields of a
//! HEADERS frame), as is padding.

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

use crate::http::{Headers, Method, Request, Response, StatusCode};

use super::error::H2Error;
use super::frame::{self, flags, Frame, FrameType, RawFrame, CONNECTION_PREFACE};
use super::hpack::{self, Fields};

/// SETTINGS identifiers this implementation announces.
mod settings_id {
    /// SETTINGS_MAX_CONCURRENT_STREAMS.
    pub const MAX_CONCURRENT_STREAMS: u16 = 0x3;
    /// SETTINGS_INITIAL_WINDOW_SIZE.
    pub const INITIAL_WINDOW_SIZE: u16 = 0x4;
}

/// What of a message one frame carries, borrowed from the octets walked.
#[derive(Debug)]
enum Part<'a, H> {
    /// A HEADERS frame opening the message: its head, read out of the
    /// header block, and whether it ends the stream (no body follows).
    Head {
        stream_id: u32,
        head: H,
        end_stream: bool,
    },
    /// Body octets from a DATA frame, and whether they end the stream.
    /// Trailers end a body too: as octets none, `end_stream` set.
    Body {
        stream_id: u32,
        octets: &'a [u8],
        end_stream: bool,
    },
    /// The peer reset the stream: its message will not complete.
    Reset { stream_id: u32 },
}

/// A message's head as an end takes it out of its header block: lent where
/// it lies ([`RequestHead`], [`ResponseHead`]) or copied into the owned
/// [`Request`] / [`Response`] `receive` returns. The walk reads each head
/// through this, once, so the body length the head declares is known to
/// the stream rules whichever end reads it.
trait Head<'a>: Sized {
    /// Reads the head in one walk of its block, every field checked, and
    /// the body length its `content-length` declares.
    fn read(fields: Fields<'a>) -> Result<(Self, Option<u64>), H2Error>;
}

/// A message's body as its DATA frames arrive: lent while it is one
/// frame's payload, copied once a second frame adds to it (the one copy
/// the lent reads make).
#[derive(Debug, Default)]
pub(crate) struct Body<'a>(Cow<'a, [u8]>);

impl<'a> Body<'a> {
    pub(crate) fn push(&mut self, octets: &'a [u8]) {
        if self.0.is_empty() {
            self.0 = Cow::Borrowed(octets);
        } else if !octets.is_empty() {
            self.0.to_mut().extend_from_slice(octets);
        }
    }

    pub(crate) fn octets(&self) -> &[u8] {
        &self.0
    }
}

/// The regular fields a head reads on its one walk, besides handing each
/// to the owned copy: `content-type` (the first one counts) and
/// `content-length`.
#[derive(Default)]
struct Declared<'a> {
    content_type: Option<&'a str>,
    content_length: Option<u64>,
}

impl<'a> Declared<'a> {
    /// Notes a regular field. A `content-length` must be digits, and one
    /// that repeats must repeat its value (RFC 7230 §3.3.2): either way
    /// the message's length would be in doubt.
    fn note(&mut self, name: &str, value: &'a str) -> Result<(), H2Error> {
        if name.eq_ignore_ascii_case("content-type") {
            self.content_type = self.content_type.or(Some(value));
        } else if name.eq_ignore_ascii_case("content-length") {
            let length = value
                .bytes()
                .all(|octet| octet.is_ascii_digit())
                .then(|| value.parse::<u64>().ok())
                .flatten()
                .filter(|length| self.content_length.is_none_or(|first| first == *length))
                .ok_or_else(|| H2Error::Protocol(format!("malformed content-length {value:?}")))?;
            self.content_length = Some(length);
        }
        Ok(())
    }
}

/// A request's head where it lies: its pseudo-header fields and the regular
/// fields the DoH terminator reads, out of one walk of the block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestHead<'a> {
    pub(crate) method: Method,
    /// Path and query string.
    pub(crate) path: &'a str,
    /// `""` when the request names none.
    pub(crate) authority: &'a str,
    pub(crate) scheme: Option<&'a str>,
    /// The first `content-type` field's value.
    pub(crate) content_type: Option<&'a str>,
    #[cfg(test)]
    fields: Fields<'a>,
}

impl<'a> RequestHead<'a> {
    /// Walks the block once, every field checked, handing each regular
    /// field to `regular` on the way (the owned copy keeps them). A request
    /// must carry `:method` (one this implementation knows) and `:path`,
    /// and no pseudo-header field twice (RFC 9113 §8.3).
    fn read_with(
        fields: Fields<'a>,
        mut regular: impl FnMut(&'a str, &'a str),
    ) -> Result<(Self, Option<u64>), H2Error> {
        let (mut method, mut path, mut authority, mut scheme) = (None, None, None, None);
        let mut declared = Declared::default();
        for field in fields {
            match field? {
                (":method", value) => once(&mut method, ":method", value)?,
                (":path", value) => once(&mut path, ":path", value)?,
                (":authority", value) => once(&mut authority, ":authority", value)?,
                (":scheme", value) => once(&mut scheme, ":scheme", value)?,
                (name, value) if !name.starts_with(':') => {
                    declared.note(name, value)?;
                    regular(name, value);
                }
                _ => {}
            }
        }
        let head = RequestHead {
            method: method
                .and_then(Method::from_token)
                .ok_or_else(|| H2Error::Protocol("request without :method".into()))?,
            path: path.ok_or_else(|| H2Error::Protocol("request without :path".into()))?,
            authority: authority.unwrap_or_default(),
            scheme,
            content_type: declared.content_type,
            #[cfg(test)]
            fields,
        };
        Ok((head, declared.content_length))
    }

    /// The regular (not pseudo-header) fields, in order: what the owned copy
    /// keeps, for the h2 oracle to compare.
    #[cfg(test)]
    pub(crate) fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        regular(self.fields)
    }
}

impl<'a> Head<'a> for RequestHead<'a> {
    fn read(fields: Fields<'a>) -> Result<(Self, Option<u64>), H2Error> {
        Self::read_with(fields, |_, _| {})
    }
}

/// A response's head where it lies: its status and the regular fields the
/// DoH client reads, out of one walk of the block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResponseHead<'a> {
    pub(crate) status: StatusCode,
    /// The first `content-type` field's value.
    pub(crate) content_type: Option<&'a str>,
    #[cfg(test)]
    fields: Fields<'a>,
}

impl<'a> ResponseHead<'a> {
    /// Walks the block once, every field checked, handing each regular
    /// field to `regular` on the way (the owned copy keeps them). A response
    /// must carry one `:status` of exactly three digits (RFC 9110 §15), and
    /// no pseudo-header field twice (RFC 9113 §8.3).
    fn read_with(
        fields: Fields<'a>,
        mut regular: impl FnMut(&'a str, &'a str),
    ) -> Result<(Self, Option<u64>), H2Error> {
        let mut status = None;
        let mut declared = Declared::default();
        for field in fields {
            match field? {
                (":status", value) => once(&mut status, ":status", value)?,
                (name, value) if !name.starts_with(':') => {
                    declared.note(name, value)?;
                    regular(name, value);
                }
                _ => {}
            }
        }
        let status = status.ok_or_else(|| H2Error::Protocol("response without :status".into()))?;
        let status = (status.len() == 3 && status.bytes().all(|octet| octet.is_ascii_digit()))
            .then(|| status.parse::<u16>().ok())
            .flatten()
            .ok_or_else(|| H2Error::Protocol(format!("malformed :status {status:?}")))?;
        let head = ResponseHead {
            status: StatusCode::from(status),
            content_type: declared.content_type,
            #[cfg(test)]
            fields,
        };
        Ok((head, declared.content_length))
    }

    /// The regular (not pseudo-header) fields, in order: what the owned copy
    /// keeps, for the h2 oracle to compare.
    #[cfg(test)]
    pub(crate) fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        regular(self.fields)
    }
}

impl<'a> Head<'a> for ResponseHead<'a> {
    fn read(fields: Fields<'a>) -> Result<(Self, Option<u64>), H2Error> {
        Self::read_with(fields, |_, _| {})
    }
}

/// Takes a pseudo-header field's value: RFC 9113 §8.3 allows each once,
/// and a message that repeats one is malformed.
fn once<'a>(slot: &mut Option<&'a str>, name: &str, value: &'a str) -> Result<(), H2Error> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(H2Error::Protocol(format!("repeated {name}"))),
    }
}

/// The regular (not pseudo-header) fields of a block a head has read, so
/// none of them is an error any more.
#[cfg(test)]
fn regular<'a>(fields: Fields<'a>) -> impl Iterator<Item = (&'a str, &'a str)> {
    fields
        .filter_map(Result::ok)
        .filter(|(name, _)| !name.starts_with(':'))
}

/// A message being written where it goes (see the module doc): its HEADERS
/// frame takes the fields given until [`Outgoing::body`] closes it.
#[must_use = "a message is written only once `body` closes its HEADERS frame"]
pub(crate) struct Outgoing<'o> {
    out: &'o mut Vec<u8>,
    header_at: usize,
    stream_id: u32,
}

impl<'o> Outgoing<'o> {
    fn new(out: &'o mut Vec<u8>, stream_id: u32) -> Self {
        let header_at = out.len();
        frame::put_header(out, 0, FrameType::Headers, flags::END_HEADERS, stream_id);
        Outgoing {
            out,
            header_at,
            stream_id,
        }
    }

    pub(crate) fn field(&mut self, name: &str, value: &str) -> &mut Self {
        hpack::encode_field(self.out, name, value);
        self
    }

    /// A short value (a status, a length, `max-age=` and a TTL) formatted
    /// on the stack; one longer than 32 octets is cut there.
    pub(crate) fn field_fmt(&mut self, name: &str, value: fmt::Arguments<'_>) -> &mut Self {
        let mut text = [0u8; 32];
        let mut unwritten = text.as_mut_slice();
        let _ = unwritten.write_fmt(value);
        let written = 32 - unwritten.len();
        let value = text
            .get(..written)
            .and_then(|text| std::str::from_utf8(text).ok())
            .unwrap_or_default();
        self.field(name, value)
    }

    /// A literal field whose value is `prefix` and then `value` in decimal
    /// digits, written without `fmt` (a length; `max-age=` and a TTL), and
    /// one no static entry holds.
    pub(crate) fn field_decimal(&mut self, name: &str, prefix: &str, value: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let (mut rest, mut start) = (value, digits.len());
        for digit in digits.iter_mut().rev() {
            *digit = b'0' + u8::try_from(rest % 10).unwrap_or_default();
            start -= 1;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let digits = digits.get(start..).unwrap_or_default();
        self.field_with(name, prefix.len() + digits.len(), |out| {
            out.extend_from_slice(prefix.as_bytes());
            out.extend_from_slice(digits);
        })
    }

    /// Fields HPACK-encoded beforehand (a constant head), written as they
    /// are.
    pub(crate) fn encoded(&mut self, fields: &[u8]) -> &mut Self {
        self.out.extend_from_slice(fields);
        self
    }

    /// A literal field whose value is the `len` octets `value` appends to
    /// the output, and one no static entry holds.
    pub(crate) fn field_with(
        &mut self,
        name: &str,
        len: usize,
        value: impl FnOnce(&mut Vec<u8>),
    ) -> &mut Self {
        hpack::encode_literal_with(self.out, name, len, value);
        self
    }

    /// Closes the HEADERS frame — ending the stream if `body` is empty — and
    /// writes a non-empty `body` behind it in a DATA frame that does.
    pub(crate) fn body(self, body: &[u8]) {
        if body.is_empty() {
            frame::close_frame(self.out, self.header_at, flags::END_STREAM);
            return;
        }
        frame::close_frame(self.out, self.header_at, 0);
        frame::put_header(
            self.out,
            body.len(),
            FrameType::Data,
            flags::END_STREAM,
            self.stream_id,
        );
        self.out.extend_from_slice(body);
    }
}

/// A request written once and sent on many connections, each time on the
/// first stream of a fresh one: the octets from the caller's prefix through
/// the preface, the SETTINGS frame and the HEADERS frame's fields up to the
/// one that varies from request to request (`head`), and the fields behind
/// it (`tail`), both written by the field writer. A request copies the head,
/// puts its own field, copies the tail and closes the frame: octet for octet
/// what [`ClientConnection::with_output`], [`ClientConnection::open_stream`]
/// and the same fields write, for a fraction of the work. Its connection is
/// [`ClientConnection::first_request_sent`].
#[derive(Debug, Clone)]
pub(crate) struct RequestFrames {
    head: Vec<u8>,
    /// Where the HEADERS frame's header is in `head`.
    headers_at: usize,
    tail: Vec<u8>,
}

impl RequestFrames {
    /// Writes, behind `prefix`, the preface, the SETTINGS frame and the
    /// fields of a request on the first stream: those `before` gives ahead
    /// of the varying field and those `after` gives behind it.
    pub(crate) fn new(
        prefix: Vec<u8>,
        before: impl FnOnce(&mut Outgoing<'_>),
        after: impl FnOnce(&mut Outgoing<'_>),
    ) -> Self {
        let mut connection = ClientConnection::with_output(prefix);
        let (_, mut request) = connection.open_stream();
        before(&mut request);
        let split = request.out.len();
        after(&mut request);
        // The frame is left open: each request closes its own.
        let headers_at = request.header_at;
        let mut head = connection.take_output();
        let tail = head.split_off(split);
        RequestFrames {
            head,
            headers_at,
            tail,
        }
    }

    /// One request: the head, `field` (one HPACK-encoded field), the tail,
    /// the HEADERS frame closed and a non-empty `body` behind it in a DATA
    /// frame, in one buffer with room for `spare` octets more (a record's
    /// tag).
    pub(crate) fn write(&self, field: &[u8], body: &[u8], spare: usize) -> Vec<u8> {
        // A DATA frame is its 9-octet header and the body.
        let data = if body.is_empty() { 0 } else { 9 + body.len() };
        let len = self.head.len() + field.len() + self.tail.len() + data + spare;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&self.head);
        out.extend_from_slice(field);
        out.extend_from_slice(&self.tail);
        Outgoing {
            out: &mut out,
            header_at: self.headers_at,
            stream_id: FIRST_STREAM,
        }
        .body(body);
        out
    }
}

/// The stream a client's first request goes out on (RFC 7540 §5.1.1).
const FIRST_STREAM: u32 = 1;

/// Where a stream's message is, for the frames that may still arrive on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arriving {
    /// This end opened the stream: the peer's head is due.
    Head,
    /// The head arrived: DATA frames (or trailers) follow, as many octets
    /// as are left of what its `content-length` declared, if it did.
    Body { left: Option<u64> },
}

/// The streams a message is arriving on, by id. A DoH connection carries
/// one exchange, so the first stream is kept inline and only a connection
/// with more than one open at a time spills to the heap: opening a
/// client's stream allocates nothing. Ids are unique, so the order they
/// are kept in does not matter.
#[derive(Debug, Default)]
struct Streams {
    one: Option<(u32, Arriving)>,
    more: Vec<(u32, Arriving)>,
}

impl Streams {
    fn get_mut(&mut self, id: u32) -> Option<&mut Arriving> {
        self.one
            .iter_mut()
            .chain(self.more.iter_mut())
            .find_map(|(open, arriving)| (*open == id).then_some(arriving))
    }

    /// Opens `id`, which is not open.
    fn insert(&mut self, id: u32, arriving: Arriving) {
        if self.one.is_none() {
            self.one = Some((id, arriving));
        } else {
            self.more.push((id, arriving));
        }
    }

    fn remove(&mut self, id: u32) -> Option<Arriving> {
        if let Some((_, arriving)) = self.one.take_if(|(open, _)| *open == id) {
            return Some(arriving);
        }
        let at = self.more.iter().position(|(open, _)| *open == id)?;
        Some(self.more.swap_remove(at).1)
    }
}

/// The state the walk of received octets keeps, and the output queue.
#[derive(Debug)]
struct Walk {
    out: Vec<u8>,
    /// What the peer has to send before its first frame and has not yet:
    /// the connection preface at the server, nothing at the client.
    preface: &'static [u8],
    /// The tail of a frame (or of the preface) that the last owned
    /// `receive` ended inside.
    pending: Vec<u8>,
    /// The streams a message is arriving on.
    streams: Streams,
    /// Whether the peer opens streams (a client does, at a server) and the
    /// last one it opened.
    peer_opens: bool,
    last_opened: u32,
    peer_settings_received: bool,
    /// The peer's SETTINGS still wants its acknowledgement: written ahead of
    /// the next frame this end queues, or when the output is taken.
    settings_ack_owed: bool,
}

impl Walk {
    fn new(out: Vec<u8>, preface: &'static [u8], peer_opens: bool) -> Self {
        Walk {
            out,
            preface,
            pending: Vec::new(),
            streams: Streams::default(),
            peer_opens,
            last_opened: 0,
            peer_settings_received: false,
            settings_ack_owed: false,
        }
    }

    /// The output queue, an owed SETTINGS acknowledgement written first.
    /// On the wire the ack is where it always was, before the next frame;
    /// an end that queues nothing more (a client holding its response)
    /// writes none.
    fn output(&mut self) -> &mut Vec<u8> {
        if std::mem::take(&mut self.settings_ack_owed) {
            frame::put_settings(&mut self.out, flags::ACK, &[]);
        }
        &mut self.out
    }

    fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(self.output())
    }

    /// The next part of a message in `input`, every connection frame before
    /// it applied and every head read as an `H`; `input` is left behind what
    /// was walked. `Ok(None)`: no complete frame is left (nor, at a server
    /// that has not seen it yet, a complete preface).
    fn next_part<'a, H: Head<'a>>(
        &mut self,
        input: &mut &'a [u8],
    ) -> Result<Option<Part<'a, H>>, H2Error> {
        if !self.preface.is_empty() {
            let whole: &'a [u8] = input;
            let Some((preface, frames)) = whole.split_at_checked(self.preface.len()) else {
                return Ok(None);
            };
            if preface != self.preface {
                return Err(H2Error::UnexpectedPreface);
            }
            self.preface = &[];
            *input = frames;
        }
        while let Some((raw, consumed)) = RawFrame::parse(input)? {
            let rest: &'a [u8] = input;
            *input = rest.get(consumed..).unwrap_or_default();
            if let Some(part) = self.apply(raw)? {
                return Ok(Some(part));
            }
        }
        Ok(None)
    }

    /// Applies one frame; what it carries of a message is returned.
    fn apply<'a, H: Head<'a>>(
        &mut self,
        raw: RawFrame<'a>,
    ) -> Result<Option<Part<'a, H>>, H2Error> {
        let stream_id = raw.stream_id;
        let end_stream = raw.end_stream();
        match raw.frame_type {
            FrameType::Headers => {
                if !raw.end_headers() {
                    return Err(H2Error::Protocol(
                        "continuation frames are not supported".into(),
                    ));
                }
                return self.headers_arrive(stream_id, Fields::new(raw.payload), end_stream);
            }
            FrameType::Data => {
                self.data_arrives(stream_id, raw.payload.len(), end_stream)?;
                return Ok(Some(Part::Body {
                    stream_id,
                    octets: raw.payload,
                    end_stream,
                }));
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
                self.streams.remove(stream_id);
                return Ok(Some(Part::Reset { stream_id }));
            }
            _ => {}
        }
        Ok(None)
    }

    /// The stream rules (module doc) for a HEADERS frame on `id`: a
    /// message's head, read, or the trailers of one whose body is arriving,
    /// checked and dropped.
    fn headers_arrive<'a, H: Head<'a>>(
        &mut self,
        id: u32,
        fields: Fields<'a>,
        end_stream: bool,
    ) -> Result<Option<Part<'a, H>>, H2Error> {
        let arriving = self.streams.get_mut(id).copied();
        match arriving {
            None if !self.peer_opens || id.is_multiple_of(2) || id <= self.last_opened => {
                Err(H2Error::Protocol(format!(
                    "headers on stream {id}, which the peer may not open"
                )))
            }
            Some(Arriving::Body { .. }) if !end_stream => Err(H2Error::Protocol(format!(
                "headers on stream {id} in the middle of its body"
            ))),
            Some(Arriving::Body { left }) => {
                for field in fields {
                    field?;
                }
                self.streams.remove(id);
                body_ends(id, left)?;
                Ok(Some(Part::Body {
                    stream_id: id,
                    octets: &[],
                    end_stream,
                }))
            }
            // A stream the peer opens, or one this end opened.
            opened => {
                if opened.is_none() {
                    self.last_opened = id;
                }
                let (head, declared) = H::read(fields)?;
                self.streams.remove(id);
                if end_stream {
                    body_ends(id, declared)?;
                } else {
                    self.streams.insert(id, Arriving::Body { left: declared });
                }
                Ok(Some(Part::Head {
                    stream_id: id,
                    head,
                    end_stream,
                }))
            }
        }
    }

    /// The stream rules (module doc) for a DATA frame of `len` octets on
    /// `id`.
    fn data_arrives(&mut self, id: u32, len: usize, end_stream: bool) -> Result<(), H2Error> {
        let arriving = self
            .streams
            .get_mut(id)
            .filter(|arriving| **arriving != Arriving::Head)
            .ok_or_else(|| {
                H2Error::Protocol(format!("data on stream {id}, where no head has arrived"))
            })?;
        if let Arriving::Body { left: Some(left) } = arriving {
            *left = u64::try_from(len)
                .ok()
                .and_then(|len| left.checked_sub(len))
                .ok_or_else(|| overrun(id))?;
        }
        if end_stream {
            if let Some(Arriving::Body { left }) = self.streams.remove(id) {
                body_ends(id, left)?;
            }
        }
        Ok(())
    }
}

/// RFC 7540 §8.1.2.6: a message whose `content-length` differs from the sum
/// of its DATA payloads is malformed. The walk treats it as it treats the
/// other stream rules, as a connection error: a DoH connection carries one
/// exchange, so the two come to the same.
fn overrun(id: u32) -> H2Error {
    H2Error::Protocol(format!(
        "stream {id}: the DATA differ from the content-length"
    ))
}

/// A stream's body ended with `left` octets of its declared length unsent,
/// if it declared one.
fn body_ends(id: u32, left: Option<u64>) -> Result<(), H2Error> {
    match left {
        Some(left) if left != 0 => Err(overrun(id)),
        _ => Ok(()),
    }
}

/// The message an end receives as its own copy: a response at the client,
/// a request at the server. Its head is read by [`Head`].
trait Inbound {
    /// The body, for the octets of its DATA frames to be appended to.
    fn body(&mut self) -> &mut Vec<u8>;
}

/// The owned messages whose bodies are still arriving, by stream.
#[derive(Debug)]
struct Inbox<M> {
    partials: Vec<(u32, M)>,
}

impl<M: Inbound + for<'a> Head<'a>> Inbox<M> {
    fn new() -> Self {
        Inbox {
            partials: Vec::new(),
        }
    }

    /// The owned receive: the walk of `bytes` (behind the tail the last call
    /// left), each part copied into its message. Returns the messages
    /// completed, in the order they completed.
    fn receive(&mut self, walk: &mut Walk, bytes: &[u8]) -> Result<Vec<(u32, M)>, H2Error> {
        let mut completed = Vec::new();
        if walk.pending.is_empty() {
            let rest = self.absorb(walk, bytes, &mut completed)?;
            walk.pending.extend_from_slice(rest);
        } else {
            let mut input = std::mem::take(&mut walk.pending);
            input.extend_from_slice(bytes);
            let rest = self.absorb(walk, &input, &mut completed)?.len();
            input.drain(..input.len() - rest);
            walk.pending = input;
        }
        Ok(completed)
    }

    /// Walks `input` and returns the tail no complete frame was left in.
    fn absorb<'a>(
        &mut self,
        walk: &mut Walk,
        mut input: &'a [u8],
        completed: &mut Vec<(u32, M)>,
    ) -> Result<&'a [u8], H2Error> {
        while let Some(part) = walk.next_part::<M>(&mut input)? {
            match part {
                Part::Head {
                    stream_id,
                    head,
                    end_stream,
                } => {
                    if end_stream {
                        completed.push((stream_id, head));
                    } else {
                        self.partials.push((stream_id, head));
                    }
                }
                Part::Body {
                    stream_id,
                    octets,
                    end_stream,
                } => {
                    let Some(at) = self.partials.iter().position(|(id, _)| *id == stream_id) else {
                        continue;
                    };
                    if let Some((_, message)) = self.partials.get_mut(at) {
                        message.body().extend_from_slice(octets);
                    }
                    if end_stream {
                        completed.push(self.partials.remove(at));
                    }
                }
                Part::Reset { stream_id } => self.partials.retain(|(id, _)| *id != stream_id),
            }
        }
        Ok(input)
    }
}

/// The client half of an HTTP/2 connection.
#[derive(Debug)]
pub struct ClientConnection {
    next_stream_id: u32,
    walk: Walk,
    inbox: Inbox<Response>,
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
        let mut walk = Walk::new(out, &[], false);
        walk.out.extend_from_slice(CONNECTION_PREFACE);
        frame::put_settings(
            &mut walk.out,
            0,
            &[
                (settings_id::MAX_CONCURRENT_STREAMS, 100),
                (settings_id::INITIAL_WINDOW_SIZE, 65_535),
            ],
        );
        ClientConnection {
            next_stream_id: FIRST_STREAM,
            walk,
            inbox: Inbox::new(),
        }
    }

    /// The connection a [`RequestFrames`] request went out on, and its
    /// stream: the preface, the SETTINGS frame and the request on the first
    /// stream written, nothing queued, the response on that stream due.
    pub(crate) fn first_request_sent() -> (Self, u32) {
        let mut walk = Walk::new(Vec::new(), &[], false);
        walk.streams.insert(FIRST_STREAM, Arriving::Head);
        let connection = ClientConnection {
            next_stream_id: FIRST_STREAM + 2,
            walk,
            inbox: Inbox::new(),
        };
        (connection, FIRST_STREAM)
    }

    /// Returns `true` once the server's SETTINGS frame has been received.
    pub fn is_established(&self) -> bool {
        self.walk.peer_settings_received
    }

    /// Queues a request and returns the stream id it was assigned.
    pub fn send_request(&mut self, request: &Request) -> u32 {
        let (stream_id, mut message) = self.open_stream();
        message
            .field(":method", request.method.as_str())
            .field(":scheme", &request.scheme)
            .field(":authority", &request.authority)
            .field(":path", &request.path);
        for (name, value) in request.headers.iter() {
            message.field(name, value);
        }
        message.body(&request.body);
        stream_id
    }

    /// Opens the next stream and starts the request on it: the caller gives
    /// its fields and closes it with its body.
    pub(crate) fn open_stream(&mut self) -> (u32, Outgoing<'_>) {
        let stream_id = self.next_stream_id;
        self.next_stream_id += 2;
        self.walk.streams.insert(stream_id, Arriving::Head);
        (stream_id, Outgoing::new(self.walk.output(), stream_id))
    }

    /// Drains the bytes queued for transmission to the server.
    pub fn take_output(&mut self) -> Vec<u8> {
        self.walk.take_output()
    }

    /// Feeds bytes received from the server, returning every response that
    /// completed.
    ///
    /// # Errors
    ///
    /// Returns framing, HPACK and protocol errors.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Vec<(u32, Response)>, H2Error> {
        self.inbox.receive(&mut self.walk, bytes)
    }

    /// The response on `stream_id` among the frames of `input`, received
    /// whole (an opened record), read where it lies: its head and its body,
    /// or `None` if it did not complete. Every frame is walked, as
    /// `receive` would.
    ///
    /// # Errors
    ///
    /// As [`ClientConnection::receive`].
    pub(crate) fn response<'a>(
        &mut self,
        mut input: &'a [u8],
        stream_id: u32,
    ) -> Result<Option<(ResponseHead<'a>, Body<'a>)>, H2Error> {
        let (mut head, mut body, mut ended) = (None, Body::default(), false);
        while let Some(part) = self.walk.next_part::<ResponseHead<'a>>(&mut input)? {
            match part {
                // Every head is read by the walk, as `receive` reads it.
                Part::Head {
                    stream_id: on,
                    head: read,
                    end_stream,
                } if on == stream_id => {
                    head = Some(read);
                    ended = end_stream;
                }
                Part::Body {
                    stream_id: on,
                    octets,
                    end_stream,
                } if on == stream_id => {
                    body.push(octets);
                    ended = end_stream;
                }
                // A reset stream never ends.
                _ => {}
            }
        }
        Ok(head.filter(|_| ended).map(|head| (head, body)))
    }
}

/// The server half of an HTTP/2 connection.
#[derive(Debug)]
pub struct ServerConnection {
    walk: Walk,
    inbox: Inbox<Request>,
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
        let mut walk = Walk::new(out, CONNECTION_PREFACE, true);
        frame::put_settings(
            &mut walk.out,
            0,
            &[(settings_id::MAX_CONCURRENT_STREAMS, 128)],
        );
        ServerConnection {
            walk,
            inbox: Inbox::new(),
        }
    }

    /// Feeds bytes received from the client, returning every request that
    /// completed.
    ///
    /// # Errors
    ///
    /// Returns [`H2Error::UnexpectedPreface`] when the connection does not
    /// start with the HTTP/2 preface, [`H2Error::Protocol`] for a frame on a
    /// stream it may not arrive on, plus framing and HPACK errors.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<Vec<(u32, Request)>, H2Error> {
        self.inbox.receive(&mut self.walk, bytes)
    }

    /// Walks the frames of `input`, received whole (an opened record), and
    /// hands each request to `answer` as it completes — in the order
    /// `receive` would return them — read where it lies: its stream, its
    /// head and its body, with this connection to answer on.
    ///
    /// # Errors
    ///
    /// As [`ServerConnection::receive`]; the requests completed before the
    /// error have been answered.
    pub(crate) fn serve<'a>(
        &mut self,
        mut input: &'a [u8],
        mut answer: impl FnMut(&mut Self, u32, &RequestHead<'a>, &[u8]),
    ) -> Result<(), H2Error> {
        // Requests whose bodies are still arriving; a GET never waits here.
        let mut arriving: Vec<(u32, RequestHead<'a>, Body<'a>)> = Vec::new();
        while let Some(part) = self.walk.next_part::<RequestHead<'a>>(&mut input)? {
            match part {
                Part::Head {
                    stream_id,
                    head,
                    end_stream,
                } => {
                    if end_stream {
                        answer(self, stream_id, &head, &[]);
                    } else {
                        arriving.push((stream_id, head, Body::default()));
                    }
                }
                Part::Body {
                    stream_id,
                    octets,
                    end_stream,
                } => {
                    let Some(at) = arriving.iter().position(|(id, ..)| *id == stream_id) else {
                        continue;
                    };
                    if let Some((_, _, body)) = arriving.get_mut(at) {
                        body.push(octets);
                    }
                    if end_stream {
                        let (stream_id, head, body) = arriving.remove(at);
                        answer(self, stream_id, &head, body.octets());
                    }
                }
                Part::Reset { stream_id } => arriving.retain(|(id, ..)| *id != stream_id),
            }
        }
        Ok(())
    }

    /// Queues a response on the given stream.
    pub fn send_response(&mut self, stream_id: u32, response: &Response) {
        let mut message = self.respond(stream_id);
        message.field_fmt(":status", format_args!("{}", response.status.as_u16()));
        for (name, value) in response.headers.iter() {
            message.field(name, value);
        }
        message.body(&response.body);
    }

    /// Starts the response on `stream_id`: the caller gives its fields,
    /// `:status` first, and closes it with its body.
    pub(crate) fn respond(&mut self, stream_id: u32) -> Outgoing<'_> {
        Outgoing::new(self.walk.output(), stream_id)
    }

    /// Drains the bytes queued for transmission to the client.
    pub fn take_output(&mut self) -> Vec<u8> {
        self.walk.take_output()
    }
}

impl<'a> Head<'a> for Response {
    fn read(fields: Fields<'a>) -> Result<(Self, Option<u64>), H2Error> {
        let mut headers = Headers::new();
        let (head, declared) =
            ResponseHead::read_with(fields, |name, value| headers.append(name, value))?;
        let response = Response {
            status: head.status,
            headers,
            body: Vec::new(),
        };
        Ok((response, declared))
    }
}

impl Inbound for Response {
    fn body(&mut self) -> &mut Vec<u8> {
        &mut self.body
    }
}

impl<'a> Head<'a> for Request {
    fn read(fields: Fields<'a>) -> Result<(Self, Option<u64>), H2Error> {
        let mut headers = Headers::new();
        let (head, declared) =
            RequestHead::read_with(fields, |name, value| headers.append(name, value))?;
        let request = Request {
            method: head.method,
            path: head.path.to_string(),
            authority: head.authority.to_string(),
            scheme: match head.scheme {
                None | Some("https") => Cow::Borrowed("https"),
                Some(other) => Cow::Owned(other.to_string()),
            },
            headers,
            body: Vec::new(),
        };
        Ok((request, declared))
    }
}

impl Inbound for Request {
    fn body(&mut self) -> &mut Vec<u8> {
        &mut self.body
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
            let mut frame = Vec::new();
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
        let mut bogus = Vec::new();
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

        let mut ping = Vec::new();
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

    /// A client's octets: the preface, then `frames`.
    fn from_a_client(frames: &[Frame]) -> Vec<u8> {
        let mut out = CONNECTION_PREFACE.to_vec();
        for frame in frames {
            frame.encode(&mut out);
        }
        out
    }

    /// The HEADERS frame of a request on `stream_id`.
    fn request_head(stream_id: u32, end_stream: bool) -> Frame {
        let method = if end_stream { "GET" } else { "POST" };
        Frame::Headers {
            stream_id,
            end_stream,
            end_headers: true,
            block: hpack::encode(&[
                (":method".into(), method.into()),
                (":path".into(), "/dns-query?dns=AAAB".into()),
            ]),
        }
    }

    fn data(stream_id: u32, end_stream: bool) -> Frame {
        Frame::Data {
            stream_id,
            end_stream,
            data: b"body".to_vec(),
        }
    }

    fn served(frames: &[Frame]) -> Result<Vec<(u32, Request)>, H2Error> {
        ServerConnection::new().receive(&from_a_client(frames))
    }

    /// RFC 7540 §5.1.1, §6.2: stream 0 is the connection's own. A request
    /// on it used to be served.
    #[test]
    fn headers_on_stream_0_are_a_connection_error() {
        let received = served(&[request_head(0, true)]);
        assert!(
            matches!(received, Err(H2Error::Protocol(_))),
            "{received:?}"
        );
        assert_eq!(served(&[request_head(1, true)]).unwrap().len(), 1);
    }

    /// §5.1.1: a client opens odd-numbered streams only. A request on
    /// stream 2 used to be served.
    #[test]
    fn headers_on_an_even_stream_are_a_connection_error() {
        let received = served(&[request_head(2, true)]);
        assert!(
            matches!(received, Err(H2Error::Protocol(_))),
            "{received:?}"
        );
    }

    /// §5.1, §6.1: DATA on an idle stream is a connection error. It used to
    /// wait there and become the body of the request the stream's HEADERS
    /// opened afterwards.
    #[test]
    fn data_before_headers_on_an_idle_stream_is_a_connection_error() {
        let received = served(&[data(1, false), request_head(1, true)]);
        assert!(
            matches!(received, Err(H2Error::Protocol(_))),
            "{received:?}"
        );
    }

    /// The other stream rules: a client's stream identifiers grow, nothing
    /// follows the end of a stream or a reset, trailers end their stream,
    /// and a client takes responses only on the streams it opened.
    #[test]
    fn a_frame_on_a_stream_it_may_not_reach_is_a_connection_error() {
        for frames in [
            vec![request_head(3, true), request_head(1, true)],
            vec![request_head(1, true), request_head(1, true)],
            vec![request_head(1, true), data(1, true)],
            vec![request_head(1, false), request_head(1, false)],
            vec![
                request_head(1, false),
                Frame::RstStream {
                    stream_id: 1,
                    error_code: 0x8,
                },
                data(1, true),
            ],
        ] {
            let received = served(&frames);
            assert!(
                matches!(received, Err(H2Error::Protocol(_))),
                "{frames:?}: {received:?}"
            );
        }
        // Trailers that end the stream end the request, body kept.
        let received = served(&[
            request_head(1, false),
            data(1, false),
            request_head(1, true),
        ])
        .unwrap();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].1.body, b"body");

        let respond_on = |stream_id| {
            let mut server = ServerConnection::new();
            server.send_response(stream_id, &Response::ok("text/plain", b"a".to_vec()));
            server.take_output()
        };
        let mut client = ClientConnection::new();
        client.send_request(&Request::get("dns.google", "/dns-query?dns=Q"));
        let received = client.receive(&respond_on(3));
        assert!(
            matches!(received, Err(H2Error::Protocol(_))),
            "{received:?}"
        );
        let mut client = ClientConnection::new();
        client.send_request(&Request::get("dns.google", "/dns-query?dns=Q"));
        assert_eq!(client.receive(&respond_on(1)).unwrap().len(), 1);
    }

    /// RFC 7540 §8.1.2.6: a message whose `content-length` is not the sum of
    /// its DATA payloads is malformed — at both ends, owned and lent alike.
    /// Both used to be taken as they came.
    #[test]
    fn a_content_length_that_is_not_the_body_is_a_connection_error() {
        let post = |length: &str, data: &[Frame]| {
            let head = Frame::Headers {
                stream_id: 1,
                end_stream: false,
                end_headers: true,
                block: hpack::encode(&[
                    (":method".into(), "POST".into()),
                    (":path".into(), "/dns-query".into()),
                    ("content-length".into(), length.into()),
                ]),
            };
            let frames: Vec<Frame> = std::iter::once(head).chain(data.iter().cloned()).collect();
            let input = from_a_client(&frames);
            let owned = ServerConnection::new().receive(&input);
            let mut lent = 0;
            let walked = ServerConnection::new().serve(&input, |_, _, _, _| lent += 1);
            assert_eq!(owned.as_ref().err(), walked.as_ref().err(), "{length}");
            owned.map(|requests| {
                assert_eq!(requests.len(), lent);
                requests.len()
            })
        };
        // "body": four octets, in one frame or two.
        let split = [
            Frame::Data {
                stream_id: 1,
                end_stream: false,
                data: b"bo".to_vec(),
            },
            Frame::Data {
                stream_id: 1,
                end_stream: true,
                data: b"dy".to_vec(),
            },
        ];
        assert_eq!(post("4", &[data(1, true)]), Ok(1));
        assert_eq!(post("4", &split), Ok(1));
        for (length, frames) in [
            ("5", vec![data(1, true)]),
            ("3", vec![data(1, true)]),
            ("3", split.to_vec()),
            ("0", vec![data(1, true)]),
            ("4x", vec![data(1, true)]),
            ("", vec![data(1, true)]),
            ("5", vec![data(1, false), request_head(1, true)]),
        ] {
            let received = post(length, &frames);
            assert!(
                matches!(received, Err(H2Error::Protocol(_))),
                "{length}: {received:?}"
            );
        }

        // A response of three octets that says four, or two.
        let respond = |length: &str| {
            let mut server = ServerConnection::new();
            let response =
                Response::ok("text/plain", b"abc".to_vec()).with_header("content-length", length);
            server.send_response(1, &response);
            server.take_output()
        };
        for (length, accepted) in [("3", true), ("4", false), ("2", false)] {
            let reply = respond(length);
            let mut client = ClientConnection::new();
            client.send_request(&Request::get("dns.google", "/dns-query?dns=Q"));
            let owned = client.receive(&reply);
            let mut client = ClientConnection::new();
            client.send_request(&Request::get("dns.google", "/dns-query?dns=Q"));
            let lent = client.response(&reply, 1);
            assert_eq!(owned.is_ok(), accepted, "{length}: {owned:?}");
            assert_eq!(lent.is_ok(), accepted, "{length}");
            assert_eq!(owned.err(), lent.err());
        }
    }

    /// A HEADERS frame of `fields` that ends stream 1.
    fn head_on_stream_1(fields: &[(&str, &str)]) -> Frame {
        let fields: Vec<(String, String)> = fields
            .iter()
            .map(|&(name, value)| (name.into(), value.into()))
            .collect();
        Frame::Headers {
            stream_id: 1,
            end_stream: true,
            end_headers: true,
            block: hpack::encode(&fields),
        }
    }

    /// What the client's two walks make of a response head of `fields` on
    /// stream 1, the owned and the lent, which must agree: `Ok(status)` or
    /// the error.
    fn client_reads(fields: &[(&str, &str)]) -> Result<u16, H2Error> {
        let mut server = Vec::new();
        frame::put_settings(&mut server, 0, &[]);
        head_on_stream_1(fields).encode(&mut server);
        let request = Request::get("dns.google", "/dns-query?dns=Q");
        let mut client = ClientConnection::new();
        client.send_request(&request);
        let owned = client
            .receive(&server)
            .map(|responses| responses[0].1.status.as_u16());
        let mut client = ClientConnection::new();
        client.send_request(&request);
        let lent = client
            .response(&server, 1)
            .map(|response| response.unwrap().0.status.as_u16());
        assert_eq!(owned, lent, "{fields:?}");
        owned
    }

    /// RFC 9110 §15: a status code is three digits. `+200` and `0200`
    /// used to be read as 200, and the client took them for a success.
    #[test]
    fn a_status_that_is_not_three_digits_is_malformed() {
        assert_eq!(client_reads(&[(":status", "200")]), Ok(200));
        assert_eq!(client_reads(&[(":status", "404")]), Ok(404));
        for status in ["+200", "0200", "20", "2000", " 200", "20x", "", "-20"] {
            let read = client_reads(&[(":status", status)]);
            assert!(
                matches!(read, Err(H2Error::Protocol(_))),
                "{status:?}: {read:?}"
            );
        }
    }

    /// RFC 9113 §8.3: a pseudo-header field is given once. The last of a
    /// repeated one used to count.
    #[test]
    fn a_repeated_pseudo_header_field_is_malformed() {
        for fields in [
            [(":status", "500"), (":status", "200")],
            [(":status", "200"), (":status", "200")],
        ] {
            let read = client_reads(&fields);
            assert!(
                matches!(read, Err(H2Error::Protocol(_))),
                "{fields:?}: {read:?}"
            );
        }
        let get = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", "dns.google"),
            (":path", "/dns-query?dns=AAAB"),
        ];
        assert_eq!(served(&[head_on_stream_1(&get)]).unwrap().len(), 1);
        for repeated in [
            (":path", "/dns-query?dns=AAAB"),
            (":path", "/other"),
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", "dns.google"),
        ] {
            let mut fields = get.to_vec();
            fields.push(repeated);
            let frames = [head_on_stream_1(&fields)];
            let owned = served(&frames);
            let mut lent = 0;
            let walked =
                ServerConnection::new().serve(&from_a_client(&frames), |_, _, _, _| lent += 1);
            assert!(
                matches!(owned, Err(H2Error::Protocol(_))),
                "{fields:?}: {owned:?}"
            );
            assert_eq!(owned.err(), walked.err(), "{fields:?}");
            assert_eq!(lent, 0, "{fields:?}");
        }
    }

    /// A request copied from its frames goes out on the state a connection
    /// that wrote it field by field is left in.
    #[test]
    fn a_request_from_its_frames_leaves_the_written_connection() {
        let fields = |request: &mut Outgoing<'_>| {
            request.field(":method", "GET").field(":path", "/");
        };
        let frames = RequestFrames::new(b"prefix".to_vec(), fields, |_| {});
        let mut written = ClientConnection::with_output(b"prefix".to_vec());
        let (stream_id, mut request) = written.open_stream();
        fields(&mut request);
        request.body(b"body");
        assert_eq!(frames.write(&[], b"body", 0), written.take_output());
        let (sent, on) = ClientConnection::first_request_sent();
        assert_eq!(on, stream_id);
        assert_eq!(format!("{sent:?}"), format!("{written:?}"));
    }
}
