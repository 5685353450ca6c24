//! HTTP/2 frame encoding and decoding (RFC 7540 §4 and §6).

use super::error::H2Error;

/// The client connection preface every HTTP/2 connection starts with.
pub const CONNECTION_PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Maximum frame payload this implementation accepts (the RFC 7540 default).
pub const MAX_FRAME_SIZE: usize = 16_384;

/// Frame type codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// DATA frame.
    Data,
    /// HEADERS frame.
    Headers,
    /// RST_STREAM frame.
    RstStream,
    /// SETTINGS frame.
    Settings,
    /// PING frame.
    Ping,
    /// GOAWAY frame.
    GoAway,
    /// WINDOW_UPDATE frame.
    WindowUpdate,
    /// A frame type this implementation does not interpret.
    Unknown(u8),
}

impl FrameType {
    /// The numeric type code.
    pub fn code(self) -> u8 {
        match self {
            FrameType::Data => 0x0,
            FrameType::Headers => 0x1,
            FrameType::RstStream => 0x3,
            FrameType::Settings => 0x4,
            FrameType::Ping => 0x6,
            FrameType::GoAway => 0x7,
            FrameType::WindowUpdate => 0x8,
            FrameType::Unknown(c) => c,
        }
    }
}

impl From<u8> for FrameType {
    fn from(code: u8) -> Self {
        match code {
            0x0 => FrameType::Data,
            0x1 => FrameType::Headers,
            0x3 => FrameType::RstStream,
            0x4 => FrameType::Settings,
            0x6 => FrameType::Ping,
            0x7 => FrameType::GoAway,
            0x8 => FrameType::WindowUpdate,
            other => FrameType::Unknown(other),
        }
    }
}

/// Frame flag bits.
pub mod flags {
    /// END_STREAM flag on DATA and HEADERS frames.
    pub const END_STREAM: u8 = 0x1;
    /// ACK flag on SETTINGS and PING frames.
    pub const ACK: u8 = 0x1;
    /// END_HEADERS flag on HEADERS frames.
    pub const END_HEADERS: u8 = 0x4;
    /// PADDED flag on DATA and HEADERS frames: a pad-length octet leads the
    /// payload and that many octets of padding trail it.
    pub const PADDED: u8 = 0x8;
    /// PRIORITY flag on HEADERS frames: 5 octets of stream dependency and
    /// weight precede the header block.
    pub const PRIORITY: u8 = 0x20;
}

/// A decoded HTTP/2 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A DATA frame carrying request or response body bytes.
    Data {
        /// Stream the data belongs to.
        stream_id: u32,
        /// Whether this frame ends the stream.
        end_stream: bool,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// A HEADERS frame carrying an HPACK-encoded header block.
    Headers {
        /// Stream the headers belong to.
        stream_id: u32,
        /// Whether this frame ends the stream.
        end_stream: bool,
        /// Whether the header block is complete (no CONTINUATION follows).
        end_headers: bool,
        /// HPACK-encoded header block fragment.
        block: Vec<u8>,
    },
    /// A SETTINGS frame.
    Settings {
        /// Whether this is an acknowledgement.
        ack: bool,
        /// `(identifier, value)` pairs.
        params: Vec<(u16, u32)>,
    },
    /// A PING frame.
    Ping {
        /// Whether this is an acknowledgement.
        ack: bool,
        /// Opaque payload.
        data: [u8; 8],
    },
    /// A GOAWAY frame.
    GoAway {
        /// Highest stream id the sender processed.
        last_stream_id: u32,
        /// Error code.
        error_code: u32,
    },
    /// A WINDOW_UPDATE frame.
    WindowUpdate {
        /// Stream the update applies to (0 for the connection).
        stream_id: u32,
        /// Flow-control window increment.
        increment: u32,
    },
    /// A RST_STREAM frame.
    RstStream {
        /// Stream being reset.
        stream_id: u32,
        /// Error code.
        error_code: u32,
    },
    /// A frame type we do not interpret but must skip over.
    Unknown {
        /// Frame type code.
        frame_type: u8,
        /// Stream identifier.
        stream_id: u32,
        /// Raw payload.
        payload: Vec<u8>,
    },
}

impl Frame {
    /// Encodes the frame with its 9-octet header.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Data {
                stream_id,
                end_stream,
                data,
            } => {
                let flag = if *end_stream { flags::END_STREAM } else { 0 };
                put_header(out, data.len(), FrameType::Data, flag, *stream_id);
                out.extend_from_slice(data);
            }
            Frame::Headers {
                stream_id,
                end_stream,
                end_headers,
                block,
            } => {
                let mut flag = 0;
                if *end_stream {
                    flag |= flags::END_STREAM;
                }
                if *end_headers {
                    flag |= flags::END_HEADERS;
                }
                put_header(out, block.len(), FrameType::Headers, flag, *stream_id);
                out.extend_from_slice(block);
            }
            Frame::Settings { ack, params } => {
                let flag = if *ack { flags::ACK } else { 0 };
                put_settings(out, flag, params);
            }
            Frame::Ping { ack, data } => {
                let flag = if *ack { flags::ACK } else { 0 };
                put_header(out, 8, FrameType::Ping, flag, 0);
                out.extend_from_slice(data);
            }
            Frame::GoAway {
                last_stream_id,
                error_code,
            } => {
                put_header(out, 8, FrameType::GoAway, 0, 0);
                out.extend_from_slice(&(*last_stream_id & 0x7FFF_FFFF).to_be_bytes());
                out.extend_from_slice(&error_code.to_be_bytes());
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                put_header(out, 4, FrameType::WindowUpdate, 0, *stream_id);
                out.extend_from_slice(&(*increment & 0x7FFF_FFFF).to_be_bytes());
            }
            Frame::RstStream {
                stream_id,
                error_code,
            } => {
                put_header(out, 4, FrameType::RstStream, 0, *stream_id);
                out.extend_from_slice(&error_code.to_be_bytes());
            }
            Frame::Unknown {
                frame_type,
                stream_id,
                payload,
            } => {
                put_header(
                    out,
                    payload.len(),
                    FrameType::Unknown(*frame_type),
                    0,
                    *stream_id,
                );
                out.extend_from_slice(payload);
            }
        }
    }

    /// Decodes one frame from the front of `input`, returning the frame and
    /// the number of bytes consumed, or `Ok(None)` when more bytes are
    /// needed. Padding and the priority fields of a HEADERS frame are
    /// dropped: the frame returned carries the body octets or the header
    /// block only.
    ///
    /// # Errors
    ///
    /// Returns [`H2Error::FrameTooLarge`] for oversized frames and
    /// [`H2Error::Truncated`]/[`H2Error::Protocol`] for malformed ones.
    pub fn decode(input: &[u8]) -> Result<Option<(Frame, usize)>, H2Error> {
        let Some((raw, consumed)) = RawFrame::parse(input)? else {
            return Ok(None);
        };
        Ok(Some((raw.to_frame()?, consumed)))
    }
}

/// One frame as it lies in a receive buffer: the header's fields and the
/// payload borrowed, for DATA and HEADERS already without padding and
/// priority fields. [`RawFrame::parse`] is the only frame parser; an owned
/// [`Frame`] is [`RawFrame::to_frame`] of its result.
#[derive(Debug, Clone, Copy)]
pub(super) struct RawFrame<'a> {
    pub(super) frame_type: FrameType,
    pub(super) flags: u8,
    pub(super) stream_id: u32,
    pub(super) payload: &'a [u8],
}

impl<'a> RawFrame<'a> {
    /// Parses the frame at the front of `input`; `Ok(None)` asks for more
    /// octets.
    pub(super) fn parse(input: &'a [u8]) -> Result<Option<(Self, usize)>, H2Error> {
        let Some((&[l2, l1, l0, code, flags, s3, s2, s1, s0], rest)) =
            input.split_first_chunk::<9>()
        else {
            return Ok(None);
        };
        let length = (usize::from(l2) << 16) | (usize::from(l1) << 8) | usize::from(l0);
        if length > MAX_FRAME_SIZE {
            return Err(H2Error::FrameTooLarge(length));
        }
        let Some(mut payload) = rest.get(..length) else {
            return Ok(None);
        };
        let frame_type = FrameType::from(code);
        if frame_type == FrameType::Settings && !length.is_multiple_of(6) {
            return Err(H2Error::Protocol(
                "settings length not a multiple of 6".into(),
            ));
        }
        // RFC 7540 §6.1 / §6.2: the pad length comes first and counts octets
        // at the end, the priority fields follow it.
        if matches!(frame_type, FrameType::Data | FrameType::Headers) {
            if flags & flags::PADDED != 0 {
                let (&pad, padded) = payload
                    .split_first()
                    .ok_or_else(|| H2Error::Protocol("padded frame without a pad length".into()))?;
                let kept = padded.len().checked_sub(usize::from(pad)).ok_or_else(|| {
                    H2Error::Protocol("padding longer than the frame payload".into())
                })?;
                payload = padded.get(..kept).unwrap_or_default();
            }
            if frame_type == FrameType::Headers && flags & flags::PRIORITY != 0 {
                payload = payload.get(5..).ok_or_else(|| {
                    H2Error::Protocol("headers frame shorter than its priority fields".into())
                })?;
            }
        }
        let raw = RawFrame {
            frame_type,
            flags,
            stream_id: u32::from_be_bytes([s3, s2, s1, s0]) & 0x7FFF_FFFF,
            payload,
        };
        Ok(Some((raw, 9 + length)))
    }

    /// Whether END_STREAM is set (DATA and HEADERS frames).
    pub(super) fn end_stream(self) -> bool {
        self.flags & flags::END_STREAM != 0
    }

    /// Whether END_HEADERS is set (HEADERS frames).
    pub(super) fn end_headers(self) -> bool {
        self.flags & flags::END_HEADERS != 0
    }

    /// Checks the payload against its frame type and copies it out.
    // sdoh-lint: allow(no-panic, "every index is guarded by the length check at the top of its arm")
    pub(super) fn to_frame(self) -> Result<Frame, H2Error> {
        let RawFrame {
            stream_id, payload, ..
        } = self;
        let ack = self.flags & flags::ACK != 0;
        Ok(match self.frame_type {
            FrameType::Data => Frame::Data {
                stream_id,
                end_stream: self.end_stream(),
                data: payload.to_vec(),
            },
            FrameType::Headers => Frame::Headers {
                stream_id,
                end_stream: self.end_stream(),
                end_headers: self.end_headers(),
                block: payload.to_vec(),
            },
            FrameType::Settings => {
                // `parse` checked the length: whole parameters only.
                let params = payload
                    .chunks_exact(6)
                    .map(|chunk| {
                        (
                            u16::from_be_bytes([chunk[0], chunk[1]]),
                            u32::from_be_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]),
                        )
                    })
                    .collect();
                Frame::Settings { ack, params }
            }
            FrameType::Ping => {
                let data = <[u8; 8]>::try_from(payload)
                    .map_err(|_| H2Error::Protocol("ping payload must be 8 octets".into()))?;
                Frame::Ping { ack, data }
            }
            FrameType::GoAway => {
                if payload.len() < 8 {
                    return Err(H2Error::Truncated);
                }
                Frame::GoAway {
                    last_stream_id: u32::from_be_bytes([
                        payload[0], payload[1], payload[2], payload[3],
                    ]) & 0x7FFF_FFFF,
                    error_code: u32::from_be_bytes([
                        payload[4], payload[5], payload[6], payload[7],
                    ]),
                }
            }
            FrameType::WindowUpdate => {
                if payload.len() != 4 {
                    return Err(H2Error::Protocol(
                        "window update payload must be 4 octets".into(),
                    ));
                }
                Frame::WindowUpdate {
                    stream_id,
                    increment: u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]])
                        & 0x7FFF_FFFF,
                }
            }
            FrameType::RstStream => {
                if payload.len() != 4 {
                    return Err(H2Error::Protocol(
                        "rst stream payload must be 4 octets".into(),
                    ));
                }
                Frame::RstStream {
                    stream_id,
                    error_code: u32::from_be_bytes([
                        payload[0], payload[1], payload[2], payload[3],
                    ]),
                }
            }
            FrameType::Unknown(code) => Frame::Unknown {
                frame_type: code,
                stream_id,
                payload: payload.to_vec(),
            },
        })
    }
}

/// Appends a 9-octet frame header.
pub(super) fn put_header(
    out: &mut Vec<u8>,
    length: usize,
    frame_type: FrameType,
    frame_flags: u8,
    stream_id: u32,
) {
    // A frame length is 24 bits: the low three octets.
    let [.., high, mid, low] = length.to_be_bytes();
    let [s0, s1, s2, s3] = (stream_id & 0x7FFF_FFFF).to_be_bytes();
    out.extend_from_slice(&[
        high,
        mid,
        low,
        frame_type.code(),
        frame_flags,
        s0,
        s1,
        s2,
        s3,
    ]);
}

/// Appends a SETTINGS frame.
pub(super) fn put_settings(out: &mut Vec<u8>, frame_flags: u8, params: &[(u16, u32)]) {
    put_header(out, params.len() * 6, FrameType::Settings, frame_flags, 0);
    for &(id, value) in params {
        out.extend_from_slice(&id.to_be_bytes());
        out.extend_from_slice(&value.to_be_bytes());
    }
}

/// Closes the frame whose header starts at `header_at`: its length becomes
/// the octets written behind that header since (a header block is encoded
/// straight into the output, behind a header put down with length 0), and
/// `more_flags` join its flags (END_STREAM, once it is known that no body
/// follows).
pub(super) fn close_frame(out: &mut [u8], header_at: usize, more_flags: u8) {
    let [.., high, mid, low] = out.len().saturating_sub(header_at + 9).to_be_bytes();
    if let Some([l2, l1, l0, _, frame_flags]) = out.get_mut(header_at..header_at + 5) {
        [*l2, *l1, *l0] = [high, mid, low];
        *frame_flags |= more_flags;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) -> Frame {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let (decoded, consumed) = Frame::decode(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        decoded
    }

    #[test]
    fn data_frame_roundtrip() {
        let frame = Frame::Data {
            stream_id: 1,
            end_stream: true,
            data: b"dns message bytes".to_vec(),
        };
        assert_eq!(roundtrip(frame.clone()), frame);
    }

    #[test]
    fn headers_frame_roundtrip() {
        let frame = Frame::Headers {
            stream_id: 3,
            end_stream: false,
            end_headers: true,
            block: vec![0x82, 0x86],
        };
        assert_eq!(roundtrip(frame.clone()), frame);
    }

    #[test]
    fn settings_ping_goaway_window_rst_roundtrip() {
        let frames = vec![
            Frame::Settings {
                ack: false,
                params: vec![(0x3, 100), (0x4, 65_535)],
            },
            Frame::Settings {
                ack: true,
                params: vec![],
            },
            Frame::Ping {
                ack: false,
                data: [1, 2, 3, 4, 5, 6, 7, 8],
            },
            Frame::GoAway {
                last_stream_id: 5,
                error_code: 0,
            },
            Frame::WindowUpdate {
                stream_id: 0,
                increment: 1_000_000,
            },
            Frame::RstStream {
                stream_id: 7,
                error_code: 0x7,
            },
            Frame::Unknown {
                frame_type: 0xFA,
                stream_id: 9,
                payload: vec![1, 2, 3],
            },
        ];
        for frame in frames {
            assert_eq!(roundtrip(frame.clone()), frame);
        }
    }

    #[test]
    fn partial_input_needs_more_bytes() {
        let frame = Frame::Data {
            stream_id: 1,
            end_stream: false,
            data: vec![0u8; 64],
        };
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        assert!(Frame::decode(&buf[..5]).unwrap().is_none());
        assert!(Frame::decode(&buf[..20]).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        // Header declaring a 1 MiB payload.
        let header = [0x10, 0x00, 0x00, 0x0, 0x0, 0, 0, 0, 1];
        assert!(matches!(
            Frame::decode(&header),
            Err(H2Error::FrameTooLarge(_))
        ));
    }

    #[test]
    fn malformed_settings_rejected() {
        let mut buf = Vec::new();
        put_header(&mut buf, 5, FrameType::Settings, 0, 0);
        buf.extend_from_slice(&[0u8; 5]);
        assert!(matches!(Frame::decode(&buf), Err(H2Error::Protocol(_))));
    }

    #[test]
    fn malformed_ping_rejected() {
        let mut buf = Vec::new();
        put_header(&mut buf, 4, FrameType::Ping, 0, 0);
        buf.extend_from_slice(&[0u8; 4]);
        assert!(Frame::decode(&buf).is_err());
    }

    fn decode_one(
        frame_type: FrameType,
        frame_flags: u8,
        payload: &[u8],
    ) -> Result<Frame, H2Error> {
        let mut buf = Vec::new();
        put_header(&mut buf, payload.len(), frame_type, frame_flags, 1);
        buf.extend_from_slice(payload);
        let (frame, consumed) = Frame::decode(&buf)?.expect("the frame is complete");
        assert_eq!(consumed, buf.len());
        Ok(frame)
    }

    /// RFC 7540 §6.1 / §6.2: the pad length leads, the priority fields
    /// follow it, the padding trails; none of them is header block or body.
    #[test]
    fn padding_and_priority_fields_are_stripped() {
        let block = [0x82, 0x86];
        let priority = [0x80, 0, 0, 3, 15];
        let headers = |frame_flags, payload: &[u8]| {
            decode_one(
                FrameType::Headers,
                frame_flags | flags::END_HEADERS,
                payload,
            )
        };
        let expected = Frame::Headers {
            stream_id: 1,
            end_stream: false,
            end_headers: true,
            block: block.to_vec(),
        };
        assert_eq!(
            headers(flags::PADDED, &[3, 0x82, 0x86, 0, 0, 0]).unwrap(),
            expected
        );
        assert_eq!(
            headers(flags::PRIORITY, &[&priority[..], &block].concat()).unwrap(),
            expected
        );
        assert_eq!(
            headers(
                flags::PADDED | flags::PRIORITY,
                &[&[2][..], &priority, &block, &[0, 0]].concat()
            )
            .unwrap(),
            expected
        );

        let data = |payload: &[u8]| {
            decode_one(FrameType::Data, flags::PADDED | flags::END_STREAM, payload)
        };
        let body = |octets: &[u8]| Frame::Data {
            stream_id: 1,
            end_stream: true,
            data: octets.to_vec(),
        };
        assert_eq!(data(&[2, b'd', b'n', b's', 0, 0]).unwrap(), body(b"dns"));
        // A frame may be padding only: the pad length is the rest of it.
        assert_eq!(data(&[2, 0, 0]).unwrap(), body(b""));
    }

    #[test]
    fn padding_past_the_payload_is_a_protocol_error() {
        let padded = |frame_type, extra_flags, payload: &[u8]| {
            decode_one(frame_type, flags::PADDED | extra_flags, payload)
        };
        for payload in [&[][..], &[3, 0, 0], &[200, b'x', 0, 0]] {
            for frame_type in [FrameType::Data, FrameType::Headers] {
                assert!(
                    matches!(padded(frame_type, 0, payload), Err(H2Error::Protocol(_))),
                    "{frame_type:?} {payload:?}"
                );
            }
        }
        // The padding may not reach into the priority fields either.
        assert!(matches!(
            padded(
                FrameType::Headers,
                flags::PRIORITY,
                &[2, 0x80, 0, 0, 3, 15, 0]
            ),
            Err(H2Error::Protocol(_))
        ));
        assert!(matches!(
            decode_one(FrameType::Headers, flags::PRIORITY, &[0x80, 0, 0, 3]),
            Err(H2Error::Protocol(_))
        ));
    }

    #[test]
    fn multiple_frames_decode_sequentially() {
        let mut buf = Vec::new();
        Frame::Settings {
            ack: false,
            params: vec![],
        }
        .encode(&mut buf);
        Frame::Data {
            stream_id: 1,
            end_stream: true,
            data: b"x".to_vec(),
        }
        .encode(&mut buf);

        let (first, used) = Frame::decode(&buf).unwrap().unwrap();
        assert!(matches!(first, Frame::Settings { .. }));
        let (second, used2) = Frame::decode(&buf[used..]).unwrap().unwrap();
        assert!(matches!(second, Frame::Data { .. }));
        assert_eq!(used + used2, buf.len());
    }
}
