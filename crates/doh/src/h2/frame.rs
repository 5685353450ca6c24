//! HTTP/2 frame encoding and decoding (RFC 7540 §4 and §6).

use bytes::{BufMut, BytesMut};

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
    pub fn encode(&self, out: &mut BytesMut) {
        match self {
            Frame::Data {
                stream_id,
                end_stream,
                data,
            } => {
                let flag = if *end_stream { flags::END_STREAM } else { 0 };
                encode_header(out, data.len(), FrameType::Data.code(), flag, *stream_id);
                out.put_slice(data);
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
                encode_header(
                    out,
                    block.len(),
                    FrameType::Headers.code(),
                    flag,
                    *stream_id,
                );
                out.put_slice(block);
            }
            Frame::Settings { ack, params } => {
                let flag = if *ack { flags::ACK } else { 0 };
                encode_header(out, params.len() * 6, FrameType::Settings.code(), flag, 0);
                for (id, value) in params {
                    out.put_u16(*id);
                    out.put_u32(*value);
                }
            }
            Frame::Ping { ack, data } => {
                let flag = if *ack { flags::ACK } else { 0 };
                encode_header(out, 8, FrameType::Ping.code(), flag, 0);
                out.put_slice(data);
            }
            Frame::GoAway {
                last_stream_id,
                error_code,
            } => {
                encode_header(out, 8, FrameType::GoAway.code(), 0, 0);
                out.put_u32(*last_stream_id & 0x7FFF_FFFF);
                out.put_u32(*error_code);
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                encode_header(out, 4, FrameType::WindowUpdate.code(), 0, *stream_id);
                out.put_u32(*increment & 0x7FFF_FFFF);
            }
            Frame::RstStream {
                stream_id,
                error_code,
            } => {
                encode_header(out, 4, FrameType::RstStream.code(), 0, *stream_id);
                out.put_u32(*error_code);
            }
            Frame::Unknown {
                frame_type,
                stream_id,
                payload,
            } => {
                encode_header(out, payload.len(), *frame_type, 0, *stream_id);
                out.put_slice(payload);
            }
        }
    }

    /// Decodes one frame from the front of `input`, returning the frame and
    /// the number of bytes consumed, or `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`H2Error::FrameTooLarge`] for oversized frames and
    /// [`H2Error::Truncated`]/[`H2Error::Protocol`] for malformed ones.
    // sdoh-lint: allow(no-panic, "every index is guarded by the length checks at the top of its arm")
    pub fn decode(input: &[u8]) -> Result<Option<(Frame, usize)>, H2Error> {
        if input.len() < 9 {
            return Ok(None);
        }
        let length =
            (usize::from(input[0]) << 16) | (usize::from(input[1]) << 8) | usize::from(input[2]);
        if length > MAX_FRAME_SIZE {
            return Err(H2Error::FrameTooLarge(length));
        }
        if input.len() < 9 + length {
            return Ok(None);
        }
        let frame_type = FrameType::from(input[3]);
        let frame_flags = input[4];
        let stream_id = u32::from_be_bytes([input[5], input[6], input[7], input[8]]) & 0x7FFF_FFFF;
        let payload = &input[9..9 + length];
        let consumed = 9 + length;

        let frame = match frame_type {
            FrameType::Data => Frame::Data {
                stream_id,
                end_stream: frame_flags & flags::END_STREAM != 0,
                data: payload.to_vec(),
            },
            FrameType::Headers => Frame::Headers {
                stream_id,
                end_stream: frame_flags & flags::END_STREAM != 0,
                end_headers: frame_flags & flags::END_HEADERS != 0,
                block: payload.to_vec(),
            },
            FrameType::Settings => {
                if !payload.len().is_multiple_of(6) {
                    return Err(H2Error::Protocol(
                        "settings length not a multiple of 6".into(),
                    ));
                }
                let params = payload
                    .chunks_exact(6)
                    .map(|chunk| {
                        (
                            u16::from_be_bytes([chunk[0], chunk[1]]),
                            u32::from_be_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]),
                        )
                    })
                    .collect();
                Frame::Settings {
                    ack: frame_flags & flags::ACK != 0,
                    params,
                }
            }
            FrameType::Ping => {
                if payload.len() != 8 {
                    return Err(H2Error::Protocol("ping payload must be 8 octets".into()));
                }
                let mut data = [0u8; 8];
                data.copy_from_slice(payload);
                Frame::Ping {
                    ack: frame_flags & flags::ACK != 0,
                    data,
                }
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
        };
        Ok(Some((frame, consumed)))
    }
}

fn encode_header(
    out: &mut BytesMut,
    length: usize,
    frame_type: u8,
    frame_flags: u8,
    stream_id: u32,
) {
    // A frame length is 24 bits: the low three octets.
    let [.., high, mid, low] = length.to_be_bytes();
    out.put_slice(&[high, mid, low]);
    out.put_u8(frame_type);
    out.put_u8(frame_flags);
    out.put_u32(stream_id & 0x7FFF_FFFF);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) -> Frame {
        let mut buf = BytesMut::new();
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
        let mut buf = BytesMut::new();
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
        let mut buf = BytesMut::new();
        encode_header(&mut buf, 5, FrameType::Settings.code(), 0, 0);
        buf.put_slice(&[0u8; 5]);
        assert!(matches!(Frame::decode(&buf), Err(H2Error::Protocol(_))));
    }

    #[test]
    fn malformed_ping_rejected() {
        let mut buf = BytesMut::new();
        encode_header(&mut buf, 4, FrameType::Ping.code(), 0, 0);
        buf.put_slice(&[0u8; 4]);
        assert!(Frame::decode(&buf).is_err());
    }

    #[test]
    fn multiple_frames_decode_sequentially() {
        let mut buf = BytesMut::new();
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
