//! HTTP/2 protocol errors.

use std::error::Error;
use std::fmt;

/// Errors raised by the HTTP/2 framing and connection layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H2Error {
    /// The connection did not start with the client connection preface.
    UnexpectedPreface,
    /// A frame header or payload was truncated.
    Truncated,
    /// A frame declared a length larger than the allowed maximum.
    FrameTooLarge(usize),
    /// An unknown or unsupported frame type was received where it cannot be
    /// ignored.
    UnsupportedFrame(u8),
    /// A HPACK header block could not be decoded.
    Hpack(String),
    /// A HPACK indexed field referenced an index outside the static table.
    HpackIndex(u64),
    /// A frame violated stream or connection state rules.
    Protocol(String),
}

impl fmt::Display for H2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H2Error::UnexpectedPreface => write!(f, "missing or malformed connection preface"),
            H2Error::Truncated => write!(f, "truncated frame"),
            H2Error::FrameTooLarge(len) => write!(f, "frame of {len} octets exceeds maximum"),
            H2Error::UnsupportedFrame(t) => write!(f, "unsupported frame type {t}"),
            H2Error::Hpack(msg) => write!(f, "hpack decoding error: {msg}"),
            H2Error::HpackIndex(index) => {
                write!(
                    f,
                    "hpack decoding error: index {index} outside the static table"
                )
            }
            H2Error::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl Error for H2Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let cases = [
            H2Error::UnexpectedPreface,
            H2Error::Truncated,
            H2Error::FrameTooLarge(1 << 20),
            H2Error::UnsupportedFrame(0xFA),
            H2Error::Hpack("bad huffman padding".into()),
            H2Error::HpackIndex(62),
            H2Error::Protocol("headers after end of stream".into()),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
