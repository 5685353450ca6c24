//! DNS message header: identifier, flags, opcode, response code and counts.

use std::fmt;

use crate::error::WireResult;
use crate::wire::{WireReader, WireWriter};

/// DNS OPCODE values (RFC 1035 §4.1.1, RFC 2136).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Opcode {
    /// A standard query.
    #[default]
    Query,
    /// An inverse query (obsolete).
    IQuery,
    /// A server status request.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// An opcode without a named variant.
    Unknown(u8),
}

impl Opcode {
    /// Numeric code of this opcode (0..=15).
    pub fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(c) => c & 0x0F,
        }
    }
}

impl From<u8> for Opcode {
    fn from(code: u8) -> Self {
        match code & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Opcode::Query => write!(f, "QUERY"),
            Opcode::IQuery => write!(f, "IQUERY"),
            Opcode::Status => write!(f, "STATUS"),
            Opcode::Notify => write!(f, "NOTIFY"),
            Opcode::Update => write!(f, "UPDATE"),
            Opcode::Unknown(c) => write!(f, "OPCODE{c}"),
        }
    }
}

/// DNS response codes (RCODE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rcode {
    /// No error condition.
    #[default]
    NoError,
    /// The server was unable to interpret the query.
    FormErr,
    /// The server encountered an internal failure.
    ServFail,
    /// The queried domain name does not exist.
    NxDomain,
    /// The server does not support the requested kind of query.
    NotImp,
    /// The server refuses to answer for policy reasons.
    Refused,
    /// An rcode without a named variant (including extended rcodes).
    Unknown(u16),
}

impl Rcode {
    /// Numeric code of this rcode.
    pub fn code(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(c) => c,
        }
    }

    /// The low four bits carried in the message header.
    pub fn low_bits(self) -> u8 {
        let [_, low] = self.code().to_be_bytes();
        low & 0x0F
    }

    /// Returns `true` when this rcode indicates success.
    pub fn is_success(self) -> bool {
        self == Rcode::NoError
    }
}

impl From<u16> for Rcode {
    fn from(code: u16) -> Self {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Unknown(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Unknown(c) => write!(f, "RCODE{c}"),
        }
    }
}

/// The fixed 12-octet DNS message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Query identifier used to match responses to queries.
    pub id: u16,
    /// `true` in responses, `false` in queries (QR bit).
    pub response: bool,
    /// Kind of query.
    pub opcode: Opcode,
    /// Authoritative answer (AA bit).
    pub authoritative: bool,
    /// Truncation (TC bit).
    pub truncated: bool,
    /// Recursion desired (RD bit).
    pub recursion_desired: bool,
    /// Recursion available (RA bit).
    pub recursion_available: bool,
    /// Authentic data (AD bit, RFC 4035).
    pub authentic_data: bool,
    /// Checking disabled (CD bit, RFC 4035).
    pub checking_disabled: bool,
    /// Response code (low four bits only; extended rcodes live in OPT).
    pub rcode: Rcode,
    /// Number of entries in the question section.
    pub question_count: u16,
    /// Number of records in the answer section.
    pub answer_count: u16,
    /// Number of records in the authority section.
    pub authority_count: u16,
    /// Number of records in the additional section.
    pub additional_count: u16,
}

impl Header {
    /// Creates a query header with recursion desired, as a stub resolver
    /// would send it.
    pub fn query(id: u16) -> Self {
        Header {
            id,
            response: false,
            recursion_desired: true,
            ..Header::default()
        }
    }

    /// Creates a response header mirroring the identifier, opcode and RD bit
    /// of a query header.
    pub fn response_to(query: &Header) -> Self {
        Header {
            id: query.id,
            response: true,
            opcode: query.opcode,
            recursion_desired: query.recursion_desired,
            ..Header::default()
        }
    }

    /// Encodes the header into the writer.
    pub fn encode(&self, w: &mut WireWriter) -> WireResult<()> {
        w.put_u16(self.id);
        let mut flags: u16 = 0;
        if self.response {
            flags |= 1 << 15;
        }
        flags |= (u16::from(self.opcode.code()) & 0x0F) << 11;
        if self.authoritative {
            flags |= 1 << 10;
        }
        if self.truncated {
            flags |= 1 << 9;
        }
        if self.recursion_desired {
            flags |= 1 << 8;
        }
        if self.recursion_available {
            flags |= 1 << 7;
        }
        if self.authentic_data {
            flags |= 1 << 5;
        }
        if self.checking_disabled {
            flags |= 1 << 4;
        }
        flags |= u16::from(self.rcode.low_bits());
        w.put_u16(flags);
        w.put_u16(self.question_count);
        w.put_u16(self.answer_count);
        w.put_u16(self.authority_count);
        w.put_u16(self.additional_count);
        Ok(())
    }

    /// Decodes a header from the reader.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than 12 octets remain.
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let id = r.read_u16()?;
        let flags = r.read_u16()?;
        let [high, _] = flags.to_be_bytes();
        let header = Header {
            id,
            response: flags & (1 << 15) != 0,
            opcode: Opcode::from((high >> 3) & 0x0F),
            authoritative: flags & (1 << 10) != 0,
            truncated: flags & (1 << 9) != 0,
            recursion_desired: flags & (1 << 8) != 0,
            recursion_available: flags & (1 << 7) != 0,
            authentic_data: flags & (1 << 5) != 0,
            checking_disabled: flags & (1 << 4) != 0,
            rcode: Rcode::from(flags & 0x0F),
            question_count: r.read_u16()?,
            answer_count: r.read_u16()?,
            authority_count: r.read_u16()?,
            additional_count: r.read_u16()?,
        };
        Ok(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(h: &Header) -> Header {
        let mut w = WireWriter::new();
        h.encode(&mut w).unwrap();
        let bytes = w.finish();
        assert_eq!(bytes.len(), 12);
        let mut r = WireReader::new(&bytes);
        Header::decode(&mut r).unwrap()
    }

    #[test]
    fn default_header_roundtrip() {
        let h = Header::default();
        assert_eq!(roundtrip(&h), h);
    }

    #[test]
    fn query_header_sets_rd() {
        let h = Header::query(0xBEEF);
        assert!(h.recursion_desired);
        assert!(!h.response);
        assert_eq!(h.id, 0xBEEF);
        assert_eq!(roundtrip(&h), h);
    }

    #[test]
    fn response_mirrors_query() {
        let q = Header::query(42);
        let r = Header::response_to(&q);
        assert_eq!(r.id, 42);
        assert!(r.response);
        assert!(r.recursion_desired);
        assert_eq!(r.opcode, Opcode::Query);
    }

    #[test]
    fn all_flags_roundtrip() {
        let h = Header {
            id: 0xFFFF,
            response: true,
            opcode: Opcode::Update,
            authoritative: true,
            truncated: true,
            recursion_desired: true,
            recursion_available: true,
            authentic_data: true,
            checking_disabled: true,
            rcode: Rcode::Refused,
            question_count: 1,
            answer_count: 2,
            authority_count: 3,
            additional_count: 4,
        };
        assert_eq!(roundtrip(&h), h);
    }

    #[test]
    fn opcode_roundtrip() {
        for code in 0u8..16 {
            assert_eq!(Opcode::from(code).code(), code);
        }
    }

    #[test]
    fn rcode_roundtrip_and_success() {
        for code in [0u16, 1, 2, 3, 4, 5, 16, 23] {
            assert_eq!(Rcode::from(code).code(), code);
        }
        assert!(Rcode::NoError.is_success());
        assert!(!Rcode::ServFail.is_success());
    }

    #[test]
    fn rcode_low_bits_truncate_extended() {
        assert_eq!(Rcode::Unknown(16).low_bits(), 0);
        assert_eq!(Rcode::Unknown(23).low_bits(), 7);
    }

    #[test]
    fn truncated_header_decode_fails() {
        let mut r = WireReader::new(&[0u8; 6]);
        assert!(Header::decode(&mut r).is_err());
    }

    #[test]
    fn display_mnemonics() {
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
        assert_eq!(Opcode::Query.to_string(), "QUERY");
        assert_eq!(Rcode::Unknown(99).to_string(), "RCODE99");
    }
}
