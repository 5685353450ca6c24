//! The question section entry of a DNS message.

use std::fmt;

use crate::error::WireResult;
use crate::name::Name;
use crate::rrtype::{RrClass, RrType};
use crate::wire::{WireReader, WireWriter};

/// A single question: the name, type and class being asked for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Domain name being queried.
    pub name: Name,
    /// Record type being requested.
    pub rtype: RrType,
    /// Class of the query (virtually always IN).
    pub rclass: RrClass,
}

impl Question {
    /// Creates a question in the IN class.
    pub fn new(name: Name, rtype: RrType) -> Self {
        Question {
            name,
            rtype,
            rclass: RrClass::In,
        }
    }

    /// Convenience constructor for an A (IPv4 address) question.
    pub fn a(name: Name) -> Self {
        Question::new(name, RrType::A)
    }

    /// Convenience constructor for an AAAA (IPv6 address) question.
    pub fn aaaa(name: Name) -> Self {
        Question::new(name, RrType::Aaaa)
    }

    /// Encodes the question into the writer.
    pub fn encode(&self, w: &mut WireWriter) -> WireResult<()> {
        w.put_name(&self.name)?;
        w.put_u16(self.rtype.code());
        w.put_u16(self.rclass.code());
        Ok(())
    }

    /// Decodes a question from the reader.
    ///
    /// # Errors
    ///
    /// Returns an error when the input is truncated or the name malformed.
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Self::read::<true>(r)
    }

    /// [`Question::decode`], keeping the name only when `KEEP` (see
    /// [`MessageView`](crate::MessageView)).
    pub(crate) fn read<const KEEP: bool>(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Question {
            name: r.name::<KEEP>()?,
            rtype: RrType::from(r.read_u16()?),
            rclass: RrClass::from(r.read_u16()?),
        })
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.rclass, self.rtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let q = Question::a("pool.ntp.org".parse().unwrap());
        let mut w = WireWriter::new();
        q.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Question::decode(&mut r).unwrap(), q);
        assert!(r.is_at_end());
    }

    #[test]
    fn constructors_set_class_in() {
        let a = Question::a("x.example".parse().unwrap());
        let aaaa = Question::aaaa("x.example".parse().unwrap());
        assert_eq!(a.rclass, RrClass::In);
        assert_eq!(a.rtype, RrType::A);
        assert_eq!(aaaa.rtype, RrType::Aaaa);
    }

    #[test]
    fn display_format() {
        let q = Question::new("example.org".parse().unwrap(), RrType::Ns);
        assert_eq!(q.to_string(), "example.org. IN NS");
    }

    #[test]
    fn truncated_question_fails() {
        let name: Name = "example.org".parse().unwrap();
        let mut w = WireWriter::new();
        w.put_name(&name).unwrap();
        w.put_u8(0); // not enough octets for type + class
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(Question::decode(&mut r).is_err());
    }
}
