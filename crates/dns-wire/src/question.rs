//! The question section entry of a DNS message.

use std::fmt;

use crate::error::{WireError, WireResult};
use crate::name::{Name, NameRef, MAX_NAME_LEN};
use crate::query::QuestionRef;
use crate::rrtype::{RrClass, RrType};
use crate::wire::{WireReader, WireWriter};

/// Octets of a query header; the question follows it.
const HEADER_LEN: usize = 12;
/// Octets of the largest one-question query: its header, a name of
/// [`MAX_NAME_LEN`] octets, type and class.
const MAX_QUERY_LEN: usize = HEADER_LEN + MAX_NAME_LEN + 4;

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

    /// The question lent, as a query read where it lies lends its own
    /// ([`QueryView::question`](crate::QueryView::question)).
    pub fn as_question_ref(&self) -> QuestionRef<'_> {
        QuestionRef {
            name: self.name.as_name_ref(),
            rtype: self.rtype,
            rclass: self.rclass,
        }
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

/// A one-question query in wire form, held inline: the octets
/// `Message::query(id, name, rtype).encode()` writes, without the message,
/// a heap buffer or a compression table — the question's name is the
/// message's first, so it is written whole. A client sends these octets and
/// holds the response's question against them
/// ([`MessageView::echoes`](crate::MessageView::echoes)).
#[derive(Clone, Copy)]
pub struct QueryWire {
    octets: [u8; MAX_QUERY_LEN],
    len: usize,
}

impl QueryWire {
    /// The longest query's length: its header, the longest name, type and
    /// class.
    pub const MAX_LEN: usize = MAX_QUERY_LEN;

    /// The query for `name` and `rtype` in the IN class under `id`, with
    /// recursion desired, as [`Header::query`](crate::Header::query) sets
    /// it.
    ///
    /// # Errors
    ///
    /// [`WireError::NameTooLong`] for a name over [`MAX_NAME_LEN`] octets,
    /// as the encoder refuses it.
    pub fn new(id: u16, name: &Name, rtype: RrType) -> WireResult<Self> {
        let labels = name.as_wire_labels();
        if name.wire_len() > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(name.wire_len()));
        }
        let mut octets = [0u8; MAX_QUERY_LEN];
        let [id_hi, id_lo] = id.to_be_bytes();
        let [type_hi, type_lo] = rtype.code().to_be_bytes();
        let [class_hi, class_lo] = RrClass::In.code().to_be_bytes();
        // Id, flags with RD alone set, one question and no records.
        let header = [id_hi, id_lo, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
        let fixed = [0, type_hi, type_lo, class_hi, class_lo];
        let len = HEADER_LEN + labels.len() + fixed.len();
        let mut rest = octets.as_mut_slice();
        for part in [header.as_slice(), labels, fixed.as_slice()] {
            // A name within the limit leaves room for every part.
            let (into, after) = rest
                .split_at_mut_checked(part.len())
                .ok_or(WireError::NameTooLong(name.wire_len()))?;
            into.copy_from_slice(part);
            rest = after;
        }
        Ok(QueryWire { octets, len })
    }

    /// The same query under `id`: the id is the query's first two octets,
    /// so a question encoded once is asked under each source's own id.
    pub fn with_id(mut self, id: u16) -> Self {
        if let Some(octets) = self.octets.first_chunk_mut::<2>() {
            *octets = id.to_be_bytes();
        }
        self
    }

    /// The query's octets.
    pub fn as_bytes(&self) -> &[u8] {
        self.octets.get(..self.len).unwrap_or_default()
    }

    /// The question's octets: its name's labels, the terminating zero, type
    /// and class.
    pub(crate) fn question(&self) -> &[u8] {
        self.as_bytes().get(HEADER_LEN..).unwrap_or_default()
    }

    /// The name the query asks for, lent from its octets.
    pub fn name(&self) -> NameRef<'_> {
        let question = self.question();
        let labels = question.len().saturating_sub(5);
        NameRef::new(question.get(..labels).unwrap_or_default())
    }

    /// The type the query asks for.
    pub fn rtype(&self) -> RrType {
        match self.question() {
            [.., hi, lo, _, _] => RrType::from(u16::from_be_bytes([*hi, *lo])),
            _ => RrType::Unknown(0),
        }
    }
}

impl fmt::Debug for QueryWire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueryWire({:02x?})", self.as_bytes())
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
        let q = Question::new("pool.ntp.org".parse().unwrap(), RrType::A);
        let mut w = WireWriter::new();
        q.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Question::decode(&mut r).unwrap(), q);
        assert!(r.is_at_end());
    }

    #[test]
    fn constructors_set_class_in() {
        let a = Question::new("x.example".parse().unwrap(), RrType::A);
        let aaaa = Question::new("x.example".parse().unwrap(), RrType::Aaaa);
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
    fn a_query_written_inline_is_the_encoded_query() {
        let longest = [
            "a".repeat(63),
            "b".repeat(63),
            "c".repeat(63),
            "d".repeat(61),
        ]
        .join(".");
        for name in ["pool.ntp.org", "A.b-C.example", ".", &longest] {
            let name: Name = name.parse().unwrap();
            for (id, rtype) in [(0, RrType::A), (0xBEEF, RrType::Aaaa), (7, RrType::Txt)] {
                let query = QueryWire::new(id, &name, rtype).unwrap();
                let encoded = crate::Message::query(id, name.clone(), rtype)
                    .encode()
                    .unwrap();
                assert_eq!(query.as_bytes(), encoded, "{name} {rtype}");
                assert_eq!(query.rtype(), rtype);
                let asked = QueryWire::new(0, &name, rtype).unwrap().with_id(id);
                assert_eq!(asked.as_bytes(), encoded, "{name} {rtype} under {id}");
            }
        }
        assert_eq!(longest.len() + 2, MAX_NAME_LEN);
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
