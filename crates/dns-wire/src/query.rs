//! A DNS query read where it lies: [`QueryView`].
//!
//! A server reads little of a query: its header, the one question's name,
//! type and class, and the payload size an OPT record advertises. The view
//! validates the packet as [`MessageView::parse`] does — every check
//! [`Message::decode`] makes — and lends those from the packet, so a
//! server answering from pre-encoded records builds no [`Message`] and
//! copies no name. A name-keyed map is probed with the question's name
//! as it lies ([`NameRef`]).
//!
//! What a server writes back is written from the view too:
//! [`AnswerTemplate::render`](crate::AnswerTemplate::render) behind the
//! echoed question, and [`QueryView::write_response`] for everything a
//! template does not fit — an error, a truncation, addresses for a query
//! of several questions — byte for byte what building the [`Message`]
//! from the decoded query and encoding it writes. A handler that answers
//! only from a decoded message takes [`QueryView::to_message`].

use std::net::IpAddr;

use crate::error::{WireError, WireResult};
use crate::header::Header;
use crate::message::{Message, MAX_MESSAGE_SIZE};
use crate::name::{LabelBuf, NameKey, NameRef};
use crate::rrtype::{RrClass, RrType};
use crate::view::MessageView;
use crate::wire::{LabelSink, WireReader, WireWriter};

/// Octets of the fixed header; the question section starts behind it.
const HEADER_LEN: usize = 12;

/// A DNS query lent from its packet, validated by [`QueryView::parse`].
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::{Header, Message, MessageBuilder, Name, QueryView, Rcode, RrType};
///
/// # fn main() -> Result<(), sdoh_dns_wire::WireError> {
/// let owned = Message::query(7, "Pool.ntp.org".parse()?, RrType::A);
/// let wire = owned.encode()?;
/// let query = QueryView::parse(&wire)?;
/// let question = query.question().unwrap();
/// let pool: Name = "pool.ntp.org".parse()?;
/// assert_eq!((question.name, question.rtype), (pool.as_name_ref(), RrType::A));
/// assert_eq!(query.payload_size(), None);
///
/// // What is written from the view is what the owned path encodes.
/// let mut out = Vec::new();
/// let servfail = Header {
///     rcode: Rcode::ServFail,
///     ..Header::response_to(query.header())
/// };
/// query.write_response(servfail, 0, [], &mut out)?;
/// assert_eq!(out, Message::error_response(&owned, Rcode::ServFail).encode()?);
///
/// let address = "203.0.113.1".parse().unwrap();
/// let answer = Header {
///     recursion_available: true,
///     ..Header::response_to(query.header())
/// };
/// query.write_response(answer, 60, [address], &mut out)?;
/// let built = MessageBuilder::response_to(&owned)
///     .recursion_available(true)
///     .answer_address(60, address)
///     .build();
/// assert_eq!(out, built.encode()?);
/// assert_eq!(query.to_message()?, Message::decode(&wire)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QueryView<'a> {
    view: MessageView<'a>,
    /// The first question; `None` when the query has none.
    question: Option<Asked<'a>>,
}

/// The first question of a [`QueryView`], as it is read.
#[derive(Debug, Clone)]
struct Asked<'a> {
    name: Labels<'a>,
    rtype: RrType,
    rclass: RrClass,
}

/// Where the first question's labels are read from.
#[derive(Debug, Clone)]
// The first name of a message has nothing before it to point at but the
// header, so a gathered name is all but unheard of; holding it inline keeps
// the lent case free of a heap copy in the case that never comes.
#[allow(clippy::large_enum_variant)]
enum Labels<'a> {
    /// Written whole, as every encoder writes a message's first name: lent.
    Lent(&'a [u8]),
    /// Ending in a pointer: gathered, as [`Message::decode`] gathers it.
    Gathered(LabelBuf),
}

/// The octets a name's labels take, pointers followed: equal to the span
/// the name occupies, less its terminating zero, exactly when the name is
/// written whole.
struct Counted(usize);

impl LabelSink for Counted {
    #[inline]
    fn label(&mut self, label: &[u8]) {
        self.0 += label.len();
    }
}

/// The one question of a query, lent from the [`QueryView`] it was read
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuestionRef<'q> {
    /// The name asked for, spelled as asked.
    pub name: NameRef<'q>,
    /// Record type asked for.
    pub rtype: RrType,
    /// Class asked in.
    pub rclass: RrClass,
}

impl<'a> QueryView<'a> {
    /// Validates `packet` as one DNS message and lends its first question.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Message::decode`].
    pub fn parse(packet: &'a [u8]) -> WireResult<Self> {
        let view = MessageView::parse(packet)?;
        if view.header().question_count == 0 {
            return Ok(QueryView {
                view,
                question: None,
            });
        }
        let mut r = WireReader::at(packet, HEADER_LEN);
        let mut counted = Counted(0);
        r.walk_name(&mut counted)?;
        let name = match packet.get(HEADER_LEN..r.position() - 1) {
            Some(labels) if labels.len() == counted.0 => Labels::Lent(labels),
            _ => {
                let mut gathered = LabelBuf::new();
                WireReader::at(packet, HEADER_LEN).walk_name(&mut gathered)?;
                Labels::Gathered(gathered)
            }
        };
        let rtype = RrType::from(r.read_u16()?);
        let rclass = RrClass::from(r.read_u16()?);
        Ok(QueryView {
            view,
            question: Some(Asked {
                name,
                rtype,
                rclass,
            }),
        })
    }

    /// The query's header, section counts as the packet declares them.
    pub fn header(&self) -> &Header {
        self.view.header()
    }

    /// The first question — the one question of a standard query — as
    /// [`Message::question`] reads it; `None` when there is none.
    pub fn question(&self) -> Option<QuestionRef<'_>> {
        self.question.as_ref().map(|asked| QuestionRef {
            name: NameRef::new(match &asked.name {
                Labels::Lent(labels) => labels,
                Labels::Gathered(gathered) => gathered.labels(),
            }),
            rtype: asked.rtype,
            rclass: asked.rclass,
        })
    }

    /// The UDP payload size the query's OPT record advertises, as
    /// [`Message::edns`] reads it; `None` without one.
    pub fn payload_size(&self) -> Option<u16> {
        self.view
            .additionals()
            .find(|record| record.rtype == RrType::Opt)
            .map(|record| record.rclass.code())
    }

    /// The owned copy, for a handler that answers only from a decoded
    /// [`Message`].
    ///
    /// # Errors
    ///
    /// None in practice: the packet was validated by the same walk.
    pub fn to_message(&self) -> WireResult<Message> {
        self.view.to_message()
    }

    /// Writes a response to this query into `out`, replacing its contents:
    /// `header`, the question section echoed, and one address record per
    /// address — A or AAAA by its family, class IN, `ttl` — owned by the
    /// first question's name. Byte for byte what encoding a [`Message`] with
    /// that header, the decoded query's questions and
    /// [`Record::address`](crate::Record::address) records writes, section
    /// counts included — [`Message::error_response`] and a truncated
    /// response are this with no address. Nothing is allocated beyond
    /// `out`'s growth.
    ///
    /// # Errors
    ///
    /// [`WireError::MessageTooLong`] past 65 535 octets; `out` is left
    /// empty.
    pub fn write_response(
        &self,
        header: Header,
        ttl: u32,
        addresses: impl IntoIterator<Item = IpAddr>,
        out: &mut Vec<u8>,
    ) -> WireResult<()> {
        let questions = self.header().question_count;
        let owner = self.question().map_or(NameRef::new(&[]), |q| q.name);
        WireWriter::write_into(out, true, |w| {
            header.encode(w)?;
            let mut r = WireReader::at(self.view.packet(), HEADER_LEN);
            for _ in 0..questions {
                let mut name = LabelBuf::new();
                r.walk_name(&mut name)?;
                w.put_labels(name.labels())?;
                w.put_slice(r.read_bytes(4)?);
            }
            let mut answers = 0usize;
            for address in addresses {
                w.put_labels(owner.key_labels())?;
                match address {
                    IpAddr::V4(v4) => put_address(w, RrType::A, ttl, &v4.octets()),
                    IpAddr::V6(v6) => put_address(w, RrType::Aaaa, ttl, &v6.octets()),
                }
                answers += 1;
            }
            if w.len() > MAX_MESSAGE_SIZE {
                return Err(WireError::MessageTooLong(w.len()));
            }
            w.patch_u16(4, questions);
            w.patch_u16(6, u16::try_from(answers).unwrap_or(u16::MAX));
            w.patch_u16(8, 0);
            w.patch_u16(10, 0);
            Ok(())
        })
    }
}

/// An address record's fields behind its owner: type, class IN, TTL,
/// RDLENGTH and the address.
fn put_address(w: &mut WireWriter, rtype: RrType, ttl: u32, rdata: &[u8]) {
    w.put_u16(rtype.code());
    w.put_u16(RrClass::In.code());
    w.put_u32(ttl);
    // 4 or 16: an address always fits RDLENGTH.
    w.put_u16(u16::try_from(rdata.len()).unwrap_or(u16::MAX));
    w.put_slice(rdata);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Rcode;
    use crate::name::Name;

    #[test]
    fn a_question_name_ending_in_a_pointer_is_gathered_and_written_whole() {
        // Id 0x0178 reads as the label "x" and the flags' first octet as
        // the terminating zero: the question's name is a pointer to it.
        let packet = [
            0x01, b'x', 0x00, 0x00, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x00, 0, 1, 0, 1,
        ];
        let query = QueryView::parse(&packet).unwrap();
        let owned = Message::decode(&packet).unwrap();
        let x: Name = "x".parse().unwrap();
        assert!(matches!(
            query.question,
            Some(Asked {
                name: Labels::Gathered(_),
                ..
            })
        ));
        assert_eq!(query.question().unwrap().name, x.as_name_ref());
        let mut out = Vec::new();
        let header = Header {
            rcode: Rcode::Refused,
            ..Header::response_to(query.header())
        };
        query.write_response(header, 0, [], &mut out).unwrap();
        assert_eq!(
            out,
            Message::error_response(&owned, Rcode::Refused)
                .encode()
                .unwrap()
        );

        // Written whole, the same name is lent.
        let whole = Message::query(0x0178, x, RrType::A).encode().unwrap();
        let query = QueryView::parse(&whole).unwrap();
        assert!(matches!(
            query.question,
            Some(Asked {
                name: Labels::Lent(_),
                ..
            })
        ));
    }
}
