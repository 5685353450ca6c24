//! Pre-encoded address answers: the answer section of a pool response
//! built once, then rendered per query by copying it.
//!
//! A resolver that serves the same address set to many clients builds the
//! same response over and over: only the id, the RD bit, the spelling of
//! the question and the TTL differ from one answer to the next.
//! [`AnswerTemplate`] holds everything else — `N × [C0 0C | TYPE | IN |
//! TTL | RDLEN | RDATA]`, every owner name a compression pointer to the
//! question at offset 12 — and [`AnswerTemplate::render`] writes header,
//! echoed question and the TTL-patched records into a caller's buffer,
//! byte for byte what building the [`Message`](crate::Message) and
//! encoding it produces.
//! The query is read where it lies ([`QueryView`]): rendering an answer
//! copies no name and builds no message.
//!
//! The header is a resolver's (RA set) or, for a template made
//! [`authoritative`](AnswerTemplate::authoritative), an authoritative
//! server's (AA set, RA clear): an authority answering an address RRset of
//! its zone is the other server that sends the same records to everyone.

use std::net::IpAddr;

use crate::header::Header;
use crate::message::MAX_MESSAGE_SIZE;
use crate::name::{NameKey, MAX_NAME_LEN};
use crate::query::QueryView;
use crate::rrtype::{RrClass, RrType};
use crate::wire::WireWriter;

/// Owner name of every templated record: a pointer to the question name,
/// which always starts right after the 12-octet header.
const OWNER_POINTER: u16 = 0xC00C;
/// Offset of the TTL inside one record: pointer, type and class precede it.
const TTL_OFFSET: usize = 6;
/// Octets of one record besides its rdata: pointer, type, class, TTL and
/// RDLENGTH.
const FIXED_RECORD_LEN: usize = 12;

/// The pre-encoded answer section of an address response.
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::{AnswerTemplate, Message, MessageBuilder, QueryView, RrType};
///
/// let addresses = ["203.0.113.1".parse().unwrap(), "2001:db8::1".parse().unwrap()];
/// let template = AnswerTemplate::for_addresses(RrType::A, addresses);
/// assert_eq!(template.len(), 1, "only the queried family is kept");
///
/// let query = Message::query(7, "pool.ntp.org".parse().unwrap(), RrType::A);
/// let query_wire = query.encode().unwrap();
/// let mut wire = Vec::new();
/// assert!(template.render(&QueryView::parse(&query_wire).unwrap(), 60, &mut wire));
/// let built = MessageBuilder::response_to(&query)
///     .recursion_available(true)
///     .answer_address(60, addresses[0])
///     .build();
/// assert_eq!(wire, built.encode().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerTemplate {
    /// Whole records of `stride` octets each, TTL fields zeroed.
    records: Vec<u8>,
    /// Length of one record; the same for all because they share a family.
    stride: usize,
    /// The header's flags: AA set and RA clear when `true`, RA set and AA
    /// clear otherwise.
    authoritative: bool,
}

/// Appends one IN-class record owned by the question name, TTL zeroed.
fn push_record<const N: usize>(records: &mut Vec<u8>, rtype: RrType, rdata: &[u8; N]) {
    // 4 or 16: an address always fits RDLENGTH.
    let rdlength = u16::try_from(N).unwrap_or(u16::MAX);
    records.extend_from_slice(&OWNER_POINTER.to_be_bytes());
    records.extend_from_slice(&rtype.code().to_be_bytes());
    records.extend_from_slice(&RrClass::In.code().to_be_bytes());
    records.extend_from_slice(&0u32.to_be_bytes());
    records.extend_from_slice(&rdlength.to_be_bytes());
    records.extend_from_slice(rdata);
}

impl AnswerTemplate {
    /// Pre-encodes one IN-class address record per address of `rtype`'s
    /// family (`A`: IPv4, `AAAA`: IPv6), in order; addresses of the other
    /// family are skipped, and any other `rtype` keeps none.
    pub fn for_addresses(rtype: RrType, addresses: impl IntoIterator<Item = IpAddr>) -> Self {
        let addresses = addresses.into_iter();
        let stride = FIXED_RECORD_LEN + if rtype == RrType::Aaaa { 16 } else { 4 };
        let mut records = Vec::with_capacity(addresses.size_hint().0 * stride);
        for address in addresses {
            match (rtype, address) {
                (RrType::A, IpAddr::V4(v4)) => push_record(&mut records, rtype, &v4.octets()),
                (RrType::Aaaa, IpAddr::V6(v6)) => push_record(&mut records, rtype, &v6.octets()),
                _ => {}
            }
        }
        // A mixed pool reserved room for the family that was skipped.
        records.shrink_to_fit();
        AnswerTemplate {
            records,
            stride,
            authoritative: false,
        }
    }

    /// The same records answered as an authoritative server answers them:
    /// AA set, RA clear.
    #[must_use]
    pub fn authoritative(self) -> Self {
        AnswerTemplate {
            authoritative: true,
            ..self
        }
    }

    /// Number of answer records.
    pub fn len(&self) -> usize {
        self.records.len() / self.stride
    }

    /// Returns `true` when the template holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Writes the NOERROR response to `query` into `out` (replacing its
    /// contents, reusing its allocation): the header of
    /// [`Header::response_to`] with RA set (AA instead for an
    /// [`authoritative`](AnswerTemplate::authoritative) template), the
    /// question echoed as asked, and every record with `ttl`.
    ///
    /// Returns `false`, leaving `out` empty, for what the template cannot
    /// reproduce byte for byte — a query without exactly one question, the
    /// root name (nothing for the owner pointers to compress against) or a
    /// response over [`MAX_MESSAGE_SIZE`] — so the caller writes the answer
    /// another way ([`QueryView::write_response`]).
    #[must_use]
    pub fn render(&self, query: &QueryView<'_>, ttl: u32, out: &mut Vec<u8>) -> bool {
        out.clear();
        let Some(question) = query
            .question()
            .filter(|_| query.header().question_count == 1)
        else {
            return false;
        };
        let name_len = question.name.wire_len();
        // Header, then the question: name, type and class.
        let records_start = 12 + name_len + 4;
        let total = records_start + self.records.len();
        let Ok(answer_count) = u16::try_from(self.len()) else {
            return false;
        };
        if question.name.is_root() || name_len > MAX_NAME_LEN || total > MAX_MESSAGE_SIZE {
            return false;
        }
        out.reserve(total);
        let header = Header {
            authoritative: self.authoritative,
            recursion_available: !self.authoritative,
            question_count: 1,
            answer_count,
            ..Header::response_to(query.header())
        };
        // The question name is the first name of the message, so writing it
        // uncompressed is exactly what the compressing encoder does.
        let written = WireWriter::write_into(out, false, |w| {
            header.encode(w)?;
            w.put_labels(question.name.key_labels())?;
            w.put_u16(question.rtype.code());
            w.put_u16(question.rclass.code());
            w.put_slice(&self.records);
            Ok(())
        });
        if written.is_err() {
            return false;
        }
        let ttl = ttl.to_be_bytes();
        for record in out
            .get_mut(records_start..)
            .unwrap_or_default()
            .chunks_exact_mut(self.stride)
        {
            if let Some(slot) = record.get_mut(TTL_OFFSET..TTL_OFFSET + ttl.len()) {
                slot.copy_from_slice(&ttl);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, MessageBuilder};
    use crate::name::Name;
    use crate::question::Question;

    fn v4(last: u8) -> IpAddr {
        IpAddr::from([203, 0, 113, last])
    }

    fn v6(last: u16) -> IpAddr {
        IpAddr::from([0x2001, 0xdb8, 0, 0, 0, 0, 0, last])
    }

    /// Renders `template` for `query`, read where it lies in its encoding.
    fn render(template: &AnswerTemplate, query: &Message, ttl: u32, out: &mut Vec<u8>) -> bool {
        let wire = query.encode().unwrap();
        template.render(&QueryView::parse(&wire).unwrap(), ttl, out)
    }

    fn built(query: &Message, ttl: u32, addresses: &[IpAddr]) -> Vec<u8> {
        let mut builder = MessageBuilder::response_to(query).recursion_available(true);
        for &address in addresses {
            builder = builder.answer_address(ttl, address);
        }
        builder.build().encode().unwrap()
    }

    #[test]
    fn render_matches_the_message_encoder() {
        let pool = [v4(1), v6(1), v4(2), v4(1), v6(2)];
        let mut out = vec![0xEE; 3];
        for (rtype, family) in [
            (RrType::A, vec![v4(1), v4(2), v4(1)]),
            (RrType::Aaaa, vec![v6(1), v6(2)]),
        ] {
            let template = AnswerTemplate::for_addresses(rtype, pool);
            assert_eq!(template.len(), family.len());
            let mut query = Message::query(0xBEEF, "Pool.NTP.org".parse().unwrap(), rtype);
            for rd in [true, false] {
                query.header.recursion_desired = rd;
                for ttl in [0, 1, 60, u32::MAX] {
                    assert!(render(&template, &query, ttl, &mut out));
                    assert_eq!(
                        out,
                        built(&query, ttl, &family),
                        "{rtype} rd={rd} ttl={ttl}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_authoritative_template_renders_the_authority_header() {
        let family = [v4(1), v4(2)];
        let template = AnswerTemplate::for_addresses(RrType::A, family).authoritative();
        let mut query = Message::query(0x0AA0, "Pool.NTP.org".parse().unwrap(), RrType::A);
        let mut out = Vec::new();
        for rd in [true, false] {
            query.header.recursion_desired = rd;
            let mut builder = MessageBuilder::response_to(&query).authoritative(true);
            for address in family {
                builder = builder.answer_address(300, address);
            }
            assert!(render(&template, &query, 300, &mut out));
            assert_eq!(out, builder.build().encode().unwrap(), "rd={rd}");
        }
    }

    #[test]
    fn empty_template_renders_an_empty_noerror_answer() {
        let template = AnswerTemplate::for_addresses(RrType::Aaaa, [v4(1)]);
        assert!(template.is_empty());
        let query = Message::query(1, "v4only.test".parse().unwrap(), RrType::Aaaa);
        let mut out = Vec::new();
        assert!(render(&template, &query, 30, &mut out));
        assert_eq!(out, built(&query, 30, &[]));
        assert!(AnswerTemplate::for_addresses(RrType::Txt, [v4(1), v6(1)]).is_empty());
    }

    #[test]
    fn query_extras_the_response_never_echoed_do_not_matter() {
        // Opcode is mirrored; AD/CD bits and an OPT record are not.
        let template = AnswerTemplate::for_addresses(RrType::A, [v4(1)]);
        let mut query = Message::query(9, "pool.ntp.org".parse().unwrap(), RrType::A);
        query.header.opcode = crate::header::Opcode::Status;
        query.header.authentic_data = true;
        query.header.checking_disabled = true;
        query.set_edns(crate::edns::Edns::with_payload_size(4096));
        let mut out = Vec::new();
        assert!(render(&template, &query, 5, &mut out));
        assert_eq!(out, built(&query, 5, &[v4(1)]));
    }

    #[test]
    fn unrenderable_queries_are_refused() {
        let template = AnswerTemplate::for_addresses(RrType::A, [v4(1)]);
        let mut out = vec![1, 2, 3];

        let mut none = Message::query(1, "a.test".parse().unwrap(), RrType::A);
        none.questions.clear();
        assert!(!render(&template, &none, 60, &mut out));
        assert!(out.is_empty());

        let mut two = Message::query(1, "a.test".parse().unwrap(), RrType::A);
        two.questions
            .push(Question::new("b.test".parse().unwrap(), RrType::A));
        assert!(!render(&template, &two, 60, &mut out));

        let root = Message::query(1, Name::root(), RrType::A);
        assert!(!render(&template, &root, 60, &mut out));
    }

    #[test]
    fn oversized_responses_are_refused_like_encode_refuses_them() {
        // 4096 A records are 65536 octets of answer section alone.
        let addresses: Vec<IpAddr> = (0..4096u32)
            .map(|i| IpAddr::from(i.to_be_bytes()))
            .collect();
        let template = AnswerTemplate::for_addresses(RrType::A, addresses.iter().copied());
        let query = Message::query(1, "big.test".parse().unwrap(), RrType::A);
        let mut out = Vec::new();
        assert!(!render(&template, &query, 60, &mut out));
        let mut builder = MessageBuilder::response_to(&query);
        for &address in &addresses {
            builder = builder.answer_address(60, address);
        }
        assert!(builder.build().encode().is_err());

        // One record fewer than the limit allows still renders.
        let fits = (MAX_MESSAGE_SIZE - 12 - "big.test".len() - 2 - 4) / 16;
        let template =
            AnswerTemplate::for_addresses(RrType::A, addresses.iter().copied().take(fits));
        assert!(render(&template, &query, 60, &mut out));
        assert_eq!(out, built(&query, 60, &addresses[..fits]));
    }
}
