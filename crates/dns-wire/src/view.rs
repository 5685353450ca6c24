//! A DNS message read where it lies.
//!
//! [`MessageView::parse`] walks a packet once and checks everything
//! [`Message::decode`] checks — header, every name (labels, pointers, the
//! 255-octet limit), every record's RDLENGTH and its rdata's own rules, no
//! octet after the last section — and notes where each record section
//! starts. What a reader of an answer needs is then lent from the packet:
//! the header, whether the first question is a given one, and the records
//! as (type, class, TTL, rdata). [`Message::decode`] is the same walk
//! making the owned copy as it goes, so there is one decoder with two
//! ends, as there is one frame parser in `sdoh-doh`'s HTTP/2.
//!
//! # One walk, kept or not
//!
//! The view and the copy are one walk with a `KEEP` parameter, and so are
//! the readers under it: `Question` and `RData` read with `KEEP` (rdata
//! that is not kept is checked by the same match over types and handed
//! back as nothing, no enum built to be dropped), a record is read whole
//! or skipped over those, and a name goes through the one loop over its
//! labels (`WireReader::walk_name`) into an owned buffer or nowhere. A walk
//! that keeps nothing allocates nothing; a copy that keeps everything cannot
//! disagree with the view about what is valid. Once a packet is valid, its
//! records are read by stepping: a name ends at its first pointer, and
//! rdata is RDLENGTH octets. [`MessageView::least_answer_ttl`] steps the
//! same way over octets this end wrote itself, where a full check would be
//! wasted, and only as far as the answer section.
//!
//! A reader that wants the answer records reads them on the walk that
//! validates them: [`MessageView::parse_addresses`] collects the addresses
//! of one type as the walk passes them, rather than walking the answer
//! section a second time.

use std::net::IpAddr;

use crate::error::{WireError, WireResult};
use crate::header::Header;
use crate::message::Message;
use crate::question::{QueryWire, Question};
use crate::record::{Record, RecordView};
use crate::rrtype::RrType;
use crate::wire::{SameName, Step, WireReader};

/// Octets of the fixed header; the question section starts behind it.
const HEADER_LEN: usize = 12;

/// A DNS message borrowed from its packet, validated by
/// [`MessageView::parse`].
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::{Message, MessageBuilder, MessageView, QueryWire, RrType};
///
/// # fn main() -> Result<(), sdoh_dns_wire::WireError> {
/// let query = Message::query(7, "pool.ntp.org".parse()?, RrType::A);
/// let wire = MessageBuilder::response_to(&query)
///     .answer_address(300, "203.0.113.1".parse().unwrap())
///     .answer_address(300, "2001:db8::1".parse().unwrap())
///     .build()
///     .encode()?;
///
/// let mut addresses = Vec::new();
/// let answer = MessageView::parse_addresses(&wire, RrType::A, &mut addresses)?;
/// assert!(answer.header().response);
/// assert!(answer.echoes(&QueryWire::new(7, &"POOL.ntp.org".parse()?, RrType::A)?));
/// assert_eq!(addresses, ["203.0.113.1".parse::<std::net::IpAddr>().unwrap()]);
/// assert_eq!(answer.answers().map(|record| record.ttl).min(), Some(300));
/// assert_eq!(MessageView::least_answer_ttl(&wire), Some(300));
/// assert_eq!(answer.to_message()?, Message::decode(&wire)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    packet: &'a [u8],
    header: Header,
    /// Offsets of the answer, authority and additional sections.
    sections: [usize; 3],
}

impl<'a> MessageView<'a> {
    /// Validates `packet` as one DNS message.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Message::decode`]: truncated or malformed
    /// input, and octets after the declared sections.
    pub fn parse(packet: &'a [u8]) -> WireResult<Self> {
        Self::walk::<false>(packet, &mut ()).map(|(view, _)| view)
    }

    /// [`MessageView::parse`], appending on the same walk the addresses of
    /// the answer records of type `rtype` to `addresses`, in answer order —
    /// what [`addresses_of_type`](crate::addresses_of_type) reads from the
    /// decoded message — without stepping over the answer section again.
    ///
    /// # Errors
    ///
    /// As [`MessageView::parse`]; what was appended before the error is
    /// the caller's to drop.
    pub fn parse_addresses(
        packet: &'a [u8],
        rtype: RrType,
        addresses: &mut Vec<IpAddr>,
    ) -> WireResult<Self> {
        Self::walk::<false>(packet, &mut Addresses { rtype, addresses }).map(|(view, _)| view)
    }

    /// The least TTL of the answer records in octets this end wrote itself
    /// (a handler's answer), read in one step over the header, the question
    /// and the answer section: names stepped over to their first pointer,
    /// rdata by its RDLENGTH, as a validated view's records are read, and
    /// nothing behind the answer section touched. For a well-formed message
    /// that is exact; for anything else what is read may be garbage, but
    /// nothing panics. `None` when no answer record is read.
    pub fn least_answer_ttl(packet: &[u8]) -> Option<u32> {
        let mut r = WireReader::new(packet);
        let header = Header::decode(&mut r).ok()?;
        for _ in 0..header.question_count {
            r.walk_name(&mut Step).ok()?;
            r.read_bytes(4).ok()?;
        }
        RecordViews {
            reader: r,
            left: header.answer_count,
        }
        .map(|record| record.ttl)
        .min()
    }

    /// The one walk over a packet: every check [`MessageView::parse`]
    /// promises, the section offsets noted, and with `KEEP` the owned copy
    /// made on the way — [`Message::decode`] is this walk, so a decode is
    /// one pass. Without `KEEP` the message comes back empty, nothing is
    /// allocated, and each answer record is handed to `answers` as it is
    /// validated.
    // sdoh-lint: allow(transitive-hot-path-purity, "with KEEP this is Message::decode's owned copy, a name per record and a vector per section; without KEEP (MessageView::parse, QueryView::parse: every query the serving path reads) it allocates nothing, which the rule cannot tell apart because it does not evaluate KEEP, and core/tests/alloc_budget.rs can: a cached hit read at the front door allocates 0 times")
    pub(crate) fn walk<const KEEP: bool>(
        packet: &'a [u8],
        answers: &mut impl AnswerSink<'a>,
    ) -> WireResult<(Self, Message)> {
        let mut r = WireReader::new(packet);
        let header = Header::decode(&mut r)?;
        let mut message = Message {
            header,
            ..Message::default()
        };
        if KEEP {
            message.questions = Vec::with_capacity(usize::from(header.question_count));
        }
        for _ in 0..header.question_count {
            let question = Question::read::<KEEP>(&mut r)?;
            if KEEP {
                message.questions.push(question);
            }
        }
        let sections = [
            records::<KEEP>(&mut r, header.answer_count, &mut message.answers, answers)?,
            records::<KEEP>(
                &mut r,
                header.authority_count,
                &mut message.authorities,
                &mut (),
            )?,
            records::<KEEP>(
                &mut r,
                header.additional_count,
                &mut message.additionals,
                &mut (),
            )?,
        ];
        if !r.is_at_end() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        let view = MessageView {
            packet,
            header,
            sections,
        };
        Ok((view, message))
    }

    /// The message header, section counts as the packet declares them.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The packet the view was parsed from.
    pub(crate) fn packet(&self) -> &'a [u8] {
        self.packet
    }

    /// Whether the first question is the one `query` asks: its name
    /// ignoring ASCII case, its type and its class, as `Question:
    /// PartialEq` compares — what a client that kept its query's octets
    /// checks an answer's echo with. `false` when there is no question.
    pub fn echoes(&self, query: &QueryWire) -> bool {
        let Some((labels, [0, type_hi, type_lo, class_hi, class_lo])) =
            query.question().split_last_chunk::<5>()
        else {
            return false;
        };
        if self.header.question_count == 0 {
            return false;
        }
        let mut r = WireReader::at(self.packet, HEADER_LEN);
        let mut name = SameName::new(labels);
        r.walk_name(&mut name).is_ok()
            && name.matched()
            && r.read_u16() == Ok(u16::from_be_bytes([*type_hi, *type_lo]))
            && r.read_u16() == Ok(u16::from_be_bytes([*class_hi, *class_lo]))
    }

    /// The answer section's records, in order.
    pub fn answers(&self) -> RecordViews<'a> {
        let [at, _, _] = self.sections;
        self.records(at, self.header.answer_count)
    }

    /// The authority section's records, in order.
    pub fn authorities(&self) -> RecordViews<'a> {
        let [_, at, _] = self.sections;
        self.records(at, self.header.authority_count)
    }

    /// The additional section's records, in order (an OPT record among
    /// them).
    pub fn additionals(&self) -> RecordViews<'a> {
        let [_, _, at] = self.sections;
        self.records(at, self.header.additional_count)
    }

    fn records(&self, at: usize, count: u16) -> RecordViews<'a> {
        RecordViews {
            reader: WireReader::at(self.packet, at),
            left: count,
        }
    }

    /// The owned copy: every section decoded into a [`Message`], by the
    /// walk that validated the packet, this time keeping what it reads.
    ///
    /// # Errors
    ///
    /// None in practice — the packet was validated by the same readers —
    /// but a reader's error is passed on rather than assumed away.
    pub fn to_message(&self) -> WireResult<Message> {
        Self::walk::<true>(self.packet, &mut ()).map(|(_, message)| message)
    }
}

/// Walks the `count` records of one section into `kept` (when `KEEP`), or
/// hands each to `seen` as it is validated, and returns where the section
/// starts.
fn records<'a, const KEEP: bool>(
    r: &mut WireReader<'a>,
    count: u16,
    kept: &mut Vec<Record>,
    seen: &mut impl AnswerSink<'a>,
) -> WireResult<usize> {
    let start = r.position();
    if KEEP {
        *kept = Vec::with_capacity(usize::from(count));
        for _ in 0..count {
            kept.push(Record::decode(r)?);
        }
    } else {
        seen.announce(count, r.remaining());
        for _ in 0..count {
            seen.record(Record::skip(r)?);
        }
    }
    Ok(start)
}

/// What the validating walk hands a section's records to: told how many
/// the header announces and how many octets are left to hold them, then
/// given each record once it is checked.
pub(crate) trait AnswerSink<'a> {
    fn announce(&mut self, _count: u16, _octets: usize) {}

    fn record(&mut self, _record: RecordView<'a>) {}
}

/// Records go nowhere.
impl AnswerSink<'_> for () {}

/// The addresses of one type, appended as their records pass.
struct Addresses<'v> {
    rtype: RrType,
    addresses: &'v mut Vec<IpAddr>,
}

/// The smallest address record: a root owner, type, class, TTL, RDLENGTH
/// and four octets of rdata.
const MIN_ADDRESS_RECORD: usize = 1 + 10 + 4;

impl<'a> AnswerSink<'a> for Addresses<'_> {
    /// Room for every record the section announces, but never for more
    /// than the octets left could hold: the count is not yet validated.
    fn announce(&mut self, count: u16, octets: usize) {
        let room = usize::from(count).min(octets / MIN_ADDRESS_RECORD);
        self.addresses.reserve(room);
    }

    fn record(&mut self, record: RecordView<'a>) {
        if record.rtype == self.rtype {
            self.addresses.extend(record.ip_addr());
        }
    }
}

/// The records of one section of a [`MessageView`].
#[derive(Debug, Clone)]
pub struct RecordViews<'a> {
    reader: WireReader<'a>,
    left: u16,
}

impl<'a> Iterator for RecordViews<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        self.left = self.left.checked_sub(1)?;
        RecordView::read(&mut self.reader).ok()
    }
}
