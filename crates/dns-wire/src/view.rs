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
//! the readers under it: `Question`, `Record` and `RData` read with
//! `KEEP`, and a name goes through the one loop over its labels
//! (`WireReader::walk_name`) into an owned buffer or nowhere. A walk that
//! keeps nothing allocates nothing; a copy that keeps everything cannot
//! disagree with the view about what is valid. Once a packet is valid, its
//! records are read by stepping: a name ends at its first pointer, and
//! rdata is RDLENGTH octets. [`MessageView::locate`] steps the same way
//! over octets this end wrote itself, where a full check would be wasted.

use std::net::IpAddr;

use crate::error::{WireError, WireResult};
use crate::header::Header;
use crate::message::Message;
use crate::question::Question;
use crate::record::{Record, RecordView};
use crate::rrtype::{RrClass, RrType};
use crate::wire::{SameName, Step, WireReader};

/// Octets of the fixed header; the question section starts behind it.
const HEADER_LEN: usize = 12;

/// A DNS message borrowed from its packet: validated by
/// [`MessageView::parse`], or located by [`MessageView::locate`] in octets
/// this end wrote.
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::{Message, MessageBuilder, MessageView, Question, RrType};
///
/// # fn main() -> Result<(), sdoh_dns_wire::WireError> {
/// let query = Message::query(7, "pool.ntp.org".parse()?, RrType::A);
/// let wire = MessageBuilder::response_to(&query)
///     .answer_address(300, "203.0.113.1".parse().unwrap())
///     .answer_address(300, "2001:db8::1".parse().unwrap())
///     .build()
///     .encode()?;
///
/// let answer = MessageView::parse(&wire)?;
/// assert!(answer.header().response);
/// assert!(answer.question_is(&Question::a("POOL.ntp.org".parse()?)));
/// assert_eq!(answer.addresses(RrType::A), ["203.0.113.1".parse::<std::net::IpAddr>().unwrap()]);
/// assert_eq!(answer.answers().map(|record| record.ttl).min(), Some(300));
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
        Self::walk::<false>(packet).map(|(view, _)| view)
    }

    /// A view over octets this end wrote itself — a handler's answer —
    /// whose sections are located, not validated: the header is read, and
    /// each name is stepped over to its first pointer and each record's
    /// rdata by its RDLENGTH, as a validated view's records are read. For
    /// a well-formed message that is exact, at a fraction of the cost of
    /// [`MessageView::parse`]; for anything else what is read may be
    /// garbage, but nothing panics.
    ///
    /// # Errors
    ///
    /// Octets that end before the sections the header declares.
    pub fn locate(packet: &'a [u8]) -> WireResult<Self> {
        let mut r = WireReader::new(packet);
        let header = Header::decode(&mut r)?;
        for _ in 0..header.question_count {
            r.walk_name(&mut Step)?;
            r.read_bytes(4)?;
        }
        let mut step = |count: u16| -> WireResult<usize> {
            let start = r.position();
            for _ in 0..count {
                RecordView::read(&mut r)?;
            }
            Ok(start)
        };
        let sections = [
            step(header.answer_count)?,
            step(header.authority_count)?,
            step(header.additional_count)?,
        ];
        Ok(MessageView {
            packet,
            header,
            sections,
        })
    }

    /// The one walk over a packet: every check [`MessageView::parse`]
    /// promises, the section offsets noted, and with `KEEP` the owned copy
    /// made on the way — [`Message::decode`] is this walk, so a decode is
    /// one pass. Without `KEEP` the message comes back empty and nothing is
    /// allocated.
    pub(crate) fn walk<const KEEP: bool>(packet: &'a [u8]) -> WireResult<(Self, Message)> {
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
            records::<KEEP>(&mut r, header.answer_count, &mut message.answers)?,
            records::<KEEP>(&mut r, header.authority_count, &mut message.authorities)?,
            records::<KEEP>(&mut r, header.additional_count, &mut message.additionals)?,
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

    /// Whether the first question is `question`: its name ignoring ASCII
    /// case, its type and its class, as `Question: PartialEq` compares.
    /// `false` when there is no question.
    pub fn question_is(&self, question: &Question) -> bool {
        if self.header.question_count == 0 {
            return false;
        }
        let mut r = WireReader::at(self.packet, HEADER_LEN);
        let mut name = SameName::new(&question.name);
        r.walk_name(&mut name).is_ok()
            && name.matched()
            && r.read_u16().map(RrType::from) == Ok(question.rtype)
            && r.read_u16().map(RrClass::from) == Ok(question.rclass)
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

    /// The addresses of the answer records of type `rtype`, in answer
    /// order — what [`addresses_of_type`](crate::addresses_of_type) reads
    /// from the decoded message.
    pub fn addresses(&self, rtype: RrType) -> Vec<IpAddr> {
        let mut addresses = Vec::with_capacity(usize::from(self.header.answer_count));
        addresses.extend(
            self.answers()
                .filter(|record| record.rtype == rtype)
                .filter_map(|record| record.ip_addr()),
        );
        addresses
    }

    /// The owned copy: every section decoded into a [`Message`], by the
    /// walk that validated the packet, this time keeping what it reads.
    ///
    /// # Errors
    ///
    /// None in practice — the packet was validated by the same readers —
    /// but a reader's error is passed on rather than assumed away.
    pub fn to_message(&self) -> WireResult<Message> {
        Self::walk::<true>(self.packet).map(|(_, message)| message)
    }
}

/// Walks the `count` records of one section into `kept` (when `KEEP`) and
/// returns where the section starts.
fn records<const KEEP: bool>(
    r: &mut WireReader<'_>,
    count: u16,
    kept: &mut Vec<Record>,
) -> WireResult<usize> {
    let start = r.position();
    if KEEP {
        *kept = Vec::with_capacity(usize::from(count));
        for _ in 0..count {
            kept.push(Record::read::<true>(r)?);
        }
    } else {
        for _ in 0..count {
            Record::skip(r)?;
        }
    }
    Ok(start)
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
