//! Complete DNS messages: header plus question, answer, authority and
//! additional sections, with encode/decode and a builder.

use std::fmt;
use std::net::IpAddr;

use crate::edns::Edns;
use crate::error::{WireError, WireResult};
use crate::header::{Header, Rcode};
use crate::name::Name;
use crate::question::Question;

use crate::record::Record;
use crate::rrtype::RrType;
use crate::view::MessageView;
use crate::wire::WireWriter;

/// Maximum size of a DNS message in octets (TCP / DoH limit).
pub const MAX_MESSAGE_SIZE: usize = 65_535;

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// Message header. The section counts are recomputed during encoding.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (including any OPT pseudo-record).
    pub additionals: Vec<Record>,
}

impl Message {
    /// Creates an empty message with a default header.
    pub fn new() -> Self {
        Message::default()
    }

    /// Creates a recursive query for `name`/`rtype` with the given identifier.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdoh_dns_wire::{Message, RrType};
    ///
    /// let query = Message::query(0x1234, "pool.ntp.org".parse().unwrap(), RrType::A);
    /// assert_eq!(query.questions.len(), 1);
    /// assert!(query.header.recursion_desired);
    /// ```
    pub fn query(id: u16, name: Name, rtype: RrType) -> Self {
        Message {
            header: Header {
                question_count: 1,
                ..Header::query(id)
            },
            questions: vec![Question::new(name, rtype)],
            ..Message::default()
        }
    }

    /// Creates a response skeleton answering `query`: same id, opcode, RD
    /// bit and question section.
    pub fn response_to(query: &Message) -> Self {
        Message {
            header: Header {
                question_count: u16::try_from(query.questions.len()).unwrap_or(u16::MAX),
                ..Header::response_to(&query.header)
            },
            questions: query.questions.clone(),
            ..Message::default()
        }
    }

    /// The first question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Response code taking a potential extended rcode in the OPT record into
    /// account.
    pub fn rcode(&self) -> Rcode {
        if let Some(edns) = self.edns() {
            if edns.extended_rcode != 0 {
                let code =
                    (u16::from(edns.extended_rcode) << 4) | u16::from(self.header.rcode.low_bits());
                return Rcode::from(code);
            }
        }
        self.header.rcode
    }

    /// Returns the EDNS structure from the additional section, if present.
    pub fn edns(&self) -> Option<Edns> {
        self.additionals
            .iter()
            .find(|r| r.rtype() == RrType::Opt)
            .and_then(Edns::from_record)
    }

    /// Attaches (or replaces) an EDNS OPT record in the additional section.
    pub fn set_edns(&mut self, edns: Edns) {
        self.additionals.retain(|r| r.rtype() != RrType::Opt);
        self.additionals.push(edns.to_record());
    }

    /// All IP addresses found in answer records that match the queried name's
    /// address types (A/AAAA), in answer order.
    ///
    /// This is the list the secure pool generation algorithm consumes.
    pub fn answer_addresses(&self) -> Vec<IpAddr> {
        self.answers.iter().filter_map(Record::ip_addr).collect()
    }

    /// Adds an answer record, returning `&mut self` for chaining.
    pub fn add_answer(&mut self, record: Record) -> &mut Self {
        self.answers.push(record);
        self
    }

    /// Recomputes the header section counts from the actual section lengths.
    pub fn normalize_counts(&mut self) {
        self.header = self.counted_header();
    }

    /// The header with its section counts taken from the section lengths.
    fn counted_header(&self) -> Header {
        // Saturating: a section this large cannot encode anyway — encode()
        // rejects messages over 65535 octets.
        let count = |len: usize| u16::try_from(len).unwrap_or(u16::MAX);
        Header {
            question_count: count(self.questions.len()),
            answer_count: count(self.answers.len()),
            authority_count: count(self.authorities.len()),
            additional_count: count(self.additionals.len()),
            ..self.header
        }
    }

    /// Encodes the message to wire format with name compression.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::MessageTooLong`] when the encoded message exceeds
    /// 65535 octets, or any underlying encoding error.
    pub fn encode(&self) -> WireResult<Vec<u8>> {
        let mut out = Vec::with_capacity(512);
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Encodes the message like [`Message::encode`], but into `out`,
    /// replacing its contents and reusing its allocation.
    ///
    /// # Errors
    ///
    /// As [`Message::encode`]; `out` is left empty.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> WireResult<()> {
        encode_sections(
            self.header,
            &self.questions,
            self.answers.iter().map(|r| (&r.name, r)),
            &self.authorities,
            &self.additionals,
            out,
        )
    }

    /// Decodes a message from wire format: the [`MessageView`] walk over the
    /// packet, with the owned copy made on the way.
    ///
    /// # Errors
    ///
    /// Returns an error for truncated or malformed messages. Trailing bytes
    /// after the declared sections are rejected.
    // sdoh-lint: allow(transitive-hot-path-purity, "the owned copy allocates a name per record and a Vec per section; the front door's decode_do53_query is the one owned decode left per query, upstream answers are read through MessageView")
    pub fn decode(data: &[u8]) -> WireResult<Self> {
        MessageView::walk::<true>(data, &mut ()).map(|(_, message)| message)
    }

    /// Builds a minimal error response (e.g. SERVFAIL, REFUSED) to a query.
    pub fn error_response(query: &Message, rcode: Rcode) -> Message {
        let mut resp = Message::response_to(query);
        resp.header.rcode = rcode;
        resp
    }

    /// Returns `true` when this message is a response to the given query:
    /// matching id, opcode and first question.
    ///
    /// This is the check a plain (non-DoH) client performs, and the check an
    /// off-path attacker must defeat by guessing the id.
    pub fn answers_query(&self, query: &Message) -> bool {
        self.header.response
            && self.header.id == query.header.id
            && self.header.opcode == query.header.opcode
            && match (self.question(), query.question()) {
                (Some(a), Some(b)) => a == b,
                (None, None) => true,
                _ => false,
            }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} qd {} an {} ns {} ar {}",
            self.header.id,
            if self.header.response {
                "response"
            } else {
                "query"
            },
            self.header.rcode,
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len()
        )?;
        for q in &self.questions {
            writeln!(f, ";{q}")?;
        }
        for r in &self.answers {
            writeln!(f, "{r}")?;
        }
        for r in &self.authorities {
            writeln!(f, "{r}")?;
        }
        for r in &self.additionals {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Fluent builder for response messages, used by the authoritative server
/// and the majority-resolver front end.
#[derive(Debug, Clone)]
pub struct MessageBuilder {
    message: Message,
}

impl MessageBuilder {
    /// Starts a response to the given query.
    pub fn response_to(query: &Message) -> Self {
        MessageBuilder {
            message: Message::response_to(query),
        }
    }

    /// Starts a query builder.
    pub fn query(id: u16, name: Name, rtype: RrType) -> Self {
        MessageBuilder {
            message: Message::query(id, name, rtype),
        }
    }

    /// Marks the message as authoritative.
    pub fn authoritative(mut self, value: bool) -> Self {
        self.message.header.authoritative = value;
        self
    }

    /// Sets the recursion-available flag.
    pub fn recursion_available(mut self, value: bool) -> Self {
        self.message.header.recursion_available = value;
        self
    }

    /// Sets the response code.
    pub fn rcode(mut self, rcode: Rcode) -> Self {
        self.message.header.rcode = rcode;
        self
    }

    /// Appends an answer record.
    pub fn answer(mut self, record: Record) -> Self {
        self.message.answers.push(record);
        self
    }

    /// Appends an address answer for the first question's name.
    pub fn answer_address(mut self, ttl: u32, addr: IpAddr) -> Self {
        let name = self
            .message
            .question()
            .map(|q| q.name.clone())
            .unwrap_or_else(Name::root);
        self.message.answers.push(Record::address(name, ttl, addr));
        self
    }

    /// Appends an authority record.
    pub fn authority(mut self, record: Record) -> Self {
        self.message.authorities.push(record);
        self
    }

    /// Appends an additional record.
    pub fn additional(mut self, record: Record) -> Self {
        self.message.additionals.push(record);
        self
    }

    /// Attaches an EDNS OPT record.
    pub fn edns(mut self, edns: Edns) -> Self {
        self.message.set_edns(edns);
        self
    }

    /// Finishes building, normalizing the section counts.
    pub fn build(mut self) -> Message {
        self.message.normalize_counts();
        self.message
    }
}

/// Encodes a message whose sections are lent rather than owned, into `out`
/// (replacing its contents, reusing its allocation): `header`, then
/// `questions`, then each answer record under the owner name paired with
/// it — its own, or the name asked for when a wildcard answers — then the
/// authority and additional records. The header's section counts are the
/// numbers written, whatever `header` says. [`Message::encode_into`] is
/// this with its own sections, so a responder writing from borrowed
/// records produces the bytes building the [`Message`] would.
///
/// # Errors
///
/// As [`Message::encode_into`]; `out` is left empty.
pub fn encode_sections<'r>(
    header: Header,
    questions: &[Question],
    answers: impl IntoIterator<Item = (&'r Name, &'r Record)>,
    authorities: impl IntoIterator<Item = &'r Record>,
    additionals: impl IntoIterator<Item = &'r Record>,
    out: &mut Vec<u8>,
) -> WireResult<()> {
    /// Writes each record under its owner and counts them.
    fn put_records<'r>(
        w: &mut WireWriter,
        records: impl IntoIterator<Item = (&'r Name, &'r Record)>,
    ) -> WireResult<usize> {
        let mut count = 0;
        for (owner, r) in records {
            r.encode_as(owner, w)?;
            count += 1;
        }
        Ok(count)
    }

    let own_name = |r: &'r Record| (&r.name, r);
    WireWriter::write_into(out, true, |w| {
        header.encode(w)?;
        for q in questions {
            q.encode(w)?;
        }
        // Written in this order: an array expression evaluates left to right.
        let counts = [
            questions.len(),
            put_records(w, answers)?,
            put_records(w, authorities.into_iter().map(own_name))?,
            put_records(w, additionals.into_iter().map(own_name))?,
        ];
        if w.len() > MAX_MESSAGE_SIZE {
            return Err(WireError::MessageTooLong(w.len()));
        }
        // The four counts close the header, from offset 4 on; a section
        // this large cannot have fitted the size check above.
        for (at, count) in (4..).step_by(2).zip(counts) {
            w.patch_u16(at, u16::try_from(count).unwrap_or(u16::MAX));
        }
        Ok(())
    })
}

/// Convenience helper: extracts address rdata of the requested family from a
/// response in answer order, ignoring other record types (e.g. CNAMEs).
pub fn addresses_of_type(message: &Message, rtype: RrType) -> Vec<IpAddr> {
    message
        .answers
        .iter()
        .filter(|r| r.rtype() == rtype)
        .filter_map(Record::ip_addr)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample_response() -> Message {
        let query = Message::query(7, "pool.ntp.org".parse().unwrap(), RrType::A);
        MessageBuilder::response_to(&query)
            .authoritative(true)
            .answer_address(300, IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1)))
            .answer_address(300, IpAddr::V4(Ipv4Addr::new(203, 0, 113, 2)))
            .answer_address(300, IpAddr::V4(Ipv4Addr::new(203, 0, 113, 3)))
            .build()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0xABCD, "dns.google".parse().unwrap(), RrType::Aaaa);
        let bytes = q.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded, {
            let mut q = q.clone();
            q.normalize_counts();
            q
        });
        assert_eq!(decoded.question().unwrap().rtype, RrType::Aaaa);
    }

    #[test]
    fn response_roundtrip_with_answers() {
        let resp = sample_response();
        let bytes = resp.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.answers.len(), 3);
        assert_eq!(decoded.answer_addresses().len(), 3);
        assert!(decoded.header.authoritative);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let resp = sample_response();
        let compressed = resp.encode().unwrap();
        // Manually compute uncompressed size: every answer carries the full name.
        let mut w = WireWriter::uncompressed();
        resp.header.encode(&mut w).unwrap();
        assert!(compressed.len() < 12 + 4 * resp.questions[0].name.wire_len() + 3 * 14);
    }

    #[test]
    fn answers_query_matching() {
        let query = Message::query(99, "x.example".parse().unwrap(), RrType::A);
        let mut resp = Message::response_to(&query);
        assert!(resp.answers_query(&query));
        resp.header.id = 100;
        assert!(!resp.answers_query(&query));
        resp.header.id = 99;
        resp.questions[0].name = "y.example".parse().unwrap();
        assert!(!resp.answers_query(&query));
    }

    #[test]
    fn error_response_has_rcode() {
        let query = Message::query(1, "x.example".parse().unwrap(), RrType::A);
        let resp = Message::error_response(&query, Rcode::NxDomain);
        assert_eq!(resp.header.rcode, Rcode::NxDomain);
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        assert!(resp.header.response);
    }

    #[test]
    fn edns_attach_and_extract() {
        let mut msg = Message::query(5, "e.example".parse().unwrap(), RrType::A);
        assert!(msg.edns().is_none());
        msg.set_edns(Edns::with_payload_size(4096));
        assert_eq!(msg.edns().unwrap().payload_size, 4096);
        // Setting again replaces instead of duplicating.
        msg.set_edns(Edns::with_payload_size(1232));
        assert_eq!(msg.additionals.len(), 1);
        let bytes = msg.encode().unwrap();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded.edns().unwrap().payload_size, 1232);
    }

    #[test]
    fn extended_rcode_combines() {
        let mut msg = Message::new();
        msg.header.rcode = Rcode::Unknown(0); // low bits 0
        let edns = Edns {
            extended_rcode: 1, // 1 << 4 = 16 => BADVERS
            ..Edns::default()
        };
        msg.set_edns(edns);
        assert_eq!(msg.rcode(), Rcode::Unknown(16));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let q = Message::query(3, "t.example".parse().unwrap(), RrType::A);
        let mut bytes = q.encode().unwrap();
        bytes.push(0xFF);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn decode_rejects_truncated_section() {
        let resp = sample_response();
        let bytes = resp.encode().unwrap();
        let truncated = &bytes[..bytes.len() - 3];
        assert!(Message::decode(truncated).is_err());
    }

    #[test]
    fn counts_normalized_on_encode() {
        let mut msg = Message::query(2, "c.example".parse().unwrap(), RrType::A);
        msg.add_answer(Record::address(
            "c.example".parse().unwrap(),
            60,
            IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1)),
        ));
        // header.answer_count is still 0 here; encode must fix it.
        assert_eq!(msg.header.answer_count, 0);
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(decoded.header.answer_count, 1);
        assert_eq!(decoded.answers.len(), 1);
    }

    /// A response touching every section, name compression against the
    /// question and against rdata, stale header counts and mixed case.
    fn golden_message() -> Message {
        let query = Message::query(0x1234, "Pool.NTP.org".parse().unwrap(), RrType::A);
        let mut msg = MessageBuilder::response_to(&query)
            .recursion_available(true)
            .answer_address(300, "203.0.113.1".parse().unwrap())
            .answer(Record::new(
                "pool.ntp.org".parse().unwrap(),
                60,
                crate::rdata::RData::Cname("a.pool.ntp.org".parse().unwrap()),
            ))
            .authority(Record::new(
                "ntp.org".parse().unwrap(),
                3600,
                crate::rdata::RData::Ns("ns1.NTP.org".parse().unwrap()),
            ))
            .additional(Record::address(
                "ns1.ntp.org".parse().unwrap(),
                3600,
                "2001:db8::53".parse().unwrap(),
            ))
            .edns(Edns::with_payload_size(1232))
            .build();
        msg.header.answer_count = 9; // encode must not trust the header
        msg
    }

    const GOLDEN_WIRE: &str = "\
        123481800001000200010002\
        04506f6f6c034e5450036f72670000010001\
        c00c000100010000012c0004cb007101\
        c00c000500010000003c00040161c00c\
        c011000200010000\
        0e100006036e7331c011\
        c04a001c000100000e10001020010db8000000000000000000000053\
        00002904d0000000000000";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn encode_matches_the_golden_vector() {
        let golden: String = GOLDEN_WIRE.split_whitespace().collect();
        assert_eq!(hex(&golden_message().encode().unwrap()), golden);
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_clears_it_on_error() {
        let msg = golden_message();
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(b"previous contents");
        let allocation = out.as_ptr();
        msg.encode_into(&mut out).unwrap();
        assert_eq!(out, msg.encode().unwrap());
        assert_eq!(out.as_ptr(), allocation, "no reallocation within capacity");
        assert_eq!(Message::decode(&out).unwrap().answers.len(), 2);

        let mut huge = Message::new();
        for i in 0..4096u32 {
            huge.add_answer(Record::address(
                "big.example".parse().unwrap(),
                60,
                IpAddr::from(i.to_be_bytes()),
            ));
        }
        assert!(matches!(
            huge.encode_into(&mut out),
            Err(WireError::MessageTooLong(_))
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn addresses_of_type_filters_family() {
        let query = Message::query(7, "d.example".parse().unwrap(), RrType::A);
        let resp = MessageBuilder::response_to(&query)
            .answer_address(60, "203.0.113.9".parse().unwrap())
            .answer_address(60, "2001:db8::9".parse().unwrap())
            .build();
        assert_eq!(addresses_of_type(&resp, RrType::A).len(), 1);
        assert_eq!(addresses_of_type(&resp, RrType::Aaaa).len(), 1);
        assert_eq!(resp.answer_addresses().len(), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let s = sample_response().to_string();
        assert!(s.contains("pool.ntp.org."));
        assert!(s.contains("203.0.113.1"));
    }

    #[test]
    fn builder_full_coverage() {
        let query = Message::query(11, "b.example".parse().unwrap(), RrType::A);
        let msg = MessageBuilder::response_to(&query)
            .rcode(Rcode::NoError)
            .recursion_available(true)
            .answer(Record::address(
                "b.example".parse().unwrap(),
                30,
                "192.0.2.8".parse().unwrap(),
            ))
            .authority(Record::new(
                "example".parse().unwrap(),
                30,
                crate::rdata::RData::Ns("ns.example".parse().unwrap()),
            ))
            .additional(Record::address(
                "ns.example".parse().unwrap(),
                30,
                "192.0.2.53".parse().unwrap(),
            ))
            .edns(Edns::default())
            .build();
        assert!(msg.header.recursion_available);
        assert_eq!(msg.answers.len(), 1);
        assert_eq!(msg.authorities.len(), 1);
        assert_eq!(msg.additionals.len(), 2); // additional + OPT
        let rt = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_eq!(rt.authorities[0].rtype(), RrType::Ns);
    }
}
