//! DNS wire format for the *Secure Consensus Generation with Distributed
//! DoH* reproduction.
//!
//! This crate implements the subset of the DNS protocol needed by the rest
//! of the system, entirely from scratch:
//!
//! * [`Name`] — domain names with RFC 1035 limits and case-insensitive
//!   comparison,
//! * [`Message`] — full messages with header, question/answer/authority/
//!   additional sections, name compression and EDNS(0),
//! * [`MessageView`] — a message validated where it lies and read without
//!   copying it; [`Message::decode`] is this view plus the owned copy,
//! * [`QueryView`] — a query read where it lies: what a server reads of
//!   it (header, question, EDNS payload size) lent from its octets, and
//!   its responses written from them,
//! * [`AnswerTemplate`] — an address answer section encoded once and
//!   rendered per query by copying it,
//! * [`RData`] — typed rdata for A, AAAA, NS, CNAME, PTR, MX, TXT, SOA, SRV
//!   and OPT records (everything else round-trips as raw bytes),
//! * [`base64url`] — the unpadded base64url codec required by the DoH GET
//!   method (RFC 8484).
//!
//! # Quick example
//!
//! ```
//! use sdoh_dns_wire::{Message, MessageBuilder, MessageView, QueryWire, RrType};
//!
//! # fn main() -> Result<(), sdoh_dns_wire::WireError> {
//! let query = QueryWire::new(0x1234, &"pool.ntp.org".parse()?, RrType::A)?;
//! let decoded = Message::decode(query.as_bytes())?;
//! assert_eq!(decoded.question().unwrap().name, "pool.ntp.org".parse()?);
//!
//! let response = MessageBuilder::response_to(&decoded)
//!     .authoritative(true)
//!     .answer_address(300, "203.0.113.1".parse().unwrap())
//!     .build();
//! assert_eq!(response.answer_addresses().len(), 1);
//!
//! // Who only reads the answer reads it where it lies: one validating
//! // walk, the addresses collected from the packet on the way.
//! let wire = response.encode()?;
//! let mut addresses = Vec::new();
//! let answer = MessageView::parse_addresses(&wire, RrType::A, &mut addresses)?;
//! assert!(answer.echoes(&query));
//! assert_eq!(addresses, response.answer_addresses());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod base64url;
mod edns;
mod error;
mod header;
mod message;
mod name;
mod query;
mod question;
mod rdata;
mod record;
mod rrtype;
mod template;
mod ttl;
mod view;
mod wire;

pub use edns::{Edns, DEFAULT_PAYLOAD_SIZE};
pub use error::{WireError, WireResult};
pub use header::{Header, Opcode, Rcode};
pub use message::{addresses_of_type, encode_sections, Message, MessageBuilder, MAX_MESSAGE_SIZE};
pub use name::{Name, NameKey, NameRef, MAX_LABEL_LEN, MAX_NAME_LEN};
pub use query::{QueryView, QuestionRef};
pub use question::{QueryWire, Question};
pub use rdata::{EdnsOption, Mx, OptRdata, RData, Soa, Srv};
pub use record::{Record, RecordView};
pub use rrtype::{RrClass, RrType};
pub use template::AnswerTemplate;
pub use ttl::Ttl;
pub use view::{MessageView, RecordViews};
pub use wire::{WireReader, WireWriter};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Name>();
        assert_send_sync::<Message>();
        assert_send_sync::<Record>();
        assert_send_sync::<RData>();
        assert_send_sync::<WireError>();
    }
}
