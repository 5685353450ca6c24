//! EDNS(0) support (RFC 6891): the OPT pseudo-record viewed as a typed
//! structure instead of a raw [`Record`].

use crate::name::Name;
use crate::rdata::{EdnsOption, OptRdata, RData};
use crate::record::Record;
use crate::rrtype::{RrClass, RrType};

/// Default advertised UDP payload size for EDNS-aware endpoints.
pub const DEFAULT_PAYLOAD_SIZE: u16 = 1232;

/// Typed view of an OPT pseudo-record.
///
/// In an OPT record the CLASS field carries the requestor's maximum UDP
/// payload size and the TTL field carries the extended rcode, EDNS version
/// and flags; this type unpacks those fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edns {
    /// Maximum UDP payload size the sender can reassemble.
    pub payload_size: u16,
    /// Upper eight bits of the extended response code.
    pub extended_rcode: u8,
    /// EDNS version (0 for EDNS(0)).
    pub version: u8,
    /// DNSSEC OK flag (DO bit).
    pub dnssec_ok: bool,
    /// EDNS options carried in the rdata.
    pub options: Vec<EdnsOption>,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            payload_size: DEFAULT_PAYLOAD_SIZE,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }
}

impl Edns {
    /// Creates a default EDNS(0) structure with the given payload size.
    pub fn with_payload_size(payload_size: u16) -> Self {
        Edns {
            payload_size,
            ..Edns::default()
        }
    }

    /// Adds an option, returning `self` for chaining.
    pub fn with_option(mut self, option: EdnsOption) -> Self {
        self.options.push(option);
        self
    }

    /// Converts this EDNS structure into an OPT [`Record`] suitable for the
    /// additional section.
    pub fn to_record(&self) -> Record {
        let ttl = (u32::from(self.extended_rcode) << 24)
            | (u32::from(self.version) << 16)
            | if self.dnssec_ok { 1 << 15 } else { 0 };
        Record {
            name: Name::root(),
            rclass: RrClass::Unknown(self.payload_size),
            ttl,
            rdata: RData::Opt(OptRdata {
                options: self.options.clone(),
            }),
        }
    }

    /// Extracts an EDNS structure from an OPT record, returning `None` when
    /// the record is not an OPT record.
    pub fn from_record(record: &Record) -> Option<Edns> {
        if record.rtype() != RrType::Opt {
            return None;
        }
        let options = match &record.rdata {
            RData::Opt(opt) => opt.options.clone(),
            _ => Vec::new(),
        };
        // The TTL field of an OPT record: extended RCODE, version, flags.
        let [extended_rcode, version, _, _] = record.ttl.to_be_bytes();
        Some(Edns {
            payload_size: record.rclass.code(),
            extended_rcode,
            version,
            dnssec_ok: record.ttl & (1 << 15) != 0,
            options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values() {
        let e = Edns::default();
        assert_eq!(e.payload_size, DEFAULT_PAYLOAD_SIZE);
        assert_eq!(e.version, 0);
        assert!(!e.dnssec_ok);
    }

    #[test]
    fn to_record_and_back() {
        let e = Edns {
            payload_size: 4096,
            extended_rcode: 1,
            version: 0,
            dnssec_ok: true,
            options: vec![EdnsOption::padding(8)],
        };
        let rec = e.to_record();
        assert_eq!(rec.rtype(), RrType::Opt);
        assert!(rec.name.is_root());
        let back = Edns::from_record(&rec).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn from_non_opt_record_is_none() {
        let rec = Record::new(
            "x.example".parse().unwrap(),
            60,
            RData::Txt(vec![b"not opt".to_vec()]),
        );
        assert!(Edns::from_record(&rec).is_none());
    }

    #[test]
    fn with_helpers_chain() {
        let e = Edns::with_payload_size(512).with_option(EdnsOption::new(10, vec![1]));
        assert_eq!(e.payload_size, 512);
        assert_eq!(e.options.len(), 1);
    }

    #[test]
    fn opt_record_wire_roundtrip() {
        use crate::wire::{WireReader, WireWriter};
        let e = Edns::with_payload_size(1400).with_option(EdnsOption::padding(12));
        let rec = e.to_record();
        let mut w = WireWriter::new();
        rec.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let decoded = Record::decode(&mut r).unwrap();
        let back = Edns::from_record(&decoded).unwrap();
        assert_eq!(back, e);
    }
}
