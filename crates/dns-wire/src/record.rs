//! Resource records: a name, type, class, TTL and rdata.

use std::fmt;
use std::net::IpAddr;

use crate::error::{WireError, WireResult};
use crate::name::Name;
use crate::rdata::RData;
use crate::rrtype::{RrClass, RrType};
use crate::wire::{Step, WireReader, WireWriter};

/// A DNS resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// Owner name of the record.
    pub name: Name,
    /// Class of the record. For OPT pseudo-records this field carries the
    /// requestor's UDP payload size instead.
    pub rclass: RrClass,
    /// Time to live in seconds. For OPT pseudo-records this field carries
    /// the extended rcode and flags instead.
    pub ttl: u32,
    /// Decoded record data.
    pub rdata: RData,
}

impl Record {
    /// Creates a record in the IN class.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            rclass: RrClass::In,
            ttl,
            rdata,
        }
    }

    /// Creates an address record (A or AAAA depending on the address family).
    pub fn address(name: Name, ttl: u32, addr: IpAddr) -> Self {
        Record::new(name, ttl, RData::from_ip(addr))
    }

    /// The record type, derived from the rdata.
    pub fn rtype(&self) -> RrType {
        self.rdata.rtype()
    }

    /// Returns the IP address carried by this record, if it is an address
    /// record.
    pub fn ip_addr(&self) -> Option<IpAddr> {
        self.rdata.ip_addr()
    }

    /// Encodes the record including the RDLENGTH field.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::RdataTooLong`] when the rdata exceeds 65535
    /// octets.
    pub fn encode(&self, w: &mut WireWriter) -> WireResult<()> {
        self.encode_as(&self.name, w)
    }

    /// [`Record::encode`] under `owner` instead of the record's own name:
    /// a zone's wildcard record answering for the name that was asked.
    ///
    /// # Errors
    ///
    /// As [`Record::encode`].
    pub fn encode_as(&self, owner: &Name, w: &mut WireWriter) -> WireResult<()> {
        w.put_name(owner)?;
        // TYPE, CLASS, TTL and RDLENGTH go down in one write: an A record's
        // whole tail, the pool's record, with its RDLENGTH known; any other
        // record's with a placeholder its rdata's length is patched into.
        let [t0, t1] = self.rtype().code().to_be_bytes();
        let [c0, c1] = self.rclass.code().to_be_bytes();
        let [l0, l1, l2, l3] = self.ttl.to_be_bytes();
        if let RData::A(a) = &self.rdata {
            let [r0, r1, r2, r3] = a.octets();
            w.put_slice(&[t0, t1, c0, c1, l0, l1, l2, l3, 0, 4, r0, r1, r2, r3]);
            return Ok(());
        }
        w.put_slice(&[t0, t1, c0, c1, l0, l1, l2, l3, 0, 0]);
        let rdata_start = w.len();
        self.rdata.encode(w)?;
        let rdata_len = w.len() - rdata_start;
        let encoded_len =
            u16::try_from(rdata_len).map_err(|_| WireError::RdataTooLong(rdata_len))?;
        w.patch_u16(rdata_start - 2, encoded_len);
        Ok(())
    }

    /// Decodes one record from the reader.
    ///
    /// # Errors
    ///
    /// Returns an error when the record is truncated or its rdata is
    /// malformed.
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let name = r.read_name()?;
        let fixed = Fixed::read(r)?;
        let rdata = RData::read::<true>(r, fixed.rtype, fixed.rdlength)?;
        Ok(Record {
            name,
            rclass: fixed.rclass,
            ttl: fixed.ttl,
            rdata,
        })
    }

    /// The checks of [`Record::decode`] without building the record: what
    /// the validating walk of a [`MessageView`](crate::MessageView) does
    /// per record. The owner name is walked into nothing and the rdata
    /// checked by the one match over types that decodes it, which hands
    /// nothing back. The record checked is lent back where it lies.
    pub(crate) fn skip<'a>(r: &mut WireReader<'a>) -> WireResult<RecordView<'a>> {
        r.walk_name(&mut ())?;
        let fixed = Fixed::read(r)?;
        // `Fixed::read` checked that the rdata is there.
        let rdata = r.clone().read_bytes(fixed.rdlength)?;
        RData::read::<false>(r, fixed.rtype, fixed.rdlength)?;
        Ok(RecordView {
            rtype: fixed.rtype,
            rclass: fixed.rclass,
            ttl: fixed.ttl,
            rdata,
        })
    }
}

/// The fields between a record's owner name and its rdata.
struct Fixed {
    rtype: RrType,
    rclass: RrClass,
    ttl: u32,
    rdlength: usize,
}

impl Fixed {
    /// Reads them and checks that the rdata they announce is there; the
    /// cursor is left on the rdata. Always inlined: returned through a
    /// `Result` out of line, the struct cost a decoded record a tenth of
    /// its time.
    #[inline(always)]
    fn read(r: &mut WireReader<'_>) -> WireResult<Self> {
        let fixed = Fixed {
            rtype: RrType::from(r.read_u16()?),
            rclass: RrClass::from(r.read_u16()?),
            ttl: r.read_u32()?,
            rdlength: usize::from(r.read_u16()?),
        };
        if r.remaining() < fixed.rdlength {
            return Err(WireError::UnexpectedEof { expected: "rdata" });
        }
        Ok(fixed)
    }
}

/// A record where it lies in a [`MessageView`](crate::MessageView)'s
/// packet: its type, class and TTL, and its rdata's octets. The owner name
/// is not read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Type of the record.
    pub rtype: RrType,
    /// Class of the record (the payload size for OPT).
    pub rclass: RrClass,
    /// Time to live in seconds (the extended rcode and flags for OPT).
    pub ttl: u32,
    /// The rdata octets, RDLENGTH of them.
    pub rdata: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Steps over the record at the cursor of a packet already validated
    /// (or written by this end): the owner name up to its first pointer,
    /// the fields, RDLENGTH octets of rdata.
    pub(crate) fn read(r: &mut WireReader<'a>) -> WireResult<Self> {
        r.walk_name(&mut Step)?;
        let fixed = Fixed::read(r)?;
        Ok(RecordView {
            rtype: fixed.rtype,
            rclass: fixed.rclass,
            ttl: fixed.ttl,
            rdata: r.read_bytes(fixed.rdlength)?,
        })
    }

    /// The address an A or AAAA record carries, as [`Record::ip_addr`]
    /// reads it from the decoded record.
    pub fn ip_addr(&self) -> Option<IpAddr> {
        match self.rtype {
            RrType::A => <[u8; 4]>::try_from(self.rdata).ok().map(IpAddr::from),
            RrType::Aaaa => <[u8; 16]>::try_from(self.rdata).ok().map(IpAddr::from),
            _ => None,
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name,
            self.ttl,
            self.rclass,
            self.rtype(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn roundtrip(rec: &Record) -> Record {
        let mut w = WireWriter::new();
        rec.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let decoded = Record::decode(&mut r).unwrap();
        assert!(r.is_at_end());
        decoded
    }

    #[test]
    fn a_record_roundtrip() {
        let rec = Record::new(
            "a.pool.ntp.org".parse().unwrap(),
            3600,
            RData::A(Ipv4Addr::new(203, 0, 113, 7)),
        );
        assert_eq!(roundtrip(&rec), rec);
        assert_eq!(rec.rtype(), RrType::A);
        assert_eq!(
            rec.ip_addr(),
            Some(IpAddr::V4(Ipv4Addr::new(203, 0, 113, 7)))
        );
    }

    #[test]
    fn aaaa_record_via_address_ctor() {
        let addr: Ipv6Addr = "2001:db8::42".parse().unwrap();
        let rec = Record::address("b.pool.ntp.org".parse().unwrap(), 60, IpAddr::V6(addr));
        assert_eq!(rec.rtype(), RrType::Aaaa);
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn ns_record_roundtrip_with_compression_context() {
        let rec = Record::new(
            "ntpns.org".parse().unwrap(),
            86400,
            RData::Ns("c.ntpns.org".parse().unwrap()),
        );
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn display_contains_all_fields() {
        let rec = Record::new(
            "x.example".parse().unwrap(),
            300,
            RData::A(Ipv4Addr::LOCALHOST),
        );
        let s = rec.to_string();
        assert!(s.contains("x.example."));
        assert!(s.contains("300"));
        assert!(s.contains("A"));
        assert!(s.contains("127.0.0.1"));
    }

    #[test]
    fn rdlength_declared_larger_than_remaining_fails() {
        let rec = Record::new(
            "x.example".parse().unwrap(),
            300,
            RData::A(Ipv4Addr::LOCALHOST),
        );
        let mut w = WireWriter::new();
        rec.encode(&mut w).unwrap();
        let mut bytes = w.finish();
        let len = bytes.len();
        bytes.truncate(len - 2); // chop off part of the rdata
        let mut r = WireReader::new(&bytes);
        assert!(Record::decode(&mut r).is_err());
    }

    #[test]
    fn txt_record_roundtrip() {
        let rec = Record::new(
            "info.example".parse().unwrap(),
            120,
            RData::Txt(vec![b"secure pool generation".to_vec()]),
        );
        assert_eq!(roundtrip(&rec), rec);
    }
}
