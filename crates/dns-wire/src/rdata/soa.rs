//! SOA (start of authority) rdata.

use crate::error::WireResult;
use crate::name::Name;
use crate::wire::{WireReader, WireWriter};

/// SOA rdata fields (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Soa {
    /// Primary name server for the zone.
    pub mname: Name,
    /// Mailbox of the person responsible for the zone.
    pub rname: Name,
    /// Version number of the zone.
    pub serial: u32,
    /// Refresh interval in seconds.
    pub refresh: u32,
    /// Retry interval in seconds.
    pub retry: u32,
    /// Expiry limit in seconds.
    pub expire: u32,
    /// Minimum TTL / negative-caching TTL (RFC 2308).
    pub minimum: u32,
}

impl Soa {
    /// Creates an SOA record with sensible defaults for a simulated zone.
    pub fn new(mname: Name, rname: Name, serial: u32) -> Self {
        Soa {
            mname,
            rname,
            serial,
            refresh: 7200,
            retry: 900,
            expire: 1_209_600,
            minimum: 300,
        }
    }

    /// Encodes SOA rdata. Name compression is permitted in SOA rdata.
    pub fn encode(&self, w: &mut WireWriter) -> WireResult<()> {
        w.put_name(&self.mname)?;
        w.put_name(&self.rname)?;
        w.put_u32(self.serial);
        w.put_u32(self.refresh);
        w.put_u32(self.retry);
        w.put_u32(self.expire);
        w.put_u32(self.minimum);
        Ok(())
    }

    /// Decodes SOA rdata, keeping the two names when `KEEP` (see
    /// [`RData`](super::RData)'s reader).
    ///
    /// # Errors
    ///
    /// Returns an error when the rdata is truncated.
    pub(crate) fn read<const KEEP: bool>(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Soa {
            mname: r.name::<KEEP>()?,
            rname: r.name::<KEEP>()?,
            serial: r.read_u32()?,
            refresh: r.read_u32()?,
            retry: r.read_u32()?,
            expire: r.read_u32()?,
            minimum: r.read_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let soa = Soa::new(
            "ns1.ntpns.org".parse().unwrap(),
            "hostmaster.ntpns.org".parse().unwrap(),
            20_240_101,
        );
        let mut w = WireWriter::new();
        soa.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Soa::read::<true>(&mut r).unwrap(), soa);
    }

    #[test]
    fn truncated_fails() {
        let mut r = WireReader::new(&[0, 0]);
        assert!(Soa::read::<true>(&mut r).is_err());
    }

    #[test]
    fn defaults_are_reasonable() {
        let soa = Soa::new(Name::root(), Name::root(), 1);
        assert!(soa.minimum > 0);
        assert!(soa.expire > soa.refresh);
    }
}
