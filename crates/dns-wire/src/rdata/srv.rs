//! SRV (service locator) rdata.

use crate::error::{WireError, WireResult};
use crate::name::Name;
use crate::wire::{WireReader, WireWriter};

/// SRV rdata fields (RFC 2782).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Srv {
    /// Priority of this target (lower is preferred).
    pub priority: u16,
    /// Relative weight for targets with the same priority.
    pub weight: u16,
    /// Port on which the service is provided.
    pub port: u16,
    /// Host name of the target.
    pub target: Name,
}

impl Srv {
    /// Creates an SRV record.
    pub fn new(priority: u16, weight: u16, port: u16, target: Name) -> Self {
        Srv {
            priority,
            weight,
            port,
            target,
        }
    }

    /// Encodes SRV rdata. RFC 2782 forbids compressing the target name.
    pub fn encode(&self, w: &mut WireWriter) -> WireResult<()> {
        w.put_u16(self.priority);
        w.put_u16(self.weight);
        w.put_u16(self.port);
        // Emit the target without compression by writing labels manually.
        for label in self.target.labels() {
            let len =
                u8::try_from(label.len()).map_err(|_| WireError::LabelTooLong(label.len()))?;
            w.put_u8(len);
            w.put_slice(label);
        }
        w.put_u8(0);
        Ok(())
    }

    /// Decodes SRV rdata, keeping the target name when `KEEP` (see
    /// [`RData`](super::RData)'s reader).
    ///
    /// # Errors
    ///
    /// Returns an error when the rdata is truncated.
    pub(crate) fn read<const KEEP: bool>(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Srv {
            priority: r.read_u16()?,
            weight: r.read_u16()?,
            port: r.read_u16()?,
            target: r.name::<KEEP>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let srv = Srv::new(10, 60, 443, "doh.resolver.example".parse().unwrap());
        let mut w = WireWriter::new();
        srv.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Srv::read::<true>(&mut r).unwrap(), srv);
    }

    #[test]
    fn target_is_not_compressed() {
        let srv = Srv::new(0, 0, 853, "a.example.org".parse().unwrap());
        let mut w = WireWriter::new();
        // Pre-populate the compression map with the same suffix.
        w.put_name(&"example.org".parse().unwrap()).unwrap();
        let before = w.len();
        srv.encode(&mut w).unwrap();
        let encoded_len = w.len() - before;
        // 6 fixed octets + uncompressed name (15 octets).
        assert_eq!(encoded_len, 6 + srv.target.wire_len());
    }
}
