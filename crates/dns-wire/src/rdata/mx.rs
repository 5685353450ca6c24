//! MX (mail exchange) rdata.

use crate::error::WireResult;
use crate::name::Name;
use crate::wire::{WireReader, WireWriter};

/// MX rdata fields (RFC 1035 §3.3.9).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mx {
    /// Preference value (lower is preferred).
    pub preference: u16,
    /// Host name of the mail exchange.
    pub exchange: Name,
}

impl Mx {
    /// Creates an MX record.
    pub fn new(preference: u16, exchange: Name) -> Self {
        Mx {
            preference,
            exchange,
        }
    }

    /// Encodes MX rdata.
    pub fn encode(&self, w: &mut WireWriter) -> WireResult<()> {
        w.put_u16(self.preference);
        w.put_name(&self.exchange)
    }

    /// Decodes MX rdata, keeping the exchange name when `KEEP` (see
    /// [`RData`](super::RData)'s reader).
    ///
    /// # Errors
    ///
    /// Returns an error when the rdata is truncated.
    pub(crate) fn read<const KEEP: bool>(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(Mx {
            preference: r.read_u16()?,
            exchange: r.name::<KEEP>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mx = Mx::new(10, "mail.example.org".parse().unwrap());
        let mut w = WireWriter::new();
        mx.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Mx::read::<true>(&mut r).unwrap(), mx);
    }
}
