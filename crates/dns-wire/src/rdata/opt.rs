//! EDNS(0) OPT pseudo-record rdata: a list of options (RFC 6891).

use crate::error::{WireError, WireResult};
use crate::wire::{WireReader, WireWriter};

/// A single EDNS option (code, value) pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdnsOption {
    /// Option code (e.g. 10 for COOKIE, 8 for client subnet).
    pub code: u16,
    /// Raw option value.
    pub value: Vec<u8>,
}

impl EdnsOption {
    /// Option code for DNS cookies (RFC 7873).
    pub const COOKIE: u16 = 10;
    /// Option code for the EDNS padding option (RFC 7830), relevant to DoH
    /// privacy.
    pub const PADDING: u16 = 12;

    /// Creates an option from a code and raw value.
    pub fn new(code: u16, value: Vec<u8>) -> Self {
        EdnsOption { code, value }
    }

    /// Creates a padding option with `len` zero octets (RFC 7830 / RFC 8467).
    pub fn padding(len: usize) -> Self {
        EdnsOption {
            code: Self::PADDING,
            value: vec![0u8; len],
        }
    }
}

/// Rdata of an OPT record: a sequence of EDNS options.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct OptRdata {
    /// Options carried in the record.
    pub options: Vec<EdnsOption>,
}

impl OptRdata {
    /// Creates empty OPT rdata.
    pub fn new() -> Self {
        OptRdata::default()
    }

    /// Encodes the options.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::RdataTooLong`] when an option value exceeds
    /// 65535 octets.
    pub fn encode(&self, w: &mut WireWriter) -> WireResult<()> {
        for opt in &self.options {
            let olen = u16::try_from(opt.value.len())
                .map_err(|_| WireError::RdataTooLong(opt.value.len()))?;
            w.put_u16(opt.code);
            w.put_u16(olen);
            w.put_slice(&opt.value);
        }
        Ok(())
    }

    /// Decodes options from exactly `len` octets, keeping them when `KEEP`
    /// (see [`RData`](super::RData)'s reader).
    ///
    /// # Errors
    ///
    /// Returns an error when an option overruns the declared rdata length.
    pub(crate) fn read<const KEEP: bool>(r: &mut WireReader<'_>, len: usize) -> WireResult<Self> {
        let end = r.position() + len;
        let mut options = Vec::new();
        while r.position() < end {
            if end - r.position() < 4 {
                return Err(WireError::InvalidOpt("truncated option header"));
            }
            let code = r.read_u16()?;
            let olen = usize::from(r.read_u16()?);
            if r.position() + olen > end {
                return Err(WireError::InvalidOpt("option value overruns rdata"));
            }
            let value = r.read_bytes(olen)?;
            if KEEP {
                options.push(EdnsOption {
                    code,
                    value: value.to_vec(),
                });
            }
        }
        Ok(OptRdata { options })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        let opt = OptRdata::new();
        let mut w = WireWriter::new();
        opt.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(OptRdata::read::<true>(&mut r, bytes.len()).unwrap(), opt);
    }

    #[test]
    fn roundtrip_options() {
        let opt = OptRdata {
            options: vec![
                EdnsOption::new(EdnsOption::COOKIE, vec![1, 2, 3, 4, 5, 6, 7, 8]),
                EdnsOption::padding(16),
            ],
        };
        let mut w = WireWriter::new();
        opt.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let decoded = OptRdata::read::<true>(&mut r, bytes.len()).unwrap();
        assert_eq!(decoded, opt);
        assert_eq!(decoded.options[1].value.len(), 16);
    }

    #[test]
    fn truncated_option_rejected() {
        let bytes = [0u8, 10, 0]; // 3 bytes: not even a full option header
        let mut r = WireReader::new(&bytes);
        assert!(OptRdata::read::<true>(&mut r, 3).is_err());
    }

    #[test]
    fn overrunning_option_rejected() {
        // code=0, len=10 but only 2 bytes of value inside declared rdata
        let bytes = [0u8, 0, 0, 10, 1, 2];
        let mut r = WireReader::new(&bytes);
        assert!(OptRdata::read::<true>(&mut r, 6).is_err());
    }
}
