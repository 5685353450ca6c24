//! Resource-record data (RDATA) representations.
//!
//! The [`RData`] enum carries the decoded form for the record types the
//! system needs; unrecognised types round-trip as raw octets.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::error::{WireError, WireResult};
use crate::name::Name;
use crate::rrtype::RrType;
use crate::wire::{WireReader, WireWriter};

mod mx;
mod opt;
mod soa;
mod srv;

pub use mx::Mx;
pub use opt::{EdnsOption, OptRdata};
pub use soa::Soa;
pub use srv::Srv;

/// Decoded resource-record data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address (A record).
    A(Ipv4Addr),
    /// IPv6 address (AAAA record).
    Aaaa(Ipv6Addr),
    /// Authoritative name server (NS record).
    Ns(Name),
    /// Canonical name / alias (CNAME record).
    Cname(Name),
    /// Domain-name pointer (PTR record).
    Ptr(Name),
    /// Mail exchange (MX record).
    Mx(Mx),
    /// Text strings (TXT record).
    Txt(Vec<Vec<u8>>),
    /// Start of authority (SOA record).
    Soa(Soa),
    /// Service locator (SRV record).
    Srv(Srv),
    /// EDNS(0) options (OPT pseudo-record).
    Opt(OptRdata),
    /// A record type without a decoded representation.
    Unknown {
        /// Type code the data belongs to.
        rtype: u16,
        /// Raw rdata octets.
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type this rdata belongs to.
    pub fn rtype(&self) -> RrType {
        match self {
            RData::A(_) => RrType::A,
            RData::Aaaa(_) => RrType::Aaaa,
            RData::Ns(_) => RrType::Ns,
            RData::Cname(_) => RrType::Cname,
            RData::Ptr(_) => RrType::Ptr,
            RData::Mx(_) => RrType::Mx,
            RData::Txt(_) => RrType::Txt,
            RData::Soa(_) => RrType::Soa,
            RData::Srv(_) => RrType::Srv,
            RData::Opt(_) => RrType::Opt,
            RData::Unknown { rtype, .. } => RrType::from(*rtype),
        }
    }

    /// Returns the carried IP address when this is an A or AAAA record.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdoh_dns_wire::RData;
    /// use std::net::{IpAddr, Ipv4Addr};
    ///
    /// let rdata = RData::A(Ipv4Addr::new(192, 0, 2, 1));
    /// assert_eq!(rdata.ip_addr(), Some(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1))));
    /// ```
    pub fn ip_addr(&self) -> Option<IpAddr> {
        match self {
            RData::A(a) => Some(IpAddr::V4(*a)),
            RData::Aaaa(a) => Some(IpAddr::V6(*a)),
            _ => None,
        }
    }

    /// Builds address rdata of the appropriate type from an [`IpAddr`].
    pub fn from_ip(addr: IpAddr) -> RData {
        match addr {
            IpAddr::V4(a) => RData::A(a),
            IpAddr::V6(a) => RData::Aaaa(a),
        }
    }

    /// Returns the target name for alias/delegation types (NS, CNAME, PTR,
    /// MX exchange, SRV target).
    pub fn target_name(&self) -> Option<&Name> {
        match self {
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => Some(n),
            RData::Mx(mx) => Some(&mx.exchange),
            RData::Srv(srv) => Some(&srv.target),
            _ => None,
        }
    }

    /// Encodes this rdata (without the RDLENGTH prefix).
    ///
    /// # Errors
    ///
    /// Returns an error if embedded names or strings exceed wire limits.
    pub fn encode(&self, w: &mut WireWriter) -> WireResult<()> {
        match self {
            RData::A(a) => {
                w.put_slice(&a.octets());
                Ok(())
            }
            RData::Aaaa(a) => {
                w.put_slice(&a.octets());
                Ok(())
            }
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => w.put_name(n),
            RData::Mx(mx) => mx.encode(w),
            RData::Txt(strings) => {
                for s in strings {
                    w.put_character_string(s)?;
                }
                Ok(())
            }
            RData::Soa(soa) => soa.encode(w),
            RData::Srv(srv) => srv.encode(w),
            RData::Opt(opt) => opt.encode(w),
            RData::Unknown { data, .. } => {
                if data.len() > usize::from(u16::MAX) {
                    return Err(WireError::RdataTooLong(data.len()));
                }
                w.put_slice(data);
                Ok(())
            }
        }
    }

    /// Decodes rdata of the given type from exactly `len` octets: kept when
    /// `KEEP`, otherwise checked just as strictly and let go — names,
    /// strings, options and raw octets stepped over, nothing copied, and
    /// no `RData` built to be dropped ([`Keeps`]) — so a message is
    /// validated by this one match over types without allocating.
    ///
    /// # Errors
    ///
    /// Returns an error when the declared length does not match the content
    /// or the content is malformed.
    #[inline]
    pub(crate) fn read<const KEEP: bool>(
        r: &mut WireReader<'_>,
        rtype: RrType,
        len: usize,
    ) -> WireResult<<Kept<KEEP> as Keeps>::Out>
    where
        Kept<KEEP>: Keeps,
    {
        let start = r.position();
        let rdata = match rtype {
            RrType::A => {
                let &[a, b, c, d] = r.read_bytes(4)? else {
                    return Err(WireError::UnexpectedEof {
                        expected: "A rdata",
                    });
                };
                Kept::<KEEP>::keep(|| RData::A(Ipv4Addr::new(a, b, c, d)))
            }
            RrType::Aaaa => {
                let bytes = r.read_bytes(16)?;
                Kept::<KEEP>::keep(|| {
                    let mut octets = [0u8; 16];
                    octets.copy_from_slice(bytes);
                    RData::Aaaa(Ipv6Addr::from(octets))
                })
            }
            RrType::Ns => {
                let name = r.name::<KEEP>()?;
                Kept::<KEEP>::keep(|| RData::Ns(name))
            }
            RrType::Cname => {
                let name = r.name::<KEEP>()?;
                Kept::<KEEP>::keep(|| RData::Cname(name))
            }
            RrType::Ptr => {
                let name = r.name::<KEEP>()?;
                Kept::<KEEP>::keep(|| RData::Ptr(name))
            }
            RrType::Mx => {
                let mx = Mx::read::<KEEP>(r)?;
                Kept::<KEEP>::keep(|| RData::Mx(mx))
            }
            RrType::Txt => {
                let end = start + len;
                let mut strings = Vec::new();
                while r.position() < end {
                    let string_len = usize::from(r.read_u8()?);
                    let string = r.read_bytes(string_len)?;
                    if KEEP {
                        strings.push(string.to_vec());
                    }
                }
                Kept::<KEEP>::keep(|| RData::Txt(strings))
            }
            RrType::Soa => {
                let soa = Soa::read::<KEEP>(r)?;
                Kept::<KEEP>::keep(|| RData::Soa(soa))
            }
            RrType::Srv => {
                let srv = Srv::read::<KEEP>(r)?;
                Kept::<KEEP>::keep(|| RData::Srv(srv))
            }
            RrType::Opt => {
                let opt = OptRdata::read::<KEEP>(r, len)?;
                Kept::<KEEP>::keep(|| RData::Opt(opt))
            }
            other => {
                let data = r.read_bytes(len)?;
                Kept::<KEEP>::keep(|| RData::Unknown {
                    rtype: other.code(),
                    data: data.to_vec(),
                })
            }
        };
        let consumed = r.position() - start;
        if consumed != len {
            return Err(WireError::RdataLengthMismatch {
                declared: len,
                consumed,
            });
        }
        Ok(rdata)
    }
}

/// The walk over rdata that keeps (`Kept<true>`) or only checks
/// (`Kept<false>`) what it reads; see [`Keeps`].
pub(crate) struct Kept<const KEEP: bool>;

/// What [`RData::read`] hands back: the decoded [`RData`] when it keeps,
/// nothing when it only checks. Each arm of its match names the rdata it
/// would build, and the checking walk never builds it.
pub(crate) trait Keeps {
    /// `RData`, or `()`.
    type Out;

    /// The rdata `make` builds, or nothing without calling it.
    fn keep(make: impl FnOnce() -> RData) -> Self::Out;
}

impl Keeps for Kept<true> {
    type Out = RData;

    #[inline(always)]
    fn keep(make: impl FnOnce() -> RData) -> RData {
        make()
    }
}

impl Keeps for Kept<false> {
    type Out = ();

    #[inline(always)]
    fn keep(_: impl FnOnce() -> RData) {}
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => write!(f, "{n}"),
            RData::Mx(mx) => write!(f, "{} {}", mx.preference, mx.exchange),
            RData::Txt(strings) => {
                for (i, s) in strings.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "\"{}\"", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RData::Soa(soa) => write!(
                f,
                "{} {} {} {} {} {} {}",
                soa.mname, soa.rname, soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum
            ),
            RData::Srv(srv) => write!(
                f,
                "{} {} {} {}",
                srv.priority, srv.weight, srv.port, srv.target
            ),
            RData::Opt(opt) => write!(f, "OPT({} options)", opt.options.len()),
            RData::Unknown { rtype, data } => write!(f, "\\# TYPE{} {} octets", rtype, data.len()),
        }
    }
}

impl From<Ipv4Addr> for RData {
    fn from(a: Ipv4Addr) -> Self {
        RData::A(a)
    }
}

impl From<Ipv6Addr> for RData {
    fn from(a: Ipv6Addr) -> Self {
        RData::Aaaa(a)
    }
}

impl From<IpAddr> for RData {
    fn from(a: IpAddr) -> Self {
        RData::from_ip(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rdata: &RData) -> RData {
        let mut w = WireWriter::uncompressed();
        rdata.encode(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let decoded = RData::read::<true>(&mut r, rdata.rtype(), bytes.len()).unwrap();
        // What is checked does not depend on what is kept.
        let mut skip = WireReader::new(&bytes);
        RData::read::<false>(&mut skip, rdata.rtype(), bytes.len()).unwrap();
        assert_eq!(skip.position(), r.position());
        decoded
    }

    #[test]
    fn a_roundtrip() {
        let rd = RData::A(Ipv4Addr::new(192, 0, 2, 53));
        assert_eq!(roundtrip(&rd), rd);
        assert_eq!(rd.rtype(), RrType::A);
        assert_eq!(rd.to_string(), "192.0.2.53");
    }

    #[test]
    fn aaaa_roundtrip() {
        let rd = RData::Aaaa("2001:db8::1".parse().unwrap());
        assert_eq!(roundtrip(&rd), rd);
        assert_eq!(rd.rtype(), RrType::Aaaa);
    }

    #[test]
    fn name_types_roundtrip() {
        for rd in [
            RData::Ns("ns1.example.org".parse().unwrap()),
            RData::Cname("alias.example.org".parse().unwrap()),
            RData::Ptr("host.example.org".parse().unwrap()),
        ] {
            assert_eq!(roundtrip(&rd), rd);
            assert!(rd.target_name().is_some());
        }
    }

    #[test]
    fn mx_srv_soa_roundtrip() {
        let mx = RData::Mx(Mx::new(5, "mx.example.org".parse().unwrap()));
        let srv = RData::Srv(Srv::new(1, 2, 443, "svc.example.org".parse().unwrap()));
        let soa = RData::Soa(Soa::new(
            "ns.example.org".parse().unwrap(),
            "admin.example.org".parse().unwrap(),
            7,
        ));
        for rd in [mx, srv, soa] {
            assert_eq!(roundtrip(&rd), rd);
        }
    }

    #[test]
    fn txt_roundtrip_multi_string() {
        let rd = RData::Txt(vec![b"hello".to_vec(), b"world".to_vec()]);
        assert_eq!(roundtrip(&rd), rd);
        assert_eq!(rd.to_string(), "\"hello\" \"world\"");
    }

    #[test]
    fn txt_empty_roundtrip() {
        let rd = RData::Txt(vec![]);
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn opt_roundtrip() {
        let rd = RData::Opt(OptRdata {
            options: vec![EdnsOption::new(10, vec![9, 9, 9])],
        });
        assert_eq!(roundtrip(&rd), rd);
    }

    #[test]
    fn unknown_roundtrip() {
        let rd = RData::Unknown {
            rtype: 999,
            data: vec![1, 2, 3, 4],
        };
        assert_eq!(roundtrip(&rd), rd);
        assert_eq!(rd.rtype(), RrType::Unknown(999));
    }

    #[test]
    fn ip_addr_helpers() {
        let v4 = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
        let v6 = IpAddr::V6("2001:db8::2".parse().unwrap());
        assert_eq!(RData::from_ip(v4).ip_addr(), Some(v4));
        assert_eq!(RData::from_ip(v6).ip_addr(), Some(v6));
        assert_eq!(RData::Txt(vec![]).ip_addr(), None);
        assert_eq!(RData::from(v4).rtype(), RrType::A);
    }

    #[test]
    fn length_mismatch_detected() {
        // Declare 5 bytes for an A record (needs exactly 4 consumed).
        let bytes = [192, 0, 2, 1, 99];
        let mut r = WireReader::new(&bytes);
        let result = RData::read::<true>(&mut r, RrType::A, 5);
        assert!(matches!(
            result,
            Err(WireError::RdataLengthMismatch {
                declared: 5,
                consumed: 4
            })
        ));
    }

    #[test]
    fn a_record_too_short_fails() {
        let bytes = [192, 0, 2];
        let mut r = WireReader::new(&bytes);
        assert!(RData::read::<true>(&mut r, RrType::A, 3).is_err());
    }
}
