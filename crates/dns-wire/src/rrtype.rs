//! Resource-record TYPE and CLASS code points.

use std::fmt;

/// DNS resource-record type (RFC 1035 §3.2.2 and later assignments).
///
/// Only the types needed by the secure pool generation system and its
/// substrates are given named variants; everything else round-trips through
/// [`RrType::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RrType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of a zone of authority.
    Soa,
    /// Domain name pointer.
    Ptr,
    /// Mail exchange.
    Mx,
    /// Text strings.
    Txt,
    /// IPv6 host address.
    Aaaa,
    /// Service locator.
    Srv,
    /// EDNS(0) option pseudo-record.
    Opt,
    /// Any type (query meta-type `*`).
    Any,
    /// A type code without a named variant.
    Unknown(u16),
}

impl RrType {
    /// Numeric code point for this type.
    pub fn code(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Soa => 6,
            RrType::Ptr => 12,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Srv => 33,
            RrType::Opt => 41,
            RrType::Any => 255,
            RrType::Unknown(c) => c,
        }
    }

    /// Returns `true` for address types (A and AAAA), the only types relevant
    /// for server-pool generation (paper §II: "it does only support address
    /// lookups").
    pub fn is_address(self) -> bool {
        matches!(self, RrType::A | RrType::Aaaa)
    }
}

impl From<u16> for RrType {
    fn from(code: u16) -> Self {
        match code {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            6 => RrType::Soa,
            12 => RrType::Ptr,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            33 => RrType::Srv,
            41 => RrType::Opt,
            255 => RrType::Any,
            other => RrType::Unknown(other),
        }
    }
}

impl From<RrType> for u16 {
    fn from(t: RrType) -> Self {
        t.code()
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.type_name())
    }
}

impl RrType {
    fn type_name(&self) -> String {
        match self {
            RrType::A => "A".to_string(),
            RrType::Ns => "NS".to_string(),
            RrType::Cname => "CNAME".to_string(),
            RrType::Soa => "SOA".to_string(),
            RrType::Ptr => "PTR".to_string(),
            RrType::Mx => "MX".to_string(),
            RrType::Txt => "TXT".to_string(),
            RrType::Aaaa => "AAAA".to_string(),
            RrType::Srv => "SRV".to_string(),
            RrType::Opt => "OPT".to_string(),
            RrType::Any => "ANY".to_string(),
            RrType::Unknown(c) => format!("TYPE{c}"),
        }
    }

    /// Parses the presentation-format mnemonic (e.g. `"AAAA"` or `"TYPE99"`).
    pub fn from_mnemonic(s: &str) -> Option<RrType> {
        let upper = s.to_ascii_uppercase();
        Some(match upper.as_str() {
            "A" => RrType::A,
            "NS" => RrType::Ns,
            "CNAME" => RrType::Cname,
            "SOA" => RrType::Soa,
            "PTR" => RrType::Ptr,
            "MX" => RrType::Mx,
            "TXT" => RrType::Txt,
            "AAAA" => RrType::Aaaa,
            "SRV" => RrType::Srv,
            "OPT" => RrType::Opt,
            "ANY" | "*" => RrType::Any,
            other => {
                let code = other.strip_prefix("TYPE")?.parse::<u16>().ok()?;
                RrType::from(code)
            }
        })
    }
}

/// DNS CLASS code points (RFC 1035 §3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum RrClass {
    /// The Internet class; effectively the only class in use.
    #[default]
    In,
    /// The CHAOS class, used for server identification queries.
    Ch,
    /// The Hesiod class.
    Hs,
    /// Query class NONE (RFC 2136).
    None,
    /// Query class ANY.
    Any,
    /// A class code without a named variant (including EDNS payload sizes
    /// carried in the CLASS field of OPT records).
    Unknown(u16),
}

impl RrClass {
    /// Numeric code point for this class.
    pub fn code(self) -> u16 {
        match self {
            RrClass::In => 1,
            RrClass::Ch => 3,
            RrClass::Hs => 4,
            RrClass::None => 254,
            RrClass::Any => 255,
            RrClass::Unknown(c) => c,
        }
    }
}

impl From<u16> for RrClass {
    fn from(code: u16) -> Self {
        match code {
            1 => RrClass::In,
            3 => RrClass::Ch,
            4 => RrClass::Hs,
            254 => RrClass::None,
            255 => RrClass::Any,
            other => RrClass::Unknown(other),
        }
    }
}

impl From<RrClass> for u16 {
    fn from(c: RrClass) -> Self {
        c.code()
    }
}

impl fmt::Display for RrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrClass::In => write!(f, "IN"),
            RrClass::Ch => write!(f, "CH"),
            RrClass::Hs => write!(f, "HS"),
            RrClass::None => write!(f, "NONE"),
            RrClass::Any => write!(f, "ANY"),
            RrClass::Unknown(c) => write!(f, "CLASS{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rrtype_code_roundtrip() {
        for code in [1u16, 2, 5, 6, 12, 15, 16, 28, 33, 41, 255, 999] {
            let t = RrType::from(code);
            assert_eq!(t.code(), code);
            assert_eq!(u16::from(t), code);
        }
    }

    #[test]
    fn rrtype_unknown_is_preserved() {
        assert_eq!(RrType::from(4242), RrType::Unknown(4242));
    }

    #[test]
    fn rrtype_display_and_mnemonic_roundtrip() {
        for t in [
            RrType::A,
            RrType::Ns,
            RrType::Cname,
            RrType::Soa,
            RrType::Ptr,
            RrType::Mx,
            RrType::Txt,
            RrType::Aaaa,
            RrType::Srv,
            RrType::Opt,
            RrType::Any,
            RrType::Unknown(777),
        ] {
            let s = t.to_string();
            assert_eq!(RrType::from_mnemonic(&s), Some(t), "mnemonic {s}");
        }
        assert_eq!(RrType::from_mnemonic("aaaa"), Some(RrType::Aaaa));
        assert_eq!(RrType::from_mnemonic("bogus"), None);
    }

    #[test]
    fn address_and_meta_predicates() {
        assert!(RrType::A.is_address());
        assert!(RrType::Aaaa.is_address());
        assert!(!RrType::Ns.is_address());
    }

    #[test]
    fn rrclass_code_roundtrip() {
        for code in [1u16, 3, 4, 254, 255, 4096] {
            let c = RrClass::from(code);
            assert_eq!(c.code(), code);
        }
        assert_eq!(RrClass::default(), RrClass::In);
        assert_eq!(RrClass::Unknown(4096).to_string(), "CLASS4096");
    }
}
