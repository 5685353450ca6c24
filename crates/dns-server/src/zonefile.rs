//! A parser for a practical subset of RFC 1035 zone-file syntax.
//!
//! Supported constructs: `$ORIGIN`, `$TTL`, `@` for the origin, relative and
//! absolute owner names, comments (`;`), blank lines and the record types
//! the rest of the system uses (SOA, NS, A, AAAA, CNAME, PTR, MX, TXT, SRV).
//! Parenthesised multi-line records are *not* supported; write SOA records
//! on one line.

use std::net::{Ipv4Addr, Ipv6Addr};

use sdoh_dns_wire::{Mx, Name, RData, Record, Soa, Srv};

use crate::error::ZoneFileError;
use crate::zone::Zone;

/// Parses zone-file text into a [`Zone`].
///
/// # Errors
///
/// Returns [`ZoneFileError`] for syntax errors, out-of-zone records or a
/// missing SOA record.
pub fn parse_zone(origin: &Name, text: &str) -> Result<Zone, ZoneFileError> {
    let mut zone = Zone::empty(origin.clone());
    let mut current_origin = origin.clone();
    let mut default_ttl: u32 = 3600;
    let mut last_owner: Option<Name> = None;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line);
        if line.trim().is_empty() {
            continue;
        }

        let starts_with_space = line.starts_with(' ') || line.starts_with('\t');
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some(&first_token) = tokens.first() else {
            continue;
        };

        // Directives.
        if first_token == "$ORIGIN" {
            let name = require(tokens.get(1), line_no, "missing $ORIGIN argument")?;
            current_origin = parse_name(name, &current_origin, line_no)?;
            continue;
        }
        if first_token == "$TTL" {
            let ttl = require(tokens.get(1), line_no, "missing $TTL argument")?;
            default_ttl = parse_u32(ttl, line_no)?;
            continue;
        }

        // Owner name handling: a leading blank means "same owner as before".
        let (owner, mut rest) = if starts_with_space {
            let owner = last_owner.clone().ok_or_else(|| ZoneFileError::Syntax {
                line: line_no,
                message: "record with implicit owner but no previous owner".into(),
            })?;
            (owner, tokens.as_slice())
        } else {
            let owner = parse_owner(first_token, &current_origin, line_no)?;
            (owner, tokens.get(1..).unwrap_or(&[]))
        };
        last_owner = Some(owner.clone());

        // Optional TTL and class tokens, in either order.
        let mut ttl = default_ttl;
        loop {
            match rest.first() {
                Some(tok) if tok.eq_ignore_ascii_case("IN") => {
                    rest = rest.get(1..).unwrap_or(&[]);
                }
                Some(tok) if tok.chars().all(|c| c.is_ascii_digit()) && rest.len() > 1 => {
                    ttl = parse_u32(tok, line_no)?;
                    rest = rest.get(1..).unwrap_or(&[]);
                }
                _ => break,
            }
        }

        let rtype = require(rest.first(), line_no, "missing record type")?;
        let rdata_tokens = rest.get(1..).unwrap_or(&[]);
        let rdata = parse_rdata(rtype, rdata_tokens, &current_origin, line_no)?;

        let record = Record::new(owner.clone(), ttl, rdata);
        if !zone.add_record(record) {
            return Err(ZoneFileError::OutOfZone {
                line: line_no,
                name: owner.to_string(),
            });
        }
    }

    if zone.soa().is_none() {
        return Err(ZoneFileError::MissingSoa);
    }
    Ok(zone)
}

fn strip_comment(line: &str) -> &str {
    match line.split_once(';') {
        Some((head, _)) => head,
        None => line,
    }
}

fn require<'a>(
    token: Option<&&'a str>,
    line: usize,
    message: &str,
) -> Result<&'a str, ZoneFileError> {
    token.copied().ok_or_else(|| ZoneFileError::Syntax {
        line,
        message: message.to_string(),
    })
}

fn parse_u32(token: &str, line: usize) -> Result<u32, ZoneFileError> {
    token.parse().map_err(|_| ZoneFileError::Syntax {
        line,
        message: format!("invalid number: {token}"),
    })
}

fn parse_u16(token: &str, line: usize) -> Result<u16, ZoneFileError> {
    token.parse().map_err(|_| ZoneFileError::Syntax {
        line,
        message: format!("invalid number: {token}"),
    })
}

fn parse_owner(token: &str, origin: &Name, line: usize) -> Result<Name, ZoneFileError> {
    if token == "@" {
        return Ok(origin.clone());
    }
    parse_name(token, origin, line)
}

fn parse_name(token: &str, origin: &Name, line: usize) -> Result<Name, ZoneFileError> {
    let absolute = token.ends_with('.');
    let name: Name = token.parse().map_err(|e| ZoneFileError::Syntax {
        line,
        message: format!("invalid name {token}: {e}"),
    })?;
    if absolute || origin.is_root() {
        Ok(name)
    } else {
        // Relative name: append the origin.
        let mut labels: Vec<Vec<u8>> = name.labels().map(|l| l.to_vec()).collect();
        labels.extend(origin.labels().map(|l| l.to_vec()));
        Name::from_labels(labels).map_err(|e| ZoneFileError::Syntax {
            line,
            message: format!("relative name too long: {e}"),
        })
    }
}

fn parse_rdata(
    rtype: &str,
    tokens: &[&str],
    origin: &Name,
    line: usize,
) -> Result<RData, ZoneFileError> {
    let syntax = |message: String| ZoneFileError::Syntax { line, message };
    match rtype.to_ascii_uppercase().as_str() {
        "A" => {
            let addr = require(tokens.first(), line, "A record needs an address")?;
            let ip: Ipv4Addr = addr
                .parse()
                .map_err(|_| syntax(format!("invalid IPv4 address: {addr}")))?;
            Ok(RData::A(ip))
        }
        "AAAA" => {
            let addr = require(tokens.first(), line, "AAAA record needs an address")?;
            let ip: Ipv6Addr = addr
                .parse()
                .map_err(|_| syntax(format!("invalid IPv6 address: {addr}")))?;
            Ok(RData::Aaaa(ip))
        }
        "NS" => {
            let target = require(tokens.first(), line, "NS record needs a target")?;
            Ok(RData::Ns(parse_name(target, origin, line)?))
        }
        "CNAME" => {
            let target = require(tokens.first(), line, "CNAME record needs a target")?;
            Ok(RData::Cname(parse_name(target, origin, line)?))
        }
        "PTR" => {
            let target = require(tokens.first(), line, "PTR record needs a target")?;
            Ok(RData::Ptr(parse_name(target, origin, line)?))
        }
        "MX" => {
            let pref = parse_u16(
                require(tokens.first(), line, "MX needs a preference")?,
                line,
            )?;
            let target = require(tokens.get(1), line, "MX record needs an exchange")?;
            Ok(RData::Mx(Mx::new(pref, parse_name(target, origin, line)?)))
        }
        "TXT" => {
            if tokens.is_empty() {
                return Err(syntax("TXT record needs at least one string".into()));
            }
            let strings = tokens
                .iter()
                .map(|t| t.trim_matches('"').as_bytes().to_vec())
                .collect();
            Ok(RData::Txt(strings))
        }
        "SRV" => {
            let &[priority, weight, port, target, ..] = tokens else {
                return Err(syntax("SRV needs priority weight port target".into()));
            };
            Ok(RData::Srv(Srv::new(
                parse_u16(priority, line)?,
                parse_u16(weight, line)?,
                parse_u16(port, line)?,
                parse_name(target, origin, line)?,
            )))
        }
        "SOA" => {
            let &[mname, rname, serial, refresh, retry, expire, minimum, ..] = tokens else {
                return Err(syntax(
                    "SOA needs mname rname serial refresh retry expire minimum".into(),
                ));
            };
            Ok(RData::Soa(Soa {
                mname: parse_name(mname, origin, line)?,
                rname: parse_name(rname, origin, line)?,
                serial: parse_u32(serial, line)?,
                refresh: parse_u32(refresh, line)?,
                retry: parse_u32(retry, line)?,
                expire: parse_u32(expire, line)?,
                minimum: parse_u32(minimum, line)?,
            }))
        }
        other => Err(syntax(format!("unsupported record type: {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneLookup;
    use sdoh_dns_wire::RrType;

    const NTPNS_ZONE: &str = r#"
; zone for the simulated NTP pool nameservers
$TTL 300
@   IN SOA ns1 hostmaster 2024010101 7200 900 1209600 300
@   IN NS  c.ntpns.org.
@   IN NS  d.ntpns.org.
@   IN NS  e.ntpns.org.
c   IN A   198.51.100.3
d   IN A   198.51.100.4
e   IN A   198.51.100.5
pool        IN A 203.0.113.1
pool        IN A 203.0.113.2
pool        IN A 203.0.113.3
pool        IN A 203.0.113.4
alias       IN CNAME pool
www 600 IN A 192.0.2.80
v6  IN AAAA 2001:db8::123
mail IN MX 10 mx.ntpns.org.
txt IN TXT "hello world"
_ntp._udp IN SRV 0 5 123 pool.ntpns.org.
"#;

    fn origin() -> Name {
        "ntpns.org".parse().unwrap()
    }

    #[test]
    fn parses_full_zone() {
        let zone = parse_zone(&origin(), NTPNS_ZONE).unwrap();
        assert!(zone.soa().is_some());
        assert_eq!(zone.records_at(&"pool.ntpns.org".parse().unwrap()).len(), 4);
        match zone.lookup(&"pool.ntpns.org".parse().unwrap(), RrType::A) {
            ZoneLookup::Answer(records) => assert_eq!(records.iter().count(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explicit_ttl_and_default_ttl() {
        let zone = parse_zone(&origin(), NTPNS_ZONE).unwrap();
        let www = &zone.records_at(&"www.ntpns.org".parse().unwrap())[0];
        assert_eq!(www.ttl, 600);
        let pool = &zone.records_at(&"pool.ntpns.org".parse().unwrap())[0];
        assert_eq!(pool.ttl, 300);
    }

    #[test]
    fn relative_and_absolute_names() {
        let zone = parse_zone(&origin(), NTPNS_ZONE).unwrap();
        match zone.lookup(&"alias.ntpns.org".parse().unwrap(), RrType::A) {
            ZoneLookup::Cname(r) => {
                assert_eq!(
                    r.rdata.target_name().unwrap(),
                    &"pool.ntpns.org".parse::<Name>().unwrap()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let ns = zone.records_at(&"ntpns.org".parse().unwrap());
        assert!(ns.iter().any(|r| r.rtype() == RrType::Ns));
    }

    #[test]
    fn parses_all_supported_types() {
        let zone = parse_zone(&origin(), NTPNS_ZONE).unwrap();
        assert!(matches!(
            zone.lookup(&"v6.ntpns.org".parse().unwrap(), RrType::Aaaa),
            ZoneLookup::Answer(_)
        ));
        assert!(matches!(
            zone.lookup(&"mail.ntpns.org".parse().unwrap(), RrType::Mx),
            ZoneLookup::Answer(_)
        ));
        assert!(matches!(
            zone.lookup(&"txt.ntpns.org".parse().unwrap(), RrType::Txt),
            ZoneLookup::Answer(_)
        ));
        assert!(matches!(
            zone.lookup(&"_ntp._udp.ntpns.org".parse().unwrap(), RrType::Srv),
            ZoneLookup::Answer(_)
        ));
    }

    #[test]
    fn missing_soa_is_rejected() {
        let text = "@ IN NS ns1.example.org.\n";
        assert!(matches!(
            parse_zone(&origin(), text),
            Err(ZoneFileError::MissingSoa)
        ));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let text = "@ IN SOA ns1 host 1 2 3 4 5\nbadline IN A not-an-ip\n";
        match parse_zone(&origin(), text) {
            Err(ZoneFileError::Syntax { line, .. }) => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsupported_type_is_an_error() {
        let text = "@ IN SOA ns1 host 1 2 3 4 5\nx IN NAPTR something\n";
        assert!(matches!(
            parse_zone(&origin(), text),
            Err(ZoneFileError::Syntax { line: 2, .. })
        ));
    }

    #[test]
    fn origin_directive_switches_origin() {
        let text = "@ IN SOA ns1 host 1 2 3 4 5\n$ORIGIN sub.ntpns.org.\nhost IN A 192.0.2.1\n";
        let zone = parse_zone(&origin(), text).unwrap();
        assert!(matches!(
            zone.lookup(&"host.sub.ntpns.org".parse().unwrap(), RrType::A),
            ZoneLookup::Answer(_)
        ));
    }

    #[test]
    fn out_of_zone_record_is_rejected() {
        let text = "@ IN SOA ns1 host 1 2 3 4 5\nwww.example.com. IN A 192.0.2.1\n";
        assert!(matches!(
            parse_zone(&origin(), text),
            Err(ZoneFileError::OutOfZone { line: 2, .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "; leading comment\n\n@ IN SOA ns1 host 1 2 3 4 5 ; trailing comment\n\n";
        let zone = parse_zone(&origin(), text).unwrap();
        assert_eq!(zone.len(), 1);
    }
}
