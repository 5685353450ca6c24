//! Domain names in presentation and wire format.
//!
//! A [`Name`] is a sequence of labels, stored with the original case but
//! compared, hashed and compressed case-insensitively as required by
//! RFC 1035 §2.3.3 and RFC 4343.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::{WireError, WireResult};

/// Maximum length of a single label in octets.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire (including length octets and root).
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified DNS domain name.
///
/// Names are always treated as absolute: `"example.org"` and
/// `"example.org."` parse to the same value.
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::Name;
///
/// let name: Name = "pool.NTP.org".parse().unwrap();
/// assert_eq!(name.num_labels(), 3);
/// assert_eq!(name, "POOL.ntp.ORG".parse().unwrap());
/// assert_eq!(name.to_string(), "pool.NTP.org.");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parses a name from presentation (dotted ASCII) format.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LabelTooLong`], [`WireError::NameTooLong`],
    /// [`WireError::EmptyLabel`] or [`WireError::InvalidLabelCharacter`] when
    /// the input violates RFC 1035 limits.
    pub fn from_ascii(s: &str) -> WireResult<Self> {
        if s.is_empty() || s == "." {
            return Ok(Name::root());
        }
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        let mut labels = Vec::new();
        for raw in trimmed.split('.') {
            if raw.is_empty() {
                return Err(WireError::EmptyLabel);
            }
            if raw.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(raw.len()));
            }
            for ch in raw.chars() {
                if !ch.is_ascii() || ch.is_ascii_control() || ch == ' ' {
                    return Err(WireError::InvalidLabelCharacter(ch));
                }
            }
            labels.push(raw.as_bytes().to_vec());
        }
        let name = Name { labels };
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// Builds a name from raw label byte strings.
    ///
    /// # Errors
    ///
    /// Returns an error if any label is empty or too long, or if the
    /// resulting name exceeds the wire-format limit.
    pub fn from_labels<I, L>(iter: I) -> WireResult<Self>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut labels = Vec::new();
        for l in iter {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::EmptyLabel);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(l.len()));
            }
            labels.push(l.to_vec());
        }
        let name = Name { labels };
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// Returns `true` if this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of labels (the root name has zero labels).
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Iterates over the labels from leftmost (most specific) to rightmost.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels.iter().map(|l| l.as_slice())
    }

    /// Length of this name in wire format (sum of length octets plus the
    /// terminating zero octet), without compression.
    pub fn wire_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    /// Returns the parent of this name, or `None` for the root.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdoh_dns_wire::Name;
    /// let n: Name = "a.b.c".parse().unwrap();
    /// assert_eq!(n.parent().unwrap().to_string(), "b.c.");
    /// ```
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            None
        } else {
            Some(Name {
                labels: self.labels.get(1..).unwrap_or(&[]).to_vec(),
            })
        }
    }

    /// Creates a child name by prepending `label` to this name.
    ///
    /// # Errors
    ///
    /// Returns an error if the label or resulting name is too long.
    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> WireResult<Name> {
        let label = label.as_ref();
        if label.is_empty() {
            return Err(WireError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.to_vec());
        labels.extend(self.labels.iter().cloned());
        let name = Name { labels };
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// Returns `true` when `self` is equal to or a subdomain of `other`.
    ///
    /// The root is an ancestor of every name.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - other.labels.len();
        self.labels
            .get(offset..)
            .unwrap_or(&[])
            .iter()
            .zip(other.labels.iter())
            .all(|(a, b)| eq_ignore_case(a, b))
    }

    /// Returns the name with the given number of trailing labels, e.g. the
    /// enclosing zone cut candidate. `suffix_len` greater than the number of
    /// labels returns a clone of `self`.
    pub fn suffix(&self, suffix_len: usize) -> Name {
        if suffix_len >= self.labels.len() {
            return self.clone();
        }
        Name {
            labels: self
                .labels
                .get(self.labels.len() - suffix_len..)
                .unwrap_or(&[])
                .to_vec(),
        }
    }

    /// Returns this name with the case of every ASCII letter chosen
    /// pseudo-randomly from `seed` — DNS 0x20 mixed-case encoding
    /// (draft-vixie-dnsext-dns0x20). A resolver that encodes its queries
    /// this way and verifies the echoed question case forces an off-path
    /// forger to guess [`Name::case_entropy_bits`] additional bits.
    ///
    /// The same `(name, seed)` pair always produces the same casing, so
    /// the encoding is reproducible from the simulation seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdoh_dns_wire::Name;
    ///
    /// let name: Name = "pool.ntp.org".parse().unwrap();
    /// let cased = name.with_mixed_case(7);
    /// assert_eq!(cased, name, "equality stays case-insensitive");
    /// assert_eq!(cased, name.with_mixed_case(7));
    /// ```
    pub fn with_mixed_case(&self, seed: u64) -> Name {
        // splitmix64: cheap, well-distributed, and dependency-free.
        let mut state = seed;
        let mut next_bit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & 1 == 1
        };
        let labels = self
            .labels
            .iter()
            .map(|label| {
                label
                    .iter()
                    .map(|&b| {
                        if b.is_ascii_alphabetic() {
                            if next_bit() {
                                b.to_ascii_uppercase()
                            } else {
                                b.to_ascii_lowercase()
                            }
                        } else {
                            b
                        }
                    })
                    .collect()
            })
            .collect();
        Name { labels }
    }

    /// Case-exact label comparison — the check a 0x20-verifying client
    /// performs on the echoed question, which ordinary [`PartialEq`]
    /// (case-insensitive per RFC 4343) deliberately does not.
    pub fn eq_case_exact(&self, other: &Name) -> bool {
        self.labels == other.labels
    }

    /// Number of ASCII letters in the name: the identifier entropy (in
    /// bits) that 0x20 mixed-case encoding adds to a query, saturating at
    /// 255.
    pub fn case_entropy_bits(&self) -> u8 {
        let letters = self
            .labels
            .iter()
            .flat_map(|l| l.iter())
            .filter(|b| b.is_ascii_alphabetic())
            .count();
        u8::try_from(letters.min(255)).unwrap_or(u8::MAX)
    }

    /// Returns `true` when no label contains an uppercase ASCII letter —
    /// the canonical form an off-path forger guesses when it only knows
    /// the name from context.
    pub fn is_canonical_lowercase(&self) -> bool {
        self.labels
            .iter()
            .flat_map(|l| l.iter())
            .all(|b| !b.is_ascii_uppercase())
    }

    /// Lowercased presentation format without the trailing dot, used as a
    /// canonical map key (e.g. for compression and caching).
    pub fn to_lowercase_string(&self) -> String {
        let mut out = String::new();
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            for &b in l {
                out.push((b as char).to_ascii_lowercase());
            }
        }
        out
    }
}

fn eq_ignore_case(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.eq_ignore_ascii_case(y))
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(other.labels.iter())
                .all(|(a, b)| eq_ignore_case(a, b))
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            for &b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
            state.write_u8(0);
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences from
    /// the rightmost label, case-insensitively.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a: Vec<Vec<u8>> = self
            .labels
            .iter()
            .rev()
            .map(|l| l.to_ascii_lowercase())
            .collect();
        let b: Vec<Vec<u8>> = other
            .labels
            .iter()
            .rev()
            .map(|l| l.to_ascii_lowercase())
            .collect();
        a.cmp(&b)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for l in &self.labels {
            for &b in l {
                if b == b'.' || b == b'\\' {
                    write!(f, "\\{}", b as char)?;
                } else if b.is_ascii_graphic() {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::from_ascii(s)
    }
}

impl TryFrom<&str> for Name {
    type Error = WireError;

    fn try_from(value: &str) -> Result<Self, Self::Error> {
        Name::from_ascii(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(n: &Name) -> u64 {
        let mut hasher = DefaultHasher::new();
        n.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn parse_simple() {
        let n = Name::from_ascii("pool.ntp.org").unwrap();
        assert_eq!(n.num_labels(), 3);
        assert_eq!(n.to_string(), "pool.ntp.org.");
    }

    #[test]
    fn parse_trailing_dot_equivalent() {
        assert_eq!(
            Name::from_ascii("example.org").unwrap(),
            Name::from_ascii("example.org.").unwrap()
        );
    }

    #[test]
    fn root_parses_from_dot_and_empty() {
        assert!(Name::from_ascii(".").unwrap().is_root());
        assert!(Name::from_ascii("").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        let a = Name::from_ascii("DNS.Google.COM").unwrap();
        let b = Name::from_ascii("dns.google.com").unwrap();
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn display_preserves_case() {
        let a = Name::from_ascii("DNS.Google").unwrap();
        assert_eq!(a.to_string(), "DNS.Google.");
    }

    #[test]
    fn label_too_long_rejected() {
        let long = "a".repeat(64);
        assert!(matches!(
            Name::from_ascii(&long),
            Err(WireError::LabelTooLong(64))
        ));
        assert!(Name::from_ascii(&"a".repeat(63)).is_ok());
    }

    #[test]
    fn name_too_long_rejected() {
        // 4 labels of 63 bytes = 4*64 + 1 = 257 > 255
        let label = "a".repeat(63);
        let name = format!("{label}.{label}.{label}.{label}");
        assert!(matches!(
            Name::from_ascii(&name),
            Err(WireError::NameTooLong(_))
        ));
    }

    #[test]
    fn empty_label_rejected() {
        assert_eq!(Name::from_ascii("a..b"), Err(WireError::EmptyLabel));
    }

    #[test]
    fn invalid_chars_rejected() {
        assert!(matches!(
            Name::from_ascii("ex ample.org"),
            Err(WireError::InvalidLabelCharacter(' '))
        ));
        assert!(matches!(
            Name::from_ascii("exämple.org"),
            Err(WireError::InvalidLabelCharacter(_))
        ));
    }

    #[test]
    fn parent_chain() {
        let n = Name::from_ascii("a.b.c").unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.c.");
        let gp = p.parent().unwrap();
        assert_eq!(gp.to_string(), "c.");
        let root = gp.parent().unwrap();
        assert!(root.is_root());
        assert!(root.parent().is_none());
    }

    #[test]
    fn child_builds_subdomain() {
        let n = Name::from_ascii("ntp.org").unwrap();
        let c = n.child("pool").unwrap();
        assert_eq!(c.to_string(), "pool.ntp.org.");
        assert!(c.child("").is_err());
    }

    #[test]
    fn subdomain_checks() {
        let zone = Name::from_ascii("ntp.org").unwrap();
        let host = Name::from_ascii("a.pool.NTP.ORG").unwrap();
        let other = Name::from_ascii("example.com").unwrap();
        assert!(host.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!other.is_subdomain_of(&zone));
        assert!(host.is_subdomain_of(&Name::root()));
        assert!(!zone.is_subdomain_of(&host));
    }

    #[test]
    fn suffix_extraction() {
        let n = Name::from_ascii("a.b.c.d").unwrap();
        assert_eq!(n.suffix(2).to_string(), "c.d.");
        assert_eq!(n.suffix(0), Name::root());
        assert_eq!(n.suffix(10), n);
    }

    #[test]
    fn canonical_ordering() {
        let a = Name::from_ascii("a.example").unwrap();
        let b = Name::from_ascii("b.example").unwrap();
        let z = Name::from_ascii("example").unwrap();
        assert!(z < a);
        assert!(a < b);
        assert!(Name::root() < z);
    }

    #[test]
    fn wire_len_matches_definition() {
        let n = Name::from_ascii("abc.de").unwrap();
        // 1+3 + 1+2 + 1 = 8
        assert_eq!(n.wire_len(), 8);
    }

    #[test]
    fn from_labels_roundtrip() {
        let n = Name::from_labels(["www", "example", "org"]).unwrap();
        assert_eq!(n.to_string(), "www.example.org.");
        assert!(Name::from_labels([""]).is_err());
    }

    #[test]
    fn mixed_case_is_deterministic_and_case_insensitively_equal() {
        let n = Name::from_ascii("pool.ntpns.org").unwrap();
        let a = n.with_mixed_case(42);
        let b = n.with_mixed_case(42);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a, n, "0x20 casing never changes name identity");
        assert_eq!(h(&a), h(&n));
        // Different seeds produce different casings for a 12-letter name
        // (collision probability 2^-12 per pair; these seeds differ).
        let distinct: std::collections::HashSet<String> =
            (0..16).map(|s| n.with_mixed_case(s).to_string()).collect();
        assert!(distinct.len() > 1, "casing must actually vary");
    }

    #[test]
    fn mixed_case_leaves_non_letters_alone() {
        let n = Name::from_ascii("p00l-1.example").unwrap();
        let cased = n.with_mixed_case(9);
        let flat: Vec<u8> = cased.labels().flatten().copied().collect();
        assert!(flat.contains(&b'0'));
        assert!(flat.contains(&b'-'));
        assert!(flat.contains(&b'1'));
    }

    #[test]
    fn case_exact_comparison() {
        let lower = Name::from_ascii("pool.ntp.org").unwrap();
        let mixed = Name::from_ascii("PoOl.nTp.oRg").unwrap();
        assert_eq!(lower, mixed);
        assert!(!lower.eq_case_exact(&mixed));
        assert!(lower.eq_case_exact(&lower.clone()));
        assert!(mixed.eq_case_exact(&Name::from_ascii("PoOl.nTp.oRg").unwrap()));
    }

    #[test]
    fn case_entropy_counts_letters_only() {
        assert_eq!(
            Name::from_ascii("pool.ntpns.org")
                .unwrap()
                .case_entropy_bits(),
            12
        );
        assert_eq!(Name::from_ascii("123.456").unwrap().case_entropy_bits(), 0);
        assert_eq!(Name::root().case_entropy_bits(), 0);
    }

    #[test]
    fn canonical_lowercase_detection() {
        assert!(Name::from_ascii("pool.ntp.org")
            .unwrap()
            .is_canonical_lowercase());
        assert!(!Name::from_ascii("Pool.ntp.org")
            .unwrap()
            .is_canonical_lowercase());
        assert!(Name::from_ascii("12-3.example")
            .unwrap()
            .is_canonical_lowercase());
        assert!(Name::root().is_canonical_lowercase());
    }

    #[test]
    fn lowercase_key() {
        let n = Name::from_ascii("DNS.Quad9.NET").unwrap();
        assert_eq!(n.to_lowercase_string(), "dns.quad9.net");
    }
}
