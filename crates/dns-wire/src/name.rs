//! Domain names in presentation and wire format.
//!
//! A [`Name`] is a sequence of labels, stored with the original case but
//! compared, hashed and compressed case-insensitively as required by
//! RFC 1035 §2.3.3 and RFC 4343.
//!
//! # Representation
//!
//! A name owns **one buffer**: its labels the way the wire carries them,
//! each behind its length octet and leftmost first, without the terminating
//! zero. `pool.ntp.org` is `4 p o o l 3 n t p 3 o r g`; the root is the
//! empty buffer. Building or cloning a name is one allocation, the
//! uncompressed wire form is the buffer plus one zero octet, and a suffix
//! (a parent, an enclosing zone) is a tail of the buffer.
//!
//! **The length-octet invariant.** [`LabelBuf::push`] is the only code that
//! writes a length octet, and it writes 1..=63. ASCII letters start at 65,
//! so a length octet is never a letter: case folding leaves it alone, and
//! two buffers that are equal ignoring ASCII case have equal first octets,
//! hence first labels of the same length, hence (by induction) the same
//! label boundaries throughout. That is why equality is one whole-buffer
//! `eq_ignore_ascii_case`, why the hash is one write of the lowercased
//! buffer, and why the 0x20 helpers may scan the buffer without telling
//! length octets from label octets.
//!
//! # Lent names
//!
//! A query carries its question's name the way a [`Name`] holds it, so a
//! reader of the query need not copy it into one: [`NameRef`] is a name's
//! labels lent from wherever they lie. A `Name`-keyed map is probed with
//! one through `Name: Borrow<dyn NameKey>` — the same equality and the
//! same hash, computed from the same octets — so a lookup by the name a
//! query asks for builds no `Name`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::{WireError, WireResult};

/// Maximum length of a single label in octets.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire (including length octets and root).
pub const MAX_NAME_LEN: usize = 255;
/// Longest buffer of length-prefixed labels: a name's wire form without
/// its terminating zero.
const MAX_BUF_LEN: usize = MAX_NAME_LEN - 1;
/// Most labels a name can hold: one-octet labels filling the buffer.
const MAX_LABELS: usize = MAX_BUF_LEN / 2;

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
    /// `[len][octets]` per label, leftmost first, no terminating zero (see
    /// the module documentation).
    buf: Vec<u8>,
}

/// Labels being gathered into a [`Name`]: every constructor that takes
/// labels one at a time (presentation format, raw labels, the wire reader)
/// pushes them here, so the label and name limits are checked in one place
/// and the name's buffer is allocated once, at its final size.
#[derive(Debug, Clone)]
pub(crate) struct LabelBuf {
    octets: [u8; MAX_BUF_LEN],
    /// Wire length of the labels pushed so far, terminating zero included.
    /// It keeps counting past the limit (the octets beyond it are dropped),
    /// so that [`WireError::NameTooLong`] reports the length of the whole
    /// name and a later label's own error still comes first.
    wire_len: usize,
}

impl LabelBuf {
    #[inline]
    pub(crate) fn new() -> Self {
        LabelBuf {
            octets: [0; MAX_BUF_LEN],
            wire_len: 1,
        }
    }

    pub(crate) fn push(&mut self, label: &[u8]) -> WireResult<()> {
        if label.is_empty() {
            return Err(WireError::EmptyLabel);
        }
        let len = u8::try_from(label.len())
            .ok()
            .filter(|&len| usize::from(len) <= MAX_LABEL_LEN)
            .ok_or(WireError::LabelTooLong(label.len()))?;
        let start = self.wire_len - 1;
        self.wire_len += 1 + label.len();
        if let Some([head, tail @ ..]) = self.octets.get_mut(start..self.wire_len - 1) {
            *head = len;
            tail.copy_from_slice(label);
        }
        Ok(())
    }

    /// Appends a label as the wire carries it, length octet first; the
    /// wire reader hands over only labels of 1..=63 octets.
    #[inline]
    pub(crate) fn push_wire(&mut self, label: &[u8]) {
        let start = self.wire_len - 1;
        self.wire_len += label.len();
        if let Some(slot) = self.octets.get_mut(start..self.wire_len - 1) {
            slot.copy_from_slice(label);
        }
    }

    /// The labels pushed so far, as a [`Name`] holds them; empty once they
    /// are over the name limit (the wire reader has refused them by then).
    pub(crate) fn labels(&self) -> &[u8] {
        self.octets.get(..self.wire_len - 1).unwrap_or_default()
    }

    #[inline]
    pub(crate) fn finish(self) -> WireResult<Name> {
        // The array is as long as the longest legal buffer, so the range
        // check is the name-length check.
        let buf = self
            .octets
            .get(..self.wire_len - 1)
            .ok_or(WireError::NameTooLong(self.wire_len))?;
        Ok(Name { buf: buf.to_vec() })
    }
}

/// Walks a name's buffer label by label; what is left of the buffer is the
/// name's suffix from the next label on.
struct Labels<'a>(&'a [u8]);

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.0.split_first()?;
        let (label, rest) = rest.split_at_checked(usize::from(len))?;
        self.0 = rest;
        Some(label)
    }
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name { buf: Vec::new() }
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
        let mut labels = LabelBuf::new();
        for raw in trimmed.split('.') {
            labels.push(raw.as_bytes())?;
            for ch in raw.chars() {
                if !ch.is_ascii() || ch.is_ascii_control() || ch == ' ' {
                    return Err(WireError::InvalidLabelCharacter(ch));
                }
            }
        }
        labels.finish()
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
        let mut labels = LabelBuf::new();
        for l in iter {
            labels.push(l.as_ref())?;
        }
        labels.finish()
    }

    /// Returns `true` if this is the root name.
    pub fn is_root(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of labels (the root name has zero labels).
    pub fn num_labels(&self) -> usize {
        self.labels().count()
    }

    /// Iterates over the labels from leftmost (most specific) to rightmost.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        Labels(&self.buf)
    }

    /// The name's buffer: each label behind its length octet, without the
    /// terminating zero — the uncompressed wire form but for that octet.
    pub(crate) fn as_wire_labels(&self) -> &[u8] {
        &self.buf
    }

    /// The name lent out, as a query's question lends its own.
    pub fn as_name_ref(&self) -> NameRef<'_> {
        NameRef { labels: &self.buf }
    }

    /// The buffer of the name `skip` labels up: its tail from there on.
    fn tail(&self, skip: usize) -> &[u8] {
        let mut labels = Labels(&self.buf);
        for _ in 0..skip {
            labels.next();
        }
        labels.0
    }

    /// The labels from rightmost to leftmost. A length-prefixed buffer only
    /// reads forwards, so one forward pass notes where each label starts
    /// (an offset fits a `u8`: the buffer holds at most 254 octets).
    fn labels_from_right(&self) -> impl Iterator<Item = &[u8]> {
        let mut starts = [0u8; MAX_LABELS];
        let mut count = 0;
        let mut at = 0;
        for label in self.labels() {
            if let (Some(slot), Ok(start)) = (starts.get_mut(count), u8::try_from(at)) {
                *slot = start;
                count += 1;
            }
            at += 1 + label.len();
        }
        (0..count)
            .rev()
            .filter_map(move |i| Labels(self.buf.get(usize::from(*starts.get(i)?)..)?).next())
    }

    /// Length of this name in wire format (sum of length octets plus the
    /// terminating zero octet), without compression.
    pub fn wire_len(&self) -> usize {
        self.buf.len() + 1
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
        (!self.is_root()).then(|| Name {
            buf: self.tail(1).to_vec(),
        })
    }

    /// Creates a child name by prepending `label` to this name.
    ///
    /// # Errors
    ///
    /// Returns an error if the label or resulting name is too long.
    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> WireResult<Name> {
        let mut labels = LabelBuf::new();
        labels.push(label.as_ref())?;
        for l in self.labels() {
            labels.push(l)?;
        }
        labels.finish()
    }

    /// Returns `true` when `self` is equal to or a subdomain of `other`.
    ///
    /// The root is an ancestor of every name.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        // Drop labels until what is left is as long as `other`; if no label
        // boundary falls there the lengths differ and the comparison fails.
        let mut rest = Labels(&self.buf);
        while rest.0.len() > other.buf.len() {
            rest.next();
        }
        rest.0.eq_ignore_ascii_case(&other.buf)
    }

    /// Returns the name with the given number of trailing labels, e.g. the
    /// enclosing zone cut candidate. `suffix_len` greater than the number of
    /// labels returns a clone of `self`.
    pub fn suffix(&self, suffix_len: usize) -> Name {
        Name {
            buf: self
                .tail(self.num_labels().saturating_sub(suffix_len))
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
        // One draw per letter, left to right; a length octet is never a
        // letter, so it neither draws nor changes.
        let buf = self
            .buf
            .iter()
            .map(|&b| {
                if !b.is_ascii_alphabetic() {
                    b
                } else if next_bit() {
                    b.to_ascii_uppercase()
                } else {
                    b.to_ascii_lowercase()
                }
            })
            .collect();
        Name { buf }
    }

    /// Case-exact label comparison — the check a 0x20-verifying client
    /// performs on the echoed question, which ordinary [`PartialEq`]
    /// (case-insensitive per RFC 4343) deliberately does not.
    pub fn eq_case_exact(&self, other: &Name) -> bool {
        self.buf == other.buf
    }

    /// Number of ASCII letters in the name: the identifier entropy (in
    /// bits) that 0x20 mixed-case encoding adds to a query, saturating at
    /// 255.
    pub fn case_entropy_bits(&self) -> u8 {
        let letters = self.buf.iter().filter(|b| b.is_ascii_alphabetic()).count();
        u8::try_from(letters).unwrap_or(u8::MAX)
    }

    /// Returns `true` when no label contains an uppercase ASCII letter —
    /// the canonical form an off-path forger guesses when it only knows
    /// the name from context.
    pub fn is_canonical_lowercase(&self) -> bool {
        !self.buf.iter().any(u8::is_ascii_uppercase)
    }

    /// Lowercased presentation format without the trailing dot, used as a
    /// canonical map key (e.g. for compression and caching).
    pub fn to_lowercase_string(&self) -> String {
        let mut out = String::with_capacity(self.buf.len());
        for (i, l) in self.labels().enumerate() {
            if i > 0 {
                out.push('.');
            }
            for &b in l {
                out.push(char::from(b).to_ascii_lowercase());
            }
        }
        out
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.buf.eq_ignore_ascii_case(&other.buf)
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_labels(&self.buf, state);
    }
}

/// One write of the lowercased uncompressed wire form (the labels and the
/// terminating zero), so names that are equal hash alike — whether a
/// [`Name`] or a [`NameRef`] holds them.
fn hash_labels<H: Hasher>(labels: &[u8], state: &mut H) {
    let mut wire = [0u8; MAX_NAME_LEN];
    for (lowered, b) in wire.iter_mut().zip(labels) {
        *lowered = b.to_ascii_lowercase();
    }
    state.write(wire.get(..labels.len() + 1).unwrap_or(&wire));
}

/// A name lent from where its labels lie — a query's question, a
/// [`Name`]'s buffer — as the wire carries them: each label behind its
/// length octet, leftmost first, without the terminating zero. It compares
/// and hashes as the [`Name`] with the same labels does, and a `Name`-keyed
/// map finds that name's entry by it ([`NameRef::as_key`]).
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use sdoh_dns_wire::{Name, NameRef, RrType, QueryView, QueryWire};
///
/// # fn main() -> Result<(), sdoh_dns_wire::WireError> {
/// let pool: Name = "pool.ntp.org".parse()?;
/// let index = HashMap::from([(pool.clone(), 8)]);
///
/// let wire = QueryWire::new(7, &"POOL.ntp.org".parse()?, RrType::A)?;
/// let query = QueryView::parse(wire.as_bytes())?;
/// let asked: NameRef<'_> = query.question().unwrap().name;
/// assert_eq!(asked, pool.as_name_ref());
/// assert_eq!(index.get(asked.as_key()), Some(&8));
/// assert_eq!(asked.parent().unwrap().to_name(), "ntp.org".parse::<Name>()?);
/// assert_eq!(asked.to_name(), pool);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NameRef<'a> {
    labels: &'a [u8],
}

impl<'a> NameRef<'a> {
    /// Lends `labels`, which the caller has checked are a name's: labels
    /// of 1..=63 octets behind their length octets, within the name limit.
    pub(crate) fn new(labels: &'a [u8]) -> Self {
        NameRef { labels }
    }

    /// Returns `true` if this is the root name.
    pub fn is_root(self) -> bool {
        self.labels.is_empty()
    }

    /// Length of the name in wire format, without compression.
    pub fn wire_len(self) -> usize {
        self.labels.len() + 1
    }

    /// The name one label up, or `None` for the root.
    pub fn parent(self) -> Option<NameRef<'a>> {
        let mut labels = Labels(self.labels);
        labels.next()?;
        Some(NameRef { labels: labels.0 })
    }

    /// The owned copy: one allocation.
    pub fn to_name(self) -> Name {
        Name {
            buf: self.labels.to_vec(),
        }
    }

    /// The key a `Name`-keyed map or set is probed with, through
    /// `Name: Borrow<dyn NameKey>`.
    pub fn as_key(&self) -> &(dyn NameKey + 'a) {
        self
    }
}

/// The root name.
impl Default for NameRef<'_> {
    fn default() -> Self {
        NameRef { labels: &[] }
    }
}

impl PartialEq for NameRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.labels.eq_ignore_ascii_case(other.labels)
    }
}

impl Eq for NameRef<'_> {}

impl Hash for NameRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_labels(self.labels, state);
    }
}

/// What a `Name`-keyed map is probed with: the labels of a name, whoever
/// holds them, compared ignoring ASCII case and hashed exactly as [`Name`]
/// compares and hashes — so `Name: Borrow<dyn NameKey>` keeps the
/// contract of [`Borrow`].
pub trait NameKey {
    /// The name's labels, each behind its length octet, without the
    /// terminating zero.
    fn key_labels(&self) -> &[u8];
}

impl NameKey for Name {
    fn key_labels(&self) -> &[u8] {
        &self.buf
    }
}

impl NameKey for NameRef<'_> {
    fn key_labels(&self) -> &[u8] {
        self.labels
    }
}

impl PartialEq for dyn NameKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_labels().eq_ignore_ascii_case(other.key_labels())
    }
}

impl Eq for dyn NameKey + '_ {}

impl Hash for dyn NameKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_labels(self.key_labels(), state);
    }
}

impl<'a> Borrow<dyn NameKey + 'a> for Name {
    fn borrow(&self) -> &(dyn NameKey + 'a) {
        self
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering (RFC 4034 §6.1): compare label sequences from
    /// the rightmost label, case-insensitively.
    fn cmp(&self, other: &Self) -> Ordering {
        fn lowered(label: &[u8]) -> impl Iterator<Item = u8> + '_ {
            label.iter().map(u8::to_ascii_lowercase)
        }
        self.labels_from_right()
            .zip(other.labels_from_right())
            .map(|(a, b)| lowered(a).cmp(lowered(b)))
            .find(|ord| ord.is_ne())
            .unwrap_or_else(|| self.num_labels().cmp(&other.num_labels()))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for l in self.labels() {
            for &b in l {
                if b == b'.' || b == b'\\' {
                    write!(f, "\\{}", char::from(b))?;
                } else if b.is_ascii_graphic() {
                    write!(f, "{}", char::from(b))?;
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
