//! The flat-buffer [`Name`] and the offset-list compressor against the
//! representations they replaced, both kept here as references: a name as a
//! vector of label vectors, and a writer whose compression table is a map
//! keyed by the lowercased dotted suffix.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use sdoh_dns_wire::{Name, WireError, WireReader, WireWriter};

/// A name as `Vec<Vec<u8>>`, with the algorithms `Name` had on it.
#[derive(Debug, Clone, PartialEq)]
struct RefName(Vec<Vec<u8>>);

impl RefName {
    fn from_labels(labels: &[Vec<u8>]) -> Result<Self, WireError> {
        for l in labels {
            if l.is_empty() {
                return Err(WireError::EmptyLabel);
            }
            if l.len() > 63 {
                return Err(WireError::LabelTooLong(l.len()));
            }
        }
        let name = RefName(labels.to_vec());
        if name.wire_len() > 255 {
            return Err(WireError::NameTooLong(name.wire_len()));
        }
        Ok(name)
    }

    fn wire_len(&self) -> usize {
        self.0.iter().map(|l| l.len() + 1).sum::<usize>() + 1
    }

    fn lowered(&self) -> Vec<Vec<u8>> {
        self.0.iter().map(|l| l.to_ascii_lowercase()).collect()
    }

    fn eq(&self, other: &RefName) -> bool {
        self.lowered() == other.lowered()
    }

    fn cmp(&self, other: &RefName) -> Ordering {
        let from_right = |n: &RefName| n.lowered().into_iter().rev().collect::<Vec<_>>();
        from_right(self).cmp(&from_right(other))
    }

    fn is_subdomain_of(&self, other: &RefName) -> bool {
        let (mine, theirs) = (self.lowered(), other.lowered());
        theirs.len() <= mine.len() && mine[mine.len() - theirs.len()..] == theirs[..]
    }

    fn parent(&self) -> Option<RefName> {
        (!self.0.is_empty()).then(|| RefName(self.0[1..].to_vec()))
    }

    fn suffix(&self, suffix_len: usize) -> RefName {
        RefName(self.0[self.0.len().saturating_sub(suffix_len)..].to_vec())
    }

    fn child(&self, label: &[u8]) -> Result<RefName, WireError> {
        let mut labels = vec![label.to_vec()];
        labels.extend(self.0.iter().cloned());
        RefName::from_labels(&labels)
    }

    fn display(&self) -> String {
        if self.0.is_empty() {
            return ".".to_string();
        }
        let mut out = String::new();
        for l in &self.0 {
            for &b in l {
                if b == b'.' || b == b'\\' {
                    out.push('\\');
                    out.push(b as char);
                } else if b.is_ascii_graphic() {
                    out.push(b as char);
                } else {
                    out.push_str(&format!("\\{b:03}"));
                }
            }
            out.push('.');
        }
        out
    }

    /// One splitmix64 draw per ASCII letter, labels left to right.
    fn with_mixed_case(&self, seed: u64) -> RefName {
        let mut state = seed;
        let mut next_bit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & 1 == 1
        };
        let mut labels = self.0.clone();
        for b in labels.iter_mut().flatten() {
            if b.is_ascii_alphabetic() {
                *b = if next_bit() {
                    b.to_ascii_uppercase()
                } else {
                    b.to_ascii_lowercase()
                };
            }
        }
        RefName(labels)
    }
}

/// A writer compressing through a map keyed by the lowercased dotted suffix.
#[derive(Default)]
struct RefWriter {
    buf: Vec<u8>,
    compression: HashMap<String, u16>,
}

impl RefWriter {
    fn put_name(&mut self, name: &RefName) {
        for (i, label) in name.0.iter().enumerate() {
            let key = name.0[i..]
                .iter()
                .map(|l| String::from_utf8_lossy(l).to_ascii_lowercase())
                .collect::<Vec<_>>()
                .join(".");
            if let Some(&offset) = self.compression.get(&key) {
                self.buf.extend_from_slice(&(0xC000 | offset).to_be_bytes());
                return;
            }
            if let Ok(offset) = u16::try_from(self.buf.len()) {
                if offset <= 0x3FFF {
                    self.compression.insert(key, offset);
                }
            }
            self.buf.push(label.len() as u8);
            self.buf.extend_from_slice(label);
        }
        self.buf.push(0);
    }
}

fn labels_of(name: &Name) -> Vec<Vec<u8>> {
    name.labels().map(<[u8]>::to_vec).collect()
}

fn hash_of(name: &Name) -> u64 {
    let mut hasher = DefaultHasher::new();
    name.hash(&mut hasher);
    hasher.finish()
}

/// Builds both representations from the same labels and checks that they
/// agree on whether the labels make a name at all.
fn build(labels: &[Vec<u8>]) -> Option<(Name, RefName)> {
    match (Name::from_labels(labels), RefName::from_labels(labels)) {
        (Ok(flat), Ok(reference)) => {
            assert_eq!(labels_of(&flat), reference.0);
            assert_eq!(flat.num_labels(), reference.0.len());
            assert_eq!(flat.wire_len(), reference.wire_len());
            assert_eq!(flat.is_root(), reference.0.is_empty());
            Some((flat, reference))
        }
        (Err(flat), Err(reference)) => {
            assert_eq!(flat, reference);
            None
        }
        (flat, reference) => panic!("{flat:?} against {reference:?} for {labels:?}"),
    }
}

/// Labels that collide often (two letters in either case), ordinary ones,
/// ones of the full 63 octets, and arbitrary octets — dots, backslashes and
/// octets that would pass for a length octet included.
fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        "[aAbB]{1,2}".prop_map(String::into_bytes),
        "[aAbB]{1,2}".prop_map(String::into_bytes),
        "[a-zA-Z0-9-]{1,20}".prop_map(String::into_bytes),
        "[a-zA-Z]{63}".prop_map(String::into_bytes),
        proptest::collection::vec(any::<u8>(), 1..6),
    ]
}

/// Up to six labels: the root, everyday names, and with enough 63-octet
/// labels a name of exactly 255 octets or one beyond the limit.
fn arb_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop_oneof![
        proptest::collection::vec(arb_label(), 0..6),
        (
            "[a-zA-Z]{63}",
            "[a-zA-Z]{63}",
            "[a-zA-Z]{63}",
            "[a-zA-Z]{60,62}"
        )
            .prop_map(|(a, b, c, d)| [a, b, c, d].into_iter().map(String::into_bytes).collect()),
    ]
}

/// Labels for the encoder comparison: mixed case, colliding often, and
/// without a dot inside a label (the string key aliases those, see
/// `wire::tests::a_label_holding_a_dot_is_not_compressed_against_two_labels`).
fn arb_plain_label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        "[aAbB]{1,2}".prop_map(String::into_bytes),
        "[a-zA-Z0-9-]{1,12}".prop_map(String::into_bytes),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_name_agrees_with_the_label_vector_reference(
        first in arb_labels(),
        second in arb_labels(),
        seed in any::<u64>(),
        depth in 0usize..8,
        label in arb_label(),
    ) {
        let Some((a, ref_a)) = build(&first) else { return };
        let mut names = vec![(a.clone(), ref_a.clone())];
        names.extend(build(&second));
        // Relatives of `a`: recased, its ancestors, a child, and `second`
        // planted under it.
        names.push((a.with_mixed_case(seed), ref_a.with_mixed_case(seed)));
        names.push((a.suffix(depth), ref_a.suffix(depth)));
        match (a.parent(), ref_a.parent()) {
            (Some(flat), Some(reference)) => names.push((flat, reference)),
            (None, None) => {}
            (flat, reference) => panic!("{flat:?} against {reference:?}"),
        }
        match (a.child(&label), ref_a.child(&label)) {
            (Ok(flat), Ok(reference)) => names.push((flat, reference)),
            (Err(flat), Err(reference)) => prop_assert_eq!(flat, reference),
            (flat, reference) => panic!("{flat:?} against {reference:?}"),
        }
        let planted: Vec<Vec<u8>> = second.iter().chain(&first).cloned().collect();
        names.extend(build(&planted));

        for (flat, reference) in &names {
            // Case-exact: the same octets, hence the same draws in the same
            // order for `with_mixed_case`.
            prop_assert_eq!(&labels_of(flat), &reference.0);
            prop_assert_eq!(flat.to_string(), reference.display());
        }
        for (x, ref_x) in &names {
            for (y, ref_y) in &names {
                prop_assert_eq!(x == y, ref_x.eq(ref_y), "{} == {}", x, y);
                prop_assert_eq!(x.cmp(y), ref_x.cmp(ref_y), "{} cmp {}", x, y);
                prop_assert_eq!(x.eq_case_exact(y), ref_x == ref_y, "{} exactly {}", x, y);
                prop_assert_eq!(
                    x.is_subdomain_of(y),
                    ref_x.is_subdomain_of(ref_y),
                    "{} under {}", x, y
                );
                if x == y {
                    prop_assert_eq!(hash_of(x), hash_of(y), "{} and {}", x, y);
                    prop_assert_eq!(x.cmp(y), Ordering::Equal);
                }
            }
        }
    }

    #[test]
    fn put_name_emits_what_the_string_keyed_map_emitted(
        suffixes in proptest::collection::vec(proptest::collection::vec(arb_plain_label(), 0..4), 1..4),
        sequence in proptest::collection::vec(
            (
                0usize..4,
                proptest::collection::vec(arb_plain_label(), 0..3),
                proptest::collection::vec(any::<u8>(), 0..12),
                0usize..3,
            ),
            1..12,
        ),
    ) {
        let mut writer = WireWriter::new();
        let mut reference = RefWriter::default();
        let mut written = Vec::new();
        for (pick, prefix, filler, times) in &sequence {
            // Bytes between names (a record's fixed fields, its rdata) move
            // the offsets and may themselves look like labels or pointers.
            writer.put_slice(filler);
            reference.buf.extend_from_slice(filler);
            let labels: Vec<Vec<u8>> = prefix
                .iter()
                .chain(&suffixes[pick % suffixes.len()])
                .cloned()
                .collect();
            let Some((name, ref_name)) = build(&labels) else { continue };
            // The same name again, octet for octet, as every record of an
            // answer repeats the question's name: the writer's shortcut.
            for _ in 0..=*times {
                written.push((writer.len(), name.clone()));
                writer.put_name(&name).unwrap();
                reference.put_name(&ref_name);
                writer.put_slice(&filler[..filler.len().min(2)]);
                reference.buf.extend_from_slice(&filler[..filler.len().min(2)]);
            }
        }
        let bytes = writer.finish();
        prop_assert_eq!(&bytes[..], &reference.buf[..]);
        for (offset, name) in &written {
            let mut reader = WireReader::new(&bytes);
            reader.seek(*offset).unwrap();
            let read = reader.read_name().unwrap();
            prop_assert_eq!(&read, name);
            prop_assert_eq!(read.num_labels(), name.num_labels());
        }
    }
}

#[test]
fn a_suffix_beyond_a_pointers_reach_is_written_in_full_again() {
    let name: Name = "pool.ntp.org".parse().unwrap();
    let ref_name = RefName(labels_of(&name));
    let mut writer = WireWriter::new();
    let mut reference = RefWriter::default();
    // Past 0x3FFF nothing can be registered, so both copies are written out.
    let filler = vec![0u8; 0x4000];
    writer.put_slice(&filler);
    reference.buf.extend_from_slice(&filler);
    for _ in 0..2 {
        writer.put_name(&name).unwrap();
        reference.put_name(&ref_name);
    }
    assert_eq!(writer.len(), filler.len() + 2 * name.wire_len());
    assert_eq!(&writer.finish()[..], &reference.buf[..]);
}
