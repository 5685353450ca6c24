//! Low-level wire readers and writers with RFC 1035 name compression.
//!
//! A [`Name`] already holds its labels the way the wire carries them (one
//! buffer of length-prefixed labels, see [`crate::name`]), so the reader
//! gathers a name's labels straight into that buffer and the writer copies
//! them out of it.
//!
//! # Compression
//!
//! The writer's compression table is the message itself: it keeps only the
//! list of offsets at which it wrote a label sequence it had not written
//! before, and finds a suffix by comparing it, ignoring ASCII case, with
//! the name that starts at each of those offsets (following the pointer the
//! writer may have ended that name with). A suffix is registered only when
//! no registered offset matches it, so the list never holds two equal names
//! and the first registered offset is the only one that can match — the
//! offset a map keyed by the lowercased name would have kept, which is why
//! the emitted bytes are what such a map emitted. Comparing octets, length
//! octets included, cannot confuse the one label `a.b` with the two labels
//! `a`, `b`, which a dotted-string key does. The last name written out in
//! full is also remembered by offset: the same octets again — every owner
//! in an answer that repeats the question's name — become a pointer to it
//! without the search, which could have found that offset and no other.

use crate::error::{WireError, WireResult};
use crate::name::{LabelBuf, Name, MAX_NAME_LEN};

/// Highest offset a compression pointer's 14 bits can address.
const MAX_POINTER_TARGET: u16 = 0x3FFF;

/// Maximum number of compression pointers followed for a single name before
/// the decoder gives up and reports a loop.
const MAX_POINTER_HOPS: usize = 64;

/// Incremental encoder for DNS wire format with name compression.
///
/// The writer records the offset of every name it emits so that later
/// occurrences of the same suffix are replaced by a compression pointer
/// (RFC 1035 §4.1.4).
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Offsets at which a label sequence was first written, in the order
    /// written (see the module documentation).
    names: Vec<u16>,
    /// The last name written out whole, without a pointer, from a registered
    /// offset: where its labels start and how many octets they take. The
    /// same octets again are a pointer to it, found without the search.
    whole: Option<(u16, usize)>,
    /// When `false`, names are always written uncompressed (needed e.g. for
    /// computing canonical forms).
    compress: bool,
}

impl WireWriter {
    /// Creates a writer with name compression enabled.
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(512),
            names: Vec::new(),
            whole: None,
            compress: true,
        }
    }

    /// Creates a writer that never emits compression pointers.
    pub fn uncompressed() -> Self {
        WireWriter {
            compress: false,
            ..WireWriter::new()
        }
    }

    /// Runs `write` on a writer over `out`'s allocation, so `out` ends up
    /// holding what was written in place of its old contents — or nothing
    /// when `write` fails.
    pub(crate) fn write_into(
        out: &mut Vec<u8>,
        compress: bool,
        write: impl FnOnce(&mut WireWriter) -> WireResult<()>,
    ) -> WireResult<()> {
        out.clear();
        let mut w = WireWriter {
            buf: std::mem::take(out),
            compress,
            // No name written yet: an empty list, which owns no memory.
            ..WireWriter::default()
        };
        let written = write(&mut w);
        *out = w.buf;
        if written.is_err() {
            out.clear();
        }
        written
    }

    /// Current length of the encoded output in octets.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single octet.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a 16-bit value in network byte order.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a 32-bit value in network byte order.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw octets.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites a previously written 16-bit value at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 2` is beyond the current length; this is a
    /// programming error in the encoder, not an input error.
    // sdoh-lint: allow(no-panic, "asserted bounds; the documented # Panics contract of this encoder-internal patch")
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        assert!(offset + 2 <= self.buf.len(), "patch_u16 out of range");
        let [hi, lo] = v.to_be_bytes();
        self.buf[offset] = hi;
        self.buf[offset + 1] = lo;
    }

    /// Appends a character-string: one length octet followed by up to 255
    /// octets of data (RFC 1035 §3.3).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::CharacterStringTooLong`] when `s` exceeds 255
    /// octets.
    pub fn put_character_string(&mut self, s: &[u8]) -> WireResult<()> {
        let len = u8::try_from(s.len()).map_err(|_| WireError::CharacterStringTooLong(s.len()))?;
        self.buf.push(len);
        self.buf.extend_from_slice(s);
        Ok(())
    }

    /// Appends a domain name, emitting a compression pointer when an equal
    /// suffix has been written before.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::NameTooLong`] if the name exceeds wire limits.
    pub fn put_name(&mut self, name: &Name) -> WireResult<()> {
        self.put_labels(name.as_wire_labels())
    }

    /// [`WireWriter::put_name`] for a name's labels wherever they lie (a
    /// name lent from a query, or gathered from one): each label behind its
    /// length octet, without the terminating zero, as a [`Name`] holds
    /// them.
    pub(crate) fn put_labels(&mut self, labels: &[u8]) -> WireResult<()> {
        if labels.len() + 1 > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(labels.len() + 1));
        }
        // `rest` is the suffix still to write: the name's buffer from the
        // next length octet on.
        let mut rest = labels;
        // The shortcut of the module doc: that offset is registered and no
        // other registered name equals it.
        if let Some((at, len)) = self.whole {
            let from = usize::from(at);
            if self.buf.get(from..from + len) == Some(rest) {
                self.buf.extend_from_slice(&(0xC000 | at).to_be_bytes());
                return Ok(());
            }
        }
        let (start, labels_len) = (self.buf.len(), rest.len());
        while let Some(&len) = rest.first() {
            if self.compress {
                if let Some(offset) = self.names.iter().find(|&&at| self.wrote_at(at, rest)) {
                    self.buf.extend_from_slice(&(0xC000 | offset).to_be_bytes());
                    return Ok(());
                }
                if let Some(offset) = u16::try_from(self.buf.len())
                    .ok()
                    .filter(|&offset| offset <= MAX_POINTER_TARGET)
                {
                    self.names.push(offset);
                }
            }
            let (label, after) = rest.split_at(rest.len().min(1 + usize::from(len)));
            self.buf.extend_from_slice(label);
            rest = after;
        }
        self.buf.push(0);
        if self.compress && labels_len > 0 {
            if let Some(at) = u16::try_from(start)
                .ok()
                .filter(|&at| at <= MAX_POINTER_TARGET)
            {
                self.whole = Some((at, labels_len));
            }
        }
        Ok(())
    }

    /// Whether the name written at `at` is `suffix` (length-prefixed labels,
    /// no terminating zero), ignoring ASCII case. Pointers only ever lead
    /// backwards, to an offset registered earlier, so the walk ends.
    fn wrote_at(&self, at: u16, mut suffix: &[u8]) -> bool {
        let mut at = usize::from(at);
        loop {
            let Some(&len) = self.buf.get(at) else {
                return false;
            };
            if len == 0 {
                return suffix.is_empty();
            }
            if len & 0xC0 == 0xC0 {
                let Some(&low) = self.buf.get(at + 1) else {
                    return false;
                };
                let target = (usize::from(len & 0x3F) << 8) | usize::from(low);
                if target >= at {
                    return false;
                }
                at = target;
                continue;
            }
            let end = at + 1 + usize::from(len);
            let (Some(written), Some((label, after))) =
                (self.buf.get(at..end), suffix.split_at_checked(end - at))
            else {
                return false;
            };
            if !written.eq_ignore_ascii_case(label) {
                return false;
            }
            at = end;
            suffix = after;
        }
    }

    /// Finishes encoding and returns the wire bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Returns a copy of the bytes written so far without consuming the writer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Cursor-based decoder for DNS wire format.
///
/// The reader keeps the whole message around so that compression pointers can
/// be followed.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over a full DNS message.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// A reader over `data` with the cursor at `pos`.
    pub(crate) fn at(data: &'a [u8], pos: usize) -> Self {
        WireReader { data, pos }
    }

    /// Current cursor position.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of bytes remaining after the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Returns `true` when the cursor has reached the end of the input.
    #[inline]
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// Moves the cursor to an absolute offset.
    ///
    /// # Errors
    ///
    /// Returns an error if `offset` is beyond the end of the message.
    pub fn seek(&mut self, offset: usize) -> WireResult<()> {
        if offset > self.data.len() {
            return Err(WireError::BadCompressionPointer(offset));
        }
        self.pos = offset;
        Ok(())
    }

    /// Reads one octet.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] when the input is exhausted.
    #[inline]
    pub fn read_u8(&mut self) -> WireResult<u8> {
        let v = *self
            .data
            .get(self.pos)
            .ok_or(WireError::UnexpectedEof { expected: "u8" })?;
        self.pos += 1;
        Ok(v)
    }

    /// Reads a 16-bit value in network byte order.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] when fewer than two octets remain.
    #[inline]
    pub fn read_u16(&mut self) -> WireResult<u16> {
        let bytes = self
            .data
            .get(self.pos..self.pos + 2)
            .and_then(|s| <[u8; 2]>::try_from(s).ok())
            .ok_or(WireError::UnexpectedEof { expected: "u16" })?;
        self.pos += 2;
        Ok(u16::from_be_bytes(bytes))
    }

    /// Reads a 32-bit value in network byte order.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] when fewer than four octets remain.
    #[inline]
    pub fn read_u32(&mut self) -> WireResult<u32> {
        let bytes = self
            .data
            .get(self.pos..self.pos + 4)
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
            .ok_or(WireError::UnexpectedEof { expected: "u32" })?;
        self.pos += 4;
        Ok(u32::from_be_bytes(bytes))
    }

    /// Reads exactly `len` octets.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] when fewer than `len` octets remain.
    #[inline]
    pub fn read_bytes(&mut self, len: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(WireError::UnexpectedEof { expected: "bytes" })?;
        let out = self
            .data
            .get(self.pos..end)
            .ok_or(WireError::UnexpectedEof { expected: "bytes" })?;
        self.pos = end;
        Ok(out)
    }

    /// Reads a (possibly compressed) domain name.
    ///
    /// # Errors
    ///
    /// Returns an error for truncated names, invalid pointers or pointer loops.
    #[inline]
    pub fn read_name(&mut self) -> WireResult<Name> {
        let mut labels = LabelBuf::new();
        self.walk_name(&mut labels)?;
        labels.finish()
    }

    /// The name at the cursor: read into a [`Name`] when `KEEP`, otherwise
    /// checked as [`WireReader::read_name`] checks it and stepped over, the
    /// root standing in for it (which allocates nothing).
    #[inline]
    pub(crate) fn name<const KEEP: bool>(&mut self) -> WireResult<Name> {
        if KEEP {
            self.read_name()
        } else {
            self.walk_name(&mut ()).map(|()| Name::root())
        }
    }

    /// The one loop over a (possibly compressed) name: hands each label to
    /// `labels` and leaves the cursor after the name. Reading, skipping,
    /// stepping over and comparing a name are this loop with a different
    /// [`LabelSink`], each its own monomorphised copy; the caller's label
    /// buffer stays in the caller's frame.
    #[inline]
    pub(crate) fn walk_name<S: LabelSink>(&mut self, labels: &mut S) -> WireResult<()> {
        let mut hops = 0usize;
        let mut pos = self.pos;
        let mut followed_pointer = false;
        let mut end_pos = self.pos;
        // As `LabelBuf` counts it: the terminating zero plus every label
        // and its length octet, past the limit too.
        let mut wire_len = 1;

        loop {
            let Some(&len) = self.data.get(pos) else {
                return Err(WireError::UnexpectedEof { expected: "name" });
            };
            match len {
                0 => {
                    pos += 1;
                    if !followed_pointer {
                        end_pos = pos;
                    }
                    break;
                }
                l if l & 0xC0 == 0xC0 => {
                    let Some(&low) = self.data.get(pos + 1) else {
                        return Err(WireError::UnexpectedEof {
                            expected: "compression pointer",
                        });
                    };
                    let target = (usize::from(l & 0x3F) << 8) | usize::from(low);
                    if !followed_pointer {
                        end_pos = pos + 2;
                        followed_pointer = true;
                    }
                    if !S::FOLLOWS_POINTERS {
                        break;
                    }
                    if target >= pos {
                        return Err(WireError::BadCompressionPointer(target));
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::CompressionLoop);
                    }
                    pos = target;
                }
                l if l & 0xC0 != 0 => {
                    // 0x40 / 0x80 label types are not supported.
                    return Err(WireError::InvalidOpt("unsupported label type"));
                }
                l => {
                    let end = pos + 1 + usize::from(l);
                    let Some(label) = self.data.get(pos..end) else {
                        return Err(WireError::UnexpectedEof { expected: "label" });
                    };
                    labels.label(label);
                    wire_len += label.len();
                    pos = end;
                    if !followed_pointer {
                        end_pos = pos;
                    }
                }
            }
        }

        self.pos = end_pos;
        if wire_len > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wire_len));
        }
        Ok(())
    }
}

/// Where [`WireReader::walk_name`] puts the labels it reads.
pub(crate) trait LabelSink {
    /// Whether the walk follows compression pointers, checking every label
    /// they lead to. Only a step over a name already checked (or written by
    /// this end) stops at its first pointer.
    const FOLLOWS_POINTERS: bool = true;

    /// Takes the next label, leftmost first, as the wire carries it: its
    /// length octet (1..=63) and that many octets.
    fn label(&mut self, label: &[u8]);
}

/// An owned name: the labels gathered into a [`Name`]'s buffer.
impl LabelSink for LabelBuf {
    #[inline]
    fn label(&mut self, label: &[u8]) {
        self.push_wire(label);
    }
}

/// A skip: the labels go nowhere.
impl LabelSink for () {
    #[inline]
    fn label(&mut self, _: &[u8]) {}
}

/// A step over a name already checked: where it ends is all that is
/// wanted, and that is the first pointer or the terminating zero.
pub(crate) struct Step;

impl LabelSink for Step {
    const FOLLOWS_POINTERS: bool = false;

    #[inline]
    fn label(&mut self, _: &[u8]) {}
}

/// A comparison: the labels read are held against a name's, ignoring ASCII
/// case, as `Name: PartialEq` compares.
pub(crate) struct SameName<'n> {
    /// What of the name's buffer the labels so far have not matched;
    /// `None` once one differed.
    rest: Option<&'n [u8]>,
}

impl<'n> SameName<'n> {
    /// Against a name's length-prefixed labels, without the terminating
    /// zero, as a [`Name`] holds them.
    pub(crate) fn new(labels: &'n [u8]) -> Self {
        SameName { rest: Some(labels) }
    }

    /// Whether the labels read were exactly the name's.
    pub(crate) fn matched(&self) -> bool {
        self.rest.is_some_and(<[u8]>::is_empty)
    }
}

impl LabelSink for SameName<'_> {
    /// A length octet is never a letter (see [`crate::name`]), so one
    /// case-blind comparison covers it and the label.
    #[inline]
    fn label(&mut self, label: &[u8]) {
        self.rest = self.rest.and_then(|rest| {
            let (theirs, after) = rest.split_at_checked(label.len())?;
            theirs.eq_ignore_ascii_case(label).then_some(after)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_slice(b"xyz");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16().unwrap(), 0x1234);
        assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bytes(3).unwrap(), b"xyz");
        assert!(r.is_at_end());
    }

    #[test]
    fn eof_errors() {
        let mut r = WireReader::new(&[0x01]);
        assert!(r.read_u16().is_err());
        assert_eq!(r.read_u8().unwrap(), 1);
        assert!(r.read_u8().is_err());
        assert!(r.read_u32().is_err());
        assert!(r.read_bytes(1).is_err());
    }

    #[test]
    fn name_roundtrip_uncompressed() {
        let name: Name = "www.example.org".parse().unwrap();
        let mut w = WireWriter::uncompressed();
        w.put_name(&name).unwrap();
        let bytes = w.finish();
        assert_eq!(bytes.len(), name.wire_len());
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), name);
        assert!(r.is_at_end());
    }

    #[test]
    fn root_name_roundtrip() {
        let mut w = WireWriter::new();
        w.put_name(&Name::root()).unwrap();
        let bytes = w.finish();
        assert_eq!(&bytes[..], &[0u8]);
        let mut r = WireReader::new(&bytes);
        assert!(r.read_name().unwrap().is_root());
    }

    #[test]
    fn compression_reuses_suffix() {
        let a: Name = "a.example.org".parse().unwrap();
        let b: Name = "b.example.org".parse().unwrap();
        let mut w = WireWriter::new();
        w.put_name(&a).unwrap();
        let after_first = w.len();
        w.put_name(&b).unwrap();
        let bytes = w.finish();
        // Second name: 1 + 1 ("b") + 2 (pointer) = 4 octets.
        assert_eq!(bytes.len() - after_first, 4);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), a);
        assert_eq!(r.read_name().unwrap(), b);
    }

    #[test]
    fn compression_is_case_insensitive() {
        let a: Name = "host.EXAMPLE.org".parse().unwrap();
        let b: Name = "other.example.ORG".parse().unwrap();
        let mut w = WireWriter::new();
        w.put_name(&a).unwrap();
        w.put_name(&b).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), a);
        assert_eq!(r.read_name().unwrap(), b);
    }

    #[test]
    fn identical_name_compresses_to_pointer_only() {
        let a: Name = "ntp.example.org".parse().unwrap();
        let mut w = WireWriter::new();
        w.put_name(&a).unwrap();
        let first = w.len();
        w.put_name(&a).unwrap();
        assert_eq!(w.len() - first, 2);
    }

    #[test]
    fn a_label_holding_a_dot_is_not_compressed_against_two_labels() {
        let one_label = Name::from_labels([&b"a.b"[..], b"org"]).unwrap();
        let two_labels: Name = "a.b.org".parse().unwrap();
        assert_eq!(one_label.to_string(), "a\\.b.org.");
        let mut w = WireWriter::new();
        w.put_name(&one_label).unwrap();
        w.put_name(&two_labels).unwrap();
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), one_label);
        let second = r.read_name().unwrap();
        assert_eq!(second.num_labels(), 3);
        assert_eq!(second, two_labels);
        // Only `org` is shared: 1+1 ("a") + 1+1 ("b") + 2 (pointer).
        assert_eq!(bytes.len(), one_label.wire_len() + 6);
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer at offset 0 pointing to offset 4 (>= its own position).
        let data = [0xC0, 0x04, 0x00, 0x00, 0x00];
        let mut r = WireReader::new(&data);
        assert!(matches!(
            r.read_name(),
            Err(WireError::BadCompressionPointer(4))
        ));
    }

    #[test]
    fn truncated_label_rejected() {
        let data = [0x05, b'a', b'b'];
        let mut r = WireReader::new(&data);
        assert!(r.read_name().is_err());
    }

    #[test]
    fn truncated_pointer_rejected() {
        let data = [0x01, b'a', 0xC0];
        let mut r = WireReader::new(&data);
        assert!(r.read_name().is_err());
    }

    #[test]
    fn unsupported_label_type_rejected() {
        let data = [0x41, b'a', 0x00];
        let mut r = WireReader::new(&data);
        assert!(r.read_name().is_err());
    }

    #[test]
    fn character_string_roundtrip() {
        let mut w = WireWriter::new();
        w.put_character_string(b"hello world").unwrap();
        assert!(w.put_character_string(&[0u8; 256]).is_err());
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 11);
        assert_eq!(r.read_bytes(11).unwrap(), b"hello world");
    }

    #[test]
    fn patch_u16_overwrites() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u16(0xFFFF);
        w.patch_u16(0, 0x0102);
        let bytes = w.finish();
        assert_eq!(&bytes[..], &[0x01, 0x02, 0xFF, 0xFF]);
    }

    #[test]
    fn reader_seek_and_position() {
        let data = [1u8, 2, 3, 4];
        let mut r = WireReader::new(&data);
        r.read_u16().unwrap();
        assert_eq!(r.position(), 2);
        r.seek(1).unwrap();
        assert_eq!(r.read_u8().unwrap(), 2);
        assert!(r.seek(10).is_err());
    }
}
