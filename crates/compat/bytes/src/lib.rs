//! Stand-in for the `bytes` crate, backed by `Vec<u8>`.
//!
//! Provides the subset this workspace uses: `BytesMut` as a growable buffer
//! with the big-endian `BufMut` putters, and `Bytes` as a cheaply clonable
//! frozen buffer. The real crate's refcounted zero-copy splitting is not
//! needed by the simulator's message sizes.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A frozen, cheaply clonable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<Vec<u8>>);

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::new(data.to_vec()))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::new(v))
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

/// A growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Appends `data` to the buffer.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes(Arc::new(self.0))
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut(v)
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Self {
        b.0
    }
}

/// Big-endian buffer-writing operations: a writer gives `put_slice`, and
/// the putters of wider values come with it, as in the real crate.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, v: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn put_slice(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn putters_are_big_endian() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(0xAB);
        buf.put_u16(0x0102);
        buf.put_u32(0x03040506);
        buf.put_slice(b"xy");
        assert_eq!(&buf[..], &[0xAB, 1, 2, 3, 4, 5, 6, b'x', b'y']);
        let frozen = buf.freeze();
        assert_eq!(frozen.len(), 9);
        assert_eq!(frozen.to_vec()[0], 0xAB);
    }

    #[test]
    fn take_resets_buffer() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"abc");
        let taken = std::mem::take(&mut buf);
        assert_eq!(taken.to_vec(), b"abc");
        assert!(buf.is_empty());
    }
}
