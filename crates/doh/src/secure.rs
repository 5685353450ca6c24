//! The secure-channel layer standing in for TLS.
//!
//! The paper relies on HTTPS purely as an *authenticated, integrity
//! protected channel to a named resolver*. This module provides that
//! abstraction for the simulation:
//!
//! * each resolver has a pinned symmetric [`SecretKey`] shared with its
//!   legitimate clients (modelling certificate pinning / the WebPKI),
//! * application bytes are carried in [`seal`]ed records whose tag binds
//!   the key, a direction/sequence number and the ciphertext,
//! * a peer without the key can neither read nor forge records ([`open`]
//!   fails), which is exactly the property the on-path adversary model in
//!   `sdoh-netsim` grants to [`ChannelKind::Secure`](sdoh_netsim::ChannelKind)
//!   traffic.
//!
//! The cipher is a keyed xorshift keystream with a 64-bit polynomial tag.
//! **It is not cryptographically secure and must never be used outside this
//! simulation**; it exists so that the full DoH code path (handshake,
//! record framing, tag verification, key pinning) is exercised end to end.

use std::collections::HashMap;
use std::fmt;

use crate::error::{DohError, DohResult};

/// A 256-bit pre-shared channel key pinned to a resolver name.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(pub [u8; 32]);

impl SecretKey {
    /// Derives a key deterministically from a seed and a label; used by the
    /// resolver directory so that a whole fleet can be provisioned from one
    /// experiment seed.
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut key = [0u8; 32];
        for (i, b) in label.bytes().enumerate() {
            state = mix(state ^ (u64::from(b) << (8 * (i % 8))));
        }
        for chunk in key.chunks_mut(8) {
            state = mix(state);
            chunk.copy_from_slice(&state.to_be_bytes());
        }
        SecretKey(key)
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finaliser.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn keystream_word(key: &SecretKey, seq: u64, counter: u64) -> u64 {
    let mut state = seq ^ 0xA5A5_A5A5_5A5A_5A5A;
    for chunk in key.0.chunks(8) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        state = mix(state ^ u64::from_be_bytes(word));
    }
    mix(state ^ counter.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

fn tag(key: &SecretKey, seq: u64, data: &[u8]) -> u64 {
    let mut acc = keystream_word(key, seq, u64::MAX);
    for (i, &b) in (0u64..).zip(data) {
        acc = mix(acc ^ (u64::from(b) << (8 * (i % 8))) ^ i);
    }
    acc
}

/// Appends `data` XORed with the keystream of `(key, seq)` to `out`: word
/// `n` of the stream covers bytes `8n..8n + 8`, big end first.
fn apply_keystream(key: &SecretKey, seq: u64, data: &[u8], out: &mut Vec<u8>) {
    for (counter, block) in (0u64..).zip(data.chunks(8)) {
        let word = keystream_word(key, seq, counter).to_be_bytes();
        out.extend(block.iter().zip(word).map(|(&b, ks_byte)| b ^ ks_byte));
    }
}

/// Seals plaintext into a record: `ciphertext || 8-byte tag`.
pub fn seal(key: &SecretKey, seq: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + 8);
    apply_keystream(key, seq, plaintext, &mut out);
    let t = tag(key, seq, &out);
    out.extend_from_slice(&t.to_be_bytes());
    out
}

/// Opens a sealed record, verifying its tag.
///
/// # Errors
///
/// Returns [`DohError::ChannelAuthentication`] when the record is too short
/// or its tag does not verify (wrong key, tampering, wrong sequence number).
pub fn open(key: &SecretKey, seq: u64, record: &[u8]) -> DohResult<Vec<u8>> {
    if record.len() < 8 {
        return Err(DohError::ChannelAuthentication(
            "record shorter than its tag".into(),
        ));
    }
    let (ciphertext, tag_bytes) = record.split_at(record.len() - 8);
    let expected = tag(key, seq, ciphertext);
    let presented = u64::from_be_bytes(
        <[u8; 8]>::try_from(tag_bytes)
            .map_err(|_| DohError::ChannelAuthentication("record tag truncated".into()))?,
    );
    if expected != presented {
        return Err(DohError::ChannelAuthentication(
            "record tag verification failed".into(),
        ));
    }
    let mut out = Vec::with_capacity(ciphertext.len());
    apply_keystream(key, seq, ciphertext, &mut out);
    Ok(out)
}

/// Sequence number used for client-to-server records.
pub const SEQ_CLIENT: u64 = 0;
/// Sequence number used for server-to-client records.
pub const SEQ_SERVER: u64 = 1;

/// A secure envelope: the server name the client thinks it is talking to
/// ("SNI" + certificate pinning in one) plus one sealed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureEnvelope {
    /// The server identity the record is keyed to.
    pub server_name: String,
    /// The sealed record.
    pub record: Vec<u8>,
}

impl SecureEnvelope {
    /// Serialises the envelope for transmission.
    pub fn encode(&self) -> Vec<u8> {
        let name = self.server_name.as_bytes();
        let mut out = Vec::with_capacity(3 + name.len() + self.record.len());
        out.push(0x01); // version
                        // Resolver names are bounded far below 64 KiB by the directory; a
                        // longer name would already violate the provisioning invariant.
        out.extend_from_slice(&(name.len() as u16).to_be_bytes()); // sdoh-lint: allow(no-narrowing-cast, "resolver names are bounded far below 64 KiB by the directory")
        out.extend_from_slice(name);
        out.extend_from_slice(&self.record);
        out
    }

    /// Parses an envelope.
    ///
    /// # Errors
    ///
    /// Returns [`DohError::Protocol`] for truncated or unknown-version
    /// envelopes.
    pub fn decode(data: &[u8]) -> DohResult<Self> {
        let Some(&[version, hi, lo]) = data.get(..3) else {
            return Err(DohError::Protocol("secure envelope too short".into()));
        };
        if version != 0x01 {
            return Err(DohError::Protocol("unknown secure envelope version".into()));
        }
        let name_len = usize::from(u16::from_be_bytes([hi, lo]));
        let name_bytes = data
            .get(3..3 + name_len)
            .ok_or_else(|| DohError::Protocol("secure envelope name truncated".into()))?;
        let server_name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| DohError::Protocol("server name is not utf-8".into()))?;
        Ok(SecureEnvelope {
            server_name,
            record: data.get(3 + name_len..).unwrap_or(&[]).to_vec(),
        })
    }
}

/// A pinned-key store: resolver name to channel key.
#[derive(Debug, Clone, Default)]
pub struct KeyStore {
    keys: HashMap<String, SecretKey>,
}

impl KeyStore {
    /// Creates an empty key store.
    pub fn new() -> Self {
        KeyStore::default()
    }

    /// Pins `key` for `server_name`.
    pub fn pin(&mut self, server_name: &str, key: SecretKey) {
        self.keys.insert(server_name.to_string(), key);
    }

    /// The pinned key for `server_name`, if any.
    pub fn key_for(&self, server_name: &str) -> Option<&SecretKey> {
        self.keys.get(server_name)
    }

    /// Number of pinned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when no keys are pinned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let key = SecretKey::derive(42, "dns.google");
        let plaintext = b"PRI * HTTP/2.0 and some dns bytes".to_vec();
        let record = seal(&key, SEQ_CLIENT, &plaintext);
        assert_ne!(&record[..plaintext.len()], plaintext.as_slice());
        let opened = open(&key, SEQ_CLIENT, &record).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn wrong_key_fails() {
        let key = SecretKey::derive(42, "dns.google");
        let wrong = SecretKey::derive(42, "evil.example");
        let record = seal(&key, SEQ_CLIENT, b"secret");
        assert!(open(&wrong, SEQ_CLIENT, &record).is_err());
    }

    #[test]
    fn wrong_sequence_fails() {
        let key = SecretKey::derive(1, "dns.quad9.net");
        let record = seal(&key, SEQ_CLIENT, b"hello");
        assert!(open(&key, SEQ_SERVER, &record).is_err());
    }

    #[test]
    fn tampering_is_detected() {
        let key = SecretKey::derive(7, "cloudflare-dns.com");
        let mut record = seal(&key, SEQ_SERVER, b"response body");
        record[3] ^= 0x01;
        assert!(open(&key, SEQ_SERVER, &record).is_err());
        // Truncation detected too.
        assert!(open(&key, SEQ_SERVER, &record[..4]).is_err());
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let key = SecretKey::derive(3, "dns.google");
        let record = seal(&key, SEQ_CLIENT, b"");
        assert_eq!(record.len(), 8);
        assert_eq!(open(&key, SEQ_CLIENT, &record).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn key_derivation_is_deterministic_and_label_sensitive() {
        assert_eq!(
            SecretKey::derive(5, "dns.google").0,
            SecretKey::derive(5, "dns.google").0
        );
        assert_ne!(
            SecretKey::derive(5, "dns.google").0,
            SecretKey::derive(5, "dns.quad9.net").0
        );
        assert_ne!(
            SecretKey::derive(5, "dns.google").0,
            SecretKey::derive(6, "dns.google").0
        );
    }

    #[test]
    fn envelope_roundtrip() {
        let envelope = SecureEnvelope {
            server_name: "dns.google".to_string(),
            record: vec![1, 2, 3, 4],
        };
        let encoded = envelope.encode();
        assert_eq!(SecureEnvelope::decode(&encoded).unwrap(), envelope);
    }

    #[test]
    fn envelope_rejects_malformed_input() {
        assert!(SecureEnvelope::decode(&[]).is_err());
        assert!(SecureEnvelope::decode(&[0x02, 0, 0]).is_err());
        assert!(SecureEnvelope::decode(&[0x01, 0, 10, b'a']).is_err());
    }

    #[test]
    fn keystore_pins_and_looks_up() {
        let mut store = KeyStore::new();
        assert!(store.is_empty());
        store.pin("dns.google", SecretKey::derive(1, "dns.google"));
        store.pin("dns.quad9.net", SecretKey::derive(1, "dns.quad9.net"));
        assert_eq!(store.len(), 2);
        assert!(store.key_for("dns.google").is_some());
        assert!(store.key_for("unknown.example").is_none());
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let key = SecretKey::derive(9, "dns.google");
        assert_eq!(format!("{key:?}"), "SecretKey(..)");
    }
}
