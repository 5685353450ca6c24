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
//! The cipher is a keyed splitmix keystream with a 64-bit chained tag.
//! **It is not cryptographically secure and must never be used outside this
//! simulation**; it exists so that the full DoH code path (handshake,
//! record framing, tag verification, key pinning) is exercised end to end.
//!
//! # The record
//!
//! A record is `ciphertext || tag`, the tag 8 octets, big end first. Key
//! and sequence number are absorbed into a stream state; word `n` of its
//! keystream covers octets `8n..8n + 8` of the record and is XORed over
//! them where they lie. The tag absorbs the ciphertext a word per step,
//! chained in **four lanes**: word `i` goes into lane `i mod 4`.
//!
//! ```text
//! lane[k] = word(u64::MAX - k)     k = 0..4: four distinct start values
//! lane[i mod 4] = mix(lane[i mod 4] ^ w)
//!                                  each full big-endian 8-octet word w, i its index
//! lane[n mod 4] = mix(lane[n mod 4] ^ tail)
//!                                  the 0..=7 octets left over, zero-padded, n the number
//!                                  of full words; always, also when none are left
//! acc = 0
//! acc = mix(acc ^ lane[k])         k = 0, 1, 2, 3: the lanes folded in lane order
//! tag = mix(acc ^ len)             the ciphertext's length in octets
//! ```
//!
//! `mix` is a bijection, so the tag is bound to the key and the sequence
//! number (the start values), to every octet at its position (one changed
//! word changes every later value of its lane; two words swapped between
//! lanes meet different start values, within a lane a different chain),
//! and to the record's length (`"ab"` and `"ab\0"` share a tail word and
//! still differ). One lane made every word wait for the `mix` of the one
//! before it; with four independent chains the keystream's multiplies and
//! the lanes' multiplies overlap.
//!
//! The key is absorbed **once per key and direction**: a [`SecretKey`]
//! carries the stream states (keystream state and lane start values) of
//! [`SEQ_CLIENT`] and [`SEQ_SERVER`], made with the key, and any other
//! sequence number goes through the same absorb function at call time.
//!
//! The keystream octets are the ones this module always produced —
//! `word(n)` is computed from the same constants in the same order — and
//! only the chain over them changed when the tag went from one lane to
//! four: a ciphertext sealed before differs from one sealed now in its
//! last 8 octets only, and a record's length, hence every byte count an
//! exchange reports, is what it was.
//!
//! Sealing and opening are **one pass** over the octets: each word is
//! XORed and chained into its lane in the same step (sealing chains the
//! word it wrote, opening the word it read), so the record is walked once,
//! not once to cipher and once to tag. Opening therefore deciphers before
//! it knows whether the tag holds; a record whose tag fails is put back as
//! it was given by applying the keystream again, so a failed
//! [`open_in_place`] leaves its buffer byte for byte untouched.

use std::fmt;

use crate::error::{DohError, DohResult};

/// A 256-bit pre-shared channel key pinned to a resolver name, with the
/// stream states of both directions absorbed from it once (the module
/// doc, "The record").
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    octets: [u8; 32],
    /// The streams of [`SEQ_CLIENT`] and [`SEQ_SERVER`], in that order.
    directions: [Stream; 2],
}

impl SecretKey {
    /// Derives a key deterministically from a seed and a label; used by the
    /// resolver directory so that a whole fleet can be provisioned from one
    /// experiment seed.
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut octets = [0u8; 32];
        for (i, b) in label.bytes().enumerate() {
            state = mix(state ^ (u64::from(b) << (8 * (i % 8))));
        }
        for chunk in octets.chunks_mut(8) {
            state = mix(state);
            chunk.copy_from_slice(&state.to_be_bytes());
        }
        SecretKey {
            octets,
            directions: [
                Stream::absorb(&octets, SEQ_CLIENT),
                Stream::absorb(&octets, SEQ_SERVER),
            ],
        }
    }

    /// The stream of `seq`: made with the key for the two directions,
    /// absorbed here for any other sequence number.
    fn stream(&self, seq: u64) -> Stream {
        let [client, server] = self.directions;
        match seq {
            SEQ_CLIENT => client,
            SEQ_SERVER => server,
            _ => Stream::absorb(&self.octets, seq),
        }
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

/// The keystream of one `(key, seq)` and the start values of its tag's
/// four lanes: everything a record needs of the key, every keystream word
/// one `mix` away.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Stream {
    state: u64,
    lanes: [u64; 4],
}

impl Stream {
    /// Absorbs the key and the sequence number: the one place a key's
    /// octets are read.
    fn absorb(key: &[u8; 32], seq: u64) -> Self {
        let (words, _) = key.as_chunks::<8>();
        let state = words
            .iter()
            .fold(seq ^ 0xA5A5_A5A5_5A5A_5A5A, |state, word| {
                mix(state ^ u64::from_be_bytes(*word))
            });
        let mut stream = Stream {
            state,
            lanes: [0; 4],
        };
        stream.lanes = [0, 1, 2, 3].map(|k| stream.word(u64::MAX - k));
        stream
    }

    fn word(self, n: u64) -> u64 {
        mix(self.state ^ n.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// XORs the keystream over `data` in place, 8 octets at a time. The
    /// operation is its own inverse.
    fn apply(self, data: &mut [u8]) {
        let (words, tail) = data.as_chunks_mut::<8>();
        let mut n = 0u64;
        for word in words {
            *word = (u64::from_be_bytes(*word) ^ self.word(n)).to_be_bytes();
            n += 1;
        }
        for (octet, key_octet) in tail.iter_mut().zip(self.word(n).to_be_bytes()) {
            *octet ^= key_octet;
        }
    }

    /// Word `n` of a record: the keystream XORed over it and, in the same
    /// step, the ciphertext chained into `lane` — the word written when
    /// sealing (`SEAL`), the word read when opening.
    #[inline(always)]
    fn step<const SEAL: bool>(self, word: &mut [u8; 8], n: u64, lane: &mut u64) {
        let read = u64::from_be_bytes(*word);
        let written = read ^ self.word(n);
        *word = written.to_be_bytes();
        *lane = mix(*lane ^ if SEAL { written } else { read });
    }

    /// The one pass over a record's octets, four words at a time, one per
    /// lane. Returns the tag of the ciphertext; the module doc spells out
    /// the chain.
    fn pass<const SEAL: bool>(self, data: &mut [u8]) -> u64 {
        let len = u64::try_from(data.len()).unwrap_or(u64::MAX);
        let mut lanes = self.lanes;
        let (words, tail) = data.as_chunks_mut::<8>();
        let (quads, rest) = words.as_chunks_mut::<4>();
        let mut n = 0u64;
        for quad in quads {
            for (word, lane) in quad.iter_mut().zip(&mut lanes) {
                self.step::<SEAL>(word, n, lane);
                n += 1;
            }
        }
        let mut open_lanes = lanes.iter_mut();
        for (word, lane) in rest.iter_mut().zip(&mut open_lanes) {
            self.step::<SEAL>(word, n, lane);
            n += 1;
        }
        // The tail's lane is the next one: fewer than four words are left
        // over, so there always is one.
        let mut last = [0u8; 8];
        for ((octet, key_octet), cipher) in tail
            .iter_mut()
            .zip(self.word(n).to_be_bytes())
            .zip(&mut last)
        {
            let read = *octet;
            *octet ^= key_octet;
            *cipher = if SEAL { *octet } else { read };
        }
        if let Some(lane) = open_lanes.next() {
            *lane = mix(*lane ^ u64::from_be_bytes(last));
        }
        let acc = lanes.iter().fold(0, |acc, &lane| mix(acc ^ lane));
        mix(acc ^ len)
    }
}

/// Seals plaintext into a record: `ciphertext || 8-byte tag`.
pub fn seal(key: &SecretKey, seq: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(plaintext.len() + 8);
    record.extend_from_slice(plaintext);
    seal_in_place(key, seq, &mut record, 0);
    record
}

/// Seals the octets of `buf` from offset `from` on where they lie and
/// appends the tag, so that `buf[from..]` is the record [`seal`] would
/// have built from them. What precedes `from` (an envelope header) is left
/// alone; a `from` past the end seals the empty plaintext.
pub fn seal_in_place(key: &SecretKey, seq: u64, buf: &mut Vec<u8>, from: usize) {
    let plaintext = buf.get_mut(from..).unwrap_or_default();
    let tag = key.stream(seq).pass::<true>(plaintext);
    buf.extend_from_slice(&tag.to_be_bytes());
}

/// Opens a sealed record, verifying its tag.
///
/// # Errors
///
/// Returns [`DohError::ChannelAuthentication`] when the record is too short
/// or its tag does not verify (wrong key, tampering, wrong sequence number).
pub fn open(key: &SecretKey, seq: u64, record: &[u8]) -> DohResult<Vec<u8>> {
    let mut plaintext = record.to_vec();
    let len = open_in_place(key, seq, &mut plaintext)?.len();
    plaintext.truncate(len);
    Ok(plaintext)
}

/// [`open`] where the record lies: the ciphertext is deciphered in place
/// while its tag is computed, in one pass, and returned, the tag left
/// behind it.
///
/// # Errors
///
/// As [`open`]; the record is then put back as it was given (the module
/// doc, "The record").
pub fn open_in_place<'r>(key: &SecretKey, seq: u64, record: &'r mut [u8]) -> DohResult<&'r [u8]> {
    let Some((ciphertext, presented)) = record.split_last_chunk_mut::<8>() else {
        return Err(DohError::ChannelAuthentication(
            "record shorter than its tag".into(),
        ));
    };
    let stream = key.stream(seq);
    if stream.pass::<false>(ciphertext) != u64::from_be_bytes(*presented) {
        stream.apply(ciphertext);
        return Err(DohError::ChannelAuthentication(
            "record tag verification failed".into(),
        ));
    }
    Ok(ciphertext)
}

/// Sequence number used for client-to-server records.
pub const SEQ_CLIENT: u64 = 0;
/// Sequence number used for server-to-client records.
pub const SEQ_SERVER: u64 = 1;

/// A secure envelope: the server name the client thinks it is talking to
/// ("SNI" + certificate pinning in one) plus one sealed record.
///
/// This is the owned form. The two ends of an exchange never build one:
/// they write the header with [`SecureEnvelope::begin`], seal the record
/// behind it in the same buffer and read a received payload through
/// [`SecureEnvelope::split`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureEnvelope {
    /// The server identity the record is keyed to.
    pub server_name: String,
    /// The sealed record.
    pub record: Vec<u8>,
}

impl SecureEnvelope {
    /// Starts a payload for `server_name`: a buffer holding the envelope's
    /// header (the version octet, the name's length, the name) with room
    /// for an exchange over UDP-sized DNS messages, HTTP/2 framing and
    /// record tag included, so a typical payload is allocated once and a
    /// larger one grows. The record follows the header.
    pub fn begin(server_name: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        // Resolver names are bounded far below 64 KiB by the directory: the
        // length is the low two octets.
        let [.., hi, lo] = server_name.len().to_be_bytes();
        out.extend_from_slice(&[0x01, hi, lo]);
        out.extend_from_slice(server_name.as_bytes());
        out
    }

    /// Splits an encoded envelope into the server name and the sealed
    /// record, both borrowed from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DohError::Protocol`] for truncated or unknown-version
    /// envelopes.
    pub fn split(data: &[u8]) -> DohResult<(&str, &[u8])> {
        let Some((&[version, hi, lo], rest)) = data.split_first_chunk::<3>() else {
            return Err(DohError::Protocol("secure envelope too short".into()));
        };
        if version != 0x01 {
            return Err(DohError::Protocol("unknown secure envelope version".into()));
        }
        let (name, record) = rest
            .split_at_checked(usize::from(u16::from_be_bytes([hi, lo])))
            .ok_or_else(|| DohError::Protocol("secure envelope name truncated".into()))?;
        let name = std::str::from_utf8(name)
            .map_err(|_| DohError::Protocol("server name is not utf-8".into()))?;
        Ok((name, record))
    }

    /// Serialises the envelope for transmission.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Self::begin(&self.server_name);
        out.extend_from_slice(&self.record);
        out
    }

    /// Parses an envelope.
    ///
    /// # Errors
    ///
    /// As [`SecureEnvelope::split`].
    pub fn decode(data: &[u8]) -> DohResult<Self> {
        let (server_name, record) = Self::split(data)?;
        Ok(SecureEnvelope {
            server_name: server_name.to_string(),
            record: record.to_vec(),
        })
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

    /// Captured at the commit before the tag absorbed a word per step:
    /// the keystream did not move, so the ciphertext octets are the ones
    /// the per-octet implementation produced.
    #[test]
    fn ciphertext_matches_the_golden_vector() {
        let key = SecretKey::derive(42, "dns.google");
        let record = seal(
            &key,
            SEQ_CLIENT,
            b"PRI * HTTP/2.0 over a forty-octet record",
        );
        let golden: [u8; 40] = [
            0xf4, 0x94, 0x1e, 0x26, 0xb2, 0x79, 0x26, 0xad, 0x95, 0xf5, 0x13, 0xa4, 0x4f, 0x8e,
            0x9d, 0xdb, 0x25, 0x7b, 0x8c, 0xeb, 0xb5, 0xd3, 0x36, 0x4b, 0xaa, 0x6e, 0x37, 0xf7,
            0xaa, 0x98, 0x54, 0xb0, 0xa3, 0x4b, 0x3b, 0xcf, 0x9b, 0xf7, 0x84, 0x1f,
        ];
        assert_eq!(record.len(), 48);
        assert_eq!(record[..40], golden);
    }

    /// The tag of the golden vector's record, captured when the tag went
    /// from one lane to four: the keystream above did not move, only
    /// these 8 octets did.
    #[test]
    fn tag_matches_the_golden_vector() {
        let key = SecretKey::derive(42, "dns.google");
        let record = seal(
            &key,
            SEQ_CLIENT,
            b"PRI * HTTP/2.0 over a forty-octet record",
        );
        let golden: [u8; 8] = [0xce, 0xa4, 0x47, 0xcb, 0xf6, 0xa5, 0x1c, 0x0a];
        assert_eq!(record[40..], golden);
    }

    /// Two distinct words of a record swapped, in the same lane or in two
    /// different ones, the tag included: the record no longer opens.
    #[test]
    fn a_record_with_two_words_swapped_does_not_open() {
        let key = SecretKey::derive(42, "dns.google");
        let text: Vec<u8> = (0..72u8).map(|i| i.wrapping_mul(29) ^ 0xC3).collect();
        let mut swaps = 0;
        for len in [16, 23, 32, 40, 57, 64, 72] {
            let record = seal(&key, SEQ_CLIENT, &text[..len]);
            let words = record.len() / 8;
            for i in 0..words {
                for j in i + 1..words {
                    let mut swapped = record.clone();
                    let (a, b) = (i * 8, j * 8);
                    if swapped[a..a + 8] == swapped[b..b + 8] {
                        continue;
                    }
                    for k in 0..8 {
                        swapped.swap(a + k, b + k);
                    }
                    assert!(
                        open(&key, SEQ_CLIENT, &swapped).is_err(),
                        "words {i} and {j} of {len}"
                    );
                    swaps += 1;
                }
            }
        }
        assert!(swaps > 100, "{swaps} swaps");
    }

    /// A sequence number other than the two directions absorbs the key at
    /// call time, into the states the directions were made with.
    #[test]
    fn the_directions_are_the_streams_absorbed_at_call_time() {
        let key = SecretKey::derive(42, "dns.google");
        assert!(key.stream(SEQ_CLIENT) == Stream::absorb(&key.octets, SEQ_CLIENT));
        assert!(key.stream(SEQ_SERVER) == Stream::absorb(&key.octets, SEQ_SERVER));
        let record = seal(&key, 7, b"a third direction");
        assert_eq!(record, two_pass_seal(&key, 7, b"a third direction"));
        assert_eq!(open(&key, 7, &record).unwrap(), b"a third direction");
        assert!(open(&key, SEQ_SERVER, &record).is_err());
    }

    /// Every plaintext length around the word boundaries: the record opens,
    /// and no record one bit, one octet or one parameter away from it does.
    #[test]
    fn every_neighbour_of_a_record_is_rejected() {
        let key = SecretKey::derive(42, "dns.google");
        let other = SecretKey::derive(43, "dns.google");
        let text: Vec<u8> = (1..=33).collect();
        for len in 0..=text.len() {
            let plaintext = &text[..len];
            let record = seal(&key, SEQ_CLIENT, plaintext);
            assert_eq!(record.len(), len + 8);
            assert_eq!(open(&key, SEQ_CLIENT, &record).unwrap(), plaintext);
            assert!(open(&key, SEQ_SERVER, &record).is_err(), "sequence, {len}");
            assert!(open(&other, SEQ_CLIENT, &record).is_err(), "key, {len}");

            for bit in 0..record.len() * 8 {
                let mut flipped = record.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    open(&key, SEQ_CLIENT, &flipped).is_err(),
                    "bit {bit} of {len}"
                );
            }
            for kept in 0..record.len() {
                assert!(
                    open(&key, SEQ_CLIENT, &record[..kept]).is_err(),
                    "{kept} of {len}"
                );
                let mut shortened = record.clone();
                shortened.remove(kept);
                assert!(
                    open(&key, SEQ_CLIENT, &shortened).is_err(),
                    "without {kept} of {len}"
                );
            }
            // One more octet anywhere before the tag, `len` appending it.
            for at in 0..=len {
                for octet in [0x00, 0x01, 0xFF] {
                    let mut extended = record.clone();
                    extended.insert(at, octet);
                    assert!(
                        open(&key, SEQ_CLIENT, &extended).is_err(),
                        "{octet:#04x} at {at} of {len}"
                    );
                }
            }
        }
    }

    /// The record by its definition, the way the module doc writes it: the
    /// key absorbed at call time, the keystream XORed over the plaintext,
    /// then, in a second walk over the ciphertext, word `i` chained into
    /// lane `i % 4`, the zero-padded tail into the next, the lanes folded
    /// in lane order and then with the length.
    fn two_pass_seal(key: &SecretKey, seq: u64, plaintext: &[u8]) -> Vec<u8> {
        let stream = Stream::absorb(&key.octets, seq);
        let mut record = plaintext.to_vec();
        stream.apply(&mut record);
        let mut lanes: Vec<u64> = (0..4).map(|k| stream.word(u64::MAX - k)).collect();
        let (words, tail) = record.as_chunks::<8>();
        for (i, word) in words.iter().enumerate() {
            lanes[i % 4] = mix(lanes[i % 4] ^ u64::from_be_bytes(*word));
        }
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        let n = words.len() % 4;
        lanes[n] = mix(lanes[n] ^ u64::from_be_bytes(last));
        let mut acc = 0;
        for lane in lanes {
            acc = mix(acc ^ lane);
        }
        let tag = mix(acc ^ u64::try_from(record.len()).unwrap());
        record.extend_from_slice(&tag.to_be_bytes());
        record
    }

    /// `open_in_place` on a copy of `record`: the plaintext it returns, or
    /// `None` once it has checked that the failed open left the buffer as
    /// it was given.
    fn open_copy(key: &SecretKey, seq: u64, record: &[u8]) -> Option<Vec<u8>> {
        let mut buf = record.to_vec();
        match open_in_place(key, seq, &mut buf) {
            Ok(plaintext) => Some(plaintext.to_vec()),
            Err(_) => {
                assert_eq!(buf, record, "a failed open restores its buffer");
                None
            }
        }
    }

    /// Plaintext lengths 0-40: the one-pass record is the two-pass one
    /// octet for octet, tag included, and it opens to the plaintext. Every
    /// record one bit, one cut or one parameter away fails to open and is
    /// left as given.
    #[test]
    fn the_one_pass_record_is_the_two_pass_record() {
        let key = SecretKey::derive(42, "dns.google");
        let other = SecretKey::derive(43, "dns.google");
        let text: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for len in 0..=text.len() {
            let plaintext = &text[..len];
            let record = seal(&key, SEQ_SERVER, plaintext);
            assert_eq!(record, two_pass_seal(&key, SEQ_SERVER, plaintext), "{len}");
            assert_eq!(
                open_copy(&key, SEQ_SERVER, &record).as_deref(),
                Some(plaintext)
            );
            assert_eq!(
                open_copy(&key, SEQ_CLIENT, &record),
                None,
                "sequence, {len}"
            );
            assert_eq!(open_copy(&other, SEQ_SERVER, &record), None, "key, {len}");
            for bit in 0..record.len() * 8 {
                let mut flipped = record.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    open_copy(&key, SEQ_SERVER, &flipped),
                    None,
                    "bit {bit} of {len}"
                );
            }
            for kept in 0..record.len() {
                assert_eq!(
                    open_copy(&key, SEQ_SERVER, &record[..kept]),
                    None,
                    "{kept} of {len}"
                );
            }
        }
    }

    #[test]
    fn sealing_in_place_builds_the_same_record_behind_a_prefix() {
        let key = SecretKey::derive(7, "dns.quad9.net");
        for len in [0, 1, 8, 21] {
            let plaintext = vec![0xA7; len];
            let mut buf = b"header".to_vec();
            buf.extend_from_slice(&plaintext);
            seal_in_place(&key, SEQ_SERVER, &mut buf, 6);
            assert_eq!(&buf[..6], b"header");
            assert_eq!(buf[6..], seal(&key, SEQ_SERVER, &plaintext));
        }
    }

    #[test]
    fn key_derivation_is_deterministic_and_label_sensitive() {
        assert_eq!(
            SecretKey::derive(5, "dns.google"),
            SecretKey::derive(5, "dns.google")
        );
        assert_ne!(
            SecretKey::derive(5, "dns.google"),
            SecretKey::derive(5, "dns.quad9.net")
        );
        assert_ne!(
            SecretKey::derive(5, "dns.google"),
            SecretKey::derive(6, "dns.google")
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
    fn debug_does_not_leak_key_material() {
        let key = SecretKey::derive(9, "dns.google");
        assert_eq!(format!("{key:?}"), "SecretKey(..)");
    }
}
