//! Unpadded base64url encoding (RFC 4648 §5), as required for the DoH GET
//! `?dns=` query parameter (RFC 8484 §4.1).

use crate::error::{WireError, WireResult};

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Encodes bytes as unpadded base64url.
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::base64url;
/// assert_eq!(base64url::encode(b""), "");
/// assert_eq!(base64url::encode(b"f"), "Zg");
/// assert_eq!(base64url::encode(b"fo"), "Zm8");
/// assert_eq!(base64url::encode(b"foo"), "Zm9v");
/// ```
pub fn encode(input: &[u8]) -> String {
    let mut out = Vec::with_capacity(encoded_len(input.len()));
    encode_into(input, |quad| out.extend_from_slice(quad));
    // Every octet written is one of the alphabet's.
    String::from_utf8(out).unwrap_or_default()
}

/// How many characters the unpadded encoding of `len` octets takes: four
/// per three octets, and two or three for the one or two left over.
pub const fn encoded_len(len: usize) -> usize {
    let tail = match len % 3 {
        0 => 0,
        1 => 2,
        _ => 3,
    };
    len / 3 * 4 + tail
}

/// Hands the unpadded base64url encoding of `input` to `put` four
/// characters at a time (two or three for the last), exactly
/// [`encoded_len`] octets in all — for text that continues a buffer already
/// being written, like the `?dns=` parameter of a DoH GET path written
/// straight into its HTTP/2 header block.
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::base64url;
/// let mut path = b"/dns-query?dns=".to_vec();
/// base64url::encode_into(b"fo", |quad| path.extend_from_slice(quad));
/// assert_eq!(path, b"/dns-query?dns=Zm8");
/// assert_eq!(base64url::encoded_len(2), 3);
/// ```
// sdoh-lint: allow(no-panic, "every alphabet index is masked to 6 bits and ALPHABET has 64 entries")
// sdoh-lint: allow(no-narrowing-cast, "every cast value is masked to 6 bits first")
pub fn encode_into(input: &[u8], mut put: impl FnMut(&[u8])) {
    for chunk in input.chunks(3) {
        let b0 = u32::from(chunk.first().copied().unwrap_or(0));
        let b1 = u32::from(chunk.get(1).copied().unwrap_or(0));
        let b2 = u32::from(chunk.get(2).copied().unwrap_or(0));
        let triple = (b0 << 16) | (b1 << 8) | b2;
        let quad = [
            ALPHABET[(triple >> 18) as usize & 0x3F],
            ALPHABET[(triple >> 12) as usize & 0x3F],
            ALPHABET[(triple >> 6) as usize & 0x3F],
            ALPHABET[triple as usize & 0x3F],
        ];
        // One character per six bits of the chunk, rounded up.
        put(quad.get(..=chunk.len()).unwrap_or_default());
    }
}

/// Marks an octet outside the alphabet in [`SEXTETS`]. Any value of 64 or
/// more would do: a quad is tested once, on the OR of its sextets.
const INVALID: u8 = 0xFF;

/// The value of every octet as a base64url character, [`INVALID`] for the
/// octets outside [`ALPHABET`]: one lookup per character. Built by
/// walking octets and alphabet positions with counters of both types, so
/// no conversion is needed in a const context.
const SEXTETS: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut position = 0usize;
    let mut value = 0u8;
    while position < ALPHABET.len() {
        let mut index = 0usize;
        let mut octet = 0u8;
        while index < table.len() {
            if octet == ALPHABET[position] {
                table[index] = value;
            }
            index += 1;
            octet = octet.wrapping_add(1);
        }
        position += 1;
        value += 1;
    }
    table
};

fn sextet(c: u8) -> u8 {
    SEXTETS.get(usize::from(c)).copied().unwrap_or(INVALID)
}

/// The 24 bits of up to four characters, the first one in the top six:
/// one lookup per character and one test for all of them, or the index of
/// the first character outside the alphabet.
#[inline(always)]
fn quad_bits(chars: &[u8]) -> Result<u32, usize> {
    let mut bits = 0u32;
    let mut seen = 0u8;
    for (shift, &c) in [18u32, 12, 6, 0].into_iter().zip(chars) {
        let value = sextet(c);
        seen |= value;
        bits |= u32::from(value) << shift;
    }
    if seen >= 64 {
        let first = chars.iter().position(|&c| sextet(c) == INVALID);
        return Err(first.unwrap_or_default());
    }
    Ok(bits)
}

/// Decodes unpadded base64url text.
///
/// Padding characters (`=`) are tolerated at the end of the input because
/// some DoH clients emit them despite RFC 8484 requiring unpadded encoding.
///
/// # Errors
///
/// Returns [`WireError::InvalidBase64`] for characters outside the base64url
/// alphabet or for an impossible input length (a single trailing character).
pub fn decode(input: &str) -> WireResult<Vec<u8>> {
    let mut out = Vec::with_capacity(input.len() / 4 * 3 + 3);
    decode_into(input, &mut out)?;
    Ok(out)
}

/// [`decode`] into `out`, replacing its contents and reusing its
/// allocation: a DoH terminator decodes every GET's `dns=` parameter into
/// the one buffer it keeps.
///
/// # Errors
///
/// As [`decode`]; `out` then holds what was decoded before the error.
pub fn decode_into(input: &str, out: &mut Vec<u8>) -> WireResult<()> {
    out.clear();
    let text = input.trim_end_matches('=').as_bytes();
    out.reserve(text.len() / 4 * 3 + 2);
    let (quads, tail) = text.as_chunks::<4>();
    for (at, quad) in (0..).step_by(4).zip(quads) {
        let bits = quad_bits(quad).map_err(|j| WireError::InvalidBase64(at + j))?;
        let [_, o0, o1, o2] = bits.to_be_bytes();
        out.extend_from_slice(&[o0, o1, o2]);
    }
    let at = text.len() - tail.len();
    match tail.len() {
        0 => Ok(()),
        1 => Err(WireError::InvalidBase64(at)),
        len => {
            let bits = quad_bits(tail).map_err(|j| WireError::InvalidBase64(at + j))?;
            // Two characters carry one octet, three carry two.
            out.extend_from_slice(bits.to_be_bytes().get(1..len).unwrap_or_default());
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        let vectors: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "Zg"),
            (b"fo", "Zm8"),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg"),
            (b"fooba", "Zm9vYmE"),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (plain, encoded) in vectors {
            assert_eq!(encode(plain), *encoded);
            assert_eq!(decode(encoded).unwrap(), plain.to_vec());
        }
    }

    #[test]
    fn url_safe_alphabet() {
        // 0xFB 0xFF encodes to characters involving '-' and '_' range.
        let data = [0xFBu8, 0xEF, 0xBE];
        let enc = encode(&data);
        assert!(!enc.contains('+'));
        assert!(!enc.contains('/'));
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn decode_tolerates_padding() {
        assert_eq!(decode("Zm8=").unwrap(), b"fo");
        assert_eq!(decode("Zg==").unwrap(), b"f");
    }

    #[test]
    fn decode_rejects_invalid_chars() {
        assert!(decode("Zm+v").is_err());
        assert!(decode("Zm/v").is_err());
        assert!(decode("Zm 9").is_err());
    }

    #[test]
    fn decode_rejects_impossible_length() {
        assert!(decode("A").is_err());
        assert!(decode("AAAAA").is_err());
    }

    #[test]
    fn every_length_encodes_to_its_encoded_len_and_decodes_into_a_kept_buffer() {
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
        let mut kept = Vec::new();
        for len in 0..=data.len() {
            let text = encode(&data[..len]);
            assert_eq!(text.len(), encoded_len(len), "{len}");
            decode_into(&text, &mut kept).unwrap();
            assert_eq!(kept, &data[..len]);
        }
        assert!(decode_into("Zm+v", &mut kept).is_err());
    }

    #[test]
    fn roundtrip_binary_dns_message_like_data() {
        let data: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    /// The decoder the table replaced: a match per character, a push per
    /// octet. Kept as the oracle of [`decode_into`].
    fn per_character_decode(input: &str, out: &mut Vec<u8>) -> WireResult<()> {
        fn decode_char(c: u8) -> Option<u32> {
            match c {
                b'A'..=b'Z' => Some(u32::from(c - b'A')),
                b'a'..=b'z' => Some(u32::from(c - b'a' + 26)),
                b'0'..=b'9' => Some(u32::from(c - b'0' + 52)),
                b'-' => Some(62),
                b'_' => Some(63),
                _ => None,
            }
        }
        out.clear();
        let bytes = input.trim_end_matches('=').as_bytes();
        for (ci, chunk) in bytes.chunks(4).enumerate() {
            let i = ci * 4;
            if chunk.len() == 1 {
                return Err(WireError::InvalidBase64(i));
            }
            let mut acc: u32 = 0;
            for (j, &c) in chunk.iter().enumerate() {
                let v = decode_char(c).ok_or(WireError::InvalidBase64(i + j))?;
                acc |= v << (18 - 6 * j);
            }
            let [_, o0, o1, o2] = acc.to_be_bytes();
            out.push(o0);
            if chunk.len() > 2 {
                out.push(o1);
            }
            if chunk.len() > 3 {
                out.push(o2);
            }
        }
        Ok(())
    }

    /// `decode_into` and the per-character decoder on one input: the same
    /// octets, or the same error at the same position with the same octets
    /// decoded before it.
    fn agree(input: &str, table: &mut Vec<u8>, oracle: &mut Vec<u8>) {
        let got = decode_into(input, table);
        let expected = per_character_decode(input, oracle);
        assert_eq!(got, expected, "{input:?}");
        assert_eq!(table, oracle, "{input:?}");
    }

    /// Every string of length 0-3 over the alphabet, `=`, and two octets
    /// outside it; every string of length 4-5 over the ends of the
    /// alphabet's four ranges, `=` and the same two; and every ASCII octet
    /// and a few non-ASCII characters at each position of a 5-character
    /// string. The table decodes what the per-character match decoded.
    #[test]
    fn the_table_decoder_is_the_per_character_decoder() {
        fn strings(symbols: &[char], len: usize, each: &mut impl FnMut(&str)) {
            let mut indices = vec![0; len];
            let mut text = String::new();
            loop {
                text.clear();
                text.extend(indices.iter().map(|&i| symbols[i]));
                each(&text);
                let Some(last) = indices.iter().rposition(|&i| i + 1 < symbols.len()) else {
                    return;
                };
                indices[last] += 1;
                indices[last + 1..].fill(0);
            }
        }
        let (mut table, mut oracle) = (Vec::new(), Vec::new());
        let mut cases = 0;
        let mut every: Vec<char> = ALPHABET.iter().map(|&c| char::from(c)).collect();
        every.extend(['=', '+', '.']);
        for len in 0..=3 {
            strings(&every, len, &mut |text| {
                agree(text, &mut table, &mut oracle);
                cases += 1;
            });
        }
        let ends = ['A', 'Z', 'a', 'z', '0', '9', '-', '_', '=', '+', '.'];
        for len in 4..=5 {
            strings(&ends, len, &mut |text| {
                agree(text, &mut table, &mut oracle);
                cases += 1;
            });
        }
        let mut odd: Vec<char> = (0..=127u8).map(char::from).collect();
        odd.extend(['é', '€', '\u{10348}']);
        for at in 0..5 {
            for &c in &odd {
                let mut text: Vec<char> = "Zm9vY".chars().collect();
                text[at] = c;
                agree(&text.iter().collect::<String>(), &mut table, &mut oracle);
                cases += 1;
            }
        }
        println!("base64url oracle: {cases} inputs agree");
    }

    #[test]
    fn rfc8484_example_query() {
        // RFC 8484 §4.1.1 example: query for www.example.com A record.
        let encoded = "AAABAAABAAAAAAAAA3d3dwdleGFtcGxlA2NvbQAAAQAB";
        let decoded = decode(encoded).unwrap();
        assert_eq!(decoded.len(), 33);
        assert_eq!(encode(&decoded), encoded);
    }
}
