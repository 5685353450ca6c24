//! Unpadded base64url encoding (RFC 4648 §5), as required for the DoH GET
//! `?dns=` query parameter (RFC 8484 §4.1).

use bytes::BufMut;

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
    encode_into(input, &mut out);
    // Every octet written is one of the alphabet's.
    String::from_utf8(out).unwrap_or_default()
}

/// How many characters the unpadded encoding of `len` octets takes: four
/// per three octets, and two or three for the one or two left over.
pub fn encoded_len(len: usize) -> usize {
    let tail = match len % 3 {
        0 => 0,
        1 => 2,
        _ => 3,
    };
    len / 3 * 4 + tail
}

/// Appends the unpadded base64url encoding of `input` to `out`, exactly
/// [`encoded_len`] octets — for text that continues a buffer already being
/// written, like the `?dns=` parameter of a DoH GET path written straight
/// into its HTTP/2 header block.
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::base64url;
/// let mut path = b"/dns-query?dns=".to_vec();
/// base64url::encode_into(b"fo", &mut path);
/// assert_eq!(path, b"/dns-query?dns=Zm8");
/// assert_eq!(base64url::encoded_len(2), 3);
/// ```
// sdoh-lint: allow(no-panic, "every alphabet index is masked to 6 bits and ALPHABET has 64 entries")
// sdoh-lint: allow(no-narrowing-cast, "every cast value is masked to 6 bits first")
pub fn encode_into(input: &[u8], out: &mut impl BufMut) {
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
        out.put_slice(quad.get(..=chunk.len()).unwrap_or_default());
    }
}

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
        // acc holds 24 bits; its big-endian octets are the decoded bytes.
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

    #[test]
    fn rfc8484_example_query() {
        // RFC 8484 §4.1.1 example: query for www.example.com A record.
        let encoded = "AAABAAABAAAAAAAAA3d3dwdleGFtcGxlA2NvbQAAAQAB";
        let decoded = decode(encoded).unwrap();
        assert_eq!(decoded.len(), 33);
        assert_eq!(encode(&decoded), encoded);
    }
}
