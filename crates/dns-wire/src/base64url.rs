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
    let mut out = String::new();
    encode_into(input, &mut out);
    out
}

/// Appends the unpadded base64url encoding of `input` to `out` — for text
/// that continues a buffer already being written, like the `?dns=`
/// parameter of a DoH GET path.
///
/// # Examples
///
/// ```
/// use sdoh_dns_wire::base64url;
/// let mut path = String::from("/dns-query?dns=");
/// base64url::encode_into(b"fo", &mut path);
/// assert_eq!(path, "/dns-query?dns=Zm8");
/// ```
// sdoh-lint: allow(no-panic, "every alphabet index is masked to 6 bits and ALPHABET has 64 entries")
// sdoh-lint: allow(no-narrowing-cast, "every cast value is masked to 6 bits first")
pub fn encode_into(input: &[u8], out: &mut String) {
    out.reserve(input.len().div_ceil(3) * 4);
    for chunk in input.chunks(3) {
        let b0 = u32::from(chunk.first().copied().unwrap_or(0));
        let b1 = u32::from(chunk.get(1).copied().unwrap_or(0));
        let b2 = u32::from(chunk.get(2).copied().unwrap_or(0));
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(triple >> 18) as usize & 0x3F] as char);
        out.push(ALPHABET[(triple >> 12) as usize & 0x3F] as char);
        if chunk.len() > 1 {
            out.push(ALPHABET[(triple >> 6) as usize & 0x3F] as char);
        }
        if chunk.len() > 2 {
            out.push(ALPHABET[triple as usize & 0x3F] as char);
        }
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
    let trimmed = input.trim_end_matches('=');
    let bytes = trimmed.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3 + 3);
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
    Ok(out)
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
