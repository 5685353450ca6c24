//! A deliberately small HPACK (RFC 7541) implementation.
//!
//! The encoder emits only two representations:
//!
//! * indexed header fields referencing the static table (for exact matches
//!   such as `:method: GET`), and
//! * literal header fields *without* indexing, with plain (non-Huffman)
//!   string encoding.
//!
//! The decoder accepts indexed fields that reference the static table and
//! all three literal forms, as long as strings are not Huffman-coded. The
//! dynamic table is never populated (its declared size is zero), which keeps
//! both ends stateless; this is a documented simplification relative to a
//! production HPACK codec and is sufficient because both peers in the
//! simulation use this same codec.

use super::error::H2Error;

/// Where the encoders write: the header block at the end of a connection's
/// output, or a question's inline `:path` field.
pub(crate) trait Sink {
    /// Appends `octets`.
    fn put(&mut self, octets: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, octets: &[u8]) {
        self.extend_from_slice(octets);
    }
}

/// The RFC 7541 Appendix A static table (index 1..=61).
const STATIC_TABLE: &[(&str, &str)] = &[
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

/// Encodes a header list into an HPACK header block.
pub fn encode(headers: &[(String, String)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (name, value) in headers {
        encode_field(&mut out, name, value);
    }
    out
}

/// Appends one header field to the block being written at the end of `out`.
pub(super) fn encode_field(out: &mut impl Sink, name: &str, value: &str) {
    if let Some(index) = static_index_exact(name, value) {
        // Indexed header field: 1xxxxxxx
        encode_integer(out, index, 7, 0x80);
        return;
    }
    encode_literal_with(out, name, value.len(), |out| out.put(value.as_bytes()));
}

/// Appends a literal field without indexing whose value is the `len`
/// octets `value` appends: a value written where it goes rather than
/// handed over as a `&str`. The caller's value is one no static entry
/// holds, or [`encode_field`] would have indexed it.
pub(crate) fn encode_literal_with<B: Sink>(
    out: &mut B,
    name: &str,
    len: usize,
    value: impl FnOnce(&mut B),
) {
    // Literal header field without indexing — new name: 0000 0000
    out.put(&[0x00]);
    encode_string(out, name.as_bytes());
    encode_integer(out, u64::try_from(len).unwrap_or(u64::MAX), 7, 0x00);
    value(out);
}

/// Decodes an HPACK header block into a header list.
///
/// # Errors
///
/// Returns [`H2Error::Hpack`] for Huffman-coded strings, dynamic-table
/// references, size updates that are not zero, or truncated input.
pub fn decode(block: &[u8]) -> Result<Vec<(String, String)>, H2Error> {
    Fields::new(block)
        .map(|field| field.map(|(name, value)| (name.to_string(), value.to_string())))
        .collect()
}

/// The fields of a header block in order, each borrowed from the block or
/// from the static table. The first malformed field is yielded as its error
/// and ends the walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fields<'a> {
    block: &'a [u8],
}

impl<'a> Fields<'a> {
    pub(crate) fn new(block: &'a [u8]) -> Self {
        Fields { block }
    }

    fn next_field(&mut self) -> Result<Option<(&'a str, &'a str)>, H2Error> {
        while let Some(&first) = self.block.first() {
            if first & 0x80 != 0 {
                // Indexed header field.
                let (index, rest) = decode_integer(self.block, 7)?;
                self.block = rest;
                return static_entry(index).map(Some);
            }
            if first & 0xE0 == 0x20 {
                // Dynamic table size update; only size 0 is allowed here.
                let (size, rest) = decode_integer(self.block, 5)?;
                if size != 0 {
                    return Err(H2Error::Hpack("dynamic table not supported".into()));
                }
                self.block = rest;
                continue;
            }
            // Literal header field (with incremental indexing 0x40, without
            // indexing 0x00, never indexed 0x10). All are treated the same
            // because the dynamic table is unused.
            let prefix = if first & 0x40 != 0 { 6 } else { 4 };
            let (name_index, rest) = decode_integer(self.block, prefix)?;
            let (name, rest) = if name_index == 0 {
                decode_string(rest)?
            } else {
                (static_entry(name_index)?.0, rest)
            };
            let (value, rest) = decode_string(rest)?;
            self.block = rest;
            return Ok(Some((name, value)));
        }
        Ok(None)
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Result<(&'a str, &'a str), H2Error>;

    fn next(&mut self) -> Option<Self::Item> {
        let field = self.next_field();
        if field.is_err() {
            self.block = &[];
        }
        field.transpose()
    }
}

/// The index of the static entry that is exactly `(name, value)`. A field
/// with a value — every field but an empty one — can only be one of the 14
/// entries that have one, so those are a `match`; the table is walked for
/// an empty value alone. (`tests::the_match_is_the_table` holds the two
/// together.)
fn static_index_exact(name: &str, value: &str) -> Option<u64> {
    if value.is_empty() {
        return static_index_scan(name, value);
    }
    let index = match (name, value) {
        (":method", "GET") => 2,
        (":method", "POST") => 3,
        (":path", "/") => 4,
        (":path", "/index.html") => 5,
        (":scheme", "http") => 6,
        (":scheme", "https") => 7,
        (":status", "200") => 8,
        (":status", "204") => 9,
        (":status", "206") => 10,
        (":status", "304") => 11,
        (":status", "400") => 12,
        (":status", "404") => 13,
        (":status", "500") => 14,
        ("accept-encoding", "gzip, deflate") => 16,
        _ => return None,
    };
    Some(index)
}

/// [`static_index_exact`] by walking [`STATIC_TABLE`].
fn static_index_scan(name: &str, value: &str) -> Option<u64> {
    (1u64..)
        .zip(STATIC_TABLE)
        .find(|(_, (n, v))| *n == name && *v == value)
        .map(|(index, _)| index)
}

fn static_entry(index: u64) -> Result<(&'static str, &'static str), H2Error> {
    usize::try_from(index)
        .ok()
        .and_then(|i| i.checked_sub(1))
        .and_then(|i| STATIC_TABLE.get(i))
        .copied()
        .ok_or(H2Error::HpackIndex(index))
}

// sdoh-lint: allow(no-narrowing-cast, "each cast operand is reduced below 256 by the prefix mask or the modulo")
fn encode_integer(out: &mut impl Sink, mut value: u64, prefix_bits: u8, pattern: u8) {
    let max_prefix = (1u64 << prefix_bits) - 1;
    if value < max_prefix {
        out.put(&[pattern | value as u8]);
        return;
    }
    out.put(&[pattern | max_prefix as u8]);
    value -= max_prefix;
    while value >= 128 {
        out.put(&[(value % 128 + 128) as u8]);
        value /= 128;
    }
    out.put(&[value as u8]);
}

fn decode_integer(input: &[u8], prefix_bits: u8) -> Result<(u64, &[u8]), H2Error> {
    let (&first, mut rest) = input
        .split_first()
        .ok_or_else(|| H2Error::Hpack("truncated integer".into()))?;
    let max_prefix = (1u64 << prefix_bits) - 1;
    let mut value = u64::from(first) & max_prefix;
    if value < max_prefix {
        return Ok((value, rest));
    }
    let mut shift = 0u32;
    loop {
        let (&byte, tail) = rest
            .split_first()
            .ok_or_else(|| H2Error::Hpack("truncated integer continuation".into()))?;
        rest = tail;
        value += u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, rest));
        }
        shift += 7;
        if shift > 42 {
            return Err(H2Error::Hpack("integer too large".into()));
        }
    }
}

fn encode_string(out: &mut impl Sink, data: &[u8]) {
    let len = u64::try_from(data.len()).unwrap_or(u64::MAX);
    encode_integer(out, len, 7, 0x00);
    out.put(data);
}

fn decode_string(input: &[u8]) -> Result<(&str, &[u8]), H2Error> {
    let first = input
        .first()
        .ok_or_else(|| H2Error::Hpack("truncated string".into()))?;
    if first & 0x80 != 0 {
        return Err(H2Error::Hpack("huffman coding not supported".into()));
    }
    let (len, rest) = decode_integer(input, 7)?;
    let len =
        usize::try_from(len).map_err(|_| H2Error::Hpack("string length overflows usize".into()))?;
    let (payload, rest) = rest
        .split_at_checked(len)
        .ok_or_else(|| H2Error::Hpack("truncated string payload".into()))?;
    let text = std::str::from_utf8(payload)
        .map_err(|_| H2Error::Hpack("header string is not valid utf-8".into()))?;
    Ok((text, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(items: &[(&str, &str)]) -> Vec<(String, String)> {
        items
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn roundtrip_typical_doh_request_headers() {
        let headers = pairs(&[
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", "dns.google"),
            (":path", "/dns-query?dns=AAABAA"),
            ("accept", "application/dns-message"),
        ]);
        let block = encode(&headers);
        assert_eq!(decode(&block).unwrap(), headers);
    }

    #[test]
    fn roundtrip_typical_response_headers() {
        let headers = pairs(&[
            (":status", "200"),
            ("content-type", "application/dns-message"),
            ("content-length", "61"),
            ("cache-control", "max-age=300"),
        ]);
        let block = encode(&headers);
        assert_eq!(decode(&block).unwrap(), headers);
    }

    #[test]
    fn exact_static_matches_are_single_bytes() {
        let headers = pairs(&[(":method", "GET"), (":scheme", "https"), (":status", "200")]);
        let block = encode(&headers);
        assert_eq!(block.len(), 3, "one indexed byte per field");
    }

    #[test]
    fn integer_encoding_edge_cases() {
        let mut out = Vec::new();
        encode_integer(&mut out, 10, 5, 0x00);
        assert_eq!(out, vec![10]);
        out.clear();
        // RFC 7541 C.1.2: 1337 with 5-bit prefix.
        encode_integer(&mut out, 1337, 5, 0x00);
        assert_eq!(out, vec![31, 154, 10]);
        let (value, rest) = decode_integer(&out, 5).unwrap();
        assert_eq!(value, 1337);
        assert!(rest.is_empty());
    }

    #[test]
    fn decoder_accepts_literal_with_incremental_indexing() {
        // 0x40 prefix, new name "x-test", value "1".
        let mut block = vec![0x40];
        encode_string(&mut block, b"x-test");
        encode_string(&mut block, b"1");
        let headers = decode(&block).unwrap();
        assert_eq!(headers, pairs(&[("x-test", "1")]));
    }

    #[test]
    fn decoder_accepts_literal_with_static_name_reference() {
        // Literal without indexing, name index 31 (content-type).
        let mut block = Vec::new();
        encode_integer(&mut block, 31, 4, 0x00);
        encode_string(&mut block, b"application/dns-message");
        let headers = decode(&block).unwrap();
        assert_eq!(headers[0].0, "content-type");
        assert_eq!(headers[0].1, "application/dns-message");
    }

    #[test]
    fn decoder_rejects_huffman_and_bad_indexes() {
        // String with the Huffman bit set.
        let block = [0x00, 0x81, 0xFF, 0x01, 0x61];
        assert!(decode(&block).is_err());
        // Indexed field pointing beyond the static table.
        let mut block = Vec::new();
        encode_integer(&mut block, 62, 7, 0x80);
        assert!(decode(&block).is_err());
        // Index zero is invalid.
        assert!(decode(&[0x80]).is_err());
    }

    #[test]
    fn decoder_rejects_truncated_input() {
        let headers = pairs(&[("accept", "application/dns-message")]);
        let block = encode(&headers);
        assert!(decode(&block[..block.len() - 3]).is_err());
    }

    #[test]
    fn dynamic_table_size_update_of_zero_is_tolerated() {
        let mut block = vec![0x20];
        block.extend(encode(&pairs(&[(":status", "200")])));
        assert_eq!(decode(&block).unwrap(), pairs(&[(":status", "200")]));
        // Non-zero size update is rejected.
        let block = [0x3F, 0xE1, 0x1F];
        assert!(decode(&block).is_err());
    }

    #[test]
    fn the_match_is_the_table() {
        // Every entry is found where the table has it first...
        for (name, value) in STATIC_TABLE {
            assert_eq!(
                static_index_exact(name, value),
                static_index_scan(name, value),
                "({name:?}, {value:?})"
            );
            assert!(static_index_exact(name, value).is_some());
        }
        assert_eq!(
            STATIC_TABLE.iter().filter(|(_, v)| !v.is_empty()).count(),
            14,
            "the entries the match spells out"
        );
        // ... and nothing else is found at all: every name against every
        // value of the table, and a few that are close.
        for (name, _) in STATIC_TABLE {
            for (_, value) in STATIC_TABLE {
                assert_eq!(
                    static_index_exact(name, value),
                    static_index_scan(name, value),
                    "({name:?}, {value:?})"
                );
            }
        }
        for (name, value) in [
            (":method", "get"),
            (":method", "GET "),
            (":status", "201"),
            (":status", "20"),
            ("accept", ""),
            (":authority", ""),
            (":authority", "dns.google"),
            ("accept-encoding", "gzip"),
            ("Accept", ""),
            ("", ""),
            ("", "GET"),
        ] {
            assert_eq!(
                static_index_exact(name, value),
                static_index_scan(name, value),
                "({name:?}, {value:?})"
            );
        }
        assert_eq!(static_index_exact("accept", ""), Some(19));
        assert_eq!(static_index_exact(":authority", ""), Some(1));
        assert_eq!(static_index_exact(":status", "201"), None);
    }
}
