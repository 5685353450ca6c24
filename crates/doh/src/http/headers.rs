//! A small, order-preserving header map with case-insensitive names.
//!
//! # One buffer
//!
//! A message's header fields are text on their way from one buffer (a
//! header block being decoded, a literal in the program) into another (the
//! block being encoded), so the map does not give each name and each value
//! an allocation of its own: every field's lowercased name and its value
//! lie back to back in one `String`, and a second vector records where each
//! name and each value ends. Appending a field writes into the buffer —
//! [`Headers::set_display`] formats a number straight into it — and looking
//! one up walks the offsets. Removing rebuilds both, which no per-query
//! path does.

use std::fmt::{self, Write as _};

/// What the first field reserves of the buffer: the fields of a DoH message
/// (`content-type`, `content-length`, `cache-control`: 76 octets; `accept`:
/// 29) fit without the buffer growing a field at a time.
const FIRST_RESERVE: usize = 96;

/// An ordered multimap of HTTP header fields.
///
/// Header names are stored lowercased, as required on the wire by HTTP/2.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Headers {
    /// Every field's name, then its value, in insertion order.
    text: String,
    /// Per field: where its name ends and where its value ends in `text`.
    /// A field starts where the one before it ended.
    ends: Vec<(usize, usize)>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Number of header fields.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` when no fields are present.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Sets a header, replacing any existing fields with the same name.
    pub fn set(&mut self, name: &str, value: &str) {
        self.remove(name);
        self.append(name, value);
    }

    /// [`set`](Headers::set) for a value that is formatted, not held:
    /// `set_display("cache-control", format_args!("max-age={ttl}"))` writes
    /// the digits into the map's buffer without a `String` in between.
    pub fn set_display(&mut self, name: &str, value: impl fmt::Display) {
        self.remove(name);
        // Writing into a `String` cannot fail; a `Display` that reports an
        // error of its own leaves the value as far as it got.
        self.push_field(name, |text| {
            let _ = write!(text, "{value}");
        });
    }

    /// Appends a header without removing existing fields of the same name.
    pub fn append(&mut self, name: &str, value: &str) {
        self.push_field(name, |text| text.push_str(value));
    }

    /// Writes one field at the end of the buffer: its name, lowercased, then
    /// whatever `value` appends.
    fn push_field(&mut self, name: &str, value: impl FnOnce(&mut String)) {
        if self.text.capacity() == 0 {
            self.text.reserve(FIRST_RESERVE);
        }
        let start = self.text.len();
        self.text.push_str(name);
        if let Some(written) = self.text.get_mut(start..) {
            written.make_ascii_lowercase();
        }
        let name_end = self.text.len();
        value(&mut self.text);
        self.ends.push((name_end, self.text.len()));
    }

    /// The first value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Returns `true` when a field with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Removes all fields with this name, returning whether any were removed.
    pub fn remove(&mut self, name: &str) -> bool {
        if !self.contains(name) {
            return false;
        }
        let mut kept = Headers::new();
        for (n, v) in self.iter() {
            if !n.eq_ignore_ascii_case(name) {
                kept.append(n, v);
            }
        }
        *self = kept;
        true
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let mut start = 0;
        self.ends.iter().map(move |&(name_end, value_end)| {
            let name = self.text.get(start..name_end).unwrap_or_default();
            let value = self.text.get(name_end..value_end).unwrap_or_default();
            start = value_end;
            (name, value)
        })
    }
}

impl fmt::Display for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

impl FromIterator<(String, String)> for Headers {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        let mut headers = Headers::new();
        for (name, value) in iter {
            headers.append(&name, &value);
        }
        headers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "application/dns-message");
        assert_eq!(h.get("content-type"), Some("application/dns-message"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("application/dns-message"));
        assert!(h.contains("Content-Type"));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn set_replaces_append_accumulates() {
        let mut h = Headers::new();
        h.append("accept", "a");
        h.append("accept", "b");
        assert!(h.iter().eq([("accept", "a"), ("accept", "b")]));
        h.set("accept", "c");
        assert!(h.iter().eq([("accept", "c")]));
    }

    #[test]
    fn remove_and_empty() {
        let mut h = Headers::new();
        assert!(h.is_empty());
        h.set("x", "1");
        assert!(h.remove("X"));
        assert!(!h.remove("x"));
        assert!(h.is_empty());
    }

    #[test]
    fn iter_and_display_and_collect() {
        let h: Headers = vec![
            ("A".to_string(), "1".to_string()),
            ("b".to_string(), "2".to_string()),
        ]
        .into_iter()
        .collect();
        let pairs: Vec<(&str, &str)> = h.iter().collect();
        assert_eq!(pairs, vec![("a", "1"), ("b", "2")]);
        let display = h.to_string();
        assert!(display.contains("a: 1"));
        assert!(display.contains("b: 2"));
    }

    #[test]
    fn set_replaces_every_field_of_the_name_and_keeps_the_rest() {
        let mut h = Headers::new();
        h.append("Accept", "a");
        h.append("x-mid", "m");
        h.append("accept", "b");
        h.append("x-last", "z");
        h.set("ACCEPT", "c");
        let pairs: Vec<(&str, &str)> = h.iter().collect();
        assert_eq!(
            pairs,
            vec![("x-mid", "m"), ("x-last", "z"), ("accept", "c")],
            "both old fields gone, the new one last, the others in order"
        );
        assert_eq!(h.len(), 3);
        h.set_display("x-mid", format_args!("max-age={}", 300));
        assert_eq!(h.get("x-mid"), Some("max-age=300"));
        assert_eq!(h.get("x-last"), Some("z"), "offsets past the hole moved");
    }

    #[test]
    fn removing_a_middle_field_rebuilds_the_offsets() {
        let mut h = Headers::new();
        h.append("first", "1");
        h.append("middle", "22");
        h.append("empty", "");
        h.append("last", "333");
        let untouched = h.clone();
        assert!(!h.remove("absent"));
        assert_eq!(h, untouched);
        assert!(h.remove("Middle"));
        let pairs: Vec<(&str, &str)> = h.iter().collect();
        assert_eq!(pairs, vec![("first", "1"), ("empty", ""), ("last", "333")]);
        assert_eq!(h.get("last"), Some("333"));
        assert_eq!(h.get("empty"), Some(""));
        assert_eq!(h.to_string(), "first: 1\nempty: \nlast: 333\n");
        // Equal contents are equal maps, however they were arrived at.
        let mut direct = Headers::new();
        direct.append("first", "1");
        direct.append("empty", "");
        direct.append("last", "333");
        assert_eq!(h, direct);
    }
}
