//! A small, order-preserving header map with case-insensitive names.

use std::fmt;

/// An ordered multimap of HTTP header fields.
///
/// Header names are stored lowercased, as required on the wire by HTTP/2.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Headers {
    fields: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Number of header fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` when no fields are present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Sets a header, replacing any existing fields with the same name.
    pub fn set(&mut self, name: &str, value: &str) {
        let name = name.to_ascii_lowercase();
        self.fields.retain(|(n, _)| n != &name);
        self.fields.push((name, value.to_string()));
    }

    /// Appends a header without removing existing fields of the same name.
    pub fn append(&mut self, name: &str, value: &str) {
        self.fields
            .push((name.to_ascii_lowercase(), value.to_string()));
    }

    /// The first value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All values for `name` in insertion order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Returns `true` when a field with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Removes all fields with this name, returning whether any were removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.fields.len();
        self.fields.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before != self.fields.len()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

impl fmt::Display for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.fields {
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
        assert_eq!(h.get_all("accept"), vec!["a", "b"]);
        h.set("accept", "c");
        assert_eq!(h.get_all("accept"), vec!["c"]);
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
}
