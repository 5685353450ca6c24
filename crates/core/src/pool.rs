//! The address pool produced by secure pool generation, with per-address
//! provenance.
//!
//! Provenance is shared, not copied: a generation names each contributing
//! resolver (or, under the majority vote, each distinct support count) once
//! and every slot it fills points at that one string. A pool of N resolvers
//! times k addresses costs N names, and cloning a pool — which the cache
//! does with every report it keeps — bumps reference counts instead of
//! copying N·k strings.

use std::fmt;
use std::net::IpAddr;
use std::sync::Arc;

/// One slot in the generated pool.
///
/// Algorithm 1 concatenates the (truncated) per-resolver lists, so the same
/// address may occupy several slots; the paper requires the application to
/// "handle multiple instances of the same address in the response as
/// individual servers" (Section IV). Each entry therefore records which
/// resolver contributed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolEntry {
    /// The server address.
    pub address: IpAddr,
    /// Name of the resolver whose answer contributed this slot, shared by
    /// every slot that resolver filled.
    pub source: Arc<str>,
}

/// The combined server address pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddressPool {
    entries: Vec<PoolEntry>,
}

impl AddressPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        AddressPool::default()
    }

    /// Creates a pool from entries.
    pub(crate) fn from_entries(entries: Vec<PoolEntry>) -> Self {
        AddressPool { entries }
    }

    /// Appends an entry. Pass a clone of one `Arc<str>` to share a name
    /// between slots; a `&str` or `String` becomes a name of its own.
    pub fn push(&mut self, address: IpAddr, source: impl Into<Arc<str>>) {
        self.entries.push(PoolEntry {
            address,
            source: source.into(),
        });
    }

    /// Number of slots in the pool (duplicates counted individually).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the pool has no slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries in pool order.
    pub fn iter(&self) -> impl Iterator<Item = &PoolEntry> {
        self.entries.iter()
    }

    /// The pool as a flat address list, duplicates included — the form an
    /// application such as Chronos consumes.
    pub fn addresses(&self) -> Vec<IpAddr> {
        self.entries.iter().map(|e| e.address).collect()
    }

    /// The distinct addresses in the pool, in first-appearance order.
    pub fn unique_addresses(&self) -> Vec<IpAddr> {
        let mut seen = Vec::new();
        for entry in &self.entries {
            if !seen.contains(&entry.address) {
                seen.push(entry.address);
            }
        }
        seen
    }

    /// Number of slots contributed by the named resolver.
    pub fn slots_from(&self, source: &str) -> usize {
        self.entries.iter().filter(|e| &*e.source == source).count()
    }

    /// The fraction of slots whose address satisfies `is_benign`.
    ///
    /// This is the quantity the paper's guarantee speaks about: the pool
    /// must contain a fraction of at least `x` benign servers.
    pub fn benign_fraction<F: Fn(IpAddr) -> bool>(&self, is_benign: F) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let benign = self.entries.iter().filter(|e| is_benign(e.address)).count();
        benign as f64 / self.entries.len() as f64
    }

    /// Splits the pool into per-family sub-pools (IPv4, IPv6).
    pub fn split_by_family(&self) -> (AddressPool, AddressPool) {
        let mut v4 = AddressPool::new();
        let mut v6 = AddressPool::new();
        for entry in &self.entries {
            match entry.address {
                IpAddr::V4(_) => v4.entries.push(entry.clone()),
                IpAddr::V6(_) => v6.entries.push(entry.clone()),
            }
        }
        (v4, v6)
    }

    /// Concatenates two pools.
    pub(crate) fn extend_from(&mut self, other: &AddressPool) {
        self.entries.extend(other.entries.iter().cloned());
    }
}

impl fmt::Display for AddressPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "address pool ({} slots):", self.len())?;
        for entry in &self.entries {
            writeln!(f, "  {} (via {})", entry.address, entry.source)?;
        }
        Ok(())
    }
}

impl IntoIterator for AddressPool {
    type Item = PoolEntry;
    type IntoIter = std::vec::IntoIter<PoolEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<PoolEntry> for AddressPool {
    fn from_iter<T: IntoIterator<Item = PoolEntry>>(iter: T) -> Self {
        AddressPool {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        format!("203.0.113.{last}").parse().unwrap()
    }

    fn sample_pool() -> AddressPool {
        let mut pool = AddressPool::new();
        pool.push(ip(1), "dns.google");
        pool.push(ip(2), "dns.google");
        pool.push(ip(1), "cloudflare-dns.com");
        pool.push(ip(3), "cloudflare-dns.com");
        pool.push(ip(1), "dns.quad9.net");
        pool.push("2001:db8::1".parse().unwrap(), "dns.quad9.net");
        pool
    }

    #[test]
    fn len_and_addresses_count_duplicates() {
        let pool = sample_pool();
        assert_eq!(pool.len(), 6);
        assert_eq!(pool.addresses().len(), 6);
        assert_eq!(pool.unique_addresses().len(), 4);
        assert!(!pool.is_empty());
        assert_eq!(pool.iter().count(), 6);
    }

    #[test]
    fn multiplicity_counts_slots_per_address() {
        // Each instance of an address is a server of its own (Section IV).
        let addresses = sample_pool().addresses();
        let slots = |address| addresses.iter().filter(|&&a| a == address).count();
        assert_eq!(slots(ip(1)), 3);
        assert_eq!(slots(ip(2)), 1);
    }

    #[test]
    fn slots_from_tracks_provenance() {
        let pool = sample_pool();
        assert_eq!(pool.slots_from("dns.google"), 2);
        assert_eq!(pool.slots_from("dns.quad9.net"), 2);
        assert_eq!(pool.slots_from("unknown"), 0);
    }

    #[test]
    fn benign_fraction_over_slots() {
        let pool = sample_pool();
        // Treat 203.0.113.1 as malicious: 3 of 6 slots.
        let fraction = pool.benign_fraction(|addr| addr != ip(1));
        assert!((fraction - 0.5).abs() < 1e-12);
        assert_eq!(AddressPool::new().benign_fraction(|_| true), 0.0);
    }

    #[test]
    fn split_by_family() {
        let (v4, v6) = sample_pool().split_by_family();
        assert_eq!(v4.len(), 5);
        assert_eq!(v6.len(), 1);
    }

    #[test]
    fn collect_iterate_display() {
        let pool: AddressPool = sample_pool().into_iter().collect();
        assert_eq!(pool.len(), 6);
        let shown = pool.to_string();
        assert!(shown.contains("203.0.113.1"));
        assert!(shown.contains("dns.google"));
        let mut extended = AddressPool::new();
        extended.extend_from(&pool);
        assert_eq!(extended.len(), 6);
        let rebuilt = AddressPool::from_entries(pool.iter().cloned().collect());
        assert_eq!(rebuilt, pool);
    }
}
