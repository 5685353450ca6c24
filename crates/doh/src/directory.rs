//! A directory of well-known public DoH resolvers, mirrored into the
//! simulation.
//!
//! The paper's proposal queries "a list of trusted DNS-over-HTTPS (DoH)
//! resolvers" such as dns.google, cloudflare-dns.com and dns.quad9.net
//! (Figure 1). This module models that list: each entry carries the
//! resolver's host name, its simulated anycast address and the pinned
//! channel key shared between the resolver and its legitimate clients.

use sdoh_netsim::{ports, SimAddr};

use crate::secure::SecretKey;

/// One public DoH resolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverInfo {
    /// Host name presented by the resolver (e.g. `dns.google`).
    pub name: String,
    /// Simulated service address (anycast IP, port 443).
    pub addr: SimAddr,
    /// Pinned channel key shared by the resolver and its clients.
    pub key: SecretKey,
}

impl ResolverInfo {
    /// Creates a resolver entry, deriving its pinned key from `seed`.
    pub fn new(name: &str, addr: SimAddr, seed: u64) -> Self {
        ResolverInfo {
            name: name.to_string(),
            addr,
            key: SecretKey::derive(seed, name),
        }
    }
}

/// The directory of public DoH resolvers available to clients.
#[derive(Debug, Clone, Default)]
pub struct ResolverDirectory {
    resolvers: Vec<ResolverInfo>,
    /// The seed a well-known directory keys the resolvers it continues by
    /// from; `None` for a directory built by hand, which ends where its
    /// entries do.
    continued: Option<u64>,
}

impl ResolverDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        ResolverDirectory::default()
    }

    /// The directory of well-known public resolvers used throughout the
    /// paper's discussion and the experiments, keyed from `seed`.
    ///
    /// The first three entries are the three resolvers shown in Figure 1.
    /// Past its sixteen named entries the directory continues by a rule
    /// (see [`ResolverDirectory::take`]), so a sweep can ask for as many
    /// resolvers as the paper's (N up to 31).
    pub fn well_known(seed: u64) -> Self {
        let entries = [
            ("dns.google", SimAddr::v4(8, 8, 8, 8, ports::HTTPS)),
            ("cloudflare-dns.com", SimAddr::v4(1, 1, 1, 1, ports::HTTPS)),
            ("dns.quad9.net", SimAddr::v4(9, 9, 9, 9, ports::HTTPS)),
            (
                "doh.opendns.com",
                SimAddr::v4(208, 67, 222, 222, ports::HTTPS),
            ),
            (
                "dns.adguard-dns.com",
                SimAddr::v4(94, 140, 14, 14, ports::HTTPS),
            ),
            (
                "doh.cleanbrowsing.org",
                SimAddr::v4(185, 228, 168, 9, ports::HTTPS),
            ),
            ("doh.dns.sb", SimAddr::v4(185, 222, 222, 222, ports::HTTPS)),
            ("dns.mullvad.net", SimAddr::v4(194, 242, 2, 2, ports::HTTPS)),
            (
                "doh.libredns.gr",
                SimAddr::v4(116, 202, 176, 26, ports::HTTPS),
            ),
            ("dns.switch.ch", SimAddr::v4(130, 59, 31, 248, ports::HTTPS)),
            ("doh.ffmuc.net", SimAddr::v4(5, 1, 66, 255, ports::HTTPS)),
            (
                "dns.digitale-gesellschaft.ch",
                SimAddr::v4(185, 95, 218, 42, ports::HTTPS),
            ),
            (
                "doh.applied-privacy.net",
                SimAddr::v4(146, 255, 56, 98, ports::HTTPS),
            ),
            ("dns.njal.la", SimAddr::v4(95, 215, 19, 53, ports::HTTPS)),
            ("doh.seby.io", SimAddr::v4(139, 99, 222, 72, ports::HTTPS)),
            ("dns.alidns.com", SimAddr::v4(223, 5, 5, 5, ports::HTTPS)),
        ];
        ResolverDirectory {
            resolvers: entries
                .iter()
                .map(|(name, addr)| ResolverInfo::new(name, *addr, seed))
                .collect(),
            continued: Some(seed),
        }
    }

    /// Adds a resolver to the directory.
    pub fn add(&mut self, resolver: ResolverInfo) {
        self.resolvers.push(resolver);
    }

    /// The directory's entries: not the resolvers
    /// [`take`](ResolverDirectory::take) continues a well-known directory with.
    pub fn resolvers(&self) -> &[ResolverInfo] {
        &self.resolvers
    }

    /// The first `n` resolvers (the "list of trusted DoH resolvers" an
    /// application configures).
    ///
    /// A [`well_known`](ResolverDirectory::well_known) directory continues
    /// past its entries by a rule: the `k`-th resolver past them (from 0),
    /// at position `i` counting from 1, is `doh<i>.example` at
    /// `198.19.h.l:443`, `h.l` being `k` as two octets, keyed from the
    /// directory's seed like the rest. 198.19.0.0/16 is the upper half of
    /// the RFC 2544 benchmarking block, which no fixture uses (the lower
    /// half holds the loopback fleet's attacker addresses). So it yields
    /// exactly `n` distinct resolvers up to 65 536 past its entries, and
    /// stops there. A directory built by hand returns fewer when it is
    /// smaller.
    pub fn take(&self, n: usize) -> Vec<ResolverInfo> {
        let mut taken: Vec<ResolverInfo> = self.resolvers.iter().take(n).cloned().collect();
        if let Some(seed) = self.continued {
            for k in (0..=u16::MAX).take(n.saturating_sub(taken.len())) {
                let [h, l] = k.to_be_bytes();
                let name = format!("doh{}.example", self.resolvers.len() + usize::from(k) + 1);
                let addr = SimAddr::v4(198, 19, h, l, ports::HTTPS);
                taken.push(ResolverInfo::new(&name, addr, seed));
            }
        }
        taken
    }

    /// Looks an entry up by host name (not the resolvers
    /// [`take`](ResolverDirectory::take) continues a well-known directory with).
    pub fn by_name(&self, name: &str) -> Option<&ResolverInfo> {
        self.resolvers.iter().find(|r| r.name == name)
    }

    /// Number of entries in the directory, not counting the resolvers
    /// [`take`](ResolverDirectory::take) continues a well-known directory with.
    pub fn len(&self) -> usize {
        self.resolvers.len()
    }

    /// Returns `true` when the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.resolvers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_contains_figure1_resolvers() {
        let directory = ResolverDirectory::well_known(7);
        assert!(directory.len() >= 8);
        for name in ["dns.google", "cloudflare-dns.com", "dns.quad9.net"] {
            let info = directory.by_name(name).unwrap();
            assert_eq!(info.addr.port, 443);
        }
        assert!(directory.by_name("unknown.example").is_none());
    }

    #[test]
    fn take_returns_prefix() {
        let directory = ResolverDirectory::well_known(7);
        let three = directory.take(3);
        assert_eq!(three.len(), 3);
        assert_eq!(three[0].name, "dns.google");
        assert_eq!(three[1].name, "cloudflare-dns.com");
        assert_eq!(three[2].name, "dns.quad9.net");
        // Past its named entries the directory continues: exactly as many
        // as asked, the named ones first and unchanged, up to the rule's
        // limit.
        let many = directory.take(1000);
        assert_eq!(many.len(), 1000);
        assert_eq!(&many[..directory.len()], directory.resolvers());
        assert_eq!(many[directory.len()].name, "doh17.example");
        let limit = directory.len() + 65_536;
        assert_eq!(directory.take(limit + 5).len(), limit);
        // A directory built by hand ends where its entries do.
        let mut manual = ResolverDirectory::new();
        manual.add(directory.resolvers()[0].clone());
        assert_eq!(manual.take(3).len(), 1);
    }

    #[test]
    fn thirty_one_resolvers_are_thirty_one_distinct_resolvers() {
        let taken = ResolverDirectory::well_known(1).take(31);
        assert_eq!(taken.len(), 31);
        for (at, resolver) in taken.iter().enumerate() {
            for earlier in &taken[..at] {
                assert_ne!(resolver.name, earlier.name);
                assert_ne!(resolver.addr, earlier.addr);
                assert_ne!(resolver.key, earlier.key);
            }
        }
        // Every continued resolver is keyed from the seed like the rest.
        let other = ResolverDirectory::well_known(2).take(31);
        assert!(taken.iter().zip(&other).all(|(a, b)| a.key != b.key));
        assert_eq!(taken, ResolverDirectory::well_known(1).take(31));
    }

    #[test]
    fn keys_differ_per_resolver_and_per_seed() {
        let a = ResolverDirectory::well_known(1);
        let b = ResolverDirectory::well_known(2);
        assert_ne!(
            a.by_name("dns.google").unwrap().key,
            a.by_name("dns.quad9.net").unwrap().key
        );
        assert_ne!(
            a.by_name("dns.google").unwrap().key,
            b.by_name("dns.google").unwrap().key
        );
        // Same seed reproduces the same keys.
        let c = ResolverDirectory::well_known(1);
        assert_eq!(
            a.by_name("dns.google").unwrap().key,
            c.by_name("dns.google").unwrap().key
        );
    }

    #[test]
    fn addresses_are_unique() {
        let directory = ResolverDirectory::well_known(7);
        let mut addrs: Vec<SimAddr> = directory.resolvers().iter().map(|r| r.addr).collect();
        let before = addrs.len();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), before);
    }

    #[test]
    fn manual_directory_construction() {
        let mut directory = ResolverDirectory::new();
        assert!(directory.is_empty());
        directory.add(ResolverInfo::new(
            "doh.corp.example",
            SimAddr::v4(10, 10, 10, 10, 443),
            5,
        ));
        assert_eq!(directory.len(), 1);
        assert_eq!(directory.resolvers()[0].name, "doh.corp.example");
    }
}
