//! A TTL-respecting resolver cache driven by the simulation clock, with
//! RFC 2181 §5.4.1-style trust ranking of cached data.

use std::collections::HashMap;

use sdoh_dns_wire::{Message, Name, Rcode, Record, RrType, Ttl};
use sdoh_netsim::{SimClock, SimInstant};

/// How trustworthy a piece of cached data is, by the response section and
/// server role it came from (RFC 2181 §5.4.1).
///
/// An insert never replaces a live entry of **higher** credibility: a
/// cached authoritative answer cannot be overwritten by referral glue or
/// other unchecked additional-section data a later response happened to
/// carry — the cache-overwrite half of classic poisoning attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Credibility {
    /// Unchecked additional-section data, e.g. referral glue addresses.
    Additional,
    /// Authority-section data from a referral response.
    Authority,
    /// Answer-section data from a non-authoritative (cached/recursive)
    /// response.
    Answer,
    /// Answer-section data from the zone's authoritative server.
    AuthoritativeAnswer,
}

impl Credibility {
    /// The credibility of an answer section given the response's AA bit.
    pub fn of_answer(authoritative: bool) -> Self {
        if authoritative {
            Credibility::AuthoritativeAnswer
        } else {
            Credibility::Answer
        }
    }
}

/// A cached answer: either a set of records or a negative result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    /// Records from the answer section (empty for negative entries).
    pub records: Vec<Record>,
    /// Response code of the original answer.
    pub rcode: Rcode,
}

#[derive(Debug, Clone)]
struct Entry {
    answer: CachedAnswer,
    credibility: Credibility,
    expires_at: SimInstant,
}

/// A bounded, TTL-respecting DNS cache keyed by `(name, type)`.
#[derive(Debug, Clone)]
pub struct DnsCache {
    clock: SimClock,
    entries: HashMap<(Name, RrType), Entry>,
    capacity: usize,
    /// TTL used for negative entries when the response carries no SOA.
    negative_ttl: Ttl,
}

impl DnsCache {
    /// Creates a cache bound to the given clock with the given capacity.
    pub fn new(clock: SimClock, capacity: usize) -> Self {
        DnsCache {
            clock,
            entries: HashMap::new(),
            capacity: capacity.max(1),
            negative_ttl: Ttl::from_secs(60),
        }
    }

    /// Number of (possibly expired) entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a fresh entry for `(name, rtype)`.
    pub fn get(&mut self, name: &Name, rtype: RrType) -> Option<CachedAnswer> {
        let now = self.clock.now();
        let key = (name.clone(), rtype);
        match self.entries.get(&key) {
            Some(entry) if entry.expires_at > now => Some(entry.answer.clone()),
            Some(_) => {
                self.entries.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Looks up the credibility of the live entry for `(name, rtype)`
    /// without expiring it.
    pub fn credibility_of(&self, name: &Name, rtype: RrType) -> Option<Credibility> {
        let now = self.clock.now();
        self.entries
            .get(&(name.clone(), rtype))
            .filter(|e| e.expires_at > now)
            .map(|e| e.credibility)
    }

    /// Iterates over every (possibly expired) entry: the inspection hook
    /// the adversarial test suite uses to assert that nothing out of
    /// bailiwick was ever cached.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, RrType, &CachedAnswer)> + '_ {
        self.entries
            .iter()
            .map(|((name, rtype), entry)| (name, *rtype, &entry.answer))
    }

    /// Stores the answer section of `response` under `(name, rtype)` with
    /// the given credibility.
    ///
    /// The entry lives for the minimum answer TTL; negative answers use the
    /// SOA minimum when present, or the configured negative TTL.
    pub fn insert_response(
        &mut self,
        name: &Name,
        rtype: RrType,
        response: &Message,
        credibility: Credibility,
    ) {
        let records: Vec<Record> = response.answers.clone();
        let ttl = if records.is_empty() {
            response
                .authorities
                .iter()
                .find_map(|r| match &r.rdata {
                    sdoh_dns_wire::RData::Soa(soa) => {
                        Some(Ttl::from_secs(soa.minimum).min(Ttl::from_secs(r.ttl)))
                    }
                    _ => None,
                })
                .unwrap_or(self.negative_ttl)
        } else {
            records
                .iter()
                .map(|r| Ttl::from_secs(r.ttl))
                .min()
                .unwrap_or(Ttl::ZERO)
        };
        self.insert_with_ttl(
            name.clone(),
            rtype,
            CachedAnswer {
                records,
                rcode: response.header.rcode,
            },
            ttl,
            credibility,
        );
    }

    /// Stores an answer with an explicit TTL and credibility.
    ///
    /// The insert is **refused** when a live entry of strictly higher
    /// credibility already exists under the key: lower-trust data (glue,
    /// additional records) can never displace a cached authoritative
    /// answer. Equal or higher credibility replaces the entry (a refresh).
    pub fn insert_with_ttl(
        &mut self,
        name: Name,
        rtype: RrType,
        answer: CachedAnswer,
        ttl: Ttl,
        credibility: Credibility,
    ) {
        if ttl.is_zero() {
            return;
        }
        let key = (name, rtype);
        let now = self.clock.now();
        if let Some(existing) = self.entries.get(&key) {
            if existing.expires_at > now && existing.credibility > credibility {
                return;
            }
        } else if self.entries.len() >= self.capacity {
            self.evict_one();
        }
        let expires_at = now.saturating_add(ttl.as_duration());
        self.entries.insert(
            key,
            Entry {
                answer,
                credibility,
                expires_at,
            },
        );
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn evict_one(&mut self) {
        // Evict the entry closest to expiry (cheap approximation of LRU that
        // does not need per-access bookkeeping).
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.expires_at)
            .map(|(k, _)| k.clone())
        {
            self.entries.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_dns_wire::{MessageBuilder, RData};
    use std::time::Duration;

    fn response_with_addresses(name: &Name, ttl: u32, count: u8) -> Message {
        let query = Message::query(1, name.clone(), RrType::A);
        let mut builder = MessageBuilder::response_to(&query);
        for i in 0..count {
            builder = builder.answer(Record::new(
                name.clone(),
                ttl,
                RData::A(std::net::Ipv4Addr::new(203, 0, 113, i + 1)),
            ));
        }
        builder.build()
    }

    #[test]
    fn insert_and_hit() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock.clone(), 16);
        let name: Name = "pool.ntp.org".parse().unwrap();
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 300, 3),
            Credibility::Answer,
        );
        let hit = cache.get(&name, RrType::A).unwrap();
        assert_eq!(hit.records.len(), 3);
        assert_eq!(hit.rcode, Rcode::NoError);
    }

    #[test]
    fn expires_after_ttl() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock.clone(), 16);
        let name: Name = "pool.ntp.org".parse().unwrap();
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 10, 1),
            Credibility::Answer,
        );
        clock.advance(Duration::from_secs(9));
        assert!(cache.get(&name, RrType::A).is_some());
        clock.advance(Duration::from_secs(2));
        assert!(cache.get(&name, RrType::A).is_none());
    }

    #[test]
    fn negative_entries_use_soa_minimum() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock.clone(), 16);
        let name: Name = "missing.ntp.org".parse().unwrap();
        let query = Message::query(2, name.clone(), RrType::A);
        let mut response = Message::error_response(&query, Rcode::NxDomain);
        response.authorities.push(Record::new(
            "ntp.org".parse().unwrap(),
            30,
            RData::Soa(sdoh_dns_wire::Soa::new(
                "ns.ntp.org".parse().unwrap(),
                "host.ntp.org".parse().unwrap(),
                1,
            )),
        ));
        cache.insert_response(
            &name,
            RrType::A,
            &response,
            Credibility::AuthoritativeAnswer,
        );
        let hit = cache.get(&name, RrType::A).unwrap();
        assert!(hit.records.is_empty());
        assert_eq!(hit.rcode, Rcode::NxDomain);
        // SOA record TTL (30s) bounds the negative TTL (SOA minimum is 300).
        clock.advance(Duration::from_secs(31));
        assert!(cache.get(&name, RrType::A).is_none());
    }

    #[test]
    fn zero_ttl_is_not_cached() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock, 16);
        let name: Name = "zero.ntp.org".parse().unwrap();
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 0, 1),
            Credibility::Answer,
        );
        assert!(cache.get(&name, RrType::A).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock, 4);
        for i in 0..10 {
            let name: Name = format!("host{i}.example").parse().unwrap();
            cache.insert_response(
                &name,
                RrType::A,
                &response_with_addresses(&name, 300, 1),
                Credibility::Answer,
            );
        }
        assert!(cache.len() <= 4);
    }

    #[test]
    fn purge_and_clear() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock.clone(), 16);
        for i in 0..4 {
            let name: Name = format!("host{i}.example").parse().unwrap();
            cache.insert_response(
                &name,
                RrType::A,
                &response_with_addresses(&name, 10 * (i + 1), 1),
                Credibility::Answer,
            );
        }
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn lower_credibility_cannot_overwrite_live_entry() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock.clone(), 16);
        let name: Name = "ns.ntpns.org".parse().unwrap();
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 300, 1),
            Credibility::AuthoritativeAnswer,
        );
        assert_eq!(
            cache.credibility_of(&name, RrType::A),
            Some(Credibility::AuthoritativeAnswer)
        );

        // Glue-grade data must bounce off the authoritative entry...
        let forged = response_with_addresses(&name, 3600, 3);
        cache.insert_response(&name, RrType::A, &forged, Credibility::Additional);
        let hit = cache.get(&name, RrType::A).unwrap();
        assert_eq!(hit.records.len(), 1, "authoritative answer survives");

        // ...and so must non-authoritative answers.
        cache.insert_response(&name, RrType::A, &forged, Credibility::Answer);
        assert_eq!(cache.get(&name, RrType::A).unwrap().records.len(), 1);

        // Equal credibility refreshes the entry.
        cache.insert_response(&name, RrType::A, &forged, Credibility::AuthoritativeAnswer);
        assert_eq!(cache.get(&name, RrType::A).unwrap().records.len(), 3);
    }

    #[test]
    fn expired_entries_accept_any_credibility() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock.clone(), 16);
        let name: Name = "ns.ntpns.org".parse().unwrap();
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 10, 1),
            Credibility::AuthoritativeAnswer,
        );
        clock.advance(Duration::from_secs(11));
        assert_eq!(cache.credibility_of(&name, RrType::A), None);
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 300, 2),
            Credibility::Additional,
        );
        assert_eq!(cache.get(&name, RrType::A).unwrap().records.len(), 2);
        assert_eq!(
            cache.credibility_of(&name, RrType::A),
            Some(Credibility::Additional)
        );
    }

    #[test]
    fn higher_credibility_upgrades_the_entry() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock, 16);
        let name: Name = "ns.ntpns.org".parse().unwrap();
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 300, 1),
            Credibility::Additional,
        );
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 300, 2),
            Credibility::AuthoritativeAnswer,
        );
        assert_eq!(cache.get(&name, RrType::A).unwrap().records.len(), 2);
    }

    #[test]
    fn iter_exposes_entries() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock, 16);
        let name: Name = "pool.ntp.org".parse().unwrap();
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 300, 2),
            Credibility::Answer,
        );
        let entries: Vec<_> = cache.iter().collect();
        assert_eq!(entries.len(), 1);
        let (entry_name, rtype, answer) = &entries[0];
        assert_eq!(*entry_name, &name);
        assert_eq!(*rtype, RrType::A);
        assert_eq!(answer.records.len(), 2);
    }

    #[test]
    fn credibility_ordering_matches_rfc2181() {
        assert!(Credibility::AuthoritativeAnswer > Credibility::Answer);
        assert!(Credibility::Answer > Credibility::Authority);
        assert!(Credibility::Authority > Credibility::Additional);
        assert_eq!(
            Credibility::of_answer(true),
            Credibility::AuthoritativeAnswer
        );
        assert_eq!(Credibility::of_answer(false), Credibility::Answer);
    }

    #[test]
    fn distinct_types_are_distinct_keys() {
        let clock = SimClock::new();
        let mut cache = DnsCache::new(clock, 16);
        let name: Name = "dual.example".parse().unwrap();
        cache.insert_response(
            &name,
            RrType::A,
            &response_with_addresses(&name, 300, 1),
            Credibility::Answer,
        );
        assert!(cache.get(&name, RrType::A).is_some());
        assert!(cache.get(&name, RrType::Aaaa).is_none());
    }
}
