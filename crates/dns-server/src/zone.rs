//! Authoritative zone data and lookup semantics.

use std::collections::BTreeMap;
use std::net::IpAddr;

use sdoh_dns_wire::{Name, RData, Record, RrType, Soa};

/// Outcome of looking a name and type up in a zone, lent from the zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneLookup<'z> {
    /// Records of the type exist at the name.
    Answer(RecordSet<'z>),
    /// A wildcard holds records of the type (RFC 1034 §4.3.3): they answer
    /// under the name looked up, which a response writes as their owner.
    Wildcard(RecordSet<'z>),
    /// The name exists and is an alias; the CNAME record is returned and the
    /// caller should chase the target.
    Cname(&'z Record),
    /// The name falls below a zone cut.
    Delegation(Delegation<'z>),
    /// The name exists but has no records of the requested type.
    NoRecords,
    /// The name does not exist in this zone.
    NxDomain,
}

/// The records of one owner that answer a type — every one of them for
/// ANY — in zone order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSet<'z> {
    owned: &'z [Record],
    rtype: RrType,
}

impl<'z> RecordSet<'z> {
    /// The records, in zone order.
    pub fn iter(self) -> impl Iterator<Item = &'z Record> {
        let rtype = self.rtype;
        self.owned
            .iter()
            .filter(move |r| rtype == RrType::Any || r.rtype() == rtype)
    }

    /// Returns `true` when no record answers.
    pub fn is_empty(self) -> bool {
        self.iter().next().is_none()
    }
}

/// A zone cut: the NS records of the delegation and the zone's glue for
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delegation<'z> {
    zone: &'z Zone,
    ns_records: RecordSet<'z>,
}

impl<'z> Delegation<'z> {
    /// NS records describing the child zone's servers.
    pub fn ns_records(self) -> impl Iterator<Item = &'z Record> {
        self.ns_records.iter()
    }

    /// A/AAAA glue records for those servers, when present in this zone.
    pub fn glue(self) -> impl Iterator<Item = &'z Record> {
        self.ns_records()
            .filter_map(|ns| match &ns.rdata {
                RData::Ns(target) => Some(target),
                _ => None,
            })
            .flat_map(move |target| {
                self.zone
                    .records_at(target)
                    .iter()
                    .filter(|r| r.rtype().is_address())
            })
    }
}

/// An authoritative zone: an origin name, an SOA and a set of records.
///
/// # Examples
///
/// ```
/// use sdoh_dns_server::Zone;
/// use sdoh_dns_wire::{Name, RData, Record};
///
/// let mut zone = Zone::new("ntpns.org".parse().unwrap());
/// zone.add_record(Record::new(
///     "a.pool.ntpns.org".parse().unwrap(),
///     300,
///     RData::A("203.0.113.1".parse().unwrap()),
/// ));
/// assert_eq!(zone.len(), 2); // SOA + A
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    origin: Name,
    /// Records grouped by owner name for efficient lookup.
    records: BTreeMap<Name, Vec<Record>>,
}

/// TTL of the records [`Zone::add_address`] adds.
const ADDRESS_TTL: u32 = 300;

impl Zone {
    /// Creates a zone with a synthetic SOA record at the origin.
    pub fn new(origin: Name) -> Self {
        let soa = Record::new(
            origin.clone(),
            3600,
            RData::Soa(Soa::new(
                origin.child("ns1").unwrap_or_else(|_| origin.clone()),
                origin
                    .child("hostmaster")
                    .unwrap_or_else(|_| origin.clone()),
                1,
            )),
        );
        let mut records = BTreeMap::new();
        records.insert(origin.clone(), vec![soa]);
        Zone { origin, records }
    }

    /// Creates a zone without the synthetic SOA (used by the zone-file
    /// parser, which requires an explicit SOA).
    pub fn empty(origin: Name) -> Self {
        Zone {
            origin,
            records: BTreeMap::new(),
        }
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Returns `true` when `name` is at or below the zone origin.
    pub fn contains(&self, name: &Name) -> bool {
        name.is_subdomain_of(&self.origin)
    }

    /// Adds a record. Records whose owner is outside the zone are ignored
    /// and `false` is returned.
    pub fn add_record(&mut self, record: Record) -> bool {
        if !self.contains(&record.name) {
            return false;
        }
        self.records
            .entry(record.name.clone())
            .or_default()
            .push(record);
        true
    }

    /// Convenience: adds an A or AAAA record with a 300 s TTL.
    pub fn add_address(&mut self, name: Name, addr: IpAddr) -> bool {
        self.add_record(Record::address(name, ADDRESS_TTL, addr))
    }

    /// Number of records in the zone.
    pub fn len(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// Returns `true` when the zone holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The zone's SOA record, if present.
    pub fn soa(&self) -> Option<&Record> {
        self.records
            .get(&self.origin)
            .and_then(|rs| rs.iter().find(|r| r.rtype() == RrType::Soa))
    }

    /// All records with the given owner name.
    pub fn records_at(&self, name: &Name) -> &[Record] {
        self.records.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Looks up `name`/`rtype` following RFC 1034 §4.3.2 semantics within a
    /// single zone: exact match, CNAME, delegation, wildcard, NODATA or
    /// NXDOMAIN.
    pub fn lookup(&self, name: &Name, rtype: RrType) -> ZoneLookup<'_> {
        if !self.contains(name) {
            return ZoneLookup::NxDomain;
        }

        // Check for a zone cut strictly between the origin and the name.
        if let Some(delegation) = self.find_delegation(name) {
            return ZoneLookup::Delegation(delegation);
        }

        if let Some(records) = self.records.get(name) {
            // Exact owner-name match.
            let matching = RecordSet {
                owned: records,
                rtype,
            };
            if !matching.is_empty() {
                return ZoneLookup::Answer(matching);
            }
            if rtype != RrType::Cname {
                if let Some(cname) = records.iter().find(|r| r.rtype() == RrType::Cname) {
                    return ZoneLookup::Cname(cname);
                }
            }
            return ZoneLookup::NoRecords;
        }

        // Wildcard synthesis: *.parent matching.
        if let Some(answer) = self.wildcard_lookup(name, rtype) {
            return answer;
        }

        // Empty non-terminal: a name that exists only as an ancestor of other
        // records gets NODATA instead of NXDOMAIN.
        let is_empty_non_terminal = self
            .records
            .keys()
            .any(|owner| owner != name && owner.is_subdomain_of(name));
        if is_empty_non_terminal {
            return ZoneLookup::NoRecords;
        }

        ZoneLookup::NxDomain
    }

    fn find_delegation(&self, name: &Name) -> Option<Delegation<'_>> {
        // Walk from just below the origin down towards the name, looking for
        // NS record sets at intermediate owners (zone cuts).
        let origin_labels = self.origin.num_labels();
        let name_labels = name.num_labels();
        for depth in (origin_labels + 1)..name_labels {
            let candidate = name.suffix(depth);
            // An owner without records (an empty non-terminal) is not a
            // cut, and a cut may still lie below it.
            let Some(records) = self.records.get(&candidate) else {
                continue;
            };
            let ns_records = RecordSet {
                owned: records,
                rtype: RrType::Ns,
            };
            if !ns_records.is_empty() {
                return Some(Delegation {
                    zone: self,
                    ns_records,
                });
            }
        }
        None
    }

    fn wildcard_lookup(&self, name: &Name, rtype: RrType) -> Option<ZoneLookup<'_>> {
        let mut ancestor = name.parent()?;
        loop {
            if !ancestor.is_subdomain_of(&self.origin) {
                return None;
            }
            let wildcard = ancestor.child("*").ok()?;
            if let Some(records) = self.records.get(&wildcard) {
                let matching = RecordSet {
                    owned: records,
                    rtype,
                };
                if !matching.is_empty() {
                    return Some(ZoneLookup::Wildcard(matching));
                }
                return Some(ZoneLookup::NoRecords);
            }
            ancestor = ancestor.parent()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_zone() -> Zone {
        let mut zone = Zone::new("ntpns.org".parse().unwrap());
        for (host, addr) in [
            ("a.pool.ntpns.org", "203.0.113.1"),
            ("b.pool.ntpns.org", "203.0.113.2"),
            ("c.pool.ntpns.org", "203.0.113.3"),
        ] {
            zone.add_address(host.parse().unwrap(), addr.parse().unwrap());
        }
        zone.add_record(Record::new(
            "alias.ntpns.org".parse().unwrap(),
            300,
            RData::Cname("a.pool.ntpns.org".parse().unwrap()),
        ));
        zone.add_record(Record::new(
            "child.ntpns.org".parse().unwrap(),
            300,
            RData::Ns("ns.child.ntpns.org".parse().unwrap()),
        ));
        zone.add_address(
            "ns.child.ntpns.org".parse().unwrap(),
            "198.51.100.53".parse().unwrap(),
        );
        zone.add_record(Record::new(
            "*.wild.ntpns.org".parse().unwrap(),
            300,
            RData::A("192.0.2.99".parse().unwrap()),
        ));
        zone
    }

    #[test]
    fn new_zone_has_soa() {
        let zone = Zone::new("example.org".parse().unwrap());
        assert!(zone.soa().is_some());
        assert_eq!(zone.len(), 1);
        assert!(!zone.is_empty());
    }

    #[test]
    fn exact_match_answer() {
        let zone = pool_zone();
        match zone.lookup(&"a.pool.ntpns.org".parse().unwrap(), RrType::A) {
            ZoneLookup::Answer(records) => {
                let records: Vec<&Record> = records.iter().collect();
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].ip_addr().unwrap().to_string(), "203.0.113.1");
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn any_query_returns_all_types() {
        let mut zone = pool_zone();
        zone.add_record(Record::new(
            "a.pool.ntpns.org".parse().unwrap(),
            300,
            RData::Txt(vec![b"x".to_vec()]),
        ));
        match zone.lookup(&"a.pool.ntpns.org".parse().unwrap(), RrType::Any) {
            ZoneLookup::Answer(records) => assert_eq!(records.iter().count(), 2),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn nodata_for_missing_type() {
        let zone = pool_zone();
        assert_eq!(
            zone.lookup(&"a.pool.ntpns.org".parse().unwrap(), RrType::Aaaa),
            ZoneLookup::NoRecords
        );
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let zone = pool_zone();
        assert_eq!(
            zone.lookup(&"missing.ntpns.org".parse().unwrap(), RrType::A),
            ZoneLookup::NxDomain
        );
    }

    #[test]
    fn out_of_zone_is_nxdomain_and_rejected_on_add() {
        let mut zone = pool_zone();
        assert_eq!(
            zone.lookup(&"example.com".parse().unwrap(), RrType::A),
            ZoneLookup::NxDomain
        );
        assert!(!zone.add_address(
            "www.example.com".parse().unwrap(),
            "198.51.100.1".parse().unwrap()
        ));
    }

    #[test]
    fn cname_is_surfaced() {
        let zone = pool_zone();
        match zone.lookup(&"alias.ntpns.org".parse().unwrap(), RrType::A) {
            ZoneLookup::Cname(record) => {
                assert_eq!(record.rtype(), RrType::Cname);
            }
            other => panic!("expected cname, got {other:?}"),
        }
        // Asking for the CNAME itself returns it as the answer.
        match zone.lookup(&"alias.ntpns.org".parse().unwrap(), RrType::Cname) {
            ZoneLookup::Answer(records) => assert_eq!(records.iter().count(), 1),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn delegation_below_zone_cut() {
        let zone = pool_zone();
        match zone.lookup(&"host.child.ntpns.org".parse().unwrap(), RrType::A) {
            ZoneLookup::Delegation(cut) => {
                assert_eq!(cut.ns_records().count(), 1);
                let glue: Vec<&Record> = cut.glue().collect();
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].ip_addr().unwrap().to_string(), "198.51.100.53");
            }
            other => panic!("expected delegation, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_synthesis() {
        let zone = pool_zone();
        match zone.lookup(&"anything.wild.ntpns.org".parse().unwrap(), RrType::A) {
            ZoneLookup::Wildcard(records) => {
                // Lent as stored: the response writes the name asked as owner.
                let records: Vec<&Record> = records.iter().collect();
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].name, "*.wild.ntpns.org".parse().unwrap());
                assert_eq!(records[0].ip_addr().unwrap().to_string(), "192.0.2.99");
            }
            other => panic!("expected wildcard answer, got {other:?}"),
        }
        assert_eq!(
            zone.lookup(&"anything.wild.ntpns.org".parse().unwrap(), RrType::Aaaa),
            ZoneLookup::NoRecords
        );
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let zone = pool_zone();
        assert_eq!(
            zone.lookup(&"pool.ntpns.org".parse().unwrap(), RrType::A),
            ZoneLookup::NoRecords
        );
    }

    #[test]
    fn default_ttl_is_applied() {
        let mut zone = Zone::new("x.org".parse().unwrap());
        zone.add_address("h.x.org".parse().unwrap(), "192.0.2.1".parse().unwrap());
        let records = zone.records_at(&"h.x.org".parse().unwrap());
        assert_eq!(records[0].ttl, 300);
    }
}
