//! The authoritative name-server engine: answers queries from a [`Catalog`]
//! of zones (the `c/d/e.ntpns.org` servers of the paper's Figure 1).
//!
//! # One walk, two ends
//!
//! A query is answered by one walk through the catalog and the zone:
//! opcode, question, enclosing zone, then lookups along any CNAME chain.
//! The walk keeps what it found lent from the zone and the query, and the
//! response is written from that: [`Authority::answer_into`] writes the
//! records where they lie into wire form, [`Authority::answer`] copies
//! them into a [`Message`]. Both go through the one message encoder
//! ([`encode_sections`]), so the wire form is `answer(..).encode()` byte
//! for byte, without a record, question or name copied on the way.

use sdoh_dns_wire::{
    encode_sections, Header, Message, Name, Opcode, Rcode, Record, RrType, WireResult,
};

use crate::catalog::Catalog;
use crate::zone::{Delegation, Zone, ZoneLookup};

/// Maximum number of CNAME links followed inside a single zone while
/// building an answer.
const MAX_CNAME_CHAIN: usize = 8;

/// What one walk found for a query.
struct Found<'a> {
    /// The zone answering; `None` for an error response.
    zone: Option<&'a Zone>,
    rcode: Rcode,
    /// The CNAME records followed, in order.
    chain: [Option<&'a Record>; MAX_CNAME_CHAIN + 1],
    /// The lookup the walk ended on and the name it looked up; `None` when
    /// a chain was left for a resolver to chase (its target outside the
    /// zone, or the chain too long).
    end: Option<(&'a Name, ZoneLookup<'a>)>,
}

impl<'a> Found<'a> {
    fn error(rcode: Rcode) -> Self {
        Found {
            zone: None,
            rcode,
            chain: [None; MAX_CNAME_CHAIN + 1],
            end: None,
        }
    }

    fn delegation(&self) -> Option<Delegation<'a>> {
        match self.end {
            Some((_, ZoneLookup::Delegation(cut))) => Some(cut),
            _ => None,
        }
    }

    /// The response header: a referral is not authoritative, nor is an
    /// error.
    fn header(&self, query: &Message) -> Header {
        Header {
            authoritative: self.zone.is_some() && self.delegation().is_none(),
            rcode: self.rcode,
            ..Header::response_to(&query.header)
        }
    }

    /// Each answer record with the owner it is written under: the chain's
    /// and an exact match's their own, a wildcard's the name looked up.
    fn answers(&self) -> impl Iterator<Item = (&'a Name, &'a Record)> {
        let (owner, records) = match self.end {
            Some((_, ZoneLookup::Answer(records))) => (None, Some(records)),
            Some((name, ZoneLookup::Wildcard(records))) => (Some(name), Some(records)),
            _ => (None, None),
        };
        let chain = self.chain.into_iter().flatten().map(|r| (&r.name, r));
        let records = records
            .into_iter()
            .flat_map(|records| records.iter())
            .map(move |r| (owner.unwrap_or(&r.name), r));
        chain.chain(records)
    }

    /// A referral's NS records, or the zone's SOA when the name or the type
    /// is missing.
    fn authorities(&self) -> impl Iterator<Item = &'a Record> {
        let soa = match self.end {
            Some((_, ZoneLookup::NoRecords | ZoneLookup::NxDomain)) => {
                self.zone.and_then(Zone::soa)
            }
            _ => None,
        };
        let cut = self.delegation();
        cut.into_iter().flat_map(Delegation::ns_records).chain(soa)
    }

    /// A referral's glue.
    fn additionals(&self) -> impl Iterator<Item = &'a Record> {
        self.delegation().into_iter().flat_map(Delegation::glue)
    }
}

/// An authoritative DNS server over a catalog of zones.
#[derive(Debug, Clone, Default)]
pub struct Authority {
    catalog: Catalog,
}

impl Authority {
    /// Creates an authority serving the given catalog.
    pub fn new(catalog: Catalog) -> Self {
        Authority { catalog }
    }

    /// Read access to the underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the underlying catalog.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Produces an authoritative response for `query`.
    ///
    /// Unsupported opcodes get NOTIMP, queries outside all zones get
    /// REFUSED, missing names get NXDOMAIN with the zone SOA attached, and
    /// names below a zone cut get a referral.
    pub fn answer(&self, query: &Message) -> Message {
        let found = self.walk(query);
        let mut response = Message {
            header: found.header(query),
            questions: query.questions.clone(),
            answers: found
                .answers()
                .map(|(owner, r)| Record {
                    name: owner.clone(),
                    rclass: r.rclass,
                    ttl: r.ttl,
                    rdata: r.rdata.clone(),
                })
                .collect(),
            authorities: found.authorities().cloned().collect(),
            additionals: found.additionals().cloned().collect(),
        };
        response.normalize_counts();
        response
    }

    /// [`Authority::answer`] in wire form, into `out` (replacing its
    /// contents): the same bytes as `answer(query).encode()`, written from
    /// the zone's records where they lie.
    ///
    /// # Errors
    ///
    /// The encoding error `answer(query).encode()` would return; `out` is
    /// left empty.
    pub fn answer_into(&self, query: &Message, out: &mut Vec<u8>) -> WireResult<()> {
        let found = self.walk(query);
        encode_sections(
            found.header(query),
            &query.questions,
            found.answers(),
            found.authorities(),
            found.additionals(),
            out,
        )
    }

    /// The one walk (see the module documentation): opcode, question and
    /// zone, then one lookup per name along the CNAME chain.
    fn walk<'a>(&'a self, query: &'a Message) -> Found<'a> {
        if query.header.opcode != Opcode::Query {
            return Found::error(Rcode::NotImp);
        }
        let Some(question) = query.question() else {
            return Found::error(Rcode::FormErr);
        };
        let Some(zone) = self.catalog.find(&question.name) else {
            return Found::error(Rcode::Refused);
        };

        let mut chain = [None; MAX_CNAME_CHAIN + 1];
        let mut end = None;
        let mut name = &question.name;
        for link in &mut chain {
            match zone.lookup(name, question.rtype) {
                ZoneLookup::Cname(cname) => {
                    *link = Some(cname);
                    let target = cname.rdata.target_name().unwrap_or(name);
                    if !zone.contains(target) {
                        // A resolver will chase it.
                        break;
                    }
                    name = target;
                }
                lookup => {
                    end = Some((name, lookup));
                    break;
                }
            }
        }
        let mut found = Found {
            zone: Some(zone),
            rcode: Rcode::NoError,
            chain,
            end,
        };
        match found.end {
            // A referral answers for the cut, not for the aliases.
            Some((_, ZoneLookup::Delegation(_))) => found.chain = [None; MAX_CNAME_CHAIN + 1],
            Some((_, ZoneLookup::NxDomain)) => found.rcode = Rcode::NxDomain,
            _ => {}
        }
        found
    }

    /// Convenience check used by tests and experiments: how many addresses
    /// the authority would return for an A query on `name`.
    pub fn address_count(&self, name: &sdoh_dns_wire::Name) -> usize {
        let query = Message::query(0, name.clone(), RrType::A);
        self.answer(&query).answer_addresses().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;
    use crate::zonefile::parse_zone;
    use sdoh_dns_wire::{Name, RData, Record};

    fn test_authority() -> Authority {
        authority_of(
            r#"
$TTL 300
@      IN SOA ns1 hostmaster 1 7200 900 1209600 300
@      IN NS  c.ntpns.org.
c      IN A   198.51.100.3
pool   IN A   203.0.113.1
pool   IN A   203.0.113.2
pool   IN A   203.0.113.3
alias  IN CNAME pool
extern IN CNAME www.example.com.
child  IN NS  ns.child.ntpns.org.
ns.child IN A 198.51.100.99
"#,
        )
    }

    fn authority_of(text: &str) -> Authority {
        let origin: Name = "ntpns.org".parse().unwrap();
        let zone = parse_zone(&origin, text).unwrap();
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        Authority::new(catalog)
    }

    #[test]
    fn answers_address_queries() {
        let authority = test_authority();
        let query = Message::query(1, "pool.ntpns.org".parse().unwrap(), RrType::A);
        let response = authority.answer(&query);
        assert_eq!(response.header.rcode, Rcode::NoError);
        assert!(response.header.authoritative);
        assert_eq!(response.answer_addresses().len(), 3);
        assert!(response.answers_query(&query));
    }

    #[test]
    fn chases_cname_within_zone() {
        let authority = test_authority();
        let query = Message::query(2, "alias.ntpns.org".parse().unwrap(), RrType::A);
        let response = authority.answer(&query);
        // CNAME + 3 A records
        assert_eq!(response.answers.len(), 4);
        assert_eq!(response.answer_addresses().len(), 3);
    }

    #[test]
    fn leaves_external_cname_unchased() {
        let authority = test_authority();
        let query = Message::query(3, "extern.ntpns.org".parse().unwrap(), RrType::A);
        let response = authority.answer(&query);
        assert_eq!(response.answers.len(), 1);
        assert_eq!(response.answers[0].rtype(), RrType::Cname);
    }

    #[test]
    fn delegation_returns_referral() {
        let authority = test_authority();
        let query = Message::query(4, "host.child.ntpns.org".parse().unwrap(), RrType::A);
        let response = authority.answer(&query);
        assert!(response.answers.is_empty());
        assert!(!response.header.authoritative);
        assert_eq!(response.authorities.len(), 1);
        assert_eq!(response.authorities[0].rtype(), RrType::Ns);
        assert_eq!(response.additionals.len(), 1);
    }

    #[test]
    fn a_cut_below_an_empty_non_terminal_returns_a_referral() {
        // Nothing is stored at `deep`: the walk down from the origin must
        // step over it to reach the cut at `child.deep`.
        let authority = authority_of(
            r#"
$TTL 300
@      IN SOA ns1 hostmaster 1 7200 900 1209600 300
@      IN NS  c.ntpns.org.
c      IN A   198.51.100.3
child.deep IN NS ns.child.deep.ntpns.org.
ns.child.deep IN A 198.51.100.98
"#,
        );
        let query = Message::query(4, "host.child.deep.ntpns.org".parse().unwrap(), RrType::A);
        let response = authority.answer(&query);
        assert_eq!(response.header.rcode, Rcode::NoError);
        assert!(response.answers.is_empty());
        assert!(!response.header.authoritative);
        assert_eq!(response.authorities.len(), 1);
        assert_eq!(response.authorities[0].rtype(), RrType::Ns);
        assert_eq!(response.additionals.len(), 1);
    }

    #[test]
    fn nxdomain_with_soa() {
        let authority = test_authority();
        let query = Message::query(5, "missing.ntpns.org".parse().unwrap(), RrType::A);
        let response = authority.answer(&query);
        assert_eq!(response.header.rcode, Rcode::NxDomain);
        assert_eq!(response.authorities.len(), 1);
        assert_eq!(response.authorities[0].rtype(), RrType::Soa);
    }

    #[test]
    fn nodata_with_soa() {
        let authority = test_authority();
        let query = Message::query(6, "pool.ntpns.org".parse().unwrap(), RrType::Aaaa);
        let response = authority.answer(&query);
        assert_eq!(response.header.rcode, Rcode::NoError);
        assert!(response.answers.is_empty());
        assert_eq!(response.authorities.len(), 1);
    }

    #[test]
    fn refuses_out_of_zone_queries() {
        let authority = test_authority();
        let query = Message::query(7, "www.example.com".parse().unwrap(), RrType::A);
        let response = authority.answer(&query);
        assert_eq!(response.header.rcode, Rcode::Refused);
    }

    #[test]
    fn notimp_for_unsupported_opcode() {
        let authority = test_authority();
        let mut query = Message::query(8, "pool.ntpns.org".parse().unwrap(), RrType::A);
        query.header.opcode = Opcode::Update;
        assert_eq!(authority.answer(&query).header.rcode, Rcode::NotImp);
    }

    #[test]
    fn formerr_for_empty_question() {
        let authority = test_authority();
        let query = Message::new();
        assert_eq!(authority.answer(&query).header.rcode, Rcode::FormErr);
    }

    #[test]
    fn address_count_helper() {
        let authority = test_authority();
        assert_eq!(
            authority.address_count(&"pool.ntpns.org".parse().unwrap()),
            3
        );
        assert_eq!(
            authority.address_count(&"missing.ntpns.org".parse().unwrap()),
            0
        );
    }

    #[test]
    fn catalog_accessors() {
        let mut authority = test_authority();
        assert_eq!(authority.catalog().len(), 1);
        authority
            .catalog_mut()
            .add_zone(Zone::new("other.test".parse().unwrap()));
        assert_eq!(authority.catalog().len(), 2);
        // New zone is served too.
        let query = Message::query(9, "other.test".parse().unwrap(), RrType::Soa);
        assert_eq!(authority.answer(&query).header.rcode, Rcode::NoError);
    }

    #[test]
    fn cname_loop_terminates() {
        let origin: Name = "loop.test".parse().unwrap();
        let mut zone = Zone::new(origin.clone());
        zone.add_record(Record::new(
            "a.loop.test".parse().unwrap(),
            60,
            RData::Cname("b.loop.test".parse().unwrap()),
        ));
        zone.add_record(Record::new(
            "b.loop.test".parse().unwrap(),
            60,
            RData::Cname("a.loop.test".parse().unwrap()),
        ));
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        let authority = Authority::new(catalog);
        let query = Message::query(10, "a.loop.test".parse().unwrap(), RrType::A);
        let response = authority.answer(&query);
        // Terminates and returns the chain without addresses.
        assert!(response.answer_addresses().is_empty());
        assert!(response.answers.len() <= MAX_CNAME_CHAIN + 1);
    }
}
