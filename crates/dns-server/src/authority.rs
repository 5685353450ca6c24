//! The authoritative name-server engine: answers queries from a [`Catalog`]
//! of zones (the `c/d/e.ntpns.org` servers of the paper's Figure 1).

use sdoh_dns_wire::{Message, MessageBuilder, Opcode, Rcode, RrType};

use crate::catalog::Catalog;
use crate::zone::ZoneLookup;

/// Maximum number of CNAME links followed inside a single zone while
/// building an answer.
const MAX_CNAME_CHAIN: usize = 8;

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
        if query.header.opcode != Opcode::Query {
            return Message::error_response(query, Rcode::NotImp);
        }
        let question = match query.question() {
            Some(q) => q.clone(),
            None => return Message::error_response(query, Rcode::FormErr),
        };

        let zone = match self.catalog.find(&question.name) {
            Some(z) => z,
            None => return Message::error_response(query, Rcode::Refused),
        };

        let mut builder = MessageBuilder::response_to(query).authoritative(true);
        let mut current_name = question.name.clone();
        let mut chain = 0usize;

        loop {
            match zone.lookup(&current_name, question.rtype) {
                ZoneLookup::Answer(records) => {
                    for r in records {
                        builder = builder.answer(r);
                    }
                    return builder.build();
                }
                ZoneLookup::Cname(cname) => {
                    let target = cname
                        .rdata
                        .target_name()
                        .cloned()
                        .unwrap_or_else(|| current_name.clone());
                    builder = builder.answer(cname);
                    chain += 1;
                    if chain > MAX_CNAME_CHAIN || !zone.contains(&target) {
                        // Target is outside this zone (or the chain is too
                        // long): return what we have; a resolver will chase it.
                        return builder.build();
                    }
                    current_name = target;
                }
                ZoneLookup::Delegation { ns_records, glue } => {
                    let mut msg = MessageBuilder::response_to(query).authoritative(false);
                    for ns in ns_records {
                        msg = msg.authority(ns);
                    }
                    for g in glue {
                        msg = msg.additional(g);
                    }
                    return msg.build();
                }
                ZoneLookup::NoRecords => {
                    if let Some(soa) = zone.soa() {
                        builder = builder.authority(soa.clone());
                    }
                    return builder.build();
                }
                ZoneLookup::NxDomain => {
                    builder = builder.rcode(Rcode::NxDomain);
                    if let Some(soa) = zone.soa() {
                        builder = builder.authority(soa.clone());
                    }
                    return builder.build();
                }
            }
        }
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
