//! An iterative ("recursive") resolver engine: starts at root hints, follows
//! referrals and CNAMEs, and caches what it learns.
//!
//! This is the engine running inside each simulated public DoH resolver
//! (dns.google, cloudflare-dns.com, dns.quad9.net in the paper's Figure 1):
//! it receives recursive queries from clients and issues non-recursive
//! queries to authoritative servers.
//!
//! # Hardening against the off-path attacker
//!
//! The resolver's upstream leg is plain Do53 — the unprotected path the
//! paper's attacker races forged responses onto. [`HardeningConfig`]
//! selects which classical defenses are active (all of them by default):
//!
//! * **randomized transaction ids** — a weak resolver allocates them
//!   sequentially, so one observed query predicts every later id;
//! * **ephemeral source ports** — a weak resolver queries from its fixed
//!   service port, surrendering 16 bits of the forgery search space;
//! * **0x20 mixed-case encoding** — query-name letter casing is randomized
//!   and verified on the echoed question ([`DnsClient::use_0x20`]);
//! * **bailiwick enforcement** — only records inside the zone of the
//!   server that supplied them are believed: out-of-zone answer records
//!   are dropped, referrals must delegate within the queried server's
//!   bailiwick, and glue is accepted only for NS targets inside the
//!   delegated zone (anything else is re-resolved from the roots). Cached
//!   data carries an RFC 2181 credibility rank
//!   ([`Credibility`](crate::cache::Credibility)) so glue can never
//!   displace an authoritative answer.
//!
//! [`HardeningConfig::predictable_ids`] reproduces the weak baseline the
//! paper attacks; experiment E14 sweeps the defense gradient in between.

use std::collections::HashSet;
use std::time::Duration;

use sdoh_dns_wire::{Message, MessageBuilder, Name, RData, Rcode, Record, RrType, Ttl};
use sdoh_netsim::{ChannelKind, SimAddr, SimClock};

use crate::cache::{CachedAnswer, Credibility, DnsCache};
use crate::client::{DnsClient, QueryIdentifiers};
use crate::error::{ResolveError, ResolveResult};
use crate::exchange::Exchanger;
use crate::handler::QueryHandler;

/// Limit on referral hops, CNAME links and nested NS-address resolutions for
/// a single query.
const MAX_STEPS: usize = 24;

/// Limit on *nested* resolutions (resolving an NS target's address to
/// follow a glueless — or glue-discarded — referral). Each nesting level
/// is a fresh iteration loop with its own `MAX_STEPS` budget, so without
/// this cap two zones delegating to name servers inside each other would
/// recurse until the stack overflows — an off-path attacker could force
/// exactly that with forged glueless referrals.
const MAX_NS_DEPTH: usize = 6;

/// Which defenses against off-path response forgery are active on the
/// resolver's upstream (plain Do53) queries. The default enables all of
/// them; [`HardeningConfig::predictable_ids`] is the weak baseline the
/// paper's attacker exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardeningConfig {
    /// Draw a fresh random transaction id per upstream query. Off, ids are
    /// allocated sequentially — one observed query predicts all later ids.
    pub randomize_txid: bool,
    /// Send each upstream query from a fresh ephemeral source port. Off,
    /// queries depart from the resolver's fixed (well-known) port.
    pub randomize_source_port: bool,
    /// Encode upstream query names with 0x20 mixed casing and verify the
    /// echoed question case-exactly.
    pub encode_0x20: bool,
    /// Discard out-of-bailiwick records, validate referrals and glue, and
    /// rank cached data by credibility.
    pub enforce_bailiwick: bool,
}

impl Default for HardeningConfig {
    fn default() -> Self {
        HardeningConfig::full()
    }
}

impl HardeningConfig {
    /// Every defense enabled — the secure default.
    pub fn full() -> Self {
        HardeningConfig {
            randomize_txid: true,
            randomize_source_port: true,
            encode_0x20: true,
            enforce_bailiwick: true,
        }
    }

    /// No defenses: sequential transaction ids, fixed source port, no
    /// 0x20, no bailiwick checks. This reproduces the weak resolver of the
    /// paper's off-path attack (and of this crate before hardening).
    pub fn predictable_ids() -> Self {
        HardeningConfig {
            randomize_txid: false,
            randomize_source_port: false,
            encode_0x20: false,
            enforce_bailiwick: false,
        }
    }

    /// Toggles transaction-id randomization.
    pub fn randomize_txid(mut self, on: bool) -> Self {
        self.randomize_txid = on;
        self
    }

    /// Toggles source-port randomization.
    pub fn randomize_source_port(mut self, on: bool) -> Self {
        self.randomize_source_port = on;
        self
    }

    /// Toggles bailiwick enforcement and credibility ranking.
    pub fn enforce_bailiwick(mut self, on: bool) -> Self {
        self.enforce_bailiwick = on;
        self
    }

    /// The identifier entropy (bits) an off-path forger must overcome per
    /// upstream query **once its predictors are warm** (it has observed at
    /// least one earlier query from the victim): 16 for a random
    /// transaction id, 16 for a random source port, plus the 0x20 case
    /// bits of the query name.
    pub fn identifier_entropy_bits(&self, qname_case_bits: u8) -> u8 {
        let mut bits: u16 = 0;
        if self.randomize_txid {
            bits += 16;
        }
        if self.randomize_source_port {
            bits += 16;
        }
        if self.encode_0x20 {
            bits += u16::from(qname_case_bits);
        }
        u8::try_from(bits.min(255)).unwrap_or(u8::MAX)
    }
}

/// Configuration for a [`RecursiveResolver`].
#[derive(Debug, Clone)]
pub struct RecursiveConfig {
    /// Addresses of the root name servers (root hints).
    pub root_hints: Vec<SimAddr>,
    /// Channel used for upstream (non-recursive) queries. Authoritative
    /// traffic is plain UDP in the real DNS, and that is the default.
    pub upstream_channel: ChannelKind,
    /// Timeout for each upstream query.
    pub upstream_timeout: Duration,
    /// Capacity of the resolver cache.
    pub cache_capacity: usize,
    /// Off-path defenses of the upstream leg (all enabled by default).
    pub hardening: HardeningConfig,
}

impl Default for RecursiveConfig {
    fn default() -> Self {
        RecursiveConfig {
            root_hints: Vec::new(),
            upstream_channel: ChannelKind::Plain,
            upstream_timeout: Duration::from_secs(2),
            cache_capacity: 4096,
            hardening: HardeningConfig::default(),
        }
    }
}

/// An iterative resolver with a cache.
#[derive(Debug)]
pub struct RecursiveResolver {
    config: RecursiveConfig,
    cache: DnsCache,
    /// Next sequential transaction id, used when `randomize_txid` is off.
    next_seq_txid: u16,
}

impl RecursiveResolver {
    /// Creates a resolver with the given configuration, using `clock` for
    /// cache TTL accounting.
    pub fn new(config: RecursiveConfig, clock: SimClock) -> Self {
        let cache = DnsCache::new(clock, config.cache_capacity);
        RecursiveResolver {
            config,
            cache,
            next_seq_txid: 0,
        }
    }

    /// Read access to the cache (e.g. for inspecting credibility ranks).
    pub fn cache(&self) -> &DnsCache {
        &self.cache
    }

    /// Resolves `name`/`rtype`, following referrals from the root.
    ///
    /// # Errors
    ///
    /// Returns [`ResolveError::Configuration`] when no root hints are
    /// configured, [`ResolveError::TooManyIterations`] on referral or CNAME
    /// loops, [`ResolveError::OutOfBailiwick`] when bailiwick enforcement
    /// rejects every record of a response, and transport/upstream errors
    /// otherwise.
    pub fn resolve(
        &mut self,
        exchanger: &mut dyn Exchanger,
        name: &Name,
        rtype: RrType,
    ) -> ResolveResult<Message> {
        self.resolve_at_depth(exchanger, name, rtype, 0)
    }

    fn resolve_at_depth(
        &mut self,
        exchanger: &mut dyn Exchanger,
        name: &Name,
        rtype: RrType,
        ns_depth: usize,
    ) -> ResolveResult<Message> {
        if self.config.root_hints.is_empty() {
            return Err(ResolveError::Configuration(
                "no root hints configured".into(),
            ));
        }
        if ns_depth > MAX_NS_DEPTH {
            return Err(ResolveError::TooManyIterations);
        }
        if let Some(cached) = self.cache.get(name, rtype) {
            let query = Message::query(0, name.clone(), rtype);
            let mut builder = MessageBuilder::response_to(&query)
                .recursion_available(true)
                .rcode(cached.rcode);
            for record in cached.records {
                builder = builder.answer(record);
            }
            return Ok(builder.build());
        }

        let enforce = self.config.hardening.enforce_bailiwick;
        let mut answer_records: Vec<Record> = Vec::new();
        let mut current_name = name.clone();
        let mut servers = self.config.root_hints.clone();
        // The zone the current servers are authoritative for (or were
        // delegated): the only namespace their records are believed in.
        let mut bailiwick = Name::root();
        let mut steps = 0usize;

        loop {
            steps += 1;
            if steps > MAX_STEPS {
                return Err(ResolveError::TooManyIterations);
            }

            let response =
                self.query_first_responsive(exchanger, &servers, &current_name, rtype)?;
            let credibility = Credibility::of_answer(response.header.authoritative);

            if response.header.rcode == Rcode::NxDomain {
                // Negative-cache under the name that actually does not
                // exist: mid-chain NXDOMAIN (for a CNAME target) must be
                // keyed by the target, not the original query name. Only
                // in-bailiwick records of the negative response survive.
                let negative = sanitize_response(&response, &bailiwick, enforce);
                self.cache
                    .insert_response(&current_name, rtype, &negative, credibility);
                let mut result = negative.clone();
                result.answers = dedup_records(
                    answer_records
                        .into_iter()
                        .chain(negative.answers.iter().cloned())
                        .collect(),
                );
                if current_name != *name && !result.answers.is_empty() {
                    // The full chain is a complete (negative) answer for
                    // the original name too.
                    self.cache
                        .insert_response(name, rtype, &result, credibility);
                }
                return Ok(result);
            }

            // Records this response may contribute: inside the bailiwick of
            // the server that supplied them, or everything in weak mode.
            let usable: Vec<&Record> = response
                .answers
                .iter()
                .filter(|r| !enforce || r.name.is_subdomain_of(&bailiwick))
                .collect();

            // Walk the answer chain inside this response: direct records
            // for the current name, following CNAME links that the same
            // message resolves.
            let mut chain: Vec<Record> = Vec::new();
            let mut chain_name = current_name.clone();
            let direct: Vec<Record> = loop {
                let direct: Vec<Record> = usable
                    .iter()
                    .filter(|r| r.name == chain_name && r.rtype() == rtype)
                    .map(|r| (*r).clone())
                    .collect();
                if !direct.is_empty() {
                    break direct;
                }
                match usable
                    .iter()
                    .find(|r| r.name == chain_name && r.rtype() == RrType::Cname)
                {
                    Some(cname) => {
                        chain.push((*cname).clone());
                        if chain.len() > MAX_STEPS {
                            return Err(ResolveError::TooManyIterations);
                        }
                        match &cname.rdata {
                            RData::Cname(target) => chain_name = target.clone(),
                            _ => break Vec::new(),
                        }
                    }
                    None => break Vec::new(),
                }
            };

            if !direct.is_empty() {
                if enforce {
                    // Only the records that answer the query chain are
                    // believed; unrelated records a malicious server
                    // appended never reach the caller or the cache.
                    answer_records.extend(chain);
                    answer_records.extend(direct);
                } else {
                    // The historical permissive behaviour (the
                    // vulnerability): keep every record the server sent.
                    answer_records.extend(chain);
                    answer_records.extend(response.answers.iter().cloned());
                }
                let query = Message::query(0, name.clone(), rtype);
                let mut builder = MessageBuilder::response_to(&query).recursion_available(true);
                for record in dedup_records(answer_records) {
                    builder = builder.answer(record);
                }
                let result = builder.build();
                self.cache
                    .insert_response(name, rtype, &result, credibility);
                return Ok(result);
            }

            // The chain advanced but its tail lives elsewhere: restart the
            // iteration from the roots for the target.
            if chain_name != current_name {
                answer_records.extend(chain);
                current_name = chain_name;
                servers = self.config.root_hints.clone();
                bailiwick = Name::root();
                continue;
            }

            // Referral?
            let all_ns: Vec<&Record> = response
                .authorities
                .iter()
                .filter(|r| r.rtype() == RrType::Ns)
                .collect();
            let ns_records: Vec<&Record> = all_ns
                .iter()
                .copied()
                .filter(|r| {
                    // A server may only delegate within its own bailiwick,
                    // and only towards the name being resolved.
                    !enforce
                        || (r.name.is_subdomain_of(&bailiwick)
                            && current_name.is_subdomain_of(&r.name))
                })
                .collect();
            if !all_ns.is_empty() && ns_records.is_empty() {
                // Every NS record was out of bailiwick: the response is
                // bogus (a poisoning attempt), not a usable referral.
                return Err(ResolveError::OutOfBailiwick);
            }
            if !ns_records.is_empty() {
                // A referral delegates exactly one zone. When the filtered
                // NS records name several candidate zones, pin the
                // **deepest** one (the most restrictive bailiwick) and
                // only believe the NS records of that zone, so glue trust
                // and the narrowed bailiwick are judged consistently
                // against the zone the next servers actually serve.
                let zone = ns_records
                    .iter()
                    .map(|r| r.name.clone())
                    .max_by_key(Name::num_labels)
                    .expect("ns_records is non-empty"); // sdoh-lint: allow(no-panic, "the surrounding branch runs only when ns_records is non-empty")
                let ns_records: Vec<&Record> =
                    ns_records.into_iter().filter(|r| r.name == zone).collect();
                let glue = if enforce {
                    self.trusted_glue(&response, &ns_records, &zone)
                } else {
                    // Blind glue (the vulnerability): every additional-
                    // section address is used verbatim, no matter which
                    // name it claims to belong to.
                    response
                        .additionals
                        .iter()
                        .filter_map(Record::ip_addr)
                        .map(|ip| SimAddr::new(ip, sdoh_netsim::ports::DNS))
                        .collect::<Vec<_>>()
                };
                if !glue.is_empty() {
                    servers = glue;
                    if enforce {
                        bailiwick = zone;
                    }
                    continue;
                }
                // No (trustworthy) glue: resolve an NS target's address.
                let ns_name = ns_records
                    .iter()
                    .find_map(|r| r.rdata.target_name().cloned());
                match ns_name {
                    Some(ns_name) => {
                        let ns_answer =
                            self.resolve_at_depth(exchanger, &ns_name, RrType::A, ns_depth + 1)?;
                        let addrs: Vec<SimAddr> = ns_answer
                            .answer_addresses()
                            .into_iter()
                            .map(|ip| SimAddr::new(ip, sdoh_netsim::ports::DNS))
                            .collect();
                        if addrs.is_empty() {
                            return Err(ResolveError::TooManyIterations);
                        }
                        servers = addrs;
                        if enforce {
                            bailiwick = zone;
                        }
                        continue;
                    }
                    None => return Err(ResolveError::TooManyIterations),
                }
            }

            if enforce && !response.answers.is_empty() && usable.is_empty() {
                // The response carried only out-of-bailiwick answers: a
                // poisoning attempt, not a NODATA answer.
                return Err(ResolveError::OutOfBailiwick);
            }

            // NODATA: nothing more to follow.
            if current_name != *name {
                // Negative-cache the chain tail under its own name.
                let negative = sanitize_response(&response, &bailiwick, enforce);
                self.cache
                    .insert_response(&current_name, rtype, &negative, credibility);
            }
            let query = Message::query(0, name.clone(), rtype);
            let mut builder = MessageBuilder::response_to(&query).recursion_available(true);
            for record in dedup_records(answer_records) {
                builder = builder.answer(record);
            }
            let result = builder.build();
            self.cache
                .insert_response(name, rtype, &result, credibility);
            return Ok(result);
        }
    }

    /// Collects glue addresses for the NS targets of a validated referral,
    /// trusting only targets **inside the delegated zone** — glue for any
    /// other name is discarded (and the NS target re-resolved from the
    /// roots by the caller). Trusted glue is cached at the lowest
    /// credibility rank so it can serve future NS lookups but can never
    /// displace better data.
    fn trusted_glue(
        &mut self,
        response: &Message,
        ns_records: &[&Record],
        zone: &Name,
    ) -> Vec<SimAddr> {
        let mut glue = Vec::new();
        for ns in ns_records {
            let target = match ns.rdata.target_name() {
                Some(target) => target,
                None => continue,
            };
            if !target.is_subdomain_of(zone) {
                // Off-zone NS target: the delegating server has no
                // authority over its address. Never trust glue for it.
                continue;
            }
            for rt in [RrType::A, RrType::Aaaa] {
                let records: Vec<Record> = response
                    .additionals
                    .iter()
                    .filter(|r| r.name == *target && r.rtype() == rt)
                    .cloned()
                    .collect();
                if records.is_empty() {
                    continue;
                }
                glue.extend(
                    records
                        .iter()
                        .filter_map(Record::ip_addr)
                        .map(|ip| SimAddr::new(ip, sdoh_netsim::ports::DNS)),
                );
                let ttl = records
                    .iter()
                    .map(|r| Ttl::from_secs(r.ttl))
                    .min()
                    .unwrap_or(Ttl::ZERO);
                self.cache.insert_with_ttl(
                    target.clone(),
                    rt,
                    CachedAnswer {
                        records,
                        rcode: Rcode::NoError,
                    },
                    ttl,
                    Credibility::Additional,
                );
            }
        }
        glue
    }

    fn query_first_responsive(
        &mut self,
        exchanger: &mut dyn Exchanger,
        servers: &[SimAddr],
        name: &Name,
        rtype: RrType,
    ) -> ResolveResult<Message> {
        let hardening = self.config.hardening;
        let mut last_err = ResolveError::Configuration("empty server list".into());
        for &server in servers {
            let client = DnsClient::new(server)
                .channel(self.config.upstream_channel)
                .timeout(self.config.upstream_timeout)
                .recursion_desired(false)
                .use_0x20(hardening.encode_0x20);
            let txid = if hardening.randomize_txid {
                exchanger.next_id()
            } else {
                self.next_seq_txid = self.next_seq_txid.wrapping_add(1);
                self.next_seq_txid
            };
            let source_port = hardening
                .randomize_source_port
                .then(|| 1024 + exchanger.next_id() % 64512);
            let case_seed = hardening
                .encode_0x20
                .then(|| QueryIdentifiers::draw_case_seed(exchanger));
            let identifiers = QueryIdentifiers {
                txid,
                source_port,
                case_seed,
            };
            match client.query_with(exchanger, name, rtype, identifiers) {
                Ok(response) => return Ok(response),
                Err(err) => last_err = err,
            }
        }
        Err(last_err)
    }
}

/// Strips every record outside `bailiwick` from a response before it is
/// cached or surfaced (no-op in weak mode).
fn sanitize_response(response: &Message, bailiwick: &Name, enforce: bool) -> Message {
    let mut sanitized = response.clone();
    if enforce {
        sanitized
            .answers
            .retain(|r| r.name.is_subdomain_of(bailiwick));
        sanitized
            .authorities
            .retain(|r| r.name.is_subdomain_of(bailiwick));
        sanitized
            .additionals
            .retain(|r| r.name.is_subdomain_of(bailiwick));
    }
    sanitized
}

/// Order-preserving record deduplication, hash-keyed so a large (or
/// maliciously inflated) answer costs O(n) instead of the O(n²) a
/// `Vec::contains` scan would.
fn dedup_records(records: Vec<Record>) -> Vec<Record> {
    let mut seen: HashSet<Record> = HashSet::with_capacity(records.len());
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        if seen.insert(r.clone()) {
            out.push(r);
        }
    }
    out
}

impl QueryHandler for RecursiveResolver {
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        let question = match query.question() {
            Some(q) => q.clone(),
            None => return Message::error_response(query, Rcode::FormErr),
        };
        if !query.header.recursion_desired {
            // A pure recursive resolver refuses iterative queries.
            return Message::error_response(query, Rcode::Refused);
        }
        match self.resolve(exchanger, &question.name, question.rtype) {
            Ok(mut resolved) => {
                // Re-stamp the response onto the incoming query (id, question).
                let mut response = Message::response_to(query);
                response.header.recursion_available = true;
                response.header.rcode = resolved.header.rcode;
                response.answers = std::mem::take(&mut resolved.answers);
                response.authorities = std::mem::take(&mut resolved.authorities);
                response
            }
            Err(ResolveError::ErrorResponse(rcode)) => Message::error_response(query, rcode),
            Err(_) => Message::error_response(query, Rcode::ServFail),
        }
    }

    fn handler_name(&self) -> &str {
        "recursive-resolver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::Authority;
    use crate::catalog::Catalog;
    use crate::exchange::ClientExchanger;
    use crate::service::Do53Service;
    use crate::zone::Zone;
    use sdoh_netsim::{NetResult, SimInstant, SimNet};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Builds a miniature DNS hierarchy:
    ///  - a root server delegating `org.` to an org server,
    ///  - an org server delegating `ntpns.org.` to three pool name servers,
    ///  - pool servers answering `pool.ntpns.org` with four addresses.
    fn build_hierarchy(net: &SimNet) -> Vec<SimAddr> {
        let root_addr = SimAddr::v4(198, 41, 0, 4, 53);
        let org_addr = SimAddr::v4(199, 19, 56, 1, 53);
        let ntpns_addr = SimAddr::v4(198, 51, 100, 3, 53);

        // Root zone: delegate org.
        let mut root_zone = Zone::new(Name::root());
        root_zone.add_record(Record::new(
            "org".parse().unwrap(),
            86400,
            RData::Ns("a0.org-servers.net".parse().unwrap()),
        ));
        root_zone.add_record(Record::new(
            "a0.org-servers.net".parse().unwrap(),
            86400,
            RData::A("199.19.56.1".parse().unwrap()),
        ));
        let mut root_catalog = Catalog::new();
        root_catalog.add_zone(root_zone);
        net.register(root_addr, Do53Service::new(Authority::new(root_catalog)));

        // org zone: delegate ntpns.org.
        let mut org_zone = Zone::new("org".parse().unwrap());
        org_zone.add_record(Record::new(
            "ntpns.org".parse().unwrap(),
            86400,
            RData::Ns("c.ntpns.org".parse().unwrap()),
        ));
        org_zone.add_record(Record::new(
            "c.ntpns.org".parse().unwrap(),
            86400,
            RData::A("198.51.100.3".parse().unwrap()),
        ));
        let mut org_catalog = Catalog::new();
        org_catalog.add_zone(org_zone);
        net.register(org_addr, Do53Service::new(Authority::new(org_catalog)));

        // ntpns.org zone with the pool records.
        let mut zone = Zone::new("ntpns.org".parse().unwrap());
        for (owner, rdata) in [
            ("ntpns.org", RData::Ns("c.ntpns.org".parse().unwrap())),
            ("c.ntpns.org", RData::A("198.51.100.3".parse().unwrap())),
            ("pool.ntpns.org", RData::A("203.0.113.1".parse().unwrap())),
            ("pool.ntpns.org", RData::A("203.0.113.2".parse().unwrap())),
            ("pool.ntpns.org", RData::A("203.0.113.3".parse().unwrap())),
            ("pool.ntpns.org", RData::A("203.0.113.4".parse().unwrap())),
            (
                "alias.ntpns.org",
                RData::Cname("pool.ntpns.org".parse().unwrap()),
            ),
        ] {
            zone.add_record(Record::new(owner.parse().unwrap(), 300, rdata));
        }
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        net.register(ntpns_addr, Do53Service::new(Authority::new(catalog)));

        vec![root_addr]
    }

    fn resolver_with(
        net: &SimNet,
        roots: Vec<SimAddr>,
        hardening: HardeningConfig,
    ) -> RecursiveResolver {
        RecursiveResolver::new(
            RecursiveConfig {
                root_hints: roots,
                hardening,
                ..RecursiveConfig::default()
            },
            net.clock(),
        )
    }

    #[test]
    fn resolves_through_delegations() {
        for hardening in [HardeningConfig::full(), HardeningConfig::predictable_ids()] {
            let net = SimNet::new(100);
            let roots = build_hierarchy(&net);
            let mut resolver = resolver_with(&net, roots, hardening);
            let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(8, 8, 8, 8, 33000));
            let response = resolver
                .resolve(
                    &mut exchanger,
                    &"pool.ntpns.org".parse().unwrap(),
                    RrType::A,
                )
                .unwrap();
            assert_eq!(response.answer_addresses().len(), 4, "{hardening:?}");
        }
    }

    #[test]
    fn follows_cnames() {
        let net = SimNet::new(101);
        let roots = build_hierarchy(&net);
        let mut resolver = RecursiveResolver::new(
            RecursiveConfig {
                root_hints: roots,
                ..RecursiveConfig::default()
            },
            net.clock(),
        );
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(8, 8, 8, 8, 33000));
        let response = resolver
            .resolve(
                &mut exchanger,
                &"alias.ntpns.org".parse().unwrap(),
                RrType::A,
            )
            .unwrap();
        assert_eq!(response.answer_addresses().len(), 4);
        assert!(response.answers.iter().any(|r| r.rtype() == RrType::Cname));
    }

    #[test]
    fn caches_results() {
        let net = SimNet::new(102);
        let roots = build_hierarchy(&net);
        let mut resolver = RecursiveResolver::new(
            RecursiveConfig {
                root_hints: roots,
                ..RecursiveConfig::default()
            },
            net.clock(),
        );
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(8, 8, 8, 8, 33000));
        let name: Name = "pool.ntpns.org".parse().unwrap();
        resolver.resolve(&mut exchanger, &name, RrType::A).unwrap();
        let requests_before = net.metrics().requests;
        let response = resolver.resolve(&mut exchanger, &name, RrType::A).unwrap();
        assert_eq!(response.answer_addresses().len(), 4);
        assert_eq!(
            net.metrics().requests,
            requests_before,
            "second resolution is served from cache"
        );
    }

    #[test]
    fn nxdomain_propagates() {
        let net = SimNet::new(103);
        let roots = build_hierarchy(&net);
        let mut resolver = RecursiveResolver::new(
            RecursiveConfig {
                root_hints: roots,
                ..RecursiveConfig::default()
            },
            net.clock(),
        );
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(8, 8, 8, 8, 33000));
        let response = resolver
            .resolve(
                &mut exchanger,
                &"missing.ntpns.org".parse().unwrap(),
                RrType::A,
            )
            .unwrap();
        assert_eq!(response.header.rcode, Rcode::NxDomain);
    }

    #[test]
    fn no_roots_is_a_configuration_error() {
        let net = SimNet::new(104);
        let mut resolver = RecursiveResolver::new(RecursiveConfig::default(), net.clock());
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(8, 8, 8, 8, 33000));
        let err = resolver
            .resolve(&mut exchanger, &"x.test".parse().unwrap(), RrType::A)
            .unwrap_err();
        assert!(matches!(err, ResolveError::Configuration(_)));
    }

    #[test]
    fn acts_as_query_handler_for_stub_clients() {
        let net = SimNet::new(105);
        let roots = build_hierarchy(&net);
        let resolver = RecursiveResolver::new(
            RecursiveConfig {
                root_hints: roots,
                ..RecursiveConfig::default()
            },
            net.clock(),
        );
        let resolver_addr = SimAddr::v4(8, 8, 8, 8, 53);
        net.register(resolver_addr, Do53Service::new(resolver));

        let client = DnsClient::new(resolver_addr);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let response = client
            .query(
                &mut exchanger,
                &"pool.ntpns.org".parse().unwrap(),
                RrType::A,
            )
            .unwrap();
        assert_eq!(response.answer_addresses().len(), 4);
        assert!(response.header.recursion_available);
    }

    #[test]
    fn refuses_non_recursive_queries() {
        let net = SimNet::new(106);
        let roots = build_hierarchy(&net);
        let resolver = RecursiveResolver::new(
            RecursiveConfig {
                root_hints: roots,
                ..RecursiveConfig::default()
            },
            net.clock(),
        );
        let resolver_addr = SimAddr::v4(8, 8, 8, 8, 53);
        net.register(resolver_addr, Do53Service::new(resolver));

        let client = DnsClient::new(resolver_addr).recursion_desired(false);
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        let err = client
            .query(
                &mut exchanger,
                &"pool.ntpns.org".parse().unwrap(),
                RrType::A,
            )
            .unwrap_err();
        assert_eq!(err, ResolveError::ErrorResponse(Rcode::Refused));
    }

    /// An exchanger wrapper recording the transaction id and source port
    /// of every upstream query — the attacker's view of the resolver's
    /// identifier hygiene.
    struct Recording<'a> {
        inner: ClientExchanger<'a>,
        txids: Rc<RefCell<Vec<u16>>>,
        ports: Rc<RefCell<Vec<Option<u16>>>>,
        cased: Rc<RefCell<Vec<bool>>>,
    }

    impl<'a> Recording<'a> {
        fn new(inner: ClientExchanger<'a>) -> Self {
            Recording {
                inner,
                txids: Rc::new(RefCell::new(Vec::new())),
                ports: Rc::new(RefCell::new(Vec::new())),
                cased: Rc::new(RefCell::new(Vec::new())),
            }
        }

        fn record(&self, payload: &[u8], port: Option<u16>) {
            if let Ok(query) = Message::decode(payload) {
                self.txids.borrow_mut().push(query.header.id);
                self.ports.borrow_mut().push(port);
                if let Some(q) = query.question() {
                    self.cased
                        .borrow_mut()
                        .push(!q.name.is_canonical_lowercase());
                }
            }
        }
    }

    impl Exchanger for Recording<'_> {
        fn exchange(
            &mut self,
            dst: SimAddr,
            channel: ChannelKind,
            payload: &[u8],
            timeout: Duration,
        ) -> NetResult<Vec<u8>> {
            self.record(payload, None);
            self.inner.exchange(dst, channel, payload, timeout)
        }

        fn exchange_from_port(
            &mut self,
            src_port: u16,
            dst: SimAddr,
            channel: ChannelKind,
            payload: &[u8],
            timeout: Duration,
        ) -> NetResult<Vec<u8>> {
            self.record(payload, Some(src_port));
            self.inner
                .exchange_from_port(src_port, dst, channel, payload, timeout)
        }

        fn next_id(&mut self) -> u16 {
            self.inner.next_id()
        }

        fn now(&self) -> SimInstant {
            self.inner.now()
        }
    }

    #[test]
    fn weak_config_exposes_sequential_txids_and_a_fixed_port() {
        let net = SimNet::new(107);
        let roots = build_hierarchy(&net);
        let mut resolver = resolver_with(&net, roots, HardeningConfig::predictable_ids());
        let mut exchanger =
            Recording::new(ClientExchanger::new(&net, SimAddr::v4(8, 8, 8, 8, 33000)));
        resolver
            .resolve(
                &mut exchanger,
                &"pool.ntpns.org".parse().unwrap(),
                RrType::A,
            )
            .unwrap();
        let txids = exchanger.txids.borrow();
        assert!(txids.len() >= 3, "root, org, ntpns legs");
        assert!(
            txids.windows(2).all(|w| w[1] == w[0].wrapping_add(1)),
            "sequential ids: {txids:?}"
        );
        assert!(
            exchanger.ports.borrow().iter().all(Option::is_none),
            "weak resolver keeps its fixed source port"
        );
        assert!(
            exchanger.cased.borrow().iter().all(|c| !c),
            "no 0x20 casing in the weak baseline"
        );
    }

    #[test]
    fn hardened_config_randomizes_every_identifier() {
        let net = SimNet::new(108);
        let roots = build_hierarchy(&net);
        let mut resolver = resolver_with(&net, roots, HardeningConfig::full());
        let mut exchanger =
            Recording::new(ClientExchanger::new(&net, SimAddr::v4(8, 8, 8, 8, 33000)));
        resolver
            .resolve(
                &mut exchanger,
                &"pool.ntpns.org".parse().unwrap(),
                RrType::A,
            )
            .unwrap();
        let txids = exchanger.txids.borrow();
        assert!(txids.len() >= 3);
        assert!(
            !txids.windows(2).all(|w| w[1] == w[0].wrapping_add(1)),
            "random ids must not be sequential: {txids:?}"
        );
        let ports = exchanger.ports.borrow();
        assert!(ports.iter().all(Option::is_some), "every query ephemeral");
        assert!(ports.iter().all(|p| p.unwrap() >= 1024));
        let distinct: std::collections::HashSet<_> = ports.iter().copied().collect();
        assert!(distinct.len() > 1, "ports vary: {ports:?}");
        assert!(
            exchanger.cased.borrow().iter().any(|&c| c),
            "0x20 casing applied"
        );
    }

    #[test]
    fn hardening_entropy_accounting() {
        let full = HardeningConfig::full();
        assert_eq!(full.identifier_entropy_bits(12), 44);
        assert_eq!(
            HardeningConfig::predictable_ids().identifier_entropy_bits(12),
            0
        );
        assert_eq!(
            HardeningConfig::predictable_ids()
                .randomize_txid(true)
                .identifier_entropy_bits(12),
            16
        );
        assert_eq!(
            HardeningConfig::predictable_ids()
                .randomize_txid(true)
                .randomize_source_port(true)
                .identifier_entropy_bits(12),
            32
        );
        let no_0x20 = HardeningConfig {
            encode_0x20: false,
            ..full
        };
        assert_eq!(no_0x20.identifier_entropy_bits(12), 32);
        assert_eq!(full.enforce_bailiwick(false), full.enforce_bailiwick(false));
    }

    #[test]
    fn dedup_preserves_first_occurrence_order() {
        let a = Record::address(
            "a.example".parse().unwrap(),
            60,
            "192.0.2.1".parse().unwrap(),
        );
        let b = Record::address(
            "b.example".parse().unwrap(),
            60,
            "192.0.2.2".parse().unwrap(),
        );
        let deduped = dedup_records(vec![a.clone(), b.clone(), a.clone(), b.clone()]);
        assert_eq!(deduped, vec![a, b]);
    }

    #[test]
    fn dedup_handles_inflated_answers_in_linear_time() {
        // Regression for the O(n²) `Vec::contains` scan: a maliciously
        // inflated answer (30k records, half duplicates) must dedup in
        // well under a second even unoptimized; the quadratic version
        // needs ~4.5e8 record comparisons here and takes minutes.
        let name: Name = "pool.ntpns.org".parse().unwrap();
        let records: Vec<Record> = (0..30_000u32)
            .map(|i| {
                let i = i % 15_000;
                Record::address(
                    name.clone(),
                    300,
                    std::net::IpAddr::V4(std::net::Ipv4Addr::new(
                        10,
                        (i >> 16) as u8,
                        (i >> 8) as u8,
                        i as u8,
                    )),
                )
            })
            .collect();
        let started = std::time::Instant::now();
        let deduped = dedup_records(records);
        assert_eq!(deduped.len(), 15_000);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "dedup took {:?}",
            started.elapsed()
        );
    }
}
