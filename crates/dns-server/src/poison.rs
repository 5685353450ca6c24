//! Compromised / poisoning resolver behaviours.
//!
//! The paper's security analysis assumes an attacker can compromise each
//! DoH resolver independently with probability `p_attack`. A compromised
//! resolver answers queries for the target domain with attacker-chosen
//! data. This module wraps any [`QueryHandler`] with such behaviour, and
//! also models the two attacks discussed around Algorithm 1:
//!
//! * **answer inflation** — returning more addresses than usual to
//!   overwhelm the combined pool (defeated by truncation to the shortest
//!   list),
//! * **empty answers** — returning nothing at all, the residual DoS vector
//!   the paper acknowledges in footnote 2.
//!
//! A compromised resolver poisons a **set** of target names: a query is
//! poisoned once when its name, or one of its ancestors, is a target —
//! checked with one set lookup per label of the name as the query lends it
//! — however many names the attacker targets. (A stack of wrappers with
//! one target each answers the same when no target lies below another; the
//! set walks no stack.)
//!
//! A replacement answer is the same records for every query of a target,
//! so the wrapper writes it from an [`AnswerTemplate`] built once, when it
//! is constructed: a query of the family the address list holds is answered
//! by copying the template behind the echoed question. Every other
//! fabricated answer — a list of both families or of the other one, an
//! empty answer, NXDOMAIN, SERVFAIL — is written from the query where it
//! lies ([`QueryView::write_response`]); only answer inflation, which
//! appends to the honest answer, builds the [`Message`]. Each is byte for
//! byte what building the `Message` and encoding it writes.

use std::collections::HashSet;
use std::net::IpAddr;

use sdoh_dns_wire::{
    AnswerTemplate, Header, Message, MessageBuilder, Name, NameRef, QueryView, Rcode, Record,
    RrType, WireResult,
};

use crate::exchange::Exchanger;
use crate::handler::QueryHandler;

/// What a compromised resolver does with queries for the target domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoisonMode {
    /// Replace all answers with the given attacker-controlled addresses.
    ReplaceAddresses(Vec<IpAddr>),
    /// Answer with the genuine addresses *plus* the given attacker
    /// addresses appended (answer inflation).
    InflateWith(Vec<IpAddr>),
    /// Return a NOERROR answer with no records at all (empty-answer DoS).
    EmptyAnswer,
    /// Claim the name does not exist.
    NxDomain,
    /// Fail the query with SERVFAIL.
    ServFail,
}

/// Configuration of a poisoning resolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonConfig {
    /// Queries for these names (or their subdomains) are poisoned.
    pub targets: HashSet<Name>,
    /// The poisoning behaviour.
    pub mode: PoisonMode,
    /// TTL used for fabricated records.
    pub ttl: u32,
}

impl PoisonConfig {
    /// Creates a configuration poisoning `target` with `mode`.
    pub fn new(target: Name, mode: PoisonMode) -> Self {
        PoisonConfig::for_targets([target], mode)
    }

    /// Creates a configuration poisoning every name of `targets` with
    /// `mode` — one resolver compromised for a whole pool.
    pub fn for_targets(targets: impl IntoIterator<Item = Name>, mode: PoisonMode) -> Self {
        PoisonConfig {
            targets: targets.into_iter().collect(),
            mode,
            ttl: 300,
        }
    }

    /// Returns `true` when a query for `name` should be poisoned.
    pub fn applies_to(&self, name: &Name) -> bool {
        self.covers(name.as_name_ref())
    }

    /// Whether `name` or one of its ancestors is a target: one lookup per
    /// label, and one for the root.
    fn covers(&self, name: NameRef<'_>) -> bool {
        std::iter::successors(Some(name), |name| name.parent())
            .any(|name| self.targets.contains(name.as_key()))
    }
}

/// A resolver wrapper that answers honestly except for the target domains.
#[derive(Debug)]
pub struct PoisonedResolver<H> {
    inner: H,
    config: PoisonConfig,
    /// The replacement answer pre-encoded, and the query type it answers:
    /// set when the mode replaces addresses with a list of one family.
    template: Option<(RrType, AnswerTemplate)>,
    poisoned_queries: u64,
}

impl<H: QueryHandler> PoisonedResolver<H> {
    /// Wraps `inner` with the poisoning behaviour in `config`.
    pub fn new(inner: H, config: PoisonConfig) -> Self {
        let template = match &config.mode {
            PoisonMode::ReplaceAddresses(addresses) => [RrType::A, RrType::Aaaa]
                .into_iter()
                .find(|&rtype| {
                    addresses
                        .iter()
                        .all(|address| address.is_ipv4() == (rtype == RrType::A))
                })
                .map(|rtype| {
                    let template = AnswerTemplate::for_addresses(rtype, addresses.iter().copied());
                    (rtype, template)
                }),
            _ => None,
        };
        PoisonedResolver {
            inner,
            config,
            template,
            poisoned_queries: 0,
        }
    }

    /// Whether `query` is for a target: its first question's name is a
    /// target or below one.
    fn applies(&self, query: &Message) -> bool {
        query
            .question()
            .is_some_and(|q| self.config.applies_to(&q.name))
    }

    /// Number of queries answered with poisoned data so far.
    pub fn poisoned_queries(&self) -> u64 {
        self.poisoned_queries
    }

    /// Builds the fabricated response for every mode except
    /// [`PoisonMode::InflateWith`], which needs the honest answer first and
    /// is handled in `handle_query`.
    fn poison_response(&self, query: &Message) -> Message {
        let question = match query.question() {
            Some(q) => q.clone(),
            None => return Message::error_response(query, Rcode::FormErr),
        };
        match &self.config.mode {
            PoisonMode::ReplaceAddresses(addresses) => {
                let mut builder = MessageBuilder::response_to(query).recursion_available(true);
                for addr in addresses {
                    builder = builder.answer(Record::address(
                        question.name.clone(),
                        self.config.ttl,
                        *addr,
                    ));
                }
                builder.build()
            }
            PoisonMode::InflateWith(_) | PoisonMode::EmptyAnswer => {
                let mut response = Message::response_to(query);
                response.header.recursion_available = true;
                response
            }
            PoisonMode::NxDomain => Message::error_response(query, Rcode::NxDomain),
            PoisonMode::ServFail => Message::error_response(query, Rcode::ServFail),
        }
    }
}

impl<H: QueryHandler> QueryHandler for PoisonedResolver<H> {
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        if !self.applies(query) {
            return self.inner.handle_query(exchanger, query);
        }
        self.poisoned_queries += 1;
        match &self.config.mode {
            PoisonMode::InflateWith(extra) => {
                // Honest answer plus attacker addresses appended.
                let extra = extra.clone();
                let ttl = self.config.ttl;
                let mut response = self.inner.handle_query(exchanger, query);
                if let Some(question) = query.question() {
                    for addr in extra {
                        response.add_answer(Record::address(question.name.clone(), ttl, addr));
                    }
                }
                response
            }
            _ => self.poison_response(query),
        }
    }

    /// A query off the targets goes to the inner handler's wire path, and
    /// its TTL comes back with it; a replacement of the template's family
    /// is rendered from it, with the configured TTL when it holds a record;
    /// any other fabricated answer but an inflated one is written from the
    /// query where it lies, and an inflated one is the owned answer,
    /// encoded.
    fn handle_query_wire(
        &mut self,
        exchanger: &mut dyn Exchanger,
        query: &QueryView<'_>,
        out: &mut Vec<u8>,
    ) -> WireResult<Option<u32>> {
        let Some(question) = query.question().filter(|q| self.config.covers(q.name)) else {
            return self.inner.handle_query_wire(exchanger, query, out);
        };
        if let PoisonMode::InflateWith(_) = self.config.mode {
            let query = query.to_message()?;
            return self
                .handle_query(exchanger, &query)
                .encode_into(out)
                .map(|()| None);
        }
        self.poisoned_queries += 1;
        let ttl = self.config.ttl;
        if let Some((rtype, template)) = &self.template {
            if question.rtype == *rtype && template.render(query, ttl, out) {
                return Ok((!template.is_empty()).then_some(ttl));
            }
        }
        let (rcode, addresses): (Rcode, &[IpAddr]) = match &self.config.mode {
            PoisonMode::ReplaceAddresses(addresses) => (Rcode::NoError, addresses),
            PoisonMode::NxDomain => (Rcode::NxDomain, &[]),
            PoisonMode::ServFail => (Rcode::ServFail, &[]),
            PoisonMode::EmptyAnswer | PoisonMode::InflateWith(_) => (Rcode::NoError, &[]),
        };
        // A fabricated answer claims recursion; an error response does not.
        let header = Header {
            rcode,
            recursion_available: rcode == Rcode::NoError,
            ..Header::response_to(query.header())
        };
        query
            .write_response(header, ttl, addresses.iter().copied(), out)
            .map(|()| None)
    }

    fn handler_name(&self) -> &str {
        "poisoned-resolver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::Authority;
    use crate::catalog::Catalog;
    use crate::zone::Zone;
    use sdoh_dns_wire::RrType;
    use sdoh_netsim::{SimAddr, SimNet};

    fn honest_authority() -> Authority {
        let mut zone = Zone::new("ntp.org".parse().unwrap());
        for i in 1..=3u8 {
            zone.add_address(
                "pool.ntp.org".parse().unwrap(),
                format!("203.0.113.{i}").parse().unwrap(),
            );
        }
        zone.add_address(
            "other.ntp.org".parse().unwrap(),
            "203.0.113.100".parse().unwrap(),
        );
        let mut catalog = Catalog::new();
        catalog.add_zone(zone);
        Authority::new(catalog)
    }

    fn attacker_addrs(n: u8) -> Vec<IpAddr> {
        (1..=n)
            .map(|i| format!("198.18.0.{i}").parse().unwrap())
            .collect()
    }

    fn run_query(resolver: &mut dyn QueryHandler, name: &str) -> Message {
        let net = SimNet::new(1);
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 1000));
        let query = Message::query(7, name.parse().unwrap(), RrType::A);
        resolver.handle_query(&mut exchanger, &query)
    }

    #[test]
    fn replaces_addresses_for_target_only() {
        let config = PoisonConfig::new(
            "pool.ntp.org".parse().unwrap(),
            PoisonMode::ReplaceAddresses(attacker_addrs(2)),
        );
        let mut resolver = PoisonedResolver::new(honest_authority(), config);

        let poisoned = run_query(&mut resolver, "pool.ntp.org");
        assert_eq!(poisoned.answer_addresses(), attacker_addrs(2));

        let honest = run_query(&mut resolver, "other.ntp.org");
        assert_eq!(honest.answer_addresses().len(), 1);
        assert_eq!(honest.answer_addresses()[0].to_string(), "203.0.113.100");
        assert_eq!(resolver.poisoned_queries(), 1);
    }

    #[test]
    fn inflation_appends_to_honest_answer() {
        let config = PoisonConfig::new(
            "pool.ntp.org".parse().unwrap(),
            PoisonMode::InflateWith(attacker_addrs(8)),
        );
        let mut resolver = PoisonedResolver::new(honest_authority(), config);
        let response = run_query(&mut resolver, "pool.ntp.org");
        // 3 honest + 8 attacker addresses.
        assert_eq!(response.answer_addresses().len(), 11);
    }

    #[test]
    fn empty_answer_mode() {
        let config = PoisonConfig::new("pool.ntp.org".parse().unwrap(), PoisonMode::EmptyAnswer);
        let mut resolver = PoisonedResolver::new(honest_authority(), config);
        let response = run_query(&mut resolver, "pool.ntp.org");
        assert_eq!(response.header.rcode, Rcode::NoError);
        assert!(response.answer_addresses().is_empty());
    }

    #[test]
    fn nxdomain_and_servfail_modes() {
        for (mode, rcode) in [
            (PoisonMode::NxDomain, Rcode::NxDomain),
            (PoisonMode::ServFail, Rcode::ServFail),
        ] {
            let config = PoisonConfig::new("pool.ntp.org".parse().unwrap(), mode);
            let mut resolver = PoisonedResolver::new(honest_authority(), config);
            assert_eq!(run_query(&mut resolver, "pool.ntp.org").header.rcode, rcode);
        }
    }

    #[test]
    fn subdomains_of_target_are_poisoned() {
        let config = PoisonConfig::new(
            "ntp.org".parse().unwrap(),
            PoisonMode::ReplaceAddresses(attacker_addrs(1)),
        );
        assert!(config.applies_to(&"pool.ntp.org".parse().unwrap()));
        assert!(config.applies_to(&"ntp.org".parse().unwrap()));
        assert!(!config.applies_to(&"example.com".parse().unwrap()));
        let mut resolver = PoisonedResolver::new(honest_authority(), config);
        let response = run_query(&mut resolver, "other.ntp.org");
        assert_eq!(response.answer_addresses(), attacker_addrs(1));
        assert_eq!(resolver.handler_name(), "poisoned-resolver");
    }
}
