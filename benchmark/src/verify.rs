//! The answer verifier: every response a client receives goes through
//! [`Verifier::check`] after its round-trip clock has stopped.

use std::io::Read;
use std::net::IpAddr;

use sdoh_core::{check_guarantee, AddressPool, GroundTruth};
use sdoh_dns_wire::{Message, Name, RrType};

use crate::workload::AddressPolicy;

/// Why an answer was counted as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    Undecodable,
    NotAnAnswerToTheQuery,
    ErrorRcode,
    StillTruncated,
    WrongRecordCount,
    ForeignAddress,
    AttackerAddress,
    GuaranteeBroken,
}

pub struct Verifier {
    /// The query sent for each domain, id 0 (the per-query id is patched
    /// into the wire and passed to `check`).
    queries: Vec<Message>,
    benign: Vec<IpAddr>,
    attacker: Vec<IpAddr>,
    truth: GroundTruth,
    policy: AddressPolicy,
    answer_records: usize,
}

impl Verifier {
    pub fn new(
        domains: &[Name],
        benign: &[IpAddr],
        attacker: &[IpAddr],
        policy: AddressPolicy,
        answer_records: usize,
    ) -> Verifier {
        Verifier {
            queries: domains
                .iter()
                .map(|d| Message::query(0, d.clone(), RrType::A))
                .collect(),
            benign: benign.to_vec(),
            attacker: attacker.to_vec(),
            truth: GroundTruth::with_malicious(attacker.iter().copied()),
            policy,
            answer_records,
        }
    }

    /// The pre-encoded query wire of every domain, in domain order.
    pub fn query_wires(&self) -> Vec<Vec<u8>> {
        self.queries
            .iter()
            .map(|q| q.encode().expect("a pool query encodes"))
            .collect()
    }

    pub fn domains(&self) -> usize {
        self.queries.len()
    }

    /// Checks the final answer (after any TCP retry) to the query for
    /// `domain` sent with `id`.
    pub fn check(&self, domain: usize, id: u16, wire: &[u8]) -> Result<(), Reject> {
        let response = Message::decode(wire).map_err(|_| Reject::Undecodable)?;
        let query = &self.queries[domain];
        if response.header.id != id
            || !response.header.response
            || response.question() != query.question()
        {
            return Err(Reject::NotAnAnswerToTheQuery);
        }
        if response.header.truncated {
            return Err(Reject::StillTruncated);
        }
        if !response.rcode().is_success() {
            return Err(Reject::ErrorRcode);
        }
        let addresses = response.answer_addresses();
        if addresses.len() != self.answer_records || response.answers.len() != addresses.len() {
            return Err(Reject::WrongRecordCount);
        }
        for address in &addresses {
            if self.benign.contains(address) {
                continue;
            }
            if !self.attacker.contains(address) {
                return Err(Reject::ForeignAddress);
            }
            if self.policy == AddressPolicy::BenignOnly {
                return Err(Reject::AttackerAddress);
            }
        }
        if let AddressPolicy::Guarantee(required) = self.policy {
            let mut pool = AddressPool::new();
            for address in addresses {
                pool.push(address, "");
            }
            if !check_guarantee(&pool, &self.truth, required).holds {
                return Err(Reject::GuaranteeBroken);
            }
        }
        Ok(())
    }
}

/// Reads one RFC 1035 4.2.2 length-prefixed message into `into`. A frame
/// cut short of its announced length is an error, never a short answer.
pub fn read_tcp_frame(stream: &mut impl Read, into: &mut Vec<u8>) -> std::io::Result<()> {
    let mut prefix = [0u8; 2];
    stream.read_exact(&mut prefix)?;
    into.resize(usize::from(u16::from_be_bytes(prefix)), 0);
    stream.read_exact(into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdoh_dns_wire::MessageBuilder;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn fixture(policy: AddressPolicy, records: usize) -> Verifier {
        let domains: Vec<Name> = vec!["pool.ntpns.org".parse().unwrap()];
        let benign: Vec<IpAddr> = (1..=8).map(|i| ip(&format!("203.0.113.{i}"))).collect();
        let attacker: Vec<IpAddr> = (1..=8).map(|i| ip(&format!("198.18.0.{i}"))).collect();
        Verifier::new(&domains, &benign, &attacker, policy, records)
    }

    fn answer(verifier: &Verifier, id: u16, addresses: &[IpAddr]) -> Vec<u8> {
        let mut query = verifier.queries[0].clone();
        query.header.id = id;
        let mut builder = MessageBuilder::response_to(&query);
        for &a in addresses {
            builder = builder.answer_address(60, a);
        }
        builder.build().encode().unwrap()
    }

    #[test]
    fn accepts_the_honest_answer() {
        let v = fixture(AddressPolicy::BenignOnly, 3);
        let wire = answer(
            &v,
            77,
            &[ip("203.0.113.1"), ip("203.0.113.2"), ip("203.0.113.8")],
        );
        assert_eq!(v.check(0, 77, &wire), Ok(()));
    }

    #[test]
    fn rejects_a_forged_answer_with_an_attacker_address() {
        let v = fixture(AddressPolicy::BenignOnly, 3);
        let forged = answer(
            &v,
            77,
            &[ip("203.0.113.1"), ip("198.18.0.5"), ip("203.0.113.2")],
        );
        assert_eq!(v.check(0, 77, &forged), Err(Reject::AttackerAddress));
        // An address nobody publishes is rejected under either policy.
        let foreign = answer(
            &v,
            77,
            &[ip("203.0.113.1"), ip("192.0.2.1"), ip("203.0.113.2")],
        );
        assert_eq!(v.check(0, 77, &foreign), Err(Reject::ForeignAddress));
        let g = fixture(AddressPolicy::Guarantee(0.5), 3);
        assert_eq!(g.check(0, 77, &foreign), Err(Reject::ForeignAddress));
    }

    #[test]
    fn guarantee_policy_allows_the_minority_and_rejects_a_majority() {
        let v = fixture(AddressPolicy::Guarantee(0.5), 3);
        let one_third = answer(
            &v,
            1,
            &[ip("203.0.113.1"), ip("203.0.113.2"), ip("198.18.0.1")],
        );
        assert_eq!(v.check(0, 1, &one_third), Ok(()));
        let two_thirds = answer(
            &v,
            1,
            &[ip("203.0.113.1"), ip("198.18.0.2"), ip("198.18.0.1")],
        );
        assert_eq!(v.check(0, 1, &two_thirds), Err(Reject::GuaranteeBroken));
    }

    #[test]
    fn rejects_a_wrong_id_question_count_rcode_and_garbage() {
        let v = fixture(AddressPolicy::BenignOnly, 2);
        let good = answer(&v, 500, &[ip("203.0.113.1"), ip("203.0.113.2")]);
        assert_eq!(v.check(0, 500, &good), Ok(()));
        assert_eq!(v.check(0, 501, &good), Err(Reject::NotAnAnswerToTheQuery));
        let short = answer(&v, 500, &[ip("203.0.113.1")]);
        assert_eq!(v.check(0, 500, &short), Err(Reject::WrongRecordCount));
        assert_eq!(
            v.check(0, 500, &good[..good.len() - 3]),
            Err(Reject::Undecodable)
        );
        assert_eq!(v.check(0, 500, b"junk"), Err(Reject::Undecodable));

        let mut other = Message::query(500, "other.ntpns.org".parse().unwrap(), RrType::A);
        other.header.response = true;
        assert_eq!(
            v.check(0, 500, &other.encode().unwrap()),
            Err(Reject::NotAnAnswerToTheQuery)
        );
        // The query echoed back is not a response.
        let mut echo = v.queries[0].clone();
        echo.header.id = 500;
        assert_eq!(
            v.check(0, 500, &echo.encode().unwrap()),
            Err(Reject::NotAnAnswerToTheQuery)
        );
        let mut query = v.queries[0].clone();
        query.header.id = 500;
        let servfail = Message::error_response(&query, sdoh_dns_wire::Rcode::ServFail);
        assert_eq!(
            v.check(0, 500, &servfail.encode().unwrap()),
            Err(Reject::ErrorRcode)
        );
        let mut tc = Message::response_to(&query);
        tc.header.truncated = true;
        assert_eq!(
            v.check(0, 500, &tc.encode().unwrap()),
            Err(Reject::StillTruncated)
        );
    }

    #[test]
    fn truncated_tcp_frame_is_an_error() {
        let body = b"0123456789";
        let mut framed = (body.len() as u16).to_be_bytes().to_vec();
        framed.extend_from_slice(body);
        let mut into = Vec::new();
        read_tcp_frame(&mut &framed[..], &mut into).unwrap();
        assert_eq!(into, body);
        // Announced 10 bytes, delivered 6.
        let err = read_tcp_frame(&mut &framed[..8], &mut into).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // Not even a whole prefix.
        assert!(read_tcp_frame(&mut &framed[..1], &mut into).is_err());
    }
}
