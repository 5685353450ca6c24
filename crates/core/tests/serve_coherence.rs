//! Property test of the serving subsystem's cache-coherence invariant: for
//! **any interleaving** of client queries, virtual-clock advances and
//! background refresh pumps, a served pool is never older than
//! `TTL + stale window`, and its record set is byte-identical to the pool
//! of some single generation produced within that window — the cache never
//! serves an expired-beyond-stale pool and never mixes the output of
//! different generations.

use std::net::IpAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use sdoh_core::serve::{CacheConfig, CachingPoolResolver};
use sdoh_core::{AddressSource, FetchError, FetchStart, PoolConfig, SecurePoolGenerator};
use sdoh_dns_server::QueryHandler;
use sdoh_dns_wire::{Message, Name, Rcode, RrType, Ttl};
use sdoh_doh::DohQuestion;
use sdoh_netsim::{NetResult, SimAddr, SimInstant, SimNet};

const TTL_SECS: u64 = 30;
const STALE_SECS: u64 = 30;
const DOMAINS: usize = 3;

/// Encodes generation `epoch` as the two addresses of its answer.
fn epoch_addresses(epoch: u32) -> Vec<IpAddr> {
    let encode = |tag: u8| {
        IpAddr::V4(std::net::Ipv4Addr::new(
            10 + tag,
            (epoch >> 16) as u8,
            (epoch >> 8) as u8,
            epoch as u8,
        ))
    };
    vec![encode(0), encode(1)]
}

/// Recovers the generation epoch from a served address.
fn decode_epoch(addr: IpAddr) -> u32 {
    match addr {
        IpAddr::V4(v4) => {
            let [_, a, b, c] = v4.octets();
            (u32::from(a) << 16) | (u32::from(b) << 8) | u32::from(c)
        }
        IpAddr::V6(_) => panic!("epoch sources answer IPv4 only"),
    }
}

/// An [`AddressSource`] whose answer identifies the generation that fetched
/// it: fetch number `i` (shared across domains) answers the two addresses
/// of epoch `i`. Immediate (no I/O), so every operation of the property
/// test happens at a single frozen virtual instant. (`Arc` + atomic rather
/// than `Rc<Cell<_>>`: `AddressSource` is `Send` so the serve layer can
/// cross threads.)
struct EpochSource {
    counter: Arc<AtomicU32>,
}

impl AddressSource for EpochSource {
    fn source_name(&self) -> &str {
        "epoch"
    }

    fn start_fetch(
        &self,
        _question: &DohQuestion,
        _id: u16,
        answers: &mut Vec<IpAddr>,
    ) -> FetchStart {
        let epoch = self.counter.fetch_add(1, Ordering::Relaxed);
        answers.extend(epoch_addresses(epoch));
        FetchStart::Immediate(Ok(()))
    }

    fn handle_response(
        &self,
        _question: &DohQuestion,
        _id: u16,
        _outcome: NetResult<Vec<u8>>,
        _answers: &mut Vec<IpAddr>,
    ) -> Result<(), FetchError> {
        unreachable!("immediate source")
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A client queries one of the domains.
    Query(usize),
    /// Virtual time passes.
    Advance(u64),
    /// The background task pumps due refreshes.
    Pump,
}

fn decode_op(kind: u8, param: u64) -> Op {
    match kind % 5 {
        // Queries dominate the mix, like real serving traffic.
        0..=2 => Op::Query(param as usize % DOMAINS),
        3 => Op::Advance(param % 45),
        _ => Op::Pump,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn served_pools_are_within_window_and_unmixed(
        raw_ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..80),
        seed in any::<u64>(),
    ) {
        let net = SimNet::new(seed);
        let counter = Arc::new(AtomicU32::new(0));
        let sources: Vec<Box<dyn AddressSource>> = vec![Box::new(EpochSource {
            counter: Arc::clone(&counter),
        })];
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let mut resolver = CachingPoolResolver::new(
            generator,
            CacheConfig::default()
                .with_ttl(Ttl::from_secs(TTL_SECS as u32))
                .with_stale_window(Duration::from_secs(STALE_SECS)),
        );
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let domains: Vec<Name> = (0..DOMAINS)
            .map(|i| format!("pool{i}.ntpns.org").parse().unwrap())
            .collect();

        // Virtual instant each generation ran at, by epoch. The sources are
        // immediate, so a whole operation happens at one frozen instant and
        // any generations an operation triggered ran exactly "now".
        let mut generated_at: Vec<SimInstant> = Vec::new();
        let mut query_id: u16 = 0;

        for &(kind, param) in &raw_ops {
            let now = net.now();
            let generations_before = resolver.metrics().generations;
            let mut response = None;
            match decode_op(kind, param) {
                Op::Query(domain) => {
                    query_id = query_id.wrapping_add(1);
                    let query =
                        Message::query(query_id, domains[domain].clone(), RrType::A);
                    response = Some(resolver.handle_query(&mut exchanger, &query));
                    prop_assert_eq!(net.now(), now, "immediate sources freeze the clock");
                }
                Op::Advance(secs) => net.clock().advance(Duration::from_secs(secs)),
                Op::Pump => {
                    resolver.run_due_refreshes(&mut exchanger);
                    prop_assert_eq!(net.now(), now, "immediate sources freeze the clock");
                }
            }
            let generations_after = resolver.metrics().generations;
            for _ in generations_before..generations_after {
                generated_at.push(now);
            }
            prop_assert_eq!(
                u64::from(counter.load(Ordering::Relaxed)),
                generations_after,
                "every generation fetched exactly once"
            );

            if let Some(response) = response {
                prop_assert_eq!(response.header.rcode, Rcode::NoError);
                let addresses = response.answer_addresses();
                prop_assert!(!addresses.is_empty());

                // Identify which generation produced the served pool…
                let epoch = decode_epoch(addresses[0]);
                prop_assert!((epoch as usize) < generated_at.len());

                // …it must be byte-identical to that generation's full
                // record set (no mixing across generations)…
                prop_assert_eq!(&addresses, &epoch_addresses(epoch));

                // …and that generation must have run within the coherence
                // window.
                let age = now.saturating_duration_since(generated_at[epoch as usize]);
                prop_assert!(
                    age <= Duration::from_secs(TTL_SECS + STALE_SECS),
                    "served a pool {age:?} old (limit {}s)",
                    TTL_SECS + STALE_SECS
                );
            }
        }

        // Serving accounting stays coherent over any interleaving.
        let metrics = resolver.metrics();
        prop_assert_eq!(
            metrics.hits + metrics.stale_serves + metrics.negative_hits + metrics.misses,
            metrics.queries
        );
        prop_assert_eq!(metrics.generation_failures, 0);
    }
}
