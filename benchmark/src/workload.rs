//! The four workloads: what each deploys, which queries it sends and what
//! a correct answer looks like. Why each exists is in `why()`, which is
//! also what `BENCHMARK.json` and the README quote.

use std::time::Duration;

use sdoh_core::{CacheConfig, PoolConfig};
use sdoh_dns_wire::Ttl;
use sdoh_netsim::SimRng;
use sdoh_runtime::LoopbackConfig;

/// Serving shards of every deployment (`RuntimeConfig::default()` is
/// otherwise untouched).
pub const SHARDS: usize = 2;

/// Queries the client keeps in flight while throughput is measured (the
/// latency half of a round always has one): 16 stub resolvers multiplexed
/// on one socket, each waiting for its answer before it asks again.
pub const WINDOW: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmHit,
    ColdGen,
    MixedChurn,
    WideTcp,
}

/// What the verifier demands of the addresses in an answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AddressPolicy {
    /// Every address is one the pool zone publishes: a clean fleet, or a
    /// majority vote that must have voted the attacker out.
    BenignOnly,
    /// A resolver is compromised and Algorithm 1 keeps its share: every
    /// address is published or attacker-held, and the benign fraction
    /// meets `check_guarantee` at this threshold.
    Guarantee(f64),
}

/// Everything a run needs to know about its workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub fleet: LoopbackConfig,
    pub pool: PoolConfig,
    pub cache: CacheConfig,
    /// Zipf(s=1) domain popularity instead of uniform.
    pub zipf: bool,
    pub policy: AddressPolicy,
    /// Address records a correct answer carries.
    pub answer_records: usize,
    /// DoH exchanges per client query when that number is exact.
    pub exact_upstream_per_query: Option<f64>,
    /// Every answer is truncated over UDP and fetched over TCP.
    pub via_tcp: bool,
    /// Queries in flight in the throughput half of a round.
    pub window: usize,
    /// Queries per phase at most. Only `wide_tcp` has one: it opens a
    /// connection per query, and a faster fallback must not be able to
    /// run the host out of ephemeral ports.
    pub phase_query_cap: Option<u64>,
}

impl Workload {
    /// Run order of the one command. `wide_tcp` is last: whatever its
    /// thousands of connections leave behind in the kernel, no other
    /// workload's `PoolRuntime::start` comes after it.
    pub const ALL: [Workload; 4] = [
        Workload::WarmHit,
        Workload::ColdGen,
        Workload::MixedChurn,
        Workload::WideTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::ColdGen => "cold_gen",
            Workload::MixedChurn => "mixed_churn",
            Workload::WideTcp => "wide_tcp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::WarmHit => {
                "every query a fresh cache hit: the runtime front door, dns-wire and the serve hit path do all the work, generation none"
            }
            Workload::ColdGen => {
                "TTL 0, 5 resolvers (one compromised), majority vote, zero RTT: every query pays a full CPU-bound generation; the front door is under 10% of it"
            }
            Workload::MixedChurn => {
                "256 Zipf domains over a 64-entry cache, TTL 1 s, 2 ms upstream RTT, one resolver compromised: hits queue behind misses, evictions and stale refreshes"
            }
            Workload::WideTcp => {
                "96-record answers exceed the UDP limit: every query is truncated and retried over TCP, the only path into tcp_loop; 4x the encode work; waits out tcp_loop's 5 ms poll"
            }
        }
    }

    pub fn spec(self, seed: u64) -> Spec {
        let fleet = LoopbackConfig {
            resolvers: 3,
            pool_domains: 16,
            addresses_per_domain: 8,
            compromised: Vec::new(),
            upstream_latency: Duration::ZERO,
            seed,
        };
        let forever = CacheConfig::default()
            .with_ttl(Ttl::from_secs(3600))
            .with_stale_window(Duration::from_secs(3600));
        let base = Spec {
            fleet,
            pool: PoolConfig::algorithm1(),
            cache: forever,
            zipf: false,
            policy: AddressPolicy::BenignOnly,
            answer_records: 24,
            exact_upstream_per_query: Some(0.0),
            via_tcp: false,
            window: WINDOW,
            phase_query_cap: None,
        };
        match self {
            Workload::WarmHit => base,
            Workload::ColdGen => Spec {
                fleet: LoopbackConfig {
                    resolvers: 5,
                    compromised: vec![4],
                    ..base.fleet
                },
                pool: PoolConfig::majority_resolver(),
                cache: CacheConfig::default()
                    .with_ttl(Ttl::ZERO)
                    .with_stale_window(Duration::ZERO)
                    .with_negative_ttl(Ttl::ZERO),
                // The four honest resolvers agree on the 8 published
                // addresses; the attacker's 8 have support 1 of 5.
                answer_records: 8,
                exact_upstream_per_query: Some(5.0),
                ..base
            },
            Workload::MixedChurn => Spec {
                fleet: LoopbackConfig {
                    pool_domains: 256,
                    compromised: vec![2],
                    upstream_latency: Duration::from_millis(2),
                    ..base.fleet
                },
                cache: CacheConfig::default()
                    .with_capacity(64)
                    .with_ttl(Ttl::from_secs(1))
                    .with_stale_window(Duration::from_secs(2)),
                zipf: true,
                policy: AddressPolicy::Guarantee(0.5),
                exact_upstream_per_query: None,
                ..base
            },
            Workload::WideTcp => Spec {
                fleet: LoopbackConfig {
                    addresses_per_domain: 32,
                    ..base.fleet
                },
                answer_records: 96,
                via_tcp: true,
                // A TCP retry is serial by nature.
                window: 1,
                phase_query_cap: Some(150),
                ..base
            },
        }
    }
}

/// Draws the domain of the next query: uniform, or Zipf(s=1) through a
/// cumulative table.
#[derive(Debug, Clone)]
pub struct DomainPicker {
    /// `cumulative[i]` = P(domain <= i); empty for uniform.
    cumulative: Vec<f64>,
    domains: usize,
}

impl DomainPicker {
    pub fn new(domains: usize, zipf: bool) -> DomainPicker {
        let cumulative = if zipf {
            zipf_table(domains)
        } else {
            Vec::new()
        };
        DomainPicker {
            cumulative,
            domains,
        }
    }

    pub fn pick(&self, rng: &mut SimRng) -> usize {
        if self.cumulative.is_empty() {
            return rng.range_u64(0, self.domains as u64) as usize;
        }
        let u = rng.range_f64(0.0, 1.0);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.domains - 1)
    }
}

/// Cumulative distribution of Zipf(s=1) over ranks `1..=n`.
pub fn zipf_table(n: usize) -> Vec<f64> {
    let norm: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += 1.0 / k as f64 / norm;
            acc
        })
        .collect()
}

/// The per-client query stream of a run: `(seed, client)` fixes it.
pub fn client_rng(seed: u64, client: usize) -> SimRng {
    SimRng::seed_from_u64(seed ^ 0x5EED_C11E).fork(&format!("bench-client-{client}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_table_is_a_distribution_with_harmonic_weights() {
        let table = zipf_table(256);
        assert_eq!(table.len(), 256);
        assert!((table[255] - 1.0).abs() < 1e-9);
        assert!(table.windows(2).all(|w| w[0] < w[1]));
        let h256: f64 = (1..=256).map(|k| 1.0 / k as f64).sum();
        assert!((table[0] - 1.0 / h256).abs() < 1e-12);
        // Rank 2 carries half the mass of rank 1.
        assert!(((table[1] - table[0]) * 2.0 - table[0]).abs() < 1e-12);
    }

    #[test]
    fn picker_follows_the_table_and_the_seed() {
        let picker = DomainPicker::new(256, true);
        let mut rng = client_rng(7, 0);
        let draws: Vec<usize> = (0..20_000).map(|_| picker.pick(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 256));
        let top = draws.iter().filter(|&&d| d == 0).count() as f64 / draws.len() as f64;
        assert!(
            (top - zipf_table(256)[0]).abs() < 0.02,
            "rank-1 share {top}"
        );
        // Same seed and client: same stream. Another client: another.
        let mut again = client_rng(7, 0);
        assert!(draws
            .iter()
            .take(100)
            .all(|&d| d == picker.pick(&mut again)));
        let mut other = client_rng(7, 1);
        let other: Vec<usize> = (0..100).map(|_| picker.pick(&mut other)).collect();
        assert_ne!(other, draws[..100]);

        let uniform = DomainPicker::new(16, false);
        let mut seen = [0usize; 16];
        for _ in 0..16_000 {
            seen[uniform.pick(&mut rng)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 700), "{seen:?}");
    }

    #[test]
    fn names_are_unique_and_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::ALL[3], Workload::WideTcp, "wide_tcp runs last");
    }
}
