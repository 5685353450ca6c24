//! The cache's eviction rule against the one it replaced.
//!
//! A full cache evicts a dead entry, else a pool nobody has asked for again
//! since it entered, else the least recently used. These tests hold that
//! rule — through `CachingPoolResolver`, every served answer still passed
//! through `check_guarantee` — against a model of plain LRU kept below as
//! the reference: it must beat LRU where most names are asked once (a Zipf
//! tail, a scan), and must not pin what it once favoured.
//!
//! Simulated time, seeded: the numbers printed (`--nocapture`) are exact
//! for a seed.

use std::collections::VecDeque;
use std::net::IpAddr;
use std::time::Duration;

use sdoh_core::serve::{CacheConfig, CachingPoolResolver, EntryState};
use sdoh_core::{
    check_guarantee, AddressPool, AddressSource, GroundTruth, PoolConfig, SecurePoolGenerator,
    StaticSource,
};
use sdoh_dns_server::QueryHandler;
use sdoh_dns_wire::{Message, Name, Rcode, RrType, Ttl};
use sdoh_netsim::{SimAddr, SimNet};

const CAPACITY: usize = 64;
/// Upstream resolvers: each miss costs this many exchanges.
const SOURCES: u64 = 3;
const TTL_SECS: u64 = 60;
const STALE_SECS: u64 = 60;

/// The rule `PoolCache::evict_one` had: recency alone. Front is least
/// recently used. (Time stands still in the comparisons, so nothing dies.)
#[derive(Default)]
struct LruReference {
    order: VecDeque<usize>,
    hits: u64,
    queries: u64,
}

impl LruReference {
    fn ask(&mut self, name: usize) {
        self.queries += 1;
        match self.order.iter().position(|&held| held == name) {
            Some(at) => {
                self.order.remove(at);
                self.hits += 1;
            }
            None if self.order.len() == CAPACITY => {
                self.order.pop_front();
            }
            None => {}
        }
        self.order.push_back(name);
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.queries as f64
    }

    fn exchanges_per_1000(&self) -> f64 {
        ((self.queries - self.hits) * SOURCES * 1000) as f64 / self.queries as f64
    }
}

/// splitmix64: the tests need a seeded stream, not a good one.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(1) over `names` ranks: rank `r` is drawn with weight `1 / (r + 1)`.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(names: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=names)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let point = rng.unit() * total;
        self.cumulative.partition_point(|&upto| upto <= point)
    }
}

/// One front end over two honest upstreams and a compromised one
/// (truncate-and-combine: a third of every pool is the attacker's, inside
/// the guarantee's half), with the traffic it has been asked.
struct FrontEnd {
    net: SimNet,
    resolver: CachingPoolResolver,
    truth: GroundTruth,
    next_id: u16,
}

impl FrontEnd {
    fn new() -> Self {
        let addresses = |block: u8| -> Vec<IpAddr> {
            (1..=2)
                .map(|host| IpAddr::from([203, 0, block, host]))
                .collect()
        };
        let sources: Vec<Box<dyn AddressSource>> = vec![
            Box::new(StaticSource::answering("honest-a", addresses(1))),
            Box::new(StaticSource::answering("honest-b", addresses(2))),
            Box::new(StaticSource::answering("compromised", addresses(66))),
        ];
        let generator = SecurePoolGenerator::new(PoolConfig::algorithm1(), sources).unwrap();
        let config = CacheConfig::default()
            .with_capacity(CAPACITY)
            .with_ttl(Ttl::from_secs(TTL_SECS as u32))
            .with_stale_window(Duration::from_secs(STALE_SECS));
        FrontEnd {
            net: SimNet::new(1),
            resolver: CachingPoolResolver::new(generator, config),
            truth: GroundTruth::with_malicious(addresses(66)),
            next_id: 0,
        }
    }

    /// Asks for `name` as a client would and checks the answer it got.
    fn ask(&mut self, name: usize) {
        let domain: Name = format!("pool{name}.ntpns.org").parse().unwrap();
        self.next_id = self.next_id.wrapping_add(1);
        let query = Message::query(self.next_id, domain, RrType::A);
        let mut exchanger = self.net.client(SimAddr::v4(10, 0, 0, 1, 40000));
        let response = self.resolver.handle_query(&mut exchanger, &query);
        assert_eq!(response.header.rcode, Rcode::NoError);
        let mut served = AddressPool::new();
        for address in response.answer_addresses() {
            served.push(address, "served");
        }
        let check = check_guarantee(&served, &self.truth, 0.5);
        assert!(check.holds, "pool{name}: {check:?}");
    }

    fn hits(&self) -> u64 {
        self.resolver.metrics().hits
    }

    /// Upstream exchanges so far: every per-resolver lookup of every
    /// generation.
    fn exchanges(&self) -> u64 {
        let metrics = self.resolver.metrics();
        metrics.source_answers + metrics.source_failures
    }
}

#[test]
fn a_zipf_tail_evicts_itself_not_the_hot_pools() {
    const QUERIES: u64 = 20_000;
    let zipf = Zipf::new(4 * CAPACITY);
    for seed in [11, 12, 13] {
        let mut rng = Rng(seed);
        let mut front = FrontEnd::new();
        let mut reference = LruReference::default();
        for _ in 0..QUERIES {
            let name = zipf.draw(&mut rng);
            front.ask(name);
            reference.ask(name);
        }
        let hit_ratio = front.hits() as f64 / QUERIES as f64;
        let per_1000 = (front.exchanges() * 1000) as f64 / QUERIES as f64;
        println!(
            "zipf seed {seed}: hit ratio {hit_ratio:.4} (LRU {:.4}), \
             upstream exchanges per 1000 queries {per_1000:.0} (LRU {:.0})",
            reference.hit_ratio(),
            reference.exchanges_per_1000(),
        );
        assert!(hit_ratio >= reference.hit_ratio() + 0.03, "seed {seed}");
        assert!(per_1000 < reference.exchanges_per_1000(), "seed {seed}");
        let cache = front.resolver.snapshot().cache;
        assert!(cache.reasked_evictions < cache.evictions);
    }
}

#[test]
fn a_scan_of_cold_names_costs_its_own_misses_only() {
    let mut front = FrontEnd::new();
    let mut reference = LruReference::default();
    let hot = 0..CAPACITY / 2;
    let scan = 1000..1000 + 4 * CAPACITY;
    for name in hot.clone().chain(hot.clone()).chain(scan.clone()) {
        front.ask(name);
        reference.ask(name);
    }
    let cache = front.resolver.snapshot().cache;
    assert_eq!(cache.reasked_evictions, 0, "the scan evicted only itself");

    let (exchanges, reference_hits) = (front.exchanges(), reference.hits);
    for name in hot.clone() {
        front.ask(name);
        reference.ask(name);
    }
    println!(
        "scan of {} cold names: {} upstream exchanges to serve the hot set again (LRU {})",
        scan.len(),
        front.exchanges() - exchanges,
        (hot.len() as u64 - (reference.hits - reference_hits)) * SOURCES,
    );
    assert_eq!(front.exchanges(), exchanges, "every hot pool was kept");
    assert_eq!(reference.hits, reference_hits, "LRU regenerates them all");
}

#[test]
fn a_loop_one_name_wider_than_the_cache_still_hits() {
    // Cold, the rule *is* LRU: nothing hits, so no bit is ever set. The
    // loop is entered with one of its names asked twice — as any cache
    // that has served traffic would be.
    let mut front = FrontEnd::new();
    let mut reference = LruReference::default();
    for name in std::iter::once(0).chain(0..=CAPACITY) {
        front.ask(name);
        reference.ask(name);
    }
    let (hits, reference_hits) = (front.hits(), reference.hits);
    const CYCLES: u64 = 4;
    for name in (0..CYCLES).flat_map(|_| 0..=CAPACITY) {
        front.ask(name);
        reference.ask(name);
    }
    println!(
        "{CYCLES} cycles over capacity + 1 names: {} hits (LRU {})",
        front.hits() - hits,
        reference.hits - reference_hits,
    );
    assert_eq!(reference.hits, reference_hits, "LRU: never");
    assert_eq!(
        front.hits() - hits,
        CYCLES,
        "the re-asked name, every cycle"
    );
}

/// Zipf traffic for 20k queries, then the same ranks renamed through
/// `permutation` for two more windows of 20k: `(hit ratio, LRU's)` of each
/// window after the change.
fn hit_ratios_after(permutation: &[usize]) -> [(f64, f64); 2] {
    const QUERIES: u64 = 20_000;
    let zipf = Zipf::new(permutation.len());
    let mut rng = Rng(21);
    let mut front = FrontEnd::new();
    let mut reference = LruReference::default();
    for _ in 0..QUERIES {
        let name = zipf.draw(&mut rng);
        front.ask(name);
        reference.ask(name);
    }
    [(); 2].map(|()| {
        let (hits, reference_hits) = (front.hits(), reference.hits);
        for _ in 0..QUERIES {
            let name = permutation[zipf.draw(&mut rng)];
            front.ask(name);
            reference.ask(name);
        }
        (
            (front.hits() - hits) as f64 / QUERIES as f64,
            (reference.hits - reference_hits) as f64 / QUERIES as f64,
        )
    })
}

#[test]
fn yesterdays_hot_set_is_not_pinned() {
    let names = 4 * CAPACITY;
    // Every name draws a new popularity (seeded Fisher-Yates).
    let mut shuffled: Vec<usize> = (0..names).collect();
    let mut rng = Rng(22);
    for at in (1..names).rev() {
        shuffled.swap(at, (rng.unit() * (at + 1) as f64) as usize);
    }
    let [(first, reference), _] = hit_ratios_after(&shuffled);
    println!("20k queries after a popularity shuffle: hit ratio {first:.4} (LRU {reference:.4})");
    assert!(first >= reference - 0.01);

    // The worst permutation there is — the order reversed, every favoured
    // pool now in the coldest tail — is where the rule pays: a newcomer has
    // to be asked for again before the next miss to displace a re-asked
    // entry, so the old set drains one promotion at a time. It costs a
    // point or two of the first 20k queries and is over by the second.
    let reversed: Vec<usize> = (0..names).rev().collect();
    let [(first, reference), (second, reference_second)] = hit_ratios_after(&reversed);
    println!(
        "after a popularity reversal: hit ratio {first:.4} (LRU {reference:.4}) over the \
         first 20k queries, {second:.4} (LRU {reference_second:.4}) over the next"
    );
    assert!(first >= reference - 0.03);
    assert!(second >= reference_second);
}

#[test]
fn a_reasked_pool_nobody_asks_again_ages_out() {
    let mut front = FrontEnd::new();
    front.ask(0);
    front.ask(0);
    front
        .net
        .clock()
        .advance(Duration::from_secs(TTL_SECS + STALE_SECS));
    let probes = front.resolver.probe_entries(front.net.now());
    assert_eq!(probes.len(), 1);
    assert_eq!(probes[0].state, EntryState::Dead);

    // Dead entries go first whatever their bit: filling the cache takes
    // the old favourite before any newcomer, and it counts as ordinary.
    for name in 1..=CAPACITY {
        front.ask(name);
    }
    let probes = front.resolver.probe_entries(front.net.now());
    assert_eq!(probes.len(), CAPACITY);
    assert!(probes.iter().all(|probe| probe.state == EntryState::Fresh));
    let cache = front.resolver.snapshot().cache;
    assert_eq!((cache.evictions, cache.reasked_evictions), (1, 0));
}
