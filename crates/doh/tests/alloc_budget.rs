//! Heap allocations of one DoH exchange, counted — no timing involved.
//!
//! A lookup is DNS names being decoded, cloned, compared and encoded again,
//! inside an exchange that frames, seals, opens and parses a payload at each
//! end, so the allocation count of one exchange is the regression guard for
//! all three: a `Name` is one buffer (decoding one is one allocation,
//! compressing one is none), a payload is one buffer from its envelope
//! header to its record tag, with no header list, header block or frame
//! built beside it, and neither end builds an HTTP message: the client
//! copies its request from the octets it wrote once for the resolver and
//! the question's (encoded once per generation, inline, and outside the
//! count), the terminator and the client read the frames and fields where
//! they lie in the opened record, and the terminator decodes the query and
//! writes the answer into buffers it keeps.
//!
//! The exchange counted is an address source's: `begin_query`, the
//! terminator's `serve_payload` and `finish_addresses` reading the
//! addresses where they lie in the answer, on the walk that validates it,
//! into a buffer with room for them (a generation reads every reply into
//! one). The counts are exact and repeat on every run (the test prints
//! them; when this was written: 2 per exchange — 1 to begin the query, 1 to
//! serve it, 0 to finish it — 1 to read the 8 addresses out of an answer
//! into an empty vector, 11 for the owned copy `finish_query`'s callers
//! get, 1 per name clone). What is left is the buffers themselves: the two
//! payloads. The terminator reads the query where it lies in the buffer it
//! decoded the `dns=` parameter into, and the client's one stream sits
//! inline in its connection, made when the reply is read; the query's
//! octets, for the echo check, are the question the caller lends again,
//! and the authority renders the answer from its index, compressing
//! nothing. The exchange budget is its count: one allocation more fails
//! the test — 3 while each exchange read its addresses into a vector of
//! its own, 6 while the terminator decoded each query into an owned
//! `Message` and the client kept its stream list on the heap, 7 while the
//! authority walked its zone and compressed the answer's owner names
//! against an offset list built per answer, 10 while the client kept the
//! question, the query's wire form and its compression offsets on the
//! heap, 28 while both ends built and copied HTTP messages, 60 while the
//! answer was decoded into a `Message` again and the authority cloned the
//! records it answers with, 161 while the exchange copied its octets from
//! buffer to buffer, 312 while a name was a vector of vectors.
//!
//! Only the measuring thread's blocks are counted: the test harness's main
//! thread takes a few of its own while the test runs, at no fixed moment,
//! and counted with the rest they made a count vary from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use sdoh_dns_server::{Authority, Catalog, Exchanger, Zone};
use sdoh_dns_wire::{Message, MessageView, Name, RrType};
use sdoh_doh::{DohClient, DohQuestion, DohServerService, ResolverInfo};
use sdoh_netsim::{ChannelKind, NetError, NetResult, SimAddr, SimInstant};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations count: only the measuring thread's
    /// do, so a block the test harness's own thread takes meanwhile (its
    /// channel wait registers a waker, at no fixed moment) is never counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Counts one block if this thread is measuring.
fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The system allocator, counting every block it hands out or moves.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|counting| counting.set(true));
    let out = work();
    COUNTING.with(|counting| counting.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// The authority answers from its zone and never goes upstream.
struct NoUpstream;

impl Exchanger for NoUpstream {
    fn exchange(
        &mut self,
        dst: SimAddr,
        _: ChannelKind,
        _: &[u8],
        _: Duration,
    ) -> NetResult<Vec<u8>> {
        Err(NetError::Unreachable(dst))
    }

    fn next_id(&mut self) -> u16 {
        0
    }

    fn now(&self) -> SimInstant {
        SimInstant::EPOCH
    }
}

#[test]
fn one_exchange_stays_within_its_allocation_budget() {
    let pool: Name = "pool.ntpns.org".parse().unwrap();
    let mut zone = Zone::new("ntpns.org".parse().unwrap());
    for host in 1..=8 {
        zone.add_address(pool.clone(), format!("203.0.113.{host}").parse().unwrap());
    }
    let mut catalog = Catalog::new();
    catalog.add_zone(zone);
    let resolver = ResolverInfo::new("dns.example", SimAddr::v4(192, 0, 2, 1, 443), 7);
    let mut server = DohServerService::new(resolver.clone(), Authority::new(catalog));
    let client = DohClient::new(resolver);
    let expected: Vec<IpAddr> = (1..=8)
        .map(|host| IpAddr::from([203, 0, 113, host]))
        .collect();

    // The exchange `finish_query`'s callers make: the service keeps the
    // buffer it opens records in from this one on.
    let question = DohQuestion::new(&pool, RrType::A).unwrap();
    let transmit = client.begin_query(0, &question);
    let mut reply = server
        .serve_payload(&mut NoUpstream, transmit.channel, &transmit.payload)
        .unwrap();
    let octets = (transmit.payload.len(), reply.len());
    let response = client.finish_query(&question, 0, &mut reply).unwrap();
    assert_eq!(response.answer_addresses(), expected);
    assert_eq!(octets, (200, 310), "octets on the wire, request and reply");

    // The exchange an address source makes, counted, its addresses read
    // into a buffer that has room for them, as a generation's has.
    let mut addresses = Vec::with_capacity(expected.len());
    let (begin, transmit) = allocations_of(|| client.begin_query(0, &question));
    let (serve, mut reply) = allocations_of(|| {
        server
            .serve_payload(&mut NoUpstream, transmit.channel, &transmit.payload)
            .unwrap()
    });
    let (finish, _) = allocations_of(|| {
        client
            .finish_addresses(&question, 0, &mut reply, &mut addresses)
            .unwrap()
    });
    let exchange = begin + serve + finish;
    assert_eq!(addresses, expected);

    let wire = response.encode().unwrap();
    let (read, addresses) = allocations_of(|| {
        let mut addresses = Vec::new();
        MessageView::parse_addresses(&wire, RrType::A, &mut addresses).unwrap();
        addresses
    });
    assert_eq!(addresses, expected);
    let (decode, decoded) = allocations_of(|| Message::decode(&wire).unwrap());
    assert_eq!(decoded, response);

    let (clone, cloned) = allocations_of(|| pool.clone());
    assert_eq!(cloned, pool);

    println!(
        "allocations: exchange {exchange} (begin_query {begin} + serve_payload {serve} + \
         finish_addresses {finish}), answer read {read}, owned decode {decode}, clone {clone}"
    );
    assert_eq!(exchange, 2, "one GET exchange allocated {exchange} times");
    assert_eq!(
        finish, 0,
        "reading a reply into a buffer with room allocated {finish} times"
    );
    assert!(
        read <= 2,
        "reading the 8 addresses of the answer allocated {read} times"
    );
    assert!(
        decode <= 24,
        "decoding the 8-address answer allocated {decode} times"
    );
    assert_eq!(clone, 1, "a name is one buffer");
}
