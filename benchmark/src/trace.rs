//! Outside-in tracing: spans recorded by bench-owned wrappers around the
//! program's public `Exchanger`, `PayloadService` and `QueryHandler`
//! traits, kept in memory and written out when the run ends. Nothing in
//! the program is instrumented.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdoh_dns_server::{ExchangeOutcome, ExchangeRequest, Exchanger, QueryHandler};
use sdoh_dns_wire::Message;
use sdoh_netsim::{ChannelKind, NetResult, SimAddr, SimInstant};
use sdoh_runtime::PayloadService;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// Spans of one replayed query share this.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of this thread, outermost first.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// An open span: close it with [`Tracer::end`], which is also where it
/// gets its name (a serve call is a hit or a miss only once it returns).
pub struct Open {
    id: u32,
    parent: u32,
    start_ns: u64,
    /// The value `fanout_parent` held before this span took it over.
    restores_fanout: Option<u32>,
}

/// The span sink. Once `cap` spans are held further ones are counted and
/// dropped, so a loaded pass cannot grow memory without bound.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    cap: usize,
    next_id: AtomicU32,
    request: AtomicU32,
    /// The span a thread with no open span of its own hangs its spans
    /// under: `BackendExchanger::exchange_all` serves each exchange on a
    /// fresh thread, and the wrapper around it publishes itself here.
    /// Exact while one query is in flight (the replay); best effort under
    /// concurrent load, whose spans are never reported.
    fanout_parent: AtomicU32,
    dropped: AtomicU32,
}

impl Tracer {
    pub fn new(cap: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(cap.min(1 << 16))),
            cap,
            next_id: AtomicU32::new(1),
            request: AtomicU32::new(0),
            fanout_parent: AtomicU32::new(0),
            dropped: AtomicU32::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts the next request; spans recorded from now carry its number.
    pub fn next_request(&self) -> u32 {
        self.request.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn begin(&self) -> Open {
        self.begin_inner(false)
    }

    /// Like [`Tracer::begin`], and spans opened on *other* threads while
    /// this one is open become its children.
    pub fn begin_fanout(&self) -> Open {
        self.begin_inner(true)
    }

    fn begin_inner(&self, fanout: bool) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open
                .last()
                .copied()
                .unwrap_or_else(|| self.fanout_parent.load(Ordering::Acquire));
            open.push(id);
            parent
        });
        let restores_fanout = fanout.then(|| self.fanout_parent.swap(id, Ordering::AcqRel));
        Open {
            id,
            parent,
            start_ns: self.now_ns(),
            restores_fanout,
        }
    }

    pub fn end(&self, open: Open, name: &'static str) {
        let end_ns = self.now_ns();
        if let Some(previous) = open.restores_fanout {
            self.fanout_parent.store(previous, Ordering::Release);
        }
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().rposition(|&id| id == open.id) {
                stack.truncate(at);
            }
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: self.request.load(Ordering::Relaxed),
            name,
            start_ns: open.start_ns,
            end_ns,
        };
        let mut spans = self.spans.lock().expect("no span recorder panics");
        if spans.len() < self.cap {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin();
        let value = f();
        self.end(open, name);
        value
    }

    pub fn dropped(&self) -> u32 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Takes every span recorded so far, in completion order.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span recorder panics"))
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
/// Overlapping intervals — the parallel exchanges of one fan-out — count
/// once.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes spans as JSON lines; `pass` says which part of the traced run
/// recorded them.
pub fn write_jsonl(out: &mut impl Write, pass: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"pass\": \"{pass}\", \"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

/// An [`Exchanger`] that records a span around every exchange and batch of
/// the exchanger it wraps.
pub struct TracedExchanger<E> {
    pub inner: E,
    pub tracer: Arc<Tracer>,
}

impl<E: Exchanger> Exchanger for TracedExchanger<E> {
    fn exchange(
        &mut self,
        dst: SimAddr,
        channel: ChannelKind,
        payload: &[u8],
        timeout: Duration,
    ) -> NetResult<Vec<u8>> {
        let open = self.tracer.begin_fanout();
        let reply = self.inner.exchange(dst, channel, payload, timeout);
        self.tracer.end(open, "runtime.backend_exchange");
        reply
    }

    fn next_id(&mut self) -> u16 {
        self.inner.next_id()
    }

    fn now(&self) -> SimInstant {
        self.inner.now()
    }

    fn exchange_all(&mut self, requests: Vec<ExchangeRequest>) -> Vec<ExchangeOutcome> {
        let open = self.tracer.begin_fanout();
        let outcomes = self.inner.exchange_all(requests);
        self.tracer.end(open, "runtime.backend_exchange_all");
        outcomes
    }
}

/// A [`PayloadService`] (a DoH terminator) with a span around each
/// payload it serves.
pub struct TracedService<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
}

impl<S: PayloadService> PayloadService for TracedService<S> {
    fn serve(
        &mut self,
        exchanger: &mut dyn Exchanger,
        channel: ChannelKind,
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        let open = self.tracer.begin();
        let reply = self.inner.serve(exchanger, channel, payload);
        self.tracer.end(open, "doh.server_serve");
        reply
    }

    fn service_name(&self) -> &str {
        self.inner.service_name()
    }
}

/// A [`QueryHandler`] (an `Authority`) with a span around each answer.
pub struct TracedHandler<H> {
    pub inner: H,
    pub tracer: Arc<Tracer>,
}

impl<H: QueryHandler> QueryHandler for TracedHandler<H> {
    fn handle_query(&mut self, exchanger: &mut dyn Exchanger, query: &Message) -> Message {
        let open = self.tracer.begin();
        let response = self.inner.handle_query(exchanger, query);
        self.tracer.end(open, "dns_server.authority_answer");
        response
    }

    fn handler_name(&self) -> &str {
        self.inner.handler_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(1, 0, 0, 1_000),
            // Three parallel exchanges: 100..400, 150..500, 450..600.
            span(2, 1, 100, 400),
            span(3, 1, 150, 500),
            span(4, 1, 450, 600),
            // A grandchild is not the root's child.
            span(5, 2, 120, 380),
            // A later, disjoint child.
            span(6, 1, 800, 900),
        ];
        let selfs = self_times(&spans);
        // Children cover 100..600 and 800..900 = 600.
        assert_eq!(selfs[0], 400);
        assert_eq!(selfs[1], 300 - 260);
        assert_eq!(selfs[2], 350);
        assert_eq!(selfs[5], 100);
    }

    #[test]
    fn covered_clips_to_the_parent_interval() {
        assert_eq!(covered_ns(100, 200, &mut [(0, 150), (180, 400)]), 70);
        assert_eq!(covered_ns(100, 200, &mut [(0, 50), (300, 400)]), 0);
        assert_eq!(covered_ns(100, 200, &mut [(0, 1_000)]), 100);
        assert_eq!(covered_ns(0, 10, &mut []), 0);
    }

    #[test]
    fn nesting_and_cross_thread_parents() {
        let tracer = Tracer::new(100);
        assert_eq!(tracer.next_request(), 1);
        let outer = tracer.begin();
        let outer_id = outer.id;
        let fanout = tracer.begin_fanout();
        let fanout_id = fanout.id;
        std::thread::scope(|scope| {
            scope.spawn(|| tracer.span("remote", || ()));
        });
        tracer.end(fanout, "fanout");
        tracer.span("local", || ());
        tracer.end(outer, "outer");
        tracer.span("root", || ());
        let spans = tracer.drain();
        let by_name = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(by_name("outer").parent, 0);
        assert_eq!(by_name("fanout").parent, outer_id);
        assert_eq!(by_name("remote").parent, fanout_id);
        assert_eq!(by_name("local").parent, outer_id);
        assert_eq!(by_name("root").parent, 0);
        assert!(spans
            .iter()
            .all(|s| s.request == 1 && s.end_ns >= s.start_ns));
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn sink_is_bounded_and_jsonl_is_one_object_per_line() {
        let tracer = Tracer::new(2);
        for _ in 0..5 {
            tracer.span("x", || ());
        }
        assert_eq!(tracer.dropped(), 3);
        let spans = tracer.drain();
        assert_eq!(spans.len(), 2);
        let mut out = Vec::new();
        write_jsonl(&mut out, "replay", &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let doc = crate::json::Json::parse(line).unwrap();
            assert_eq!(doc.get("name").and_then(|n| n.as_str()), Some("x"));
            assert_eq!(doc.get("pass").and_then(|n| n.as_str()), Some("replay"));
        }
    }
}
