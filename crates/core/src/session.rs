//! The sans-IO pool-generation session.
//!
//! [`PoolSession`] is a state machine describing one secure pool lookup: the
//! fan-out of DNS/DoH exchanges to the N configured resolvers, the
//! per-resolver outcome bookkeeping, and the final combination step
//! (Algorithm 1, the no-truncation ablation, or the majority vote). It
//! performs **no I/O itself** — a driver repeatedly calls
//! [`PoolSession::poll`] and acts on the returned [`Action`]:
//!
//! * [`Action::Transmit`] — put a request on the wire (the session hands out
//!   *all* transmits before asking to wait, so a capable driver can overlap
//!   every exchange: per-lookup latency is the slowest resolver's, not the
//!   sum — the paper's concurrent fan-out),
//! * [`Action::Deliver`] — a progress event (a resolver finished),
//! * [`Action::Wait`] — every request is in flight; nothing to do until a
//!   response (or the transport's timeout for it) arrives,
//! * [`Action::Done`] — call [`PoolSession::finish`] for the
//!   [`GenerationReport`].
//!
//! Responses are fed back with [`PoolSession::handle_response`] in **any
//! order** — the combined pool is identical for every delivery
//! interleaving, because answers are always assembled in configuration
//! order (a property the core test-suite checks over random permutations).
//!
//! # Who owns a name
//!
//! A resolver's name belongs to its [`AddressSource`]; the session never
//! copies one while it runs. A [`Transmit`] and a [`SessionEvent`] identify
//! their source by its **index** in configuration order — the position of
//! the source in the set the session was planned over, the same position
//! its row has in [`GenerationReport::sources`] — and whoever wants to print
//! it asks [`PoolSession::source_name`]. Only what outlives the session is
//! copied, once, in [`PoolSession::finish`]: the report's `(name, outcome)`
//! rows, and one shared provenance string per contributing source for the
//! pool's slots (see [`crate::pool`]).
//!
//! Two drivers inside the crate cover the common cases, behind
//! [`SecurePoolGenerator::generate`](crate::SecurePoolGenerator::generate)
//! and its `_sequential` twin: `drive` overlaps the exchanges through
//! [`Exchanger::exchange_all`] and `drive_sequential` performs them one at
//! a time (the pre-session behaviour, kept for comparison benchmarks).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write;
use std::mem;
use std::net::IpAddr;
use std::sync::Arc;

use sdoh_dns_server::{ExchangeRequest, Exchanger};
use sdoh_dns_wire::{Name, RrType};
use sdoh_doh::{DohQuestion, PreparedDohQuery};
use sdoh_netsim::NetResult;

use crate::combine::combine;
use crate::config::{DualStackPolicy, PoolConfig};
use crate::error::{PoolError, PoolResult};
use crate::generator::{GenerationReport, SourceOutcome};
use crate::source::{AddressSource, FetchError, FetchStart};

/// Identifies one in-flight exchange of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransactionId(usize);

/// One request the driver must put on the wire.
#[derive(Debug)]
pub struct Transmit {
    /// Which transaction this request belongs to; echo it back to
    /// [`PoolSession::handle_response`] together with the outcome.
    pub transaction: TransactionId,
    /// Index, in configuration order, of the source the exchange queries;
    /// [`PoolSession::source_name`] names it.
    pub source: usize,
    /// Destination, channel, payload and timeout of the exchange.
    pub request: ExchangeRequest,
}

/// Progress events delivered by [`Action::Deliver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// A resolver produced a usable answer list.
    SourceAnswered {
        /// Index of the resolver in configuration order;
        /// [`PoolSession::source_name`] names it.
        source: usize,
        /// Which query pass completed (0 except for
        /// [`DualStackPolicy::PerFamily`], where 1 is the AAAA pass).
        pass: usize,
        /// Number of addresses in the answer.
        addresses: usize,
    },
    /// A resolver failed.
    SourceFailed {
        /// Index of the resolver in configuration order.
        source: usize,
        /// Which query pass failed.
        pass: usize,
        /// Why.
        error: String,
    },
}

/// What the driver should do next.
#[derive(Debug)]
pub enum Action {
    /// Send this request; report the outcome via
    /// [`PoolSession::handle_response`].
    Transmit(Transmit),
    /// All requests are in flight; wait for their outcomes. The transport
    /// enforces each request's timeout and reports it as an outcome.
    Wait,
    /// A source completed; informational.
    Deliver(SessionEvent),
    /// The lookup is complete; call [`PoolSession::finish`].
    Done,
}

enum TxState {
    Queued {
        request: ExchangeRequest,
        pending: PreparedDohQuery,
    },
    InFlight {
        pending: PreparedDohQuery,
    },
    Completed {
        result: Result<Vec<IpAddr>, FetchError>,
    },
    // Transient marker while ownership moves between states.
    Poisoned,
}

struct Transaction {
    source: usize,
    pass: usize,
    state: TxState,
}

/// Sans-IO state machine for one secure pool lookup, planned by
/// [`SecurePoolGenerator::session`](crate::SecurePoolGenerator::session).
///
/// See the module documentation for the driving protocol.
pub struct PoolSession {
    config: PoolConfig,
    /// The resolver set the session fans out over, shared with the
    /// generator that planned it: the session can outlive the call that
    /// opened it (a serving shard's live generations) and keeps its set
    /// when the generator's is replaced meanwhile.
    sources: Arc<[Box<dyn AddressSource>]>,
    /// The record types each query pass asks every source for.
    passes: &'static [&'static [RrType]],
    /// One per (pass, source, slot), in that order.
    transactions: Vec<Transaction>,
    events: VecDeque<SessionEvent>,
}

impl PoolSession {
    /// Plans the fan-out for `domain` over `sources` according to `config`.
    ///
    /// `seed` feeds the deterministic stream of DNS transaction ids handed
    /// to the sources; two sessions built with the same inputs describe
    /// byte-identical exchanges.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::NoResolvers`] for an empty source list,
    /// configuration validation errors, and [`PoolError::Generation`] for a
    /// name no query can carry (none of `Name`'s constructors builds one).
    pub(crate) fn plan(
        config: PoolConfig,
        sources: Arc<[Box<dyn AddressSource>]>,
        domain: &Name,
        seed: u64,
    ) -> PoolResult<Self> {
        config.validate()?;
        if sources.is_empty() {
            return Err(PoolError::NoResolvers);
        }
        let passes: &'static [&'static [RrType]] = match config.dual_stack {
            DualStackPolicy::Ipv4Only => &[&[RrType::A]],
            DualStackPolicy::Ipv6Only => &[&[RrType::Aaaa]],
            DualStackPolicy::Union => &[&[RrType::A, RrType::Aaaa]],
            DualStackPolicy::PerFamily => &[&[RrType::A], &[RrType::Aaaa]],
        };
        let slots: usize = passes.iter().map(|rtypes| rtypes.len()).sum();

        let mut ids = IdStream::new(seed);
        let mut transactions = Vec::with_capacity(slots * sources.len());
        for (pass, rtypes) in passes.iter().enumerate() {
            // Each question of the pass (one type or two) encoded once, for
            // every source to ask.
            let mut questions = [None, None];
            for (question, &rtype) in questions.iter_mut().zip(rtypes.iter()) {
                *question = Some(
                    DohQuestion::new(domain, rtype)
                        .map_err(|e| PoolError::Generation(e.to_string()))?,
                );
            }
            for (source_index, source) in sources.iter().enumerate() {
                for question in questions.iter().flatten() {
                    let state = match source.start_fetch(question, ids.next_id()) {
                        FetchStart::Transmit { request, pending } => {
                            TxState::Queued { request, pending }
                        }
                        FetchStart::Immediate(result) => TxState::Completed { result },
                    };
                    transactions.push(Transaction {
                        source: source_index,
                        pass,
                        state,
                    });
                }
            }
        }
        let mut session = PoolSession {
            config,
            events: VecDeque::with_capacity(passes.len() * sources.len()),
            sources,
            passes,
            transactions,
        };
        // Sources that resolved without I/O (static answers, immediate
        // failures) complete before the first poll — and a slot that failed
        // immediately dooms its queued siblings just like a failed response
        // would, so they are never transmitted.
        for pass in 0..session.passes.len() {
            for source in 0..session.sources.len() {
                let already_failed = session.transactions.iter().any(|t| {
                    t.pass == pass
                        && t.source == source
                        && matches!(t.state, TxState::Completed { result: Err(_) })
                });
                if already_failed {
                    session.cancel_queued_siblings(pass, source);
                }
                session.emit_if_complete(pass, source);
            }
        }
        Ok(session)
    }

    /// The name of the source at `index` in configuration order — what a
    /// [`Transmit`] and a [`SessionEvent`] carry; empty for an index the
    /// session never handed out.
    pub fn source_name(&self, index: usize) -> &str {
        self.sources
            .get(index)
            .map_or("", |source| source.source_name())
    }

    /// Number of exchanges still awaiting a response.
    fn in_flight(&self) -> usize {
        self.transactions
            .iter()
            .filter(|t| matches!(t.state, TxState::InFlight { .. }))
            .count()
    }

    /// Number of exchanges not yet handed to the driver.
    fn queued(&self) -> usize {
        self.transactions
            .iter()
            .filter(|t| matches!(t.state, TxState::Queued { .. }))
            .count()
    }

    /// Advances the state machine.
    pub fn poll(&mut self) -> Action {
        if let Some(event) = self.events.pop_front() {
            return Action::Deliver(event);
        }
        for (index, tx) in self.transactions.iter_mut().enumerate() {
            if !matches!(tx.state, TxState::Queued { .. }) {
                continue;
            }
            match mem::replace(&mut tx.state, TxState::Poisoned) {
                TxState::Queued { request, pending } => {
                    tx.state = TxState::InFlight { pending };
                    return Action::Transmit(Transmit {
                        transaction: TransactionId(index),
                        source: tx.source,
                        request,
                    });
                }
                other => tx.state = other,
            }
        }
        if self.in_flight() > 0 {
            Action::Wait
        } else {
            Action::Done
        }
    }

    /// Feeds the transport outcome of transaction `id` back into the
    /// session. Outcomes may arrive in any order relative to the transmit
    /// order; the eventual report does not depend on the interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownTransaction`] when `id` is unknown and
    /// [`PoolError::TransactionNotInFlight`] when it was already completed.
    pub fn handle_response(
        &mut self,
        id: TransactionId,
        outcome: NetResult<Vec<u8>>,
    ) -> PoolResult<()> {
        let tx = self
            .transactions
            .get_mut(id.0)
            .ok_or(PoolError::UnknownTransaction(id.0))?;
        let source = self
            .sources
            .get(tx.source)
            .ok_or_else(|| PoolError::Session("transaction of an unknown source".into()))?;
        let pending = match mem::replace(&mut tx.state, TxState::Poisoned) {
            TxState::InFlight { pending, .. } => pending,
            other => {
                tx.state = other;
                return Err(PoolError::TransactionNotInFlight(id.0));
            }
        };
        let result = source.handle_response(pending, outcome);
        let failed = result.is_err();
        tx.state = TxState::Completed { result };
        let (pass, source) = (tx.pass, tx.source);
        if failed {
            self.cancel_queued_siblings(pass, source);
        }
        self.emit_if_complete(pass, source);
        Ok(())
    }

    /// Cancels the still-queued sibling fetches of a source whose earlier
    /// fetch failed, mirroring the historical sequential behaviour of
    /// skipping the AAAA query after a failed A query: the source's outcome
    /// is already decided by the lowest failing slot, so transmitting the
    /// siblings would be wasted traffic. Siblings already in flight are
    /// unaffected (their responses are simply ignored by the combination).
    fn cancel_queued_siblings(&mut self, pass: usize, source: usize) {
        for tx in &mut self.transactions {
            if tx.pass == pass && tx.source == source && matches!(tx.state, TxState::Queued { .. })
            {
                tx.state = TxState::Completed {
                    result: Err(FetchError::Transport(
                        "skipped: an earlier fetch of this source failed".into(),
                    )),
                };
            }
        }
    }

    /// The slots of `(pass, source)`, in slot order — the order they were
    /// planned in.
    fn slots(&self, pass: usize, source: usize) -> impl Iterator<Item = &TxState> {
        self.transactions
            .iter()
            .filter(move |tx| tx.pass == pass && tx.source == source)
            .map(|tx| &tx.state)
    }

    /// What `source` answered in `pass`, once every slot holds a result:
    /// its lists in slot order — lent when one slot holds all of it, joined
    /// for the two slots of a [`DualStackPolicy::Union`] pass — or the error
    /// of the lowest failing slot, mirroring the sequential
    /// fetch-A-then-AAAA behaviour where the first failure aborted. `None`
    /// while a slot is still open.
    fn answer_of(
        &self,
        pass: usize,
        source: usize,
    ) -> Option<Result<Cow<'_, [IpAddr]>, &FetchError>> {
        let mut list: Cow<'_, [IpAddr]> = Cow::Borrowed(&[]);
        let mut failure = None;
        for state in self.slots(pass, source) {
            match state {
                TxState::Completed { result: Ok(more) } if list.is_empty() => {
                    list = Cow::Borrowed(more);
                }
                TxState::Completed { result: Ok(more) } => list.to_mut().extend_from_slice(more),
                TxState::Completed { result: Err(err) } => failure = failure.or(Some(err)),
                _ => return None,
            }
        }
        Some(match failure {
            None => Ok(list),
            Some(err) => Err(err),
        })
    }

    /// Queues the per-source completion event once every slot of
    /// `(pass, source)` holds a result.
    fn emit_if_complete(&mut self, pass: usize, source: usize) {
        let event = match self.answer_of(pass, source) {
            None => return,
            Some(Ok(list)) => SessionEvent::SourceAnswered {
                source,
                pass,
                addresses: list.len(),
            },
            Some(Err(err)) => SessionEvent::SourceFailed {
                source,
                pass,
                error: err.to_string(),
            },
        };
        self.events.push_back(event);
    }

    /// Combines the per-resolver answers into the final report.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Session`] when exchanges are still outstanding
    /// and [`PoolError::NotEnoughResponses`] when fewer resolvers than
    /// `min_responses` produced usable answers.
    pub fn finish(self) -> PoolResult<GenerationReport> {
        if !self
            .transactions
            .iter()
            .all(|t| matches!(t.state, TxState::Completed { .. }))
        {
            return Err(PoolError::Session(
                "finish() called with exchanges outstanding".into(),
            ));
        }

        // PerFamily: each family truncated and combined on its own, pools
        // concatenated. Per-source outcomes are merged across the passes —
        // a resolver counts as failed if any family lookup failed, and as
        // answering the total address count otherwise — so front-end
        // metrics see real outcomes, not just the A pass's. (A single-pass
        // session simply skips the merge loop.)
        let mut passes = self.passes.iter().enumerate();
        let Some((first, rtypes)) = passes.next() else {
            return Err(PoolError::Session("session has no passes".into()));
        };
        let mut merged = self.combine_pass(first, rtypes)?;
        for (pass, rtypes) in passes {
            let other = self.combine_pass(pass, rtypes)?;
            merged.pool.extend_from(&other.pool);
            merged.truncate_lengths.extend(other.truncate_lengths);
            for ((_, outcome), (_, other_outcome)) in merged.sources.iter_mut().zip(other.sources) {
                match (&mut *outcome, other_outcome) {
                    (SourceOutcome::Answered(a), SourceOutcome::Answered(b)) => *a += b,
                    (SourceOutcome::Failed(_), _) => {}
                    (answered, failed) => *answered = failed,
                }
            }
        }
        Ok(merged)
    }

    /// Runs the combination step for one pass: collects each source's
    /// outcome row and answer list in configuration order, regardless of
    /// response arrival order, and hands the lists to [`combine`].
    fn combine_pass(&self, pass: usize, rtypes: &[RrType]) -> PoolResult<GenerationReport> {
        let mut outcomes: Vec<(String, SourceOutcome)> = Vec::with_capacity(self.sources.len());
        let mut answers: Vec<(&str, Option<Cow<'_, [IpAddr]>>)> =
            Vec::with_capacity(self.sources.len());
        for (source, named) in self.sources.iter().enumerate() {
            let name = named.source_name();
            // finish() verified completion before combine_pass runs.
            let Some(answer) = self.answer_of(pass, source) else {
                continue;
            };
            let (outcome, list) = match answer {
                Ok(list) => (SourceOutcome::Answered(list.len()), Some(list)),
                Err(err) => (SourceOutcome::Failed(err.to_string()), None),
            };
            outcomes.push((name.to_string(), outcome));
            answers.push((name, list));
        }

        let (pool, cut) = combine(&self.config, &answers)?;
        let truncate_lengths = cut
            .map(|cut| {
                let mut label = String::new();
                for (index, rtype) in rtypes.iter().enumerate() {
                    let joint = if index == 0 { "" } else { "+" };
                    let _ = write!(label, "{joint}{rtype}");
                }
                (label, cut)
            })
            .into_iter()
            .collect();
        Ok(GenerationReport {
            pool,
            mode: self.config.mode,
            sources: outcomes,
            truncate_lengths,
        })
    }
}

impl std::fmt::Debug for PoolSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolSession")
            .field("sources", &self.sources.len())
            .field("passes", &self.passes.len())
            .field("queued", &self.queued())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// Deterministic stream of DNS transaction ids, backed by the simulator's
/// seedable generator so the workspace has one PRNG implementation.
struct IdStream {
    rng: sdoh_netsim::SimRng,
}

impl IdStream {
    fn new(seed: u64) -> Self {
        IdStream {
            rng: sdoh_netsim::SimRng::seed_from_u64(seed),
        }
    }

    fn next_id(&mut self) -> u16 {
        self.rng.gen_u16()
    }
}

/// Drives a session to completion with **concurrent fan-out**: transmits
/// are collected and flushed as one [`Exchanger::exchange_all`] batch, so a
/// lookup over N resolvers costs one batch's virtual latency — the slowest
/// exchange — instead of the sum (the paper's parallel-query model).
///
/// # Errors
///
/// Propagates [`PoolError`] from the session (transport errors are folded
/// into per-source outcomes, not returned here).
pub(crate) fn drive(session: &mut PoolSession, exchanger: &mut dyn Exchanger) -> PoolResult<()> {
    let mut ids: Vec<TransactionId> = Vec::new();
    let mut requests: Vec<ExchangeRequest> = Vec::new();
    loop {
        match session.poll() {
            Action::Deliver(_) => {}
            Action::Transmit(transmit) => {
                ids.push(transmit.transaction);
                requests.push(transmit.request);
            }
            Action::Wait => {
                if requests.is_empty() {
                    // Nothing of ours in flight and nothing to send: only a
                    // foreign driver could make progress.
                    return Err(PoolError::Session(
                        "session waits on exchanges this driver never sent".into(),
                    ));
                }
                let outcomes = exchanger.exchange_all(mem::take(&mut requests));
                let batch_ids = mem::take(&mut ids);
                // Outcomes arrive in completion order; feed them back in
                // exactly that interleaving.
                for outcome in outcomes {
                    let id = batch_ids.get(outcome.index).copied().ok_or_else(|| {
                        PoolError::Session("exchange outcome for an unsent request".into())
                    })?;
                    session.handle_response(id, outcome.result)?;
                }
            }
            Action::Done => return Ok(()),
        }
    }
}

/// Drives a session to completion **one exchange at a time** — the
/// pre-session sequential behaviour, kept for latency comparisons and for
/// transports without concurrency support.
///
/// # Errors
///
/// Propagates [`PoolError`] from the session.
pub(crate) fn drive_sequential(
    session: &mut PoolSession,
    exchanger: &mut dyn Exchanger,
) -> PoolResult<()> {
    loop {
        match session.poll() {
            Action::Deliver(_) => {}
            Action::Transmit(transmit) => {
                let request = transmit.request;
                let outcome = exchanger.exchange(
                    request.dst,
                    request.channel,
                    &request.payload,
                    request.timeout,
                );
                session.handle_response(transmit.transaction, outcome)?;
            }
            Action::Wait => {
                return Err(PoolError::Session(
                    "session waits on exchanges this driver never sent".into(),
                ));
            }
            Action::Done => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::StaticSource;
    use sdoh_dns_server::ClientExchanger;
    use sdoh_doh::{DohMethod, DohServerService, ResolverDirectory};
    use sdoh_netsim::{SimAddr, SimNet};

    fn ip(last: u8) -> std::net::IpAddr {
        format!("203.0.113.{last}").parse().unwrap()
    }

    /// A session planned the one way there is: by a generator.
    fn plan(
        config: PoolConfig,
        sources: Vec<Box<dyn AddressSource>>,
        domain: &Name,
        seed: u64,
    ) -> PoolSession {
        crate::SecurePoolGenerator::new(config, sources)
            .unwrap()
            .session(domain, seed)
            .unwrap()
    }

    fn static_sources() -> Vec<Box<dyn AddressSource>> {
        vec![
            Box::new(StaticSource::answering("r1", vec![ip(1), ip(2)])),
            Box::new(StaticSource::answering("r2", vec![ip(3), ip(4)])),
        ]
    }

    #[test]
    fn immediate_sources_complete_without_transmits() {
        let sources = static_sources();
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let mut session = plan(PoolConfig::algorithm1(), sources, &domain, 1);
        // Two Deliver events, then Done; never a Transmit.
        let mut events = 0;
        loop {
            match session.poll() {
                Action::Deliver(SessionEvent::SourceAnswered { addresses, .. }) => {
                    events += 1;
                    assert_eq!(addresses, 2);
                }
                Action::Done => break,
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(events, 2);
        let report = session.finish().unwrap();
        assert_eq!(report.pool.len(), 4);
    }

    #[test]
    fn doh_fanout_transmits_everything_before_waiting() {
        let net = SimNet::new(31);
        let directory = ResolverDirectory::well_known(31);
        let infos = directory.take(3);
        let mut zone = sdoh_dns_server::Zone::new("ntp.org".parse().unwrap());
        for i in 1..=4u8 {
            zone.add_address("pool.ntp.org".parse().unwrap(), ip(i));
        }
        let mut catalog = sdoh_dns_server::Catalog::new();
        catalog.add_zone(zone);
        for info in &infos {
            net.register(
                info.addr,
                DohServerService::new(
                    info.clone(),
                    sdoh_dns_server::Authority::new(catalog.clone()),
                ),
            );
        }
        let sources: Vec<Box<dyn AddressSource>> = infos
            .iter()
            .map(|info| {
                Box::new(crate::source::DohSource::new(info.clone()).method(DohMethod::Get))
                    as Box<dyn AddressSource>
            })
            .collect();
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let mut session = plan(PoolConfig::algorithm1(), sources, &domain, 7);

        // The session must hand out all three transmits before first asking
        // to wait — that is what makes driver-side overlap possible.
        let mut transmits = Vec::new();
        loop {
            match session.poll() {
                Action::Transmit(t) => transmits.push(t),
                Action::Wait => break,
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(transmits.len(), 3);
        assert_eq!(session.in_flight(), 3);

        // Deliver the responses in reverse order; the pool must not care.
        let mut exchanger = ClientExchanger::new(&net, SimAddr::v4(10, 0, 0, 1, 40000));
        for t in transmits.into_iter().rev() {
            let reply = exchanger
                .exchange(
                    t.request.dst,
                    t.request.channel,
                    &t.request.payload,
                    t.request.timeout,
                )
                .unwrap();
            session.handle_response(t.transaction, Ok(reply)).unwrap();
        }
        while let Action::Deliver(_) = session.poll() {}
        let report = session.finish().unwrap();
        assert_eq!(report.pool.len(), 12, "3 resolvers x 4 addresses");
        // Configuration order, not delivery order.
        let names: Vec<&str> = report.sources.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            infos.iter().map(|i| i.name.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn per_family_merges_source_outcomes_across_passes() {
        use crate::config::DualStackPolicy;
        use crate::generator::SourceOutcome;

        /// Answers A queries but fails AAAA — a resolver with broken v6.
        struct V4Only;
        impl AddressSource for V4Only {
            fn source_name(&self) -> &str {
                "v4-only"
            }

            fn start_fetch(&self, question: &DohQuestion, _id: u16) -> FetchStart {
                match question.rtype() {
                    RrType::Aaaa => {
                        FetchStart::Immediate(Err(FetchError::Transport("no v6 route".into())))
                    }
                    _ => FetchStart::Immediate(Ok(vec![ip(9).to_owned()])),
                }
            }

            fn handle_response(
                &self,
                _pending: PreparedDohQuery,
                _outcome: sdoh_netsim::NetResult<Vec<u8>>,
            ) -> Result<Vec<std::net::IpAddr>, FetchError> {
                unreachable!("immediate source")
            }
        }

        let sources: Vec<Box<dyn AddressSource>> = vec![
            Box::new(StaticSource::answering(
                "dual",
                vec![ip(1), "2001:db8::1".parse().unwrap()],
            )),
            Box::new(V4Only),
        ];
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let config = PoolConfig::algorithm1().with_dual_stack(DualStackPolicy::PerFamily);
        let mut session = plan(config, sources, &domain, 3);
        while let Action::Deliver(_) = session.poll() {}
        let report = session.finish().unwrap();

        // The v6-broken resolver must be reported as failed even though its
        // A-pass lookup succeeded; the healthy resolver's count spans both
        // families.
        assert_eq!(report.failed(), 1);
        assert_eq!(report.sources[0].1, SourceOutcome::Answered(2));
        assert!(matches!(report.sources[1].1, SourceOutcome::Failed(_)));
    }

    #[test]
    fn misuse_is_reported_not_panicking() {
        let sources = static_sources();
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let mut session = plan(PoolConfig::algorithm1(), sources, &domain, 1);
        let err = session
            .handle_response(TransactionId(99), Ok(Vec::new()))
            .unwrap_err();
        assert_eq!(err, PoolError::UnknownTransaction(99));
        // Static transactions are already completed: responding is misuse.
        let err = session
            .handle_response(TransactionId(0), Ok(Vec::new()))
            .unwrap_err();
        assert_eq!(err, PoolError::TransactionNotInFlight(0));
    }

    #[test]
    fn finish_rejects_outstanding_exchanges() {
        let directory = ResolverDirectory::well_known(32);
        let infos = directory.take(1);
        let sources: Vec<Box<dyn AddressSource>> = infos
            .iter()
            .map(|info| {
                Box::new(crate::source::DohSource::new(info.clone())) as Box<dyn AddressSource>
            })
            .collect();
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let mut session = plan(PoolConfig::algorithm1(), sources, &domain, 5);
        let Action::Transmit(_) = session.poll() else {
            panic!("expected a transmit");
        };
        assert!(matches!(session.finish(), Err(PoolError::Session(_))));
    }
}
