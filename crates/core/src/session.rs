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
//! * [`Action::Wait`] — every request is in flight; nothing to do until a
//!   response (or the transport's timeout for it) arrives,
//! * [`Action::Done`] — call [`PoolSession::finish`] for the
//!   [`GenerationReport`], whose rows say what each resolver came to.
//!
//! Responses are fed back with [`PoolSession::handle_response`] in **any
//! order** — the combined pool is identical for every delivery
//! interleaving, because answers are always assembled in configuration
//! order (a property the core test-suite checks over random permutations).
//!
//! # What a generation keeps
//!
//! Each question of the generation (one type or two) is encoded once, when
//! the session is planned, and kept by it: a source's request is written
//! from it, and its reply is read against it again — the session lends it
//! with the transaction id the request carried, so nothing of the request
//! travels between the two halves. Every answer is read into one buffer of
//! the session's, and a slot that answered records where its addresses lie
//! in it; the vote and Algorithm 1 are handed those slices.
//!
//! # Who owns a name
//!
//! A resolver's name is copied once, when its source set is made (by
//! [`SecurePoolGenerator::new`](crate::SecurePoolGenerator::new) or
//! `replace_sources`), into an `Arc<str>` every generation over the set
//! shares: the report's `(name, outcome)` rows and the provenance of the
//! pool slots Algorithm 1 fills (see [`crate::pool`]) point at it. A
//! [`Transmit`] identifies its source by its **index** in configuration
//! order — the position of the source in the set the session was planned
//! over, the same position its row has in [`GenerationReport::sources`] —
//! and whoever wants to print it asks [`PoolSession::source_name`].
//!
//! Two drivers inside the crate cover the common cases, behind
//! [`SecurePoolGenerator::generate`](crate::SecurePoolGenerator::generate)
//! and its `_sequential` twin: `drive` overlaps the exchanges through
//! [`Exchanger::exchange_all`] and `drive_sequential` performs them one at
//! a time (the pre-session behaviour, kept for comparison benchmarks).

use std::borrow::Cow;
use std::fmt::Write;
use std::mem;
use std::net::IpAddr;
use std::ops::Range;
use std::sync::Arc;

use sdoh_dns_server::{ExchangeRequest, Exchanger};
use sdoh_dns_wire::{Name, NameRef, RrType};
use sdoh_doh::DohQuestion;
use sdoh_netsim::NetResult;

use crate::combine::combine;
use crate::config::{DualStackPolicy, PoolConfig};
use crate::error::{PoolError, PoolResult};
use crate::generator::{GenerationReport, Named, SourceOutcome};
use crate::source::{FetchError, FetchStart, MAX_REPLY_ADDRESSES};

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

/// What the driver should do next.
#[derive(Debug)]
pub enum Action {
    /// Send this request; report the outcome via
    /// [`PoolSession::handle_response`].
    Transmit(Transmit),
    /// All requests are in flight; wait for their outcomes. The transport
    /// enforces each request's timeout and reports it as an outcome.
    Wait,
    /// The lookup is complete; call [`PoolSession::finish`].
    Done,
}

/// Where one fetch stands.
enum Slot {
    Queued(ExchangeRequest),
    InFlight,
    /// Its addresses, where they lie in the session's answer buffer.
    Answered(Range<usize>),
    Failed(FetchError),
}

/// One fetch: a source asking one of the session's questions in one pass,
/// under the transaction id `id`.
struct Transaction {
    source: usize,
    pass: usize,
    question: usize,
    id: u16,
    slot: Slot,
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
    sources: Arc<[Named]>,
    /// The record types each query pass asks every source for.
    passes: &'static [&'static [RrType]],
    /// The questions of every pass, in pass and slot order (at most two).
    questions: [Option<DohQuestion>; 2],
    /// One per (pass, source, slot), in that order (see `slots`).
    transactions: Vec<Transaction>,
    /// Every answered slot's addresses, in the order they were read.
    answers: Vec<IpAddr>,
    /// Every transaction before it has been handed out or settled.
    cursor: usize,
    /// Transactions not settled yet, planned or not.
    open: usize,
    /// The (pass, source) pairs settled so far, answered and failed.
    answered: u64,
    failed: u64,
}

impl PoolSession {
    /// Plans the fan-out for `domain` over `sources` according to `config`.
    ///
    /// `seed` seeds the workspace's one generator,
    /// [`SimRng`](sdoh_netsim::SimRng), which draws the DNS transaction ids
    /// handed to the sources; two sessions built with the same inputs
    /// describe byte-identical exchanges.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::NoResolvers`] for an empty source list,
    /// configuration validation errors, and [`PoolError::Generation`] for a
    /// name no query can carry (none of `Name`'s constructors builds one).
    pub(crate) fn plan(
        config: PoolConfig,
        sources: Arc<[Named]>,
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
        // Each question encoded once, for every source to ask.
        let mut questions = [None, None];
        for (question, &rtype) in questions.iter_mut().zip(passes.iter().copied().flatten()) {
            *question = Some(
                DohQuestion::new(domain, rtype)
                    .map_err(|e| PoolError::Generation(e.to_string()))?,
            );
        }
        let total = passes.iter().map(|rtypes| rtypes.len()).sum::<usize>() * sources.len();
        let mut session = PoolSession {
            config,
            sources,
            passes,
            questions,
            transactions: Vec::with_capacity(total),
            answers: Vec::new(),
            cursor: 0,
            open: total,
            answered: 0,
            failed: 0,
        };
        let mut ids = sdoh_netsim::SimRng::seed_from_u64(seed);
        let mut first_question = 0;
        for (pass, rtypes) in passes.iter().enumerate() {
            for source in 0..session.sources.len() {
                for question in first_question..first_question + rtypes.len() {
                    session.start(pass, source, question, ids.gen_u16());
                }
                // Sources that resolved without I/O (static answers,
                // immediate failures) complete before the first poll.
                session.close(pass, source);
            }
            first_question += rtypes.len();
        }
        Ok(session)
    }

    /// Plans one fetch: `source` asks `question` under `id`, in `pass`.
    fn start(&mut self, pass: usize, source: usize, question: usize, id: u16) {
        let Some((named, asked)) = self
            .sources
            .get(source)
            .zip(self.questions.get(question).and_then(Option::as_ref))
        else {
            return;
        };
        let at = self.answers.len();
        let slot = match named.source.start_fetch(asked, id, &mut self.answers) {
            FetchStart::Transmit(request) => Slot::Queued(request),
            FetchStart::Immediate(result) => self.settle(at, result),
        };
        self.transactions.push(Transaction {
            source,
            pass,
            question,
            id,
            slot,
        });
    }

    /// What a fetch whose addresses were appended from `at` on came to. A
    /// failure drops what it appended, and so does an answer of more
    /// addresses than one reply may carry ([`MAX_REPLY_ADDRESSES`]), which
    /// fails its source whatever the source is: no answer puts more than
    /// that many keys into the vote. The first answer sizes the buffer for
    /// every fetch still open, as if each answered as many addresses, so a
    /// generation of equal answers grows it once — but by at most one
    /// reply's ceiling, so a long first answer sizes only itself.
    fn settle(&mut self, at: usize, result: Result<(), FetchError>) -> Slot {
        self.open = self.open.saturating_sub(1);
        let end = self.answers.len();
        let result = match result {
            Ok(()) if end.saturating_sub(at) > MAX_REPLY_ADDRESSES => {
                Err(FetchError::Protocol("addresses past the ceiling".into()))
            }
            other => other,
        };
        match result {
            Ok(()) if at == 0 && end > 0 => self
                .answers
                .reserve_exact(end.saturating_mul(self.open).min(MAX_REPLY_ADDRESSES)),
            Ok(()) => {}
            Err(err) => {
                self.answers.truncate(at);
                return Slot::Failed(err);
            }
        }
        Slot::Answered(at..end)
    }

    /// The name of the source at `index` in configuration order — what a
    /// [`Transmit`] carries; empty for an index the session never handed
    /// out.
    pub fn source_name(&self, index: usize) -> &str {
        self.sources.get(index).map_or("", |source| &source.name)
    }

    /// The name the generation looks up, lent by its first question.
    pub(crate) fn domain(&self) -> NameRef<'_> {
        let first = self.questions.first().and_then(Option::as_ref);
        first.map(DohQuestion::name).unwrap_or_default()
    }

    /// Advances the state machine.
    pub fn poll(&mut self) -> Action {
        while let Some(tx) = self.transactions.get_mut(self.cursor) {
            self.cursor += 1;
            match mem::replace(&mut tx.slot, Slot::InFlight) {
                Slot::Queued(request) => {
                    return Action::Transmit(Transmit {
                        transaction: TransactionId(self.cursor - 1),
                        source: tx.source,
                        request,
                    })
                }
                other => tx.slot = other,
            }
        }
        // Everything is handed out: what is still open is in flight.
        if self.open > 0 {
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
            .get(id.0)
            .ok_or(PoolError::UnknownTransaction(id.0))?;
        let (Slot::InFlight, Some(named), Some(asked)) = (
            &tx.slot,
            self.sources.get(tx.source),
            self.questions.get(tx.question).and_then(Option::as_ref),
        ) else {
            return Err(PoolError::TransactionNotInFlight(id.0));
        };
        let (pass, source, at) = (tx.pass, tx.source, self.answers.len());
        let result = named
            .source
            .handle_response(asked, tx.id, outcome, &mut self.answers);
        let slot = self.settle(at, result);
        if let Some(tx) = self.transactions.get_mut(id.0) {
            tx.slot = slot;
        }
        self.close(pass, source);
        Ok(())
    }

    /// Where the slots of `(pass, source)` lie in `transactions`: passes
    /// in order, each one source after another, each source's slots one
    /// per type its pass asks.
    fn slots(&self, pass: usize, source: usize) -> Range<usize> {
        let before = self.passes.iter().take(pass).map(|rtypes| rtypes.len());
        let slots = self.passes.get(pass).map_or(0, |rtypes| rtypes.len());
        let first = before.sum::<usize>() * self.sources.len() + source * slots;
        first..first + slots
    }

    /// Brings `(pass, source)` up to date after one of its slots settled.
    /// Once a slot has failed, the still-queued siblings are cancelled,
    /// mirroring the historical sequential behaviour of skipping the AAAA
    /// query after a failed A query: the source's outcome is already
    /// decided by the lowest failing slot, so transmitting them would be
    /// wasted traffic (siblings in flight are left to land, and ignored).
    /// Once every slot is settled, what the pair came to is counted:
    /// failed if any slot failed, answered otherwise.
    fn close(&mut self, pass: usize, source: usize) {
        let slots = self.slots(pass, source);
        let Some(slots) = self.transactions.get_mut(slots) else {
            return;
        };
        let failed = slots.iter().any(|tx| matches!(tx.slot, Slot::Failed(_)));
        let mut open = false;
        for tx in slots {
            match tx.slot {
                Slot::Queued(_) if failed => {
                    tx.slot = Slot::Failed(FetchError::Transport(
                        "skipped: an earlier fetch of this source failed".into(),
                    ));
                    self.open = self.open.saturating_sub(1);
                }
                Slot::Queued(_) | Slot::InFlight => open = true,
                Slot::Answered(_) | Slot::Failed(_) => {}
            }
        }
        match (open, failed) {
            (true, _) => {}
            (false, true) => self.failed += 1,
            (false, false) => self.answered += 1,
        }
    }

    /// How many (pass, source) pairs have answered and how many have
    /// failed so far: once the session is done, each source once per pass.
    pub(crate) fn outcome_counts(&self) -> (u64, u64) {
        (self.answered, self.failed)
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
        for tx in self.transactions.get(self.slots(pass, source))? {
            match &tx.slot {
                Slot::Answered(at) => {
                    let more = self.answers.get(at.clone()).unwrap_or_default();
                    if list.is_empty() {
                        list = Cow::Borrowed(more);
                    } else {
                        list.to_mut().extend_from_slice(more);
                    }
                }
                Slot::Failed(err) => failure = failure.or(Some(err)),
                Slot::Queued(_) | Slot::InFlight => return None,
            }
        }
        Some(match failure {
            None => Ok(list),
            Some(err) => Err(err),
        })
    }

    /// Combines the per-resolver answers into the final report.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Session`] when exchanges are still outstanding
    /// and [`PoolError::NotEnoughResponses`] when fewer resolvers than
    /// `min_responses` produced usable answers.
    pub fn finish(self) -> PoolResult<GenerationReport> {
        if self.open > 0 {
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
        let mut outcomes: Vec<(Arc<str>, SourceOutcome)> = Vec::with_capacity(self.sources.len());
        let mut answers = Vec::with_capacity(self.sources.len());
        for (source, named) in self.sources.iter().enumerate() {
            // finish() verified completion before combine_pass runs.
            let Some(answer) = self.answer_of(pass, source) else {
                continue;
            };
            let (outcome, list) = match answer {
                Ok(list) => (SourceOutcome::Answered(list.len()), Some(list)),
                Err(err) => (SourceOutcome::Failed(err.to_string()), None),
            };
            outcomes.push((Arc::clone(&named.name), outcome));
            answers.push((Arc::clone(&named.name), list));
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
            .field("open", &self.open)
            .finish()
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
    // Sized for every exchange the plan queued: one batch, one allocation
    // each, and none for sources that answered without I/O.
    let mut ids: Vec<TransactionId> = Vec::with_capacity(session.open);
    let mut requests: Vec<ExchangeRequest> = Vec::with_capacity(session.open);
    loop {
        match session.poll() {
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
    use crate::fleet::{doh_sources, DohFleet};
    use crate::source::{AddressSource, StaticSource};
    use sdoh_doh::DohServerService;
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

    /// An answer of one address more than a reply may carry fails its
    /// source whatever the source is, here a static one, and none of its
    /// addresses reaches the vote: the one it shares with a second source
    /// would otherwise hold two votes of three.
    #[test]
    fn an_answer_past_the_address_ceiling_fails_its_source_before_the_vote() {
        let flood: Vec<IpAddr> = (0..=MAX_REPLY_ADDRESSES)
            .map(|i| IpAddr::from([198, 18, (i / 256) as u8, (i % 256) as u8]))
            .collect();
        let sources: Vec<Box<dyn AddressSource>> = vec![
            Box::new(StaticSource::answering("flood", flood.clone())),
            Box::new(StaticSource::answering("r1", vec![ip(1), ip(2), flood[0]])),
            Box::new(StaticSource::answering("r2", vec![ip(1), ip(2)])),
        ];
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let mut session = plan(PoolConfig::majority_resolver(), sources, &domain, 1);
        assert!(matches!(session.poll(), Action::Done));
        assert_eq!(session.outcome_counts(), (2, 1));
        let report = session.finish().unwrap();
        let past = FetchError::Protocol("addresses past the ceiling".into());
        assert_eq!(report.sources[0].1, SourceOutcome::Failed(past.to_string()));
        assert_eq!(report.answered(), 2);
        assert_eq!(report.pool.addresses(), vec![ip(1), ip(2)]);
    }

    #[test]
    fn immediate_sources_complete_without_transmits() {
        let sources = static_sources();
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let mut session = plan(PoolConfig::algorithm1(), sources, &domain, 1);
        // Done at once; never a Transmit.
        assert!(matches!(session.poll(), Action::Done));
        assert_eq!(session.outcome_counts(), (2, 0));
        let report = session.finish().unwrap();
        assert_eq!(report.pool.len(), 4);
        assert!(report
            .sources
            .iter()
            .all(|(_, outcome)| *outcome == SourceOutcome::Answered(2)));
    }

    #[test]
    fn doh_fanout_transmits_everything_before_waiting() {
        let net = SimNet::new(31);
        let fleet = DohFleet::new(3, 1, 4, 31);
        let authority = fleet.authority();
        for info in &fleet.infos {
            net.register(
                info.addr,
                DohServerService::new(info.clone(), authority.clone()),
            );
        }
        let sources = doh_sources(&fleet.infos);
        let mut session = plan(PoolConfig::algorithm1(), sources, &fleet.domains[0], 7);

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
        assert_eq!(session.open, 3);

        // Deliver the responses in reverse order; the pool must not care.
        let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
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
        assert!(matches!(session.poll(), Action::Done));
        let report = session.finish().unwrap();
        assert_eq!(report.pool.len(), 12, "3 resolvers x 4 addresses");
        // Configuration order, not delivery order.
        let names: Vec<&str> = report.sources.iter().map(|(n, _)| &**n).collect();
        assert_eq!(
            names,
            fleet
                .infos
                .iter()
                .map(|i| i.name.as_str())
                .collect::<Vec<_>>()
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

            fn start_fetch(
                &self,
                question: &DohQuestion,
                _id: u16,
                answers: &mut Vec<IpAddr>,
            ) -> FetchStart {
                match question.rtype() {
                    RrType::Aaaa => {
                        FetchStart::Immediate(Err(FetchError::Transport("no v6 route".into())))
                    }
                    _ => {
                        answers.push(ip(9));
                        FetchStart::Immediate(Ok(()))
                    }
                }
            }

            fn handle_response(
                &self,
                _question: &DohQuestion,
                _id: u16,
                _outcome: sdoh_netsim::NetResult<Vec<u8>>,
                _answers: &mut Vec<IpAddr>,
            ) -> Result<(), FetchError> {
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
        assert!(matches!(session.poll(), Action::Done));
        // Counted per pass: both answer the A pass, one the AAAA pass.
        assert_eq!(session.outcome_counts(), (3, 1));
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
        let sources = doh_sources(&DohFleet::new(1, 1, 1, 32).infos);
        let domain: Name = "pool.ntp.org".parse().unwrap();
        let mut session = plan(PoolConfig::algorithm1(), sources, &domain, 5);
        let Action::Transmit(_) = session.poll() else {
            panic!("expected a transmit");
        };
        assert!(matches!(session.finish(), Err(PoolError::Session(_))));
    }
}
