//! The Kaminsky-style birthday adversary: races forged responses against
//! in-flight plain-channel requests, sweeping transaction-id and
//! source-port guesses.
//!
//! Where [`OffPathSpoofer`](super::OffPathSpoofer) abstracts the whole race
//! into one configured probability, `BirthdaySpoofer` derives the success
//! probability of each race from the **identifiers the victim actually
//! used**:
//!
//! * **transaction id** — the attacker runs a sequential predictor (next =
//!   last observed + 1, the classic weak-resolver id allocation). A victim
//!   drawing sequential ids is predicted exactly; a victim drawing random
//!   ids costs the attacker 16 bits per guess.
//! * **source port** — the attacker predicts a repeat of the last port it
//!   observed from that host. A victim querying from a fixed service port
//!   is predicted; ephemeral random ports cost another 16 bits.
//! * **extra in-payload entropy** — identifier bits the forger cannot copy
//!   from context, e.g. DNS 0x20 mixed-case query encoding, reported by
//!   the caller-supplied inspection closure.
//!
//! With the per-race entropy established, the attacker's `attempts` forged
//! packets win with probability `1 - (1 - 2^-bits)^attempts` — exactly
//! [`SpoofStrategy::GuessIdentifiers`]'s model — and a win delivers the
//! forged payload built by the caller-supplied forging closure (which, as
//! the winning guess, echoes the genuine identifiers).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;
use std::rc::Rc;

use crate::addr::SimAddr;
use crate::channel::ChannelKind;
use crate::rng::SimRng;

use super::offpath::ForgeFn;
use super::{Adversary, Envelope, RequestVerdict, SpoofStrategy};

/// What the attacker's inspection of one observed request payload yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedIdentifiers {
    /// The in-payload transaction identifier (the DNS TXID).
    pub txid: u16,
    /// Additional identifier bits the forger must guess because it cannot
    /// derive them from context (e.g. 0x20 mixed-case bits); `0` when the
    /// payload carries none.
    pub extra_entropy_bits: u8,
}

/// Callback extracting the guessable identifiers from a request payload.
/// Returning `None` marks the request as uninteresting (not a query for
/// the attacked domain).
pub type InspectFn = Box<dyn FnMut(&[u8]) -> Option<ObservedIdentifiers>>;

/// Counters describing the races a [`BirthdaySpoofer`] ran, shared with
/// the experiment via [`BirthdaySpoofer::stats_handle`] (the adversary
/// itself is moved into the network on attachment).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BirthdayStats {
    /// Requests the attacker raced (interesting, plain-channel, on-target).
    pub raced: u64,
    /// Races won: a guess matched and the forged response was delivered.
    pub wins: u64,
    /// Total forged packets sent (`raced × attempts`).
    pub forged_packets: u64,
    /// How many races were run at each entropy level (bits → count):
    /// the attacker's own view of the victim's identifier hygiene.
    pub entropy_histogram: BTreeMap<u8, u64>,
}

impl BirthdayStats {
    /// The lowest entropy (in bits) any race was run at — the weakest
    /// moment the victim exposed.
    pub fn min_entropy_bits(&self) -> Option<u8> {
        self.entropy_histogram.keys().next().copied()
    }
}

/// An off-path attacker racing forged responses with guessed identifiers
/// against plain-channel requests to a set of victim destinations.
pub struct BirthdaySpoofer {
    attempts: u32,
    targets: Option<Vec<SimAddr>>,
    inspect: InspectFn,
    forge: ForgeFn,
    txid_seen: HashMap<IpAddr, u16>,
    port_seen: HashMap<IpAddr, u16>,
    stats: Rc<RefCell<BirthdayStats>>,
}

impl BirthdaySpoofer {
    /// Creates a birthday attacker sending `attempts` forged responses per
    /// raced request. `inspect` extracts the guessable identifiers from a
    /// request payload (and filters interesting requests); `forge` builds
    /// the poisoned response delivered when a guess wins.
    pub fn new<I, F>(attempts: u32, inspect: I, forge: F) -> Self
    where
        I: FnMut(&[u8]) -> Option<ObservedIdentifiers> + 'static,
        F: FnMut(&[u8], &mut SimRng) -> Option<Vec<u8>> + 'static,
    {
        BirthdaySpoofer {
            attempts,
            targets: None,
            inspect: Box::new(inspect),
            forge: Box::new(forge),
            txid_seen: HashMap::new(),
            port_seen: HashMap::new(),
            stats: Rc::new(RefCell::new(BirthdayStats::default())),
        }
    }

    /// Restricts the attack to requests addressed to the given victim
    /// destinations (e.g. the authoritative servers a resolver queries).
    pub fn with_targets(mut self, targets: Vec<SimAddr>) -> Self {
        self.targets = Some(targets);
        self
    }

    /// A handle onto the race counters that stays readable after the
    /// adversary has been moved into the network.
    pub fn stats_handle(&self) -> Rc<RefCell<BirthdayStats>> {
        Rc::clone(&self.stats)
    }

    fn is_target(&self, dst: SimAddr) -> bool {
        match &self.targets {
            None => true,
            Some(targets) => targets.contains(&dst),
        }
    }

    /// The identifier entropy (bits) of one observed request, updating the
    /// per-host predictors as a side effect.
    fn race_entropy(&mut self, src: SimAddr, observed: ObservedIdentifiers) -> u8 {
        let txid_predicted = self
            .txid_seen
            .insert(src.ip, observed.txid)
            .map(|last| last.wrapping_add(1) == observed.txid)
            .unwrap_or(false);
        let port_predicted = self
            .port_seen
            .insert(src.ip, src.port)
            .map(|last| last == src.port)
            .unwrap_or(false);
        let mut bits = u16::from(observed.extra_entropy_bits);
        if !txid_predicted {
            bits += 16;
        }
        if !port_predicted {
            bits += 16;
        }
        u8::try_from(bits.min(255)).unwrap_or(u8::MAX)
    }
}

impl std::fmt::Debug for BirthdaySpoofer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BirthdaySpoofer")
            .field("attempts", &self.attempts)
            .field("targets", &self.targets)
            .field("stats", &*self.stats.borrow())
            .finish()
    }
}

impl Adversary for BirthdaySpoofer {
    fn on_request(&mut self, envelope: &Envelope<'_>, rng: &mut SimRng) -> RequestVerdict {
        // Off-path attackers cannot forge into authenticated channels.
        if envelope.channel != ChannelKind::Plain || !self.is_target(envelope.dst) {
            return RequestVerdict::Deliver;
        }
        let observed = match (self.inspect)(envelope.payload) {
            Some(observed) => observed,
            None => return RequestVerdict::Deliver,
        };
        let bits = self.race_entropy(envelope.src, observed);
        {
            let mut stats = self.stats.borrow_mut();
            stats.raced += 1;
            stats.forged_packets += u64::from(self.attempts);
            *stats.entropy_histogram.entry(bits).or_insert(0) += 1;
        }
        let strategy = SpoofStrategy::GuessIdentifiers {
            attempts: self.attempts,
            entropy_bits: bits,
        };
        if !rng.chance(strategy.success_probability()) {
            return RequestVerdict::Deliver;
        }
        match (self.forge)(envelope.payload, rng) {
            Some(forged) => {
                self.stats.borrow_mut().wins += 1;
                RequestVerdict::Forge(forged)
            }
            None => RequestVerdict::Deliver,
        }
    }

    fn name(&self) -> &str {
        "birthday-spoofer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inspection closure for a toy protocol: payload = [txid_hi, txid_lo,
    /// extra_bits].
    fn toy_inspect() -> impl FnMut(&[u8]) -> Option<ObservedIdentifiers> {
        |payload: &[u8]| {
            if payload.len() < 3 {
                return None;
            }
            Some(ObservedIdentifiers {
                txid: u16::from_be_bytes([payload[0], payload[1]]),
                extra_entropy_bits: payload[2],
            })
        }
    }

    fn envelope(src: SimAddr, dst: SimAddr, payload: &[u8]) -> Envelope<'_> {
        Envelope {
            src,
            dst,
            channel: ChannelKind::Plain,
            payload,
        }
    }

    fn query(txid: u16, extra: u8) -> Vec<u8> {
        let mut q = txid.to_be_bytes().to_vec();
        q.push(extra);
        q
    }

    #[test]
    fn sequential_txids_and_fixed_ports_are_predicted() {
        let mut spoofer =
            BirthdaySpoofer::new(1, toy_inspect(), |_q, _rng| Some(b"forged".to_vec()));
        let stats = spoofer.stats_handle();
        let mut rng = SimRng::seed_from_u64(1);
        let victim = SimAddr::v4(10, 0, 0, 53, 53);
        let dst = SimAddr::v4(198, 41, 0, 4, 53);

        // First observation: nothing predicted yet — 32 bits.
        let v = spoofer.on_request(&envelope(victim, dst, &query(100, 0)), &mut rng);
        assert_eq!(
            v,
            RequestVerdict::Deliver,
            "2^-32 race practically never wins"
        );
        // Sequential follow-ups from the same fixed port: 0 bits, the
        // single forged packet always wins.
        for txid in 101..=103u16 {
            let v = spoofer.on_request(&envelope(victim, dst, &query(txid, 0)), &mut rng);
            assert_eq!(v, RequestVerdict::Forge(b"forged".to_vec()), "txid {txid}");
        }
        let stats = stats.borrow();
        assert_eq!(stats.raced, 4);
        assert_eq!(stats.wins, 3);
        assert_eq!(stats.forged_packets, 4);
        assert_eq!(stats.entropy_histogram.get(&32), Some(&1));
        assert_eq!(stats.entropy_histogram.get(&0), Some(&3));
        assert_eq!(stats.min_entropy_bits(), Some(0));
    }

    #[test]
    fn random_identifiers_defeat_small_attempt_budgets() {
        let mut spoofer =
            BirthdaySpoofer::new(16, toy_inspect(), |_q, _rng| Some(b"forged".to_vec()));
        let stats = spoofer.stats_handle();
        let mut rng = SimRng::seed_from_u64(2);
        let mut id_rng = SimRng::seed_from_u64(77);
        let victim_ip = SimAddr::v4(10, 0, 0, 53, 0);
        let dst = SimAddr::v4(198, 41, 0, 4, 53);
        for _ in 0..200 {
            let src = victim_ip.with_port(1024 + id_rng.gen_u16() % 64512);
            let payload = query(id_rng.gen_u16(), 0);
            let v = spoofer.on_request(&envelope(src, dst, &payload), &mut rng);
            assert_eq!(v, RequestVerdict::Deliver);
        }
        let stats = stats.borrow();
        assert_eq!(stats.raced, 200);
        assert_eq!(stats.wins, 0);
        // Accidental predictor hits (txid last+1 or port repeat) are ~2^-16
        // per race; every race should have been scored at full entropy.
        assert_eq!(stats.entropy_histogram.get(&32), Some(&200));
    }

    #[test]
    fn extra_payload_entropy_raises_the_bar() {
        let mut spoofer =
            BirthdaySpoofer::new(1, toy_inspect(), |_q, _rng| Some(b"forged".to_vec()));
        let stats = spoofer.stats_handle();
        let mut rng = SimRng::seed_from_u64(3);
        let victim = SimAddr::v4(10, 0, 0, 53, 53);
        let dst = SimAddr::v4(198, 41, 0, 4, 53);
        spoofer.on_request(&envelope(victim, dst, &query(10, 12)), &mut rng);
        spoofer.on_request(&envelope(victim, dst, &query(11, 12)), &mut rng);
        let stats = stats.borrow();
        // First race: 16+16+12; second: predictors hit, 0x20 bits remain.
        assert_eq!(stats.entropy_histogram.get(&44), Some(&1));
        assert_eq!(stats.entropy_histogram.get(&12), Some(&1));
    }

    #[test]
    fn entropy_saturates_instead_of_overflowing() {
        let mut spoofer = BirthdaySpoofer::new(1, toy_inspect(), |_q, _rng| None);
        let mut rng = SimRng::seed_from_u64(4);
        let victim = SimAddr::v4(10, 0, 0, 53, 53);
        let dst = SimAddr::v4(198, 41, 0, 4, 53);
        spoofer.on_request(&envelope(victim, dst, &query(1, 255)), &mut rng);
        assert_eq!(
            spoofer.stats_handle().borrow().min_entropy_bits(),
            Some(255)
        );
    }

    #[test]
    fn secure_channels_and_off_target_requests_are_ignored() {
        let victim = SimAddr::v4(10, 0, 0, 53, 53);
        let target = SimAddr::v4(198, 41, 0, 4, 53);
        let other = SimAddr::v4(9, 9, 9, 9, 53);
        let mut spoofer =
            BirthdaySpoofer::new(1, toy_inspect(), |_q, _rng| Some(b"forged".to_vec()))
                .with_targets(vec![target]);
        let stats = spoofer.stats_handle();
        let mut rng = SimRng::seed_from_u64(5);

        let secure = Envelope {
            src: victim,
            dst: target,
            channel: ChannelKind::Secure,
            payload: &query(1, 0),
        };
        assert_eq!(
            spoofer.on_request(&secure, &mut rng),
            RequestVerdict::Deliver
        );
        assert_eq!(
            spoofer.on_request(&envelope(victim, other, &query(2, 0)), &mut rng),
            RequestVerdict::Deliver
        );
        // Uninteresting payloads (inspect returns None) are not raced.
        assert_eq!(
            spoofer.on_request(&envelope(victim, target, b"xx"), &mut rng),
            RequestVerdict::Deliver
        );
        assert_eq!(stats.borrow().raced, 0);
        assert_eq!(spoofer.name(), "birthday-spoofer");
        assert!(!format!("{spoofer:?}").is_empty());
    }
}
