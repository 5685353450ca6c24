//! The Chronos time-sampling algorithm (Deutsch, Rozen-Schiff, Dolev,
//! Schapira — "Preventing (Network) Time Travel with Chronos", NDSS 2018).
//!
//! Each update round samples `m` servers uniformly at random from the pool
//! of `n` servers, discards the `d` lowest and `d` highest offsets, and
//! accepts the average of the survivors only if (1) the survivors agree to
//! within `w` and (2) the average is close to the local clock. After `k`
//! failed rounds the client enters *panic mode*: it queries every server in
//! the pool, trims a third from each end and applies the average of the
//! rest.
//!
//! Chronos tolerates a minority of bad servers *in the pool*; the paper
//! reproduced by this repository protects the step before that — making
//! sure the pool obtained through DNS actually has an honest majority.

use std::net::IpAddr;

use sdoh_netsim::{SimNet, SimRng};

use crate::client::NtpClient;
use crate::clock::LocalClock;
use crate::error::{NtpError, NtpResult};

use super::config::ChronosConfig;

/// How an update round concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChronosMode {
    /// A sampled subset agreed and the offset was applied.
    Normal,
    /// Panic mode was entered and the trimmed pool-wide average was applied.
    Panic,
}

/// The result of one Chronos update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChronosOutcome {
    /// Offset (seconds) applied to the local clock.
    pub applied_offset: f64,
    /// Whether the update came from a normal round or panic mode.
    pub mode: ChronosMode,
    /// Number of sampling rounds attempted (including the successful one).
    pub rounds: usize,
    /// Number of samples that contributed to the applied average.
    pub samples_used: usize,
}

/// A Chronos client.
#[derive(Debug)]
pub struct ChronosClient {
    config: ChronosConfig,
    ntp: NtpClient,
    rng: SimRng,
}

impl ChronosClient {
    /// Creates a Chronos client.
    ///
    /// # Errors
    ///
    /// Returns [`NtpError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(config: ChronosConfig, ntp: NtpClient, seed: u64) -> NtpResult<Self> {
        config.validate()?;
        Ok(ChronosClient {
            config,
            ntp,
            rng: SimRng::seed_from_u64(seed),
        })
    }

    /// The configured parameters.
    pub fn config(&self) -> ChronosConfig {
        self.config
    }

    /// Performs one Chronos update against `pool`, adjusting `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`NtpError::EmptyPool`] for an empty pool and
    /// [`NtpError::NotEnoughSamples`] when even panic mode cannot gather
    /// enough responses to apply the configured trim — a round never
    /// shrinks its trim to fit a depleted sample set.
    pub fn update(
        &mut self,
        net: &SimNet,
        clock: &mut LocalClock,
        pool: &[IpAddr],
    ) -> NtpResult<ChronosOutcome> {
        if pool.is_empty() {
            return Err(NtpError::EmptyPool);
        }
        let mut rounds = 0usize;
        while rounds < self.config.max_retries {
            rounds += 1;
            if let Some((offset, used)) = self.try_normal_round(net, clock, pool)? {
                clock.adjust(offset);
                return Ok(ChronosOutcome {
                    applied_offset: offset,
                    mode: ChronosMode::Normal,
                    rounds,
                    samples_used: used,
                });
            }
        }
        // Panic mode: query every server in the pool.
        let (offset, used) = self.panic_round(net, clock, pool)?;
        clock.adjust(offset);
        Ok(ChronosOutcome {
            applied_offset: offset,
            mode: ChronosMode::Panic,
            rounds: rounds + 1,
            samples_used: used,
        })
    }

    fn try_normal_round(
        &mut self,
        net: &SimNet,
        clock: &LocalClock,
        pool: &[IpAddr],
    ) -> NtpResult<Option<(f64, usize)>> {
        let m = self.config.sample_size.min(pool.len());
        let indices = self.rng.sample_indices(pool.len(), m);
        let chosen: Vec<IpAddr> = indices
            .iter()
            .filter_map(|&i| pool.get(i).copied())
            .collect();
        let samples = self.ntp.sample_pool(net, clock, &chosen);
        // Trimming `d` from each end only discards the extremes when at
        // least `surviving_samples() + 2d` servers responded. With fewer
        // responses the round must fail — shrinking the trim instead would
        // let a lone malicious offset survive into the average whenever
        // enough honest servers are unresponsive.
        if samples.len() < self.config.surviving_samples() + 2 * self.config.trim {
            return Ok(None);
        }
        let mut offsets: Vec<f64> = samples.iter().map(|(_, s)| s.offset).collect();
        offsets.sort_by(f64::total_cmp);
        let trim = self.config.trim;
        let Some(survivors) = offsets.get(trim..offsets.len().saturating_sub(trim)) else {
            return Ok(None);
        };
        let (Some(&lowest), Some(&highest)) = (survivors.first(), survivors.last()) else {
            return Ok(None);
        };
        let spread = highest - lowest;
        let average = survivors.iter().sum::<f64>() / survivors.len() as f64;
        // Condition 1: agreement within w. Condition 2: not too far from the
        // local clock (drift bound) — a large jump is suspicious unless the
        // clock has just started (offset 0 rounds are always accepted when
        // they agree).
        if spread <= self.config.agreement_window && average.abs() <= self.config.drift_bound {
            Ok(Some((average, survivors.len())))
        } else {
            Ok(None)
        }
    }

    fn panic_round(
        &mut self,
        net: &SimNet,
        clock: &LocalClock,
        pool: &[IpAddr],
    ) -> NtpResult<(f64, usize)> {
        let samples = self.ntp.sample_pool(net, clock, pool);
        let mut offsets: Vec<f64> = samples.iter().map(|(_, s)| s.offset).collect();
        offsets.sort_by(f64::total_cmp);
        let trim = ((offsets.len() as f64) * self.config.panic_trim_fraction).floor() as usize; // sdoh-lint: allow(no-narrowing-cast, "the floored fraction of a sample count always fits usize")
                                                                                                // Panic mode must rest on at least as many survivors as a normal
                                                                                                // round: applying the "trimmed average" of one or two stragglers
                                                                                                // would hand a lone malicious responder the clock when the rest of
                                                                                                // the pool is unresponsive. (panic_trim_fraction < 1/2 is enforced
                                                                                                // at construction, so 2 * trim < len whenever len > 0.)
        let survivor_count = offsets.len() - 2 * trim;
        if survivor_count < self.config.surviving_samples() {
            return Err(NtpError::NotEnoughSamples {
                got: samples.len(),
                needed: self.min_panic_responses(),
            });
        }
        let Some(survivors) = offsets.get(trim..offsets.len().saturating_sub(trim)) else {
            return Err(NtpError::NotEnoughSamples {
                got: samples.len(),
                needed: self.min_panic_responses(),
            });
        };
        let average = survivors.iter().sum::<f64>() / survivors.len() as f64;
        Ok((average, survivors.len()))
    }

    /// The smallest response count `n` from which *every* count `>= n`
    /// keeps [`ChronosConfig::surviving_samples`] survivors after the
    /// floored panic trim. (Because the trim is floored, the survivor count
    /// is not monotone in `n` — e.g. 8 responses can pass where 9 fail —
    /// so the continuous bound `target / (1 - 2f)` is only a starting
    /// point, walked down while every smaller count still passes.)
    fn min_panic_responses(&self) -> usize {
        let target = self.config.surviving_samples();
        let fraction = self.config.panic_trim_fraction;
        let survivors = |n: usize| n - 2 * ((n as f64 * fraction).floor() as usize); // sdoh-lint: allow(no-narrowing-cast, "the floored fraction of a sample count always fits usize")
                                                                                     // At and beyond this bound the floored trim can never dip the
                                                                                     // survivor count below target again.
        let mut needed = ((target as f64) / (1.0 - 2.0 * fraction)).ceil() as usize; // sdoh-lint: allow(no-narrowing-cast, "the ceiling of a small positive ratio always fits usize")
        while needed > target && survivors(needed - 1) >= target {
            needed -= 1;
        }
        needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{register_pool, NtpServerConfig, NtpServerService};
    use sdoh_netsim::{LinkConfig, SimAddr};
    use std::time::Duration;

    fn make_pool(net: &SimNet, total: u8, malicious: usize, shift: f64) -> Vec<IpAddr> {
        let addrs: Vec<SimAddr> = (1..=total)
            .map(|i| SimAddr::v4(203, 0, 113, i, 123))
            .collect();
        register_pool(net, &addrs, malicious, shift, 1000);
        addrs.iter().map(|a| a.ip).collect()
    }

    fn client(seed: u64) -> ChronosClient {
        ChronosClient::new(
            ChronosConfig::default(),
            NtpClient::new(SimAddr::v4(10, 0, 0, 1, 123)).timeout(Duration::from_millis(500)),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn honest_pool_synchronises_accurately() {
        let net = SimNet::new(200);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let pool = make_pool(&net, 18, 0, 0.0);
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos = client(1);
        let outcome = chronos.update(&net, &mut clock, &pool).unwrap();
        assert_eq!(outcome.mode, ChronosMode::Normal);
        assert!(
            clock.offset_from_true().abs() < 0.05,
            "offset {}",
            clock.offset_from_true()
        );
    }

    #[test]
    fn minority_of_attackers_is_tolerated() {
        let net = SimNet::new(201);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        // 5 of 18 servers shift time by 1000 s.
        let pool = make_pool(&net, 18, 5, 1000.0);
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos = client(2);
        let outcome = chronos.update(&net, &mut clock, &pool).unwrap();
        assert!(
            clock.offset_from_true().abs() < 1.0,
            "clock shifted by {} despite attacker minority (mode {:?})",
            clock.offset_from_true(),
            outcome.mode
        );
    }

    #[test]
    fn poisoned_majority_shifts_the_clock() {
        let net = SimNet::new(202);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        // 15 of 18 servers are malicious — the situation a poisoned DNS pool
        // creates. Even Chronos cannot survive a corrupted majority.
        let pool = make_pool(&net, 18, 15, 1000.0);
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos = client(3);
        let _ = chronos.update(&net, &mut clock, &pool).unwrap();
        assert!(
            clock.offset_from_true() > 100.0,
            "a malicious majority should capture the clock, offset {}",
            clock.offset_from_true()
        );
    }

    #[test]
    fn empty_pool_is_an_error() {
        let net = SimNet::new(203);
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos = client(4);
        assert_eq!(
            chronos.update(&net, &mut clock, &[]),
            Err(NtpError::EmptyPool)
        );
    }

    #[test]
    fn unresponsive_pool_reports_not_enough_samples() {
        let net = SimNet::new(204);
        let pool: Vec<IpAddr> = (1..=6u8)
            .map(|i| format!("192.0.2.{i}").parse().unwrap())
            .collect();
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos = client(5);
        let err = chronos.update(&net, &mut clock, &pool).unwrap_err();
        assert!(matches!(err, NtpError::NotEnoughSamples { .. }));
    }

    #[test]
    fn lone_malicious_server_among_dead_ones_cannot_shift_the_clock() {
        // Regression: one malicious server answers, the rest of the pool is
        // unresponsive. The old guard shrank the trim to fit the depleted
        // sample set, so the single malicious offset survived into the
        // "trimmed" average (in panic mode) and moved the clock by the full
        // attacker shift. A depleted round must fail instead.
        let net = SimNet::new(205);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let addrs: Vec<SimAddr> = (1..=12u8)
            .map(|i| SimAddr::v4(203, 0, 113, i, 123))
            .collect();
        // First server malicious (+1000 s), the other eleven never answer.
        net.register(
            addrs[0],
            NtpServerService::new(NtpServerConfig::malicious(1000.0), net.clock(), 1),
        );
        for &addr in &addrs[1..] {
            net.register(
                addr,
                NtpServerService::new(NtpServerConfig::silent(), net.clock(), 2),
            );
        }
        let pool: Vec<IpAddr> = addrs.iter().map(|a| a.ip).collect();
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos = client(7);
        let err = chronos.update(&net, &mut clock, &pool).unwrap_err();
        assert!(
            matches!(err, NtpError::NotEnoughSamples { got: 1, .. }),
            "a single response must not drive an update: {err:?}"
        );
        assert!(
            clock.offset_from_true().abs() < 1e-9,
            "the malicious offset leaked into the clock: {}",
            clock.offset_from_true()
        );
    }

    #[test]
    fn partial_responses_fail_the_round_instead_of_under_trimming() {
        // 9 of 12 servers answer: enough to slip past the old inner guard
        // (9 > 2*trim) but not enough for a d=4 trim to leave the configured
        // surviving_samples() — the old code averaged a single "survivor"
        // and reported samples_used = 4. Both rounds must fail outright now.
        let net = SimNet::new(206);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let addrs: Vec<SimAddr> = (1..=12u8)
            .map(|i| SimAddr::v4(203, 0, 113, i, 123))
            .collect();
        register_pool(&net, &addrs[..9], 1, 1000.0, 3);
        for &addr in &addrs[9..] {
            net.register(
                addr,
                NtpServerService::new(NtpServerConfig::silent(), net.clock(), 4),
            );
        }
        let pool: Vec<IpAddr> = addrs.iter().map(|a| a.ip).collect();
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos = client(8);
        let err = chronos.update(&net, &mut clock, &pool).unwrap_err();
        assert!(
            matches!(err, NtpError::NotEnoughSamples { got: 9, needed: 10 }),
            "unexpected error: {err:?}"
        );
        assert!(clock.offset_from_true().abs() < 1e-9);
    }

    #[test]
    fn min_panic_responses_matches_the_floored_trim_exactly() {
        // Default config: surviving_samples = 4, panic trim 1/3. Counts of
        // 10 and above always keep >= 4 survivors (10 - 2*floor(10/3) = 4),
        // while 9 does not (9 - 2*3 = 3) — the reported `needed` must be
        // the exact threshold, not the continuous-bound overestimate of 12.
        let chronos = client(10);
        let survivors = |n: usize| n - 2 * ((n as f64 / 3.0).floor() as usize);
        assert!(survivors(10) >= 4);
        assert!(survivors(9) < 4);
        let net = SimNet::new(208);
        let pool: Vec<IpAddr> = (1..=6u8)
            .map(|i| format!("192.0.2.{i}").parse().unwrap())
            .collect();
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos_client = chronos;
        let err = chronos_client.update(&net, &mut clock, &pool).unwrap_err();
        assert!(
            matches!(err, NtpError::NotEnoughSamples { got: 0, needed: 10 }),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn samples_used_reports_the_actual_survivor_count() {
        let net = SimNet::new(207);
        net.set_default_link(LinkConfig::with_latency(Duration::from_millis(5)));
        let pool = make_pool(&net, 18, 0, 0.0);
        let mut clock = LocalClock::new(net.clock(), 0.0);
        let mut chronos = client(9);
        let outcome = chronos.update(&net, &mut clock, &pool).unwrap();
        assert_eq!(outcome.mode, ChronosMode::Normal);
        assert_eq!(
            outcome.samples_used,
            chronos.config().surviving_samples(),
            "a full round's survivors are exactly m - 2d"
        );
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let bad = ChronosConfig {
            sample_size: 4,
            trim: 2,
            ..ChronosConfig::default()
        };
        assert!(ChronosClient::new(bad, NtpClient::new(SimAddr::v4(10, 0, 0, 1, 123)), 1).is_err());
    }

    #[test]
    fn config_accessor() {
        let chronos = client(6);
        assert_eq!(chronos.config().sample_size, 12);
    }
}
