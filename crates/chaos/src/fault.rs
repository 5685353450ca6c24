//! The fault vocabulary and the seeded fault scheduler.
//!
//! A [`FaultPlan`] is a deterministic function of `(seed, steps, mix,
//! resolvers)`: the whole campaign schedule exists before the first step
//! runs, so a report can be reproduced — and a failure replayed — from the
//! seed alone. Faults come in three shapes:
//!
//! * **windows** — a start fault paired with an end fault some steps later
//!   (link degradation, resolver partitions, resolver churn, resolver
//!   compromise, spoofer activation, clock drift);
//! * **one-shots** — applied once (local clock steps, simulated time
//!   jumps);
//! * **pins** — injected by the caller via [`FaultPlan::push`] on top of
//!   the generated schedule (e.g. a persistent spoofer from step 0).
//!
//! The planner keeps **at most one resolver incident active at a time**
//! (partition, kill or compromise) and schedules the matching heal before
//! the next incident starts. With the scenario's three-resolver fleet this
//! keeps the honest majority intact throughout, so a hardened stack is
//! *expected* to survive the whole schedule with zero invariant
//! violations — any violation is a real bug, not planner noise.

use std::collections::BTreeMap;

use sdoh_netsim::SimRng;

/// One fault applied to the running campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Degrade every default link: loss, duplication and reordering
    /// probabilities plus extra one-way latency (milliseconds).
    DegradeLinks {
        /// Packet-loss probability applied to plain exchanges.
        loss: f64,
        /// Request-duplication probability.
        duplicate: f64,
        /// Response-reordering probability (50 ms hold-back window).
        reorder: f64,
        /// Extra one-way latency in milliseconds.
        extra_latency_ms: u64,
    },
    /// Restore the baseline default link.
    HealLinks,
    /// Partition the resolver at `index` from both the client host and the
    /// serving front end (its links drop everything).
    PartitionResolver {
        /// Index into the scenario's resolver fleet.
        index: usize,
    },
    /// Heal the partition around resolver `index`.
    HealPartition {
        /// Index into the scenario's resolver fleet.
        index: usize,
    },
    /// Unregister the resolver at `index` (the process died).
    KillResolver {
        /// Index into the scenario's resolver fleet.
        index: usize,
    },
    /// Reinstall the resolver at `index` with a cold cache (a replacement
    /// instance came up).
    ReviveResolver {
        /// Index into the scenario's resolver fleet.
        index: usize,
    },
    /// Reinstall the resolver at `index` as a compromised instance that
    /// inflates every pool answer with appended attacker addresses — the
    /// compromise Algorithm 1's truncation is built to absorb.
    CompromiseResolver {
        /// Index into the scenario's resolver fleet.
        index: usize,
    },
    /// Reinstall the resolver at `index` as an honest instance again.
    RestoreResolver {
        /// Index into the scenario's resolver fleet.
        index: usize,
    },
    /// Attach the off-path birthday spoofer racing every plain query for
    /// the pool zone with this many forged attempts.
    SpooferOn {
        /// Forged responses raced per query.
        attempts: u32,
    },
    /// Detach the off-path spoofer.
    SpooferOff,
    /// Step the campaign's local clock by this many seconds (a misset
    /// client clock the next synchronization must correct).
    ClockStep {
        /// Signed step in seconds.
        seconds: f64,
    },
    /// Jump simulated time forward by this many seconds
    /// (`SimClock::step`) — everything ages at once: cache entries, pool
    /// TTLs, stale windows.
    TimeJump {
        /// Forward jump in whole seconds.
        seconds: u64,
    },
    /// Set the simulated clock's drift rate in parts per million
    /// (`SimClock::set_drift`); zero clears an active drift window.
    ClockDrift {
        /// Signed drift rate in ppm.
        rate_ppm: i64,
    },
    /// Retune the caching front end: the TTL and stale window change
    /// mid-campaign while cached entries stay put. The invariant monitor's
    /// age bound widens to the maximum horizon any applied config allowed.
    /// A no-op on the weak baseline, which has no serving cache to retune.
    Reconfigure {
        /// New pool TTL in seconds.
        ttl_secs: u64,
        /// New stale window in seconds.
        stale_secs: u64,
    },
}

impl Fault {
    /// Short category label used for fault accounting in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::DegradeLinks { .. } => "degrade_links",
            Fault::HealLinks => "heal_links",
            Fault::PartitionResolver { .. } => "partition_resolver",
            Fault::HealPartition { .. } => "heal_partition",
            Fault::KillResolver { .. } => "kill_resolver",
            Fault::ReviveResolver { .. } => "revive_resolver",
            Fault::CompromiseResolver { .. } => "compromise_resolver",
            Fault::RestoreResolver { .. } => "restore_resolver",
            Fault::SpooferOn { .. } => "spoofer_on",
            Fault::SpooferOff => "spoofer_off",
            Fault::ClockStep { .. } => "clock_step",
            Fault::TimeJump { .. } => "time_jump",
            Fault::ClockDrift { .. } => "clock_drift",
            Fault::Reconfigure { .. } => "reconfigure",
        }
    }

    /// Human-readable description used in the event trace.
    pub fn describe(&self) -> String {
        match self {
            Fault::DegradeLinks {
                loss,
                duplicate,
                reorder,
                extra_latency_ms,
            } => format!(
                "degrade links loss={loss:.4} duplicate={duplicate:.4} \
                 reorder={reorder:.4} extra_latency={extra_latency_ms}ms"
            ),
            Fault::HealLinks => "heal links".to_string(),
            Fault::PartitionResolver { index } => format!("partition resolver {index}"),
            Fault::HealPartition { index } => format!("heal partition around resolver {index}"),
            Fault::KillResolver { index } => format!("kill resolver {index}"),
            Fault::ReviveResolver { index } => format!("revive resolver {index}"),
            Fault::CompromiseResolver { index } => format!("compromise resolver {index}"),
            Fault::RestoreResolver { index } => format!("restore resolver {index}"),
            Fault::SpooferOn { attempts } => format!("spoofer on ({attempts} attempts per query)"),
            Fault::SpooferOff => "spoofer off".to_string(),
            Fault::ClockStep { seconds } => format!("step local clock by {seconds:+.1}s"),
            Fault::TimeJump { seconds } => format!("jump simulated time forward {seconds}s"),
            Fault::ClockDrift { rate_ppm } => {
                if *rate_ppm == 0 {
                    "clear simulated clock drift".to_string()
                } else {
                    format!("drift simulated clock at {rate_ppm:+} ppm")
                }
            }
            Fault::Reconfigure {
                ttl_secs,
                stale_secs,
            } => format!("reconfigure serving: ttl={ttl_secs}s stale_window={stale_secs}s"),
        }
    }
}

/// A fault scheduled at a campaign step.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The step (0-based) the fault is applied at, before that step's
    /// workload runs.
    pub step: u64,
    /// The fault itself.
    pub fault: Fault,
}

/// Per-step probabilities of *starting* each fault category. Window
/// durations are sampled by the planner; an active window suppresses new
/// starts of the same category (and resolver incidents suppress each
/// other).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Start a link-degradation window.
    pub degrade: f64,
    /// Start a resolver partition.
    pub partition: f64,
    /// Start a kill/revive churn incident.
    pub churn: f64,
    /// Start a compromise/restore incident.
    pub compromise: f64,
    /// Start an off-path spoofer window.
    pub spoofer: f64,
    /// One-shot local clock step.
    pub clock_step: f64,
    /// One-shot simulated time jump.
    pub time_jump: f64,
    /// Start a simulated clock-drift window.
    pub drift: f64,
    /// One-shot retune of the serving knobs (TTL / stale window).
    pub reconfigure: f64,
}

impl FaultMix {
    /// The mixed-adversary default: every category enabled at rates that
    /// overlap link faults, resolver incidents, an off-path attacker and
    /// clock trouble within a thousand-step campaign.
    pub fn mixed() -> Self {
        FaultMix {
            degrade: 0.05,
            partition: 0.02,
            churn: 0.02,
            compromise: 0.02,
            spoofer: 0.02,
            clock_step: 0.01,
            time_jump: 0.005,
            drift: 0.01,
            reconfigure: 0.01,
        }
    }

    /// No faults at all — a control campaign exercising only the workload
    /// and the invariant monitor.
    pub fn calm() -> Self {
        FaultMix {
            degrade: 0.0,
            partition: 0.0,
            churn: 0.0,
            compromise: 0.0,
            spoofer: 0.0,
            clock_step: 0.0,
            time_jump: 0.0,
            drift: 0.0,
            reconfigure: 0.0,
        }
    }
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix::mixed()
    }
}

/// The complete, pre-computed fault schedule of a campaign.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates the schedule for a `steps`-step campaign over a
    /// `resolvers`-strong fleet. Deterministic: the same arguments always
    /// produce the same plan.
    pub fn generate(seed: u64, steps: u64, mix: &FaultMix, resolvers: usize) -> Self {
        let mut master = SimRng::seed_from_u64(seed ^ 0xC4A0_5000);
        // Independent streams per category, forked in fixed order, so the
        // schedule of one category never perturbs another's.
        let mut link_rng = master.fork("chaos-links");
        let mut incident_rng = master.fork("chaos-incidents");
        let mut spoofer_rng = master.fork("chaos-spoofer");
        let mut clock_rng = master.fork("chaos-clock");
        let mut reconfig_rng = master.fork("chaos-reconfig");

        let mut events = Vec::new();
        // Window-end faults pending at a future step; drained (in insertion
        // order) before new windows may start at that step.
        let mut pending: BTreeMap<u64, Vec<Fault>> = BTreeMap::new();
        let mut links_until: Option<u64> = None;
        let mut incident_until: Option<u64> = None;
        let mut spoofer_until: Option<u64> = None;
        let mut drift_until: Option<u64> = None;

        for step in 0..steps {
            if let Some(ends) = pending.remove(&step) {
                for fault in ends {
                    events.push(FaultEvent { step, fault });
                }
            }
            for until in [
                &mut links_until,
                &mut incident_until,
                &mut spoofer_until,
                &mut drift_until,
            ] {
                if until.is_some_and(|end| end <= step) {
                    *until = None;
                }
            }

            if links_until.is_none() && link_rng.chance(mix.degrade) {
                let loss = link_rng.range_u64(0, 3001) as f64 / 10_000.0;
                let duplicate = link_rng.range_u64(0, 3001) as f64 / 10_000.0;
                let reorder = link_rng.range_u64(0, 3001) as f64 / 10_000.0;
                let extra_latency_ms = link_rng.range_u64(0, 101);
                let end = step + link_rng.range_u64(3, 16);
                events.push(FaultEvent {
                    step,
                    fault: Fault::DegradeLinks {
                        loss,
                        duplicate,
                        reorder,
                        extra_latency_ms,
                    },
                });
                pending.entry(end).or_default().push(Fault::HealLinks);
                links_until = Some(end);
            }

            if incident_until.is_none() && resolvers > 0 {
                // The draw is below `resolvers`, so it converts back.
                let bound = u64::try_from(resolvers).unwrap_or(u64::MAX);
                let index = usize::try_from(incident_rng.range_u64(0, bound)).unwrap_or(usize::MAX);
                let duration = incident_rng.range_u64(5, 41);
                let incident = if incident_rng.chance(mix.partition) {
                    Some((
                        Fault::PartitionResolver { index },
                        Fault::HealPartition { index },
                    ))
                } else if incident_rng.chance(mix.churn) {
                    Some((
                        Fault::KillResolver { index },
                        Fault::ReviveResolver { index },
                    ))
                } else if incident_rng.chance(mix.compromise) {
                    Some((
                        Fault::CompromiseResolver { index },
                        Fault::RestoreResolver { index },
                    ))
                } else {
                    None
                };
                if let Some((start, end_fault)) = incident {
                    let end = step + duration;
                    events.push(FaultEvent { step, fault: start });
                    pending.entry(end).or_default().push(end_fault);
                    incident_until = Some(end);
                }
            }

            if spoofer_until.is_none() && spoofer_rng.chance(mix.spoofer) {
                let attempts = u32::try_from(spoofer_rng.range_u64(32, 129)).unwrap_or(u32::MAX);
                let end = step + spoofer_rng.range_u64(20, 61);
                events.push(FaultEvent {
                    step,
                    fault: Fault::SpooferOn { attempts },
                });
                pending.entry(end).or_default().push(Fault::SpooferOff);
                spoofer_until = Some(end);
            }

            if clock_rng.chance(mix.clock_step) {
                let magnitude = clock_rng.range_u64(5, 21) as f64;
                let seconds = if clock_rng.chance(0.5) {
                    magnitude
                } else {
                    -magnitude
                };
                events.push(FaultEvent {
                    step,
                    fault: Fault::ClockStep { seconds },
                });
            }
            if clock_rng.chance(mix.time_jump) {
                let seconds = clock_rng.range_u64(30, 301);
                events.push(FaultEvent {
                    step,
                    fault: Fault::TimeJump { seconds },
                });
            }
            if drift_until.is_none() && clock_rng.chance(mix.drift) {
                let magnitude = i64::try_from(clock_rng.range_u64(100, 2001)).unwrap_or(i64::MAX);
                let rate_ppm = if clock_rng.chance(0.5) {
                    magnitude
                } else {
                    -magnitude
                };
                let end = step + clock_rng.range_u64(5, 31);
                events.push(FaultEvent {
                    step,
                    fault: Fault::ClockDrift { rate_ppm },
                });
                pending
                    .entry(end)
                    .or_default()
                    .push(Fault::ClockDrift { rate_ppm: 0 });
                drift_until = Some(end);
            }
            if reconfig_rng.chance(mix.reconfigure) {
                // One-shot retunes; horizons from a 5 s hard TTL to
                // a 10 s TTL with a two-minute stale tail.
                let ttl_secs = reconfig_rng.range_u64(5, 121);
                let stale_secs = reconfig_rng.range_u64(0, 121);
                events.push(FaultEvent {
                    step,
                    fault: Fault::Reconfigure {
                        ttl_secs,
                        stale_secs,
                    },
                });
            }
        }

        FaultPlan { events }
    }

    /// Pins an extra fault into the schedule (stable-sorted by step, after
    /// any generated fault of the same step).
    pub fn push(&mut self, step: u64, fault: Fault) {
        self.events.push(FaultEvent { step, fault });
        self.events.sort_by_key(|event| event.step);
    }

    /// The scheduled events, ordered by step (ends of a step's expiring
    /// windows before that step's new starts).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(11, 500, &FaultMix::mixed(), 3);
        let b = FaultPlan::generate(11, 500, &FaultMix::mixed(), 3);
        assert_eq!(a.events(), b.events());
        assert!(!a.is_empty());
        let c = FaultPlan::generate(12, 500, &FaultMix::mixed(), 3);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn calm_mix_schedules_nothing() {
        let plan = FaultPlan::generate(1, 1000, &FaultMix::calm(), 3);
        assert!(plan.is_empty());
    }

    #[test]
    fn windows_are_paired_and_incidents_never_overlap() {
        let plan = FaultPlan::generate(7, 2000, &FaultMix::mixed(), 3);
        let mut open_incidents: i64 = 0;
        let mut starts = 0u64;
        let mut ends = 0u64;
        for event in plan.events() {
            match event.fault {
                Fault::PartitionResolver { .. }
                | Fault::KillResolver { .. }
                | Fault::CompromiseResolver { .. } => {
                    starts += 1;
                    open_incidents += 1;
                    assert!(
                        open_incidents <= 1,
                        "two resolver incidents overlap at step {}",
                        event.step
                    );
                }
                Fault::HealPartition { .. }
                | Fault::ReviveResolver { .. }
                | Fault::RestoreResolver { .. } => {
                    ends += 1;
                    open_incidents -= 1;
                }
                _ => {}
            }
        }
        assert!(starts > 0, "mixed plan should schedule resolver incidents");
        // Every incident that ends within the horizon was opened before it.
        assert!(ends <= starts);
        assert!(starts - ends <= 1);
    }

    #[test]
    fn mixed_plan_covers_every_category() {
        let mut counts = BTreeMap::new();
        for event in FaultPlan::generate(42, 2000, &FaultMix::mixed(), 3).events() {
            *counts.entry(event.fault.label()).or_insert(0u64) += 1;
        }
        for label in [
            "degrade_links",
            "heal_links",
            "spoofer_on",
            "clock_step",
            "time_jump",
            "clock_drift",
            "reconfigure",
        ] {
            assert!(counts.contains_key(label), "missing {label}: {counts:?}");
        }
        let incidents = counts.get("partition_resolver").copied().unwrap_or(0)
            + counts.get("kill_resolver").copied().unwrap_or(0)
            + counts.get("compromise_resolver").copied().unwrap_or(0);
        assert!(incidents > 0, "no resolver incidents scheduled: {counts:?}");
    }

    #[test]
    fn push_pins_extra_faults_in_step_order() {
        let mut plan = FaultPlan::generate(3, 100, &FaultMix::mixed(), 3);
        plan.push(0, Fault::SpooferOn { attempts: 64 });
        assert!(plan
            .events()
            .windows(2)
            .all(|pair| pair[0].step <= pair[1].step));
        assert!(plan
            .events()
            .iter()
            .any(|event| event.step == 0 && event.fault == Fault::SpooferOn { attempts: 64 }));
    }
}
