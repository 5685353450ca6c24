//! The campaign runner: drive the serve + timesync stack through a seeded
//! fault schedule and evaluate every invariant after every step.
//!
//! A campaign wires up the full Figure 1 scenario (DNS hierarchy, DoH
//! resolver fleet, ISP resolver, NTP fleet), picks a stack under test
//! ([`StackKind`]), pre-computes a [`FaultPlan`] and then runs
//! `steps` one-second steps. Each step applies the faults due at it,
//! advances simulated time, issues client lookups, periodically runs a
//! secure time synchronization, pumps the serving stack's background
//! refreshes and evaluates the [`InvariantMonitor`]. The outcome is a
//! [`ChaosReport`] that is byte-identical for the same
//! [`CampaignConfig`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sdoh_core::{CacheConfig, CachingPoolResolver, PoolConfig};
use sdoh_dns_server::{HardeningConfig, ResolveError, StubResolver};
use sdoh_dns_wire::Ttl;
use sdoh_netsim::LinkConfig;
use sdoh_ntp::{
    ChronosClient, ChronosConfig, ConsensusFrontEnd, LocalClock, NtpClient, SecureTimeClient,
    SingleResolverPool,
};
use secure_doh::scenario::{
    address_pool, KaminskyPayload, NtpFleetConfig, ResolverCompromise, Scenario, ScenarioConfig,
    CLIENT_ADDR, FRONTEND_ADDR, ISP_RESOLVER,
};

use crate::fault::{Fault, FaultEvent, FaultMix, FaultPlan};
use crate::monitor::InvariantMonitor;
use crate::report::{ChaosReport, TraceEvent};

/// Wall-clock length of one campaign step.
const STEP_DURATION: Duration = Duration::from_secs(1);

/// Attacker addresses a compromised resolver appends to its honest
/// answer. Kept below the honest pool size so that even a worst-case
/// generation answered by the compromised resolver alone stays far from
/// the `x = 1/2` guarantee boundary.
const INFLATE_ADDRESSES: usize = 4;

/// The stack a campaign exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// The paper's pipeline: fully hardened resolvers, the caching
    /// consensus front end serving clients, and a [`SecureTimeClient`]
    /// synchronizing through it. Expected to survive a mixed-adversary
    /// campaign with zero violations.
    Hardened,
    /// The vulnerable baseline: a single plain-DNS ISP resolver with
    /// predictable transaction ids serving both lookups and the time
    /// client's pool. Expected to *fail* under an off-path spoofer — the
    /// campaign demonstrates that the monitor detects real breaches.
    WeakBaseline,
}

impl StackKind {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            StackKind::Hardened => "hardened",
            StackKind::WeakBaseline => "weak-baseline",
        }
    }
}

/// The client workload a campaign applies between faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Pool lookups issued per step (spread round-robin over the
    /// scenario's pool domains).
    pub clients_per_step: u32,
    /// Steps between secure time synchronizations.
    pub sync_interval: u64,
    /// Bound on `|offset_from_true|` right after a successful sync,
    /// seconds.
    pub offset_bound: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            clients_per_step: 2,
            sync_interval: 25,
            offset_bound: 1.0,
        }
    }
}

/// Everything a campaign depends on. Two identical configs produce
/// byte-identical reports.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed for the scenario, the fault plan and every random
    /// choice in between.
    pub seed: u64,
    /// Number of one-second steps to run.
    pub steps: u64,
    /// The stack under test.
    pub stack: StackKind,
    /// Per-step fault start probabilities.
    pub fault_mix: FaultMix,
    /// The client workload.
    pub workload: WorkloadConfig,
    /// Extra faults pinned on top of the generated plan (e.g. a
    /// persistent spoofer from step 0).
    pub pinned_faults: Vec<FaultEvent>,
    /// DoH resolvers in the fleet.
    pub resolvers: usize,
    /// Benign NTP servers published in the pool domains.
    pub ntp_servers: usize,
    /// Pool domains the workload spreads lookups over.
    pub pool_domains: usize,
}

impl CampaignConfig {
    /// A mixed-adversary campaign against the hardened stack.
    pub fn hardened(seed: u64, steps: u64) -> Self {
        CampaignConfig {
            seed,
            steps,
            stack: StackKind::Hardened,
            fault_mix: FaultMix::mixed(),
            workload: WorkloadConfig::default(),
            pinned_faults: Vec::new(),
            resolvers: 3,
            ntp_servers: 16,
            pool_domains: 2,
        }
    }

    /// Pins a persistent off-path spoofer racing every plain pool-zone
    /// query from step 0 for the whole campaign.
    pub fn with_persistent_spoofer(mut self, attempts: u32) -> Self {
        self.pinned_faults.push(FaultEvent {
            step: 0,
            fault: Fault::SpooferOn { attempts },
        });
        self
    }
}

/// Runs one campaign to completion and reports.
///
/// # Errors
///
/// Returns the configuration error when the serving front end or the
/// Chronos client cannot be built (no resolvers, say).
pub fn run_campaign(config: &CampaignConfig) -> Result<ChaosReport, Box<dyn std::error::Error>> {
    let baseline_link = LinkConfig::default();
    let isp_hardening = match config.stack {
        StackKind::Hardened => HardeningConfig::default(),
        StackKind::WeakBaseline => HardeningConfig::predictable_ids(),
    };
    let mut scenario = Scenario::build(ScenarioConfig {
        seed: config.seed,
        resolvers: config.resolvers,
        ntp_servers: config.ntp_servers,
        pool_domains: config.pool_domains,
        compromised: Vec::new(),
        attacker_time_shift: 1000.0,
        link_latency: baseline_link.latency,
        isp_hardening,
    });
    scenario.install_ntp_fleet(NtpFleetConfig::default());

    let cache_config = CacheConfig::default();
    // Widened by every Reconfigure fault: a served entry may be as old as
    // the *maximum* TTL + stale horizon any applied config allowed.
    let mut max_cache_age = cache_config.ttl.as_duration() + cache_config.stale_window;
    let frontend: Option<Arc<Mutex<CachingPoolResolver>>> = match config.stack {
        StackKind::Hardened => {
            Some(scenario.install_caching_frontend(PoolConfig::algorithm1(), cache_config)?)
        }
        StackKind::WeakBaseline => None,
    };

    let chronos = ChronosClient::new(
        ChronosConfig::default(),
        NtpClient::new(CLIENT_ADDR.with_port(123)),
        config.seed ^ 0xC105_0C4A,
    )?;
    let mut time_client = match &frontend {
        Some(frontend) => SecureTimeClient::new(
            Box::new(ConsensusFrontEnd::new(Arc::clone(frontend))),
            scenario.pool_domain().clone(),
            chronos,
        ),
        None => SecureTimeClient::new(
            Box::new(SingleResolverPool::new(ISP_RESOLVER)),
            scenario.pool_domain().clone(),
            chronos,
        ),
    };
    let stub = match config.stack {
        StackKind::Hardened => StubResolver::new(FRONTEND_ADDR),
        StackKind::WeakBaseline => StubResolver::new(ISP_RESOLVER),
    };

    let mut plan = FaultPlan::generate(
        config.seed,
        config.steps,
        &config.fault_mix,
        config.resolvers,
    );
    for pinned in &config.pinned_faults {
        plan.push(pinned.step, pinned.fault.clone());
    }

    let truth = scenario.ground_truth();
    let mut exchanger = scenario.net.client(CLIENT_ADDR);
    let mut refresh_exchanger = scenario.net.client(FRONTEND_ADDR);
    let mut local_clock = LocalClock::new(scenario.net.clock(), 0.0);
    let mut monitor = InvariantMonitor::new(config.workload.offset_bound);
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut applied: BTreeMap<&'static str, u64> = BTreeMap::new();
    // The default link currently in force, so healing a partition restores
    // whatever (possibly degraded) link the rest of the fleet sees.
    let mut current_default = baseline_link;
    let mut traced_violations = 0usize;
    // The workload asks the pool domains in turn.
    let mut domains = scenario.fleet.domains.iter().cycle();

    let events = plan.events().to_vec();
    let mut next_event = 0usize;

    for step in 0..config.steps {
        while let Some(event) = events.get(next_event).filter(|event| event.step <= step) {
            let fault = event.fault.clone();
            apply_fault(
                &mut FaultContext {
                    scenario: &scenario,
                    local_clock: &mut local_clock,
                    current_default: &mut current_default,
                    inflate_addresses: INFLATE_ADDRESSES,
                    frontend: frontend.as_ref(),
                    max_cache_age: &mut max_cache_age,
                },
                &fault,
            );
            *applied.entry(fault.label()).or_insert(0) += 1;
            trace.push(TraceEvent {
                step,
                kind: "fault",
                detail: fault.describe(),
            });
            next_event += 1;
        }

        scenario.net.clock().advance(STEP_DURATION);

        for _ in 0..config.workload.clients_per_step {
            let Some(domain) = domains.next() else { break };
            monitor.queries_issued += 1;
            match stub.lookup_ipv4(&mut exchanger, domain) {
                Ok(addresses) => {
                    monitor.queries_answered += 1;
                    let pool = address_pool(&addresses, "served");
                    monitor.check_pool(step, &pool, &truth, &format!("served answer for {domain}"));
                }
                Err(ResolveError::ErrorResponse(_)) => monitor.queries_denied += 1,
                Err(_) => monitor.queries_lost += 1,
            }
        }

        if step % config.workload.sync_interval == 0 {
            monitor.syncs += 1;
            match time_client.sync(&scenario.net, &mut exchanger, &mut local_clock) {
                Ok(outcome) => {
                    let offset = local_clock.offset_from_true();
                    monitor.check_offset(step, offset);
                    let pool = address_pool(time_client.pool(), "timesync");
                    monitor.check_pool(step, &pool, &truth, "time-sync pool");
                    trace.push(TraceEvent {
                        step,
                        kind: "sync",
                        detail: format!(
                            "ok: offset {offset:+.6}s pool_size {} refreshed {}",
                            outcome.pool_size, outcome.pool_refreshed
                        ),
                    });
                }
                Err(error) => {
                    monitor.sync_failures += 1;
                    trace.push(TraceEvent {
                        step,
                        kind: "sync",
                        detail: format!("failed: {error}"),
                    });
                }
            }
        }

        if let Some(frontend) = &frontend {
            frontend.lock().run_due_refreshes(&mut refresh_exchanger);
            let guard = frontend.lock();
            monitor.check_snapshot(step, guard.snapshot());
            monitor.check_cache_ages(
                step,
                &guard.probe_entries(scenario.net.now()),
                max_cache_age,
            );
        }
        monitor.check_net_metrics(step, scenario.net.metrics());
        monitor.check_accounting(step);

        for violation in monitor.violations().get(traced_violations..).unwrap_or(&[]) {
            trace.push(TraceEvent {
                step,
                kind: "violation",
                detail: format!("{}: {}", violation.invariant, violation.detail),
            });
        }
        traced_violations = monitor.violations().len();
    }

    let ready = monitor.ready();
    Ok(ChaosReport {
        seed: config.seed,
        steps: config.steps,
        stack: config.stack.label().to_string(),
        queries_issued: monitor.queries_issued,
        queries_answered: monitor.queries_answered,
        queries_denied: monitor.queries_denied,
        queries_lost: monitor.queries_lost,
        guarantee_checks: monitor.guarantee_checks,
        syncs: monitor.syncs,
        sync_failures: monitor.sync_failures,
        pool_refreshes: time_client.pool_refreshes(),
        max_abs_offset_after_sync: monitor.max_abs_offset_after_sync,
        faults_applied: applied,
        total_violations: monitor.total_violations(),
        violations: monitor.violations().to_vec(),
        net: scenario.net.metrics(),
        trace,
        ready,
    })
}

/// The campaign state a fault may act on: the scenario's simulator
/// boundaries plus the knobs later faults must observe (the link currently
/// in force, the widened cache-age horizon).
struct FaultContext<'a> {
    scenario: &'a Scenario,
    local_clock: &'a mut LocalClock,
    current_default: &'a mut LinkConfig,
    inflate_addresses: usize,
    frontend: Option<&'a Arc<Mutex<CachingPoolResolver>>>,
    max_cache_age: &'a mut Duration,
}

/// Applies one fault to the running scenario through the simulator's own
/// boundaries (links, service registry, adversary slot, clocks, the front
/// end's serving knobs).
fn apply_fault(ctx: &mut FaultContext<'_>, fault: &Fault) {
    let scenario = ctx.scenario;
    match fault {
        Fault::DegradeLinks {
            loss,
            duplicate,
            reorder,
            extra_latency_ms,
        } => {
            let degraded = LinkConfig::with_latency(
                LinkConfig::default().latency + Duration::from_millis(*extra_latency_ms),
            )
            .jitter(LinkConfig::default().jitter)
            .loss(*loss)
            .duplicate(*duplicate)
            .reorder(*reorder, Duration::from_millis(50));
            scenario.net.set_default_link(degraded);
            *ctx.current_default = degraded;
        }
        Fault::HealLinks => {
            scenario.net.set_default_link(LinkConfig::default());
            *ctx.current_default = LinkConfig::default();
        }
        Fault::PartitionResolver { index } => {
            let resolver = scenario.resolver_addr(*index).ip;
            let blocked = LinkConfig::default().blocked();
            scenario.net.set_link(CLIENT_ADDR.ip, resolver, blocked);
            scenario.net.set_link(FRONTEND_ADDR.ip, resolver, blocked);
        }
        Fault::HealPartition { index } => {
            let resolver = scenario.resolver_addr(*index).ip;
            scenario
                .net
                .set_link(CLIENT_ADDR.ip, resolver, *ctx.current_default);
            scenario
                .net
                .set_link(FRONTEND_ADDR.ip, resolver, *ctx.current_default);
        }
        Fault::KillResolver { index } => {
            scenario.kill_resolver(*index);
        }
        Fault::ReviveResolver { index } | Fault::RestoreResolver { index } => {
            scenario.install_resolver(*index, None);
        }
        Fault::CompromiseResolver { index } => {
            // Answer inflation, the compromise Algorithm 1's truncation is
            // built to absorb: the honest prefix survives, the appended
            // attacker tail is cut. A wholesale answer replacement would
            // sit exactly on the x = 1/2 guarantee boundary (16 honest +
            // 16 attacker slots) where Chronos capture becomes possible —
            // a finding E13 records, not a chaos-campaign regression.
            scenario.install_resolver(
                *index,
                Some(&ResolverCompromise::InflateWithAttackerAddresses(
                    ctx.inflate_addresses,
                )),
            );
        }
        Fault::SpooferOn { attempts } => {
            scenario.net.set_adversary(
                scenario.kaminsky_adversary(*attempts, KaminskyPayload::DirectAnswer),
            );
        }
        Fault::SpooferOff => {
            scenario.net.clear_adversary();
        }
        Fault::ClockStep { seconds } => {
            ctx.local_clock.adjust(*seconds);
        }
        Fault::TimeJump { seconds } => {
            scenario.net.clock().step(Duration::from_secs(*seconds));
        }
        Fault::ClockDrift { rate_ppm } => {
            scenario.net.clock().set_drift(*rate_ppm as f64 * 1e-6);
        }
        Fault::Reconfigure {
            ttl_secs,
            stale_secs,
        } => {
            // Weak baseline: no serving cache to retune — a recorded no-op.
            if let Some(frontend) = ctx.frontend {
                let cache = CacheConfig::default()
                    .with_ttl(Ttl::from_secs(u32::try_from(*ttl_secs).unwrap_or(u32::MAX)))
                    .with_stale_window(Duration::from_secs(*stale_secs));
                frontend.lock().apply_config(cache, scenario.net.now());
                *ctx.max_cache_age =
                    (*ctx.max_cache_age).max(cache.ttl.as_duration() + cache.stale_window);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_labels_are_stable() {
        assert_eq!(StackKind::Hardened.label(), "hardened");
        assert_eq!(StackKind::WeakBaseline.label(), "weak-baseline");
    }

    #[test]
    fn calm_campaign_on_hardened_stack_is_clean() {
        let mut config = CampaignConfig::hardened(5, 60);
        config.fault_mix = FaultMix::calm();
        let report = run_campaign(&config).unwrap();
        assert!(report.ready, "violations: {:?}", report.violations);
        assert_eq!(report.total_violations, 0);
        assert_eq!(report.queries_issued, 120);
        assert_eq!(
            report.queries_answered + report.queries_denied + report.queries_lost,
            report.queries_issued
        );
        assert!(report.syncs >= 2);
        assert!(report.max_abs_offset_after_sync < 1.0);
        assert!(report.faults_applied.is_empty());
    }

    #[test]
    fn reconfigure_faults_keep_the_hardened_stack_clean() {
        // Epoch switches mid-campaign: cached entries survive, the age
        // bound widens to the maximum applied horizon, and the guarantee
        // monitor stays clean throughout.
        let mut config = CampaignConfig::hardened(21, 150);
        config.fault_mix = FaultMix::calm();
        config.fault_mix.reconfigure = 0.15;
        let report = run_campaign(&config).unwrap();
        assert!(report.ready, "violations: {:?}", report.violations);
        assert_eq!(report.total_violations, 0);
        let applied = report
            .faults_applied
            .get("reconfigure")
            .copied()
            .unwrap_or(0);
        assert!(applied > 0, "no reconfigure fault fired: {report:?}");
    }

    #[test]
    fn reconfigure_is_a_noop_on_the_weak_baseline() {
        // The weak baseline has no serving cache: the fault is applied
        // (and counted) but changes nothing, and the campaign still runs
        // to completion deterministically.
        let mut config = CampaignConfig {
            stack: StackKind::WeakBaseline,
            ..CampaignConfig::hardened(22, 80)
        };
        config.fault_mix = FaultMix::calm();
        config.fault_mix.reconfigure = 0.2;
        let first = run_campaign(&config).unwrap();
        let second = run_campaign(&config).unwrap();
        assert!(
            first
                .faults_applied
                .get("reconfigure")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert_eq!(first.queries_issued, second.queries_issued);
        assert_eq!(first.total_violations, second.total_violations);
        assert_eq!(first.trace.len(), second.trace.len());
    }

    #[test]
    fn persistent_spoofer_is_pinned_at_step_zero() {
        let config = CampaignConfig {
            stack: StackKind::WeakBaseline,
            ..CampaignConfig::hardened(9, 10)
        }
        .with_persistent_spoofer(64);
        assert_eq!(
            config.pinned_faults,
            vec![FaultEvent {
                step: 0,
                fault: Fault::SpooferOn { attempts: 64 },
            }]
        );
    }
}
