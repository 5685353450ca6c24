//! The invariant monitor: what a campaign checks after every step.
//!
//! The monitor owns the campaign ledger (queries issued / answered / lost
//! / denied, synchronizations, guarantee checks) and turns any breach of
//! the stack's safety properties into a recorded [`Violation`]:
//!
//! * **pool guarantee** — no served or synchronized-over pool may fail
//!   [`sdoh_core::check_guarantee`] against ground truth
//!   (`x = 1/2`), and a `NoError` answer with an empty address set counts
//!   as a breach too (an empty pool can never satisfy the guarantee);
//! * **clock discipline** — after every successful synchronization the
//!   local clock's `|offset_from_true|` must stay within the configured
//!   bound;
//! * **counter monotonicity** — neither the serving stack's
//!   [`ServeSnapshot`] counters nor the network's [`Metrics`] may ever
//!   decrease between successive observations;
//! * **cache age** — no live (non-dead) cache entry may be older than
//!   `TTL + stale window`;
//! * **accounting** — every issued query is answered, denied or lost:
//!   nothing vanishes and nothing is double-counted.
//!
//! Violations are counted exactly but only the first
//! [`MAX_RECORDED_VIOLATIONS`] are recorded in detail, keeping reports
//! bounded (and byte-identical) even when a weak stack fails thousands of
//! checks.

use sdoh_core::serve::{CacheEntryProbe, EntryState, ServeSnapshot};
use sdoh_core::{check_guarantee, AddressPool, GroundTruth};
use sdoh_netsim::Metrics;

/// Cap on violations recorded in detail (total counts stay exact).
pub const MAX_RECORDED_VIOLATIONS: usize = 100;

/// One invariant breach observed during a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The step the breach was observed at.
    pub step: u64,
    /// The invariant that failed.
    pub invariant: &'static str,
    /// Human-readable detail (what was observed, where).
    pub detail: String,
}

/// Tracks the campaign ledger and evaluates every invariant.
#[derive(Debug)]
pub struct InvariantMonitor {
    /// Bound on `|offset_from_true|` after a successful synchronization,
    /// in seconds.
    pub offset_bound: f64,
    /// Queries issued by the workload.
    pub queries_issued: u64,
    /// Queries answered with a `NoError` response.
    pub queries_answered: u64,
    /// Queries denied by the stack (error response codes).
    pub queries_denied: u64,
    /// Queries lost to the network (timeouts, partitions, dead services).
    pub queries_lost: u64,
    /// Guarantee checks evaluated.
    pub guarantee_checks: u64,
    /// Synchronization attempts.
    pub syncs: u64,
    /// Synchronization attempts that returned an error (the clock was left
    /// untouched — degraded availability, not a safety breach).
    pub sync_failures: u64,
    /// Largest `|offset_from_true|` seen right after a successful
    /// synchronization.
    pub max_abs_offset_after_sync: f64,
    violations: Vec<Violation>,
    total_violations: u64,
    last_snapshot: Option<ServeSnapshot>,
    last_net_metrics: Option<Metrics>,
    violations_counter: Option<sdoh_metrics::Counter>,
}

impl InvariantMonitor {
    /// Creates a monitor enforcing the given post-sync offset bound.
    pub fn new(offset_bound: f64) -> Self {
        InvariantMonitor {
            offset_bound,
            queries_issued: 0,
            queries_answered: 0,
            queries_denied: 0,
            queries_lost: 0,
            guarantee_checks: 0,
            syncs: 0,
            sync_failures: 0,
            max_abs_offset_after_sync: 0.0,
            violations: Vec::new(),
            total_violations: 0,
            last_snapshot: None,
            last_net_metrics: None,
            violations_counter: None,
        }
    }

    /// Registers the monitor's breach counter into `registry`: every
    /// recorded violation also bumps `sdoh_invariant_violations_total`, so
    /// a chaos campaign's safety breaches surface on the same `/metrics`
    /// endpoint as the serving counters.
    pub fn register_metrics(&mut self, registry: &sdoh_metrics::Registry) {
        let (name, help) = sdoh_core::METRIC_INVARIANT_VIOLATIONS;
        self.violations_counter = Some(registry.counter(name, help));
    }

    /// Records a breach (counted always, detailed up to the cap).
    pub fn record_violation(&mut self, step: u64, invariant: &'static str, detail: String) {
        self.total_violations += 1;
        if let Some(counter) = &self.violations_counter {
            counter.inc();
        }
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(Violation {
                step,
                invariant,
                detail,
            });
        }
    }

    /// Checks a pool against ground truth (`x = 1/2`); an empty pool or a
    /// failing guarantee is a breach. Returns whether the check held.
    pub fn check_pool(
        &mut self,
        step: u64,
        pool: &AddressPool,
        truth: &GroundTruth,
        context: &str,
    ) -> bool {
        self.guarantee_checks += 1;
        let check = check_guarantee(pool, truth, 0.5);
        if !check.holds {
            self.record_violation(
                step,
                "pool_guarantee",
                format!(
                    "{context}: benign fraction {:.4} over {} addresses fails x=1/2",
                    check.benign_fraction,
                    pool.len()
                ),
            );
        }
        check.holds
    }

    /// Checks the post-sync clock offset against the bound.
    pub fn check_offset(&mut self, step: u64, offset: f64) {
        if offset.abs() > self.max_abs_offset_after_sync {
            self.max_abs_offset_after_sync = offset.abs();
        }
        if offset.abs() > self.offset_bound {
            self.record_violation(
                step,
                "clock_offset",
                format!(
                    "offset_from_true {offset:+.6}s exceeds bound {:.3}s after sync",
                    self.offset_bound
                ),
            );
        }
    }

    /// Checks serving-stack counter monotonicity against the previous
    /// snapshot.
    pub fn check_snapshot(&mut self, step: u64, snapshot: ServeSnapshot) {
        if let Some(earlier) = &self.last_snapshot {
            for name in snapshot.regressions(earlier) {
                self.record_violation(
                    step,
                    "serve_counter_regression",
                    format!("monotone counter {name} decreased"),
                );
            }
        }
        self.last_snapshot = Some(snapshot);
    }

    /// Checks network-metrics monotonicity against the previous reading.
    pub fn check_net_metrics(&mut self, step: u64, metrics: Metrics) {
        if let Some(mut earlier) = self.last_net_metrics {
            let mut now = metrics;
            for (name, field) in Metrics::COUNTERS {
                let (before, after) = (*field(&mut earlier), *field(&mut now));
                if after < before {
                    self.record_violation(
                        step,
                        "net_counter_regression",
                        format!("monotone counter {name} decreased ({before} -> {after})"),
                    );
                }
            }
        }
        self.last_net_metrics = Some(metrics);
    }

    /// Checks that no live cache entry exceeds `TTL + stale window` in age.
    pub fn check_cache_ages(
        &mut self,
        step: u64,
        probes: &[CacheEntryProbe],
        max_age: std::time::Duration,
    ) {
        for probe in probes {
            if probe.state != EntryState::Dead && probe.age > max_age {
                self.record_violation(
                    step,
                    "cache_entry_overage",
                    format!(
                        "{} ({:?}) is {:?} old, past the {:?} serve horizon",
                        probe.key, probe.state, probe.age, max_age
                    ),
                );
            }
        }
    }

    /// Checks the workload ledger: issued = answered + denied + lost.
    pub fn check_accounting(&mut self, step: u64) {
        let accounted = self.queries_answered + self.queries_denied + self.queries_lost;
        if accounted != self.queries_issued {
            self.record_violation(
                step,
                "workload_accounting",
                format!(
                    "issued {} != answered {} + denied {} + lost {}",
                    self.queries_issued,
                    self.queries_answered,
                    self.queries_denied,
                    self.queries_lost
                ),
            );
        }
    }

    /// The recorded violations (first [`MAX_RECORDED_VIOLATIONS`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Exact number of breaches observed.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Whether the campaign is clean so far.
    pub fn ready(&self) -> bool {
        self.total_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use std::net::IpAddr;

    use super::*;

    fn pool_of(addrs: &[[u8; 4]]) -> AddressPool {
        let mut pool = AddressPool::new();
        for a in addrs {
            pool.push(
                IpAddr::V4(std::net::Ipv4Addr::new(a[0], a[1], a[2], a[3])),
                "test",
            );
        }
        pool
    }

    #[test]
    fn guarantee_and_offset_checks_record_violations() {
        let mut monitor = InvariantMonitor::new(1.0);
        let truth = GroundTruth::with_malicious([IpAddr::V4(std::net::Ipv4Addr::new(9, 9, 9, 9))]);
        assert!(monitor.check_pool(1, &pool_of(&[[1, 1, 1, 1], [2, 2, 2, 2]]), &truth, "good"));
        assert!(!monitor.check_pool(2, &pool_of(&[[9, 9, 9, 9]]), &truth, "bad"));
        monitor.check_offset(3, 0.05);
        monitor.check_offset(4, -1000.25);
        assert_eq!(monitor.total_violations(), 2);
        assert_eq!(monitor.violations()[0].invariant, "pool_guarantee");
        assert_eq!(monitor.violations()[1].invariant, "clock_offset");
        assert!((monitor.max_abs_offset_after_sync - 1000.25).abs() < 1e-9);
        assert!(!monitor.ready());
    }

    #[test]
    fn empty_pool_fails_the_guarantee() {
        let mut monitor = InvariantMonitor::new(1.0);
        let truth = GroundTruth::default();
        assert!(!monitor.check_pool(0, &AddressPool::new(), &truth, "empty"));
    }

    #[test]
    fn net_metric_regressions_are_caught() {
        let mut monitor = InvariantMonitor::new(1.0);
        let mut metrics = Metrics::new();
        metrics.requests = 10;
        metrics.responses = 8;
        monitor.check_net_metrics(1, metrics);
        let mut later = metrics;
        later.responses = 7;
        monitor.check_net_metrics(2, later);
        assert_eq!(monitor.total_violations(), 1);
        assert_eq!(monitor.violations()[0].invariant, "net_counter_regression");
    }

    #[test]
    fn lowering_one_net_counter_names_exactly_that_counter() {
        let mut metrics = Metrics::new();
        for (value, (_, field)) in (1..).zip(Metrics::COUNTERS) {
            *field(&mut metrics) = value;
        }
        for (name, field) in Metrics::COUNTERS {
            let mut monitor = InvariantMonitor::new(1.0);
            monitor.check_net_metrics(1, metrics);
            let mut lowered = metrics;
            *field(&mut lowered) -= 1;
            monitor.check_net_metrics(2, lowered);
            assert_eq!(monitor.total_violations(), 1, "{name}");
            let detail = &monitor.violations()[0].detail;
            assert!(
                detail.starts_with(&format!("monotone counter {name} ")),
                "{detail}"
            );
        }
    }

    #[test]
    fn accounting_mismatch_is_a_violation() {
        let mut monitor = InvariantMonitor::new(1.0);
        monitor.queries_issued = 5;
        monitor.queries_answered = 3;
        monitor.queries_lost = 1;
        monitor.check_accounting(9);
        assert_eq!(monitor.total_violations(), 1);
        monitor.queries_denied = 1;
        monitor.check_accounting(10);
        assert_eq!(monitor.total_violations(), 1);
    }

    #[test]
    fn registered_counter_mirrors_total_violations() {
        let registry = sdoh_metrics::Registry::new();
        let mut monitor = InvariantMonitor::new(1.0);
        monitor.register_metrics(&registry);
        assert!(registry.lint().is_empty(), "violation counter carries help");
        monitor.record_violation(1, "pool_guarantee", "first".to_string());
        monitor.check_offset(2, 99.0);
        let exported = registry
            .gather()
            .into_iter()
            .find(|s| s.name == "sdoh_invariant_violations_total")
            .expect("counter exported");
        assert_eq!(
            exported.value,
            sdoh_metrics::SampleValue::Counter(monitor.total_violations())
        );
        assert_eq!(monitor.total_violations(), 2);
    }

    #[test]
    fn recorded_violations_are_capped_but_counted_exactly() {
        let mut monitor = InvariantMonitor::new(1.0);
        for step in 0..(MAX_RECORDED_VIOLATIONS as u64 + 50) {
            monitor.record_violation(step, "pool_guarantee", "overflow test".to_string());
        }
        assert_eq!(monitor.violations().len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(
            monitor.total_violations(),
            MAX_RECORDED_VIOLATIONS as u64 + 50
        );
    }
}
