//! Acceptance campaigns: the hardened stack survives a thousand-step
//! mixed-adversary schedule with zero invariant violations, the weak
//! baseline fails the same schedule (proving the monitor detects real
//! breaches), and reports are byte-identical across re-runs of the same
//! seed.

use sdoh_chaos::{run_campaign, CampaignConfig};

/// The headline campaign: loss, duplication, reordering, latency spikes,
/// partitions, resolver churn and compromise, clock steps, time jumps,
/// drift — plus a persistent off-path spoofer racing every plain
/// pool-zone query from step 0.
fn mixed_adversary(seed: u64, steps: u64) -> CampaignConfig {
    CampaignConfig::hardened(seed, steps).with_persistent_spoofer(64)
}

#[test]
fn hardened_stack_survives_mixed_adversary_campaign() {
    let report = run_campaign(&mixed_adversary(42, 1000)).unwrap();
    assert!(
        report.ready,
        "hardened stack violated invariants: {:?}",
        report.violations
    );
    assert_eq!(report.total_violations, 0);
    assert_eq!(report.steps, 1000);
    assert_eq!(report.queries_issued, 2000);
    assert_eq!(
        report.queries_answered + report.queries_denied + report.queries_lost,
        report.queries_issued
    );
    // The campaign must actually have been adversarial: every fault
    // category applied, and the workload mostly survived it.
    for label in [
        "degrade_links",
        "heal_links",
        "spoofer_on",
        "clock_step",
        "time_jump",
        "clock_drift",
    ] {
        assert!(
            report.faults_applied.contains_key(label),
            "campaign never applied {label}: {:?}",
            report.faults_applied
        );
    }
    let incidents = ["partition_resolver", "kill_resolver", "compromise_resolver"]
        .iter()
        .filter_map(|label| report.faults_applied.get(label))
        .sum::<u64>();
    assert!(
        incidents > 0,
        "campaign never disturbed a resolver: {:?}",
        report.faults_applied
    );
    assert!(report.syncs >= 40);
    assert!(report.max_abs_offset_after_sync < 1.0);
    assert!(report.queries_answered > report.queries_issued / 2);
}

#[test]
fn weak_baseline_fails_the_same_campaign() {
    let mut config = mixed_adversary(42, 1000);
    config.stack = sdoh_chaos::StackKind::WeakBaseline;
    let report = run_campaign(&config).unwrap();
    assert!(
        !report.ready,
        "the predictable-id baseline should be poisoned by the spoofer"
    );
    assert!(report.total_violations >= 1);
    let has_integrity_breach = report.violations.iter().any(|violation| {
        violation.invariant == "pool_guarantee" || violation.invariant == "clock_offset"
    });
    assert!(
        has_integrity_breach,
        "expected a guarantee or offset violation, got: {:?}",
        report.violations
    );
}

#[test]
fn same_seed_reproduces_reports_byte_for_byte() {
    let config = mixed_adversary(7, 300);
    let first = run_campaign(&config).unwrap();
    let second = run_campaign(&config).unwrap();
    assert_eq!(first.to_json("test"), second.to_json("test"));
    assert_eq!(first.trace_text(), second.trace_text());

    let different = run_campaign(&mixed_adversary(8, 300)).unwrap();
    assert_ne!(first.trace_text(), different.trace_text());
}
