//! E15: deterministic chaos campaigns over the serve + timesync stack.
//!
//! Two campaigns run over the *same* seeded fault schedule — every
//! category of the mixed-adversary fault vocabulary (loss, duplication,
//! reordering, latency spikes, partitions, resolver churn and
//! compromise, clock steps, time jumps, drift) plus a persistent
//! off-path birthday spoofer from step 0:
//!
//! * the **hardened** stack (full off-path defenses, caching consensus
//!   front end, `SecureTimeClient` + Chronos) must finish with **zero**
//!   invariant violations;
//! * the **weak baseline** (predictable-id ISP resolver, single-resolver
//!   pool) must get poisoned, and the invariant monitor must record the
//!   guarantee and clock-offset breaches — proving the monitor detects
//!   real failures rather than vacuously passing.
//!
//! The hardened campaign also re-runs under the same seed as a
//! determinism self-check: both runs must render byte-identical reports.

use sdoh_analysis::Table;
use sdoh_chaos::{run_campaign, CampaignConfig, ChaosReport, StackKind};

/// Steps of the full campaign.
pub const FULL_STEPS: u64 = 1500;
/// Steps of the CI smoke campaign.
pub const SMOKE_STEPS: u64 = 120;
/// Forged responses the persistent spoofer races per plain query.
pub const SPOOFER_ATTEMPTS: u32 = 64;

/// The campaign configuration E15 runs for a stack.
pub fn campaign_config(stack: StackKind, seed: u64, steps: u64) -> CampaignConfig {
    let mut config =
        CampaignConfig::hardened(seed, steps).with_persistent_spoofer(SPOOFER_ATTEMPTS);
    config.stack = stack;
    config
}

/// Outcome of one E15 run: the two campaign reports plus whether the
/// hardened re-run reproduced its report byte-for-byte.
pub struct ChaosOutcome {
    /// Hardened-stack report.
    pub hardened: ChaosReport,
    /// Weak-baseline report over the same schedule.
    pub weak: ChaosReport,
    /// Whether two hardened runs of the same seed rendered identical
    /// reports and traces.
    pub deterministic: bool,
}

/// Runs both campaigns plus the determinism self-check and tabulates.
pub fn run(seed: u64, steps: u64) -> (Table, ChaosOutcome) {
    let hardened_config = campaign_config(StackKind::Hardened, seed, steps);
    let campaign = |config: &CampaignConfig| {
        run_campaign(config).expect("the E15 campaigns are configured validly")
    };
    let hardened = campaign(&hardened_config);
    let replay = campaign(&hardened_config);
    let deterministic = hardened.to_json("determinism-check")
        == replay.to_json("determinism-check")
        && hardened.trace_text() == replay.trace_text();
    let weak = campaign(&campaign_config(StackKind::WeakBaseline, seed, steps));

    let mut table = Table::new(
        format!("E15: chaos campaigns, seed {seed}, {steps} steps"),
        &[
            "stack",
            "answered/issued",
            "denied",
            "lost",
            "syncs (failed)",
            "pool refreshes",
            "max |offset| (s)",
            "faults",
            "violations",
            "ready",
        ],
    );
    for report in [&hardened, &weak] {
        table.push_row([
            report.stack.clone(),
            format!("{}/{}", report.queries_answered, report.queries_issued),
            report.queries_denied.to_string(),
            report.queries_lost.to_string(),
            format!("{} ({})", report.syncs, report.sync_failures),
            report.pool_refreshes.to_string(),
            format!("{:.4}", report.max_abs_offset_after_sync),
            report.faults_applied.values().sum::<u64>().to_string(),
            report.total_violations.to_string(),
            report.ready.to_string(),
        ]);
    }
    (
        table,
        ChaosOutcome {
            hardened,
            weak,
            deterministic,
        },
    )
}

/// Renders the outcome as the body of a `BENCH_chaos.json` document (the
/// members after the runner's header); each campaign carries `recorded`.
pub fn report_body(outcome: &ChaosOutcome, recorded: &str) -> String {
    let mut out = format!("  \"deterministic\": {},\n", outcome.deterministic);
    out.push_str("  \"campaigns\": [\n");
    for (i, report) in [&outcome.hardened, &outcome.weak].into_iter().enumerate() {
        let body = report.to_json(recorded);
        for (j, line) in body.lines().enumerate() {
            if j == 0 {
                out.push_str("    {\n");
            } else if line == "}" {
                out.push_str(&format!("    }}{}\n", if i == 0 { "," } else { "" }));
            } else {
                out.push_str(&format!("    {line}\n"));
            }
        }
    }
    out.push_str("  ]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaigns_meet_the_acceptance_criteria() {
        let (_, outcome) = run(42, SMOKE_STEPS);
        assert!(outcome.deterministic);
        assert!(
            outcome.hardened.ready,
            "hardened violations: {:?}",
            outcome.hardened.violations
        );
        assert!(
            !outcome.weak.ready,
            "weak baseline should be poisoned by the persistent spoofer"
        );
        assert!(outcome.weak.violations.iter().any(|violation| {
            violation.invariant == "pool_guarantee" || violation.invariant == "clock_offset"
        }));
    }

    #[test]
    fn json_document_is_balanced_and_labelled() {
        let (_, outcome) = run(5, 40);
        let body = report_body(&outcome, "test");
        let json = crate::runner::envelope("chaos", "test", "notes", &body);
        assert!(crate::runner::well_formed(&json), "{json}");
        assert!(json.contains("\"stack\": \"hardened\""));
        assert!(json.contains("\"stack\": \"weak-baseline\""));
    }
}
