//! Machine-readable campaign reports and the event trace.
//!
//! A [`ChaosReport`] is the complete record of one campaign: the ledger,
//! the faults applied, every recorded violation and the append-ordered
//! event trace. Both renderings are deterministic — [`ChaosReport::to_json`]
//! and [`ChaosReport::trace_text`] are byte-identical across runs of the
//! same seed (fault counts live in a `BTreeMap`, floats are printed with
//! fixed precision, and nothing reads the host clock).

use std::collections::BTreeMap;

use sdoh_netsim::Metrics;

use crate::monitor::Violation;

/// One line of the campaign's append-ordered event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The step the event happened at.
    pub step: u64,
    /// Event category: `fault`, `sync` or `violation`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// The complete record of one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Campaign seed (reproduces the whole run).
    pub seed: u64,
    /// Steps executed.
    pub steps: u64,
    /// Stack label (`hardened` or `weak-baseline`).
    pub stack: String,
    /// Queries issued by the workload.
    pub queries_issued: u64,
    /// Queries answered successfully.
    pub queries_answered: u64,
    /// Queries denied with an error response.
    pub queries_denied: u64,
    /// Queries lost to the network.
    pub queries_lost: u64,
    /// Guarantee checks evaluated.
    pub guarantee_checks: u64,
    /// Synchronization attempts.
    pub syncs: u64,
    /// Failed synchronization attempts (clock untouched).
    pub sync_failures: u64,
    /// Pool re-pulls performed by the time client.
    pub pool_refreshes: u64,
    /// Largest `|offset_from_true|` right after a successful sync.
    pub max_abs_offset_after_sync: f64,
    /// Faults applied, counted per category label.
    pub faults_applied: BTreeMap<&'static str, u64>,
    /// Exact number of invariant breaches.
    pub total_violations: u64,
    /// Recorded breaches (capped at
    /// [`MAX_RECORDED_VIOLATIONS`](crate::monitor::MAX_RECORDED_VIOLATIONS)).
    pub violations: Vec<Violation>,
    /// Network counters at the end of the campaign.
    pub net: Metrics,
    /// Append-ordered event trace (faults, syncs, violations).
    pub trace: Vec<TraceEvent>,
    /// Readiness verdict: the campaign completed with zero violations.
    pub ready: bool,
}

impl ChaosReport {
    /// Renders the event trace as text, one line per event. Byte-identical
    /// for the same seed.
    pub fn trace_text(&self) -> String {
        let mut text = String::new();
        for event in &self.trace {
            text.push_str(&format!(
                "step {:06} {:<9} {}\n",
                event.step, event.kind, event.detail
            ));
        }
        text
    }

    /// Renders the report as a `BENCH_chaos.json`-shaped document.
    /// `recorded` is the date stamp (callers pass `BENCH_RECORDED_DATE` or
    /// `"unrecorded"` so the output stays reproducible).
    pub fn to_json(&self, recorded: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"recorded\": {},\n", json_string(recorded)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"steps\": {},\n", self.steps));
        out.push_str(&format!("  \"stack\": {},\n", json_string(&self.stack)));
        out.push_str("  \"workload\": {\n");
        out.push_str(&format!(
            "    \"queries_issued\": {},\n",
            self.queries_issued
        ));
        out.push_str(&format!(
            "    \"queries_answered\": {},\n",
            self.queries_answered
        ));
        out.push_str(&format!(
            "    \"queries_denied\": {},\n",
            self.queries_denied
        ));
        out.push_str(&format!("    \"queries_lost\": {},\n", self.queries_lost));
        out.push_str(&format!(
            "    \"guarantee_checks\": {},\n",
            self.guarantee_checks
        ));
        out.push_str(&format!("    \"syncs\": {},\n", self.syncs));
        out.push_str(&format!("    \"sync_failures\": {},\n", self.sync_failures));
        out.push_str(&format!(
            "    \"pool_refreshes\": {},\n",
            self.pool_refreshes
        ));
        out.push_str(&format!(
            "    \"max_abs_offset_after_sync\": {:.6}\n",
            self.max_abs_offset_after_sync
        ));
        out.push_str("  },\n");

        out.push_str("  \"faults_applied\": {");
        let mut first = true;
        for (label, count) in &self.faults_applied {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{label}\": {count}"));
        }
        if !self.faults_applied.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");

        out.push_str("  \"net\": {\n");
        out.push_str(&format!("    \"requests\": {},\n", self.net.requests));
        out.push_str(&format!("    \"responses\": {},\n", self.net.responses));
        out.push_str(&format!("    \"timeouts\": {},\n", self.net.timeouts));
        out.push_str(&format!(
            "    \"forged_responses\": {},\n",
            self.net.forged_responses
        ));
        out.push_str(&format!(
            "    \"duplicated_requests\": {},\n",
            self.net.duplicated_requests
        ));
        out.push_str(&format!(
            "    \"reordered_responses\": {}\n",
            self.net.reordered_responses
        ));
        out.push_str("  },\n");

        out.push_str(&format!(
            "  \"total_violations\": {},\n",
            self.total_violations
        ));
        out.push_str(&format!(
            "  \"recorded_violations\": {},\n",
            self.violations.len()
        ));
        out.push_str("  \"violations\": [");
        for (i, violation) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"step\": {}, \"invariant\": {}, \"detail\": {}}}",
                violation.step,
                json_string(violation.invariant),
                json_string(&violation.detail)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"trace_events\": {},\n", self.trace.len()));
        out.push_str(&format!("  \"ready\": {}\n", self.ready));
        out.push_str("}\n");
        out
    }
}

/// Escapes a string as a JSON string literal, quotes included: the one
/// escaper of the workspace's hand-written report writers (this crate's
/// and `sdoh-bench`'s report envelope).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ChaosReport {
        let mut faults = BTreeMap::new();
        faults.insert("degrade_links", 3);
        faults.insert("spoofer_on", 1);
        ChaosReport {
            seed: 42,
            steps: 100,
            stack: "hardened".to_string(),
            queries_issued: 200,
            queries_answered: 190,
            queries_denied: 4,
            queries_lost: 6,
            guarantee_checks: 194,
            syncs: 4,
            sync_failures: 1,
            pool_refreshes: 2,
            max_abs_offset_after_sync: 0.012345,
            faults_applied: faults,
            total_violations: 1,
            violations: vec![Violation {
                step: 17,
                invariant: "pool_guarantee",
                detail: "served \"bad\" pool".to_string(),
            }],
            net: Metrics::new(),
            trace: vec![
                TraceEvent {
                    step: 0,
                    kind: "fault",
                    detail: "spoofer on (64 attempts per query)".to_string(),
                },
                TraceEvent {
                    step: 17,
                    kind: "violation",
                    detail: "pool_guarantee".to_string(),
                },
            ],
            ready: false,
        }
    }

    #[test]
    fn json_is_well_formed_and_stable() {
        let report = sample_report();
        let a = report.to_json("2026-01-01");
        let b = report.to_json("2026-01-01");
        assert_eq!(a, b);
        assert!(a.contains("\"seed\": 42"));
        assert!(a.contains("\"degrade_links\": 3"));
        assert!(a.contains("\"ready\": false"));
        assert!(a.contains("\\\"bad\\\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn trace_text_is_one_line_per_event() {
        let report = sample_report();
        let text = report.trace_text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("step 000000 fault"));
        assert!(text.contains("step 000017 violation pool_guarantee"));
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
