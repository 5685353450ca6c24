//! E18: hot reconfiguration blackout window — a loopback runtime under
//! client load takes a config delta, a 4 -> 8 shard grow and an 8 -> 4
//! shrink, and the worst in-flight latency of each transition is
//! reconstructed from the clients' timestamps.
//!
//! Usage: `exp_reconfig [--smoke] [--out PATH]`
//!
//! `--smoke` runs the reduced-scale configuration CI uses; `--out`
//! writes the measurement as a `BENCH_reconfig.json`-shaped file. The
//! run *asserts* the claims (zero dropped queries, three observable
//! epochs, widest blackout within the 500 ms budget) and aborts on any
//! violation.

use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (clients, settle) = if smoke {
        (3, Duration::from_millis(250))
    } else {
        (6, Duration::from_millis(600))
    };
    let (table, report) = sdoh_bench::reconfig::run(clients, settle, 18);
    println!("{table}");

    if let Some(path) = out {
        let notes = format!(
            "E18 blackout window under {} clients with {} ms steady load around each \
             transition ({}); {} queries, {} dropped, final epoch {}. Widest in-flight \
             latency across apply + grow + shrink: {:.0} us against a {:.0} ms \
             budget; steady-state p99 {:.0} us.",
            report.clients,
            settle.as_millis(),
            if smoke { "smoke scale" } else { "full scale" },
            report.queries_sent,
            report.dropped_queries,
            report.final_epoch,
            report.widest_blackout_us,
            report.blackout_budget_ms,
            report.baseline_p99_us
        );
        let json = sdoh_bench::reconfig::to_json(&report, &today(), &notes);
        std::fs::write(&path, json).expect("write BENCH json");
        println!("wrote {path}");
    }
}

/// Date stamp for the JSON record; overridable for reproducible output.
fn today() -> String {
    std::env::var("BENCH_RECORDED_DATE").unwrap_or_else(|_| "unrecorded".to_string())
}
