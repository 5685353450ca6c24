//! The end-to-end run, tracing off: set-up, warm-up, then rounds of closed-
//! loop load. Each round has a latency half (one query in flight:
//! `p50_us`, `p90_us`) and a throughput half (`WINDOW` in flight: `qps`,
//! `server_cpu_us_per_query`). Every time is taken at reference host speed
//! (see `client::at_reference_speed`), every metric is computed per round
//! and reported as the median of the rounds.

use std::time::{Duration, Instant};

use crate::client::{at_reference_speed, Echo, Tally};
use crate::deploy::{Deployment, Ports};
use crate::procfs::peak_rss_mb;
use crate::stats::{median, percentile, Summary};
use crate::sys::process_cpu_ns;
use crate::workload::{Spec, Workload};

/// Set-up is repeated until it has taken this long in all (or a fiftieth of
/// a short run), at least `MIN_SETUPS` times (3 in a run under 10 s) and at
/// most `MAX_SETUPS`; `setup_s` is the median.
const SETUP_BUDGET: Duration = Duration::from_millis(400);
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;

/// A run has at least this many rounds, however short.
const MIN_ROUNDS: usize = 10;

/// Every end-to-end metric, in report order: `(name, unit, better)`.
/// `BENCHMARK.json` lists exactly these, each with its bound.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("qps", "1/s", "higher"),
    ("p50_us", "us", "lower"),
    ("p90_us", "us", "lower"),
    ("server_cpu_us_per_query", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn slices(name: &'static str, unit: &'static str, slices: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            summary: Summary::of(slices),
        }
    }

    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::slices(name, unit, vec![value])
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What the clock read before any scaling, and the scale: printed and
    /// kept in the detail file, not part of the result line.
    pub diagnostics: Vec<Metric>,
    /// Why `correct` is false, for people.
    pub problems: Vec<String>,
}

/// `count` per second over `ns`; 0 for a phase a stalled host left empty.
fn rate(count: u64, ns: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        count as f64 / (ns / 1e9)
    }
}

/// What one closed-loop phase measured: the client's tally with both sets
/// of round trips in ascending order.
pub struct Phase(pub Tally);

impl Phase {
    /// Verified answers per wall second, as the clock read it.
    pub fn qps(&self) -> f64 {
        rate(self.0.ok, self.0.wall_ns as f64)
    }

    /// The same at reference host speed.
    pub fn reference_qps(&self) -> f64 {
        rate(self.0.ok, self.0.reference_wall_ns())
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        percentile(&self.0.latencies, q) / 1e3
    }

    pub fn reference_latency_us(&self, q: f64) -> f64 {
        percentile(&self.0.reference_latencies, q) / 1e3
    }

    pub fn per_query_us(&self, ns: f64) -> f64 {
        ns / 1e3 / self.0.ok.max(1) as f64
    }

    pub fn attempted(&self) -> u64 {
        self.0.ok + self.0.failed
    }
}

/// The sample memory of the client, handed back and forth so that a run
/// allocates it once.
#[derive(Default)]
pub struct Buffers([Vec<u32>; 2]);

/// Runs the client closed-loop with `window` queries in flight for `length`
/// (or the workload's query cap), calibrating the host's speed as it goes
/// or not.
pub fn run_phase(
    deployment: &Deployment,
    spec: &Spec,
    length: Duration,
    window: usize,
    calibrate: bool,
    buffers: &mut Buffers,
) -> Phase {
    let mut tally = deployment.client.run(
        Instant::now() + length,
        spec.phase_query_cap,
        window,
        calibrate,
        std::mem::take(&mut buffers.0),
    );
    tally.latencies.sort_unstable();
    tally.reference_latencies.sort_unstable();
    Phase(tally)
}

impl Buffers {
    /// Takes the sample memory of a phase that has been read back.
    pub fn reclaim(&mut self, phase: Phase) {
        self.0 = [phase.0.latencies, phase.0.reference_latencies];
    }
}

/// DoH exchanges and client queries the serve layer has counted so far.
pub fn upstream_and_queries(deployment: &Deployment) -> (u64, u64) {
    let serve = deployment.runtime.stats().total.serve;
    (serve.source_answers + serve.source_failures, serve.queries)
}

/// Checks the counts that are exact by construction.
pub fn check_exact(
    spec: &Spec,
    ok: u64,
    tcp_retries: u64,
    upstream_per_query: f64,
    problems: &mut Vec<String>,
) {
    if let Some(expected) = spec.exact_upstream_per_query {
        if upstream_per_query != expected {
            problems.push(format!(
                "upstream exchanges per query is {upstream_per_query}, must be exactly {expected}"
            ));
        }
    }
    let expected_retries = if spec.via_tcp { ok } else { 0 };
    if tcp_retries != expected_retries {
        problems.push(format!(
            "{tcp_retries} answers came over TCP, expected {expected_retries}"
        ));
    }
}

pub fn warmup_length(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.1).min(2.0))
}

/// How a run of `seconds` is divided: the length of one round and how many
/// follow the warm-up. About fifty rounds; never shorter than 0.1 s, so a
/// round still holds hundreds of queries, nor longer than 0.5 s.
pub fn rounds(seconds: f64) -> (Duration, usize) {
    let round = (seconds / 50.0).clamp(0.1, 0.5);
    let count = ((seconds - warmup_length(seconds).as_secs_f64()) / round) as usize;
    (Duration::from_secs_f64(round), count.max(MIN_ROUNDS))
}

/// Sets the workload up again and again; returns the last deployment and
/// the time each set-up took, in seconds at reference host speed.
fn set_up(
    spec: &Spec,
    seed: u64,
    ports: &mut Ports,
    seconds: f64,
) -> std::io::Result<(Deployment, Vec<f64>)> {
    let mut echo = Echo::start()?;
    let min = if seconds < 10.0 { 3 } else { MIN_SETUPS };
    let budget = SETUP_BUDGET.min(Duration::from_secs_f64(seconds / 50.0));
    let mut setup_s = Vec::new();
    let mut spent = Duration::ZERO;
    let deployment = loop {
        // The host's speed is read before and after: a set-up can be
        // shorter than the calibration.
        let before = echo.slowness();
        let cpu = process_cpu_ns();
        let started = Instant::now();
        let deployment = Deployment::up(spec, seed, ports, None)?;
        let wall = started.elapsed();
        let busy = process_cpu_ns() - cpu;
        let slowness = (before + echo.slowness()) / 2.0;
        setup_s.push(at_reference_speed(wall.as_nanos() as u64, busy, slowness) / 1e9);
        spent += wall;
        if setup_s.len() >= MAX_SETUPS || (setup_s.len() >= min && spent >= budget) {
            break deployment;
        }
        deployment.down();
    };
    Ok((deployment, setup_s))
}

pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let spec = workload.spec(seed);
    let mut ports = Ports::new(seed);
    let (deployment, setup_s) = set_up(&spec, seed, &mut ports, seconds)?;

    let mut buffers = Buffers::default();
    let warmup = run_phase(
        &deployment,
        &spec,
        warmup_length(seconds),
        spec.window,
        false,
        &mut buffers,
    );
    buffers.reclaim(warmup);

    let (round, count) = rounds(seconds);
    let (upstream_before, queries_before) = upstream_and_queries(&deployment);
    let (mut qps, mut p50, mut p90, mut cpu) = (vec![], vec![], vec![], vec![]);
    let (mut raw_qps, mut raw_p50, mut raw_cpu, mut slowness) = (vec![], vec![], vec![], vec![]);
    let (mut ok, mut failed, mut tcp_retries) = (0, 0, 0);
    let mut count_and_reclaim = |phase: Phase, buffers: &mut Buffers| {
        ok += phase.0.ok;
        failed += phase.0.failed;
        tcp_retries += phase.0.tcp_retries;
        buffers.reclaim(phase);
    };
    for _ in 0..count {
        let latency = run_phase(&deployment, &spec, round / 2, 1, true, &mut buffers);
        p50.push(latency.reference_latency_us(0.5));
        p90.push(latency.reference_latency_us(0.9));
        raw_p50.push(latency.latency_us(0.5));
        slowness.push(median(&latency.0.slowness));
        count_and_reclaim(latency, &mut buffers);
        let busy = run_phase(
            &deployment,
            &spec,
            round / 2,
            spec.window,
            true,
            &mut buffers,
        );
        qps.push(busy.reference_qps());
        cpu.push(busy.per_query_us(busy.0.reference_server_cpu_ns));
        raw_qps.push(busy.qps());
        raw_cpu.push(busy.per_query_us(busy.0.server_cpu_ns as f64));
        slowness.push(median(&busy.0.slowness));
        count_and_reclaim(busy, &mut buffers);
    }
    let (upstream_after, queries_after) = upstream_and_queries(&deployment);
    let upstream_per_query =
        (upstream_after - upstream_before) as f64 / (queries_after - queries_before).max(1) as f64;
    let rss = peak_rss_mb();
    deployment.down();

    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!("{failed} of {} queries failed", ok + failed));
    }
    check_exact(&spec, ok, tcp_retries, upstream_per_query, &mut problems);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: ok + failed,
        failed,
        metrics: END_TO_END
            .iter()
            .zip([setup_s, qps, p50, p90, cpu, vec![rss]])
            .map(|(&(name, unit, _), slices)| Metric::slices(name, unit, slices))
            .collect(),
        diagnostics: vec![
            Metric::slices("host_slowness", "ratio", slowness),
            Metric::slices("raw_qps", "1/s", raw_qps),
            Metric::slices("raw_p50_us", "us", raw_p50),
            Metric::slices("raw_server_cpu_us_per_query", "us", raw_cpu),
        ],
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_is_a_warmup_and_about_fifty_rounds() {
        // The default: 2 s of warm-up, then 46 rounds of 0.5 s.
        assert_eq!(rounds(25.0), (Duration::from_millis(500), 46));
        // A long run does not get longer rounds, a short one not fewer.
        assert_eq!(rounds(60.0), (Duration::from_millis(500), 116));
        assert_eq!(rounds(1.0), (Duration::from_millis(100), MIN_ROUNDS));
    }

    #[test]
    fn an_empty_phase_has_rate_zero_not_nan() {
        assert_eq!(rate(0, 0.0), 0.0);
        assert_eq!(rate(500, 250e6), 2000.0);
    }
}
