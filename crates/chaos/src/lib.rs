//! Deterministic chaos campaigns for the secure-DoH stack.
//!
//! This crate composes the workspace's simulation substrates into a
//! chaos-engineering harness: a seeded **fault scheduler**
//! ([`FaultPlan`]), an **invariant monitor** ([`InvariantMonitor`])
//! evaluated after every step, and a **campaign runner**
//! ([`run_campaign`]) that drives the full serve + timesync pipeline
//! through thousands of faulty steps and emits a machine-readable
//! readiness report ([`ChaosReport`]).
//!
//! # Chaos campaigns
//!
//! A campaign is a pure function of its [`CampaignConfig`]: the same seed
//! produces the same fault schedule, the same workload, the same event
//! trace and a byte-identical report — so a failing campaign is replayed
//! exactly from one `u64`. The fault vocabulary covers the failure modes
//! the paper's pipeline must absorb:
//!
//! * **network weather** — packet loss, request duplication, response
//!   reordering and latency spikes on every link
//!   ([`Fault::DegradeLinks`]);
//! * **partitions** — a resolver cut off from the client and the serving
//!   front end, later healed ([`Fault::PartitionResolver`]);
//! * **resolver churn** — instances dying mid-generation and replaced
//!   with cold caches ([`Fault::KillResolver`]), or coming back
//!   compromised and inflating every pool answer with attacker addresses
//!   ([`Fault::CompromiseResolver`]);
//! * **an active off-path attacker** — the Kaminsky-style birthday
//!   spoofer racing forged answers against every plain pool-zone query
//!   ([`Fault::SpooferOn`]);
//! * **clock trouble** — misset local clocks ([`Fault::ClockStep`]),
//!   simulated-time jumps ([`Fault::TimeJump`]) and clock drift
//!   ([`Fault::ClockDrift`]).
//!
//! After every step the monitor checks that no served pool violates the
//! paper's `x = 1/2` guarantee, that the disciplined clock stays within
//! its offset bound after each synchronization, that serving and network
//! counters never regress, that no cache entry outlives
//! `TTL + stale window`, and that every issued query is accounted for.
//! The hardened stack ([`StackKind::Hardened`]) is expected to complete a
//! mixed-adversary campaign with **zero** violations; the weak baseline
//! ([`StackKind::WeakBaseline`]) exists to prove the monitor detects real
//! breaches — an off-path spoofer poisons its predictable-id resolver,
//! and the report records the guarantee and clock-offset violations.
//!
//! ```
//! use sdoh_chaos::{run_campaign, CampaignConfig};
//!
//! // A short mixed-adversary campaign against the hardened stack.
//! let config = CampaignConfig::hardened(7, 40);
//! let report = run_campaign(&config).unwrap();
//! assert!(report.ready, "violations: {:?}", report.violations);
//!
//! // Same seed, same campaign: byte-identical report and trace.
//! let replay = run_campaign(&config).unwrap();
//! assert_eq!(report.to_json("doc"), replay.to_json("doc"));
//! assert_eq!(report.trace_text(), replay.trace_text());
//! ```
//!
//! `sdoh-exp chaos` in `sdoh-bench` wraps this into the E15
//! experiment (`BENCH_chaos.json`): a hardened and a weak-baseline
//! campaign over the same schedule, plus a determinism self-check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod fault;
pub mod monitor;
pub mod report;

pub use campaign::{run_campaign, CampaignConfig, StackKind, WorkloadConfig};
pub use fault::{Fault, FaultEvent, FaultMix, FaultPlan};
pub use monitor::{InvariantMonitor, Violation, MAX_RECORDED_VIOLATIONS};
pub use report::{json_string, ChaosReport, TraceEvent};
