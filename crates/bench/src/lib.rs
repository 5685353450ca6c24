//! Experiment harness regenerating every figure and quantitative claim of
//! *"Secure Consensus Generation with Distributed DoH"*.
//!
//! Each module in [`experiments`] is one experiment and returns
//! [`sdoh_analysis::Table`]s; the experiment index is the table
//! [`experiments::EXPERIMENTS`], and [`runner`] is the one command line
//! over it (`sdoh-exp <name>|all`), which prints the tables as markdown and
//! writes the committed `BENCH_<name>.json` reports. Serving performance is
//! not measured here: that is `pool-bench` in `benchmark/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod runner;

pub use experiments::*;
