//! Security analysis for distributed DoH pool generation (Section III of
//! the paper), with closed-form expressions, an exact binomial model and
//! Monte-Carlo validation.
//!
//! * [`AttackModel`] captures the paper's attacker: each of `N` resolvers is
//!   compromised independently with probability `p_attack`, and the attack
//!   succeeds when the attacker controls a fraction `y` of the generated
//!   pool — which requires compromising `M = ceil(x·N)` resolvers with
//!   `x ≥ y` (Section III-a).
//! * [`attack_probability_paper`] is the paper's `p_attack^M` expression;
//!   [`attack_probability_exact`] is the exact binomial tail it bounds.
//! * [`estimate_resolver_compromise`] and [`estimate_pool_capture`] validate
//!   both by direct simulation (the latter building the Algorithm 1 pool
//!   explicitly each trial).
//! * [`sweep_resolver_count`] / [`sweep_attack_probability`] regenerate the
//!   quantitative series `sdoh-exp attack_probability` prints (E3 of the
//!   experiment index in `sdoh-bench`), and [`Table`] renders them as
//!   markdown or CSV.
//!
//! # Example
//!
//! ```
//! use sdoh_analysis::{attack_probability_paper, AttackModel};
//!
//! // "Even when only 3 DoH resolvers are used … the probability of a
//! //  successful attack which requires a malicious majority (x >= 2/3) is
//! //  reduced significantly (p^2)."
//! let model = AttackModel::figure1_example(0.1);
//! assert!((attack_probability_paper(&model) - 0.01).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analytic;
mod model;
mod montecarlo;
mod sweep;
mod table;

pub use analytic::{
    attack_probability_exact, attack_probability_paper, binomial_pmf, ln_choose,
    required_resolver_fraction, resolvers_for_security_gain,
};
pub use model::AttackModel;
pub use montecarlo::{estimate_pool_capture, estimate_resolver_compromise, MonteCarloEstimate};
pub use sweep::{sweep_attack_probability, sweep_resolver_count, sweep_table, SweepPoint};
pub use table::{fmt_percent, fmt_probability, Table};
