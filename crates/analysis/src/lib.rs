//! Security analysis for distributed DoH pool generation (Section III of
//! the paper): closed-form expressions, the exact binomial model, and the
//! same probability summed over the pools the serving code builds.
//!
//! * [`AttackModel`] captures the paper's attacker: each of `N` resolvers is
//!   compromised independently with probability `p_attack`, and the attack
//!   succeeds when the attacker controls a fraction `y` of the generated
//!   pool — which requires compromising `M = ceil(x·N)` resolvers with
//!   `x ≥ y` (Section III-a).
//! * [`attack_probability_paper`] is the paper's `p_attack^M` expression;
//!   [`attack_probability_exact`] is the exact binomial tail it bounds.
//! * [`attack_probability_pools`] reaches the tail from the other side: it
//!   builds the pool of every compromised count with `sdoh_core::combine`,
//!   the function the serving session combines answers with, asks whether
//!   the attacker holds its goal fraction of it, and weights it by its
//!   binomial probability. It equals the exact tail for every goal `y` in
//!   `(0, 1]`, which is Section III-a's argument checked against the code.
//! * [`sweep_resolver_count`] / [`sweep_attack_probability`] regenerate the
//!   quantitative series `sdoh-exp attack_probability` prints (E3 of the
//!   experiment index in `sdoh-bench`), and [`Table`] renders them as
//!   markdown.
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
mod sweep;
mod table;

pub use analytic::{
    attack_probability_exact, attack_probability_paper, attack_probability_pools, binomial_pmf,
    ln_choose, resolvers_for_security_gain,
};
pub use model::AttackModel;
pub use sweep::{sweep_attack_probability, sweep_resolver_count, sweep_table, SweepPoint};
pub use table::{fmt_percent, fmt_probability, Table};
