//! E7 — footnote 2, the other side: truncation "comes at the cost of
//! allowing DoS attacks when the attacker includes no responses at all".

use sdoh_analysis::Table;
use sdoh_core::{attacker_controls_fraction, PoolConfig};
use secure_doh::scenario::{ResolverCompromise, Scenario, ScenarioConfig};

/// Sweeps the number of resolvers answering with an empty record set and
/// reports the resulting pool size (availability) and whether the attacker
/// gains any share of the pool (integrity).
pub fn run(resolver_counts: &[usize], seed: u64) -> Table {
    let mut table = Table::new(
        "E7: empty-answer DoS — pool size and integrity",
        &[
            "N resolvers",
            "resolvers answering empty",
            "pool slots",
            "lookup usable",
            "attacker gains pool share",
        ],
    );
    for &n in resolver_counts {
        for empty in 0..=n.min(3) {
            let (slots, captured) = simulate(n, empty, seed + (n * 10 + empty) as u64);
            table.push_row([
                n.to_string(),
                empty.to_string(),
                slots.to_string(),
                (slots > 0).to_string(),
                captured.to_string(),
            ]);
        }
    }
    table
}

fn simulate(n: usize, empty: usize, seed: u64) -> (usize, bool) {
    let compromised = (0..empty)
        .map(|i| (i, ResolverCompromise::EmptyAnswer))
        .collect();
    let scenario = Scenario::build(ScenarioConfig {
        seed,
        resolvers: n,
        ntp_servers: 8,
        compromised,
        ..ScenarioConfig::default()
    });
    let (report, _) = scenario
        .generate_pool(PoolConfig::algorithm1())
        .expect("generation");
    let captured = attacker_controls_fraction(&report.pool, &scenario.ground_truth(), 0.5);
    (report.pool.len(), captured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_empty_answer_empties_the_pool_but_never_captures_it() {
        let (slots, captured) = simulate(3, 1, 1);
        assert_eq!(slots, 0, "footnote 2: the DoS succeeds");
        assert!(!captured, "but the attacker gains nothing");
        let (slots, captured) = simulate(3, 0, 2);
        assert_eq!(slots, 24);
        assert!(!captured);
    }

    #[test]
    fn table_shape() {
        let table = run(&[3], 5);
        assert_eq!(table.len(), 4);
    }
}
