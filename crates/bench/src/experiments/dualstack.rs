//! E10 — footnote 1: dual-stack (A + AAAA) handling — honest majority over
//! the union of both families vs. for each family individually.

use std::net::IpAddr;

use sdoh_analysis::{fmt_percent, Table};
use sdoh_core::{
    check_guarantee, AddressSource, DualStackPolicy, GroundTruth, PoolConfig, SecurePoolGenerator,
    StaticSource,
};
use sdoh_netsim::{SimAddr, SimNet};

/// Scenario: three resolvers; two are honest (3 A records + 1 AAAA record)
/// and one is compromised — it suppresses its A answer entirely and returns
/// four attacker AAAA records instead. The three policies react very
/// differently, which is exactly the distinction footnote 1 draws:
///
/// * `Ipv4Only` is denial-of-serviced (the empty A answer truncates the
///   pool to zero),
/// * `Union` keeps an honest majority over the whole pool but a v6-only
///   consumer of that pool sees a malicious majority,
/// * `PerFamily` bounds the attacker inside each family, at the cost of the
///   v4 family being denial-of-serviced.
pub fn run() -> Table {
    let mut table = Table::new(
        "E10: dual-stack policies with an IPv6-poisoning resolver (1 of 3)",
        &[
            "policy",
            "pool slots",
            "attacker share (whole pool)",
            "attacker share (v6 sub-pool)",
            "guarantee on union",
            "guarantee per family",
        ],
    );
    for policy in [
        DualStackPolicy::Ipv4Only,
        DualStackPolicy::Union,
        DualStackPolicy::PerFamily,
    ] {
        table.push_row(simulate(policy));
    }
    table
}

fn benign_v4(i: u8) -> IpAddr {
    format!("203.0.113.{i}").parse().expect("addr")
}

fn benign_v6(i: u8) -> IpAddr {
    format!("2001:db8::{i}").parse().expect("addr")
}

fn evil_v6(i: u8) -> IpAddr {
    format!("2001:db8:bad::{i}").parse().expect("addr")
}

fn simulate(policy: DualStackPolicy) -> [String; 6] {
    let honest = |name: &str, v6: u8| {
        StaticSource::answering(
            name,
            vec![benign_v4(1), benign_v4(2), benign_v4(3), benign_v6(v6)],
        )
    };
    // The compromised resolver returns no A records and four attacker AAAA
    // records.
    let compromised = StaticSource::answering(
        "compromised",
        vec![evil_v6(1), evil_v6(2), evil_v6(3), evil_v6(4)],
    );
    let sources: Vec<Box<dyn AddressSource>> = vec![
        Box::new(honest("r1", 1)),
        Box::new(honest("r2", 2)),
        Box::new(compromised),
    ];
    let truth = GroundTruth::with_malicious((1..=4).map(evil_v6));
    let generator =
        SecurePoolGenerator::new(PoolConfig::algorithm1().with_dual_stack(policy), sources)
            .expect("generator");
    let net = SimNet::new(10);
    let mut exchanger = net.client(SimAddr::v4(10, 0, 0, 1, 40000));
    let report = generator
        .generate(&mut exchanger, &"pool.ntpns.org".parse().expect("name"))
        .expect("generation");

    let union_check = check_guarantee(&report.pool, &truth, 0.5);
    let (_, v6_pool) = report.pool.split_by_family();
    let v6_share = if v6_pool.is_empty() {
        0.0
    } else {
        1.0 - v6_pool.benign_fraction(|a| !truth.is_malicious(a))
    };
    let v6_check = check_guarantee(&v6_pool, &truth, 0.5);
    let per_family_ok = if v6_pool.is_empty() {
        union_check.holds
    } else {
        union_check.holds && v6_check.holds
    };
    [
        format!("{policy:?}"),
        report.pool.len().to_string(),
        fmt_percent(union_check.malicious_fraction),
        fmt_percent(v6_share),
        union_check.holds.to_string(),
        per_family_ok.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_holds_but_v6_family_is_captured() {
        let row = simulate(DualStackPolicy::Union);
        assert_eq!(row[1], "12");
        assert_eq!(row[4], "true", "union keeps an honest majority overall");
        assert_eq!(
            row[5], "false",
            "the v6 sub-pool alone does not keep an honest majority"
        );
    }

    #[test]
    fn ipv4_only_is_denial_of_serviced_by_the_empty_answer() {
        let row = simulate(DualStackPolicy::Ipv4Only);
        assert_eq!(row[1], "0", "the empty A answer truncates the pool away");
        assert_eq!(row[4], "false");
    }

    #[test]
    fn per_family_bounds_the_attacker_in_both_families() {
        let row = simulate(DualStackPolicy::PerFamily);
        assert_eq!(row[4], "true");
        assert_eq!(row[5], "true");
        assert_eq!(row[3], "33.3%");
    }

    #[test]
    fn table_lists_three_policies() {
        assert_eq!(run().len(), 3);
    }
}
