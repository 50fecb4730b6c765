//! Detection coverage (experiment E7): every deviation in the standard
//! catalog that has any externally visible effect is flagged by the
//! enforcement layer, and the flagging mechanism matches the paper's
//! argument (construction deviations → hash mismatch → restart/halt;
//! execution deviations → reconciliation penalty).

use specfaith::fpss::deviation::standard_catalog;
use specfaith::fpss::msg::RouteRow;
use specfaith::prelude::*;

fn figure1_scenario() -> (specfaith::graph::generators::Figure1, Scenario) {
    figure1_scenario_under(Mechanism::faithful())
}

fn figure1_scenario_under(
    mechanism: Mechanism,
) -> (specfaith::graph::generators::Figure1, Scenario) {
    let net = figure1();
    let scenario = Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(TrafficModel::Flows(vec![
            Flow {
                src: net.x,
                dst: net.z,
                packets: 4,
            },
            Flow {
                src: net.d,
                dst: net.z,
                packets: 4,
            },
            Flow {
                src: net.z,
                dst: net.x,
                packets: 2,
            },
        ]))
        .mechanism(mechanism)
        .build();
    (net, scenario)
}

/// Deviations with *effects* must be detected. Two catalog entries can be
/// no-ops for particular nodes (a node with no transit traffic "drops"
/// nothing; a cost misreport is legitimate information revelation, not a
/// detectable protocol violation), so coverage is asserted per category.
#[test]
fn construction_deviations_always_hash_mismatch() {
    let (net, scenario) = figure1_scenario();
    for deviant in [net.a, net.c, net.d] {
        for strategy in standard_catalog(deviant) {
            let spec = strategy.spec();
            if spec.phase() != Some("construction-2") {
                continue;
            }
            let run = scenario.run_with_deviant(deviant, strategy, 5);
            assert!(
                run.detected,
                "deviant {deviant} playing {spec} escaped detection"
            );
            assert!(
                !run.green_lighted(),
                "deviant {deviant} playing {spec} was green-lighted"
            );
        }
    }
}

#[test]
fn execution_deviations_are_penalized_when_effective() {
    let (net, scenario) = figure1_scenario();
    // C transits traffic; X pays. Both deviants have real opportunities.
    let cases = [
        (net.c, "drop-transit-packets"),
        (net.x, "underreport-payments(10%)"),
        (net.c, "drop-and-underreport"),
    ];
    for (deviant, name) in cases {
        let strategy = standard_catalog(deviant)
            .into_iter()
            .find(|s| s.spec().name() == name)
            .expect("catalog name");
        let run = scenario.run_with_deviant(deviant, strategy, 5);
        assert!(run.green_lighted(), "{name}: honest construction certifies");
        assert!(run.detected, "{name} escaped detection");
        assert!(
            run.penalties()[deviant.index()].is_positive(),
            "{name}: no penalty charged"
        );
    }
}

#[test]
fn cost_misreports_are_legitimate_but_useless() {
    // Information revelation is allowed to be untruthful — the mechanism
    // does not *detect* it, it makes it pointless (strategyproofness).
    let (net, scenario) = figure1_scenario();
    let faithful = scenario.run(5);
    for delta in [5i64, -1] {
        let strategy = standard_catalog(net.c)
            .into_iter()
            .find(|s| s.spec().name() == format!("misreport-cost({delta:+})"))
            .expect("catalog name");
        let run = scenario.run_with_deviant(net.c, strategy, 5);
        assert!(run.green_lighted(), "misreports still certify");
        assert!(
            run.utilities[net.c.index()] <= faithful.utilities[net.c.index()],
            "misreport({delta}) must not profit"
        );
    }
}

#[test]
fn faithful_baseline_triggers_nothing() {
    let (_, scenario) = figure1_scenario();
    for seed in [1u64, 2, 3] {
        let run = scenario.run(seed);
        assert!(!run.detected, "seed {seed}: false positive");
        assert_eq!(run.restarts(), 0);
        assert!(run.penalties().iter().all(|p| *p == Money::ZERO));
    }
}

#[test]
fn detection_rate_in_sweep_matches_expectation() {
    let (_, scenario) = figure1_scenario();
    let report = scenario.equilibrium_report(5, &Catalog::standard());
    // Every *effective* deviation is detected; ineffective ones (no-op for
    // that node) and legitimate misreports are not. The overall rate must
    // be well above half on this traffic pattern.
    let rate = report.detection_rate().expect("deviations were tested");
    assert!(rate > 0.5, "detection rate {rate}");
    // And crucially: every undetected deviation is also unprofitable.
    for outcome in &report.outcomes {
        if !outcome.detected {
            assert!(
                !outcome.strictly_profitable(),
                "undetected AND profitable: {}",
                outcome.deviation
            );
        }
    }
}

/// Advertises every multi-hop route with its first transit repeated: the
/// endpoints are right, but the path is not simple.
#[derive(Debug)]
struct RepeatFirstTransit;

impl RationalStrategy for RepeatFirstTransit {
    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "repeat-first-transit",
            DeviationSurface::only(ExternalActionKind::Computation),
        )
        .in_phase("construction-2")
    }

    fn announce_routing(&mut self, _me: NodeId, honest: Vec<RouteRow>) -> Vec<RouteRow> {
        honest
            .into_iter()
            .map(|mut row| {
                if row.path.len() > 2 {
                    row.path.insert(1, row.path[1]);
                }
                row
            })
            .collect()
    }
}

/// A non-simple route advertisement is a malformed row: receivers drop
/// it, so the run completes under both mechanisms wherever the deviant
/// sits, and the faithful checkers catch the lie in the announced table.
#[test]
fn non_simple_route_adverts_are_dropped_and_detected() {
    let (net, faithful) = figure1_scenario();
    let (_, plain) = figure1_scenario_under(Mechanism::Plain);
    for deviant in net.topology.nodes() {
        let run = plain.run_with_deviant(deviant, Box::new(RepeatFirstTransit), 5);
        assert!(!run.truncated, "plain run with deviant {deviant} truncated");
        let run = faithful.run_with_deviant(deviant, Box::new(RepeatFirstTransit), 5);
        assert!(
            !run.truncated,
            "faithful run with deviant {deviant} truncated"
        );
        assert!(run.detected, "deviant {deviant} escaped detection");
    }
}
