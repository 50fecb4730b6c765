//! Phase liveness under the restart policy (experiment E9):
//!
//! * an honest network green-lights in one pass (no restarts);
//! * a *transiently* deviant node triggers a restart, after which the
//!   phase certifies and execution proceeds;
//! * a *persistent* deviant exhausts the restart budget and the mechanism
//!   halts — the "does not progress" punishment.

use specfaith::core::actions::{DeviationSurface, ExternalActionKind};
use specfaith::core::equilibrium::DeviationSpec;
use specfaith::fpss::deviation::SpoofShortRoutes;
use specfaith::fpss::msg::RouteRow;
use specfaith::prelude::*;

/// Spoofs routing announcements during the first construction attempt
/// only, then behaves. Attempts are counted via `declare_cost`, which the
/// node calls exactly once per construction start (initial + each
/// restart).
#[derive(Debug)]
struct TransientSpoof {
    attempts: u32,
    inner: SpoofShortRoutes,
}

impl TransientSpoof {
    fn new() -> Self {
        TransientSpoof {
            attempts: 0,
            inner: SpoofShortRoutes,
        }
    }
}

impl RationalStrategy for TransientSpoof {
    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "transient-spoof",
            DeviationSurface::only(ExternalActionKind::Computation),
        )
        .in_phase("construction-2")
    }

    fn declare_cost(&mut self, true_cost: Cost) -> Cost {
        self.attempts += 1;
        true_cost
    }

    fn announce_routing(&mut self, me: NodeId, honest: Vec<RouteRow>) -> Vec<RouteRow> {
        if self.attempts <= 1 {
            self.inner.announce_routing(me, honest)
        } else {
            honest
        }
    }
}

fn scenario_with(max_restarts: u32) -> (specfaith::graph::generators::Figure1, Scenario) {
    let net = figure1();
    let scenario = Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(TrafficModel::Single {
            src: net.x,
            dst: net.z,
            packets: 4,
        })
        .mechanism(Mechanism::Faithful(Enforcement {
            epsilon: Money::new(1),
            max_restarts,
            progress_value: Money::new(1_000_000),
        }))
        .build();
    (net, scenario)
}

fn scenario() -> (specfaith::graph::generators::Figure1, Scenario) {
    scenario_with(2)
}

#[test]
fn honest_network_certifies_first_try() {
    let (_, scenario) = scenario();
    let run = scenario.run(1);
    assert_eq!(run.restarts(), 0);
    assert!(run.green_lighted());
}

#[test]
fn transient_deviant_costs_one_restart_then_proceeds() {
    let (net, scenario) = scenario();
    let run = scenario.run_with_deviant(net.c, Box::new(TransientSpoof::new()), 1);
    assert_eq!(run.restarts(), 1, "first attempt mismatches, second passes");
    assert!(run.green_lighted(), "the repaired run certifies");
    assert!(!run.halted());
    assert!(run.detected, "the restart is visible enforcement");
}

#[test]
fn transient_deviation_still_does_not_profit() {
    let (net, scenario) = scenario();
    let faithful = scenario.run(1);
    let run = scenario.run_with_deviant(net.c, Box::new(TransientSpoof::new()), 1);
    assert!(
        run.utilities[net.c.index()] <= faithful.utilities[net.c.index()],
        "transient spoofing gains nothing: {} vs {}",
        run.utilities[net.c.index()],
        faithful.utilities[net.c.index()]
    );
}

#[test]
fn persistent_deviant_halts_after_budget() {
    let (net, scenario) = scenario_with(2);
    let run = scenario.run_with_deviant(net.c, Box::new(SpoofShortRoutes), 1);
    assert_eq!(run.restarts(), 2, "budget fully spent");
    assert!(run.halted());
    assert!(!run.green_lighted());
    // Halting zeroes everyone's utility — the deviant forfeits its whole
    // faithful surplus.
    assert!(run.utilities.iter().all(|u| *u == Money::ZERO));
}

#[test]
fn restart_budget_is_configurable() {
    let (net, strict) = scenario_with(0);
    let run = strict.run_with_deviant(net.c, Box::new(SpoofShortRoutes), 1);
    assert_eq!(run.restarts(), 0);
    assert!(run.halted(), "zero budget halts immediately on mismatch");
}
