//! FPSS under jittered link latency: every directed link is FIFO.
//!
//! `Latency::jittered` draws each message's delay independently, so
//! without a FIFO guarantee a later message can overtake an earlier one on
//! the same link: a stale price or retraction then lands after its
//! replacement. FPSS assumes in-order links. On reordering links these
//! runs fail: honest plain tables miss the reference check, honest
//! faithful runs are restarted into a halt, and two neighbors count to
//! infinity until the event budget runs out. The simulator delivers each
//! link's messages in send order, so only cross-link races remain, and
//! each run below converges to the centralized reference.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith::prelude::*;
use specfaith::scenario::RunReport;
use specfaith_netsim::Latency;

const JITTER: Latency = Latency::Jittered {
    base: 10,
    jitter: 7,
};

fn jittered(topology: TopologySource, mechanism: Mechanism) -> ScenarioBuilder {
    Scenario::builder()
        .topology(topology)
        .latency(JITTER)
        .mechanism(mechanism)
        .max_events(500_000)
}

fn scale_free_16() -> TopologySource {
    TopologySource::ScaleFree {
        n: 16,
        attachments: 2,
    }
}

fn assert_certified(run: &RunReport) {
    assert!(!run.truncated, "run truncated");
    assert!(run.green_lighted() && !run.halted(), "bank did not certify");
    assert_eq!(run.restarts(), 0);
    assert!(!run.detected, "an honest run was flagged");
    assert_eq!(run.tables_match_centralized(), Some(true));
}

#[test]
fn honest_plain_scale_free_converges_to_the_reference() {
    let run = jittered(scale_free_16(), Mechanism::Plain).build().run(3);
    assert!(!run.truncated);
    assert_eq!(run.tables_match_centralized(), Some(true));
}

#[test]
fn honest_faithful_figure1_certifies_without_restarts() {
    let figure1 = jittered(TopologySource::Figure1, Mechanism::faithful());
    assert_certified(&figure1.build().run(3));
}

#[test]
fn honest_faithful_scale_free_certifies_without_restarts() {
    let scale_free = jittered(scale_free_16(), Mechanism::faithful());
    assert_certified(&scale_free.build().run(3));
}

/// The instance of the table-digest golden (`random_biconnected(24, 14)`
/// from seed 41, costs drawn after it): on non-FIFO links nodes 1 and 15
/// priced transit 3 off each other's price without end.
#[test]
fn pricing_does_not_count_to_infinity() {
    let mut rng = StdRng::seed_from_u64(41);
    let topo = random_biconnected(24, 14, &mut rng);
    let costs = CostVector::random(topo.num_nodes(), 1, 20, &mut rng);
    let run = Scenario::builder()
        .topology(TopologySource::Explicit(topo))
        .costs(CostModel::Explicit(costs))
        .latency(JITTER)
        .max_events(100_000)
        .build()
        .run(9);
    assert!(!run.truncated, "construction livelocked");
    assert_eq!(run.tables_match_centralized(), Some(true));
}
