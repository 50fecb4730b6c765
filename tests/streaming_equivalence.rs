//! The streaming equivalence suite (CI's named streaming gate).
//!
//! Pins the streaming correctness contract end to end through the
//! scenario engine: after **every** applied [`TopologyEvent`] — cost
//! re-declarations and (plain mechanism) node churn alike — the live
//! session's converged tables are byte-identical to a cold run on the
//! updated topology and declarations, across the generator families.
//! Star topologies are pinned to their documented fate instead: FPSS
//! requires biconnectivity, so a star never reaches streaming at all.
//!
//! The faithful mechanism streams cost events only: after each one the
//! bank recertifies and the tables equal the same cold run. The suite
//! also pins the faithful mechanism's documented liveness hole: churn
//! that would island the bank from any node is *refused* (reported as
//! [`StreamStatus::Unsupported`]) rather than hanging the signed-hash
//! certification round forever.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith::scenario::{
    CostModel, Mechanism, Scenario, ScenarioError, StreamStatus, TopologyEvent, TopologySource,
    TrafficModel,
};
use specfaith_core::id::NodeId;
use specfaith_fpss::runner::converged_table_digests;
use specfaith_graph::costs::CostVector;
use specfaith_graph::generators::{grid, random_biconnected, scale_free, wheel};
use specfaith_graph::topology::Topology;
use specfaith_netsim::Latency;
use std::collections::BTreeSet;

/// One topology per streaming-capable generator family. (The star family
/// is covered by `stars_never_reach_streaming` below: not biconnected,
/// rejected at build time.)
fn family_topology(family: usize, n: usize, rng: &mut StdRng) -> Topology {
    match family % 4 {
        0 => grid(3, n.max(6) / 3),
        1 => scale_free(n.max(5), 2, rng),
        2 => wheel(n.max(4)),
        _ => random_biconnected(n.max(5), n / 2, rng),
    }
}

/// Decodes one proptest-drawn event against the current down set:
/// `pick` chooses the node, `kind` the event class, `cost` the new
/// declaration for cost events.
fn decode_event(
    kind: usize,
    pick: usize,
    cost: u64,
    n: usize,
    down: &BTreeSet<NodeId>,
) -> TopologyEvent {
    let node = NodeId::from_index(pick % n);
    match kind % 4 {
        // Cost deltas dominate the mix, as they do in a real overlay.
        0 | 1 => TopologyEvent::NodeCost { node, cost },
        2 => TopologyEvent::NodeDown(node),
        _ => match down.iter().next() {
            Some(&dead) => TopologyEvent::NodeUp(dead),
            None => TopologyEvent::NodeCost { node, cost },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole pin, through `Scenario::stream_session`: after every
    /// applied event of a random sequence (cost deltas + node churn),
    /// the streamed tables are byte-identical to a cold run on the
    /// updated topology and declarations (live nodes compared when
    /// nodes are down; a downed node's purged tables have no cold
    /// counterpart).
    #[test]
    fn streamed_tables_equal_cold_tables_after_every_event(
        seed in 0u64..200,
        n in 6usize..11,
        family in 0usize..4,
        events in proptest::collection::vec((0usize..4, 0usize..16, 0u64..15), 3..7),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = family_topology(family, n, &mut rng);
        let n = topo.num_nodes();
        let costs = CostVector::random(n, 1, 12, &mut rng);
        let scenario = Scenario::builder()
            .topology(TopologySource::Explicit(topo.clone()))
            .costs(CostModel::Explicit(costs))
            .traffic(TrafficModel::single_by_index(0, n - 1, 2))
            .build();
        let mut session = scenario.stream_session(seed);
        let mut down: BTreeSet<NodeId> = BTreeSet::new();
        for (i, &(kind, pick, cost)) in events.iter().enumerate() {
            let event = decode_event(kind, pick, cost, n, &down);
            let outcome = session.apply_event(&event);
            match outcome.status {
                StreamStatus::Applied => {
                    prop_assert!(outcome.messages > 0, "event {i}: {event:?} sent nothing");
                    match &event {
                        TopologyEvent::NodeDown(node) => { down.insert(*node); }
                        TopologyEvent::NodeUp(node) => { down.remove(node); }
                        _ => {}
                    }
                    if down.is_empty() {
                        prop_assert!(
                            outcome.verified == Some(true),
                            "event {i}: {event:?} must re-verify, got {:?}",
                            outcome.verified
                        );
                    }
                }
                // Rejections (downed/unknown nodes, cut vertices) must
                // leave the fixed point untouched — checked below by
                // comparing against the cold oracle for the *tracked*
                // state, which a leaked rejected event would falsify.
                _ => prop_assert!(
                    outcome.messages == 0,
                    "event {i}: {event:?} was refused but sent messages"
                ),
            }
            // The cold oracle on the same topology and declarations.
            let reduced = down
                .iter()
                .fold(topo.clone(), |t, &dead| t.without_node(dead));
            let cold = converged_table_digests(
                &reduced,
                session.declared(),
                Latency::DEFAULT,
                seed.wrapping_add(1 + i as u64),
            );
            let streamed = session.table_digests();
            for node in topo.nodes() {
                if down.contains(&node) {
                    continue;
                }
                prop_assert!(
                    streamed[node.index()] == cold[node.index()],
                    "event {i} ({event:?}): node {node} diverged from the cold fixed point"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The faithful counterpart over the same four families, with cost
    /// events only (faithful churn is refused as `LivenessHole`, pinned
    /// below). After every event the bank recertifies the new fixed point
    /// (principal, announced and mirror hashes agree again) and every
    /// node's tables are byte-identical to a cold plain run on the new
    /// declarations. A checker mirror tracks its principal's streamed
    /// re-declarations only through the engine's cost-update tap, so a
    /// missed or misplaced update fails the recertification here.
    #[test]
    fn faithful_cost_events_recertify_on_the_cold_fixed_point(
        seed in 0u64..200,
        n in 6usize..11,
        family in 0usize..4,
        events in proptest::collection::vec((0usize..16, 0u64..15), 2..5),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = family_topology(family, n, &mut rng);
        let n = topo.num_nodes();
        let costs = CostVector::random(n, 1, 12, &mut rng);
        let scenario = Scenario::builder()
            .topology(TopologySource::Explicit(topo.clone()))
            .costs(CostModel::Explicit(costs))
            .traffic(TrafficModel::single_by_index(0, n - 1, 2))
            .mechanism(Mechanism::faithful())
            .build();
        let mut session = scenario.stream_session(seed);
        for (i, &(pick, cost)) in events.iter().enumerate() {
            let event = TopologyEvent::NodeCost { node: NodeId::from_index(pick % n), cost };
            let outcome = session.apply_event(&event);
            prop_assert_eq!(outcome.status, StreamStatus::Applied);
            prop_assert!(
                outcome.verified == Some(true),
                "event {i}: {event:?} was not recertified: {:?}",
                outcome.verified
            );
            let cold = converged_table_digests(
                &topo,
                session.declared(),
                Latency::DEFAULT,
                seed.wrapping_add(1 + i as u64),
            );
            prop_assert!(
                session.table_digests() == cold,
                "event {i} ({event:?}): tables diverged from the cold fixed point"
            );
        }
        let report = session.finish();
        prop_assert!(report.green_lighted() && !report.detected);
    }
}

#[test]
fn stars_never_reach_streaming() {
    // FPSS needs a biconnected graph (prices are avoid-path costs); every
    // star has a cut hub, so the scenario layer rejects it before any
    // engine — streaming included — can run.
    let err = Scenario::builder()
        .topology(TopologySource::Star(8))
        .try_build()
        .unwrap_err();
    assert_eq!(err, ScenarioError::NotBiconnected { nodes: 8 });
}

#[test]
fn node_down_islanding_the_bank_reports_the_liveness_hole() {
    // Removing a node from K6 keeps the topology biconnected, so the
    // *plain* engine streams it. The faithful bank cannot: certification
    // waits on signed hash reports from every node, and a departed node
    // leaves that round stalled forever (the paper's §4.2 reliable-network
    // assumption). The streaming engine must report the documented hole —
    // promptly — instead of hanging.
    let faithful = Scenario::builder()
        .topology(TopologySource::Complete(6))
        .traffic(TrafficModel::single_by_index(0, 5, 2))
        .mechanism(Mechanism::faithful())
        .build();
    let report = faithful.stream(&[TopologyEvent::NodeDown(NodeId::new(2))], 1);
    assert_eq!(report.events[0].status, StreamStatus::Unsupported);
    assert_eq!(report.events[0].messages, 0);
    assert_eq!(report.events[0].verified, None);
    // The held certification is intact: execution still green-lights.
    assert!(report.final_report.green_lighted());
    assert!(!report.final_report.detected);

    // The same event streams fine under the plain mechanism.
    let plain = Scenario::builder()
        .topology(TopologySource::Complete(6))
        .traffic(TrafficModel::single_by_index(0, 5, 2))
        .build();
    let mut session = plain.stream_session(1);
    let outcome = session.apply_event(&TopologyEvent::NodeDown(NodeId::new(2)));
    assert_eq!(outcome.status, StreamStatus::Applied);
}
