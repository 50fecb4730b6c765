//! The faithful mechanism as an overlay on the FPSS run lifecycle.
//!
//! The paper's faithful mechanism is FPSS plus enforcement: the same
//! construction and execution, with checkers mirroring each principal and
//! a bank that certifies construction by hash checkpoints, restarts or
//! halts it, and settles execution. So the lifecycle is
//! `specfaith_fpss::runner`'s, and [`Enforcement`] — the bank's
//! parameters — is the [`Overlay`] that adds the rest: every topology
//! node is a [`FaithfulNode`] (the FPSS engine plus checker mirrors and
//! the bank channel), and the bank sits at node id `n` with an overlay
//! link to every node.
//!
//! A one-shot faithful run is one simulator run driven by the bank's
//! quiescence hooks: construction, checkpoints, the green light,
//! execution and settlement. A checkpointed run parks the bank at
//! certification; each streamed cost event re-certifies, and finishing
//! releases the held green light. The crate docs show a run.

use crate::actor::NodeOrBank;
use crate::bank::BankNode;
use crate::node::FaithfulNode;
use specfaith_core::id::NodeId;
use specfaith_core::money::Money;
use specfaith_crypto::auth::ChannelKey;
use specfaith_fpss::deviation::RationalStrategy;
use specfaith_fpss::runner::{Overlay, RunConfig, Verdict};
use specfaith_netsim::{Connectivity, Latency, Network};

/// What the simulated bank derives each node's channel key from. It keys
/// the MACs of the simulation only; it is not a deployment credential.
const BANK_SECRET: &[u8] = b"specfaith-bank-secret";

/// The faithful mechanism's enforcement parameters, and the overlay that
/// runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Enforcement {
    /// The ε margin added to clawed-back gains when penalizing.
    pub epsilon: Money,
    /// Construction restarts the bank grants before halting.
    pub max_restarts: u32,
    /// The progress value `V` every node forfeits if the mechanism halts.
    pub progress_value: Money,
}

impl Default for Enforcement {
    /// ε = 1, 2 restarts, V = 1,000,000.
    fn default() -> Self {
        Enforcement {
            epsilon: Money::new(1),
            max_restarts: 2,
            progress_value: Money::new(1_000_000),
        }
    }
}

/// The bank of a faithful network over `config`'s topology.
fn bank<'a>(net: &'a Network<NodeOrBank, Latency>, config: &RunConfig) -> &'a BankNode {
    net.node(NodeId::from_index(config.topo.num_nodes())).bank()
}

fn bank_mut<'a>(net: &'a mut Network<NodeOrBank, Latency>, config: &RunConfig) -> &'a mut BankNode {
    net.node_mut(NodeId::from_index(config.topo.num_nodes()))
        .bank_mut()
}

impl Overlay for Enforcement {
    type Actor = NodeOrBank;
    const DEFAULT_MAX_EVENTS: u64 = 10_000_000;
    const SINGLE_RUN: bool = true;
    const STREAMS_CHURN: bool = false;

    /// The topology's faithful nodes, then the bank. A held bank (a
    /// checkpointed run) certifies, but parks instead of green-lighting.
    fn assemble(
        &self,
        config: &RunConfig,
        mut strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        hold: bool,
    ) -> (Vec<NodeOrBank>, Connectivity) {
        let topo = &config.topo;
        let bank_id = NodeId::from_index(topo.num_nodes());
        let max_hops = (4 * topo.num_nodes()) as u32;
        let mut actors: Vec<NodeOrBank> = topo
            .nodes()
            .map(|me| {
                NodeOrBank::Node(Box::new(FaithfulNode::new(
                    me,
                    topo,
                    config.true_costs.cost(me),
                    strategies(me),
                    bank_id,
                    ChannelKey::derive(BANK_SECRET, me.raw()),
                    max_hops,
                )))
            })
            .collect();
        let mut bank = BankNode::new(topo.clone(), BANK_SECRET, self.max_restarts, self.epsilon);
        if hold {
            bank = bank.with_execution_hold();
        }
        actors.push(NodeOrBank::Bank(Box::new(bank)));
        (actors, Connectivity::from_topology_with_overlay(topo, 1))
    }

    /// Re-arms the bank's certification; a halted bank refuses.
    fn admit_cost_event(&self, net: &mut Network<NodeOrBank, Latency>, config: &RunConfig) -> bool {
        let bank = bank_mut(net, config);
        if bank.halted() {
            return false;
        }
        bank.begin_recertification();
        true
    }

    /// Whether the bank certifies the fixed point.
    fn certified(&self, net: &Network<NodeOrBank, Latency>, config: &RunConfig) -> Option<bool> {
        Some(bank(net, config).green_lighted())
    }

    /// Asks the held bank for its green light.
    fn start_execution(&self, net: &mut Network<NodeOrBank, Latency>, config: &RunConfig) {
        bank_mut(net, config).request_execution();
    }

    /// The bank's settlement plus ground-truth node state. When execution
    /// completes,
    ///
    /// ```text
    /// uᵢ = W·delivered(i) + transfersᵢ − penaltiesᵢ − cᵢ·carriedᵢ + V
    /// ```
    ///
    /// and when the mechanism halts, `uᵢ = 0` for everyone: the paper's
    /// "strong negative value when a construction phase does not
    /// progress", V being the progress value forfeited. Enforcement
    /// detected the run if the bank restarted or halted it, charged a
    /// penalty, or any bank-channel MAC failed.
    fn settle(
        &self,
        net: &mut Network<NodeOrBank, Latency>,
        config: &RunConfig,
        _checked: Option<bool>,
    ) -> Verdict {
        let n = config.topo.num_nodes();
        let bank = bank(net, config);
        let green_lighted = bank.green_lighted();
        let halted = bank.halted();
        let restarts = bank.restarts();
        let mut auth_failures = bank.auth_failures();
        for id in config.topo.nodes() {
            auth_failures += net.node(id).node().auth_failures();
        }

        let (utilities, penalties) = match (green_lighted, bank.outcome()) {
            (true, Some(settlement)) => {
                let utilities = config
                    .topo
                    .nodes()
                    .map(|id| {
                        let delivered = settlement.delivered_by_src[id.index()] as i64;
                        let transit_cost = Money::new(config.true_costs.cost(id).value() as i64)
                            .scale(net.node(id).node().carried() as i64);
                        config.settlement.per_packet_value.scale(delivered)
                            + settlement.transfers[id.index()]
                            - settlement.penalties[id.index()]
                            - transit_cost
                            + self.progress_value
                    })
                    .collect();
                (utilities, settlement.penalties.clone())
            }
            // Halted (or still unsettled): nobody progresses, nobody gains.
            _ => (vec![Money::ZERO; n], vec![Money::ZERO; n]),
        };
        let detected = restarts > 0
            || halted
            || auth_failures > 0
            || penalties.iter().any(|p| p.is_positive());
        Verdict {
            utilities,
            detected,
            green_lighted,
            halted,
            restarts,
            penalties,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaith_fpss::deviation::{
        DeflateOwnPricing, DropCheckerForwards, DropCostFlood, DropTransitPackets, Faithful,
        ForceFullRecompute, FullRecomputeFaithful, MisreportCost, SpoofShortRoutes,
        TamperCostFlood, UnderreportPayments,
    };
    use specfaith_fpss::pricing::vcg_payment;
    use specfaith_fpss::runner::{
        converged_table_digests, run, EventStatus, Plain, RunReport, RunState,
    };
    use specfaith_fpss::traffic::{Flow, TrafficMatrix};
    use specfaith_graph::cache::RouteCache;
    use specfaith_graph::costs::CostVector;
    use specfaith_graph::generators::{figure1, Figure1};
    use specfaith_netsim::TopologyEvent;

    fn honest(_: NodeId) -> Box<dyn RationalStrategy> {
        Box::new(Faithful)
    }

    /// `strategy` at `at`, every other node faithful.
    fn deviant(
        at: NodeId,
        strategy: Box<dyn RationalStrategy>,
    ) -> impl FnMut(NodeId) -> Box<dyn RationalStrategy> {
        let mut strategy = Some(strategy);
        move |node| {
            if node == at {
                strategy.take().expect("deviant strategy used once")
            } else {
                Box::new(Faithful)
            }
        }
    }

    /// A faithful run with the default enforcement.
    fn enforced(
        config: &RunConfig,
        strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        seed: u64,
    ) -> RunReport {
        run(config, Enforcement::default(), strategies, seed)
    }

    /// Figure 1 with X→Z, D→Z and Z→X traffic: the faithful instance.
    fn figure1_config() -> (Figure1, RunConfig) {
        let net = figure1();
        let traffic = TrafficMatrix::from_flows(vec![
            Flow {
                src: net.x,
                dst: net.z,
                packets: 5,
            },
            Flow {
                src: net.d,
                dst: net.z,
                packets: 5,
            },
            Flow {
                src: net.z,
                dst: net.x,
                packets: 3,
            },
        ]);
        let config = RunConfig::new(net.topology.clone(), net.costs.clone(), traffic);
        (net, config)
    }

    /// Figure 1 with X→Z and D→Z traffic only: the plain instance.
    fn plain_figure1_config() -> (Figure1, RunConfig) {
        let (net, mut config) = figure1_config();
        config.traffic = TrafficMatrix::from_flows(config.traffic.flows()[..2].to_vec());
        (net, config)
    }

    #[test]
    fn faithful_run_green_lights_without_restarts() {
        let (_, config) = figure1_config();
        let run = enforced(&config, honest, 1);
        assert!(run.green_lighted(), "honest construction certifies");
        assert!(!run.halted());
        assert_eq!(run.restarts(), 0);
        assert!(!run.detected);
        assert!(!run.truncated);
    }

    #[test]
    fn faithful_utilities_are_strictly_positive() {
        // Required for halting to be a real punishment: every node must
        // strictly prefer the mechanism completing.
        let (_, config) = figure1_config();
        let run = enforced(&config, honest, 1);
        for (i, u) in run.utilities.iter().enumerate() {
            assert!(u.is_positive(), "node {i} has utility {u}");
        }
    }

    #[test]
    fn faithful_nodes_converge_to_vcg_tables() {
        let (net, config) = figure1_config();
        // Re-run manually to inspect node state.
        let run = enforced(&config, honest, 1);
        assert!(run.green_lighted());
        // The faithful run's tables are checked indirectly by the bank
        // (hash equality across principal and checkers); sanity-check one
        // payment figure: X pays C p^C per packet, 5 packets.
        let routes = RouteCache::new(net.topology.clone(), net.costs.clone());
        let p_c = vcg_payment(&routes, net.x, net.z, net.c).expect("C on X→Z LCP");
        assert!(p_c.is_positive());
    }

    #[test]
    fn construction_deviations_are_caught_and_halt() {
        let (net, config) = figure1_config();
        for (name, strategy) in [
            (
                "spoof-short-routes",
                Box::new(SpoofShortRoutes) as Box<dyn RationalStrategy>,
            ),
            (
                "deflate-own-pricing",
                Box::new(DeflateOwnPricing { keep_percent: 50 }),
            ),
            ("drop-checker-forwards", Box::new(DropCheckerForwards)),
        ] {
            let run = enforced(&config, deviant(net.c, strategy), 1);
            assert!(run.detected, "{name} must be detected");
            assert!(
                !run.green_lighted(),
                "{name}: corrupted construction must never green-light"
            );
            assert!(run.halted(), "{name}: persistent deviant halts mechanism");
            assert!(run.restarts() > 0, "{name}: bank retried before halting");
        }
    }

    #[test]
    fn construction_deviations_are_strictly_unprofitable() {
        let (net, config) = figure1_config();
        let faithful = enforced(&config, honest, 1);
        let run = enforced(&config, deviant(net.c, Box::new(SpoofShortRoutes)), 1);
        assert!(
            run.utilities[net.c.index()] < faithful.utilities[net.c.index()],
            "halting forfeits the progress value"
        );
    }

    #[test]
    fn execution_deviations_are_penalized_into_unprofitability() {
        let (net, config) = figure1_config();
        let faithful = enforced(&config, honest, 1);

        // Payment fraud: caught by reconciliation, penalty ε-above.
        let fraud = enforced(
            &config,
            deviant(net.x, Box::new(UnderreportPayments { keep_percent: 10 })),
            1,
        );
        assert!(fraud.green_lighted(), "construction was honest");
        assert!(fraud.detected);
        assert!(fraud.penalties()[net.x.index()].is_positive());
        assert!(
            fraud.utilities[net.x.index()] < faithful.utilities[net.x.index()],
            "underreporting strictly loses: {} vs {}",
            fraud.utilities[net.x.index()],
            faithful.utilities[net.x.index()]
        );

        // Packet dropping: caught by flow conservation.
        let drop = enforced(&config, deviant(net.c, Box::new(DropTransitPackets)), 1);
        assert!(drop.detected);
        assert!(drop.penalties()[net.c.index()].is_positive());
        assert!(
            drop.utilities[net.c.index()] < faithful.utilities[net.c.index()],
            "dropping strictly loses: {} vs {}",
            drop.utilities[net.c.index()],
            faithful.utilities[net.c.index()]
        );
    }

    #[test]
    fn honest_runs_certify_tables_matching_the_centralized_reference() {
        let (_, config) = figure1_config();
        let run = enforced(&config, honest, 1);
        assert_eq!(
            run.tables_match_centralized(),
            Some(true),
            "green-lighted tables must equal the VCG reference"
        );
        // A construction-corrupting deviant halts before certifying:
        // there are no green-lighted tables to compare.
        let (net, config) = figure1_config();
        let halted = enforced(&config, deviant(net.c, Box::new(SpoofShortRoutes)), 1);
        assert!(!halted.green_lighted());
        assert_eq!(halted.tables_match_centralized(), None);
    }

    /// Asserts that two runs settled alike: utilities, penalties, green
    /// light, restarts, detection, reference agreement and message count.
    fn assert_same_settlement(a: &RunReport, b: &RunReport, label: &str) {
        assert_eq!(a.utilities, b.utilities, "{label}");
        assert_eq!(a.penalties(), b.penalties(), "{label}");
        assert_eq!(a.green_lighted(), b.green_lighted(), "{label}");
        assert_eq!(a.restarts(), b.restarts(), "{label}");
        assert_eq!(a.detected, b.detected, "{label}");
        assert_eq!(
            a.tables_match_centralized(),
            b.tables_match_centralized(),
            "{label}"
        );
        assert_eq!(
            a.stats.total_msgs(),
            b.stats.total_msgs(),
            "{label}: announcement traffic must be identical"
        );
    }

    #[test]
    fn safe_deviants_take_the_incremental_path_byte_identically() {
        // Deviant-node recompute: strategies whose computation hooks are
        // the identity declare destination-scoped safety and ride the
        // incremental path — observationally indistinguishable (same
        // utilities, penalties, detection, message counts and reference
        // agreement) from the same strategy forced onto the full-table
        // recompute, under plain FPSS and under the full enforcement stack.
        let (net, config) = plain_figure1_config();
        type StrategyFactory = Box<dyn Fn() -> Box<dyn RationalStrategy>>;
        let cases: Vec<(StrategyFactory, &str)> = vec![
            (
                Box::new(|| Box::new(MisreportCost { delta: 3 })),
                "misreport",
            ),
            (
                Box::new(|| Box::new(TamperCostFlood { multiplier: 7 })),
                "tamper-flood",
            ),
            (Box::new(|| Box::new(DropCostFlood)), "drop-flood"),
            (Box::new(|| Box::new(DropTransitPackets)), "drop-packets"),
            (
                Box::new(|| Box::new(UnderreportPayments { keep_percent: 10 })),
                "underreport",
            ),
        ];
        for (make, label) in cases {
            assert!(
                make().dst_scoped_recompute_safe(),
                "{label} must declare destination-scoped safety"
            );
            let fast = run(&config, Plain, deviant(net.c, make()), 3);
            let forced = Box::new(ForceFullRecompute(make()));
            let slow = run(&config, Plain, deviant(net.c, forced), 3);
            assert_same_settlement(&fast, &slow, label);
        }

        let (net, config) = figure1_config();
        let fast = enforced(
            &config,
            deviant(net.c, Box::new(MisreportCost { delta: 3 })),
            1,
        );
        let forced = ForceFullRecompute(Box::new(MisreportCost { delta: 3 }));
        let slow = enforced(&config, deviant(net.c, Box::new(forced)), 1);
        assert_same_settlement(&fast, &slow, "faithful misreport");
    }

    #[test]
    fn incremental_recompute_is_byte_identical_to_full() {
        // The destination-scoped fast path must be observationally
        // indistinguishable from the full recompute: same converged
        // tables, same announcements (hence same message counts), same
        // utilities — for plain FPSS on Figure 1 and random biconnected
        // graphs, and under the whole faithful enforcement stack: checker
        // mirrors, bank hash checkpoints, reconciliation, settlement.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use specfaith_graph::generators::{random_biconnected, scale_free};

        let mut configs = vec![plain_figure1_config().1];
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 6 + (seed as usize % 6);
            let topo = random_biconnected(n, n / 2, &mut rng);
            let costs = CostVector::random(n, 0, 15, &mut rng);
            let traffic = TrafficMatrix::random(n, 3, 2, &mut rng);
            configs.push(RunConfig::new(topo, costs, traffic));
        }
        // Larger instances exercise the flood-time destination scoping
        // (dsts_affected_by_cost) across longer convergence runs.
        for seed in [100u64, 101] {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = scale_free(24, 2, &mut rng);
            let costs = CostVector::random(24, 1, 20, &mut rng);
            let traffic = TrafficMatrix::random(24, 5, 2, &mut rng);
            configs.push(RunConfig::new(topo, costs, traffic));
        }
        for (i, config) in configs.iter().enumerate() {
            let fast = run(config, Plain, honest, 3);
            let slow = run(config, Plain, |_| Box::new(FullRecomputeFaithful), 3);
            assert_same_settlement(&fast, &slow, &format!("config {i}"));
        }

        let (_, config) = figure1_config();
        let fast = enforced(&config, honest, 1);
        let slow = enforced(&config, |_| Box::new(FullRecomputeFaithful), 1);
        assert_same_settlement(&fast, &slow, "faithful");
    }

    /// Checkpoint-then-finish against the one-shot run, with a fresh
    /// strategy assignment from `strategies` for each.
    fn assert_staged_matches_one_shot<O: Overlay + Copy, S>(
        config: &RunConfig,
        overlay: O,
        strategies: impl Fn() -> S,
        seed: u64,
    ) where
        S: FnMut(NodeId) -> Box<dyn RationalStrategy>,
    {
        let label = format!("seed {seed}");
        let oneshot = run(config, overlay, strategies(), seed);
        let staged = RunState::checkpoint(config, overlay, strategies(), seed).finish();
        assert_same_settlement(&oneshot, &staged, &label);
        assert_eq!(oneshot.final_time, staged.final_time, "{label}");
        assert_eq!(oneshot.truncated, staged.truncated, "{label}");
    }

    #[test]
    fn checkpoint_then_finish_matches_the_one_shot_run() {
        // Suspending at the plain fixed point and immediately finishing is
        // the one-shot run, honest or misreporting.
        let (net, config) = plain_figure1_config();
        for seed in [1u64, 3, 9] {
            assert_staged_matches_one_shot(&config, Plain, || honest, seed);
            let misreport = || deviant(net.c, Box::new(MisreportCost { delta: 2 }));
            assert_staged_matches_one_shot(&config, Plain, misreport, seed);
        }

        // Parking the faithful bank at certification and immediately
        // releasing execution reproduces the one-shot lifecycle: the held
        // green light is the same broadcast, just issued from a later
        // quiescence round, and the pause consumes no virtual time.
        let (_, config) = figure1_config();
        let state = RunState::checkpoint(&config, Enforcement::default(), honest, 1);
        let held = bank(state.network(), &config);
        assert!(held.green_lighted(), "honest checkpoint certifies");
        assert!(!held.halted());
        assert_eq!(held.restarts(), 0);
        assert_staged_matches_one_shot(&config, Enforcement::default(), || honest, 1);
    }

    /// Streams C→9, D→0 and C→9 again (re-declaring the current value
    /// still floods but changes nothing) from a checkpoint at `seed`, and
    /// checks every fixed point against a cold plain run seeded
    /// `cold_seed + i`, then the finished run.
    fn assert_stream_lands_on_cold<O: Overlay>(
        config: &RunConfig,
        overlay: O,
        seed: u64,
        cold_seed: u64,
    ) {
        let net = figure1();
        let mut state = RunState::checkpoint(config, overlay, honest, seed);
        assert!(state.tables_match_centralized());
        for (i, (node, cost)) in [(net.c, 9u64), (net.d, 0), (net.c, 9)]
            .into_iter()
            .enumerate()
        {
            let outcome = state.apply_event(&TopologyEvent::NodeCost { node, cost });
            assert_eq!(outcome.status, EventStatus::Applied, "event {i}");
            assert_eq!(
                outcome.verified,
                Some(true),
                "event {i}: the reference check (plain), or principal, announced \
                 and mirror hashes (faithful), must re-agree"
            );
            assert!(outcome.messages > 0, "event {i}: the CostUpdate must flood");
            assert!(!outcome.truncated, "event {i}");
            // Both mechanisms converge the same FpssCore fixed point a cold
            // plain run does.
            let cold = converged_table_digests(
                &config.topo,
                state.declared(),
                config.latency,
                cold_seed + i as u64,
            );
            assert_eq!(
                state.table_digests(),
                cold,
                "event {i}: streamed fixed point diverged from a cold run"
            );
        }
        let result = state.finish();
        assert_eq!(result.tables_match_centralized(), Some(true));
        assert!(!result.truncated);
        assert!(result.green_lighted());
        assert!(!result.detected);
    }

    #[test]
    fn streamed_cost_events_land_on_the_cold_fixed_point() {
        let (_, config) = plain_figure1_config();
        assert_stream_lands_on_cold(&config, Plain, 3, 7);
        let (_, config) = figure1_config();
        assert_stream_lands_on_cold(&config, Enforcement::default(), 1, 23);
    }

    #[test]
    fn streamed_churn_reports_the_liveness_hole_instead_of_hanging() {
        let (net, config) = figure1_config();
        let mut state = RunState::checkpoint(&config, Enforcement::default(), honest, 1);
        let baseline = state.table_digests();
        for event in [
            TopologyEvent::NodeDown(net.c),
            TopologyEvent::NodeUp(net.c),
            TopologyEvent::Partition {
                island: vec![net.x],
            },
            TopologyEvent::Heal,
        ] {
            let outcome = state.apply_event(&event);
            assert_eq!(
                outcome.status,
                EventStatus::LivenessHole,
                "{event:?}: churn stalls the bank's signed hash round; it \
                 must be refused, not streamed"
            );
            assert_eq!(outcome.messages, 0);
            assert_eq!(outcome.verified, None);
        }
        // The certified fixed point is untouched and still usable.
        assert_eq!(state.table_digests(), baseline);
        assert!(bank(state.network(), &config).green_lighted());
        let result = state.finish();
        assert!(result.green_lighted());
    }
}
