//! The faithful-mechanism run engine: configuration + one-shot run
//! functions.
//!
//! [`FaithfulConfig`] is the plain-data description of one faithful-FPSS
//! instance; [`run_faithful`] assembles the topology nodes plus the bank,
//! runs the whole lifecycle (construction → checkpoints → execution →
//! settlement) inside a single simulator run driven by the bank's
//! quiescence hooks, and converts the bank's settlement plus ground-truth
//! node state into realized utilities. The `specfaith::scenario` layer
//! drives this engine directly.
//!
//! The centralized reference check of a green-lighted run draws from the
//! configuration's own [`CacheScope`], with the same discipline as the
//! plain engine: the true-cost cache is pinned and shared by repeated
//! runs, and any other declaration's cache is released after its check.
//!
//! Utility model (see DESIGN.md):
//!
//! ```text
//! uᵢ = W·delivered(i) + transfersᵢ − penaltiesᵢ − cᵢ·carriedᵢ + V
//! ```
//!
//! when execution completes, and `uᵢ = 0` for everyone when the mechanism
//! halts (the paper's "strong negative value when a construction phase
//! does not progress" — V is the progress value forfeited).

use crate::actor::NodeOrBank;
use crate::bank::BankNode;
use crate::node::FaithfulNode;
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_crypto::sha256::Digest;
use specfaith_fpss::deviation::{Faithful, RationalStrategy};
use specfaith_fpss::node::{StreamCommand, TAG_STREAM};
use specfaith_fpss::pricing::tables_match;
use specfaith_fpss::runner::ReferenceCheck;
use specfaith_fpss::settle::SettlementConfig;
use specfaith_fpss::traffic::TrafficMatrix;
use specfaith_graph::cache::CacheScope;
use specfaith_graph::costs::CostVector;
use specfaith_graph::topology::Topology;
use specfaith_netsim::{
    Connectivity, Dynamics, Latency, NetModel, NetStats, Network, SimDuration, SimTime,
    TopologyEvent,
};
use std::collections::BTreeMap;

/// Plain-data configuration of a faithful-FPSS simulation instance.
#[derive(Clone, Debug)]
pub struct FaithfulConfig {
    /// The (biconnected) topology.
    pub topo: Topology,
    /// True per-node transit costs.
    pub true_costs: CostVector,
    /// Execution-phase traffic.
    pub traffic: TrafficMatrix,
    /// Settlement parameters (per-packet value `W`).
    pub settlement: SettlementConfig,
    /// The progress value `V` every node forfeits if the mechanism halts.
    pub progress_value: Money,
    /// The ε margin added to clawed-back gains when penalizing.
    pub epsilon: Money,
    /// Construction restarts the bank grants before halting.
    pub max_restarts: u32,
    /// Link latency model.
    pub latency: Latency,
    /// Network model deciding delivery from message size and link load
    /// (default [`NetModel::Ideal`]: latency-only, byte-identical to the
    /// pre-model engine).
    pub network: NetModel,
    /// Scheduled topology dynamics (default: none). Note the bank overlay
    /// node (id `n`) is subject to dynamics like any other: a partition
    /// that excludes it from its island severs checkpointing — the
    /// documented liveness failure mode probed by `tests/network_models.rs`.
    pub dynamics: Dynamics,
    /// Event budget before a run is truncated.
    pub max_events: u64,
    /// Secret the bank derives per-node channel keys from.
    pub bank_secret: Vec<u8>,
    /// Route-cache registry the harness's centralized reference check
    /// draws from. Each configuration gets a fresh scope; sweep engines
    /// thread a scope of their own so the caches die with the workload.
    pub routes: CacheScope,
    /// Scope of the post-green-light reference comparison.
    pub reference_check: ReferenceCheck,
}

impl FaithfulConfig {
    /// A configuration with the default enforcement parameters, latency,
    /// and event budget.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not biconnected or arities mismatch.
    pub fn new(topo: Topology, true_costs: CostVector, traffic: TrafficMatrix) -> Self {
        assert!(topo.is_biconnected(), "FPSS requires a biconnected graph");
        assert_eq!(topo.num_nodes(), true_costs.len(), "cost arity");
        FaithfulConfig {
            topo,
            true_costs,
            traffic,
            settlement: SettlementConfig::default(),
            progress_value: Money::new(1_000_000),
            epsilon: Money::new(1),
            max_restarts: 2,
            latency: Latency::DEFAULT,
            network: NetModel::DEFAULT,
            dynamics: Dynamics::new(),
            max_events: 10_000_000,
            bank_secret: b"specfaith-bank-secret".to_vec(),
            routes: CacheScope::eager(),
            reference_check: ReferenceCheck::Full,
        }
    }
}

/// Result of one faithful run.
#[derive(Clone, Debug)]
pub struct FaithfulRunResult {
    /// Realized utility per topology node.
    pub utilities: Vec<Money>,
    /// Whether construction was certified and execution ran.
    pub green_lighted: bool,
    /// Whether the mechanism halted (restart budget exhausted).
    pub halted: bool,
    /// Construction restarts performed by the bank.
    pub restarts: u32,
    /// Whether enforcement flagged anything: restarts, halt, penalties,
    /// or authentication failures.
    pub detected: bool,
    /// Penalties charged per node.
    pub penalties: Vec<Money>,
    /// Whether every checked node's certified tables equal the
    /// centralized VCG reference under the declared costs — `Some(_)`
    /// when construction green-lighted (the check draws routes from the
    /// config's [`CacheScope`]), `None` when the mechanism halted before
    /// certifying any tables.
    pub tables_match_centralized: Option<bool>,
    /// Simulator traffic statistics for the whole lifecycle.
    pub stats: NetStats,
    /// Virtual time at which the run settled.
    pub final_time: SimTime,
    /// Whether the event budget truncated the run.
    pub truncated: bool,
}

/// Runs the faithful mechanism with every node honest.
pub fn run_faithful_honest(config: &FaithfulConfig, seed: u64) -> FaithfulRunResult {
    run_faithful(config, |_| Box::new(Faithful), seed)
}

/// Runs the faithful mechanism with `deviant` playing `strategy` and
/// everyone else honest.
pub fn run_faithful_with_deviant(
    config: &FaithfulConfig,
    deviant: NodeId,
    strategy: Box<dyn RationalStrategy>,
    seed: u64,
) -> FaithfulRunResult {
    let mut strategy = Some(strategy);
    run_faithful(
        config,
        move |node| {
            if node == deviant {
                strategy.take().expect("deviant strategy used once")
            } else {
                Box::new(Faithful)
            }
        },
        seed,
    )
}

/// Runs the faithful mechanism with an arbitrary strategy assignment: the
/// whole lifecycle (construction, bank checkpoints, execution, reconciled
/// settlement) in one simulator run.
pub fn run_faithful(
    config: &FaithfulConfig,
    strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
    seed: u64,
) -> FaithfulRunResult {
    let mut net = assemble(config, strategies, seed, true, false);
    let outcome = net.run();
    harvest(config, &net, outcome.final_time, outcome.truncated)
}

/// Builds the actor set (nodes + bank) and the simulated network for one
/// faithful instance. `queue_traffic` loads the execution flows up front
/// (the one-shot engine); the streaming engine holds them back until
/// [`FaithfulRunState::finish`]. `hold_execution` puts the bank in
/// streaming mode (certify, then park instead of green-lighting).
fn assemble(
    config: &FaithfulConfig,
    mut strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
    seed: u64,
    queue_traffic: bool,
    hold_execution: bool,
) -> Network<NodeOrBank, Latency> {
    let n = config.topo.num_nodes();
    let bank_id = NodeId::from_index(n);
    let max_hops = (4 * n) as u32;
    let neighbor_map: BTreeMap<NodeId, Vec<NodeId>> = config
        .topo
        .nodes()
        .map(|v| (v, config.topo.neighbors(v).to_vec()))
        .collect();

    let mut actors: Vec<NodeOrBank> = config
        .topo
        .nodes()
        .map(|me| {
            NodeOrBank::Node(Box::new(FaithfulNode::new(
                me,
                config.topo.neighbors(me).to_vec(),
                neighbor_map.clone(),
                config.true_costs.cost(me),
                strategies(me),
                bank_id,
                specfaith_crypto::auth::ChannelKey::derive(&config.bank_secret, me.raw()),
                max_hops,
            )))
        })
        .collect();
    let mut bank = BankNode::new(
        config.topo.clone(),
        &config.bank_secret,
        config.max_restarts,
        config.epsilon,
    );
    if hold_execution {
        bank = bank.with_execution_hold();
    }
    actors.push(NodeOrBank::Bank(Box::new(bank)));

    if queue_traffic {
        // Queue execution traffic up front; nodes send it on green light.
        for flow in config.traffic.flows() {
            actors[flow.src.index()]
                .node_mut()
                .add_traffic(flow.dst, flow.packets);
        }
    }

    Network::new(
        Connectivity::from_topology_with_overlay(&config.topo, 1),
        actors,
        config.latency,
        seed,
    )
    .with_network(&config.network)
    .with_dynamics(&config.dynamics)
    .with_max_events(config.max_events)
}

/// Converts a settled network into a [`FaithfulRunResult`]: utilities from
/// the bank's settlement plus ground-truth node state, detection flags, and
/// the post-green-light centralized reference comparison.
fn harvest(
    config: &FaithfulConfig,
    net: &Network<NodeOrBank, Latency>,
    final_time: SimTime,
    truncated: bool,
) -> FaithfulRunResult {
    let n = config.topo.num_nodes();
    let bank_id = NodeId::from_index(n);
    let bank = net.node(bank_id).bank();
    let green_lighted = bank.green_lighted();
    let halted = bank.halted();
    let restarts = bank.restarts();
    let mut auth_failures = bank.auth_failures();
    for id in config.topo.nodes() {
        auth_failures += net.node(id).node().auth_failures();
    }

    let (utilities, penalties) = match (green_lighted, bank.outcome()) {
        (true, Some(settlement)) => {
            let mut utilities = Vec::with_capacity(n);
            for id in config.topo.nodes() {
                let node = net.node(id).node();
                let delivered = settlement.delivered_by_src[id.index()] as i64;
                let transit_cost = Money::new(config.true_costs.cost(id).value() as i64)
                    .scale(node.carried() as i64);
                let u = config.settlement.per_packet_value.scale(delivered)
                    + settlement.transfers[id.index()]
                    - settlement.penalties[id.index()]
                    - transit_cost
                    + config.progress_value;
                utilities.push(u);
            }
            (utilities, settlement.penalties.clone())
        }
        // Halted (or still unsettled): nobody progresses, nobody gains.
        _ => (vec![Money::ZERO; n], vec![Money::ZERO; n]),
    };

    let detected =
        restarts > 0 || halted || auth_failures > 0 || penalties.iter().any(|p| p.is_positive());

    // Once the bank certifies construction, the certified tables can be
    // compared against the centralized VCG reference under the declared
    // costs, drawing routes from the config's cache scope exactly as the
    // plain engine does.
    let tables_match_centralized = if green_lighted {
        let declared: CostVector = config
            .topo
            .nodes()
            .map(|id| net.node(id).node().declared_cost().expect("started"))
            .collect();
        let routes = if declared == config.true_costs {
            config.routes.pin(&config.topo, &declared)
        } else {
            config.routes.cache(&config.topo, &declared)
        };
        let ok = config.reference_check.sources(n).iter().all(|&id| {
            let core = net.node(id).node().core();
            tables_match(&routes, id, core.routes(), core.prices())
        });
        // A misreport's single-use cache is dropped here; the pinned
        // true-cost cache stays.
        config.routes.release(&routes);
        Some(ok)
    } else {
        None
    };

    FaithfulRunResult {
        utilities,
        green_lighted,
        halted,
        restarts,
        detected,
        penalties,
        tables_match_centralized,
        stats: net.stats().clone(),
        final_time,
        truncated,
    }
}

/// How a streamed [`TopologyEvent`] was handled by
/// [`FaithfulRunState::apply_event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaithfulEventStatus {
    /// The cost re-declaration was absorbed and a recertification round ran.
    Applied,
    /// A transport latency override only; nothing to re-converge or
    /// recertify.
    LatencyOnly,
    /// Rejected: the node is unknown, or the bank has already halted.
    Rejected,
    /// Churn and partition events hit the faithful mechanism's documented
    /// liveness hole and are refused (reported, never streamed): the bank's
    /// checkpointing requires every node to answer signed hash requests, so
    /// a node leaving — or any partition separating the bank from part of
    /// the network — stalls certification forever rather than failing it
    /// (§4.2 assumes a reliable network; the paper has no churn story).
    /// `tests/network_models.rs` probes the same hole at the transport
    /// level.
    LivenessHole,
}

/// Per-event report from [`FaithfulRunState::apply_event`].
#[derive(Clone, Copy, Debug)]
pub struct FaithfulEventOutcome {
    /// How the event was handled.
    pub status: FaithfulEventStatus,
    /// Messages delivered re-converging and recertifying (protocol flood,
    /// table announcements, and the bank's hash round).
    pub messages: u64,
    /// Virtual time the re-convergence plus recertification took.
    pub micros: u64,
    /// `micros` in whole message rounds under fixed latency; `None` under
    /// jitter.
    pub rounds: Option<u64>,
    /// Whether the bank re-certified the new fixed point (`Some` exactly
    /// when the event applied): principal, announced, and recomputed-mirror
    /// hashes all agree again.
    pub recertified: Option<bool>,
    /// Whether the event budget truncated this re-convergence.
    pub truncated: bool,
}

/// A faithful-mechanism run suspended at a bank-certified fixed point.
///
/// The streaming counterpart of [`run_faithful`], built from the same
/// `assemble`/`harvest` pieces: [`checkpoint`](FaithfulRunState::checkpoint)
/// converges construction and stops at certification (the bank is put in
/// execution hold: it certifies, but parks instead of green-lighting);
/// [`apply_event`](FaithfulRunState::apply_event) streams a
/// [`TopologyEvent::NodeCost`] re-declaration through the live network —
/// CostUpdate flood, destination-scoped recompute at every node *and every
/// checker mirror*, then a full bank recertification round — and
/// [`finish`](FaithfulRunState::finish) releases the held execution phase
/// and settles.
///
/// Unlike [`PlainRunState`](specfaith_fpss::runner::PlainRunState), churn is
/// **not** streamable here: see [`FaithfulEventStatus::LivenessHole`].
pub struct FaithfulRunState {
    config: FaithfulConfig,
    net: Network<NodeOrBank, Latency>,
    bank_id: NodeId,
    declared: CostVector,
    truncated: bool,
}

impl FaithfulRunState {
    /// Runs construction to convergence and bank certification, holding
    /// execution. The returned state is the certified fixed point.
    pub fn checkpoint(
        config: &FaithfulConfig,
        strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        seed: u64,
    ) -> FaithfulRunState {
        let mut net = assemble(config, strategies, seed, false, true);
        let outcome = net.run();
        let declared: CostVector = config
            .topo
            .nodes()
            .map(|id| net.node(id).node().declared_cost().expect("started"))
            .collect();
        FaithfulRunState {
            config: config.clone(),
            net,
            bank_id: NodeId::from_index(config.topo.num_nodes()),
            declared,
            truncated: outcome.truncated,
        }
    }

    /// Streams one topology event against the certified fixed point.
    pub fn apply_event(&mut self, event: &TopologyEvent) -> FaithfulEventOutcome {
        let msgs_before = self.net.stats().msgs_delivered;
        let t_before = self.net.now();
        let was_truncated = self.truncated;
        let mut recertified = None;
        let status = match *event {
            TopologyEvent::NodeCost { node, cost } => {
                if node.index() >= self.config.topo.num_nodes() || self.halted() {
                    FaithfulEventStatus::Rejected
                } else {
                    self.net
                        .node_mut(self.bank_id)
                        .bank_mut()
                        .begin_recertification();
                    self.net
                        .node_mut(node)
                        .node_mut()
                        .queue_stream_command(StreamCommand::DeclareCost(Cost::new(cost)));
                    self.net.schedule_timer(node, SimDuration::ZERO, TAG_STREAM);
                    let outcome = self.net.run();
                    self.truncated |= outcome.truncated;
                    let declared = self.net.node(node).node().declared_cost().expect("started");
                    self.declared = self.declared.with_cost(node, declared);
                    recertified = Some(self.net.node(self.bank_id).bank().green_lighted());
                    FaithfulEventStatus::Applied
                }
            }
            TopologyEvent::LinkCost { .. } => {
                self.net.apply_dynamics_event(event);
                FaithfulEventStatus::LatencyOnly
            }
            TopologyEvent::NodeDown(_)
            | TopologyEvent::NodeUp(_)
            | TopologyEvent::Partition { .. }
            | TopologyEvent::Heal => FaithfulEventStatus::LivenessHole,
        };
        let micros = (self.net.now() - t_before).micros();
        let rounds = match self.config.latency {
            Latency::Fixed { micros: per_hop } if per_hop > 0 => Some(micros / per_hop),
            _ => None,
        };
        FaithfulEventOutcome {
            status,
            messages: self.net.stats().msgs_delivered - msgs_before,
            micros,
            rounds,
            recertified,
            truncated: self.truncated && !was_truncated,
        }
    }

    /// Releases the held execution phase and settles, consuming the state.
    pub fn finish(mut self) -> FaithfulRunResult {
        for flow in self.config.traffic.flows() {
            self.net
                .node_mut(flow.src)
                .node_mut()
                .add_traffic(flow.dst, flow.packets);
        }
        self.net
            .node_mut(self.bank_id)
            .bank_mut()
            .request_execution();
        let outcome = self.net.run();
        self.truncated |= outcome.truncated;
        harvest(&self.config, &self.net, outcome.final_time, self.truncated)
    }

    /// Per-node `(data1, routing, pricing)` digests of the certified
    /// tables, in node order — directly comparable with the plain engine's
    /// cold oracle (`specfaith_fpss::runner::converged_table_digests`),
    /// since both mechanisms converge the same [`FpssCore`] fixed point.
    ///
    /// [`FpssCore`]: specfaith_fpss::node::FpssCore
    pub fn table_digests(&self) -> Vec<(Digest, Digest, Digest)> {
        self.config
            .topo
            .nodes()
            .map(|id| {
                let core = self.net.node(id).node().core();
                (
                    core.data1().digest(),
                    core.routes().digest(),
                    core.prices().digest(),
                )
            })
            .collect()
    }

    /// The declared cost vector at the certified fixed point.
    pub fn declared(&self) -> &CostVector {
        &self.declared
    }

    /// Whether the bank currently certifies the fixed point.
    pub fn green_lighted(&self) -> bool {
        self.net.node(self.bank_id).bank().green_lighted()
    }

    /// Whether the bank has halted (restart budget exhausted during a
    /// checkpoint or recertification).
    pub fn halted(&self) -> bool {
        self.net.node(self.bank_id).bank().halted()
    }

    /// Construction restarts the bank has performed so far.
    pub fn restarts(&self) -> u32 {
        self.net.node(self.bank_id).bank().restarts()
    }

    /// Cumulative transport statistics.
    pub fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// The configuration this state was checkpointed from.
    pub fn config(&self) -> &FaithfulConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaith_fpss::deviation::{
        DeflateOwnPricing, DropCheckerForwards, DropTransitPackets, SpoofShortRoutes,
        UnderreportPayments,
    };
    use specfaith_fpss::pricing::vcg_payment;
    use specfaith_fpss::traffic::Flow;
    use specfaith_graph::cache::RouteCache;
    use specfaith_graph::generators::figure1;

    fn figure1_config() -> (specfaith_graph::generators::Figure1, FaithfulConfig) {
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
        let config = FaithfulConfig::new(net.topology.clone(), net.costs.clone(), traffic);
        (net, config)
    }

    #[test]
    fn faithful_run_green_lights_without_restarts() {
        let (_, config) = figure1_config();
        let run = run_faithful_honest(&config, 1);
        assert!(run.green_lighted, "honest construction certifies");
        assert!(!run.halted);
        assert_eq!(run.restarts, 0);
        assert!(!run.detected);
        assert!(!run.truncated);
    }

    #[test]
    fn faithful_utilities_are_strictly_positive() {
        // Required for halting to be a real punishment: every node must
        // strictly prefer the mechanism completing.
        let (_, config) = figure1_config();
        let run = run_faithful_honest(&config, 1);
        for (i, u) in run.utilities.iter().enumerate() {
            assert!(u.is_positive(), "node {i} has utility {u}");
        }
    }

    #[test]
    fn faithful_nodes_converge_to_vcg_tables() {
        let (net, config) = figure1_config();
        // Re-run manually to inspect node state.
        let run = run_faithful_honest(&config, 1);
        assert!(run.green_lighted);
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
            let run = run_faithful_with_deviant(&config, net.c, strategy, 1);
            assert!(run.detected, "{name} must be detected");
            assert!(
                !run.green_lighted,
                "{name}: corrupted construction must never green-light"
            );
            assert!(run.halted, "{name}: persistent deviant halts mechanism");
            assert!(run.restarts > 0, "{name}: bank retried before halting");
        }
    }

    #[test]
    fn construction_deviations_are_strictly_unprofitable() {
        let (net, config) = figure1_config();
        let faithful = run_faithful_honest(&config, 1);
        let run = run_faithful_with_deviant(&config, net.c, Box::new(SpoofShortRoutes), 1);
        assert!(
            run.utilities[net.c.index()] < faithful.utilities[net.c.index()],
            "halting forfeits the progress value"
        );
    }

    #[test]
    fn execution_deviations_are_penalized_into_unprofitability() {
        let (net, config) = figure1_config();
        let faithful = run_faithful_honest(&config, 1);

        // Payment fraud: caught by reconciliation, penalty ε-above.
        let fraud = run_faithful_with_deviant(
            &config,
            net.x,
            Box::new(UnderreportPayments { keep_percent: 10 }),
            1,
        );
        assert!(fraud.green_lighted, "construction was honest");
        assert!(fraud.detected);
        assert!(fraud.penalties[net.x.index()].is_positive());
        assert!(
            fraud.utilities[net.x.index()] < faithful.utilities[net.x.index()],
            "underreporting strictly loses: {} vs {}",
            fraud.utilities[net.x.index()],
            faithful.utilities[net.x.index()]
        );

        // Packet dropping: caught by flow conservation.
        let drop = run_faithful_with_deviant(&config, net.c, Box::new(DropTransitPackets), 1);
        assert!(drop.detected);
        assert!(drop.penalties[net.c.index()].is_positive());
        assert!(
            drop.utilities[net.c.index()] < faithful.utilities[net.c.index()],
            "dropping strictly loses: {} vs {}",
            drop.utilities[net.c.index()],
            faithful.utilities[net.c.index()]
        );
    }

    use specfaith_fpss::deviation::{ForceFullRecompute, FullRecomputeFaithful, MisreportCost};

    #[test]
    fn honest_runs_certify_tables_matching_the_centralized_reference() {
        let (_, config) = figure1_config();
        let run = run_faithful_honest(&config, 1);
        assert_eq!(
            run.tables_match_centralized,
            Some(true),
            "green-lighted tables must equal the VCG reference"
        );
        // A construction-corrupting deviant halts before certifying:
        // there are no green-lighted tables to compare.
        let (net, config) = figure1_config();
        let halted = run_faithful_with_deviant(&config, net.c, Box::new(SpoofShortRoutes), 1);
        assert!(!halted.green_lighted);
        assert_eq!(halted.tables_match_centralized, None);
    }

    #[test]
    fn safe_deviants_take_the_incremental_path_byte_identically() {
        // The deviant-node recompute satellite, under the full
        // enforcement stack: a destination-scoped-safe deviant
        // (MisreportCost only perturbs its declaration) on the
        // incremental path is indistinguishable from the same deviant
        // forced onto the full recompute — same utilities, penalties,
        // detection, and message counts.
        let (net, config) = figure1_config();
        let fast =
            run_faithful_with_deviant(&config, net.c, Box::new(MisreportCost { delta: 3 }), 1);
        let slow = run_faithful_with_deviant(
            &config,
            net.c,
            Box::new(ForceFullRecompute(Box::new(MisreportCost { delta: 3 }))),
            1,
        );
        assert_eq!(fast.utilities, slow.utilities);
        assert_eq!(fast.penalties, slow.penalties);
        assert_eq!(fast.detected, slow.detected);
        assert_eq!(fast.green_lighted, slow.green_lighted);
        assert_eq!(
            fast.stats.total_msgs(),
            slow.stats.total_msgs(),
            "announcement traffic must be identical"
        );
    }

    #[test]
    fn incremental_recompute_is_byte_identical_to_full() {
        // Under the faithful mechanism the equivalence must survive the
        // whole enforcement stack: checker mirrors, bank hash
        // checkpoints, reconciliation, settlement.
        let (_, config) = figure1_config();
        let fast = run_faithful_honest(&config, 1);
        let slow = run_faithful(&config, |_| Box::new(FullRecomputeFaithful), 1);
        assert_eq!(fast.utilities, slow.utilities);
        assert_eq!(fast.green_lighted, slow.green_lighted);
        assert_eq!(fast.restarts, slow.restarts);
        assert_eq!(fast.detected, slow.detected);
        assert_eq!(fast.penalties, slow.penalties);
        assert_eq!(
            fast.stats.total_msgs(),
            slow.stats.total_msgs(),
            "announcement traffic must be identical"
        );
    }

    #[test]
    fn checkpoint_then_finish_matches_the_one_shot_engine() {
        // Parking at certification and immediately releasing execution
        // reproduces the one-shot lifecycle: the held green light is the
        // same broadcast, just issued from a later quiescence round, and
        // the pause consumes no virtual time.
        let (_, config) = figure1_config();
        let oneshot = run_faithful_honest(&config, 1);
        let state = FaithfulRunState::checkpoint(&config, |_| Box::new(Faithful), 1);
        assert!(state.green_lighted(), "honest checkpoint certifies");
        assert!(!state.halted());
        assert_eq!(state.restarts(), 0);
        let staged = state.finish();
        assert_eq!(oneshot.utilities, staged.utilities);
        assert_eq!(oneshot.penalties, staged.penalties);
        assert_eq!(oneshot.green_lighted, staged.green_lighted);
        assert_eq!(oneshot.restarts, staged.restarts);
        assert_eq!(oneshot.detected, staged.detected);
        assert_eq!(
            oneshot.tables_match_centralized,
            staged.tables_match_centralized
        );
        assert_eq!(oneshot.stats.total_msgs(), staged.stats.total_msgs());
        assert_eq!(oneshot.final_time, staged.final_time);
    }

    #[test]
    fn streamed_cost_events_recertify_and_match_the_plain_fixed_point() {
        use specfaith_fpss::runner::converged_table_digests;
        use specfaith_netsim::TopologyEvent;
        let (net, config) = figure1_config();
        let mut state = FaithfulRunState::checkpoint(&config, |_| Box::new(Faithful), 1);
        for (i, (node, cost)) in [(net.c, 9u64), (net.d, 0), (net.c, 9)]
            .into_iter()
            .enumerate()
        {
            let outcome = state.apply_event(&TopologyEvent::NodeCost { node, cost });
            assert_eq!(outcome.status, FaithfulEventStatus::Applied, "event {i}");
            assert_eq!(
                outcome.recertified,
                Some(true),
                "event {i}: principal, announced, and mirror hashes must re-agree"
            );
            assert!(outcome.messages > 0, "event {i}");
            assert!(!outcome.truncated, "event {i}");
            // The certified faithful tables are the same FpssCore fixed
            // point a cold plain run converges to.
            let cold = converged_table_digests(
                &config.topo,
                state.declared(),
                config.latency,
                23 + i as u64,
            );
            assert_eq!(state.table_digests(), cold, "event {i}");
        }
        let result = state.finish();
        assert!(result.green_lighted);
        assert!(!result.detected);
        assert_eq!(result.tables_match_centralized, Some(true));
    }

    #[test]
    fn streamed_churn_reports_the_liveness_hole_instead_of_hanging() {
        use specfaith_netsim::TopologyEvent;
        let (net, config) = figure1_config();
        let mut state = FaithfulRunState::checkpoint(&config, |_| Box::new(Faithful), 1);
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
                FaithfulEventStatus::LivenessHole,
                "{event:?}: churn stalls the bank's signed hash round; it \
                 must be refused, not streamed"
            );
            assert_eq!(outcome.messages, 0);
            assert_eq!(outcome.recertified, None);
        }
        // The certified fixed point is untouched and still usable.
        assert_eq!(state.table_digests(), baseline);
        assert!(state.green_lighted());
        let result = state.finish();
        assert!(result.green_lighted);
    }
}
