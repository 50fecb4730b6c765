//! The FPSS run lifecycle, for both mechanisms.
//!
//! [`RunConfig`] is the plain-data description of one FPSS instance;
//! [`run`] executes it for a given strategy assignment and seed, and
//! [`RunState`] holds it at its converged fixed point for streamed
//! [`TopologyEvent`]s. The `specfaith::scenario` layer drives this
//! lifecycle directly.
//!
//! The lifecycle is written once, generic over an [`Overlay`]: what a
//! mechanism adds to plain FPSS. [`Plain`] adds nothing, so a plain run is
//! a network of [`PlainFpssNode`]s carrying [`FpssMsg`](crate::msg::FpssMsg).
//! The faithful mechanism's bank is the other overlay
//! (`specfaith_faithful::harness::Enforcement`).
//!
//! Each configuration owns a [`CacheScope`] for its centralized
//! reference check. A run whose declarations are the true costs pins
//! that cache, so repeated runs share it and later misreport runs repair
//! their caches from it; any other run's cache is released when its
//! check completes.

use crate::deviation::{Faithful, RationalStrategy};
use crate::node::{FpssCore, PlainFpssNode, StreamCommand, TAG_BEGIN_EXECUTION, TAG_STREAM};
use crate::pricing::{expected_tables_uncached_for, tables_agree, tables_match};
use crate::settle::{settle_plain, SettlementConfig};
use crate::traffic::TrafficMatrix;
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_crypto::sha256::Digest;
use specfaith_graph::cache::{CacheScope, RouteCache};
use specfaith_graph::costs::CostVector;
use specfaith_graph::topology::Topology;
use specfaith_netsim::{
    Actor, Connectivity, Dynamics, Latency, NetModel, NetStats, Network, SimDuration, SimTime,
    TopologyEvent,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// How a run's converged tables are compared against the centralized VCG
/// reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReferenceCheck {
    /// Compare every node's tables (the default). Costs one LCP tree per
    /// node plus one avoid tree per `(source, on-path transit)` pair.
    Full,
    /// Compare a deterministic, evenly spaced sample of `sources` nodes.
    /// The large-`n` (≥ 1k nodes) setting: reference cost becomes
    /// proportional to the sample, not to `n`, at the price of only
    /// *sampled* divergence detection.
    Sampled {
        /// How many source nodes to verify (clamped to `n`).
        sources: usize,
    },
}

impl ReferenceCheck {
    /// The node ids this policy verifies, in ascending order.
    pub fn sources(&self, n: usize) -> Vec<NodeId> {
        match *self {
            ReferenceCheck::Full => (0..n).map(NodeId::from_index).collect(),
            ReferenceCheck::Sampled { sources } => {
                let sources = sources.clamp(1, n);
                // Evenly spaced, deterministic, duplicate-free.
                let mut ids: Vec<usize> = (0..sources).map(|i| i * n / sources).collect();
                ids.dedup();
                ids.into_iter().map(NodeId::from_index).collect()
            }
        }
    }
}

/// Why a [`RunConfig`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The topology is not biconnected; FPSS requires it.
    NotBiconnected {
        /// Nodes in the offending topology.
        nodes: usize,
    },
    /// The cost vector's arity does not match the topology.
    CostArityMismatch {
        /// Topology nodes.
        nodes: usize,
        /// Cost vector length.
        costs: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotBiconnected { nodes } => write!(
                f,
                "topology on {nodes} nodes is not biconnected; FPSS requires a biconnected graph"
            ),
            ConfigError::CostArityMismatch { nodes, costs } => write!(
                f,
                "cost vector has {costs} entries for a topology of {nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Plain-data configuration of one FPSS instance, under either mechanism.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The (biconnected) topology.
    pub topo: Topology,
    /// True per-node transit costs.
    pub true_costs: CostVector,
    /// Execution-phase traffic.
    pub traffic: TrafficMatrix,
    /// Link latency model.
    pub latency: Latency,
    /// Network model deciding delivery from message size and link load
    /// (default [`NetModel::Ideal`]: latency-only, byte-identical to the
    /// pre-model engine).
    pub network: NetModel,
    /// Scheduled topology dynamics (default: none). An overlay's own
    /// actors are subject to them like any node: a partition that
    /// excludes the faithful bank (id `n`) from its island severs
    /// checkpointing — the documented liveness failure mode probed by
    /// `tests/network_models.rs`.
    pub dynamics: Dynamics,
    /// Settlement parameters (per-packet value `W`).
    pub settlement: SettlementConfig,
    /// Event budget of each simulator run before it is truncated; `None`
    /// takes the mechanism's [`Overlay::DEFAULT_MAX_EVENTS`] (5M events
    /// plain, 10M faithful). A plain run spends one budget on
    /// construction, one on execution and one on each streamed event; a
    /// one-shot faithful run spends one on its whole lifecycle.
    pub max_events: Option<u64>,
    /// Route-cache registry the run's centralized reference check draws
    /// from. Each configuration gets a fresh scope; sweep engines thread
    /// a scope of their own so the caches die with the workload.
    pub routes: CacheScope,
    /// Scope of the reference comparison.
    pub reference_check: ReferenceCheck,
}

impl RunConfig {
    /// A configuration with the default latency, network, settlement and
    /// event budget, no dynamics, a route-cache scope of its own, and the
    /// reference check on every node.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the topology is not biconnected or the
    /// cost vector's arity does not match it.
    pub fn try_new(
        topo: Topology,
        true_costs: CostVector,
        traffic: TrafficMatrix,
    ) -> Result<Self, ConfigError> {
        let nodes = topo.num_nodes();
        if !topo.is_biconnected() {
            return Err(ConfigError::NotBiconnected { nodes });
        }
        if true_costs.len() != nodes {
            return Err(ConfigError::CostArityMismatch {
                nodes,
                costs: true_costs.len(),
            });
        }
        Ok(RunConfig {
            topo,
            true_costs,
            traffic,
            latency: Latency::DEFAULT,
            network: NetModel::DEFAULT,
            dynamics: Dynamics::new(),
            settlement: SettlementConfig::default(),
            max_events: None,
            routes: CacheScope::eager(),
            reference_check: ReferenceCheck::Full,
        })
    }

    /// [`RunConfig::try_new`], panicking on an invalid instance.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not biconnected or arities mismatch.
    pub fn new(topo: Topology, true_costs: CostVector, traffic: TrafficMatrix) -> Self {
        Self::try_new(topo, true_costs, traffic).unwrap_or_else(|e| panic!("invalid run: {e}"))
    }
}

/// Result of one run, under either mechanism.
///
/// The public fields are directly comparable across mechanisms — that is
/// what plain-vs-faithful contrasts rely on. What only enforcement can
/// produce is read through accessors that give a plain run its natural
/// values: green-lighted, never halted, no restarts, no penalties.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Realized utility per topology node.
    pub utilities: Vec<Money>,
    /// Whether anything flagged the run. For the faithful mechanism this
    /// is real enforcement (restarts, halt, penalties, MAC failures); for
    /// plain FPSS it means the converged tables visibly diverged from the
    /// centralized reference (observable, but nobody acts on it — the
    /// paper's point).
    pub detected: bool,
    /// Simulator traffic statistics for the whole lifecycle.
    pub stats: NetStats,
    /// Virtual time at which the run settled — the basis for detection-
    /// latency comparisons across network models.
    pub final_time: SimTime,
    /// Whether the event budget truncated any of the run's simulator runs.
    pub truncated: bool,
    green_lighted: bool,
    halted: bool,
    restarts: u32,
    penalties: Vec<Money>,
    tables_match_centralized: Option<bool>,
}

impl RunReport {
    /// Whether execution was reached: the bank's green light for faithful
    /// runs, always `true` for plain runs (plain FPSS has no gate).
    pub fn green_lighted(&self) -> bool {
        self.green_lighted
    }

    /// Whether the mechanism halted. Always `false` for plain runs.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Construction restarts. Always `0` for plain runs.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Penalties charged per node. Empty for plain runs (plain FPSS never
    /// charges penalties).
    pub fn penalties(&self) -> &[Money] {
        &self.penalties
    }

    /// Whether converged tables matched the centralized reference:
    /// `Some(_)` for plain runs and for faithful runs that green-lighted;
    /// `None` for faithful runs that halted before certifying any tables
    /// (where the bank's hash checkpoints already flagged the run).
    pub fn tables_match_centralized(&self) -> Option<bool> {
        self.tables_match_centralized
    }

    /// Total messages delivered.
    pub fn delivered(&self) -> u64 {
        self.stats.msgs_delivered
    }

    /// Messages lost to the network model or dynamics (loss, downed
    /// nodes, partitions). Zero under [`NetModel::Ideal`] with no
    /// dynamics.
    pub fn dropped(&self) -> u64 {
        self.stats.msgs_dropped
    }

    /// In-flight deliveries re-scheduled by a throughput model reacting
    /// to load changes (`SharedThroughput` only).
    pub fn rescheduled(&self) -> u64 {
        self.stats.deliveries_rescheduled
    }

    /// High-water mark of simultaneous in-flight work in the simulator's
    /// event queue.
    pub fn max_queue_depth(&self) -> u64 {
        self.stats.max_queue_depth
    }
}

/// What a mechanism's settlement decided about an executed run; the
/// lifecycle adds the transport record and the reference verdict to make
/// it a [`RunReport`], whose accessors document each field.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Realized utility per topology node.
    pub utilities: Vec<Money>,
    /// Whether anything flagged the run.
    pub detected: bool,
    /// Whether execution was reached.
    pub green_lighted: bool,
    /// Whether the mechanism halted.
    pub halted: bool,
    /// Construction restarts.
    pub restarts: u32,
    /// Penalties charged per node; empty when the mechanism charges none.
    pub penalties: Vec<Money>,
}

/// An actor that hosts one topology node's FPSS engine: what the
/// lifecycle reads and drives on a node.
pub trait FpssActor: Actor {
    /// The node's construction core (tables, DATA1, view).
    fn core(&self) -> &FpssCore;
    /// The cost the node declared (after its strategy), once started.
    fn declared_cost(&self) -> Option<Cost>;
    /// Queues a streaming management command, drained on a
    /// [`TAG_STREAM`] timer.
    fn queue_stream_command(&mut self, cmd: StreamCommand);
    /// Queues traffic to originate when execution begins.
    fn add_traffic(&mut self, dst: NodeId, packets: u64);
}

impl FpssActor for PlainFpssNode {
    fn core(&self) -> &FpssCore {
        PlainFpssNode::core(self)
    }
    fn declared_cost(&self) -> Option<Cost> {
        PlainFpssNode::declared_cost(self)
    }
    fn queue_stream_command(&mut self, cmd: StreamCommand) {
        PlainFpssNode::queue_stream_command(self, cmd);
    }
    fn add_traffic(&mut self, dst: NodeId, packets: u64) {
        PlainFpssNode::add_traffic(self, dst, packets);
    }
}

/// What a mechanism adds to the plain FPSS run lifecycle.
///
/// [`RunState`] writes the lifecycle once: per-event bookkeeping, cost
/// events, churn, latency overrides, queueing traffic, the reference
/// check. An overlay supplies only what differs between mechanisms, as
/// the hooks below; their defaults are the bare lifecycle, [`Plain`]'s.
/// Topology node `i` is always actor `i`; an overlay may append actors of
/// its own after them.
pub trait Overlay: Sized {
    /// The simulator actor type.
    type Actor: FpssActor;

    /// The event budget of each simulator run when
    /// [`RunConfig::max_events`] is `None`.
    const DEFAULT_MAX_EVENTS: u64;

    /// The shape of a one-shot run. `true`: traffic is queued up front
    /// and the overlay starts execution itself, so the whole lifecycle is
    /// one simulator run and one event budget. `false` (the default):
    /// construction converges and is checked in one simulator run,
    /// execution runs in a second.
    const SINGLE_RUN: bool = false;

    /// Whether streamed churn ([`TopologyEvent::NodeDown`] /
    /// [`TopologyEvent::NodeUp`]) is applied (the default). Without it,
    /// churn and partitions report [`EventStatus::LivenessHole`].
    const STREAMS_CHURN: bool = true;

    /// Builds the actors and who may send to whom. `hold` is set for a
    /// checkpointed run: the overlay must not start execution on its own.
    fn assemble(
        &self,
        config: &RunConfig,
        strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        hold: bool,
    ) -> (Vec<Self::Actor>, Connectivity);

    /// Runs before a streamed cost event is applied; `false` rejects it
    /// ([`EventStatus::RejectedHalted`]). Admits every event by default.
    fn admit_cost_event(&self, _: &mut Network<Self::Actor, Latency>, _: &RunConfig) -> bool {
        true
    }

    /// The overlay's own certification of the current fixed point, or
    /// `None` (the default) when it has none: then the lifecycle checks
    /// the tables against the centralized reference after construction
    /// and after each applied event, while every node is live.
    fn certified(&self, _: &Network<Self::Actor, Latency>, _: &RunConfig) -> Option<bool> {
        None
    }

    /// Starts the execution phase of a converged network whose traffic is
    /// queued; by default, all sources at once.
    fn start_execution(&self, net: &mut Network<Self::Actor, Latency>, config: &RunConfig) {
        let sources: BTreeSet<NodeId> = config.traffic.flows().iter().map(|f| f.src).collect();
        for src in sources {
            net.schedule_timer(src, SimDuration::ZERO, TAG_BEGIN_EXECUTION);
        }
    }

    /// Settles an executed run. `checked` is the centralized reference
    /// verdict: every check so far when the overlay certifies nothing,
    /// one check at finish of certified tables, `None` when nothing was
    /// certified.
    fn settle(
        &self,
        net: &mut Network<Self::Actor, Latency>,
        config: &RunConfig,
        checked: Option<bool>,
    ) -> Verdict;
}

/// Plain FPSS: the bare lifecycle, with no overlay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Plain;

impl Overlay for Plain {
    type Actor = PlainFpssNode;
    const DEFAULT_MAX_EVENTS: u64 = 5_000_000;

    fn assemble(
        &self,
        config: &RunConfig,
        strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        _hold: bool,
    ) -> (Vec<PlainFpssNode>, Connectivity) {
        (
            fpss_nodes(&config.topo, &config.true_costs, strategies),
            Connectivity::from_topology(&config.topo),
        )
    }

    /// Payments flow exactly as payers report them ([`settle_plain`]);
    /// tables that diverge from the reference are all a run can show.
    fn settle(
        &self,
        net: &mut Network<PlainFpssNode, Latency>,
        config: &RunConfig,
        checked: Option<bool>,
    ) -> Verdict {
        let summaries: Vec<_> = config
            .topo
            .nodes()
            .map(|id| net.node_mut(id).execution_summary())
            .collect();
        Verdict {
            utilities: settle_plain(&summaries, &config.settlement),
            detected: checked == Some(false),
            green_lighted: true,
            halted: false,
            restarts: 0,
            penalties: Vec::new(),
        }
    }
}

/// Runs one whole lifecycle (construction, verification, execution,
/// settlement) with an arbitrary per-node strategy assignment.
///
/// The comparison against the centralized VCG reference draws every
/// route from the config's [`CacheScope`] (`config.routes`) for the
/// declared cost vector. The true-cost cache is pinned, so repeated runs
/// over the true declarations — every non-misreporting cell of a
/// deviation sweep sharing one scope — share one set of Dijkstra trees,
/// and a misreport's cache is repaired from it and released after the
/// check.
pub fn run<O: Overlay>(
    config: &RunConfig,
    overlay: O,
    strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
    seed: u64,
) -> RunReport {
    run_checked(config, overlay, strategies, seed, Reference::Once)
}

/// The plain [`run`] with the pre-`RouteCache` per-pair-query reference
/// check. Retained **only** so the sweep regression benchmark can measure
/// the uncached baseline; never call this from product code.
#[doc(hidden)]
pub fn run_plain_uncached(
    config: &RunConfig,
    strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
    seed: u64,
) -> RunReport {
    run_checked(config, Plain, strategies, seed, Reference::Uncached)
}

fn run_checked<O: Overlay>(
    config: &RunConfig,
    overlay: O,
    strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
    seed: u64,
    reference: Reference,
) -> RunReport {
    let mut state = RunState::launch(config, overlay, strategies, seed, false);
    if O::SINGLE_RUN {
        state.settle()
    } else {
        state.verify(reference);
        state.finish()
    }
}

/// How a reference check draws its routes.
#[derive(Clone, Copy)]
enum Reference {
    /// Pin the declared-cost cache and keep it as the seeding donor of the
    /// next streamed event, releasing the previous one.
    Pinned,
    /// Pin only the true-cost cache; release after the check.
    Once,
    /// Per-pair queries, no cache ([`run_plain_uncached`]).
    Uncached,
}

/// How a streamed [`TopologyEvent`] was handled by [`RunState::apply_event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventStatus {
    /// The event changed protocol state and the network re-converged.
    Applied,
    /// [`TopologyEvent::LinkCost`]: a transport latency override only; no
    /// protocol state changed and no convergence was needed.
    LatencyOnly,
    /// Rejected: the node is unknown, already down (for `NodeDown` /
    /// `NodeCost`), or not down (for `NodeUp`).
    RejectedDown,
    /// Rejected: the overlay refused the cost event (the faithful bank has
    /// halted, so nothing can be recertified).
    RejectedHalted,
    /// Rejected: applying the churn event would leave the live subgraph
    /// non-biconnected, violating the FPSS topology assumption (§2).
    RejectedNotBiconnected,
    /// [`TopologyEvent::Partition`] / [`TopologyEvent::Heal`]: not
    /// meaningful for a converged fixed point; ignored.
    Unsupported,
    /// Churn and partition events under an overlay that cannot stream
    /// them ([`Overlay::STREAMS_CHURN`]). The faithful bank's
    /// checkpointing requires every node to answer signed hash requests,
    /// so a node leaving — or any partition separating the bank from part
    /// of the network — stalls certification forever rather than failing
    /// it (§4.2 assumes a reliable network; the paper has no churn story).
    /// Refused and reported, never streamed; `tests/network_models.rs`
    /// probes the same hole at the transport level.
    LivenessHole,
}

/// Per-event convergence report from [`RunState::apply_event`].
#[derive(Clone, Copy, Debug)]
pub struct EventOutcome {
    /// How the event was handled.
    pub status: EventStatus,
    /// Messages delivered while re-converging from the previous fixed
    /// point (the protocol flood, table announcements and, under the
    /// faithful mechanism, the bank's hash round).
    pub messages: u64,
    /// Virtual time the re-convergence took.
    pub micros: u64,
    /// `micros` expressed in whole message rounds when the latency model is
    /// fixed (`micros / per_hop`); `None` under jittered latency.
    pub rounds: Option<u64>,
    /// Whether the new fixed point re-verified, `Some` only when the event
    /// applied: the overlay's certification (the faithful bank's
    /// principal, announced and recomputed-mirror hashes all agree
    /// again), or else the centralized reference check. `None` too while
    /// nodes are down: the [`RouteCache`] reference assumes the full
    /// topology.
    pub verified: Option<bool>,
    /// Whether the event budget truncated this re-convergence.
    pub truncated: bool,
}

/// A run suspended at its converged fixed point.
///
/// [`run`] is one-shot: construct, converge, verify, execute, settle.
/// `RunState` splits that pipeline so the converged fixed point becomes a
/// first-class value: [`RunState::checkpoint`] runs construction and its
/// verification, then the state can absorb a stream of
/// [`TopologyEvent`]s via [`apply_event`](RunState::apply_event) —
/// re-converging *incrementally* from the previous fixed point instead of
/// rebuilding from scratch — and finally [`finish`](RunState::finish)
/// runs the execution phase and settlement exactly as the one-shot run
/// would.
///
/// Incrementality has two layers:
///
/// * **In-network**: a [`TopologyEvent::NodeCost`] floods a 20-byte
///   `CostUpdate` and each node (and, under the faithful mechanism, each
///   checker mirror) recomputes only the destinations the origin's cost
///   can influence ([`FpssCore::dsts_affected_by_cost`]); churn events
///   purge or resync exactly the state the leaving/returning node touches.
/// * **In the reference check**: the centralized [`RouteCache`] for the
///   post-event cost vector is seeded from the pinned previous fixed point
///   (`RouteCache::seeded_from` via [`CacheScope::pin`]), so re-verification
///   repairs trees instead of re-running Dijkstra per destination, and
///   compares each node's tables against the cache in place
///   ([`tables_match`]). The pin rolls forward each event and the fresh
///   cache detaches its donor ([`RouteCache::detach_seed`]) so long streams
///   hold one cache generation (plus the older plain trees its shared avoid
///   trees sit on), not an unbounded seeded-from chain.
///
/// Under the faithful mechanism the bank certifies instead: the
/// checkpoint parks it at certification (it certifies, but holds the
/// green light), each cost event runs a full recertification round, and
/// the centralized check runs once, at finish. Churn is not streamable
/// there: see [`EventStatus::LivenessHole`].
///
/// [`FpssCore::dsts_affected_by_cost`]: crate::node::FpssCore::dsts_affected_by_cost
/// [`CacheScope::pin`]: specfaith_graph::cache::CacheScope::pin
pub struct RunState<O: Overlay> {
    config: RunConfig,
    overlay: O,
    net: Network<O::Actor, Latency>,
    declared: CostVector,
    down: BTreeSet<NodeId>,
    tables_match_centralized: bool,
    truncated: bool,
    pinned_reference: Option<Arc<RouteCache>>,
}

impl<O: Overlay> RunState<O> {
    /// Runs the construction phase to convergence and verifies the fixed
    /// point — against the centralized reference, whose cache stays pinned
    /// so the first streamed event can seed from it, or by the overlay's
    /// own certification.
    ///
    /// `checkpoint(c, o, s, seed).finish()` reports exactly what
    /// `run(c, o, s, seed)` does.
    pub fn checkpoint(
        config: &RunConfig,
        overlay: O,
        strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        seed: u64,
    ) -> Self {
        let mut state = Self::launch(config, overlay, strategies, seed, true);
        state.verify(Reference::Pinned);
        state
    }

    /// Builds the network and runs it to quiescence once: construction,
    /// or, for a one-shot run of a [`Overlay::SINGLE_RUN`] overlay with
    /// its traffic queued up front, the whole lifecycle.
    fn launch(
        config: &RunConfig,
        overlay: O,
        strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        seed: u64,
        hold: bool,
    ) -> Self {
        let (actors, links) = overlay.assemble(config, strategies, hold);
        let mut net = Network::new(links, actors, config.latency, seed)
            .with_network(&config.network)
            .with_dynamics(&config.dynamics)
            .with_max_events(config.max_events.unwrap_or(O::DEFAULT_MAX_EVENTS));
        if O::SINGLE_RUN && !hold {
            queue_traffic(&mut net, &config.traffic);
        }
        let outcome = net.run();
        let declared = config
            .topo
            .nodes()
            .map(|id| net.node(id).declared_cost().expect("started"))
            .collect();
        RunState {
            config: config.clone(),
            overlay,
            net,
            declared,
            down: BTreeSet::new(),
            tables_match_centralized: true,
            truncated: outcome.truncated,
            pinned_reference: None,
        }
    }

    /// Absorbs one topology event into the converged fixed point and
    /// re-converges incrementally, returning what it cost.
    pub fn apply_event(&mut self, event: &TopologyEvent) -> EventOutcome {
        let msgs_before = self.net.stats().msgs_delivered;
        let t_before = self.net.now();
        let was_truncated = self.truncated;
        let status = match *event {
            TopologyEvent::NodeCost { node, cost } => self.apply_node_cost(node, Cost::new(cost)),
            TopologyEvent::LinkCost { .. } => {
                self.net.apply_dynamics_event(event);
                EventStatus::LatencyOnly
            }
            _ if !O::STREAMS_CHURN => EventStatus::LivenessHole,
            TopologyEvent::NodeDown(node) => self.apply_node_down(node),
            TopologyEvent::NodeUp(node) => self.apply_node_up(node),
            TopologyEvent::Partition { .. } | TopologyEvent::Heal => EventStatus::Unsupported,
        };
        let verified = if status == EventStatus::Applied {
            self.verify(Reference::Pinned)
        } else {
            None
        };
        let micros = (self.net.now() - t_before).micros();
        let rounds = match self.config.latency {
            Latency::Fixed { micros: per_hop } if per_hop > 0 => Some(micros / per_hop),
            _ => None,
        };
        EventOutcome {
            status,
            messages: self.net.stats().msgs_delivered - msgs_before,
            micros,
            rounds,
            verified,
            truncated: self.truncated && !was_truncated,
        }
    }

    fn apply_node_cost(&mut self, node: NodeId, cost: Cost) -> EventStatus {
        if node.index() >= self.config.topo.num_nodes() || self.down.contains(&node) {
            return EventStatus::RejectedDown;
        }
        if !self.overlay.admit_cost_event(&mut self.net, &self.config) {
            return EventStatus::RejectedHalted;
        }
        self.command(node, StreamCommand::DeclareCost(cost));
        self.run_net();
        self.redeclared(node);
        EventStatus::Applied
    }

    fn apply_node_down(&mut self, node: NodeId) -> EventStatus {
        if node.index() >= self.config.topo.num_nodes() || self.down.contains(&node) {
            return EventStatus::RejectedDown;
        }
        let mut down = self.down.clone();
        down.insert(node);
        if !live_biconnected(&self.config.topo, &down) {
            return EventStatus::RejectedNotBiconnected;
        }
        // Transport first (belt and braces: any in-flight message to or from
        // the leaving node is dropped), then a purge on every live node.
        self.net
            .apply_dynamics_event(&TopologyEvent::NodeDown(node));
        self.down = down;
        for id in self.config.topo.nodes() {
            if !self.down.contains(&id) {
                self.command(id, StreamCommand::PurgeNode(node));
            }
        }
        self.run_net();
        EventStatus::Applied
    }

    fn apply_node_up(&mut self, node: NodeId) -> EventStatus {
        if !self.down.contains(&node) {
            return EventStatus::RejectedDown;
        }
        let mut down = self.down.clone();
        down.remove(&node);
        if !live_biconnected(&self.config.topo, &down) {
            return EventStatus::RejectedNotBiconnected;
        }
        self.net.apply_dynamics_event(&TopologyEvent::NodeUp(node));
        self.down = down;
        // The returning node rebuilds from scratch; its live topology
        // neighbors resync it and it floods its (re-)declared cost.
        self.command(node, StreamCommand::Rejoin);
        for nb in self.config.topo.neighbors(node).to_vec() {
            if !self.down.contains(&nb) {
                self.command(nb, StreamCommand::ResyncNeighbor(node));
            }
        }
        self.run_net();
        self.redeclared(node);
        EventStatus::Applied
    }

    /// Queues `cmd` on `node` and schedules the timer that drains it.
    fn command(&mut self, node: NodeId, cmd: StreamCommand) {
        self.net.node_mut(node).queue_stream_command(cmd);
        self.net.schedule_timer(node, SimDuration::ZERO, TAG_STREAM);
    }

    /// Records `node`'s current declaration.
    fn redeclared(&mut self, node: NodeId) {
        let declared = self.net.node(node).declared_cost().expect("started");
        self.declared = self.declared.with_cost(node, declared);
    }

    /// Runs the network to quiescence, accumulating truncation.
    fn run_net(&mut self) {
        self.truncated |= self.net.run().truncated;
    }

    /// Verifies the current fixed point: by the overlay's certification,
    /// or against the centralized reference while every node is live.
    fn verify(&mut self, reference: Reference) -> Option<bool> {
        match self.overlay.certified(&self.net, &self.config) {
            Some(certified) => Some(certified),
            None if self.down.is_empty() => {
                let ok = self.check_reference(reference);
                self.tables_match_centralized &= ok;
                Some(ok)
            }
            None => None,
        }
    }

    /// Compares the converged tables of the policy's sources against the
    /// centralized reference under the declared costs.
    fn check_reference(&mut self, reference: Reference) -> bool {
        let RunState {
            config,
            net,
            declared,
            pinned_reference,
            ..
        } = self;
        let sources = config.reference_check.sources(config.topo.num_nodes());
        let matches = |routes: &RouteCache| {
            sources.iter().all(|&id| {
                let core = net.node(id).core();
                tables_match(routes, id, core.routes(), core.prices())
            })
        };
        match reference {
            Reference::Uncached => sources.iter().all(|&id| {
                let core = net.node(id).core();
                let (routing, pricing) = expected_tables_uncached_for(&config.topo, declared, id);
                tables_agree(core.routes(), core.prices(), &routing, &pricing)
            }),
            Reference::Once => {
                // Pinned when the declarations are the true costs, so
                // repeated runs share the cache and misreport runs repair
                // theirs from it; released after the check, which drops a
                // misreport's single-use cache and keeps the pinned one.
                let routes = if declared == &config.true_costs {
                    config.routes.pin(&config.topo, declared)
                } else {
                    config.routes.cache(&config.topo, declared)
                };
                let ok = matches(&routes);
                config.routes.release(&routes);
                ok
            }
            Reference::Pinned => {
                // Pin first: under a one-node cost delta this seeds tree
                // repair from the previously pinned fixed point instead of
                // fresh Dijkstras.
                let routes = config.routes.pin(&config.topo, declared);
                let ok = matches(&routes);
                // The check above materialized every tree it needed; drop
                // the donor link so the stream holds one cache generation,
                // not a chain.
                routes.detach_seed();
                if let Some(prev) = pinned_reference.take() {
                    if !Arc::ptr_eq(&prev, &routes) {
                        config.routes.unpin(&prev);
                        config.routes.release(&prev);
                    }
                }
                *pinned_reference = Some(routes);
                ok
            }
        }
    }

    /// Runs the execution phase and settlement on the current fixed point,
    /// consuming the state: exactly the tail of a one-shot [`run`].
    pub fn finish(mut self) -> RunReport {
        queue_traffic(&mut self.net, &self.config.traffic);
        self.overlay.start_execution(&mut self.net, &self.config);
        self.run_net();
        self.settle()
    }

    /// Settles an executed run into its report.
    fn settle(mut self) -> RunReport {
        let checked = match self.overlay.certified(&self.net, &self.config) {
            None => Some(self.tables_match_centralized),
            Some(true) => Some(self.check_reference(Reference::Once)),
            Some(false) => None,
        };
        let verdict = self.overlay.settle(&mut self.net, &self.config, checked);
        RunReport {
            utilities: verdict.utilities,
            detected: verdict.detected,
            stats: self.net.stats().clone(),
            final_time: self.net.now(),
            truncated: self.truncated,
            green_lighted: verdict.green_lighted,
            halted: verdict.halted,
            restarts: verdict.restarts,
            penalties: verdict.penalties,
            tables_match_centralized: checked,
        }
    }

    /// Per-node `(data1, routing, pricing)` digests of the converged tables,
    /// in node order. Down nodes report their stale pre-purge tables;
    /// equivalence checks should compare live nodes only.
    pub fn table_digests(&self) -> Vec<(Digest, Digest, Digest)> {
        self.config
            .topo
            .nodes()
            .map(|id| self.net.node(id).core().table_digests())
            .collect()
    }

    /// The declared cost vector at the current fixed point (down nodes keep
    /// their last declared value).
    pub fn declared(&self) -> &CostVector {
        &self.declared
    }

    /// Nodes currently offline.
    pub fn down(&self) -> &BTreeSet<NodeId> {
        &self.down
    }

    /// Whether every centralized reference check so far (checkpoint and
    /// per-event) passed; vacuously `true` under an overlay that certifies
    /// the fixed point itself.
    pub fn tables_match_centralized(&self) -> bool {
        self.tables_match_centralized
    }

    /// The live network, for inspecting actors between events.
    pub fn network(&self) -> &Network<O::Actor, Latency> {
        &self.net
    }

    /// Cumulative transport statistics across construction and all events.
    pub fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// The configuration this state was checkpointed from.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }
}

impl<O: Overlay> Drop for RunState<O> {
    fn drop(&mut self) {
        if let Some(prev) = self.pinned_reference.take() {
            self.config.routes.unpin(&prev);
            self.config.routes.release(&prev);
        }
    }
}

/// Queues every flow's packets at its source.
fn queue_traffic<A: FpssActor>(net: &mut Network<A, Latency>, traffic: &TrafficMatrix) {
    for flow in traffic.flows() {
        net.node_mut(flow.src).add_traffic(flow.dst, flow.packets);
    }
}

/// One plain FPSS node per topology node, each with the strategy
/// `strategies` assigns it.
fn fpss_nodes(
    topo: &Topology,
    costs: &CostVector,
    mut strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
) -> Vec<PlainFpssNode> {
    let max_hops = (4 * topo.num_nodes()) as u32;
    topo.nodes()
        .map(|me| {
            PlainFpssNode::new(
                me,
                topo.neighbors(me).to_vec(),
                costs.cost(me),
                strategies(me),
                max_hops,
            )
        })
        .collect()
}

/// Whether the subgraph induced by the live (non-`down`) nodes of `topo` is
/// biconnected.
///
/// [`Topology::is_biconnected`] judges the whole vertex set, so any topology
/// with an offline (isolated) node trivially fails it; streamed churn needs
/// the check restricted to live nodes, so it runs on the live subgraph,
/// renumbered. Churn events are validated one at a time, never on a hot path.
fn live_biconnected(topo: &Topology, down: &BTreeSet<NodeId>) -> bool {
    let live: Vec<NodeId> = topo.nodes().filter(|id| !down.contains(id)).collect();
    if live.len() < 3 {
        return false;
    }
    let index = |id: NodeId| live.binary_search(&id).ok().map(|i| i as u32);
    let mut induced = Topology::builder(live.len());
    for &(a, b) in topo.edges() {
        if let (Some(a), Some(b)) = (index(a), index(b)) {
            induced = induced.edge(a, b);
        }
    }
    induced.build().is_biconnected()
}

/// Cold-run oracle for streaming equivalence: builds a fresh all-faithful
/// network over `topo` with `costs` as true costs, converges construction
/// from scratch, and returns per-node `(data1, routing, pricing)` digests.
///
/// No reference check, no execution phase — this is exactly the fixed point
/// a streamed run must land on. Accepts non-biconnected topologies (e.g.
/// [`Topology::without_node`], where the removed node is an isolated vertex
/// that floods to no one), so churn equivalence can compare live nodes of a
/// streamed run against a cold run on the reduced topology.
pub fn converged_table_digests(
    topo: &Topology,
    costs: &CostVector,
    latency: Latency,
    seed: u64,
) -> Vec<(Digest, Digest, Digest)> {
    let actors = fpss_nodes(topo, costs, |_| Box::new(Faithful));
    let mut net = Network::new(Connectivity::from_topology(topo), actors, latency, seed);
    let outcome = net.run();
    assert!(!outcome.truncated, "cold oracle run truncated");
    topo.nodes()
        .map(|id| net.node(id).core().table_digests())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviation::{
        DropTransitPackets, MisreportCost, SpoofShortRoutes, UnderreportPayments,
    };
    use specfaith_graph::generators::figure1;

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

    fn figure1_config() -> (specfaith_graph::generators::Figure1, RunConfig) {
        let net = figure1();
        let traffic = TrafficMatrix::from_flows(vec![
            crate::traffic::Flow {
                src: net.x,
                dst: net.z,
                packets: 5,
            },
            crate::traffic::Flow {
                src: net.d,
                dst: net.z,
                packets: 5,
            },
        ]);
        let config = RunConfig::new(net.topology.clone(), net.costs.clone(), traffic);
        (net, config)
    }

    #[test]
    fn faithful_run_converges_to_centralized_tables() {
        let (_, config) = figure1_config();
        let result = run(&config, Plain, honest, 3);
        assert_eq!(result.tables_match_centralized(), Some(true));
        assert!(!result.truncated);
    }

    #[test]
    fn faithful_utilities_balance_payments() {
        let (net, config) = figure1_config();
        let result = run(&config, Plain, honest, 3);
        // C transits both flows (X→Z and D→Z): it is paid above true cost.
        assert!(
            result.utilities[net.c.index()] > Money::ZERO,
            "transit C profits: {:?}",
            result.utilities
        );
        // Sources gain packet value minus payments, still positive.
        assert!(result.utilities[net.x.index()] > Money::ZERO);
    }

    #[test]
    fn misreporting_cost_is_unprofitable_even_in_plain_fpss() {
        // FPSS's own contribution: the VCG pricing makes cost lies useless.
        let (net, config) = figure1_config();
        let faithful = run(&config, Plain, honest, 3);
        for delta in [2i64, 4, -1] {
            let deviant = run(
                &config,
                Plain,
                deviant(net.c, Box::new(MisreportCost { delta })),
                3,
            );
            assert!(
                deviant.utilities[net.c.index()] <= faithful.utilities[net.c.index()],
                "delta {delta}: {:?} vs faithful {:?}",
                deviant.utilities[net.c.index()],
                faithful.utilities[net.c.index()]
            );
        }
    }

    #[test]
    fn underreporting_payments_is_profitable_in_plain_fpss() {
        let (net, config) = figure1_config();
        let faithful = run(&config, Plain, honest, 3);
        let deviant = run(
            &config,
            Plain,
            deviant(net.x, Box::new(UnderreportPayments { keep_percent: 0 })),
            3,
        );
        assert!(
            deviant.utilities[net.x.index()] > faithful.utilities[net.x.index()],
            "plain FPSS cannot stop payment fraud"
        );
    }

    #[test]
    fn dropping_transit_packets_is_profitable_in_plain_fpss() {
        let (net, config) = figure1_config();
        let faithful = run(&config, Plain, honest, 3);
        let deviant = run(
            &config,
            Plain,
            deviant(net.c, Box::new(DropTransitPackets)),
            3,
        );
        assert!(
            deviant.utilities[net.c.index()] > faithful.utilities[net.c.index()],
            "plain FPSS pays for transit work that was never done: {:?} vs {:?}",
            deviant.utilities[net.c.index()],
            faithful.utilities[net.c.index()]
        );
    }

    #[test]
    fn table_transforming_deviants_stay_on_the_full_path() {
        use crate::deviation::{DeflateOwnPricing, SpoofAndTamper};
        for strategy in [
            Box::new(SpoofShortRoutes) as Box<dyn RationalStrategy>,
            Box::new(DeflateOwnPricing { keep_percent: 50 }),
            Box::new(SpoofAndTamper::default()),
        ] {
            assert!(
                !strategy.dst_scoped_recompute_safe(),
                "{} transforms tables/announcements; the incremental path \
                 would bypass its hooks",
                strategy.spec().name()
            );
        }
    }

    #[test]
    fn sampled_reference_check_matches_full_on_honest_runs() {
        let (_, config) = figure1_config();
        let mut sampled = config.clone();
        sampled.reference_check = ReferenceCheck::Sampled { sources: 3 };
        let full = run(&config, Plain, honest, 3);
        let quick = run(&sampled, Plain, honest, 3);
        assert_eq!(full.tables_match_centralized(), Some(true));
        assert_eq!(quick.tables_match_centralized(), Some(true));
        assert_eq!(full.utilities, quick.utilities);
    }

    #[test]
    fn reference_check_sources_are_deterministic_and_in_range() {
        assert_eq!(
            ReferenceCheck::Full.sources(4),
            (0..4).map(NodeId::from_index).collect::<Vec<_>>()
        );
        let sampled = ReferenceCheck::Sampled { sources: 4 }.sources(1024);
        assert_eq!(sampled.len(), 4);
        assert_eq!(
            sampled,
            vec![0usize, 256, 512, 768]
                .into_iter()
                .map(NodeId::from_index)
                .collect::<Vec<_>>()
        );
        // Oversampling clamps to n, never duplicates.
        let clamped = ReferenceCheck::Sampled { sources: 99 }.sources(6);
        assert_eq!(clamped.len(), 6);
    }

    #[test]
    fn distributed_equals_centralized_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use specfaith_graph::generators::random_biconnected;

        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 5 + (seed as usize % 7);
            let topo = random_biconnected(n, n / 2, &mut rng);
            let costs = CostVector::random(n, 0, 15, &mut rng);
            let traffic = TrafficMatrix::random(n, 3, 2, &mut rng);
            let config = RunConfig::new(topo, costs, traffic);
            let result = run(&config, Plain, honest, seed);
            assert!(!result.truncated, "seed {seed} truncated");
            assert_eq!(
                result.tables_match_centralized(),
                Some(true),
                "seed {seed}: distributed FPSS diverged from the VCG reference"
            );
        }
    }

    #[test]
    fn spoofed_routes_corrupt_tables_in_plain_fpss() {
        // C claiming fake adjacency to X (true LCP Z→X is Z-C-D-X, cost 2)
        // makes Z adopt the nonexistent route Z-C-X of apparent cost 1.
        let (net, config) = figure1_config();
        let deviant = run(
            &config,
            Plain,
            deviant(net.c, Box::new(SpoofShortRoutes)),
            3,
        );
        assert_eq!(
            deviant.tables_match_centralized(),
            Some(false),
            "spoofed adjacency must corrupt someone's tables"
        );
    }

    #[test]
    #[should_panic(expected = "not biconnected")]
    fn run_config_new_panics_on_a_non_biconnected_topology() {
        let _ = RunConfig::new(
            specfaith_graph::generators::star(4),
            CostVector::uniform(4, 1),
            TrafficMatrix::new(),
        );
    }

    #[test]
    fn streamed_churn_matches_cold_runs_on_the_reduced_and_restored_topology() {
        use specfaith_graph::generators::complete;
        let n = 6;
        let topo = complete(n);
        let costs = CostVector::from_values(&[3, 1, 4, 1, 5, 9]);
        let traffic = TrafficMatrix::from_flows(vec![crate::traffic::Flow {
            src: NodeId::from_index(0),
            dst: NodeId::from_index(5),
            packets: 2,
        }]);
        let config = RunConfig::new(topo.clone(), costs, traffic);
        let mut state = RunState::checkpoint(&config, Plain, honest, 3);
        let baseline = state.table_digests();

        let gone = NodeId::from_index(2);
        let outcome = state.apply_event(&TopologyEvent::NodeDown(gone));
        assert_eq!(outcome.status, EventStatus::Applied);
        // No reference check while a node is down: the cache assumes the
        // full topology.
        assert_eq!(outcome.verified, None);
        assert_eq!(state.down().iter().copied().collect::<Vec<_>>(), vec![gone]);

        // Live nodes converge to the cold fixed point of the reduced
        // topology (the removed node is an isolated vertex there, so its own
        // tables are the only ones that differ).
        let reduced = topo.without_node(gone);
        let cold = converged_table_digests(&reduced, state.declared(), config.latency, 11);
        let streamed = state.table_digests();
        for id in topo.nodes() {
            if id == gone {
                continue;
            }
            assert_eq!(
                streamed[id.index()],
                cold[id.index()],
                "node {id:?} diverged from the cold reduced-topology run"
            );
        }

        // A second cost change converges among the live nodes only.
        let outcome = state.apply_event(&TopologyEvent::NodeCost {
            node: NodeId::from_index(0),
            cost: 8,
        });
        assert_eq!(outcome.status, EventStatus::Applied);
        assert_eq!(outcome.verified, None);

        // The node returns: resync + rejoin must land on the cold full-
        // topology fixed point, and the reference check resumes.
        let outcome = state.apply_event(&TopologyEvent::NodeUp(gone));
        assert_eq!(outcome.status, EventStatus::Applied);
        assert_eq!(outcome.verified, Some(true));
        assert!(state.down().is_empty());
        let cold = converged_table_digests(&topo, state.declared(), config.latency, 13);
        assert_eq!(state.table_digests(), cold);
        assert!(state.tables_match_centralized());
        // And the original fixed point is restored up to node 0's new cost.
        assert_ne!(state.table_digests(), baseline);

        let result = state.finish();
        assert_eq!(result.tables_match_centralized(), Some(true));
    }

    #[test]
    fn invalid_events_are_rejected_without_touching_the_fixed_point() {
        use specfaith_graph::generators::ring;
        // A 4-ring is biconnected, but removing any node leaves a path:
        // every NodeDown must be rejected to preserve the FPSS assumption.
        let topo = ring(4);
        let costs = CostVector::from_values(&[1, 2, 3, 4]);
        let traffic = TrafficMatrix::from_flows(vec![crate::traffic::Flow {
            src: NodeId::from_index(0),
            dst: NodeId::from_index(2),
            packets: 1,
        }]);
        let config = RunConfig::new(topo, costs, traffic);
        let mut state = RunState::checkpoint(&config, Plain, honest, 3);
        let baseline = state.table_digests();

        for (event, expect) in [
            (
                TopologyEvent::NodeDown(NodeId::from_index(1)),
                EventStatus::RejectedNotBiconnected,
            ),
            // Up on a live node and anything on an unknown node are rejected.
            (
                TopologyEvent::NodeUp(NodeId::from_index(1)),
                EventStatus::RejectedDown,
            ),
            (
                TopologyEvent::NodeCost {
                    node: NodeId::from_index(99),
                    cost: 5,
                },
                EventStatus::RejectedDown,
            ),
            (
                TopologyEvent::Partition { island: vec![] },
                EventStatus::Unsupported,
            ),
            (TopologyEvent::Heal, EventStatus::Unsupported),
        ] {
            let outcome = state.apply_event(&event);
            assert_eq!(outcome.status, expect, "{event:?}");
            assert_eq!(outcome.messages, 0, "{event:?}");
            assert_eq!(outcome.verified, None, "{event:?}");
        }
        // Latency overrides pass through to the transport without convergence.
        let outcome = state.apply_event(&TopologyEvent::LinkCost {
            a: NodeId::from_index(0),
            b: NodeId::from_index(1),
            micros: 44,
        });
        assert_eq!(outcome.status, EventStatus::LatencyOnly);
        assert_eq!(outcome.messages, 0);
        assert_eq!(state.table_digests(), baseline);
        assert!(state.tables_match_centralized());
    }
}
