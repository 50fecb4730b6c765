//! The plain-FPSS run engine: configuration + one-shot run functions.
//!
//! [`PlainConfig`] is the plain-data description of one plain-FPSS
//! instance (topology, true costs, traffic, latency, settlement, event
//! budget); [`run_plain`] executes it for a given strategy assignment and
//! seed. The `specfaith::scenario` layer drives this engine directly.
//!
//! Each configuration owns a [`CacheScope`] for its centralized
//! reference check. A run whose declarations are the true costs pins
//! that cache, so repeated runs share it and later misreport runs repair
//! their caches from it; any other run's cache is released when its
//! check completes.

use crate::deviation::{Faithful, RationalStrategy};
use crate::node::{PlainFpssNode, StreamCommand, TAG_BEGIN_EXECUTION, TAG_STREAM};
use crate::pricing::{tables_agree, tables_match};
use crate::settle::{settle_plain, SettlementConfig};
use crate::traffic::TrafficMatrix;
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_crypto::sha256::Digest;
use specfaith_graph::cache::{CacheScope, RouteCache};
use specfaith_graph::costs::CostVector;
use specfaith_graph::topology::Topology;
use specfaith_netsim::{
    Connectivity, Dynamics, Latency, NetModel, NetStats, Network, SimDuration, SimTime,
    TopologyEvent,
};
use std::collections::BTreeSet;
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

/// Plain-data configuration of a plain-FPSS simulation instance.
#[derive(Clone, Debug)]
pub struct PlainConfig {
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
    /// Scheduled topology dynamics (default: none).
    pub dynamics: Dynamics,
    /// Settlement parameters (per-packet value `W`).
    pub settlement: SettlementConfig,
    /// Event budget before a run is truncated.
    pub max_events: u64,
    /// Route-cache registry the run's centralized reference check draws
    /// from. Each configuration gets a fresh scope; sweep engines thread
    /// a scope of their own so the caches die with the workload.
    pub routes: CacheScope,
    /// Scope of the post-construction reference comparison.
    pub reference_check: ReferenceCheck,
}

impl PlainConfig {
    /// A configuration with the default latency, settlement, event
    /// budget, a route-cache scope of its own, and the reference check on
    /// every node.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not biconnected or arities mismatch.
    pub fn new(topo: Topology, true_costs: CostVector, traffic: TrafficMatrix) -> Self {
        assert!(topo.is_biconnected(), "FPSS requires a biconnected graph");
        assert_eq!(topo.num_nodes(), true_costs.len(), "cost arity");
        PlainConfig {
            topo,
            true_costs,
            traffic,
            latency: Latency::DEFAULT,
            network: NetModel::DEFAULT,
            dynamics: Dynamics::new(),
            settlement: SettlementConfig::default(),
            max_events: 5_000_000,
            routes: CacheScope::eager(),
            reference_check: ReferenceCheck::Full,
        }
    }
}

/// Result of one plain-FPSS run.
#[derive(Clone, Debug)]
pub struct PlainRunResult {
    /// Realized utility per node.
    pub utilities: Vec<Money>,
    /// Whether every node's converged tables equal the centralized
    /// reference under the *declared* costs. Expected `true` for faithful
    /// runs; deviant runs may corrupt tables by design.
    pub tables_match_centralized: bool,
    /// Network traffic statistics (construction + execution).
    pub stats: NetStats,
    /// Virtual time at which the run settled (construction + execution).
    pub final_time: SimTime,
    /// Whether either run phase hit the event budget.
    pub truncated: bool,
}

/// Runs plain FPSS with every node faithful.
pub fn run_plain_faithful(config: &PlainConfig, seed: u64) -> PlainRunResult {
    run_plain(config, |_| Box::new(Faithful), seed)
}

/// Runs plain FPSS with `deviant` playing `strategy` and everyone else
/// faithful.
pub fn run_plain_with_deviant(
    config: &PlainConfig,
    deviant: NodeId,
    strategy: Box<dyn RationalStrategy>,
    seed: u64,
) -> PlainRunResult {
    let mut strategy = Some(strategy);
    run_plain(
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

/// Runs plain FPSS with an arbitrary per-node strategy assignment: the
/// whole lifecycle (cost flood, distributed routing + pricing, execution,
/// reported settlement) in one simulator run.
///
/// The post-run comparison against the centralized VCG reference draws
/// every route from the config's [`CacheScope`] (`config.routes`) for the
/// declared cost vector. The true-cost cache is pinned, so repeated runs
/// over the true declarations — every non-misreporting cell of a
/// deviation sweep sharing one scope — share one set of Dijkstra trees,
/// and a misreport's cache is repaired from it and released after the
/// check.
pub fn run_plain(
    config: &PlainConfig,
    strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
    seed: u64,
) -> PlainRunResult {
    run_plain_impl(config, strategies, seed, true)
}

/// [`run_plain`] with the pre-`RouteCache` per-pair-query reference check.
/// Retained **only** so the sweep regression benchmark can measure the
/// uncached baseline; never call this from product code.
#[doc(hidden)]
pub fn run_plain_uncached(
    config: &PlainConfig,
    strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
    seed: u64,
) -> PlainRunResult {
    run_plain_impl(config, strategies, seed, false)
}

fn run_plain_impl(
    config: &PlainConfig,
    strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
    seed: u64,
    cached_reference: bool,
) -> PlainRunResult {
    PlainRunState::checkpoint_impl(config, strategies, seed, cached_reference, false).finish()
}

/// How a streamed [`TopologyEvent`] was handled by [`PlainRunState::apply_event`].
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
    /// Rejected: applying the churn event would leave the live subgraph
    /// non-biconnected, violating the FPSS topology assumption (§2).
    RejectedNotBiconnected,
    /// [`TopologyEvent::Partition`] / [`TopologyEvent::Heal`]: not
    /// meaningful for a converged fixed point; ignored.
    Unsupported,
}

/// Per-event convergence report from [`PlainRunState::apply_event`].
#[derive(Clone, Copy, Debug)]
pub struct EventOutcome {
    /// How the event was handled.
    pub status: EventStatus,
    /// Messages delivered while re-converging from the previous fixed point.
    pub messages: u64,
    /// Virtual time the re-convergence took.
    pub micros: u64,
    /// `micros` expressed in whole message rounds when the latency model is
    /// fixed (`micros / per_hop`); `None` under jittered latency.
    pub rounds: Option<u64>,
    /// Outcome of the centralized reference re-check: `Some(ok)` when the
    /// event applied with every node live, `None` otherwise (the
    /// [`RouteCache`] reference assumes the full topology).
    pub reference_ok: Option<bool>,
    /// Whether the event budget truncated this re-convergence.
    pub truncated: bool,
}

/// A plain-FPSS run suspended at a converged fixed point.
///
/// [`run_plain`] is one-shot: construct, converge, verify, execute, settle.
/// `PlainRunState` splits that pipeline so the converged fixed point becomes
/// a first-class value: [`PlainRunState::checkpoint`] runs construction and
/// the reference check, then the state can absorb a stream of
/// [`TopologyEvent`]s via [`apply_event`](PlainRunState::apply_event) —
/// re-converging *incrementally* from the previous fixed point instead of
/// rebuilding from scratch — and finally [`finish`](PlainRunState::finish)
/// runs the execution phase and settlement exactly as the one-shot engine
/// would.
///
/// Incrementality has two layers:
///
/// * **In-network**: a [`TopologyEvent::NodeCost`] floods a 20-byte
///   `CostUpdate` and each node recomputes only the destinations the origin's
///   cost can influence ([`FpssCore::dsts_affected_by_cost`]); churn events
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
/// [`FpssCore::dsts_affected_by_cost`]: crate::node::FpssCore::dsts_affected_by_cost
/// [`CacheScope::pin`]: specfaith_graph::cache::CacheScope::pin
pub struct PlainRunState {
    config: PlainConfig,
    net: Network<PlainFpssNode, Latency>,
    declared: CostVector,
    down: BTreeSet<NodeId>,
    tables_match_centralized: bool,
    truncated: bool,
    pinned_reference: Option<Arc<RouteCache>>,
}

impl PlainRunState {
    /// Runs the construction phase to convergence, verifies the fixed point
    /// against the centralized reference, and pins that reference so the
    /// first streamed event can seed from it.
    ///
    /// `checkpoint(c, s, seed).finish()` produces a byte-identical
    /// [`PlainRunResult`] to `run_plain(c, s, seed)`.
    pub fn checkpoint(
        config: &PlainConfig,
        strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        seed: u64,
    ) -> PlainRunState {
        Self::checkpoint_impl(config, strategies, seed, true, true)
    }

    fn checkpoint_impl(
        config: &PlainConfig,
        mut strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        seed: u64,
        cached_reference: bool,
        pin_reference: bool,
    ) -> PlainRunState {
        let n = config.topo.num_nodes();
        let max_hops = (4 * n) as u32;
        let actors: Vec<PlainFpssNode> = config
            .topo
            .nodes()
            .map(|me| {
                PlainFpssNode::new(
                    me,
                    config.topo.neighbors(me).to_vec(),
                    config.true_costs.cost(me),
                    strategies(me),
                    max_hops,
                )
            })
            .collect();
        let mut net = Network::new(
            Connectivity::from_topology(&config.topo),
            actors,
            config.latency,
            seed,
        )
        .with_network(&config.network)
        .with_dynamics(&config.dynamics)
        .with_max_events(config.max_events);

        // Construction: flood costs, converge routing and pricing.
        let construction = net.run();

        // Compare converged tables with the centralized reference under
        // the declared costs, for the sources the policy selects.
        let declared: CostVector = config
            .topo
            .nodes()
            .map(|id| net.node(id).declared_cost().expect("started"))
            .collect();
        let check_sources = config.reference_check.sources(n);
        let mut pinned = None;
        let tables_match_centralized = if cached_reference {
            let routes = if pin_reference || declared == config.true_costs {
                config.routes.pin(&config.topo, &declared)
            } else {
                config.routes.cache(&config.topo, &declared)
            };
            let ok = check_sources.iter().all(|&id| {
                let core = net.node(id).core();
                tables_match(&routes, id, core.routes(), core.prices())
            });
            if pin_reference {
                // Keep the checked (and now partially materialized) cache as
                // the seeding donor for the first streamed event.
                routes.detach_seed();
                pinned = Some(routes);
            } else {
                // A misreport's single-use cache is dropped here instead of
                // lingering to sweep end; the pinned true-cost cache stays.
                config.routes.release(&routes);
            }
            ok
        } else {
            check_sources.iter().all(|&id| {
                let core = net.node(id).core();
                let (expected_routing, expected_pricing) =
                    crate::pricing::expected_tables_uncached_for(&config.topo, &declared, id);
                tables_agree(
                    core.routes(),
                    core.prices(),
                    &expected_routing,
                    &expected_pricing,
                )
            })
        };

        PlainRunState {
            config: config.clone(),
            net,
            declared,
            down: BTreeSet::new(),
            tables_match_centralized,
            truncated: construction.truncated,
            pinned_reference: pinned,
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
            TopologyEvent::NodeDown(node) => self.apply_node_down(node),
            TopologyEvent::NodeUp(node) => self.apply_node_up(node),
            TopologyEvent::LinkCost { .. } => {
                self.net.apply_dynamics_event(event);
                EventStatus::LatencyOnly
            }
            TopologyEvent::Partition { .. } | TopologyEvent::Heal => EventStatus::Unsupported,
        };
        let reference_ok = if status == EventStatus::Applied && self.down.is_empty() {
            Some(self.check_reference())
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
            reference_ok,
            truncated: self.truncated && !was_truncated,
        }
    }

    fn apply_node_cost(&mut self, node: NodeId, cost: Cost) -> EventStatus {
        if node.index() >= self.config.topo.num_nodes() || self.down.contains(&node) {
            return EventStatus::RejectedDown;
        }
        self.net
            .node_mut(node)
            .queue_stream_command(StreamCommand::DeclareCost(cost));
        self.net.schedule_timer(node, SimDuration::ZERO, TAG_STREAM);
        let outcome = self.net.run();
        self.truncated |= outcome.truncated;
        let declared = self.net.node(node).declared_cost().expect("started");
        self.declared = self.declared.with_cost(node, declared);
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
            if self.down.contains(&id) {
                continue;
            }
            self.net
                .node_mut(id)
                .queue_stream_command(StreamCommand::PurgeNode(node));
            self.net.schedule_timer(id, SimDuration::ZERO, TAG_STREAM);
        }
        let outcome = self.net.run();
        self.truncated |= outcome.truncated;
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
        self.net
            .node_mut(node)
            .queue_stream_command(StreamCommand::Rejoin);
        self.net.schedule_timer(node, SimDuration::ZERO, TAG_STREAM);
        for &nb in self.config.topo.neighbors(node) {
            if self.down.contains(&nb) {
                continue;
            }
            self.net
                .node_mut(nb)
                .queue_stream_command(StreamCommand::ResyncNeighbor(node));
            self.net.schedule_timer(nb, SimDuration::ZERO, TAG_STREAM);
        }
        let outcome = self.net.run();
        self.truncated |= outcome.truncated;
        let declared = self.net.node(node).declared_cost().expect("started");
        self.declared = self.declared.with_cost(node, declared);
        EventStatus::Applied
    }

    /// Re-verifies the current fixed point against the centralized reference
    /// and rolls the seeding pin forward to the fresh cache.
    fn check_reference(&mut self) -> bool {
        let n = self.config.topo.num_nodes();
        // Pin first: under a one-node cost delta this seeds tree repair from
        // the previously pinned fixed point instead of fresh Dijkstras.
        let routes = self.config.routes.pin(&self.config.topo, &self.declared);
        let check_sources = self.config.reference_check.sources(n);
        let ok = check_sources.iter().all(|&id| {
            let core = self.net.node(id).core();
            tables_match(&routes, id, core.routes(), core.prices())
        });
        // The check above materialized every tree it needed; drop the donor
        // link so the stream holds one cache generation, not a chain.
        routes.detach_seed();
        if let Some(prev) = self.pinned_reference.take() {
            if !Arc::ptr_eq(&prev, &routes) {
                self.config.routes.unpin(&prev);
                self.config.routes.release(&prev);
            }
        }
        self.pinned_reference = Some(routes);
        self.tables_match_centralized &= ok;
        ok
    }

    /// Runs the execution phase and settlement on the current fixed point,
    /// consuming the state. Identical to the tail of [`run_plain`].
    pub fn finish(mut self) -> PlainRunResult {
        // Execution: queue traffic, start all sources at once.
        for flow in self.config.traffic.flows() {
            self.net
                .node_mut(flow.src)
                .add_traffic(flow.dst, flow.packets);
        }
        let sources: BTreeSet<NodeId> = self.config.traffic.flows().iter().map(|f| f.src).collect();
        for src in sources {
            self.net
                .schedule_timer(src, SimDuration::ZERO, TAG_BEGIN_EXECUTION);
        }
        let execution = self.net.run();

        let summaries: Vec<_> = self
            .config
            .topo
            .nodes()
            .map(|id| self.net.node_mut(id).execution_summary())
            .collect();
        let utilities = settle_plain(&summaries, &self.config.settlement);

        PlainRunResult {
            utilities,
            tables_match_centralized: self.tables_match_centralized,
            stats: self.net.stats().clone(),
            final_time: execution.final_time,
            truncated: self.truncated || execution.truncated,
        }
    }

    /// Per-node `(data1, routing, pricing)` digests of the converged tables,
    /// in node order. Down nodes report their stale pre-purge tables;
    /// equivalence checks should compare live nodes only.
    pub fn table_digests(&self) -> Vec<(Digest, Digest, Digest)> {
        self.config
            .topo
            .nodes()
            .map(|id| {
                let core = self.net.node(id).core();
                (
                    core.data1().digest(),
                    core.routes().digest(),
                    core.prices().digest(),
                )
            })
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

    /// Whether every reference check so far (checkpoint and per-event) passed.
    pub fn tables_match_centralized(&self) -> bool {
        self.tables_match_centralized
    }

    /// Cumulative transport statistics across construction and all events.
    pub fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// The configuration this state was checkpointed from.
    pub fn config(&self) -> &PlainConfig {
        &self.config
    }
}

impl Drop for PlainRunState {
    fn drop(&mut self) {
        if let Some(prev) = self.pinned_reference.take() {
            self.config.routes.unpin(&prev);
            self.config.routes.release(&prev);
        }
    }
}

/// Whether the subgraph induced by the live (non-`down`) nodes of `topo` is
/// biconnected.
///
/// [`Topology::is_biconnected`] judges the whole vertex set, so any topology
/// with an offline (isolated) node trivially fails it; streamed churn needs
/// the check restricted to live nodes. O(live · edges) — churn events are
/// validated one at a time, never on a hot path.
fn live_biconnected(topo: &Topology, down: &BTreeSet<NodeId>) -> bool {
    let live = topo.num_nodes() - down.len();
    if live < 3 {
        return false;
    }
    let connected_without = |cut: Option<NodeId>| -> bool {
        let excluded = |id: NodeId| down.contains(&id) || cut == Some(id);
        let Some(start) = topo.nodes().find(|&id| !excluded(id)) else {
            return false;
        };
        let mut seen = BTreeSet::new();
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(at) = stack.pop() {
            for &nb in topo.neighbors(at) {
                if !excluded(nb) && seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        topo.nodes()
            .filter(|&id| !excluded(id))
            .all(|id| seen.contains(&id))
    };
    connected_without(None)
        && topo
            .nodes()
            .filter(|id| !down.contains(id))
            .all(|cut| connected_without(Some(cut)))
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
    let n = topo.num_nodes();
    let max_hops = (4 * n) as u32;
    let actors: Vec<PlainFpssNode> = topo
        .nodes()
        .map(|me| {
            PlainFpssNode::new(
                me,
                topo.neighbors(me).to_vec(),
                costs.cost(me),
                Box::new(Faithful),
                max_hops,
            )
        })
        .collect();
    let mut net = Network::new(Connectivity::from_topology(topo), actors, latency, seed);
    let outcome = net.run();
    assert!(!outcome.truncated, "cold oracle run truncated");
    topo.nodes()
        .map(|id| {
            let core = net.node(id).core();
            (
                core.data1().digest(),
                core.routes().digest(),
                core.prices().digest(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviation::{
        DropTransitPackets, MisreportCost, SpoofShortRoutes, UnderreportPayments,
    };
    use specfaith_graph::generators::figure1;

    fn figure1_config() -> (specfaith_graph::generators::Figure1, PlainConfig) {
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
        let config = PlainConfig::new(net.topology.clone(), net.costs.clone(), traffic);
        (net, config)
    }

    #[test]
    fn faithful_run_converges_to_centralized_tables() {
        let (_, config) = figure1_config();
        let result = run_plain_faithful(&config, 3);
        assert!(result.tables_match_centralized);
        assert!(!result.truncated);
    }

    #[test]
    fn faithful_utilities_balance_payments() {
        let (net, config) = figure1_config();
        let result = run_plain_faithful(&config, 3);
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
        let faithful = run_plain_faithful(&config, 3);
        for delta in [2i64, 4, -1] {
            let deviant =
                run_plain_with_deviant(&config, net.c, Box::new(MisreportCost { delta }), 3);
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
        let faithful = run_plain_faithful(&config, 3);
        let deviant = run_plain_with_deviant(
            &config,
            net.x,
            Box::new(UnderreportPayments { keep_percent: 0 }),
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
        let faithful = run_plain_faithful(&config, 3);
        let deviant = run_plain_with_deviant(&config, net.c, Box::new(DropTransitPackets), 3);
        assert!(
            deviant.utilities[net.c.index()] > faithful.utilities[net.c.index()],
            "plain FPSS pays for transit work that was never done: {:?} vs {:?}",
            deviant.utilities[net.c.index()],
            faithful.utilities[net.c.index()]
        );
    }

    use crate::deviation::{ForceFullRecompute, FullRecomputeFaithful};

    #[test]
    fn safe_deviants_take_the_incremental_path_byte_identically() {
        // The deviant-node recompute satellite: strategies whose
        // computation hooks are the identity declare destination-scoped
        // safety and ride the incremental path — observationally
        // indistinguishable (same utilities, same message counts, same
        // reference agreement) from the same strategy forced onto the
        // full-table recompute.
        let (net, config) = figure1_config();
        type StrategyFactory = Box<dyn Fn() -> Box<dyn RationalStrategy>>;
        let cases: Vec<(StrategyFactory, &str)> = vec![
            (
                Box::new(|| Box::new(MisreportCost { delta: 3 })),
                "misreport",
            ),
            (
                Box::new(|| Box::new(crate::deviation::TamperCostFlood { multiplier: 7 })),
                "tamper-flood",
            ),
            (
                Box::new(|| Box::new(crate::deviation::DropCostFlood)),
                "drop-flood",
            ),
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
            let fast = run_plain_with_deviant(&config, net.c, make(), 3);
            let slow =
                run_plain_with_deviant(&config, net.c, Box::new(ForceFullRecompute(make())), 3);
            assert_eq!(fast.utilities, slow.utilities, "{label}");
            assert_eq!(
                fast.stats.total_msgs(),
                slow.stats.total_msgs(),
                "{label}: announcement traffic must be identical"
            );
            assert_eq!(
                fast.tables_match_centralized, slow.tables_match_centralized,
                "{label}"
            );
        }
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
        let full = run_plain_faithful(&config, 3);
        let quick = run_plain_faithful(&sampled, 3);
        assert!(full.tables_match_centralized);
        assert!(quick.tables_match_centralized);
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
    fn incremental_recompute_is_byte_identical_to_full() {
        // The destination-scoped fast path must be observationally
        // indistinguishable from the full recompute: same converged
        // tables, same announcements (hence same message counts), same
        // utilities — on Figure 1 and random biconnected graphs.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use specfaith_graph::generators::random_biconnected;

        let mut configs = vec![figure1_config().1];
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 6 + (seed as usize % 6);
            let topo = random_biconnected(n, n / 2, &mut rng);
            let costs = CostVector::random(n, 0, 15, &mut rng);
            let traffic = TrafficMatrix::random(n, 3, 2, &mut rng);
            configs.push(PlainConfig::new(topo, costs, traffic));
        }
        // Larger instances exercise the flood-time destination scoping
        // (dsts_affected_by_cost) across longer convergence runs.
        for seed in [100u64, 101] {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = specfaith_graph::generators::scale_free(24, 2, &mut rng);
            let costs = CostVector::random(24, 1, 20, &mut rng);
            let traffic = TrafficMatrix::random(24, 5, 2, &mut rng);
            configs.push(PlainConfig::new(topo, costs, traffic));
        }
        for (i, config) in configs.iter().enumerate() {
            let fast = run_plain_faithful(config, 3);
            let slow = run_plain(config, |_| Box::new(FullRecomputeFaithful), 3);
            assert_eq!(fast.utilities, slow.utilities, "config {i}");
            assert_eq!(
                fast.stats.total_msgs(),
                slow.stats.total_msgs(),
                "config {i}: announcement traffic must be identical"
            );
            assert_eq!(
                fast.tables_match_centralized, slow.tables_match_centralized,
                "config {i}"
            );
        }
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
            let config = PlainConfig::new(topo, costs, traffic);
            let result = run_plain_faithful(&config, seed);
            assert!(!result.truncated, "seed {seed} truncated");
            assert!(
                result.tables_match_centralized,
                "seed {seed}: distributed FPSS diverged from the VCG reference"
            );
        }
    }

    #[test]
    fn spoofed_routes_corrupt_tables_in_plain_fpss() {
        // C claiming fake adjacency to X (true LCP Z→X is Z-C-D-X, cost 2)
        // makes Z adopt the nonexistent route Z-C-X of apparent cost 1.
        let (net, config) = figure1_config();
        let deviant = run_plain_with_deviant(&config, net.c, Box::new(SpoofShortRoutes), 3);
        assert!(
            !deviant.tables_match_centralized,
            "spoofed adjacency must corrupt someone's tables"
        );
    }

    #[test]
    fn checkpoint_then_finish_is_byte_identical_to_run_plain() {
        // The tentpole pin (refactor direction): suspending at the fixed
        // point and immediately finishing is the one-shot engine.
        let (net, config) = figure1_config();
        for seed in [1u64, 3, 9] {
            let oneshot = run_plain_faithful(&config, seed);
            let staged = PlainRunState::checkpoint(&config, |_| Box::new(Faithful), seed).finish();
            assert_eq!(oneshot.utilities, staged.utilities, "seed {seed}");
            assert_eq!(
                oneshot.stats.total_msgs(),
                staged.stats.total_msgs(),
                "seed {seed}"
            );
            assert_eq!(oneshot.final_time, staged.final_time, "seed {seed}");
            assert_eq!(
                oneshot.tables_match_centralized, staged.tables_match_centralized,
                "seed {seed}"
            );
            assert_eq!(oneshot.truncated, staged.truncated, "seed {seed}");

            let deviant_oneshot =
                run_plain_with_deviant(&config, net.c, Box::new(MisreportCost { delta: 2 }), seed);
            let mut strategy =
                Some(Box::new(MisreportCost { delta: 2 }) as Box<dyn RationalStrategy>);
            let deviant_staged = PlainRunState::checkpoint(
                &config,
                move |node| {
                    if node == net.c {
                        strategy.take().expect("used once")
                    } else {
                        Box::new(Faithful)
                    }
                },
                seed,
            )
            .finish();
            assert_eq!(deviant_oneshot.utilities, deviant_staged.utilities);
            assert_eq!(
                deviant_oneshot.stats.total_msgs(),
                deviant_staged.stats.total_msgs()
            );
        }
    }

    #[test]
    fn streamed_cost_events_land_on_the_cold_fixed_point() {
        let (net, config) = figure1_config();
        let config = PlainConfig::new(config.topo, config.true_costs, config.traffic);
        let mut state = PlainRunState::checkpoint(&config, |_| Box::new(Faithful), 3);
        assert!(state.tables_match_centralized());
        let events = [
            TopologyEvent::NodeCost {
                node: net.c,
                cost: 9,
            },
            TopologyEvent::NodeCost {
                node: net.d,
                cost: 0,
            },
            // Re-declaring the current value still floods but changes nothing.
            TopologyEvent::NodeCost {
                node: net.c,
                cost: 9,
            },
        ];
        for (i, event) in events.iter().enumerate() {
            let outcome = state.apply_event(event);
            assert_eq!(outcome.status, EventStatus::Applied, "event {i}");
            assert_eq!(outcome.reference_ok, Some(true), "event {i}");
            assert!(outcome.messages > 0, "event {i}: the CostUpdate must flood");
            assert!(!outcome.truncated, "event {i}");
            let cold = converged_table_digests(
                &config.topo,
                state.declared(),
                config.latency,
                7 + i as u64,
            );
            assert_eq!(
                state.table_digests(),
                cold,
                "event {i}: streamed fixed point diverged from a cold run"
            );
        }
        let result = state.finish();
        assert!(result.tables_match_centralized);
        assert!(!result.truncated);
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
        let config = PlainConfig::new(topo.clone(), costs, traffic);
        let mut state = PlainRunState::checkpoint(&config, |_| Box::new(Faithful), 3);
        let baseline = state.table_digests();

        let gone = NodeId::from_index(2);
        let outcome = state.apply_event(&TopologyEvent::NodeDown(gone));
        assert_eq!(outcome.status, EventStatus::Applied);
        // No reference check while a node is down: the cache assumes the
        // full topology.
        assert_eq!(outcome.reference_ok, None);
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
        assert_eq!(outcome.reference_ok, None);

        // The node returns: resync + rejoin must land on the cold full-
        // topology fixed point, and the reference check resumes.
        let outcome = state.apply_event(&TopologyEvent::NodeUp(gone));
        assert_eq!(outcome.status, EventStatus::Applied);
        assert_eq!(outcome.reference_ok, Some(true));
        assert!(state.down().is_empty());
        let cold = converged_table_digests(&topo, state.declared(), config.latency, 13);
        assert_eq!(state.table_digests(), cold);
        assert!(state.tables_match_centralized());
        // And the original fixed point is restored up to node 0's new cost.
        assert_ne!(state.table_digests(), baseline);

        let result = state.finish();
        assert!(result.tables_match_centralized);
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
        let config = PlainConfig::new(topo, costs, traffic);
        let mut state = PlainRunState::checkpoint(&config, |_| Box::new(Faithful), 3);
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
            assert_eq!(outcome.reference_ok, None, "{event:?}");
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
