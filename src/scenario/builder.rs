//! The scenario builder: declarative sources for topology, costs, and
//! traffic, materialized into a [`Scenario`] at build time.

use super::{EngineConfig, Mechanism, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith_core::id::NodeId;
use specfaith_faithful::harness::FaithfulConfig;
use specfaith_fpss::runner::{PlainConfig, ReferenceCheck};
use specfaith_fpss::settle::SettlementConfig;
use specfaith_fpss::traffic::{Flow, TrafficMatrix};
use specfaith_graph::costs::CostVector;
use specfaith_graph::generators;
use specfaith_graph::topology::Topology;
use specfaith_netsim::{Dynamics, Latency, NetModel};
use std::fmt;

/// Where the scenario's topology comes from.
///
/// Random sources ([`TopologySource::RandomBiconnected`],
/// [`TopologySource::ScaleFree`]) draw from the builder's
/// [instance seed](ScenarioBuilder::instance_seed), so the materialized
/// network is a pure function of the builder configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologySource {
    /// The paper's 6-node Figure 1 network (with its stated costs, unless
    /// overridden by an explicit [`CostModel`]).
    Figure1,
    /// A cycle on `n ≥ 3` nodes.
    Ring(usize),
    /// A `w × h` grid (`w, h ≥ 2`).
    Grid(usize, usize),
    /// A ring of `n − 1` nodes plus a hub adjacent to all (`n ≥ 4`).
    Wheel(usize),
    /// The complete graph on `n ≥ 3` nodes.
    Complete(usize),
    /// A hub and `n − 1` leaves. **Not biconnected** — FPSS scenarios
    /// reject it at build time; see [`generators::star`].
    Star(usize),
    /// Barabási–Albert preferential attachment: `n` nodes, each newcomer
    /// attaching to `attachments ≥ 2` distinct nodes. Biconnected by
    /// construction; see [`generators::scale_free`].
    ScaleFree {
        /// Total nodes.
        n: usize,
        /// Edges each newcomer adds (`≥ 2`).
        attachments: usize,
    },
    /// A random Hamiltonian cycle plus `extra_edges` chords.
    RandomBiconnected {
        /// Total nodes.
        n: usize,
        /// Random chords added on top of the cycle.
        extra_edges: usize,
    },
    /// An explicit, caller-built topology.
    Explicit(Topology),
}

impl TopologySource {
    fn materialize(&self, rng: &mut StdRng) -> Topology {
        match self {
            TopologySource::Figure1 => generators::figure1().topology,
            TopologySource::Ring(n) => generators::ring(*n),
            TopologySource::Grid(w, h) => generators::grid(*w, *h),
            TopologySource::Wheel(n) => generators::wheel(*n),
            TopologySource::Complete(n) => generators::complete(*n),
            TopologySource::Star(n) => generators::star(*n),
            TopologySource::ScaleFree { n, attachments } => {
                generators::scale_free(*n, *attachments, rng)
            }
            TopologySource::RandomBiconnected { n, extra_edges } => {
                generators::random_biconnected(*n, *extra_edges, rng)
            }
            TopologySource::Explicit(topo) => topo.clone(),
        }
    }
}

/// Where the scenario's true transit costs come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostModel {
    /// Figure 1's stated costs when the topology is
    /// [`TopologySource::Figure1`], otherwise `Uniform(1)`.
    Default,
    /// Every node costs the same.
    Uniform(u64),
    /// Uniformly random costs in `lo..=hi`, drawn from the instance seed.
    Random {
        /// Lowest cost (inclusive).
        lo: u64,
        /// Highest cost (inclusive).
        hi: u64,
    },
    /// An explicit cost vector (arity must match the topology).
    Explicit(CostVector),
}

impl CostModel {
    fn materialize(&self, source: &TopologySource, n: usize, rng: &mut StdRng) -> CostVector {
        match self {
            CostModel::Default => match source {
                TopologySource::Figure1 => generators::figure1().costs,
                _ => CostVector::uniform(n, 1),
            },
            CostModel::Uniform(cost) => CostVector::uniform(n, *cost),
            CostModel::Random { lo, hi } => CostVector::random(n, *lo, *hi, rng),
            CostModel::Explicit(costs) => costs.clone(),
        }
    }
}

/// What the scenario's execution-phase traffic looks like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrafficModel {
    /// One flow.
    Single {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Packets sent.
        packets: u64,
    },
    /// Explicit flows.
    Flows(Vec<Flow>),
    /// Every ordered node pair sends `packets` packets
    /// ([`TrafficMatrix::uniform_all_pairs`]).
    UniformAllPairs {
        /// Packets per ordered pair.
        packets: u64,
    },
    /// Every node sends `packets` packets to one hotspot destination
    /// ([`TrafficMatrix::hotspot`]).
    Hotspot {
        /// The destination every other node converges on.
        hotspot: NodeId,
        /// Packets per source.
        packets: u64,
    },
    /// `flows` random flows with `1..=max_packets` packets each, drawn
    /// from the instance seed.
    Random {
        /// Number of flows.
        flows: usize,
        /// Maximum packets per flow.
        max_packets: u64,
    },
}

impl TrafficModel {
    /// A single flow named by node *indices* — convenient when the
    /// topology is declarative and `NodeId`s do not exist yet (e.g.
    /// Figure 1's X is index 5, Z is index 4).
    pub fn single_by_index(src: usize, dst: usize, packets: u64) -> Self {
        TrafficModel::Single {
            src: NodeId::from_index(src),
            dst: NodeId::from_index(dst),
            packets,
        }
    }

    fn materialize(&self, n: usize, rng: &mut StdRng) -> TrafficMatrix {
        match self {
            TrafficModel::Single { src, dst, packets } => {
                TrafficMatrix::single(*src, *dst, *packets)
            }
            TrafficModel::Flows(flows) => TrafficMatrix::from_flows(flows.clone()),
            TrafficModel::UniformAllPairs { packets } => {
                TrafficMatrix::uniform_all_pairs(n, *packets)
            }
            TrafficModel::Hotspot { hotspot, packets } => {
                TrafficMatrix::hotspot(n, *hotspot, *packets)
            }
            TrafficModel::Random { flows, max_packets } => {
                TrafficMatrix::random(n, *flows, *max_packets, rng)
            }
        }
    }
}

/// Why a scenario could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The materialized topology is not biconnected (FPSS requires
    /// biconnectivity; e.g. every [`TopologySource::Star`]).
    NotBiconnected {
        /// Nodes in the offending topology.
        nodes: usize,
    },
    /// An explicit cost vector's arity does not match the topology.
    CostArityMismatch {
        /// Topology nodes.
        nodes: usize,
        /// Cost vector length.
        costs: usize,
    },
    /// A traffic endpoint names a node outside the topology.
    TrafficOutOfRange {
        /// Topology nodes.
        nodes: usize,
        /// The offending endpoint.
        endpoint: NodeId,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NotBiconnected { nodes } => write!(
                f,
                "topology on {nodes} nodes is not biconnected; FPSS requires a biconnected \
                 graph (stars never qualify — use a wheel for hub-and-spoke)"
            ),
            ScenarioError::CostArityMismatch { nodes, costs } => write!(
                f,
                "cost vector has {costs} entries for a topology of {nodes} nodes"
            ),
            ScenarioError::TrafficOutOfRange { nodes, endpoint } => write!(
                f,
                "traffic endpoint {endpoint} is outside the {nodes}-node topology"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Builder for [`Scenario`]; see the [module docs](crate::scenario) for
/// the full tour.
///
/// Defaults: Figure 1 topology with its paper costs, X→Z traffic of 5
/// packets, fixed 10 µs latency, the plain mechanism, and the engines'
/// default settlement and event budgets.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    topology: TopologySource,
    costs: CostModel,
    traffic: TrafficModel,
    latency: Latency,
    network: NetModel,
    dynamics: Dynamics,
    mechanism: Mechanism,
    settlement: SettlementConfig,
    max_events: Option<u64>,
    instance_seed: u64,
    reference_check: ReferenceCheck,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            topology: TopologySource::Figure1,
            costs: CostModel::Default,
            // Figure 1's X (index 5) → Z (index 4), the paper's flow.
            traffic: TrafficModel::single_by_index(5, 4, 5),
            latency: Latency::DEFAULT,
            network: NetModel::DEFAULT,
            dynamics: Dynamics::new(),
            mechanism: Mechanism::Plain,
            settlement: SettlementConfig::default(),
            max_events: None,
            instance_seed: 0,
            reference_check: ReferenceCheck::Full,
        }
    }
}

impl ScenarioBuilder {
    /// A builder with the defaults above.
    pub fn new() -> Self {
        Self::default()
    }

    /// A preset for large sparse scale-free workloads (`n ≥ 1024`):
    /// Barabási–Albert topology with two attachments per newcomer,
    /// random costs in `1..=20`, `max(32, n/16)` random flows, the plain
    /// mechanism, a destination-sampled reference check (64 sources),
    /// and an event budget sized for large-`n` construction.
    ///
    /// Returned as a builder so callers can still override any choice
    /// (e.g. switch the mechanism or tighten the reference check).
    pub fn large_scale_free(n: usize) -> Self {
        ScenarioBuilder::new()
            .topology(TopologySource::ScaleFree { n, attachments: 2 })
            .large_sparse_defaults(n)
    }

    /// A preset for large sparse grid workloads: a `side × side` grid
    /// with the same cost/traffic/check defaults as
    /// [`ScenarioBuilder::large_scale_free`].
    pub fn large_grid(side: usize) -> Self {
        ScenarioBuilder::new()
            .topology(TopologySource::Grid(side, side))
            .large_sparse_defaults(side * side)
    }

    /// The shared large-`n` defaults behind the presets above.
    fn large_sparse_defaults(self, n: usize) -> Self {
        self.costs(CostModel::Random { lo: 1, hi: 20 })
            .traffic(TrafficModel::Random {
                flows: (n / 16).max(32),
                max_packets: 3,
            })
            .mechanism(Mechanism::Plain)
            .reference_check(ReferenceCheck::Sampled { sources: 64 })
            .max_events(1_000_000_000)
    }

    /// Sets the topology source.
    #[must_use]
    pub fn topology(mut self, topology: TopologySource) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the cost model.
    #[must_use]
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Sets the traffic model.
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the link latency model.
    #[must_use]
    pub fn latency(mut self, latency: Latency) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the network model — how message size and link load decide
    /// delivery times. Defaults to [`NetModel::Ideal`] (latency-only,
    /// byte-identical to scenarios built before the model existed).
    /// Presets: [`NetModel::constant`], [`NetModel::shared`],
    /// [`NetModel::congested`], and [`NetModel::with_loss`] for seeded
    /// drops.
    #[must_use]
    pub fn network(mut self, network: NetModel) -> Self {
        self.network = network;
        self
    }

    /// Schedules topology dynamics (partitions, node churn, link-cost
    /// changes) applied at sim times during every run of the scenario.
    /// Defaults to none.
    #[must_use]
    pub fn dynamics(mut self, dynamics: Dynamics) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// Sets the mechanism.
    #[must_use]
    pub fn mechanism(mut self, mechanism: Mechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Sets the settlement parameters used by **plain** runs. (Faithful
    /// runs settle with the [`Mechanism::Faithful`] variant's embedded
    /// settlement.)
    #[must_use]
    pub fn settlement(mut self, settlement: SettlementConfig) -> Self {
        self.settlement = settlement;
        self
    }

    /// Overrides the simulator event budget (defaults to the engine's:
    /// 5M events plain, 10M faithful).
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Seed from which random *sources* (topology, costs, traffic) are
    /// materialized at build time. Distinct from the run seed: the
    /// instance seed decides *which network exists*, the run seed decides
    /// *how one simulation of it unfolds*.
    #[must_use]
    pub fn instance_seed(mut self, seed: u64) -> Self {
        self.instance_seed = seed;
        self
    }

    /// Sets how runs compare converged tables against the centralized
    /// VCG reference: [`ReferenceCheck::Full`] (default) verifies every
    /// node; [`ReferenceCheck::Sampled`] verifies a deterministic sample
    /// — the large-`n` setting, where full verification costs one LCP
    /// tree per node plus avoid trees for every on-path transit.
    #[must_use]
    pub fn reference_check(mut self, check: ReferenceCheck) -> Self {
        self.reference_check = check;
        self
    }

    /// Materializes and validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the topology is not biconnected
    /// (e.g. any star), costs mismatch arity, or traffic endpoints fall
    /// outside the topology.
    pub fn try_build(self) -> Result<Scenario, ScenarioError> {
        let mut rng = StdRng::seed_from_u64(self.instance_seed);
        let topo = self.topology.materialize(&mut rng);
        let n = topo.num_nodes();
        if !topo.is_biconnected() {
            return Err(ScenarioError::NotBiconnected { nodes: n });
        }
        let costs = self.costs.materialize(&self.topology, n, &mut rng);
        if costs.len() != n {
            return Err(ScenarioError::CostArityMismatch {
                nodes: n,
                costs: costs.len(),
            });
        }
        // Validate declared endpoints *before* materializing: the traffic
        // constructors assert in-range endpoints, and try_build's contract
        // is Err, not panic. (Generated models — UniformAllPairs, Random —
        // are in-range by construction.)
        let declared_endpoints: Vec<NodeId> = match &self.traffic {
            TrafficModel::Single { src, dst, .. } => vec![*src, *dst],
            TrafficModel::Flows(flows) => flows.iter().flat_map(|f| [f.src, f.dst]).collect(),
            TrafficModel::Hotspot { hotspot, .. } => vec![*hotspot],
            TrafficModel::UniformAllPairs { .. } | TrafficModel::Random { .. } => Vec::new(),
        };
        if let Some(&endpoint) = declared_endpoints.iter().find(|e| e.index() >= n) {
            return Err(ScenarioError::TrafficOutOfRange { nodes: n, endpoint });
        }
        let traffic = self.traffic.materialize(n, &mut rng);

        // Each scenario owns its route caches through the engine config's
        // own scope; sweeps substitute a sweep-scoped registry on top.
        let engine = match &self.mechanism {
            Mechanism::Plain => {
                let mut config = PlainConfig::new(topo, costs, traffic);
                config.latency = self.latency;
                config.network = self.network.clone();
                config.dynamics = self.dynamics.clone();
                config.settlement = self.settlement;
                config.reference_check = self.reference_check;
                if let Some(max_events) = self.max_events {
                    config.max_events = max_events;
                }
                EngineConfig::Plain(config)
            }
            Mechanism::Faithful {
                epsilon,
                max_restarts,
                progress_value,
                settlement,
            } => {
                let mut config = FaithfulConfig::new(topo, costs, traffic);
                config.latency = self.latency;
                config.network = self.network.clone();
                config.dynamics = self.dynamics.clone();
                config.epsilon = *epsilon;
                config.max_restarts = *max_restarts;
                config.progress_value = *progress_value;
                config.settlement = *settlement;
                config.reference_check = self.reference_check;
                if let Some(max_events) = self.max_events {
                    config.max_events = max_events;
                }
                EngineConfig::Faithful(config)
            }
        };
        Ok(Scenario::from_parts(engine, self.mechanism))
    }

    /// Materializes and validates the scenario, panicking on invalid
    /// configurations. Use [`ScenarioBuilder::try_build`] to handle
    /// rejection (e.g. probing whether a topology qualifies).
    ///
    /// # Panics
    ///
    /// Panics with the [`ScenarioError`] message on invalid
    /// configurations.
    pub fn build(self) -> Scenario {
        match self.try_build() {
            Ok(scenario) => scenario,
            Err(error) => panic!("invalid scenario: {error}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Mechanism;

    #[test]
    fn default_builder_is_figure1_plain() {
        let scenario = Scenario::builder().build();
        assert_eq!(scenario.num_nodes(), 6);
        assert_eq!(
            scenario.costs().cost(NodeId::new(2)).value(),
            1,
            "C costs 1"
        );
        assert_eq!(scenario.traffic().flows().len(), 1);
        assert!(!scenario.mechanism().is_faithful());
    }

    #[test]
    fn star_topologies_are_rejected_not_built() {
        let err = Scenario::builder()
            .topology(TopologySource::Star(6))
            .try_build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::NotBiconnected { nodes: 6 });
        assert!(err.to_string().contains("not biconnected"));
    }

    #[test]
    #[should_panic(expected = "not biconnected")]
    fn star_build_panics_with_the_same_message() {
        let _ = Scenario::builder()
            .topology(TopologySource::Star(4))
            .build();
    }

    #[test]
    fn scale_free_scenarios_build_and_run() {
        let scenario = Scenario::builder()
            .topology(TopologySource::ScaleFree {
                n: 12,
                attachments: 2,
            })
            .costs(CostModel::Random { lo: 1, hi: 9 })
            .traffic(TrafficModel::Random {
                flows: 4,
                max_packets: 3,
            })
            .instance_seed(7)
            .build();
        assert_eq!(scenario.num_nodes(), 12);
        assert!(scenario.topology().is_biconnected());
        let run = scenario.run(1);
        assert!(!run.truncated);
        assert_eq!(run.tables_match_centralized(), Some(true));
    }

    #[test]
    fn instance_seed_decides_the_network() {
        let build = |instance_seed| {
            Scenario::builder()
                .topology(TopologySource::RandomBiconnected {
                    n: 10,
                    extra_edges: 3,
                })
                .instance_seed(instance_seed)
                .build()
        };
        assert_eq!(build(1).topology(), build(1).topology());
        assert_ne!(build(1).topology(), build(2).topology());
    }

    #[test]
    fn explicit_cost_arity_is_validated() {
        let err = Scenario::builder()
            .topology(TopologySource::Ring(5))
            .costs(CostModel::Explicit(CostVector::uniform(3, 1)))
            .try_build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::CostArityMismatch { nodes: 5, costs: 3 });
    }

    #[test]
    fn traffic_endpoints_are_validated() {
        let err = Scenario::builder()
            .topology(TopologySource::Ring(4))
            .traffic(TrafficModel::single_by_index(0, 9, 1))
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::TrafficOutOfRange { .. }));
    }

    #[test]
    fn out_of_range_hotspot_is_an_error_not_a_panic() {
        // TrafficMatrix::hotspot asserts its center in range; try_build's
        // contract is Err, so validation must run before materialization.
        let err = Scenario::builder()
            .topology(TopologySource::Ring(4))
            .traffic(TrafficModel::Hotspot {
                hotspot: NodeId::new(9),
                packets: 1,
            })
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::TrafficOutOfRange {
                nodes: 4,
                endpoint: NodeId::new(9)
            }
        );

        let err = Scenario::builder()
            .topology(TopologySource::Ring(4))
            .traffic(TrafficModel::Flows(vec![Flow {
                src: NodeId::new(1),
                dst: NodeId::new(7),
                packets: 1,
            }]))
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::TrafficOutOfRange { .. }));
    }

    #[test]
    fn hotspot_traffic_materializes_against_topology_size() {
        let scenario = Scenario::builder()
            .topology(TopologySource::Wheel(7))
            .costs(CostModel::Uniform(2))
            .traffic(TrafficModel::Hotspot {
                hotspot: NodeId::new(6),
                packets: 2,
            })
            .mechanism(Mechanism::faithful())
            .build();
        assert_eq!(scenario.traffic().flows().len(), 6);
        let run = scenario.run(3);
        assert!(run.green_lighted() && !run.detected);
    }

    #[test]
    fn uniform_all_pairs_traffic_scales_with_n() {
        let scenario = Scenario::builder()
            .topology(TopologySource::Complete(5))
            .costs(CostModel::Uniform(1))
            .traffic(TrafficModel::UniformAllPairs { packets: 1 })
            .build();
        assert_eq!(scenario.traffic().flows().len(), 20);
    }
}
