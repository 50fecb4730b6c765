//! The unified scenario API: one builder for plain and faithful runs, and
//! parallel deviation sweeps.
//!
//! Every workload in this workspace — the paper's Figure 1 experiment, a
//! 64-AS scale-free network under all-pairs traffic, a hotspot stress run
//! — is the same four choices:
//!
//! 1. **where** the nodes live: a [`TopologySource`],
//! 2. **what** they send: a [`TrafficModel`] (and a [`CostModel`] for
//!    their transit costs),
//! 3. **how** the network behaves: a latency model
//!    ([`Latency`](crate::netsim::Latency)),
//! 4. **which** mechanism governs them: [`Mechanism::Plain`] (FPSS as
//!    published — strategyproof pricing, no enforcement) or
//!    [`Mechanism::Faithful`] (the paper's checker/bank extension).
//!
//! [`Scenario::builder`] captures those choices, [`Scenario::run`] plays
//! one faithful profile, [`Scenario::run_with_deviant`] plays one
//! unilateral deviation, and [`Scenario::sweep`] runs the Theorem-1 grid —
//! every `(seed, node, deviation)` cell — **in parallel**, with
//! deterministic per-cell seed derivation ([`cell_seed`]) so the parallel
//! report is byte-identical to the serial one.
//!
//! # Quickstart
//!
//! ```
//! use specfaith::scenario::{Catalog, Mechanism, Scenario, TopologySource, TrafficModel};
//!
//! let scenario = Scenario::builder()
//!     .topology(TopologySource::Figure1)
//!     .traffic(TrafficModel::single_by_index(5, 4, 5)) // X sends 5 packets to Z
//!     .mechanism(Mechanism::faithful())
//!     .build();
//!
//! // One honest run.
//! let run = scenario.run(42);
//! assert!(run.green_lighted() && !run.detected);
//!
//! // The Theorem-1 sweep: catalog × node × seed, in parallel.
//! let report = scenario.sweep(&[42, 43], &Catalog::standard());
//! assert!(report.is_ex_post_nash());
//! ```
//!
//! Every scenario carries a [`CacheScope`] for its runs' reference
//! checks; sweeps, shards, coordinator workers and stream sessions each
//! substitute a fresh one of their own.

mod builder;
mod coord;
mod report;
mod shard;
mod stream;
mod sweep;

pub use builder::{CostModel, ScenarioBuilder, ScenarioError, TopologySource, TrafficModel};
pub use coord::{
    run_worker, run_worker_sampled, CoordAddr, CoordConfig, CoordError, CoordListener,
    CoordOutcome, CoordStats, Coordinator, FaultPlan, Frame, GridManifest, WorkerConfig,
    WorkerError, WorkerStats, WorkerSummary, COORD_FORMAT,
};
pub use report::{MechanismOutcome, RunReport, SweepReport};
pub use shard::{
    FragmentCell, Json, MergeError, ShardSpec, ShardTiming, SweepFragment, FRAGMENT_FORMAT,
};
pub use specfaith_fpss::runner::ReferenceCheck;
pub use specfaith_graph::cache::CacheScope;
pub use specfaith_netsim::{Dynamics, NetModel, TopologyEvent};
pub use stream::{StreamEvent, StreamReport, StreamSession, StreamStatus};
pub use sweep::{cell_seed, Catalog};

use specfaith_core::equilibrium::EquilibriumReport;
use specfaith_core::id::NodeId;
use specfaith_core::money::Money;
use specfaith_faithful::harness as faithful_engine;
use specfaith_faithful::harness::FaithfulConfig;
use specfaith_fpss::deviation::RationalStrategy;
use specfaith_fpss::runner as plain_engine;
use specfaith_fpss::runner::PlainConfig;
use specfaith_fpss::settle::SettlementConfig;
use specfaith_fpss::traffic::TrafficMatrix;
use specfaith_graph::costs::CostVector;
use specfaith_graph::topology::Topology;

/// Which mechanism a [`Scenario`] runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Mechanism {
    /// FPSS as published: VCG pricing makes cost *misreports* useless, but
    /// nothing polices computation or message passing — §4.3's
    /// manipulations are profitable. Plain runs settle with the
    /// builder-level [`ScenarioBuilder::settlement`] parameters.
    Plain,
    /// The paper's faithful extension: checker mirrors, bank checkpoints,
    /// restart-then-halt, and ε-above penalties.
    Faithful {
        /// The ε margin added on top of clawed-back gains when penalizing.
        epsilon: Money,
        /// Construction restarts the bank grants before halting.
        max_restarts: u32,
        /// The progress value `V` every node forfeits on a halt.
        progress_value: Money,
        /// Settlement parameters (per-packet value `W`) for faithful
        /// runs; overrides the builder-level settlement.
        settlement: SettlementConfig,
    },
}

impl Mechanism {
    /// The faithful mechanism with the engine's default enforcement
    /// parameters (ε = 1, 2 restarts, V = 1,000,000, default settlement).
    pub fn faithful() -> Self {
        Mechanism::Faithful {
            epsilon: Money::new(1),
            max_restarts: 2,
            progress_value: Money::new(1_000_000),
            settlement: SettlementConfig::default(),
        }
    }

    /// Whether this is the faithful mechanism.
    pub fn is_faithful(&self) -> bool {
        matches!(self, Mechanism::Faithful { .. })
    }
}

/// The materialized engine configuration behind a scenario.
#[derive(Clone, Debug)]
pub(crate) enum EngineConfig {
    Plain(PlainConfig),
    Faithful(FaithfulConfig),
}

/// A fully materialized simulation instance: topology, costs, traffic,
/// latency, and mechanism, ready to [`run`](Scenario::run) under any seed
/// or [`sweep`](Scenario::sweep) across a deviation catalog.
///
/// Build one with [`Scenario::builder`]. Random sources (topologies,
/// costs, traffic) are materialized **once**, at build time, from the
/// builder's instance seed — so a `Scenario` compares the *same* network
/// across run seeds, deviants, and mechanisms.
#[derive(Clone, Debug)]
pub struct Scenario {
    engine: EngineConfig,
    mechanism: Mechanism,
}

impl Scenario {
    /// Starts building a scenario. See [`ScenarioBuilder`].
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    pub(crate) fn from_parts(engine: EngineConfig, mechanism: Mechanism) -> Self {
        Scenario { engine, mechanism }
    }

    /// This scenario with its route caches drawn from `scope` instead —
    /// the seam the sweep engine uses to give each sweep a registry of
    /// its own, created before the fan-out and dropped with the last
    /// cell.
    pub fn with_route_scope(&self, scope: CacheScope) -> Scenario {
        let mut scenario = self.clone();
        match &mut scenario.engine {
            EngineConfig::Plain(c) => c.routes = scope,
            EngineConfig::Faithful(c) => c.routes = scope,
        }
        scenario
    }

    /// The route-cache scope this scenario's runs draw from.
    pub fn route_scope(&self) -> &CacheScope {
        match &self.engine {
            EngineConfig::Plain(c) => &c.routes,
            EngineConfig::Faithful(c) => &c.routes,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        match &self.engine {
            EngineConfig::Plain(c) => &c.topo,
            EngineConfig::Faithful(c) => &c.topo,
        }
    }

    /// True per-node transit costs.
    pub fn costs(&self) -> &CostVector {
        match &self.engine {
            EngineConfig::Plain(c) => &c.true_costs,
            EngineConfig::Faithful(c) => &c.true_costs,
        }
    }

    /// The execution-phase traffic.
    pub fn traffic(&self) -> &TrafficMatrix {
        match &self.engine {
            EngineConfig::Plain(c) => &c.traffic,
            EngineConfig::Faithful(c) => &c.traffic,
        }
    }

    /// The mechanism this scenario runs.
    pub fn mechanism(&self) -> &Mechanism {
        &self.mechanism
    }

    /// Number of topology nodes.
    pub fn num_nodes(&self) -> usize {
        self.topology().num_nodes()
    }

    /// Runs the scenario with every node faithful.
    pub fn run(&self, seed: u64) -> RunReport {
        match &self.engine {
            EngineConfig::Plain(c) => {
                RunReport::from_plain(plain_engine::run_plain_faithful(c, seed))
            }
            EngineConfig::Faithful(c) => {
                RunReport::from_faithful(faithful_engine::run_faithful_honest(c, seed))
            }
        }
    }

    /// Runs with `deviant` playing `strategy` and everyone else faithful.
    pub fn run_with_deviant(
        &self,
        deviant: NodeId,
        strategy: Box<dyn RationalStrategy>,
        seed: u64,
    ) -> RunReport {
        match &self.engine {
            EngineConfig::Plain(c) => RunReport::from_plain(plain_engine::run_plain_with_deviant(
                c, deviant, strategy, seed,
            )),
            EngineConfig::Faithful(c) => RunReport::from_faithful(
                faithful_engine::run_faithful_with_deviant(c, deviant, strategy, seed),
            ),
        }
    }

    /// Runs with an arbitrary per-node strategy assignment.
    pub fn run_with(
        &self,
        strategies: impl FnMut(NodeId) -> Box<dyn RationalStrategy>,
        seed: u64,
    ) -> RunReport {
        match &self.engine {
            EngineConfig::Plain(c) => {
                RunReport::from_plain(plain_engine::run_plain(c, strategies, seed))
            }
            EngineConfig::Faithful(c) => {
                RunReport::from_faithful(faithful_engine::run_faithful(c, strategies, seed))
            }
        }
    }

    /// The single-seed equilibrium report over `catalog`: the faithful
    /// profile plus every `(node, deviation)` unilateral deviation.
    ///
    /// Equivalent to `sweep(&[seed], catalog)`'s one per-seed report, and
    /// uses the identical per-cell seed derivation ([`cell_seed`]), so
    /// single-seed and swept results agree exactly.
    pub fn equilibrium_report(&self, seed: u64, catalog: &Catalog) -> EquilibriumReport {
        sweep::equilibrium_report_serial(self, seed, catalog)
    }

    /// The Theorem-1 sweep over a seed grid: for every seed, the faithful
    /// baseline plus every `(node, deviation)` cell from `catalog`,
    /// executed **in parallel** across all cells of all seeds.
    ///
    /// Each cell derives its own seed via [`cell_seed`], so results do not
    /// depend on scheduling; the output is byte-identical to
    /// [`Scenario::sweep_serial`] for the same inputs, regardless of
    /// thread count.
    ///
    /// The sweep owns its route caches: every cell draws from one fresh
    /// sweep-scoped [`CacheScope`], so concurrent workloads cannot touch
    /// the caches, and all cache memory is released when the sweep
    /// returns.
    /// A misreport cell's single-use cache is dropped as soon as the
    /// cell's reference check completes, so peak cache memory tracks the
    /// *concurrent* cells (roughly 2 MB/cell at `n = 64` times the thread
    /// count) instead of every distinct declared-cost vector of the sweep
    /// (~1.5 GB for the full-catalog standard sweep if all were kept).
    /// The honest baselines pin the true-cost cache that all
    /// non-misreporting cells share and every misreport cell's cache is
    /// repaired from.
    pub fn sweep(&self, seeds: &[u64], catalog: &Catalog) -> SweepReport {
        self.sweep_scoped(seeds, catalog, &CacheScope::eager())
    }

    /// [`Scenario::sweep`] drawing route caches from a caller-provided
    /// scope — for callers that sweep repeatedly over the same instance
    /// (keep the scope alive to share reference tables across sweeps) or
    /// that assert on cache behavior (hits, misses, releases).
    pub fn sweep_scoped(
        &self,
        seeds: &[u64],
        catalog: &Catalog,
        scope: &CacheScope,
    ) -> SweepReport {
        sweep::sweep(&self.with_route_scope(scope.clone()), seeds, catalog, true)
    }

    /// The same sweep as [`Scenario::sweep`], executed strictly serially
    /// on the calling thread. Reference implementation for determinism
    /// tests and a fallback for single-core environments.
    pub fn sweep_serial(&self, seeds: &[u64], catalog: &Catalog) -> SweepReport {
        sweep::sweep(
            &self.with_route_scope(CacheScope::eager()),
            seeds,
            catalog,
            false,
        )
    }

    /// The sweep restricted to deviations by `agents` (topology indices):
    /// the large-`n` entry point, where the full `n × catalog` grid is
    /// out of reach but a sampled agent set still probes faithfulness.
    ///
    /// Every evaluated cell is **byte-identical** to the corresponding
    /// cell of the full [`Scenario::sweep`] — per-cell seeds depend only
    /// on `(seed, agent, deviation)`, not on which other agents are swept.
    ///
    /// # Panics
    ///
    /// Panics if an agent index is out of range or listed twice.
    pub fn sweep_sampled(&self, seeds: &[u64], catalog: &Catalog, agents: &[usize]) -> SweepReport {
        let n = self.num_nodes();
        assert!(
            agents.iter().all(|&agent| agent < n),
            "sampled agents must be topology indices"
        );
        assert!(
            (1..agents.len()).all(|i| !agents[..i].contains(&agents[i])),
            "sampled agents must be distinct"
        );
        sweep::sweep_agents(
            &self.with_route_scope(CacheScope::eager()),
            seeds,
            catalog,
            agents,
            true,
        )
    }

    /// One shard of the full-agent sweep grid: evaluates every seed's
    /// honest baseline plus exactly the `(seed × agent × deviation)`
    /// cells `shard` owns (strided assignment — see
    /// [`ShardSpec::cell_indices`]), and returns them as a serializable
    /// [`SweepFragment`].
    ///
    /// Running every shard of the partition (in any order, on any
    /// machines) and recombining with [`SweepFragment::merge`] yields a
    /// [`SweepReport`] **byte-identical** to [`Scenario::sweep`] over the
    /// same seeds and catalog — per-cell seeds depend only on
    /// `(seed, agent, deviation)`, never on the partition.
    ///
    /// `instance` is a caller-chosen grid label carried in the fragment
    /// manifest; the merge refuses fragments whose labels (or instance
    /// fingerprints, seeds, agents, or catalogs) disagree.
    pub fn sweep_shard(
        &self,
        seeds: &[u64],
        catalog: &Catalog,
        shard: ShardSpec,
        instance: &str,
    ) -> SweepFragment {
        let agents: Vec<usize> = (0..self.num_nodes()).collect();
        shard::run_shard(
            &self.with_route_scope(CacheScope::eager()),
            seeds,
            catalog,
            &agents,
            shard,
            instance,
        )
    }

    /// [`Scenario::sweep_shard`] restricted to deviations by `agents` —
    /// the sharded counterpart of [`Scenario::sweep_sampled`], with the
    /// same cell-identity guarantee.
    ///
    /// # Panics
    ///
    /// Panics if an agent index is out of range or listed twice.
    pub fn sweep_shard_sampled(
        &self,
        seeds: &[u64],
        catalog: &Catalog,
        agents: &[usize],
        shard: ShardSpec,
        instance: &str,
    ) -> SweepFragment {
        let n = self.num_nodes();
        assert!(
            agents.iter().all(|&agent| agent < n),
            "sampled agents must be topology indices"
        );
        assert!(
            (1..agents.len()).all(|i| !agents[..i].contains(&agents[i])),
            "sampled agents must be distinct"
        );
        shard::run_shard(
            &self.with_route_scope(CacheScope::eager()),
            seeds,
            catalog,
            agents,
            shard,
            instance,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_share_the_pinned_true_cost_cache_and_seed_misreports_from_it() {
        use specfaith_fpss::deviation::MisreportCost;
        let scenario = Scenario::builder().build();
        let scope = scenario.route_scope();
        for _ in 0..3 {
            let _ = scenario.run(7);
        }
        assert_eq!(scope.misses(), 1, "the first run registers the cache");
        assert_eq!(scope.hits(), 2, "later runs reuse it");
        assert_eq!(scope.len(), 1);
        let c = NodeId::from_index(2);
        let _ = scenario.run_with_deviant(c, Box::new(MisreportCost { delta: 2 }), 7);
        assert_eq!(
            scope.seeded(),
            1,
            "the misreport's cache is repaired from the pinned one"
        );
        assert_eq!(scope.len(), 1, "and released after its check");
    }

    #[test]
    fn mechanism_default_constructor_matches_engine_defaults() {
        let Mechanism::Faithful {
            epsilon,
            max_restarts,
            progress_value,
            ..
        } = Mechanism::faithful()
        else {
            panic!("faithful() must build the Faithful variant");
        };
        assert_eq!(epsilon, Money::new(1));
        assert_eq!(max_restarts, 2);
        assert_eq!(progress_value, Money::new(1_000_000));
        assert!(Mechanism::faithful().is_faithful());
        assert!(!Mechanism::Plain.is_faithful());
    }
}
