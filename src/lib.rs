//! # specfaith
//!
//! A Rust reproduction of *"Specification Faithfulness in Networks with
//! Rational Nodes"* (Jeffrey Shneidman & David C. Parkes, PODC 2004): a
//! framework for building — and empirically certifying — distributed
//! mechanism specifications that rational, utility-maximizing nodes will
//! choose to follow.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`core`] — the mechanism-design formalism: action classification
//!   (information-revelation / message-passing / computation),
//!   strategyproofness and ex post Nash testers, generic VCG, phase
//!   decomposition, and the extended failure taxonomy.
//! * [`crypto`] — SHA-256, HMAC, authenticated bank channels, table
//!   hashing.
//! * [`graph`] — node-weighted topologies, biconnectivity, lowest-cost
//!   paths with deterministic tie-breaking, the paper's Figure 1, and the
//!   synthetic families (rings, grids, wheels, stars, scale-free, random
//!   biconnected).
//! * [`netsim`] — the deterministic discrete-event simulator.
//! * [`fpss`] — plain FPSS lowest-cost interdomain routing (distributed
//!   LCP + VCG pricing), its execution phase, the deviation library, and
//!   the run lifecycle.
//! * [`faithful`] — the paper's faithful extension: checker nodes, the
//!   checkpointing bank, catch-and-punish, as an overlay on that
//!   lifecycle.
//! * [`scenario`] — **the front door**: one builder for plain and
//!   faithful runs, and parallel Theorem-1 deviation sweeps.
//!
//! # Quickstart
//!
//! Describe the experiment — topology, traffic, mechanism — build it, and
//! sweep the standard deviation catalog:
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
//! let report = scenario.sweep(&[42], &Catalog::standard());
//! assert!(report.is_ex_post_nash());
//! assert!(report.strong_cc_holds() && report.strong_ac_holds());
//! ```

pub use specfaith_core as core;
pub use specfaith_crypto as crypto;
pub use specfaith_faithful as faithful;
pub use specfaith_fpss as fpss;
pub use specfaith_graph as graph;
pub use specfaith_netsim as netsim;

pub mod scenario;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::scenario::{
        run_worker, run_worker_sampled, CacheScope, Catalog, CoordAddr, CoordConfig, CoordError,
        CoordListener, CoordOutcome, CoordStats, Coordinator, CostModel, Dynamics, Enforcement,
        FaultPlan, Mechanism, MergeError, NetModel, ReferenceCheck, RunReport, Scenario,
        ScenarioBuilder, ScenarioError, ShardSpec, StreamEvent, StreamReport, StreamSession,
        StreamStatus, SweepFragment, SweepReport, TopologyEvent, TopologySource, TrafficModel,
        WorkerConfig, WorkerError, WorkerSummary,
    };
    pub use specfaith_core::actions::{CompatibilityKind, DeviationSurface, ExternalActionKind};
    pub use specfaith_core::equilibrium::{DeviationSpec, EquilibriumReport, EquilibriumSuite};
    pub use specfaith_core::faithfulness::FaithfulnessCertificate;
    pub use specfaith_core::id::NodeId;
    pub use specfaith_core::money::{Cost, Money};
    pub use specfaith_faithful::metrics::measure_overhead;
    pub use specfaith_fpss::deviation::{Faithful, RationalStrategy};
    pub use specfaith_fpss::runner::RunConfig;
    pub use specfaith_fpss::traffic::{Flow, TrafficMatrix};
    pub use specfaith_graph::costs::CostVector;
    pub use specfaith_graph::generators::{figure1, random_biconnected};
    pub use specfaith_graph::topology::Topology;
    pub use specfaith_netsim::Latency;
}
