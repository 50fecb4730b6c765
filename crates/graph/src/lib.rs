//! # specfaith-graph
//!
//! Node-weighted network topologies for the FPSS interdomain-routing case
//! study: autonomous systems are nodes with per-packet **transit costs**;
//! the cost of a path is the sum of the transit costs of its *intermediate*
//! nodes (endpoints transit for free).
//!
//! Provides:
//!
//! * [`Topology`] — undirected simple graphs with connectivity and
//!   biconnectivity queries (FPSS assumes a biconnected graph so that VCG
//!   payments are well-defined).
//! * [`CostVector`] — per-node transit costs.
//! * [`lcp`] — lowest-cost-path computation with a **deterministic total
//!   tie-breaking order** ([`PathMetric`]), so that every node (and every
//!   checker mirroring a principal) resolves ties identically.
//! * [`cache`] — the [`RouteCache`]: memoized all-pairs routes per
//!   `(topology, cost-vector)` pair, computed once and borrowed everywhere
//!   (the hot path of the Theorem-1 deviation sweep).
//! * [`repair`] — incremental tree repair: `d_{G−k}` avoid trees and
//!   one-node cost changes recomputed from a base tree by re-relaxing only
//!   the detached subtree, exactly equivalent to a fresh Dijkstra.
//! * [`generators`] — the paper's Figure 1 network plus synthetic families
//!   (rings, grids, wheels, random biconnected graphs).
//!
//! # Example
//!
//! ```
//! use specfaith_graph::cache::RouteCache;
//! use specfaith_graph::generators::figure1;
//!
//! let net = figure1();
//! let routes = RouteCache::new(net.topology.clone(), net.costs.clone());
//! // The paper: "the total LCP cost of sending a packet from X to Z is 2".
//! let path = routes.path(net.x, net.z).expect("connected");
//! assert_eq!(path.cost().value(), 2);
//! ```

pub mod cache;
pub mod costs;
pub mod generators;
pub mod lcp;
pub mod path;
pub mod repair;
pub mod topology;

pub use cache::RouteCache;
pub use costs::CostVector;
pub use path::PathMetric;
pub use topology::{Topology, TopologyBuilder};

pub use specfaith_core::id::NodeId;
pub use specfaith_core::money::Cost;
