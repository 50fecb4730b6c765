//! # specfaith-fpss
//!
//! The FPSS lowest-cost interdomain routing mechanism (Feigenbaum,
//! Papadimitriou, Sami, Shenker — PODC 2002), as summarized and extended in
//! §4.1 of Shneidman & Parkes. This crate is the **plain** (unfaithful)
//! mechanism: nodes are assumed to compute and forward honestly, exactly as
//! FPSS assumed. The `specfaith-faithful` crate adds the checker/bank
//! machinery that removes that assumption.
//!
//! ## The mechanism
//!
//! Each autonomous system (node) `k` has a per-packet transit cost `c_k`;
//! a path's cost is the sum of its *intermediate* nodes' costs. Traffic
//! between every pair `(i, j)` follows the lowest-cost path (LCP), and each
//! transit node `k` on it is paid the VCG amount
//!
//! ```text
//! pᵏᵢⱼ = ĉ_k + d_{G−k}(i,j) − d_G(i,j)
//! ```
//!
//! which makes truthful cost declaration a dominant strategy.
//!
//! ## What this crate provides
//!
//! * [`state`] — the per-node data of §4.1: transit-cost list (DATA1),
//!   routing table (DATA2), pricing table with identity tags (DATA3*), and
//!   payment ledger (DATA4), each with a canonical bank hash; [`tags`]
//!   holds the DATA3* identity-tag set.
//! * [`compute`] — the **pure** recomputation functions for routing and
//!   pricing. Principals, plain nodes, and checker mirrors all call the
//!   same functions; bit-identical outputs are what make hash comparison
//!   meaningful.
//! * [`pricing`] — the centralized VCG reference (`pᵏᵢⱼ` via Dijkstra) and
//!   the [`RoutingProblem`](pricing::RoutingProblem) adapter that plugs FPSS
//!   into the generic strategyproofness tester.
//! * [`node`] — the plain FPSS node actor: cost flooding, asynchronous
//!   path-vector routing, iterative distributed pricing, and execution
//!   (packet forwarding + payment ledgers).
//! * [`traffic`] / [`settle`] — traffic matrices and the settlement oracle
//!   computing realized utilities.
//! * [`deviation`] — the `RationalStrategy`
//!   hook surface and the deviation library (the manipulations of §4.3).
//! * [`runner`] — the run lifecycle (`RunConfig` + `run`): build the
//!   network, converge construction, run execution, settle — plain, or
//!   under a mechanism's overlay.
//!
//! # Example
//!
//! ```
//! use specfaith_fpss::deviation::Faithful;
//! use specfaith_fpss::runner::{run, Plain, RunConfig};
//! use specfaith_fpss::traffic::TrafficMatrix;
//! use specfaith_graph::generators::figure1;
//!
//! let net = figure1();
//! let traffic = TrafficMatrix::single(net.x, net.z, 10);
//! let config = RunConfig::new(net.topology.clone(), net.costs.clone(), traffic);
//! let report = run(&config, Plain, |_| Box::new(Faithful), 7);
//! // Construction converged to the exact centralized tables.
//! assert_eq!(report.tables_match_centralized(), Some(true));
//! ```

pub mod compute;
pub mod deviation;
pub mod msg;
pub mod naive;
pub mod node;
pub mod pricing;
pub mod runner;
pub mod settle;
pub mod spec;
pub mod state;
pub mod tags;
pub mod traffic;

pub use deviation::RationalStrategy;
pub use msg::{FpssMsg, Packet, PriceRow, RouteRow};
pub use state::{PaymentLedger, PricingTable, RoutingTable, TransitCostList};
pub use tags::TagSet;
