//! # specfaith-faithful
//!
//! The faithful extension of FPSS from §4.2–4.3 of Shneidman & Parkes
//! (PODC 2004): the specification that remains an **ex post Nash
//! equilibrium** even when every node would deviate if deviation paid.
//!
//! ## The construction
//!
//! * **Checker nodes.** Every neighbor of a node is a checker for that
//!   node (the node being checked is the *principal*). A checker keeps a
//!   full **mirror** of its principal's state — DATA1, recomputed DATA2 and
//!   DATA3*, and the principal's *announced* tables — rebuilt from (a) the
//!   messages the checker itself sent the principal and (b) forwarded
//!   copies of everything the principal received from other neighbors
//!   (\[PRINC1\]/\[PRINC2\] forwarding, \[CHECK1\]/\[CHECK2\] verification).
//! * **The bank.** A trusted, obedient checkpointing entity. At network
//!   quiescence it collects signed table hashes from every principal and
//!   every checker mirror (\[BANK1\] routing, \[BANK2\] pricing incl. identity
//!   tags); any mismatch restarts the phase (bounded restarts, then halt —
//!   the "mechanism does not progress" penalty). After green-lighting
//!   execution it reconciles payment reports against checker observations
//!   and charges **ε-above-the-deviation** penalties.
//! * **Signed channels.** All node↔bank traffic is MAC-authenticated with
//!   per-node keys ([`specfaith_crypto`]), making tampering and replay
//!   detectable (communication compatibility for bank messages).
//!
//! ## Crate layout
//!
//! * [`codec`] — canonical byte encoding of bank payloads (what the MACs
//!   sign).
//! * [`checker`] — the per-principal mirror state.
//! * [`node`] — the faithful node actor: the one FPSS protocol engine
//!   (`specfaith_fpss::node::PlainFpssNode`) as principal, plus a checker
//!   tap that keeps the mirrors and forwards checker copies, plus the
//!   bank channel. It holds no protocol code of its own.
//! * [`bank`] — the bank actor: checkpointing, restart policy, execution
//!   settlement.
//! * [`actor`] — the heterogeneous node/bank wrapper for the simulator.
//! * [`harness`] — the faithful mechanism as an overlay on the FPSS run
//!   lifecycle (`specfaith_fpss::runner`): the bank and its enforcement
//!   parameters (deviation sweeps live in `specfaith::scenario`).
//! * [`metrics`] — plain-vs-faithful overhead accounting (experiment E8).
//! * [`penalty`] — the ε-above penalty policy and its calibration
//!   analysis (experiment E10).
//!
//! # Example
//!
//! ```
//! use specfaith_faithful::harness::Enforcement;
//! use specfaith_fpss::deviation::Faithful;
//! use specfaith_fpss::runner::{run, RunConfig};
//! use specfaith_fpss::traffic::TrafficMatrix;
//! use specfaith_graph::generators::figure1;
//!
//! let net = figure1();
//! let config = RunConfig::new(
//!     net.topology.clone(),
//!     net.costs.clone(),
//!     TrafficMatrix::single(net.x, net.z, 5),
//! );
//! let report = run(&config, Enforcement::default(), |_| Box::new(Faithful), 7);
//! assert!(report.green_lighted() && !report.detected);
//! ```

pub mod actor;
pub mod bank;
pub mod checker;
pub mod codec;
pub mod election;
pub mod harness;
pub mod metrics;
pub mod node;
pub mod penalty;

pub use bank::BankNode;
pub use harness::Enforcement;
pub use node::FaithfulNode;
