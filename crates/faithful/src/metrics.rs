//! The cost of faithfulness (experiment E8).
//!
//! §3.9 warns that "one must be sensitive to the added computational and
//! communication complexity in using checkpoints". This module quantifies
//! it: the same topology, costs, and traffic run through plain FPSS and
//! through the faithful extension, comparing message and byte counts.

use crate::harness::Enforcement;
use specfaith_fpss::deviation::Faithful;
use specfaith_fpss::runner::{run, Plain, RunConfig};
use specfaith_fpss::traffic::TrafficMatrix;
use specfaith_graph::costs::CostVector;
use specfaith_graph::topology::Topology;
use std::fmt;

/// Plain-vs-faithful traffic comparison for one instance.
#[derive(Clone, Debug)]
pub struct OverheadReport {
    /// Nodes in the topology.
    pub nodes: usize,
    /// Edges in the topology.
    pub edges: usize,
    /// Messages sent in the plain run.
    pub plain_msgs: u64,
    /// Bytes sent in the plain run.
    pub plain_bytes: u64,
    /// Messages sent in the faithful run (checker forwards + bank traffic
    /// included).
    pub faithful_msgs: u64,
    /// Bytes sent in the faithful run.
    pub faithful_bytes: u64,
}

impl OverheadReport {
    /// Message overhead factor (faithful / plain).
    pub fn msg_factor(&self) -> f64 {
        self.faithful_msgs as f64 / self.plain_msgs.max(1) as f64
    }

    /// Byte overhead factor (faithful / plain).
    pub fn byte_factor(&self) -> f64 {
        self.faithful_bytes as f64 / self.plain_bytes.max(1) as f64
    }
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={:<3} m={:<3} plain {:>7} msgs / {:>9} B   faithful {:>7} msgs / {:>9} B   x{:.2} msgs x{:.2} B",
            self.nodes,
            self.edges,
            self.plain_msgs,
            self.plain_bytes,
            self.faithful_msgs,
            self.faithful_bytes,
            self.msg_factor(),
            self.byte_factor()
        )
    }
}

/// Runs both variants faithfully and reports the overhead.
///
/// # Panics
///
/// Panics if either run fails to complete (truncation) — overhead numbers
/// from incomplete runs would be meaningless.
pub fn measure_overhead(
    topo: &Topology,
    costs: &CostVector,
    traffic: &TrafficMatrix,
    seed: u64,
) -> OverheadReport {
    let config = RunConfig::new(topo.clone(), costs.clone(), traffic.clone());
    let plain = run(&config, Plain, |_| Box::new(Faithful), seed);
    assert!(!plain.truncated, "plain run truncated");
    let faithful = run(
        &config,
        Enforcement::default(),
        |_| Box::new(Faithful),
        seed,
    );
    assert!(!faithful.truncated, "faithful run truncated");
    assert!(faithful.green_lighted(), "faithful run must certify");
    OverheadReport {
        nodes: topo.num_nodes(),
        edges: topo.num_edges(),
        plain_msgs: plain.stats.total_msgs(),
        plain_bytes: plain.stats.total_bytes(),
        faithful_msgs: faithful.stats.total_msgs(),
        faithful_bytes: faithful.stats.total_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaith_graph::generators::figure1;

    #[test]
    fn faithful_costs_more_than_plain() {
        let net = figure1();
        let traffic = TrafficMatrix::single(net.x, net.z, 5);
        let report = measure_overhead(&net.topology, &net.costs, &traffic, 3);
        assert!(
            report.msg_factor() > 1.0,
            "checker forwards and bank traffic must cost something: {report}"
        );
        assert!(report.byte_factor() > 1.0);
        // But the overhead is a constant factor, not an explosion.
        assert!(
            report.msg_factor() < 20.0,
            "overhead should stay a modest multiple: {report}"
        );
    }

    #[test]
    fn display_renders_factors() {
        let net = figure1();
        let traffic = TrafficMatrix::single(net.x, net.z, 2);
        let report = measure_overhead(&net.topology, &net.costs, &traffic, 3);
        let shown = report.to_string();
        assert!(shown.contains("plain"));
        assert!(shown.contains("faithful"));
    }
}
