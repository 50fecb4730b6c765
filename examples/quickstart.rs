//! Quickstart: run the faithful FPSS mechanism on the paper's Figure 1
//! network through the unified scenario API and inspect what the
//! mechanism computed.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use specfaith::fpss::pricing::vcg_payment;
use specfaith::graph::cache::RouteCache;
use specfaith::graph::lcp::lcp_tree;
use specfaith::prelude::*;

fn main() {
    // The 6-node interdomain topology of Figure 1, with the paper's
    // transit costs (A=5, B=1000, C=1, D=1, Z=6, X=100).
    let net = figure1();
    let names = ["A", "B", "C", "D", "Z", "X"];
    let name = |id: NodeId| names[id.index()];

    println!("== Figure 1: lowest-cost paths from Z ==");
    for entry in lcp_tree(&net.topology, &net.costs, net.z).iter().flatten() {
        if entry.destination() == net.z {
            continue;
        }
        let path: Vec<&str> = entry.nodes().iter().map(|&v| name(v)).collect();
        println!(
            "  Z -> {}: {} (cost {})",
            name(entry.destination()),
            path.join("-"),
            entry.cost()
        );
    }

    println!("\n== VCG payments for the X -> Z flow ==");
    let routes = RouteCache::new(net.topology.clone(), net.costs.clone());
    for k in [net.d, net.c] {
        let p = vcg_payment(&routes, net.x, net.z, k).expect("k is on the X->Z LCP");
        println!(
            "  transit {} is paid {} per packet (declared cost {})",
            name(k),
            p,
            net.costs.cost(k)
        );
    }

    // One builder call describes the whole experiment: topology, traffic,
    // mechanism. The faithful lifecycle (cost flood, distributed routing
    // and pricing, bank checkpoints [BANK1]/[BANK2], execution,
    // settlement) runs inside a single deterministic simulation.
    println!("\n== Faithful run: X sends 10 packets to Z ==");
    let scenario = Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(TrafficModel::Single {
            src: net.x,
            dst: net.z,
            packets: 10,
        })
        .mechanism(Mechanism::faithful())
        .build();
    let run = scenario.run(42);
    println!("  green-lighted: {}", run.green_lighted());
    println!("  restarts: {}, halted: {}", run.restarts(), run.halted());
    println!("  anything detected by enforcement: {}", run.detected);
    println!("  utilities:");
    for id in scenario.topology().nodes() {
        println!("    {}: {}", name(id), run.utilities[id.index()]);
    }

    // And certify the standard deviation catalog unprofitable — the
    // Theorem-1 sweep, fanned out across cores.
    println!("\n== Deviation sweep (Theorem 1, empirically) ==");
    let report = scenario.sweep(&[42], &Catalog::standard());
    println!(
        "  {} unilateral deviations tested; ex post Nash: {}",
        report.total_deviations(),
        report.is_ex_post_nash()
    );
    println!(
        "  strong-CC: {}, strong-AC: {}, IC: {}",
        report.strong_cc_holds(),
        report.strong_ac_holds(),
        report.ic_holds()
    );
}
