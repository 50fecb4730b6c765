//! Example 1 from the paper, end to end.
//!
//! "In Figure 1, path X-D-C-Z is the lowest cost path between X and Z; if
//! C declared a cost of 5, X-A-Z would become the X to Z LCP. C can
//! benefit from this manipulation [under naive pricing] ... FPSS seeks a
//! pricing scheme that is dominant strategy incentive compatible."
//!
//! This example sweeps C's declared cost and shows:
//!
//! 1. under **naive pricing** (pay each transit its declared cost), lying
//!    upward is profitable — the manipulation the paper opens with;
//! 2. under **VCG pricing**, no declaration beats the truth
//!    (strategyproofness);
//! 3. in the **plain distributed FPSS**, C can still cheat with
//!    *computation* deviations (dropping packets, underreporting);
//! 4. in the **faithful extension**, every one of those is caught and
//!    unprofitable.
//!
//! The plain and faithful runs differ by exactly one builder call — the
//! [`Mechanism`] — which is the point of the unified scenario API.
//!
//! ```sh
//! cargo run --example figure1_manipulation
//! ```

use specfaith::fpss::deviation::{DropTransitPackets, UnderreportPayments};
use specfaith::fpss::pricing::vcg_payment;
use specfaith::graph::cache::RouteCache;
use specfaith::prelude::*;

fn main() {
    let net = figure1();
    let true_c = net.costs.cost(net.c).value() as i64;
    // Traffic the paper discusses: X->Z (which C loses by lying) and D->Z
    // (which C keeps and would like to overcharge).
    let flows = [(net.x, net.z, 10u64), (net.d, net.z, 10u64)];

    println!("== Sweep of C's declared cost (true cost = {true_c}) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "declared", "on X-Z LCP", "naive util", "VCG util"
    );
    for declared in 0..=8u64 {
        let lied = net.costs.with_cost(net.c, Cost::new(declared));
        let routes = RouteCache::new(net.topology.clone(), lied);
        let mut naive = 0i64;
        let mut vcg = 0i64;
        let mut on_xz = false;
        for &(src, dst, packets) in &flows {
            let path = routes.path(src, dst).expect("biconnected");
            if !path.transit_nodes().contains(&net.c) {
                continue;
            }
            if src == net.x {
                on_xz = true;
            }
            // Naive: paid the declared cost; VCG: paid the pivot price.
            naive += (declared as i64 - true_c) * packets as i64;
            let p = vcg_payment(&routes, src, dst, net.c).expect("on LCP");
            vcg += (p.value() - true_c) * packets as i64;
        }
        println!(
            "{declared:>8} {:>10} {naive:>12} {vcg:>12}",
            if on_xz { "yes" } else { "no" }
        );
    }
    println!("(naive utility peaks at a lie; VCG utility is maximized at the truth)");

    // The distributed story: plain FPSS still falls to §4.3 manipulations.
    let traffic = TrafficModel::Flows(
        flows
            .iter()
            .map(|&(src, dst, packets)| Flow { src, dst, packets })
            .collect(),
    );
    // C (a transit) drops packets; X (a payer) underreports what it owes.
    type MakeStrategy = fn() -> Box<dyn RationalStrategy>;
    let cases: [(&str, NodeId, MakeStrategy); 2] = [
        ("C drops transit packets", net.c, || {
            Box::new(DropTransitPackets)
        }),
        ("X underreports payments", net.x, || {
            Box::new(UnderreportPayments { keep_percent: 0 })
        }),
    ];

    let base_scenario = Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(traffic);

    let plain = base_scenario.clone().mechanism(Mechanism::Plain).build();
    let plain_faithful = plain.run(1);
    println!("\n== Plain FPSS (no checkers, no bank) ==");
    for (label, deviant, make) in &cases {
        let run = plain.run_with_deviant(*deviant, make(), 1);
        let gain = run.utilities[deviant.index()] - plain_faithful.utilities[deviant.index()];
        println!("  {label}: gain {gain} (PROFITABLE — plain FPSS is not faithful)");
        assert!(gain.is_positive());
    }

    let faithful = base_scenario.mechanism(Mechanism::faithful()).build();
    let base = faithful.run(1);
    println!("\n== Faithful extension (checkers + bank) ==");
    for (label, deviant, make) in &cases {
        let run = faithful.run_with_deviant(*deviant, make(), 1);
        let gain = run.utilities[deviant.index()] - base.utilities[deviant.index()];
        println!(
            "  {label}: gain {gain}, detected: {} (deviation strictly loses)",
            run.detected
        );
        assert!(gain.is_negative() && run.detected);
    }
}
