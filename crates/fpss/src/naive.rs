//! The naive pricing baseline of Example 1.
//!
//! FPSS observes that "under many pricing schemes, a node could be better
//! off lying about its costs". The simplest such scheme — pay every
//! transit node its **declared** cost per packet — is the foil for the
//! paper's Example 1: node C profits by over-declaring. This module
//! implements that baseline centrally so experiments can sweep
//! declarations and compare against VCG.

use crate::pricing::vcg_payment;
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_graph::cache::RouteCache;
use specfaith_graph::costs::CostVector;
use specfaith_graph::topology::Topology;

/// A transit node's utility under **naive** (pay-declared-cost) pricing,
/// where `routes` holds the declared costs: for each flow whose LCP
/// transits `node`, it is paid its declared cost and incurs its true
/// cost, per packet.
pub fn naive_transit_utility(
    routes: &RouteCache,
    true_costs: &CostVector,
    flows: &[(NodeId, NodeId, u64)],
    node: NodeId,
) -> Money {
    let paid = routes.costs().cost(node).value() as i64;
    let incurred = true_costs.cost(node).value() as i64;
    let mut utility = 0i64;
    for &(src, dst, packets) in flows {
        let Some(path) = routes.path(src, dst) else {
            continue;
        };
        if path.transit_nodes().contains(&node) {
            utility += (paid - incurred) * packets as i64;
        }
    }
    Money::new(utility)
}

/// The same transit node's utility under **VCG** pricing for the same
/// declared costs (payment `ĉ + d_{G−k} − d` per packet).
pub fn vcg_transit_utility(
    routes: &RouteCache,
    true_costs: &CostVector,
    flows: &[(NodeId, NodeId, u64)],
    node: NodeId,
) -> Money {
    let incurred = true_costs.cost(node).value() as i64;
    let mut utility = 0i64;
    for &(src, dst, packets) in flows {
        if let Some(p) = vcg_payment(routes, src, dst, node) {
            utility += (p.value() - incurred) * packets as i64;
        }
    }
    Money::new(utility)
}

/// Sweeps `node`'s declared cost over `0..=max_declared` and returns
/// `(declared, naive utility, vcg utility)` rows — the Example 1 table.
///
/// Every row declares a distinct cost vector, so each row gets a route
/// cache of its own.
pub fn example1_sweep(
    topo: &Topology,
    true_costs: &CostVector,
    flows: &[(NodeId, NodeId, u64)],
    node: NodeId,
    max_declared: u64,
) -> Vec<(u64, Money, Money)> {
    (0..=max_declared)
        .map(|declared_cost| {
            let declared = true_costs.with_cost(node, Cost::new(declared_cost));
            let routes = RouteCache::new(topo.clone(), declared);
            (
                declared_cost,
                naive_transit_utility(&routes, true_costs, flows, node),
                vcg_transit_utility(&routes, true_costs, flows, node),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaith_graph::generators::figure1;

    fn flows(net: &specfaith_graph::generators::Figure1) -> Vec<(NodeId, NodeId, u64)> {
        vec![(net.x, net.z, 10), (net.d, net.z, 10)]
    }

    #[test]
    fn naive_pricing_rewards_the_example1_lie() {
        let net = figure1();
        let rows = example1_sweep(&net.topology, &net.costs, &flows(&net), net.c, 8);
        let at = |d: u64| rows[d as usize];
        let (_, truthful_naive, _) = at(1);
        let (_, lying_naive, _) = at(5);
        assert!(
            lying_naive > truthful_naive,
            "the paper's Example 1: declaring 5 beats the truth under naive pricing"
        );
    }

    #[test]
    fn vcg_pricing_is_maximized_at_the_truth() {
        let net = figure1();
        let rows = example1_sweep(&net.topology, &net.costs, &flows(&net), net.c, 8);
        let truthful_vcg = rows[1].2;
        for &(declared, _, vcg) in &rows {
            assert!(
                vcg <= truthful_vcg,
                "declaring {declared} must not beat the truth under VCG"
            );
        }
    }

    #[test]
    fn lie_flips_the_xz_lcp_at_four() {
        // The X→Z flow stops transiting C once C's declaration makes
        // X-D-C-Z (1 + ĉ) cost more than X-A-Z (5), i.e. at ĉ ≥ 4 with the
        // fewest-hops tie-break resolving ĉ = 4 toward A.
        let net = figure1();
        for declared in [3u64, 4] {
            let lied = net.costs.with_cost(net.c, Cost::new(declared));
            let routes = RouteCache::new(net.topology.clone(), lied);
            let path = routes.path(net.x, net.z).expect("biconnected");
            let via_c = path.transit_nodes().contains(&net.c);
            assert_eq!(via_c, declared < 4, "declared {declared}");
        }
    }

    #[test]
    fn vcg_payment_invariance_drives_the_result() {
        // C's VCG payment for the D→Z flow is constant in its declaration
        // (while it stays on the LCP) — the pivot-rule invariance.
        let net = figure1();
        let mut payments = Vec::new();
        for declared in 0..=3u64 {
            let lied = net.costs.with_cost(net.c, Cost::new(declared));
            let routes = RouteCache::new(net.topology.clone(), lied);
            payments.push(vcg_payment(&routes, net.d, net.z, net.c));
        }
        assert!(payments.windows(2).all(|w| w[0] == w[1]), "{payments:?}");
    }
}
