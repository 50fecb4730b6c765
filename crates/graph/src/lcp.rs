//! Lowest-cost-path (LCP) computation.
//!
//! FPSS routes between every source–destination pair along the path
//! minimizing the sum of *intermediate-node* transit costs. This module is
//! the centralized reference implementation (node-weighted Dijkstra under
//! the [`PathMetric`] total order); the distributed Bellman–Ford in
//! `specfaith-fpss` must converge to exactly these tables, and checker
//! nodes re-verify principals against them.

use crate::costs::CostVector;
use crate::path::PathMetric;
use crate::topology::Topology;
use specfaith_core::id::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Lowest-cost paths from `src` to every node, or `None` where unreachable.
///
/// Index the result by destination id. `result[src]` is the trivial path.
///
/// # Example
///
/// ```
/// use specfaith_graph::generators::figure1;
/// use specfaith_graph::lcp::lcp_tree;
///
/// let net = figure1();
/// let tree = lcp_tree(&net.topology, &net.costs, net.z);
/// // Figure 1: every node is reachable from Z.
/// assert!(tree.iter().all(Option::is_some));
/// ```
pub fn lcp_tree(topo: &Topology, costs: &CostVector, src: NodeId) -> Vec<Option<PathMetric>> {
    lcp_tree_avoiding(topo, costs, src, None)
}

/// Like [`lcp_tree`], but with `avoid` removed from the graph — the
/// `d_{G−k}` query that defines VCG payments.
pub fn lcp_tree_avoiding(
    topo: &Topology,
    costs: &CostVector,
    src: NodeId,
    avoid: Option<NodeId>,
) -> Vec<Option<PathMetric>> {
    assert_eq!(
        topo.num_nodes(),
        costs.len(),
        "cost vector arity must match topology"
    );
    assert!(
        avoid != Some(src),
        "cannot avoid the source of the LCP query"
    );
    let n = topo.num_nodes();
    let mut best: Vec<Option<PathMetric>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<PathMetric>> = BinaryHeap::new();
    heap.push(Reverse(PathMetric::trivial(src)));
    while let Some(Reverse(path)) = heap.pop() {
        let at = path.destination();
        if settled[at.index()] {
            continue;
        }
        settled[at.index()] = true;
        let transit_charge = costs.cost(at);
        for &next in topo.neighbors(at) {
            if settled[next.index()] || Some(next) == avoid {
                continue;
            }
            if let Some(candidate) = path.extended(next, transit_charge) {
                let slot = &mut best[next.index()];
                let improves = slot.as_ref().is_none_or(|cur| candidate < *cur);
                if improves {
                    *slot = Some(candidate.clone());
                    heap.push(Reverse(candidate));
                }
            }
        }
        if at == src {
            best[src.index()] = Some(path);
        }
    }
    best
}

/// All-pairs lowest-cost paths: `result[src][dst]`.
pub fn all_pairs(topo: &Topology, costs: &CostVector) -> Vec<Vec<Option<PathMetric>>> {
    topo.nodes().map(|src| lcp_tree(topo, costs, src)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RouteCache;
    use crate::generators::{figure1, ring};
    use specfaith_core::money::Cost;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// One entry of `src`'s LCP tree.
    fn lcp(topo: &Topology, costs: &CostVector, src: NodeId, dst: NodeId) -> Option<PathMetric> {
        lcp_tree(topo, costs, src)[dst.index()].clone()
    }

    #[test]
    fn figure1_x_to_z_costs_two() {
        let net = figure1();
        let p = lcp(&net.topology, &net.costs, net.x, net.z).expect("biconnected");
        assert_eq!(p.cost(), Cost::new(2));
        assert_eq!(p.nodes(), &[net.x, net.d, net.c, net.z]);
    }

    #[test]
    fn figure1_z_to_d_costs_one_via_c() {
        let net = figure1();
        let p = lcp(&net.topology, &net.costs, net.z, net.d).expect("biconnected");
        assert_eq!(p.cost(), Cost::new(1));
        assert_eq!(p.nodes(), &[net.z, net.c, net.d]);
    }

    #[test]
    fn figure1_b_to_d_is_free_direct() {
        let net = figure1();
        let p = lcp(&net.topology, &net.costs, net.b, net.d).expect("biconnected");
        assert_eq!(p.cost(), Cost::ZERO);
        assert_eq!(p.hops(), 1);
    }

    #[test]
    fn figure1_example1_lie_moves_lcp() {
        // Example 1: if C declares 5, X-A-Z becomes the X to Z LCP.
        let net = figure1();
        let lied = net.costs.with_cost(net.c, Cost::new(5));
        let p = lcp(&net.topology, &lied, net.x, net.z).expect("biconnected");
        assert_eq!(p.nodes(), &[net.x, net.a, net.z]);
        assert_eq!(p.cost(), Cost::new(5));
    }

    #[test]
    fn avoiding_reroutes() {
        let net = figure1();
        // X to Z avoiding C must use A (cost 5) rather than D-C (cost 2).
        let p = lcp_tree_avoiding(&net.topology, &net.costs, net.x, Some(net.c))[net.z.index()]
            .clone()
            .expect("biconnected");
        assert_eq!(p.nodes(), &[net.x, net.a, net.z]);
        assert_eq!(p.cost(), Cost::new(5));
    }

    #[test]
    fn lcp_is_symmetric_in_cost() {
        // Undirected graph, node costs: d(i,j) == d(j,i).
        let net = figure1();
        for i in net.topology.nodes() {
            for j in net.topology.nodes() {
                let forward = lcp(&net.topology, &net.costs, i, j).expect("connected");
                let backward = lcp(&net.topology, &net.costs, j, i).expect("connected");
                assert_eq!(forward.cost(), backward.cost(), "{i}->{j}");
            }
        }
    }

    #[test]
    fn source_entry_is_trivial() {
        let net = figure1();
        let tree = lcp_tree(&net.topology, &net.costs, net.z);
        let own = tree[net.z.index()].as_ref().expect("present");
        assert_eq!(own.hops(), 0);
        assert_eq!(own.cost(), Cost::ZERO);
    }

    #[test]
    fn unreachable_is_none() {
        let topo = Topology::builder(3).edge(0, 1).build();
        let costs = CostVector::uniform(3, 1);
        assert!(lcp(&topo, &costs, n(0), n(2)).is_none());
    }

    #[test]
    fn tie_break_prefers_fewer_hops_then_lex() {
        // Square 0-1-2-3-0 with zero costs: 0→2 has two 2-hop options
        // (via 1 or via 3); lex picks via 1.
        let topo = ring(4);
        let costs = CostVector::uniform(4, 0);
        let p = lcp(&topo, &costs, n(0), n(2)).expect("connected");
        assert_eq!(p.nodes(), &[n(0), n(1), n(2)]);
    }

    #[test]
    fn direct_edge_beats_equal_cost_detour() {
        // Triangle with zero costs: direct 1-hop wins over 2-hop.
        let topo = ring(3);
        let costs = CostVector::uniform(3, 0);
        let p = lcp(&topo, &costs, n(0), n(1)).expect("connected");
        assert_eq!(p.hops(), 1);
    }

    #[test]
    fn all_pairs_agrees_with_single_queries() {
        let net = figure1();
        let table = all_pairs(&net.topology, &net.costs);
        let routes = RouteCache::new(net.topology.clone(), net.costs.clone());
        for i in net.topology.nodes() {
            for j in net.topology.nodes() {
                assert_eq!(
                    table[i.index()][j.index()].as_ref(),
                    routes.path(i, j),
                    "{i}->{j}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_cost_vector_rejected() {
        let net = figure1();
        let short = CostVector::uniform(2, 1);
        let _ = lcp_tree(&net.topology, &short, net.z);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generators::random_biconnected;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cost_of_path(costs: &CostVector, nodes: &[NodeId]) -> u64 {
        if nodes.len() <= 2 {
            return 0;
        }
        nodes[1..nodes.len() - 1]
            .iter()
            .map(|&v| costs.cost(v).value())
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The reported cost always equals the recomputed sum of transit
        /// costs, and paths are simple and edge-valid.
        #[test]
        fn paths_are_valid_and_costs_exact(seed in 0u64..500, n in 4usize..16) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_biconnected(n, n / 2, &mut rng);
            let costs = CostVector::random(n, 0, 20, &mut rng);
            for src in topo.nodes() {
                for (dst, entry) in lcp_tree(&topo, &costs, src).iter().enumerate() {
                    let p = entry.as_ref().expect("biconnected implies reachable");
                    prop_assert_eq!(p.source(), src);
                    prop_assert_eq!(p.destination().index(), dst);
                    prop_assert_eq!(p.cost().value(), cost_of_path(&costs, p.nodes()));
                    for pair in p.nodes().windows(2) {
                        prop_assert!(topo.has_edge(pair[0], pair[1]));
                    }
                }
            }
        }

        /// Dijkstra under PathMetric is genuinely optimal: no single edge
        /// relaxation can improve any computed distance (Bellman condition).
        #[test]
        fn bellman_optimality(seed in 0u64..500, n in 4usize..14) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_biconnected(n, n / 2, &mut rng);
            let costs = CostVector::random(n, 0, 20, &mut rng);
            for src in topo.nodes() {
                let tree = lcp_tree(&topo, &costs, src);
                for v in topo.nodes() {
                    let dv = tree[v.index()].as_ref().expect("reachable");
                    for &w in topo.neighbors(v) {
                        let dw = tree[w.index()].as_ref().expect("reachable");
                        if let Some(candidate) = dv.extended(w, costs.cost(v)) {
                            prop_assert!(*dw <= candidate, "relaxation {v}->{w} improves");
                        }
                    }
                }
            }
        }

        /// Removing a non-articulation node can only (weakly) increase cost.
        #[test]
        fn avoiding_weakly_increases_cost(seed in 0u64..300, n in 5usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_biconnected(n, n / 2, &mut rng);
            let costs = CostVector::random(n, 0, 20, &mut rng);
            let nodes: Vec<NodeId> = topo.nodes().collect();
            let (src, dst, avoid) = (nodes[0], nodes[1], nodes[2]);
            let with = lcp_tree(&topo, &costs, src)[dst.index()].clone().expect("reachable");
            let without = lcp_tree_avoiding(&topo, &costs, src, Some(avoid))[dst.index()]
                .clone()
                .expect("biconnected implies an avoiding path exists");
            prop_assert!(without.cost() >= with.cost());
            prop_assert!(!without.contains(avoid));
        }
    }
}
