//! Centralized VCG reference for FPSS routing.
//!
//! `pᵏᵢⱼ = ĉ_k + d_{G−k}(i,j) − d_G(i,j)` computed directly with graph
//! queries. The distributed computation in [`crate::compute`] must converge
//! to exactly these values (property-tested in [`crate::runner`]); checkers
//! rely on that equality, and the strategyproofness of the whole mechanism
//! (Proposition 2's first leg) is tested against this reference via
//! [`RoutingProblem`].
//!
//! The run lifecycle verifies a node's converged tables with
//! [`tables_match`], which walks the node's DATA2 and DATA3\* rows and
//! checks each against the [`RouteCache`] in place: row counts first, then
//! every route against the LCP tree and every price against its avoid
//! tree, stopping at the first mismatch. It gives the same answer as
//! building the tables with [`expected_tables_for`] and comparing them
//! with [`tables_agree`], which stays the oracle it is tested against
//! (`tests/reference_check_oracle.rs`), without allocating a table.

use crate::state::{PricingTable, RoutingTable};
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_core::vcg::CostMinimizationProblem;
use specfaith_graph::cache::{AvoidTree, CacheScope, RouteCache};
use specfaith_graph::costs::CostVector;
use specfaith_graph::lcp::{lcp_tree, lcp_tree_avoiding};
use specfaith_graph::path::PathMetric;
use specfaith_graph::topology::Topology;
use std::sync::Arc;

/// The VCG per-packet payment from `src` to transit `k` for traffic to
/// `dst`, borrowing every route from `routes`. Returns `None` when `k` is
/// not a transit node on the `src`→`dst` LCP (no payment due), or when
/// `src` cannot reach `dst`.
///
/// This is the primary implementation: both the `src` tree and the
/// `(src, k)` avoid tree are computed at most once per [`RouteCache`],
/// shared across every destination and every caller of the cache. The
/// avoid tree itself is no longer a fresh `d_{G−k}` Dijkstra: the cache
/// repairs it from its own `src` tree (re-relaxing only the subtree
/// detached by removing `k` — see [`specfaith_graph::repair`]), which is
/// exactly equivalent and pinned so by the repair-equivalence suite.
///
/// # Panics
///
/// Panics if the graph is not biconnected enough for the query (no
/// `k`-avoiding path), mirroring FPSS's biconnectivity assumption.
pub fn vcg_payment(routes: &RouteCache, src: NodeId, dst: NodeId, k: NodeId) -> Option<Money> {
    let best = routes.path(src, dst)?;
    if !best.transit_nodes().contains(&k) {
        return None;
    }
    let avoid_tree = routes.tree_avoiding(src, k);
    Some(payment_from_tree(routes.costs(), best, &avoid_tree, dst, k))
}

/// The payment formula given the LCP and a prefetched `(src, k)` avoid
/// tree — the shared core of [`vcg_payment`] and the per-source table
/// builder (which hoists the avoid-tree handle out of its destination
/// loop instead of re-fetching it per query).
///
/// # Panics
///
/// Panics if the avoid tree has no `dst` entry (the graph is not
/// biconnected enough for the query).
fn payment_from_tree(
    costs: &CostVector,
    best: &PathMetric,
    avoid_tree: &AvoidTree,
    dst: NodeId,
    k: NodeId,
) -> Money {
    let detour = avoid_tree
        .path(dst)
        .expect("biconnected graph admits a k-avoiding path");
    let c_k = costs.cost(k).value() as i64;
    let d = best.cost().value() as i64;
    let d_avoid = detour.cost().value() as i64;
    Money::new(c_k + d_avoid - d)
}

/// The routing and pricing tables node `src` *should* converge to under
/// `routes`' declared costs — one source's slice of
/// [`expected_tables`], for callers (large-`n` sampled reference
/// checks) that must not pay for all `n` sources.
pub fn expected_tables_for(routes: &RouteCache, src: NodeId) -> (RoutingTable, PricingTable) {
    let tree = routes.tree(src);
    let mut routing = RoutingTable::new();
    let mut pricing = PricingTable::new();
    let mut avoid_trees = AvoidTrees::new(routes, src);
    for entry in tree.iter().flatten() {
        let dst = entry.destination();
        routing.install(dst, entry.nodes().to_vec());
        for &k in entry.transit_nodes() {
            let price = payment_from_tree(routes.costs(), entry, avoid_trees.get(k), dst, k);
            pricing.insert(
                dst,
                k,
                crate::state::PriceEntry {
                    price,
                    tags: Default::default(),
                },
            );
        }
    }
    (routing, pricing)
}

/// Whether `routing` and `pricing`, node `src`'s converged tables, are the
/// reference tables [`expected_tables_for`] would build from `routes`,
/// compared in place without building them: the same answer as
/// [`tables_agree`] against those tables, so pricing tags are ignored.
///
/// The routing table must hold exactly one row per reachable destination,
/// its LCP. The pricing table must hold exactly one row per reachable
/// destination and transit on its LCP, with the VCG price. A mismatch
/// ends the check early, before the remaining avoid trees are fetched.
///
/// # Panics
///
/// Panics where [`expected_tables_for`] would: when a priced transit has
/// no avoiding path to the destination (the graph is not biconnected).
pub fn tables_match(
    routes: &RouteCache,
    src: NodeId,
    routing: &RoutingTable,
    pricing: &PricingTable,
) -> bool {
    let tree = routes.tree(src);
    let lcp = |dst: NodeId| tree.get(dst.index()).and_then(Option::as_ref);
    let (reachable, priced) = tree.iter().flatten().fold((0, 0), |(rows, prices), p| {
        (rows + 1, prices + p.transit_nodes().len())
    });
    // Equal row counts and every row expected: with keys unique on both
    // sides, that makes the two key sets equal.
    if routing.len() != reachable
        || pricing.len() != priced
        || !routing
            .iter()
            .all(|(dst, path)| lcp(dst).is_some_and(|p| p.nodes() == path))
    {
        return false;
    }
    let mut avoid_trees = AvoidTrees::new(routes, src);
    pricing.iter().all(|((dst, k), entry)| {
        lcp(dst).is_some_and(|best| {
            best.transit_nodes().contains(&k)
                && entry.price
                    == payment_from_tree(routes.costs(), best, avoid_trees.get(k), dst, k)
        })
    })
}

/// One source's avoid trees, each fetched from the cache's sparse index
/// once: the same transit recurs across many destinations of a source.
struct AvoidTrees<'a> {
    routes: &'a RouteCache,
    src: NodeId,
    by_transit: Vec<Option<Arc<AvoidTree>>>,
}

impl<'a> AvoidTrees<'a> {
    fn new(routes: &'a RouteCache, src: NodeId) -> Self {
        AvoidTrees {
            routes,
            src,
            by_transit: vec![None; routes.topology().num_nodes()],
        }
    }

    /// The `(src, k)` avoid tree.
    fn get(&mut self, k: NodeId) -> &AvoidTree {
        self.by_transit[k.index()].get_or_insert_with(|| self.routes.tree_avoiding(self.src, k))
    }
}

/// The routing and pricing tables every node *should* converge to under
/// `routes`' declared costs: `(routing[i], pricing[i])` per node.
///
/// Pricing tags are not modeled centrally (they are an artifact of the
/// distributed iteration); comparisons against this reference use paths
/// and prices only.
pub fn expected_tables(routes: &RouteCache) -> Vec<(RoutingTable, PricingTable)> {
    routes
        .topology()
        .nodes()
        .map(|src| expected_tables_for(routes, src))
        .collect()
}

/// One source's slice of [`expected_tables_uncached`]: the pre-`RouteCache`
/// per-pair-query reference path, for the large-`n` benchmark arm (where
/// all `n` uncached sources would take hours, a sampled handful minutes).
///
/// Retained **only** for benchmark reference arms; never call this from
/// product code. Unlike the cached path, every avoid tree here is a
/// fresh `d_{G−k}` Dijkstra via [`lcp_tree_avoiding`] — this arm is the
/// independent oracle the repaired trees are measured against.
#[doc(hidden)]
pub fn expected_tables_uncached_for(
    topo: &Topology,
    declared: &CostVector,
    src: NodeId,
) -> (RoutingTable, PricingTable) {
    let pair_query = |src: NodeId, dst: NodeId| lcp_tree(topo, declared, src)[dst.index()].clone();
    let avoid_query = |src: NodeId, dst: NodeId, k: NodeId| {
        lcp_tree_avoiding(topo, declared, src, Some(k))[dst.index()].clone()
    };
    let tree = lcp_tree(topo, declared, src);
    let mut routing = RoutingTable::new();
    let mut pricing = PricingTable::new();
    for entry in tree.iter().flatten() {
        let dst = entry.destination();
        routing.install(dst, entry.nodes().to_vec());
        for &k in entry.transit_nodes() {
            let best = pair_query(src, dst).expect("dst on tree");
            let detour =
                avoid_query(src, dst, k).expect("biconnected graph admits a k-avoiding path");
            let price = Money::new(
                declared.cost(k).value() as i64 + detour.cost().value() as i64
                    - best.cost().value() as i64,
            );
            pricing.insert(
                dst,
                k,
                crate::state::PriceEntry {
                    price,
                    tags: Default::default(),
                },
            );
        }
    }
    (routing, pricing)
}

/// The pre-`RouteCache` reference implementation: every single-pair query
/// recomputes (and clones from) a full per-source tree.
///
/// Retained **only** so the sweep regression benchmark can measure the
/// uncached baseline on the same machine as the cached path; never call
/// this from product code.
#[doc(hidden)]
pub fn expected_tables_uncached(
    topo: &Topology,
    declared: &CostVector,
) -> Vec<(RoutingTable, PricingTable)> {
    topo.nodes()
        .map(|src| expected_tables_uncached_for(topo, declared, src))
        .collect()
}

/// Compares a node's converged tables against the centralized reference,
/// ignoring pricing tags. Returns `true` on exact agreement of paths and
/// prices.
pub fn tables_agree(
    routing: &RoutingTable,
    pricing: &PricingTable,
    expected_routing: &RoutingTable,
    expected_pricing: &PricingTable,
) -> bool {
    if routing
        .iter()
        .any(|(dst, path)| expected_routing.path(dst) != Some(path))
        || expected_routing
            .iter()
            .any(|(dst, path)| routing.path(dst) != Some(path))
    {
        return false;
    }
    let prices_of = |t: &PricingTable| -> Vec<((NodeId, NodeId), Money)> {
        t.iter().map(|(k, e)| (k, e.price)).collect()
    };
    prices_of(pricing) == prices_of(expected_pricing)
}

/// The whole FPSS routing mechanism as a centralized cost-minimization
/// problem, for the strategyproofness tester (experiment E3): given a
/// traffic matrix, the allocation is the set of LCPs under declared costs,
/// and each node's cost is its true transit cost times the packets it
/// carries.
#[derive(Clone, Debug)]
pub struct RoutingProblem {
    topo: Topology,
    /// `(src, dst, packets)` flows.
    flows: Vec<(NodeId, NodeId, u64)>,
    /// Problem-scoped route caches: a strategyproofness check sweeps a
    /// misreport grid of declared-cost vectors, each wanting its own
    /// cache; the problem keeps every one it registers and releases them
    /// all when it drops.
    routes: CacheScope,
}

impl RoutingProblem {
    /// A routing problem over a biconnected topology and traffic flows.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not biconnected (VCG would be ill-defined)
    /// or a flow's endpoints coincide.
    pub fn new(topo: Topology, flows: Vec<(NodeId, NodeId, u64)>) -> Self {
        assert!(topo.is_biconnected(), "FPSS requires a biconnected graph");
        assert!(
            flows.iter().all(|&(s, d, _)| s != d),
            "flows need distinct endpoints"
        );
        RoutingProblem {
            topo,
            flows,
            routes: CacheScope::eager(),
        }
    }

    fn total_cost(&self, paths: &[PathMetric]) -> Money {
        self.flows
            .iter()
            .zip(paths)
            .map(|(&(_, _, packets), path)| {
                Money::new(path.cost().value() as i64).scale(packets as i64)
            })
            .sum()
    }
}

impl CostMinimizationProblem for RoutingProblem {
    type Decl = Cost;
    type Alloc = Vec<PathMetric>;

    fn num_agents(&self) -> usize {
        self.topo.num_nodes()
    }

    fn optimal(&self, decls: &[Cost]) -> Option<(Vec<PathMetric>, Money)> {
        let declared = CostVector::from_costs(decls.to_vec());
        let routes = self.routes.cache(&self.topo, &declared);
        let paths: Option<Vec<PathMetric>> = self
            .flows
            .iter()
            .map(|&(src, dst, _)| routes.path(src, dst).cloned())
            .collect();
        let paths = paths?;
        let total = self.total_cost(&paths);
        Some((paths, total))
    }

    fn optimal_excluding(
        &self,
        decls: &[Cost],
        excluded: usize,
    ) -> Option<(Vec<PathMetric>, Money)> {
        let declared = CostVector::from_costs(decls.to_vec());
        let routes = self.routes.cache(&self.topo, &declared);
        let avoid = NodeId::from_index(excluded);
        let paths: Option<Vec<PathMetric>> = self
            .flows
            .iter()
            .map(|&(src, dst, _)| {
                if src == avoid || dst == avoid {
                    // The excluded node's own traffic endpoints are
                    // unaffected by its exclusion as a *transit*.
                    routes.path(src, dst).cloned()
                } else {
                    routes.path_avoiding(src, dst, avoid)
                }
            })
            .collect();
        let paths = paths?;
        let total = self.total_cost(&paths);
        Some((paths, total))
    }

    fn cost_under(&self, decl: &Cost, alloc: &Vec<PathMetric>, agent: usize) -> Money {
        let agent = NodeId::from_index(agent);
        let carried: i64 = self
            .flows
            .iter()
            .zip(alloc)
            .filter(|((_, _, _), path)| path.transit_nodes().contains(&agent))
            .map(|(&(_, _, packets), _)| packets as i64)
            .sum();
        Money::new(decl.value() as i64).scale(carried)
    }

    fn participates(&self, alloc: &Vec<PathMetric>, agent: usize) -> bool {
        let agent = NodeId::from_index(agent);
        alloc.iter().any(|p| p.transit_nodes().contains(&agent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaith_core::mechanism::{check_strategyproof, MisreportGrid};
    use specfaith_core::vcg::{vcg, VcgMechanism};
    use specfaith_graph::generators::figure1;

    fn cache_for(topo: &Topology, declared: &CostVector) -> RouteCache {
        RouteCache::new(topo.clone(), declared.clone())
    }

    #[test]
    fn figure1_payment_to_c_is_its_marginal_contribution() {
        let net = figure1();
        let routes = cache_for(&net.topology, &net.costs);
        // D→Z transits C; d(D,Z)=1, d_{G−C}(D,Z)=min(B=1000, X,A=105)=105.
        let p = vcg_payment(&routes, net.d, net.z, net.c).expect("C transits D→Z");
        assert_eq!(p, Money::new(1 + 105 - 1));
    }

    #[test]
    fn payment_is_none_off_path() {
        let net = figure1();
        // B is not on the X→Z LCP.
        let routes = cache_for(&net.topology, &net.costs);
        assert_eq!(vcg_payment(&routes, net.x, net.z, net.b), None);
    }

    #[test]
    fn example1_truthful_payment_is_invariant_to_own_declaration() {
        // The heart of strategyproofness: C's payment for D→Z traffic is
        // 105 regardless of what C declares (as long as it stays on the
        // LCP), so inflating its declaration cannot raise its income.
        let net = figure1();
        for declared_c in [1u64, 2, 3, 5] {
            let lied = net.costs.with_cost(net.c, Cost::new(declared_c));
            let p = vcg_payment(&cache_for(&net.topology, &lied), net.d, net.z, net.c)
                .expect("C still on LCP");
            assert_eq!(p, Money::new(105), "declared {declared_c}");
        }
    }

    #[test]
    fn expected_tables_are_consistent_with_direct_queries() {
        let net = figure1();
        let routes = cache_for(&net.topology, &net.costs);
        let tables = expected_tables(&routes);
        let (routing_x, pricing_x) = &tables[net.x.index()];
        assert_eq!(
            routing_x.path(net.z),
            Some(&[net.x, net.d, net.c, net.z][..])
        );
        assert_eq!(
            pricing_x.price(net.z, net.c),
            vcg_payment(&routes, net.x, net.z, net.c)
        );
    }

    #[test]
    fn routing_problem_vcg_matches_direct_payments() {
        let net = figure1();
        let flows = vec![(net.x, net.z, 3u64)];
        let problem = RoutingProblem::new(net.topology.clone(), flows);
        let decls: Vec<Cost> = net.costs.as_slice().to_vec();
        let outcome = vcg(&problem, &decls).expect("feasible");
        // Transit D is paid 3 packets × p^D; same for C.
        let routes = cache_for(&net.topology, &net.costs);
        let p_d = vcg_payment(&routes, net.x, net.z, net.d).expect("on LCP");
        let p_c = vcg_payment(&routes, net.x, net.z, net.c).expect("on LCP");
        assert_eq!(outcome.payments[net.d.index()], p_d.scale(3));
        assert_eq!(outcome.payments[net.c.index()], p_c.scale(3));
        assert_eq!(outcome.payments[net.b.index()], Money::ZERO);
    }

    #[test]
    fn fpss_mechanism_is_strategyproof_on_figure1() {
        let net = figure1();
        let flows = vec![(net.x, net.z, 1u64), (net.d, net.z, 1), (net.z, net.x, 2)];
        let mech = VcgMechanism::new(RoutingProblem::new(net.topology.clone(), flows));
        let profiles = vec![net.costs.as_slice().to_vec()];
        let report = check_strategyproof(&mech, &profiles, &MisreportGrid::standard());
        assert!(report.is_strategyproof(), "{report}");
    }

    #[test]
    fn tables_agree_detects_differences() {
        let net = figure1();
        let tables = expected_tables(&cache_for(&net.topology, &net.costs));
        let (r, p) = &tables[net.x.index()];
        assert!(tables_agree(r, p, r, p));
        let mut r2 = r.clone();
        r2.install(net.z, vec![net.x, net.a, net.z]);
        assert!(!tables_agree(&r2, p, r, p));
    }
}
