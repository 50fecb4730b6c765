//! Incremental LCP-tree repair: recompute `d_{G−k}` and one-node cost
//! changes from an existing base tree instead of running a fresh Dijkstra
//! over the whole graph.
//!
//! Both entry points are **exact**: the repaired tree is element-for-element
//! equal — costs, hop counts, and lexicographic tie-breaks included — to the
//! tree a fresh [`lcp_tree_avoiding`](crate::lcp::lcp_tree_avoiding) /
//! [`lcp_tree`](crate::lcp::lcp_tree) run would produce. The equivalence is
//! what lets [`RouteCache`](crate::cache::RouteCache) substitute repair for
//! fresh computation without perturbing a single byte of any downstream
//! result (VCG payments, sweep reports, fingerprints).
//!
//! # The invariant: only the detached subtree re-relaxes
//!
//! Removing a node `k` from the graph can only *remove* paths, and the
//! [`PathMetric`] order makes every per-destination minimum unique. So for
//! any destination `v` whose base path does not traverse `k`, that path is
//! still present in `G − k` and still beats every competitor: the entry is
//! **exactly unchanged**. The only entries that can change are the ones in
//! the subtree hanging below `k` in the base shortest-path tree — the
//! *detached region*. Repair therefore:
//!
//! 1. copies every unaffected entry verbatim,
//! 2. seeds a heap with the frontier extensions `base[u] + (u → x)` for
//!    every unaffected `u` adjacent to a detached `x`, and
//! 3. runs Dijkstra restricted to the detached region only.
//!
//! Correctness of the frontier seeding rests on the *prefix property* of
//! the unique-minimum tree: walking the true `G − k` optimum of a detached
//! destination backwards, every node up to and including the last
//! unaffected node `u` on it is itself unaffected and its prefix equals
//! `base[u]` (prefixes of unique optima are unique optima, and `base[u]`
//! remains optimal in the subgraph); every node after `u` is detached. The
//! restricted Dijkstra explores exactly these suffixes, so it finds every
//! detached optimum — and the shared total order reproduces the fresh
//! computation's tie-breaks bit-for-bit.
//!
//! The same idea repairs a **one-node cost change** (the deviation-sweep
//! workload, where a deviant's declared vector differs from the honest one
//! at a single node `d`):
//!
//! * an **increase** invalidates exactly the entries routing *through* `d`
//!   (cost counts intermediate nodes only, so entries ending at `d`, and
//!   entries not using `d`, keep both their path and their cost) — the
//!   detached region is `{v : d ∈ interior(base[v])}` and repair proceeds
//!   as above with the new charges;
//! * a **decrease** by `δ` keeps every through-`d` path optimal (any
//!   competitor's cost falls by at most `δ`, and ties still break the same
//!   way), so those entries are *adjusted in place* (cost − `δ`), and the
//!   improvement is then propagated outward: a Dijkstra pass seeded from
//!   the adjusted region, with every other base entry standing as an upper
//!   bound that only a strictly better through-`d` path may displace.
//!
//! Per-tree cost drops from `O(m log n)` on the whole graph to work
//! proportional to the affected region — tiny for most `k` on scale-free
//! topologies, where the vast majority of nodes hang off hubs and detach
//! nothing.
//!
//! Often the affected region of a cost change is empty, and
//! `cost_change_keeps` proves it in `O(deg d)` without building a tree.
//! By the prefix property, `d` is interior to some entry exactly when it
//! is the penultimate node of a neighbor's entry. An increase changes only
//! those entries. A decrease lowers each of them by `δ`, and otherwise
//! changes the tree only if some neighbor is strictly improved by the
//! entry of `d` extended to it. A seeded
//! [`RouteCache`](crate::cache::RouteCache) uses the test to share its
//! donor's trees instead of repairing copies of them.

use crate::costs::CostVector;
use crate::path::PathMetric;
use crate::topology::Topology;
use specfaith_core::id::NodeId;
use specfaith_core::money::Cost;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Repairs `base` — the LCP tree rooted at `src` under `(topo, costs)` —
/// into the `d_{G−avoid}` tree, re-relaxing only the subtree detached by
/// removing `avoid` (see the [module docs](self)).
///
/// Exactly equivalent to
/// [`lcp_tree_avoiding(topo, costs, src, Some(avoid))`](crate::lcp::lcp_tree_avoiding).
///
/// # Panics
///
/// Panics if `avoid == src`, if the cost vector's arity does not match the
/// topology, or if `base` is not sized to the topology.
pub fn repair_avoiding(
    topo: &Topology,
    costs: &CostVector,
    base: &[Option<PathMetric>],
    src: NodeId,
    avoid: NodeId,
) -> Vec<Option<PathMetric>> {
    assert_eq!(
        topo.num_nodes(),
        costs.len(),
        "cost vector arity must match topology"
    );
    assert_eq!(
        base.len(),
        topo.num_nodes(),
        "base tree arity must match topology"
    );
    assert!(avoid != src, "cannot avoid the source of the LCP query");
    let n = topo.num_nodes();
    // Detached region: every destination whose base path traverses `avoid`
    // (including `avoid` itself — its entry ends there). Unreachable
    // destinations (`None`) stay unreachable in the smaller graph.
    let mut detached = vec![false; n];
    let mut repaired: Vec<Option<PathMetric>> = Vec::with_capacity(n);
    let mut any = false;
    for (i, entry) in base.iter().enumerate() {
        let hit = entry.as_ref().is_some_and(|p| p.contains(avoid));
        detached[i] = hit;
        any |= hit;
        repaired.push(if hit { None } else { entry.clone() });
    }
    if !any {
        // `avoid` is off every base path (e.g. unreachable): nothing to do.
        return repaired;
    }
    rebuild_region(topo, costs, &mut repaired, &detached, Some(avoid));
    repaired
}

/// Repairs `base` — the LCP tree rooted at `src` under `old_costs` — into
/// the tree under `new_costs`, where the two vectors differ at exactly the
/// node `changed` (see the [module docs](self) for the increase/decrease
/// split).
///
/// Exactly equivalent to
/// [`lcp_tree(topo, new_costs, src)`](crate::lcp::lcp_tree).
///
/// # Panics
///
/// Panics if the arities disagree, or if the vectors differ anywhere other
/// than `changed`.
pub fn repair_cost_change(
    topo: &Topology,
    new_costs: &CostVector,
    base: &[Option<PathMetric>],
    src: NodeId,
    changed: NodeId,
    old_cost: Cost,
) -> Vec<Option<PathMetric>> {
    assert_eq!(
        topo.num_nodes(),
        new_costs.len(),
        "cost vector arity must match topology"
    );
    assert_eq!(
        base.len(),
        topo.num_nodes(),
        "base tree arity must match topology"
    );
    let new_cost = new_costs.cost(changed);
    // A source is never charged for its own traffic, and a cost touches a
    // path only through interior membership — so a tree rooted at the
    // changed node, or an unchanged cost, repairs to an identical copy.
    if src == changed || new_cost == old_cost {
        return base.to_vec();
    }
    if new_cost > old_cost {
        repair_cost_increase(topo, new_costs, base, changed)
    } else {
        repair_cost_decrease(topo, new_costs, base, changed, old_cost)
    }
}

/// Whether a one-node cost change at `changed`, from `old_cost` to
/// `new_cost`, provably leaves `tree` exactly as it is. `tree` is the LCP
/// tree rooted at `src` under the old costs, in `G − avoid` when `avoid`
/// is given. Runs in `O(deg changed)` path extensions; a `false` answer
/// only means the tree must be repaired, never that it differs.
///
/// The tree is kept when `changed` is `src` or `avoid` (its cost appears
/// on no path), and otherwise only when `changed` is interior to none of
/// its paths and either the cost rose, or it fell and the first
/// propagation step of the decrease repair finds no neighbor the cheaper
/// `changed` strictly improves. By the prefix property (see the
/// [module docs](self)), `changed` is interior to some path exactly when
/// it is the penultimate node of a neighbor's entry.
pub(crate) fn cost_change_keeps(
    topo: &Topology,
    tree: &[Option<PathMetric>],
    src: NodeId,
    avoid: Option<NodeId>,
    changed: NodeId,
    old_cost: Cost,
    new_cost: Cost,
) -> bool {
    if changed == src || Some(changed) == avoid {
        return true;
    }
    let neighbors = topo.neighbors(changed);
    let interior = neighbors.iter().any(|u| {
        tree[u.index()].as_ref().is_some_and(|p| {
            let nodes = p.nodes();
            nodes.len() >= 3 && nodes[nodes.len() - 2] == changed
        })
    });
    if interior {
        return false;
    }
    if new_cost > old_cost {
        return true;
    }
    let Some(to_changed) = &tree[changed.index()] else {
        return true;
    };
    neighbors.iter().filter(|&&x| Some(x) != avoid).all(|&x| {
        to_changed.extended(x, new_cost).is_none_or(|candidate| {
            tree[x.index()]
                .as_ref()
                .is_some_and(|cur| candidate >= *cur)
        })
    })
}

/// The increase direction: entries routing *through* `changed` detach and
/// rebuild; every other entry (including the one ending at `changed`) is
/// verbatim — its path's cost does not mention `changed`, and competitors
/// only got weakly worse.
fn repair_cost_increase(
    topo: &Topology,
    new_costs: &CostVector,
    base: &[Option<PathMetric>],
    changed: NodeId,
) -> Vec<Option<PathMetric>> {
    let n = topo.num_nodes();
    let mut detached = vec![false; n];
    let mut repaired: Vec<Option<PathMetric>> = Vec::with_capacity(n);
    let mut any = false;
    for (i, entry) in base.iter().enumerate() {
        let hit = entry
            .as_ref()
            .is_some_and(|p| p.transit_nodes().contains(&changed));
        detached[i] = hit;
        any |= hit;
        repaired.push(if hit { None } else { entry.clone() });
    }
    if !any {
        return repaired;
    }
    rebuild_region(topo, new_costs, &mut repaired, &detached, None);
    repaired
}

/// The decrease direction: through-`changed` entries stay optimal (their
/// cost just falls by `δ`, and no competitor can fall further), so they are
/// adjusted in place; the cheapened region is then a possible shortcut for
/// everyone else, so a propagation pass relaxes outward from it against the
/// standing base entries as upper bounds.
fn repair_cost_decrease(
    topo: &Topology,
    new_costs: &CostVector,
    base: &[Option<PathMetric>],
    changed: NodeId,
    old_cost: Cost,
) -> Vec<Option<PathMetric>> {
    let n = topo.num_nodes();
    let delta = old_cost.value() - new_costs.cost(changed).value();
    // The exactly-known region: `changed` itself (paths to a destination
    // never charge it) plus every through-`changed` entry, adjusted −δ.
    // Ties still break identically — hop counts and node sequences are
    // untouched, and every equal-cost competitor either also contains
    // `changed` (same −δ) or lost by at least δ before the change.
    let mut adjusted = vec![false; n];
    adjusted[changed.index()] = true;
    let mut repaired: Vec<Option<PathMetric>> = base.to_vec();
    for (i, entry) in base.iter().enumerate() {
        let Some(p) = entry else { continue };
        if p.transit_nodes().contains(&changed) {
            adjusted[i] = true;
            repaired[i] = Some(PathMetric::new(
                p.nodes().to_vec(),
                Cost::new(p.cost().value() - delta),
            ));
        }
    }
    // Improvement propagation: seed from the adjusted region's frontier;
    // outside it, base entries stand as upper bounds that only a strictly
    // better (necessarily through-`changed`) path may displace. On the
    // walk back along any improved optimum, every node past the last
    // adjusted one is itself strictly improved, so committed-node
    // relaxation reaches every improvement.
    let mut heap: BinaryHeap<Reverse<PathMetric>> = BinaryHeap::new();
    for w_idx in 0..n {
        if !adjusted[w_idx] {
            continue;
        }
        let Some(w_path) = repaired[w_idx].clone() else {
            continue;
        };
        let w = NodeId::from_index(w_idx);
        let charge = new_costs.cost(w);
        for &x in topo.neighbors(w) {
            if adjusted[x.index()] {
                continue;
            }
            if let Some(candidate) = w_path.extended(x, charge) {
                let slot = &mut repaired[x.index()];
                if slot.as_ref().is_none_or(|cur| candidate < *cur) {
                    *slot = Some(candidate.clone());
                    heap.push(Reverse(candidate));
                }
            }
        }
    }
    let mut settled = vec![false; n];
    while let Some(Reverse(path)) = heap.pop() {
        let at = path.destination();
        if settled[at.index()] {
            continue;
        }
        // Unlike a from-scratch Dijkstra, slots here start at base values
        // that were never pushed — a popped candidate is committed only if
        // it *is* the slot's current best (lazy deletion of outrun pushes).
        if repaired[at.index()].as_ref() != Some(&path) {
            continue;
        }
        settled[at.index()] = true;
        let charge = new_costs.cost(at);
        for &next in topo.neighbors(at) {
            if settled[next.index()] || adjusted[next.index()] {
                continue;
            }
            if let Some(candidate) = path.extended(next, charge) {
                let slot = &mut repaired[next.index()];
                if slot.as_ref().is_none_or(|cur| candidate < *cur) {
                    *slot = Some(candidate.clone());
                    heap.push(Reverse(candidate));
                }
            }
        }
    }
    repaired
}

/// The shared rebuild pass: Dijkstra restricted to the region marked in
/// `region`, seeded with every frontier extension from an intact entry
/// into the region, never entering `skip`. Entries outside the region are
/// read as seeds and never written; entries inside start empty (`None`)
/// and receive their unique optima in pop order, exactly as the fresh
/// computation would assign them.
fn rebuild_region(
    topo: &Topology,
    costs: &CostVector,
    repaired: &mut [Option<PathMetric>],
    region: &[bool],
    skip: Option<NodeId>,
) {
    let n = topo.num_nodes();
    let mut heap: BinaryHeap<Reverse<PathMetric>> = BinaryHeap::new();
    for u_idx in 0..n {
        if region[u_idx] {
            continue;
        }
        let u = NodeId::from_index(u_idx);
        let charge = costs.cost(u);
        for &x in topo.neighbors(u) {
            if !region[x.index()] || Some(x) == skip {
                continue;
            }
            // Borrow the intact entry just long enough to extend it: only
            // frontier entries seed anything, so none is cloned whole.
            let Some(candidate) = repaired[u_idx]
                .as_ref()
                .and_then(|u_path| u_path.extended(x, charge))
            else {
                continue;
            };
            let slot = &mut repaired[x.index()];
            if slot.as_ref().is_none_or(|cur| candidate < *cur) {
                *slot = Some(candidate.clone());
                heap.push(Reverse(candidate));
            }
        }
    }
    let mut settled = vec![false; n];
    while let Some(Reverse(path)) = heap.pop() {
        let at = path.destination();
        if settled[at.index()] {
            continue;
        }
        settled[at.index()] = true;
        let charge = costs.cost(at);
        for &next in topo.neighbors(at) {
            if settled[next.index()] || !region[next.index()] || Some(next) == skip {
                continue;
            }
            if let Some(candidate) = path.extended(next, charge) {
                let slot = &mut repaired[next.index()];
                if slot.as_ref().is_none_or(|cur| candidate < *cur) {
                    *slot = Some(candidate.clone());
                    heap.push(Reverse(candidate));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::figure1;
    use crate::lcp::{lcp_tree, lcp_tree_avoiding};

    #[test]
    fn removal_repair_matches_fresh_on_figure1() {
        let net = figure1();
        for src in net.topology.nodes() {
            let base = lcp_tree(&net.topology, &net.costs, src);
            for avoid in net.topology.nodes() {
                if avoid == src {
                    continue;
                }
                assert_eq!(
                    repair_avoiding(&net.topology, &net.costs, &base, src, avoid),
                    lcp_tree_avoiding(&net.topology, &net.costs, src, Some(avoid)),
                    "repair({src}, avoid {avoid})"
                );
            }
        }
    }

    #[test]
    fn cost_change_repair_matches_fresh_on_figure1_both_directions() {
        let net = figure1();
        for changed in net.topology.nodes() {
            let old = net.costs.cost(changed);
            for new in [0, 1, 3, 7, 50] {
                let lied = net.costs.with_cost(changed, Cost::new(new));
                for src in net.topology.nodes() {
                    let base = lcp_tree(&net.topology, &net.costs, src);
                    assert_eq!(
                        repair_cost_change(&net.topology, &lied, &base, src, changed, old),
                        lcp_tree(&net.topology, &lied, src),
                        "repair({src}, {changed}: {old} -> {new})"
                    );
                }
            }
        }
    }

    #[test]
    fn unchanged_cost_returns_the_base_verbatim() {
        let net = figure1();
        let base = lcp_tree(&net.topology, &net.costs, net.x);
        let same = repair_cost_change(
            &net.topology,
            &net.costs,
            &base,
            net.x,
            net.c,
            net.costs.cost(net.c),
        );
        assert_eq!(same, base);
    }

    #[test]
    fn source_cost_change_returns_the_base_verbatim() {
        // The source transits its own traffic for free, so its declared
        // cost never appears in its own tree.
        let net = figure1();
        let base = lcp_tree(&net.topology, &net.costs, net.x);
        let lied = net.costs.with_cost(net.x, Cost::new(99));
        let repaired = repair_cost_change(
            &net.topology,
            &lied,
            &base,
            net.x,
            net.x,
            net.costs.cost(net.x),
        );
        assert_eq!(repaired, base);
        assert_eq!(repaired, lcp_tree(&net.topology, &lied, net.x));
    }

    #[test]
    fn removal_repair_handles_disconnection() {
        // Star: removing the hub strands every other leaf.
        let topo = crate::generators::star(6);
        let costs = CostVector::uniform(6, 2);
        let hub = NodeId::new(5);
        let leaf = NodeId::new(1);
        let base = lcp_tree(&topo, &costs, leaf);
        let repaired = repair_avoiding(&topo, &costs, &base, leaf, hub);
        assert_eq!(repaired, lcp_tree_avoiding(&topo, &costs, leaf, Some(hub)));
        let reachable = repaired.iter().flatten().count();
        assert_eq!(reachable, 1, "only the source survives losing the hub");
    }

    #[test]
    #[should_panic(expected = "cannot avoid the source")]
    fn avoid_source_rejected() {
        let net = figure1();
        let base = lcp_tree(&net.topology, &net.costs, net.x);
        let _ = repair_avoiding(&net.topology, &net.costs, &base, net.x, net.x);
    }
}
