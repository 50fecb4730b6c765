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
//! 1. keeps every unaffected entry where it is, in the base tree,
//! 2. seeds a heap with the frontier extensions `base[u] + (u → x)` for
//!    every unaffected `u` adjacent to a detached `x`, and
//! 3. runs Dijkstra restricted to the detached region only.
//!
//! The result of [`repair_avoiding`] is an [`AvoidTree`]: an [`Arc`] of
//! the base tree plus the region's entries, sorted by destination. On the
//! scale-free `n = 256` stream benchmark a region averages 8.5 of 256
//! entries (3.3%), so storing the region instead of a full copy of the
//! tree is what keeps a reference check's avoid trees small, cheap to
//! build and cheap to drop.
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
//! Per-tree cost drops from `O(m log n)` on the whole graph to an `O(n)`
//! scan for the region plus work proportional to the region and its
//! edges — tiny for most `k` on scale-free topologies, where the vast
//! majority of nodes hang off hubs and detach nothing. A cost-change
//! repair returns a full plain tree (plain trees are dense), so it still
//! clones the unaffected entries.
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

use crate::cache::{AvoidTree, PlainTree};
use crate::costs::CostVector;
use crate::path::PathMetric;
use crate::topology::Topology;
use specfaith_core::id::NodeId;
use specfaith_core::money::Cost;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Repairs `base` — the LCP tree rooted at `src` under `(topo, costs)` —
/// into the `d_{G−avoid}` tree, re-relaxing only the subtree detached by
/// removing `avoid` (see the [module docs](self)). The result stores just
/// that region's entries and shares `base` for the rest.
///
/// Exactly equivalent to
/// [`lcp_tree_avoiding(topo, costs, src, Some(avoid))`](crate::lcp::lcp_tree_avoiding):
/// [`AvoidTree::path`] answers every destination as the fresh tree would.
///
/// # Panics
///
/// Panics if `avoid == src`, if the cost vector's arity does not match the
/// topology, or if `base` is not sized to the topology.
pub fn repair_avoiding(
    topo: &Topology,
    costs: &CostVector,
    base: &PlainTree,
    src: NodeId,
    avoid: NodeId,
) -> AvoidTree {
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
    // Detached region: every destination whose base path traverses `avoid`
    // (including `avoid` itself — its entry ends there). Unreachable
    // destinations (`None`) stay unreachable in the smaller graph, and an
    // `avoid` off every base path leaves the region empty.
    let region = detached(base, |p| p.contains(avoid));
    let entries = rebuild_region(topo, costs, base, &region, Some(avoid));
    AvoidTree::new(Arc::clone(base), region.into_iter().zip(entries).collect())
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
/// `new_cost`, provably leaves a tree exactly as it is. `entry` reads the
/// tree: the LCP tree rooted at `src` under the old costs, in `G − avoid`
/// when `avoid` is given. Runs in `O(deg changed)` entry reads and path
/// extensions; a `false` answer only means the tree must be repaired,
/// never that it differs.
///
/// The tree is kept when `changed` is `src` or `avoid` (its cost appears
/// on no path), and otherwise only when `changed` is interior to none of
/// its paths and either the cost rose, or it fell and the first
/// propagation step of the decrease repair finds no neighbor the cheaper
/// `changed` strictly improves. By the prefix property (see the
/// [module docs](self)), `changed` is interior to some path exactly when
/// it is the penultimate node of a neighbor's entry.
pub(crate) fn cost_change_keeps<'a>(
    topo: &Topology,
    entry: impl Fn(NodeId) -> Option<&'a PathMetric>,
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
    let interior = neighbors.iter().any(|&u| {
        entry(u).is_some_and(|p| {
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
    let Some(to_changed) = entry(changed) else {
        return true;
    };
    neighbors.iter().filter(|&&x| Some(x) != avoid).all(|&x| {
        to_changed
            .extended(x, new_cost)
            .is_none_or(|candidate| entry(x).is_some_and(|cur| candidate >= *cur))
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
    let region = detached(base, |p| p.transit_nodes().contains(&changed));
    let rebuilt = rebuild_region(topo, new_costs, base, &region, None);
    let mut rebuilt = region.into_iter().zip(rebuilt).peekable();
    base.iter()
        .enumerate()
        .map(
            |(i, entry)| match rebuilt.next_if(|(dst, _)| dst.index() == i) {
                Some((_, repaired)) => repaired,
                None => entry.clone(),
            },
        )
        .collect()
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

/// The destinations whose `base` entry `hit` selects, ascending.
fn detached(base: &[Option<PathMetric>], hit: impl Fn(&PathMetric) -> bool) -> Vec<NodeId> {
    base.iter()
        .enumerate()
        .filter(|(_, entry)| entry.as_ref().is_some_and(&hit))
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
}

/// The shared rebuild pass: Dijkstra restricted to `region` (ascending
/// node ids), seeded with every frontier extension from an intact `base`
/// entry (one outside the region) into the region, never entering `skip`.
/// Returns the region's entries in `region` order: each the unique
/// optimum the fresh computation would assign, or `None` where the region
/// node is unreachable. Work and memory are proportional to the region
/// and its edges, never to `n`.
fn rebuild_region(
    topo: &Topology,
    costs: &CostVector,
    base: &[Option<PathMetric>],
    region: &[NodeId],
    skip: Option<NodeId>,
) -> Vec<Option<PathMetric>> {
    /// Keeps `candidate` for region slot `at` if it beats the slot's best.
    fn offer(
        best: &mut [Option<PathMetric>],
        heap: &mut BinaryHeap<Reverse<PathMetric>>,
        at: usize,
        candidate: PathMetric,
    ) {
        if best[at].as_ref().is_none_or(|cur| candidate < *cur) {
            best[at] = Some(candidate.clone());
            heap.push(Reverse(candidate));
        }
    }
    let slot = |x: NodeId| region.binary_search(&x).ok();
    let mut best: Vec<Option<PathMetric>> = vec![None; region.len()];
    let mut heap: BinaryHeap<Reverse<PathMetric>> = BinaryHeap::new();
    for (at, &x) in region.iter().enumerate() {
        if Some(x) == skip {
            continue;
        }
        for &u in topo.neighbors(x) {
            if Some(u) == skip || slot(u).is_some() {
                continue;
            }
            // Borrow the intact entry just long enough to extend it: only
            // frontier entries seed anything, so none is cloned whole.
            if let Some(candidate) = base[u.index()]
                .as_ref()
                .and_then(|u_path| u_path.extended(x, costs.cost(u)))
            {
                offer(&mut best, &mut heap, at, candidate);
            }
        }
    }
    let mut settled = vec![false; region.len()];
    while let Some(Reverse(path)) = heap.pop() {
        let at = path.destination();
        let here = slot(at).expect("only region nodes are offered");
        if settled[here] {
            continue;
        }
        settled[here] = true;
        let charge = costs.cost(at);
        for &next in topo.neighbors(at) {
            if Some(next) == skip {
                continue;
            }
            let Some(there) = slot(next).filter(|&there| !settled[there]) else {
                continue;
            };
            if let Some(candidate) = path.extended(next, charge) {
                offer(&mut best, &mut heap, there, candidate);
            }
        }
    }
    best
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
            let base: PlainTree = lcp_tree(&net.topology, &net.costs, src).into();
            for avoid in net.topology.nodes() {
                if avoid == src {
                    continue;
                }
                assert_eq!(
                    repair_avoiding(&net.topology, &net.costs, &base, src, avoid).to_vec(),
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
        let base: PlainTree = lcp_tree(&topo, &costs, leaf).into();
        let repaired = repair_avoiding(&topo, &costs, &base, leaf, hub).to_vec();
        assert_eq!(repaired, lcp_tree_avoiding(&topo, &costs, leaf, Some(hub)));
        let reachable = repaired.iter().flatten().count();
        assert_eq!(reachable, 1, "only the source survives losing the hub");
    }

    #[test]
    #[should_panic(expected = "cannot avoid the source")]
    fn avoid_source_rejected() {
        let net = figure1();
        let base: PlainTree = lcp_tree(&net.topology, &net.costs, net.x).into();
        let _ = repair_avoiding(&net.topology, &net.costs, &base, net.x, net.x);
    }
}
