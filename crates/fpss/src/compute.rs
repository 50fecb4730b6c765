//! Pure FPSS recomputation functions.
//!
//! Everything a node computes in construction phase 2 — its routing table
//! from neighbors' advertised paths, and its pricing table from neighbors'
//! advertised prices — is implemented here as **pure functions of the
//! node's inputs**. Three callers share them:
//!
//! * the plain FPSS node ([`crate::node`]),
//! * the faithful principal, and
//! * every checker mirror (which recomputes what *its principal* should
//!   have computed from the forwarded inputs).
//!
//! Purity is not a style choice: the bank compares table hashes across
//! principal and checkers, so the recomputation must be a deterministic
//! function of the inputs and nothing else.
//!
//! The inputs a node has heard live in a [`NeighborView`]: per neighbor,
//! one advert per destination, holding the advertised route and the
//! advertised prices sorted by transit. [`price_entries_to`] fetches each
//! neighbor's advert once per destination, and then a detour price is a
//! binary search over the few transits of one route.

use crate::msg::{PriceRow, RouteRow};
use crate::state::{PriceEntry, PricingTable, RoutingTable, TransitCostList};
use crate::tags::TagSet;
use specfaith_core::id::NodeId;
use specfaith_core::money::Cost;
use specfaith_graph::path::PathMetric;
use std::collections::{BTreeMap, BTreeSet};

/// Dense-slot ceiling for the per-neighbor advertisement tables. Honest
/// destination ids are dense `0..n` and sit far below this; advertised
/// rows naming larger ids (only forgeable — see the deviation hooks) fall
/// back to the sparse map so a hostile row cannot force a giant
/// allocation.
const DENSE_ROUTE_SLOTS: usize = 4096;

/// What one neighbor advertised toward one destination.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Advert {
    /// The advertised path (starting at the neighbor, ending at the
    /// destination), if any.
    path: Option<Vec<NodeId>>,
    /// The advertised per-packet prices, `(transit, price)` sorted by
    /// transit.
    prices: Vec<(NodeId, i64)>,
}

/// A node's record of what its neighbors have advertised: routes and
/// prices, exactly as received (the inputs to recomputation).
///
/// Adverts are stored per neighbor, dense by destination index: the
/// recompute functions read a neighbor's route and prices toward `dst` on
/// their innermost loops, so the lookup is a short linear probe over the
/// (few) neighbors plus an array read, and a price is a binary search
/// over the few transits of one advertised route — never a tree walk.
/// Destinations at or beyond the dense ceiling (forged ids) take the
/// sparse fallback.
///
/// Beside the adverts sits a route-membership index, laid out the same
/// way: for each node, the destinations whose stored routes visit it, as a
/// `(dst, routes)` list sorted by `dst`. Lists are dense by node index
/// below `DENSE_ROUTE_SLOTS` and sparse above it, so a forged id, as a
/// destination or anywhere inside an advertised path, costs one map entry
/// and never a giant allocation.
#[derive(Clone, Debug, Default)]
pub struct NeighborView {
    /// Per neighbor, `adverts[dst.index()]`.
    dense: Vec<(NodeId, Vec<Advert>)>,
    /// Adverts whose destination index does not fit the dense table,
    /// keyed by `(neighbor, dst)`.
    sparse: BTreeMap<(NodeId, NodeId), Advert>,
    /// Reverse membership index, maintained incrementally by
    /// [`NeighborView::learn_route`] (an accounting view of the stored
    /// rows, deliberately excluded from equality) so
    /// [`NeighborView::dsts_through`] answers the flood-time invalidation
    /// query — *which destinations could a newly learned cost affect?* —
    /// without scanning every stored path.
    through: RouteMembership,
}

/// For each node, how many stored routes toward each destination visit it:
/// `(dst, routes)` lists sorted by `dst`, with no zero counts.
#[derive(Clone, Debug, Default)]
struct RouteMembership {
    /// Lists of nodes below `DENSE_ROUTE_SLOTS`, by node index.
    dense: Vec<Vec<(NodeId, u32)>>,
    /// Lists of nodes at or beyond the dense ceiling (forged ids). An entry
    /// whose list empties is removed.
    sparse: BTreeMap<NodeId, Vec<(NodeId, u32)>>,
}

impl RouteMembership {
    /// The destinations whose stored routes visit `node`, ascending.
    fn dsts(&self, node: NodeId) -> &[(NodeId, u32)] {
        let list = if node.index() < DENSE_ROUTE_SLOTS {
            self.dense.get(node.index())
        } else {
            self.sparse.get(&node)
        };
        list.map_or(&[], Vec::as_slice)
    }

    /// Moves the stored route toward `dst` from `old` (if any) to `new`,
    /// touching only the nodes on one path but not the other. Both are
    /// simple paths.
    fn replace(&mut self, dst: NodeId, old: &[NodeId], new: &[NodeId]) {
        self.remove(dst, old.iter().filter(|v| !new.contains(v)));
        self.add(dst, new.iter().filter(|v| !old.contains(v)));
    }

    /// Counts one more route toward `dst` through each of `nodes`.
    fn add<'a>(&mut self, dst: NodeId, nodes: impl Iterator<Item = &'a NodeId>) {
        for &v in nodes {
            let list = if v.index() < DENSE_ROUTE_SLOTS {
                if v.index() >= self.dense.len() {
                    self.dense.resize_with(v.index() + 1, Vec::new);
                }
                &mut self.dense[v.index()]
            } else {
                self.sparse.entry(v).or_default()
            };
            match list.binary_search_by_key(&dst, |&(d, _)| d) {
                Ok(at) => list[at].1 += 1,
                Err(at) => list.insert(at, (dst, 1)),
            }
        }
    }

    /// Undoes [`RouteMembership::add`] for nodes that were counted.
    fn remove<'a>(&mut self, dst: NodeId, nodes: impl Iterator<Item = &'a NodeId>) {
        for &v in nodes {
            let list = if v.index() < DENSE_ROUTE_SLOTS {
                &mut self.dense[v.index()]
            } else {
                self.sparse.get_mut(&v).expect("indexed path node")
            };
            let at = list
                .binary_search_by_key(&dst, |&(d, _)| d)
                .expect("indexed dst");
            list[at].1 -= 1;
            if list[at].1 == 0 {
                list.remove(at);
                if list.is_empty() && v.index() >= DENSE_ROUTE_SLOTS {
                    self.sparse.remove(&v);
                }
            }
        }
    }
}

impl NeighborView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// What `neighbor` advertised toward `dst`, if anything.
    fn advert(&self, neighbor: NodeId, dst: NodeId) -> Option<&Advert> {
        if dst.index() >= DENSE_ROUTE_SLOTS {
            return self.sparse.get(&(neighbor, dst));
        }
        let (_, adverts) = self.dense.iter().find(|(b, _)| *b == neighbor)?;
        adverts.get(dst.index())
    }

    /// [`NeighborView::advert`], mutably.
    fn existing_advert_mut(&mut self, neighbor: NodeId, dst: NodeId) -> Option<&mut Advert> {
        if dst.index() >= DENSE_ROUTE_SLOTS {
            return self.sparse.get_mut(&(neighbor, dst));
        }
        let (_, adverts) = self.dense.iter_mut().find(|(b, _)| *b == neighbor)?;
        adverts.get_mut(dst.index())
    }

    /// The stored advert of `neighbor` toward `dst`, created empty if
    /// absent.
    fn advert_mut(&mut self, neighbor: NodeId, dst: NodeId) -> &mut Advert {
        if dst.index() >= DENSE_ROUTE_SLOTS {
            return self.sparse.entry((neighbor, dst)).or_default();
        }
        let at = match self.dense.iter().position(|(b, _)| *b == neighbor) {
            Some(at) => at,
            None => {
                self.dense.push((neighbor, Vec::new()));
                self.dense.len() - 1
            }
        };
        let adverts = &mut self.dense[at].1;
        if dst.index() >= adverts.len() {
            adverts.resize_with(dst.index() + 1, Advert::default);
        }
        &mut adverts[dst.index()]
    }

    /// Records a route advertisement from `neighbor`. Returns `true` if
    /// the stored row changed. Malformed rows are rejected: a path that
    /// does not start at the neighbor, does not end at the row's
    /// destination, or visits a node twice (no honest node advertises a
    /// non-simple path, and one installed as a route would break the
    /// simple-path invariant of every route built on it).
    pub fn learn_route(&mut self, neighbor: NodeId, row: &RouteRow) -> bool {
        let path = row.path.as_slice();
        if path.first() != Some(&neighbor)
            || path.last() != Some(&row.dst)
            || (1..path.len()).any(|i| path[..i].contains(&path[i]))
        {
            return false;
        }
        let advert = self.advert_mut(neighbor, row.dst);
        if advert.path.as_deref() == Some(path) {
            return false;
        }
        let old = advert.path.replace(path.to_vec()).unwrap_or_default();
        self.through.replace(row.dst, &old, path);
        true
    }

    /// The destinations with at least one stored route whose path visits
    /// `node` (as transit, origin, or the destination itself) — the
    /// invalidation set of a newly learned declared cost for `node`.
    /// Yields them in ascending order.
    pub fn dsts_through(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.through.dsts(node).iter().map(|&(dst, _)| dst)
    }

    /// Records a price advertisement from `neighbor`. Returns `true` if
    /// the stored value changed.
    pub fn learn_price(&mut self, neighbor: NodeId, row: &PriceRow) -> bool {
        let value = row.price.value();
        let prices = &mut self.advert_mut(neighbor, row.dst).prices;
        match prices.binary_search_by_key(&row.transit, |(k, _)| *k) {
            Ok(at) if prices[at].1 == value => return false,
            Ok(at) => prices[at].1 = value,
            Err(at) => prices.insert(at, (row.transit, value)),
        }
        true
    }

    /// Removes a previously advertised price (the neighbor retracted it).
    /// Returns `true` if the view changed.
    pub fn retract_price(&mut self, neighbor: NodeId, dst: NodeId, transit: NodeId) -> bool {
        let Some(advert) = self.existing_advert_mut(neighbor, dst) else {
            return false;
        };
        match advert.prices.binary_search_by_key(&transit, |(k, _)| *k) {
            Ok(at) => {
                advert.prices.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// The path `neighbor` advertised toward `dst`, if any.
    pub fn route(&self, neighbor: NodeId, dst: NodeId) -> Option<&[NodeId]> {
        self.advert(neighbor, dst)?.path.as_deref()
    }

    /// The price `neighbor` advertised for `(dst, transit)`, if any.
    pub fn price(&self, neighbor: NodeId, dst: NodeId, transit: NodeId) -> Option<i64> {
        let prices = &self.advert(neighbor, dst)?.prices;
        let at = prices.binary_search_by_key(&transit, |(k, _)| *k).ok()?;
        Some(prices[at].1)
    }

    /// Every stored advert as `((neighbor, dst), advert)`, sorted by key
    /// (normalizes away storage artifacts like trailing empty slots and
    /// the order neighbors were first heard from).
    fn content(&self) -> BTreeMap<(NodeId, NodeId), &Advert> {
        let dense = self.dense.iter().flat_map(|(neighbor, adverts)| {
            adverts
                .iter()
                .enumerate()
                .map(move |(slot, advert)| ((*neighbor, NodeId::from_index(slot)), advert))
        });
        dense
            .chain(self.sparse.iter().map(|(&key, advert)| (key, advert)))
            .filter(|(_, advert)| advert.path.is_some() || !advert.prices.is_empty())
            .collect()
    }
}

impl PartialEq for NeighborView {
    fn eq(&self, other: &Self) -> bool {
        self.content() == other.content()
    }
}

impl Eq for NeighborView {}

/// Recomputes the routing table of `me` from its transit-cost list and
/// neighbor advertisements.
///
/// For each destination, the candidate via neighbor `b` is `[me] ++
/// path_b(dst)`, **costed locally from DATA1** (advertised costs are never
/// trusted — this is the \[CHECK1\] verification built into the update rule).
/// Candidates are compared under the [`PathMetric`] total order, so every
/// honest node resolves ties identically.
pub fn recompute_routes(
    me: NodeId,
    neighbors: &[NodeId],
    data1: &TransitCostList,
    view: &NeighborView,
) -> RoutingTable {
    // Destinations: every node we have ever heard of.
    let mut dsts: BTreeSet<NodeId> = data1.iter().map(|(n, _)| n).collect();
    for &b in neighbors {
        dsts.insert(b);
    }
    let mut table = RoutingTable::new();
    table.install(me, vec![me]);
    for dst in dsts {
        if dst == me {
            continue;
        }
        if let Some(path) = best_route_to(me, neighbors, data1, view, dst) {
            table.install(dst, path);
        }
    }
    table
}

/// The update rule for one destination: the best candidate `[me] ++
/// path_b` over all neighbors `b`, costed locally from DATA1. Exactly the
/// `dst` row a full [`recompute_routes`] would produce — the row is a pure
/// function of `dst`'s advertised routes and DATA1, which is what makes
/// destination-scoped incremental recomputation sound.
pub fn best_route_to(
    me: NodeId,
    neighbors: &[NodeId],
    data1: &TransitCostList,
    view: &NeighborView,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    // Candidates are compared without materializing them: every candidate
    // is `[me] ++ path_b`, so the shared `[me]` prefix drops out of the
    // PathMetric order and `(cost, path_b.len(), path_b)` ranks candidates
    // identically. Only the winner is allocated (and still passes through
    // `PathMetric::new`, which guards the simple-path invariant for the
    // installed route).
    let direct = [dst];
    let mut best: Option<(Cost, &[NodeId])> = None;
    for &b in neighbors {
        let path_b: &[NodeId] = if b == dst {
            &direct
        } else {
            let Some(path_b) = view.route(b, dst) else {
                continue;
            };
            if path_b.contains(&me) {
                continue; // would loop
            }
            path_b
        };
        // Candidate intermediates are every path_b node but the last.
        let Some(cost) = data1.extension_cost(path_b) else {
            continue; // some intermediate's declared cost unknown yet
        };
        let improves = match &best {
            None => true,
            Some((best_cost, best_path)) => {
                (cost, path_b.len(), path_b) < (*best_cost, best_path.len(), best_path)
            }
        };
        if improves {
            best = Some((cost, path_b));
        }
    }
    let (cost, path_b) = best?;
    let mut nodes = Vec::with_capacity(1 + path_b.len());
    nodes.push(me);
    nodes.extend_from_slice(path_b);
    Some(PathMetric::new(nodes, cost).into_nodes())
}

/// Recomputes the pricing table \[DATA3*\] of `me`.
///
/// For each destination `j` on the routing table and each transit `k` on
/// the chosen path, the per-packet VCG payment is
/// `pᵏ = ĉ_k + d_{G−k}(me,j) − d(me,j)`, where the `k`-avoiding distance is
/// estimated by the FPSS iterative rule over neighbors `b ≠ k`:
///
/// * if `k` is **not** on `b`'s advertised path to `j`, the detour through
///   `b` costs `ĉ_b + d_b(j)` (the advertised path itself avoids `k`);
/// * if `k` **is** on it, `b`'s own advertised price for `k` encodes `b`'s
///   `k`-avoiding distance: `d_{G−k}(b,j) = pᵏ_b − ĉ_k + d_b(j)`.
///
/// The DATA3* identity tags record which neighbor(s) attained the minimum
/// (union on ties), which is what lets checkers detect spoofed pricing
/// messages (\[CHECK2\], \[BANK2\]).
pub fn recompute_prices(
    me: NodeId,
    neighbors: &[NodeId],
    data1: &TransitCostList,
    routes: &RoutingTable,
    view: &NeighborView,
) -> PricingTable {
    PricingTable::from_dst_rows(
        routes
            .iter()
            .filter(|&(dst, _)| dst != me)
            .map(|(dst, path)| (dst, price_entries_to(neighbors, data1, path, view, dst))),
    )
}

/// The pricing rows of one destination — `(transit, entry)` per transit
/// on `path` (this node's route to `dst`), sorted by transit. Exactly the
/// `dst` rows a full [`recompute_prices`] would produce: pricing for a
/// destination is a pure function of that destination's route, its
/// advertised routes/prices, and DATA1, which is what makes
/// destination-scoped incremental recomputation sound.
pub fn price_entries_to(
    neighbors: &[NodeId],
    data1: &TransitCostList,
    path: &[NodeId],
    view: &NeighborView,
    dst: NodeId,
) -> Vec<(NodeId, PriceEntry)> {
    let transits: &[NodeId] = if path.len() <= 2 {
        &[]
    } else {
        &path[1..path.len() - 1]
    };
    if transits.is_empty() {
        return Vec::new();
    }
    let Some(d_me) = data1.path_cost(path) else {
        return Vec::new();
    };
    let d_me = d_me.value() as i64;
    // Per-neighbor inputs — advertised path and prices, the path's
    // locally-costed distance, the neighbor's declared cost — are pure
    // functions of `(b, dst)`, so they are derived once here rather than
    // once per transit. `None` = this neighbor contributes no candidate.
    let per_neighbor: Vec<Option<(&Advert, i64, i64)>> = neighbors
        .iter()
        .map(|&b| {
            if b == dst {
                return Some((&DIRECT, 0, 0));
            }
            let advert = view.advert(b, dst)?;
            let d_b = data1.path_cost(advert.path.as_deref()?)?.value() as i64;
            let c_b = data1.declared(b)?.value() as i64;
            Some((advert, d_b, c_b))
        })
        .collect();
    let mut rows = Vec::with_capacity(transits.len());
    for &k in transits {
        let Some(c_k) = data1.declared(k) else {
            continue;
        };
        let c_k = c_k.value() as i64;
        let mut best: Option<i64> = None;
        let mut tags = TagSet::new();
        for (&b, inputs) in neighbors.iter().zip(&per_neighbor) {
            if b == k {
                // Problem partitioning (FPSS footnote 8): the priced
                // node's own advertisements are never used to price it.
                continue;
            }
            let Some((advert, d_b, c_b)) = *inputs else {
                continue;
            };
            let crosses_k = advert.path.as_ref().is_some_and(|p| p.contains(&k));
            let detour = if crosses_k {
                let prices = &advert.prices;
                let Ok(at) = prices.binary_search_by_key(&k, |(t, _)| *t) else {
                    continue;
                };
                prices[at].1 - c_k + d_b
            } else {
                d_b
            };
            let candidate = c_k + c_b + detour - d_me;
            match best {
                None => {
                    best = Some(candidate);
                    tags.clear();
                    tags.insert(b);
                }
                Some(cur) if candidate < cur => {
                    best = Some(candidate);
                    tags.clear();
                    tags.insert(b);
                }
                Some(cur) if candidate == cur => {
                    tags.insert(b);
                }
                Some(_) => {}
            }
        }
        if let Some(price) = best {
            rows.push((
                k,
                PriceEntry {
                    price: specfaith_core::money::Money::new(price),
                    tags,
                },
            ));
        }
    }
    // Paths visit transits in route order; announcements and diffs expect
    // transit order (the order a full-table rebuild iterates in).
    rows.sort_by_key(|(k, _)| *k);
    rows
}

/// The advert standing in for a destination that is itself a neighbor:
/// the zero-length detour, which crosses no transit.
static DIRECT: Advert = Advert {
    path: None,
    prices: Vec::new(),
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specfaith_core::money::{Cost, Money};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn data1(costs: &[(u32, u64)]) -> TransitCostList {
        let mut d = TransitCostList::new();
        for &(id, c) in costs {
            d.learn(n(id), Cost::new(c));
        }
        d
    }

    #[test]
    fn learn_route_rejects_malformed_rows() {
        let mut view = NeighborView::new();
        // Path does not start at the claimed neighbor.
        assert!(!view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(0), n(2)],
            }
        ));
        // Path does not end at dst.
        assert!(!view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(3)],
            }
        ));
        // Path visits a node twice: the endpoints are right, but the
        // route is not simple.
        assert!(!view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(3), n(3), n(2)],
            }
        ));
        assert!(!view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(3), n(1), n(2)],
            }
        ));
        assert_eq!(view, NeighborView::new(), "rejected rows leave no trace");
        assert!(view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            }
        ));
    }

    #[test]
    fn forged_huge_destination_ids_stay_sparse() {
        // A deviant can advertise any destination id; a forged id far
        // beyond the dense range must not force a giant allocation, and
        // must still round-trip through the view.
        let mut view = NeighborView::new();
        let forged = NodeId::new(1_000_000_000);
        let row = RouteRow {
            dst: forged,
            path: vec![n(1), forged],
        };
        assert!(view.learn_route(n(1), &row));
        assert!(!view.learn_route(n(1), &row), "idempotent");
        assert_eq!(view.route(n(1), forged), Some(&[n(1), forged][..]));
        assert_eq!(view.route(n(1), n(2)), None);
        let mut same = NeighborView::new();
        same.learn_route(n(1), &row);
        assert_eq!(view, same, "equality covers sparse rows");
        // A forged id inside an advertised path is indexed sparsely too.
        let interior = NodeId::new(1_000_000_001);
        let via = RouteRow {
            dst: n(2),
            path: vec![n(1), interior, forged, n(2)],
        };
        assert!(view.learn_route(n(1), &via));
        assert_eq!(view.dsts_through(interior).collect::<Vec<_>>(), vec![n(2)]);
        assert_eq!(
            view.dsts_through(forged).collect::<Vec<_>>(),
            vec![n(2), forged]
        );
        assert_eq!(
            view.dsts_through(n(1)).collect::<Vec<_>>(),
            vec![n(2), forged]
        );
        assert!(view.through.dense.len() <= 3, "no slot up to a forged id");
        // Replacing the route drops the forged interior from the index.
        assert!(view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            }
        ));
        assert_eq!(view.dsts_through(interior).next(), None);
        assert!(!view.through.sparse.contains_key(&interior));
        assert_eq!(view.dsts_through(forged).collect::<Vec<_>>(), vec![forged]);
    }

    /// Destination `d` of a generated op: `0..4` are dense ids, `4` and
    /// `5` forged ids past the dense slots.
    fn generated_dst(d: u32) -> NodeId {
        if d < 4 {
            n(d)
        } else {
            NodeId::from_index(DENSE_ROUTE_SLOTS + d as usize)
        }
    }

    /// Node `v` of a generated route: `0..6` are dense ids, `6..9` sit
    /// on both sides of the dense ceiling, `9` is a huge forged id.
    fn generated_node(v: u32) -> NodeId {
        match v {
            0..=5 => n(v),
            6 => NodeId::from_index(DENSE_ROUTE_SLOTS - 1),
            7 => NodeId::from_index(DENSE_ROUTE_SLOTS),
            8 => NodeId::from_index(DENSE_ROUTE_SLOTS + 1),
            _ => NodeId::new(u32::MAX - 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any sequence of route learns — fresh rows, replacements,
        /// repeats and rejected malformed rows, over dense and forged ids
        /// as destinations and as interior path nodes — `dsts_through(v)`
        /// equals a brute-force scan of the stored routes, for every `v`.
        /// The last op element picks a malformation: 0 starts the path
        /// elsewhere, 1 ends it elsewhere, 2 repeats a node, others leave
        /// the row well formed.
        #[test]
        fn dsts_through_matches_a_scan_of_stored_routes(
            ops in proptest::collection::vec(
                (0u32..3, 0u32..10, proptest::collection::vec(0u32..10, 0..4), 0u32..8),
                0..40,
            ),
        ) {
            let mut view = NeighborView::new();
            let neighbors = [n(1), n(2), generated_node(7)];
            for (b, dst, interior, malform) in &ops {
                let (b, dst) = (neighbors[*b as usize], generated_node(*dst));
                let mut path = vec![b];
                for &v in interior {
                    let v = generated_node(v);
                    if !path.contains(&v) && v != dst {
                        path.push(v);
                    }
                }
                if dst != b {
                    path.push(dst);
                }
                match malform {
                    0 => path[0] = generated_node(0),
                    1 => path.push(generated_node(3)),
                    2 => path.push(path[0]),
                    _ => {}
                }
                view.learn_route(b, &RouteRow { dst, path });
            }
            let content = view.content();
            for v in (0..10).map(generated_node) {
                let scan: BTreeSet<NodeId> = content
                    .iter()
                    .filter(|(_, advert)| advert.path.as_ref().is_some_and(|p| p.contains(&v)))
                    .map(|(&(_, dst), _)| dst)
                    .collect();
                let indexed: Vec<NodeId> = view.dsts_through(v).collect();
                prop_assert_eq!(indexed, scan.into_iter().collect::<Vec<_>>());
            }
            prop_assert!(view.through.dense.len() <= DENSE_ROUTE_SLOTS);
            prop_assert!(view.through.sparse.values().all(|list| !list.is_empty()));
        }

        /// The price view agrees with a `BTreeMap<(neighbor, dst,
        /// transit), i64>` on every learn, retraction and lookup, dense
        /// and sparse destinations alike, and equals a view fed the same
        /// content in the reverse order. Op 0 retracts, op 1 also learns
        /// a route (which must not disturb prices), the others learn.
        #[test]
        fn price_view_matches_a_btreemap(
            ops in proptest::collection::vec(((0u32..5, 0u32..3), (0u32..6, 0u32..4), -3i64..3), 0..60),
        ) {
            let mut view = NeighborView::new();
            let mut model: BTreeMap<(NodeId, NodeId, NodeId), i64> = BTreeMap::new();
            let mut routes = Vec::new();
            let row = |dst, transit, price| PriceRow {
                dst,
                transit,
                price: Money::new(price),
                tags: TagSet::new(),
            };
            for &((op, b), (d, k), price) in &ops {
                let (b, dst, k) = (n(10 + b), generated_dst(d), n(k));
                if op == 0 {
                    let removed = model.remove(&(b, dst, k)).is_some();
                    prop_assert_eq!(view.retract_price(b, dst, k), removed);
                } else {
                    if op == 1 {
                        let route = RouteRow { dst, path: vec![b, dst] };
                        view.learn_route(b, &route);
                        routes.push((b, route));
                    }
                    let changed = model.insert((b, dst, k), price) != Some(price);
                    prop_assert_eq!(view.learn_price(b, &row(dst, k, price)), changed);
                }
                for b in (10..13).map(n) {
                    for dst in (0..6).map(generated_dst) {
                        for k in (0..4).map(n) {
                            let expected = model.get(&(b, dst, k)).copied();
                            prop_assert_eq!(view.price(b, dst, k), expected);
                        }
                    }
                }
            }
            let mut fresh = NeighborView::new();
            for (&(b, dst, k), &price) in model.iter().rev() {
                fresh.learn_price(b, &row(dst, k, price));
            }
            for (b, route) in routes.iter().rev() {
                fresh.learn_route(*b, route);
            }
            prop_assert_eq!(&view, &fresh);
            if let Some((&(b, dst, k), _)) = model.iter().next() {
                fresh.retract_price(b, dst, k);
                prop_assert_ne!(&view, &fresh);
            }
        }
    }

    #[test]
    fn learn_is_idempotent() {
        let mut view = NeighborView::new();
        let row = RouteRow {
            dst: n(2),
            path: vec![n(1), n(2)],
        };
        assert!(view.learn_route(n(1), &row));
        assert!(!view.learn_route(n(1), &row));
        let price = PriceRow {
            dst: n(2),
            transit: n(3),
            price: Money::new(5),
            tags: TagSet::new(),
        };
        assert!(view.learn_price(n(1), &price));
        assert!(!view.learn_price(n(1), &price));
    }

    #[test]
    fn routes_prefer_cheaper_advertised_paths() {
        // me = 0, neighbors 1 (cost 10) and 2 (cost 1); both claim a route
        // to 3. Via 2 is cheaper.
        let d1 = data1(&[(0, 0), (1, 10), (2, 1), (3, 0)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(3),
                path: vec![n(1), n(3)],
            },
        );
        view.learn_route(
            n(2),
            &RouteRow {
                dst: n(3),
                path: vec![n(2), n(3)],
            },
        );
        let table = recompute_routes(n(0), &[n(1), n(2)], &d1, &view);
        assert_eq!(table.path(n(3)), Some(&[n(0), n(2), n(3)][..]));
    }

    #[test]
    fn routes_never_trust_advertised_costs() {
        // A neighbor advertising a path through an expensive node cannot
        // make it look cheap: costs come from DATA1.
        let d1 = data1(&[(0, 0), (1, 1), (2, 1000), (3, 0)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(3),
                path: vec![n(1), n(2), n(3)], // through expensive 2
            },
        );
        let table = recompute_routes(n(0), &[n(1)], &d1, &view);
        let path = table.path(n(3)).expect("route exists");
        // Cost is recomputed locally: 1 (node 1) + 1000 (node 2).
        assert_eq!(d1.path_cost(path), Some(Cost::new(1001)));
    }

    #[test]
    fn routes_skip_candidates_looping_through_me() {
        let d1 = data1(&[(0, 0), (1, 1), (2, 1)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(0), n(2)], // loops through me
            },
        );
        let table = recompute_routes(n(0), &[n(1)], &d1, &view);
        // No valid candidate survives except... none (1 is not dst 2's
        // neighbor relation is unknown). Only the adjacency candidate for
        // dst=1 itself exists.
        assert_eq!(table.path(n(2)), None);
        assert_eq!(table.path(n(1)), Some(&[n(0), n(1)][..]));
    }

    #[test]
    fn routes_wait_for_unknown_costs() {
        let d1 = data1(&[(0, 0), (1, 1)]); // node 2's cost unknown
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(3),
                path: vec![n(1), n(2), n(3)],
            },
        );
        let table = recompute_routes(n(0), &[n(1)], &d1, &view);
        assert_eq!(table.path(n(3)), None, "intermediate cost unknown");
    }

    #[test]
    fn prices_direct_detour() {
        // Line-ish graph known directly: me=0 routes to 2 via transit 1
        // (cost 5); neighbor 3 (cost 8) advertises a k-free route to 2.
        // p¹ = c₁ + d_{G−1}(0,2) − d(0,2) = 5 + 8 − 5 = 8.
        let d1 = data1(&[(0, 0), (1, 5), (2, 0), (3, 8)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            },
        );
        view.learn_route(
            n(3),
            &RouteRow {
                dst: n(2),
                path: vec![n(3), n(2)],
            },
        );
        let routes = recompute_routes(n(0), &[n(1), n(3)], &d1, &view);
        assert_eq!(routes.path(n(2)), Some(&[n(0), n(1), n(2)][..]));
        let prices = recompute_prices(n(0), &[n(1), n(3)], &d1, &routes, &view);
        let entry = prices.entry(n(2), n(1)).expect("transit 1 priced");
        assert_eq!(entry.price, Money::new(8));
        assert_eq!(entry.tags, [n(3)].into_iter().collect());
    }

    #[test]
    fn prices_never_use_the_priced_node_as_witness() {
        // Only neighbor is k itself: no candidate may be produced.
        let d1 = data1(&[(0, 0), (1, 5), (2, 0)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            },
        );
        let routes = recompute_routes(n(0), &[n(1)], &d1, &view);
        let prices = recompute_prices(n(0), &[n(1)], &d1, &routes, &view);
        assert!(prices.entry(n(2), n(1)).is_none());
    }

    #[test]
    fn prices_tie_produces_tag_union() {
        // Two equal detours through neighbors 3 and 4.
        let d1 = data1(&[(0, 0), (1, 5), (2, 0), (3, 8), (4, 8)]);
        let mut view = NeighborView::new();
        for b in [1u32, 3, 4] {
            view.learn_route(
                n(b),
                &RouteRow {
                    dst: n(2),
                    path: vec![n(b), n(2)],
                },
            );
        }
        let routes = recompute_routes(n(0), &[n(1), n(3), n(4)], &d1, &view);
        let prices = recompute_prices(n(0), &[n(1), n(3), n(4)], &d1, &routes, &view);
        let entry = prices.entry(n(2), n(1)).expect("priced");
        assert_eq!(entry.tags, [n(3), n(4)].into_iter().collect());
    }

    #[test]
    fn prices_use_neighbor_price_when_detour_also_crosses_k() {
        // b's path to dst also goes through k; b's advertised price for k
        // encodes its k-avoiding distance.
        // Geometry: 0 -1- 2, and neighbor 3 whose path is 3-1-2 with an
        // advertised price p¹₃ = 9 (so d_{G−1}(3,2) = 9 − 5 + 5 = 9).
        let d1 = data1(&[(0, 0), (1, 5), (2, 0), (3, 2)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            },
        );
        view.learn_route(
            n(3),
            &RouteRow {
                dst: n(2),
                path: vec![n(3), n(1), n(2)],
            },
        );
        view.learn_price(
            n(3),
            &PriceRow {
                dst: n(2),
                transit: n(1),
                price: Money::new(9),
                tags: TagSet::new(),
            },
        );
        let routes = recompute_routes(n(0), &[n(1), n(3)], &d1, &view);
        // Route 0→2: via 1 costs 5; via 3 costs 2+5=7 → via 1.
        assert_eq!(routes.path(n(2)), Some(&[n(0), n(1), n(2)][..]));
        let prices = recompute_prices(n(0), &[n(1), n(3)], &d1, &routes, &view);
        let entry = prices.entry(n(2), n(1)).expect("priced");
        // p¹₀ = c₁ + [c₃ + (p¹₃ − c₁ + d₃)] − d₀ = 5 + [2 + (9−5+5)] − 5 = 11.
        assert_eq!(entry.price, Money::new(11));
    }

    #[test]
    fn prices_skip_when_neighbor_price_missing() {
        let d1 = data1(&[(0, 0), (1, 5), (2, 0), (3, 2)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            },
        );
        view.learn_route(
            n(3),
            &RouteRow {
                dst: n(2),
                path: vec![n(3), n(1), n(2)],
            },
        );
        // No price advertised by 3 yet → no entry (the iteration will
        // produce it once 3's price arrives).
        let routes = recompute_routes(n(0), &[n(1), n(3)], &d1, &view);
        let prices = recompute_prices(n(0), &[n(1), n(3)], &d1, &routes, &view);
        assert!(prices.entry(n(2), n(1)).is_none());
    }
}
