//! The reference-check oracle (CI's named reference-check gate).
//!
//! The run engines check each node's converged DATA2/DATA3\* tables
//! against the centralized VCG reference in place
//! (`specfaith_fpss::pricing::tables_match`), without building the
//! expected tables. This suite pins that check to its simplest oracle,
//! `tables_agree` against the tables `expected_tables_for` builds:
//!
//! * on converged honest tables from every biconnected generator family,
//!   for the full and a sampled set of sources, with fresh and with
//!   repair-seeded route caches;
//! * on copies mutated one way at a time: a changed path, a missing or
//!   extra routing row, a price off by one, a missing or extra pricing
//!   row, a forged destination id at or beyond `n`, rows swapped for
//!   wrong ones at equal table sizes, and identity tags alone changed
//!   (which both sides ignore).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_fpss::deviation::Faithful;
use specfaith_fpss::node::PlainFpssNode;
use specfaith_fpss::pricing::{expected_tables_for, tables_agree, tables_match};
use specfaith_fpss::runner::ReferenceCheck;
use specfaith_fpss::state::{PricingTable, RoutingTable};
use specfaith_graph::cache::RouteCache;
use specfaith_graph::costs::CostVector;
use specfaith_graph::generators::{
    complete, figure1, grid, random_biconnected, ring, scale_free, wheel,
};
use specfaith_graph::topology::Topology;
use specfaith_netsim::{Connectivity, Latency, Network};
use std::sync::Arc;

/// Every node's converged `(DATA2, DATA3*)` after an all-faithful plain
/// construction run under `costs`.
fn converged_tables(
    topo: &Topology,
    costs: &CostVector,
    seed: u64,
) -> Vec<(RoutingTable, PricingTable)> {
    let max_hops = (4 * topo.num_nodes()) as u32;
    let actors: Vec<PlainFpssNode> = topo
        .nodes()
        .map(|me| {
            PlainFpssNode::new(
                me,
                topo.neighbors(me).to_vec(),
                costs.cost(me),
                Box::new(Faithful),
                max_hops,
            )
        })
        .collect();
    let mut net = Network::new(
        Connectivity::from_topology(topo),
        actors,
        Latency::DEFAULT,
        seed,
    );
    assert!(!net.run().truncated, "construction converged");
    topo.nodes()
        .map(|id| {
            let core = net.node(id).core();
            (core.routes().clone(), core.prices().clone())
        })
        .collect()
}

/// The oracle: build `src`'s expected tables, then compare.
fn oracle(
    routes: &RouteCache,
    src: NodeId,
    routing: &RoutingTable,
    pricing: &PricingTable,
) -> bool {
    let (expected_routing, expected_pricing) = expected_tables_for(routes, src);
    tables_agree(routing, pricing, &expected_routing, &expected_pricing)
}

/// One way to corrupt a node's converged tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutation {
    /// The tables as converged.
    Honest,
    /// One pricing row's identity tags replaced; prices untouched.
    TagsOnly,
    /// One multi-hop route replaced by its detour around its first transit.
    ChangedPath,
    /// One routing row removed.
    MissingRoute,
    /// A routing row for a destination that does not exist.
    ExtraRoute,
    /// One price raised by one.
    PriceOffByOne,
    /// One pricing row removed.
    MissingPrice,
    /// A pricing row for a node that is not a transit of the route.
    ExtraPrice,
    /// A pricing row for the forged destination id `n`.
    ForgedDestination,
    /// One routing row moved to the forged destination id `n + 3`: the
    /// table keeps its size.
    SwappedRoute,
    /// One pricing row moved to a non-transit of the same route: the
    /// table keeps its size.
    SwappedPrice,
}

const MUTATIONS: [Mutation; 11] = [
    Mutation::Honest,
    Mutation::TagsOnly,
    Mutation::ChangedPath,
    Mutation::MissingRoute,
    Mutation::ExtraRoute,
    Mutation::PriceOffByOne,
    Mutation::MissingPrice,
    Mutation::ExtraPrice,
    Mutation::ForgedDestination,
    Mutation::SwappedRoute,
    Mutation::SwappedPrice,
];

/// The `pick`-th element of `items`, wrapping, if there is any.
fn nth<T: Copy>(items: &[T], pick: usize) -> Option<T> {
    (!items.is_empty()).then(|| items[pick % items.len()])
}

/// Applies `mutation` to `src`'s tables, choosing the row by `pick`.
/// Returns `false` when the tables have no row the mutation applies to
/// (e.g. no priced route on a complete graph), leaving them as they were.
fn mutate(
    mutation: Mutation,
    routes: &RouteCache,
    src: NodeId,
    pick: usize,
    routing: &mut RoutingTable,
    pricing: &mut PricingTable,
) -> bool {
    let n = routes.topology().num_nodes();
    let dsts: Vec<NodeId> = routing.iter().map(|(dst, _)| dst).collect();
    let multi_hop: Vec<NodeId> = routing
        .iter()
        .filter(|(_, path)| path.len() > 2)
        .map(|(dst, _)| dst)
        .collect();
    let priced: Vec<(NodeId, NodeId)> = pricing.iter().map(|(key, _)| key).collect();
    // A node off `dst`'s route: never priced for it.
    let off_route = |dst: NodeId| {
        let path = routing.path(dst).expect("routed").to_vec();
        routes.topology().nodes().find(|v| !path.contains(v))
    };
    match mutation {
        Mutation::Honest => true,
        Mutation::TagsOnly => nth(&priced, pick).is_some_and(|(dst, k)| {
            let mut entry = pricing.entry(dst, k).expect("priced").clone();
            entry.tags = [NodeId::from_index(n + 1)].into_iter().collect();
            pricing.insert(dst, k, entry);
            true
        }),
        Mutation::ChangedPath => nth(&multi_hop, pick).is_some_and(|dst| {
            let first_transit = routing.path(dst).expect("routed")[1];
            let detour = routes
                .path_avoiding(src, dst, first_transit)
                .expect("biconnected");
            routing.install(dst, detour.into_nodes())
        }),
        Mutation::MissingRoute => nth(&dsts, pick).is_some_and(|dst| routing.remove(dst)),
        Mutation::ExtraRoute => {
            routing.install(NodeId::from_index(n), vec![src, NodeId::from_index(n)])
        }
        Mutation::PriceOffByOne => nth(&priced, pick).is_some_and(|(dst, k)| {
            let mut entry = pricing.entry(dst, k).expect("priced").clone();
            entry.price += Money::new(1);
            pricing.insert(dst, k, entry);
            true
        }),
        Mutation::MissingPrice => nth(&priced, pick).is_some_and(|(dst, k)| pricing.remove(dst, k)),
        Mutation::ExtraPrice => nth(&priced, pick).is_some_and(|(dst, k)| {
            let Some(stranger) = off_route(dst) else {
                return false;
            };
            let entry = pricing.entry(dst, k).expect("priced").clone();
            pricing.insert(dst, stranger, entry);
            true
        }),
        Mutation::ForgedDestination => nth(&priced, pick).is_some_and(|(dst, k)| {
            let entry = pricing.entry(dst, k).expect("priced").clone();
            pricing.insert(NodeId::from_index(n), k, entry);
            true
        }),
        Mutation::SwappedRoute => nth(&dsts, pick).is_some_and(|dst| {
            let path = routing.path(dst).expect("routed").to_vec();
            routing.remove(dst);
            routing.install(NodeId::from_index(n + 3), path)
        }),
        Mutation::SwappedPrice => nth(&priced, pick).is_some_and(|(dst, k)| {
            let Some(stranger) = off_route(dst) else {
                return false;
            };
            let entry = pricing.entry(dst, k).expect("priced").clone();
            pricing.remove(dst, k);
            pricing.insert(dst, stranger, entry);
            true
        }),
    }
}

/// Checks every mutation of each source's tables against the oracle.
/// Returns the mutations that applied, once per source.
fn check_sources(
    routes: &RouteCache,
    tables: &[(RoutingTable, PricingTable)],
    sources: &[NodeId],
    pick: usize,
) -> Vec<Mutation> {
    let mut applied = Vec::new();
    for &src in sources {
        let (routing, pricing) = &tables[src.index()];
        for mutation in MUTATIONS {
            let (mut routing, mut pricing) = (routing.clone(), pricing.clone());
            if !mutate(mutation, routes, src, pick, &mut routing, &mut pricing) {
                continue;
            }
            applied.push(mutation);
            let expected = oracle(routes, src, &routing, &pricing);
            assert_eq!(
                tables_match(routes, src, &routing, &pricing),
                expected,
                "{mutation:?} at source {src} (pick {pick})"
            );
            let honest = matches!(mutation, Mutation::Honest | Mutation::TagsOnly);
            assert_eq!(
                expected, honest,
                "{mutation:?} at source {src}: oracle verdict"
            );
        }
    }
    applied
}

/// One topology per biconnected generator family, sized from `n`.
fn family_topology(family: usize, n: usize, rng: &mut StdRng) -> Topology {
    match family % 6 {
        0 => ring(n),
        1 => wheel(n),
        2 => grid(3, n / 3),
        3 => complete(n.min(8)),
        4 => scale_free(n, 2, rng),
        _ => random_biconnected(n, n / 2, rng),
    }
}

#[test]
fn every_mutation_is_judged_like_the_oracle_on_figure1() {
    let net = figure1();
    let tables = converged_tables(&net.topology, &net.costs, 3);
    let routes = RouteCache::new(net.topology.clone(), net.costs.clone());
    let sources = ReferenceCheck::Full.sources(net.topology.num_nodes());
    let applied: Vec<Mutation> = (0..4)
        .flat_map(|pick| check_sources(&routes, &tables, &sources, pick))
        .collect();
    for mutation in MUTATIONS {
        assert!(applied.contains(&mutation), "{mutation:?} never applied");
    }
}

#[test]
fn stale_tables_fail_like_the_oracle_against_a_seeded_cache() {
    // Tables converged under one cost vector, checked against the cache of
    // a one-node delta repaired from it: the stream's per-event check on
    // tables that have not caught up yet.
    let mut rng = StdRng::seed_from_u64(11);
    let topo = scale_free(24, 2, &mut rng);
    let costs = CostVector::random(24, 1, 20, &mut rng);
    let tables = converged_tables(&topo, &costs, 5);
    let donor = Arc::new(RouteCache::new(topo.clone(), costs.clone()));
    let hub = topo
        .nodes()
        .max_by_key(|&v| topo.neighbors(v).len())
        .expect("nonempty");
    let changed = costs.with_cost(hub, Cost::new(costs.cost(hub).value() + 30));
    let seeded = RouteCache::seeded_from(&donor, changed.clone());
    let mut stale = 0;
    for src in topo.nodes() {
        let (routing, pricing) = &tables[src.index()];
        assert!(tables_match(&donor, src, routing, pricing));
        let expected = oracle(&seeded, src, routing, pricing);
        assert_eq!(
            tables_match(&seeded, src, routing, pricing),
            expected,
            "source {src}"
        );
        stale += usize::from(!expected);
    }
    assert!(stale > 0, "raising the hub's cost moves some node's tables");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Converged honest tables from every biconnected generator family,
    /// mutated each way at once-chosen rows, are judged by the in-place
    /// check exactly as by the oracle: on every source and on a sampled
    /// set, with a fresh cache and with a cache repair-seeded from a
    /// one-node delta the tables converged under.
    #[test]
    fn in_place_check_equals_the_oracle(
        seed in 0u64..400,
        n in 6usize..16,
        family in 0usize..6,
        pick in 0usize..64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = family_topology(family, n, &mut rng);
        let n = topo.num_nodes();
        let costs = CostVector::random(n, 0, 15, &mut rng);
        let tables = converged_tables(&topo, &costs, seed);
        let fresh = RouteCache::new(topo.clone(), costs.clone());
        check_sources(&fresh, &tables, &ReferenceCheck::Full.sources(n), pick);

        // A donor one cost away, fully materialized for the sampled
        // sources: the seeded cache shares the avoid trees the delta
        // leaves alone, regions on the donor's plain trees included.
        let changed = NodeId::from_index(pick % n);
        let other = costs.with_cost(changed, Cost::new(costs.cost(changed).value() + 7));
        let donor = Arc::new(RouteCache::new(topo.clone(), other));
        let sampled = ReferenceCheck::Sampled { sources: 3 }.sources(n);
        for &src in &sampled {
            for k in topo.nodes().filter(|&k| k != src) {
                let _ = donor.tree_avoiding(src, k);
            }
        }
        let seeded = RouteCache::seeded_from(&donor, costs.clone());
        check_sources(&seeded, &tables, &sampled, pick / 2);
    }
}
