//! The avoid-tree repair equivalence suite (CI's named repair gate).
//!
//! Pins the exactness contract of `specfaith_graph::repair`: repaired
//! trees — `d_{G−k}` removal repairs and one-node cost-change repairs in
//! both directions — are element-for-element identical to fresh Dijkstra,
//! across every topology family the generators produce (star, grid,
//! scale-free, random biconnected), trees a seeded cache shares from its
//! donor instead of repairing are too, and repair-seeded sweep cells are
//! byte-identical to cold-built ones all the way up through the scenario
//! engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith::prelude::*;
use specfaith::scenario::{cell_seed, Catalog};
use specfaith_fpss::deviation::MisreportCost;
use specfaith_graph::cache::RouteCache;
use specfaith_graph::generators::{grid, random_biconnected, scale_free, star};
use specfaith_graph::lcp::{lcp_tree, lcp_tree_avoiding};
use specfaith_graph::repair::{repair_avoiding, repair_cost_change};
use specfaith_graph::Topology;
use std::sync::Arc;

/// One topology per generator family, sized from `n`. The star's hub is a
/// cut vertex, so removal repair must reproduce unreachable (`None`)
/// entries; the others are biconnected.
fn family_topology(family: usize, n: usize, rng: &mut StdRng) -> Topology {
    match family % 4 {
        0 => star(n.max(3)),
        1 => grid(3, n.max(6) / 3),
        2 => scale_free(n.max(5), 2, rng),
        _ => random_biconnected(n.max(5), n / 2, rng),
    }
}

/// Materializes every plain and avoid tree of `cache`.
fn materialize_all(cache: &RouteCache) {
    let topo = cache.topology();
    for src in topo.nodes() {
        let _ = cache.tree(src);
        for avoid in topo.nodes().filter(|&k| k != src) {
            let _ = cache.tree_avoiding(src, avoid);
        }
    }
}

/// Checks every plain and avoid tree of `cache` against fresh Dijkstra
/// under the cache's own costs.
fn equals_fresh_dijkstra(cache: &RouteCache) -> Result<(), TestCaseError> {
    let (topo, costs) = (cache.topology(), cache.costs());
    for src in topo.nodes() {
        prop_assert_eq!(cache.tree(src), &lcp_tree(topo, costs, src)[..]);
        for avoid in topo.nodes().filter(|&k| k != src) {
            prop_assert_eq!(
                cache.tree_avoiding(src, avoid).to_vec(),
                lcp_tree_avoiding(topo, costs, src, Some(avoid))
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `repair(base_tree, k)` ≡ `lcp_tree_avoiding(k)` for every
    /// `(src, avoid)` pair, across all generator families.
    #[test]
    fn removal_repair_equals_fresh_avoid_tree(
        seed in 0u64..400,
        n in 6usize..16,
        family in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = family_topology(family, n, &mut rng);
        let costs = CostVector::random(topo.num_nodes(), 0, 15, &mut rng);
        for src in topo.nodes() {
            let base: Arc<[_]> = lcp_tree(&topo, &costs, src).into();
            for avoid in topo.nodes() {
                if avoid == src {
                    continue;
                }
                prop_assert_eq!(
                    repair_avoiding(&topo, &costs, &base, src, avoid).to_vec(),
                    lcp_tree_avoiding(&topo, &costs, src, Some(avoid))
                );
            }
        }
    }

    /// One-node cost-change repair ≡ a fresh tree under the new vector,
    /// for increases, decreases, and the no-op edge cases alike.
    #[test]
    fn cost_change_repair_equals_fresh_tree(
        seed in 0u64..400,
        n in 6usize..16,
        family in 0usize..4,
        changed_pick in 0usize..16,
        new_cost in 0u64..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = family_topology(family, n, &mut rng);
        let costs = CostVector::random(topo.num_nodes(), 0, 15, &mut rng);
        let changed = NodeId::from_index(changed_pick % topo.num_nodes());
        let old_cost = costs.cost(changed);
        let lied = costs.with_cost(changed, Cost::new(new_cost));
        for src in topo.nodes() {
            let base = lcp_tree(&topo, &costs, src);
            prop_assert_eq!(
                repair_cost_change(&topo, &lied, &base, src, changed, old_cost),
                lcp_tree(&topo, &lied, src)
            );
        }
    }

    /// A scope-seeded cache (trees repaired from a pinned baseline) is
    /// answer-identical to a cold cache for the same misreport vector —
    /// plain trees and avoid trees both.
    #[test]
    fn seeded_caches_equal_cold_caches(
        seed in 0u64..200,
        n in 6usize..14,
        delta in -10i64..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_biconnected(n, n / 2, &mut rng);
        let costs = CostVector::random(n, 1, 12, &mut rng);
        let changed = NodeId::from_index(seed as usize % n);
        let declared = costs.cost(changed).value().saturating_add_signed(delta);
        let lied = costs.with_cost(changed, Cost::new(declared));
        let scope = CacheScope::eager();
        let _ = scope.pin(&topo, &costs);
        let seeded = scope.cache(&topo, &lied);
        let cold = RouteCache::new(topo.clone(), lied.clone());
        prop_assert_eq!(seeded.is_seeded(), declared != costs.cost(changed).value());
        for src in topo.nodes() {
            prop_assert_eq!(seeded.tree(src), cold.tree(src));
            for avoid in topo.nodes() {
                if avoid == src {
                    continue;
                }
                prop_assert_eq!(
                    seeded.tree_avoiding(src, avoid).to_vec(),
                    cold.tree_avoiding(src, avoid).to_vec()
                );
            }
        }
    }

    /// A cache seeded from a fully materialized donor shares the donor's
    /// trees wherever the one-node delta provably leaves them unchanged,
    /// and every tree it answers, shared or repaired, equals fresh
    /// Dijkstra. Three deltas: an increase and a decrease at a random
    /// node, and an increase at the highest-degree node, which many trees
    /// route through but whose own avoid trees must all be shared.
    /// A donor with nothing materialized shares nothing and is never made
    /// to compute an avoid tree.
    #[test]
    fn kept_trees_equal_fresh_dijkstra(
        seed in 0u64..400,
        n in 6usize..16,
        family in 0usize..4,
        changed_pick in 0usize..16,
        delta in 1u64..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = family_topology(family, n, &mut rng);
        let costs = CostVector::random(topo.num_nodes(), 0, 15, &mut rng);
        let donor = Arc::new(RouteCache::new(topo.clone(), costs.clone()));
        materialize_all(&donor);
        let v = NodeId::from_index(changed_pick % topo.num_nodes());
        let hub = topo
            .nodes()
            .max_by_key(|&k| topo.neighbors(k).len())
            .expect("nonempty");
        let old = costs.cost(v).value();
        let mut deltas = vec![(v, old + delta), (hub, costs.cost(hub).value() + delta)];
        if old > 0 {
            deltas.push((v, old.saturating_sub(delta)));
        }
        for (at, cost) in deltas {
            let seeded = RouteCache::seeded_from(&donor, costs.with_cost(at, Cost::new(cost)));
            equals_fresh_dijkstra(&seeded)?;
            prop_assert!(seeded.trees_shared() > 0);
            for src in topo.nodes().filter(|&s| s != at) {
                prop_assert!(Arc::ptr_eq(
                    &seeded.tree_avoiding(src, at),
                    &donor.tree_avoiding(src, at)
                ));
            }
        }
        let empty = Arc::new(RouteCache::new(topo.clone(), costs.clone()));
        let seeded = RouteCache::seeded_from(&empty, costs.with_cost(v, Cost::new(old + delta)));
        materialize_all(&seeded);
        prop_assert_eq!(seeded.trees_shared(), 0);
        prop_assert_eq!(empty.avoid_trees_cached(), 0);
    }
}

/// Repair-seeded sweep cells are byte-identical to cold-built cells: the
/// full scenario-engine sweep (whose misreport cells repair the pinned
/// honest baseline's caches) reproduces exactly the utilities and
/// detection flags of per-cell runs on an unseeded scope.
#[test]
fn repair_seeded_sweep_cells_match_cold_built_cells() {
    let scenario = Scenario::builder()
        .topology(specfaith::scenario::TopologySource::RandomBiconnected {
            n: 12,
            extra_edges: 4,
        })
        .costs(specfaith::scenario::CostModel::Random { lo: 1, hi: 9 })
        .traffic(specfaith::scenario::TrafficModel::single_by_index(0, 7, 2))
        .instance_seed(17)
        .build();
    let n = scenario.num_nodes();
    // One overreport, one underreport: both repair directions in play.
    let deltas = [5i64, -1];
    let catalog = Catalog::from_factory(move |_| {
        deltas
            .iter()
            .map(|&delta| Box::new(MisreportCost { delta }) as _)
            .collect()
    });
    let seeded_scope = CacheScope::eager();
    let report = scenario.sweep_scoped(&[9], &catalog, &seeded_scope);
    assert_eq!(
        seeded_scope.seeded(),
        deltas.len() * n,
        "every misreport cell's cache must have been repair-seeded"
    );
    let per_seed = &report.per_seed[0].1;
    assert_eq!(per_seed.outcomes.len(), deltas.len() * n);
    for outcome in &per_seed.outcomes {
        // Cold rebuild of the same cell: fresh unbounded scope, no pinned
        // baseline, so every cache is built by fresh Dijkstra.
        let cold_scope = CacheScope::eager();
        let cold = scenario.with_route_scope(cold_scope.clone());
        let deviation_index = deltas
            .iter()
            .position(|&delta| outcome.deviation.name() == format!("misreport-cost({delta:+})"))
            .expect("outcome names a swept deviation");
        let rerun = cold.run_with_deviant(
            NodeId::from_index(outcome.agent),
            Box::new(MisreportCost {
                delta: deltas[deviation_index],
            }),
            cell_seed(9, outcome.agent as u64, deviation_index as u64),
        );
        assert_eq!(
            cold_scope.seeded(),
            0,
            "the reference cell must be cold-built"
        );
        assert_eq!(
            outcome.deviant_utility, rerun.utilities[outcome.agent],
            "agent {} deviation {}: seeded and cold cells must agree",
            outcome.agent, deviation_index
        );
        assert_eq!(outcome.detected, rerun.detected);
    }
}
