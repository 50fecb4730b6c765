//! The large-n workload, scaled down to test size: the sparse presets
//! build and converge, reference checks can be destination-sampled, the
//! avoid-tree index stays proportional to queries even at n = 1024, and
//! sampled reference checks observe the same runs as full ones.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith::prelude::*;
use specfaith::scenario::Catalog;
use specfaith_fpss::deviation::MisreportCost;
use specfaith_graph::cache::RouteCache;
use specfaith_graph::generators::scale_free;

/// The large presets at a CI-friendly size: one honest run per family,
/// converging to the (sampled) centralized reference.
#[test]
fn large_presets_build_and_converge() {
    let scale_free = ScenarioBuilder::large_scale_free(96)
        .instance_seed(7)
        .build();
    assert_eq!(scale_free.num_nodes(), 96);
    assert!(scale_free.topology().is_biconnected());
    let run = scale_free.run(1);
    assert!(!run.truncated);
    assert_eq!(run.tables_match_centralized(), Some(true));

    let grid = ScenarioBuilder::large_grid(8).instance_seed(7).build();
    assert_eq!(grid.num_nodes(), 64);
    let run = grid.run(1);
    assert!(!run.truncated);
    assert_eq!(run.tables_match_centralized(), Some(true));
}

/// The sampled reference check changes nothing observable about a
/// preset run (the large-n pin, plain engine).
#[test]
fn sampled_reference_runs_match_full_reference_runs() {
    let build = |check: ReferenceCheck| {
        ScenarioBuilder::large_scale_free(48)
            .instance_seed(3)
            .reference_check(check)
            .build()
    };
    let full = build(ReferenceCheck::Full).run(2);
    let sampled = build(ReferenceCheck::Sampled { sources: 8 }).run(2);
    assert_eq!(full.utilities, sampled.utilities);
    assert_eq!(full.stats.total_msgs(), sampled.stats.total_msgs());
    assert_eq!(full.tables_match_centralized(), Some(true));
    assert_eq!(sampled.tables_match_centralized(), Some(true));
}

/// An agent-sampled sweep at preset scale: cells evaluate, cells are
/// reproducible via `run_with_deviant` + `cell_seed` (the same identity
/// the full grid satisfies), and the sweep's scope shares the honest
/// cache across declaration-preserving cells.
#[test]
fn sampled_sweep_probes_large_instances() {
    let scenario = ScenarioBuilder::large_scale_free(48)
        .instance_seed(11)
        .build();
    let catalog = Catalog::from_factory(|_| vec![Box::new(MisreportCost { delta: 5 })]);
    let agents = [0usize, 47];
    let report = scenario.sweep_sampled(&[5], &catalog, &agents);
    assert_eq!(report.per_seed.len(), 1);
    let per_seed = &report.per_seed[0].1;
    assert_eq!(per_seed.outcomes.len(), agents.len());
    // Reproduce one sampled cell exactly.
    let outcome = &per_seed.outcomes[0];
    let rerun = scenario.run_with_deviant(
        NodeId::from_index(outcome.agent),
        Box::new(MisreportCost { delta: 5 }),
        specfaith::scenario::cell_seed(5, outcome.agent as u64, 0),
    );
    assert_eq!(outcome.deviant_utility, rerun.utilities[outcome.agent]);
    assert_eq!(outcome.detected, rerun.detected);
}

/// The sparse avoid-tree index at the real n = 1024: construction
/// allocates no avoid slots, queries allocate exactly one slot each —
/// memory proportional to trees computed, never n² (a dense table would
/// hold ~1M slots before the first query).
#[test]
fn avoid_tree_memory_is_query_proportional_at_n_1024() {
    let n = 1024;
    let mut rng = StdRng::seed_from_u64(2026);
    let topo = scale_free(n, 2, &mut rng);
    let costs = CostVector::random(n, 1, 20, &mut rng);
    let cache = RouteCache::new(topo, costs);
    assert_eq!(cache.avoid_trees_cached(), 0);
    // One source's VCG queries: an avoid tree per distinct on-path
    // transit — the per-source footprint of a reference check.
    let src = NodeId::from_index(0);
    let transits: std::collections::BTreeSet<NodeId> = cache
        .tree(src)
        .iter()
        .flatten()
        .flat_map(|path| path.transit_nodes().to_vec())
        .collect();
    for &k in &transits {
        let _ = cache.tree_avoiding(src, k);
    }
    assert_eq!(
        cache.avoid_trees_cached(),
        transits.len(),
        "exactly one slot per queried pair"
    );
    assert!(
        transits.len() < n,
        "a source's transit set is far below n² (got {})",
        transits.len()
    );
    assert_eq!(cache.trees_computed(), 1 + transits.len());
}
