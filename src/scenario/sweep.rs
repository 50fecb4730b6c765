//! The parallel deviation sweep: the `(seed × node × deviation)` grid,
//! evaluated in two phases with deterministic per-cell seeds.
//!
//! **Phase 1** runs each seed's honest baseline exactly once, in parallel
//! across seeds, and wraps the results in `Arc`s: every `(node ×
//! deviation)` cell of a seed — and the final report assembly — borrows
//! the same immutable baseline instead of re-deriving it. Every sweep
//! owns a fresh sweep-scoped
//! [`CacheScope`](specfaith_graph::cache::CacheScope) threaded through
//! all of its cells: the baselines pin the honest declared-cost vector's
//! [`RouteCache`](specfaith_graph::cache::RouteCache) before the fan-out,
//! so every misreport cell's cache is repaired from it, registered once,
//! and released when its cell completes; concurrent workloads cannot
//! interfere with the scope.
//!
//! **Phase 2** evaluates the deviation cells. Every cell is an
//! independent, deterministic simulator run, so evaluation order cannot
//! influence results; [`cell_seed`] makes each cell's seed a pure
//! function of `(base seed, agent, deviation)` so the grid's *contents*
//! do not depend on how it is scheduled either. The parallel path and the
//! serial path run the identical cell list through the identical
//! evaluator — `assert_eq!` between their [`SweepReport`]s is the
//! workspace's standing determinism test.

use super::report::SweepReport;
use super::Scenario;
use rayon::prelude::*;
use specfaith_core::equilibrium::{DeviationOutcome, DeviationSpec, EquilibriumReport};
use specfaith_core::id::NodeId;
use specfaith_core::money::Money;
use specfaith_fpss::deviation::{standard_catalog, RationalStrategy};
use std::fmt;
use std::sync::Arc;

/// A library of deviation strategies for sweeps.
///
/// A catalog is a *factory*: sweeps instantiate a fresh strategy per cell
/// (strategies are stateful — e.g. transient deviants count attempts), and
/// some strategies are parameterized by the deviant's identity (forged
/// pricing tags use the deviant's own id, which no checker accepts).
#[derive(Clone)]
pub struct Catalog {
    factory: Arc<dyn Fn(NodeId) -> Vec<Box<dyn RationalStrategy>> + Send + Sync>,
}

impl Catalog {
    /// The paper's standard §4.3 catalog
    /// ([`specfaith_fpss::deviation::standard_catalog`]): 13 deviations
    /// covering all three action classes and all three phases.
    pub fn standard() -> Self {
        Catalog::from_factory(standard_catalog)
    }

    /// A catalog from an arbitrary factory. The factory must be
    /// *name-stable*: for every deviant id it returns the same number of
    /// strategies, with the same [`DeviationSpec`] names, in the same
    /// order.
    pub fn from_factory(
        factory: impl Fn(NodeId) -> Vec<Box<dyn RationalStrategy>> + Send + Sync + 'static,
    ) -> Self {
        Catalog {
            factory: Arc::new(factory),
        }
    }

    /// The specs of this catalog (instantiated for node 0; the factory's
    /// name-stability makes the choice immaterial).
    pub fn specs(&self) -> Vec<DeviationSpec> {
        (self.factory)(NodeId::new(0))
            .iter()
            .map(|s| s.spec())
            .collect()
    }

    /// Number of deviations in the catalog.
    pub fn len(&self) -> usize {
        self.specs().len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A fresh instance of deviation `index` for `deviant`.
    fn strategy(&self, deviant: NodeId, index: usize) -> Box<dyn RationalStrategy> {
        (self.factory)(deviant)
            .into_iter()
            .nth(index)
            .expect("catalog factories are name-stable across deviants")
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::standard()
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("deviations", &self.specs())
            .finish()
    }
}

/// The deterministic per-cell seed: a pure SplitMix64-style mix of the
/// sweep's base seed, the deviating agent, and the deviation index.
///
/// The faithful *baseline* cell of a seed uses the base seed unchanged,
/// so `scenario.run(seed)` reproduces it exactly; a deviation cell
/// `(agent, d)` runs under `cell_seed(seed, agent, d)`, reproducible via
/// [`Scenario::run_with_deviant`](super::Scenario::run_with_deviant).
pub fn cell_seed(base_seed: u64, agent: u64, deviation: u64) -> u64 {
    let mut state = base_seed;
    for word in [agent.wrapping_add(1), deviation.wrapping_add(1)] {
        state = state
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(word))
            .rotate_left(27);
        state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state ^= state >> 31;
    }
    state
}

/// One deviation cell of the sweep grid. Honest baselines are phase 1 —
/// they are shared per seed, not enumerated as cells.
///
/// A cell's seed ([`cell_seed`]) depends only on `(base_seed, agent,
/// deviation)` — never on which *other* cells the grid holds — so an
/// agent-sampled grid evaluates exactly the cells the full grid would.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    /// Index into the caller's seed list.
    pub(crate) seed_index: usize,
    /// The caller's base seed for this cell's row.
    pub(crate) base_seed: u64,
    /// The deviating agent (topology index).
    pub(crate) agent: usize,
    /// Index into the catalog's deviation list.
    pub(crate) deviation: usize,
}

/// An evaluated run's deviant-relevant utility data — one per deviation
/// cell, and (behind an `Arc`, shared across the seed's whole row) one
/// per honest baseline.
#[derive(Clone, Debug)]
pub(crate) struct CellResult {
    pub(crate) utilities: Vec<Money>,
    pub(crate) detected: bool,
}

/// Phase 1 evaluator: the honest baseline of one seed, reproducible via
/// `scenario.run(base_seed)`.
pub(crate) fn evaluate_baseline(scenario: &Scenario, base_seed: u64) -> CellResult {
    let run = scenario.run(base_seed);
    CellResult {
        utilities: run.utilities,
        detected: run.detected,
    }
}

/// Phase 2 evaluator: one `(agent, deviation)` cell, reproducible via
/// `scenario.run_with_deviant(agent, strategy, cell_seed(..))`.
pub(crate) fn evaluate(scenario: &Scenario, catalog: &Catalog, cell: &Cell) -> CellResult {
    let agent_id = NodeId::from_index(cell.agent);
    let strategy = catalog.strategy(agent_id, cell.deviation);
    let seed = cell_seed(cell.base_seed, cell.agent as u64, cell.deviation as u64);
    let run = scenario.run_with_deviant(agent_id, strategy, seed);
    CellResult {
        utilities: run.utilities,
        detected: run.detected,
    }
}

/// Builds the deviation-cell grid for `seeds`: per seed, agents ×
/// deviations in row-major order. This enumeration order is the shard
/// partition's coordinate system: a cell's position here is the "global
/// grid index" sharded by [`ShardSpec`](super::shard::ShardSpec) and
/// recorded in [`SweepFragment`](super::shard::SweepFragment) cells.
pub(crate) fn deviation_grid(seeds: &[u64], agents: &[usize], deviations: usize) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(seeds.len() * agents.len() * deviations);
    for (seed_index, &base_seed) in seeds.iter().enumerate() {
        for &agent in agents {
            for deviation in 0..deviations {
                cells.push(Cell {
                    seed_index,
                    base_seed,
                    agent,
                    deviation,
                });
            }
        }
    }
    cells
}

/// Assembles per-seed [`EquilibriumReport`]s: faithful utilities come
/// from the shared phase-1 baselines, outcomes from the evaluated cells.
/// `results` must be index-aligned with `cells` — both paths (serial and
/// parallel) guarantee that by construction.
fn assemble(
    seeds: &[u64],
    specs: &[DeviationSpec],
    baselines: &[Arc<CellResult>],
    cells: &[Cell],
    results: Vec<CellResult>,
) -> SweepReport {
    let mut reports: Vec<EquilibriumReport> = baselines
        .iter()
        .map(|baseline| EquilibriumReport {
            faithful_utilities: baseline.utilities.clone(),
            outcomes: Vec::new(),
        })
        .collect();
    for (cell, result) in cells.iter().zip(results) {
        let faithful_utility = baselines[cell.seed_index].utilities[cell.agent];
        reports[cell.seed_index].outcomes.push(DeviationOutcome {
            agent: cell.agent,
            deviation: specs[cell.deviation].clone(),
            faithful_utility,
            deviant_utility: result.utilities[cell.agent],
            detected: result.detected,
        });
    }
    SweepReport {
        per_seed: seeds.iter().copied().zip(reports).collect(),
    }
}

/// Runs the two-phase sweep over the full agent set; `parallel` picks
/// rayon fan-out vs. strict serial evaluation of the identical work
/// list. Route caches come from whatever [`CacheScope`] the scenario
/// carries — the public `Scenario::sweep*` wrappers thread a fresh
/// sweep-scoped registry in before calling here.
///
/// [`CacheScope`]: specfaith_graph::cache::CacheScope
pub(super) fn sweep(
    scenario: &Scenario,
    seeds: &[u64],
    catalog: &Catalog,
    parallel: bool,
) -> SweepReport {
    let agents: Vec<usize> = (0..scenario.num_nodes()).collect();
    sweep_agents(scenario, seeds, catalog, &agents, parallel)
}

/// [`sweep`] restricted to deviations by `agents`.
pub(super) fn sweep_agents(
    scenario: &Scenario,
    seeds: &[u64],
    catalog: &Catalog,
    agents: &[usize],
    parallel: bool,
) -> SweepReport {
    let specs = catalog.specs();
    // Phase 1: one honest baseline per seed, shared immutably with every
    // cell of that seed's row. Each baseline pins the true-cost cache in
    // the scenario's scope before any cell runs, so release never
    // thrashes it and each misreport cell's cache repairs its trees
    // against a one-node declaration delta instead of rebuilding them.
    let baselines: Vec<Arc<CellResult>> = if parallel {
        seeds
            .par_iter()
            .map(|&base_seed| Arc::new(evaluate_baseline(scenario, base_seed)))
            .collect()
    } else {
        seeds
            .iter()
            .map(|&base_seed| Arc::new(evaluate_baseline(scenario, base_seed)))
            .collect()
    };
    // Phase 2: the (agent × deviation) cells of every seed.
    let cells = deviation_grid(seeds, agents, specs.len());
    let results: Vec<CellResult> = if parallel {
        cells
            .par_iter()
            .map(|cell| evaluate(scenario, catalog, cell))
            .collect()
    } else {
        cells
            .iter()
            .map(|cell| evaluate(scenario, catalog, cell))
            .collect()
    };
    assemble(seeds, &specs, &baselines, &cells, results)
}

/// The single-seed serial report (`Scenario::equilibrium_report`), in a
/// report-scoped cache registry of its own.
pub(super) fn equilibrium_report_serial(
    scenario: &Scenario,
    seed: u64,
    catalog: &Catalog,
) -> EquilibriumReport {
    let scoped = scenario.with_route_scope(specfaith_graph::cache::CacheScope::eager());
    let mut report = sweep(&scoped, &[seed], catalog, false);
    report
        .per_seed
        .pop()
        .map(|(_, report)| report)
        .expect("one seed in, one report out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Mechanism, TopologySource, TrafficModel};

    fn tiny_scenario() -> Scenario {
        Scenario::builder()
            .topology(TopologySource::Figure1)
            .traffic(TrafficModel::single_by_index(5, 4, 3))
            .mechanism(Mechanism::faithful())
            .build()
    }

    #[test]
    fn cell_seed_is_stable_and_spreads() {
        // Pure function: same inputs, same output.
        assert_eq!(cell_seed(7, 2, 5), cell_seed(7, 2, 5));
        // Distinct cells get distinct seeds (no collisions on a small grid).
        let mut seen = std::collections::BTreeSet::new();
        for base in 0..4u64 {
            for agent in 0..6u64 {
                for deviation in 0..13u64 {
                    seen.insert(cell_seed(base, agent, deviation));
                }
            }
        }
        assert_eq!(seen.len(), 4 * 6 * 13, "cell seeds must not collide");
    }

    #[test]
    fn standard_catalog_has_thirteen_name_stable_entries() {
        let catalog = Catalog::standard();
        assert_eq!(catalog.len(), 13);
        assert!(!catalog.is_empty());
        let names_for = |node: u32| -> Vec<String> {
            (catalog.factory)(NodeId::new(node))
                .iter()
                .map(|s| s.spec().name().to_string())
                .collect()
        };
        assert_eq!(names_for(0), names_for(5), "name-stability across deviants");
    }

    #[test]
    fn single_seed_report_equals_the_swept_row() {
        let scenario = tiny_scenario();
        let catalog = Catalog::standard();
        let single = scenario.equilibrium_report(11, &catalog);
        let swept = scenario.sweep(&[11], &catalog);
        assert_eq!(swept.per_seed.len(), 1);
        assert_eq!(swept.per_seed[0].1, single);
    }

    #[test]
    fn baseline_cell_is_reproducible_via_run() {
        let scenario = tiny_scenario();
        let catalog = Catalog::standard();
        let report = scenario.equilibrium_report(3, &catalog);
        let baseline = scenario.run(3);
        assert_eq!(report.faithful_utilities, baseline.utilities);
    }

    /// The 12-node instance the cache-counter tests sweep, with two
    /// misreports (distinct positive deltas: every cell's declared vector
    /// is unique) plus one declaration-preserving deviation (its cells
    /// all share the honest baseline's cache).
    fn twelve_node_sweep(mechanism: Mechanism) -> (Scenario, Catalog) {
        use specfaith_fpss::deviation::{DropTransitPackets, MisreportCost};
        let scenario = Scenario::builder()
            .topology(crate::scenario::TopologySource::RandomBiconnected {
                n: 12,
                extra_edges: 4,
            })
            .costs(crate::scenario::CostModel::Random { lo: 1, hi: 9 })
            .traffic(TrafficModel::single_by_index(0, 7, 2))
            .mechanism(mechanism)
            .instance_seed(5)
            .build();
        let catalog = Catalog::from_factory(|_| {
            vec![
                Box::new(MisreportCost { delta: 1 }),
                Box::new(MisreportCost { delta: 2 }),
                Box::new(DropTransitPackets),
            ]
        });
        (scenario, catalog)
    }

    #[test]
    fn sweeps_own_their_caches_and_never_evict() {
        // Regression test for registry thrash: a sweep's misreport cells
        // each declare a distinct cost vector, and a registry that drops
        // caches before their last use silently recomputes Dijkstra
        // trees. A sweep-scoped registry must register each distinct
        // vector exactly once (misses == distinct vectors — a thrashing
        // registry shows more) and serve every repeat lookup from cache.
        let (scenario, catalog) = twelve_node_sweep(Mechanism::Plain);
        let n = scenario.num_nodes();
        let scope = crate::scenario::CacheScope::eager();
        let report = scenario.sweep_scoped(&[3], &catalog, &scope);
        assert_eq!(report.total_deviations(), n * 3);
        assert_eq!(
            scope.misses(),
            1 + 2 * n, // honest + (agent × misreport)
            "every distinct declared-cost vector registered exactly once"
        );
        assert_eq!(
            scope.hits(),
            n,
            "declaration-preserving cells must share the cache the baseline pinned"
        );
        assert_eq!(
            scope.seeded(),
            2 * n,
            "every misreport cell's cache was seeded from the pinned baseline"
        );
    }

    #[test]
    fn eager_scope_releases_per_cell_caches_without_changing_results() {
        // Under both mechanisms the parallel sweep must (a) reproduce the
        // serial report, whose cells release their caches one at a time,
        // (b) end with only the pinned honest cache registered, having
        // released every misreport cell's single-use cache as its cell
        // completed, and (c) keep the peak registration strictly below
        // the retain-everything total.
        for mechanism in [Mechanism::Plain, Mechanism::faithful()] {
            let (scenario, catalog) = twelve_node_sweep(mechanism.clone());
            let n = scenario.num_nodes();
            let scope = crate::scenario::CacheScope::eager();
            let released = scenario.sweep_scoped(&[3], &catalog, &scope);
            assert_eq!(
                released,
                scenario.sweep_serial(&[3], &catalog),
                "{mechanism:?}: release timing changes no result"
            );
            let distinct_vectors = 1 + 2 * n;
            assert_eq!(
                scope.misses(),
                distinct_vectors,
                "{mechanism:?}: release never forces a recompute in this sweep"
            );
            assert_eq!(
                scope.len(),
                1,
                "{mechanism:?}: only the pinned honest cache survives the sweep"
            );
            assert_eq!(
                scope.released(),
                2 * n,
                "{mechanism:?}: every misreport cell's cache released at cell completion"
            );
            assert_eq!(
                scope.seeded(),
                2 * n,
                "{mechanism:?}: released-and-reseeded cells still repair from the pinned baseline"
            );
            // Parallel peak is nondeterministic but bounded by concurrency;
            // retaining everything would show distinct_vectors.
            assert!(
                scope.peak_len() < distinct_vectors,
                "{mechanism:?}: peak {} must undercut the retain-everything total {}",
                scope.peak_len(),
                distinct_vectors
            );
        }
    }

    #[test]
    fn sampled_sweep_cells_equal_the_full_grid() {
        let scenario = tiny_scenario();
        let catalog = Catalog::from_factory(|_| {
            standard_catalog(NodeId::new(0))
                .into_iter()
                .take(2)
                .collect()
        });
        let full = scenario.sweep(&[7], &catalog);
        let sampled = scenario.sweep_sampled(&[7], &catalog, &[1, 4]);
        assert_eq!(sampled.per_seed.len(), 1);
        let full_report = &full.per_seed[0].1;
        let sampled_report = &sampled.per_seed[0].1;
        assert_eq!(
            sampled_report.faithful_utilities,
            full_report.faithful_utilities
        );
        assert_eq!(sampled_report.outcomes.len(), 2 * 2);
        for outcome in &sampled_report.outcomes {
            let matching = full_report
                .outcomes
                .iter()
                .find(|o| {
                    o.agent == outcome.agent && o.deviation.name() == outcome.deviation.name()
                })
                .expect("sampled cell exists in the full grid");
            assert_eq!(outcome, matching, "sampled cells are the full grid's cells");
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn sampled_sweep_rejects_duplicate_agents() {
        let scenario = tiny_scenario();
        let _ = scenario.sweep_sampled(&[1], &Catalog::standard(), &[2, 2]);
    }

    #[test]
    fn deviation_cell_is_reproducible_via_run_with_deviant() {
        let scenario = tiny_scenario();
        let catalog = Catalog::standard();
        let report = scenario.equilibrium_report(3, &catalog);
        // Reproduce cell (agent 2 = C, deviation 4 = spoof-short-routes).
        let (agent, deviation) = (2usize, 4usize);
        let strategy = catalog.strategy(NodeId::from_index(agent), deviation);
        let rerun = scenario.run_with_deviant(
            NodeId::from_index(agent),
            strategy,
            cell_seed(3, agent as u64, deviation as u64),
        );
        let outcome = report
            .outcomes
            .iter()
            .find(|o| o.agent == agent && o.deviation.name() == catalog.specs()[deviation].name())
            .expect("cell present");
        assert_eq!(outcome.deviant_utility, rerun.utilities[agent]);
        assert_eq!(outcome.detected, rerun.detected);
    }
}
