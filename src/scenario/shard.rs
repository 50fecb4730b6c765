//! Sharded sweep execution: deterministic grid partitioning, serializable
//! per-shard fragments, and the conflict-detecting merge.
//!
//! The full `(seed × agent × deviation)` grid at production scale is out
//! of reach for one machine (the `n = 1024` full catalog is ~13k cells of
//! minutes each). Per-cell seed derivation ([`cell_seed`]) already makes
//! every cell order-independent and byte-identical, so the grid shards
//! cleanly across processes — and, with fragments serialized to JSON,
//! across machines:
//!
//! 1. **Partition.** [`ShardSpec`] names one shard of an `N`-way split.
//!    Cells are assigned by *stride* — shard `i` of `N` owns the grid
//!    indices `{c | c ≡ i (mod N)}` — so every shard draws cells from the
//!    whole grid instead of one contiguous band (deviation cost varies by
//!    catalog position; striding balances the skew). The partition is a
//!    disjoint exact cover of the grid for every `N`, including `N`
//!    larger than the cell count (excess shards are simply empty).
//! 2. **Execute.** [`Scenario::sweep_shard`] evaluates exactly the owned
//!    cells (plus every seed's honest baseline — see below) and returns a
//!    [`SweepFragment`]: the evaluated cells with their global grid
//!    indices, the baselines, a manifest identifying the grid, and a
//!    per-shard timing summary for skew diagnostics.
//! 3. **Merge.** [`SweepFragment::merge`] recombines fragments into the
//!    [`SweepReport`] the single-process sweep produces — byte-identical,
//!    which the workspace pins by integration test and by the CI
//!    `sweep-shards` → `sweep-merge` job pair — rejecting fragments that
//!    disagree ([`MergeError`]).
//!
//! # Why every shard re-runs the honest baselines
//!
//! A shard's deviation cells need the honest [`RouteCache`] anyway (the
//! reference tables every non-misreporting cell shares), and the honest
//! run per seed is a vanishing fraction of a shard's cell work. Carrying
//! the full baseline set in every fragment buys two things: any *subset*
//! of fragments is self-describing, and the merge gets a free cross-shard
//! determinism check — all fragments must report bit-identical baseline
//! utility vectors or the merge refuses ([`MergeError::BaselineConflict`]).
//!
//! # Fragment JSON
//!
//! Fragments serialize to a flat JSON document (`format:
//! "specfaith-sweep-fragment-v1"`) via [`SweepFragment::to_json`] /
//! [`SweepFragment::from_json`] — hand-rolled, since the offline
//! dependency set has no serde. The manifest fields (`instance`,
//! `instance_fingerprint`, `seeds`, `agents`, `deviations`, and
//! `shard.count`) must agree across every fragment of a merge; the
//! `timing` block is informational and never compared. See the
//! `specfaith-bench` crate docs for the field-by-field format notes.
//!
//! [`cell_seed`]: super::sweep::cell_seed
//! [`RouteCache`]: specfaith_graph::cache::RouteCache
//! [`Scenario::sweep_shard`]: super::Scenario::sweep_shard

use super::report::SweepReport;
use super::sweep::{deviation_grid, evaluate, evaluate_baseline, Catalog, CellResult};
use super::Scenario;
use rayon::prelude::*;
use specfaith_core::actions::{DeviationSurface, ExternalActionKind};
use specfaith_core::equilibrium::{DeviationOutcome, DeviationSpec, EquilibriumReport};
use specfaith_core::money::Money;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The on-disk format tag of a serialized [`SweepFragment`].
pub const FRAGMENT_FORMAT: &str = "specfaith-sweep-fragment-v1";

/// One shard of an `N`-way sweep partition: `index` in `0..count`.
///
/// Parsed from the CLI as `"i/N"` ([`ShardSpec::parse`]); owns the grid
/// cells whose global index is `≡ index (mod count)`
/// ([`ShardSpec::cell_indices`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

impl ShardSpec {
    /// Shard `index` of `count`.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn new(index: usize, count: usize) -> Self {
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        ShardSpec { index, count }
    }

    /// Parses `"i/N"` (e.g. `"2/4"`).
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("shard spec {text:?} is not of the form i/N"))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|e| format!("shard index in {text:?}: {e}"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|e| format!("shard count in {text:?}: {e}"))?;
        if count == 0 {
            return Err(format!("shard spec {text:?} has zero shards"));
        }
        if index >= count {
            return Err(format!("shard spec {text:?}: index must be in 0..{count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// This shard's position in `0..count()`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total shards in the partition.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The global grid indices this shard owns out of `total` cells, in
    /// increasing order: `index, index + count, index + 2·count, …`.
    ///
    /// Across `index in 0..count` the returned sets are a disjoint exact
    /// cover of `0..total`, for every `count ≥ 1` — including
    /// `count > total`, where shards with `index ≥ total` own nothing.
    pub fn cell_indices(&self, total: usize) -> Vec<usize> {
        (self.index..total).step_by(self.count).collect()
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One evaluated deviation cell inside a [`SweepFragment`].
///
/// `index` is the cell's global grid index (row-major over
/// `seeds × agents × deviations`); the coordinate fields are redundant
/// with it and re-derived at merge time — a mismatch means a corrupted or
/// hand-edited fragment and fails the merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentCell {
    /// Global grid index of this cell.
    pub index: usize,
    /// The cell's base seed (the swept seed, not the derived cell seed).
    pub seed: u64,
    /// The deviating agent (topology index).
    pub agent: usize,
    /// Index into the manifest's deviation list.
    pub deviation: usize,
    /// The deviant's realized utility in this cell.
    pub deviant_utility: Money,
    /// Whether enforcement flagged the cell.
    pub detected: bool,
}

/// Wall-clock summary of one shard's execution, carried in the fragment
/// for merge-time skew reporting. Informational only: never part of
/// manifest equality or the merged report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardTiming {
    /// Seconds spent on the per-seed honest baselines.
    pub baseline_secs: f64,
    /// Seconds spent evaluating this shard's deviation cells.
    pub cells_secs: f64,
}

/// The serializable result of one shard of a sweep: manifest, baselines,
/// evaluated cells, and timing. Produced by [`Scenario::sweep_shard`] /
/// [`Scenario::sweep_shard_sampled`]; recombined by
/// [`SweepFragment::merge`].
///
/// [`Scenario::sweep_shard`]: super::Scenario::sweep_shard
/// [`Scenario::sweep_shard_sampled`]: super::Scenario::sweep_shard_sampled
#[derive(Clone, Debug)]
pub struct SweepFragment {
    /// Which shard of how many this fragment is.
    pub shard: ShardSpec,
    /// Caller-chosen grid label (e.g. `"sweep-n64-quick-ideal"`). Must
    /// agree across merged fragments.
    pub instance: String,
    /// Opaque hash of the scenario's topology, true costs, traffic, and
    /// mechanism — a second line of defense against merging fragments
    /// from different instances that happen to share a label.
    pub instance_fingerprint: String,
    /// The swept seeds, in sweep order.
    pub seeds: Vec<u64>,
    /// The swept agents (topology indices), in sweep order.
    pub agents: Vec<usize>,
    /// The catalog's deviation specs, in catalog order.
    pub deviations: Vec<DeviationSpec>,
    /// Per swept seed, the honest baseline's utility vector. Every
    /// fragment carries all seeds' baselines (see the module docs).
    pub baselines: Vec<(u64, Vec<Money>)>,
    /// The cells this shard owns, in increasing grid-index order.
    pub cells: Vec<FragmentCell>,
    /// Execution timing for skew diagnostics.
    pub timing: ShardTiming,
}

/// Why a set of fragments refused to merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No fragments were given.
    NoFragments,
    /// A fragment's manifest (instance, fingerprint, seeds, agents,
    /// deviations, or shard count) disagrees with the first fragment's.
    ManifestMismatch {
        /// Which field disagreed, and how.
        detail: String,
    },
    /// The shard set is not exactly `{0, …, count−1}` — a shard is
    /// missing or appears twice.
    ShardSetIncomplete {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// Two fragments reported different honest-baseline utilities for the
    /// same seed — a cross-shard determinism violation.
    BaselineConflict {
        /// The seed whose baselines disagreed.
        seed: u64,
    },
    /// The same grid cell appeared in more than one fragment.
    DuplicateCell {
        /// The duplicated global grid index.
        index: usize,
    },
    /// Cells are missing after all fragments were consumed.
    MissingCells {
        /// How many grid cells no fragment carried.
        missing: usize,
        /// The lowest missing grid index.
        first: usize,
    },
    /// A cell's stored coordinates don't match its grid index, or point
    /// outside the manifest's grid.
    MalformedCell {
        /// Human-readable description of the defect.
        detail: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoFragments => write!(f, "no fragments to merge"),
            MergeError::ManifestMismatch { detail } => {
                write!(f, "fragment manifests disagree: {detail}")
            }
            MergeError::ShardSetIncomplete { detail } => {
                write!(f, "incomplete shard set: {detail}")
            }
            MergeError::BaselineConflict { seed } => write!(
                f,
                "fragments disagree on the honest baseline of seed {seed} \
                 (cross-shard determinism violation)"
            ),
            MergeError::DuplicateCell { index } => {
                write!(f, "grid cell {index} appears in more than one fragment")
            }
            MergeError::MissingCells { missing, first } => write!(
                f,
                "{missing} grid cell(s) missing from the merged fragments \
                 (first missing index: {first})"
            ),
            MergeError::MalformedCell { detail } => write!(f, "malformed cell: {detail}"),
        }
    }
}

impl std::error::Error for MergeError {}

impl SweepFragment {
    /// Total cells of the full grid this fragment was partitioned from.
    pub fn grid_cells(&self) -> usize {
        self.seeds.len() * self.agents.len() * self.deviations.len()
    }

    /// Cells per second of this shard's deviation-cell phase (`None` for
    /// an empty shard or unmeasurably fast one).
    pub fn cells_per_sec(&self) -> Option<f64> {
        if self.cells.is_empty() || self.timing.cells_secs <= 0.0 {
            return None;
        }
        Some(self.cells.len() as f64 / self.timing.cells_secs)
    }

    /// Recombines shard fragments into the [`SweepReport`] the
    /// single-process sweep produces, byte-identical.
    ///
    /// Fragment order does not matter. The merge fails
    /// ([`MergeError`]) unless the fragments have identical manifests,
    /// form the complete shard set `{0, …, count−1}`, agree on every
    /// baseline, and cover every grid cell exactly once.
    pub fn merge(fragments: &[SweepFragment]) -> Result<SweepReport, MergeError> {
        let first = fragments.first().ok_or(MergeError::NoFragments)?;

        // Manifest agreement.
        for fragment in &fragments[1..] {
            let mismatch = |field: &str, a: &dyn fmt::Debug, b: &dyn fmt::Debug| {
                Err(MergeError::ManifestMismatch {
                    detail: format!(
                        "{field} of shard {} ({b:?}) vs shard {} ({a:?})",
                        fragment.shard, first.shard
                    ),
                })
            };
            if fragment.instance != first.instance {
                return mismatch("instance", &first.instance, &fragment.instance);
            }
            if fragment.instance_fingerprint != first.instance_fingerprint {
                return mismatch(
                    "instance_fingerprint",
                    &first.instance_fingerprint,
                    &fragment.instance_fingerprint,
                );
            }
            if fragment.seeds != first.seeds {
                return mismatch("seeds", &first.seeds, &fragment.seeds);
            }
            if fragment.agents != first.agents {
                return mismatch("agents", &first.agents, &fragment.agents);
            }
            if fragment.deviations != first.deviations {
                return mismatch("deviations", &first.deviations, &fragment.deviations);
            }
            if fragment.shard.count() != first.shard.count() {
                return mismatch("shard count", &first.shard, &fragment.shard);
            }
        }

        // Complete shard set: every index 0..count exactly once.
        let count = first.shard.count();
        let mut present = vec![false; count];
        for fragment in fragments {
            let index = fragment.shard.index();
            if index >= count {
                return Err(MergeError::ShardSetIncomplete {
                    detail: format!("shard index {index} out of range for {count} shards"),
                });
            }
            if present[index] {
                return Err(MergeError::ShardSetIncomplete {
                    detail: format!("shard {index}/{count} appears twice"),
                });
            }
            present[index] = true;
        }
        if let Some(absent) = present.iter().position(|p| !p) {
            return Err(MergeError::ShardSetIncomplete {
                detail: format!("shard {absent}/{count} is missing"),
            });
        }

        // Baseline agreement (every fragment carries every seed's
        // baseline; bit-identity across shards is the determinism check).
        for fragment in fragments {
            if fragment.baselines.len() != first.seeds.len()
                || fragment
                    .baselines
                    .iter()
                    .map(|(seed, _)| *seed)
                    .ne(first.seeds.iter().copied())
            {
                return Err(MergeError::ManifestMismatch {
                    detail: format!(
                        "shard {} baselines cover seeds {:?}, expected {:?}",
                        fragment.shard,
                        fragment
                            .baselines
                            .iter()
                            .map(|(seed, _)| *seed)
                            .collect::<Vec<_>>(),
                        first.seeds
                    ),
                });
            }
            for ((seed, utilities), (_, reference)) in
                fragment.baselines.iter().zip(&first.baselines)
            {
                if utilities != reference {
                    return Err(MergeError::BaselineConflict { seed: *seed });
                }
            }
        }

        // Exact cover: place every cell at its grid index, rejecting
        // duplicates and coordinate/index disagreements.
        let deviations = first.deviations.len();
        let agents = first.agents.len();
        let total = first.grid_cells();
        let mut grid: Vec<Option<&FragmentCell>> = vec![None; total];
        for fragment in fragments {
            for cell in &fragment.cells {
                if cell.index >= total {
                    return Err(MergeError::MalformedCell {
                        detail: format!("cell index {} outside the {total}-cell grid", cell.index),
                    });
                }
                let seed_index = cell.index / (agents * deviations);
                let agent_pos = (cell.index / deviations) % agents;
                let deviation = cell.index % deviations;
                let expected = (first.seeds[seed_index], first.agents[agent_pos], deviation);
                if (cell.seed, cell.agent, cell.deviation) != expected {
                    return Err(MergeError::MalformedCell {
                        detail: format!(
                            "cell {} claims (seed {}, agent {}, deviation {}), \
                             grid index implies (seed {}, agent {}, deviation {})",
                            cell.index,
                            cell.seed,
                            cell.agent,
                            cell.deviation,
                            expected.0,
                            expected.1,
                            expected.2
                        ),
                    });
                }
                if grid[cell.index].is_some() {
                    return Err(MergeError::DuplicateCell { index: cell.index });
                }
                grid[cell.index] = Some(cell);
            }
        }
        let missing = grid.iter().filter(|slot| slot.is_none()).count();
        if missing > 0 {
            let fallback = total; // unreachable: missing > 0 implies a None
            return Err(MergeError::MissingCells {
                missing,
                first: grid
                    .iter()
                    .position(|slot| slot.is_none())
                    .unwrap_or(fallback),
            });
        }

        // Assembly, in grid (row-major) order — exactly what the
        // single-process sweep's `assemble` produces.
        let mut reports: Vec<EquilibriumReport> = first
            .baselines
            .iter()
            .map(|(_, utilities)| EquilibriumReport {
                faithful_utilities: utilities.clone(),
                outcomes: Vec::with_capacity(agents * deviations),
            })
            .collect();
        for cell in grid.into_iter().flatten() {
            let seed_index = cell.index / (agents * deviations);
            reports[seed_index].outcomes.push(DeviationOutcome {
                agent: cell.agent,
                deviation: first.deviations[cell.deviation].clone(),
                faithful_utility: first.baselines[seed_index].1[cell.agent],
                deviant_utility: cell.deviant_utility,
                detected: cell.detected,
            });
        }
        Ok(SweepReport {
            per_seed: first.seeds.iter().copied().zip(reports).collect(),
        })
    }

    /// A one-line-per-shard skew table over a merged fragment set: cells,
    /// seconds, and throughput per shard, plus the max/min throughput
    /// ratio — the number a future multi-machine scheduler would balance.
    pub fn skew_summary(fragments: &[SweepFragment]) -> String {
        let mut lines = String::new();
        let mut rates: Vec<f64> = Vec::new();
        let mut ordered: Vec<&SweepFragment> = fragments.iter().collect();
        ordered.sort_by_key(|fragment| fragment.shard.index());
        for fragment in ordered {
            let rate = fragment.cells_per_sec();
            if let Some(rate) = rate {
                rates.push(rate);
            }
            lines.push_str(&format!(
                "  shard {}: {} cells in {:.3}s ({}; baseline {:.3}s)\n",
                fragment.shard,
                fragment.cells.len(),
                fragment.timing.cells_secs,
                match rate {
                    Some(rate) => format!("{rate:.2} cells/s"),
                    None => "idle".to_string(),
                },
                fragment.timing.baseline_secs,
            ));
        }
        let skew = match (
            rates.iter().cloned().reduce(f64::max),
            rates.iter().cloned().reduce(f64::min),
        ) {
            (Some(max), Some(min)) if min > 0.0 => format!("{:.2}", max / min),
            _ => "n/a".to_string(),
        };
        lines.push_str(&format!("  throughput skew (max/min): {skew}\n"));
        lines
    }

    /// Serializes the fragment to its JSON document (see the module
    /// docs for the format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 64 * self.cells.len());
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"format\": {},\n",
            json_string(FRAGMENT_FORMAT)
        ));
        out.push_str(&format!(
            "  \"shard\": {{\"index\": {}, \"count\": {}}},\n",
            self.shard.index(),
            self.shard.count()
        ));
        out.push_str(&format!(
            "  \"instance\": {},\n",
            json_string(&self.instance)
        ));
        out.push_str(&format!(
            "  \"instance_fingerprint\": {},\n",
            json_string(&self.instance_fingerprint)
        ));
        out.push_str(&format!(
            "  \"seeds\": [{}],\n",
            join(self.seeds.iter().map(u64::to_string))
        ));
        out.push_str(&format!(
            "  \"agents\": [{}],\n",
            join(self.agents.iter().map(usize::to_string))
        ));
        out.push_str(&format!(
            "  \"deviations\": [\n    {}\n  ],\n",
            join_sep(self.deviations.iter().map(spec_to_json), ",\n    ")
        ));
        out.push_str(&format!(
            "  \"baselines\": [\n    {}\n  ],\n",
            join_sep(
                self.baselines.iter().map(|(seed, utilities)| format!(
                    "{{\"seed\": {seed}, \"utilities\": [{}]}}",
                    join(utilities.iter().map(|m| m.value().to_string()))
                )),
                ",\n    "
            )
        ));
        out.push_str(&format!(
            "  \"cells\": [\n    {}\n  ],\n",
            join_sep(
                self.cells.iter().map(|cell| format!(
                    "{{\"index\": {}, \"seed\": {}, \"agent\": {}, \"deviation\": {}, \
                     \"deviant_utility\": {}, \"detected\": {}}}",
                    cell.index,
                    cell.seed,
                    cell.agent,
                    cell.deviation,
                    cell.deviant_utility.value(),
                    cell.detected
                )),
                ",\n    "
            )
        ));
        out.push_str(&format!(
            "  \"timing\": {{\"baseline_secs\": {:.3}, \"cells_secs\": {:.3}, \"cells\": {}}}\n",
            self.timing.baseline_secs,
            self.timing.cells_secs,
            self.cells.len()
        ));
        out.push_str("}\n");
        out
    }

    /// Parses a fragment from its JSON document. Tolerates unknown keys;
    /// rejects wrong `format` tags and structural defects with a message.
    pub fn from_json(json: &str) -> Result<SweepFragment, String> {
        let value = Json::parse(json)?;
        let top = value.as_object("fragment")?;
        let format = get(top, "format")?.as_str("format")?;
        if format != FRAGMENT_FORMAT {
            return Err(format!(
                "fragment format {format:?} is not {FRAGMENT_FORMAT:?}"
            ));
        }
        let shard_obj = get(top, "shard")?.as_object("shard")?;
        let index = get(shard_obj, "index")?.as_usize("shard.index")?;
        let count = get(shard_obj, "count")?.as_usize("shard.count")?;
        if index >= count {
            return Err(format!("shard index {index} out of range for {count}"));
        }
        let seeds = get(top, "seeds")?
            .as_array("seeds")?
            .iter()
            .map(|v| v.as_u64("seed"))
            .collect::<Result<Vec<_>, _>>()?;
        let agents = get(top, "agents")?
            .as_array("agents")?
            .iter()
            .map(|v| v.as_usize("agent"))
            .collect::<Result<Vec<_>, _>>()?;
        let deviations = get(top, "deviations")?
            .as_array("deviations")?
            .iter()
            .map(spec_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let baselines = get(top, "baselines")?
            .as_array("baselines")?
            .iter()
            .map(|v| {
                let obj = v.as_object("baseline")?;
                let seed = get(obj, "seed")?.as_u64("baseline.seed")?;
                let utilities = get(obj, "utilities")?
                    .as_array("baseline.utilities")?
                    .iter()
                    .map(|v| Ok(Money::new(v.as_i64("utility")?)))
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((seed, utilities))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cells = get(top, "cells")?
            .as_array("cells")?
            .iter()
            .map(|v| {
                let obj = v.as_object("cell")?;
                Ok(FragmentCell {
                    index: get(obj, "index")?.as_usize("cell.index")?,
                    seed: get(obj, "seed")?.as_u64("cell.seed")?,
                    agent: get(obj, "agent")?.as_usize("cell.agent")?,
                    deviation: get(obj, "deviation")?.as_usize("cell.deviation")?,
                    deviant_utility: Money::new(
                        get(obj, "deviant_utility")?.as_i64("cell.deviant_utility")?,
                    ),
                    detected: get(obj, "detected")?.as_bool("cell.detected")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let timing_obj = get(top, "timing")?.as_object("timing")?;
        let timing = ShardTiming {
            baseline_secs: get(timing_obj, "baseline_secs")?.as_f64("timing.baseline_secs")?,
            cells_secs: get(timing_obj, "cells_secs")?.as_f64("timing.cells_secs")?,
        };
        Ok(SweepFragment {
            shard: ShardSpec::new(index, count),
            instance: get(top, "instance")?.as_str("instance")?.to_string(),
            instance_fingerprint: get(top, "instance_fingerprint")?
                .as_str("instance_fingerprint")?
                .to_string(),
            seeds,
            agents,
            deviations,
            baselines,
            cells,
            timing,
        })
    }
}

/// Executes one shard: every seed's honest baseline plus exactly the
/// deviation cells `shard` owns, in parallel. Called via
/// [`Scenario::sweep_shard`] / [`Scenario::sweep_shard_sampled`], which
/// thread in a fresh sweep-scoped cache registry first.
///
/// [`Scenario::sweep_shard`]: super::Scenario::sweep_shard
/// [`Scenario::sweep_shard_sampled`]: super::Scenario::sweep_shard_sampled
pub(super) fn run_shard(
    scenario: &Scenario,
    seeds: &[u64],
    catalog: &Catalog,
    agents: &[usize],
    shard: ShardSpec,
    instance: &str,
) -> SweepFragment {
    let specs = catalog.specs();
    let started = Instant::now();
    let baselines: Vec<Arc<CellResult>> = seeds
        .par_iter()
        .map(|&base_seed| Arc::new(evaluate_baseline(scenario, base_seed)))
        .collect();
    let baseline_secs = started.elapsed().as_secs_f64();

    let grid = deviation_grid(seeds, agents, specs.len());
    let owned: Vec<usize> = shard.cell_indices(grid.len());
    let started = Instant::now();
    let results: Vec<CellResult> = owned
        .par_iter()
        .map(|&index| evaluate(scenario, catalog, &grid[index]))
        .collect();
    let cells_secs = started.elapsed().as_secs_f64();

    let cells = owned
        .iter()
        .zip(results)
        .map(|(&index, result)| {
            let cell = &grid[index];
            FragmentCell {
                index,
                seed: cell.base_seed,
                agent: cell.agent,
                deviation: cell.deviation,
                deviant_utility: result.utilities[cell.agent],
                detected: result.detected,
            }
        })
        .collect();
    SweepFragment {
        shard,
        instance: instance.to_string(),
        instance_fingerprint: instance_fingerprint(scenario),
        seeds: seeds.to_vec(),
        agents: agents.to_vec(),
        deviations: specs,
        baselines: seeds
            .iter()
            .zip(&baselines)
            .map(|(&seed, baseline)| (seed, baseline.utilities.clone()))
            .collect(),
        cells,
        timing: ShardTiming {
            baseline_secs,
            cells_secs,
        },
    }
}

/// An opaque identity hash of the scenario's instance (topology, true
/// costs, traffic, mechanism) — merge-conflict detection only, not a
/// stable cross-version format.
pub(crate) fn instance_fingerprint(scenario: &Scenario) -> String {
    let description = format!(
        "{:?}|{:?}|{:?}|{:?}",
        scenario.topology(),
        scenario.costs(),
        scenario.traffic(),
        scenario.mechanism()
    );
    format!("fnv1a64:{:016x}", fnv1a64(description.as_bytes()))
}

/// FNV-1a, 64-bit — the workspace's canonical cheap content hash for
/// fingerprints (fragments, merged reports). Not cryptographic.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// DeviationSpec (de)serialization — shared with the canonical report form.

fn kind_name(kind: ExternalActionKind) -> &'static str {
    match kind {
        ExternalActionKind::InformationRevelation => "information-revelation",
        ExternalActionKind::MessagePassing => "message-passing",
        ExternalActionKind::Computation => "computation",
    }
}

fn kind_from_name(name: &str) -> Result<ExternalActionKind, String> {
    ExternalActionKind::ALL
        .into_iter()
        .find(|kind| kind_name(*kind) == name)
        .ok_or_else(|| format!("unknown action kind {name:?}"))
}

pub(crate) fn spec_to_json(spec: &DeviationSpec) -> String {
    let surface = join(
        spec.surface()
            .kinds()
            .map(|kind| json_string(kind_name(kind))),
    );
    let phase = match spec.phase() {
        Some(phase) => json_string(phase),
        None => "null".to_string(),
    };
    format!(
        "{{\"name\": {}, \"surface\": [{surface}], \"phase\": {phase}}}",
        json_string(spec.name())
    )
}

pub(crate) fn spec_from_json(value: &Json) -> Result<DeviationSpec, String> {
    let obj = value.as_object("deviation spec")?;
    let name = get(obj, "name")?.as_str("spec.name")?;
    let mut surface = DeviationSurface::new();
    for kind in get(obj, "surface")?.as_array("spec.surface")? {
        surface = surface.with(kind_from_name(kind.as_str("surface kind")?)?);
    }
    let mut spec = DeviationSpec::new(name, surface);
    match get(obj, "phase")? {
        Json::Null => {}
        phase => spec = spec.in_phase(phase.as_str("spec.phase")?),
    }
    Ok(spec)
}

fn join(items: impl Iterator<Item = String>) -> String {
    join_sep(items, ", ")
}

fn join_sep(items: impl Iterator<Item = String>, separator: &str) -> String {
    items.collect::<Vec<_>>().join(separator)
}

/// JSON string literal with the escapes this workspace's names can need.
pub(crate) fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------

/// A parsed JSON value: the one reader behind sweep fragments,
/// coordinator frames and the bench tools' baseline files.
///
/// The offline dependency set has no serde; this covers exactly the
/// documents this workspace writes (and tolerates hand-edited
/// whitespace and unknown keys). Integers parse exactly (i128
/// accumulator), so u64 seeds and i64 utilities round-trip losslessly.
/// Every accessor fails closed with an error naming what it expected.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, of trailing
    /// content, or of nesting deeper than the reader accepts.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing content at byte {}", parser.at));
        }
        Ok(value)
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The value under `key` of this object.
    ///
    /// # Errors
    ///
    /// Fails when this is not an object or has no `key`, naming the key.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        get(self.as_object("document")?, key)
    }

    pub(crate) fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(entries) => Ok(entries),
            other => Err(format!(
                "{what}: expected object, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("{what}: expected array, got {}", other.type_name())),
        }
    }

    /// This string; `what` names the value in the error.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(text) => Ok(text),
            other => Err(format!(
                "{what}: expected string, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(value) => Ok(*value),
            other => Err(format!("{what}: expected bool, got {}", other.type_name())),
        }
    }

    fn as_i128(&self, what: &str) -> Result<i128, String> {
        match self {
            Json::Int(value) => Ok(*value),
            other => Err(format!(
                "{what}: expected integer, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
        u64::try_from(self.as_i128(what)?).map_err(|_| format!("{what}: out of u64 range"))
    }

    pub(crate) fn as_i64(&self, what: &str) -> Result<i64, String> {
        i64::try_from(self.as_i128(what)?).map_err(|_| format!("{what}: out of i64 range"))
    }

    pub(crate) fn as_usize(&self, what: &str) -> Result<usize, String> {
        usize::try_from(self.as_i128(what)?).map_err(|_| format!("{what}: out of usize range"))
    }

    /// This number (integer or not) as an `f64`; `what` names the value
    /// in the error.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Int(value) => Ok(*value as f64),
            Json::Float(value) => Ok(*value),
            other => Err(format!(
                "{what}: expected number, got {}",
                other.type_name()
            )),
        }
    }
}

pub(crate) fn get<'a>(entries: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    entries
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, value)| value)
        .ok_or_else(|| format!("missing key {key:?}"))
}

/// Nesting ceiling for [`Parser`]. The documents this workspace writes
/// nest four levels deep; anything past this is adversarial input, and
/// unbounded recursion would turn it into a stack overflow (an abort, not
/// a catchable error).
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&byte) = self.bytes.get(self.at) {
            if matches!(byte, b' ' | b'\t' | b'\n' | b'\r') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8, String> {
        self.bytes
            .get(self.at)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char, self.at, self.bytes[self.at] as char
            ))
        }
    }

    fn literal(&mut self, text: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
                self.at
            ));
        }
        self.depth += 1;
        let value = match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true").map(|()| Json::Bool(true)),
            b'f' => self.literal("false").map(|()| Json::Bool(false)),
            b'n' => self.literal("null").map(|()| Json::Null),
            _ => self.number(),
        };
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek()? == b'}' {
            self.at += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek()? {
                b',' => self.at += 1,
                b'}' => {
                    self.at += 1;
                    return Ok(Json::Obj(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.at, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek()? == b']' {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.at, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let byte = self.peek()?;
            self.at += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let escape = self.peek()?;
                    self.at += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.at + 4;
                            let hex = self
                                .bytes
                                .get(self.at..end)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?,
                            );
                            self.at = end;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting here.
                    let start = self.at - 1;
                    let mut end = self.at;
                    while end < self.bytes.len() && self.bytes[end] & 0b1100_0000 == 0b1000_0000 {
                        end += 1;
                    }
                    let text = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?;
                    out.push_str(text);
                    self.at = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek()? == b'-' {
            self.at += 1;
        }
        let mut is_float = false;
        while let Some(&byte) = self.bytes.get(self.at) {
            match byte {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| "non-ascii number".to_string())?;
        if text.is_empty() || text == "-" {
            return Err(format!("invalid number at byte {start}"));
        }
        if is_float {
            text.parse()
                .map(Json::Float)
                .map_err(|e| format!("invalid number {text:?}: {e}"))
        } else {
            text.parse()
                .map(Json::Int)
                .map_err(|e| format!("invalid number {text:?}: {e}"))
        }
    }
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

    fn small_catalog() -> Catalog {
        use specfaith_core::id::NodeId;
        use specfaith_fpss::deviation::standard_catalog;
        let _ = NodeId::new(0);
        Catalog::from_factory(|deviant| standard_catalog(deviant).into_iter().take(2).collect())
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        let shard = ShardSpec::parse("2/4").expect("valid");
        assert_eq!((shard.index(), shard.count()), (2, 4));
        assert_eq!(shard.to_string(), "2/4");
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("banana").is_err());
        assert!(ShardSpec::parse("1").is_err());
    }

    #[test]
    fn stride_partition_is_disjoint_exact_cover() {
        for total in [0usize, 1, 7, 52] {
            for count in [1usize, 2, 3, 5, 60] {
                let mut seen = vec![0u32; total];
                for index in 0..count {
                    for cell in ShardSpec::new(index, count).cell_indices(total) {
                        seen[cell] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&hits| hits == 1),
                    "total {total}, count {count}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn fragments_merge_back_to_the_monolithic_report() {
        let scenario = tiny_scenario();
        let catalog = small_catalog();
        let seeds = [11u64, 12];
        let monolithic = scenario.sweep(&seeds, &catalog);
        let fragments: Vec<SweepFragment> = (0..3)
            .map(|index| scenario.sweep_shard(&seeds, &catalog, ShardSpec::new(index, 3), "tiny"))
            .collect();
        let merged = SweepFragment::merge(&fragments).expect("clean merge");
        assert_eq!(merged, monolithic);
        // Order-independence: reversed fragments merge identically.
        let mut reversed = fragments.clone();
        reversed.reverse();
        assert_eq!(SweepFragment::merge(&reversed).expect("merge"), monolithic);
    }

    #[test]
    fn more_shards_than_cells_still_merge_exactly() {
        let scenario = tiny_scenario();
        let catalog = small_catalog();
        let seeds = [5u64];
        let total = scenario.num_nodes() * catalog.len();
        let count = total + 3; // some shards own nothing
        let fragments: Vec<SweepFragment> = (0..count)
            .map(|index| {
                scenario.sweep_shard(&seeds, &catalog, ShardSpec::new(index, count), "tiny")
            })
            .collect();
        assert!(fragments.iter().any(|fragment| fragment.cells.is_empty()));
        let merged = SweepFragment::merge(&fragments).expect("clean merge");
        assert_eq!(merged, scenario.sweep(&seeds, &catalog));
    }

    #[test]
    fn fragment_json_round_trips() {
        let scenario = tiny_scenario();
        let catalog = small_catalog();
        let fragment = scenario.sweep_shard(&[3], &catalog, ShardSpec::new(1, 2), "tiny");
        let parsed = SweepFragment::from_json(&fragment.to_json()).expect("parse");
        assert_eq!(parsed.shard, fragment.shard);
        assert_eq!(parsed.instance, fragment.instance);
        assert_eq!(parsed.instance_fingerprint, fragment.instance_fingerprint);
        assert_eq!(parsed.seeds, fragment.seeds);
        assert_eq!(parsed.agents, fragment.agents);
        assert_eq!(parsed.deviations, fragment.deviations);
        assert_eq!(parsed.baselines, fragment.baselines);
        assert_eq!(parsed.cells, fragment.cells);
    }

    #[test]
    fn merge_detects_missing_duplicate_and_foreign_fragments() {
        let scenario = tiny_scenario();
        let catalog = small_catalog();
        let fragments: Vec<SweepFragment> = (0..2)
            .map(|index| scenario.sweep_shard(&[9], &catalog, ShardSpec::new(index, 2), "tiny"))
            .collect();
        // Missing shard.
        assert!(matches!(
            SweepFragment::merge(&fragments[..1]),
            Err(MergeError::ShardSetIncomplete { .. })
        ));
        // Duplicated shard.
        let doubled = vec![fragments[0].clone(), fragments[0].clone()];
        assert!(matches!(
            SweepFragment::merge(&doubled),
            Err(MergeError::ShardSetIncomplete { .. })
        ));
        // Empty input.
        assert_eq!(SweepFragment::merge(&[]), Err(MergeError::NoFragments));
        // Foreign fragment: different label.
        let mut foreign = fragments.clone();
        foreign[1].instance = "other".to_string();
        assert!(matches!(
            SweepFragment::merge(&foreign),
            Err(MergeError::ManifestMismatch { .. })
        ));
        // Baseline conflict.
        let mut conflicted = fragments.clone();
        conflicted[1].baselines[0].1[0] += Money::new(1);
        assert_eq!(
            SweepFragment::merge(&conflicted),
            Err(MergeError::BaselineConflict { seed: 9 })
        );
        // Duplicated cell inside an otherwise complete set.
        let mut duplicated = fragments.clone();
        let stolen = duplicated[1].cells[0].clone();
        duplicated[0].cells.push(stolen);
        assert!(matches!(
            SweepFragment::merge(&duplicated),
            Err(MergeError::DuplicateCell { .. })
        ));
        // Dropped cell.
        let mut dropped = fragments.clone();
        let removed = dropped[1].cells.pop().expect("non-empty");
        assert_eq!(
            SweepFragment::merge(&dropped),
            Err(MergeError::MissingCells {
                missing: 1,
                first: removed.index
            })
        );
        // Corrupted coordinates.
        let mut corrupt = fragments.clone();
        corrupt[0].cells[0].agent += 1;
        assert!(matches!(
            SweepFragment::merge(&corrupt),
            Err(MergeError::MalformedCell { .. })
        ));
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        let value =
            Json::parse(r#"{"a": "q\"\\\nA", "b": [1, -2, 3.5], "c": null}"#).expect("parse");
        let obj = value.as_object("top").expect("object");
        assert_eq!(get(obj, "a").unwrap().as_str("a").unwrap(), "q\"\\\nA");
        let b = get(obj, "b").unwrap().as_array("b").unwrap();
        assert_eq!(b[0].as_i64("b0").unwrap(), 1);
        assert_eq!(b[1].as_i64("b1").unwrap(), -2);
        assert!((b[2].as_f64("b2").unwrap() - 3.5).abs() < 1e-12);
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        // u64 seeds beyond f64's integer range survive exactly.
        let big = Json::parse("18446744073709551615").expect("parse");
        assert_eq!(big.as_u64("big").unwrap(), u64::MAX);
    }

    #[test]
    fn skew_summary_names_every_shard() {
        let scenario = tiny_scenario();
        let catalog = small_catalog();
        let fragments: Vec<SweepFragment> = (0..2)
            .map(|index| scenario.sweep_shard(&[4], &catalog, ShardSpec::new(index, 2), "tiny"))
            .collect();
        let summary = SweepFragment::skew_summary(&fragments);
        assert!(summary.contains("shard 0/2"));
        assert!(summary.contains("shard 1/2"));
        assert!(summary.contains("skew"));
    }
}
