//! The distributed-sweep guarantee: sharded execution merged back
//! together is **byte-identical** to the single-process sweep.
//!
//! Two layers pin this. The property test shows the strided shard
//! partition is a disjoint exact cover of the cell grid for *arbitrary*
//! shard counts (including more shards than cells). The integration
//! tests then run real scenarios — the paper's Figure 1 and the bench's
//! standard `n = 64` size — through `sweep_shard` / `SweepFragment::merge`
//! and `assert_eq!` the merged report (and its canonical JSON and
//! fingerprint) against the monolithic sweep, including a round trip of
//! every fragment through its JSON wire format. The CI `sweep-shards` /
//! `sweep-merge` job pair re-checks the same identity across machines via
//! the committed fingerprint baseline.

use proptest::prelude::*;
use specfaith::fpss::deviation::standard_catalog;
use specfaith::netsim::Latency;
use specfaith::prelude::*;
use specfaith::scenario::Catalog;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every grid index lands in exactly one shard, for any (total,
    /// count) — count routinely exceeds total here, so empty shards are
    /// exercised too.
    #[test]
    fn shard_partition_is_a_disjoint_exact_cover(
        total in 0usize..300,
        count in 1usize..40,
    ) {
        let mut owners = vec![0u32; total];
        for index in 0..count {
            for cell in ShardSpec::new(index, count).cell_indices(total) {
                prop_assert!(cell < total, "shard {index}/{count} claimed out-of-grid cell {cell}");
                owners[cell] += 1;
            }
        }
        prop_assert!(
            owners.iter().all(|&claims| claims == 1),
            "partition of {total} cells into {count} shards is not an exact cover: {owners:?}"
        );
    }
}

fn figure1_builder() -> ScenarioBuilder {
    Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(TrafficModel::single_by_index(5, 4, 4))
        .mechanism(Mechanism::faithful())
}

fn figure1_scenario() -> Scenario {
    figure1_builder().build()
}

/// The first two standard deviations — enough grid to shard, cheap
/// enough for debug-mode CI.
fn small_catalog() -> Catalog {
    Catalog::from_factory(|deviant| standard_catalog(deviant).into_iter().take(2).collect())
}

/// The headline pin at the bench's standard instance size: a sampled
/// `n = 64` sweep split three ways merges back byte-identical to the
/// monolithic run — same report, same canonical JSON, same fingerprint.
#[test]
fn merged_shards_are_byte_identical_to_the_monolithic_sweep_at_n64() {
    let scenario = Scenario::builder()
        .topology(TopologySource::RandomBiconnected {
            n: 64,
            extra_edges: 32,
        })
        .instance_seed(2004)
        .traffic(TrafficModel::single_by_index(0, 63, 3))
        .mechanism(Mechanism::Plain)
        .build();
    let catalog = small_catalog();
    let seeds = [2004u64];
    let agents = [0usize, 17, 63];

    let monolithic = scenario.sweep_sampled(&seeds, &catalog, &agents);
    let fragments: Vec<SweepFragment> = (0..3)
        .map(|index| {
            scenario.sweep_shard_sampled(
                &seeds,
                &catalog,
                &agents,
                ShardSpec::new(index, 3),
                "itest-n64",
            )
        })
        .collect();
    let merged = SweepFragment::merge(&fragments).expect("complete shard set merges");

    assert_eq!(merged, monolithic, "merged report diverged from monolithic");
    assert_eq!(merged.to_canonical_json(), monolithic.to_canonical_json());
    assert_eq!(merged.fingerprint(), monolithic.fingerprint());
}

/// Full-catalog, multi-seed Figure 1, with every fragment pushed through
/// its JSON wire format before merging — the exact path the CI job pair
/// exercises (emit fragment, parse fragment, merge).
#[test]
fn figure1_shards_round_trip_through_json_and_merge_to_the_full_sweep() {
    let scenario = figure1_scenario();
    let catalog = Catalog::standard();
    let seeds = [42u64, 43];

    let monolithic = scenario.sweep(&seeds, &catalog);
    let parsed: Vec<SweepFragment> = (0..4)
        .map(|index| {
            let fragment =
                scenario.sweep_shard(&seeds, &catalog, ShardSpec::new(index, 4), "itest-fig1");
            SweepFragment::from_json(&fragment.to_json()).expect("fragment JSON round-trips")
        })
        .collect();
    let merged = SweepFragment::merge(&parsed).expect("parsed fragments merge");

    assert_eq!(merged, monolithic);
    assert_eq!(merged.fingerprint(), monolithic.fingerprint());
    assert!(merged.is_ex_post_nash(), "{merged}");
}

/// More shards than grid cells: the surplus shards carry no cells but
/// still participate (and are required) in the merge.
#[test]
fn oversharded_figure1_sweep_still_merges_exactly() {
    let scenario = figure1_scenario();
    let catalog = small_catalog();
    let seeds = [9u64];
    let total_cells = 6 * catalog.len();
    let count = total_cells + 8;

    let fragments: Vec<SweepFragment> = (0..count)
        .map(|index| {
            scenario.sweep_shard(&seeds, &catalog, ShardSpec::new(index, count), "itest-over")
        })
        .collect();
    assert!(
        fragments.iter().any(|fragment| fragment.cells.is_empty()),
        "with {count} shards over {total_cells} cells some shards must be empty"
    );
    let merged = SweepFragment::merge(&fragments).expect("oversharded set merges");
    assert_eq!(merged, scenario.sweep(&seeds, &catalog));
}

/// Merge refuses incomplete shard sets and fragments from different
/// sweeps — the conflicts the CI merge job turns into exit code 3.
#[test]
fn merge_rejects_incomplete_and_mismatched_shard_sets() {
    let scenario = figure1_scenario();
    let catalog = small_catalog();
    let seeds = [5u64];

    let half0 = scenario.sweep_shard(&seeds, &catalog, ShardSpec::new(0, 2), "itest-a");
    let half1 = scenario.sweep_shard(&seeds, &catalog, ShardSpec::new(1, 2), "itest-a");
    let foreign = scenario.sweep_shard(&seeds, &catalog, ShardSpec::new(1, 2), "itest-b");

    assert!(matches!(
        SweepFragment::merge(std::slice::from_ref(&half0)),
        Err(MergeError::ShardSetIncomplete { .. })
    ));
    assert!(matches!(
        SweepFragment::merge(&[half0.clone(), foreign]),
        Err(MergeError::ManifestMismatch { .. })
    ));
    // Same label, graph, costs and traffic, simulated differently: the
    // instance fingerprint covers the whole run configuration.
    for (what, variant) in [
        (
            "network model",
            figure1_builder().network(NetModel::constant(NetModel::PRESET_CONGESTED_BPS)),
        ),
        (
            "latency",
            figure1_builder().latency(Latency::jittered(10, 7)),
        ),
        (
            "reference check",
            figure1_builder().reference_check(ReferenceCheck::Sampled { sources: 3 }),
        ),
    ] {
        let other = variant
            .build()
            .sweep_shard(&seeds, &catalog, ShardSpec::new(1, 2), "itest-a");
        let merged = SweepFragment::merge(&[half0.clone(), other]);
        assert!(
            matches!(
                &merged,
                Err(MergeError::ManifestMismatch { detail })
                    if detail.starts_with("instance_fingerprint")
            ),
            "shards differing only in {what} must not merge: {:?}",
            merged.map(|report| report.fingerprint())
        );
    }

    // Order-insensitive: the complete set merges regardless of argument
    // order.
    let merged = SweepFragment::merge(&[half1, half0]).expect("complete set merges");
    assert_eq!(merged, scenario.sweep(&seeds, &catalog));
}
