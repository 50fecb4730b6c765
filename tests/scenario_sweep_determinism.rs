//! The sweep determinism guarantee: the parallel deviation sweep is
//! **byte-identical** to the serial one, for any rayon thread count.
//!
//! Each sweep cell derives its seed purely from `(base seed, agent,
//! deviation)` and every cell is an independent deterministic simulation,
//! so scheduling cannot leak into results. These tests pin that contract
//! with exact `assert_eq!` over the full report contents (utilities,
//! detection flags, specs — `EquilibriumReport` equality is field-wise).

use rayon::ThreadPoolBuilder;
use specfaith::prelude::*;

fn figure1_scenario() -> Scenario {
    let net = figure1();
    Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(TrafficModel::Flows(vec![
            Flow {
                src: net.x,
                dst: net.z,
                packets: 4,
            },
            Flow {
                src: net.d,
                dst: net.z,
                packets: 4,
            },
        ]))
        .mechanism(Mechanism::faithful())
        .build()
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let scenario = figure1_scenario();
    let catalog = Catalog::standard();
    let seeds = [42u64, 43, 44];

    let serial = scenario.sweep_serial(&seeds, &catalog);
    let parallel = scenario.sweep(&seeds, &catalog);

    assert_eq!(serial, parallel, "parallel sweep must equal serial sweep");
    // Shape sanity: per seed, 6 nodes × 13 deviations.
    assert_eq!(serial.per_seed.len(), 3);
    for (_, report) in &serial.per_seed {
        assert_eq!(report.outcomes.len(), 6 * 13);
    }
    assert!(serial.is_ex_post_nash(), "{serial}");
}

#[test]
fn sweep_is_invariant_across_thread_counts() {
    let scenario = figure1_scenario();
    let catalog = Catalog::standard();
    let seeds = [7u64, 8];

    let reference = scenario.sweep_serial(&seeds, &catalog);
    for threads in [1usize, 4] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let swept = pool.install(|| scenario.sweep(&seeds, &catalog));
        assert_eq!(
            swept, reference,
            "sweep under a {threads}-thread pool diverged from serial"
        );
    }
}

#[test]
fn plain_mechanism_sweeps_are_deterministic_too() {
    let net = figure1();
    let scenario = Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(TrafficModel::Single {
            src: net.x,
            dst: net.z,
            packets: 4,
        })
        .mechanism(Mechanism::Plain)
        .build();
    let catalog = Catalog::standard();
    let seeds = [1u64, 2];
    assert_eq!(
        scenario.sweep(&seeds, &catalog),
        scenario.sweep_serial(&seeds, &catalog)
    );
}

#[test]
fn repeated_parallel_sweeps_agree_with_themselves() {
    let scenario = figure1_scenario();
    let catalog = Catalog::standard();
    let first = scenario.sweep(&[9], &catalog);
    let second = scenario.sweep(&[9], &catalog);
    assert_eq!(first, second);
}

#[test]
fn explicit_scopes_match_the_serial_sweep_in_both_engines() {
    // Sweeping against a fresh sweep-owned CacheScope (the default) and
    // against an explicit caller scope both reproduce the serial report —
    // for both mechanisms.
    let catalog = Catalog::standard();
    let seeds = [11u64];
    for mechanism in [Mechanism::Plain, Mechanism::faithful()] {
        let scenario = Scenario::builder()
            .topology(TopologySource::Figure1)
            .traffic(TrafficModel::single_by_index(5, 4, 4))
            .mechanism(mechanism.clone())
            .build();
        let reference = scenario.sweep_serial(&seeds, &catalog);
        let sweep_owned = scenario.sweep(&seeds, &catalog);
        assert_eq!(sweep_owned, reference, "{mechanism:?}: sweep-owned scope");
        let explicit = CacheScope::eager();
        assert_eq!(
            scenario.sweep_scoped(&seeds, &catalog, &explicit),
            reference,
            "{mechanism:?}: explicit scope"
        );
        assert!(explicit.misses() > 0, "the explicit scope served the sweep");
    }
}
