//! Send-order goldens for the FPSS protocol engine (CI step "Engine
//! send-order goldens").
//!
//! The other goldens run under fixed latency, where two sends swapped
//! inside one handler can leave every total unchanged. Under
//! `Latency::jittered(10, 7)` each send draws its delay from the run's RNG
//! in send order, so a reordered, missing or extra send, or a moved
//! strategy-hook call, shows in the virtual finish time, the traffic
//! totals or the verdict.
//!
//! Both mechanisms run on Figure 1 (X→Z) and on a 16-node scale-free
//! graph: honest, with `spoof-short-routes` (the faithful bank restarts
//! construction twice, then halts) and with `drop-transit-packets` (the
//! faithful bank penalizes), each deviant a transit node of the flow.
//!
//! Moving a pin is a reproducibility break: it needs a stated reason.

use specfaith::fpss::deviation::{DropTransitPackets, SpoofShortRoutes};
use specfaith::prelude::*;
use specfaith::scenario::RunReport;
use specfaith_netsim::Latency;

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    final_us: u64,
    msgs: u64,
    bytes: u64,
    restarts: u32,
    green_lighted: bool,
    detected: bool,
    utility_sum: i64,
}

impl Pin {
    fn of(run: &RunReport) -> Pin {
        assert!(!run.truncated, "run truncated");
        Pin {
            final_us: run.final_time.micros(),
            msgs: run.stats.total_msgs(),
            bytes: run.stats.total_bytes(),
            restarts: run.restarts(),
            green_lighted: run.green_lighted(),
            detected: run.detected,
            utility_sum: run.utilities.iter().map(|u| u.value()).sum(),
        }
    }
}

fn pin(
    final_us: u64,
    msgs: u64,
    bytes: u64,
    restarts: u32,
    green_lighted: bool,
    detected: bool,
    utility_sum: i64,
) -> Pin {
    Pin {
        final_us,
        msgs,
        bytes,
        restarts,
        green_lighted,
        detected,
        utility_sum,
    }
}

/// The honest, spoofing and dropping runs, in that order, with `deviant`
/// deviating.
fn pins(topology: TopologySource, mechanism: Mechanism, deviant: u32) -> [Pin; 3] {
    let scenario = Scenario::builder()
        .topology(topology)
        .latency(Latency::jittered(10, 7))
        .mechanism(mechanism)
        .build();
    let deviant = NodeId::new(deviant);
    [
        Pin::of(&scenario.run(3)),
        Pin::of(&scenario.run_with_deviant(deviant, Box::new(SpoofShortRoutes), 3)),
        Pin::of(&scenario.run_with_deviant(deviant, Box::new(DropTransitPackets), 3)),
    ]
}

fn scale_free_16() -> TopologySource {
    TopologySource::ScaleFree {
        n: 16,
        attachments: 2,
    }
}

#[test]
fn plain_figure1_runs_are_pinned() {
    assert_eq!(
        pins(TopologySource::Figure1, Mechanism::Plain, 2),
        [
            pin(130, 199, 4_668, 0, true, false, 499_990),
            pin(129, 193, 4_484, 0, true, true, 499_990),
            pin(113, 194, 4_608, 0, true, false, -5),
        ]
    );
}

#[test]
fn faithful_figure1_runs_are_pinned() {
    assert_eq!(
        pins(TopologySource::Figure1, Mechanism::faithful(), 2),
        [
            pin(237, 443, 16_866, 0, true, false, 6_499_990),
            pin(410, 1_152, 41_064, 2, false, true, 0),
            pin(224, 438, 16_774, 0, true, true, 5_999_989),
        ]
    );
}

#[test]
fn plain_scale_free_runs_are_pinned() {
    assert_eq!(
        pins(scale_free_16(), Mechanism::Plain, 1),
        [
            pin(122, 2_414, 60_720, 0, true, false, 499_995),
            pin(126, 2_704, 71_452, 0, true, true, 499_995),
            pin(107, 2_409, 60_660, 0, true, false, 0),
        ]
    );
}

#[test]
fn faithful_scale_free_runs_are_pinned() {
    assert_eq!(
        pins(scale_free_16(), Mechanism::faithful(), 1),
        [
            pin(241, 8_932, 306_672, 0, true, false, 16_499_995),
            pin(489, 30_643, 1_022_744, 2, false, true, 0),
            pin(223, 8_927, 306_580, 0, true, true, 15_999_994),
        ]
    );
}
