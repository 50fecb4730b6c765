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
//! Streamed sessions are pinned the same way, on the same two graphs:
//! C→9, D→0 and C→9 again (an unchanged re-declaration), plus churn on
//! Figure 1 (plain: C leaves and returns, then A's leaving is rejected;
//! faithful: a leaving node is refused). Each event pins its status,
//! messages, virtual time and verification, and the finished run pins
//! what the one-shot runs pin.
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

/// What one streamed event pins.
#[derive(Debug, PartialEq, Eq)]
struct EventPin {
    status: StreamStatus,
    messages: u64,
    micros: u64,
    verified: Option<bool>,
}

fn event(status: StreamStatus, messages: u64, micros: u64, verified: Option<bool>) -> EventPin {
    EventPin {
        status,
        messages,
        micros,
        verified,
    }
}

/// C→9, D→0, then C→9 again (an unchanged re-declaration that still
/// floods), followed by `churn`.
fn cost_then(churn: &[TopologyEvent]) -> Vec<TopologyEvent> {
    let mut events = vec![
        TopologyEvent::NodeCost {
            node: NodeId::new(2),
            cost: 9,
        },
        TopologyEvent::NodeCost {
            node: NodeId::new(3),
            cost: 0,
        },
        TopologyEvent::NodeCost {
            node: NodeId::new(2),
            cost: 9,
        },
    ];
    events.extend_from_slice(churn);
    events
}

/// One streamed session under jittered latency, run seed 3: every
/// event's record, then the finished run.
fn stream_pins(
    topology: TopologySource,
    mechanism: Mechanism,
    events: &[TopologyEvent],
) -> (Vec<EventPin>, Pin) {
    let scenario = Scenario::builder()
        .topology(topology)
        .latency(Latency::jittered(10, 7))
        .mechanism(mechanism)
        .build();
    let report = scenario.stream(events, 3);
    let records = report
        .events
        .iter()
        .map(|e| event(e.status, e.messages, e.micros, e.verified))
        .collect();
    (records, Pin::of(&report.final_report))
}

#[test]
fn plain_figure1_stream_is_pinned() {
    use StreamStatus::{Applied, Rejected};
    // C leaves and returns; A leaving would leave X with one neighbor.
    let churn = [
        TopologyEvent::NodeDown(NodeId::new(2)),
        TopologyEvent::NodeUp(NodeId::new(2)),
        TopologyEvent::NodeDown(NodeId::new(0)),
    ];
    assert_eq!(
        stream_pins(
            TopologySource::Figure1,
            Mechanism::Plain,
            &cost_then(&churn)
        ),
        (
            vec![
                event(Applied, 36, 50, Some(true)),
                event(Applied, 20, 44, Some(true)),
                event(Applied, 9, 49, Some(true)),
                event(Applied, 98, 236, None),
                event(Applied, 102, 68, Some(true)),
                event(Rejected, 0, 0, None),
            ],
            pin(556, 459, 12_592, 0, true, false, 499_975)
        )
    );
}

#[test]
fn faithful_figure1_stream_is_pinned() {
    use StreamStatus::{Applied, Unsupported};
    let churn = [TopologyEvent::NodeDown(NodeId::new(2))];
    assert_eq!(
        stream_pins(
            TopologySource::Figure1,
            Mechanism::faithful(),
            &cost_then(&churn)
        ),
        (
            vec![
                event(Applied, 90, 91, Some(true)),
                event(Applied, 49, 94, Some(true)),
                event(Applied, 21, 79, Some(true)),
                event(Unsupported, 0, 0, None),
            ],
            pin(488, 598, 29_034, 0, true, false, 6_499_975)
        )
    );
}

#[test]
fn plain_scale_free_stream_is_pinned() {
    use StreamStatus::Applied;
    assert_eq!(
        stream_pins(scale_free_16(), Mechanism::Plain, &cost_then(&[])),
        (
            vec![
                event(Applied, 3_987, 197, Some(true)),
                event(Applied, 657, 77, Some(true)),
                event(Applied, 43, 54, Some(true)),
            ],
            pin(451, 7_101, 258_716, 0, true, false, 499_995)
        )
    );
}

#[test]
fn faithful_scale_free_stream_is_pinned() {
    use StreamStatus::Applied;
    assert_eq!(
        stream_pins(scale_free_16(), Mechanism::faithful(), &cost_then(&[])),
        (
            vec![
                event(Applied, 17_940, 246, Some(true)),
                event(Applied, 2_221, 128, Some(true)),
                event(Applied, 75, 84, Some(true)),
            ],
            pin(695, 29_168, 1_261_908, 0, true, false, 16_499_995)
        )
    );
}
