//! The live-coordinator guarantee: a work-stealing coordinated sweep is
//! **byte-identical** to the monolithic sweep — under any worker count,
//! any scheduling, and every injected failure.
//!
//! The battery runs real coordinators and real in-process workers over
//! loopback TCP on the paper's Figure 1 grid (cheap enough for
//! debug-mode CI, large enough for many leases), asserting full
//! `assert_eq!` report identity — which implies fingerprint identity —
//! for 1 / 4 / oversubscribed workers and for each `FaultPlan` path:
//! slow worker (work stealing), killed worker (EOF reissue, retry
//! counter observably > 0), hung worker (lease-timeout reissue),
//! duplicated result line (tolerated), and corrupted result line
//! (connection dropped, lease reissued). Raw protocol clients then pin
//! the typed `MergeError`s: conflicting duplicate cells, malformed cell
//! coordinates, and cross-worker baseline conflicts.
//!
//! The committed `n = 64` quick-grid fingerprint
//! (`SWEEP_fingerprint_quick.json`) is too slow to re-derive here in
//! debug mode (~65 s of release-mode work per run); the CI
//! `sweep-coordinator` job pins it in release with 3 worker processes
//! and a scripted mid-run kill. This file covers the same code paths on
//! grids sized for `cargo test`, plus a sampled `n = 64` identity check
//! mirroring `tests/sharded_sweep.rs`.

use specfaith::fpss::deviation::standard_catalog;
use specfaith::prelude::*;
use specfaith::scenario::{Catalog, CoordListener, FragmentCell, Frame, GridManifest};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

const INSTANCE: &str = "itest-coord";
const SEEDS: [u64; 2] = [11, 12];

fn figure1_builder() -> ScenarioBuilder {
    Scenario::builder()
        .topology(TopologySource::Figure1)
        .traffic(TrafficModel::single_by_index(5, 4, 4))
        .mechanism(Mechanism::faithful())
}

fn figure1_scenario() -> Scenario {
    figure1_builder().build()
}

/// The first two standard deviations — a 24-cell grid over two seeds:
/// enough leases to steal, cheap enough for debug-mode CI.
fn small_catalog() -> Catalog {
    Catalog::from_factory(|deviant| standard_catalog(deviant).into_iter().take(2).collect())
}

/// Test-sized coordinator config: 2-cell leases for plenty of stealing,
/// generous lease timeout (workers heartbeat anyway), short linger so
/// completed runs wind down fast.
fn test_config() -> CoordConfig {
    CoordConfig {
        lease_cells: 2,
        lease_timeout: Duration::from_secs(10),
        max_attempts: 5,
        retry_backoff: Duration::from_millis(20),
        idle_timeout: Duration::from_secs(60),
        linger: Duration::from_millis(300),
    }
}

/// Runs one coordinator plus the given in-process workers over loopback
/// TCP and returns the coordinator outcome and every worker's result.
#[allow(clippy::type_complexity)]
fn coordinate(
    worker_configs: Vec<WorkerConfig>,
    config: CoordConfig,
) -> (
    Result<CoordOutcome, CoordError>,
    Vec<Result<WorkerSummary, WorkerError>>,
) {
    let scenario = figure1_scenario();
    let coordinator = Coordinator::new(&scenario, &SEEDS, &small_catalog(), INSTANCE, config);
    let listener =
        CoordListener::bind(&CoordAddr::parse("tcp:127.0.0.1:0").expect("addr")).expect("bind");
    let addr = listener.local_addr().clone();
    let handles: Vec<_> = worker_configs
        .into_iter()
        .map(|worker| {
            let scenario = scenario.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                run_worker(&scenario, &SEEDS, &small_catalog(), INSTANCE, &addr, worker)
            })
        })
        .collect();
    let outcome = coordinator.serve(listener);
    let summaries = handles
        .into_iter()
        .map(|handle| handle.join().expect("worker thread"))
        .collect();
    (outcome, summaries)
}

fn monolithic() -> SweepReport {
    figure1_scenario().sweep(&SEEDS, &small_catalog())
}

fn assert_identical(outcome: &CoordOutcome, reference: &SweepReport) {
    assert_eq!(
        outcome.report, *reference,
        "coordinated report diverged from the monolithic sweep"
    );
    assert_eq!(
        outcome.report.to_canonical_json(),
        reference.to_canonical_json()
    );
    assert_eq!(outcome.fingerprint, reference.fingerprint());
}

/// 1 worker, 4 workers, and 9 workers over 6 leases (oversubscribed:
/// most workers go idle or never receive work) all produce the
/// byte-identical monolithic report.
#[test]
fn coordinated_report_is_byte_identical_for_any_worker_count() {
    let reference = monolithic();
    for workers in [1usize, 4, 9] {
        let mut config = test_config();
        if workers == 9 {
            config.lease_cells = 4; // 6 leases for 9 workers
        }
        let configs = (0..workers)
            .map(|i| WorkerConfig::named(&format!("w-{i}")))
            .collect();
        let (outcome, summaries) = coordinate(configs, config);
        let outcome = outcome.unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert_identical(&outcome, &reference);
        assert_eq!(outcome.stats.grid_cells, 24);
        assert_eq!(outcome.stats.leases_reissued, 0, "{workers} workers");
        for summary in summaries {
            summary.expect("fault-free workers succeed");
        }
        let evaluated: usize = outcome.stats.workers.iter().map(|w| w.cells).sum();
        assert_eq!(evaluated, 24, "{workers} workers: every cell exactly once");
    }
}

/// Work stealing: a deliberately slow worker keeps only the leases it
/// can finish; the fast worker drains the rest of the queue.
#[test]
fn fast_worker_steals_cells_from_a_slow_worker() {
    let slow = WorkerConfig {
        fault: FaultPlan {
            delay_per_cell: Some(Duration::from_millis(400)),
            ..FaultPlan::none()
        },
        ..WorkerConfig::named("slow")
    };
    let (outcome, summaries) = coordinate(vec![slow, WorkerConfig::named("fast")], test_config());
    let outcome = outcome.expect("run completes");
    assert_identical(&outcome, &monolithic());
    let cells = |name: &str| {
        summaries
            .iter()
            .map(|s| s.as_ref().expect("workers succeed"))
            .find(|s| s.name == name)
            .expect("summary present")
            .cells
    };
    assert!(
        cells("fast") > cells("slow"),
        "fast worker must out-evaluate the slow one: fast={} slow={}",
        cells("fast"),
        cells("slow")
    );
}

/// A worker killed mid-lease: the EOF reclaims its lease, the reissue
/// counter observably increments, and the merged report is unaffected.
#[test]
fn killed_worker_lease_is_reissued_and_report_unaffected() {
    let victim = WorkerConfig {
        fault: FaultPlan {
            kill_after_cells: Some(3),
            ..FaultPlan::none()
        },
        ..WorkerConfig::named("victim")
    };
    let (outcome, summaries) =
        coordinate(vec![victim, WorkerConfig::named("steady")], test_config());
    let outcome = outcome.expect("run survives the kill");
    assert_identical(&outcome, &monolithic());
    assert!(
        outcome.stats.leases_reissued > 0,
        "the killed worker's lease must be observably re-issued"
    );
    let victim = summaries
        .into_iter()
        .map(|s| s.expect("both workers end cleanly"))
        .find(|s| s.name == "victim")
        .expect("victim summary");
    assert!(victim.killed, "the kill fault must have fired");
}

/// A worker that hangs (alive connection, no heartbeats): the lease
/// *timeout* — not EOF — reclaims its lease.
#[test]
fn hung_worker_lease_times_out_and_is_reissued() {
    let mut config = test_config();
    config.lease_timeout = Duration::from_millis(1500);
    let victim = WorkerConfig {
        fault: FaultPlan {
            hang_after_cells: Some(1),
            ..FaultPlan::none()
        },
        heartbeat: Duration::from_millis(300),
        ..WorkerConfig::named("victim")
    };
    let steady = WorkerConfig {
        heartbeat: Duration::from_millis(300),
        ..WorkerConfig::named("steady")
    };
    let (outcome, summaries) = coordinate(vec![victim, steady], config);
    let outcome = outcome.expect("run survives the hang");
    assert_identical(&outcome, &monolithic());
    assert!(
        outcome.stats.leases_reissued > 0,
        "the hung worker's lease must time out and be re-issued"
    );
    let victim = summaries
        .into_iter()
        .map(|s| s.expect("both workers end cleanly"))
        .find(|s| s.name == "victim")
        .expect("victim summary");
    assert!(victim.hung, "the hang fault must have fired");
}

/// A bit-identical duplicate result line is tolerated and counted, not
/// fatal — late results of reissued leases look exactly like this.
#[test]
fn duplicate_result_line_is_tolerated_and_counted() {
    let duplicator = WorkerConfig {
        fault: FaultPlan {
            duplicate_result: Some(0),
            ..FaultPlan::none()
        },
        ..WorkerConfig::named("duplicator")
    };
    let (outcome, summaries) = coordinate(
        vec![duplicator, WorkerConfig::named("steady")],
        test_config(),
    );
    let outcome = outcome.expect("duplicates are tolerated");
    assert_identical(&outcome, &monolithic());
    assert!(
        outcome.stats.duplicate_results > 0,
        "the duplicated cells must be counted"
    );
    for summary in summaries {
        summary.expect("duplicating is not fatal to the worker");
    }
}

/// A corrupted (unparsable) result line costs the sender its connection
/// and its lease a reissue; the run still completes byte-identically.
#[test]
fn corrupted_result_line_drops_the_connection_and_reissues() {
    let corruptor = WorkerConfig {
        fault: FaultPlan {
            corrupt_result: Some(0),
            ..FaultPlan::none()
        },
        ..WorkerConfig::named("corruptor")
    };
    let (outcome, summaries) = coordinate(
        vec![corruptor, WorkerConfig::named("steady")],
        test_config(),
    );
    let outcome = outcome.expect("run survives the corruption");
    assert_identical(&outcome, &monolithic());
    assert!(
        outcome.stats.corrupt_lines > 0,
        "corruption must be counted"
    );
    assert!(
        outcome.stats.leases_reissued > 0,
        "the corrupted lease must be re-issued"
    );
    let corruptor = summaries
        .into_iter()
        .find_map(|s| match s {
            Err(e) => Some(e),
            Ok(s) if s.name == "corruptor" => panic!("corruptor must lose its connection"),
            Ok(_) => None,
        })
        .expect("the corruptor fails");
    assert!(
        matches!(corruptor, WorkerError::Disconnected | WorkerError::Io(_)),
        "unexpected corruptor error: {corruptor}"
    );
}

/// A worker whose manifest disagrees is rejected at hello — the live
/// `ManifestMismatch` — while a matching worker completes the run.
#[test]
fn mismatched_manifest_worker_is_rejected_while_the_run_completes() {
    let scenario = figure1_scenario();
    let coordinator =
        Coordinator::new(&scenario, &SEEDS, &small_catalog(), INSTANCE, test_config());
    let listener =
        CoordListener::bind(&CoordAddr::parse("tcp:127.0.0.1:0").expect("addr")).expect("bind");
    let addr = listener.local_addr().clone();
    // One imposter names another grid. The other names this grid but
    // simulates it under another network model, which only the instance
    // fingerprint tells apart.
    let congested = figure1_builder()
        .network(NetModel::constant(NetModel::PRESET_CONGESTED_BPS))
        .build();
    let imposters: Vec<_> = [(scenario.clone(), "imposter-grid"), (congested, INSTANCE)]
        .into_iter()
        .map(|(scenario, label)| {
            let addr = addr.clone();
            thread::spawn(move || {
                run_worker(
                    &scenario,
                    &SEEDS,
                    &small_catalog(),
                    label,
                    &addr,
                    WorkerConfig::named("imposter"),
                )
            })
        })
        .collect();
    let good = {
        let scenario = scenario.clone();
        let addr = addr.clone();
        thread::spawn(move || {
            run_worker(
                &scenario,
                &SEEDS,
                &small_catalog(),
                INSTANCE,
                &addr,
                WorkerConfig::named("good"),
            )
        })
    };
    let outcome = coordinator.serve(listener).expect("run completes");
    assert_identical(&outcome, &monolithic());
    for (imposter, field) in imposters
        .into_iter()
        .zip(["instance", "instance_fingerprint"])
    {
        let joined = imposter.join().expect("imposter thread");
        assert!(
            matches!(&joined, Err(WorkerError::Rejected(reason)) if reason.starts_with(field)),
            "the mismatched worker must be rejected on its {field}: {joined:?}"
        );
    }
    good.join()
        .expect("good thread")
        .expect("good worker succeeds");
}

// ---------------------------------------------------------------------------
// Raw protocol clients: drive the socket directly to pin the typed
// MergeError paths a well-behaved worker never triggers.

struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawClient {
    fn connect(addr: &CoordAddr) -> RawClient {
        let CoordAddr::Tcp(text) = addr else {
            panic!("raw clients are TCP-only");
        };
        let stream = TcpStream::connect(text.as_str()).expect("connect");
        RawClient {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, frame: &Frame) {
        self.send_line(&frame.to_line());
    }

    fn send_line(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Frame {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        Frame::parse(line.trim_end()).expect("coordinator frames parse")
    }

    /// Hello with the coordinator's own manifest; expects welcome.
    fn handshake(addr: &CoordAddr, manifest: &GridManifest, name: &str) -> RawClient {
        let mut client = RawClient::connect(addr);
        client.send(&Frame::Hello {
            worker: name.to_string(),
            manifest: manifest.clone(),
        });
        assert!(
            matches!(client.recv(), Frame::Welcome { .. }),
            "matching manifest must be welcomed"
        );
        client
    }
}

/// Serves a coordinator on loopback TCP in a background thread, hands
/// the test closure the address and manifest, then returns the serve
/// result.
fn serve_raw(
    drive: impl FnOnce(&CoordAddr, &GridManifest) + Send + 'static,
) -> Result<CoordOutcome, CoordError> {
    let scenario = figure1_scenario();
    let coordinator =
        Coordinator::new(&scenario, &SEEDS, &small_catalog(), INSTANCE, test_config());
    let manifest = coordinator.manifest().clone();
    let listener =
        CoordListener::bind(&CoordAddr::parse("tcp:127.0.0.1:0").expect("addr")).expect("bind");
    let addr = listener.local_addr().clone();
    let driver = thread::spawn(move || drive(&addr, &manifest));
    let outcome = coordinator.serve(listener);
    driver.join().expect("driver thread");
    outcome
}

/// The cells of one lease, fabricated with coordinates the manifest
/// implies (utilities are arbitrary — the coordinator cannot check
/// those, only their cross-worker consistency).
fn fabricate_cells(manifest: &GridManifest, cells: &[usize], utility: i64) -> Vec<FragmentCell> {
    let agents = manifest.agents.len();
    let deviations = manifest.deviations.len();
    cells
        .iter()
        .map(|&index| FragmentCell {
            index,
            seed: manifest.seeds[index / (agents * deviations)],
            agent: manifest.agents[(index / deviations) % agents],
            deviation: index % deviations,
            deviant_utility: Money::new(utility),
            detected: false,
        })
        .collect()
}

/// Re-sending a lease's result with *different* contents is the live
/// `MergeError::DuplicateCell` — unlike the bit-identical duplicate,
/// which is tolerated.
#[test]
fn conflicting_duplicate_cell_is_a_typed_merge_error() {
    let outcome = serve_raw(|addr, manifest| {
        let mut client = RawClient::handshake(addr, manifest, "raw-dup");
        client.send(&Frame::Ready);
        let Frame::Lease { lease, cells } = client.recv() else {
            panic!("expected a lease");
        };
        client.send(&Frame::Result {
            lease,
            secs: 0.1,
            cells: fabricate_cells(manifest, &cells, 7),
        });
        client.send(&Frame::Result {
            lease,
            secs: 0.1,
            cells: fabricate_cells(manifest, &cells, 8), // conflicting contents
        });
        // Drain until the coordinator aborts or closes.
        let mut line = String::new();
        while client.reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            line.clear();
        }
    });
    assert!(
        matches!(
            outcome,
            Err(CoordError::Merge(MergeError::DuplicateCell { .. }))
        ),
        "expected DuplicateCell, got {outcome:?}"
    );
}

/// A result whose stored coordinates disagree with its grid index is
/// the live `MergeError::MalformedCell`.
#[test]
fn malformed_cell_coordinates_are_a_typed_merge_error() {
    let outcome = serve_raw(|addr, manifest| {
        let mut client = RawClient::handshake(addr, manifest, "raw-malformed");
        client.send(&Frame::Ready);
        let Frame::Lease { lease, cells } = client.recv() else {
            panic!("expected a lease");
        };
        let mut fabricated = fabricate_cells(manifest, &cells, 7);
        fabricated[0].agent += 1; // index/coordinate disagreement
        client.send(&Frame::Result {
            lease,
            secs: 0.1,
            cells: fabricated,
        });
        let mut line = String::new();
        while client.reader.read_line(&mut line).is_ok_and(|n| n > 0) {
            line.clear();
        }
    });
    assert!(
        matches!(
            outcome,
            Err(CoordError::Merge(MergeError::MalformedCell { .. }))
        ),
        "expected MalformedCell, got {outcome:?}"
    );
}

/// Two workers reporting different honest baselines for the same seed
/// is the live `MergeError::BaselineConflict` — the cross-worker
/// determinism check.
#[test]
fn baseline_conflict_across_workers_is_a_typed_merge_error() {
    let outcome = serve_raw(|addr, manifest| {
        let nodes = manifest.agents.len();
        let honest: Vec<(u64, Vec<Money>)> = manifest
            .seeds
            .iter()
            .map(|&seed| (seed, vec![Money::new(0); nodes]))
            .collect();
        let mut conflicting = honest.clone();
        conflicting[0].1[0] = Money::new(1);

        let mut first = RawClient::handshake(addr, manifest, "raw-base-a");
        first.send(&Frame::Baselines {
            secs: 0.1,
            baselines: honest,
        });
        let mut second = RawClient::handshake(addr, manifest, "raw-base-b");
        second.send(&Frame::Baselines {
            secs: 0.1,
            baselines: conflicting,
        });
        for client in [&mut first, &mut second] {
            let mut line = String::new();
            while client.reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                line.clear();
            }
        }
    });
    assert!(
        matches!(
            outcome,
            Err(CoordError::Merge(MergeError::BaselineConflict { .. }))
        ),
        "expected BaselineConflict, got {outcome:?}"
    );
}

/// The headline size check, mirroring `tests/sharded_sweep.rs`: a
/// sampled `n = 64` grid coordinated across two workers is
/// byte-identical to `sweep_sampled` — per-cell seeds depend only on
/// `(seed, agent, deviation)`, never on who evaluated the cell.
#[test]
fn coordinated_sampled_n64_sweep_is_byte_identical_to_monolithic() {
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
    let coordinator = Coordinator::sampled(
        &scenario,
        &seeds,
        &catalog,
        &agents,
        "itest-n64",
        test_config(),
    );
    let listener =
        CoordListener::bind(&CoordAddr::parse("tcp:127.0.0.1:0").expect("addr")).expect("bind");
    let addr = listener.local_addr().clone();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let scenario = scenario.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                run_worker_sampled(
                    &scenario,
                    &seeds,
                    &small_catalog(),
                    &agents,
                    "itest-n64",
                    &addr,
                    WorkerConfig::named(&format!("n64-{i}")),
                )
            })
        })
        .collect();
    let outcome = coordinator.serve(listener).expect("run completes");
    for worker in workers {
        worker
            .join()
            .expect("worker thread")
            .expect("worker succeeds");
    }
    assert_eq!(outcome.report, monolithic);
    assert_eq!(
        outcome.report.to_canonical_json(),
        monolithic.to_canonical_json()
    );
    assert_eq!(outcome.fingerprint, monolithic.fingerprint());
}
