//! The sweep workloads: a deviation grid evaluated either by the live
//! coordinator and two in-process workers, or in process by
//! `Scenario::sweep_sampled` on two threads.
//!
//! The untraced run times the sweep through the public API. Per-cell
//! latency comes from the catalog: the sweep engines instantiate a cell's
//! strategy from the catalog factory as the cell starts, so consecutive
//! factory calls on one thread bracket one cell.
//!
//! The traced run repeats the untraced sweep for its report, then replays
//! the same grid cell by cell with `Scenario::run_with_deviant` and
//! `cell_seed` under one eager cache scope with the honest declarations
//! pinned, as the sweep engine does; every replayed cell must agree with
//! the report.

use crate::layers;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::trace::{both_cores, lower_quartile, median, on_both_cores, tail, SpanId, Tracer};
use specfaith::core::id::NodeId;
use specfaith::fpss::deviation::{standard_catalog, RationalStrategy};
use specfaith::graph::cache::RouteCache;
use specfaith::scenario::{
    cell_seed, run_worker, CacheScope, Catalog, CoordAddr, CoordConfig, CoordListener, CoordStats,
    Coordinator, CostModel, Mechanism, ReferenceCheck, RunReport, Scenario, SweepReport,
    TopologySource, TrafficModel, WorkerConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// Busy threads of every sweep: coordinator workers, the in-process
/// sweep's pool, and the traced replay.
pub const THREADS: usize = 2;

/// Set-ups timed on each of two threads for `setup_s` (see
/// [`both_cores`]). Set-up takes microseconds, and the first repetitions
/// in a fresh process run several times slower, so the median needs many.
pub const SETUP_REPS: usize = 101;

/// Seconds of honest runs timed on both threads for `converge_s`, once
/// before the sweeps and once after them (at least one run per thread
/// each time).
const CONVERGE_WINDOW_S: f64 = 1.5;

/// Misreport cells whose seeded cache repair the traced run times.
const SEEDED_SAMPLES: usize = 16;

/// What a sweep's report must reproduce.
pub enum SweepPin {
    /// Nothing pinned (toy sizes).
    None,
    /// The fingerprint committed in this JSON file, which must also name
    /// the grid's instance label.
    FingerprintFile(&'static str),
    /// An exact fingerprint, detected-cell count and equilibrium verdict.
    Exact {
        fingerprint: &'static str,
        detected: usize,
        ex_post_nash: bool,
    },
}

/// One sweep workload.
pub struct SweepSpec {
    /// Grid label shared by the coordinator and its workers.
    pub label: &'static str,
    pub mechanism: Mechanism,
    /// Size and seed of `specfaith_bench::instance`.
    pub n: usize,
    pub instance_seed: u64,
    /// The sweep's base seed (cell seeds derive from it).
    pub sweep_seed: u64,
    pub max_events: u64,
    /// The first `k` deviations of the standard catalog, or all of them.
    pub deviations: Option<usize>,
    /// Deviating agents: `0, stride, 2·stride, …`.
    pub agent_stride: usize,
    /// Through the coordinator (full agent set only) or in process.
    pub coordinated: bool,
    pub pin: SweepPin,
}

impl SweepSpec {
    fn agents(&self) -> Vec<usize> {
        (0..self.n).step_by(self.agent_stride).collect()
    }

    fn deviation_count(&self) -> usize {
        let all = standard_catalog(NodeId::new(0)).len();
        self.deviations.map_or(all, |k| k.min(all))
    }

    fn scenario(&self) -> Scenario {
        let inst = specfaith_bench::instance(self.n, self.instance_seed);
        Scenario::builder()
            .topology(TopologySource::Explicit(inst.topo))
            .costs(CostModel::Explicit(inst.costs))
            .traffic(TrafficModel::Flows(inst.traffic.flows().to_vec()))
            .mechanism(self.mechanism.clone())
            .max_events(self.max_events)
            .build()
    }

    /// Deviation `d` of the catalog, instantiated for `agent`.
    fn strategy(&self, agent: usize, d: usize) -> Box<dyn RationalStrategy> {
        standard_catalog(NodeId::from_index(agent))
            .into_iter()
            .nth(d)
            .expect("deviation index within the catalog")
    }
}

/// Start instants of catalog instantiations, per thread.
#[derive(Clone, Default)]
struct CellStarts(Arc<Mutex<Vec<(ThreadId, Instant)>>>);

impl CellStarts {
    fn push(&self) {
        self.lock().push((thread::current().id(), Instant::now()));
    }

    fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(ThreadId, Instant)>> {
        self.0
            .lock()
            .expect("the start recorder never panics while holding the lock")
    }

    /// Per-cell latencies in seconds: the gaps between consecutive cell
    /// starts on one thread. The last cell of each thread has no
    /// observed end and is left out. `cells` names the threads that ran
    /// cells and how many each ran; earlier instantiations on those
    /// threads (catalog inspection before the first cell) are skipped.
    fn latencies(&self, cells: &[(ThreadId, usize)]) -> Vec<f64> {
        let starts = self.lock();
        let mut latencies = Vec::new();
        for &(thread, count) in cells {
            let mine: Vec<Instant> = starts
                .iter()
                .filter(|(id, _)| *id == thread)
                .map(|(_, at)| *at)
                .collect();
            let cell_starts = &mine[mine.len().saturating_sub(count)..];
            latencies.extend(
                cell_starts
                    .windows(2)
                    .map(|pair| (pair[1] - pair[0]).as_secs_f64()),
            );
        }
        latencies
    }

    /// Threads other than `main` that instantiated strategies, with how
    /// many times each did.
    fn threads_except(&self, main: ThreadId) -> Vec<(ThreadId, usize)> {
        let starts = self.lock();
        let mut threads: Vec<(ThreadId, usize)> = Vec::new();
        for (id, _) in starts.iter().filter(|(id, _)| *id != main) {
            match threads.iter_mut().find(|(t, _)| t == id) {
                Some((_, count)) => *count += 1,
                None => threads.push((*id, 1)),
            }
        }
        threads
    }
}

/// Everything built before the first timed call.
struct Fixture {
    scenario: Scenario,
    catalog: Catalog,
    starts: CellStarts,
    coord: Option<(Coordinator, CoordListener, CoordAddr)>,
}

/// Builds a fixture; a coordinated one listens on a socket named after
/// the process and `tag`, so concurrent set-ups do not collide.
fn setup(spec: &SweepSpec, tag: &str) -> Result<Fixture, String> {
    let scenario = spec.scenario();
    let starts = CellStarts::default();
    let recorder = starts.clone();
    let deviations = spec.deviation_count();
    let catalog = Catalog::from_factory(move |deviant| {
        recorder.push();
        let mut strategies = standard_catalog(deviant);
        strategies.truncate(deviations);
        strategies
    });
    let coord = if spec.coordinated {
        std::fs::create_dir_all(".bench_build").map_err(|e| format!("create .bench_build: {e}"))?;
        let addr = CoordAddr::parse(&format!(
            "unix:.bench_build/perfbench-{}-{tag}.sock",
            std::process::id()
        ))?;
        let coordinator = Coordinator::new(
            &scenario,
            &[spec.sweep_seed],
            &catalog,
            spec.label,
            CoordConfig::default(),
        );
        let listener = CoordListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        Some((coordinator, listener, addr))
    } else {
        None
    };
    Ok(Fixture {
        scenario,
        catalog,
        starts,
        coord,
    })
}

/// One measured sweep.
struct SweepUnit {
    report: SweepReport,
    wall: f64,
    latencies: Vec<f64>,
    coord: Option<CoordStats>,
}

fn measure(spec: &SweepSpec, fixture: Fixture) -> Result<SweepUnit, String> {
    let Fixture {
        scenario,
        catalog,
        starts,
        coord,
    } = fixture;
    starts.clear();
    let seeds = [spec.sweep_seed];
    let start = Instant::now();
    match coord {
        Some((coordinator, listener, addr)) => {
            let (served, workers) = thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|w| {
                        let (scenario, catalog, addr) = (&scenario, &catalog, &addr);
                        thread::Builder::new()
                            .name(format!("perfbench-worker-{w}"))
                            .spawn_scoped(scope, move || {
                                let config = WorkerConfig::named(&format!("worker-{w}"));
                                let summary =
                                    run_worker(scenario, &seeds, catalog, spec.label, addr, config);
                                (thread::current().id(), summary)
                            })
                            .expect("spawn a worker thread")
                    })
                    .collect();
                let served = coordinator.serve(listener);
                let workers: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.join().expect("worker threads do not panic"))
                    .collect();
                (served, workers)
            });
            let wall = start.elapsed().as_secs_f64();
            let outcome = served.map_err(|e| format!("coordinated sweep failed: {e}"))?;
            let mut cells = Vec::new();
            for (thread, summary) in workers {
                let summary = summary.map_err(|e| format!("worker failed: {e}"))?;
                cells.push((thread, summary.cells));
            }
            Ok(SweepUnit {
                report: outcome.report,
                wall,
                latencies: starts.latencies(&cells),
                coord: Some(outcome.stats),
            })
        }
        None => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(THREADS)
                .build()
                .map_err(|e| e.to_string())?;
            let main = thread::current().id();
            let report = pool.install(|| scenario.sweep_sampled(&seeds, &catalog, &spec.agents()));
            let wall = start.elapsed().as_secs_f64();
            Ok(SweepUnit {
                report,
                wall,
                latencies: starts.latencies(&starts.threads_except(main)),
                coord: None,
            })
        }
    }
}

/// The output checks every sweep run makes on its report.
fn check_report(spec: &SweepSpec, unit: &SweepUnit, out: &mut Outcome) {
    let report = &unit.report;
    let cells = spec.agents().len() * spec.deviation_count();
    out.check(report.total_deviations() == cells, || {
        format!(
            "the report holds {} cells, the grid {cells}",
            report.total_deviations()
        )
    });
    let fingerprint = report.fingerprint();
    match &spec.pin {
        SweepPin::None => {}
        SweepPin::FingerprintFile(path) => match pinned_fingerprint(path, spec.label) {
            Ok(expected) => out.check(fingerprint == expected, || {
                format!("fingerprint {fingerprint}, committed in {path}: {expected}")
            }),
            Err(problem) => out.problems.push(problem),
        },
        SweepPin::Exact {
            fingerprint: expected,
            detected,
            ex_post_nash,
        } => {
            out.check(fingerprint == *expected, || {
                format!("fingerprint {fingerprint}, pinned {expected}")
            });
            let seen = detected_cells(report);
            out.check(seen == *detected, || {
                format!("{seen} detected cells, pinned {detected} of {cells}")
            });
            out.check(report.is_ex_post_nash() == *ex_post_nash, || {
                format!("ex post Nash is {}, pinned {ex_post_nash}", !ex_post_nash)
            });
        }
    }
    if let Some(stats) = &unit.coord {
        let anomalies = stats.leases_reissued + stats.duplicate_results + stats.corrupt_lines;
        out.failed += anomalies;
        out.check(anomalies == 0, || {
            format!(
                "{} re-issued leases, {} duplicate results, {} corrupt lines",
                stats.leases_reissued, stats.duplicate_results, stats.corrupt_lines
            )
        });
    }
    out.notes.push(format!(
        "{} cells in {:.3} s, fingerprint {fingerprint}, detection rate {:.4}, ex post Nash {}",
        cells,
        unit.wall,
        report.detection_rate().unwrap_or(0.0),
        report.is_ex_post_nash()
    ));
}

fn detected_cells(report: &SweepReport) -> usize {
    report
        .reports()
        .flat_map(|r| &r.outcomes)
        .filter(|o| o.detected)
        .count()
}

/// Reads the `fingerprint` of a committed fingerprint file, checking it
/// names the same grid.
fn pinned_fingerprint(path: &str, label: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let field = |key: &str| -> Option<String> {
        let rest = &text[text.find(&format!("\"{key}\""))? + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    match (field("instance"), field("fingerprint")) {
        (Some(instance), Some(fingerprint)) if instance == label => Ok(fingerprint),
        (Some(instance), Some(_)) => Err(format!("{path} pins grid {instance}, not {label}")),
        _ => Err(format!("{path} has no instance or fingerprint field")),
    }
}

/// The honest run on cold cache scopes, timed on both cores for
/// [`CONVERGE_WINDOW_S`]; returns every run's time. Each run must
/// converge to the centralized reference and reproduce the report's
/// baseline utilities, when there is a report yet.
fn converge(
    spec: &SweepSpec,
    scenario: &Scenario,
    report: Option<&SweepReport>,
) -> Result<Vec<f64>, String> {
    let baseline = report.map(|r| r.reports().next().map(|r| &r.faithful_utilities));
    let per_thread = on_both_cores(1, CONVERGE_WINDOW_S, |_| {
        let scoped = scenario.with_route_scope(CacheScope::eager());
        let start = Instant::now();
        let run = scoped.run(spec.sweep_seed);
        let secs = start.elapsed().as_secs_f64();
        if run.tables_match_centralized() != Some(true) || run.truncated {
            return Err("the honest baseline must converge to the centralized reference".into());
        }
        if baseline.is_some_and(|b| b != Some(&run.utilities)) {
            return Err("the honest run must reproduce the report's baseline utilities".into());
        }
        Ok::<f64, String>(secs)
    })?;
    Ok(per_thread.concat())
}

/// Re-runs one grid cell, chosen by `seed`, on its own and checks it
/// against the report.
fn spot_check(
    spec: &SweepSpec,
    scenario: &Scenario,
    report: &SweepReport,
    seed: u64,
    out: &mut Outcome,
) {
    let agents = spec.agents();
    let deviations = spec.deviation_count();
    let index = (seed % (agents.len() * deviations) as u64) as usize;
    let (agent, d) = (agents[index / deviations], index % deviations);
    let run = scenario
        .with_route_scope(CacheScope::eager())
        .run_with_deviant(
            NodeId::from_index(agent),
            spec.strategy(agent, d),
            cell_seed(spec.sweep_seed, agent as u64, d as u64),
        );
    let outcome = report.reports().next().and_then(|r| r.outcomes.get(index));
    out.check(
        outcome.is_some_and(|o| {
            o.agent == agent
                && o.deviant_utility == run.utilities[agent]
                && o.detected == run.detected
        }),
        || format!("spot-checked cell {index} (agent {agent}, deviation {d}) disagrees with the report"),
    );
}

/// The untraced run: the honest convergence, set-up and whole sweeps
/// until `seconds` have passed (at least one), the honest convergence
/// again, then the spot check.
///
/// `converge_s` is the lower quartile of the honest runs on both sides
/// of the sweeps. The shared machine runs the same job up to half slower
/// in spells of a few seconds; the lower quartile reads the job's own
/// speed as long as a quarter of the runs miss those spells, which
/// timing it at both ends of the run makes likely.
pub fn run(spec: &SweepSpec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scenario = spec.scenario();
    let before = converge(spec, &scenario, None);
    let mut setup_times = Vec::new();
    let mut units = Vec::new();
    let started = Instant::now();
    while units.is_empty() || started.elapsed().as_secs_f64() < seconds as f64 {
        setup_times.push(both_cores(SETUP_REPS, |w| {
            let start = Instant::now();
            let fixture = setup(spec, &format!("timing{w}"))?;
            let secs = start.elapsed().as_secs_f64();
            drop(fixture);
            Ok::<f64, String>(secs)
        })?);
        let unit = measure(spec, setup(spec, "run")?)?;
        check_report(spec, &unit, &mut out);
        units.push(unit);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    let after = converge(spec, &scenario, Some(&units[0].report));
    let converge_times: Vec<f64> = [before, after]
        .into_iter()
        .filter_map(|times| times.map_err(|problem| out.problems.push(problem)).ok())
        .flatten()
        .collect();
    spot_check(spec, &scenario, &units[0].report, seed, &mut out);

    let cells = spec.agents().len() * spec.deviation_count();
    out.attempted = ((cells + 1) * units.len()) as u64;
    let walls: Vec<f64> = units.iter().map(|u| u.wall).collect();
    let latencies: Vec<f64> = units.iter().flat_map(|u| u.latencies.clone()).collect();
    let (tail_s, tail_pct) = tail(&latencies);
    out.set("setup_s", median(&setup_times));
    out.set("wall_s", median(&walls));
    out.set("cells_per_s", (cells + 1) as f64 / median(&walls));
    out.set("converge_s", lower_quartile(&converge_times));
    out.set(
        "updates_per_s",
        latencies.len() as f64 / latencies.iter().sum::<f64>(),
    );
    out.set("update_p50_ms", median(&latencies) * 1e3);
    out.set("update_tail_ms", tail_s * 1e3);
    out.notes.push(format!(
        "{} sweep(s); cell latency over {} samples: p50 {:.1} ms, p{tail_pct:.1} {:.1} ms",
        units.len(),
        latencies.len(),
        median(&latencies) * 1e3,
        tail_s * 1e3
    ));
    Ok(out)
}

/// One replayed grid cell.
struct CellRecord {
    secs: f64,
    messages: u64,
    truncated: bool,
    restarts: u32,
    halted: bool,
    detected: bool,
    matches: bool,
}

/// The traced run: the untraced sweep for its report, the layer probes,
/// then the cell-by-cell replay.
pub fn traced(spec: &SweepSpec, t: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (unit, _) = t.span("sweep(untraced)", 0, |_| {
        setup(spec, "run").and_then(|fixture| measure(spec, fixture))
    });
    let unit = unit?;
    check_report(spec, &unit, &mut out);
    let scenario = spec.scenario();
    let n = scenario.num_nodes();
    let sources = ReferenceCheck::Full.sources(n);

    let (_, probe_s) = t.span("layers", 0, |root| {
        let (honest, honest_s, cache) =
            layers::honest_run(t, root, &scenario, spec.sweep_seed, &sources, &mut out);
        if spec.mechanism.is_faithful() {
            faithful_overlay(t, root, spec, &honest, honest_s, &mut out);
        }
        layers::crypto(t, root, &mut out);
        seeded_repair(t, root, spec, &scenario, &cache, &sources, &mut out);
    });
    out.notes.push(format!("layer probes took {probe_s:.3} s"));

    if let Some(stats) = &unit.coord {
        coord_metrics(stats, unit.wall, &mut out);
    }
    let (fingerprint_s, _) = t.span("scenario.SweepReport::fingerprint", 0, |_| {
        crate::trace::median_batch(5, || {
            std::hint::black_box(unit.report.to_canonical_json());
            std::hint::black_box(unit.report.fingerprint());
        })
    });
    out.set("scenario.fingerprint_ms", fingerprint_s * 1e3);

    let (records, replay_s) = t.span("sweep.replay", 0, |replay| {
        replay_grid(t, replay, spec, &scenario, &unit.report, &mut out)
    });
    summarize_replay(spec, &records, &mut out);
    out.set("trace.overhead_s", replay_s - unit.wall);
    out.notes.push(format!(
        "replay {replay_s:.3} s against the untraced sweep's {:.3} s",
        unit.wall
    ));
    Ok(out)
}

/// The faithful overlay against the plain mechanism on the same instance.
fn faithful_overlay(
    t: &Tracer,
    parent: SpanId,
    spec: &SweepSpec,
    honest: &RunReport,
    honest_s: f64,
    out: &mut Outcome,
) {
    let plain = SweepSpec {
        mechanism: Mechanism::Plain,
        pin: SweepPin::None,
        ..*spec
    }
    .scenario();
    let (plain_run, _) = t.span("scenario.run(plain twin)", parent, |_| {
        plain
            .with_route_scope(CacheScope::eager())
            .run(spec.sweep_seed)
    });
    out.set(
        "faithful.overlay_msg_ratio",
        honest.stats.msgs_delivered as f64 / plain_run.stats.msgs_delivered.max(1) as f64,
    );
    let bank = plain.num_nodes();
    out.set(
        "faithful.bank_msgs",
        honest.stats.msgs_sent.get(bank).copied().unwrap_or(0) as f64,
    );
    out.set("faithful.honest_run_ms", honest_s * 1e3);
}

/// The cache every misreport cell's reference check reads, repaired
/// from the warm honest cache: `RouteCache::seeded_from` plus every tree
/// of the check sources. Median over evenly spaced misreport cells.
fn seeded_repair(
    t: &Tracer,
    parent: SpanId,
    spec: &SweepSpec,
    scenario: &Scenario,
    honest: &Arc<RouteCache>,
    sources: &[NodeId],
    out: &mut Outcome,
) {
    let costs = scenario.costs();
    let misreports: Vec<_> = spec
        .agents()
        .into_iter()
        .flat_map(|agent| (0..spec.deviation_count()).map(move |d| (agent, d)))
        .filter_map(|(agent, d)| {
            let id = NodeId::from_index(agent);
            let declared = spec.strategy(agent, d).declare_cost(costs.cost(id));
            (declared != costs.cost(id)).then(|| costs.with_cost(id, declared))
        })
        .collect();
    let stride = misreports.len().div_ceil(SEEDED_SAMPLES).max(1);
    let times: Vec<f64> = misreports
        .iter()
        .step_by(stride)
        .map(|declared| {
            let (_, secs) = t.span("graph.RouteCache::seeded_from", parent, |_| {
                let cache = layers::seeded(honest, declared);
                layers::materialize(&cache, sources);
            });
            secs
        })
        .collect();
    out.set("graph.seeded_repair_ms", median(&times) * 1e3);
}

fn coord_metrics(stats: &CoordStats, wall: f64, out: &mut Outcome) {
    let busy: Vec<f64> = stats
        .workers
        .iter()
        .map(|w| w.secs + w.baseline_secs)
        .collect();
    let longest = busy.iter().copied().fold(0.0, f64::max);
    let shortest = busy.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("coord.leases_issued", stats.leases_issued as f64);
    out.set("coord.leases_reissued", stats.leases_reissued as f64);
    out.set("coord.duplicate_results", stats.duplicate_results as f64);
    out.set("coord.corrupt_lines", stats.corrupt_lines as f64);
    out.set(
        "coord.worker_skew",
        if shortest > 0.0 {
            longest / shortest
        } else {
            0.0
        },
    );
    out.set(
        "coord.baseline_dup_s",
        stats.workers.iter().map(|w| w.baseline_secs).sum(),
    );
    out.set("coord.overhead_s", wall - longest);
}

/// Replays the baseline and every cell on `THREADS` threads, each cell a
/// span of its own, and checks each against the report.
fn replay_grid(
    t: &Tracer,
    parent: SpanId,
    spec: &SweepSpec,
    scenario: &Scenario,
    report: &SweepReport,
    out: &mut Outcome,
) -> Vec<CellRecord> {
    let scope = CacheScope::eager();
    let scoped = scenario.with_route_scope(scope.clone());
    let _pin = scope.pin(scenario.topology(), scenario.costs());
    let expected = report.reports().next();
    let (baseline, baseline_s) = t.span("sweep.baseline", parent, |_| scoped.run(spec.sweep_seed));
    out.set("sweep.baseline_ms", baseline_s * 1e3);
    out.check(
        expected.is_some_and(|r| r.faithful_utilities == baseline.utilities),
        || "the replayed baseline disagrees with the report".into(),
    );

    let agents = spec.agents();
    let deviations = spec.deviation_count();
    let cells = agents.len() * deviations;
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<(usize, CellRecord)>> = Mutex::new(Vec::with_capacity(cells));
    thread::scope(|s| {
        for w in 0..THREADS {
            let (next, records, scoped, agents) = (&next, &records, &scoped, &agents);
            thread::Builder::new()
                .name(format!("perfbench-replay-{w}"))
                .spawn_scoped(s, move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= cells {
                        break;
                    }
                    let (agent, d) = (agents[index / deviations], index % deviations);
                    let start = Instant::now();
                    let run = scoped.run_with_deviant(
                        NodeId::from_index(agent),
                        spec.strategy(agent, d),
                        cell_seed(spec.sweep_seed, agent as u64, d as u64),
                    );
                    let end = Instant::now();
                    t.record("sweep.cell", parent, start, end);
                    let matches = expected
                        .and_then(|r| r.outcomes.get(index))
                        .is_some_and(|o| {
                            o.agent == agent
                                && o.deviant_utility == run.utilities[agent]
                                && o.detected == run.detected
                        });
                    let record = CellRecord {
                        secs: (end - start).as_secs_f64(),
                        messages: run.stats.msgs_delivered,
                        truncated: run.truncated,
                        restarts: run.restarts(),
                        halted: run.halted(),
                        detected: run.detected,
                        matches,
                    };
                    records
                        .lock()
                        .expect("replay threads never panic while holding the lock")
                        .push((index, record));
                })
                .expect("spawn a replay thread");
        }
    });
    let mut records = records
        .into_inner()
        .expect("replay threads never panic while holding the lock");
    records.sort_by_key(|(index, _)| *index);
    let mismatched: Vec<usize> = records
        .iter()
        .filter(|(_, r)| !r.matches)
        .map(|(index, _)| *index)
        .collect();
    out.failed += mismatched.len() as u64;
    out.check(mismatched.is_empty(), || {
        format!("replayed cells {mismatched:?} disagree with the report")
    });
    out.attempted = (cells + 1) as u64;
    records.into_iter().map(|(_, r)| r).collect()
}

fn summarize_replay(spec: &SweepSpec, records: &[CellRecord], out: &mut Outcome) {
    let secs: Vec<f64> = records.iter().map(|r| r.secs).collect();
    let total: f64 = secs.iter().sum();
    let truncated: Vec<&CellRecord> = records.iter().filter(|r| r.truncated).collect();
    let truncated_s: f64 = truncated.iter().map(|r| r.secs).sum();
    out.set("sweep.cell_p50_ms", median(&secs) * 1e3);
    out.set(
        "sweep.cell_max_ms",
        secs.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    out.set("sweep.truncated_cells", truncated.len() as f64);
    out.set("sweep.truncated_time_share", truncated_s / total.max(1e-9));
    out.set(
        "sweep.failed_share",
        (truncated.len() as u64 + out.failed) as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "netsim.msgs_per_event",
        records.iter().map(|r| r.messages).sum::<u64>() as f64 / records.len().max(1) as f64,
    );
    if spec.mechanism.is_faithful() {
        out.set(
            "faithful.restarts",
            records.iter().map(|r| u64::from(r.restarts)).sum::<u64>() as f64,
        );
        out.set(
            "faithful.halted_cells",
            records.iter().filter(|r| r.halted).count() as f64,
        );
        out.set(
            "faithful.detected_cells",
            records.iter().filter(|r| r.detected).count() as f64,
        );
    }
    out.notes.push(format!(
        "replayed {} cells: {} truncated ({:.1}% of cell time)",
        records.len(),
        truncated.len(),
        100.0 * truncated_s / total.max(1e-9)
    ));
}
