//! The sweep regression benchmark behind `BENCH_sweep.json` and the CI
//! bench gates.
//!
//! Measures Theorem-1 deviation-sweep throughput on the standard
//! `n = 64` random biconnected instance under the plain mechanism, in two
//! arms on the same machine:
//!
//! * **optimized** — the real `Scenario::sweep_serial` path: run-scoped
//!   `RouteCache` reference tables plus the destination-scoped
//!   incremental recompute on honest nodes;
//! * **reference** — sampled cells through the retained pre-optimization
//!   paths (`run_plain_uncached` per-pair-query tables, and a bench-only
//!   honest strategy that reports `is_faithful() == false` so every node
//!   takes the full-table recompute on every message, exactly as
//!   table-transforming deviants still do).
//!
//! The regression gate compares the **ratio** of the two arms (`speedup`),
//! which is machine-independent: both arms run on the same host in the
//! same process, so host speed and load cancel out.
//!
//! ```sh
//! sweep_bench [--quick | --large | --stream] [--net ideal|shared] [--n N] \
//!             [--out BENCH_sweep.json] [--check baseline.json]
//! sweep_bench [--quick] --shard i/N [--emit-shard-report fragment.json]
//! sweep_bench --merge f0.json f1.json ... [--out merged.json] \
//!             [--expect-fingerprint committed.json] \
//!             [--timing-out timing.json]
//! sweep_bench [--quick] --coordinate N --listen ADDR [--lease-cells K] \
//!             [--lease-timeout-ms MS] [--max-attempts K] [--out merged.json] \
//!             [--expect-fingerprint committed.json] [--expect-reissued N]
//! sweep_bench [--quick] --worker ADDR [--worker-name NAME] [--fault CLAUSE]...
//! ```
//!
//! `--quick` trims the swept catalog (CI-sized run, same instance and
//! mechanics). `--large` switches to the large-`n` smoke (default
//! `n = 1024` uniform-cost scale-free): one honest run, one
//! agent-sampled quick sweep, and a cached-vs-uncached reference-table
//! ratio over sampled sources (the uncached arm at full `n` would take
//! hours). `--check` exits nonzero when the measured speedup falls more
//! than 20% below the committed baseline's.
//!
//! `--stream` measures the streaming service mode
//! ([`Scenario::stream_session`]): checkpoint each preset at its
//! converged fixed point, stream a deterministic sequence of single-node
//! cost re-declarations, and report **updates/sec** — incremental
//! re-convergence plus per-event reference re-verification — against a
//! cold-rebuild arm that reconverges the whole network from scratch at
//! sampled points of the same sequence (asserting the streamed tables
//! byte-identical to the cold fixed point at each sample). Two presets,
//! both under the ideal network: the standard `n = 64` random
//! biconnected instance (full reference check) and the `n = 1024`
//! uniform-cost scale-free large preset (sampled reference check, as in
//! `--large`). The gate compares each preset's incremental-vs-cold
//! speedup ratio — machine-independent like the sweep gate — against
//! `crates/bench/baselines/BENCH_sweep_stream.json` with the same >20%
//! floor and exit-code scheme.
//!
//! # Distributed (sharded) sweeps
//!
//! `--shard i/N` runs shard `i` of an `N`-way partition of the standard
//! `n = 64` sweep grid (the same grid the `--quick`/full optimized arm
//! sweeps, ideal network only) and writes a
//! [`SweepFragment`] JSON document —
//! the shard manifest plus evaluated cells and a per-shard timing
//! summary — to `--emit-shard-report` (default
//! `BENCH_sweep_shard_<i>of<N>.json`). Shard mode measures nothing
//! against a reference arm and is never gated; it exists to fan the grid
//! out across processes or machines. See the `specfaith-bench` crate
//! docs for the fragment format.
//!
//! `--merge` reads fragment files (in any order), recombines them with
//! [`SweepFragment::merge`](specfaith::scenario::SweepFragment::merge) —
//! refusing incomplete, overlapping, or cross-instance fragment sets —
//! prints the per-shard skew table, and writes the merged report (with
//! its `fnv1a64` content fingerprint) to `--out` (default
//! `SWEEP_merged.json`). With `--expect-fingerprint`, the merged
//! report's fingerprint is compared against the committed one
//! (`crates/bench/baselines/SWEEP_fingerprint_quick.json` in CI): any
//! divergence — a nondeterministic cell, a stale baseline, a changed
//! grid — fails the run. The merged report is byte-identical to the
//! single-process sweep, so the fingerprint gate proves the sharding
//! contract end to end on every PR. `--timing-out` additionally writes
//! the per-shard timing summary (cells, wall seconds, cells/s, baseline
//! seconds per shard) as its own small JSON document — CI uploads it as
//! an artifact so shard skew is inspectable without downloading the full
//! merged report.
//!
//! # Live coordination (work stealing)
//!
//! Where `--shard`/`--merge` partition the grid *statically* up front,
//! `--coordinate N --listen ADDR` serves the same grid *dynamically*:
//! the coordinator splits the cells into small contiguous leases and
//! `--worker ADDR` processes pull them as fast as they finish, so a slow
//! or killed worker's share flows to the others (see the coordinator
//! subsection of the `specfaith-bench` crate docs and the README for the
//! `specfaith-coord-v1` frame protocol and lease/retry semantics).
//! `ADDR` is `unix:<path>` or `tcp:<host>:<port>`. The coordinator
//! merges through the same [`SweepFragment::merge`] semantics as
//! `--merge`, so the final report and its fingerprint are byte-identical
//! to the monolithic sweep regardless of worker count, scheduling, or
//! mid-run failures; `--expect-fingerprint` gates exactly as in
//! `--merge`, and `--expect-reissued N` additionally asserts that at
//! least `N` leases were observably re-issued (CI's scripted
//! worker-kill check). `--fault` clauses inject deterministic worker
//! failures — `kill-after-cells=K`, `hang-after-cells=K`,
//! `delay-per-cell-ms=MS`, `delay-result=N:MS`, `duplicate-result=N`,
//! `corrupt-result=N` — for drills and tests; a fault-plan ending is a
//! scripted outcome, so the worker still exits `0`.
//!
//! # Exit codes
//!
//! * `0` — success.
//! * `1` — gate failure: measured speedup fell below the committed
//!   floor, the merged fingerprint diverged from the committed one, or
//!   `--expect-reissued` saw fewer re-issued leases than promised.
//! * `2` — usage, I/O, or malformed-input errors (bad flags, unreadable,
//!   incomplete or mismatched `--check` baselines and fingerprint files —
//!   a missing key is named, never skipped — unparsable fragments, bind
//!   or connect failures, a worker rejected at `hello`, a coordinator
//!   with no workers). Distinct from `1` so CI can tell "the gate
//!   tripped" from "the gate never ran".
//! * `3` — fragment merge conflict (missing/duplicate shards or cells,
//!   cross-instance mixes, baseline disagreements), a lease exhausting
//!   its retry budget, or a worker told `abort` by a failing
//!   coordinator.
//!
//! `--net shared` runs both arms under the congested fair-sharing
//! network preset ([`NetModel::congested`]) instead of the ideal model —
//! a data point for how much of the sweep's cost is protocol work vs
//! network simulation. Because every shared-net cell simulates byte-level
//! contention (fair-sharing re-schedules scale with concurrent flights,
//! orders of magnitude more event churn than Ideal at `n = 64`), the
//! shared optimized arm samples agents like the `--large` smoke instead
//! of sweeping all `n` deviants; the JSON's `cells` and `sampled_agents`
//! fields record the grid actually run. Under [`NetModel::congested`]'s
//! 1 MB/s links this instance's routing chatter outruns serialization
//! (congestion collapse: the queue grows without bound and tables never
//! converge), so every shared-net cell runs to the `MAX_EVENTS` budget —
//! the arms compare throughput at the same budget rather than to
//! convergence. Shared-net numbers are recorded but **never gated**: the
//! regression gate only applies to `--net ideal` (the default), because
//! the shared model's re-scheduling load makes the ratio sensitive to
//! traffic shape, not just caching.

use specfaith::scenario::{
    cell_seed, run_worker, Catalog, CoordAddr, CoordConfig, CoordError, CoordListener, Coordinator,
    CostModel, FaultPlan, Json, Mechanism, NetModel, ReferenceCheck, Scenario, ScenarioBuilder,
    ShardSpec, StreamStatus, SweepFragment, TopologyEvent, TopologySource, TrafficModel,
    WorkerConfig, WorkerError,
};
use specfaith_bench::instance;
use specfaith_core::id::NodeId;
use specfaith_fpss::deviation::{standard_catalog, FullRecomputeFaithful, MisreportCost};
use specfaith_fpss::pricing::{expected_tables_for, expected_tables_uncached_for};
use specfaith_fpss::runner::{run_plain_uncached, RunConfig};
use specfaith_graph::cache::RouteCache;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const N: usize = 64;
const INSTANCE_SEED: u64 = 2004;
const SWEEP_SEED: u64 = 7;
/// Node count of the `--large` smoke (overridable with `--n`).
const LARGE_N: usize = 1024;
/// Instance seed of the large smoke (a distinct trajectory from the
/// standard n=64 instance).
const LARGE_INSTANCE_SEED: u64 = 2026;
/// Sources measured by the large mode's cached arm.
const LARGE_CACHED_SOURCES: usize = 64;
/// Sources measured by the large mode's uncached reference arm (a full
/// uncached source costs seconds even alone; all `n` would take hours).
const LARGE_REFERENCE_SOURCES: usize = 2;
/// Event budget per cell. Construction-corrupting deviants (spoofed
/// routes, dropped forwards) keep the routing iteration churning and
/// would otherwise run to the 5M-event engine default, dominating the
/// measurement; honest convergence on this instance takes ~160k events,
/// so the cap bounds pathological cells without touching the honest path.
const MAX_EVENTS: u64 = 600_000;
/// Catalog size swept in `--quick` mode (full mode sweeps all 13).
const QUICK_DEVIATIONS: usize = 2;
/// Agents swept under `--net shared` (node 0 and the last node, the
/// same sampling shape as the `--large` smoke): a full `n`-deviant grid
/// under fair-sharing contention would take hours per arm.
const SHARED_AGENTS: [usize; 2] = [0, N - 1];
/// Reference-arm sample cells: quick = 1 (the honest baseline cell),
/// full = 2 (baseline + one deviation cell).
const QUICK_REFERENCE_CELLS: usize = 1;
const FULL_REFERENCE_CELLS: usize = 2;
/// Cost re-declaration events streamed per `--stream` preset.
const STREAM_EVENTS_N64: usize = 64;
const STREAM_EVENTS_N1024: usize = 8;
/// Cold-rebuild samples per `--stream` preset: each is a full
/// from-scratch convergence plus reference verification (the work
/// streaming avoids), so the cold arm samples the event sequence
/// instead of replaying all of it — at `n = 1024` one cold rebuild
/// takes minutes.
const STREAM_COLD_RUNS_N64: usize = 8;
const STREAM_COLD_RUNS_N1024: usize = 1;

/// The one-screen usage summary printed (to stderr) with every argument
/// error, so a bad invocation in CI is self-explaining.
const USAGE: &str = "\
usage: sweep_bench [--quick | --large | --stream] [--net ideal|shared] [--n N]
                   [--out PATH] [--check baseline.json]
       sweep_bench [--quick] --shard i/N [--emit-shard-report fragment.json]
       sweep_bench --merge f0.json f1.json ... [--out merged.json]
                   [--expect-fingerprint committed.json] [--timing-out timing.json]
       sweep_bench [--quick] --coordinate N --listen ADDR [--lease-cells K]
                   [--lease-timeout-ms MS] [--max-attempts K] [--out merged.json]
                   [--expect-fingerprint committed.json] [--expect-reissued N]
       sweep_bench [--quick] --worker ADDR [--worker-name NAME] [--fault CLAUSE]...
ADDR is unix:<path> or tcp:<host>:<port>. Fault clauses: kill-after-cells=K,
hang-after-cells=K, delay-per-cell-ms=MS, delay-result=N:MS, duplicate-result=N,
corrupt-result=N.";

#[derive(Debug)]
struct Args {
    quick: bool,
    large: bool,
    stream: bool,
    net: String,
    n: Option<usize>,
    out: Option<String>,
    check: Option<String>,
    shard: Option<ShardSpec>,
    emit_shard_report: Option<String>,
    merge: Vec<String>,
    expect_fingerprint: Option<String>,
    timing_out: Option<String>,
    coordinate: Option<usize>,
    listen: Option<String>,
    worker: Option<String>,
    worker_name: Option<String>,
    faults: Vec<String>,
    lease_cells: Option<usize>,
    lease_timeout_ms: Option<u64>,
    max_attempts: Option<u32>,
    expect_reissued: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    parse_args_from(std::env::args().skip(1))
}

/// The whole argument grammar, fed an explicit iterator so the
/// validation paths are unit-testable without spawning processes.
fn parse_args_from(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        large: false,
        stream: false,
        net: "ideal".to_string(),
        n: None,
        out: None,
        check: None,
        shard: None,
        emit_shard_report: None,
        merge: Vec::new(),
        expect_fingerprint: None,
        timing_out: None,
        coordinate: None,
        listen: None,
        worker: None,
        worker_name: None,
        faults: Vec::new(),
        lease_cells: None,
        lease_timeout_ms: None,
        max_attempts: None,
        expect_reissued: None,
    };
    let mut it = raw.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--large" => args.large = true,
            "--stream" => args.stream = true,
            "--net" => args.net = it.next().ok_or("--net needs ideal|shared")?,
            "--n" => {
                args.n = Some(
                    it.next()
                        .ok_or("--n needs a count")?
                        .parse()
                        .map_err(|e| format!("--n: {e}"))?,
                )
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--check" => args.check = Some(it.next().ok_or("--check needs a path")?),
            "--shard" => {
                args.shard = Some(ShardSpec::parse(
                    &it.next().ok_or("--shard needs an i/N spec")?,
                )?)
            }
            "--emit-shard-report" => {
                args.emit_shard_report = Some(it.next().ok_or("--emit-shard-report needs a path")?)
            }
            "--merge" => {
                while let Some(path) = it.peek() {
                    if path.starts_with("--") {
                        break;
                    }
                    args.merge.push(it.next().expect("peeked"));
                }
                if args.merge.is_empty() {
                    return Err("--merge needs one or more fragment paths".into());
                }
            }
            "--expect-fingerprint" => {
                args.expect_fingerprint =
                    Some(it.next().ok_or("--expect-fingerprint needs a path")?)
            }
            "--timing-out" => args.timing_out = Some(it.next().ok_or("--timing-out needs a path")?),
            "--coordinate" => {
                let count: usize = it
                    .next()
                    .ok_or("--coordinate needs a worker count")?
                    .parse()
                    .map_err(|e| format!("--coordinate: {e}"))?;
                if count == 0 {
                    return Err("--coordinate needs at least one worker".into());
                }
                args.coordinate = Some(count);
            }
            "--listen" => args.listen = Some(it.next().ok_or("--listen needs an address")?),
            "--worker" => args.worker = Some(it.next().ok_or("--worker needs an address")?),
            "--worker-name" => {
                args.worker_name = Some(it.next().ok_or("--worker-name needs a name")?)
            }
            "--fault" => {
                let clause = it.next().ok_or("--fault needs a key=value clause")?;
                // Validate now so a typo fails before any work starts.
                FaultPlan::none().apply(&clause)?;
                args.faults.push(clause);
            }
            "--lease-cells" => {
                let cells: usize = it
                    .next()
                    .ok_or("--lease-cells needs a count")?
                    .parse()
                    .map_err(|e| format!("--lease-cells: {e}"))?;
                if cells == 0 {
                    return Err("--lease-cells must be at least 1".into());
                }
                args.lease_cells = Some(cells);
            }
            "--lease-timeout-ms" => {
                args.lease_timeout_ms = Some(
                    it.next()
                        .ok_or("--lease-timeout-ms needs milliseconds")?
                        .parse()
                        .map_err(|e| format!("--lease-timeout-ms: {e}"))?,
                )
            }
            "--max-attempts" => {
                let attempts: u32 = it
                    .next()
                    .ok_or("--max-attempts needs a count")?
                    .parse()
                    .map_err(|e| format!("--max-attempts: {e}"))?;
                if attempts == 0 {
                    return Err("--max-attempts must be at least 1".into());
                }
                args.max_attempts = Some(attempts);
            }
            "--expect-reissued" => {
                args.expect_reissued = Some(
                    it.next()
                        .ok_or("--expect-reissued needs a count")?
                        .parse()
                        .map_err(|e| format!("--expect-reissued: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if (args.quick as u8) + (args.large as u8) + (args.stream as u8) > 1 {
        return Err("--quick, --large, and --stream are mutually exclusive".into());
    }
    if !matches!(args.net.as_str(), "ideal" | "shared") {
        return Err(format!("--net must be ideal or shared, got {}", args.net));
    }
    if args.large && args.net != "ideal" {
        return Err("--large only supports --net ideal".into());
    }
    if args.stream {
        if args.net != "ideal" {
            return Err("--stream only supports --net ideal".into());
        }
        if args.n.is_some() {
            return Err("--stream runs fixed n=64 and n=1024 presets; drop --n".into());
        }
        if args.shard.is_some() {
            return Err("--stream excludes --shard".into());
        }
    }
    if !args.merge.is_empty()
        && (args.quick || args.large || args.stream || args.shard.is_some() || args.check.is_some())
    {
        return Err("--merge takes only --out, --expect-fingerprint, and --timing-out".into());
    }
    if args.expect_fingerprint.is_some() && args.merge.is_empty() && args.coordinate.is_none() {
        return Err("--expect-fingerprint only applies to --merge and --coordinate".into());
    }
    if args.timing_out.is_some() && args.merge.is_empty() {
        return Err("--timing-out only applies to --merge".into());
    }
    if args.shard.is_some() {
        if args.large {
            return Err("--shard applies to the n=64 grid; it excludes --large".into());
        }
        if args.net != "ideal" {
            return Err("--shard only supports --net ideal".into());
        }
        if args.check.is_some() {
            return Err("--shard runs are never gated; drop --check".into());
        }
    }
    if args.emit_shard_report.is_some() && args.shard.is_none() {
        return Err("--emit-shard-report only applies to --shard".into());
    }
    if args.coordinate.is_some() && args.worker.is_some() {
        return Err("--coordinate and --worker are mutually exclusive".into());
    }
    if args.coordinate.is_some() || args.worker.is_some() {
        let role = if args.coordinate.is_some() {
            "--coordinate"
        } else {
            "--worker"
        };
        if args.large || args.stream {
            return Err(format!(
                "{role} runs the n=64 grid; it excludes --large/--stream"
            ));
        }
        if args.shard.is_some() || !args.merge.is_empty() {
            return Err(format!("{role} excludes --shard and --merge"));
        }
        if args.net != "ideal" {
            return Err(format!("{role} only supports --net ideal"));
        }
        if args.check.is_some() {
            return Err(format!(
                "{role} runs are gated by --expect-fingerprint; drop --check"
            ));
        }
    }
    if args.coordinate.is_some() && args.listen.is_none() {
        return Err("--coordinate needs --listen ADDR".into());
    }
    if args.listen.is_some() && args.coordinate.is_none() {
        return Err("--listen only applies to --coordinate".into());
    }
    if (args.worker_name.is_some() || !args.faults.is_empty()) && args.worker.is_none() {
        return Err("--worker-name and --fault only apply to --worker".into());
    }
    if (args.lease_cells.is_some()
        || args.lease_timeout_ms.is_some()
        || args.max_attempts.is_some()
        || args.expect_reissued.is_some())
        && args.coordinate.is_none()
    {
        return Err(
            "--lease-cells, --lease-timeout-ms, --max-attempts, and --expect-reissued \
             only apply to --coordinate"
                .into(),
        );
    }
    Ok(args)
}

/// The `--large` smoke: an honest run plus an agent-sampled quick sweep
/// on the `n ≥ 1024` uniform-cost scale-free preset, and the
/// cached-vs-uncached reference-table ratio over sampled sources.
/// Returns `(speedup, json)`.
fn run_large(n: usize) -> (f64, String) {
    let scenario = ScenarioBuilder::large_scale_free(n)
        .costs(CostModel::Uniform(1))
        .instance_seed(LARGE_INSTANCE_SEED)
        .build();

    // Arm 1: the honest run (construction + sampled reference check).
    eprintln!("sweep_bench[large]: honest run at n={n}...");
    let started = Instant::now();
    let run = scenario.run(SWEEP_SEED);
    let honest_secs = started.elapsed().as_secs_f64();
    assert!(!run.truncated, "honest large-n run must converge in budget");
    assert_eq!(
        run.tables_match_centralized(),
        Some(true),
        "honest large-n run must match the centralized reference"
    );

    // Arm 2: the quick sweep — two sampled agents (a seed-clique hub and
    // the latest attachment) under one misreport deviation, in parallel.
    let catalog = Catalog::from_factory(|_| vec![Box::new(MisreportCost { delta: 5 })]);
    let agents = [0usize, n - 1];
    let sweep_cells = 1 + agents.len() * catalog.len();
    eprintln!("sweep_bench[large]: quick sweep — {sweep_cells} cells (incl. baseline)...");
    let started = Instant::now();
    let report = scenario.sweep_sampled(&[SWEEP_SEED], &catalog, &agents);
    let sweep_secs = started.elapsed().as_secs_f64();
    assert_eq!(report.total_deviations(), agents.len() * catalog.len());

    // Arm 3: the gated ratio — reference-table construction per source,
    // cached (sparse avoid-tree index, one scoped cache) vs uncached
    // (per-pair-query full recomputes), on sampled sources.
    let (topo, costs) = (scenario.topology(), scenario.costs());
    let cached_sources = ReferenceCheck::Sampled {
        sources: LARGE_CACHED_SOURCES,
    }
    .sources(n);
    eprintln!(
        "sweep_bench[large]: cached arm — {} reference sources...",
        cached_sources.len()
    );
    let started = Instant::now();
    let routes = RouteCache::new(topo.clone(), costs.clone());
    for &src in &cached_sources {
        let _ = expected_tables_for(&routes, src);
    }
    let cached_secs = started.elapsed().as_secs_f64();
    let cached_sps = cached_sources.len() as f64 / cached_secs;
    let avoid_trees = routes.avoid_trees_cached();
    assert!(
        avoid_trees < n * n / 4,
        "sparse avoid index must stay far below the n² worst case \
         ({avoid_trees} slots at n={n})"
    );

    let reference_sources = ReferenceCheck::Sampled {
        sources: LARGE_REFERENCE_SOURCES,
    }
    .sources(n);
    eprintln!(
        "sweep_bench[large]: reference arm — {} uncached sources...",
        reference_sources.len()
    );
    let started = Instant::now();
    for &src in &reference_sources {
        let _ = expected_tables_uncached_for(topo, costs, src);
    }
    let reference_secs = started.elapsed().as_secs_f64();
    let reference_sps = reference_sources.len() as f64 / reference_secs;

    let speedup = cached_sps / reference_sps;
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"mode\": \"large\",\n  \"n\": {n},\n  \
         \"instance_seed\": {LARGE_INSTANCE_SEED},\n  \"sweep_seed\": {SWEEP_SEED},\n  \
         \"honest_secs\": {honest_secs:.3},\n  \"honest_msgs\": {honest_msgs},\n  \
         \"sweep_cells\": {sweep_cells},\n  \"sweep_secs\": {sweep_secs:.3},\n  \
         \"avoid_trees_cached\": {avoid_trees},\n  \
         \"cached_sources\": {cached_count},\n  \"cached_secs\": {cached_secs:.3},\n  \
         \"cached_sources_per_sec\": {cached_sps:.4},\n  \
         \"reference_sources\": {reference_count},\n  \
         \"reference_secs\": {reference_secs:.3},\n  \
         \"reference_sources_per_sec\": {reference_sps:.4},\n  \"speedup\": {speedup:.2}\n}}\n",
        honest_msgs = run.stats.total_msgs(),
        cached_count = cached_sources.len(),
        reference_count = reference_sources.len(),
    );
    println!(
        "sweep_bench[large]: honest {honest_secs:.1}s, sweep {sweep_secs:.1}s \
         ({sweep_cells} cells), cached {cached_sps:.2} src/s vs reference \
         {reference_sps:.4} src/s, speedup {speedup:.1}x"
    );
    (speedup, json)
}

/// One `--stream` preset's measurement: incremental updates/sec through
/// a live [`StreamSession`](specfaith::scenario::StreamSession) vs cold
/// from-scratch reconvergence, with the byte-identity pin asserted at
/// every cold sample.
struct StreamArm {
    events: usize,
    inc_secs: f64,
    updates_per_sec: f64,
    stream_msgs: u64,
    cold_runs: usize,
    cold_secs: f64,
    cold_updates_per_sec: f64,
    speedup: f64,
}

fn stream_preset(
    label: &str,
    scenario: &Scenario,
    reference: ReferenceCheck,
    events: usize,
    cold_runs: usize,
) -> StreamArm {
    use specfaith_fpss::deviation::Faithful;
    use specfaith_fpss::runner::{Plain, RunState};
    let n = scenario.num_nodes();
    eprintln!("sweep_bench[stream/{label}]: checkpointing at the converged fixed point...");
    let mut session = scenario.stream_session(SWEEP_SEED);
    // Cold samples spread evenly across the sequence (always including
    // the last event, so the final fixed point is pinned).
    let stride = events.div_ceil(cold_runs);
    let mut inc_secs = 0.0;
    let mut cold_secs = 0.0;
    let mut cold_done = 0usize;
    let mut stream_msgs = 0u64;
    eprintln!(
        "sweep_bench[stream/{label}]: streaming {events} cost re-declarations \
         ({cold_runs} cold-rebuild samples)..."
    );
    for i in 0..events {
        // A deterministic walk over (node, cost): no two consecutive
        // events touch the same node, costs cycle through 1..=20.
        let event = TopologyEvent::NodeCost {
            node: NodeId::from_index((i * 37 + 11) % n),
            cost: 1 + ((i * 13) % 20) as u64,
        };
        let started = Instant::now();
        let outcome = session.apply_event(&event);
        inc_secs += started.elapsed().as_secs_f64();
        assert_eq!(outcome.status, StreamStatus::Applied, "event {i}");
        assert_eq!(
            outcome.verified,
            Some(true),
            "event {i}: streamed fixed point must re-verify against the reference"
        );
        stream_msgs += outcome.messages;
        if (i + 1) % stride == 0 || i + 1 == events {
            // The cold arm: a from-scratch checkpoint on the updated
            // declarations — construction flood plus reference
            // verification with a cold cache, exactly what one event
            // costs without the streaming engine. Byte-identity is
            // pinned at every sample.
            let mut cold_cfg = RunConfig::new(
                scenario.topology().clone(),
                session.declared().clone(),
                scenario.traffic().clone(),
            );
            cold_cfg.max_events = Some(1_000_000_000);
            cold_cfg.reference_check = reference.clone();
            let started = Instant::now();
            let cold = RunState::checkpoint(
                &cold_cfg,
                Plain,
                |_| Box::new(Faithful),
                SWEEP_SEED + 1 + i as u64,
            );
            cold_secs += started.elapsed().as_secs_f64();
            cold_done += 1;
            assert!(
                cold.tables_match_centralized(),
                "event {i}: cold rebuild must verify"
            );
            assert_eq!(
                session.table_digests(),
                cold.table_digests(),
                "event {i}: streamed tables must be byte-identical to the cold fixed point"
            );
        }
    }
    let updates_per_sec = events as f64 / inc_secs;
    let cold_updates_per_sec = cold_done as f64 / cold_secs;
    let speedup = updates_per_sec / cold_updates_per_sec;
    println!(
        "sweep_bench[stream/{label}]: {updates_per_sec:.1} updates/s incremental vs \
         {cold_updates_per_sec:.2} updates/s cold, speedup {speedup:.1}x \
         ({events} events, {stream_msgs} msgs, {cold_done} cold samples)"
    );
    StreamArm {
        events,
        inc_secs,
        updates_per_sec,
        stream_msgs,
        cold_runs: cold_done,
        cold_secs,
        cold_updates_per_sec,
        speedup,
    }
}

/// The `--stream` mode: both presets, their JSON record, and the pair of
/// gated speedups.
fn run_stream() -> ((f64, f64), String) {
    let inst = instance(N, INSTANCE_SEED);
    let small = Scenario::builder()
        .topology(TopologySource::Explicit(inst.topo))
        .costs(CostModel::Explicit(inst.costs))
        .traffic(TrafficModel::Flows(inst.traffic.flows().to_vec()))
        .mechanism(Mechanism::Plain)
        .max_events(MAX_EVENTS)
        .build();
    let n64 = stream_preset(
        "n64",
        &small,
        ReferenceCheck::Full,
        STREAM_EVENTS_N64,
        STREAM_COLD_RUNS_N64,
    );

    // The same instance as the --large smoke: uniform-cost scale-free,
    // sampled reference check.
    let large = ScenarioBuilder::large_scale_free(LARGE_N)
        .costs(CostModel::Uniform(1))
        .instance_seed(LARGE_INSTANCE_SEED)
        .build();
    let n1024 = stream_preset(
        "n1024",
        &large,
        ReferenceCheck::Sampled { sources: 64 },
        STREAM_EVENTS_N1024,
        STREAM_COLD_RUNS_N1024,
    );

    let arm_json = |n: usize, arm: &StreamArm| {
        format!(
            "\"n{n}_events\": {},\n  \"n{n}_inc_secs\": {:.3},\n  \
             \"n{n}_updates_per_sec\": {:.2},\n  \"n{n}_stream_msgs\": {},\n  \
             \"n{n}_cold_runs\": {},\n  \"n{n}_cold_secs\": {:.3},\n  \
             \"n{n}_cold_updates_per_sec\": {:.4},\n  \"n{n}_speedup\": {:.2}",
            arm.events,
            arm.inc_secs,
            arm.updates_per_sec,
            arm.stream_msgs,
            arm.cold_runs,
            arm.cold_secs,
            arm.cold_updates_per_sec,
            arm.speedup,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"mode\": \"stream\",\n  \"net\": \"ideal\",\n  \
         \"instance_seed\": {INSTANCE_SEED},\n  \
         \"large_instance_seed\": {LARGE_INSTANCE_SEED},\n  \"sweep_seed\": {SWEEP_SEED},\n  \
         {},\n  {}\n}}\n",
        arm_json(N, &n64),
        arm_json(LARGE_N, &n1024),
    );
    ((n64.speedup, n1024.speedup), json)
}

/// The `--stream` gate: each preset's incremental-vs-cold speedup must
/// stay within 20% of its committed baseline (same floor and exit codes
/// as [`check_gate`], applied per preset).
fn check_stream_gate(baseline_path: &str, speedups: (f64, f64)) -> ExitCode {
    let baselines = match load_stream_baselines(baseline_path) {
        Ok(baselines) => baselines,
        Err(message) => {
            eprintln!("sweep_bench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for ((key, baseline), measured) in baselines.into_iter().zip([speedups.0, speedups.1]) {
        let floor = baseline * 0.8;
        if measured < floor {
            eprintln!(
                "sweep_bench: REGRESSION — {key} {measured:.1}x fell below {floor:.1}x \
                 (80% of the committed baseline {baseline:.1}x)"
            );
            failed = true;
        } else {
            println!(
                "sweep_bench: gate passed — {key} {measured:.1}x >= {floor:.1}x \
                 (80% of baseline {baseline:.1}x)"
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Loads the committed `--stream` baseline: `(key, speedup)` for the
/// n=64 and n=1024 presets, after checking the file's mode.
fn load_stream_baselines(baseline_path: &str) -> Result<[(String, f64); 2], String> {
    let doc = read_baseline(baseline_path, "--stream ")?;
    let baseline_mode = str_field(&doc, baseline_path, "mode")?;
    if baseline_mode != "stream" {
        return Err(format!(
            "baseline {baseline_path} is mode {baseline_mode:?}, run is mode \"stream\""
        ));
    }
    let key = |n: usize| format!("n{n}_speedup");
    Ok([
        (key(N), num_field(&doc, baseline_path, &key(N))?),
        (key(LARGE_N), num_field(&doc, baseline_path, &key(LARGE_N))?),
    ])
}

/// Reads and parses a committed gate baseline. A missing or unreadable
/// file is a setup defect; the message names the path and the
/// `sweep_bench {flag}--out` run that regenerates it.
fn read_baseline(baseline_path: &str, flag: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(baseline_path).map_err(|error| {
        format!(
            "cannot read gate baseline {baseline_path}: {error}\n\
             sweep_bench: expected a committed baseline at that path; generate one on a quiet \
             machine with `sweep_bench {flag}--out {baseline_path}` and commit it"
        )
    })?;
    Json::parse(&text).map_err(|error| format!("baseline {baseline_path} is not JSON: {error}"))
}

/// The string under `key` in a committed file, failing closed: a
/// missing key or a non-string value names the file and the key.
fn str_field<'a>(doc: &'a Json, path: &str, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(|value| value.as_str(key))
        .map_err(|error| format!("{path}: {error}"))
}

/// The number under `key` in a committed file, failing closed like
/// [`str_field`].
fn num_field(doc: &Json, path: &str, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(|value| value.as_f64(key))
        .map_err(|error| format!("{path}: {error}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sweep_bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.merge.is_empty() {
        return run_merge(&args);
    }
    let mode = if args.large {
        "large"
    } else if args.stream {
        "stream"
    } else if args.quick {
        "quick"
    } else {
        "full"
    };
    if args.stream {
        let (speedups, json) = run_stream();
        let out = args.out.as_deref().unwrap_or("BENCH_sweep_stream.json");
        if let Err(error) = std::fs::write(out, &json) {
            eprintln!("sweep_bench: cannot write {out}: {error}");
            return ExitCode::from(2);
        }
        println!("sweep_bench[stream]: wrote {out}");
        return match args.check {
            Some(baseline_path) => check_stream_gate(&baseline_path, speedups),
            None => ExitCode::SUCCESS,
        };
    }
    if args.large {
        let n = args.n.unwrap_or(LARGE_N);
        let (speedup, json) = run_large(n);
        let out = args.out.as_deref().unwrap_or("BENCH_sweep_large.json");
        if let Err(error) = std::fs::write(out, &json) {
            eprintln!("sweep_bench: cannot write {out}: {error}");
            return ExitCode::from(2);
        }
        println!("sweep_bench[large]: wrote {out}");
        return match args.check {
            Some(baseline_path) => check_gate(&baseline_path, mode, None, n, speedup),
            None => ExitCode::SUCCESS,
        };
    }
    let net_model = if args.net == "shared" {
        NetModel::congested()
    } else {
        NetModel::Ideal
    };
    let inst = instance(N, INSTANCE_SEED);
    let scenario = Scenario::builder()
        .topology(TopologySource::Explicit(inst.topo.clone()))
        .costs(CostModel::Explicit(inst.costs.clone()))
        .traffic(TrafficModel::Flows(inst.traffic.flows().to_vec()))
        .mechanism(Mechanism::Plain)
        .network(net_model.clone())
        .max_events(MAX_EVENTS)
        .build();
    let deviations = if args.quick {
        QUICK_DEVIATIONS
    } else {
        standard_catalog(NodeId::new(0)).len()
    };
    let catalog = Catalog::from_factory(move |deviant| {
        standard_catalog(deviant)
            .into_iter()
            .take(deviations)
            .collect()
    });

    if let Some(shard) = args.shard {
        return run_shard(&scenario, &catalog, shard, mode, args.emit_shard_report);
    }
    if args.coordinate.is_some() {
        return run_coordinate(&args, &scenario, &catalog, mode);
    }
    if args.worker.is_some() {
        return run_worker_cli(&args, &scenario, &catalog, mode);
    }

    // Optimized arm: the real serial sweep (serial so the gated ratio does
    // not conflate caching with core count). The ungated shared-net
    // variant samples agents instead (see the module docs) — contention
    // simulation makes full-grid cells far too slow.
    let sampled: Option<&[usize]> = (args.net == "shared").then_some(&SHARED_AGENTS[..]);
    let cells = 1 + sampled.map_or(N, <[usize]>::len) * catalog.len();
    eprintln!(
        "sweep_bench[{mode}/{net}]: optimized arm — {cells} cells at n={N}...",
        net = args.net
    );
    let started = Instant::now();
    let report = match sampled {
        Some(agents) => scenario.sweep_sampled(&[SWEEP_SEED], &catalog, agents),
        None => scenario.sweep_serial(&[SWEEP_SEED], &catalog),
    };
    let cached_secs = started.elapsed().as_secs_f64();
    let cached_cps = cells as f64 / cached_secs;
    assert_eq!(report.per_seed.len(), 1, "one seed in, one report out");

    // Reference arm: sampled cells on the retained pre-optimization paths.
    let mut config = RunConfig::new(inst.topo.clone(), inst.costs.clone(), inst.traffic.clone());
    config.max_events = Some(MAX_EVENTS);
    // Both arms must simulate the same network for the ratio to isolate
    // the caching difference.
    config.network = net_model;
    let reference_cells = if args.quick {
        QUICK_REFERENCE_CELLS
    } else {
        FULL_REFERENCE_CELLS
    };
    eprintln!(
        "sweep_bench[{mode}/{net}]: reference arm — {reference_cells} sampled cell(s)...",
        net = args.net
    );
    let started = Instant::now();
    // Cell 1: the honest baseline, every node on the full-recompute path.
    let baseline = run_plain_uncached(&config, |_| Box::new(FullRecomputeFaithful), SWEEP_SEED);
    // Convergence is only expected under the ideal network; shared-net
    // cells are event-budget-bound by design (see the module docs), so
    // the arms compare throughput at the same budget instead.
    if args.net == "ideal" {
        assert_eq!(
            baseline.tables_match_centralized(),
            Some(true),
            "reference baseline must converge to the centralized tables"
        );
    }
    if reference_cells > 1 {
        // Cell 2: agent 0 playing deviation 0, everyone else honest on the
        // full-recompute path — a representative deviation cell.
        let deviant = NodeId::new(0);
        let mut strategy = standard_catalog(deviant).into_iter().next();
        let _ = run_plain_uncached(
            &config,
            |node| {
                if node == deviant {
                    strategy.take().expect("used once")
                } else {
                    Box::new(FullRecomputeFaithful)
                }
            },
            cell_seed(SWEEP_SEED, 0, 0),
        );
    }
    let uncached_secs = started.elapsed().as_secs_f64();
    let uncached_cps = reference_cells as f64 / uncached_secs;

    let speedup = cached_cps / uncached_cps;
    let sampling = match sampled {
        Some(agents) => format!("\"sampled_agents\": {},\n  ", agents.len()),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"mode\": \"{mode}\",\n  \"net\": \"{net}\",\n  \
         \"n\": {N},\n  \
         \"instance_seed\": {INSTANCE_SEED},\n  \"sweep_seed\": {SWEEP_SEED},\n  \
         \"deviations\": {deviations},\n  {sampling}\"cells\": {cells},\n  \
         \"cached_secs\": {cached_secs:.3},\n  \"cached_cells_per_sec\": {cached_cps:.4},\n  \
         \"reference_cells\": {reference_cells},\n  \"reference_secs\": {uncached_secs:.3},\n  \
         \"reference_cells_per_sec\": {uncached_cps:.4},\n  \"speedup\": {speedup:.2}\n}}\n",
        net = args.net,
    );
    let out = args.out.as_deref().unwrap_or("BENCH_sweep.json");
    if let Err(error) = std::fs::write(out, &json) {
        eprintln!("sweep_bench: cannot write {out}: {error}");
        return ExitCode::from(2);
    }
    println!(
        "sweep_bench[{mode}/{net}]: optimized {cached_cps:.2} cells/s, reference {uncached_cps:.2} \
         cells/s, speedup {speedup:.1}x -> {out}",
        net = args.net,
    );

    if let Some(baseline_path) = args.check {
        if args.net != "ideal" {
            // Shared-net numbers are informational only (see the module
            // docs): record, never gate.
            println!(
                "sweep_bench: --net {} is ungated; ignoring --check {baseline_path}",
                args.net
            );
            return ExitCode::SUCCESS;
        }
        return check_gate(&baseline_path, mode, Some(&args.net), N, speedup);
    }
    ExitCode::SUCCESS
}

/// The `--shard` mode: evaluates one shard of the standard `n = 64` grid
/// (the same grid the corresponding bench mode's optimized arm sweeps)
/// and emits its [`SweepFragment`] JSON. Never gated — the fingerprint
/// check happens at merge time.
fn run_shard(
    scenario: &Scenario,
    catalog: &Catalog,
    shard: ShardSpec,
    mode: &str,
    emit: Option<String>,
) -> ExitCode {
    // The label pins the grid identity at the bench level (instance size
    // and seeds, catalog mode, network); the library's instance
    // fingerprint covers the materialized topology/costs/traffic below it.
    let instance = grid_instance(mode);
    let total = scenario.num_nodes() * catalog.len();
    let owned = shard.cell_indices(total).len();
    eprintln!(
        "sweep_bench[{mode}/shard {shard}]: {owned} of {total} grid cells at n={N} \
         (+1 honest baseline)..."
    );
    let fragment = scenario.sweep_shard(&[SWEEP_SEED], catalog, shard, &instance);
    let path = emit.unwrap_or_else(|| {
        format!(
            "BENCH_sweep_shard_{}of{}.json",
            shard.index(),
            shard.count()
        )
    });
    if let Err(error) = std::fs::write(&path, fragment.to_json()) {
        eprintln!("sweep_bench: cannot write {path}: {error}");
        return ExitCode::from(2);
    }
    println!(
        "sweep_bench[{mode}/shard {shard}]: {} cells in {:.1}s ({}), baseline {:.1}s -> {path}",
        fragment.cells.len(),
        fragment.timing.cells_secs,
        match fragment.cells_per_sec() {
            Some(rate) => format!("{rate:.2} cells/s"),
            None => "idle".to_string(),
        },
        fragment.timing.baseline_secs,
    );
    ExitCode::SUCCESS
}

/// The `--merge` mode: recombine shard fragments, report skew, write the
/// merged report + fingerprint, and optionally gate the fingerprint
/// against a committed baseline.
fn run_merge(args: &Args) -> ExitCode {
    let mut fragments = Vec::with_capacity(args.merge.len());
    for path in &args.merge {
        let json = match std::fs::read_to_string(path) {
            Ok(json) => json,
            Err(error) => {
                eprintln!("sweep_bench: cannot read fragment {path}: {error}");
                return ExitCode::from(2);
            }
        };
        match SweepFragment::from_json(&json) {
            Ok(fragment) => fragments.push(fragment),
            Err(error) => {
                eprintln!("sweep_bench: fragment {path} is malformed: {error}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match SweepFragment::merge(&fragments) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("sweep_bench: merge refused: {error}");
            return ExitCode::from(3);
        }
    };
    let fingerprint = report.fingerprint();
    println!(
        "sweep_bench[merge]: {} fragment(s) over instance {:?} -> {} seeds, {} cells, \
         fingerprint {fingerprint}",
        fragments.len(),
        fragments[0].instance,
        report.per_seed.len(),
        report.total_deviations(),
    );
    print!("{}", SweepFragment::skew_summary(&fragments));

    let mut ordered: Vec<&SweepFragment> = fragments.iter().collect();
    ordered.sort_by_key(|fragment| fragment.shard.index());
    let shards_json = ordered
        .iter()
        .map(|fragment| {
            format!(
                "{{\"shard\": \"{}\", \"cells\": {}, \"cells_secs\": {:.3}, \
                 \"baseline_secs\": {:.3}}}",
                fragment.shard,
                fragment.cells.len(),
                fragment.timing.cells_secs,
                fragment.timing.baseline_secs
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let merged_json = format!(
        "{{\n  \"format\": \"specfaith-sweep-merged-v1\",\n  \"instance\": \"{}\",\n  \
         \"fingerprint\": \"{fingerprint}\",\n  \"cells\": {},\n  \"shards\": [\n    \
         {shards_json}\n  ],\n  \"report\": {}\n}}\n",
        fragments[0].instance,
        report.total_deviations(),
        report.to_canonical_json(),
    );
    let out = args.out.as_deref().unwrap_or("SWEEP_merged.json");
    if let Err(error) = std::fs::write(out, &merged_json) {
        eprintln!("sweep_bench: cannot write {out}: {error}");
        return ExitCode::from(2);
    }
    println!("sweep_bench[merge]: wrote {out}");

    if let Some(timing_path) = &args.timing_out {
        // Standalone per-shard timing summary — written before the
        // fingerprint gate so the artifact survives a gate failure (the
        // skew data is most interesting exactly when something broke).
        let timing_json = ordered
            .iter()
            .map(|fragment| {
                format!(
                    "    {{\"shard\": \"{}\", \"cells\": {}, \"cells_secs\": {:.3}, \
                     \"cells_per_sec\": {}, \"baseline_secs\": {:.3}}}",
                    fragment.shard,
                    fragment.cells.len(),
                    fragment.timing.cells_secs,
                    match fragment.cells_per_sec() {
                        Some(rate) => format!("{rate:.4}"),
                        None => "null".to_string(),
                    },
                    fragment.timing.baseline_secs
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let timing_doc = format!(
            "{{\n  \"format\": \"specfaith-sweep-shard-timing-v1\",\n  \
             \"instance\": \"{}\",\n  \"shards\": [\n{timing_json}\n  ]\n}}\n",
            fragments[0].instance,
        );
        if let Err(error) = std::fs::write(timing_path, &timing_doc) {
            eprintln!("sweep_bench: cannot write {timing_path}: {error}");
            return ExitCode::from(2);
        }
        println!("sweep_bench[merge]: wrote per-shard timing to {timing_path}");
    }

    if let Some(expected_path) = &args.expect_fingerprint {
        if let Err(exit) = gate_fingerprint(expected_path, &fragments[0].instance, &fingerprint) {
            return exit;
        }
    }
    ExitCode::SUCCESS
}

/// The committed-fingerprint gate shared by `--merge` and
/// `--coordinate`: the distributed run's merged report must carry the
/// exact fingerprint the baseline file pins (and the baseline's instance
/// label, when present, must name the same grid).
fn gate_fingerprint(
    expected_path: &str,
    instance: &str,
    fingerprint: &str,
) -> Result<(), ExitCode> {
    let expected = load_fingerprint(expected_path, instance).map_err(|message| {
        eprintln!("sweep_bench: {message}");
        ExitCode::from(2)
    })?;
    if expected != fingerprint {
        eprintln!(
            "sweep_bench: FINGERPRINT MISMATCH — merged report is {fingerprint}, committed \
             baseline {expected_path} pins {expected}; the distributed sweep no longer \
             reproduces the single-process report"
        );
        return Err(ExitCode::FAILURE);
    }
    println!("sweep_bench: fingerprint matches the committed baseline ({expected})");
    Ok(())
}

/// Loads a committed fingerprint file and returns the fingerprint it
/// pins, after checking that it names the grid `instance`. A missing
/// file, a missing `instance` or `fingerprint` key, or another grid's
/// file is a setup defect, never a pass.
fn load_fingerprint(expected_path: &str, instance: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(expected_path).map_err(|error| {
        format!(
            "cannot read fingerprint baseline {expected_path}: {error}\n\
             sweep_bench: expected a committed fingerprint file at that path; run the \
             full shard set through --merge once and commit its \"fingerprint\" value"
        )
    })?;
    let doc = Json::parse(&text)
        .map_err(|error| format!("fingerprint baseline {expected_path} is not JSON: {error}"))?;
    let expected_instance = str_field(&doc, expected_path, "instance")?;
    if expected_instance != instance {
        return Err(format!(
            "fingerprint baseline {expected_path} pins instance {expected_instance:?}, but \
             this run swept {instance:?}"
        ));
    }
    Ok(str_field(&doc, expected_path, "fingerprint")?.to_string())
}

/// The standard grid's instance label — shared by `--shard`,
/// `--coordinate`, and `--worker` so fragments and coordinated runs from
/// the same bench mode always agree.
fn grid_instance(mode: &str) -> String {
    format!("sweep-n{N}-i{INSTANCE_SEED}-s{SWEEP_SEED}-{mode}-ideal")
}

/// The `--coordinate` mode: serve the standard `n = 64` grid to live
/// workers over cell-range leases, merge their fragments, and gate the
/// result like `--merge` does. Exit codes: `2` for setup/transport
/// failures (bad address, bind failure, no workers), `3` for merge
/// conflicts and exhausted lease retries, `1` when the merged
/// fingerprint diverges from the committed baseline or the
/// `--expect-reissued` floor is missed.
fn run_coordinate(args: &Args, scenario: &Scenario, catalog: &Catalog, mode: &str) -> ExitCode {
    let workers = args.coordinate.expect("validated").max(1);
    let instance = grid_instance(mode);
    let addr = match CoordAddr::parse(args.listen.as_deref().expect("validated")) {
        Ok(addr) => addr,
        Err(error) => {
            eprintln!("sweep_bench: --listen: {error}");
            return ExitCode::from(2);
        }
    };
    let total = scenario.num_nodes() * catalog.len();
    // Default lease size: ~4 leases per expected worker, so a straggler
    // or a killed worker forfeits only a small slice of the grid.
    let mut config = CoordConfig {
        lease_cells: args
            .lease_cells
            .unwrap_or_else(|| (total / (workers * 4)).max(1)),
        ..CoordConfig::default()
    };
    if let Some(ms) = args.lease_timeout_ms {
        config.lease_timeout = Duration::from_millis(ms);
    }
    if let Some(attempts) = args.max_attempts {
        config.max_attempts = attempts;
    }
    let coordinator = Coordinator::new(scenario, &[SWEEP_SEED], catalog, &instance, config.clone());
    let listener = match CoordListener::bind(&addr) {
        Ok(listener) => listener,
        Err(error) => {
            eprintln!("sweep_bench: cannot listen on {addr}: {error}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "sweep_bench[{mode}/coordinate]: {total} grid cells in {}-cell leases for {workers} \
         worker(s) on {}...",
        config.lease_cells,
        listener.local_addr(),
    );
    let outcome = match coordinator.serve(listener) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("sweep_bench: coordination failed: {error}");
            return match error {
                CoordError::Merge(_) | CoordError::RetriesExhausted { .. } => ExitCode::from(3),
                CoordError::Io(_) | CoordError::NoWorkers { .. } => ExitCode::from(2),
            };
        }
    };
    println!(
        "sweep_bench[{mode}/coordinate]: {} cells over {} lease(s) ({} reissued, {} duplicate \
         result(s), {} corrupt line(s)), fingerprint {}",
        outcome.stats.grid_cells,
        outcome.stats.leases_issued,
        outcome.stats.leases_reissued,
        outcome.stats.duplicate_results,
        outcome.stats.corrupt_lines,
        outcome.fingerprint,
    );
    print!("{}", outcome.stats.skew_summary());

    let workers_json = outcome
        .stats
        .workers
        .iter()
        .map(|worker| {
            format!(
                "{{\"worker\": {:?}, \"cells\": {}, \"leases\": {}, \"cells_secs\": {:.3}, \
                 \"baseline_secs\": {:.3}}}",
                worker.name, worker.cells, worker.leases, worker.secs, worker.baseline_secs
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let doc = format!(
        "{{\n  \"format\": \"specfaith-sweep-merged-v1\",\n  \"instance\": \"{instance}\",\n  \
         \"fingerprint\": \"{}\",\n  \"cells\": {},\n  \"leases_issued\": {},\n  \
         \"leases_reissued\": {},\n  \"duplicate_results\": {},\n  \"corrupt_lines\": {},\n  \
         \"workers\": [\n    {workers_json}\n  ],\n  \"report\": {}\n}}\n",
        outcome.fingerprint,
        outcome.stats.grid_cells,
        outcome.stats.leases_issued,
        outcome.stats.leases_reissued,
        outcome.stats.duplicate_results,
        outcome.stats.corrupt_lines,
        outcome.report.to_canonical_json(),
    );
    let out = args.out.as_deref().unwrap_or("SWEEP_coordinated.json");
    if let Err(error) = std::fs::write(out, &doc) {
        eprintln!("sweep_bench: cannot write {out}: {error}");
        return ExitCode::from(2);
    }
    println!("sweep_bench[{mode}/coordinate]: wrote {out}");

    if let Some(floor) = args.expect_reissued {
        if outcome.stats.leases_reissued < floor {
            eprintln!(
                "sweep_bench: REISSUE GATE — expected at least {floor} re-issued lease(s) (the \
                 scripted worker failure should have been recovered), saw {}",
                outcome.stats.leases_reissued
            );
            return ExitCode::FAILURE;
        }
        println!(
            "sweep_bench: reissue gate passed — {} re-issued lease(s) >= {floor}",
            outcome.stats.leases_reissued
        );
    }
    if let Some(expected_path) = &args.expect_fingerprint {
        if let Err(exit) = gate_fingerprint(expected_path, &instance, &outcome.fingerprint) {
            return exit;
        }
    }
    ExitCode::SUCCESS
}

/// The `--worker` mode: evaluate leases for the coordinator at the given
/// address until it says `done`. A fault-plan ending (kill/hang) is a
/// scripted outcome, not an error — the process still exits `0` so CI
/// fault scripts don't need exit-code contortions; real failures exit
/// `2` (transport, rejection) or `3` (the coordinator aborted the run).
fn run_worker_cli(args: &Args, scenario: &Scenario, catalog: &Catalog, mode: &str) -> ExitCode {
    let instance = grid_instance(mode);
    let addr = match CoordAddr::parse(args.worker.as_deref().expect("validated")) {
        Ok(addr) => addr,
        Err(error) => {
            eprintln!("sweep_bench: --worker: {error}");
            return ExitCode::from(2);
        }
    };
    let name = args
        .worker_name
        .clone()
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let mut config = WorkerConfig::named(&name);
    for clause in &args.faults {
        if let Err(error) = config.fault.apply(clause) {
            eprintln!("sweep_bench: --fault: {error}");
            return ExitCode::from(2);
        }
    }
    eprintln!("sweep_bench[{mode}/worker {name}]: connecting to {addr}...");
    match run_worker(scenario, &[SWEEP_SEED], catalog, &instance, &addr, config) {
        Ok(summary) => {
            let ending = if summary.killed {
                " (killed by fault plan)"
            } else if summary.hung {
                " (hung by fault plan)"
            } else {
                ""
            };
            println!(
                "sweep_bench[{mode}/worker {}]: {} cell(s) over {} result(s){ending}",
                summary.name, summary.cells, summary.leases,
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("sweep_bench: worker {name} failed: {error}");
            match error {
                WorkerError::Aborted(_) => ExitCode::from(3),
                WorkerError::Io(_) | WorkerError::Rejected(_) | WorkerError::Disconnected => {
                    ExitCode::from(2)
                }
            }
        }
    }
}

/// Loads a committed gate baseline and returns its speedup, validating
/// that it matches the run's mode, instance size and — when the run has
/// one, as quick and full runs do — network model (a ratio measured at
/// one `n` or on one network says nothing about another).
///
/// A missing, unreadable, incomplete or mismatched baseline is a **setup
/// defect**, not a performance regression: the caller exits `2`,
/// distinct from the gate-failure exit `1`, and the message names the
/// path and the missing key, or how to regenerate the file.
fn load_baseline_speedup(
    baseline_path: &str,
    mode: &str,
    net: Option<&str>,
    n: usize,
) -> Result<f64, String> {
    let flag = match mode {
        "full" => String::new(),
        other => format!("--{other} "),
    };
    let doc = read_baseline(baseline_path, &flag)?;
    let baseline_mode = str_field(&doc, baseline_path, "mode")?;
    if baseline_mode != mode {
        return Err(format!(
            "baseline {baseline_path} is mode {baseline_mode:?}, run is mode {mode:?}"
        ));
    }
    let baseline_n = num_field(&doc, baseline_path, "n")?;
    if baseline_n != n as f64 {
        return Err(format!(
            "baseline {baseline_path} is n={baseline_n}, run is n={n}"
        ));
    }
    if let Some(net) = net {
        let baseline_net = str_field(&doc, baseline_path, "net")?;
        if baseline_net != net {
            return Err(format!(
                "baseline {baseline_path} is net {baseline_net:?}, run is net {net:?}"
            ));
        }
    }
    num_field(&doc, baseline_path, "speedup")
}

/// The >20% speedup-ratio regression gate shared by every measured mode.
fn check_gate(
    baseline_path: &str,
    mode: &str,
    net: Option<&str>,
    n: usize,
    speedup: f64,
) -> ExitCode {
    let baseline_speedup = match load_baseline_speedup(baseline_path, mode, net, n) {
        Ok(speedup) => speedup,
        Err(message) => {
            eprintln!("sweep_bench: {message}");
            return ExitCode::from(2);
        }
    };
    let floor = baseline_speedup * 0.8;
    if speedup < floor {
        eprintln!(
            "sweep_bench: REGRESSION — speedup {speedup:.1}x fell below {floor:.1}x \
             (80% of the committed baseline {baseline_speedup:.1}x)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "sweep_bench: gate passed — speedup {speedup:.1}x >= {floor:.1}x \
         (80% of baseline {baseline_speedup:.1}x)"
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        parse_args_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn merge_without_fragment_paths_is_a_usage_error() {
        let error = parse(&["--merge"]).unwrap_err();
        assert!(error.contains("fragment paths"), "{error}");
        // main() prints USAGE with every parse error; the merge grammar
        // must be on that screen so the failure is self-explaining.
        assert!(USAGE.contains("--merge f0.json"));
        // A following flag doesn't count as a path either.
        let error = parse(&["--merge", "--out", "x.json"]).unwrap_err();
        assert!(error.contains("fragment paths"), "{error}");
    }

    #[test]
    fn coordinate_and_listen_require_each_other() {
        let error = parse(&["--coordinate", "3"]).unwrap_err();
        assert!(error.contains("--listen"), "{error}");
        let error = parse(&["--listen", "tcp:127.0.0.1:0"]).unwrap_err();
        assert!(error.contains("--coordinate"), "{error}");
        let args = parse(&[
            "--quick",
            "--coordinate",
            "3",
            "--listen",
            "unix:/tmp/s.sock",
        ])
        .expect("valid coordinate invocation");
        assert_eq!(args.coordinate, Some(3));
        assert_eq!(args.listen.as_deref(), Some("unix:/tmp/s.sock"));
    }

    #[test]
    fn coordinate_rejects_zero_workers_and_conflicting_modes() {
        let error = parse(&["--coordinate", "0", "--listen", "tcp:h:1"]).unwrap_err();
        assert!(error.contains("at least one"), "{error}");
        let error = parse(&["--large", "--coordinate", "2", "--listen", "tcp:h:1"]).unwrap_err();
        assert!(error.contains("--large"), "{error}");
        let error = parse(&[
            "--coordinate",
            "2",
            "--listen",
            "tcp:h:1",
            "--worker",
            "tcp:h:1",
        ])
        .unwrap_err();
        assert!(error.contains("mutually exclusive"), "{error}");
        let error = parse(&[
            "--net",
            "shared",
            "--coordinate",
            "2",
            "--listen",
            "tcp:h:1",
        ])
        .unwrap_err();
        assert!(error.contains("ideal"), "{error}");
    }

    #[test]
    fn fault_clauses_validate_at_parse_time_and_need_worker_mode() {
        let args = parse(&[
            "--quick",
            "--worker",
            "tcp:127.0.0.1:9",
            "--worker-name",
            "victim",
            "--fault",
            "kill-after-cells=5",
            "--fault",
            "delay-result=0:250",
        ])
        .expect("valid worker invocation");
        assert_eq!(args.worker.as_deref(), Some("tcp:127.0.0.1:9"));
        assert_eq!(args.faults.len(), 2);

        let error = parse(&["--worker", "tcp:h:1", "--fault", "explode=now"]).unwrap_err();
        assert!(error.contains("explode"), "{error}");
        let error = parse(&["--fault", "kill-after-cells=5"]).unwrap_err();
        assert!(error.contains("--worker"), "{error}");
    }

    #[test]
    fn coordinator_tuning_flags_require_coordinate_mode() {
        for flags in [
            &["--lease-cells", "4"][..],
            &["--lease-timeout-ms", "5000"][..],
            &["--max-attempts", "3"][..],
            &["--expect-reissued", "1"][..],
        ] {
            let error = parse(flags).unwrap_err();
            assert!(error.contains("--coordinate"), "{flags:?}: {error}");
        }
        let args = parse(&[
            "--quick",
            "--coordinate",
            "3",
            "--listen",
            "tcp:127.0.0.1:0",
            "--lease-cells",
            "4",
            "--lease-timeout-ms",
            "5000",
            "--max-attempts",
            "3",
            "--expect-reissued",
            "1",
        ])
        .expect("valid tuned invocation");
        assert_eq!(args.lease_cells, Some(4));
        assert_eq!(args.lease_timeout_ms, Some(5000));
        assert_eq!(args.max_attempts, Some(3));
        assert_eq!(args.expect_reissued, Some(1));
        let error =
            parse(&["--coordinate", "1", "--listen", "t", "--lease-cells", "0"]).unwrap_err();
        assert!(error.contains("--lease-cells"), "{error}");
    }

    #[test]
    fn expect_fingerprint_applies_to_merge_and_coordinate_only() {
        let error = parse(&["--quick", "--expect-fingerprint", "f.json"]).unwrap_err();
        assert!(error.contains("--merge and --coordinate"), "{error}");
        parse(&["--merge", "a.json", "--expect-fingerprint", "f.json"]).expect("merge gate");
        parse(&[
            "--coordinate",
            "2",
            "--listen",
            "tcp:h:1",
            "--expect-fingerprint",
            "f.json",
        ])
        .expect("coordinate gate");
    }

    #[test]
    fn grid_instance_matches_the_committed_baseline_label() {
        assert_eq!(grid_instance("quick"), "sweep-n64-i2004-s7-quick-ideal");
        assert_eq!(grid_instance("full"), "sweep-n64-i2004-s7-full-ideal");
    }

    fn temp_baseline(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "sweep_bench_gate_{name}_{}.json",
            std::process::id()
        ));
        std::fs::write(&path, contents).expect("write temp baseline");
        path
    }

    #[test]
    fn missing_baseline_is_a_setup_error_naming_the_path() {
        let error = load_baseline_speedup(
            "/nonexistent/dir/BENCH_missing.json",
            "quick",
            Some("ideal"),
            64,
        )
        .unwrap_err();
        assert!(error.contains("/nonexistent/dir/BENCH_missing.json"));
        assert!(
            error.contains("--quick --out"),
            "error must say how to regenerate: {error}"
        );
        let full_error =
            load_baseline_speedup("/nonexistent/x.json", "full", Some("ideal"), 64).unwrap_err();
        assert!(
            full_error.contains("`sweep_bench --out"),
            "full mode has no flag: {full_error}"
        );
    }

    #[test]
    fn mismatched_mode_or_n_is_rejected() {
        let path = temp_baseline("mode", r#"{"mode": "full", "n": 64, "speedup": 8.0}"#);
        let error = load_baseline_speedup(path.to_str().unwrap(), "quick", None, 64).unwrap_err();
        assert!(error.contains("mode"), "{error}");
        let error = load_baseline_speedup(path.to_str().unwrap(), "full", None, 1024).unwrap_err();
        assert!(error.contains("n=64"), "{error}");
        let _ = std::fs::remove_file(path);
    }

    /// Loads `contents` as a quick-mode ideal-network baseline and
    /// returns the rejection message.
    fn quick_baseline_error(name: &str, contents: &str) -> String {
        let path = temp_baseline(name, contents);
        let error = load_baseline_speedup(path.to_str().unwrap(), "quick", Some("ideal"), 64)
            .expect_err("the baseline must be rejected");
        let _ = std::fs::remove_file(path);
        error
    }

    #[test]
    fn baseline_without_mode_is_rejected_naming_the_key() {
        let error =
            quick_baseline_error("nomode", r#"{"net": "ideal", "n": 64, "speedup": 35.58}"#);
        assert!(error.contains("missing key \"mode\""), "{error}");
    }

    #[test]
    fn baseline_without_n_is_rejected_naming_the_key() {
        let error = quick_baseline_error(
            "non",
            r#"{"mode": "quick", "net": "ideal", "speedup": 35.58}"#,
        );
        assert!(error.contains("missing key \"n\""), "{error}");
    }

    #[test]
    fn quick_baseline_without_net_is_rejected_naming_the_key() {
        let error =
            quick_baseline_error("nonet", r#"{"mode": "quick", "n": 64, "speedup": 35.58}"#);
        assert!(error.contains("missing key \"net\""), "{error}");
    }

    #[test]
    fn baseline_from_another_network_is_rejected() {
        // The committed shared-network quick baseline gates at ~4.5x; an
        // ideal run must not be accepted against it.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/baselines/BENCH_sweep_quick_shared.json"
        );
        let error = load_baseline_speedup(path, "quick", Some("ideal"), 64).unwrap_err();
        assert!(error.contains("net \"shared\""), "{error}");
    }

    #[test]
    fn valid_baseline_yields_its_speedup() {
        let path = temp_baseline(
            "ok",
            r#"{"mode": "quick", "net": "ideal", "n": 64, "speedup": 35.58}"#,
        );
        let speedup = load_baseline_speedup(path.to_str().unwrap(), "quick", Some("ideal"), 64)
            .expect("loads");
        assert!((speedup - 35.58).abs() < 1e-9);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn baseline_without_speedup_is_rejected() {
        let error =
            quick_baseline_error("nospeedup", r#"{"mode": "quick", "net": "ideal", "n": 64}"#);
        assert!(error.contains("speedup"), "{error}");
    }

    #[test]
    fn fingerprint_file_without_instance_is_rejected_naming_the_key() {
        let path = temp_baseline(
            "noinstance",
            r#"{"fingerprint": "fnv1a64:0000000000000000"}"#,
        );
        let error = load_fingerprint(path.to_str().unwrap(), &grid_instance("quick")).unwrap_err();
        assert!(error.contains("missing key \"instance\""), "{error}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fingerprint_file_without_fingerprint_is_rejected_naming_the_key() {
        let path = temp_baseline(
            "nofingerprint",
            r#"{"instance": "sweep-n64-i2004-s7-quick-ideal"}"#,
        );
        let error = load_fingerprint(path.to_str().unwrap(), &grid_instance("quick")).unwrap_err();
        assert!(error.contains("missing key \"fingerprint\""), "{error}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn committed_baselines_carry_every_gate_key() {
        let baseline = |name: &str| format!("{}/baselines/{name}", env!("CARGO_MANIFEST_DIR"));
        for (name, mode, net, n) in [
            ("BENCH_sweep_quick.json", "quick", Some("ideal"), N),
            ("BENCH_sweep_full.json", "full", Some("ideal"), N),
            ("BENCH_sweep_large.json", "large", None, LARGE_N),
        ] {
            load_baseline_speedup(&baseline(name), mode, net, n).expect(name);
        }
        load_stream_baselines(&baseline("BENCH_sweep_stream.json")).expect("stream baseline");
        let pinned = load_fingerprint(
            &baseline("SWEEP_fingerprint_quick.json"),
            &grid_instance("quick"),
        )
        .expect("fingerprint file");
        assert_eq!(pinned, "fnv1a64:8858f5090087ee41");
    }

    const STREAM_BASELINE: &str =
        r#"{"mode": "stream", "n64_speedup": 5.44, "n1024_speedup": 32.86}"#;

    #[test]
    fn stream_gate_passes_at_and_above_the_floor() {
        let path = temp_baseline("stream_ok", STREAM_BASELINE);
        // Exactly at the 80% floor on both presets.
        let exit = check_stream_gate(path.to_str().unwrap(), (5.44 * 0.8, 32.86 * 0.8));
        assert_eq!(exit, ExitCode::SUCCESS);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_gate_fails_when_either_preset_regresses() {
        let path = temp_baseline("stream_regress", STREAM_BASELINE);
        let n64_regressed = check_stream_gate(path.to_str().unwrap(), (4.0, 32.86));
        assert_eq!(n64_regressed, ExitCode::FAILURE);
        let n1024_regressed = check_stream_gate(path.to_str().unwrap(), (5.44, 20.0));
        assert_eq!(n1024_regressed, ExitCode::FAILURE);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_gate_rejects_wrong_mode_missing_key_and_missing_file() {
        let wrong_mode = temp_baseline("stream_mode", r#"{"mode": "quick", "n64_speedup": 5.0}"#);
        assert_eq!(
            check_stream_gate(wrong_mode.to_str().unwrap(), (9.0, 9.0)),
            ExitCode::from(2)
        );
        let _ = std::fs::remove_file(wrong_mode);

        let no_key = temp_baseline("stream_nokey", r#"{"mode": "stream", "n64_speedup": 5.0}"#);
        assert_eq!(
            check_stream_gate(no_key.to_str().unwrap(), (9.0, 9.0)),
            ExitCode::from(2)
        );
        let _ = std::fs::remove_file(no_key);

        assert_eq!(
            check_stream_gate("/nonexistent/BENCH_sweep_stream.json", (9.0, 9.0)),
            ExitCode::from(2)
        );
    }

    #[test]
    fn committed_stream_baseline_parses_and_clears_the_issue_floor() {
        // The committed baseline must be mode "stream", carry both preset
        // keys, and show incremental beating cold by >= 5x on each.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/baselines/BENCH_sweep_stream.json"
        );
        let [(_, n64), (_, n1024)] =
            load_stream_baselines(path).expect("committed stream baseline");
        assert!(n64 >= 5.0, "n64 incremental-vs-cold speedup {n64} < 5x");
        assert!(
            n1024 >= 5.0,
            "n1024 incremental-vs-cold speedup {n1024} < 5x"
        );
    }
}
