//! Metric names and units, the result line, and the run environment.
//!
//! The two tables below are the benchmark's metric contract: the
//! untraced run emits every [`END_TO_END`] metric and the traced run
//! every [`PER_LAYER`] metric, under these names and units, on every
//! workload. A per-layer metric a workload does not exercise (the
//! coordinator counters on an in-process sweep, say) reads `0`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of the workload sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("converge_s", "s"),
    ("updates_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, grouped by the crate (layer) they measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.tree_build_ms", "ms"),
    ("graph.avoid_repair_ms", "ms"),
    ("graph.trees_computed", "count"),
    ("graph.avoid_trees_cached", "count"),
    ("graph.seeded_repair_ms", "ms"),
    ("fpss.reference_check_ms", "ms"),
    ("fpss.construction_us_per_msg", "us"),
    ("fpss.event_reference_ms", "ms"),
    ("fpss.event_reconverge_ms", "ms"),
    ("fpss.event_us_per_msg", "us"),
    ("fpss.finish_ms", "ms"),
    ("netsim.msgs_delivered", "count"),
    ("netsim.bytes_sent", "bytes"),
    ("netsim.timers_fired", "count"),
    ("netsim.max_queue_depth", "count"),
    ("netsim.msgs_per_event", "count"),
    ("faithful.overlay_msg_ratio", "ratio"),
    ("faithful.bank_msgs", "count"),
    ("faithful.restarts", "count"),
    ("faithful.halted_cells", "count"),
    ("faithful.detected_cells", "count"),
    ("faithful.honest_run_ms", "ms"),
    ("crypto.sha256_ns_per_byte", "ns/B"),
    ("crypto.hmac_us", "us"),
    ("crypto.seal_open_us", "us"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_max_ms", "ms"),
    ("sweep.truncated_cells", "count"),
    ("sweep.truncated_time_share", "share"),
    ("sweep.baseline_ms", "ms"),
    ("sweep.failed_share", "share"),
    ("coord.leases_issued", "count"),
    ("coord.leases_reissued", "count"),
    ("coord.duplicate_results", "count"),
    ("coord.corrupt_lines", "count"),
    ("coord.worker_skew", "ratio"),
    ("coord.baseline_dup_s", "s"),
    ("coord.overhead_s", "s"),
    ("scenario.fingerprint_ms", "ms"),
    ("scenario.tables_fingerprint_ms", "ms"),
    ("trace.overhead_s", "s"),
];

/// What one run measured and whether its outputs checked out.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: sweep cells plus baseline, or streamed
    /// events plus the checkpoint.
    pub attempted: u64,
    /// Operations that failed: re-issued or corrupted leases, events not
    /// applied and verified, replayed cells that disagree with the report.
    pub failed: u64,
    /// Failed output checks; any entry makes the run fail.
    pub problems: Vec<String>,
    /// Human-readable findings, printed to stderr.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a measured metric value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in either metric table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric of the run's table. A per-layer metric the
    /// workload did not exercise reads `0`; a missing end-to-end metric
    /// or a non-finite value is a failed check.
    pub fn result_line(&mut self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                // `+ 0.0` turns an empty float sum's `-0.0` into `0`.
                Some(v) if v.is_finite() => *v + 0.0,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// The machine and build a result was measured on, as a JSON object:
/// core count, busy-thread count, toolchain, and source revision.
pub fn env_json(workload: &str, seed: u64, seconds: u64, traced: bool, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": {workload:?}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {traced}, \"nproc\": {nproc}, \"threads\": {threads}, \
         \"rustc\": {:?}, \"git_revision\": {:?}}}",
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        git_revision().unwrap_or_else(|| "unknown (not a git checkout)".into()),
    );
    out
}

/// The source revision of the current directory when it is the root of a
/// git checkout (never a parent repository's), with `+modified` when
/// tracked files differ from it.
fn git_revision() -> Option<String> {
    let revision = command_line("git", &["rev-parse", "HEAD"])?;
    let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|status| !status.is_empty());
    Some(if dirty {
        format!("{revision}+modified")
    } else {
        revision
    })
}

/// Runs a short command to completion and returns its trimmed stdout.
/// Git never searches above the current directory.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut command = std::process::Command::new(program);
    command.args(args);
    if let Some(parent) = cwd.parent() {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let output = command.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout).trim().to_string();
    (output.status.success() && !stdout.is_empty()).then_some(stdout)
}
