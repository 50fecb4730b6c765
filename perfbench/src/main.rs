//! The specfaith repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload goes through the public
//! `specfaith::scenario` API:
//!
//! * `plain-sweep-coord` — the plain mechanism's quick misreport sweep on
//!   the standard n=64 instance, served by the live coordinator to two
//!   in-process workers over a Unix socket;
//! * `faithful-sweep` — the faithful mechanism's full 13-deviation
//!   catalog over 8 agents of the standard n=32 instance, in process;
//! * `stream-n256` — a cold n=256 scale-free convergence, 32 streamed
//!   cost re-declarations, then execution.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run, whose spans are written to
//! `.bench_build/perfbench-traces/`. The last line of stdout is the
//! result: `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it records the machine and build. A failed output check prints
//! `"correct": false` and exits 1; a run that cannot start exits 2
//! without a result. `--seed` picks the sweep cell that is re-run on its
//! own as a spot check; the workloads' instances are fixed, so their
//! pinned fingerprints hold on every seed. A workload's sweep or stream
//! always runs to completion, so a run measures at least one of them and
//! repeats whole ones until `--seconds` have passed.
//! `perfbench/map.json` records why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod layers;
mod metrics;
#[cfg(test)]
mod selfcheck;
mod stream;
mod sweep;
mod trace;

use metrics::{env_json, Outcome};
use specfaith::scenario::Mechanism;
use std::path::Path;
use std::process::ExitCode;
use stream::StreamSpec;
use sweep::{SweepPin, SweepSpec};
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <plain-sweep-coord|faithful-sweep|stream-n256> --seed <n> \
     --seconds <n> --trace <0|1>";

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["plain-sweep-coord", "faithful-sweep", "stream-n256"];

pub enum Workload {
    Sweep(SweepSpec),
    Stream(StreamSpec),
}

/// The named workload at full size, or at toy size for the self-check:
/// the same code on n=16 and n=8 instances (sweeps) or an n=32 network
/// (stream), with nothing pinned.
pub fn workload(name: &str, toy: bool) -> Option<Workload> {
    Some(match name {
        "plain-sweep-coord" => Workload::Sweep(SweepSpec {
            label: if toy {
                "perfbench-toy-plain"
            } else {
                "sweep-n64-i2004-s7-quick-ideal"
            },
            mechanism: Mechanism::Plain,
            // At n=8 one worker can finish the whole grid before the
            // coordinator accepts the other, which then finds the socket
            // closed; n=16 cells are slow enough for both to join.
            n: if toy { 16 } else { 64 },
            instance_seed: 2004,
            sweep_seed: 7,
            max_events: 600_000,
            deviations: Some(2),
            agent_stride: 1,
            coordinated: true,
            pin: if toy {
                SweepPin::None
            } else {
                SweepPin::FingerprintFile("crates/bench/baselines/SWEEP_fingerprint_quick.json")
            },
        }),
        "faithful-sweep" => Workload::Sweep(SweepSpec {
            label: "perfbench-faithful",
            mechanism: Mechanism::faithful(),
            n: if toy { 8 } else { 32 },
            instance_seed: 2004,
            sweep_seed: 7,
            max_events: 2_000_000,
            deviations: if toy { Some(3) } else { None },
            agent_stride: 4,
            coordinated: false,
            pin: if toy {
                SweepPin::None
            } else {
                SweepPin::Exact {
                    fingerprint: "fnv1a64:63bf30715ca9bb6e",
                    detected: 64,
                    ex_post_nash: true,
                }
            },
        }),
        "stream-n256" => Workload::Stream(StreamSpec {
            n: if toy { 32 } else { 256 },
            instance_seed: 2026,
            sources: 64,
            stream_seed: 7,
            events: if toy { 4 } else { 32 },
            pin: (!toy).then_some("fnv1a64:2a52220b6f94dd6b"),
        }),
        _ => return None,
    })
}

/// Runs one workload, untraced or traced.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    tracer: Option<&Tracer>,
) -> Result<Outcome, String> {
    match (workload, tracer) {
        (Workload::Sweep(spec), None) => sweep::run(spec, seed, seconds),
        (Workload::Sweep(spec), Some(t)) => sweep::traced(spec, t),
        (Workload::Stream(spec), None) => stream::run(spec, seconds),
        (Workload::Stream(spec), Some(t)) => Ok(stream::traced(spec, t)),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload(&args.workload, false) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if !Path::new("crates/bench/baselines").is_dir() {
        eprintln!("perfbench: run from the repository root (crates/bench/baselines is missing)");
        return ExitCode::from(2);
    }
    let tracer = args.trace.then(Tracer::new);
    let mut outcome = match run(&workload, args.seed, args.seconds, tracer.as_ref()) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::from(2);
        }
    };
    // Collected after the run: it starts `rustc` and `git`, which would
    // otherwise run just before the first timed set-up.
    let env = env_json(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        sweep::THREADS,
    );
    if let Some(t) = &tracer {
        let path = Path::new(".bench_build/perfbench-traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        match t.write(&path, &env) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let line = outcome.result_line(args.trace);
    for note in &outcome.notes {
        eprintln!("perfbench: {}: {note}", args.workload);
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: {}: CHECK FAILED: {problem}", args.workload);
    }
    println!("{{\"env\": {env}}}");
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
