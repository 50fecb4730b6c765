//! In-memory span recording for the traced run, plus the small
//! statistics helpers every workload shares.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions: name, start, end, parent span and
//! thread. They stay in memory until the run ends and are then written as
//! one JSON document (see [`Tracer::write`]).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span; `0` is never issued, so it can stand
/// for "no parent".
pub type SpanId = u64;

struct Span {
    id: SpanId,
    parent: SpanId,
    name: String,
    thread: String,
    start: Duration,
    end: Duration,
}

/// Collects spans for one traced run.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent` (0 for a root
    /// span) and returns its result with the span's duration in seconds.
    /// `f` receives the new span's id, to parent spans of its own.
    pub fn span<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> (R, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = f(id);
        let end = Instant::now();
        self.push(id, parent, name, start, end);
        (result, (end - start).as_secs_f64())
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(&self, name: &str, parent: SpanId, start: Instant, end: Instant) -> SpanId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, start, end);
        id
    }

    fn push(&self, id: SpanId, parent: SpanId, name: &str, start: Instant, end: Instant) {
        let thread = std::thread::current();
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            thread: thread
                .name()
                .map_or_else(|| format!("{:?}", thread.id()), str::to_string),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        };
        self.spans
            .lock()
            .expect("a span recorder never panics while holding the lock")
            .push(span);
    }

    /// Writes every span, sorted by start time, as
    /// `{"env": {...}, "spans": [{"id", "parent", "name", "thread",
    /// "start_us", "end_us"}, ...]}`.
    pub fn write(&self, path: &std::path::Path, env_json: &str) -> std::io::Result<()> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder never panics while holding the lock");
        spans.sort_by_key(|s| (s.start, s.id));
        let mut out = format!("{{\"env\": {env_json}, \"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"id\": {}, \"parent\": {}, \"name\": {:?}, \"thread\": {:?}, \
                 \"start_us\": {}, \"end_us\": {}}}",
                if i == 0 { "  " } else { ",\n  " },
                s.id,
                s.parent,
                s.name,
                s.thread,
                s.start.as_micros(),
                s.end.as_micros(),
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The median of `values` (mean of the middle two for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The tail latency: the highest order statistic with at least ten
/// samples above it, with the percentile it stands for. With ten or
/// fewer samples there is no such statistic and the maximum is
/// reported instead.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let index = if n > 10 { n - 11 } else { n - 1 };
    (sorted[index], 100.0 * (index + 1) as f64 / n as f64)
}

/// The lower quartile of `values` (the nearest-rank order statistic at
/// or below a quarter of the way up); `0.0` for an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 4]
}

/// Times a short job `reps` times on each of two threads running at once
/// and returns the mean of the two threads' median times. `job` is
/// given its thread's index and returns the seconds one repetition took.
///
/// A short single-threaded job stays on whichever core it started on,
/// and on a shared two-core machine the cores' speeds differ by up to
/// half from run to run, so a run-level median of such a job jumps
/// between two values. Both cores busy, each timing its own repetitions,
/// give the cores' average instead.
pub fn both_cores<E: Send>(
    reps: usize,
    job: impl Fn(usize) -> Result<f64, E> + Sync,
) -> Result<f64, E> {
    let per_thread = on_both_cores(reps, 0.0, job)?;
    Ok(per_thread.iter().map(|times| median(times)).sum::<f64>() / per_thread.len() as f64)
}

/// Times a job on each of two threads running at once, at least `reps`
/// times and until `min_secs` have passed, and returns each thread's
/// times. `job` is given its thread's index and returns the seconds one
/// repetition took.
pub fn on_both_cores<E: Send>(
    reps: usize,
    min_secs: f64,
    job: impl Fn(usize) -> Result<f64, E> + Sync,
) -> Result<Vec<Vec<f64>>, E> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let job = &job;
                s.spawn(move || {
                    let mut times = Vec::with_capacity(reps);
                    while times.len() < reps || start.elapsed().as_secs_f64() < min_secs {
                        times.push(job(w)?);
                    }
                    Ok::<Vec<f64>, E>(times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("timing threads do not panic"))
            .collect()
    })
}

/// Runs `f` `batches` times and returns the median batch time in
/// seconds: the microbenchmark loop of the crypto layer.
pub fn median_batch(batches: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0, 5.0]), 2.0);
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        let values: Vec<f64> = (1..=32).map(f64::from).collect();
        // 32 samples: the 22nd has exactly ten above it.
        assert_eq!(tail(&values), (22.0, 68.75));
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }
}
