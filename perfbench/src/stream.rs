//! The streaming workload: one cold convergence of a scale-free network,
//! then a deterministic walk of single-node cost re-declarations, each
//! re-converged incrementally and re-verified, then execution.
//!
//! The traced run splits each event's time three ways. Outside the
//! session it rebuilds what the event's reference check reads — the
//! repaired route cache (graph) and the expected tables (fpss) — and
//! times the session's table fingerprint (scenario); what remains of
//! `apply_event` is in-network reconvergence (fpss and netsim).

use crate::layers;
use crate::metrics::{peak_rss_mb, Outcome};
use crate::sweep::SETUP_REPS;
use crate::trace::{both_cores, lower_quartile, median, on_both_cores, tail, Tracer};
use specfaith::core::id::NodeId;
use specfaith::scenario::{
    CostModel, ReferenceCheck, RunReport, Scenario, ScenarioBuilder, StreamEvent, StreamStatus,
    TopologyEvent,
};
use std::time::Instant;

/// One streaming workload.
pub struct StreamSpec {
    /// Nodes of the `large_scale_free` preset.
    pub n: usize,
    pub instance_seed: u64,
    /// Sources of the sampled reference check.
    pub sources: usize,
    /// Seed of the session's run.
    pub stream_seed: u64,
    /// Cost events streamed after the checkpoint.
    pub events: usize,
    /// The tables fingerprint after the last event.
    pub pin: Option<&'static str>,
}

impl StreamSpec {
    fn scenario(&self) -> Scenario {
        ScenarioBuilder::large_scale_free(self.n)
            .costs(CostModel::Uniform(1))
            .instance_seed(self.instance_seed)
            .reference_check(self.reference())
            .build()
    }

    fn reference(&self) -> ReferenceCheck {
        ReferenceCheck::Sampled {
            sources: self.sources,
        }
    }
}

/// Cold checkpoints timed after the streams for `converge_s`, one after
/// the other on each of two threads running at once. `converge_s` is the
/// lower quartile of these and the streams' own checkpoints: one 5 s
/// checkpoint alone lands in whatever slow or fast spell the shared
/// machine is in (see `sweep::run`).
const EXTRA_CHECKPOINTS: usize = 2;

/// Event `i` of the walk: no two consecutive events touch the same
/// node, and costs cycle through `1..=20`.
fn event(i: usize, n: usize) -> TopologyEvent {
    TopologyEvent::NodeCost {
        node: NodeId::from_index((i * 37 + 11) % n),
        cost: 1 + ((i * 13) % 20) as u64,
    }
}

/// One measured stream: checkpoint, events, finish.
struct StreamUnit {
    converge: f64,
    wall: f64,
    latencies: Vec<f64>,
    events: Vec<StreamEvent>,
    report: RunReport,
}

fn measure(spec: &StreamSpec, scenario: &Scenario) -> StreamUnit {
    let start = Instant::now();
    let mut session = scenario.stream_session(spec.stream_seed);
    let converge = start.elapsed().as_secs_f64();
    let mut latencies = Vec::with_capacity(spec.events);
    let mut events = Vec::with_capacity(spec.events);
    for i in 0..spec.events {
        let event = event(i, spec.n);
        let applied = Instant::now();
        events.push(session.apply_event(&event));
        latencies.push(applied.elapsed().as_secs_f64());
    }
    let report = session.finish();
    StreamUnit {
        converge,
        wall: start.elapsed().as_secs_f64(),
        latencies,
        events,
        report,
    }
}

fn check(spec: &StreamSpec, unit: &StreamUnit, out: &mut Outcome) {
    let bad: Vec<usize> = unit
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.status != StreamStatus::Applied || e.verified != Some(true))
        .map(|(i, _)| i)
        .collect();
    out.failed += bad.len() as u64;
    out.check(bad.is_empty(), || {
        format!("events {bad:?} were not applied and verified")
    });
    let last = unit.events.last().map(|e| e.tables_fingerprint.as_str());
    if let Some(pin) = spec.pin {
        out.check(last == Some(pin), || {
            format!("final tables fingerprint {last:?}, pinned {pin}")
        });
    }
    out.check(
        unit.report.tables_match_centralized() == Some(true) && !unit.report.truncated,
        || "the finished stream must match the centralized reference untruncated".into(),
    );
    out.notes.push(format!(
        "checkpoint {:.3} s, {} events, {} stream messages, final tables {}",
        unit.converge,
        unit.events.len(),
        unit.events.iter().map(|e| e.messages).sum::<u64>(),
        last.unwrap_or("-"),
    ));
}

/// The untraced run: set-up, then whole streams until `seconds` have
/// passed (at least one).
pub fn run(spec: &StreamSpec, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut units = Vec::new();
    let started = Instant::now();
    while units.is_empty() || started.elapsed().as_secs_f64() < seconds as f64 {
        setup_times.push(both_cores(SETUP_REPS, |_| {
            let start = Instant::now();
            std::hint::black_box(spec.scenario());
            Ok::<f64, String>(start.elapsed().as_secs_f64())
        })?);
        let unit = measure(spec, &spec.scenario());
        check(spec, &unit, &mut out);
        units.push(unit);
    }
    // Read before the extra checkpoints below, two of which run at once.
    out.set("peak_rss_mb", peak_rss_mb());
    let scenario = spec.scenario();
    let mut converges: Vec<f64> = units.iter().map(|u| u.converge).collect();
    let extra = on_both_cores(EXTRA_CHECKPOINTS, 0.0, |_| {
        let start = Instant::now();
        let session = scenario.stream_session(spec.stream_seed);
        let secs = start.elapsed().as_secs_f64();
        drop(session);
        Ok::<f64, String>(secs)
    })?;
    converges.extend(extra.concat());
    out.attempted = ((spec.events + 1) * units.len()) as u64;
    let walls: Vec<f64> = units.iter().map(|u| u.wall).collect();
    let latencies: Vec<f64> = units.iter().flat_map(|u| u.latencies.clone()).collect();
    let (tail_s, tail_pct) = tail(&latencies);
    out.set("setup_s", median(&setup_times));
    out.set("wall_s", median(&walls));
    out.set("cells_per_s", (spec.events + 1) as f64 / median(&walls));
    out.set("converge_s", lower_quartile(&converges));
    out.set(
        "updates_per_s",
        latencies.len() as f64 / latencies.iter().sum::<f64>(),
    );
    out.set("update_p50_ms", median(&latencies) * 1e3);
    out.set("update_tail_ms", tail_s * 1e3);
    out.notes.push(format!(
        "{} stream(s); event latency over {} samples: p50 {:.1} ms, p{tail_pct:.1} {:.1} ms",
        units.len(),
        latencies.len(),
        median(&latencies) * 1e3,
        tail_s * 1e3
    ));
    Ok(out)
}

/// The traced run: the untraced stream for reference, the layer probes,
/// then a second stream with every event split into its layers.
pub fn traced(spec: &StreamSpec, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let scenario = spec.scenario();
    let (untraced, _) = t.span("stream(untraced)", 0, |_| measure(spec, &scenario));
    check(spec, &untraced, &mut out);
    let sources = spec.reference().sources(spec.n);

    let ((_, cold), _) = t.span("layers", 0, |root| {
        let (honest, _, cache) =
            layers::honest_run(t, root, &scenario, spec.stream_seed, &sources, &mut out);
        layers::crypto(t, root, &mut out);
        (honest, cache)
    });

    let mut split = EventSplit::default();
    let (report, traced_s) = t.span("stream(traced)", 0, |root| {
        let (mut session, _) = t.span("scenario.stream_session", root, |_| {
            scenario.stream_session(spec.stream_seed)
        });
        let mut previous = cold;
        for (i, expected) in untraced.events.iter().enumerate() {
            let (record, apply_s) = t.span("scenario.apply_event", root, |_| {
                session.apply_event(&event(i, spec.n))
            });
            out.check(
                record.tables_fingerprint == expected.tables_fingerprint,
                || format!("traced event {i} reached different tables than the untraced stream"),
            );
            let declared = session.declared().clone();
            let (cache, repair_s) = t.span("graph.RouteCache::seeded_from", root, |_| {
                let cache = layers::seeded(&previous, &declared);
                layers::materialize(&cache, &sources);
                cache
            });
            let ((), reference_s) = t.span("fpss.expected_tables_for", root, |_| {
                layers::reference_tables(&cache, &sources);
            });
            let (_, fingerprint_s) = t.span("scenario.tables_fingerprint", root, |_| {
                session.tables_fingerprint()
            });
            cache.detach_seed();
            previous = cache;
            split.push(
                apply_s,
                repair_s,
                reference_s,
                fingerprint_s,
                record.messages,
            );
        }
        let (report, finish_s) =
            t.span("scenario.StreamSession::finish", root, |_| session.finish());
        out.set("fpss.finish_ms", finish_s * 1e3);
        report
    });
    out.check(
        report.tables_match_centralized() == Some(true) && !report.truncated,
        || "the traced stream must match the centralized reference untruncated".into(),
    );
    split.report(&mut out);
    out.attempted = (spec.events + 1) as u64;
    out.set("trace.overhead_s", traced_s - untraced.wall);
    out
}

/// Per-event times of the traced stream, by layer.
#[derive(Default)]
struct EventSplit {
    repair: Vec<f64>,
    reference: Vec<f64>,
    fingerprint: Vec<f64>,
    reconverge: Vec<f64>,
    messages: u64,
}

impl EventSplit {
    fn push(&mut self, apply: f64, repair: f64, reference: f64, fingerprint: f64, messages: u64) {
        self.repair.push(repair);
        self.reference.push(reference);
        self.fingerprint.push(fingerprint);
        self.reconverge
            .push(apply - repair - reference - fingerprint);
        self.messages += messages;
    }

    fn report(&self, out: &mut Outcome) {
        let events = self.reconverge.len();
        out.set("graph.seeded_repair_ms", median(&self.repair) * 1e3);
        out.set("fpss.event_reference_ms", median(&self.reference) * 1e3);
        out.set(
            "scenario.tables_fingerprint_ms",
            median(&self.fingerprint) * 1e3,
        );
        out.set("fpss.event_reconverge_ms", median(&self.reconverge) * 1e3);
        out.set(
            "fpss.event_us_per_msg",
            self.reconverge.iter().sum::<f64>() * 1e6 / self.messages.max(1) as f64,
        );
        out.set(
            "netsim.msgs_per_event",
            self.messages as f64 / events.max(1) as f64,
        );
        out.notes.push(format!(
            "per event (median ms): graph repair {:.2}, reference tables {:.2}, \
             tables fingerprint {:.2}, in-network reconvergence {:.2}; {:.0} msgs/event",
            median(&self.repair) * 1e3,
            median(&self.reference) * 1e3,
            median(&self.fingerprint) * 1e3,
            median(&self.reconverge) * 1e3,
            self.messages as f64 / events.max(1) as f64
        ));
    }
}
