//! Layer probes shared by the traced runs: each times calls into one
//! crate's public functions from outside, around the same work the run
//! engines do inside.

use crate::metrics::Outcome;
use crate::trace::{median_batch, SpanId, Tracer};
use specfaith::core::id::NodeId;
use specfaith::crypto::auth::ChannelKey;
use specfaith::crypto::mac::hmac_sha256;
use specfaith::crypto::sha256::sha256;
use specfaith::fpss::pricing::expected_tables_for;
use specfaith::graph::cache::RouteCache;
use specfaith::graph::costs::CostVector;
use specfaith::scenario::{CacheScope, RunReport, Scenario};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

/// The on-path transit nodes of every route out of `src`: the `k` whose
/// avoid trees `d_{G−k}` the VCG prices of `src`'s table need.
fn transits(cache: &RouteCache, src: NodeId) -> BTreeSet<NodeId> {
    cache
        .tree(src)
        .iter()
        .flatten()
        .flat_map(|path| path.transit_nodes().iter().copied())
        .collect()
}

/// Materializes every tree the reference check of `sources` reads: the
/// LCP tree of each source and the avoid tree of each on-path transit.
pub fn materialize(cache: &RouteCache, sources: &[NodeId]) {
    for &src in sources {
        for k in transits(cache, src) {
            black_box(cache.tree_avoiding(src, k));
        }
    }
}

/// Assembles the expected routing and pricing tables of `sources` — the
/// pricing half of the reference check, on whatever the cache holds.
pub fn reference_tables(cache: &RouteCache, sources: &[NodeId]) {
    for &src in sources {
        black_box(expected_tables_for(cache, src));
    }
}

/// A cache for `declared` built the way the streaming and sweep engines
/// build it: by repairing `base` when the two cost vectors differ at one
/// node, by sharing `base` when they are equal, and cold otherwise.
pub fn seeded(base: &Arc<RouteCache>, declared: &CostVector) -> Arc<RouteCache> {
    if base.costs() == declared {
        Arc::clone(base)
    } else if base.costs().one_node_delta(declared).is_some() {
        Arc::new(RouteCache::seeded_from(base, declared.clone()))
    } else {
        Arc::new(RouteCache::new(base.topology().clone(), declared.clone()))
    }
}

/// The honest run of a workload's instance on a cold cache scope, then
/// the reference check replayed layer by layer on a cold cache: LCP
/// trees (graph), avoid-tree repair (graph), and table assembly on the
/// now-warm cache (fpss). The run's wall time minus those spans, per
/// delivered message, is the construction cost per message.
///
/// Returns the honest run and the warm honest-declaration cache.
pub fn honest_run(
    t: &Tracer,
    parent: SpanId,
    scenario: &Scenario,
    seed: u64,
    sources: &[NodeId],
    out: &mut Outcome,
) -> (RunReport, f64, Arc<RouteCache>) {
    let (run, run_s) = t.span("scenario.run(honest)", parent, |_| {
        scenario.with_route_scope(CacheScope::eager()).run(seed)
    });
    out.check(
        run.tables_match_centralized() == Some(true) && !run.truncated,
        || "the honest run must converge to the centralized reference".into(),
    );
    let cache = Arc::new(RouteCache::new(
        scenario.topology().clone(),
        scenario.costs().clone(),
    ));
    let ((), tree_s) = t.span("graph.RouteCache::tree", parent, |_| {
        for &src in sources {
            black_box(cache.tree(src));
        }
    });
    let ((), avoid_s) = t.span("graph.RouteCache::tree_avoiding", parent, |_| {
        materialize(&cache, sources);
    });
    let ((), reference_s) = t.span("fpss.expected_tables_for", parent, |_| {
        reference_tables(&cache, sources);
    });
    let delivered = run.stats.msgs_delivered;
    out.set("graph.tree_build_ms", tree_s * 1e3);
    out.set("graph.avoid_repair_ms", avoid_s * 1e3);
    out.set("graph.trees_computed", cache.trees_computed() as f64);
    out.set(
        "graph.avoid_trees_cached",
        cache.avoid_trees_cached() as f64,
    );
    out.set("fpss.reference_check_ms", reference_s * 1e3);
    out.set(
        "fpss.construction_us_per_msg",
        (run_s - tree_s - avoid_s - reference_s) * 1e6 / delivered.max(1) as f64,
    );
    out.set("netsim.msgs_delivered", delivered as f64);
    out.set(
        "netsim.bytes_sent",
        run.stats.bytes_sent.iter().sum::<u64>() as f64,
    );
    out.set("netsim.timers_fired", run.stats.timers_fired as f64);
    out.set("netsim.max_queue_depth", run.stats.max_queue_depth as f64);
    (run, run_s, cache)
}

/// The crypto layer's primitives on fixed inputs: SHA-256 over 4 KiB,
/// HMAC-SHA-256 over 256 B, and a sealed bank-channel round trip
/// (`ChannelKey::seal` then `open`) over 256 B. Each figure is the
/// median of seven batches.
pub fn crypto(t: &Tracer, parent: SpanId, out: &mut Outcome) {
    const BATCHES: usize = 7;
    let block: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    let message = &block[..256];
    let ((), _) = t.span("crypto", parent, |_| {
        const SHA_REPS: usize = 256;
        let secs = median_batch(BATCHES, || {
            for _ in 0..SHA_REPS {
                black_box(sha256(black_box(&block)));
            }
        });
        out.set(
            "crypto.sha256_ns_per_byte",
            secs * 1e9 / (SHA_REPS * block.len()) as f64,
        );

        const HMAC_REPS: usize = 2000;
        let key = [7u8; 32];
        let secs = median_batch(BATCHES, || {
            for _ in 0..HMAC_REPS {
                black_box(hmac_sha256(&key, black_box(message)));
            }
        });
        out.set("crypto.hmac_us", secs * 1e6 / HMAC_REPS as f64);

        const SEAL_REPS: u64 = 1000;
        let channel = ChannelKey::derive(b"perfbench-bank-secret", 1);
        let secs = median_batch(BATCHES, || {
            for sequence in 1..=SEAL_REPS {
                let envelope = channel.seal(sequence, message.to_vec());
                black_box(
                    channel
                        .open(&envelope, sequence - 1)
                        .expect("a freshly sealed envelope opens"),
                );
            }
        });
        out.set("crypto.seal_open_us", secs * 1e6 / SEAL_REPS as f64);
    });
}
