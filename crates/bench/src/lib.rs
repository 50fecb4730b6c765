//! # specfaith-bench
//!
//! Shared benchmark instances for the experiment runner
//! (`run_experiments`), which regenerates every experiment table in
//! EXPERIMENTS.md, the sweep benchmark CLI (`sweep_bench`) and the
//! repository benchmark (`perfbench/`).
//!
//! # Shard fragment format
//!
//! `sweep_bench --shard i/N --emit-shard-report <path>` writes one
//! `specfaith-sweep-fragment-v1` JSON document per shard (the
//! serialization of `specfaith::scenario::SweepFragment`), and
//! `sweep_bench --merge` consumes a complete set of them. The layout:
//!
//! ```json
//! {
//!   "format": "specfaith-sweep-fragment-v1",
//!   "shard": {"index": 2, "count": 4},
//!   "instance": "sweep-n64-i2004-s7-quick-ideal",
//!   "instance_fingerprint": "fnv1a64:…",
//!   "seeds": [7],
//!   "agents": [0, 1, …],
//!   "deviations": [{"name": "…", "surface": ["…"], "phase": …}, …],
//!   "baselines": [{"seed": 7, "utilities": [-12, …]}],
//!   "cells": [
//!     {"index": 5, "seed": 7, "agent": 2, "deviation": 1,
//!      "deviant_utility": -9, "detected": true}, …
//!   ],
//!   "timing": {"baseline_secs": 1.2, "cells_secs": 20.9}
//! }
//! ```
//!
//! The **manifest** — `shard`, `instance`, `instance_fingerprint`,
//! `seeds`, `agents`, `deviations` — declares which grid the fragment
//! is a slice of; merge refuses fragments whose manifests disagree.
//! Each cell's `index` is its row-major position in the
//! `seeds × agents × deviations` grid (shard `i` of `N` owns the
//! indices ≡ `i` mod `N`); the redundant `seed`/`agent`/`deviation`
//! coordinates are re-derived and cross-checked at merge time. Every
//! shard re-runs the cheap per-seed honest `baselines`, so merge also
//! verifies bit-identical baseline utilities across shards — a free
//! cross-machine determinism check. `timing` feeds the merge-time skew
//! table. Money values are exact integers; all floats are timings.
//! Unknown keys are ignored, so the format can grow fields without
//! breaking old readers.
//!
//! # Coordinator protocol (`specfaith-coord-v1`)
//!
//! `sweep_bench --coordinate N --listen ADDR` replaces the static
//! shard partition with live work stealing: a coordinator process
//! leases small contiguous cell ranges of the same grid to
//! `sweep_bench --worker ADDR` processes over a Unix or TCP socket
//! (`unix:<path>` / `tcp:<host>:<port>`). The wire format is
//! newline-delimited JSON, one frame per line, each tagged
//! `"frame": "<kind>"`:
//!
//! ```text
//! worker → coordinator    hello (name + grid manifest), baselines,
//!                         ready, heartbeat, result
//! coordinator → worker    welcome | reject, lease, idle, done, abort
//! ```
//!
//! Workers *pull*: after `welcome`, a worker sends its per-seed honest
//! `baselines` (cross-checked bit-for-bit across workers, like the
//! fragment merge), then loops `ready` → `lease`/`idle`/`done`. A
//! `result` frame carries the lease's evaluated cells in the same
//! shape as the fragment format's `cells` array. Integers are parsed
//! through the same i128-accumulator JSON layer as fragments, unknown
//! keys are ignored, and an unparsable line costs the sender its
//! connection — never the run.
//!
//! A lease is re-queued when its connection dies (EOF) or its deadline
//! lapses (no `result`/`heartbeat` within the lease timeout), with
//! doubling backoff and a bounded number of grants; late results of
//! re-issued leases are tolerated when bit-identical and fatal
//! (`DuplicateCell`) when conflicting. Because every cell's RNG seed
//! depends only on `(seed, agent, deviation)`, the merged report is
//! byte-identical to the monolithic sweep whatever the worker count,
//! scheduling, or failures — the same `--expect-fingerprint` baseline
//! gates both `--merge` and `--coordinate`. See the `sweep_bench`
//! binary docs for CLI flags, fault-injection clauses, and exit codes,
//! and `specfaith::scenario::Coordinator` for the library API.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith_fpss::traffic::TrafficMatrix;
use specfaith_graph::costs::CostVector;
use specfaith_graph::generators::random_biconnected;
use specfaith_graph::topology::Topology;

/// A reproducible benchmark instance: topology, costs, traffic.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The topology.
    pub topo: Topology,
    /// True transit costs.
    pub costs: CostVector,
    /// Execution traffic.
    pub traffic: TrafficMatrix,
}

/// Builds the standard random instance for size `n` and `seed`.
pub fn instance(n: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_biconnected(n, n / 2, &mut rng);
    let costs = CostVector::random(n, 1, 20, &mut rng);
    let traffic = TrafficMatrix::random(n, (n / 2).max(2), 3, &mut rng);
    Instance {
        topo,
        costs,
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_reproducible_and_biconnected() {
        let a = instance(10, 3);
        let b = instance(10, 3);
        assert_eq!(a.topo, b.topo);
        assert_eq!(a.costs, b.costs);
        assert_eq!(a.traffic, b.traffic);
        assert!(a.topo.is_biconnected());
    }
}
