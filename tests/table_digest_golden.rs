//! Golden pins of the converged DATA1 / DATA2 / DATA3\* table digests
//! (CI's named table-digest gate).
//!
//! Every bank hash comparison, stream fingerprint and checker verdict
//! rests on these digest bytes: the canonical row order, the identity
//! tags and their order, the encoding of each field. The equivalence
//! gates compare two runs of the same code, so a slip that moves the
//! bytes on both sides passes them; these goldens fix the bytes
//! themselves. Two small plain instances:
//!
//! * a scale-free graph with `Uniform(1)` costs, where pricing ties are
//!   everywhere: a quarter of its 1,062 pricing entries carry three or
//!   more identity tags, and 27 carry five to seven;
//! * a random biconnected graph with random costs, where routes are
//!   mostly unique and tag sets mostly single.
//!
//! Moving a pin is a reproducibility break: it needs a stated reason.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith_crypto::sha256::Digest;
use specfaith_fpss::runner::converged_table_digests;
use specfaith_graph::costs::CostVector;
use specfaith_graph::generators::{random_biconnected, scale_free};
use specfaith_graph::topology::Topology;
use specfaith_netsim::Latency;

/// FNV-1a over the concatenated `(data1, data2, data3*)` digests of every
/// node, in node order.
fn fingerprint(topo: &Topology, costs: &CostVector, seed: u64) -> String {
    let digests: Vec<(Digest, Digest, Digest)> =
        converged_table_digests(topo, costs, Latency::DEFAULT, seed);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (d1, d2, d3) in &digests {
        for byte in [d1, d2, d3].into_iter().flat_map(|d| d.as_bytes()) {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a64:{hash:016x}")
}

#[test]
fn uniform_cost_scale_free_tables_are_pinned() {
    let mut rng = StdRng::seed_from_u64(23);
    let topo = scale_free(32, 3, &mut rng);
    let costs = CostVector::uniform(topo.num_nodes(), 1);
    assert_eq!(fingerprint(&topo, &costs, 5), "fnv1a64:c809170c3afe773d");
}

#[test]
fn random_cost_biconnected_tables_are_pinned() {
    let mut rng = StdRng::seed_from_u64(41);
    let topo = random_biconnected(24, 14, &mut rng);
    let costs = CostVector::random(topo.num_nodes(), 1, 20, &mut rng);
    assert_eq!(fingerprint(&topo, &costs, 9), "fnv1a64:c236478542385105");
}
