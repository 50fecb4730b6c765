//! Benchmark: centralized LCP and VCG payment computation (the primitive
//! behind experiment E1 and the checkers' reference semantics).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use specfaith_bench::instance;
use specfaith_core::id::NodeId;
use specfaith_graph::lcp::{lcp_tree, lcp_tree_avoiding};

fn bench_lcp_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("lcp_tree");
    for n in [8usize, 16, 32, 64] {
        let inst = instance(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| lcp_tree(&inst.topo, &inst.costs, NodeId::new(0)));
        });
    }
    group.finish();
}

fn bench_lcp_avoiding(c: &mut Criterion) {
    let mut group = c.benchmark_group("lcp_tree_avoiding");
    for n in [8usize, 16, 32, 64] {
        let inst = instance(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                lcp_tree_avoiding(
                    &inst.topo,
                    &inst.costs,
                    NodeId::new(0),
                    Some(NodeId::new(1)),
                )
            });
        });
    }
    group.finish();
}

/// The cost of one reference-table derivation, cold cache vs the
/// pre-`RouteCache` per-pair-query implementation — the within-cell half
/// of the sweep speedup (the cross-cell half is the sweep's shared
/// baseline cache).
fn bench_route_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("expected_tables_cold_cache_vs_per_query");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let inst = instance(n, 42);
        group.bench_with_input(BenchmarkId::new("cold_cache", n), &inst, |b, inst| {
            b.iter(|| {
                let routes =
                    specfaith_graph::cache::RouteCache::new(inst.topo.clone(), inst.costs.clone());
                specfaith_fpss::pricing::expected_tables(&routes)
            });
        });
        group.bench_with_input(BenchmarkId::new("per_query", n), &inst, |b, inst| {
            b.iter(|| specfaith_fpss::pricing::expected_tables_uncached(&inst.topo, &inst.costs));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lcp_tree,
    bench_lcp_avoiding,
    bench_route_cache
);
criterion_main!(benches);
