//! Incremental engine vs. from-scratch water-filling.
//!
//! Two workload shapes bracket the engine's advantage:
//!
//! * `sharded` — many disjoint per-job rings (the Figure 16 shape), run
//!   through `simulate_flows` on the engine's single event loop: every
//!   completion event touches one job's component, so the incremental
//!   engine re-rates O(job) flows while the reference loop re-rates all of
//!   them. This is where the asymptotic win lives. (Running each ring in
//!   its own event loop is the shared-cluster window's job; see
//!   `benches/scale.rs`.)
//! * `hub` — every flow crosses one shared switch: the component is the
//!   whole network, so the engine's win reduces to skipping untouched
//!   settle work.
//!
//! Run with `cargo bench -p topoopt-bench --bench fluid`; compare the
//! `incremental` and `from_scratch` lines per shape PR-over-PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use topoopt_graph::{topologies, Graph};
use topoopt_netsim::fluid::{simulate_flows, simulate_flows_reference, FlowSpec};

/// `rings` disjoint rings of `size` nodes, one flow per edge with distinct
/// sizes so completions are spread over many events.
fn sharded_workload(rings: usize, size: usize) -> (Graph, Vec<FlowSpec>) {
    let mut g = Graph::new(rings * size);
    let mut flows = Vec::new();
    for r in 0..rings {
        let base = r * size;
        for i in 0..size {
            g.add_edge(base + i, base + (i + 1) % size, 100.0e9);
            flows.push(FlowSpec::new(
                vec![base + i, base + (i + 1) % size],
                1.0e9 * (1.0 + ((r * size + i) % 17) as f64 / 4.0),
            ));
        }
    }
    (g, flows)
}

/// All-to-one incast through a shared hub: one fully-connected component.
fn hub_workload(n: usize) -> (Graph, Vec<FlowSpec>) {
    let g = topologies::ideal_switch(n, 100.0e9);
    let hub = n;
    let flows: Vec<FlowSpec> = (1..n)
        .map(|i| FlowSpec::new(vec![i, hub, 0], 1.0e9 * (1.0 + (i % 13) as f64 / 3.0)))
        .collect();
    (g, flows)
}

fn bench_waterfill(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_engine");
    group.sample_size(10);
    for &(rings, size) in &[(8usize, 8usize), (24, 16)] {
        let (g, flows) = sharded_workload(rings, size);
        let label = format!("{rings}x{size}");
        group.bench_with_input(BenchmarkId::new("sharded_incremental", &label), &label, |b, _| {
            b.iter(|| simulate_flows(&g, &flows, 1.0e-6))
        });
        group.bench_with_input(BenchmarkId::new("sharded_from_scratch", &label), &label, |b, _| {
            b.iter(|| simulate_flows_reference(&g, &flows, 1.0e-6))
        });
    }
    for &n in &[64usize, 192] {
        let (g, flows) = hub_workload(n);
        group.bench_with_input(BenchmarkId::new("hub_incremental", n), &n, |b, _| {
            b.iter(|| simulate_flows(&g, &flows, 1.0e-6))
        });
        group.bench_with_input(BenchmarkId::new("hub_from_scratch", n), &n, |b, _| {
            b.iter(|| simulate_flows_reference(&g, &flows, 1.0e-6))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_waterfill);
criterion_main!(benches);
