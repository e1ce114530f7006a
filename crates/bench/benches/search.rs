//! Inner-engine benchmarks for the strategy search stack.
//!
//! Three axes, matching the PR that introduced them:
//!
//! * `mcmc_incremental` vs `mcmc_reference` — the same single-chain search
//!   driven by the incremental `CostEvaluator` (mutate-and-revert) versus
//!   the clone-per-proposal full re-estimation loop. The incremental path
//!   must be ≥ 5x faster on the Shared-preset DLRM search.
//! * `mcmc_chains` — one chain versus four parallel chains of the same
//!   per-chain length: with ≥ 4 cores the 4x search effort should cost
//!   roughly one chain's wall time.
//! * `waterfill_components` — a fabric-reconfiguration-heavy sharded
//!   workload whose event batches re-waterfill many disjoint components,
//!   one after another on the engine's pooled scratch.
//!
//! Run with `cargo bench -p topoopt-bench --bench search`; record the
//! incremental/reference ratio in CHANGES.md PR-over-PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use topoopt_bench::compute_params;
use topoopt_graph::Graph;
use topoopt_models::zoo::build_dlrm;
use topoopt_models::DlrmConfig;
use topoopt_netsim::fluid::FlowSpec;
use topoopt_netsim::FluidEngine;
use topoopt_strategy::{
    search_strategy, search_strategy_reference, McmcConfig, ParallelizationStrategy, TopologyView,
};

fn mcmc_cfg(iterations: usize, chains: usize) -> McmcConfig {
    McmcConfig { iterations, temperature: 0.05, seed: 7, restrict_to_heavy_ops: true, chains }
}

fn bench_mcmc_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_mcmc");
    group.sample_size(10);
    let n = 32;
    let model = build_dlrm(&DlrmConfig::shared());
    let view = TopologyView::FullMesh { n, per_server_bps: 400.0e9 };
    let params = compute_params();
    let initial = ParallelizationStrategy::pure_data_parallel(&model, n);
    let cfg = mcmc_cfg(200, 1);
    group.bench_function("dlrm_shared_32s_incremental", |b| {
        b.iter(|| search_strategy(&model, initial.clone(), &view, &params, &cfg))
    });
    group.bench_function("dlrm_shared_32s_reference", |b| {
        b.iter(|| search_strategy_reference(&model, initial.clone(), &view, &params, &cfg))
    });
    group.finish();
}

fn bench_mcmc_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_chains");
    group.sample_size(10);
    let n = 32;
    let model = build_dlrm(&DlrmConfig::shared());
    let view = TopologyView::FullMesh { n, per_server_bps: 400.0e9 };
    let params = compute_params();
    let initial = ParallelizationStrategy::pure_data_parallel(&model, n);
    for &chains in &[1usize, 4] {
        let cfg = mcmc_cfg(200, chains);
        group.bench_with_input(BenchmarkId::new("dlrm_shared_32s", chains), &chains, |b, _| {
            b.iter(|| search_strategy(&model, initial.clone(), &view, &params, &cfg))
        });
    }
    group.finish();
}

/// `rings` disjoint rings with neighbour and 3-hop flows per node, plus
/// `reconfigs` scheduled fabric swaps (to the same capacities): every swap
/// re-waterfills all rings in one event batch — the multi-component case.
fn reconfig_heavy_shards(rings: usize, size: usize, reconfigs: usize) -> f64 {
    let mut g = Graph::new(rings * size);
    for r in 0..rings {
        let base = r * size;
        for i in 0..size {
            g.add_edge(base + i, base + (i + 1) % size, 100.0e9);
        }
    }
    let mut engine = FluidEngine::new(&g, 1.0e-6);
    for r in 0..rings {
        let base = r * size;
        for i in 0..size {
            engine.add_flow(FlowSpec::new(
                vec![base + i, base + (i + 1) % size],
                1.0e9 * (1.0 + ((r * 7 + i) % 11) as f64 / 4.0),
            ));
            engine.add_flow(FlowSpec::new(
                (0..=3).map(|k| base + (i + k) % size).collect(),
                0.5e9 * (1.0 + ((r * 5 + i) % 7) as f64 / 3.0),
            ));
        }
    }
    for k in 1..=reconfigs {
        engine.schedule_reconfig(0.02 * k as f64, &g);
    }
    engine.run();
    engine.result().makespan_s
}

fn bench_waterfill_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("waterfill_components");
    group.sample_size(10);
    for &(rings, size) in &[(16usize, 12usize), (32, 16)] {
        let label = format!("{rings}x{size}");
        group.bench_with_input(BenchmarkId::new("reconfig_heavy", &label), &label, |b, _| {
            b.iter(|| reconfig_heavy_shards(rings, size, 20))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mcmc_incremental, bench_mcmc_chains, bench_waterfill_components);
criterion_main!(benches);
