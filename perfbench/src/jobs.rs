//! The experiments' 16-server job prototypes and Poisson job traces, shared
//! by the two cluster workloads.

use std::time::Instant;

use topoopt_bench::{baseline_strategy, demands_and_compute};
use topoopt_cluster::{poisson_arrival_times, JobRequest, MixModel};
use topoopt_core::topology_finder::TopologyFinderOutput;
use topoopt_models::{ModelKind, ModelPreset};
use topoopt_netsim::multijob::solo_iteration_s;
use topoopt_netsim::{AllReducePlan, DynamicJobSpec};
use topoopt_strategy::TrafficDemands;

use crate::trace::{SpanId, Trace};

pub const DEGREE: usize = 8;
pub const LINK_BPS: f64 = 100.0e9;
const ITERATIONS: usize = 20;
pub const PER_HOP_LATENCY_S: f64 = 1.0e-6;

/// The experiments' 16-server job mix.
pub fn mix() -> MixModel {
    MixModel { servers_per_job: 16, ..MixModel::default() }
}

/// One 16-server job per model kind of the mix, planned once: every
/// request of that kind is a relabelled copy. Returns the prototypes with
/// their solo iteration times, and the host seconds spent planning them
/// (strategy cost model and TopologyFinder).
pub fn prototypes(
    trace: &Trace,
    parent: Option<SpanId>,
    fabric: fn(&TrafficDemands, usize, usize, f64) -> TopologyFinderOutput,
) -> (Vec<(ModelKind, DynamicJobSpec, f64)>, f64) {
    let n = mix().servers_per_job;
    let mut plan_s = 0.0;
    let kinds = [ModelKind::Dlrm, ModelKind::Bert, ModelKind::Candle, ModelKind::Vgg16];
    let protos = kinds
        .iter()
        .map(|&kind| {
            let started = Instant::now();
            let (model, demands, compute_s) = trace.span("strategy.cost_model", parent, |_| {
                let (model, strategy) = baseline_strategy(kind, ModelPreset::Shared, n);
                let (demands, compute_s) =
                    demands_and_compute(&model, &strategy, n, DEGREE as f64 * LINK_BPS);
                (model, demands, compute_s)
            });
            let out = trace
                .span("core.topology_finder", parent, |_| fabric(&demands, n, DEGREE, LINK_BPS));
            plan_s += started.elapsed().as_secs_f64();
            let plans: Vec<AllReducePlan> = out
                .groups
                .iter()
                .map(|g| AllReducePlan { permutations: g.permutations(), bytes: g.bytes })
                .collect();
            let spec = DynamicJobSpec {
                name: model.name.clone(),
                servers: n,
                demands,
                plans,
                topology: Some(out.graph),
                compute_s,
                arrival_s: 0.0,
                iterations: ITERATIONS,
            };
            let solo_s = trace.span("netsim.solo_iteration", parent, |_| {
                solo_iteration_s(&spec, PER_HOP_LATENCY_S)
            });
            (kind, spec, solo_s)
        })
        .collect();
    (protos, plan_s)
}

/// Poisson-arrival copies of the prototypes for `requests`, spaced to
/// offer `load` of `total` servers, as the dynamic experiments space them.
/// Also returns the mean job duration the spacing was calibrated on.
pub fn poisson_jobs(
    protos: &[(ModelKind, DynamicJobSpec, f64)],
    requests: &[JobRequest],
    total: usize,
    load: f64,
    seed: u64,
) -> (Vec<DynamicJobSpec>, f64) {
    let built: Vec<&(ModelKind, DynamicJobSpec, f64)> =
        requests.iter().map(|req| prototype(protos, req.model)).collect();
    let mean_duration_s = ITERATIONS as f64 * built.iter().map(|(_, _, solo)| solo).sum::<f64>()
        / built.len().max(1) as f64;
    let mean_gap_s = mean_duration_s * mix().servers_per_job as f64 / (total as f64 * load);
    let arrivals = poisson_arrival_times(built.len(), mean_gap_s, seed);
    let jobs = built
        .iter()
        .zip(&arrivals)
        .map(|((_, spec, _), &t)| DynamicJobSpec { arrival_s: t, ..spec.clone() })
        .collect();
    (jobs, mean_duration_s)
}

pub fn prototype(
    protos: &[(ModelKind, DynamicJobSpec, f64)],
    kind: ModelKind,
) -> &(ModelKind, DynamicJobSpec, f64) {
    protos.iter().find(|(k, _, _)| *k == kind).expect("a prototype for every kind of the mix")
}
