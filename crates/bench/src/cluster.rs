//! The shared-cluster job pipeline of §5.6 (Figure 16, Appendix C), shared
//! by the cluster experiments and the scale bench: a model mix of 16-server
//! jobs, each model kind planned once with `TopologyFinder`, then either
//! given Poisson arrivals or placed side by side on the union fabric.
//!
//! Every request of the mix is a 16-server `ModelPreset::Shared` job, so a
//! copy of its kind's prototype is the same job a per-request rebuild
//! would plan.

use rayon::prelude::*;
use topoopt_cluster::{job_mix_for_load, poisson_arrival_times, ClusterShards, MixModel};
use topoopt_core::topology_finder::TopologyFinderOutput;
use topoopt_cost::equivalent_fat_tree_bandwidth;
use topoopt_graph::{topologies, Graph};
use topoopt_models::{ModelKind, ModelPreset};
use topoopt_netsim::iteration::natural_ring_plans;
use topoopt_netsim::multijob::{build_job_flows, solo_iteration_s};
use topoopt_netsim::{
    AllReducePlan, DynamicClusterParams, DynamicFabric, DynamicJobSpec, JobSpec, MigrationMode,
    SharedEngineMode, SimNetwork,
};
use topoopt_strategy::TrafficDemands;

use crate::{baseline_strategy, demands_and_compute};

/// Optical interfaces per server.
pub const DEGREE: usize = 8;
/// Bandwidth per interface (100 Gbps).
const LINK_BPS: f64 = 100.0e9;
/// Training iterations before a dynamic job departs.
pub const ITERATIONS: usize = 20;
/// Per-hop propagation latency of every cluster fabric.
const PER_HOP_LATENCY_S: f64 = 1.0e-6;

/// The §5.6 job mix (40/30/20/10 DLRM/BERT/CANDLE/VGG) of 16-server jobs.
fn mix() -> MixModel {
    MixModel { servers_per_job: 16, ..MixModel::default() }
}

/// A `TopologyFinder` front end: [`crate::build_topoopt_fabric`] or
/// [`crate::build_topoopt_fabric_routed`].
pub type FabricBuilder = fn(&TrafficDemands, usize, usize, f64) -> TopologyFinderOutput;

/// One model kind of the mix, planned once over local server ids.
pub struct Prototype {
    /// The model the job trains.
    pub kind: ModelKind,
    /// The job on its own TopoOpt fabric, arriving at time zero.
    pub spec: DynamicJobSpec,
    /// The per-iteration cost the dynamic simulator charges this job, so
    /// arrival-rate calibration can never drift from simulated durations.
    pub solo_iteration_s: f64,
}

/// Plan one job per model kind of the mix: baseline strategy, demands and
/// compute time, the `fabric` topology and its AllReduce plans.
pub fn prototypes(fabric: FabricBuilder) -> Vec<Prototype> {
    let n = mix().servers_per_job;
    [ModelKind::Dlrm, ModelKind::Bert, ModelKind::Candle, ModelKind::Vgg16]
        .par_iter()
        .map(|&kind| {
            let (model, strategy) = baseline_strategy(kind, ModelPreset::Shared, n);
            let (demands, compute_s) =
                demands_and_compute(&model, &strategy, n, DEGREE as f64 * LINK_BPS);
            let out = fabric(&demands, n, DEGREE, LINK_BPS);
            let spec = DynamicJobSpec {
                name: model.name.clone(),
                servers: n,
                demands,
                plans: AllReducePlan::from_groups(&out.groups),
                topology: Some(out.graph),
                compute_s,
                arrival_s: 0.0,
                iterations: ITERATIONS,
            };
            let solo_iteration_s = solo_iteration_s(&spec, PER_HOP_LATENCY_S);
            Prototype { kind, spec, solo_iteration_s }
        })
        .collect()
}

fn prototype(protos: &[Prototype], kind: ModelKind) -> &Prototype {
    protos.iter().find(|p| p.kind == kind).expect("a prototype for every kind of the mix")
}

/// A Poisson trace offering `load` of `total` servers on average. It draws
/// twice the steady-state job count from the mix, so the cluster sees
/// sustained turnover (departures freeing shards for queued arrivals).
/// Returns the jobs and the mean job duration the arrival gap was
/// calibrated on: rate = total·load / (servers per job · mean duration).
pub fn poisson_trace(
    protos: &[Prototype],
    total: usize,
    load: f64,
    seed: u64,
) -> (Vec<DynamicJobSpec>, f64) {
    let mix = mix();
    let built: Vec<&Prototype> = job_mix_for_load(&mix, total * 2, load, seed)
        .iter()
        .map(|req| prototype(protos, req.model))
        .collect();
    let mean_duration_s = ITERATIONS as f64 * built.iter().map(|p| p.solo_iteration_s).sum::<f64>()
        / built.len().max(1) as f64;
    let mean_gap_s = mean_duration_s * mix.servers_per_job as f64 / (total as f64 * load.max(0.05));
    let arrivals = poisson_arrival_times(built.len(), mean_gap_s, seed);
    let jobs = built
        .iter()
        .zip(&arrivals)
        .map(|(p, &arrival_s)| DynamicJobSpec { arrival_s, ..p.spec.clone() })
        .collect();
    (jobs, mean_duration_s)
}

/// Place the mix for `load` of `total` servers until the cluster is full:
/// each job gets a disjoint `ClusterShards` shard and its prototype fabric
/// is relabelled onto it. Returns the union of the placed fabrics and
/// every placed job with its servers.
pub fn place_jobs(
    protos: &[Prototype],
    total: usize,
    load: f64,
    seed: u64,
) -> (SimNetwork, Vec<(&DynamicJobSpec, Vec<usize>)>) {
    let mut shards = ClusterShards::new(total);
    let mut union = Graph::new(total);
    let mut placed = Vec::new();
    for req in job_mix_for_load(&mix(), total, load, seed) {
        let Some((_, servers)) = shards.allocate(req.servers) else { break };
        let spec = &prototype(protos, req.model).spec;
        let topology = spec.topology.as_ref().expect("prototype fabrics are partitioned");
        for (_, e) in topology.edges() {
            union.add_edge(servers[e.src], servers[e.dst], e.capacity_bps);
        }
        placed.push((spec, servers));
    }
    (SimNetwork::without_rules(union, total), placed)
}

/// One round's worth of a placed job's flows on `net`.
pub fn round_job(net: &SimNetwork, spec: &DynamicJobSpec, servers: &[usize]) -> JobSpec {
    let flows = build_job_flows(net, &spec.demands, &spec.plans, servers);
    JobSpec::new(spec.name.clone(), flows, spec.compute_s)
}

/// The same job on a switched fabric: natural rings, no own topology.
pub fn fat_tree_job(spec: &DynamicJobSpec) -> DynamicJobSpec {
    DynamicJobSpec { plans: natural_ring_plans(&spec.demands), topology: None, ..spec.clone() }
}

/// The cost-equivalent fat-tree of a `total`-server TopoOpt cluster, as an
/// ideal switch.
pub fn fat_tree(total: usize) -> Graph {
    topologies::ideal_switch(total, equivalent_fat_tree_bandwidth(total, DEGREE, LINK_BPS))
}

/// Dynamic-cluster parameters of the experiments: persistent shared
/// engine, no event-loop cap, no faults.
pub fn cluster_params(
    total: usize,
    fabric: DynamicFabric,
    provisioning_time_s: f64,
    migration: MigrationMode,
) -> DynamicClusterParams {
    DynamicClusterParams {
        total_servers: total,
        fabric,
        provisioning_time_s,
        per_hop_latency_s: PER_HOP_LATENCY_S,
        migration,
        shared_engine: SharedEngineMode::Persistent,
        window_cap: None,
        faults: vec![],
    }
}
