//! `datacenter_2048`: the 2048-server slice of the `fig16_dynamic_scale`
//! experiment, built the way that experiment builds it.
//!
//! Two arms run per pass: a full-occupancy static round on the union
//! TopoOpt fabric (shard placement, `build_job_flows` per job, one
//! `simulate_shared_cluster_stats`), and the 60%-load Poisson trace on the
//! cost-equivalent shared fat-tree through `simulate_dynamic_cluster`.

use std::collections::BTreeMap;

use topoopt_cluster::{job_mix_for_load, ClusterShards, JobRequest};
use topoopt_cost::equivalent_fat_tree_bandwidth;
use topoopt_graph::Graph;
use topoopt_models::ModelKind;
use topoopt_netsim::iteration::natural_ring_plans;
use topoopt_netsim::multijob::{build_job_flows, simulate_shared_cluster_stats};
use topoopt_netsim::{
    simulate_dynamic_cluster, DynamicClusterParams, DynamicFabric, DynamicJobSpec, JobSpec,
    MigrationMode, SharedEngineMode, SimNetwork,
};

use crate::jobs::{mix, poisson_jobs, prototype, prototypes, DEGREE, LINK_BPS, PER_HOP_LATENCY_S};
use crate::trace::{SpanId, Trace};
use crate::Pass;

const SERVERS: usize = 2048;
const SHARED_LOAD: f64 = 0.6;

pub struct Datacenter {
    protos: Vec<(ModelKind, DynamicJobSpec, f64)>,
    static_requests: Vec<JobRequest>,
    shared_jobs: Vec<DynamicJobSpec>,
    shared_params: DynamicClusterParams,
}

impl Datacenter {
    pub fn setup(seed: u64, trace: &Trace, parent: Option<SpanId>) -> (Datacenter, f64) {
        let mix_seed = seed.wrapping_add(5);
        let (protos, plan_s) =
            prototypes(trace, parent, topoopt_bench::build_topoopt_fabric_routed);
        let static_requests = job_mix_for_load(&mix(), SERVERS, 1.0, mix_seed);
        let shared_requests = job_mix_for_load(&mix(), SERVERS * 2, SHARED_LOAD, mix_seed);
        let (mut shared_jobs, _) =
            poisson_jobs(&protos, &shared_requests, SERVERS, SHARED_LOAD, mix_seed);
        for spec in &mut shared_jobs {
            spec.plans = natural_ring_plans(&spec.demands);
            spec.topology = None;
        }
        let ft_bw = equivalent_fat_tree_bandwidth(SERVERS, DEGREE, LINK_BPS);
        let shared_params = DynamicClusterParams {
            total_servers: SERVERS,
            fabric: DynamicFabric::Shared(topoopt_graph::topologies::ideal_switch(SERVERS, ft_bw)),
            provisioning_time_s: 0.0,
            per_hop_latency_s: PER_HOP_LATENCY_S,
            migration: MigrationMode::Atomic,
            shared_engine: SharedEngineMode::Persistent,
            window_cap: None,
            faults: vec![],
        };
        (Datacenter { protos, static_requests, shared_jobs, shared_params }, plan_s)
    }

    pub fn run(&self, trace: &Trace, parent: Option<SpanId>) -> Pass {
        let mut out = BTreeMap::new();
        let mut failed = 0;

        // Static arm: fill the cluster, build every job's flows on the
        // union fabric, run one shared round.
        let (net, placed) = trace.span("cluster.place", parent, |_| {
            let mut shards = ClusterShards::new(SERVERS);
            let mut union = Graph::new(SERVERS);
            let mut placed = Vec::new();
            for req in &self.static_requests {
                let Some((_, servers)) = shards.allocate(req.servers) else { break };
                let (_, spec, _) = prototype(&self.protos, req.model);
                let topo = spec.topology.as_ref().expect("prototype fabrics are partitioned");
                for (_, e) in topo.edges() {
                    union.add_edge(servers[e.src], servers[e.dst], e.capacity_bps);
                }
                placed.push((spec, servers));
            }
            (SimNetwork::without_rules(union, SERVERS), placed)
        });
        let jobs: Vec<JobSpec> = placed
            .iter()
            .map(|(spec, servers)| {
                let flows = trace.span("netsim.flow_build", parent, |_| {
                    build_job_flows(&net, &spec.demands, &spec.plans, servers)
                });
                JobSpec::new(spec.name.clone(), flows, spec.compute_s)
            })
            .collect();
        let (round, stats) =
            trace.span("netsim.round", parent, |_| simulate_shared_cluster_stats(&net, &jobs));
        failed += round.per_job_total_s.iter().filter(|t| !t.is_finite()).count() as u64;
        let flows: usize = jobs.iter().map(|j| j.flows.len()).sum();
        out.insert("round.jobs".into(), jobs.len() as f64);
        out.insert("netsim.flows".into(), flows as f64);
        out.insert("netsim.events".into(), stats.events as f64);
        out.insert("netsim.waterfills".into(), stats.waterfills as f64);
        out.insert("netsim.flows_rerated".into(), stats.flows_rerated as f64);
        out.insert("netsim.max_component".into(), stats.max_component as f64);
        out.insert("round.avg_iter_s".into(), round.average_s);
        out.insert("round.p99_iter_s".into(), round.p99_s);

        // Shared arm: the Poisson trace on the cost-equivalent fat-tree.
        let r = trace.span("netsim.dynamic", parent, |_| {
            simulate_dynamic_cluster(&self.shared_jobs, &self.shared_params)
        });
        let completed = r.jobs.iter().filter(|j| j.completed).count();
        failed += (r.jobs.len() - completed) as u64;
        let e = &r.engine;
        out.insert("shared.jobs".into(), r.jobs.len() as f64);
        out.insert("shared.completed".into(), completed as f64);
        out.insert("netsim.windows".into(), e.windows as f64);
        out.insert("shared.windows_incremental".into(), e.windows_incremental as f64);
        out.insert("shared.windows_rebuilt".into(), e.windows_rebuilt as f64);
        out.insert("netsim.jobs_rerated".into(), e.jobs_rerated as f64);
        out.insert("netsim.jobs_reused".into(), e.jobs_reused as f64);
        out.insert("shared.events".into(), e.events as f64);
        out.insert("shared.waterfills".into(), e.waterfills as f64);
        out.insert("shared.flows_rerated".into(), e.flows_rerated as f64);
        out.insert("shared.max_component".into(), e.max_component as f64);
        out.insert("shared.mean_jct_s".into(), r.mean_jct_s);
        out.insert("shared.p99_jct_s".into(), r.p99_jct_s);
        out.insert("shared.makespan_s".into(), r.makespan_s);

        Pass { outputs: out, attempted: (jobs.len() + r.jobs.len()) as u64, failed, plan_s: 0.0 }
    }
}
