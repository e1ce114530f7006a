//! `churn_planned_1024`: Poisson arrivals at 90% load on a 1024-server
//! partitioned TopoOpt fabric, every transition sequenced by a tree-search
//! `MigrationPlanner` built the way the `fig_reconfig_planned` experiment
//! builds its planner.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use topoopt_cluster::{job_mix_for_load, TransitionSchedule};
use topoopt_graph::Graph;
use topoopt_netsim::{
    simulate_dynamic_cluster, DynamicClusterParams, DynamicFabric, DynamicJobSpec, MigrationMode,
    SharedEngineMode,
};
use topoopt_reconfig::{FabricSpec, MigrationPlanner, MigrationProblem, TreeSearch};

use crate::jobs::{mix, poisson_jobs, prototypes, PER_HOP_LATENCY_S};
use crate::trace::{SpanId, Trace};
use crate::Pass;

const SERVERS: usize = 1024;
const LOAD: f64 = 0.9;

/// What the planner closure saw over one dynamic run.
#[derive(Default)]
struct PlannerLog {
    calls: usize,
    link_ops: usize,
    states_checked: usize,
    fallbacks: usize,
}

pub struct Churn {
    jobs: Vec<DynamicJobSpec>,
    provisioning_s: f64,
}

impl Churn {
    pub fn setup(seed: u64, trace: &Trace, parent: Option<SpanId>) -> (Churn, f64) {
        let mix_seed = seed.wrapping_add(6);
        let (protos, plan_s) = prototypes(trace, parent, topoopt_bench::build_topoopt_fabric);
        let requests = job_mix_for_load(&mix(), SERVERS * 2, LOAD, mix_seed);
        let (jobs, mean_duration_s) = poisson_jobs(&protos, &requests, SERVERS, LOAD, mix_seed);
        (Churn { jobs, provisioning_s: 0.1 * mean_duration_s }, plan_s)
    }

    pub fn run(&self, trace: &Arc<Trace>, parent: Option<SpanId>) -> Pass {
        let log = Arc::new(Mutex::new(PlannerLog::default()));
        let r = trace.span("netsim.dynamic", parent, |dynamic| {
            let params = DynamicClusterParams {
                total_servers: SERVERS,
                fabric: DynamicFabric::Partitioned,
                provisioning_time_s: self.provisioning_s,
                per_hop_latency_s: PER_HOP_LATENCY_S,
                migration: planned_migration(
                    self.provisioning_s,
                    Arc::clone(trace),
                    dynamic,
                    Arc::clone(&log),
                ),
                shared_engine: SharedEngineMode::Persistent,
                window_cap: None,
                faults: vec![],
            };
            simulate_dynamic_cluster(&self.jobs, &params)
        });
        let log = log.lock().expect("planner log poisoned by a panicking planner");
        let completed = r.jobs.iter().filter(|j| j.completed).count();
        let mut out = BTreeMap::new();
        out.insert("churn.jobs".into(), r.jobs.len() as f64);
        out.insert("churn.completed".into(), completed as f64);
        out.insert("churn.mean_jct_s".into(), r.mean_jct_s);
        out.insert("churn.p99_jct_s".into(), r.p99_jct_s);
        out.insert("churn.queue_s".into(), r.mean_queue_delay_s);
        out.insert("churn.switch_over_s".into(), r.mean_switch_over_s);
        out.insert("churn.makespan_s".into(), r.makespan_s);
        out.insert("churn.flips".into(), r.flips as f64);
        out.insert("churn.planned_transitions".into(), r.planned_transitions as f64);
        out.insert("churn.fallback_transitions".into(), r.fallback_transitions as f64);
        out.insert("netsim.windows".into(), r.engine.windows as f64);
        out.insert("netsim.jobs_rerated".into(), r.engine.jobs_rerated as f64);
        out.insert("netsim.jobs_reused".into(), r.engine.jobs_reused as f64);
        out.insert("reconfig.plans".into(), log.calls as f64);
        out.insert("reconfig.states_checked".into(), log.states_checked as f64);
        out.insert("reconfig.link_ops".into(), log.link_ops as f64);
        out.insert("reconfig.fallbacks".into(), log.fallbacks as f64);
        Pass {
            outputs: out,
            attempted: (r.jobs.len() + log.calls) as u64,
            failed: (r.jobs.len() - completed + log.fallbacks) as u64,
            plan_s: 0.0,
        }
    }
}

/// The `fig_reconfig_planned` migration callback (tree search, each link
/// operation an equal slice of the atomic rewiring time, atomic fallback),
/// with every planner call spanned and its counters logged.
fn planned_migration(
    provisioning_s: f64,
    trace: Arc<Trace>,
    parent: Option<SpanId>,
    log: Arc<Mutex<PlannerLog>>,
) -> MigrationMode {
    MigrationMode::Planned(Arc::new(move |prev: Option<&Graph>, target: &Graph| {
        trace.span("reconfig.plan", parent, |_| {
            let n = target.num_nodes();
            let per_step_s = provisioning_s / target.num_edges().max(1) as f64;
            let source = prev.cloned().unwrap_or_else(|| Graph::new(n));
            let problem = MigrationProblem::new(
                n,
                FabricSpec::shortest_path(source),
                FabricSpec::shortest_path(target.clone()),
            );
            let planner = MigrationPlanner::new(Box::new(TreeSearch::default()));
            let result = planner.plan(&problem);
            let mut log = log.lock().expect("planner log poisoned by a panicking planner");
            log.calls += 1;
            match result {
                Ok(plan) => {
                    log.link_ops += plan.link_ops();
                    log.states_checked += plan.states_checked;
                    TransitionSchedule::planned(
                        (1..=plan.link_ops()).map(|i| i as f64 * per_step_s).collect(),
                    )
                }
                Err(fb) => {
                    log.fallbacks += 1;
                    log.states_checked += fb.states_checked;
                    TransitionSchedule {
                        step_offsets_s: vec![provisioning_s],
                        planned: false,
                        fallback: Some(fb.violation.policy),
                    }
                }
            }
        })
    }))
}
