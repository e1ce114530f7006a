//! Output checks. Simulated outputs and work counters are compared bit for
//! bit: against the committed `fig16_dynamic_scale` artifact (2048-server
//! rows, default seed), against the outputs pinned in `expected.json`, and
//! between the passes of one run.

use std::collections::BTreeMap;

use topoopt_report::{Cell, ExperimentReport};

/// Outputs pinned per workload and seed at the commit that defined the
/// benchmark, as printed by `--print-outputs`.
const EXPECTED: &str = include_str!("../expected.json");

/// The committed artifact of the experiment `datacenter_2048` slices.
const FIG16_SCALE: &str = include_str!("../../bench/BENCH_fig16_dynamic_scale.json");

/// The seed `fig16_dynamic_scale` was committed at.
const ARTIFACT_SEED: u64 = 7;

pub type Outputs = BTreeMap<String, f64>;

/// The pinned outputs of `workload` at `seed`, if that seed is pinned. A
/// workload whose outputs do not depend on the seed is pinned under `*`.
fn expected(workload: &str, seed: u64) -> Option<Outputs> {
    let all = serde::json::parse(EXPECTED).expect("expected.json is valid JSON");
    let seeds = all.get(workload)?;
    let pinned = seeds.get(&seed.to_string()).or_else(|| seeds.get("*"))?.as_object()?;
    Some(
        pinned
            .iter()
            .map(|(k, v)| (k.clone(), v.as_float().expect("pinned outputs are numbers")))
            .collect(),
    )
}

/// The 2048-server rows of the committed `fig16_dynamic_scale` artifact,
/// keyed by the `datacenter_2048` output each column pins.
fn artifact_rows() -> Outputs {
    let report: ExperimentReport =
        serde::json::from_str(FIG16_SCALE).expect("the committed artifact parses");
    let columns: [(&str, &[(&str, &str)]); 2] = [
        (
            "flows",
            &[
                ("jobs", "round.jobs"),
                ("flows", "netsim.flows"),
                ("events", "netsim.events"),
                ("waterfills", "netsim.waterfills"),
                ("max component", "netsim.max_component"),
                ("avg iter (s)", "round.avg_iter_s"),
                ("p99 iter (s)", "round.p99_iter_s"),
            ],
        ),
        (
            "windows",
            &[
                ("jobs", "shared.jobs"),
                ("windows", "netsim.windows"),
                ("incremental", "shared.windows_incremental"),
                ("rebuilt", "shared.windows_rebuilt"),
                ("jobs re-rated", "netsim.jobs_rerated"),
                ("jobs reused", "netsim.jobs_reused"),
                ("events", "shared.events"),
                ("waterfills", "shared.waterfills"),
                ("max component", "shared.max_component"),
                ("mean JCT (s)", "shared.mean_jct_s"),
            ],
        ),
    ];
    let mut out = Outputs::new();
    for (marker, map) in columns {
        let table = report
            .tables
            .iter()
            .find(|t| t.columns.iter().any(|c| c.name == marker))
            .expect("the artifact has the static-round and shared-arm tables");
        let col = |name: &str| {
            table.columns.iter().position(|c| c.name == name).expect("artifact column present")
        };
        let row = table
            .rows
            .iter()
            .find(|r| matches!(r[col("servers")], Cell::Int(2048)))
            .expect("the artifact has a 2048-server row");
        for &(column, key) in map {
            let value = match row[col(column)] {
                Cell::Int(i) => i as f64,
                Cell::Float(f) => f,
                ref other => panic!("artifact cell {column} is not a number: {other:?}"),
            };
            out.insert(key.to_string(), value);
        }
    }
    out
}

/// Keys of `got` whose value differs (bit for bit) from `want`, or that
/// `want` lacks.
fn mismatches(got: &Outputs, want: &Outputs) -> Vec<String> {
    got.iter()
        .filter(|(k, v)| want.get(*k).is_none_or(|w| w.to_bits() != v.to_bits()))
        .map(|(k, v)| format!("{k}: got {v}, want {:?}", want.get(k)))
        .collect()
}

/// `got` restricted to the keys of `want`.
fn restrict(got: &Outputs, want: &Outputs) -> Outputs {
    got.iter().filter(|(k, _)| want.contains_key(*k)).map(|(k, v)| (k.clone(), *v)).collect()
}

/// Checks every pass against the pinned outputs, the committed artifact
/// and the passes before it, and tallies operations.
pub struct Checker {
    pinned: Option<Outputs>,
    artifact: Option<Outputs>,
    seen: Outputs,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Checker {
    pub fn new(workload: &str, seed: u64) -> Checker {
        let pinned = expected(workload, seed);
        if pinned.is_none() {
            eprintln!("note: seed {seed} has no pinned outputs; checking pass-to-pass only");
        }
        let artifact = (workload == "datacenter_2048" && seed == ARTIFACT_SEED).then(artifact_rows);
        Checker { pinned, artifact, seen: Outputs::new(), attempted: 0, failed: 0, correct: true }
    }

    /// Check one pass. A mismatch makes the run incorrect and counts every
    /// operation of the pass as failed.
    pub fn add(&mut self, outputs: &Outputs, attempted: u64, failed: u64) {
        let mut bad = mismatches(&restrict(outputs, &self.seen), &self.seen);
        if let Some(pinned) = &self.pinned {
            bad.extend(mismatches(outputs, pinned).into_iter().map(|m| format!("pinned {m}")));
        }
        if let Some(artifact) = &self.artifact {
            let got = restrict(outputs, artifact);
            bad.extend(mismatches(&got, artifact).into_iter().map(|m| format!("artifact {m}")));
        }
        for (k, v) in outputs {
            self.seen.entry(k.clone()).or_insert(*v);
        }
        self.attempted += attempted;
        if bad.is_empty() {
            self.failed += failed;
        } else {
            for m in &bad {
                eprintln!("output mismatch: {m}");
            }
            self.correct = false;
            self.failed += attempted;
        }
    }
}
