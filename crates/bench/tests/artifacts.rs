//! Committed-artifact checks: the datacenter-scale experiment ships its
//! `BENCH_fig16_dynamic_scale.json` artifact in `bench/`, and the file must
//! round-trip through the vendored `serde::json` parser — i.e. parse into a
//! full [`ExperimentReport`] and re-serialize to the committed bytes, so the
//! artifact can never drift from the report format that regenerates it.
//! The two Figure-16 experiments are also re-run and must reproduce their
//! committed artifacts byte for byte, wall time aside.

use topoopt_bench::experiments::{self, Scale, DEFAULT_SEED};
use topoopt_report::{Cell, ExperimentReport};

fn artifact_path(name: &str) -> std::path::PathBuf {
    // crates/bench -> repo root -> bench/.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench").join(name)
}

/// Re-run experiment `id` at the default scale and seed and require the
/// committed `BENCH_<id>.json` bytes back. Only the wall time, which no
/// run reproduces, is copied over from the committed artifact.
fn assert_regenerates_committed_artifact(id: &str) {
    let path = artifact_path(&format!("BENCH_{id}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed artifact {}: {e}", path.display()));
    let committed = ExperimentReport::from_json(&text).expect("artifact must parse as a report");
    let def = experiments::find(id).expect("artifact id must be a registered experiment");
    let mut fresh = experiments::run(def, &Scale::new(false, DEFAULT_SEED));
    fresh.wall_time_s = committed.wall_time_s;
    assert_eq!(fresh.to_json(), text, "{id} must regenerate its committed artifact");
}

#[test]
fn fig16_shared_regenerates_its_committed_artifact() {
    assert_regenerates_committed_artifact("fig16_shared");
}

#[test]
fn fig16_dynamic_regenerates_its_committed_artifact() {
    assert_regenerates_committed_artifact("fig16_dynamic");
}

#[test]
fn fig16_dynamic_scale_artifact_is_committed_and_round_trips() {
    let path = artifact_path("BENCH_fig16_dynamic_scale.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed artifact {}: {e}", path.display()));
    let report = ExperimentReport::from_json(&text).expect("artifact must parse as a report");
    assert_eq!(report.id, "fig16_dynamic_scale");
    assert!(!report.tables.is_empty(), "scale artifact must carry tables");
    // The experiment sweeps 512/2048/8192 servers; the sweep sizes appear as
    // the first column of every row of the dynamic-cluster table.
    let servers: Vec<i128> = report.tables[0]
        .rows
        .iter()
        .filter_map(|r| match r[0] {
            Cell::Int(v) => Some(v),
            _ => None,
        })
        .collect();
    for expected in [512, 2048, 8192] {
        assert!(
            servers.contains(&expected),
            "scale sweep must include {expected} servers, got {servers:?}"
        );
    }
    // The shared arm's persistent-engine table must prove window-level
    // reuse: at every size, windows are served incrementally and cached
    // job-rates outnumber re-simulated ones.
    let windows = report
        .tables
        .iter()
        .find(|t| {
            t.title.as_deref().is_some_and(|t| t.contains("persistent engine window counters"))
        })
        .expect("scale artifact must carry the persistent window-counter table");
    assert!(!windows.rows.is_empty());
    for row in &windows.rows {
        let Cell::Int(incremental) = row[3] else { panic!("incremental windows must be an int") };
        let Cell::Int(rerated) = row[5] else { panic!("re-rated job count must be an int") };
        let Cell::Int(reused) = row[6] else { panic!("reused job count must be an int") };
        assert!(incremental > 0, "windows must be served incrementally");
        assert!(
            reused > rerated,
            "cached job-windows must dominate re-rated ones ({reused} vs {rerated})"
        );
    }
    // Round-trip: parse -> serialize reproduces the committed bytes exactly.
    assert_eq!(report.to_json(), text, "artifact must round-trip byte-identically");
}

#[test]
fn fig_failure_degradation_artifact_is_committed_and_round_trips() {
    let path = artifact_path("BENCH_fig_failure_degradation.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed artifact {}: {e}", path.display()));
    let report = ExperimentReport::from_json(&text).expect("artifact must parse as a report");
    assert_eq!(report.id, "fig_failure_degradation");
    assert_eq!(report.tables.len(), 2, "failure sweep plus the availability-knob comparison");

    // Table 1: the healthy row anchors the sweep at 100%, degradation is
    // monotone in reported connectivity, and a severed fabric never claims
    // positive throughput (stall, don't fabricate goodput).
    let sweep = &report.tables[0];
    assert!(sweep.rows.len() > 1, "sweep must carry the healthy row plus failure rows");
    for row in &sweep.rows {
        let Cell::Int(severed) = row[5] else { panic!("severed pairs must be an int") };
        let Cell::Float(connected) = row[7] else { panic!("connected % must be a float") };
        let Cell::Float(samples) = row[8] else { panic!("samples/s must be a float") };
        assert!(samples.is_finite() && samples >= 0.0);
        if severed > 0 {
            assert!(connected < 100.0, "severed pairs imply lost connectivity");
            assert_eq!(samples, 0.0, "a severed training job cannot make progress");
        }
    }

    // Table 2: the availability-aware synthesis must reach zero critical
    // links where the default fabric has some.
    let knob = &report.tables[1];
    assert_eq!(knob.rows.len(), 2, "default vs availability-aware");
    let critical = |row: &Vec<Cell>| match row[3] {
        Cell::Int(v) => v,
        _ => panic!("critical links must be an int"),
    };
    assert!(critical(&knob.rows[0]) > 0, "the default fabric must have critical links to fix");
    assert_eq!(critical(&knob.rows[1]), 0, "availability-aware synthesis survives any single cut");

    // Round-trip: parse -> serialize reproduces the committed bytes exactly.
    assert_eq!(report.to_json(), text, "artifact must round-trip byte-identically");
}

#[test]
fn fig_reconfig_planned_artifact_is_committed_and_round_trips() {
    let path = artifact_path("BENCH_fig_reconfig_planned.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed artifact {}: {e}", path.display()));
    let report = ExperimentReport::from_json(&text).expect("artifact must parse as a report");
    assert_eq!(report.id, "fig_reconfig_planned");
    assert_eq!(report.tables.len(), 2, "testbed migrations plus the dynamic workload");

    // Table 1: on every migration row pair, the planned strategies' peak
    // throughput dip is no worse than the atomic swap's 1.0, and each row
    // either found a valid ordering or reports an explicit fallback naming
    // the violated policy.
    let migrations = &report.tables[0];
    assert!(!migrations.rows.is_empty());
    for row in &migrations.rows {
        let Cell::Float(peak) = row[4] else { panic!("peak dip must be a float") };
        let Cell::Str(strategy) = &row[1] else { panic!("strategy must be text") };
        let Cell::Str(outcome) = &row[7] else { panic!("outcome must be text") };
        if strategy == "atomic swap" {
            assert_eq!(peak, 1.0, "the atomic swap is dark for the whole rewiring");
        } else {
            assert!(peak <= 1.0 + 1e-9, "planned peak dip {peak} worse than atomic");
            assert!(
                outcome == "ok" || outcome.starts_with("fallback: "),
                "outcome must be ok or name the violated policy, got {outcome}"
            );
        }
    }

    // Table 2: the planned arm actually planned its transitions.
    let dynamic = &report.tables[1];
    let planned_rows: Vec<_> =
        dynamic.rows.iter().filter(|r| r[1] == Cell::Str("planned".into())).collect();
    assert!(!planned_rows.is_empty(), "dynamic table must carry planned rows");
    for row in planned_rows {
        let Cell::Int(planned) = row[7] else { panic!("planned count must be an int") };
        let Cell::Int(fallbacks) = row[8] else { panic!("fallback count must be an int") };
        assert!(planned + fallbacks > 0, "planned rows must classify every transition");
    }

    // Round-trip: parse -> serialize reproduces the committed bytes exactly.
    assert_eq!(report.to_json(), text, "artifact must round-trip byte-identically");
}
