//! Host-time benchmark of the TopoOpt experiment entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--print-outputs]
//! ```
//!
//! Each workload (see NOTES.md) is set up, then run in passes through the
//! same public calls the experiments make, for `--seconds` seconds. Every
//! pass's simulated outputs are checked bit for bit. Every reported time is
//! scaled to a reference host speed (see `hostspeed`). With `--trace 0` the
//! last stdout line reports the end-to-end metrics; with `--trace 1`,
//! untraced and traced passes alternate and it reports the per-layer
//! metrics, and the traced passes' spans are written to
//! `perfbench/traces/<workload>-seed<N>.json`. `--print-outputs` prints one
//! pass's outputs as JSON, the form `expected.json` pins.

mod check;
mod churn;
mod datacenter;
mod dedicated;
mod hostspeed;
mod jobs;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use check::{Checker, Outputs};
use trace::{SpanId, Trace};

/// What one measured pass produced.
pub struct Pass {
    /// Simulated quantities and work counters, compared bit for bit.
    pub outputs: Outputs,
    /// Operations attempted: jobs admitted, jobs planned, migrations planned.
    pub attempted: u64,
    /// Attempted operations that failed an invariant: a job that did not
    /// complete, a non-finite iteration time, a planner fallback, a
    /// forwarding plan missing a demanded pair.
    pub failed: u64,
    /// Host seconds spent in the planning entry points during the pass.
    pub plan_s: f64,
}

/// A reported metric: name, value and unit.
type Metric = (String, f64, &'static str);

/// The experiments' default seed (`reproduce --seed`).
const DEFAULT_SEED: u64 = 7;
/// Set-up takes milliseconds, so it is repeated, at least `SETUP_REPS`
/// times and for at least `SETUP_SECONDS`, in blocks of `SETUP_BLOCK`
/// between host-speed probes, and its median taken.
const SETUP_REPS: usize = 15;
const SETUP_SECONDS: Duration = Duration::from_secs(4);
const SETUP_BLOCK: Duration = Duration::from_millis(500);
/// Passes (or untraced/traced pairs) measured even past `--seconds`.
const MIN_PASSES: usize = 2;

/// The per-layer time metrics: span name, as recorded around the calls.
const LAYER_SPANS: [&str; 11] = [
    "strategy.search",
    "core.co_optimize",
    "core.topology_finder",
    "rdma.forwarding_plan",
    "cluster.place",
    "netsim.flow_build",
    "netsim.round",
    "netsim.iteration",
    "netsim.switch_iteration",
    "netsim.dynamic",
    "reconfig.plan",
];

/// The per-layer work counters, taken from the pass outputs.
const LAYER_COUNTS: [&str; 13] = [
    "strategy.evaluated",
    "rdma.rules",
    "netsim.flows",
    "netsim.events",
    "netsim.waterfills",
    "netsim.flows_rerated",
    "netsim.max_component",
    "netsim.windows",
    "netsim.jobs_rerated",
    "netsim.jobs_reused",
    "reconfig.states_checked",
    "reconfig.link_ops",
    "reconfig.fallbacks",
];

enum Workload {
    Datacenter(datacenter::Datacenter),
    Churn(churn::Churn),
    Dedicated(dedicated::Dedicated),
}

impl Workload {
    const NAMES: [&'static str; 3] =
        ["datacenter_2048", "churn_planned_1024", "dedicated_coopt_64"];

    /// Build the workload's inputs; also returns the host seconds spent in
    /// planning entry points while doing so.
    fn setup(name: &str, seed: u64, trace: &Trace, parent: Option<SpanId>) -> (Workload, f64) {
        match name {
            "datacenter_2048" => {
                let (w, plan_s) = datacenter::Datacenter::setup(seed, trace, parent);
                (Workload::Datacenter(w), plan_s)
            }
            "churn_planned_1024" => {
                let (w, plan_s) = churn::Churn::setup(seed, trace, parent);
                (Workload::Churn(w), plan_s)
            }
            "dedicated_coopt_64" => (Workload::Dedicated(dedicated::Dedicated::setup()), 0.0),
            other => unreachable!("workload names are validated at parse time: {other}"),
        }
    }

    fn run(&self, trace: &Arc<Trace>, parent: Option<SpanId>) -> Pass {
        match self {
            Workload::Datacenter(w) => w.run(trace, parent),
            Workload::Churn(w) => w.run(trace, parent),
            Workload::Dedicated(w) => w.run(trace, parent),
        }
    }

    /// Extra calls a traced pass makes to split a one-call layer.
    fn replay(&self, trace: &Trace, parent: Option<SpanId>) -> Outputs {
        match self {
            Workload::Dedicated(w) => w.replay(trace, parent),
            _ => Outputs::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_outputs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        print_outputs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-outputs" {
            args.print_outputs = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !Workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not '{}'",
            Workload::NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Restart the kernel's resident-set high-water mark at the current
/// resident set, so the next read covers only the pass that follows, not
/// set-up garbage or a host-speed probe. Where this is unsupported the read
/// covers the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Untraced: repeat set-up, then run passes until `--seconds` is spent.
/// Times are scaled to the reference host speed by probes taken around the
/// set-up block and between passes.
fn end_to_end(args: &Args, checker: &mut Checker) -> Result<Vec<Metric>, String> {
    let off = Arc::new(Trace::off());
    let mut setup_s = Vec::new();
    let mut setup_plan_s = Vec::new();
    let mut workload = None;
    let mut probe = hostspeed::probe_ms();
    let setup_deadline = Instant::now() + SETUP_SECONDS;
    while setup_s.len() < SETUP_REPS || Instant::now() < setup_deadline {
        let block = setup_s.len();
        let block_deadline = Instant::now() + SETUP_BLOCK;
        while Instant::now() < block_deadline {
            let started = Instant::now();
            let (w, plan_s) = Workload::setup(&args.workload, args.seed, &off, None);
            setup_s.push(started.elapsed().as_secs_f64());
            setup_plan_s.push(plan_s);
            workload = Some(w);
        }
        let after = hostspeed::probe_ms();
        let scale = hostspeed::scale(probe, after);
        probe = after;
        setup_s[block..].iter_mut().chain(&mut setup_plan_s[block..]).for_each(|t| *t *= scale);
    }
    let workload = workload.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut raw_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut plan_s = Vec::new();
    let mut rss_mb: f64 = 0.0;
    while wall_s.len() < MIN_PASSES || Instant::now() < deadline {
        reset_peak_rss();
        let started = Instant::now();
        let pass = workload.run(&off, None);
        let raw = started.elapsed().as_secs_f64();
        rss_mb = rss_mb.max(peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?);
        let after = hostspeed::probe_ms();
        let scale = hostspeed::scale(probe, after);
        probe = after;
        raw_s.push(raw);
        wall_s.push(raw * scale);
        plan_s.push(pass.plan_s * scale);
        checker.add(&pass.outputs, pass.attempted, pass.failed);
    }
    eprintln!("{} passes, raw wall_s {raw_s:?}, scaled {wall_s:?}", wall_s.len());
    Ok(vec![
        ("wall_s".into(), median(&wall_s), "s"),
        ("setup_s".into(), median(&setup_s), "s"),
        ("plan_s".into(), median(&setup_plan_s) + median(&plan_s), "s"),
        ("peak_rss_mb".into(), rss_mb, "MiB"),
    ])
}

/// Traced: alternate an untraced and a traced pass (each with its own
/// set-up) until `--seconds` is spent; per-layer values are medians over
/// the traced passes.
fn per_layer(args: &Args, checker: &mut Checker) -> Vec<Metric> {
    let off = Arc::new(Trace::off());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut probe = hostspeed::probe_ms();
    while traced_s.len() < MIN_PASSES || Instant::now() < deadline {
        let (w, _) = Workload::setup(&args.workload, args.seed, &off, None);
        let started = Instant::now();
        let pass = w.run(&off, None);
        let raw = started.elapsed().as_secs_f64();
        let after = hostspeed::probe_ms();
        plain_s.push(raw * hostspeed::scale(probe, after));
        probe = after;
        checker.add(&pass.outputs, pass.attempted, pass.failed);

        let tr = Arc::new(Trace::on());
        let (outputs, attempted, failed, wall) = tr.span("pass", None, |root| {
            let (w, _) =
                tr.span("setup", root, |id| Workload::setup(&args.workload, args.seed, &tr, id));
            let started = Instant::now();
            let pass = tr.span("run", root, |id| w.run(&tr, id));
            let wall = started.elapsed().as_secs_f64();
            let mut outputs = pass.outputs;
            outputs.extend(tr.span("replay", root, |id| w.replay(&tr, id)));
            (outputs, pass.attempted, pass.failed, wall)
        });
        let after = hostspeed::probe_ms();
        let scale = hostspeed::scale(probe, after);
        layers.entry("host.probe_ms".into()).or_default().push(after);
        probe = after;
        traced_s.push(wall * scale);
        checker.add(&outputs, attempted, failed);

        let self_ms = tr.self_ms();
        for span in LAYER_SPANS {
            let ms = self_ms.get(span).copied().unwrap_or(0.0) * scale;
            layers.entry(format!("{span}_ms")).or_default().push(ms);
        }
        for count in LAYER_COUNTS {
            layers
                .entry(count.into())
                .or_default()
                .push(outputs.get(count).copied().unwrap_or(0.0));
        }
        let events = outputs.get("netsim.events").copied().unwrap_or(0.0);
        let round_ns = self_ms.get("netsim.round").copied().unwrap_or(0.0) * scale * 1.0e6;
        layers.entry("netsim.ns_per_event".into()).or_default().push(if events > 0.0 {
            round_ns / events
        } else {
            0.0
        });
        spans.push(tr.to_json());
    }
    eprintln!("{} pairs, untraced {:?}, traced {:?}", plain_s.len(), plain_s, traced_s);
    write_spans(args, &spans);

    let mut metrics: Vec<Metric> = layers
        .into_iter()
        .map(|(name, values)| {
            let unit = if name.ends_with("_ms") {
                "ms"
            } else if name.starts_with("netsim.ns_per") {
                "ns"
            } else {
                "count"
            };
            (name, median(&values), unit)
        })
        .collect();
    metrics.push((
        "trace.overhead_ms".into(),
        (median(&traced_s) - median(&plain_s)) * 1.0e3,
        "ms",
    ));
    metrics
}

/// Write the traced passes' spans next to the benchmark sources.
fn write_spans(args: &Args, passes: &[String]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"passes\":[\n{}\n]}}\n",
        args.workload,
        args.seed,
        passes.join(",\n")
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("warning: could not write spans to {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_outputs {
        let off = Arc::new(Trace::off());
        let (w, _) = Workload::setup(&args.workload, args.seed, &off, None);
        let mut outputs = w.run(&off, None).outputs;
        outputs.extend(w.replay(&off, None));
        let fields: Vec<String> = outputs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!("{{{}}}", fields.join(", "));
        return ExitCode::SUCCESS;
    }

    let mut checker = Checker::new(&args.workload, args.seed);
    let metrics = if args.trace {
        per_layer(&args, &mut checker)
    } else {
        match end_to_end(&args, &mut checker) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.correct,
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
