//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! metrics of the exact search, the churn engine and the FCT simulator.
//!
//! ```text
//! perfbench --workload search|churn-bulk|churn-pods|fct --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Every workload is generated from `--seed`, set up several times
//! (the median set-up is reported), measured for `--seconds` wall
//! seconds in one process and verified outside the timed region. The
//! last line of standard output is one JSON object: with `--trace 0`
//! it carries the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a run that alternates untraced and traced segments. A
//! traced run also writes its span tree (folded stacks and a Chrome
//! trace) and the per-layer JSON to `perfbench/out/`. The process exits
//! nonzero when any verification fails. See `perfbench/README.md`.

mod churn;
mod fct;
mod rng;
mod search;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use clos_telemetry::json::JsonValue;
use clos_telemetry::{counters, timers, SpanTree};

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 4] = ["search", "churn-bulk", "churn-pods", "fct"];

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("rational.exact_over_f64", "ratio"),
    ("rational.exact_us_per_run", "us"),
    ("rational.f64_us_per_run", "us"),
    ("core.evaluate_per_s", "1/s"),
    ("core.search.compile_s", "s"),
    ("core.search.self_s", "s"),
    ("core.search.passes", "count"),
    ("core.search.examined", "count"),
    ("core.search.pruned", "count"),
    ("core.search.bound_pruned", "count"),
    ("core.search.symmetry_skipped", "count"),
    ("core.search.hot4-lex.s", "s"),
    ("core.search.hot4-lex.examined", "count"),
    ("core.search.hot4-tput.s", "s"),
    ("core.search.hot4-tput.examined", "count"),
    ("core.search.benes3x4-lex.s", "s"),
    ("core.search.benes3x4-lex.examined", "count"),
    ("core.search.benes3x4-tput.s", "s"),
    ("core.search.benes3x4-tput.examined", "count"),
    ("core.search.fattree4x2-lex.s", "s"),
    ("core.search.fattree4x2-lex.examined", "count"),
    ("core.search.fattree4x2-tput.s", "s"),
    ("core.search.fattree4x2-tput.examined", "count"),
    ("fairness.waterfill_calls", "count"),
    ("fairness.waterfill_rounds", "count"),
    ("fairness.waterfill_s", "s"),
    ("fairness.us_per_waterfill", "us"),
    ("churn.events", "count"),
    ("churn.wall_s", "s"),
    ("churn.apply_s", "s"),
    ("churn.flush_s", "s"),
    ("churn.flush.waterfill_s", "s"),
    ("churn.flush.other_s", "s"),
    ("churn.epochs", "count"),
    ("churn.dirty_links", "count"),
    ("churn.recomputed_flows", "count"),
    ("churn.reused_flows", "count"),
    ("churn.reuse_ratio", "ratio"),
    ("churn.reuse_base", "count"),
    ("churn.trace_gen_s", "s"),
    ("churn.warmup_s", "s"),
    ("sim.fct.flows", "count"),
    ("sim.fct.fair_s", "s"),
    ("sim.fct.sched_s", "s"),
    ("sim.fct.kernel_share", "ratio"),
    ("sim.fct.waterfill_per_flow", "1/flow"),
    ("net.build_s", "s"),
    ("telemetry.overhead", "ratio"),
];

/// Run settings shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every workload parameter, echoed in the output.
    pub params: Vec<(String, JsonValue)>,
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Operations per second, one sample per measurement window.
    pub rates: Vec<f64>,
    /// Milliseconds per step (a search pass, a flush, a pair of
    /// simulations).
    pub steps_ms: Vec<f64>,
    /// The workload's own end-to-end figures, printed by name.
    pub named: Vec<String>,
    /// Operations attempted and verifications failed.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Per-layer values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Untraced and traced wall per unit of work, for the overhead.
    pub untraced_unit_s: Vec<f64>,
    pub traced_unit_s: Vec<f64>,
    /// The traced segments' span tree.
    pub spans: Option<SpanTree>,
}

impl Outcome {
    /// Records `count` failed verifications described by `message`.
    pub fn fail(&mut self, count: u64, message: String) {
        self.failed += count;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    pub fn param(&mut self, name: &str, value: impl Into<JsonValue>) {
        self.params.push((name.to_string(), value.into()));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// Turns counters, timers and spans on or off together, starting from
/// zero when a run first enables them.
pub fn set_telemetry(on: bool) {
    clos_telemetry::set_enabled(on);
    clos_telemetry::set_tracing(on);
}

/// Clears counters, timers and spans.
pub fn reset_telemetry() {
    counters::reset_all();
    timers::reset_all();
    clos_telemetry::reset_tracing();
}

/// Fills the fairness-layer metrics from the counters and spans
/// collected so far.
pub fn fairness_layers(out: &mut Outcome, tree: &SpanTree) {
    let calls = counters::WATERFILL_CALLS.get();
    let nanos = spans::total_named(tree, "waterfill");
    out.layer("fairness.waterfill_calls", calls as f64);
    out.layer(
        "fairness.waterfill_rounds",
        counters::WATERFILL_ROUNDS.get() as f64,
    );
    out.layer("fairness.waterfill_s", nanos as f64 * 1e-9);
    if calls > 0 {
        out.layer(
            "fairness.us_per_waterfill",
            nanos as f64 * 1e-3 / calls as f64,
        );
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set size in MB (`VmHWM`), if the platform reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload search|churn-bulk|churn-pods|fct \
--seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}\n{USAGE}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required\n{USAGE}"))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("value".to_string(), JsonValue::Float(value)),
        ("unit".to_string(), JsonValue::from(unit)),
    ])
}

/// Where traced runs write their span trees and per-layer JSON.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    reset_telemetry();
    set_telemetry(false);
    let mut out = match args.workload.as_str() {
        "search" => search::run(&cfg),
        "churn-bulk" => churn::run_bulk(&cfg),
        "churn-pods" => churn::run_pods(&cfg),
        "fct" => fct::run(&cfg),
        _ => unreachable!("validated in parse_args"),
    };
    set_telemetry(false);

    let mut params = vec![
        (
            "workload".to_string(),
            JsonValue::from(args.workload.as_str()),
        ),
        ("seed".to_string(), JsonValue::from(args.seed)),
        ("seconds".to_string(), JsonValue::Float(args.seconds)),
        ("trace".to_string(), JsonValue::from(args.trace)),
        (
            "available_parallelism".to_string(),
            JsonValue::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
    ];
    params.append(&mut out.params);
    let params = JsonValue::Object(params);
    println!("params {params}");
    for line in &out.named {
        println!("{line}");
    }
    let setup = stats::median(&out.setup_s).ok_or("no set-up recorded")?;
    let rss = peak_rss_mb().unwrap_or(0.0);
    println!(
        "setup_s = {setup:.6} s (median of {} set-ups)",
        out.setup_s.len()
    );
    println!("peak_rss_mb = {rss:.1} MB");
    println!(
        "error_rate = {} ({} failed / {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for message in &out.failures {
        println!("FAILED: {message}");
    }

    let metrics: Vec<(String, JsonValue)> = if args.trace {
        // Median traced over untraced wall per unit of work.
        if let (Some(t), Some(u)) = (
            stats::median(&out.traced_unit_s),
            stats::median(&out.untraced_unit_s),
        ) {
            out.layer("telemetry.overhead", t / u);
            println!(
                "telemetry.overhead = {:.4} ({} traced and {} untraced units)",
                t / u,
                out.traced_unit_s.len(),
                out.untraced_unit_s.len()
            );
        }
        let all: Vec<(String, JsonValue)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out.layers.get(name).copied().unwrap_or(0.0);
                (name.to_string(), metric(value, unit))
            })
            .collect();
        write_trace_files(&args, &params, &all, out.spans.as_ref())?;
        all
    } else {
        let ops = stats::median(&out.rates).ok_or("no throughput window completed")?;
        let step = stats::median(&out.steps_ms).ok_or("no step completed")?;
        println!(
            "ops_per_s = {ops:.3} 1/s (median of {} windows)",
            out.rates.len()
        );
        println!(
            "step_ms_p50 = {step:.6} ms (median of {} steps)",
            out.steps_ms.len()
        );
        let values = [ops, step, rss, setup];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), metric(v, unit)))
            .collect()
    };
    let correct = out.failed == 0 && out.attempted > 0;
    let result = JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::from(correct)),
        (
            "attempted".to_string(),
            JsonValue::from(out.attempted.max(1)),
        ),
        ("failed".to_string(), JsonValue::from(out.failed)),
        ("metrics".to_string(), JsonValue::Object(metrics)),
    ]);
    println!("{result}");
    Ok(correct)
}

/// Writes the per-layer JSON, folded stacks and Chrome trace of a
/// traced run.
fn write_trace_files(
    args: &Args,
    params: &JsonValue,
    metrics: &[(String, JsonValue)],
    tree: Option<&SpanTree>,
) -> Result<(), String> {
    let dir = out_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let write = |suffix: &str, body: String| {
        let path = dir.join(format!("{stem}.{suffix}"));
        fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
    };
    let layers = JsonValue::Object(vec![
        ("params".to_string(), params.clone()),
        ("metrics".to_string(), JsonValue::Object(metrics.to_vec())),
    ]);
    write("layers.json", format!("{layers}\n"))?;
    let empty = SpanTree::new();
    let tree = tree.unwrap_or(&empty);
    write("folded", tree.to_folded(false))?;
    write("chrome.json", tree.to_chrome_trace(false))?;
    println!(
        "trace files: {}/{stem}.{{layers.json,folded,chrome.json}}",
        dir.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: verification failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_telemetry::json::JsonValue;

    fn names(list: &JsonValue) -> Vec<(String, String)> {
        let JsonValue::Array(items) = list else {
            panic!("expected an array")
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(JsonValue::Str(s)) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` and the program agree on every workload and
    /// metric name and unit.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        let end_to_end = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(names(end_to_end), own(&END_TO_END));
        assert_eq!(
            names(doc.get("per_layer").expect("per_layer")),
            own(&PER_LAYER)
        );
        let Some(JsonValue::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let listed: Vec<String> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(JsonValue::Str(s)) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(listed, WORKLOADS.map(String::from));
    }
}
