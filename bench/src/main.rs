//! `fedbench`: the repository's benchmark.
//!
//! It measures the three things the system does: training a controller
//! (paper Algorithm 1), running controlled fleet rounds, and serving
//! decisions. Each workload runs in its own process, prints every metric
//! as `name value unit`, checks its outputs, and ends with one JSON line:
//! the end-to-end metrics of an untraced run, or the per-layer metrics of
//! a traced one (`--trace 1`), which also writes its spans to
//! `bench/out/<workload>.spans.jsonl`.
//!
//! ```text
//! fedbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! fedbench --all             [--seed N] [--seconds S] [--trace 0|1]
//! fedbench --repeat K [--workload <name>] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--all` runs every workload once, each in a fresh process; `--repeat K`
//! runs each K times at seed N, each in a fresh process, and prints the
//! median and quartiles of every metric, flagging an end-to-end spread
//! wider than its bound in `BENCHMARK.json`. The exit code is non-zero
//! when a check fails.

mod fleet_closed_1e5;
mod fleet_physics_1e6;
mod harness;
mod serve_open_2c;
mod train_pooled50;

use harness::{declared, quartiles, Kind, Report, RunConfig, Spans, WORKERS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

type Workload = fn(&RunConfig, &mut Report, &mut Spans);

/// Every workload, in the order `--all` runs them.
const WORKLOADS: [(&str, Workload); 4] = [
    ("train_pooled50", train_pooled50::run),
    ("fleet_closed_1e5", fleet_closed_1e5::run),
    ("fleet_physics_1e6", fleet_physics_1e6::run),
    ("serve_open_2c", serve_open_2c::run),
];

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
const USAGE: &str = "usage: fedbench (--workload NAME | --all | --repeat K [--workload NAME]) \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    all: bool,
    repeat: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("an integer")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--all" => args.all = true,
            "--repeat" => {
                let v = value("a count")?;
                let k: usize = v.parse().map_err(|_| format!("bad --repeat {v:?}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2 runs for quartiles".to_string());
                }
                args.repeat = Some(k);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    match (args.workload.is_some(), args.all, args.repeat.is_some()) {
        (true, false, false) | (false, true, false) | (_, false, true) => Ok(args),
        _ => Err("choose one of --workload, --all, --repeat".to_string()),
    }
}

fn main() -> ExitCode {
    // Pin the physical knobs the program reads from the environment, so
    // the caller's shell cannot change what is measured.
    std::env::set_var("FL_WORKERS", WORKERS.to_string());
    std::env::remove_var("FL_KERNEL");
    std::env::remove_var("FL_ROLLOUT");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    if let Some(k) = args.repeat {
        return repeat(args.workload.as_deref(), k, seed, seconds, args.trace);
    }
    if args.all {
        return all(seed, seconds, args.trace);
    }
    let name = args.workload.expect("parse_args requires a workload here");
    run_one(
        &name,
        RunConfig {
            seed,
            seconds,
            trace: args.trace,
        },
    )
}

fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, cfg: RunConfig) -> ExitCode {
    let (_, workload) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .expect("parse_args checked the workload name");
    let list = if cfg.trace { "per_layer" } else { "end_to_end" };
    let declared = match declared(list) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut spans = Spans::new();
    workload(&cfg, &mut report, &mut spans);
    report.e2e("peak_rss_mib", fl_bench::fleet_perf::peak_rss_mib(), "MiB");
    if cfg.trace {
        let path = harness::out_dir().join(format!("{name}.spans.jsonl"));
        let written = spans.write_jsonl(&path, name);
        report.op(written.is_ok(), || {
            format!("span file {}: {written:?}", path.display())
        });
        report.note(format!(
            "spans: {} ({} spans)",
            path.display(),
            spans.recs.len()
        ));
    }

    // The JSON line carries exactly the declared list. A traced workload
    // reports a layer it never runs as 0 (a share or a count; every
    // declared time is measured by every workload).
    let kind = if cfg.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let mut metrics = BTreeMap::new();
    let mut absent = Vec::new();
    for d in &declared {
        let found = report
            .metrics
            .iter()
            .find(|m| m.kind == kind && m.name == d.name)
            .map(|m| (m.value, m.unit.clone()));
        let (value, unit) = match found {
            Some(found) => found,
            None if cfg.trace && !is_time_unit(&d.unit) => {
                absent.push(d.name.clone());
                (0.0, d.unit.clone())
            }
            None => {
                eprintln!(
                    "fedbench: {name} did not measure declared metric {}",
                    d.name
                );
                return ExitCode::from(3);
            }
        };
        if unit != d.unit {
            eprintln!(
                "fedbench: {} measured in {unit}, declared in {}",
                d.name, d.unit
            );
            return ExitCode::from(3);
        }
        report.op(value.is_finite(), || format!("{} is not finite", d.name));
        metrics.insert(d.name.clone(), (value, unit));
    }
    if let Some(m) = report
        .metrics
        .iter()
        .find(|m| m.kind == kind && !metrics.contains_key(&m.name))
    {
        eprintln!(
            "fedbench: {} is measured but not declared in BENCHMARK.json",
            m.name
        );
        return ExitCode::from(3);
    }

    println!(
        "# fedbench {name} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for line in &report.notes {
        println!("# {line}");
    }
    if !absent.is_empty() {
        println!(
            "# not on this workload's path (reported as 0): {}",
            absent.join(" ")
        );
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for (n, (v, u)) in &metrics {
        if absent.contains(n) {
            println!("{n} {v} {u}");
        }
    }
    for f in &report.failures {
        println!("# FAILED: {f}");
    }
    let json_metrics: BTreeMap<String, Value> = metrics
        .into_iter()
        .map(|(n, (v, u))| {
            let value = if v.is_finite() { v } else { 0.0 };
            let obj = BTreeMap::from([
                ("value".to_string(), Value::Number(value)),
                ("unit".to_string(), Value::String(u)),
            ]);
            (n, Value::Object(obj))
        })
        .collect();
    let result = BTreeMap::from([
        ("correct".to_string(), Value::Bool(report.failed == 0)),
        (
            "attempted".to_string(),
            Value::Number(report.attempted as f64),
        ),
        ("failed".to_string(), Value::Number(report.failed as f64)),
        ("metrics".to_string(), Value::Object(json_metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("JSON values always render")
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Command {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    cmd
}

/// `--all`: every workload once, each in a fresh process.
fn all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let mut failed = Vec::new();
    for (name, _) in WORKLOADS {
        match child(name, seed, seconds, trace).status() {
            Ok(s) if s.success() => {}
            other => failed.push(format!("{name} ({other:?})")),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("fedbench: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// `--repeat K`: each workload K times at `seed`, each in a fresh process;
/// prints the median and quartiles of every metric.
fn repeat(only: Option<&str>, k: usize, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let bounds: BTreeMap<String, f64> = match declared("end_to_end") {
        Ok(d) => d
            .into_iter()
            .filter_map(|m| Some((m.name, m.bound?)))
            .collect(),
        Err(e) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for (name, _) in WORKLOADS
        .iter()
        .filter(|(n, _)| only.is_none_or(|o| o == *n))
    {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        for r in 0..k {
            let out = child(name, seed, seconds, trace)
                .stderr(Stdio::inherit())
                .output();
            let parsed = out.as_ref().ok().and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout);
                serde_json::parse_value(text.lines().last()?).ok()
            });
            let Some(result) = parsed.filter(|_| out.as_ref().is_ok_and(|o| o.status.success()))
            else {
                println!("{name} run {r}: failed ({:?})", out.map(|o| o.status));
                ok = false;
                continue;
            };
            for (metric, m) in result["metrics"].as_object().into_iter().flatten() {
                let entry = values
                    .entry(metric.clone())
                    .or_insert_with(|| (m["unit"].as_str().unwrap_or("").to_string(), Vec::new()));
                entry.1.push(m["value"].as_f64().unwrap_or(f64::NAN));
            }
        }
        println!("\n{name}: {k} runs, seed {seed}");
        println!(
            "{:<36} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (metric, (unit, v)) in &values {
            let Some([q1, q2, q3]) = quartiles(v) else {
                continue;
            };
            let spread = (q3 - q1) / q2.abs();
            let bound = bounds.get(metric).copied();
            let verdict = match bound {
                Some(b) if spread > b => {
                    ok = false;
                    "SPREAD EXCEEDS BOUND"
                }
                Some(b) if spread > b / 3.0 => "spread above a third of the bound",
                Some(_) => "steady",
                None => "",
            };
            println!(
                "{:<36} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7.2}% {:>7}  {verdict} [{unit}]",
                metric,
                100.0 * spread,
                bound.map_or(String::new(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn command_line_matches_the_benchmark_command() {
        let a = args("--workload serve_open_2c --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_open_2c"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload train_pooled50 --trace 2").is_err());
        assert!(args("--workload train_pooled50 --seconds 0").is_err());
        assert!(args("--all --workload train_pooled50").is_err());
        assert!(args("--repeat 1").is_err());
        assert!(args("--repeat 3 --workload train_pooled50").is_ok());
        assert!(args("").is_err());
    }

    #[test]
    fn benchmark_json_declares_these_workloads_and_legal_metrics() {
        let json = harness::benchmark_json().unwrap();
        let names: Vec<&str> = json["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names, ours);
        for list in ["end_to_end", "per_layer"] {
            for m in declared(list).unwrap() {
                assert!(harness::valid_name(&m.name), "{}", m.name);
            }
        }
        let e2e = declared("end_to_end").unwrap();
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
