//! CI perf-regression gate for the blocked kernels.
//!
//! Re-measures every `kernel_perf` case and compares the blocked-vs-naive
//! *speedup ratio* against the committed baseline
//! (`crates/fl-bench/results/kernel_bench.json`). Ratios are
//! machine-portable — both families run in the same process — so the gate
//! works on any CI host. A case fails when its measured speedup drops more
//! than 25% below the baseline ratio; `matmul_64` additionally carries an
//! absolute >= 2x floor (the headline claim of the blocked kernels).
//!
//! Two cases gate *scheduling* rather than kernels: `matmul_256_par4`
//! (4 workers vs 1 on the same blocked kernel) and
//! `rollout_forward_batched_32` (one batched policy/value forward vs 32
//! single-row forwards). The parallel case is only gated on hosts with at
//! least 4 cores — below that the 4-worker arm degenerates to time-slicing
//! and its ratio is noise, so it is reported but not enforced. A third
//! scheduling case, `pool_fanout_2` (one empty 2-task pool round against
//! the same two tasks inline), is printed with every sweep but has no
//! baseline entry; the gate iterates only the baseline's cases, so it is
//! reported, not gated. The same holds for the two `tn` cases at the
//! training shapes, `matmul_tn_3200` and `matmul_tn_3200x1`.
//!
//! Timing noise is absorbed by retrying the full sweep up to three times;
//! the gate fails only if every attempt regresses. Run with `--release` —
//! debug builds measure the optimizer, not the kernels.
//!
//! The gate also re-runs the serving load sweep (`serve_perf`) against
//! its committed baseline (`crates/fl-bench/results/serve_bench.json`):
//! throughput may drop to 1/4 of baseline and p99 may grow 8x (with a
//! 5 ms absolute floor) before failing — wide margins that catch an
//! accidentally serialized batcher or a lock held across a policy
//! forward, not CI-host jitter. The sweep includes the overload case
//! (offered load past a deliberately slowed server), which additionally
//! gates *structure*: zero transport-level failures (every shed must be
//! a structured `overloaded`/`deadline_exceeded` response) and a
//! non-zero shed count (the bounded admission queue is actually
//! bounding), alongside the same goodput/p99-of-accepted margins.
//!
//! The third gate re-runs the fleet-scale simulation sweep (`fleet_perf`)
//! against `crates/fl-bench/results/fleet_bench.json`: rounds/sec per
//! grid case may drop to 1/4 of baseline, and peak RSS of the largest
//! re-measured case may at most double — the struct-of-arrays fleet
//! layout is the point, so an accidental per-device materialization trips
//! the RSS margin immediately. Baseline cases above 10⁵ devices (the 10⁶
//! local record) are kept in the file but not re-measured on CI.
//!
//! The three gates (kernel, serve, fleet) run independently: a failing
//! gate never hides the others' verdicts. Each prints its verdict, and the
//! process exits non-zero if any gate failed.
//!
//! `--write-baseline` regenerates all committed baselines in place. The
//! fleet baseline includes the 10⁶-device case only when
//! `FLEET_GRID_FULL` is set (it takes minutes — a local, not CI, run).

use fl_bench::kernel_perf::{measure, print_report, KernelReport};
use fl_bench::{fleet_perf, serve_perf, workers_from_env};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Maximum tolerated drop of a case's speedup relative to baseline.
const MAX_REGRESSION: f64 = 0.25;
/// Absolute speedup floor for the headline 64x64 matmul case.
const MATMUL_64_FLOOR: f64 = 2.0;
/// The pool-parallel scheduling case: its "speedup" is 4 workers vs 1 on
/// the same blocked kernel, so it only means anything on a host that can
/// actually run 4 workers concurrently.
const PAR_CASE: &str = "matmul_256_par4";
/// Absolute 4-vs-1-worker floor for [`PAR_CASE`], applied only when the
/// host has at least [`PAR_MIN_CORES`] cores.
const PAR_FLOOR: f64 = 1.2;
/// Minimum host cores for the [`PAR_CASE`] checks (ratio and floor) to be
/// meaningful; below this the parallel arm degenerates to time-slicing and
/// the case is reported but not gated.
const PAR_MIN_CORES: usize = 4;

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
/// Full-sweep attempts before declaring a regression.
const ATTEMPTS: u32 = 3;
/// Per-case timing budget.
const BUDGET: Duration = Duration::from_millis(200);

fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results/kernel_bench.json")
}

/// Per-case driving budget for the serve gate: short — the gate checks
/// for collapse, not drift, and three attempts must stay CI-friendly.
const SERVE_BUDGET: Duration = Duration::from_millis(500);

fn serve_baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results/serve_bench.json")
}

fn load_serve_baseline() -> serve_perf::ServeReport {
    let path = serve_baseline_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "bench_check: cannot read serve baseline {}: {e}\n\
             regenerate it with: cargo run --release -p fl-bench --bin serve_bench -- --write-baseline",
            path.display()
        );
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!(
            "bench_check: serve baseline {} is not valid: {e}",
            path.display()
        );
        std::process::exit(2);
    })
}

fn fleet_baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results/fleet_bench.json")
}

fn load_fleet_baseline() -> fleet_perf::FleetReport {
    let path = fleet_baseline_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "bench_check: cannot read fleet baseline {}: {e}\n\
             regenerate it with: cargo run --release -p fl-bench --bin bench_check -- --write-baseline",
            path.display()
        );
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!(
            "bench_check: fleet baseline {} is not valid: {e}",
            path.display()
        );
        std::process::exit(2);
    })
}

/// Re-measures the CI-sized fleet grid (baseline cases above
/// [`fleet_perf::GATE_MAX_DEVICES`] are skipped) with retries; true on
/// pass.
fn gate_fleet() -> bool {
    let baseline = load_fleet_baseline();
    let grid: Vec<(usize, usize)> = baseline
        .cases
        .iter()
        .filter(|c| c.devices <= fleet_perf::GATE_MAX_DEVICES)
        .map(|c| (c.devices, c.rounds))
        .collect();
    let mut failures = Vec::new();
    for attempt in 1..=ATTEMPTS {
        let measured = fleet_perf::measure(&grid, fleet_perf::SHARDS, workers_from_env());
        failures = fleet_perf::check(&baseline, &measured);
        if failures.is_empty() {
            println!("bench_check[fleet]: OK (attempt {attempt}/{ATTEMPTS})");
            fleet_perf::print_report(&measured);
            return true;
        }
        eprintln!(
            "bench_check[fleet]: attempt {attempt}/{ATTEMPTS} regressed:\n  {}",
            failures.join("\n  ")
        );
    }
    eprintln!(
        "bench_check: FAIL — fleet simulation performance regressed in all \
         {ATTEMPTS} attempts:\n  {}",
        failures.join("\n  ")
    );
    false
}

/// Runs the serve gate with retries; true on pass.
fn gate_serve() -> bool {
    let baseline = load_serve_baseline();
    let mut failures = Vec::new();
    for attempt in 1..=ATTEMPTS {
        let measured = serve_perf::measure(SERVE_BUDGET);
        failures = serve_perf::check(&baseline, &measured);
        if failures.is_empty() {
            println!("bench_check[serve]: OK (attempt {attempt}/{ATTEMPTS})");
            serve_perf::print_report(&measured);
            return true;
        }
        eprintln!(
            "bench_check[serve]: attempt {attempt}/{ATTEMPTS} regressed:\n  {}",
            failures.join("\n  ")
        );
    }
    eprintln!(
        "bench_check: FAIL — serving performance regressed in all \
         {ATTEMPTS} attempts:\n  {}",
        failures.join("\n  ")
    );
    false
}

/// Runs the blocked-kernel gate with retries; true on pass.
fn gate_kernel() -> bool {
    let baseline = load_baseline();
    let mut failures = Vec::new();
    for attempt in 1..=ATTEMPTS {
        let measured = measure(BUDGET);
        println!("bench_check[kernel]: attempt {attempt}/{ATTEMPTS} measured:");
        print_report(&measured);
        failures = check(&baseline, &measured);
        if failures.is_empty() {
            println!("bench_check[kernel]: OK (attempt {attempt}/{ATTEMPTS})");
            return true;
        }
        eprintln!(
            "bench_check: attempt {attempt}/{ATTEMPTS} regressed:\n  {}",
            failures.join("\n  ")
        );
    }
    eprintln!(
        "bench_check: FAIL — blocked-kernel speedup regressed in all \
         {ATTEMPTS} attempts:\n  {}",
        failures.join("\n  ")
    );
    false
}

fn load_baseline() -> KernelReport {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "bench_check: cannot read baseline {}: {e}\n\
             regenerate it with: cargo run --release -p fl-bench --bin bench_check -- --write-baseline",
            path.display()
        );
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("bench_check: baseline {} is not valid: {e}", path.display());
        std::process::exit(2);
    })
}

/// Returns the failures of `measured` against `baseline` (empty = pass).
fn check(baseline: &KernelReport, measured: &KernelReport) -> Vec<String> {
    let mut failures = Vec::new();
    for b in &baseline.cases {
        let Some(m) = measured.cases.iter().find(|m| m.name == b.name) else {
            failures.push(format!("case {} missing from measurement", b.name));
            continue;
        };
        if b.name == PAR_CASE {
            if host_cores() < PAR_MIN_CORES {
                println!(
                    "bench_check: note — {} not gated on a {}-core host \
                     (needs >= {PAR_MIN_CORES})",
                    b.name,
                    host_cores()
                );
                continue;
            }
            if m.speedup < PAR_FLOOR {
                failures.push(format!(
                    "{}: 4-vs-1-worker speedup {:.2}x below the absolute \
                     {PAR_FLOOR}x floor on a {}-core host",
                    b.name,
                    m.speedup,
                    host_cores()
                ));
            }
        }
        let allowed = b.speedup * (1.0 - MAX_REGRESSION);
        if m.speedup < allowed {
            failures.push(format!(
                "{}: speedup {:.2}x fell below {:.2}x (baseline {:.2}x - {}%)",
                b.name,
                m.speedup,
                allowed,
                b.speedup,
                (MAX_REGRESSION * 100.0) as u32
            ));
        }
        if b.name == "matmul_64" && m.speedup < MATMUL_64_FLOOR {
            failures.push(format!(
                "{}: speedup {:.2}x below the absolute {MATMUL_64_FLOOR}x floor",
                b.name, m.speedup
            ));
        }
    }
    failures
}

fn main() {
    if std::env::args().any(|a| a == "--write-baseline") {
        let report = measure(BUDGET);
        print_report(&report);
        let text = serde_json::to_string_pretty(&report).expect("report serializes");
        let path = baseline_path();
        std::fs::create_dir_all(path.parent().expect("baseline path has a parent"))
            .expect("create results dir");
        fl_rl::snapshot::atomic_write(&path, text.as_bytes()).expect("write baseline");
        println!("\n[baseline written to {}]", path.display());

        let serve_report = serve_perf::measure(SERVE_BUDGET);
        serve_perf::print_report(&serve_report);
        let text = serde_json::to_string_pretty(&serve_report).expect("report serializes");
        let path = serve_baseline_path();
        fl_rl::snapshot::atomic_write(&path, text.as_bytes()).expect("write serve baseline");
        println!("\n[serve baseline written to {}]", path.display());

        let grid = if std::env::var("FLEET_GRID_FULL").is_ok() {
            fleet_perf::full_grid()
        } else {
            fleet_perf::default_grid()
        };
        let fleet_report = fleet_perf::measure(&grid, fleet_perf::SHARDS, workers_from_env());
        fleet_perf::print_report(&fleet_report);
        let text = serde_json::to_string_pretty(&fleet_report).expect("report serializes");
        let path = fleet_baseline_path();
        fl_rl::snapshot::atomic_write(&path, text.as_bytes()).expect("write fleet baseline");
        println!("\n[fleet baseline written to {}]", path.display());
        return;
    }

    let verdicts = [
        ("kernel", gate_kernel()),
        ("serve", gate_serve()),
        ("fleet", gate_fleet()),
    ];
    println!();
    for (gate, passed) in verdicts {
        println!(
            "bench_check[{gate}]: {}",
            if passed { "PASS" } else { "FAIL" }
        );
    }
    if verdicts.iter().any(|&(_, passed)| !passed) {
        std::process::exit(1);
    }
}
