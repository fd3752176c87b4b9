//! Shared measurement core for the fleet-scale simulation benchmark.
//!
//! Sweeps the sharded [`fl_sim::FleetSim`] engine over a devices × rounds
//! grid and reports throughput (rounds per second) and the process peak
//! RSS after each case. Both the `fig8_scale --grid` binary and the
//! `bench_check` CI gate build on this module, so the committed baseline
//! (`crates/fl-bench/results/fleet_bench.json`) and the regression check
//! always measure the same thing.
//!
//! Three properties are gated:
//!
//! * **total cost** — every re-measured case's `total_cost` must equal the
//!   baseline bit for bit: the simulation is deterministic, so any drift
//!   is a physics change, never noise,
//! * **throughput ratio** — a case may run up to 4x slower than baseline
//!   before failing (shared CI hosts are noisy; the gate catches
//!   order-of-magnitude regressions like an accidentally serialized shard
//!   loop, not percent drift), and
//! * **peak RSS growth** — the largest re-measured case may use at most
//!   [`MAX_RSS_GROWTH`]x the baseline's high-water mark. The struct-of-
//!   arrays fleet layout is the point of the engine: accidentally
//!   materializing a per-device struct vector (or the full broadcast
//!   input batch) multiplies memory by ~10x and trips this immediately.
//!
//! Cases above [`GATE_MAX_DEVICES`] (the 10⁶ local run) stay in the
//! committed baseline for the record — peak RSS at a million devices is a
//! headline number — but are not re-measured on CI hosts.

use crate::Scenario;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Gate: measured rounds/sec must stay above this fraction of baseline.
pub const MIN_RATE_FRAC: f64 = 0.25;
/// Gate: the final re-measured case's peak RSS may grow at most this
/// factor over the baseline's value for the same case.
pub const MAX_RSS_GROWTH: f64 = 2.0;
/// Cases at or below this device count are re-measured by the CI gate;
/// larger cases are recorded in the baseline but skipped on CI.
pub const GATE_MAX_DEVICES: usize = 100_000;

/// One grid point: a fleet of `devices` run for `rounds` rounds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCase {
    /// Case id, e.g. `fleet_100000`.
    pub name: String,
    /// Fleet size `N`.
    pub devices: usize,
    /// Shard count the engine ran with (result-invariant by contract).
    pub shards: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Simulation throughput.
    pub rounds_per_sec: f64,
    /// Process peak RSS (`VmHWM`) after the case, MiB. The kernel's
    /// high-water mark is monotone over a process's life, so within one
    /// run later cases can only report equal-or-larger values; the gate
    /// therefore compares only the final (largest) re-measured case.
    pub peak_rss_mib: f64,
    /// `Σ_k (T^k + λ ΣE^k)` over the measured rounds. Not a performance
    /// number — a whole-system digest of the physics that [`check`]
    /// requires to match the baseline bit for bit.
    pub total_cost: f64,
}

/// A full sweep, serialized as the committed baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Worker threads the sweep ran with (physical; result-invariant).
    pub workers: usize,
    /// All measured grid points, ascending device count.
    pub cases: Vec<FleetCase>,
}

/// Peak resident set size (`VmHWM`) of this process in MiB, parsed from
/// `/proc/self/status`. Returns 0.0 where unavailable (non-Linux), which
/// disables the RSS gate rather than failing it.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Runs one grid case: `rounds` benign rounds at full frequency over a
/// fresh fleet of `devices`. Round start times stride deterministically
/// through the trace (away from both ends), so every round is
/// independent of the previous round's duration and the per-round cost
/// is a pure function of the scenario seed — shard count and worker
/// count provably cannot change it.
pub fn run_case(scenario: &Scenario, devices: usize, rounds: usize, shards: usize) -> FleetCase {
    let mut fleet = scenario.build_fleet(devices);
    fleet.set_shards(shards);
    let freqs = fleet.max_freqs();
    let t0 = Instant::now();
    let mut total_cost = 0.0;
    for k in 0..rounds {
        let t = 60.0 + ((k * 97) % 3300) as f64;
        let round = fleet.run_round_benign(t, &freqs).expect("benign round");
        total_cost += round.cost(scenario.fl.lambda);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    FleetCase {
        name: format!("fleet_{devices}"),
        devices,
        shards,
        rounds,
        rounds_per_sec: rounds as f64 / elapsed.max(1e-9),
        peak_rss_mib: peak_rss_mib(),
        total_cost,
    }
}

/// The default devices × rounds grid: small cases take many rounds (so
/// the timer sees real work), the 10⁵ CI headline case takes a few.
pub fn default_grid() -> Vec<(usize, usize)> {
    vec![(1_000, 64), (10_000, 16), (100_000, 4)]
}

/// [`default_grid`] plus the 10⁶-device local case (excluded from CI
/// re-measurement by [`GATE_MAX_DEVICES`]).
pub fn full_grid() -> Vec<(usize, usize)> {
    let mut grid = default_grid();
    grid.push((1_000_000, 2));
    grid
}

/// Measures the given grid at one shard count, ascending device order
/// (required: `VmHWM` is monotone, so ascending order keeps each case's
/// recorded peak attributable to fleets of at most its own size).
pub fn measure(grid: &[(usize, usize)], shards: usize, workers: usize) -> FleetReport {
    let scenario = Scenario::scale50();
    let mut grid = grid.to_vec();
    grid.sort_unstable();
    let cases = grid
        .iter()
        .map(|&(devices, rounds)| run_case(&scenario, devices, rounds, shards))
        .collect();
    FleetReport { workers, cases }
}

/// Returns the failures of `measured` against `baseline` (empty = pass).
/// Baseline cases above [`GATE_MAX_DEVICES`] are skipped (they are local
/// records, not CI work); the RSS gate applies to the largest re-measured
/// case only (high-water marks are monotone within a process).
pub fn check(baseline: &FleetReport, measured: &FleetReport) -> Vec<String> {
    let mut failures = Vec::new();
    let gated: Vec<&FleetCase> = baseline
        .cases
        .iter()
        .filter(|b| b.devices <= GATE_MAX_DEVICES)
        .collect();
    for b in &gated {
        let Some(m) = measured.cases.iter().find(|m| m.name == b.name) else {
            failures.push(format!("case {} missing from measurement", b.name));
            continue;
        };
        if m.total_cost.to_bits() != b.total_cost.to_bits() {
            failures.push(format!(
                "{}: total cost {:?} differs from baseline {:?} — the physics changed",
                b.name, m.total_cost, b.total_cost
            ));
        }
        let min_rate = b.rounds_per_sec * MIN_RATE_FRAC;
        if m.rounds_per_sec < min_rate {
            failures.push(format!(
                "{}: {:.2} rounds/s fell below {:.2} (baseline {:.2} x {})",
                b.name, m.rounds_per_sec, min_rate, b.rounds_per_sec, MIN_RATE_FRAC
            ));
        }
    }
    if let Some(b) = gated.last() {
        if let Some(m) = measured.cases.iter().find(|m| m.name == b.name) {
            let allowed = b.peak_rss_mib * MAX_RSS_GROWTH;
            if b.peak_rss_mib > 0.0 && m.peak_rss_mib > allowed {
                failures.push(format!(
                    "{}: peak RSS {:.0} MiB exceeded {:.0} MiB (baseline {:.0} MiB x \
                     {MAX_RSS_GROWTH}) — is the fleet materializing per-device structs?",
                    b.name, m.peak_rss_mib, allowed, b.peak_rss_mib
                ));
            }
        }
    }
    failures
}

/// Prints a report as a fixed-width table.
pub fn print_report(report: &FleetReport) {
    println!("\nfleet_bench: {} workers", report.workers);
    println!(
        "{:<14} {:>9} {:>7} {:>7} {:>12} {:>13} {:>16}",
        "case", "devices", "shards", "rounds", "rounds/s", "peak RSS MiB", "total cost"
    );
    for c in &report.cases {
        println!(
            "{:<14} {:>9} {:>7} {:>7} {:>12.2} {:>13.1} {:>16.6}",
            c.name, c.devices, c.shards, c.rounds, c.rounds_per_sec, c.peak_rss_mib, c.total_cost
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(devices: usize, rate: f64, rss: f64) -> FleetCase {
        FleetCase {
            name: format!("fleet_{devices}"),
            devices,
            shards: 8,
            rounds: 4,
            rounds_per_sec: rate,
            peak_rss_mib: rss,
            total_cost: 100.0,
        }
    }

    fn report(cases: Vec<FleetCase>) -> FleetReport {
        FleetReport { workers: 4, cases }
    }

    #[test]
    fn check_passes_within_margins() {
        let base = report(vec![case(1_000, 100.0, 50.0), case(100_000, 4.0, 400.0)]);
        // 4x slower and under 2x RSS still passes.
        let measured = report(vec![case(1_000, 25.0, 60.0), case(100_000, 1.0, 700.0)]);
        assert!(check(&base, &measured).is_empty());
    }

    #[test]
    fn check_flags_throughput_collapse_rss_blowup_and_missing_case() {
        let base = report(vec![case(1_000, 100.0, 50.0), case(100_000, 4.0, 400.0)]);
        let slow = report(vec![case(1_000, 10.0, 50.0), case(100_000, 4.0, 400.0)]);
        assert_eq!(check(&base, &slow).len(), 1);
        let fat = report(vec![case(1_000, 100.0, 50.0), case(100_000, 4.0, 900.0)]);
        assert_eq!(check(&base, &fat).len(), 1);
        let missing = report(vec![case(1_000, 100.0, 50.0)]);
        assert_eq!(check(&base, &missing).len(), 1);
        let mut drifted = report(vec![case(1_000, 100.0, 50.0), case(100_000, 4.0, 400.0)]);
        drifted.cases[0].total_cost = f64::from_bits(100.0f64.to_bits() + 1);
        assert_eq!(check(&base, &drifted).len(), 1);
    }

    #[test]
    fn million_device_baseline_case_is_not_gated() {
        let base = report(vec![
            case(1_000, 100.0, 50.0),
            case(1_000_000, 0.5, 2_000.0),
        ]);
        // The measurement never ran the 10⁶ case; only fleet_1000 is gated
        // (including its RSS, as the largest re-measured case).
        let measured = report(vec![case(1_000, 50.0, 60.0)]);
        assert!(check(&base, &measured).is_empty());
        let fat = report(vec![case(1_000, 50.0, 200.0)]);
        assert_eq!(check(&base, &fat).len(), 1);
    }

    #[test]
    fn zero_rss_baseline_disables_rss_gate() {
        // A baseline written on a host without /proc reports 0.0 and must
        // not gate RSS at all.
        let base = report(vec![case(1_000, 100.0, 0.0)]);
        let measured = report(vec![case(1_000, 100.0, 500.0)]);
        assert!(check(&base, &measured).is_empty());
    }

    #[test]
    fn grids_ascend_and_gate_cutoff_splits_them() {
        let full = full_grid();
        assert!(full.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(default_grid().iter().all(|c| c.0 <= GATE_MAX_DEVICES));
        assert!(full.iter().any(|c| c.0 > GATE_MAX_DEVICES));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_mib();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0.0, "VmHWM should parse on Linux, got {rss}");
        }
    }

    /// The physics refactor tripwire: the gated `fleet_1000` case
    /// reproduces the committed baseline's total cost bit for bit.
    #[test]
    fn fleet_1000_total_cost_matches_committed_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/fleet_bench.json");
        let text = std::fs::read_to_string(path).expect("committed fleet baseline");
        let baseline: FleetReport = serde_json::from_str(&text).expect("valid fleet baseline");
        let b = baseline
            .cases
            .iter()
            .find(|c| c.name == "fleet_1000")
            .expect("baseline has fleet_1000");
        let m = run_case(&Scenario::scale50(), b.devices, b.rounds, b.shards);
        assert_eq!(
            m.total_cost.to_bits(),
            b.total_cost.to_bits(),
            "{} vs baseline {}",
            m.total_cost,
            b.total_cost
        );
    }

    #[test]
    fn tiny_case_runs_and_is_shard_invariant() {
        let scenario = Scenario::scale50();
        let a = run_case(&scenario, 64, 2, 1);
        let b = run_case(&scenario, 64, 2, 8);
        assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
        assert!(a.rounds_per_sec > 0.0);
    }
}
