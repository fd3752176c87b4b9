//! `fleet_physics_1e6`: sharded round physics and the tree reduce alone.
//!
//! Benign rounds at N = 10⁶ with every device at its frequency cap. There
//! is no observe, decide or fault realization, so a decide-side change
//! must show no change here, while a change to the per-device physics or
//! the trace walk (`BandwidthTrace::transfer_time`) shows almost
//! undiluted.

use crate::harness::{
    digest_f64s, median, report_attribution, report_transfer_probe, round_ok, round_start, run_ops,
    Attribution, Report, RoundStats, RunConfig, SetupTimes, Spans, SHARDS, WORKERS,
};
use fl_bench::Scenario;
use fl_sim::FleetSim;
use std::time::Instant;

/// Fleet size.
const DEVICES: usize = 1_000_000;

struct Rig {
    scenario: Scenario,
    fleet: FleetSim,
    freqs: Vec<f64>,
}

fn build(seed: u64) -> Rig {
    let mut scenario = Scenario::scale50();
    scenario.seed = seed;
    let mut fleet = scenario.build_fleet(DEVICES);
    fleet.set_shards(SHARDS);
    fleet.set_workers(Some(WORKERS));
    let freqs = fleet.max_freqs();
    Rig {
        scenario,
        fleet,
        freqs,
    }
}

pub fn run(cfg: &RunConfig, report: &mut Report, spans: &mut Spans) {
    let digest = |rig: &Rig| digest_f64s(&rig.fleet.state().data_mb) ^ digest_f64s(&rig.freqs);
    let mut setup = SetupTimes::default();
    // `None` only while the next round's fleet is being built.
    let mut rig = Some(setup.sample(3, || build(cfg.seed), digest));
    let lambda = Scenario::scale50().fl.lambda;

    let mut stats = RoundStats::default();
    let mut untraced: Vec<f64> = Vec::new();
    let mut ops: Vec<Attribution> = Vec::new();
    let mut k = 0usize;
    run_ops(cfg, |trace| {
        let r = rig.as_mut().expect("a fleet is built between rounds");
        let t0 = Instant::now();
        let result = r.fleet.run_round_benign(round_start(k), &r.freqs);
        let t1 = Instant::now();
        match result {
            Ok(round) => {
                let ok = round_ok(&round, DEVICES, lambda) && round.tally.completed == DEVICES;
                report.op(ok, || {
                    format!(
                        "round {k}: a benign round must complete every device with a finite cost"
                    )
                });
                stats.add(&round, lambda);
            }
            Err(e) => report.op(false, || format!("round {k}: {e}")),
        }
        let t2 = Instant::now();
        if trace {
            let id = k as u64;
            let root = spans.push("round", None, id, t0, t2);
            spans.push("fl-sim.fleet.run_round", Some(root), id, t0, t1);
            spans.push("harness", Some(root), id, t1, t2);
            ops.push(Attribution {
                wall: spans.dur(root),
                parts: vec![
                    ("fl-sim.fleet.run_round", (t1 - t0).as_secs_f64()),
                    ("harness_other", (t2 - t1).as_secs_f64()),
                ],
            });
        } else {
            untraced.push((t2 - t0).as_secs_f64());
        }
        k += 1;
        // The next round runs on a fresh build (the old one is dropped
        // first, so one fleet is alive at a time): set-up is sampled across
        // the run.
        rig = None;
        rig = Some(setup.sample(1, || build(cfg.seed), digest));
    });
    let rig = rig.expect("a fleet is built after the last round");

    // The rate is the inverse of the median round, so a host stall moves
    // a few rounds rather than the run's number.
    let wall = median(&untraced);
    report.e2e("throughput_per_s", 1.0 / wall, "1/s");
    report.e2e("latency_p50_ms", wall * 1e3, "ms");
    report.info("fleet.rounds", k as f64, "count");
    report.info("fleet.devices", DEVICES as f64, "count");

    if cfg.trace {
        report_attribution(report, "round", &ops, true);
        let physics = Attribution::p50(&ops, |o| o.part("fl-sim.fleet.run_round"));
        report.info("fl-sim.fleet.run_round_ms", physics * 1e3, "ms");
        report.info(
            "fl-sim.fleet.ns_per_device",
            physics * 1e9 / DEVICES as f64,
            "ns",
        );
        let traced = Attribution::p50(&ops, |o| o.wall);
        report.layer("trace_overhead_frac", 1.0 - wall / traced, "frac");
        stats.report(report);
        let trace = rig.fleet.traces().get(0).expect("the fleet has traces");
        report_transfer_probe(report, trace, rig.scenario.fl.model_size_mb);
    }
    setup.report(report);
    report.info("fl-sim.fleet.build_ms", setup.median() * 1e3, "ms");
}
