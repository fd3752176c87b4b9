//! `fleet_closed_1e5`: the controlled fleet round the system exists for.
//!
//! Each round at N = 10⁵ realizes the round's faults
//! (`FleetFaults::realize`), decides every device's frequency with a
//! pooled-broadcast DRL controller trained in-process at N = 50 and
//! rebound to the fleet (`DrlController::decide_fleet`: pooled observe,
//! then chunked inference), and runs the sharded physics
//! (`FleetSim::run_round`). Dropouts, stragglers and the 60 s timeout make
//! the physics take its fault branches. Observe, inference and physics
//! all carry weight, so a change to any of them shows here.

use crate::harness::{
    digest_str, median, report_attribution, report_transfer_probe, round_ok, round_start,
    rounds_bit_equal, run_ops, train, Attribution, Report, RoundStats, RunConfig, SetupTimes,
    Spans, SHARDS, WORKERS,
};
use crate::train_pooled50::EPISODES;
use fl_bench::Scenario;
use fl_ctrl::DrlController;
use fl_obs::Recorder;
use fl_sim::{FaultModel, FaultPlan, FleetFaults, FleetRound, FleetSim};
use std::time::Instant;

/// Fleet size.
const DEVICES: usize = 100_000;
/// Per-round dropout and straggler probabilities and the server timeout.
const DROPOUT: f64 = 0.05;
const STRAGGLER: f64 = 0.1;
const TIMEOUT_S: f64 = 60.0;

struct Rig {
    scenario: Scenario,
    fleet: FleetSim,
    ctrl: DrlController,
    plan: FaultPlan,
    digest: u64,
}

fn build(seed: u64) -> Rig {
    let mut scenario = Scenario::scale50();
    scenario.seed = seed;
    let sys = scenario.build();
    // The controller `train_pooled50` trains: one PPO update.
    let config = scenario.train_config_pooled(EPISODES);
    let controller = train(&scenario, &sys, config, Recorder::disabled())
        .expect("the pooled training configuration is valid")
        .output
        .controller;
    let digest = digest_str(
        &controller
            .to_json()
            .expect("a trained controller serializes"),
    );
    let mut fleet = scenario.build_fleet(DEVICES);
    fleet.set_shards(SHARDS);
    fleet.set_workers(Some(WORKERS));
    let ctrl = controller
        .with_fleet_sim(&fleet)
        .expect("a broadcast controller rebinds to any fleet size");
    let plan = FaultPlan::new(
        FaultModel::chaos(DROPOUT, STRAGGLER, Some(TIMEOUT_S)),
        DEVICES,
        seed ^ 0xFA17,
    )
    .expect("the fault model is valid");
    Rig {
        scenario,
        fleet,
        ctrl,
        plan,
        digest,
    }
}

pub fn run(cfg: &RunConfig, report: &mut Report, spans: &mut Spans) {
    let mut setup = SetupTimes::default();
    // Two builds before the measurement and one after it.
    let mut rig = setup.sample(2, || build(cfg.seed), |rig| rig.digest);
    let lambda = rig.scenario.fl.lambda;

    let mut stats = RoundStats::default();
    let mut untraced: Vec<f64> = Vec::new();
    let mut ops: Vec<Attribution> = Vec::new();
    let mut round0: Option<(FleetFaults, Vec<f64>, FleetRound)> = None;
    let mut prev: Option<FleetRound> = None;
    let mut k = 0usize;
    run_ops(cfg, |trace| {
        let t = round_start(k);
        // The traced run times the pooled observe on its own, outside the
        // round, to split `decide_fleet` into observe and the rest.
        let observe = if trace {
            let p0 = Instant::now();
            let obs = rig
                .fleet
                .observe_pooled(t, rig.ctrl.slot_h, rig.ctrl.history_len, None);
            let p1 = Instant::now();
            report.op(obs.is_ok(), || format!("round {k}: observe_pooled failed"));
            spans.push("fl-sim.fleet.observe", None, k as u64, p0, p1);
            (p1 - p0).as_secs_f64()
        } else {
            0.0
        };
        let t0 = Instant::now();
        let faults = FleetFaults::realize(&rig.plan, k as u64);
        let t1 = Instant::now();
        let decided = rig.ctrl.decide_fleet(t, &rig.fleet, prev.as_ref());
        let t2 = Instant::now();
        let result = match decided {
            Ok(freqs) => rig
                .fleet
                .run_round(t, &freqs, &faults)
                .map(|round| (round, freqs))
                .map_err(|e| format!("run_round: {e}")),
            Err(e) => Err(format!("decide_fleet: {e}")),
        };
        let t3 = Instant::now();
        match result {
            Ok((round, freqs)) => {
                report.op(round_ok(&round, DEVICES, lambda), || {
                    format!("round {k}: tally does not sum to N or cost not finite")
                });
                stats.add(&round, lambda);
                if k == 0 {
                    round0 = Some((faults, freqs, round.clone()));
                }
                prev = Some(round);
            }
            Err(e) => {
                report.op(false, || format!("round {k}: {e}"));
                prev = None;
            }
        }
        let t4 = Instant::now();
        let d = |a: Instant, b: Instant| (b - a).as_secs_f64();
        if trace {
            let id = k as u64;
            let root = spans.push("round", None, id, t0, t4);
            spans.push("fl-sim.fault.realize", Some(root), id, t0, t1);
            spans.push("fl-ctrl.decide_fleet", Some(root), id, t1, t2);
            spans.push("fl-sim.fleet.run_round", Some(root), id, t2, t3);
            spans.push("harness", Some(root), id, t3, t4);
            ops.push(Attribution {
                wall: spans.dur(root),
                parts: vec![
                    ("fl-sim.fault.realize", d(t0, t1)),
                    ("fl-sim.fleet.observe", observe),
                    ("fl-nn.decide_self", d(t1, t2) - observe),
                    ("fl-sim.fleet.run_round", d(t2, t3)),
                    ("harness_other", d(t3, t4)),
                ],
            });
        } else {
            untraced.push(d(t0, t4));
        }
        k += 1;
    });

    // Shard invariance: round 0 again at one shard, bit for bit.
    match &round0 {
        Some((faults, freqs, round)) => {
            rig.fleet.set_shards(1);
            let again = rig.fleet.run_round(round_start(0), freqs, faults);
            rig.fleet.set_shards(SHARDS);
            report.op(again.is_ok_and(|r| rounds_bit_equal(&r, round)), || {
                "round 0 at 1 shard differs from round 0 at 8 shards".to_string()
            });
        }
        None => report.op(false, || "round 0 did not complete".to_string()),
    }

    // The rate is the inverse of the median round, so a host stall moves
    // a few rounds rather than the run's number.
    let wall = median(&untraced);
    report.e2e("throughput_per_s", 1.0 / wall, "1/s");
    report.e2e("latency_p50_ms", wall * 1e3, "ms");
    report.info("fleet.rounds", k as f64, "count");
    report.info("fleet.devices", DEVICES as f64, "count");

    if cfg.trace {
        report_attribution(report, "round", &ops, true);
        let p50 = |name: &str| Attribution::p50(&ops, |o| o.part(name));
        let decide = Attribution::p50(&ops, |o| {
            o.part("fl-sim.fleet.observe") + o.part("fl-nn.decide_self")
        });
        report.info(
            "fl-sim.fault.realize_ms",
            p50("fl-sim.fault.realize") * 1e3,
            "ms",
        );
        report.info(
            "fl-sim.fleet.observe_ms",
            p50("fl-sim.fleet.observe") * 1e3,
            "ms",
        );
        report.info("fl-ctrl.decide_fleet_ms", decide * 1e3, "ms");
        report.info("fl-nn.decide_self_ms", p50("fl-nn.decide_self") * 1e3, "ms");
        let physics = p50("fl-sim.fleet.run_round");
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
    drop(rig);
    drop(setup.sample(1, || build(cfg.seed), |rig| rig.digest));
    setup.report(report);
}
