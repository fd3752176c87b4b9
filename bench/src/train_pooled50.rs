//! `train_pooled50`: paper Algorithm 1 through the real parallel driver.
//!
//! `train_drl_parallel_opt` trains the pooled-observation broadcast
//! controller on the 50-device scenario with two rollout environments:
//! 20 episodes, 1000 environment steps, one PPO update per training run.
//! The PPO update carries most of the time and the rollout the rest, so
//! changes to fl-rl and fl-nn training show here; the rollout also runs
//! fl-sim's small-N `FlSystem` physics.
//!
//! The KL early stop is off (see [`crate::harness::train`]), so the work
//! of a run is the same for every seed, and a change that alters the work
//! shows in the `fl-rl.ppo.epochs_run` and `fl-rl.ppo.minibatches` counts
//! rather than as a speed change.
//!
//! One op is one whole training run. Runs repeat until the budget is
//! spent, the median run sets the end-to-end numbers, and every repeat
//! must reproduce the first bit for bit.

use crate::harness::{
    digest_str, median, report_attribution, report_transfer_probe, run_ops, train, Attribution,
    Report, RunConfig, SetupTimes, Spans, WORKERS,
};
use fl_bench::Scenario;
use fl_ctrl::ParallelTrainOutput;
use fl_obs::Recorder;
use fl_sim::FlSystem;
use std::collections::BTreeMap;
use std::time::Instant;

/// Episodes per training run: 20 episodes × 50 steps fill the
/// 1000-transition buffer once, so every run is one rollout-and-update
/// iteration and a run of the benchmark times several of them.
pub const EPISODES: usize = 20;
/// Episodes whose mean cost is the run's final cost.
const FINAL_WINDOW: usize = 10;
/// Scenario builds before the first training run and after every run. A
/// build takes about a millisecond, so `setup_s` is the median of many,
/// taken across the whole measurement.
const SETUP_BUILDS: usize = 5;

/// One training run's outcome.
struct Run {
    out: ParallelTrainOutput,
    digest: u64,
}

/// Checks one run and returns it with its controller digest.
fn check(
    report: &mut Report,
    result: fl_ctrl::Result<ParallelTrainOutput>,
    expected_updates: usize,
) -> Option<Run> {
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            report.op(false, || format!("training failed: {e}"));
            return None;
        }
    };
    let eps = &out.output.episodes;
    let last = eps.last();
    let problem = if eps.len() != EPISODES {
        Some(format!(
            "{} episodes recorded, expected {EPISODES}",
            eps.len()
        ))
    } else if last.map(|e| e.updates_so_far) != Some(expected_updates) {
        Some(format!(
            "{:?} PPO updates, expected {expected_updates}",
            last.map(|e| e.updates_so_far)
        ))
    } else if !eps
        .iter()
        .all(|e| e.mean_cost.is_finite() && e.mean_cost > 0.0)
    {
        Some("an episode cost is not finite and positive".to_string())
    } else if !last.is_some_and(|e| e.policy_loss.is_finite() && e.value_loss.is_finite()) {
        Some("the final policy or value loss is not finite".to_string())
    } else {
        None
    };
    report.op(problem.is_none(), || {
        format!("training output: {}", problem.clone().unwrap_or_default())
    });
    let json = match out.output.controller.to_json() {
        Ok(json) => json,
        Err(e) => {
            report.op(false, || format!("controller does not serialize: {e}"));
            return None;
        }
    };
    Some(Run {
        digest: digest_str(&json),
        out,
    })
}

/// What a finished in-memory recorder holds: the fl-obs phase totals
/// `(path → (total seconds, count))` and the work of each PPO update
/// `(epochs run, minibatch steps)`.
#[derive(Default)]
struct Recorded {
    phases: BTreeMap<String, (f64, u64)>,
    updates: Vec<(u64, u64)>,
}

fn recorded(rec: &Recorder) -> Recorded {
    let mut out = Recorded::default();
    for line in rec.events_text().lines() {
        let Ok(v) = serde_json::parse_value(line) else {
            continue;
        };
        match v["ev"].as_str() {
            Some("phase_summary") => {
                for (path, stat) in v["phases"].as_object().into_iter().flatten() {
                    let total = stat["total_s"].as_f64().unwrap_or(0.0);
                    let count = stat["count"].as_u64().unwrap_or(0);
                    out.phases.insert(path.clone(), (total, count));
                }
            }
            Some("ppo_update") => out.updates.push((
                v["epochs_run"].as_u64().unwrap_or(0),
                v["minibatches"].as_u64().unwrap_or(0),
            )),
            _ => {}
        }
    }
    out
}

pub fn run(cfg: &RunConfig, report: &mut Report, spans: &mut Spans) {
    let build = || {
        let mut scenario = Scenario::scale50();
        scenario.seed = cfg.seed;
        let sys = scenario.build();
        (scenario, sys)
    };
    let digest = |(_, sys): &(Scenario, FlSystem)| digest_str(&format!("{:?}", sys.devices()));
    let mut setup = SetupTimes::default();
    let (mut scenario, mut sys) = setup.sample(SETUP_BUILDS, build, digest);
    let config = scenario.train_config_pooled(EPISODES);
    let steps = EPISODES * config.env.episode_len;
    let expected_updates = steps / config.ppo.buffer_capacity;

    let mut reference: Option<u64> = None;
    let mut untraced: Vec<f64> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut id = 0u64;
    run_ops(cfg, |trace| {
        let rec = if trace {
            Recorder::in_memory()
        } else {
            Recorder::disabled()
        };
        let t_root = Instant::now();
        let result = train(&scenario, &sys, config.clone(), rec.clone());
        let t_call_end = Instant::now();
        let run = check(report, result, expected_updates);
        if let Some(run) = &run {
            let first = *reference.get_or_insert(run.digest);
            report.op(run.digest == first, || {
                "a repeated training run did not reproduce the first bit for bit".to_string()
            });
        }
        let t_root_end = Instant::now();
        if trace {
            traced.push(attribute(
                report,
                spans,
                id,
                &rec,
                run,
                [t_root, t_call_end, t_root_end],
            ));
        } else {
            untraced.push((t_call_end - t_root).as_secs_f64());
        }
        id += 1;
        // The next run trains on a fresh build, so set-up is sampled
        // across the whole run.
        (scenario, sys) = setup.sample(SETUP_BUILDS, build, digest);
    });
    setup.report(report);
    let wall = median(&untraced);
    report.e2e("throughput_per_s", steps as f64 / wall, "1/s");
    report.e2e("latency_p50_ms", wall * 1e3, "ms");
    report.info("train.runs", id as f64, "count");

    if cfg.trace {
        let ops: Vec<Attribution> = traced.iter().map(|t| t.op.clone()).collect();
        report_attribution(report, "train", &ops, true);
        for name in [
            "fl-rl.runner.rollout",
            "fl-rl.ppo.update_epochs",
            "fl-rl.ppo.update_gae",
            "fl-ctrl.train.driver_self",
        ] {
            let p50 = Attribution::p50(&ops, |o| o.part(name));
            report.info(&format!("{name}_s"), p50, "s");
        }
        let call = median(&traced.iter().map(|t| t.call).collect::<Vec<_>>());
        report.layer("trace_overhead_frac", 1.0 - wall / call, "frac");
        let sum = |f: fn(&Traced) -> f64| traced.iter().map(f).sum::<f64>();
        report.layer(
            "fl-pool.rollout_busy_frac",
            sum(|t| t.busy) / (WORKERS as f64 * sum(|t| t.rollout)),
            "frac",
        );
        let last = traced.last().expect("a traced phase runs at least once");
        report.layer("fl-rl.ppo.updates", last.updates, "count");
        report.layer("fl-rl.ppo.epochs_run", last.epochs_run, "count");
        report.layer("fl-rl.ppo.minibatches", last.minibatches, "count");
        report.layer("fl-rl.env_steps", steps as f64, "count");
        report.layer("cost_per_round", last.final_cost, "cost");
        let trace = sys.traces().get(0).expect("the scenario has traces");
        report_transfer_probe(report, trace, scenario.fl.model_size_mb);
    }
}

/// What one traced training run contributes to the per-layer metrics.
struct Traced {
    op: Attribution,
    /// The `train_drl_parallel_opt` call alone, seconds.
    call: f64,
    rollout: f64,
    busy: f64,
    updates: f64,
    /// Epochs and minibatch steps per update, summed over the run's updates
    /// and divided by their number.
    epochs_run: f64,
    minibatches: f64,
    final_cost: f64,
}

/// Splits one traced run into the program's own phases (fl-obs spans
/// `rollout`, `update/gae`, `update/epochs`), the driver's remainder and
/// the harness, and records its spans. `t` holds the run's start, the
/// end of the training call, and the end of the harness checks.
fn attribute(
    report: &mut Report,
    spans: &mut Spans,
    id: u64,
    rec: &Recorder,
    run: Option<Run>,
    t: [Instant; 3],
) -> Traced {
    if let Err(e) = rec.finish() {
        report.op(false, || format!("recorder did not finish: {e}"));
    }
    let root = spans.push("train_run", None, id, t[0], t[2]);
    let call = spans.push("fl-ctrl.train", Some(root), id, t[0], t[1]);
    let harness = spans.push("harness", Some(root), id, t[1], t[2]);
    let rec = recorded(rec);
    for (path, (seconds, count)) in &rec.phases {
        spans.push_total(path, call, *seconds, *count);
    }
    let total = |path: &str| rec.phases.get(path).map_or(0.0, |p| p.0);
    let (rollout, update) = (total("rollout"), total("update"));
    let (gae, epochs) = (total("update/gae"), total("update/epochs"));
    let call_wall = spans.dur(call);
    let per_update = |f: fn(&(u64, u64)) -> u64| {
        rec.updates.iter().map(f).sum::<u64>() as f64 / rec.updates.len().max(1) as f64
    };
    let (busy, updates, final_cost) = run.map_or((0.0, 0.0, f64::NAN), |run| {
        let busy = run
            .out
            .rounds
            .iter()
            .flatten()
            .map(|w| w.busy.as_secs_f64())
            .sum();
        let eps = &run.out.output.episodes;
        let updates = eps.last().map_or(0, |e| e.updates_so_far) as f64;
        (busy, updates, run.out.output.final_mean_cost(FINAL_WINDOW))
    });
    Traced {
        op: Attribution {
            wall: spans.dur(root),
            parts: vec![
                ("fl-rl.runner.rollout", rollout),
                ("fl-rl.ppo.update_gae", gae),
                ("fl-rl.ppo.update_epochs", epochs),
                ("fl-rl.ppo.update_self", update - gae - epochs),
                ("fl-ctrl.train.driver_self", call_wall - rollout - update),
                ("harness_other", spans.dur(harness)),
            ],
        },
        call: call_wall,
        rollout,
        busy,
        updates,
        epochs_run: per_update(|u| u.0),
        minibatches: per_update(|u| u.1),
        final_cost,
    }
}
