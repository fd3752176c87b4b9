//! Online-reasoning harness: run controllers against the same physics.

use crate::controllers::FrequencyController;
use crate::{CtrlError, Result};
use fl_sim::{FaultPlan, FleetSim, SessionLedger};
use serde::{Deserialize, Serialize};

/// A finished controller evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerRun {
    /// The controller's name.
    pub name: String,
    /// Per-iteration metrics.
    pub ledger: SessionLedger,
}

impl ControllerRun {
    /// One summary row: `(mean cost, mean time, mean energy)` — the bars of
    /// Fig. 7(a–c).
    pub fn summary(&self) -> (f64, f64, f64) {
        (
            self.ledger.mean_cost(),
            self.ledger.mean_time(),
            self.ledger.mean_energy(),
        )
    }
}

/// Runs one controller for `iterations` synchronized FL iterations starting
/// at `t_start`, mirroring the paper's 400-iteration online evaluation.
/// Each iteration: the controller decides frequencies from whatever
/// information its kind is allowed (bandwidth history for DRL, previous
/// iteration for Heuristic, nothing for Static), then the system executes.
pub fn run_controller(
    sys: &FleetSim,
    ctrl: &mut dyn FrequencyController,
    iterations: usize,
    t_start: f64,
) -> Result<ControllerRun> {
    run_controller_faulty(sys, ctrl, iterations, t_start, None)
}

/// [`run_controller`] under a pinned fault schedule: iteration `k` executes
/// with `plan.faults_at(k)`. Passing the *same* plan to every controller
/// makes chaos comparisons fair — each approach faces the identical
/// dropout/straggler/blackout realization. `None` is the fault-free path.
pub fn run_controller_faulty(
    sys: &FleetSim,
    ctrl: &mut dyn FrequencyController,
    iterations: usize,
    t_start: f64,
    plan: Option<&FaultPlan>,
) -> Result<ControllerRun> {
    if let Some(p) = plan {
        if p.n_devices() != sys.num_devices() {
            return Err(CtrlError::InvalidArgument(format!(
                "fault plan covers {} devices, system has {}",
                p.n_devices(),
                sys.num_devices()
            )));
        }
    }
    ctrl.reset();
    let mut ledger = SessionLedger::new(sys.config().lambda);
    let mut t = t_start;
    let mut prev = None;
    for k in 0..iterations {
        let freqs = ctrl.decide(k, t, sys, prev.as_ref())?;
        let report = match plan {
            Some(p) => sys.run_iteration_faulty(t, &freqs, &p.faults_at(k as u64))?,
            None => sys.run_iteration(t, &freqs)?,
        };
        t = report.end_time();
        ledger.push(report.clone());
        prev = Some(report);
    }
    Ok(ControllerRun {
        name: ctrl.name().to_string(),
        ledger,
    })
}

/// Evaluates several controllers on the *same* system and start time on a
/// work-stealing pool of at most `FL_WORKERS` threads (they only read the
/// system). Results come back in input order regardless of scheduling.
pub fn compare_controllers(
    sys: &FleetSim,
    controllers: Vec<Box<dyn FrequencyController + Send>>,
    iterations: usize,
    t_start: f64,
) -> Result<Vec<ControllerRun>> {
    compare_controllers_faulty(sys, controllers, iterations, t_start, None)
}

/// [`compare_controllers`] under a pinned fault schedule — every controller
/// faces the identical chaos realization (see [`run_controller_faulty`]).
pub fn compare_controllers_faulty(
    sys: &FleetSim,
    controllers: Vec<Box<dyn FrequencyController + Send>>,
    iterations: usize,
    t_start: f64,
    plan: Option<&FaultPlan>,
) -> Result<Vec<ControllerRun>> {
    let workers = fl_pool::env_workers().min(controllers.len().max(1));
    let run = fl_pool::run_indexed(workers, controllers, |_, mut ctrl| {
        run_controller_faulty(sys, ctrl.as_mut(), iterations, t_start, plan)
    });
    run.results.into_iter().collect()
}

/// Per-batch timing report of a [`run_parallel_sweep`] call, for the
/// benchmark binaries' `--timing` output.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-worker telemetry (tasks, steals, busy time).
    pub workers: Vec<fl_pool::WorkerStats>,
    /// Wall-clock duration of the whole sweep.
    pub wall: std::time::Duration,
}

impl SweepReport {
    /// The physical `pool_round` observability event for this sweep:
    /// worker count and per-worker telemetry, with all timings under the
    /// `wall` sub-object (scheduling is physical, never deterministic).
    pub fn obs_event(&self, label: &str) -> fl_obs::Event {
        fl_pool::round_event(label, &self.workers, self.wall)
    }

    /// Human-readable per-worker timing summary.
    pub fn timing_line(&self) -> String {
        let wall = self.wall.as_secs_f64();
        let busy: f64 = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        let speedup = if wall > 0.0 { busy / wall } else { 1.0 };
        let per: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "w{}={} tasks/{:.2}s{}",
                    w.worker,
                    w.tasks,
                    w.busy.as_secs_f64(),
                    if w.steals > 0 {
                        format!(" ({} stolen)", w.steals)
                    } else {
                        String::new()
                    }
                )
            })
            .collect();
        format!(
            "workers={} wall={:.2}s busy={:.2}s speedup={:.2}x [{}]",
            self.workers.len(),
            wall,
            busy,
            speedup,
            per.join(", ")
        )
    }
}

/// Fans a batch of independent experiment configurations (seeds, lambdas,
/// fleet sizes, hyperparameter points, …) across a bounded work-stealing
/// pool and returns the outcomes **in input order**, plus per-worker
/// timing. The first task error, if any, is propagated after the whole
/// batch has run.
///
/// Each task must derive all randomness from its own input (e.g. by
/// seeding an RNG from it) — the pool provides ordering, not isolation.
pub fn run_parallel_sweep<T, R, F>(
    workers: usize,
    inputs: Vec<T>,
    f: F,
) -> Result<(Vec<R>, SweepReport)>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> Result<R> + Sync,
{
    let run = fl_pool::run_indexed(workers, inputs, f);
    let report = SweepReport {
        workers: run.workers,
        wall: run.wall,
    };
    let results: Result<Vec<R>> = run.results.into_iter().collect();
    Ok((results?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controllers::{HeuristicController, MaxFreqController, StaticController};
    use crate::flenv::build_system_with;
    use fl_net::synth::Profile;
    use fl_sim::FlConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn system(seed: u64) -> FleetSim {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        build_system_with(
            3,
            3,
            Profile::Walking4G,
            2400,
            FlConfig::default(),
            &fl_sim::DeviceSampler::default(),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn run_collects_every_iteration() {
        let sys = system(0);
        let mut ctrl = MaxFreqController;
        let run = run_controller(&sys, &mut ctrl, 25, 300.0).unwrap();
        assert_eq!(run.ledger.iterations().len(), 25);
        assert_eq!(run.name, "maxfreq");
        let (c, t, e) = run.summary();
        assert!(c > 0.0 && t > 0.0 && e > 0.0);
        assert!(c >= t, "cost includes time plus weighted energy");
        // Iterations are contiguous in time.
        let iters = run.ledger.iterations();
        for w in iters.windows(2) {
            assert!((w[0].end_time() - w[1].start_time).abs() < 1e-9);
        }
    }

    #[test]
    fn compare_runs_all_controllers_on_same_timeline() {
        let sys = system(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let stat = StaticController::new(&sys, 200, 0.1, &mut rng).unwrap();
        let runs = compare_controllers(
            &sys,
            vec![
                Box::new(MaxFreqController),
                Box::new(stat),
                Box::new(HeuristicController::default()),
            ],
            20,
            400.0,
        )
        .unwrap();
        assert_eq!(runs.len(), 3);
        let names: Vec<&str> = runs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["maxfreq", "static", "heuristic"]);
        for r in &runs {
            assert_eq!(r.ledger.iterations().len(), 20);
        }
        // All start at the same time.
        for r in &runs {
            assert!((r.ledger.iterations()[0].start_time - 400.0).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_compare_matches_serial_run() {
        let sys = system(3);
        let runs = compare_controllers(
            &sys,
            vec![Box::new(MaxFreqController), Box::new(MaxFreqController)],
            10,
            500.0,
        )
        .unwrap();
        let mut direct = MaxFreqController;
        let serial = run_controller(&sys, &mut direct, 10, 500.0).unwrap();
        assert_eq!(runs[0].ledger.cost_series(), serial.ledger.cost_series());
        assert_eq!(runs[1].ledger.cost_series(), serial.ledger.cost_series());
    }

    #[test]
    fn faulty_evaluation_is_pinned_and_fault_free_when_none() {
        use fl_sim::{FaultModel, FaultPlan};
        let sys = system(6);
        let model = FaultModel::chaos(0.3, 0.3, Some(120.0));
        let plan = FaultPlan::new(model, 3, 42).unwrap();
        let mut ctrl = MaxFreqController;
        let r1 = run_controller_faulty(&sys, &mut ctrl, 30, 400.0, Some(&plan)).unwrap();
        let r2 = run_controller_faulty(&sys, &mut ctrl, 30, 400.0, Some(&plan)).unwrap();
        assert_eq!(r1.ledger.cost_series(), r2.ledger.cost_series());
        let tally = r1.ledger.outcome_tally();
        assert_eq!(tally.total(), 90, "3 devices x 30 iterations");
        assert!(tally.dropped > 0, "30% dropout must show up in 90 rounds");
        // A none-model plan reproduces the fault-free run bit for bit.
        let clean = run_controller(&sys, &mut ctrl, 30, 400.0).unwrap();
        let none_plan = FaultPlan::new(FaultModel::none(), 3, 42).unwrap();
        let via_none = run_controller_faulty(&sys, &mut ctrl, 30, 400.0, Some(&none_plan)).unwrap();
        assert_eq!(clean.ledger.cost_series(), via_none.ledger.cost_series());
        assert_eq!(clean.ledger.outcome_tally().completed, 90);
        // Plan arity is validated.
        let bad = FaultPlan::new(model, 5, 1).unwrap();
        assert!(run_controller_faulty(&sys, &mut ctrl, 5, 400.0, Some(&bad)).is_err());
    }

    #[test]
    fn faulty_compare_shares_one_schedule() {
        use fl_sim::{FaultModel, FaultPlan};
        let sys = system(7);
        let plan = FaultPlan::new(FaultModel::chaos(0.4, 0.2, Some(90.0)), 3, 9).unwrap();
        let runs = compare_controllers_faulty(
            &sys,
            vec![Box::new(MaxFreqController), Box::new(MaxFreqController)],
            15,
            500.0,
            Some(&plan),
        )
        .unwrap();
        // Identical controllers + identical pinned schedule → identical runs.
        assert_eq!(runs[0].ledger.cost_series(), runs[1].ledger.cost_series());
        assert_eq!(
            runs[0].ledger.outcome_tally(),
            runs[1].ledger.outcome_tally()
        );
    }

    #[test]
    fn energy_aware_baselines_beat_maxfreq_energy() {
        // The whole premise: both baselines should spend less energy than
        // running flat out, at comparable or better cost.
        let sys = system(4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let stat = StaticController::new(&sys, 500, 0.1, &mut rng).unwrap();
        let runs = compare_controllers(
            &sys,
            vec![
                Box::new(MaxFreqController),
                Box::new(stat),
                Box::new(HeuristicController::default()),
            ],
            40,
            600.0,
        )
        .unwrap();
        let maxf_energy = runs[0].ledger.mean_energy();
        let maxf_cost = runs[0].ledger.mean_cost();
        for r in &runs[1..] {
            assert!(
                r.ledger.mean_energy() < maxf_energy,
                "{} energy {} vs maxfreq {}",
                r.name,
                r.ledger.mean_energy(),
                maxf_energy
            );
            assert!(
                r.ledger.mean_cost() < maxf_cost * 1.15,
                "{} cost {} vs maxfreq {}",
                r.name,
                r.ledger.mean_cost(),
                maxf_cost
            );
        }
    }
}
