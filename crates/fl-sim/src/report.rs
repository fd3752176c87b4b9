//! Per-iteration and per-session metric records.

use crate::fault::DeviceStatus;
use serde::{Deserialize, Serialize};

/// What one device experienced during one synchronized iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceOutcome {
    /// Frequency the device ran at (GHz).
    pub freq_ghz: f64,
    /// Eq. (1) computation time (s).
    pub compute_time: f64,
    /// Upload time through the time-varying channel (s).
    pub comm_time: f64,
    /// `Δt_i^k`: time spent idle waiting for the slowest device (s).
    pub idle_time: f64,
    /// CPU energy (J), first term of Eq. (6).
    pub compute_energy: f64,
    /// Radio energy (J), second term of Eq. (6).
    pub comm_energy: f64,
    /// Realized average upload bandwidth `B_i^k` (MB/s), Eq. (3).
    pub avg_bandwidth: f64,
    /// How the round ended for this device (always `Completed` on the
    /// fault-free path).
    pub status: DeviceStatus,
}

impl DeviceOutcome {
    /// `T_i^k = t_cmp + t_com` (Eq. 4).
    #[cfg(test)]
    pub fn total_time(&self) -> f64 {
        self.compute_time + self.comm_time
    }

    /// `E_i^k` (Eq. 6).
    pub fn total_energy(&self) -> f64 {
        self.compute_energy + self.comm_energy
    }
}

/// The outcome of one synchronized FL iteration (Eqs. 1–6 evaluated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// `t^k`: wall-clock start of the iteration (s).
    pub start_time: f64,
    /// `T^k = max_i T_i^k` (Eq. 5): iteration duration (s).
    pub duration: f64,
    /// Per-device breakdown.
    pub devices: Vec<DeviceOutcome>,
}

impl IterationReport {
    /// `Σ_i E_i^k`: total energy spent this iteration (J).
    pub fn total_energy(&self) -> f64 {
        self.devices.iter().map(DeviceOutcome::total_energy).sum()
    }

    /// System cost of this iteration: `T^k + λ Σ_i E_i^k` (one term of
    /// Eq. 9).
    pub fn cost(&self, lambda: f64) -> f64 {
        self.duration + lambda * self.total_energy()
    }

    /// `t^{k+1} = t^k + T^k` (Eq. 11).
    pub fn end_time(&self) -> f64 {
        self.start_time + self.duration
    }

    /// Total idle time across devices (the waste Fig. 3 highlights).
    #[cfg(test)]
    pub fn total_idle(&self) -> f64 {
        self.devices.iter().map(|d| d.idle_time).sum()
    }

    /// Per-device "did the update reach the aggregator" flags, device
    /// order.
    pub fn survivor_flags(&self) -> Vec<bool> {
        self.devices.iter().map(|d| d.status.survived()).collect()
    }

    /// Number of devices whose update survived this iteration.
    #[cfg(test)]
    pub fn survivors(&self) -> usize {
        self.devices.iter().filter(|d| d.status.survived()).count()
    }

    /// Outcome counts `[Completed, Straggled, Dropped, Failed]`.
    pub fn outcome_tally(&self) -> OutcomeTally {
        let mut tally = OutcomeTally::default();
        for d in &self.devices {
            tally.add(d.status);
        }
        tally
    }
}

/// Counts of per-device outcomes, accumulated over one or more iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OutcomeTally {
    /// Devices that finished cleanly.
    pub completed: usize,
    /// Devices slowed by a fault whose update still arrived.
    pub straggled: usize,
    /// Devices that skipped their round.
    pub dropped: usize,
    /// Devices whose update was lost (upload failure or timeout).
    pub failed: usize,
}

impl OutcomeTally {
    /// Records one device outcome.
    pub fn add(&mut self, status: DeviceStatus) {
        match status {
            DeviceStatus::Completed => self.completed += 1,
            DeviceStatus::Straggled => self.straggled += 1,
            DeviceStatus::Dropped => self.dropped += 1,
            DeviceStatus::Failed => self.failed += 1,
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &OutcomeTally) {
        self.completed += other.completed;
        self.straggled += other.straggled;
        self.dropped += other.dropped;
        self.failed += other.failed;
    }

    /// Total outcomes recorded.
    pub fn total(&self) -> usize {
        self.completed + self.straggled + self.dropped + self.failed
    }

    /// Fraction of the recorded outcomes whose update reached the
    /// aggregator (0 when nothing was recorded). An integer count over an
    /// integer total, so exact and shard/permutation invariant, and an
    /// all-failed round gives +0.0.
    pub fn survival_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.completed + self.straggled) as f64 / total as f64
    }
}

/// Accumulates [`IterationReport`]s over a session and exposes the series
/// the paper's figures plot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SessionLedger {
    /// λ used for the cost series.
    pub lambda: f64,
    iterations: Vec<IterationReport>,
}

impl SessionLedger {
    /// New empty ledger for the given λ.
    pub fn new(lambda: f64) -> Self {
        SessionLedger {
            lambda,
            iterations: Vec::new(),
        }
    }

    /// Records one iteration.
    pub fn push(&mut self, report: IterationReport) {
        self.iterations.push(report);
    }

    /// The raw reports.
    pub fn iterations(&self) -> &[IterationReport] {
        &self.iterations
    }

    /// Per-iteration system cost (Fig. 7a/7d, Fig. 8 series).
    pub fn cost_series(&self) -> Vec<f64> {
        self.iterations
            .iter()
            .map(|r| r.cost(self.lambda))
            .collect()
    }

    /// Per-iteration duration `T^k` (Fig. 7b/7e series).
    pub fn time_series(&self) -> Vec<f64> {
        self.iterations.iter().map(|r| r.duration).collect()
    }

    /// Per-iteration total energy (Fig. 7c/7f series).
    pub fn energy_series(&self) -> Vec<f64> {
        self.iterations
            .iter()
            .map(IterationReport::total_energy)
            .collect()
    }

    /// Objective (9): total cost over all recorded iterations.
    pub fn total_cost(&self) -> f64 {
        self.cost_series().iter().sum()
    }

    /// Mean per-iteration cost.
    pub fn mean_cost(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.total_cost() / self.iterations.len() as f64
        }
    }

    /// Mean per-iteration duration.
    pub fn mean_time(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.time_series().iter().sum::<f64>() / self.iterations.len() as f64
        }
    }

    /// Mean per-iteration energy.
    pub fn mean_energy(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.energy_series().iter().sum::<f64>() / self.iterations.len() as f64
        }
    }

    /// Outcome counts summed over every recorded iteration.
    pub fn outcome_tally(&self) -> OutcomeTally {
        let mut tally = OutcomeTally::default();
        for r in &self.iterations {
            tally.merge(&r.outcome_tally());
        }
        tally
    }

    /// Serializes the per-iteration series as CSV
    /// (`iteration,start,duration,energy,cost,idle`) for external plotting.
    #[cfg(test)]
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.iterations.len() * 64 + 64);
        out.push_str("iteration,start_s,duration_s,energy_j,cost,idle_s\n");
        for (k, r) in self.iterations.iter().enumerate() {
            out.push_str(&format!(
                "{k},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
                r.start_time,
                r.duration,
                r.total_energy(),
                r.cost(self.lambda),
                r.total_idle()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(freq: f64, cmp: f64, com: f64, idle: f64) -> DeviceOutcome {
        DeviceOutcome {
            freq_ghz: freq,
            compute_time: cmp,
            comm_time: com,
            idle_time: idle,
            compute_energy: 1.0,
            comm_energy: 0.5,
            avg_bandwidth: 2.0,
            status: DeviceStatus::default(),
        }
    }

    fn report(start: f64) -> IterationReport {
        IterationReport {
            start_time: start,
            duration: 10.0,
            devices: vec![outcome(1.0, 6.0, 4.0, 0.0), outcome(2.0, 3.0, 2.0, 5.0)],
        }
    }

    #[test]
    fn device_outcome_totals() {
        let o = outcome(1.5, 6.0, 4.0, 0.0);
        assert_eq!(o.total_time(), 10.0);
        assert_eq!(o.total_energy(), 1.5);
    }

    #[test]
    fn iteration_cost_and_energy() {
        let r = report(0.0);
        assert_eq!(r.total_energy(), 3.0);
        assert!((r.cost(0.5) - 11.5).abs() < 1e-12);
        assert_eq!(r.end_time(), 10.0);
        assert_eq!(r.total_idle(), 5.0);
    }

    #[test]
    fn ledger_series_and_means() {
        let mut l = SessionLedger::new(0.1);
        assert!(l.iterations().is_empty());
        l.push(report(0.0));
        l.push(report(10.0));
        assert_eq!(l.iterations().len(), 2);
        assert_eq!(l.cost_series().len(), 2);
        assert!((l.mean_cost() - 10.3).abs() < 1e-12);
        assert!((l.mean_time() - 10.0).abs() < 1e-12);
        assert!((l.mean_energy() - 3.0).abs() < 1e-12);
        assert!((l.total_cost() - 20.6).abs() < 1e-12);
    }

    #[test]
    fn csv_export_layout() {
        let mut l = SessionLedger::new(0.5);
        l.push(report(0.0));
        let csv = l.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "iteration,start_s,duration_s,energy_j,cost,idle_s"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("0,0.0000,10.0000,3.0000,11.5000"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn outcome_tallies_and_survivors() {
        let mut r = report(0.0);
        r.devices[0].status = DeviceStatus::Straggled;
        r.devices[1].status = DeviceStatus::Dropped;
        r.devices.push(outcome(1.0, 1.0, 1.0, 0.0)); // Completed
        r.devices.push({
            let mut o = outcome(1.0, 1.0, 1.0, 0.0);
            o.status = DeviceStatus::Failed;
            o
        });
        assert_eq!(r.survivor_flags(), vec![true, false, true, false]);
        assert_eq!(r.survivors(), 2);
        let t = r.outcome_tally();
        assert_eq!(
            t,
            OutcomeTally {
                completed: 1,
                straggled: 1,
                dropped: 1,
                failed: 1
            }
        );
        assert_eq!(t.total(), 4);

        let mut l = SessionLedger::new(0.1);
        l.push(r.clone());
        l.push(r);
        let summed = l.outcome_tally();
        assert_eq!(summed.total(), 8);
        assert_eq!(summed.dropped, 2);
    }

    #[test]
    fn empty_ledger_means_are_zero() {
        let l = SessionLedger::new(0.1);
        assert_eq!(l.mean_cost(), 0.0);
        assert_eq!(l.mean_time(), 0.0);
        assert_eq!(l.mean_energy(), 0.0);
    }
}
