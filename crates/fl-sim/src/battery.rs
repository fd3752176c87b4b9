//! Battery accounting.
//!
//! The paper's Section I motivation: "mobile devices may hesitate to join
//! federated learning if the participation incurs quick battery
//! exhaustion". This module makes that measurable — charge each device's
//! battery with the per-iteration energy from [`crate::IterationReport`]
//! and read off the *session lifetime*: how many synchronized iterations
//! the fleet survives before its first device dies (synchronous FL halts
//! when any participant drops).

use crate::{IterationReport, Result, SimError};
use serde::{Deserialize, Serialize};

/// One device's battery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity_j: f64,
    charge_j: f64,
}

impl Battery {
    /// A full battery of the given capacity (joules). Typical smartphone
    /// batteries hold 30–50 kJ; FL sessions are usually granted a small
    /// budget slice of that.
    pub fn new(capacity_j: f64) -> Result<Self> {
        if !(capacity_j > 0.0) || !capacity_j.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "battery capacity must be positive and finite, got {capacity_j}"
            )));
        }
        Ok(Battery {
            capacity_j,
            charge_j: capacity_j,
        })
    }

    /// Capacity in joules.
    #[cfg(test)]
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Remaining charge in joules.
    #[cfg(test)]
    pub fn charge_j(&self) -> f64 {
        self.charge_j
    }

    /// Remaining state of charge in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.charge_j / self.capacity_j
    }

    /// True once the battery has been fully drained.
    pub fn is_depleted(&self) -> bool {
        self.charge_j <= 0.0
    }

    /// Drains `joules`; clamps at zero and reports whether the battery
    /// survived the draw.
    pub fn drain(&mut self, joules: f64) -> Result<bool> {
        if !(joules >= 0.0) || !joules.is_finite() {
            return Err(SimError::InvalidArgument(format!(
                "drain must be non-negative and finite, got {joules}"
            )));
        }
        self.charge_j = (self.charge_j - joules).max(0.0);
        Ok(!self.is_depleted())
    }
}

/// Batteries for a whole fleet, charged from iteration reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetBattery {
    batteries: Vec<Battery>,
    iterations_survived: usize,
    dead: bool,
}

impl FleetBattery {
    /// Every device starts with the same full capacity (joules).
    pub fn uniform(n_devices: usize, capacity_j: f64) -> Result<Self> {
        if n_devices == 0 {
            return Err(SimError::InvalidArgument(
                "need at least one device".to_string(),
            ));
        }
        let batteries = (0..n_devices)
            .map(|_| Battery::new(capacity_j))
            .collect::<Result<Vec<_>>>()?;
        Ok(FleetBattery {
            batteries,
            iterations_survived: 0,
            dead: false,
        })
    }

    /// Per-device batteries.
    #[cfg(test)]
    pub fn batteries(&self) -> &[Battery] {
        &self.batteries
    }

    /// Iterations completed with every device still alive.
    pub fn iterations_survived(&self) -> usize {
        self.iterations_survived
    }

    /// Minimum state of charge across the fleet.
    pub fn min_fraction(&self) -> f64 {
        self.batteries
            .iter()
            .map(Battery::fraction)
            .fold(1.0, f64::min)
    }

    /// Applies one iteration's energy draw. Returns `true` when the whole
    /// fleet survived the iteration; once dead, further calls error.
    pub fn apply(&mut self, report: &IterationReport) -> Result<bool> {
        if self.dead {
            return Err(SimError::InvalidArgument(
                "fleet already has a depleted device".to_string(),
            ));
        }
        if report.devices.len() != self.batteries.len() {
            return Err(SimError::InvalidArgument(format!(
                "report covers {} devices, fleet has {}",
                report.devices.len(),
                self.batteries.len()
            )));
        }
        let mut all_alive = true;
        for (b, outcome) in self.batteries.iter_mut().zip(&report.devices) {
            all_alive &= b.drain(outcome.total_energy())?;
        }
        if all_alive {
            self.iterations_survived += 1;
        } else {
            self.dead = true;
        }
        Ok(all_alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::DeviceOutcome;

    fn report(energies: &[f64]) -> IterationReport {
        IterationReport {
            start_time: 0.0,
            duration: 1.0,
            devices: energies
                .iter()
                .map(|&e| DeviceOutcome {
                    freq_ghz: 1.0,
                    compute_time: 1.0,
                    comm_time: 0.0,
                    idle_time: 0.0,
                    compute_energy: e,
                    comm_energy: 0.0,
                    avg_bandwidth: 1.0,
                    status: crate::DeviceStatus::default(),
                })
                .collect(),
        }
    }

    #[test]
    fn battery_validation_and_basics() {
        assert!(Battery::new(0.0).is_err());
        assert!(Battery::new(f64::NAN).is_err());
        let mut b = Battery::new(10.0).unwrap();
        assert_eq!(b.fraction(), 1.0);
        assert_eq!(b.capacity_j(), 10.0);
        assert!(b.drain(4.0).unwrap());
        assert_eq!(b.charge_j(), 6.0);
        assert!(!b.is_depleted());
        assert!(!b.drain(100.0).unwrap());
        assert_eq!(b.charge_j(), 0.0);
        assert!(b.is_depleted());
        assert!(b.drain(-1.0).is_err());
    }

    #[test]
    fn fleet_construction_validation() {
        assert!(FleetBattery::uniform(0, 10.0).is_err());
        assert!(FleetBattery::uniform(2, -1.0).is_err());
        assert!(FleetBattery::uniform(2, f64::NAN).is_err());
    }

    #[test]
    fn fleet_survival_counting() {
        let mut fleet = FleetBattery::uniform(2, 10.0).unwrap();
        // 4 J per device per iteration: dies during the third iteration.
        assert!(fleet.apply(&report(&[4.0, 4.0])).unwrap());
        assert!(fleet.apply(&report(&[4.0, 4.0])).unwrap());
        assert_eq!(fleet.iterations_survived(), 2);
        assert!(!fleet.apply(&report(&[4.0, 4.0])).unwrap());
        assert_eq!(fleet.iterations_survived(), 2);
        // Dead fleet rejects further work.
        assert!(fleet.apply(&report(&[1.0, 1.0])).is_err());
    }

    #[test]
    fn first_death_halts_even_with_healthy_peers() {
        let mut fleet = FleetBattery::uniform(2, 100.0).unwrap();
        assert!(!fleet.apply(&report(&[1.0, 101.0])).unwrap());
        // Dead after the first depleted device.
        assert!(fleet.apply(&report(&[0.0, 0.0])).is_err());
        // The healthy device's remaining charge is irrelevant to the
        // session, but it is still tracked.
        assert!(fleet.batteries()[0].fraction() > 0.9);
        assert_eq!(fleet.min_fraction(), 0.0);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut fleet = FleetBattery::uniform(3, 10.0).unwrap();
        assert!(fleet.apply(&report(&[1.0])).is_err());
    }

    #[test]
    fn lower_energy_extends_lifetime() {
        // The paper's motivation quantified: halving per-iteration energy
        // doubles the number of iterations a budget supports.
        // 13 J is not a multiple of either draw, so neither run hits the
        // exactly-zero boundary (which counts as depleted).
        let budget = 13.0;
        let mut fast = FleetBattery::uniform(1, budget).unwrap();
        let mut slow = FleetBattery::uniform(1, budget).unwrap();
        while fast.apply(&report(&[4.0])).unwrap() {}
        while slow.apply(&report(&[2.0])).unwrap() {}
        assert_eq!(fast.iterations_survived() * 2, slow.iterations_survived());
    }
}
