//! Asynchronous-protocol timing simulation.
//!
//! The paper adopts the synchronized model, citing Chen et al. (ref. 14) for
//! synchronous SGD being more efficient than asynchronous variants. This
//! module lets the repository *measure* that choice instead of citing it:
//! it simulates the asynchronous alternative, where every device loops
//! (download → compute → upload) at its own pace and the server applies
//! updates the moment they arrive. `fl-learn`'s staleness-aware
//! `AsyncFedAvg` consumes the event stream; the `abl_sync_async` bench
//! compares both protocols on identical physics.

use crate::{FleetSim, Result, SimError};
use serde::{Deserialize, Serialize};

/// One completed asynchronous round of one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncArrival {
    /// Which device uploaded.
    pub device: usize,
    /// When the device downloaded the model and started computing (s).
    pub start_time: f64,
    /// When its update reached the server (s).
    pub arrival_time: f64,
    /// Energy spent on this round (compute + radio), J.
    pub energy: f64,
}

impl AsyncArrival {
    /// Round latency (download → server receipt).
    #[cfg(test)]
    pub fn latency(&self) -> f64 {
        self.arrival_time - self.start_time
    }
}

/// The full event stream of an asynchronous session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncSession {
    /// Arrivals in server-receipt order.
    pub arrivals: Vec<AsyncArrival>,
    /// Wall-clock span simulated (s).
    pub duration: f64,
    /// Total energy across devices (J).
    pub total_energy: f64,
}

impl AsyncSession {
    /// Updates applied per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.arrivals.len() as f64 / self.duration
        }
    }
}

/// Simulates every device looping independently at fixed frequencies from
/// `t_start` until (at least) `t_end`, returning all arrivals inside the
/// window sorted by arrival time.
///
/// Per round, a device spends `τ c_i D_i / δ_i` computing, then uploads
/// `ξ` MB through its bandwidth trace; its next round starts the instant
/// the upload lands (downloads are free, as in the synchronized model).
pub fn run_async(sys: &FleetSim, freqs: &[f64], t_start: f64, t_end: f64) -> Result<AsyncSession> {
    if freqs.len() != sys.num_devices() {
        return Err(SimError::InvalidArgument(format!(
            "expected {} frequencies, got {}",
            sys.num_devices(),
            freqs.len()
        )));
    }
    if !(t_end > t_start) || t_start < 0.0 || !t_end.is_finite() {
        return Err(SimError::InvalidArgument(format!(
            "bad window [{t_start}, {t_end})"
        )));
    }
    let tau = sys.config().tau;
    let xi = sys.config().model_size_mb;
    let mut arrivals = Vec::new();
    for (i, d) in sys.devices().iter().enumerate() {
        let freq = freqs[i];
        if !(freq > 0.0) || freq > d.delta_max_ghz + 1e-12 {
            return Err(SimError::FrequencyOutOfRange {
                device: d.id,
                freq,
                max: d.delta_max_ghz,
            });
        }
        let trace = sys.trace_of(i)?;
        let mut t = t_start;
        loop {
            let compute = d.compute_time(tau, freq);
            let comm = trace.transfer_time(t + compute, xi)?;
            let arrival = t + compute + comm;
            if arrival > t_end {
                break;
            }
            arrivals.push(AsyncArrival {
                device: i,
                start_time: t,
                arrival_time: arrival,
                energy: d.compute_energy(tau, freq) + d.comm_energy(comm),
            });
            t = arrival;
        }
    }
    arrivals.sort_by(|a, b| {
        a.arrival_time
            .partial_cmp(&b.arrival_time)
            .expect("finite times")
    });
    let total_energy = arrivals.iter().map(|a| a.energy).sum();
    Ok(AsyncSession {
        arrivals,
        duration: t_end - t_start,
        total_energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceSampler, FlConfig, FleetState, MobileDevice};
    use fl_net::{BandwidthTrace, TraceSet};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sim(devices: Vec<MobileDevice>, traces: TraceSet) -> FleetSim {
        let state = FleetState::from_devices(&devices).unwrap();
        FleetSim::new(state, traces, FlConfig::default()).unwrap()
    }

    fn flat_system(bws: &[f64], gcyc_factor: f64) -> FleetSim {
        let traces = TraceSet::new(
            bws.iter()
                .map(|&b| BandwidthTrace::new(1.0, vec![b; 4]).unwrap().cyclic())
                .collect(),
        )
        .unwrap();
        let devices: Vec<MobileDevice> = (0..bws.len())
            .map(|i| MobileDevice {
                id: i,
                cycles_per_bit: 20.0,
                data_mb: 62.5 * gcyc_factor, // 10 Gcycles at factor 1
                alpha: 0.1,
                delta_max_ghz: 2.0,
                tx_power_w: 0.2,
                trace_idx: i,
            })
            .collect();
        sim(devices, traces)
    }

    #[test]
    fn validation() {
        let sys = flat_system(&[2.0, 2.0], 1.0);
        assert!(run_async(&sys, &[2.0], 0.0, 100.0).is_err());
        assert!(run_async(&sys, &[2.0, 3.0], 0.0, 100.0).is_err());
        assert!(run_async(&sys, &[2.0, 2.0], 100.0, 100.0).is_err());
    }

    #[test]
    fn round_timing_by_hand() {
        // One device: 10 Gc at 2 GHz = 5 s compute; 10 MB at 2 MB/s = 5 s
        // upload → arrivals every 10 s.
        let sys = flat_system(&[2.0], 1.0);
        let s = run_async(&sys, &[2.0], 0.0, 35.0).unwrap();
        let times: Vec<f64> = s.arrivals.iter().map(|a| a.arrival_time).collect();
        assert_eq!(times.len(), 3);
        assert!((times[0] - 10.0).abs() < 1e-9);
        assert!((times[1] - 20.0).abs() < 1e-9);
        assert!((times[2] - 30.0).abs() < 1e-9);
        assert!((s.arrivals[0].latency() - 10.0).abs() < 1e-9);
        assert!((s.throughput() - 3.0 / 35.0).abs() < 1e-9);
    }

    #[test]
    fn fast_device_laps_slow_device() {
        // Device 0: 10 s/round; device 1: 4x less work → 1.25 s compute +
        // 5 s upload = 6.25 s/round. In 40 s: device 0 lands 4, device 1
        // lands 6.
        let traces = TraceSet::new(vec![
            BandwidthTrace::new(1.0, vec![2.0; 4]).unwrap().cyclic(),
            BandwidthTrace::new(1.0, vec![2.0; 4]).unwrap().cyclic(),
        ])
        .unwrap();
        let mk = |id: usize, data_mb: f64| MobileDevice {
            id,
            cycles_per_bit: 20.0,
            data_mb,
            alpha: 0.1,
            delta_max_ghz: 2.0,
            tx_power_w: 0.2,
            trace_idx: id,
        };
        let sys = sim(vec![mk(0, 62.5), mk(1, 15.625)], traces);
        let s = run_async(&sys, &[2.0, 2.0], 0.0, 40.0).unwrap();
        let rounds = |d: usize| s.arrivals.iter().filter(|a| a.device == d).count();
        assert_eq!([rounds(0), rounds(1)], [4, 6]);
        // Arrivals are globally sorted.
        for w in s.arrivals.windows(2) {
            assert!(w[0].arrival_time <= w[1].arrival_time);
        }
    }

    #[test]
    fn energy_accounting_matches_sync_model() {
        let sys = flat_system(&[2.0], 1.0);
        let s = run_async(&sys, &[2.0], 0.0, 25.0).unwrap();
        let d = &sys.devices()[0];
        let per_round = d.compute_energy(1, 2.0) + d.comm_energy(5.0);
        assert!((s.total_energy - 2.0 * per_round).abs() < 1e-9);
    }

    #[test]
    fn random_system_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let traces =
            TraceSet::from_profile(fl_net::synth::Profile::Walking4G, 3, 1200, 1.0, &mut rng)
                .unwrap();
        let assignment = traces.assign(4, &mut rng);
        let devices = DeviceSampler::default().sample_fleet(&assignment, &mut rng);
        let sys = sim(devices, traces);
        let freqs: Vec<f64> = sys.devices().iter().map(|d| d.delta_max_ghz).collect();
        let s = run_async(&sys, &freqs, 100.0, 400.0).unwrap();
        assert!(!s.arrivals.is_empty());
        assert!(s.total_energy > 0.0);
        assert!((0..4).all(|d| s.arrivals.iter().any(|a| a.device == d)));
    }
}
