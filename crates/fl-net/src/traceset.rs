//! Collections of traces that devices draw from.

use crate::synth::Profile;
use crate::{BandwidthTrace, NetError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A pool of bandwidth traces.
///
/// The paper's experiments "randomly select three walking datasets" (testbed)
/// and "randomly select five walking datasets and let each mobile device
/// randomly select one" (50-device simulation). `TraceSet` reproduces that:
/// generate (or load) a pool, then [`TraceSet::assign`] one trace index per
/// device.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceSet {
    traces: Vec<BandwidthTrace>,
}

impl Deserialize for TraceSet {
    /// Rebuilds the set through [`TraceSet::new`] (each trace through
    /// [`BandwidthTrace::new`]), so an empty set is a decode error.
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        #[derive(Deserialize)]
        struct Raw {
            traces: Vec<BandwidthTrace>,
        }
        TraceSet::new(Raw::from_value(v)?.traces).map_err(|e| serde::DeError::custom(e.to_string()))
    }
}

impl TraceSet {
    /// Builds a set from explicit traces.
    pub fn new(traces: Vec<BandwidthTrace>) -> Result<Self> {
        if traces.is_empty() {
            return Err(NetError::InvalidArgument(
                "a trace set needs at least one trace".to_string(),
            ));
        }
        Ok(TraceSet { traces })
    }

    /// Generates `count` independent cyclic traces from a profile preset.
    ///
    /// Traces are made cyclic so FL sessions of arbitrary length can run on
    /// them (mirroring how the paper re-samples start times in finite data).
    pub fn from_profile(
        profile: Profile,
        count: usize,
        num_slots: usize,
        slot_duration: f64,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if count == 0 {
            return Err(NetError::InvalidArgument(
                "count must be nonzero".to_string(),
            ));
        }
        let traces = (0..count)
            .map(|_| {
                profile
                    .generate(num_slots, slot_duration, rng)
                    .map(BandwidthTrace::cyclic)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(TraceSet { traces })
    }

    /// Generates a mixed pool cycling through several profiles.
    #[cfg(test)]
    pub fn from_profiles(
        profiles: &[Profile],
        count: usize,
        num_slots: usize,
        slot_duration: f64,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if profiles.is_empty() || count == 0 {
            return Err(NetError::InvalidArgument(
                "profiles and count must be nonempty".to_string(),
            ));
        }
        let traces = (0..count)
            .map(|i| {
                profiles[i % profiles.len()]
                    .generate(num_slots, slot_duration, rng)
                    .map(BandwidthTrace::cyclic)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(TraceSet { traces })
    }

    /// Number of traces in the pool.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when the pool is empty (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Borrow of trace `i`.
    pub fn get(&self, i: usize) -> Option<&BandwidthTrace> {
        self.traces.get(i)
    }

    /// All traces.
    pub fn traces(&self) -> &[BandwidthTrace] {
        &self.traces
    }

    /// Assigns one trace index to each of `n_devices` devices, uniformly at
    /// random with replacement — the paper's "each mobile device randomly
    /// selects one dataset".
    pub fn assign(&self, n_devices: usize, rng: &mut impl Rng) -> Vec<usize> {
        (0..n_devices)
            .map(|_| rng.gen_range(0..self.traces.len()))
            .collect()
    }

    /// Random start time within the shortest trace — Algorithm 1 line 6
    /// ("randomly select a federated learning start time t^1").
    pub fn random_start_time(&self, rng: &mut impl Rng) -> f64 {
        let shortest = self
            .traces
            .iter()
            .map(|t| t.duration())
            .fold(f64::INFINITY, f64::min);
        rng.gen_range(0.0..shortest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_rejected() {
        assert!(TraceSet::new(vec![]).is_err());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(TraceSet::from_profile(Profile::Walking4G, 0, 10, 1.0, &mut rng).is_err());
    }

    #[test]
    fn from_profile_generates_cyclic_traces() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let set = TraceSet::from_profile(Profile::Walking4G, 3, 100, 1.0, &mut rng).unwrap();
        assert_eq!(set.len(), 3);
        assert!(set.traces().iter().all(|t| t.is_cyclic()));
        assert!(set.get(2).is_some());
        assert!(set.get(3).is_none());
        // Independent traces differ.
        assert_ne!(set.get(0), set.get(1));
    }

    #[test]
    fn from_profiles_cycles() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let set = TraceSet::from_profiles(
            &[Profile::Walking4G, Profile::BusHsdpa],
            4,
            200,
            1.0,
            &mut rng,
        )
        .unwrap();
        // Even indices walking (max > 1 MB/s), odd indices bus (max <= 0.8).
        assert!(set.get(0).unwrap().max() > 1.0);
        assert!(set.get(1).unwrap().max() <= 0.8);
        assert!(set.get(2).unwrap().max() > 1.0);
        assert!(set.get(3).unwrap().max() <= 0.8);
    }

    #[test]
    fn assign_covers_pool() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let set = TraceSet::from_profile(Profile::Walking4G, 5, 50, 1.0, &mut rng).unwrap();
        let assignment = set.assign(200, &mut rng);
        assert_eq!(assignment.len(), 200);
        assert!(assignment.iter().all(|&i| i < 5));
        // With 200 draws over 5 traces every index should appear.
        for idx in 0..5 {
            assert!(assignment.contains(&idx), "index {idx} never assigned");
        }
    }

    #[test]
    fn random_start_time_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let set = TraceSet::from_profile(Profile::BusHsdpa, 2, 60, 1.0, &mut rng).unwrap();
        for _ in 0..50 {
            let t = set.random_start_time(&mut rng);
            assert!((0.0..60.0).contains(&t));
        }
    }
}
