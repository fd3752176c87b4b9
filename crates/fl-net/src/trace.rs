//! Piecewise-constant bandwidth traces.

use crate::{NetError, Result};
use serde::{Deserialize, Serialize};

/// A bandwidth trace: one bandwidth value (MB/s) per fixed-length slot.
///
/// This is the continuous-time `B_t` of the paper, stored piecewise
/// constant. It supports the three queries the system needs:
///
/// 1. **Integration** over an interval (Eq. 3's numerator) — exact, by
///    walking the slots the interval crosses.
/// 2. **Upload-completion solving**: the time needed to push `ξ` MB starting
///    at time `t0` through the time-varying channel.
/// 3. **History windows**: the trailing `H+1` slot-averages of length `h`
///    that form the DRL state (`B_i(⌊t/h⌋), ..., B_i(⌊t/h⌋ - H)`).
///
/// Traces can be *cyclic* (wrap around, so arbitrarily long simulations run
/// on finite measurement data — the paper similarly re-samples start times
/// inside finite traces) or finite (queries past the end are errors).
///
/// The per-cycle capacity `Σ slots` is summed once, left to right, in
/// [`BandwidthTrace::new`], so [`BandwidthTrace::transfer_time`] reads it
/// in O(1) instead of re-summing every slot per call. Every trace,
/// deserialized ones included, is built by `new`, so the slots are
/// validated and the stored sum always matches them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BandwidthTrace {
    /// Seconds covered by each slot.
    slot_duration: f64,
    /// Bandwidth per slot, MB/s.
    slots: Vec<f64>,
    /// Whether queries wrap modulo the trace length.
    cyclic: bool,
    /// `slots.iter().sum()`, computed once by [`BandwidthTrace::new`]; not
    /// serialized (deserialization re-derives it).
    #[serde(skip)]
    slot_sum: f64,
}

impl Deserialize for BandwidthTrace {
    /// Rebuilds a trace through [`BandwidthTrace::new`], so a payload the
    /// constructor would reject (empty, negative, non-positive slot length)
    /// is a decode error rather than a trace that panics on first query.
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        #[derive(Deserialize)]
        struct Raw {
            slot_duration: f64,
            slots: Vec<f64>,
            cyclic: bool,
        }
        let raw = Raw::from_value(v)?;
        let trace = BandwidthTrace::new(raw.slot_duration, raw.slots)
            .map_err(|e| serde::DeError::custom(e.to_string()))?;
        Ok(if raw.cyclic { trace.cyclic() } else { trace })
    }
}

impl BandwidthTrace {
    /// Builds a trace from per-slot bandwidths.
    ///
    /// Fails when `slot_duration` is not strictly positive/finite, `slots`
    /// is empty, or any bandwidth is negative or non-finite.
    pub fn new(slot_duration: f64, slots: Vec<f64>) -> Result<Self> {
        if !(slot_duration > 0.0) || !slot_duration.is_finite() {
            return Err(NetError::InvalidArgument(format!(
                "slot_duration must be positive and finite, got {slot_duration}"
            )));
        }
        if slots.is_empty() {
            return Err(NetError::InvalidArgument(
                "a trace needs at least one slot".to_string(),
            ));
        }
        if let Some(bad) = slots.iter().find(|b| !b.is_finite() || **b < 0.0) {
            return Err(NetError::InvalidArgument(format!(
                "bandwidth values must be finite and non-negative, got {bad}"
            )));
        }
        let slot_sum = slots.iter().sum();
        Ok(BandwidthTrace {
            slot_duration,
            slots,
            cyclic: false,
            slot_sum,
        })
    }

    /// Marks the trace as cyclic (wrapping) and returns it.
    pub fn cyclic(mut self) -> Self {
        self.cyclic = true;
        self
    }

    /// Whether this trace wraps.
    #[cfg(test)]
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// Seconds per slot.
    pub fn slot_duration(&self) -> f64 {
        self.slot_duration
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total covered duration in seconds (one cycle if cyclic).
    pub fn duration(&self) -> f64 {
        self.slot_duration * self.slots.len() as f64
    }

    /// The raw per-slot bandwidths.
    pub fn slots(&self) -> &[f64] {
        &self.slots
    }

    /// Mean bandwidth over one full cycle.
    pub fn mean(&self) -> f64 {
        self.slot_sum / self.slots.len() as f64
    }

    /// Minimum slot bandwidth.
    pub fn min(&self) -> f64 {
        self.slots.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum slot bandwidth.
    pub fn max(&self) -> f64 {
        self.slots.iter().copied().fold(0.0, f64::max)
    }

    /// Bandwidth of the (possibly wrapped / clamped) slot with signed index.
    fn slot_bw(&self, idx: i64) -> f64 {
        let n = self.slots.len() as i64;
        let i = if self.cyclic {
            idx.rem_euclid(n)
        } else {
            idx.clamp(0, n - 1)
        };
        self.slots[i as usize]
    }

    /// Instantaneous bandwidth at time `t`.
    ///
    /// Errors with [`NetError::OutOfRange`] for `t` outside a non-cyclic
    /// trace; cyclic traces accept any finite `t >= 0`.
    pub fn bandwidth_at(&self, t: f64) -> Result<f64> {
        if !t.is_finite() || t < 0.0 {
            return Err(NetError::InvalidArgument(format!(
                "time must be finite and non-negative, got {t}"
            )));
        }
        let idx = (t / self.slot_duration).floor() as i64;
        if !self.cyclic && idx >= self.slots.len() as i64 {
            return Err(NetError::OutOfRange {
                requested: t,
                duration: self.duration(),
            });
        }
        Ok(self.slot_bw(idx))
    }

    /// Megabytes transferable in `[t0, t1)` — the exact integral
    /// `∫ B_t dt` over the piecewise-constant trace.
    pub fn integrate(&self, t0: f64, t1: f64) -> Result<f64> {
        if !(t0.is_finite() && t1.is_finite()) || t0 < 0.0 || t1 < t0 {
            return Err(NetError::InvalidArgument(format!(
                "bad interval [{t0}, {t1})"
            )));
        }
        if !self.cyclic && t1 > self.duration() + 1e-9 {
            return Err(NetError::OutOfRange {
                requested: t1,
                duration: self.duration(),
            });
        }
        if t1 == t0 {
            return Ok(0.0);
        }
        let sd = self.slot_duration;
        let first = (t0 / sd).floor() as i64;
        let last = ((t1 / sd).ceil() as i64 - 1).max(first);
        let mut total = 0.0;
        for idx in first..=last {
            let s = idx as f64 * sd;
            let e = s + sd;
            let lo = t0.max(s);
            let hi = t1.min(e);
            if hi > lo {
                total += self.slot_bw(idx) * (hi - lo);
            }
        }
        Ok(total)
    }

    /// Average bandwidth over `[t0, t1)` — Eq. 3 of the paper. Returns the
    /// instantaneous bandwidth when the interval is (near-)empty.
    pub fn average_bandwidth(&self, t0: f64, t1: f64) -> Result<f64> {
        if t1 - t0 < 1e-12 {
            return self.bandwidth_at(t0.min(self.duration() - 1e-9).max(0.0));
        }
        Ok(self.integrate(t0, t1)? / (t1 - t0))
    }

    /// Seconds needed to upload `mb` megabytes starting at `t0`.
    ///
    /// Walks slots, spending zero-bandwidth slots as pure waiting time.
    /// Fails with [`NetError::TransferStalled`] if the (finite) trace ends
    /// — or a cyclic trace has no capacity — before the transfer completes.
    pub fn transfer_time(&self, t0: f64, mb: f64) -> Result<f64> {
        if !mb.is_finite() || mb < 0.0 {
            return Err(NetError::InvalidArgument(format!(
                "transfer size must be finite and non-negative, got {mb}"
            )));
        }
        if !t0.is_finite() || t0 < 0.0 {
            return Err(NetError::InvalidArgument(format!(
                "start time must be finite and non-negative, got {t0}"
            )));
        }
        if mb == 0.0 {
            return Ok(0.0);
        }
        let n = self.slots.len() as i64;
        if !self.cyclic && t0 >= self.duration() {
            return Err(NetError::OutOfRange {
                requested: t0,
                duration: self.duration(),
            });
        }
        let sd = self.slot_duration;
        let cycle_mb = self.slot_sum * sd;
        if self.cyclic && cycle_mb <= 0.0 {
            return Err(NetError::TransferStalled { remaining_mb: mb });
        }
        // Bound the walk: non-cyclic traces end at n; cyclic ones need at
        // most ceil(mb / cycle_mb) + 1 cycles.
        let max_slots = if self.cyclic {
            let cycles = (mb / cycle_mb).ceil() as i64 + 2;
            cycles.saturating_mul(n)
        } else {
            n
        };
        let mut remaining = mb;
        let mut t = t0;
        let mut idx = (t0 / sd).floor() as i64;
        let mut steps = 0i64;
        loop {
            if !self.cyclic && idx >= n {
                return Err(NetError::TransferStalled {
                    remaining_mb: remaining,
                });
            }
            if steps > max_slots {
                return Err(NetError::TransferStalled {
                    remaining_mb: remaining,
                });
            }
            let b = self.slot_bw(idx);
            let slot_end = (idx + 1) as f64 * sd;
            let cap = b * (slot_end - t);
            if b > 0.0 && cap >= remaining {
                return Ok(t + remaining / b - t0);
            }
            remaining -= cap;
            t = slot_end;
            idx += 1;
            steps += 1;
        }
    }

    /// Average bandwidth over the aggregation window `[j*h, (j+1)*h)` for a
    /// *state slot* of length `h` (which may differ from the trace's own
    /// slot length). Out-of-range windows clamp to the nearest valid window
    /// for non-cyclic traces.
    pub fn state_slot_average(&self, j: i64, h: f64) -> Result<f64> {
        if !(h > 0.0) || !h.is_finite() {
            return Err(NetError::InvalidArgument(format!(
                "state slot length must be positive, got {h}"
            )));
        }
        if self.cyclic {
            // Wrap the window start into [0, duration).
            let d = self.duration();
            let start = (j as f64 * h).rem_euclid(d);
            return self.average_bandwidth(start, start + h);
        }
        let max_j = ((self.duration() / h).ceil() as i64 - 1).max(0);
        let jc = j.clamp(0, max_j);
        let start = jc as f64 * h;
        let end = (start + h).min(self.duration());
        self.average_bandwidth(start, end)
    }

    /// The DRL state window for one device: slot-averages
    /// `[B(⌊t/h⌋), B(⌊t/h⌋ - 1), ..., B(⌊t/h⌋ - H)]` (length `H + 1`),
    /// newest first, exactly as defined in Section IV-B1 of the paper.
    pub fn history(&self, t: f64, h: f64, history_len: usize) -> Result<Vec<f64>> {
        let j0 = (t / h).floor() as i64;
        let mut out = Vec::with_capacity(history_len + 1);
        for back in 0..=history_len as i64 {
            out.push(self.state_slot_average(j0 - back, h)?);
        }
        Ok(out)
    }

    /// Re-buckets the trace into slots of `new_slot` seconds, averaging the
    /// original slots that fall into each new bucket (exactly, via the
    /// integral). The last bucket may cover less source data and averages
    /// what exists. Used to align external CSV traces with a simulation's
    /// slot grid.
    #[cfg(test)]
    pub fn resample(&self, new_slot: f64) -> Result<BandwidthTrace> {
        if !(new_slot > 0.0) || !new_slot.is_finite() {
            return Err(NetError::InvalidArgument(format!(
                "new slot duration must be positive, got {new_slot}"
            )));
        }
        let duration = self.duration();
        let n = (duration / new_slot).ceil() as usize;
        if n == 0 {
            return Err(NetError::InvalidArgument(
                "resample would produce an empty trace".to_string(),
            ));
        }
        let mut slots = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i as f64 * new_slot;
            let hi = ((i + 1) as f64 * new_slot).min(duration);
            slots.push(self.integrate(lo, hi)? / (hi - lo));
        }
        let mut out = BandwidthTrace::new(new_slot, slots)?;
        out.cyclic = self.cyclic;
        Ok(out)
    }

    /// Extracts the sub-trace covering `[t0, t1)`, snapped outward to slot
    /// boundaries. The result is non-cyclic.
    #[cfg(test)]
    pub fn slice(&self, t0: f64, t1: f64) -> Result<BandwidthTrace> {
        if !(t0 >= 0.0) || t1 <= t0 || t1 > self.duration() + 1e-9 {
            return Err(NetError::InvalidArgument(format!(
                "bad slice [{t0}, {t1}) for duration {}",
                self.duration()
            )));
        }
        let first = (t0 / self.slot_duration).floor() as usize;
        let last = ((t1 / self.slot_duration).ceil() as usize).min(self.slots.len());
        BandwidthTrace::new(self.slot_duration, self.slots[first..last].to_vec())
    }

    /// Appends another trace (same slot duration) after this one. The
    /// result inherits this trace's cyclic flag.
    #[cfg(test)]
    pub fn concat(&self, other: &BandwidthTrace) -> Result<BandwidthTrace> {
        if (self.slot_duration - other.slot_duration).abs() > 1e-12 {
            return Err(NetError::InvalidArgument(format!(
                "slot durations differ: {} vs {}",
                self.slot_duration, other.slot_duration
            )));
        }
        let mut slots = self.slots.clone();
        slots.extend_from_slice(&other.slots);
        let mut out = BandwidthTrace::new(self.slot_duration, slots)?;
        out.cyclic = self.cyclic;
        Ok(out)
    }

    /// Returns the trace scaled by a constant factor (e.g. unit changes).
    #[cfg(test)]
    pub fn scaled(&self, factor: f64) -> Result<BandwidthTrace> {
        if !(factor > 0.0) || !factor.is_finite() {
            return Err(NetError::InvalidArgument(format!(
                "scale factor must be positive, got {factor}"
            )));
        }
        let mut out = BandwidthTrace::new(
            self.slot_duration,
            self.slots.iter().map(|b| b * factor).collect(),
        )?;
        out.cyclic = self.cyclic;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn trace(slots: Vec<f64>) -> BandwidthTrace {
        BandwidthTrace::new(1.0, slots).unwrap()
    }

    #[test]
    fn constructor_validation() {
        assert!(BandwidthTrace::new(0.0, vec![1.0]).is_err());
        assert!(BandwidthTrace::new(-1.0, vec![1.0]).is_err());
        assert!(BandwidthTrace::new(1.0, vec![]).is_err());
        assert!(BandwidthTrace::new(1.0, vec![-0.5]).is_err());
        assert!(BandwidthTrace::new(1.0, vec![f64::NAN]).is_err());
        assert!(BandwidthTrace::new(1.0, vec![0.0, 2.0]).is_ok());
    }

    #[test]
    fn basic_accessors() {
        let t = trace(vec![1.0, 3.0, 2.0]);
        assert_eq!(t.num_slots(), 3);
        assert_eq!(t.duration(), 3.0);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert!(!t.is_cyclic());
        assert!(t.clone().cyclic().is_cyclic());
    }

    #[test]
    fn bandwidth_at_slots() {
        let t = trace(vec![1.0, 3.0, 2.0]);
        assert_eq!(t.bandwidth_at(0.0).unwrap(), 1.0);
        assert_eq!(t.bandwidth_at(0.99).unwrap(), 1.0);
        assert_eq!(t.bandwidth_at(1.0).unwrap(), 3.0);
        assert_eq!(t.bandwidth_at(2.5).unwrap(), 2.0);
        assert!(t.bandwidth_at(3.0).is_err());
        assert!(t.bandwidth_at(-0.1).is_err());
    }

    #[test]
    fn cyclic_wraps() {
        let t = trace(vec![1.0, 3.0]).cyclic();
        assert_eq!(t.bandwidth_at(2.0).unwrap(), 1.0);
        assert_eq!(t.bandwidth_at(5.5).unwrap(), 3.0);
    }

    #[test]
    fn integrate_whole_and_partial_slots() {
        let t = trace(vec![1.0, 3.0, 2.0]);
        assert!((t.integrate(0.0, 3.0).unwrap() - 6.0).abs() < 1e-12);
        assert!((t.integrate(0.5, 1.5).unwrap() - (0.5 + 1.5)).abs() < 1e-12);
        assert!((t.integrate(1.25, 1.75).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(t.integrate(1.0, 1.0).unwrap(), 0.0);
        assert!(t.integrate(0.0, 3.5).is_err());
        assert!(t.integrate(2.0, 1.0).is_err());
    }

    #[test]
    fn integrate_cyclic_spans_cycles() {
        let t = trace(vec![1.0, 3.0]).cyclic();
        // Four full 2-second cycles of 4 MB each.
        assert!((t.integrate(0.0, 8.0).unwrap() - 16.0).abs() < 1e-12);
        // Window straddling the wrap: [1.5, 2.5) = 0.5*3 + 0.5*1.
        assert!((t.integrate(1.5, 2.5).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn average_bandwidth_eq3() {
        let t = trace(vec![2.0, 4.0]);
        assert!((t.average_bandwidth(0.0, 2.0).unwrap() - 3.0).abs() < 1e-12);
        // Near-empty interval degrades to instantaneous bandwidth.
        assert!((t.average_bandwidth(0.5, 0.5).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_single_slot() {
        let t = trace(vec![2.0, 2.0, 2.0]);
        // 1 MB at 2 MB/s = 0.5 s.
        assert!((t.transfer_time(0.0, 1.0).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(t.transfer_time(0.0, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn transfer_time_across_slots_and_zero_gaps() {
        // 1 MB/s for 1s, dead air for 1s, then 4 MB/s.
        let t = trace(vec![1.0, 0.0, 4.0]);
        // 2 MB: 1 MB in slot 0 (1s), wait slot 1 (1s), 1 MB at 4 MB/s (0.25s).
        assert!((t.transfer_time(0.0, 2.0).unwrap() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_stalls_on_finite_trace() {
        let t = trace(vec![1.0]);
        let err = t.transfer_time(0.0, 5.0).unwrap_err();
        match err {
            NetError::TransferStalled { remaining_mb } => {
                assert!((remaining_mb - 4.0).abs() < 1e-12)
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn transfer_time_cyclic_loops() {
        let t = trace(vec![1.0, 0.0]).cyclic();
        // 3 MB at 0.5 MB/s effective: slot pattern 1,0 → finish inside the
        // 5th active second: 1MB@[0,1), 1MB@[2,3), 1MB@[4,5) → 5 s.
        assert!((t.transfer_time(0.0, 3.0).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_cyclic_all_zero_stalls() {
        let t = trace(vec![0.0, 0.0]).cyclic();
        assert!(matches!(
            t.transfer_time(0.0, 1.0),
            Err(NetError::TransferStalled { .. })
        ));
    }

    #[test]
    fn transfer_time_nonzero_start() {
        let t = trace(vec![1.0, 2.0, 4.0]);
        // Start at 1.5: 0.5s * 2 = 1MB, then 1MB at 4MB/s = 0.25s → 0.75s.
        assert!((t.transfer_time(1.5, 2.0).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn transfer_rejects_bad_args() {
        let t = trace(vec![1.0]);
        assert!(t.transfer_time(0.0, -1.0).is_err());
        assert!(t.transfer_time(-1.0, 1.0).is_err());
        assert!(t.transfer_time(2.0, 1.0).is_err());
        assert!(t.transfer_time(0.0, f64::NAN).is_err());
    }

    /// `transfer_time` as it was before the cycle capacity was cached:
    /// identical walk, but `Σ slots` re-summed on every call.
    fn transfer_time_resumming(t: &BandwidthTrace, t0: f64, mb: f64) -> Result<f64> {
        if !mb.is_finite() || mb < 0.0 || !t0.is_finite() || t0 < 0.0 {
            return Err(NetError::InvalidArgument("bad args".to_string()));
        }
        if mb == 0.0 {
            return Ok(0.0);
        }
        let n = t.num_slots() as i64;
        if !t.is_cyclic() && t0 >= t.duration() {
            return Err(NetError::OutOfRange {
                requested: t0,
                duration: t.duration(),
            });
        }
        let sd = t.slot_duration();
        let cycle_mb: f64 = t.slots().iter().sum::<f64>() * sd;
        if t.is_cyclic() && cycle_mb <= 0.0 {
            return Err(NetError::TransferStalled { remaining_mb: mb });
        }
        let max_slots = if t.is_cyclic() {
            ((mb / cycle_mb).ceil() as i64 + 2).saturating_mul(n)
        } else {
            n
        };
        let (mut remaining, mut at, mut idx, mut steps) = (mb, t0, (t0 / sd).floor() as i64, 0i64);
        loop {
            if (!t.is_cyclic() && idx >= n) || steps > max_slots {
                return Err(NetError::TransferStalled {
                    remaining_mb: remaining,
                });
            }
            let b = t.slot_bw(idx);
            let slot_end = (idx + 1) as f64 * sd;
            let cap = b * (slot_end - at);
            if b > 0.0 && cap >= remaining {
                return Ok(at + remaining / b - t0);
            }
            remaining -= cap;
            at = slot_end;
            idx += 1;
            steps += 1;
        }
    }

    fn assert_transfer_matches_reference(t: &BandwidthTrace, t0: f64, mb: f64) {
        let got = t.transfer_time(t0, mb);
        let want = transfer_time_resumming(t, t0, mb);
        match (&got, &want) {
            (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "t0={t0} mb={mb}"),
            (
                Err(NetError::TransferStalled { remaining_mb: a }),
                Err(NetError::TransferStalled { remaining_mb: b }),
            ) => assert_eq!(a.to_bits(), b.to_bits(), "t0={t0} mb={mb}"),
            (Err(NetError::OutOfRange { .. }), Err(NetError::OutOfRange { .. })) => {}
            other => panic!("t0={t0} mb={mb}: {other:?}"),
        }
    }

    #[test]
    fn transfer_time_matches_resumming_reference_bitwise() {
        let slots = vec![0.3, 0.0, 1.7, 2.9, 0.0, 0.0, 0.45, 3.3, 1.1];
        let finite = BandwidthTrace::new(0.7, slots.clone()).unwrap();
        let cyclic = finite.clone().cyclic();
        let cycle_mb = finite.slot_sum * 0.7;
        for &t0 in &[0.0, 0.35, 1.4, 3.05, 5.6, 6.29] {
            for &mb in &[1e-6, 0.2, 1.0, 2.5, cycle_mb - 0.01, 4.0] {
                assert_transfer_matches_reference(&finite, t0, mb);
                assert_transfer_matches_reference(&cyclic, t0, mb);
            }
            // Cyclic only: several whole cycles, crossing the wrap each time.
            for &mb in &[cycle_mb, 2.0 * cycle_mb + 0.3, 7.5 * cycle_mb] {
                assert_transfer_matches_reference(&cyclic, t0, mb);
                assert_transfer_matches_reference(&cyclic, t0 + 17.3, mb);
            }
        }
        // Zero capacity: a cyclic trace stalls up front, with the whole
        // transfer remaining.
        let dead = BandwidthTrace::new(2.0, vec![0.0; 5]).unwrap().cyclic();
        assert_eq!(
            dead.transfer_time(3.0, 1.5),
            Err(NetError::TransferStalled { remaining_mb: 1.5 })
        );
        assert_transfer_matches_reference(&dead, 3.0, 1.5);
    }

    #[test]
    fn history_matches_paper_layout() {
        // Trace slots of 1s; state slots h=2s: averages [ (s0+s1)/2, ... ].
        let t = trace(vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
        // t = 5.0 → j0 = 2 → windows [4,6), [2,4), [0,2) = 10, 6, 2.
        let h = t.history(5.0, 2.0, 2).unwrap();
        assert_eq!(h.len(), 3);
        assert!((h[0] - 10.0).abs() < 1e-12);
        assert!((h[1] - 6.0).abs() < 1e-12);
        assert!((h[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn history_clamps_before_start() {
        let t = trace(vec![2.0, 4.0]);
        // j0 = 0; windows going back clamp to window 0.
        let h = t.history(0.5, 1.0, 3).unwrap();
        assert_eq!(h, vec![2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn history_cyclic_wraps_backwards() {
        let t = trace(vec![2.0, 4.0]).cyclic();
        let h = t.history(0.5, 1.0, 1).unwrap();
        // j0=0 → B(0)=2; j=-1 wraps to slot 1 → 4.
        assert_eq!(h, vec![2.0, 4.0]);
    }

    #[test]
    fn state_slot_rejects_bad_h() {
        let t = trace(vec![1.0]);
        assert!(t.state_slot_average(0, 0.0).is_err());
        assert!(t.history(0.0, -1.0, 1).is_err());
    }

    #[test]
    fn resample_coarser_averages() {
        let t = trace(vec![1.0, 3.0, 5.0, 7.0]);
        let r = t.resample(2.0).unwrap();
        assert_eq!(r.num_slots(), 2);
        assert!((r.slots()[0] - 2.0).abs() < 1e-12);
        assert!((r.slots()[1] - 6.0).abs() < 1e-12);
        // Total volume preserved.
        assert!((r.integrate(0.0, 4.0).unwrap() - t.integrate(0.0, 4.0).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn resample_finer_replicates() {
        let t = trace(vec![2.0, 4.0]);
        let r = t.resample(0.5).unwrap();
        assert_eq!(r.num_slots(), 4);
        assert_eq!(r.slots(), &[2.0, 2.0, 4.0, 4.0]);
    }

    #[test]
    fn resample_partial_tail_and_flags() {
        let t = trace(vec![1.0, 2.0, 3.0]).cyclic();
        let r = t.resample(2.0).unwrap();
        // Buckets: [0,2) avg 1.5; [2,3) avg 3 (partial tail).
        assert_eq!(r.num_slots(), 2);
        assert!((r.slots()[1] - 3.0).abs() < 1e-12);
        assert!(r.is_cyclic());
        assert!(t.resample(0.0).is_err());
    }

    #[test]
    fn slice_snaps_to_slots() {
        let t = trace(vec![1.0, 2.0, 3.0, 4.0]);
        let s = t.slice(1.2, 2.8).unwrap();
        assert_eq!(s.slots(), &[2.0, 3.0]);
        assert!(!s.is_cyclic());
        assert!(t.slice(3.0, 5.0).is_err());
        assert!(t.slice(2.0, 2.0).is_err());
    }

    #[test]
    fn concat_and_scale() {
        let a = trace(vec![1.0, 2.0]).cyclic();
        let b = trace(vec![3.0]);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.slots(), &[1.0, 2.0, 3.0]);
        assert!(c.is_cyclic());
        let mismatched = BandwidthTrace::new(2.0, vec![1.0]).unwrap();
        assert!(a.concat(&mismatched).is_err());

        let s = a.scaled(2.0).unwrap();
        assert_eq!(s.slots(), &[2.0, 4.0]);
        assert!(s.is_cyclic());
        assert!(a.scaled(0.0).is_err());
    }

    proptest! {
        /// Integration is additive: ∫[a,c) = ∫[a,b) + ∫[b,c).
        #[test]
        fn prop_integral_additive(
            a in 0.0f64..5.0,
            d1 in 0.0f64..2.0,
            d2 in 0.0f64..2.0,
        ) {
            let t = trace(vec![1.0, 0.5, 3.0, 0.0, 2.0, 4.0, 1.5, 2.5, 0.25, 5.0]);
            let b = a + d1;
            let c = b + d2;
            let whole = t.integrate(a, c).unwrap();
            let parts = t.integrate(a, b).unwrap() + t.integrate(b, c).unwrap();
            prop_assert!((whole - parts).abs() < 1e-9);
        }

        /// transfer_time is consistent with integrate: the MB transferable in
        /// the returned window equals the requested amount.
        #[test]
        fn prop_transfer_consistent_with_integral(
            t0 in 0.0f64..3.0,
            mb in 0.01f64..10.0,
        ) {
            let t = trace(vec![1.0, 0.5, 3.0, 2.0, 4.0, 1.5]).cyclic();
            let dt = t.transfer_time(t0, mb).unwrap();
            let moved = t.integrate(t0, t0 + dt).unwrap();
            prop_assert!((moved - mb).abs() < 1e-6, "moved={moved}, mb={mb}");
        }

        /// Larger transfers never finish sooner.
        #[test]
        fn prop_transfer_monotone(mb1 in 0.1f64..5.0, mb2 in 0.1f64..5.0) {
            let t = trace(vec![2.0, 1.0, 0.0, 3.0]).cyclic();
            let (lo, hi) = if mb1 < mb2 { (mb1, mb2) } else { (mb2, mb1) };
            let t_lo = t.transfer_time(0.0, lo).unwrap();
            let t_hi = t.transfer_time(0.0, hi).unwrap();
            prop_assert!(t_lo <= t_hi + 1e-12);
        }

        /// Average bandwidth is always within [min, max] of the trace.
        #[test]
        fn prop_average_bounded(a in 0.0f64..6.0, d in 0.01f64..6.0) {
            let t = trace(vec![1.0, 0.5, 3.0, 2.0, 4.0, 1.5]).cyclic();
            let avg = t.average_bandwidth(a, a + d).unwrap();
            prop_assert!(avg >= t.min() - 1e-12 && avg <= t.max() + 1e-12);
        }
    }
}
