//! Descriptive statistics used by the trace generators and figure harness.

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (0.0 for slices shorter than 2).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample autocorrelation at the given lag, in `[-1, 1]`.
/// Returns 0.0 when the series is too short or constant.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom <= 0.0 {
        return 0.0;
    }
    let numer: f64 = xs[..xs.len() - lag]
        .iter()
        .zip(&xs[lag..])
        .map(|(a, b)| (a - m) * (b - m))
        .sum();
    numer / denom
}

/// Percentile via linear interpolation on the sorted data, `q` in `[0, 100]`.
/// Returns `None` for an empty slice, a slice holding a NaN, or an
/// out-of-range `q`.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    // No NaN is left, so `partial_cmp` is total here; it keeps the order
    // (and the sign of a zero result) the sort has always produced.
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// An empirical cumulative distribution function.
///
/// Built once from a sample; evaluating at `x` returns the fraction of
/// samples `<= x`. This is what the Fig. 7(d–f) CDF panels plot.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the CDF from a sample. NaN values are dropped.
    pub fn new(xs: &[f64]) -> Self {
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        EmpiricalCdf { sorted }
    }

    /// Number of retained samples.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were retained.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)` under the empirical distribution.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// `(x, P(X <= x))` pairs at `n` evenly spaced x-values spanning the
    /// sample range — ready to print as a plot series.
    pub fn series(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        if n == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// Five-number-style summary of a sample, used in the figure printouts.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample; returns `None` when empty or when a sample is
    /// NaN.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        Some(Summary {
            count: xs.len(),
            mean: mean(xs),
            std: std_dev(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            median: percentile(xs, 50.0)?,
            p90: percentile(xs, 90.0)?,
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_variance_known() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
        assert_eq!(percentile(&[], 50.0), None);
        assert!(EmpiricalCdf::new(&[]).is_empty());
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        assert_eq!(autocorrelation(&[2.0; 10], 1), 0.0);
    }

    #[test]
    fn autocorrelation_alternating_is_negative() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(3.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.0));
        assert_eq!(percentile(&xs, 101.0), None);
    }

    #[test]
    fn nan_sample_has_no_percentile_or_summary() {
        assert_eq!(percentile(&[f64::NAN, 1.0], 50.0), None);
        assert_eq!(percentile(&[1.0, 2.0, f64::NAN], 0.0), None);
        assert_eq!(Summary::of(&[f64::NAN, 1.0]), None);
    }

    #[test]
    fn cdf_eval_basics() {
        let cdf = EmpiricalCdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.5), 0.5);
        assert_eq!(cdf.eval(10.0), 1.0);
    }

    #[test]
    fn cdf_drops_nan() {
        let cdf = EmpiricalCdf::new(&[1.0, f64::NAN, 3.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_series_spans_range() {
        let cdf = EmpiricalCdf::new(&[0.0, 10.0]);
        let s = cdf.series(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[10], (10.0, 1.0));
        let constant = EmpiricalCdf::new(&[5.0, 5.0]);
        assert_eq!(constant.series(4), vec![(5.0, 1.0)]);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert!(s.p90 > 4.0);
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(mut xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
            let cdf = EmpiricalCdf::new(&xs);
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = 0.0;
            for i in 0..20 {
                let x = -110.0 + i as f64 * 11.0;
                let v = cdf.eval(x);
                prop_assert!(v >= prev);
                prop_assert!((0.0..=1.0).contains(&v));
                prev = v;
            }
        }

        #[test]
        fn prop_percentile_within_range(xs in proptest::collection::vec(-10.0f64..10.0, 1..40), q in 0.0f64..100.0) {
            let p = percentile(&xs, q).unwrap();
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }

        #[test]
        fn prop_mean_shift_invariance(xs in proptest::collection::vec(-5.0f64..5.0, 2..30), c in -3.0f64..3.0) {
            let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
            prop_assert!((mean(&shifted) - mean(&xs) - c).abs() < 1e-9);
            prop_assert!((variance(&shifted) - variance(&xs)).abs() < 1e-9);
        }
    }
}
