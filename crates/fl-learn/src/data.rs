//! Synthetic classification datasets and non-IID federated splits.

use crate::{LearnError, Result};
use fl_nn::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labeled binary-classification dataset: features `x` (`n x dim`) and
/// labels `y` (`n x 1`, values in `{0.0, 1.0}`).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledData {
    /// Feature matrix, one sample per row.
    pub x: Matrix,
    /// Label column.
    pub y: Matrix,
}

impl LabeledData {
    /// Builds a dataset, validating the shapes agree.
    pub fn new(x: Matrix, y: Matrix) -> Result<Self> {
        if y.cols() != 1 || x.rows() != y.rows() {
            return Err(LearnError::InvalidArgument(format!(
                "x is {:?} but y is {:?} (need n x d and n x 1)",
                x.shape(),
                y.shape()
            )));
        }
        Ok(LabeledData { x, y })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of positive labels.
    pub fn positive_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.y.data().iter().sum::<f64>() / self.len() as f64
    }

    /// Gathers the given sample indices into a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Result<LabeledData> {
        let x = self.x.gather_rows(indices).map_err(LearnError::from)?;
        let y = self.y.gather_rows(indices).map_err(LearnError::from)?;
        LabeledData::new(x, y)
    }
}

/// Two Gaussian blobs in `dim` dimensions, centered at `±separation/2`
/// along every axis. Linearly separable for large `separation`; the
/// simplest workload a federated logistic model must solve.
pub fn gaussian_blobs(
    n: usize,
    dim: usize,
    separation: f64,
    rng: &mut impl Rng,
) -> Result<LabeledData> {
    if n == 0 || dim == 0 {
        return Err(LearnError::InvalidArgument(
            "n and dim must be nonzero".to_string(),
        ));
    }
    let half = separation / 2.0;
    let mut xd = Vec::with_capacity(n * dim);
    let mut yd = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 2;
        let center = if label == 1 { half } else { -half };
        for _ in 0..dim {
            xd.push(center + gaussian(rng));
        }
        yd.push(label as f64);
    }
    LabeledData::new(Matrix::from_vec(n, dim, xd)?, Matrix::from_vec(n, 1, yd)?)
}

/// Splits a dataset across `n_parts` devices with tunable label skew.
///
/// `skew = 0.0` shuffles uniformly (IID); `skew = 1.0` sorts by label so
/// each device sees (almost) a single class — the canonical pathological
/// federated distribution. Intermediate values mix the two index orders.
/// Shard sizes may differ by one sample.
pub fn split_non_iid(
    data: &LabeledData,
    n_parts: usize,
    skew: f64,
    rng: &mut impl Rng,
) -> Result<Vec<LabeledData>> {
    if n_parts == 0 || n_parts > data.len() {
        return Err(LearnError::InvalidArgument(format!(
            "cannot split {} samples into {} parts",
            data.len(),
            n_parts
        )));
    }
    if !(0.0..=1.0).contains(&skew) {
        return Err(LearnError::InvalidArgument(format!(
            "skew must be in [0, 1], got {skew}"
        )));
    }
    // Sorted-by-label order, with ties shuffled.
    let mut sorted: Vec<usize> = (0..data.len()).collect();
    sorted.shuffle(rng);
    sorted.sort_by(|&a, &b| {
        data.y
            .get(a, 0)
            .partial_cmp(&data.y.get(b, 0))
            .expect("labels are finite")
    });
    // IID order.
    let mut iid: Vec<usize> = (0..data.len()).collect();
    iid.shuffle(rng);
    // Each shard draws a `skew` fraction of its samples from the front of
    // the label-sorted stream (concentrating one class) and the rest from
    // the shuffled stream, skipping indices another shard already took.
    let base = data.len() / n_parts;
    let extra = data.len() % n_parts;
    let mut taken = vec![false; data.len()];
    let mut sorted_cursor = 0usize;
    let mut iid_cursor = 0usize;
    let mut out = Vec::with_capacity(n_parts);
    for p in 0..n_parts {
        let size = base + usize::from(p < extra);
        let from_sorted = (size as f64 * skew).round() as usize;
        let mut indices = Vec::with_capacity(size);
        while indices.len() < from_sorted && sorted_cursor < sorted.len() {
            let i = sorted[sorted_cursor];
            sorted_cursor += 1;
            if !taken[i] {
                taken[i] = true;
                indices.push(i);
            }
        }
        while indices.len() < size && iid_cursor < iid.len() {
            let i = iid[iid_cursor];
            iid_cursor += 1;
            if !taken[i] {
                taken[i] = true;
                indices.push(i);
            }
        }
        // If the IID stream ran dry (everything left was already taken via
        // the sorted stream), fall back to the sorted remainder.
        while indices.len() < size && sorted_cursor < sorted.len() {
            let i = sorted[sorted_cursor];
            sorted_cursor += 1;
            if !taken[i] {
                taken[i] = true;
                indices.push(i);
            }
        }
        out.push(data.subset(&indices)?);
    }
    Ok(out)
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn labeled_data_validation() {
        let x = Matrix::zeros(3, 2);
        let bad_y = Matrix::zeros(2, 1);
        assert!(LabeledData::new(x.clone(), bad_y).is_err());
        let wide_y = Matrix::zeros(3, 2);
        assert!(LabeledData::new(x.clone(), wide_y).is_err());
        let y = Matrix::zeros(3, 1);
        let d = LabeledData::new(x, y).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.x.cols(), 2);
    }

    #[test]
    fn blobs_balanced_and_separated() {
        let d = gaussian_blobs(400, 3, 6.0, &mut rng(0)).unwrap();
        assert_eq!(d.len(), 400);
        assert!((d.positive_fraction() - 0.5).abs() < 0.01);
        // Class-conditional means are far apart.
        let mut pos_mean = 0.0;
        let mut neg_mean = 0.0;
        for i in 0..d.len() {
            let m: f64 = d.x.row(i).iter().sum::<f64>() / 3.0;
            if d.y.get(i, 0) > 0.5 {
                pos_mean += m;
            } else {
                neg_mean += m;
            }
        }
        assert!(pos_mean / 200.0 > 1.5);
        assert!(neg_mean / 200.0 < -1.5);
    }

    #[test]
    fn subset_and_shuffle() {
        let d = gaussian_blobs(10, 2, 4.0, &mut rng(2)).unwrap();
        let s = d.subset(&[0, 2, 4]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.x.row(1), d.x.row(2));
        // A subset over a shuffled index order is a shuffled copy.
        let mut idx: Vec<usize> = (0..d.len()).collect();
        idx.shuffle(&mut rng(3));
        let sh = d.subset(&idx).unwrap();
        assert_eq!(sh.len(), d.len());
        assert_ne!(sh.x, d.x); // overwhelmingly likely
    }

    #[test]
    fn iid_split_balanced_labels() {
        let d = gaussian_blobs(600, 2, 4.0, &mut rng(4)).unwrap();
        let parts = split_non_iid(&d, 3, 0.0, &mut rng(5)).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(LabeledData::len).sum::<usize>(), 600);
        for p in &parts {
            assert!((p.positive_fraction() - 0.5).abs() < 0.1);
        }
    }

    #[test]
    fn full_skew_split_separates_labels() {
        let d = gaussian_blobs(600, 2, 4.0, &mut rng(6)).unwrap();
        let parts = split_non_iid(&d, 2, 1.0, &mut rng(7)).unwrap();
        // One shard all-negative, the other all-positive.
        assert!(parts[0].positive_fraction() < 0.05);
        assert!(parts[1].positive_fraction() > 0.95);
    }

    #[test]
    fn partial_skew_between_extremes() {
        let d = gaussian_blobs(600, 2, 4.0, &mut rng(8)).unwrap();
        let parts = split_non_iid(&d, 2, 0.5, &mut rng(9)).unwrap();
        let f0 = parts[0].positive_fraction();
        assert!(f0 > 0.05 && f0 < 0.45, "fraction={f0}");
    }

    #[test]
    fn split_validation() {
        let d = gaussian_blobs(10, 2, 4.0, &mut rng(10)).unwrap();
        assert!(split_non_iid(&d, 0, 0.0, &mut rng(11)).is_err());
        assert!(split_non_iid(&d, 11, 0.0, &mut rng(11)).is_err());
        assert!(split_non_iid(&d, 2, 1.5, &mut rng(11)).is_err());
    }

    #[test]
    fn split_covers_every_sample_once() {
        let d = gaussian_blobs(101, 2, 4.0, &mut rng(12)).unwrap();
        let parts = split_non_iid(&d, 4, 0.5, &mut rng(13)).unwrap();
        let total: usize = parts.iter().map(LabeledData::len).sum();
        assert_eq!(total, 101);
        // Sizes differ by at most one.
        let sizes: Vec<usize> = parts.iter().map(LabeledData::len).collect();
        let (mn, mx) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(mx - mn <= 1);
    }
}
