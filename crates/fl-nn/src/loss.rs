//! Loss functions returning `(scalar_loss, dloss/dpred)` pairs.

use crate::{Matrix, NnError, Result};

/// Mean squared error over all elements: `L = mean((pred - target)^2)`.
///
/// Returns the loss and its gradient with respect to `pred`
/// (`2 (pred - target) / n`), ready to feed to [`crate::Mlp::backward`].
pub fn mse(pred: &Matrix, target: &Matrix) -> Result<(f64, Matrix)> {
    if pred.shape() != target.shape() {
        return Err(NnError::ShapeMismatch {
            op: "mse",
            lhs: pred.shape(),
            rhs: target.shape(),
        });
    }
    let n = pred.data().len().max(1) as f64;
    let diff = pred.sub(target)?;
    let loss = diff.data().iter().map(|d| d * d).sum::<f64>() / n;
    let grad = diff.scale(2.0 / n);
    Ok((loss, grad))
}

/// Huber (smooth-L1) loss with threshold `delta`, averaged over elements.
/// Robust alternative used for the critic in ablations.
#[cfg(test)]
pub fn huber(pred: &Matrix, target: &Matrix, delta: f64) -> Result<(f64, Matrix)> {
    if pred.shape() != target.shape() {
        return Err(NnError::ShapeMismatch {
            op: "huber",
            lhs: pred.shape(),
            rhs: target.shape(),
        });
    }
    if !(delta > 0.0) {
        return Err(NnError::InvalidArgument(
            "huber delta must be positive".to_string(),
        ));
    }
    let n = pred.data().len().max(1) as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    for (i, (&p, &t)) in pred.data().iter().zip(target.data()).enumerate() {
        let d = p - t;
        if d.abs() <= delta {
            loss += 0.5 * d * d;
            grad.data_mut()[i] = d / n;
        } else {
            loss += delta * (d.abs() - 0.5 * delta);
            grad.data_mut()[i] = delta * d.signum() / n;
        }
    }
    Ok((loss / n, grad))
}

/// Binary cross-entropy on sigmoid-activated predictions in `(0, 1)`.
/// `L = -mean(t ln p + (1-t) ln (1-p))`. Used by the FedAvg logistic models.
pub fn binary_cross_entropy(pred: &Matrix, target: &Matrix) -> Result<(f64, Matrix)> {
    if pred.shape() != target.shape() {
        return Err(NnError::ShapeMismatch {
            op: "binary_cross_entropy",
            lhs: pred.shape(),
            rhs: target.shape(),
        });
    }
    const EPS: f64 = 1e-12;
    let n = pred.data().len().max(1) as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    for (i, (&p, &t)) in pred.data().iter().zip(target.data()).enumerate() {
        let p = p.clamp(EPS, 1.0 - EPS);
        loss -= t * p.ln() + (1.0 - t) * (1.0 - p).ln();
        grad.data_mut()[i] = ((p - t) / (p * (1.0 - p))) / n;
    }
    Ok((loss / n, grad))
}

/// Row-wise softmax (numerically stable via max subtraction).
#[cfg(test)]
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Softmax cross-entropy on raw logits against one-hot targets, averaged
/// over rows: `L = -mean_rows( Σ_c y_c ln softmax(z)_c )`.
///
/// Returns the loss and its gradient with respect to the *logits* —
/// `(softmax(z) − y) / n_rows` — so a multi-class head is just a linear
/// output layer plus this loss. Used by the multi-class FedAvg tasks.
#[cfg(test)]
pub fn softmax_cross_entropy(logits: &Matrix, one_hot: &Matrix) -> Result<(f64, Matrix)> {
    if logits.shape() != one_hot.shape() {
        return Err(NnError::ShapeMismatch {
            op: "softmax_cross_entropy",
            lhs: logits.shape(),
            rhs: one_hot.shape(),
        });
    }
    if logits.cols() < 2 {
        return Err(NnError::InvalidArgument(
            "softmax cross-entropy needs at least two classes".to_string(),
        ));
    }
    const EPS: f64 = 1e-12;
    let n = logits.rows().max(1) as f64;
    let probs = softmax_rows(logits);
    let mut loss = 0.0;
    for (p, y) in probs.data().iter().zip(one_hot.data()) {
        if *y > 0.0 {
            loss -= y * (p + EPS).ln();
        }
    }
    let mut grad = probs;
    for (g, y) in grad.data_mut().iter_mut().zip(one_hot.data()) {
        *g = (*g - y) / n;
    }
    Ok((loss / n, grad))
}

/// Builds a one-hot matrix from class indices (`labels[i] < num_classes`).
#[cfg(test)]
pub fn one_hot(labels: &[usize], num_classes: usize) -> Result<Matrix> {
    if num_classes == 0 {
        return Err(NnError::InvalidArgument(
            "num_classes must be nonzero".to_string(),
        ));
    }
    let mut out = Matrix::zeros(labels.len(), num_classes);
    for (i, &c) in labels.iter().enumerate() {
        if c >= num_classes {
            return Err(NnError::InvalidArgument(format!(
                "label {c} out of range for {num_classes} classes"
            )));
        }
        out.set(i, c, 1.0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mse_zero_for_equal() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let (l, g) = mse(&a, &a).unwrap();
        assert_eq!(l, 0.0);
        assert!(g.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_vec(1, 2, vec![1.0, 3.0]).unwrap();
        let t = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let (l, g) = mse(&p, &t).unwrap();
        assert!((l - 2.5).abs() < 1e-12); // (1 + 4) / 2
        assert!((g.data()[0] - 1.0).abs() < 1e-12); // 2*1/2
        assert!((g.data()[1] - 2.0).abs() < 1e-12); // 2*2/2
    }

    #[test]
    fn mse_shape_mismatch() {
        let p = Matrix::zeros(1, 2);
        let t = Matrix::zeros(2, 1);
        assert!(mse(&p, &t).is_err());
    }

    #[test]
    fn huber_quadratic_inside_linear_outside() {
        let p = Matrix::from_vec(1, 2, vec![0.5, 10.0]).unwrap();
        let t = Matrix::zeros(1, 2);
        let (l, g) = huber(&p, &t, 1.0).unwrap();
        // element 0: 0.5*0.25 = 0.125 ; element 1: 1*(10-0.5)=9.5 ; mean => 4.8125
        assert!((l - 4.8125).abs() < 1e-12);
        assert!((g.data()[0] - 0.25).abs() < 1e-12); // d/n = 0.5/2
        assert!((g.data()[1] - 0.5).abs() < 1e-12); // delta*sign/n = 1/2
    }

    #[test]
    fn huber_rejects_nonpositive_delta() {
        let p = Matrix::zeros(1, 1);
        assert!(huber(&p, &p, 0.0).is_err());
        assert!(huber(&p, &p, -1.0).is_err());
    }

    #[test]
    fn bce_perfect_prediction_near_zero() {
        let p = Matrix::from_vec(1, 2, vec![0.999999, 0.000001]).unwrap();
        let t = Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
        let (l, _) = binary_cross_entropy(&p, &t).unwrap();
        assert!(l < 1e-4);
    }

    #[test]
    fn bce_clamps_extremes() {
        let p = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let t = Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
        let (l, g) = binary_cross_entropy(&p, &t).unwrap();
        assert!(l.is_finite());
        assert!(g.all_finite());
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]).unwrap();
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
        // Largest logit gets the largest probability.
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn softmax_rows_stable_for_huge_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, 999.0]).unwrap();
        let p = softmax_rows(&logits);
        assert!(p.all_finite());
        assert!((p.get(0, 0) + p.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_ce_perfect_prediction() {
        let logits = Matrix::from_vec(1, 3, vec![20.0, 0.0, 0.0]).unwrap();
        let y = one_hot(&[0], 3).unwrap();
        let (l, _) = softmax_cross_entropy(&logits, &y).unwrap();
        assert!(l < 1e-6);
    }

    #[test]
    fn softmax_ce_validation() {
        let logits = Matrix::zeros(2, 3);
        assert!(softmax_cross_entropy(&logits, &Matrix::zeros(3, 3)).is_err());
        let single = Matrix::zeros(2, 1);
        assert!(softmax_cross_entropy(&single, &single).is_err());
    }

    #[test]
    fn one_hot_layout_and_validation() {
        let oh = one_hot(&[2, 0], 3).unwrap();
        assert_eq!(oh.data(), &[0., 0., 1., 1., 0., 0.]);
        assert!(one_hot(&[3], 3).is_err());
        assert!(one_hot(&[0], 0).is_err());
    }

    proptest! {
        /// Softmax-CE gradient matches finite differences.
        #[test]
        fn prop_softmax_ce_grad_fd(
            z0 in -3.0f64..3.0,
            z1 in -3.0f64..3.0,
            z2 in -3.0f64..3.0,
            label in 0usize..3,
        ) {
            let y = one_hot(&[label], 3).unwrap();
            let z = Matrix::from_vec(1, 3, vec![z0, z1, z2]).unwrap();
            let (_, g) = softmax_cross_entropy(&z, &y).unwrap();
            let eps = 1e-6;
            for i in 0..3 {
                let mut plus = z.clone();
                plus.data_mut()[i] += eps;
                let mut minus = z.clone();
                minus.data_mut()[i] -= eps;
                let fd = (softmax_cross_entropy(&plus, &y).unwrap().0
                    - softmax_cross_entropy(&minus, &y).unwrap().0)
                    / (2.0 * eps);
                prop_assert!((fd - g.data()[i]).abs() < 1e-5);
            }
        }

        /// MSE gradient matches finite differences.
        #[test]
        fn prop_mse_grad_fd(p0 in -3.0f64..3.0, p1 in -3.0f64..3.0) {
            let t = Matrix::from_vec(1, 2, vec![0.3, -0.7]).unwrap();
            let eps = 1e-6;
            let p = Matrix::from_vec(1, 2, vec![p0, p1]).unwrap();
            let (_, g) = mse(&p, &t).unwrap();
            for i in 0..2 {
                let mut plus = p.clone();
                plus.data_mut()[i] += eps;
                let mut minus = p.clone();
                minus.data_mut()[i] -= eps;
                let fd = (mse(&plus, &t).unwrap().0 - mse(&minus, &t).unwrap().0) / (2.0 * eps);
                prop_assert!((fd - g.data()[i]).abs() < 1e-5);
            }
        }

        /// Huber gradient matches finite differences away from the kink.
        #[test]
        fn prop_huber_grad_fd(p0 in -3.0f64..3.0) {
            let t = Matrix::from_vec(1, 1, vec![0.0]).unwrap();
            let delta = 1.0;
            prop_assume!((p0.abs() - delta).abs() > 1e-3);
            let eps = 1e-6;
            let p = Matrix::from_vec(1, 1, vec![p0]).unwrap();
            let (_, g) = huber(&p, &t, delta).unwrap();
            let mut plus = p.clone();
            plus.data_mut()[0] += eps;
            let mut minus = p.clone();
            minus.data_mut()[0] -= eps;
            let fd = (huber(&plus, &t, delta).unwrap().0 - huber(&minus, &t, delta).unwrap().0)
                / (2.0 * eps);
            prop_assert!((fd - g.data()[0]).abs() < 1e-5);
        }

        /// BCE gradient matches finite differences in the open interval.
        #[test]
        fn prop_bce_grad_fd(p0 in 0.05f64..0.95, t0 in 0.0f64..1.0) {
            let eps = 1e-6;
            let t = Matrix::from_vec(1, 1, vec![t0]).unwrap();
            let p = Matrix::from_vec(1, 1, vec![p0]).unwrap();
            let (_, g) = binary_cross_entropy(&p, &t).unwrap();
            let mut plus = p.clone();
            plus.data_mut()[0] += eps;
            let mut minus = p.clone();
            minus.data_mut()[0] -= eps;
            let fd = (binary_cross_entropy(&plus, &t).unwrap().0
                - binary_cross_entropy(&minus, &t).unwrap().0)
                / (2.0 * eps);
            prop_assert!((fd - g.data()[0]).abs() < 1e-4);
        }
    }
}
