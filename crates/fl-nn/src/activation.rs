//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// Pointwise activation applied after a dense layer's affine transform.
///
/// The derivative is evaluated from the value [`crate::Dense`] keeps from
/// its forward pass: the output `y = f(z)`, except for Softplus, which
/// keeps the pre-activation `z` (see [`Activation::derivative`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(z) = z` — used on output layers of regressors / policy means.
    Identity,
    /// Rectified linear unit, `max(0, z)`.
    Relu,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu,
    /// Hyperbolic tangent, the paper-standard hidden activation for PPO.
    /// Computed by the crate's host-independent [`crate::tanh`].
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^-z)`.
    Sigmoid,
    /// Softplus `ln(1 + e^z)`, a smooth positive mapping (used where a
    /// strictly positive output such as a standard deviation is required).
    Softplus,
}

const LEAKY_SLOPE: f64 = 0.01;

impl Activation {
    /// Applies the activation to a single pre-activation value.
    #[inline]
    pub fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Identity => z,
            Activation::Relu => z.max(0.0),
            Activation::LeakyRelu => {
                if z > 0.0 {
                    z
                } else {
                    LEAKY_SLOPE * z
                }
            }
            Activation::Tanh => crate::tanh(z),
            Activation::Sigmoid => sigmoid(z),
            Activation::Softplus => softplus(z),
        }
    }

    /// Applies the activation in place to every element. Bit-identical to
    /// mapping [`Activation::apply`]; tanh runs on the widest vector unit.
    pub(crate) fn apply_slice(self, zs: &mut [f64]) {
        match self {
            Activation::Identity => {}
            Activation::Tanh => crate::tanh_slice(zs),
            _ => {
                for z in zs {
                    *z = self.apply(*z);
                }
            }
        }
    }

    /// Whether [`Activation::derivative`] takes the output `y = f(z)`:
    /// true for every activation except Softplus, whose derivative `σ(z)`
    /// is not a function of `y` at the same bits.
    pub fn derivative_takes_output(self) -> bool {
        self != Activation::Softplus
    }

    /// The derivative `f'`, from the output `y = f(z)` — or from the
    /// pre-activation `z` for Softplus (see
    /// [`Activation::derivative_takes_output`]).
    ///
    /// Each output form gives the bits of the textbook form at `z`,
    /// because `y` is exactly the value that form recomputes: `1 − y²` is
    /// `1 − tanh(z)²`, `y(1 − y)` is `σ(z)(1 − σ(z))`, and `y > 0` holds
    /// exactly when `z > 0` for ReLU and leaky ReLU (NaN included: ReLU
    /// maps it to 0 and leaky ReLU keeps it NaN, both not `> 0`).
    #[inline]
    pub fn derivative(self, v: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if v > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if v > 0.0 {
                    1.0
                } else {
                    LEAKY_SLOPE
                }
            }
            Activation::Tanh => 1.0 - v * v,
            Activation::Sigmoid => v * (1.0 - v),
            Activation::Softplus => sigmoid(v),
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus: for large `z` returns `z` directly instead
/// of overflowing `e^z`.
#[inline]
pub fn softplus(z: f64) -> f64 {
    if z > 30.0 {
        z
    } else if z < -30.0 {
        z.exp()
    } else {
        z.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Softplus,
    ];

    #[test]
    fn known_values() {
        assert_eq!(Activation::Identity.apply(3.5), 3.5);
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-15);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-15);
        assert!((Activation::Softplus.apply(0.0) - 2.0f64.ln()).abs() < 1e-12);
        assert!((Activation::LeakyRelu.apply(-1.0) + 0.01).abs() < 1e-15);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn softplus_stable_at_extremes() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) >= 0.0);
        assert!(softplus(-100.0) < 1e-30);
    }

    proptest! {
        /// Finite-difference check of every activation derivative.
        #[test]
        fn prop_derivative_matches_finite_difference(
            z in -5.0f64..5.0,
        ) {
            let eps = 1e-6;
            for act in ALL {
                // Skip the kink of (leaky) relu where FD is ill-defined.
                if matches!(act, Activation::Relu | Activation::LeakyRelu) && z.abs() < 1e-3 {
                    continue;
                }
                let fd = (act.apply(z + eps) - act.apply(z - eps)) / (2.0 * eps);
                let v = if act.derivative_takes_output() { act.apply(z) } else { z };
                let an = act.derivative(v);
                prop_assert!(
                    (fd - an).abs() < 1e-4,
                    "{act:?} at {z}: fd={fd}, analytic={an}"
                );
            }
        }

        #[test]
        fn prop_softplus_positive_and_monotone(a in -20.0f64..20.0, b in -20.0f64..20.0) {
            prop_assert!(softplus(a) >= 0.0);
            if a < b {
                prop_assert!(softplus(a) <= softplus(b) + 1e-12);
            }
        }

        #[test]
        fn prop_sigmoid_bounded(z in -50.0f64..50.0) {
            let s = sigmoid(z);
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}
