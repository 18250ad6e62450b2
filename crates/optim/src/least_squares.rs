//! Polynomial least-squares fitting.
//!
//! The paper fits a quadratic to measured i7-3770K power/frequency points
//! (Fig. 3) and perturbs the coefficients per server. [`polyfit`] implements
//! that fit via the normal equations `(XᵀX)β = Xᵀy` solved with the LU
//! routine in [`crate::linalg`], which is well-conditioned for the degree-2,
//! 10-point problems in play here.

use crate::linalg::{LinalgError, Matrix};

/// A fitted polynomial `y = c₀ + c₁·x + … + c_d·x^d` with fit diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct PolyFit {
    /// Coefficients in ascending-degree order (`coeffs[k]` multiplies `x^k`).
    pub coeffs: Vec<f64>,
    /// Coefficient of determination on the training points.
    pub r_squared: f64,
}

impl PolyFit {
    /// Evaluates the polynomial at `x` (Horner's rule).
    ///
    /// # Examples
    ///
    /// ```
    /// use eotora_optim::least_squares::polyfit;
    ///
    /// let xs = [0.0, 1.0, 2.0, 3.0];
    /// let ys = [1.0, 3.0, 5.0, 7.0]; // y = 1 + 2x
    /// let fit = polyfit(&xs, &ys, 1).unwrap();
    /// assert!((fit.eval(10.0) - 21.0).abs() < 1e-9);
    /// ```
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }
}

/// Errors from [`polyfit`].
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// `xs` and `ys` have different lengths, or there are fewer points than
    /// coefficients.
    BadInput {
        /// Human-readable description.
        context: &'static str,
    },
    /// The normal equations are singular (e.g. duplicated x values only).
    Degenerate(LinalgError),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadInput { context } => write!(f, "bad fit input: {context}"),
            Self::Degenerate(e) => write!(f, "degenerate normal equations: {e}"),
        }
    }
}

impl std::error::Error for FitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Degenerate(e) => Some(e),
            Self::BadInput { .. } => None,
        }
    }
}

/// Fits a degree-`degree` polynomial to `(xs, ys)` by ordinary least squares.
///
/// # Errors
///
/// Returns [`FitError::BadInput`] when the inputs are mismatched or too few,
/// and [`FitError::Degenerate`] when the design matrix is rank-deficient.
///
/// # Examples
///
/// ```
/// use eotora_optim::least_squares::polyfit;
///
/// // Exact quadratic recovery.
/// let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
/// let ys: Vec<f64> = xs.iter().map(|&x| 2.0 - x + 0.5 * x * x).collect();
/// let fit = polyfit(&xs, &ys, 2).unwrap();
/// assert!((fit.coeffs[2] - 0.5).abs() < 1e-8);
/// assert!(fit.r_squared > 0.999999);
/// ```
pub fn polyfit(xs: &[f64], ys: &[f64], degree: usize) -> Result<PolyFit, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::BadInput { context: "xs and ys lengths differ" });
    }
    let n_coeffs = degree + 1;
    if xs.len() < n_coeffs {
        return Err(FitError::BadInput { context: "fewer points than coefficients" });
    }
    // Design matrix X with X[i][k] = x_i^k.
    let mut x = Matrix::zeros(xs.len(), n_coeffs);
    for (i, &xi) in xs.iter().enumerate() {
        let mut p = 1.0;
        for k in 0..n_coeffs {
            x[(i, k)] = p;
            p *= xi;
        }
    }
    let xt = x.transpose();
    let xtx = xt.mul(&x).expect("shapes agree by construction");
    let xty = xt.mul_vec(ys).expect("shapes agree by construction");
    let coeffs = xtx.solve(&xty).map_err(FitError::Degenerate)?;

    let fit = PolyFit { coeffs, r_squared: 0.0 };
    let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
    let ss_tot: f64 = ys.iter().map(|&y| (y - mean_y) * (y - mean_y)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&xi, &yi)| {
            let e = yi - fit.eval(xi);
            e * e
        })
        .sum();
    let r_squared = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    Ok(PolyFit { r_squared, ..fit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eotora_util::assert_close;
    use eotora_util::rng::Pcg32;

    #[test]
    fn exact_line() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 7.0, 9.0];
        let fit = polyfit(&xs, &ys, 1).unwrap();
        assert_close!(fit.coeffs[0], 3.0, 1e-9);
        assert_close!(fit.coeffs[1], 2.0, 1e-9);
        assert_close!(fit.r_squared, 1.0, 1e-12);
    }

    #[test]
    fn noisy_quadratic_recovers_coefficients() {
        let mut rng = Pcg32::seed(15);
        let xs: Vec<f64> = (0..200).map(|i| 1.0 + i as f64 * 0.01).collect();
        let ys: Vec<f64> =
            xs.iter().map(|&x| 4.0 + 3.0 * x + 2.0 * x * x + rng.normal(0.0, 0.01)).collect();
        let fit = polyfit(&xs, &ys, 2).unwrap();
        assert_close!(fit.coeffs[0], 4.0, 0.05);
        assert_close!(fit.coeffs[1], 3.0, 0.05);
        assert_close!(fit.coeffs[2], 2.0, 0.02);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn constant_polynomial_evaluates_to_its_constant() {
        let fit = PolyFit { coeffs: vec![7.0], r_squared: 1.0 };
        assert_eq!(fit.eval(123.0), 7.0);
    }

    #[test]
    fn input_validation() {
        assert!(matches!(polyfit(&[1.0], &[1.0, 2.0], 1), Err(FitError::BadInput { .. })));
        assert!(matches!(polyfit(&[1.0, 2.0], &[1.0, 2.0], 2), Err(FitError::BadInput { .. })));
    }

    #[test]
    fn degenerate_design_detected() {
        // All x identical: columns of X are linearly dependent for degree ≥ 1.
        let xs = [2.0, 2.0, 2.0];
        let ys = [1.0, 2.0, 3.0];
        assert!(matches!(polyfit(&xs, &ys, 1), Err(FitError::Degenerate(_))));
    }

    #[test]
    fn r_squared_flat_target() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [5.0, 5.0, 5.0];
        let fit = polyfit(&xs, &ys, 1).unwrap();
        assert_close!(fit.r_squared, 1.0, 1e-12);
    }
}
