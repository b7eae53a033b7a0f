//! Ordinary least squares with typed degenerate-input errors.
//!
//! The calibration loop fits instruction latencies as the slope of
//! cycles-per-iteration over dependency-chain length. Those designs are
//! tiny (a handful of points, one regressor), which makes the failure
//! modes *structural* rather than statistical: a constant column, two
//! identical chain lengths, or a NaN measurement must surface as a
//! typed [`FitError`] — never as silently-NaN coefficients.

use std::fmt;

/// Why a least-squares fit could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// The design matrix or target vector is empty.
    Empty,
    /// Feature rows have inconsistent lengths, or `xs` and `ys` differ
    /// in length.
    Ragged,
    /// An input value is NaN or infinite.
    NonFinite,
    /// The normal equations are singular: a constant or collinear
    /// design (e.g. every chain probed at the same length) pins no
    /// unique coefficient vector.
    RankDeficient,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Empty => f.write_str("empty design matrix"),
            FitError::Ragged => f.write_str("ragged design matrix"),
            FitError::NonFinite => f.write_str("non-finite value in design or target"),
            FitError::RankDeficient => f.write_str("rank-deficient design matrix"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted linear model `y ≈ intercept + coefficients · x`.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Per-feature slopes.
    pub coefficients: Vec<f64>,
    /// Constant term.
    pub intercept: f64,
}

impl OlsFit {
    /// The model's prediction for `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different dimensionality than the fit.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coefficients.len(), "dimension mismatch");
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x)
                .map(|(c, v)| c * v)
                .sum::<f64>()
    }
}

/// Fits `y ≈ intercept + w·x` by ordinary least squares (normal
/// equations, partial-pivot Gaussian elimination).
///
/// # Errors
///
/// Returns a [`FitError`] on empty, ragged, non-finite, or
/// rank-deficient input. The result is guaranteed finite: degenerate
/// designs fail typed instead of leaking NaN coefficients.
pub fn fit_ols(xs: &[Vec<f64>], ys: &[f64]) -> Result<OlsFit, FitError> {
    if xs.is_empty() || ys.is_empty() {
        return Err(FitError::Empty);
    }
    if xs.len() != ys.len() {
        return Err(FitError::Ragged);
    }
    let dims = xs[0].len();
    if xs.iter().any(|x| x.len() != dims) {
        return Err(FitError::Ragged);
    }
    if xs.iter().flatten().chain(ys).any(|v| !v.is_finite()) {
        return Err(FitError::NonFinite);
    }

    // Augment with the intercept column: n unknowns = dims + 1.
    let n = dims + 1;
    let row = |i: usize, j: usize| if j == 0 { 1.0 } else { xs[i][j - 1] };

    // Normal equations: (XᵀX) w = Xᵀy, assembled into an augmented
    // [A | b] system.
    let mut a = vec![vec![0.0f64; n + 1]; n];
    for (i, &y) in ys.iter().enumerate() {
        for (j, a_j) in a.iter_mut().enumerate() {
            let xj = row(i, j);
            for (k, a_jk) in a_j.iter_mut().enumerate().take(n).skip(j) {
                *a_jk += xj * row(i, k);
            }
            a_j[n] += xj * y;
        }
    }
    // Mirror the upper triangle into the lower one.
    for j in 1..n {
        let (above, from_j) = a.split_at_mut(j);
        for (k, a_k) in above.iter().enumerate() {
            from_j[0][k] = a_k[j];
        }
    }

    // Scale-aware singularity threshold: relative to the largest
    // diagonal magnitude so the test is unit-independent.
    let scale = (0..n).map(|j| a[j][j].abs()).fold(0.0f64, f64::max);
    if scale == 0.0 {
        return Err(FitError::RankDeficient);
    }
    let eps = scale * 1e-12;

    // Partial-pivot Gaussian elimination.
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))
            .expect("non-empty pivot range");
        if a[pivot_row][col].abs() <= eps {
            return Err(FitError::RankDeficient);
        }
        a.swap(col, pivot_row);
        let (through_col, below) = a.split_at_mut(col + 1);
        let pivot = &through_col[col];
        for a_r in below {
            let factor = a_r[col] / pivot[col];
            for (a_rc, &a_pc) in a_r[col..].iter_mut().zip(&pivot[col..]) {
                *a_rc -= factor * a_pc;
            }
        }
    }
    let mut solution = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut acc = a[col][n];
        for c in (col + 1)..n {
            acc -= a[col][c] * solution[c];
        }
        solution[col] = acc / a[col][col];
    }
    if solution.iter().any(|v| !v.is_finite()) {
        return Err(FitError::NonFinite);
    }

    Ok(OlsFit {
        intercept: solution[0],
        coefficients: solution[1..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_affine_data() {
        // y = 2 + 3x, four points.
        let xs: Vec<Vec<f64>> = [1.0, 2.0, 4.0, 8.0].iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x[0]).collect();
        let fit = fit_ols(&xs, &ys).unwrap();
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-9);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
        assert!((fit.predict(&[16.0]) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_two_regressors() {
        let xs = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 1.0],
            vec![1.0, 3.0],
        ];
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 4.0 * x[0] - 2.0 * x[1]).collect();
        let fit = fit_ols(&xs, &ys).unwrap();
        assert!((fit.coefficients[0] - 4.0).abs() < 1e-9);
        assert!((fit.coefficients[1] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn constant_design_is_rank_deficient_not_nan() {
        // Every probe at the same chain length: slope is unidentifiable.
        let xs = vec![vec![4.0], vec![4.0], vec![4.0]];
        let ys = vec![8.0, 8.0, 8.0];
        assert_eq!(fit_ols(&xs, &ys), Err(FitError::RankDeficient));
    }

    #[test]
    fn collinear_columns_are_rank_deficient() {
        // Second column is 2× the first.
        let xs = vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert_eq!(fit_ols(&xs, &ys), Err(FitError::RankDeficient));
    }

    #[test]
    fn degenerate_inputs_fail_typed() {
        assert_eq!(fit_ols(&[], &[]), Err(FitError::Empty));
        assert_eq!(fit_ols(&[vec![1.0]], &[1.0, 2.0]), Err(FitError::Ragged));
        assert_eq!(
            fit_ols(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]),
            Err(FitError::Ragged)
        );
        assert_eq!(fit_ols(&[vec![f64::NAN]], &[1.0]), Err(FitError::NonFinite));
        assert_eq!(
            fit_ols(&[vec![1.0]], &[f64::INFINITY]),
            Err(FitError::NonFinite)
        );
    }
}
