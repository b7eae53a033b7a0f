//! Evaluation statistics: relative error and rank correlation.

/// Relative error of a single prediction against a measurement:
/// `|predicted − measured| / measured` (the paper's metric).
///
/// A zero measurement yields 0 when the prediction is also zero and 1
/// otherwise (degenerate blocks; the suite filters these out anyway).
pub fn relative_error(predicted: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        return if predicted == 0.0 { 0.0 } else { 1.0 };
    }
    (predicted - measured).abs() / measured.abs()
}

/// Unweighted mean relative error over `(predicted, measured)` pairs.
pub fn mean_relative_error(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (p, m) in pairs {
        total += relative_error(p, m);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Frequency-weighted mean relative error over
/// `(predicted, measured, weight)` triples (the paper's "Weighted Error"
/// column for Spanner/Dremel).
pub fn weighted_relative_error(triples: impl IntoIterator<Item = (f64, f64, f64)>) -> f64 {
    let mut total = 0.0;
    let mut weight_sum = 0.0;
    for (p, m, w) in triples {
        total += w * relative_error(p, m);
        weight_sum += w;
    }
    if weight_sum == 0.0 {
        0.0
    } else {
        total / weight_sum
    }
}

/// Kendall's tau-b rank-correlation coefficient between two samples:
/// the fraction of pairwise orderings a model preserves, corrected for
/// ties. Returns a value in [−1, 1]; higher is better.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_a = 0i64;
    let mut ties_b = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let sa = da.partial_cmp(&0.0).expect("finite values");
            let sb = db.partial_cmp(&0.0).expect("finite values");
            use std::cmp::Ordering::Equal;
            // tau-b: a pair tied in x counts toward n1 and a pair tied in
            // y toward n2 — including pairs tied in both.
            if sa == Equal {
                ties_a += 1;
            }
            if sb == Equal {
                ties_b += 1;
            }
            if sa != Equal && sb != Equal {
                if sa == sb {
                    concordant += 1;
                } else {
                    discordant += 1;
                }
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_a) as f64) * ((n0 - ties_b) as f64)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / denom
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation on sorted data.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(2.0, 1.0), 1.0);
        assert_eq!(relative_error(1.0, 2.0), 0.5);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), 1.0);
    }

    #[test]
    fn mean_relative_error_averages() {
        let err = mean_relative_error([(1.1, 1.0), (0.9, 1.0)]);
        assert!((err - 0.1).abs() < 1e-12);
        assert_eq!(mean_relative_error(std::iter::empty()), 0.0);
    }

    #[test]
    fn weighted_error_respects_weights() {
        // A bad prediction with tiny weight barely matters.
        let err = weighted_relative_error([(2.0, 1.0, 0.01), (1.0, 1.0, 0.99)]);
        assert!(err < 0.02, "{err}");
        let err = weighted_relative_error([(2.0, 1.0, 0.99), (1.0, 1.0, 0.01)]);
        assert!(err > 0.9, "{err}");
    }

    #[test]
    fn kendall_tau_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let asc = [10.0, 20.0, 30.0, 40.0];
        let desc = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&a, &asc) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&a, &desc) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_partial() {
        // One discordant pair out of six: tau = (5-1)/6.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 2.0, 4.0, 3.0];
        assert!((kendall_tau(&a, &b) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_tau_handles_ties() {
        let a = [1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        let tau = kendall_tau(&a, &b);
        assert!(tau > 0.0 && tau < 1.0, "{tau}");
        // Joint ties discount both denominators symmetrically: two
        // identical samples still correlate perfectly.
        let x = [1.0, 1.0, 2.0, 3.0];
        let tau = kendall_tau(&x, &x);
        assert!((tau - 1.0).abs() < 1e-12, "{tau}");
    }

    #[test]
    fn quantiles() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
    }
}
