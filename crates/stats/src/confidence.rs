use crate::{RunningStats, StatsError};
use std::fmt;

/// A confidence level `(1 − α)` for interval estimation.
///
/// The paper works with the two conventional levels: 95% and 99.7%
/// (the "3σ, virtually certain" level). Arbitrary levels in `(0, 1)` are
/// supported; the corresponding standard-normal quantile `z` is computed
/// with the Acklam inverse-CDF approximation (relative error < 1.15e-9).
///
/// # Examples
///
/// ```
/// use smarts_stats::Confidence;
///
/// assert!((Confidence::NINETY_FIVE.z() - 1.96).abs() < 0.01);
/// assert!((Confidence::THREE_SIGMA.z() - 3.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Confidence {
    level: f64,
}

impl Confidence {
    /// The 95% confidence level (z ≈ 1.96; the paper rounds to 1.97).
    pub const NINETY_FIVE: Confidence = Confidence { level: 0.95 };

    /// The 99.7% "virtually certain" 3σ level (z ≈ 3.0).
    pub const THREE_SIGMA: Confidence = Confidence { level: 0.9973 };

    /// Creates a confidence level.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidConfidenceLevel`] unless
    /// `0 < level < 1`.
    pub fn new(level: f64) -> Result<Self, StatsError> {
        if level.is_finite() && level > 0.0 && level < 1.0 {
            Ok(Confidence { level })
        } else {
            Err(StatsError::InvalidConfidenceLevel(level))
        }
    }

    /// The confidence level `(1 − α)` as a fraction in `(0, 1)`.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The `100·(1 − α/2)` percentile of the standard normal distribution.
    pub fn z(&self) -> f64 {
        let alpha = 1.0 - self.level;
        inverse_normal_cdf(1.0 - alpha / 2.0)
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}%", self.level * 100.0)
    }
}

/// Inverse CDF of the standard normal distribution (Acklam's algorithm).
///
/// Accurate to about 1.15e-9 relative error over the full open interval.
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    // Coefficients for the rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Half-width of the confidence interval around a sample mean, in absolute
/// units of the metric: `±(z·V/√n)·mean`.
///
/// # Errors
///
/// Returns an error if `cv` is not finite/non-negative or `n` is zero.
///
/// # Examples
///
/// ```
/// use smarts_stats::{confidence_interval, Confidence};
///
/// # fn main() -> Result<(), smarts_stats::StatsError> {
/// let half = confidence_interval(2.0, 1.0, 10_000, Confidence::THREE_SIGMA)?;
/// assert!((half / 2.0 - 0.03).abs() < 0.001); // ±3% of the mean
/// # Ok(())
/// # }
/// ```
pub fn confidence_interval(
    mean: f64,
    cv: f64,
    n: u64,
    confidence: Confidence,
) -> Result<f64, StatsError> {
    Ok(relative_half_width(cv, n, confidence)? * mean.abs())
}

/// Relative half-width `ε = z·V/√n` such that the interval is `±ε·mean`.
///
/// # Errors
///
/// Returns an error if `cv` is not finite/non-negative or `n` is zero.
pub fn relative_half_width(cv: f64, n: u64, confidence: Confidence) -> Result<f64, StatsError> {
    if !cv.is_finite() || cv < 0.0 {
        return Err(StatsError::InvalidVariation(cv));
    }
    if n == 0 {
        return Err(StatsError::InsufficientSample {
            required: 1,
            actual: 0,
        });
    }
    Ok(confidence.z() * cv / (n as f64).sqrt())
}

/// Minimal sample size `n ≥ (z·V/ε)²` to achieve a `±ε` relative confidence
/// interval at the given confidence level.
///
/// The result is never below 30, the conventional threshold for the normal
/// approximation used throughout the paper (`n > 30`).
///
/// # Errors
///
/// Returns an error if `cv` is not finite/non-negative or `epsilon ≤ 0`.
///
/// # Examples
///
/// ```
/// use smarts_stats::{required_sample_size, Confidence};
///
/// # fn main() -> Result<(), smarts_stats::StatsError> {
/// // The paper's rule of thumb: V ≈ 1.0 at U = 1000 ⇒ n ≈ 10,000 for
/// // ±3% at 99.7% confidence.
/// let n = required_sample_size(1.0, 0.03, Confidence::THREE_SIGMA)?;
/// assert!((9_000..=11_000).contains(&n));
/// # Ok(())
/// # }
/// ```
pub fn required_sample_size(
    cv: f64,
    epsilon: f64,
    confidence: Confidence,
) -> Result<u64, StatsError> {
    if !cv.is_finite() || cv < 0.0 {
        return Err(StatsError::InvalidVariation(cv));
    }
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(StatsError::InvalidErrorTarget(epsilon));
    }
    let n = (confidence.z() * cv / epsilon).powi(2).ceil() as u64;
    Ok(n.max(30))
}

/// A sample-derived mean estimate together with the dispersion information
/// needed to quantify confidence in it.
///
/// Bundles the sample mean `x̄`, the measured coefficient of variation
/// `V̂`, and the sample size `n` — everything Section 5.1's two-step
/// procedure needs: check the achieved interval, and if it is too wide,
/// compute `n_tuned` for the follow-up run.
///
/// # Examples
///
/// ```
/// use smarts_stats::{Confidence, SampleEstimate};
///
/// # fn main() -> Result<(), smarts_stats::StatsError> {
/// let est = SampleEstimate::new(1.8, 1.2, 10_000);
/// if !est.meets(0.03, Confidence::THREE_SIGMA)? {
///     let n_tuned = est.required_n(0.03, Confidence::THREE_SIGMA)?;
///     assert!(n_tuned > 10_000);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleEstimate {
    mean: f64,
    cv: f64,
    n: u64,
}

impl SampleEstimate {
    /// Creates an estimate from a mean, coefficient of variation, and size.
    pub fn new(mean: f64, cv: f64, n: u64) -> Self {
        SampleEstimate { mean, cv, n }
    }

    /// Builds the estimate from accumulated per-unit statistics.
    pub fn from_stats(stats: &RunningStats) -> Self {
        SampleEstimate {
            mean: stats.mean(),
            cv: stats.coefficient_of_variation(),
            n: stats.count(),
        }
    }

    /// The sample mean `x̄`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The measured coefficient of variation `V̂`.
    pub fn coefficient_of_variation(&self) -> f64 {
        self.cv
    }

    /// The sample size `n`.
    pub fn sample_size(&self) -> u64 {
        self.n
    }

    /// Relative half-width `ε` achieved at the given level.
    ///
    /// # Errors
    ///
    /// Propagates argument errors from [`relative_half_width`].
    pub fn achieved_epsilon(&self, confidence: Confidence) -> Result<f64, StatsError> {
        relative_half_width(self.cv, self.n, confidence)
    }

    /// Absolute confidence interval `(lo, hi)` at the given level.
    ///
    /// # Errors
    ///
    /// Propagates argument errors from [`confidence_interval`].
    pub fn interval(&self, confidence: Confidence) -> Result<(f64, f64), StatsError> {
        let half = confidence_interval(self.mean, self.cv, self.n, confidence)?;
        Ok((self.mean - half, self.mean + half))
    }

    /// Whether the sample already achieves a `±epsilon` interval.
    ///
    /// # Errors
    ///
    /// Propagates argument errors from [`relative_half_width`].
    pub fn meets(&self, epsilon: f64, confidence: Confidence) -> Result<bool, StatsError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(StatsError::InvalidErrorTarget(epsilon));
        }
        Ok(self.achieved_epsilon(confidence)? <= epsilon)
    }

    /// The tuned sample size `n_tuned = (z·V̂/ε)²` for a follow-up run.
    ///
    /// # Errors
    ///
    /// Propagates argument errors from [`required_sample_size`].
    pub fn required_n(&self, epsilon: f64, confidence: Confidence) -> Result<u64, StatsError> {
        required_sample_size(self.cv, epsilon, confidence)
    }
}

impl fmt::Display for SampleEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mean={:.6} V̂={:.4} n={}", self.mean, self.cv, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_values_match_standard_tables() {
        assert!((Confidence::NINETY_FIVE.z() - 1.959964).abs() < 1e-4);
        assert!((Confidence::THREE_SIGMA.z() - 2.9997).abs() < 2e-3);
        assert!((Confidence::new(0.90).unwrap().z() - 1.644854).abs() < 1e-4);
        assert!((Confidence::new(0.99).unwrap().z() - 2.575829).abs() < 1e-4);
    }

    #[test]
    fn inverse_cdf_tails_are_symmetric() {
        for p in [0.001, 0.01, 0.2, 0.5, 0.8, 0.99, 0.999] {
            let lo = inverse_normal_cdf(p);
            let hi = inverse_normal_cdf(1.0 - p);
            assert!((lo + hi).abs() < 1e-8, "asymmetric at p={p}: {lo} vs {hi}");
        }
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_levels_rejected() {
        for level in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            assert!(Confidence::new(level).is_err());
        }
    }

    #[test]
    fn paper_rule_of_thumb_n_init() {
        // V ≈ 1.0, ±3%, 99.7% ⇒ n ≈ (3/0.03)² = 10,000.
        let n = required_sample_size(1.0, 0.03, Confidence::THREE_SIGMA).unwrap();
        assert!((9_900..=10_100).contains(&n), "n = {n}");
    }

    #[test]
    fn sample_size_scales_with_cv_squared() {
        let n1 = required_sample_size(1.0, 0.03, Confidence::THREE_SIGMA).unwrap();
        let n2 = required_sample_size(2.0, 0.03, Confidence::THREE_SIGMA).unwrap();
        let ratio = n2 as f64 / n1 as f64;
        assert!((ratio - 4.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn sample_size_has_normal_approximation_floor() {
        let n = required_sample_size(0.001, 0.5, Confidence::NINETY_FIVE).unwrap();
        assert_eq!(n, 30);
    }

    #[test]
    fn zero_cv_needs_only_the_floor() {
        let n = required_sample_size(0.0, 0.03, Confidence::THREE_SIGMA).unwrap();
        assert_eq!(n, 30);
    }

    #[test]
    fn interval_shrinks_with_sqrt_n() {
        let e1 = relative_half_width(1.0, 100, Confidence::NINETY_FIVE).unwrap();
        let e2 = relative_half_width(1.0, 10_000, Confidence::NINETY_FIVE).unwrap();
        assert!((e1 / e2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_round_trip_through_required_n() {
        let est = SampleEstimate::new(1.5, 1.3, 10_000);
        let conf = Confidence::THREE_SIGMA;
        assert!(!est.meets(0.03, conf).unwrap());
        let n_tuned = est.required_n(0.03, conf).unwrap();
        let retry = SampleEstimate::new(1.5, 1.3, n_tuned);
        assert!(retry.meets(0.0301, conf).unwrap());
    }

    #[test]
    fn interval_brackets_mean() {
        let est = SampleEstimate::new(2.0, 0.8, 400);
        let (lo, hi) = est.interval(Confidence::NINETY_FIVE).unwrap();
        assert!(lo < 2.0 && 2.0 < hi);
        assert!(
            (hi - 2.0 - (2.0 - lo)).abs() < 1e-12,
            "interval is symmetric"
        );
    }

    #[test]
    fn errors_on_bad_arguments() {
        assert!(relative_half_width(f64::NAN, 10, Confidence::NINETY_FIVE).is_err());
        assert!(relative_half_width(1.0, 0, Confidence::NINETY_FIVE).is_err());
        assert!(required_sample_size(1.0, 0.0, Confidence::NINETY_FIVE).is_err());
        assert!(required_sample_size(-1.0, 0.1, Confidence::NINETY_FIVE).is_err());
        let est = SampleEstimate::new(1.0, 1.0, 100);
        assert!(est.meets(-0.5, Confidence::NINETY_FIVE).is_err());
    }
}
