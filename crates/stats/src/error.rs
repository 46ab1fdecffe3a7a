use std::error::Error;
use std::fmt;

/// Error type for invalid statistical arguments.
///
/// Returned by the sizing and confidence functions of this crate when the
/// caller supplies arguments outside their mathematical domain (for example
/// a confidence level of 1.2, or an empty sample).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// The confidence level must lie strictly between 0 and 1.
    InvalidConfidenceLevel(f64),
    /// The relative error target `epsilon` must be strictly positive.
    InvalidErrorTarget(f64),
    /// The coefficient of variation must be finite and non-negative.
    InvalidVariation(f64),
    /// The operation requires at least this many observations.
    InsufficientSample {
        /// Number of observations required.
        required: u64,
        /// Number of observations actually available.
        actual: u64,
    },
    /// A design parameter (unit size, population, strata) must be nonzero.
    ZeroDesignParameter(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidConfidenceLevel(level) => {
                write!(
                    f,
                    "confidence level {level} is not in the open interval (0, 1)"
                )
            }
            StatsError::InvalidErrorTarget(eps) => {
                write!(f, "relative error target {eps} is not strictly positive")
            }
            StatsError::InvalidVariation(cv) => {
                write!(
                    f,
                    "coefficient of variation {cv} is not finite and non-negative"
                )
            }
            StatsError::InsufficientSample { required, actual } => {
                write!(
                    f,
                    "operation requires at least {required} observations, got {actual}"
                )
            }
            StatsError::ZeroDesignParameter(name) => {
                write!(f, "design parameter `{name}` must be nonzero")
            }
        }
    }
}

impl Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            StatsError::InvalidConfidenceLevel(1.5),
            StatsError::InvalidErrorTarget(-0.1),
            StatsError::InvalidVariation(f64::NAN),
            StatsError::InsufficientSample {
                required: 30,
                actual: 2,
            },
            StatsError::ZeroDesignParameter("unit_size"),
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
