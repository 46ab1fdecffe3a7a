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
    /// A sampler spec field is out of its range.
    Field(FieldError),
    /// The systematic spec was asked for a sampler: it measures every
    /// unit of its grid, and selects nothing.
    NoSampler,
}

/// A job or sampler-spec field out of its range: the field's name (on
/// the wire, and as the CLI flag) and the rule it breaks ("takes 8 or
/// 16").
#[derive(Debug, Clone, PartialEq)]
pub struct FieldError {
    /// The field's name (`strata`, `unit`, …).
    pub field: &'static str,
    /// What the field takes.
    pub rule: String,
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
            StatsError::Field(e) => write!(f, "sampler field `{}` {}", e.field, e.rule),
            StatsError::NoSampler => write!(f, "the systematic spec selects no units"),
        }
    }
}

impl Error for StatsError {}

impl From<FieldError> for StatsError {
    fn from(e: FieldError) -> Self {
        StatsError::Field(e)
    }
}

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
            StatsError::Field(FieldError {
                field: "strata",
                rule: "takes a count in 1..=4096".into(),
            }),
            StatsError::NoSampler,
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
