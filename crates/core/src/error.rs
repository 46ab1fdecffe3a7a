use std::error::Error;
use std::fmt;

/// Error type for SMARTS sampling-run configuration and execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SmartsError {
    /// A sampling parameter (U, k, n) must be nonzero.
    ZeroParameter(&'static str),
    /// The unit offset `j` must be below the sampling interval `k`.
    OffsetOutOfRange {
        /// Supplied offset in units.
        offset: u64,
        /// Sampling interval in units.
        interval: u64,
    },
    /// The benchmark stream ended before any sampling unit was measured.
    EmptySample,
    /// The systematic spec was asked for a sampler: it measures every
    /// unit of its grid, and selects nothing.
    NoSampler,
    /// An underlying statistics error (invalid confidence arguments).
    Stats(smarts_stats::StatsError),
    /// Functional execution failed (a malformed program).
    Isa(smarts_isa::IsaError),
}

impl fmt::Display for SmartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmartsError::ZeroParameter(name) => {
                write!(f, "sampling parameter `{name}` must be nonzero")
            }
            SmartsError::OffsetOutOfRange { offset, interval } => {
                write!(
                    f,
                    "unit offset {offset} is not below the sampling interval {interval}"
                )
            }
            SmartsError::EmptySample => {
                write!(
                    f,
                    "benchmark stream ended before any sampling unit was measured"
                )
            }
            SmartsError::NoSampler => write!(f, "the systematic spec selects no units"),
            SmartsError::Stats(e) => write!(f, "statistics error: {e}"),
            SmartsError::Isa(e) => write!(f, "functional execution error: {e}"),
        }
    }
}

impl Error for SmartsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SmartsError::Stats(e) => Some(e),
            SmartsError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<smarts_stats::StatsError> for SmartsError {
    fn from(e: smarts_stats::StatsError) -> Self {
        SmartsError::Stats(e)
    }
}

#[doc(hidden)]
impl From<smarts_isa::IsaError> for SmartsError {
    fn from(e: smarts_isa::IsaError) -> Self {
        SmartsError::Isa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SmartsError::Stats(smarts_stats::StatsError::InvalidErrorTarget(-1.0));
        assert!(e.to_string().contains("statistics"));
        assert!(e.source().is_some());
        assert!(SmartsError::EmptySample.source().is_none());
    }
}
