//! Statistical sampling mathematics for the SMARTS framework.
//!
//! This crate implements the inferential-statistics machinery of Section 2
//! of the SMARTS paper (Wunderlich et al., ISCA 2003): running moments and
//! coefficients of variation, normal-theory confidence intervals, minimal
//! sample sizing, systematic sampling designs, intraclass correlation, and
//! population analyses such as the `V(U)` variation curve of Figure 2.
//!
//! The crate is deliberately independent of any simulator type: it operates
//! on plain `f64` measurements so it can be reused for CPI, energy per
//! instruction, or any other per-sampling-unit metric.
//!
//! It is also the one unit-selection layer: a [`SamplerSpec`] names a
//! strategy and states its field rules ([`SamplerSpec::validate`]),
//! [`SamplerSpec::build`] is the only way to a [`Sampler`], and
//! [`drive_sampler`] is the one loop that runs it — for a store replay
//! and an offline drive alike.
//!
//! # Examples
//!
//! Designing a sampling run that estimates a mean to ±3% with 99.7%
//! confidence, assuming a measured coefficient of variation of 1.0:
//!
//! ```
//! use smarts_stats::{Confidence, required_sample_size};
//!
//! # fn main() -> Result<(), smarts_stats::StatsError> {
//! let n = required_sample_size(1.0, 0.03, Confidence::THREE_SIGMA)?;
//! assert!((9_000..11_000).contains(&n)); // the paper's n_init = 10,000
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod confidence;
mod design;
mod error;
mod population;
mod running;
mod sampler;
mod stratified;

pub use confidence::{
    confidence_interval, relative_half_width, required_sample_size, Confidence, SampleEstimate,
};
pub use design::RandomDesign;
pub use error::{FieldError, StatsError};
pub use population::{
    bias, intraclass_correlation, systematic_sample_means, variation_curve, VariationPoint,
};
pub use running::RunningStats;
pub use sampler::{
    drive_sampler, Sampler, SamplerEstimate, SamplerKind, SamplerPhase, SamplerSpec, SplitMix64,
    StopReason,
};
