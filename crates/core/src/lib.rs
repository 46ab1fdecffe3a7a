//! The SMARTS framework: Sampling Microarchitecture Simulation with
//! rigorous statistical confidence (Wunderlich, Wenisch, Falsafi, Hoe —
//! ISCA 2003).
//!
//! SMARTS estimates whole-benchmark metrics (CPI, energy per instruction)
//! by measuring only `n` systematic sampling units of `U` instructions
//! each, fast-forwarding the stream in between. Two mechanisms make tiny
//! units (U = 1000) measurable without bias:
//!
//! * **functional warming** ([`Warming::Functional`]) — caches, TLBs, and
//!   the branch predictor stay up to date during fast-forwarding, and
//! * **detailed warming** — `W` instructions of unmeasured detailed
//!   simulation rebuild the short-history pipeline state before each
//!   unit, with `W` analytically bounded (Section 4.4).
//!
//! The measured per-unit coefficient of variation then gives a confidence
//! interval on the estimate, and — when the interval is too wide — the
//! tuned sample size for one follow-up run ([`TwoStepOutcome::run`]).
//!
//! # Examples
//!
//! The full paper procedure on one benchmark:
//!
//! ```
//! use smarts_core::{SamplingParams, SmartsSim, TwoStepOutcome};
//! use smarts_stats::Confidence;
//! use smarts_uarch::MachineConfig;
//! use smarts_workloads::find;
//!
//! # fn main() -> Result<(), smarts_core::SmartsError> {
//! let sim = SmartsSim::new(MachineConfig::eight_way());
//! let bench = find("branchy-1").unwrap().scaled(0.1);
//!
//! // Step 1: sample with an initial n.
//! let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 25)?;
//! let len = bench.approx_len();
//! let outcome = TwoStepOutcome::run(len, &params, 0.03, Confidence::THREE_SIGMA, |p| {
//!     sim.sample(&bench, p)
//! })?;
//!
//! // The final estimate and its confidence:
//! let report = outcome.best();
//! let cpi = report.cpi();
//! let epsilon = cpi.achieved_epsilon(Confidence::THREE_SIGMA)?;
//! println!("CPI = {:.3} ± {:.1}%", cpi.mean(), epsilon * 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod compare;
mod engine;
mod error;
mod reference;
mod sampler;
mod speedup;

pub use checkpoint::{StreamSummary, UnitCheckpoint, UnitReplay, WarmSpares};
pub use compare::{compare_machines, PairedComparison};
pub use engine::{EngineSnapshot, FunctionalEngine};
pub use error::SmartsError;
pub use reference::ReferenceRun;
pub use sampler::{
    ModeInstructions, SampleReport, SamplerKind, SamplerSpec, SamplingParams, SmartsSim,
    TwoStepOutcome, UnitSample, Warming,
};
pub use speedup::SpeedupModel;
