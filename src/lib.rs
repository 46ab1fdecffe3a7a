//! SMARTS: Sampling Microarchitecture Simulation via rigorous statistical
//! sampling — a full reproduction of Wunderlich, Wenisch, Falsafi & Hoe
//! (ISCA 2003) in Rust.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`stats`] — sampling statistics (confidence intervals, sample
//!   sizing, systematic designs, intraclass correlation).
//! * [`isa`] — the 64-bit RISC substrate: assembler, memory, functional
//!   CPU.
//! * [`workloads`] — the synthetic SPEC2K-like benchmark suite.
//! * [`uarch`] — the out-of-order superscalar timing model with warmable
//!   caches/TLBs/branch predictors (Table 3 machines).
//! * [`energy`] — the Wattch-like activity energy model for EPI.
//! * [`core`] — the SMARTS framework itself: systematic sampling with
//!   functional + detailed warming and the two-step confidence procedure.
//! * [`exec`] — the parallel execution subsystem: one warm → store →
//!   replay spine (pipelined warming, store replay) with a deterministic
//!   merge.
//! * [`ckpt`] — the persistent on-disk checkpoint store (delta-encoded,
//!   CRC-checked): warm once, replay many detailed configurations.
//! * [`server`] — sampling as a service: a TCP job server over a shared
//!   checkpoint-store directory, so concurrent jobs for the same
//!   workload and warm geometry trigger exactly one warming pass.
//! * [`simpoint`] — the SimPoint baseline (Section 5.3).
//!
//! # Quick start
//!
//! ```
//! use smarts::prelude::*;
//!
//! # fn main() -> Result<(), smarts::core::SmartsError> {
//! let sim = SmartsSim::new(MachineConfig::eight_way());
//! let bench = find("branchy-1").unwrap().scaled(0.05);
//! let params = SamplingParams::paper_defaults(sim.config(), bench.approx_len(), 20)?;
//! let report = sim.sample(&bench, &params)?;
//! println!(
//!     "CPI = {:.3} ± {:.1}% (99.7% confidence), {:.3}% of the stream in detail",
//!     report.cpi().mean(),
//!     report.cpi().achieved_epsilon(Confidence::THREE_SIGMA)? * 100.0,
//!     report.instructions.detailed() as f64 / bench.approx_len() as f64 * 100.0,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smarts_ckpt as ckpt;
pub use smarts_core as core;
pub use smarts_energy as energy;
pub use smarts_exec as exec;
pub use smarts_isa as isa;
pub use smarts_server as server;
pub use smarts_simpoint as simpoint;
pub use smarts_stats as stats;
pub use smarts_uarch as uarch;
pub use smarts_workloads as workloads;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use smarts_ckpt::{CkptReader, CkptWriter, StoreMeta};
    pub use smarts_core::{
        compare_machines, PairedComparison, ReferenceRun, SampleReport, SamplingParams,
        SmartsError, SmartsSim, SpeedupModel, Warming,
    };
    pub use smarts_energy::EnergyModel;
    pub use smarts_exec::{Executor, ParallelMode};
    pub use smarts_isa::{reg, Asm, Cpu, Memory, Program};
    pub use smarts_stats::{Confidence, RunningStats, SampleEstimate, SystematicDesign};
    pub use smarts_uarch::{MachineConfig, Pipeline, WarmState};
    pub use smarts_workloads::{find, scaled_suite, suite, Benchmark};
}
