//! Out-of-order superscalar timing model with warmable long-history
//! microarchitectural state — the detailed-simulation substrate of the
//! SMARTS reproduction (the analogue of SimpleScalar's `sim-outorder`
//! with the paper's memory-system enhancements).
//!
//! # Architecture
//!
//! * [`MachineConfig`] — Table 3 machine descriptions
//!   ([`MachineConfig::eight_way`], [`MachineConfig::sixteen_way`]).
//! * [`WarmState`] — the long-history state SMARTS keeps warm between
//!   sampling units: [`CacheHierarchy`], two [`Tlb`]s, and a
//!   [`BranchPredictor`]. Functional warming applies
//!   [`WarmState::warm_record`] per fast-forwarded instruction.
//! * [`Pipeline`] — the cycle-accurate out-of-order engine. It replays a
//!   correct-path trace (any [`TraceSource`]) and reports
//!   [`UnitMeasurement`]s (cycles, instructions, activity counters).
//!
//! # Examples
//!
//! Measure the CPI of a small loop on the 8-way machine:
//!
//! ```
//! use smarts_isa::{reg, Asm, Cpu, Memory};
//! use smarts_uarch::{MachineConfig, Pipeline, WarmState};
//!
//! # fn main() -> Result<(), smarts_isa::IsaError> {
//! let mut a = Asm::new();
//! a.li(reg::T0, 0);
//! a.li(reg::T1, 100);
//! let top = a.label();
//! a.bind(top)?;
//! a.addi(reg::T0, reg::T0, 1);
//! a.blt(reg::T0, reg::T1, top);
//! a.halt();
//! let program = a.finish()?;
//!
//! let cfg = MachineConfig::eight_way();
//! let mut warm = WarmState::new(&cfg);
//! let mut pipeline = Pipeline::new(&cfg);
//! let mut cpu = Cpu::new();
//! let mut mem = Memory::new();
//! let mut source = move || {
//!     if cpu.halted() { None } else { cpu.step(&program, &mut mem).ok() }
//! };
//! let m = pipeline.run(&mut warm, &mut source, u64::MAX, true);
//! assert_eq!(m.instructions, 203);
//! assert!(m.cpi() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod cache;
mod config;
mod hierarchy;
mod lru;
mod pipeline;
mod scan;
mod tlb;
mod warm;

pub use bpred::{BranchPredictor, Prediction};
pub use cache::{Cache, CacheOutcome};
pub use config::{CacheConfig, MachineConfig, OpLatencies, PredictorConfig, TlbConfig};
pub use hierarchy::{AccessResult, CacheHierarchy};
pub use pipeline::{Pipeline, TraceSource, UnitMeasurement};
pub use scan::ScanPipeline;
pub use tlb::Tlb;
pub use warm::WarmState;
