//! Parallel sampling execution for the SMARTS framework.
//!
//! SMARTS measures `n` mutually independent sampling units; the paper's
//! conclusion points out that once fast-forwarding is replaced by
//! checkpoints (the TurboSMARTS direction) those units become
//! embarrassingly parallel. This crate is that execution subsystem, and
//! it is one spine — **warm → store → replay** — seen from its two ends:
//!
//! * the **warm side** ([`sample`], [`warm_store`], [`Executor::sample`]):
//!   one producer runs the in-order functional-warming pass and emits
//!   each unit's checkpoint the moment its boundary is reached; an
//!   optional sink tees the checkpoints into an on-disk store; `jobs`
//!   consumers replay them off a bounded channel, so detailed replay
//!   overlaps warming and peak checkpoint residency stays bounded by the
//!   channel depth ([`PipelineStats`]) instead of O(n units). A
//!   one-worker run that keeps no store is
//!   [`smarts_core::SmartsSim::sample`] itself, on the calling thread;
//!   no checkpointed run takes [`smarts_core::Warming::None`]
//!   ([`ExecError::NoFunctionalWarming`]);
//! * the **replay side** ([`replay_store`], [`replay_store_mapped`],
//!   [`replay_store_sampled`]): `jobs` workers claim record indices of a
//!   memory-mapped store and decode them lazily, replaying the whole
//!   grid or the subset a [`smarts_core::SamplerSpec`] selects, with no
//!   warming at all;
//! * both generic over the [`smarts_workloads::Frontend`] that executes
//!   the workload, both reduced by one **deterministic merge** — per-unit
//!   results in stream order through
//!   [`smarts_core::SampleReport::from_units`] — so every route yields
//!   the bytes of a sequential replay of the same checkpoints, at any
//!   worker count;
//! * structured error propagation ([`ExecError::WorkerPanic`]),
//!   cooperative cancellation ([`CancelToken`]) and per-worker
//!   wall-clock/instruction accounting ([`WorkerStats`]) in the paper's
//!   Table 6 mode categories.
//!
//! # Examples
//!
//! ```
//! use smarts_exec::{replay_store, sample, Executor};
//! use smarts_core::{SamplingParams, SmartsSim};
//! use smarts_isa::BuiltinIsa;
//! use smarts_uarch::MachineConfig;
//! use smarts_workloads::Frontend;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sim = SmartsSim::new(MachineConfig::eight_way());
//! let len = BuiltinIsa::approx_len("branchy-1", 0.05)?;
//! let params = SamplingParams::paper_defaults(sim.config(), len, 10)?;
//! let store = std::env::temp_dir().join(format!("smarts-exec-doc-{}.ckpt", std::process::id()));
//!
//! // Warm once on two workers, keeping the checkpoints …
//! let (live, _) = sample::<BuiltinIsa>(
//!     &Executor::new(2)?, &sim, "branchy-1", 0.05, &params, Some(&store))?;
//! // … then replay them on four without warming: the same bits.
//! let replayed = replay_store::<BuiltinIsa>(&Executor::new(4)?, &sim, &store)?;
//! assert_eq!(replayed.report.report.cpi().mean().to_bits(),
//!            live.report.cpi().mean().to_bits());
//! # std::fs::remove_file(&store)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod error;
mod executor;
mod pipeline;
mod pool;
mod replay;
mod warm;

#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

pub use cancel::{CancelToken, PipelineProgress, ProgressFn};
pub use error::ExecError;
pub use executor::{
    Executor, ParallelMode, ParallelReport, PipelineStats, WorkerStats, PIPELINE_DEPTH,
};
pub use replay::{
    replay_store, replay_store_mapped, replay_store_sampled, SampledReplay, StoreReplay, UnitMemo,
    UnitsFile,
};
pub use warm::{sample, warm_store};
