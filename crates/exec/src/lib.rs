//! Parallel sampling execution for the SMARTS framework.
//!
//! SMARTS measures `n` mutually independent sampling units; the paper's
//! conclusion points out that once fast-forwarding is replaced by
//! checkpoints (the TurboSMARTS direction) those units become
//! embarrassingly parallel. This crate is that execution subsystem, and
//! it is one spine — **warm → store → replay** — seen from its two ends:
//!
//! * the **warm side** ([`sample`]): one producer runs the in-order
//!   functional-warming pass and emits each unit's checkpoint the moment
//!   its boundary is reached; an optional sink tees the checkpoints into
//!   an on-disk store; `jobs` consumers replay them off a bounded
//!   channel, so detailed replay overlaps warming and peak checkpoint
//!   residency stays bounded by the channel depth ([`PipelineStats`])
//!   instead of O(n units) — at one worker too, whose one consumer
//!   replays a unit while the producer warms the next; a sampler's run
//!   writes a store (a temporary one unless the caller keeps it) and
//!   replays its selection from it. Only the
//!   [`smarts_core::Warming::None`] design runs on the calling thread, as
//!   [`smarts_core::SmartsSim::sample`] itself: one worker, no store
//!   ([`ExecError::NoFunctionalWarming`] elsewhere);
//! * the **replay side** ([`replay`]): `jobs` workers claim record
//!   indices of a memory-mapped store and decode them lazily, replaying
//!   the whole grid or the subset a sampler selects, with no warming at
//!   all;
//! * both take a [`smarts_core::SamplerSpec`] and return one [`Run`]:
//!   the systematic report or the [`SampledReplay`] ([`Estimate`]), plus
//!   store damage where there is any — so the systematic/sampled fork
//!   lives here, and callers serialize one type;
//! * both pick the [`smarts_workloads::Frontend`] from the store identity
//!   ([`smarts_ckpt::StoreMeta::isa`]), so no caller names one; both are
//!   reduced by one **deterministic merge** — per-unit
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
//! use smarts_ckpt::{IsaId, MappedStore, StoreMeta};
//! use smarts_exec::{approx_len, replay, sample, Executor};
//! use smarts_core::{SamplerSpec, SamplingParams, SmartsSim};
//! use smarts_uarch::MachineConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sim = SmartsSim::new(MachineConfig::eight_way());
//! let (benchmark, scale, isa) = ("branchy-1".to_string(), 0.05, IsaId::Builtin);
//! let len = approx_len(isa, &benchmark, scale)?;
//! let params = SamplingParams::paper_defaults(sim.config(), len, 10)?;
//! let meta = StoreMeta { params, benchmark, scale, isa };
//! let spec = SamplerSpec::systematic();
//! let store = std::env::temp_dir().join(format!("smarts-exec-doc-{}.ckpt", std::process::id()));
//!
//! // Warm once on two workers, keeping the checkpoints …
//! let live = sample(&Executor::new(2)?, &sim, &meta, &spec, Some(&store))?;
//! // … then replay them on four without warming: the same bits.
//! let mapped = MappedStore::open(&store, sim.config())?;
//! let replayed = replay(&Executor::new(4)?, &sim, &mapped, &spec)?;
//! assert_eq!(replayed.estimate.report().report.cpi().mean().to_bits(),
//!            live.estimate.report().report.cpi().mean().to_bits());
//! # drop(mapped);
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
    Estimate, Executor, ParallelMode, ParallelReport, PipelineStats, Run, WorkerStats, MAX_JOBS,
    PIPELINE_DEPTH,
};
pub use replay::{replay, SampledReplay, UnitMemo, UnitsFile};
pub use warm::{approx_len, sample};
