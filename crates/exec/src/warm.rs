//! The warm side of the spine: **producer → optional sink → optional
//! consumers**, one function ([`run_warm`]) behind every entry point
//! that executes a workload.
//!
//! * The **producer** is the in-order functional-warming pass
//!   ([`SmartsSim::stream_checkpoints`]), or the sharded stitcher
//!   ([`crate::warm_shard`]) when the executor's `warm_jobs` is above
//!   one. Both emit the same checkpoints in the same order.
//! * The **sink** tees every checkpoint into a [`CkptWriter`] *before*
//!   it is offered downstream, so persistence overlaps both warming and
//!   detailed replay and costs no extra pass.
//! * The **consumers** are `jobs` threads replaying checkpoints off the
//!   bounded channel ([`crate::pipeline`]); a warm-only run has none and
//!   drives the same producer with an `emit` that only polls
//!   cancellation.
//!
//! A store header records exactly `(workload, scale)`, so the public
//! entry points take exactly that pair and resolve the program from it
//! through the frontend `F`: header and program cannot disagree.

use std::path::Path;
use std::time::Duration;

use crate::error::ExecError;
use crate::executor::{Executor, ParallelMode, ParallelReport};
use crate::pipeline::{run_pipeline, Residency};
use crate::warm_shard::{produce_sharded, ShardWarmStats};
use smarts_ckpt::{CkptWriter, StoreMeta, WriteSummary};
use smarts_core::{SamplingParams, SmartsSim, UnitCheckpoint};
use smarts_isa::IsaId;
use smarts_workloads::{Frontend, Loaded};

/// The store a run writes, and where it lives: shard segments become its
/// siblings.
type Sink<'p> = (CkptWriter, &'p Path);

/// What a producer hands back once its stream ends.
pub(crate) struct Produced {
    /// Checkpoints offered downstream.
    pub emitted: u64,
    pub producer_wall: Duration,
    /// Present when the sharded producer ran.
    pub shard: Option<ShardWarmStats>,
    /// The sink, returned for the caller to finish.
    pub sink: Option<CkptWriter>,
    /// Why the stream ended early, unless cancellation or the consumers
    /// leaving did it.
    pub error: Option<ExecError>,
}

/// The serial producer: one in-order warming pass, teed into `sink`.
fn produce_serial<F: Frontend>(
    sim: &SmartsSim,
    loaded: Loaded<F>,
    params: &SamplingParams,
    mut sink: Option<CkptWriter>,
    emit: &mut dyn FnMut(UnitCheckpoint<F>) -> bool,
) -> Produced {
    let mut error = None;
    let summary = sim.stream_checkpoints(loaded, params, |checkpoint| {
        if let Some(writer) = sink.as_mut() {
            if let Err(e) = writer.append(&checkpoint) {
                error = Some(ExecError::Ckpt(e));
                return false;
            }
        }
        emit(checkpoint)
    });
    let (emitted, producer_wall) = match summary {
        Ok(summary) => (summary.emitted, summary.build_wall),
        Err(e) => {
            error.get_or_insert(ExecError::Smarts(e));
            (0, Duration::ZERO)
        }
    };
    Produced {
        emitted,
        producer_wall,
        shard: None,
        sink,
        error,
    }
}

/// What one warming run leaves behind.
pub(crate) struct Warmed {
    /// The merged report of a run that replayed what it warmed.
    pub report: Option<ParallelReport>,
    /// What the sink wrote, when the run had one.
    pub write: Option<WriteSummary>,
    pub shard: Option<ShardWarmStats>,
}

/// Warms `loaded` once, teeing each checkpoint into `sink` and, when
/// `replay` is set, into the executor's consumers.
///
/// A cancelled run still finishes the sink — every record already
/// appended is CRC-intact on disk, so the partial store is a valid
/// salvageable prefix rather than a torn file — and then reports
/// [`ExecError::Cancelled`], not a partial sample.
pub(crate) fn run_warm<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    loaded: Loaded<F>,
    approx_len: u64,
    params: &SamplingParams,
    sink: Option<Sink<'_>>,
    replay: bool,
) -> Result<Warmed, ExecError> {
    params.validate().map_err(ExecError::Smarts)?;
    let (jobs, depth) = (executor.jobs(), executor.pipeline_depth());
    let cancel = executor.cancel_token();
    let program = loaded.program.clone();
    let (sink, store) = sink.unzip();
    let produce = |emit: &mut dyn FnMut(UnitCheckpoint<F>) -> bool| {
        if executor.warm_jobs() > 1 {
            produce_sharded::<F>(
                executor, sim, &loaded, approx_len, params, store, sink, emit,
            )
        } else {
            produce_serial::<F>(sim, loaded, params, sink, emit)
        }
    };
    let residency = Residency::default();
    let (mut produced, replayed) = if replay {
        let consume = |checkpoint| sim.replay_owned(&program, params, checkpoint);
        let (produced, replayed) = run_pipeline(
            jobs,
            depth,
            &executor.control(),
            &residency,
            produce,
            consume,
        )?;
        (produced, Some(replayed))
    } else {
        // No consumers: a channel nobody reads refuses every send, so the
        // producer runs on this thread against an `emit` that only polls
        // cancellation.
        (produce(&mut |_| !cancel.is_cancelled()), None)
    };
    if let Some(e) = produced.error.take() {
        return Err(e);
    }
    let write = produced.sink.take().map(CkptWriter::finish).transpose()?;
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    let mode = match produced.shard {
        Some(_) => ParallelMode::ShardedWarm,
        None => ParallelMode::Pipeline,
    };
    let stats = residency.stats(depth, produced.producer_wall, produced.emitted);
    let report = replayed
        .map(|run| run.into_report(params, jobs, mode, stats, produced.shard.clone()))
        .transpose()?;
    Ok(Warmed {
        report,
        write,
        shard: produced.shard,
    })
}

/// Resolves `(workload, scale)` through `F` and, for a saving run,
/// creates the store whose header records that same pair. The writer
/// exists before any thread spawns, so an unwritable path fails fast.
fn open_run<'p, F: Frontend>(
    sim: &SmartsSim,
    workload: &str,
    scale: f64,
    params: &SamplingParams,
    save: Option<&'p Path>,
) -> Result<(Loaded<F>, Option<Sink<'p>>), ExecError> {
    let loaded = F::resolve(workload, scale).map_err(|message| {
        // The built-in frontend keeps its historical error shape.
        if F::ID == IsaId::Builtin {
            ExecError::UnknownBenchmark(workload.to_string())
        } else {
            ExecError::Frontend(message)
        }
    })?;
    let meta = StoreMeta {
        params: *params,
        benchmark: workload.to_string(),
        scale,
        isa: F::ID,
    };
    let sink = save
        .map(|path| CkptWriter::create(path, sim.config(), &meta).map(|writer| (writer, path)))
        .transpose()?;
    Ok((loaded, sink))
}

/// Runs one pipelined sampling simulation of `workload` at `scale`
/// under frontend `F`: the warming producer overlaps `jobs` replaying
/// consumers and the deterministic merge reduces their units in stream
/// order. With `save`, every unit checkpoint is also persisted to a
/// store at that path — byte-identical at any `jobs`, depth or
/// `warm_jobs` — which [`crate::replay_store`] then replays to the same
/// report without warming.
///
/// `approx_len` is the stream-length estimate the caller derived
/// `params` from; sharded warming plans its shards with it.
///
/// # Errors
///
/// [`ExecError::UnknownBenchmark`] / [`ExecError::Frontend`] when `F`
/// cannot resolve the workload, [`ExecError::Ckpt`] when the store
/// cannot be created or a write fails mid-stream (nothing is silently
/// dropped), [`ExecError::Cancelled`], sampling errors, and worker
/// panics as [`ExecError::WorkerPanic`].
pub fn sample<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    workload: &str,
    scale: f64,
    approx_len: u64,
    params: &SamplingParams,
    save: Option<&Path>,
) -> Result<(ParallelReport, Option<WriteSummary>), ExecError> {
    let (loaded, sink) = open_run::<F>(sim, workload, scale, params, save)?;
    let warmed = run_warm::<F>(executor, sim, loaded, approx_len, params, sink, true)?;
    let report = warmed.report.expect("a replaying run merges a report");
    Ok((report, warmed.write))
}

/// Runs the warming pass only, persisting every unit checkpoint to a
/// store at `path` without any detailed replay — the cold path of the
/// sampled strategies, which need random access to the whole grid
/// before they pick a unit. The store is byte-identical to the one
/// [`sample`] saves, so a [`crate::replay_store_sampled`] over it
/// reports exactly what a store hit reports. Returns the shard
/// accounting beside the write summary when `warm_jobs > 1` warmed it.
///
/// # Errors
///
/// As for [`sample`].
pub fn warm_store<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    workload: &str,
    scale: f64,
    approx_len: u64,
    params: &SamplingParams,
    path: &Path,
) -> Result<(WriteSummary, Option<ShardWarmStats>), ExecError> {
    let (loaded, sink) = open_run::<F>(sim, workload, scale, params, Some(path))?;
    let warmed = run_warm::<F>(executor, sim, loaded, approx_len, params, sink, false)?;
    let write = warmed.write.expect("a run with a sink reports its write");
    Ok((write, warmed.shard))
}
