//! The warm side of the spine: **producer → optional sink → optional
//! consumers**, one function ([`run_warm`]) behind every entry point
//! that executes a workload.
//!
//! * The **producer** is the in-order functional-warming pass
//!   ([`SmartsSim::stream_checkpoints_with`]), copying each checkpoint's
//!   warm state into one a consumer has handed back
//!   ([`smarts_core::WarmSpares`]) — no warm state is allocated per unit.
//! * The **sink** tees every checkpoint into a [`CkptWriter`] *before*
//!   it is offered downstream, so persistence overlaps both warming and
//!   detailed replay and costs no extra pass.
//! * The **consumers** are `jobs` threads replaying checkpoints off the
//!   bounded channel ([`crate::pipeline`]); a warm-only run has none and
//!   drives the same producer with an `emit` that hands the written
//!   checkpoint's warm state straight back and polls cancellation.
//!
//! A one-worker run with no sink needs none of the three: it is
//! [`SmartsSim::sample_loaded`] on the calling thread, the same warming
//! pass replaying each checkpoint as it reaches it.
//!
//! A store header records exactly `(workload, scale)`, so the public
//! entry points take exactly that pair and resolve the program from it
//! through the frontend `F`: header and program cannot disagree.

use std::path::Path;
use std::time::Duration;

use crate::error::ExecError;
use crate::executor::{Executor, ParallelMode, ParallelReport, WorkerStats, PIPELINE_DEPTH};
use crate::pipeline::{run_pipeline, Residency};
use smarts_ckpt::{CkptWriter, StoreMeta, WriteSummary};
use smarts_core::{SamplingParams, SmartsSim, UnitCheckpoint, Warming};
use smarts_isa::IsaId;
use smarts_workloads::{Frontend, Loaded};

/// What one warming run leaves behind. Invariant, by construction of
/// [`run_warm`]: `report` is `Some` exactly when the run replayed and
/// `write` exactly when it had a sink, so the callers' `expect`s on them
/// restate their own arguments.
pub(crate) struct Warmed {
    /// The merged report of a run that replayed what it warmed.
    pub report: Option<ParallelReport>,
    /// What the sink wrote, when the run had one.
    pub write: Option<WriteSummary>,
}

/// Warms `loaded` once, teeing each checkpoint into a store created at
/// `save` and, when `replay` is set, into the executor's consumers. The
/// writer exists before any thread spawns, so an unwritable path fails
/// fast.
///
/// A cancelled run still finishes the sink — every record already
/// appended is CRC-intact on disk, so the partial store is a valid
/// salvageable prefix rather than a torn file — and then reports
/// [`ExecError::Cancelled`], not a partial sample.
pub(crate) fn run_warm<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    loaded: Loaded<F>,
    params: &SamplingParams,
    save: Option<(&Path, &StoreMeta)>,
    replay: bool,
) -> Result<Warmed, ExecError> {
    params.validate().map_err(ExecError::Smarts)?;
    let jobs = executor.jobs();
    let cancel = executor.cancel_token();
    if replay && jobs == 1 && save.is_none() {
        let report = sample_inline(cancel, sim, loaded, params)?;
        return Ok(Warmed {
            report: Some(report),
            write: None,
        });
    }
    if params.warming == Warming::None {
        return Err(ExecError::NoFunctionalWarming);
    }
    let mut sink = save
        .map(|(path, meta)| CkptWriter::create(path, sim.config(), meta))
        .transpose()?;
    let program = loaded.program.clone();
    // Every checkpoint's warm state goes back to the producer once it is
    // replayed (or, warm-only, written): at most this many are in flight.
    let spares = &*executor.spares;
    spares.keep(PIPELINE_DEPTH + jobs + 1);
    // The one producer: the in-order warming pass, teed into the sink.
    // A failed append ends the stream and is the run's error.
    let produce = |emit: &mut dyn FnMut(UnitCheckpoint<F>) -> bool| {
        let mut failed = None;
        let summary = sim.stream_checkpoints_with(loaded, params, spares, |checkpoint| {
            if let Some(writer) = sink.as_mut() {
                if let Err(e) = writer.append(&checkpoint) {
                    failed = Some(ExecError::Ckpt(e));
                    return false;
                }
            }
            emit(checkpoint)
        });
        match failed {
            Some(e) => Err(e),
            None => summary.map_err(ExecError::Smarts),
        }
    };
    let residency = Residency::default();
    let (summary, replayed) = if replay {
        let consume = |checkpoint| sim.replay_with(&program, params, checkpoint, spares);
        let (summary, replayed) = run_pipeline(
            jobs,
            PIPELINE_DEPTH,
            &executor.control(),
            &residency,
            produce,
            consume,
        )?;
        (summary, Some(replayed))
    } else {
        // No consumers: a channel nobody reads refuses every send, so the
        // producer runs on this thread against an `emit` that recycles
        // the written checkpoint and polls cancellation.
        let emit = &mut |checkpoint: UnitCheckpoint<F>| {
            spares.put(checkpoint.into_warm());
            !cancel.is_cancelled()
        };
        (produce(emit), None)
    };
    let summary = summary?;
    let write = sink.map(CkptWriter::finish).transpose()?;
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    let stats = residency.stats(PIPELINE_DEPTH, summary.build_wall, summary.emitted);
    let report = replayed
        .map(|run| run.into_report(params, jobs, ParallelMode::Pipeline, stats))
        .transpose()?;
    Ok(Warmed { report, write })
}

/// A one-worker run that keeps no store: [`SmartsSim::sample_loaded`] on
/// this thread. It has no channel, so it reports no [`PipelineStats`]
/// and no progress, and `cancel` is polled only before and after it.
///
/// [`PipelineStats`]: crate::PipelineStats
fn sample_inline<F: Frontend>(
    cancel: &crate::CancelToken,
    sim: &SmartsSim,
    loaded: Loaded<F>,
    params: &SamplingParams,
) -> Result<ParallelReport, ExecError> {
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    let report = sim.sample_loaded(loaded, params)?;
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    let worker = WorkerStats {
        worker: 0,
        units: report.sample_size(),
        memoized: 0,
        wall: report.wall_detailed,
        instructions: report.instructions,
    };
    Ok(ParallelReport {
        parallel_wall: report.wall_total(),
        report,
        mode: ParallelMode::Pipeline,
        jobs: 1,
        workers: vec![worker],
        build_wall: Duration::ZERO,
        pipeline: None,
        shard: None,
    })
}

/// Resolves `(workload, scale)` through `F`, beside the header a store
/// of this run records: that same pair.
fn open_run<F: Frontend>(
    workload: &str,
    scale: f64,
    params: &SamplingParams,
) -> Result<(Loaded<F>, StoreMeta), ExecError> {
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
    Ok((loaded, meta))
}

/// Runs one pipelined sampling simulation of `workload` at `scale`
/// under frontend `F`: the warming producer overlaps `jobs` replaying
/// consumers and the deterministic merge reduces their units in stream
/// order. With `save`, every unit checkpoint is also persisted to a
/// store at that path — byte-identical at any `jobs` — which
/// [`crate::replay_store`] then replays to the same report without
/// warming. At one worker without `save` this is
/// [`SmartsSim::sample_loaded`] on the calling thread: the same report.
///
/// # Errors
///
/// [`ExecError::UnknownBenchmark`] / [`ExecError::Frontend`] when `F`
/// cannot resolve the workload, [`ExecError::NoFunctionalWarming`] for
/// a [`Warming::None`] design with `save` or more than one worker,
/// [`ExecError::Ckpt`] when the store cannot be created or a write fails
/// mid-stream (nothing is silently dropped), [`ExecError::Cancelled`],
/// sampling errors, and worker panics as [`ExecError::WorkerPanic`].
pub fn sample<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    workload: &str,
    scale: f64,
    params: &SamplingParams,
    save: Option<&Path>,
) -> Result<(ParallelReport, Option<WriteSummary>), ExecError> {
    let (loaded, meta) = open_run::<F>(workload, scale, params)?;
    let save = save.map(|path| (path, &meta));
    let warmed = run_warm::<F>(executor, sim, loaded, params, save, true)?;
    let report = warmed.report.expect("a replaying run merges a report");
    Ok((report, warmed.write))
}

/// Runs the warming pass only, persisting every unit checkpoint to a
/// store at `path` without any detailed replay — the cold path of the
/// sampled strategies, which need random access to the whole grid
/// before they pick a unit. The store is byte-identical to the one
/// [`sample`] saves, so a [`crate::replay_store_sampled`] over it
/// reports exactly what a store hit reports.
///
/// # Errors
///
/// As for [`sample`].
pub fn warm_store<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    workload: &str,
    scale: f64,
    params: &SamplingParams,
    path: &Path,
) -> Result<WriteSummary, ExecError> {
    let (loaded, meta) = open_run::<F>(workload, scale, params)?;
    let warmed = run_warm::<F>(executor, sim, loaded, params, Some((path, &meta)), false)?;
    Ok(warmed.write.expect("a run with a sink reports its write"))
}
