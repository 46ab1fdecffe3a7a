//! The warm side of the spine: **producer → optional sink → optional
//! consumers**, one function ([`run_warm`]) behind [`sample`], the one
//! entry point that executes a workload.
//!
//! * The **producer** is the in-order functional-warming pass
//!   ([`SmartsSim::stream_checkpoints_with`]), copying each checkpoint's
//!   warm state into one a consumer has handed back
//!   ([`smarts_core::WarmSpares`]) — no warm state is allocated per unit.
//! * The **sink** tees every checkpoint into a [`CkptWriter`] *before*
//!   it is offered downstream, so persistence overlaps both warming and
//!   detailed replay and costs no extra pass.
//! * The **consumers** are `jobs` threads replaying checkpoints off the
//!   bounded channel ([`crate::pipeline`]) — one worker too, so a plain
//!   one-worker run warms the next unit while it replays this one; a
//!   warm-only run has none and drives the same producer with an `emit`
//!   that hands the written checkpoint's warm state straight back and
//!   polls cancellation.
//!
//! Only the [`Warming::None`] design runs on the calling thread: its
//! units are not independent — each episode starts from the state the
//! last one left — so it is [`SmartsSim::sample_loaded`] itself, with no
//! channel, no store and one worker.
//!
//! A store header records exactly `(workload, scale)`, so [`sample`]
//! takes exactly that pair and resolves the program from it through the
//! frontend `F`: header and program cannot disagree.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::error::ExecError;
use crate::executor::{
    Estimate, Executor, ParallelMode, ParallelReport, Run, WorkerStats, PIPELINE_DEPTH,
};
use crate::pipeline::{run_pipeline, Residency};
use crate::replay::replay_sampled;
use smarts_ckpt::{CkptWriter, MappedStore, StoreMeta, WriteSummary};
use smarts_core::{SamplerSpec, SamplingParams, SmartsSim, UnitCheckpoint, Warming};
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
    if params.warming == Warming::None {
        // Each stale-state episode starts from the state the last one
        // left: one replaying thread, and no checkpoint to keep.
        if !replay || save.is_some() || jobs > 1 {
            return Err(ExecError::NoFunctionalWarming);
        }
        return Ok(Warmed {
            report: Some(sample_stale(cancel, sim, loaded, params)?),
            write: None,
        });
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
        let (summary, replayed) = run_pipeline(executor, &residency, produce, consume)?;
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

/// The [`Warming::None`] design: [`SmartsSim::sample_loaded`] on this
/// thread, each unit replaying on the warm state the previous unit's
/// episode left. It has no channel, so it reports no [`PipelineStats`]
/// and no progress, and `cancel` is polled only before and after it.
///
/// [`PipelineStats`]: crate::PipelineStats
fn sample_stale<F: Frontend>(
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

/// Resolves `(workload, scale)` through `F`: the pair a store header
/// records, for a warming run and a store replay alike. The built-in
/// frontend keeps its historical error shape
/// ([`ExecError::UnknownBenchmark`]); other frontends surface the
/// resolver's own message.
pub(crate) fn resolve<F: Frontend>(workload: &str, scale: f64) -> Result<Loaded<F>, ExecError> {
    F::resolve(workload, scale).map_err(|message| match F::ID {
        IsaId::Builtin => ExecError::UnknownBenchmark(workload.to_string()),
        _ => ExecError::Frontend(message),
    })
}

/// Runs one sampling simulation of `workload` at `scale` under frontend
/// `F` — the warm side's one entry point.
///
/// Under the systematic spec the warming producer overlaps `jobs`
/// replaying consumers and the deterministic merge reduces their units
/// in stream order. With `save`, every unit checkpoint is also persisted
/// to a store at that path — byte-identical at any `jobs` — which
/// [`crate::replay`] then replays to the same report without warming.
/// One worker is one consumer: warming still overlaps its replay, and
/// the report is [`SmartsSim::sample_loaded`]'s.
///
/// A sampler needs random access to the whole grid before it picks a
/// unit, so under its spec the pass only writes a store — the one at
/// `save`, or a temporary one deleted afterwards, on failure too — and
/// the selection is then replayed from it: the bytes a [`crate::replay`]
/// of a saved store reports.
///
/// # Errors
///
/// [`ExecError::UnknownBenchmark`] / [`ExecError::Frontend`] when `F`
/// cannot resolve the workload, [`ExecError::NoFunctionalWarming`] for
/// a [`Warming::None`] design with a store, a sampler or more than one
/// worker, [`ExecError::Ckpt`] when the store cannot be created or a
/// write fails mid-stream (nothing is silently dropped),
/// [`ExecError::Cancelled`], an invalid spec and other sampling errors
/// as [`ExecError::Smarts`], and worker panics as
/// [`ExecError::WorkerPanic`].
pub fn sample<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    workload: &str,
    scale: f64,
    params: &SamplingParams,
    spec: &SamplerSpec,
    save: Option<&Path>,
) -> Result<Run, ExecError> {
    spec.validate().map_err(smarts_stats::StatsError::from)?;
    let loaded = resolve::<F>(workload, scale)?;
    let meta = StoreMeta {
        params: *params,
        benchmark: workload.to_string(),
        scale,
        isa: F::ID,
    };
    if spec.is_systematic() {
        let save = save.map(|path| (path, &meta));
        let warmed = run_warm::<F>(executor, sim, loaded, params, save, true)?;
        let report = warmed.report.expect("a replaying run merges a report");
        return Ok(Run {
            estimate: Estimate::Systematic(report),
            write: warmed.write,
            damage: None,
        });
    }
    let temp = temp_store_path();
    let path = save.unwrap_or(&temp);
    let run = run_warm::<F>(executor, sim, loaded, params, Some((path, &meta)), false).and_then(
        |warmed| {
            let store = MappedStore::open(path, sim.config())?;
            Ok(Run {
                estimate: Estimate::Sampled(replay_sampled::<F>(executor, sim, &store, spec)?),
                write: save.and(warmed.write),
                damage: None,
            })
        },
    );
    if save.is_none() {
        let _ = std::fs::remove_file(&temp);
    }
    run
}

/// A store path no other run of this process or machine is using, for a
/// sampler's run that keeps no store.
fn temp_store_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("smarts-sample-{}-{seq}.ck", std::process::id()))
}
