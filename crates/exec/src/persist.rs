//! Persistence glue between the streamed pipeline and the on-disk
//! checkpoint store: warm once while saving ([`sample_pipeline_saving`]),
//! then replay the store under any compatible machine without re-warming
//! ([`replay_store`]).
//!
//! Both entry points reuse the producer/consumer engine from
//! [`crate::ParallelMode::Pipeline`], so their reports are bit-identical
//! to sequential [`smarts_core::SmartsSim::sample_library`] replay at any
//! `jobs`/`depth`:
//!
//! * **saving** tees the producer — every checkpoint is appended to a
//!   [`CkptWriter`] *before* it enters the channel, so persistence
//!   overlaps both warming and detailed replay and costs no extra pass;
//! * **replaying** opens the store zero-copy ([`MappedStore`]) and lets
//!   each worker pull record *indices* from a shared queue, decoding
//!   lazily through its own [`smarts_ckpt::StoreCursor`] — no channel,
//!   no central producer, and peak checkpoint residency of one rolling
//!   flat image plus one transient checkpoint per worker.
//!
//! A store records its functional-warming geometry fingerprint, so the
//! warm-once/replay-many contract is checked, not assumed: replaying
//! under a machine with a different warm geometry fails with
//! [`CkptError::FingerprintMismatch`](smarts_ckpt::CkptError::FingerprintMismatch),
//! while machines differing only in detailed-core parameters (widths,
//! window, FUs) replay the same store freely.
//!
//! Every entry point has an `_isa` variant generic over the
//! [`Frontend`] that produced (or should replay) the store. The store
//! header records its frontend ([`StoreMeta::isa`]); replaying under a
//! different frontend is refused with a typed
//! [`CkptError::IsaMismatch`](smarts_ckpt::CkptError::IsaMismatch)
//! before any record is decoded. The non-`_isa` functions are the
//! built-in-frontend specializations and behave exactly as before.
//!
//! [`replay_store`] (lazy, mmap-backed) and [`replay_store_eager`]
//! (streaming [`CkptReader`] through the pipeline channel) produce
//! byte-identical reports at any worker count; the eager path is kept
//! as the identity oracle and for callers that cannot map the file.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cancel::PipelineProgress;
use crate::error::ExecError;
use crate::executor::{
    merge_outcomes, Executor, ParallelMode, ParallelReport, PipelineStats, WorkerStats,
};
use crate::pipeline::{finish_pipeline_report, run_pipeline, Residency};
use crate::pool::run_workers;
use smarts_ckpt::{CkptError, CkptReader, CkptWriter, MappedStore, StoreMeta, WriteSummary};
use smarts_core::{
    ModeInstructions, SampleReport, SamplerSpec, SamplingParams, SmartsError, SmartsSim, UnitReplay,
};
use smarts_isa::{BuiltinIsa, IsaId};
use smarts_stats::{SamplerEstimate, SamplerPhase};
use smarts_workloads::{Benchmark, Frontend, Loaded};

/// Result of a warm-and-save run: the live sampling report plus the
/// write-side accounting of the store that now holds the warm state.
#[derive(Debug)]
pub struct SavedSample {
    /// The merged sampling report — bit-identical to a run without
    /// `--save-checkpoints`.
    pub report: ParallelReport,
    /// Records and bytes written to the store.
    pub write: WriteSummary,
}

/// Result of replaying a persisted checkpoint store.
#[derive(Debug)]
pub struct StoreReplay {
    /// The merged sampling report — bit-identical to the run that saved
    /// the store (for the same detailed machine).
    pub report: ParallelReport,
    /// The store's self-describing identity (benchmark, scale, sampling
    /// design, frontend).
    pub meta: StoreMeta,
    /// Records decoded and replayed.
    pub records: u64,
    /// Damage encountered mid-store, if any: the intact prefix above was
    /// still replayed, and this holds the typed error for the rest
    /// (corruption or truncation). `None` for a clean read.
    pub damage: Option<CkptError>,
}

/// Refuses a store written by a different frontend, before any record
/// is touched.
fn check_store_isa<F: Frontend>(meta: &StoreMeta) -> Result<(), ExecError> {
    if meta.isa != F::ID {
        return Err(ExecError::Ckpt(CkptError::IsaMismatch {
            expected: F::ID,
            found: meta.isa,
        }));
    }
    Ok(())
}

/// Reconstructs a store's workload through its recorded frontend. The
/// built-in frontend keeps its historical error shape
/// ([`ExecError::UnknownBenchmark`]); other frontends surface the
/// resolver's own message.
fn resolve_for_replay<F: Frontend>(meta: &StoreMeta) -> Result<Loaded<F>, ExecError> {
    F::resolve(&meta.benchmark, meta.scale).map_err(|message| {
        if F::ID == IsaId::Builtin {
            ExecError::UnknownBenchmark(meta.benchmark.clone())
        } else {
            ExecError::Frontend(message)
        }
    })
}

/// Runs a pipelined sampling simulation exactly like
/// [`Executor::sample`](crate::ParallelDriver) in pipeline mode, while
/// persisting every unit checkpoint to a store at `path`.
///
/// `scale` is the factor the benchmark was scaled by relative to the
/// default suite entry (1.0 if unscaled); it is recorded in the store
/// header so [`replay_store`] can reconstruct the program.
///
/// The writer is created before any thread spawns, so an unwritable path
/// fails fast. A mid-stream write error stops warming and surfaces as
/// [`ExecError::Ckpt`]; nothing is silently dropped.
pub fn sample_pipeline_saving(
    executor: &Executor,
    sim: &SmartsSim,
    bench: &Benchmark,
    scale: f64,
    params: &SamplingParams,
    path: impl AsRef<Path>,
) -> Result<SavedSample, ExecError> {
    sample_pipeline_saving_impl::<BuiltinIsa>(
        executor,
        sim,
        bench.load(),
        bench.name(),
        bench.approx_len(),
        scale,
        params,
        path,
    )
}

/// [`sample_pipeline_saving`] for an arbitrary frontend: the workload is
/// resolved by name through `F` and the store is tagged with `F::ID`.
pub fn sample_pipeline_saving_isa<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    workload: &str,
    scale: f64,
    params: &SamplingParams,
    path: impl AsRef<Path>,
) -> Result<SavedSample, ExecError> {
    let loaded = F::resolve(workload, scale).map_err(ExecError::Frontend)?;
    let approx_len = F::approx_len(workload, scale).map_err(ExecError::Frontend)?;
    sample_pipeline_saving_impl::<F>(
        executor, sim, loaded, workload, approx_len, scale, params, path,
    )
}

#[allow(clippy::too_many_arguments)]
fn sample_pipeline_saving_impl<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    loaded: Loaded<F>,
    name: &str,
    approx_len: u64,
    scale: f64,
    params: &SamplingParams,
    path: impl AsRef<Path>,
) -> Result<SavedSample, ExecError> {
    if executor.mode() == crate::ParallelMode::ShardedWarm {
        // Sharded warming splices per-shard segments into a final store
        // byte-identical to the one this serial producer writes.
        return crate::warm_shard::sample_sharded_warm_saving_impl::<F>(
            executor, sim, loaded, name, approx_len, scale, params, path,
        );
    }
    let jobs = executor.jobs();
    let depth = executor.pipeline_depth();
    let meta = StoreMeta {
        params: *params,
        benchmark: name.to_string(),
        scale,
        isa: F::ID,
    };
    let mut writer = CkptWriter::create(path, sim.config(), &meta)?;
    let program = loaded.program.clone();

    let run = run_pipeline(
        jobs,
        depth,
        &executor.control(),
        move |emit| {
            let mut write_error: Option<CkptError> = None;
            let summary = sim.stream_checkpoints(loaded, params, |checkpoint| {
                if let Err(e) = writer.append(&checkpoint) {
                    write_error = Some(e);
                    return false;
                }
                emit(checkpoint)
            });
            (summary, writer, write_error)
        },
        |checkpoint| sim.replay_owned(&program, params, checkpoint),
    )?;
    let ((summary, writer, write_error), run) = run.split();
    if let Some(e) = write_error {
        return Err(ExecError::Ckpt(e));
    }
    // A cancelled run still flushes the writer: every record already
    // appended is CRC-intact on disk, so the partial store is a valid
    // salvageable prefix rather than a torn file — but the run itself
    // reports cancellation, not a (partial) sample.
    let write = writer.finish()?;
    if executor.cancel_token().is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    let summary = summary.map_err(ExecError::Smarts)?;
    let report = finish_pipeline_report(
        run,
        params,
        jobs,
        depth,
        summary.build_wall,
        summary.emitted,
        crate::ParallelMode::Pipeline,
        None,
    )?;
    Ok(SavedSample { report, write })
}

/// Replays a persisted checkpoint store under `sim`'s machine, skipping
/// functional warming entirely.
///
/// The store is self-describing: benchmark, scale and sampling design
/// come from its header, and the program is reconstructed from the
/// workload suite ([`ExecError::UnknownBenchmark`] if the suite no
/// longer knows the name). Opening validates magic, version, header CRC
/// and the warm-geometry fingerprint against `sim.config()` — those are
/// hard errors. Record-level damage is tolerated: the intact prefix is
/// replayed and the first typed error is reported in
/// [`StoreReplay::damage`]. A store whose intact prefix is empty yields
/// [`ExecError::Ckpt`] with that first error.
///
/// The store is opened zero-copy ([`MappedStore`]) and decoded lazily;
/// the report is byte-identical to [`replay_store_eager`]'s at any
/// worker count.
pub fn replay_store(
    executor: &Executor,
    sim: &SmartsSim,
    path: impl AsRef<Path>,
) -> Result<StoreReplay, ExecError> {
    replay_store_isa::<BuiltinIsa>(executor, sim, path)
}

/// [`replay_store`] for an arbitrary frontend. A store written by a
/// different frontend is refused with a typed
/// [`CkptError::IsaMismatch`](smarts_ckpt::CkptError::IsaMismatch).
pub fn replay_store_isa<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    path: impl AsRef<Path>,
) -> Result<StoreReplay, ExecError> {
    let store = MappedStore::open(path, sim.config())?;
    replay_store_mapped_isa::<F>(executor, sim, &store)
}

/// Replays an already-open [`MappedStore`] — the shared-store path: the
/// job server keeps stores mapped across jobs and replays them here
/// without reopening (or re-reading) the file.
///
/// Workers pull record indices from a shared queue and decode them
/// lazily through per-worker [`smarts_ckpt::StoreCursor`]s over the one
/// shared mapping, so peak checkpoint residency is O(jobs), not
/// O(units) and not O(pipeline depth). Record CRCs are verified on
/// first touch; the first damaged record severs the delta chain, so the
/// intact prefix below it is exactly what gets replayed — the same
/// prefix (and the same report) the eager sequential reader yields.
///
/// # Errors
///
/// As for [`replay_store`], minus the open-time validation (already
/// done by [`MappedStore::open`]).
pub fn replay_store_mapped(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
) -> Result<StoreReplay, ExecError> {
    replay_store_mapped_isa::<BuiltinIsa>(executor, sim, store)
}

/// [`replay_store_mapped`] for an arbitrary frontend.
pub fn replay_store_mapped_isa<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
) -> Result<StoreReplay, ExecError> {
    let jobs = executor.jobs();
    let meta = store.meta().clone();
    check_store_isa::<F>(&meta)?;
    let program = resolve_for_replay::<F>(&meta)?.program;
    let params = meta.params;
    let count = store.len();
    let control = executor.control();
    let cancel = &control.cancel;
    let progress = control.progress.as_deref();

    let queue = AtomicUsize::new(0);
    let replayed = AtomicU64::new(0);
    let residency = Residency::default();
    // First damaged record (index, error): lower claims win, and a
    // severed delta chain means no outcome past the floor can exist.
    let damage: Mutex<Option<(u64, CkptError)>> = Mutex::new(None);
    let note_damage = |index: u64, error: CkptError| {
        let mut guard = damage.lock().unwrap_or_else(|p| p.into_inner());
        match &*guard {
            Some((floor, _)) if *floor <= index => {}
            _ => *guard = Some((index, error)),
        }
    };

    struct WorkerOutput {
        stats: WorkerStats,
        outcomes: Vec<(usize, UnitReplay)>,
    }

    let t0 = Instant::now();
    let outputs = run_workers(jobs, |worker| -> WorkerOutput {
        let start = Instant::now();
        let mut cursor = store.cursor();
        let mut outcomes = Vec::new();
        let mut instructions = ModeInstructions::default();
        loop {
            if cancel.is_cancelled() {
                break;
            }
            let index = queue.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            let flat = match cursor.flat_at(index) {
                Ok(flat) => flat,
                Err(e) => {
                    // Decoding `index` walks the chain through every
                    // earlier record, so the failure is at or before
                    // `index` — and every later claim would hit it too.
                    note_damage(index as u64, e);
                    break;
                }
            };
            let checkpoint = match flat.rebuild_isa::<F>(sim.config()) {
                Ok(checkpoint) => checkpoint,
                Err(detail) => {
                    note_damage(
                        index as u64,
                        CkptError::Corrupted {
                            record: index as u64,
                            detail,
                        },
                    );
                    break;
                }
            };
            let bytes = flat.approx_bytes() + checkpoint.approx_resident_bytes();
            residency.add(bytes);
            let outcome = sim.replay_owned(&program, &params, checkpoint);
            residency.remove(bytes);
            outcome.account(&mut instructions);
            outcomes.push((index, outcome));
            let done = replayed.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(observe) = progress {
                observe(PipelineProgress {
                    emitted: count as u64,
                    replayed: done,
                });
            }
        }
        WorkerOutput {
            stats: WorkerStats {
                worker,
                units: outcomes.len() as u64,
                wall: start.elapsed(),
                instructions,
            },
            outcomes,
        }
    })?;
    let parallel_wall = t0.elapsed();
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }

    let mut workers = Vec::with_capacity(jobs);
    let mut outcomes: Vec<(usize, UnitReplay)> = Vec::with_capacity(count);
    for output in outputs {
        workers.push(output.stats);
        outcomes.extend(output.outcomes);
    }
    let chain_damage = damage.into_inner().unwrap_or_else(|p| p.into_inner());
    // Pre-existing structural damage (a missing or torn index footer
    // already truncated the frame table) takes the same shape: the
    // intact prefix replays, the typed error is surfaced.
    let (records, damage) = match chain_damage {
        Some((index, error)) => (index, Some(error)),
        None => (count as u64, store.damage()),
    };

    let (units, instructions) = merge_outcomes(outcomes);
    if units.is_empty() {
        if let Some(error) = damage {
            return Err(ExecError::Ckpt(error));
        }
        return Err(ExecError::Smarts(SmartsError::EmptySample));
    }
    let report =
        SampleReport::from_units(params, units, instructions, Duration::ZERO, parallel_wall);
    Ok(StoreReplay {
        report: ParallelReport {
            report,
            mode: ParallelMode::Checkpoint,
            jobs,
            workers,
            build_wall: Duration::ZERO,
            parallel_wall,
            pipeline: Some(PipelineStats {
                // No channel: workers claim indices directly.
                depth: 0,
                producer_wall: Duration::ZERO,
                emitted: records,
                peak_resident_checkpoints: residency.peak_count.load(Ordering::Relaxed),
                peak_resident_bytes: residency.peak_bytes.load(Ordering::Relaxed),
            }),
            shard: None,
        },
        meta,
        records,
        damage,
    })
}

/// Result of replaying a sampler-selected subset of a store: the report
/// over the measured units plus the sampler's own estimate and
/// accounting ([`replay_store_sampled`]).
#[derive(Debug)]
pub struct SampledReplay {
    /// The merged report over the units the sampler selected, in stream
    /// order. Deterministic for a fixed (store, spec) pair.
    pub report: ParallelReport,
    /// The store's self-describing identity.
    pub meta: StoreMeta,
    /// The sampler specification that drove unit selection.
    pub spec: SamplerSpec,
    /// The sampler's final estimate: mean, CI half-width, rounds, and
    /// why it stopped.
    pub estimate: SamplerEstimate,
    /// Store record indices actually replayed, ascending.
    pub measured: Vec<u64>,
}

/// Runs the warming pass only, persisting every unit checkpoint to a
/// store at `path` without any detailed replay.
///
/// This is the cold path for sampled jobs: the warm store it writes is
/// byte-identical to the one [`sample_pipeline_saving`] produces (same
/// serial producer, same tee), so a subsequent
/// [`replay_store_sampled`] over it reports exactly what the store-hit
/// path reports. Honors the executor's [`CancelToken`](crate::CancelToken)
/// between units; a cancelled run still flushes the intact prefix and
/// then reports [`ExecError::Cancelled`].
pub fn warm_store_saving(
    executor: &Executor,
    sim: &SmartsSim,
    bench: &Benchmark,
    scale: f64,
    params: &SamplingParams,
    path: impl AsRef<Path>,
) -> Result<WriteSummary, ExecError> {
    warm_store_saving_impl::<BuiltinIsa>(
        executor,
        sim,
        bench.load(),
        bench.name(),
        scale,
        params,
        path,
    )
}

/// [`warm_store_saving`] for an arbitrary frontend.
pub fn warm_store_saving_isa<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    workload: &str,
    scale: f64,
    params: &SamplingParams,
    path: impl AsRef<Path>,
) -> Result<WriteSummary, ExecError> {
    let loaded = F::resolve(workload, scale).map_err(ExecError::Frontend)?;
    warm_store_saving_impl::<F>(executor, sim, loaded, workload, scale, params, path)
}

fn warm_store_saving_impl<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    loaded: Loaded<F>,
    name: &str,
    scale: f64,
    params: &SamplingParams,
    path: impl AsRef<Path>,
) -> Result<WriteSummary, ExecError> {
    let meta = StoreMeta {
        params: *params,
        benchmark: name.to_string(),
        scale,
        isa: F::ID,
    };
    let mut writer = CkptWriter::create(path, sim.config(), &meta)?;
    let cancel = executor.cancel_token();
    let mut write_error: Option<CkptError> = None;
    let summary = sim.stream_checkpoints(loaded, params, |checkpoint| {
        if cancel.is_cancelled() {
            return false;
        }
        match writer.append(&checkpoint) {
            Ok(_) => true,
            Err(e) => {
                write_error = Some(e);
                false
            }
        }
    });
    if let Some(e) = write_error {
        return Err(ExecError::Ckpt(e));
    }
    let write = writer.finish()?;
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    summary.map_err(ExecError::Smarts)?;
    Ok(write)
}

/// One parallel replay pass over an explicit, ascending set of record
/// indices. Unlike the full-store path, record damage here is a hard
/// error: a sampled subset with silently missing units would bias the
/// estimate, so there is no salvage-the-prefix semantics.
struct SubsetReplay {
    outcomes: Vec<(usize, UnitReplay)>,
    workers: Vec<WorkerStats>,
    wall: Duration,
}

#[allow(clippy::too_many_arguments)]
fn replay_subset<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    program: &F::Program,
    params: &SamplingParams,
    indices: &[usize],
    residency: &Residency,
    done_base: &AtomicU64,
) -> Result<SubsetReplay, ExecError> {
    let jobs = executor.jobs();
    let control = executor.control();
    let cancel = &control.cancel;
    let progress = control.progress.as_deref();
    let pool = store.len() as u64;

    let queue = AtomicUsize::new(0);
    let damage: Mutex<Option<(u64, CkptError)>> = Mutex::new(None);
    let note_damage = |index: u64, error: CkptError| {
        let mut guard = damage.lock().unwrap_or_else(|p| p.into_inner());
        match &*guard {
            Some((floor, _)) if *floor <= index => {}
            _ => *guard = Some((index, error)),
        }
    };

    struct WorkerOutput {
        stats: WorkerStats,
        outcomes: Vec<(usize, UnitReplay)>,
    }

    let t0 = Instant::now();
    let outputs = run_workers(jobs, |worker| -> WorkerOutput {
        let start = Instant::now();
        let mut cursor = store.cursor();
        let mut outcomes = Vec::new();
        let mut instructions = ModeInstructions::default();
        loop {
            if cancel.is_cancelled() {
                break;
            }
            // Workers claim *slots* in the ascending index slice, so
            // each worker's claimed indices increase and its cursor only
            // rolls forward through the delta chain.
            let slot = queue.fetch_add(1, Ordering::Relaxed);
            if slot >= indices.len() {
                break;
            }
            let index = indices[slot];
            let flat = match cursor.flat_at(index) {
                Ok(flat) => flat,
                Err(e) => {
                    note_damage(index as u64, e);
                    break;
                }
            };
            let checkpoint = match flat.rebuild_isa::<F>(sim.config()) {
                Ok(checkpoint) => checkpoint,
                Err(detail) => {
                    note_damage(
                        index as u64,
                        CkptError::Corrupted {
                            record: index as u64,
                            detail,
                        },
                    );
                    break;
                }
            };
            let bytes = flat.approx_bytes() + checkpoint.approx_resident_bytes();
            residency.add(bytes);
            let outcome = sim.replay_owned(program, params, checkpoint);
            residency.remove(bytes);
            outcome.account(&mut instructions);
            outcomes.push((index, outcome));
            let done = done_base.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(observe) = progress {
                observe(PipelineProgress {
                    emitted: pool,
                    replayed: done,
                });
            }
        }
        WorkerOutput {
            stats: WorkerStats {
                worker,
                units: outcomes.len() as u64,
                wall: start.elapsed(),
                instructions,
            },
            outcomes,
        }
    })?;
    let wall = t0.elapsed();
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    if let Some((_, error)) = damage.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(ExecError::Ckpt(error));
    }
    let mut workers = Vec::with_capacity(jobs);
    let mut outcomes: Vec<(usize, UnitReplay)> = Vec::with_capacity(indices.len());
    for output in outputs {
        workers.push(output.stats);
        outcomes.extend(output.outcomes);
    }
    Ok(SubsetReplay {
        outcomes,
        workers,
        wall,
    })
}

/// Sums a phase's per-worker accounting into the run-wide ledger,
/// keyed by worker id.
fn fold_workers(acc: &mut Vec<WorkerStats>, phase: Vec<WorkerStats>) {
    for stats in phase {
        match acc.iter_mut().find(|w| w.worker == stats.worker) {
            Some(slot) => {
                slot.units += stats.units;
                slot.wall += stats.wall;
                slot.instructions.fast_forwarded += stats.instructions.fast_forwarded;
                slot.instructions.detailed_warmed += stats.instructions.detailed_warmed;
                slot.instructions.measured += stats.instructions.measured;
            }
            None => acc.push(stats),
        }
    }
}

/// Replays an arbitrary subset of an already-open store's records and
/// merges them into a report, exactly as the full-store path would for
/// those units. Units are mutually independent, so any subset replays
/// in any order; the merge is in ascending record order regardless.
///
/// `indices` is normalized (sorted, deduplicated) before replay.
/// Record damage is a hard [`ExecError::Ckpt`] here — a sampled subset
/// must be complete to be meaningful — and an empty subset is
/// [`SmartsError::EmptySample`].
///
/// # Panics
///
/// Panics when any index is `>= store.len()`: addressing past the
/// intact prefix is a caller bug, mirroring
/// [`MappedStore::record`](smarts_ckpt::MappedStore::record).
pub fn replay_store_indices(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    indices: &[usize],
) -> Result<StoreReplay, ExecError> {
    replay_store_indices_isa::<BuiltinIsa>(executor, sim, store, indices)
}

/// [`replay_store_indices`] for an arbitrary frontend.
pub fn replay_store_indices_isa<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    indices: &[usize],
) -> Result<StoreReplay, ExecError> {
    let meta = store.meta().clone();
    check_store_isa::<F>(&meta)?;
    let program = resolve_for_replay::<F>(&meta)?.program;
    let params = meta.params;
    let mut picks: Vec<usize> = indices.to_vec();
    picks.sort_unstable();
    picks.dedup();
    if let Some(&last) = picks.last() {
        assert!(
            last < store.len(),
            "record {last} out of range for a store of {} records",
            store.len()
        );
    }
    if picks.is_empty() {
        return Err(ExecError::Smarts(SmartsError::EmptySample));
    }
    let residency = Residency::default();
    let done = AtomicU64::new(0);
    let run = replay_subset::<F>(
        executor, sim, store, &program, &params, &picks, &residency, &done,
    )?;
    let records = picks.len() as u64;
    let (units, instructions) = merge_outcomes(run.outcomes);
    if units.is_empty() {
        return Err(ExecError::Smarts(SmartsError::EmptySample));
    }
    let report = SampleReport::from_units(params, units, instructions, Duration::ZERO, run.wall);
    Ok(StoreReplay {
        report: ParallelReport {
            report,
            mode: ParallelMode::Checkpoint,
            jobs: executor.jobs(),
            workers: run.workers,
            build_wall: Duration::ZERO,
            parallel_wall: run.wall,
            pipeline: Some(PipelineStats {
                depth: 0,
                producer_wall: Duration::ZERO,
                emitted: records,
                peak_resident_checkpoints: residency.peak_count.load(Ordering::Relaxed),
                peak_resident_bytes: residency.peak_bytes.load(Ordering::Relaxed),
            }),
            shard: None,
        },
        meta,
        records,
        damage: None,
    })
}

/// Replays an already-open store under a [`SamplerSpec`]: the sampler
/// selects record subsets phase by phase, each phase replays in
/// parallel, and observations feed back in ascending record order — so
/// the phase sequence, the final unit set, and the report are all
/// deterministic for a fixed (store, spec) pair at any worker count.
///
/// For [`SamplerKind::Systematic`](smarts_core::SamplerKind) the
/// sampler issues the whole pool in one phase, reproducing
/// [`replay_store_mapped`]'s unit set. Adaptive sampling stops between
/// phases once the running confidence interval meets the spec's
/// `(±ε, confidence)` target; external cancellation is honored at the
/// same seam via the executor's [`CancelToken`](crate::CancelToken).
///
/// # Errors
///
/// As for [`replay_store_indices`]; additionally, any store damage is a
/// hard [`ExecError::Ckpt`] up front (a sampler needs its designed
/// population intact), and invalid specs surface
/// [`SmartsError::Stats`].
pub fn replay_store_sampled(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    spec: &SamplerSpec,
) -> Result<SampledReplay, ExecError> {
    replay_store_sampled_isa::<BuiltinIsa>(executor, sim, store, spec)
}

/// [`replay_store_sampled`] for an arbitrary frontend.
pub fn replay_store_sampled_isa<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    spec: &SamplerSpec,
) -> Result<SampledReplay, ExecError> {
    spec.validate().map_err(ExecError::Smarts)?;
    if let Some(error) = store.damage() {
        return Err(ExecError::Ckpt(error));
    }
    if store.is_empty() {
        return Err(ExecError::Smarts(SmartsError::EmptySample));
    }
    let meta = store.meta().clone();
    check_store_isa::<F>(&meta)?;
    let program = resolve_for_replay::<F>(&meta)?.program;
    let params = meta.params;

    let mut sampler = spec.build(store.len() as u64).map_err(ExecError::Smarts)?;
    let residency = Residency::default();
    let done = AtomicU64::new(0);
    let mut workers: Vec<WorkerStats> = Vec::new();
    let mut all_outcomes: Vec<(usize, UnitReplay)> = Vec::new();
    let t0 = Instant::now();
    loop {
        if executor.cancel_token().is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        let units = match sampler
            .next_phase()
            .map_err(|e| ExecError::Smarts(SmartsError::Stats(e)))?
        {
            SamplerPhase::Done => break,
            SamplerPhase::Measure(units) => units,
        };
        let mut picks: Vec<usize> = units.iter().map(|&u| u as usize).collect();
        picks.sort_unstable();
        let run = replay_subset::<F>(
            executor, sim, store, &program, &params, &picks, &residency, &done,
        )?;
        fold_workers(&mut workers, run.workers);
        let mut phase_outcomes = run.outcomes;
        phase_outcomes.sort_unstable_by_key(|(index, _)| *index);
        for (index, outcome) in &phase_outcomes {
            // Partial units (only ever the stream's final record) carry
            // no complete measurement; they stay issued but unobserved.
            if let UnitReplay::Complete { sample, .. } = outcome {
                sampler.observe(*index as u64, sample.cpi);
            }
        }
        all_outcomes.extend(phase_outcomes);
    }
    let estimate = sampler
        .estimate()
        .map_err(|e| ExecError::Smarts(SmartsError::Stats(e)))?;
    let parallel_wall = t0.elapsed();
    let records = all_outcomes.len() as u64;
    let mut measured: Vec<u64> = all_outcomes.iter().map(|(i, _)| *i as u64).collect();
    measured.sort_unstable();
    let (units, instructions) = merge_outcomes(all_outcomes);
    if units.is_empty() {
        return Err(ExecError::Smarts(SmartsError::EmptySample));
    }
    workers.sort_unstable_by_key(|w| w.worker);
    let report =
        SampleReport::from_units(params, units, instructions, Duration::ZERO, parallel_wall);
    Ok(SampledReplay {
        report: ParallelReport {
            report,
            mode: ParallelMode::Checkpoint,
            jobs: executor.jobs(),
            workers,
            build_wall: Duration::ZERO,
            parallel_wall,
            pipeline: Some(PipelineStats {
                depth: 0,
                producer_wall: Duration::ZERO,
                emitted: records,
                peak_resident_checkpoints: residency.peak_count.load(Ordering::Relaxed),
                peak_resident_bytes: residency.peak_bytes.load(Ordering::Relaxed),
            }),
            shard: None,
        },
        meta,
        spec: *spec,
        estimate,
        measured,
    })
}

/// Replays a persisted checkpoint store through the pipeline channel,
/// decoding records eagerly on a producer thread ([`CkptReader`]) while
/// `jobs` consumers replay them.
///
/// [`replay_store`] (lazy, mmap-backed) produces a byte-identical
/// report; this path is kept as the identity oracle for tests and for
/// callers that cannot memory-map the file.
///
/// # Errors
///
/// As for [`replay_store`].
pub fn replay_store_eager(
    executor: &Executor,
    sim: &SmartsSim,
    path: impl AsRef<Path>,
) -> Result<StoreReplay, ExecError> {
    replay_store_eager_isa::<BuiltinIsa>(executor, sim, path)
}

/// [`replay_store_eager`] for an arbitrary frontend.
pub fn replay_store_eager_isa<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    path: impl AsRef<Path>,
) -> Result<StoreReplay, ExecError> {
    let jobs = executor.jobs();
    let depth = executor.pipeline_depth();
    let mut reader = CkptReader::open(path, sim.config())?;
    let meta = reader.meta().clone();
    check_store_isa::<F>(&meta)?;
    let program = resolve_for_replay::<F>(&meta)?.program;
    let params = meta.params;

    let run = run_pipeline(
        jobs,
        depth,
        &executor.control(),
        move |emit| {
            let start = Instant::now();
            let mut damage = None;
            while let Some(next) = reader.next_checkpoint_isa::<F>() {
                match next {
                    Ok(checkpoint) => {
                        if !emit(checkpoint) {
                            break;
                        }
                    }
                    Err(e) => {
                        damage = Some(e);
                        break;
                    }
                }
            }
            (reader.records_read(), damage, start.elapsed())
        },
        |checkpoint| sim.replay_owned(&program, &params, checkpoint),
    )?;
    if executor.cancel_token().is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    let ((records, damage, read_wall), run) = run.split();
    if run.outcomes.is_empty() {
        if let Some(e) = damage {
            return Err(ExecError::Ckpt(e));
        }
    }
    let report = finish_pipeline_report(
        run,
        &params,
        jobs,
        depth,
        read_wall,
        records,
        crate::ParallelMode::Pipeline,
        None,
    )?;
    Ok(StoreReplay {
        report,
        meta,
        records,
        damage,
    })
}
