//! The replay side of the spine: **one** index-claiming worker loop
//! ([`replay_subset`]) over a [`MappedStore`], behind every entry point
//! that replays stored checkpoints without re-warming.
//!
//! The store is opened zero-copy and each worker decodes lazily through
//! its own [`smarts_ckpt::StoreCursor`] — no channel, no central
//! producer, and peak checkpoint residency of one rolling flat image
//! plus one transient checkpoint per worker. Reports are bit-identical
//! to the run that saved the store (for the same detailed machine) at
//! any worker count.
//!
//! A store records its functional-warming geometry fingerprint, so the
//! warm-once/replay-many contract is checked, not assumed: replaying
//! under a machine with a different warm geometry fails with
//! [`CkptError::FingerprintMismatch`](smarts_ckpt::CkptError::FingerprintMismatch),
//! while machines differing only in detailed-core parameters (widths,
//! window, FUs) replay the same store freely. It also records the
//! frontend that wrote it ([`StoreMeta::isa`]); replaying under a
//! different `F` is refused with a typed
//! [`CkptError::IsaMismatch`](smarts_ckpt::CkptError::IsaMismatch)
//! before any record is decoded.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::cancel::PipelineProgress;
use crate::error::ExecError;
use crate::executor::{Executor, ParallelMode, ParallelReport, Replayed, WorkerLog, WorkerStats};
use crate::pipeline::Residency;
use crate::pool::run_workers;
use smarts_ckpt::{CkptError, MappedStore, StoreMeta};
use smarts_core::{SamplerSpec, SamplingParams, SmartsError, SmartsSim, UnitReplay};
use smarts_isa::IsaId;
use smarts_stats::{SamplerEstimate, SamplerPhase};
use smarts_workloads::Frontend;

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

/// Outcomes of store records already replayed, one slot per record: a
/// unit's `W + U` episode is a pure function of (checkpoint, machine), so
/// a run through [`Executor::with_memo`] books a filled slot, not a second
/// simulation. Reads take no lock; two runs racing on an empty slot
/// compute one value and the first `set` wins.
#[derive(Debug)]
pub struct UnitMemo {
    /// All the outcomes are valid for: simulator, store identity, records.
    key: (SmartsSim, u64, usize),
    slots: Box<[OnceLock<UnitReplay>]>,
}

impl UnitMemo {
    fn key(sim: &SmartsSim, store: &MappedStore) -> (SmartsSim, u64, usize) {
        let identity = store.meta().fingerprint(sim.config());
        (sim.clone(), identity, store.len())
    }

    /// An empty memo for replays of `store` under `sim`.
    pub fn new(sim: &SmartsSim, store: &MappedStore) -> Self {
        UnitMemo {
            key: Self::key(sim, store),
            slots: (0..store.len()).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// Refuses a store written by a different frontend, then reconstructs
/// its workload's program from the recorded `(benchmark, scale)`. The
/// built-in frontend keeps its historical error shape
/// ([`ExecError::UnknownBenchmark`]); other frontends surface the
/// resolver's own message.
fn program_of<F: Frontend>(meta: &StoreMeta) -> Result<F::Program, ExecError> {
    if meta.isa != F::ID {
        return Err(ExecError::Ckpt(CkptError::IsaMismatch {
            expected: F::ID,
            found: meta.isa,
        }));
    }
    match F::resolve(&meta.benchmark, meta.scale) {
        Ok(loaded) => Ok(loaded.program),
        Err(_) if F::ID == IsaId::Builtin => {
            Err(ExecError::UnknownBenchmark(meta.benchmark.clone()))
        }
        Err(message) => Err(ExecError::Frontend(message)),
    }
}

/// What stays the same across the passes of one store replay.
struct ReplayContext<'a, F: Frontend> {
    executor: &'a Executor,
    sim: &'a SmartsSim,
    store: &'a MappedStore,
    program: F::Program,
    params: SamplingParams,
    residency: Residency,
    /// Units replayed so far, across passes (the progress counter).
    done: AtomicU64,
}

impl<'a, F: Frontend> ReplayContext<'a, F> {
    fn new(
        executor: &'a Executor,
        sim: &'a SmartsSim,
        store: &'a MappedStore,
    ) -> Result<Self, ExecError> {
        let memo = executor.memo.as_deref();
        if memo.is_some_and(|memo| memo.key != UnitMemo::key(sim, store)) {
            return Err(ExecError::MemoMismatch);
        }
        Ok(ReplayContext {
            executor,
            sim,
            store,
            program: program_of::<F>(store.meta())?,
            params: store.meta().params,
            residency: Residency::default(),
            done: AtomicU64::new(0),
        })
    }

    /// The report of a finished replay of `records` store records.
    fn report(&self, run: Replayed, records: u64) -> Result<ParallelReport, ExecError> {
        run.into_report(
            &self.params,
            self.executor.jobs(),
            ParallelMode::Checkpoint,
            // No channel, no producer: workers claim indices directly.
            self.residency.stats(0, Duration::ZERO, records),
        )
    }
}

/// One parallel replay pass over an ascending slice of record indices —
/// the only loop that decodes and replays store records. Returns the
/// outcomes beside the first damaged record `(index, error)`, if any:
/// the lowest claim wins, and decoding `index` walks the delta chain
/// through every earlier record, so a severed chain means no outcome at
/// or past that floor can exist. What damage *means* is the caller's
/// call.
fn replay_subset<F: Frontend>(
    ctx: &ReplayContext<'_, F>,
    indices: &[usize],
) -> Result<(Replayed, Option<(u64, CkptError)>), ExecError> {
    let control = ctx.executor.control();
    let cancel = &control.cancel;
    let progress = control.progress.as_deref();
    let pool = ctx.store.len() as u64;
    let memo = ctx.executor.memo.as_deref();

    let queue = AtomicUsize::new(0);
    let damage: Mutex<Option<(u64, CkptError)>> = Mutex::new(None);
    let note_damage = |index: usize, error: CkptError| {
        let mut guard = damage.lock().unwrap_or_else(|p| p.into_inner());
        match &*guard {
            Some((floor, _)) if *floor <= index as u64 => {}
            _ => *guard = Some((index as u64, error)),
        }
    };

    let t0 = Instant::now();
    let logs = run_workers(ctx.executor.jobs(), |worker| {
        let mut cursor = ctx.store.cursor();
        let mut log = WorkerLog::start();
        while !cancel.is_cancelled() {
            // Workers claim *slots* in the ascending index slice, so
            // each worker's claimed indices increase and its cursor only
            // rolls forward through the delta chain.
            let Some(&index) = indices.get(queue.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let slot = memo.map(|memo| &memo.slots[index]);
            let outcome = if let Some(known) = slot.and_then(OnceLock::get) {
                log.memoized += 1;
                known.clone()
            } else {
                let flat = match cursor.flat_at(index) {
                    Ok(flat) => flat,
                    Err(e) => {
                        // Every later claim would hit the same break.
                        note_damage(index, e);
                        break;
                    }
                };
                let checkpoint = match flat.rebuild_isa::<F>(ctx.sim.config()) {
                    Ok(checkpoint) => checkpoint,
                    Err(detail) => {
                        let record = index as u64;
                        note_damage(index, CkptError::Corrupted { record, detail });
                        break;
                    }
                };
                let bytes = flat.approx_bytes() + checkpoint.approx_resident_bytes();
                ctx.residency.add(bytes);
                let outcome = ctx.sim.replay_owned(&ctx.program, &ctx.params, checkpoint);
                ctx.residency.remove(bytes);
                if let Some(slot) = slot {
                    let _ = slot.set(outcome.clone());
                }
                outcome
            };
            log.record(index, outcome);
            let replayed = ctx.done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(observe) = progress {
                observe(PipelineProgress {
                    emitted: pool,
                    replayed,
                });
            }
        }
        log.finish(worker)
    })?;
    let run = Replayed::gather(logs, t0.elapsed());
    if cancel.is_cancelled() {
        return Err(ExecError::Cancelled);
    }
    let damage = damage.into_inner().unwrap_or_else(|p| p.into_inner());
    Ok((run, damage))
}

/// Replays a persisted checkpoint store under `sim`'s machine, skipping
/// functional warming entirely: [`replay_store_mapped`] on a store it
/// opens (and closes) itself.
///
/// Opening validates magic, version, header CRC and the warm-geometry
/// fingerprint against `sim.config()` — those are hard errors.
pub fn replay_store<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    path: impl AsRef<Path>,
) -> Result<StoreReplay, ExecError> {
    let store = MappedStore::open(path, sim.config())?;
    replay_store_mapped::<F>(executor, sim, &store)
}

/// Replays every record of an already-open [`MappedStore`] — the
/// shared-store path: the job server keeps stores mapped across jobs and
/// replays them here without reopening (or re-reading) the file.
///
/// The store is self-describing: workload, scale and sampling design
/// come from its header, and the program is reconstructed through `F`.
/// Record-level damage is tolerated: record CRCs are verified on first
/// touch, the intact prefix below the first damaged record is replayed
/// — the same prefix (and the same report) a sequential reader yields —
/// and the first typed error is reported in [`StoreReplay::damage`], as
/// is pre-existing structural damage (a missing or torn index footer
/// that already truncated the frame table).
///
/// # Errors
///
/// [`ExecError::Ckpt`] for a store written by another frontend or whose
/// intact prefix is empty, [`ExecError::UnknownBenchmark`] /
/// [`ExecError::Frontend`] when `F` can no longer resolve the recorded
/// workload, [`ExecError::Cancelled`], and worker panics.
pub fn replay_store_mapped<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
) -> Result<StoreReplay, ExecError> {
    let ctx = ReplayContext::<F>::new(executor, sim, store)?;
    let every: Vec<usize> = (0..store.len()).collect();
    let (run, chain_damage) = replay_subset(&ctx, &every)?;
    let (records, damage) = match chain_damage {
        Some((index, error)) => (index, Some(error)),
        None => (store.len() as u64, store.damage()),
    };
    if run.outcomes.is_empty() {
        if let Some(error) = damage {
            return Err(ExecError::Ckpt(error));
        }
    }
    Ok(StoreReplay {
        report: ctx.report(run, records)?,
        meta: store.meta().clone(),
        records,
        damage,
    })
}

/// Sums a phase's per-worker accounting into the run-wide ledger,
/// keyed by worker id.
fn fold_workers(acc: &mut Vec<WorkerStats>, phase: Vec<WorkerStats>) {
    for stats in phase {
        match acc.iter_mut().find(|w| w.worker == stats.worker) {
            Some(slot) => {
                slot.units += stats.units;
                slot.memoized += stats.memoized;
                slot.wall += stats.wall;
                slot.instructions.fast_forwarded += stats.instructions.fast_forwarded;
                slot.instructions.detailed_warmed += stats.instructions.detailed_warmed;
                slot.instructions.measured += stats.instructions.measured;
            }
            None => acc.push(stats),
        }
    }
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
/// As for [`replay_store_mapped`], except that any store damage is a
/// hard [`ExecError::Ckpt`] — a sampler needs its designed population
/// intact, and a subset with silently missing units would bias the
/// estimate — and invalid specs surface [`SmartsError::Stats`].
pub fn replay_store_sampled<F: Frontend>(
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
    let ctx = ReplayContext::<F>::new(executor, sim, store)?;
    let stats_error = |e| ExecError::Smarts(SmartsError::Stats(e));

    let mut sampler = spec.build(store.len() as u64).map_err(ExecError::Smarts)?;
    let mut all = Replayed::gather([], Duration::ZERO);
    let t0 = Instant::now();
    loop {
        if executor.cancel_token().is_cancelled() {
            return Err(ExecError::Cancelled);
        }
        let units = match sampler.next_phase().map_err(stats_error)? {
            SamplerPhase::Done => break,
            SamplerPhase::Measure(units) => units,
        };
        let mut picks: Vec<usize> = units.iter().map(|&u| u as usize).collect();
        picks.sort_unstable();
        let (mut phase, damage) = replay_subset(&ctx, &picks)?;
        if let Some((_, error)) = damage {
            return Err(ExecError::Ckpt(error));
        }
        fold_workers(&mut all.workers, phase.workers);
        phase.outcomes.sort_unstable_by_key(|(index, _)| *index);
        for (index, outcome) in &phase.outcomes {
            // Partial units (only ever the stream's final record) carry
            // no complete measurement; they stay issued but unobserved.
            if let UnitReplay::Complete { sample, .. } = outcome {
                sampler.observe(*index as u64, sample.cpi);
            }
        }
        all.outcomes.extend(phase.outcomes);
    }
    let estimate = sampler.estimate().map_err(stats_error)?;
    all.wall = t0.elapsed();
    all.workers.sort_unstable_by_key(|w| w.worker);
    let mut measured: Vec<u64> = all.outcomes.iter().map(|(i, _)| *i as u64).collect();
    measured.sort_unstable();
    let records = measured.len() as u64;
    Ok(SampledReplay {
        report: ctx.report(all, records)?,
        meta: store.meta().clone(),
        spec: *spec,
        estimate,
        measured,
    })
}
