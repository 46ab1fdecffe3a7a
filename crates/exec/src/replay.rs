//! The replay side of the spine: **one** index-claiming worker loop
//! ([`replay_subset`]) over a [`MappedStore`], behind [`replay`], the one
//! entry point that replays stored checkpoints without re-warming.
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

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::cancel::PipelineProgress;
use crate::error::ExecError;
use crate::executor::{
    Estimate, Executor, ParallelMode, ParallelReport, Replayed, Run, WorkerLog, WorkerStats,
};
use crate::pipeline::Residency;
use crate::pool::run_workers;
use crate::warm::resolve;
use smarts_ckpt::{CkptError, MappedStore, StoreMeta};
use smarts_core::{SamplerSpec, SamplingParams, SmartsError, SmartsSim, UnitReplay, UnitSample};
use smarts_energy::ActivityCounters;
use smarts_isa::crc32;
use smarts_stats::{drive_sampler, SamplerEstimate, StatsError};
use smarts_workloads::Frontend;

/// Result of replaying a sampler-selected subset of a store: the report
/// over the measured units plus the sampler's own estimate and
/// accounting ([`Estimate::Sampled`]).
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
///
/// A memo outlives its process as an *outcomes file* beside the store
/// ([`UnitMemo::file_beside`], [`UnitMemo::load`], [`UnitMemo::save`]),
/// keyed in full — simulator, store contents and build — so a file for
/// anything else is ignored, never borrowed from.
#[derive(Debug)]
pub struct UnitMemo {
    /// What every outcome is a function of ([`UnitMemo::key`]).
    key: String,
    slots: Box<[OnceLock<UnitReplay>]>,
}

/// An outcomes file as [`UnitMemo::files_beside`] finds it.
#[derive(Debug)]
pub struct UnitsFile {
    /// Where the file is.
    pub path: PathBuf,
    /// The file name's digest of the simulator its outcomes are for.
    pub machine: u64,
    /// Outcomes held (0 for a file that does not parse for this store).
    pub outcomes: usize,
    /// Whether a replay of this store by this build would book them.
    pub usable: bool,
}

/// Outcomes file layout (little-endian): magic | key length u32 | key |
/// count u64 | count × [`ENTRY_WORDS`] words | CRC-32 of all before it.
const UNITS_MAGIC: [u8; 8] = *b"SMARTSUM";
/// Words per outcome: record index, tag (0 complete, 1 partial),
/// `detailed_warmed`, `start_instr` (a partial unit's `measured`),
/// `cycles`, `instructions`, `cpi` and `epi` as IEEE bits, the counters.
const ENTRY_WORDS: usize = 8 + ActivityCounters::COUNT;
/// Key bytes a file is read for (the key is compared, never trusted).
const MAX_KEY_BYTES: usize = 1 << 16;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continued from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.iter().fold(hash, step)
}

/// Whether every record of `store` passes its CRC. A booked outcome
/// never decodes its record, so only then can booking hide no damage.
fn verifies(store: &MappedStore) -> bool {
    store.damage().is_none() && (0..store.len()).all(|i| store.record(i).is_ok())
}

/// Record `index`'s outcome as the words a file stores.
fn entry(index: usize, outcome: &UnitReplay) -> [u64; ENTRY_WORDS] {
    let mut words = [0; ENTRY_WORDS];
    match outcome {
        UnitReplay::Complete {
            sample: s,
            detailed_warmed,
        } => {
            let head = [0, *detailed_warmed, s.start_instr, s.cycles, s.instructions];
            words[1..6].copy_from_slice(&head);
            words[6..8].copy_from_slice(&[s.cpi.to_bits(), s.epi.to_bits()]);
            words[8..].copy_from_slice(&s.counters.to_array());
        }
        UnitReplay::Partial {
            detailed_warmed,
            measured,
        } => words[1..4].copy_from_slice(&[1, *detailed_warmed, *measured]),
    }
    words[0] = index as u64;
    words
}

/// The outcome an [`entry`] holds; `None` for an unknown tag.
fn outcome(entry: &[u64]) -> Option<UnitReplay> {
    let &[_, tag, detailed_warmed, start_instr, cycles, instructions, cpi, epi, ref counts @ ..] =
        entry
    else {
        return None;
    };
    let sample = UnitSample {
        start_instr,
        cycles,
        instructions,
        cpi: f64::from_bits(cpi),
        epi: f64::from_bits(epi),
        counters: ActivityCounters::from_array(counts.try_into().ok()?),
    };
    match tag {
        0 => Some(UnitReplay::Complete {
            sample: Box::new(sample),
            detailed_warmed,
        }),
        1 => Some(UnitReplay::Partial {
            detailed_warmed,
            measured: start_instr,
        }),
        _ => None,
    }
}

/// The key and outcomes in the file at `path`, for a store of `records`
/// records: `None` for a missing, unreadable or garbage file — a short
/// read, a bad CRC, a count past `records`, an index out of range or not
/// above the one before (so no repeat), an unknown tag. Reads no more
/// bytes than such a file can hold.
fn read_units(path: &Path, records: usize) -> Option<(String, Vec<(usize, UnitReplay)>)> {
    let most = records.checked_mul(ENTRY_WORDS * 8)? + MAX_KEY_BYTES + 24;
    let mut bytes = Vec::new();
    let file = File::open(path).ok()?;
    file.take(most as u64 + 1).read_to_end(&mut bytes).ok()?;
    let (body, crc) = bytes.split_last_chunk::<4>()?;
    (bytes.len() <= most && crc32(body) == u32::from_le_bytes(*crc)).then_some(())?;
    let (len, rest) = body.strip_prefix(&UNITS_MAGIC)?.split_first_chunk::<4>()?;
    let (key, rest) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
    let word = |w: &[u8]| Some(u64::from_le_bytes(w.try_into().ok()?));
    let words: Vec<u64> = rest.chunks(8).map(word).collect::<Option<_>>()?;
    let (&count, entries) = words.split_first()?;
    let fits = count <= records as u64 && count as usize * ENTRY_WORDS == entries.len();
    fits.then_some(())?;
    let mut floor = 0;
    let outcomes = (entries.chunks_exact(ENTRY_WORDS))
        .map(|entry| {
            let index = usize::try_from(entry[0]).ok();
            let index = index.filter(|&i| i >= floor && i < records)?;
            floor = index + 1;
            Some((index, outcome(entry)?))
        })
        .collect::<Option<_>>()?;
    Some((String::from_utf8(key.to_vec()).ok()?, outcomes))
}

impl UnitMemo {
    /// What outcomes are a function of, compared whole: the store
    /// (header, record count and a digest of every record's CRC, so
    /// another store at the same path differs), then the simulator
    /// (`sim` is its `Debug` text: machine and energy model).
    fn key(store: &MappedStore, sim: &str) -> String {
        let crc = |h, i| fnv1a(h, &store.record_span(i).crc.to_le_bytes());
        let crcs = (0..store.len()).fold(FNV_OFFSET, crc);
        let (meta, fingerprint, n) = (store.meta(), store.fingerprint(), store.len());
        format!("{meta:?} {fingerprint:016x} {n} {crcs:016x}\n{sim}")
    }

    /// An empty memo for replays of `store` under `sim`.
    pub fn new(sim: &SmartsSim, store: &MappedStore) -> Self {
        UnitMemo {
            key: Self::key(store, &format!("{sim:?}")),
            slots: (0..store.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Outcomes held.
    pub fn known(&self) -> usize {
        self.slots.iter().filter_map(OnceLock::get).count()
    }

    /// Where `sim`'s outcomes for the store at `store` are kept, beside
    /// it: `<store>.<16-hex machine digest>.units`.
    pub fn file_beside(store: &Path, sim: &SmartsSim) -> PathBuf {
        let machine = fnv1a(FNV_OFFSET, format!("{sim:?}").as_bytes());
        let mut name = store.as_os_str().to_owned();
        name.push(format!(".{machine:016x}.units"));
        PathBuf::from(name)
    }

    /// A memo for replays of `store` under `sim` by `build` (an identity
    /// of the running program: a rebuilt one misses) holding the outcomes
    /// saved at `path` — none, and never an error, when the file is
    /// missing, unreadable, damaged, for another simulator, store or
    /// build, or when any record of `store` fails its CRC.
    pub fn load(path: &Path, sim: &SmartsSim, store: &MappedStore, build: &str) -> Self {
        let memo = UnitMemo::new(sim, store);
        let key = format!("{build}\n{}", memo.key);
        let file = read_units(path, store.len()).filter(|(found, _)| *found == key);
        if let Some((_, outcomes)) = file.filter(|_| verifies(store)) {
            for (index, outcome) in outcomes {
                let _ = memo.slots[index].set(outcome);
            }
        }
        memo
    }

    /// Writes every outcome held to `path`, for [`UnitMemo::load`] by
    /// `build`: to a temporary file beside it, renamed over it, so a
    /// reader finds the old file or the new one (a torn one fails its CRC).
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn save(&self, path: &Path, build: &str) -> std::io::Result<()> {
        let key = format!("{build}\n{}", self.key);
        // A snapshot: other runs may go on filling slots.
        let entries: Vec<[u64; ENTRY_WORDS]> = (self.slots.iter().enumerate())
            .filter_map(|(index, slot)| Some(entry(index, slot.get()?)))
            .collect();
        let len = (key.len() as u32).to_le_bytes();
        let mut out = [&UNITS_MAGIC[..], &len, key.as_bytes()].concat();
        let words = std::iter::once(entries.len() as u64).chain(entries.into_iter().flatten());
        out.extend(words.flat_map(u64::to_le_bytes));
        out.extend(crc32(&out).to_le_bytes());

        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut temp = path.as_os_str().to_owned();
        temp.push(format!(".{}-{seq}.tmp", std::process::id()));
        let written = std::fs::write(&temp, &out).and_then(|()| std::fs::rename(&temp, path));
        if written.is_err() {
            let _ = std::fs::remove_file(&temp);
        }
        written
    }

    /// Every outcomes file beside the store at `path`, by name, inspected
    /// for the open `store` and this `build`.
    pub fn files_beside(path: &Path, store: &MappedStore, build: &str) -> Vec<UnitsFile> {
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        let store_name = path.file_name().unwrap_or_default().to_string_lossy();
        let prefix = format!("{store_name}.");
        let entries = std::fs::read_dir(dir.unwrap_or(Path::new(".")));
        let mut files: Vec<UnitsFile> = (entries.into_iter().flatten())
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let hex = name.strip_prefix(&prefix)?.strip_suffix(".units")?;
                let machine = u64::from_str_radix(hex, 16).ok()?;
                let path = path.with_file_name(&name);
                let (key, outcomes) = read_units(&path, store.len()).unwrap_or_default();
                let sim = key.rsplit_once('\n').map_or("", |(_, sim)| sim);
                let usable = fnv1a(FNV_OFFSET, sim.as_bytes()) == machine
                    && key == format!("{build}\n{}", Self::key(store, sim))
                    && verifies(store);
                let outcomes = outcomes.len();
                Some(UnitsFile {
                    path,
                    machine,
                    outcomes,
                    usable,
                })
            })
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files
    }
}

/// What stays the same across the passes of one store replay.
struct ReplayContext<'a, F: Frontend> {
    executor: &'a Executor,
    sim: &'a SmartsSim,
    store: &'a MappedStore,
    /// Resolved by the first pass with a unit to simulate.
    program: OnceLock<F::Program>,
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
        if memo.is_some_and(|memo| memo.key != UnitMemo::key(store, &format!("{sim:?}"))) {
            return Err(ExecError::MemoMismatch);
        }
        let found = store.meta().isa;
        if found != F::ID {
            let expected = F::ID;
            return Err(ExecError::Ckpt(CkptError::IsaMismatch { expected, found }));
        }
        Ok(ReplayContext {
            executor,
            sim,
            store,
            program: OnceLock::new(),
            params: store.meta().params,
            residency: Residency::default(),
            done: AtomicU64::new(0),
        })
    }

    /// The store's workload program, resolved on first use.
    fn program(&self) -> Result<&F::Program, ExecError> {
        if let Some(program) = self.program.get() {
            return Ok(program);
        }
        let meta = self.store.meta();
        let program = resolve::<F>(&meta.benchmark, meta.scale)?.program;
        Ok(self.program.get_or_init(|| program))
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
    let cancel = ctx.executor.cancel_token();
    let progress = ctx.executor.progress.as_deref();
    let pool = ctx.store.len() as u64;
    let memo = ctx.executor.memo.as_deref();
    // Slots only ever fill, so a pass whose every unit is known at its
    // start simulates none and needs no program.
    let unknown = |&index: &usize| memo.is_none_or(|memo| memo.slots[index].get().is_none());
    let program = indices
        .iter()
        .any(unknown)
        .then(|| ctx.program())
        .transpose()?;

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
        let mut log = WorkerLog::default();
        while !cancel.is_cancelled() {
            // Workers claim *slots* in the ascending index slice, so
            // each worker's claimed indices increase and its cursor only
            // rolls forward through the delta chain.
            let Some(&index) = indices.get(queue.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let started = Instant::now();
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
                // Invariant: `program` was resolved above when any claimed
                // index was unknown at the pass's start, and slots only
                // fill — so a unit that needs simulating always has it.
                let program = program.expect("a pass with an unknown unit resolved its program");
                let outcome = ctx.sim.replay_owned(program, &ctx.params, checkpoint);
                ctx.residency.remove(bytes);
                if let Some(slot) = slot {
                    let _ = slot.set(outcome.clone());
                }
                outcome
            };
            log.record(index, outcome, started);
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

/// Replays an open store under `spec` without warming — the replay
/// side's one entry point. The store is self-describing: workload, scale
/// and sampling design come from its header, and the program is
/// reconstructed through `F` (only if a unit is left to simulate:
/// [`Executor::with_memo`]). A caller that keeps stores mapped across
/// runs, as the job server does, replays them without reopening the file.
///
/// The systematic spec replays every record and tolerates record-level
/// damage: CRCs are verified on first touch, the intact prefix below the
/// first damaged record is replayed — the prefix (and the report) a
/// sequential reader yields — and [`Run::damage`] holds the typed error,
/// as it does for structural damage the open found (a missing or torn
/// index footer). A sampler's spec selects record subsets phase by
/// phase, each replayed in parallel, deterministically for a fixed
/// (store, spec) pair; it needs its designed population intact, so any
/// damage is an error.
///
/// # Errors
///
/// [`ExecError::Ckpt`] for a store written by another frontend, a
/// systematic replay whose intact prefix is empty or a sampled replay of
/// a damaged store; [`ExecError::UnknownBenchmark`] /
/// [`ExecError::Frontend`] when `F` can no longer resolve the recorded
/// workload; [`ExecError::MemoMismatch`]; an invalid spec as
/// [`ExecError::Smarts`]; [`ExecError::Cancelled`]; worker panics.
pub fn replay<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    spec: &SamplerSpec,
) -> Result<Run, ExecError> {
    spec.validate().map_err(StatsError::from)?;
    if !spec.is_systematic() {
        let sampled = replay_sampled::<F>(executor, sim, store, spec)?;
        return Ok(Run {
            estimate: Estimate::Sampled(sampled),
            write: None,
            damage: None,
        });
    }
    let ctx = ReplayContext::<F>::new(executor, sim, store)?;
    let every: Vec<usize> = (0..store.len()).collect();
    let (run, chain_damage) = replay_subset(&ctx, &every)?;
    let records = store.len() as u64;
    let damage = chain_damage.or_else(|| Some((records, store.damage()?)));
    if run.outcomes.is_empty() {
        if let Some((_, error)) = damage {
            return Err(ExecError::Ckpt(error));
        }
    }
    let records = damage.as_ref().map_or(records, |(intact, _)| *intact);
    Ok(Run {
        estimate: Estimate::Systematic(ctx.report(run, records)?),
        write: None,
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

/// A sampler's replay of an open store ([`replay`] under a stratified or
/// adaptive spec): [`drive_sampler`] selects record subsets phase by
/// phase, each phase replays in parallel, and observations feed back in
/// ascending record order — so the phase sequence, the final unit set,
/// and the report are all deterministic for a fixed (store, spec) pair
/// at any worker count. Adaptive sampling stops between phases once the
/// running confidence interval meets the spec's `(±ε, confidence)`
/// target; external cancellation is honored at the same seam via the
/// executor's [`CancelToken`](crate::CancelToken), and once more after
/// the last phase. Any store damage is a hard [`ExecError::Ckpt`]: a
/// subset with silently missing units would bias the estimate.
pub(crate) fn replay_sampled<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    store: &MappedStore,
    spec: &SamplerSpec,
) -> Result<SampledReplay, ExecError> {
    if let Some(error) = store.damage() {
        return Err(ExecError::Ckpt(error));
    }
    if store.is_empty() {
        return Err(ExecError::Smarts(SmartsError::EmptySample));
    }
    let ctx = ReplayContext::<F>::new(executor, sim, store)?;
    let sampler = spec.build(store.len() as u64)?;
    let cancelled = || executor.cancel_token().is_cancelled();
    let mut all = Replayed::gather([], Duration::ZERO);
    let t0 = Instant::now();
    let estimate = drive_sampler(sampler, |units| {
        if cancelled() {
            return Err(ExecError::Cancelled);
        }
        let picks: Vec<usize> = units.iter().map(|&u| u as usize).collect();
        let (phase, damage) = replay_subset(&ctx, &picks)?;
        if let Some((_, error)) = damage {
            return Err(ExecError::Ckpt(error));
        }
        fold_workers(&mut all.workers, phase.workers);
        // Partial units (only ever the stream's final records) carry no
        // complete measurement; they stay issued but unobserved.
        let observed = (phase.outcomes.iter())
            .filter_map(|(index, outcome)| match outcome {
                UnitReplay::Complete { sample, .. } => Some((*index as u64, sample.cpi)),
                UnitReplay::Partial { .. } => None,
            })
            .collect();
        all.outcomes.extend(phase.outcomes);
        Ok(observed)
    })?;
    if cancelled() {
        return Err(ExecError::Cancelled);
    }
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
