//! Checkpointed sampling: pay the fast-forward once, replay the sample
//! many times.
//!
//! The paper's closing argument is that SMARTS's simulation rate is
//! bounded by fast-forwarding/functional warming, not by the detailed
//! simulator — so the way to go faster still is to eliminate the
//! fast-forward. That is exactly what the authors later built as
//! *TurboSMARTS / SimFlex checkpointing*: store the architectural and
//! warmable microarchitectural state at each sampling unit's
//! warming-start point, then reconstitute units directly.
//!
//! This module implements that extension. A [`CheckpointLibrary`] is
//! built with one functional-warming pass; [`SmartsSim::sample_library`]
//! then measures the whole sample without executing a single
//! fast-forward instruction. Because the long-history warm state is
//! stored per checkpoint, the library can be replayed against any
//! machine that shares the warmable-state geometry (caches, TLBs,
//! predictor) — e.g. sweeps over FU counts, window sizes, store-buffer
//! depth, or branch-penalty parameters reuse one library.
//!
//! Memory cost: the library is **delta-resident**. Each unit keeps its
//! copy-on-write memory snapshot (cheap — unmodified pages are shared)
//! plus only the sparse set of warm-state words that changed since the
//! previous unit; one full warm-word image (the first unit's) anchors
//! the chain. Consecutive units share almost all warm state, so
//! residency is O(base + Σ deltas) rather than O(units × warm size) —
//! the same delta representation the on-disk store uses, ported
//! in-memory. A [`UnitCheckpoint`] is rebuilt transiently at replay
//! time by rolling a cursor along the delta chain; a small cursor pool
//! makes sequential (and mostly-sequential parallel) replays O(delta)
//! per unit instead of O(chain).

use crate::engine::{EngineSnapshot, FunctionalEngine};
use crate::error::SmartsError;
use crate::sampler::{
    ModeInstructions, SampleReport, SamplingParams, SmartsSim, UnitSample, Warming,
};
use smarts_isa::{BuiltinIsa, Isa};
use smarts_uarch::{MachineConfig, Pipeline, WarmState};
use smarts_workloads::{Benchmark, Loaded};
use std::collections::HashSet;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One reconstitutable sampling unit: architectural state plus warm
/// microarchitectural state at the unit's detailed-warming start.
///
/// Checkpoints are produced either in bulk by
/// [`SmartsSim::build_library`] or one at a time by
/// [`SmartsSim::stream_checkpoints`], and replayed with
/// [`SmartsSim::replay_checkpoint`] (or [`SmartsSim::replay_unit`] via a
/// library).
/// Generic over the instruction-set frontend that produced it (default:
/// the built-in one); the warm state is frontend-independent because all
/// frontends warm through the shared record vocabulary.
pub struct UnitCheckpoint<I: Isa = BuiltinIsa> {
    unit_start: u64,
    snapshot: EngineSnapshot<I>,
    warm: WarmState,
}

impl<I: Isa> Clone for UnitCheckpoint<I> {
    fn clone(&self) -> Self {
        UnitCheckpoint {
            unit_start: self.unit_start,
            snapshot: self.snapshot.clone(),
            warm: self.warm.clone(),
        }
    }
}

impl<I: Isa> fmt::Debug for UnitCheckpoint<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnitCheckpoint")
            .field("unit_start", &self.unit_start)
            .field("snapshot", &self.snapshot)
            .finish_non_exhaustive()
    }
}

impl<I: Isa> UnitCheckpoint<I> {
    /// Assembles a checkpoint from decoded parts (the checkpoint-store
    /// load path). The parts must describe one coherent warming-pass
    /// state — the store guarantees this by construction, serializing
    /// exactly what [`SmartsSim::stream_checkpoints`] emitted.
    pub fn from_parts(unit_start: u64, snapshot: EngineSnapshot<I>, warm: WarmState) -> Self {
        UnitCheckpoint {
            unit_start,
            snapshot,
            warm,
        }
    }

    /// The unit's start offset in the instruction stream.
    pub fn unit_start(&self) -> u64 {
        self.unit_start
    }

    /// The architectural snapshot at the unit's warming-start point.
    pub fn snapshot(&self) -> &EngineSnapshot<I> {
        &self.snapshot
    }

    /// The warm microarchitectural state at the unit's warming-start
    /// point.
    pub fn warm(&self) -> &WarmState {
        &self.warm
    }

    /// Approximate bytes this checkpoint holds alive: its memory
    /// snapshot's resident pages plus its warm-state copy.
    ///
    /// Pages shared copy-on-write with *other* checkpoints are counted
    /// in full here (an upper bound on the marginal footprint); use
    /// [`CheckpointLibrary::approx_resident_bytes`] for a deduplicated
    /// total across a whole library.
    pub fn approx_resident_bytes(&self) -> u64 {
        (self.snapshot.memory_resident_bytes() + self.warm.approx_bytes()) as u64
    }
}

/// Summary of one [`SmartsSim::stream_checkpoints`] pass.
#[derive(Debug, Clone, Copy)]
pub struct StreamSummary {
    /// Checkpoints offered to the consumer.
    pub emitted: u64,
    /// Wall-clock of the warming pass (the producer's critical path).
    pub build_wall: Duration,
    /// Whether the consumer stopped the stream before the natural end.
    pub stopped: bool,
}

/// Summary of one [`stream_checkpoints_range`] drive.
#[derive(Debug, Clone, Copy)]
pub struct RangeSummary {
    /// Checkpoints offered to the consumer.
    pub emitted: u64,
    /// Whether the consumer stopped the stream before the range end.
    pub stopped: bool,
}

/// Drives functional warming across one contiguous range of the
/// systematic grid, emitting each unit's checkpoint at its boundary:
/// the inner loop of [`SmartsSim::stream_checkpoints`], exposed so
/// sharded warming can run disjoint grid subranges on their own
/// threads from fast-forwarded start states and re-drive shard
/// prefixes during boundary stitching.
///
/// `grid_start` must lie on the grid (`offset + i·interval`);
/// `grid_end` is an exclusive unit-index bound (`u64::MAX` for "until
/// the stream ends"). The engine is expected to stand at or before
/// `grid_start`'s warm-start point; `params` must already be
/// validated. At most `max_units` checkpoints are emitted. On return
/// the engine stands wherever the last fast-forward left it — for a
/// completed range, at the last emitted unit's warm-start point.
pub fn stream_checkpoints_range<I: Isa>(
    engine: &mut FunctionalEngine<I>,
    warm: &mut WarmState,
    params: &SamplingParams,
    grid_start: u64,
    grid_end: u64,
    max_units: Option<u64>,
    emit: &mut dyn FnMut(UnitCheckpoint<I>) -> bool,
) -> RangeSummary {
    let mut emitted: u64 = 0;
    let mut stopped = false;
    let mut unit_index = grid_start;
    while unit_index < grid_end {
        if let Some(max) = max_units {
            if emitted >= max {
                break;
            }
        }
        let unit_start = unit_index * params.unit_size;
        let warm_start = unit_start.saturating_sub(params.detailed_warming);
        match params.warming {
            Warming::None => engine.fast_forward(warm_start),
            Warming::Functional => engine.fast_forward_warming(warm_start, warm),
        };
        if engine.finished() {
            break;
        }
        if engine.position() > unit_start {
            // Overlapping designs (k·U < W) can leave the engine past
            // this unit entirely; skip to the next one.
            unit_index += params.interval;
            continue;
        }
        // The unit (and its detailed warming) must fit in the stream;
        // probe cheaply by checkpointing now and validating on replay.
        let checkpoint = UnitCheckpoint {
            unit_start,
            snapshot: engine.snapshot(),
            warm: warm.clone(),
        };
        if !emit(checkpoint) {
            stopped = true;
            break;
        }
        emitted += 1;
        unit_index += params.interval;
    }
    RangeSummary { emitted, stopped }
}

/// Outcome of replaying one checkpointed sampling unit in isolation.
///
/// The accounting fields let callers rebuild the exact
/// [`ModeInstructions`] a sequential replay pass would have produced,
/// whichever order (or thread) the units were actually measured in.
#[derive(Debug, Clone)]
pub enum UnitReplay {
    /// The unit measured all `U` instructions.
    Complete {
        /// The measured unit (boxed: it carries full activity counters,
        /// dwarfing the `Partial` variant).
        sample: Box<UnitSample>,
        /// Instructions consumed by detailed warming before the unit.
        detailed_warmed: u64,
    },
    /// The stream ended inside the unit; no sample is recorded but the
    /// consumed instructions still count toward the mode breakdown.
    Partial {
        /// Instructions consumed by detailed warming before the unit.
        detailed_warmed: u64,
        /// Instructions measured before the stream ended (`< U`).
        measured: u64,
    },
}

impl UnitReplay {
    /// Adds this replay's consumed instructions to a mode breakdown —
    /// the one accounting rule shared by the sequential replay loop and
    /// every parallel worker/merge path.
    pub fn account(&self, instructions: &mut ModeInstructions) {
        match self {
            UnitReplay::Complete {
                sample,
                detailed_warmed,
            } => {
                instructions.detailed_warmed += detailed_warmed;
                instructions.measured += sample.instructions;
            }
            UnitReplay::Partial {
                detailed_warmed,
                measured,
            } => {
                instructions.detailed_warmed += detailed_warmed;
                instructions.measured += measured;
            }
        }
    }
}

/// One unit's delta-resident record inside a [`CheckpointLibrary`]:
/// the copy-on-write memory snapshot plus the sparse set of warm-state
/// words that differ from the previous unit's image.
#[derive(Debug, Clone)]
struct LibraryUnit {
    unit_start: u64,
    snapshot: EngineSnapshot,
    /// `(word index, new value)` pairs against the previous unit's
    /// warm-word image (empty for the first unit — its full image is
    /// the library's `base_warm`).
    warm_delta: Vec<(u32, u64)>,
}

/// A warm-word image positioned at one unit of the delta chain, kept in
/// a small pool so mostly-sequential replays advance O(delta) per unit
/// instead of re-applying the chain from the base every time.
#[derive(Debug, Clone)]
struct WarmCursor {
    unit: usize,
    words: Vec<u64>,
}

/// How many rolled-forward warm images the library keeps around for
/// reuse. Sequential replay needs one; a handful covers parallel
/// workers striding through disjoint index ranges.
const CURSOR_POOL_CAP: usize = 8;

/// A library of per-unit checkpoints for one benchmark and one sampling
/// design, built by a single functional-warming pass.
#[derive(Debug)]
pub struct CheckpointLibrary {
    params: SamplingParams,
    program: smarts_isa::Program,
    warm_geometry: MachineConfig,
    base_warm: Vec<u64>,
    units: Vec<LibraryUnit>,
    cursors: Mutex<Vec<WarmCursor>>,
    build_wall: Duration,
}

impl Clone for CheckpointLibrary {
    fn clone(&self) -> Self {
        // The cursor pool is a cache, not state — a clone starts empty.
        CheckpointLibrary {
            params: self.params,
            program: self.program.clone(),
            warm_geometry: self.warm_geometry.clone(),
            base_warm: self.base_warm.clone(),
            units: self.units.clone(),
            cursors: Mutex::new(Vec::new()),
            build_wall: self.build_wall,
        }
    }
}

impl CheckpointLibrary {
    /// Number of checkpointed units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the library holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The sampling design the library was built for.
    pub fn params(&self) -> &SamplingParams {
        &self.params
    }

    /// Wall-clock spent building the library (the one-time cost that
    /// replays amortize).
    pub fn build_wall(&self) -> Duration {
        self.build_wall
    }

    /// The stream offset (in instructions) of each checkpointed unit, in
    /// stream order.
    pub fn unit_starts(&self) -> impl Iterator<Item = u64> + '_ {
        self.units.iter().map(|u| u.unit_start)
    }

    /// Materialises unit `index`'s checkpoint transiently: the memory
    /// snapshot is shared copy-on-write, and the warm state is rebuilt
    /// by rolling a cursor along the delta chain. The returned
    /// checkpoint is bit-identical to the one the warming pass emitted;
    /// dropping it costs the library nothing (the library itself stays
    /// delta-resident).
    pub fn checkpoint(&self, index: usize) -> Option<UnitCheckpoint> {
        let unit = self.units.get(index)?;
        Some(UnitCheckpoint {
            unit_start: unit.unit_start,
            snapshot: unit.snapshot.clone(),
            warm: self.warm_at(index),
        })
    }

    /// Rebuilds the full warm state at `index` from the delta chain,
    /// reusing (and then returning) a pooled cursor.
    fn warm_at(&self, index: usize) -> WarmState {
        let cursor = self.roll_cursor(index);
        let (warm, used) = WarmState::from_state(&self.warm_geometry, &cursor.words)
            .expect("library warm words parse against their own geometry");
        debug_assert_eq!(used, cursor.words.len());
        let mut pool = self.cursors.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < CURSOR_POOL_CAP {
            pool.push(cursor);
        } else if let Some(slot) = pool.iter_mut().min_by_key(|c| c.unit) {
            // Evict the least-advanced cursor — it is the cheapest to
            // recreate from the base image.
            if slot.unit < cursor.unit {
                *slot = cursor;
            }
        }
        warm
    }

    /// Takes the most-advanced pooled cursor at or before `index` (or
    /// starts a fresh one from the base image) and rolls it forward to
    /// `index` by applying per-unit deltas.
    fn roll_cursor(&self, index: usize) -> WarmCursor {
        let mut cursor = {
            let mut pool = self.cursors.lock().unwrap_or_else(|p| p.into_inner());
            let best = pool
                .iter()
                .enumerate()
                .filter(|(_, c)| c.unit <= index)
                .max_by_key(|&(_, c)| c.unit)
                .map(|(i, _)| i);
            match best {
                Some(i) => pool.swap_remove(i),
                None => WarmCursor {
                    unit: 0,
                    words: self.base_warm.clone(),
                },
            }
        };
        while cursor.unit < index {
            cursor.unit += 1;
            for &(at, word) in &self.units[cursor.unit].warm_delta {
                cursor.words[at as usize] = word;
            }
        }
        cursor
    }

    /// Approximate bytes the library holds alive: memory snapshot pages
    /// with copy-on-write sharing counted once (deduplicated by `Arc`
    /// identity), one full warm-word image anchoring the delta chain,
    /// the sparse per-unit warm deltas, and the cursor pool.
    ///
    /// Because consecutive units share almost all warm state, this is
    /// O(base + Σ deltas) — far below the one-full-warm-copy-per-unit
    /// residency a naive library would have.
    pub fn approx_resident_bytes(&self) -> u64 {
        let mut seen = HashSet::new();
        let mut total = 8 * self.base_warm.len() as u64;
        for unit in &self.units {
            total += unit.snapshot.memory_resident_bytes_dedup(&mut seen) as u64;
            total += (std::mem::size_of::<(u32, u64)>() * unit.warm_delta.len()) as u64;
        }
        let pool = self.cursors.lock().unwrap_or_else(|p| p.into_inner());
        total += pool.iter().map(|c| 8 * c.words.len() as u64).sum::<u64>();
        total
    }

    /// Whether a machine can replay this library: its warmable-state
    /// geometry (caches, TLBs, branch predictor, memory latency) must
    /// match the configuration the library was warmed for; the pipeline
    /// core (widths, window, FUs, store buffer) may differ freely.
    pub fn compatible_with(&self, cfg: &MachineConfig) -> bool {
        let a = &self.warm_geometry;
        a.l1i == cfg.l1i
            && a.l1d == cfg.l1d
            && a.l2 == cfg.l2
            && a.itlb == cfg.itlb
            && a.dtlb == cfg.dtlb
            && a.bpred == cfg.bpred
            && a.mem_latency == cfg.mem_latency
    }
}

impl SmartsSim {
    /// Builds a checkpoint library for a sampling design with one
    /// functional-warming pass over the stream.
    ///
    /// With [`Warming::Functional`] the stored warm state at each unit is
    /// the state a direct sampling run would have (up to the detailed
    /// episodes' own pipeline-order updates). With [`Warming::None`] the
    /// stored warm state is cold for every unit, so replays measure
    /// cold-start units — a direct `Warming::None` run instead carries
    /// *stale* state from the previous detailed episode; prefer
    /// functional warming for libraries.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters or when the stream ends
    /// before the first unit.
    pub fn build_library(
        &self,
        bench: &Benchmark,
        params: &SamplingParams,
    ) -> Result<CheckpointLibrary, SmartsError> {
        let loaded = bench.load();
        let program = loaded.program.clone();
        let mut units: Vec<LibraryUnit> = Vec::new();
        let mut base_warm: Vec<u64> = Vec::new();
        let mut prev_words: Vec<u64> = Vec::new();
        let mut words: Vec<u64> = Vec::new();
        let summary = self.stream_checkpoints(loaded, params, |checkpoint| {
            let UnitCheckpoint {
                unit_start,
                snapshot,
                warm,
            } = checkpoint;
            words.clear();
            warm.save_state(&mut words);
            debug_assert!(words.len() <= u32::MAX as usize);
            let warm_delta = if units.is_empty() {
                base_warm = words.clone();
                Vec::new()
            } else {
                // Same geometry on every unit, so the word streams are
                // positionally aligned and diff sparsely.
                debug_assert_eq!(words.len(), prev_words.len());
                words
                    .iter()
                    .zip(prev_words.iter())
                    .enumerate()
                    .filter(|(_, (now, before))| now != before)
                    .map(|(at, (&now, _))| (at as u32, now))
                    .collect()
            };
            units.push(LibraryUnit {
                unit_start,
                snapshot,
                warm_delta,
            });
            std::mem::swap(&mut prev_words, &mut words);
            true
        })?;
        Ok(CheckpointLibrary {
            params: *params,
            program,
            warm_geometry: self.config().clone(),
            base_warm,
            units,
            cursors: Mutex::new(Vec::new()),
            build_wall: summary.build_wall,
        })
    }

    /// Runs the single in-order functional-warming pass of
    /// [`SmartsSim::build_library`], but hands each unit's checkpoint to
    /// `emit` the moment its boundary is reached instead of materialising
    /// the whole library — the producer side of a streamed
    /// checkpoint-replay pipeline. Peak memory is whatever the consumer
    /// retains, not O(n units).
    ///
    /// `emit` returns `false` to stop the stream early (e.g. when the
    /// consuming side has gone away); the pass then ends with
    /// [`StreamSummary::stopped`] set.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters, or
    /// [`SmartsError::EmptySample`] when the stream ends before the first
    /// unit boundary.
    pub fn stream_checkpoints<I: Isa>(
        &self,
        loaded: Loaded<I>,
        params: &SamplingParams,
        mut emit: impl FnMut(UnitCheckpoint<I>) -> bool,
    ) -> Result<StreamSummary, SmartsError> {
        params.validate()?;
        let start = Instant::now();
        let mut engine = FunctionalEngine::new(loaded);
        let mut warm = WarmState::new(self.config());
        let summary = stream_checkpoints_range(
            &mut engine,
            &mut warm,
            params,
            params.offset,
            u64::MAX,
            params.max_units,
            &mut emit,
        );
        if summary.emitted == 0 && !summary.stopped {
            return Err(SmartsError::EmptySample);
        }
        Ok(StreamSummary {
            emitted: summary.emitted,
            build_wall: start.elapsed(),
            stopped: summary.stopped,
        })
    }

    /// Measures the whole sample from a checkpoint library: no
    /// fast-forwarding, one detailed `W + U` episode per checkpoint.
    ///
    /// The simulator's pipeline configuration may differ from the one the
    /// library was built with, as long as the warmable-state geometry
    /// matches ([`CheckpointLibrary::compatible_with`]) — this is how a
    /// design-space sweep reuses one library.
    ///
    /// # Errors
    ///
    /// Returns [`SmartsError::EmptySample`] when no checkpointed unit
    /// completes, or a parameter error when the geometry is incompatible.
    pub fn sample_library(&self, library: &CheckpointLibrary) -> Result<SampleReport, SmartsError> {
        let t0 = Instant::now();
        let mut units = Vec::new();
        let mut instructions = ModeInstructions::default();

        for index in 0..library.len() {
            let replay = self.replay_unit(library, index)?;
            replay.account(&mut instructions);
            match replay {
                UnitReplay::Complete { sample, .. } => units.push(*sample),
                UnitReplay::Partial { .. } => break, // partial tail unit
            }
        }
        if units.is_empty() {
            return Err(SmartsError::EmptySample);
        }
        Ok(SampleReport::from_units(
            library.params,
            units,
            instructions,
            Duration::ZERO,
            t0.elapsed(),
        ))
    }

    /// Replays a single checkpointed unit: one detailed `W + U` episode
    /// starting from the stored architectural and warm state.
    ///
    /// Units are mutually independent — the result depends only on the
    /// checkpoint and this simulator's configuration — so any subset may
    /// be replayed in any order (or concurrently on clones of `self`) and
    /// reassembled with [`SampleReport::from_units`] into the exact report
    /// [`SmartsSim::sample_library`] produces.
    ///
    /// # Errors
    ///
    /// Returns an error when `index` is out of range or the warmable-state
    /// geometry is incompatible.
    pub fn replay_unit(
        &self,
        library: &CheckpointLibrary,
        index: usize,
    ) -> Result<UnitReplay, SmartsError> {
        if !library.compatible_with(self.config()) {
            return Err(SmartsError::ZeroParameter(
                "warmable-state geometry differs from the library's",
            ));
        }
        let Some(checkpoint) = library.checkpoint(index) else {
            return Err(SmartsError::ZeroParameter("checkpoint index out of range"));
        };
        Ok(self.replay_owned(&library.program, &library.params, checkpoint))
    }

    /// Replays a single checkpoint without a materialised library: one
    /// detailed `W + U` episode starting from the stored architectural
    /// and warm state — the consumer side of a streamed pipeline.
    ///
    /// The checkpoint must have been produced for `program` by a
    /// simulator with this simulator's warmable-state geometry (true by
    /// construction when the checkpoint comes from
    /// [`SmartsSim::stream_checkpoints`] on the same simulator; library
    /// replays go through [`SmartsSim::replay_unit`], which checks).
    /// The replay math is identical to [`SmartsSim::replay_unit`]'s, so
    /// results are bit-identical however the checkpoint was delivered.
    ///
    /// Replaying mutates the warm state and the memory image, so this
    /// borrowing form replays a copy; a caller that is done with the
    /// checkpoint hands it to [`SmartsSim::replay_owned`] instead.
    pub fn replay_checkpoint<I: Isa>(
        &self,
        program: &I::Program,
        params: &SamplingParams,
        checkpoint: &UnitCheckpoint<I>,
    ) -> UnitReplay {
        self.replay_owned(program, params, checkpoint.clone())
    }

    /// [`SmartsSim::replay_checkpoint`] for a caller that owns the
    /// checkpoint — every pipeline consumer and store-replay worker,
    /// which receive or rebuild a checkpoint, replay it once and drop
    /// it. The episode runs on the checkpoint's own warm state and
    /// memory image: no half-megabyte copy per unit.
    pub fn replay_owned<I: Isa>(
        &self,
        program: &I::Program,
        params: &SamplingParams,
        checkpoint: UnitCheckpoint<I>,
    ) -> UnitReplay {
        let UnitCheckpoint {
            unit_start,
            snapshot,
            mut warm,
        } = checkpoint;
        let mut engine = FunctionalEngine::from_snapshot(program.clone(), snapshot);
        let mut pipeline = Pipeline::new(self.config());
        let warm_commits = unit_start.saturating_sub(engine.position());
        let warm_run = pipeline.run(&mut warm, &mut engine, warm_commits, false);
        let measured = pipeline.run(&mut warm, &mut engine, params.unit_size, true);
        if measured.instructions < params.unit_size {
            return UnitReplay::Partial {
                detailed_warmed: warm_run.instructions,
                measured: measured.instructions,
            };
        }
        let cpi = measured.cpi();
        let epi = self
            .energy()
            .energy_per_instruction(&measured.counters, measured.cycles);
        UnitReplay::Complete {
            sample: Box::new(UnitSample {
                start_instr: unit_start,
                cycles: measured.cycles,
                instructions: measured.instructions,
                cpi,
                epi,
                counters: measured.counters,
            }),
            detailed_warmed: warm_run.instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_workloads::find;

    fn sim() -> SmartsSim {
        SmartsSim::new(MachineConfig::eight_way())
    }

    fn design(bench: &Benchmark, n: u64) -> SamplingParams {
        SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, n, 1)
            .unwrap()
    }

    #[test]
    fn library_replay_matches_direct_sampling() {
        let sim = sim();
        let bench = find("hashp-2").unwrap().scaled(0.1);
        let params = design(&bench, 15);
        let direct = sim.sample(&bench, &params).unwrap();
        let library = sim.build_library(&bench, &params).unwrap();
        let replay = sim.sample_library(&library).unwrap();
        assert_eq!(direct.sample_size(), replay.sample_size());
        // Units align exactly. Cycle counts may differ slightly: in the
        // direct run each detailed episode warms the shared state through
        // the pipeline's access stream, while the library warms everything
        // functionally — two equally legitimate warming histories (the
        // TurboSMARTS design point). Per-unit CPI must agree closely and
        // the aggregate even more so.
        for (a, b) in direct.units.iter().zip(&replay.units) {
            assert_eq!(a.start_instr, b.start_instr);
            let rel = (a.cpi - b.cpi).abs() / a.cpi;
            assert!(
                rel < 0.15,
                "unit at {}: direct {} vs replay {}",
                a.start_instr,
                a.cpi,
                b.cpi
            );
        }
        let agg = (direct.cpi().mean() - replay.cpi().mean()).abs() / direct.cpi().mean();
        assert!(agg < 0.02, "aggregate divergence {agg}");
        // The first unit is bit-identical: no detailed episode precedes
        // it, so both histories coincide.
        assert_eq!(direct.units[0].cycles, replay.units[0].cycles);
        assert_eq!(direct.units[0].counters, replay.units[0].counters);
        // The replay did no fast-forwarding at all.
        assert_eq!(replay.instructions.fast_forwarded, 0);
    }

    #[test]
    fn library_is_replayable_many_times() {
        let sim = sim();
        let bench = find("loopy-1").unwrap().scaled(0.05);
        let params = design(&bench, 8);
        let library = sim.build_library(&bench, &params).unwrap();
        let a = sim.sample_library(&library).unwrap();
        let b = sim.sample_library(&library).unwrap();
        assert_eq!(a.cpi().mean(), b.cpi().mean());
    }

    #[test]
    fn library_replays_against_modified_pipeline_core() {
        // Same warm geometry, different core: halve the window and FUs.
        let sim8 = sim();
        let bench = find("branchy-1").unwrap().scaled(0.05);
        let params = design(&bench, 10);
        let library = sim8.build_library(&bench, &params).unwrap();

        let mut narrow = MachineConfig::eight_way();
        narrow.ruu_size = 32;
        narrow.lsq_size = 16;
        narrow.issue_width = 2;
        narrow.fetch_width = 2;
        narrow.decode_width = 2;
        narrow.commit_width = 2;
        narrow.int_alu_units = 1;
        let narrow_sim = SmartsSim::new(narrow);
        assert!(library.compatible_with(narrow_sim.config()));
        let wide = sim8.sample_library(&library).unwrap();
        let slim = narrow_sim.sample_library(&library).unwrap();
        assert!(
            slim.cpi().mean() > wide.cpi().mean() * 1.2,
            "narrow core {} should be slower than wide {}",
            slim.cpi().mean(),
            wide.cpi().mean()
        );
    }

    #[test]
    fn incompatible_geometry_is_rejected() {
        let sim8 = sim();
        let bench = find("loopy-1").unwrap().scaled(0.02);
        let library = sim8.build_library(&bench, &design(&bench, 5)).unwrap();
        let sim16 = SmartsSim::new(MachineConfig::sixteen_way());
        assert!(!library.compatible_with(sim16.config()));
        assert!(sim16.sample_library(&library).is_err());
    }

    #[test]
    fn streamed_checkpoints_replay_identically_to_the_library() {
        let sim = sim();
        let bench = find("branchy-1").unwrap().scaled(0.05);
        let params = design(&bench, 8);
        let library = sim.build_library(&bench, &params).unwrap();

        let loaded = bench.load();
        let program = loaded.program.clone();
        let mut streamed = Vec::new();
        let summary = sim
            .stream_checkpoints(loaded, &params, |c| {
                streamed.push(c);
                true
            })
            .unwrap();
        assert_eq!(summary.emitted as usize, library.len());
        assert!(!summary.stopped);
        let starts: Vec<u64> = streamed.iter().map(|c| c.unit_start()).collect();
        assert_eq!(starts, library.unit_starts().collect::<Vec<_>>());

        // Every streamed checkpoint replays bit-identically to its
        // library twin.
        for (index, checkpoint) in streamed.iter().enumerate() {
            let from_stream = sim.replay_checkpoint(&program, &params, checkpoint);
            let from_library = sim.replay_unit(&library, index).unwrap();
            match (from_stream, from_library) {
                (
                    UnitReplay::Complete { sample: a, .. },
                    UnitReplay::Complete { sample: b, .. },
                ) => {
                    assert_eq!(a.cycles, b.cycles);
                    assert_eq!(a.cpi.to_bits(), b.cpi.to_bits());
                    assert_eq!(a.counters, b.counters);
                }
                (
                    UnitReplay::Partial {
                        measured: a,
                        detailed_warmed: aw,
                    },
                    UnitReplay::Partial {
                        measured: b,
                        detailed_warmed: bw,
                    },
                ) => {
                    assert_eq!((a, aw), (b, bw));
                }
                _ => panic!("variant mismatch at unit {index}"),
            }
        }
    }

    #[test]
    fn stream_stops_when_the_consumer_declines() {
        let sim = sim();
        let bench = find("loopy-1").unwrap().scaled(0.05);
        let params = design(&bench, 8);
        let mut taken = 0;
        let summary = sim
            .stream_checkpoints(bench.load(), &params, |_| {
                taken += 1;
                taken < 3
            })
            .unwrap();
        assert!(summary.stopped);
        assert_eq!(summary.emitted, 2, "the declined checkpoint is not counted");
    }

    #[test]
    fn library_residency_dedups_shared_pages() {
        let sim = sim();
        let bench = find("stream-2").unwrap().scaled(0.05);
        let params = design(&bench, 8);
        let library = sim.build_library(&bench, &params).unwrap();
        let deduped = library.approx_resident_bytes();
        // Summing per-checkpoint footprints ignores copy-on-write page
        // sharing between snapshots, so it must exceed the deduped total
        // for any multi-checkpoint library of this benchmark.
        let mut naive = 0u64;
        let mut per_unit_max = 0u64;
        let loaded = bench.load();
        sim.stream_checkpoints(loaded, &params, |c| {
            naive += c.approx_resident_bytes();
            per_unit_max = per_unit_max.max(c.approx_resident_bytes());
            true
        })
        .unwrap();
        assert!(deduped > 0);
        assert!(naive > deduped, "naive {naive} vs deduped {deduped}");
        // And a single checkpoint is far below the whole library.
        assert!(per_unit_max < deduped);
    }

    #[test]
    fn out_of_order_replay_is_bit_identical_to_in_order() {
        // The delta-resident library rebuilds warm state through a
        // cursor pool; replay order must not leak into results. Reverse
        // order forces worst-case chain rewinds (every materialisation
        // misses the pool and rolls forward from the base image).
        let sim = sim();
        let bench = find("hashp-2").unwrap().scaled(0.05);
        let params = design(&bench, 10);
        let library = sim.build_library(&bench, &params).unwrap();
        let forward: Vec<UnitReplay> = (0..library.len())
            .map(|i| sim.replay_unit(&library, i).unwrap())
            .collect();
        for index in (0..library.len()).rev() {
            let again = sim.replay_unit(&library, index).unwrap();
            match (&forward[index], &again) {
                (
                    UnitReplay::Complete { sample: a, .. },
                    UnitReplay::Complete { sample: b, .. },
                ) => {
                    assert_eq!(a.cycles, b.cycles, "unit {index}");
                    assert_eq!(a.cpi.to_bits(), b.cpi.to_bits(), "unit {index}");
                    assert_eq!(a.counters, b.counters, "unit {index}");
                }
                (
                    UnitReplay::Partial {
                        measured: a,
                        detailed_warmed: aw,
                    },
                    UnitReplay::Partial {
                        measured: b,
                        detailed_warmed: bw,
                    },
                ) => assert_eq!((a, aw), (b, bw), "unit {index}"),
                _ => panic!("variant mismatch at unit {index}"),
            }
        }
    }

    #[test]
    fn delta_residency_is_far_below_per_unit_warm_copies() {
        // The pre-delta representation held one full warm-state copy per
        // unit; the delta chain must beat that comfortably once the
        // library has more than a handful of units.
        let sim = sim();
        let bench = find("loopy-1").unwrap().scaled(0.1);
        let params = design(&bench, 12);
        let library = sim.build_library(&bench, &params).unwrap();
        let mut eager_warm = 0u64;
        let mut pages = std::collections::HashSet::new();
        let mut deduped_pages = 0u64;
        sim.stream_checkpoints(bench.load(), &params, |c| {
            let mut w = Vec::new();
            c.warm().save_state(&mut w);
            eager_warm += 8 * w.len() as u64;
            deduped_pages += c.snapshot().memory_resident_bytes_dedup(&mut pages) as u64;
            true
        })
        .unwrap();
        let eager = eager_warm + deduped_pages;
        let delta = library.approx_resident_bytes();
        assert!(
            delta * 2 < eager,
            "delta-resident {delta} should be well below eager {eager}"
        );
    }

    #[test]
    fn library_len_matches_design() {
        let sim = sim();
        let bench = find("stream-2").unwrap().scaled(0.1);
        let params = design(&bench, 12);
        let library = sim.build_library(&bench, &params).unwrap();
        assert!(!library.is_empty());
        assert!(
            (10..=16).contains(&library.len()),
            "len = {}",
            library.len()
        );
    }
}
