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
//! This module is the two halves of that extension.
//! [`SmartsSim::stream_checkpoints`] runs one functional-warming pass
//! and hands out a [`UnitCheckpoint`] at every unit boundary;
//! [`SmartsSim::replay_checkpoint`] / [`SmartsSim::replay_owned`]
//! measure one unit from its checkpoint without executing a single
//! fast-forward instruction. [`SmartsSim::sample`] is the two joined on
//! one thread, so every route measures the same independent units.
//! Because the long-history warm state travels with the checkpoint, it
//! replays against any machine that shares the warmable-state geometry
//! (caches, TLBs, predictor) — sweeps over FU counts, window sizes,
//! store-buffer depth, or branch-penalty parameters reuse one warming
//! pass. Keeping checkpoints beyond one
//! process (and checking that geometry) is `smarts-ckpt`'s store;
//! overlapping the two halves across threads is `smarts-exec`.

use crate::engine::{EngineSnapshot, FunctionalEngine};
use crate::error::SmartsError;
use crate::sampler::{ModeInstructions, SamplingParams, SmartsSim, UnitSample, Warming};
use smarts_isa::{BuiltinIsa, Isa};
use smarts_uarch::{Pipeline, WarmState};
use smarts_workloads::Loaded;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One reconstitutable sampling unit: architectural state plus warm
/// microarchitectural state at the unit's detailed-warming start.
///
/// Checkpoints are produced by [`SmartsSim::stream_checkpoints`] and
/// replayed with [`SmartsSim::replay_checkpoint`] or
/// [`SmartsSim::replay_owned`].
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
    /// in full here (an upper bound on the marginal footprint).
    pub fn approx_resident_bytes(&self) -> u64 {
        (self.snapshot.memory_resident_bytes() + self.warm.approx_bytes()) as u64
    }

    /// Gives up the checkpoint, keeping its warm state — for
    /// [`WarmSpares::put`] once nothing will replay it.
    pub fn into_warm(self) -> WarmState {
        self.warm
    }
}

/// Warm states a stream copies each checkpoint's state into instead of
/// cloning it afresh, handed back by the replays done with them.
///
/// Every checkpoint carries its own warm state (~140 KB on the 8-way
/// machine, whose L2 key array alone is 128 KiB — exactly glibc's default
/// mmap threshold). Cloning one per unit and freeing it after the replay
/// churns the allocator: once the threshold has risen, those arrays come
/// out of per-thread arenas and fragment the heap of a long-lived
/// process. Through spares, [`SmartsSim::stream_checkpoints_with`] copies
/// into a state [`SmartsSim::replay_with`] has finished with
/// ([`WarmState::clone_from`] reuses every array), so a steady stream
/// allocates no warm state at all: it clones afresh only while fewer
/// states exist than are in flight at once.
///
/// At most [`WarmSpares::keep`]'s cap of idle states are kept (none by
/// default); one handed back past it is dropped. The set may outlive a
/// run — a server worker keeps one across the jobs it runs.
#[derive(Debug, Default)]
pub struct WarmSpares {
    idle: Mutex<IdleStates>,
}

#[derive(Debug, Default)]
struct IdleStates {
    states: Vec<WarmState>,
    cap: usize,
}

impl WarmSpares {
    /// The idle states. The lock guards a plain `Vec` that every holder
    /// leaves whole (a push or a pop), so a holder that panicked left a
    /// valid set behind: poisoning is ignored.
    fn idle(&self) -> MutexGuard<'_, IdleStates> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keeps at most `cap` idle states from now on, dropping any past it.
    pub fn keep(&self, cap: usize) {
        let mut idle = self.idle();
        idle.cap = cap;
        idle.states.truncate(cap);
    }

    /// A copy of `live`: an idle state overwritten in place when there is
    /// one, else a fresh clone.
    pub fn copy_of(&self, live: &WarmState) -> WarmState {
        match self.idle().states.pop() {
            Some(mut spare) => {
                spare.clone_from(live);
                spare
            }
            None => live.clone(),
        }
    }

    /// Hands back a state nothing reads any more, for a later
    /// [`WarmSpares::copy_of`].
    pub fn put(&self, state: WarmState) {
        let mut idle = self.idle();
        if idle.states.len() < idle.cap {
            idle.states.push(state);
        }
    }

    /// Idle states held.
    pub fn len(&self) -> usize {
        self.idle().states.len()
    }

    /// Whether no idle state is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

impl SmartsSim {
    /// Runs the single in-order functional-warming pass over the stream
    /// and hands each unit's checkpoint to `emit` the moment its boundary
    /// is reached — the producer side of every checkpointed route. Peak
    /// memory is whatever the consumer retains, not O(n units).
    ///
    /// With [`Warming::Functional`] each checkpoint holds the warm state
    /// functional warming built up to its unit. With [`Warming::None`] that
    /// state is cold for every unit: [`SmartsSim::sample`] replays such a
    /// run on the stale state each episode leaves to the next instead, and
    /// the checkpointed routes of `smarts-exec` refuse it.
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
        emit: impl FnMut(UnitCheckpoint<I>) -> bool,
    ) -> Result<StreamSummary, SmartsError> {
        self.stream_checkpoints_with(loaded, params, &WarmSpares::default(), emit)
    }

    /// [`SmartsSim::stream_checkpoints`] with each checkpoint's warm
    /// state copied into one of `spares` when there is one idle — the
    /// stream a consumer recycles into through [`SmartsSim::replay_with`].
    /// The checkpoints are the same either way.
    ///
    /// # Errors
    ///
    /// As for [`SmartsSim::stream_checkpoints`].
    pub fn stream_checkpoints_with<I: Isa>(
        &self,
        loaded: Loaded<I>,
        params: &SamplingParams,
        spares: &WarmSpares,
        mut emit: impl FnMut(UnitCheckpoint<I>) -> bool,
    ) -> Result<StreamSummary, SmartsError> {
        params.validate()?;
        let start = Instant::now();
        let mut engine = FunctionalEngine::new(loaded);
        let mut warm = WarmState::new(self.config());
        let mut emitted: u64 = 0;
        let mut stopped = false;

        let mut unit_index = params.offset;
        while params.max_units.is_none_or(|max| emitted < max) {
            let unit_start = unit_index * params.unit_size;
            let warm_start = unit_start.saturating_sub(params.detailed_warming);
            match params.warming {
                Warming::None => engine.fast_forward(warm_start),
                Warming::Functional => engine.fast_forward_warming(warm_start, &mut warm),
            };
            if engine.finished() {
                break;
            }
            // The unit (and its detailed warming) must fit in the stream;
            // probe cheaply by checkpointing now and validating on replay.
            let checkpoint = UnitCheckpoint {
                unit_start,
                snapshot: engine.snapshot(),
                warm: spares.copy_of(&warm),
            };
            if !emit(checkpoint) {
                stopped = true;
                break;
            }
            emitted += 1;
            unit_index += params.interval;
        }
        if emitted == 0 && !stopped {
            return Err(SmartsError::EmptySample);
        }
        Ok(StreamSummary {
            emitted,
            build_wall: start.elapsed(),
            stopped,
        })
    }

    /// Replays a single checkpoint: one detailed `W + U` episode starting
    /// from the stored architectural and warm state.
    ///
    /// Units are mutually independent — the result depends only on the
    /// checkpoint and this simulator's configuration — so any subset may
    /// be replayed in any order (or concurrently) and reassembled in
    /// stream order with [`crate::SampleReport::from_units`]; results are
    /// bit-identical however the checkpoint was delivered.
    ///
    /// The checkpoint must have been produced for `program` by a
    /// simulator with this simulator's warmable-state geometry: true by
    /// construction when it comes from [`SmartsSim::stream_checkpoints`]
    /// on the same simulator, and checked by the store's fingerprint when
    /// it comes from disk.
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
        self.replay_with(program, params, checkpoint, &WarmSpares::default())
    }

    /// [`SmartsSim::replay_owned`] handing the checkpoint's warm state to
    /// `spares` once the episode is done with it, for the stream's next
    /// checkpoint ([`SmartsSim::stream_checkpoints_with`]).
    pub fn replay_with<I: Isa>(
        &self,
        program: &I::Program,
        params: &SamplingParams,
        checkpoint: UnitCheckpoint<I>,
        spares: &WarmSpares,
    ) -> UnitReplay {
        self.replay_unit(program, params, checkpoint, None, spares)
    }

    /// [`SmartsSim::replay_with`], on `stale` instead of the checkpoint's
    /// own warm state when one is given: the episode of a
    /// [`Warming::None`] run, whose units start from whatever the previous
    /// unit's episode left — a state no checkpoint holds.
    pub(crate) fn replay_unit<I: Isa>(
        &self,
        program: &I::Program,
        params: &SamplingParams,
        checkpoint: UnitCheckpoint<I>,
        stale: Option<&mut WarmState>,
        spares: &WarmSpares,
    ) -> UnitReplay {
        let UnitCheckpoint {
            unit_start,
            snapshot,
            mut warm,
        } = checkpoint;
        let state = stale.unwrap_or(&mut warm);
        let mut engine = FunctionalEngine::from_snapshot(program.clone(), snapshot);
        let mut pipeline = Pipeline::new(self.config());
        let warm_commits = unit_start.saturating_sub(engine.position());
        let warm_run = pipeline.run(state, &mut engine, warm_commits, false);
        let measured = pipeline.run(state, &mut engine, params.unit_size, true);
        spares.put(warm);
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
    use crate::sampler::SampleReport;
    use smarts_uarch::MachineConfig;
    use smarts_workloads::{find, Benchmark};

    fn sim() -> SmartsSim {
        SmartsSim::new(MachineConfig::eight_way())
    }

    fn design(bench: &Benchmark, n: u64) -> SamplingParams {
        SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, n, 1)
            .unwrap()
    }

    /// One warming pass kept whole: the program plus every checkpoint
    /// the stream emitted, in stream order.
    struct Library {
        params: SamplingParams,
        program: smarts_isa::Program,
        checkpoints: Vec<UnitCheckpoint>,
    }

    fn library(sim: &SmartsSim, bench: &Benchmark, params: &SamplingParams) -> Library {
        let loaded = bench.load();
        let program = loaded.program.clone();
        let mut checkpoints = Vec::new();
        let summary = sim
            .stream_checkpoints(loaded, params, |c| {
                checkpoints.push(c);
                true
            })
            .unwrap();
        assert_eq!(summary.emitted as usize, checkpoints.len());
        assert!(!summary.stopped);
        Library {
            params: *params,
            program,
            checkpoints,
        }
    }

    impl Library {
        fn replay(&self, sim: &SmartsSim, index: usize) -> UnitReplay {
            sim.replay_checkpoint(&self.program, &self.params, &self.checkpoints[index])
        }

        /// The sequential oracle: every checkpoint in stream order,
        /// reduced exactly as `sample` reduces its units.
        fn sample(&self, sim: &SmartsSim) -> SampleReport {
            let mut units = Vec::new();
            let mut instructions = ModeInstructions::default();
            for index in 0..self.checkpoints.len() {
                let replay = self.replay(sim, index);
                replay.account(&mut instructions);
                match replay {
                    UnitReplay::Complete { sample, .. } => units.push(*sample),
                    UnitReplay::Partial { .. } => break, // partial tail unit
                }
            }
            SampleReport::from_units(
                self.params,
                units,
                instructions,
                Duration::ZERO,
                Duration::ZERO,
            )
        }
    }

    fn assert_same_replay(a: &UnitReplay, b: &UnitReplay, what: &str) {
        match (a, b) {
            (UnitReplay::Complete { sample: a, .. }, UnitReplay::Complete { sample: b, .. }) => {
                assert_eq!(a.cycles, b.cycles, "{what}");
                assert_eq!(a.cpi.to_bits(), b.cpi.to_bits(), "{what}");
                assert_eq!(a.counters, b.counters, "{what}");
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
            ) => assert_eq!((a, aw), (b, bw), "{what}"),
            _ => panic!("variant mismatch: {what}"),
        }
    }

    #[test]
    fn library_replay_matches_direct_sampling() {
        let sim = sim();
        let bench = find("hashp-2").unwrap().scaled(0.1);
        let params = design(&bench, 15);
        // `sample` is the warming pass and the replays joined on one
        // thread: the same units to the bit, and nothing fast-forwarded.
        let direct = sim.sample(&bench, &params).unwrap();
        let replay = library(&sim, &bench, &params).sample(&sim);
        assert_eq!(direct.sample_size(), replay.sample_size());
        for (a, b) in direct.units.iter().zip(&replay.units) {
            assert_eq!((a.start_instr, a.cycles), (b.start_instr, b.cycles));
            assert_eq!(a.counters, b.counters);
        }
        assert_eq!(direct.cpi().mean().to_bits(), replay.cpi().mean().to_bits());
        assert_eq!(direct.instructions, replay.instructions);
        assert_eq!(direct.instructions.fast_forwarded, 0);
    }

    #[test]
    fn library_is_replayable_many_times() {
        let sim = sim();
        let bench = find("loopy-1").unwrap().scaled(0.05);
        let library = library(&sim, &bench, &design(&bench, 8));
        let a = library.sample(&sim);
        let b = library.sample(&sim);
        assert_eq!(a.cpi().mean().to_bits(), b.cpi().mean().to_bits());
    }

    #[test]
    fn library_replays_against_modified_pipeline_core() {
        // Same warm geometry, different core: halve the window and FUs.
        let sim8 = sim();
        let bench = find("branchy-1").unwrap().scaled(0.05);
        let library = library(&sim8, &bench, &design(&bench, 10));

        let mut narrow = MachineConfig::eight_way();
        narrow.ruu_size = 32;
        narrow.lsq_size = 16;
        narrow.issue_width = 2;
        narrow.fetch_width = 2;
        narrow.decode_width = 2;
        narrow.commit_width = 2;
        narrow.int_alu_units = 1;
        let wide = library.sample(&sim8);
        let slim = library.sample(&SmartsSim::new(narrow));
        assert!(
            slim.cpi().mean() > wide.cpi().mean() * 1.2,
            "narrow core {} should be slower than wide {}",
            slim.cpi().mean(),
            wide.cpi().mean()
        );
    }

    #[test]
    fn streamed_checkpoints_replay_identically_to_the_library() {
        // A consumer that owns each checkpoint as it streams past
        // (`replay_owned`, the pipeline's and the store's route) measures
        // what a borrowing replay of the kept library measures.
        let sim = sim();
        let bench = find("branchy-1").unwrap().scaled(0.05);
        let params = design(&bench, 8);
        let library = library(&sim, &bench, &params);
        let mut streamed = Vec::new();
        sim.stream_checkpoints(bench.load(), &params, |c| {
            streamed.push(sim.replay_owned(&library.program, &params, c));
            true
        })
        .unwrap();
        assert_eq!(streamed.len(), library.checkpoints.len());
        for (index, from_stream) in streamed.iter().enumerate() {
            assert_same_replay(
                from_stream,
                &library.replay(&sim, index),
                &format!("unit {index}"),
            );
        }
    }

    #[test]
    fn recycled_warm_states_replay_identically_and_stay_few() {
        // A stream copying into the states its replays hand back measures
        // what a stream of fresh clones measures, keeping one idle state.
        let sim = sim();
        let bench = find("hashp-2").unwrap().scaled(0.05);
        let params = design(&bench, 10);
        let library = library(&sim, &bench, &params);
        let spares = WarmSpares::default();
        spares.keep(2);
        let mut recycled = Vec::new();
        sim.stream_checkpoints_with(bench.load(), &params, &spares, |c| {
            recycled.push(sim.replay_with(&library.program, &params, c, &spares));
            true
        })
        .unwrap();
        assert_eq!(recycled.len(), library.checkpoints.len());
        for (index, replay) in recycled.iter().enumerate() {
            assert_same_replay(
                replay,
                &library.replay(&sim, index),
                &format!("unit {index}"),
            );
        }
        assert_eq!(spares.len(), 1, "one state went round the whole stream");
        spares.keep(0);
        assert!(spares.is_empty());
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
        // Consecutive snapshots share unmodified memory pages
        // copy-on-write, so the per-checkpoint footprints the residency
        // accounting sums are an upper bound on what a kept set holds.
        let sim = sim();
        let bench = find("stream-2").unwrap().scaled(0.05);
        let library = library(&sim, &bench, &design(&bench, 8));
        let mut seen = std::collections::HashSet::new();
        let (mut naive, mut deduped) = (0u64, 0u64);
        for c in &library.checkpoints {
            naive += c.approx_resident_bytes();
            deduped += (c.snapshot().memory().resident_bytes_dedup(&mut seen)
                + c.warm().approx_bytes()) as u64;
        }
        assert!(deduped > 0);
        assert!(naive > deduped, "naive {naive} vs deduped {deduped}");
    }

    #[test]
    fn out_of_order_replay_is_bit_identical_to_in_order() {
        // Units are independent given their checkpoints: replay order
        // must not leak into results.
        let sim = sim();
        let bench = find("hashp-2").unwrap().scaled(0.05);
        let library = library(&sim, &bench, &design(&bench, 10));
        let count = library.checkpoints.len();
        let forward: Vec<UnitReplay> = (0..count).map(|i| library.replay(&sim, i)).collect();
        for index in (0..count).rev() {
            assert_same_replay(
                &forward[index],
                &library.replay(&sim, index),
                &format!("unit {index}"),
            );
        }
    }

    #[test]
    fn library_len_matches_design() {
        let sim = sim();
        let bench = find("stream-2").unwrap().scaled(0.1);
        let len = library(&sim, &bench, &design(&bench, 12)).checkpoints.len();
        assert!((10..=16).contains(&len), "len = {len}");
    }
}
