//! Sharded functional warming with boundary re-warm stitching: the
//! warming pass — the serial bottleneck the pipeline cannot hide — split
//! across `warm_jobs` threads, with the cold-start bias at each shard
//! boundary stitched out exactly instead of tolerated.
//!
//! # The two phases
//!
//! **Phase 1 (parallel segment production).** The systematic grid is cut
//! into `warm_jobs` contiguous shards at sampling-unit boundaries. Shard
//! 0 warms from position 0 — it *is* the serial prefix. Every other
//! shard leapfrogs: plain (unwarmed) fast-forward to the warm-start
//! point of its first unit, then functional warming across its own
//! range, streaming each unit's checkpoint into a private delta-encoded
//! segment via [`CkptWriter`]. Each shard finally continues warming to
//! its successor's start point and hands off that end state.
//!
//! **Phase 2 (serial stitch and splice).** Shard 0's segment is streamed
//! verbatim. For every later shard, its units carry truncated warming
//! history, so the stitcher *re-warms* the shard's leading units from
//! the predecessor's exact serial state and compares the re-warmed
//! checkpoint against the shard's recorded one — as canonical
//! [`FlatCheckpoint`]s, which serialize the behavioral equivalence class
//! of the warm state (see `smarts_uarch::Cache::save_state`). The first
//! unit where the two flats are equal is the **fixpoint**: from there on
//! the shard's truncated history and the full serial history have
//! converged behaviorally, so the segment's remaining records are
//! provably the records a serial pass would have produced and are
//! spliced verbatim. Units before the fixpoint are replaced by their
//! re-warmed (exact) counterparts. If a shard never converges, every
//! unit is re-warmed and the stitcher carries its own engine forward to
//! the next boundary — correct, merely without speedup for that shard.
//!
//! # Why the result is bit-identical
//!
//! Unit selection depends only on architectural state (positions, halt),
//! which warming never touches, so every shard enumerates exactly the
//! units the serial pass would. Each emitted flat is either re-warmed
//! from an exact serial state or spliced after a proven fixpoint; either
//! way it equals the serial flat, and since record encoding is a pure
//! function of `(current flat, previous flat)`, re-encoding the stitched
//! flat sequence through one final [`CkptWriter`] reproduces the
//! single-producer store byte for byte — same header, same per-record
//! CRCs, same `StoreMeta` fingerprint. Replay consumers cannot tell the
//! difference, which is the whole point.
//!
//! The machinery is generic over the [`Frontend`]: the stitch argument
//! rests only on the shared warm/flat vocabulary, so a RISC or trace
//! store shards and splices exactly like a built-in one.
//!
//! DESIGN.md §3.6e develops the convergence and bit-identity arguments
//! in full.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::error::ExecError;
use crate::executor::Executor;
use crate::pool::run_workers;
use crate::warm::Produced;
use smarts_ckpt::{CkptError, CkptReader, CkptWriter, FlatCheckpoint, StoreMeta};
use smarts_core::{
    stream_checkpoints_range, EngineSnapshot, FunctionalEngine, SamplingParams, SmartsSim,
    UnitCheckpoint, Warming,
};
use smarts_isa::Isa;
use smarts_uarch::{MachineConfig, WarmState};
use smarts_workloads::{Frontend, Loaded};

/// Accounting of a run warmed by the sharded producer
/// ([`ParallelMode::ShardedWarm`](crate::ParallelMode::ShardedWarm)): how
/// the warming pass was split, how quickly each shard converged back
/// onto the serial warming history, and what the stitch cost.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardWarmStats {
    /// Shards the warming pass was split into (after clamping to the
    /// estimated unit count).
    pub warm_jobs: usize,
    /// Wall-clock of the parallel segment-production phase (the barrier
    /// across all shard threads).
    pub warm_wall: Duration,
    /// Wall-clock of the serial stitch-and-splice phase. It overlaps the
    /// detailed replay consumers, so it is not additive with the replay
    /// wall.
    pub stitch_wall: Duration,
    /// Units each shard recorded in its segment, in shard order.
    pub shard_units: Vec<u64>,
    /// Instructions each shard executed in phase 1 (leapfrog
    /// fast-forward + functional warming + handoff continuation).
    pub shard_instructions: Vec<u64>,
    /// Phase-1 wall-clock of each shard thread.
    pub shard_walls: Vec<Duration>,
    /// Per shard: units re-warmed before the boundary fixpoint was
    /// found. Shard 0 needs no stitching, so `fixpoints[0] == 0`; a
    /// shard that never converged re-warmed all of its units, so
    /// `fixpoints[s] <= shard_units[s]` always holds (the warm-geometry
    /// upper bound).
    pub fixpoints: Vec<u64>,
    /// Instructions the stitcher re-executed (re-warm drives plus
    /// no-fixpoint fallback continuations).
    pub rewarm_instructions: u64,
}

impl ShardWarmStats {
    /// Total units that had to be re-warmed across all shard boundaries.
    pub fn rewarm_units(&self) -> u64 {
        self.fixpoints.iter().sum()
    }
}

/// Contiguous grid ranges `[grid_start, grid_end)` (unit indices), one
/// per shard. Boundaries always land on the systematic grid
/// `{offset, offset+k, ...}`; the last shard is open-ended so an
/// `approx_len` underestimate cannot drop tail units.
fn plan_shards(params: &SamplingParams, approx_len: u64, warm_jobs: usize) -> Vec<(u64, u64)> {
    let est_last = approx_len.saturating_sub(1) / params.unit_size;
    let steps = if est_last < params.offset {
        1
    } else {
        (est_last - params.offset) / params.interval + 1
    };
    let n = warm_jobs
        .max(1)
        .min(usize::try_from(steps).unwrap_or(usize::MAX));
    let mut shards = Vec::with_capacity(n);
    for s in 0..n as u64 {
        let lo = params.offset + (steps * s / n as u64) * params.interval;
        let hi = if s + 1 == n as u64 {
            u64::MAX
        } else {
            params.offset + (steps * (s + 1) / n as u64) * params.interval
        };
        shards.push((lo, hi));
    }
    shards
}

/// The warm-start point of the unit at grid index `index` — where a
/// shard covering `[index, ..)` begins consuming the stream in earnest.
fn warm_start_of(params: &SamplingParams, index: u64) -> u64 {
    index
        .saturating_mul(params.unit_size)
        .saturating_sub(params.detailed_warming)
}

/// Monotonic discriminator for temp segment paths, so concurrent runs in
/// one process never collide.
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Segment paths for one run: siblings of the final store when saving
/// (`<store>.seg<N>`), else under the system temp directory.
fn segment_paths(n: usize, final_store: Option<&Path>) -> Vec<PathBuf> {
    let seq = SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed);
    (0..n)
        .map(|s| match final_store {
            Some(path) => {
                let mut os = path.as_os_str().to_os_string();
                os.push(format!(".seg{s}"));
                PathBuf::from(os)
            }
            None => std::env::temp_dir().join(format!(
                "smarts-warmshard-{}-{seq}-{s}.seg",
                std::process::id()
            )),
        })
        .collect()
}

/// Removes the segment files on scope exit — including error and
/// cancellation paths, so a failed run leaves no temp litter.
struct RemoveOnDrop(Vec<PathBuf>);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The exact serial warming state at one shard boundary: what the next
/// shard's stitch drive resumes from.
struct Handoff<F: Isa> {
    snapshot: EngineSnapshot<F>,
    warm: WarmState,
}

/// One shard's phase-1 product.
struct SegmentOutput<F: Isa> {
    grid_start: u64,
    grid_end: u64,
    path: PathBuf,
    /// Units recorded in the segment.
    units: u64,
    /// Instructions this shard executed (fast-forward + warming).
    instructions: u64,
    wall: Duration,
    /// The shard-local state at the successor's warm-start point; `None`
    /// for the last shard, or when the shard was cancelled or errored
    /// before completing its range.
    handoff: Option<Handoff<F>>,
    write_error: Option<CkptError>,
}

/// Phase 1: produce every shard's segment in parallel.
fn produce_segments<F: Frontend>(
    sim: &SmartsSim,
    loaded: &Loaded<F>,
    params: &SamplingParams,
    shards: &[(u64, u64)],
    paths: &[PathBuf],
    cancel: &CancelToken,
) -> Result<Vec<SegmentOutput<F>>, ExecError> {
    let cfg = sim.config();
    // Segment headers only need the right warm fingerprint for reopening;
    // their meta is never consulted again — but the frontend tag must
    // match or the typed-append guard rejects the shard's checkpoints.
    let meta = StoreMeta {
        params: *params,
        benchmark: loaded.name.clone(),
        scale: 1.0,
        isa: F::ID,
    };
    let n = shards.len();
    let outputs = run_workers(n, |s| -> Result<SegmentOutput<F>, ExecError> {
        let t0 = Instant::now();
        let (grid_start, grid_end) = shards[s];
        let path = paths[s].clone();
        let mut writer = CkptWriter::create(&path, cfg, &meta)?;
        let mut engine = FunctionalEngine::new(loaded.clone());
        let mut warm = WarmState::new(cfg);
        if s > 0 {
            // Leapfrog: only shard 0 pays warmed-rate execution for the
            // stream prefix; everyone else fast-forwards plainly.
            engine.fast_forward(warm_start_of(params, grid_start));
        }
        let mut write_error: Option<CkptError> = None;
        let summary = stream_checkpoints_range(
            &mut engine,
            &mut warm,
            params,
            grid_start,
            grid_end,
            None,
            &mut |checkpoint| {
                if cancel.is_cancelled() {
                    return false;
                }
                match writer.append(&checkpoint) {
                    Ok(()) => true,
                    Err(e) => {
                        write_error = Some(e);
                        false
                    }
                }
            },
        );
        let mut handoff = None;
        if s + 1 < n && write_error.is_none() && !summary.stopped {
            // Continue warming to the successor's start point. If the
            // stream already halted this is a no-op on an exact final
            // state — the successor's segment is empty anyway.
            let target = warm_start_of(params, grid_end);
            match params.warming {
                Warming::None => engine.fast_forward(target),
                Warming::Functional => engine.fast_forward_warming(target, &mut warm),
            };
            handoff = Some(Handoff {
                snapshot: engine.snapshot(),
                warm: warm.clone(),
            });
        }
        // Cancelled or errored shards still finish their writer: every
        // record already appended is CRC-intact on disk, so each segment
        // independently honors the salvaged-prefix contract.
        match writer.finish() {
            Ok(_) => {}
            Err(e) => {
                write_error.get_or_insert(e);
            }
        }
        Ok(SegmentOutput {
            grid_start,
            grid_end,
            path,
            units: summary.emitted,
            instructions: engine.position(),
            wall: t0.elapsed(),
            handoff,
            write_error,
        })
    })?;
    outputs.into_iter().collect()
}

/// Why the merge stopped streaming units, if it stopped early.
enum MergeStop {
    /// `max_units` reached — a normal, successful end.
    Cap,
    /// The replay side went away (cancellation without a store to
    /// salvage, or consumer death — the pool surfaces the panic).
    ConsumersGone,
    /// A store error; the run fails with it.
    Failed(ExecError),
}

/// Phase-2 sink: tees each proven-serial flat into the final store (when
/// saving) and offers its checkpoint to the replay channel.
struct Merge<'a, 'b, F: Isa> {
    cfg: &'a MachineConfig,
    cancel: &'a CancelToken,
    cap: Option<u64>,
    sink: Option<CkptWriter>,
    emit: &'a mut (dyn FnMut(UnitCheckpoint<F>) -> bool + 'b),
    emitted: u64,
    /// Cancelled with a store attached: keep splicing provable records
    /// into the final store (cheap, salvageable) without offering them
    /// to the dead replay channel.
    salvage_only: bool,
    stop: Option<MergeStop>,
}

impl<F: Isa> Merge<'_, '_, F> {
    /// Streams one proven-serial unit. `checkpoint` carries the live
    /// re-warmed checkpoint when the stitcher has one; spliced tail
    /// units rebuild from the flat. Returns `false` once the merge must
    /// stop (reason recorded in `self.stop`).
    fn offer(&mut self, flat: FlatCheckpoint, checkpoint: Option<UnitCheckpoint<F>>) -> bool {
        if self.stop.is_some() {
            return false;
        }
        if self.cap.is_some_and(|cap| self.emitted >= cap) {
            self.stop = Some(MergeStop::Cap);
            return false;
        }
        let replay = if self.salvage_only {
            None
        } else {
            match checkpoint {
                Some(c) => Some(c),
                None => match flat.rebuild_isa::<F>(self.cfg) {
                    Ok(c) => Some(c),
                    Err(detail) => {
                        self.stop =
                            Some(MergeStop::Failed(ExecError::Ckpt(CkptError::Corrupted {
                                record: self.emitted,
                                detail,
                            })));
                        return false;
                    }
                },
            }
        };
        if let Some(writer) = self.sink.as_mut() {
            if let Err(e) = writer.append_flat(flat) {
                self.stop = Some(MergeStop::Failed(ExecError::Ckpt(e)));
                return false;
            }
        }
        self.emitted += 1;
        if let Some(checkpoint) = replay {
            if !self.emit(checkpoint) {
                if self.cancel.is_cancelled() && self.sink.is_some() {
                    self.salvage_only = true;
                } else {
                    self.stop = Some(MergeStop::ConsumersGone);
                    return false;
                }
            }
        }
        true
    }

    fn emit(&mut self, checkpoint: UnitCheckpoint<F>) -> bool {
        (self.emit)(checkpoint)
    }

    fn fail(&mut self, error: ExecError) {
        if self.stop.is_none() {
            self.stop = Some(MergeStop::Failed(error));
        }
    }
}

/// What a stitched shard passes to its successor.
enum NextStart<F: Isa> {
    /// Fixpoint found: the shard's own phase-1 handoff is behaviorally
    /// serial, so the successor resumes from it at no extra cost.
    Phase1,
    /// No fixpoint: the stitcher carried its exact engine to the
    /// boundary itself.
    Fallback(Box<Handoff<F>>),
    /// The segment ended early (cancelled shard) — nothing downstream is
    /// provable, stop the merge here.
    None,
}

/// Phase 2 for one shard `s >= 1`: re-warm its leading units from the
/// predecessor's exact serial state until the canonical flats converge,
/// then splice the segment tail verbatim. Returns the successor's start
/// state plus (units re-warmed, instructions re-executed).
fn stitch_shard<F: Frontend>(
    merge: &mut Merge<'_, '_, F>,
    params: &SamplingParams,
    program: &F::Program,
    seg: &SegmentOutput<F>,
    prev: Handoff<F>,
) -> (NextStart<F>, u64, u64) {
    let mut reader = match CkptReader::open(&seg.path, merge.cfg) {
        Ok(r) => r,
        Err(e) => {
            merge.fail(ExecError::Ckpt(e));
            return (NextStart::None, 0, 0);
        }
    };
    let mut engine = FunctionalEngine::from_snapshot(program.clone(), prev.snapshot);
    let mut warm = prev.warm;
    let pos0 = engine.position();
    let mut fixpoint = false;
    let mut exhausted = false;
    let mut rewarmed = 0u64;
    stream_checkpoints_range(
        &mut engine,
        &mut warm,
        params,
        seg.grid_start,
        seg.grid_end,
        None,
        &mut |checkpoint| {
            let seg_flat = match reader.next_flat() {
                // The segment is a strict prefix of the shard's range —
                // only cancellation truncates it. Stop at the prefix.
                None => {
                    exhausted = true;
                    return false;
                }
                Some(Ok(flat)) => flat,
                Some(Err(e)) => {
                    merge.fail(ExecError::Ckpt(e));
                    return false;
                }
            };
            let re_flat = FlatCheckpoint::flatten(&checkpoint);
            if re_flat == seg_flat {
                // Convergence: truncated and serial warming histories
                // now serialize identically, so this unit and every
                // later segment record are proven serial.
                fixpoint = true;
                merge.offer(re_flat, Some(checkpoint));
                return false;
            }
            rewarmed += 1;
            merge.offer(re_flat, Some(checkpoint))
        },
    );
    let mut rewarm_instructions = engine.position() - pos0;
    if merge.stop.is_some() || exhausted {
        return (NextStart::None, rewarmed, rewarm_instructions);
    }
    if fixpoint {
        // Splice the rest of the segment verbatim.
        while let Some(next) = reader.next_flat() {
            match next {
                Ok(flat) => {
                    if !merge.offer(flat, None) {
                        break;
                    }
                }
                Err(e) => {
                    merge.fail(ExecError::Ckpt(e));
                    break;
                }
            }
        }
        (NextStart::Phase1, rewarmed, rewarm_instructions)
    } else {
        // Every unit was re-warmed (or the shard was empty). The
        // shard-local handoff proves nothing, so carry the exact engine
        // to the boundary ourselves — correct, just without speedup.
        if seg.grid_end == u64::MAX || merge.cancel.is_cancelled() {
            return (NextStart::None, rewarmed, rewarm_instructions);
        }
        let target = warm_start_of(params, seg.grid_end);
        match params.warming {
            Warming::None => engine.fast_forward(target),
            Warming::Functional => engine.fast_forward_warming(target, &mut warm),
        };
        rewarm_instructions = engine.position() - pos0;
        (
            NextStart::Fallback(Box::new(Handoff {
                snapshot: engine.snapshot(),
                warm,
            })),
            rewarmed,
            rewarm_instructions,
        )
    }
}

/// The sharded producer: phase 1 (parallel segments) then phase 2
/// (stitch and splice), streaming each proven unit into `sink` and
/// `emit` exactly as the serial producer would. Segments live beside
/// `store` when the run saves one, else under the system temp directory,
/// and are deleted on the way out.
#[allow(clippy::too_many_arguments)]
pub(crate) fn produce_sharded<F: Frontend>(
    executor: &Executor,
    sim: &SmartsSim,
    loaded: &Loaded<F>,
    approx_len: u64,
    params: &SamplingParams,
    store: Option<&Path>,
    sink: Option<CkptWriter>,
    emit: &mut dyn FnMut(UnitCheckpoint<F>) -> bool,
) -> Produced {
    let t0 = Instant::now();
    let cancel = executor.cancel_token();
    let shards = plan_shards(params, approx_len, executor.warm_jobs());
    let paths = segment_paths(shards.len(), store);
    let _cleanup = RemoveOnDrop(paths.clone());
    let mut stats = ShardWarmStats {
        warm_jobs: shards.len(),
        ..ShardWarmStats::default()
    };
    let outputs = match produce_segments::<F>(sim, loaded, params, &shards, &paths, cancel) {
        Ok(outputs) => outputs,
        Err(e) => {
            return Produced {
                emitted: 0,
                producer_wall: t0.elapsed(),
                shard: Some(stats),
                sink,
                error: Some(e),
            }
        }
    };
    stats.warm_wall = t0.elapsed();
    for output in &outputs {
        stats.shard_units.push(output.units);
        stats.shard_instructions.push(output.instructions);
        stats.shard_walls.push(output.wall);
        stats.fixpoints.push(0);
    }

    let stitch_t = Instant::now();
    let program = loaded.program.clone();
    let mut merge = Merge {
        cfg: sim.config(),
        cancel,
        cap: params.max_units,
        sink,
        emit,
        emitted: 0,
        salvage_only: false,
        stop: None,
    };
    // A cancelled shard legitimately stops mid-write; any other write
    // error fails the run.
    let mut outputs = outputs;
    if !cancel.is_cancelled() {
        if let Some(e) = outputs.iter_mut().find_map(|o| o.write_error.take()) {
            merge.fail(ExecError::Ckpt(e));
        }
    }
    let mut prev: Option<Handoff<F>> = None;
    for (s, seg) in outputs.into_iter().enumerate() {
        if merge.stop.is_some() {
            break;
        }
        if s == 0 {
            // The serial prefix: stream verbatim.
            match CkptReader::open(&seg.path, merge.cfg) {
                Ok(mut reader) => {
                    while let Some(next) = reader.next_flat() {
                        match next {
                            Ok(flat) => {
                                if !merge.offer(flat, None) {
                                    break;
                                }
                            }
                            Err(e) => {
                                merge.fail(ExecError::Ckpt(e));
                                break;
                            }
                        }
                    }
                }
                Err(e) => merge.fail(ExecError::Ckpt(e)),
            }
            prev = seg.handoff;
            continue;
        }
        let Some(handoff) = prev.take() else {
            // Predecessor could not prove the boundary state (cancelled
            // mid-range): nothing downstream is stitchable.
            break;
        };
        let (next, rewarmed, instructions) =
            stitch_shard::<F>(&mut merge, params, &program, &seg, handoff);
        stats.fixpoints[s] = rewarmed;
        stats.rewarm_instructions += instructions;
        prev = match next {
            NextStart::Phase1 => seg.handoff,
            NextStart::Fallback(h) => Some(*h),
            NextStart::None => None,
        };
    }
    stats.stitch_wall = stitch_t.elapsed();
    let error = match merge.stop {
        Some(MergeStop::Failed(e)) => Some(e),
        _ => None,
    };
    Produced {
        emitted: merge.emitted,
        producer_wall: t0.elapsed(),
        shard: Some(stats),
        sink: merge.sink,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_core::Warming;

    fn params(approx_len: u64) -> SamplingParams {
        SamplingParams::for_sample_size(approx_len, 1000, 2000, Warming::Functional, 10, 1).unwrap()
    }

    #[test]
    fn shard_plan_lands_on_the_grid_and_covers_it() {
        let p = params(1_000_000);
        for warm_jobs in [1, 2, 3, 4, 8] {
            let shards = plan_shards(&p, 1_000_000, warm_jobs);
            assert!(!shards.is_empty());
            assert!(shards.len() <= warm_jobs);
            assert_eq!(shards[0].0, p.offset);
            assert_eq!(shards.last().unwrap().1, u64::MAX);
            for window in shards.windows(2) {
                assert_eq!(window[0].1, window[1].0, "shards must be contiguous");
            }
            for &(lo, hi) in &shards {
                assert!(lo < hi);
                assert_eq!((lo - p.offset) % p.interval, 0, "boundary off the grid");
            }
        }
    }

    #[test]
    fn shard_plan_clamps_to_the_unit_count() {
        // A stream with ~3 units cannot use 8 shards.
        let p = params(6_000);
        let shards = plan_shards(&p, 6_000, 8);
        assert!(shards.len() <= 6);
        for &(lo, hi) in &shards {
            assert!(lo < hi, "no empty shard ranges");
        }
    }
}
