//! The executor — worker-pool size, cancellation and progress hooks —
//! and the report types every run returns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cancel::{CancelToken, ProgressFn};
use crate::error::ExecError;
use crate::replay::{SampledReplay, UnitMemo};
use smarts_ckpt::{CkptError, WriteSummary};
use smarts_core::{
    ModeInstructions, SampleReport, SamplingParams, SmartsError, UnitReplay, UnitSample, WarmSpares,
};

/// Which route produced a [`ParallelReport`]. A label on the result, not
/// an input: whether a run warms at all is the entry point the caller
/// chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelMode {
    /// Replayed from stored checkpoints ([`crate::replay`]): no warming
    /// pass, workers claim store records directly.
    Checkpoint,
    /// Streamed checkpoint pipeline: a producer thread runs the in-order
    /// functional-warming pass and emits each unit's checkpoint into a
    /// bounded channel the moment its boundary is reached; `jobs`
    /// consumers replay concurrently. Warming and replay overlap (wall
    /// time tends to `max(T_warm, T_detail/jobs)`) and peak checkpoint
    /// residency is bounded by the channel depth plus in-flight replays
    /// instead of O(n units). One worker is one consumer beside the
    /// producer, so it overlaps too; only the
    /// [`smarts_core::Warming::None`] design warms and replays in turn
    /// on one thread, and reports no [`PipelineStats`].
    Pipeline,
}

impl std::fmt::Display for ParallelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ParallelMode::Checkpoint => "checkpoint",
            ParallelMode::Pipeline => "pipeline",
        })
    }
}

/// Per-worker cost accounting for one parallel run.
///
/// `instructions` uses the report's mode breakdown (the paper's Table 6
/// categories), so per-worker rows can be summed or tabulated with the
/// existing reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Zero-based worker index.
    pub worker: usize,
    /// Sampling units this worker measured (including a partial tail).
    pub units: u64,
    /// How many of `units` came out of a [`UnitMemo`], not a simulation.
    pub memoized: u64,
    /// Wall-clock the worker spent on its units — decoding and replaying
    /// them, not waiting for the producer to emit the next one.
    pub wall: Duration,
    /// Instructions the worker simulated, by mode.
    pub instructions: ModeInstructions,
}

/// The result of a parallel sampling run: the merged [`SampleReport`]
/// plus the parallel-execution accounting a sequential report cannot
/// carry.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// The merged report, reduced in stream order: its estimates (CPI,
    /// EPI, V̂, and hence every confidence interval) are bit-identical to
    /// replaying the same checkpoints one after another on one thread, at
    /// any worker count.
    pub report: SampleReport,
    /// The route that produced the run.
    pub mode: ParallelMode,
    /// Worker-pool size the run was configured with.
    pub jobs: usize,
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock of a sequential phase ahead of the parallel one. No
    /// route has one — warming overlaps replay and is reported in
    /// [`PipelineStats::producer_wall`]; store replays do not warm — so
    /// this is zero.
    pub build_wall: Duration,
    /// Wall-clock of the parallel phase (the longest worker critical
    /// path, as observed by the caller): the whole overlapped run.
    pub parallel_wall: Duration,
    /// Producer-side and residency accounting; `None` only for the
    /// [`smarts_core::Warming::None`] design, which replays on the
    /// warming thread with no channel.
    pub pipeline: Option<PipelineStats>,
    /// Always `None`: sharded warming was measured and deleted, and the
    /// benchmark's staged pass still spells this field in a literal.
    pub shard: Option<std::convert::Infallible>,
}

impl ParallelReport {
    /// Total wall-clock of the run.
    pub fn wall_total(&self) -> Duration {
        self.build_wall + self.parallel_wall
    }

    /// Sum of all workers' simulated instructions, by mode.
    pub fn worker_instructions(&self) -> ModeInstructions {
        let mut total = ModeInstructions::default();
        for w in &self.workers {
            total.fast_forwarded += w.instructions.fast_forwarded;
            total.detailed_warmed += w.instructions.detailed_warmed;
            total.measured += w.instructions.measured;
        }
        total
    }
}

/// What one run estimated: the systematic report over every checkpointed
/// unit, or a sampler's selection from the grid.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Estimate {
    /// The systematic estimator, every unit merged in stream order.
    Systematic(ParallelReport),
    /// A stratified or adaptive selection, with the sampler's estimate.
    Sampled(SampledReplay),
}

impl Estimate {
    /// The merged report with its parallel accounting, either estimator's.
    pub fn report(&self) -> &ParallelReport {
        match self {
            Estimate::Systematic(report) => report,
            Estimate::Sampled(sampled) => &sampled.report,
        }
    }
}

/// The result of either entry point, [`crate::sample`] or [`crate::replay`].
#[derive(Debug)]
pub struct Run {
    /// What the run estimated.
    pub estimate: Estimate,
    /// What the warming pass wrote to the store the caller kept, if any.
    pub write: Option<WriteSummary>,
    /// Where a systematic store replay met damage: the records of the
    /// intact prefix it replayed, and the typed error for the rest. A
    /// sampler refuses a damaged store instead ([`ExecError::Ckpt`]).
    pub damage: Option<(u64, CkptError)>,
}

/// Producer-side accounting of one run and the bounded checkpoint
/// residency that replaces an O(n units) footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Channel capacity, in checkpoints: [`PIPELINE_DEPTH`] (zero for a
    /// store replay: no channel, workers claim record indices directly).
    pub depth: usize,
    /// Wall-clock of the producer's functional-warming pass, also the
    /// report's `wall_functional`. It runs concurrently with the
    /// consumers, so it is *not* added to [`ParallelReport::wall_total`];
    /// `parallel_wall` already covers it.
    pub producer_wall: Duration,
    /// Checkpoints the producer emitted (store records replayed, for a
    /// store replay).
    pub emitted: u64,
    /// Most checkpoints simultaneously alive (queued, being replayed,
    /// plus the one the producer holds while offering it); bounded by
    /// `depth + jobs + 1` by construction.
    pub peak_resident_checkpoints: usize,
    /// Peak bytes those resident checkpoints held (per-checkpoint
    /// footprints, with copy-on-write page sharing between live
    /// checkpoints not discounted — an upper bound).
    pub peak_resident_bytes: u64,
}

/// One worker's share of a run, built up unit by unit — the accounting
/// the pipeline's consumers and the store-replay workers share.
#[derive(Default)]
pub(crate) struct WorkerLog {
    wall: Duration,
    instructions: ModeInstructions,
    outcomes: Vec<(usize, UnitReplay)>,
    pub(crate) memoized: u64,
}

impl WorkerLog {
    /// Books the outcome of stream-order unit `index`, whose work began
    /// at `started`.
    pub(crate) fn record(&mut self, index: usize, outcome: UnitReplay, started: Instant) {
        self.wall += started.elapsed();
        outcome.account(&mut self.instructions);
        self.outcomes.push((index, outcome));
    }

    pub(crate) fn finish(self, worker: usize) -> (WorkerStats, Vec<(usize, UnitReplay)>) {
        let stats = WorkerStats {
            worker,
            units: self.outcomes.len() as u64,
            memoized: self.memoized,
            wall: self.wall,
            instructions: self.instructions,
        };
        (stats, self.outcomes)
    }
}

/// What the replay side of one run produced, before the deterministic
/// merge: indexed per-unit outcomes, per-worker accounting, and the wall
/// the workers ran for.
pub(crate) struct Replayed {
    pub outcomes: Vec<(usize, UnitReplay)>,
    pub workers: Vec<WorkerStats>,
    pub wall: Duration,
}

impl Replayed {
    /// Collects finished [`WorkerLog`]s, in worker order.
    pub(crate) fn gather(
        logs: impl IntoIterator<Item = (WorkerStats, Vec<(usize, UnitReplay)>)>,
        wall: Duration,
    ) -> Self {
        let mut run = Replayed {
            outcomes: Vec::new(),
            workers: Vec::new(),
            wall,
        };
        for (stats, outcomes) in logs {
            run.workers.push(stats);
            run.outcomes.extend(outcomes);
        }
        run
    }

    /// Reduces the outcomes in stream order, stopping at the first
    /// partial unit exactly as a sequential replay loop does — the one
    /// merge behind every route. Indices are distinct, so sorting them
    /// recovers stream order whichever worker measured what. The walls
    /// are the producer's and the workers' summed: they may overlap.
    pub(crate) fn into_report(
        mut self,
        params: &SamplingParams,
        jobs: usize,
        mode: ParallelMode,
        pipeline: PipelineStats,
    ) -> Result<ParallelReport, ExecError> {
        self.outcomes.sort_unstable_by_key(|(index, _)| *index);
        let mut units: Vec<UnitSample> = Vec::with_capacity(self.outcomes.len());
        let mut instructions = ModeInstructions::default();
        for (_, replay) in self.outcomes {
            replay.account(&mut instructions);
            match replay {
                UnitReplay::Complete { sample, .. } => units.push(*sample),
                UnitReplay::Partial { .. } => break,
            }
        }
        if units.is_empty() {
            return Err(ExecError::Smarts(SmartsError::EmptySample));
        }
        let (warm, replay) = (
            pipeline.producer_wall,
            self.workers.iter().map(|w| w.wall).sum(),
        );
        let report = SampleReport::from_units(*params, units, instructions, warm, replay);
        Ok(ParallelReport {
            report,
            mode,
            jobs,
            workers: self.workers,
            build_wall: Duration::ZERO,
            parallel_wall: self.wall,
            pipeline: Some(pipeline),
            shard: None,
        })
    }
}

/// A parallel sampling executor: the worker-pool size, plus the
/// cancellation and progress hooks its runs honor.
///
/// # Examples
///
/// ```
/// use smarts_ckpt::{IsaId, StoreMeta};
/// use smarts_exec::{approx_len, sample, Executor};
/// use smarts_core::{SamplerSpec, SamplingParams, SmartsSim, Warming};
/// use smarts_uarch::MachineConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sim = SmartsSim::new(MachineConfig::eight_way());
/// let (benchmark, scale, isa) = ("loopy-1".to_string(), 0.05, IsaId::Builtin);
/// let len = approx_len(isa, &benchmark, scale)?;
/// let params = SamplingParams::for_sample_size(len, 1000, 2000, Warming::Functional, 10, 0)?;
/// let meta = StoreMeta { params, benchmark, scale, isa };
/// let spec = SamplerSpec::systematic();
/// let run = sample(&Executor::new(2)?, &sim, &meta, &spec, None)?;
/// let outcome = run.estimate.report();
/// assert!(outcome.report.sample_size() > 0);
/// assert_eq!(outcome.workers.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Executor {
    jobs: usize,
    cancel: CancelToken,
    pub(crate) progress: Option<ProgressFn>,
    pub(crate) memo: Option<Arc<UnitMemo>>,
    pub(crate) spares: Arc<WarmSpares>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("jobs", &self.jobs)
            .field("cancelled", &self.cancel.is_cancelled())
            .field("progress", &self.progress.as_ref().map(|_| "<observer>"))
            .finish()
    }
}

/// Pipeline channel depth, in checkpoints. Each one queued holds a
/// whole warm-state copy, and depths 1, 4 and 16 measured the same wall
/// (EXPERIMENTS.md § One warm route), so the queue holds one: the
/// producer warms the next unit while it waits.
pub const PIPELINE_DEPTH: usize = 1;

/// The most workers one executor runs: the bound on `--jobs` and on a
/// served job's `jobs`, far past any host's cores and short of the
/// thread count that makes spawning fail.
pub const MAX_JOBS: usize = 256;

impl Executor {
    /// Creates an executor with `jobs` workers, `1..=MAX_JOBS`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Jobs`] for a count outside `1..=MAX_JOBS`.
    pub fn new(jobs: usize) -> Result<Self, ExecError> {
        if !(1..=MAX_JOBS).contains(&jobs) {
            return Err(ExecError::Jobs(jobs));
        }
        Ok(Executor {
            jobs,
            cancel: CancelToken::new(),
            progress: None,
            memo: None,
            spares: Arc::default(),
        })
    }

    /// Attaches a cancellation token: runs stop taking on new units once
    /// the token is cancelled and return [`ExecError::Cancelled`]. The
    /// caller keeps a clone of the token and may cancel from any thread.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a progress observer: runs push a
    /// [`crate::PipelineProgress`] snapshot each time the producer emits a
    /// checkpoint or a worker finishes a unit. The callback runs on
    /// producer/worker threads, so it must be cheap and non-blocking. It
    /// fires at one worker too; only a [`smarts_core::Warming::None`] run
    /// has no producer and pushes none.
    pub fn with_progress(mut self, observer: ProgressFn) -> Self {
        self.progress = Some(observer);
        self
    }

    /// Attaches a [`UnitMemo`]: store replays book the outcomes it holds
    /// instead of simulating them again, and fill in the rest. It must be
    /// the memo of their simulator and store ([`ExecError::MemoMismatch`]).
    pub fn with_memo(mut self, memo: Arc<UnitMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Recycles checkpoint warm states through `spares` instead of a set
    /// of this executor's own: a caller that runs one job after another
    /// (a server worker) keeps them across runs. A warming run keeps up
    /// to `PIPELINE_DEPTH + jobs + 1` idle states — its most in flight.
    pub fn with_spares(mut self, spares: Arc<WarmSpares>) -> Self {
        self.spares = spares;
        self
    }

    /// The cancellation token runs poll.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Worker-pool size.
    pub fn jobs(&self) -> usize {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_bit_identical, meta, sequential_oracle};
    use crate::{replay, sample};
    use smarts_ckpt::{IsaId, MappedStore};
    use smarts_core::{SamplerSpec, SmartsSim, Warming};
    use smarts_uarch::MachineConfig;
    use smarts_workloads::{find, Benchmark};

    fn sim() -> SmartsSim {
        SmartsSim::new(MachineConfig::eight_way())
    }

    fn design(bench: &Benchmark, n: u64) -> SamplingParams {
        SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, n, 1)
            .unwrap()
    }

    fn store_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("smarts-exec-{tag}-{}.ckpt", std::process::id()))
    }

    #[test]
    fn executor_rejects_zero_jobs() {
        // And every count past the bound: no run tries to spawn them.
        for jobs in [0, MAX_JOBS + 1, 50_000] {
            assert!(matches!(Executor::new(jobs), Err(ExecError::Jobs(n)) if n == jobs));
        }
        assert_eq!(Executor::new(MAX_JOBS).unwrap().jobs(), MAX_JOBS);
    }

    #[test]
    fn checkpoint_replay_is_bit_identical_to_sequential() {
        let sim = sim();
        let scale = 0.05;
        let bench = find("hashp-2").unwrap().scaled(scale);
        let params = design(&bench, 10);
        let sequential = sequential_oracle(&sim, bench.load(), &params);
        let path = store_path("replay");
        let spec = SamplerSpec::systematic();
        let one = Executor::new(1).unwrap();
        let meta = meta(IsaId::Builtin, bench.name(), scale, &params);
        sample(&one, &sim, &meta, &spec, Some(&path)).unwrap();
        let store = MappedStore::open(&path, sim.config()).unwrap();
        for jobs in [1, 2, 4] {
            let executor = Executor::new(jobs).unwrap();
            let run = replay(&executor, &sim, &store, &spec).unwrap();
            let replayed = run.estimate.report();
            assert_eq!(replayed.mode, ParallelMode::Checkpoint);
            assert_eq!(replayed.workers.len(), jobs);
            let what = format!("store replay at {jobs} jobs");
            assert_bit_identical(&replayed.report, &sequential, &what);
            for (a, b) in replayed.report.units.iter().zip(&sequential.units) {
                assert_eq!(a.counters, b.counters);
            }
        }
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_worker_is_accounted_for() {
        let sim = sim();
        let bench = find("loopy-1").unwrap().scaled(0.05);
        let (spec, executor) = (SamplerSpec::systematic(), Executor::new(3).unwrap());
        let params = design(&bench, 9);
        let meta = meta(IsaId::Builtin, "loopy-1", 0.05, &params);
        let run = sample(&executor, &sim, &meta, &spec, None);
        let outcome = run.unwrap().estimate.report().clone();
        assert_eq!(outcome.workers.len(), 3);
        assert_eq!(outcome.jobs, 3);
        assert_eq!(outcome.mode, ParallelMode::Pipeline);
        // Workers claim every checkpointed unit, including a partial tail
        // the merge excludes from the sample.
        let claimed: u64 = outcome.workers.iter().map(|w| w.units).sum();
        assert!(claimed >= outcome.report.sample_size());
        assert!(claimed <= outcome.report.sample_size() + 1);
        let totals = outcome.worker_instructions();
        assert_eq!(totals.measured, outcome.report.instructions.measured);
        assert_eq!(
            totals.detailed_warmed,
            outcome.report.instructions.detailed_warmed
        );
        assert_eq!(outcome.build_wall, Duration::ZERO);
    }

    #[test]
    fn incompatible_geometry_is_rejected() {
        let sim8 = sim();
        let bench = find("loopy-1").unwrap().scaled(0.02);
        let path = store_path("geometry");
        let executor = Executor::new(2).unwrap();
        let (spec, save) = (SamplerSpec::systematic(), Some(path.as_path()));
        let params = design(&bench, 5);
        let meta = meta(IsaId::Builtin, "loopy-1", 0.02, &params);
        sample(&executor, &sim8, &meta, &spec, save).unwrap();
        // A replay needs the store open under its machine, which checks
        // the warm geometry first.
        let sim16 = SmartsSim::new(MachineConfig::sixteen_way());
        let err = MappedStore::open(&path, sim16.config()).unwrap_err();
        assert!(
            matches!(err, CkptError::FingerprintMismatch { .. }),
            "expected a fingerprint mismatch, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
