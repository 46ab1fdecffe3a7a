//! The executor — worker-pool size, cancellation and progress hooks —
//! and the report types every run returns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cancel::{CancelToken, ProgressFn};
use crate::error::ExecError;
use crate::pipeline;
use crate::replay::UnitMemo;
use smarts_core::{
    ModeInstructions, SampleReport, SamplingParams, SmartsError, SmartsSim, UnitReplay, UnitSample,
    WarmSpares,
};
use smarts_isa::BuiltinIsa;
use smarts_workloads::Benchmark;

/// Which route produced a [`ParallelReport`]. A label on the result, not
/// an input: whether a run warms at all is the entry point the caller
/// chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelMode {
    /// Replayed from stored checkpoints ([`crate::replay_store`] and its
    /// siblings): no warming pass, workers claim store records directly.
    Checkpoint,
    /// Streamed checkpoint pipeline: a producer thread runs the in-order
    /// functional-warming pass and emits each unit's checkpoint into a
    /// bounded channel the moment its boundary is reached; `jobs`
    /// consumers replay concurrently. Warming and replay overlap (wall
    /// time tends to `max(T_warm, T_detail/jobs)`) and peak checkpoint
    /// residency is bounded by the channel depth plus in-flight replays
    /// instead of O(n units). A one-worker run that keeps no store has
    /// no channel: its one thread warms and replays in turn.
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
    /// Wall-clock the worker spent on its share of the run.
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
    /// Producer-side and residency accounting; `None` for a one-worker
    /// run that keeps no store, which replays on the warming thread.
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

/// Producer-side accounting of one run and the bounded checkpoint
/// residency that replaces an O(n units) footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Channel capacity, in checkpoints: [`PIPELINE_DEPTH`] (zero for a
    /// store replay: no channel, workers claim record indices directly).
    pub depth: usize,
    /// Wall-clock of the producer's functional-warming pass. It runs
    /// concurrently with the consumers, so it is *not* added to
    /// [`ParallelReport::wall_total`]; `parallel_wall` already covers it.
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
pub(crate) struct WorkerLog {
    started: Instant,
    instructions: ModeInstructions,
    outcomes: Vec<(usize, UnitReplay)>,
    pub(crate) memoized: u64,
}

impl WorkerLog {
    pub(crate) fn start() -> Self {
        WorkerLog {
            started: Instant::now(),
            instructions: ModeInstructions::default(),
            outcomes: Vec::new(),
            memoized: 0,
        }
    }

    /// Books the outcome of stream-order unit `index`.
    pub(crate) fn record(&mut self, index: usize, outcome: UnitReplay) {
        outcome.account(&mut self.instructions);
        self.outcomes.push((index, outcome));
    }

    pub(crate) fn finish(self, worker: usize) -> (WorkerStats, Vec<(usize, UnitReplay)>) {
        let stats = WorkerStats {
            worker,
            units: self.outcomes.len() as u64,
            memoized: self.memoized,
            wall: self.started.elapsed(),
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
    /// recovers stream order whichever worker measured what.
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
        let report =
            SampleReport::from_units(*params, units, instructions, Duration::ZERO, self.wall);
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
/// use smarts_exec::Executor;
/// use smarts_core::{SamplingParams, SmartsSim, Warming};
/// use smarts_uarch::MachineConfig;
/// use smarts_workloads::find;
///
/// # fn main() -> Result<(), smarts_exec::ExecError> {
/// let sim = SmartsSim::new(MachineConfig::eight_way());
/// let bench = find("loopy-1").unwrap().scaled(0.05);
/// let params = SamplingParams::for_sample_size(
///     bench.approx_len(), 1000, 2000, Warming::Functional, 10, 0)
///     .map_err(smarts_exec::ExecError::Smarts)?;
/// let outcome = Executor::new(2)?.sample(&sim, &bench, &params)?;
/// assert!(outcome.report.sample_size() > 0);
/// assert_eq!(outcome.workers.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Executor {
    jobs: usize,
    cancel: CancelToken,
    progress: Option<ProgressFn>,
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

/// Pipeline channel depth, in checkpoints. Deep enough to ride out
/// replay-cost variance between units, shallow enough that resident
/// checkpoints stay a small multiple of the worker count; no other
/// value measured better (EXPERIMENTS.md § What PR 18 deleted).
pub const PIPELINE_DEPTH: usize = 4;

impl Executor {
    /// Creates an executor with `jobs` workers.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ZeroJobs`] when `jobs` is zero.
    pub fn new(jobs: usize) -> Result<Self, ExecError> {
        if jobs == 0 {
            return Err(ExecError::ZeroJobs);
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
    /// producer/worker threads, so it must be cheap and non-blocking. A
    /// one-worker run that keeps no store has no producer and pushes none.
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

    /// Bundles the cancellation and progress hooks for one run.
    pub(crate) fn control(&self) -> pipeline::RunControl {
        pipeline::RunControl {
            cancel: self.cancel.clone(),
            progress: self.progress.clone(),
        }
    }

    /// Worker-pool size.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs one pipelined sampling simulation of a suite benchmark,
    /// keeping no store: [`crate::sample`] for a workload the caller
    /// already holds (and may have scaled freely, since no store header
    /// has to name it). At one worker this is [`SmartsSim::sample`].
    ///
    /// # Errors
    ///
    /// Propagates sampling errors, refuses a [`smarts_core::Warming::None`]
    /// design above one worker ([`ExecError::NoFunctionalWarming`]), and
    /// reports worker panics as [`ExecError::WorkerPanic`].
    pub fn sample(
        &self,
        sim: &SmartsSim,
        bench: &Benchmark,
        params: &SamplingParams,
    ) -> Result<ParallelReport, ExecError> {
        let warmed =
            crate::warm::run_warm::<BuiltinIsa>(self, sim, bench.load(), params, None, true)?;
        Ok(warmed.report.expect("a replaying run merges a report"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_bit_identical, sequential_oracle};
    use crate::{replay_store, sample, warm_store};
    use smarts_core::Warming;
    use smarts_uarch::MachineConfig;
    use smarts_workloads::find;

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
        assert!(matches!(Executor::new(0), Err(ExecError::ZeroJobs)));
    }

    #[test]
    fn checkpoint_replay_is_bit_identical_to_sequential() {
        let sim = sim();
        let scale = 0.05;
        let bench = find("hashp-2").unwrap().scaled(scale);
        let params = design(&bench, 10);
        let sequential = sequential_oracle(&sim, bench.load(), &params);
        let path = store_path("replay");
        let one = Executor::new(1).unwrap();
        warm_store::<BuiltinIsa>(&one, &sim, bench.name(), scale, &params, &path).unwrap();
        for jobs in [1, 2, 4] {
            let executor = Executor::new(jobs).unwrap();
            let replayed = replay_store::<BuiltinIsa>(&executor, &sim, &path).unwrap();
            assert_eq!(replayed.report.mode, ParallelMode::Checkpoint);
            assert_eq!(replayed.report.workers.len(), jobs);
            assert_bit_identical(
                &replayed.report.report,
                &sequential,
                &format!("store replay at {jobs} jobs"),
            );
            for (a, b) in replayed.report.report.units.iter().zip(&sequential.units) {
                assert_eq!(a.counters, b.counters);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_worker_is_accounted_for() {
        let sim = sim();
        let bench = find("loopy-1").unwrap().scaled(0.05);
        let outcome = Executor::new(3)
            .unwrap()
            .sample(&sim, &bench, &design(&bench, 9))
            .unwrap();
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
        let save = Some(path.as_path());
        sample::<BuiltinIsa>(&executor, &sim8, "loopy-1", 0.02, &design(&bench, 5), save).unwrap();
        let sim16 = SmartsSim::new(MachineConfig::sixteen_way());
        let err = replay_store::<BuiltinIsa>(&executor, &sim16, &path).unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Ckpt(smarts_ckpt::CkptError::FingerprintMismatch { .. })
            ),
            "expected a fingerprint mismatch, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
