//! The streamed checkpoint pipeline: one producer thread emits each
//! unit's checkpoint into a bounded channel the moment its boundary is
//! reached; `jobs` consumer workers pull checkpoints and replay them
//! concurrently.
//!
//! The two phases overlap — wall time tends to
//! `max(T_warm, T_detail/jobs)` instead of `T_warm + T_detail/jobs` —
//! and peak checkpoint residency is bounded by the channel depth plus
//! in-flight replays instead of O(n units).
//!
//! # Channel protocol
//!
//! The channel is a hand-rolled bounded MPMC queue (`Mutex<VecDeque>` +
//! two condvars; the standard library's `sync_channel` cannot observe
//! consumer death from the sending side):
//!
//! * a blocked side polls, yielding its CPU, for up to [`SPIN`] before
//!   it parks on its condvar, so the two sides keep a core each,
//! * `send` blocks while the queue is at capacity and returns `false`
//!   once every consumer has left — the producer's signal to stop
//!   warming early instead of deadlocking against a dead pool,
//! * `recv` blocks while the queue is empty and returns `None` once the
//!   producer has closed — the consumers' termination signal,
//! * both the close (producer side) and the leave (consumer side) are
//!   drop guards, so they fire even when a thread unwinds.
//!
//! # Bit-identity
//!
//! Consumers run [`smarts_core::SmartsSim::replay_with`] (the episode of
//! `replay_owned`, handing the warm state back to the producer), the one
//! per-unit episode every replay shares. Units are mutually independent
//! given their checkpoints, and the merge reduces them in stream order,
//! so the report is bit-identical to replaying the producer's
//! checkpoints one after another at any `jobs`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::cancel::PipelineProgress;
use crate::error::ExecError;
use crate::executor::{Executor, PipelineStats, Replayed, WorkerLog, PIPELINE_DEPTH};
use crate::pool::panic_message;
use smarts_core::{UnitCheckpoint, UnitReplay};
use smarts_isa::Isa;

/// How long a blocked `send` or `recv` polls before it parks. The
/// scheduler tends to wake a parked thread onto its waker's CPU, so a
/// producer and a consumer parking in turn each unit end up sharing one
/// core; a thread still polling when its item arrives keeps its own.
const SPIN: Duration = Duration::from_millis(2);

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
    consumers: usize,
}

/// A bounded multi-consumer channel whose `send` can observe consumer
/// death (returning `false`) and whose `recv` can observe producer
/// completion (returning `None`).
struct Channel<T> {
    capacity: usize,
    state: Mutex<ChannelState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Channel<T> {
    fn new(capacity: usize, consumers: usize) -> Self {
        Channel {
            capacity,
            state: Mutex::new(ChannelState {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
                consumers,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The channel state, locked. Poisoning is ignored: every critical
    /// section is one push, pop, flag write or counter step, none of which
    /// runs caller code, so a panicking holder cannot leave the state
    /// half-updated — and a consumer that panics *outside* the lock must
    /// still be able to `leave` (its drop guard) without a second panic.
    fn lock(&self) -> MutexGuard<'_, ChannelState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for the other side, for a caller waiting since `since`: by
    /// yielding unlocked within [`SPIN`] of it, then by blocking on
    /// `condvar`, ignoring poisoning as [`Channel::lock`] does.
    fn wait<'a>(
        &'a self,
        condvar: &Condvar,
        state: MutexGuard<'a, ChannelState<T>>,
        since: Instant,
    ) -> MutexGuard<'a, ChannelState<T>> {
        if since.elapsed() < SPIN {
            drop(state);
            thread::yield_now();
            return self.lock();
        }
        condvar.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks while the queue is at capacity; delivers `item` and
    /// returns `true`, or drops it and returns `false` once every
    /// consumer has left.
    fn send(&self, item: T) -> bool {
        let mut state = self.lock();
        let since = Instant::now();
        loop {
            if state.consumers == 0 {
                return false;
            }
            if state.queue.len() < self.capacity {
                state.queue.push_back(item);
                self.not_empty.notify_one();
                return true;
            }
            state = self.wait(&self.not_full, state, since);
        }
    }

    /// Blocks while the queue is empty; returns `None` once the producer
    /// has closed and the queue has drained.
    fn recv(&self) -> Option<T> {
        let mut state = self.lock();
        let since = Instant::now();
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.wait(&self.not_empty, state, since);
        }
    }

    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.not_empty.notify_all();
    }

    fn leave(&self) {
        let mut state = self.lock();
        state.consumers -= 1;
        self.not_full.notify_all();
    }
}

/// Closes the channel when dropped — fires even if the producer unwinds,
/// so consumers never block on a stream that will not resume.
struct CloseOnDrop<'a, T>(&'a Channel<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Deregisters one consumer when dropped — fires even if the consumer
/// unwinds, so the producer never blocks sending to a dead pool.
struct LeaveOnDrop<'a, T>(&'a Channel<T>);

impl<T> Drop for LeaveOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.leave();
    }
}

/// Live-checkpoint accounting: current and peak counts/bytes across
/// every thread touching checkpoints (pipeline producer/consumers, or
/// the lazy store-replay workers). Per-checkpoint byte footprints do
/// not discount copy-on-write sharing between live checkpoints, so the
/// peaks are upper bounds.
#[derive(Default)]
pub(crate) struct Residency {
    count: AtomicUsize,
    bytes: AtomicU64,
    peak_count: AtomicUsize,
    peak_bytes: AtomicU64,
}

impl Residency {
    pub(crate) fn add(&self, bytes: u64) {
        let count = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_count.fetch_max(count, Ordering::Relaxed);
        let total = self.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(total, Ordering::Relaxed);
    }

    pub(crate) fn remove(&self, bytes: u64) {
        self.count.fetch_sub(1, Ordering::Relaxed);
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// The peaks so far, beside the producer-side figures of the run
    /// they belong to.
    pub(crate) fn stats(
        &self,
        depth: usize,
        producer_wall: Duration,
        emitted: u64,
    ) -> PipelineStats {
        PipelineStats {
            depth,
            producer_wall,
            emitted,
            peak_resident_checkpoints: self.peak_count.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Shared emit/replay counters behind the progress observer.
#[derive(Default)]
struct ProgressCounters {
    emitted: AtomicU64,
    replayed: AtomicU64,
}

impl ProgressCounters {
    fn snapshot(&self) -> PipelineProgress {
        PipelineProgress {
            emitted: self.emitted.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
        }
    }
}

/// The producer/consumer engine under [`crate::warm::run_warm`], over
/// a channel [`PIPELINE_DEPTH`] deep. `produce` is handed an `emit`
/// callback (returning `false` once every consumer has left *or* the
/// executor's cancel token fired) and runs on its own thread; `replay`
/// runs on each of the executor's consumer threads. Both sides push
/// [`PipelineProgress`] snapshots to its observer, if any. Returns
/// whatever the producer returned beside the consumers' side.
///
/// Cancellation stops the stream at the next unit boundary; consumers
/// still drain whatever was already queued, so a cancelled run returns
/// `Ok` with partial outcomes and the *caller* decides whether partial
/// state is worth flushing before surfacing
/// [`ExecError::Cancelled`](crate::ExecError::Cancelled).
pub(crate) fn run_pipeline<I, S, P, R>(
    executor: &Executor,
    residency: &Residency,
    produce: P,
    replay: R,
) -> Result<(S, Replayed), ExecError>
where
    I: Isa,
    S: Send,
    P: FnOnce(&mut dyn FnMut(UnitCheckpoint<I>) -> bool) -> S + Send,
    R: Fn(UnitCheckpoint<I>) -> UnitReplay + Sync,
{
    let jobs = executor.jobs();
    let channel: Channel<(usize, u64, UnitCheckpoint<I>)> = Channel::new(PIPELINE_DEPTH, jobs);
    let counters = ProgressCounters::default();
    let t0 = Instant::now();

    let (producer_result, consumer_results) = thread::scope(|scope| {
        let channel = &channel;
        let replay = &replay;
        let counters = &counters;
        let cancel = executor.cancel_token();
        let progress = executor.progress.as_deref();

        let producer = scope.spawn(move || {
            let _close = CloseOnDrop(channel);
            let mut next_index = 0usize;
            let mut emit = |checkpoint: UnitCheckpoint<I>| {
                if cancel.is_cancelled() {
                    return false;
                }
                let bytes = checkpoint.approx_resident_bytes();
                residency.add(bytes);
                let index = next_index;
                next_index += 1;
                if channel.send((index, bytes, checkpoint)) {
                    counters.emitted.fetch_add(1, Ordering::Relaxed);
                    if let Some(observe) = progress {
                        observe(counters.snapshot());
                    }
                    true
                } else {
                    residency.remove(bytes);
                    false
                }
            };
            produce(&mut emit)
        });

        let consumers: Vec<_> = (0..jobs)
            .map(|worker| {
                scope.spawn(move || {
                    let _leave = LeaveOnDrop(channel);
                    let mut log = WorkerLog::default();
                    while let Some((index, bytes, checkpoint)) = channel.recv() {
                        let started = Instant::now();
                        let outcome = replay(checkpoint);
                        residency.remove(bytes);
                        log.record(index, outcome, started);
                        counters.replayed.fetch_add(1, Ordering::Relaxed);
                        if let Some(observe) = progress {
                            observe(counters.snapshot());
                        }
                    }
                    log.finish(worker)
                })
            })
            .collect();

        let consumer_results: Vec<_> = consumers
            .into_iter()
            .enumerate()
            .map(|(worker, handle)| {
                handle.join().map_err(|payload| ExecError::WorkerPanic {
                    worker,
                    message: panic_message(payload),
                })
            })
            .collect();
        // The producer is reported as worker `jobs`, past the consumers.
        let producer_result = producer.join().map_err(|payload| ExecError::WorkerPanic {
            worker: jobs,
            message: panic_message(payload),
        });
        (producer_result, consumer_results)
    });
    let wall = t0.elapsed();

    // Consumer panics take precedence: they are the usual root cause of a
    // producer that reports a stopped stream.
    let logs = consumer_results
        .into_iter()
        .collect::<Result<Vec<_>, ExecError>>()?;
    Ok((producer_result?, Replayed::gather(logs, wall)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_bit_identical, meta, sequential_oracle};
    use crate::{CancelToken, Executor, ParallelMode, ParallelReport};
    use smarts_core::{SamplerSpec, SamplingParams, SmartsError, SmartsSim, Warming};
    use smarts_isa::IsaId;
    use smarts_uarch::MachineConfig;
    use smarts_workloads::{find, Benchmark};

    /// The systematic run of suite benchmark `name` at `scale` that
    /// keeps no store.
    fn systematic(
        executor: &Executor,
        name: &str,
        scale: f64,
        params: &SamplingParams,
    ) -> Result<ParallelReport, ExecError> {
        let spec = SamplerSpec::systematic();
        let meta = meta(IsaId::Builtin, name, scale, params);
        let run = crate::sample(executor, &sim(), &meta, &spec, None)?;
        Ok(run.estimate.report().clone())
    }

    #[test]
    fn channel_delivers_in_order_then_closes() {
        let channel: Channel<u32> = Channel::new(4, 1);
        assert!(channel.send(1));
        assert!(channel.send(2));
        assert!(channel.send(3));
        channel.close();
        assert_eq!(channel.recv(), Some(1));
        assert_eq!(channel.recv(), Some(2));
        assert_eq!(channel.recv(), Some(3));
        assert_eq!(channel.recv(), None);
        assert_eq!(channel.recv(), None);
    }

    #[test]
    fn channel_send_fails_once_consumers_leave() {
        let channel: Channel<u32> = Channel::new(2, 2);
        channel.leave();
        assert!(channel.send(7), "one consumer still registered");
        channel.leave();
        assert!(!channel.send(8), "no consumers left");
    }

    #[test]
    fn channel_blocks_at_capacity_until_drained() {
        let channel: Channel<u32> = Channel::new(1, 1);
        thread::scope(|scope| {
            scope.spawn(|| {
                // The second send must block until the main thread
                // receives the first item.
                assert!(channel.send(10));
                assert!(channel.send(20));
                channel.close();
            });
            assert_eq!(channel.recv(), Some(10));
            assert_eq!(channel.recv(), Some(20));
            assert_eq!(channel.recv(), None);
        });
    }

    #[test]
    fn channel_wakes_a_receiver_parked_past_the_spin() {
        let channel: Channel<u32> = Channel::new(1, 1);
        thread::scope(|scope| {
            scope.spawn(|| {
                thread::sleep(SPIN * 5);
                assert!(channel.send(5));
                channel.close();
            });
            assert_eq!(channel.recv(), Some(5));
            assert_eq!(channel.recv(), None);
        });
    }

    #[test]
    fn channel_unblocks_a_full_send_when_consumers_die() {
        let channel: Channel<u32> = Channel::new(1, 1);
        thread::scope(|scope| {
            let sender = scope.spawn(|| {
                assert!(channel.send(1));
                // Fills the queue; blocks until the consumer leaves,
                // then reports failure instead of deadlocking.
                channel.send(2)
            });
            // Wait for the first send to land before the consumer dies,
            // so the sender is full (or about to block) when it does.
            while channel.state.lock().unwrap().queue.is_empty() {
                thread::yield_now();
            }
            let guard = LeaveOnDrop(&channel);
            drop(guard);
            assert!(!sender.join().unwrap());
        });
    }

    fn sim() -> SmartsSim {
        SmartsSim::new(MachineConfig::eight_way())
    }

    fn design(bench: &Benchmark, n: u64) -> SamplingParams {
        SamplingParams::for_sample_size(bench.approx_len(), 1000, 2000, Warming::Functional, n, 1)
            .unwrap()
    }

    #[test]
    fn pipeline_is_bit_identical_to_sequential_replay() {
        // Every run recycles its warm states through one spare set, as a
        // server worker does across jobs: the states a run hands back are
        // overwritten by the next run's checkpoints, of whatever workload.
        let sim = sim();
        let spares = std::sync::Arc::new(smarts_core::WarmSpares::default());
        for name in ["branchy-1", "hashp-2"] {
            let bench = find(name).unwrap().scaled(0.05);
            let params = design(&bench, 8);
            let sequential = sequential_oracle(&sim, bench.load(), &params);
            let direct = sim.sample(&bench, &params).unwrap();
            assert_bit_identical(&direct, &sequential, &format!("{name} sim.sample"));
            for jobs in [1, 2, 8] {
                let executor = Executor::new(jobs)
                    .unwrap()
                    .with_spares(std::sync::Arc::clone(&spares));
                let outcome = systematic(&executor, name, 0.05, &params).unwrap();
                assert_bit_identical(&outcome.report, &sequential, &format!("{name} jobs={jobs}"));
                let kept = spares.len();
                assert!(
                    (1..=PIPELINE_DEPTH + jobs + 1).contains(&kept),
                    "{kept} kept"
                );
            }
        }
    }

    #[test]
    fn pipeline_residency_is_bounded_by_depth_plus_workers() {
        let sim = sim();
        let bench = find("hashp-2").unwrap().scaled(0.05);
        let params = design(&bench, 10);
        let (jobs, depth) = (2, PIPELINE_DEPTH);
        let outcome = systematic(&Executor::new(jobs).unwrap(), "hashp-2", 0.05, &params).unwrap();
        let stats = outcome.pipeline.expect("pipeline stats present");
        assert_eq!(stats.depth, depth);
        // Queued (≤ depth) + replaying (≤ jobs) + the one the producer
        // holds while offering it.
        assert!(stats.peak_resident_checkpoints <= depth + jobs + 1);
        assert!(stats.peak_resident_checkpoints >= 1);
        assert!(stats.peak_resident_bytes > 0);
        // And far below what keeping every unit's checkpoint would hold.
        let mut eager = 0u64;
        let summary = sim
            .stream_checkpoints(bench.load(), &params, |c| {
                eager += c.approx_resident_bytes();
                true
            })
            .unwrap();
        assert_eq!(stats.emitted, summary.emitted);
        assert!(stats.peak_resident_bytes < eager);
        assert!(stats.producer_wall > Duration::ZERO);
        assert_eq!(outcome.mode, ParallelMode::Pipeline);
        assert_eq!(outcome.workers.len(), jobs);
    }

    #[test]
    fn pre_cancelled_pipeline_reports_cancelled() {
        let bench = find("loopy-1").unwrap().scaled(0.02);
        let params = design(&bench, 8);
        let token = CancelToken::new();
        token.cancel();
        let executor = Executor::new(2).unwrap().with_cancel(token);
        let err = systematic(&executor, "loopy-1", 0.02, &params).unwrap_err();
        assert!(matches!(err, ExecError::Cancelled));
    }

    #[test]
    fn mid_run_cancellation_stops_at_a_unit_boundary() {
        let bench = find("loopy-1").unwrap().scaled(0.05);
        let params = design(&bench, 10);
        for jobs in [1, 2] {
            let token = CancelToken::new();
            let observer_token = token.clone();
            // Cancel from inside the progress observer after the first
            // emit — exactly how a server-side watcher would pull the plug.
            let executor = Executor::new(jobs)
                .unwrap()
                .with_cancel(token)
                .with_progress(std::sync::Arc::new(move |p: PipelineProgress| {
                    if p.emitted >= 1 {
                        observer_token.cancel();
                    }
                }));
            let err = systematic(&executor, "loopy-1", 0.05, &params).unwrap_err();
            assert!(matches!(err, ExecError::Cancelled), "jobs={jobs}: {err:?}");
        }
    }

    #[test]
    fn progress_observer_sees_every_emit_and_replay() {
        let bench = find("hashp-2").unwrap().scaled(0.05);
        let params = design(&bench, 10);
        for jobs in [1, 2] {
            let last = std::sync::Arc::new(Mutex::new(PipelineProgress::default()));
            let sink = last.clone();
            let executor = Executor::new(jobs)
                .unwrap()
                .with_progress(std::sync::Arc::new(move |p: PipelineProgress| {
                    let mut guard = sink.lock().unwrap();
                    guard.emitted = guard.emitted.max(p.emitted);
                    guard.replayed = guard.replayed.max(p.replayed);
                }));
            let outcome = systematic(&executor, "hashp-2", 0.05, &params).unwrap();
            let stats = outcome.pipeline.expect("pipeline stats present");
            let seen = *last.lock().unwrap();
            assert_eq!(seen.emitted, stats.emitted, "jobs={jobs}");
            assert_eq!(
                seen.replayed, stats.emitted,
                "jobs={jobs}: every unit replays"
            );
        }
    }

    #[test]
    fn pipeline_propagates_an_empty_stream() {
        let bench = find("loopy-1").unwrap().scaled(0.02);
        // A design for a stream 100× longer than the real one, phased so
        // the first unit boundary lies past the benchmark's halt.
        let params = SamplingParams::for_sample_size(
            bench.approx_len() * 100,
            1000,
            2000,
            Warming::Functional,
            10,
            0,
        )
        .unwrap();
        let params = params.with_offset(params.interval - 1).unwrap();
        let err = systematic(&Executor::new(2).unwrap(), "loopy-1", 0.02, &params).unwrap_err();
        assert!(matches!(err, ExecError::Smarts(SmartsError::EmptySample)));
    }
}
