//! The job table: ids, states, progress, and the scheduler hand-off.
//!
//! One shared [`JobTable`] sits between connection handlers (which
//! submit, query, watch, and cancel) and scheduler workers (which claim
//! queued jobs and drive them to a terminal state). All coordination is
//! a single mutex plus one condvar; every mutation bumps a sequence
//! number so watchers can block for "anything changed since seq X"
//! without polling.
//!
//! The table holds O(1) per job and a bounded number of jobs: at most
//! [`MAX_QUEUED_JOBS`] wait in the queue (a submit past that is refused
//! as [`Refusal::Busy`]), and past [`MAX_FINISHED_JOBS`] finished records
//! the one that finished first is dropped. Ids are sequential, so an id
//! below the next one that has no record was evicted
//! ([`Refusal::Evicted`]); no tombstone is kept. A record points at its
//! report line without owning it — the results cache is the line's one
//! owner.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

use smarts_exec::CancelToken;

use crate::proto::JobSpec;

/// Finished (done, failed or cancelled) records kept for `status`,
/// `watch` and `result`; past this many, the first to finish is evicted.
pub const MAX_FINISHED_JOBS: usize = 4096;

/// Queued jobs past which `submit` is refused as [`Refusal::Busy`].
pub const MAX_QUEUED_JOBS: usize = 256;

/// Lifecycle of a job. Legal transitions:
/// `Queued → Warming → Replaying → Done`, with `Failed` reachable from
/// any live state and `Cancelled` from `Queued`/`Warming`/`Replaying`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is fast-forwarding/functionally warming (producing
    /// checkpoints, or waiting on another job's warming pass).
    Warming,
    /// Checkpoints exist; detailed replay is consuming them.
    Replaying,
    /// Finished; the result is available.
    Done,
    /// Terminated with an error (recorded in the job's `error`).
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Protocol name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Warming => "warming",
            JobState::Replaying => "replaying",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// Where a finished job's report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultSource {
    /// This job ran the warming pass itself.
    Cold,
    /// Replayed from a store another job (or prior run) warmed.
    Store,
    /// Served from the in-memory results cache without any simulation.
    Cache,
}

impl ResultSource {
    /// Protocol name of the source.
    pub fn name(self) -> &'static str {
        match self {
            ResultSource::Cold => "cold",
            ResultSource::Store => "store",
            ResultSource::Cache => "cache",
        }
    }
}

/// Why the table cannot answer for a job id, or take a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// No job was ever given this id.
    Unknown,
    /// The job existed, but its record — or, asked for its result, its
    /// report line — is no longer retained.
    Evicted,
    /// [`MAX_QUEUED_JOBS`] jobs are queued already.
    Busy,
    /// Shutdown has begun; no job is taken any more.
    ShuttingDown,
}

/// One job's full record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Server-assigned id (`j-1`, `j-2`, …).
    pub id: String,
    /// What was submitted.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Checkpoints emitted so far by this job's pipeline.
    pub emitted: u64,
    /// Units replayed so far by this job's pipeline.
    pub replayed: u64,
    /// Terminal error message, for `Failed`.
    pub error: Option<String>,
    /// Where the result came from, once `Done`.
    pub source: Option<ResultSource>,
    /// Canonical report line, once `Done`: the results cache's, which
    /// may since have evicted it — serving it to N watchers is N
    /// upgrades, never a copy.
    pub result: Option<Weak<String>>,
    /// Cancellation flag shared with the running pipeline.
    pub cancel: CancelToken,
}

struct TableInner {
    /// Retained records by job number. A B-tree, not a hash table: ids
    /// are inserted at one end and evicted near the other, and a table
    /// under that churn would now and then rehash into twice its size.
    jobs: BTreeMap<u64, JobRecord>,
    /// Submission order of still-queued job numbers (FIFO claim order).
    queue: VecDeque<u64>,
    /// Finished job numbers in the order they finished: eviction order.
    finished: VecDeque<u64>,
    next_id: u64,
    /// Jobs that reached `Done`, evicted ones included.
    done: u64,
    /// Bumped on every mutation; watchers block on it.
    seq: u64,
    /// Set once shutdown begins: submissions are refused and
    /// `claim_next` returns `None` immediately so workers exit.
    closed: bool,
}

impl TableInner {
    /// The number inside a well-formed id (`j-` and a decimal without a
    /// leading zero) that was handed out; [`Refusal::Unknown`] otherwise.
    fn number(&self, id: &str) -> Result<u64, Refusal> {
        let digits = id.strip_prefix("j-").ok_or(Refusal::Unknown)?;
        let canonical = !digits.starts_with('0') && digits.bytes().all(|b| b.is_ascii_digit());
        let n = digits.parse::<u64>().ok().filter(|_| canonical);
        n.filter(|&n| n < self.next_id).ok_or(Refusal::Unknown)
    }

    /// Job `id`'s number and record.
    fn record_mut(&mut self, id: &str) -> Result<(u64, &mut JobRecord), Refusal> {
        let n = self.number(id)?;
        self.jobs
            .get_mut(&n)
            .map(|r| (n, r))
            .ok_or(Refusal::Evicted)
    }

    /// Books job `n`'s move from a live to a terminal `state`, evicting
    /// the earliest-finished record past [`MAX_FINISHED_JOBS`].
    fn finish(&mut self, n: u64, state: JobState) {
        self.done += u64::from(state == JobState::Done);
        self.finished.push_back(n);
        while self.finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

/// Shared, thread-safe job registry.
pub struct JobTable {
    inner: Mutex<TableInner>,
    changed: Condvar,
}

impl Default for JobTable {
    fn default() -> Self {
        Self::new()
    }
}

impl JobTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        JobTable {
            inner: Mutex::new(TableInner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                finished: VecDeque::new(),
                next_id: 1,
                done: 0,
                seq: 0,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// The table, locked. Poisoning is ignored because no holder can
    /// leave the table half-changed: the table's own critical sections
    /// are single field writes and collection inserts/removes, and the
    /// one foreign code run under the lock — an [`JobTable::update`]
    /// closure — only assigns record fields. A panic under the lock
    /// therefore leaves a table every other holder can keep serving.
    fn lock(&self) -> MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn bump(&self, inner: &mut TableInner) {
        inner.seq += 1;
        self.changed.notify_all();
    }

    /// Accepts a job, returning its id; refuses it as
    /// [`Refusal::ShuttingDown`] or [`Refusal::Busy`].
    pub fn submit(&self, spec: JobSpec) -> Result<String, Refusal> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(Refusal::ShuttingDown);
        }
        if inner.queue.len() >= MAX_QUEUED_JOBS {
            return Err(Refusal::Busy);
        }
        let n = inner.next_id;
        inner.next_id += 1;
        let id = format!("j-{n}");
        let record = JobRecord {
            id: id.clone(),
            spec,
            state: JobState::Queued,
            emitted: 0,
            replayed: 0,
            error: None,
            source: None,
            result: None,
            cancel: CancelToken::new(),
        };
        inner.jobs.insert(n, record);
        inner.queue.push_back(n);
        self.bump(&mut inner);
        Ok(id)
    }

    /// Blocks until a queued job is available (returning a claim) or the
    /// table closes (returning `None`).
    pub fn claim_next(&self) -> Option<(String, JobSpec, CancelToken)> {
        let mut inner = self.lock();
        loop {
            // Queued jobs are live, hence retained; a cancelled one has
            // left the queue.
            while let Some(n) = inner.queue.pop_front() {
                let Some(record) = inner.jobs.get_mut(&n) else {
                    continue;
                };
                record.state = JobState::Warming;
                let claim = (
                    record.id.clone(),
                    record.spec.clone(),
                    record.cancel.clone(),
                );
                self.bump(&mut inner);
                return Some(claim);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .changed
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Applies a mutation to one job and wakes watchers; a mutation that
    /// makes the job terminal finishes it. Returns `false` for an id
    /// without a record.
    pub fn update<F: FnOnce(&mut JobRecord)>(&self, id: &str, mutate: F) -> bool {
        let mut inner = self.lock();
        let Ok((n, record)) = inner.record_mut(id) else {
            return false;
        };
        let was_terminal = record.state.is_terminal();
        mutate(record);
        let state = record.state;
        if state.is_terminal() && !was_terminal {
            inner.finish(n, state);
        }
        self.bump(&mut inner);
        true
    }

    /// Requests cancellation. Idempotent: cancelling a terminal or
    /// already-cancelled job succeeds without effect. Returns the state
    /// observed at the time of the request.
    pub fn cancel(&self, id: &str) -> Result<JobState, Refusal> {
        let mut inner = self.lock();
        let (n, record) = inner.record_mut(id)?;
        let observed = record.state;
        if !observed.is_terminal() {
            record.cancel.cancel();
            if observed == JobState::Queued {
                // Finalize immediately: out of the queue, never claimed.
                record.state = JobState::Cancelled;
                inner.queue.retain(|&queued| queued != n);
                inner.finish(n, JobState::Cancelled);
            }
            self.bump(&mut inner);
        }
        Ok(observed)
    }

    /// A snapshot of one job.
    pub fn get(&self, id: &str) -> Result<JobRecord, Refusal> {
        self.lock().record_mut(id).map(|(_, record)| record.clone())
    }

    /// Snapshots of every retained job, in id order.
    pub fn list(&self) -> Vec<JobRecord> {
        self.lock().jobs.values().cloned().collect()
    }

    /// Jobs ever accepted, and how many of them reached `Done` —
    /// cumulative, evicted records included.
    pub fn counts(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.next_id - 1, inner.done)
    }

    /// The current change sequence number.
    pub fn seq(&self) -> u64 {
        self.lock().seq
    }

    /// Blocks until the sequence number advances past `seen` or the
    /// timeout lapses; returns the latest sequence number.
    pub fn wait_change(&self, seen: u64, timeout: Duration) -> u64 {
        let mut inner = self.lock();
        while inner.seq <= seen {
            let (guard, result) = self
                .changed
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if result.timed_out() {
                break;
            }
        }
        inner.seq
    }

    /// Begins shutdown: refuses new submissions, wakes idle workers, and
    /// cancels+finalizes still-queued jobs. Returns the ids of the jobs
    /// abandoned in the queue.
    pub fn close(&self) -> Vec<String> {
        let mut inner = self.lock();
        inner.closed = true;
        let queued: Vec<u64> = inner.queue.drain(..).collect();
        let mut abandoned = Vec::new();
        for n in queued {
            let Some(record) = inner.jobs.get_mut(&n) else {
                continue;
            };
            record.cancel.cancel();
            record.state = JobState::Cancelled;
            abandoned.push(record.id.clone());
            inner.finish(n, JobState::Cancelled);
        }
        self.bump(&mut inner);
        abandoned
    }

    /// Whether `close` has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

impl std::fmt::Debug for JobTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("JobTable")
            .field("jobs", &inner.jobs.len())
            .field("queued", &inner.queue.len())
            .field("seq", &inner.seq)
            .field("closed", &inner.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spec(bench: &str) -> JobSpec {
        JobSpec {
            bench: bench.to_string(),
            ..JobSpec::default()
        }
    }

    #[test]
    fn submit_claim_and_finish_walk_the_state_machine() {
        let table = JobTable::new();
        let id = table.submit(spec("loopy-1")).unwrap();
        assert_eq!(table.get(&id).unwrap().state, JobState::Queued);

        let (claimed, claimed_spec, _token) = table.claim_next().unwrap();
        assert_eq!(claimed, id);
        assert_eq!(claimed_spec.bench, "loopy-1");
        assert_eq!(table.get(&id).unwrap().state, JobState::Warming);

        let line = Arc::new("{}".to_string());
        table.update(&id, |r| {
            r.state = JobState::Done;
            r.source = Some(ResultSource::Cold);
            r.result = Some(Arc::downgrade(&line));
        });
        let record = table.get(&id).unwrap();
        assert!(record.state.is_terminal());
        assert_eq!(record.source, Some(ResultSource::Cold));
        assert_eq!(table.counts(), (1, 1));
    }

    #[test]
    fn cancel_is_idempotent_and_finalizes_queued_jobs() {
        let table = JobTable::new();
        let id = table.submit(spec("hashp-2")).unwrap();
        assert_eq!(table.cancel(&id), Ok(JobState::Queued));
        assert_eq!(table.get(&id).unwrap().state, JobState::Cancelled);
        // Double-cancel: still answered, no state change.
        assert_eq!(table.cancel(&id), Ok(JobState::Cancelled));
        assert_eq!(table.cancel("j-404"), Err(Refusal::Unknown));
    }

    #[test]
    fn cancelled_queued_jobs_are_not_handed_to_workers() {
        let table = JobTable::new();
        let doomed = table.submit(spec("a")).unwrap();
        let live = table.submit(spec("b")).unwrap();
        table.cancel(&doomed).unwrap();
        let (claimed, _, _) = table.claim_next().unwrap();
        assert_eq!(claimed, live);
    }

    #[test]
    fn close_abandons_the_queue_and_unblocks_claimers() {
        let table = Arc::new(JobTable::new());
        let id = table.submit(spec("a")).unwrap();
        let abandoned = table.close();
        assert_eq!(abandoned, vec![id.clone()]);
        assert_eq!(table.get(&id).unwrap().state, JobState::Cancelled);
        assert_eq!(table.submit(spec("b")), Err(Refusal::ShuttingDown));
        assert!(table.claim_next().is_none());
    }

    #[test]
    fn wait_change_sees_mutations_and_times_out_quietly() {
        let table = Arc::new(JobTable::new());
        let seen = table.seq();
        // No mutation: times out at the same sequence number.
        assert_eq!(table.wait_change(seen, Duration::from_millis(10)), seen);

        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.wait_change(seen, Duration::from_secs(5)))
        };
        table.submit(spec("a")).unwrap();
        assert!(waiter.join().unwrap() > seen);
    }

    #[test]
    fn a_full_queue_answers_busy_until_a_job_is_claimed() {
        let table = JobTable::new();
        for _ in 0..MAX_QUEUED_JOBS {
            table.submit(spec("a")).unwrap();
        }
        assert_eq!(table.submit(spec("a")), Err(Refusal::Busy));
        assert_eq!(table.counts(), (MAX_QUEUED_JOBS as u64, 0));
        table.claim_next().unwrap();
        assert!(table.submit(spec("a")).is_ok());
    }

    #[test]
    fn finished_records_are_capped_and_evicted_ids_are_typed() {
        let table = JobTable::new();
        let total = 100_000u64;
        let mut first = None;
        for k in 0..total {
            let id = table.submit(spec("a")).unwrap();
            first.get_or_insert(id);
            let (claimed, _, _) = table.claim_next().unwrap();
            let state = match k % 3 {
                0 => JobState::Done,
                1 => JobState::Failed,
                _ => JobState::Cancelled,
            };
            table.update(&claimed, |r| r.state = state);
        }
        assert_eq!(table.list().len(), MAX_FINISHED_JOBS);
        assert_eq!(table.counts(), (total, total.div_ceil(3)));
        // The newest finished records are the ones kept.
        let newest = format!("j-{total}");
        assert_eq!(table.get(&newest).unwrap().id, newest);
        let oldest_kept = format!("j-{}", total - MAX_FINISHED_JOBS as u64 + 1);
        assert!(table.get(&oldest_kept).is_ok());
        let evicted = format!("j-{}", total - MAX_FINISHED_JOBS as u64);
        for id in [first.unwrap(), evicted] {
            assert_eq!(table.get(&id).unwrap_err(), Refusal::Evicted, "{id}");
            assert_eq!(table.cancel(&id), Err(Refusal::Evicted));
            assert!(!table.update(&id, |_| {}));
        }
        // Never handed out, or not an id at all: unknown, not evicted.
        for id in [
            format!("j-{}", total + 1),
            "j-0".into(),
            "j-007".into(),
            "x".into(),
        ] {
            assert_eq!(table.get(&id).unwrap_err(), Refusal::Unknown, "{id}");
        }
    }

    #[test]
    fn live_jobs_are_never_evicted() {
        let table = JobTable::new();
        let running = table.submit(spec("long")).unwrap();
        table.claim_next().unwrap();
        for _ in 0..MAX_FINISHED_JOBS + 10 {
            let id = table.submit(spec("a")).unwrap();
            table.cancel(&id).unwrap();
        }
        assert_eq!(table.get(&running).unwrap().state, JobState::Warming);
        assert_eq!(table.list().len(), MAX_FINISHED_JOBS + 1);
    }
}
