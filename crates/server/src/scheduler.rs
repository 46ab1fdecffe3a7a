//! Scheduler workers: claim jobs from the [`JobTable`] and drive each
//! through cache → store → warming, cheapest path first.
//!
//! A claimed job resolves in one of three ways, recorded as its
//! [`ResultSource`]:
//!
//! 1. **cache** — the results cache already holds a canonical report for
//!    (store fingerprint, machine config, sampler key); answered in
//!    O(lookup) with zero simulation.
//! 2. **store** — a complete checkpoint store exists (this run or a
//!    previous one); detailed replay only, no functional warming — and
//!    only of the units no earlier job on the open store replayed: the
//!    rest come out of the store's [`smarts_exec::UnitMemo`].
//! 3. **cold** — this job wins the warm ticket and warms the store;
//!    concurrent jobs for the same store block on the ticket, so one
//!    warming pass serves all — then the ones that asked for the
//!    warmer's very line take it from the cache, and the rest replay.
//!
//! Both simulating paths are `smarts-exec`'s two entry points, the same
//! two `smarts sample` calls, under the job's [`SamplerSpec`]: the store
//! path is [`smarts_exec::replay`] and the cold path
//! [`smarts_exec::sample`], which saves the store the ticket names. Which
//! estimator a spec runs — every unit, or a sampler's selection from the
//! store — is decided there, so all three paths produce byte-identical
//! canonical report lines for the same (workload, design, machine,
//! sampler): a replay is bit-identical to the live pipeline by
//! `smarts-exec`'s merge contract, a memoized unit is the outcome its
//! simulation produced, and the cache stores the exact serialized line.
//! Unit selection happens at replay, so the store fingerprint (and the
//! warming pass) is independent of the sampler.
//!
//! [`SamplerSpec`]: smarts_core::SamplerSpec

use std::sync::Arc;

use smarts_ckpt::IsaId;
use smarts_core::{SmartsSim, WarmSpares};
use smarts_exec::{replay, sample, CancelToken, ExecError, Executor};
use smarts_uarch::MachineConfig;

use crate::jobs::{JobState, JobTable, ResultSource};
use crate::proto::JobSpec;
use crate::report::estimate_line;
use crate::store_mgr::{ResultsCache, StoreManager, StoreTicket};

/// State shared by every scheduler worker and the connection handlers.
#[derive(Debug)]
pub struct Shared {
    /// The job registry.
    pub jobs: JobTable,
    /// The checkpoint-store manager.
    pub stores: StoreManager,
    /// The results cache.
    pub cache: ResultsCache,
}

/// How a job ended, before the table is updated.
enum JobEnd {
    Done(ResultSource, Arc<String>),
    Cancelled,
    Failed(String),
}

/// The machine configuration `config` names: 16 for the 16-way machine,
/// anything else the 8-way one.
pub fn machine_for(config: u32) -> MachineConfig {
    if config == 16 {
        MachineConfig::sixteen_way()
    } else {
        MachineConfig::eight_way()
    }
}

/// Runs one claimed job; `spares` are the worker's warm states, recycled
/// from one job to the next. The fingerprint folds in the frontend, so a
/// risc job is never answered from a builtin store or cache line, and a
/// ready store's header (which [`replay`] takes the frontend from)
/// re-fingerprints to the spec's: by construction on commit, by
/// [`StoreManager::acquire`]'s check for a store found on disk.
fn run_job(
    shared: &Arc<Shared>,
    id: &str,
    spec: &JobSpec,
    cancel: &CancelToken,
    spares: &Arc<WarmSpares>,
) -> JobEnd {
    // Refused at submit too; a library caller of `JobTable::submit` must
    // still never make the server read a local trace file.
    if spec.isa == IsaId::Trace {
        return JobEnd::Failed("trace workloads are not servable".to_string());
    }
    let cfg = machine_for(spec.config);
    // An unservable workload fails here, before a store ticket is taken.
    let meta = match spec.meta() {
        Ok(meta) => meta,
        Err(message) => return JobEnd::Failed(message),
    };
    let fingerprint = meta.fingerprint(&cfg);
    // Validated at submit, like every other field of the spec.
    let sampler = spec.sampler_spec();
    let sampler_key = sampler.cache_key();

    if let Some(line) = shared.cache.get(fingerprint, spec.config, sampler_key) {
        return JobEnd::Done(ResultSource::Cache, line);
    }

    let ticket = match shared.stores.acquire(&meta, &cfg, cancel) {
        Ok(t) => t,
        Err(_) if cancel.is_cancelled() => return JobEnd::Cancelled,
        Err(message) => return JobEnd::Failed(message),
    };

    let executor = match Executor::new(spec.jobs) {
        Ok(e) => e
            .with_cancel(cancel.clone())
            .with_spares(Arc::clone(spares)),
        Err(e) => {
            shared.stores.abort(&ticket);
            return JobEnd::Failed(e.to_string());
        }
    };
    // Progress observer: mirror pipeline counters into the job record,
    // flipping Warming → Replaying at the first replayed unit.
    let executor = {
        let observer_shared = Arc::clone(shared);
        let observer_id = id.to_string();
        executor.with_progress(Arc::new(move |p: smarts_exec::PipelineProgress| {
            observer_shared.jobs.update(&observer_id, |r| {
                r.emitted = p.emitted;
                r.replayed = p.replayed;
                if p.replayed > 0 && r.state == JobState::Warming {
                    r.state = JobState::Replaying;
                }
            });
        }))
    };

    let sim = SmartsSim::new(cfg.clone());
    let (source, outcome) = match &ticket {
        StoreTicket::Warm { temp, .. } => {
            let run = sample(&executor, &sim, &meta, &sampler, Some(temp));
            (ResultSource::Cold, run)
        }
        StoreTicket::Replay { path } => {
            // A job that waited here for a racing warmer of its own spec
            // finds the warmer's line cached: it was put before the
            // commit woke anyone.
            if let Some(line) = shared.cache.get(fingerprint, spec.config, sampler_key) {
                return JobEnd::Done(ResultSource::Cache, line);
            }
            shared.jobs.update(id, |r| {
                if r.state == JobState::Warming {
                    r.state = JobState::Replaying;
                }
            });
            // Pull the shared mapping from the LRU open-store cache so
            // back-to-back jobs on a hot store reuse one zero-copy map,
            // and its memo so they simulate no unit a second time.
            let open = match shared.stores.open_store(fingerprint, path, &sim) {
                Ok(open) => open,
                Err(message) => return JobEnd::Failed(message),
            };
            let executor = executor.with_memo(open.memo);
            let run = replay(&executor, &sim, &open.store, &sampler).and_then(|run| {
                match run.damage {
                    // The server never serves a damaged store: the
                    // rename-on-success protocol makes this unreachable
                    // short of on-disk corruption after commit.
                    Some((_, damage)) => Err(ExecError::Ckpt(damage)),
                    None => Ok(run),
                }
            });
            (ResultSource::Store, run)
        }
    };

    match outcome {
        Ok(run) => {
            // Every simulating path adds its units to the served totals.
            shared.stores.count_units(run.estimate.report());
            // Cached before the commit wakes the racers, so one that
            // asked for this very line takes it instead of replaying. The
            // cache owns it from here on; the job record points at it.
            let line = estimate_line(&run.estimate);
            let line = shared
                .cache
                .put(fingerprint, spec.config, sampler_key, line);
            if let Err(message) = shared.stores.commit(&ticket) {
                return JobEnd::Failed(message);
            }
            JobEnd::Done(source, line)
        }
        Err(ExecError::Cancelled) => {
            shared.stores.abort(&ticket);
            JobEnd::Cancelled
        }
        Err(e) => {
            shared.stores.abort(&ticket);
            JobEnd::Failed(e.to_string())
        }
    }
}

/// One scheduler worker: claims jobs until the table closes, recycling
/// one bounded set of warm states across all of them.
pub fn worker_loop(shared: Arc<Shared>) {
    let spares = Arc::new(WarmSpares::default());
    while let Some((id, spec, cancel)) = shared.jobs.claim_next() {
        let end = run_job(&shared, &id, &spec, &cancel, &spares);
        shared.jobs.update(&id, |r| match &end {
            JobEnd::Done(source, line) => {
                r.state = JobState::Done;
                r.source = Some(*source);
                r.result = Some(Arc::downgrade(line));
            }
            JobEnd::Cancelled => r.state = JobState::Cancelled,
            JobEnd::Failed(message) => {
                r.state = JobState::Failed;
                r.error = Some(message.clone());
            }
        });
    }
}
