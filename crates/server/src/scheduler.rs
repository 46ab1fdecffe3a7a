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
//! 3. **cold** — this job wins the warm ticket and runs the combined
//!    warm-and-save pipeline; concurrent jobs for the same store block
//!    on the ticket, so one warming pass serves all — then the ones
//!    that asked for the warmer's very line take it from the cache, and
//!    the rest replay.
//!
//! All three paths produce byte-identical canonical report lines for
//! the same (workload, design, machine, sampler): the store replay is
//! bit-identical to the live pipeline by `smarts-exec`'s merge
//! contract, a memoized unit is the outcome its simulation produced,
//! and the cache stores the exact serialized line.
//!
//! Non-systematic samplers (stratified, adaptive) share the same warmed
//! stores — unit selection happens at replay, so the store fingerprint
//! (and the warm pass) is independent of the sampler. Their cold path
//! runs a warm-only pass and then replays the sampler's selection from
//! the just-written store, which makes cold and store-hit lines equal
//! by construction.

use std::sync::Arc;

use smarts_ckpt::{IsaId, MappedStore, StoreMeta};
use smarts_core::{SamplingParams, SmartsSim, WarmSpares, Warming};
use smarts_exec::{
    replay_store_mapped, replay_store_sampled, sample, warm_store, CancelToken, ExecError,
    Executor, SampledReplay,
};
use smarts_isa::{BuiltinIsa, RiscIsa};
use smarts_uarch::MachineConfig;
use smarts_workloads::{find, Frontend};

use crate::jobs::{JobState, JobTable, ResultSource};
use crate::proto::JobSpec;
use crate::report::{canonical_report_line, sampled_report_line};
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

/// Resolves a spec to the machine configuration it names.
pub fn machine_for(spec: &JobSpec) -> MachineConfig {
    if spec.config == 16 {
        MachineConfig::sixteen_way()
    } else {
        MachineConfig::eight_way()
    }
}

/// Builds the sampling design a spec describes, mirroring the CLI's
/// parameter derivation so server results are comparable to one-shot
/// `smarts sample` runs. Fails for a workload the spec's frontend cannot
/// serve (unknown name, or a kernel outside the risc encoding).
pub fn params_for(spec: &JobSpec, cfg: &MachineConfig) -> Result<SamplingParams, String> {
    let approx_len = match spec.isa {
        // The builtin lookup keeps its pre-frontend error message.
        IsaId::Builtin => find(&spec.bench)
            .ok_or_else(|| format!("unknown benchmark `{}`", spec.bench))?
            .scaled(spec.scale)
            .approx_len(),
        IsaId::Risc => RiscIsa::approx_len(&spec.bench, spec.scale)?,
        // Unreachable through the wire protocol: submit refuses trace
        // specs before a job is created.
        IsaId::Trace => return Err("trace workloads are not servable".to_string()),
    };
    let warming = if spec.functional_warming {
        Warming::Functional
    } else {
        Warming::None
    };
    let w = spec
        .warming_len
        .unwrap_or_else(|| cfg.recommended_detailed_warming());
    SamplingParams::for_sample_size(approx_len, spec.unit, w, warming, spec.n, spec.offset)
        .map_err(|e| e.to_string())
}

/// Runs one claimed job; `spares` are the worker's warm states, recycled
/// from one job to the next.
fn run_job(
    shared: &Arc<Shared>,
    id: &str,
    spec: &JobSpec,
    cancel: &CancelToken,
    spares: &Arc<WarmSpares>,
) -> JobEnd {
    match spec.isa {
        IsaId::Builtin => run_job_with::<BuiltinIsa>(shared, id, spec, cancel, spares),
        IsaId::Risc => run_job_with::<RiscIsa>(shared, id, spec, cancel, spares),
        // Refused at submit; a job table can never hold a trace spec.
        IsaId::Trace => JobEnd::Failed("trace workloads are not servable".to_string()),
    }
}

/// Runs one claimed job under frontend `F`. Risc jobs resolve the same
/// benchmark names as builtin ones through the compact encoding, and
/// their stores carry the frontend in the header — and in the
/// fingerprint, so a risc job can never be answered from a builtin
/// store or cache line.
fn run_job_with<F: Frontend>(
    shared: &Arc<Shared>,
    id: &str,
    spec: &JobSpec,
    cancel: &CancelToken,
    spares: &Arc<WarmSpares>,
) -> JobEnd {
    let cfg = machine_for(spec);
    // An unservable workload fails here, before a store ticket is taken.
    let params = match params_for(spec, &cfg) {
        Ok(params) => params,
        Err(message) => return JobEnd::Failed(message),
    };
    let meta = StoreMeta {
        params,
        benchmark: spec.bench.clone(),
        scale: spec.scale,
        isa: F::ID,
    };
    let fingerprint = meta.fingerprint(&cfg);
    let sampler = spec.sampler_spec();
    if let Err(e) = sampler.validate() {
        return JobEnd::Failed(e.to_string());
    }
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
    let to_replaying = || {
        shared.jobs.update(id, |r| {
            if r.state == JobState::Warming {
                r.state = JobState::Replaying;
            }
        });
    };
    // Every simulating path adds its units to the served totals.
    let sampled_line = |sampled: SampledReplay| {
        shared.stores.count_units(&sampled.report);
        sampled_report_line(&sampled)
    };
    let (source, outcome) = match &ticket {
        StoreTicket::Warm { temp, .. } if !sampler.is_systematic() => {
            // Sampled cold path: warm-only store write, then replay the
            // sampler's selection from the just-written bytes. The store
            // is byte-identical to what the pipeline path saves (same
            // serial producer), so this line equals the store-hit line.
            let warmed = warm_store::<F>(&executor, &sim, &spec.bench, spec.scale, &params, temp);
            let outcome = warmed.and_then(|_| {
                to_replaying();
                let store = MappedStore::open(temp, &cfg)?;
                replay_store_sampled::<F>(&executor, &sim, &store, &sampler).map(sampled_line)
            });
            (ResultSource::Cold, outcome)
        }
        StoreTicket::Warm { temp, .. } => (
            ResultSource::Cold,
            sample::<F>(
                &executor,
                &sim,
                &spec.bench,
                spec.scale,
                &params,
                Some(temp),
            )
            .map(|(run, _)| {
                shared.stores.count_units(&run);
                canonical_report_line(&run.report)
            }),
        ),
        StoreTicket::Replay { path } => {
            // A job that waited here for a racing warmer of its own spec
            // finds the warmer's line cached: it was put before the
            // commit woke anyone.
            if let Some(line) = shared.cache.get(fingerprint, spec.config, sampler_key) {
                return JobEnd::Done(ResultSource::Cache, line);
            }
            to_replaying();
            // Pull the shared mapping from the LRU open-store cache so
            // back-to-back jobs on a hot store reuse one zero-copy map,
            // and its memo so they simulate no unit a second time.
            let open = match shared.stores.open_store(fingerprint, path, &sim) {
                Ok(open) => open,
                Err(message) => return JobEnd::Failed(message),
            };
            let (store, executor) = (open.store, executor.with_memo(open.memo));
            let outcome = if sampler.is_systematic() {
                replay_store_mapped::<F>(&executor, &sim, &store).and_then(|replayed| {
                    shared.stores.count_units(&replayed.report);
                    match replayed.damage {
                        // The server never serves a damaged store: the
                        // rename-on-success protocol makes this unreachable
                        // short of on-disk corruption after commit.
                        Some(damage) => Err(ExecError::Ckpt(damage)),
                        None => Ok(canonical_report_line(&replayed.report.report)),
                    }
                })
            } else {
                replay_store_sampled::<F>(&executor, &sim, &store, &sampler).map(sampled_line)
            };
            (ResultSource::Store, outcome)
        }
    };

    match outcome {
        Ok(line) => {
            // Cached before the commit wakes the racers, so one that
            // asked for this very line takes it instead of replaying. The
            // cache owns it from here on; the job record points at it.
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
