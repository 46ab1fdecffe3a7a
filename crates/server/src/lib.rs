//! Sampling-as-a-service: a job server over the shared checkpoint
//! store.
//!
//! The SMARTS cost model makes functional warming (`S_FW`) the dominant
//! wall-clock term, and PR 5's persistent checkpoint store already lets
//! one warming pass serve many detailed replays. This crate turns that
//! amortisation into a *service*: a long-lived `smarts-server` process
//! owns a store directory, accepts sampling jobs over a tiny
//! newline-delimited JSON TCP protocol, and guarantees that concurrent
//! jobs against the same (workload, warm geometry, sampling design)
//! trigger **exactly one** warming pass — everyone else replays, and
//! repeat submissions of the *same full configuration* are answered
//! from a results cache in O(lookup) with byte-identical bytes.
//!
//! The layering, bottom up:
//!
//! * [`json`] — a dependency-free JSON value with deterministic
//!   (insertion-ordered) serialization and exact `u64` round-trips;
//! * [`proto`] — the line protocol: [`proto::Request`] /
//!   [`proto::JobSpec`] parsing and response builders, lines bounded by
//!   [`proto::MAX_LINE`]; [`proto::JobSpec::validate`] is every job
//!   rule, for the wire and the `smarts` CLI alike;
//! * [`report`] — the canonical bit-exact [`smarts_core::SampleReport`]
//!   form (`f64`s as IEEE-754 hex bit strings, wall times excluded)
//!   that makes "bit-identical" a plain string comparison;
//! * [`jobs`] — the job table: ids, the
//!   queued → warming → replaying → done/failed/cancelled state
//!   machine, progress counters, change notification for watchers, an
//!   admission cap (`busy`) and first-finished-first-out eviction of
//!   finished records (`evicted`);
//! * [`store_mgr`] — the store manager: fingerprint → path mapping,
//!   single-warmer coordination with rename-on-success publication
//!   (the final path is the one record of a complete store), one
//!   bounded table of the stores being warmed or held open (each open
//!   one with the memo of its units already replayed), plus the results cache, the one owner of every report
//!   line, bounded by the lines' bytes;
//! * [`scheduler`] — workers that drive each claimed job down the
//!   cheapest path: cache hit → store replay → cold warm-and-save;
//! * [`server`] / [`client`] — the TCP accept loop with graceful
//!   drain and a cap on open connections (`busy` past it), and a thin
//!   blocking client used by the CLI and tests.
//!
//! Everything is `std`-only, in keeping with the workspace's
//! no-external-dependencies rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod jobs;
pub mod json;
pub mod proto;
pub mod report;
pub mod scheduler;
pub mod server;
pub mod store_mgr;

pub use client::Client;
pub use jobs::{
    JobRecord, JobState, JobTable, Refusal, ResultSource, MAX_FINISHED_JOBS, MAX_QUEUED_JOBS,
};
pub use proto::{JobSpec, Request, MAX_LINE};
pub use report::{
    canonical_report_line, estimate_line, report_from_json, report_to_json, sampled_report_line,
    sampler_from_json,
};
pub use scheduler::{machine_for, Shared};
pub use server::{Server, ServerConfig, ShutdownSummary, MAX_CONNECTIONS};
pub use store_mgr::{
    OpenStore, ResultsCache, StoreManager, StoreTicket, MAX_CACHED_LINE_BYTES, MAX_OPEN_STORES,
};
