use std::error::Error;
use std::fmt;

use crate::MAX_JOBS;
use smarts_ckpt::CkptError;
use smarts_core::SmartsError;
use smarts_stats::StatsError;

/// Error type for parallel sampling execution.
///
/// Not `Clone`/`PartialEq`: the [`ExecError::Ckpt`] variant carries a
/// [`CkptError`], which may wrap an [`std::io::Error`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// An underlying sampling error (invalid parameters, empty sample,
    /// incompatible checkpoint geometry, ...).
    Smarts(SmartsError),
    /// A checkpoint-store error while saving or replaying persisted
    /// checkpoints (I/O, corruption, fingerprint mismatch, ...).
    Ckpt(CkptError),
    /// A frontend could not resolve its workload (an unknown benchmark,
    /// one outside the RISC encoding's reach, an unreadable trace file,
    /// ...); the message is the frontend's own.
    Frontend(String),
    /// A worker thread panicked; the panic payload is preserved so the
    /// failure is attributable instead of tearing down the process.
    WorkerPanic {
        /// Zero-based index of the worker that panicked.
        worker: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The executor was configured with a worker count outside
    /// `1..=`[`crate::MAX_JOBS`].
    Jobs(usize),
    /// The executor's [`crate::UnitMemo`] is another simulator's or store's.
    MemoMismatch,
    /// A run through checkpoints was asked for [`smarts_core::Warming::None`].
    /// Without functional warming a unit starts from the state the
    /// previous unit's detailed episode left, which no checkpoint holds,
    /// so that design replays its units in turn on the calling thread:
    /// only a one-worker systematic run that keeps no store measures it.
    /// Every other warming run pipelines its checkpoints, at any worker
    /// count.
    NoFunctionalWarming,
    /// The run was cancelled through its [`crate::CancelToken`] before
    /// completing; any partial results were discarded.
    Cancelled,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Smarts(e) => write!(f, "sampling error: {e}"),
            ExecError::Ckpt(e) => write!(f, "checkpoint store error: {e}"),
            ExecError::Frontend(message) => {
                write!(f, "frontend cannot resolve workload: {message}")
            }
            ExecError::WorkerPanic { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            ExecError::Jobs(jobs) => write!(f, "a worker count is 1..={MAX_JOBS}, not {jobs}"),
            ExecError::MemoMismatch => write!(f, "unit memo is for another simulator or store"),
            ExecError::NoFunctionalWarming => write!(
                f,
                "a run without functional warming cannot go through checkpoints: \
                 run it at one worker without a store"
            ),
            ExecError::Cancelled => write!(f, "run cancelled before completion"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Smarts(e) => Some(e),
            ExecError::Ckpt(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<SmartsError> for ExecError {
    fn from(e: SmartsError) -> Self {
        ExecError::Smarts(e)
    }
}

#[doc(hidden)]
impl From<StatsError> for ExecError {
    fn from(e: StatsError) -> Self {
        ExecError::Smarts(SmartsError::Stats(e))
    }
}

#[doc(hidden)]
impl From<CkptError> for ExecError {
    fn from(e: CkptError) -> Self {
        ExecError::Ckpt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ExecError::Smarts(SmartsError::EmptySample);
        assert!(e.to_string().contains("sampling error"));
        assert!(e.source().is_some());
        let p = ExecError::WorkerPanic {
            worker: 3,
            message: "boom".into(),
        };
        assert!(p.to_string().contains("worker 3"));
        assert!(p.to_string().contains("boom"));
        assert!(p.source().is_none());
        assert!(ExecError::Jobs(0).to_string().contains("1..=256"));
        assert!(ExecError::MemoMismatch.to_string().contains("unit memo"));
        assert!(ExecError::NoFunctionalWarming
            .to_string()
            .contains("functional warming"));
        assert!(ExecError::Cancelled.to_string().contains("cancelled"));
        assert!(ExecError::Cancelled.source().is_none());
        let u = ExecError::Frontend("unknown benchmark: ghost-9".into());
        assert!(u.to_string().contains("unknown benchmark: ghost-9"));
        assert!(u.source().is_none());
    }

    #[test]
    fn ckpt_errors_convert_and_chain() {
        let e = ExecError::from(CkptError::UnsupportedVersion(7));
        assert!(matches!(e, ExecError::Ckpt(_)));
        assert!(e.to_string().contains("checkpoint store"));
        assert!(e.source().is_some());
    }
}
