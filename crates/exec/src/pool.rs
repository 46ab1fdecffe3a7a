//! The worker pool: scoped threads with structured panic propagation.

use std::any::Any;
use std::thread;

use crate::error::ExecError;

/// Renders a panic payload (the `Box<dyn Any>` from `JoinHandle::join`)
/// as a readable message.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work(worker_id)` on `jobs` scoped threads and collects every
/// worker's return value in worker order.
///
/// A panicking worker does not abort the others (their results are still
/// joined), but the call then fails with [`ExecError::WorkerPanic`]
/// naming the first worker that died and carrying its panic payload.
pub(crate) fn run_workers<R, F>(jobs: usize, work: F) -> Result<Vec<R>, ExecError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if jobs == 0 {
        return Err(ExecError::Jobs(0));
    }
    if jobs == 1 {
        // Single-worker runs stay on the calling thread: no spawn cost,
        // and a panic surfaces with the caller's own backtrace — but is
        // still reported structurally for uniformity.
        return match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(0))) {
            Ok(r) => Ok(vec![r]),
            Err(payload) => Err(ExecError::WorkerPanic {
                worker: 0,
                message: panic_message(payload),
            }),
        };
    }
    thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let work = &work;
                scope.spawn(move || work(worker))
            })
            .collect();
        let mut results = Vec::with_capacity(jobs);
        let mut failure = None;
        for (worker, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(payload) => {
                    failure.get_or_insert(ExecError::WorkerPanic {
                        worker,
                        message: panic_message(payload),
                    });
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(results),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn collects_results_in_worker_order() {
        let results = run_workers(4, |w| w * 10).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn zero_jobs_is_an_error() {
        assert!(matches!(run_workers(0, |w| w), Err(ExecError::Jobs(0))));
    }

    #[test]
    fn single_worker_runs_inline() {
        let results = run_workers(1, |w| w + 7).unwrap();
        assert_eq!(results, vec![7]);
    }

    #[test]
    fn panic_is_reported_with_worker_and_message() {
        let err = run_workers(3, |w| {
            if w == 1 {
                panic!("unit 17 exploded");
            }
            w
        })
        .unwrap_err();
        match err {
            ExecError::WorkerPanic { worker, message } => {
                assert_eq!(worker, 1);
                assert!(message.contains("unit 17 exploded"));
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn single_worker_panic_is_caught() {
        let err = run_workers(1, |_| -> usize { panic!("inline boom") }).unwrap_err();
        assert!(matches!(err, ExecError::WorkerPanic { worker: 0, .. }));
    }

    #[test]
    fn surviving_workers_complete_despite_a_panic() {
        let completed = AtomicUsize::new(0);
        let _ = run_workers(4, |w| {
            if w == 0 {
                panic!("down");
            }
            completed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(completed.load(Ordering::Relaxed), 3);
    }
}
