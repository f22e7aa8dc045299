//! Deterministic parallel execution for independent simulation jobs.
//!
//! Every figure, ablation, and resilience sweep in this workspace is a
//! batch of *isolated worlds*: each run is a pure function of its
//! `(seed, protocol, tweak)` triple and shares no state with any other
//! run. That makes fan-out trivially safe — the only thing parallelism
//! could perturb is the *order* in which results come back. This crate
//! removes that last degree of freedom: jobs execute on a hand-rolled
//! `std::thread` worker pool (the vendored-compat workspace has no
//! `rayon`) and results are collected in **canonical submission
//! order**, so a batch run with 8 workers is byte-identical to the same
//! batch run with 1.
//!
//! Two properties the experiment harness relies on:
//!
//! * **Order** — [`run_labeled`] returns `results[i]` for `jobs[i]`,
//!   whatever the interleaving of worker threads was. Workers claim
//!   jobs through an atomic cursor and write into their job's dedicated
//!   result slot; nothing about scheduling can leak into the output.
//! * **Containment** — a panicking job becomes a structured
//!   [`JobPanic`] carrying the job's label (the harness labels jobs
//!   with their protocol and seed) while every other job still runs to
//!   completion and returns its result intact.
//!
//! The sharded event core composes with this pool rather than
//! replacing it: `ert-network`'s per-shard sweep passes (`--shards S`)
//! fan shard-local maxima through [`map_ordered`] and reduce with a
//! fixed-order fold, so `--jobs` and `--shards` can vary independently
//! without perturbing a single output byte (see DESIGN.md "Sharded
//! Core"; `tests/shard_determinism.rs` pins the combination).
//!
//! The pool is scoped: worker threads borrow the job list and join
//! before [`run_labeled`] returns, so jobs may borrow from the caller's
//! stack and no thread outlives the batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "D10: ert-par is the sanctioned fan-out point; the per-slot Mutexes and the atomic cursor are the pool's claim/store handoff, held only around take/store and never across a job"
)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A job that panicked, rendered as a structured error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The label the job was submitted under (e.g. `"ERT/AF seed 3"`).
    pub label: String,
    /// The panic payload, when it was a string (the common case for
    /// `panic!`/`expect`); a placeholder otherwise.
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job `{}` panicked: {}", self.label, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// The default worker count: everything the hardware offers.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders a caught panic payload for [`JobPanic::message`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes `jobs` on up to `workers` threads and returns one result
/// per job **in submission order** — the output is byte-identical to
/// running the jobs sequentially, whatever the worker count.
///
/// A job that panics yields `Err(JobPanic)` in its slot, naming the
/// job's label; the remaining jobs are unaffected and drain cleanly
/// (the panic is caught on the worker, which then claims the next
/// job). With `workers <= 1` — or a batch of one — everything runs
/// inline on the calling thread and no threads are spawned.
pub fn run_labeled<T, F>(workers: usize, jobs: Vec<(String, F)>) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, total);

    // Each job sits in its own slot; workers claim indices through the
    // atomic cursor, take the job out, and write the outcome into the
    // result slot of the same index. Locks are held only around the
    // take/store, never while a job runs, so a caught panic can never
    // poison them.
    let tasks: Vec<Mutex<Option<(String, F)>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            break;
        }
        let (label, job) = tasks[i]
            .lock()
            .expect("task lock never poisoned: held only for take()")
            .take()
            .expect("each index is claimed exactly once");
        let outcome = catch_unwind(AssertUnwindSafe(job)).map_err(|payload| JobPanic {
            label,
            message: panic_message(payload.as_ref()),
        });
        *slots[i]
            .lock()
            .expect("slot lock never poisoned: held only for store") = Some(outcome);
    };

    if workers == 1 {
        work();
    } else {
        #[expect(
            clippy::disallowed_methods,
            reason = "D7: this is the pool every other fan-out must go through"
        )]
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock never poisoned")
                .expect("every index below total was claimed and filled")
        })
        .collect()
}

/// Order-preserving parallel map: applies `f` to every item on up to
/// `workers` threads and returns the outputs in item order.
///
/// # Panics
///
/// Propagates the first (in submission order) job panic as a panic
/// carrying the [`JobPanic`] rendering — use [`run_labeled`] directly
/// when panics must be contained instead.
pub fn map_ordered<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let f = &f;
    let jobs: Vec<(String, _)> = items
        .into_iter()
        .enumerate()
        .map(|(i, item)| (format!("item {i}"), move || f(item)))
        .collect();
    run_labeled(workers, jobs)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares_batch(count: usize) -> Vec<(String, impl FnOnce() -> usize + Send)> {
        (0..count)
            .map(|i| (format!("sq {i}"), move || i * i))
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 3, 8, 64] {
            let out = run_labeled(workers, squares_batch(37));
            let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let sequential: Vec<usize> = run_labeled(1, squares_batch(21))
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        for workers in 2..=8 {
            let parallel: Vec<usize> = run_labeled(workers, squares_batch(21))
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(parallel, sequential);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<Result<u32, JobPanic>> = run_labeled(4, Vec::<(String, fn() -> u32)>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn panicking_job_is_contained_and_labeled() {
        let jobs: Vec<(String, Box<dyn FnOnce() -> u64 + Send>)> = (0..6u64)
            .map(|i| {
                let job: Box<dyn FnOnce() -> u64 + Send> = if i == 3 {
                    Box::new(|| panic!("boom at three"))
                } else {
                    Box::new(move || i * 10)
                };
                (format!("job {i}"), job)
            })
            .collect();
        let out = run_labeled(4, jobs);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.label, "job 3");
                assert!(e.message.contains("boom at three"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 10, "job {i} intact");
            }
        }
    }

    #[test]
    #[expect(
        clippy::unnecessary_literal_unwrap,
        reason = "renders an `expect` panic, however the Result was built"
    )]
    fn expect_on_result_renders_its_message() {
        let jobs = vec![("doomed".to_string(), || -> u32 {
            let r: Result<u32, String> = Err("bad config".into());
            r.expect("valid scenario")
        })];
        let out = run_labeled(2, jobs);
        let e = out[0].as_ref().unwrap_err();
        assert!(
            e.message.contains("valid scenario") && e.message.contains("bad config"),
            "{e}"
        );
    }

    #[test]
    fn map_ordered_preserves_order_and_borrows() {
        let offset = 7u64;
        let out = map_ordered(3, (0..20u64).collect(), |i| i + offset);
        assert_eq!(out, (7..27u64).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let data: Vec<u64> = (0..50).collect();
        let slice = &data;
        let jobs: Vec<(String, _)> = (0..5usize)
            .map(|chunk| {
                (format!("chunk {chunk}"), move || {
                    slice[chunk * 10..(chunk + 1) * 10].iter().sum::<u64>()
                })
            })
            .collect();
        let sums: Vec<u64> = run_labeled(2, jobs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
