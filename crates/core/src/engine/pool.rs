//! The engine's segment pool: a thin, single-priority facade over the
//! reusable priority executor in [`exec`].
//!
//! The engine's unit of work is a *segment index*: all jobs are known up
//! front, none spawns new ones, and every job writes exactly one result
//! slot. Historically this module carried the whole work-stealing pool;
//! the scheduling core (per-worker deques seeded round-robin, LIFO owner
//! pops, FIFO steals, scoped threads, `catch_unwind` isolation, serial
//! in-caller fallback) now lives in [`exec`] so that
//! repair/salvage backfill — and, later, `ninec-serve` connections — can
//! share it with two-level job priorities. Everything here schedules at
//! [`Priority::High`].
//!
//! Determinism: results are keyed by job index and collected in index
//! order, so the output of [`map_indexed`] is independent of how the jobs
//! were interleaved across workers. `threads <= 1` (or a single job)
//! short-circuits to a serial in-caller loop — the engine's serial
//! fallback path.
//!
//! Panic isolation: every job runs under
//! [`std::panic::catch_unwind`], so a panicking closure poisons only its
//! own result slot — [`try_map_indexed`] returns it as a
//! [`JobPanic`] while every other job's result is delivered intact, and
//! the index-ordered merge can never deadlock on a missing slot. The
//! serial fallback catches panics the same way, so `threads = 1`
//! isolates identically to `threads = 8`. ([`map_indexed`] keeps the old
//! propagate-the-panic contract for callers that treat a panic as a bug.)

use super::cancel::CancelToken;
use super::exec::{self, Priority};

pub use super::exec::{JobOutcome, JobPanic, MAX_THREADS};

/// Runs `f(0..jobs)` across at most `threads` workers and returns the
/// results in job-index order.
///
/// Jobs are distributed round-robin across per-worker deques; an idle
/// worker steals from the front of a sibling's deque. The mapping of jobs
/// to workers affects only scheduling, never the returned vector: slot `i`
/// always holds `f(i)`.
///
/// With `threads <= 1` or fewer than two jobs the closure runs serially on
/// the calling thread (no pool, no atomics) — this is the engine's
/// `threads = 1` fallback and keeps single-threaded latency identical to a
/// plain loop.
///
/// # Panics
///
/// Propagates a panic from `f` (re-raised on the calling thread after
/// every worker has drained; no other job's result is lost first). Use
/// [`try_map_indexed`] to receive panics as values instead.
pub fn map_indexed<T, F>(threads: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(jobs);
    for (i, r) in try_map_indexed(threads, jobs, f).into_iter().enumerate() {
        match r {
            Ok(v) => out.push(v),
            Err(p) => panic!("pool job {i} panicked: {}", p.message),
        }
    }
    out
}

/// [`map_indexed`] with per-job panic isolation: slot `i` holds
/// `Ok(f(i))`, or `Err(JobPanic)` when `f(i)` panicked.
///
/// A panicking job never takes the pool down — its worker catches the
/// unwind, records the poisoned slot and moves on to the next job, so
/// every other index still completes and the result vector is always
/// fully populated in index order (no deadlock, no missing slots).
pub fn try_map_indexed<T, F>(threads: usize, jobs: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    exec::run_prioritized(threads, jobs, |_| Priority::High, f)
}

/// [`try_map_indexed`] with cooperative cancellation: when `cancel` is
/// given and trips, every job not yet started resolves to
/// [`JobOutcome::Cancelled`] without its closure running (jobs already
/// in flight finish normally). The vector is always fully populated in
/// index order — cancellation abandons work, never results.
pub fn cancellable_map_indexed<T, F>(
    threads: usize,
    jobs: usize,
    cancel: Option<&CancelToken>,
    f: F,
) -> Vec<JobOutcome<T>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    exec::run_cancellable(threads, jobs, |_| Priority::High, cancel, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_fallback_matches_parallel() {
        let serial = map_indexed(1, 17, |i| i * i);
        let parallel = map_indexed(4, 17, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let out = map_indexed(8, 64, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn results_stay_in_index_order_under_skewed_load() {
        // Make early jobs slow so late jobs finish first; order must hold.
        let out = map_indexed(4, 12, |i| {
            if i < 3 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        });
        assert_eq!(out, (0..12).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        assert_eq!(map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(map_indexed(32, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn one_panicking_job_poisons_only_its_slot() {
        for threads in [1, 2, 8] {
            let out = try_map_indexed(threads, 16, |i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i * 2
            });
            assert_eq!(out.len(), 16, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let p = r.as_ref().expect_err("job 5 panicked");
                    assert!(p.message.contains("boom at 5"), "{p:?}");
                } else {
                    assert_eq!(r.as_ref().ok(), Some(&(i * 2)), "threads={threads} job {i}");
                }
            }
        }
    }

    #[test]
    fn all_jobs_panicking_still_terminates() {
        let out = try_map_indexed::<usize, _>(4, 8, |i| panic!("all down {i}"));
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|r| r.is_err()));
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let out = try_map_indexed::<usize, _>(1, 1, |_| std::panic::panic_any(42usize));
        assert_eq!(
            out[0].as_ref().expect_err("panicked").message,
            "non-string panic payload"
        );
    }

    #[test]
    fn cancellable_facade_without_a_token_matches_map_indexed() {
        let out = cancellable_map_indexed(4, 9, None, |i| i + 1);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o, &JobOutcome::Done(i + 1));
        }
    }

    #[test]
    fn cancellable_facade_honors_a_tripped_token() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        let out = cancellable_map_indexed(4, 9, Some(&token), |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(out.iter().all(|o| matches!(o, JobOutcome::Cancelled)));
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn map_indexed_propagates_a_job_panic() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(2, 4, |i| {
                if i == 2 {
                    panic!("expected propagation");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}
