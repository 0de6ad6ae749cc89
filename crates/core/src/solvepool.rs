//! A scoped, cancellation-aware work queue for batched allocation
//! solves.
//!
//! The segmentation DP ([`crate::segment::segment`]) spends almost all
//! of its time in per-window allocation solves that are independent of
//! each other *within one DP step*: the set of windows to solve is
//! decided sequentially (so pruning decisions never depend on thread
//! timing), the solves are pure functions of the window signature (see
//! [`crate::allocation`]), and only then does the sequential recurrence
//! consume the results. That makes a batch fan-out safe: plans are
//! bit-identical at every worker count.
//!
//! [`with_pool`] spawns `workers - 1` scoped threads that park between
//! batches; [`SolvePool::run_batch`] publishes a batch of jobs, lets the
//! calling thread drain the queue alongside the workers, and returns the
//! results in job order. Workers poll the [`CancelToken`] before every
//! job, so a fired deadline aborts mid-batch with
//! [`CompileError::Cancelled`] instead of finishing the fan-out. With
//! `workers <= 1` no thread is spawned and a batch is a plain loop over
//! its jobs on the calling thread — the token polled before each job, no
//! lock taken and no result slot allocated — the exact sequential path.
//!
//! The pool lives strictly inside one [`with_pool`] call (scoped
//! threads), so no state outlives a compilation: a cancelled batch
//! cannot poison a later compile on the same session.

use std::sync::{Condvar, Mutex, MutexGuard};

use crate::session::CancelToken;
use crate::CompileError;

/// Handle to the pool inside a [`with_pool`] body: submit batches with
/// [`SolvePool::run_batch`].
pub struct SolvePool<'pool, 'env, J, O, F> {
    shared: &'pool Shared<'env, J, O, F>,
    /// No worker threads: [`SolvePool::run_batch`] runs its jobs in a
    /// plain loop on the calling thread, with no lock and no result
    /// slots.
    inline: bool,
}

struct Shared<'env, J, O, F> {
    work: F,
    cancel: &'env CancelToken,
    state: Mutex<State<J, O>>,
    /// Signals workers: a new batch was published or shutdown was set.
    work_cv: Condvar,
    /// Signals the batch submitter: the batch completed or aborted.
    done_cv: Condvar,
}

struct State<J, O> {
    jobs: Vec<J>,
    /// Next unclaimed job index.
    next: usize,
    results: Vec<Option<O>>,
    /// Completed jobs in the current batch.
    done: usize,
    /// Sticky: set when the cancel token fired mid-batch.
    aborted: bool,
    /// Set once the [`with_pool`] body returned; workers exit.
    shutdown: bool,
}

impl<J, O> State<J, O> {
    fn new() -> Self {
        State {
            jobs: Vec::new(),
            next: 0,
            results: Vec::new(),
            done: 0,
            aborted: false,
            shutdown: false,
        }
    }
}

/// Runs `body` with a solve pool of `workers` threads (the calling
/// thread counts as one: `workers - 1` are spawned, parked between
/// batches). `work` executes one job; it must be a pure function of the
/// job for results to be schedule-independent. The pool and its threads
/// are torn down before `with_pool` returns.
pub fn with_pool<J, O, F, G, R>(workers: usize, cancel: &CancelToken, work: F, body: G) -> R
where
    J: Clone + Send,
    O: Send,
    F: Fn(&J) -> O + Sync,
    G: FnOnce(&SolvePool<'_, '_, J, O, F>) -> R,
{
    let shared = Shared {
        work,
        cancel,
        state: Mutex::new(State::new()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    };
    if workers <= 1 {
        return body(&SolvePool {
            shared: &shared,
            inline: true,
        });
    }
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| shared.worker_loop());
        }
        let result = body(&SolvePool {
            shared: &shared,
            inline: false,
        });
        {
            let mut st = shared.lock();
            st.shutdown = true;
        }
        shared.work_cv.notify_all();
        result
    })
}

impl<J, O, F> SolvePool<'_, '_, J, O, F>
where
    J: Clone + Send,
    O: Send,
    F: Fn(&J) -> O + Sync,
{
    /// Executes `jobs` across the pool (the calling thread participates)
    /// and returns the results in job order. Without worker threads the
    /// jobs run in order on the calling thread, the token polled before
    /// each.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Cancelled`] when the pool's token fires
    /// before or during the batch; every job claimed before it fired
    /// still runs to its end (the token is polled before a job is
    /// claimed, never between claiming and running it), but its result
    /// is discarded. Jobs run in claim order, so a job that waits on an
    /// earlier one always waits on one that runs.
    pub fn run_batch(&self, jobs: &[J]) -> Result<Vec<O>, CompileError> {
        self.shared.cancel.check()?;
        if self.inline {
            return jobs
                .iter()
                .map(|job| {
                    self.shared.cancel.check()?;
                    Ok((self.shared.work)(job))
                })
                .collect();
        }
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let n = jobs.len();
        {
            let mut st = self.shared.lock();
            if st.aborted {
                return Err(CompileError::Cancelled);
            }
            debug_assert_eq!(st.done, st.jobs.len(), "previous batch still in flight");
            st.jobs = jobs.to_vec();
            st.next = 0;
            st.done = 0;
            st.results = (0..n).map(|_| None).collect();
        }
        self.shared.work_cv.notify_all();
        self.shared.drain();
        let mut st = self.shared.lock();
        while st.done < st.jobs.len() && !st.aborted {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.aborted {
            return Err(CompileError::Cancelled);
        }
        st.jobs.clear();
        st.next = 0;
        st.done = 0;
        let results = std::mem::take(&mut st.results);
        Ok(results
            .into_iter()
            .map(|r| r.expect("completed batch filled every slot"))
            .collect())
    }
}

impl<J, O, F> Shared<'_, J, O, F>
where
    J: Clone,
    F: Fn(&J) -> O,
{
    fn lock(&self) -> MutexGuard<'_, State<J, O>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Marks the current batch aborted and wakes everyone.
    fn abort(&self) {
        {
            let mut st = self.lock();
            st.aborted = true;
        }
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Claims and executes jobs until the current batch has none left
    /// (or aborts) — run by the submitting thread.
    fn drain(&self) {
        loop {
            if self.cancel.is_cancelled() {
                self.abort();
                return;
            }
            let (idx, job) = {
                let mut st = self.lock();
                if st.aborted || st.next >= st.jobs.len() {
                    return;
                }
                let idx = st.next;
                st.next += 1;
                (idx, st.jobs[idx].clone())
            };
            self.complete(idx, (self.work)(&job));
        }
    }

    /// Stores one job result and signals batch completion.
    fn complete(&self, idx: usize, out: O) {
        let mut st = self.lock();
        st.results[idx] = Some(out);
        st.done += 1;
        if st.done == st.jobs.len() {
            self.done_cv.notify_all();
        }
    }

    /// The spawned workers: park between batches, claim jobs, poll the
    /// cancel token before each, exit on shutdown.
    fn worker_loop(&self) {
        loop {
            let (idx, job) = {
                let mut st = self.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if !st.aborted && st.next < st.jobs.len() {
                        if !self.cancel.is_cancelled() {
                            break;
                        }
                        drop(st);
                        self.abort();
                        st = self.lock();
                        continue;
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                let idx = st.next;
                st.next += 1;
                (idx, st.jobs[idx].clone())
            };
            self.complete(idx, (self.work)(&job));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_return_results_in_job_order() {
        // The shared queue; the inline loop has its own test below.
        for workers in [2, 4] {
            let cancel = CancelToken::new();
            let out = with_pool(workers, &cancel, |&j: &u64| j * j, |pool| {
                let mut all = Vec::new();
                for batch in 0..5u64 {
                    let jobs: Vec<u64> = (0..17).map(|i| batch * 100 + i).collect();
                    all.push(pool.run_batch(&jobs).unwrap());
                    let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
                    assert_eq!(all.last().unwrap(), &expect, "workers={workers}");
                }
                all
            });
            assert_eq!(out.len(), 5);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        for workers in [1, 4] {
            let cancel = CancelToken::new();
            with_pool(workers, &cancel, |&j: &u64| j, |pool| {
                assert_eq!(pool.run_batch(&[]).unwrap(), Vec::<u64>::new());
            });
        }
    }

    #[test]
    fn fired_token_aborts_before_the_batch() {
        // Empty batches too: the inline loop and the shared queue give
        // the same verdict on a token fired before the batch.
        for workers in [1, 4] {
            let cancel = CancelToken::new();
            cancel.cancel();
            with_pool(workers, &cancel, |&j: &u64| j, |pool| {
                for jobs in [&[1, 2, 3][..], &[]] {
                    assert_eq!(
                        pool.run_batch(jobs),
                        Err(CompileError::Cancelled),
                        "workers={workers} jobs={jobs:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn token_fired_mid_batch_aborts_and_pool_tears_down() {
        // The work function fires the token itself: later claims must
        // observe it and abort rather than run the rest of the batch.
        let cancel = CancelToken::new();
        let c2 = cancel.clone();
        let r = with_pool(
            2,
            &cancel,
            move |&j: &u64| {
                if j == 0 {
                    c2.cancel();
                }
                j
            },
            |pool| pool.run_batch(&(0..1000).collect::<Vec<_>>()),
        );
        assert_eq!(r, Err(CompileError::Cancelled));
    }

    #[test]
    fn inline_mode_spawns_no_threads_and_matches() {
        let cancel = CancelToken::new();
        let a = with_pool(1, &cancel, |&j: &u64| j + 1, |p| p.run_batch(&[1, 2, 3]).unwrap());
        let b = with_pool(3, &cancel, |&j: &u64| j + 1, |p| p.run_batch(&[1, 2, 3]).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn inline_batch_returns_results_in_job_order() {
        let cancel = CancelToken::new();
        let jobs: Vec<u64> = (0..33).rev().collect();
        let out = with_pool(1, &cancel, |&j: &u64| j * 3 + 1, |pool| pool.run_batch(&jobs));
        let expect: Vec<u64> = jobs.iter().map(|j| j * 3 + 1).collect();
        assert_eq!(out, Ok(expect));
    }

    #[test]
    fn token_fired_by_job_k_stops_an_inline_batch_before_job_k_plus_one() {
        // Inline batches poll the token before every job: the job that
        // fires it is the last one to run.
        use std::sync::atomic::{AtomicUsize, Ordering};
        for k in [0u64, 3, 8] {
            let cancel = CancelToken::new();
            let fire = cancel.clone();
            let ran = AtomicUsize::new(0);
            let r = with_pool(
                1,
                &cancel,
                |&j: &u64| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if j == k {
                        fire.cancel();
                    }
                    j
                },
                |pool| pool.run_batch(&(0..10).collect::<Vec<_>>()),
            );
            assert_eq!(r, Err(CompileError::Cancelled), "k={k}");
            assert_eq!(ran.load(Ordering::Relaxed), k as usize + 1, "k={k}");
        }
    }
}
