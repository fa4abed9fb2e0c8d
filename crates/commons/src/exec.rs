//! A bounded worker pool and the one call that runs a batch of tasks on it.
//!
//! Espresso's multi-key write (`EspressoCluster::multi_put`) hands one task
//! per master node to [`run_all`], which runs them on a [`FanOutPool`] when
//! one is passed and inline, in submission order, otherwise. Whether a pool
//! is passed is the whole mode: [`FanOutMode`] only names the choice for
//! the callers that configure it.
//!
//! # Determinism contract
//!
//! Without a pool, every task runs on the calling thread in submission
//! order, so the sequence of side effects — and any RNG the tasks consume —
//! is a pure function of the inputs. That is what chaos replays rely on.
//! With a pool, tasks overlap and finish in any order, but [`run_all`]
//! still returns their results in submission order, so a caller whose
//! tasks are independent sees the same results either way.
//!
//! Quorum I/O does not use this module: Voldemort's client orders replica
//! replies by their simulated completion times on one thread
//! (`li_voldemort::client`), so no latency model needs real overlap.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
    active: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers (new job / shutdown) and `wait_idle` (job finished).
    cv: Condvar,
}

/// A small bounded worker pool.
///
/// Jobs are plain `FnOnce` closures; a panicking job is contained (the
/// worker survives). Dropping the pool drains the queue, then joins every
/// worker, so queued jobs finish before teardown.
pub struct FanOutPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FanOutPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanOutPool")
            .field("workers", &self.workers.len())
            .field("queued", &self.shared.state.lock().queue.len())
            .finish()
    }
}

impl FanOutPool {
    /// Creates a pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self::named("fanout", workers)
    }

    /// [`Self::new`] with a thread-name prefix, so distinct pools (Espresso
    /// writes vs driver scheduling) are tellable apart in a debugger or
    /// `/proc/<pid>/task`.
    pub fn named(prefix: &str, workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            cv: Condvar::new(),
        });
        let workers = workers.max(1);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || Self::worker_loop(&shared))
                    .expect("spawn fan-out worker")
            })
            .collect();
        FanOutPool {
            shared,
            workers: handles,
        }
    }

    fn worker_loop(shared: &PoolShared) {
        loop {
            let job = {
                let mut state = shared.state.lock();
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        state.active += 1;
                        break Some(job);
                    }
                    if state.shutdown {
                        break None;
                    }
                    shared.cv.wait(&mut state);
                }
            };
            let Some(job) = job else { return };
            // Contain panics so one bad task can't kill a shared worker.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            let mut state = shared.state.lock();
            state.active -= 1;
            drop(state);
            shared.cv.notify_all();
        }
    }

    /// Enqueues a job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        {
            let mut state = self.shared.state.lock();
            state.queue.push_back(Box::new(job));
        }
        self.shared.cv.notify_one();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Blocks until the queue is empty and no job is executing (the site
    /// harness's scheduler waits for its drivers this way).
    pub fn wait_idle(&self) {
        let mut state = self.shared.state.lock();
        while !state.queue.is_empty() || state.active > 0 {
            self.shared.cv.wait(&mut state);
        }
    }
}

impl Drop for FanOutPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Whether a caller hands its batches to a [`FanOutPool`] or runs them
/// inline. See the module docs for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanOutMode {
    /// Inline, submission-ordered execution — replayable.
    Deterministic,
    /// On a pool's worker threads.
    Parallel,
}

/// One task of a [`run_all`] batch. `'static` because a pool's worker
/// threads run it.
pub struct FanOutTask<T> {
    run: Box<dyn FnOnce() -> T + Send + 'static>,
}

impl<T> FanOutTask<T> {
    /// Wraps `run` as a task.
    pub fn new(run: impl FnOnce() -> T + Send + 'static) -> Self {
        FanOutTask { run: Box::new(run) }
    }
}

/// Runs every task — on `pool`'s workers when one is passed, inline in
/// submission order otherwise — and returns their results in submission
/// order. A task that panics on the pool re-raises its panic here, as it
/// would have inline.
pub fn run_all<T: Send + 'static>(pool: Option<&FanOutPool>, tasks: Vec<FanOutTask<T>>) -> Vec<T> {
    let Some(pool) = pool else {
        return tasks.into_iter().map(|task| (task.run)()).collect();
    };
    let total = tasks.len();
    let (tx, rx) = mpsc::channel();
    for (index, task) in tasks.into_iter().enumerate() {
        let tx = tx.clone();
        pool.submit(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task.run));
            // The receiver outlives every send: it waits for all `total`.
            let _ = tx.send((index, outcome));
        });
    }
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(total).collect();
    for (index, outcome) in rx.iter().take(total) {
        match outcome {
            Ok(value) => slots[index] = Some(value),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every submitted task reports once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn logging_tasks(log: &Arc<Mutex<Vec<u64>>>) -> Vec<FanOutTask<u64>> {
        (0..6)
            .map(|key| {
                let log = Arc::clone(log);
                FanOutTask::new(move || {
                    log.lock().push(key);
                    key * 10
                })
            })
            .collect()
    }

    #[test]
    fn inline_runs_every_task_in_submission_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let results = run_all(None, logging_tasks(&log));
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(
            *log.lock(),
            vec![0, 1, 2, 3, 4, 5],
            "submission order, all run"
        );
    }

    #[test]
    fn pool_returns_results_in_submission_order() {
        let pool = FanOutPool::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        let results = run_all(Some(&pool), logging_tasks(&log));
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50]);
        let mut ran = log.lock().clone();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 2, 3, 4, 5], "every task ran once");
    }

    #[test]
    fn a_panicking_task_on_the_pool_panics_the_caller() {
        let pool = FanOutPool::new(2);
        let tasks = vec![
            FanOutTask::new(|| 1),
            FanOutTask::new(|| panic!("task failed")),
        ];
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_all(Some(&pool), tasks)));
        assert!(caught.is_err());
        // The pool survives for the next batch.
        assert_eq!(run_all(Some(&pool), vec![FanOutTask::new(|| 7)]), vec![7]);
    }

    #[test]
    fn pool_survives_panicking_job_and_wait_idle_flushes() {
        let pool = FanOutPool::new(2);
        let ran = Arc::new(AtomicU32::new(0));
        pool.submit(|| panic!("contained"));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }
}
