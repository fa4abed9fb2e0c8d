//! Bounded fan-out executor for parallel quorum I/O.
//!
//! The paper's Voldemort section (§II.B) issues quorum reads and writes to
//! replicas *in parallel*, completing as soon as R (or W) acks arrive so a
//! slow replica is masked by the quorum instead of adding its full latency
//! to every request. This module provides the reusable machinery:
//!
//! * [`FanOutPool`] — a small bounded worker pool (plain threads, no async
//!   runtime) that quorum coordinators share.
//! * [`fan_out`] — launch a set of replica tasks, wait for the first
//!   `required` successes, replace failures with backup tasks and
//!   optionally *hedge* (issue one speculative backup after a delay).
//!   Stragglers are demoted to a `late` callback instead of blocking the
//!   caller.
//!
//! # Determinism contract
//!
//! Thread scheduling is inherently nondeterministic, but the chaos harness
//! (`li_commons::chaos`) requires byte-identical replays. [`FanOutMode`]
//! therefore offers two execution strategies:
//!
//! * [`FanOutMode::Deterministic`] — run every launched task inline, in
//!   submission order, on the calling thread. Latencies are *accounted*
//!   (the caller sums simulated latencies as if the tasks had overlapped)
//!   rather than slept, so the observable sequence of side effects — and
//!   any RNG the tasks consume, e.g. [`crate::sim::SimNetwork`] drop rolls
//!   — is a pure function of the inputs. This is the default for
//!   simulation and the mode chaos replays use.
//! * [`FanOutMode::Parallel`] — real threads from the pool, wall-clock
//!   hedging. Used by benchmarks and production-like runs where
//!   throughput matters more than replayability.
//!
//! Parallel contacts the same nodes as Deterministic but may observe
//! completions in any order (callers sort by preference-list position
//! before merging, so *results* still match when task outcomes are
//! themselves deterministic).

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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

/// A small bounded worker pool shared by quorum coordinators.
///
/// Jobs are plain `FnOnce` closures; a panicking job is contained (the
/// worker survives). Dropping the pool drains the queue, then joins every
/// worker, so in-flight straggler tasks finish before teardown.
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

    /// [`Self::new`] with a thread-name prefix, so distinct pools (quorum
    /// fan-out vs driver scheduling) are tellable apart in a debugger or
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

    /// Blocks until the queue is empty and no job is executing. Used by
    /// tests that need straggler side effects (late hints, late repairs)
    /// flushed before asserting on cluster state.
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

/// How [`fan_out`] executes its tasks. See the module docs for the
/// determinism contract behind each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanOutMode {
    /// Inline, submission-ordered execution of every launched task —
    /// replayable; simulated latencies overlap by accounting, not threads.
    #[default]
    Deterministic,
    /// Real threads, wall-clock hedging.
    Parallel,
}

/// One replica task: `key` identifies the replica (it is carried through
/// to results, failures, and late callbacks), `run` performs the call.
pub struct FanOutTask<T, E> {
    /// Caller-chosen identity of the task (e.g. the node id).
    pub key: u64,
    /// The work. Must be `'static` because [`FanOutMode::Parallel`] may
    /// outlive the `fan_out` call with it.
    pub run: Box<dyn FnOnce() -> Result<T, E> + Send + 'static>,
}

impl<T, E> std::fmt::Debug for FanOutTask<T, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanOutTask").field("key", &self.key).finish()
    }
}

impl<T, E> FanOutTask<T, E> {
    /// Convenience constructor.
    pub fn new(key: u64, run: impl FnOnce() -> Result<T, E> + Send + 'static) -> Self {
        FanOutTask {
            key,
            run: Box::new(run),
        }
    }
}

/// Tuning for one [`fan_out`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanOutOptions {
    /// Execution mode.
    pub mode: FanOutMode,
    /// Successes needed before the call returns (the R or W of a quorum).
    pub required: usize,
    /// Parallel only: if the quorum is still unmet after this delay, launch
    /// one backup task speculatively (a hedged request).
    pub hedge_delay: Option<Duration>,
}

/// What [`fan_out`] observed.
#[derive(Debug)]
pub struct FanOutReport<T, E> {
    /// The first `required` successes, in completion order.
    pub quorum: Vec<(u64, T)>,
    /// Successes beyond the quorum that completed before the call
    /// returned (Deterministic runs every launched task, so extras are
    /// common there; Parallel only drains what already finished).
    pub extras: Vec<(u64, T)>,
    /// Non-fatal failures observed before the call returned.
    pub failures: Vec<(u64, E)>,
    /// A fatal failure (per the `is_fatal` predicate) aborts the fan-out.
    pub fatal: Option<(u64, E)>,
    /// Successes required for the quorum (copied from the options).
    pub required: usize,
    /// Total tasks launched (primaries + replacements + hedges).
    pub launched: usize,
    /// Hedge tasks launched.
    pub hedges: usize,
    /// Hedge tasks whose success was counted into the quorum.
    pub hedge_wins: usize,
}

impl<T, E> FanOutReport<T, E> {
    fn empty(required: usize) -> Self {
        FanOutReport {
            quorum: Vec::new(),
            extras: Vec::new(),
            failures: Vec::new(),
            fatal: None,
            required,
            launched: 0,
            hedges: 0,
            hedge_wins: 0,
        }
    }

    /// Did the quorum complete?
    pub fn satisfied(&self) -> bool {
        self.quorum.len() >= self.required
    }

    /// Successes (quorum then extras), by reference.
    pub fn successes(&self) -> impl Iterator<Item = &(u64, T)> {
        self.quorum.iter().chain(self.extras.iter())
    }
}

/// Callback for task outcomes that arrive *after* [`fan_out`] returned
/// (Parallel mode stragglers). Runs on a pool worker thread.
pub type LateHandler<T, E> = Arc<dyn Fn(u64, Result<T, E>) + Send + Sync>;

/// Fans `primary` tasks out, waits for `required` successes, and replaces
/// each observed failure with the next `backups` task (the sloppy-quorum
/// "try the next node in the preference list" move). `is_fatal` failures
/// abort immediately — no replacement, no further waiting. See
/// [`FanOutMode`] for how each mode trades parallelism for replayability.
pub fn fan_out<T, E>(
    pool: Option<&FanOutPool>,
    opts: &FanOutOptions,
    primary: Vec<FanOutTask<T, E>>,
    backups: Vec<FanOutTask<T, E>>,
    is_fatal: Option<&dyn Fn(&E) -> bool>,
    late: Option<LateHandler<T, E>>,
) -> FanOutReport<T, E>
where
    T: Send + 'static,
    E: Send + 'static,
{
    match (opts.mode, pool) {
        (FanOutMode::Parallel, Some(pool)) => {
            run_parallel(pool, opts, primary, backups, is_fatal, late)
        }
        // Parallel without a pool degrades to the replayable inline mode.
        _ => run_inline(opts, primary, backups, is_fatal),
    }
}

/// The inline loop keeps executing launched tasks past the quorum so
/// every contacted replica's side effects happen inline, matching what
/// Parallel would eventually do via stragglers.
fn run_inline<T, E>(
    opts: &FanOutOptions,
    primary: Vec<FanOutTask<T, E>>,
    backups: Vec<FanOutTask<T, E>>,
    is_fatal: Option<&dyn Fn(&E) -> bool>,
) -> FanOutReport<T, E> {
    let mut report = FanOutReport::empty(opts.required);
    let mut backups = backups.into_iter();
    let mut work: VecDeque<FanOutTask<T, E>> = primary.into();
    while let Some(task) = work.pop_front() {
        report.launched += 1;
        match (task.run)() {
            Ok(value) => {
                if report.quorum.len() < opts.required {
                    report.quorum.push((task.key, value));
                } else {
                    report.extras.push((task.key, value));
                }
            }
            Err(e) => {
                if is_fatal.is_some_and(|f| f(&e)) {
                    report.fatal = Some((task.key, e));
                    return report;
                }
                report.failures.push((task.key, e));
                // Replace the failure with the next backup replica, but
                // only while the quorum is still unmet.
                if !report.satisfied() {
                    if let Some(backup) = backups.next() {
                        work.push_back(backup);
                    }
                }
            }
        }
    }
    report
}

fn run_parallel<T, E>(
    pool: &FanOutPool,
    opts: &FanOutOptions,
    primary: Vec<FanOutTask<T, E>>,
    backups: Vec<FanOutTask<T, E>>,
    is_fatal: Option<&dyn Fn(&E) -> bool>,
    late: Option<LateHandler<T, E>>,
) -> FanOutReport<T, E>
where
    T: Send + 'static,
    E: Send + 'static,
{
    let mut report = FanOutReport::empty(opts.required);
    // `None` outcome = the task panicked (contained); it still counts
    // against `pending` so the collector can never hang on a lost task.
    let (tx, rx) = mpsc::channel::<(u64, Option<Result<T, E>>)>();
    // Once set, outcomes go to the `late` handler instead of the channel.
    let done = Arc::new(AtomicBool::new(false));

    let launch = |task: FanOutTask<T, E>| {
        let tx = tx.clone();
        let done = Arc::clone(&done);
        let late = late.clone();
        pool.submit(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task.run)).ok();
            if done.load(Ordering::SeqCst) {
                if let (Some(late), Some(outcome)) = (&late, outcome) {
                    late(task.key, outcome);
                }
            } else if let Err(mpsc::SendError((key, outcome))) = tx.send((task.key, outcome)) {
                // Collector raced us to teardown; demote to the late path.
                if let (Some(late), Some(outcome)) = (&late, outcome) {
                    late(key, outcome);
                }
            }
        });
    };

    let mut backups = backups.into_iter();
    let mut pending = 0usize;
    for task in primary {
        launch(task);
        report.launched += 1;
        pending += 1;
    }

    let start = Instant::now();
    let mut hedged_keys: Vec<u64> = Vec::new();
    let mut hedge_at = opts.hedge_delay;
    while !report.satisfied() && pending > 0 {
        // Wake when the hedge is due; until then only a completion matters.
        let wait = hedge_at.map_or(Duration::from_secs(3600), |at| {
            at.saturating_sub(start.elapsed())
        });
        match rx.recv_timeout(wait) {
            Ok((key, Some(Ok(value)))) => {
                pending -= 1;
                if hedged_keys.contains(&key) {
                    report.hedge_wins += 1;
                }
                if report.quorum.len() < opts.required {
                    report.quorum.push((key, value));
                } else {
                    report.extras.push((key, value));
                }
            }
            Ok((key, Some(Err(e)))) => {
                pending -= 1;
                if is_fatal.is_some_and(|f| f(&e)) {
                    report.fatal = Some((key, e));
                    break;
                }
                report.failures.push((key, e));
                if !report.satisfied() {
                    if let Some(backup) = backups.next() {
                        launch(backup);
                        report.launched += 1;
                        pending += 1;
                    }
                }
            }
            Ok((_key, None)) => {
                // A contained panic: no result to record, but treat it
                // like a failure for replacement purposes.
                pending -= 1;
                if !report.satisfied() {
                    if let Some(backup) = backups.next() {
                        launch(backup);
                        report.launched += 1;
                        pending += 1;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if hedge_at.is_some_and(|at| start.elapsed() >= at) {
                    hedge_at = None;
                    if let Some(backup) = backups.next() {
                        hedged_keys.push(backup.key);
                        launch(backup);
                        report.launched += 1;
                        report.hedges += 1;
                        pending += 1;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    done.store(true, Ordering::SeqCst);
    // Drain whatever already finished; the rest reaches `late`. A task
    // finishing in this instant may slip to either side — both are
    // handled, so no outcome is lost.
    while let Ok((key, outcome)) = rx.try_recv() {
        match outcome {
            Some(Ok(value)) => {
                if hedged_keys.contains(&key) && report.quorum.len() < opts.required {
                    report.hedge_wins += 1;
                }
                if report.quorum.len() < opts.required {
                    report.quorum.push((key, value));
                } else {
                    report.extras.push((key, value));
                }
            }
            Some(Err(e)) => report.failures.push((key, e)),
            None => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn ok_task(key: u64, log: &Arc<Mutex<Vec<u64>>>) -> FanOutTask<u64, String> {
        let log = Arc::clone(log);
        FanOutTask::new(key, move || {
            log.lock().push(key);
            Ok(key * 10)
        })
    }

    fn err_task(key: u64, log: &Arc<Mutex<Vec<u64>>>) -> FanOutTask<u64, String> {
        let log = Arc::clone(log);
        FanOutTask::new(key, move || {
            log.lock().push(key);
            Err(format!("fail-{key}"))
        })
    }

    #[test]
    fn deterministic_runs_all_launched_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let primary = (0..4).map(|k| ok_task(k, &log)).collect();
        let opts = FanOutOptions {
            mode: FanOutMode::Deterministic,
            required: 2,
            ..Default::default()
        };
        let report = fan_out(None, &opts, primary, vec![], None, None);
        assert_eq!(report.quorum, vec![(0, 0), (1, 10)]);
        assert_eq!(report.extras, vec![(2, 20), (3, 30)]);
        assert_eq!(*log.lock(), vec![0, 1, 2, 3], "submission order, all run");
    }

    #[test]
    fn failures_pull_in_backups() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let primary = vec![err_task(0, &log), ok_task(1, &log)];
        let backups = vec![ok_task(9, &log), ok_task(8, &log)];
        let opts = FanOutOptions {
            mode: FanOutMode::Deterministic,
            required: 2,
            ..Default::default()
        };
        let report = fan_out(None, &opts, primary, backups, None, None);
        assert!(report.satisfied());
        assert_eq!(report.quorum, vec![(1, 10), (9, 90)]);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(*log.lock(), vec![0, 1, 9], "one backup per failure");
    }

    #[test]
    fn fatal_aborts_immediately() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let primary = vec![ok_task(0, &log), err_task(1, &log), ok_task(2, &log)];
        let opts = FanOutOptions {
            mode: FanOutMode::Deterministic,
            required: 3,
            ..Default::default()
        };
        let fatal = |e: &String| e.contains("fail");
        let report = fan_out(None, &opts, primary, vec![], Some(&fatal), None);
        assert!(report.fatal.is_some());
        assert_eq!(*log.lock(), vec![0, 1], "task 2 never launched");
    }

    #[test]
    fn parallel_reaches_quorum_and_reports_stragglers_late() {
        let pool = FanOutPool::new(4);
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let late_seen = Arc::new(AtomicU32::new(0));
        let mut primary: Vec<FanOutTask<u64, String>> = vec![
            FanOutTask::new(0, || Ok(1)),
            FanOutTask::new(1, || Ok(2)),
        ];
        {
            // A straggler that blocks until we let it go.
            let release = Arc::clone(&release);
            primary.push(FanOutTask::new(2, move || {
                let (lock, cv) = &*release;
                let mut go = lock.lock();
                while !*go {
                    cv.wait(&mut go);
                }
                Ok(3)
            }));
        }
        let opts = FanOutOptions {
            mode: FanOutMode::Parallel,
            required: 2,
            ..Default::default()
        };
        let late: LateHandler<u64, String> = {
            let late_seen = Arc::clone(&late_seen);
            Arc::new(move |key, outcome| {
                assert_eq!(key, 2);
                assert_eq!(outcome, Ok(3));
                late_seen.fetch_add(1, Ordering::SeqCst);
            })
        };
        let report = fan_out(Some(&pool), &opts, primary, vec![], None, Some(late));
        assert!(report.satisfied());
        assert_eq!(report.quorum.len(), 2);
        // Unblock the straggler; it must surface via the late handler.
        {
            let (lock, cv) = &*release;
            *lock.lock() = true;
            cv.notify_all();
        }
        pool.wait_idle();
        assert_eq!(late_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parallel_hedge_fires_and_wins() {
        let pool = FanOutPool::new(4);
        // Primary task stalls far longer than the hedge delay; the backup
        // answers instantly, so the hedge supplies the quorum success.
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let primary: Vec<FanOutTask<u64, String>> = vec![{
            let release = Arc::clone(&release);
            FanOutTask::new(0, move || {
                let (lock, cv) = &*release;
                let mut go = lock.lock();
                while !*go {
                    cv.wait(&mut go);
                }
                Ok(0)
            })
        }];
        let backups = vec![FanOutTask::new(7, || Ok(70))];
        let opts = FanOutOptions {
            mode: FanOutMode::Parallel,
            required: 1,
            hedge_delay: Some(Duration::from_millis(5)),
        };
        let report = fan_out(Some(&pool), &opts, primary, backups, None, None);
        assert!(report.satisfied());
        assert_eq!(report.quorum, vec![(7, 70)]);
        assert_eq!(report.hedges, 1);
        assert_eq!(report.hedge_wins, 1);
        let (lock, cv) = &*release;
        *lock.lock() = true;
        cv.notify_all();
        pool.wait_idle();
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

    #[test]
    fn parallel_without_pool_degrades_to_deterministic() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let primary = (0..3).map(|k| ok_task(k, &log)).collect();
        let opts = FanOutOptions {
            mode: FanOutMode::Parallel,
            required: 1,
            ..Default::default()
        };
        let report = fan_out(None, &opts, primary, vec![], None, None);
        assert_eq!(report.quorum.len(), 1);
        assert_eq!(*log.lock(), vec![0, 1, 2], "inline fallback runs all");
    }
}
