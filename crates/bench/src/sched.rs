//! M:N scheduling of logical closed-loop drivers onto bounded workers.
//!
//! N logical drivers — each a resumable state machine over its
//! pre-split op stream — multiplex onto the W workers of a
//! [`FanOutPool`]: every worker repeatedly pops a runnable driver from a
//! shared FIFO, runs one quantum of its ops, and requeues it until the
//! stream is exhausted. Hundreds of drivers run on a handful of OS
//! threads, and the FIFO round-robins quanta — one quantum per turn — so
//! all drivers progress together (closed-loop fairness: no driver's
//! offered load starves behind another's).
//!
//! **Determinism contract:** [`run_serial`] is the collapsed twin — it
//! runs each machine to completion in submission order on the calling
//! thread, which is exactly the schedule a `ShardMode::Deterministic`
//! run needs (no extra threads, byte-identical conservation
//! fingerprints). [`run_on_pool`] interleaves quanta across workers; the
//! per-driver op *streams* are identical, only the interleaving varies,
//! so order-independent totals still match the serial twin.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use li_commons::exec::FanOutPool;
use parking_lot::{Condvar, Mutex};

/// A resumable driver state machine.
pub trait Resumable: Send {
    /// Runs one quantum of work. Returns `true` once the machine has
    /// finished (it will not be stepped again).
    fn step(&mut self) -> bool;
}

struct SchedShared<S> {
    /// Runnable machines, FIFO: `(original index, state)`.
    runnable: Mutex<VecDeque<(usize, S)>>,
    /// Wakes workers parked on an empty queue.
    wake: Condvar,
    /// Finished machines parked back in their original slots.
    finished: Mutex<Vec<Option<S>>>,
    /// Machines not yet finished; 0 tells parked workers to exit.
    remaining: AtomicUsize,
}

/// Runs every state machine to completion across the pool's workers,
/// one quantum at a time. Returns the machines in their original order.
/// A machine that panics mid-step poisons nothing — [`worker_loop`]
/// contains the panic and still counts the machine finished, so the
/// pool drains — but its slot comes back `None`, which this function
/// surfaces by panicking with the count of lost drivers (a benchmark
/// must never silently drop load).
pub fn run_on_pool<S: Resumable + 'static>(pool: &FanOutPool, states: Vec<S>) -> Vec<S> {
    let total = states.len();
    if total == 0 {
        return states;
    }
    let shared = Arc::new(SchedShared {
        runnable: Mutex::new(states.into_iter().enumerate().collect()),
        wake: Condvar::new(),
        finished: Mutex::new(std::iter::repeat_with(|| None).take(total).collect()),
        remaining: AtomicUsize::new(total),
    });
    for _ in 0..pool.workers() {
        let shared = Arc::clone(&shared);
        pool.submit(move || worker_loop(&shared));
    }
    pool.wait_idle();
    let mut finished = shared.finished.lock();
    let lost = finished.iter().filter(|slot| slot.is_none()).count();
    assert!(lost == 0, "{lost} driver(s) lost to a panicked step");
    finished.iter_mut().map(|slot| slot.take().unwrap()).collect()
}

fn worker_loop<S: Resumable>(shared: &SchedShared<S>) {
    loop {
        let (index, mut state) = {
            let mut runnable = shared.runnable.lock();
            loop {
                if shared.remaining.load(Ordering::Acquire) == 0 {
                    return;
                }
                if let Some(entry) = runnable.pop_front() {
                    break entry;
                }
                // All in-queue work is claimed but unfinished machines
                // exist (other workers hold them mid-quantum): park until
                // a requeue or the final finish wakes us.
                shared.wake.wait(&mut runnable);
            }
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.step())) {
            Ok(false) => {
                shared.runnable.lock().push_back((index, state));
                shared.wake.notify_one();
            }
            Ok(true) => {
                shared.finished.lock()[index] = Some(state);
                finish_one(shared);
            }
            Err(_) => {
                // The machine is lost to the panic: its slot stays `None`,
                // which `run_on_pool` turns into the lost-driver panic
                // once the pool drains. It still counts as finished here —
                // otherwise `remaining` never reaches 0 and every other
                // worker parks forever behind the corpse.
                finish_one(shared);
            }
        }
    }
}

/// Marks one machine finished. The final decrement takes the `runnable`
/// lock before notifying: workers check `remaining` and park while
/// holding that lock, so serializing the wake on it closes the window
/// where the notify fires between a worker's check and its wait (a
/// lost wakeup that would park the worker — and `wait_idle` — forever).
fn finish_one<S>(shared: &SchedShared<S>) {
    if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let _runnable = shared.runnable.lock();
        shared.wake.notify_all();
    }
}

/// The serialized twin: runs each machine to completion, in order, on
/// the calling thread. Same per-machine op streams, fully sequential
/// schedule — the replayable baseline for `ShardMode::Deterministic`.
pub fn run_serial<S: Resumable>(mut states: Vec<S>) -> Vec<S> {
    for state in &mut states {
        while !state.step() {}
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountTo {
        at: u64,
        target: u64,
        stride: u64,
        log: Arc<Mutex<Vec<u64>>>,
        id: u64,
    }

    impl Resumable for CountTo {
        fn step(&mut self) -> bool {
            self.at = (self.at + self.stride).min(self.target);
            self.log.lock().push(self.id);
            self.at == self.target
        }
    }

    fn machines(n: u64, log: &Arc<Mutex<Vec<u64>>>) -> Vec<CountTo> {
        (0..n)
            .map(|id| CountTo {
                at: 0,
                target: 40 + id,
                stride: 7,
                log: Arc::clone(log),
                id,
            })
            .collect()
    }

    #[test]
    fn pool_runs_many_more_machines_than_workers_to_completion() {
        let pool = FanOutPool::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        let done = run_on_pool(&pool, machines(128, &log));
        assert_eq!(done.len(), 128);
        for (id, m) in done.iter().enumerate() {
            assert_eq!(m.at, m.target, "machine {id} stopped early");
            assert_eq!(m.id, id as u64, "results must keep submission order");
        }
    }

    #[test]
    fn serial_twin_interleaves_nothing() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let done = run_serial(machines(4, &log));
        assert_eq!(done.len(), 4);
        // Strict schedule: machine 0's quanta all precede machine 1's.
        let log = log.lock();
        let mut seen_max = 0;
        for &id in log.iter() {
            assert!(id >= seen_max, "serial twin interleaved: {:?}", *log);
            seen_max = id;
        }
    }

    #[test]
    fn pool_schedule_round_robins_quanta() {
        // With one worker the FIFO is fully deterministic: quanta rotate
        // 0,1,2,0,1,2,... until streams run dry.
        let pool = FanOutPool::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        run_on_pool(&pool, machines(3, &log));
        let log = log.lock();
        assert_eq!(&log[..6], &[0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let pool = FanOutPool::new(2);
        let done: Vec<CountTo> = run_on_pool(&pool, Vec::new());
        assert!(done.is_empty());
    }

    #[test]
    fn termination_with_more_workers_than_machines_never_hangs() {
        // Most workers spend the whole run parked on the condvar; the
        // final finish must wake every one of them (the lost-wakeup race
        // lived exactly here: notify firing between a parked worker's
        // `remaining` check and its wait). Iterate to give the race room.
        let pool = FanOutPool::new(8);
        for _ in 0..200 {
            let log = Arc::new(Mutex::new(Vec::new()));
            let done = run_on_pool(&pool, machines(2, &log));
            assert_eq!(done.len(), 2);
        }
    }

    enum Trip {
        Counts(CountTo),
        Panics,
    }

    impl Resumable for Trip {
        fn step(&mut self) -> bool {
            match self {
                Trip::Counts(m) => m.step(),
                Trip::Panics => panic!("driver tripped mid-quantum"),
            }
        }
    }

    #[test]
    fn panicking_step_drains_the_pool_and_reports_the_lost_driver() {
        let pool = FanOutPool::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut states: Vec<Trip> = machines(5, &log).into_iter().map(Trip::Counts).collect();
        states.insert(2, Trip::Panics);
        // The panicked machine must not wedge the others: the pool drains
        // and run_on_pool raises the lost-driver panic instead of hanging.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_on_pool(&pool, states)));
        let Err(payload) = result else {
            panic!("a lost driver must not pass silently");
        };
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("1 driver(s) lost"), "unexpected panic: {msg}");
        // The surviving machines all ran to completion before the report.
        let quanta = log.lock().len() as u64;
        let expected: u64 = (0..5u64).map(|id| (40 + id).div_ceil(7)).sum();
        assert_eq!(quanta, expected, "survivors must finish despite the panic");
    }
}
