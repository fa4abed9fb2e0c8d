//! A single-value watch channel: one writer publishes successive versions
//! of a value, any number of readers observe the latest one and can block
//! until it changes.
//!
//! This is the propagation pattern the serving tiers use for routing
//! tables and stream high-water marks instead of polling: the Helix
//! controller publishes each rebalanced external view once, routers read
//! the cached copy per request (no coordination-service round trip on the
//! hot path), and the Databus dispatcher sleeps on the relay's SCN watch
//! instead of spinning. Unlike a queue, a watch conflates intermediate
//! values — a slow reader sees only the newest state, which is exactly
//! right for configuration and progress marks.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Shared<T> {
    /// (version, value): version strictly increases with every send.
    slot: Mutex<(u64, T)>,
    changed: Condvar,
    senders: AtomicUsize,
}

/// The writing half. Cloneable; dropping the last sender closes the
/// channel (blocked readers wake and see the close).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The reading half. Each receiver tracks the last version it observed
/// via [`Receiver::wait_newer`]; [`Receiver::get`] never blocks.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
    seen: u64,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("watch::Sender { .. }")
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("watch::Receiver { .. }")
    }
}

/// Creates a watch channel seeded with `initial` (version 0).
pub fn channel<T>(initial: T) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        slot: Mutex::new((0, initial)),
        changed: Condvar::new(),
        senders: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared, seen: 0 },
    )
}

impl<T> Sender<T> {
    /// Publishes a new value, waking every blocked reader.
    pub fn send(&self, value: T) {
        let mut slot = self.shared.slot.lock();
        slot.0 += 1;
        slot.1 = value;
        self.shared.changed.notify_all();
    }

    /// A new receiver that has not yet observed the current value (its
    /// first [`Receiver::wait_newer`] returns immediately if a version
    /// was ever published).
    pub fn subscribe(&self) -> Receiver<T> {
        Receiver {
            shared: self.shared.clone(),
            seen: 0,
        }
    }

    /// The current version (0 = nothing sent since creation).
    pub fn version(&self) -> u64 {
        self.shared.slot.lock().0
    }
}

impl<T: Clone> Sender<T> {
    /// The current value.
    pub fn get(&self) -> T {
        self.shared.slot.lock().1.clone()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.changed.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            shared: self.shared.clone(),
            seen: self.seen,
        }
    }
}

impl<T: Clone> Receiver<T> {
    /// The latest value, without blocking or consuming anything. This is
    /// the per-request read path — one short lock, one clone (keep `T`
    /// cheap to clone, e.g. an `Arc`).
    pub fn get(&self) -> T {
        self.shared.slot.lock().1.clone()
    }

    /// Blocks until a version newer than the last observed one is
    /// published (or `timeout` expires / every sender is gone — both
    /// return `None`). On success the value is marked observed.
    pub fn wait_newer(&mut self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock();
        loop {
            if slot.0 > self.seen {
                self.seen = slot.0;
                return Some(slot.1.clone());
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.shared.changed.wait_for(&mut slot, deadline - now);
        }
    }
}

impl<T> Receiver<T> {
    /// True when a version newer than the last observed one exists — a
    /// single short lock, no clone (cheap staleness probe).
    pub fn has_changed(&self) -> bool {
        self.shared.slot.lock().0 > self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_sees_latest_without_consuming() {
        let (tx, rx) = channel(1u32);
        assert_eq!(rx.get(), 1);
        tx.send(2);
        tx.send(3);
        assert_eq!(rx.get(), 3);
        assert_eq!(rx.get(), 3);
    }

    #[test]
    fn wait_newer_blocks_until_send() {
        let (tx, mut rx) = channel(0u32);
        let h = std::thread::spawn(move || rx.wait_newer(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        tx.send(7);
        assert_eq!(h.join().unwrap(), Some(7));
    }

    #[test]
    fn wait_newer_conflates_intermediate_values() {
        let (tx, mut rx) = channel(0u32);
        tx.send(1);
        tx.send(2);
        tx.send(3);
        assert_eq!(rx.wait_newer(Duration::from_millis(10)), Some(3));
        // Nothing newer: times out.
        assert_eq!(rx.wait_newer(Duration::from_millis(10)), None);
    }

    #[test]
    fn sender_drop_wakes_waiters() {
        let (tx, mut rx) = channel(0u32);
        let h = std::thread::spawn(move || rx.wait_newer(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn subscribe_starts_unobserved() {
        let (tx, _rx) = channel(0u32);
        tx.send(5);
        let mut fresh = tx.subscribe();
        assert!(fresh.has_changed());
        assert_eq!(fresh.wait_newer(Duration::from_millis(10)), Some(5));
    }
}
