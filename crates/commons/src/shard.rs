//! Striped locks for partitioned serving state.
//!
//! Every serving tier in the paper is built around partitioned state —
//! Espresso partitions databases, Kafka partitions topics, Voldemort
//! partitions the ring — yet a naive in-process reproduction funnels all
//! of it through one mutex per system. [`ShardedLock`] is the shared
//! substrate that fixes that: state is split over `N` independently
//! locked stripes, a key's stripe is chosen by hash, and multi-stripe
//! operations acquire their stripes in ascending index order so no two
//! transactions can deadlock no matter which keys they touch.
//!
//! The stripe count is a constant of the structure that owns the lock, not
//! a run mode: which stripe a key lands on changes nothing an operation
//! returns, so a replay driven from one thread is the same at any count.

use parking_lot::{Mutex, MutexGuard};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// `N` hash-striped instances of `S` behind independent mutexes.
///
/// Lock-ordering contract: any operation that holds more than one stripe
/// must acquire them in ascending stripe-index order ([`Self::lock_many`]
/// and [`Self::lock_all`] do this for you). Callers layering another lock
/// on top (e.g. a commit-point lock) must acquire it strictly *after*
/// all stripes, never before.
pub struct ShardedLock<S> {
    stripes: Vec<Mutex<S>>,
}

impl<S: std::fmt::Debug> std::fmt::Debug for ShardedLock<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLock")
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl<S> ShardedLock<S> {
    /// Creates `stripes` stripes, each initialized by `init` (at least 1).
    pub fn new(stripes: usize, init: impl Fn() -> S) -> Self {
        ShardedLock {
            stripes: (0..stripes.max(1)).map(|_| Mutex::new(init())).collect(),
        }
    }

    /// The stripe a key hashes to. Stable for the lifetime of the value
    /// (`DefaultHasher` with default keys is deterministic), but callers
    /// must not persist stripe indices — they are an in-memory layout.
    pub fn stripe_of<K: Hash + ?Sized>(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.stripes.len() as u64) as usize
    }

    /// Locks the stripe holding `key`.
    pub fn lock<K: Hash + ?Sized>(&self, key: &K) -> MutexGuard<'_, S> {
        self.stripes[self.stripe_of(key)].lock()
    }

    /// The sorted, deduplicated stripe set covering `keys` — the exact
    /// acquisition order [`Self::lock_many`] will use.
    pub fn stripe_set<K: Hash>(&self, keys: impl IntoIterator<Item = K>) -> Vec<usize> {
        let mut ids: Vec<usize> = keys.into_iter().map(|k| self.stripe_of(&k)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Locks the given stripes in ascending order (deadlock-free against
    /// any other multi-stripe holder). `indices` must be sorted and
    /// deduplicated — use [`Self::stripe_set`]. Guards are returned in the
    /// same order as `indices`.
    pub fn lock_many(&self, indices: &[usize]) -> Vec<MutexGuard<'_, S>> {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        indices.iter().map(|&i| self.stripes[i].lock()).collect()
    }

    /// Locks every stripe in ascending order (whole-structure operations:
    /// scans, fingerprints, recovery).
    pub fn lock_all(&self) -> Vec<MutexGuard<'_, S>> {
        self.stripes.iter().map(Mutex::lock).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn stripe_of_is_stable_and_in_range() {
        let sharded: ShardedLock<()> = ShardedLock::new(16, || ());
        for key in 0..1000u64 {
            let s = sharded.stripe_of(&key);
            assert!(s < 16);
            assert_eq!(s, sharded.stripe_of(&key));
        }
    }

    #[test]
    fn stripe_set_is_sorted_and_deduped() {
        let sharded: ShardedLock<()> = ShardedLock::new(8, || ());
        let set = sharded.stripe_set(0..100u64);
        assert!(set.windows(2).all(|w| w[0] < w[1]));
        let guards = sharded.lock_many(&set);
        assert_eq!(guards.len(), set.len());
    }

    #[test]
    fn disjoint_keys_do_not_serialize() {
        // Hold key A's stripe; an operation on a key in a different stripe
        // must complete while A is held.
        let sharded: Arc<ShardedLock<u64>> = Arc::new(ShardedLock::new(8, || 0));
        let a = 0u64;
        let b = (1..100u64)
            .find(|k| sharded.stripe_of(k) != sharded.stripe_of(&a))
            .unwrap();
        let guard = sharded.lock(&a);
        let other = sharded.clone();
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = done.clone();
        let h = std::thread::spawn(move || {
            *other.lock(&b) += 1;
            done2.store(1, Ordering::SeqCst);
        });
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1, "disjoint stripe not blocked");
        drop(guard);
    }

    #[test]
    fn ordered_acquisition_survives_crossing_transactions() {
        // Two threads repeatedly locking overlapping stripe pairs in
        // opposite key order must not deadlock (both go through the
        // sorted path).
        let sharded: Arc<ShardedLock<u64>> = Arc::new(ShardedLock::new(4, || 0));
        let mut handles = Vec::new();
        for t in 0..2 {
            let sharded = sharded.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let (x, y) = if t == 0 { (i, i + 1) } else { (i + 1, i) };
                    let set = sharded.stripe_set([x, y]);
                    let mut guards = sharded.lock_many(&set);
                    for g in &mut guards {
                        **g += 1;
                    }
                }
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        for h in handles {
            assert!(std::time::Instant::now() < deadline, "deadlock tripwire");
            h.join().unwrap();
        }
    }
}
