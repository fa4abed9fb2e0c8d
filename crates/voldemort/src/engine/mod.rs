//! Pluggable storage engines.
//!
//! "Every module in the architecture implements the same code interface
//! thereby making it easy to (a) interchange modules ... and (b) test code
//! easily by mocking modules" (§II.B). [`StorageEngine`] is that interface
//! for the storage layer; the server holds one boxed engine per store.

mod bdb;
mod mem;

pub use bdb::BdbLikeEngine;
pub use mem::MemoryEngine;

use bytes::Bytes;
use li_commons::clock::{VectorClock, Versioned, WriterId};

use crate::error::VoldemortError;

/// What a read-modify-write makes of the versions a key holds: the answer
/// of [`StorageEngine::read_modify_write`]'s closure, and of a transformed
/// put's [`crate::Transform::on_put`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// Nothing to write: the key keeps what it holds, and nothing is
    /// stored, logged or replicated.
    Keep,
    /// A new value, superseding every version held.
    Value(Bytes),
    /// The one version held (nothing, when the key is absent) extended by
    /// these bytes.
    Append(Bytes),
}

/// The storage interface every engine implements. Engines store the full
/// sibling set per key: concurrent vector-clocked versions coexist until a
/// descendant write reconciles them.
pub trait StorageEngine: Send + Sync {
    /// All live versions of `key` (empty when absent).
    fn get(&self, key: &[u8]) -> Result<Vec<Versioned<Bytes>>, VoldemortError>;

    /// Stores a version. Fails with [`VoldemortError::ObsoleteVersion`]
    /// when an existing version is equal to or dominates the candidate —
    /// the optimistic-lock signal propagated to clients.
    fn put(&self, key: &[u8], value: Versioned<Bytes>) -> Result<(), VoldemortError>;

    /// Stores a version without surfacing obsolescence (used by read
    /// repair, hinted-handoff replay, and rebalancing, where a stale
    /// incoming version is silently dropped rather than an error).
    fn force_put(&self, key: &[u8], value: Versioned<Bytes>) -> Result<(), VoldemortError> {
        match self.put(key, value) {
            Ok(()) | Err(VoldemortError::ObsoleteVersion) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Read-modify-write under the engine's one lock: `rewrite` is handed
    /// every version `key` holds, and its answer is stored stamped
    /// `merge(held clocks).incremented(writer)`, so it supersedes exactly
    /// what was held. Returns the stored version, or `None` when `rewrite`
    /// answered [`Rewrite::Keep`]. An append to two or more siblings has no
    /// one base and fails with [`VoldemortError::UnsupportedOperation`].
    fn read_modify_write(
        &self,
        key: &[u8],
        writer: WriterId,
        rewrite: &dyn Fn(&[Versioned<Bytes>]) -> Rewrite,
    ) -> Result<Option<Versioned<Bytes>>, VoldemortError>;

    /// Deletes every version of `key` dominated by (or equal to) `clock`.
    /// Concurrent siblings survive. Returns true when anything was removed.
    fn delete(&self, key: &[u8], clock: &VectorClock) -> Result<bool, VoldemortError>;

    /// Snapshot of all entries in ascending key order — the bulk
    /// interface used by rebalancing and hinted-handoff drains, whose
    /// snapshots and traces must not depend on how an engine indexes.
    fn entries(&self) -> Vec<(Bytes, Vec<Versioned<Bytes>>)>;

    /// Number of keys with at least one live version.
    fn key_count(&self) -> usize;
}

/// Shared sibling-slot mutation used by the read-write engines.
pub(crate) fn slot_put<V>(
    slot: &mut Vec<Versioned<V>>,
    value: Versioned<V>,
) -> Result<(), VoldemortError> {
    if li_commons::clock::resolve_siblings(slot, value) {
        Ok(())
    } else {
        Err(VoldemortError::ObsoleteVersion)
    }
}

/// A version a read-modify-write stored and, when it appended to the one
/// version held, that version's length: the log may carry it as a suffix
/// of that many bytes.
pub(crate) type Rewritten = (Versioned<Bytes>, Option<usize>);

/// Shared read-modify-write logic: stores `rewrite`'s answer to `slot` in
/// it, as [`StorageEngine::read_modify_write`] specifies.
pub(crate) fn slot_rewrite(
    slot: &mut Vec<Versioned<Bytes>>,
    writer: WriterId,
    rewrite: &dyn Fn(&[Versioned<Bytes>]) -> Rewrite,
) -> Result<Option<Rewritten>, VoldemortError> {
    let (value, base_len) = match (rewrite(slot), slot.as_slice()) {
        (Rewrite::Keep, _) => return Ok(None),
        (Rewrite::Value(value) | Rewrite::Append(value), []) | (Rewrite::Value(value), _) => {
            (value, None)
        }
        (Rewrite::Append(suffix), [held]) => {
            let mut value = Vec::with_capacity(held.value.len() + suffix.len());
            value.extend_from_slice(&held.value);
            value.extend_from_slice(&suffix);
            (Bytes::from(value), Some(held.value.len()))
        }
        (Rewrite::Append(_), _) => {
            return Err(VoldemortError::UnsupportedOperation(
                "append to concurrent siblings",
            ))
        }
    };
    let clock = slot
        .iter()
        .fold(VectorClock::new(), |acc, v| acc.merged(&v.clock))
        .incremented(writer);
    let version = Versioned::new(clock, value);
    slot.clear();
    // A slot that held nothing has no capacity yet: a push alone would
    // reserve four versions for the one it stores.
    slot.reserve_exact(1);
    slot.push(version.clone());
    Ok(Some((version, base_len)))
}

/// Shared delete logic: drop versions `<= clock`.
pub(crate) fn slot_delete<V>(slot: &mut Vec<Versioned<V>>, clock: &VectorClock) -> bool {
    let before = slot.len();
    slot.retain(|v| {
        !matches!(
            v.clock.compare(clock),
            li_commons::clock::Occurred::Before | li_commons::clock::Occurred::Equal
        )
    });
    before != slot.len()
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Engine-agnostic conformance tests, run against every engine — the
    //! "same code interface" promise made executable.

    use super::*;
    use li_commons::clock::VectorClock;

    pub fn run_all(make: impl Fn() -> Box<dyn StorageEngine>) {
        get_empty(make());
        put_then_get(make());
        obsolete_put_rejected(make());
        concurrent_siblings_coexist(make());
        force_put_swallows_obsolete(make());
        delete_dominated_versions(make());
        delete_spares_concurrent(make());
        entries_snapshot(make());
        read_modify_write_supersedes_what_is_held(make());
    }

    fn v(clock: VectorClock, value: &str) -> Versioned<Bytes> {
        Versioned::new(clock, Bytes::copy_from_slice(value.as_bytes()))
    }

    fn get_empty(e: Box<dyn StorageEngine>) {
        assert!(e.get(b"missing").unwrap().is_empty());
        assert_eq!(e.key_count(), 0);
    }

    fn put_then_get(e: Box<dyn StorageEngine>) {
        let clock = VectorClock::with(1, 1);
        e.put(b"k", v(clock.clone(), "hello")).unwrap();
        let got = e.get(b"k").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"hello");
        assert_eq!(got[0].clock, clock);
        assert_eq!(e.key_count(), 1);
    }

    fn obsolete_put_rejected(e: Box<dyn StorageEngine>) {
        let c1 = VectorClock::with(1, 1);
        let c2 = c1.incremented(1);
        e.put(b"k", v(c2, "new")).unwrap();
        assert_eq!(
            e.put(b"k", v(c1.clone(), "old")).unwrap_err(),
            VoldemortError::ObsoleteVersion
        );
        // Equal clock is obsolete too (already written).
        let existing = e.get(b"k").unwrap()[0].clock.clone();
        assert_eq!(
            e.put(b"k", v(existing, "same")).unwrap_err(),
            VoldemortError::ObsoleteVersion
        );
    }

    fn concurrent_siblings_coexist(e: Box<dyn StorageEngine>) {
        let base = VectorClock::with(1, 1);
        e.put(b"k", v(base.clone(), "base")).unwrap();
        e.put(b"k", v(base.incremented(2), "left")).unwrap();
        e.put(b"k", v(base.incremented(3), "right")).unwrap();
        let siblings = e.get(b"k").unwrap();
        assert_eq!(siblings.len(), 2, "left/right concurrent");
        // A write descending from both collapses the set.
        let merged = siblings[0].clock.merged(&siblings[1].clock).incremented(1);
        e.put(b"k", v(merged, "resolved")).unwrap();
        let after = e.get(b"k").unwrap();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].value.as_ref(), b"resolved");
    }

    fn force_put_swallows_obsolete(e: Box<dyn StorageEngine>) {
        let c1 = VectorClock::with(1, 1);
        let c2 = c1.incremented(1);
        e.put(b"k", v(c2.clone(), "new")).unwrap();
        e.force_put(b"k", v(c1, "old")).unwrap();
        let got = e.get(b"k").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"new");
    }

    fn delete_dominated_versions(e: Box<dyn StorageEngine>) {
        let c1 = VectorClock::with(1, 1);
        e.put(b"k", v(c1.clone(), "x")).unwrap();
        assert!(e.delete(b"k", &c1).unwrap());
        assert!(e.get(b"k").unwrap().is_empty());
        assert!(!e.delete(b"k", &c1).unwrap(), "second delete is no-op");
        assert_eq!(e.key_count(), 0);
    }

    fn delete_spares_concurrent(e: Box<dyn StorageEngine>) {
        let base = VectorClock::with(1, 1);
        let left = base.incremented(2);
        let right = base.incremented(3);
        e.put(b"k", v(left.clone(), "left")).unwrap();
        e.put(b"k", v(right, "right")).unwrap();
        // Deleting at `left` removes only the left sibling.
        assert!(e.delete(b"k", &left).unwrap());
        let rest = e.get(b"k").unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].value.as_ref(), b"right");
    }

    fn read_modify_write_supersedes_what_is_held(e: Box<dyn StorageEngine>) {
        let keep = |_: &[Versioned<Bytes>]| Rewrite::Keep;
        let append = |_: &[Versioned<Bytes>]| Rewrite::Append(Bytes::from_static(b"+x"));
        assert_eq!(e.read_modify_write(b"k", 1, &keep).unwrap(), None);
        assert_eq!(e.key_count(), 0, "a declined write stores nothing");

        let first = e.read_modify_write(b"k", 1, &append).unwrap().unwrap();
        assert_eq!(first, v(VectorClock::with(1, 1), "+x"), "an append to nothing");
        let second = e.read_modify_write(b"k", 2, &append).unwrap().unwrap();
        assert_eq!(second, v(VectorClock::with(1, 1).incremented(2), "+x+x"));
        assert_eq!(e.read_modify_write(b"k", 2, &keep).unwrap(), None);
        assert_eq!(e.get(b"k").unwrap(), std::slice::from_ref(&second));

        // Two siblings: an append has no one base; a value supersedes both.
        e.put(b"k", v(VectorClock::with(3, 1), "other")).unwrap();
        let held = e.get(b"k").unwrap();
        assert_eq!(held.len(), 2);
        assert!(matches!(
            e.read_modify_write(b"k", 1, &append),
            Err(VoldemortError::UnsupportedOperation(_))
        ));
        assert_eq!(e.get(b"k").unwrap(), held, "a refused append changes nothing");
        let seen = std::cell::Cell::new(0);
        let union = |held: &[Versioned<Bytes>]| {
            seen.set(held.len());
            Rewrite::Value(Bytes::from_static(b"union"))
        };
        let merged = e.read_modify_write(b"k", 1, &union).unwrap().unwrap();
        assert_eq!(seen.get(), 2, "the closure sees every sibling");
        let stamp = second.clock.merged(&VectorClock::with(3, 1)).incremented(1);
        assert_eq!(merged, v(stamp, "union"));
        assert_eq!(e.get(b"k").unwrap(), [merged]);
    }

    fn entries_snapshot(e: Box<dyn StorageEngine>) {
        for i in (0..5).rev() {
            let key = format!("k{i}");
            e.put(key.as_bytes(), v(VectorClock::with(1, 1), "v")).unwrap();
        }
        let keys: Vec<Bytes> = e.entries().into_iter().map(|(key, _)| key).collect();
        let sorted = [&b"k0"[..], b"k1", b"k2", b"k3", b"k4"];
        assert_eq!(keys, sorted, "entries come in key order");
        assert_eq!(e.key_count(), 5);
    }
}
