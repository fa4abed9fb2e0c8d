//! Log-structured read-write engine — the BerkeleyDB JE analog.
//!
//! The paper's read-write stores run on "BerkeleyDB Java Edition (BDB)
//! \[OBS99\]" (§II.B). BDB JE is itself a log-structured store: every write
//! appends to a sequential log and an in-memory btree indexes the latest
//! entries. This engine reproduces that shape — sequential append on
//! write, indexed lookup on read, recovery by log replay, and periodic
//! compaction — which is what gives the paper's read-write clusters their
//! write-throughput/read-latency profile (benchmarked against the
//! read-only engine in `li-bench`).

use bytes::Bytes;
use li_commons::bufio;
use li_commons::clock::{VectorClock, Versioned};
use li_commons::varint;
use parking_lot::Mutex;
use std::collections::BTreeMap;

use super::{slot_delete, slot_put, StorageEngine};
use crate::error::VoldemortError;

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;

#[derive(Debug, Default)]
struct Inner {
    index: BTreeMap<Vec<u8>, Vec<Versioned<Bytes>>>,
    log: Vec<u8>,
}

/// Log-structured engine with an in-memory index over an append-only log.
#[derive(Debug, Default)]
pub struct BdbLikeEngine {
    inner: Mutex<Inner>,
}

fn encode_put(out: &mut Vec<u8>, key: &[u8], value: &Versioned<Bytes>) {
    out.push(OP_PUT);
    varint::write_bytes(out, key);
    value.clock.encode(out);
    varint::write_bytes(out, &value.value);
}

fn encode_delete(out: &mut Vec<u8>, key: &[u8], clock: &VectorClock) {
    out.push(OP_DELETE);
    varint::write_bytes(out, key);
    clock.encode(out);
}

impl BdbLikeEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialized log bytes (the durable artifact).
    pub fn log_bytes(&self) -> Vec<u8> {
        self.inner.lock().log.clone()
    }

    /// Current log size in bytes.
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Rebuilds an engine by replaying a log, stopping at the first torn
    /// frame (crash recovery).
    pub fn recover(log: &[u8]) -> Self {
        let engine = Self::new();
        let (frames, valid) = bufio::recover(log);
        {
            let mut inner = engine.inner.lock();
            for frame in &frames {
                let mut cursor = &frame[..];
                if cursor.is_empty() {
                    break;
                }
                let op = cursor[0];
                cursor = &cursor[1..];
                let Ok(key) = varint::read_bytes(&mut cursor) else {
                    break;
                };
                let Ok(clock) = VectorClock::decode(&mut cursor) else {
                    break;
                };
                match op {
                    OP_PUT => {
                        let Ok(value) = varint::read_bytes(&mut cursor) else {
                            break;
                        };
                        let slot = inner.index.entry(key.clone()).or_default();
                        // Replay ignores obsolescence: the log is history.
                        let _ = slot_put(slot, Versioned::new(clock, Bytes::from(value)));
                        if inner.index.get(&key).is_some_and(Vec::is_empty) {
                            inner.index.remove(&key);
                        }
                    }
                    OP_DELETE => {
                        if let Some(slot) = inner.index.get_mut(&key) {
                            slot_delete(slot, &clock);
                            if slot.is_empty() {
                                inner.index.remove(&key);
                            }
                        }
                    }
                    _ => break,
                }
            }
            inner.log = log[..valid].to_vec();
        }
        engine
    }

    /// Rewrites the log to contain only live versions, reclaiming space
    /// from superseded writes (BDB JE's cleaner).
    pub fn compact(&self) {
        let mut inner = self.inner.lock();
        let mut fresh = Vec::with_capacity(inner.log.len() / 2);
        for (key, slot) in &inner.index {
            for version in slot {
                bufio::write_frame_with(&mut fresh, |out| encode_put(out, key, version));
            }
        }
        inner.log = fresh;
    }
}

impl StorageEngine for BdbLikeEngine {
    fn get(&self, key: &[u8]) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        Ok(self.inner.lock().index.get(key).cloned().unwrap_or_default())
    }

    fn put(&self, key: &[u8], value: Versioned<Bytes>) -> Result<(), VoldemortError> {
        let mut inner = self.inner.lock();
        let slot = inner.index.entry(key.to_vec()).or_default();
        let outcome = slot_put(slot, value.clone());
        if slot.is_empty() {
            inner.index.remove(key);
        }
        if outcome.is_ok() {
            // Framed in place: the value is copied once, into the log.
            bufio::write_frame_with(&mut inner.log, |out| encode_put(out, key, &value));
        }
        outcome
    }

    fn delete(&self, key: &[u8], clock: &VectorClock) -> Result<bool, VoldemortError> {
        let mut inner = self.inner.lock();
        let Some(slot) = inner.index.get_mut(key) else {
            return Ok(false);
        };
        let removed = slot_delete(slot, clock);
        if slot.is_empty() {
            inner.index.remove(key);
        }
        if removed {
            bufio::write_frame_with(&mut inner.log, |out| encode_delete(out, key, clock));
        }
        Ok(removed)
    }

    fn entries(&self) -> Vec<(Bytes, Vec<Versioned<Bytes>>)> {
        self.inner
            .lock()
            .index
            .iter()
            .map(|(k, v)| (Bytes::copy_from_slice(k), v.clone()))
            .collect()
    }

    fn key_count(&self) -> usize {
        self.inner.lock().index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforms_to_engine_contract() {
        crate::engine::conformance::run_all(|| Box::new(BdbLikeEngine::new()));
    }

    fn versioned(n: u64, value: &str) -> Versioned<Bytes> {
        Versioned::new(VectorClock::with(1, n), Bytes::copy_from_slice(value.as_bytes()))
    }

    #[test]
    fn recovery_replays_log() {
        let engine = BdbLikeEngine::new();
        engine.put(b"a", versioned(1, "v1")).unwrap();
        engine.put(b"a", versioned(2, "v2")).unwrap();
        engine.put(b"b", versioned(1, "x")).unwrap();
        engine.delete(b"b", &VectorClock::with(1, 1)).unwrap();
        let log = engine.log_bytes();

        let recovered = BdbLikeEngine::recover(&log);
        let a = recovered.get(b"a").unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].value.as_ref(), b"v2");
        assert!(recovered.get(b"b").unwrap().is_empty());
        assert_eq!(recovered.key_count(), 1);
    }

    #[test]
    fn recovery_truncates_torn_write() {
        let engine = BdbLikeEngine::new();
        engine.put(b"a", versioned(1, "v1")).unwrap();
        let keep = engine.log_len();
        engine.put(b"b", versioned(1, "v2")).unwrap();
        let mut log = engine.log_bytes();
        log.truncate(keep + 5); // tear the second frame
        let recovered = BdbLikeEngine::recover(&log);
        assert_eq!(recovered.key_count(), 1);
        assert!(!recovered.get(b"a").unwrap().is_empty());
        assert!(recovered.get(b"b").unwrap().is_empty());
    }

    #[test]
    fn compaction_shrinks_log_preserves_data() {
        let engine = BdbLikeEngine::new();
        for i in 1..=100u64 {
            engine.put(b"hot", versioned(i, &format!("v{i}"))).unwrap();
        }
        let before = engine.log_len();
        engine.compact();
        let after = engine.log_len();
        assert!(after < before / 10, "compaction {before} -> {after}");
        // Data intact, including through recovery of the compacted log.
        let recovered = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(recovered.get(b"hot").unwrap()[0].value.as_ref(), b"v100");
    }

    #[test]
    fn obsolete_puts_do_not_pollute_log() {
        let engine = BdbLikeEngine::new();
        engine.put(b"k", versioned(5, "new")).unwrap();
        let len = engine.log_len();
        assert!(engine.put(b"k", versioned(1, "old")).is_err());
        assert_eq!(engine.log_len(), len, "rejected write not logged");
    }

    #[test]
    fn compaction_preserves_concurrent_siblings() {
        let engine = BdbLikeEngine::new();
        let base = VectorClock::with(1, 1);
        engine
            .put(b"k", Versioned::new(base.incremented(2), Bytes::from_static(b"left")))
            .unwrap();
        engine
            .put(b"k", Versioned::new(base.incremented(3), Bytes::from_static(b"right")))
            .unwrap();
        engine.compact();
        let recovered = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(recovered.get(b"k").unwrap().len(), 2, "both siblings survive");
    }

    #[test]
    fn concurrent_writers_never_corrupt_log() {
        use std::sync::Arc;
        let engine = Arc::new(BdbLikeEngine::new());
        let mut handles = Vec::new();
        for t in 0..4u16 {
            let engine = engine.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let key = format!("t{t}-k{i}");
                    engine
                        .put(
                            key.as_bytes(),
                            Versioned::new(VectorClock::with(t, 1), Bytes::from_static(b"v")),
                        )
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.key_count(), 400);
        // The log is a valid frame sequence end to end.
        let recovered = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(recovered.key_count(), 400);
    }

    #[test]
    fn writes_are_sequential_appends() {
        let engine = BdbLikeEngine::new();
        let mut last = 0;
        for i in 0..50u64 {
            engine
                .put(format!("k{i}").as_bytes(), versioned(1, "value"))
                .unwrap();
            let len = engine.log_len();
            assert!(len > last, "log only grows");
            last = len;
        }
    }
}
