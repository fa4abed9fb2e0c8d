//! Volatile in-memory engine.

use bytes::Bytes;
use li_commons::clock::{VectorClock, Versioned, WriterId};
use parking_lot::RwLock;
use std::collections::BTreeMap;

use super::{slot_delete, slot_put, slot_rewrite, Rewrite, StorageEngine};
use crate::error::VoldemortError;

/// A BTreeMap-backed engine: the simplest conforming implementation, used
/// for caches, tests, and as the mock the paper's pluggable design calls
/// for. It stays ordered on purpose: it is the reference whose key order
/// `tests/voldemort_engine_props.rs` holds the hashed BDB engine's
/// `entries()` to.
#[derive(Debug, Default)]
pub struct MemoryEngine {
    map: RwLock<BTreeMap<Vec<u8>, Vec<Versioned<Bytes>>>>,
}

impl MemoryEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageEngine for MemoryEngine {
    fn get(&self, key: &[u8]) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        Ok(self.map.read().get(key).cloned().unwrap_or_default())
    }

    fn put(&self, key: &[u8], value: Versioned<Bytes>) -> Result<(), VoldemortError> {
        let mut map = self.map.write();
        let slot = map.entry(key.to_vec()).or_default();
        let result = slot_put(slot, value);
        if slot.is_empty() {
            map.remove(key);
        }
        result
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        writer: WriterId,
        rewrite: &dyn Fn(&[Versioned<Bytes>]) -> Rewrite,
    ) -> Result<Option<Versioned<Bytes>>, VoldemortError> {
        let mut map = self.map.write();
        let slot = map.entry(key.to_vec()).or_default();
        let result = slot_rewrite(slot, writer, rewrite);
        if slot.is_empty() {
            map.remove(key);
        }
        result.map(|stored| stored.map(|(version, _)| version))
    }

    fn delete(&self, key: &[u8], clock: &VectorClock) -> Result<bool, VoldemortError> {
        let mut map = self.map.write();
        let Some(slot) = map.get_mut(key) else {
            return Ok(false);
        };
        let removed = slot_delete(slot, clock);
        if slot.is_empty() {
            map.remove(key);
        }
        Ok(removed)
    }

    fn entries(&self) -> Vec<(Bytes, Vec<Versioned<Bytes>>)> {
        self.map
            .read()
            .iter()
            .map(|(k, v)| (Bytes::copy_from_slice(k), v.clone()))
            .collect()
    }

    fn key_count(&self) -> usize {
        self.map.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforms_to_engine_contract() {
        crate::engine::conformance::run_all(|| Box::new(MemoryEngine::new()));
    }
}
