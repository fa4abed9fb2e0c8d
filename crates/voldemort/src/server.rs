//! The storage node: per-store engines, hint storage, and the server-side
//! operations the coordinator dispatches.

use bytes::Bytes;
use li_commons::clock::{VectorClock, Versioned};
use li_commons::metrics::{Counter, Gauge, MetricsRegistry, MetricsScope};
use li_commons::ring::NodeId;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

use crate::engine::StorageEngine;
use crate::error::VoldemortError;

/// Per-node observability: request counts, bytes moved, hint queue depth,
/// all under the `voldemort.node<id>.` prefix of the cluster registry.
#[derive(Debug, Clone)]
struct NodeMetrics {
    gets: Counter,
    puts: Counter,
    deletes: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    hints_pending: Gauge,
}

/// `voldemort.node<id>` in `registry`: where node `id` and the engines it
/// hosts report.
pub(crate) fn node_scope(registry: &Arc<MetricsRegistry>, id: NodeId) -> MetricsScope {
    registry.scope(format!("voldemort.node{}", id.0))
}

impl NodeMetrics {
    fn new(registry: &Arc<MetricsRegistry>, id: NodeId) -> Self {
        let scope = node_scope(registry, id);
        NodeMetrics {
            gets: scope.counter("get.count"),
            puts: scope.counter("put.count"),
            deletes: scope.counter("delete.count"),
            bytes_in: scope.counter("bytes_in"),
            bytes_out: scope.counter("bytes_out"),
            hints_pending: scope.gauge("hints.pending"),
        }
    }
}

/// A write stored on a fallback node on behalf of an unreachable replica —
/// the unit of hinted handoff. "Read repair detects inconsistencies during
/// gets while hinted handoff is triggered during puts" (§II.B).
#[derive(Debug, Clone)]
pub struct Hint {
    /// Store the write belongs to.
    pub store: String,
    /// The replica that should have received it.
    pub target: NodeId,
    /// Key written.
    pub key: Bytes,
    /// The versioned value.
    pub value: Versioned<Bytes>,
}

/// One Voldemort storage node.
pub struct VoldemortNode {
    id: NodeId,
    engines: RwLock<HashMap<String, Arc<dyn StorageEngine>>>,
    hints: Mutex<Vec<Hint>>,
    metrics: NodeMetrics,
}

impl std::fmt::Debug for VoldemortNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoldemortNode")
            .field("id", &self.id)
            .field("stores", &self.engines.read().keys().collect::<Vec<_>>())
            .field("pending_hints", &self.hints.lock().len())
            .finish()
    }
}

impl VoldemortNode {
    /// Creates a standalone node with no stores, reporting into a private
    /// metrics registry. Cluster-managed nodes use
    /// [`VoldemortNode::with_metrics`] so the whole cluster shares one.
    pub fn new(id: NodeId) -> Self {
        Self::with_metrics(id, &MetricsRegistry::new())
    }

    /// Creates a node reporting under `voldemort.node<id>.` in `registry`.
    pub fn with_metrics(id: NodeId, registry: &Arc<MetricsRegistry>) -> Self {
        VoldemortNode {
            id,
            engines: RwLock::new(HashMap::new()),
            hints: Mutex::new(Vec::new()),
            metrics: NodeMetrics::new(registry, id),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Attaches an engine for `store` (admin: add store without downtime).
    pub fn add_store(
        &self,
        store: impl Into<String>,
        engine: Arc<dyn StorageEngine>,
    ) -> Result<(), VoldemortError> {
        let store = store.into();
        let mut engines = self.engines.write();
        if engines.contains_key(&store) {
            return Err(VoldemortError::DuplicateStore(store));
        }
        engines.insert(store, engine);
        Ok(())
    }

    /// Detaches a store (admin: delete store without downtime).
    pub fn remove_store(&self, store: &str) -> Result<(), VoldemortError> {
        self.engines
            .write()
            .remove(store)
            .map(|_| ())
            .ok_or_else(|| VoldemortError::UnknownStore(store.into()))
    }

    /// The engine backing `store`.
    pub fn engine(&self, store: &str) -> Result<Arc<dyn StorageEngine>, VoldemortError> {
        self.engines
            .read()
            .get(store)
            .cloned()
            .ok_or_else(|| VoldemortError::UnknownStore(store.into()))
    }

    /// Server-side get.
    pub fn get(&self, store: &str, key: &[u8]) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        self.metrics.gets.inc();
        let versions = self.engine(store)?.get(key)?;
        let bytes: usize = versions.iter().map(|v| v.value.len()).sum();
        self.metrics.bytes_out.add(bytes as u64);
        Ok(versions)
    }

    /// Server-side put (vector-clock checked).
    pub fn put(
        &self,
        store: &str,
        key: &[u8],
        value: Versioned<Bytes>,
    ) -> Result<(), VoldemortError> {
        self.metrics.puts.inc();
        self.metrics
            .bytes_in
            .add((key.len() + value.value.len()) as u64);
        self.engine(store)?.put(key, value)
    }

    /// Server-side force put (read repair / handoff replay / rebalance).
    pub fn force_put(
        &self,
        store: &str,
        key: &[u8],
        value: Versioned<Bytes>,
    ) -> Result<(), VoldemortError> {
        self.engine(store)?.force_put(key, value)
    }

    /// Server-side delete.
    pub fn delete(
        &self,
        store: &str,
        key: &[u8],
        clock: &VectorClock,
    ) -> Result<bool, VoldemortError> {
        self.metrics.deletes.inc();
        self.engine(store)?.delete(key, clock)
    }

    /// Stores a hint destined for another replica.
    pub fn store_hint(&self, hint: Hint) {
        self.hints.lock().push(hint);
        self.metrics.hints_pending.add(1);
    }

    /// Drains every parked hint regardless of target. Delivery-time
    /// routing (the current ring) decides where each one lands, so hints
    /// survive a partition moving out from under their original target.
    pub fn take_all_hints(&self) -> Vec<Hint> {
        let mut hints = self.hints.lock();
        let drained: Vec<Hint> = hints.drain(..).collect();
        self.metrics.hints_pending.sub(drained.len() as i64);
        drained
    }

    /// Number of hints currently parked on this node.
    pub fn hint_count(&self) -> usize {
        self.hints.lock().len()
    }

    /// Liveness probe (the async recovery thread's contact attempt).
    pub fn ping(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MemoryEngine;

    fn node_with_store() -> VoldemortNode {
        let node = VoldemortNode::new(NodeId(1));
        node.add_store("s", Arc::new(MemoryEngine::new())).unwrap();
        node
    }

    #[test]
    fn store_lifecycle() {
        let node = node_with_store();
        assert!(matches!(
            node.add_store("s", Arc::new(MemoryEngine::new())),
            Err(VoldemortError::DuplicateStore(_))
        ));
        node.remove_store("s").unwrap();
        assert!(matches!(
            node.get("s", b"k"),
            Err(VoldemortError::UnknownStore(_))
        ));
        assert!(matches!(
            node.remove_store("s"),
            Err(VoldemortError::UnknownStore(_))
        ));
    }

    #[test]
    fn ops_pass_through_to_engine() {
        let node = node_with_store();
        let clock = VectorClock::with(1, 1);
        node.put("s", b"k", Versioned::new(clock.clone(), Bytes::from_static(b"v")))
            .unwrap();
        assert_eq!(node.get("s", b"k").unwrap().len(), 1);
        assert!(node.delete("s", b"k", &clock).unwrap());
        assert!(node.get("s", b"k").unwrap().is_empty());
    }

    #[test]
    fn take_all_hints_drains_every_target() {
        let node = node_with_store();
        for target in [2u16, 3, 2] {
            node.store_hint(Hint {
                store: "s".into(),
                target: NodeId(target),
                key: Bytes::from_static(b"k"),
                value: Versioned::initial(Bytes::from_static(b"v")),
            });
        }
        assert_eq!(node.hint_count(), 3);
        let targets: Vec<u16> = node.take_all_hints().iter().map(|h| h.target.0).collect();
        assert_eq!(targets, [2, 3, 2]);
        assert_eq!(node.hint_count(), 0);
        assert!(node.take_all_hints().is_empty());
    }
}
