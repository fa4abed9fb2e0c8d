//! Routing: O(1) full-topology consistent hashing.
//!
//! "Unlike previous DHT work (like Chord), \[Voldemort\] has been designed to
//! have relatively low node membership churn ... This lets us store the
//! complete topology metadata on every node instead of partial 'finger
//! tables' as in Chord, thereby decreasing lookups from O(log N) to O(1)"
//! (§II.A). The `routing` benchmark regenerates that comparison against a
//! finger-table overlay kept in the bench crate.

use li_commons::ring::{HashRing, NodeId};

use crate::error::VoldemortError;
use crate::store::StoreDef;

/// The production router: a full [`HashRing`] replica of the topology.
/// Lookup is a hash plus a bounded ring walk — no network hops.
#[derive(Debug, Clone)]
pub struct Router {
    ring: HashRing,
}

impl Router {
    /// Wraps a topology.
    pub fn new(ring: HashRing) -> Self {
        Router { ring }
    }

    /// The topology.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Mutable topology access (admin/rebalance only).
    pub fn ring_mut(&mut self) -> &mut HashRing {
        &mut self.ring
    }

    /// Preference list for `key` under `store`'s replication and zone
    /// configuration: the nodes that should hold its replicas, master
    /// first.
    pub fn route(&self, store: &StoreDef, key: &[u8]) -> Result<Vec<NodeId>, VoldemortError> {
        Ok(self.ring.preference_list_zoned(
            key,
            store.replication,
            store.zones_required,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreDef;

    fn node_ids(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn router_respects_store_replication() {
        let ring = HashRing::balanced(32, &node_ids(4)).unwrap();
        let router = Router::new(ring);
        let store = StoreDef::read_write("s").with_quorum(3, 2, 2);
        let prefs = router.route(&store, b"member:1").unwrap();
        assert_eq!(prefs.len(), 3);
    }
}
