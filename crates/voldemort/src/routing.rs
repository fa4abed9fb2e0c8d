//! Routing: O(1) full-topology consistent hashing.
//!
//! "Unlike previous DHT work (like Chord), \[Voldemort\] has been designed to
//! have relatively low node membership churn ... This lets us store the
//! complete topology metadata on every node instead of partial 'finger
//! tables' as in Chord, thereby decreasing lookups from O(log N) to O(1)"
//! (§II.A). The `routing` benchmark regenerates that comparison against a
//! finger-table overlay kept in the bench crate.

use li_commons::ring::{HashRing, NodeId, PartitionId, RingError};
use parking_lot::RwLock;

use crate::error::VoldemortError;
use crate::store::StoreDef;

/// Every ring partition's preference list under one replication shape.
#[derive(Debug)]
struct PreferenceTable {
    /// `(replication, zones_required)`.
    shape: (usize, usize),
    /// Indexed by master partition.
    lists: Vec<Result<Vec<NodeId>, RingError>>,
}

/// The production router: a full [`HashRing`] replica of the topology.
/// Lookup is a hash plus an index into a table of preference lists, one
/// per ring partition, computed the first time a store shape routes and
/// kept until the topology changes — no network hops, and no ring walk
/// per request.
#[derive(Debug)]
pub struct Router {
    ring: HashRing,
    /// One table per `(replication, zones_required)` routed since the last
    /// topology change.
    tables: RwLock<Vec<PreferenceTable>>,
}

impl Router {
    /// Wraps a topology.
    pub fn new(ring: HashRing) -> Self {
        Router {
            ring,
            tables: RwLock::new(Vec::new()),
        }
    }

    /// The topology.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Mutable topology access (admin/rebalance only). The preference
    /// tables are dropped: the next route recomputes them from the changed
    /// ring.
    pub fn ring_mut(&mut self) -> &mut HashRing {
        self.tables.write().clear();
        &mut self.ring
    }

    /// Preference list for `key` under `store`'s replication and zone
    /// configuration: the nodes that should hold its replicas, master
    /// first.
    pub fn route(&self, store: &StoreDef, key: &[u8]) -> Result<Vec<NodeId>, VoldemortError> {
        let shape = (store.replication, store.zones_required);
        let at = self.ring.master_partition(key).0 as usize;
        let list = |table: &PreferenceTable| table.lists[at].clone().map_err(VoldemortError::from);
        if let Some(table) = self.tables.read().iter().find(|t| t.shape == shape) {
            return list(table);
        }
        let mut tables = self.tables.write();
        if let Some(table) = tables.iter().find(|t| t.shape == shape) {
            return list(table);
        }
        let lists = (0..self.ring.num_partitions())
            .map(|p| self.ring.partition_preference_list(PartitionId(p), shape.0, shape.1))
            .collect();
        let table = PreferenceTable { shape, lists };
        let routed = list(&table);
        tables.push(table);
        routed
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

    #[test]
    fn cached_routes_follow_the_ring_across_a_topology_change() {
        let mut router = Router::new(HashRing::balanced(16, &node_ids(4)).unwrap());
        let stores = [
            StoreDef::read_write("two"),
            StoreDef::read_write("three").with_quorum(3, 2, 2),
            StoreDef::read_write("five").with_quorum(5, 1, 1),
        ];
        let keys: Vec<String> = (0..200).map(|i| format!("member:{i}")).collect();
        let agree = |router: &Router| {
            for store in &stores {
                for key in &keys {
                    let ring = router.ring().preference_list(key.as_bytes(), store.replication);
                    let routed = router.route(store, key.as_bytes());
                    assert_eq!(routed, ring.map_err(VoldemortError::from), "{} {key}", store.name);
                }
            }
        };
        agree(&router);
        router.ring_mut().add_node(NodeId(4), li_commons::ring::ZoneId(0));
        for (partition, _, to) in router.ring().plan_rebalance(NodeId(4)) {
            router.ring_mut().reassign(partition, to).unwrap();
        }
        assert!(!router.ring().partitions_of(NodeId(4)).is_empty());
        agree(&router);
    }
}
