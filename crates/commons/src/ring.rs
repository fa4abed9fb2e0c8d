//! Consistent hashing over fixed logical partitions, with zones.
//!
//! Paper §II.B (Routing): "Keys ... are hashed to a hash ring — a
//! representation of the key space split into equal sized logical
//! partitions. Every node in a cluster is then responsible for a certain
//! set of partitions. ... A key is hashed to a logical partition, after
//! which we jump the ring till we find N-1 other partitions on different
//! nodes to store the replicas. This non-order preserving partitioning
//! scheme prevents formation of hot spots."
//!
//! The zoned variant reproduces the multi-datacenter extension: "We group
//! co-located nodes into logical clusters called 'zones' ... The routing
//! algorithm now jumps the consistent hash ring with an extra constraint to
//! satisfy number of zones required for the request."
//!
//! Because the full topology is static metadata held by every node (unlike
//! Chord's partial finger tables), a lookup is O(1) hash + O(ring walk)
//! with no network hops — the paper's headline routing claim, benchmarked
//! against a Chord baseline in `li-bench`.

use serde::{get_field, object, DeError, Deserialize, JsonKey, JsonValue, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::fnv::fnv1a;

/// Identifier of a physical node in a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

/// Identifier of a logical partition on the hash ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

/// Identifier of a zone (a co-located group of nodes, e.g. a datacenter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ZoneId(pub u8);

/// The id newtypes serialize as their bare integers (and as decimal
/// strings when used as JSON object keys), matching serde's newtype and
/// integer-key behavior.
macro_rules! id_serde {
    ($($id:ident($inner:ty)),*) => {$(
        impl Serialize for $id {
            fn to_json_value(&self) -> JsonValue {
                self.0.to_json_value()
            }
        }
        impl Deserialize for $id {
            fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
                <$inner>::from_json_value(value).map($id)
            }
        }
        impl JsonKey for $id {
            fn to_key(&self) -> String {
                self.0.to_string()
            }
            fn from_key(key: &str) -> Result<Self, DeError> {
                <$inner>::from_key(key).map($id)
            }
        }
    )*};
}

id_serde!(NodeId(u16), PartitionId(u32), ZoneId(u8));

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone-{}", self.0)
    }
}

/// Errors from ring construction or lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// The ring has no partitions.
    Empty,
    /// A partition id is out of range or assigned twice / not at all.
    BadAssignment(String),
    /// The replication request cannot be satisfied by the topology
    /// (e.g. more replicas than distinct nodes, or more zones than exist).
    Unsatisfiable(String),
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::Empty => write!(f, "ring has no partitions"),
            RingError::BadAssignment(msg) => write!(f, "bad partition assignment: {msg}"),
            RingError::Unsatisfiable(msg) => write!(f, "unsatisfiable replication: {msg}"),
        }
    }
}

impl std::error::Error for RingError {}

/// The full cluster topology: every partition's owner and every node's zone.
///
/// Cloneable and cheap to share; Voldemort replicates this to every node
/// and every client ("we store the complete topology metadata on every
/// node").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `owner[p]` is the node owning logical partition `p`.
    owner: Vec<NodeId>,
    /// Zone of each node.
    zones: BTreeMap<NodeId, ZoneId>,
    /// Cached count of distinct zones (lookups are O(1), per the paper's
    /// routing claim — nothing on the request path may scan the topology).
    zone_count: usize,
}

impl Serialize for HashRing {
    fn to_json_value(&self) -> JsonValue {
        object(vec![
            ("owner", self.owner.to_json_value()),
            ("zones", self.zones.to_json_value()),
            ("zone_count", self.zone_count.to_json_value()),
        ])
    }
}

impl Deserialize for HashRing {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        Ok(HashRing {
            owner: get_field(value, "owner")?,
            zones: get_field(value, "zones")?,
            zone_count: get_field(value, "zone_count")?,
        })
    }
}

/// Counts distinct zones (admin-time only; the request path reads the
/// cached value).
fn count_zones(zones: &BTreeMap<NodeId, ZoneId>) -> usize {
    let mut words = [0u64; 4];
    let mut count = 0usize;
    for zone in zones.values() {
        let idx = (zone.0 >> 6) as usize;
        let bit = 1u64 << (zone.0 & 63);
        if words[idx] & bit == 0 {
            words[idx] |= bit;
            count += 1;
        }
    }
    count
}

impl HashRing {
    /// Builds a ring of `num_partitions` logical partitions distributed
    /// round-robin over `nodes` (all in [`ZoneId`] 0). Round-robin placement
    /// guarantees that walking consecutive partitions visits distinct nodes
    /// quickly, matching Voldemort's default cluster generator.
    pub fn balanced(num_partitions: u32, nodes: &[NodeId]) -> Result<Self, RingError> {
        if num_partitions == 0 || nodes.is_empty() {
            return Err(RingError::Empty);
        }
        let owner = (0..num_partitions)
            .map(|p| nodes[(p as usize) % nodes.len()])
            .collect();
        let zones: BTreeMap<NodeId, ZoneId> = nodes.iter().map(|&n| (n, ZoneId(0))).collect();
        let zone_count = count_zones(&zones);
        Ok(HashRing { owner, zones, zone_count })
    }

    /// Builds a zoned ring: `layout` maps each node to its zone; partitions
    /// are dealt round-robin across nodes interleaved by zone so replicas
    /// of consecutive partitions naturally spread across zones.
    pub fn zoned(num_partitions: u32, layout: &[(NodeId, ZoneId)]) -> Result<Self, RingError> {
        if num_partitions == 0 || layout.is_empty() {
            return Err(RingError::Empty);
        }
        // Interleave zones: z0n0, z1n0, z0n1, z1n1, ...
        let mut by_zone: BTreeMap<ZoneId, Vec<NodeId>> = BTreeMap::new();
        for &(node, zone) in layout {
            by_zone.entry(zone).or_default().push(node);
        }
        let max_len = by_zone.values().map(Vec::len).max().unwrap_or(0);
        let mut order = Vec::with_capacity(layout.len());
        for i in 0..max_len {
            for nodes in by_zone.values() {
                if let Some(&n) = nodes.get(i) {
                    order.push(n);
                }
            }
        }
        let owner = (0..num_partitions)
            .map(|p| order[(p as usize) % order.len()])
            .collect();
        let zones: BTreeMap<NodeId, ZoneId> = layout.iter().copied().collect();
        let zone_count = count_zones(&zones);
        Ok(HashRing { owner, zones, zone_count })
    }

    /// Number of logical partitions on the ring.
    pub fn num_partitions(&self) -> u32 {
        self.owner.len() as u32
    }

    /// All node ids present in the topology, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.zones.keys().copied().collect()
    }

    /// Owner of logical partition `partition`.
    pub fn owner_of(&self, partition: PartitionId) -> NodeId {
        self.owner[partition.0 as usize % self.owner.len()]
    }

    /// Partitions owned by `node`, in ring order.
    pub fn partitions_of(&self, node: NodeId) -> Vec<PartitionId> {
        self.owner
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == node)
            .map(|(p, _)| PartitionId(p as u32))
            .collect()
    }

    /// Hashes `key` to its master logical partition.
    pub fn master_partition(&self, key: &[u8]) -> PartitionId {
        PartitionId((fnv1a(key) % self.owner.len() as u64) as u32)
    }

    /// Computes the replica partition list for `partition`: the partition
    /// itself plus the next `n - 1` partitions (walking the ring) that live
    /// on nodes not already chosen.
    pub fn replica_partitions(
        &self,
        partition: PartitionId,
        n: usize,
    ) -> Result<Vec<PartitionId>, RingError> {
        self.replica_partitions_zoned(partition, n, 1)
    }

    /// Zone-aware replica selection: in addition to distinct nodes, the
    /// first `zones_required` replicas must cover that many distinct zones.
    fn replica_partitions_zoned(
        &self,
        partition: PartitionId,
        n: usize,
        zones_required: usize,
    ) -> Result<Vec<PartitionId>, RingError> {
        let parts = self.owner.len();
        let start = partition.0 as usize % parts;
        let mut chosen = Vec::with_capacity(n);
        let mut chosen_nodes = Vec::with_capacity(n);
        let mut chosen_zones = Vec::with_capacity(n);

        let distinct_nodes = self.zones.len();
        let distinct_zones = self.zone_count;
        if n > distinct_nodes {
            return Err(RingError::Unsatisfiable(format!(
                "need {n} replicas but only {distinct_nodes} nodes"
            )));
        }
        if zones_required > distinct_zones {
            return Err(RingError::Unsatisfiable(format!(
                "need {zones_required} zones but only {distinct_zones} exist"
            )));
        }

        // First pass: walk the ring preferring new zones until the zone
        // constraint is met, then any new node.
        for step in 0..parts {
            if chosen.len() == n {
                break;
            }
            let p = (start + step) % parts;
            let node = self.owner[p];
            if chosen_nodes.contains(&node) {
                continue;
            }
            let zone = self.zones[&node];
            let zones_missing = zones_required.saturating_sub(chosen_zones.len());
            let replicas_left = n - chosen.len();
            // If we still owe distinct zones and picking a repeat zone would
            // make the constraint impossible to satisfy with the slots left,
            // skip this partition.
            if chosen_zones.contains(&zone) && zones_missing >= replicas_left {
                continue;
            }
            chosen.push(PartitionId(p as u32));
            chosen_nodes.push(node);
            if !chosen_zones.contains(&zone) {
                chosen_zones.push(zone);
            }
        }
        if chosen.len() < n {
            return Err(RingError::Unsatisfiable(format!(
                "found only {} of {n} replicas with {zones_required} zones",
                chosen.len()
            )));
        }
        Ok(chosen)
    }

    /// Full preference list for `key`: the nodes (in priority order) that
    /// should hold its `n` replicas.
    pub fn preference_list(&self, key: &[u8], n: usize) -> Result<Vec<NodeId>, RingError> {
        self.preference_list_zoned(key, n, 1)
    }

    /// Zone-aware preference list (multi-datacenter routing).
    pub fn preference_list_zoned(
        &self,
        key: &[u8],
        n: usize,
        zones_required: usize,
    ) -> Result<Vec<NodeId>, RingError> {
        self.partition_preference_list(self.master_partition(key), n, zones_required)
    }

    /// The preference list of every key whose master partition is
    /// `partition`: what a router may compute once per topology.
    pub fn partition_preference_list(
        &self,
        partition: PartitionId,
        n: usize,
        zones_required: usize,
    ) -> Result<Vec<NodeId>, RingError> {
        Ok(self
            .replica_partitions_zoned(partition, n, zones_required)?
            .into_iter()
            .map(|p| self.owner_of(p))
            .collect())
    }

    /// Reassigns `partition` to `new_owner` (rebalancing primitive). The
    /// new owner inherits the partition; zone membership must already be
    /// known.
    pub fn reassign(&mut self, partition: PartitionId, new_owner: NodeId) -> Result<(), RingError> {
        if !self.zones.contains_key(&new_owner) {
            return Err(RingError::BadAssignment(format!(
                "{new_owner} not in topology; call add_node first"
            )));
        }
        let idx = partition.0 as usize;
        if idx >= self.owner.len() {
            return Err(RingError::BadAssignment(format!(
                "partition {partition} out of range"
            )));
        }
        self.owner[idx] = new_owner;
        Ok(())
    }

    /// Adds a node (with its zone) to the topology without assigning it any
    /// partitions yet.
    pub fn add_node(&mut self, node: NodeId, zone: ZoneId) {
        self.zones.insert(node, zone);
        self.zone_count = count_zones(&self.zones);
    }

    /// Plans a minimal-move rebalance that brings a newly added `new_node`
    /// up to its fair share of partitions: steals `ceil(P / (nodes))`
    /// partitions, always from the currently most-loaded node. Returns the
    /// list of `(partition, from, to)` moves; the caller (Voldemort's admin
    /// service) executes them one at a time with request redirection.
    pub fn plan_rebalance(&self, new_node: NodeId) -> Vec<(PartitionId, NodeId, NodeId)> {
        let parts = self.owner.len();
        let mut load: BTreeMap<NodeId, Vec<PartitionId>> = BTreeMap::new();
        for (p, &node) in self.owner.iter().enumerate() {
            load.entry(node).or_default().push(PartitionId(p as u32));
        }
        load.entry(new_node).or_default();
        let fair = parts / load.len();
        let mut moves = Vec::new();
        let mut new_count = load.get(&new_node).map_or(0, Vec::len);
        while new_count < fair {
            // Steal from the most loaded node.
            let (&donor, _) = match load
                .iter()
                .filter(|(&n, ps)| n != new_node && !ps.is_empty())
                .max_by_key(|(_, ps)| ps.len())
            {
                Some(entry) => entry,
                None => break,
            };
            let donor_parts = load.get_mut(&donor).expect("donor exists");
            let partition = donor_parts.pop().expect("non-empty");
            moves.push((partition, donor, new_node));
            new_count += 1;
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn balanced_ring_distributes_evenly() {
        let ring = HashRing::balanced(32, &nodes(4)).unwrap();
        for node in ring.nodes() {
            assert_eq!(ring.partitions_of(node).len(), 8);
        }
    }

    #[test]
    fn empty_inputs_rejected() {
        assert_eq!(HashRing::balanced(0, &nodes(2)), Err(RingError::Empty));
        assert_eq!(HashRing::balanced(8, &[]), Err(RingError::Empty));
    }

    #[test]
    fn preference_list_has_distinct_nodes() {
        let ring = HashRing::balanced(64, &nodes(8)).unwrap();
        let prefs = ring.preference_list(b"member:42", 3).unwrap();
        assert_eq!(prefs.len(), 3);
        let mut sorted = prefs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "replicas must be on distinct nodes");
    }

    #[test]
    fn first_preference_is_master_partition_owner() {
        let ring = HashRing::balanced(64, &nodes(8)).unwrap();
        let key = b"member:42";
        let master = ring.master_partition(key);
        assert_eq!(ring.preference_list(key, 3).unwrap()[0], ring.owner_of(master));
    }

    #[test]
    fn too_many_replicas_is_unsatisfiable() {
        let ring = HashRing::balanced(8, &nodes(2)).unwrap();
        assert!(matches!(
            ring.preference_list(b"k", 3),
            Err(RingError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn zoned_preference_spans_zones() {
        // 2 zones x 4 nodes, like the paper's two-datacenter deployments.
        let layout: Vec<(NodeId, ZoneId)> = (0..8)
            .map(|i| (NodeId(i), ZoneId((i % 2) as u8)))
            .collect();
        let ring = HashRing::zoned(64, &layout).unwrap();
        for i in 0..100 {
            let key = format!("member:{i}");
            let prefs = ring.preference_list_zoned(key.as_bytes(), 3, 2).unwrap();
            let mut zones: Vec<ZoneId> =
                prefs.iter().map(|&n| ZoneId((n.0 % 2) as u8)).collect();
            zones.sort_unstable();
            zones.dedup();
            assert!(zones.len() >= 2, "key {i} replicas all in one zone");
        }
    }

    #[test]
    fn zone_constraint_beyond_topology_fails() {
        let ring = HashRing::balanced(8, &nodes(4)).unwrap();
        assert!(matches!(
            ring.preference_list_zoned(b"k", 2, 2),
            Err(RingError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn rebalance_plan_reaches_fair_share_with_minimal_moves() {
        let mut ring = HashRing::balanced(32, &nodes(4)).unwrap();
        let newbie = NodeId(4);
        ring.add_node(newbie, ZoneId(0));
        let moves = ring.plan_rebalance(newbie);
        // fair share = 32/5 = 6 (floor); exactly that many moves.
        assert_eq!(moves.len(), 6);
        for &(p, from, to) in &moves {
            assert_eq!(to, newbie);
            assert_eq!(ring.owner_of(p), from);
            ring.reassign(p, to).unwrap();
        }
        assert_eq!(ring.partitions_of(newbie).len(), 6);
        // Donors stay near fair share.
        for node in nodes(4) {
            let count = ring.partitions_of(node).len();
            assert!((6..=8).contains(&count), "{node} has {count}");
        }
    }

    #[test]
    fn reassign_unknown_node_rejected() {
        let mut ring = HashRing::balanced(8, &nodes(2)).unwrap();
        assert!(ring.reassign(PartitionId(0), NodeId(99)).is_err());
    }

    #[test]
    fn keys_spread_without_hot_spots() {
        let ring = HashRing::balanced(32, &nodes(4)).unwrap();
        let mut counts = BTreeMap::new();
        for i in 0..40_000 {
            let key = format!("member:{i}");
            let node = ring.preference_list(key.as_bytes(), 1).unwrap()[0];
            *counts.entry(node).or_insert(0usize) += 1;
        }
        for (&node, &count) in &counts {
            assert!(
                (5_000..=15_000).contains(&count),
                "{node} has hot/cold spot: {count}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_replica_lists_valid(
            parts in 1u32..128,
            node_count in 1u16..16,
            key in proptest::collection::vec(any::<u8>(), 0..32),
            n in 1usize..4,
        ) {
            let ring = HashRing::balanced(parts, &nodes(node_count)).unwrap();
            match ring.preference_list(&key, n) {
                Ok(prefs) => {
                    prop_assert_eq!(prefs.len(), n);
                    let mut unique = prefs.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    prop_assert_eq!(unique.len(), n);
                }
                Err(RingError::Unsatisfiable(_)) => {
                    // Only acceptable when the topology genuinely can't:
                    // fewer distinct nodes than n. Note a ring with fewer
                    // partitions than nodes exposes only `parts` nodes.
                    let reachable = (node_count as u32).min(parts) as usize;
                    prop_assert!(n > reachable);
                }
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            }
        }

        #[test]
        fn prop_same_key_same_list(
            key in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let ring = HashRing::balanced(64, &nodes(8)).unwrap();
            let a = ring.preference_list(&key, 3).unwrap();
            let b = ring.preference_list(&key, 3).unwrap();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_rebalance_only_moves_to_new_node(node_count in 2u16..12) {
            let mut ring = HashRing::balanced(48, &nodes(node_count)).unwrap();
            let newbie = NodeId(node_count);
            ring.add_node(newbie, ZoneId(0));
            let moves = ring.plan_rebalance(newbie);
            let fair = 48 / (node_count as usize + 1);
            prop_assert_eq!(moves.len(), fair);
            for (_, from, to) in moves {
                prop_assert_eq!(to, newbie);
                prop_assert!(from != newbie);
            }
        }
    }
}
