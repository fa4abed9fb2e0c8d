//! A Chord-style O(log N) finger-table overlay: the routing baseline of
//! C-4 (`benches/routing.rs`).
//!
//! "Unlike previous DHT work (like Chord), \[Voldemort\] has been designed to
//! have relatively low node membership churn ... This lets us store the
//! complete topology metadata on every node instead of partial 'finger
//! tables' as in Chord, thereby decreasing lookups from O(log N) to O(1)"
//! (§II.A). [`ChordBaseline`] counts the hops a finger-table lookup would
//! take.

use li_commons::fnv::fnv1a;
use li_commons::ring::NodeId;

/// A Chord node's routing state: its id and finger table.
#[derive(Debug, Clone)]
struct ChordNode {
    id: u64,
    /// finger\[i\] = index (into the sorted node list) of successor(id + 2^i).
    fingers: Vec<usize>,
}

/// Simulated Chord overlay for the routing baseline. Nodes sit on a 2^64
/// identifier circle; each knows only O(log N) fingers, so a lookup hops
/// from node to node. [`ChordBaseline::lookup`] returns the owning node and
/// the number of routing hops taken — each hop would be a network RPC in a
/// real deployment.
#[derive(Debug, Clone)]
pub struct ChordBaseline {
    /// Sorted by id.
    nodes: Vec<ChordNode>,
}

impl ChordBaseline {
    /// Builds an overlay of `node_ids` hashed onto the identifier circle.
    pub fn new(node_ids: &[NodeId]) -> Self {
        assert!(!node_ids.is_empty(), "chord ring needs nodes");
        let mut ids: Vec<u64> = node_ids
            .iter()
            .map(|n| fnv1a(format!("chord-node-{}", n.0).as_bytes()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let nodes: Vec<ChordNode> = ids
            .iter()
            .map(|&id| ChordNode {
                id,
                fingers: Vec::new(),
            })
            .collect();
        let mut ring = ChordBaseline { nodes };
        let fingers: Vec<Vec<usize>> = ring
            .nodes
            .iter()
            .map(|node| {
                (0..64)
                    .map(|i| ring.successor_index(node.id.wrapping_add(1u64 << i)))
                    .collect()
            })
            .collect();
        for (node, f) in ring.nodes.iter_mut().zip(fingers) {
            node.fingers = f;
        }
        ring
    }

    /// Index of the first node with id >= `target` (wrapping).
    fn successor_index(&self, target: u64) -> usize {
        match self.nodes.binary_search_by(|n| n.id.cmp(&target)) {
            Ok(idx) => idx,
            Err(idx) => idx % self.nodes.len(),
        }
    }

    /// True when `x` lies in the half-open arc (a, b] on the circle.
    fn in_arc(a: u64, x: u64, b: u64) -> bool {
        if a < b {
            x > a && x <= b
        } else {
            // wrapped arc
            x > a || x <= b
        }
    }

    /// Routes a lookup for `key` starting at node index `start`, returning
    /// `(owner_index, hops)`. Each hop models one RPC to a remote node's
    /// routing table.
    pub fn lookup_from(&self, start: usize, key: &[u8]) -> (usize, u32) {
        let target = fnv1a(key);
        let n = self.nodes.len();
        if n == 1 {
            return (0, 0);
        }
        let mut current = start % n;
        let mut hops = 0u32;
        loop {
            let node = &self.nodes[current];
            let successor = (current + 1) % n;
            if Self::in_arc(node.id, target, self.nodes[successor].id) {
                // One final hop to the owner.
                return (successor, hops + 1);
            }
            // Closest preceding finger of target.
            let mut next = current;
            for &finger in node.fingers.iter().rev() {
                if finger != current && Self::in_arc(node.id, self.nodes[finger].id, target.wrapping_sub(1)) {
                    next = finger;
                    break;
                }
            }
            if next == current {
                next = successor;
            }
            current = next;
            hops += 1;
            debug_assert!(hops as usize <= 2 * n, "lookup must terminate");
        }
    }

    /// Convenience: lookup starting from a deterministic node derived from
    /// the key (models a random entry point).
    pub fn lookup(&self, key: &[u8]) -> (usize, u32) {
        let start = (fnv1a(key) >> 32) as usize % self.nodes.len();
        self.lookup_from(start, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_ids(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn chord_lookup_agrees_with_successor_definition() {
        let chord = ChordBaseline::new(&node_ids(32));
        for i in 0..200 {
            let key = format!("key-{i}");
            let (owner, hops) = chord.lookup(key.as_bytes());
            let expected = chord.successor_index(fnv1a(key.as_bytes()));
            assert_eq!(owner, expected, "key {i}");
            assert!(hops >= 1);
        }
    }

    #[test]
    fn chord_hops_scale_logarithmically() {
        let mut avg_hops = Vec::new();
        for &n in &[8u16, 64, 512] {
            let chord = ChordBaseline::new(&node_ids(n));
            let total: u32 = (0..500)
                .map(|i| chord.lookup(format!("k{i}").as_bytes()).1)
                .sum();
            avg_hops.push(total as f64 / 500.0);
        }
        // More nodes -> more hops, but sublinearly (log-ish).
        assert!(avg_hops[1] > avg_hops[0]);
        assert!(avg_hops[2] > avg_hops[1]);
        assert!(
            avg_hops[2] < avg_hops[0] * 8.0,
            "512 nodes should not cost 64x the hops of 8 nodes: {avg_hops:?}"
        );
        // O(log N): ~log2(512)=9ish upper ballpark.
        assert!(avg_hops[2] <= 16.0, "avg hops {avg_hops:?}");
    }

    #[test]
    fn chord_single_node_zero_hops() {
        let chord = ChordBaseline::new(&node_ids(1));
        assert_eq!(chord.lookup(b"k"), (0, 0));
    }

    #[test]
    fn chord_lookup_deterministic_for_key() {
        let chord = ChordBaseline::new(&node_ids(16));
        let a = chord.lookup(b"stable-key");
        let b = chord.lookup(b"stable-key");
        assert_eq!(a, b);
    }
}
