//! Property tests for Voldemort's quorum coordination: with R+W>N, a
//! quorum read at either read width observes every committed write no
//! matter which replicas crashed or slowed, and after heal so does each
//! replica alone; hint and replay never resurrects an overwritten version.
//!
//! Case count defaults to 24; CI raises it with `PROPTEST_CASES=64`.

use bytes::Bytes;
use li_commons::clock::{VectorClock, Versioned};
use li_commons::ring::{HashRing, NodeId};
use li_commons::sim::{SimClock, SimNetwork};
use li_voldemort::{
    QuorumConfig, ReadFanOut, StoreClient, StoreDef, VoldemortCluster, VoldemortError,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// (node_count, N, R, W) with 1 <= R,W <= N <= node_count and R+W > N.
fn quorum_shape() -> impl Strategy<Value = (u16, usize, usize, usize)> {
    (3u16..=7)
        .prop_flat_map(|nodes| (Just(nodes), 2usize..=3))
        .prop_flat_map(|(nodes, n)| (Just(nodes), Just(n), 1usize..=n))
        .prop_flat_map(|(nodes, n, w)| {
            let r_min = (n + 1).saturating_sub(w).max(1);
            (Just(nodes), Just(n), r_min..=n, Just(w))
        })
}

fn build_cluster(
    nodes: u16,
    n: usize,
    r: usize,
    w: usize,
    clock: Arc<SimClock>,
) -> Arc<VoldemortCluster> {
    let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let ring = HashRing::balanced(16, &ids).unwrap();
    let cluster = VoldemortCluster::with_parts(ring, SimNetwork::reliable(), clock).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(n, r, w))
        .unwrap();
    cluster
}

/// Read-modify-write through `client`: merge all observed sibling clocks
/// into the base so a success reconciles and dominates what was read.
fn rmw_put(
    client: &StoreClient,
    key: &[u8],
    value: Bytes,
) -> Result<VectorClock, VoldemortError> {
    let siblings = client.get(key)?;
    let base = siblings
        .iter()
        .fold(VectorClock::new(), |acc, v| acc.merged(&v.clock));
    client.put(key, &base, value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The durability property behind R+W>N: every write the client acked
    /// is observed by a quorum read after the cluster heals — the sibling
    /// set contains a version whose clock descends from the acked clock —
    /// regardless of which replicas were crashed or slowed while writing,
    /// and regardless of which read width performs the final read.
    #[test]
    fn prop_committed_writes_visible_after_heal(
        shape in quorum_shape(),
        crash in proptest::collection::vec(0u16..7, 0..3),
        slow in proptest::collection::vec((0u16..7, 1u64..10), 0..3),
        ops in proptest::collection::vec((0u8..4, 0u8..=255), 4..28),
        crash_at in 0usize..10,
    ) {
        let (nodes, n, r, w) = shape;
        let clock = Arc::new(SimClock::new());
        let cluster = build_cluster(nodes, n, r, w, clock.clone());
        let writers = [cluster.client("s").unwrap(), cluster.client("s").unwrap()];
        let crash: Vec<NodeId> = crash
            .iter()
            .map(|&c| NodeId(c % nodes))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for &(node, ms) in &slow {
            cluster.network().set_link_latency(
                StoreClient::CLIENT_NODE,
                NodeId(node % nodes),
                Duration::from_millis(ms),
            );
        }

        // Interleaved writers; the fault set drops mid-schedule.
        let mut acked: Vec<(Vec<u8>, VectorClock)> = Vec::new();
        for (i, &(key_choice, value_byte)) in ops.iter().enumerate() {
            if i == crash_at.min(ops.len() - 1) {
                for &node in &crash {
                    cluster.network().crash(node);
                }
            }
            let key = format!("k{key_choice}").into_bytes();
            let value = Bytes::from(vec![value_byte]);
            if let Ok(write_clock) = rmw_put(&writers[i % 2], &key, value) {
                acked.push((key, write_clock));
            }
        }

        // Heal and drain the recovery machinery: restart crashed nodes,
        // readmit banned ones via probes, replay hints.
        for &node in &crash {
            cluster.network().restart(node);
        }
        cluster.network().heal_all();
        for _ in 0..50 {
            clock.advance(Duration::from_secs(6));
            cluster.run_failure_probes();
            cluster.deliver_hints();
            if cluster.pending_hints() == 0 && cluster.detector().banned_nodes().is_empty() {
                break;
            }
        }
        prop_assert_eq!(cluster.pending_hints(), 0, "hints must drain after heal");
        // Let the detector's sample window (10s) expire: failure samples
        // from the crash epoch would otherwise combine with the first
        // post-heal success to trip the ratio ban mid-verification.
        clock.advance(Duration::from_secs(30));

        // Every acked write is held by each replica alone, before any read
        // repairs it: every replica a put missed was owed a hint, delivered
        // to it after heal.
        for (key, write_clock) in &acked {
            for node in cluster.ring().preference_list(key, n).unwrap() {
                let held = cluster.node(node).unwrap().get("s", key).unwrap();
                prop_assert!(
                    held.iter().any(|v| v.clock.descends_from(write_clock)),
                    "replica {} misses an acked write (clock {:?}, holds {:?})",
                    node, write_clock, held
                );
            }
        }

        // Every acked write is observed, at every read width.
        for width in [ReadFanOut::Quorum, ReadFanOut::All] {
            let reader = cluster.client("s").unwrap().with_quorum_config(QuorumConfig {
                read_fan_out: width,
                ..QuorumConfig::default()
            });
            for (key, write_clock) in &acked {
                let siblings = reader.get(key).map_err(|e| {
                    TestCaseError::fail(format!("read of acked key failed at {width:?}: {e}"))
                })?;
                prop_assert!(
                    siblings.iter().any(|v| v.clock.descends_from(write_clock)),
                    "acked write not covered by any sibling (width {:?}, clock {:?}, got {:?})",
                    width, write_clock, siblings
                );
            }
        }
    }
}

/// Satellite: hinted-handoff replay racing a concurrent client put. The
/// hint carries the clock of the write that missed its replica; by the
/// time the replica recovers, a newer put has superseded it. Replaying
/// the hint must not resurrect the overwritten version — `deliver_hints`
/// drops it on the vector-clock obsolescence check and counts it.
#[test]
fn replayed_hint_does_not_resurrect_overwritten_version() {
    let cluster = VoldemortCluster::new(32, 4).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(2, 1, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();
    let prefs = cluster.ring().preference_list(b"k", 2).unwrap();

    // v1 while replica 1 is down: W=2 met as 1 live ack + 1 hint.
    cluster.network().crash(prefs[1]);
    let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
    assert_eq!(cluster.pending_hints(), 1);

    // Replica 1 recovers and v2 lands on the full preference list before
    // the hint replays.
    cluster.network().restart(prefs[1]);
    let c2 = client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
    let fresh = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
    assert_eq!(fresh.len(), 1);
    assert_eq!(fresh[0].clock, c2);

    // The stale hint is dropped, not delivered.
    assert_eq!(cluster.deliver_hints(), 0, "obsolete hint must not deliver");
    assert_eq!(cluster.pending_hints(), 0, "dropped hint must not re-park");
    let snapshot = cluster.metrics().snapshot();
    assert_eq!(snapshot.counter("voldemort.hints.dropped_obsolete"), Some(1));

    // The replica still holds exactly the newer version.
    let after = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
    assert_eq!(after.len(), 1, "hint replay resurrected an old version");
    assert_eq!(after[0].clock, c2);
    assert_eq!(after[0].value.as_ref(), b"v2");
}

/// Counterpart: a hint that is *concurrent* with (not dominated by) the
/// replica's current version must still deliver, surfacing as a sibling
/// for read-time resolution.
#[test]
fn concurrent_hint_still_delivers_as_sibling() {
    let cluster = VoldemortCluster::new(32, 4).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(2, 1, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();
    let prefs = cluster.ring().preference_list(b"k", 2).unwrap();

    cluster.network().crash(prefs[1]);
    let c_hint = client.put_initial(b"k", Bytes::from_static(b"A")).unwrap();
    assert_eq!(cluster.pending_hints(), 1);

    // A concurrent branch lands directly on the recovered replica: a clock
    // the hint neither descends from nor dominates.
    cluster.network().restart(prefs[1]);
    let c_other = VectorClock::new().incremented(prefs[1].0);
    assert!(!c_other.descends_from(&c_hint));
    assert!(!c_hint.descends_from(&c_other));
    cluster
        .node(prefs[1])
        .unwrap()
        .force_put("s", b"k", Versioned::new(c_other.clone(), Bytes::from_static(b"B")))
        .unwrap();

    assert_eq!(cluster.deliver_hints(), 1, "concurrent hint must deliver");
    let siblings = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
    assert_eq!(siblings.len(), 2, "hint and concurrent put must coexist");
    let snapshot = cluster.metrics().snapshot();
    // The counter is registered with the cluster but never incremented.
    assert_eq!(snapshot.counter("voldemort.hints.dropped_obsolete"), Some(0));
}
