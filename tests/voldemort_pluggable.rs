//! Figure II.1/II.2 integration tests: the pluggable architecture, the
//! client API contract, zone-aware routing (C-5), and the full read-only
//! data cycle (F-II.3) — all through the public crate APIs.

use bytes::Bytes;
use li_commons::clock::{VectorClock, Versioned};
use li_commons::ring::NodeId;
use li_voldemort::readonly::{ReadOnlyBuilder, ScratchDir};
use li_voldemort::{EngineKind, Rewrite, StoreDef, Transform, VoldemortCluster, VoldemortError};
use std::sync::Arc;

/// The same client-visible behaviour must hold over any engine — the
/// "interchange modules" promise of the pluggable architecture.
#[test]
fn client_semantics_identical_across_engines() {
    for engine in [EngineKind::Memory, EngineKind::BdbLike] {
        let cluster = VoldemortCluster::new(16, 3).unwrap();
        cluster
            .add_store(StoreDef::read_write("s").with_quorum(2, 2, 2).with_engine(engine))
            .unwrap();
        let client = cluster.client("s").unwrap();

        // get / put / optimistic lock / applyUpdate / delete — Figure II.2.
        let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"v1");
        let c2 = client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
        assert_eq!(
            client.put(b"k", &c1, Bytes::from_static(b"v3")).unwrap_err(),
            VoldemortError::ObsoleteVersion,
            "{engine:?}: optimistic lock"
        );
        client
            .apply_update(b"k", 3, &|siblings| {
                let mut value = siblings[0].value.to_vec();
                value.push(b'!');
                Some(Bytes::from(value))
            })
            .unwrap();
        assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"v2!");
        let latest = client.get(b"k").unwrap()[0].clock.clone();
        assert!(client.delete(b"k", &latest).unwrap());
        assert!(client.get(b"k").unwrap().is_empty());
        let _ = c2;
    }
}

#[test]
fn empty_clock_put_on_existing_key_is_locked_out() {
    let cluster = VoldemortCluster::new(8, 2).unwrap();
    cluster.add_store(StoreDef::read_write("s")).unwrap();
    let client = cluster.client("s").unwrap();
    client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
    assert_eq!(
        client
            .put(b"k", &VectorClock::new(), Bytes::from_static(b"blind"))
            .unwrap_err(),
        VoldemortError::ObsoleteVersion
    );
}

#[test]
fn zoned_cluster_survives_a_datacenter_loss() {
    // Two zones (the paper's cross-datacenter deployments): N=4, zone
    // requirement 2 means each key has replicas in both DCs. Losing one
    // whole zone must leave every key readable (R=1).
    let cluster = VoldemortCluster::new_two_zone(32, 6).unwrap();
    cluster
        .add_store(
            StoreDef::read_write("s")
                .with_quorum(4, 1, 2)
                .with_zones(2),
        )
        .unwrap();
    let client = cluster.client("s").unwrap();
    for i in 0..100 {
        client
            .put_initial(format!("k{i}").as_bytes(), Bytes::from(format!("v{i}")))
            .unwrap();
    }
    // Zone 1 = odd nodes. Kill the whole datacenter.
    for node in [1u16, 3, 5] {
        cluster.network().crash(NodeId(node));
    }
    for i in 0..100 {
        let got = client.get(format!("k{i}").as_bytes()).unwrap();
        assert_eq!(got.len(), 1, "k{i} lost with zone 1 down");
        assert_eq!(got[0].value.as_ref(), format!("v{i}").as_bytes());
    }
}

#[test]
fn read_only_cycle_through_cluster_store() {
    // add_read_only_store + external build + per-node pull/swap, then
    // reads through the ordinary quorum client (R=1).
    let scratch = ScratchDir::new("it-ro").unwrap();
    let hdfs = ScratchDir::new("it-hdfs").unwrap();
    let cluster = VoldemortCluster::new(16, 3).unwrap();
    let stores = cluster
        .add_read_only_store(
            StoreDef::read_only("pymk").with_quorum(2, 1, 1),
            scratch.path(),
        )
        .unwrap();

    let records: Vec<(Bytes, Bytes)> = (0..500)
        .map(|i| {
            (
                Bytes::from(format!("member:{i:06}")),
                Bytes::from(format!("recs:{i}")),
            )
        })
        .collect();
    let builder = ReadOnlyBuilder::new(cluster.ring(), 2, 3);
    let out = builder.build(records, 1, hdfs.path()).unwrap();
    for store in &stores {
        store.pull(&out.node_dir(store.node()), 1).unwrap();
        store.swap(1).unwrap();
    }

    let client = cluster.client("pymk").unwrap();
    for i in (0..500).step_by(17) {
        let got = client.get(format!("member:{i:06}").as_bytes()).unwrap();
        assert_eq!(got.len(), 1, "member {i}");
        assert_eq!(got[0].value.as_ref(), format!("recs:{i}").as_bytes());
    }
    // Writes through the client are rejected by the engine.
    let err = client
        .put_initial(b"member:000001", Bytes::from_static(b"nope"))
        .unwrap_err();
    assert!(
        matches!(
            err,
            VoldemortError::UnsupportedOperation(_) | VoldemortError::InsufficientWrites { .. }
        ),
        "{err}"
    );
}

#[test]
fn dynamic_node_addition_rebalances_without_downtime() {
    let cluster = VoldemortCluster::new(30, 3).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(2, 1, 1))
        .unwrap();
    let client = cluster.client("s").unwrap();
    for i in 0..300 {
        client
            .put_initial(format!("k{i}").as_bytes(), Bytes::from(format!("v{i}")))
            .unwrap();
    }
    let moved = cluster.rebalance_in_new_node(NodeId(3)).unwrap();
    assert!(!moved.is_empty(), "fair share migrated");
    assert_eq!(cluster.ring().partitions_of(NodeId(3)).len(), moved.len());
    // Every key still readable, and new writes land fine.
    for i in 0..300 {
        assert_eq!(
            client.get(format!("k{i}").as_bytes()).unwrap().len(),
            1,
            "k{i} lost during rebalance"
        );
    }
    client.put_initial(b"post-rebalance", Bytes::from_static(b"ok")).unwrap();
    assert_eq!(client.get(b"post-rebalance").unwrap().len(), 1);
}

#[test]
fn failure_detector_routes_around_flapping_node_and_probes_back() {
    use li_commons::sim::SimClock;
    use std::time::Duration;

    let clock = Arc::new(SimClock::new());
    let ring = li_commons::ring::HashRing::balanced(16, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
    let network = li_commons::sim::SimNetwork::reliable();
    let cluster = VoldemortCluster::with_parts(ring, network.clone(), clock.clone()).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 1, 1))
        .unwrap();
    let client = cluster.client("s").unwrap();

    // Crash node 1; hammer it until the success-ratio detector bans it.
    network.crash(NodeId(1));
    for i in 0..60 {
        let _ = client.put_initial(format!("k{i}").as_bytes(), Bytes::from_static(b"v"));
    }
    assert!(!cluster.detector().is_available(NodeId(1)), "banned");

    // While banned, ops skip it without errors.
    client.put_initial(b"during-ban", Bytes::from_static(b"v")).unwrap();

    // Node recovers; only the async probe readmits it.
    network.restart(NodeId(1));
    assert!(!cluster.detector().is_available(NodeId(1)));
    clock.advance(Duration::from_secs(6));
    cluster.run_failure_probes();
    assert!(cluster.detector().is_available(NodeId(1)), "probe readmitted");
}

/// Server-side routing (§II.B): the same reads and writes through a
/// coordinator node, which pays the extra hop and runs the replica fan-out.
#[test]
fn server_side_routing_reads_what_client_routing_reads() {
    let cluster = VoldemortCluster::new(32, 3).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(2, 2, 2))
        .unwrap();
    let coordinator = NodeId(0);
    let routed = cluster.client("s").unwrap().with_server_routing(coordinator);
    let direct = cluster.client("s").unwrap();
    let c1 = routed.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
    assert_eq!(routed.get(b"k").unwrap(), direct.get(b"k").unwrap());
    routed.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
    assert_eq!(routed.get(b"k").unwrap()[0].value.as_ref(), b"v2");
    assert_eq!(routed.get(b"k").unwrap(), direct.get(b"k").unwrap());
    // The coordinator is a single point for this client: losing it fails
    // requests, while client-side routing routes around it.
    cluster.network().crash(coordinator);
    assert!(matches!(
        routed.get(b"k"),
        Err(VoldemortError::Net(node, _)) if node == coordinator
    ));
    assert!(direct.get(b"k").is_ok(), "client-side routing unaffected");
}

/// A comma-separated list whose transformed put appends and whose
/// transformed get returns the last element — the paper's sub-list example.
struct ListAppend;

impl Transform for ListAppend {
    fn on_get(&self, value: &[u8]) -> Bytes {
        let list = std::str::from_utf8(value).unwrap_or("");
        Bytes::copy_from_slice(list.rsplit(',').next().unwrap_or("").as_bytes())
    }

    fn on_put(&self, held: &[Versioned<Bytes>], input: &Bytes) -> Rewrite {
        match held {
            [] => Rewrite::Value(input.clone()),
            [_] => Rewrite::Append([&b","[..], input].concat().into()),
            _ => Rewrite::Keep,
        }
    }
}

/// API method 3, the transformed get: the transform runs on each replica,
/// so only the list's tail crosses the network.
#[test]
fn transformed_get_returns_the_list_tail() {
    let cluster = VoldemortCluster::new(32, 3).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(2, 2, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();
    for item in ["li", "msft"] {
        client
            .put_with_transform(b"follows", Bytes::from_static(item.as_bytes()), &ListAppend)
            .unwrap();
    }
    assert_eq!(client.get(b"follows").unwrap()[0].value.as_ref(), b"li,msft");
    let tail = client.get_with_transform(b"follows", &ListAppend).unwrap();
    assert_eq!(tail[0].value.as_ref(), b"msft");
}
