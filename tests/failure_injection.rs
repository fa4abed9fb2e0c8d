//! Failure-injection integration tests: quorums under message loss and
//! partitions (Voldemort), failover storms (Espresso/Helix, C-11/C-20),
//! and Kafka group-membership churn (C-17) — the failure surface §II.A
//! designs for ("frequent transient and short-term failures ... are very
//! prevalent in production datacenters").

use bytes::Bytes;
use li_commons::ring::{HashRing, NodeId, PartitionId};
use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
use li_commons::sim::{SimClock, SimNetwork};
use li_espresso::{DatabaseSchema, EspressoCluster, TableSchema};
use li_sqlstore::RowKey;
use li_voldemort::{StoreDef, VoldemortCluster};
use std::sync::Arc;

#[test]
fn voldemort_sloppy_quorum_rides_out_message_loss() {
    // 10% message loss (the paper's "frequent transient errors" regime —
    // below the failure detector's ban threshold): W=2-of-3 with hinted
    // handoff keeps writes durable; after healing and hint delivery, all
    // acknowledged writes are readable.
    let clock = Arc::new(SimClock::new());
    let ring = HashRing::balanced(16, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
    let network = SimNetwork::with_seed(99);
    let cluster = VoldemortCluster::with_parts(ring, network.clone(), clock.clone()).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();

    network.set_drop_probability(0.1);
    let mut written = Vec::new();
    for i in 0..200 {
        let key = format!("k{i}");
        let value = Bytes::from(format!("v{i}"));
        // Retry like a real app: apply_update re-reads at quorum and
        // re-writes with a dominating clock, so success == W acks of the
        // *current* write (a bare put retry can't distinguish "my first
        // attempt landed partially" from "someone else wrote").
        for _attempt in 0..10 {
            match client.apply_update(key.as_bytes(), 5, &|_| Some(value.clone())) {
                Ok(_) => {
                    written.push(key.clone());
                    break;
                }
                Err(_) => {
                    // The async recovery thread keeps running in production:
                    // time passes, banned-but-healthy nodes get probed back.
                    clock.advance(std::time::Duration::from_secs(6));
                    cluster.run_failure_probes();
                }
            }
        }
    }
    assert!(written.len() > 190, "most writes should eventually land: {}", written.len());

    network.set_drop_probability(0.0);
    // Readmit anything the detector banned during the lossy phase, then
    // drain hints.
    clock.advance(std::time::Duration::from_secs(6));
    cluster.run_failure_probes();
    cluster.deliver_hints();
    // Every acknowledged write must be readable at quorum.
    for key in &written {
        let got = client.get(key.as_bytes()).unwrap();
        assert!(!got.is_empty(), "{key} lost despite W=2 ack");
    }
}

#[test]
fn voldemort_partition_blocks_quorum_then_heals() {
    let ring = HashRing::balanced(12, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
    let network = SimNetwork::reliable();
    // SimClock everywhere: no test may depend on wall-clock time (the
    // determinism contract in DESIGN.md).
    let cluster =
        VoldemortCluster::with_parts(ring, network.clone(), Arc::new(SimClock::new())).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 3))
        .unwrap();
    let client = cluster.client("s").unwrap();
    client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();

    // Split the client (node u16::MAX side) from two of three replicas:
    // W=3 with no available fallbacks must fail.
    let clock_before = client.get(b"k").unwrap()[0].clock.clone();
    network.partition(&[
        &[NodeId(0), li_voldemort::StoreClient::CLIENT_NODE],
        &[NodeId(1), NodeId(2)],
    ]);
    let err = client.put(b"k", &clock_before, Bytes::from_static(b"v2"));
    assert!(err.is_err(), "W=3 unreachable under partition");

    network.heal();
    let clock = client.get(b"k").unwrap()[0].clock.clone();
    client.put(b"k", &clock, Bytes::from_static(b"v2")).unwrap();
    assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"v2");
}

fn tiny_music(partitions: u32, replication: usize) -> DatabaseSchema {
    DatabaseSchema::new("Music", partitions, replication)
        .with_table(
            TableSchema::new("Album", ["artist", "album"]),
            RecordSchema::new("Album", 1, vec![Field::new("year", FieldType::Long)]).unwrap(),
        )
        .unwrap()
}

#[test]
fn espresso_survives_rolling_failures_of_every_node() {
    // Kill and restart each node in turn (a rolling outage); with
    // replication 2 and pumps between failures, no committed document is
    // ever lost and writes always find a master.
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(tiny_music(6, 2)).unwrap();
    let album = |year: i64| Record::new().with("year", Value::Long(year));

    let mut expected = 0u64;
    for round in 0..3u16 {
        // Write a wave of documents.
        for i in 0..10u64 {
            cluster
                .put(
                    "Music",
                    "Album",
                    RowKey::new([format!("artist-{}", i % 5), format!("album-{round}-{i}")]),
                    &album(2000 + i as i64),
                )
                .unwrap();
            expected += 1;
        }
        cluster.pump_replication().unwrap();
        cluster.crash_node(NodeId(round)).unwrap();
        // Every artist still fully served by the survivors.
        let mut total = 0;
        for a in 0..5 {
            total += cluster
                .get_uri(&format!("/Music/Album/artist-{a}"))
                .unwrap()
                .len() as u64;
        }
        assert_eq!(total, expected, "data loss after killing node {round}");
        cluster.restart_node(NodeId(round)).unwrap();
        cluster.pump_replication().unwrap();
    }
}

#[test]
fn espresso_no_two_masters_during_failover() {
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(tiny_music(8, 2)).unwrap();
    cluster.pump_replication().unwrap();
    cluster.crash_node(NodeId(0)).unwrap();
    let view = cluster.controller().external_view("Music").unwrap();
    for p in 0..8 {
        let pid = PartitionId(p);
        let masters: Vec<NodeId> = view
            .partitions
            .get(&pid)
            .map(|nodes| {
                nodes
                    .iter()
                    .filter(|(_, &s)| s == li_helix::ReplicaState::Master)
                    .map(|(&n, _)| n)
                    .collect()
            })
            .unwrap_or_default();
        assert!(masters.len() <= 1, "partition {p} has masters {masters:?}");
        assert!(!masters.contains(&NodeId(0)), "dead node still mastering");
    }
}

#[test]
fn helix_converges_back_to_ideal_after_churn() {
    use li_helix::{best_possible_state, compute_transitions, ideal_state, ResourceConfig};
    use std::collections::BTreeSet;

    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    let config = ResourceConfig::new("r", 20, 3);
    let (prefs, ideal) = ideal_state(&config, &nodes);

    // Churn: lose 2, regain 1, lose another, regain all.
    let mut current = ideal.clone();
    let phases: Vec<BTreeSet<NodeId>> = vec![
        [0, 2, 4].iter().map(|&i| NodeId(i)).collect(),
        [0, 1, 2, 4].iter().map(|&i| NodeId(i)).collect(),
        [1, 2, 4].iter().map(|&i| NodeId(i)).collect(),
        (0..5).map(NodeId).collect(),
    ];
    for live in &phases {
        let target = best_possible_state(&prefs, live, |_, _| true);
        let plan = compute_transitions("r", &current, &target);
        // Execute the plan (simulate handlers that always succeed).
        for step in plan {
            current.set_state(step.partition, step.node, step.to);
        }
        assert_eq!(current, target);
    }
    // All nodes back: BESTPOSSIBLESTATE converged to IDEALSTATE.
    assert_eq!(current, ideal);
}

#[test]
fn kafka_group_survives_rapid_membership_churn() {
    use li_kafka::{AckMode, GroupConsumer, KafkaCluster, MessageSet};

    let cluster = KafkaCluster::new(2).unwrap();
    cluster.create_topic("t", 12).unwrap();
    for p in 0..12 {
        let set = MessageSet::from_payloads([format!("m{p}")]);
        cluster
            .broker_for("t", p)
            .unwrap()
            .produce_frames_grouped("t", p, set.encode(), 1, set.payload_bytes(), AckMode::Leader)
            .unwrap();
    }
    let mut a = GroupConsumer::join(cluster.clone(), "g", "t", "a").unwrap();
    let mut b = GroupConsumer::join(cluster.clone(), "g", "t", "b").unwrap();
    let c = GroupConsumer::join(cluster.clone(), "g", "t", "c").unwrap();
    let d = GroupConsumer::join(cluster.clone(), "g", "t", "d").unwrap();
    // Churn: c leaves gracefully, d crashes, before anyone rebalanced.
    c.leave().unwrap();
    d.crash(&cluster);
    for _ in 0..2 {
        a.rebalance().unwrap();
        b.rebalance().unwrap();
    }
    let mut owned: Vec<u32> = a
        .owned_partitions()
        .into_iter()
        .chain(b.owned_partitions())
        .collect();
    owned.sort_unstable();
    assert_eq!(owned, (0..12).collect::<Vec<u32>>());
    // And consumption covers every partition exactly once.
    let total = a.poll().unwrap().len() + b.poll().unwrap().len();
    assert_eq!(total, 12);
}
